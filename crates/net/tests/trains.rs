//! Packet trains: the sliced engines run a clean store-and-forward hop
//! as two heap events instead of one per frame, and must stay
//! bit-identical to the per-frame event engine — including when a train
//! splits mid-packet and when two hops finish in the same nanosecond.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer::Cpu;
use transputer_net::topology::grid_edge_wire;
use transputer_net::{grid_adjacency, Engine, Network, NetworkBuilder, NetworkConfig, SimOutcome};

/// Bytes per message in the exchange test: two full 16-byte packets and
/// a short one, so every message is multi-packet.
const MSG_BYTES: i64 = 40;
/// Wire bytes per exchanged message: payload plus a 4-byte header per
/// packet.
const MSG_WIRE_BYTES: u64 = 40 + 3 * 4;

fn halting() -> Vec<u8> {
    let mut c = Vec::new();
    c.extend(encode(Direct::LoadConstant, 1));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// Spin for `pad` one-cycle instructions, send `words` as messages of
/// `MSG_BYTES` out link port 0, receive as many back on port 0, halt.
/// Sending first is deadlock-free because the router absorbs both
/// messages (six packets) into its forwarding queue.
fn exchange(pad: usize, words: &[i64]) -> Vec<u8> {
    let per_msg = (MSG_BYTES / 4) as usize;
    assert_eq!(words.len() % per_msg, 0);
    let msgs = words.len() / per_msg;
    let mut c = Vec::new();
    for _ in 0..pad {
        c.extend(encode(Direct::LoadConstant, 0));
    }
    for (i, &w) in words.iter().enumerate() {
        c.extend(encode(Direct::LoadConstant, w));
        c.extend(encode(Direct::StoreLocal, i as i64 + 1));
    }
    let io = |c: &mut Vec<u8>, slot: i64, base: u32, op: Op| {
        c.extend(encode(Direct::LoadLocalPointer, slot));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, i64::from(base)));
        c.extend(encode(Direct::LoadConstant, MSG_BYTES));
        c.extend(encode_op(op));
    };
    for m in 0..msgs {
        io(
            &mut c,
            1 + (m * per_msg) as i64,
            LINK_OUT_BASE,
            Op::OutputMessage,
        );
    }
    for m in 0..msgs {
        let slot = 1 + ((msgs + m) * per_msg) as i64;
        io(&mut c, slot, LINK_IN_BASE, Op::InputMessage);
    }
    c.extend(encode(Direct::LoadConstant, 1));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

fn image(cpu: &Cpu) -> Vec<u8> {
    let base = cpu.memory().base();
    cpu.memory()
        .dump(base, cpu.memory().size() as usize)
        .expect("whole memory dumps")
}

/// What one wire shows a predicate: delivered bytes per direction, then
/// busy time per direction.
type WireView = ((u64, u64), (u64, u64));

fn view(net: &Network, w: usize) -> WireView {
    (net.wire_delivered(w), net.wire_busy_ns(w))
}

/// Everything the exchange run must agree on across engines.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// When each direction finished delivering both messages.
    done_ns: [u64; 2],
    cycles: Vec<u64>,
    delivered: (u64, u64),
    images: Vec<Vec<u8>>,
}

/// Run the two-node exchange: both ends of one routed wire stream two
/// multi-packet messages at once, end 1 starting `pad` instructions
/// late. Returns the outcome, every `(time, view)` change of the wire as
/// the predicate saw it, and the network.
fn run_exchange(
    engine: Engine,
    workers: usize,
    pad: usize,
) -> (Outcome, Vec<(u64, WireView)>, Network) {
    let mut b = NetworkBuilder::new(NetworkConfig {
        engine,
        ..NetworkConfig::default()
    });
    b.add_node();
    b.add_node();
    b.enable_router(grid_adjacency(2, 1));
    b.add_vc((0, 0), (1, 0));
    b.add_vc((1, 0), (0, 0));
    let mut net = b.build();
    net.set_par_workers(workers);
    let words = |seed: i64| -> Vec<i64> { (0..20).map(|i| seed + i * 0x0101).collect() };
    net.node_mut(0)
        .load_boot_program(&exchange(0, &words(0x1000)))
        .unwrap();
    net.node_mut(1)
        .load_boot_program(&exchange(pad, &words(0x7000)))
        .unwrap();
    let mut seen: Vec<(u64, WireView)> = Vec::new();
    let mut done_ns = [0u64; 2];
    let out = net
        .run_until(1_000_000_000, |net| {
            let v = view(net, 0);
            if seen.last().is_none_or(|&(_, last)| last != v) {
                seen.push((net.time_ns(), v));
            }
            for (dir, got) in [v.0 .0, v.0 .1].into_iter().enumerate() {
                if got == 2 * MSG_WIRE_BYTES && done_ns[dir] == 0 {
                    done_ns[dir] = net.time_ns();
                }
            }
            net.all_halted().then_some(SimOutcome::AllHalted)
        })
        .unwrap();
    assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
    let outcome = Outcome {
        done_ns,
        cycles: (0..2).map(|n| net.node(n).cycles()).collect(),
        delivered: net.wire_delivered(0),
        images: (0..2).map(|n| image(net.node(n))).collect(),
    };
    (outcome, seen, net)
}

/// Whether the per-frame event run held a view matching `same` at time
/// `t`: views only grow, so the matching ones form one run, held from
/// its first evaluation until the next change.
fn held_at(event: &[(u64, WireView)], t: u64, same: impl Fn(&WireView) -> bool) -> bool {
    let held: Vec<usize> = (0..event.len()).filter(|&i| same(&event[i].1)).collect();
    let (Some(&first), Some(&last)) = (held.first(), held.last()) else {
        return false;
    };
    let until = event.get(last + 1).map_or(u64::MAX, |&(te, _)| te);
    event[first].0 <= t && t <= until
}

/// Trains elide frames but never let the wire counters run ahead or
/// lag. Delivered bytes change only at wire events at the frontier, so
/// every pair a sliced run showed its predicate must be the pair the
/// per-frame event run held at that instant. Busy time is charged when
/// a frame is sent, which a slice does at its stamp, possibly ahead of
/// the frontier; so each direction's busy time need only be one the
/// per-frame run also passed through.
fn assert_views_per_frame_exact(
    label: &str,
    sliced: &[(u64, WireView)],
    event: &[(u64, WireView)],
) {
    for &(t, (delivered, busy)) in sliced {
        assert!(
            held_at(event, t, |v| v.0 == delivered),
            "{label}: delivered {delivered:?} at {t} ns not held per frame then"
        );
        assert!(
            event.iter().any(|&(_, (_, b))| b.0 == busy.0),
            "{label}: busy {} ns from end 0 at {t} ns never held per frame",
            busy.0
        );
        assert!(
            event.iter().any(|&(_, (_, b))| b.1 == busy.1),
            "{label}: busy {} ns from end 1 at {t} ns never held per frame",
            busy.1
        );
    }
}

/// Both directions of one wire stream multi-packet messages at once, so
/// trains split mid-packet: every engine and worker count agrees on
/// completion times, cycles, delivered bytes and memory images, and the
/// sliced engines' wire counters are per-frame exact at every predicate
/// evaluation.
#[test]
fn trains_split_mid_packet_identically() {
    let mut splits = 0;
    for pad in [0, 23, 61, 150, 211, 307] {
        let (want, event_views, event_net) = run_exchange(Engine::Event, 1, pad);
        assert_eq!(want.delivered, (2 * MSG_WIRE_BYTES, 2 * MSG_WIRE_BYTES));
        assert_eq!(
            event_net.event_counts().train_splits,
            0,
            "event runs per frame"
        );
        for (engine, workers) in [
            (Engine::Sliced, 1),
            (Engine::Parallel, 1),
            (Engine::Parallel, 2),
            (Engine::Parallel, 3),
        ] {
            let label = format!("pad {pad}, {engine:?} x{workers}");
            let (got, views, net) = run_exchange(engine, workers, pad);
            assert_eq!(got, want, "{label}");
            assert_views_per_frame_exact(&label, &views, &event_views);
            splits += net.event_counts().train_splits;
        }
    }
    assert!(splits > 0, "the exchange must split trains mid-packet");
}

/// Send one word as a four-byte message out link port 0, then halt.
fn send_word(word: i64) -> Vec<u8> {
    let mut c = Vec::new();
    c.extend(encode(Direct::LoadConstant, word));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocalPointer, 1));
    c.extend(encode_op(Op::MinimumInteger));
    c.extend(encode(
        Direct::LoadNonLocalPointer,
        i64::from(LINK_OUT_BASE),
    ));
    c.extend(encode(Direct::LoadConstant, 4));
    c.extend(encode_op(Op::OutputMessage));
    c.extend(halting());
    c
}

/// Receive `n` four-byte messages on link port 0 into locals 1..=n.
fn receive_words(n: i64) -> Vec<u8> {
    let mut c = Vec::new();
    for slot in 1..=n {
        c.extend(encode(Direct::LoadLocalPointer, slot));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, i64::from(LINK_IN_BASE)));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::InputMessage));
    }
    c.extend(halting());
    c
}

/// Two packets finish arriving at one router in the same nanosecond and
/// route to the same out port. The heap orders same-instant entries by
/// cause, then nodes before wires, each by index: both final bytes were
/// caused at the same instant, so the packet on the lower-numbered wire
/// is routed — and queued for the shared port — first.
#[test]
fn same_instant_packets_queue_in_causal_key_order() {
    // 3×3 grid, row-major ids. Node 1 (1,0) sends south through node 4;
    // node 3 (0,1) sends east into node 4, which turns it south too.
    let (from_north, from_west) = (
        grid_edge_wire(3, 3, 1, 0, false),
        grid_edge_wire(3, 3, 0, 1, true),
    );
    assert!(from_north < from_west);
    let mut reference = None;
    for engine in [Engine::Event, Engine::Sliced] {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        for _ in 0..9 {
            b.add_node();
        }
        b.enable_router(grid_adjacency(3, 3));
        // Register the west sender's channel first, so neither the
        // channel ids nor the node ids favour the packet that wins.
        b.add_vc((3, 0), (7, 0));
        b.add_vc((1, 0), (7, 0));
        let mut net = b.build();
        for n in 0..9 {
            let program = match n {
                1 => send_word(0x1111),
                3 => send_word(0x3333),
                7 => receive_words(2),
                _ => halting(),
            };
            net.node_mut(n).load_boot_program(&program).unwrap();
        }
        let mut arrived = [0u64; 2];
        net.run_until(1_000_000_000, |net| {
            for (i, w) in [from_north, from_west].into_iter().enumerate() {
                let (a, b) = net.wire_delivered(w);
                if a + b == 8 && arrived[i] == 0 {
                    arrived[i] = net.time_ns();
                }
            }
            net.all_halted().then_some(SimOutcome::AllHalted)
        })
        .unwrap();
        assert!(arrived[0] > 0, "{engine:?}: both packets reached node 4");
        assert_eq!(arrived[0], arrived[1], "{engine:?}: a same-nanosecond tie");
        let slot = |net: &mut Network, i: u32| {
            let addr = net.node(7).default_boot_workspace() + 4 * i;
            net.node_mut(7).peek_word(addr).unwrap()
        };
        let got = (slot(&mut net, 1), slot(&mut net, 2));
        assert_eq!(
            got,
            (0x1111, 0x3333),
            "{engine:?}: the packet on the lower wire goes first"
        );
        let fingerprint = (
            got,
            arrived,
            (0..9).map(|n| net.node(n).cycles()).collect::<Vec<_>>(),
            (0..net.wire_count())
                .map(|w| net.wire_delivered(w))
                .collect::<Vec<_>>(),
        );
        match &reference {
            None => reference = Some(fingerprint),
            Some(want) => assert_eq!(&fingerprint, want, "{engine:?} diverged"),
        }
    }
}

/// A clean store-and-forward route costs two wire pops per hop under the
/// sliced engine (the final byte and its acknowledge) and sixteen under
/// the per-frame event engine (eight bytes, eight acknowledges).
#[test]
fn clean_hops_pop_two_wire_events_under_trains() {
    for (engine, per_hop) in [(Engine::Event, 16), (Engine::Sliced, 2)] {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        for _ in 0..4 {
            b.add_node();
        }
        b.enable_router(grid_adjacency(4, 1));
        b.add_vc((0, 0), (3, 0));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&send_word(0x0BAD_F00D))
            .unwrap();
        for n in 1..3 {
            net.node_mut(n).load_boot_program(&halting()).unwrap();
        }
        net.node_mut(3)
            .load_boot_program(&receive_words(1))
            .unwrap();
        // Run the heap dry, closing acknowledges included.
        let out = net.run_for(1_000_000).unwrap();
        assert_eq!(out, SimOutcome::Deadlock, "{engine:?}: the heap empties");
        let hops = net.router_stats().unwrap().hops;
        assert_eq!(hops, 3, "{engine:?}");
        let counts = net.event_counts();
        assert_eq!(counts.wire_pops, per_hop * hops, "{engine:?}");
        assert_eq!(counts.train_splits, 0, "{engine:?}");
        assert!(counts.node_pops > 0);
    }
}

/// Observe the second hop of a three-node chain while the transit
/// node's CPU spins: its slices end at the per-frame instants of its
/// wires, so the predicate samples the hop's trains mid-flight, during
/// both bytes and acknowledges. Every frame on that wire is sent at a wire
/// event, never at a slice stamp ahead of the frontier, so delivered
/// bytes and busy time alike must match the per-frame run exactly.
#[test]
fn train_counters_are_per_frame_exact_mid_train() {
    let run = |engine: Engine| {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        for _ in 0..3 {
            b.add_node();
        }
        b.enable_router(grid_adjacency(3, 1));
        b.add_vc((0, 0), (2, 0));
        let mut net = b.build();
        let words: Vec<i64> = (0..10).map(|i| 0x2000 + i).collect();
        // Multiplies take many cycles, so slices overshoot the frame
        // instants that bound them by varying amounts and the samples
        // land at every phase of a byte or acknowledge flight.
        let mut spin = Vec::new();
        for _ in 0..300 {
            spin.extend(encode(Direct::LoadConstant, 0));
            spin.extend(encode(Direct::LoadConstant, 0));
            spin.extend(encode_op(Op::Multiply));
        }
        spin.extend(halting());
        let mut receive = Vec::new();
        let io = |c: &mut Vec<u8>| {
            c.extend(encode(Direct::LoadLocalPointer, 1));
            c.extend(encode_op(Op::MinimumInteger));
            c.extend(encode(Direct::LoadNonLocalPointer, i64::from(LINK_IN_BASE)));
            c.extend(encode(Direct::LoadConstant, MSG_BYTES));
            c.extend(encode_op(Op::InputMessage));
        };
        io(&mut receive);
        receive.extend(halting());
        let mut send = exchange(0, &words);
        // Keep only the sending half of the exchange program: cut it
        // before its input and halt instead.
        send.truncate(send.len() - receive.len());
        send.extend(halting());
        net.node_mut(0).load_boot_program(&send).unwrap();
        net.node_mut(1).load_boot_program(&spin).unwrap();
        net.node_mut(2).load_boot_program(&receive).unwrap();
        let mut seen: Vec<(u64, WireView)> = Vec::new();
        net.run_until(1_000_000_000, |net| {
            let v = view(net, 1);
            if seen.last().is_none_or(|&(_, last)| last != v) {
                seen.push((net.time_ns(), v));
            }
            net.all_halted().then_some(SimOutcome::AllHalted)
        })
        .unwrap();
        assert_eq!(net.wire_delivered(1), (0, MSG_WIRE_BYTES), "{engine:?}");
        (seen, net.event_counts())
    };
    let (event, _) = run(Engine::Event);
    for engine in [Engine::Sliced, Engine::Parallel] {
        let (sliced, counts) = run(engine);
        assert!(
            counts.wire_pops < 8 * 3,
            "{engine:?}: the hops ran as trains"
        );
        let mid_train = sliced
            .iter()
            .filter(|&&(_, (d, _))| d.1 % 20 != 0 && d.1 % 20 != 12)
            .count();
        assert!(
            mid_train > 10,
            "{engine:?}: only {mid_train} mid-train samples"
        );
        for &(t, v) in &sliced {
            assert!(
                held_at(&event, t, |e| *e == v),
                "{engine:?}: view {v:?} at {t} ns not held per frame then"
            );
        }
    }
}
