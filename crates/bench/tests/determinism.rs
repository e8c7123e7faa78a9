//! Engine determinism: the lookahead-batched engines must be
//! bit-identical to the per-instruction event engine.
//!
//! Two layers of evidence:
//!
//! * every corpus program, standalone: [`Cpu::run`] vs
//!   [`Cpu::run_batched`] agree on halt cycle, instruction counters,
//!   the checked global, and the complete final memory image;
//! * the e09 16-node database-search network under all three
//!   [`Engine`]s (plus the parallel engine at forced worker counts
//!   1, 2, 3 and 7, so its window-batching path runs even on
//!   single-core hosts and at counts misaligned with the node count):
//!   identical answers and answer times, per-node halt
//!   cycle counts, per-wire delivered-byte counters, per-node
//!   instruction counters (the stats audit), and final memory images;
//! * the same worker-count sweep on e10-shaped (128-node board) and
//!   e16-shaped (64-node hypercube) machines with trimmed databases,
//!   against a sliced-engine reference.

use transputer::{Cpu, CpuConfig, HaltReason, RunOutcome};
use transputer_apps::dbsearch::{DbSearch, DbSearchConfig};
use transputer_apps::DbSearchReport;
use transputer_bench::corpus::CORPUS;
use transputer_bench::hostperf::{
    board128_smoke, faulted, faulted_hypercube, grid32x32_stress, hypercube256, hypercube_smoke,
    routed_hypercube256, routed_hypercube_smoke, routed_smoke, run_hypercube, run_routed,
    run_routed_hypercube, NetRun, FAULT_RATE_DEFAULT, FAULT_SEED_DEFAULT,
};
use transputer_link::FaultPlan;
use transputer_net::topology::grid_edge_wire;
use transputer_net::{Engine, RouterConfig, Switching};

fn full_image(cpu: &Cpu) -> Vec<u8> {
    let base = cpu.memory().base();
    let len = cpu.memory().size() as usize;
    cpu.memory().dump(base, len).expect("whole memory dumps")
}

/// One engine/worker-count variant must match the reference run on
/// every observable: answers, arrival times, the stats audit, per-node
/// halt cycles, instruction counters, memory images, and per-wire
/// delivered-byte counters.
fn assert_run_matches(
    label: &str,
    sim: &DbSearch,
    report: &DbSearchReport,
    base_sim: &DbSearch,
    base_report: &DbSearchReport,
) {
    let net = sim.network();
    let base_net = base_sim.network();
    assert_eq!(report.answers, base_report.answers, "{label}: answers");
    assert_eq!(
        report.answer_times_ns, base_report.answer_times_ns,
        "{label}: answer arrival times"
    );
    assert_eq!(
        report.total_instructions, base_report.total_instructions,
        "{label}: stats audit (instruction totals)"
    );
    assert_eq!(net.len(), base_net.len());
    for id in 0..net.len() {
        assert_eq!(
            net.node(id).cycles(),
            base_net.node(id).cycles(),
            "{label}: node {id} halt cycle count"
        );
        assert_eq!(
            net.node(id).stats().instructions,
            base_net.node(id).stats().instructions,
            "{label}: node {id} instruction counter"
        );
        assert_eq!(
            full_image(net.node(id)),
            full_image(base_net.node(id)),
            "{label}: node {id} memory image"
        );
    }
    assert_eq!(net.wire_count(), base_net.wire_count());
    for w in 0..net.wire_count() {
        assert_eq!(
            net.wire_delivered(w),
            base_net.wire_delivered(w),
            "{label}: wire {w} delivered-byte counters"
        );
    }
}

#[test]
fn corpus_programs_agree_between_engines() {
    for item in CORPUS {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let run_one = |batched: bool| {
            let mut cpu = Cpu::new(CpuConfig::t424());
            let wptr = program.load(&mut cpu).expect("loads");
            let out = if batched {
                cpu.run_batched(500_000_000)
            } else {
                cpu.run(500_000_000)
            };
            assert_eq!(
                out.expect("halts"),
                RunOutcome::Halted(HaltReason::Stopped),
                "corpus `{}`",
                item.name
            );
            (cpu, wptr)
        };
        let (mut event, we) = run_one(false);
        let (mut sliced, ws) = run_one(true);
        assert_eq!(we, ws);
        assert_eq!(event.cycles(), sliced.cycles(), "corpus `{}`", item.name);
        assert_eq!(
            event.stats().instructions,
            sliced.stats().instructions,
            "corpus `{}`",
            item.name
        );
        let got_e = program
            .read_global(&mut event, we, item.check_global)
            .unwrap();
        let got_s = program
            .read_global(&mut sliced, ws, item.check_global)
            .unwrap();
        assert_eq!(
            event.word_length().to_signed(got_e),
            item.expected,
            "corpus `{}`",
            item.name
        );
        assert_eq!(got_e, got_s, "corpus `{}`", item.name);
        assert_eq!(
            full_image(&event),
            full_image(&sliced),
            "corpus `{}` memory image",
            item.name
        );
    }
}

#[test]
fn corpus_is_identical_with_decode_cache_disabled() {
    // The predecoded instruction cache is a host-side instrument: with
    // it force-disabled, every corpus program must land on identical
    // answers, cycle counts, simulated statistics, and memory images.
    for item in CORPUS {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let run_one = |decode_cache: bool| {
            let mut cpu = Cpu::new(CpuConfig::t424().with_decode_cache(decode_cache));
            let wptr = program.load(&mut cpu).expect("loads");
            assert_eq!(
                cpu.run_batched(500_000_000).expect("halts"),
                RunOutcome::Halted(HaltReason::Stopped),
                "corpus `{}`",
                item.name
            );
            (cpu, wptr)
        };
        let (mut on, wo) = run_one(true);
        let (mut off, wf) = run_one(false);
        assert_eq!(wo, wf);
        assert_eq!(on.cycles(), off.cycles(), "corpus `{}` cycles", item.name);
        assert_eq!(
            on.stats().simulated(),
            off.stats().simulated(),
            "corpus `{}` simulated statistics",
            item.name
        );
        assert!(
            on.stats().decode_hits > 0,
            "corpus `{}` never used the cache",
            item.name
        );
        assert_eq!(
            off.stats().decode_hits + off.stats().decode_misses,
            0,
            "corpus `{}` used a disabled cache",
            item.name
        );
        let got_on = program.read_global(&mut on, wo, item.check_global).unwrap();
        let got_off = program
            .read_global(&mut off, wf, item.check_global)
            .unwrap();
        assert_eq!(
            on.word_length().to_signed(got_on),
            item.expected,
            "corpus `{}`",
            item.name
        );
        assert_eq!(got_on, got_off, "corpus `{}`", item.name);
        assert_eq!(
            full_image(&on),
            full_image(&off),
            "corpus `{}` memory image",
            item.name
        );
    }
}

#[test]
fn corpus_is_identical_with_translation_disabled() {
    // The threaded-code translation tier is the second host-side
    // instrument: force-disabled (the `TRANSLATE=off` CI leg does the
    // same to the whole suite via the environment hook), every corpus
    // program must land on identical answers, cycle counts, simulated
    // statistics, and memory images. Threshold 1 on the enabled side
    // so even briefly-hot leaders run translated.
    for item in CORPUS {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let run_one = |translate: bool| {
            let mut cpu = Cpu::new(
                CpuConfig::t424()
                    .with_translate(translate)
                    .with_translate_threshold(1),
            );
            let wptr = program.load(&mut cpu).expect("loads");
            assert_eq!(
                cpu.run_batched(500_000_000).expect("halts"),
                RunOutcome::Halted(HaltReason::Stopped),
                "corpus `{}`",
                item.name
            );
            (cpu, wptr)
        };
        let (mut on, wo) = run_one(true);
        let (mut off, wf) = run_one(false);
        assert_eq!(wo, wf);
        assert_eq!(on.cycles(), off.cycles(), "corpus `{}` cycles", item.name);
        assert_eq!(
            on.stats().simulated(),
            off.stats().simulated(),
            "corpus `{}` simulated statistics",
            item.name
        );
        assert!(
            on.stats().trans_enters > 0,
            "corpus `{}` never entered a translated block",
            item.name
        );
        assert_eq!(
            off.stats().trans_enters + off.stats().trans_blocks,
            0,
            "corpus `{}` used disabled translation",
            item.name
        );
        let got_on = program.read_global(&mut on, wo, item.check_global).unwrap();
        let got_off = program
            .read_global(&mut off, wf, item.check_global)
            .unwrap();
        assert_eq!(
            on.word_length().to_signed(got_on),
            item.expected,
            "corpus `{}`",
            item.name
        );
        assert_eq!(got_on, got_off, "corpus `{}`", item.name);
        assert_eq!(
            full_image(&on),
            full_image(&off),
            "corpus `{}` memory image",
            item.name
        );
    }
}

#[test]
fn e09_network_agrees_across_all_engines() {
    // The e09 figure-8 topology (4x4 grid plus sender and collector),
    // trimmed to a test-sized database so the per-instruction engine
    // finishes promptly in debug builds.
    let config = |engine| DbSearchConfig {
        records_per_node: 40,
        requests: 3,
        net: transputer_net::NetworkConfig {
            engine,
            ..transputer_net::NetworkConfig::default()
        },
        ..DbSearchConfig::figure8()
    };

    // (engine, forced worker count). The forced counts exercise the
    // parallel engine's window-batching path even on single-core CI
    // hosts (where it would otherwise fall back to the sliced loop),
    // at counts deliberately misaligned with the 18-node machine so
    // chunk boundaries land everywhere.
    let variants = [
        (Engine::Event, None),
        (Engine::Sliced, None),
        (Engine::Parallel, None),
        (Engine::Parallel, Some(1)),
        (Engine::Parallel, Some(2)),
        (Engine::Parallel, Some(3)),
        (Engine::Parallel, Some(7)),
    ];
    let mut runs = Vec::new();
    for (engine, workers) in variants {
        let mut sim = DbSearch::build(config(engine)).expect("builds");
        if let Some(w) = workers {
            sim.network_mut().set_par_workers(w);
        }
        let report = sim.run(1_000_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "{engine:?} ({workers:?} workers): answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        runs.push((engine, workers, sim, report));
    }

    let (_, _, ref base_sim, ref base_report) = runs[0];
    for (engine, workers, sim, report) in &runs[1..] {
        let label = format!("{engine:?} ({workers:?} workers)");
        assert_run_matches(&label, sim, report, base_sim, base_report);
    }
}

#[test]
fn e10_board_is_worker_count_invariant() {
    // The e10 16×8 board with a trimmed database: sliced engine as
    // reference, then the parallel engine at worker counts 1, 2, 3
    // and 7 — odd counts misaligned with the 130-node machine so the
    // work-stealing chunk boundaries land at different nodes in every
    // window.
    let config = |engine| DbSearchConfig {
        net: transputer_net::NetworkConfig {
            engine,
            ..transputer_net::NetworkConfig::default()
        },
        ..board128_smoke()
    };
    let mut base = DbSearch::build(config(Engine::Sliced)).expect("builds");
    let base_report = base.run(1_000_000_000_000).expect("runs");
    assert!(base_report.all_correct(), "sliced reference");
    for workers in [1usize, 2, 3, 7] {
        let mut sim = DbSearch::build(config(Engine::Parallel)).expect("builds");
        sim.network_mut().set_par_workers(workers);
        let report = sim.run(1_000_000_000_000).expect("runs");
        assert!(report.all_correct(), "parallel, {workers} workers");
        assert_run_matches(
            &format!("parallel, {workers} workers"),
            &sim,
            &report,
            &base,
            &base_report,
        );
    }
}

#[test]
fn e16_hypercube_is_worker_count_invariant() {
    // The e16-shaped machine (full dimension count over the smallest
    // clusters: 64 nodes) with a trimmed database, swept over the same
    // worker counts against the sliced reference. This pins the
    // parallel engine's merge-order determinism on the hypercube
    // wiring, where dimension links give nodes four active neighbours
    // in distant index ranges.
    let config = |engine| transputer_apps::dbsearch::HypercubeConfig {
        net: transputer_net::NetworkConfig {
            engine,
            ..transputer_net::NetworkConfig::default()
        },
        ..hypercube_smoke()
    };
    let mut base = DbSearch::build_hypercube(config(Engine::Sliced)).expect("builds");
    let base_report = base.run(1_000_000_000_000).expect("runs");
    assert!(base_report.all_correct(), "sliced reference");
    for workers in [1usize, 2, 3, 7] {
        let mut sim = DbSearch::build_hypercube(config(Engine::Parallel)).expect("builds");
        sim.network_mut().set_par_workers(workers);
        let report = sim.run(1_000_000_000_000).expect("runs");
        assert!(report.all_correct(), "parallel, {workers} workers");
        assert_run_matches(
            &format!("parallel, {workers} workers"),
            &sim,
            &report,
            &base,
            &base_report,
        );
    }
}

#[test]
fn routed_grid_agrees_across_all_engines() {
    // The virtual-channel router replaces the planned spanning trees:
    // every message is packetized, multiplexed, and forwarded hop by
    // hop through bounded store-and-forward queues. All of that state
    // machinery advances only at wire events and stamped CPU service
    // points, so the engine and worker count must remain unobservable —
    // the same sweep as e09, over the routed build, in both switching
    // modes (wormhole forwards at header decode, so its wire schedule
    // differs from store-and-forward — each mode gets its own
    // reference run).
    let config = |engine, switching| DbSearchConfig {
        net: transputer_net::NetworkConfig {
            engine,
            router: RouterConfig {
                switching,
                ..RouterConfig::default()
            },
            ..transputer_net::NetworkConfig::default()
        },
        ..routed_smoke()
    };

    let variants = [
        (Engine::Event, None),
        (Engine::Sliced, None),
        (Engine::Parallel, None),
        (Engine::Parallel, Some(1)),
        (Engine::Parallel, Some(2)),
        (Engine::Parallel, Some(3)),
        (Engine::Parallel, Some(7)),
    ];
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut runs = Vec::new();
        for (engine, workers) in variants {
            let mut sim = DbSearch::build_routed(config(engine, switching)).expect("builds");
            if let Some(w) = workers {
                sim.network_mut().set_par_workers(w);
            }
            let report = sim.run(1_000_000_000_000).expect("runs");
            assert!(
                report.all_correct(),
                "{switching:?} {engine:?} ({workers:?} workers): answers {:?} != expected {:?}",
                report.answers,
                report.expected
            );
            runs.push((engine, workers, sim, report));
        }

        let (_, _, ref base_sim, ref base_report) = runs[0];
        for (engine, workers, sim, report) in &runs[1..] {
            let label = format!("routed {switching:?} {engine:?} ({workers:?} workers)");
            assert_run_matches(&label, sim, report, base_sim, base_report);
        }
    }
}

#[test]
fn routed_grid_agrees_across_engines_under_faults() {
    // The routed sweep under a seeded fault plan: the robust link
    // protocol retries the router's framed packets exactly as it
    // retries planned-tree traffic, and the outcome must stay
    // bit-identical across engines and worker counts — in both
    // switching modes, since wormhole streams ride the same robust
    // per-byte retry machinery (the withheld credit ack is just a
    // delayed ack to the protocol).
    let config = |engine, switching| DbSearchConfig {
        net: transputer_net::NetworkConfig {
            engine,
            fault: Some(FaultPlan::uniform(1985, 2e-3)),
            router: RouterConfig {
                switching,
                ..RouterConfig::default()
            },
            ..transputer_net::NetworkConfig::default()
        },
        ..routed_smoke()
    };

    let variants = [
        (Engine::Event, None),
        (Engine::Sliced, None),
        (Engine::Parallel, None),
        (Engine::Parallel, Some(1)),
        (Engine::Parallel, Some(2)),
        (Engine::Parallel, Some(3)),
        (Engine::Parallel, Some(7)),
    ];
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut runs = Vec::new();
        for (engine, workers) in variants {
            let mut sim = DbSearch::build_routed(config(engine, switching)).expect("builds");
            if let Some(w) = workers {
                sim.network_mut().set_par_workers(w);
            }
            let report = sim.run(1_000_000_000_000).expect("runs");
            assert!(
                report.all_correct(),
                "{switching:?} {engine:?} ({workers:?} workers): answers {:?} != expected {:?}",
                report.answers,
                report.expected
            );
            assert!(
                !report.degraded,
                "{switching:?} {engine:?}: retries must hide the faults"
            );
            runs.push((engine, workers, sim, report));
        }

        let (_, _, ref base_sim, ref base_report) = runs[0];
        for (engine, workers, sim, report) in &runs[1..] {
            let label = format!("routed faulted {switching:?} {engine:?} ({workers:?} workers)");
            assert_run_matches(&label, sim, report, base_sim, base_report);
        }
    }
}

#[test]
fn routed_hypercube_is_worker_count_invariant() {
    // The routed hypercube: requests and answers cross dimension links
    // through several routers at once, so transit queues at distinct
    // nodes are live simultaneously — the strongest worker-interleaving
    // pressure the router sees in the debug-mode suite. Swept in both
    // switching modes; on the cluster hypercube the e-cube tables have
    // a cyclic channel-dependency graph, so `Wormhole` provably
    // degrades to store-and-forward at build time (the runs must still
    // be deterministic — and byte-identical to the store-and-forward
    // mode's).
    let config = |engine, switching| transputer_apps::dbsearch::HypercubeConfig {
        net: transputer_net::NetworkConfig {
            engine,
            router: RouterConfig {
                switching,
                ..RouterConfig::default()
            },
            ..transputer_net::NetworkConfig::default()
        },
        ..routed_hypercube_smoke()
    };
    let mut modes = Vec::new();
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut base =
            DbSearch::build_routed_hypercube(config(Engine::Sliced, switching)).expect("builds");
        let base_report = base.run(1_000_000_000_000).expect("runs");
        assert!(base_report.all_correct(), "{switching:?} sliced reference");
        for workers in [1usize, 2, 3, 7] {
            let mut sim = DbSearch::build_routed_hypercube(config(Engine::Parallel, switching))
                .expect("builds");
            sim.network_mut().set_par_workers(workers);
            let report = sim.run(1_000_000_000_000).expect("runs");
            assert!(
                report.all_correct(),
                "routed {switching:?} parallel, {workers} workers"
            );
            assert_run_matches(
                &format!("routed {switching:?} parallel, {workers} workers"),
                &sim,
                &report,
                &base,
                &base_report,
            );
        }
        modes.push((base, base_report));
    }
    // The degrade is total: wormhole on a cyclic-CDG topology is not
    // merely deterministic but the same simulation as store-and-forward.
    let (ref sf, ref sf_report) = modes[0];
    let (ref worm, ref worm_report) = modes[1];
    assert_run_matches("hypercube wormhole==sf", worm, worm_report, sf, sf_report);
}

#[test]
fn e09_network_agrees_across_engines_under_faults() {
    // The same e09 topology with a seeded fault plan on every link:
    // packets are dropped, corrupted, and jittered, the robust protocol
    // retries them, and every engine must still land on bit-identical
    // outcomes — answers, arrival times, per-node cycle and instruction
    // counters, per-wire delivered bytes, memory images, and the link
    // fault counters themselves. The rate is high enough that the
    // retry machinery demonstrably fires (asserted below).
    let config = |engine| DbSearchConfig {
        records_per_node: 40,
        requests: 3,
        net: transputer_net::NetworkConfig {
            engine,
            fault: Some(FaultPlan::uniform(1985, 2e-3)),
            ..transputer_net::NetworkConfig::default()
        },
        ..DbSearchConfig::figure8()
    };

    let variants = [
        (Engine::Event, None),
        (Engine::Sliced, None),
        (Engine::Parallel, None),
        (Engine::Parallel, Some(1)),
        (Engine::Parallel, Some(2)),
        (Engine::Parallel, Some(3)),
        (Engine::Parallel, Some(7)),
    ];
    let mut runs = Vec::new();
    for (engine, workers) in variants {
        let mut sim = DbSearch::build(config(engine)).expect("builds");
        if let Some(w) = workers {
            sim.network_mut().set_par_workers(w);
        }
        let report = sim.run(1_000_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "{engine:?} ({workers:?} workers): answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        assert!(!report.degraded, "{engine:?}: retries must hide the faults");
        runs.push((engine, workers, sim, report));
    }

    let (_, _, ref base_sim, ref base_report) = runs[0];
    let base_net = base_sim.network();
    let base_retries: u64 = (0..base_net.len())
        .map(|id| base_net.node(id).stats().link_retries)
        .sum();
    let base_rx_errors: u64 = (0..base_net.len())
        .map(|id| base_net.node(id).stats().link_rx_errors)
        .sum();
    assert!(
        base_retries > 0,
        "the fault rate must be high enough to force retransmissions"
    );
    for (engine, workers, sim, report) in &runs[1..] {
        let label = format!("{engine:?} ({workers:?} workers)");
        assert_run_matches(&label, sim, report, base_sim, base_report);
        let net = sim.network();
        let retries: u64 = (0..net.len())
            .map(|id| net.node(id).stats().link_retries)
            .sum();
        let rx_errors: u64 = (0..net.len())
            .map(|id| net.node(id).stats().link_rx_errors)
            .sum();
        assert_eq!(retries, base_retries, "{label}: retry counters");
        assert_eq!(rx_errors, base_rx_errors, "{label}: rx-error counters");
    }
}

/// A wire on the answer path dies mid-run, in both switching modes.
/// The router rebuilds its tables and re-sends whatever the break cut
/// off (a parked packet, a queued packet, or a wormhole stream folded
/// back at the break), so delivery on the rerouted path is
/// at-least-once — DESIGN.md §11's documented duplicate-delivery
/// window. The collector's merge folds answer words in arrival order
/// with an order-independent sum, so what this test pins is that every
/// engine and worker count lands on the identical merged state,
/// duplicates included: same answers, same memory images, same
/// per-wire byte counters.
#[test]
fn routed_wire_death_merges_identically_across_engines() {
    // routed_smoke is the 3x3 grid with the collector on node 8's
    // south port; the east edge (1,2)-(2,2) carries answer traffic
    // into the exit corner, and killing it forces the reroute through
    // node 5 while answers are in flight.
    let dying = grid_edge_wire(3, 3, 1, 2, true);
    // 180 us lands inside the answer burst: the store-and-forward run
    // discovers the death mid-packet (retry exhaustion, partial bytes
    // already across), and the wormhole run has a live multi-node
    // stream cut at the break (asserted below via the drop counter).
    let kill_ns = 180_000;
    let config = |engine, switching| DbSearchConfig {
        net: transputer_net::NetworkConfig {
            engine,
            fault: Some(FaultPlan::uniform(77, 0.0).with_dead_link(dying, kill_ns)),
            router: RouterConfig {
                switching,
                ..RouterConfig::default()
            },
            ..transputer_net::NetworkConfig::default()
        },
        ..routed_smoke()
    };

    let variants = [
        (Engine::Event, None),
        (Engine::Sliced, None),
        (Engine::Parallel, None),
        (Engine::Parallel, Some(1)),
        (Engine::Parallel, Some(2)),
        (Engine::Parallel, Some(3)),
        (Engine::Parallel, Some(7)),
    ];
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut runs = Vec::new();
        for (engine, workers) in variants {
            let mut sim = DbSearch::build_routed(config(engine, switching)).expect("builds");
            if let Some(w) = workers {
                sim.network_mut().set_par_workers(w);
            }
            let report = sim.run(1_000_000_000_000).expect("runs");
            assert!(
                sim.network().any_link_failed(),
                "{switching:?} {engine:?}: the wire must actually die"
            );
            if switching == Switching::Wormhole {
                let stats = sim.network().router_stats().expect("routed build");
                assert!(
                    stats.packets_dropped > 0,
                    "{engine:?}: the break must cut a live wormhole stream"
                );
            }
            // The re-sent copies land in the collector's additive
            // order-independent merge; the answers still come out
            // right, and identically so under every engine below.
            assert!(
                report.all_correct(),
                "{switching:?} {engine:?} ({workers:?} workers): answers {:?} != expected {:?}",
                report.answers,
                report.expected
            );
            runs.push((engine, workers, sim, report));
        }
        let (_, _, ref base_sim, ref base_report) = runs[0];
        for (engine, workers, sim, report) in &runs[1..] {
            let label = format!("wire-death {switching:?} {engine:?} ({workers:?} workers)");
            assert_run_matches(&label, sim, report, base_sim, base_report);
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size networks take minutes unoptimised; run with --release"
)]
fn committed_sliced_fingerprints_are_pinned() {
    // The Sliced-engine outcome fingerprints committed in
    // BENCH_host.json (FNV-1a over answers, answer times, per-node halt
    // cycles and instruction counters, per-wire delivered bytes). A
    // refactor or optimisation of the engines must leave every one of
    // them unmoved; the cross-engine sweeps above would not notice a
    // change that moved all engines together.
    let check = |got: NetRun, want: u64| {
        assert!(got.answers_ok, "{}: answers wrong", got.bench);
        assert_eq!(
            got.fingerprint, want,
            "{}: Sliced fingerprint {:016x} moved from the committed {want:016x}",
            got.bench, got.fingerprint
        );
    };
    check(
        run_hypercube("e16_hypercube256", hypercube256(), Engine::Sliced),
        0x93a5_f604_fb66_5b63,
    );
    check(
        run_hypercube(
            "e16_faulted",
            faulted_hypercube(hypercube256(), FAULT_SEED_DEFAULT, FAULT_RATE_DEFAULT),
            Engine::Sliced,
        ),
        0xc0f9_e7b4_4fa1_41fc,
    );
    check(
        run_routed_hypercube("e17_routed256", routed_hypercube256(), Engine::Sliced),
        0x7a26_eb59_3a29_fb6d,
    );
    check(
        run_routed("e17_grid1024", grid32x32_stress(), Engine::Sliced),
        0x0205_90f7_c744_75c4,
    );
    // The smoke row's fault rate: the default scaled up 20x (capped at
    // 1%) so faults fire on the short run.
    check(
        run_routed(
            "e17_routed_smoke_faulted",
            faulted(
                routed_smoke(),
                FAULT_SEED_DEFAULT,
                (FAULT_RATE_DEFAULT * 20.0).min(0.01),
            ),
            Engine::Sliced,
        ),
        0x3534_b533_d572_1fb0,
    );
}
