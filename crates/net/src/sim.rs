//! The co-simulation engine: nodes, wires, and a global event queue.
//!
//! Two execution engines share one event heap:
//!
//! * **Event** — the reference engine: one heap event per node
//!   micro-step. Each pop executes a single instruction, then offers
//!   transmit bytes and acknowledges to the node's wires.
//! * **Sliced** (default, with an opt-in **Parallel** variant) — the
//!   lookahead engine: each pop runs a whole *slice* of instructions via
//!   [`Cpu::run_slice`], bounded by the earliest wire activity that could
//!   affect the node. The heap holds one entry per node-slice instead of
//!   one per instruction, which is what makes large networks fast to
//!   simulate.
//!
//! The slice bound is conservative: for a node N it is the minimum over
//! N's ports of (a) the next scheduled event on that port's wire
//! (completions *and* pending data-start probes) and (b) the earliest
//! time the peer node M can act plus the flight time of the first packet
//! M could land on N (an acknowledge if N has a byte in flight, else a
//! data packet). "Earliest M can act" is itself the minimum of M's
//! scheduled slice, M's own wire deadlines, and the global heap frontier
//! plus one acknowledge time (no chain of third-party events can reach M
//! faster than that). Every instruction that changes wire-visible link
//! state ends its slice ([`SliceOutcome`]), so wires always observe link
//! state at the exact instruction boundary that produced it; the engines
//! are bit-identical in cycle counts, delivered bytes, and memory images.
//!
//! Heap entries are ordered by a causal key — time, then the instant
//! of the action that scheduled the entry, then nodes before wires — so
//! every engine resolves same-instant ties by simulated history alone.
//! That is what lets the sliced engines run a store-and-forward hop over
//! a clean routed wire as a packet *train*: two heap events (the final
//! byte and its acknowledge) instead of two per byte, with the elided
//! frames' heap positions computed rather than pushed. The event engine
//! stays per-frame, the oracle the trains are checked against.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use transputer::linkif::SeqCheck;
use transputer::{Cpu, CpuConfig, HaltReason, SliceOutcome, StepEvent};
use transputer_link::vc::{HEADER_BYTES, MAX_PAYLOAD};
use transputer_link::{
    AckPolicy, DuplexLink, End, FaultPlan, LinkEvent, LinkProtocol, LinkSpeed, PacketKind,
};

use crate::par::{self, Slot, WorkerPool};
use crate::router::{Act, RouterConfig, RouterNet, RouterStats};
use crate::topology::{hypercube_tables, route_tables, Adjacency};

/// Index of a node in a [`Network`].
pub type NodeId = usize;

/// Cap on a single slice, so an instruction-loop without interaction
/// points still yields to the heap (and to `run_until` predicates /
/// budget checks) every so often.
pub(crate) const MAX_SLICE_CYCLES: u64 = 1 << 22;

/// Which execution engine a [`Network`] uses to advance time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One heap event per node micro-step (the reference engine).
    Event,
    /// Conservative lookahead windows: one heap entry per node-slice.
    #[default]
    Sliced,
    /// The sliced engine, with the node slices of each window run on a
    /// persistent worker pool (`crate::par`). Bit-identical to
    /// `Sliced` (and so to `Event`) at any worker count.
    Parallel,
}

/// Network-wide configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Configuration applied to every node (per-node overrides via
    /// [`NetworkBuilder::add_node_with`]).
    pub cpu: CpuConfig,
    /// Link signalling rate (standard: 10 MHz, §2.3.1).
    pub link_speed: LinkSpeed,
    /// When receivers acknowledge (the paper's design is early
    /// acknowledge; `AfterStop` exists for the ablation benchmark).
    pub ack_policy: AckPolicy,
    /// Execution engine.
    pub engine: Engine,
    /// Fault schedule. `Some` switches every wire to the robust link
    /// protocol (sequence + parity frames, timeout/retry at the sender)
    /// and injects the planned faults; `None` is the paper's perfect
    /// classic network.
    pub fault: Option<FaultPlan>,
    /// Virtual-channel router tuning (forwarding capacity and switching
    /// discipline). Ignored unless the router is enabled; defaulted to
    /// the values every committed fingerprint was produced with.
    pub router: RouterConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            cpu: CpuConfig::t424(),
            link_speed: LinkSpeed::standard(),
            ack_policy: AckPolicy::Early,
            engine: Engine::default(),
            fault: None,
            router: RouterConfig::default(),
        }
    }
}

/// Why a simulation run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every node halted cleanly.
    AllHalted,
    /// The requested duration elapsed.
    TimeLimit,
    /// Nothing can ever happen again: all nodes idle, no timers armed,
    /// all wires quiescent.
    Deadlock,
    /// A user-supplied predicate was satisfied.
    Condition,
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node halted for an abnormal reason (fault, error flag).
    NodeFault {
        /// Which node.
        node: NodeId,
        /// Why it halted.
        reason: HaltReason,
    },
    /// The time budget was exhausted before the stopping condition.
    Budget {
        /// The budget, in nanoseconds.
        ns: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeFault { node, reason } => {
                write!(f, "node {node} halted abnormally: {reason}")
            }
            SimError::Budget { ns } => write!(f, "simulation budget of {ns} ns exhausted"),
        }
    }
}

impl std::error::Error for SimError {}

/// One end of a wire: which node, which of its four link ports.
type Port = (NodeId, usize);

/// Retransmission state for the data byte a wire end has in flight
/// (robust protocol). Cleared by the fresh acknowledge; fired by wire
/// pops when the deadline passes.
#[derive(Debug, Clone, Copy)]
struct Resend {
    byte: u8,
    seq: bool,
    /// When to retransmit if no acknowledge (or busy) arrives first.
    deadline: u64,
    /// Timeouts burned since the last acknowledge or busy.
    attempts: u32,
    /// Current deadline spacing; doubled by each busy notice so a slow
    /// receiver is polled, not flooded.
    interval_ns: u64,
}

#[derive(Debug)]
struct Wire {
    link: DuplexLink,
    ends: [Port; 2],
    /// Whether the data byte currently in flight toward each end was
    /// already acknowledged early (indexed by receiving end).
    early_acked: [bool; 2],
    /// Data bytes delivered in each direction (toward end 0 / end 1).
    /// Under the robust protocol, only *accepted* (non-duplicate) bytes
    /// count, so the counts match the classic protocol's exactly.
    delivered: [u64; 2],
    /// Data-start probes not yet resolved, with their stamped times.
    /// Only the sliced engines use these: a send performed at a slice
    /// exit is stamped with the exit instruction's start time, which may
    /// lie ahead of the global frontier, so the early-acknowledge
    /// decision is deferred to a heap event at that stamp.
    probes: Vec<(u64, End)>,
    /// Robust protocol: retransmission state per *sending* end.
    resend: [Option<Resend>; 2],
    /// Directions declared failed after the retry budget ran out
    /// (indexed by sending end).
    failed: [bool; 2],
}

/// A store-and-forward hop run as a packet train (sliced engines,
/// classic routed wires). Routers acknowledge a byte only after its stop
/// bit, so a hop over an otherwise idle wire is a fixed chain of frames:
/// byte `k` starts at `t0 + k·(data_ns + ack_ns)` and its acknowledge
/// starts `data_ns` later. Chain frame `j` is byte `j/2`'s delivery for
/// even `j` and its acknowledge's delivery for odd `j`; each is keyed
/// on the heap by its arrival time and caused at its own start. Only the
/// final byte's delivery (frame `2·len − 2`) is pushed; the frames
/// before it touch nothing but the wire and the two ports' sequence and
/// reassembly state, so they are elided and applied in closed form when
/// something observes the wire — the final pop, or any other send on
/// either line (a *split*).
#[derive(Debug, Clone, Copy)]
struct Train {
    /// Index of the sending end.
    from: usize,
    /// Start of byte 0's frame.
    t0: u64,
    /// The packet's wire image, header first.
    image: [u8; HEADER_BYTES + MAX_PAYLOAD],
    /// Wire bytes in the packet.
    len: usize,
}

/// Host-side event counters of a [`Network`]. Like the router and cache
/// counters they are engine-dependent by design — trains and slices
/// exist to change them — and never part of outcome fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Node entries popped from the heap (instructions under the event
    /// engine, slices under the sliced engines).
    pub node_pops: u64,
    /// Wire entries popped from the heap, stale ones included.
    pub wire_pops: u64,
    /// Packet trains broken back to per-frame state before their final
    /// byte, because something else was sent on the wire mid-train.
    pub train_splits: u64,
}

/// Per-port early-acknowledge history: enough state to answer "would
/// this port have acknowledged early at time `stamp`" for one probe
/// stamped earlier than the port's latest state change. One level of
/// history suffices: a node's slice ends at the instruction that changes
/// this state, and the node is rescheduled at or after that instruction,
/// so at most one applied change can postdate any in-flight probe.
#[derive(Debug, Clone, Copy, Default)]
struct EaState {
    /// Value after the most recent recorded change.
    last: bool,
    /// Stamp of the most recent recorded change.
    stamp: u64,
    /// Value before that change.
    prev: bool,
}

/// How a routed network derives its tables from the adjacency.
#[derive(Debug, Clone, Copy)]
enum RouteShape {
    /// BFS shortest paths with a fixed port preference — deterministic
    /// on any connected graph (and exactly XY dimension order on grids).
    General,
    /// Closed-form e-cube order on a clustered hypercube; falls back to
    /// BFS whenever wires are dead at boot.
    Hypercube { dim: usize, side: usize },
}

/// Router configuration accumulated by the builder.
#[derive(Debug)]
struct RouterBuild {
    adj: Adjacency,
    shape: RouteShape,
    /// Virtual channels in registration order: `(src, dst)` CPU ports.
    vcs: Vec<(Port, Port)>,
}

/// Incremental builder for a [`Network`].
#[derive(Debug)]
pub struct NetworkBuilder {
    config: NetworkConfig,
    nodes: Vec<Cpu>,
    wires: Vec<(Port, Port)>,
    used: Vec<[bool; 4]>,
    router: Option<RouterBuild>,
}

impl NetworkBuilder {
    /// Start building a network.
    pub fn new(config: NetworkConfig) -> NetworkBuilder {
        NetworkBuilder {
            config,
            nodes: Vec::new(),
            wires: Vec::new(),
            used: Vec::new(),
            router: None,
        }
    }

    /// Add a node with the network-wide CPU configuration.
    pub fn add_node(&mut self) -> NodeId {
        self.add_node_with(self.config.cpu.clone())
    }

    /// Add a node with its own CPU configuration — "transputers of
    /// different wordlength ... can be easily interconnected" (§2.3).
    pub fn add_node_with(&mut self, cpu: CpuConfig) -> NodeId {
        self.nodes.push(Cpu::new(cpu));
        self.used.push([false; 4]);
        self.nodes.len() - 1
    }

    /// Connect two link ports with a wire.
    ///
    /// # Panics
    ///
    /// Panics if a port index exceeds 3, a node does not exist, or a port
    /// is already wired — all construction-time mistakes.
    pub fn connect(&mut self, a: Port, b: Port) -> &mut NetworkBuilder {
        for &(node, port) in &[a, b] {
            assert!(node < self.nodes.len(), "no such node {node}");
            assert!(port < 4, "link ports are 0..4, got {port}");
            assert!(
                !self.used[node][port],
                "port {port} of node {node} already wired"
            );
        }
        assert!(a != b, "cannot wire a port to itself");
        self.used[a.0][a.1] = true;
        self.used[b.0][b.1] = true;
        self.wires.push((a, b));
        self
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Turn the network into a routed (virtual-channel) network: every
    /// wire of `adj` is connected automatically, every wire endpoint
    /// becomes router-owned, and the four CPU link ports of each node
    /// become local virtual-channel endpoints (see [`crate::router`]).
    /// Routing tables are built by deterministic BFS shortest paths
    /// ([`route_tables`]).
    ///
    /// # Panics
    ///
    /// Panics if the router is already enabled, wires were connected by
    /// hand first, the adjacency covers a different node count than has
    /// been added, or the adjacency's wire ids are not dense/mirrored.
    pub fn enable_router(&mut self, adj: Adjacency) -> &mut NetworkBuilder {
        self.enable_router_with(adj, RouteShape::General)
    }

    /// Like [`NetworkBuilder::enable_router`], but with closed-form
    /// e-cube tables for a clustered hypercube built by
    /// [`crate::topology::wire_hypercube`] (host leaves attached via
    /// [`crate::topology::adjacency_add_wire`] are routed through their
    /// cluster anchors). Falls back to BFS when wires are dead at boot.
    pub fn enable_router_hypercube(
        &mut self,
        adj: Adjacency,
        dim: usize,
        side: usize,
    ) -> &mut NetworkBuilder {
        self.enable_router_with(adj, RouteShape::Hypercube { dim, side })
    }

    fn enable_router_with(&mut self, adj: Adjacency, shape: RouteShape) -> &mut NetworkBuilder {
        assert!(self.router.is_none(), "router already enabled");
        assert!(
            self.wires.is_empty(),
            "enable the router before connecting wires: it wires the adjacency itself"
        );
        assert_eq!(
            adj.len(),
            self.nodes.len(),
            "adjacency must cover exactly the nodes added"
        );
        let mut ends: Vec<Option<(Port, Port)>> = Vec::new();
        for (node, links) in adj.iter().enumerate() {
            for (port, link) in links.iter().enumerate() {
                let Some((peer, pport, wire)) = *link else {
                    continue;
                };
                if ends.len() <= wire {
                    ends.resize(wire + 1, None);
                }
                match ends[wire] {
                    None => ends[wire] = Some(((node, port), (peer, pport))),
                    Some((a, b)) => assert!(
                        a == (peer, pport) && b == (node, port),
                        "wire {wire} is not mirrored in the adjacency"
                    ),
                }
            }
        }
        for (wire, e) in ends.into_iter().enumerate() {
            let (a, b) = e.unwrap_or_else(|| panic!("adjacency wire ids are not dense at {wire}"));
            self.connect(a, b);
        }
        self.router = Some(RouterBuild {
            adj,
            shape,
            vcs: Vec::new(),
        });
        self
    }

    /// Register a virtual channel from CPU port `src` to CPU port `dst`
    /// and return its network-wide id. Consecutive messages written to
    /// one CPU out port round-robin across the channels registered on
    /// it, in registration order.
    ///
    /// # Panics
    ///
    /// Panics without [`NetworkBuilder::enable_router`], on out-of-range
    /// ports, or if the channel would loop a node to itself.
    pub fn add_vc(&mut self, src: Port, dst: Port) -> u16 {
        let n = self.nodes.len();
        let rb = self.router.as_mut().expect("enable_router before add_vc");
        assert!(src.0 < n && dst.0 < n, "no such node");
        assert!(src.1 < 4 && dst.1 < 4, "link ports are 0..4");
        assert!(
            src.0 != dst.0,
            "virtual channel would loop node {} to itself",
            src.0
        );
        rb.vcs.push((src, dst));
        u16::try_from(rb.vcs.len() - 1).expect("too many virtual channels")
    }

    /// Finish: produce the network.
    pub fn build(self) -> Network {
        let n = self.nodes.len();
        let mut port_to_wire = vec![[usize::MAX; 4]; n];
        let mut peers = vec![[usize::MAX; 4]; n];
        let speed = self.config.link_speed;
        let fault = self.config.fault.clone();
        let wires: Vec<Wire> = self
            .wires
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let link = match &fault {
                    Some(plan) => DuplexLink::new_robust(
                        speed,
                        [Some(plan.line_faults(i, 0)), Some(plan.line_faults(i, 1))],
                        plan.dead_from(i),
                    ),
                    None => DuplexLink::new(speed),
                };
                port_to_wire[a.0][a.1] = i;
                port_to_wire[b.0][b.1] = i;
                peers[a.0][a.1] = b.0;
                peers[b.0][b.1] = a.0;
                Wire {
                    link,
                    ends: [a, b],
                    early_acked: [false; 2],
                    delivered: [0; 2],
                    probes: Vec::new(),
                    resend: [None; 2],
                    failed: [false; 2],
                }
            })
            .collect();
        let w = wires.len();
        let protocol = if fault.is_some() {
            LinkProtocol::Robust
        } else {
            LinkProtocol::Classic
        };
        let data_ns = speed.frame_ns(protocol, PacketKind::Data(0));
        let ack_ns = speed.frame_ns(protocol, PacketKind::Ack);
        let bit_ns = speed.bit_time_ns;
        let (timeout_ns, max_retries) = match &fault {
            Some(plan) => (
                u64::from(plan.timeout_bits.max(1)) * bit_ns,
                plan.max_retries,
            ),
            None => (0, 0),
        };
        let robust = fault.is_some();
        let router_cfg = self.config.router;
        let router = self.router.map(|rb| {
            // Wires dead from the very start never carry a byte; exclude
            // them from the initial tables rather than waiting for the
            // retry budget to discover them.
            let mut dead: HashSet<usize> = HashSet::new();
            if let Some(plan) = &fault {
                for wire in 0..w {
                    if plan.dead_from(wire) == Some(0) {
                        dead.insert(wire);
                    }
                }
            }
            let tables = match rb.shape {
                RouteShape::General => route_tables(&rb.adj, &dead),
                RouteShape::Hypercube { dim, side } => hypercube_tables(&rb.adj, dim, side, &dead),
            };
            // Wormhole deadlock freedom rests on an acyclic
            // channel-dependency graph. `RouterNet::new` runs the proof
            // itself and degrades cut-through to store-and-forward when
            // it fails (notably the cluster-hypercube's e-cube tables,
            // whose anchor-corner walks close cross-route cycles).
            RouterNet::new(rb.adj, tables, dead, &rb.vcs, router_cfg)
        });
        let hot = NodeHot {
            scheduled: vec![false; n],
            next_ns: vec![0; n],
            ports: port_to_wire,
            peers,
            cycle_ns: self.nodes.iter().map(|c| c.cycle_time_ns()).collect(),
            tx_flight: vec![0; n],
            ea: vec![[EaState::default(); 4]; n],
        };
        let mut net = Network {
            config: self.config,
            nodes: self.nodes,
            wires,
            hot,
            queue: BinaryHeap::new(),
            pop_key: (0, 0, Actor::Node(0)),
            now_ns: 0,
            ea_primed: false,
            horizon_ns: None,
            data_ns,
            ack_ns,
            robust,
            timeout_ns,
            max_retries,
            wire_next: vec![u64::MAX; w],
            wire_cause: vec![0; w],
            trains: vec![None; w],
            trains_running: 0,
            counts: EventCounts::default(),
            par_workers: par_workers_default(),
            pool: None,
            scratch: WindowScratch::default(),
            router,
            halted_below: Cell::new(0),
            link_events: Vec::new(),
            router_acts: Vec::new(),
        };
        for i in 0..n {
            net.schedule_node(i, 0, 0);
        }
        net
    }
}

/// Who a heap entry belongs to. The derived order — nodes before
/// wires, each by index — is the last component of [`Key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Actor {
    Node(usize),
    Wire(usize),
}

/// A heap entry's order: `(time, cause_ns, actor)`. `cause_ns` is the
/// simulated instant of the action that scheduled the entry — the send
/// stamp for wire work requested at a stamp, else the frontier — so
/// entries due at one instant run in causal order, then nodes before
/// wires, each by index. Unlike a push counter, the key of an entry
/// depends only on simulated history, never on how many host-side
/// pushes preceded it; that is what lets a packet train compute where
/// each frame it elides would have sat in the heap.
type Key = (u64, u64, Actor);

/// The hot side of the per-node state split: everything the sliced
/// engines' sweep reads per node while planning windows and slice
/// bounds, kept as dense arrays. Computing one node's bound touches
/// this state for the node *and each of its peers*; keeping those few
/// words contiguous instead of striding through the multi-kilobyte
/// [`Cpu`] structs (the cold side: memory images, register state, link
/// engines, stats, caches) keeps the sweep inside a handful of cache
/// lines per node.
#[derive(Debug, Default)]
struct NodeHot {
    /// Guards against flooding the queue with duplicate node events.
    scheduled: Vec<bool>,
    /// The heap time of each scheduled node (valid while `scheduled`);
    /// feeds the peer-activity bound.
    next_ns: Vec<u64>,
    /// Wire index per port (`usize::MAX` = unwired).
    ports: Vec<[usize; 4]>,
    /// Peer node per port (`usize::MAX` = unwired).
    peers: Vec<[usize; 4]>,
    /// Each node's cycle time in ns (fixed at construction), hoisted
    /// out of `Cpu` for the bound arithmetic.
    cycle_ns: Vec<u64>,
    /// Bitmask of ports with a transmit byte in flight, mirrored from
    /// link state by [`Network::refresh_tx_flight`]. The mirror must be
    /// exact where bounds are computed: a spurious set bit would only
    /// shorten a bound (safe), but a missing one would lengthen it past
    /// an acknowledge arrival (unsafe) — hence the eager refresh at
    /// every point link-transmit state can change.
    tx_flight: Vec<u8>,
    /// Early-acknowledge history per port (sliced engines).
    ea: Vec<[EaState; 4]>,
}

/// Reusable parallel-window buffers: cleared and refilled each window,
/// so steady-state windows allocate nothing.
#[derive(Debug, Default)]
struct WindowScratch {
    /// Popped `(time, node)` pairs of the open window.
    batch: Vec<(u64, usize)>,
    /// The popped entries' causes, parallel to `batch`.
    causes: Vec<u64>,
    /// Planned slices with their bounds and result slots, in pop order.
    slots: Vec<Slot>,
}

/// A running network of transputers.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    nodes: Vec<Cpu>,
    wires: Vec<Wire>,
    /// Dense per-node scheduling state (the hot side of the node split).
    hot: NodeHot,
    queue: BinaryHeap<Reverse<Key>>,
    /// Key of the entry being processed (or last processed): every
    /// elided train frame keyed below it has happened.
    pop_key: Key,
    now_ns: u64,
    /// Whether `hot.ea` has been initialised from live link state.
    ea_primed: bool,
    /// Hard upper bound on slice extents during `run_for`/`run_until`.
    horizon_ns: Option<u64>,
    /// Flight time of a data packet at the configured link speed.
    data_ns: u64,
    /// Flight time of an acknowledge packet.
    ack_ns: u64,
    /// Whether the wires speak the robust protocol (fault plan present).
    robust: bool,
    /// Sender resend timeout under the robust protocol.
    timeout_ns: u64,
    /// Retry budget per data byte under the robust protocol.
    max_retries: u32,
    /// Pop time of each wire's single live heap entry (`u64::MAX` =
    /// none), maintained by [`Self::schedule_wire`]. Doubles as the
    /// dedup guard — with `wire_cause`: a popped entry whose time or
    /// cause no longer matches is stale and skipped — and feeds the
    /// slice bounds without rescanning link state (never later than the
    /// wire's true next event, so the bounds stay conservative). A train
    /// wire's live entry is its final byte, so while any train runs the
    /// bounds read [`Self::wire_next_ns`] instead.
    wire_next: Vec<u64>,
    /// Cause of each wire's live heap entry.
    wire_cause: Vec<u64>,
    /// The store-and-forward hop running as a packet train on each
    /// wire, if any. While one runs, both lines of the wire's link sit
    /// idle: the train's frames are recovered in closed form by
    /// [`Self::expand_train`].
    trains: Vec<Option<Train>>,
    /// How many entries of `trains` are running.
    trains_running: usize,
    /// Host-side event counters.
    counts: EventCounts,
    /// Host threads available to the parallel engine (cached once).
    par_workers: usize,
    /// The parallel engine's persistent worker pool: created at the
    /// first dispatched window, then reused for every later window.
    pool: Option<WorkerPool>,
    /// Reusable window-construction buffers (parallel engine).
    scratch: WindowScratch,
    /// The virtual-channel router, when enabled: it owns every wire
    /// endpoint, and the CPUs' link ports become virtual-channel
    /// endpoints (see [`crate::router`]). Borrowed in place for each
    /// router call, alongside disjoint borrows of the CPUs and wires.
    router: Option<RouterNet>,
    /// Termination cursor: every node below this index has halted
    /// cleanly. Halting is monotone — only [`Network::node_mut`] can
    /// un-halt a node, and it pulls the cursor back — so
    /// [`Network::all_halted`] resumes its scan here instead of
    /// rereading every node after every heap event.
    halted_below: Cell<usize>,
    /// Link events being dispatched, used as a stack: each wire drain
    /// appends its events, walks its own range, and truncates back, so
    /// a drain nested inside another's dispatch (the event engine's
    /// acknowledge path) leaves the outer range intact and steady-state
    /// wire pops allocate nothing.
    link_events: Vec<LinkEvent>,
    /// Wire and scheduler effects requested by the current router call,
    /// applied and cleared by [`Self::apply_router_acts`].
    router_acts: Vec<(usize, Act)>,
}

/// The parallel engine's default worker count: the `PAR_WORKERS`
/// environment variable when set (the CI determinism matrix pins it),
/// else the host's available parallelism.
fn par_workers_default() -> usize {
    std::env::var("PAR_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl Network {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulated time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        self.now_ns
    }

    /// The engine advancing this network.
    pub fn engine(&self) -> Engine {
        self.config.engine
    }

    /// Switch engines. Safe at any event boundary: all engines share the
    /// same heap discipline and observable state.
    pub fn set_engine(&mut self, engine: Engine) {
        self.config.engine = engine;
        self.ea_primed = false;
        if engine == Engine::Event {
            // The event engine is the per-frame oracle: it never runs
            // trains, so hand it every wire in per-frame state.
            for w in 0..self.wires.len() {
                if self.trains[w].is_some() {
                    self.split_train(w);
                }
            }
        }
    }

    /// Host-side event counters (see [`EventCounts`]).
    pub fn event_counts(&self) -> EventCounts {
        self.counts
    }

    /// Override the parallel engine's cached host-thread count (clamped
    /// to at least one). Intended for tests that must exercise the
    /// window-batching path at a specific width; the engines are
    /// bit-identical at every worker count. Drops any existing pool so
    /// the next window recreates it at the new width.
    #[doc(hidden)]
    pub fn set_par_workers(&mut self, workers: usize) {
        self.par_workers = workers.max(1);
        self.pool = None;
    }

    /// The parallel engine's worker count (host threads per window,
    /// including the scheduling thread).
    pub fn par_workers(&self) -> usize {
        self.par_workers
    }

    /// Threads the parallel engine's persistent pool has spawned: zero
    /// before the first dispatched window, then exactly
    /// `par_workers − 1` for the rest of the run — windows park and
    /// reuse the workers rather than respawning them, which the
    /// pool-reuse tests pin.
    pub fn pool_spawned_threads(&self) -> u64 {
        self.pool.as_ref().map_or(0, WorkerPool::spawned_threads)
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Cpu {
        &self.nodes[id]
    }

    /// Mutable access to a node (program loading, inspection).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Cpu {
        // The caller may replace or restart the node: it is no longer
        // known to be halted.
        let cursor = self.halted_below.get_mut();
        *cursor = (*cursor).min(id);
        &mut self.nodes[id]
    }

    /// Data bytes delivered over a wire, per direction. Under the robust
    /// protocol only accepted (non-duplicate) bytes count.
    #[inline]
    pub fn wire_delivered(&self, wire: usize) -> (u64, u64) {
        let mut d = self.wires[wire].delivered;
        if self.trains[wire].is_some() {
            let (from, _, delivered) = self.train_progress(wire);
            d[1 - from] += delivered;
        }
        (d[0], d[1])
    }

    /// Whether each transmit direction of a wire (from end 0, from end 1)
    /// has been declared failed after exhausting its retry budget.
    pub fn wire_failed(&self, wire: usize) -> (bool, bool) {
        (self.wires[wire].failed[0], self.wires[wire].failed[1])
    }

    /// Whether any wire direction in the network has been declared
    /// failed.
    pub fn any_link_failed(&self) -> bool {
        self.wires.iter().any(|w| w.failed[0] || w.failed[1])
    }

    /// Whether this network routes messages through the virtual-channel
    /// router (see [`NetworkBuilder::enable_router`]).
    pub fn routed(&self) -> bool {
        self.router.is_some()
    }

    /// Network-wide router activity counters, `None` unless routed.
    /// Host-side observability only — never part of fingerprints.
    pub fn router_stats(&self) -> Option<RouterStats> {
        self.router.as_ref().map(RouterNet::stats)
    }

    /// Whether wormhole cut-through forwarding is *currently* active:
    /// `Some(true)` only when the router was configured for
    /// [`crate::Switching::Wormhole`] and its live tables carry an
    /// acyclic channel-dependency graph (the deadlock-freedom proof —
    /// re-run at every wire-death rebuild, so this can flip to
    /// `Some(false)` mid-run). `None` unless routed.
    pub fn router_cut_through(&self) -> Option<bool> {
        self.router.as_ref().map(RouterNet::cut_through)
    }

    /// Whether the router's *current* tables connect `from` to `to`
    /// (they shrink as wires die). Always true on non-routed networks,
    /// where reachability is the application's planning problem.
    pub fn route_reachable(&self, from: NodeId, to: NodeId) -> bool {
        self.router.as_ref().is_none_or(|r| r.reachable(from, to))
    }

    /// Aggregate predecoded-instruction-cache counters over all nodes:
    /// `(hits, misses, invalidations, bypasses)`. Host-side only — the
    /// cache never affects simulated outcomes — but reported by
    /// `hostperf` so cache effectiveness on real networks is visible.
    pub fn decode_stats(&self) -> (u64, u64, u64, u64) {
        let mut totals = (0u64, 0u64, 0u64, 0u64);
        for cpu in &self.nodes {
            let s = cpu.stats();
            totals.0 += s.decode_hits;
            totals.1 += s.decode_misses;
            totals.2 += s.decode_invalidations;
            totals.3 += s.decode_bypasses;
        }
        totals
    }

    /// Aggregate translation-tier counters over all nodes:
    /// `(blocks, enters, deopts, invalidations)`. Host-side only, like
    /// [`Network::decode_stats`], and likewise excluded from outcome
    /// fingerprints.
    pub fn trans_stats(&self) -> (u64, u64, u64, u64) {
        let mut totals = (0u64, 0u64, 0u64, 0u64);
        for cpu in &self.nodes {
            let s = cpu.stats();
            totals.0 += s.trans_blocks;
            totals.1 += s.trans_enters;
            totals.2 += s.trans_deopts;
            totals.3 += s.trans_invalidations;
        }
        totals
    }

    /// Number of wires.
    pub fn wire_count(&self) -> usize {
        self.wires.len()
    }

    /// Cumulative transmit time per direction of a wire (from end 0,
    /// from end 1), in nanoseconds.
    pub fn wire_busy_ns(&self, wire: usize) -> (u64, u64) {
        let w = &self.wires[wire];
        let mut busy = [w.link.busy_ns(End::A), w.link.busy_ns(End::B)];
        if self.trains[wire].is_some() {
            let (from, acked, delivered) = self.train_progress(wire);
            // Byte `k + 1` starts as acknowledge `k` lands, and each
            // acknowledge as its byte lands; byte 0 started the train.
            busy[from] += (acked + 1) * self.data_ns;
            busy[1 - from] += delivered * self.ack_ns;
        }
        (busy[0], busy[1])
    }

    /// Utilisation of a wire's two directions over the elapsed
    /// simulation time, each in [0, 1].
    pub fn wire_utilization(&self, wire: usize) -> (f64, f64) {
        if self.now_ns == 0 {
            return (0.0, 0.0);
        }
        let (a, b) = self.wire_busy_ns(wire);
        (a as f64 / self.now_ns as f64, b as f64 / self.now_ns as f64)
    }

    fn schedule_node(&mut self, node: usize, at: u64, cause: u64) {
        if !self.hot.scheduled[node] {
            self.hot.scheduled[node] = true;
            self.hot.next_ns[node] = at;
            self.queue.push(Reverse((at, cause, Actor::Node(node))));
        }
    }

    /// Earliest pending activity on a wire: an in-flight packet
    /// completion, an unresolved data-start probe, or a resend deadline.
    fn wire_next_event_ns(&self, wire: usize) -> Option<u64> {
        let w = &self.wires[wire];
        let probe = w.probes.iter().map(|&(t, _)| t).min();
        let resend = w.resend.iter().flatten().map(|r| r.deadline).min();
        [w.link.next_deadline(), probe, resend]
            .into_iter()
            .flatten()
            .min()
    }

    /// Schedule a wire's next pending activity, caused at `cause`.
    fn schedule_wire(&mut self, wire: usize, cause: u64) {
        if self.trains[wire].is_some() {
            return; // the train's final byte holds the live entry
        }
        match self.wire_next_event_ns(wire) {
            Some(t) => {
                // At most one live heap entry per wire (`wire_next`
                // holds its time; `u64::MAX` = none). An entry firing
                // no later than `t` recomputes the schedule when it
                // pops, so pushing a duplicate here would only breed
                // no-op pops — each one rescheduling in turn, O(n^2)
                // heap churn on a busy routed wire.
                if self.wire_next[wire] <= t {
                    return;
                }
                self.push_wire(wire, t, cause);
            }
            None => self.wire_next[wire] = u64::MAX,
        }
    }

    /// Push a wire's live heap entry, superseding any earlier one.
    fn push_wire(&mut self, wire: usize, t: u64, cause: u64) {
        self.wire_next[wire] = t;
        self.wire_cause[wire] = cause;
        self.queue.push(Reverse((t, cause, Actor::Wire(wire))));
    }

    /// Whether a popped wire entry is the wire's live one and must be
    /// processed now; if so, consume it (processing reschedules).
    fn take_live_wire_pop(&mut self, w: usize, t: u64, cause: u64) -> bool {
        self.counts.wire_pops += 1;
        if self.wire_next[w] != t || self.wire_cause[w] != cause || self.wire_pop_deferred(w, t) {
            return false;
        }
        self.wire_next[w] = u64::MAX;
        true
    }

    // ------------------------------------------------------------------
    // Packet trains (see [`Train`]).
    // ------------------------------------------------------------------

    /// Arrival time of chain frame `j` of a train whose byte 0 started
    /// at `t0`.
    fn chain_time(&self, t0: u64, j: u64) -> u64 {
        let p = self.data_ns + self.ack_ns;
        if j.is_multiple_of(2) {
            t0 + j / 2 * p + self.data_ns
        } else {
            t0 + j.div_ceil(2) * p
        }
    }

    /// How many chain frames of wire `w`'s train (byte 0 started at
    /// `t0`) are keyed below `key`, uncapped. Frame times strictly
    /// increase, so at most one frame can tie with `key`'s time; it
    /// precedes `key` iff its cause (its own start) and actor do.
    fn chain_frames_before(&self, w: usize, t0: u64, key: Key) -> u64 {
        let (t, cause, actor) = key;
        if t <= t0 {
            return 0;
        }
        let (d, p) = (self.data_ns, self.data_ns + self.ack_ns);
        let x = t - t0;
        let deliveries = if x > d { (x - d).div_ceil(p) } else { 0 };
        let acks = (x - 1) / p;
        let tie_cause = if x >= d && (x - d).is_multiple_of(p) {
            Some(t - d)
        } else if x.is_multiple_of(p) {
            Some(t - self.ack_ns)
        } else {
            None
        };
        let tie = tie_cause.is_some_and(|c| (c, Actor::Wire(w)) < (cause, actor));
        deliveries + acks + u64::from(tie)
    }

    /// Frames of wire `w`'s running train that have happened by
    /// `pop_key`, as `(sending end, acknowledges received, bytes
    /// delivered)`. The final byte is never counted: it is a real heap
    /// entry, and its pop ends the train.
    #[cold]
    fn train_progress(&self, w: usize) -> (usize, u64, u64) {
        let tr = self.trains[w].as_ref().expect("a train is running");
        let m = self
            .chain_frames_before(w, tr.t0, self.pop_key)
            .min(2 * tr.len as u64 - 2);
        (tr.from, m / 2, m.div_ceil(2))
    }

    /// The next per-frame instant of wire `w`, as the slice bounds read
    /// it while a train runs: the live heap entry's time, or a train's
    /// next chain frame — exactly the entry the per-frame schedule would
    /// hold, so slices end where they would without the train.
    fn wire_next_ns(&self, w: usize) -> u64 {
        match &self.trains[w] {
            None => self.wire_next[w],
            Some(tr) => self.chain_time(tr.t0, self.chain_frames_before(w, tr.t0, self.pop_key)),
        }
    }

    /// Run the data frame that end index `from` of wire `w` sends at
    /// `stamp` as a packet train, if the hop qualifies: a sliced engine,
    /// classic lines both idle, and a plain store-and-forward hop
    /// starting byte 0 (see [`RouterNet::train_packet`]). Robust wires,
    /// cut-through streams and the event engine — the per-frame oracle —
    /// never qualify.
    fn try_start_train(&mut self, w: usize, from: usize, stamp: u64) -> bool {
        if self.robust || self.config.engine == Engine::Event {
            return false;
        }
        let wire = &self.wires[w];
        if self.trains[w].is_some() || !wire.link.is_quiescent() {
            return false;
        }
        let Some(router) = self.router.as_ref() else {
            return false;
        };
        let Some((image, len)) = router.train_packet(wire.ends[from], wire.ends[1 - from]) else {
            return false;
        };
        debug_assert_eq!(
            self.wire_next[w],
            u64::MAX,
            "an idle wire has no live entry"
        );
        self.trains[w] = Some(Train {
            from,
            t0: stamp,
            image,
            len,
        });
        self.trains_running += 1;
        // The final byte's delivery, keyed as the per-frame chain keys
        // it: caused at its own start.
        let t = self.chain_time(stamp, 2 * len as u64 - 2);
        self.push_wire(w, t, t - self.data_ns);
        true
    }

    /// End wire `w`'s train at `pop_key`: apply every chain frame keyed
    /// below it in closed form — router sequence and reassembly state,
    /// delivered bytes, line busy time — and put the frame in flight at
    /// that point back on its line. Returns that frame's heap key
    /// `(time, cause)`, the one the per-frame schedule holds for it.
    fn expand_train(&mut self, w: usize) -> (u64, u64) {
        let tr = self.trains[w].take().expect("a train is running");
        self.trains_running -= 1;
        let m = self
            .chain_frames_before(w, tr.t0, self.pop_key)
            .min(2 * tr.len as u64 - 2);
        let (acked, delivered) = (m / 2, m.div_ceil(2));
        let (from, to) = (tr.from, 1 - tr.from);
        let ends = self.wires[w].ends;
        self.router
            .as_mut()
            .expect("trains run on routed wires")
            .train_advance(
                ends[from],
                ends[to],
                &tr.image,
                acked as usize,
                delivered as usize,
                tr.t0 + self.data_ns,
            );
        let wire = &mut self.wires[w];
        wire.delivered[to] += delivered;
        wire.link
            .charge_busy(end_at(from), delivered * self.data_ns);
        wire.link.charge_busy(end_at(to), acked * self.ack_ns);
        let start = tr.t0 + acked * (self.data_ns + self.ack_ns);
        if m.is_multiple_of(2) {
            let byte = tr.image[acked as usize];
            let done = wire
                .link
                .resume_frame(end_at(from), PacketKind::Data(byte), start);
            (done, start)
        } else {
            let start = start + self.data_ns;
            (
                wire.link.resume_frame(end_at(to), PacketKind::Ack, start),
                start,
            )
        }
    }

    /// Break wire `w`'s train back to per-frame state at `pop_key`,
    /// before anything else is sent on either of its lines.
    fn split_train(&mut self, w: usize) {
        let (t, cause) = self.expand_train(w);
        // Unless the final byte is the one in flight, whose entry is
        // already queued, queue the frame the split left on the wire.
        if (t, cause) != (self.wire_next[w], self.wire_cause[w]) {
            self.push_wire(w, t, cause);
        }
        self.counts.train_splits += 1;
    }

    /// Process a node's link-facing state after it ran or was poked:
    /// offer transmit bytes and deferred acknowledges to its wires.
    fn service_node_links(&mut self, node: usize) {
        if self.router.is_some() {
            self.router_service(node, self.now_ns);
            return;
        }
        if self.robust {
            // The robust protocol has no reception-start decisions, so
            // the stamped path (which defers all wire work to heap
            // events) is exact for every engine; sharing it keeps the
            // engines' robust behaviour structurally identical.
            self.service_node_links_at(node, self.now_ns);
            return;
        }
        for port in 0..4 {
            let w = self.hot.ports[node][port];
            if w == usize::MAX {
                continue;
            }
            let end = if self.wires[w].ends[0] == (node, port) {
                End::A
            } else {
                End::B
            };
            let mut touched = false;
            if self.nodes[node].link_take_deferred_ack(port) {
                self.wires[w].link.send_ack(end, self.now_ns);
                touched = true;
            }
            if let Some(byte) = self.nodes[node].link_tx_poll(port) {
                self.wires[w].link.send_data(end, byte, self.now_ns);
                touched = true;
            }
            if touched {
                self.process_wire(w);
            }
        }
        self.refresh_tx_flight(node);
    }

    /// Drain a wire's due events and route them to the endpoint CPUs.
    fn process_wire(&mut self, w: usize) {
        if self.router.is_some() {
            self.process_wire_routed(w);
            return;
        }
        let (start, end) = self.drain_wire(w);
        for i in start..end {
            let ev = self.link_events[i];
            if self.robust {
                self.process_robust_event(w, ev);
                continue;
            }
            match ev {
                LinkEvent::DataStarted { to } => {
                    let (node, port) = self.wire_end(w, to);
                    let early = self.config.ack_policy == AckPolicy::Early
                        && self.nodes[node].link_rx_early_ack(port);
                    let ei = end_index(to);
                    self.wires[w].early_acked[ei] = early;
                    if early {
                        self.wires[w].link.send_ack(to, self.now_ns);
                    }
                }
                LinkEvent::DataDelivered { to, byte, .. } => {
                    let (node, port) = self.wire_end(w, to);
                    let ei = end_index(to);
                    self.wires[w].delivered[ei] += 1;
                    let was_idle = self.nodes[node].is_idle();
                    let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                    if ack_now && !self.wires[w].early_acked[ei] {
                        self.wires[w].link.send_ack(to, self.now_ns);
                    }
                    self.wires[w].early_acked[ei] = false;
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                    // Delivery may have completed a message and the woken
                    // process is not needed for further RX; nothing else.
                }
                LinkEvent::AckDelivered { to, .. } => {
                    let (node, port) = self.wire_end(w, to);
                    let was_idle = self.nodes[node].is_idle();
                    self.nodes[node].link_tx_ack(port);
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                    // The output port may have another byte ready now.
                    self.service_node_links(node);
                }
                LinkEvent::BusyDelivered { .. } | LinkEvent::Garbled { .. } => {
                    unreachable!("classic lines emit no robust events")
                }
            }
        }
        self.link_events.truncate(start);
        self.schedule_wire(w, self.now_ns);
    }

    /// Append a wire's due events to the shared event stack at the
    /// frontier and return their range; the caller truncates back to
    /// `start` when done.
    fn drain_wire(&mut self, w: usize) -> (usize, usize) {
        let start = self.link_events.len();
        self.wires[w]
            .link
            .advance(self.now_ns, &mut self.link_events);
        (start, self.link_events.len())
    }

    fn wire_end(&self, w: usize, end: End) -> Port {
        self.wires[w].ends[end_index(end)]
    }

    /// Schedule a just-woken node; its clock is synced when its event
    /// fires.
    fn sync_and_wake(&mut self, node: usize) {
        self.schedule_node(node, self.now_ns, self.now_ns);
    }

    fn node_cycle_ns(&self, node: usize) -> u64 {
        self.hot.cycle_ns[node]
    }

    /// Mirror a node's transmit-in-flight link state into the hot
    /// array. Called wherever that state can change — the link service
    /// paths, which every acknowledge delivery funnels through — so the
    /// bound computations never read stale bits (see [`NodeHot`]).
    fn refresh_tx_flight(&mut self, node: usize) {
        let mut mask = 0u8;
        for port in 0..4 {
            if self.hot.ports[node][port] != usize::MAX && self.nodes[node].link_tx_in_flight(port)
            {
                mask |= 1 << port;
            }
        }
        self.hot.tx_flight[node] = mask;
    }

    /// Advance the simulation by exactly one event. Returns false when
    /// nothing remains to simulate.
    pub fn step_event(&mut self) -> Result<bool, SimError> {
        let Some(Reverse(key)) = self.queue.pop() else {
            return Ok(false);
        };
        let (t, cause, actor) = key;
        self.pop_key = key;
        self.now_ns = self.now_ns.max(t);
        match actor {
            Actor::Wire(w) => {
                if self.take_live_wire_pop(w, t, cause) {
                    self.process_wire(w);
                    self.fire_due_resends(w);
                }
            }
            Actor::Node(n) => {
                self.counts.node_pops += 1;
                self.hot.scheduled[n] = false;
                if self.nodes[n].is_idle() {
                    // Bring the idle node's local clock up to global time
                    // (this may wake timer waits that are now due).
                    let target = self.now_ns / self.node_cycle_ns(n);
                    self.nodes[n].advance_idle_to(target);
                }
                match self.nodes[n].step() {
                    StepEvent::Ran { cycles } => {
                        let next = self.now_ns + u64::from(cycles) * self.node_cycle_ns(n);
                        self.service_node_links(n);
                        self.schedule_node(n, next, self.now_ns);
                    }
                    StepEvent::Idle => {
                        self.service_node_links(n);
                        if let Some(wake_cycle) = self.nodes[n].next_timer_wake_cycle() {
                            let at = (wake_cycle * self.node_cycle_ns(n)).max(self.now_ns + 1);
                            self.schedule_node(n, at, self.now_ns);
                        }
                        // Otherwise: the node sleeps until a wire wakes it.
                    }
                    StepEvent::Halted(HaltReason::Stopped) => {
                        self.service_node_links(n);
                    }
                    StepEvent::Halted(reason) => {
                        return Err(SimError::NodeFault { node: n, reason });
                    }
                }
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // The lookahead (sliced) engine.
    // ------------------------------------------------------------------

    /// Initialise the early-acknowledge history from live link state.
    /// Runs at the first sliced step so program loading and boot
    /// configuration between `build()` and the first run are captured.
    fn prime_ea(&mut self) {
        if self.ea_primed {
            return;
        }
        self.ea_primed = true;
        for node in 0..self.nodes.len() {
            for port in 0..4 {
                if self.hot.ports[node][port] == usize::MAX {
                    continue;
                }
                let live = self.nodes[node].link_rx_early_ack(port);
                self.hot.ea[node][port] = EaState {
                    last: live,
                    stamp: self.now_ns,
                    prev: live,
                };
            }
            self.refresh_tx_flight(node);
        }
    }

    /// Record any change to a node's receiver-visible link state, stamped
    /// with the instruction (or wire event) that caused it.
    fn refresh_ea(&mut self, node: usize, stamp: u64) {
        for port in 0..4 {
            if self.hot.ports[node][port] == usize::MAX {
                continue;
            }
            let live = self.nodes[node].link_rx_early_ack(port);
            let e = &mut self.hot.ea[node][port];
            if live != e.last {
                e.prev = e.last;
                e.stamp = stamp;
                e.last = live;
            }
        }
    }

    /// Would `node`'s receiver on `port` have acknowledged early at time
    /// `stamp`? Current state answers for stamps at or after the latest
    /// recorded change; the one-deep history answers for older probes.
    fn ea_at(&self, node: usize, port: usize, stamp: u64) -> bool {
        let e = &self.hot.ea[node][port];
        if stamp >= e.stamp {
            self.nodes[node].link_rx_early_ack(port)
        } else {
            e.prev
        }
    }

    /// Earliest time node `m` can next act: its scheduled slice, a wire
    /// event addressed to it, or a chain of other events reaching it (no
    /// faster than the heap frontier plus one acknowledge flight).
    fn peer_activity_ns(
        &self,
        m: usize,
        t_peek: Option<u64>,
        batch: &[(u64, usize)],
        wire_next: impl Fn(usize) -> u64,
    ) -> u64 {
        let mut act = u64::MAX;
        if self.hot.scheduled[m] {
            act = self.hot.next_ns[m];
        }
        for &(tb, nb) in batch {
            if nb == m {
                act = act.min(tb);
            }
        }
        for port in 0..4 {
            let w = self.hot.ports[m][port];
            if w != usize::MAX {
                act = act.min(wire_next(w));
            }
        }
        if let Some(tp) = t_peek {
            // Only pay for the peer's link state when the frontier term
            // could bind at all.
            if tp.saturating_add(self.ack_ns.min(self.data_ns)) < act {
                // An acknowledge can only land on a port whose transmit
                // is in flight; any other first arrival is a data packet.
                // In routed mode the CPUs' transmit state says nothing
                // about the wires (the routers own them), so assume the
                // faster packet. That single-frame term is already the
                // header-latency bound wormhole cut-through needs: a
                // relayed byte still costs one full frame per wire, so
                // the routed windows keep their length in both switching
                // modes.
                let hop_in = if self.router.is_some() {
                    self.ack_ns.min(self.data_ns)
                } else if self.hot.tx_flight[m] != 0 {
                    self.ack_ns
                } else {
                    self.data_ns
                };
                act = act.min(tp.saturating_add(hop_in));
            }
        }
        act
    }

    /// How far node `node`, popped at `t`, may run without interacting
    /// with anything the wires could deliver first. `t_peek` is the heap
    /// frontier after the pop; `batch` carries the pop times of nodes
    /// running concurrently in the same parallel window.
    fn slice_bound_ns(&self, node: usize, t_peek: Option<u64>, batch: &[(u64, usize)]) -> u64 {
        // Only a running train leaves `wire_next` short of the per-frame
        // schedule, so without one the plain read is exact.
        if self.trains_running == 0 {
            self.slice_bound_with(node, t_peek, batch, |w| self.wire_next[w])
        } else {
            self.slice_bound_with(node, t_peek, batch, |w| self.wire_next_ns(w))
        }
    }

    /// [`Self::slice_bound_ns`], reading each wire's next instant
    /// through `wire_next`.
    fn slice_bound_with(
        &self,
        node: usize,
        t_peek: Option<u64>,
        batch: &[(u64, usize)],
        wire_next: impl Fn(usize) -> u64 + Copy,
    ) -> u64 {
        let mut direct = u64::MAX;
        for port in 0..4 {
            let w = self.hot.ports[node][port];
            if w == usize::MAX {
                continue;
            }
            direct = direct.min(wire_next(w));
            let peer = self.hot.peers[node][port];
            // The first packet the peer could land on this node: an
            // acknowledge if our byte is on the wire, else a data byte.
            // Routed wires belong to the routers, whose transmit state
            // the CPU mirror does not track: assume the faster packet
            // (which is also the wormhole header-latency bound — a
            // cut-through relay still pays one full frame per wire).
            let hop = if self.router.is_some() {
                self.ack_ns.min(self.data_ns)
            } else if self.hot.tx_flight[node] & (1 << port) != 0 {
                self.ack_ns
            } else {
                self.data_ns
            };
            let act = self.peer_activity_ns(peer, t_peek, batch, wire_next);
            direct = direct.min(act.saturating_add(hop));
        }
        self.horizon_ns.unwrap_or(u64::MAX).min(direct)
    }

    /// Run one slice of `node`, popped at heap time `t`, through the
    /// engine-shared kernel ([`par::run_slice_kernel`]): advance an idle
    /// node's clock first, exactly as the event engine does at a pop.
    /// Returns what the slice did plus the node's cycle count at entry.
    fn run_node_slice(&mut self, node: usize, t: u64, bound: u64) -> (u64, SliceOutcome) {
        par::run_slice_kernel(&mut self.nodes[node], t, bound)
    }

    /// Apply a finished slice: stamp and service link activity, record
    /// receiver-state history, and reschedule the node. `t` is the pop
    /// time and `pop_cycles` the node's cycle count at the pop, so
    /// `stamp = t + (interaction_cycle - pop_cycles) * cycle_ns`
    /// reproduces the event engine's per-instruction event times even
    /// when an idle wake left the node's local clock behind global time.
    fn finish_slice(
        &mut self,
        node: usize,
        t: u64,
        pop_cycles: u64,
        outcome: SliceOutcome,
    ) -> Result<(), SimError> {
        let cyc = self.node_cycle_ns(node);
        let end_ns = t + (self.nodes[node].cycles() - pop_cycles) * cyc;
        match outcome {
            SliceOutcome::Halted(HaltReason::Stopped) => {
                if self.nodes[node].take_links_dirty() {
                    let stamp = t + (self.nodes[node].slice_interaction_cycle() - pop_cycles) * cyc;
                    self.refresh_ea(node, stamp);
                    self.service_node_links_at(node, stamp);
                }
            }
            SliceOutcome::Halted(reason) => {
                return Err(SimError::NodeFault { node, reason });
            }
            SliceOutcome::Idle => {
                if let Some(wake_cycle) = self.nodes[node].next_timer_wake_cycle() {
                    let at = (wake_cycle * cyc).max(end_ns + 1);
                    self.schedule_node(node, at, t);
                }
                // Otherwise: the node sleeps until a wire wakes it.
            }
            SliceOutcome::TxReady
            | SliceOutcome::RxWait
            | SliceOutcome::AckRaised
            | SliceOutcome::Preempted
            | SliceOutcome::BudgetExpired => {
                let stamp = t + (self.nodes[node].slice_interaction_cycle() - pop_cycles) * cyc;
                if self.nodes[node].take_links_dirty() {
                    self.refresh_ea(node, stamp);
                    self.service_node_links_at(node, stamp);
                } else if outcome == SliceOutcome::RxWait {
                    // An input began but sent nothing: the receiver state
                    // still changed at the interaction instruction.
                    self.refresh_ea(node, stamp);
                }
                self.schedule_node(node, end_ns, t);
            }
        }
        Ok(())
    }

    /// Like [`Network::service_node_links`], but with sends stamped at
    /// `stamp` (the exit instruction's start time, possibly ahead of the
    /// global frontier) and early-acknowledge probes deferred to heap
    /// events at their stamps instead of resolved inline.
    fn service_node_links_at(&mut self, node: usize, stamp: u64) {
        if self.router.is_some() {
            self.router_service(node, stamp);
            return;
        }
        for port in 0..4 {
            let w = self.hot.ports[node][port];
            if w == usize::MAX {
                continue;
            }
            let end = if self.wires[w].ends[0] == (node, port) {
                End::A
            } else {
                End::B
            };
            let mut touched = false;
            if self.nodes[node].link_take_deferred_ack(port) {
                if self.robust {
                    let seq = self.nodes[node].link_rx_last_seq(port);
                    self.wires[w].link.send_ack_seq(end, seq, stamp);
                } else {
                    self.wires[w].link.send_ack(end, stamp);
                }
                touched = true;
            }
            if let Some(byte) = self.nodes[node].link_tx_poll(port) {
                if self.robust {
                    let seq = self.nodes[node].link_tx_seq(port);
                    self.wires[w].link.send_data_seq(end, byte, seq, stamp);
                    self.wires[w].resend[end_index(end)] = Some(Resend {
                        byte,
                        seq,
                        deadline: stamp + self.timeout_ns,
                        attempts: 0,
                        interval_ns: self.timeout_ns,
                    });
                } else {
                    self.wires[w].link.send_data(end, byte, stamp);
                }
                touched = true;
            }
            if touched {
                let wire = &mut self.wires[w];
                for ev in wire.link.drain_pending_events() {
                    if let LinkEvent::DataStarted { to } = ev {
                        wire.probes.push((stamp, to));
                    }
                }
                self.schedule_wire(w, stamp);
            }
        }
        self.refresh_tx_flight(node);
    }

    /// Fire any due retransmissions on a wire (robust protocol). Called
    /// at wire pops only, *after* the due completions — an acknowledge
    /// landing at the deadline instant wins the race — so every engine
    /// resolves the tie the same way.
    fn fire_due_resends(&mut self, w: usize) {
        if !self.robust {
            return;
        }
        let now = self.now_ns;
        let mut fired = false;
        for ei in 0..2 {
            let due = matches!(self.wires[w].resend[ei], Some(r) if r.deadline <= now);
            if !due {
                continue;
            }
            let mut r = self.wires[w].resend[ei].expect("checked above");
            let (node, _) = self.wires[w].ends[ei];
            if r.attempts >= self.max_retries {
                self.wires[w].resend[ei] = None;
                self.wires[w].failed[ei] = true;
                self.nodes[node].note_link_failure();
                if self.router.is_some() {
                    // Routed networks respond to a dead hop by
                    // rebuilding their tables and rerouting.
                    self.router_wire_failed(w);
                }
                fired = true;
                continue;
            }
            r.attempts += 1;
            r.deadline = now + r.interval_ns;
            self.wires[w].resend[ei] = Some(r);
            self.nodes[node].note_link_retry();
            let end = if ei == 0 { End::A } else { End::B };
            self.wires[w].link.send_data_seq(end, r.byte, r.seq, now);
            fired = true;
        }
        if fired {
            self.schedule_wire(w, now);
        }
    }

    /// Route one robust-protocol wire event. Shared verbatim by all
    /// engines: without reception-start decisions there is no
    /// engine-specific stamping beyond the frontier time.
    fn process_robust_event(&mut self, w: usize, ev: LinkEvent) {
        let now = self.now_ns;
        match ev {
            LinkEvent::DataStarted { .. } => {
                unreachable!("robust lines emit no start events")
            }
            LinkEvent::DataDelivered { to, byte, seq } => {
                let (node, port) = self.wire_end(w, to);
                match self.nodes[node].link_rx_accept(port, seq) {
                    SeqCheck::Accept => {
                        self.wires[w].delivered[end_index(to)] += 1;
                        let was_idle = self.nodes[node].is_idle();
                        let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                        if ack_now {
                            let aseq = self.nodes[node].link_rx_last_seq(port);
                            self.wires[w].link.send_ack_seq(to, aseq, now);
                        }
                        if was_idle && !self.nodes[node].is_idle() {
                            self.sync_and_wake(node);
                        }
                    }
                    SeqCheck::DupReAck => {
                        // Our acknowledge was evidently lost: repeat it.
                        let aseq = self.nodes[node].link_rx_last_seq(port);
                        self.wires[w].link.send_ack_seq(to, aseq, now);
                    }
                    SeqCheck::DupBusy => {
                        let aseq = self.nodes[node].link_rx_last_seq(port);
                        self.wires[w].link.send_busy(to, aseq, now);
                    }
                }
            }
            LinkEvent::AckDelivered { to, seq } => {
                let (node, port) = self.wire_end(w, to);
                let was_idle = self.nodes[node].is_idle();
                if self.nodes[node].link_tx_ack_robust(port, seq) {
                    self.wires[w].resend[end_index(to)] = None;
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                    // The output port may have another byte ready now.
                    self.service_node_links_at(node, now);
                }
                // Stale acknowledges change nothing anywhere.
            }
            LinkEvent::BusyDelivered { to, seq } => {
                // The receiver holds our byte but cannot release the
                // acknowledge yet: poll with backoff instead of burning
                // the retry budget.
                if let Some(r) = &mut self.wires[w].resend[end_index(to)] {
                    if r.seq == seq {
                        r.attempts = 0;
                        r.interval_ns = r.interval_ns.saturating_mul(2).min(self.timeout_ns * 16);
                        r.deadline = now + r.interval_ns;
                    }
                }
            }
            LinkEvent::Garbled { to } => {
                let (node, _) = self.wire_end(w, to);
                self.nodes[node].note_link_rx_error();
            }
        }
    }

    // ------------------------------------------------------------------
    // The virtual-channel router (routed mode). All three engines call
    // the same three entry points at the same times — CPU link service
    // at interaction stamps, wire events at the frontier, failure at
    // resend-deadline pops — so routed runs stay bit-identical.
    // ------------------------------------------------------------------

    /// Routed replacement for the link-service paths: let the node's
    /// router absorb CPU output and resume deliveries, then apply the
    /// wire effects it requested, stamped at `stamp`.
    fn router_service(&mut self, node: usize, stamp: u64) {
        let router = self.router.as_mut().expect("routed mode");
        router.service_node(&mut self.nodes, node, stamp, &mut self.router_acts);
        self.apply_router_acts(stamp);
    }

    /// Routed replacement for wire processing, shared by every engine:
    /// drain due completions and hand them to the endpoint routers.
    fn process_wire_routed(&mut self, w: usize) {
        let now = self.now_ns;
        if self.trains[w].is_some() {
            // The train's final byte: bring the hop up to it, then
            // deliver it like any other frame.
            let live = self.expand_train(w);
            debug_assert_eq!(live, (self.pop_key.0, self.pop_key.1));
        }
        let robust = self.robust;
        let backoff_cap = self.timeout_ns * 16;
        let (start, end) = self.drain_wire(w);
        let router = self.router.as_mut().expect("routed mode");
        let wire = &mut self.wires[w];
        for &ev in &self.link_events[start..end] {
            match ev {
                // Routers never early-acknowledge: the forwarding
                // decision needs the whole byte (and often the whole
                // packet), so reception starts carry no information.
                LinkEvent::DataStarted { .. } => {}
                LinkEvent::DataDelivered { to, byte, seq } => {
                    let (node, port) = wire.ends[end_index(to)];
                    let accepted = router.phys_data(
                        &mut self.nodes,
                        node,
                        port,
                        byte,
                        seq,
                        robust,
                        now,
                        &mut self.router_acts,
                    );
                    if accepted {
                        wire.delivered[end_index(to)] += 1;
                    }
                }
                LinkEvent::AckDelivered { to, seq } => {
                    let (node, port) = wire.ends[end_index(to)];
                    let fresh = router.phys_ack(
                        &mut self.nodes,
                        node,
                        port,
                        seq,
                        robust,
                        now,
                        &mut self.router_acts,
                    );
                    if fresh {
                        wire.resend[end_index(to)] = None;
                    }
                }
                LinkEvent::BusyDelivered { to, seq } => {
                    // Same backoff as the CPU robust path: the peer
                    // router holds our byte with its acknowledge
                    // withheld (backpressure), so poll, don't flood.
                    if let Some(r) = &mut wire.resend[end_index(to)] {
                        if r.seq == seq {
                            r.attempts = 0;
                            r.interval_ns = r.interval_ns.saturating_mul(2).min(backoff_cap);
                            r.deadline = now + r.interval_ns;
                        }
                    }
                }
                LinkEvent::Garbled { to } => {
                    let (node, _) = wire.ends[end_index(to)];
                    self.nodes[node].note_link_rx_error();
                }
            }
        }
        self.link_events.truncate(start);
        self.apply_router_acts(now);
        self.schedule_wire(w, now);
    }

    /// A wire direction exhausted its retry budget under a routed
    /// network: rebuild tables and reroute (see [`RouterNet`]).
    fn router_wire_failed(&mut self, w: usize) {
        let now = self.now_ns;
        let ends = self.wires[w].ends;
        let router = self.router.as_mut().expect("routed mode");
        router.wire_failed(&mut self.nodes, w, ends, now, &mut self.router_acts);
        self.apply_router_acts(now);
    }

    /// Apply, then clear, the wire- and scheduler-visible effects the
    /// last router call queued in `router_acts`. Router logic never
    /// re-enters here: acts are self-contained, so wire bookkeeping
    /// (resend registration, scheduling) stays in this one place.
    fn apply_router_acts(&mut self, stamp: u64) {
        for i in 0..self.router_acts.len() {
            let (node, act) = self.router_acts[i];
            if let Act::Wake = act {
                self.schedule_node(node, stamp, stamp);
                continue;
            }
            let port = match act {
                Act::Data { port, .. } | Act::Ack { port, .. } | Act::Busy { port, .. } => port,
                Act::Wake => unreachable!("handled above"),
            };
            let w = self.hot.ports[node][port];
            debug_assert!(w != usize::MAX, "router act on an unwired port");
            let end = if self.wires[w].ends[0] == (node, port) {
                End::A
            } else {
                End::B
            };
            if self.trains[w].is_some() {
                self.split_train(w);
            }
            match act {
                Act::Data { .. } if self.try_start_train(w, end_index(end), stamp) => continue,
                Act::Data { byte, seq, .. } => {
                    if self.robust {
                        self.wires[w].link.send_data_seq(end, byte, seq, stamp);
                        self.wires[w].resend[end_index(end)] = Some(Resend {
                            byte,
                            seq,
                            deadline: stamp + self.timeout_ns,
                            attempts: 0,
                            interval_ns: self.timeout_ns,
                        });
                    } else {
                        self.wires[w].link.send_data(end, byte, stamp);
                    }
                }
                Act::Ack { seq, .. } => {
                    if self.robust {
                        self.wires[w].link.send_ack_seq(end, seq, stamp);
                    } else {
                        self.wires[w].link.send_ack(end, stamp);
                    }
                }
                Act::Busy { seq, .. } => {
                    self.wires[w].link.send_busy(end, seq, stamp);
                }
                Act::Wake => unreachable!("handled above"),
            }
            // Routers never early-acknowledge, so data-start probes are
            // meaningless in routed mode: discard them.
            self.wires[w].link.clear_pending_events();
            self.schedule_wire(w, stamp);
        }
        self.router_acts.clear();
    }

    /// The early-acknowledge decision for a data packet that started
    /// arriving at `to` at time `stamp`.
    fn resolve_probe(&mut self, w: usize, to: End, stamp: u64) {
        let (node, port) = self.wire_end(w, to);
        let early = self.config.ack_policy == AckPolicy::Early && self.ea_at(node, port, stamp);
        self.wires[w].early_acked[end_index(to)] = early;
        if early {
            self.wires[w].link.send_ack(to, stamp);
        }
    }

    /// Whether a wire pop at `t` must wait for node entries scheduled at
    /// the same instant. A data-start probe stamped exactly `t` ties with
    /// any instruction starting at `t`; the event engine executes the
    /// instruction first (its entry was caused no later than the sender's
    /// step), so the sliced engine re-queues the wire behind the pending
    /// node entries to observe the same post-instruction state.
    /// A resend deadline at exactly `t` ties the same way (the node's
    /// sends at `t` must enter the line queue before the retransmission
    /// starts); *every* engine applies that deferral, establishing one
    /// canonical order. Requeueing terminates because each node
    /// micro-step costs at least one cycle, so after the tied nodes run
    /// they are rescheduled strictly later than `t`.
    fn wire_pop_deferred(&mut self, w: usize, t: u64) -> bool {
        let tie = self.wires[w].probes.iter().any(|&(s, _)| s == t)
            || self.wires[w]
                .resend
                .iter()
                .flatten()
                .any(|r| r.deadline == t);
        if !tie {
            return false;
        }
        let node_pending =
            (0..self.nodes.len()).any(|n| self.hot.scheduled[n] && self.hot.next_ns[n] == t);
        if node_pending {
            // Caused now, at `t`: it sorts after every node entry at `t`.
            self.push_wire(w, t, t);
            return true;
        }
        false
    }

    /// Sliced-engine wire processing: resolve due probes at their own
    /// stamps, then drain completions at the frontier.
    fn process_wire_sliced(&mut self, w: usize) {
        if self.router.is_some() {
            self.process_wire_routed(w);
            return;
        }
        let now = self.now_ns;
        // Resolve due probes in stamp order, ties in arrival order.
        while let Some(i) = self.wires[w]
            .probes
            .iter()
            .enumerate()
            .filter(|&(_, &(t, _))| t <= now)
            .min_by_key(|&(_, &(t, _))| t)
            .map(|(i, _)| i)
        {
            let (t, to) = self.wires[w].probes.remove(i);
            self.resolve_probe(w, to, t);
        }
        let (start, end) = self.drain_wire(w);
        for i in start..end {
            let ev = self.link_events[i];
            if self.robust {
                self.process_robust_event(w, ev);
                continue;
            }
            match ev {
                LinkEvent::DataStarted { to } => {
                    // A queued packet chained onto a completion: it
                    // starts exactly now.
                    self.resolve_probe(w, to, now);
                }
                LinkEvent::DataDelivered { to, byte, .. } => {
                    let (node, port) = self.wire_end(w, to);
                    let ei = end_index(to);
                    self.wires[w].delivered[ei] += 1;
                    let was_idle = self.nodes[node].is_idle();
                    let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                    if ack_now && !self.wires[w].early_acked[ei] {
                        self.wires[w].link.send_ack(to, now);
                    }
                    self.wires[w].early_acked[ei] = false;
                    self.refresh_ea(node, now);
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                }
                LinkEvent::AckDelivered { to, .. } => {
                    let (node, port) = self.wire_end(w, to);
                    let was_idle = self.nodes[node].is_idle();
                    self.nodes[node].link_tx_ack(port);
                    if was_idle && !self.nodes[node].is_idle() {
                        self.sync_and_wake(node);
                    }
                    // The output port may have another byte ready now.
                    self.service_node_links_at(node, now);
                }
                LinkEvent::BusyDelivered { .. } | LinkEvent::Garbled { .. } => {
                    unreachable!("classic lines emit no robust events")
                }
            }
        }
        self.link_events.truncate(start);
        self.schedule_wire(w, now);
    }

    /// Advance the simulation by one heap event under the sliced engine:
    /// a wire event, or one whole node slice.
    fn step_sliced(&mut self) -> Result<bool, SimError> {
        self.prime_ea();
        let Some(Reverse(key)) = self.queue.pop() else {
            return Ok(false);
        };
        let (t, cause, actor) = key;
        self.pop_key = key;
        self.now_ns = self.now_ns.max(t);
        match actor {
            Actor::Wire(w) => {
                if self.take_live_wire_pop(w, t, cause) {
                    self.process_wire_sliced(w);
                    self.fire_due_resends(w);
                }
            }
            Actor::Node(n) => {
                self.counts.node_pops += 1;
                self.hot.scheduled[n] = false;
                let t_peek = self.queue.peek().map(|Reverse((pt, _, _))| *pt);
                let bound = self.slice_bound_ns(n, t_peek, &[]);
                let (pop_cycles, outcome) = self.run_node_slice(n, t, bound);
                self.finish_slice(n, t, pop_cycles, outcome)?;
            }
        }
        Ok(true)
    }

    /// Advance by one heap event under the parallel engine. Consecutive
    /// node entries at the heap top form a window whose slices run on
    /// the persistent worker pool; results land in pre-indexed slots
    /// and are merged in pop order, so the result is bit-identical to
    /// [`Engine::Sliced`]. With one worker (no host parallelism) the
    /// pool runs the same slots inline — one shared path either way.
    fn step_parallel(&mut self) -> Result<bool, SimError> {
        self.prime_ea();
        let Some(Reverse(key)) = self.queue.pop() else {
            return Ok(false);
        };
        let (t0, c0, actor) = key;
        self.pop_key = key;
        self.now_ns = self.now_ns.max(t0);
        let n0 = match actor {
            Actor::Wire(w) => {
                if self.take_live_wire_pop(w, t0, c0) {
                    self.process_wire_sliced(w);
                    self.fire_due_resends(w);
                }
                return Ok(true);
            }
            Actor::Node(n) => n,
        };
        self.counts.node_pops += 1;
        self.hot.scheduled[n0] = false;
        let window_end = t0.saturating_add(self.ack_ns.min(self.data_ns));
        let mut batch = std::mem::take(&mut self.scratch.batch);
        let mut causes = std::mem::take(&mut self.scratch.causes);
        batch.clear();
        causes.clear();
        batch.push((t0, n0));
        causes.push(c0);
        while let Some(&Reverse((t, c, Actor::Node(n)))) = self.queue.peek() {
            if t > window_end {
                break;
            }
            self.queue.pop();
            self.counts.node_pops += 1;
            self.hot.scheduled[n] = false;
            batch.push((t, n));
            causes.push(c);
        }
        if batch.len() == 1 {
            self.scratch.causes = causes;
            self.scratch.batch = batch;
            let t_peek = self.queue.peek().map(|Reverse((pt, _, _))| *pt);
            let bound = self.slice_bound_ns(n0, t_peek, &[]);
            let (pop_cycles, outcome) = self.run_node_slice(n0, t0, bound);
            return self
                .finish_slice(n0, t0, pop_cycles, outcome)
                .map(|()| true);
        }
        let remaining_top = self.queue.peek().map(|Reverse((pt, _, _))| *pt);
        // Bounds are computed against pre-window state; a batch member's
        // own influence on its neighbours is covered by its pop time
        // appearing in `batch` (its sends are stamped no earlier). Train
        // frames are read as of the first pop, which can only shorten
        // the later members' bounds; reading them at each member's own
        // pop would not be safe, since an earlier member's split leaves
        // the frames before that pop queued, not yet applied.
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.clear();
        for (i, &(t, n)) in batch.iter().enumerate() {
            let other_min = batch
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &(tj, _))| tj)
                .min();
            let t_peek = match (remaining_top, other_min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let bound = self.slice_bound_ns(n, t_peek, &batch);
            slots.push(Slot {
                node: n,
                t,
                bound,
                pop_cycles: 0,
                outcome: SliceOutcome::BudgetExpired,
            });
        }
        let workers = self.par_workers;
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers));
        // Slot nodes are pairwise distinct: `schedule_node` admits one
        // heap entry per node and the batching loop clears `scheduled`
        // as it pops, satisfying `run_window`'s safety contract.
        pool.run_window(self.nodes.as_mut_ptr(), &mut slots);
        let mut result = Ok(true);
        for (slot, &cause) in slots.iter().zip(&causes) {
            // Merge in pop order, each slot at its own heap position.
            self.pop_key = (slot.t, cause, Actor::Node(slot.node));
            if let Err(e) = self.finish_slice(slot.node, slot.t, slot.pop_cycles, slot.outcome) {
                result = Err(e);
                break;
            }
        }
        self.scratch.batch = batch;
        self.scratch.causes = causes;
        self.scratch.slots = slots;
        result
    }

    /// Advance by one event under the configured engine.
    fn advance_one(&mut self) -> Result<bool, SimError> {
        match self.config.engine {
            Engine::Event => self.step_event(),
            Engine::Sliced => self.step_sliced(),
            Engine::Parallel => self.step_parallel(),
        }
    }

    /// Whether every node has halted cleanly. Amortised O(1): the scan
    /// resumes at the termination cursor and advances it past every
    /// node found halted, so a run pays for each node once rather than
    /// once per heap event.
    pub fn all_halted(&self) -> bool {
        let stopped = |n: &Cpu| n.halt_reason() == Some(HaltReason::Stopped);
        let mut i = self.halted_below.get();
        while i < self.nodes.len() && stopped(&self.nodes[i]) {
            i += 1;
        }
        self.halted_below.set(i);
        let all = i == self.nodes.len();
        debug_assert_eq!(
            all,
            self.nodes.iter().all(stopped),
            "termination cursor disagrees with a full scan"
        );
        all
    }

    /// Run until every node halts cleanly.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeFault`] if a node faults; [`SimError::Budget`] if
    /// `budget_ns` elapses first.
    pub fn run_until_all_halted(&mut self, budget_ns: u64) -> Result<SimOutcome, SimError> {
        self.run_until(budget_ns, |net| {
            if net.all_halted() {
                Some(SimOutcome::AllHalted)
            } else {
                None
            }
        })
    }

    /// Run for a fixed duration of simulated time.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeFault`] if a node faults.
    pub fn run_for(&mut self, duration_ns: u64) -> Result<SimOutcome, SimError> {
        let end = self.now_ns + duration_ns;
        // Instructions run iff they start strictly before `end`, in both
        // engines.
        let saved = self.horizon_ns;
        self.horizon_ns = Some(end);
        let result = loop {
            if self.now_ns >= end {
                break Ok(SimOutcome::TimeLimit);
            }
            if let Some(Reverse((t, _, _))) = self.queue.peek() {
                if *t >= end {
                    self.now_ns = end;
                    // Everything due before `end` has happened, elided
                    // train frames included.
                    self.pop_key = self.pop_key.max((end, 0, Actor::Node(0)));
                    break Ok(SimOutcome::TimeLimit);
                }
            }
            match self.advance_one() {
                Ok(true) => {}
                Ok(false) => break Ok(SimOutcome::Deadlock),
                Err(e) => break Err(e),
            }
        };
        self.horizon_ns = saved;
        result
    }

    /// Run until a predicate over the network holds. The predicate is
    /// evaluated after every heap event; under the sliced engines that is
    /// after every node *slice* rather than every instruction, and after
    /// every packet train rather than every frame. The wire observables
    /// ([`Network::wire_delivered`], [`Network::wire_busy_ns`]) are
    /// per-frame exact at every evaluation — a train's elided frames are
    /// counted in closed form up to the heap position being processed —
    /// but the frames between a train's first byte and its final one
    /// land between evaluations. A predicate over delivered bytes
    /// therefore fires at identical times in all engines when its
    /// thresholds fall on packet boundaries (as `DbSearch::run`'s do:
    /// every final byte is a heap event), and at the next heap event
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeFault`] if a node faults; [`SimError::Budget`] if
    /// the budget elapses first.
    pub fn run_until<F>(&mut self, budget_ns: u64, mut pred: F) -> Result<SimOutcome, SimError>
    where
        F: FnMut(&Network) -> Option<SimOutcome>,
    {
        let end = self.now_ns.saturating_add(budget_ns);
        let saved = self.horizon_ns;
        self.horizon_ns = Some(end.saturating_add(1));
        let result = loop {
            if let Some(out) = pred(self) {
                break Ok(out);
            }
            if self.now_ns > end {
                break Err(SimError::Budget { ns: budget_ns });
            }
            match self.advance_one() {
                Ok(true) => {}
                Ok(false) => {
                    if let Some(out) = pred(self) {
                        break Ok(out);
                    }
                    break Ok(SimOutcome::Deadlock);
                }
                Err(e) => break Err(e),
            }
        };
        self.horizon_ns = saved;
        result
    }
}

fn end_index(end: End) -> usize {
    match end {
        End::A => 0,
        End::B => 1,
    }
}

fn end_at(index: usize) -> End {
    if index == 0 {
        End::A
    } else {
        End::B
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode, encode_op, Direct, Op};
    use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};

    fn halting_program() -> Vec<u8> {
        let mut code = Vec::new();
        code.extend(encode(Direct::LoadConstant, 1));
        code.extend(encode_op(Op::HaltSimulation));
        code
    }

    #[test]
    fn builder_validates_ports() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let a = b.add_node();
        let c = b.add_node();
        b.connect((a, 0), (c, 0));
        let net = b.build();
        assert_eq!(net.len(), 2);
        assert_eq!(net.wire_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn builder_rejects_double_wiring() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let a = b.add_node();
        let c = b.add_node();
        let d = b.add_node();
        b.connect((a, 0), (c, 0));
        b.connect((a, 0), (d, 0));
    }

    #[test]
    fn independent_nodes_halt() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let n0 = b.add_node();
        let n1 = b.add_node();
        let mut net = b.build();
        net.node_mut(n0)
            .load_boot_program(&halting_program())
            .unwrap();
        net.node_mut(n1)
            .load_boot_program(&halting_program())
            .unwrap();
        let out = net.run_until_all_halted(1_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted);
    }

    /// The termination cursor never vouches for a node handed out
    /// through `node_mut`: after a run to `AllHalted`, restarting a node
    /// below the cursor makes `all_halted` false until it halts again.
    #[test]
    fn all_halted_cursor_forgets_a_reloaded_node() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let nodes: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
        let mut net = b.build();
        for &n in &nodes {
            net.node_mut(n)
                .load_boot_program(&halting_program())
                .unwrap();
        }
        assert!(!net.all_halted());
        let out = net.run_until_all_halted(1_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted);
        assert!(net.all_halted());
        // A halted processor stays halted across a program load, so the
        // reload starts from a fresh processor in the same slot.
        let cpu = net.node_mut(nodes[1]);
        *cpu = Cpu::new(CpuConfig::t424());
        cpu.load_boot_program(&halting_program()).unwrap();
        assert!(!net.all_halted(), "the reloaded node is running");
        assert!(!net.all_halted(), "and stays running across checks");
        net.node_mut(nodes[1]).run_to_halt(1_000).unwrap();
        assert!(net.all_halted(), "halted again");
    }

    fn one_word_sender() -> Vec<u8> {
        // Sender: outword 0xBEEF on link 0 output channel, then halt.
        // The link-0 output channel word is at MostNeg (reserved word 0):
        // its address is mint + LINK_OUT_BASE words.
        let mut sender = Vec::new();
        sender.extend(encode(Direct::LoadConstant, 0xBEEF));
        sender.extend(encode_op(Op::MinimumInteger));
        sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
        sender.extend(encode_op(Op::OutputWord));
        sender.extend(encode_op(Op::HaltSimulation));
        sender
    }

    fn one_word_receiver() -> Vec<u8> {
        // Receiver: in 4 bytes from link 0 input channel into w[1].
        let mut receiver = Vec::new();
        receiver.extend(encode(Direct::LoadLocalPointer, 1));
        receiver.extend(encode_op(Op::MinimumInteger));
        receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        receiver.extend(encode(Direct::LoadConstant, 4));
        // Stack now: A=4 (count), B=chan, C=dest pointer.
        receiver.extend(encode_op(Op::InputMessage));
        receiver.extend(encode(Direct::LoadLocal, 1));
        receiver.extend(encode_op(Op::HaltSimulation));
        receiver
    }

    /// Sender transmits one word over link 0; receiver stores it and halts.
    #[test]
    fn one_word_over_a_link() {
        for engine in [Engine::Event, Engine::Sliced, Engine::Parallel] {
            let mut b = NetworkBuilder::new(NetworkConfig {
                engine,
                ..NetworkConfig::default()
            });
            let tx = b.add_node();
            let rx = b.add_node();
            b.connect((tx, 0), (rx, 0));
            let mut net = b.build();
            net.node_mut(tx)
                .load_boot_program(&one_word_sender())
                .unwrap();
            net.node_mut(rx)
                .load_boot_program(&one_word_receiver())
                .unwrap();
            net.run_until_all_halted(10_000_000).unwrap();
            assert_eq!(net.node(rx).areg(), 0xBEEF, "{engine:?}");
            let (to_end0, to_end1) = net.wire_delivered(0);
            assert_eq!(
                to_end0 + to_end1,
                4,
                "four data bytes crossed the wire ({engine:?})"
            );
        }
    }

    /// All three engines agree on per-node cycle counts for a transfer.
    #[test]
    fn engines_agree_on_one_word_transfer() {
        let mut reference: Option<(u64, u64)> = None;
        for engine in [Engine::Event, Engine::Sliced, Engine::Parallel] {
            let mut b = NetworkBuilder::new(NetworkConfig {
                engine,
                ..NetworkConfig::default()
            });
            let tx = b.add_node();
            let rx = b.add_node();
            b.connect((tx, 0), (rx, 0));
            let mut net = b.build();
            net.node_mut(tx)
                .load_boot_program(&one_word_sender())
                .unwrap();
            net.node_mut(rx)
                .load_boot_program(&one_word_receiver())
                .unwrap();
            net.run_until_all_halted(10_000_000).unwrap();
            let got = (net.node(tx).cycles(), net.node(rx).cycles());
            match reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(got, want, "{engine:?} diverged"),
            }
        }
    }

    /// The paper (§4.2): "It takes about 6 microseconds to send a 4 byte
    /// message from one transputer to another."
    #[test]
    fn four_byte_message_latency_about_6_us() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        let tx = b.add_node();
        let rx = b.add_node();
        b.connect((tx, 0), (rx, 0));
        let mut net = b.build();

        let mut sender = Vec::new();
        sender.extend(encode(Direct::LoadConstant, 0x0403_0201));
        sender.extend(encode(Direct::StoreLocal, 1));
        sender.extend(encode(Direct::LoadLocalPointer, 1));
        sender.extend(encode_op(Op::MinimumInteger));
        sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
        sender.extend(encode(Direct::LoadConstant, 4));
        sender.extend(encode_op(Op::OutputMessage));
        sender.extend(encode_op(Op::HaltSimulation));

        let mut receiver = Vec::new();
        receiver.extend(encode(Direct::LoadLocalPointer, 1));
        receiver.extend(encode_op(Op::MinimumInteger));
        receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        receiver.extend(encode(Direct::LoadConstant, 4));
        receiver.extend(encode_op(Op::InputMessage));
        receiver.extend(encode_op(Op::HaltSimulation));

        net.node_mut(tx).load_boot_program(&sender).unwrap();
        net.node_mut(rx).load_boot_program(&receiver).unwrap();
        net.run_until_all_halted(100_000_000).unwrap();
        let t_us = net.time_ns() as f64 / 1000.0;
        assert!(
            t_us > 4.0 && t_us < 8.0,
            "4-byte message took {t_us} µs; the paper says about 6"
        );
        let w = net.node(rx).default_boot_workspace() + 4;
        assert_eq!(net.node_mut(rx).peek_word(w).unwrap(), 0x0403_0201);
    }

    /// `set_par_workers` clamps to at least one worker.
    #[test]
    fn par_workers_clamps_to_one() {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        b.add_node();
        let mut net = b.build();
        net.set_par_workers(0);
        assert_eq!(net.par_workers(), 1);
        net.set_par_workers(7);
        assert_eq!(net.par_workers(), 7);
    }

    /// The parallel engine creates its worker pool once and reuses it:
    /// after a run full of multi-node windows, exactly `workers - 1`
    /// threads have ever been spawned.
    #[test]
    fn parallel_windows_reuse_one_pool() {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine: Engine::Parallel,
            ..NetworkConfig::default()
        });
        // Four sender/receiver pairs: windows hold many concurrently
        // scheduled nodes, so the pool is exercised repeatedly.
        let pairs: Vec<(NodeId, NodeId)> = (0..4)
            .map(|_| {
                let tx = b.add_node();
                let rx = b.add_node();
                b.connect((tx, 0), (rx, 0));
                (tx, rx)
            })
            .collect();
        let mut net = b.build();
        for &(tx, rx) in &pairs {
            net.node_mut(tx)
                .load_boot_program(&one_word_sender())
                .unwrap();
            net.node_mut(rx)
                .load_boot_program(&one_word_receiver())
                .unwrap();
        }
        net.set_par_workers(3);
        net.run_until_all_halted(10_000_000).unwrap();
        assert_eq!(
            net.pool_spawned_threads(),
            2,
            "one pool, created once, never respawned per window"
        );
        for &(_, rx) in &pairs {
            assert_eq!(net.node(rx).areg(), 0xBEEF);
        }
    }
}
