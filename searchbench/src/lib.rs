//! The repository benchmark: the paper's §4 concurrent database search,
//! scaled to three machines that each load a different layer of the
//! simulator (see `NOTES.md` for why each was chosen).
//!
//! Everything here calls the layers' public functions from outside:
//! `DbSearch::build_*` and `DbSearch::run` for the end-to-end numbers,
//! `occam::compile` and the `topology` table builders for the set-up
//! layers, and the CPU, wire and router counters for the rest.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use transputer_apps::dbsearch::{hypercube_sources, routed_sources, HypercubeConfig};
use transputer_apps::{DbSearch, DbSearchConfig, DbSearchReport};
use transputer_link::FaultPlan;
use transputer_net::topology::{
    cdg_acyclic, hypercube_tables, route_tables, PORT_NORTH, PORT_SOUTH,
};
use transputer_net::{
    adjacency_add_wire, grid_adjacency, hypercube_adjacency, Adjacency, Engine, Network,
    NetworkConfig, RouterStats,
};

/// Workload seed when none is given (the paper's year).
pub const DEFAULT_SEED: u64 = 1985;

/// A seed kept out of every tuning run, so a later claim can be
/// re-checked on inputs nobody looked at while making it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Per-packet drop, garble and jitter rate of the faulted workload.
pub const FAULT_RATE: f64 = 1e-4;

/// Simulated-time budget for one search: far beyond any workload's
/// finish, so running out of it is itself a failure.
const BUDGET_NS: u64 = 100_000_000_000_000;

/// Environment variables the library reads to leave its default
/// configuration. The benchmark measures the default configuration
/// only, so it refuses to run while any of them is set.
pub const CONFIG_ENV: [&str; 4] = ["TRANSLATE", "PAR_WORKERS", "FAULT_RATE", "FAULT_SEED"];

/// The first configuration variable of [`CONFIG_ENV`] that is set.
pub fn config_env_set() -> Option<&'static str> {
    CONFIG_ENV
        .into_iter()
        .find(|v| std::env::var_os(v).is_some())
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256-node hypercube of 4×4 clusters over planned spanning trees:
    /// CPU-bound, no router.
    Planned256,
    /// 32×32 routed grid with a thin database: wire- and router-bound,
    /// and the largest set-up.
    Routed1024,
    /// The routed 256-node hypercube under uniform link faults: the
    /// robust framing, timeout and retry path.
    Faulted256,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Planned256,
        Workload::Routed1024,
        Workload::Faulted256,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Planned256 => "search_planned256",
            Workload::Routed1024 => "search_routed1024",
            Workload::Faulted256 => "search_faulted256",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large an instance to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// The same shape and configuration with fewer nodes and records,
    /// for tests.
    Reduced,
}

/// One workload instance: shape, configuration, seed and engine.
#[derive(Debug, Clone)]
pub enum Machine {
    /// A hypercube of clusters searched over planned spanning trees.
    PlannedCube(HypercubeConfig),
    /// A flat grid searched through the virtual-channel router.
    RoutedGrid(DbSearchConfig),
    /// A hypercube of clusters searched through the router.
    RoutedCube(HypercubeConfig),
}

fn cube(side: usize, records_per_node: usize, requests: usize, seed: u64) -> HypercubeConfig {
    HypercubeConfig {
        dim: 4,
        side,
        records_per_node,
        requests,
        seed,
        key_space: 4000,
        net: NetworkConfig::default(),
    }
}

impl Machine {
    /// The instance of `workload` at `seed` on the default engine.
    /// The configurations are spelled out here rather than taken from
    /// the library's presets, so the benchmark's inputs change only
    /// when this file does.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Machine {
        let full = size == Size::Full;
        match workload {
            Workload::Planned256 => Machine::PlannedCube(if full {
                cube(4, 200, 16, seed)
            } else {
                cube(2, 12, 3, seed)
            }),
            Workload::Routed1024 => {
                let side = if full { 32 } else { 4 };
                Machine::RoutedGrid(DbSearchConfig {
                    width: side,
                    height: side,
                    records_per_node: 20,
                    requests: 2,
                    seed,
                    key_space: 500,
                    net: NetworkConfig::default(),
                })
            }
            Workload::Faulted256 => {
                let mut config = if full {
                    cube(4, 200, 4, seed)
                } else {
                    cube(2, 12, 3, seed)
                };
                config.net.fault = Some(FaultPlan::uniform(seed, FAULT_RATE));
                Machine::RoutedCube(config)
            }
        }
    }

    fn net(&self) -> &NetworkConfig {
        match self {
            Machine::PlannedCube(c) | Machine::RoutedCube(c) => &c.net,
            Machine::RoutedGrid(c) => &c.net,
        }
    }

    /// This instance on another engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Machine {
        match &mut self {
            Machine::PlannedCube(c) | Machine::RoutedCube(c) => c.net.engine = engine,
            Machine::RoutedGrid(c) => c.net.engine = engine,
        }
        self
    }

    /// Build the machine: generate the sources, compile, wire, build
    /// the routing tables, load the programs and poke the records.
    ///
    /// # Errors
    ///
    /// Propagates build failures.
    pub fn build(&self) -> Result<DbSearch, Box<dyn std::error::Error>> {
        match self {
            Machine::PlannedCube(c) => DbSearch::build_hypercube(c.clone()),
            Machine::RoutedGrid(c) => DbSearch::build_routed(c.clone()),
            Machine::RoutedCube(c) => DbSearch::build_routed_hypercube(c.clone()),
        }
    }

    /// Array nodes plus the two host nodes.
    pub fn programs(&self) -> usize {
        2 + match self {
            Machine::PlannedCube(c) | Machine::RoutedCube(c) => c.node_count(),
            Machine::RoutedGrid(c) => c.width * c.height,
        }
    }

    /// The distinct occam sources the build compiles.
    pub fn sources(&self) -> Vec<(String, String)> {
        match self {
            Machine::PlannedCube(c) => hypercube_sources(c),
            Machine::RoutedGrid(c) => routed_sources(c),
            // The routed program texts depend only on the participant
            // count, so a flat grid with the cube's node count yields
            // the cube's texts.
            Machine::RoutedCube(c) => routed_sources(&DbSearchConfig {
                width: c.node_count(),
                height: 1,
                records_per_node: c.records_per_node,
                requests: c.requests,
                seed: c.seed,
                key_space: c.key_space,
                net: c.net.clone(),
            }),
        }
    }

    /// The router's adjacency (array plus the two host wires, as the
    /// routed builds lay it out), `None` on a planned machine.
    pub fn adjacency(&self) -> Option<Adjacency> {
        let (mut adj, n) = match self {
            Machine::PlannedCube(_) => return None,
            Machine::RoutedGrid(c) => (grid_adjacency(c.width, c.height), c.width * c.height),
            Machine::RoutedCube(c) => (hypercube_adjacency(c.dim, c.side), c.node_count()),
        };
        let host_wire = adj.iter().flatten().flatten().map(|l| l.2).max()? + 1;
        adjacency_add_wire(&mut adj, (n, PORT_SOUTH), (0, PORT_NORTH), host_wire);
        adjacency_add_wire(
            &mut adj,
            (n - 1, PORT_SOUTH),
            (n + 1, PORT_NORTH),
            host_wire + 1,
        );
        Some(adj)
    }

    /// The routing tables the router builds over `adj` at boot.
    pub fn tables(&self, adj: &Adjacency) -> Vec<Vec<u8>> {
        let dead: HashSet<usize> = self
            .net()
            .fault
            .iter()
            .flat_map(|plan| plan.dead.iter())
            .filter(|d| d.from_ns == 0)
            .map(|d| d.wire)
            .collect();
        match self {
            Machine::RoutedCube(c) => hypercube_tables(adj, c.dim, c.side, &dead),
            _ => route_tables(adj, &dead),
        }
    }
}

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the fields `hostperf` fingerprints: answers, answer
/// times, per-node cycles and instructions, and per-wire delivered
/// bytes. Equal fingerprints mean bit-identical simulated outcomes.
pub fn fingerprint(report: &DbSearchReport, net: &Network) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &a in &report.answers {
        fnv1a(&mut hash, u64::from(a));
    }
    for &t in &report.answer_times_ns {
        fnv1a(&mut hash, t);
    }
    for id in 0..net.len() {
        fnv1a(&mut hash, net.node(id).cycles());
        fnv1a(&mut hash, net.node(id).stats().instructions);
    }
    for w in 0..net.wire_count() {
        let (a, b) = net.wire_delivered(w);
        fnv1a(&mut hash, a);
        fnv1a(&mut hash, b);
    }
    hash
}

/// The output check every run must pass: every answer present, equal
/// to the reference count, and the result not degraded.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn check(report: &DbSearchReport) -> Result<(), String> {
    if report.degraded {
        return Err(format!(
            "degraded: {} of {} answers, {} nodes excluded",
            report.received,
            report.expected.len(),
            report.excluded_nodes
        ));
    }
    if !report.all_correct() || report.received != report.expected.len() {
        return Err(format!(
            "wrong answers: {:?} != expected {:?}",
            report.answers, report.expected
        ));
    }
    Ok(())
}

/// Network-wide counters read after a run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub nodes: u64,
    pub wires: u64,
    pub instructions: u64,
    pub cycles: u64,
    pub dispatches: u64,
    pub deschedules: u64,
    pub messages: u64,
    pub message_bytes: u64,
    pub trans_blocks: u64,
    pub trans_enters: u64,
    pub trans_deopts: u64,
    pub decode_hits: u64,
    pub decode_misses: u64,
    pub retries: u64,
    pub rx_errors: u64,
    /// Duplicate data bytes absorbed, at the CPUs (planned) or the
    /// routers (routed).
    pub dup_data: u64,
    pub failures: u64,
    /// Data bytes delivered, summed over both directions of every wire.
    pub wire_bytes: u64,
    /// Simulated transmit time, summed over both directions of every
    /// wire.
    pub busy_ns: u64,
    /// The busiest wire direction's share of the simulated run, ‰.
    pub util_max_permille: u64,
    /// Router counters, `None` on a planned machine.
    pub router: Option<RouterStats>,
}

impl Counters {
    /// Read every public counter of `net`.
    pub fn read(net: &Network) -> Counters {
        let mut c = Counters {
            nodes: net.len() as u64,
            wires: net.wire_count() as u64,
            router: net.router_stats(),
            ..Counters::default()
        };
        for id in 0..net.len() {
            let cpu = net.node(id);
            let s = cpu.stats();
            c.instructions += s.instructions;
            c.cycles += cpu.cycles();
            c.dispatches += s.dispatches;
            c.deschedules += s.deschedules;
            c.messages += s.messages;
            c.message_bytes += s.message_bytes;
            c.trans_blocks += s.trans_blocks;
            c.trans_enters += s.trans_enters;
            c.trans_deopts += s.trans_deopts;
            c.decode_hits += s.decode_hits;
            c.decode_misses += s.decode_misses;
            c.retries += s.link_retries;
            c.rx_errors += s.link_rx_errors;
            c.dup_data += s.link_dup_data;
            c.failures += s.link_failures;
        }
        c.dup_data += c.router.map_or(0, |r| r.dup_data);
        let elapsed = net.time_ns().max(1);
        for w in 0..net.wire_count() {
            let (a, b) = net.wire_delivered(w);
            let (busy_a, busy_b) = net.wire_busy_ns(w);
            c.wire_bytes += a + b;
            c.busy_ns += busy_a + busy_b;
            c.util_max_permille = c.util_max_permille.max(busy_a.max(busy_b) * 1000 / elapsed);
        }
        c
    }
}

/// Builds per [`sample`]: set-up is short next to a run, so each run
/// contributes several set-up times to the set-up median.
pub const BUILDS_PER_SAMPLE: usize = 4;

/// Words in the host reference's table: 16 MiB, far past a core's
/// private caches, so the reference runs from the shared last-level
/// cache exactly when the simulator's working set can.
const REFERENCE_WORDS: usize = 4 << 20;

/// Random read-modify-write steps per reference timing.
const REFERENCE_STEPS: u32 = 2_000_000;

/// Megabytes the reference table keeps resident.
pub const REFERENCE_MB: f64 = (REFERENCE_WORDS * 4) as f64 / (1024.0 * 1024.0);

/// The reference's duration on the host the bounds were set on, while
/// no other tenant contended for its last-level cache.
pub const REFERENCE_NOMINAL_S: f64 = 0.0225;

/// A fixed cache-bound loop, timed before and after every run to
/// measure the host's speed at that moment.
///
/// On a shared host other tenants take the last-level cache away for
/// seconds at a time, and the simulator then runs up to 1.7 times
/// slower. Scaling each run by [`REFERENCE_NOMINAL_S`] over the
/// reference's time removes most of that swing from the reported host
/// times. The reference is this file's code, so no change to the
/// simulator changes it.
#[derive(Debug)]
pub struct HostReference {
    table: Vec<u32>,
}

impl Default for HostReference {
    fn default() -> Self {
        // Non-zero fill, so every page is resident from the start.
        HostReference {
            table: vec![1; REFERENCE_WORDS],
        }
    }
}

impl HostReference {
    /// Host seconds one pass of the reference loop takes now.
    pub fn time_s(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u32;
        for _ in 0..REFERENCE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (REFERENCE_WORDS - 1);
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// One untraced run of a machine, after [`BUILDS_PER_SAMPLE`] builds.
#[derive(Debug)]
pub struct Sample {
    /// Host seconds inside each `DbSearch::build_*` call.
    pub setup_s: Vec<f64>,
    /// Host seconds inside `DbSearch::run`.
    pub run_s: f64,
    /// Mean reference time before the builds and after the run.
    pub reference_s: f64,
    pub report: DbSearchReport,
    pub fingerprint: u64,
    pub counters: Counters,
}

impl Sample {
    /// Factor that scales this sample's host times to the reference
    /// host speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_NOMINAL_S / self.reference_s
    }
}

/// Build `machine` [`BUILDS_PER_SAMPLE`] times and run the last build,
/// timing each call, with the host reference timed on either side.
///
/// # Errors
///
/// A build or simulation failure.
pub fn sample(machine: &Machine, reference: &mut HostReference) -> Result<Sample, String> {
    let before = reference.time_s();
    let mut setup_s = Vec::with_capacity(BUILDS_PER_SAMPLE);
    let mut sim = None;
    for _ in 0..BUILDS_PER_SAMPLE {
        // Drop the previous build first, so at most one machine is live.
        drop(sim.take());
        let start = Instant::now();
        sim = Some(machine.build().map_err(|e| format!("build failed: {e}"))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut sim = sim.expect("at least one build");
    let start = Instant::now();
    let report = sim.run(BUDGET_NS).map_err(|e| format!("run failed: {e}"))?;
    let run_s = start.elapsed().as_secs_f64();
    let fingerprint = fingerprint(&report, sim.network());
    let counters = Counters::read(sim.network());
    drop(sim);
    Ok(Sample {
        setup_s,
        run_s,
        reference_s: (before + reference.time_s()) / 2.0,
        report,
        fingerprint,
        counters,
    })
}

/// The outcome of repeating one workload instance for a stretch of
/// host time.
#[derive(Debug, Default)]
pub struct Series {
    pub samples: Vec<Sample>,
    /// Runs attempted, including those that failed.
    pub attempted: u64,
    /// One line per failed run: build or run error, failed output
    /// check, or a fingerprint different from the first run's.
    pub failures: Vec<String>,
}

impl Series {
    /// Repeat `machine` until `min_time` has passed and at least
    /// `min_runs` runs succeeded (or as many failed).
    pub fn run(machine: &Machine, min_time: Duration, min_runs: usize) -> Series {
        let start = Instant::now();
        let mut reference = HostReference::default();
        let mut series = Series::default();
        while series.samples.len().max(series.failures.len()) < min_runs
            || start.elapsed() < min_time
        {
            series.attempted += 1;
            let n = series.attempted;
            match sample(machine, &mut reference) {
                Err(e) => series.failures.push(format!("run {n}: {e}")),
                Ok(s) => {
                    let first = series.samples.first().map(|f| f.fingerprint);
                    if let Err(e) = check(&s.report) {
                        series.failures.push(format!("run {n}: {e}"));
                    } else if first.is_some_and(|f| f != s.fingerprint) {
                        series.failures.push(format!(
                            "run {n}: fingerprint {:016x} differs from run 1's {:016x}",
                            s.fingerprint,
                            first.unwrap_or_default()
                        ));
                    }
                    series.samples.push(s);
                }
            }
        }
        series
    }

    fn median_of(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }

    /// Median seconds inside `DbSearch::run`, each run scaled to the
    /// reference host speed.
    pub fn run_s(&self) -> f64 {
        self.median_of(|s| s.run_s * s.scale())
    }

    /// Median seconds inside `DbSearch::build_*` over every build of
    /// every run, each scaled to the reference host speed.
    pub fn setup_s(&self) -> f64 {
        let all: Vec<f64> = self
            .samples
            .iter()
            .flat_map(|s| s.setup_s.iter().map(|t| t * s.scale()))
            .collect();
        median(&all)
    }

    /// Median host seconds inside `DbSearch::run`, as measured.
    pub fn raw_run_s(&self) -> f64 {
        self.median_of(|s| s.run_s)
    }

    /// Median host seconds of one reference pass.
    pub fn reference_s(&self) -> f64 {
        self.median_of(|s| s.reference_s)
    }
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set in MB, from `VmHWM`. The mark is
/// process-wide and never falls, so it describes one workload only in a
/// process that ran nothing else.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Name and unit of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("emulated_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("first_answer_ns", "sim_ns"),
    ("pipeline_interval_ns", "sim_ns"),
];

/// The end-to-end metrics of a series (the simulated times are those of
/// its first run; every other run matched its fingerprint or failed).
/// `vm_hwm_mb` is the process's peak resident set, which includes the
/// host reference's table.
pub fn end_to_end(series: &Series, vm_hwm_mb: f64) -> Vec<Metric> {
    let run_s = series.run_s();
    let first = series.samples.first();
    let instructions = first.map_or(0, |s| s.counters.instructions);
    let values = [
        run_s,
        series.setup_s(),
        ratio(instructions as f64, run_s * 1e6),
        vm_hwm_mb - REFERENCE_MB,
        first.map_or(0, |s| s.report.first_answer_ns) as f64,
        first.map_or(0, |s| s.report.pipeline_interval_ns) as f64,
    ];
    metrics(&END_TO_END, &values)
}

fn metrics(names: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(names.len(), values.len(), "one value per metric name");
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// `num / den`, or 0 where the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A span recorded in memory around one call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the trace's start.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Summed milliseconds of the spans called `name` (0 when none).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.ms())
    }

    /// A span's duration less the time its children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }
}

/// What one traced pass over a workload recorded.
#[derive(Debug)]
pub struct Trace {
    pub tracer: Tracer,
    /// Median `run_s` of the untraced runs made before the traced one,
    /// scaled to the reference host speed.
    pub untraced_run_s: f64,
    /// The same median as measured.
    pub untraced_raw_run_s: f64,
    /// Median host seconds of one reference pass in those runs.
    pub reference_s: f64,
    /// Programs the build loads.
    pub programs: usize,
    /// Distinct source texts among them, each compiled once here.
    pub sources: usize,
    /// Code bytes of the distinct sources.
    pub code_bytes: u64,
    pub report: DbSearchReport,
    pub counters: Counters,
    pub fingerprint: u64,
    pub oracle_fingerprint: u64,
}

/// One traced pass: compile every source, build the routing tables and
/// check them, build, run, then rerun the same instance on the
/// per-instruction Event engine as the oracle.
///
/// # Errors
///
/// A compile, build or simulation failure, or a failed output check.
pub fn trace(machine: &Machine, untraced: &Series) -> Result<Trace, String> {
    let mut tracer = Tracer::default();
    let traced = tracer.span("trace", |t| -> Result<_, String> {
        let sources = machine.sources();
        let mut code_bytes = 0u64;
        for (name, src) in &sources {
            let program = t
                .span("compile", |_| occam::compile(src))
                .map_err(|e| format!("{name} failed to compile: {e}"))?;
            code_bytes += program.code.len() as u64;
        }
        if let Some(adj) = machine.adjacency() {
            let tables = t.span("tables", |_| machine.tables(&adj));
            t.span("cdg", |_| cdg_acyclic(&adj, &tables));
        }
        let mut sim = t
            .span("build", |_| machine.build())
            .map_err(|e| format!("build failed: {e}"))?;
        let report = t
            .span("run", |_| sim.run(BUDGET_NS))
            .map_err(|e| format!("run failed: {e}"))?;
        check(&report)?;
        let oracle = machine.clone().with_engine(Engine::Event);
        let oracle_fingerprint = t.span("oracle", |_| -> Result<u64, String> {
            let mut sim = oracle.build().map_err(|e| format!("oracle build: {e}"))?;
            let report = sim.run(BUDGET_NS).map_err(|e| format!("oracle run: {e}"))?;
            check(&report).map_err(|e| format!("oracle: {e}"))?;
            Ok(fingerprint(&report, sim.network()))
        })?;
        Ok((
            sources.len(),
            code_bytes,
            fingerprint(&report, sim.network()),
            Counters::read(sim.network()),
            report,
            oracle_fingerprint,
        ))
    })?;
    let (sources, code_bytes, fingerprint, counters, report, oracle_fingerprint) = traced;
    Ok(Trace {
        tracer,
        untraced_run_s: untraced.run_s(),
        untraced_raw_run_s: untraced.raw_run_s(),
        reference_s: untraced.reference_s(),
        programs: machine.programs(),
        sources,
        code_bytes,
        report,
        counters,
        fingerprint,
        oracle_fingerprint,
    })
}

/// Name and unit of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("occam.compile_ms_per_program", "ms"),
    ("occam.programs", "count"),
    ("occam.sources", "count"),
    ("occam.code_bytes", "bytes"),
    ("topology.tables_ms", "ms"),
    ("topology.cdg_ms", "ms"),
    ("cpu.instructions", "count"),
    ("cpu.cycles", "count"),
    ("cpu.dispatches", "count"),
    ("cpu.deschedules", "count"),
    ("cpu.messages", "count"),
    ("cpu.message_bytes", "bytes"),
    ("cpu.trans_blocks", "count"),
    ("cpu.trans_enters", "count"),
    ("cpu.trans_deopts", "count"),
    ("cpu.decode_hits", "count"),
    ("cpu.decode_misses", "count"),
    ("cpu.deopt_ratio", "ratio"),
    ("cpu.host_ns_per_instruction", "ns"),
    ("link.wire_bytes", "bytes"),
    ("link.retries", "count"),
    ("link.rx_errors", "count"),
    ("link.dup_data", "count"),
    ("link.failures", "count"),
    ("link.busy_ns", "sim_ns"),
    ("link.util_max_permille", "permille"),
    ("link.retry_ratio", "ratio"),
    ("link.host_ns_per_wire_byte", "ns"),
    ("router.packets_sent", "count"),
    ("router.packets_forwarded", "count"),
    ("router.packets_delivered", "count"),
    ("router.packets_dropped", "count"),
    ("router.hops", "count"),
    ("router.table_rebuilds", "count"),
    ("router.mean_hop_ns", "sim_ns"),
    ("router.p99_hop_ns", "sim_ns"),
    ("router.max_hop_ns", "sim_ns"),
    ("router.delivered_ratio", "ratio"),
    ("router.host_ns_per_hop", "ns"),
    ("sim.host_ns_per_sim_us", "ns"),
    ("sim.nodes", "count"),
    ("sim.wires", "count"),
    ("trace.build_ms", "ms"),
    ("trace.run_ms", "ms"),
    ("trace.oracle_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.run_s_raw", "s"),
    ("host.reference_ms", "ms"),
];

/// The per-layer metrics of a traced pass. Host-time ratios divide the
/// untraced median `run_s` (scaled like the end-to-end one), not the
/// traced run, so they carry no tracing overhead.
pub fn per_layer(trace: &Trace) -> Vec<Metric> {
    let c = &trace.counters;
    let r = c.router.unwrap_or_default();
    let t = &trace.tracer;
    let run_ns = trace.untraced_run_s * 1e9;
    let last_answer_us = trace.report.answer_times_ns.last().copied().unwrap_or(0) as f64 / 1e3;
    let values = [
        ratio(t.total_ms("compile"), trace.sources as f64),
        trace.programs as f64,
        trace.sources as f64,
        trace.code_bytes as f64,
        t.total_ms("tables"),
        t.total_ms("cdg"),
        c.instructions as f64,
        c.cycles as f64,
        c.dispatches as f64,
        c.deschedules as f64,
        c.messages as f64,
        c.message_bytes as f64,
        c.trans_blocks as f64,
        c.trans_enters as f64,
        c.trans_deopts as f64,
        c.decode_hits as f64,
        c.decode_misses as f64,
        ratio(c.trans_deopts as f64, c.trans_enters as f64),
        ratio(run_ns, c.instructions as f64),
        c.wire_bytes as f64,
        c.retries as f64,
        c.rx_errors as f64,
        c.dup_data as f64,
        c.failures as f64,
        c.busy_ns as f64,
        c.util_max_permille as f64,
        ratio(c.retries as f64, c.wire_bytes as f64),
        ratio(run_ns, c.wire_bytes as f64),
        r.packets_sent as f64,
        r.packets_forwarded as f64,
        r.packets_delivered as f64,
        r.packets_dropped as f64,
        r.hops as f64,
        r.table_rebuilds as f64,
        r.mean_hop_ns() as f64,
        r.p99_hop_ns() as f64,
        r.max_hop_ns as f64,
        ratio(r.packets_delivered as f64, r.packets_sent as f64),
        ratio(run_ns, r.hops as f64),
        ratio(run_ns, last_answer_us),
        c.nodes as f64,
        c.wires as f64,
        t.total_ms("build"),
        t.total_ms("run"),
        t.total_ms("oracle"),
        t.total_ms("run") - trace.untraced_raw_run_s * 1e3,
        trace.untraced_raw_run_s,
        trace.reference_s * 1e3,
    ];
    metrics(&PER_LAYER, &values)
}

/// The result line: one JSON object with the run counts and metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
