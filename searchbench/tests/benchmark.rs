//! The benchmark's own checks: its metric names against
//! `BENCHMARK.json`, the output checks on reduced-size instances of
//! every workload at the default and the held-out seed, the stress
//! split the workloads were chosen for, and the configuration guard.

use std::process::Command;
use std::time::Duration;

use searchbench::{
    per_layer, result_json, sample, trace, HostReference, Machine, Metric, Series, Size, Workload,
    CONFIG_ENV, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER,
};
use transputer_net::Engine;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The string value of `"key": "..."` inside `entry`.
fn field(entry: &str, key: &str) -> Option<String> {
    let start = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = entry[start..].find('"')?;
    Some(entry[start..start + len].to_string())
}

/// The `{...}` entries of the `key` array of `BENCHMARK.json`, as
/// `(name, unit)` pairs (unit empty where the entry has none).
fn section(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("entry has a name"),
                field(entry, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    assert_eq!(section("end_to_end"), owned(&END_TO_END));
    assert_eq!(section("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = section("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn result_line_carries_every_metric_once() {
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: 1.5,
        })
        .collect();
    let line = result_json(true, 3, 0, &metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        let entry = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
        assert_eq!(line.matches(&entry).count(), 1, "{entry} in {line}");
    }
}

#[test]
fn reduced_workloads_pass_every_output_check_at_both_seeds() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let machine = Machine::new(workload, seed, Size::Reduced);
            let series = Series::run(&machine, Duration::ZERO, 2);
            assert!(
                series.failures.is_empty(),
                "{} seed {seed}: {:?}",
                workload.name(),
                series.failures
            );
            let t = trace(&machine, &series).expect("traced pass succeeds");
            assert_eq!(t.fingerprint, series.samples[0].fingerprint);
            assert_eq!(
                t.oracle_fingerprint,
                t.fingerprint,
                "{} seed {seed}: Event oracle disagrees",
                workload.name()
            );
            let names: Vec<&str> = per_layer(&t).iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.0));
            // The benchmark's copy of the router adjacency must be the
            // one the build wires.
            if let Some(adj) = machine.adjacency() {
                let wires = adj.iter().flatten().flatten().count() / 2;
                assert_eq!(wires as u64, t.counters.wires);
            }
        }
    }
}

#[test]
fn fingerprint_matches_across_engines_and_differs_across_seeds() {
    let mut reference = HostReference::default();
    let mut run = |machine: &Machine| sample(machine, &mut reference).expect("runs");
    let machine = Machine::new(Workload::Faulted256, DEFAULT_SEED, Size::Reduced);
    let sliced = run(&machine);
    let event = run(&machine.clone().with_engine(Engine::Event));
    assert_eq!(sliced.fingerprint, event.fingerprint);
    let other = run(&Machine::new(
        Workload::Faulted256,
        HELD_OUT_SEED,
        Size::Reduced,
    ));
    assert_ne!(sliced.fingerprint, other.fingerprint);
}

#[test]
fn traced_runs_show_the_intended_stress_split() {
    let bytes_per_instruction = |workload| {
        let machine = Machine::new(workload, DEFAULT_SEED, Size::Full);
        let t = trace(&machine, &Series::default()).expect("traced pass succeeds");
        assert_eq!(t.oracle_fingerprint, t.fingerprint);
        t.counters.wire_bytes as f64 / t.counters.instructions as f64
    };
    let planned = bytes_per_instruction(Workload::Planned256);
    let routed = bytes_per_instruction(Workload::Routed1024);
    assert!(
        routed >= 100.0 * planned,
        "wire bytes per instruction: routed {routed} vs planned {planned}"
    );
}

fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_searchbench"));
    for var in CONFIG_ENV {
        cmd.env_remove(var);
    }
    cmd
}

#[test]
fn refuses_a_non_default_configuration() {
    for var in CONFIG_ENV {
        let out = bench()
            .args(["--workload", "search_faulted256", "--seconds", "0"])
            .env(var, "1")
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{var} set");
        assert!(out.stdout.is_empty(), "{var} set: no result printed");
    }
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "search_planned256", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = bench().args(args).output().expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
