//! `searchbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Untraced (`--trace 0`): builds and runs the workload repeatedly for
//! `S` seconds, checks every run's answers and fingerprint, and prints
//! the end-to-end metrics. Traced (`--trace 1`): the same untraced runs
//! for a baseline, then one traced pass with spans around every layer
//! call and an Event-engine oracle, printing the per-layer metrics.
//! Either way the last line of standard output is one JSON object;
//! the exit code is non-zero if any run failed.

use std::process::ExitCode;
use std::time::Duration;

use searchbench::{
    config_env_set, end_to_end, peak_rss_mb, per_layer, result_json, trace, Machine, Metric,
    Series, Size, Workload, DEFAULT_SEED, REFERENCE_NOMINAL_S,
};

/// Fewest untraced runs behind a median.
const MIN_RUNS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace: traced,
    })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("searchbench: {e}");
            eprintln!("usage: searchbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = config_env_set() {
        eprintln!(
            "searchbench: {var} is set; the benchmark measures the default configuration only"
        );
        return ExitCode::from(2);
    }

    let machine = Machine::new(args.workload, args.seed, Size::Full);
    println!(
        "{} seed {} ({} s{})",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let series = Series::run(&machine, Duration::from_secs(args.seconds), MIN_RUNS);
    let mut failures = series.failures.clone();
    let mut attempted = series.attempted;
    let n = series.samples.len();

    let metrics = if args.trace {
        attempted += 1;
        match trace(&machine, &series) {
            Err(e) => {
                failures.push(format!("traced run: {e}"));
                Vec::new()
            }
            Ok(t) => {
                let mut problems = Vec::new();
                if let Some(first) = series.samples.first() {
                    if first.fingerprint != t.fingerprint {
                        problems.push(format!(
                            "fingerprint {:016x} differs from untraced {:016x}",
                            t.fingerprint, first.fingerprint
                        ));
                    }
                }
                if t.oracle_fingerprint != t.fingerprint {
                    problems.push(format!(
                        "Event oracle fingerprint {:016x} != Sliced {:016x}",
                        t.oracle_fingerprint, t.fingerprint
                    ));
                }
                if !problems.is_empty() {
                    failures.push(format!("traced run: {}", problems.join("; ")));
                }
                println!("spans (ms from trace start):");
                for (id, s) in t.tracer.spans.iter().enumerate() {
                    println!(
                        "  {:<8} parent {:<5} start {:>10.3} dur {:>10.3} self {:>10.3}",
                        s.name,
                        s.parent.map_or("-".to_string(), |p| p.to_string()),
                        s.start.as_secs_f64() * 1e3,
                        s.ms(),
                        t.tracer.self_ms(id)
                    );
                }
                println!(
                    "fingerprint {:016x} (Sliced) {:016x} (Event oracle)",
                    t.fingerprint, t.oracle_fingerprint
                );
                per_layer(&t)
            }
        }
    } else {
        match peak_rss_mb() {
            Ok(rss) => end_to_end(&series, rss),
            Err(e) => {
                failures.push(e);
                Vec::new()
            }
        }
    };

    print_metrics(&metrics);
    let failed = failures.len() as u64;
    let mut run_ms: Vec<f64> = series.samples.iter().map(|s| s.run_s * 1e3).collect();
    run_ms.sort_by(f64::total_cmp);
    println!("run_s samples as measured (ms, sorted): {run_ms:.1?}");
    println!(
        "host timings are medians of {n} untraced runs, scaled by a host reference \
         of median {:.3} ms (nominal {:.3} ms); raw run_s median {:.6} s; failed_frac {failed}/{attempted}",
        series.reference_s() * 1e3,
        REFERENCE_NOMINAL_S * 1e3,
        series.raw_run_s()
    );
    for f in &failures {
        eprintln!("FAIL {f}");
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
