//! The repository's benchmark: four user workloads of the Monte Cimone
//! reproduction, run in a closed loop, checked, and reported as
//! end-to-end metrics (`--trace 0`) or per-layer metrics from a traced
//! run (`--trace 1`). See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload <busy_day|idle_watch|fault_storm|hpl_native>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! benchmark compare <result-dir-a> <result-dir-b>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod compare;
mod engine_ops;
mod heap;
mod hpl;
mod metrics;
mod runner;
mod stats;
mod trace;

use std::process::ExitCode;

use cimone_monitor::json::JsonValue;

use crate::engine_ops::{EngineWorkload, Kind};
use crate::hpl::HplNative;
use crate::metrics::Metric;
use crate::runner::{run, Budget, RunData};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: benchmark --workload <busy_day|idle_watch|fault_storm|hpl_native> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]\n       benchmark compare <result-dir-a> <result-dir-b>";

/// Where `--trace 1` writes its Chrome trace, relative to the working
/// directory (the root of the checkout).
const TRACE_DIR: &str = ".bench_build/traces";

/// The benchmark's workloads, by command-line name.
const WORKLOADS: [&str; 4] = ["busy_day", "idle_watch", "fault_storm", "hpl_native"];

struct Options {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: "",
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                opts.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| bad("one of busy_day, idle_watch, fault_storm, hpl_native"))?;
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("a number of seconds in (0, 3600]"))?;
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(opts)
}

/// Runs `workload` (one of [`WORKLOADS`]) with inputs drawn from `seed`.
fn run_workload(workload: &str, seed: u64, budget: Budget, trace: bool) -> RunData {
    let kind = match workload {
        "busy_day" => Kind::BusyDay,
        "idle_watch" => Kind::IdleWatch,
        "fault_storm" => Kind::FaultStorm,
        _ => return run(&mut HplNative::new(seed, &hpl::ROUND), budget, trace),
    };
    run(&mut EngineWorkload::new(kind, seed), budget, trace)
}

/// The result line.
fn result_json(data: &RunData, metrics: &[Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("metric {} is not finite ({}); reporting 0", m.name, m.value);
            0.0
        };
        (
            m.name.clone(),
            JsonValue::object([
                ("value".to_owned(), JsonValue::Number(value)),
                ("unit".to_owned(), JsonValue::String(m.unit.to_owned())),
            ]),
        )
    });
    JsonValue::object([
        ("correct".to_owned(), JsonValue::Bool(data.failed == 0)),
        (
            "attempted".to_owned(),
            JsonValue::Number(data.attempted as f64),
        ),
        ("failed".to_owned(), JsonValue::Number(data.failed as f64)),
        ("metrics".to_owned(), JsonValue::object(metrics)),
    ])
    .to_string()
}

/// The human-readable summary on standard error.
fn summarize(opts: &Options, data: &RunData, metrics: &[Metric]) {
    let n = data.op_secs.len();
    eprintln!(
        "{} seed={} ops={n} failed={} (closed loop, 1 client)",
        opts.workload, opts.seed, data.failed
    );
    if let Some(p) = stats::tail_percentile(n) {
        eprintln!(
            "  op latency p{p} (highest with >=10 samples beyond, n={n}): {:.3} ms",
            1e3 * stats::quantile(&data.op_secs, p as f64 / 100.0)
        );
    }
    for m in metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        let op_total = data.tracer.total("op");
        eprintln!("  self time by layer inside ops (traced):");
        for (layer, secs) in data.tracer.self_time_by_layer("op") {
            eprintln!(
                "    {layer:<20} {:>10.3} s {:>6.1}%",
                secs,
                100.0 * runner::ratio(secs, op_total)
            );
        }
        let coverage = data.tracer.coverage("op");
        if coverage < 0.95 {
            eprintln!(
                "  warning: layer spans cover only {:.1}% of op time (want >= 95%)",
                100.0 * coverage
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "hpl_native" {
        eprintln!("host caches (sysfs, cpu0): {}", hpl::cache_summary());
        for s in hpl::ROUND {
            eprintln!(
                "  N={:<5} {:>6.1} MiB per matrix, sized against {}",
                s.n,
                (8 * s.n * s.n) as f64 / (1 << 20) as f64,
                s.tier
            );
        }
    }
    let data = run_workload(
        opts.workload,
        opts.seed,
        Budget::Seconds(opts.seconds),
        opts.trace,
    );
    let metrics = if opts.trace {
        metrics::per_layer(&data)
    } else {
        metrics::end_to_end(&data)
    };
    summarize(&opts, &data, &metrics);
    if opts.trace {
        let path = format!("{TRACE_DIR}/{}-seed{}.json", opts.workload, opts.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, data.tracer.chrome_json()));
        match written {
            Ok(()) => eprintln!("  trace: {path} ({} spans)", data.tracer.spans().len()),
            Err(e) => {
                eprintln!("cannot write the trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_json(&data, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::hpl::Size;

    fn declared(section: &str) -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    fn smoke(name: &str, data_of: impl Fn(bool) -> RunData) {
        for trace in [false, true] {
            let data = data_of(trace);
            assert_eq!(data.failed, 0, "{name} trace={trace}: an op failed");
            assert_eq!(data.attempted, 3, "{name}: warm-up plus two ops");
            let metrics = if trace {
                metrics::per_layer(&data)
            } else {
                metrics::end_to_end(&data)
            };
            let printed: BTreeSet<String> = metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                printed.len(),
                metrics.len(),
                "{name}: a name is printed twice"
            );
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, declared(section), "{name} trace={trace}");
            let line = JsonValue::parse(&result_json(&data, &metrics)).unwrap();
            assert_eq!(line.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        }
    }

    #[test]
    fn every_workload_runs_clean_and_prints_the_declared_metrics() {
        for name in ["busy_day", "idle_watch", "fault_storm"] {
            smoke(name, |trace| run_workload(name, 7, Budget::Ops(2), trace));
        }
        // Small matrices keep the native workload quick in a debug build.
        let round = [
            Size {
                n: 96,
                pairs: 1,
                tier: "l2",
            },
            Size {
                n: 160,
                pairs: 1,
                tier: "l3",
            },
        ];
        smoke("hpl_native", |trace| {
            run(&mut HplNative::new(7, &round), Budget::Ops(2), trace)
        });
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert!(parse(&args("--workload busy_day --seed 3 --seconds 5 --trace 1")).is_ok());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload busy_day --trace 2")).is_err());
        assert!(parse(&args("--workload busy_day --seconds -1")).is_err());
        assert!(parse(&args("--workload busy_day --seed")).is_err());
    }
}
