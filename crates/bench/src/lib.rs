//! Shared helpers for the reproduction harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §3 for the full index); the logic lives in
//! `cimone_cluster::experiments`, and this crate only adds argument
//! handling ([`Args`]), the one runner of the five fault-campaign sweeps
//! ([`sweep`]), and the renderers for the configuration tables (II–IV)
//! that describe the monitoring stack rather than measure the machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

use cimone_cluster::engine::ClockMode;
use cimone_cluster::report::{Campaign, Cell, Gate, Report};
use cimone_monitor::plugins::{HWMON_SYSFS, STATS_METRICS};
use cimone_monitor::topic::ExamonSchema;

/// Reads `NAME` from the environment as a number, with a default — the
/// harness binaries use this for `REPS`/`SEED`/`SECS` style knobs.
///
/// # Panics
///
/// If `NAME` is set but does not parse as a `u64`; the message names the
/// variable and its value, so a typo never silently runs the default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not an unsigned integer")),
        Err(e) => panic!("{name} is not an unsigned integer: {e}"),
    }
}

/// The command line of a harness binary that writes a JSON snapshot:
/// `[--smoke] [--out-dir DIR]`, in any order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--smoke`: the small CI configuration.
    pub smoke: bool,
    /// `--out-dir DIR`: where JSON snapshots go, instead of the working
    /// directory, so a run can keep its output apart from the tracked
    /// repo-root snapshots.
    pub out_dir: Option<PathBuf>,
}

impl Args {
    /// Parses `args`, the command line after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is neither `--smoke` nor
    /// `--out-dir` followed by a directory.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out-dir" => match args.next() {
                    Some(dir) if !dir.starts_with("--") => parsed.out_dir = Some(dir.into()),
                    _ => return Err("--out-dir requires a directory argument".to_owned()),
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }

    /// The process's command line. A bad one prints the usage to stderr
    /// and exits with code 2, before the binary runs or writes anything.
    pub fn from_env() -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        Args::parse(argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {program} [--smoke] [--out-dir DIR]");
            std::process::exit(2);
        })
    }

    /// Where to write the JSON snapshot `file`: into
    /// [`Args::out_dir`] (created if missing), or else the working
    /// directory, as the bare file name.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn out_path(&self, file: &str) -> PathBuf {
        match &self.out_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
                dir.join(file)
            }
            None => PathBuf::from(file),
        }
    }
}

/// Runs a fault campaign under [`ClockMode::EventDriven`] and
/// [`ClockMode::FixedDt`] and compares the two typed results with `==`.
/// Returns the event-clock result's report with the comparison as its
/// first gate, `bit_identical`.
fn evaluate<R: Campaign>(name: &str, run: impl Fn(ClockMode) -> R) -> Report {
    let event = run(ClockMode::EventDriven);
    let identical = event == run(ClockMode::FixedDt);
    let mut report = event.report();
    let divergence = format!("event-driven and fixed-dt {name} sweeps diverged");
    let gate = Gate::new("bit_identical", (!identical).then_some(divergence));
    report.gates.insert(0, gate);
    report
}

/// The whole of a fault-campaign sweep binary. It parses the command
/// line first ([`Args::from_env`]). `configure` reads the binary's env
/// knobs, given whether `--smoke` was passed, and returns the campaign's
/// run for a clock. The sweep runs it under both clocks, adds their `==`
/// comparison to the report as the gate `bit_identical`, prints the
/// event-clock report, writes `BENCH_<name>.json` (with `config.mode`
/// `smoke` or `full`) to the working directory or to `--out-dir DIR`
/// ([`Args::out_path`]), and exits non-zero, naming each failure on
/// stderr, if a gate fails.
///
/// # Panics
///
/// If the JSON file cannot be written.
pub fn sweep<R: Campaign, F: Fn(ClockMode) -> R>(
    name: &str,
    configure: impl FnOnce(bool) -> F,
) -> ExitCode {
    let args = Args::from_env();
    let mode = if args.smoke { "smoke" } else { "full" };
    let mut report = evaluate(name, configure(args.smoke));
    report.config.push(Cell::json("mode", mode));
    print!("{}", report.render());
    let path = args.out_path(&format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{}\n", report.to_json()))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    let mut status = ExitCode::SUCCESS;
    for failure in report.gates.iter().flat_map(|g| &g.failures) {
        eprintln!("FAIL: {failure}");
        status = ExitCode::FAILURE;
    }
    status
}

/// Renders Table II: the ExaMon topic and payload formats.
pub fn render_table2() -> String {
    let schema = ExamonSchema::monte_cimone();
    let pmu = schema.pmu_topic("<hostname>", 0, "<metric_name>");
    let stats = schema.stats_topic("<hostname>", "<metric_name>");
    let mut out = String::from("Table II — ExaMon: topic and payload formats\n\n");
    out.push_str(&format!(
        "pmu_pub   topic:   {}\n",
        pmu.to_string().replace("core/0/", "core/<id>/")
    ));
    out.push_str("pmu_pub   payload: <value>;<timestamp>\n\n");
    out.push_str(&format!("stats_pub topic:   {stats}\n"));
    out.push_str("stats_pub payload: <value>;<timestamp>\n");
    out
}

/// Renders Table III: the metric inventory of the stats plugin.
pub fn render_table3() -> String {
    let mut out = String::from("Table III — Metrics collected by the stats_pub plugin\n\n");
    let group_of = |metric: &str| -> &'static str {
        match metric.split('.').next().unwrap_or("") {
            "load_avg" => "Load",
            "io_total" => "I/O",
            "procs" => "Processes",
            "memory_usage" | "paging" => "Memory",
            "dsk_total" => "Disk",
            "system" => "System",
            "total_cpu_usage" => "CPU",
            "net_total" => "Network",
            "temperature" => "Temperatures",
            _ => "?",
        }
    };
    let mut last_group = "";
    for metric in STATS_METRICS {
        let group = group_of(metric);
        if group != last_group {
            out.push_str(&format!("[{group}]\n"));
            last_group = group;
        }
        out.push_str(&format!("  {metric}\n"));
    }
    out
}

/// Renders Table IV: the hwmon sysfs entries for the temperature sensors.
pub fn render_table4() -> String {
    let mut out = String::from("Table IV — Sysfs entries for the temperature sensors\n\n");
    for (sensor, path) in HWMON_SYSFS {
        out.push_str(&format!("{sensor:>10}  {path}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use cimone_cluster::report::Table;

    use super::*;

    /// A one-row campaign gated on its value staying within 5.
    #[derive(PartialEq)]
    struct Toy(f64);

    impl Campaign for Toy {
        fn report(&self) -> Report {
            let row = vec![Cell::fixed("Value", "value", self.0, 1)];
            let over = (self.0 > 5.0).then(|| format!("value {} over the limit 5", self.0));
            Report {
                config: vec![Cell::json("limit", 5.0)],
                tables: vec![Table {
                    key: "rows",
                    caption: "Toy".to_owned(),
                    rows: vec![row],
                }],
                notes: Vec::new(),
                gates: vec![Gate::new("within_limit", over)],
            }
        }
    }

    fn failures(report: &Report) -> Vec<&str> {
        report
            .gates
            .iter()
            .flat_map(|g| &g.failures)
            .map(String::as_str)
            .collect()
    }

    #[test]
    fn diverging_clocks_fail_the_campaign() {
        let report = evaluate("toy", |clock| Toy(f64::from(clock == ClockMode::FixedDt)));
        assert_eq!(
            failures(&report),
            ["event-driven and fixed-dt toy sweeps diverged"]
        );
        assert_eq!(report.render(), "Toy\n| Value |\n|-------|\n|   0.0 |\n");
        assert_eq!(
            report.to_json().to_string(),
            r#"{"bit_identical":false,"config":{"limit":5},"rows":[{"value":0}],"within_limit":true}"#
        );
    }

    #[test]
    fn a_failing_gate_fails_the_campaign() {
        let report = evaluate("toy", |_| Toy(7.0));
        assert_eq!(failures(&report), ["value 7 over the limit 5"]);
        assert_eq!(
            report.to_json().to_string(),
            r#"{"bit_identical":true,"config":{"limit":5},"rows":[{"value":7}],"within_limit":false}"#
        );
    }

    #[test]
    fn table2_shows_both_plugin_formats() {
        let text = render_table2();
        assert!(text.contains("plugin/pmu_pub/chnl/data/core/<id>/<metric_name>"));
        assert!(text.contains("plugin/dstat_pub/chnl/data/<metric_name>"));
        assert!(text.contains("<value>;<timestamp>"));
    }

    #[test]
    fn table3_covers_all_groups() {
        let text = render_table3();
        for group in [
            "[Load]",
            "[I/O]",
            "[Processes]",
            "[Memory]",
            "[Disk]",
            "[System]",
            "[CPU]",
            "[Network]",
            "[Temperatures]",
        ] {
            assert!(text.contains(group), "missing {group}");
        }
        assert_eq!(text.matches("\n  ").count(), STATS_METRICS.len());
    }

    #[test]
    fn table4_lists_the_three_sensors() {
        let text = render_table4();
        assert!(text.contains("/sys/class/hwmon/hwmon0/temp1_input"));
        assert!(text.contains("cpu_temp"));
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn every_ci_invocation_parses() {
        assert_eq!(parse(&[]), Ok(Args::default()));
        let out_dir = Some(PathBuf::from("ci-bench"));
        assert_eq!(
            parse(&["--out-dir", "ci-bench"]),
            Ok(Args {
                smoke: false,
                out_dir: out_dir.clone()
            })
        );
        let smoke = Ok(Args {
            smoke: true,
            out_dir,
        });
        assert_eq!(parse(&["--smoke", "--out-dir", "ci-bench"]), smoke);
        assert_eq!(parse(&["--out-dir", "ci-bench", "--smoke"]), smoke);
        assert_eq!(
            Args::default().out_path("BENCH_x.json"),
            PathBuf::from("BENCH_x.json")
        );
    }

    #[test]
    fn unknown_arguments_and_a_bare_out_dir_are_rejected() {
        assert_eq!(
            parse(&["--smok", "--out-dir", "ci-typo"]),
            Err("unknown argument \"--smok\"".to_owned())
        );
        assert_eq!(
            parse(&["--smoke", "extra"]),
            Err("unknown argument \"extra\"".to_owned())
        );
        let bare = Err("--out-dir requires a directory argument".to_owned());
        assert_eq!(parse(&["--out-dir"]), bare);
        assert_eq!(parse(&["--out-dir", "--smoke"]), bare);
    }

    #[test]
    fn env_u64_defaults_and_parses() {
        assert_eq!(env_u64("CIMONE_BENCH_UNSET_VARIABLE", 7), 7);
        std::env::set_var("CIMONE_BENCH_TEST_VARIABLE", "42");
        assert_eq!(env_u64("CIMONE_BENCH_TEST_VARIABLE", 7), 42);
    }

    #[test]
    #[should_panic(expected = "CIMONE_BENCH_BAD_VARIABLE=\"7x\" is not an unsigned integer")]
    fn env_u64_rejects_unparsable_values() {
        std::env::set_var("CIMONE_BENCH_BAD_VARIABLE", "7x");
        env_u64("CIMONE_BENCH_BAD_VARIABLE", 7);
    }
}
