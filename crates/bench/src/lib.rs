//! Shared helpers for the reproduction harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §3 for the full index); the logic lives in
//! `cimone_cluster::experiments`, and this crate only adds argument
//! handling and the renderers for the configuration tables (II–IV) that
//! describe the monitoring stack rather than measure the machine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

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
    use super::*;

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
