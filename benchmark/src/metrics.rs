//! Turns what a run measured into the named metrics the benchmark
//! prints: the end-to-end set without tracing, the per-layer set with it.
//! Every workload prints every name; a layer a workload never reaches
//! reads 0.

use crate::runner::{ratio, RunData};
use crate::stats::{median, quantile};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

/// What a user of the simulator sees, measured with tracing off.
pub fn end_to_end(d: &RunData) -> Vec<Metric> {
    let op_total: f64 = d.op_secs.iter().sum();
    vec![
        metric("ops_per_s", "1/s", ratio(d.op_secs.len() as f64, op_total)),
        metric("op_ms.p50", "ms", 1e3 * quantile(&d.op_secs, 0.50)),
        metric("op_ms.p75", "ms", 1e3 * quantile(&d.op_secs, 0.75)),
        metric("setup_s", "s", median(&d.setup_secs)),
        metric(
            "heap_mib.p50",
            "MiB",
            median(&d.heap_bytes) / f64::from(1 << 20),
        ),
    ]
}

/// The layers, measured from the traced ops: counts are per op over the
/// first ops of the run, rates and shares over all of them.
pub fn per_layer(d: &RunData) -> Vec<Metric> {
    let (first, all, t) = (&d.first, &d.all, &d.tracer);
    let per_op = |key: &str| ratio(first.get(key), d.counted as f64);
    let op_layers = t.self_time_by_layer("op");
    let op_total = t.total("op");
    let share = |layer: &str| ratio(op_layers.get(layer).copied().unwrap_or(0.0), op_total);
    let setup_total = t.total("setup");
    let setup_share = |name: &str| ratio(t.total(name), setup_total);
    let twin_ratios: Vec<f64> = d
        .traced_secs
        .iter()
        .zip(&d.op_secs)
        .map(|(traced, plain)| ratio(*traced, *plain))
        .collect();
    let stepped = first.get("engine.ticks_stepped");
    let skipped = first.get("engine.ticks_skipped");
    let allocated = first.get("healing.allocated_node_s");
    let giga = |num: &str, den: &str| all.ratio(num, den) / 1e9;
    let tier = |tier: &str| {
        giga(
            &format!("kernels.plain_lu_flops.{tier}"),
            &format!("kernels.plain_secs.{tier}"),
        )
    };
    let abft_time = all.ratio("kernels.protected_secs", "kernels.plain_secs");
    vec![
        metric("setup.warmup_s", "s", d.warmup_secs),
        metric(
            "setup.generate_share",
            "ratio",
            ratio(
                t.self_time_by_layer("setup")
                    .get("generate")
                    .copied()
                    .unwrap_or(0.0),
                setup_total,
            ),
        ),
        metric("trace.overhead_frac", "ratio", median(&twin_ratios) - 1.0),
        metric("trace.coverage", "ratio", t.coverage("op")),
        metric(
            "cluster.engine.self_share",
            "ratio",
            share("cluster.engine"),
        ),
        metric(
            "cluster.engine.sim_speed",
            "sim-s/s",
            all.ratio("engine.sim_secs", "engine.secs"),
        ),
        metric(
            "cluster.engine.ticks_stepped",
            "count",
            stepped / d.counted.max(1) as f64,
        ),
        metric(
            "cluster.engine.ticks_skipped",
            "count",
            skipped / d.counted.max(1) as f64,
        ),
        metric(
            "cluster.engine.stepped_frac",
            "ratio",
            ratio(stepped, stepped + skipped),
        ),
        metric(
            "cluster.engine.stepped_ticks_per_s",
            "1/s",
            all.ratio("engine.pure_stepped_ticks", "engine.pure_stepped_secs"),
        ),
        metric(
            "cluster.engine.skipped_ticks_per_s",
            "1/s",
            all.ratio("engine.pure_skipped_ticks", "engine.pure_skipped_secs"),
        ),
        metric("cluster.engine.events", "count", per_op("engine.events")),
        metric("cluster.engine.chunks", "count", per_op("engine.chunks")),
        metric(
            "cluster.engine.new_setup_share",
            "ratio",
            setup_share("cluster.engine/new"),
        ),
        metric(
            "cluster.engine.submit_setup_share",
            "ratio",
            setup_share("cluster.engine/submit"),
        ),
        metric("monitor.self_share", "ratio", share("monitor")),
        metric("monitor.points", "count", per_op("monitor.points")),
        metric("monitor.series", "count", per_op("monitor.series")),
        metric(
            "monitor.points_per_engine_s",
            "1/s",
            all.ratio("monitor.points", "engine.secs"),
        ),
        metric("monitor.queries", "count", per_op("monitor.queries")),
        metric(
            "monitor.queries_per_s",
            "1/s",
            all.ratio("monitor.queries", "monitor.query_secs"),
        ),
        metric(
            "monitor.response_bytes",
            "bytes",
            first.ratio("monitor.response_bytes", "monitor.queries"),
        ),
        metric(
            "monitor.scrub_quarantined",
            "count",
            per_op("monitor.scrub_quarantined"),
        ),
        metric(
            "cluster.checkpoint.written",
            "count",
            per_op("checkpoint.written"),
        ),
        metric(
            "cluster.checkpoint.quarantined",
            "count",
            per_op("checkpoint.quarantined"),
        ),
        metric(
            "cluster.checkpoint.restores",
            "count",
            per_op("checkpoint.restores"),
        ),
        metric("cluster.healing.fences", "count", per_op("healing.fences")),
        metric(
            "cluster.healing.suspicions",
            "count",
            per_op("healing.suspicions"),
        ),
        metric(
            "cluster.healing.wasted_node_s",
            "node-s",
            per_op("healing.wasted_node_s"),
        ),
        metric(
            "cluster.healing.useful_frac",
            "ratio",
            ratio(allocated - first.get("healing.wasted_node_s"), allocated),
        ),
        metric(
            "cluster.faults.injected",
            "count",
            per_op("faults.injected"),
        ),
        metric(
            "cluster.faults.plans_drawn",
            "count",
            per_op("faults.plans_drawn"),
        ),
        metric(
            "cluster.faults.plans_rejected",
            "count",
            per_op("faults.plans_rejected"),
        ),
        metric(
            "cluster.faults.validate_setup_share",
            "ratio",
            setup_share("cluster.faults/validate"),
        ),
        metric(
            "sched.jobs_completed",
            "count",
            per_op("sched.jobs_completed"),
        ),
        metric("kernels.self_share", "ratio", share("kernels")),
        metric(
            "kernels.hpl_gflops",
            "GFLOP/s",
            giga("kernels.hpl_flops", "kernels.hpl_secs"),
        ),
        metric(
            "kernels.lu_gflops",
            "GFLOP/s",
            giga("kernels.plain_lu_flops", "kernels.plain_secs"),
        ),
        metric("kernels.lu_gflops.l2", "GFLOP/s", tier("l2")),
        metric("kernels.lu_gflops.l3", "GFLOP/s", tier("l3")),
        metric("kernels.lu_gflops.dram", "GFLOP/s", tier("dram")),
        metric(
            "kernels.solve_gflops",
            "GFLOP/s",
            giga("kernels.solve_flops", "kernels.solve_secs"),
        ),
        metric(
            "kernels.abft_time_overhead",
            "ratio",
            if abft_time > 0.0 {
                abft_time - 1.0
            } else {
                0.0
            },
        ),
        metric(
            "kernels.abft_flop_overhead",
            "ratio",
            first.ratio("kernels.checksum_flops", "kernels.protected_lu_flops"),
        ),
        metric("kernels.gflop", "GFLOP", per_op("kernels.hpl_flops") / 1e9),
        metric(
            "kernels.bytes_computed",
            "MB",
            per_op("kernels.bytes_computed") / 1e6,
        ),
    ]
}
