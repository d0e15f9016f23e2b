//! Degradation sweep: blade fault domains under a single-rail brownout —
//! power-cap graceful degradation versus the crash-only machine — plus
//! the intra-/cross-blade HPL placement point and the coupled-airflow
//! fan-loss scenario. Runs the whole set under both clock modes and
//! exits non-zero if a single byte diverges (the DESIGN.md §13 identity
//! contract extended to degraded operation) or the capped blade exceeds
//! its budget. Emits `BENCH_degradation.json`. `JOBS`, `SEED` and
//! `BUDGET_PCT` env vars override the defaults; `--smoke` runs the
//! small CI configuration.

use std::process::ExitCode;

use cimone_bench::{env_u64, sweep};
use cimone_cluster::experiments::degradation;
use cimone_cluster::perf::HplProblem;

fn main() -> ExitCode {
    sweep("degradation", |smoke| {
        let jobs = env_u64("JOBS", if smoke { 2 } else { 4 }) as usize;
        let seed = env_u64("SEED", 2022);
        let budget_frac = env_u64("BUDGET_PCT", 75) as f64 / 100.0;
        move |clock| degradation::run(HplProblem::paper(), jobs, budget_frac, seed, clock)
    })
}
