//! Rack-outage sweep: rack-level fault domains under one combined plan —
//! a shared GbE switch outage, a /ckpt NFS export failure with a node
//! crash inside the window, and a machine-wide multi-rail brownout —
//! through three recovery postures (naive, partition-aware, spill). Runs
//! the whole set under both clock modes and exits non-zero if a single
//! byte diverges (the DESIGN.md §13 identity contract extended to rack
//! faults) or the arbitrated machine power ever exceeds the rack budget.
//! Emits `BENCH_rack.json`. `JOBS`, `SEED` and `BUDGET_PCT` env vars
//! override the defaults; `--smoke` runs the small CI configuration.

use std::process::ExitCode;

use cimone_bench::{env_u64, sweep};
use cimone_cluster::experiments::rack_outage;
use cimone_cluster::perf::HplProblem;

fn main() -> ExitCode {
    sweep("rack", |smoke| {
        let jobs = env_u64("JOBS", if smoke { 4 } else { 8 }) as usize;
        let seed = env_u64("SEED", 2022);
        let budget_frac = env_u64("BUDGET_PCT", 60) as f64 / 100.0;
        move |clock| rack_outage::run(HplProblem::paper(), jobs, budget_frac, seed, clock)
    })
}
