//! Availability sweep: the 8-node HPL campaign under seeded node-crash
//! injection at increasing fault rates. A rate of zero is the fault-free
//! baseline and reproduces the Fig. 2 full-machine throughput. Runs
//! under both clock modes, exits non-zero if they diverge, and emits
//! `BENCH_fault.json`. `JOBS`, `REPAIR_SECS` and `SEED` env vars
//! override the defaults.

use std::process::ExitCode;

use cimone_bench::{env_u64, sweep};
use cimone_cluster::experiments::availability;
use cimone_cluster::perf::HplProblem;
use cimone_soc::units::SimDuration;

fn main() -> ExitCode {
    sweep("fault", |_smoke| {
        let jobs = env_u64("JOBS", 3) as usize;
        let repair = SimDuration::from_secs(env_u64("REPAIR_SECS", 300));
        let seed = env_u64("SEED", 2022);
        let rates = [0.0, 0.1, 0.5, 2.0];
        move |clock| availability::run(HplProblem::paper(), jobs, &rates, repair, seed, clock)
    })
}
