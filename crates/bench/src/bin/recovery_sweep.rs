//! Recovery sweep: HPL campaigns under the full recovery subsystem —
//! heartbeat failure detection, node fencing and NFS checkpoint/restart —
//! crossing crash rate with checkpoint interval. The zero-fault,
//! checkpointing-off corner reproduces the Fig. 2 full-machine
//! throughput. Runs under both clock modes, exits non-zero if they
//! diverge, and emits `BENCH_recovery.json`. `JOBS`, `JOB_NODES`,
//! `REPAIR_SECS` and `SEED` env vars override the defaults; `--smoke`
//! runs the single-point CI configuration.

use std::process::ExitCode;

use cimone_bench::{env_u64, sweep};
use cimone_cluster::experiments::recovery;
use cimone_cluster::perf::HplProblem;
use cimone_soc::units::SimDuration;

fn main() -> ExitCode {
    sweep("recovery", |smoke| {
        let jobs = env_u64("JOBS", if smoke { 2 } else { 3 }) as usize;
        let job_nodes = env_u64("JOB_NODES", 4) as usize;
        let repair = SimDuration::from_secs(env_u64("REPAIR_SECS", 300));
        let seed = env_u64("SEED", 2022);
        let (rates, intervals): (&[f64], &[Option<u64>]) = if smoke {
            (&[0.0, 4.0], &[None, Some(120)])
        } else {
            // A full-memory HPL checkpoint drains ~13 GB over GbE (~114 s),
            // so intervals below a few hundred seconds are all overhead.
            (
                &[0.0, 0.1, 0.5, 2.0],
                &[None, Some(1800), Some(600), Some(300)],
            )
        };
        move |clock| {
            recovery::run(
                HplProblem::paper(),
                jobs,
                job_nodes,
                rates,
                intervals,
                repair,
                seed,
                clock,
            )
        }
    })
}
