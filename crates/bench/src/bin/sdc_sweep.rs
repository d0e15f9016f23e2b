//! Silent-data-corruption sweep: single-bit injections into the native
//! HPL kernels across the ABFT modes, plus the cluster-scale SDC plan
//! (kernel flips, checkpoint rot, telemetry corruption) under each mode
//! and both clock modes. Exits non-zero if the clock modes diverge, if
//! `Detect` misses a corrupted kernel run (coverage < 99%), if a
//! protected mode ships an undetected wrong answer, or if the clean-run
//! checksum overhead exceeds 15% of the HPL operation count. Emits
//! `BENCH_sdc.json`. `N`, `NB`, `TRIALS` and `SEED` env vars override
//! the defaults; `--smoke` runs the small CI configuration.

use std::process::ExitCode;

use cimone_bench::{env_u64, sweep};
use cimone_cluster::experiments::sdc;

fn main() -> ExitCode {
    sweep("sdc", |smoke| {
        let n = env_u64("N", 192) as usize;
        let nb = env_u64("NB", 48) as usize;
        let trials = env_u64("TRIALS", if smoke { 16 } else { 48 }) as usize;
        let seed = env_u64("SEED", 2022);
        move |clock| sdc::run(n, nb, trials, seed, clock)
    })
}
