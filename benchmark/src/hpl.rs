//! `hpl_native`: native HPL solves on the host, timed the way HPL times
//! them (factor, then solve; the residual check is outside the timed
//! region). The engine is bypassed: this is the only workload that runs
//! the real kernels.

use cimone_kernels::abft::{factor_protected, AbftMode, AbftReport};
use cimone_kernels::lu::{hpl_flops, hpl_residual, LuFactorization, HPL_RESIDUAL_THRESHOLD};
use cimone_kernels::matrix::Matrix;
use cimone_kernels::pool::WorkerPool;
use rand::Rng;

use crate::runner::{op_rng, Tally, Workload};
use crate::trace::Tracer;

/// Block size of every factorisation.
const NB: usize = 64;
/// Kernel pool size. One worker runs the pool's tiles inline on the
/// calling thread. A 2-worker pool puts two workers beside the helping
/// caller on the 2-core host, and it spread the N=1536 op times about
/// three times wider between runs, past the benchmark's bounds.
const WORKERS: usize = 1;
const DECK_STREAM: u64 = 0xdec;
const MATRIX_STREAM: u64 = 0x3a7;

/// `pairs` matrices of order `n` per round; `tier` names the cache level
/// the matrix was sized against.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Matrix order.
    pub n: usize,
    /// Matrices of this order per round.
    pub pairs: usize,
    /// `l2`, `l3` or `dram`.
    pub tier: &'static str,
}

/// One round of 16 ops, in a seed-shuffled order: every matrix is
/// factored once plain and once under ABFT Detect. N=512 (2 MiB) fits
/// the host's L2 (2 MiB per core, two cores), N=1536 (18 MiB) fits its
/// 105 MiB L3 and N=4096 (128 MiB) exceeds it. The mix puts the median
/// op in the middle of the plain N=1536 group and the p75 op in the
/// middle of the protected one.
pub const ROUND: [Size; 3] = [
    Size {
        n: 512,
        pairs: 3,
        tier: "l2",
    },
    Size {
        n: 1536,
        pairs: 4,
        tier: "l3",
    },
    Size {
        n: 4096,
        pairs: 1,
        tier: "dram",
    },
];

/// A system `A·x = b`. The plain and the protected op of a pair draw the
/// same one from the seed.
pub struct Problem {
    pair: usize,
    size: Size,
    a: Matrix,
    b: Vec<f64>,
}

/// An op ready to run: a fresh copy of `A` to factor in place.
pub struct Input {
    problem: Problem,
    protected: bool,
    work: Matrix,
}

/// A solved system.
pub struct Output {
    problem: Problem,
    protected: bool,
    lu: LuFactorization,
    report: AbftReport,
    x: Vec<f64>,
    factor_secs: f64,
    solve_secs: f64,
}

/// The `hpl_native` workload at one seed.
pub struct HplNative {
    seed: u64,
    round: Vec<Size>,
    pool: WorkerPool,
    /// Digest of the latest plain factors, by pair.
    plain: Option<(usize, u64)>,
}

impl HplNative {
    /// The workload over `round` (see [`ROUND`]) with inputs drawn from
    /// `seed`.
    pub fn new(seed: u64, round: &[Size]) -> Self {
        HplNative {
            seed,
            round: round.to_vec(),
            pool: WorkerPool::new(WORKERS),
            plain: None,
        }
    }

    /// Op `op`'s pair index, matrix size and whether it runs protected.
    fn locate(&self, op: usize) -> (usize, Size, bool) {
        let mut deck: Vec<Size> = self
            .round
            .iter()
            .flat_map(|s| std::iter::repeat_n(*s, s.pairs))
            .collect();
        let (round, within) = (op / (2 * deck.len()), op % (2 * deck.len()));
        let mut rng = op_rng(self.seed, DECK_STREAM, round);
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.gen_range(0..=i));
        }
        (
            round * deck.len() + within / 2,
            deck[within / 2],
            within % 2 == 1,
        )
    }
}

/// FNV-1a over the factors' bits and pivots: equal digests mean
/// bit-identical factors.
fn digest(lu: &LuFactorization) -> u64 {
    let words = lu.packed().as_slice().iter().map(|v| v.to_bits());
    let pivots = lu.pivots().iter().map(|&p| p as u64);
    words.chain(pivots).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bytes a blocked LU and its solve move by count, not by measurement:
/// the trailing update reads and writes every trailing element once per
/// panel, and the solve reads the factors once.
fn bytes_computed(n: usize) -> f64 {
    let trailing: f64 = (0..n)
        .step_by(NB)
        .map(|k| n.saturating_sub(k + NB) as f64)
        .map(|t| 16.0 * t * t)
        .sum();
    trailing + 8.0 * (n * n) as f64
}

/// The factorisation's share of the HPL flop count.
fn lu_flops(n: usize) -> f64 {
    2.0 / 3.0 * (n as f64).powi(3)
}

impl Workload for HplNative {
    type Input = Input;
    type Output = Output;

    fn round(&self) -> usize {
        2 * self.round.iter().map(|s| s.pairs).sum::<usize>()
    }

    /// The first plain op at the largest size: it grows the kernels' pack
    /// arena to its full size.
    fn warm_up_op(&self) -> usize {
        let largest = self.round.iter().map(|s| s.n).max().unwrap_or(0);
        (0..self.round())
            .find(|&op| matches!(self.locate(op), (_, s, false) if s.n == largest))
            .unwrap_or(0)
    }

    fn prepare(&mut self, op: usize, t: &mut Tracer) -> Result<Input, String> {
        let (pair, size, protected) = self.locate(op);
        let (problem, _) = t.time("generate/matrix", || {
            let mut rng = op_rng(self.seed, MATRIX_STREAM, pair);
            let a = Matrix::random(size.n, size.n, &mut rng);
            let b = (0..size.n).map(|_| rng.gen_range(-0.5..0.5)).collect();
            Problem { pair, size, a, b }
        });
        let (work, _) = t.time("generate/copy", || problem.a.clone());
        Ok(Input {
            problem,
            protected,
            work,
        })
    }

    fn execute(&mut self, input: Input, t: &mut Tracer) -> Result<Output, String> {
        let Input {
            problem,
            protected,
            work,
        } = input;
        let pool = &self.pool;
        let (factored, factor_secs) = if protected {
            t.time("kernels/factor_protected", || {
                factor_protected(work, NB, AbftMode::Detect, Some(pool), None)
            })
        } else {
            t.time("kernels/factor_parallel", || {
                LuFactorization::factor_parallel(work, NB, pool)
                    .map(|lu| (lu, AbftReport::default()))
            })
        };
        let (lu, report) = factored.map_err(|e| format!("N={}: {e}", problem.size.n))?;
        let (x, solve_secs) = t.time("kernels/solve", || lu.solve(&problem.b));
        Ok(Output {
            problem,
            protected,
            lu,
            report,
            x,
            factor_secs,
            solve_secs,
        })
    }

    fn verify(&mut self, _op: usize, out: &Output, t: &mut Tracer) -> Result<(), String> {
        let p = &out.problem;
        let mode = if out.protected { "Detect" } else { "plain" };
        let (residual, _) = t.time("kernels/hpl_residual", || hpl_residual(&p.a, &out.x, &p.b));
        if residual.is_nan() || residual >= HPL_RESIDUAL_THRESHOLD {
            return Err(format!(
                "N={} {mode}: HPL residual {residual} is not below {HPL_RESIDUAL_THRESHOLD}",
                p.size.n
            ));
        }
        let digest = digest(&out.lu);
        if !out.protected {
            self.plain = Some((p.pair, digest));
            return Ok(());
        }
        if out.report.mismatches > 0 {
            return Err(format!(
                "N={}: Detect raised {} checksum mismatches on a clean run",
                p.size.n, out.report.mismatches
            ));
        }
        match self.plain {
            Some((pair, plain)) if pair == p.pair && plain == digest => Ok(()),
            Some((pair, _)) if pair == p.pair => Err(format!(
                "N={}: Detect factors are not bit-identical to the plain factors",
                p.size.n
            )),
            _ => Err(format!(
                "N={}: no plain factors of matrix {} to compare against",
                p.size.n, p.pair
            )),
        }
    }

    fn same(&self, a: &Output, b: &Output) -> bool {
        digest(&a.lu) == digest(&b.lu)
            && a.x
                .iter()
                .map(|v| v.to_bits())
                .eq(b.x.iter().map(|v| v.to_bits()))
    }

    fn tally(&self, out: &Output, tally: &mut Tally) {
        let n = out.problem.size.n;
        let tier = out.problem.size.tier;
        tally.add("kernels.hpl_flops", hpl_flops(n));
        tally.add("kernels.hpl_secs", out.factor_secs + out.solve_secs);
        tally.add("kernels.bytes_computed", bytes_computed(n));
        tally.add("kernels.solve_flops", 2.0 * (n * n) as f64);
        tally.add("kernels.solve_secs", out.solve_secs);
        if out.protected {
            tally.add("kernels.protected_secs", out.factor_secs);
            tally.add("kernels.protected_lu_flops", lu_flops(n));
            tally.add("kernels.checksum_flops", out.report.checksum_flops);
        } else {
            tally.add("kernels.plain_secs", out.factor_secs);
            tally.add("kernels.plain_lu_flops", lu_flops(n));
            tally.add(&format!("kernels.plain_secs.{tier}"), out.factor_secs);
            tally.add(&format!("kernels.plain_lu_flops.{tier}"), lu_flops(n));
        }
    }
}

/// The host's cache hierarchy as sysfs reports it for CPU 0, e.g.
/// `L1d 48K, L1i 32K, L2 2048K, L3 107520K`.
pub fn cache_summary() -> String {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |index: usize, field: &str| {
        std::fs::read_to_string(dir.join(format!("index{index}/{field}")))
            .ok()
            .map(|s| s.trim().to_owned())
    };
    let levels: Vec<String> = (0..8)
        .map_while(|i| {
            let level = read(i, "level")?;
            let kind = match read(i, "type")?.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            Some(format!("L{level}{kind} {}", read(i, "size")?))
        })
        .collect();
    if levels.is_empty() {
        "unknown (no sysfs cache entries)".to_owned()
    } else {
        levels.join(", ")
    }
}
