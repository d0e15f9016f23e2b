//! Algorithm-based fault tolerance (ABFT) for the blocked LU and DGEMM
//! paths — Huang–Abraham column checksums against silent data corruption.
//!
//! Monte Cimone's FU740 blades carry non-ECC DDR, so a bit can flip in a
//! live panel and nothing crashes: the run completes and only the residual
//! betrays it, hours later. ABFT closes that window at panel granularity.
//! Before each trailing update the factorisation records the column sums
//! of the trailing block and of the `L21` panel; after the update the sum
//! of every trailing column must equal the checksum image of the same
//! update (`s′_j = s_j − Σ_p lsum_p·u_pj`). A mismatch localises the
//! corruption to one column of one panel, and [`AbftMode::Correct`]
//! rebuilds exactly that column from a pre-update snapshot by replaying
//! the identical per-element operation chain — so a repaired run is
//! **bit-identical** to a clean one.
//!
//! The checksums are side vectors, never rows of the matrix, and they
//! form one chain: each panel's verified post-update column sums are
//! carried into the next panel, which derives its pre-update sums from
//! them instead of re-reading the trailing block. One pass over the
//! trailing block per panel therefore both verifies this panel and seeds
//! the next, and a flip that lands between two panels is caught by the
//! second.
//!
//! All checksum arithmetic is compensated (`abft/colsum.rs`), keeping the
//! verification tolerance near `kb·ε·scale` instead of `n·ε·scale`;
//! every flip large enough to move the HPL residual sits orders of
//! magnitude above it.

mod colsum;

use colsum::{col_sum, ColSum, Compensated};

use crate::lu::{
    apply_deferred_swaps, factor_panel, solve_block_row, update_trailing, update_trailing_parallel,
    LuError, LuFactorization,
};
use crate::matrix::Matrix;
use crate::pool::WorkerPool;

/// How much protection the checksummed kernels apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AbftMode {
    /// No checksums: the unprotected baseline path.
    #[default]
    Off,
    /// Maintain and verify checksums; report mismatches but leave the
    /// corrupted data in place.
    Detect,
    /// Verify, then rebuild any mismatching column from its pre-update
    /// snapshot (bitwise equal to a clean run).
    Correct,
}

/// What the checksummed kernels observed and spent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AbftReport {
    /// Panels whose trailing update was verified.
    pub panels_verified: usize,
    /// Column checksum mismatches raised.
    pub mismatches: usize,
    /// Columns rebuilt (and re-verified clean) in [`AbftMode::Correct`].
    pub columns_recomputed: usize,
    /// Arithmetic spent maintaining and verifying checksums.
    pub checksum_flops: f64,
    /// Arithmetic wasted rebuilding corrupted columns.
    pub recompute_flops: f64,
}

impl AbftReport {
    /// Checksum + recompute work relative to `base_flops` (the protected
    /// kernel's own FLOP count): the ABFT overhead fraction.
    pub fn overhead_vs(&self, base_flops: f64) -> f64 {
        if base_flops <= 0.0 {
            return 0.0;
        }
        (self.checksum_flops + self.recompute_flops) / base_flops
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &AbftReport) {
        self.panels_verified += other.panels_verified;
        self.mismatches += other.mismatches;
        self.columns_recomputed += other.columns_recomputed;
        self.checksum_flops += other.checksum_flops;
        self.recompute_flops += other.recompute_flops;
    }
}

/// A deterministic single-bit fault against the factorisation's live
/// state: after panel `panel`'s trailing update, bit `bit % 64` of word
/// `word % n²` of the in-place factors is flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcInjection {
    /// Zero-based panel index after whose update the flip lands.
    pub panel: usize,
    /// Flat column-major word index into the matrix (taken modulo `n²`).
    pub word: usize,
    /// Bit position within the word (taken modulo 64).
    pub bit: u32,
}

/// Flips one bit of the matrix backing store in place.
fn flip_bit(a: &mut Matrix, word: usize, bit: u32) {
    let data = a.as_mut_slice();
    let idx = word % data.len();
    data[idx] = f64::from_bits(data[idx].to_bits() ^ (1u64 << (bit % 64)));
}

/// Verification tolerance for one trailing column: the update performs
/// `kb` multiply-accumulates per element, so the float drift between the
/// direct sum and the checksum image is bounded by `~kb·ε` times the
/// column's absolute mass. The `+4` and factor 8 absorb the compensated
/// sums' own residue and the dot products on the checksum side.
fn column_tolerance(kb: usize, abs_scale: f64) -> f64 {
    8.0 * f64::EPSILON * (kb as f64 + 4.0) * abs_scale + 1e-290
}

/// Checksum flops per element of a column sum: a compensated add (4, the
/// Neumaier count; the branch-free TwoSum spends two more subtractions to
/// drop the magnitude compare) plus the absolute-mass add.
const SUM_FLOPS: usize = 5;

/// Checksum flops per term `lsum_p·u_pj` of a checksum image: the
/// product, its compensated add, and the mass product and add.
const IMAGE_FLOPS: usize = 7;

/// Blocked LU with Huang–Abraham panel checksums.
///
/// Identical arithmetic to [`LuFactorization::factor`] (serial) or
/// [`LuFactorization::factor_parallel`] (when `pool` is given): the
/// checksum passes only *read* the factors, and a [`AbftMode::Correct`]
/// repair replays the exact per-element update chain, so the returned
/// factors are bit-identical to the unprotected path on a clean run —
/// at any worker count.
///
/// One pass reads the trailing block per panel. The column sums over
/// rows `k..n` are taken once from the input, then carried: each panel
/// derives its pre-update sums over rows `k+kb..n` by subtracting the
/// rows `k..k+kb` from the carried sums (valid because the panel's row
/// swaps only permute rows inside `k..n`), and its verification pass
/// measures the post-update sums that the next panel carries on.
///
/// `inject` plants a deterministic single-bit flip after the named
/// panel's update (the SDC experiments' fault model); `None` runs clean.
///
/// # Errors
///
/// Returns [`LuError::NotSquare`] for rectangular inputs and
/// [`LuError::Singular`] when an exact zero pivot appears.
///
/// # Panics
///
/// Panics if `block` is zero.
pub fn factor_protected(
    mut a: Matrix,
    block: usize,
    mode: AbftMode,
    pool: Option<&WorkerPool>,
    inject: Option<SdcInjection>,
) -> Result<(LuFactorization, AbftReport), LuError> {
    assert!(block > 0, "block size must be positive");
    let n = a.rows();
    if a.cols() != n {
        return Err(LuError::NotSquare {
            rows: n,
            cols: a.cols(),
        });
    }
    let mut pivots = vec![0usize; n];
    let mut report = AbftReport::default();
    let protect = mode != AbftMode::Off;
    let mut snapshot: Vec<f64> = Vec::new();
    let mut panel_index = 0usize;

    // The carried checksums, indexed by column: at the top of panel `k`,
    // `carried[j]` is the compensated sum and absolute mass of column `j`
    // over rows `k..n`. The mass is never differenced: the tolerance must
    // scale with every row a derived sum passed through, or rows scaled
    // far above the rest would swamp it.
    let mut carried: Vec<ColSum> = Vec::new();
    // Sums and masses of the L21 panel columns.
    let mut l21: Vec<ColSum> = Vec::new();
    if protect {
        let first = block.min(n);
        carried = vec![ColSum::default(); first];
        carried.extend((first..n).map(|j| col_sum(a.col(j))));
        report.checksum_flops += (SUM_FLOPS * n * (n - first)) as f64;
    }

    for k in (0..n).step_by(block) {
        let kb = block.min(n - k);
        factor_panel(&mut a, k, kb, &mut pivots)?;
        let t = n - (k + kb);
        if t == 0 {
            if matches!(inject, Some(i) if i.panel == panel_index) {
                let i = inject.expect("just matched");
                flip_bit(&mut a, i.word, i.bit);
            }
            panel_index += 1;
            continue;
        }

        if protect {
            // Pre-update sums over rows k+kb..n, read after the panel's
            // row swaps and before the block-row solve rewrites the top.
            for (j, c) in carried.iter_mut().enumerate().skip(k + kb) {
                c.sum -= col_sum(&a.col(j)[k..k + kb]).sum;
            }
            l21.clear();
            l21.extend((k..k + kb).map(|p| col_sum(&a.col(p)[k + kb..n])));
            if mode == AbftMode::Correct {
                snapshot.clear();
                snapshot.reserve(t * t);
                for j in 0..t {
                    snapshot.extend_from_slice(&a.col(k + kb + j)[k + kb..n]);
                }
            }
        }

        match pool {
            Some(p) => update_trailing_parallel(&mut a, k, kb, p),
            None => {
                solve_block_row(&mut a, k, kb);
                update_trailing(&mut a, k, kb);
            }
        }

        if matches!(inject, Some(i) if i.panel == panel_index) {
            let i = inject.expect("just matched");
            flip_bit(&mut a, i.word, i.bit);
        }

        if protect {
            // One t×t verification pass; the kb×t top rows and t×kb L21
            // sums; the t×kb image terms; one subtraction per derived sum.
            report.checksum_flops +=
                (SUM_FLOPS * t * t + (2 * SUM_FLOPS + IMAGE_FLOPS) * t * kb + t) as f64;
            for (jj, carry) in carried.iter_mut().enumerate().skip(k + kb) {
                let (pred, abs_scale) = {
                    let col = a.col(jj);
                    let mut pred = Compensated::seeded(carry.sum);
                    let mut dot_abs = 0.0f64;
                    for (p, l) in l21.iter().enumerate() {
                        let u = col[k + p];
                        pred.add(-(l.sum * u));
                        dot_abs += l.mass * u.abs();
                    }
                    (pred.value(), carry.mass + 2.0 * dot_abs)
                };
                let tol = column_tolerance(kb, abs_scale);
                let mut actual = col_sum(&a.col(jj)[k + kb..n]);
                let delta = (actual.sum - pred).abs();
                // A NaN delta is a mismatch: corruption can turn sums into
                // NaN, which every ordered comparison would wave through.
                if delta > tol || delta.is_nan() {
                    report.mismatches += 1;
                    if mode == AbftMode::Correct {
                        repair_column(&mut a, &snapshot, k, kb, jj, t);
                        report.recompute_flops += (2 * kb * t + 4 * t + 4 * kb) as f64;
                        actual = col_sum(&a.col(jj)[k + kb..n]);
                        if (actual.sum - pred).abs() <= tol {
                            report.columns_recomputed += 1;
                        }
                    }
                }
                // The measured sums, not the prediction, are carried on: a
                // column Detect left corrupted is flagged once, not again
                // at every later panel.
                *carry = actual;
            }
            report.panels_verified += 1;
        }
        panel_index += 1;
    }
    apply_deferred_swaps(&mut a, &pivots, block);

    Ok((LuFactorization::from_parts(a, pivots, block), report))
}

/// Rebuilds trailing column `jj` of panel `k`: restores the pre-update
/// rows from `snapshot` and replays the update's exact per-element chain
/// (`p` ascending, `c += l·(−mult)`) — bit-for-bit what both the serial
/// and the pool update produce.
fn repair_column(a: &mut Matrix, snapshot: &[f64], k: usize, kb: usize, jj: usize, t: usize) {
    let n = a.rows();
    let c0 = (jj - (k + kb)) * t;
    a.col_mut(jj)[k + kb..n].copy_from_slice(&snapshot[c0..c0 + t]);
    let data = a.as_mut_slice();
    for p in 0..kb {
        let mult = data[jj * n + k + p];
        let neg = -mult;
        let (l_off, c_off) = ((k + p) * n, jj * n);
        for i in k + kb..n {
            let lv = data[l_off + i];
            data[c_off + i] += lv * neg;
        }
    }
}

/// Checksummed `C ← alpha·A·B + beta·C` over the blocked DGEMM kernel.
///
/// Column sums of `A` and the pre-call `C` give the checksum image
/// `pred_j = beta·s0_j + alpha·Σ_p sA_p·B_pj`; after the multiply every
/// column of `C` is verified against it. [`AbftMode::Correct`] rebuilds a
/// mismatching column from the snapshot by the kernel's own per-element
/// chain (`beta`-scale, then `k` ascending `c += a·(alpha·b)`), bitwise
/// equal to an uncorrupted [`crate::dgemm::blocked`] run.
///
/// `inject` flips bit `.1` of word `.0` of `C` after the multiply;
/// `None` runs clean. Returns the observation/cost report.
///
/// # Panics
///
/// Panics on dimension mismatch or a zero block size.
#[allow(clippy::too_many_arguments)]
pub fn checked_multiply(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    block: usize,
    mode: AbftMode,
    pool: Option<&WorkerPool>,
    inject: Option<(usize, u32)>,
) -> AbftReport {
    let (m, kdim, ncols) = (a.rows(), a.cols(), b.cols());
    let mut report = AbftReport::default();
    let protect = mode != AbftMode::Off;

    let mut s0: Vec<ColSum> = Vec::new();
    let mut sa: Vec<ColSum> = Vec::new();
    let mut snapshot: Vec<f64> = Vec::new();
    if protect {
        s0 = (0..ncols).map(|j| col_sum(c.col(j))).collect();
        sa = (0..kdim).map(|p| col_sum(a.col(p))).collect();
        if mode == AbftMode::Correct {
            snapshot = c.as_slice().to_vec();
        }
        report.checksum_flops += (SUM_FLOPS * m * (ncols + kdim)) as f64;
    }

    match pool {
        Some(p) => crate::dgemm::blocked_parallel(alpha, a, b, beta, c, block, p),
        None => crate::dgemm::blocked(alpha, a, b, beta, c, block),
    }

    if let Some((word, bit)) = inject {
        flip_bit(c, word, bit);
    }

    if protect {
        report.checksum_flops += (ncols * (SUM_FLOPS * m + (IMAGE_FLOPS + 1) * kdim + 2)) as f64;
        for (j, s0j) in s0.iter().enumerate() {
            let bcol = b.col(j);
            let mut pred = Compensated::seeded(beta * s0j.sum);
            let mut dot_abs = 0.0f64;
            for (s, &bv) in sa.iter().zip(bcol) {
                pred.add(alpha * (s.sum * bv));
                dot_abs += s.mass * bv.abs();
            }
            let pred = pred.value();
            let abs_scale = beta.abs() * s0j.mass + alpha.abs() * dot_abs;
            let tol = column_tolerance(kdim, abs_scale);
            let delta = (col_sum(c.col(j)).sum - pred).abs();
            // NaN counts as a mismatch, same as the factorization check.
            if delta > tol || delta.is_nan() {
                report.mismatches += 1;
                if mode == AbftMode::Correct {
                    repair_gemm_column(alpha, a, b, beta, c, &snapshot, j);
                    report.recompute_flops += (2 * kdim * m + 4 * m) as f64;
                    if (col_sum(c.col(j)).sum - pred).abs() <= tol {
                        report.columns_recomputed += 1;
                    }
                }
            }
        }
    }
    report
}

/// Rebuilds `C`'s column `j` by the blocked kernel's per-element chain:
/// `beta`-scale the snapshot, then accumulate `a·(alpha·b)` with `k`
/// ascending — one rounding per multiply, one per add, exactly as the
/// packed kernel retires them.
fn repair_gemm_column(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    snapshot: &[f64],
    j: usize,
) {
    let (m, kdim) = (a.rows(), a.cols());
    let col = c.col_mut(j);
    col.copy_from_slice(&snapshot[j * m..(j + 1) * m]);
    if beta != 1.0 {
        for v in col.iter_mut() {
            *v *= beta;
        }
    }
    let a_data = a.as_slice();
    let bcol = b.col(j);
    for p in 0..kdim {
        let f = alpha * bcol[p];
        let acol = &a_data[p * m..(p + 1) * m];
        for (cv, &av) in col.iter_mut().zip(acol) {
            *cv += av * f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgemm;
    use crate::lu::{hpl_flops, hpl_residual, HPL_RESIDUAL_THRESHOLD};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn system(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, 1, &mut rng);
        (a, b.as_slice().to_vec())
    }

    #[test]
    fn clean_protected_factor_is_bitwise_the_baseline() {
        let (a, _) = system(96, 7);
        let base = LuFactorization::factor(a.clone(), 24).unwrap();
        for mode in [AbftMode::Off, AbftMode::Detect, AbftMode::Correct] {
            let (lu, report) = factor_protected(a.clone(), 24, mode, None, None).unwrap();
            assert_eq!(lu.packed().as_slice(), base.packed().as_slice(), "{mode:?}");
            assert_eq!(lu.pivots(), base.pivots());
            assert_eq!(report.mismatches, 0);
        }
        let pool = WorkerPool::new(3);
        let (lu, _) = factor_protected(a, 24, AbftMode::Detect, Some(&pool), None).unwrap();
        assert_eq!(lu.packed().as_slice(), base.packed().as_slice());
    }

    #[test]
    fn trailing_flip_is_detected_and_corrected_bitwise() {
        let (a, b) = system(96, 11);
        let clean = LuFactorization::factor(a.clone(), 24).unwrap();
        // Panel 0, a word deep inside the trailing block, exponent bit.
        let inject = SdcInjection {
            panel: 0,
            word: 60 * 96 + 70,
            bit: 62,
        };
        let (_, detect) =
            factor_protected(a.clone(), 24, AbftMode::Detect, None, Some(inject)).unwrap();
        assert!(detect.mismatches >= 1, "flip must trip the panel checksum");
        assert_eq!(detect.columns_recomputed, 0);

        let (lu, correct) =
            factor_protected(a.clone(), 24, AbftMode::Correct, None, Some(inject)).unwrap();
        assert_eq!(correct.columns_recomputed, correct.mismatches);
        assert_eq!(
            lu.packed().as_slice(),
            clean.packed().as_slice(),
            "repair must reproduce the clean factors bit-for-bit"
        );
        let x = lu.solve(&b);
        assert!(hpl_residual(&a, &x, &b) < HPL_RESIDUAL_THRESHOLD);
    }

    #[test]
    fn off_mode_rides_the_flip_to_a_failed_residual() {
        let (a, b) = system(96, 11);
        let inject = SdcInjection {
            panel: 0,
            word: 60 * 96 + 70,
            bit: 62,
        };
        let (lu, report) =
            factor_protected(a.clone(), 24, AbftMode::Off, None, Some(inject)).unwrap();
        assert_eq!(report.panels_verified, 0);
        let x = lu.solve(&b);
        assert!(
            hpl_residual(&a, &x, &b) >= HPL_RESIDUAL_THRESHOLD,
            "an exponent flip in the live panel must poison the residual"
        );
    }

    #[test]
    fn factored_region_flip_escapes_panel_checks_but_not_the_residual() {
        let (a, b) = system(96, 13);
        // Flip after the *last* panel: lands in finished factors, where no
        // further panel verification runs.
        let inject = SdcInjection {
            panel: 3,
            word: 10 * 96 + 50,
            bit: 51,
        };
        let (lu, report) =
            factor_protected(a.clone(), 24, AbftMode::Detect, None, Some(inject)).unwrap();
        assert_eq!(report.mismatches, 0, "no trailing block left to check");
        let x = lu.solve(&b);
        let residual = hpl_residual(&a, &x, &b);
        assert!(
            residual >= HPL_RESIDUAL_THRESHOLD || residual.is_nan(),
            "a top-mantissa flip in L must fail the residual, got {residual}"
        );
    }

    #[test]
    fn protected_parallel_detects_and_repairs_like_serial() {
        let (a, _) = system(128, 17);
        let clean = LuFactorization::factor(a.clone(), 32).unwrap();
        let pool = WorkerPool::new(4);
        let inject = SdcInjection {
            panel: 1,
            word: 90 * 128 + 100,
            bit: 61,
        };
        let (lu, report) =
            factor_protected(a, 32, AbftMode::Correct, Some(&pool), Some(inject)).unwrap();
        assert!(report.mismatches >= 1);
        assert_eq!(report.columns_recomputed, report.mismatches);
        assert_eq!(lu.packed().as_slice(), clean.packed().as_slice());
    }

    #[test]
    fn checksum_overhead_stays_modest() {
        let (a, _) = system(256, 19);
        let (_, report) = factor_protected(a, 64, AbftMode::Detect, None, None).unwrap();
        let overhead = report.overhead_vs(hpl_flops(256));
        assert!(overhead > 0.0 && overhead < 0.15, "overhead {overhead}");
    }

    #[test]
    fn checked_dgemm_detects_and_repairs_a_flip() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::random(64, 48, &mut rng);
        let b = Matrix::random(48, 56, &mut rng);
        let c0 = Matrix::random(64, 56, &mut rng);

        let mut reference = c0.clone();
        dgemm::blocked(1.5, &a, &b, 0.5, &mut reference, 16);

        let mut clean = c0.clone();
        let report = checked_multiply(
            1.5,
            &a,
            &b,
            0.5,
            &mut clean,
            16,
            AbftMode::Detect,
            None,
            None,
        );
        assert_eq!(report.mismatches, 0);
        assert_eq!(clean.as_slice(), reference.as_slice());

        let mut poisoned = c0.clone();
        let report = checked_multiply(
            1.5,
            &a,
            &b,
            0.5,
            &mut poisoned,
            16,
            AbftMode::Correct,
            None,
            Some((17 * 64 + 30, 62)),
        );
        assert_eq!(report.mismatches, 1);
        assert_eq!(report.columns_recomputed, 1);
        assert_eq!(
            poisoned.as_slice(),
            reference.as_slice(),
            "repair must reproduce the blocked kernel bit-for-bit"
        );
        assert!(report.recompute_flops > 0.0);
    }

    #[test]
    fn report_merges_and_rates() {
        let mut a = AbftReport {
            panels_verified: 1,
            mismatches: 1,
            columns_recomputed: 1,
            checksum_flops: 50.0,
            recompute_flops: 10.0,
        };
        let b = AbftReport {
            panels_verified: 2,
            checksum_flops: 40.0,
            ..AbftReport::default()
        };
        a.merge(&b);
        assert_eq!(a.panels_verified, 3);
        assert!((a.overhead_vs(1000.0) - 0.1).abs() < 1e-12);
        assert_eq!(AbftReport::default().overhead_vs(0.0), 0.0);
    }
}
