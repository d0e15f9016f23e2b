//! Compensated column sums: the one summation mechanism behind every ABFT
//! checksum.
//!
//! A single Neumaier chain retires one element per add latency, because
//! every step waits for the previous running sum. [`col_sum`] instead
//! spreads a column over [`LANES`] independent branch-free TwoSum chains
//! (element `i` always feeds lane `i % LANES`), then folds the lanes in
//! ascending order. Each lane's compensation holds the *exact* rounding
//! error of every add, so the result carries the same
//! `O(ε)·|sum| + O(n·ε²)·mass` error as the serial chain while the lanes
//! run in parallel.
//!
//! The AVX-512 path keeps the lanes in `zmm` registers; the AVX2 and
//! portable paths run the identical scalar body. Per lane the operation
//! sequence is the same everywhere, and the tail and fold are shared
//! scalar code, so every dispatch target returns identical bits.

/// Independent accumulation lanes: two 512-bit registers, enough chains
/// to hide the add latency behind the TwoSum throughput.
const LANES: usize = 16;

/// A column's compensated sum and absolute mass (`Σ|v|`, the scale the
/// verification tolerance is measured against).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColSum {
    /// Compensated `Σ v`.
    pub sum: f64,
    /// Plain `Σ |v|`.
    pub mass: f64,
}

/// Knuth's branch-free TwoSum: `s + e == a + b` exactly, with `s` the
/// rounded sum (exact barring overflow).
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// A scalar compensated accumulator over the same TwoSum: the dot-product
/// chains of the checksum images. The error term is exact, so it is
/// bit-for-bit a Neumaier accumulator without the magnitude branch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Compensated {
    sum: f64,
    comp: f64,
}

impl Compensated {
    /// An accumulator starting at `v`.
    pub(crate) fn seeded(v: f64) -> Self {
        Compensated { sum: v, comp: 0.0 }
    }

    /// Adds `v`, banking the rounding error.
    pub(crate) fn add(&mut self, v: f64) {
        let (s, e) = two_sum(self.sum, v);
        self.sum = s;
        self.comp += e;
    }

    /// The compensated total.
    pub(crate) fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Lane state: running sums, compensations and masses.
type Lanes = ([f64; LANES], [f64; LANES], [f64; LANES]);

/// Feeds the final partial chunk (`tail.len() < LANES`) into lanes
/// `0..tail.len()`, then folds the lanes in ascending order. Shared by
/// every dispatch target.
#[inline(always)]
fn finish(tail: &[f64], (mut s, mut c, mut m): Lanes) -> ColSum {
    for (q, &v) in tail.iter().enumerate() {
        let (t, e) = two_sum(s[q], v);
        s[q] = t;
        c[q] += e;
        m[q] += v.abs();
    }
    let mut acc = Compensated::default();
    let (mut comp, mut mass) = (0.0, 0.0);
    for q in 0..LANES {
        acc.add(s[q]);
        comp += c[q];
        mass += m[q];
    }
    ColSum {
        sum: acc.sum + (acc.comp + comp),
        mass,
    }
}

/// The portable lane loop.
#[inline(always)]
fn col_sum_body(v: &[f64]) -> ColSum {
    let (mut s, mut c, mut m) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    let mut chunks = v.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for q in 0..LANES {
            let (t, e) = two_sum(s[q], chunk[q]);
            s[q] = t;
            c[q] += e;
            m[q] += chunk[q].abs();
        }
    }
    finish(chunks.remainder(), (s, c, m))
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{col_sum_body, finish, ColSum, LANES};

    /// [`col_sum_body`] with explicit 512-bit intrinsics: LLVM keeps the
    /// lane arrays of the portable body in scalar registers and spills
    /// them. The absolute value is a sign-bit clear, bitwise equal to
    /// `f64::abs`, and every add stays separately rounded, so each lane
    /// matches the scalar body bit for bit.
    ///
    /// # Safety
    ///
    /// Caller must have detected `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn col_sum_zmm(v: &[f64]) -> ColSum {
        use std::arch::x86_64::*;
        const { assert!(LANES == 16) };
        #[inline(always)]
        unsafe fn step(s: &mut __m512d, c: &mut __m512d, m: &mut __m512d, x: __m512d) {
            let abs = _mm512_set1_epi64(i64::MAX);
            let t = _mm512_add_pd(*s, x);
            let bb = _mm512_sub_pd(t, *s);
            let e = _mm512_add_pd(
                _mm512_sub_pd(*s, _mm512_sub_pd(t, bb)),
                _mm512_sub_pd(x, bb),
            );
            *s = t;
            *c = _mm512_add_pd(*c, e);
            let ax = _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(x), abs));
            *m = _mm512_add_pd(*m, ax);
        }
        let (mut s0, mut s1) = (_mm512_setzero_pd(), _mm512_setzero_pd());
        let (mut c0, mut c1) = (_mm512_setzero_pd(), _mm512_setzero_pd());
        let (mut m0, mut m1) = (_mm512_setzero_pd(), _mm512_setzero_pd());
        let mut chunks = v.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            // Each chunk holds exactly LANES = 16 values, so both 8-wide
            // unaligned loads stay inside it.
            let p = chunk.as_ptr();
            step(&mut s0, &mut c0, &mut m0, _mm512_loadu_pd(p));
            step(&mut s1, &mut c1, &mut m1, _mm512_loadu_pd(p.add(8)));
        }
        let mut lanes = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        for (arr, lo, hi) in [
            (&mut lanes.0, s0, s1),
            (&mut lanes.1, c0, c1),
            (&mut lanes.2, m0, m1),
        ] {
            _mm512_storeu_pd(arr.as_mut_ptr(), lo);
            _mm512_storeu_pd(arr.as_mut_ptr().add(8), hi);
        }
        finish(chunks.remainder(), lanes)
    }

    /// # Safety
    ///
    /// Caller must have detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn col_sum_avx2(v: &[f64]) -> ColSum {
        col_sum_body(v)
    }
}

/// Feature-dispatched compensated sum and absolute mass of `v`
/// (AVX-512 → AVX2 → portable, identical bits on every target).
pub(crate) fn col_sum(v: &[f64]) -> ColSum {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::col_sum_zmm(v) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::col_sum_avx2(v) };
        }
    }
    col_sum_body(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every dispatch target this CPU supports, portable body first.
    fn targets(v: &[f64]) -> Vec<(&'static str, ColSum)> {
        #[allow(unused_mut)]
        let mut out = vec![("portable", col_sum_body(v))];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the feature was just detected on this CPU.
                out.push(("avx2", unsafe { simd::col_sum_avx2(v) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the feature was just detected on this CPU.
                out.push(("avx512f", unsafe { simd::col_sum_zmm(v) }));
            }
        }
        out
    }

    /// Serial Neumaier reference over the whole slice.
    fn neumaier(v: &[f64]) -> (f64, f64) {
        let (mut sum, mut comp, mut mass) = (0.0f64, 0.0f64, 0.0f64);
        for &x in v {
            let t = sum + x;
            if sum.abs() >= x.abs() {
                comp += (sum - t) + x;
            } else {
                comp += (x - t) + sum;
            }
            sum = t;
            mass += x.abs();
        }
        (sum + comp, mass)
    }

    fn random(len: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// ±1e16 pairs interleaved with small values: a naive sum loses the
    /// small values entirely.
    fn cancelling(len: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let big = rng.gen_range(0.5..1.0) * 1e16;
            v.push(big);
            v.push(rng.gen_range(-1.0..1.0));
            v.push(-big);
        }
        v.truncate(len);
        v
    }

    #[test]
    fn every_dispatch_target_returns_identical_bits() {
        let mut rng = StdRng::seed_from_u64(41);
        for len in [0, 1, 7, 15, 16, 17, 31, 33, 100, 257, 1000] {
            for v in [random(len, &mut rng), cancelling(len, &mut rng)] {
                let all = targets(&v);
                let (_, base) = all[0];
                for (name, got) in &all[1..] {
                    assert_eq!(
                        got.sum.to_bits(),
                        base.sum.to_bits(),
                        "{name} sum, len {len}"
                    );
                    assert_eq!(
                        got.mass.to_bits(),
                        base.mass.to_bits(),
                        "{name} mass, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn sums_match_a_neumaier_reference_within_a_few_ulps_of_mass() {
        let mut rng = StdRng::seed_from_u64(43);
        for len in [1, 16, 17, 63, 500, 4099] {
            for v in [random(len, &mut rng), cancelling(len, &mut rng)] {
                let (want, want_mass) = neumaier(&v);
                let got = col_sum(&v);
                let tol = 4.0 * f64::EPSILON * want_mass;
                assert!(
                    (got.sum - want).abs() <= tol,
                    "len {len}: {} vs {want} (tol {tol})",
                    got.sum
                );
                // The mass is a plain sum of non-negative terms on both
                // sides: each is within (len − 1)·ε of the exact value.
                let mass_tol = 2.0 * len as f64 * f64::EPSILON * want_mass;
                assert!((got.mass - want_mass).abs() <= mass_tol, "len {len} mass");
            }
        }
    }

    #[test]
    fn cancelling_pairs_keep_the_small_values() {
        let v = [1e16, 1.0, -1e16, 0.5, 1e16, -1e16, 0.25];
        assert_eq!(col_sum(&v).sum, 1.75);
        let spread: Vec<f64> = (0..64)
            .map(|i| match i % 4 {
                0 => 1e16,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        assert_eq!(col_sum(&spread).sum, 32.0);
    }

    #[test]
    fn compensated_accumulator_is_bitwise_neumaier() {
        let mut rng = StdRng::seed_from_u64(47);
        let v = cancelling(301, &mut rng);
        let mut acc = Compensated::seeded(v[0]);
        for &x in &v[1..] {
            acc.add(x);
        }
        assert_eq!(acc.value().to_bits(), neumaier(&v).0.to_bits());
    }
}
