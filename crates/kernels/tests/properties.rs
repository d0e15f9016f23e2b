//! Property-based tests for the numerical kernels: the invariants hold for
//! *every* well-formed input, not just the unit-test fixtures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cimone_kernels::abft::{factor_protected, AbftMode};
use cimone_kernels::checkpoint::{Checkpoint, SteppableLu};
use cimone_kernels::dgemm;
use cimone_kernels::eig::EigenDecomposition;
use cimone_kernels::lu::{hpl_residual, LuFactorization, HPL_RESIDUAL_THRESHOLD};
use cimone_kernels::matrix::Matrix;
use cimone_kernels::pool::WorkerPool;
use cimone_kernels::stream::{StreamConfig, StreamRun};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_always_passes_the_hpl_residual_check(
        n in 1usize..48,
        nb in 1usize..64,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).cos()).collect();
        let lu = LuFactorization::factor(a.clone(), nb).expect("random matrices are nonsingular");
        let x = lu.solve(&b);
        let r = hpl_residual(&a, &x, &b);
        prop_assert!(r < HPL_RESIDUAL_THRESHOLD, "n={n} nb={nb} seed={seed}: residual {r}");
    }

    #[test]
    fn lu_block_size_does_not_change_the_factors(
        n in 2usize..32,
        nb_a in 1usize..40,
        nb_b in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let lu_a = LuFactorization::factor(a.clone(), nb_a).expect("nonsingular");
        let lu_b = LuFactorization::factor(a, nb_b).expect("nonsingular");
        prop_assert_eq!(lu_a.pivots(), lu_b.pivots());
        prop_assert!(lu_a.packed().max_abs_diff(lu_b.packed()) < 1e-10);
    }

    #[test]
    fn lu_checkpoint_restore_round_trip_is_lossless(
        n in 2usize..40,
        nb in 1usize..16,
        interrupt_after in 0usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        // Run one factorisation straight through...
        let direct = LuFactorization::factor(a.clone(), nb).expect("nonsingular");
        // ...and another interrupted mid-flight, checkpointed, restored.
        let mut stepped = SteppableLu::new(a, nb).expect("square");
        for _ in 0..interrupt_after {
            if !stepped.step().expect("nonsingular") {
                break;
            }
        }
        let resumed = SteppableLu::restore(stepped.checkpoint());
        prop_assert_eq!(resumed.panels_done(), stepped.panels_done());
        let from_snapshot = resumed.run_to_completion().expect("nonsingular");
        // Bit-identical, not just close: checkpointing loses nothing.
        prop_assert_eq!(from_snapshot.packed().as_slice(), direct.packed().as_slice());
        prop_assert_eq!(from_snapshot.pivots(), direct.pivots());
    }

    #[test]
    fn stream_checkpoint_restore_round_trip_is_lossless(
        elements in 1usize..500,
        threads in 1usize..4,
        before in 0usize..3,
        after in 0usize..3,
    ) {
        let config = StreamConfig::new(elements, threads);
        let mut direct = StreamRun::new(config);
        let mut interrupted = StreamRun::new(config);
        for _ in 0..before {
            direct.run_iteration();
            interrupted.run_iteration();
        }
        let mut resumed = StreamRun::restore(interrupted.checkpoint());
        for _ in 0..after {
            direct.run_iteration();
            resumed.run_iteration();
        }
        prop_assert!(resumed.validate(before + after).is_ok());
        // Bit-identical to the uninterrupted run.
        let d = direct.checkpoint();
        let r = resumed.checkpoint();
        prop_assert_eq!(d.a_bits, r.a_bits);
        prop_assert_eq!(d.b_bits, r.b_bits);
        prop_assert_eq!(d.c_bits, r.c_bits);
        prop_assert_eq!(d.iterations, r.iterations);
    }

    #[test]
    fn blocked_dgemm_matches_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        block in 1usize..32,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let mut c1 = Matrix::random(m, n, &mut rng);
        let mut c2 = c1.clone();
        dgemm::naive(0.75, &a, &b, -0.25, &mut c1);
        dgemm::blocked(0.75, &a, &b, -0.25, &mut c2, block);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn eigendecomposition_invariants(
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_symmetric(n, &mut rng);
        let eig = EigenDecomposition::compute(&a).expect("symmetric input");
        prop_assert!(eig.values().windows(2).all(|w| w[0] <= w[1]), "sorted");
        prop_assert!(eig.residual(&a) < 1e-9, "residual {}", eig.residual(&a));
        prop_assert!(eig.orthogonality_error() < 1e-9);
        // Trace preservation.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.values().iter().sum();
        prop_assert!((trace - sum).abs() < 1e-9 * (1.0 + trace.abs()));
    }

    #[test]
    fn stream_validates_after_any_iteration_count(
        elements in 1usize..2000,
        threads in 1usize..6,
        iterations in 0usize..5,
    ) {
        let mut run = StreamRun::new(StreamConfig::new(elements, threads));
        for _ in 0..iterations {
            run.run_iteration();
        }
        prop_assert!(run.validate(iterations).is_ok());
    }

    #[test]
    fn threaded_lu_is_bit_identical_to_serial(
        n in 2usize..48,
        nb in 1usize..24,
        threads in 1usize..=8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let pool = WorkerPool::new(threads);
        let serial = LuFactorization::factor(a.clone(), nb).expect("nonsingular");
        let threaded = LuFactorization::factor_parallel(a, nb, &pool).expect("nonsingular");
        // Bitwise, not approximately: the pool must not change a single ulp.
        prop_assert_eq!(serial.packed().as_slice(), threaded.packed().as_slice());
        prop_assert_eq!(serial.pivots(), threaded.pivots());
    }

    #[test]
    fn threaded_dgemm_is_bit_identical_to_serial(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        block in 1usize..32,
        threads in 1usize..=8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let mut c1 = Matrix::random(m, n, &mut rng);
        let mut c2 = c1.clone();
        let pool = WorkerPool::new(threads);
        dgemm::blocked(0.75, &a, &b, -0.25, &mut c1, block);
        dgemm::blocked_parallel(0.75, &a, &b, -0.25, &mut c2, block, &pool);
        prop_assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn threaded_stream_is_bit_identical_to_serial(
        elements in 1usize..2000,
        threads in 2usize..=8,
        iterations in 1usize..4,
    ) {
        let mut serial = StreamRun::new(StreamConfig::new(elements, 1));
        let mut threaded = StreamRun::new(StreamConfig::new(elements, threads));
        for _ in 0..iterations {
            serial.run_iteration();
            threaded.run_iteration();
        }
        let s = serial.checkpoint();
        let t = threaded.checkpoint();
        prop_assert_eq!(s.a_bits, t.a_bits);
        prop_assert_eq!(s.b_bits, t.b_bits);
        prop_assert_eq!(s.c_bits, t.c_bits);
    }

    #[test]
    fn threaded_lu_checkpoint_round_trip_is_lossless(
        n in 2usize..40,
        nb in 1usize..16,
        interrupt_after in 0usize..6,
        threads in 2usize..=8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let pool = WorkerPool::new(threads);
        let direct = LuFactorization::factor(a.clone(), nb).expect("nonsingular");
        // Factor on the pool, interrupt mid-flight, checkpoint, restore,
        // finish on the pool: the PR 2 restart law holds on the threaded
        // path too, and the result still matches the serial factors.
        let mut stepped = SteppableLu::new(a, nb).expect("square");
        for _ in 0..interrupt_after {
            if !stepped.step_with_pool(&pool).expect("nonsingular") {
                break;
            }
        }
        let resumed = SteppableLu::restore(stepped.checkpoint());
        prop_assert_eq!(resumed.panels_done(), stepped.panels_done());
        let from_snapshot = resumed.run_to_completion_with_pool(&pool).expect("nonsingular");
        prop_assert_eq!(from_snapshot.packed().as_slice(), direct.packed().as_slice());
        prop_assert_eq!(from_snapshot.pivots(), direct.pivots());
    }

    #[test]
    fn abft_detect_raises_no_false_positives_on_badly_scaled_rows(
        n in 1usize..96,
        nb in 1usize..128,
        decades in 12i32..=40,
        threads in 0usize..=3,
        seed in 0u64..1000,
    ) {
        // Every row scaled by its own 10^±decades: after pivoting, the
        // huge rows carry almost all of a column's mass, so a checksum
        // derived by subtracting them must keep the tolerance at the
        // mass they carried, not at the tiny remainder's.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::random(n, n, &mut rng);
        for i in 0..n {
            let scale = 10f64.powi(rng.gen_range(-decades..=decades));
            for j in 0..n {
                a[(i, j)] *= scale;
            }
        }
        let plain = LuFactorization::factor(a.clone(), nb).expect("nonsingular");
        let pool = (threads > 0).then(|| WorkerPool::new(threads));
        let (lu, report) = factor_protected(a, nb, AbftMode::Detect, pool.as_ref(), None)
            .expect("nonsingular");
        prop_assert_eq!(report.mismatches, 0, "n={} nb={} decades={}", n, nb, decades);
        prop_assert_eq!(lu.packed().as_slice(), plain.packed().as_slice());
        prop_assert_eq!(lu.pivots(), plain.pivots());
    }

    #[test]
    fn matvec_is_linear(
        n in 1usize..16,
        alpha in -3.0f64..3.0,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).recip()).collect();
        let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let ax = a.matvec(&x);
        let a_scaled = a.matvec(&scaled);
        for (lhs, rhs) in a_scaled.iter().zip(ax.iter().map(|v| alpha * v)) {
            prop_assert!((lhs - rhs).abs() < 1e-12 * (1.0 + rhs.abs()));
        }
    }
}
