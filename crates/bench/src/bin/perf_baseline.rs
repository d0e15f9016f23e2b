//! The perf-regression baseline: pinned-size kernel runs (serial vs
//! threaded) and engine runs, with machine-readable output.
//!
//! Emits `BENCH_kernels.json` (blocked LU GFLOP/s, packed DGEMM GFLOP/s,
//! STREAM triad GB/s, each with the threaded-over-serial speedup, plus
//! the ABFT Detect factor time and its overhead over the threaded LU:
//! the median of alternating per-pair ratios, with its quartiles) and
//! `BENCH_engine.json` (serial simulation steps/s — the engine always
//! steps serially — plus the event-driven clock's wall-clock ratio over
//! fixed-dt on a sparse and a dense scenario). Every threaded kernel run
//! is checked bitwise against its serial twin, and every event-driven
//! run against its fixed-dt twin — any divergence is a hard failure
//! (non-zero exit), because the contract is that neither the kernels'
//! worker count nor the clock mode ever changes a result. The same holds
//! for ABFT: Detect factors that differ
//! from the plain ones by a bit, or a clean run that raises a checksum
//! mismatch, fail the run. The Detect overhead itself is reported, not
//! gated.
//!
//! The dense scenario additionally gates the §16 sampled-span replay: a
//! monitored tick ratio below 10x is a hard failure, because the tick
//! ratio (unlike wall clock) is deterministic and is the perf deliverable
//! the replay exists for.
//!
//! The dense scenario also gates the wall clock itself: the event clock
//! must finish the monitored run at least [`DENSE_WALL_SPEEDUP_FLOOR`]x
//! faster than fixed-dt, measured as best-of-reps on both sides (the
//! minimum estimates the uncontended cost of a deterministic workload;
//! medians of alternating reps still drift with host load).
//!
//! `BENCH_engine.json` additionally carries a broker micro-benchmark:
//! steady-state batched publish throughput through the precompiled
//! routing table, plus the compiled-route count, and a `per_call_ns`
//! table: median nanoseconds per call of the eigensolver, the L2 cache
//! simulator, the thermal step, TSDB insert (of a counter, whose pages
//! seal coded, and of hashed values, whose pages seal raw) and
//! downsampling, one monitored tick's telemetry landing, one dashboard
//! query, and the concretiser with its DAG install.
//!
//! Both files open with a `config` object that says where the numbers
//! came from: mode, reps and workers, the commit (`git describe --always
//! --dirty` in the working directory, or `"unknown"`), the CPU model (the
//! first `model name` of /proc/cpuinfo, or `"unknown"`) and `nproc`.
//!
//! `--smoke` shrinks the problem sizes for CI; `REPS` overrides the
//! repetition count; `--out-dir DIR` redirects the JSON snapshots (so CI
//! artifacts don't clobber the committed repo-root copies). Kernel and
//! engine-step timings report the median rep, the stable statistic on a
//! noisy shared host; the clock-mode comparison and the broker
//! throughput use best-of-reps as above.

use std::hint::black_box;
use std::time::Instant;

use cimone_bench::{env_u64, Args};
use cimone_cluster::engine::{ClockMode, ClusterWorkload, EngineConfig, JobRequest, SimEngine};
use cimone_cluster::faults::{FaultKind, FaultPlan};
use cimone_cluster::healing::RecoveryConfig;
use cimone_cluster::thermal::{AirflowConfig, ThermalModel};
use cimone_kernels::abft::{factor_protected, AbftMode};
use cimone_kernels::checkpoint::Checkpoint;
use cimone_kernels::dgemm;
use cimone_kernels::eig::EigenDecomposition;
use cimone_kernels::lu::LuFactorization;
use cimone_kernels::matrix::Matrix;
use cimone_kernels::pool::WorkerPool;
use cimone_kernels::stream::{StreamConfig, StreamKernel, StreamRun};
use cimone_mem::cache::{AccessKind, CacheConfig, SetAssocCache};
use cimone_monitor::broker::Broker;
use cimone_monitor::collector::Collector;
use cimone_monitor::json::JsonValue;
use cimone_monitor::payload::Payload;
use cimone_monitor::query::evaluate_json;
use cimone_monitor::scrub::ScrubPolicy;
use cimone_monitor::topic::Topic;
use cimone_monitor::tsdb::{Aggregation, TimeSeriesStore};
use cimone_pkg::concretize::concretize;
use cimone_pkg::install::InstallTree;
use cimone_pkg::repo::PackageRepo;
use cimone_pkg::spec::Spec;
use cimone_pkg::target::TargetRegistry;
use cimone_soc::units::{Power, SimDuration, SimTime};
use cimone_soc::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pinned worker count for every threaded measurement (the paper's
/// machine has four cores per node; the acceptance gate is LU at 4).
const WORKERS: usize = 4;

/// Alternating (threaded LU, ABFT Detect) timing pairs behind
/// `abft_time_overhead`: the overhead is the median of the per-pair
/// ratios, reported with its quartiles. One run of a few-millisecond
/// kernel per side cannot resolve it on a shared host.
const ABFT_PAIRS: usize = 21;

/// Minimum deterministic tick ratio (fixed ticks walked / event ticks
/// walked) the dense, every-tick-monitored scenario must reach via the
/// §16 sampled-span replay. Falling below this is a perf regression and
/// exits non-zero, same as a bitwise divergence.
const DENSE_TICK_RATIO_FLOOR: f64 = 10.0;

/// Minimum wall-clock speedup (fixed-dt seconds / event-driven seconds,
/// best-of-reps each) the dense monitored scenario must reach. The
/// interned-topic publish path, the precompiled routing table and the
/// land-at-delivery ingest exist to make the sampled-span replay
/// cheap enough that the event clock wins by at least this factor even
/// with every tick monitored.
const DENSE_WALL_SPEEDUP_FLOOR: f64 = 2.0;

struct Sizes {
    mode: &'static str,
    lu_n: usize,
    lu_nb: usize,
    gemm_n: usize,
    gemm_block: usize,
    stream_elements: usize,
    engine_steps: usize,
    event_sparse_secs: u64,
    event_dense_secs: u64,
    reps: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            mode: "full",
            lu_n: 512,
            lu_nb: 64,
            gemm_n: 384,
            gemm_block: 64,
            stream_elements: 2_000_000,
            engine_steps: 240,
            event_sparse_secs: 4 * 3600,
            event_dense_secs: 3600,
            reps: 5,
        }
    }

    fn smoke() -> Sizes {
        Sizes {
            mode: "smoke",
            lu_n: 192,
            lu_nb: 64,
            gemm_n: 128,
            gemm_block: 64,
            stream_elements: 200_000,
            engine_steps: 60,
            event_sparse_secs: 3600,
            event_dense_secs: 1200,
            reps: 3,
        }
    }
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Best-of-reps: the minimum estimates the uncontended cost of a
/// deterministic workload, which is the right statistic for a ratio gate
/// on a host with drifting background load.
fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Times `reps` calls of `f`, returning (median seconds, last result).
fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (median(times), last.expect("at least one rep"))
}

fn bench_lu(sizes: &Sizes, pool: &WorkerPool, divergences: &mut Vec<String>) -> JsonValue {
    let (n, nb, reps) = (sizes.lu_n, sizes.lu_nb, sizes.reps);
    let mut rng = StdRng::seed_from_u64(2022);
    let a = Matrix::random(n, n, &mut rng);
    let flops = 2.0 / 3.0 * (n as f64).powi(3);

    // Warm up every path once so page faults and lazy init stay out of
    // the measured reps. The warm-ups double as the bitwise checks.
    let warm_s = LuFactorization::factor(a.clone(), nb).expect("factors");
    let warm_p = LuFactorization::factor_parallel(a.clone(), nb, pool).expect("factors");
    let (warm_d, report) =
        factor_protected(a.clone(), nb, AbftMode::Detect, Some(pool), None).expect("factors");
    let same = |lu: &LuFactorization| {
        lu.packed().as_slice() == warm_s.packed().as_slice() && lu.pivots() == warm_s.pivots()
    };
    let identical = same(&warm_p);
    if !identical {
        divergences.push(format!("LU {n}x{n} nb={nb}: threaded != serial"));
    }
    let detect_identical = same(&warm_d);
    if !detect_identical {
        divergences.push(format!("LU {n}x{n} nb={nb}: ABFT Detect != plain"));
    }
    if report.mismatches > 0 {
        divergences.push(format!(
            "LU {n}x{n} nb={nb}: ABFT Detect raised {} mismatches on a clean run",
            report.mismatches
        ));
    }

    let (serial_s, _) = time_reps(reps, || {
        LuFactorization::factor(a.clone(), nb).expect("factors")
    });
    // The threaded LU and Detect alternate pair by pair, so drifting
    // background load hits both sides of each ratio alike.
    let mut threaded = Vec::with_capacity(ABFT_PAIRS);
    let mut detect = Vec::with_capacity(ABFT_PAIRS);
    let mut overheads = Vec::with_capacity(ABFT_PAIRS);
    for _ in 0..ABFT_PAIRS {
        let start = Instant::now();
        LuFactorization::factor_parallel(a.clone(), nb, pool).expect("factors");
        let t = start.elapsed().as_secs_f64();
        let start = Instant::now();
        factor_protected(a.clone(), nb, AbftMode::Detect, Some(pool), None).expect("factors");
        let d = start.elapsed().as_secs_f64();
        threaded.push(t);
        detect.push(d);
        overheads.push(d / t - 1.0);
    }
    let (threaded_s, detect_s) = (median(threaded), median(detect));
    overheads.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let quartile = |q: f64| overheads[((ABFT_PAIRS - 1) as f64 * q).round() as usize];
    let (overhead_q1, abft_time_overhead, overhead_q3) =
        (quartile(0.25), quartile(0.5), quartile(0.75));
    let speedup = serial_s / threaded_s;
    let abft_flop_overhead = report.checksum_flops / flops;
    println!(
        "LU      n={n:<8} nb={nb:<4} serial {:>8.2} ms ({:>6.2} GFLOP/s)  threaded {:>8.2} ms ({:>6.2} GFLOP/s)  speedup {speedup:.2}x",
        serial_s * 1e3,
        flops / serial_s / 1e9,
        threaded_s * 1e3,
        flops / threaded_s / 1e9,
    );
    println!(
        "ABFT    n={n:<8} nb={nb:<4} detect {:>8.2} ms  time overhead {:>6.1}% (IQR {:.1}–{:.1}%, {ABFT_PAIRS} pairs)  flop overhead {:>5.1}%",
        detect_s * 1e3,
        abft_time_overhead * 100.0,
        overhead_q1 * 100.0,
        overhead_q3 * 100.0,
        abft_flop_overhead * 100.0,
    );
    JsonValue::object([
        ("n", n.into()),
        ("nb", nb.into()),
        ("serial_ms", (serial_s * 1e3).into()),
        ("threaded_ms", (threaded_s * 1e3).into()),
        ("serial_gflops", (flops / serial_s / 1e9).into()),
        ("threaded_gflops", (flops / threaded_s / 1e9).into()),
        ("speedup", speedup.into()),
        ("bit_identical", JsonValue::Bool(identical)),
        ("abft_detect_ms", (detect_s * 1e3).into()),
        ("abft_time_overhead", abft_time_overhead.into()),
        ("abft_time_overhead_q1", overhead_q1.into()),
        ("abft_time_overhead_q3", overhead_q3.into()),
        ("abft_pairs", ABFT_PAIRS.into()),
        ("abft_flop_overhead", abft_flop_overhead.into()),
        ("abft_bit_identical", JsonValue::Bool(detect_identical)),
    ])
}

fn bench_dgemm(sizes: &Sizes, pool: &WorkerPool, divergences: &mut Vec<String>) -> JsonValue {
    let (n, block, reps) = (sizes.gemm_n, sizes.gemm_block, sizes.reps);
    let mut rng = StdRng::seed_from_u64(2023);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let c0 = Matrix::random(n, n, &mut rng);
    let flops = 2.0 * (n as f64).powi(3);

    let mut c_serial = c0.clone();
    dgemm::blocked(1.0, &a, &b, 0.5, &mut c_serial, block);
    let mut c_threaded = c0.clone();
    dgemm::blocked_parallel(1.0, &a, &b, 0.5, &mut c_threaded, block, pool);
    let identical = c_serial.as_slice() == c_threaded.as_slice();
    if !identical {
        divergences.push(format!("DGEMM {n}x{n} block={block}: threaded != serial"));
    }

    let (serial_s, _) = time_reps(reps, || {
        let mut c = c0.clone();
        dgemm::blocked(1.0, &a, &b, 0.5, &mut c, block);
        c
    });
    let (threaded_s, _) = time_reps(reps, || {
        let mut c = c0.clone();
        dgemm::blocked_parallel(1.0, &a, &b, 0.5, &mut c, block, pool);
        c
    });
    let speedup = serial_s / threaded_s;
    println!(
        "DGEMM   n={n:<8} bl={block:<4} serial {:>8.2} ms ({:>6.2} GFLOP/s)  threaded {:>8.2} ms ({:>6.2} GFLOP/s)  speedup {speedup:.2}x",
        serial_s * 1e3,
        flops / serial_s / 1e9,
        threaded_s * 1e3,
        flops / threaded_s / 1e9,
    );
    JsonValue::object([
        ("n", n.into()),
        ("block", block.into()),
        ("serial_ms", (serial_s * 1e3).into()),
        ("threaded_ms", (threaded_s * 1e3).into()),
        ("serial_gflops", (flops / serial_s / 1e9).into()),
        ("threaded_gflops", (flops / threaded_s / 1e9).into()),
        ("speedup", speedup.into()),
        ("bit_identical", JsonValue::Bool(identical)),
    ])
}

fn bench_stream(sizes: &Sizes, divergences: &mut Vec<String>) -> JsonValue {
    let (elements, reps) = (sizes.stream_elements, sizes.reps);

    // Bit-identity first: one full iteration with serial vs threaded
    // chunking must leave all three arrays exactly equal.
    let mut serial_run = StreamRun::new(StreamConfig::new(elements, 1));
    let mut threaded_run = StreamRun::new(StreamConfig::new(elements, WORKERS));
    serial_run.run_iteration();
    threaded_run.run_iteration();
    let s = serial_run.checkpoint();
    let t = threaded_run.checkpoint();
    let identical = s.a_bits == t.a_bits && s.b_bits == t.b_bits && s.c_bits == t.c_bits;
    if !identical {
        divergences.push(format!("STREAM {elements} elements: threaded != serial"));
    }

    let serial_triad = serial_run.benchmark(StreamKernel::Triad, reps);
    let threaded_triad = threaded_run.benchmark(StreamKernel::Triad, reps);
    let speedup = threaded_triad.best_mb_per_s / serial_triad.best_mb_per_s;
    println!(
        "STREAM  elems={elements:<7} triad serial {:>7.2} GB/s  threaded {:>7.2} GB/s  speedup {speedup:.2}x",
        serial_triad.best_mb_per_s / 1e3,
        threaded_triad.best_mb_per_s / 1e3,
    );
    JsonValue::object([
        ("elements", elements.into()),
        ("serial_gb_per_s", (serial_triad.best_mb_per_s / 1e3).into()),
        (
            "threaded_gb_per_s",
            (threaded_triad.best_mb_per_s / 1e3).into(),
        ),
        ("speedup", speedup.into()),
        ("bit_identical", JsonValue::Bool(identical)),
    ])
}

/// Serial engine stepping: a full-machine job that never finishes, so
/// every timed step runs the whole pipeline with monitoring on. Reports
/// the median rep.
fn bench_engine(sizes: &Sizes) -> JsonValue {
    let steps = sizes.engine_steps;
    let mut times = Vec::with_capacity(sizes.reps);
    for _ in 0..sizes.reps {
        let mut engine = SimEngine::new(EngineConfig::default());
        engine
            .submit(JobRequest {
                name: "perf-baseline".into(),
                user: "bench".into(),
                nodes: 8,
                workload: ClusterWorkload::Synthetic {
                    workload: Workload::Hpl,
                    secs: 100_000, // never finishes: every step does full work
                },
            })
            .expect("job fits the machine");
        let start = Instant::now();
        for _ in 0..steps {
            engine.step();
        }
        times.push(start.elapsed().as_secs_f64());
    }
    let serial_s = median(times);
    println!(
        "ENGINE  steps={steps:<7} serial {:>8.0} steps/s",
        steps as f64 / serial_s,
    );
    JsonValue::object([
        ("steps", steps.into()),
        ("serial_steps_per_s", (steps as f64 / serial_s).into()),
    ])
}

/// Steady-state broker micro-benchmark: a telemetry-shaped topic set
/// (interned once, up front), one wildcard collector subscription, and
/// repeated batched publishes through the precompiled routing table,
/// each batch drained by the subscriber. Reports best-of-reps message
/// throughput for the batched path and the per-message path, plus the
/// compiled-route count as a direct witness that the table is populated.
fn bench_broker(sizes: &Sizes) -> JsonValue {
    let topics: Vec<Topic> = (0..128)
        .map(|i| {
            format!(
                "org/cimone/cluster/node{}/plugin/bench/chnl/data/metric{i}",
                i % 8
            )
            .parse()
            .expect("valid topic")
        })
        .collect();
    let broker = Broker::new();
    let sub = broker.subscribe("#".parse().expect("valid filter"));
    let rounds = if sizes.mode == "full" { 2000 } else { 400 };
    let mut batch: Vec<(Topic, Payload)> = Vec::with_capacity(topics.len());

    let mut run = |batched: bool| -> f64 {
        let mut times = Vec::with_capacity(sizes.reps);
        for rep in 0..=sizes.reps {
            let start = Instant::now();
            for round in 0..rounds {
                let at = SimTime::from_secs(round as u64);
                if batched {
                    batch.extend(topics.iter().map(|t| (*t, Payload::new(round as f64, at))));
                    broker.publish_batch_serial(&mut batch);
                } else {
                    for t in &topics {
                        broker.publish(t, Payload::new(round as f64, at));
                    }
                }
                sub.drain_each(|_| {});
            }
            if rep > 0 {
                // Rep 0 is the warm-up: route compilation and queue
                // growth happen there, steady state is what we time.
                times.push(start.elapsed().as_secs_f64());
            }
        }
        (rounds * topics.len()) as f64 / best(&times)
    };
    let batched_msgs_per_s = run(true);
    let per_message_msgs_per_s = run(false);
    let compiled_routes = broker.compiled_routes();
    println!(
        "BROKER  topics={:<4} batched {:>10.0} msg/s  per-message {:>10.0} msg/s  compiled_routes={compiled_routes}",
        topics.len(),
        batched_msgs_per_s,
        per_message_msgs_per_s,
    );
    JsonValue::object([
        ("topics", topics.len().into()),
        ("rounds", rounds.into()),
        ("batched_msgs_per_s", batched_msgs_per_s.into()),
        ("per_message_msgs_per_s", per_message_msgs_per_s.into()),
        ("compiled_routes", compiled_routes.into()),
    ])
}

/// One availability-style run for the event-clock bench: a short job,
/// optionally a crash/repair pair, then a long tail of the horizon spent
/// idle (sparse) or fully monitored (dense).
fn event_run(clock: ClockMode, monitoring: bool, horizon_secs: u64) -> (f64, SimEngine) {
    let mut engine = SimEngine::new(EngineConfig {
        monitoring,
        dt: SimDuration::from_secs(2),
        clock,
        ..EngineConfig::default()
    })
    .with_fault_plan(
        FaultPlan::new()
            .with(
                SimTime::from_secs(horizon_secs / 8),
                FaultKind::NodeCrash { node: 3 },
            )
            .with(
                SimTime::from_secs(horizon_secs / 6),
                FaultKind::NodeRecover { node: 3 },
            ),
    );
    engine
        .submit(JobRequest {
            name: "event-bench".into(),
            user: "bench".into(),
            nodes: 8,
            workload: ClusterWorkload::Synthetic {
                workload: Workload::Hpl,
                secs: 60,
            },
        })
        .expect("job fits the machine");
    let start = Instant::now();
    engine.run_for(SimDuration::from_secs(horizon_secs));
    (start.elapsed().as_secs_f64(), engine)
}

/// Compares the two clock modes on a sparse (idle-dominated, telemetry
/// off) and a dense (every tick monitored) scenario. Any divergence in
/// the observable outputs is a hard failure; so is a dense tick ratio
/// below [`DENSE_TICK_RATIO_FLOOR`] — the sampled-span replay must keep
/// the monitored posture (the paper's realistic one) fast, not just the
/// telemetry-off corner.
fn bench_engine_event(sizes: &Sizes, divergences: &mut Vec<String>) -> JsonValue {
    let mut section = Vec::new();
    for (label, monitoring, horizon) in [
        ("sparse", false, sizes.event_sparse_secs),
        ("dense", true, sizes.event_dense_secs),
    ] {
        let mut fixed_times = Vec::with_capacity(sizes.reps);
        let mut event_times = Vec::with_capacity(sizes.reps);
        let mut identical = true;
        let mut stepped = (0u64, 0u64);
        let mut skipped = 0u64;
        for _ in 0..sizes.reps {
            let (ft, fixed) = event_run(ClockMode::FixedDt, monitoring, horizon);
            let (et, event) = event_run(ClockMode::EventDriven, monitoring, horizon);
            fixed_times.push(ft);
            event_times.push(et);
            identical &= fixed.now() == event.now()
                && fixed.events() == event.events()
                && fixed.store() == event.store()
                && fixed.accounting() == event.accounting();
            stepped = (fixed.ticks_stepped(), event.ticks_stepped());
            skipped = event.ticks_skipped();
        }
        if !identical {
            divergences.push(format!("engine event clock ({label}): event != fixed"));
        }
        let fixed_s = best(&fixed_times);
        let event_s = best(&event_times);
        let wall_speedup = fixed_s / event_s;
        // Deterministic counterpart to the (noisy) wall-clock ratio: how
        // many full ticks each mode actually walked.
        let tick_ratio = stepped.0 as f64 / stepped.1.max(1) as f64;
        if label == "dense" && tick_ratio < DENSE_TICK_RATIO_FLOOR {
            divergences.push(format!(
                "engine event clock (dense): tick ratio {tick_ratio:.2}x \
                 below the {DENSE_TICK_RATIO_FLOOR:.0}x floor"
            ));
        }
        if label == "dense" && wall_speedup < DENSE_WALL_SPEEDUP_FLOOR {
            divergences.push(format!(
                "engine event clock (dense): wall speedup {wall_speedup:.2}x \
                 below the {DENSE_WALL_SPEEDUP_FLOOR:.1}x floor"
            ));
        }
        println!(
            "EVENT   {label:<6} horizon={horizon:<6}s fixed {:>8.4} s  event {:>8.4} s  wall {wall_speedup:.2}x  ticks {}/{} ({tick_ratio:.1}x, {skipped} skipped)",
            fixed_s, event_s, stepped.0, stepped.1,
        );
        section.push((
            label,
            JsonValue::object([
                ("horizon_s", horizon.into()),
                ("fixed_wall_s", fixed_s.into()),
                ("event_wall_s", event_s.into()),
                ("wall_speedup", wall_speedup.into()),
                ("fixed_ticks", stepped.0.into()),
                ("event_ticks_stepped", stepped.1.into()),
                ("event_ticks_skipped", skipped.into()),
                ("tick_ratio", tick_ratio.into()),
                ("bit_identical", JsonValue::Bool(identical)),
            ]),
        ));
    }
    JsonValue::object(section)
}

/// Per-call costs of the pieces no other section times: the symmetric
/// eigensolver, the L2 cache simulator, the thermal model, the TSDB, the
/// query interface and the package manager. Each row makes one untimed
/// warm-up call, then `calls` calls per rep, and reports the median
/// rep's nanoseconds per call.
fn bench_calls(sizes: &Sizes) -> JsonValue {
    let mut section = Vec::new();
    let mut row = |name: &'static str, calls: usize, call: &mut dyn FnMut()| {
        call();
        let (s, ()) = time_reps(sizes.reps, || (0..calls).for_each(|_| call()));
        let ns = s * 1e9 / calls as f64;
        println!("CALL    {name:<26} {ns:>14.1} ns/call");
        section.push((name, ns.into()));
    };

    let sym = Matrix::random_symmetric(96, &mut StdRng::seed_from_u64(3));
    row("eig_tred2_tql2_n96", 4, &mut || {
        black_box(EigenDecomposition::compute(&sym).expect("symmetric"));
    });
    let mut l2 = SetAssocCache::new(CacheConfig::fu740_l2());
    let mut addr = 0u64;
    row("cache_l2_access", 100_000, &mut || {
        black_box(l2.access(addr, AccessKind::Read));
        addr = (addr + 64) % (16 << 20);
    });
    let mut thermal = ThermalModel::monte_cimone(AirflowConfig::LidOffSpaced);
    let powers = [Power::from_watts(5.9); 8];
    row("thermal_step_8nodes", 10_000, &mut || {
        black_box(thermal.step(&powers, SimDuration::from_millis(500)));
    });

    let topic: Topic = "node/a/metric".parse().expect("valid");
    let mut inserts = TimeSeriesStore::new();
    let mut t = 0u64;
    row("tsdb_insert", 100_000, &mut || {
        t += 1;
        inserts.insert(&topic, Payload::new(t as f64, SimTime::from_micros(t)));
    });
    // Hashed values: no three neighbours form a run, so every page the
    // row fills seals raw.
    let mut noisy = TimeSeriesStore::new();
    let mut t = 0u64;
    row("tsdb_insert_noisy", 100_000, &mut || {
        t += 1;
        let v = (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64;
        noisy.insert(&topic, Payload::new(v, SimTime::from_micros(t)));
    });
    let mut points = TimeSeriesStore::new();
    for ms in 0..100_000u64 {
        points.insert(&topic, Payload::new(ms as f64, SimTime::from_millis(ms)));
    }
    row("tsdb_downsample_100s_100k", 20, &mut || {
        black_box(points.downsample(
            "node/a/metric",
            SimTime::ZERO,
            SimTime::from_secs(100),
            SimDuration::from_secs(1),
            Aggregation::Mean,
        ));
    });

    // One operator-dashboard panel: the per-core `instret` mean in 60 s
    // bins over 1,545 monitored seconds of an idle machine with the
    // failure detector on — a store shaped like the benchmark's busy_day:
    // 368 series, the panel's 32 of them with 3,090 points each.
    let mut monitored = SimEngine::new(EngineConfig {
        clock: ClockMode::EventDriven,
        recovery: Some(RecoveryConfig::detection_only()),
        ..EngineConfig::default()
    });
    monitored.run_for(SimDuration::from_secs(1545));
    let panel = format!(
        r#"{{"filter":"{}","from_secs":0,"to_secs":1545,"bin_secs":60,"aggregation":"Mean"}}"#,
        monitored.schema().pmu_metric_filter("instret")
    );
    row("query_instret_panel_60s", 100, &mut || {
        black_box(evaluate_json(monitored.store(), &panel).expect("valid request"));
    });

    // One monitored tick of telemetry, from publish to column: 171
    // samples shaped like the engine's tick batch (the 8 power samples,
    // then per node its 16 pmu series and 4 or 5 of its stats series),
    // published with `publish_batch_serial` to a scrubbing collector that
    // holds a warm copy of the same 368-series store.
    let stored: Vec<Topic> = monitored
        .store()
        .series_names()
        .map(|name| name.parse().expect("stored names parse"))
        .collect();
    let pick = |plugin: &str, node: usize| -> Vec<Topic> {
        let host = format!("mc-node-{:02}", node + 1);
        stored
            .iter()
            .filter(|t| t.segments()[5] == host && t.segments()[7] == plugin)
            .copied()
            .collect()
    };
    let mut topics: Vec<Topic> = (0..8).flat_map(|node| pick("pwr_pub", node)).collect();
    for node in 0..8 {
        topics.extend(pick("pmu_pub", node));
        topics.extend(
            pick("dstat_pub", node)
                .into_iter()
                .take(if node < 3 { 5 } else { 4 }),
        );
    }
    assert_eq!(topics.len(), 171, "the batch shape");
    let calls = 1000;
    let mut warm = monitored.store().clone();
    let before = warm.point_count();
    warm.reserve_points(sizes.reps * calls + 1);
    let broker = Broker::new();
    let mut collector = Collector::attach(&broker, "#".parse().expect("valid filter"))
        .with_scrub(ScrubPolicy::monte_cimone());
    collector.lend(warm);
    let mut batch = Vec::with_capacity(topics.len());
    let mut at = SimTime::from_secs(1545);
    row("ingest_tick_171_samples", calls, &mut || {
        at += SimDuration::from_millis(500);
        batch.extend(topics.iter().map(|t| (*t, Payload::new(5.0, at))));
        broker.publish_batch_serial(&mut batch);
    });
    let landed = collector.reclaim().expect("lent above").point_count() - before;
    assert_eq!(
        landed,
        topics.len() * (sizes.reps * calls + 1),
        "every sample landed"
    );

    let repo = PackageRepo::builtin();
    let targets = TargetRegistry::builtin();
    let qe: Spec = "quantum-espresso target=u74mc".parse().expect("valid");
    row("pkg_concretize_qe", 50, &mut || {
        black_box(concretize(&qe, &repo, &targets).expect("resolves"));
    });
    let dag = concretize(&qe, &repo, &targets).expect("resolves");
    row("pkg_install_qe_dag", 50, &mut || {
        let mut tree = InstallTree::new("/opt/cimone");
        black_box(tree.install_dag(&dag).expect("installs"));
    });
    JsonValue::object(section)
}

/// The checkout's commit, from `git describe --always --dirty`, or
/// `"unknown"` where git or the repository is missing.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|described| described.trim().to_owned())
        .filter(|described| !described.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host's CPU model: the first `model name` line of /proc/cpuinfo,
/// or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter(|line| line.starts_with("model name"))
                .find_map(|line| Some(line.split_once(':')?.1.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() {
    let args = Args::from_env();
    let mut sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    sizes.reps = env_u64("REPS", sizes.reps as u64) as usize;
    assert!(sizes.reps > 0, "REPS must be positive");
    println!(
        "perf_baseline: mode={} reps={} workers={WORKERS}",
        sizes.mode, sizes.reps
    );

    let pool = WorkerPool::new(WORKERS);
    let mut divergences = Vec::new();

    let lu = bench_lu(&sizes, &pool, &mut divergences);
    let gemm = bench_dgemm(&sizes, &pool, &mut divergences);
    let stream = bench_stream(&sizes, &mut divergences);
    let engine = bench_engine(&sizes);
    let engine_event = bench_engine_event(&sizes, &mut divergences);
    let broker = bench_broker(&sizes);
    let calls = bench_calls(&sizes);

    let config = JsonValue::object([
        ("mode", JsonValue::String(sizes.mode.to_owned())),
        ("reps", sizes.reps.into()),
        ("workers", WORKERS.into()),
        ("commit", JsonValue::String(commit())),
        ("cpu", JsonValue::String(cpu_model())),
        ("nproc", nproc().into()),
    ]);
    let kernels = JsonValue::object([
        ("config", config.clone()),
        ("lu", lu),
        ("dgemm", gemm),
        ("stream", stream),
    ]);
    let engine_doc = JsonValue::object([
        ("config", config),
        ("engine", engine),
        ("engine_event", engine_event),
        ("broker", broker),
        ("per_call_ns", calls),
    ]);
    let kernels_path = args.out_path("BENCH_kernels.json");
    let engine_path = args.out_path("BENCH_engine.json");
    std::fs::write(&kernels_path, format!("{kernels}\n")).expect("write BENCH_kernels.json");
    std::fs::write(&engine_path, format!("{engine_doc}\n")).expect("write BENCH_engine.json");
    println!(
        "wrote {} and {}",
        kernels_path.display(),
        engine_path.display()
    );

    if !divergences.is_empty() {
        eprintln!("FAIL: divergence or perf-floor violation detected:");
        for d in &divergences {
            eprintln!("  - {d}");
        }
        std::process::exit(1);
    }
}
