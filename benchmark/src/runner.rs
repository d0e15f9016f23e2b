//! The closed loop: one client runs ops back to back, each starting only
//! after the previous one has been checked.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::heap;
use crate::trace::Tracer;

/// Counts are averaged over this many leading ops, so that they depend
/// only on the seed and never on how many ops a run had time for.
const COUNTED_OPS: usize = 8;

/// One benchmark workload: how to set up, run and check op `i`.
pub trait Workload {
    /// A set-up op, ready to run.
    type Input;
    /// What a run of the op produced.
    type Output;

    /// Ops per round. A run ends only between rounds, so every run sees
    /// the same mix of op shapes.
    fn round(&self) -> usize {
        1
    }

    /// The op run once, untimed, before timing starts: one that reaches
    /// every lazily grown cache and buffer.
    fn warm_up_op(&self) -> usize {
        0
    }

    /// Draws op `op`'s inputs from the seed and sets it up (untimed as an
    /// op, reported as set-up time).
    fn prepare(&mut self, op: usize, t: &mut Tracer) -> Result<Self::Input, String>;

    /// The timed part of the op.
    fn execute(&mut self, input: Self::Input, t: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks the op's outputs (untimed).
    fn verify(&mut self, op: usize, out: &Self::Output, t: &mut Tracer) -> Result<(), String>;

    /// Whether two runs of one op produced identical outputs.
    fn same(&self, a: &Self::Output, b: &Self::Output) -> bool;

    /// Adds the op's layer counts and timings to `tally`.
    fn tally(&self, out: &Self::Output, tally: &mut Tally);
}

/// Named sums of layer counts and timings.
#[derive(Debug, Clone, Default)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_owned()).or_insert(0.0) += v;
    }

    /// The sum under `key` (0 if never added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `get(num) / get(den)`, or 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        ratio(self.get(num), self.get(den))
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// An independent RNG for op `op` of stream `stream` at `seed`.
pub fn op_rng(seed: u64, stream: u64, op: usize) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed ^ mix(stream)) ^ op as u64))
}

/// SplitMix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How long a run goes on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start ops (whole rounds) until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many ops.
    #[cfg(test)]
    Ops(usize),
}

/// Everything one run measured.
pub struct RunData {
    /// Ops started, the warm-up included.
    pub attempted: usize,
    /// Ops that panicked, errored or failed a check.
    pub failed: usize,
    /// Timed op durations, seconds, with tracing off.
    pub op_secs: Vec<f64>,
    /// With tracing on: the same ops' durations while traced.
    pub traced_secs: Vec<f64>,
    /// Per-op peak heap from set-up to the end of the timed part, bytes,
    /// with tracing off.
    pub heap_bytes: Vec<f64>,
    /// Per-op set-up durations, seconds.
    pub setup_secs: Vec<f64>,
    /// The untimed warm-up op, set-up included, seconds.
    pub warmup_secs: f64,
    /// Tally over the first [`COUNTED_OPS`] ops that passed.
    pub first: Tally,
    /// How many ops `first` covers.
    pub counted: usize,
    /// Tally over every op that passed.
    pub all: Tally,
    /// Spans, when tracing.
    pub tracer: Tracer,
}

/// Runs `w` in a closed loop. With `trace`, every op runs twice on the
/// same inputs, once traced and once not, and the two must agree.
pub fn run<W: Workload>(w: &mut W, budget: Budget, trace: bool) -> RunData {
    let mut data = RunData {
        attempted: 0,
        failed: 0,
        op_secs: Vec::new(),
        traced_secs: Vec::new(),
        heap_bytes: Vec::new(),
        setup_secs: Vec::new(),
        warmup_secs: 0.0,
        first: Tally::default(),
        counted: 0,
        all: Tally::default(),
        tracer: Tracer::new(trace),
    };
    // Warm-up, untimed, so that the topic interner, the kernels' pack
    // arena and first-touch page faults are paid before timing.
    let start = Instant::now();
    let mut quiet = Tracer::new(false);
    let warm = guarded(|| {
        let op = w.warm_up_op();
        let input = w.prepare(op, &mut quiet)?;
        let out = w.execute(input, &mut quiet)?;
        w.verify(op, &out, &mut quiet)
    });
    data.warmup_secs = start.elapsed().as_secs_f64();
    data.attempted += 1;
    if let Err(e) = warm {
        eprintln!("warm-up op failed: {e}");
        data.failed += 1;
    }

    let start = Instant::now();
    for op in 0.. {
        let more = match budget {
            // Whole rounds only; another round starts if it would end
            // nearer the budget than stopping now.
            Budget::Seconds(s) => {
                let (elapsed, rounds) = (start.elapsed().as_secs_f64(), op / w.round());
                op % w.round() != 0 || rounds == 0 || elapsed * (1.0 + 0.5 / rounds as f64) < s
            }
            #[cfg(test)]
            Budget::Ops(n) => op < n,
        };
        if !more {
            break;
        }
        data.attempted += 1;
        data.tracer.set_op(op);
        let result = guarded(|| one_op(w, op, trace, &mut data));
        data.tracer.close_all();
        if let Err(e) = result {
            eprintln!("op {op} failed: {e}");
            data.failed += 1;
        }
    }
    data
}

fn one_op<W: Workload>(
    w: &mut W,
    op: usize,
    trace: bool,
    data: &mut RunData,
) -> Result<(), String> {
    let mut quiet = Tracer::new(false);
    let out = if trace {
        // Which twin goes first alternates with op, and also within the
        // even and the odd ops, so that it is independent of a workload
        // that alternates two kinds of op.
        let traced_first = (op + op / 2) % 2 == 1;
        let ((traced, traced_secs, _), (plain, plain_secs, heap)) = if traced_first {
            let traced = timed(w, op, &mut data.tracer, &mut data.setup_secs)?;
            (traced, timed(w, op, &mut quiet, &mut data.setup_secs)?)
        } else {
            let plain = timed(w, op, &mut quiet, &mut data.setup_secs)?;
            (timed(w, op, &mut data.tracer, &mut data.setup_secs)?, plain)
        };
        if !w.same(&traced, &plain) {
            return Err("the traced and untraced runs of the op differ".to_owned());
        }
        drop(plain);
        data.op_secs.push(plain_secs);
        data.heap_bytes.push(heap);
        data.traced_secs.push(traced_secs);
        w.verify(op, &traced, &mut data.tracer)?;
        traced
    } else {
        let (out, secs, heap) = timed(w, op, &mut quiet, &mut data.setup_secs)?;
        data.op_secs.push(secs);
        data.heap_bytes.push(heap);
        w.verify(op, &out, &mut quiet)?;
        out
    };
    if data.counted < COUNTED_OPS {
        w.tally(&out, &mut data.first);
        data.counted += 1;
    }
    w.tally(&out, &mut data.all);
    Ok(())
}

/// Sets op `op` up (recording the set-up time) and runs it; returns the
/// output, the op's wall time and its peak heap in bytes.
fn timed<W: Workload>(
    w: &mut W,
    op: usize,
    t: &mut Tracer,
    setup_secs: &mut Vec<f64>,
) -> Result<(W::Output, f64, f64), String> {
    heap::reset_peak();
    let setup = t.begin("setup");
    let input = w.prepare(op, t);
    setup_secs.push(t.end(setup));
    let input = input?;
    let timed = t.begin("op");
    let out = w.execute(input, t);
    let secs = t.end(timed);
    Ok((out?, secs, heap::peak() as f64))
}

/// Runs `f`, turning a panic into an error that carries its message.
fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)")
        )),
    }
}
