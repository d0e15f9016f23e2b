//! Batch jobs and their lifecycle.

use std::fmt;

use cimone_soc::units::{SimDuration, SimTime};

/// A unique job identifier, assigned at submission (Slurm's `JOBID`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {}", self.0)
    }
}

/// Default number of node-failure requeues a job survives before it is
/// marked [`JobState::Failed`] (Slurm's `--requeue` with a retry cap).
pub const DEFAULT_RETRY_BUDGET: u32 = 4;

/// Base of the exponential requeue backoff: after the n-th failure a job
/// is held for `2^(n-1)` times this long before it may be rescheduled.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);

/// Upper bound on a single backoff hold.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_secs(120);

/// What the user asked for (`sbatch`-level information).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Job name.
    pub name: String,
    /// Submitting user.
    pub user: String,
    /// Whole nodes requested (Monte Cimone schedules exclusively by node).
    pub nodes: usize,
    /// Wall-time limit; used both as the kill limit and the backfill
    /// estimate.
    pub time_limit: SimDuration,
    /// How many node-failure requeues the job survives before it is given
    /// up as [`JobState::Failed`].
    pub retry_budget: u32,
}

impl JobSpec {
    /// Creates a spec with the default retry budget.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the time limit is zero.
    pub fn new(
        name: impl Into<String>,
        user: impl Into<String>,
        nodes: usize,
        time_limit: SimDuration,
    ) -> Self {
        assert!(nodes > 0, "a job needs at least one node");
        assert!(!time_limit.is_zero(), "time limit must be non-zero");
        JobSpec {
            name: name.into(),
            user: user.into(),
            nodes,
            time_limit,
            retry_budget: DEFAULT_RETRY_BUDGET,
        }
    }

    /// Overrides the retry budget (0 = fail permanently on first loss).
    #[must_use]
    pub fn with_retry_budget(mut self, retry_budget: u32) -> Self {
        self.retry_budget = retry_budget;
        self
    }
}

/// Lifecycle states (a subset of Slurm's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Queued, waiting for resources.
    Pending,
    /// Allocated and executing.
    Running,
    /// Finished successfully.
    Completed,
    /// Killed at its wall-time limit.
    TimedOut,
    /// Exited with failure.
    Failed,
    /// Lost its allocation to a node failure and was requeued.
    Requeued,
    /// Cancelled by the user or operator.
    Cancelled,
}

impl JobState {
    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::TimedOut | JobState::Failed | JobState::Cancelled
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Pending => "PENDING",
            JobState::Running => "RUNNING",
            JobState::Completed => "COMPLETED",
            JobState::TimedOut => "TIMEOUT",
            JobState::Failed => "FAILED",
            JobState::Requeued => "REQUEUED",
            JobState::Cancelled => "CANCELLED",
        };
        f.write_str(s)
    }
}

/// A job as tracked by the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    id: JobId,
    spec: JobSpec,
    state: JobState,
    submitted_at: SimTime,
    started_at: Option<SimTime>,
    ended_at: Option<SimTime>,
    allocated_nodes: Vec<String>,
    /// Times the job was requeued after a node failure.
    requeue_count: u32,
    /// When the job last lost its allocation to a node failure.
    last_failure_at: Option<SimTime>,
    /// Earliest time the scheduler may restart the job (requeue backoff).
    eligible_at: Option<SimTime>,
}

impl Job {
    pub(crate) fn new(id: JobId, spec: JobSpec, submitted_at: SimTime) -> Self {
        Job {
            id,
            spec,
            state: JobState::Pending,
            submitted_at,
            started_at: None,
            ended_at: None,
            allocated_nodes: Vec::new(),
            requeue_count: 0,
            last_failure_at: None,
            eligible_at: None,
        }
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The submitted spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Submission time.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// Start time, if it ever started.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// End time, if terminal.
    pub fn ended_at(&self) -> Option<SimTime> {
        self.ended_at
    }

    /// Node names currently (or last) allocated.
    pub fn allocated_nodes(&self) -> &[String] {
        &self.allocated_nodes
    }

    /// How many times a node failure sent the job back to the queue.
    pub fn requeue_count(&self) -> u32 {
        self.requeue_count
    }

    /// When the job last lost its allocation to a node failure.
    pub fn last_failure_at(&self) -> Option<SimTime> {
        self.last_failure_at
    }

    /// Earliest time the scheduler may restart the job, when it is held
    /// in requeue backoff.
    pub fn eligible_at(&self) -> Option<SimTime> {
        self.eligible_at
    }

    /// Whether the job may be started at `now` (not held by backoff).
    pub fn is_eligible(&self, now: SimTime) -> bool {
        self.eligible_at.is_none_or(|t| t <= now)
    }

    /// Whether another requeue would exceed the spec's retry budget.
    pub fn retries_exhausted(&self) -> bool {
        self.requeue_count >= self.spec.retry_budget
    }

    /// Estimated end, used by the backfill scheduler.
    pub fn estimated_end(&self) -> Option<SimTime> {
        self.started_at.map(|s| s + self.spec.time_limit)
    }

    /// Queue wait (start − submit), if started.
    pub fn wait_time(&self) -> Option<SimDuration> {
        self.started_at
            .map(|s| s.saturating_since(self.submitted_at))
    }

    /// Elapsed run time, if terminal.
    pub fn elapsed(&self) -> Option<SimDuration> {
        match (self.started_at, self.ended_at) {
            (Some(s), Some(e)) => Some(e.saturating_since(s)),
            _ => None,
        }
    }

    pub(crate) fn start(&mut self, now: SimTime, nodes: Vec<String>) {
        debug_assert_eq!(self.state, JobState::Pending);
        self.state = JobState::Running;
        self.started_at = Some(now);
        self.allocated_nodes = nodes;
        self.eligible_at = None;
    }

    pub(crate) fn finish(&mut self, now: SimTime, state: JobState) {
        debug_assert!(state.is_terminal());
        self.state = state;
        self.ended_at = Some(now);
    }

    /// Sends the job back to the queue after a node failure at `now`,
    /// recording the failure time and applying exponential backoff:
    /// `BACKOFF_BASE * 2^(requeues-1)`, capped at [`BACKOFF_CAP`].
    /// Returns the backoff applied.
    pub(crate) fn requeue(&mut self, now: SimTime) -> SimDuration {
        self.state = JobState::Pending;
        self.started_at = None;
        self.allocated_nodes.clear();
        self.requeue_count += 1;
        self.last_failure_at = Some(now);
        let doublings = self.requeue_count.saturating_sub(1).min(16);
        let backoff = (BACKOFF_BASE * (1u64 << doublings)).min(BACKOFF_CAP);
        self.eligible_at = Some(now + backoff);
        backoff
    }

    /// Gives the job up as [`JobState::Failed`] after a node failure with
    /// the retry budget already spent, recording the failure time.
    pub(crate) fn fail_permanently(&mut self, now: SimTime) {
        self.last_failure_at = Some(now);
        self.finish(now, JobState::Failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::new("hpl", "alice", 2, SimDuration::from_secs(3600))
    }

    #[test]
    fn lifecycle_start_finish() {
        let mut job = Job::new(JobId(1), spec(), SimTime::from_secs(10));
        assert_eq!(job.state(), JobState::Pending);
        job.start(
            SimTime::from_secs(30),
            vec!["mc-node-01".into(), "mc-node-02".into()],
        );
        assert_eq!(job.state(), JobState::Running);
        assert_eq!(job.wait_time(), Some(SimDuration::from_secs(20)));
        assert_eq!(job.estimated_end(), Some(SimTime::from_secs(3630)));
        job.finish(SimTime::from_secs(100), JobState::Completed);
        assert_eq!(job.elapsed(), Some(SimDuration::from_secs(70)));
        assert!(job.state().is_terminal());
    }

    #[test]
    fn requeue_resets_allocation_and_counts() {
        let mut job = Job::new(JobId(2), spec(), SimTime::ZERO);
        job.start(SimTime::from_secs(5), vec!["mc-node-03".into()]);
        let backoff = job.requeue(SimTime::from_secs(9));
        assert_eq!(job.state(), JobState::Pending);
        assert!(job.allocated_nodes().is_empty());
        assert_eq!(job.requeue_count(), 1);
        assert_eq!(job.started_at(), None);
        assert_eq!(job.last_failure_at(), Some(SimTime::from_secs(9)));
        assert_eq!(backoff, BACKOFF_BASE);
        assert_eq!(
            job.eligible_at(),
            Some(SimTime::from_secs(9) + BACKOFF_BASE)
        );
        assert!(!job.is_eligible(SimTime::from_secs(10)));
        assert!(job.is_eligible(SimTime::from_secs(11)));
    }

    #[test]
    fn backoff_doubles_per_requeue_and_caps() {
        let mut job = Job::new(JobId(3), spec().with_retry_budget(100), SimTime::ZERO);
        let mut expected = BACKOFF_BASE;
        for i in 0..10 {
            let now = SimTime::from_secs(1000 * i);
            job.start(now, vec!["mc-node-01".into()]);
            let backoff = job.requeue(now + SimDuration::from_secs(1));
            assert_eq!(backoff, expected.min(BACKOFF_CAP), "requeue {i}");
            expected = expected + expected;
        }
    }

    #[test]
    fn retry_budget_exhaustion_is_visible() {
        let mut job = Job::new(JobId(4), spec().with_retry_budget(1), SimTime::ZERO);
        assert!(!job.retries_exhausted());
        job.start(SimTime::ZERO, vec!["mc-node-01".into()]);
        job.requeue(SimTime::from_secs(1));
        assert!(job.retries_exhausted());
    }

    #[test]
    fn state_display_matches_slurm_vocabulary() {
        assert_eq!(JobState::Pending.to_string(), "PENDING");
        assert_eq!(JobState::TimedOut.to_string(), "TIMEOUT");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_spec_panics() {
        let _ = JobSpec::new("x", "y", 0, SimDuration::from_secs(1));
    }
}
