//! The batch scheduler: FIFO with optional EASY (conservative) backfill,
//! node-exclusive allocation, and node-failure requeue — the slice of
//! Slurm's behaviour Monte Cimone exercises.

use std::collections::{BTreeMap, BTreeSet};

use cimone_soc::units::SimTime;

use crate::accounting::{JobEvent, JobEventKind};
use crate::job::{Job, JobId, JobSpec, JobState};
use crate::partition::{NodeAvailability, Partition};
use crate::placement::{self, BladeTopology};

/// Queue policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Strict first-in-first-out.
    FifoOnly,
    /// FIFO head plus EASY backfill: later jobs may start out of order if
    /// doing so cannot delay the head job's earliest start.
    #[default]
    Backfill,
}

/// Errors from scheduler operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A job id that was never submitted.
    UnknownJob(JobId),
    /// The job is not in the state the operation requires.
    WrongState {
        /// The job.
        job: JobId,
        /// Its actual state.
        actual: JobState,
    },
    /// A job asked for more nodes than the partition has in service.
    TooLarge {
        /// Nodes requested.
        requested: usize,
        /// Nodes that exist in the partition.
        available: usize,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::UnknownJob(id) => write!(f, "unknown {id}"),
            SchedError::WrongState { job, actual } => {
                write!(f, "{job} is {actual}, operation not applicable")
            }
            SchedError::TooLarge {
                requested,
                available,
            } => write!(
                f,
                "job requests {requested} nodes but the partition has {available}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// The cluster controller (Slurm's `slurmctld`, reduced to what the paper's
/// machine needs).
///
/// # Examples
///
/// ```
/// use cimone_sched::job::JobSpec;
/// use cimone_sched::partition::Partition;
/// use cimone_sched::scheduler::Scheduler;
/// use cimone_soc::units::{SimDuration, SimTime};
///
/// let mut sched = Scheduler::new(Partition::monte_cimone());
/// let id = sched.submit(
///     JobSpec::new("hpl-8node", "alice", 8, SimDuration::from_secs(4000)),
///     SimTime::ZERO,
/// )?;
/// let started = sched.schedule(SimTime::ZERO);
/// assert_eq!(started, vec![id]);
/// # Ok::<(), cimone_sched::scheduler::SchedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    partition: Partition,
    policy: SchedulingPolicy,
    jobs: BTreeMap<JobId, Job>,
    /// Pending jobs in submission order.
    queue: Vec<JobId>,
    /// Running jobs.
    running: Vec<JobId>,
    next_id: u64,
    /// Allocated nodes with a drain pending: they leave service when
    /// their job finishes instead of returning to the idle pool.
    draining: BTreeSet<String>,
    /// Requeue/retry events since the last [`Scheduler::take_events`].
    events: Vec<JobEvent>,
    /// Blade topology for placement, when known. `None` falls back to
    /// plain sorted-hostname allocation.
    topology: Option<BladeTopology>,
    /// Blades the engine marked degraded (browned-out rail, draining):
    /// placement steers new work away while healthy blades have room.
    degraded_blades: BTreeSet<usize>,
    /// Nodes the engine marked avoided (spill-buffering a checkpoint that
    /// exists nowhere else): placement takes them only as a last resort.
    avoided_nodes: BTreeSet<String>,
}

impl Scheduler {
    /// Creates a scheduler over `partition` with backfill enabled.
    pub fn new(partition: Partition) -> Self {
        Scheduler::with_policy(partition, SchedulingPolicy::Backfill)
    }

    /// Creates a scheduler with an explicit policy.
    pub fn with_policy(partition: Partition, policy: SchedulingPolicy) -> Self {
        Scheduler {
            partition,
            policy,
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            running: Vec::new(),
            next_id: 1,
            draining: BTreeSet::new(),
            events: Vec::new(),
            topology: None,
            degraded_blades: BTreeSet::new(),
            avoided_nodes: BTreeSet::new(),
        }
    }

    /// Installs the blade topology blade-aware placement works from.
    pub fn set_topology(&mut self, topology: BladeTopology) {
        self.topology = Some(topology);
    }

    /// The installed blade topology, if any.
    pub fn topology(&self) -> Option<&BladeTopology> {
        self.topology.as_ref()
    }

    /// Marks a blade degraded (or clears the mark): placement steers new
    /// work away from degraded blades while healthy ones have room.
    /// Ignored without a topology.
    pub fn set_blade_degraded(&mut self, blade: usize, degraded: bool) {
        if degraded {
            self.degraded_blades.insert(blade);
        } else {
            self.degraded_blades.remove(&blade);
        }
    }

    /// Blades currently marked degraded.
    pub fn degraded_blades(&self) -> &BTreeSet<usize> {
        &self.degraded_blades
    }

    /// Marks a node avoided (or clears the mark): placement fills jobs
    /// from every other idle node first. Unlike a drain this never blocks
    /// an allocation — an avoided node still serves when the job cannot
    /// fill without it.
    pub fn set_node_avoided(&mut self, hostname: &str, avoided: bool) {
        if avoided {
            self.avoided_nodes.insert(hostname.to_owned());
        } else {
            self.avoided_nodes.remove(hostname);
        }
    }

    /// Nodes currently soft-avoided by placement.
    pub fn avoided_nodes(&self) -> &BTreeSet<String> {
        &self.avoided_nodes
    }

    /// The partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The queue policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Looks up a job.
    ///
    /// # Errors
    ///
    /// Fails for ids that were never submitted.
    pub fn job(&self, id: JobId) -> Result<&Job, SchedError> {
        self.jobs.get(&id).ok_or(SchedError::UnknownJob(id))
    }

    /// All jobs ever submitted, by id.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Pending job ids in queue order (`squeue`).
    pub fn pending(&self) -> &[JobId] {
        &self.queue
    }

    /// Running job ids.
    pub fn running(&self) -> &[JobId] {
        &self.running
    }

    /// Whether a [`Scheduler::schedule`] call at `now` *might* start a
    /// job. `false` is a proof, not a heuristic: every pending job is
    /// either held in backoff or larger than the idle pool, so the FIFO
    /// phase starts nothing, and with no runnable candidate the backfill
    /// pass cannot either (with nothing running the head's shadow start
    /// *is* `now`, so `ends_before_shadow` never holds and `extra_nodes`
    /// only admits jobs that already fit the idle pool). `true` may still
    /// start nothing — e.g. an eligible narrow job queued behind a
    /// blocked head that consumed the extra-node budget. A due-time clock
    /// therefore skips `schedule` only on ticks where this is `false`.
    pub fn would_start_any(&self, now: SimTime) -> bool {
        self.queue.iter().any(|id| {
            let job = &self.jobs[id];
            job.is_eligible(now) && job.spec().nodes <= self.partition.idle_count()
        })
    }

    /// The earliest future instant at which the scheduler's decisions can
    /// change of their own accord: the next backoff release among pending
    /// jobs and the next estimated completion among running jobs. External
    /// inputs (job submission, node failure/repair, fencing) reset it.
    pub fn next_due(&self, now: SimTime) -> Option<SimTime> {
        let backoff = self
            .queue
            .iter()
            .filter_map(|id| self.jobs[id].eligible_at())
            .filter(|&t| t > now)
            .min();
        let completion = self
            .running
            .iter()
            .filter_map(|id| self.jobs[id].estimated_end())
            .filter(|&t| t > now)
            .min();
        match (backoff, completion) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// Fails with [`SchedError::TooLarge`] if the request can never be
    /// satisfied by this partition.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> Result<JobId, SchedError> {
        if spec.nodes > self.partition.len() {
            return Err(SchedError::TooLarge {
                requested: spec.nodes,
                available: self.partition.len(),
            });
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(id, Job::new(id, spec, now));
        self.queue.push(id);
        Ok(id)
    }

    /// Runs one scheduling pass at `now`, starting every job the policy
    /// allows. A job held in requeue backoff keeps its queue position and
    /// priority: it cannot start, but like a too-large head it blocks the
    /// FIFO scan, so later jobs overtake it only through backfill (which
    /// respects its reservation). Returns the started ids in start order.
    pub fn schedule(&mut self, now: SimTime) -> Vec<JobId> {
        let mut started = Vec::new();

        // FIFO phase: start jobs in queue order while they fit. The first
        // job that cannot start — too large for the idle pool, or held in
        // backoff — becomes the blocked head for the backfill pass.
        let mut head_blocked = false;
        while !self.queue.is_empty() {
            let id = self.queue[0];
            let need = self.jobs[&id].spec().nodes;
            if self.jobs[&id].is_eligible(now) && need <= self.partition.idle_count() {
                self.start_job(id, now);
                self.queue.remove(0);
                started.push(id);
            } else {
                head_blocked = true;
                break;
            }
        }

        if head_blocked && self.policy == SchedulingPolicy::Backfill {
            started.extend(self.backfill_pass(now));
        }
        started
    }

    /// EASY backfill: compute the head job's shadow start, then start any
    /// later eligible job that fits now and cannot delay the head.
    fn backfill_pass(&mut self, now: SimTime) -> Vec<JobId> {
        let head = self.queue[0];
        let head_need = self.jobs[&head].spec().nodes;

        // Walk running jobs by estimated end, accumulating freed nodes
        // until the head fits; that point is the shadow time.
        let mut ends: Vec<(SimTime, usize)> = self
            .running
            .iter()
            .map(|id| {
                let job = &self.jobs[id];
                (
                    job.estimated_end().expect("running jobs have an estimate"),
                    job.spec().nodes,
                )
            })
            .collect();
        ends.sort();
        let mut free = self.partition.idle_count();
        let mut shadow_time = now;
        let mut free_at_shadow = free;
        for (end, nodes) in ends {
            if free >= head_need {
                break;
            }
            free += nodes;
            shadow_time = end;
            free_at_shadow = free;
        }
        // Nodes the head will leave unused at its shadow start: a backfill
        // job narrower than this can overrun the shadow time harmlessly.
        // Each overrunning job *consumes* part of this pool — without the
        // decrement, two overrunners could jointly occupy nodes the head
        // needs at its shadow time and delay it (a bug the property test
        // `backfill_never_delays_the_blocked_head` caught).
        let mut extra_nodes = free_at_shadow.saturating_sub(head_need);

        let mut started = Vec::new();
        let mut i = 1;
        while i < self.queue.len() {
            let id = self.queue[i];
            if !self.jobs[&id].is_eligible(now) {
                i += 1;
                continue;
            }
            let spec = self.jobs[&id].spec().clone();
            let fits_now = spec.nodes <= self.partition.idle_count();
            let ends_before_shadow = now + spec.time_limit <= shadow_time;
            let within_extra = spec.nodes <= extra_nodes;
            if fits_now && (ends_before_shadow || within_extra) {
                if !ends_before_shadow {
                    extra_nodes -= spec.nodes;
                }
                self.start_job(id, now);
                self.queue.remove(i);
                started.push(id);
            } else {
                i += 1;
            }
        }
        started
    }

    fn start_job(&mut self, id: JobId, now: SimTime) {
        let need = self.jobs[&id].spec().nodes;
        let allocation = placement::allocate(
            &self.partition,
            self.topology.as_ref(),
            &self.degraded_blades,
            &self.avoided_nodes,
            need,
        );
        debug_assert_eq!(allocation.len(), need, "allocation underflow");
        for node in &allocation {
            self.partition
                .set_availability(node, NodeAvailability::Allocated);
        }
        self.jobs
            .get_mut(&id)
            .expect("started job exists")
            .start(now, allocation);
        self.running.push(id);
    }

    /// Marks a running job finished with `state` and frees its nodes.
    ///
    /// # Errors
    ///
    /// Fails for unknown jobs or jobs that are not running.
    pub fn complete(&mut self, id: JobId, now: SimTime, state: JobState) -> Result<(), SchedError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedError::UnknownJob(id))?;
        if job.state() != JobState::Running {
            return Err(SchedError::WrongState {
                job: id,
                actual: job.state(),
            });
        }
        let nodes: Vec<String> = job.allocated_nodes().to_vec();
        job.finish(now, state);
        for node in nodes {
            // Keep nodes that failed out of service; nodes with a drain
            // pending leave service now that their job is gone.
            if self.partition.availability(&node) == Some(NodeAvailability::Allocated) {
                let next = if self.draining.remove(&node) {
                    NodeAvailability::Drained
                } else {
                    NodeAvailability::Idle
                };
                self.partition.set_availability(&node, next);
            }
        }
        self.running.retain(|r| *r != id);
        Ok(())
    }

    /// Takes `node` out of service at `now`; *every* job running on it is
    /// requeued at the head of the queue (Slurm's `--requeue` behaviour)
    /// with its failure time recorded and exponential backoff applied,
    /// and its other nodes are freed. A victim whose retry budget is
    /// already spent is instead marked [`JobState::Failed`].
    ///
    /// Each outcome is appended to the scheduler event log
    /// ([`Scheduler::events`]).
    ///
    /// Returns all victim jobs, in running order (empty for an unknown or
    /// idle node). Monte Cimone allocates whole nodes exclusively, so
    /// today at most one victim is possible — but the contract covers
    /// co-scheduled jobs so shared-node allocation cannot silently drop
    /// victims later.
    pub fn fail_node(&mut self, node: &str, now: SimTime) -> Vec<JobId> {
        if self.partition.availability(node).is_none() {
            return Vec::new();
        }
        self.partition
            .set_availability(node, NodeAvailability::Down);
        self.draining.remove(node);
        let victims: Vec<JobId> = self
            .running
            .iter()
            .copied()
            .filter(|id| self.jobs[id].allocated_nodes().iter().any(|n| n == node))
            .collect();
        for &id in &victims {
            let job = self.jobs.get_mut(&id).expect("victim exists");
            let nodes: Vec<String> = job.allocated_nodes().to_vec();
            let exhausted = job.retries_exhausted();
            if exhausted {
                job.fail_permanently(now);
                self.events.push(JobEvent {
                    at: now,
                    job_id: id.0,
                    kind: JobEventKind::RetriesExhausted {
                        node: node.to_owned(),
                    },
                });
            } else {
                let backoff = job.requeue(now);
                self.events.push(JobEvent {
                    at: now,
                    job_id: id.0,
                    kind: JobEventKind::Requeued {
                        node: node.to_owned(),
                        backoff,
                    },
                });
            }
            for n in nodes {
                if self.partition.availability(&n) == Some(NodeAvailability::Allocated) {
                    let next = if self.draining.remove(&n) {
                        NodeAvailability::Drained
                    } else {
                        NodeAvailability::Idle
                    };
                    self.partition.set_availability(&n, next);
                }
            }
            self.running.retain(|r| *r != id);
            if !exhausted {
                self.queue.insert(0, id);
            }
        }
        victims
    }

    /// Administratively drains `node` (Slurm's `scontrol update
    /// state=drain`): an idle node leaves service immediately; an
    /// allocated node finishes its current job first, then leaves
    /// service. Returns `false` for unknown nodes.
    pub fn drain_node(&mut self, node: &str) -> bool {
        match self.partition.availability(node) {
            None => false,
            Some(NodeAvailability::Idle) => {
                self.partition
                    .set_availability(node, NodeAvailability::Drained);
                true
            }
            Some(NodeAvailability::Allocated) => {
                self.draining.insert(node.to_owned());
                true
            }
            // Already out of service (or drain already pending).
            Some(NodeAvailability::Drained) | Some(NodeAvailability::Down) => true,
        }
    }

    /// Returns a failed or drained node to service.
    pub fn resume_node(&mut self, node: &str) {
        self.draining.remove(node);
        if matches!(
            self.partition.availability(node),
            Some(NodeAvailability::Down) | Some(NodeAvailability::Drained)
        ) {
            self.partition
                .set_availability(node, NodeAvailability::Idle);
        }
    }

    /// Requeue/retry events accumulated since the last
    /// [`Scheduler::take_events`], in occurrence order.
    pub fn events(&self) -> &[JobEvent] {
        &self.events
    }

    /// Drains the accumulated events (for transfer into an
    /// [`crate::accounting::AccountingLog`]).
    pub fn take_events(&mut self) -> Vec<JobEvent> {
        std::mem::take(&mut self.events)
    }

    /// Cancels a pending job.
    ///
    /// # Errors
    ///
    /// Fails for unknown or non-pending jobs (cancel-while-running is
    /// modelled as [`Scheduler::complete`] with [`JobState::Cancelled`]).
    pub fn cancel_pending(&mut self, id: JobId, now: SimTime) -> Result<(), SchedError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedError::UnknownJob(id))?;
        if job.state() != JobState::Pending {
            return Err(SchedError::WrongState {
                job: id,
                actual: job.state(),
            });
        }
        job.finish(now, JobState::Cancelled);
        self.queue.retain(|q| *q != id);
        Ok(())
    }

    /// Sanity invariants (used by tests and debug assertions):
    ///
    /// * every running job is in [`JobState::Running`];
    /// * no node is allocated to two running jobs at once;
    /// * every node a running job claims is marked `Allocated`;
    /// * every `Allocated` node is claimed by exactly one running job;
    /// * every queued job is pending.
    pub fn check_invariants(&self) -> bool {
        let mut claimed = BTreeSet::new();
        for id in &self.running {
            let job = &self.jobs[id];
            if job.state() != JobState::Running {
                return false;
            }
            for node in job.allocated_nodes() {
                if !claimed.insert(node.as_str()) {
                    return false; // double allocation
                }
                if self.partition.availability(node) != Some(NodeAvailability::Allocated) {
                    return false;
                }
            }
        }
        let allocated = self
            .partition
            .iter()
            .filter(|(_, a)| *a == NodeAvailability::Allocated)
            .count();
        if allocated != claimed.len() {
            return false;
        }
        self.queue
            .iter()
            .all(|id| self.jobs[id].state() == JobState::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimone_soc::units::SimDuration;

    fn spec(nodes: usize, secs: u64) -> JobSpec {
        JobSpec::new("job", "user", nodes, SimDuration::from_secs(secs))
    }

    #[test]
    fn would_start_any_false_really_means_schedule_is_a_noop() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        // One node down: an 8-node job can never fit the 7 idle nodes.
        s.fail_node("mc-node-01", SimTime::ZERO);
        let a = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        assert!(!s.would_start_any(SimTime::from_secs(10)));
        assert!(s.schedule(SimTime::from_secs(10)).is_empty());
        // Repair flips the answer, and next_due stays quiet (no backoff).
        s.resume_node("mc-node-01");
        assert_eq!(s.next_due(SimTime::from_secs(10)), None);
        assert!(s.would_start_any(SimTime::from_secs(10)));
        assert_eq!(s.schedule(SimTime::from_secs(10)), vec![a]);
        // A running job surfaces its estimated completion as a due time.
        let end = s.job(a).unwrap().estimated_end().unwrap();
        assert_eq!(s.next_due(SimTime::from_secs(10)), Some(end));
        assert!(s.check_invariants());
    }

    #[test]
    fn backoff_release_is_the_next_due_time() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(4, 100), SimTime::ZERO).unwrap();
        let started = s.schedule(SimTime::ZERO);
        assert_eq!(started, vec![a]);
        // Crash the job's first node: it requeues with a backoff.
        let node = s.job(a).unwrap().allocated_nodes()[0].clone();
        s.fail_node(&node, SimTime::from_secs(5));
        let release = s
            .job(a)
            .unwrap()
            .eligible_at()
            .expect("requeued jobs back off");
        assert!(release > SimTime::from_secs(5));
        assert_eq!(s.next_due(SimTime::from_secs(5)), Some(release));
        // Held in backoff: schedule provably starts nothing until release.
        assert!(!s.would_start_any(release - SimDuration::from_secs(1)));
        assert!(s.would_start_any(release));
    }

    #[test]
    fn fifo_starts_in_order_until_full() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(4, 100), SimTime::ZERO).unwrap();
        let b = s.submit(spec(4, 100), SimTime::ZERO).unwrap();
        let c = s.submit(spec(4, 100), SimTime::ZERO).unwrap();
        let started = s.schedule(SimTime::ZERO);
        assert_eq!(started, vec![a, b]);
        assert_eq!(s.pending(), &[c]);
        assert!(s.check_invariants());
    }

    #[test]
    fn completion_frees_nodes_for_the_queue() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        let b = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        s.complete(a, SimTime::from_secs(50), JobState::Completed)
            .unwrap();
        let started = s.schedule(SimTime::from_secs(50));
        assert_eq!(started, vec![b]);
        assert!(s.check_invariants());
    }

    #[test]
    fn backfill_starts_short_narrow_jobs_early() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        // Fill 6 nodes for a long time.
        let long = s.submit(spec(6, 10_000), SimTime::ZERO).unwrap();
        // Head job wants all 8: must wait for `long`.
        let head = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        // Short 2-node job fits the idle nodes and ends before the shadow.
        let small = s.submit(spec(2, 100), SimTime::ZERO).unwrap();
        let started = s.schedule(SimTime::ZERO);
        assert!(started.contains(&long));
        assert!(
            started.contains(&small),
            "backfill should start the small job"
        );
        assert!(!started.contains(&head));
        assert!(s.check_invariants());
    }

    #[test]
    fn backfill_never_delays_the_head_job() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let _long = s.submit(spec(6, 1_000), SimTime::ZERO).unwrap();
        let _head = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        // This job fits the 2 idle nodes but would run PAST the shadow time
        // (t=1000) and needs nodes the head will use: must not start.
        let blocker = s.submit(spec(2, 5_000), SimTime::ZERO).unwrap();
        let started = s.schedule(SimTime::ZERO);
        assert!(!started.contains(&blocker));
    }

    #[test]
    fn fifo_only_policy_never_backfills() {
        let mut s = Scheduler::with_policy(Partition::monte_cimone(), SchedulingPolicy::FifoOnly);
        let _long = s.submit(spec(6, 10_000), SimTime::ZERO).unwrap();
        let _head = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        let small = s.submit(spec(2, 10), SimTime::ZERO).unwrap();
        let started = s.schedule(SimTime::ZERO);
        assert!(!started.contains(&small));
    }

    #[test]
    fn node_failure_requeues_the_victim_at_queue_head() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(8, 1_000), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let _queued = s.submit(spec(1, 10), SimTime::from_secs(1)).unwrap();
        let victims = s.fail_node("mc-node-07", SimTime::from_secs(10));
        assert_eq!(victims, vec![a]);
        assert_eq!(s.pending()[0], a);
        assert_eq!(s.job(a).unwrap().state(), JobState::Pending);
        assert_eq!(s.job(a).unwrap().requeue_count(), 1);
        // 7 nodes in service: the 8-node job cannot restart yet.
        let started = s.schedule(SimTime::from_secs(10));
        assert!(!started.contains(&a));
        s.resume_node("mc-node-07");
        let started = s.schedule(SimTime::from_secs(20));
        assert!(started.contains(&a));
        assert!(s.check_invariants());
    }

    #[test]
    fn failure_records_time_and_emits_requeue_event() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(2, 1_000), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let nodes = s.job(a).unwrap().allocated_nodes().to_vec();
        s.fail_node(&nodes[0], SimTime::from_secs(42));
        let job = s.job(a).unwrap();
        assert_eq!(job.last_failure_at(), Some(SimTime::from_secs(42)));
        assert!(job.eligible_at().unwrap() > SimTime::from_secs(42));
        let events = s.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, SimTime::from_secs(42));
        assert_eq!(events[0].job_id, a.0);
        assert!(matches!(
            &events[0].kind,
            JobEventKind::Requeued { node, .. } if *node == nodes[0]
        ));
        assert!(s.events().is_empty(), "take_events drains");
        assert!(s.check_invariants());
    }

    #[test]
    fn exhausted_retry_budget_fails_the_job() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s
            .submit(spec(1, 1_000).with_retry_budget(1), SimTime::ZERO)
            .unwrap();
        s.schedule(SimTime::ZERO);
        let node = s.job(a).unwrap().allocated_nodes()[0].clone();
        // First failure: requeued with backoff.
        s.fail_node(&node, SimTime::from_secs(10));
        assert_eq!(s.job(a).unwrap().state(), JobState::Pending);
        s.resume_node(&node);
        s.schedule(SimTime::from_secs(100));
        let node = s.job(a).unwrap().allocated_nodes()[0].clone();
        // Second failure: budget spent, job fails permanently.
        s.fail_node(&node, SimTime::from_secs(110));
        let job = s.job(a).unwrap();
        assert_eq!(job.state(), JobState::Failed);
        assert_eq!(job.ended_at(), Some(SimTime::from_secs(110)));
        assert!(s.pending().is_empty());
        assert!(s.running().is_empty());
        let events = s.take_events();
        assert!(matches!(
            events.last().unwrap().kind,
            JobEventKind::RetriesExhausted { .. }
        ));
        assert!(s.check_invariants());
    }

    #[test]
    fn backoff_holds_the_requeued_job_until_eligible() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(1, 1_000), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let node = s.job(a).unwrap().allocated_nodes()[0].clone();
        s.fail_node(&node, SimTime::from_secs(10));
        let eligible_at = s.job(a).unwrap().eligible_at().unwrap();
        // Plenty of idle nodes, but the backoff hold wins.
        assert!(s.schedule(SimTime::from_secs(10)).is_empty());
        assert!(s.schedule(eligible_at).contains(&a));
        assert!(s.check_invariants());
    }

    #[test]
    fn drain_idle_node_leaves_service_immediately() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        assert!(s.drain_node("mc-node-05"));
        assert_eq!(
            s.partition().availability("mc-node-05"),
            Some(NodeAvailability::Drained)
        );
        assert_eq!(s.partition().in_service_count(), 7);
        assert!(!s.drain_node("mc-node-99"));
        // An 8-node job can no longer be placed.
        let a = s.submit(spec(8, 10), SimTime::ZERO).unwrap();
        assert!(!s.schedule(SimTime::ZERO).contains(&a));
        s.resume_node("mc-node-05");
        assert!(s.schedule(SimTime::from_secs(1)).contains(&a));
    }

    #[test]
    fn drain_allocated_node_waits_for_job_completion() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let a = s.submit(spec(2, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let node = s.job(a).unwrap().allocated_nodes()[0].clone();
        assert!(s.drain_node(&node));
        // Still allocated while the job runs.
        assert_eq!(
            s.partition().availability(&node),
            Some(NodeAvailability::Allocated)
        );
        s.complete(a, SimTime::from_secs(100), JobState::Completed)
            .unwrap();
        assert_eq!(
            s.partition().availability(&node),
            Some(NodeAvailability::Drained)
        );
        assert!(s.check_invariants());
    }

    #[test]
    fn oversized_jobs_are_rejected_at_submit() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let err = s.submit(spec(9, 10), SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            SchedError::TooLarge {
                requested: 9,
                available: 8
            }
        );
    }

    #[test]
    fn cancel_pending_removes_from_queue() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let _running = s.submit(spec(8, 100), SimTime::ZERO).unwrap();
        s.schedule(SimTime::ZERO);
        let waiting = s.submit(spec(1, 10), SimTime::ZERO).unwrap();
        s.cancel_pending(waiting, SimTime::from_secs(5)).unwrap();
        assert!(s.pending().is_empty());
        assert_eq!(s.job(waiting).unwrap().state(), JobState::Cancelled);
    }

    #[test]
    fn complete_rejects_wrong_states() {
        let mut s = Scheduler::new(Partition::monte_cimone());
        let id = s.submit(spec(1, 10), SimTime::ZERO).unwrap();
        let err = s
            .complete(id, SimTime::ZERO, JobState::Completed)
            .unwrap_err();
        assert!(matches!(err, SchedError::WrongState { .. }));
        assert!(matches!(
            s.complete(JobId(999), SimTime::ZERO, JobState::Completed),
            Err(SchedError::UnknownJob(JobId(999)))
        ));
    }
}
