//! Job accounting — the `sacct` view of the machine.

use cimone_soc::units::{Energy, SimDuration, SimTime};

use crate::job::{Job, JobState};

/// One finished job's accounting record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id number.
    pub job_id: u64,
    /// Job name.
    pub name: String,
    /// Submitting user.
    pub user: String,
    /// Final state.
    pub state: JobState,
    /// Nodes used.
    pub nodes: Vec<String>,
    /// Queue wait.
    pub wait: SimDuration,
    /// Run time.
    pub elapsed: SimDuration,
    /// Node-seconds consumed.
    pub node_seconds: f64,
    /// Energy attributed to the job, if the monitoring stack supplied it.
    pub energy: Option<Energy>,
    /// Times the job was requeued by node failures before finishing.
    pub requeues: u32,
    /// When the job last lost an allocation to a node failure, if ever.
    pub last_failure_at: Option<SimTime>,
}

impl JobRecord {
    /// Builds a record from a terminal job.
    ///
    /// Returns `None` for jobs that never started or are not terminal.
    pub fn from_job(job: &Job) -> Option<Self> {
        if !job.state().is_terminal() {
            return None;
        }
        let elapsed = job.elapsed()?;
        Some(JobRecord {
            job_id: job.id().0,
            name: job.spec().name.clone(),
            user: job.spec().user.clone(),
            state: job.state(),
            nodes: job.allocated_nodes().to_vec(),
            wait: job.wait_time().unwrap_or(SimDuration::ZERO),
            elapsed,
            node_seconds: elapsed.as_secs_f64() * job.allocated_nodes().len() as f64,
            energy: None,
            requeues: job.requeue_count(),
            last_failure_at: job.last_failure_at(),
        })
    }

    /// Attaches measured energy.
    pub fn with_energy(mut self, energy: Energy) -> Self {
        self.energy = Some(energy);
        self
    }
}

/// A scheduler-level job event worth auditing (the `sacct` event log).
#[derive(Debug, Clone, PartialEq)]
pub enum JobEventKind {
    /// The job lost `node` to a failure and went back to the queue with a
    /// backoff hold.
    Requeued {
        /// The failed node.
        node: String,
        /// How long the job is held before it may restart.
        backoff: SimDuration,
    },
    /// The job lost `node` with its retry budget already spent and was
    /// given up as failed.
    RetriesExhausted {
        /// The failed node.
        node: String,
    },
}

/// One timestamped entry in the scheduler event log.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// When it happened.
    pub at: SimTime,
    /// The affected job.
    pub job_id: u64,
    /// What happened.
    pub kind: JobEventKind,
}

/// The accounting database.
///
/// # Examples
///
/// ```
/// use cimone_sched::accounting::AccountingLog;
///
/// let log = AccountingLog::new();
/// assert_eq!(log.len(), 0);
/// assert_eq!(log.utilisation(8, cimone_soc::units::SimDuration::from_secs(100)), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccountingLog {
    records: Vec<JobRecord>,
    events: Vec<JobEvent>,
}

impl AccountingLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AccountingLog::default()
    }

    /// Appends a record.
    pub fn record(&mut self, record: JobRecord) {
        self.records.push(record);
    }

    /// All records in completion order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Appends a timestamped job event (requeue, retry exhaustion, …).
    pub fn record_event(&mut self, event: JobEvent) {
        self.events.push(event);
    }

    /// Appends many events at once (e.g. drained from the scheduler).
    pub fn record_events(&mut self, events: impl IntoIterator<Item = JobEvent>) {
        self.events.extend(events);
    }

    /// All events in occurrence order.
    pub fn events(&self) -> &[JobEvent] {
        &self.events
    }

    /// Events for one job, in occurrence order.
    pub fn events_for(&self, job_id: u64) -> impl Iterator<Item = &JobEvent> {
        self.events.iter().filter(move |e| e.job_id == job_id)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records for one user (`sacct -u`).
    pub fn by_user<'a>(&'a self, user: &'a str) -> impl Iterator<Item = &'a JobRecord> {
        self.records.iter().filter(move |r| r.user == user)
    }

    /// Machine utilisation over a horizon: consumed node-seconds divided by
    /// available node-seconds.
    pub fn utilisation(&self, total_nodes: usize, horizon: SimDuration) -> f64 {
        let available = total_nodes as f64 * horizon.as_secs_f64();
        if available == 0.0 {
            return 0.0;
        }
        let consumed: f64 = self.records.iter().map(|r| r.node_seconds).sum();
        consumed / available
    }

    /// Mean queue wait across completed jobs.
    pub fn mean_wait(&self) -> Option<SimDuration> {
        if self.records.is_empty() {
            return None;
        }
        let total: u64 = self.records.iter().map(|r| r.wait.as_micros()).sum();
        Some(SimDuration::from_micros(total / self.records.len() as u64))
    }

    /// The makespan: latest completion offset among records, measured from
    /// `origin`.
    pub fn makespan(&self, origin: SimTime, ends: &[SimTime]) -> SimDuration {
        ends.iter()
            .map(|e| e.saturating_since(origin))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobSpec};

    fn finished_job() -> Job {
        let mut job = Job::new(
            JobId(1),
            JobSpec::new("hpl", "alice", 2, SimDuration::from_secs(600)),
            SimTime::ZERO,
        );
        job.start(SimTime::from_secs(10), vec!["a".into(), "b".into()]);
        job.finish(SimTime::from_secs(110), JobState::Completed);
        job
    }

    #[test]
    fn record_captures_the_essentials() {
        let r = JobRecord::from_job(&finished_job()).unwrap();
        assert_eq!(r.job_id, 1);
        assert_eq!(r.wait, SimDuration::from_secs(10));
        assert_eq!(r.elapsed, SimDuration::from_secs(100));
        assert_eq!(r.node_seconds, 200.0);
    }

    #[test]
    fn non_terminal_jobs_have_no_record() {
        let job = Job::new(
            JobId(2),
            JobSpec::new("x", "y", 1, SimDuration::from_secs(1)),
            SimTime::ZERO,
        );
        assert!(JobRecord::from_job(&job).is_none());
    }

    #[test]
    fn utilisation_and_wait_statistics() {
        let mut log = AccountingLog::new();
        log.record(JobRecord::from_job(&finished_job()).unwrap());
        // 200 node-seconds over 8 nodes * 100 s = 0.25.
        assert!((log.utilisation(8, SimDuration::from_secs(100)) - 0.25).abs() < 1e-12);
        assert_eq!(log.mean_wait(), Some(SimDuration::from_secs(10)));
    }

    #[test]
    fn by_user_filters() {
        let mut log = AccountingLog::new();
        log.record(JobRecord::from_job(&finished_job()).unwrap());
        assert_eq!(log.by_user("alice").count(), 1);
        assert_eq!(log.by_user("bob").count(), 0);
    }

    #[test]
    fn event_log_orders_and_filters() {
        let mut log = AccountingLog::new();
        log.record_event(JobEvent {
            at: SimTime::from_secs(10),
            job_id: 1,
            kind: JobEventKind::Requeued {
                node: "mc-node-07".into(),
                backoff: SimDuration::from_secs(2),
            },
        });
        log.record_event(JobEvent {
            at: SimTime::from_secs(30),
            job_id: 2,
            kind: JobEventKind::RetriesExhausted {
                node: "mc-node-03".into(),
            },
        });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events_for(1).count(), 1);
        assert!(matches!(
            &log.events_for(2).next().unwrap().kind,
            JobEventKind::RetriesExhausted { node } if node == "mc-node-03"
        ));
    }

    #[test]
    fn energy_attachment() {
        let r = JobRecord::from_job(&finished_job())
            .unwrap()
            .with_energy(Energy::from_joules(1200.0));
        assert_eq!(r.energy, Some(Energy::from_joules(1200.0)));
    }
}
