//! Job-level checkpoint metadata and the checkpoint store on the NFS
//! master export.
//!
//! The engine's checkpoint/restart path snapshots each running job's
//! progress at a configurable cadence and replays it after a node failure,
//! so a requeued job resumes from its last checkpoint instead of from
//! zero. The snapshot is *metadata* at cluster scale — the kernels crate
//! proves the per-kernel state round-trips losslessly
//! ([`cimone_kernels::checkpoint`]); here the engine tracks which restart
//! point each job holds, what it cost to write, and where it is stored.
//!
//! Checkpoints live on the in-sim NFS master export, so an injected
//! [`crate::faults::FaultKind::NfsStall`] delays in-flight checkpoint
//! writes exactly as it delays every other filesystem client.

use std::collections::BTreeMap;
use std::fmt;

use cimone_soc::units::{SimDuration, SimTime};

/// The export checkpoints are kept on.
const CKPT_EXPORT: &str = "/ckpt";

/// How many record generations (newest first) the store retains per job
/// for corruption fallback: a snapshot whose CRC fails on restore is
/// quarantined and the walk falls back to the next-newest generation.
pub const GENERATION_DEPTH: usize = 4;

/// Fixed quiesce-barrier and metadata overhead of one checkpoint write.
const WRITE_BARRIER: SimDuration = SimDuration::from_secs(1);

/// Effective rate at which application state drains to the master node's
/// disks over the Gigabit Ethernet every NFS client shares, bytes per
/// second (~117 MB/s).
const DRAIN_BYTES_PER_SEC: f64 = 117.0e6;

/// First retry delay when a drained write cannot commit because the
/// export is offline; each further attempt doubles it.
const RETRY_BASE: SimDuration = SimDuration::from_secs(4);

/// Ceiling on the exponential backoff between commit retries.
const RETRY_CAP: SimDuration = SimDuration::from_secs(64);

/// Deferred commit attempts allowed before the in-flight write is
/// abandoned (its pending progress dropped) and the cadence resumes.
pub(crate) const MAX_RETRIES: u32 = 5;

/// How long a checkpoint of `bytes` of application state pauses the job
/// (the overhead side of the overhead-vs-rework tradeoff the recovery
/// sweep measures): a 1 s barrier plus the drain at ~117 MB/s.
pub(crate) fn write_cost(bytes: f64) -> SimDuration {
    WRITE_BARRIER + SimDuration::from_secs_f64(bytes.max(0.0) / DRAIN_BYTES_PER_SEC)
}

/// The exponential-backoff delay before commit retry number
/// `retries + 1`: `4 s · 2^retries`, capped at 64 s.
pub(crate) fn retry_delay(retries: u32) -> SimDuration {
    let base = RETRY_BASE.as_secs_f64();
    let cap = RETRY_CAP.as_secs_f64();
    SimDuration::from_secs_f64((base * 2f64.powi(retries.min(31) as i32)).min(cap))
}

/// CRC-64/ECMA-182 lookup table, built at compile time.
const CRC64_TABLE: [u64; 256] = {
    // ECMA-182 polynomial (as used by XZ), reflected form.
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/ECMA-182 over `bytes` — the integrity check every serialized
/// snapshot carries. Any single-bit (indeed any ≤ 64-bit burst) error in
/// a record is guaranteed to change the checksum.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Where a job resumes inside its kernel: the natural restart unit of
/// each workload in the paper's campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPosition {
    /// HPL / blocked LU: panels of the factorisation completed.
    HplPanel(usize),
    /// STREAM: full copy/scale/add/triad iterations completed.
    StreamIteration(u64),
    /// QE LAX: diagonalisation sweeps completed.
    LaxSweep(usize),
    /// Workloads without a finer-grained unit: the raw progress fraction.
    Fraction,
}

impl fmt::Display for CheckpointPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointPosition::HplPanel(p) => write!(f, "hpl-panel:{p}"),
            CheckpointPosition::StreamIteration(i) => write!(f, "stream-iter:{i}"),
            CheckpointPosition::LaxSweep(s) => write!(f, "lax-sweep:{s}"),
            CheckpointPosition::Fraction => write!(f, "fraction"),
        }
    }
}

/// One committed checkpoint: the restart point a job falls back to when a
/// node failure evicts it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCheckpoint {
    /// The owning job.
    pub job_id: u64,
    /// Work fraction completed at the snapshot, as IEEE-754 bits so the
    /// wire format round-trips exactly.
    progress_bits: u64,
    /// Kernel-level restart position.
    pub position: CheckpointPosition,
    /// Commit time.
    pub written_at: SimTime,
}

impl JobCheckpoint {
    /// Creates a checkpoint record.
    ///
    /// # Panics
    ///
    /// Panics unless `progress` lies in `[0, 1]`.
    pub fn new(
        job_id: u64,
        progress: f64,
        position: CheckpointPosition,
        written_at: SimTime,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&progress),
            "progress must be a fraction, got {progress}"
        );
        JobCheckpoint {
            job_id,
            progress_bits: progress.to_bits(),
            position,
            written_at,
        }
    }

    /// Work fraction completed at the snapshot.
    pub fn progress(&self) -> f64 {
        f64::from_bits(self.progress_bits)
    }

    /// Serialises to the on-disk line format:
    /// `ckpt v2 job=<id> progress=<hex bits> pos=<position> at=<micros>
    /// crc=<16-hex CRC64>`, where the checksum covers every byte before
    /// the ` crc=` suffix.
    pub fn encode(&self) -> String {
        let mut line = format!(
            "ckpt v2 job={} progress={:016x} pos={} at={}",
            self.job_id,
            self.progress_bits,
            self.position,
            self.written_at.as_micros()
        );
        let crc = crc64(line.as_bytes());
        line.push_str(&format!(" crc={crc:016x}"));
        line
    }

    /// Parses the [`JobCheckpoint::encode`] format; the record must carry
    /// a matching CRC64.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] when the checksum does not
    /// match the record body, and [`CheckpointError::Malformed`] for
    /// anything else.
    pub fn decode(line: &str) -> Result<Self, CheckpointError> {
        let malformed = || CheckpointError::Malformed {
            line: line.to_owned(),
        };
        let mut header = line.split_whitespace();
        if header.next() != Some("ckpt") || header.next() != Some("v2") {
            return Err(malformed());
        }
        let (body, crc_hex) = line.rsplit_once(" crc=").ok_or_else(malformed)?;
        // Only the canonical encoding — exactly 16 lowercase hex digits —
        // is accepted. `from_str_radix` alone would parse a case-flipped
        // digit ('a' → 'A' is a single-bit flip) to the same value and let
        // the corruption through.
        if crc_hex.len() != 16
            || !crc_hex
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return Err(malformed());
        }
        let found = u64::from_str_radix(crc_hex, 16).map_err(|_| malformed())?;
        let expected = crc64(body.as_bytes());
        if found != expected {
            return Err(CheckpointError::Corrupt { expected, found });
        }
        let mut job_id = None;
        let mut progress_bits = None;
        let mut position = None;
        let mut written_at = None;
        // Past the "ckpt v2" header.
        for field in body.split_whitespace().skip(2) {
            let (key, value) = field.split_once('=').ok_or_else(malformed)?;
            match key {
                "job" => job_id = Some(value.parse().map_err(|_| malformed())?),
                "progress" => {
                    progress_bits = Some(u64::from_str_radix(value, 16).map_err(|_| malformed())?);
                }
                "pos" => {
                    position = Some(match value.split_once(':') {
                        Some(("hpl-panel", p)) => {
                            CheckpointPosition::HplPanel(p.parse().map_err(|_| malformed())?)
                        }
                        Some(("stream-iter", i)) => {
                            CheckpointPosition::StreamIteration(i.parse().map_err(|_| malformed())?)
                        }
                        Some(("lax-sweep", s)) => {
                            CheckpointPosition::LaxSweep(s.parse().map_err(|_| malformed())?)
                        }
                        None if value == "fraction" => CheckpointPosition::Fraction,
                        _ => return Err(malformed()),
                    });
                }
                "at" => {
                    let micros: u64 = value.parse().map_err(|_| malformed())?;
                    written_at = Some(SimTime::from_micros(micros));
                }
                _ => return Err(malformed()),
            }
        }
        Ok(JobCheckpoint {
            job_id: job_id.ok_or_else(malformed)?,
            progress_bits: progress_bits.ok_or_else(malformed)?,
            position: position.ok_or_else(malformed)?,
            written_at: written_at.ok_or_else(malformed)?,
        })
    }
}

/// Errors from the checkpoint store.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// A stored record did not parse.
    Malformed {
        /// The offending line.
        line: String,
    },
    /// A stored record parsed but its CRC64 does not match its body: the
    /// bytes silently changed since they were written.
    Corrupt {
        /// The checksum the record body computes to.
        expected: u64,
        /// The checksum the record carries.
        found: u64,
    },
    /// The export is inside an injected outage window: the server is
    /// unreachable until `until`. Retry, back off, or spill.
    ExportOffline {
        /// When the outage window ends.
        until: SimTime,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { line } => {
                write!(f, "malformed checkpoint record: {line:?}")
            }
            CheckpointError::Corrupt { expected, found } => write!(
                f,
                "corrupt checkpoint record: crc64 {found:016x} does not \
                 match body {expected:016x}"
            ),
            CheckpointError::ExportOffline { until } => {
                write!(f, "export {CKPT_EXPORT} is offline until t={until}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One running job's checkpoint state machine: when the next write
/// begins, when an in-flight write drains, and which progress fractions
/// are pending vs durably committed.
///
/// The engine used to keep these four fields loose on its running-job
/// record; folding them into one type gives the due-time clock a single
/// [`CheckpointSchedule::next_due`] to aggregate and keeps the
/// begin/commit transitions in one place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointSchedule {
    /// When the next checkpoint write begins, if checkpointing is on.
    next_begin: Option<SimTime>,
    /// While `Some`, a write is draining to NFS and completes then.
    draining_until: Option<SimTime>,
    /// Progress captured by the in-flight (not yet durable) write.
    pending: f64,
    /// Progress preserved by the last *committed* checkpoint.
    committed: f64,
    /// Commit attempts deferred by an export outage (see
    /// [`CheckpointSchedule::defer`]).
    retries: u32,
}

impl CheckpointSchedule {
    /// A fresh schedule: the first write begins at `first_begin` (`None`
    /// disables checkpointing), and `committed` carries the restart point
    /// a requeued job resumed from (zero for a cold start).
    pub fn new(first_begin: Option<SimTime>, committed: f64) -> Self {
        CheckpointSchedule {
            next_begin: first_begin,
            draining_until: None,
            pending: 0.0,
            committed,
            retries: 0,
        }
    }

    /// The next instant this schedule needs the engine's attention: the
    /// in-flight drain if one is running, otherwise the next begin time.
    pub fn next_due(&self) -> Option<SimTime> {
        self.draining_until.or(self.next_begin)
    }

    /// Whether a write is in flight (the job is quiesced for it).
    pub fn is_draining(&self) -> bool {
        self.draining_until.is_some()
    }

    /// Whether a new write should begin at `now` (due, and nothing in
    /// flight).
    pub fn should_begin(&self, now: SimTime) -> bool {
        self.draining_until.is_none() && self.next_begin.is_some_and(|t| now >= t)
    }

    /// Whether the in-flight write has fully drained by `now`.
    pub fn drained_by(&self, now: SimTime) -> bool {
        self.draining_until.is_some_and(|t| now >= t)
    }

    /// Starts a write capturing `progress`, draining until `drained_at`.
    pub fn begin(&mut self, progress: f64, drained_at: SimTime) {
        self.pending = progress;
        self.draining_until = Some(drained_at);
    }

    /// Commits the drained write: the pending fraction becomes durable,
    /// the next write is scheduled at `next_begin`, and the committed
    /// fraction is returned for the store record.
    pub fn commit(&mut self, next_begin: SimTime) -> f64 {
        self.committed = self.pending;
        self.draining_until = None;
        self.next_begin = Some(next_begin);
        self.retries = 0;
        self.committed
    }

    /// Defers the drained-but-uncommittable write (the export is offline):
    /// the drain deadline moves to `retry_at` and the retry counter
    /// advances. The pending fraction stays pending — nothing became
    /// durable.
    pub fn defer(&mut self, retry_at: SimTime) {
        self.draining_until = Some(retry_at);
        self.retries += 1;
    }

    /// Commit attempts already deferred for the in-flight write.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Abandons the in-flight write after the retry budget is spent: the
    /// pending fraction is dropped (never became durable), the retry
    /// counter resets, and the next write is scheduled at `next_begin`.
    pub fn abandon(&mut self, next_begin: SimTime) {
        self.pending = self.committed;
        self.draining_until = None;
        self.next_begin = Some(next_begin);
        self.retries = 0;
    }

    /// Progress the job falls back to if its nodes die right now.
    pub fn committed(&self) -> f64 {
        self.committed
    }

    /// Progress captured by the in-flight write, if any.
    pub fn pending(&self) -> f64 {
        self.pending
    }
}

/// One job's records, each kept as the exact CRC-framed bytes it was
/// written as: corruption targets bytes, and a flush moves them verbatim,
/// so a flipped bit survives onto the export for the restore-time CRC to
/// catch instead of being silently re-encoded away.
#[derive(Debug, Clone, Default, PartialEq)]
struct Chain {
    /// A record buffered on a node's local disk while the export was
    /// offline, newer than every durable generation.
    spill: Option<Spill>,
    /// Durable generations on the export, newest first, capped at
    /// [`GENERATION_DEPTH`].
    durable: Vec<Vec<u8>>,
}

/// A node-local write-behind record and the node buffering it.
#[derive(Debug, Clone, PartialEq)]
struct Spill {
    /// The node whose local disk holds the record.
    holder: usize,
    /// The record's bytes.
    bytes: Vec<u8>,
}

impl Chain {
    /// The records newest first: the spill (when `include_spill`), then
    /// the durable generations.
    fn records(&self, include_spill: bool) -> impl Iterator<Item = &[u8]> {
        let spill = self.spill.as_ref().filter(|_| include_spill);
        spill
            .map(|s| s.bytes.as_slice())
            .into_iter()
            .chain(self.durable.iter().map(Vec::as_slice))
    }
}

/// The cluster's checkpoint directory: per job, one chain of CRC-framed
/// records — the durable generations on the export plus at most one
/// node-local spill — decoded and verified whenever a record is read.
///
/// # Examples
///
/// ```
/// use cimone_cluster::checkpoint::{CheckpointPosition, CheckpointStore, JobCheckpoint};
/// use cimone_soc::units::SimTime;
///
/// let mut store = CheckpointStore::new();
/// let ckpt = JobCheckpoint::new(7, 0.25, CheckpointPosition::HplPanel(53), SimTime::from_secs(40));
/// store.save(ckpt);
/// assert_eq!(store.load(7).unwrap().progress(), 0.25);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointStore {
    /// Injected export outage: while `now < offline_until`, timed saves
    /// fail with [`CheckpointError::ExportOffline`].
    offline_until: Option<SimTime>,
    /// Each job's record chain, by job id (a flush walks them in id
    /// order).
    chains: BTreeMap<u64, Chain>,
}

impl CheckpointStore {
    /// An empty store on a reachable export.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Marks the export unreachable until `until` (an injected
    /// [`crate::faults::FaultKind::NfsExportDown`] window). Repeated calls
    /// keep the later deadline.
    pub fn set_export_offline(&mut self, until: SimTime) {
        self.offline_until = Some(match self.offline_until {
            Some(t) if t > until => t,
            _ => until,
        });
    }

    /// When the current outage window ends, if one is open. The window
    /// stays observable past its deadline until
    /// [`CheckpointStore::clear_export_offline`] acknowledges it, so the
    /// engine can run its recovery flush exactly once.
    pub fn export_offline_until(&self) -> Option<SimTime> {
        self.offline_until
    }

    /// Acknowledges an expired outage window: clears it.
    pub fn clear_export_offline(&mut self) {
        self.offline_until = None;
    }

    /// Whether the export is inside an outage window at `now`.
    pub fn is_export_offline(&self, now: SimTime) -> bool {
        self.offline_until.is_some_and(|t| now < t)
    }

    /// [`CheckpointError::ExportOffline`] while `now` lies inside the
    /// outage window.
    fn reachable(&self, now: SimTime) -> Result<(), CheckpointError> {
        match self.offline_until {
            Some(until) if now < until => Err(CheckpointError::ExportOffline { until }),
            _ => Ok(()),
        }
    }

    /// Commits a checkpoint as its job's newest durable generation,
    /// keeping the newest [`GENERATION_DEPTH`].
    ///
    /// This path assumes the export is reachable; the engine's timed
    /// commits go through [`CheckpointStore::save_at`], which honours
    /// outage windows.
    pub fn save(&mut self, ckpt: JobCheckpoint) {
        let chain = self.chains.entry(ckpt.job_id).or_default();
        push_durable(chain, ckpt.encode().into_bytes());
    }

    /// [`CheckpointStore::save`], but refused while `now` lies inside an
    /// injected export outage window.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ExportOffline`] during an outage.
    pub fn save_at(&mut self, now: SimTime, ckpt: JobCheckpoint) -> Result<(), CheckpointError> {
        self.reachable(now)?;
        self.save(ckpt);
        Ok(())
    }

    /// Buffers a record on node `holder`'s local disk instead of
    /// committing it: the write-behind path a spill-enabled engine takes
    /// while the export is offline. The record (and its holder) replaces
    /// any older spill for the same job and is flushed to the export by
    /// [`CheckpointStore::flush_spill`].
    pub fn spill_write(&mut self, ckpt: JobCheckpoint, holder: usize) {
        self.chains.entry(ckpt.job_id).or_default().spill = Some(Spill {
            holder,
            bytes: ckpt.encode().into_bytes(),
        });
    }

    /// The node buffering `job_id`'s spilled record, if one is waiting.
    pub fn spill_holder(&self, job_id: u64) -> Option<usize> {
        self.chains.get(&job_id)?.spill.as_ref().map(|s| s.holder)
    }

    /// Whether `node` buffers any job's spilled record — the only copy of
    /// that restart point until the flush.
    pub fn holds_spill(&self, node: usize) -> bool {
        self.chains
            .values()
            .any(|chain| chain.spill.as_ref().is_some_and(|s| s.holder == node))
    }

    /// Drops `job_id`'s spilled record (the buffering node died before the
    /// flush). Returns whether one existed.
    pub fn drop_spill(&mut self, job_id: u64) -> bool {
        self.chains
            .get_mut(&job_id)
            .is_some_and(|chain| chain.spill.take().is_some())
    }

    /// Jobs with a spilled record waiting to flush.
    pub fn spilled_jobs(&self) -> usize {
        self.chains
            .values()
            .filter(|chain| chain.spill.is_some())
            .count()
    }

    /// Flushes every spilled record to the (recovered) export, in job-id
    /// order: its bytes become the job's newest durable generation
    /// verbatim. Returns how many records flushed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ExportOffline`] if the export is still inside
    /// an outage window at `now`.
    pub fn flush_spill(&mut self, now: SimTime) -> Result<usize, CheckpointError> {
        self.reachable(now)?;
        let mut flushed = 0;
        for chain in self.chains.values_mut() {
            if let Some(spill) = chain.spill.take() {
                push_durable(chain, spill.bytes);
                flushed += 1;
            }
        }
        Ok(flushed)
    }

    /// The newest record of `job_id` that verifies, preferring a spilled
    /// (newer, node-local) record over the export's generations. A read:
    /// nothing is quarantined ([`CheckpointStore::restore_verified`]
    /// does that).
    pub fn load(&self, job_id: u64) -> Option<JobCheckpoint> {
        self.newest_valid(job_id, true)
    }

    /// The newest record durable *on the export* for `job_id` that
    /// verifies — what survives if the spill-buffering node dies before
    /// the flush.
    pub fn load_durable(&self, job_id: u64) -> Option<JobCheckpoint> {
        self.newest_valid(job_id, false)
    }

    fn newest_valid(&self, job_id: u64, include_spill: bool) -> Option<JobCheckpoint> {
        self.chains
            .get(&job_id)?
            .records(include_spill)
            .find_map(|bytes| decode_bytes(bytes).ok())
    }

    /// Deletes a job's records — spilled and durable alike (done on
    /// completion: the restart point is dead weight once the job
    /// finishes).
    pub fn remove(&mut self, job_id: u64) {
        self.chains.remove(&job_id);
    }

    /// Durable generations currently retained for `job_id`.
    pub fn generations_retained(&self, job_id: u64) -> usize {
        self.chains
            .get(&job_id)
            .map_or(0, |chain| chain.durable.len())
    }

    /// Flips one bit in `job_id`'s stored record chain — the silent-data-
    /// corruption fault the SDC domain injects. Chain index 0 is the
    /// newest record (a buffered node-local spill when one exists,
    /// otherwise the newest durable generation); deeper indices walk back
    /// in time, clamped to the oldest record held. `salt` picks the byte
    /// and bit deterministically. Returns `false` when the job holds no
    /// records to corrupt.
    pub fn corrupt_chain(&mut self, job_id: u64, generation: usize, salt: u64) -> bool {
        let Some(chain) = self.chains.get_mut(&job_id) else {
            return false;
        };
        let spilled = usize::from(chain.spill.is_some());
        let held = spilled + chain.durable.len();
        if held == 0 {
            return false;
        }
        let idx = generation.min(held - 1);
        let bytes = match &mut chain.spill {
            Some(spill) if idx == 0 => &mut spill.bytes,
            _ => &mut chain.durable[idx - spilled],
        };
        if bytes.is_empty() {
            return false;
        }
        let byte = (salt / 8) as usize % bytes.len();
        bytes[byte] ^= 1 << (salt % 8);
        true
    }

    /// Walks `job_id`'s record chain newest→oldest, verifying each
    /// record's CRC64, and returns the newest checkpoint that verifies
    /// plus the chain indices (0 = newest; spill first when
    /// `include_spill`) that failed and were quarantined — dropped from
    /// the chain so a later walk cannot trip on them again.
    pub fn restore_verified(
        &mut self,
        job_id: u64,
        include_spill: bool,
    ) -> (Option<JobCheckpoint>, Vec<usize>) {
        let mut quarantined = Vec::new();
        let Some(chain) = self.chains.get_mut(&job_id) else {
            return (None, quarantined);
        };
        if include_spill {
            if let Some(spill) = &chain.spill {
                match decode_bytes(&spill.bytes) {
                    Ok(ckpt) => return (Some(ckpt), quarantined),
                    Err(_) => {
                        quarantined.push(0);
                        chain.spill = None;
                    }
                }
            }
        }
        while let Some(bytes) = chain.durable.first() {
            match decode_bytes(bytes) {
                Ok(ckpt) => return (Some(ckpt), quarantined),
                Err(_) => {
                    quarantined.push(quarantined.len());
                    chain.durable.remove(0);
                }
            }
        }
        (None, quarantined)
    }

    /// Jobs holding at least one record.
    pub fn len(&self) -> usize {
        self.chains
            .values()
            .filter(|chain| chain.spill.is_some() || !chain.durable.is_empty())
            .count()
    }

    /// Whether no job holds a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Makes `bytes` `chain`'s newest durable generation, keeping the newest
/// [`GENERATION_DEPTH`].
fn push_durable(chain: &mut Chain, bytes: Vec<u8>) {
    chain.durable.insert(0, bytes);
    chain.durable.truncate(GENERATION_DEPTH);
}

/// Parses a stored record's raw bytes (UTF-8, then the line format with
/// its CRC check).
fn decode_bytes(bytes: &[u8]) -> Result<JobCheckpoint, CheckpointError> {
    let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::Malformed {
        line: format!("<invalid utf-8: {e}>"),
    })?;
    JobCheckpoint::decode(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_walks_begin_drain_commit() {
        let t = SimTime::from_secs;
        let mut sched = CheckpointSchedule::new(Some(t(60)), 0.25);
        assert_eq!(sched.next_due(), Some(t(60)));
        assert!(!sched.should_begin(t(59)));
        assert!(sched.should_begin(t(60)));
        assert_eq!(sched.committed(), 0.25, "restart point carried in");

        sched.begin(0.5, t(63));
        assert!(sched.is_draining());
        assert!(!sched.should_begin(t(61)), "no overlapping writes");
        assert_eq!(sched.next_due(), Some(t(63)), "the drain masks the cadence");
        assert!(!sched.drained_by(t(62)));
        assert!(sched.drained_by(t(63)));
        assert_eq!(sched.committed(), 0.25, "pending work is not yet durable");

        assert_eq!(sched.commit(t(123)), 0.5);
        assert_eq!(sched.committed(), 0.5);
        assert!(!sched.is_draining());
        assert_eq!(sched.next_due(), Some(t(123)));

        let off = CheckpointSchedule::new(None, 0.0);
        assert_eq!(off.next_due(), None);
        assert!(!off.should_begin(SimTime::from_secs(1_000_000)));
    }

    fn sample() -> JobCheckpoint {
        JobCheckpoint::new(
            42,
            0.333_333_333_333_333_3,
            CheckpointPosition::HplPanel(70),
            SimTime::from_secs(1234),
        )
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        for ckpt in [
            sample(),
            JobCheckpoint::new(
                1,
                f64::from_bits(0x3FDF_FFFF_FFFF_FFFF),
                CheckpointPosition::StreamIteration(9),
                SimTime::ZERO,
            ),
            JobCheckpoint::new(
                2,
                0.0,
                CheckpointPosition::LaxSweep(88),
                SimTime::from_micros(7),
            ),
            JobCheckpoint::new(3, 1.0, CheckpointPosition::Fraction, SimTime::from_secs(1)),
        ] {
            let decoded = JobCheckpoint::decode(&ckpt.encode()).expect("round trip");
            assert_eq!(decoded, ckpt);
            assert_eq!(decoded.progress().to_bits(), ckpt.progress().to_bits());
        }
    }

    /// `body` with the CRC suffix a writer would append.
    fn framed(body: &str) -> String {
        format!("{body} crc={:016x}", crc64(body.as_bytes()))
    }

    #[test]
    fn malformed_records_are_rejected() {
        for bad in [
            String::new(),
            "ckpt v2 job=1 progress=0 pos=fraction at=0".to_owned(),
            "ckpt v3 job=1 progress=0 pos=fraction at=0 crc=0000000000000000".to_owned(),
            // A `v1` header, framed or not, is refused rather than
            // trusted unchecked.
            "ckpt v1 job=5 progress=3fd0000000000000 pos=hpl-panel:9 at=100".to_owned(),
            framed("ckpt v1 job=5 progress=3fd0000000000000 pos=hpl-panel:9 at=100"),
            framed("ckpt v2 job=x progress=0 pos=fraction at=0"),
            framed("ckpt v2 job=1 pos=fraction at=0"),
            framed("ckpt v2 job=1 progress=0 pos=unknown:3 at=0"),
            framed("ckpt v2 job=1 progress=0 pos=fraction at=0 extra=1"),
        ] {
            assert!(JobCheckpoint::decode(&bad).is_err(), "accepted {bad:?}");
        }
        // The same frame around a well-formed body decodes.
        let good = framed("ckpt v2 job=5 progress=3fd0000000000000 pos=hpl-panel:9 at=100");
        assert_eq!(JobCheckpoint::decode(&good).map(|c| c.progress()), Ok(0.25));
    }

    #[test]
    fn any_single_bit_flip_is_caught_by_the_crc() {
        let line = sample().encode();
        for byte in 0..line.len() {
            for bit in 0..8u8 {
                let mut bytes = line.clone().into_bytes();
                bytes[byte] ^= 1 << bit;
                let flipped = match String::from_utf8(bytes) {
                    Ok(s) => s,
                    // A flip that breaks UTF-8 can't even reach decode
                    // through the store, which treats it as malformed.
                    Err(_) => continue,
                };
                assert!(
                    JobCheckpoint::decode(&flipped).is_err(),
                    "flip byte {byte} bit {bit} went unnoticed"
                );
            }
        }
        let err = {
            let mut bytes = line.into_bytes();
            bytes[10] ^= 1;
            JobCheckpoint::decode(std::str::from_utf8(&bytes).unwrap()).unwrap_err()
        };
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }),
            "a body flip reports as corruption, got {err}"
        );
        assert!(err.to_string().contains("crc64"), "{err}");
    }

    #[test]
    fn corrupt_generation_falls_back_to_the_previous_one() {
        let t = SimTime::from_secs;
        let mut store = CheckpointStore::new();
        for (i, progress) in [0.2, 0.4, 0.6].into_iter().enumerate() {
            let ckpt = JobCheckpoint::new(
                7,
                progress,
                CheckpointPosition::HplPanel(i),
                t(100 * (i as u64 + 1)),
            );
            store.save(ckpt);
        }
        assert_eq!(store.generations_retained(7), 3);

        // A clean walk restores the newest record and quarantines nothing.
        let (clean, bad) = store.restore_verified(7, true);
        assert_eq!(clean.map(|c| c.progress()), Some(0.6));
        assert!(bad.is_empty());

        // Corrupt the newest generation: restore falls back one.
        assert!(store.corrupt_chain(7, 0, 0));
        let (fell_back, bad) = store.restore_verified(7, true);
        assert_eq!(fell_back.map(|c| c.progress()), Some(0.4));
        assert_eq!(bad, vec![0], "the poisoned generation is quarantined");
        assert_eq!(store.generations_retained(7), 2);
        assert_eq!(store.load_durable(7).map(|c| c.progress()), Some(0.4));

        // Corrupt everything that remains: the walk comes up empty.
        assert!(store.corrupt_chain(7, 0, 17));
        assert!(store.corrupt_chain(7, 1, 91));
        let (none, bad) = store.restore_verified(7, true);
        assert!(none.is_none());
        assert_eq!(bad, vec![0, 1]);
        assert!(
            store.load_durable(7).is_none(),
            "no rejected record reads back"
        );

        // An empty chain reports nothing to corrupt.
        assert!(!store.corrupt_chain(99, 0, 0));
    }

    #[test]
    fn generation_history_is_capped() {
        let mut store = CheckpointStore::new();
        for i in 0..10u64 {
            let ckpt = JobCheckpoint::new(
                3,
                i as f64 / 10.0,
                CheckpointPosition::Fraction,
                SimTime::from_secs(i),
            );
            store.save(ckpt);
        }
        assert_eq!(store.generations_retained(3), GENERATION_DEPTH);
        store.remove(3);
        assert_eq!(store.generations_retained(3), 0);
    }

    #[test]
    fn corrupt_spill_survives_the_flush_and_is_caught_on_restore() {
        let t = SimTime::from_secs;
        let mut store = CheckpointStore::new();
        store.save(sample());
        store.set_export_offline(t(100));
        let newer = JobCheckpoint::new(
            42,
            0.75,
            CheckpointPosition::HplPanel(160),
            SimTime::from_secs(90),
        );
        store.spill_write(newer, 0);
        // The corruption lands in the node-local buffer (chain index 0);
        // salt 240 flips a progress-mantissa digit so the damage is in the
        // checksummed body rather than the framing.
        assert!(store.corrupt_chain(42, 0, 240));

        // A restore that can see the spill quarantines it and falls back
        // to the durable record.
        let mut probe = store.clone();
        let (restored, bad) = probe.restore_verified(42, true);
        assert_eq!(restored, Some(sample()));
        assert_eq!(bad, vec![0]);
        assert_eq!(probe.spilled_jobs(), 0, "the poisoned spill is gone");

        // Flushing instead moves the poisoned bytes verbatim onto the
        // export as its newest generation; a read skips them to the last
        // record that verifies.
        store.clear_export_offline();
        assert_eq!(store.flush_spill(t(100)), Ok(1));
        assert_eq!(store.generations_retained(42), 2);
        assert_eq!(store.load_durable(42), Some(sample()));
        let (restored, bad) = store.restore_verified(42, false);
        assert_eq!(restored, Some(sample()), "fallback skips the bad flush");
        assert_eq!(bad, vec![0]);
    }

    #[test]
    fn store_saves_loads_and_replaces() {
        let mut store = CheckpointStore::new();
        store.save(sample());
        // A newer checkpoint becomes the record a read returns.
        let newer = JobCheckpoint::new(
            42,
            0.5,
            CheckpointPosition::HplPanel(106),
            SimTime::from_secs(2000),
        );
        store.save(newer);
        assert_eq!(store.len(), 1);
        assert_eq!(store.load(42), Some(newer));
        store.remove(42);
        assert!(store.is_empty());
        assert_eq!(store.load(42), None);
    }

    #[test]
    fn schedule_defers_and_abandons_offline_writes() {
        let t = SimTime::from_secs;
        let mut sched = CheckpointSchedule::new(Some(t(60)), 0.25);
        sched.begin(0.5, t(63));
        // The export is down: the drain completes but cannot commit.
        sched.defer(t(67));
        assert_eq!(sched.retries(), 1);
        assert!(sched.is_draining(), "retry holds the job quiesced");
        assert_eq!(sched.next_due(), Some(t(67)));
        assert_eq!(sched.committed(), 0.25, "nothing became durable");
        sched.defer(t(75));
        assert_eq!(sched.retries(), 2);
        // Retry budget spent: the write is dropped, cadence resumes.
        sched.abandon(t(120));
        assert_eq!(sched.retries(), 0);
        assert!(!sched.is_draining());
        assert_eq!(sched.next_due(), Some(t(120)));
        assert_eq!(sched.committed(), 0.25);
        assert_eq!(sched.pending(), 0.25, "pending fraction dropped");
        // A later successful commit clears the retry counter too.
        sched.begin(0.75, t(125));
        sched.defer(t(130));
        assert_eq!(sched.commit(t(180)), 0.75);
        assert_eq!(sched.retries(), 0);
    }

    #[test]
    fn offline_windows_refuse_timed_saves() {
        let t = SimTime::from_secs;
        let mut store = CheckpointStore::new();
        store.set_export_offline(t(100));
        // An earlier deadline does not shrink the window.
        store.set_export_offline(t(50));
        assert_eq!(store.export_offline_until(), Some(t(100)));
        assert!(store.is_export_offline(t(99)));
        assert!(!store.is_export_offline(t(100)));
        let err = store.save_at(t(40), sample()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ExportOffline { until } if until == t(100)),
            "{err}"
        );
        assert!(err.to_string().contains("/ckpt"), "{err}");
        assert_eq!(store.len(), 0, "no torn write: the store saw nothing");
        // At the window's end the same save lands.
        store.save_at(t(100), sample()).expect("export is back");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn spill_buffers_then_flushes_on_recovery() {
        let t = SimTime::from_secs;
        let mut store = CheckpointStore::new();
        // A durable pre-outage record.
        store.save(sample());
        store.set_export_offline(t(100));
        let newer = JobCheckpoint::new(
            42,
            0.6,
            CheckpointPosition::HplPanel(127),
            SimTime::from_secs(80),
        );
        store.spill_write(newer, 3);
        assert_eq!(store.spilled_jobs(), 1);
        assert_eq!(store.spill_holder(42), Some(3));
        assert!(store.holds_spill(3) && !store.holds_spill(0));
        // The restart path sees the newer spilled record; the durable view
        // still answers with the pre-outage one.
        assert_eq!(store.load(42), Some(newer));
        assert_eq!(store.load_durable(42), Some(sample()));
        // Flushing mid-outage is refused.
        assert!(matches!(
            store.flush_spill(t(90)),
            Err(CheckpointError::ExportOffline { .. })
        ));
        // After recovery the spill drains to the export.
        assert_eq!(store.flush_spill(t(100)), Ok(1));
        assert_eq!(store.spilled_jobs(), 0);
        assert!(!store.holds_spill(3), "the flush releases the holder");
        assert_eq!(store.load_durable(42), Some(newer));
        // A crash of the buffering node instead drops the spill: the
        // durable record is what recovery falls back to.
        let mut store = CheckpointStore::new();
        store.save(sample());
        store.spill_write(newer, 3);
        assert!(store.drop_spill(42));
        assert!(!store.drop_spill(42), "nothing left to drop");
        assert_eq!(store.spill_holder(42), None);
        assert_eq!(store.load(42), Some(sample()));
    }

    #[test]
    fn write_cost_scales_with_state_size() {
        let small = write_cost(1.0e6);
        let large = write_cost(13.0e9); // the paper HPL's full matrix
        assert!(small >= WRITE_BARRIER);
        // 13 GB over ~117 MB/s ≈ 111 s.
        assert!((large.as_secs_f64() - 112.1).abs() < 2.0, "{large}");
    }
}
