//! Job-level checkpoint metadata and the NFS-backed checkpoint store.
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

use cimone_soc::units::{Bytes, SimDuration, SimTime};

use crate::services::nfs::{MountHandle, NfsError, NfsServer};

/// Uid the engine writes checkpoints under (a system service account).
const CKPT_UID: u32 = 900;

/// How many record generations (newest first) the store retains per job
/// for corruption fallback: a snapshot whose CRC fails on restore is
/// quarantined and the walk falls back to the next-newest generation.
pub const GENERATION_DEPTH: usize = 4;

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

/// The default export checkpoints are kept on (see
/// [`CheckpointStoreConfig`] to place them elsewhere).
const CKPT_EXPORT: &str = "/ckpt";

/// Where a [`CheckpointStore`] keeps its records: which NFS export, how
/// big it is, and which client identity mounts it. The historical
/// hard-coded `/ckpt` layout is [`CheckpointStoreConfig::default`]; a
/// second store on a second export (with its own outage windows) is just
/// a second config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStoreConfig {
    /// The export path records live under.
    pub export: String,
    /// The export's quota.
    pub quota: Bytes,
    /// The client hostname the store mounts as.
    pub client: String,
}

impl Default for CheckpointStoreConfig {
    fn default() -> Self {
        CheckpointStoreConfig {
            export: CKPT_EXPORT.to_owned(),
            quota: Bytes::from_gib(20),
            client: "mc-master".to_owned(),
        }
    }
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

    /// Parses the [`JobCheckpoint::encode`] format. `v2` records must
    /// carry a matching CRC64; the pre-integrity `v1` format (no
    /// checksum) is still accepted for old records.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] when a `v2` record's checksum
    /// does not match its body, and [`CheckpointError::Malformed`] for
    /// anything else.
    pub fn decode(line: &str) -> Result<Self, CheckpointError> {
        let malformed = || CheckpointError::Malformed {
            line: line.to_owned(),
        };
        let mut fields = line.split_whitespace();
        if fields.next() != Some("ckpt") {
            return Err(malformed());
        }
        let fields = match fields.next() {
            Some("v1") => fields,
            Some("v2") => {
                let (body, crc_hex) = line.rsplit_once(" crc=").ok_or_else(malformed)?;
                // Only the canonical encoding — exactly 16 lowercase hex
                // digits — is accepted. `from_str_radix` alone would parse
                // a case-flipped digit ('a' → 'A' is a single-bit flip) to
                // the same value and let the corruption through.
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
                let mut fields = body.split_whitespace();
                fields.next(); // "ckpt"
                fields.next(); // "v2"
                fields
            }
            _ => return Err(malformed()),
        };
        let mut job_id = None;
        let mut progress_bits = None;
        let mut position = None;
        let mut written_at = None;
        for field in fields {
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
    /// No checkpoint exists for the job.
    Missing {
        /// The job asked about.
        job_id: u64,
    },
    /// The underlying filesystem refused the operation.
    Storage(NfsError),
    /// The export is inside an injected outage window: the server is
    /// unreachable until `until`. Retry, back off, or spill.
    ExportOffline {
        /// The unavailable export path.
        export: String,
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
            CheckpointError::Missing { job_id } => {
                write!(f, "no checkpoint stored for job {job_id}")
            }
            CheckpointError::Storage(e) => write!(f, "checkpoint storage failed: {e}"),
            CheckpointError::ExportOffline { export, until } => {
                write!(f, "export {export} is offline until t={until}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NfsError> for CheckpointError {
    fn from(e: NfsError) -> Self {
        CheckpointError::Storage(e)
    }
}

/// How long a checkpoint write pauses the job (the overhead side of the
/// overhead-vs-rework tradeoff the recovery sweep measures).
///
/// The application data drains to the master node's disks over the same
/// Gigabit Ethernet every NFS client shares, so the variable term is the
/// job's resident set divided by the link rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointCostModel {
    /// Fixed barrier + metadata overhead per checkpoint.
    pub fixed: SimDuration,
    /// Drain rate to stable storage, bytes per second.
    pub bytes_per_sec: f64,
}

impl CheckpointCostModel {
    /// Monte Cimone's path today: quiesce barrier ≈ 1 s, drain over
    /// Gigabit Ethernet (~117 MiB/s effective).
    pub fn gigabit_nfs() -> Self {
        CheckpointCostModel {
            fixed: SimDuration::from_secs(1),
            bytes_per_sec: 117.0e6,
        }
    }

    /// The pause a checkpoint of `bytes` of application state costs.
    ///
    /// # Panics
    ///
    /// Panics if the configured drain rate is not positive.
    pub fn cost(&self, bytes: f64) -> SimDuration {
        assert!(self.bytes_per_sec > 0.0, "drain rate must be positive");
        self.fixed + SimDuration::from_secs_f64(bytes.max(0.0) / self.bytes_per_sec)
    }
}

impl Default for CheckpointCostModel {
    fn default() -> Self {
        CheckpointCostModel::gigabit_nfs()
    }
}

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

/// The cluster's checkpoint directory: one record per job on a dedicated
/// NFS export, plus a decoded cache for the scheduler's restart path.
///
/// # Examples
///
/// ```
/// use cimone_cluster::checkpoint::{CheckpointPosition, CheckpointStore, JobCheckpoint};
/// use cimone_soc::units::SimTime;
///
/// let mut store = CheckpointStore::new();
/// let ckpt = JobCheckpoint::new(7, 0.25, CheckpointPosition::HplPanel(53), SimTime::from_secs(40));
/// store.save(ckpt)?;
/// assert_eq!(store.load(7).unwrap().progress(), 0.25);
/// # Ok::<(), cimone_cluster::checkpoint::CheckpointError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStore {
    config: CheckpointStoreConfig,
    nfs: NfsServer,
    mount: MountHandle,
    cache: BTreeMap<u64, JobCheckpoint>,
    /// Injected export outage: while `now < offline_until`, timed saves
    /// fail with [`CheckpointError::ExportOffline`].
    offline_until: Option<SimTime>,
    /// Node-local write-behind records awaiting an export recovery flush.
    spill: BTreeMap<u64, JobCheckpoint>,
    /// The exact serialized bytes of each spilled record — corruption
    /// targets bytes, and a flush moves them verbatim so a flipped bit
    /// survives onto the export instead of being silently re-encoded
    /// away.
    spill_bytes: BTreeMap<u64, Vec<u8>>,
    /// Per-job durable record history, newest first, capped at
    /// [`GENERATION_DEPTH`]: the byte-level chain a verified restore
    /// walks when the newest generation fails its CRC.
    generations: BTreeMap<u64, Vec<Vec<u8>>>,
}

impl CheckpointStore {
    /// A store on a fresh master-node export over Gigabit Ethernet, at
    /// the default `/ckpt` layout.
    pub fn new() -> Self {
        CheckpointStore::with_config(CheckpointStoreConfig::default())
    }

    /// A store with an explicit export layout.
    pub fn with_config(config: CheckpointStoreConfig) -> Self {
        let mut nfs = NfsServer::monte_cimone();
        nfs.export(&config.export, config.quota);
        let mount = nfs
            .mount(&config.export, &config.client)
            .expect("the export was just created");
        CheckpointStore {
            config,
            nfs,
            mount,
            cache: BTreeMap::new(),
            offline_until: None,
            spill: BTreeMap::new(),
            spill_bytes: BTreeMap::new(),
            generations: BTreeMap::new(),
        }
    }

    /// The export layout this store writes to.
    pub fn config(&self) -> &CheckpointStoreConfig {
        &self.config
    }

    fn path(&self, job_id: u64) -> String {
        format!("{}/job-{job_id}.ckpt", self.config.export)
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

    /// Commits a checkpoint record, replacing the job's previous one.
    /// Returns the metadata write's network cost (the application data's
    /// drain time is the [`CheckpointCostModel`]'s business).
    ///
    /// This path assumes the export is reachable; the engine's timed
    /// commits go through [`CheckpointStore::save_at`], which honours
    /// outage windows.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (quota, export gone).
    pub fn save(&mut self, ckpt: JobCheckpoint) -> Result<SimDuration, CheckpointError> {
        let cost = self.write_record(ckpt.job_id, ckpt.encode().into_bytes())?;
        self.cache.insert(ckpt.job_id, ckpt);
        Ok(cost)
    }

    /// Writes `bytes` as `job_id`'s newest record: the export file is
    /// (created and) overwritten, and the byte-level generation chain
    /// advances, keeping the newest [`GENERATION_DEPTH`] generations.
    fn write_record(
        &mut self,
        job_id: u64,
        bytes: Vec<u8>,
    ) -> Result<SimDuration, CheckpointError> {
        let path = self.path(job_id);
        if !self.generations.contains_key(&job_id) {
            self.nfs.create(&self.mount, &path, CKPT_UID, false)?;
        }
        let cost = self.nfs.write(&self.mount, &path, CKPT_UID, &bytes)?;
        let gens = self.generations.entry(job_id).or_default();
        gens.insert(0, bytes);
        gens.truncate(GENERATION_DEPTH);
        Ok(cost)
    }

    /// [`CheckpointStore::save`], but refused while `now` lies inside an
    /// injected export outage window.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ExportOffline`] during an outage, else any
    /// filesystem failure.
    pub fn save_at(
        &mut self,
        now: SimTime,
        ckpt: JobCheckpoint,
    ) -> Result<SimDuration, CheckpointError> {
        if let Some(until) = self.offline_until {
            if now < until {
                return Err(CheckpointError::ExportOffline {
                    export: self.config.export.clone(),
                    until,
                });
            }
        }
        self.save(ckpt)
    }

    /// Buffers a record node-locally instead of committing it: the
    /// write-behind path a spill-enabled engine takes while the export is
    /// offline. The record replaces any older spill for the same job and
    /// is flushed to the export by [`CheckpointStore::flush_spill`].
    pub fn spill_write(&mut self, ckpt: JobCheckpoint) {
        self.spill_bytes
            .insert(ckpt.job_id, ckpt.encode().into_bytes());
        self.spill.insert(ckpt.job_id, ckpt);
    }

    /// The spilled (buffered, not yet durable on the export) record for
    /// `job_id`, if one is waiting.
    pub fn spilled(&self, job_id: u64) -> Option<&JobCheckpoint> {
        self.spill.get(&job_id)
    }

    /// Drops `job_id`'s spilled record (the buffering node crashed before
    /// the flush), returning it if one existed.
    pub fn drop_spill(&mut self, job_id: u64) -> Option<JobCheckpoint> {
        self.spill_bytes.remove(&job_id);
        self.spill.remove(&job_id)
    }

    /// Jobs with a spilled record waiting to flush.
    pub fn spilled_jobs(&self) -> usize {
        self.spill.len()
    }

    /// Flushes every spilled record to the (recovered) export, in job-id
    /// order. Returns how many records flushed and their total network
    /// cost.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ExportOffline`] if the export is still inside
    /// an outage window at `now`, else any filesystem failure (records
    /// already flushed stay flushed).
    pub fn flush_spill(&mut self, now: SimTime) -> Result<(usize, SimDuration), CheckpointError> {
        if self.is_export_offline(now) {
            return Err(CheckpointError::ExportOffline {
                export: self.config.export.clone(),
                until: self.offline_until.expect("offline window is open"),
            });
        }
        let mut flushed = 0;
        let mut cost = SimDuration::ZERO;
        while let Some((&job_id, _)) = self.spill.iter().next() {
            let ckpt = self.spill.remove(&job_id).expect("key just observed");
            // Flush the buffered *bytes* verbatim: a bit that flipped in
            // the node-local buffer lands on the export as-is, for the
            // restore-time CRC to catch — re-encoding would silently heal
            // it and hide the corruption.
            let bytes = self
                .spill_bytes
                .remove(&job_id)
                .unwrap_or_else(|| ckpt.encode().into_bytes());
            let decoded = decode_bytes(&bytes).ok();
            cost += self.write_record(job_id, bytes)?;
            if let Some(valid) = decoded {
                self.cache.insert(job_id, valid);
            }
            flushed += 1;
        }
        Ok((flushed, cost))
    }

    /// The last committed checkpoint for `job_id`, preferring a spilled
    /// (newer, node-local) record over the export's copy.
    pub fn load(&self, job_id: u64) -> Option<&JobCheckpoint> {
        self.spill.get(&job_id).or_else(|| self.cache.get(&job_id))
    }

    /// The last record durable *on the export* for `job_id` — what
    /// survives if the spill-buffering node dies before the flush.
    pub fn load_durable(&self, job_id: u64) -> Option<&JobCheckpoint> {
        self.cache.get(&job_id)
    }

    /// Re-reads and re-parses `job_id`'s record from the filesystem (what
    /// a restarting job actually does; tests use it to prove the stored
    /// bytes round-trip).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] if no record exists, or a parse or
    /// filesystem error.
    pub fn reload(&mut self, job_id: u64) -> Result<JobCheckpoint, CheckpointError> {
        if !self.cache.contains_key(&job_id) {
            return Err(CheckpointError::Missing { job_id });
        }
        let (data, _cost) = self.nfs.read(&self.mount, &self.path(job_id), CKPT_UID)?;
        let text = String::from_utf8(data).map_err(|e| CheckpointError::Malformed {
            line: format!("<invalid utf-8: {e}>"),
        })?;
        JobCheckpoint::decode(&text)
    }

    /// Deletes a job's checkpoint — spilled and durable alike (done on
    /// completion: the restart point is dead weight once the job
    /// finishes).
    pub fn remove(&mut self, job_id: u64) {
        self.spill.remove(&job_id);
        self.spill_bytes.remove(&job_id);
        self.cache.remove(&job_id);
        if self.generations.remove(&job_id).is_some() {
            let _ = self.nfs.remove(&self.mount, &self.path(job_id), CKPT_UID);
        }
    }

    /// Durable generations currently retained for `job_id`.
    pub fn generations_retained(&self, job_id: u64) -> usize {
        self.generations.get(&job_id).map_or(0, Vec::len)
    }

    /// Flips one bit in `job_id`'s stored record chain — the silent-data-
    /// corruption fault the SDC domain injects. Chain index 0 is the
    /// newest record (a buffered node-local spill when one exists,
    /// otherwise the newest durable generation); deeper indices walk back
    /// in time, clamped to the oldest record held. `salt` picks the byte
    /// and bit deterministically. Returns `false` when the job holds no
    /// records to corrupt.
    pub fn corrupt_chain(&mut self, job_id: u64, generation: usize, salt: u64) -> bool {
        let mut chain: Vec<&mut Vec<u8>> = Vec::new();
        if let Some(bytes) = self.spill_bytes.get_mut(&job_id) {
            chain.push(bytes);
        }
        if let Some(gens) = self.generations.get_mut(&job_id) {
            chain.extend(gens.iter_mut());
        }
        if chain.is_empty() {
            return false;
        }
        let idx = generation.min(chain.len() - 1);
        let bytes = &mut *chain[idx];
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
    /// the chain so a later walk cannot trip on them again. The decoded
    /// durable cache is re-synced to whatever actually survives, so
    /// [`CheckpointStore::load_durable`] never answers with bits the CRC
    /// rejected.
    pub fn restore_verified(
        &mut self,
        job_id: u64,
        include_spill: bool,
    ) -> (Option<JobCheckpoint>, Vec<usize>) {
        let mut quarantined = Vec::new();
        let mut index = 0usize;
        if include_spill {
            if let Some(bytes) = self.spill_bytes.get(&job_id) {
                match decode_bytes(bytes) {
                    Ok(ckpt) => return (Some(ckpt), quarantined),
                    Err(_) => {
                        quarantined.push(index);
                        self.spill.remove(&job_id);
                        self.spill_bytes.remove(&job_id);
                    }
                }
                index += 1;
            }
        }
        let mut found = None;
        if let Some(gens) = self.generations.get_mut(&job_id) {
            while let Some(bytes) = gens.first() {
                match decode_bytes(bytes) {
                    Ok(ckpt) => {
                        found = Some(ckpt);
                        break;
                    }
                    Err(_) => {
                        quarantined.push(index);
                        index += 1;
                        gens.remove(0);
                    }
                }
            }
        }
        match found {
            Some(ckpt) => {
                self.cache.insert(job_id, ckpt);
            }
            None => {
                self.cache.remove(&job_id);
            }
        }
        (found, quarantined)
    }

    /// Checkpoints currently held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether no checkpoint is held.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The underlying filesystem (op and byte accounting lives there).
    pub fn nfs(&self) -> &NfsServer {
        &self.nfs
    }
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new()
    }
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

    #[test]
    fn malformed_records_are_rejected() {
        for bad in [
            "",
            "ckpt v2 job=1 progress=0 pos=fraction at=0",
            "ckpt v3 job=1 progress=0 pos=fraction at=0 crc=0000000000000000",
            "ckpt v1 job=x progress=0 pos=fraction at=0",
            "ckpt v1 job=1 pos=fraction at=0",
            "ckpt v1 job=1 progress=0 pos=unknown:3 at=0",
            "ckpt v1 job=1 progress=0 pos=fraction at=0 extra=1",
        ] {
            assert!(JobCheckpoint::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn legacy_v1_records_still_decode() {
        let line = "ckpt v1 job=5 progress=3fd0000000000000 pos=hpl-panel:9 at=100";
        let ckpt = JobCheckpoint::decode(line).expect("v1 has no checksum to check");
        assert_eq!(ckpt.job_id, 5);
        assert_eq!(ckpt.progress(), 0.25);
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
            store.save(ckpt).expect("saves");
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
        assert!(store.load_durable(7).is_none(), "cache holds no ghost");

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
            store.save(ckpt).expect("saves");
        }
        assert_eq!(store.generations_retained(3), GENERATION_DEPTH);
        store.remove(3);
        assert_eq!(store.generations_retained(3), 0);
    }

    #[test]
    fn corrupt_spill_survives_the_flush_and_is_caught_on_restore() {
        let t = SimTime::from_secs;
        let mut store = CheckpointStore::new();
        store.save(sample()).expect("saves");
        store.set_export_offline(t(100));
        let newer = JobCheckpoint::new(
            42,
            0.75,
            CheckpointPosition::HplPanel(160),
            SimTime::from_secs(90),
        );
        store.spill_write(newer);
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
        // export; the durable cache keeps the last record that verified.
        store.clear_export_offline();
        let (flushed, _) = store.flush_spill(t(100)).expect("export is back");
        assert_eq!(flushed, 1);
        assert_eq!(store.load_durable(42), Some(&sample()));
        assert!(matches!(
            store.reload(42),
            Err(CheckpointError::Corrupt { .. })
        ));
        let (restored, bad) = store.restore_verified(42, false);
        assert_eq!(restored, Some(sample()), "fallback skips the bad flush");
        assert_eq!(bad, vec![0]);
    }

    #[test]
    fn store_saves_reloads_and_replaces() {
        let mut store = CheckpointStore::new();
        let cost = store.save(sample()).expect("saves");
        assert!(cost > SimDuration::ZERO);
        // A newer checkpoint replaces the record in place.
        let newer = JobCheckpoint::new(
            42,
            0.5,
            CheckpointPosition::HplPanel(106),
            SimTime::from_secs(2000),
        );
        store.save(newer).expect("replaces");
        assert_eq!(store.len(), 1);
        let reloaded = store.reload(42).expect("reads back");
        assert_eq!(reloaded, newer);
        store.remove(42);
        assert!(store.is_empty());
        assert!(matches!(
            store.reload(42),
            Err(CheckpointError::Missing { job_id: 42 })
        ));
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
    fn store_config_parameterises_the_export() {
        let config = CheckpointStoreConfig {
            export: "/ckpt2".to_owned(),
            quota: Bytes::from_gib(5),
            client: "mc-login".to_owned(),
        };
        let mut store = CheckpointStore::with_config(config.clone());
        assert_eq!(store.config(), &config);
        store.save(sample()).expect("saves on the renamed export");
        assert_eq!(store.reload(42).expect("reads back"), sample());
        // The default store still lives at the historical /ckpt path.
        assert_eq!(CheckpointStore::new().config().export, "/ckpt");
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
            matches!(err, CheckpointError::ExportOffline { until, .. } if until == t(100)),
            "{err}"
        );
        assert!(err.to_string().contains("/ckpt"), "{err}");
        assert_eq!(store.len(), 0, "no torn write: the cache saw nothing");
        // At the window's end the same save lands.
        store.save_at(t(100), sample()).expect("export is back");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn spill_buffers_then_flushes_on_recovery() {
        let t = SimTime::from_secs;
        let mut store = CheckpointStore::new();
        // A durable pre-outage record.
        store.save(sample()).expect("saves");
        store.set_export_offline(t(100));
        let newer = JobCheckpoint::new(
            42,
            0.6,
            CheckpointPosition::HplPanel(127),
            SimTime::from_secs(80),
        );
        store.spill_write(newer);
        assert_eq!(store.spilled_jobs(), 1);
        // The restart path sees the newer spilled record; the durable view
        // still answers with the pre-outage one.
        assert_eq!(store.load(42), Some(&newer));
        assert_eq!(store.load_durable(42), Some(&sample()));
        // Flushing mid-outage is refused.
        assert!(matches!(
            store.flush_spill(t(90)),
            Err(CheckpointError::ExportOffline { .. })
        ));
        // After recovery the spill drains to the export.
        let (flushed, cost) = store.flush_spill(t(100)).expect("export is back");
        assert_eq!(flushed, 1);
        assert!(cost > SimDuration::ZERO);
        assert_eq!(store.spilled_jobs(), 0);
        assert_eq!(store.load_durable(42), Some(&newer));
        assert_eq!(store.reload(42).expect("reads back"), newer);
        // A crash of the buffering node instead drops the spill: the
        // durable record is what recovery falls back to.
        let mut store = CheckpointStore::new();
        store.save(sample()).expect("saves");
        store.spill_write(newer);
        assert_eq!(store.drop_spill(42), Some(newer));
        assert_eq!(store.load(42), Some(&sample()));
    }

    #[test]
    fn cost_model_scales_with_state_size() {
        let model = CheckpointCostModel::gigabit_nfs();
        let small = model.cost(1.0e6);
        let large = model.cost(13.0e9); // the paper HPL's full matrix
        assert!(small >= model.fixed);
        // 13 GB over ~117 MB/s ≈ 111 s.
        assert!((large.as_secs_f64() - 112.1).abs() < 2.0, "{large}");
    }

    #[test]
    fn errors_format_and_chain() {
        let err = CheckpointError::Missing { job_id: 9 };
        assert!(err.to_string().contains("job 9"));
        let storage: CheckpointError = NfsError::NoSuchFile {
            path: "/ckpt/x".into(),
        }
        .into();
        assert!(std::error::Error::source(&storage).is_some());
    }
}
