//! The NFS service: the shared filesystem every Monte Cimone node mounts.
//!
//! An in-memory export tree with UNIX-style ownership checks, per-export
//! quotas, and network-cost accounting: every operation returns the
//! simulated time it takes over the cluster's Gigabit Ethernet, so
//! experiments can charge filesystem traffic to the right place.

use std::collections::BTreeMap;
use std::fmt;

use cimone_net::link::LinkModel;
use cimone_soc::units::{Bytes, SimDuration};

/// Root uid (bypasses permission checks, as `no_root_squash` exports do).
pub const ROOT_UID: u32 = 0;

/// One file in an export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNode {
    /// Owning uid.
    pub owner_uid: u32,
    /// `rw` for others? (single-bit simplification of the mode word).
    pub world_writable: bool,
    /// Contents.
    pub data: Vec<u8>,
}

/// A client's handle to a mounted export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountHandle {
    export: String,
    client: String,
}

impl MountHandle {
    /// The export this handle points at.
    pub fn export(&self) -> &str {
        &self.export
    }

    /// The mounting client's hostname.
    pub fn client(&self) -> &str {
        &self.client
    }
}

/// NFS errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsError {
    /// The export does not exist.
    NotExported {
        /// The requested export.
        export: String,
    },
    /// The path does not exist.
    NoSuchFile {
        /// The path.
        path: String,
    },
    /// The path already exists.
    AlreadyExists {
        /// The path.
        path: String,
    },
    /// The uid may not perform the operation.
    PermissionDenied {
        /// The path.
        path: String,
        /// The offending uid.
        uid: u32,
    },
    /// The write would exceed the export's quota.
    QuotaExceeded {
        /// Quota size.
        quota: Bytes,
        /// Usage the operation would have reached.
        would_use: Bytes,
    },
}

impl fmt::Display for NfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfsError::NotExported { export } => write!(f, "not exported: {export}"),
            NfsError::NoSuchFile { path } => write!(f, "no such file: {path}"),
            NfsError::AlreadyExists { path } => write!(f, "already exists: {path}"),
            NfsError::PermissionDenied { path, uid } => {
                write!(f, "permission denied for uid {uid}: {path}")
            }
            NfsError::QuotaExceeded { quota, would_use } => {
                write!(f, "quota exceeded: {would_use} > {quota}")
            }
        }
    }
}

impl std::error::Error for NfsError {}

#[derive(Debug, Clone, PartialEq)]
struct Export {
    files: BTreeMap<String, FileNode>,
    quota: Bytes,
}

impl Export {
    fn used(&self) -> u64 {
        self.files.values().map(|f| f.data.len() as u64).sum()
    }
}

/// The server: exports, files, traffic counters.
///
/// # Examples
///
/// ```
/// use cimone_cluster::services::nfs::NfsServer;
/// use cimone_soc::units::Bytes;
///
/// let mut nfs = NfsServer::monte_cimone();
/// let mount = nfs.mount("/home", "mc-node-01")?;
/// nfs.create(&mount, "/home/alice/results.dat", 1001, false)?;
/// nfs.write(&mount, "/home/alice/results.dat", 1001, b"gflops=1.86")?;
/// let (data, _cost) = nfs.read(&mount, "/home/alice/results.dat", 1001)?;
/// assert_eq!(data, b"gflops=1.86");
/// # Ok::<(), cimone_cluster::services::nfs::NfsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NfsServer {
    exports: BTreeMap<String, Export>,
    link: LinkModel,
    /// Cumulative operations served.
    ops: u64,
    /// Cumulative payload bytes moved.
    bytes_moved: u64,
}

impl NfsServer {
    /// Creates a server with no exports, reachable over `link`.
    pub fn new(link: LinkModel) -> Self {
        NfsServer {
            exports: BTreeMap::new(),
            link,
            ops: 0,
            bytes_moved: 0,
        }
    }

    /// The Monte Cimone master-node server: `/home` (100 GiB quota) and
    /// `/opt/cimone` (the Spack tree, 50 GiB) over Gigabit Ethernet.
    pub fn monte_cimone() -> Self {
        let mut server = NfsServer::new(LinkModel::gigabit_ethernet());
        server.export("/home", Bytes::from_gib(100));
        server.export("/opt/cimone", Bytes::from_gib(50));
        server
    }

    /// Adds (or replaces) an export with a quota.
    pub fn export(&mut self, path: impl Into<String>, quota: Bytes) {
        self.exports.insert(
            path.into(),
            Export {
                files: BTreeMap::new(),
                quota,
            },
        );
    }

    /// Export paths, sorted (`showmount -e`).
    pub fn exports(&self) -> impl Iterator<Item = &str> {
        self.exports.keys().map(String::as_str)
    }

    /// Mounts an export for a client.
    ///
    /// # Errors
    ///
    /// Fails for unknown exports.
    pub fn mount(&self, export: &str, client: &str) -> Result<MountHandle, NfsError> {
        if !self.exports.contains_key(export) {
            return Err(NfsError::NotExported {
                export: export.to_owned(),
            });
        }
        Ok(MountHandle {
            export: export.to_owned(),
            client: client.to_owned(),
        })
    }

    fn export_of(&mut self, handle: &MountHandle) -> Result<&mut Export, NfsError> {
        self.exports
            .get_mut(&handle.export)
            .ok_or_else(|| NfsError::NotExported {
                export: handle.export.clone(),
            })
    }

    fn check_path(handle: &MountHandle, path: &str) -> Result<(), NfsError> {
        if path.starts_with(&handle.export) {
            Ok(())
        } else {
            Err(NfsError::NoSuchFile {
                path: path.to_owned(),
            })
        }
    }

    fn charge(&mut self, payload: u64) -> SimDuration {
        self.ops += 1;
        self.bytes_moved += payload;
        self.link.ping_rtt() + self.link.transfer_time(Bytes::new(payload)) - self.link.latency()
        // transfer_time already includes one way
    }

    /// Creates an empty file owned by `uid`.
    ///
    /// # Errors
    ///
    /// Fails if the path exists or lies outside the export.
    pub fn create(
        &mut self,
        handle: &MountHandle,
        path: &str,
        uid: u32,
        world_writable: bool,
    ) -> Result<SimDuration, NfsError> {
        Self::check_path(handle, path)?;
        let export = self.export_of(handle)?;
        if export.files.contains_key(path) {
            return Err(NfsError::AlreadyExists {
                path: path.to_owned(),
            });
        }
        export.files.insert(
            path.to_owned(),
            FileNode {
                owner_uid: uid,
                world_writable,
                data: Vec::new(),
            },
        );
        Ok(self.charge(0))
    }

    /// Overwrites a file's contents (owner, root, or world-writable only).
    ///
    /// # Errors
    ///
    /// Permission, existence and quota failures.
    pub fn write(
        &mut self,
        handle: &MountHandle,
        path: &str,
        uid: u32,
        data: &[u8],
    ) -> Result<SimDuration, NfsError> {
        Self::check_path(handle, path)?;
        let export = self.export_of(handle)?;
        let quota = export.quota;
        let used_other: u64 = export
            .files
            .iter()
            .filter(|(p, _)| p.as_str() != path)
            .map(|(_, f)| f.data.len() as u64)
            .sum();
        let file = export
            .files
            .get_mut(path)
            .ok_or_else(|| NfsError::NoSuchFile {
                path: path.to_owned(),
            })?;
        if uid != ROOT_UID && uid != file.owner_uid && !file.world_writable {
            return Err(NfsError::PermissionDenied {
                path: path.to_owned(),
                uid,
            });
        }
        let would_use = used_other + data.len() as u64;
        if would_use > quota.as_u64() {
            return Err(NfsError::QuotaExceeded {
                quota,
                would_use: Bytes::new(would_use),
            });
        }
        file.data = data.to_vec();
        let payload = data.len() as u64;
        Ok(self.charge(payload))
    }

    /// Reads a file (any authenticated uid may read, as with 0644 homes).
    ///
    /// # Errors
    ///
    /// Fails for missing files.
    pub fn read(
        &mut self,
        handle: &MountHandle,
        path: &str,
        _uid: u32,
    ) -> Result<(Vec<u8>, SimDuration), NfsError> {
        Self::check_path(handle, path)?;
        let export = self.export_of(handle)?;
        let data = export
            .files
            .get(path)
            .ok_or_else(|| NfsError::NoSuchFile {
                path: path.to_owned(),
            })?
            .data
            .clone();
        let payload = data.len() as u64;
        let cost = self.charge(payload);
        Ok((data, cost))
    }

    /// Removes a file (owner or root).
    ///
    /// # Errors
    ///
    /// Permission and existence failures.
    pub fn remove(
        &mut self,
        handle: &MountHandle,
        path: &str,
        uid: u32,
    ) -> Result<SimDuration, NfsError> {
        Self::check_path(handle, path)?;
        let export = self.export_of(handle)?;
        let file = export.files.get(path).ok_or_else(|| NfsError::NoSuchFile {
            path: path.to_owned(),
        })?;
        if uid != ROOT_UID && uid != file.owner_uid {
            return Err(NfsError::PermissionDenied {
                path: path.to_owned(),
                uid,
            });
        }
        export.files.remove(path);
        Ok(self.charge(0))
    }

    /// Lists paths under `prefix`, sorted.
    pub fn list(&self, handle: &MountHandle, prefix: &str) -> Vec<String> {
        self.exports
            .get(&handle.export)
            .map(|e| {
                e.files
                    .keys()
                    .filter(|p| p.starts_with(prefix))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Bytes used in an export.
    pub fn used(&self, export: &str) -> Option<Bytes> {
        self.exports.get(export).map(|e| Bytes::new(e.used()))
    }

    /// Total operations served.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_home() -> (NfsServer, MountHandle) {
        let mut nfs = NfsServer::monte_cimone();
        let mount = nfs.mount("/home", "mc-node-01").unwrap();
        nfs.create(&mount, "/home/alice/data.bin", 1001, false)
            .unwrap();
        (nfs, mount)
    }

    #[test]
    fn write_read_round_trips_with_cost() {
        let (mut nfs, mount) = server_with_home();
        let cost = nfs
            .write(&mount, "/home/alice/data.bin", 1001, &[7u8; 125_000])
            .unwrap();
        // 125 kB at 125 MB/s = 1 ms plus RTT.
        assert!((cost.as_secs_f64() - 0.0011).abs() < 2e-4, "cost {cost}");
        let (data, _) = nfs.read(&mount, "/home/alice/data.bin", 1002).unwrap();
        assert_eq!(data.len(), 125_000);
        assert_eq!(nfs.op_count(), 3);
        assert_eq!(nfs.bytes_moved(), 250_000);
    }

    #[test]
    fn ownership_is_enforced() {
        let (mut nfs, mount) = server_with_home();
        let err = nfs
            .write(&mount, "/home/alice/data.bin", 1002, b"intruder")
            .unwrap_err();
        assert!(matches!(err, NfsError::PermissionDenied { uid: 1002, .. }));
        // Root bypasses, as a no_root_squash export would allow.
        nfs.write(&mount, "/home/alice/data.bin", ROOT_UID, b"admin fix")
            .unwrap();
        let err = nfs
            .remove(&mount, "/home/alice/data.bin", 1002)
            .unwrap_err();
        assert!(matches!(err, NfsError::PermissionDenied { .. }));
        nfs.remove(&mount, "/home/alice/data.bin", 1001).unwrap();
    }

    #[test]
    fn world_writable_files_accept_any_writer() {
        let (mut nfs, mount) = server_with_home();
        nfs.create(&mount, "/home/shared/scratch.log", 1001, true)
            .unwrap();
        nfs.write(&mount, "/home/shared/scratch.log", 1002, b"other user")
            .unwrap();
    }

    #[test]
    fn quota_is_enforced_per_export() {
        let mut nfs = NfsServer::new(LinkModel::gigabit_ethernet());
        nfs.export("/scratch", Bytes::from_kib(1));
        let mount = nfs.mount("/scratch", "mc-node-02").unwrap();
        nfs.create(&mount, "/scratch/a", 1001, false).unwrap();
        nfs.write(&mount, "/scratch/a", 1001, &[0u8; 800]).unwrap();
        nfs.create(&mount, "/scratch/b", 1001, false).unwrap();
        let err = nfs
            .write(&mount, "/scratch/b", 1001, &[0u8; 300])
            .unwrap_err();
        assert!(matches!(err, NfsError::QuotaExceeded { .. }));
        // Rewriting within quota still works (the old size is released).
        nfs.write(&mount, "/scratch/a", 1001, &[0u8; 100]).unwrap();
        nfs.write(&mount, "/scratch/b", 1001, &[0u8; 300]).unwrap();
        assert_eq!(nfs.used("/scratch"), Some(Bytes::new(400)));
    }

    #[test]
    fn paths_outside_the_export_are_invisible() {
        let (mut nfs, mount) = server_with_home();
        let err = nfs.create(&mount, "/etc/passwd", 1001, false).unwrap_err();
        assert!(matches!(err, NfsError::NoSuchFile { .. }));
        assert!(nfs.mount("/data", "mc-node-01").is_err());
    }

    #[test]
    fn listing_filters_by_prefix() {
        let (mut nfs, mount) = server_with_home();
        nfs.create(&mount, "/home/bench/out.txt", 1002, false)
            .unwrap();
        assert_eq!(nfs.list(&mount, "/home/alice").len(), 1);
        assert_eq!(nfs.list(&mount, "/home").len(), 2);
    }
}
