//! The LDAP directory service: POSIX accounts, groups, bind and lookup.
//!
//! Monte Cimone authenticates its users against an LDAP server on the
//! master node. This model covers what the cluster actually exercises:
//! `bind` (password authentication), `getent passwd`/`getent group` style
//! lookups, and DN construction. Password verification uses a salted
//! non-cryptographic hash — this is a simulation artefact, clearly not a
//! security boundary.

use std::collections::BTreeMap;
use std::fmt;

/// A POSIX account entry (`objectClass: posixAccount`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosixAccount {
    /// Login name (`uid` attribute).
    pub username: String,
    /// Numeric uid (`uidNumber`).
    pub uid: u32,
    /// Primary group (`gidNumber`).
    pub gid: u32,
    /// Home directory (on the NFS export).
    pub home: String,
    /// Login shell.
    pub shell: String,
}

impl PosixAccount {
    /// A conventional cluster account: home under `/home`, bash shell.
    pub fn new(username: impl Into<String>, uid: u32, gid: u32) -> Self {
        let username = username.into();
        PosixAccount {
            home: format!("/home/{username}"),
            shell: "/bin/bash".to_owned(),
            username,
            uid,
            gid,
        }
    }
}

/// A POSIX group entry (`objectClass: posixGroup`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosixGroup {
    /// Group name.
    pub name: String,
    /// Numeric gid.
    pub gid: u32,
    /// Member usernames (`memberUid`).
    pub members: Vec<String>,
}

/// Directory-service errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdapError {
    /// No entry with that name.
    NoSuchEntry {
        /// The name looked up.
        name: String,
    },
    /// Bind failed: wrong password.
    InvalidCredentials,
    /// An entry with the same key already exists.
    AlreadyExists {
        /// The conflicting key.
        name: String,
    },
}

impl fmt::Display for LdapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdapError::NoSuchEntry { name } => write!(f, "no such entry: {name}"),
            LdapError::InvalidCredentials => write!(f, "invalid credentials"),
            LdapError::AlreadyExists { name } => write!(f, "entry already exists: {name}"),
        }
    }
}

impl std::error::Error for LdapError {}

/// The directory.
///
/// # Examples
///
/// ```
/// use cimone_cluster::services::ldap::{LdapDirectory, PosixAccount};
///
/// let mut dir = LdapDirectory::new("dc=cimone,dc=unibo,dc=it");
/// dir.add_account(PosixAccount::new("alice", 1001, 100), "s3cret")?;
/// assert!(dir.bind("alice", "s3cret").is_ok());
/// assert!(dir.bind("alice", "wrong").is_err());
/// # Ok::<(), cimone_cluster::services::ldap::LdapError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LdapDirectory {
    base_dn: String,
    accounts: BTreeMap<String, PosixAccount>,
    groups: BTreeMap<String, PosixGroup>,
    /// Salted password hashes by username (simulation-grade, see module
    /// docs).
    password_hashes: BTreeMap<String, u64>,
}

/// Simulation-grade salted hash (FNV-1a over `user\0password`).
fn password_hash(username: &str, password: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in username.bytes().chain([0u8]).chain(password.bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl LdapDirectory {
    /// Creates an empty directory under `base_dn`.
    pub fn new(base_dn: impl Into<String>) -> Self {
        LdapDirectory {
            base_dn: base_dn.into(),
            accounts: BTreeMap::new(),
            groups: BTreeMap::new(),
            password_hashes: BTreeMap::new(),
        }
    }

    /// The directory shipped on the Monte Cimone master node: a `users`
    /// group plus a couple of benchmarking accounts.
    pub fn monte_cimone() -> Self {
        let mut dir = LdapDirectory::new("dc=cimone,dc=unibo,dc=it");
        dir.add_group(PosixGroup {
            name: "users".to_owned(),
            gid: 100,
            members: vec!["alice".to_owned(), "bench".to_owned()],
        })
        .expect("fresh directory");
        dir.add_account(PosixAccount::new("alice", 1001, 100), "alice-pw")
            .expect("fresh directory");
        dir.add_account(PosixAccount::new("bench", 1002, 100), "bench-pw")
            .expect("fresh directory");
        dir
    }

    /// The base DN.
    pub fn base_dn(&self) -> &str {
        &self.base_dn
    }

    /// The DN of a user entry.
    pub fn user_dn(&self, username: &str) -> String {
        format!("uid={username},ou=People,{}", self.base_dn)
    }

    /// Adds an account with its password.
    ///
    /// # Errors
    ///
    /// Fails if the username or uid is already taken.
    pub fn add_account(&mut self, account: PosixAccount, password: &str) -> Result<(), LdapError> {
        if self.accounts.contains_key(&account.username) {
            return Err(LdapError::AlreadyExists {
                name: account.username,
            });
        }
        if self.accounts.values().any(|a| a.uid == account.uid) {
            return Err(LdapError::AlreadyExists {
                name: format!("uidNumber={}", account.uid),
            });
        }
        self.password_hashes.insert(
            account.username.clone(),
            password_hash(&account.username, password),
        );
        self.accounts.insert(account.username.clone(), account);
        Ok(())
    }

    /// Adds a group.
    ///
    /// # Errors
    ///
    /// Fails if the group name exists.
    pub fn add_group(&mut self, group: PosixGroup) -> Result<(), LdapError> {
        if self.groups.contains_key(&group.name) {
            return Err(LdapError::AlreadyExists { name: group.name });
        }
        self.groups.insert(group.name.clone(), group);
        Ok(())
    }

    /// Authenticates (`ldap bind`).
    ///
    /// # Errors
    ///
    /// [`LdapError::NoSuchEntry`] for unknown users,
    /// [`LdapError::InvalidCredentials`] for a wrong password.
    pub fn bind(&self, username: &str, password: &str) -> Result<&PosixAccount, LdapError> {
        let account = self.account(username)?;
        let expected = self
            .password_hashes
            .get(username)
            .ok_or(LdapError::InvalidCredentials)?;
        if *expected == password_hash(username, password) {
            Ok(account)
        } else {
            Err(LdapError::InvalidCredentials)
        }
    }

    /// Looks up an account by name (`getent passwd <user>`).
    ///
    /// # Errors
    ///
    /// Fails for unknown users.
    pub fn account(&self, username: &str) -> Result<&PosixAccount, LdapError> {
        self.accounts
            .get(username)
            .ok_or_else(|| LdapError::NoSuchEntry {
                name: username.to_owned(),
            })
    }

    /// Looks up an account by numeric uid.
    pub fn account_by_uid(&self, uid: u32) -> Option<&PosixAccount> {
        self.accounts.values().find(|a| a.uid == uid)
    }

    /// Groups a user belongs to (primary plus memberships).
    pub fn groups_of(&self, username: &str) -> Vec<&PosixGroup> {
        let primary_gid = self.accounts.get(username).map(|a| a.gid);
        self.groups
            .values()
            .filter(|g| Some(g.gid) == primary_gid || g.members.iter().any(|m| m == username))
            .collect()
    }

    /// All accounts, sorted by username (`getent passwd`).
    pub fn accounts(&self) -> impl Iterator<Item = &PosixAccount> {
        self.accounts.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_succeeds_with_the_right_password_only() {
        let dir = LdapDirectory::monte_cimone();
        let account = dir.bind("alice", "alice-pw").unwrap();
        assert_eq!(account.uid, 1001);
        assert_eq!(
            dir.bind("alice", "alice-pW"),
            Err(LdapError::InvalidCredentials)
        );
        assert_eq!(
            dir.bind("mallory", "x"),
            Err(LdapError::NoSuchEntry {
                name: "mallory".into()
            })
        );
    }

    #[test]
    fn dn_and_lookup_conventions() {
        let dir = LdapDirectory::monte_cimone();
        assert_eq!(
            dir.user_dn("bench"),
            "uid=bench,ou=People,dc=cimone,dc=unibo,dc=it"
        );
        assert_eq!(dir.account_by_uid(1002).unwrap().username, "bench");
        assert_eq!(dir.account("bench").unwrap().home, "/home/bench");
    }

    #[test]
    fn group_membership_includes_primary_gid() {
        let mut dir = LdapDirectory::monte_cimone();
        dir.add_group(PosixGroup {
            name: "hpc".to_owned(),
            gid: 200,
            members: vec!["alice".to_owned()],
        })
        .unwrap();
        let groups: Vec<&str> = dir
            .groups_of("alice")
            .iter()
            .map(|g| g.name.as_str())
            .collect();
        assert!(groups.contains(&"users")); // primary gid 100
        assert!(groups.contains(&"hpc")); // memberUid
        assert_eq!(dir.groups_of("bench").len(), 1);
    }

    #[test]
    fn duplicate_users_and_uids_are_rejected() {
        let mut dir = LdapDirectory::monte_cimone();
        let err = dir
            .add_account(PosixAccount::new("alice", 2000, 100), "x")
            .unwrap_err();
        assert_eq!(
            err,
            LdapError::AlreadyExists {
                name: "alice".into()
            }
        );
        let err = dir
            .add_account(PosixAccount::new("alice2", 1001, 100), "x")
            .unwrap_err();
        assert!(matches!(err, LdapError::AlreadyExists { .. }));
    }

    #[test]
    fn same_password_different_users_hash_differently() {
        // The salt is the username: equal passwords must not collide.
        assert_ne!(password_hash("alice", "pw"), password_hash("bob", "pw"));
    }
}
