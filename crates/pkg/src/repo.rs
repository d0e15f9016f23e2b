//! The package repository: definitions the concretizer resolves against.
//!
//! [`PackageRepo::builtin`] is a snapshot contemporaneous with the paper's
//! Spack 0.17.0 deployment: the nine user-facing packages of Table I (at
//! exactly the versions the paper lists as latest) plus their transitive
//! dependencies.

use std::collections::BTreeMap;
use std::fmt;

use crate::version::{Version, VersionReq};

/// A dependency edge, optionally conditional on a variant setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// Depended-on package.
    pub name: String,
    /// Version requirement on the dependency.
    pub req: VersionReq,
    /// Only active when the dependent's variant has this value.
    pub when: Option<(String, bool)>,
}

impl Dependency {
    /// An unconditional dependency with any version.
    pub fn any(name: impl Into<String>) -> Self {
        Dependency {
            name: name.into(),
            req: VersionReq::Any,
            when: None,
        }
    }

    /// Adds a version requirement.
    pub fn with_req(mut self, req: VersionReq) -> Self {
        self.req = req;
        self
    }

    /// Makes the edge conditional on a variant value.
    pub fn when(mut self, variant: impl Into<String>, value: bool) -> Self {
        self.when = Some((variant.into(), value));
        self
    }
}

/// A package definition.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageDef {
    name: String,
    /// Known versions, ascending.
    versions: Vec<Version>,
    /// Variant names with default values.
    variants: BTreeMap<String, bool>,
    deps: Vec<Dependency>,
}

impl PackageDef {
    /// Creates a definition.
    ///
    /// # Panics
    ///
    /// Panics if no versions are given.
    pub fn new(name: impl Into<String>, versions: impl IntoIterator<Item = &'static str>) -> Self {
        let mut versions: Vec<Version> = versions
            .into_iter()
            .map(|s| s.parse().expect("builtin versions parse"))
            .collect();
        assert!(!versions.is_empty(), "package needs at least one version");
        versions.sort();
        PackageDef {
            name: name.into(),
            versions,
            variants: BTreeMap::new(),
            deps: Vec::new(),
        }
    }

    /// Adds a variant with its default.
    pub fn variant(mut self, name: impl Into<String>, default: bool) -> Self {
        self.variants.insert(name.into(), default);
        self
    }

    /// Adds a dependency.
    pub fn dep(mut self, dep: Dependency) -> Self {
        self.deps.push(dep);
        self
    }

    /// Package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Known versions, ascending.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// The preferred (latest) version.
    pub fn latest(&self) -> &Version {
        self.versions.last().expect("non-empty by construction")
    }

    /// Declared variants and defaults.
    pub fn variants(&self) -> &BTreeMap<String, bool> {
        &self.variants
    }

    /// Declared dependencies.
    pub fn deps(&self) -> &[Dependency] {
        &self.deps
    }
}

/// A named collection of package definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageRepo {
    packages: BTreeMap<String, PackageDef>,
}

/// A package name the repository does not provide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPackageError {
    name: String,
}

impl UnknownPackageError {
    /// The missing package's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownPackageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no such package {:?} in the repository", self.name)
    }
}

impl std::error::Error for UnknownPackageError {}

impl PackageRepo {
    /// Creates a repository from definitions.
    ///
    /// # Panics
    ///
    /// Panics on duplicate package names.
    pub fn new(defs: impl IntoIterator<Item = PackageDef>) -> Self {
        let mut packages = BTreeMap::new();
        for def in defs {
            let name = def.name().to_owned();
            let duplicate = packages.insert(name.clone(), def).is_some();
            assert!(!duplicate, "duplicate package definition {name}");
        }
        PackageRepo { packages }
    }

    /// The built-in repository matching the paper's deployment.
    pub fn builtin() -> Self {
        let defs = vec![
            // --- Table I user-facing stack (latest == paper's version) ---
            PackageDef::new("gcc", ["9.4.0", "10.3.0"])
                .dep(Dependency::any("gmp"))
                .dep(Dependency::any("mpfr"))
                .dep(Dependency::any("mpc"))
                .dep(Dependency::any("zlib")),
            PackageDef::new("openmpi", ["4.0.5", "4.1.1"])
                .variant("pmix", true)
                .dep(Dependency::any("hwloc"))
                .dep(Dependency::any("libevent"))
                .dep(Dependency::any("numactl"))
                .dep(Dependency::any("zlib"))
                .dep(Dependency::any("pmix").when("pmix", true)),
            PackageDef::new("openblas", ["0.3.17", "0.3.18"]).variant("openmp", false),
            PackageDef::new("fftw", ["3.3.9", "3.3.10"])
                .variant("mpi", true)
                .dep(Dependency::any("openmpi").when("mpi", true)),
            PackageDef::new("netlib-lapack", ["3.9.0", "3.9.1"]),
            PackageDef::new("netlib-scalapack", ["2.1.0"])
                .dep(Dependency::any("netlib-lapack"))
                .dep(Dependency::any("openmpi").with_req("4.1".parse().expect("req parses"))),
            PackageDef::new("hpl", ["2.3"])
                .dep(Dependency::any("openmpi"))
                .dep(Dependency::any("openblas")),
            PackageDef::new("stream", ["5.10"]).variant("openmp", true),
            PackageDef::new("quantum-espresso", ["6.7", "6.8"])
                .variant("scalapack", true)
                .dep(Dependency::any("openmpi"))
                .dep(Dependency::any("openblas"))
                .dep(Dependency::any("fftw"))
                .dep(Dependency::any("netlib-scalapack").when("scalapack", true)),
            // --- system services the paper ports ---
            PackageDef::new("slurm", ["21.08.8"])
                .dep(Dependency::any("munge"))
                .dep(Dependency::any("zlib")),
            PackageDef::new("munge", ["0.5.14"]).dep(Dependency::any("zlib")),
            // --- transitive dependencies ---
            PackageDef::new("zlib", ["1.2.11", "1.2.12"]),
            PackageDef::new("gmp", ["6.2.1"]),
            PackageDef::new("mpfr", ["4.1.0"]).dep(Dependency::any("gmp")),
            PackageDef::new("mpc", ["1.2.1"])
                .dep(Dependency::any("gmp"))
                .dep(Dependency::any("mpfr")),
            PackageDef::new("hwloc", ["2.7.1"]),
            PackageDef::new("libevent", ["2.1.12"]),
            PackageDef::new("numactl", ["2.0.14"]),
            PackageDef::new("pmix", ["4.1.2"])
                .dep(Dependency::any("libevent"))
                .dep(Dependency::any("hwloc")),
        ];
        PackageRepo::new(defs)
    }

    /// Looks up a package.
    ///
    /// # Errors
    ///
    /// Fails for unknown names.
    pub fn get(&self, name: &str) -> Result<&PackageDef, UnknownPackageError> {
        self.packages.get(name).ok_or_else(|| UnknownPackageError {
            name: name.to_owned(),
        })
    }

    /// All package names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.packages.keys().map(String::as_str)
    }

    /// Number of packages.
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// Whether the repo is empty.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }
}

impl Default for PackageRepo {
    fn default() -> Self {
        PackageRepo::builtin()
    }
}

/// The paper's Table I: the user-facing package names and the versions the
/// deployed stack resolved to.
pub const TABLE_I_STACK: [(&str, &str); 9] = [
    ("gcc", "10.3.0"),
    ("openmpi", "4.1.1"),
    ("openblas", "0.3.18"),
    ("fftw", "3.3.10"),
    ("netlib-lapack", "3.9.1"),
    ("netlib-scalapack", "2.1.0"),
    ("hpl", "2.3"),
    ("stream", "5.10"),
    ("quantum-espresso", "6.8"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_contains_the_full_table_i_stack() {
        let repo = PackageRepo::builtin();
        for (name, version) in TABLE_I_STACK {
            let def = repo.get(name).unwrap();
            assert_eq!(
                def.latest(),
                &version.parse::<Version>().unwrap(),
                "latest {name} should be the Table I version"
            );
        }
    }

    #[test]
    fn versions_are_sorted_ascending() {
        let repo = PackageRepo::builtin();
        for name in repo.names() {
            let versions = repo.get(name).unwrap().versions().to_vec();
            let mut sorted = versions.clone();
            sorted.sort();
            assert_eq!(versions, sorted, "{name} versions out of order");
        }
    }

    #[test]
    fn all_dependency_edges_resolve() {
        let repo = PackageRepo::builtin();
        for name in repo.names() {
            for dep in repo.get(name).unwrap().deps() {
                assert!(
                    repo.get(&dep.name).is_ok(),
                    "{name} depends on unknown {}",
                    dep.name
                );
            }
        }
    }

    #[test]
    fn conditional_dependencies_reference_declared_variants() {
        let repo = PackageRepo::builtin();
        for name in repo.names() {
            let def = repo.get(name).unwrap();
            for dep in def.deps() {
                if let Some((variant, _)) = &dep.when {
                    assert!(
                        def.variants().contains_key(variant),
                        "{name}: conditional dep on undeclared variant {variant}"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_package_error_is_descriptive() {
        let repo = PackageRepo::builtin();
        let err = repo.get("tensorflow").unwrap_err();
        assert!(err.to_string().contains("tensorflow"));
        assert_eq!(err.name(), "tensorflow");
    }

    #[test]
    #[should_panic(expected = "duplicate package definition")]
    fn duplicate_definitions_panic() {
        let _ = PackageRepo::new(vec![
            PackageDef::new("a", ["1.0"]),
            PackageDef::new("a", ["2.0"]),
        ]);
    }
}
