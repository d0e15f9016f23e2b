//! The simulated install tree (Spack's `opt/spack/...` layout).
//!
//! Installation is modelled, not performed: the tree tracks which concrete
//! specs are "installed", enforces dependency order, assigns hash-addressed
//! prefixes, and refuses to uninstall packages that still have installed
//! dependents.

use std::collections::BTreeMap;
use std::fmt;

use crate::concretize::{ConcreteSpec, Concretization};
use crate::modules::{module_name, render_modulefile};

/// One installed package.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledPackage {
    /// The concrete spec installed.
    pub spec: ConcreteSpec,
    /// The hash-addressed install prefix.
    pub prefix: String,
    /// The generated modulefile.
    pub modulefile: String,
}

/// Install-tree errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// A dependency of the package is not installed.
    MissingDependency {
        /// The package being installed.
        package: String,
        /// The absent dependency.
        dependency: String,
    },
    /// Uninstall refused: dependents are still installed.
    HasDependents {
        /// The package that cannot be removed.
        package: String,
        /// Installed packages that depend on it.
        dependents: Vec<String>,
    },
    /// The named package is not installed.
    NotInstalled {
        /// The package.
        package: String,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::MissingDependency {
                package,
                dependency,
            } => write!(
                f,
                "cannot install {package}: dependency {dependency} not installed"
            ),
            InstallError::HasDependents {
                package,
                dependents,
            } => write!(
                f,
                "cannot uninstall {package}: required by {}",
                dependents.join(", ")
            ),
            InstallError::NotInstalled { package } => {
                write!(f, "package {package} is not installed")
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// The install tree.
///
/// # Examples
///
/// ```
/// use cimone_pkg::concretize::concretize;
/// use cimone_pkg::install::InstallTree;
/// use cimone_pkg::repo::PackageRepo;
/// use cimone_pkg::target::TargetRegistry;
///
/// let dag = concretize(
///     &"stream".parse()?,
///     &PackageRepo::builtin(),
///     &TargetRegistry::builtin(),
/// )?;
/// let mut tree = InstallTree::new("/opt/cimone");
/// let installed = tree.install_dag(&dag)?;
/// assert_eq!(installed.len(), 1); // stream has no dependencies
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstallTree {
    root: String,
    /// Installed packages by hash.
    by_hash: BTreeMap<String, InstalledPackage>,
}

impl InstallTree {
    /// Creates an empty tree rooted at `root`.
    pub fn new(root: impl Into<String>) -> Self {
        InstallTree {
            root: root.into(),
            by_hash: BTreeMap::new(),
        }
    }

    /// The tree root path.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The prefix a spec would install to.
    pub fn prefix_for(&self, spec: &ConcreteSpec) -> String {
        format!(
            "{}/{}/{}-{}-{}",
            self.root,
            spec.target,
            spec.name,
            spec.version,
            &spec.hash[..7.min(spec.hash.len())]
        )
    }

    /// Whether a concrete spec is installed.
    pub fn is_installed(&self, spec: &ConcreteSpec) -> bool {
        self.by_hash.contains_key(&spec.hash)
    }

    /// Installs one concrete spec, requiring its dependencies (by name
    /// within the same DAG) to be present already.
    ///
    /// Re-installing an identical spec is a no-op.
    ///
    /// # Errors
    ///
    /// Fails with [`InstallError::MissingDependency`] when installed out of
    /// order.
    pub fn install(
        &mut self,
        spec: &ConcreteSpec,
        dag: &Concretization,
    ) -> Result<&InstalledPackage, InstallError> {
        if !self.by_hash.contains_key(&spec.hash) {
            for dep in &spec.deps {
                let dep_spec = dag
                    .get(dep)
                    .ok_or_else(|| InstallError::MissingDependency {
                        package: spec.name.clone(),
                        dependency: dep.clone(),
                    })?;
                if !self.is_installed(dep_spec) {
                    return Err(InstallError::MissingDependency {
                        package: spec.name.clone(),
                        dependency: dep.clone(),
                    });
                }
            }
            let prefix = self.prefix_for(spec);
            let modulefile = render_modulefile(spec, &prefix);
            self.by_hash.insert(
                spec.hash.clone(),
                InstalledPackage {
                    spec: spec.clone(),
                    prefix,
                    modulefile,
                },
            );
        }
        Ok(&self.by_hash[&spec.hash])
    }

    /// Installs a whole DAG in build order, returning the newly installed
    /// packages (already-present ones are skipped).
    ///
    /// # Errors
    ///
    /// Propagates per-package failures (which cannot occur for a
    /// well-formed DAG).
    pub fn install_dag(&mut self, dag: &Concretization) -> Result<Vec<String>, InstallError> {
        let mut new = Vec::new();
        for name in dag.build_order() {
            let spec = dag.get(name).expect("build order names exist");
            if !self.is_installed(spec) {
                self.install(spec, dag)?;
                new.push(name.clone());
            }
        }
        Ok(new)
    }

    /// Uninstalls a spec, refusing while installed dependents remain.
    ///
    /// # Errors
    ///
    /// Fails when the package is absent or still needed.
    pub fn uninstall(&mut self, spec: &ConcreteSpec) -> Result<(), InstallError> {
        if !self.by_hash.contains_key(&spec.hash) {
            return Err(InstallError::NotInstalled {
                package: spec.name.clone(),
            });
        }
        let dependents: Vec<String> = self
            .by_hash
            .values()
            .filter(|p| p.spec.deps.contains(&spec.name))
            .map(|p| p.spec.name.clone())
            .collect();
        if !dependents.is_empty() {
            return Err(InstallError::HasDependents {
                package: spec.name.clone(),
                dependents,
            });
        }
        self.by_hash.remove(&spec.hash);
        Ok(())
    }

    /// All installed packages, sorted by hash.
    pub fn installed(&self) -> impl Iterator<Item = &InstalledPackage> {
        self.by_hash.values()
    }

    /// Number of installed packages.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// `module avail` over the installed tree, sorted.
    pub fn module_avail(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .by_hash
            .values()
            .map(|p| module_name(&p.spec))
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concretize::concretize;
    use crate::repo::PackageRepo;
    use crate::target::TargetRegistry;

    fn dag(spec: &str) -> Concretization {
        concretize(
            &spec.parse().unwrap(),
            &PackageRepo::builtin(),
            &TargetRegistry::builtin(),
        )
        .unwrap()
    }

    #[test]
    fn dag_install_follows_build_order_and_is_idempotent() {
        let hpl = dag("hpl");
        let mut tree = InstallTree::new("/opt/cimone");
        let first = tree.install_dag(&hpl).unwrap();
        assert_eq!(first.len(), hpl.len());
        let again = tree.install_dag(&hpl).unwrap();
        assert!(again.is_empty(), "second install must be a no-op");
        assert_eq!(tree.len(), hpl.len());
    }

    #[test]
    fn out_of_order_install_is_rejected() {
        let hpl = dag("hpl");
        let mut tree = InstallTree::new("/opt/cimone");
        let err = tree.install(hpl.root(), &hpl).unwrap_err();
        assert!(matches!(err, InstallError::MissingDependency { .. }));
    }

    #[test]
    fn prefixes_are_hash_addressed_under_the_target() {
        let hpl = dag("hpl target=u74mc");
        let tree = InstallTree::new("/opt/cimone");
        let prefix = tree.prefix_for(hpl.root());
        assert!(prefix.starts_with("/opt/cimone/u74mc/hpl-2.3-"));
    }

    #[test]
    fn uninstall_refuses_while_dependents_exist() {
        let hpl = dag("hpl");
        let mut tree = InstallTree::new("/opt/cimone");
        tree.install_dag(&hpl).unwrap();
        let blas = hpl.get("openblas").unwrap();
        let err = tree.uninstall(blas).unwrap_err();
        assert!(matches!(err, InstallError::HasDependents { .. }));
        // Removing the root first unblocks the dependency.
        tree.uninstall(hpl.root()).unwrap();
        tree.uninstall(blas).unwrap();
        assert!(!tree.is_installed(blas));
    }

    #[test]
    fn uninstalling_absent_packages_errors() {
        let hpl = dag("hpl");
        let mut tree = InstallTree::new("/opt/cimone");
        let err = tree.uninstall(hpl.root()).unwrap_err();
        assert!(matches!(err, InstallError::NotInstalled { .. }));
    }

    #[test]
    fn module_avail_reflects_installs() {
        let stream = dag("stream");
        let mut tree = InstallTree::new("/opt/cimone");
        tree.install_dag(&stream).unwrap();
        assert_eq!(
            tree.module_avail(),
            vec!["stream/5.10-gcc-10.3.0".to_owned()]
        );
    }
}
