//! Table I: deploy the user-facing software stack with the Spack-like
//! package manager for the `linux-sifive-u74mc` target and expose it via
//! environment modules.

use cimone_pkg::concretize::{concretize, ConcretizeError};
use cimone_pkg::install::InstallTree;
use cimone_pkg::repo::{PackageRepo, TABLE_I_STACK};
use cimone_pkg::spec::Spec;
use cimone_pkg::target::TargetRegistry;

use crate::report::render_table;

/// One deployed package.
#[derive(Debug, Clone, PartialEq)]
pub struct StackEntry {
    /// Package name.
    pub package: String,
    /// The concretised version.
    pub version: String,
    /// Spack-style hash prefix.
    pub hash: String,
    /// Install prefix.
    pub prefix: String,
}

/// The deployment result.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareStackResult {
    /// The target triple everything was built for.
    pub triple: String,
    /// The Table I rows (user-facing packages only).
    pub stack: Vec<StackEntry>,
    /// Total packages installed including transitive dependencies.
    pub total_installed: usize,
    /// `module avail` output.
    pub modules: Vec<String>,
}

/// Concretises and installs the Table I stack.
///
/// # Errors
///
/// Propagates concretisation failures (none occur with the builtin repo).
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::software_stack;
///
/// let result = software_stack::run()?;
/// assert_eq!(result.stack.len(), 9);
/// assert!(result.total_installed > 9); // transitive dependencies too
/// # Ok::<(), cimone_pkg::concretize::ConcretizeError>(())
/// ```
pub fn run() -> Result<SoftwareStackResult, ConcretizeError> {
    let repo = PackageRepo::builtin();
    let targets = TargetRegistry::builtin();
    let mut tree = InstallTree::new("/opt/cimone");

    let mut stack = Vec::new();
    for (name, _) in TABLE_I_STACK {
        let spec: Spec = format!("{name} target=u74mc")
            .parse()
            .expect("table I specs are well-formed");
        let dag = concretize(&spec, &repo, &targets)?;
        tree.install_dag(&dag)
            .expect("installing a concretised DAG in build order cannot fail");
        let root = dag.root();
        stack.push(StackEntry {
            package: root.name.clone(),
            version: root.version.to_string(),
            hash: root.hash[..7].to_owned(),
            prefix: tree.prefix_for(root),
        });
    }

    Ok(SoftwareStackResult {
        triple: targets.get("u74mc").expect("u74mc registered").triple(),
        total_installed: tree.len(),
        modules: tree.module_avail(),
        stack,
    })
}

impl SoftwareStackResult {
    /// Renders Table I.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Table I — User-facing software stack ({}, {} packages incl. dependencies)\n",
            self.triple, self.total_installed
        );
        let rows: Vec<Vec<String>> = self
            .stack
            .iter()
            .map(|e| vec![e.package.clone(), e.version.clone(), e.hash.clone()])
            .collect();
        out.push_str(&render_table(&["Package", "Version", "Hash"], &rows));
        out.push_str("\nmodule avail:\n");
        for m in &self.modules {
            out.push_str(&format!("  {m}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_matches_table_i_exactly() {
        let result = run().unwrap();
        assert_eq!(result.stack.len(), TABLE_I_STACK.len());
        for (entry, (name, version)) in result.stack.iter().zip(TABLE_I_STACK) {
            assert_eq!(entry.package, name);
            assert_eq!(entry.version, version, "{name} version mismatch");
        }
    }

    #[test]
    fn triple_is_the_paper_target() {
        let result = run().unwrap();
        assert_eq!(result.triple, "linux-riscv64-u74mc");
    }

    #[test]
    fn transitive_dependencies_are_installed_once() {
        let result = run().unwrap();
        // zlib, hwloc etc. are shared; the tree deduplicates by hash.
        assert!(result.total_installed >= 15);
        assert!(result.total_installed <= 25);
        assert_eq!(result.modules.len(), result.total_installed);
    }

    #[test]
    fn render_lists_the_stack() {
        let text = run().unwrap().render();
        assert!(text.contains("Table I"));
        assert!(text.contains("quantum-espresso"));
        assert!(text.contains("module avail"));
    }
}
