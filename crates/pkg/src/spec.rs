//! Abstract package specs and their Spack-flavoured string syntax.
//!
//! A spec names a package plus constraints:
//! `hpl@2.3 +openmp ~static %gcc@10.3.0 target=u74mc`.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::version::{Version, VersionParseError, VersionReq};

/// A compiler constraint (`%gcc@10.3.0`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompilerSpec {
    /// Compiler name (e.g. `gcc`).
    pub name: String,
    /// Exact version.
    pub version: Version,
}

impl fmt::Display for CompilerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}@{}", self.name, self.version)
    }
}

/// An abstract (unconcretised) spec.
///
/// # Examples
///
/// ```
/// use cimone_pkg::spec::Spec;
///
/// let spec: Spec = "hpl@2.3 +openmp %gcc@10.3.0 target=u74mc".parse()?;
/// assert_eq!(spec.name(), "hpl");
/// assert_eq!(spec.variant("openmp"), Some(true));
/// # Ok::<(), cimone_pkg::spec::SpecParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    name: String,
    version: VersionReq,
    variants: BTreeMap<String, bool>,
    compiler: Option<CompilerSpec>,
    target: Option<String>,
}

impl Spec {
    /// A bare spec constraining only the package name.
    ///
    /// # Panics
    ///
    /// Panics on an empty name.
    pub fn bare(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "package name must be non-empty");
        Spec {
            name,
            version: VersionReq::Any,
            variants: BTreeMap::new(),
            compiler: None,
            target: None,
        }
    }

    /// Adds a version requirement.
    pub fn with_version(mut self, req: VersionReq) -> Self {
        self.version = req;
        self
    }

    /// Sets a variant.
    pub fn with_variant(mut self, name: impl Into<String>, enabled: bool) -> Self {
        self.variants.insert(name.into(), enabled);
        self
    }

    /// Sets the compiler.
    pub fn with_compiler(mut self, compiler: CompilerSpec) -> Self {
        self.compiler = Some(compiler);
        self
    }

    /// Sets the target.
    pub fn with_target(mut self, target: impl Into<String>) -> Self {
        self.target = Some(target.into());
        self
    }

    /// Package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Version requirement.
    pub fn version(&self) -> &VersionReq {
        &self.version
    }

    /// Variant setting, if constrained.
    pub fn variant(&self, name: &str) -> Option<bool> {
        self.variants.get(name).copied()
    }

    /// All constrained variants.
    pub fn variants(&self) -> &BTreeMap<String, bool> {
        &self.variants
    }

    /// Compiler constraint.
    pub fn compiler(&self) -> Option<&CompilerSpec> {
        self.compiler.as_ref()
    }

    /// Target constraint.
    pub fn target(&self) -> Option<&str> {
        self.target.as_deref()
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.version)?;
        for (v, enabled) in &self.variants {
            write!(f, " {}{v}", if *enabled { '+' } else { '~' })?;
        }
        if let Some(c) = &self.compiler {
            write!(f, " {c}")?;
        }
        if let Some(t) = &self.target {
            write!(f, " target={t}")?;
        }
        Ok(())
    }
}

/// A malformed spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    input: String,
    reason: String,
}

impl SpecParseError {
    fn new(input: &str, reason: impl Into<String>) -> Self {
        SpecParseError {
            input: input.to_owned(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spec {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for SpecParseError {}

impl From<VersionParseError> for SpecParseError {
    fn from(err: VersionParseError) -> Self {
        SpecParseError {
            input: String::new(),
            reason: err.to_string(),
        }
    }
}

impl FromStr for Spec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tokens = s.split_whitespace();
        let head = tokens
            .next()
            .ok_or_else(|| SpecParseError::new(s, "empty spec"))?;

        let (name, version) = match head.split_once('@') {
            Some((n, v)) => (
                n,
                v.parse::<VersionReq>()
                    .map_err(|e| SpecParseError::new(s, e.to_string()))?,
            ),
            None => (head, VersionReq::Any),
        };
        if name.is_empty() {
            return Err(SpecParseError::new(s, "missing package name"));
        }
        let mut spec = Spec::bare(name).with_version(version);

        for token in tokens {
            if let Some(variant) = token.strip_prefix('+') {
                spec = spec.with_variant(variant, true);
            } else if let Some(variant) = token.strip_prefix('~') {
                spec = spec.with_variant(variant, false);
            } else if let Some(compiler) = token.strip_prefix('%') {
                let (cname, cver) = compiler.split_once('@').ok_or_else(|| {
                    SpecParseError::new(s, "compiler constraint needs an exact version")
                })?;
                spec = spec.with_compiler(CompilerSpec {
                    name: cname.to_owned(),
                    version: cver
                        .parse()
                        .map_err(|e: VersionParseError| SpecParseError::new(s, e.to_string()))?,
                });
            } else if let Some(target) = token.strip_prefix("target=") {
                spec = spec.with_target(target);
            } else {
                return Err(SpecParseError::new(
                    s,
                    format!("unrecognised token {token:?}"),
                ));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_syntax_round_trips() {
        let text = "hpl@2.3 +openmp ~static %gcc@10.3.0 target=u74mc";
        let spec: Spec = text.parse().unwrap();
        assert_eq!(spec.name(), "hpl");
        assert_eq!(spec.version(), &"2.3".parse().unwrap());
        assert_eq!(spec.variant("openmp"), Some(true));
        assert_eq!(spec.variant("static"), Some(false));
        assert_eq!(spec.compiler().unwrap().name, "gcc");
        assert_eq!(spec.target(), Some("u74mc"));
        assert_eq!(spec.to_string(), text);
    }

    #[test]
    fn bare_name_parses() {
        let spec: Spec = "openblas".parse().unwrap();
        assert_eq!(spec.name(), "openblas");
        assert_eq!(spec.version(), &VersionReq::Any);
        assert_eq!(spec.variant("shared"), None);
    }

    #[test]
    fn version_ranges_parse() {
        let spec: Spec = "gcc@10:12".parse().unwrap();
        assert!(spec.version().matches(&"11.2".parse().unwrap()));
        assert!(!spec.version().matches(&"13.1".parse().unwrap()));
    }

    #[test]
    fn bad_tokens_are_rejected() {
        assert!("hpl bogus".parse::<Spec>().is_err());
        assert!("hpl %gcc".parse::<Spec>().is_err());
        assert!("@2.3".parse::<Spec>().is_err());
        assert!("".parse::<Spec>().is_err());
    }
}
