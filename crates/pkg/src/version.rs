//! Dotted package versions and version requirements.

use std::fmt;
use std::str::FromStr;

/// A dotted numeric version such as `10.3.0`.
///
/// Comparison is componentwise with missing trailing components treated as
/// zero, so `1.2 == 1.2.0` and `1.10 > 1.9`.
///
/// # Examples
///
/// ```
/// use cimone_pkg::version::Version;
///
/// let a: Version = "0.3.18".parse()?;
/// let b: Version = "0.3.9".parse()?;
/// assert!(a > b);
/// # Ok::<(), cimone_pkg::version::VersionParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Version(Vec<u64>);

impl PartialEq for Version {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Version {}

impl std::hash::Hash for Version {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash consistently with Eq: ignore trailing zero components.
        let trimmed_len = self.0.iter().rposition(|&c| c != 0).map_or(1, |i| i + 1);
        self.0[..trimmed_len].hash(state);
    }
}

impl Version {
    /// Builds a version from components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn new(components: impl Into<Vec<u64>>) -> Self {
        let components = components.into();
        assert!(
            !components.is_empty(),
            "version needs at least one component"
        );
        Version(components)
    }

    /// The components.
    pub fn components(&self) -> &[u64] {
        &self.0
    }

    /// The leading (major) component.
    pub fn major(&self) -> u64 {
        self.0[0]
    }
}

impl PartialOrd for Version {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Version {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let len = self.0.len().max(other.0.len());
        for i in 0..len {
            let a = self.0.get(i).copied().unwrap_or(0);
            let b = other.0.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|c| c.to_string()).collect();
        f.write_str(&parts.join("."))
    }
}

/// A malformed version string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionParseError {
    input: String,
}

impl fmt::Display for VersionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid version string {:?}", self.input)
    }
}

impl std::error::Error for VersionParseError {}

impl FromStr for Version {
    type Err = VersionParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || VersionParseError {
            input: s.to_owned(),
        };
        if s.is_empty() {
            return Err(err());
        }
        let components = s
            .split('.')
            .map(|c| c.parse::<u64>().map_err(|_| err()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Version(components))
    }
}

/// A version requirement in Spack syntax: `1.2` (prefix match on a release
/// series), `1.2:1.4` (inclusive range), `1.2:` / `:1.4` (open ranges), or
/// empty (any).
///
/// # Examples
///
/// ```
/// use cimone_pkg::version::{Version, VersionReq};
///
/// let req: VersionReq = "4.1".parse()?;
/// assert!(req.matches(&"4.1.1".parse::<Version>()?));
/// assert!(!req.matches(&"4.2.0".parse::<Version>()?));
/// # Ok::<(), cimone_pkg::version::VersionParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum VersionReq {
    /// Any version.
    #[default]
    Any,
    /// The named release series: `1.2` matches `1.2`, `1.2.3`, not `1.20`.
    Series(Version),
    /// An inclusive range; `None` bounds are open.
    Range {
        /// Lower bound, inclusive.
        min: Option<Version>,
        /// Upper bound, inclusive (series semantics on the boundary).
        max: Option<Version>,
    },
}

impl VersionReq {
    /// Whether `v` satisfies this requirement.
    pub fn matches(&self, v: &Version) -> bool {
        match self {
            VersionReq::Any => true,
            VersionReq::Series(series) => {
                v.components().len() >= series.components().len()
                    && v.components()[..series.components().len()] == *series.components()
            }
            VersionReq::Range { min, max } => {
                if let Some(min) = min {
                    if v < min {
                        return false;
                    }
                }
                if let Some(max) = max {
                    // Inclusive with series semantics: 1.4.2 satisfies :1.4.
                    let prefix_len = max.components().len().min(v.components().len());
                    let truncated = Version::new(v.components()[..prefix_len].to_vec());
                    if &truncated > max {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// The most permissive requirement satisfied by both `self` and
    /// `other`, or `None` if they are incompatible for every version in
    /// `candidates`.
    ///
    /// Concretisation works over finite candidate lists, so intersection is
    /// evaluated extensionally.
    pub fn intersects_over<'a>(
        &self,
        other: &VersionReq,
        candidates: impl IntoIterator<Item = &'a Version>,
    ) -> bool {
        candidates
            .into_iter()
            .any(|v| self.matches(v) && other.matches(v))
    }
}

impl fmt::Display for VersionReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionReq::Any => f.write_str(""),
            VersionReq::Series(v) => write!(f, "@{v}"),
            VersionReq::Range { min, max } => {
                let lo = min.as_ref().map(|v| v.to_string()).unwrap_or_default();
                let hi = max.as_ref().map(|v| v.to_string()).unwrap_or_default();
                write!(f, "@{lo}:{hi}")
            }
        }
    }
}

impl FromStr for VersionReq {
    type Err = VersionParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Ok(VersionReq::Any);
        }
        if let Some((lo, hi)) = s.split_once(':') {
            let min = if lo.is_empty() {
                None
            } else {
                Some(lo.parse()?)
            };
            let max = if hi.is_empty() {
                None
            } else {
                Some(hi.parse()?)
            };
            Ok(VersionReq::Range { min, max })
        } else {
            Ok(VersionReq::Series(s.parse()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        s.parse().unwrap()
    }

    #[test]
    fn ordering_is_componentwise_numeric() {
        assert!(v("1.10") > v("1.9"));
        assert!(v("2.0") > v("1.99.99"));
        assert_eq!(v("1.2"), v("1.2.0"));
        assert!(v("0.3.18") > v("0.3.9"));
    }

    #[test]
    fn display_round_trips() {
        for s in ["10.3.0", "2.3", "5"] {
            assert_eq!(v(s).to_string(), s);
        }
    }

    #[test]
    fn series_requirement_is_prefix_based() {
        let req: VersionReq = "1.2".parse().unwrap();
        assert!(req.matches(&v("1.2")));
        assert!(req.matches(&v("1.2.5")));
        assert!(!req.matches(&v("1.20")));
        assert!(!req.matches(&v("1.3")));
    }

    #[test]
    fn range_requirements() {
        let req: VersionReq = "1.2:1.4".parse().unwrap();
        assert!(req.matches(&v("1.2")));
        assert!(req.matches(&v("1.3.7")));
        assert!(req.matches(&v("1.4.2"))); // inclusive series upper bound
        assert!(!req.matches(&v("1.5")));
        assert!(!req.matches(&v("1.1.9")));

        let open_hi: VersionReq = "2:".parse().unwrap();
        assert!(open_hi.matches(&v("12.1")));
        assert!(!open_hi.matches(&v("1.9")));

        let open_lo: VersionReq = ":0.17".parse().unwrap();
        assert!(open_lo.matches(&v("0.17.0")));
        assert!(!open_lo.matches(&v("0.18")));
    }

    #[test]
    fn any_matches_everything() {
        let req = VersionReq::Any;
        assert!(req.matches(&v("0.0.1")));
        assert!(req.matches(&v("99")));
    }

    #[test]
    fn extensional_intersection() {
        let a: VersionReq = "1:2".parse().unwrap();
        let b: VersionReq = "2:3".parse().unwrap();
        let candidates = [v("1.5"), v("2.1"), v("3.0")];
        assert!(a.intersects_over(&b, candidates.iter()));
        let c: VersionReq = "4:".parse().unwrap();
        assert!(!a.intersects_over(&c, candidates.iter()));
    }

    #[test]
    fn parse_errors_are_informative() {
        let err = "1.x".parse::<Version>().unwrap_err();
        assert!(err.to_string().contains("1.x"));
        assert!("".parse::<Version>().is_err());
    }
}
