//! archspec-style microarchitecture targets.
//!
//! Spack resolves platform-specific toolchain flags through archspec; the
//! paper notes that support for the `linux-sifive-u74mc` triple was already
//! upstream (archspec 0.1.3) and worked unmodified. This module models the
//! target family tree, compatibility, and the GCC flag emission — including
//! the detail that GCC < 12 cannot emit Zba/Zbb even where the target
//! advertises them.

use std::fmt;

use cimone_soc::isa::IsaString;

use crate::version::Version;

/// A microarchitecture target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Microarch {
    name: String,
    /// Generic parent (e.g. `u74mc` -> `riscv64`); `None` for family roots.
    parent: Option<String>,
    /// ISA family keyword used in `-march`/`-mcpu` style flags.
    family: IsaFamily,
    /// Feature strings archspec would report.
    features: Vec<String>,
}

/// Instruction-set families the registry knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaFamily {
    /// RISC-V 64-bit.
    Riscv64,
    /// x86-64.
    X86_64,
    /// IBM POWER little-endian.
    Ppc64le,
    /// 64-bit Arm.
    Aarch64,
}

impl fmt::Display for IsaFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IsaFamily::Riscv64 => "riscv64",
            IsaFamily::X86_64 => "x86_64",
            IsaFamily::Ppc64le => "ppc64le",
            IsaFamily::Aarch64 => "aarch64",
        };
        f.write_str(s)
    }
}

impl Microarch {
    /// The target name (e.g. `u74mc`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generic parent target, if any.
    pub fn parent(&self) -> Option<&str> {
        self.parent.as_deref()
    }

    /// The ISA family.
    pub fn family(&self) -> IsaFamily {
        self.family
    }

    /// Feature strings.
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// The `linux-<family>-<name>` triple Spack shows for the target.
    pub fn triple(&self) -> String {
        format!("linux-{}-{}", self.family, self.name)
    }

    /// GCC `-march`/`-mcpu`-style optimisation flags for this target with
    /// the given GCC version.
    ///
    /// For `u74mc` the flags include `zba_zbb` only from GCC 12 on —
    /// mirroring the paper's observation that GCC 10.3 (and binutils
    /// 2.36.1) cannot emit the bit-manipulation extensions the silicon
    /// implements.
    pub fn gcc_flags(&self, gcc: &Version) -> String {
        match self.family {
            IsaFamily::Riscv64 => {
                let isa = IsaString::u74().supported_by_gcc(gcc.major() as u32);
                if self.name == "riscv64" {
                    "-march=rv64gc -mabi=lp64d".to_owned()
                } else {
                    format!("-march={} -mabi=lp64d -mtune=sifive-7-series", isa)
                }
            }
            IsaFamily::X86_64 => format!("-march={} -mtune={}", self.name, self.name),
            IsaFamily::Ppc64le => format!("-mcpu={} -mtune={}", self.name, self.name),
            IsaFamily::Aarch64 => format!("-mcpu={}", self.name),
        }
    }
}

/// The registry of known targets (a slice of archspec's JSON database).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetRegistry {
    targets: Vec<Microarch>,
}

/// A target name the registry does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTargetError {
    name: String,
}

impl fmt::Display for UnknownTargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown microarchitecture target {:?}", self.name)
    }
}

impl std::error::Error for UnknownTargetError {}

impl TargetRegistry {
    /// The built-in registry: the three node types the paper compares
    /// (U74-MC, Power9, ThunderX2) plus their generic parents and x86_64.
    pub fn builtin() -> Self {
        fn arch(
            name: &str,
            parent: Option<&str>,
            family: IsaFamily,
            features: &[&str],
        ) -> Microarch {
            Microarch {
                name: name.to_owned(),
                parent: parent.map(str::to_owned),
                family,
                features: features.iter().map(|s| (*s).to_owned()).collect(),
            }
        }
        TargetRegistry {
            targets: vec![
                arch("riscv64", None, IsaFamily::Riscv64, &["rv64gc"]),
                arch(
                    "u74mc",
                    Some("riscv64"),
                    IsaFamily::Riscv64,
                    &["rv64gc", "zba", "zbb"],
                ),
                arch("x86_64", None, IsaFamily::X86_64, &["sse2"]),
                arch("ppc64le", None, IsaFamily::Ppc64le, &["altivec"]),
                arch(
                    "power9",
                    Some("ppc64le"),
                    IsaFamily::Ppc64le,
                    &["altivec", "vsx3"],
                ),
                arch("aarch64", None, IsaFamily::Aarch64, &["neon"]),
                arch(
                    "thunderx2",
                    Some("aarch64"),
                    IsaFamily::Aarch64,
                    &["neon", "crc", "atomics"],
                ),
            ],
        }
    }

    /// Looks up a target by name.
    ///
    /// # Errors
    ///
    /// Fails for names not in the registry.
    pub fn get(&self, name: &str) -> Result<&Microarch, UnknownTargetError> {
        self.targets
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| UnknownTargetError {
                name: name.to_owned(),
            })
    }

    /// Whether code built for `built_for` runs on `host` (same target or a
    /// generic ancestor of it).
    pub fn compatible(&self, built_for: &str, host: &str) -> bool {
        let mut current = Some(host.to_owned());
        while let Some(name) = current {
            if name == built_for {
                return true;
            }
            current = self
                .get(&name)
                .ok()
                .and_then(|t| t.parent().map(str::to_owned));
        }
        false
    }

    /// All target names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.targets.iter().map(|t| t.name.as_str())
    }
}

impl Default for TargetRegistry {
    fn default() -> Self {
        TargetRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        s.parse().unwrap()
    }

    #[test]
    fn u74mc_triple_matches_the_paper() {
        let reg = TargetRegistry::builtin();
        let t = reg.get("u74mc").unwrap();
        assert_eq!(t.triple(), "linux-riscv64-u74mc");
        assert!(t.features().iter().any(|f| f == "zba"));
    }

    #[test]
    fn gcc10_flags_omit_bitmanip_gcc12_include_it() {
        let reg = TargetRegistry::builtin();
        let t = reg.get("u74mc").unwrap();
        let old = t.gcc_flags(&v("10.3.0"));
        assert!(old.contains("rv64imafdc"), "flags: {old}");
        assert!(!old.contains("zba"), "flags: {old}");
        let new = t.gcc_flags(&v("12.1.0"));
        assert!(
            new.contains("zba_zbb") || new.contains("zba"),
            "flags: {new}"
        );
    }

    #[test]
    fn compatibility_walks_the_family_tree() {
        let reg = TargetRegistry::builtin();
        assert!(reg.compatible("riscv64", "u74mc")); // generic code runs on u74mc
        assert!(reg.compatible("u74mc", "u74mc"));
        assert!(!reg.compatible("u74mc", "riscv64")); // tuned code does not run on generic
        assert!(!reg.compatible("power9", "u74mc"));
    }

    #[test]
    fn reference_node_targets_exist() {
        let reg = TargetRegistry::builtin();
        assert!(reg.get("power9").is_ok()); // Marconi100
        assert!(reg.get("thunderx2").is_ok()); // Armida
        let p9 = reg.get("power9").unwrap().gcc_flags(&v("10.3.0"));
        assert!(p9.contains("-mcpu=power9"));
    }

    #[test]
    fn unknown_targets_error() {
        let reg = TargetRegistry::builtin();
        let err = reg.get("m1max").unwrap_err();
        assert!(err.to_string().contains("m1max"));
        assert!(!reg.compatible("u74mc", "nonexistent"));
    }
}
