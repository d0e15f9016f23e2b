//! RISC-V ISA extension modelling for the FU740's harts.
//!
//! The U74 application cores implement RV64GC plus the Zba/Zbb bit
//! manipulation extensions (the paper notes the hardware supports them while
//! the GCC 10.3 toolchain cannot emit them yet — see
//! [`IsaString::supported_by_gcc`]). The S7 monitor core is RV64IMAC with no
//! floating-point unit.

use std::fmt;

/// A single standard RISC-V extension relevant to the FU740.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Extension {
    /// Base integer instruction set (RV64I).
    I,
    /// Integer multiplication and division.
    M,
    /// Atomic instructions.
    A,
    /// Single-precision floating point.
    F,
    /// Double-precision floating point.
    D,
    /// Compressed instructions.
    C,
    /// Address generation bit-manipulation (Zba).
    Zba,
    /// Basic bit-manipulation (Zbb).
    Zbb,
}

impl Extension {
    /// The canonical lowercase name used in ISA strings.
    pub fn name(self) -> &'static str {
        match self {
            Extension::I => "i",
            Extension::M => "m",
            Extension::A => "a",
            Extension::F => "f",
            Extension::D => "d",
            Extension::C => "c",
            Extension::Zba => "zba",
            Extension::Zbb => "zbb",
        }
    }

    /// Whether this is a multi-letter "Z" extension, which ISA strings
    /// separate with underscores.
    pub fn is_z_extension(self) -> bool {
        matches!(self, Extension::Zba | Extension::Zbb)
    }

    /// The first GCC release able to emit instructions from this extension.
    ///
    /// Returns `None` for extensions every RV64 GCC supports. The paper
    /// observes that Zba/Zbb code generation only landed in GCC 12.
    pub fn minimum_gcc_major(self) -> Option<u32> {
        match self {
            Extension::Zba | Extension::Zbb => Some(12),
            _ => None,
        }
    }
}

impl fmt::Display for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A full ISA description for one hart, e.g. `rv64imafdc_zba_zbb`.
///
/// # Examples
///
/// ```
/// use cimone_soc::isa::IsaString;
///
/// let u74 = IsaString::u74();
/// assert_eq!(u74.to_string(), "rv64imafdc_zba_zbb");
/// assert!(u74.has_double_precision());
/// assert!(!IsaString::s7().has_double_precision());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IsaString {
    xlen: u32,
    extensions: Vec<Extension>,
}

impl IsaString {
    /// Builds an ISA string from an extension list.
    ///
    /// Extensions are sorted into canonical order and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `xlen` is not 32, 64 or 128, or if the base `I` extension
    /// is missing.
    pub fn new(xlen: u32, extensions: impl IntoIterator<Item = Extension>) -> Self {
        assert!(
            matches!(xlen, 32 | 64 | 128),
            "xlen must be 32, 64 or 128, got {xlen}"
        );
        let mut extensions: Vec<Extension> = extensions.into_iter().collect();
        extensions.sort();
        extensions.dedup();
        assert!(
            extensions.contains(&Extension::I),
            "ISA string requires the base I extension"
        );
        IsaString { xlen, extensions }
    }

    /// The RV64GCB ISA of the U74 application cores.
    pub fn u74() -> Self {
        IsaString::new(
            64,
            [
                Extension::I,
                Extension::M,
                Extension::A,
                Extension::F,
                Extension::D,
                Extension::C,
                Extension::Zba,
                Extension::Zbb,
            ],
        )
    }

    /// The RV64IMAC ISA of the S7 monitor core (no FPU).
    pub fn s7() -> Self {
        IsaString::new(64, [Extension::I, Extension::M, Extension::A, Extension::C])
    }

    /// The register width in bits.
    pub fn xlen(&self) -> u32 {
        self.xlen
    }

    /// The extensions, in canonical order.
    pub fn extensions(&self) -> &[Extension] {
        &self.extensions
    }

    /// Whether the hart implements the given extension.
    pub fn has(&self, ext: Extension) -> bool {
        self.extensions.contains(&ext)
    }

    /// Whether the hart can execute double-precision floating point.
    pub fn has_double_precision(&self) -> bool {
        self.has(Extension::D)
    }

    /// The subset of this ISA a `gcc_major` toolchain can actually emit.
    ///
    /// Models the paper's observation that GCC 10.3 cannot emit Zba/Zbb even
    /// though the U74 implements them; the returned ISA is what upstream
    /// builds effectively target.
    pub fn supported_by_gcc(&self, gcc_major: u32) -> IsaString {
        let exts = self
            .extensions
            .iter()
            .copied()
            .filter(|e| e.minimum_gcc_major().is_none_or(|min| gcc_major >= min));
        IsaString::new(self.xlen, exts)
    }
}

impl fmt::Display for IsaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rv{}", self.xlen)?;
        for ext in &self.extensions {
            if ext.is_z_extension() {
                write!(f, "_{}", ext.name())?;
            } else {
                f.write_str(ext.name())?;
            }
        }
        Ok(())
    }
}

/// Privilege modes supported by the U74 (the paper lists all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrivilegeMode {
    /// User mode.
    User,
    /// Supervisor mode (where Linux runs).
    Supervisor,
    /// Machine mode (firmware / OpenSBI).
    Machine,
}

impl PrivilegeMode {
    /// All modes, ordered from least to most privileged.
    pub const ALL: [PrivilegeMode; 3] = [
        PrivilegeMode::User,
        PrivilegeMode::Supervisor,
        PrivilegeMode::Machine,
    ];
}

impl fmt::Display for PrivilegeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrivilegeMode::User => "U",
            PrivilegeMode::Supervisor => "S",
            PrivilegeMode::Machine => "M",
        };
        f.write_str(s)
    }
}

/// The RISC-V code model used when linking, which bounds reachable symbols.
///
/// The paper attributes part of STREAM's size ceiling to `medany`, which
/// requires every linked symbol to sit within ±2 GiB of `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeModel {
    /// Symbols within ±2 GiB of the program counter (RV64 default).
    #[default]
    Medany,
    /// Symbols in the lowest 2 GiB of the address space.
    Medlow,
}

impl CodeModel {
    /// The largest statically-allocated data span linkable under this model.
    pub fn max_static_span_bytes(self) -> u64 {
        // Both models bound symbols to a 2 GiB window.
        2 * 1024 * 1024 * 1024
    }

    /// Checks whether a static allocation of `bytes` can link.
    ///
    /// # Errors
    ///
    /// Returns [`CodeModelError`] when `bytes` exceeds the reachable window,
    /// mirroring the relocation-overflow failures upstream STREAM hits for
    /// arrays past 2 GiB.
    pub fn check_static_allocation(self, bytes: u64) -> Result<(), CodeModelError> {
        if bytes > self.max_static_span_bytes() {
            Err(CodeModelError {
                requested: bytes,
                limit: self.max_static_span_bytes(),
                model: self,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for CodeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodeModel::Medany => "medany",
            CodeModel::Medlow => "medlow",
        };
        f.write_str(s)
    }
}

/// A static allocation exceeded what the code model can address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeModelError {
    requested: u64,
    limit: u64,
    model: CodeModel,
}

impl CodeModelError {
    /// The allocation size that failed to link.
    pub fn requested(&self) -> u64 {
        self.requested
    }

    /// The code model's addressable limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

impl fmt::Display for CodeModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static allocation of {} bytes exceeds the {} code model's ±{} byte window",
            self.requested, self.model, self.limit
        )
    }
}

impl std::error::Error for CodeModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u74_isa_string_is_canonical() {
        assert_eq!(IsaString::u74().to_string(), "rv64imafdc_zba_zbb");
    }

    #[test]
    fn s7_has_no_fpu() {
        let s7 = IsaString::s7();
        assert!(!s7.has(Extension::F));
        assert!(!s7.has(Extension::D));
        assert_eq!(s7.to_string(), "rv64imac");
    }

    #[test]
    fn gcc_10_drops_bitmanip_gcc_12_keeps_it() {
        let u74 = IsaString::u74();
        let gcc10 = u74.supported_by_gcc(10);
        assert!(!gcc10.has(Extension::Zba));
        assert!(!gcc10.has(Extension::Zbb));
        assert_eq!(gcc10.to_string(), "rv64imafdc");
        let gcc12 = u74.supported_by_gcc(12);
        assert_eq!(gcc12, u74);
    }

    #[test]
    fn extensions_are_deduplicated_and_sorted() {
        let isa = IsaString::new(64, [Extension::M, Extension::I, Extension::M]);
        assert_eq!(isa.extensions(), &[Extension::I, Extension::M]);
    }

    #[test]
    #[should_panic(expected = "base I extension")]
    fn missing_base_extension_panics() {
        let _ = IsaString::new(64, [Extension::M]);
    }

    #[test]
    fn medany_rejects_static_data_beyond_two_gib() {
        let model = CodeModel::Medany;
        assert!(model.check_static_allocation(1 << 30).is_ok());
        let err = model
            .check_static_allocation(3 * 1024 * 1024 * 1024)
            .unwrap_err();
        assert_eq!(err.limit(), 2 * 1024 * 1024 * 1024);
        assert!(err.to_string().contains("medany"));
    }
}
