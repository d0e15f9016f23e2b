//! The InfiniBand HCA capability model.
//!
//! The paper equips two nodes with Mellanox ConnectX-4 FDR HCAs: the
//! kernel recognises the device and loads the OFED stack, `ib_ping`
//! succeeds between boards (and to an x86 HPC server), but RDMA transport
//! fails for yet-to-be-pinpointed software/kernel-driver reasons. This
//! module models exactly that capability matrix so experiments (and the
//! Fig. 2 discussion of interconnect headroom) can query it.

use std::fmt;

use cimone_soc::units::SimDuration;

use crate::link::LinkModel;

/// Stages of InfiniBand bring-up, in dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IbCapability {
    /// PCIe device enumerated.
    DeviceRecognized,
    /// Kernel module (OFED stack) loaded.
    KernelModuleLoaded,
    /// `ib_ping` round-trips between endpoints.
    Ping,
    /// RDMA verbs transport operational.
    RdmaTransport,
}

impl IbCapability {
    /// All stages in bring-up order.
    pub const ALL: [IbCapability; 4] = [
        IbCapability::DeviceRecognized,
        IbCapability::KernelModuleLoaded,
        IbCapability::Ping,
        IbCapability::RdmaTransport,
    ];
}

impl fmt::Display for IbCapability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IbCapability::DeviceRecognized => "device recognised",
            IbCapability::KernelModuleLoaded => "kernel module loaded",
            IbCapability::Ping => "ib_ping",
            IbCapability::RdmaTransport => "RDMA transport",
        };
        f.write_str(s)
    }
}

/// Errors from InfiniBand operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbError {
    /// The requested capability is not functional on this stack.
    Unsupported {
        /// The capability that failed.
        capability: IbCapability,
        /// Why, as far as anyone knows.
        reason: String,
    },
    /// The HCA needs more PCIe lanes than the slot provides.
    InsufficientPcieLanes {
        /// Lanes required by the HCA.
        required: u32,
        /// Lanes available on the slot.
        available: u32,
    },
}

impl fmt::Display for IbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IbError::Unsupported { capability, reason } => {
                write!(f, "{capability} unsupported: {reason}")
            }
            IbError::InsufficientPcieLanes {
                required,
                available,
            } => write!(
                f,
                "HCA requires {required} PCIe lanes, slot provides {available}"
            ),
        }
    }
}

impl std::error::Error for IbError {}

/// A Mellanox ConnectX-4 FDR HCA as installed in two Monte Cimone nodes.
///
/// # Examples
///
/// ```
/// use cimone_net::ib::{IbCapability, IbHca};
///
/// let hca = IbHca::connect_x4_fdr_on_riscv();
/// assert!(hca.supports(IbCapability::Ping));
/// assert!(!hca.supports(IbCapability::RdmaTransport));
/// assert!(hca.rdma_write(1024).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IbHca {
    model: String,
    rate_gbit_per_s: u32,
    pcie_lanes_required: u32,
    /// Highest functional bring-up stage.
    functional_through: IbCapability,
    link: LinkModel,
}

impl IbHca {
    /// The HCA in the state the paper reports on the RISC-V nodes:
    /// recognised, module loaded, ping works, RDMA does not.
    pub fn connect_x4_fdr_on_riscv() -> Self {
        IbHca {
            model: "Mellanox ConnectX-4 FDR".to_owned(),
            rate_gbit_per_s: 56,
            pcie_lanes_required: 8,
            functional_through: IbCapability::Ping,
            link: LinkModel::infiniband_fdr(),
        }
    }

    /// The same HCA with full RDMA support — the counterfactual used by the
    /// interconnect ablation ("once RDMA is supported...").
    pub fn connect_x4_fdr_fully_supported() -> Self {
        IbHca {
            functional_through: IbCapability::RdmaTransport,
            ..IbHca::connect_x4_fdr_on_riscv()
        }
    }

    /// The marketing name.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Link rate in Gbit/s.
    pub fn rate_gbit_per_s(&self) -> u32 {
        self.rate_gbit_per_s
    }

    /// Whether a bring-up stage is functional.
    pub fn supports(&self, capability: IbCapability) -> bool {
        capability <= self.functional_through
    }

    /// The full capability matrix, in bring-up order.
    pub fn capability_matrix(&self) -> Vec<(IbCapability, bool)> {
        IbCapability::ALL
            .into_iter()
            .map(|c| (c, self.supports(c)))
            .collect()
    }

    /// Checks the HCA fits a slot with `available_lanes` PCIe lanes.
    ///
    /// # Errors
    ///
    /// Returns [`IbError::InsufficientPcieLanes`] when the slot is too
    /// narrow.
    pub fn check_slot(&self, available_lanes: u32) -> Result<(), IbError> {
        if available_lanes < self.pcie_lanes_required {
            Err(IbError::InsufficientPcieLanes {
                required: self.pcie_lanes_required,
                available: available_lanes,
            })
        } else {
            Ok(())
        }
    }

    /// Runs an `ib_ping` and returns the round-trip time.
    ///
    /// # Errors
    ///
    /// Fails if the stack has not reached the ping stage.
    pub fn ping(&self) -> Result<SimDuration, IbError> {
        if self.supports(IbCapability::Ping) {
            Ok(self.link.ping_rtt())
        } else {
            Err(IbError::Unsupported {
                capability: IbCapability::Ping,
                reason: "OFED stack not functional".to_owned(),
            })
        }
    }

    /// Attempts an RDMA write of `bytes`, returning the transfer time.
    ///
    /// # Errors
    ///
    /// On the paper's stack this always fails with the (verbatim) status of
    /// the port: incompatibilities between the software stack and the
    /// kernel driver.
    pub fn rdma_write(&self, bytes: u64) -> Result<SimDuration, IbError> {
        if self.supports(IbCapability::RdmaTransport) {
            Ok(self
                .link
                .transfer_time(cimone_soc::units::Bytes::new(bytes)))
        } else {
            Err(IbError::Unsupported {
                capability: IbCapability::RdmaTransport,
                reason:
                    "yet-to-be-pinpointed incompatibilities between the software stack and the kernel driver"
                        .to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_state_capability_matrix() {
        let hca = IbHca::connect_x4_fdr_on_riscv();
        let matrix = hca.capability_matrix();
        assert_eq!(
            matrix,
            vec![
                (IbCapability::DeviceRecognized, true),
                (IbCapability::KernelModuleLoaded, true),
                (IbCapability::Ping, true),
                (IbCapability::RdmaTransport, false),
            ]
        );
    }

    #[test]
    fn ping_works_rdma_fails_as_in_paper() {
        let hca = IbHca::connect_x4_fdr_on_riscv();
        assert!(hca.ping().is_ok());
        let err = hca.rdma_write(4096).unwrap_err();
        assert!(matches!(
            err,
            IbError::Unsupported {
                capability: IbCapability::RdmaTransport,
                ..
            }
        ));
    }

    #[test]
    fn fully_supported_variant_performs_rdma() {
        let hca = IbHca::connect_x4_fdr_fully_supported();
        let t = hca.rdma_write(7_000_000_000).unwrap();
        // 7 GB at 7 GB/s ≈ 1 s.
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn slot_check_matches_board_lanes() {
        let hca = IbHca::connect_x4_fdr_on_riscv();
        // The HiFive Unmatched exposes x8 electrically: fits.
        assert!(hca.check_slot(8).is_ok());
        let err = hca.check_slot(4).unwrap_err();
        assert_eq!(
            err,
            IbError::InsufficientPcieLanes {
                required: 8,
                available: 4
            }
        );
    }
}
