//! Reference-node models for the cross-ISA comparison of §V-A.
//!
//! The paper benchmarks the same upstream, unoptimised stack (no vendor
//! libraries, 1 rank/thread per physical core) on a Marconi100 node
//! (ppc64le, IBM Power9) and an Armida node (ARMv8, Marvell ThunderX2) and
//! compares attained efficiency against Monte Cimone. Peak figures below
//! are nominal CPU-only node values; the comparison is about the
//! *efficiency fractions*, which are the paper's measurements.

/// One comparison node.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceNode {
    /// System name.
    pub system: String,
    /// ISA family as labelled in the paper.
    pub isa: String,
    /// CPU model.
    pub cpu: String,
    /// archspec-style target name (resolvable in
    /// `cimone_pkg::target::TargetRegistry`).
    pub target: String,
    /// CPU-only node peak, GFLOP/s (nominal).
    pub peak_gflops: f64,
    /// Peak memory bandwidth, MB/s (nominal).
    pub peak_bandwidth_mbps: f64,
    /// Measured HPL FPU utilisation (fraction of peak).
    pub hpl_efficiency: f64,
    /// Measured STREAM bandwidth efficiency (fraction of peak).
    pub stream_efficiency: f64,
}

impl ReferenceNode {
    /// The Monte Cimone node itself (for symmetric tables).
    pub fn monte_cimone() -> Self {
        ReferenceNode {
            system: "Monte Cimone".to_owned(),
            isa: "RV64GCB".to_owned(),
            cpu: "SiFive Freedom U740".to_owned(),
            target: "u74mc".to_owned(),
            peak_gflops: 4.0,
            peak_bandwidth_mbps: 7760.0,
            hpl_efficiency: 0.465,
            stream_efficiency: 0.155,
        }
    }

    /// The Marconi100 node at CINECA (paper: 59.7 % HPL, 48.2 % STREAM).
    pub fn marconi100() -> Self {
        ReferenceNode {
            system: "Marconi100".to_owned(),
            isa: "ppc64le".to_owned(),
            cpu: "IBM Power9 AC922".to_owned(),
            target: "power9".to_owned(),
            peak_gflops: 794.0,
            peak_bandwidth_mbps: 340_000.0,
            hpl_efficiency: 0.597,
            stream_efficiency: 0.482,
        }
    }

    /// The Armida node at E4 (paper: 65.79 % HPL, 63.21 % STREAM).
    pub fn armida() -> Self {
        ReferenceNode {
            system: "Armida".to_owned(),
            isa: "ARMv8a".to_owned(),
            cpu: "Marvell ThunderX2".to_owned(),
            target: "thunderx2".to_owned(),
            peak_gflops: 563.0,
            peak_bandwidth_mbps: 318_000.0,
            hpl_efficiency: 0.6579,
            stream_efficiency: 0.6321,
        }
    }

    /// The three nodes of the comparison, Monte Cimone first.
    pub fn comparison_set() -> Vec<ReferenceNode> {
        vec![
            ReferenceNode::monte_cimone(),
            ReferenceNode::marconi100(),
            ReferenceNode::armida(),
        ]
    }

    /// HPL GFLOP/s the node attains with the upstream stack.
    pub fn attained_hpl_gflops(&self) -> f64 {
        self.peak_gflops * self.hpl_efficiency
    }

    /// STREAM MB/s the node attains with the upstream stack.
    pub fn attained_stream_mbps(&self) -> f64 {
        self.peak_bandwidth_mbps * self.stream_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiencies_match_the_paper_text() {
        let mc = ReferenceNode::monte_cimone();
        let m100 = ReferenceNode::marconi100();
        let armida = ReferenceNode::armida();
        assert!((mc.hpl_efficiency - 0.465).abs() < 1e-12);
        assert!((m100.hpl_efficiency - 0.597).abs() < 1e-12);
        assert!((armida.hpl_efficiency - 0.6579).abs() < 1e-12);
        assert!((mc.stream_efficiency - 0.155).abs() < 1e-12);
        assert!((m100.stream_efficiency - 0.482).abs() < 1e-12);
        assert!((armida.stream_efficiency - 0.6321).abs() < 1e-12);
    }

    #[test]
    fn monte_cimone_is_in_range_on_hpl_but_behind_on_stream() {
        // The paper's qualitative claim: HPL efficiency is "slightly lower
        // but in the range of the state of the art"; STREAM efficiency is
        // far below it.
        let set = ReferenceNode::comparison_set();
        let mc = &set[0];
        for other in &set[1..] {
            assert!(mc.hpl_efficiency > other.hpl_efficiency * 0.7);
            assert!(mc.hpl_efficiency < other.hpl_efficiency);
            assert!(mc.stream_efficiency < other.stream_efficiency * 0.5);
        }
    }

    #[test]
    fn attained_hpl_matches_the_measured_1_86() {
        let mc = ReferenceNode::monte_cimone();
        assert!((mc.attained_hpl_gflops() - 1.86).abs() < 0.01);
        assert!((mc.attained_stream_mbps() - 1202.8).abs() < 5.0);
    }

    #[test]
    fn targets_resolve_in_the_package_manager_registry() {
        let registry = cimone_pkg::target::TargetRegistry::builtin();
        for node in ReferenceNode::comparison_set() {
            assert!(
                registry.get(&node.target).is_ok(),
                "{} target {} missing from registry",
                node.system,
                node.target
            );
        }
    }
}
