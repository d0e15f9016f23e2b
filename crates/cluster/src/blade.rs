//! The E4 RV007 blade and the physical machine layout.
//!
//! A blade is a 1U dual-board server: two compute nodes, each behind its
//! own 250 W PSU so nodes power on individually (paper §III). Monte Cimone
//! stacks four blades; the enclosure's airflow — and the paper's thermal
//! incident — are governed by this layout.

/// Millimetre dimensions of the RV007 chassis (paper §III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BladeDimensions {
    /// Height (1 rack unit).
    pub height_mm: f64,
    /// Width.
    pub width_mm: f64,
    /// Depth.
    pub depth_mm: f64,
}

impl BladeDimensions {
    /// The RV007 form factor: 4.44 cm × 42.5 cm × 40 cm.
    pub fn rv007() -> Self {
        BladeDimensions {
            height_mm: 44.4,
            width_mm: 425.0,
            depth_mm: 400.0,
        }
    }
}

/// The provisioned compute budget of one blade's power rail, watts.
///
/// Two boards at the paper's 5.935 W HPL wall power, rounded up to the
/// rail's provisioning margin. A [`crate::faults::FaultKind::RailBrownout`]
/// budget is expressed as a fraction of this figure; the 250 W PSUs are
/// vastly over-provisioned for the boards, so the *rail* budget — what a
/// browned-out feed can actually deliver — is the binding constraint.
pub const RAIL_RATED_WATTS: f64 = 12.0;

/// One dual-node blade.
#[derive(Debug, Clone, PartialEq)]
pub struct Blade {
    /// Blade position in the stack, 0 at the bottom.
    pub position: usize,
    /// Node indices (0-based, machine-wide) hosted by this blade.
    pub node_indices: [usize; 2],
    /// Per-node PSU rating, watts.
    pub psu_watts: f64,
    /// Board edge length (Mini-ITX: 170 mm square).
    pub board_mm: f64,
}

impl Blade {
    /// Creates blade `position` hosting nodes `2·position` and
    /// `2·position + 1`.
    pub fn new(position: usize) -> Self {
        Blade {
            position,
            node_indices: [2 * position, 2 * position + 1],
            psu_watts: 250.0,
            board_mm: 170.0,
        }
    }

    /// Whether this blade sits in the centre of a 4-blade stack (the
    /// paper's hot region).
    pub fn is_centre_of(&self, blade_count: usize) -> bool {
        blade_count >= 3 && self.position > 0 && self.position < blade_count - 1
    }
}

/// The physical layout: four blades, eight nodes, login and master nodes
/// on the side.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineLayout {
    blades: Vec<Blade>,
    dimensions: BladeDimensions,
}

impl MachineLayout {
    /// The Monte Cimone layout: 4 × RV007 blades = 8 nodes.
    pub fn monte_cimone() -> Self {
        MachineLayout {
            blades: (0..4).map(Blade::new).collect(),
            dimensions: BladeDimensions::rv007(),
        }
    }

    /// The blades, bottom to top.
    pub fn blades(&self) -> &[Blade] {
        &self.blades
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.blades.len() * 2
    }

    /// The chassis dimensions.
    pub fn dimensions(&self) -> &BladeDimensions {
        &self.dimensions
    }

    /// The blade hosting node `node_index`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range nodes.
    pub fn blade_of(&self, node_index: usize) -> &Blade {
        self.blades
            .iter()
            .find(|b| b.node_indices.contains(&node_index))
            .unwrap_or_else(|| panic!("node {node_index} not hosted by any blade"))
    }

    /// Whether a node sits in a centre blade.
    pub fn is_centre_node(&self, node_index: usize) -> bool {
        self.blade_of(node_index).is_centre_of(self.blades.len())
    }

    /// The blade sitting in `blade`'s airflow shadow — directly above it
    /// in the stack, where the dead fan's un-moved hot air pools (hot air
    /// rises). `None` for the top blade.
    pub fn airflow_shadow_of(&self, blade: usize) -> Option<usize> {
        (blade + 1 < self.blades.len()).then_some(blade + 1)
    }
}

impl Default for MachineLayout {
    fn default() -> Self {
        MachineLayout::monte_cimone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_hosts_eight_nodes_on_four_blades() {
        let layout = MachineLayout::monte_cimone();
        assert_eq!(layout.blades().len(), 4);
        assert_eq!(layout.node_count(), 8);
        assert_eq!(layout.blade_of(0).position, 0);
        assert_eq!(layout.blade_of(7).position, 3);
        assert_eq!(layout.blade_of(5).node_indices, [4, 5]);
    }

    #[test]
    fn centre_blades_are_the_middle_two() {
        let layout = MachineLayout::monte_cimone();
        assert!(!layout.is_centre_node(0));
        assert!(!layout.is_centre_node(1));
        assert!(layout.is_centre_node(2));
        assert!(layout.is_centre_node(5));
        assert!(!layout.is_centre_node(6));
        assert!(!layout.is_centre_node(7));
    }

    #[test]
    fn dimensions_match_the_paper() {
        let d = BladeDimensions::rv007();
        assert!((d.height_mm - 44.4).abs() < 1e-9);
        assert!((d.width_mm - 425.0).abs() < 1e-9);
        assert!((d.depth_mm - 400.0).abs() < 1e-9);
    }

    #[test]
    fn airflow_shadow_is_the_blade_above() {
        let layout = MachineLayout::monte_cimone();
        assert_eq!(layout.airflow_shadow_of(0), Some(1));
        assert_eq!(layout.airflow_shadow_of(2), Some(3));
        assert_eq!(layout.airflow_shadow_of(3), None, "top blade has none");
    }

    #[test]
    fn rail_rating_covers_two_boards_at_hpl() {
        // Two boards at the paper's 5.935 W HPL wall power must fit under
        // an un-degraded rail.
        assert!(RAIL_RATED_WATTS >= 2.0 * core::hint::black_box(5.935));
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn unknown_node_panics() {
        let layout = MachineLayout::monte_cimone();
        let _ = layout.blade_of(9);
    }
}
