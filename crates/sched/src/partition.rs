//! Partitions and node availability tracking.

use std::collections::BTreeMap;
use std::fmt;

/// Availability of one compute node (Slurm's node states, reduced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeAvailability {
    /// Free for allocation.
    Idle,
    /// Running a job.
    Allocated,
    /// Administratively removed from scheduling (healthy, but held out of
    /// service by the operator — Slurm's `drain`).
    Drained,
    /// Removed from service by a failure.
    Down,
}

impl fmt::Display for NodeAvailability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeAvailability::Idle => "idle",
            NodeAvailability::Allocated => "alloc",
            NodeAvailability::Drained => "drain",
            NodeAvailability::Down => "down",
        };
        f.write_str(s)
    }
}

/// A named set of schedulable nodes.
///
/// # Examples
///
/// ```
/// use cimone_sched::partition::Partition;
///
/// let p = Partition::monte_cimone();
/// assert_eq!(p.len(), 8);
/// assert_eq!(p.idle_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    name: String,
    nodes: BTreeMap<String, NodeAvailability>,
}

impl Partition {
    /// Creates a partition over the given node names, all idle.
    ///
    /// # Panics
    ///
    /// Panics if the node list is empty or contains duplicates.
    pub fn new(name: impl Into<String>, node_names: impl IntoIterator<Item = String>) -> Self {
        let mut nodes = BTreeMap::new();
        for n in node_names {
            let duplicate = nodes.insert(n.clone(), NodeAvailability::Idle).is_some();
            assert!(!duplicate, "duplicate node name {n}");
        }
        assert!(!nodes.is_empty(), "partition needs at least one node");
        Partition {
            name: name.into(),
            nodes,
        }
    }

    /// The paper's production partition: eight nodes, `mc-node-01` through
    /// `mc-node-08`.
    pub fn monte_cimone() -> Self {
        Partition::new("cimone", (1..=8).map(|i| format!("mc-node-{i:02}")))
    }

    /// Partition name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the partition has no nodes (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The availability of one node, if it exists.
    pub fn availability(&self, node: &str) -> Option<NodeAvailability> {
        self.nodes.get(node).copied()
    }

    /// Names of currently idle nodes, in stable (sorted) order.
    pub fn idle_nodes(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, a)| **a == NodeAvailability::Idle)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Count of idle nodes.
    pub fn idle_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|a| **a == NodeAvailability::Idle)
            .count()
    }

    /// Count of nodes available for work (idle or allocated; drained and
    /// down nodes are out of service).
    pub fn in_service_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|a| matches!(a, NodeAvailability::Idle | NodeAvailability::Allocated))
            .count()
    }

    /// Marks `node` with the given availability.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn set_availability(&mut self, node: &str, availability: NodeAvailability) {
        let slot = self
            .nodes
            .get_mut(node)
            .unwrap_or_else(|| panic!("unknown node {node}"));
        *slot = availability;
    }

    /// Iterates `(name, availability)` in sorted order (sinfo-style).
    pub fn iter(&self) -> impl Iterator<Item = (&str, NodeAvailability)> {
        self.nodes.iter().map(|(n, a)| (n.as_str(), *a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_cimone_names_are_stable() {
        let p = Partition::monte_cimone();
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names[0], "mc-node-01");
        assert_eq!(names[7], "mc-node-08");
    }

    #[test]
    fn availability_transitions() {
        let mut p = Partition::monte_cimone();
        p.set_availability("mc-node-03", NodeAvailability::Allocated);
        p.set_availability("mc-node-07", NodeAvailability::Down);
        assert_eq!(p.idle_count(), 6);
        assert_eq!(p.in_service_count(), 7);
        assert_eq!(
            p.availability("mc-node-03"),
            Some(NodeAvailability::Allocated)
        );
        assert!(!p.idle_nodes().contains(&"mc-node-07".to_owned()));
    }

    #[test]
    fn unknown_node_queries_return_none() {
        let p = Partition::monte_cimone();
        assert_eq!(p.availability("mc-node-99"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let _ = Partition::new("x", vec!["a".into(), "a".into()]);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn setting_unknown_node_panics() {
        let mut p = Partition::monte_cimone();
        p.set_availability("nope", NodeAvailability::Down);
    }
}
