//! Blade-aware placement: which idle nodes a job actually gets.
//!
//! Monte Cimone's eight nodes live on four dual-board blades, and the
//! blade is a *fault and power domain*: one PSU feeds both boards, one
//! rail browns out both boards, one fan starves both boards of air. The
//! placement policy therefore cares about blades twice over:
//!
//! * **Packing** — a 2-node job placed on one blade keeps its HPL panel
//!   traffic on the shortest path and leaves whole blades free for later
//!   multi-node jobs (less fragmentation);
//! * **Steering** — a blade whose rail is browned out (DVFS-capped) or
//!   draining should receive no new work while healthy blades have room.
//!
//! Without a topology the allocator degrades to the historical behaviour:
//! idle nodes in sorted hostname order.

use std::collections::BTreeSet;

use crate::partition::Partition;

/// The blade topology of a partition: which hostnames share a blade.
///
/// # Examples
///
/// ```
/// use cimone_sched::placement::BladeTopology;
///
/// let topo = BladeTopology::monte_cimone();
/// assert_eq!(topo.blade_count(), 4);
/// assert_eq!(topo.blade_of("mc-node-03"), Some(1));
/// assert_eq!(topo.blade_of("login-node"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BladeTopology {
    /// Hostnames per blade, blade 0 first.
    blades: Vec<Vec<String>>,
}

impl BladeTopology {
    /// Builds a topology from hostname groups, one per blade.
    ///
    /// # Panics
    ///
    /// Panics if a hostname appears on two blades.
    pub fn new(blades: Vec<Vec<String>>) -> Self {
        let mut seen = BTreeSet::new();
        for host in blades.iter().flatten() {
            assert!(seen.insert(host.clone()), "host {host} on two blades");
        }
        BladeTopology { blades }
    }

    /// The paper's machine: four RV007 blades hosting `mc-node-01/02`
    /// through `mc-node-07/08`.
    pub fn monte_cimone() -> Self {
        BladeTopology::new(
            (0..4)
                .map(|b| {
                    vec![
                        format!("mc-node-{:02}", 2 * b + 1),
                        format!("mc-node-{:02}", 2 * b + 2),
                    ]
                })
                .collect(),
        )
    }

    /// Number of blades.
    pub fn blade_count(&self) -> usize {
        self.blades.len()
    }

    /// Hostnames per blade.
    pub fn blades(&self) -> &[Vec<String>] {
        &self.blades
    }

    /// The blade hosting `hostname`, if any.
    pub fn blade_of(&self, hostname: &str) -> Option<usize> {
        self.blades
            .iter()
            .position(|hosts| hosts.iter().any(|h| h == hostname))
    }
}

/// Picks `need` idle nodes for one job.
///
/// With a topology the candidate blades are ordered by:
///
/// 1. health — blades not in `degraded` first (power-capped or draining
///    blades take new work only when nothing else has room);
/// 2. fit — for multi-node jobs, blades with *more* idle nodes first
///    (intra-blade packing: a 2-node job lands on one blade); for
///    single-node jobs, blades with *fewer* idle nodes first (fill
///    fragments, keep whole blades free);
/// 3. blade index, as the deterministic tie-break.
///
/// Hostnames are taken in sorted order within each blade, and idle nodes
/// outside every blade (no topology entry) come last in sorted order. On
/// an all-idle healthy machine this reproduces the plain sorted-order
/// allocation exactly. Returns fewer than `need` names if the idle pool
/// is too small (the scheduler checks the count first).
///
/// Nodes in `avoid` — spill-buffering nodes holding the only copy of some
/// job's checkpoint until the export recovers — are soft-avoided: every
/// other idle node is tried first, in the full blade order above, and the
/// avoided nodes serve only when nothing else can fill the job. Losing a
/// spill holder to a co-located crash would turn one fault into two jobs'
/// wasted work, so new work stays off those boards while there is a
/// choice.
pub fn allocate(
    partition: &Partition,
    topology: Option<&BladeTopology>,
    degraded: &BTreeSet<usize>,
    avoid: &BTreeSet<String>,
    need: usize,
) -> Vec<String> {
    let idle = partition.idle_nodes();
    let Some(topo) = topology else {
        let (clear, avoided): (Vec<String>, Vec<String>) =
            idle.into_iter().partition(|h| !avoid.contains(h));
        return clear.into_iter().chain(avoided).take(need).collect();
    };
    // Idle nodes per blade (sorted within: `idle` is already sorted), plus
    // the stragglers with no blade.
    let mut per_blade: Vec<Vec<String>> = vec![Vec::new(); topo.blade_count()];
    let mut unbladed: Vec<String> = Vec::new();
    for host in idle {
        match topo.blade_of(&host) {
            Some(b) => per_blade[b].push(host),
            None => unbladed.push(host),
        }
    }
    let mut order: Vec<usize> = (0..topo.blade_count())
        .filter(|b| !per_blade[*b].is_empty())
        .collect();
    order.sort_by_key(|&b| {
        let idle_count = per_blade[b].len();
        let fit = if need >= 2 {
            // Pack: most idle first (descending).
            usize::MAX - idle_count
        } else {
            // Fill fragments: fewest idle first (ascending).
            idle_count
        };
        (degraded.contains(&b), fit, b)
    });
    let mut allocation = Vec::with_capacity(need);
    // Pass 1 takes only unavoided hosts in the full blade order; pass 2
    // concedes the avoided ones, same order, if the job cannot fill
    // otherwise.
    for avoided_pass in [false, true] {
        for &b in &order {
            for host in &per_blade[b] {
                if allocation.len() == need {
                    return allocation;
                }
                if avoid.contains(host) == avoided_pass {
                    allocation.push(host.clone());
                }
            }
        }
        for host in &unbladed {
            if allocation.len() == need {
                return allocation;
            }
            if avoid.contains(host) == avoided_pass {
                allocation.push(host.clone());
            }
        }
    }
    allocation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::NodeAvailability;

    fn machine() -> (Partition, BladeTopology) {
        (Partition::monte_cimone(), BladeTopology::monte_cimone())
    }

    fn none() -> BTreeSet<usize> {
        BTreeSet::new()
    }

    fn no_hosts() -> BTreeSet<String> {
        BTreeSet::new()
    }

    #[test]
    fn fresh_machine_reproduces_sorted_order() {
        let (p, t) = machine();
        for need in 1..=8 {
            let with_topo = allocate(&p, Some(&t), &none(), &no_hosts(), need);
            let plain = allocate(&p, None, &none(), &no_hosts(), need);
            assert_eq!(with_topo, plain, "need {need}");
        }
    }

    #[test]
    fn two_node_jobs_pack_onto_one_blade() {
        let (mut p, t) = machine();
        // Blade 0 is half-busy; blade 1 is fully idle.
        p.set_availability("mc-node-01", NodeAvailability::Allocated);
        let alloc = allocate(&p, Some(&t), &none(), &no_hosts(), 2);
        assert_eq!(alloc, vec!["mc-node-03", "mc-node-04"], "pack one blade");
        // The historical allocator would have split across blades 0 and 1.
        let plain = allocate(&p, None, &none(), &no_hosts(), 2);
        assert_eq!(plain, vec!["mc-node-02", "mc-node-03"]);
    }

    #[test]
    fn single_node_jobs_fill_fragments_first() {
        let (mut p, t) = machine();
        p.set_availability("mc-node-03", NodeAvailability::Allocated);
        // Blade 1 has one idle node left: a 1-node job takes it rather
        // than breaking open a fully idle blade.
        let alloc = allocate(&p, Some(&t), &none(), &no_hosts(), 1);
        assert_eq!(alloc, vec!["mc-node-04"]);
    }

    #[test]
    fn degraded_blades_take_work_only_as_a_last_resort() {
        let (mut p, t) = machine();
        let degraded: BTreeSet<usize> = [0].into();
        // Healthy blades win even though blade 0 sorts first.
        let alloc = allocate(&p, Some(&t), &degraded, &no_hosts(), 2);
        assert_eq!(alloc, vec!["mc-node-03", "mc-node-04"]);
        // With every healthy node busy, the degraded blade still serves.
        for h in ["mc-node-03", "mc-node-04", "mc-node-05", "mc-node-06"] {
            p.set_availability(h, NodeAvailability::Allocated);
        }
        p.set_availability("mc-node-07", NodeAvailability::Down);
        p.set_availability("mc-node-08", NodeAvailability::Down);
        let alloc = allocate(&p, Some(&t), &degraded, &no_hosts(), 2);
        assert_eq!(alloc, vec!["mc-node-01", "mc-node-02"]);
    }

    #[test]
    fn wide_jobs_span_blades_healthy_first() {
        let (mut p, t) = machine();
        let degraded: BTreeSet<usize> = [1].into();
        p.set_availability("mc-node-07", NodeAvailability::Down);
        // 4 nodes: blades 0 and 2 are whole and healthy; blade 1 (degraded)
        // and blade 3 (one node) are skipped.
        let alloc = allocate(&p, Some(&t), &degraded, &no_hosts(), 4);
        assert_eq!(
            alloc,
            vec!["mc-node-01", "mc-node-02", "mc-node-05", "mc-node-06"]
        );
    }

    #[test]
    fn hosts_outside_the_topology_come_last() {
        let p = Partition::new("mixed", vec!["a".into(), "b".into(), "z".into()]);
        let t = BladeTopology::new(vec![vec!["a".into(), "b".into()]]);
        let alloc = allocate(&p, Some(&t), &none(), &no_hosts(), 3);
        assert_eq!(alloc, vec!["a", "b", "z"]);
    }

    #[test]
    #[should_panic(expected = "on two blades")]
    fn duplicate_hosts_panic() {
        let _ = BladeTopology::new(vec![vec!["a".into()], vec!["a".into()]]);
    }

    #[test]
    fn avoided_nodes_serve_only_as_a_last_resort() {
        let (mut p, t) = machine();
        let avoid: BTreeSet<String> = ["mc-node-01".to_owned()].into();
        // Plenty of room: the spill holder is skipped even though it sorts
        // first, and its blade-mate still serves.
        let alloc = allocate(&p, Some(&t), &none(), &avoid, 2);
        assert_eq!(alloc, vec!["mc-node-02", "mc-node-03"]);
        // Also without a topology.
        let alloc = allocate(&p, None, &none(), &avoid, 2);
        assert_eq!(alloc, vec!["mc-node-02", "mc-node-03"]);
        // When only the holder can complete the job, it serves.
        for h in (3..=8).map(|i| format!("mc-node-{i:02}")) {
            p.set_availability(&h, NodeAvailability::Down);
        }
        let alloc = allocate(&p, Some(&t), &none(), &avoid, 2);
        assert_eq!(alloc, vec!["mc-node-02", "mc-node-01"]);
    }
}
