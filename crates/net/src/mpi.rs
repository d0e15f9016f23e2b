//! MPI-style communication cost models over a cluster fabric.
//!
//! Collectives are costed with standard α–β algorithm models (binomial
//! broadcast, recursive-doubling allreduce, ring allgather); the cluster
//! simulator uses these to time HPL's panel broadcasts and the update
//! exchanges that shape the paper's Fig. 2 strong-scaling curve.

use cimone_soc::units::{Bytes, SimDuration};

use crate::link::LinkModel;

/// A communicator over `size` ranks connected by identical links through a
/// non-blocking switch.
///
/// # Examples
///
/// ```
/// use cimone_net::link::LinkModel;
/// use cimone_net::mpi::CommWorld;
/// use cimone_soc::units::Bytes;
///
/// let world = CommWorld::new(8, LinkModel::gigabit_ethernet());
/// let bcast = world.broadcast_time(Bytes::from_mib(1));
/// let p2p = world.pt2pt_time(Bytes::from_mib(1));
/// assert!(bcast >= p2p); // log2(8) = 3 rounds
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommWorld {
    size: usize,
    link: LinkModel,
}

impl CommWorld {
    /// Creates a communicator.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize, link: LinkModel) -> Self {
        assert!(size > 0, "communicator needs at least one rank");
        CommWorld { size, link }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Rounds of a binomial tree over the communicator.
    fn log2_rounds(&self) -> u64 {
        (self.size as f64).log2().ceil() as u64
    }

    /// Point-to-point message time.
    pub fn pt2pt_time(&self, bytes: Bytes) -> SimDuration {
        if self.size == 1 {
            return SimDuration::ZERO;
        }
        self.link.transfer_time(bytes)
    }

    /// Binomial-tree broadcast: `⌈log₂ p⌉ · (α + n·β)`.
    pub fn broadcast_time(&self, bytes: Bytes) -> SimDuration {
        if self.size == 1 {
            return SimDuration::ZERO;
        }
        self.link.transfer_time(bytes) * self.log2_rounds()
    }

    /// Recursive-doubling allreduce: `⌈log₂ p⌉ · (α + n·β)` (the reduction
    /// arithmetic is charged to compute, not the network).
    pub fn allreduce_time(&self, bytes: Bytes) -> SimDuration {
        if self.size == 1 {
            return SimDuration::ZERO;
        }
        self.link.transfer_time(bytes) * self.log2_rounds()
    }

    /// Ring allgather of `bytes` per rank: `(p−1) · (α + n·β)`.
    pub fn allgather_time(&self, bytes_per_rank: Bytes) -> SimDuration {
        if self.size == 1 {
            return SimDuration::ZERO;
        }
        self.link.transfer_time(bytes_per_rank) * (self.size as u64 - 1)
    }

    /// Barrier: a zero-payload recursive-doubling exchange.
    pub fn barrier_time(&self) -> SimDuration {
        if self.size == 1 {
            return SimDuration::ZERO;
        }
        self.link.ping_rtt() * self.log2_rounds()
    }
}

/// A 2-D process grid (HPL's P × Q decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessGrid {
    /// Rows.
    pub p: usize,
    /// Columns.
    pub q: usize,
}

impl ProcessGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "grid dimensions must be positive");
        ProcessGrid { p, q }
    }

    /// The most square grid with `ranks` processes, preferring `p <= q` as
    /// HPL recommends.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero.
    pub fn squarest(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        let mut best = ProcessGrid::new(1, ranks);
        let mut p = 1;
        while p * p <= ranks {
            if ranks.is_multiple_of(p) {
                best = ProcessGrid::new(p, ranks / p);
            }
            p += 1;
        }
        best
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.p * self.q
    }
}

impl std::fmt::Display for ProcessGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.p, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> CommWorld {
        CommWorld::new(n, LinkModel::gigabit_ethernet())
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let w = world(1);
        assert_eq!(w.broadcast_time(Bytes::from_mib(10)), SimDuration::ZERO);
        assert_eq!(w.allreduce_time(Bytes::from_mib(10)), SimDuration::ZERO);
        assert_eq!(w.barrier_time(), SimDuration::ZERO);
    }

    #[test]
    fn broadcast_scales_logarithmically() {
        let payload = Bytes::from_mib(1);
        let t2 = world(2).broadcast_time(payload);
        let t8 = world(8).broadcast_time(payload);
        assert_eq!(t8.as_micros(), t2.as_micros() * 3);
    }

    #[test]
    fn non_power_of_two_rounds_up() {
        let payload = Bytes::from_kib(64);
        let t5 = world(5).broadcast_time(payload);
        let t8 = world(8).broadcast_time(payload);
        assert_eq!(t5, t8); // ceil(log2(5)) == 3
    }

    #[test]
    fn allgather_scales_linearly() {
        let payload = Bytes::from_kib(100);
        let t4 = world(4).allgather_time(payload);
        let t8 = world(8).allgather_time(payload);
        let ratio = t8.as_secs_f64() / t4.as_secs_f64();
        assert!((ratio - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn squarest_grid_prefers_balanced_shapes() {
        assert_eq!(ProcessGrid::squarest(8), ProcessGrid::new(2, 4));
        assert_eq!(ProcessGrid::squarest(16), ProcessGrid::new(4, 4));
        assert_eq!(ProcessGrid::squarest(7), ProcessGrid::new(1, 7));
        assert_eq!(ProcessGrid::squarest(1), ProcessGrid::new(1, 1));
    }

    #[test]
    fn grid_size_is_product() {
        assert_eq!(ProcessGrid::new(2, 4).size(), 8);
        assert_eq!(ProcessGrid::new(2, 4).to_string(), "2x4");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_panics() {
        let _ = CommWorld::new(0, LinkModel::gigabit_ethernet());
    }
}
