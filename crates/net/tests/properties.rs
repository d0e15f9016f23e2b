//! Property-based tests for link and collective behaviour.

use proptest::prelude::*;

use cimone_net::link::LinkModel;
use cimone_net::mpi::{CommWorld, ProcessGrid};
use cimone_soc::units::{Bytes, SimDuration};

proptest! {
    #[test]
    fn transfer_time_is_monotone_in_payload(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let link = LinkModel::gigabit_ethernet();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(link.transfer_time(Bytes::new(small)) <= link.transfer_time(Bytes::new(large)));
    }

    #[test]
    fn faster_links_are_never_slower(bytes in 1u64..1_000_000_000) {
        let gbe = LinkModel::gigabit_ethernet();
        let ib = LinkModel::infiniband_fdr();
        prop_assert!(ib.transfer_time(Bytes::new(bytes)) <= gbe.transfer_time(Bytes::new(bytes)));
    }

    #[test]
    fn collectives_cost_at_least_a_point_to_point(ranks in 2usize..64, kib in 1u64..1024) {
        let world = CommWorld::new(ranks, LinkModel::gigabit_ethernet());
        let payload = Bytes::from_kib(kib);
        let p2p = world.pt2pt_time(payload);
        prop_assert!(world.broadcast_time(payload) >= p2p);
        prop_assert!(world.allreduce_time(payload) >= p2p);
        prop_assert!(world.allgather_time(payload) >= p2p);
    }

    #[test]
    fn broadcast_is_monotone_in_ranks(small in 2usize..32, extra in 1usize..32) {
        let payload = Bytes::from_kib(100);
        let a = CommWorld::new(small, LinkModel::gigabit_ethernet()).broadcast_time(payload);
        let b = CommWorld::new(small + extra, LinkModel::gigabit_ethernet()).broadcast_time(payload);
        prop_assert!(b >= a);
    }

    #[test]
    fn squarest_grid_is_a_valid_balanced_factorisation(ranks in 1usize..512) {
        let grid = ProcessGrid::squarest(ranks);
        prop_assert_eq!(grid.size(), ranks);
        prop_assert!(grid.p <= grid.q, "HPL prefers P <= Q");
        // No more-square factorisation exists.
        for p in grid.p + 1..=((ranks as f64).sqrt() as usize) {
            prop_assert!(ranks % p != 0, "{p} x {} would be squarer", ranks / p);
        }
    }
}

/// `SimDuration` ordering sanity used by the cost models.
#[test]
fn zero_payload_still_pays_latency() {
    let link = LinkModel::gigabit_ethernet();
    assert_eq!(
        link.transfer_time(Bytes::ZERO),
        SimDuration::from_micros(50)
    );
}
