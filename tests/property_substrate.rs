//! Model-based property tests for the substrate data structures: the
//! frontier bitset against a `BTreeSet` model, the storage backends'
//! sequential/random classification, and the I/O cost model's
//! monotonicity.

use gsd_io::{DiskModel, IoCostModel, MemStorage, OnDemandCostInputs, SimDisk, Storage};
use gsd_runtime::Frontier;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum FrontierOp {
    Insert(u32),
    Remove(u32),
    Contains(u32),
}

fn arb_ops(universe: u32) -> impl Strategy<Value = Vec<FrontierOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0..universe).prop_map(FrontierOp::Insert),
            (0..universe).prop_map(FrontierOp::Remove),
            (0..universe).prop_map(FrontierOp::Contains),
        ],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frontier_behaves_like_a_set(ops in arb_ops(300)) {
        let mut frontier = Frontier::empty(300);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                FrontierOp::Insert(v) => {
                    prop_assert_eq!(frontier.insert(v), model.insert(v));
                }
                FrontierOp::Remove(v) => {
                    prop_assert_eq!(frontier.remove(v), model.remove(&v));
                }
                FrontierOp::Contains(v) => {
                    prop_assert_eq!(frontier.contains(v), model.contains(&v));
                }
            }
        }
        prop_assert_eq!(frontier.count(), model.len() as u64);
        let got: Vec<u32> = frontier.iter().collect();
        let want: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(got, want, "iteration order is ascending and complete");
    }

    #[test]
    fn frontier_iter_range_matches_filter(seeds in proptest::collection::btree_set(0u32..500, 0..80),
                                          lo in 0u32..500, len in 0u32..500) {
        let hi = (lo + len).min(500);
        let seeds: Vec<u32> = seeds.into_iter().collect();
        let f = Frontier::from_seeds(500, &seeds);
        let got: Vec<u32> = f.iter_range(lo..hi).collect();
        let want: Vec<u32> = seeds.iter().copied().filter(|&v| v >= lo && v < hi).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn storage_reads_return_written_bytes(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..8),
        reads in proptest::collection::vec((0usize..8, 0usize..64, 1usize..32), 0..20)
    ) {
        let store = MemStorage::new();
        for (k, data) in chunks.iter().enumerate() {
            store.create(&format!("obj{k}"), data).unwrap();
        }
        for (k, offset, len) in reads {
            let k = k % chunks.len();
            let data = &chunks[k];
            let offset = offset % data.len();
            let len = len.min(data.len() - offset);
            if len == 0 { continue; }
            let mut buf = vec![0u8; len];
            store.read_at(&format!("obj{k}"), offset as u64, &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &data[offset..offset + len]);
        }
    }

    #[test]
    fn classification_totals_are_conserved(
        reads in proptest::collection::vec((0u64..96, 1usize..32), 1..40)
    ) {
        // However reads are classified, seq + rand bytes must equal the
        // total requested, and ops must equal the request count.
        let store = SimDisk::new(DiskModel::ssd());
        store.create("k", &[7u8; 128]).unwrap();
        store.stats().reset();
        let mut total = 0u64;
        let mut buf = [0u8; 32];
        for (offset, len) in &reads {
            let len = (*len).min((128 - offset) as usize);
            if len == 0 { continue; }
            store.read_at("k", *offset, &mut buf[..len]).unwrap();
            total += len as u64;
        }
        let s = store.stats().snapshot();
        prop_assert_eq!(s.seq_read_bytes + s.rand_read_bytes, total);
        prop_assert!(s.sim_nanos > 0 || total == 0);
    }

    #[test]
    fn back_to_back_reads_are_sequential_after_the_first(
        lens in proptest::collection::vec(1usize..32, 1..20)
    ) {
        let store = MemStorage::new();
        store.create("k", &vec![0u8; 4096]).unwrap();
        store.stats().reset();
        let mut offset = 0u64;
        let mut buf = [0u8; 32];
        for len in &lens {
            if offset + *len as u64 > 4096 { break; }
            store.read_at("k", offset, &mut buf[..*len]).unwrap();
            offset += *len as u64;
        }
        let s = store.stats().snapshot();
        prop_assert!(s.rand_read_ops <= 1, "only the first read may seek: {s:?}");
    }

    #[test]
    fn cost_model_prefers_on_demand_monotonically(
        v_bytes in 1_000u64..1_000_000,
        e_bytes in 1_000_000u64..100_000_000,
        s1 in 0u64..10_000_000,
        s2 in 0u64..10_000_000,
    ) {
        // If on-demand is rejected for a smaller active volume, it must be
        // rejected for any larger volume with the same split ratio.
        let m = IoCostModel::new(DiskModel::hdd(), v_bytes, e_bytes);
        let (small, big) = (s1.min(s2), s1.max(s2));
        let inputs = |bytes: u64| OnDemandCostInputs {
            rand_edge_bytes: bytes / 2,
            seq_edge_bytes: bytes - bytes / 2,
        };
        if !m.prefer_on_demand(inputs(small)) {
            prop_assert!(!m.prefer_on_demand(inputs(big)));
        }
    }

    #[test]
    fn sim_time_scales_with_bytes(extra in 1u64..64) {
        let d = DiskModel::hdd();
        let small = d.read_cost(4096, false);
        let large = d.read_cost(4096 * extra, false);
        prop_assert!(large >= small);
        let ratio = large.as_nanos() as f64 / small.as_nanos().max(1) as f64;
        prop_assert!((ratio - extra as f64).abs() < 0.05 * extra as f64 + 1.0);
    }
}
