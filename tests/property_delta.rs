//! Property: streaming mutations are indistinguishable from
//! re-preprocessing. For arbitrary random base graphs and arbitrary
//! sequences of insert/delete batches — with or without interleaved
//! compaction — the mutated grid must be *semantically* identical to a
//! grid preprocessed from scratch over the final edge list (identical
//! analytic results, bit for bit), and after the final compaction it
//! must be *physically* identical too (every edge and index object
//! byte-for-byte equal, on the same pinned interval boundaries). On top
//! of that, warm-starting a converged min-combine program across each
//! batch ([`graphsd::delta::incremental_run`]) must reach exactly the
//! fixpoint a from-scratch run reaches.

use graphsd::algos::{Bfs, ConnectedComponents, Sssp};
use graphsd::core::{GraphSdConfig, GraphSdEngine};
use graphsd::delta::{compact, incremental_run, ingest, MutationBatch};
use graphsd::graph::{preprocess, Edge, Graph, GridGraph, PreprocessConfig};
use graphsd::io::{MemStorage, SharedStorage};
use graphsd::runtime::{Engine, RunOptions, Value, VertexProgram};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated mutation op: `Ok` inserts, `Err` deletes every copy.
type Op = Result<(u32, u32, u32), (u32, u32)>;

/// Arbitrary scenario: a base graph, 1–3 batches of ops over its vertex
/// space, and a per-batch "compact afterwards" switch.
fn arb_scenario() -> impl Strategy<Value = (Graph, Vec<(Vec<Op>, bool)>)> {
    (4u32..60, 1usize..200).prop_flat_map(|(n, m)| {
        let base =
            proptest::collection::vec((0u32..n, 0u32..n, 1u32..=16), m).prop_map(move |edges| {
                let list: Vec<Edge> = edges
                    .into_iter()
                    .map(|(s, d, w)| Edge::weighted(s, d, w as f32 / 16.0))
                    .collect();
                Graph::from_edges(n, list, true)
            });
        let op = prop_oneof![
            (0u32..n, 0u32..n, 1u32..=16).prop_map(Ok),
            (0u32..n, 0u32..n).prop_map(Err),
        ];
        let batches =
            proptest::collection::vec((proptest::collection::vec(op, 1..20), any::<bool>()), 1..4);
        (base, batches)
    })
}

fn to_batch(ops: &[Op]) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for op in ops {
        match *op {
            Ok((s, d, w)) => {
                batch.insert(s, d, w as f32 / 16.0);
            }
            Err((s, d)) => {
                batch.delete(s, d);
            }
        }
    }
    batch
}

/// The oracle: ingest semantics applied to a plain edge list (insert
/// appends one copy, delete removes every copy of the pair).
fn apply_ops(edges: &mut Vec<Edge>, ops: &[Op]) {
    for op in ops {
        match *op {
            Ok((s, d, w)) => edges.push(Edge::weighted(s, d, w as f32 / 16.0)),
            Err((s, d)) => edges.retain(|e| !(e.src == s && e.dst == d)),
        }
    }
}

fn fresh_grid(graph: &Graph, p: u32) -> (SharedStorage, GridGraph) {
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    let grid = GridGraph::open(storage.clone()).unwrap();
    (storage, grid)
}

fn fingerprint<V: Value>(values: &[V]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn scratch_values<P: VertexProgram>(grid: GridGraph, program: &P) -> Vec<P::Value> {
    let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full()).unwrap();
    engine.run(program, &RunOptions::default()).unwrap().values
}

/// Every non-delta object of the mutated, fully-compacted grid must be
/// byte-identical to the same key in a from-scratch preprocess of the
/// final edge list over the same boundaries. (`meta.json` is excluded —
/// it legitimately differs by the delta epoch — `delta/` holds only the
/// emptied manifest, and `runtime/` is engine scratch from the analytic
/// runs above, not part of the grid format.)
fn assert_payloads_match(mutated: &SharedStorage, final_graph: &Graph, boundaries: Vec<u32>) {
    let reference: SharedStorage = Arc::new(MemStorage::new());
    let config = PreprocessConfig {
        boundaries: Some(boundaries),
        ..PreprocessConfig::graphsd("")
    };
    preprocess(final_graph, reference.as_ref(), &config).unwrap();
    let payload_keys = |s: &SharedStorage| -> Vec<String> {
        let mut keys: Vec<String> = s
            .list_keys()
            .into_iter()
            .filter(|k| k != "meta.json" && !k.starts_with("delta/") && !k.starts_with("runtime/"))
            .collect();
        keys.sort();
        keys
    };
    let keys = payload_keys(mutated);
    assert_eq!(keys, payload_keys(&reference), "object inventory");
    for key in keys {
        assert_eq!(
            mutated.read_all(&key).unwrap(),
            reference.read_all(&key).unwrap(),
            "payload bytes of {key:?}"
        );
    }
}

/// The tentpole equivalence: arbitrary batch sequences, optionally
/// compacted mid-stream, end bit-identical to re-preprocessing — in
/// analytics (BFS/CC/SSSP value fingerprints through the overlay)
/// and on disk (after the final compaction).
fn check_stream(base: Graph, batches: Vec<(Vec<Op>, bool)>) -> Result<(), TestCaseError> {
    let n = base.num_vertices();
    let p = 3u32.min(n);
    let (storage, grid) = fresh_grid(&base, p);
    let boundaries = grid.meta().boundaries.clone();
    drop(grid);

    let mut mirror = base.edges().to_vec();
    for (ops, compact_after) in &batches {
        ingest(
            storage.as_ref(),
            "",
            &to_batch(ops),
            graphsd::trace::null_sink().as_ref(),
        )
        .unwrap();
        apply_ops(&mut mirror, ops);
        if *compact_after {
            compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
        }
    }
    let final_graph = Graph::from_edges(n, mirror, true);

    // Analytic equivalence through the overlay (whatever mix of
    // segments and compacted base the switches left behind).
    let scratch = fresh_grid(&final_graph, p).1;
    let merged = GridGraph::open(storage.clone()).unwrap();
    prop_assert_eq!(merged.num_edges(), final_graph.num_edges());
    prop_assert_eq!(
        fingerprint(&scratch_values(
            GridGraph::open(storage.clone()).unwrap(),
            &Bfs::new(0)
        )),
        fingerprint(&scratch_values(fresh_grid(&final_graph, p).1, &Bfs::new(0)))
    );
    prop_assert_eq!(
        fingerprint(&scratch_values(merged, &ConnectedComponents)),
        fingerprint(&scratch_values(scratch, &ConnectedComponents))
    );

    // Physical equivalence once every segment is folded.
    compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
    assert_payloads_match(&storage, &final_graph, boundaries);
    Ok(())
}

/// Warm-started recompute reaches the from-scratch fixpoint for
/// every min-combine program, across every batch of the stream.
fn check_incremental(base: Graph, batches: Vec<(Vec<Op>, bool)>) -> Result<(), TestCaseError> {
    let n = base.num_vertices();
    let p = 3u32.min(n);
    let (storage, grid) = fresh_grid(&base, p);
    let source = n / 2;
    let bfs = Bfs::new(source);
    let sssp = Sssp::new(source);
    let mut warm_bfs = scratch_values(grid, &bfs);
    let mut warm_sssp = scratch_values(GridGraph::open(storage.clone()).unwrap(), &sssp);

    let mut mirror = base.edges().to_vec();
    for (ops, compact_after) in &batches {
        let batch = to_batch(ops);
        ingest(
            storage.as_ref(),
            "",
            &batch,
            graphsd::trace::null_sink().as_ref(),
        )
        .unwrap();
        apply_ops(&mut mirror, ops);

        let (bfs_run, bfs_report) = incremental_run(
            GridGraph::open(storage.clone()).unwrap(),
            &bfs,
            warm_bfs,
            &batch,
            GraphSdConfig::full(),
            graphsd::trace::null_sink(),
        )
        .unwrap();
        prop_assert!(!bfs_report.full_fallback, "BFS is incremental-safe");
        let (sssp_run, _) = incremental_run(
            GridGraph::open(storage.clone()).unwrap(),
            &sssp,
            warm_sssp,
            &batch,
            GraphSdConfig::full(),
            graphsd::trace::null_sink(),
        )
        .unwrap();

        let final_graph = Graph::from_edges(n, mirror.clone(), true);
        let scratch_bfs = scratch_values(fresh_grid(&final_graph, p).1, &bfs);
        let scratch_sssp = scratch_values(fresh_grid(&final_graph, p).1, &sssp);
        prop_assert_eq!(fingerprint(&bfs_run.values), fingerprint(&scratch_bfs));
        prop_assert_eq!(fingerprint(&sssp_run.values), fingerprint(&scratch_sssp));

        if *compact_after {
            compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
        }
        warm_bfs = bfs_run.values;
        warm_sssp = sssp_run.values;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mutation_stream_equals_repreprocessing(scenario in arb_scenario()) {
        let (base, batches) = scenario;
        check_stream(base, batches)?;
    }

    #[test]
    fn incremental_recompute_reaches_scratch_fixpoint(scenario in arb_scenario()) {
        let (base, batches) = scenario;
        check_incremental(base, batches)?;
    }
}
