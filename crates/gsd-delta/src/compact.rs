//! Compaction: folding live delta segments into rewritten base sub-blocks.
//!
//! The merged edge list — read through the overlay of the open handle
//! passed in, the served one in the daemon — is re-derived into
//! fresh base payloads with [`gsd_graph::integrity::rebuild_payloads`]
//! and — before anything is written — **fingerprint-checked against a
//! full re-preprocess** of the same edge list into scratch memory
//! storage, pinned to the grid's existing interval boundaries. Byte
//! inequality anywhere aborts the pass with the grid untouched.
//!
//! Like `repair_grid`, the write-back is in-place maintenance, not a
//! crash-atomic commit: a crash mid-pass can leave rewritten payloads
//! next to a meta that still references the segments. That state is
//! *detectable* (the overlay loader verifies every base payload it
//! merges and fails loudly on mismatch) and the write order minimizes
//! the window — payloads first, then the emptied manifest, then the
//! resealed meta (epoch unchanged), then segment deletion. Run `gsd
//! scrub` after a suspect interruption.
//!
//! The epoch survives compaction on purpose: checkpoints are pinned to
//! the meta bytes, and the meta changes here anyway (new counts, new
//! checksums), so warm state from before the pass is conservatively
//! invalidated either way.

use gsd_graph::delta::{manifest_key, read_manifest, DeltaManifest};
use gsd_graph::format::GridMeta;
use gsd_graph::integrity::rebuild_payloads;
use gsd_graph::preprocess::{preprocess, PreprocessConfig};
use gsd_graph::{Graph, GridGraph, META_KEY};
use gsd_integrity::{fnv64, IntegritySection, ObjectEntry};
use gsd_io::{MemStorage, Storage};
use gsd_trace::{TraceEvent, TraceSink};

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn stale(msg: String) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("compaction needs a handle at the committed state: {msg}"),
    )
}

/// What one compaction pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Epoch of the grid (unchanged by compaction).
    pub epoch: u64,
    /// Live segments folded and deleted.
    pub segments_folded: u64,
    /// Base objects whose bytes changed and were rewritten.
    pub objects_rewritten: u64,
    /// Bytes of rewritten objects.
    pub bytes_rewritten: u64,
    /// FNV-1a fingerprint over every (key, payload) of the rebuilt grid —
    /// equal by construction to the fingerprint of a full re-preprocess
    /// of the merged edge list.
    pub fingerprint: u64,
}

/// Deterministic fingerprint of a rebuilt object set: FNV-1a over
/// key/len/payload in key order.
fn payloads_fingerprint<'a>(objects: impl Iterator<Item = (&'a String, &'a Vec<u8>)>) -> u64 {
    let mut bytes = Vec::new();
    for (key, payload) in objects {
        bytes.extend_from_slice(key.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    fnv64(&bytes)
}

/// Folds every live delta segment of the served grid `grid` into
/// rewritten base sub-blocks, reading the merged edge list from the
/// handle's own overlay. Returns `None` when the grid has no live
/// segments (nothing to do — including grids that were never mutated).
///
/// The handle must be at the committed state: compaction fails, with the
/// grid untouched, when its epoch or its live segment entries differ
/// from the on-disk manifest (reopen the handle first).
pub fn compact(grid: &GridGraph, trace: &dyn TraceSink) -> std::io::Result<Option<CompactReport>> {
    let storage = grid.storage();
    let prefix = grid.prefix();
    // The raw on-disk meta (base counts, the state being replaced)...
    let disk_meta = GridMeta::from_bytes(&storage.read_all(&format!("{prefix}{META_KEY}"))?)?;
    let disk_epoch = disk_meta.delta.as_ref().map(|d| d.epoch).unwrap_or(0);
    if disk_epoch != grid.delta_epoch() {
        return Err(stale(format!(
            "the handle is at delta epoch {} but the grid commits epoch {disk_epoch}",
            grid.delta_epoch()
        )));
    }
    // ...and the manifest the handle's overlay must have merged.
    let manifest = match &disk_meta.delta {
        Some(_) => read_manifest(storage.as_ref(), prefix, &disk_meta)?,
        None => return Ok(None),
    };
    let merged: Vec<&ObjectEntry> = grid.overlay().map(|o| o.segments()).unwrap_or_default();
    if !merged.iter().copied().eq(manifest.segments.objects.iter()) {
        return Err(stale(format!(
            "the handle merges {} delta segment(s) but the epoch-{disk_epoch} manifest lists {}",
            merged.len(),
            manifest.segments.len()
        )));
    }
    if manifest.segments.is_empty() {
        return Ok(None);
    }
    let epoch = manifest.epoch;
    trace.emit(&TraceEvent::CompactionStarted {
        epoch,
        segments: manifest.segments.len() as u64,
        bytes: manifest.segments.total_bytes(),
    });

    // Collect the merged edge list through the overlay read path.
    let p = grid.p();
    let mut edges = Vec::with_capacity(grid.num_edges() as usize);
    let mut scratch = Vec::new();
    let mut block = Vec::new();
    for i in 0..p {
        for j in 0..p {
            grid.read_block_into(i, j, &mut scratch, &mut block)?;
            edges.extend_from_slice(&block);
        }
    }
    let graph = Graph::from_edges(grid.num_vertices(), edges, disk_meta.weighted);

    // Target meta: merged counts become the new base; epoch unchanged.
    let mut new_meta = disk_meta.clone();
    new_meta.num_edges = grid.meta().num_edges;
    new_meta.block_edge_counts = grid.meta().block_edge_counts.clone();
    let rebuilt = rebuild_payloads(&graph, &new_meta)?;

    // Fingerprint check: a full re-preprocess of the merged edge list,
    // pinned to the same boundaries and layout flags, must produce the
    // same bytes for every object. Nothing is written until it does.
    let mem = MemStorage::new();
    let scratch_config = PreprocessConfig {
        key_prefix: String::new(),
        num_intervals: None,
        memory_budget_bytes: None,
        degree_balanced: false,
        boundaries: Some(disk_meta.boundaries.clone()),
        sort_blocks: disk_meta.sorted,
        build_index: disk_meta.indexed,
        sort_by_dst: disk_meta.dst_sorted,
    };
    let (scratch_meta, _) = preprocess(&graph, &mem, &scratch_config)?;
    if scratch_meta.block_edge_counts != new_meta.block_edge_counts {
        return Err(invalid(
            "compaction produced different per-block edge counts than re-preprocessing",
        ));
    }
    for (key, payload) in &rebuilt {
        let fresh = mem.read_all(key)?;
        if &fresh != payload {
            return Err(invalid(format!(
                "compaction of {key:?} is not byte-identical to re-preprocessing \
                 the merged edge list; aborting with the grid untouched"
            )));
        }
    }
    let fingerprint = payloads_fingerprint(rebuilt.iter());

    // --- write-back: changed payloads first ---
    let base_section = disk_meta
        .integrity
        .as_ref()
        .ok_or_else(|| invalid("compaction requires a checksummed grid"))?;
    let mut objects_rewritten = 0u64;
    let mut bytes_rewritten = 0u64;
    let mut entries = Vec::with_capacity(rebuilt.len());
    for (key, payload) in &rebuilt {
        let entry = ObjectEntry::of(key, payload);
        if base_section.lookup(key) != Some(&entry) {
            storage.create(&format!("{prefix}{key}"), payload)?;
            objects_rewritten += 1;
            bytes_rewritten += payload.len() as u64;
        }
        entries.push(entry);
    }
    storage.sync()?;

    // --- the emptied manifest: merged now equals base ---
    let empty = DeltaManifest::empty(
        epoch,
        new_meta.num_edges,
        new_meta.block_edge_counts.clone(),
    );
    storage.create(&manifest_key(prefix, epoch), &empty.to_bytes())?;
    storage.sync()?;

    // --- the resealed meta: new counts, fresh checksums, same epoch ---
    new_meta.integrity = Some(IntegritySection::new(entries));
    new_meta.seal();
    storage.create(&format!("{prefix}{META_KEY}"), &new_meta.to_bytes())?;
    storage.sync()?;

    // --- cleanup: the folded segments are now unreferenced ---
    for entry in &manifest.segments.objects {
        storage.delete(&format!("{prefix}{}", entry.key))?;
    }

    trace.emit(&TraceEvent::CompactionFinished {
        epoch,
        blocks_rewritten: objects_rewritten,
        bytes: bytes_rewritten,
    });
    Ok(Some(CompactReport {
        epoch,
        segments_folded: manifest.segments.len() as u64,
        objects_rewritten,
        bytes_rewritten,
        fingerprint,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MutationBatch;
    use crate::ingest::ingest;
    use gsd_graph::{GeneratorConfig, GraphKind};
    use gsd_io::{SharedStorage, Storage};
    use std::sync::Arc;

    fn setup(p: u32) -> (Graph, SharedStorage) {
        let g = GeneratorConfig::new(GraphKind::RMat, 120, 600, 9).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(p),
        )
        .unwrap();
        (g, storage)
    }

    #[test]
    fn compact_folds_segments_and_matches_full_preprocess() {
        let (g, storage) = setup(3);
        let sink = gsd_trace::null_sink();
        let mut batch = MutationBatch::new();
        batch.insert(0, 7, 1.0).delete(2, 1).insert(5, 5, 1.0);
        ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();

        let served = GridGraph::open(storage.clone()).unwrap();
        let report = compact(&served, sink.as_ref()).unwrap().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.segments_folded >= 1);
        assert!(report.objects_rewritten >= 1);

        // Segments are gone; the grid opens with no overlay.
        assert!(storage.list_keys().iter().all(|k| !k.ends_with(".ops")));
        let grid = GridGraph::open(storage.clone()).unwrap();
        assert!(grid.overlay().is_none());
        assert_eq!(grid.delta_epoch(), 1);

        // The compacted grid equals a from-scratch preprocess of the
        // merged edge list, byte for byte on every data object.
        let mut edges = g.edges().to_vec();
        edges.retain(|e| !(e.src == 2 && e.dst == 1));
        edges.push(gsd_graph::Edge::new(0, 7));
        edges.push(gsd_graph::Edge::new(5, 5));
        let merged = Graph::from_edges(g.num_vertices(), edges, false);
        let mem = MemStorage::new();
        let boundaries = grid.meta().boundaries.clone();
        preprocess(
            &merged,
            &mem,
            &PreprocessConfig {
                boundaries: Some(boundaries),
                ..PreprocessConfig::graphsd("")
            },
        )
        .unwrap();
        for key in mem.list_keys() {
            if key == META_KEY {
                continue;
            }
            assert_eq!(
                storage.read_all(&key).unwrap(),
                mem.read_all(&key).unwrap(),
                "object {key:?} differs from a from-scratch preprocess"
            );
        }

        // Scrub passes on the compacted grid.
        let (_, scrub) = gsd_graph::scrub_grid(storage.as_ref(), "").unwrap();
        assert!(scrub.is_clean(), "{scrub:?}");
    }

    /// Fingerprint of every object in `storage`: FNV-1a over key, length
    /// and bytes, in key order.
    fn storage_fingerprint(storage: &SharedStorage) -> u64 {
        let mut keys = storage.list_keys();
        keys.sort();
        let objects: Vec<(String, Vec<u8>)> = keys
            .into_iter()
            .map(|k| {
                let bytes = storage.read_all(&k).unwrap();
                (k, bytes)
            })
            .collect();
        payloads_fingerprint(objects.iter().map(|(k, b)| (k, b)))
    }

    /// A fixed stream — three batches, a compaction, two batches, a
    /// compaction — over one grid, with the storage fingerprinted after
    /// every step.
    fn committed_stream(weighted: bool, p: u32) -> Vec<u64> {
        let kind = if weighted {
            GraphKind::Grid2d
        } else {
            GraphKind::RMat
        };
        let mut config = GeneratorConfig::new(kind, 400, 3000, 17);
        config.weighted = weighted;
        let g = config.generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let pre = PreprocessConfig::graphsd("").with_intervals(p);
        preprocess(&g, storage.as_ref(), &pre).unwrap();
        let sink = gsd_trace::null_sink();
        let n = g.num_vertices();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % u64::from(m)) as u32
        };
        let mut served = GridGraph::open(storage.clone()).unwrap();
        let mut prints = vec![storage_fingerprint(&storage)];
        for step in 0..7 {
            if step == 3 || step == 6 {
                compact(&served, sink.as_ref()).unwrap().unwrap();
            } else {
                let mut batch = MutationBatch::new();
                for k in 0..48 {
                    let (src, dst) = (next(n), next(n));
                    if k % 4 == 3 {
                        let e = g.edges()[next(g.num_edges() as u32) as usize];
                        batch.delete(e.src, e.dst).delete(src, dst);
                    } else {
                        batch.insert(src, dst, (1 + next(8)) as f32 / 4.0);
                    }
                }
                ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
            }
            served = served.reopen().unwrap();
            prints.push(storage_fingerprint(&storage));
        }
        prints
    }

    #[test]
    fn committed_bytes_are_pinned() {
        // Segments, manifests, metas and compacted payloads of a fixed
        // stream, byte for byte: any change to what ingest or compaction
        // writes moves these.
        let pinned_unweighted: [u64; 8] = [
            0x0dc5_6460_932c_d981,
            0x9a26_5a97_4247_d0a0,
            0x9ed0_9eab_eafd_f0a3,
            0x01ef_f787_a7b4_7750,
            0x5a4a_f213_bbb9_2616,
            0x97e4_4179_08ca_4d28,
            0x27da_7f9f_3c4f_94af,
            0x706b_cbc8_565e_ac70,
        ];
        let pinned_weighted: [u64; 8] = [
            0x40cc_9f21_3099_9b32,
            0x0a6e_c78b_7ef3_d04c,
            0x8a7b_2637_a906_5421,
            0xd160_5150_81cc_4038,
            0x1488_b044_7353_21a5,
            0x07e4_9424_c5c4_73b7,
            0xba50_d418_a7a4_57c1,
            0xa18d_f3ad_6f6d_5784,
        ];
        assert_eq!(committed_stream(false, 4), pinned_unweighted);
        assert_eq!(committed_stream(true, 3), pinned_weighted);
    }

    #[test]
    fn compact_without_segments_is_none() {
        let (_, storage) = setup(2);
        let sink = gsd_trace::null_sink();
        let open = || GridGraph::open(storage.clone()).unwrap();
        assert!(compact(&open(), sink.as_ref()).unwrap().is_none());
        // After ingest + compact, a second compact is also a no-op.
        let mut batch = MutationBatch::new();
        batch.insert(0, 1, 1.0);
        ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
        assert!(compact(&open(), sink.as_ref()).unwrap().is_some());
        assert!(compact(&open(), sink.as_ref()).unwrap().is_none());
    }

    #[test]
    fn compact_refuses_a_stale_handle() {
        let (_, storage) = setup(2);
        let sink = gsd_trace::null_sink();
        let mut batch = MutationBatch::new();
        batch.insert(0, 1, 1.0);
        let before = GridGraph::open(storage.clone()).unwrap();
        ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
        let at_one = GridGraph::open(storage.clone()).unwrap();
        let unchanged = || {
            let mut keys = storage.list_keys();
            keys.retain(|k| !k.starts_with("runtime/"));
            keys.iter()
                .map(|k| (k.clone(), storage.read_all(k).unwrap()))
                .collect::<Vec<_>>()
        };
        let snapshot = unchanged();

        // Epoch 0 handle against an epoch-1 grid.
        let err = compact(&before, sink.as_ref()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("epoch"), "{err}");

        // Same epoch, but the segments were folded behind the handle.
        compact(&GridGraph::open(storage.clone()).unwrap(), sink.as_ref())
            .unwrap()
            .unwrap();
        let folded = unchanged();
        let err = compact(&at_one, sink.as_ref()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("segment"), "{err}");
        assert_eq!(unchanged(), folded, "a refused pass writes nothing");
        assert_ne!(snapshot, folded);
    }
}
