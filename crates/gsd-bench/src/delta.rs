//! Delta-cycle benchmark: the cost of mutating a live grid.
//!
//! Where [`crate::wall`] times from-scratch analytic runs, this mode
//! times the full streaming-mutation cycle `gsd ingest` exercises:
//! commit a mutation batch as a delta epoch, warm-start BFS from the
//! batch's footprint ([`gsd_delta::incremental_run`]), and fold the
//! segments back into the base grid ([`gsd_delta::compact`]). The warm
//! from-scratch BFS that produces the pre-batch values is setup, not
//! measurement — it models the converged state a long-running service
//! holds when a batch arrives.
//!
//! Every repeat rebuilds the grid from the dataset in a fresh temp
//! directory (ingest mutates the format on disk, so repeats cannot share
//! one). The deterministic counters land in the usual [`BenchEntry`]
//! slots — incremental-run iterations as `iterations`, its storage
//! traffic in the byte fields — so `--baseline` gates the delta path in
//! CI through [`gsd_metrics::BenchReport::compare_deterministic`] with
//! no schema change. Two post-conditions gate every repeat before its
//! sample counts: compaction must fold the epoch it just created, and a
//! full scrub of the compacted grid must come back clean.

use crate::datasets::{Dataset, Datasets};
use crate::runner::{paper_p, prepare_format, SystemKind};
use crate::wall::{scale_name, WallOptions};
use gsd_algos::Bfs;
use gsd_core::{GraphSdConfig, GraphSdEngine};
use gsd_delta::MutationBatch;
use gsd_graph::{scrub_grid, Graph, GridGraph};
use gsd_io::{FileStorage, SharedStorage, TempDir};
use gsd_metrics::{median, BenchEntry, BenchReport, BENCH_SCHEMA_VERSION};
use gsd_runtime::{Engine, RunOptions, RunStats};
use gsd_trace::Stopwatch;
use std::io::{Error, ErrorKind, Result};
use std::sync::Arc;

/// Runs the delta cycle over every selected dataset.
///
/// Reuses [`WallOptions`] for label/warmup/repeats/scale/datasets; the
/// `systems`, `algos` and `prefetch` fields are ignored (the cycle under
/// test is GraphSD-only and reads through the overlay, not the
/// prefetch pipeline).
pub fn run_delta(opts: &WallOptions) -> Result<BenchReport> {
    let repeats = opts.repeats.max(1);
    let datasets = Datasets::load(opts.scale);
    let mut entries = Vec::new();
    for ds in datasets.all() {
        if !opts.datasets.is_empty() && !opts.datasets.iter().any(|n| n == ds.name) {
            continue;
        }
        entries.push(bench_dataset(ds, opts.warmup, repeats)?);
    }
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        label: opts.label.clone(),
        scale: scale_name(opts.scale).to_string(),
        warmup: opts.warmup,
        repeats,
        prefetch: false,
        entries,
    })
}

/// The fixed mutation batch for a dataset: six inserts fanning out from
/// the BFS root plus deletions of the root's first two existing out-edges,
/// every endpoint derived from `(n, root)` so repeats are replays.
/// Deleting real edges (not arbitrary pairs) keeps the incremental
/// run's delete path — region closure and resets — on the measured path.
fn delta_batch(graph: &Graph, root: u32) -> MutationBatch {
    let n = graph.num_vertices();
    let step = (n / 7).max(1);
    let mut batch = MutationBatch::new();
    for k in 0..6u32 {
        let src = (root + k * step) % n;
        let dst = (root + (k + 3) * step + 1) % n;
        if src != dst {
            batch.insert(src, dst, 1.0);
        }
    }
    let mut deleted = 0;
    for e in graph.edges() {
        if e.src == root && e.src != e.dst {
            batch.delete(e.src, e.dst);
            deleted += 1;
            if deleted == 2 {
                break;
            }
        }
    }
    batch
}

fn bench_dataset(ds: &Dataset, warmup: u32, repeats: u32) -> Result<BenchEntry> {
    let graph = ds.directed();
    let root = ds.root();
    let batch = delta_batch(graph, root);

    let run_once = || -> Result<(u64, RunStats, u64)> {
        // Fresh grid per repeat: ingest and compaction rewrite the
        // on-disk format, so state must never leak between repeats.
        let dir = TempDir::new("gsd-deltabench")?;
        let storage: SharedStorage = Arc::new(FileStorage::open(dir.path())?);
        prepare_format(SystemKind::GraphSd, graph, &storage, paper_p(graph))?;

        // Converge on the pre-batch grid (setup, untimed): the warm
        // values a service holds when the batch arrives.
        let grid = GridGraph::open(storage.clone())?;
        let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full())?;
        let warm = engine.run(&Bfs::new(root), &RunOptions::default())?;

        let sink = gsd_trace::null_sink();
        let watch = Stopwatch::start();
        let report = gsd_delta::ingest(storage.as_ref(), "", &batch, sink.as_ref())?;
        let grid = GridGraph::open(storage.clone())?;
        let (result, inc) = gsd_delta::incremental_run(
            grid.clone(),
            &Bfs::new(root),
            warm.values,
            &batch,
            GraphSdConfig::full(),
            sink.clone(),
        )?;
        let compacted = gsd_delta::compact(&grid, sink.as_ref())?;
        let wall = watch.elapsed().as_micros() as u64;

        let folded = compacted.ok_or_else(|| {
            Error::new(
                ErrorKind::InvalidData,
                format!("delta/{}: compaction found nothing to fold", ds.name),
            )
        })?;
        if folded.segments_folded != report.segments {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "delta/{}: ingest wrote {} segment(s) but compaction folded {}",
                    ds.name, report.segments, folded.segments_folded
                ),
            ));
        }
        let (_, scrub) = scrub_grid(storage.as_ref(), "")?;
        if !scrub.is_clean() {
            let (_, corrupt) = scrub.counts();
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "delta/{}: {corrupt} corrupt object(s) after compaction",
                    ds.name
                ),
            ));
        }
        Ok((wall, result.stats, inc.seeds))
    };

    for _ in 0..warmup {
        run_once()?;
    }
    let mut samples: Vec<(u64, RunStats, u64)> = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        samples.push(run_once()?);
    }

    // The whole cycle is deterministic: any drift in the incremental
    // run's replayed-work counters between repeats is a correctness bug.
    let (_, first, first_seeds) = &samples[0];
    for (wall, stats, seeds) in &samples[1..] {
        if stats.iterations != first.iterations
            || stats.io.read_bytes() != first.io.read_bytes()
            || stats.io.write_bytes != first.io.write_bytes
            || seeds != first_seeds
        {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "delta/{}: repeats disagree on deterministic counters \
                     (iterations {} vs {}, read {} vs {}, seeds {} vs {}; wall {wall}us)",
                    ds.name,
                    stats.iterations,
                    first.iterations,
                    stats.io.read_bytes(),
                    first.io.read_bytes(),
                    seeds,
                    first_seeds,
                ),
            ));
        }
    }

    let walls: Vec<u64> = samples.iter().map(|(w, _, _)| *w).collect();
    let wall_us_median = median(&walls);
    let (_, stats, _) = samples
        .iter()
        .find(|(w, _, _)| *w == wall_us_median)
        .unwrap_or(&samples[0]);
    Ok(BenchEntry {
        system: "gsd-delta".to_string(),
        algorithm: "bfs".to_string(),
        dataset: ds.name.to_string(),
        iterations: stats.iterations,
        wall_us: walls,
        wall_us_median,
        io_wait_us: 0,
        compute_us: stats.compute_time.as_micros() as u64,
        stall_us: 0,
        scheduler_us: stats.scheduler_time.as_micros() as u64,
        bytes_read: stats.io.read_bytes(),
        bytes_written: stats.io.write_bytes,
        prefetch_hits: 0,
        prefetch_misses: 0,
        prefetch_hit_rate: 0.0,
        peak_rss_bytes: gsd_metrics::rss::peak_rss_bytes().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Scale;

    fn tiny_opts() -> WallOptions {
        WallOptions {
            label: "delta-unit".to_string(),
            warmup: 0,
            repeats: 2,
            scale: Scale::Tiny,
            datasets: vec!["twitter_sim".to_string()],
            ..WallOptions::default()
        }
    }

    #[test]
    fn delta_report_is_schema_valid_and_incremental() {
        let report = run_delta(&tiny_opts()).unwrap();
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        assert_eq!(e.system, "gsd-delta");
        assert_eq!(e.algorithm, "bfs");
        assert!(e.bytes_read > 0, "the incremental run must touch disk");
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn delta_counters_are_stable_across_harness_invocations() {
        let a = run_delta(&tiny_opts()).unwrap();
        let b = run_delta(&tiny_opts()).unwrap();
        assert_eq!(b.compare_deterministic(&a), Ok(1));
    }
}
