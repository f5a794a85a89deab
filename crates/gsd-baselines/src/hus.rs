//! HUS-Graph-like baseline (Xu et al., TPDS'20): a **hybrid update
//! strategy** that is active-vertex aware but performs no cross-iteration
//! computation.
//!
//! Storage keeps **two sorted copies** of the edge set — a row-oriented
//! grid (source-sorted, per-source indexes) for selective loading and a
//! column-oriented grid (destination-sorted) for full streaming — which is
//! why HUS-Graph's preprocessing is the slowest in Figure 8. At runtime a
//! coarse volume threshold switches between:
//!
//! * **ROP** (row-oriented push): read only the active vertices' edge
//!   lists from the row copy (random-ish I/O) and push updates; chosen
//!   when the active edge volume is a small fraction of the graph.
//! * **COP** (column-oriented pull): stream the column copy fully and
//!   update destinations interval by interval; chosen otherwise.
//!
//! Unlike GraphSD's scheduler there is no sequential/random split and no
//! bandwidth-calibrated cost model — just the volume ratio — and there is
//! no cross-iteration propagation, which is exactly the gap the paper's
//! Figures 5/7 measure.

use gsd_graph::{preprocess, Graph, GridGraph, PreprocessConfig, PreprocessReport};
use gsd_io::{IoStatsSnapshot, Storage};
use gsd_recover::{CheckpointData, CheckpointDriver, RecoveryConfig};
use gsd_runtime::kernels::{apply_range_timed, scatter_edges_timed};
use gsd_runtime::{
    Capabilities, Engine, Frontier, IoAccessModel, IterationStats, ProgramContext, RunOptions,
    RunResult, RunStats, VertexProgram, VertexValueFile,
};
use gsd_trace::Stopwatch;
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// The two on-disk copies HUS-Graph maintains.
pub struct HusFormat {
    /// Source-sorted, per-source-indexed grid (for ROP).
    pub row: GridGraph,
    /// Destination-sorted grid (for COP).
    pub col: GridGraph,
}

/// Builds both HUS-Graph copies (`<prefix>row/`, `<prefix>col/`) and
/// returns the handles plus the **combined** preprocessing breakdown
/// (both copies are partitioned and sorted — the paper's Figure 8 shows
/// this costing ≈1.4× GraphSD's preprocessing and ≈1.8× Lumos's).
pub fn build_hus_format(
    graph: &Graph,
    storage: &Arc<dyn Storage>,
    prefix: &str,
    p: Option<u32>,
) -> std::io::Result<(HusFormat, PreprocessReport)> {
    let row_prefix = format!("{prefix}row/");
    let col_prefix = format!("{prefix}col/");
    // HUS-Graph's row unit stores each vertex's edges contiguously
    // (CSR-like): a single source-sorted, indexed partition.
    let mut row_config = PreprocessConfig::graphsd(&row_prefix);
    row_config.num_intervals = Some(1);
    row_config.degree_balanced = true;
    let _ = p;
    let (_, row_report) = preprocess(graph, storage.as_ref(), &row_config)?;
    let mut col_config = PreprocessConfig {
        sort_by_dst: true,
        ..PreprocessConfig::graphsd(&col_prefix)
    };
    col_config.num_intervals = p;
    col_config.degree_balanced = true;
    let (_, col_report) = preprocess(graph, storage.as_ref(), &col_config)?;
    let format = HusFormat {
        row: GridGraph::open_with_prefix(storage.clone(), &row_prefix)?,
        col: GridGraph::open_with_prefix(storage.clone(), &col_prefix)?,
    };
    let report = PreprocessReport {
        p: row_report.p,
        load: row_report.load + col_report.load,
        partition: row_report.partition + col_report.partition,
        sort: row_report.sort + col_report.sort,
        write: row_report.write + col_report.write,
        bytes_written: row_report.bytes_written + col_report.bytes_written,
    };
    Ok((format, report))
}

/// The HUS-Graph-like engine.
pub struct HusGraphEngine {
    format: HusFormat,
    degrees: Arc<Vec<u32>>,
    /// ROP is chosen when `active_edge_bytes * rop_amplification <
    /// total_edge_bytes` — a coarse stand-in for the random/sequential
    /// bandwidth gap.
    pub rop_amplification: u64,
    index_gap: u32,
    trace: Arc<dyn TraceSink>,
    checkpoint: Option<RecoveryConfig>,
}

impl HusGraphEngine {
    /// Opens the engine over a [`HusFormat`].
    pub fn new(format: HusFormat) -> std::io::Result<Self> {
        let degrees = Arc::new(format.row.load_out_degrees()?);
        let disk = format.row.storage().disk_model().unwrap_or_default();
        let index_gap = ((disk.seek_latency.as_secs_f64() * disk.seq_read_bps / 4.0) as u64)
            .clamp(1, u32::MAX as u64) as u32;
        Ok(HusGraphEngine {
            format,
            degrees,
            rop_amplification: 16,
            index_gap,
            trace: gsd_trace::null_sink(),
            checkpoint: RecoveryConfig::from_env(),
        })
    }

    /// Routes the engine's trace events to `trace`. The default is a
    /// disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Overrides the checkpoint/recovery options (`None` runs
    /// unprotected). The default consults the `GSD_CKPT_*` environment
    /// variables. Checkpointing is result-neutral: resumed runs commit
    /// bit-identical values and I/O accounting.
    pub fn set_checkpoint(&mut self, checkpoint: Option<RecoveryConfig>) {
        self.checkpoint = checkpoint;
    }

    /// The row copy.
    pub fn row_grid(&self) -> &GridGraph {
        &self.format.row
    }

    /// The column copy.
    pub fn col_grid(&self) -> &GridGraph {
        &self.format.col
    }

    fn active_edge_bytes(&self, frontier: &Frontier) -> u64 {
        let per_edge = self.format.row.codec().edge_bytes() as u64;
        frontier
            .iter()
            .map(|v| self.degrees[v as usize] as u64 * per_edge)
            .sum()
    }
}

impl Engine for HusGraphEngine {
    fn name(&self) -> &'static str {
        "hus-graph"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: true,
            future_value_computation: false,
        }
    }

    fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        options: &RunOptions,
    ) -> std::io::Result<RunResult<P::Value>> {
        let row = &self.format.row;
        let col = &self.format.col;
        let storage = row.storage().clone();
        let n = row.num_vertices();
        let rop_p = row.p();
        let cop_p = col.p();
        let ctx = ProgramContext::new(n, self.degrees.clone());
        let limit = options.limit_for(program);
        let total_edge_bytes = row.meta().total_edge_bytes();
        let mut stats = RunStats::new(self.name(), program.name());

        if n == 0 {
            return Ok(RunResult {
                values: Vec::new(),
                stats,
            });
        }

        let mut values_prev: Vec<P::Value> = (0..n).map(|v| program.init_value(v, &ctx)).collect();
        let mut values_cur = values_prev.clone();
        let mut accum = vec![program.zero_accum(); n as usize];
        let mut touched = Frontier::empty(n);
        let mut frontier = program.initial_frontier(&ctx).build(n)?;
        let mut vfile = VertexValueFile::ensure(
            storage.as_ref(),
            format!(
                "{}runtime/values_{}.bin",
                row.prefix(),
                program.value_bytes()
            ),
            n as u64 * program.value_bytes(),
        )?;

        let mut scratch = Vec::new();
        let mut edges: Vec<gsd_graph::Edge> = Vec::new();
        let per_edge = row.codec().edge_bytes() as u64;
        let value_file_bytes = n as u64 * program.value_bytes();
        row.set_verify_sink(self.trace.clone());
        col.set_verify_sink(self.trace.clone());
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunStart {
                engine: "hus-graph",
                algorithm: program.name().to_string(),
            });
        }

        // Recovery runs before `run_snap` is taken so checkpoint reads do
        // not count toward the run's reported I/O. HUS iterations leave
        // the accumulator carrying stale (never re-read) residue from
        // earlier scatters; it is checkpointed and restored verbatim so a
        // resumed run is bit-identical in every observable.
        let mut start = 1u32;
        let mut base_io = IoStatsSnapshot::default();
        let mut ckpt: Option<CheckpointDriver> = None;
        if let Some(cfg) = &self.checkpoint {
            let (driver, resumed) = CheckpointDriver::open(
                cfg,
                &storage,
                row.prefix(),
                "hus-graph",
                program.name(),
                program.value_bytes(),
                n,
                0,
                self.trace.clone(),
            )?;
            if let Some(data) = resumed {
                data.restore(&mut values_prev, &mut accum, &mut frontier, &mut touched);
                stats = data.stats.clone();
                base_io = data.stats.io;
                start = data.iteration + 1;
            }
            ckpt = Some(driver);
        }
        let run_snap = storage.stats().snapshot();
        // Taken after restore so resume-machinery verification is excluded.
        let verify_snap_row = row.verify_counters();
        let verify_snap_col = col.verify_counters();

        for iter in start..=limit {
            if frontier.is_empty() {
                break;
            }
            if self.trace.enabled() {
                self.trace
                    .emit(&TraceEvent::IterationStart { iteration: iter });
            }
            let frontier_size = frontier.count();
            let iter_snap = storage.stats().snapshot();
            let mut io_wall = Duration::ZERO;
            let mut compute = Duration::ZERO;
            let mut scatter_t = Duration::ZERO;
            let mut apply_t = Duration::ZERO;

            // Hybrid decision: coarse volume threshold (no seq/ran split,
            // no calibrated bandwidths — GraphSD's refinement over this).
            let active_bytes = self.active_edge_bytes(&frontier);
            let use_rop = active_bytes.saturating_mul(self.rop_amplification) < total_edge_bytes;

            let t = Stopwatch::start();
            vfile.read_all(storage.as_ref())?;
            io_wall += t.elapsed();
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::ValueFlush {
                    bytes: value_file_bytes,
                    write: false,
                });
            }

            let t = Stopwatch::start();
            values_cur.copy_from_slice(&values_prev);
            compute += t.elapsed();

            let mut out = Frontier::empty(n);
            if use_rop {
                // --- ROP: selective loads from the row copy ---
                edges.clear();
                for i in 0..rop_p {
                    let active: Vec<u32> = frontier.iter_range(row.intervals().range(i)).collect();
                    if active.is_empty() {
                        continue;
                    }
                    let clusters = gsd_graph::cluster_vertex_spans(&active, self.index_gap);
                    for j in 0..rop_p {
                        if row.meta().block_edge_count(i, j) == 0 {
                            continue;
                        }
                        let t = Stopwatch::start();
                        for span in &clusters {
                            let cluster = &active[span.clone()];
                            let index =
                                row.read_index_span(i, j, cluster[0], *cluster.last().unwrap())?;
                            let mut run_start = 0u32;
                            let mut run_len = 0u32;
                            for &v in cluster {
                                let r = index.edge_range(v);
                                let len = r.end - r.start;
                                if len == 0 {
                                    continue;
                                }
                                if run_len > 0 && r.start == run_start + run_len {
                                    run_len += len;
                                } else {
                                    if run_len > 0 {
                                        row.read_edge_run(
                                            i,
                                            j,
                                            run_start,
                                            run_len,
                                            &mut scratch,
                                            &mut edges,
                                        )?;
                                        if self.trace.enabled() {
                                            self.trace.emit(&TraceEvent::BlockLoad {
                                                i,
                                                j,
                                                bytes: run_len as u64 * per_edge,
                                                seq: false,
                                            });
                                        }
                                    }
                                    run_start = r.start;
                                    run_len = len;
                                }
                            }
                            if run_len > 0 {
                                row.read_edge_run(
                                    i,
                                    j,
                                    run_start,
                                    run_len,
                                    &mut scratch,
                                    &mut edges,
                                )?;
                                if self.trace.enabled() {
                                    self.trace.emit(&TraceEvent::BlockLoad {
                                        i,
                                        j,
                                        bytes: run_len as u64 * per_edge,
                                        seq: false,
                                    });
                                }
                            }
                        }
                        io_wall += t.elapsed();
                    }
                }
                let t = Stopwatch::start();
                scatter_edges_timed(
                    program,
                    &ctx,
                    &edges,
                    None,
                    &values_prev,
                    &mut accum,
                    &mut touched,
                    &mut scatter_t,
                );
                apply_range_timed(
                    program,
                    &ctx,
                    0..n,
                    program.apply_all(),
                    &touched,
                    &mut accum,
                    &mut values_cur,
                    &mut out,
                    &mut apply_t,
                );
                compute += t.elapsed();
            } else {
                // --- COP: stream the column copy, interval by interval ---
                for j in 0..cop_p {
                    for i in 0..cop_p {
                        if col.meta().block_edge_count(i, j) == 0 {
                            continue;
                        }
                        let t = Stopwatch::start();
                        col.read_block_into(i, j, &mut scratch, &mut edges)?;
                        io_wall += t.elapsed();
                        if self.trace.enabled() {
                            self.trace.emit(&TraceEvent::BlockLoad {
                                i,
                                j,
                                bytes: col.meta().block_bytes(i, j),
                                seq: true,
                            });
                        }
                        let t = Stopwatch::start();
                        scatter_edges_timed(
                            program,
                            &ctx,
                            &edges,
                            Some(&frontier),
                            &values_prev,
                            &mut accum,
                            &mut touched,
                            &mut scatter_t,
                        );
                        compute += t.elapsed();
                    }
                    let t = Stopwatch::start();
                    apply_range_timed(
                        program,
                        &ctx,
                        col.intervals().range(j),
                        program.apply_all(),
                        &touched,
                        &mut accum,
                        &mut values_cur,
                        &mut out,
                        &mut apply_t,
                    );
                    compute += t.elapsed();
                }
            }

            let t = Stopwatch::start();
            vfile.write_all(storage.as_ref())?;
            io_wall += t.elapsed();
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::ValueFlush {
                    bytes: value_file_bytes,
                    write: true,
                });
            }

            values_prev.copy_from_slice(&values_cur);
            touched.clear();
            frontier = out;

            let model = if use_rop {
                IoAccessModel::OnDemand
            } else {
                IoAccessModel::Full
            };
            let io = storage.stats().snapshot().since(&iter_snap);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::IterationEnd {
                    iteration: iter,
                    model: crate::trace_model(model),
                    frontier: frontier_size,
                    bytes_read: io.read_bytes(),
                    scatter_us: scatter_t.as_micros() as u64,
                    apply_us: apply_t.as_micros() as u64,
                    io_wait_us: io_wall.as_micros() as u64,
                });
            }
            stats.push_iteration(IterationStats {
                iteration: iter,
                model,
                frontier: frontier_size,
                io,
                io_time: if io.sim_nanos > 0 {
                    Duration::from_nanos(io.sim_nanos)
                } else {
                    io_wall
                },
                compute_time: compute,
                scatter_time: scatter_t,
                apply_time: apply_t,
                io_wait_time: io_wall,
                prefetch_stall_time: Duration::ZERO,
                cross_iteration: false,
            });
            if let Some(driver) = ckpt.as_mut() {
                if driver.due(iter) {
                    let mut ckpt_stats = stats.clone();
                    ckpt_stats.io = base_io.plus(
                        &storage
                            .stats()
                            .snapshot()
                            .since(&run_snap)
                            .since(&driver.store.io()),
                    );
                    for vd in [
                        row.verify_counters().since(&verify_snap_row),
                        col.verify_counters().since(&verify_snap_col),
                    ] {
                        ckpt_stats.fold_verify(&vd);
                    }
                    driver.commit(&CheckpointData::capture(
                        iter,
                        &values_prev,
                        &accum,
                        &frontier,
                        &touched,
                        ckpt_stats,
                        Vec::new(),
                    ))?;
                }
            }
        }

        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunEnd {
                engine: "hus-graph",
                iterations: stats.iterations,
            });
        }
        let mut delta = storage.stats().snapshot().since(&run_snap);
        if let Some(driver) = &ckpt {
            delta = delta.since(&driver.store.io());
        }
        stats.io = base_io.plus(&delta);
        for vd in [
            row.verify_counters().since(&verify_snap_row),
            col.verify_counters().since(&verify_snap_col),
        ] {
            stats.fold_verify(&vd);
        }
        Ok(RunResult {
            values: values_prev,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
    use gsd_graph::{GeneratorConfig, GraphKind};
    use gsd_io::{DiskModel, SharedStorage, SimDisk};
    use gsd_runtime::ReferenceEngine;

    fn setup(g: &Graph, p: u32) -> HusGraphEngine {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (format, _) = build_hus_format(g, &storage, "", Some(p)).unwrap();
        HusGraphEngine::new(format).unwrap()
    }

    #[test]
    fn matches_reference_on_cc() {
        let g = GeneratorConfig::new(GraphKind::RMat, 500, 3000, 19)
            .generate()
            .symmetrized();
        let mut engine = setup(&g, 4);
        let got = engine
            .run(&ConnectedComponents, &RunOptions::default())
            .unwrap()
            .values;
        let want = ReferenceEngine::new(&g)
            .run(&ConnectedComponents, &RunOptions::default())
            .unwrap()
            .values;
        assert_eq!(got, want);
    }

    #[test]
    fn matches_reference_on_sssp() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 300, 2400, 21)
            .weighted()
            .generate();
        let mut engine = setup(&g, 3);
        let got = engine
            .run(&Sssp::new(0), &RunOptions::default())
            .unwrap()
            .values;
        let want = ReferenceEngine::new(&g)
            .run(&Sssp::new(0), &RunOptions::default())
            .unwrap()
            .values;
        for (a, b) in got.iter().zip(want.iter()) {
            if b.is_infinite() {
                assert!(a.is_infinite());
            } else {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matches_reference_on_pagerank() {
        let g = GeneratorConfig::new(GraphKind::RMat, 400, 3200, 23).generate();
        let mut engine = setup(&g, 4);
        let got = engine
            .run(&PageRank::paper(), &RunOptions::default())
            .unwrap()
            .values;
        let want = ReferenceEngine::new(&g)
            .run(&PageRank::paper(), &RunOptions::default())
            .unwrap()
            .values;
        for (v, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3 * b.max(1.0), "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn preprocessing_writes_two_copies() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 300, 2000, 25).generate();
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (_, hus_report) = build_hus_format(&g, &storage, "hus/", Some(3)).unwrap();
        let storage2: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (_, gsd_report) = gsd_graph::preprocess(
            &g,
            storage2.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
        // Two full edge copies, though index overhead differs per layout
        // (GraphSD's row-combined index is P x 4 bytes per vertex, HUS's
        // CSR-like row copy only 8).
        assert!(
            hus_report.bytes_written as f64 >= 1.5 * gsd_report.bytes_written as f64,
            "HUS writes both copies: {} vs {}",
            hus_report.bytes_written,
            gsd_report.bytes_written
        );
    }

    #[test]
    fn hybrid_switches_between_rop_and_cop() {
        // BFS starts with a single-vertex frontier (ROP) and on a
        // well-connected graph grows past the threshold (COP).
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 2000, 24000, 27).generate();
        let mut engine = setup(&g, 4);
        let result = engine.run(&Bfs::new(0), &RunOptions::default()).unwrap();
        let models: Vec<_> = result.stats.per_iteration.iter().map(|s| s.model).collect();
        assert!(models.contains(&IoAccessModel::OnDemand), "{models:?}");
        assert!(models.contains(&IoAccessModel::Full), "{models:?}");
    }

    #[test]
    fn never_reports_cross_iteration() {
        let g = GeneratorConfig::new(GraphKind::RMat, 300, 2000, 29).generate();
        let mut engine = setup(&g, 3);
        let result = engine
            .run(&PageRank::paper(), &RunOptions::default())
            .unwrap();
        assert_eq!(result.stats.cross_iter_edges, 0);
        assert!(result
            .stats
            .per_iteration
            .iter()
            .all(|s| !s.cross_iteration));
        assert!(!engine.capabilities().future_value_computation);
    }
}
