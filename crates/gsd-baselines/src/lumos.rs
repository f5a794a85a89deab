//! Lumos-like baseline (Vora, USENIX ATC'19): dependency-driven
//! future-value computation **without** active-vertex awareness.
//!
//! Like GraphSD's FCIU, a full destination-major sweep commits iteration
//! `t` while propagating `val_t` values along `i ≤ j` sub-blocks into
//! iteration `t + 1`'s accumulators; the second pass reads only the
//! lower-triangle secondary partitions. Unlike GraphSD it never loads
//! selectively — every block is read even when almost no vertex is active
//! (the inactive-edge traffic the paper's Figure 7 attributes to Lumos) —
//! and its on-disk format is a single **unsorted** copy without per-vertex
//! indexes, giving it the cheapest preprocessing in Figure 8.

use gsd_graph::{preprocess, Graph, GridGraph, PreprocessConfig, PreprocessReport};
use gsd_io::{IoStatsSnapshot, Storage};
use gsd_pipeline::{PipelineConfig, PrefetchExecutor, PrefetchRequest};
use gsd_recover::{CheckpointData, CheckpointDriver, RecoveryConfig};
use gsd_runtime::kernels::{apply_range_timed, scatter_edges_timed};
use gsd_runtime::{
    BspState, Capabilities, Engine, Frontier, IoAccessModel, IterationStats, ProgramContext,
    RunOptions, RunResult, RunStats, Value, VertexProgram, VertexValueFile,
};
use gsd_trace::Stopwatch;
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// Builds the Lumos on-disk layout (unsorted, unindexed grid) under
/// `prefix` and returns its handle plus the preprocessing breakdown.
pub fn build_lumos_format(
    graph: &Graph,
    storage: &std::sync::Arc<dyn Storage>,
    prefix: &str,
    p: Option<u32>,
) -> std::io::Result<(GridGraph, PreprocessReport)> {
    let mut config = PreprocessConfig::lumos(prefix);
    config.num_intervals = p;
    config.degree_balanced = true;
    let (_, report) = preprocess(graph, storage.as_ref(), &config)?;
    let grid = GridGraph::open_with_prefix(storage.clone(), prefix)?;
    Ok((grid, report))
}

/// The Lumos-like engine.
pub struct LumosEngine {
    grid: GridGraph,
    degrees: Arc<Vec<u32>>,
    trace: Arc<dyn TraceSink>,
    prefetch: Option<PipelineConfig>,
    checkpoint: Option<RecoveryConfig>,
}

impl LumosEngine {
    /// Opens the engine over any grid layout (indexes are ignored). The
    /// prefetch pipeline defaults to the `GSD_PREFETCH*` environment
    /// switch, matching the GraphSD engine's default.
    pub fn new(grid: GridGraph) -> std::io::Result<Self> {
        let degrees = Arc::new(grid.load_out_degrees()?);
        Ok(LumosEngine {
            grid,
            degrees,
            trace: gsd_trace::null_sink(),
            prefetch: PipelineConfig::from_env(),
            checkpoint: RecoveryConfig::from_env(),
        })
    }

    /// Routes the engine's trace events to `trace`. The default is a
    /// disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Overrides the prefetch pipeline sizing (`None` forces fully
    /// synchronous reads). Results are bit-identical either way.
    pub fn set_prefetch(&mut self, prefetch: Option<PipelineConfig>) {
        self.prefetch = prefetch;
    }

    /// Overrides the checkpoint/recovery options (`None` runs
    /// unprotected). The default consults the `GSD_CKPT_*` environment
    /// variables. Like prefetching, checkpointing is result-neutral:
    /// resumed runs commit bit-identical values and I/O accounting.
    pub fn set_checkpoint(&mut self, checkpoint: Option<RecoveryConfig>) {
        self.checkpoint = checkpoint;
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }
}

/// Consumes one scheduled block from the pipeline, folding the wait into
/// the pass's wall/stall timers and the outcome into the hit counters.
fn take_scheduled(
    exec: &mut PrefetchExecutor,
    io_wall: &mut Duration,
    stall: &mut Duration,
    hits: &mut u64,
    misses: &mut u64,
) -> std::io::Result<Vec<gsd_graph::Edge>> {
    let t = Stopwatch::start();
    let taken = exec.take();
    *io_wall += t.elapsed();
    let taken = taken?;
    if taken.outcome.is_hit() {
        *hits += 1;
    } else {
        *misses += 1;
    }
    *stall += taken.outcome.stall();
    Ok(taken.edges)
}

/// Boundary snapshot of a Lumos round. Rounds always end with the
/// cross-iteration accumulator drained (a two-pass round consumes it in
/// the secondary pass; a single-pass final round never fills it), but the
/// accumulator and touched set are captured anyway so restore is a pure
/// copy of the boundary state. `io` is what an uninterrupted run would
/// report at this boundary (checkpoint traffic already excluded).
fn lumos_ckpt_data<V: Value, A: Value>(
    committed: u32,
    st: &BspState<V, A>,
    stats: &RunStats,
    cross_iter_edges: u64,
    prefetch_hits: u64,
    prefetch_misses: u64,
    io: IoStatsSnapshot,
) -> CheckpointData {
    let mut stats = stats.clone();
    stats.cross_iter_edges = cross_iter_edges;
    stats.prefetch_hits = prefetch_hits;
    stats.prefetch_misses = prefetch_misses;
    stats.io = io;
    CheckpointData::capture(
        committed,
        &st.values_prev,
        &st.accum_cur,
        &st.frontier,
        &st.touched_cur,
        stats,
        Vec::new(),
    )
}

impl Engine for LumosEngine {
    fn name(&self) -> &'static str {
        "lumos"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: false,
            future_value_computation: true,
        }
    }

    fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        options: &RunOptions,
    ) -> std::io::Result<RunResult<P::Value>> {
        let grid = &self.grid;
        let storage = grid.storage().clone();
        let n = grid.num_vertices();
        let p = grid.p();
        let ctx = ProgramContext::new(n, self.degrees.clone());
        let limit = options.limit_for(program);
        let mut stats = RunStats::new(self.name(), program.name());

        if n == 0 {
            return Ok(RunResult {
                values: Vec::new(),
                stats,
            });
        }

        let mut st = BspState::new(program, &ctx)?;
        let mut vfile = VertexValueFile::ensure(
            storage.as_ref(),
            format!(
                "{}runtime/values_{}.bin",
                grid.prefix(),
                program.value_bytes()
            ),
            n as u64 * program.value_bytes(),
        )?;

        let mut scratch = Vec::new();
        let mut edges = Vec::new();
        let mut cross_iter_edges = 0u64;
        let mut prefetch_hits = 0u64;
        let mut prefetch_misses = 0u64;
        let value_file_bytes = n as u64 * program.value_bytes();
        let mut pipeline = match self.prefetch {
            Some(sizing) => {
                let mut exec = PrefetchExecutor::new(grid.clone(), sizing)?;
                exec.set_trace(self.trace.clone());
                Some(exec)
            }
            None => None,
        };
        grid.set_verify_sink(self.trace.clone());
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunStart {
                engine: "lumos",
                algorithm: program.name().to_string(),
            });
        }

        // Recovery runs before `run_snap` is taken so checkpoint reads do
        // not count toward the run's reported I/O.
        let mut iter = 1u32;
        let mut base_io = IoStatsSnapshot::default();
        let mut ckpt: Option<CheckpointDriver> = None;
        if let Some(cfg) = &self.checkpoint {
            let (driver, resumed) = CheckpointDriver::open(
                cfg,
                &storage,
                grid.prefix(),
                "lumos",
                program.name(),
                program.value_bytes(),
                n,
                0,
                self.trace.clone(),
            )?;
            if let Some(data) = resumed {
                data.restore(
                    &mut st.values_prev,
                    &mut st.accum_cur,
                    &mut st.frontier,
                    &mut st.touched_cur,
                );
                stats = data.stats.clone();
                cross_iter_edges = stats.cross_iter_edges;
                prefetch_hits = stats.prefetch_hits;
                prefetch_misses = stats.prefetch_misses;
                base_io = data.stats.io;
                iter = data.iteration + 1;
            }
            ckpt = Some(driver);
        }
        let run_snap = storage.stats().snapshot();
        let verify_snap = grid.verify_counters();

        while iter <= limit && !st.frontier.is_empty() {
            let two_pass = iter < limit;

            // ---------------- pass 1: iteration `iter` ----------------
            if self.trace.enabled() {
                self.trace
                    .emit(&TraceEvent::IterationStart { iteration: iter });
            }
            let frontier_size = st.frontier.count();
            let iter_snap = storage.stats().snapshot();
            let mut io_wall = Duration::ZERO;
            let mut compute = Duration::ZERO;
            let mut scatter_t = Duration::ZERO;
            let mut apply_t = Duration::ZERO;
            let mut stall_t = Duration::ZERO;
            let mut pass_edges_served = 0u64;

            // Lumos is state-oblivious: every non-empty block streams,
            // so the whole pass is one prefetch schedule in visit order.
            if let Some(exec) = pipeline.as_mut() {
                let mut schedule = Vec::new();
                for j in 0..p {
                    for i in 0..p {
                        if grid.meta().block_edge_count(i, j) > 0 {
                            schedule.push(PrefetchRequest::Block { i, j });
                        }
                    }
                }
                exec.begin_schedule(schedule);
            }

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
            st.values_cur.copy_from_slice(&st.values_prev);
            compute += t.elapsed();

            let mut out = Frontier::empty(n);
            for j in 0..p {
                let mut diag: Option<Vec<gsd_graph::Edge>> = None;
                for i in 0..p {
                    if grid.meta().block_edge_count(i, j) == 0 {
                        continue;
                    }
                    if let Some(exec) = pipeline.as_mut() {
                        edges = take_scheduled(
                            exec,
                            &mut io_wall,
                            &mut stall_t,
                            &mut prefetch_hits,
                            &mut prefetch_misses,
                        )?;
                    } else {
                        let t = Stopwatch::start();
                        grid.read_block_into(i, j, &mut scratch, &mut edges)?;
                        io_wall += t.elapsed();
                    }
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::BlockLoad {
                            i,
                            j,
                            bytes: grid.meta().block_bytes(i, j),
                            seq: true,
                        });
                    }

                    let t = Stopwatch::start();
                    scatter_edges_timed(
                        program,
                        &ctx,
                        &edges,
                        Some(&st.frontier),
                        &st.values_prev,
                        &mut st.accum_cur,
                        &mut st.touched_cur,
                        &mut scatter_t,
                    );
                    if two_pass {
                        if i < j {
                            let served = scatter_edges_timed(
                                program,
                                &ctx,
                                &edges,
                                Some(&out),
                                &st.values_cur,
                                &mut st.accum_next,
                                &mut st.touched_next,
                                &mut scatter_t,
                            );
                            cross_iter_edges += served;
                            pass_edges_served += served;
                        } else if i == j {
                            diag = Some(edges.clone());
                        }
                    }
                    compute += t.elapsed();
                }
                let t = Stopwatch::start();
                apply_range_timed(
                    program,
                    &ctx,
                    grid.intervals().range(j),
                    program.apply_all(),
                    &st.touched_cur,
                    &mut st.accum_cur,
                    &mut st.values_cur,
                    &mut out,
                    &mut apply_t,
                );
                if let Some(diag) = diag {
                    let served = scatter_edges_timed(
                        program,
                        &ctx,
                        &diag,
                        Some(&out),
                        &st.values_cur,
                        &mut st.accum_next,
                        &mut st.touched_next,
                        &mut scatter_t,
                    );
                    cross_iter_edges += served;
                    pass_edges_served += served;
                }
                compute += t.elapsed();
            }
            if two_pass && self.trace.enabled() {
                self.trace.emit(&TraceEvent::FciuPass {
                    iteration: iter,
                    edges_served: pass_edges_served,
                });
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

            st.rotate(out);
            let io = storage.stats().snapshot().since(&iter_snap);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::IterationEnd {
                    iteration: iter,
                    model: crate::trace_model(IoAccessModel::Full),
                    frontier: frontier_size,
                    bytes_read: io.read_bytes(),
                    scatter_us: scatter_t.as_micros() as u64,
                    apply_us: apply_t.as_micros() as u64,
                    io_wait_us: io_wall.as_micros() as u64,
                });
            }
            stats.push_iteration(IterationStats {
                iteration: iter,
                model: IoAccessModel::Full,
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
                prefetch_stall_time: stall_t,
                cross_iteration: false,
            });

            if !two_pass || st.frontier.is_empty() {
                if let Some(driver) = ckpt.as_mut() {
                    if driver.due(iter) {
                        let io = base_io.plus(
                            &storage
                                .stats()
                                .snapshot()
                                .since(&run_snap)
                                .since(&driver.store.io()),
                        );
                        driver.commit(&lumos_ckpt_data(
                            iter,
                            &st,
                            &stats,
                            cross_iter_edges,
                            prefetch_hits,
                            prefetch_misses,
                            io,
                        ))?;
                    }
                }
                iter += 1;
                continue;
            }

            // ------------- pass 2: iteration `iter + 1` -------------
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::IterationStart {
                    iteration: iter + 1,
                });
            }
            let frontier_size = st.frontier.count();
            let iter_snap = storage.stats().snapshot();
            let mut io_wall = Duration::ZERO;
            let mut compute = Duration::ZERO;
            let mut scatter_t = Duration::ZERO;
            let mut apply_t = Duration::ZERO;
            let mut stall_t = Duration::ZERO;

            // The secondary pass streams only the lower triangle.
            if let Some(exec) = pipeline.as_mut() {
                let mut schedule = Vec::new();
                for j in 0..p {
                    for i in (j + 1)..p {
                        if grid.meta().block_edge_count(i, j) > 0 {
                            schedule.push(PrefetchRequest::Block { i, j });
                        }
                    }
                }
                exec.begin_schedule(schedule);
            }

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
            st.values_cur.copy_from_slice(&st.values_prev);
            compute += t.elapsed();

            let mut out = Frontier::empty(n);
            for j in 0..p {
                for i in (j + 1)..p {
                    if grid.meta().block_edge_count(i, j) == 0 {
                        continue;
                    }
                    if let Some(exec) = pipeline.as_mut() {
                        edges = take_scheduled(
                            exec,
                            &mut io_wall,
                            &mut stall_t,
                            &mut prefetch_hits,
                            &mut prefetch_misses,
                        )?;
                    } else {
                        let t = Stopwatch::start();
                        grid.read_block_into(i, j, &mut scratch, &mut edges)?;
                        io_wall += t.elapsed();
                    }
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::BlockLoad {
                            i,
                            j,
                            bytes: grid.meta().block_bytes(i, j),
                            seq: true,
                        });
                    }
                    let t = Stopwatch::start();
                    scatter_edges_timed(
                        program,
                        &ctx,
                        &edges,
                        Some(&st.frontier),
                        &st.values_prev,
                        &mut st.accum_cur,
                        &mut st.touched_cur,
                        &mut scatter_t,
                    );
                    compute += t.elapsed();
                }
                let t = Stopwatch::start();
                apply_range_timed(
                    program,
                    &ctx,
                    grid.intervals().range(j),
                    program.apply_all(),
                    &st.touched_cur,
                    &mut st.accum_cur,
                    &mut st.values_cur,
                    &mut out,
                    &mut apply_t,
                );
                compute += t.elapsed();
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

            st.rotate(out);
            let io = storage.stats().snapshot().since(&iter_snap);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::IterationEnd {
                    iteration: iter + 1,
                    model: crate::trace_model(IoAccessModel::Full),
                    frontier: frontier_size,
                    bytes_read: io.read_bytes(),
                    scatter_us: scatter_t.as_micros() as u64,
                    apply_us: apply_t.as_micros() as u64,
                    io_wait_us: io_wall.as_micros() as u64,
                });
            }
            stats.push_iteration(IterationStats {
                iteration: iter + 1,
                model: IoAccessModel::Full,
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
                prefetch_stall_time: stall_t,
                cross_iteration: true,
            });
            if let Some(driver) = ckpt.as_mut() {
                if driver.due(iter + 1) {
                    let io = base_io.plus(
                        &storage
                            .stats()
                            .snapshot()
                            .since(&run_snap)
                            .since(&driver.store.io()),
                    );
                    driver.commit(&lumos_ckpt_data(
                        iter + 1,
                        &st,
                        &stats,
                        cross_iter_edges,
                        prefetch_hits,
                        prefetch_misses,
                        io,
                    ))?;
                }
            }
            iter += 2;
        }

        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunEnd {
                engine: "lumos",
                iterations: stats.iterations,
            });
        }
        let mut delta = storage.stats().snapshot().since(&run_snap);
        if let Some(driver) = &ckpt {
            delta = delta.since(&driver.store.io());
        }
        stats.io = base_io.plus(&delta);
        let vd = grid.verify_counters().since(&verify_snap);
        stats.fold_verify(&vd);
        stats.cross_iter_edges = cross_iter_edges;
        stats.prefetch_hits = prefetch_hits;
        stats.prefetch_misses = prefetch_misses;
        Ok(RunResult {
            values: st.values_prev,
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

    fn setup(g: &Graph, p: u32) -> LumosEngine {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (grid, report) = build_lumos_format(g, &storage, "", Some(p)).unwrap();
        assert_eq!(report.sort, Duration::ZERO, "Lumos does not sort");
        LumosEngine::new(grid).unwrap()
    }

    #[test]
    fn matches_reference_on_cc() {
        let g = GeneratorConfig::new(GraphKind::RMat, 500, 3000, 7)
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
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 300, 2400, 9)
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
        let g = GeneratorConfig::new(GraphKind::RMat, 400, 3200, 11).generate();
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
    fn cross_iteration_fires_and_saves_traffic() {
        let g = GeneratorConfig::new(GraphKind::RMat, 800, 9600, 13).generate();
        let mut engine = setup(&g, 4);
        let result = engine
            .run(&PageRank::with_iterations(6), &RunOptions::default())
            .unwrap();
        assert!(result.stats.cross_iter_edges > 0);
        // 6 iterations as 3 FCIU-style rounds: each round reads P^2 + lower
        // triangle instead of 2 P^2 blocks, so total reads must be clearly
        // below 6 full sweeps.
        let full6 = 6 * engine.grid().meta().total_edge_bytes();
        assert!(result.stats.io.read_bytes() < full6);
    }

    #[test]
    fn reads_inactive_edges_on_tiny_frontiers() {
        // BFS: Lumos still streams the full lower triangle each round.
        let g = GeneratorConfig::new(GraphKind::WebLocality, 1000, 8000, 15).generate();
        let mut engine = setup(&g, 4);
        let result = engine.run(&Bfs::new(0), &RunOptions::default()).unwrap();
        let edge_bytes = engine.grid().meta().total_edge_bytes();
        // Per committed iteration it reads at least ~half the edge set
        // (full sweep then secondary), far more than the frontier needs.
        assert!(
            result.stats.io.read_bytes() as f64
                >= 0.5 * edge_bytes as f64 * result.stats.iterations as f64
        );
    }
}
