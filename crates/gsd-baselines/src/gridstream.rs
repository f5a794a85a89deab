//! GridGraph-like baseline: stream every sub-block, every iteration.
//!
//! The 2-D grid layout eliminates random accesses (Table 1's first
//! column), but the engine is oblivious to vertex state and dependencies:
//! each BSP iteration reads all `P × P` sub-blocks front to back, scatters
//! from frontier sources, and applies per destination interval.

use gsd_graph::GridGraph;
use gsd_io::IoStatsSnapshot;
use gsd_runtime::kernels::{apply_range_timed, scatter_edges_timed};
use gsd_runtime::{
    Capabilities, Engine, Frontier, IoAccessModel, IterationStats, ProgramContext, RunOptions,
    RunResult, RunStats, VertexProgram, VertexValueFile,
};
use gsd_trace::Stopwatch;
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// Plain full-streaming engine over a grid graph.
pub struct GridStreamEngine {
    grid: GridGraph,
    degrees: Arc<Vec<u32>>,
    trace: Arc<dyn TraceSink>,
}

impl GridStreamEngine {
    /// Opens the engine over a preprocessed grid (any layout works; no
    /// indexes are needed).
    pub fn new(grid: GridGraph) -> std::io::Result<Self> {
        let degrees = Arc::new(grid.load_out_degrees()?);
        Ok(GridStreamEngine {
            grid,
            degrees,
            trace: gsd_trace::null_sink(),
        })
    }

    /// Routes the engine's trace events to `trace`. The default is a
    /// disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }
}

impl Engine for GridStreamEngine {
    fn name(&self) -> &'static str {
        "gridstream"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: false,
            future_value_computation: false,
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

        let mut values_prev: Vec<P::Value> = (0..n).map(|v| program.init_value(v, &ctx)).collect();
        let mut values_cur = values_prev.clone();
        let mut accum = vec![program.zero_accum(); n as usize];
        let mut touched = Frontier::empty(n);
        let mut frontier = program.initial_frontier(&ctx).build(n)?;
        let mut vfile = VertexValueFile::ensure(
            storage.as_ref(),
            format!(
                "{}runtime/values_{}.bin",
                grid.prefix(),
                program.value_bytes()
            ),
            n as u64 * program.value_bytes(),
        )?;

        let run_snap = storage.stats().snapshot();
        let verify_snap = grid.verify_counters();
        let mut scratch = Vec::new();
        let mut edges = Vec::new();
        let value_file_bytes = n as u64 * program.value_bytes();
        grid.set_verify_sink(self.trace.clone());
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunStart {
                engine: "gridstream",
                algorithm: program.name().to_string(),
            });
        }

        for iter in 1..=limit {
            if frontier.is_empty() {
                break;
            }
            if self.trace.enabled() {
                self.trace
                    .emit(&TraceEvent::IterationStart { iteration: iter });
            }
            let frontier_size = frontier.count();
            let iter_snap: IoStatsSnapshot = storage.stats().snapshot();
            let mut io_wall = Duration::ZERO;
            let mut compute = Duration::ZERO;
            let mut scatter_t = Duration::ZERO;
            let mut apply_t = Duration::ZERO;

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
            for j in 0..p {
                for i in 0..p {
                    if grid.meta().block_edge_count(i, j) == 0 {
                        continue;
                    }
                    let t = Stopwatch::start();
                    grid.read_block_into(i, j, &mut scratch, &mut edges)?;
                    io_wall += t.elapsed();
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
                    grid.intervals().range(j),
                    program.apply_all(),
                    &touched,
                    &mut accum,
                    &mut values_cur,
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

            values_prev.copy_from_slice(&values_cur);
            touched.clear();
            frontier = out;

            let io = storage.stats().snapshot().since(&iter_snap);
            let io_time = if io.sim_nanos > 0 {
                Duration::from_nanos(io.sim_nanos)
            } else {
                io_wall
            };
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
                io_time,
                compute_time: compute,
                scatter_time: scatter_t,
                apply_time: apply_t,
                io_wait_time: io_wall,
                prefetch_stall_time: Duration::ZERO,
                cross_iteration: false,
            });
        }

        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunEnd {
                engine: "gridstream",
                iterations: stats.iterations,
            });
        }
        stats.io = storage.stats().snapshot().since(&run_snap);
        let vd = grid.verify_counters().since(&verify_snap);
        stats.fold_verify(&vd);
        Ok(RunResult {
            values: values_prev,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_algos::{ConnectedComponents, PageRank};
    use gsd_graph::{preprocess, GeneratorConfig, GraphKind, PreprocessConfig};
    use gsd_io::{DiskModel, SharedStorage, SimDisk};
    use gsd_runtime::ReferenceEngine;

    #[test]
    fn matches_reference_on_cc() {
        let g = GeneratorConfig::new(GraphKind::RMat, 400, 2500, 3)
            .generate()
            .symmetrized();
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
        let mut engine = GridStreamEngine::new(GridGraph::open(storage).unwrap()).unwrap();
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
    fn reads_whole_graph_every_iteration() {
        let g = GeneratorConfig::new(GraphKind::RMat, 300, 3000, 5).generate();
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(2),
        )
        .unwrap();
        let mut engine = GridStreamEngine::new(GridGraph::open(storage).unwrap()).unwrap();
        let result = engine
            .run(&PageRank::with_iterations(3), &RunOptions::default())
            .unwrap();
        let edge_bytes = engine.grid().meta().total_edge_bytes();
        // Each of the 3 iterations must read at least the full edge set.
        assert!(result.stats.io.read_bytes() >= 3 * edge_bytes);
        assert_eq!(result.stats.iterations, 3);
    }
}
