//! The GraphSD engine: Algorithm 1's driver loop plus the SCIU
//! (Algorithm 2) and FCIU (Algorithm 3) update models.
//!
//! ## State layout
//!
//! The engine's vertex state is a [`BspState`]: double-buffered committed
//! values and accumulators that rotate at the end of each committed
//! iteration. This realizes the paper's BSP guarantee: a cross-iteration
//! update of edge `(u, v)` always reads `val_t(u)` — the same value a
//! normal iteration-`t+1` scatter would read — so committed values are
//! schedule-identical to the reference executor's.
//!
//! ## Frontier bookkeeping (Algorithm 1)
//!
//! `frontier` is `V_active`; the `out` set built by `apply` is the next
//! frontier; SCIU removes vertices it fully served by cross-iteration
//! propagation (their edges were in memory, so they need not be re-read),
//! and the pre-seeded accumulator (`accum_next` + `touched_next`) plays the
//! role of `OutNI`: its recipients are examined by `apply` at the end of
//! the next iteration.

use crate::buffer::SubBlockBuffer;
use crate::config::GraphSdConfig;
use crate::scheduler::{Scheduler, SchedulerDecision};
use gsd_graph::{Edge, GridGraph};
use gsd_io::{DiskModel, IoStatsSnapshot};
use gsd_pipeline::{PrefetchExecutor, PrefetchRequest, Prefetched};
use gsd_recover::{CheckpointData, CheckpointDriver};
use gsd_runtime::kernels::{apply_range_timed, scatter_edges_timed, timed};
use gsd_runtime::{
    BspState, Capabilities, Engine, Frontier, IoAccessModel, IterationStats, ProgramContext,
    RunOptions, RunResult, RunStats, VertexProgram, VertexValueFile,
};
use gsd_trace::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// The GraphSD out-of-core engine over a preprocessed [`GridGraph`].
pub struct GraphSdEngine {
    grid: GridGraph,
    config: GraphSdConfig,
    disk: DiskModel,
    degrees: Arc<Vec<u32>>,
    trace: Arc<dyn TraceSink>,
    last_decisions: Vec<SchedulerDecision>,
}

impl GraphSdEngine {
    /// Opens the engine. If the grid lacks per-vertex indexes (e.g. a
    /// Lumos-layout grid), selective loading is disabled automatically —
    /// unless the config *forces* the on-demand model, which is an error.
    pub fn new(grid: GridGraph, config: GraphSdConfig) -> std::io::Result<Self> {
        let mut config = config;
        if !grid.meta().indexed || !grid.meta().sorted {
            if config.force_model == Some(IoAccessModel::OnDemand) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "on-demand I/O requires a sorted, indexed grid format",
                ));
            }
            config.enable_selective = false;
        }
        let degrees = Arc::new(grid.load_out_degrees()?);
        let disk = config
            .disk_model
            .or_else(|| grid.storage().disk_model())
            .unwrap_or_default();
        Ok(GraphSdEngine {
            grid,
            config,
            disk,
            degrees,
            trace: gsd_trace::null_sink(),
            last_decisions: Vec::new(),
        })
    }

    /// Routes the engine's (and its scheduler's and buffer's) trace
    /// events to `trace`. The default is a disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }

    /// The effective configuration (after format-capability adjustment).
    pub fn config(&self) -> &GraphSdConfig {
        &self.config
    }

    /// Scheduler decisions of the most recent run (Figure 10/11 detail).
    pub fn last_decisions(&self) -> &[SchedulerDecision] {
        &self.last_decisions
    }
}

impl Engine for GraphSdEngine {
    fn name(&self) -> &'static str {
        "graphsd"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: self.config.enable_selective,
            future_value_computation: self.config.enable_cross_iter,
        }
    }

    fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        options: &RunOptions,
    ) -> std::io::Result<RunResult<P::Value>> {
        let runner = Runner::new(self, program, options)?;
        let (result, decisions) = runner.run()?;
        self.last_decisions = decisions;
        Ok(result)
    }
}

/// Per-iteration time/traffic tracker. The `scatter`/`apply` timers are
/// accumulated by the `*_timed` kernel wrappers *inside* the spans that
/// feed `compute`, so they always sum to at most `compute`.
struct IterTracker {
    io_snap: IoStatsSnapshot,
    io_wall: Duration,
    compute: Duration,
    scatter: Duration,
    apply: Duration,
    /// Wall time the consumer spent blocked on the prefetch pipeline
    /// (stalled behind an in-flight read, or reading a fallback itself).
    stall: Duration,
    prefetch_hits: u64,
    prefetch_misses: u64,
}

/// One resident sub-block recorded in a checkpoint. Only identity, size
/// and priority are persisted; payloads are re-read from the grid on
/// restore (the grid is immutable, so the decode is bit-identical).
#[derive(Serialize, Deserialize)]
struct ResidentBlock {
    i: u32,
    j: u32,
    bytes: u64,
    priority: u64,
}

/// Engine-private checkpoint payload, carried opaquely in the snapshot's
/// `extra` section: the scheduler's decision log (Figure 10/11 detail)
/// and the sub-block buffer's residency, so a resumed run reports the
/// same decisions and performs the same buffered I/O as an uninterrupted
/// one.
#[derive(Serialize, Deserialize)]
struct CkptExtra {
    decisions: Vec<SchedulerDecision>,
    overhead_nanos: u64,
    buffer_evictions: u64,
    residents: Vec<ResidentBlock>,
}

struct Runner<'a, P: VertexProgram> {
    grid: &'a GridGraph,
    config: &'a GraphSdConfig,
    program: &'a P,
    ctx: ProgramContext,
    degrees: Arc<Vec<u32>>,
    n: u32,
    p: u32,
    limit: u32,
    st: BspState<P::Value, P::Accum>,
    vfile: VertexValueFile,
    scheduler: Scheduler,
    buffer: SubBlockBuffer,
    pipeline: Option<PrefetchExecutor>,
    stats: RunStats,
    cross_iter_edges: u64,
    trace: Arc<dyn TraceSink>,
    per_edge_bytes: u64,
    value_file_bytes: u64,
    scratch: Vec<u8>,
    /// Max id gap bridged within one index-span request
    /// (`seek · B_sr / 4` — bridging cheaper than seeking beyond this).
    index_gap: u32,
}

impl<'a, P: VertexProgram> Runner<'a, P> {
    fn new(
        engine: &'a GraphSdEngine,
        program: &'a P,
        options: &RunOptions,
    ) -> std::io::Result<Self> {
        let grid = &engine.grid;
        let n = grid.num_vertices();
        let p = grid.p();
        let ctx = ProgramContext::new(n, engine.degrees.clone());
        let st = BspState::new(program, &ctx)?;
        let value_bytes = program.value_bytes();
        let vfile = VertexValueFile::ensure(
            grid.storage().as_ref(),
            format!("{}runtime/values_{}.bin", grid.prefix(), value_bytes),
            n as u64 * value_bytes,
        )?;
        let edge_bytes = grid.meta().total_edge_bytes();
        let per_edge = grid.codec().edge_bytes() as u64;
        // Break-even run size: a run whose per-sub-block transfer time
        // equals one seek. A run of R bytes splits across up to P
        // sub-blocks (the grid fragments each vertex's edge list), so the
        // conservative default is P x seek x B_sr; callers with locality
        // knowledge (see the bench runner's calibration) can override.
        let seq_run_threshold = engine.config.seq_run_threshold.unwrap_or_else(|| {
            (p as f64 * engine.disk.seek_latency.as_secs_f64() * engine.disk.seq_read_bps).max(1.0)
                as u64
        });
        let mut scheduler = Scheduler::new(
            engine.disk,
            n as u64 * value_bytes,
            edge_bytes,
            per_edge,
            seq_run_threshold,
        );
        scheduler.set_trace(engine.trace.clone());
        // The working sub-block of the FCIU pass must fit alongside the
        // buffer, so the buffer gets the budget minus the largest block.
        let budget = engine.config.budget_for(edge_bytes);
        let largest_block = (0..p)
            .flat_map(|i| (0..p).map(move |j| (i, j)))
            .map(|(i, j)| grid.meta().block_bytes(i, j))
            .max()
            .unwrap_or(0);
        let mut buffer = SubBlockBuffer::new(budget.saturating_sub(largest_block));
        buffer.set_trace(engine.trace.clone());
        let pipeline = match engine.config.prefetch {
            Some(sizing) => {
                let mut exec = PrefetchExecutor::new(grid.clone(), sizing)?;
                exec.set_trace(engine.trace.clone());
                Some(exec)
            }
            None => None,
        };
        let index_gap = gsd_graph::narrow::saturating_u32((seq_run_threshold / 4).max(1));
        Ok(Runner {
            grid,
            config: &engine.config,
            program,
            degrees: engine.degrees.clone(),
            n,
            p,
            limit: options.limit_for(program),
            st,
            vfile,
            scheduler,
            buffer,
            pipeline,
            stats: RunStats::new("graphsd", program.name()),
            cross_iter_edges: 0,
            trace: engine.trace.clone(),
            per_edge_bytes: per_edge,
            value_file_bytes: n as u64 * value_bytes,
            scratch: Vec::new(),
            index_gap,
            ctx,
        })
    }

    fn run(mut self) -> std::io::Result<(RunResult<P::Value>, Vec<SchedulerDecision>)> {
        if self.n == 0 {
            return Ok((
                RunResult {
                    values: Vec::new(),
                    stats: self.stats,
                },
                Vec::new(),
            ));
        }
        let storage = self.grid.storage().clone();
        self.grid.set_verify_sink(self.trace.clone());
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunStart {
                engine: "graphsd",
                algorithm: self.program.name().to_string(),
            });
        }

        // Recovery setup happens BEFORE `run_snap`: checkpoint discovery,
        // snapshot reads and resident-block re-reads are resume machinery,
        // not part of the run, so they must not appear in `stats.io` (the
        // determinism contract promises a resumed run the same accounting
        // as an uninterrupted one).
        let mut iter = 1u32;
        let mut base_io = IoStatsSnapshot::default();
        let mut ckpt: Option<CheckpointDriver> = None;
        if let Some(cfg) = &self.config.checkpoint {
            let (driver, resumed) = CheckpointDriver::open(
                cfg,
                &storage,
                self.grid.prefix(),
                "graphsd",
                self.program.name(),
                self.program.value_bytes(),
                self.n,
                self.config.semantic_hash(),
                self.trace.clone(),
            )?;
            if let Some(data) = resumed {
                self.restore(&data)?;
                base_io = data.stats.io;
                iter = data.iteration + 1;
            }
            ckpt = Some(driver);
        }
        let run_snap = storage.stats().snapshot();
        // Taken after restore: resume-machinery verification (resident
        // block re-reads) is not part of this run's totals.
        let verify_snap = self.grid.verify_counters();

        // An iteration is due while either scatter sources remain
        // (`frontier`) or cross-iteration propagation has pre-scattered
        // contributions awaiting their apply barrier (`touched_cur` — the
        // recipients of the paper's `OutNI`). An iteration whose frontier
        // is empty but whose accumulator is pre-seeded loads no edges at
        // all: it is the fully-served case where SCIU saved the entire
        // iteration's edge I/O.
        while iter <= self.limit && !(self.st.frontier.is_empty() && self.st.touched_cur.is_empty())
        {
            let model = self.choose_model(iter);
            if model == IoAccessModel::OnDemand && self.config.enable_selective {
                self.sciu(iter)?;
                iter += 1;
            } else {
                let two_pass = self.config.enable_cross_iter && iter < self.limit;
                iter += self.fciu(iter, two_pass)?;
            }
            // Checkpoint only at driver-loop boundaries: here the rotated
            // state (values_prev, accum_cur, touched_cur, frontier) is a
            // legal re-entry point. Mid-FCIU-pair state is NOT — resuming
            // there would double-count the pre-scattered accumulator.
            if let Some(driver) = ckpt.as_mut() {
                let committed = iter - 1;
                if driver.due(committed) {
                    self.write_checkpoint(driver, committed, base_io, &run_snap, &verify_snap)?;
                }
            }
        }

        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::RunEnd {
                engine: "graphsd",
                iterations: self.stats.iterations,
            });
        }
        let mut delta = storage.stats().snapshot().since(&run_snap);
        if let Some(driver) = &ckpt {
            // Checkpoint commits are protection overhead, not run I/O.
            delta = delta.since(&driver.store.io());
        }
        self.stats.io = base_io.plus(&delta);
        let vd = self.grid.verify_counters().since(&verify_snap);
        self.stats.fold_verify(&vd);
        self.stats.scheduler_time = self.scheduler.overhead;
        self.stats.cross_iter_edges = self.cross_iter_edges;
        self.stats.buffer_hits = self.buffer.hits;
        self.stats.buffer_hit_bytes = self.buffer.hit_bytes;
        Ok((
            RunResult {
                values: self.st.values_prev,
                stats: self.stats,
            },
            self.scheduler.decisions,
        ))
    }

    /// Rebuilds the runner's complete state from a checkpoint taken at a
    /// driver-loop boundary, as if the preceding iterations had just run:
    /// committed values, the pre-seeded next-iteration accumulator and its
    /// recipients, the frontier, cumulative statistics, the scheduler's
    /// decision log, and the sub-block buffer (payloads re-read from the
    /// grid). Called before `run_snap` is taken, so none of the reads here
    /// count toward the run's I/O.
    fn restore(&mut self, data: &CheckpointData) -> std::io::Result<()> {
        let st = &mut self.st;
        data.restore(
            &mut st.values_prev,
            &mut st.accum_cur,
            &mut st.frontier,
            &mut st.touched_cur,
        );
        self.stats = data.stats.clone();
        self.cross_iter_edges = data.stats.cross_iter_edges;
        let extra: CkptExtra = serde_json::from_slice(&data.extra).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt engine checkpoint payload: {e}"),
            )
        })?;
        self.scheduler.decisions = extra.decisions;
        self.scheduler.overhead = Duration::from_nanos(extra.overhead_nanos);
        self.buffer.hits = data.stats.buffer_hits;
        self.buffer.hit_bytes = data.stats.buffer_hit_bytes;
        self.buffer.evictions = extra.buffer_evictions;
        for r in &extra.residents {
            let mut edges = Vec::new();
            self.grid
                .read_block_into(r.i, r.j, &mut self.scratch, &mut edges)?;
            self.buffer
                .offer(r.i, r.j, Arc::new(edges), r.bytes, r.priority);
        }
        Ok(())
    }

    /// Commits a checkpoint of the current boundary state through
    /// `driver` (which may then simulate a crash). The stored `stats.io`
    /// is what an uninterrupted run would report at this boundary: the
    /// restored base plus this run's delta, minus the store's own commit
    /// traffic.
    fn write_checkpoint(
        &mut self,
        driver: &mut CheckpointDriver,
        committed: u32,
        base_io: IoStatsSnapshot,
        run_snap: &IoStatsSnapshot,
        verify_snap: &gsd_graph::VerifyCounters,
    ) -> std::io::Result<()> {
        let mut stats = self.stats.clone();
        // Fold in the aggregates normally computed at run end, so the
        // restored stats are self-consistent at this boundary.
        stats.scheduler_time = self.scheduler.overhead;
        stats.cross_iter_edges = self.cross_iter_edges;
        stats.buffer_hits = self.buffer.hits;
        stats.buffer_hit_bytes = self.buffer.hit_bytes;
        let vd = self.grid.verify_counters().since(verify_snap);
        stats.fold_verify(&vd);
        let delta = self.grid.storage().stats().snapshot().since(run_snap);
        stats.io = base_io.plus(&delta.since(&driver.store.io()));
        let extra = CkptExtra {
            decisions: self.scheduler.decisions.clone(),
            overhead_nanos: self.scheduler.overhead.as_nanos() as u64,
            buffer_evictions: self.buffer.evictions,
            residents: self
                .buffer
                .residents()
                .into_iter()
                .map(|(i, j, bytes, priority)| ResidentBlock {
                    i,
                    j,
                    bytes,
                    priority,
                })
                .collect(),
        };
        let data = CheckpointData::capture(
            committed,
            &self.st.values_prev,
            &self.st.accum_cur,
            &self.st.frontier,
            &self.st.touched_cur,
            stats,
            serde_json::to_vec(&extra).map_err(std::io::Error::other)?,
        );
        driver.commit(&data)
    }

    fn choose_model(&mut self, iteration: u32) -> IoAccessModel {
        if let Some(forced) = self.config.force_model {
            return forced;
        }
        if !self.config.enable_selective {
            return IoAccessModel::Full;
        }
        self.scheduler
            .select(iteration, &self.st.frontier, &self.degrees)
    }

    fn begin_iter(&self, iteration: u32) -> IterTracker {
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::IterationStart { iteration });
        }
        IterTracker {
            io_snap: self.grid.storage().stats().snapshot(),
            io_wall: Duration::ZERO,
            compute: Duration::ZERO,
            scatter: Duration::ZERO,
            apply: Duration::ZERO,
            stall: Duration::ZERO,
            prefetch_hits: 0,
            prefetch_misses: 0,
        }
    }

    fn finish_iter(
        &mut self,
        tracker: IterTracker,
        iteration: u32,
        model: IoAccessModel,
        frontier: u64,
        cross_iteration: bool,
    ) {
        let io = self
            .grid
            .storage()
            .stats()
            .snapshot()
            .since(&tracker.io_snap);
        let io_time = if io.sim_nanos > 0 {
            Duration::from_nanos(io.sim_nanos)
        } else {
            tracker.io_wall
        };
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::IterationEnd {
                iteration,
                model: crate::trace_model(model),
                frontier,
                bytes_read: io.read_bytes(),
                scatter_us: tracker.scatter.as_micros() as u64,
                apply_us: tracker.apply.as_micros() as u64,
                io_wait_us: tracker.io_wall.as_micros() as u64,
            });
        }
        self.stats.prefetch_hits += tracker.prefetch_hits;
        self.stats.prefetch_misses += tracker.prefetch_misses;
        self.stats.push_iteration(IterationStats {
            iteration,
            model,
            frontier,
            io,
            io_time,
            compute_time: tracker.compute,
            scatter_time: tracker.scatter,
            apply_time: tracker.apply,
            io_wait_time: tracker.io_wall,
            prefetch_stall_time: tracker.stall,
            cross_iteration,
        });
    }

    /// Consumes the next scheduled request from the prefetch pipeline,
    /// folding its wait into the iteration's I/O wall time and its
    /// hit/stall outcome into the tracker. Only called while a schedule
    /// is active (the plan queue is non-empty).
    fn take_prefetched(&mut self, tracker: &mut IterTracker) -> std::io::Result<Prefetched> {
        let Some(exec) = self.pipeline.as_mut() else {
            // Unreachable by construction (plans are only built when the
            // pipeline exists); surfaced as an error, not a panic.
            return Err(std::io::Error::other(
                "prefetch consume without an executor",
            ));
        };
        let taken = timed(&mut tracker.io_wall, || exec.take())?;
        if taken.outcome.is_hit() {
            tracker.prefetch_hits += 1;
        } else {
            tracker.prefetch_misses += 1;
        }
        tracker.stall += taken.outcome.stall();
        Ok(taken)
    }

    fn load_block(
        &mut self,
        i: u32,
        j: u32,
        io_wall: &mut Duration,
    ) -> std::io::Result<Arc<Vec<Edge>>> {
        let mut edges = Vec::new();
        timed(io_wall, || {
            self.grid
                .read_block_into(i, j, &mut self.scratch, &mut edges)
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::BlockLoad {
                i,
                j,
                bytes: self.grid.meta().block_bytes(i, j),
                seq: true,
            });
        }
        Ok(Arc::new(edges))
    }

    /// Selective cross-iteration update — Algorithm 2. One BSP iteration
    /// under the on-demand I/O model: load only active vertices' edge
    /// lists (coalescing contiguous runs into single requests), update
    /// their destinations, then pre-scatter next-iteration messages for
    /// re-activated vertices whose edges are already in memory.
    fn sciu(&mut self, iter: u32) -> std::io::Result<()> {
        let storage = self.grid.storage().clone();
        let frontier_size = self.st.frontier.count();
        let mut tracker = self.begin_iter(iter);

        // Stream the vertex value array in.
        timed(&mut tracker.io_wall, || {
            self.vfile.read_all(storage.as_ref())
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: self.value_file_bytes,
                write: false,
            });
        }

        timed(&mut tracker.compute, || {
            self.st.values_cur.copy_from_slice(&self.st.values_prev)
        });

        // On-demand load of active edge lists (kept in memory for the
        // cross-iteration phase — the defining trick of SCIU). The index
        // spans are resolved synchronously first — a run cannot be known
        // before its index arrives — producing the full coalesced run
        // list in the order the synchronous path reads it; the runs then
        // stream either through the prefetch pipeline or directly.
        let mut runs: Vec<PrefetchRequest> = Vec::new();
        for i in 0..self.p {
            let range = self.grid.intervals().range(i);
            let active: Vec<u32> = self.st.frontier.iter_range(range).collect();
            if active.is_empty() {
                continue;
            }
            let clusters = gsd_graph::cluster_vertex_spans(&active, self.index_gap);
            for span in &clusters {
                let cluster = &active[span.clone()];
                let (Some(&first), Some(&last)) = (cluster.first(), cluster.last()) else {
                    continue; // clusters over a non-empty active set are non-empty
                };
                // ONE index request per active cluster resolves the
                // cluster's edge ranges in every sub-block of the row.
                let index = timed(&mut tracker.io_wall, || {
                    self.grid.read_row_index_span(i, first, last)
                })?;

                for j in 0..self.p {
                    if self.grid.meta().block_edge_count(i, j) == 0 {
                        continue;
                    }
                    // Coalesce adjacent edge ranges of active vertices into
                    // single requests (the S_seq/S_ran structure the
                    // scheduler priced).
                    let mut run_start = 0u32;
                    let mut run_len = 0u32;
                    for &v in cluster {
                        let r = index.edge_range(v, j);
                        let len = r.end - r.start;
                        if len == 0 {
                            continue;
                        }
                        if run_len > 0 && r.start == run_start + run_len {
                            run_len += len;
                        } else {
                            if run_len > 0 {
                                runs.push(PrefetchRequest::Run {
                                    i,
                                    j,
                                    edge_start: run_start,
                                    edge_count: run_len,
                                });
                            }
                            run_start = r.start;
                            run_len = len;
                        }
                    }
                    if run_len > 0 {
                        runs.push(PrefetchRequest::Run {
                            i,
                            j,
                            edge_start: run_start,
                            edge_count: run_len,
                        });
                    }
                }
            }
        }
        let mut loaded: Vec<Edge> = Vec::new();
        if self.pipeline.is_some() {
            if let Some(exec) = self.pipeline.as_mut() {
                exec.begin_schedule(runs.clone());
            }
            for request in &runs {
                let taken = self.take_prefetched(&mut tracker)?;
                loaded.extend_from_slice(&taken.edges);
                if self.trace.enabled() {
                    let (i, j) = request.coords();
                    self.trace.emit(&TraceEvent::BlockLoad {
                        i,
                        j,
                        bytes: taken.bytes,
                        seq: false,
                    });
                }
            }
        } else {
            for request in &runs {
                let &PrefetchRequest::Run {
                    i,
                    j,
                    edge_start,
                    edge_count,
                } = request
                else {
                    continue; // SCIU schedules runs only
                };
                timed(&mut tracker.io_wall, || {
                    self.grid.read_edge_run(
                        i,
                        j,
                        edge_start,
                        edge_count,
                        &mut self.scratch,
                        &mut loaded,
                    )
                })?;
                if self.trace.enabled() {
                    self.trace.emit(&TraceEvent::BlockLoad {
                        i,
                        j,
                        bytes: edge_count as u64 * self.per_edge_bytes,
                        seq: false,
                    });
                }
            }
        }

        // UserFunction over the loaded active edges (sources are active by
        // construction, no filter needed).
        let mut out = timed(&mut tracker.compute, || {
            scatter_edges_timed(
                self.program,
                &self.ctx,
                &loaded,
                None,
                &self.st.values_prev,
                &mut self.st.accum_cur,
                &mut self.st.touched_cur,
                &mut tracker.scatter,
            );
            // Apply at the barrier.
            let mut out = Frontier::empty(self.n);
            apply_range_timed(
                self.program,
                &self.ctx,
                0..self.n,
                self.program.apply_all(),
                &self.st.touched_cur,
                &mut self.st.accum_cur,
                &mut self.st.values_cur,
                &mut out,
                &mut tracker.apply,
            );
            out
        });

        // Cross-iteration phase (Algorithm 2, lines 15–23): re-activated
        // vertices have all their out-edges in `loaded`; scatter their new
        // values into the next iteration's accumulator and drop them from
        // the next frontier.
        if self.config.enable_cross_iter && iter < self.limit {
            let served_edges = timed(&mut tracker.compute, || {
                let served_edges = scatter_edges_timed(
                    self.program,
                    &self.ctx,
                    &loaded,
                    Some(&out),
                    &self.st.values_cur,
                    &mut self.st.accum_next,
                    &mut self.st.touched_next,
                    &mut tracker.scatter,
                );
                // Remove every re-activated vertex (out ∩ V_active) — its
                // next-iteration scatter has been fully performed.
                let served: Vec<u32> = out
                    .iter()
                    .filter(|&v| self.st.frontier.contains(v))
                    .collect();
                for v in served {
                    out.remove(v);
                }
                served_edges
            });
            self.cross_iter_edges += served_edges;
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::SciuPass {
                    iteration: iter,
                    edges_served: served_edges,
                });
            }
        } else if self.trace.enabled() {
            self.trace.emit(&TraceEvent::SciuPass {
                iteration: iter,
                edges_served: 0,
            });
        }

        // Stream the vertex value array back out.
        timed(&mut tracker.io_wall, || {
            self.vfile.write_all(storage.as_ref())
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: self.value_file_bytes,
                write: true,
            });
        }

        self.st.rotate(out);
        self.finish_iter(tracker, iter, IoAccessModel::OnDemand, frontier_size, false);
        Ok(())
    }

    /// Full cross-iteration update — Algorithm 3. With `two_pass`, one
    /// full destination-major sweep commits iteration `iter` while
    /// pre-scattering iteration `iter + 1` along every sub-block `(i, j)`
    /// with `i ≤ j`; the second pass then reads only the lower-triangle
    /// "secondary" sub-blocks. Without `two_pass` (cross-iteration
    /// disabled, or the last iteration), it is a plain full-streaming
    /// iteration. Returns the number of iterations consumed.
    fn fciu(&mut self, iter: u32, two_pass: bool) -> std::io::Result<u32> {
        let storage = self.grid.storage().clone();

        // ---------------- pass 1: iteration `iter` ----------------
        let frontier_size = self.st.frontier.count();
        let mut tracker = self.begin_iter(iter);

        timed(&mut tracker.io_wall, || {
            self.vfile.read_all(storage.as_ref())
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: self.value_file_bytes,
                write: false,
            });
        }

        timed(&mut tracker.compute, || {
            self.st.values_cur.copy_from_slice(&self.st.values_prev)
        });

        // Prefetch plan for the pass: every sub-block that will stream
        // from storage, in visit order. Buffer residents are skipped —
        // offers may still evict them mid-pass, so consumption matches
        // against the schedule front and an evicted resident (never
        // scheduled) falls back to a synchronous load.
        let mut plan: VecDeque<(u32, u32)> = VecDeque::new();
        if self.pipeline.is_some() {
            let mut schedule = Vec::new();
            for j in 0..self.p {
                for i in 0..self.p {
                    if self.grid.meta().block_edge_count(i, j) == 0 {
                        continue;
                    }
                    if i > j && self.config.enable_buffering && self.buffer.contains(i, j) {
                        continue;
                    }
                    schedule.push(PrefetchRequest::Block { i, j });
                    plan.push_back((i, j));
                }
            }
            if let Some(exec) = self.pipeline.as_mut() {
                exec.begin_schedule(schedule);
            }
        }

        let mut out = Frontier::empty(self.n);
        let mut pass_edges_served = 0u64;
        for j in 0..self.p {
            let mut diag_edges: Option<Arc<Vec<Edge>>> = None;
            for i in 0..self.p {
                if self.grid.meta().block_edge_count(i, j) == 0 {
                    continue;
                }
                // Scheduled blocks come from the pipeline; secondary
                // sub-blocks may be resident from a previous round's
                // buffering; everything else streams from storage.
                let edges = if plan.front() == Some(&(i, j)) {
                    plan.pop_front();
                    let taken = self.take_prefetched(&mut tracker)?;
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::BlockLoad {
                            i,
                            j,
                            bytes: taken.bytes,
                            seq: true,
                        });
                    }
                    Arc::new(taken.edges)
                } else {
                    match (i > j && self.config.enable_buffering)
                        .then(|| self.buffer.get(i, j))
                        .flatten()
                    {
                        Some(e) => e,
                        None => self.load_block(i, j, &mut tracker.io_wall)?,
                    }
                };

                timed(&mut tracker.compute, || {
                    let delivered = scatter_edges_timed(
                        self.program,
                        &self.ctx,
                        &edges,
                        Some(&self.st.frontier),
                        &self.st.values_prev,
                        &mut self.st.accum_cur,
                        &mut self.st.touched_cur,
                        &mut tracker.scatter,
                    );
                    if two_pass {
                        if i < j {
                            // Interval i is fully applied (its column came
                            // earlier), so cross-iteration propagation is
                            // legal.
                            let served = scatter_edges_timed(
                                self.program,
                                &self.ctx,
                                &edges,
                                Some(&out),
                                &self.st.values_cur,
                                &mut self.st.accum_next,
                                &mut self.st.touched_next,
                                &mut tracker.scatter,
                            );
                            self.cross_iter_edges += served;
                            pass_edges_served += served;
                        } else if i == j {
                            // Held in memory until interval j is applied.
                            diag_edges = Some(edges.clone());
                        } else if self.config.enable_buffering {
                            // Secondary sub-block: candidate for the buffer,
                            // priority = active edges seen this pass.
                            let bytes = self.grid.meta().block_bytes(i, j);
                            self.buffer.offer(i, j, edges.clone(), bytes, delivered);
                        }
                    }
                });
            }
            // Apply interval j at its barrier.
            timed(&mut tracker.compute, || {
                apply_range_timed(
                    self.program,
                    &self.ctx,
                    self.grid.intervals().range(j),
                    self.program.apply_all(),
                    &self.st.touched_cur,
                    &mut self.st.accum_cur,
                    &mut self.st.values_cur,
                    &mut out,
                    &mut tracker.apply,
                );
                // Diagonal cross-iteration after interval j's values are
                // final.
                if let Some(diag) = diag_edges {
                    let served = scatter_edges_timed(
                        self.program,
                        &self.ctx,
                        &diag,
                        Some(&out),
                        &self.st.values_cur,
                        &mut self.st.accum_next,
                        &mut self.st.touched_next,
                        &mut tracker.scatter,
                    );
                    self.cross_iter_edges += served;
                    pass_edges_served += served;
                }
            });
        }
        if two_pass && self.trace.enabled() {
            self.trace.emit(&TraceEvent::FciuPass {
                iteration: iter,
                edges_served: pass_edges_served,
            });
        }

        timed(&mut tracker.io_wall, || {
            self.vfile.write_all(storage.as_ref())
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: self.value_file_bytes,
                write: true,
            });
        }

        self.st.rotate(out);
        self.finish_iter(tracker, iter, IoAccessModel::Full, frontier_size, false);

        if !two_pass || self.st.frontier.is_empty() {
            // Converged at `iter` (or single-pass mode): any pre-scattered
            // next-iteration state is vacuous because it can only originate
            // from `out` members.
            return Ok(1);
        }

        // ------------- pass 2: iteration `iter + 1` -------------
        // Only the secondary sub-blocks (i > j) are read; contributions
        // along i ≤ j edges were pre-scattered and live in `accum_cur`
        // after the rotation.
        let frontier_size2 = self.st.frontier.count();
        let mut tracker = self.begin_iter(iter + 1);

        timed(&mut tracker.io_wall, || {
            self.vfile.read_all(storage.as_ref())
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: self.value_file_bytes,
                write: false,
            });
        }

        timed(&mut tracker.compute, || {
            self.st.values_cur.copy_from_slice(&self.st.values_prev)
        });

        // The second pass streams only the secondary sub-blocks that are
        // not buffer-resident; no offers happen here, so residency is
        // stable, but the fallback is kept for uniformity.
        let mut plan: VecDeque<(u32, u32)> = VecDeque::new();
        if self.pipeline.is_some() {
            let mut schedule = Vec::new();
            for j in 0..self.p {
                for i in (j + 1)..self.p {
                    if self.grid.meta().block_edge_count(i, j) == 0 {
                        continue;
                    }
                    if self.config.enable_buffering && self.buffer.contains(i, j) {
                        continue;
                    }
                    schedule.push(PrefetchRequest::Block { i, j });
                    plan.push_back((i, j));
                }
            }
            if let Some(exec) = self.pipeline.as_mut() {
                exec.begin_schedule(schedule);
            }
        }

        let mut out = Frontier::empty(self.n);
        for j in 0..self.p {
            for i in (j + 1)..self.p {
                if self.grid.meta().block_edge_count(i, j) == 0 {
                    continue;
                }
                let edges = if plan.front() == Some(&(i, j)) {
                    plan.pop_front();
                    let taken = self.take_prefetched(&mut tracker)?;
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::BlockLoad {
                            i,
                            j,
                            bytes: taken.bytes,
                            seq: true,
                        });
                    }
                    Arc::new(taken.edges)
                } else {
                    match self
                        .config
                        .enable_buffering
                        .then(|| self.buffer.get(i, j))
                        .flatten()
                    {
                        Some(e) => e,
                        None => self.load_block(i, j, &mut tracker.io_wall)?,
                    }
                };
                timed(&mut tracker.compute, || {
                    scatter_edges_timed(
                        self.program,
                        &self.ctx,
                        &edges,
                        Some(&self.st.frontier),
                        &self.st.values_prev,
                        &mut self.st.accum_cur,
                        &mut self.st.touched_cur,
                        &mut tracker.scatter,
                    )
                });
            }
            timed(&mut tracker.compute, || {
                apply_range_timed(
                    self.program,
                    &self.ctx,
                    self.grid.intervals().range(j),
                    self.program.apply_all(),
                    &self.st.touched_cur,
                    &mut self.st.accum_cur,
                    &mut self.st.values_cur,
                    &mut out,
                    &mut tracker.apply,
                )
            });
        }

        timed(&mut tracker.io_wall, || {
            self.vfile.write_all(storage.as_ref())
        })?;
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: self.value_file_bytes,
                write: true,
            });
        }

        self.st.rotate(out);
        self.finish_iter(tracker, iter + 1, IoAccessModel::Full, frontier_size2, true);
        Ok(2)
    }
}
