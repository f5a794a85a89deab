//! The state-aware I/O scheduling strategy (§4.1).
//!
//! Before each iteration the scheduler estimates, from the active vertex
//! set `A` and the degree table, the byte volume of active edge lists that
//! would be read sequentially (`S_seq`: coalesced runs of contiguous vertex
//! ids, and single high-degree vertices, whose edge ranges stream) versus
//! randomly (`S_ran`), in a single `O(|A|)` pass. It then compares the
//! paper's cost formulas — `C_r` (on-demand) against `C_s` (full) — and
//! picks the cheaper access model. The evaluation time is accounted
//! separately (`overhead`) because Figure 11 reports it against the I/O
//! time the decisions save.
//!
//! On a mutated grid (format v4, live delta segments) every input the
//! model consumes is already the **merged** shape: `GridGraph` patches
//! `num_edges`, the per-block edge counts, and the out-degree table at
//! open, so `S_seq`/`S_ran` and the `C_r`/`C_s` comparison price the
//! graph the engines will actually read — the scheduler needs no
//! delta-awareness of its own.

use gsd_io::{DiskModel, IoCostModel, OnDemandCostInputs};
use gsd_runtime::{Frontier, IoAccessModel};
use gsd_trace::Stopwatch;
use gsd_trace::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// One scheduling decision (per iteration), kept for the Figure 10/11
/// experiments and for debugging.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SchedulerDecision {
    /// Iteration the decision was made for.
    pub iteration: u32,
    /// Active vertex count `|A|`.
    pub frontier: u64,
    /// Bytes of active edge lists classified sequential.
    pub s_seq: u64,
    /// Bytes of active edge lists classified random.
    pub s_ran: u64,
    /// Estimated cost of the full model, seconds (`C_s`).
    pub cost_full: f64,
    /// Estimated cost of the on-demand model, seconds (`C_r`).
    pub cost_on_demand: f64,
    /// The chosen model.
    pub model: IoAccessModel,
}

/// The scheduler: owns the cost model and the decision log.
pub struct Scheduler {
    cost: IoCostModel,
    per_edge_bytes: u64,
    seq_run_threshold: u64,
    trace: Arc<dyn TraceSink>,
    /// Cumulative benefit-evaluation time (Figure 11's overhead).
    pub overhead: Duration,
    /// All decisions taken this run.
    pub decisions: Vec<SchedulerDecision>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("cost", &self.cost)
            .field("per_edge_bytes", &self.per_edge_bytes)
            .field("seq_run_threshold", &self.seq_run_threshold)
            .field("overhead", &self.overhead)
            .field("decisions", &self.decisions.len())
            .finish()
    }
}

impl Scheduler {
    /// Builds a scheduler for a graph with `vertex_value_bytes` (`|V|·N`)
    /// of vertex data and `total_edge_bytes` (`|E|·(M+W)`) of edge data,
    /// `per_edge_bytes` per edge, on a disk described by `disk`.
    pub fn new(
        disk: DiskModel,
        vertex_value_bytes: u64,
        total_edge_bytes: u64,
        per_edge_bytes: u64,
        seq_run_threshold: u64,
    ) -> Self {
        Scheduler {
            cost: IoCostModel::new(disk, vertex_value_bytes, total_edge_bytes),
            per_edge_bytes,
            seq_run_threshold,
            trace: gsd_trace::null_sink(),
            overhead: Duration::ZERO,
            decisions: Vec::new(),
        }
    }

    /// Routes [`TraceEvent::SchedulerDecision`] events to `trace`.
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Splits the active edge volume into sequential and random bytes in
    /// one pass over the (sorted) frontier: runs of consecutive vertex ids
    /// accumulate; a run of at least `seq_run_threshold` bytes — including
    /// a single high-degree vertex — streams, anything smaller seeks.
    pub fn seq_ran_split(&self, frontier: &Frontier, degrees: &[u32]) -> OnDemandCostInputs {
        let mut inputs = OnDemandCostInputs::default();
        let mut run_bytes = 0u64;
        let mut prev: Option<u32> = None;
        let flush = |run: u64, inputs: &mut OnDemandCostInputs| {
            if run == 0 {
                return;
            }
            if run >= self.seq_run_threshold {
                inputs.seq_edge_bytes += run;
            } else {
                inputs.rand_edge_bytes += run;
            }
        };
        for v in frontier.iter() {
            let bytes = degrees[v as usize] as u64 * self.per_edge_bytes;
            match prev {
                Some(p) if p + 1 == v => run_bytes += bytes,
                _ => {
                    flush(run_bytes, &mut inputs);
                    run_bytes = bytes;
                }
            }
            prev = Some(v);
        }
        flush(run_bytes, &mut inputs);
        inputs
    }

    /// The benefit evaluation: chooses the I/O access model for
    /// `iteration`, logging the decision and accounting the evaluation
    /// time as overhead.
    pub fn select(
        &mut self,
        iteration: u32,
        frontier: &Frontier,
        degrees: &[u32],
    ) -> IoAccessModel {
        let started = Stopwatch::start();
        let inputs = self.seq_ran_split(frontier, degrees);
        let cost_full = self.cost.full_cost().total();
        let cost_on_demand = self.cost.on_demand_cost(inputs).total();
        let model = if cost_on_demand <= cost_full {
            IoAccessModel::OnDemand
        } else {
            IoAccessModel::Full
        };
        self.overhead += started.elapsed();
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::SchedulerDecision {
                iteration,
                s_seq: inputs.seq_edge_bytes,
                s_ran: inputs.rand_edge_bytes,
                cost_full,
                cost_on_demand,
                chosen: crate::trace_model(model),
            });
        }
        self.decisions.push(SchedulerDecision {
            iteration,
            frontier: frontier.count(),
            s_seq: inputs.seq_edge_bytes,
            s_ran: inputs.rand_edge_bytes,
            cost_full,
            cost_on_demand,
            model,
        });
        model
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &IoCostModel {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> Scheduler {
        // 1M vertices x 4B, 80MB edges, 8B/edge, 256KB run threshold.
        Scheduler::new(DiskModel::hdd(), 4_000_000, 80_000_000, 8, 256 << 10)
    }

    #[test]
    fn split_classifies_contiguous_runs_as_sequential() {
        let s = scheduler();
        // 100k contiguous vertices of degree 50: one 40MB run.
        let n = 1_000_000u32;
        let degrees = vec![50u32; n as usize];
        let mut frontier = Frontier::empty(n);
        for v in 0..100_000 {
            frontier.insert(v);
        }
        let inputs = s.seq_ran_split(&frontier, &degrees);
        assert_eq!(inputs.seq_edge_bytes, 100_000 * 50 * 8);
        assert_eq!(inputs.rand_edge_bytes, 0);
    }

    #[test]
    fn split_classifies_scattered_vertices_as_random() {
        let s = scheduler();
        let n = 1_000_000u32;
        let degrees = vec![50u32; n as usize];
        let mut frontier = Frontier::empty(n);
        for k in 0..1000 {
            frontier.insert(k * 997); // scattered
        }
        let inputs = s.seq_ran_split(&frontier, &degrees);
        assert_eq!(inputs.rand_edge_bytes, 1000 * 50 * 8);
        assert_eq!(inputs.seq_edge_bytes, 0);
    }

    #[test]
    fn single_hub_counts_as_sequential() {
        let s = scheduler();
        let n = 1_000u32;
        let mut degrees = vec![1u32; n as usize];
        degrees[7] = 100_000; // 800 KB of edges: one streaming read
        let frontier = Frontier::from_seeds(n, &[7]);
        let inputs = s.seq_ran_split(&frontier, &degrees);
        assert_eq!(inputs.seq_edge_bytes, 800_000);
        assert_eq!(inputs.rand_edge_bytes, 0);
    }

    #[test]
    fn small_frontier_selects_on_demand_large_selects_full() {
        let mut s = scheduler();
        let n = 1_000_000u32;
        let degrees = vec![10u32; n as usize];
        let small = Frontier::from_seeds(n, &[1, 5000, 100_000]);
        assert_eq!(s.select(1, &small, &degrees), IoAccessModel::OnDemand);

        let mut big = Frontier::empty(n);
        for k in 0..300_000 {
            big.insert(((k * 7) % n as u64) as u32); // scattered, 300k actives
        }
        assert_eq!(s.select(2, &big, &degrees), IoAccessModel::Full);
        assert_eq!(s.decisions.len(), 2);
        assert!(s.decisions[0].cost_on_demand <= s.decisions[0].cost_full);
        assert!(s.decisions[1].cost_on_demand > s.decisions[1].cost_full);
    }

    #[test]
    fn overhead_accumulates() {
        let mut s = scheduler();
        let n = 10_000u32;
        let degrees = vec![5u32; n as usize];
        let f = Frontier::full(n);
        for it in 0..5 {
            s.select(it, &f, &degrees);
        }
        assert!(s.overhead > Duration::ZERO);
        assert_eq!(s.decisions.len(), 5);
    }

    #[test]
    fn empty_frontier_costs_nothing_on_demand() {
        let mut s = scheduler();
        let degrees = vec![5u32; 100];
        let f = Frontier::empty(100);
        assert_eq!(s.select(1, &f, &degrees), IoAccessModel::OnDemand);
        let d = s.decisions[0];
        assert_eq!(d.s_seq + d.s_ran, 0);
    }
}
