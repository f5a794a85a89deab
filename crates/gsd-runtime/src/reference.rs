//! In-memory, strictly sequential BSP executor — the correctness oracle.
//!
//! This engine defines the *canonical semantics* of a [`VertexProgram`]:
//! every out-of-core engine (GraphSD with SCIU/FCIU, every ablation, and
//! both baselines) must commit the same per-iteration values this executor
//! commits (bit-exact for discrete accumulators, within float tolerance for
//! sum accumulators, whose parallel reduction order differs). The
//! `run_traced` variant exposes the per-iteration snapshots those
//! equivalence tests compare.

use crate::context::ProgramContext;
use crate::engine::{Capabilities, Engine, RunOptions, RunResult};
use crate::frontier::Frontier;
use crate::program::{InitialFrontier, VertexProgram};
use crate::stats::RunStats;
use gsd_graph::{Csr, Graph};
use gsd_trace::Stopwatch;
use std::sync::Arc;

/// Sequential in-memory BSP executor over a [`Graph`].
pub struct ReferenceEngine {
    csr: Csr,
    ctx: ProgramContext,
}

impl ReferenceEngine {
    /// Builds the oracle for `graph`.
    pub fn new(graph: &Graph) -> Self {
        let csr = Csr::from_graph(graph);
        let ctx = ProgramContext::new(graph.num_vertices(), Arc::new(graph.out_degrees()));
        ReferenceEngine { csr, ctx }
    }

    /// The program context (shared graph facts).
    pub fn context(&self) -> &ProgramContext {
        &self.ctx
    }

    /// Runs `program` and additionally returns the committed values after
    /// every iteration (`snapshots[t - 1]` is the state after iteration
    /// `t`).
    pub fn run_traced<P: VertexProgram>(
        &self,
        program: &P,
        options: &RunOptions,
    ) -> (RunResult<P::Value>, Vec<Vec<P::Value>>) {
        let n = self.ctx.num_vertices;
        let limit = options.limit_for(program);
        let started = Stopwatch::start();

        let mut values: Vec<P::Value> = (0..n).map(|v| program.init_value(v, &self.ctx)).collect();
        let zero = program.zero_accum();
        let mut accum: Vec<P::Accum> = vec![zero; n as usize];
        let mut touched = Frontier::empty(n);
        let mut frontier = match program.initial_frontier(&self.ctx) {
            InitialFrontier::All => Frontier::full(n),
            InitialFrontier::Seeds(seeds) => Frontier::from_seeds(n, &seeds),
        };
        let apply_all = program.apply_all();

        let mut stats = RunStats::new(self.name(), program.name());
        let mut snapshots = Vec::new();

        for iter in 1..=limit {
            if frontier.is_empty() {
                break;
            }
            let frontier_size = frontier.count();
            let iter_started = Stopwatch::start();
            // Scatter from the frontier along out-edges.
            for u in frontier.iter() {
                let uv = values[u as usize];
                for (dst, w) in self.csr.neighbors_weighted(u) {
                    if let Some(msg) = program.scatter(u, uv, w, &self.ctx) {
                        accum[dst as usize] = program.combine(accum[dst as usize], msg);
                        touched.insert(dst);
                    }
                }
            }
            // Apply at the barrier.
            let mut next = Frontier::empty(n);
            for v in 0..n {
                if apply_all || touched.contains(v) {
                    let a = std::mem::replace(&mut accum[v as usize], zero);
                    if let Some(new) = program.apply(v, values[v as usize], a, &self.ctx) {
                        values[v as usize] = new;
                        next.insert(v);
                    }
                } else {
                    accum[v as usize] = zero;
                }
            }
            touched.clear();
            frontier = next;
            stats.push_iteration(crate::stats::IterationStats {
                iteration: iter,
                model: crate::stats::IoAccessModel::Full,
                frontier: frontier_size,
                io: Default::default(),
                io_time: std::time::Duration::ZERO,
                compute_time: iter_started.elapsed(),
                scatter_time: std::time::Duration::ZERO,
                apply_time: std::time::Duration::ZERO,
                io_wait_time: std::time::Duration::ZERO,
                prefetch_stall_time: std::time::Duration::ZERO,
                cross_iteration: false,
            });
            snapshots.push(values.clone());
        }

        stats.compute_time = started.elapsed();
        (RunResult { values, stats }, snapshots)
    }
}

impl Engine for ReferenceEngine {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true, // trivially: no disk at all
            avoids_inactive_data: true,
            future_value_computation: false,
        }
    }

    fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        options: &RunOptions,
    ) -> std::io::Result<RunResult<P::Value>> {
        Ok(self.run_traced(program, options).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::GraphBuilder;

    /// Min-label propagation (a tiny CC) defined inline to avoid a
    /// dependency cycle with gsd-algos.
    struct MinLabel;
    impl VertexProgram for MinLabel {
        type Value = u32;
        type Accum = u32;
        fn name(&self) -> &'static str {
            "min-label"
        }
        fn init_value(&self, v: u32, _: &ProgramContext) -> u32 {
            v
        }
        fn zero_accum(&self) -> u32 {
            u32::MAX
        }
        fn scatter(&self, _: u32, value: u32, _: f32, _: &ProgramContext) -> Option<u32> {
            Some(value)
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(&self, _: u32, old: u32, accum: u32, _: &ProgramContext) -> Option<u32> {
            (accum < old).then_some(accum)
        }
        fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
            InitialFrontier::All
        }
    }

    fn two_components() -> Graph {
        let mut b = GraphBuilder::new();
        // component {0,1,2} and {3,4}, both directions.
        for (u, v) in [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn min_label_converges_to_components() {
        let g = two_components();
        let mut engine = ReferenceEngine::new(&g);
        let result = engine.run_default(&MinLabel).unwrap();
        assert_eq!(result.values, vec![0, 0, 0, 3, 3]);
        assert!(result.stats.iterations >= 2);
    }

    #[test]
    fn traced_snapshots_match_final() {
        let g = two_components();
        let engine = ReferenceEngine::new(&g);
        let (result, snaps) = engine.run_traced(&MinLabel, &RunOptions::default());
        assert_eq!(snaps.len() as u32, result.stats.iterations);
        assert_eq!(snaps.last().unwrap(), &result.values);
        // First iteration: labels propagate one hop.
        assert_eq!(snaps[0], vec![0, 0, 1, 3, 3]);
    }

    #[test]
    fn max_iterations_cuts_off() {
        let g = two_components();
        let mut engine = ReferenceEngine::new(&g);
        let result = engine
            .run(
                &MinLabel,
                &RunOptions {
                    max_iterations: Some(1),
                    iteration_cap: None,
                },
            )
            .unwrap();
        assert_eq!(result.stats.iterations, 1);
        assert_eq!(result.values, vec![0, 0, 1, 3, 3]);
    }

    #[test]
    fn seeded_frontier_only_propagates_from_seeds() {
        struct Reach;
        impl VertexProgram for Reach {
            type Value = u32;
            type Accum = u32;
            fn name(&self) -> &'static str {
                "reach"
            }
            fn init_value(&self, v: u32, _: &ProgramContext) -> u32 {
                if v == 3 {
                    1
                } else {
                    0
                }
            }
            fn zero_accum(&self) -> u32 {
                0
            }
            fn scatter(&self, _: u32, value: u32, _: f32, _: &ProgramContext) -> Option<u32> {
                (value == 1).then_some(1)
            }
            fn combine(&self, a: u32, b: u32) -> u32 {
                a.max(b)
            }
            fn apply(&self, _: u32, old: u32, accum: u32, _: &ProgramContext) -> Option<u32> {
                (accum == 1 && old == 0).then_some(1)
            }
            fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
                InitialFrontier::Seeds(vec![3])
            }
        }
        let g = two_components();
        let mut engine = ReferenceEngine::new(&g);
        let result = engine.run_default(&Reach).unwrap();
        assert_eq!(result.values, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn empty_graph_runs_zero_iterations() {
        let g = GraphBuilder::new().build();
        let mut engine = ReferenceEngine::new(&g);
        let result = engine.run_default(&MinLabel).unwrap();
        assert_eq!(result.stats.iterations, 0);
        assert!(result.values.is_empty());
    }
}
