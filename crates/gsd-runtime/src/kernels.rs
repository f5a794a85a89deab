//! Scatter/apply kernels shared by every out-of-core engine.
//!
//! Both kernels are single-writer loops over plain state: `scatter_edges`
//! visits edges in slice order and `apply_range` visits vertices in
//! ascending id order, so float sums are bit-identical from run to run.

use crate::context::ProgramContext;
use crate::frontier::Frontier;
use crate::program::VertexProgram;
use gsd_graph::Edge;

/// Re-exported clock primitives: this module is the designated timing
/// module of the engine layer (`gsd-lint` GSD002) — engines route every
/// elapsed-time measurement through [`timed`], [`scatter_edges_timed`] or
/// [`apply_range_timed`] rather than reading `std::time::Instant` directly,
/// so a grep for raw clock access in engine code comes up empty.
pub use gsd_trace::clock::{timed, Stopwatch};

/// Scatters `edges` (the paper's `UserFunction` / `CrossIterUpdate` inner
/// loop): for every edge whose source passes `source_filter`, produce a
/// message from the source's value in `source_values` and combine it into
/// `accum[dst]`, marking `dst` in `touched`. Returns the number of
/// messages delivered.
pub fn scatter_edges<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    edges: &[Edge],
    source_filter: Option<&Frontier>,
    source_values: &[P::Value],
    accum: &mut [P::Accum],
    touched: &mut Frontier,
) -> u64 {
    let mut delivered = 0u64;
    for e in edges {
        if let Some(filter) = source_filter {
            if !filter.contains(e.src) {
                continue;
            }
        }
        let value = source_values[e.src as usize];
        if let Some(msg) = program.scatter(e.src, value, e.weight, ctx) {
            let a = &mut accum[e.dst as usize];
            *a = program.combine(*a, msg);
            touched.insert(e.dst);
            delivered += 1;
        }
    }
    delivered
}

/// [`scatter_edges`] with its wall time accumulated into `elapsed`.
/// Engines use this to populate `IterationStats::scatter_time`; nesting
/// the timer here (inside the engine's own compute timing) keeps
/// `scatter_time + apply_time <= compute_time` by construction.
#[allow(clippy::too_many_arguments)]
pub fn scatter_edges_timed<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    edges: &[Edge],
    source_filter: Option<&Frontier>,
    source_values: &[P::Value],
    accum: &mut [P::Accum],
    touched: &mut Frontier,
    elapsed: &mut std::time::Duration,
) -> u64 {
    timed(elapsed, || {
        scatter_edges(
            program,
            ctx,
            edges,
            source_filter,
            source_values,
            accum,
            touched,
        )
    })
}

/// Applies the accumulator to every vertex of `range` at a BSP barrier:
/// touched vertices (or all, for `apply_all` programs) fold their
/// accumulator into their committed value; changed vertices are inserted
/// into `out`. Accumulators of processed vertices are reset to the
/// program's zero. Returns the number of changed vertices.
#[allow(clippy::too_many_arguments)]
pub fn apply_range<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    range: std::ops::Range<u32>,
    apply_all: bool,
    touched: &Frontier,
    accum: &mut [P::Accum],
    values: &mut [P::Value],
    out: &mut Frontier,
) -> u64 {
    let zero = program.zero_accum();
    let mut changed = 0u64;
    for v in range {
        if !apply_all && !touched.contains(v) {
            continue;
        }
        let a = std::mem::replace(&mut accum[v as usize], zero);
        if let Some(new) = program.apply(v, values[v as usize], a, ctx) {
            values[v as usize] = new;
            out.insert(v);
            changed += 1;
        }
    }
    changed
}

/// [`apply_range`] with its wall time accumulated into `elapsed` (the
/// `IterationStats::apply_time` counterpart of [`scatter_edges_timed`]).
#[allow(clippy::too_many_arguments)]
pub fn apply_range_timed<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    range: std::ops::Range<u32>,
    apply_all: bool,
    touched: &Frontier,
    accum: &mut [P::Accum],
    values: &mut [P::Value],
    out: &mut Frontier,
    elapsed: &mut std::time::Duration,
) -> u64 {
    timed(elapsed, || {
        apply_range(program, ctx, range, apply_all, touched, accum, values, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::InitialFrontier;
    use std::sync::Arc;

    /// In-degree counting in one round.
    struct InDegree;
    impl VertexProgram for InDegree {
        type Value = u32;
        type Accum = u32;
        fn name(&self) -> &'static str {
            "in-degree"
        }
        fn init_value(&self, _: u32, _: &ProgramContext) -> u32 {
            0
        }
        fn zero_accum(&self) -> u32 {
            0
        }
        fn scatter(&self, _: u32, _: u32, _: f32, _: &ProgramContext) -> Option<u32> {
            Some(1)
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a + b
        }
        fn apply(&self, _: u32, old: u32, accum: u32, _: &ProgramContext) -> Option<u32> {
            (accum > 0).then_some(old + accum)
        }
        fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
            InitialFrontier::All
        }
    }

    fn ctx(n: u32) -> ProgramContext {
        ProgramContext::new(n, Arc::new(vec![0; n as usize]))
    }

    fn star_edges(n: u32) -> Vec<Edge> {
        (1..n).map(|v| Edge::new(v, 0)).collect()
    }

    #[test]
    fn scatter_counts_in_degree() {
        let n = 1000u32;
        let ctx = ctx(n);
        let p = InDegree;
        let values = vec![0u32; n as usize];
        let mut accum = vec![0u32; n as usize];
        let mut touched = Frontier::empty(n);
        let delivered = scatter_edges(
            &p,
            &ctx,
            &star_edges(n),
            None,
            &values,
            &mut accum,
            &mut touched,
        );
        assert_eq!(delivered, (n - 1) as u64);
        assert_eq!(accum[0], n - 1);
        assert_eq!(touched.count(), 1);
    }

    #[test]
    fn scatter_respects_source_filter() {
        let n = 100u32;
        let ctx = ctx(n);
        let p = InDegree;
        let values = vec![0u32; n as usize];
        let mut accum = vec![0u32; n as usize];
        let mut touched = Frontier::empty(n);
        let filter = Frontier::from_seeds(n, &[1, 2, 3]);
        let delivered = scatter_edges(
            &p,
            &ctx,
            &star_edges(n),
            Some(&filter),
            &values,
            &mut accum,
            &mut touched,
        );
        assert_eq!(delivered, 3);
        assert_eq!(accum[0], 3);
    }

    #[test]
    fn apply_commits_and_resets_accum() {
        let n = 10u32;
        let ctx = ctx(n);
        let p = InDegree;
        let mut values = vec![0u32; n as usize];
        let mut accum = vec![0u32; n as usize];
        accum[4] = 7;
        let touched = Frontier::from_seeds(n, &[4, 5]);
        let mut out = Frontier::empty(n);
        let changed = apply_range(
            &p,
            &ctx,
            0..n,
            false,
            &touched,
            &mut accum,
            &mut values,
            &mut out,
        );
        // vertex 4 changes; vertex 5 touched but accum 0 -> apply None.
        assert_eq!(changed, 1);
        assert_eq!(values[4], 7);
        assert_eq!(accum[4], 0, "accumulator reset");
        assert!(out.contains(4));
        assert!(!out.contains(5));
    }

    #[test]
    fn apply_all_visits_untouched() {
        struct SetOne;
        impl VertexProgram for SetOne {
            type Value = u32;
            type Accum = u32;
            fn name(&self) -> &'static str {
                "set-one"
            }
            fn init_value(&self, _: u32, _: &ProgramContext) -> u32 {
                0
            }
            fn zero_accum(&self) -> u32 {
                0
            }
            fn scatter(&self, _: u32, _: u32, _: f32, _: &ProgramContext) -> Option<u32> {
                None
            }
            fn combine(&self, a: u32, b: u32) -> u32 {
                a + b
            }
            fn apply(&self, _: u32, _: u32, accum: u32, _: &ProgramContext) -> Option<u32> {
                Some(accum + 1)
            }
            fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
                InitialFrontier::All
            }
            fn apply_all(&self) -> bool {
                true
            }
        }
        let n = 8u32;
        let ctx = ctx(n);
        let mut values = vec![0u32; n as usize];
        let mut accum = vec![0u32; n as usize];
        let touched = Frontier::empty(n);
        let mut out = Frontier::empty(n);
        let changed = apply_range(
            &SetOne,
            &ctx,
            0..n,
            true,
            &touched,
            &mut accum,
            &mut values,
            &mut out,
        );
        assert_eq!(changed, n as u64);
        assert!(values.iter().all(|&x| x == 1));
    }

    #[test]
    fn apply_range_restricts_to_range() {
        let n = 10u32;
        let ctx = ctx(n);
        let p = InDegree;
        let mut values = vec![0u32; n as usize];
        let mut accum = vec![0u32; n as usize];
        accum[2] = 5;
        accum[8] = 5;
        let touched = Frontier::from_seeds(n, &[2, 8]);
        let mut out = Frontier::empty(n);
        apply_range(
            &p,
            &ctx,
            0..5,
            false,
            &touched,
            &mut accum,
            &mut values,
            &mut out,
        );
        assert_eq!(values[2], 5);
        assert_eq!(values[8], 0, "outside range untouched");
        assert_eq!(accum[8], 5, "outside range accum preserved");
    }
}
