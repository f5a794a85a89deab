//! The two-generation BSP vertex state of the cross-iteration engines.
//!
//! GraphSD and Lumos keep double-buffered committed values (`values_prev`
//! = `val_{t−1}` read by normal scatter; `values_cur` = `val_t` written by
//! `apply` and read by cross-iteration scatter) and double-buffered
//! accumulators (`accum_cur` for the iteration being computed,
//! `accum_next` receiving `CrossIterUpdate` contributions for the
//! following one). At the end of each committed iteration the pairs
//! rotate, so a cross-iteration update of edge `(u, v)` always reads
//! `val_t(u)` — the value a normal iteration-`t+1` scatter would read.

use crate::context::ProgramContext;
use crate::frontier::Frontier;
use crate::program::VertexProgram;
use crate::value::Value;

/// Committed values, accumulators and frontiers of one BSP run.
#[derive(Debug)]
pub struct BspState<V: Value, A: Value> {
    /// Committed values of the last finished iteration (`val_{t−1}`).
    pub values_prev: Vec<V>,
    /// Values being committed by the current iteration (`val_t`).
    pub values_cur: Vec<V>,
    /// Accumulator of the current iteration.
    pub accum_cur: Vec<A>,
    /// Cross-iteration accumulator of the next iteration.
    pub accum_next: Vec<A>,
    /// Recipients of `accum_cur` contributions awaiting their apply.
    pub touched_cur: Frontier,
    /// Recipients of `accum_next` contributions (the paper's `OutNI`).
    pub touched_next: Frontier,
    /// Scatter sources of the current iteration (`V_active`).
    pub frontier: Frontier,
    zero: A,
}

impl<V: Value, A: Value> BspState<V, A> {
    /// Initial state of `program`: every value at `init_value`, both
    /// accumulators at `zero_accum`, and the program's initial frontier
    /// (out-of-range seeds are an `InvalidInput` error).
    pub fn new<P>(program: &P, ctx: &ProgramContext) -> std::io::Result<Self>
    where
        P: VertexProgram<Value = V, Accum = A>,
    {
        let n = ctx.num_vertices;
        let values: Vec<V> = (0..n).map(|v| program.init_value(v, ctx)).collect();
        let zero = program.zero_accum();
        Ok(BspState {
            values_cur: values.clone(),
            values_prev: values,
            accum_cur: vec![zero; n as usize],
            accum_next: vec![zero; n as usize],
            touched_cur: Frontier::empty(n),
            touched_next: Frontier::empty(n),
            frontier: program.initial_frontier(ctx).build(n)?,
            zero,
        })
    }

    /// End-of-iteration rotation: committed values advance, the
    /// next-iteration accumulator and its recipients become current, and
    /// `out` becomes the frontier.
    pub fn rotate(&mut self, out: Frontier) {
        std::mem::swap(&mut self.values_prev, &mut self.values_cur);
        std::mem::swap(&mut self.accum_cur, &mut self.accum_next);
        self.accum_next.fill(self.zero);
        std::mem::swap(&mut self.touched_cur, &mut self.touched_next);
        self.touched_next.clear();
        self.frontier = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::InitialFrontier;
    use std::sync::Arc;

    struct Seeded;
    impl VertexProgram for Seeded {
        type Value = u32;
        type Accum = u32;
        fn name(&self) -> &'static str {
            "seeded"
        }
        fn init_value(&self, v: u32, _: &ProgramContext) -> u32 {
            v * 10
        }
        fn zero_accum(&self) -> u32 {
            7
        }
        fn scatter(&self, _: u32, _: u32, _: f32, _: &ProgramContext) -> Option<u32> {
            None
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(&self, _: u32, _: u32, _: u32, _: &ProgramContext) -> Option<u32> {
            None
        }
        fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
            InitialFrontier::Seeds(vec![2])
        }
    }

    fn ctx(n: u32) -> ProgramContext {
        ProgramContext::new(n, Arc::new(vec![0; n as usize]))
    }

    #[test]
    fn new_builds_initial_values_and_frontier() -> std::io::Result<()> {
        let st = BspState::new(&Seeded, &ctx(4))?;
        assert_eq!(st.values_prev, vec![0, 10, 20, 30]);
        assert_eq!(st.values_cur, st.values_prev);
        assert_eq!(st.accum_cur, vec![7; 4]);
        assert_eq!(st.frontier.to_vec(), vec![2]);
        assert!(st.touched_cur.is_empty() && st.touched_next.is_empty());
        Ok(())
    }

    #[test]
    fn out_of_range_seed_is_rejected() {
        let err = BspState::new(&Seeded, &ctx(2)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn rotate_advances_one_generation() -> std::io::Result<()> {
        let mut st = BspState::new(&Seeded, &ctx(4))?;
        st.values_cur[1] = 99;
        st.accum_next[3] = 1;
        st.touched_next.insert(3);
        st.accum_cur[0] = 5;
        st.touched_cur.insert(0);
        st.rotate(Frontier::from_seeds(4, &[1]));
        assert_eq!(st.values_prev, vec![0, 99, 20, 30]);
        assert_eq!(st.accum_cur, vec![7, 7, 7, 1]);
        assert_eq!(st.accum_next, vec![7; 4], "next generation reset to zero");
        assert_eq!(st.touched_cur.to_vec(), vec![3]);
        assert!(st.touched_next.is_empty());
        assert_eq!(st.frontier.to_vec(), vec![1]);
        Ok(())
    }
}
