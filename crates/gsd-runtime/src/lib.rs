//! # gsd-runtime — shared vertex-program runtime
//!
//! The scaffolding every engine in this reproduction builds on:
//!
//! * [`VertexProgram`] — the programming model of §4.2. The paper's
//!   `UserFunction(u, v, Out)` decomposes into `scatter` (produce a message
//!   from the source's committed value) + `combine` (commutative,
//!   associative merge into the destination's accumulator) + `apply` (fold
//!   the accumulator into the vertex value at the BSP barrier, reporting
//!   whether the vertex activates). `CrossIterUpdate(u, v, OutNI)` is the
//!   same `scatter`/`combine` pair executed against the *next* iteration's
//!   accumulator with the source's *freshly applied* value.
//! * [`BspState`] — the two-generation vertex state (values, accumulators,
//!   frontiers) of the cross-iteration engines, held in plain `Vec`s with
//!   one writer; [`kernels`] scatter and apply over it in a fixed visit
//!   order, so results are bit-identical run to run.
//! * [`Frontier`] — bitset frontiers (`V_active`, `Out`, `OutNI` of
//!   Algorithm 1).
//! * [`ReferenceEngine`] — an in-memory, strictly-BSP executor used as the
//!   oracle: every out-of-core engine must produce the same per-iteration
//!   committed values on every program (the repo's central property test).
//! * [`RunStats`] — timing/I/O accounting every experiment reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod frontier;
pub mod kernels;
pub mod program;
pub mod reference;
pub mod state;
pub mod stats;
pub mod value;
pub mod vertex_store;

pub use context::ProgramContext;
pub use engine::{Capabilities, Engine, RunOptions, RunResult};
pub use frontier::Frontier;
pub use program::{InitialFrontier, VertexProgram};
pub use reference::ReferenceEngine;
pub use state::BspState;
pub use stats::{IoAccessModel, IterationStats, RunStats};
pub use value::Value;
pub use vertex_store::VertexValueFile;
