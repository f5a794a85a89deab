//! # gsd-baselines — the comparison systems of the paper's evaluation
//!
//! Re-implementations, on the same storage and runtime substrates as
//! GraphSD, of the systems §5 compares against (plus one classic):
//!
//! * [`HusGraphEngine`] — HUS-Graph-like (Xu et al., TPDS'20): a **hybrid
//!   update strategy** that switches between row-oriented selective loading
//!   (active edges only) and column-oriented full streaming based on a
//!   coarse active-volume threshold. Active-vertex aware, but **no
//!   cross-iteration computation**. Its on-disk format keeps **two sorted
//!   copies** of the edges (row- and column-oriented), which is why its
//!   preprocessing is the slowest in Figure 8.
//! * [`LumosEngine`] — Lumos-like (Vora, ATC'19): full sequential streaming
//!   each round with **dependency-driven future-value computation**
//!   (cross-iteration propagation on `i ≤ j` sub-blocks, second pass over
//!   secondary partitions), but **no active-vertex awareness** — every
//!   block is read even when the frontier is tiny. Its format is one
//!   unsorted copy without per-vertex indexes: the cheapest preprocessing
//!   in Figure 8.
//! * [`GridStreamEngine`] — GridGraph-like: plain full streaming of the
//!   2-D grid every iteration. Neither optimization; the sanity baseline.
//!
//! All three run the exact BSP semantics of the
//! [`gsd_runtime::ReferenceEngine`]; they differ from GraphSD only in
//! *which bytes they read* — which is precisely what the paper measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gridstream;
pub mod hus;
pub mod lumos;

/// Maps the runtime's access-model enum onto the trace schema's (the
/// trace crate sits below `gsd-runtime` and cannot name it).
pub(crate) fn trace_model(model: gsd_runtime::IoAccessModel) -> gsd_trace::AccessModel {
    match model {
        gsd_runtime::IoAccessModel::OnDemand => gsd_trace::AccessModel::OnDemand,
        gsd_runtime::IoAccessModel::Full => gsd_trace::AccessModel::Full,
    }
}

pub use gridstream::GridStreamEngine;
pub use hus::{build_hus_format, HusFormat, HusGraphEngine};
pub use lumos::{build_lumos_format, LumosEngine};
