//! The per-layer metric set, named by crate, and the helpers that fill
//! it. Every traced run reports every name; a layer a workload does
//! not exercise reports 0.

use crate::layers::IoTally;
use crate::report::{median, Metrics};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.compute_s", "s"),
    ("runtime.scatter_s", "s"),
    ("runtime.apply_s", "s"),
    ("runtime.ns_per_edge", "ns"),
    ("core.iterations", "count"),
    ("core.full_iters", "count"),
    ("core.on_demand_iters", "count"),
    ("core.frontier_sum", "count"),
    ("core.scheduler_s", "s"),
    ("core.io_wait_s", "s"),
    ("core.buffer_hits", "count"),
    ("core.buffer_hit_mb", "MB"),
    ("core.cross_iter_edges", "count"),
    ("pipeline.prefetch_hits", "count"),
    ("pipeline.prefetch_misses", "count"),
    ("pipeline.hit_ratio", "ratio"),
    ("pipeline.stall_s", "s"),
    ("integrity.verify_mb", "MB"),
    ("integrity.side_read_mb", "MB"),
    ("integrity.side_read_s", "s"),
    ("integrity.corrupt_blocks", "count"),
    ("io.read_calls", "count"),
    ("io.read_mb", "MB"),
    ("io.read_busy_s", "s"),
    ("io.create_calls", "count"),
    ("io.create_mb", "MB"),
    ("io.create_busy_s", "s"),
    ("io.write_at_calls", "count"),
    ("io.sync_calls", "count"),
    ("io.sync_busy_s", "s"),
    ("io.delete_calls", "count"),
    ("recover.checkpoints", "count"),
    ("recover.ckpt_write_mb", "MB"),
    ("recover.ckpt_busy_s", "s"),
    ("delta.incremental_s", "s"),
    ("delta.incremental_iters", "count"),
    ("delta.seeds", "count"),
    ("delta.resets", "count"),
    ("delta.compact_s", "s"),
    ("delta.segments_folded", "count"),
    ("delta.objects_rewritten", "count"),
    ("delta.write_mb", "MB"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.blocks_read", "count"),
    ("serve.batch_passes", "count"),
    ("serve.batched_queries", "count"),
    ("serve.khop_busy_s", "s"),
    ("serve.ppr_busy_s", "s"),
    ("serve.lookup_busy_s", "s"),
    ("serve.mutate_busy_s", "s"),
    ("graph.preprocess_s", "s"),
    ("graph.open_s", "s"),
    ("trace.unit_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-name median over the traced units of a run.
pub fn median_of(units: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let values: Vec<f64> = units.iter().filter_map(|m| m.get(name)).collect();
        if !values.is_empty() {
            out.set(name, median(&values), unit);
        }
    }
    out
}

/// The per-layer metrics of a traced run: per-name medians over the
/// traced units, the set-up spans, and the tracing overhead measured
/// against the run's untraced units.
pub fn traced(
    units: &[Metrics],
    preprocess_s: f64,
    open_s: f64,
    traced_walls: &[f64],
    plain_walls: &[f64],
) -> Metrics {
    let mut m = median_of(units);
    m.set("graph.preprocess_s", preprocess_s, "s");
    m.set("graph.open_s", open_s, "s");
    let traced_s = median(traced_walls);
    m.set("trace.unit_s", traced_s, "s");
    m.set(
        "trace.overhead_frac",
        traced_s / median(plain_walls) - 1.0,
        "ratio",
    );
    complete(m)
}

/// `m` with every [`PER_LAYER`] name present (absent ones as 0), in
/// report order.
pub fn complete(m: Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        out.set(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn hit_ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// The storage-decorator figures of one unit: gsd-io call totals, the
/// integrity side reads, checkpoint and delta-segment traffic.
pub fn io_layers(m: &mut Metrics, t: &IoTally) {
    m.set("integrity.side_read_mb", t.side_read.mb(), "MB");
    m.set("integrity.side_read_s", t.side_read.busy_s(), "s");
    m.set("io.read_calls", t.read.calls as f64, "count");
    m.set("io.read_mb", t.read.mb(), "MB");
    m.set("io.read_busy_s", t.read.busy_s(), "s");
    m.set("io.create_calls", t.create.calls as f64, "count");
    m.set("io.create_mb", t.create.mb(), "MB");
    m.set("io.create_busy_s", t.create.busy_s(), "s");
    m.set("io.write_at_calls", t.write_at.calls as f64, "count");
    m.set("io.sync_calls", t.sync.calls as f64, "count");
    m.set("io.sync_busy_s", t.sync.busy_s(), "s");
    m.set("io.delete_calls", t.delete.calls as f64, "count");
    m.set("recover.ckpt_write_mb", t.ckpt_write.mb(), "MB");
    m.set("recover.ckpt_busy_s", t.ckpt.busy_s(), "s");
    m.set("delta.write_mb", t.delta_write.mb(), "MB");
}
