//! `live-serve`: one closed-loop client against an in-process
//! [`ServeCore`] over kron_sim, reading and mutating the same grid.
//!
//! A **round** of the seeded script is 128 `Neighbors` lookups, eight
//! batches of four 2-hop traversals and four batches of two 3-round
//! personalized PageRanks (all from random sources), then one mutation
//! batch — 48 random inserts and 16 deletes of existing edges — committed
//! through `Request::Mutate`, after which the standing BFS answer from
//! the hub is refreshed with [`gsd_delta::incremental_run`]. A **cycle**
//! is four rounds followed by `Request::Compact`; it is the unit of work
//! `job_s`, `read_mb` and `write_mb` are reported per.
//!
//! The served cache (8 MiB) is smaller than the grid (~15 MB of edges),
//! so eviction runs, and every mutation clears it. Verification,
//! prefetch and checkpointing stay off.

use crate::inputs::{self, KRON_SIM};
use crate::layers::{CountingSink, IoTally};
use crate::report::{
    end_to_end, median, percentile, samples, Checks, Metrics, Outcome, StealWatch, Timed,
};
use crate::setup::{keep_going, set_traced, stage, Opts, Stage, SETUP_REPEATS};
use crate::{fingerprint, layer_metrics};
use gsd_algos::{Bfs, Ppr};
use gsd_core::{GraphSdConfig, GridSession};
use gsd_delta::MutationBatch;
use gsd_graph::{scrub_grid, CorruptionResponse, Edge, Graph, VerifyPolicy};
use gsd_io::IoStatsSnapshot;
use gsd_runtime::{Engine, ReferenceEngine, RunOptions};
use gsd_serve::{MutateOp, Request, Response, ServeCore, ServeCounters, Traversal};
use gsd_trace::{null_sink, Stopwatch, TraceSink};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Sub-block cache of the served core.
const CACHE_BYTES: u64 = 8 << 20;
/// Lookups per round.
const LOOKUPS: usize = 128;
/// k-hop batches per round.
const KHOP_BATCHES: usize = 8;
/// Queries in one k-hop batch.
const KHOP_BATCH: usize = 4;
/// Hop bound of the k-hop queries.
const KHOP_K: u32 = 2;
/// PPR batches per round.
const PPR_BATCHES: usize = 4;
/// Queries in one PPR batch.
const PPR_BATCH: usize = 2;
/// Propagation rounds of a PPR query.
const PPR_ROUNDS: u32 = 3;
/// Random inserts per mutation batch.
const INSERTS: usize = 48;
/// Deletes of existing edges per mutation batch.
const DELETES: usize = 16;
/// Rounds per cycle; a compaction closes every cycle.
const ROUNDS_PER_CYCLE: usize = 4;
/// Lookups re-checked against the oracle per round.
const LOOKUP_CHECKS: usize = 8;
/// Cycles per run at least: two give ≥ 1000 lookups and ≥ 200
/// traversal queries, so the reported tails have ≥ 10 samples beyond.
const MIN_CYCLES: usize = 2;
const PPR_ALPHA: f32 = 0.85;

/// Latency samples and per-layer figures of one cycle.
#[derive(Default)]
pub struct Cycle {
    /// Wall seconds (and net of host steal), answer checks excluded.
    pub time: Timed,
    /// Latency of every lookup.
    pub lookups_ms: Vec<f64>,
    /// Latency of every traversal query (its batch's completion time).
    pub queries_ms: Vec<f64>,
    /// Mutation batch arrival until the commit is acknowledged and the
    /// BFS answer refreshed.
    pub mutations_ms: Vec<f64>,
    /// The closing compaction.
    pub compact_ms: f64,
    /// Accounted storage traffic.
    pub io: IoStatsSnapshot,
    /// Per-layer figures (decorator figures are 0 when untraced).
    pub layers: Metrics,
}

/// The served grid and everything the client keeps next to it.
pub struct Live {
    stage: Stage,
    core: ServeCore,
    sink: Arc<CountingSink>,
    config: GraphSdConfig,
    hub: u32,
    /// The standing BFS answer from the hub, refreshed per batch.
    bfs: Vec<u32>,
    /// The in-memory oracle: the grid's edge multiset, mutated alongside.
    edges: Vec<Edge>,
    n: u32,
    rng: ChaCha8Rng,
}

/// The BFS/incremental-refresh configuration: explicit budget,
/// no prefetch, no checkpointing.
fn refresh_config(budget: u64) -> GraphSdConfig {
    GraphSdConfig::full()
        .with_memory_budget(budget)
        .without_prefetch()
        .without_checkpoint()
}

impl Live {
    /// Preprocesses `graph`, opens the session, converges BFS from the
    /// hub and starts the serve core. Returns the state and the wall
    /// seconds of (preprocess, open, bfs, core start).
    pub fn start(
        opts: &Opts,
        graph: &Graph,
        cache_bytes: u64,
    ) -> std::io::Result<(Live, [f64; 4])> {
        let stage = stage(&opts.work, graph, opts.trace)?;
        let sink = Arc::new(CountingSink::new());
        sink.set_on(opts.trace);
        let config = refresh_config(inputs::paper_budget(graph));
        let hub = inputs::hub(graph);

        let watch = Stopwatch::start();
        let session = GridSession::open(
            stage.storage.clone(),
            VerifyPolicy::Off,
            CorruptionResponse::FailFast,
        )?;
        let open_s = watch.elapsed().as_secs_f64();
        let watch = Stopwatch::start();
        let mut engine = session.engine(config.clone())?;
        let bfs = engine.run(&Bfs::new(hub), &RunOptions::default())?.values;
        drop(engine);
        let bfs_s = watch.elapsed().as_secs_f64();
        let watch = Stopwatch::start();
        let trace: Arc<dyn TraceSink> = sink.clone();
        let core = ServeCore::new(session, cache_bytes, trace)?;
        let core_s = watch.elapsed().as_secs_f64();
        let times = [stage.preprocess_s, open_s, bfs_s, core_s];
        let live = Live {
            stage,
            core,
            sink,
            config,
            hub,
            bfs,
            edges: graph.edges().to_vec(),
            n: graph.num_vertices(),
            rng: ChaCha8Rng::seed_from_u64(opts.seed ^ 0x11FE_5E7E),
        };
        Ok((live, times))
    }

    fn oracle(&self) -> Graph {
        Graph::from_edges(self.n, self.edges.clone(), false)
    }

    fn vertex(&mut self) -> u32 {
        self.rng.gen_range(0..self.n)
    }

    /// Switches the decorator and the sink together.
    fn set_traced(&self, on: bool) {
        set_traced(&self.stage, on);
        self.sink.set_on(on);
    }

    fn tally(&self) -> IoTally {
        self.stage
            .timed
            .as_ref()
            .map(|t| t.tally())
            .unwrap_or_default()
    }

    /// Cumulative serve counters.
    pub fn counters(&self) -> ServeCounters {
        self.core.counters()
    }

    /// Runs one cycle of the script, traced or not.
    pub fn cycle(&mut self, checks: &mut Checks, traced: bool) -> Cycle {
        self.set_traced(traced);
        let mut c = Cycle::default();
        let io_before = self.stage.files.stats().snapshot();
        let tally_before = self.tally();
        let counters_before = self.core.counters();
        let evicts_before = self.core.cache().evicts;
        let mut check_s = 0.0;

        let watch = StealWatch::start();
        for _ in 0..ROUNDS_PER_CYCLE {
            check_s += self.round(checks, &mut c);
        }
        let t = Stopwatch::start();
        let response = self.core.execute(&Request::Compact);
        let compact_s = t.elapsed().as_secs_f64();
        c.time = Timed::of(watch.elapsed_s() - check_s, &watch);
        c.compact_ms = compact_s * 1e3;
        let folded = match response {
            Response::Compacted {
                segments_folded,
                objects_rewritten,
                ..
            } => {
                checks.expect(
                    "compaction folds the cycle's segments",
                    segments_folded > 0,
                    || "nothing folded".to_string(),
                );
                (segments_folded, objects_rewritten)
            }
            other => {
                checks.record::<()>("compact", Err(format!("{other:?}")));
                (0, 0)
            }
        };
        c.io = self.stage.files.stats().snapshot().since(&io_before);

        let m = &mut c.layers;
        let s = self.core.counters();
        let d = |f: fn(&ServeCounters) -> u64| (f(&s) - f(&counters_before)) as f64;
        let (hits, misses) = (d(|c| c.cache_hits), d(|c| c.cache_misses));
        m.set("serve.cache_hits", hits, "count");
        m.set("serve.cache_misses", misses, "count");
        m.set(
            "serve.cache_hit_ratio",
            layer_metrics::hit_ratio(hits, misses),
            "ratio",
        );
        m.set(
            "serve.cache_evictions",
            (self.core.cache().evicts - evicts_before) as f64,
            "count",
        );
        m.set("serve.blocks_read", d(|c| c.blocks_read), "count");
        m.set("serve.batch_passes", d(|c| c.batch_passes), "count");
        m.set("serve.batched_queries", d(|c| c.batched_queries), "count");
        m.set("delta.compact_s", compact_s, "s");
        m.set("delta.segments_folded", folded.0 as f64, "count");
        m.set("delta.objects_rewritten", folded.1 as f64, "count");
        layer_metrics::io_layers(m, &self.tally().since(&tally_before));
        c
    }

    /// Runs one round; returns the seconds spent checking answers and
    /// maintaining the oracle, which the caller keeps off the cycle's
    /// clock.
    fn round(&mut self, checks: &mut Checks, c: &mut Cycle) -> f64 {
        let mut check_s = 0.0;
        let oracle_watch = Stopwatch::start();
        let oracle = self.oracle();
        let mut reference = ReferenceEngine::new(&oracle);
        check_s += oracle_watch.elapsed().as_secs_f64();

        // Lookups.
        let mut looked_up = Vec::with_capacity(LOOKUPS);
        let mut lookup_answers = Vec::with_capacity(LOOKUPS);
        for _ in 0..LOOKUPS {
            let v = self.vertex();
            let t = Stopwatch::start();
            let r = self.core.execute(&Request::Neighbors { v });
            let s = t.elapsed().as_secs_f64();
            c.lookups_ms.push(s * 1e3);
            c.layers.add("serve.lookup_busy_s", s, "s");
            looked_up.push(v);
            lookup_answers.push(r);
        }
        let sample: Vec<usize> = (0..LOOKUP_CHECKS)
            .map(|_| self.rng.gen_range(0..LOOKUPS))
            .collect();

        // Traversal batches: k-hop, k-hop, PPR, repeated.
        let mut khop_answers = Vec::new();
        let mut ppr_answers = Vec::new();
        for b in 0..KHOP_BATCHES + PPR_BATCHES {
            let ppr = b % 3 == 2;
            let queries: Vec<Traversal> = if ppr {
                (0..PPR_BATCH)
                    .map(|_| Traversal::Ppr {
                        seeds: vec![self.vertex()],
                        alpha: PPR_ALPHA,
                        iterations: PPR_ROUNDS,
                    })
                    .collect()
            } else {
                (0..KHOP_BATCH)
                    .map(|_| Traversal::KHop {
                        source: self.vertex(),
                        k: KHOP_K,
                    })
                    .collect()
            };
            let t = Stopwatch::start();
            let responses = self.core.execute_batch(&queries);
            let s = t.elapsed().as_secs_f64();
            let busy = if ppr {
                "serve.ppr_busy_s"
            } else {
                "serve.khop_busy_s"
            };
            c.layers.add(busy, s, "s");
            for (q, r) in queries.into_iter().zip(responses) {
                c.queries_ms.push(s * 1e3);
                if ppr {
                    ppr_answers.push((q, r));
                } else {
                    khop_answers.push((q, r));
                }
            }
        }

        // Answers against the oracle, off the clock.
        let t = Stopwatch::start();
        let mut want: BTreeMap<u32, BTreeSet<u32>> = sample
            .iter()
            .map(|&i| (looked_up[i], BTreeSet::new()))
            .collect();
        for e in &self.edges {
            if let Some(set) = want.get_mut(&e.src) {
                set.insert(e.dst);
            }
        }
        for &i in &sample {
            let v = looked_up[i];
            let expected = Response::Neighbors {
                neighbors: want[&v].iter().copied().collect(),
            };
            checks.expect(
                "lookup matches oracle",
                lookup_answers[i] == expected,
                || format!("neighbors({v})"),
            );
        }
        for r in &lookup_answers {
            checks.expect(
                "lookup answered",
                matches!(r, Response::Neighbors { .. }),
                || format!("{r:?}"),
            );
        }
        for (_, r) in khop_answers.iter().chain(&ppr_answers) {
            checks.expect(
                "traversal answered",
                matches!(r, Response::Depths { .. } | Response::Scores { .. }),
                || format!("{r:?}"),
            );
        }
        let pick = self.rng.gen_range(0..khop_answers.len());
        let (q, got) = &khop_answers[pick];
        checks.record("k-hop matches oracle", khop_oracle(&mut reference, q, got));
        let pick = self.rng.gen_range(0..ppr_answers.len());
        let (q, got) = &ppr_answers[pick];
        checks.record("ppr matches oracle", ppr_oracle(&mut reference, q, got));
        drop(reference);
        drop(oracle);
        check_s += t.elapsed().as_secs_f64();

        // The mutation batch, then the incremental refresh.
        let ops = self.mutation_ops();
        let mut batch = MutationBatch::new();
        for op in &ops {
            if op.op == 0 {
                batch.insert(op.src, op.dst, f32::from_bits(op.weight_bits));
            } else {
                batch.delete(op.src, op.dst);
            }
        }
        let trace: Arc<dyn TraceSink> = if self.sink.enabled() {
            self.sink.clone()
        } else {
            null_sink()
        };
        let t = Stopwatch::start();
        let response = self.core.execute(&Request::Mutate { ops: ops.clone() });
        let mutate_s = t.elapsed().as_secs_f64();
        let committed = matches!(response, Response::Mutated { .. });
        checks.expect("mutation committed", committed, || format!("{response:?}"));
        let t_inc = Stopwatch::start();
        let grid = self.core.session().grid().clone();
        let prev = std::mem::take(&mut self.bfs);
        let refreshed = gsd_delta::incremental_run(
            grid,
            &Bfs::new(self.hub),
            prev,
            &batch,
            self.config.clone(),
            trace,
        );
        let inc_s = t_inc.elapsed().as_secs_f64();
        c.mutations_ms.push(t.elapsed().as_secs_f64() * 1e3);
        c.layers.add("serve.mutate_busy_s", mutate_s, "s");
        match refreshed {
            Ok((result, report)) => {
                let m = &mut c.layers;
                m.add("delta.incremental_s", inc_s, "s");
                m.add(
                    "delta.incremental_iters",
                    f64::from(result.stats.iterations),
                    "count",
                );
                m.add("delta.seeds", report.seeds as f64, "count");
                m.add("delta.resets", report.resets as f64, "count");
                self.bfs = result.values;
                checks.expect("incremental refresh", !report.full_fallback, || {
                    "BFS fell back to a full run".to_string()
                });
            }
            Err(e) => {
                checks.record::<()>("incremental refresh", Err(e.to_string()));
            }
        }
        let t = Stopwatch::start();
        apply_ops(&mut self.edges, &ops);
        check_s + t.elapsed().as_secs_f64()
    }

    /// 48 random inserts, then 16 deletes of distinct existing edges.
    fn mutation_ops(&mut self) -> Vec<MutateOp> {
        let mut ops = Vec::with_capacity(INSERTS + DELETES);
        while ops.len() < INSERTS {
            let (src, dst) = (self.vertex(), self.vertex());
            if src != dst {
                ops.push(MutateOp {
                    op: 0,
                    src,
                    dst,
                    weight_bits: 1.0f32.to_bits(),
                });
            }
        }
        let mut deleted = BTreeSet::new();
        while deleted.len() < DELETES {
            let e = self.edges[self.rng.gen_range(0..self.edges.len())];
            if deleted.insert((e.src, e.dst)) {
                ops.push(MutateOp {
                    op: 1,
                    src: e.src,
                    dst: e.dst,
                    weight_bits: 0,
                });
            }
        }
        ops
    }

    /// The end-of-run checks: the refreshed BFS equals a from-scratch
    /// BFS on the final grid and on the oracle, and the grid scrubs
    /// clean.
    /// Returns the fingerprint of the refreshed BFS answer.
    pub fn final_checks(&mut self, checks: &mut Checks) -> std::io::Result<u64> {
        self.set_traced(false);
        let grid = self.core.session().grid().clone();
        let mut engine = gsd_core::GraphSdEngine::new(grid, self.config.clone())?;
        let scratch = engine
            .run(&Bfs::new(self.hub), &RunOptions::default())?
            .values;
        checks.expect(
            "incremental BFS equals a from-scratch BFS",
            scratch == self.bfs,
            || "values differ".to_string(),
        );
        let oracle = self.oracle();
        let want = ReferenceEngine::new(&oracle)
            .run(&Bfs::new(self.hub), &RunOptions::default())?
            .values;
        checks.expect(
            "incremental BFS equals the oracle",
            want == self.bfs,
            || "values differ".to_string(),
        );
        let (_, scrub) = scrub_grid(self.stage.files.as_ref(), "")?;
        checks.expect("post-run scrub is clean", scrub.is_clean(), || {
            format!("{:?} (ok, corrupt)", scrub.counts())
        });
        Ok(fingerprint(self.bfs.iter().map(|&d| u64::from(d))))
    }
}

/// Applies mutation ops to the oracle edge list with ingest's
/// semantics: insert appends one copy, delete removes every copy.
fn apply_ops(edges: &mut Vec<Edge>, ops: &[MutateOp]) {
    for op in ops {
        if op.op == 0 {
            edges.push(Edge::new(op.src, op.dst));
        } else {
            edges.retain(|e| e.src != op.src || e.dst != op.dst);
        }
    }
}

fn khop_oracle(
    reference: &mut ReferenceEngine,
    q: &Traversal,
    got: &Response,
) -> Result<(), String> {
    let Traversal::KHop { source, k } = q else {
        return Err("not a k-hop query".to_string());
    };
    let options = RunOptions {
        max_iterations: Some(*k),
        iteration_cap: None,
    };
    let depths = reference
        .run(&Bfs::new(*source), &options)
        .map_err(|e| e.to_string())?
        .values;
    let want = Response::Depths {
        depths: depths
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != u32::MAX)
            .map(|(v, &d)| (v as u32, d))
            .collect(),
    };
    if &want == got {
        Ok(())
    } else {
        Err(format!("khop({source}, {k}) differs"))
    }
}

fn ppr_oracle(
    reference: &mut ReferenceEngine,
    q: &Traversal,
    got: &Response,
) -> Result<(), String> {
    let Traversal::Ppr {
        seeds, iterations, ..
    } = q
    else {
        return Err("not a PPR query".to_string());
    };
    let ranks = reference
        .run_default(&Ppr::new(seeds.clone(), *iterations))
        .map_err(|e| e.to_string())?
        .values;
    let want = Response::Scores {
        scores: ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.0 > 0.0)
            .map(|(v, r)| (v as u32, r.0.to_bits()))
            .collect(),
    };
    if &want == got {
        Ok(())
    } else {
        Err(format!("ppr({seeds:?}) differs"))
    }
}

/// The `live-serve` workload.
pub fn live_serve(opts: &Opts) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let graph = KRON_SIM.directed(opts.seed);
    out.note(
        "dataset",
        format!(
            "{} seed={} V={} E={} edge_bytes={} weighted=false",
            KRON_SIM.name,
            opts.seed,
            graph.num_vertices(),
            graph.num_edges(),
            inputs::edge_bytes(&graph)
        ),
    );
    out.note("memory_budget_bytes", inputs::paper_budget(&graph));
    out.note("serve_cache_bytes", CACHE_BYTES);
    out.note(
        "script",
        format!(
            "closed loop, 1 client; per round {LOOKUPS} lookups, {KHOP_BATCHES}x{KHOP_BATCH} \
             {KHOP_K}-hop, {PPR_BATCHES}x{PPR_BATCH} ppr({PPR_ROUNDS}), mutate \
             +{INSERTS}/-{DELETES} then incremental BFS; compact every {ROUNDS_PER_CYCLE} rounds"
        ),
    );

    let mut setups = Vec::new();
    let mut preprocesses = Vec::new();
    let mut opens = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        drop(live.take());
        let setup = StealWatch::start();
        let (l, t) = Live::start(opts, &graph, CACHE_BYTES)?;
        setups.push(Timed::of(t.iter().sum::<f64>(), &setup));
        preprocesses.push(t[0]);
        opens.push(t[1]);
        live = Some(l);
    }
    let mut live = live.expect("SETUP_REPEATS > 0");
    drop(graph);

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let watch = StealWatch::start();
    let min = if opts.trace {
        2 * MIN_CYCLES
    } else {
        MIN_CYCLES
    };
    let mut n = 0;
    while keep_going(watch.elapsed_s(), opts.seconds, n, min) {
        let traced_cycle = opts.trace && n % 2 == 1;
        n += 1;
        let failed = out.checks.failed;
        let c = live.cycle(&mut out.checks, traced_cycle);
        if traced_cycle {
            traced.push(c);
        } else {
            plain.push(c);
        }
        if out.checks.failed > failed {
            break;
        }
    }
    let fp = live.final_checks(&mut out.checks)?;
    out.note("final_bfs_fingerprint", format!("{fp:016x}"));
    out.note(
        "cycles",
        format!("{} untraced, {} traced", plain.len(), traced.len()),
    );
    let walls = |cycles: &[Cycle]| cycles.iter().map(|c| c.time.wall_s).collect::<Vec<_>>();
    out.note("steal_share", format!("{:.4}", watch.share()));
    out.note("cycle_s wall samples", samples(&walls(&plain)));
    let setup_walls: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    out.note("setup_s wall samples", samples(&setup_walls));

    if opts.trace {
        let per: Vec<Metrics> = traced.iter().map(|c| c.layers.clone()).collect();
        out.metrics = layer_metrics::traced(
            &per,
            median(&preprocesses),
            median(&opens),
            &walls(&traced),
            &walls(&plain),
        );
    } else {
        let all = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
            plain.iter().flat_map(|c| f(c).iter().copied()).collect()
        };
        let queries = all(|c| &c.queries_ms);
        let lookups = all(|c| &c.lookups_ms);
        let mutations = all(|c| &c.mutations_ms);
        let e = &mut out.extra;
        e.set("queries", queries.len() as f64, "count");
        e.set("query_p50_ms", median(&queries), "ms");
        e.set("query_p95_ms", percentile(&queries, 95.0), "ms");
        e.set("lookups", lookups.len() as f64, "count");
        e.set("lookup_p50_ms", median(&lookups), "ms");
        e.set("lookup_p99_ms", percentile(&lookups, 99.0), "ms");
        e.set("mutations", mutations.len() as f64, "count");
        e.set("mutation_p50_ms", median(&mutations), "ms");
        let compactions: Vec<f64> = plain.iter().map(|c| c.compact_ms).collect();
        e.set("compact_ms", median(&compactions), "ms");
        let units: Vec<_> = plain.iter().map(|c| (c.time, c.io)).collect();
        end_to_end(&mut out, &setups, &units);
    }
    Ok(out)
}
