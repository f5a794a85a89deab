//! The two engine workloads.
//!
//! * `dense-pr` — PageRank then PageRank-Delta on kron_sim, on one
//!   session: every vertex active, compute-bound.
//! * `sparse-sssp` — verified, checkpointed SSSP on weighted uk_sim from
//!   the hub: a long shrinking frontier, I/O- and integrity-bound.
//!
//! A unit of work is one job. Untraced runs time jobs over the plain
//! file store; traced runs alternate untraced and traced jobs over the
//! timing decorator, so every traced figure has an untraced twin from
//! the same run.

use crate::inputs::{self, Shape};
use crate::layers::{CountingSink, IoTally, CKPT_PREFIX};
use crate::report::{end_to_end, median, samples, Checks, Metrics, Outcome, StealWatch, Timed};
use crate::setup::{keep_going, set_traced, stage, Opts, Stage, SETUP_REPEATS};
use crate::{fingerprint, layer_metrics};
use gsd_algos::{PageRank, PageRankDelta, Sssp};
use gsd_core::{GraphSdConfig, GridSession, PipelineConfig};
use gsd_graph::{CorruptionResponse, Graph, VerifyPolicy};
use gsd_io::IoStatsSnapshot;
use gsd_recover::RecoveryConfig;
use gsd_runtime::{Engine, ReferenceEngine, RunOptions, RunStats, Value};
use gsd_trace::{null_sink, Stopwatch, TraceSink};
use std::sync::Arc;

/// Jobs per run at least, whatever `--seconds` says.
const MIN_JOBS: usize = 3;

/// Prefetch sizing of both engine workloads: depth 2, two workers.
fn prefetch() -> PipelineConfig {
    PipelineConfig::with_depth(2)
}

/// One measured job.
struct Job {
    time: Timed,
    open_s: f64,
    runs: Vec<RunStats>,
    fingerprint: u64,
    io: IoStatsSnapshot,
    tally: IoTally,
    ckpts: u64,
}

/// Values a job must reproduce, computed before measuring.
enum Expected {
    /// PageRank ranks and PageRank-Delta ranks.
    Dense(Vec<f32>, Vec<f32>),
    /// SSSP distances.
    Sparse(Vec<f32>),
}

/// Everything a job needs besides whether it is traced.
struct Bench<'a> {
    stage: &'a Stage,
    session: Option<GridSession>,
    config: GraphSdConfig,
    sink: Arc<CountingSink>,
    root: u32,
    sparse: bool,
}

impl Bench<'_> {
    fn run_job(&self, traced: bool) -> std::io::Result<(Job, Vec<Vec<u64>>)> {
        let stage = self.stage;
        if self.sparse {
            // Every job starts cold: a leftover checkpoint would let the
            // job resume instead of running, and `resume: false` alone
            // would still leave the old snapshots on disk.
            for key in stage.files.list_keys() {
                if key.starts_with(CKPT_PREFIX) {
                    stage.files.delete(&key)?;
                }
            }
        }
        set_traced(stage, traced);
        self.sink.set_on(traced);
        let trace: Arc<dyn TraceSink> = if traced {
            self.sink.clone()
        } else {
            null_sink()
        };
        let ckpts_before = self.sink.count("ckpt_written");
        let tally_before = stage.timed.as_ref().map(|t| t.tally()).unwrap_or_default();
        let io_before = stage.files.stats().snapshot();

        let watch = StealWatch::start();
        let (job_session, open_s);
        let session = match &self.session {
            Some(s) => {
                open_s = 0.0;
                s
            }
            None => {
                // Verification memoizes per session, so a verified job
                // opens its own: each job pays the full verify cost.
                let open = Stopwatch::start();
                job_session = GridSession::open(
                    stage.storage.clone(),
                    VerifyPolicy::Full,
                    CorruptionResponse::FailFast,
                )?;
                open_s = open.elapsed().as_secs_f64();
                &job_session
            }
        };
        let opts = RunOptions::default();
        let mut runs = Vec::new();
        let mut values = Vec::new();
        if self.sparse {
            let mut engine = session.engine(self.config.clone())?;
            engine.set_trace(trace);
            let r = engine.run(&Sssp::new(self.root), &opts)?;
            values.push(bits(&r.values));
            runs.push(r.stats);
        } else {
            let mut engine = session.engine(self.config.clone())?;
            engine.set_trace(trace.clone());
            let r = engine.run(&PageRank::paper(), &opts)?;
            values.push(bits(&r.values));
            runs.push(r.stats);
            let mut engine = session.engine(self.config.clone())?;
            engine.set_trace(trace);
            let r = engine.run(&PageRankDelta::paper(), &opts)?;
            values.push(bits(&r.values));
            runs.push(r.stats);
        }
        let time = Timed::of(watch.elapsed_s(), &watch);

        let io = stage.files.stats().snapshot().since(&io_before);
        let tally = stage
            .timed
            .as_ref()
            .map(|t| t.tally().since(&tally_before))
            .unwrap_or_default();
        let job = Job {
            time,
            open_s,
            runs,
            fingerprint: fingerprint(values.iter().flatten().copied()),
            io,
            tally,
            ckpts: self.sink.count("ckpt_written") - ckpts_before,
        };
        Ok((job, values))
    }
}

fn bits<V: Value>(values: &[V]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `dense-pr`: PageRank then PageRank-Delta on kron_sim.
pub fn dense_pr(opts: &Opts) -> std::io::Result<Outcome> {
    run(opts, &inputs::KRON_SIM, false)
}

/// `sparse-sssp`: verified, checkpointed SSSP on weighted uk_sim.
pub fn sparse_sssp(opts: &Opts) -> std::io::Result<Outcome> {
    run(opts, &inputs::UK_SIM, true)
}

fn run(opts: &Opts, shape: &Shape, sparse: bool) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let graph: Graph = if sparse {
        shape.weighted(opts.seed)
    } else {
        shape.directed(opts.seed)
    };
    let root = inputs::hub(&graph);
    let budget = inputs::paper_budget(&graph);
    out.note(
        "dataset",
        format!(
            "{} seed={} V={} E={} edge_bytes={} weighted={}",
            shape.name,
            opts.seed,
            graph.num_vertices(),
            graph.num_edges(),
            inputs::edge_bytes(&graph),
            graph.is_weighted()
        ),
    );
    out.note("memory_budget_bytes", budget);
    out.note("serve_cache_bytes", "n/a");

    let mut config = GraphSdConfig::full()
        .with_memory_budget(budget)
        .with_prefetch(prefetch());
    let job_desc;
    let expected = if sparse {
        config = config.with_checkpoint(RecoveryConfig {
            resume: false,
            ..RecoveryConfig::every(20)
        });
        job_desc = format!(
            "sssp root={root} verify=full fail-fast checkpoint-every=20 resume=false prefetch=depth2x2"
        );
        let mut reference = ReferenceEngine::new(&graph);
        Expected::Sparse(
            reference
                .run(&Sssp::new(root), &RunOptions::default())?
                .values,
        )
    } else {
        config = config.without_checkpoint();
        job_desc = "pagerank(5) then pagerank-delta(20) on one session; verify=off \
                    checkpoint=off prefetch=depth2x2"
            .to_string();
        let mut reference = ReferenceEngine::new(&graph);
        let pr = reference
            .run(&PageRank::paper(), &RunOptions::default())?
            .values;
        let prd = reference
            .run(&PageRankDelta::paper(), &RunOptions::default())?
            .values;
        Expected::Dense(pr, prd.iter().map(|v| v.0).collect())
    };
    out.note("job", job_desc);
    let edge_size = inputs::edge_bytes(&graph) as f64 / graph.num_edges().max(1) as f64;

    // Set-up: preprocess plus opening the session, repeated.
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut preprocesses = Vec::new();
    let mut staged = None;
    for _ in 0..SETUP_REPEATS {
        drop(staged.take());
        let setup = StealWatch::start();
        let s = stage(&opts.work, &graph, opts.trace)?;
        let watch = Stopwatch::start();
        let (policy, response) = if sparse {
            (VerifyPolicy::Full, CorruptionResponse::FailFast)
        } else {
            (VerifyPolicy::Off, CorruptionResponse::FailFast)
        };
        let session = GridSession::open(s.storage.clone(), policy, response)?;
        let open_s = watch.elapsed().as_secs_f64();
        setups.push(Timed::of(s.preprocess_s + open_s, &setup));
        preprocesses.push(s.preprocess_s);
        opens.push(open_s);
        staged = Some((s, session));
    }
    let (stage, session) = staged.expect("SETUP_REPEATS > 0");
    drop(graph);

    let bench = Bench {
        stage: &stage,
        session: (!sparse).then_some(session),
        config,
        sink: Arc::new(CountingSink::new()),
        root,
        sparse,
    };

    let mut plain: Vec<Job> = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let mut first: Option<(u64, Vec<u32>)> = None;
    let watch = StealWatch::start();
    let min_jobs = if opts.trace { 2 * MIN_JOBS } else { MIN_JOBS };
    let mut n = 0;
    while keep_going(watch.elapsed_s(), opts.seconds, n, min_jobs) {
        let traced_job = opts.trace && n % 2 == 1;
        n += 1;
        let result = bench.run_job(traced_job).map_err(|e| e.to_string());
        let Some((job, values)) = out.checks.record("job", result) else {
            break;
        };
        check_values(&mut out.checks, &expected, &values);
        let iterations: Vec<u32> = job.runs.iter().map(|r| r.iterations).collect();
        match &first {
            None => first = Some((job.fingerprint, iterations)),
            Some((fp, its)) => {
                out.checks
                    .expect("fingerprint repeats", *fp == job.fingerprint, || {
                        format!("{:016x} vs {:016x}", job.fingerprint, fp)
                    });
                out.checks
                    .expect("iterations repeat", *its == iterations, || {
                        format!("{iterations:?} vs {its:?}")
                    });
            }
        }
        let corrupt: u64 = job.runs.iter().map(|r| r.corrupt_blocks).sum();
        out.checks.expect("no corrupt blocks", corrupt == 0, || {
            format!("{corrupt} corrupt")
        });
        if traced_job {
            traced.push(job);
        } else {
            plain.push(job);
        }
    }
    if opts.trace {
        neutrality(&mut out.checks, &plain, &traced);
    }
    if let Some((fp, its)) = &first {
        out.note("value_fingerprint", format!("{fp:016x}"));
        out.note("iterations", format!("{its:?}"));
    }
    out.note(
        "jobs",
        format!("{} untraced, {} traced", plain.len(), traced.len()),
    );
    let walls = |jobs: &[Job]| jobs.iter().map(|j| j.time.wall_s).collect::<Vec<_>>();
    out.note("steal_share", format!("{:.4}", watch.share()));
    out.note("job_s wall samples", samples(&walls(&plain)));
    let setup_walls: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    out.note("setup_s wall samples", samples(&setup_walls));

    if opts.trace {
        let per_job: Vec<Metrics> = traced.iter().map(|j| job_layers(j, edge_size)).collect();
        out.metrics = layer_metrics::traced(
            &per_job,
            median(&preprocesses),
            open_median(&opens, &traced),
            &walls(&traced),
            &walls(&plain),
        );
        out.note(
            "runtime.ns_per_edge",
            "computed: runtime.compute_s / (accounted read bytes / edge bytes)",
        );
    } else {
        let units: Vec<_> = plain.iter().map(|j| (j.time, j.io)).collect();
        end_to_end(&mut out, &setups, &units);
    }
    Ok(out)
}

/// `graph.open_s`: the per-job opens of the verified workload, else the
/// set-up opens.
fn open_median(setup_opens: &[f64], traced: &[Job]) -> f64 {
    let job_opens: Vec<f64> = traced
        .iter()
        .map(|j| j.open_s)
        .filter(|&s| s > 0.0)
        .collect();
    if job_opens.is_empty() {
        median(setup_opens)
    } else {
        median(&job_opens)
    }
}

/// Compares a job's committed values with the in-memory oracle, using
/// the tolerances of the repository's equivalence tests.
fn check_values(checks: &mut Checks, expected: &Expected, values: &[Vec<u64>]) {
    match expected {
        Expected::Dense(pr, prd) => {
            let got_pr: Vec<f32> = values[0]
                .iter()
                .map(|&b| f32::from_bits(b as u32))
                .collect();
            let got_prd: Vec<f32> = values[1]
                .iter()
                .map(|&b| <(f32, f32)>::from_bits(b).0)
                .collect();
            checks.record("pagerank matches reference", close(&got_pr, pr, 1e-3));
            checks.record(
                "pagerank-delta matches reference",
                close(&got_prd, prd, 1e-3),
            );
        }
        Expected::Sparse(dist) => {
            let got: Vec<f32> = values[0]
                .iter()
                .map(|&b| f32::from_bits(b as u32))
                .collect();
            let mismatch = got.iter().zip(dist).position(|(a, b)| {
                if b.is_infinite() {
                    !a.is_infinite()
                } else {
                    (a - b).abs() >= 1e-4
                }
            });
            let result = match mismatch {
                _ if got.len() != dist.len() => {
                    Err(format!("{} values, want {}", got.len(), dist.len()))
                }
                Some(v) => Err(format!("vertex {v}: {} vs {}", got[v], dist[v])),
                None => Ok(()),
            };
            checks.record("sssp matches reference", result);
        }
    }
}

/// `|a - b| <= rel * max(|b|, 1)` for every vertex.
fn close(got: &[f32], want: &[f32], rel: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| (a - b).abs() > rel * b.abs().max(1.0))
    {
        Some(v) => Err(format!("vertex {v}: {} vs {}", got[v], want[v])),
        None => Ok(()),
    }
}

/// Traced and untraced jobs of one run must agree on every counter the
/// program reports: tracing observes, it never changes the work.
fn neutrality(checks: &mut Checks, plain: &[Job], traced: &[Job]) {
    let (Some(a), Some(b)) = (plain.first(), traced.first()) else {
        return;
    };
    let key = |j: &Job| {
        j.runs
            .iter()
            .map(|r| {
                (
                    r.iterations,
                    r.io.read_bytes(),
                    r.io.write_bytes,
                    r.io.seq_read_ops,
                    r.io.rand_read_ops,
                )
            })
            .collect::<Vec<_>>()
    };
    checks.expect(
        "traced run is neutral",
        key(a) == key(b) && a.fingerprint == b.fingerprint,
        || format!("untraced {:?} vs traced {:?}", key(a), key(b)),
    );
}

/// The per-layer figures of one traced job.
fn job_layers(job: &Job, edge_size: f64) -> Metrics {
    let mut m = Metrics::default();
    let sum = |f: &dyn Fn(&RunStats) -> f64| job.runs.iter().map(f).sum::<f64>();
    let iters = |f: &dyn Fn(&gsd_runtime::IterationStats) -> f64| {
        job.runs
            .iter()
            .flat_map(|r| r.per_iteration.iter())
            .map(f)
            .sum::<f64>()
    };
    let compute_s = sum(&|r| r.compute_time.as_secs_f64());
    let read_bytes = sum(&|r| r.io.read_bytes() as f64);
    m.set("runtime.compute_s", compute_s, "s");
    m.set(
        "runtime.scatter_s",
        iters(&|i| i.scatter_time.as_secs_f64()),
        "s",
    );
    m.set(
        "runtime.apply_s",
        iters(&|i| i.apply_time.as_secs_f64()),
        "s",
    );
    let edges = read_bytes / edge_size;
    m.set(
        "runtime.ns_per_edge",
        if edges > 0.0 {
            compute_s * 1e9 / edges
        } else {
            0.0
        },
        "ns",
    );
    m.set(
        "core.iterations",
        sum(&|r| f64::from(r.iterations)),
        "count",
    );
    let model = |full: bool| {
        iters(&|i| {
            let is_full = i.model == gsd_runtime::IoAccessModel::Full;
            f64::from(u8::from(is_full == full))
        })
    };
    m.set("core.full_iters", model(true), "count");
    m.set("core.on_demand_iters", model(false), "count");
    m.set("core.frontier_sum", iters(&|i| i.frontier as f64), "count");
    m.set(
        "core.scheduler_s",
        sum(&|r| r.scheduler_time.as_secs_f64()),
        "s",
    );
    m.set(
        "core.io_wait_s",
        iters(&|i| i.io_wait_time.as_secs_f64()),
        "s",
    );
    m.set("core.buffer_hits", sum(&|r| r.buffer_hits as f64), "count");
    m.set(
        "core.buffer_hit_mb",
        sum(&|r| r.buffer_hit_bytes as f64) / 1e6,
        "MB",
    );
    m.set(
        "core.cross_iter_edges",
        sum(&|r| r.cross_iter_edges as f64),
        "count",
    );
    let hits = sum(&|r| r.prefetch_hits as f64);
    let misses = sum(&|r| r.prefetch_misses as f64);
    m.set("pipeline.prefetch_hits", hits, "count");
    m.set("pipeline.prefetch_misses", misses, "count");
    m.set(
        "pipeline.hit_ratio",
        layer_metrics::hit_ratio(hits, misses),
        "ratio",
    );
    m.set(
        "pipeline.stall_s",
        sum(&|r| r.prefetch_stall_time.as_secs_f64()),
        "s",
    );
    m.set(
        "integrity.verify_mb",
        sum(&|r| r.verify_bytes as f64) / 1e6,
        "MB",
    );
    m.set(
        "integrity.corrupt_blocks",
        sum(&|r| r.corrupt_blocks as f64),
        "count",
    );
    layer_metrics::io_layers(&mut m, &job.tally);
    m.set("recover.checkpoints", job.ckpts as f64, "count");
    m
}
