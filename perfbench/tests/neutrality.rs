//! The traced run must observe the program without changing it:
//!
//! * the timing decorator forwards every `Storage` method to the store
//!   it wraps — the side-channel and default-bodied ones included — and
//!   records nothing while switched off;
//! * engine runs and a live-serve cycle traced through the decorator
//!   and the counting sink commit the same values, iterations, accounted
//!   I/O and serve counters as untraced ones.

use gsd_algos::{PageRank, Sssp};
use gsd_core::{GraphSdConfig, GridSession, PipelineConfig};
use gsd_graph::{
    preprocess, CorruptionResponse, GeneratorConfig, Graph, GraphKind, PreprocessConfig,
    VerifyPolicy,
};
use gsd_io::{DiskModel, IoStats, MemStorage, SharedStorage, Storage};
use gsd_perfbench::fingerprint;
use gsd_perfbench::layers::{CountingSink, TimedStorage};
use gsd_perfbench::live::Live;
use gsd_perfbench::report::Checks;
use gsd_perfbench::setup::Opts;
use gsd_recover::RecoveryConfig;
use gsd_runtime::{Engine, RunOptions, RunStats, Value};
use gsd_trace::{CounterRegistry, TraceSink};
use std::sync::{Arc, Mutex};

/// A store that answers every method itself and logs which ran.
struct Recorder {
    inner: MemStorage,
    calls: Mutex<Vec<&'static str>>,
    registry: CounterRegistry,
}

impl Recorder {
    fn log(&self, name: &'static str) {
        self.calls.lock().unwrap().push(name);
    }

    fn take(&self) -> Vec<&'static str> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl Storage for Recorder {
    fn create(&self, key: &str, data: &[u8]) -> gsd_io::Result<()> {
        self.log("create");
        self.inner.create(key, data)
    }
    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        self.log("read_at");
        self.inner.read_at(key, offset, buf)
    }
    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> gsd_io::Result<()> {
        self.log("write_at");
        self.inner.write_at(key, offset, data)
    }
    fn len(&self, key: &str) -> gsd_io::Result<u64> {
        self.log("len");
        self.inner.len(key)
    }
    fn exists(&self, key: &str) -> bool {
        self.log("exists");
        self.inner.exists(key)
    }
    fn delete(&self, key: &str) -> gsd_io::Result<()> {
        self.log("delete");
        self.inner.delete(key)
    }
    fn list_keys(&self) -> Vec<String> {
        self.log("list_keys");
        self.inner.list_keys()
    }
    fn stats(&self) -> Arc<IoStats> {
        self.log("stats");
        self.inner.stats()
    }
    fn disk_model(&self) -> Option<DiskModel> {
        self.log("disk_model");
        Some(DiskModel::ssd())
    }
    fn counters(&self) -> Option<&CounterRegistry> {
        self.log("counters");
        Some(&self.registry)
    }
    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        self.log("read_unaccounted");
        self.inner.read_unaccounted(key, offset, buf)
    }
    fn read_all(&self, key: &str) -> gsd_io::Result<Vec<u8>> {
        self.log("read_all");
        self.inner.read_all(key)
    }
    fn sync(&self) -> gsd_io::Result<()> {
        self.log("sync");
        self.inner.sync()
    }
}

/// Calls every `Storage` method once through `store`.
fn call_every_method(store: &dyn Storage) {
    let mut buf = [0u8; 4];
    store.create("ckpt/a", b"abcdefgh").unwrap();
    store.read_at("ckpt/a", 2, &mut buf).unwrap();
    store.write_at("ckpt/a", 0, b"zz").unwrap();
    assert_eq!(store.len("ckpt/a").unwrap(), 8);
    assert!(store.exists("ckpt/a"));
    assert_eq!(store.list_keys(), vec!["ckpt/a".to_string()]);
    let _ = store.stats();
    assert_eq!(store.disk_model(), Some(DiskModel::ssd()));
    assert!(store.counters().is_some());
    store.read_unaccounted("ckpt/a", 4, &mut buf).unwrap();
    assert_eq!(buf, *b"efgh");
    assert_eq!(store.read_all("ckpt/a").unwrap(), b"zzcdefgh".to_vec());
    store.sync().unwrap();
    store.delete("ckpt/a").unwrap();
}

const EVERY_METHOD: [&str; 13] = [
    "create",
    "read_at",
    "write_at",
    "len",
    "exists",
    "list_keys",
    "stats",
    "disk_model",
    "counters",
    "read_unaccounted",
    "read_all",
    "sync",
    "delete",
];

#[test]
fn decorator_forwards_every_storage_method() {
    let recorder = Arc::new(Recorder {
        inner: MemStorage::new(),
        calls: Mutex::new(Vec::new()),
        registry: CounterRegistry::new(),
    });
    let timed = TimedStorage::new(recorder.clone());
    call_every_method(&timed);
    // Each method reaches the inner store as itself: the side read is
    // not turned into an accounted read, nor read_all into len+read_at.
    assert_eq!(recorder.take(), EVERY_METHOD.to_vec());

    let t = timed.tally();
    assert_eq!((t.read.calls, t.read.bytes), (2, 12), "read_at + read_all");
    assert_eq!((t.side_read.calls, t.side_read.bytes), (1, 4));
    assert_eq!((t.create.calls, t.write_at.calls), (1, 1));
    assert_eq!((t.sync.calls, t.delete.calls), (1, 1));
    assert_eq!(
        t.ckpt.calls, 6,
        "every keyed call on ckpt/ is charged to gsd-recover"
    );
    assert_eq!((t.ckpt_write.calls, t.ckpt_write.bytes), (2, 10));

    // Switched off, it still forwards everything and records nothing.
    timed.set_on(false);
    call_every_method(&timed);
    assert_eq!(recorder.take(), EVERY_METHOD.to_vec());
    assert_eq!(timed.tally(), t);
}

#[test]
fn decorator_shares_the_inner_accounting() {
    let inner: SharedStorage = Arc::new(MemStorage::new());
    let timed = TimedStorage::new(inner.clone());
    timed.create("k", &[7u8; 64]).unwrap();
    let mut buf = [0u8; 16];
    timed.read_at("k", 0, &mut buf).unwrap();
    timed.read_unaccounted("k", 16, &mut buf).unwrap();
    assert!(Arc::ptr_eq(&timed.stats(), &inner.stats()));
    let s = inner.stats().snapshot();
    assert_eq!(
        (s.read_bytes(), s.write_bytes),
        (16, 64),
        "side reads stay unaccounted"
    );
}

fn graph(weighted: bool) -> Graph {
    let g = GeneratorConfig::new(GraphKind::RMat, 2_000, 16_000, 7).generate();
    if weighted {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        gsd_graph::generators::randomize_weights(g, &mut rng)
    } else {
        g
    }
}

/// Runs `program` over a fresh grid of `g` the way the benchmark's
/// sparse job does (full verify, checkpoints, prefetch), traced or not.
fn engine_run<P: gsd_runtime::VertexProgram>(
    g: &Graph,
    program: &P,
    traced: bool,
) -> (RunStats, u64, Option<(u64, u64)>) {
    let files: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        g,
        files.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(4),
    )
    .unwrap();
    let timed = Arc::new(TimedStorage::new(files.clone()));
    let sink = Arc::new(CountingSink::new());
    let storage: SharedStorage = if traced { timed.clone() } else { files.clone() };
    let session =
        GridSession::open(storage, VerifyPolicy::Full, CorruptionResponse::FailFast).unwrap();
    let config = GraphSdConfig::full()
        .with_memory_budget(8_000)
        .with_prefetch(PipelineConfig::with_depth(2))
        .with_checkpoint(RecoveryConfig {
            resume: false,
            ..RecoveryConfig::every(2)
        });
    let mut engine = session.engine(config).unwrap();
    if traced {
        let trace: Arc<dyn TraceSink> = sink.clone();
        engine.set_trace(trace);
    }
    let r = engine.run(program, &RunOptions::default()).unwrap();
    let fp = fingerprint(r.values.iter().map(|v| v.to_bits()));
    let observed = traced.then(|| (sink.count("ckpt_written"), timed.tally().ckpt.calls));
    (r.stats, fp, observed)
}

#[test]
fn traced_engine_runs_are_neutral() {
    let weighted = graph(true);
    let (plain, fp_plain, _) = engine_run(&weighted, &Sssp::new(0), false);
    let (traced, fp_traced, observed) = engine_run(&weighted, &Sssp::new(0), true);
    assert_eq!(fp_plain, fp_traced);
    assert_eq!(plain.iterations, traced.iterations);
    assert_eq!(plain.io, traced.io);
    assert_eq!(plain.verify_bytes, traced.verify_bytes);
    let (ckpts, ckpt_calls) = observed.unwrap();
    assert!(
        ckpts > 0 && ckpt_calls > 0,
        "the traced run saw the checkpoints"
    );

    let unweighted = graph(false);
    let (plain, fp_plain, _) = engine_run(&unweighted, &PageRank::paper(), false);
    let (traced, fp_traced, _) = engine_run(&unweighted, &PageRank::paper(), true);
    assert_eq!(fp_plain, fp_traced);
    assert_eq!((plain.iterations, plain.io), (traced.iterations, traced.io));
}

#[test]
fn traced_live_cycle_is_neutral() {
    let g = graph(false);
    let run = |trace: bool| {
        let opts = Opts {
            seed: 5,
            seconds: 1.0,
            trace,
            work: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("neutral-live-{trace}")),
        };
        let (mut live, _) = Live::start(&opts, &g, 64 << 10).unwrap();
        let mut checks = Checks::default();
        let cycle = live.cycle(&mut checks, trace);
        let fp = live.final_checks(&mut checks).unwrap();
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert!(checks.attempted > 0);
        let layers = cycle.layers.get("serve.cache_evictions").unwrap();
        (
            live.counters(),
            fp,
            cycle.io,
            layers,
            cycle.layers.get("io.read_calls"),
        )
    };
    let (counters, fp, io, evictions, reads) = run(false);
    let (t_counters, t_fp, t_io, t_evictions, t_reads) = run(true);
    assert_eq!(counters, t_counters);
    assert_eq!(fp, t_fp);
    assert_eq!(io, t_io);
    assert_eq!(evictions, t_evictions);
    assert!(evictions > 0.0, "a 64 KiB cache must evict");
    assert_eq!(
        reads,
        Some(0.0),
        "untraced cycles record no decorator calls"
    );
    assert!(t_reads.unwrap() > 0.0);
}
