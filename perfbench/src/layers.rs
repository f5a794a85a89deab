//! The benchmark's two tracing instruments: a timing [`Storage`]
//! decorator and a counting [`TraceSink`].
//!
//! Both sit *outside* the program. The decorator wraps the real
//! [`gsd_io::FileStorage`] and times every call the crates make into
//! storage; the sink is handed to engines and the serve core through
//! their public `set_trace` / constructor hooks. Each has an on/off
//! switch so one open grid can alternate traced and untraced units of
//! work, which is how `trace.overhead_frac` is measured. Switched off,
//! the decorator forwards every call untouched after one atomic load,
//! and the sink reports itself disabled so emitters skip building
//! events.

use gsd_io::{DiskModel, IoStats, SharedStorage, Storage};
use gsd_trace::{CounterRegistry, Stopwatch, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key prefix of gsd-recover checkpoint objects (the engine's
/// `RecoveryConfig::dir` under the grid's empty prefix).
pub const CKPT_PREFIX: &str = "ckpt/";
/// Key prefix of gsd-delta segment and manifest objects.
pub const DELTA_PREFIX: &str = "delta/";

/// One call site's totals: calls, bytes moved, busy time summed over
/// the threads that made the calls.
#[derive(Default)]
struct Op {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl Op {
    fn record(&self, bytes: u64, watch: &Stopwatch) {
        let nanos = u64::try_from(watch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> OpTally {
        OpTally {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one [`Op`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Calls made.
    pub calls: u64,
    /// Bytes moved by those calls.
    pub bytes: u64,
    /// Busy nanoseconds, summed over calling threads.
    pub nanos: u64,
}

impl OpTally {
    fn since(&self, earlier: &OpTally) -> OpTally {
        OpTally {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            nanos: self.nanos - earlier.nanos,
        }
    }

    /// Busy time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Bytes in MB (10^6).
    pub fn mb(&self) -> f64 {
        self.bytes as f64 / 1e6
    }
}

/// Totals of every [`TimedStorage`] call site at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTally {
    /// Accounted reads: `read_at` and `read_all`.
    pub read: OpTally,
    /// Side-channel reads (`read_unaccounted`): integrity verification.
    pub side_read: OpTally,
    /// Whole-object creates.
    pub create: OpTally,
    /// In-place writes.
    pub write_at: OpTally,
    /// Durability barriers.
    pub sync: OpTally,
    /// Deletes.
    pub delete: OpTally,
    /// Every call on a [`CKPT_PREFIX`] key (creates, reads, deletes).
    pub ckpt: OpTally,
    /// Creates and writes on [`CKPT_PREFIX`] keys.
    pub ckpt_write: OpTally,
    /// Creates and writes on [`DELTA_PREFIX`] keys.
    pub delta_write: OpTally,
}

impl IoTally {
    /// The calls made between `earlier` and `self`.
    pub fn since(&self, earlier: &IoTally) -> IoTally {
        IoTally {
            read: self.read.since(&earlier.read),
            side_read: self.side_read.since(&earlier.side_read),
            create: self.create.since(&earlier.create),
            write_at: self.write_at.since(&earlier.write_at),
            sync: self.sync.since(&earlier.sync),
            delete: self.delete.since(&earlier.delete),
            ckpt: self.ckpt.since(&earlier.ckpt),
            ckpt_write: self.ckpt_write.since(&earlier.ckpt_write),
            delta_write: self.delta_write.since(&earlier.delta_write),
        }
    }
}

/// Timing decorator over any [`Storage`]: forwards every method of the
/// trait to the inner store and, while switched on, records calls,
/// bytes and busy time per method and per key class.
pub struct TimedStorage {
    inner: SharedStorage,
    on: AtomicBool,
    read: Op,
    side_read: Op,
    create: Op,
    write_at: Op,
    sync: Op,
    delete: Op,
    ckpt: Op,
    ckpt_write: Op,
    delta_write: Op,
}

impl TimedStorage {
    /// Wraps `inner`, switched on.
    pub fn new(inner: SharedStorage) -> Self {
        TimedStorage {
            inner,
            on: AtomicBool::new(true),
            read: Op::default(),
            side_read: Op::default(),
            create: Op::default(),
            write_at: Op::default(),
            sync: Op::default(),
            delete: Op::default(),
            ckpt: Op::default(),
            ckpt_write: Op::default(),
            delta_write: Op::default(),
        }
    }

    /// Switches recording on or off. Forwarding never stops.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Current totals.
    pub fn tally(&self) -> IoTally {
        IoTally {
            read: self.read.snapshot(),
            side_read: self.side_read.snapshot(),
            create: self.create.snapshot(),
            write_at: self.write_at.snapshot(),
            sync: self.sync.snapshot(),
            delete: self.delete.snapshot(),
            ckpt: self.ckpt.snapshot(),
            ckpt_write: self.ckpt_write.snapshot(),
            delta_write: self.delta_write.snapshot(),
        }
    }

    /// Runs `call` and, when recording, charges it to `op` and to the
    /// class of `key`.
    fn timed<T>(
        &self,
        op: &Op,
        key: Option<&str>,
        bytes: u64,
        write: bool,
        call: impl FnOnce() -> T,
    ) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return call();
        }
        let watch = Stopwatch::start();
        let out = call();
        op.record(bytes, &watch);
        if let Some(key) = key {
            if key.starts_with(CKPT_PREFIX) {
                self.ckpt.record(bytes, &watch);
                if write {
                    self.ckpt_write.record(bytes, &watch);
                }
            } else if write && key.starts_with(DELTA_PREFIX) {
                self.delta_write.record(bytes, &watch);
            }
        }
        out
    }
}

impl Storage for TimedStorage {
    fn create(&self, key: &str, data: &[u8]) -> gsd_io::Result<()> {
        self.timed(&self.create, Some(key), data.len() as u64, true, || {
            self.inner.create(key, data)
        })
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        let n = buf.len() as u64;
        self.timed(&self.read, Some(key), n, false, || {
            self.inner.read_at(key, offset, buf)
        })
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> gsd_io::Result<()> {
        self.timed(&self.write_at, Some(key), data.len() as u64, true, || {
            self.inner.write_at(key, offset, data)
        })
    }

    fn len(&self, key: &str) -> gsd_io::Result<u64> {
        self.inner.len(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn delete(&self, key: &str) -> gsd_io::Result<()> {
        self.timed(&self.delete, Some(key), 0, false, || self.inner.delete(key))
    }

    fn list_keys(&self) -> Vec<String> {
        self.inner.list_keys()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn disk_model(&self) -> Option<DiskModel> {
        self.inner.disk_model()
    }

    fn counters(&self) -> Option<&CounterRegistry> {
        self.inner.counters()
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        let n = buf.len() as u64;
        self.timed(&self.side_read, Some(key), n, false, || {
            self.inner.read_unaccounted(key, offset, buf)
        })
    }

    fn read_all(&self, key: &str) -> gsd_io::Result<Vec<u8>> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.read_all(key);
        }
        let watch = Stopwatch::start();
        let out = self.inner.read_all(key);
        let n = out.as_ref().map_or(0, |b| b.len() as u64);
        self.read.record(n, &watch);
        if key.starts_with(CKPT_PREFIX) {
            self.ckpt.record(n, &watch);
        }
        out
    }

    fn sync(&self) -> gsd_io::Result<()> {
        self.timed(&self.sync, None, 0, false, || self.inner.sync())
    }
}

/// Counting [`TraceSink`]: tallies events by kind while switched on,
/// and reports itself disabled while off.
#[derive(Default)]
pub struct CountingSink {
    on: AtomicBool,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl CountingSink {
    /// A sink, switched on.
    pub fn new() -> Self {
        CountingSink {
            on: AtomicBool::new(true),
            ..CountingSink::default()
        }
    }

    /// Switches counting on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Events of `kind` (see [`TraceEvent::kind`]) counted so far.
    pub fn count(&self, kind: &str) -> u64 {
        let counts = self.counts.lock().expect("sink counts poisoned by a panic");
        counts.get(kind).copied().unwrap_or(0)
    }
}

impl TraceSink for CountingSink {
    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn emit(&self, event: &TraceEvent) {
        if !self.enabled() {
            return;
        }
        let mut counts = self.counts.lock().expect("sink counts poisoned by a panic");
        *counts.entry(event.kind()).or_insert(0) += 1;
    }
}
