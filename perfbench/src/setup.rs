//! Shared set-up: a fresh on-disk grid per set-up, preprocessed from
//! the in-memory input, with the timing decorator in front of it when
//! the run is traced.

use crate::inputs::PAPER_P;
use crate::layers::TimedStorage;
use gsd_graph::{preprocess, Graph, PreprocessConfig};
use gsd_io::{FileStorage, SharedStorage, TempDir};
use gsd_trace::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What every workload receives from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measurement time per run, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Directory under which grids are written (inside the checkout).
    pub work: PathBuf,
}

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// One preprocessed grid on real files.
pub struct Stage {
    /// Self-deleting directory holding the grid.
    _dir: TempDir,
    /// The real file store (accounting lives here).
    pub files: SharedStorage,
    /// The decorator in front of `files`, on traced runs.
    pub timed: Option<Arc<TimedStorage>>,
    /// The store handed to the program: `timed` when present, else
    /// `files`.
    pub storage: SharedStorage,
    /// Wall seconds `preprocess` took.
    pub preprocess_s: f64,
}

/// Preprocesses `graph` into a fresh directory under `work` with the
/// configuration `gsd bench` uses for GraphSD (degree-balanced
/// intervals, P = 20).
pub fn stage(work: &Path, graph: &Graph, traced: bool) -> std::io::Result<Stage> {
    std::fs::create_dir_all(work)?;
    let dir = TempDir::new_in(work, "grid")?;
    let files: SharedStorage = Arc::new(FileStorage::open(dir.path())?);
    let timed = traced.then(|| Arc::new(TimedStorage::new(files.clone())));
    let storage: SharedStorage = match &timed {
        Some(t) => t.clone(),
        None => files.clone(),
    };
    let config = PreprocessConfig {
        degree_balanced: true,
        ..PreprocessConfig::graphsd("")
    }
    .with_intervals(PAPER_P);
    let watch = Stopwatch::start();
    preprocess(graph, storage.as_ref(), &config)?;
    let preprocess_s = watch.elapsed().as_secs_f64();
    Ok(Stage {
        _dir: dir,
        files,
        timed,
        storage,
        preprocess_s,
    })
}

/// Switches the stage's decorator (if any) on or off.
pub fn set_traced(stage: &Stage, on: bool) {
    if let Some(t) = &stage.timed {
        t.set_on(on);
    }
}

/// Whether a measurement loop `elapsed_s` seconds old with `units`
/// done should run another unit.
pub fn keep_going(elapsed_s: f64, seconds: f64, units: usize, min_units: usize) -> bool {
    units < min_units || elapsed_s < seconds
}
