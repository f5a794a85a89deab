//! The per-run checkpoint driver every out-of-core engine shares.
//!
//! Engines honour one fault-tolerance contract: checkpoints land only on
//! driver-loop boundaries, resume is bit-identical to an uninterrupted
//! run, and checkpoint traffic is excluded from the run's reported
//! `stats.io`. [`CheckpointDriver`] owns the store, the cadence and the
//! simulated-crash switch; the engine supplies the boundary state.

use crate::config::RecoveryConfig;
use crate::manifest::ManifestTag;
use crate::snapshot::CheckpointData;
use crate::store::{graph_fingerprint, CheckpointStore};
use gsd_io::SharedStorage;
use gsd_trace::TraceSink;
use std::sync::Arc;

/// Per-run checkpoint driver: owns the store, tracks cadence and the
/// simulated-crash switch.
pub struct CheckpointDriver {
    /// The underlying store (exposes `io()` for accounting exclusion).
    pub store: CheckpointStore,
    every: u32,
    halt_after: Option<u32>,
    /// Iteration of the newest committed checkpoint (0 = none yet).
    last: u32,
}

impl CheckpointDriver {
    /// Opens the store under `{grid_prefix}{cfg.dir}` for the run tagged
    /// by `engine`, `algorithm`, `value_bytes`, `n` and `config_hash`
    /// (the hash of the engine's semantically relevant knobs; 0 for
    /// engines without any) and, when resume is enabled, loads the latest
    /// valid checkpoint (dimension-checked against `n`). Returns the
    /// driver plus the state to restore, if any.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        cfg: &RecoveryConfig,
        storage: &SharedStorage,
        grid_prefix: &str,
        engine: &'static str,
        algorithm: &str,
        value_bytes: u64,
        n: u32,
        config_hash: u64,
        trace: Arc<dyn TraceSink>,
    ) -> std::io::Result<(Self, Option<CheckpointData>)> {
        let tag = ManifestTag {
            engine: engine.to_string(),
            algorithm: algorithm.to_string(),
            value_bytes,
            num_vertices: n,
            graph_fingerprint: graph_fingerprint(storage.as_ref(), grid_prefix)?,
            config_hash,
        };
        let mut store = CheckpointStore::new(
            storage.clone(),
            format!("{grid_prefix}{}", cfg.dir),
            cfg.retain,
            tag,
        );
        store.set_trace(trace);
        let mut resumed = None;
        if cfg.resume {
            if let Some(data) = store.latest()? {
                store.check_dimensions(&data, n)?;
                resumed = Some(data);
            }
        }
        let last = resumed.as_ref().map_or(0, |d| d.iteration);
        Ok((
            CheckpointDriver {
                store,
                every: cfg.every,
                halt_after: cfg.halt_after,
                last,
            },
            resumed,
        ))
    }

    /// Whether the cadence calls for a checkpoint at this boundary.
    pub fn due(&self, committed: u32) -> bool {
        committed.saturating_sub(self.last) >= self.every
    }

    /// Commits `data`, then — if `halt_after` is armed and reached —
    /// simulates a crash by failing with `ErrorKind::Interrupted` at the
    /// exact commit point, where storage state equals an uninterrupted
    /// run's at this boundary (modulo checkpoint keys).
    pub fn commit(&mut self, data: &CheckpointData) -> std::io::Result<()> {
        self.store.write(data)?;
        self.last = data.iteration;
        if self.halt_after.is_some_and(|halt| data.iteration >= halt) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!(
                    "simulated crash after checkpoint at iteration {}",
                    data.iteration
                ),
            ));
        }
        Ok(())
    }
}
