//! The GraphSD repository benchmark: three workloads run against the
//! engine and the serve daemon on real files, each with an untraced
//! end-to-end run and a traced per-layer run. See `README.md` in this
//! directory for the workloads, the metrics and how to run them.

pub mod inputs;
pub mod jobs;
pub mod layer_metrics;
pub mod layers;
pub mod live;
pub mod report;
pub mod setup;

/// FNV-1a/64 over committed value bits, as `gsd run` fingerprints a
/// run: bit-identical results hash identically.
pub fn fingerprint(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
