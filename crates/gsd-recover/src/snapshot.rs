//! The versioned, checksummed snapshot format.
//!
//! A snapshot is the complete engine state at a driver-loop boundary:
//!
//! ```text
//! magic "GSDSNAP1" | section_count: u32 LE
//! per section:
//!   name_len: u32 | name (utf-8) | payload_len: u64 | crc32: u32 | payload
//! ```
//!
//! Sections are individually CRC32-checksummed so a torn write or bit rot
//! anywhere in the object is detected on load, and named so the format
//! can grow sections without a version bump. Vertex values and
//! accumulators are stored as the `u64` bit patterns of
//! `gsd_runtime::Value::to_bits`, which is what makes resumed runs
//! *bit-identical* — no float round-trips through text.

use gsd_runtime::{Frontier, RunStats, Value};
use std::io::{Error, ErrorKind};

const MAGIC: &[u8; 8] = b"GSDSNAP1";

/// Complete engine state at one committed iteration boundary.
///
/// `values`/`accum` hold `Value::to_bits` bit patterns; `frontier` and
/// `touched` are sorted member lists of the corresponding bitmaps. The
/// `extra` section is an engine-private payload (GraphSD stores its
/// scheduler-decision log and sub-block buffer residency there) that the
/// format carries opaquely.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Last committed iteration this state reflects.
    pub iteration: u32,
    /// Committed vertex values (`val_t`), one bit pattern per vertex.
    pub values: Vec<u64>,
    /// Pre-seeded next-iteration accumulator (cross-iteration updates).
    pub accum: Vec<u64>,
    /// Active-vertex frontier for the next iteration.
    pub frontier: Vec<u32>,
    /// Vertices with pre-seeded accumulator contributions awaiting their
    /// apply barrier.
    pub touched: Vec<u32>,
    /// Cumulative run statistics up to (and including) `iteration`,
    /// with checkpoint traffic already excluded from `stats.io`.
    pub stats: RunStats,
    /// Opaque engine-specific state (serialized by the engine).
    pub extra: Vec<u8>,
}

fn push_section(out: &mut Vec<u8>, name: &str, payload: &[u8]) {
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crate::hash::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn u64s_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn u32s_to_bytes(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn corrupt(what: &str) -> Error {
    Error::new(ErrorKind::InvalidData, format!("corrupt snapshot: {what}"))
}

fn bytes_to_u64s(bytes: &[u8], section: &str) -> std::io::Result<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(corrupt(&section_len(section)));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

fn bytes_to_u32s(bytes: &[u8], section: &str) -> std::io::Result<Vec<u32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(corrupt(&section_len(section)));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn section_len(section: &str) -> String {
    format!("section {section} has a misaligned length")
}

impl CheckpointData {
    /// Serializes the snapshot to its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let sections: Vec<(&str, Vec<u8>)> = vec![
            ("iteration", self.iteration.to_le_bytes().to_vec()),
            ("values", u64s_to_bytes(&self.values)),
            ("accum", u64s_to_bytes(&self.accum)),
            ("frontier", u32s_to_bytes(&self.frontier)),
            ("touched", u32s_to_bytes(&self.touched)),
            ("stats", serde_json::to_vec(&self.stats).unwrap_or_default()),
            ("extra", self.extra.clone()),
        ];
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (name, payload) in &sections {
            push_section(&mut out, name, payload);
        }
        out
    }

    /// Parses and validates a binary snapshot: magic, section framing and
    /// every section's CRC32. Any mismatch is `ErrorKind::InvalidData`.
    pub fn decode(blob: &[u8]) -> std::io::Result<Self> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> std::io::Result<&[u8]> {
            let end = at
                .checked_add(n)
                .ok_or_else(|| corrupt("length overflow"))?;
            if end > blob.len() {
                return Err(corrupt("truncated"));
            }
            let slice = &blob[*at..end];
            *at = end;
            Ok(slice)
        };
        if take(&mut at, 8)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let count_bytes = take(&mut at, 4)?;
        let count = u32::from_le_bytes([
            count_bytes[0],
            count_bytes[1],
            count_bytes[2],
            count_bytes[3],
        ]);

        let mut iteration = None;
        let mut values = None;
        let mut accum = None;
        let mut frontier = None;
        let mut touched = None;
        let mut stats = None;
        let mut extra = None;
        for _ in 0..count {
            let nb = take(&mut at, 4)?;
            let name_len = u32::from_le_bytes([nb[0], nb[1], nb[2], nb[3]]) as usize;
            let name = std::str::from_utf8(take(&mut at, name_len)?)
                .map_err(|_| corrupt("non-utf8 section name"))?
                .to_string();
            let lb = take(&mut at, 8)?;
            let payload_len =
                u64::from_le_bytes([lb[0], lb[1], lb[2], lb[3], lb[4], lb[5], lb[6], lb[7]])
                    as usize;
            let cb = take(&mut at, 4)?;
            let want_crc = u32::from_le_bytes([cb[0], cb[1], cb[2], cb[3]]);
            let payload = take(&mut at, payload_len)?;
            if crate::hash::crc32(payload) != want_crc {
                return Err(corrupt(&format!("crc mismatch in section {name}")));
            }
            match name.as_str() {
                "iteration" => {
                    if payload.len() != 4 {
                        return Err(corrupt(&section_len("iteration")));
                    }
                    iteration = Some(u32::from_le_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]));
                }
                "values" => values = Some(bytes_to_u64s(payload, "values")?),
                "accum" => accum = Some(bytes_to_u64s(payload, "accum")?),
                "frontier" => frontier = Some(bytes_to_u32s(payload, "frontier")?),
                "touched" => touched = Some(bytes_to_u32s(payload, "touched")?),
                "stats" => {
                    stats = Some(
                        serde_json::from_slice(payload)
                            .map_err(|e| corrupt(&format!("stats section: {e}")))?,
                    )
                }
                "extra" => extra = Some(payload.to_vec()),
                // Unknown sections from a newer writer are skipped: they
                // were CRC-validated above, and the known set is complete.
                _ => {}
            }
        }
        if at != blob.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(CheckpointData {
            iteration: iteration.ok_or_else(|| corrupt("missing section iteration"))?,
            values: values.ok_or_else(|| corrupt("missing section values"))?,
            accum: accum.ok_or_else(|| corrupt("missing section accum"))?,
            frontier: frontier.ok_or_else(|| corrupt("missing section frontier"))?,
            touched: touched.ok_or_else(|| corrupt("missing section touched"))?,
            stats: stats.ok_or_else(|| corrupt("missing section stats"))?,
            extra: extra.ok_or_else(|| corrupt("missing section extra"))?,
        })
    }

    /// Captures an engine's boundary state: committed `values`, the
    /// pre-seeded `accum`, the `frontier`, and the `touched` recipients of
    /// that accumulator, encoded as bit patterns and sorted member lists.
    pub fn capture<V: Value, A: Value>(
        iteration: u32,
        values: &[V],
        accum: &[A],
        frontier: &Frontier,
        touched: &Frontier,
        stats: RunStats,
        extra: Vec<u8>,
    ) -> Self {
        CheckpointData {
            iteration,
            values: values.iter().map(|v| v.to_bits()).collect(),
            accum: accum.iter().map(|a| a.to_bits()).collect(),
            frontier: frontier.to_vec(),
            touched: touched.to_vec(),
            stats,
            extra,
        }
    }

    /// The inverse of [`Self::capture`]: decodes the boundary state into
    /// an engine's buffers. The sets keep their universe.
    pub fn restore<V: Value, A: Value>(
        &self,
        values: &mut [V],
        accum: &mut [A],
        frontier: &mut Frontier,
        touched: &mut Frontier,
    ) {
        for (v, &bits) in values.iter_mut().zip(&self.values) {
            *v = V::from_bits(bits);
        }
        for (a, &bits) in accum.iter_mut().zip(&self.accum) {
            *a = A::from_bits(bits);
        }
        *frontier = Frontier::from_seeds(frontier.universe(), &self.frontier);
        *touched = Frontier::from_seeds(touched.universe(), &self.touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        let mut stats = RunStats::new("graphsd", "pagerank");
        stats.iterations = 3;
        stats.cross_iter_edges = 17;
        CheckpointData {
            iteration: 3,
            values: vec![0, u64::MAX, 0x0123_4567_89ab_cdef],
            accum: vec![1, 2, 3],
            frontier: vec![0, 2],
            touched: vec![1],
            stats,
            extra: b"{\"decisions\":[]}".to_vec(),
        }
    }

    #[test]
    fn roundtrips() {
        let data = sample();
        let blob = data.encode();
        let back = CheckpointData::decode(&blob).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn capture_restore_roundtrips_packed_pairs() {
        let values = vec![(0.25f32, -1.5f32), (3.0, 0.0)];
        let accum = vec![(0.0f32, 0.125f32), (-0.0, 2.0)];
        let frontier = Frontier::from_seeds(2, &[1]);
        let touched = Frontier::from_seeds(2, &[0, 1]);
        let stats = RunStats::new("graphsd", "pagerank-delta");
        let data = CheckpointData::capture(4, &values, &accum, &frontier, &touched, stats, vec![9]);
        assert_eq!(data.values[0], (0.25f32, -1.5f32).to_bits());
        assert_eq!(data.frontier, vec![1]);
        let data = CheckpointData::decode(&data.encode()).unwrap();
        let mut v = vec![(0.0f32, 0.0f32); 2];
        let mut a = vec![(0.0f32, 0.0f32); 2];
        let (mut f, mut t) = (Frontier::empty(2), Frontier::empty(2));
        data.restore(&mut v, &mut a, &mut f, &mut t);
        assert_eq!(v, values);
        assert_eq!(a[1].0.to_bits(), (-0.0f32).to_bits(), "sign bit survives");
        assert_eq!(a, accum);
        assert_eq!(f.to_vec(), vec![1]);
        assert_eq!(t.to_vec(), vec![0, 1]);
        assert_eq!(data.iteration, 4);
        assert_eq!(data.extra, vec![9]);
    }

    #[test]
    fn empty_state_roundtrips() {
        let data = CheckpointData {
            iteration: 0,
            values: vec![],
            accum: vec![],
            frontier: vec![],
            touched: vec![],
            stats: RunStats::new("x", "y"),
            extra: vec![],
        };
        assert_eq!(CheckpointData::decode(&data.encode()).unwrap(), data);
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let blob = sample().encode();
        // Flip one bit in every byte position; decode must never silently
        // succeed with different content.
        for pos in 0..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            match CheckpointData::decode(&bad) {
                Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "pos {pos}"),
                Ok(decoded) => assert_eq!(decoded, sample(), "pos {pos}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let blob = sample().encode();
        for cut in 0..blob.len() {
            assert!(
                CheckpointData::decode(&blob[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
    }
}
