//! Bit-packable vertex values.
//!
//! Engines hold vertex values and accumulators in plain `Vec`s; the
//! 64-bit packing is what checkpoints persist (see `gsd-recover`'s
//! `CheckpointData`) and what value fingerprints hash. Programs define
//! their own packed types (e.g. PageRank-Delta packs `(rank: f32, delta:
//! f32)`).

/// A vertex value or accumulator that round-trips through 64 bits.
///
/// `from_bits(to_bits(v)) == v` must hold for every `v` the program
/// produces. Checkpoints and fingerprints compare *bit patterns*, so
/// `f32::NAN` values should be avoided (programs here never produce NaN).
pub trait Value: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Packs the value into 64 bits.
    fn to_bits(self) -> u64;
    /// Unpacks a value previously packed with [`Self::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

impl Value for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl Value for u32 {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl Value for i64 {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
}

impl Value for i32 {
    fn to_bits(self) -> u64 {
        self as u32 as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32 as i32
    }
}

impl Value for f32 {
    fn to_bits(self) -> u64 {
        f32::to_bits(self) as u64
    }
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl Value for f64 {
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Value for (f32, f32) {
    fn to_bits(self) -> u64 {
        ((f32::to_bits(self.0) as u64) << 32) | f32::to_bits(self.1) as u64
    }
    fn from_bits(bits: u64) -> Self {
        (
            f32::from_bits((bits >> 32) as u32),
            f32::from_bits(bits as u32),
        )
    }
}

impl Value for (u32, u32) {
    fn to_bits(self) -> u64 {
        ((self.0 as u64) << 32) | self.1 as u64
    }
    fn from_bits(bits: u64) -> Self {
        ((bits >> 32) as u32, bits as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<V: Value>(v: V) {
        assert_eq!(V::from_bits(v.to_bits()), v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(42u32);
        roundtrip(u32::MAX);
        roundtrip(-7i32);
        roundtrip(i32::MIN);
        roundtrip(-7i64);
        roundtrip(1.5f32);
        roundtrip(-0.0f32);
        roundtrip(f32::INFINITY);
        roundtrip(core::f64::consts::PI);
    }

    #[test]
    fn pair_roundtrips() {
        roundtrip((1.5f32, -2.25f32));
        roundtrip((u32::MAX, 0u32));
        roundtrip((7u32, 9u32));
    }

    #[test]
    fn negative_i32_does_not_smear() {
        // i32 packs via u32 so the high half stays clean.
        assert_eq!((-1i32).to_bits(), 0xFFFF_FFFF);
    }

    #[test]
    fn pair_halves_are_ordered() {
        let bits = (1.0f32, 2.0f32).to_bits();
        assert_eq!((bits >> 32) as u32, 1.0f32.to_bits());
        assert_eq!(bits as u32, 2.0f32.to_bits());
    }
}
