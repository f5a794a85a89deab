//! Bitset frontiers — the `V_active`, `Out` and `OutNI` sets of the
//! paper's Algorithm 1.
//!
//! A plain `u64`-word bitset with one writer: mutators take `&mut self`,
//! and iteration is always ascending, so every engine visits members in
//! the same order on every run.

/// A fixed-universe set of vertex ids backed by a bitset.
#[derive(Clone)]
pub struct Frontier {
    words: Vec<u64>,
    universe: u32,
}

impl Frontier {
    /// Empty frontier over `0..universe`.
    pub fn empty(universe: u32) -> Self {
        Frontier {
            words: vec![0; (universe as usize).div_ceil(64)],
            universe,
        }
    }

    /// Full frontier over `0..universe`.
    pub fn full(universe: u32) -> Self {
        let mut f = Frontier::empty(universe);
        for (w, word) in f.words.iter_mut().enumerate() {
            let base = (w * 64) as u32;
            let bits_in_word = (universe.saturating_sub(base)).min(64);
            *word = if bits_in_word == 64 {
                u64::MAX
            } else {
                (1u64 << bits_in_word) - 1
            };
        }
        f
    }

    /// Frontier containing exactly `seeds`.
    pub fn from_seeds(universe: u32, seeds: &[u32]) -> Self {
        let mut f = Frontier::empty(universe);
        for &s in seeds {
            f.insert(s);
        }
        f
    }

    /// Size of the universe (max vertex id + 1).
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Inserts `v`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        debug_assert!(
            v < self.universe,
            "vertex {v} outside universe {}",
            self.universe
        );
        let bit = 1u64 << (v % 64);
        let word = &mut self.words[v as usize / 64];
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: u32) -> bool {
        debug_assert!(v < self.universe);
        let bit = 1u64 << (v % 64);
        let word = &mut self.words[v as usize / 64];
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        debug_assert!(v < self.universe);
        self.words[v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// Number of members (popcount scan, `O(universe/64)`).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                Some(wi as u32 * 64 + tz)
            })
        })
    }

    /// Members restricted to `range`, ascending.
    pub fn iter_range(&self, range: std::ops::Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let start = range.start;
        let end = range.end;
        self.iter()
            .skip_while(move |&v| v < start)
            .take_while(move |&v| v < end)
    }

    /// Collects members into a vector (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for Frontier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontier")
            .field("universe", &self.universe)
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut f = Frontier::empty(100);
        assert!(f.insert(5));
        assert!(!f.insert(5), "second insert reports already-present");
        assert!(f.contains(5));
        assert!(!f.contains(6));
        assert!(f.remove(5));
        assert!(!f.remove(5));
        assert!(f.is_empty());
    }

    #[test]
    fn full_has_exact_count_on_ragged_universe() {
        for n in [1u32, 63, 64, 65, 100, 128, 129] {
            let f = Frontier::full(n);
            assert_eq!(f.count(), n as u64, "universe {n}");
            assert!(f.contains(n - 1));
        }
    }

    #[test]
    fn full_of_zero_universe() {
        let f = Frontier::full(0);
        assert_eq!(f.count(), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let f = Frontier::from_seeds(200, &[199, 0, 64, 63, 65, 127, 128]);
        assert_eq!(f.to_vec(), vec![0, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn iter_range_restricts() {
        let f = Frontier::from_seeds(200, &[1, 50, 100, 150, 199]);
        let got: Vec<u32> = f.iter_range(50..150).collect();
        assert_eq!(got, vec![50, 100]);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Frontier::from_seeds(10, &[1]);
        let b = a.clone();
        a.insert(2);
        assert!(!b.contains(2));
    }

    #[test]
    fn clear_empties_every_word() {
        let mut f = Frontier::full(130);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.universe(), 130);
    }
}
