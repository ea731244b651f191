//! Fixed-width bitset rows over one flat `Vec<u64>`.
//!
//! The bit-parallel BFS kernel ([`crate::traversal::bfs64_distances_csr`])
//! keeps one machine word per vertex for each of its working sets
//! (visited / frontier / next), so that a single OR advances up to 64
//! concurrent BFS waves. [`BitRows`] is that storage: `rows` rows of
//! `bits_per_row` bits each, packed contiguously so the whole structure is
//! one allocation and scans are cache-linear.

/// `rows × bits_per_row` bit matrix in a single flat allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitRows {
    rows: usize,
    bits_per_row: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitRows {
    /// All-zero matrix with `rows` rows of `bits_per_row` bits.
    pub fn new(rows: usize, bits_per_row: usize) -> Self {
        let words_per_row = bits_per_row.div_ceil(64).max(1);
        BitRows {
            rows,
            bits_per_row,
            words_per_row,
            data: vec![0u64; rows * words_per_row],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    #[inline]
    pub fn bits_per_row(&self) -> usize {
        self.bits_per_row
    }

    /// Words per row (`⌈bits_per_row / 64⌉`, at least 1).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Set bit `c` of row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(c < self.bits_per_row);
        self.data[r * self.words_per_row + c / 64] |= 1u64 << (c % 64);
    }

    /// Test bit `c` of row `r`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(c < self.bits_per_row);
        self.data[r * self.words_per_row + c / 64] & (1u64 << (c % 64)) != 0
    }

    /// Row `r` as a word slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Number of set bits in row `r`.
    pub fn count_ones(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zero every row.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    // --- single-word fast path (rows of at most 64 bits) ----------------
    //
    // The BFS kernel always works in blocks of ≤ 64 sources, so each row is
    // exactly one word; these accessors make that hot loop branch-free.

    /// Row `r` as one word. Only valid when `bits_per_row ≤ 64`.
    #[inline]
    pub fn word(&self, r: usize) -> u64 {
        debug_assert_eq!(self.words_per_row, 1);
        self.data[r]
    }

    /// Overwrite row `r`'s single word. Only valid when `bits_per_row ≤ 64`.
    #[inline]
    pub fn set_word(&mut self, r: usize, w: u64) {
        debug_assert_eq!(self.words_per_row, 1);
        self.data[r] = w;
    }

    /// OR `w` into row `r`'s single word. Only valid when `bits_per_row ≤ 64`.
    #[inline]
    pub fn or_word(&mut self, r: usize, w: u64) {
        debug_assert_eq!(self.words_per_row, 1);
        self.data[r] |= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitRows::new(3, 100);
        assert_eq!(b.words_per_row(), 2);
        b.set(0, 0);
        b.set(1, 63);
        b.set(1, 64);
        b.set(2, 99);
        assert!(b.get(0, 0) && b.get(1, 63) && b.get(1, 64) && b.get(2, 99));
        assert!(!b.get(0, 1) && !b.get(2, 98));
        assert_eq!(b.count_ones(1), 2);
        b.clear();
        assert_eq!(b.count_ones(1), 0);
    }

    #[test]
    fn single_word_fast_path() {
        let mut b = BitRows::new(4, 64);
        assert_eq!(b.words_per_row(), 1);
        b.set_word(2, 0b1010);
        assert_eq!(b.word(2), 0b1010);
        b.or_word(2, 0b0101);
        assert_eq!(b.word(2), 0b1111);
        assert!(b.get(2, 0) && b.get(2, 3));
        assert_eq!(b.word(0), 0);
    }

    #[test]
    fn zero_width_rows_are_one_word() {
        // Degenerate but allowed: rows of 0 bits still occupy one word so
        // the single-word accessors stay valid for empty source blocks.
        let b = BitRows::new(2, 0);
        assert_eq!(b.words_per_row(), 1);
        assert_eq!(b.word(1), 0);
    }
}
