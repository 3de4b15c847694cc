//! The mATLB: predictive address translation (Section IV.A, Fig. 4).
//!
//! A DMA transfer of a matrix tile is a strided 2-D access: `rows` rows of
//! `row_bytes`, successive rows `row_stride` bytes apart (the stride is the
//! original matrix's row pitch, `C × elem_size`). Because tile geometry and
//! page size are configured in advance, the set of virtual pages the stream
//! will touch — and the *order* it touches them — is fully determined. The
//! paper's example (Fig. 4): with `C = 1024` FP64 columns, a row of the
//! original matrix spans 8 KB = two 4 KB pages, so a ⟨64, 64⟩ tile touches a
//! predictable new page on every row.
//!
//! The mATLB exploits this: it "generates multiple virtual addresses in
//! advance, then sends them to the CPU core's MMU to perform page table
//! walk", so the DMA engines never wait on a walk. The page sequence is an
//! affine function of `(base, rows, row_bytes, row_stride)`, and the
//! simulator uses that directly: [`TileAccessPattern::distinct_page_count`]
//! counts a stream's pages in closed form and
//! [`TileAccessPattern::page_span`] bounds them for a single mapped-range
//! check, so predictive translation models no prefetch buffer and replays
//! no page. [`TileAccessPattern::predicted_pages`] still enumerates the
//! sequence for the demand path and for locating a fault.

use crate::addr::{VirtAddr, PAGE_SHIFT, PAGE_SIZE};

/// A strided 2-D DMA access pattern (one tile transfer).
///
/// # Example
///
/// ```
/// use maco_vm::matlb::TileAccessPattern;
/// use maco_vm::addr::VirtAddr;
///
/// // Fig. 4: 1024-column FP64 matrix (8 KB row pitch), 64×64 FP64 tile.
/// let tile = TileAccessPattern::new(VirtAddr::new(0), 64, 64 * 8, 1024 * 8);
/// // Each tile row starts a new page: 64 predicted pages.
/// assert_eq!(tile.predicted_pages().count(), 64);
/// // The same count in closed form, spread over pages 0..=126.
/// assert_eq!(tile.distinct_page_count(), 64);
/// assert_eq!(tile.page_span(), (0, 126));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileAccessPattern {
    /// First byte of the tile.
    pub base: VirtAddr,
    /// Number of rows transferred.
    pub rows: u64,
    /// Contiguous bytes per row (`ttc × elem_size`).
    pub row_bytes: u64,
    /// Byte distance between row starts (`C × elem_size`).
    pub row_stride: u64,
}

impl TileAccessPattern {
    /// Builds a pattern.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `row_bytes` is zero, or if rows overlap
    /// (`row_stride < row_bytes` with more than one row).
    pub fn new(base: VirtAddr, rows: u64, row_bytes: u64, row_stride: u64) -> Self {
        assert!(rows > 0, "pattern needs at least one row");
        assert!(row_bytes > 0, "pattern needs a positive row length");
        assert!(
            rows == 1 || row_stride >= row_bytes,
            "rows overlap: stride {row_stride} < row bytes {row_bytes}"
        );
        TileAccessPattern {
            base,
            rows,
            row_bytes,
            row_stride,
        }
    }

    /// Total bytes moved by the transfer.
    pub fn bytes(&self) -> u64 {
        self.rows * self.row_bytes
    }

    /// The page-base virtual addresses the stream touches, in access order,
    /// with *consecutive* duplicates suppressed — exactly the sequence of
    /// "first data located at each page table" that Fig. 4 circles in red.
    pub fn predicted_pages(&self) -> PredictedPages {
        PredictedPages {
            pattern: *self,
            row: 0,
            offset: 0,
            last: None,
        }
    }

    /// The first and last virtual page numbers the stream touches
    /// (inclusive). Every predicted page lies in this span.
    pub fn page_span(&self) -> (u64, u64) {
        let first = self.base.raw();
        let last = first + (self.rows - 1) * self.row_stride + self.row_bytes - 1;
        (first >> PAGE_SHIFT, last >> PAGE_SHIFT)
    }

    /// The number of distinct pages touched, in closed form: a constant
    /// number of floor-sums, whatever the row count. Rows never overlap
    /// and ascend (`row_stride ≥ row_bytes`), so the predicted sequence is
    /// strictly increasing and its length is this count.
    ///
    /// When the untouched gap between rows is shorter than a page, no page
    /// in the span is skipped and the count is the span's length.
    /// Otherwise no two rows share a page, and the count is the sum over
    /// rows of `⌊(start + row_bytes − 1) / P⌋ − ⌊start / P⌋ + 1`.
    pub fn distinct_page_count(&self) -> u64 {
        let (first, last) = self.page_span();
        if self.rows == 1 || self.row_stride - self.row_bytes < PAGE_SIZE {
            return last - first + 1;
        }
        let base = self.base.raw();
        let ends = floor_sum(self.rows, self.row_stride, base + self.row_bytes - 1);
        let starts = floor_sum(self.rows, self.row_stride, base);
        self.rows + ends.wrapping_sub(starts)
    }
}

/// `Σ_{i<n} ⌊(a·i + b) / PAGE_SIZE⌋` modulo 2⁶⁴, in O(log a) steps (the
/// Euclid-like reduction of the classic floor-sum). Intermediate
/// quotients stay below `PAGE_SIZE · (n + 1)`, so only the running sum
/// can wrap; the caller subtracts two sums whose true difference fits in
/// a `u64`, which makes the wrapped difference exact.
fn floor_sum(mut n: u64, mut a: u64, mut b: u64) -> u64 {
    let mut m = PAGE_SIZE;
    let mut sum = 0u64;
    loop {
        if a >= m {
            // n(n−1)/2 without overflowing before the halving.
            let pairs = if n.is_multiple_of(2) {
                (n / 2).wrapping_mul(n.wrapping_sub(1))
            } else {
                n.wrapping_mul((n - 1) / 2)
            };
            sum = sum.wrapping_add(pairs.wrapping_mul(a / m));
            a %= m;
        }
        if b >= m {
            sum = sum.wrapping_add(n.wrapping_mul(b / m));
            b %= m;
        }
        let y_max = a * n + b;
        if y_max < m {
            return sum;
        }
        n = y_max / m;
        b = y_max % m;
        std::mem::swap(&mut m, &mut a);
    }
}

/// Iterator over predicted page bases; see
/// [`TileAccessPattern::predicted_pages`].
#[derive(Debug, Clone)]
pub struct PredictedPages {
    pattern: TileAccessPattern,
    row: u64,
    offset: u64,
    last: Option<u64>,
}

impl Iterator for PredictedPages {
    type Item = VirtAddr;

    fn next(&mut self) -> Option<VirtAddr> {
        loop {
            if self.row >= self.pattern.rows {
                return None;
            }
            let row_start = self.pattern.base.raw() + self.row * self.pattern.row_stride;
            let addr = row_start + self.offset;
            // Advance within the row to the next page boundary (or row end).
            let page_end = (addr | (PAGE_SIZE - 1)) + 1;
            let row_end = row_start + self.pattern.row_bytes;
            if page_end >= row_end {
                self.row += 1;
                self.offset = 0;
            } else {
                self.offset += page_end - addr;
            }
            let page = VirtAddr::new(addr).page_number();
            if self.last != Some(page) {
                self.last = Some(page);
                return Some(VirtAddr::new(page << 12));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force page enumeration: every byte of the pattern.
    fn brute_force_pages(p: &TileAccessPattern) -> Vec<u64> {
        let mut pages = Vec::new();
        for r in 0..p.rows {
            let start = p.base.raw() + r * p.row_stride;
            let last = start + p.row_bytes - 1;
            for b in (start..=last).step_by(8).chain([last]) {
                let pg = b >> 12;
                if pages.last() != Some(&pg) {
                    pages.push(pg);
                }
            }
        }
        pages
    }

    #[test]
    fn fig4_case1_row_covers_two_pages() {
        // C = 1024 FP64 → 8 KB pitch; tile row of 64 elements = 512 B.
        // A ⟨4, 64⟩ tile whose rows each live in one page, but each row in
        // a *different* page (stride = 2 pages).
        let tile = TileAccessPattern::new(VirtAddr::new(0), 4, 64 * 8, 1024 * 8);
        let pages: Vec<u64> = tile.predicted_pages().map(|v| v.page_number()).collect();
        assert_eq!(pages, vec![0, 2, 4, 6], "every row starts a new page");
    }

    #[test]
    fn fig4_case2_row_covers_one_page() {
        // C = 512 FP64 → 4 KB pitch: consecutive rows tile consecutive pages.
        let tile = TileAccessPattern::new(VirtAddr::new(0), 4, 64 * 8, 512 * 8);
        let pages: Vec<u64> = tile.predicted_pages().map(|v| v.page_number()).collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dense_rows_within_one_page_dedup() {
        // 8 rows of 512 B at 512 B stride = one 4 KB page exactly.
        let tile = TileAccessPattern::new(VirtAddr::new(0), 8, 512, 512);
        let pages: Vec<u64> = tile.predicted_pages().map(|v| v.page_number()).collect();
        assert_eq!(pages, vec![0], "consecutive duplicates suppressed");
    }

    #[test]
    fn row_spanning_page_boundary_predicts_both() {
        // A row of 1024 FP64 elements (8 KB) starting mid-page.
        let tile = TileAccessPattern::new(VirtAddr::new(0x800), 1, 1024 * 8, 1024 * 8);
        let pages: Vec<u64> = tile.predicted_pages().map(|v| v.page_number()).collect();
        assert_eq!(pages, vec![0, 1, 2], "8 KB from 0x800 touches 3 pages");
    }

    #[test]
    fn prediction_matches_brute_force_on_varied_geometry() {
        let cases = [
            TileAccessPattern::new(VirtAddr::new(0), 64, 512, 8192),
            TileAccessPattern::new(VirtAddr::new(0x740), 17, 1000, 4096),
            TileAccessPattern::new(VirtAddr::new(0x1000), 3, 16384, 73728),
            TileAccessPattern::new(VirtAddr::new(0xFF8), 5, 8, 8),
            // One row whose "stride" is shorter than the row itself.
            TileAccessPattern::new(VirtAddr::new(0x7F8), 1, 9000, 16),
            TileAccessPattern::new(VirtAddr::new(0x3), 1, 1, 0),
            // Unaligned bases with strides below a page.
            TileAccessPattern::new(VirtAddr::new(0x1FF1), 40, 200, 1000),
            TileAccessPattern::new(VirtAddr::new(0xABC), 9, 96, 96),
            // Gaps one byte short of a page, a page-aligned page (skipped)
            // and an unaligned page (never skipped).
            TileAccessPattern::new(VirtAddr::new(0x10), 12, 1000, 1000 + 4095),
            TileAccessPattern::new(VirtAddr::new(0x200), 6, 3584, 3584 + 4096),
            TileAccessPattern::new(VirtAddr::new(0x10), 12, 1000, 1000 + 4096),
            TileAccessPattern::new(VirtAddr::new(0x123), 33, 5000, 5000 + 4097),
            // Page-multiple stride, rows crossing a boundary each.
            TileAccessPattern::new(VirtAddr::new(0xF00), 20, 512, 3 * 4096),
        ];
        for tile in cases {
            let predicted: Vec<u64> = tile.predicted_pages().map(|v| v.page_number()).collect();
            assert_eq!(predicted, brute_force_pages(&tile), "{tile:?}");
            assert_eq!(
                tile.distinct_page_count(),
                predicted.len() as u64,
                "{tile:?}"
            );
            assert_eq!(
                tile.page_span(),
                (predicted[0], *predicted.last().unwrap()),
                "{tile:?}"
            );
        }
    }

    #[test]
    fn distinct_page_count_matches_set_size() {
        let tile = TileAccessPattern::new(VirtAddr::new(0), 8, 512, 512);
        assert_eq!(tile.distinct_page_count(), 1);
        let tile = TileAccessPattern::new(VirtAddr::new(0), 64, 512, 8192);
        assert_eq!(tile.distinct_page_count(), 64);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_rows_rejected() {
        let _ = TileAccessPattern::new(VirtAddr::new(0), 2, 100, 50);
    }

    #[test]
    fn bytes_total() {
        let tile = TileAccessPattern::new(VirtAddr::new(0), 64, 512, 8192);
        assert_eq!(tile.bytes(), 64 * 512);
    }
}
