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
//! walk"; returned translations are buffered locally, consumed in order by
//! the DMA engines, and "removed from the buffer once they fail to match
//! the current virtual address".

use std::collections::VecDeque;

use crate::addr::{VirtAddr, PAGE_SIZE};
use crate::page_table::PageFlags;

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

    /// The number of distinct pages touched, allocation-free. Rows never
    /// overlap and ascend (`row_stride ≥ row_bytes`), so the predicted
    /// sequence is strictly increasing and every page in it is distinct.
    pub fn distinct_page_count(&self) -> u64 {
        self.predicted_pages().count() as u64
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

/// A buffered, pre-walked translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatlbEntry {
    /// Page base the entry translates.
    pub page: VirtAddr,
    /// Physical frame number.
    pub frame: u64,
    /// Leaf permissions.
    pub flags: PageFlags,
}

/// The mATLB translation buffer.
///
/// Prefetched entries sit in a FIFO consumed in stream order. A lookup that
/// matches the head is a **hit** (the walk already happened, so the DMA
/// engine pays nothing); the head is retained because subsequent accesses
/// usually target the same page. When the stream moves on, the stale head
/// "fails to match the current virtual address" and is dropped.
///
/// # Example
///
/// ```
/// use maco_vm::matlb::{Matlb, TileAccessPattern, MatlbEntry};
/// use maco_vm::addr::VirtAddr;
/// use maco_vm::page_table::PageFlags;
///
/// let mut matlb = Matlb::new(16);
/// let tile = TileAccessPattern::new(VirtAddr::new(0), 4, 512, 8192);
/// matlb.prefetch(&tile, |page| Some(MatlbEntry {
///     page,
///     frame: page.page_number() + 100, // fake identity-ish translation
///     flags: PageFlags::rw(),
/// }));
/// assert_eq!(matlb.len(), 4);
/// let hit = matlb.consume(VirtAddr::new(8192 + 64)).unwrap(); // row 1
/// assert_eq!(hit.frame, 102);
/// ```
#[derive(Debug, Clone)]
pub struct Matlb {
    buffer: VecDeque<MatlbEntry>,
    capacity: usize,
    prefetched: u64,
    hits: u64,
    misses: u64,
    dropped: u64,
}

impl Matlb {
    /// Creates an mATLB buffering at most `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mATLB needs at least one entry");
        Matlb {
            buffer: VecDeque::with_capacity(capacity),
            capacity,
            prefetched: 0,
            hits: 0,
            misses: 0,
            dropped: 0,
        }
    }

    /// Buffer capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffered translations.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True if no translations are buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Predicts the pages of `pattern` and installs translations produced
    /// by `walk` (the MMU interface) until the buffer is full. Returns how
    /// many entries were installed. Pages whose walk fails (`None`) are
    /// skipped — the demand access will fault instead, raising the MTQ
    /// translation exception.
    pub fn prefetch(
        &mut self,
        pattern: &TileAccessPattern,
        mut walk: impl FnMut(VirtAddr) -> Option<MatlbEntry>,
    ) -> usize {
        let mut installed = 0;
        for page in pattern.predicted_pages() {
            if self.buffer.len() == self.capacity {
                break;
            }
            if let Some(entry) = walk(page) {
                self.buffer.push_back(entry);
                self.prefetched += 1;
                installed += 1;
            }
        }
        installed
    }

    /// Resolves `va` against the buffer: drops stale heads until the head
    /// matches `va`'s page, then returns it. `None` means the stream ran
    /// past the prefetched window (a mATLB **miss** — the DMA engine falls
    /// back to a demand TLB/PTW access).
    pub fn consume(&mut self, va: VirtAddr) -> Option<MatlbEntry> {
        let page = va.page_number();
        while let Some(front) = self.buffer.front() {
            if front.page.page_number() == page {
                self.hits += 1;
                return Some(*front);
            }
            self.buffer.pop_front();
            self.dropped += 1;
        }
        self.misses += 1;
        None
    }

    /// Clears the buffer (between tiles of unrelated geometry).
    pub fn clear(&mut self) {
        self.dropped += self.buffer.len() as u64;
        self.buffer.clear();
    }

    /// Translations installed by prefetch.
    pub fn prefetched(&self) -> u64 {
        self.prefetched
    }

    /// Lookups satisfied from the buffer.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran past the buffer.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped on mismatch ("removed … once it fails to match").
    pub fn dropped(&self) -> u64 {
        self.dropped
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
            for b in (start..start + p.row_bytes).step_by(8) {
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
        ];
        for tile in cases {
            let predicted: Vec<u64> = tile.predicted_pages().map(|v| v.page_number()).collect();
            assert_eq!(predicted, brute_force_pages(&tile), "{tile:?}");
        }
    }

    #[test]
    fn consume_follows_stream_order() {
        let mut matlb = Matlb::new(64);
        let tile = TileAccessPattern::new(VirtAddr::new(0), 4, 512, 8192);
        matlb.prefetch(&tile, |page| {
            Some(MatlbEntry {
                page,
                frame: page.page_number() * 10,
                flags: PageFlags::rw(),
            })
        });
        assert_eq!(matlb.len(), 4);

        // Row 0: two accesses to the same page — head retained.
        assert_eq!(matlb.consume(VirtAddr::new(0)).unwrap().frame, 0);
        assert_eq!(matlb.consume(VirtAddr::new(256)).unwrap().frame, 0);
        assert_eq!(matlb.len(), 4);

        // Row 1 (page 2): stale head dropped, new head hits.
        assert_eq!(matlb.consume(VirtAddr::new(8192)).unwrap().frame, 20);
        assert_eq!(matlb.dropped(), 1);
        assert_eq!(matlb.hits(), 3);
    }

    #[test]
    fn consume_past_window_misses() {
        let mut matlb = Matlb::new(2);
        let tile = TileAccessPattern::new(VirtAddr::new(0), 8, 512, 8192);
        let installed = matlb.prefetch(&tile, |page| {
            Some(MatlbEntry {
                page,
                frame: page.page_number(),
                flags: PageFlags::ro(),
            })
        });
        assert_eq!(installed, 2, "capacity bounds the prefetch window");
        // Jump straight to row 5 (page 10): both buffered entries mismatch.
        assert!(matlb.consume(VirtAddr::new(5 * 8192)).is_none());
        assert_eq!(matlb.misses(), 1);
        assert_eq!(matlb.dropped(), 2);
        assert!(matlb.is_empty());
    }

    #[test]
    fn failed_walks_are_skipped() {
        let mut matlb = Matlb::new(8);
        let tile = TileAccessPattern::new(VirtAddr::new(0), 4, 512, 8192);
        let installed = matlb.prefetch(&tile, |page| {
            // Page 2 (row 1) is unmapped.
            if page.page_number() == 2 {
                None
            } else {
                Some(MatlbEntry {
                    page,
                    frame: 1,
                    flags: PageFlags::rw(),
                })
            }
        });
        assert_eq!(installed, 3);
    }

    #[test]
    fn clear_counts_drops() {
        let mut matlb = Matlb::new(8);
        let tile = TileAccessPattern::new(VirtAddr::new(0), 4, 512, 8192);
        matlb.prefetch(&tile, |page| {
            Some(MatlbEntry {
                page,
                frame: 0,
                flags: PageFlags::rw(),
            })
        });
        matlb.clear();
        assert_eq!(matlb.dropped(), 4);
        assert!(matlb.is_empty());
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
