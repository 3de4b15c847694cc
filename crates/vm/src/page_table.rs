//! A process's address space as coalesced mapped extents.
//!
//! An [`AddressSpace`] holds its mappings as one ordered map of extents:
//! first virtual page → (one past the last page, first frame, flags).
//! Translation, permission checks and the mapped-range check all read that
//! one map. The page-table walk the MMAE's demand misses expose is priced
//! by the caller as four dependent descriptor reads of a fixed latency
//! (`SystemConfig::walk_read` × [`crate::addr::WALK_LEVELS`]); no
//! descriptor address is ever needed, so the descriptor tree is not
//! modelled.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::{PhysAddr, VirtAddr, PAGE_SHIFT};

/// Access permissions attached to a leaf mapping. Every mapping is
/// readable; only write permission varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFlags {
    /// Writable.
    pub write: bool,
}

impl PageFlags {
    /// Read-only mapping.
    pub const fn ro() -> Self {
        PageFlags { write: false }
    }

    /// Read-write mapping.
    pub const fn rw() -> Self {
        PageFlags { write: true }
    }
}

/// Translation failure, reported as the paper's translation / permission
/// exceptions through the MTQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateFault {
    /// No mapping for the page.
    NotMapped {
        /// The faulting virtual address.
        va: VirtAddr,
    },
    /// Mapping exists but lacks write permission.
    NotWritable {
        /// The faulting virtual address.
        va: VirtAddr,
    },
    /// Attempt to double-map an already mapped page.
    AlreadyMapped {
        /// The conflicting virtual address.
        va: VirtAddr,
    },
}

impl fmt::Display for TranslateFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateFault::NotMapped { va } => write!(f, "no translation for {va}"),
            TranslateFault::NotWritable { va } => write!(f, "{va} is not writable"),
            TranslateFault::AlreadyMapped { va } => write!(f, "{va} is already mapped"),
        }
    }
}

impl std::error::Error for TranslateFault {}

/// A run of pages mapped to consecutive frames with one set of flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    /// One past the last page.
    end: u64,
    /// Frame of the first page.
    frame: u64,
    flags: PageFlags,
}

/// A per-process address space.
///
/// # Example
///
/// ```
/// use maco_vm::page_table::{AddressSpace, PageFlags};
/// use maco_vm::addr::{VirtAddr, PhysAddr, PAGE_SIZE};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut space = AddressSpace::new();
/// // Identity-map 4 pages then translate inside the third one.
/// for i in 0..4 {
///     space.map(
///         VirtAddr::new(i * PAGE_SIZE),
///         PhysAddr::new(0x10_0000 + i * PAGE_SIZE),
///         PageFlags::rw(),
///     )?;
/// }
/// let pa = space.translate(VirtAddr::new(2 * PAGE_SIZE + 0x80))?;
/// assert_eq!(pa.raw(), 0x10_0000 + 2 * PAGE_SIZE + 0x80);
/// assert!(space.range_mapped(0, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// First page → extent. Extents are disjoint, and two that abut are
    /// never both frame-adjacent and equal in flags: such neighbours are
    /// merged into one.
    extents: BTreeMap<u64, Extent>,
    mapped_pages: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Number of mapped 4 KB pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Maps the page containing `va` to the frame containing `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::AlreadyMapped`] if the page is already
    /// mapped.
    pub fn map(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        flags: PageFlags,
    ) -> Result<(), TranslateFault> {
        let vpn = va.page_number();
        if self.extent_at(vpn).is_some() {
            return Err(TranslateFault::AlreadyMapped { va });
        }
        self.insert(vpn, vpn + 1, pa.frame_number(), flags);
        Ok(())
    }

    /// Maps `bytes` starting at `va` to consecutive frames starting at `pa`.
    /// Both addresses must be page-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::AlreadyMapped`] for the first page that
    /// is already mapped; the pages before it stay mapped, as with
    /// page-wise [`AddressSpace::map`].
    ///
    /// # Panics
    ///
    /// Panics if either address is not page-aligned or `bytes` is zero.
    pub fn map_range(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        bytes: u64,
        flags: PageFlags,
    ) -> Result<(), TranslateFault> {
        assert!(bytes > 0, "empty mapping");
        assert_eq!(va.page_offset(), 0, "va must be page-aligned");
        assert_eq!(pa.page_offset(), 0, "pa must be page-aligned");
        let first = va.page_number();
        let end = first + va.pages_spanned(bytes);
        // The first mapped page of the range: `first` itself, or the start
        // of the first extent beginning inside the range.
        let conflict = if self.extent_at(first).is_some() {
            Some(first)
        } else {
            self.extents
                .range(first..end)
                .next()
                .map(|(&start, _)| start)
        };
        let mapped_end = conflict.unwrap_or(end);
        if mapped_end > first {
            self.insert(first, mapped_end, pa.frame_number(), flags);
        }
        match conflict {
            Some(vpn) => Err(TranslateFault::AlreadyMapped {
                va: VirtAddr::new(vpn << PAGE_SHIFT),
            }),
            None => Ok(()),
        }
    }

    /// Whether every page from `lo_vpn` to `hi_vpn` (inclusive page
    /// numbers) is mapped: one lookup when one extent holds the span,
    /// otherwise a step across each extent that abuts the previous one.
    #[inline]
    pub fn range_mapped(&self, lo_vpn: u64, hi_vpn: u64) -> bool {
        match self.extent_at(lo_vpn) {
            Some((_, first)) if first.end > hi_vpn => true,
            Some((_, first)) => self.abutting_extents_reach(first.end, hi_vpn),
            None => false,
        }
    }

    /// Whether the extents from page `end` on, each starting where the one
    /// before it ends, reach past `hi_vpn`.
    #[cold]
    fn abutting_extents_reach(&self, mut end: u64, hi_vpn: u64) -> bool {
        for (&start, extent) in self.extents.range(end..) {
            if start != end {
                return false;
            }
            end = extent.end;
            if end > hi_vpn {
                return true;
            }
        }
        false
    }

    /// The extent holding page `vpn`, with its first page.
    fn extent_at(&self, vpn: u64) -> Option<(u64, &Extent)> {
        self.extents
            .range(..=vpn)
            .next_back()
            .filter(|(_, extent)| extent.end > vpn)
            .map(|(&start, extent)| (start, extent))
    }

    /// Records the newly mapped pages `[lo, hi)` → frames from `frame`,
    /// which overlap no extent, merging them with the extent ending at `lo`
    /// and the one starting at `hi` where frames and flags continue.
    fn insert(&mut self, mut lo: u64, mut hi: u64, mut frame: u64, flags: PageFlags) {
        self.mapped_pages += hi - lo;
        if let Some((&start, before)) = self.extents.range(..lo).next_back() {
            if before.end == lo && before.frame + (lo - start) == frame && before.flags == flags {
                frame = before.frame;
                lo = start;
            }
        }
        if let Some(after) = self.extents.get(&hi).copied() {
            if after.frame == frame + (hi - lo) && after.flags == flags {
                self.extents.remove(&hi);
                hi = after.end;
            }
        }
        self.extents.insert(
            lo,
            Extent {
                end: hi,
                frame,
                flags,
            },
        );
    }

    /// Removes the mapping for the page containing `va`, splitting its
    /// extent around it.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] if nothing was mapped.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<(), TranslateFault> {
        let vpn = va.page_number();
        let (start, extent) = match self.extent_at(vpn) {
            Some((start, &extent)) => (start, extent),
            None => return Err(TranslateFault::NotMapped { va }),
        };
        self.mapped_pages -= 1;
        if start < vpn {
            self.extents.insert(start, Extent { end: vpn, ..extent });
        } else {
            self.extents.remove(&start);
        }
        if vpn + 1 < extent.end {
            self.extents.insert(
                vpn + 1,
                Extent {
                    frame: extent.frame + (vpn + 1 - start),
                    ..extent
                },
            );
        }
        Ok(())
    }

    /// Translates a virtual address (read access).
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] when the page is not mapped.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, TranslateFault> {
        self.translate_with_flags(va).map(|(pa, _)| pa)
    }

    /// Translates and returns the page's permissions.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] when the page is not mapped.
    #[inline]
    pub fn translate_with_flags(
        &self,
        va: VirtAddr,
    ) -> Result<(PhysAddr, PageFlags), TranslateFault> {
        let vpn = va.page_number();
        let (start, extent) = self
            .extent_at(vpn)
            .ok_or(TranslateFault::NotMapped { va })?;
        let frame = extent.frame + (vpn - start);
        Ok((
            PhysAddr::new((frame << PAGE_SHIFT) | va.page_offset()),
            extent.flags,
        ))
    }

    /// Translates for a write access, checking permissions.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotWritable`] for read-only pages, or
    /// [`TranslateFault::NotMapped`] for holes.
    pub fn translate_write(&self, va: VirtAddr) -> Result<PhysAddr, TranslateFault> {
        let (pa, flags) = self.translate_with_flags(va)?;
        if !flags.write {
            return Err(TranslateFault::NotWritable { va });
        }
        Ok(pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn map_translate_roundtrip() {
        let mut s = AddressSpace::new();
        s.map(
            VirtAddr::new(0x7000),
            PhysAddr::new(0xA000),
            PageFlags::rw(),
        )
        .unwrap();
        assert_eq!(s.translate(VirtAddr::new(0x7123)).unwrap().raw(), 0xA123);
        assert_eq!(s.mapped_pages(), 1);
    }

    #[test]
    fn leaf_level_fault_after_sibling_mapping() {
        let mut s = AddressSpace::new();
        s.map(
            VirtAddr::new(0x0000),
            PhysAddr::new(0x1000),
            PageFlags::rw(),
        )
        .unwrap();
        // The neighbouring page stays a hole.
        let va = VirtAddr::new(0x1234);
        assert_eq!(s.translate(va), Err(TranslateFault::NotMapped { va }));
    }

    #[test]
    fn double_mapping_rejected() {
        let mut s = AddressSpace::new();
        let va = VirtAddr::new(0x4000);
        s.map(va, PhysAddr::new(0x1000), PageFlags::ro()).unwrap();
        assert_eq!(
            s.map(va, PhysAddr::new(0x2000), PageFlags::ro()),
            Err(TranslateFault::AlreadyMapped { va })
        );
    }

    #[test]
    fn write_permission_enforced() {
        let mut s = AddressSpace::new();
        let va = VirtAddr::new(0x8000);
        s.map(va, PhysAddr::new(0x3000), PageFlags::ro()).unwrap();
        assert!(matches!(
            s.translate_write(va),
            Err(TranslateFault::NotWritable { .. })
        ));
        s.unmap(va).unwrap();
        s.map(va, PhysAddr::new(0x3000), PageFlags::rw()).unwrap();
        assert!(s.translate_write(va).is_ok());
    }

    #[test]
    fn unmap_restores_fault() {
        let mut s = AddressSpace::new();
        let va = VirtAddr::new(0x9000);
        s.map(va, PhysAddr::new(0x5000), PageFlags::rw()).unwrap();
        s.unmap(va).unwrap();
        assert!(s.translate(va).is_err());
        assert_eq!(s.mapped_pages(), 0);
        assert!(s.unmap(va).is_err());
    }

    #[test]
    fn unmap_splits_an_extent() {
        let mut s = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        s.map_range(
            base,
            PhysAddr::new(0x20_0000),
            4 * PAGE_SIZE,
            PageFlags::rw(),
        )
        .unwrap();
        s.unmap(base + 2 * PAGE_SIZE).unwrap();
        assert_eq!(s.mapped_pages(), 3);
        assert!(s.range_mapped(0x100, 0x101));
        assert!(!s.range_mapped(0x100, 0x102));
        assert!(s.translate(base + 2 * PAGE_SIZE).is_err());
        // The tail keeps its frame.
        let tail = s.translate(base + 3 * PAGE_SIZE).unwrap();
        assert_eq!(tail.raw(), 0x20_0000 + 3 * PAGE_SIZE);
    }

    #[test]
    fn map_range_covers_all_pages() {
        let mut s = AddressSpace::new();
        s.map_range(
            VirtAddr::new(0x10_0000),
            PhysAddr::new(0x20_0000),
            3 * PAGE_SIZE,
            PageFlags::rw(),
        )
        .unwrap();
        assert_eq!(s.mapped_pages(), 3);
        for i in 0..3u64 {
            let pa = s
                .translate(VirtAddr::new(0x10_0000 + i * PAGE_SIZE))
                .unwrap();
            assert_eq!(pa.raw(), 0x20_0000 + i * PAGE_SIZE);
        }
    }

    /// Page-wise reference for [`AddressSpace::map_range`].
    fn map_range_pagewise(
        s: &mut AddressSpace,
        va: VirtAddr,
        pa: PhysAddr,
        bytes: u64,
    ) -> Result<(), TranslateFault> {
        for i in 0..va.pages_spanned(bytes) {
            s.map(va + i * PAGE_SIZE, pa + i * PAGE_SIZE, PageFlags::rw())?;
        }
        Ok(())
    }

    #[test]
    fn map_range_matches_pagewise_map_over_random_ranges() {
        let mut rng = maco_sim::SplitMix64::new(0x5eed);
        for round in 0..40 {
            let mut fast = AddressSpace::new();
            let mut slow = AddressSpace::new();
            let mut frame = 0x100_0000u64;
            for _ in 0..6 {
                // Ranges up to 1536 pages long, in a window small enough
                // that they overlap (and fail part-way) often.
                let first = rng.next_below(4 * 512);
                let pages = 1 + rng.next_below(3 * 512);
                let va = VirtAddr::new((round % 3) << 39 | first << PAGE_SHIFT);
                let pa = PhysAddr::new(frame);
                frame += pages * PAGE_SIZE;
                let got = fast.map_range(va, pa, pages * PAGE_SIZE, PageFlags::rw());
                let want = map_range_pagewise(&mut slow, va, pa, pages * PAGE_SIZE);
                assert_eq!(got, want, "round {round}");
                assert_eq!(fast.mapped_pages(), slow.mapped_pages());
            }
            for page in 0..8 * 512 {
                let va = VirtAddr::new((round % 3) << 39 | page << PAGE_SHIFT);
                assert_eq!(fast.translate(va), slow.translate(va), "{va}");
            }
        }
    }
}
