//! Four-level radix page tables.
//!
//! An [`AddressSpace`] owns a real radix tree stored in a simulated table
//! memory: every node is a 512-entry array of descriptors living at a
//! concrete physical address. This matters for the reproduction because the
//! page-table walker's four dependent reads each have a *location* whose
//! access latency the memory hierarchy can price — the cost the mATLB hides
//! in Fig. 6.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::{
    PhysAddr, VirtAddr, ENTRIES_PER_TABLE, LEVEL_BITS, PAGE_SHIFT, PAGE_SIZE, WALK_LEVELS,
};

/// Access permissions attached to a leaf mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageFlags {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl PageFlags {
    /// Read-only mapping.
    pub const fn ro() -> Self {
        PageFlags {
            read: true,
            write: false,
        }
    }

    /// Read-write mapping.
    pub const fn rw() -> Self {
        PageFlags {
            read: true,
            write: true,
        }
    }
}

/// Translation failure, reported as the paper's translation / permission
/// exceptions through the MTQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateFault {
    /// No valid descriptor at the given walk level (0 = root).
    NotMapped {
        /// The faulting virtual address.
        va: VirtAddr,
        /// The level at which the walk found an invalid descriptor.
        level: usize,
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
            TranslateFault::NotMapped { va, level } => {
                write!(f, "no translation for {va} (walk level {level})")
            }
            TranslateFault::NotWritable { va } => write!(f, "{va} is not writable"),
            TranslateFault::AlreadyMapped { va } => write!(f, "{va} is already mapped"),
        }
    }
}

impl std::error::Error for TranslateFault {}

/// Descriptor stored in a table node: valid bit, write bit, next-level (or
/// leaf frame) physical frame number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Descriptor(u64);

impl Descriptor {
    const VALID: u64 = 1;
    const WRITE: u64 = 2;

    fn table(frame: u64) -> Self {
        Descriptor(Self::VALID | (frame << 12))
    }

    fn leaf(frame: u64, flags: PageFlags) -> Self {
        let mut d = Self::VALID | (frame << 12);
        if flags.write {
            d |= Self::WRITE;
        }
        Descriptor(d)
    }

    fn is_valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    fn is_writable(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    fn frame(self) -> u64 {
        self.0 >> 12
    }
}

/// Physical region where table nodes are allocated. Choosing a high base
/// keeps table frames disjoint from data frames handed out by the frame
/// allocator in `maco-mem`.
pub const TABLE_REGION_BASE: u64 = 0x40_0000_0000;

/// A per-process address space backed by a 4-level radix table.
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
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Table nodes; index 0 is the root.
    tables: Vec<Box<[Descriptor; ENTRIES_PER_TABLE]>>,
    mapped_pages: u64,
    /// The mapped pages as coalesced runs: first page number → one past
    /// the last. Runs are disjoint and never adjacent, so a fully mapped
    /// page range lies inside exactly one run.
    runs: BTreeMap<u64, u64>,
    /// One-entry walk memo: leaf-region tag (`va` shifted past the leaf
    /// index, `PAGE_SHIFT + LEVEL_BITS` bits) → the three
    /// non-root node indices of its descriptor path. Sound with no
    /// invalidation: table nodes are append-only and an upper-level
    /// descriptor, once valid, never changes (only leaf descriptors are
    /// cleared by `unmap`), so a resolved path stays resolved. `Cell`
    /// interior mutability keeps the walk API `&self`; the simulator is
    /// single-threaded throughout.
    walk_memo: std::cell::Cell<Option<(u64, [u32; WALK_LEVELS - 1])>>,
}

impl AddressSpace {
    /// Creates an empty address space with an allocated root table.
    pub fn new() -> Self {
        AddressSpace {
            tables: vec![new_node()],
            mapped_pages: 0,
            runs: BTreeMap::new(),
            walk_memo: std::cell::Cell::new(None),
        }
    }

    /// Physical address of the root table (for walkers).
    pub fn root(&self) -> PhysAddr {
        self.table_addr(0)
    }

    /// Number of mapped 4 KB pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of allocated table nodes (root included) — the table-memory
    /// footprint is `table_count() * 4 KB`.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Maps the page containing `va` to the frame containing `pa`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::AlreadyMapped`] if the page already has a
    /// valid leaf.
    pub fn map(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        flags: PageFlags,
    ) -> Result<(), TranslateFault> {
        let node = self.leaf_table(va);
        let leaf_idx = va.level_index(WALK_LEVELS - 1);
        if self.tables[node][leaf_idx].is_valid() {
            return Err(TranslateFault::AlreadyMapped { va });
        }
        self.tables[node][leaf_idx] = Descriptor::leaf(pa.frame_number(), flags);
        self.mapped_pages += 1;
        self.insert_run(va.page_number(), va.page_number() + 1);
        Ok(())
    }

    /// Maps `bytes` starting at `va` to consecutive frames starting at `pa`.
    /// Both addresses must be page-aligned. The upper path is resolved once
    /// per leaf table, not once per page; table nodes are allocated in the
    /// same order as by page-wise [`AddressSpace::map`].
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::AlreadyMapped`] for the first page that
    /// already has a valid leaf; the pages before it stay mapped, as with
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
        let frame0 = pa.frame_number();
        let mut vpn = first;
        let mut result = Ok(());
        'leaves: while vpn < end {
            let node = self.leaf_table(VirtAddr::new(vpn << PAGE_SHIFT));
            let idx = (vpn % ENTRIES_PER_TABLE as u64) as usize;
            let count = (ENTRIES_PER_TABLE - idx).min((end - vpn) as usize);
            for slot in &mut self.tables[node][idx..idx + count] {
                if slot.is_valid() {
                    result = Err(TranslateFault::AlreadyMapped {
                        va: VirtAddr::new(vpn << PAGE_SHIFT),
                    });
                    break 'leaves;
                }
                *slot = Descriptor::leaf(frame0 + (vpn - first), flags);
                vpn += 1;
            }
        }
        self.mapped_pages += vpn - first;
        if vpn > first {
            self.insert_run(first, vpn);
        }
        result
    }

    /// Whether every page from `lo_vpn` to `hi_vpn` (inclusive page
    /// numbers) is mapped: one lookup in the coalesced mapped runs.
    pub fn range_mapped(&self, lo_vpn: u64, hi_vpn: u64) -> bool {
        self.runs
            .range(..=lo_vpn)
            .next_back()
            .is_some_and(|(_, &end)| end > hi_vpn)
    }

    /// The leaf table covering `va`, allocating missing upper-level nodes
    /// on the way down.
    fn leaf_table(&mut self, va: VirtAddr) -> usize {
        let mut node = 0usize;
        for level in 0..WALK_LEVELS - 1 {
            let idx = va.level_index(level);
            let desc = self.tables[node][idx];
            node = if desc.is_valid() {
                desc.frame() as usize
            } else {
                let next = self.tables.len();
                self.tables.push(new_node());
                self.tables[node][idx] = Descriptor::table(next as u64);
                next
            };
        }
        node
    }

    /// Records the newly mapped pages `[lo, hi)`, which touch no existing
    /// run, merging them with the runs ending at `lo` and starting at `hi`.
    fn insert_run(&mut self, mut lo: u64, mut hi: u64) {
        if let Some((&start, &end)) = self.runs.range(..lo).next_back() {
            if end == lo {
                lo = start;
            }
        }
        if let Some(end) = self.runs.remove(&hi) {
            hi = end;
        }
        self.runs.insert(lo, hi);
    }

    /// Removes the mapping for the page containing `va`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] if nothing was mapped.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<(), TranslateFault> {
        let mut node = 0usize;
        for level in 0..WALK_LEVELS - 1 {
            let desc = self.tables[node][va.level_index(level)];
            if !desc.is_valid() {
                return Err(TranslateFault::NotMapped { va, level });
            }
            node = desc.frame() as usize;
        }
        let leaf_idx = va.level_index(WALK_LEVELS - 1);
        if !self.tables[node][leaf_idx].is_valid() {
            return Err(TranslateFault::NotMapped {
                va,
                level: WALK_LEVELS - 1,
            });
        }
        self.tables[node][leaf_idx] = Descriptor::default();
        self.mapped_pages -= 1;
        let vpn = va.page_number();
        let (&start, &end) = self
            .runs
            .range(..=vpn)
            .next_back()
            .expect("a mapped page lies in a run");
        if start < vpn {
            self.runs.insert(start, vpn);
        } else {
            self.runs.remove(&start);
        }
        if vpn + 1 < end {
            self.runs.insert(vpn + 1, end);
        }
        Ok(())
    }

    /// Translates a virtual address (read access).
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] when any walk level is invalid.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, TranslateFault> {
        self.translate_with_flags(va).map(|(pa, _)| pa)
    }

    /// Translates and returns the leaf permissions.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] when any walk level is invalid.
    pub fn translate_with_flags(
        &self,
        va: VirtAddr,
    ) -> Result<(PhysAddr, PageFlags), TranslateFault> {
        self.resolve(va).map(|(_, pa, flags)| (pa, flags))
    }

    /// Fused functional walk: the translation *and* the four descriptor
    /// read addresses of [`AddressSpace::walk_path`] in a single
    /// traversal, accelerated by the per-region walk memo (a DMA page
    /// stream touches runs of pages sharing one leaf table, so steady
    /// state resolves just the leaf descriptor). Behaviour is identical to
    /// `translate_with_flags` + `walk_path`: same faults, same addresses.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateFault::NotMapped`] when any walk level is invalid.
    #[allow(clippy::type_complexity)] // (pa, flags, reads) of one walk
    pub fn walk_with_path(
        &self,
        va: VirtAddr,
    ) -> Result<(PhysAddr, PageFlags, [PhysAddr; WALK_LEVELS]), TranslateFault> {
        let (nodes, pa, flags) = self.resolve(va)?;
        let leaf_idx = va.level_index(WALK_LEVELS - 1);
        let reads = [
            self.table_addr(0) + (va.level_index(0) as u64 * 8),
            self.table_addr(nodes[0] as usize) + (va.level_index(1) as u64 * 8),
            self.table_addr(nodes[1] as usize) + (va.level_index(2) as u64 * 8),
            self.table_addr(nodes[WALK_LEVELS - 2] as usize) + (leaf_idx as u64 * 8),
        ];
        Ok((pa, flags, reads))
    }

    /// Shared walk core: the upper node path (memoised per region) plus
    /// the leaf translation.
    #[inline]
    #[allow(clippy::type_complexity)]
    fn resolve(
        &self,
        va: VirtAddr,
    ) -> Result<([u32; WALK_LEVELS - 1], PhysAddr, PageFlags), TranslateFault> {
        // Everything above the leaf index: the VA bits that select the
        // upper node path. One leaf table covers 2^(PAGE_SHIFT+LEVEL_BITS)
        // bytes.
        let region = va.raw() >> (PAGE_SHIFT + LEVEL_BITS);
        let nodes = match self.walk_memo.get() {
            Some((tag, nodes)) if tag == region => nodes,
            _ => {
                let mut nodes = [0u32; WALK_LEVELS - 1];
                let mut node = 0usize;
                for (level, slot) in nodes.iter_mut().enumerate() {
                    let desc = self.tables[node][va.level_index(level)];
                    if !desc.is_valid() {
                        return Err(TranslateFault::NotMapped { va, level });
                    }
                    node = desc.frame() as usize;
                    *slot = node as u32;
                }
                self.walk_memo.set(Some((region, nodes)));
                nodes
            }
        };
        let leaf_node = nodes[WALK_LEVELS - 2] as usize;
        let desc = self.tables[leaf_node][va.level_index(WALK_LEVELS - 1)];
        if !desc.is_valid() {
            return Err(TranslateFault::NotMapped {
                va,
                level: WALK_LEVELS - 1,
            });
        }
        let pa = PhysAddr::new((desc.frame() << 12) | va.page_offset());
        let flags = PageFlags {
            read: true,
            write: desc.is_writable(),
        };
        Ok((nodes, pa, flags))
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

    /// The physical addresses of the descriptors a walker reads to
    /// translate `va`, in walk order — the four dependent loads whose
    /// latency the mATLB hides.
    pub fn walk_path(&self, va: VirtAddr) -> [PhysAddr; WALK_LEVELS] {
        let mut path = [PhysAddr::new(0); WALK_LEVELS];
        let mut node = 0usize;
        for (level, slot) in path.iter_mut().enumerate() {
            let idx = va.level_index(level);
            *slot = self.table_addr(node) + (idx as u64 * 8);
            if level < WALK_LEVELS - 1 {
                let desc = self.tables[node][idx];
                if desc.is_valid() {
                    node = desc.frame() as usize;
                }
                // An invalid intermediate level still "reads" the same node
                // repeatedly; the walk faults there, which is fine for the
                // timing model (a faulting walk is at most as long).
            }
        }
        path
    }

    fn table_addr(&self, node: usize) -> PhysAddr {
        PhysAddr::new(TABLE_REGION_BASE + node as u64 * PAGE_SIZE)
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

fn new_node() -> Box<[Descriptor; ENTRIES_PER_TABLE]> {
    Box::new([Descriptor::default(); ENTRIES_PER_TABLE])
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn unmapped_addresses_fault_with_level() {
        let s = AddressSpace::new();
        match s.translate(VirtAddr::new(0x1234)) {
            Err(TranslateFault::NotMapped { level: 0, .. }) => {}
            other => panic!("expected root-level fault, got {other:?}"),
        }
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
        // Same leaf table, different entry → walk reaches level 3 then faults.
        match s.translate(VirtAddr::new(0x1000)) {
            Err(TranslateFault::NotMapped { level: 3, .. }) => {}
            other => panic!("expected leaf-level fault, got {other:?}"),
        }
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
                // Ranges up to three leaf tables long, in a window small
                // enough that they overlap (and fail part-way) often.
                let first = rng.next_below(4 * ENTRIES_PER_TABLE as u64);
                let pages = 1 + rng.next_below(3 * ENTRIES_PER_TABLE as u64);
                let va = VirtAddr::new((round % 3) << 39 | first << PAGE_SHIFT);
                let pa = PhysAddr::new(frame);
                frame += pages * PAGE_SIZE;
                let got = fast.map_range(va, pa, pages * PAGE_SIZE, PageFlags::rw());
                let want = map_range_pagewise(&mut slow, va, pa, pages * PAGE_SIZE);
                assert_eq!(got, want, "round {round}");
                assert_eq!(fast.table_count(), slow.table_count());
                assert_eq!(fast.mapped_pages(), slow.mapped_pages());
            }
            for page in 0..8 * ENTRIES_PER_TABLE as u64 {
                let va = VirtAddr::new((round % 3) << 39 | page << PAGE_SHIFT);
                assert_eq!(fast.translate(va), slow.translate(va), "{va}");
                assert_eq!(fast.walk_path(va), slow.walk_path(va), "{va}");
            }
        }
    }

    #[test]
    fn walk_path_has_four_distinct_levels() {
        let mut s = AddressSpace::new();
        let va = VirtAddr::new(0x1234_5000);
        s.map(va, PhysAddr::new(0x6000), PageFlags::rw()).unwrap();
        let path = s.walk_path(va);
        // Root read is always at the root table.
        assert_eq!(path[0].frame_base().raw(), TABLE_REGION_BASE);
        // Each level reads a different table node.
        let mut frames: Vec<u64> = path.iter().map(|p| p.frame_number()).collect();
        frames.dedup();
        assert_eq!(frames.len(), 4, "distinct node per level");
    }

    #[test]
    fn sparse_mappings_share_upper_levels() {
        let mut s = AddressSpace::new();
        s.map(
            VirtAddr::new(0x0000),
            PhysAddr::new(0x1000),
            PageFlags::rw(),
        )
        .unwrap();
        let t1 = s.table_count();
        // Adjacent page shares the whole path.
        s.map(
            VirtAddr::new(0x1000),
            PhysAddr::new(0x2000),
            PageFlags::rw(),
        )
        .unwrap();
        assert_eq!(s.table_count(), t1);
        // A far-away page allocates a fresh sub-tree.
        s.map(
            VirtAddr::new(1 << 40),
            PhysAddr::new(0x3000),
            PageFlags::rw(),
        )
        .unwrap();
        assert!(s.table_count() > t1);
    }
}
