//! Translation look-aside buffers.
//!
//! Table I gives MACO's TLB hierarchy: 48-entry fully-associative L1
//! ITLB/DTLB and a 1024-entry fully-associative L2 TLB shared with the MMAE
//! (the "sTLB" of Fig. 2). [`Tlb`] models a fully-associative, true-LRU
//! array with O(1) lookup/insert via a hash index plus an intrusive
//! doubly-linked LRU list — the simulator performs hundreds of millions of
//! lookups in the Fig. 6/7 sweeps, so this path must be fast.

use maco_isa::Asid;
use maco_sim::hash::FxHashMap;

use crate::page_table::PageFlags;

/// A cached translation: virtual page → physical frame with permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Physical frame number.
    pub frame: u64,
    /// Leaf permissions.
    pub flags: PageFlags,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    key: (u16, u64),
    entry: TlbEntry,
    prev: u32,
    next: u32,
}

/// A fully-associative, true-LRU TLB.
///
/// Entries are tagged by `(ASID, virtual page number)`, so multiple
/// processes coexist without flushes — matching the paper's multi-process
/// design where MTQ/STQ "will not be affected by process switching".
///
/// # Example
///
/// ```
/// use maco_vm::tlb::{Tlb, TlbEntry};
/// use maco_vm::page_table::PageFlags;
/// use maco_isa::Asid;
///
/// let mut tlb = Tlb::new(48);
/// let asid = Asid::new(1);
/// assert!(tlb.lookup(asid, 0x40).is_none()); // cold miss
/// tlb.insert(asid, 0x40, TlbEntry { frame: 0x80, flags: PageFlags::rw() });
/// assert_eq!(tlb.lookup(asid, 0x40).unwrap().frame, 0x80);
/// assert_eq!(tlb.hits(), 1);
/// assert_eq!(tlb.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    index: FxHashMap<(u16, u64), u32>,
    slots: Vec<Slot>,
    head: u32, // MRU
    tail: u32, // LRU
    free: Vec<u32>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            index: FxHashMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up `(asid, vpn)`, promoting a hit to most-recently-used.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        match self.index.get(&(asid.raw(), vpn)) {
            Some(&slot) => {
                self.hits += 1;
                self.touch(slot);
                Some(self.slots[slot as usize].entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Fused lookup-then-fill, the translation streams' hot path: behaves
    /// exactly like [`Tlb::lookup`] followed — on a miss — by `fill` and
    /// [`Tlb::insert`] of its result, but skips `insert`'s redundant
    /// re-probe of a key the lookup just reported absent. Returns the
    /// entry and whether it was resident; a `fill` error propagates with
    /// the TLB left as the plain missed lookup would leave it.
    ///
    /// # Errors
    ///
    /// Propagates the error returned by `fill`.
    pub fn lookup_or_fill<E>(
        &mut self,
        asid: Asid,
        vpn: u64,
        fill: impl FnOnce() -> Result<TlbEntry, E>,
    ) -> Result<(bool, TlbEntry), E> {
        let key = (asid.raw(), vpn);
        if let Some(&slot) = self.index.get(&key) {
            self.hits += 1;
            self.touch(slot);
            return Ok((true, self.slots[slot as usize].entry));
        }
        self.misses += 1;
        let entry = fill()?;
        self.insert_absent(key, entry);
        Ok((false, entry))
    }

    /// Checks residency without updating LRU order or statistics.
    pub fn probe(&self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        self.index
            .get(&(asid.raw(), vpn))
            .map(|&s| self.slots[s as usize].entry)
    }

    /// Inserts (or refreshes) a translation, evicting the LRU entry when
    /// full.
    pub fn insert(&mut self, asid: Asid, vpn: u64, entry: TlbEntry) {
        let key = (asid.raw(), vpn);
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot as usize].entry = entry;
            self.touch(slot);
            return;
        }
        self.insert_absent(key, entry);
    }

    /// Miss path shared by [`Tlb::insert`] and [`Tlb::lookup_or_fill`]:
    /// allocates a slot (evicting the LRU entry when full), indexes the
    /// key and makes it most-recently-used. The caller guarantees `key`
    /// is absent.
    fn insert_absent(&mut self, key: (u16, u64), entry: TlbEntry) {
        let slot = if self.index.len() == self.capacity {
            // Reuse the LRU slot.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = self.slots[victim as usize].key;
            self.index.remove(&old_key);
            self.evictions += 1;
            self.slots[victim as usize] = Slot {
                key,
                entry,
                prev: NIL,
                next: NIL,
            };
            victim
        } else if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Slot {
                key,
                entry,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                entry,
                prev: NIL,
                next: NIL,
            });
            slot
        };
        self.index.insert(key, slot);
        self.push_front(slot);
    }

    /// Structural clone with every live entry retagged to `asid`,
    /// preserving LRU order, slot layout, free list and statistics.
    ///
    /// This is a simulator fast-path primitive, not an architectural
    /// operation: when two engines have replayed identical translation
    /// histories under different ASIDs, their TLBs are isomorphic up to
    /// the ASID tag, and transplanting a retagged clone is
    /// indistinguishable from replaying the stream. Intended for
    /// single-ASID TLBs; retagging entries of several ASIDs to one would
    /// collide.
    pub fn clone_retagged(&self, asid: Asid) -> Tlb {
        let mut t = self.clone();
        t.index.clear();
        for (&(_, vpn), &slot) in &self.index {
            t.slots[slot as usize].key = (asid.raw(), vpn);
            let prev = t.index.insert((asid.raw(), vpn), slot);
            debug_assert!(prev.is_none(), "retag collision on vpn {vpn:#x}");
        }
        t
    }

    /// Every live entry as `(asid, vpn, entry)`, most-recently-used first
    /// — the full replacement state, for equivalence checks.
    pub fn iter_mru(&self) -> impl Iterator<Item = (Asid, u64, TlbEntry)> + '_ {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let s = self.slots.get(slot as usize)?;
            slot = s.next;
            Some((Asid::new(s.key.0), s.key.1, s.entry))
        })
    }

    /// Drops every entry belonging to `asid` (TLB shoot-down on address
    /// space teardown).
    pub fn invalidate_asid(&mut self, asid: Asid) {
        let keys: Vec<(u16, u64)> = self
            .index
            .keys()
            .filter(|(a, _)| *a == asid.raw())
            .copied()
            .collect();
        for key in keys {
            if let Some(slot) = self.index.remove(&key) {
                self.unlink(slot);
                // Mark the slot dead by clearing its key; it is re-used only
                // via the free path below.
                self.slots[slot as usize].key = (u16::MAX, u64::MAX);
                self.free.push(slot);
            }
        }
    }

    /// Drops everything.
    pub fn flush(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit rate over all lookups, `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Resets the statistics counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(frame: u64) -> TlbEntry {
        TlbEntry {
            frame,
            flags: PageFlags::rw(),
        }
    }

    fn asid(n: u16) -> Asid {
        Asid::new(n)
    }

    #[test]
    fn clone_retagged_is_isomorphic_to_replaying_under_other_asid() {
        // Drive two TLBs through the same operation sequence under
        // different ASIDs; retagging one must equal the other exactly,
        // including LRU order (probed via eviction behaviour) and stats.
        let mut a = Tlb::new(4);
        let mut b = Tlb::new(4);
        let ops: &[u64] = &[1, 2, 3, 1, 4, 5, 2, 6];
        for &vpn in ops {
            if a.lookup(asid(7), vpn).is_none() {
                a.insert(asid(7), vpn, entry(vpn * 10));
            }
            if b.lookup(asid(9), vpn).is_none() {
                b.insert(asid(9), vpn, entry(vpn * 10));
            }
        }
        let mut t = a.clone_retagged(asid(9));
        assert_eq!(
            (t.hits(), t.misses(), t.evictions()),
            (b.hits(), b.misses(), b.evictions())
        );
        for vpn in 0..8 {
            assert_eq!(t.probe(asid(9), vpn), b.probe(asid(9), vpn), "vpn {vpn}");
            assert_eq!(t.probe(asid(7), vpn), None, "old tag must be gone");
        }
        // Same future behaviour: one more insert evicts the same victim.
        t.insert(asid(9), 100, entry(1));
        b.insert(asid(9), 100, entry(1));
        for vpn in 0..8 {
            assert_eq!(
                t.probe(asid(9), vpn),
                b.probe(asid(9), vpn),
                "post-evict vpn {vpn}"
            );
        }
    }

    #[test]
    fn lookup_or_fill_matches_lookup_then_insert() {
        let mut fused = Tlb::new(2);
        let mut plain = Tlb::new(2);
        for &vpn in &[1u64, 2, 1, 3, 2, 3, 3, 4] {
            let r: Result<_, ()> = fused.lookup_or_fill(asid(1), vpn, || Ok(entry(vpn)));
            let (hit, e) = r.unwrap();
            let p = plain.lookup(asid(1), vpn);
            assert_eq!(hit, p.is_some(), "vpn {vpn}");
            if p.is_none() {
                plain.insert(asid(1), vpn, entry(vpn));
            }
            assert_eq!(e.frame, vpn);
        }
        assert_eq!(fused.hits(), plain.hits());
        assert_eq!(fused.misses(), plain.misses());
        assert_eq!(fused.evictions(), plain.evictions());
        for vpn in 0..6 {
            assert_eq!(fused.probe(asid(1), vpn), plain.probe(asid(1), vpn));
        }
        // A failing fill counts the miss but changes nothing else.
        let before = fused.misses();
        assert!(fused.lookup_or_fill(asid(1), 99, || Err("boom")).is_err());
        assert_eq!(fused.misses(), before + 1);
        assert_eq!(fused.probe(asid(1), 99), None);
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(4);
        tlb.insert(asid(1), 100, entry(7));
        assert_eq!(tlb.lookup(asid(1), 100), Some(entry(7)));
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn miss_on_wrong_asid() {
        let mut tlb = Tlb::new(4);
        tlb.insert(asid(1), 100, entry(7));
        assert_eq!(tlb.lookup(asid(2), 100), None);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(3);
        tlb.insert(asid(0), 1, entry(1));
        tlb.insert(asid(0), 2, entry(2));
        tlb.insert(asid(0), 3, entry(3));
        // Touch 1 so 2 becomes LRU.
        tlb.lookup(asid(0), 1);
        tlb.insert(asid(0), 4, entry(4));
        assert!(tlb.probe(asid(0), 2).is_none(), "2 was LRU and evicted");
        assert!(tlb.probe(asid(0), 1).is_some());
        assert!(tlb.probe(asid(0), 3).is_some());
        assert!(tlb.probe(asid(0), 4).is_some());
        assert_eq!(tlb.evictions(), 1);
        let mru: Vec<u64> = tlb.iter_mru().map(|(_, vpn, _)| vpn).collect();
        assert_eq!(mru, vec![4, 1, 3]);
    }

    #[test]
    fn reinsert_updates_entry_without_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(asid(0), 1, entry(1));
        tlb.insert(asid(0), 1, entry(9));
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.probe(asid(0), 1), Some(entry(9)));
        assert_eq!(tlb.evictions(), 0);
    }

    #[test]
    fn thrashing_working_set_larger_than_capacity() {
        // The Fig. 6 mechanism: a cyclic working set one larger than the
        // TLB capacity misses on every access under true LRU.
        let mut tlb = Tlb::new(8);
        for round in 0..4 {
            for vpn in 0..9u64 {
                if tlb.lookup(asid(0), vpn).is_none() {
                    tlb.insert(asid(0), vpn, entry(vpn));
                }
            }
            if round > 0 {
                // After warm-up every access misses.
                assert_eq!(tlb.hits(), 0, "LRU thrashes on cyclic overflow");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut tlb = Tlb::new(8);
        for vpn in 0..8u64 {
            tlb.insert(asid(0), vpn, entry(vpn));
        }
        tlb.reset_stats();
        for _ in 0..3 {
            for vpn in 0..8u64 {
                assert!(tlb.lookup(asid(0), vpn).is_some());
            }
        }
        assert_eq!(tlb.hit_rate(), Some(1.0));
    }

    #[test]
    fn invalidate_asid_is_selective() {
        let mut tlb = Tlb::new(8);
        tlb.insert(asid(1), 10, entry(1));
        tlb.insert(asid(2), 20, entry(2));
        tlb.invalidate_asid(asid(1));
        assert!(tlb.probe(asid(1), 10).is_none());
        assert!(tlb.probe(asid(2), 20).is_some());
        // The freed slot is reusable.
        tlb.insert(asid(3), 30, entry(3));
        assert_eq!(tlb.len(), 2);
    }

    #[test]
    fn flush_empties() {
        let mut tlb = Tlb::new(4);
        tlb.insert(asid(0), 1, entry(1));
        tlb.flush();
        assert!(tlb.is_empty());
        assert!(tlb.probe(asid(0), 1).is_none());
        // Still usable after flush.
        tlb.insert(asid(0), 2, entry(2));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn stress_many_entries_consistent() {
        // Insert far more than capacity; len never exceeds capacity and
        // most-recent `capacity` survive.
        let mut tlb = Tlb::new(64);
        for vpn in 0..1000u64 {
            tlb.insert(asid(0), vpn, entry(vpn));
            assert!(tlb.len() <= 64);
        }
        for vpn in (1000 - 64)..1000u64 {
            assert_eq!(tlb.probe(asid(0), vpn), Some(entry(vpn)), "vpn {vpn}");
        }
    }
}
