//! Node-group partitioning and allocation.
//!
//! The Fig. 5(a) mapping splits one logical GEMM across a *group* of
//! compute nodes. The closed-loop runners always use the whole machine as
//! one group; a multi-tenant serving layer instead space-shares the 16
//! nodes, carving disjoint groups out of a free pool and partitioning each
//! tenant's GEMM across its own group. This module provides the two pieces
//! that layer needs from the core:
//!
//! * [`NodePool`] — a deterministic, *time-aware* free-list of compute
//!   nodes (lowest-index-first allocation, so identical request sequences
//!   yield identical placements);
//! * [`partition_onto`] — the Fig. 5(a) shape split assigned to an
//!   explicit group member list.

use maco_sim::SimTime;

use crate::gemm_plus::partition_shapes_into;

/// A deterministic allocator over a machine's compute nodes.
///
/// Allocation is lowest-index-first and all-or-nothing (gang semantics):
/// a request for `width` nodes either hands out exactly `width` node
/// indices or takes nothing. The pool is **time-aware**: a released node
/// carries the simulated time it became free, and an allocation at time
/// `now` only considers nodes already free *by* `now`. Discrete-event
/// schedulers need this because completions are processed in event
/// order, not timestamp order — a completion at a late simulated time can
/// be processed before one at an earlier time, and its freed nodes must
/// not serve dispatches timestamped in their busy past.
///
/// ```
/// use maco_core::group::NodePool;
/// use maco_sim::{SimDuration, SimTime};
///
/// let t = |ns| SimTime::ZERO + SimDuration::from_ns(ns);
/// let mut pool = NodePool::new(4);
/// let mut a = Vec::new();
/// assert!(pool.allocate(3, t(0), |node| a.push(node)));
/// assert_eq!(a, vec![0, 1, 2]);
/// assert!(!pool.allocate(2, t(10), |_| {}), "only one node left");
/// for node in a {
///     pool.release(node, t(100));
/// }
/// assert_eq!(pool.free_count(t(50)), 1, "released nodes free only from t=100");
/// assert_eq!(pool.free_count(t(100)), 4);
/// ```
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Per node: `None` while leased, `Some(t)` free from time `t` on.
    free_at: Vec<Option<SimTime>>,
}

impl NodePool {
    /// A pool over nodes `0..nodes`, all free from time zero.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 1, "pool needs at least one node");
        NodePool {
            free_at: vec![Some(SimTime::ZERO); nodes],
        }
    }

    /// Total nodes managed by the pool.
    pub fn capacity(&self) -> usize {
        self.free_at.len()
    }

    /// Nodes free at time `now`.
    pub fn free_count(&self, now: SimTime) -> usize {
        self.free_at
            .iter()
            .filter(|f| f.is_some_and(|t| t <= now))
            .count()
    }

    /// Allocates the `width` lowest-indexed nodes free at `now`, handing
    /// each to `each` in ascending order, or takes nothing and returns
    /// `false` if fewer than `width` qualify (gang all-or-nothing). The
    /// caller keeps the gang wherever it already records it, so nothing
    /// is allocated here.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn allocate(&mut self, width: usize, now: SimTime, mut each: impl FnMut(usize)) -> bool {
        assert!(width >= 1, "groups have at least one member");
        if self.free_count(now) < width {
            return false;
        }
        let free = self.free_at.iter_mut().enumerate();
        for (i, f) in free
            .filter(|(_, f)| f.is_some_and(|t| t <= now))
            .take(width)
        {
            *f = None;
            each(i);
        }
        true
    }

    /// The earliest time strictly after `now` at which some currently
    /// released node becomes free — the retry instant a blocked scheduler
    /// arms its wake-up for.
    pub fn next_free_after(&self, now: SimTime) -> Option<SimTime> {
        self.free_at
            .iter()
            .filter_map(|f| f.filter(|&t| t > now))
            .min()
    }

    /// Returns a leased node to the pool, free from `at` on.
    ///
    /// # Panics
    ///
    /// Panics on double release or an out-of-range index — both scheduler
    /// bugs worth failing loudly on.
    pub fn release(&mut self, node: usize, at: SimTime) {
        assert!(self.free_at[node].is_none(), "node {node} released twice");
        self.free_at[node] = Some(at);
    }
}

/// Partitions an `m×n×k` GEMM across the members of `group` per Fig. 5(a):
/// the output's larger extent is split as evenly as possible and the j-th
/// slice is assigned to `group[j]`. Returns `(node, (m, n, k))` pairs; at
/// most `group.len()` of them.
///
/// "Degenerate slivers are dropped" means *zero-size* parts only — they
/// arise exactly when the group has more members than the split extent
/// has units, leaving the tail of the group idle for that layer. Uneven
/// remainders are **not** dropped: slice extents differ by at most one
/// and sum exactly to the split extent, so every output element is
/// assigned (the contract of [`crate::gemm_plus::partition_shapes`]).
pub fn partition_onto(m: u64, n: u64, k: u64, group: &[usize]) -> Vec<(usize, (u64, u64, u64))> {
    let mut shapes = Vec::new();
    partition_shapes_into(m, n, k, group.len(), &mut shapes);
    group.iter().copied().zip(shapes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_sim::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    /// The gang [`NodePool::allocate`] hands out, collected.
    fn allocate(pool: &mut NodePool, width: usize, now: SimTime) -> Option<Vec<usize>> {
        let mut group = Vec::new();
        pool.allocate(width, now, |node| group.push(node))
            .then_some(group)
    }

    fn release(pool: &mut NodePool, group: &[usize], at: SimTime) {
        for &node in group {
            pool.release(node, at);
        }
    }

    #[test]
    fn allocation_is_lowest_index_first_and_gang() {
        let mut pool = NodePool::new(6);
        let a = allocate(&mut pool, 2, t(0)).unwrap();
        let b = allocate(&mut pool, 3, t(0)).unwrap();
        assert_eq!(a, vec![0, 1]);
        assert_eq!(b, vec![2, 3, 4]);
        assert_eq!(pool.free_count(t(0)), 1);
        assert!(allocate(&mut pool, 2, t(0)).is_none(), "all-or-nothing");
        assert_eq!(pool.free_count(t(0)), 1, "failed allocation takes nothing");
    }

    #[test]
    fn release_reopens_lowest_holes() {
        let mut pool = NodePool::new(4);
        let a = allocate(&mut pool, 2, t(0)).unwrap();
        let _b = allocate(&mut pool, 2, t(0)).unwrap();
        release(&mut pool, &a, t(5));
        // The hole at the front is reused first.
        assert_eq!(allocate(&mut pool, 1, t(5)).unwrap(), vec![0]);
    }

    #[test]
    fn released_nodes_are_invisible_before_their_free_time() {
        let mut pool = NodePool::new(2);
        let a = allocate(&mut pool, 1, t(0)).unwrap();
        // Completion processed "out of order": frees node 0 at t=100.
        release(&mut pool, &a, t(100));
        // A dispatch timestamped earlier must not see it…
        assert_eq!(allocate(&mut pool, 2, t(40)), None);
        assert_eq!(allocate(&mut pool, 1, t(40)).unwrap(), vec![1]);
        // …but a dispatch at (or after) the free time may.
        assert_eq!(allocate(&mut pool, 1, t(100)).unwrap(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_is_a_bug() {
        let mut pool = NodePool::new(2);
        let a = allocate(&mut pool, 1, t(0)).unwrap();
        release(&mut pool, &a, t(1));
        release(&mut pool, &a, t(2));
    }

    #[test]
    fn partition_assigns_slices_to_members() {
        let parts = partition_onto(512, 1024, 256, &[3, 5, 7, 9]);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], (3, (512, 256, 256)));
        let total: u64 = parts.iter().map(|(_, (_, n, _))| n).sum();
        assert_eq!(total, 1024, "columns covered exactly");
    }

    #[test]
    fn partition_drops_slivers_on_tiny_extents() {
        let parts = partition_onto(2, 3, 8, &[0, 1, 2, 3]);
        assert_eq!(parts.len(), 3, "only three non-empty column slices");
        let flops: u64 = parts.iter().map(|(_, (m, n, k))| 2 * m * n * k).sum();
        assert_eq!(flops, 2 * 2 * 3 * 8, "flops conserved");
    }
}
