//! The best-first search's priority frontier.
//!
//! The combination search ([`crate::search`]) pops states by ascending
//! priority, then *deeper* states first, then older insertions first.
//! Priorities are sums of a few cost parameters, so a frontier of
//! hundreds of thousands of states holds only a handful of distinct
//! `(priority, depth)` pairs: ties are the workload. A comparison heap
//! pays `O(log n)` sifts through the whole frontier to order items that
//! compare equal on everything but their insertion number. Here each
//! distinct `(priority, depth)` is one FIFO bucket — an ordered map from
//! priority to that priority's buckets, indexed by depth — so a push
//! appends to its bucket and a pop takes the front of the deepest
//! non-empty bucket of the first priority: `O(log #priorities + depth)`,
//! independent of the frontier's size.
//!
//! Insertion numbers only ever grow, so "append" *is* "older first":
//! the pop sequence is exactly that of a binary heap ordered by
//! `(priority total_cmp, deeper first, older first)`, which
//! `tests/search_frontier.rs` checks against such a heap.
//!
//! The price is the opposite workload: when every state has a priority
//! of its own, each one pays for a map entry and a bucket of its own,
//! about twice a binary heap's cost per state (DESIGN §5 has the
//! measurement).

use std::collections::{BTreeMap, VecDeque};

/// Map an `f64` to an `i64` whose integer order is `f64::total_cmp`'s
/// (the same bit trick `total_cmp` uses). An involution on the bits:
/// [`from_total_order_key`] undoes it with the same xor.
pub(crate) fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

pub(crate) fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// A min-priority queue of `T` keyed by `(priority, depth)`: pops go by
/// ascending priority (`f64::total_cmp` order, so `-0.0` before `+0.0`),
/// then descending depth, then insertion order.
#[derive(Debug)]
pub struct Frontier<T> {
    /// Best-first search dives: the child of a popped state lands one
    /// depth further down, usually at the same priority, and is popped
    /// next, so the deep buckets fill and drain on almost every
    /// expansion. Kept under their priority, that never changes the map
    /// — one keyed by `(priority, depth)` inserted and removed an entry
    /// per push.
    levels: BTreeMap<i64, Level<T>>,
    /// The last level to empty, its buckets' capacity kept: a search
    /// that pops the last state of a priority often queues at it again
    /// in the same or one of the next few pops, and a level taken from
    /// here makes that allocate nothing.
    spare: Option<Level<T>>,
    len: usize,
}

/// The states queued at one priority.
#[derive(Debug)]
struct Level<T> {
    /// One FIFO bucket per depth, indexed by it.
    by_depth: Vec<VecDeque<T>>,
    /// Items over all buckets; the level leaves the map at 0.
    len: usize,
}

impl<T> Default for Level<T> {
    fn default() -> Self {
        Level {
            by_depth: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Default for Frontier<T> {
    fn default() -> Self {
        Frontier {
            levels: BTreeMap::new(),
            spare: None,
            len: 0,
        }
    }
}

impl<T> Frontier<T> {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` behind everything already queued at the same
    /// `(priority, depth)`.
    pub fn push(&mut self, priority: f64, depth: u32, item: T) {
        let level = self
            .levels
            .entry(total_order_key(priority))
            .or_insert_with(|| self.spare.take().unwrap_or_default());
        let depth = depth as usize;
        if level.by_depth.len() <= depth {
            level.by_depth.resize_with(depth + 1, VecDeque::new);
        }
        level.by_depth[depth].push_back(item);
        level.len += 1;
        self.len += 1;
    }

    /// Remove the best item, with the priority and depth it was pushed
    /// under.
    pub fn pop(&mut self) -> Option<(f64, u32, T)> {
        let mut first = self.levels.first_entry()?;
        let key = *first.key();
        let level = first.get_mut();
        let depth = level
            .by_depth
            .iter()
            .rposition(|bucket| !bucket.is_empty())
            .expect("an emptied level is removed at once");
        let item = level.by_depth[depth].pop_front().expect("just found");
        level.len -= 1;
        if level.len == 0 {
            self.spare = Some(first.remove());
        }
        self.len -= 1;
        Some((from_total_order_key(key), depth as u32, item))
    }

    /// Keep the best `keep` items — the ones the next `keep` pops would
    /// have returned, in the same order — and drop the rest. The bucket
    /// the cut falls in is split: its oldest items stay.
    pub fn truncate(&mut self, keep: usize) {
        let mut room = keep;
        let mut cut = None;
        for (key, level) in &mut self.levels {
            if room == 0 {
                cut = Some(*key);
                break;
            }
            level.len = 0;
            for bucket in level.by_depth.iter_mut().rev() {
                bucket.truncate(room);
                room -= bucket.len();
                level.len += bucket.len();
            }
        }
        if let Some(key) = cut {
            self.levels.split_off(&key);
        }
        self.len = keep - room;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_like_total_cmp_and_round_trips() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            0.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in values.windows(2) {
            assert!(total_order_key(w[0]) < total_order_key(w[1]));
        }
        for v in values {
            assert_eq!(
                from_total_order_key(total_order_key(v)).to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn pops_by_priority_then_depth_then_age() {
        let mut f = Frontier::new();
        f.push(1.0, 1, "shallow");
        f.push(1.0, 2, "deep, first");
        f.push(0.5, 1, "cheap");
        f.push(1.0, 2, "deep, second");
        assert_eq!(f.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| f.pop()).collect();
        assert_eq!(
            order,
            [
                (0.5, 1, "cheap"),
                (1.0, 2, "deep, first"),
                (1.0, 2, "deep, second"),
                (1.0, 1, "shallow"),
            ]
        );
        assert!(f.is_empty());
    }

    #[test]
    fn truncate_splits_the_boundary_bucket() {
        let mut f = Frontier::new();
        for i in 0..4 {
            f.push(1.0, 1, i);
        }
        f.push(2.0, 1, 9);
        f.truncate(3);
        assert_eq!(f.len(), 3);
        let kept: Vec<_> = std::iter::from_fn(|| f.pop()).map(|(.., i)| i).collect();
        assert_eq!(kept, [0, 1, 2]);
        f.push(1.0, 1, 7);
        f.truncate(0);
        assert!(f.is_empty() && f.pop().is_none());
    }
}
