//! Frontier index structures for the epidemic-proportional tick scan.
//!
//! The engine's per-tick cost should track the *active frontier* — the
//! set of nodes that could possibly change state this tick — not the
//! full network. Two structures make that possible:
//!
//! * [`ActiveSet`] — a two-level bitset over node ids holding every
//!   node with at least one in-neighbor in an infectious-capable
//!   (`via`) health state. Iteration over a partition's node range
//!   skips empty 64-word blocks (4096 nodes) via a summary level, so a
//!   tick with a tiny epidemic touches a few cache lines instead of
//!   every node.
//! * [`TickBuckets`] — one queue of scheduled progressions, keyed by
//!   the tick at which they fire. The engine pushes a node whenever it
//!   schedules an `exit_tick`, and drains bucket `t` once at tick `t`,
//!   replacing the former `exit_tick[v] == t` sweep over all nodes.
//!   Entries may be stale (a node re-scheduled after the push) or
//!   duplicated (re-scheduled onto the same tick); the engine sorts,
//!   dedups, and re-checks `exit_tick == t` before firing.
//!
//! Both structures are *indexes over* the authoritative per-node state
//! (`SimState::health`, `SimState::exit_tick`); they never hold
//! information that cannot be rebuilt from it (see
//! `Simulation::rebuild_frontier`).

use std::collections::HashMap;

/// Mask with the low `n` bits set (`n` may be 64).
#[inline]
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A two-level bitset over `0..n` node ids with block-skipping range
/// iteration.
///
/// Level 0 is one bit per node; level 1 (the summary) has one bit per
/// level-0 word, set iff that word is non-zero. Range iteration visits
/// only non-empty words, so an almost-empty set costs
/// `O(range / 4096 + population)` per scan instead of `O(range)`.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// Empty set over the id space `0..n`.
    pub fn new(n: usize) -> Self {
        let n_words = n.div_ceil(64);
        ActiveSet { words: vec![0; n_words], summary: vec![0; n_words.div_ceil(64)], len: 0 }
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `v` in the set?
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.words[(v / 64) as usize] >> (v % 64) & 1 == 1
    }

    /// Insert `v` (no-op if present).
    #[inline]
    pub fn insert(&mut self, v: u32) {
        let (w, b) = ((v / 64) as usize, v % 64);
        if self.words[w] >> b & 1 == 0 {
            self.words[w] |= 1 << b;
            self.summary[w / 64] |= 1 << (w % 64);
            self.len += 1;
        }
    }

    /// Remove `v` (no-op if absent).
    #[inline]
    pub fn remove(&mut self, v: u32) {
        let (w, b) = ((v / 64) as usize, v % 64);
        if self.words[w] >> b & 1 == 1 {
            self.words[w] &= !(1 << b);
            if self.words[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
            self.len -= 1;
        }
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
        self.len = 0;
    }

    /// Number of set bits in `[lo, hi)` — a masked popcount sweep,
    /// `O(range / 64)`. The engine uses this to pick between the
    /// frontier merge scan and the saturated full-range sweep.
    pub fn count_range(&self, lo: u32, hi: u32) -> usize {
        if lo >= hi {
            return 0;
        }
        let w_lo = (lo / 64) as usize;
        let w_hi = ((hi - 1) / 64) as usize;
        let mut count = 0usize;
        for w in w_lo..=w_hi {
            let mut bits = self.words[w];
            if w == w_lo {
                bits &= !low_mask(lo % 64);
            }
            if w == w_hi {
                bits &= low_mask(hi % 64 + if hi.is_multiple_of(64) { 64 } else { 0 });
            }
            count += bits.count_ones() as usize;
        }
        count
    }

    /// Iterate set bits in `[lo, hi)` in increasing order.
    pub fn iter_range(&self, lo: u32, hi: u32) -> ActiveRangeIter<'_> {
        debug_assert!(hi as usize <= self.words.len() * 64);
        if lo >= hi {
            return ActiveRangeIter {
                set: self,
                lo: 0,
                hi: 0,
                w_lo: 0,
                w_hi: 0,
                blk: 0,
                blocks_end: 0,
                blk_bits: 0,
                word_idx: 0,
                word_bits: 0,
            };
        }
        let w_lo = (lo / 64) as usize;
        let w_hi = ((hi - 1) / 64) as usize;
        let blk = w_lo / 64;
        let mut it = ActiveRangeIter {
            set: self,
            lo,
            hi,
            w_lo,
            w_hi,
            blk,
            blocks_end: w_hi / 64 + 1,
            blk_bits: 0,
            word_idx: 0,
            word_bits: 0,
        };
        it.blk_bits = it.masked_summary(blk);
        it
    }
}

/// Iterator over [`ActiveSet`] members within a node range.
pub struct ActiveRangeIter<'a> {
    set: &'a ActiveSet,
    lo: u32,
    hi: u32,
    w_lo: usize,
    w_hi: usize,
    blk: usize,
    blocks_end: usize,
    blk_bits: u64,
    word_idx: usize,
    word_bits: u64,
}

impl ActiveRangeIter<'_> {
    /// Summary word for `blk`, masked to the words in `[w_lo, w_hi]`.
    fn masked_summary(&self, blk: usize) -> u64 {
        if blk >= self.blocks_end {
            return 0;
        }
        let mut s = self.set.summary[blk];
        let base = blk * 64;
        if self.w_lo > base {
            s &= !low_mask((self.w_lo - base) as u32);
        }
        if self.w_hi < base + 63 {
            s &= low_mask((self.w_hi - base + 1) as u32);
        }
        s
    }
}

impl Iterator for ActiveRangeIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.word_bits != 0 {
                let b = self.word_bits.trailing_zeros();
                self.word_bits &= self.word_bits - 1;
                return Some(self.word_idx as u32 * 64 + b);
            }
            if self.blk_bits != 0 {
                let wb = self.blk_bits.trailing_zeros() as usize;
                self.blk_bits &= self.blk_bits - 1;
                self.word_idx = self.blk * 64 + wb;
                let mut bits = self.set.words[self.word_idx];
                if self.word_idx == self.w_lo {
                    bits &= !low_mask(self.lo % 64);
                }
                if self.word_idx == self.w_hi {
                    // `hi % 64 == 0` cannot reach here: then w_hi < hi/64.
                    bits &=
                        low_mask(self.hi % 64 + if self.hi.is_multiple_of(64) { 64 } else { 0 });
                }
                self.word_bits = bits;
                continue;
            }
            self.blk += 1;
            if self.blk >= self.blocks_end {
                return None;
            }
            self.blk_bits = self.masked_summary(self.blk);
        }
    }
}

/// The queue of scheduled progressions, keyed by firing tick.
///
/// Push order is whatever order the apply phase runs in; the drain
/// sorts and dedups so the scan emits events in node order, matching
/// the reference full-range sweep byte for byte. The queue knows
/// nothing of partitions: the run loop drains a tick once and each
/// partition's scan reads its own slice of the sorted list.
#[derive(Clone, Debug, Default)]
pub struct TickBuckets {
    buckets: HashMap<u32, Vec<u32>>,
    queued: usize,
}

impl TickBuckets {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `node` to be checked at `tick`.
    #[inline]
    pub fn push(&mut self, tick: u32, node: u32) {
        self.buckets.entry(tick).or_default().push(node);
        self.queued += 1;
    }

    /// Drain the bucket for `tick` into `out`, sorted and deduped.
    /// `out` is cleared first (buffer reuse).
    pub fn take_into(&mut self, tick: u32, out: &mut Vec<u32>) {
        out.clear();
        if let Some(nodes) = self.buckets.remove(&tick) {
            self.queued -= nodes.len();
            out.extend(nodes);
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Total queued entries (stale entries included) — for memory
    /// accounting and tests. O(1).
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// The queue in a deterministic form: `(tick, nodes)` pairs sorted
    /// by tick, nodes sorted within each tick with duplicates
    /// *preserved*. Duplicates matter only for [`TickBuckets::queued`]
    /// (the memory model counts them), not for the events the drain
    /// emits (it dedups) — so re-pushing every exported entry
    /// reproduces byte-identical behaviour.
    pub fn export_entries(&self) -> Vec<(u32, Vec<u32>)> {
        let mut entries: Vec<(u32, Vec<u32>)> = self
            .buckets
            .iter()
            .map(|(&tick, nodes)| {
                let mut nodes = nodes.clone();
                nodes.sort_unstable();
                (tick, nodes)
            })
            .collect();
        entries.sort_unstable_by_key(|&(tick, _)| tick);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(set: &ActiveSet, lo: u32, hi: u32) -> Vec<u32> {
        set.iter_range(lo, hi).collect()
    }

    #[test]
    fn insert_remove_contains_len() {
        let mut s = ActiveSet::new(10_000);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(4095);
        s.insert(4096);
        s.insert(9999);
        s.insert(9999); // duplicate insert is a no-op
        assert_eq!(s.len(), 6);
        assert!(s.contains(4096) && !s.contains(4097));
        s.remove(4096);
        s.remove(4096); // duplicate remove is a no-op
        assert_eq!(s.len(), 5);
        assert!(!s.contains(4096));
    }

    #[test]
    fn range_iteration_matches_naive() {
        // Deterministic pseudo-random membership; compare against a
        // naive filter over every (lo, hi) word-boundary combination.
        let n = 20_000u32;
        let mut s = ActiveSet::new(n as usize);
        let mut members = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for v in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(37) {
                s.insert(v);
                members.push(v);
            }
        }
        for &(lo, hi) in &[
            (0u32, n),
            (0, 1),
            (63, 65),
            (64, 128),
            (100, 100),
            (4095, 4097),
            (4096, 8192),
            (12_345, 17_890),
            (n - 1, n),
        ] {
            let naive: Vec<u32> = members.iter().copied().filter(|&v| v >= lo && v < hi).collect();
            assert_eq!(collect(&s, lo, hi), naive, "range {lo}..{hi}");
            assert_eq!(s.count_range(lo, hi), naive.len(), "count {lo}..{hi}");
        }
    }

    #[test]
    fn empty_and_full_ranges() {
        let mut s = ActiveSet::new(300);
        assert!(collect(&s, 0, 300).is_empty());
        for v in 0..300 {
            s.insert(v);
        }
        assert_eq!(collect(&s, 0, 300), (0..300).collect::<Vec<u32>>());
        assert_eq!(collect(&s, 290, 300), (290..300).collect::<Vec<u32>>());
        s.clear();
        assert!(s.is_empty());
        assert!(collect(&s, 0, 300).is_empty());
    }

    #[test]
    fn summary_skips_do_not_lose_members() {
        // Two members very far apart: iteration must cross many empty
        // summary blocks.
        let mut s = ActiveSet::new(1_000_000);
        s.insert(3);
        s.insert(999_999);
        assert_eq!(collect(&s, 0, 1_000_000), vec![3, 999_999]);
        assert_eq!(collect(&s, 4, 999_999), Vec::<u32>::new());
    }

    #[test]
    fn buckets_sort_dedup_and_drain() {
        let mut b = TickBuckets::new();
        b.push(5, 9);
        b.push(5, 3);
        b.push(5, 9); // duplicate (re-scheduled onto the same tick)
        b.push(5, 7);
        b.push(6, 1);
        assert_eq!(b.queued(), 5);
        let mut out = vec![42]; // stale content must be cleared
        b.take_into(5, &mut out);
        assert_eq!(out, vec![3, 7, 9]);
        assert_eq!(b.queued(), 1);
        b.take_into(5, &mut out);
        assert!(out.is_empty(), "bucket drains only once");
        b.take_into(6, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(b.queued(), 0);
    }

    /// The exported queue carries no partition layout, so a snapshot
    /// re-imports unchanged whatever partition count the resumed run
    /// uses.
    #[test]
    fn ckpt_export_preserves_duplicates_across_partitions() {
        let mut b = TickBuckets::new();
        b.push(5, 9);
        b.push(5, 9); // duplicate on the same tick
        b.push(5, 3);
        b.push(7, 4);
        let exported = b.export_entries();
        assert_eq!(exported, vec![(5, vec![3, 9, 9]), (7, vec![4])]);

        // Re-import: queued() (which the memory model reads) and drain
        // results both survive.
        let mut b2 = TickBuckets::new();
        for (tick, nodes) in &exported {
            for &v in nodes {
                b2.push(*tick, v);
            }
        }
        assert_eq!(b2.export_entries(), exported);
        assert_eq!(b2.queued(), b.queued());
        let mut out = Vec::new();
        b2.take_into(5, &mut out);
        assert_eq!(out, vec![3, 9]);
    }
}
