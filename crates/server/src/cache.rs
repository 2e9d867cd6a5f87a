//! Bounded, lock-free, set-associative cache for distance answers.
//!
//! Social-network query traffic is heavily skewed (hot users appear in many
//! queries), so a small cache in front of the oracle absorbs repeated pairs.
//! Keys are normalised `(min, max)` pairs — the graphs are undirected, so
//! `d(s,t) = d(t,s)` and both orientations share an entry. Only
//! *definitive* answers (exact distances and proven unreachability) are
//! cached; index misses are not, so enabling a fallback later still
//! resolves them.
//!
//! ## Layout
//!
//! The oracle's cost model counts memory look-ups, and a cache operation
//! should cost one of them. The table is one boxed slice of 64-byte-aligned
//! sets; a key hashes to exactly one set, and each set is one cache line
//! holding four ways: a sequence word, a fill/victim byte, one epoch stamp
//! for the whole set, four `u64` keys and four `u32` values, all atomics.
//! A get or an insert touches that line and nothing else, so
//! [`QueryCache::prefetch`] can hint it ahead of time; the serving
//! pipeline hints every set of a block before it probes any of them.
//!
//! ## Concurrency
//!
//! No locks. A set is a seqlock: a reader loads the sequence (Acquire),
//! the set's fields (Relaxed), fences (Acquire) and rechecks the sequence.
//! An odd or changed sequence means a writer was inside the set, and the
//! read counts as a miss, so a torn entry is never served. A writer claims
//! the set by a compare-and-swap of the sequence to odd; if another writer
//! holds it, the insert is simply dropped (a cache may forget).
//!
//! ## Epochs
//!
//! Under dynamic edge updates a cached answer is only valid for the oracle
//! version that produced it. Each set carries the **epoch** of its entries,
//! and [`QueryCache::get`] takes the reading session's epoch: a set stamped
//! with any other epoch misses, so a reader on the post-update epoch can
//! never be served a pre-update answer. An insert under a newer epoch
//! empties the set and restamps it; an insert under an older epoch is
//! dropped. Static services pass epoch 0 everywhere.
//!
//! ## Policy
//!
//! * Capacity rounds up to a power-of-two number of four-way sets.
//! * Replacement is FIFO within a set, and a set fills independently of
//!   the others, so an entry can be evicted before the cache is full.
//! * A slot costs 16 bytes (a linked-list LRU over a hash map cost ~50).
//! * On the benchmark's traced `zipf-a4` workload (seed 7) the hit rate
//!   is 25.7 %, against 27.4 % for an exact LRU of the same capacity.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, Ordering};

use vicinity_core::prefetch::prefetch_read;
use vicinity_graph::{Distance, NodeId};

/// Sentinel stored for "provably unreachable".
const UNREACHABLE: u32 = u32::MAX;

/// Entries per set.
const WAYS: usize = 4;

/// A cached definitive answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Exact distance in hops.
    Exact(Distance),
    /// The endpoints are in different components.
    Unreachable,
}

impl CachedAnswer {
    fn encode(self) -> u32 {
        match self {
            CachedAnswer::Exact(d) => {
                debug_assert!(
                    d < UNREACHABLE,
                    "distance overlaps the unreachable sentinel"
                );
                d
            }
            CachedAnswer::Unreachable => UNREACHABLE,
        }
    }

    fn decode(raw: u32) -> Self {
        if raw == UNREACHABLE {
            CachedAnswer::Unreachable
        } else {
            CachedAnswer::Exact(raw)
        }
    }
}

/// One cache line: four ways guarded by a seqlock.
#[repr(align(64))]
#[derive(Default)]
struct Set {
    /// Seqlock word: odd while a writer is inside the set. It wraps; a
    /// reader is fooled only if 2^31 writes to its set land between its
    /// two loads.
    seq: AtomicU32,
    /// Inserts since the set was last emptied, folded into `0..8`: the
    /// first `min(fill, 4)` ways are live and way `fill % 4` is the next
    /// to fill or, once full, the oldest (the FIFO victim).
    fill: AtomicU8,
    /// Oracle epoch every live way was computed under.
    epoch: AtomicU64,
    keys: [AtomicU64; WAYS],
    values: [AtomicU32; WAYS],
}

/// Live ways of a set whose fill byte reads `fill`.
#[inline]
fn live(fill: u8) -> usize {
    (fill as usize).min(WAYS)
}

/// The fill byte after one more insert into a new way: it counts up to 7,
/// then wraps to 4, so a full set stays full and the victim cycles.
#[inline]
fn next_fill(fill: u8) -> u8 {
    if fill as usize == 2 * WAYS - 1 {
        WAYS as u8
    } else {
        fill + 1
    }
}

/// Set-associative, seqlock-guarded table over normalised query pairs.
pub struct QueryCache {
    sets: Box<[Set]>,
    /// `sets.len() - 1`; the set count is a power of two.
    mask: usize,
    /// Right shift taking a key's multiplicative hash to its top
    /// `log2(sets.len())` bits.
    shift: u32,
}

impl QueryCache {
    /// A cache of at least `capacity` answers: `capacity / 4` sets rounded
    /// up to a power of two. `shards` is ignored; the table needs no
    /// sharding, and the argument stays for source compatibility.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let _ = shards;
        let sets = capacity.div_ceil(WAYS).max(1).next_power_of_two();
        QueryCache {
            sets: (0..sets).map(|_| Set::default()).collect(),
            mask: sets - 1,
            shift: (64 - sets.trailing_zeros()).min(63),
        }
    }

    /// Normalise an endpoint pair into a cache key: undirected queries are
    /// symmetric, so `(s, t)` and `(t, s)` map to the same `(min, max)` key.
    #[inline]
    pub fn key(s: NodeId, t: NodeId) -> u64 {
        let (lo, hi) = if s <= t { (s, t) } else { (t, s) };
        ((lo as u64) << 32) | hi as u64
    }

    #[inline]
    fn set_of(&self, key: u64) -> &Set {
        // Fibonacci hash; the top bits depend on every bit of the key.
        let h = key.wrapping_mul(0x9E3779B97F4A7C15) >> self.shift;
        &self.sets[h as usize & self.mask]
    }

    /// Hint that `(s, t)` will be looked up or inserted soon: prefetch the
    /// one cache line it maps to.
    #[inline]
    pub fn prefetch(&self, s: NodeId, t: NodeId) {
        prefetch_read(self.set_of(Self::key(s, t)));
    }

    /// Look up the answer for `(s, t)` as observed under oracle `epoch`.
    /// A set stamped with another epoch misses, and so does a set a writer
    /// is inside: no reader on a new version is served a stale answer, and
    /// none is served a half-written one.
    pub fn get(&self, s: NodeId, t: NodeId, epoch: u64) -> Option<CachedAnswer> {
        let key = Self::key(s, t);
        let set = self.set_of(key);
        // Pairs with the writer's closing Release store: an even sequence
        // read here makes every field store before it visible.
        let seq = set.seq.load(Ordering::Acquire);
        if seq & 1 == 1 {
            return None;
        }
        let stamped = set.epoch.load(Ordering::Relaxed);
        let live = live(set.fill.load(Ordering::Relaxed));
        let raw = (0..live)
            .find(|&way| set.keys[way].load(Ordering::Relaxed) == key)
            .map(|way| set.values[way].load(Ordering::Relaxed));
        // Pairs with the writer's Release fence after its claim: if any
        // load above read a field a writer stored, the recheck sees that
        // writer's odd sequence or a later one.
        fence(Ordering::Acquire);
        if set.seq.load(Ordering::Relaxed) != seq || stamped != epoch {
            return None;
        }
        raw.map(CachedAnswer::decode)
    }

    /// Store a definitive answer for `(s, t)` computed under oracle
    /// `epoch`. The insert is dropped when another writer holds the set or
    /// the set already holds a newer epoch; an insert under a newer epoch
    /// empties the set first. A new key takes the set's oldest way once the
    /// set is full.
    pub fn insert(&self, s: NodeId, t: NodeId, epoch: u64, answer: CachedAnswer) {
        let key = Self::key(s, t);
        let set = self.set_of(key);
        let seq = set.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || set
                .seq
                .compare_exchange(
                    seq,
                    seq.wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_err()
        {
            return;
        }
        // Orders the odd sequence before the field stores, for readers'
        // Acquire fence.
        fence(Ordering::Release);
        let stamped = set.epoch.load(Ordering::Relaxed);
        if epoch >= stamped {
            let mut fill = set.fill.load(Ordering::Relaxed);
            if epoch > stamped {
                set.epoch.store(epoch, Ordering::Relaxed);
                fill = 0;
            }
            let way = (0..live(fill)).find(|&way| set.keys[way].load(Ordering::Relaxed) == key);
            let way = way.unwrap_or_else(|| {
                let victim = fill as usize % WAYS;
                set.keys[victim].store(key, Ordering::Relaxed);
                fill = next_fill(fill);
                victim
            });
            set.values[way].store(answer.encode(), Ordering::Relaxed);
            set.fill.store(fill, Ordering::Relaxed);
        }
        set.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Number of cached answers across all sets, of any epoch (a racy
    /// count while writers run).
    pub fn len(&self) -> usize {
        self.sets
            .iter()
            .map(|set| live(set.fill.load(Ordering::Relaxed)))
            .sum()
    }

    /// True when no answers are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(cache: &QueryCache) -> usize {
        cache.sets.len() * WAYS
    }

    /// Run `work(worker)` on four threads released together; sum the
    /// results.
    fn on_four_threads(work: impl Fn(u32) -> usize + Sync) -> usize {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|worker| {
                    let (work, start) = (&work, &start);
                    scope.spawn(move || {
                        start.wait();
                        work(worker)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    }

    /// Keys mapping to set 0 of `cache`, as `(s, t)` pairs.
    fn colliding(cache: &QueryCache, count: usize) -> Vec<(NodeId, NodeId)> {
        (1..)
            .map(|t| (0, t))
            .filter(|&(s, t)| std::ptr::eq(cache.set_of(QueryCache::key(s, t)), cache.set_of(0)))
            .take(count)
            .collect()
    }

    #[test]
    fn key_is_orientation_invariant() {
        assert_eq!(QueryCache::key(3, 9), QueryCache::key(9, 3));
        assert_ne!(QueryCache::key(3, 9), QueryCache::key(3, 8));
        assert_eq!(QueryCache::key(7, 7), ((7u64) << 32) | 7);
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = QueryCache::new(64, 4);
        assert!(cache.get(1, 2, 0).is_none());
        cache.insert(1, 2, 0, CachedAnswer::Exact(5));
        cache.insert(8, 3, 0, CachedAnswer::Unreachable);
        assert_eq!(cache.get(2, 1, 0), Some(CachedAnswer::Exact(5)));
        assert_eq!(cache.get(3, 8, 0), Some(CachedAnswer::Unreachable));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn replacement_is_fifo_within_a_set() {
        let cache = QueryCache::new(64, 1);
        let keys = colliding(&cache, 6);
        for (d, &(s, t)) in keys[..4].iter().enumerate() {
            cache.insert(s, t, 0, CachedAnswer::Exact(d as Distance));
        }
        // A hit does not refresh an entry: the oldest goes first anyway.
        assert_eq!(
            cache.get(keys[0].0, keys[0].1, 0),
            Some(CachedAnswer::Exact(0))
        );
        cache.insert(keys[4].0, keys[4].1, 0, CachedAnswer::Exact(4));
        assert_eq!(cache.get(keys[0].0, keys[0].1, 0), None);
        // Overwriting a resident key keeps its place in the order.
        cache.insert(keys[1].0, keys[1].1, 0, CachedAnswer::Exact(9));
        cache.insert(keys[5].0, keys[5].1, 0, CachedAnswer::Exact(5));
        assert_eq!(cache.get(keys[1].0, keys[1].1, 0), None);
        for (d, &(s, t)) in keys.iter().enumerate().skip(2) {
            assert_eq!(cache.get(s, t, 0), Some(CachedAnswer::Exact(d as Distance)));
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let cache = QueryCache::new(2, 1);
        cache.insert(1, 2, 0, CachedAnswer::Exact(9));
        cache.insert(1, 2, 0, CachedAnswer::Exact(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1, 2, 0), Some(CachedAnswer::Exact(7)));
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        // 100 answers need 25 sets, rounded up to 32: 128 slots.
        let cache = QueryCache::new(100, 8);
        assert_eq!(slots(&cache), 128);
        for i in 0..10_000u32 {
            cache.insert(i, i + 1, 0, CachedAnswer::Exact(i % 50));
            assert!(cache.len() <= 128, "len {} after insert {i}", cache.len());
        }
        assert!(!cache.is_empty());
    }

    #[test]
    fn epoch_mismatch_is_a_miss_and_reinsert_restamps() {
        let cache = QueryCache::new(16, 1);
        cache.insert(1, 2, 0, CachedAnswer::Exact(5));
        assert_eq!(cache.get(1, 2, 0), Some(CachedAnswer::Exact(5)));
        // After an oracle update the reader's epoch moves on: the stale
        // entry must not be served (in either direction of skew).
        assert_eq!(cache.get(1, 2, 1), None);
        assert_eq!(cache.get(1, 2, 0), Some(CachedAnswer::Exact(5)));
        // Reinserting under the new epoch restamps the set.
        cache.insert(1, 2, 1, CachedAnswer::Exact(4));
        assert_eq!(cache.get(1, 2, 1), Some(CachedAnswer::Exact(4)));
        assert_eq!(cache.get(1, 2, 0), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn older_epochs_never_overwrite_or_outlive_a_newer_set() {
        let cache = QueryCache::new(64, 1);
        let keys = colliding(&cache, 3);
        let (a, b, c) = (keys[0], keys[1], keys[2]);
        cache.insert(a.0, a.1, 2, CachedAnswer::Exact(2));
        // A late writer still on epoch 1 is dropped, even for a new key.
        cache.insert(b.0, b.1, 1, CachedAnswer::Exact(1));
        cache.insert(a.0, a.1, 1, CachedAnswer::Exact(1));
        assert_eq!(cache.get(b.0, b.1, 1), None);
        assert_eq!(cache.get(b.0, b.1, 2), None);
        assert_eq!(cache.get(a.0, a.1, 2), Some(CachedAnswer::Exact(2)));
        // Epoch 3 restamps the set: the epoch-2 entry is gone under every
        // epoch, not only the new one.
        cache.insert(c.0, c.1, 3, CachedAnswer::Exact(3));
        assert_eq!(cache.get(a.0, a.1, 3), None);
        assert_eq!(cache.get(a.0, a.1, 2), None);
        assert_eq!(cache.get(c.0, c.1, 3), Some(CachedAnswer::Exact(3)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = QueryCache::new(1024, 8);
        let hits = on_four_threads(|worker| {
            (0..2_000u32)
                .filter(|&i| {
                    let s = worker * 1_000 + (i % 500);
                    cache.insert(s, s + 1, 0, CachedAnswer::Exact(i % 30));
                    cache.get(s, s + 1, 0).is_some()
                })
                .count()
        });
        assert!(cache.len() <= 1024);
        assert!(hits > 0);
    }

    #[test]
    fn concurrent_colliding_writers_never_tear_an_entry() {
        // Two sets, so the four threads collide constantly; every key has
        // its own value, so a key read with another key's value (or with
        // a value from a half-written way) fails the check.
        fn value_of(s: NodeId, t: NodeId) -> Distance {
            (QueryCache::key(s, t).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as Distance
        }
        let cache = QueryCache::new(8, 1);
        let hits = on_four_threads(|worker| {
            let mut hits = 0;
            for i in 0..50_000u32 {
                let (s, t) = ((i * 7 + worker) % 13, (i + worker * 3) % 17);
                if i % 3 == 0 {
                    cache.insert(s, t, 0, CachedAnswer::Exact(value_of(s, t)));
                } else if let Some(hit) = cache.get(t, s, 0) {
                    assert_eq!(hit, CachedAnswer::Exact(value_of(s, t)), "({s},{t})");
                    hits += 1;
                }
            }
            hits
        });
        assert!(hits > 0);
        assert!(cache.len() <= slots(&cache));
    }

    #[test]
    fn a_set_held_by_a_writer_misses_and_drops_inserts() {
        let cache = QueryCache::new(16, 1);
        cache.insert(1, 2, 0, CachedAnswer::Exact(5));
        let set = cache.set_of(QueryCache::key(1, 2));
        // Claim the set as a writer would, and stay inside it.
        set.seq.fetch_add(1, Ordering::Relaxed);
        assert_eq!(cache.get(1, 2, 0), None, "an odd sequence is a miss");
        cache.insert(1, 2, 0, CachedAnswer::Exact(6));
        set.seq.fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            cache.get(1, 2, 0),
            Some(CachedAnswer::Exact(5)),
            "the insert that met a held set was dropped"
        );
    }
}
