//! Cross-tree attribute memoization: a bounded cache of finished
//! region evaluations keyed by the region's **input signature**.
//!
//! # The region input-signature contract
//!
//! A region machine is a pure function of exactly two inputs:
//!
//! 1. **The region's subtree content** — productions and token values
//!    of every node the region owns, fingerprinted by
//!    [`ParseTree::subtree_hash`](crate::tree::ParseTree::subtree_hash)
//!    at the region root. Token values *include* any per-tree unique
//!    tokens (e.g. pascal's `uid` labels), so a hit guarantees the
//!    replayed values — labels included — are byte-identical to what a
//!    fresh evaluation would produce. Trees that merely share shape but
//!    differ in any token value hash differently and miss.
//! 2. **The inherited attribute values at the region root**, exactly as
//!    delivered by the parent machine, fingerprinted via
//!    [`AttrValue::content_hash`] in ascending
//!    [`AttrId`](crate::grammar::AttrId) order.
//!
//! Nothing else is an input. In particular these are *not* part of a
//! region's inputs and must never influence a cached result: the
//! ticket, the region id, worker placement, machine mode, schedule or
//! message arrival order (determinism across schedules is pinned by the
//! equivalence suites), and the position of the subtree inside the
//! enclosing tree.
//!
//! The contract restricts cacheability to **leaf regions** (regions
//! with no child regions): an interior region also consumes synthesized
//! attributes from its boundary children, which arrive mid-evaluation
//! and are not covered by the signature. A leaf region's owned span is
//! its entire subtree, and its outputs are (a) that span and (b) the
//! synthesized attributes at its root, which is all a
//! [`MemoEntry`] stores.
//!
//! A signature is only formed when every covered value is
//! fingerprintable: an inexact subtree hash or a `None` from
//! [`AttrValue::content_hash`] on an inherited value makes the region
//! uncacheable (skipped, never mis-keyed).
//!
//! Cached spans are stored in **preorder of the region subtree** —
//! a structure-determined order — because two structurally equal
//! subtrees built by different builders need not occupy the same
//! relative arena positions.
//!
//! The cache itself is sharded (`std::sync::Mutex` per shard, keyed by
//! signature hash) and bounded by an approximate byte budget with LRU
//! eviction per shard; hit/miss/insert/evict counters are process-wide
//! atomics surfaced through `BatchReport`/`ServiceStats`.

use crate::grammar::ProdId;
use crate::value::{fnv1a_u64, AttrValue};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// When a cacheable span offered at retirement is actually installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstallPolicy {
    /// Install every cacheable span immediately (the original policy).
    #[default]
    Always,
    /// 2Q-style scan resistance: the *first* retirement of a subtree
    /// hash only marks it (a deferred install, counted in
    /// [`MemoCounters::deferred`]); the span is installed when a marked
    /// subtree recurs. A one-pass scan of distinct trees then costs a
    /// bounded mark per region instead of a span copy plus an LRU
    /// eviction, while any recurring subtree is cached from its second
    /// appearance on. Marks are FIFO-bounded per shard, so a scan
    /// cannot grow them without bound either.
    SecondTouch,
}

/// A region's input signature: `(subtree hash at the region root,
/// fingerprint of the inherited attribute values at the region root)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Structural content hash of the region's subtree (exact — inexact
    /// subtrees never form keys).
    pub subtree: u64,
    /// Combined fingerprint of the root's inherited values, folded in
    /// ascending `AttrId` order.
    pub inherited: u64,
}

impl MemoKey {
    fn shard_index(&self) -> usize {
        // Shards are chosen by the subtree hash alone so the
        // subtree-presence index ([`MemoCache::has_subtree`]) lives in
        // the same shard as every entry it counts.
        (self.subtree % SHARDS as u64) as usize
    }
}

/// A cached leaf-region evaluation: the owned span in subtree preorder,
/// plus sanity fields pinning what the key was formed over. The
/// synthesized boundary attributes at the region root are part of the
/// span (the root is owned), so replay re-sends them from the store.
#[derive(Debug, Clone)]
pub struct MemoEntry<V> {
    /// Owned attribute instances in preorder of the region subtree;
    /// `None` for slots the evaluation left unfilled.
    pub span: Vec<Option<V>>,
    /// Number of nodes in the region subtree (sanity check at replay).
    pub nodes: u32,
    /// Production at the region root (sanity check at replay).
    pub root_prod: ProdId,
    /// Approximate bytes held (drives the LRU budget).
    pub bytes: usize,
}

/// Counter snapshot for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Probes that found a usable entry.
    pub hits: u64,
    /// Probes that found nothing (or a sanity mismatch).
    pub misses: u64,
    /// Entries installed.
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Installs deferred by [`InstallPolicy::SecondTouch`] (the span
    /// was dropped and only its subtree hash marked).
    pub deferred: u64,
}

impl MemoCounters {
    /// `self - earlier`, for per-batch deltas of a long-lived cache.
    pub fn since(&self, earlier: &MemoCounters) -> MemoCounters {
        MemoCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            deferred: self.deferred - earlier.deferred,
        }
    }

    /// Hit fraction of all probes (0 when no probes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: a signature→entry map plus an LRU order with lazy
/// deletion (each entry carries a recency stamp; queue entries with a
/// stale stamp are skipped when popping for eviction).
struct Shard<V> {
    map: HashMap<MemoKey, (MemoEntry<V>, u64)>,
    order: VecDeque<(MemoKey, u64)>,
    /// Entry count per subtree hash, maintained on insert/remove: the
    /// probe fast path asks "any entry for this subtree at all?" before
    /// deciding to hold a region back for its inherited values.
    subtrees: HashMap<u64, u32>,
    /// Second-touch marks ([`InstallPolicy::SecondTouch`]): subtree
    /// hashes seen exactly once at retirement, FIFO-bounded.
    marked: HashSet<u64>,
    mark_order: VecDeque<u64>,
    bytes: usize,
    next_stamp: u64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: VecDeque::new(),
            subtrees: HashMap::new(),
            marked: HashSet::new(),
            mark_order: VecDeque::new(),
            bytes: 0,
            next_stamp: 0,
        }
    }

    /// Marks a subtree hash as seen-once, evicting the oldest marks
    /// beyond `cap` (marks removed at install leave stale FIFO slots
    /// behind; popping them is a no-op on the set).
    fn mark(&mut self, subtree: u64, cap: usize) {
        if self.marked.insert(subtree) {
            self.mark_order.push_back(subtree);
            while self.mark_order.len() > cap {
                let old = self.mark_order.pop_front().expect("non-empty");
                self.marked.remove(&old);
            }
        }
    }

    fn forget_subtree(&mut self, subtree: u64) {
        if let Some(n) = self.subtrees.get_mut(&subtree) {
            *n -= 1;
            if *n == 0 {
                self.subtrees.remove(&subtree);
            }
        }
    }

    fn touch(&mut self, key: MemoKey) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some((_, s)) = self.map.get_mut(&key) {
            *s = stamp;
        }
        self.order.push_back((key, stamp));
        // Compact the lazy queue when stale entries dominate.
        if self.order.len() > 4 * self.map.len().max(8) {
            let map = &self.map;
            self.order
                .retain(|(k, s)| map.get(k).is_some_and(|(_, cur)| cur == s));
        }
    }
}

const SHARDS: usize = 16;

/// A bounded, sharded memo cache shared by a worker pool: retire-time
/// inserts and worker-side probes contend only per shard. See the
/// module doc for the signature contract.
pub struct MemoCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Approximate per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    install: InstallPolicy,
    /// Per-shard bound on second-touch marks (derived from the budget:
    /// a mark costs ~8 bytes vs. a span's hundreds, so the mark table
    /// stays a small fraction of the cache).
    mark_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    deferred: AtomicU64,
}

impl<V: AttrValue> MemoCache<V> {
    /// Creates a cache bounded by roughly `capacity_bytes` of cached
    /// attribute values (approximate: sizes come from
    /// [`AttrValue::wire_size`]), installing every cacheable span.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_install_policy(capacity_bytes, InstallPolicy::Always)
    }

    /// As [`MemoCache::new`] with an explicit install policy.
    pub fn with_install_policy(capacity_bytes: usize, install: InstallPolicy) -> Self {
        let shard_budget = (capacity_bytes / SHARDS).max(1);
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget,
            install,
            mark_cap: (shard_budget / 64).max(256),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &MemoKey) -> &Mutex<Shard<V>> {
        &self.shards[key.shard_index()]
    }

    /// `true` if *any* entry is cached under this subtree hash,
    /// regardless of inherited context. The scheduler consults this
    /// before committing a region to the hold-for-inherited probe path:
    /// a subtree the cache has never seen cannot hit, so its region
    /// starts evaluating immediately instead of idling until every root
    /// inherited value arrives. An absent subtree is counted as a miss
    /// (the consult *was* the cache lookup for that region); a present
    /// one counts nothing — the full-signature [`MemoCache::probe`]
    /// that follows will record the hit or miss.
    pub fn has_subtree(&self, subtree: u64) -> bool {
        let present = self.shards[(subtree % SHARDS as u64) as usize]
            .lock()
            .unwrap()
            .subtrees
            .contains_key(&subtree);
        if !present {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        present
    }

    /// Looks up a signature; clones the entry on a hit (the cache keeps
    /// its copy) and refreshes its recency. Entries whose sanity fields
    /// disagree with the probe's expectation count as misses.
    pub fn probe(&self, key: MemoKey, nodes: u32, root_prod: ProdId) -> Option<MemoEntry<V>> {
        let mut shard = self.shard(&key).lock().unwrap();
        let hit = match shard.map.get(&key) {
            Some((e, _)) if e.nodes == nodes && e.root_prod == root_prod => Some(e.clone()),
            _ => None,
        };
        if hit.is_some() {
            shard.touch(key);
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// `true` if the signature is already cached (no counter effect; the
    /// retire path uses this to dedup inserts of values it replayed
    /// from the cache or already installed this batch).
    pub fn contains(&self, key: MemoKey) -> bool {
        self.shard(&key).lock().unwrap().map.contains_key(&key)
    }

    /// Installs an entry, evicting least-recently-used entries from its
    /// shard as needed to stay under the budget. Entries bigger than a
    /// whole shard's budget are not cached. Under
    /// [`InstallPolicy::SecondTouch`], the first offer of a subtree
    /// hash only marks it and the entry is dropped; the install goes
    /// through once a marked (or already-installed) subtree recurs.
    pub fn insert(&self, key: MemoKey, entry: MemoEntry<V>) {
        if entry.bytes > self.shard_budget {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        if self.install == InstallPolicy::SecondTouch
            && !shard.subtrees.contains_key(&key.subtree)
            && !shard.marked.remove(&key.subtree)
        {
            let cap = self.mark_cap;
            shard.mark(key.subtree, cap);
            self.deferred.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some((old, _)) = shard.map.remove(&key) {
            shard.bytes -= old.bytes;
            shard.forget_subtree(key.subtree);
        }
        shard.bytes += entry.bytes;
        shard.map.insert(key, (entry, 0));
        *shard.subtrees.entry(key.subtree).or_insert(0) += 1;
        shard.touch(key);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while shard.bytes > self.shard_budget {
            let Some((victim, stamp)) = shard.order.pop_front() else {
                break;
            };
            let current = shard.map.get(&victim).map(|(_, s)| *s);
            if current != Some(stamp) || victim == key {
                // Stale queue entry, or the entry we just inserted
                // (never evict the newest — it would thrash).
                if victim == key && current == Some(stamp) {
                    shard.order.push_back((victim, stamp));
                    break;
                }
                continue;
            }
            let (old, _) = shard.map.remove(&victim).expect("stamp matched");
            shard.bytes -= old.bytes;
            shard.forget_subtree(victim.subtree);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the lifetime counters.
    pub fn counters(&self) -> MemoCounters {
        MemoCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
        }
    }

    /// Total approximate bytes currently held.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V> fmt::Debug for MemoCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemoCache({} shards)", self.shards.len())
    }
}

/// Folds inherited values (in ascending `AttrId` order) into the
/// signature's `inherited` fingerprint. Returns `None` if any value is
/// not fingerprintable — the region is then uncacheable.
pub fn inherited_fingerprint<'a, V: AttrValue + 'a>(
    values: impl IntoIterator<Item = &'a V>,
) -> Option<u64> {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    let mut n = 0u64;
    for v in values {
        h = fnv1a_u64(h, v.content_hash()?);
        n += 1;
    }
    Some(fnv1a_u64(h, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bytes: usize) -> MemoEntry<i64> {
        MemoEntry {
            span: vec![Some(1), None],
            nodes: 2,
            root_prod: ProdId(0),
            bytes,
        }
    }

    fn key(n: u64) -> MemoKey {
        MemoKey {
            subtree: n,
            inherited: 7,
        }
    }

    #[test]
    fn probe_hits_after_insert_and_checks_sanity() {
        let cache = MemoCache::new(1 << 20);
        cache.insert(key(1), entry(100));
        assert!(cache.probe(key(1), 2, ProdId(0)).is_some());
        // Wrong node count or production: sanity mismatch is a miss.
        assert!(cache.probe(key(1), 3, ProdId(0)).is_none());
        assert!(cache.probe(key(1), 2, ProdId(9)).is_none());
        assert!(cache.probe(key(2), 2, ProdId(0)).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.inserts), (1, 3, 1));
    }

    #[test]
    fn eviction_respects_the_budget_and_recency() {
        // One shard's budget is capacity/16; use keys that land in the
        // same shard by construction (same subtree hash mod shards is
        // not guaranteed, so just use a large enough sample).
        let cache = MemoCache::new(16 * 250);
        for i in 0..100 {
            cache.insert(key(i), entry(100));
        }
        assert!(cache.bytes() <= 16 * 250);
        assert!(cache.counters().evictions > 0);
        assert!(cache.len() < 100);
    }

    #[test]
    fn recently_probed_entries_survive_eviction() {
        let cache = MemoCache::<i64>::new(16 * 250);
        // Find two keys in the same shard.
        let base = key(0);
        let same_shard: Vec<MemoKey> = (0..1000)
            .map(key)
            .filter(|k| k.shard_index() == base.shard_index())
            .take(4)
            .collect();
        assert!(same_shard.len() >= 3, "need colliding shard keys");
        cache.insert(same_shard[0], entry(100));
        cache.insert(same_shard[1], entry(100));
        // Touch the older entry, then overflow the shard.
        assert!(cache.probe(same_shard[0], 2, ProdId(0)).is_some());
        cache.insert(same_shard[2], entry(100));
        // Budget 250: the LRU victim is same_shard[1], not the
        // freshly-probed same_shard[0].
        assert!(cache.probe(same_shard[0], 2, ProdId(0)).is_some());
        assert!(cache.probe(same_shard[1], 2, ProdId(0)).is_none());
    }

    #[test]
    fn subtree_presence_tracks_inserts_and_evictions() {
        let cache = MemoCache::new(1 << 20);
        assert!(!cache.has_subtree(5));
        cache.insert(
            MemoKey {
                subtree: 5,
                inherited: 1,
            },
            entry(100),
        );
        cache.insert(
            MemoKey {
                subtree: 5,
                inherited: 2,
            },
            entry(100),
        );
        assert!(cache.has_subtree(5));
        assert!(!cache.has_subtree(6));
        // Absent subtrees count as misses; present ones count nothing.
        assert_eq!(cache.counters().misses, 2);

        // Evicting every entry of a subtree forgets it.
        let tiny = MemoCache::new(16 * 150);
        tiny.insert(
            MemoKey {
                subtree: 16,
                inherited: 1,
            },
            entry(100),
        );
        // Same shard (subtree % 16), different subtree: evicts the
        // first entry and must drop its presence bit with it.
        tiny.insert(
            MemoKey {
                subtree: 32,
                inherited: 1,
            },
            entry(100),
        );
        assert!(tiny.counters().evictions > 0);
        assert!(!tiny.has_subtree(16));
        assert!(tiny.has_subtree(32));
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = MemoCache::new(16 * 100);
        cache.insert(key(1), entry(1_000));
        assert!(cache.probe(key(1), 2, ProdId(0)).is_none());
        assert_eq!(cache.counters().inserts, 0);
    }

    #[test]
    fn second_touch_defers_first_install_and_installs_on_recurrence() {
        let cache = MemoCache::with_install_policy(1 << 20, InstallPolicy::SecondTouch);
        // First offer: dropped, subtree marked.
        cache.insert(key(1), entry(100));
        assert!(cache.is_empty());
        assert_eq!(cache.counters().deferred, 1);
        assert_eq!(cache.counters().inserts, 0);
        assert!(!cache.has_subtree(1));
        // Second offer of the same subtree: installed.
        cache.insert(key(1), entry(100));
        assert_eq!(cache.counters().inserts, 1);
        assert!(cache.probe(key(1), 2, ProdId(0)).is_some());
        // A different inherited context of an installed subtree is not
        // a scan — it installs immediately.
        cache.insert(
            MemoKey {
                subtree: 1,
                inherited: 99,
            },
            entry(100),
        );
        assert_eq!(cache.counters().inserts, 2);
    }

    #[test]
    fn second_touch_marks_are_bounded() {
        let cache = MemoCache::<i64>::with_install_policy(16, InstallPolicy::SecondTouch);
        // Scan far past the mark cap (256 at this tiny budget): marks
        // stay bounded, nothing installs, and old marks age out.
        for i in 0..100_000u64 {
            cache.insert(key(i), entry(1));
        }
        assert!(cache.is_empty());
        let c = cache.counters();
        assert_eq!(c.deferred, 100_000);
        // Subtree 0's mark long evicted: a re-offer defers again.
        cache.insert(key(0), entry(1));
        assert_eq!(cache.counters().deferred, 100_001);
        // A recent subtree's mark survives: its re-offer installs.
        cache.insert(key(99_999), entry(1));
        assert_eq!(cache.counters().inserts, 1);
    }

    #[test]
    fn inherited_fingerprint_is_order_and_content_sensitive() {
        let a = inherited_fingerprint([&1i64, &2i64]).unwrap();
        let b = inherited_fingerprint([&2i64, &1i64]).unwrap();
        let c = inherited_fingerprint([&1i64, &2i64]).unwrap();
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(a, inherited_fingerprint([&1i64]).unwrap());
    }
}
