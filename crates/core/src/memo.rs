//! Cross-tree attribute memoization: a bounded cache of finished
//! region evaluations keyed by the region's **input signature**.
//!
//! # The region input-signature contract
//!
//! A region machine is a pure function of exactly two inputs:
//!
//! 1. **The region's subtree content** — productions and token values
//!    of every node the region owns, fingerprinted by
//!    [`ParseTree::subtree_hash`] at the region root. Token values *include* any per-tree unique
//!    tokens (e.g. pascal's `uid` labels), so a hit guarantees the
//!    replayed values — labels included — are byte-identical to what a
//!    fresh evaluation would produce. Trees that merely share shape but
//!    differ in any token value hash differently and miss.
//! 2. **The inherited attribute values at the region root**, exactly as
//!    delivered by the parent machine, fingerprinted via
//!    [`AttrValue::content_hash`] in ascending [`AttrId`] order.
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
//! The contract is written once, here, for both sides of the cache:
//! which symbols may hold their outputs back for a probe
//! (`memo_safety`), which regions are cacheable and under which inputs
//! (`region_cacheable`, and `whole_tree_key` for a tree that stays
//! whole), and the preorder span format itself — `install_span` writes
//! it at retirement, `replay_span` reads it back at a hit.
//!
//! The cache itself is sharded (`std::sync::Mutex` per shard, keyed by
//! signature hash) and bounded by an approximate byte budget with LRU
//! eviction per shard; hit/miss/insert/evict counters are process-wide
//! atomics surfaced through `BatchReport`/`ServiceStats`.

use crate::eval::EvalPlan;
use crate::grammar::{AttrId, AttrKind, ProdId};
use crate::split::{Decomposition, RegionId};
use crate::tree::{AttrSlots, NodeId, ParseTree};
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

/// Per-symbol memoization safety: a split symbol is memo-safe iff no
/// inherited attribute of the symbol may (transitively) depend on a
/// synthesized attribute of the *same* occurrence. A probe holds a leaf
/// region's synthesized outputs back until every inherited input has
/// arrived; if the parent needed one of those outputs to compute a
/// later inherited input, probe and parent would deadlock. The induced
/// dependency relation is exactly the may-depend closure, so its
/// absence makes the hold-back safe in both machine modes. Grammars the
/// fixpoint rejects (cyclic — dynamic-mode only) get no safe symbols.
pub(crate) fn memo_safety<V: AttrValue>(plan: &EvalPlan<V>) -> Vec<bool> {
    let g = plan.grammar();
    let Ok(deps) = crate::analysis::induced_deps(g.as_ref()) else {
        return vec![false; g.symbols().len()];
    };
    g.symbols()
        .iter()
        .enumerate()
        .map(|(si, sym)| {
            let rel = &deps.ids[si];
            for (a, aa) in sym.attrs.iter().enumerate() {
                if aa.kind != AttrKind::Syn {
                    continue;
                }
                for (b, ba) in sym.attrs.iter().enumerate() {
                    if ba.kind == AttrKind::Inh && rel.has(a, b) {
                        return false;
                    }
                }
            }
            true
        })
        .collect()
}

/// Decides whether `region` of `tree` is memoizable, and under what
/// signature inputs. Cacheable regions are **leaf** regions (no
/// boundary children — their owned span is their whole subtree and
/// their only external inputs are the root's inherited values) whose
/// root symbol is memo-safe (see [`memo_safety`]; the tree root is
/// trivially safe, it awaits nothing) and whose subtree hash is exact.
/// Returns the region root, its subtree hash, and the root inherited
/// attributes in ascending `AttrId` order (the fingerprint order both
/// the probe and the retire-time install use).
pub(crate) fn region_cacheable<V: AttrValue>(
    plan: &EvalPlan<V>,
    memo_safe: &[bool],
    tree: &ParseTree<V>,
    decomp: &Decomposition,
    region: RegionId,
) -> Option<(NodeId, u64, Vec<AttrId>)> {
    let map = decomp.slot_map();
    if map.total_slots(region) != map.owned_slots(region) {
        return None; // boundary children: an interior region
    }
    let root = decomp.regions[region as usize].root;
    let root_sym = plan.grammar().prod(tree.node(root).prod).lhs;
    if root != tree.root() && !memo_safe.get(root_sym.0 as usize).copied().unwrap_or(false) {
        return None;
    }
    let subtree = tree.subtree_hash(root)?;
    let mut inh: Vec<AttrId> = if root == tree.root() {
        Vec::new() // machines await no inherited values at the tree root
    } else {
        plan.inh_attrs(root_sym).to_vec()
    };
    inh.sort_unstable_by_key(|a| a.0);
    Some((root, subtree, inh))
}

/// The memo key of a tree that is one whole-tree job — what
/// [`region_cacheable`] and the probe give the lone region of an
/// unsplit decomposition: the root's subtree hash (`None` when it is
/// inexact: uncacheable) under the fingerprint of no inherited values,
/// the tree root awaiting none.
pub(crate) fn whole_tree_key<V: AttrValue>(tree: &ParseTree<V>) -> Option<MemoKey> {
    Some(MemoKey {
        subtree: tree.subtree_hash(tree.root())?,
        inherited: inherited_fingerprint(std::iter::empty::<&V>())?,
    })
}

/// Deposits the evaluated span of the subtree at `root` (read through
/// `get`) under `key`, unless the cache holds it already. Spans are
/// extracted in *preorder* of the subtree — arena ids are
/// builder-dependent, preorder is not — one entry per attribute of each
/// node's symbol, in attribute order: the format [`replay_span`] reads.
pub(crate) fn install_span<'s, V: AttrValue + 's>(
    memo: &MemoCache<V>,
    tree: &ParseTree<V>,
    root: NodeId,
    key: MemoKey,
    get: impl Fn(NodeId, AttrId) -> Option<&'s V>,
) {
    if memo.contains(key) {
        return;
    }
    let g = tree.grammar();
    let mut span = Vec::new();
    let mut bytes = 0usize;
    for n in tree.subtree(root) {
        let sym = g.prod(tree.node(n).prod).lhs;
        for a in 0..g.attr_count(sym) {
            let v = get(n, AttrId(a as u32)).cloned();
            if let Some(v) = &v {
                // A value that is not fingerprintable — its type has
                // no content hash — is one the memo cannot vouch for
                // under another ticket. Skip the whole span.
                if !v.is_fingerprintable() {
                    return;
                }
                bytes += v.wire_size();
            }
            span.push(v);
        }
    }
    memo.insert(
        key,
        MemoEntry {
            span,
            nodes: tree.subtree_size(root) as u32,
            root_prod: tree.node(root).prod,
            bytes,
        },
    );
}

/// Fills `store` from a cached preorder span over the subtree at
/// `root` — the format [`install_span`] writes. The walk is over *this*
/// tree's subtree — structurally identical to the cached one, but arena
/// ids may differ. `false` when the span's shape disagrees with the
/// subtree (a hash collision the probe's sanity fields missed): the
/// store is then partly filled and must be dropped.
pub(crate) fn replay_span<V: AttrValue, S: AttrSlots<V>>(
    tree: &ParseTree<V>,
    root: NodeId,
    span: Vec<Option<V>>,
    store: &mut S,
) -> bool {
    let g = tree.grammar();
    let mut vals = span.into_iter();
    for n in tree.subtree(root) {
        let sym = g.prod(tree.node(n).prod).lhs;
        for a in 0..g.attr_count(sym) {
            let Some(v) = vals.next() else {
                return false;
            };
            if let Some(v) = v {
                store.set(n, AttrId(a as u32), v);
            }
        }
    }
    vals.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::static_eval;
    use crate::grammar::GrammarBuilder;
    use crate::tree::{AttrStore, Child, TreeBuilder};
    use std::sync::Arc;

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

    /// A chain `S → L`, `L → L | ε` of `n` list nodes over `i64`, with an
    /// inherited depth and a synthesized sum at every list node, and its
    /// plan and statically evaluated store.
    fn chain(n: usize) -> (Arc<ParseTree<i64>>, EvalPlan<i64>, AttrStore<i64>) {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let out = g.synthesized(s, "out");
        let depth = g.inherited(l, "depth");
        let sum = g.synthesized(l, "sum");
        g.mark_split(l, 2);
        let top = g.production("top", s, [l]);
        g.rule(top, (1, depth), [], |_| 0);
        g.rule(top, (0, out), [(1, sum)], |a| a[0]);
        let cons = g.production("cons", l, [l]);
        g.rule(cons, (1, depth), [(0, depth)], |a| a[0] + 1);
        g.rule(cons, (0, sum), [(1, sum), (0, depth)], |a| a[0] + a[1]);
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, sum), [(0, depth)], |a| a[0]);
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = EvalPlan::analyze(&grammar);
        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        for _ in 0..n {
            tail = tb.node(cons, [tail]);
        }
        let root = tb.node(top, [tail]);
        let tree = Arc::new(tb.finish(root).unwrap());
        let (store, _) = static_eval(&tree, plan.plans().unwrap()).unwrap();
        (tree, plan, store)
    }

    /// The whole-tree job's key is the one the region path gives the
    /// lone region of an unsplit decomposition: the root's subtree hash
    /// under the fingerprint of no inherited values.
    #[test]
    fn whole_tree_key_is_the_lone_regions_key() {
        let (tree, plan, _) = chain(6);
        let decomp = Decomposition::whole(&tree);
        assert!(decomp.is_unsplit());
        let memo_safe = memo_safety(&plan);
        let (root, subtree, inh) = region_cacheable(&plan, &memo_safe, &tree, &decomp, 0)
            .expect("the lone region is a leaf rooted at the tree root");
        assert_eq!(root, tree.root());
        assert!(inh.is_empty(), "the tree root awaits no inherited value");
        let inherited = inherited_fingerprint(std::iter::empty::<&i64>()).unwrap();
        assert_eq!(
            whole_tree_key(tree.as_ref()),
            Some(MemoKey { subtree, inherited })
        );
    }

    /// What `install_span` writes, `replay_span` reads back: the whole
    /// tree's span, and an inner subtree's into the same slots.
    #[test]
    fn an_installed_span_replays_into_an_identical_store() {
        let (tree, _, store) = chain(6);
        let memo = MemoCache::new(1 << 20);
        let Child::Node(child) = tree.children(tree.root())[0] else {
            panic!("the root's child is the list");
        };
        for (root, inherited) in [(tree.root(), 1), (child, 2)] {
            let key = MemoKey {
                subtree: tree.subtree_hash(root).unwrap(),
                inherited,
            };
            install_span(&memo, &tree, root, key, |n, a| store.get(n, a));
            let nodes = tree.subtree_size(root) as u32;
            let entry = memo.probe(key, nodes, tree.node(root).prod).unwrap();
            let mut replayed = AttrStore::new(&tree);
            assert!(replay_span(&tree, root, entry.span, &mut replayed));
            for n in tree.subtree(root) {
                let sym = tree.grammar().prod(tree.node(n).prod).lhs;
                for a in 0..tree.grammar().attr_count(sym) {
                    let attr = AttrId(a as u32);
                    assert_eq!(replayed.get(n, attr), store.get(n, attr), "{n:?} {attr:?}");
                }
            }
        }
        assert_eq!(memo.counters().inserts, 2);
    }

    /// A span whose length disagrees with the subtree's instances — one
    /// value short, or one too many — is refused.
    #[test]
    fn a_span_one_value_short_or_long_is_refused() {
        let (tree, _, store) = chain(4);
        let memo = MemoCache::new(1 << 20);
        let key = whole_tree_key(tree.as_ref()).unwrap();
        install_span(&memo, &tree, tree.root(), key, |n, a| store.get(n, a));
        let nodes = tree.subtree_size(tree.root()) as u32;
        let span = memo
            .probe(key, nodes, tree.node(tree.root()).prod)
            .unwrap()
            .span;
        let replay = |span: Vec<Option<i64>>| {
            replay_span(&tree, tree.root(), span, &mut AttrStore::new(&tree))
        };
        assert!(replay(span.clone()));
        let mut short = span.clone();
        short.pop();
        assert!(!replay(short), "one value short");
        let mut long = span;
        long.push(None);
        assert!(!replay(long), "one value long");
    }
}
