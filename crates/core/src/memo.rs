//! Cross-tree attribute memoization: a bounded cache of finished
//! subtree evaluations keyed by the subtree's **input signature**.
//!
//! # The input-signature contract
//!
//! The evaluation of a cacheable subtree — a leaf region's — is a pure
//! function of exactly two inputs:
//!
//! 1. **The subtree's content** — productions and token values of every
//!    node in it, fingerprinted by [`ParseTree::subtree_hash`] at its
//!    root. Token values *include* any per-tree unique tokens (e.g.
//!    pascal's `uid` labels), so a hit guarantees the replayed values —
//!    labels included — are byte-identical to what a fresh evaluation
//!    would produce. Trees that merely share shape but differ in any
//!    token value hash differently and miss.
//! 2. **The inherited attribute values at the subtree root**, exactly as
//!    the parent set them, fingerprinted via
//!    [`AttrValue::content_hash`] in ascending [`AttrId`] order. A
//!    symbol table (a Pascal `Env`, a spec-language `Tab`) is
//!    fingerprinted by the digest its root keeps
//!    (`paragram_symtab::SymTab::digest`) and its length, in O(1):
//!    each binding is digested once, when it is added, and every
//!    node combines its binding's digest with its children's. Tables
//!    whose bindings agree in preorder — identically threaded
//!    environments — fingerprint equal; equal tables built in another
//!    order may miss, never false-hit. Pricing an entry reads each
//!    table's wire bytes off its root the same way.
//!
//! Nothing else is an input. In particular these are *not* part of a
//! subtree's inputs and must never influence a cached result: the
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
//! [`AttrValue::content_hash`] on an inherited value makes the subtree
//! uncacheable (skipped, never mis-keyed).
//!
//! Cached spans are stored in **preorder of the subtree** — a
//! structure-determined order — because two structurally equal
//! subtrees built by different builders need not occupy the same
//! relative arena positions.
//!
//! # One unit of caching: the memo point
//!
//! The memo caches **memo points** (`MemoPoint`): the roots of the
//! cacheable one-visit leaf regions of a decomposition. A ticket cut
//! into regions takes them from its own cut; a tree the pool leaves
//! whole takes them from the cut the caller's adaptive budget would
//! make, or else is its own root point. Either way the one static
//! interpreter consults them (`MemoPoints`): it probes a point when it
//! first visits it, once the parent has set its inherited values,
//! replays a hit instead of visiting it, and installs a miss from its
//! own store when that visit returns — inside a whole-tree job or
//! inside the region machine whose root the point is. So the
//! evaluation is installed by the worker that ran it, and retiring a
//! ticket installs nothing.
//!
//! The contract is written once, here: which symbols may hold their
//! outputs back for a probe (`memo_safety`), which subtrees are
//! cacheable and under which inputs (`region_cacheable`,
//! `memo_points`, and `root_point` for a tree that stays whole), and the
//! preorder span format itself — `install_span` writes it, `replay_span`
//! reads it back at a hit.
//!
//! A point is probed only under a key: one keyed lookup under one
//! shard lock, which counts the hit or the miss. A point with no key —
//! an inherited value that is not fingerprintable — is neither probed,
//! counted nor installed. Every miss is offered for install when its
//! visit returns; the offer is dropped when the signature is cached by
//! then (another job missed on it at the same time and installed it
//! first), or when the span holds a value that is not fingerprintable
//! or outgrows a shard's budget.
//!
//! The cache itself is sharded (`std::sync::Mutex` per shard, keyed by
//! subtree hash) and bounded by an approximate byte budget with LRU
//! eviction per shard; an entry is shared ([`Arc`]), so a hit copies
//! each value once, straight into the store it replays into.
//! Hit/miss/insert/evict counters are process-wide atomics surfaced
//! through `BatchReport`/`ServiceStats`.
//!
//! # How far it reaches
//!
//! Recompiling an edited program through a memo-on pool is incremental
//! evaluation by function caching: the points an edit leaves alone hit,
//! and only the rest of the tree is evaluated again
//! (`examples/incremental.rs`, `tests/edit_recompile.rs`). How much
//! that saves is decided by where the points fall. For the Pascal
//! grammar, two workers and an adaptive budget of a sixteenth of the
//! tree's work:
//!
//! * **The small generated program** (`GenConfig::small()`, 12 999
//!   units) stays one whole-tree job, and the cut its budget of 812
//!   would make gives it 9 `stmts` points. A one-token edit hits all 9
//!   and re-applies 4 700 of 11 004 rules (42.7 %).
//! * **The paper-sized program** (163 224 units) is cut into regions,
//!   and the pool raises any budget below [`MIN_REGION_WORK`] to that
//!   floor, so any budget up to a sixteenth cuts it into 15–16
//!   regions. At its budget of 10 201 every leaf region is a `decls`,
//!   which has two visits and so is no point: `memo_points` returns
//!   none, nothing is probed, the counters stay (0, 0, 0), and a
//!   recompile re-applies 139 121 of 139 121 rules. The huge program (`GenConfig::huge()`) fares the
//!   same: 1 427 948 of 1 427 948. `stmts` leaves appear only in cuts
//!   below the floor (33 of them at a budget of 2 550).
//!
//! [`MIN_REGION_WORK`]: crate::parallel::pool::MIN_REGION_WORK

use crate::eval::EvalPlan;
use crate::grammar::{AttrId, AttrKind, ProdId};
use crate::tree::{AttrRead, AttrSlots, NodeId, ParseTree};
use crate::value::{fnv1a_u64, AttrValue};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
        (self.subtree % SHARDS as u64) as usize
    }
}

/// A cached subtree evaluation: the span in subtree preorder, plus
/// sanity fields pinning what the key was formed over. The synthesized
/// attributes at the subtree root are part of the span, so a region
/// job's replay re-sends them from the store.
#[derive(Debug)]
pub struct MemoEntry<V> {
    /// Attribute instances in preorder of the subtree; `None` for slots
    /// the evaluation left unfilled.
    pub span: Vec<Option<V>>,
    /// Number of nodes in the subtree (sanity check at replay).
    pub nodes: u32,
    /// Production at the subtree root (sanity check at replay).
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
    /// Always 0: no install is deferred. Kept only because the
    /// benchmark's trace still reads it.
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
    map: HashMap<MemoKey, (Arc<MemoEntry<V>>, u64)>,
    order: VecDeque<(MemoKey, u64)>,
    bytes: usize,
    next_stamp: u64,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            next_stamp: 0,
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

/// A bounded, sharded memo cache shared by a worker pool: the workers'
/// probes and inserts contend only per shard. See the
/// module doc for the signature contract.
pub struct MemoCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Approximate per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl<V: AttrValue> MemoCache<V> {
    /// Creates a cache bounded by roughly `capacity_bytes` of cached
    /// attribute values (approximate: sizes come from
    /// [`AttrValue::wire_size`]).
    pub fn new(capacity_bytes: usize) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: (capacity_bytes / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &MemoKey) -> &Mutex<Shard<V>> {
        &self.shards[key.shard_index()]
    }

    /// Looks up a signature; shares the entry on a hit (a reference
    /// count, not a copy of the span, under the shard lock) and
    /// refreshes its recency. Entries whose sanity fields disagree with
    /// the probe's expectation count as misses.
    pub fn probe(&self, key: MemoKey, nodes: u32, root_prod: ProdId) -> Option<Arc<MemoEntry<V>>> {
        let mut shard = self.shard(&key).lock().unwrap();
        let hit = match shard.map.get(&key) {
            Some((e, _)) if e.nodes == nodes && e.root_prod == root_prod => Some(Arc::clone(e)),
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

    /// Whether `key` is cached, asked before an offer's span is copied
    /// (another job may have installed it meanwhile). Counts nothing.
    pub(crate) fn contains(&self, key: MemoKey) -> bool {
        self.shard(&key).lock().unwrap().map.contains_key(&key)
    }

    /// Installs an entry, evicting least-recently-used entries from its
    /// shard as needed to stay under the budget. Entries bigger than a
    /// whole shard's budget are not cached. An offer of a signature
    /// already cached is dropped: two jobs that missed on it at once
    /// both offer it, and it is installed once. Evicted entries are
    /// freed after the shard lock is released: a victim is often the
    /// last handle to its ropes and tables, and freeing them is no
    /// reason to keep the shard's other probes waiting.
    pub fn insert(&self, key: MemoKey, entry: MemoEntry<V>) {
        if entry.bytes > self.shard_budget {
            return;
        }
        let mut evicted = Vec::new();
        let mut shard = self.shard(&key).lock().unwrap();
        if shard.map.contains_key(&key) {
            return;
        }
        shard.bytes += entry.bytes;
        shard.map.insert(key, (Arc::new(entry), 0));
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
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(old);
        }
        drop(shard);
        drop(evicted);
    }

    /// Snapshot of the lifetime counters.
    pub fn counters(&self) -> MemoCounters {
        MemoCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            deferred: 0,
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
/// synthesized attribute of the *same* occurrence. A memo point is
/// probed only once every inherited input is set, so it holds its
/// synthesized outputs back until then; if the parent needed one of
/// those outputs to compute a later inherited input, point and parent
/// would deadlock. The induced dependency relation is exactly the
/// may-depend closure, so its absence makes the hold-back safe in both
/// machine modes. Grammars the fixpoint rejects (cyclic — dynamic-mode
/// only) get no safe symbols.
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

/// A subtree the memo can cache: the root of a cacheable leaf region,
/// with what its signature is formed over: a memo point, which the
/// static interpreter probes at its visit (see [`MemoPoints`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemoPoint {
    /// The subtree root.
    pub node: NodeId,
    /// Its exact subtree hash.
    pub subtree: u64,
    /// The root's inherited attributes in ascending `AttrId` order (the
    /// fingerprint order); none at the tree root, which awaits nothing.
    pub inh: Vec<AttrId>,
}

impl MemoPoint {
    /// The signature under the root's inherited values, given in the
    /// order of [`MemoPoint::inh`]: `None` when one is missing or not
    /// fingerprintable (the subtree is then uncacheable).
    pub fn key<'v, V: AttrValue + 'v>(
        &self,
        inputs: impl IntoIterator<Item = Option<&'v V>>,
    ) -> Option<MemoKey> {
        let inputs: Option<Vec<&V>> = inputs.into_iter().collect();
        Some(MemoKey {
            subtree: self.subtree,
            inherited: inherited_fingerprint(inputs?)?,
        })
    }
}

/// Decides whether the leaf region rooted at `root` of `tree` is
/// memoizable, and under what signature inputs. Cacheable regions are
/// **leaf** regions (no child regions — their owned span is their whole
/// subtree and their only external inputs are the root's inherited
/// values) whose root symbol is memo-safe (see [`memo_safety`]; the
/// tree root is trivially safe, it awaits nothing) and whose subtree
/// hash is exact.
fn region_cacheable<V: AttrValue>(
    plan: &EvalPlan<V>,
    memo_safe: &[bool],
    tree: &ParseTree<V>,
    root: NodeId,
) -> Option<MemoPoint> {
    if root == tree.root() {
        return root_point(tree);
    }
    let root_sym = plan.grammar().prod(tree.node(root).prod).lhs;
    if !memo_safe.get(root_sym.0 as usize).copied().unwrap_or(false) {
        return None;
    }
    let mut inh = plan.inh_attrs(root_sym).to_vec();
    inh.sort_unstable_by_key(|a| a.0);
    Some(MemoPoint {
        node: root,
        subtree: tree.subtree_hash(root)?,
        inh,
    })
}

/// The memo point of a tree that is one whole-tree job with nothing
/// finer to cache — what [`region_cacheable`] gives the lone region of
/// an unsplit decomposition: the root under its subtree hash (`None`
/// when it is inexact: uncacheable) and no inherited values.
pub(crate) fn root_point<V: AttrValue>(tree: &ParseTree<V>) -> Option<MemoPoint> {
    let root = tree.root();
    Some(MemoPoint {
        node: root,
        subtree: tree.subtree_hash(root)?,
        inh: Vec::new(),
    })
}

/// The memo points of `tree` under a cut whose leaf regions are rooted
/// at `leaf_roots` (in node order: [`Decomposition::leaf_roots`], or
/// [`crate::split::adaptive_leaf_roots`] for a cut that is never
/// built), in node order: the roots of its cacheable leaf regions — the
/// tree root when the cut is unsplit, which only a whole-tree job
/// evaluates. A point below the root must have one visit: a memo-safe
/// symbol's inherited values are all set by then, and its subtree is
/// done when that visit returns. The static interpreter probes,
/// replays and installs them ([`MemoPoints`]), in a whole-tree job or
/// in the region machine that a point roots.
///
/// [`Decomposition::leaf_roots`]: crate::split::Decomposition::leaf_roots
pub(crate) fn memo_points<V: AttrValue>(
    plan: &EvalPlan<V>,
    memo_safe: &[bool],
    tree: &ParseTree<V>,
    leaf_roots: &[NodeId],
) -> Vec<MemoPoint> {
    debug_assert!(leaf_roots.windows(2).all(|w| w[0] < w[1]));
    let Some(plans) = plan.plans() else {
        return Vec::new();
    };
    let one_visit = |p: &MemoPoint| {
        let sym = plan.grammar().prod(tree.node(p.node).prod).lhs;
        p.node == tree.root() || plans.phases.visit_count(sym) == 1
    };
    leaf_roots
        .iter()
        .filter_map(|&root| region_cacheable(plan, memo_safe, tree, root))
        .filter(one_visit)
        .collect()
}

/// One job's memo points and the cache they go to: what the static
/// interpreter consults when it enters a node and when a node's visit
/// returns. A point it enters is probed; a hit is replayed and its
/// visit skipped; a miss stays open until its visit returns, and is
/// installed from the job's own store.
pub(crate) struct MemoPoints<'a, V: AttrValue> {
    memo: &'a MemoCache<V>,
    /// Sorted by node.
    points: &'a [MemoPoint],
    /// Points evaluating after a miss, innermost last: the depth of the
    /// point's frame, its node and its key.
    open: Vec<(usize, NodeId, MemoKey)>,
}

impl<'a, V: AttrValue> MemoPoints<'a, V> {
    /// `points` (in node order) against `memo`.
    pub fn new(memo: &'a MemoCache<V>, points: &'a [MemoPoint]) -> Self {
        debug_assert!(points.windows(2).all(|w| w[0].node < w[1].node));
        MemoPoints {
            memo,
            points,
            open: Vec::new(),
        }
    }

    /// The interpreter is about to visit `node` for the first time, in
    /// a frame at `depth`. A point probes the cache under the inherited
    /// values its parent has set: on a hit the cached span is replayed
    /// into `store` — the inherited slots stay as the parent set them —
    /// and `true` says the visit is done; on a miss the point stays open
    /// until the frame at `depth` returns. A point without a key is
    /// visited as any node is: nothing is probed, counted or installed.
    pub fn enter<S: AttrSlots<V>>(
        &mut self,
        tree: &ParseTree<V>,
        store: &mut S,
        node: NodeId,
        depth: usize,
    ) -> bool {
        let Ok(i) = self.points.binary_search_by_key(&node, |p| p.node) else {
            return false;
        };
        let point = &self.points[i];
        let Some(key) = point.key(point.inh.iter().map(|&a| store.get(node, a))) else {
            return false;
        };
        let nodes = tree.subtree_size(node) as u32;
        if let Some(entry) = self.memo.probe(key, nodes, tree.node(node).prod) {
            if replay_span(tree, node, &entry.span, store) {
                return true;
            }
        }
        self.open.push((depth, node, key));
        false
    }

    /// The frame at `depth` returns: if it is an open point's, its
    /// subtree is evaluated, and is installed from `store`.
    pub fn leave(&mut self, tree: &ParseTree<V>, store: &impl AttrRead<V>, depth: usize) {
        if self.open.last().is_some_and(|&(d, ..)| d == depth) {
            let (_, node, key) = self.open.pop().expect("checked");
            install_span(self.memo, tree, node, key, |n, a| store.get(n, a));
        }
    }
}

/// Deposits the evaluated span of the subtree at `root` (read through
/// `get`) under `key`, unless the cache holds it already (asked before
/// anything is copied). Spans are extracted in *preorder* of the
/// subtree — arena ids are builder-dependent, preorder is not — one
/// entry per attribute of each node's symbol, in attribute order: the
/// format [`replay_span`] reads.
/// A span that outgrows a shard's budget would be refused, so the walk
/// stops there, before it clones the rest.
fn install_span<'s, V: AttrValue + 's>(
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
            let v = get(n, AttrId(a as u32));
            if let Some(v) = v {
                // A value that is not fingerprintable — its type has
                // no content hash — is one the memo cannot vouch for
                // under another ticket. Skip the whole span.
                if !v.is_fingerprintable() {
                    return;
                }
                bytes += v.wire_size();
                if bytes > memo.shard_budget {
                    return;
                }
            }
            span.push(v.cloned());
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
/// `root` — the format [`install_span`] writes — cloning each value
/// once, straight into its slot. Slots at `root` that `store` already
/// holds are kept: a memo point's inherited values, which its parent
/// set. The walk is over *this* tree's subtree — structurally identical
/// to the cached one, but arena ids may differ. `false`, with `store`
/// untouched, when the span's length disagrees with the subtree's
/// instances (a hash collision the probe's sanity fields missed).
fn replay_span<V: AttrValue, S: AttrSlots<V>>(
    tree: &ParseTree<V>,
    root: NodeId,
    span: &[Option<V>],
    store: &mut S,
) -> bool {
    let g = tree.grammar();
    let attrs = |n: NodeId| g.attr_count(g.prod(tree.node(n).prod).lhs);
    if tree.subtree(root).map(attrs).sum::<usize>() != span.len() {
        return false;
    }
    let instances = tree
        .subtree(root)
        .flat_map(|n| (0..attrs(n)).map(move |a| (n, AttrId(a as u32))));
    for ((n, attr), v) in instances.zip(span) {
        if let Some(v) = v {
            if n != root || store.get(n, attr).is_none() {
                store.set(n, attr, v.clone());
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::static_eval;
    use crate::grammar::GrammarBuilder;
    use crate::split::Decomposition;
    use crate::tree::{AttrStore, Child, TreeBuilder};

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

    /// Two jobs that missed on one signature at once both offer it: it
    /// is installed, and counted, once.
    #[test]
    fn a_second_offer_of_a_cached_signature_is_dropped() {
        let cache = MemoCache::new(1 << 20);
        cache.insert(key(1), entry(100));
        cache.insert(key(1), entry(100));
        assert_eq!((cache.counters().inserts, cache.len()), (1, 1));
        assert_eq!(cache.bytes(), 100);
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
    fn oversized_entries_are_not_cached() {
        let cache = MemoCache::new(16 * 100);
        cache.insert(key(1), entry(1_000));
        assert!(cache.probe(key(1), 2, ProdId(0)).is_none());
        assert_eq!(cache.counters().inserts, 0);
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
        chain_of(n, |x| x, |v| *v)
    }

    /// [`chain`] over any value type, through `int` and `get`.
    fn chain_of<V: AttrValue>(
        n: usize,
        int: fn(i64) -> V,
        get: fn(&V) -> i64,
    ) -> (Arc<ParseTree<V>>, EvalPlan<V>, AttrStore<V>) {
        let mut g = GrammarBuilder::<V>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let out = g.synthesized(s, "out");
        let depth = g.inherited(l, "depth");
        let sum = g.synthesized(l, "sum");
        g.mark_split(l, 2);
        let top = g.production("top", s, [l]);
        g.rule(top, (1, depth), [], move |_| int(0));
        g.rule(top, (0, out), [(1, sum)], |a| a[0].clone());
        let cons = g.production("cons", l, [l]);
        g.rule(cons, (1, depth), [(0, depth)], move |a| int(get(&a[0]) + 1));
        g.rule(cons, (0, sum), [(1, sum), (0, depth)], move |a| {
            int(get(&a[0]) + get(&a[1]))
        });
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, sum), [(0, depth)], |a| a[0].clone());
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

    /// The root point — the whole-tree job's with nothing finer to
    /// cache — is the one the region path gives the lone region of an
    /// unsplit decomposition, and its key is the root's subtree hash
    /// under the fingerprint of no inherited values.
    #[test]
    fn whole_tree_key_is_the_lone_regions_key() {
        let (tree, plan, _) = chain(6);
        let decomp = Decomposition::whole(&tree);
        assert!(decomp.is_unsplit());
        let memo_safe = memo_safety(&plan);
        let point = region_cacheable(&plan, &memo_safe, &tree, tree.root())
            .expect("the lone region is a leaf rooted at the tree root");
        assert_eq!(point.node, tree.root());
        assert!(
            point.inh.is_empty(),
            "the tree root awaits no inherited value"
        );
        assert_eq!(root_point(tree.as_ref()).as_ref(), Some(&point));
        assert_eq!(
            memo_points(&plan, &memo_safe, &tree, &decomp.leaf_roots()),
            std::slice::from_ref(&point)
        );
        let inherited = inherited_fingerprint(std::iter::empty::<&i64>()).unwrap();
        assert_eq!(
            point.key::<i64>(std::iter::empty()),
            Some(MemoKey {
                subtree: point.subtree,
                inherited
            })
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
            assert!(replay_span(&tree, root, &entry.span, &mut replayed));
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
    /// value short, or one too many — is refused, and leaves the store
    /// untouched.
    #[test]
    fn a_span_one_value_short_or_long_is_refused() {
        let (tree, _, store) = chain(4);
        let memo = MemoCache::new(1 << 20);
        let key = root_point(tree.as_ref())
            .and_then(|p| p.key::<i64>(std::iter::empty()))
            .unwrap();
        install_span(&memo, &tree, tree.root(), key, |n, a| store.get(n, a));
        let nodes = tree.subtree_size(tree.root()) as u32;
        let entry = memo.probe(key, nodes, tree.node(tree.root()).prod).unwrap();
        let replay = |span: &[Option<i64>]| {
            let mut replayed = AttrStore::new(&tree);
            (
                replay_span(&tree, tree.root(), span, &mut replayed),
                replayed.filled(),
            )
        };
        assert_eq!(replay(&entry.span), (true, store.filled()));
        let mut short = entry.span.to_vec();
        short.pop();
        assert_eq!(replay(&short), (false, 0), "one value short");
        let mut long = entry.span.to_vec();
        long.push(None);
        assert_eq!(replay(&long), (false, 0), "one value long");
    }

    /// A value whose type has no content hash.
    #[derive(Debug, Clone, Default)]
    struct Opaque(i64);

    impl AttrValue for Opaque {}

    /// Enters and leaves the memo point at the list under `tree`'s root
    /// against a fresh cache, with only the point's inherited values
    /// set: whether it hit, the counters `(hits, misses, inserts)`, and
    /// how many entries the cache holds after.
    fn enter_and_leave<V: AttrValue>(
        tree: &ParseTree<V>,
        plan: &EvalPlan<V>,
        store: &AttrStore<V>,
    ) -> (bool, (u64, u64, u64), usize) {
        let Child::Node(list) = tree.children(tree.root())[0] else {
            panic!("the root's child is the list");
        };
        let point = MemoPoint {
            node: list,
            subtree: tree.subtree_hash(list).expect("no tokens: exact"),
            inh: plan
                .inh_attrs(plan.grammar().prod(tree.node(list).prod).lhs)
                .to_vec(),
        };
        let mut fresh = AttrStore::new(tree);
        for &a in &point.inh {
            fresh.set(list, a, store.get(list, a).expect("evaluated").clone());
        }
        let memo = MemoCache::new(1 << 20);
        let points = [point];
        let mut at = MemoPoints::new(&memo, &points);
        let hit = at.enter(tree, &mut fresh, list, 1);
        at.leave(tree, store, 1);
        let c = memo.counters();
        (hit, (c.hits, c.misses, c.inserts), memo.len())
    }

    /// A memo point whose inherited value has no content hash has no
    /// key: it is neither probed, counted nor installed. The same point
    /// over `i64` misses and is installed.
    #[test]
    fn an_unkeyable_point_is_neither_probed_nor_counted() {
        let (tree, plan, store) = chain(4);
        assert_eq!(enter_and_leave(&tree, &plan, &store), (false, (0, 1, 1), 1));
        let (tree, plan, store) = chain_of(4, Opaque, |v| v.0);
        assert_eq!(enter_and_leave(&tree, &plan, &store), (false, (0, 0, 0), 0));
    }

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A value that counts its clones on this thread.
    #[derive(Debug, Default)]
    struct Counted(i64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    impl AttrValue for Counted {
        fn wire_size(&self) -> usize {
            16
        }

        fn content_hash(&self) -> Option<u64> {
            Some(self.0 as u64)
        }
    }

    /// A chain of 40 `cons` over [`Counted`] values, statically
    /// evaluated, and its root point's key.
    fn counted_chain() -> (ParseTree<Counted>, AttrStore<Counted>, MemoKey) {
        let mut g = GrammarBuilder::<Counted>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let out = g.synthesized(s, "out");
        let sum = g.synthesized(l, "sum");
        let top = g.production("top", s, [l]);
        g.rule(top, (0, out), [(1, sum)], |a| Counted(a[0].0));
        let cons = g.production("cons", l, [l]);
        g.rule(cons, (0, sum), [(1, sum)], |a| Counted(a[0].0 + 1));
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, sum), [], |_| Counted(0));
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = EvalPlan::analyze(&grammar);
        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        for _ in 0..40 {
            tail = tb.node(cons, [tail]);
        }
        let root = tb.node(top, [tail]);
        let tree = tb.finish(root).unwrap();
        let (store, _) = static_eval(&tree, plan.plans().unwrap()).unwrap();
        let key = root_point(&tree)
            .and_then(|p| p.key::<Counted>(std::iter::empty()))
            .unwrap();
        (tree, store, key)
    }

    /// Installs `tree`'s root span from `store` under `key`: how many
    /// values it cloned.
    fn clones_to_install(
        memo: &MemoCache<Counted>,
        tree: &ParseTree<Counted>,
        store: &AttrStore<Counted>,
        key: MemoKey,
    ) -> usize {
        CLONES.with(|c| c.set(0));
        install_span(memo, tree, tree.root(), key, |n, a| store.get(n, a));
        CLONES.with(|c| c.get())
    }

    /// A span larger than a shard's budget is refused before it is
    /// copied: the walk stops at the first value past the budget, so
    /// it clones no more values than fit.
    #[test]
    fn an_oversized_span_stops_the_walk_before_cloning_it() {
        let (tree, store, key) = counted_chain();
        let install = |memo: &MemoCache<Counted>| {
            CLONES.with(|c| c.set(0));
            clones_to_install(memo, &tree, &store, key)
        };
        // Six values of 16 bytes fit a shard of 100; the seventh would
        // not.
        let small = MemoCache::new(16 * 100);
        assert_eq!(small.shard_budget, 100);
        assert_eq!(install(&small), 6);
        assert_eq!(small.counters().inserts, 0);
        assert!(small.is_empty());
        let large = MemoCache::new(1 << 20);
        assert_eq!(
            install(&large),
            store.filled(),
            "a span that fits is copied once"
        );
        assert_eq!(large.counters().inserts, 1);
    }

    /// The first offer of a signature copies its span once and installs
    /// it; a second offer finds it cached before its span is walked, so
    /// it clones nothing.
    #[test]
    fn an_installed_signature_is_not_copied_again() {
        let (tree, store, key) = counted_chain();
        let memo = MemoCache::new(1 << 20);
        assert_eq!(clones_to_install(&memo, &tree, &store, key), store.filled());
        assert_eq!(clones_to_install(&memo, &tree, &store, key), 0);
        assert_eq!((memo.counters().inserts, memo.len()), (1, 1));
    }
}
