//! Arena-allocated parse trees and attribute storage.
//!
//! A tree is a handful of flat arrays addressed by [`NodeId`]: the
//! nodes, one slab holding every node's children, one holding every
//! token's lexical values, and each subtree's size, content hash and
//! wire size. A node's children are appended to the child slab when the
//! node is built, so they sit contiguously, found through a per-node
//! offset; a token child is a [`TokenSpan`] of the value slab. Building
//! a tree therefore allocates per slab growth, not per node or token,
//! and freeing one frees a few arrays — the paper's "extremely fast
//! storage allocation ... no provision for reusing memory" (§4.3). The
//! tree is immutable after construction and freely shared across
//! evaluator threads.
//!
//! Attribute *instances* (one per attribute of each node's symbol) are
//! stored out-of-line, so several evaluations of the same tree can
//! proceed independently. Two stores share one slot discipline (the
//! [`AttrSlots`] trait):
//!
//! * [`AttrStore`] — the whole-tree store of the sequential evaluators
//!   and of a tree the pool evaluated whole: one dense slot per (node,
//!   attribute) instance, addressed through a per-node base table.
//! * [`RegionStore`] — the region-local store of a parallel region
//!   machine: slots are numbered *within the region* through the
//!   decomposition's [`crate::split::SlotMap`]. Instances of nodes the
//!   region owns occupy a dense span from 0; the region's boundary
//!   children (roots of child regions — the only foreign nodes a
//!   machine ever reads or writes) are aliased through a small remap
//!   appended after that span. A machine's store therefore costs
//!   O(region) slots, not O(tree), so a cost-driven decomposition into
//!   K regions allocates ≈1× the tree's instances in total instead of
//!   K×.
//!
//! The remap invariants the region layout relies on: regions partition
//! the tree's nodes; every boundary child is the root of the region
//! that owns it; and each attribute instance has exactly one defining
//! rule, evaluated by the machine owning the defining node — so a
//! reader finds every instance in its owner's span, and copying only
//! the *owned* spans into a whole-tree store ([`AttrStore::absorb_region`])
//! visits every instance exactly once, the foreign aliases (each
//! value's second copy at the producing or consuming peer) being the
//! duplicates they are.
//!
//! A parallel evaluation's result is never merged on its way out: the
//! pool's report reads a decomposed tree's region stores where they
//! are, through the shared layout, and builds the whole-tree store only
//! when a caller asks for one. Every store is read through one
//! read-only trait, [`AttrRead`].

use crate::grammar::{AttrId, Grammar, ProdId};
use crate::split::{RegionId, SlotMap};
use crate::value::{fnv1a_u64, AttrValue};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Debug-only instrumentation: cumulative attribute slots allocated by
/// every store (whole-tree and region-local) in this process. Tests use
/// deltas of this counter to pin that region machines allocate
/// O(region), not O(tree), slots. Always 0 in release builds.
#[cfg(debug_assertions)]
static ALLOCATED_SLOTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Cumulative slots allocated by all attribute stores so far (debug
/// builds only; release builds always return 0 — the counter would be
/// contended overhead on the hot construction path).
pub fn debug_allocated_slots() -> usize {
    #[cfg(debug_assertions)]
    {
        ALLOCATED_SLOTS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Identifies a node within its [`ParseTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A token's lexical values: a span of its tree's value slab, read
/// with [`ParseTree::token`]. Made by [`TreeBuilder::token`].
#[derive(Debug, Clone, Copy)]
pub struct TokenSpan {
    start: u32,
    len: u32,
}

impl TokenSpan {
    /// Number of lexical values.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` for a token without lexical values (a keyword).
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A child position of a node: either a nested nonterminal node or the
/// attribute values of a terminal token (predefined by the scanner, as in
/// Knuth's extension used by the paper). Read a node's children with
/// [`ParseTree::children`].
#[derive(Debug, Clone, Copy)]
pub enum Child {
    /// Nonterminal child.
    Node(NodeId),
    /// Terminal occurrence; its lexical attribute values (indexed by the
    /// terminal symbol's [`AttrId`]s) are [`ParseTree::token`]`(span)`.
    Token(TokenSpan),
}

/// A parse-tree node: an instance of a production. Its children live
/// in the tree's child slab ([`ParseTree::children`]).
#[derive(Debug, Clone)]
pub struct Node {
    /// The production this node instantiates.
    pub prod: ProdId,
    /// Parent node and this node's occurrence index there (1-based, as in
    /// [`crate::grammar::OccRef`]); `None` at the root.
    pub parent: Option<(NodeId, u32)>,
}

/// An immutable parse tree over a shared [`Grammar`].
pub struct ParseTree<V> {
    grammar: Arc<Grammar<V>>,
    nodes: Vec<Node>,
    /// Node `i`'s children are `children[child_start[i]..child_start[i + 1]]`.
    child_start: Vec<u32>,
    children: Vec<Child>,
    /// Every token's lexical values, addressed by [`TokenSpan`]s.
    tokens: Vec<V>,
    root: NodeId,
    subtree: Summaries,
}

/// Per-node figures of each subtree, computed as its root is built
/// (its children, built before it, have theirs already).
#[derive(Default)]
struct Summaries {
    size: Vec<u32>,
    hash: Vec<u64>,
    /// Whether the subtree's hash covers *all* of its content: false if
    /// any token value in the subtree returned `None` from
    /// [`AttrValue::content_hash`].
    exact: Vec<bool>,
    wire: Vec<u64>,
}

impl<V: AttrValue> ParseTree<V> {
    /// The grammar this tree conforms to.
    pub fn grammar(&self) -> &Arc<Grammar<V>> {
        &self.grammar
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// A node's children, aligned with its production's RHS occurrences.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[Child] {
        let (start, end) = (self.child_start[id.idx()], self.child_start[id.idx() + 1]);
        &self.children[start as usize..end as usize]
    }

    /// A token's lexical values.
    #[inline]
    pub fn token(&self, span: TokenSpan) -> &[V] {
        &self.tokens[span.range()]
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes (never produced by the builder,
    /// which requires a root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.subtree.size[id.idx()] as usize
    }

    /// Structural content hash of the subtree rooted at `id`, computed
    /// bottom-up from `(production, token values, child hashes)` as
    /// each node is built. Returns `None` when some token
    /// value in the subtree is not fingerprintable (see
    /// [`AttrValue::content_hash`]) — such subtrees must not be used as
    /// memoization keys. Equal subtrees always hash equal; the converse
    /// holds up to 64-bit collisions.
    pub fn subtree_hash(&self, id: NodeId) -> Option<u64> {
        self.subtree.exact[id.idx()].then(|| self.subtree.hash[id.idx()])
    }

    /// The nonterminal child at RHS occurrence `occ` (1-based), if it is
    /// a node.
    pub fn child_node(&self, id: NodeId, occ: usize) -> Option<NodeId> {
        match self.children(id).get(occ - 1)? {
            Child::Node(c) => Some(*c),
            Child::Token(_) => None,
        }
    }

    /// Iterates over the subtree rooted at `id` in preorder.
    pub fn subtree(&self, id: NodeId) -> SubtreeIter<'_, V> {
        SubtreeIter {
            tree: self,
            stack: vec![id],
        }
    }

    /// All node ids in arena order (not tree order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Depth of the tree (root = 1).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        // Parents precede children in preorder; compute iteratively over
        // the preorder to avoid recursion on deep trees.
        for id in self.subtree(self.root) {
            let d = match self.node(id).parent {
                None => 1,
                Some((p, _)) => depth[p.idx()] + 1,
            };
            depth[id.idx()] = d;
            max = max.max(d);
        }
        max
    }

    /// Approximate linearized size in bytes of the subtree at `id` — the
    /// cost of shipping the subtree to a remote evaluator (production id +
    /// child arity per node plus token payloads). O(1): computed as each
    /// node is built.
    pub fn subtree_wire_size(&self, id: NodeId) -> usize {
        self.subtree.wire[id.idx()] as usize
    }
}

impl<V: AttrValue> fmt::Debug for ParseTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParseTree({} nodes, root {:?})",
            self.nodes.len(),
            self.root
        )
    }
}

/// Preorder iterator over a subtree.
pub struct SubtreeIter<'a, V> {
    tree: &'a ParseTree<V>,
    stack: Vec<NodeId>,
}

impl<'a, V: AttrValue> Iterator for SubtreeIter<'a, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children in reverse so they pop in order.
        for c in self.tree.children(id).iter().rev() {
            if let Child::Node(n) = c {
                self.stack.push(*n);
            }
        }
        Some(id)
    }
}

/// A child specification handed to [`TreeBuilder::node_full`].
#[derive(Debug, Clone, Copy)]
pub enum ChildSpec {
    /// A previously built node.
    Built(BuiltNode),
    /// A terminal token whose values [`TreeBuilder::token`] wrote.
    Token(TokenSpan),
}

/// Opaque handle to a node under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltNode(NodeId);

impl From<BuiltNode> for ChildSpec {
    fn from(b: BuiltNode) -> Self {
        ChildSpec::Built(b)
    }
}

/// Errors detected while building a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Wrong number of children for the production.
    Arity {
        /// Production name.
        prod: String,
        /// Expected RHS length.
        expected: usize,
        /// Provided child count.
        got: usize,
    },
    /// A child's symbol does not match the production's RHS.
    SymbolMismatch {
        /// Production name.
        prod: String,
        /// Occurrence index (1-based).
        occ: usize,
    },
    /// A token's value count does not match the terminal's attributes.
    TokenArity {
        /// Production name.
        prod: String,
        /// Occurrence index (1-based).
        occ: usize,
    },
    /// A built node was used as a child twice.
    Reused(NodeId),
    /// `finish` called with nodes left dangling (not reachable from the
    /// root).
    Dangling {
        /// Number of unreachable nodes.
        count: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Arity {
                prod,
                expected,
                got,
            } => write!(
                f,
                "production {prod:?} takes {expected} children, got {got}"
            ),
            TreeError::SymbolMismatch { prod, occ } => {
                write!(f, "child {occ} of {prod:?} has the wrong symbol")
            }
            TreeError::TokenArity { prod, occ } => {
                write!(
                    f,
                    "token at occurrence {occ} of {prod:?} has the wrong number of lexical values"
                )
            }
            TreeError::Reused(id) => write!(f, "node {id:?} used as a child more than once"),
            TreeError::Dangling { count } => {
                write!(f, "{count} built nodes are not reachable from the root")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Builds [`ParseTree`]s bottom-up (the natural order for an LR parser).
///
/// The builder owns the tree's arrays from the start:
/// [`TreeBuilder::token`] appends a token's values to the value slab,
/// and each node appends its children to the child slab, and its
/// subtree's figures to theirs, when it is built. Nothing is allocated
/// per node or per token, and [`TreeBuilder::finish`] hands the arrays
/// to the tree as they are.
pub struct TreeBuilder<V> {
    grammar: Arc<Grammar<V>>,
    nodes: Vec<Node>,
    child_start: Vec<u32>,
    children: Vec<Child>,
    tokens: Vec<V>,
    subtree: Summaries,
    error: Option<TreeError>,
}

impl<V: AttrValue> TreeBuilder<V> {
    /// Starts building a tree over `grammar`.
    pub fn new(grammar: &Arc<Grammar<V>>) -> Self {
        TreeBuilder {
            grammar: Arc::clone(grammar),
            nodes: Vec::new(),
            child_start: vec![0],
            children: Vec::new(),
            tokens: Vec::new(),
            subtree: Summaries::default(),
            error: None,
        }
    }

    /// Writes a token's lexical values into the tree and returns the
    /// child that refers to them.
    pub fn token(&mut self, values: impl IntoIterator<Item = V>) -> ChildSpec {
        let start = self.tokens.len();
        self.tokens.extend(values);
        ChildSpec::Token(TokenSpan {
            start: start as u32,
            len: (self.tokens.len() - start) as u32,
        })
    }

    /// Builds a node for a production whose RHS is all nonterminals.
    /// Errors are deferred to [`TreeBuilder::finish`].
    pub fn node(
        &mut self,
        prod: ProdId,
        children: impl IntoIterator<Item = BuiltNode>,
    ) -> BuiltNode {
        self.node_full(prod, children.into_iter().map(ChildSpec::Built))
    }

    /// Builds a leaf node (nullary production).
    pub fn leaf(&mut self, prod: ProdId) -> BuiltNode {
        self.node_full(prod, [])
    }

    /// Builds a node with explicit child specifications (nodes and
    /// tokens). Errors are recorded and reported by
    /// [`TreeBuilder::finish`].
    pub fn node_full(
        &mut self,
        prod: ProdId,
        children: impl IntoIterator<Item = ChildSpec>,
    ) -> BuiltNode {
        let id = NodeId(self.nodes.len() as u32);
        let first_error = self.error.is_none();
        let TreeBuilder {
            grammar,
            nodes,
            children: slab,
            tokens,
            subtree: sub,
            error,
            ..
        } = self;
        let p = grammar.prod(prod);
        let mut record = |e: TreeError| {
            error.get_or_insert(e);
        };
        // Seed the hash with the production id; it determines the RHS
        // shape, so combining child/token hashes positionally after it
        // is injective over well-formed trees (up to hash collisions).
        let mut size = 1;
        let mut hash = fnv1a_u64(0xcbf2_9ce4_8422_2325, prod.0 as u64);
        let mut exact = true;
        let mut wire = 8u64;
        let mut got = 0;
        for (i, spec) in children.into_iter().enumerate() {
            got += 1;
            let expected = p.rhs.get(i).copied();
            match spec {
                ChildSpec::Built(BuiltNode(cid)) => {
                    if let Some(exp) = expected {
                        if grammar.prod(nodes[cid.idx()].prod).lhs != exp {
                            record(TreeError::SymbolMismatch {
                                prod: p.name.clone(),
                                occ: i + 1,
                            });
                        }
                    }
                    let parent = &mut nodes[cid.idx()].parent;
                    if parent.is_some() {
                        record(TreeError::Reused(cid));
                    }
                    *parent = Some((id, i as u32 + 1));
                    slab.push(Child::Node(cid));
                    size += sub.size[cid.idx()];
                    hash = fnv1a_u64(hash, sub.hash[cid.idx()]);
                    exact &= sub.exact[cid.idx()];
                    wire += sub.wire[cid.idx()];
                }
                ChildSpec::Token(span) => {
                    if let Some(exp) = expected {
                        let sym = grammar.symbol(exp);
                        if !sym.terminal {
                            record(TreeError::SymbolMismatch {
                                prod: p.name.clone(),
                                occ: i + 1,
                            });
                        } else if sym.attrs.len() != span.len() {
                            record(TreeError::TokenArity {
                                prod: p.name.clone(),
                                occ: i + 1,
                            });
                        }
                    }
                    slab.push(Child::Token(span));
                    for v in &tokens[span.range()] {
                        match v.content_hash() {
                            Some(vh) => hash = fnv1a_u64(hash, vh),
                            None => exact = false,
                        }
                        wire += v.wire_size() as u64;
                    }
                }
            }
        }
        // The child count is known only once the children are walked,
        // but a wrong arity still outranks their own errors.
        if got != p.rhs.len() && first_error {
            *error = Some(TreeError::Arity {
                prod: p.name.clone(),
                expected: p.rhs.len(),
                got,
            });
        }
        sub.size.push(size);
        sub.hash.push(hash);
        sub.exact.push(exact);
        sub.wire.push(wire);
        self.nodes.push(Node { prod, parent: None });
        self.child_start.push(self.children.len() as u32);
        BuiltNode(id)
    }

    /// Number of nodes built so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been built.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finishes the tree with `root` at the top. The nodes, slabs and
    /// per-subtree figures become the tree's as they are.
    ///
    /// # Errors
    ///
    /// Returns the first construction error, or [`TreeError::Dangling`] if
    /// some built nodes are unreachable from `root`.
    pub fn finish(mut self, root: BuiltNode) -> Result<ParseTree<V>, TreeError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let BuiltNode(root) = root;
        // Reachability: every node except the root must have a parent.
        let dangling = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| NodeId(*i as u32) != root && n.parent.is_none())
            .count();
        if dangling > 0 {
            return Err(TreeError::Dangling { count: dangling });
        }
        Ok(ParseTree {
            grammar: self.grammar,
            nodes: self.nodes,
            child_start: self.child_start,
            children: self.children,
            tokens: self.tokens,
            root,
            subtree: self.subtree,
        })
    }
}

/// Dense slot storage with a side presence bitset: a slot is exactly
/// one `V` wide (no `Option` discriminant padding), so large value
/// domains halve their footprint and the gather path walks a compact
/// array. Unwritten slots hold `V::default()`, which is never
/// observable through the accessors — presence lives in the bitset.
///
/// Shared by [`AttrStore`] and the incremental evaluator's token
/// overlays, which mirror this layout.
#[derive(Clone, Default)]
pub(crate) struct PackedSlots<V> {
    values: Vec<V>,
    present: Vec<u64>,
}

impl<V: Default> PackedSlots<V> {
    pub(crate) fn new(len: usize) -> Self {
        #[cfg(debug_assertions)]
        ALLOCATED_SLOTS.fetch_add(len, std::sync::atomic::Ordering::Relaxed);
        let mut values = Vec::new();
        values.resize_with(len, V::default);
        PackedSlots {
            values,
            present: vec![0u64; len.div_ceil(64)],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Presence check; out-of-range indices read as unset.
    #[inline]
    pub(crate) fn is_set(&self, i: usize) -> bool {
        i < self.values.len() && (self.present[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&V> {
        if self.is_set(i) {
            Some(&self.values[i])
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: V) {
        self.values[i] = v;
        self.present[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn filled(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Reads attribute instances: what every store offers a reader — the
/// dense [`AttrStore`], a region machine's [`RegionStore`] and the
/// pool's view of a retired tree alike. Code that only reads a
/// finished evaluation (code generation, the oracle tests) is generic
/// over it, so it never asks for a dense store it does not need.
pub trait AttrRead<V: AttrValue> {
    /// Reads an instance; `None` while it is unset.
    fn get(&self, node: NodeId, attr: AttrId) -> Option<&V>;
}

/// Slot-addressed attribute storage: the discipline shared by the
/// whole-tree [`AttrStore`] and the region-local [`RegionStore`].
///
/// Evaluator building blocks ([`occ_value`], the static-segment
/// interpreter, the machine's dependency-graph construction) are
/// generic over this trait, so the sequential evaluators monomorphize
/// against the dense whole-tree store exactly as before while region
/// machines run the same code against O(region) storage.
pub trait AttrSlots<V: AttrValue>: AttrRead<V> {
    /// Dense index of an attribute instance within this store.
    fn instance(&self, node: NodeId, attr: AttrId) -> usize;
    /// Writes an instance (write-once; checked in debug builds).
    fn set(&mut self, node: NodeId, attr: AttrId, value: V);
    /// Reads by dense instance index.
    fn get_by_index(&self, idx: usize) -> Option<&V>;
}

/// Attribute-instance storage for one evaluation of a tree.
///
/// One slot per (node, attribute-of-node's-LHS-symbol) pair; slots are
/// write-once (enforced in debug builds — semantic rules are pure and an
/// instance has exactly one defining rule). Storage is a dense value
/// array plus a presence bitset (`PackedSlots`), so each slot costs
/// exactly one `V`. The `Default` store is empty: no instances.
#[derive(Default)]
pub struct AttrStore<V> {
    base: Vec<u32>,
    slots: PackedSlots<V>,
}

impl<V: AttrValue> AttrStore<V> {
    /// Creates an empty store sized for `tree`.
    pub fn new(tree: &ParseTree<V>) -> Self {
        let mut base = Vec::with_capacity(tree.len());
        let mut total = 0u32;
        for id in tree.node_ids() {
            base.push(total);
            let sym = tree.grammar().prod(tree.node(id).prod).lhs;
            total += tree.grammar().attr_count(sym) as u32;
        }
        AttrStore {
            base,
            slots: PackedSlots::new(total as usize),
        }
    }

    /// Dense index of an attribute instance.
    pub fn instance(&self, node: NodeId, attr: AttrId) -> usize {
        self.base[node.idx()] as usize + attr.0 as usize
    }

    /// Reads an instance.
    pub fn get(&self, node: NodeId, attr: AttrId) -> Option<&V> {
        self.slots.get(self.instance(node, attr))
    }

    /// Writes an instance.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the instance was already written (each
    /// instance has exactly one defining rule).
    pub fn set(&mut self, node: NodeId, attr: AttrId, value: V) {
        let idx = self.instance(node, attr);
        debug_assert!(
            !self.slots.is_set(idx),
            "attribute instance ({node:?}, {attr:?}) written twice"
        );
        self.slots.set(idx, value);
    }

    /// Reads by dense instance index.
    pub fn get_by_index(&self, idx: usize) -> Option<&V> {
        self.slots.get(idx)
    }

    /// Overwrites an instance (incremental re-evaluation only; ordinary
    /// evaluation writes each instance exactly once via
    /// [`AttrStore::set`]).
    pub fn replace(&mut self, node: NodeId, attr: AttrId, value: V) {
        let idx = self.instance(node, attr);
        self.slots.set(idx, value);
    }

    /// Writes by dense instance index.
    pub fn set_by_index(&mut self, idx: usize, value: V) {
        debug_assert!(!self.slots.is_set(idx));
        self.slots.set(idx, value);
    }

    /// Total number of instances.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the tree has no attribute instances.
    pub fn is_empty(&self) -> bool {
        self.slots.len() == 0
    }

    /// Number of instances currently filled.
    pub fn filled(&self) -> usize {
        self.slots.filled()
    }

    /// Copies a region machine's local store into this whole-tree
    /// store. Only the region's *owned* span is copied: each attribute
    /// instance is owned by exactly one region (regions partition the
    /// nodes), so copying every region's owned span fills the whole
    /// store exactly once, and the foreign aliases — a boundary value's
    /// second copy at the producing or consuming peer — are skipped as
    /// duplicates. One clone per value; cost is O(region), independent
    /// of the tree.
    pub fn absorb_region(&mut self, tree: &ParseTree<V>, region: &RegionStore<V>) {
        let g = tree.grammar();
        let map = &region.map;
        for &n in map.region_nodes(region.region) {
            let sym = g.prod(tree.node(n).prod).lhs;
            let local = map.local_base(n);
            let global = self.base[n.idx()] as usize;
            for a in 0..g.attr_count(sym) {
                if let Some(value) = region.slots.get(local + a) {
                    debug_assert!(
                        !self.slots.is_set(global + a),
                        "instance owned by two regions"
                    );
                    self.slots.set(global + a, value.clone());
                }
            }
        }
    }
}

impl<V: AttrValue> AttrRead<V> for AttrStore<V> {
    #[inline]
    fn get(&self, node: NodeId, attr: AttrId) -> Option<&V> {
        AttrStore::get(self, node, attr)
    }
}

impl<V: AttrValue> AttrSlots<V> for AttrStore<V> {
    #[inline]
    fn instance(&self, node: NodeId, attr: AttrId) -> usize {
        AttrStore::instance(self, node, attr)
    }

    #[inline]
    fn set(&mut self, node: NodeId, attr: AttrId, value: V) {
        AttrStore::set(self, node, attr, value);
    }

    #[inline]
    fn get_by_index(&self, idx: usize) -> Option<&V> {
        AttrStore::get_by_index(self, idx)
    }
}

impl<V: AttrValue> fmt::Debug for AttrStore<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttrStore({}/{} filled)", self.filled(), self.len())
    }
}

/// Region-local attribute storage for one parallel region machine.
///
/// Slots are addressed through the decomposition's shared
/// [`SlotMap`]: instances of nodes the region owns form a dense span
/// from 0, and the region's boundary children are aliased after it.
/// Construction is O(region) — the per-machine cost that lets a
/// cost-driven decomposition carve a huge tree into many regions
/// without multiplying store allocations by the region count.
///
/// The store addresses exactly the instances its machine touches. A
/// finished region's store is read where it is, beside its peers';
/// [`AttrStore::absorb_region`] copies its owned span into a whole-tree
/// store for a caller that wants one.
pub struct RegionStore<V> {
    map: Arc<SlotMap>,
    region: RegionId,
    slots: PackedSlots<V>,
}

impl<V: AttrValue> RegionStore<V> {
    /// Creates an empty region-local store for `region` of the layout.
    pub fn new(map: &Arc<SlotMap>, region: RegionId) -> Self {
        RegionStore {
            map: Arc::clone(map),
            region,
            slots: PackedSlots::new(map.total_slots(region)),
        }
    }

    /// The region this store belongs to.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The shared slot layout this store is addressed through.
    pub fn slot_map(&self) -> &Arc<SlotMap> {
        &self.map
    }

    /// Local index of an attribute instance.
    ///
    /// # Panics
    ///
    /// Panics if `node` is neither owned by the region nor one of its
    /// boundary children (see [`SlotMap::slot_of`]).
    #[inline]
    pub fn instance(&self, node: NodeId, attr: AttrId) -> usize {
        self.map.slot_of(self.region, node, attr)
    }

    /// Reads an instance.
    #[inline]
    pub fn get(&self, node: NodeId, attr: AttrId) -> Option<&V> {
        self.slots.get(self.instance(node, attr))
    }

    /// Writes an instance.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the instance was already written.
    pub fn set(&mut self, node: NodeId, attr: AttrId, value: V) {
        let idx = self.instance(node, attr);
        debug_assert!(
            !self.slots.is_set(idx),
            "attribute instance ({node:?}, {attr:?}) written twice"
        );
        self.slots.set(idx, value);
    }

    /// Reads by local instance index.
    #[inline]
    pub fn get_by_index(&self, idx: usize) -> Option<&V> {
        self.slots.get(idx)
    }

    /// Writes by local instance index.
    pub fn set_by_index(&mut self, idx: usize, value: V) {
        debug_assert!(!self.slots.is_set(idx));
        self.slots.set(idx, value);
    }

    /// Total slots this store allocated (owned span + boundary
    /// aliases) — the machine's O(region) footprint, and what the
    /// slot-counter CI assertion compares against the whole tree's
    /// instance count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the region has no addressable slots.
    pub fn is_empty(&self) -> bool {
        self.slots.len() == 0
    }

    /// Number of slots currently filled.
    pub fn filled(&self) -> usize {
        self.slots.filled()
    }
}

impl<V: AttrValue> AttrRead<V> for RegionStore<V> {
    #[inline]
    fn get(&self, node: NodeId, attr: AttrId) -> Option<&V> {
        RegionStore::get(self, node, attr)
    }
}

impl<V: AttrValue> AttrSlots<V> for RegionStore<V> {
    #[inline]
    fn instance(&self, node: NodeId, attr: AttrId) -> usize {
        RegionStore::instance(self, node, attr)
    }

    #[inline]
    fn set(&mut self, node: NodeId, attr: AttrId, value: V) {
        RegionStore::set(self, node, attr, value);
    }

    #[inline]
    fn get_by_index(&self, idx: usize) -> Option<&V> {
        RegionStore::get_by_index(self, idx)
    }
}

impl<V: AttrValue> fmt::Debug for RegionStore<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RegionStore(region {}, {}/{} filled)",
            self.region,
            self.filled(),
            self.len()
        )
    }
}

/// Looks up the value of an argument occurrence for a rule at `node`:
/// either an attribute slot or a token's lexical value. Generic over
/// the store so region machines resolve through their local layout.
pub fn occ_value<'a, V: AttrValue, S: AttrSlots<V>>(
    tree: &'a ParseTree<V>,
    store: &'a S,
    node: NodeId,
    occ: usize,
    attr: AttrId,
) -> Option<&'a V> {
    if occ == 0 {
        store.get(node, attr)
    } else {
        match tree.children(node)[occ - 1] {
            Child::Node(c) => store.get(c, attr),
            Child::Token(span) => tree.token(span).get(attr.0 as usize),
        }
    }
}

/// The (node, attr) pair a target occurrence of a rule at `node` refers
/// to. Token occurrences are never rule targets (validated by the
/// grammar builder).
pub fn occ_slot<V: AttrValue>(
    tree: &ParseTree<V>,
    node: NodeId,
    occ: usize,
    attr: AttrId,
) -> (NodeId, AttrId) {
    if occ == 0 {
        (node, attr)
    } else {
        match tree.children(node)[occ - 1] {
            Child::Node(c) => (c, attr),
            Child::Token(_) => unreachable!("rule target cannot be a token occurrence"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    fn tree_grammar() -> (Arc<Grammar<i64>>, ProdId, ProdId, ProdId, AttrId) {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let _ = val;
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, [num]);
        g.rule(leaf, (0, size), [(1, AttrId(0))], |a| a[0]);
        let fork = g.production("fork", t, [t, t]);
        g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] + a[1] + 1);
        let wrap = g.production("wrap", t, [t]);
        g.rule(wrap, (0, size), [(1, size)], |a| a[0]);
        (Arc::new(g.build(t).unwrap()), leaf, fork, wrap, size)
    }

    #[test]
    fn build_and_inspect_tree() {
        let (g, leaf, fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([5i64]);
        let l1 = tb.node_full(leaf, [tok]);
        let tok = tb.token([7i64]);
        let l2 = tb.node_full(leaf, [tok]);
        let root = tb.node(fork, [l1, l2]);
        let tree = tb.finish(root).unwrap();
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.subtree_size(tree.root()), 3);
        assert_eq!(tree.depth(), 2);
        let order: Vec<NodeId> = tree.subtree(tree.root()).collect();
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], tree.root());
        // Parent links.
        let c1 = tree.child_node(tree.root(), 1).unwrap();
        assert_eq!(tree.node(c1).parent, Some((tree.root(), 1)));
        // Children and token values, read back from the slabs.
        assert_eq!(tree.children(tree.root()).len(), 2);
        let c2 = tree.child_node(tree.root(), 2).unwrap();
        let values: Vec<i64> = [c1, c2]
            .into_iter()
            .map(|n| match tree.children(n) {
                [Child::Token(span)] => tree.token(*span)[0],
                other => panic!("a leaf has one token, not {other:?}"),
            })
            .collect();
        assert_eq!(values, [5, 7]);
    }

    #[test]
    fn arity_mismatch_reported() {
        let (g, _leaf, fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let only = tb.node_full(fork, []);
        assert!(matches!(tb.finish(only), Err(TreeError::Arity { .. })));
    }

    #[test]
    fn arity_outranks_the_errors_of_its_children() {
        let (g, _leaf, fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        // A token where `fork` wants a `T`, and one child short.
        let tok = tb.token([1i64]);
        let bad = tb.node_full(fork, [tok]);
        assert!(matches!(
            tb.finish(bad),
            Err(TreeError::Arity { got: 1, .. })
        ));
    }

    #[test]
    fn token_arity_mismatch_reported() {
        let (g, leaf, _fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token(std::iter::empty::<i64>());
        let bad = tb.node_full(leaf, [tok]);
        assert!(matches!(tb.finish(bad), Err(TreeError::TokenArity { .. })));
    }

    #[test]
    fn reuse_reported() {
        let (g, leaf, fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([1i64]);
        let l = tb.node_full(leaf, [tok]);
        let root = tb.node(fork, [l, l]);
        assert!(matches!(tb.finish(root), Err(TreeError::Reused(_))));
    }

    #[test]
    fn dangling_reported() {
        let (g, leaf, _fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([1i64]);
        let a = tb.node_full(leaf, [tok]);
        let tok = tb.token([2i64]);
        let _b = tb.node_full(leaf, [tok]);
        assert!(matches!(
            tb.finish(a),
            Err(TreeError::Dangling { count: 1 })
        ));
    }

    #[test]
    fn attr_store_read_write() {
        let (g, leaf, fork, _wrap, size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([5i64]);
        let l1 = tb.node_full(leaf, [tok]);
        let tok = tb.token([7i64]);
        let l2 = tb.node_full(leaf, [tok]);
        let root = tb.node(fork, [l1, l2]);
        let tree = tb.finish(root).unwrap();
        let mut store = AttrStore::new(&tree);
        assert_eq!(store.len(), 3); // one `size` instance per node
        assert_eq!(store.filled(), 0);
        store.set(tree.root(), size, 42);
        assert_eq!(store.get(tree.root(), size), Some(&42));
        assert_eq!(store.filled(), 1);
    }

    #[test]
    fn occ_value_reads_tokens() {
        let (g, leaf, _fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([9i64]);
        let l = tb.node_full(leaf, [tok]);
        let tree = tb.finish(l).unwrap();
        let store = AttrStore::new(&tree);
        let v = occ_value(&tree, &store, tree.root(), 1, AttrId(0));
        assert_eq!(v, Some(&9));
    }

    #[test]
    fn wire_size_counts_tokens() {
        let (g, leaf, _fork, _wrap, _size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([9i64]);
        let l = tb.node_full(leaf, [tok]);
        let tree = tb.finish(l).unwrap();
        assert_eq!(tree.subtree_wire_size(tree.root()), 8 + 8);
    }

    #[test]
    fn absorb_region_maps_owned_slots_into_whole_store() {
        let (g, leaf, fork, _wrap, size) = tree_grammar();
        let mut tb = TreeBuilder::new(&g);
        let tok = tb.token([5i64]);
        let l1 = tb.node_full(leaf, [tok]);
        let tok = tb.token([7i64]);
        let l2 = tb.node_full(leaf, [tok]);
        let root = tb.node(fork, [l1, l2]);
        let tree = tb.finish(root).unwrap();
        let decomp = crate::split::Decomposition::whole(&tree);
        let map = decomp.slot_map();
        assert_eq!(map.tree_instances(), 3);

        let mut region = RegionStore::new(map, 0);
        assert_eq!(region.len(), 3, "single region owns every instance");
        region.set(tree.root(), size, 1);
        region.set(NodeId(0), size, 2);
        assert_eq!(region.get(tree.root(), size), Some(&1));

        let mut whole = AttrStore::new(&tree);
        whole.absorb_region(&tree, &region);
        assert_eq!(whole.get(tree.root(), size), Some(&1));
        assert_eq!(whole.get(NodeId(0), size), Some(&2));
        assert_eq!(whole.filled(), 2);
    }
}
