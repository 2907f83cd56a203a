//! Parse-tree decomposition for parallel evaluation (§2.1, §2.5, Fig 7).
//!
//! The (sequential) parser divides the syntax tree into subtrees and
//! ships them to the attribute evaluators. Splits may only happen at
//! nonterminals the grammar marked `%split`, and only for subtrees at
//! least as large as the declared minimum size — scaled by a runtime
//! argument "to allow for easy experimentation with decompositions with
//! different granularities".
//!
//! One carving engine lives here, with two stopping rules. The engine
//! holds the partition under construction, the `%split` candidates and,
//! per node, its local measure (nodes, or work units) and local size:
//! those of the nodes of its subtree that its own region owns, kept
//! current through every carve. Its steps are to carve the candidate
//! whose local measure is closest to a target out of a region, then
//! either to relink every region to its parent and build the slot
//! layout, or — for the memo, which reads only where the leaf regions
//! are rooted — to list the leaf regions' roots
//! ([`adaptive_leaf_roots`]). The two decompositions differ only in
//! which region they carve, at what target, and when they stop:
//!
//! * [`decompose`] (fixed count) targets a region count — one region
//!   per machine — and greedily splits the largest region at the
//!   candidate that yields the most even partition, reproducing the
//!   balanced five-way decomposition of the paper's Figure 7 (and the
//!   *uneven* six-way decomposition that makes the paper's running time
//!   non-monotonic in machine count). This is the compatibility mode:
//!   it is what the paper measured.
//! * [`decompose_adaptive`] (cost-driven) targets a per-region **work
//!   budget** instead of a machine count: regions ≈ total work /
//!   budget, oversized regions are re-split at `%split` candidates and
//!   undersized ones merged back into their parent region. Work is
//!   estimated from the grammar's per-production rule costs
//!   ([`WorkTable`]), so the region count follows the *tree*, not the
//!   machine park — a huge tree yields many budget-sized regions that a
//!   region-granular scheduler can round-robin over however many
//!   workers exist, which removes the fixed-count split's sensitivity
//!   to uneven partitions.
//!
//! [`RegionGranularity`] names the two modes: the simulator
//! (`core::parallel::sim`) takes either, and the pool
//! (`core::parallel::pool`) derives one from its configuration — its
//! worker count, or its adaptive budget.
//!
//! Both rules finish by growing a per-region [`SlotMap`] — the slot
//! layout of the region-local attribute stores
//! ([`crate::tree::RegionStore`]): each region's owned attribute
//! instances are numbered densely from 0, and the region's *boundary
//! children* (roots of child regions, the only foreign nodes a region
//! machine ever addresses) are aliased into a small remap appended
//! after the owned span. Machines therefore allocate O(region) slots
//! instead of a whole-tree store each, and result assembly maps local
//! slots back to whole-tree instances through the same layout.

use crate::grammar::{AttrId, Grammar, ProdId, SymbolId};
use crate::tree::{Child, NodeId, ParseTree};
use crate::value::AttrValue;
use std::fmt;
use std::sync::Arc;

/// Identifies a region (one per evaluator machine).
pub type RegionId = u32;

/// One region of a decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Root node of the region (the whole tree's root for region 0).
    pub root: NodeId,
    /// Region owning the root's parent (`None` for region 0).
    pub parent: Option<RegionId>,
    /// Number of nodes owned by the region (excluding nested regions).
    pub local_size: usize,
}

/// A partition of a tree's nodes into regions, plus the slot layout
/// ([`SlotMap`]) of the region-local attribute stores built over it.
pub struct Decomposition {
    /// Region of each node, indexed by [`NodeId`].
    pub region_of: Vec<RegionId>,
    /// Region metadata, indexed by [`RegionId`].
    pub regions: Vec<RegionInfo>,
    /// Region-local slot layout, built by the carving engine once the
    /// partition is final and shared (via `Arc`) by every region machine
    /// evaluating this decomposition.
    slots: Arc<SlotMap>,
}

impl Decomposition {
    /// Number of regions.
    // No `is_empty` on purpose: a decomposition always has at least one
    // region, so the method the convention asks for could only lie —
    // `is_unsplit` is the meaningful predicate (the old deprecated
    // `is_empty` alias for it is gone).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` if the tree was not split at all (a single region).
    ///
    /// Note this is *not* the `len`/`is_empty` convention — a
    /// decomposition always has at least one region.
    pub fn is_unsplit(&self) -> bool {
        self.regions.len() <= 1
    }

    /// Region owning a node.
    pub fn region(&self, n: NodeId) -> RegionId {
        self.region_of[n.idx()]
    }

    /// The roots of the leaf regions — regions no other region hangs
    /// from — in node order ([`adaptive_leaf_roots`] gives the same for
    /// an adaptive cut without building one).
    pub fn leaf_roots(&self) -> Vec<NodeId> {
        let mut interior = vec![false; self.regions.len()];
        for info in &self.regions {
            if let Some(p) = info.parent {
                interior[p as usize] = true;
            }
        }
        let mut roots: Vec<NodeId> = self
            .regions
            .iter()
            .zip(interior)
            .filter(|(_, interior)| !interior)
            .map(|(info, _)| info.root)
            .collect();
        roots.sort_unstable();
        roots
    }

    /// The region-local slot layout of this decomposition's machines.
    pub fn slot_map(&self) -> &Arc<SlotMap> {
        &self.slots
    }

    /// The trivial decomposition: everything in region 0.
    pub fn whole<V: AttrValue>(tree: &ParseTree<V>) -> Self {
        let mut d = Decomposition::whole_unfinalized(tree);
        d.finalize_slots(tree);
        d
    }

    /// [`Decomposition::whole`] with the slot layout left empty — the
    /// starting point of the carving engine, which mutates the
    /// partition and builds the layout exactly once at the end
    /// ([`Decomposition::finalize_slots`]) instead of paying an
    /// immediately discarded whole-tree build here.
    fn whole_unfinalized<V: AttrValue>(tree: &ParseTree<V>) -> Self {
        Decomposition {
            region_of: vec![0; tree.len()],
            regions: vec![RegionInfo {
                root: tree.root(),
                parent: None,
                local_size: tree.len(),
            }],
            slots: Arc::new(SlotMap::default()),
        }
    }

    /// Rebuilds the slot layout from the current node map. The carving
    /// engine calls this once the partition is final; anything that
    /// mutates `region_of`/`regions` afterwards must call it again
    /// before machines are built.
    fn finalize_slots<V: AttrValue>(&mut self, tree: &ParseTree<V>) {
        self.slots = Arc::new(SlotMap::build(tree, &self.region_of, &self.regions));
    }

    /// Renders the decomposition in the style of the paper's Figure 7:
    /// one line per region with its letter, root symbol, and size.
    pub fn render<V: AttrValue>(&self, tree: &ParseTree<V>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "decomposition: {} regions over {} nodes",
            self.regions.len(),
            tree.len()
        );
        for (i, r) in self.regions.iter().enumerate() {
            let letter = (b'a' + (i % 26) as u8) as char;
            let sym = tree.grammar().prod(tree.node(r.root).prod).lhs;
            let name = &tree.grammar().symbol(sym).name;
            let parent = match r.parent {
                None => "-".to_string(),
                Some(p) => format!("{}", (b'a' + (p % 26) as u8) as char),
            };
            let _ = writeln!(
                out,
                "  {letter}: root={name:<24} nodes={:<7} parent={parent}",
                r.local_size
            );
        }
        out
    }
}

impl fmt::Debug for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decomposition({} regions)", self.regions.len())
    }
}

/// Region-local slot layout for one decomposition.
///
/// For every region `r` the layout numbers attribute slots *within the
/// region*:
///
/// * **owned slots** `0..owned_slots(r)` — one dense span per node the
///   region owns, in the order [`SlotMap::region_nodes`] lists them
///   (node `n`'s attribute `a` lives at `local_base(n) + a`);
/// * **foreign slots** `owned_slots(r)..total_slots(r)` — aliases for
///   the region's boundary children. A boundary child is always the
///   root of a child region (the structural invariant the
///   decomposition tests pin), and those roots are the *only* foreign
///   nodes a region machine ever addresses: their synthesized
///   attributes arrive as external inputs and their inherited
///   attributes leave as sends. The remap is a small sorted list, one
///   entry per child region.
///
/// The layout is built once per decomposition (shared by every machine
/// via `Arc`), so a region machine's store costs O(region) slots while
/// whole-tree assembly maps local slots back to global instances
/// through the same tables.
///
/// The `Default` layout is the engine's pre-finalize placeholder (no
/// regions, no slots); any machine built against it would index out of
/// bounds, which is exactly the loud failure an unfinalized
/// decomposition deserves.
#[derive(Debug, Default)]
pub struct SlotMap {
    /// Owning region per node (snapshot of the final node map).
    region_of: Vec<RegionId>,
    /// Per node: slot base within its owning region's store.
    local_base: Vec<u32>,
    /// CSR over `nodes`: region → its owned nodes, in layout order.
    node_start: Vec<u32>,
    nodes: Vec<NodeId>,
    /// Per region: number of owned slots (= base of the foreign span).
    owned_slots: Vec<u32>,
    /// Per region: owned + foreign slots (the region store's length).
    total_slots: Vec<u32>,
    /// CSR over `foreign`: region → its boundary-child aliases, sorted
    /// by node id for binary search.
    foreign_start: Vec<u32>,
    foreign: Vec<(NodeId, u32)>,
}

impl SlotMap {
    /// Builds the layout for a final `region_of`/`regions` partition.
    pub fn build<V: AttrValue>(
        tree: &ParseTree<V>,
        region_of: &[RegionId],
        regions: &[RegionInfo],
    ) -> Self {
        let g = tree.grammar();
        let nregions = regions.len();
        // Pass 1: per-region owned node and slot counts.
        let mut node_count = vec![0u32; nregions];
        let mut owned_slots = vec![0u32; nregions];
        let mut attr_count = vec![0u32; tree.len()];
        for n in tree.node_ids() {
            let r = region_of[n.idx()] as usize;
            node_count[r] += 1;
            let sym = g.prod(tree.node(n).prod).lhs;
            attr_count[n.idx()] = g.attr_count(sym) as u32;
            owned_slots[r] += attr_count[n.idx()];
        }
        // Pass 2: assign per-node bases in arena order (counting sort
        // into per-region node lists).
        let mut node_start = vec![0u32; nregions + 1];
        for (r, &c) in node_count.iter().enumerate() {
            node_start[r + 1] = node_start[r] + c;
        }
        let mut cursor: Vec<u32> = node_start[..nregions].to_vec();
        let mut slot_cursor = vec![0u32; nregions];
        let mut nodes = vec![NodeId(0); tree.len()];
        let mut local_base = vec![0u32; tree.len()];
        for n in tree.node_ids() {
            let r = region_of[n.idx()] as usize;
            nodes[cursor[r] as usize] = n;
            cursor[r] += 1;
            local_base[n.idx()] = slot_cursor[r];
            slot_cursor[r] += attr_count[n.idx()];
        }
        // Pass 3: foreign aliases — every non-root region's root is a
        // boundary child of its parent region.
        let mut total_slots = owned_slots.clone();
        let mut foreign_lists: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); nregions];
        for info in regions.iter().skip(1) {
            let parent = info.parent.expect("non-root regions have parents") as usize;
            foreign_lists[parent].push((info.root, total_slots[parent]));
            total_slots[parent] += attr_count[info.root.idx()];
        }
        let mut foreign_start = vec![0u32; nregions + 1];
        let mut foreign = Vec::new();
        for (r, mut list) in foreign_lists.into_iter().enumerate() {
            list.sort_unstable_by_key(|&(n, _)| n);
            foreign_start[r + 1] = foreign_start[r] + list.len() as u32;
            foreign.extend(list);
        }
        SlotMap {
            region_of: region_of.to_vec(),
            local_base,
            node_start,
            nodes,
            owned_slots,
            total_slots,
            foreign_start,
            foreign,
        }
    }

    /// Local slot index of `(node, attr)` within `region`'s store.
    ///
    /// # Panics
    ///
    /// Panics if `node` is neither owned by `region` nor one of its
    /// boundary children — a region machine never addresses any other
    /// node.
    #[inline]
    pub fn slot_of(&self, region: RegionId, node: NodeId, attr: AttrId) -> usize {
        if self.region_of[node.idx()] == region {
            self.local_base[node.idx()] as usize + attr.0 as usize
        } else {
            let span = self.aliases(region);
            let i = span
                .binary_search_by_key(&node, |&(n, _)| n)
                .expect("foreign node must be a boundary child of the region");
            span[i].1 as usize + attr.0 as usize
        }
    }

    /// Region owning a node (snapshot taken at layout-build time).
    #[inline]
    pub fn owner(&self, node: NodeId) -> RegionId {
        self.region_of[node.idx()]
    }

    /// Slot base of `node` within its owning region's store.
    #[inline]
    pub fn local_base(&self, node: NodeId) -> usize {
        self.local_base[node.idx()] as usize
    }

    /// The nodes a region owns, in owned-slot layout order.
    pub fn region_nodes(&self, region: RegionId) -> &[NodeId] {
        let r = region as usize;
        &self.nodes[self.node_start[r] as usize..self.node_start[r + 1] as usize]
    }

    /// The region's boundary-child aliases, sorted by node id.
    fn aliases(&self, region: RegionId) -> &[(NodeId, u32)] {
        let r = region as usize;
        &self.foreign[self.foreign_start[r] as usize..self.foreign_start[r + 1] as usize]
    }

    /// The region's boundary children — the roots of its child
    /// regions — in node-id order.
    pub(crate) fn child_roots(&self, region: RegionId) -> impl Iterator<Item = NodeId> + '_ {
        self.aliases(region).iter().map(|&(n, _)| n)
    }

    /// Number of slots for a region's owned nodes.
    pub fn owned_slots(&self, region: RegionId) -> usize {
        self.owned_slots[region as usize] as usize
    }

    /// Total slots of a region's store (owned + boundary aliases).
    pub fn total_slots(&self, region: RegionId) -> usize {
        self.total_slots[region as usize] as usize
    }

    /// Number of regions in the layout.
    pub fn regions(&self) -> usize {
        self.owned_slots.len()
    }

    /// Total attribute instances of the tree (the owned spans partition
    /// them, so this is the Σ of every region's owned slots — and the
    /// length a whole-tree store for the same tree would have).
    pub fn tree_instances(&self) -> usize {
        self.owned_slots.iter().map(|&s| s as usize).sum()
    }
}

/// Configuration for [`decompose`].
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Desired number of regions (= machines). 1 means no splitting.
    pub target_regions: usize,
    /// Multiplier applied to every symbol's declared minimum split size
    /// (the paper's runtime granularity argument).
    pub min_size_scale: f64,
}

impl SplitConfig {
    /// One region per machine with the grammar's declared minimum sizes.
    pub fn machines(n: usize) -> Self {
        SplitConfig {
            target_regions: n,
            min_size_scale: 1.0,
        }
    }
}

/// Precomputed split-candidate table: for every symbol, the *scaled*
/// minimum subtree size at which a split is worthwhile (`None` for
/// symbols without a `%split` declaration).
///
/// Built once per grammar + granularity scale and shared across every
/// tree a batch driver decomposes, so the per-tree candidate scan is a
/// table lookup instead of a symbol-metadata walk with floating-point
/// scaling per node.
#[derive(Debug, Clone)]
pub struct SplitTable {
    min_size: Vec<Option<usize>>,
}

impl SplitTable {
    /// Builds the table for `grammar` with the runtime granularity
    /// multiplier applied (the paper's "runtime argument to the
    /// parser").
    pub fn new<V: AttrValue>(grammar: &Grammar<V>, min_size_scale: f64) -> Self {
        SplitTable {
            min_size: grammar
                .symbols()
                .iter()
                .map(|s| {
                    s.split
                        .map(|spec| ((spec.min_size as f64 * min_size_scale) as usize).max(2))
                })
                .collect(),
        }
    }

    /// Scaled minimum split size of a symbol, if it is a split point.
    pub fn min_size(&self, sym: SymbolId) -> Option<usize> {
        self.min_size[sym.0 as usize]
    }
}

/// Per-production work estimates: the sum of a production's semantic
/// rule costs (at least 1, so every node carries some weight). Built
/// once per grammar and shared across every tree the adaptive
/// decomposition sizes — the unit of [`decompose_adaptive`]'s budget.
#[derive(Debug, Clone)]
pub struct WorkTable {
    prod_work: Vec<u64>,
}

impl WorkTable {
    /// Builds the table for `grammar`.
    pub fn new<V: AttrValue>(grammar: &Grammar<V>) -> Self {
        WorkTable {
            prod_work: grammar
                .prods()
                .iter()
                .map(|p| p.rules.iter().map(|r| r.cost).sum::<u64>().max(1))
                .collect(),
        }
    }

    /// Estimated work (rule-cost units) of one application of `prod`.
    #[inline]
    pub fn prod_work(&self, prod: ProdId) -> u64 {
        self.prod_work[prod.0 as usize]
    }

    /// Estimated work of a single tree node.
    #[inline]
    pub fn node_work<V: AttrValue>(&self, tree: &ParseTree<V>, n: NodeId) -> u64 {
        self.prod_work(tree.node(n).prod)
    }

    /// Estimated work of the whole tree.
    pub fn tree_work<V: AttrValue>(&self, tree: &ParseTree<V>) -> u64 {
        tree.node_ids().map(|n| self.node_work(tree, n)).sum()
    }

    /// Estimated work of every region of a decomposition (each its
    /// local nodes only), indexed by region: one pass over the tree,
    /// however many regions it was cut into.
    pub fn region_works<V: AttrValue>(&self, tree: &ParseTree<V>, d: &Decomposition) -> Vec<u64> {
        let mut works = vec![0; d.len()];
        for n in tree.node_ids() {
            works[d.region(n) as usize] += self.node_work(tree, n);
        }
        works
    }
}

/// How a scheduler asks for a tree to be carved into regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionGranularity {
    /// Fixed region count: one region per evaluator machine, the
    /// paper's decomposition (and the whole-tree ticketing of earlier
    /// drivers). Reproduces Figure 7 exactly.
    Machines(usize),
    /// Cost-driven: one region per ≈`budget` work units (rule-cost
    /// units, see [`WorkTable`]), independent of the machine count. A
    /// huge tree becomes many budget-sized region jobs that pipeline
    /// through a worker pool exactly like many small trees.
    Adaptive {
        /// Target work units per region.
        budget: u64,
    },
}

/// Dispatches to [`decompose_with`] or [`decompose_adaptive`] according
/// to the granularity.
pub fn decompose_granular<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    work: &WorkTable,
    granularity: RegionGranularity,
) -> Decomposition {
    match granularity {
        RegionGranularity::Machines(n) => decompose_with(tree, table, n.max(1)),
        RegionGranularity::Adaptive { budget } => decompose_adaptive(tree, table, work, budget),
    }
}

/// Splits `tree` into at most `config.target_regions` regions at
/// `%split` nonterminals.
///
/// The decomposition aims at one *quantum* — `tree.len() / target` —
/// of work per machine: while below the target region count, carve out
/// of the largest region the eligible subtree whose local size is
/// closest to the quantum. On the paper's workload this yields the
/// "subtrees of about equal size" the authors observed for five
/// machines. Returns fewer regions than requested when not enough
/// eligible split points exist.
pub fn decompose<V: AttrValue>(tree: &Arc<ParseTree<V>>, config: SplitConfig) -> Decomposition {
    let table = SplitTable::new(tree.grammar().as_ref(), config.min_size_scale);
    decompose_with(tree, &table, config.target_regions)
}

/// [`decompose`] with a precomputed [`SplitTable`] — the batched-driver
/// path, which amortizes the table across many trees.
///
/// The fixed-count stopping rule over the carving engine, measuring in
/// nodes: carve the region with the most local nodes, and stop at
/// `target_regions` or at the first such region without a candidate.
pub fn decompose_with<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    target_regions: usize,
) -> Decomposition {
    if target_regions <= 1 {
        return Decomposition::whole(tree.as_ref());
    }
    carve_fixed(tree, table, target_regions, &mut |_| {}).finish()
}

/// The fixed-count stopping rule (see [`decompose_with`]), reporting
/// every carve to `observe`.
fn carve_fixed<'t, V: AttrValue>(
    tree: &'t ParseTree<V>,
    table: &SplitTable,
    target_regions: usize,
    observe: &mut dyn FnMut(CarveStep<'_>),
) -> Carver<'t, V> {
    let quantum = (tree.len() / target_regions).max(2) as u64;
    let mut c = Carver::new(tree, table, None);
    while c.local.len() < target_regions {
        let big = (0..c.local.len()).max_by_key(|&r| c.local[r]).unwrap_or(0);
        match c.best(big, quantum) {
            Some((node, nodes)) => {
                c.carve(node, nodes);
                observe(c.step());
            }
            None => break,
        }
    }
    c
}

/// `true` when a tree of `tree_work` units stays one region under an
/// adaptive `budget`: it is within 1.5× the budget, the bound above
/// which [`decompose_adaptive`] re-splits a region. A caller that
/// already knows the tree's work answers this without a decomposition.
pub fn fits_budget(tree_work: u64, budget: u64) -> bool {
    let budget = budget.max(1);
    tree_work <= budget.saturating_add(budget / 2)
}

/// Splits `tree` into regions of ≈`budget` work units each (cost-driven
/// adaptive decomposition).
///
/// The adaptive stopping rule over the carving engine, measuring in the
/// [`WorkTable`]'s rule-cost units instead of node counts, so a
/// region's size tracks how long an evaluator will chew on it, not how
/// many nodes it ships:
///
/// 1. **Re-split oversized regions**: while any region's local work
///    exceeds 1.5× the budget, carve out of the (largest such) region
///    the eligible `%split` subtree whose local work is closest to the
///    budget. A region with no remaining candidate is frozen as-is —
///    splits only happen where the grammar allows them.
/// 2. **Merge undersized regions**: a region below ¼ of the budget is
///    folded back into the region owning its root's parent, provided
///    the combined region stays within the 1.5× bound — tiny regions
///    cost more in messages and machine setup than they recover in
///    overlap.
///
/// The result depends only on the tree and the budget — *not* on the
/// machine count — so the same tree decomposes identically no matter
/// how many workers the pool runs, and a region-granular scheduler can
/// map regions onto workers round-robin. Returns the trivial
/// decomposition when the whole tree fits within 1.5× the budget
/// ([`fits_budget`]).
///
/// Cost: O(nodes) to set up — subtree work, the `%split` candidates and
/// every node's local work and size — then, per split, one scan of the
/// candidates, each read in O(1) off the per-node locals, which a carve
/// keeps current by subtracting its share from its in-region ancestors
/// (O(depth)), and a relabelling of the nodes it moves. A merge is
/// O(1): merged regions forward to their target and the node map is
/// renumbered once, at the end. [`adaptive_leaf_roots`] runs the same
/// carve without building the slot layout.
pub fn decompose_adaptive<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    work: &WorkTable,
    budget: u64,
) -> Decomposition {
    match carve_adaptive(tree, table, work, budget, &mut |_| {}) {
        Some(c) => c.finish(),
        None => Decomposition::whole(tree.as_ref()),
    }
}

/// The roots of the leaf regions — regions no other region hangs
/// from — of [`decompose_adaptive`]'s cut, in node order, without the
/// slot layout: what the memo reads of a cut it does not run (the tree
/// root alone when the tree fits the budget).
pub fn adaptive_leaf_roots<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    work: &WorkTable,
    budget: u64,
) -> Vec<NodeId> {
    match carve_adaptive(tree, table, work, budget, &mut |_| {}) {
        Some(c) => c.leaf_roots(),
        None => vec![tree.root()],
    }
}

/// What the carving engine keeps per node after a carve, for tests that
/// check it against the definition: a node's local work and size are
/// those of the nodes of its subtree its own region owns.
#[doc(hidden)]
pub struct CarveStep<'a> {
    /// Region of each node, indexed by [`NodeId`].
    pub region_of: &'a [RegionId],
    /// Local work units of each node under an adaptive budget; `None`
    /// under a fixed count, which measures in nodes.
    pub local_work: Option<&'a [u64]>,
    /// Local node count of each node.
    pub local_size: &'a [u32],
}

/// [`decompose_granular`] that reports the engine's per-node state to
/// `observe` after every carve (a test hook).
#[doc(hidden)]
pub fn decompose_traced<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    work: &WorkTable,
    granularity: RegionGranularity,
    observe: &mut dyn FnMut(CarveStep<'_>),
) -> Decomposition {
    let carver = match granularity {
        RegionGranularity::Machines(n) if n > 1 => Some(carve_fixed(tree, table, n, observe)),
        RegionGranularity::Machines(_) => None,
        RegionGranularity::Adaptive { budget } => {
            carve_adaptive(tree, table, work, budget, observe)
        }
    };
    match carver {
        Some(c) => c.finish(),
        None => Decomposition::whole(tree.as_ref()),
    }
}

/// The adaptive stopping rule (see [`decompose_adaptive`]), reporting
/// every carve to `observe`; `None` when the tree fits the budget.
fn carve_adaptive<'t, V: AttrValue>(
    tree: &'t ParseTree<V>,
    table: &SplitTable,
    work: &WorkTable,
    budget: u64,
    observe: &mut dyn FnMut(CarveStep<'_>),
) -> Option<Carver<'t, V>> {
    let budget = budget.max(1);
    let oversize = budget.saturating_add(budget / 2);
    let undersize = budget / 4;

    // Per-subtree work in one pass: a node's children precede it in
    // arena order.
    let mut sub_work = vec![0u64; tree.len()];
    for n in tree.node_ids() {
        let mut w = work.node_work(tree, n);
        for c in tree.children(n) {
            if let Child::Node(c) = c {
                w += sub_work[c.idx()];
            }
        }
        sub_work[n.idx()] = w;
    }
    if fits_budget(sub_work[tree.root().idx()], budget) {
        return None;
    }
    let mut c = Carver::new(tree, table, Some(sub_work));

    // Phase 1: re-split oversized regions.
    let mut frozen = vec![false];
    while let Some(big) = (0..c.local.len())
        .filter(|&r| c.local[r] > oversize && !frozen[r])
        .max_by_key(|&r| c.local[r])
    {
        match c.best(big, budget) {
            None => frozen[big] = true,
            Some((node, w)) => {
                c.carve(node, w);
                frozen.push(false);
                observe(c.step());
            }
        }
    }

    // Phase 2: merge undersized regions into their parent region, the
    // highest-numbered first.
    for i in (1..c.local.len()).rev() {
        if c.local[i] >= undersize {
            continue;
        }
        let (pnode, _) = tree
            .node(c.d.regions[i].root)
            .parent
            .expect("carved region roots are not the tree root");
        let target = c.live(c.d.region(pnode)) as usize;
        if c.local[target].saturating_add(c.local[i]) > oversize {
            continue;
        }
        c.merged_into[i] = target as RegionId;
        c.d.regions[target].local_size += c.d.regions[i].local_size;
        c.local[target] += c.local[i];
    }
    Some(c)
}

/// Marks a region that was not merged into another.
const LIVE: RegionId = RegionId::MAX;

/// The carving engine both decompositions share; each of them is only
/// a stopping rule over [`Carver::best`] and [`Carver::carve`].
///
/// It holds the partition under construction, the `%split` candidates,
/// and per node its local size and, under an adaptive budget, its local
/// work: those of the nodes of its subtree that its own region owns.
/// The measure is the work, or else the size. Every node's locals stay
/// current through every carve, so reading a candidate's costs O(1).
struct Carver<'t, V: AttrValue> {
    tree: &'t ParseTree<V>,
    d: Decomposition,
    /// Split points: nodes at `%split` symbols meeting the scaled
    /// minimum size, the tree root excluded, in arena order.
    candidates: Vec<NodeId>,
    /// Local work of every node, indexed by node; `None` measures
    /// nodes.
    local_work: Option<Vec<u64>>,
    /// Local node count of every node, indexed by node.
    local_size: Vec<u32>,
    /// Local measure of every region, indexed by region.
    local: Vec<u64>,
    /// Per region: the region it was merged into, or [`LIVE`].
    merged_into: Vec<RegionId>,
}

impl<'t, V: AttrValue> Carver<'t, V> {
    /// The engine over `tree`, measuring each subtree's work in
    /// `sub_work` (indexed by node), or its nodes.
    fn new(tree: &'t ParseTree<V>, table: &SplitTable, sub_work: Option<Vec<u64>>) -> Self {
        let g = tree.grammar();
        let candidates = tree
            .node_ids()
            .filter(|&n| n != tree.root())
            .filter(|&n| {
                let sym = g.prod(tree.node(n).prod).lhs;
                table
                    .min_size(sym)
                    .is_some_and(|min| tree.subtree_size(n) >= min)
            })
            .collect();
        let local_size = tree
            .node_ids()
            .map(|n| tree.subtree_size(n) as u32)
            .collect();
        let mut c = Carver {
            tree,
            d: Decomposition::whole_unfinalized(tree),
            candidates,
            local_work: sub_work,
            local_size,
            local: Vec::new(),
            merged_into: vec![LIVE],
        };
        c.local.push(c.measure(tree.root()));
        c
    }

    /// Local measure of `n`: its local work, or its local size.
    fn measure(&self, n: NodeId) -> u64 {
        match &self.local_work {
            Some(work) => work[n.idx()],
            None => self.local_size[n.idx()] as u64,
        }
    }

    /// The candidate inside region `big` whose local measure is closest
    /// to `target`, leaving at least 2 nodes on each side — the first
    /// one on a tie — with that local measure.
    fn best(&self, big: usize, target: u64) -> Option<(NodeId, u64)> {
        let region = &self.d.regions[big];
        let mut best: Option<(NodeId, u64, u64)> = None;
        for &n in &self.candidates {
            // Every other region root is owned by another region.
            if self.d.region(n) as usize != big || n == region.root {
                continue;
            }
            let (m, s) = (self.measure(n), self.local_size[n.idx()] as usize);
            if s < 2 || region.local_size - s < 2 {
                continue;
            }
            let score = m.abs_diff(target);
            if best.is_none_or(|(_, _, b)| score < b) {
                best = Some((n, m, score));
            }
        }
        best.map(|(n, m, _)| (n, m))
    }

    /// Carves the local subtree of `node`, whose local measure is `m`,
    /// out of its current region into a new one, and takes its share
    /// off the locals of its ancestors in that region.
    fn carve(&mut self, node: NodeId, m: u64) {
        let (tree, d) = (self.tree, &mut self.d);
        let old = d.region(node);
        let new = d.regions.len() as RegionId;
        let moved = self.local_size[node.idx()];
        let mut up = tree.node(node).parent;
        while let Some((p, _)) = up.filter(|&(p, _)| d.region(p) == old) {
            if let Some(work) = &mut self.local_work {
                work[p.idx()] -= m;
            }
            self.local_size[p.idx()] -= moved;
            up = tree.node(p).parent;
        }
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            if d.region(x) != old {
                continue;
            }
            d.region_of[x.idx()] = new;
            for c in tree.children(x) {
                if let Child::Node(c) = c {
                    stack.push(*c);
                }
            }
        }
        d.regions[old as usize].local_size -= moved as usize;
        d.regions.push(RegionInfo {
            root: node,
            parent: Some(old),
            local_size: moved as usize,
        });
        self.local[old as usize] -= m;
        self.local.push(m);
        self.merged_into.push(LIVE);
    }

    /// The engine's per-node state, for an observer.
    fn step(&self) -> CarveStep<'_> {
        CarveStep {
            region_of: &self.d.region_of,
            local_work: self.local_work.as_deref(),
            local_size: &self.local_size,
        }
    }

    /// The region `r` ended up in: itself, or the live region it was
    /// merged into.
    fn live(&self, mut r: RegionId) -> RegionId {
        while self.merged_into[r as usize] != LIVE {
            r = self.merged_into[r as usize];
        }
        r
    }

    /// The roots of the live regions no other live region hangs from,
    /// in node order.
    fn leaf_roots(&self) -> Vec<NodeId> {
        let mut interior = vec![false; self.local.len()];
        for (i, info) in self.d.regions.iter().enumerate().skip(1) {
            if self.merged_into[i] == LIVE {
                let (p, _) = self.tree.node(info.root).parent.expect("not the tree root");
                interior[self.live(self.d.region(p)) as usize] = true;
            }
        }
        let mut roots: Vec<NodeId> = (0..self.local.len())
            .filter(|&r| self.merged_into[r] == LIVE && !interior[r])
            .map(|r| self.d.regions[r].root)
            .collect();
        roots.sort_unstable();
        roots
    }

    /// Drops the merged regions — renumbering the rest in order — then
    /// relinks every region to its parent and builds the slot layout. A
    /// later carve may move an earlier region's root-parent, and a merge
    /// renumbers regions, so the links are read off the final map.
    fn finish(mut self) -> Decomposition {
        if self.merged_into.iter().any(|&m| m != LIVE) {
            let mut renumber = vec![0 as RegionId; self.local.len()];
            let mut next = 0;
            for (r, slot) in renumber.iter_mut().enumerate() {
                if self.merged_into[r] == LIVE {
                    *slot = next;
                    next += 1;
                }
            }
            for r in 0..renumber.len() {
                renumber[r] = renumber[self.live(r as RegionId) as usize];
            }
            let d = &mut self.d;
            for slot in d.region_of.iter_mut() {
                *slot = renumber[*slot as usize];
            }
            let merged = &self.merged_into;
            let mut r = 0;
            d.regions.retain(|_| {
                r += 1;
                merged[r - 1] == LIVE
            });
        }
        let d = &mut self.d;
        for i in 1..d.regions.len() {
            let (p, _) = self
                .tree
                .node(d.regions[i].root)
                .parent
                .expect("non-root region root has a parent");
            d.regions[i].parent = Some(d.region_of[p.idx()]);
        }
        d.finalize_slots(self.tree);
        self.d
    }
}

/// The boundary children of a region: in-region parents paired with
/// child nodes owned by other regions (the "remotely evaluated leaves"
/// of §2.4).
pub fn boundary_children<V: AttrValue>(
    tree: &ParseTree<V>,
    d: &Decomposition,
    region: RegionId,
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    let root = d.regions[region as usize].root;
    let mut stack = vec![root];
    while let Some(x) = stack.pop() {
        for c in tree.children(x) {
            if let Child::Node(c) = c {
                if d.region(*c) == region {
                    stack.push(*c);
                } else {
                    out.push((x, *c));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;
    use crate::tree::TreeBuilder;
    use crate::ProdId;

    /// Builds a grammar with splittable `list` nodes and a chain/comb
    /// tree: root -> list of `n` items, each item a small subtree.
    fn comb(n: usize, item_depth: usize) -> (Arc<ParseTree<i64>>, ProdId) {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let list = g.nonterminal("list");
        let item = g.nonterminal("item");
        let sv = g.synthesized(s, "v");
        let lv = g.synthesized(list, "v");
        let iv = g.synthesized(item, "v");
        g.mark_split(list, 4);
        let top = g.production("top", s, [list]);
        g.rule(top, (0, sv), [(1, lv)], |a| a[0]);
        let cons = g.production("cons", list, [item, list]);
        g.rule(cons, (0, lv), [(1, iv), (2, lv)], |a| a[0] + a[1]);
        let nil = g.production("nil", list, []);
        g.rule(nil, (0, lv), [], |_| 0);
        let wrap = g.production("wrap", item, [item]);
        g.rule(wrap, (0, iv), [(1, iv)], |a| a[0]);
        let unit = g.production("unit", item, []);
        g.rule(unit, (0, iv), [], |_| 1);
        let gr = Arc::new(g.build(s).unwrap());

        let mut tb = TreeBuilder::new(&gr);
        let mut tail = tb.leaf(nil);
        for _ in 0..n {
            let mut it = tb.leaf(unit);
            for _ in 0..item_depth {
                it = tb.node(wrap, [it]);
            }
            tail = tb.node(cons, [it, tail]);
        }
        let root = tb.node(top, [tail]);
        (Arc::new(tb.finish(root).unwrap()), top)
    }

    #[test]
    fn whole_decomposition_is_one_region() {
        let (tree, _) = comb(4, 1);
        let d = Decomposition::whole(&tree);
        assert_eq!(d.len(), 1);
        assert!(d.is_unsplit());
        assert!(tree.node_ids().all(|n| d.region(n) == 0));
    }

    #[test]
    fn decompose_reaches_target_when_possible() {
        let (tree, _) = comb(32, 3);
        for k in 2..=5 {
            let d = decompose(&tree, SplitConfig::machines(k));
            assert_eq!(d.len(), k, "k={k}");
            // Every node accounted for, regions partition the tree.
            let total: usize = d.regions.iter().map(|r| r.local_size).sum();
            assert_eq!(total, tree.len());
            // Region 0 owns the tree root.
            assert_eq!(d.regions[0].root, tree.root());
            assert_eq!(d.region(tree.root()), 0);
        }
    }

    #[test]
    fn regions_are_reasonably_balanced() {
        let (tree, _) = comb(64, 4);
        let d = decompose(&tree, SplitConfig::machines(4));
        assert_eq!(d.len(), 4);
        let sizes: Vec<usize> = d.regions.iter().map(|r| r.local_size).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max <= min * 4,
            "decomposition too uneven: {sizes:?} (tree {} nodes)",
            tree.len()
        );
    }

    #[test]
    fn min_size_scale_suppresses_splits() {
        let (tree, _) = comb(8, 1);
        let d = decompose(
            &tree,
            SplitConfig {
                target_regions: 4,
                min_size_scale: 1e6,
            },
        );
        assert_eq!(d.len(), 1, "nothing is large enough to split");
    }

    #[test]
    fn boundary_children_cross_regions() {
        let (tree, _) = comb(32, 3);
        let d = decompose(&tree, SplitConfig::machines(3));
        let b0 = boundary_children(&tree, &d, 0);
        assert!(!b0.is_empty());
        for (p, c) in b0 {
            assert_eq!(d.region(p), 0);
            assert_ne!(d.region(c), 0);
            // The boundary child is a region root.
            assert!(d.regions.iter().any(|r| r.root == c));
        }
    }

    #[test]
    fn parent_links_are_consistent() {
        let (tree, _) = comb(48, 2);
        let d = decompose(&tree, SplitConfig::machines(5));
        for (i, r) in d.regions.iter().enumerate().skip(1) {
            let parent = r.parent.expect("non-root regions have parents");
            let (pnode, _) = tree
                .node(r.root)
                .parent
                .expect("region root has a parent node");
            assert_eq!(d.region(pnode), parent, "region {i}");
        }
    }

    /// Checks the structural invariants every decomposition must obey:
    /// nodes partitioned, region 0 at the tree root, region roots and
    /// parent links consistent, boundary children owned by child-region
    /// roots.
    fn assert_partition(tree: &Arc<ParseTree<i64>>, d: &Decomposition) {
        let total: usize = d.regions.iter().map(|r| r.local_size).sum();
        assert_eq!(total, tree.len(), "regions partition the tree");
        assert_eq!(d.regions[0].root, tree.root());
        assert_eq!(d.region(tree.root()), 0);
        for n in tree.node_ids() {
            assert!((d.region(n) as usize) < d.len(), "node region in range");
        }
        for (i, r) in d.regions.iter().enumerate() {
            assert_eq!(d.region(r.root), i as RegionId, "root owned by region");
        }
        for (i, r) in d.regions.iter().enumerate().skip(1) {
            let parent = r.parent.expect("non-root regions have parents");
            let (pnode, _) = tree.node(r.root).parent.expect("root has parent node");
            assert_eq!(d.region(pnode), parent, "region {i} parent link");
        }
        for r in 0..d.len() as RegionId {
            for (p, c) in boundary_children(tree, d, r) {
                assert_eq!(d.region(p), r);
                assert_ne!(d.region(c), r);
                assert_eq!(d.regions[d.region(c) as usize].root, c);
            }
        }
    }

    #[test]
    fn adaptive_decomposition_tracks_the_budget_not_the_machine_count() {
        let (tree, _) = comb(96, 4);
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        let total = work.tree_work(&tree);
        for div in [2u64, 4, 8, 16] {
            let budget = (total / div).max(1);
            let d = decompose_adaptive(&tree, &table, &work, budget);
            assert_partition(&tree, &d);
            assert!(d.len() > 1, "budget {budget}: tree should split");
            for (r, w) in work.region_works(&tree, &d).into_iter().enumerate() {
                assert!(w > 0, "budget {budget}: region {r} has work");
            }
            // Region count is in the ballpark of work/budget.
            let expect = total.div_ceil(budget) as usize;
            assert!(
                d.len() <= 2 * expect + 1,
                "budget {budget}: {} regions for expected ≈{expect}",
                d.len()
            );
        }
    }

    #[test]
    fn adaptive_huge_budget_leaves_tree_whole() {
        let (tree, _) = comb(32, 3);
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        let d = decompose_adaptive(&tree, &table, &work, u64::MAX / 4);
        assert!(d.is_unsplit());
    }

    #[test]
    fn adaptive_merges_undersized_regions() {
        let (tree, _) = comb(64, 4);
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        let total = work.tree_work(&tree);
        let budget = (total / 6).max(1);
        let d = decompose_adaptive(&tree, &table, &work, budget);
        assert!(d.len() > 1);
        // On this uniform-cost comb every undersized region has room to
        // fold into its parent, so none survives below ¼ budget.
        for (r, w) in work.region_works(&tree, &d).into_iter().enumerate() {
            assert!(
                w >= budget / 4,
                "region {r} undersized at {w} (budget {budget}, total {total})"
            );
        }
    }

    #[test]
    fn adaptive_is_deterministic() {
        let (tree, _) = comb(48, 3);
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        let a = decompose_adaptive(&tree, &table, &work, 64);
        let b = decompose_adaptive(&tree, &table, &work, 64);
        assert_eq!(a.region_of, b.region_of);
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn granularity_dispatch_matches_both_engines() {
        let (tree, _) = comb(32, 3);
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        let fixed = decompose_granular(&tree, &table, &work, RegionGranularity::Machines(3));
        assert_eq!(fixed.len(), decompose_with(&tree, &table, 3).len());
        let adaptive = decompose_granular(
            &tree,
            &table,
            &work,
            RegionGranularity::Adaptive { budget: 40 },
        );
        assert_eq!(
            adaptive.len(),
            decompose_adaptive(&tree, &table, &work, 40).len()
        );
    }

    #[test]
    fn work_table_weights_sum_over_the_tree() {
        let (tree, _) = comb(8, 2);
        let work = WorkTable::new(tree.grammar().as_ref());
        let total = work.tree_work(&tree);
        let by_node: u64 = tree.node_ids().map(|n| work.node_work(&tree, n)).sum();
        assert_eq!(total, by_node);
        assert!(total >= tree.len() as u64, "every node weighs at least 1");
        let d = decompose(&tree, SplitConfig::machines(2));
        let by_region: u64 = work.region_works(&tree, &d).iter().sum();
        assert_eq!(by_region, total);
    }

    #[test]
    fn region_works_are_per_node_sums_under_fixed_and_adaptive_cuts() {
        let (tree, _) = comb(48, 3);
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        let budget = work.tree_work(&tree) / 5;
        for granularity in [
            RegionGranularity::Machines(3),
            RegionGranularity::Adaptive { budget },
        ] {
            let d = decompose_granular(&tree, &table, &work, granularity);
            assert!(d.len() > 2, "{granularity:?}: {} regions", d.len());
            let per_node: Vec<u64> = (0..d.len() as RegionId)
                .map(|r| {
                    tree.node_ids()
                        .filter(|&n| d.region(n) == r)
                        .map(|n| work.node_work(&tree, n))
                        .sum()
                })
                .collect();
            assert_eq!(work.region_works(&tree, &d), per_node, "{granularity:?}");
        }
    }

    /// After the first carve the largest region has no candidate left
    /// while the smaller one still has one: the fixed-count rule stops
    /// there, the adaptive rule freezes the largest region and carves
    /// the other. Every node weighs one work unit.
    #[test]
    fn the_two_stopping_rules_part_where_the_largest_region_has_no_candidate() {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let a = g.nonterminal("A");
        let x = g.nonterminal("X");
        let p = g.nonterminal("P");
        let sv = g.synthesized(s, "v");
        g.mark_split(x, 2);
        let top = g.production("top", s, [a, x]);
        g.rule(top, (0, sv), [], |_| 0);
        let achain = g.production("achain", a, [a]);
        let aleaf = g.production("aleaf", a, []);
        let xnode = g.production("xnode", x, [p, x]);
        let xleaf = g.production("xleaf", x, []);
        let pchain = g.production("pchain", p, [p]);
        let pleaf = g.production("pleaf", p, []);
        let gr = Arc::new(g.build(s).unwrap());
        let mut tb = TreeBuilder::new(&gr);
        let chain = |tb: &mut TreeBuilder<i64>, wrap, leaf, len: usize| {
            let mut n = tb.leaf(leaf);
            for _ in 1..len {
                n = tb.node(wrap, [n]);
            }
            n
        };
        // S(47) = top[A chain of 30, X outer(16) = xnode[P chain of 12,
        // X inner(3) = xnode[P leaf, X leaf]]].
        let left = chain(&mut tb, achain, aleaf, 30);
        let (pad, end) = (tb.leaf(pleaf), tb.leaf(xleaf));
        let inner = tb.node(xnode, [pad, end]);
        let pad = chain(&mut tb, pchain, pleaf, 12);
        let outer = tb.node(xnode, [pad, inner]);
        let root = tb.node(top, [left, outer]);
        let tree = Arc::new(tb.finish(root).unwrap());
        let x_of_size = |size| {
            tree.node_ids()
                .find(|&n| tree.node(n).prod == xnode && tree.subtree_size(n) == size)
                .unwrap()
        };
        let (outer, inner) = (x_of_size(16), x_of_size(3));
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        assert_eq!(work.tree_work(&tree), 47);

        let fixed = decompose_with(&tree, &table, 3);
        assert_partition(&tree, &fixed);
        let roots: Vec<NodeId> = fixed.regions.iter().map(|r| r.root).collect();
        assert_eq!(roots, [tree.root(), outer], "stops short of 3 regions");
        assert_eq!(fixed.regions[0].local_size, 31);

        let adaptive = decompose_adaptive(&tree, &table, &work, 10);
        assert_partition(&tree, &adaptive);
        let roots: Vec<NodeId> = adaptive.regions.iter().map(|r| r.root).collect();
        assert_eq!(roots, [tree.root(), outer, inner]);
        assert_eq!(adaptive.regions[2].parent, Some(1));
        // The frozen region stays above 1.5 × the budget.
        assert_eq!(work.region_works(&tree, &adaptive), [31, 13, 3]);
    }

    #[test]
    fn render_mentions_every_region() {
        let (tree, _) = comb(32, 3);
        let d = decompose(&tree, SplitConfig::machines(3));
        let s = d.render(&tree);
        assert!(s.contains("a: root="));
        assert!(s.contains("b: root="));
        assert!(s.contains("c: root="));
    }
}
