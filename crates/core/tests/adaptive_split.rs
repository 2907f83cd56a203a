//! Cost-driven adaptive decomposition equivalence properties.
//!
//! `decompose_adaptive` may carve a tree into any number of regions —
//! more than there are machines, fewer than a fixed-count split would —
//! yet evaluation over the region machines must fill the attribute
//! store with exactly the values the whole-tree sequential static
//! evaluator produces, for arbitrary tree shapes, work budgets and
//! split granularities — under **both** granularity engines
//! (fixed-count and adaptive) and regardless of the order region
//! stores are merged back into the whole-tree store. Alongside value
//! equivalence this pins the structural invariants region-granular
//! scheduling relies on: every node owned by exactly one region,
//! region 0 at the tree root, parent links consistent with the node
//! map, and every boundary child the root of the region that owns it —
//! plus the slot-layout invariants the region-local stores add: a
//! machine's store is sized by its region's slots (owned + boundary
//! aliases), never by the tree.

use paragram_core::analysis::{compute_plans, Plans};
use paragram_core::eval::{static_eval, AttrMsg, Machine, MachineMode, SendTarget};
use paragram_core::grammar::{AttrId, Grammar, GrammarBuilder, ProdId};
use paragram_core::split::{
    adaptive_leaf_roots, boundary_children, decompose_adaptive, decompose_granular,
    decompose_traced, CarveStep, Decomposition, RegionGranularity, RegionId, SplitTable, WorkTable,
};
use paragram_core::tree::{AttrStore, NodeId, ParseTree, RegionStore, TreeBuilder};
use paragram_core::value::AttrValue;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::Compiler;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

/// The paper's compiler shape over i64 (decls up, priority env down,
/// code up), with splittable lists and bodies — the same fixture the
/// cross-evaluator equivalence suite uses, here driven through the
/// adaptive decomposition instead of the fixed-count one.
struct Fixture {
    grammar: Arc<Grammar<i64>>,
    top: ProdId,
    cons: ProdId,
    nil: ProdId,
    wrap: ProdId,
    unit: ProdId,
}

fn fixture() -> Fixture {
    let mut g = GrammarBuilder::<i64>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("L");
    let b = g.nonterminal("B");
    let out = g.synthesized(s, "out");
    let decls = g.synthesized(l, "decls");
    let env = g.inherited(l, "env");
    let code = g.synthesized(l, "code");
    let benv = g.inherited(b, "env");
    let bcode = g.synthesized(b, "code");
    g.mark_split(l, 2);
    g.mark_split(b, 2);
    g.mark_priority(l, env);
    g.mark_priority(b, benv);

    let top = g.production("top", s, [l]);
    g.rule(top, (1, env), [(1, decls)], |a| a[0].wrapping_mul(31) + 1);
    g.rule(top, (0, out), [(1, code)], |a| a[0]);
    let cons = g.production("cons", l, [b, l]);
    g.rule(cons, (0, decls), [(2, decls)], |a| a[0] + 1);
    g.rule(cons, (2, env), [(0, env)], |a| a[0].wrapping_add(3));
    g.rule(cons, (1, benv), [(0, env)], |a| a[0] ^ 0x55);
    g.rule(cons, (0, code), [(1, bcode), (2, code)], |a| {
        a[0].wrapping_mul(1_000_003).wrapping_add(a[1])
    });
    let nil = g.production("nil", l, []);
    g.rule(nil, (0, decls), [], |_| 0);
    g.rule(nil, (0, code), [(0, env)], |a| a[0]);
    let wrap = g.production("wrap", b, [b]);
    g.rule(wrap, (1, benv), [(0, benv)], |a| a[0].wrapping_add(7));
    g.rule_with_cost(
        wrap,
        (0, bcode),
        [(1, bcode), (0, benv)],
        |a| a[0].wrapping_mul(17) ^ a[1],
        3,
    );
    let unit = g.production("unit", b, []);
    g.rule(unit, (0, bcode), [(0, benv)], |a| a[0].wrapping_mul(13) + 1);

    Fixture {
        grammar: Arc::new(g.build(s).unwrap()),
        top,
        cons,
        nil,
        wrap,
        unit,
    }
}

/// One list item per shape entry, each with a body of that depth.
fn build_tree(fx: &Fixture, shape: &[u8]) -> Arc<ParseTree<i64>> {
    let mut tb = TreeBuilder::new(&fx.grammar);
    let mut tail = tb.leaf(fx.nil);
    for &depth in shape {
        let mut body = tb.leaf(fx.unit);
        for _ in 0..depth {
            body = tb.node(fx.wrap, [body]);
        }
        tail = tb.node(fx.cons, [body, tail]);
    }
    let root = tb.node(fx.top, [tail]);
    Arc::new(tb.finish(root).unwrap())
}

/// Every node owned by exactly one region, boundary invariants intact.
fn assert_partition(tree: &Arc<ParseTree<i64>>, d: &Decomposition) -> Result<(), TestCaseError> {
    let total: usize = d.regions.iter().map(|r| r.local_size).sum();
    prop_assert_eq!(total, tree.len(), "regions must partition the tree");
    prop_assert_eq!(d.regions[0].root, tree.root());
    prop_assert_eq!(d.region(tree.root()), 0);
    for n in tree.node_ids() {
        prop_assert!((d.region(n) as usize) < d.len());
    }
    for (i, r) in d.regions.iter().enumerate() {
        prop_assert_eq!(d.region(r.root), i as RegionId, "root owned by its region");
        if i > 0 {
            let parent = r.parent.expect("non-root regions have parents");
            let (pnode, _) = tree.node(r.root).parent.expect("root has a parent node");
            prop_assert_eq!(d.region(pnode), parent, "parent link consistent");
        }
    }
    for r in 0..d.len() as RegionId {
        for (p, c) in boundary_children(tree, d, r) {
            prop_assert_eq!(d.region(p), r);
            prop_assert_ne!(d.region(c), r);
            prop_assert_eq!(
                d.regions[d.region(c) as usize].root,
                c,
                "boundary child must be its region's root"
            );
        }
    }
    Ok(())
}

/// Runs all machines of a decomposition to completion with a
/// synchronous round-robin message pump; returns the region-local
/// stores in region order.
fn pump_machines(
    tree: &Arc<ParseTree<i64>>,
    plans: &Arc<Plans>,
    decomp: &Decomposition,
    mode: MachineMode,
) -> Vec<RegionStore<i64>> {
    let mut machines: Vec<Machine<i64>> = (0..decomp.len() as RegionId)
        .map(|r| Machine::new(tree, Some(plans), decomp, r, mode))
        .collect();
    let mut inbox: Vec<AttrMsg<i64>> = Vec::new();
    loop {
        let mut progressed = false;
        for m in machines.iter_mut() {
            let sends = m.run().unwrap();
            progressed |= !sends.is_empty();
            inbox.extend(sends);
        }
        for msg in inbox.drain(..) {
            if let SendTarget::Region(r) = msg.to {
                machines[r as usize].provide(msg.node, msg.attr, msg.value);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    assert!(
        machines.iter().all(|m| m.is_done()),
        "machine pump deadlocked: {machines:?}"
    );
    machines.into_iter().map(Machine::into_store).collect()
}

/// Sparse assembly in an arbitrary merge order: the regions' owned
/// spans are disjoint whole-tree instances, so any permutation must
/// produce the identical store.
fn merge_stores(
    tree: &Arc<ParseTree<i64>>,
    stores: Vec<RegionStore<i64>>,
    order: &[usize],
) -> AttrStore<i64> {
    assert_eq!(stores.len(), order.len());
    let mut merged = AttrStore::new(tree);
    let mut slots: Vec<Option<RegionStore<i64>>> = stores.into_iter().map(Some).collect();
    for &i in order {
        merged.absorb_region(tree, &slots[i].take().expect("each region merged once"));
    }
    merged
}

/// A seeded permutation of `0..n` (Fisher–Yates over the shim rng).
fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

/// Checks the slot-layout invariants of a decomposition's region-local
/// stores: a machine's store is sized by its region's owned span plus
/// its boundary aliases — never by the tree — and the owned spans sum
/// to exactly the tree's instance count.
fn assert_region_local_layout(
    tree: &Arc<ParseTree<i64>>,
    d: &Decomposition,
    stores: &[RegionStore<i64>],
) -> Result<(), TestCaseError> {
    let g = tree.grammar();
    let map = d.slot_map();
    let tree_instances: usize = tree
        .node_ids()
        .map(|n| g.attr_count(g.prod(tree.node(n).prod).lhs))
        .sum();
    let mut owned_total = 0usize;
    for (r, store) in stores.iter().enumerate() {
        let r = r as RegionId;
        prop_assert_eq!(store.len(), map.total_slots(r), "store sized by layout");
        owned_total += map.owned_slots(r);
        // Aliases: one span per boundary child, nothing more.
        let boundary_slots: usize = boundary_children(tree, d, r)
            .iter()
            .map(|&(_, c)| g.attr_count(g.prod(tree.node(c).prod).lhs))
            .sum();
        prop_assert_eq!(
            map.total_slots(r) - map.owned_slots(r),
            boundary_slots,
            "foreign span covers exactly the boundary children"
        );
        if d.len() > 1 {
            prop_assert!(
                map.owned_slots(r) < tree_instances,
                "region {} store must be smaller than the tree",
                r
            );
        }
    }
    prop_assert_eq!(
        owned_total,
        tree_instances,
        "owned spans partition the instances"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random tree shapes, budgets/machine counts, granularity
    /// scales and merge orders, both decomposition engines partition
    /// the tree soundly, region-local evaluation over them matches
    /// whole-tree sequential static eval everywhere (boundary
    /// attributes crossing regions included), and assembly is
    /// merge-order independent.
    #[test]
    fn region_local_evaluation_matches_whole_tree_static(
        shape in prop::collection::vec(0u8..6, 1..20),
        divisor in prop::sample::select(vec![2u64, 3, 6, 12, 24]),
        machines in 1usize..6,
        scale in prop::sample::select(vec![0.5f64, 1.0, 4.0]),
        seed in any::<u64>(),
    ) {
        let fx = fixture();
        let tree = build_tree(&fx, &shape);
        let plans = Arc::new(compute_plans(fx.grammar.as_ref()).unwrap());
        let (want, _) = static_eval(&tree, &plans).unwrap();

        let table = SplitTable::new(fx.grammar.as_ref(), scale);
        let work = WorkTable::new(fx.grammar.as_ref());
        let budget = (work.tree_work(&tree) / divisor).max(1);
        for granularity in [
            RegionGranularity::Adaptive { budget },
            RegionGranularity::Machines(machines),
        ] {
            let d = decompose_granular(&tree, &table, &work, granularity);
            assert_partition(&tree, &d)?;
            // Regions' work estimates cover the tree exactly.
            let covered: u64 = work.region_works(&tree, &d).iter().sum();
            prop_assert_eq!(covered, work.tree_work(&tree));

            for mode in [MachineMode::Combined, MachineMode::Dynamic] {
                let stores = pump_machines(&tree, &plans, &d, mode);
                assert_region_local_layout(&tree, &d, &stores)?;
                let order = shuffled_order(stores.len(), seed);
                let got = merge_stores(&tree, stores, &order);
                prop_assert_eq!(got.filled(), got.len(), "assembly fills every instance");
                for node in tree.node_ids() {
                    let sym = fx.grammar.prod(tree.node(node).prod).lhs;
                    for i in 0..fx.grammar.attr_count(sym) {
                        let attr = AttrId(i as u32);
                        prop_assert_eq!(
                            want.get(node, attr),
                            got.get(node, attr),
                            "{:?}/{:?} disagrees at {:?} attr {:?} ({} regions, order {:?})",
                            granularity, mode, node, attr, d.len(), order
                        );
                    }
                }
            }
        }
    }
}

/// Regression (promoted from the PR 4 review repro): phase-2 merging
/// must stay sound when an undersized region folds into a region with
/// a *higher* index — the renumbering shifts every later region down,
/// and the node map, region roots and partition must all survive it.
#[test]
fn phase2_merge_into_higher_index_region_keeps_partition_sound() {
    let mut g = GrammarBuilder::<i64>::new();
    let s = g.nonterminal("S");
    let e = g.nonterminal("E");
    let sv = g.synthesized(s, "v");
    let ev = g.synthesized(e, "v");
    g.mark_split(e, 2);

    let rootp = g.production("root", s, [e]);
    g.rule(rootp, (0, sv), [(1, ev)], |a| a[0]);
    let pair = g.production("pair", e, [e, e]);
    g.rule(pair, (0, ev), [(1, ev), (2, ev)], |a| a[0] + a[1]);
    let heavy = g.production("heavy", e, [e]);
    g.rule_with_cost(heavy, (0, ev), [(1, ev)], |a| a[0], 60);
    let light = g.production("light", e, [e]);
    g.rule(light, (0, ev), [(1, ev)], |a| a[0]);
    let leafp = g.production("leaf", e, []);
    g.rule(leafp, (0, ev), [], |_| 1);

    let gr = Arc::new(g.build(s).unwrap());
    let mut tb = TreeBuilder::new(&gr);
    // H1 = heavy(leaf): work 61.
    let hl = tb.leaf(leafp);
    let h1 = tb.node(heavy, [hl]);
    // T = light(light(light(leaf))): work 4.
    let mut t = tb.leaf(leafp);
    for _ in 0..3 {
        t = tb.node(light, [t]);
    }
    // X = pair(H1, T): work 66, with 45 light levels above X — shaped
    // so the undersized region carved at T merges into a region whose
    // index exceeds its own.
    let mut chain = tb.node(pair, [h1, t]);
    for _ in 0..45 {
        chain = tb.node(light, [chain]);
    }
    let root = tb.node(rootp, [chain]);
    let tree = Arc::new(tb.finish(root).unwrap());

    let table = SplitTable::new(gr.as_ref(), 1.0);
    let work = WorkTable::new(gr.as_ref());
    assert_eq!(work.tree_work(&tree), 112);

    let d = decompose_adaptive(&tree, &table, &work, 30);
    let total: usize = d.regions.iter().map(|r| r.local_size).sum();
    assert_eq!(total, tree.len(), "regions must partition the tree");
    for n in tree.node_ids() {
        assert!(
            (d.region(n) as usize) < d.len(),
            "out-of-range region id {} at {n:?}",
            d.region(n)
        );
    }
    for (i, r) in d.regions.iter().enumerate() {
        assert_eq!(
            d.region(r.root),
            i as RegionId,
            "region {i} root not owned by its region"
        );
    }
}

/// Checks the carving engine's per-node locals against their
/// definition, by a walk of every node's subtree: a node's local work
/// and size are those of the nodes of its subtree that its own region
/// owns.
fn assert_locals_are_the_definition<V: AttrValue>(
    tree: &ParseTree<V>,
    step: &CarveStep<'_>,
    work: &WorkTable,
) {
    for n in tree.node_ids() {
        let r = step.region_of[n.idx()];
        let (mut w, mut s) = (0u64, 0u32);
        for x in tree.subtree(n) {
            if step.region_of[x.idx()] == r {
                w += work.node_work(tree, x);
                s += 1;
            }
        }
        if let Some(local_work) = step.local_work {
            assert_eq!(local_work[n.idx()], w, "local work of {n:?}");
        }
        assert_eq!(step.local_size[n.idx()], s, "local size of {n:?}");
    }
}

/// Decomposes `tree` under `granularity`, checking the engine's locals
/// after every carve; returns the decomposition and the carve count.
fn traced_with_checked_locals<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    work: &WorkTable,
    granularity: RegionGranularity,
) -> (Decomposition, usize) {
    let mut carves = 0;
    let d = decompose_traced(tree, table, work, granularity, &mut |step| {
        carves += 1;
        let adaptive = matches!(granularity, RegionGranularity::Adaptive { .. });
        assert_eq!(step.local_work.is_some(), adaptive, "{granularity:?}");
        assert_locals_are_the_definition(tree, &step, work);
    });
    (d, carves)
}

/// The leaf regions' roots by the slot layout's definition: regions
/// without boundary children, in node order.
fn leaf_roots_by_boundary<V: AttrValue>(tree: &ParseTree<V>, d: &Decomposition) -> Vec<NodeId> {
    let mut roots: Vec<NodeId> = (0..d.len() as RegionId)
        .filter(|&r| boundary_children(tree, d, r).is_empty())
        .map(|r| d.regions[r as usize].root)
        .collect();
    roots.sort_unstable();
    roots
}

/// The points-only carve returns the leaf roots of the cut
/// `decompose_adaptive` builds, at `tree_work / div` for every `div`:
/// the memo points of a tree the pool leaves whole are a function of
/// these roots alone, so they are `memo_points(decompose_adaptive(..))`.
fn assert_points_only_path_matches<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    table: &SplitTable,
    work: &WorkTable,
    divisors: impl IntoIterator<Item = u64>,
) {
    let total = work.tree_work(tree);
    for div in divisors {
        let budget = (total / div).max(1);
        let d = decompose_adaptive(tree, table, work, budget);
        let want = leaf_roots_by_boundary(tree, &d);
        assert_eq!(d.leaf_roots(), want, "budget {budget}: built cut");
        assert_eq!(
            adaptive_leaf_roots(tree, table, work, budget),
            want,
            "budget {budget}: points-only carve over {} regions",
            d.len()
        );
    }
}

/// The Pascal programs the memo and the pool are measured on: the
/// paper's, the small smoke program and the `memo_iid`-shaped unit.
fn pascal_trees(seeds: std::ops::Range<u64>) -> Vec<Arc<ParseTree<paragram_pascal::PVal>>> {
    let compiler = Compiler::new();
    let mut configs = vec![GenConfig::paper(), GenConfig::small()];
    configs.extend(seeds.map(|seed| GenConfig {
        clusters: 3,
        procs_per_cluster: 2,
        stmts_per_proc: 4,
        nesting: 1,
        seed,
        template_clusters: 0,
    }));
    configs
        .iter()
        .map(|cfg| compiler.tree_from_source(&generate(cfg)).unwrap())
        .collect()
}

const DIVISORS: [u64; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

proptest! {
    /// After every carve, under both stopping rules, every node's
    /// local measure and size — which a carve keeps current by
    /// subtracting its share from its in-region ancestors — equal their
    /// definition.
    #[test]
    fn incremental_locals_equal_their_definition_after_every_carve(
        shape in prop::collection::vec(0u8..6, 1..16),
        divisor in prop::sample::select(vec![2u64, 3, 6, 12, 24]),
        machines in 2usize..6,
        scale in prop::sample::select(vec![0.5f64, 1.0, 4.0]),
    ) {
        let fx = fixture();
        let tree = build_tree(&fx, &shape);
        let table = SplitTable::new(fx.grammar.as_ref(), scale);
        let work = WorkTable::new(fx.grammar.as_ref());
        let budget = (work.tree_work(&tree) / divisor).max(1);
        for granularity in [
            RegionGranularity::Adaptive { budget },
            RegionGranularity::Machines(machines),
        ] {
            let (traced, _) = traced_with_checked_locals(&tree, &table, &work, granularity);
            let plain = decompose_granular(&tree, &table, &work, granularity);
            prop_assert_eq!(&traced.region_of, &plain.region_of);
            prop_assert_eq!(&traced.regions, &plain.regions);
        }
    }

    /// The points-only carve equals the built cut's leaf roots on comb
    /// trees over a sweep of budgets.
    #[test]
    fn points_only_carve_matches_the_built_cut_on_combs(
        shape in prop::collection::vec(0u8..6, 1..20),
        scale in prop::sample::select(vec![0.5f64, 1.0, 4.0]),
    ) {
        let fx = fixture();
        let tree = build_tree(&fx, &shape);
        let table = SplitTable::new(fx.grammar.as_ref(), scale);
        let work = WorkTable::new(fx.grammar.as_ref());
        assert_points_only_path_matches(&tree, &table, &work, DIVISORS);
    }
}

/// The points-only carve equals the built cut's leaf roots on the
/// paper, small and memo-shaped Pascal programs, and the engine's
/// locals equal their definition after every carve of the memo-shaped
/// one, under both stopping rules.
#[test]
fn points_only_carve_matches_the_built_cut_on_pascal_trees() {
    for tree in pascal_trees(1..3) {
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        assert_points_only_path_matches(&tree, &table, &work, DIVISORS);
    }
    let tree = pascal_trees(7..8).pop().unwrap();
    let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
    let work = WorkTable::new(tree.grammar().as_ref());
    let budget = work.tree_work(&tree) / 16;
    for granularity in [
        RegionGranularity::Adaptive { budget },
        RegionGranularity::Machines(5),
    ] {
        let (d, carves) = traced_with_checked_locals(&tree, &table, &work, granularity);
        assert!(carves > 0 && d.len() > 1, "{granularity:?} cuts the tree");
    }
}

/// Many-case variant of the two checks above: 64 memo-shaped programs
/// and a 120-step budget sweep, locals checked on every one.
#[test]
#[ignore = "many cases; CI runs it with --ignored"]
fn points_only_carve_and_locals_hold_on_many_pascal_trees() {
    let sweep: Vec<u64> = (1..=120).collect();
    for tree in pascal_trees(0..64) {
        let table = SplitTable::new(tree.grammar().as_ref(), 1.0);
        let work = WorkTable::new(tree.grammar().as_ref());
        assert_points_only_path_matches(&tree, &table, &work, sweep.iter().copied());
        if tree.len() > 5_000 {
            continue; // the paper and small programs: the walk is quadratic
        }
        for div in [4, 16, 64] {
            let budget = (work.tree_work(&tree) / div).max(1);
            for granularity in [
                RegionGranularity::Adaptive { budget },
                RegionGranularity::Machines(div as usize),
            ] {
                traced_with_checked_locals(&tree, &table, &work, granularity);
            }
        }
    }
}
