//! Cross-evaluator equivalence property: every evaluator the crate
//! ships — dynamic (Figure 1), static (Figures 2–3), the combined
//! machine engine (Figure 4) in both modes, and the real-thread
//! parallel runtime — must fill the attribute store with *identical*
//! values on the same tree, for arbitrary tree shapes and machine
//! counts, with priority attributes in play (§4.3).
//!
//! This guards the `Args<'_, V>` zero-allocation calling convention and
//! the CSR dependency-graph layout: any gather-order, wake-up-order or
//! argument-aliasing bug in one evaluator breaks agreement with the
//! others.

use paragram_core::analysis::{compute_plans, Plans};
use paragram_core::eval::{
    dynamic_eval, static_eval, static_eval_segments, static_eval_with_programs, AttrMsg, EvalPlan,
    Machine, MachineMode, SendTarget,
};
use paragram_core::grammar::{AttrId, Grammar, GrammarBuilder, ProdId};
use paragram_core::parallel::pool::{PoolConfig, WorkerPool, MIN_REGION_WORK};
use paragram_core::split::{decompose, Decomposition, RegionId, SplitConfig};
use paragram_core::tree::{AttrStore, ParseTree, TreeBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// The paper's compiler shape over i64: decls flow up, a *priority*
/// env flows down (the symbol-table chain §4.3 serves first), code
/// flows up — with splittable statement lists and off-spine bodies.
/// Rules are a deliberate mix of direct-call-table entries
/// (`rule_direct`) and boxed closures, so every evaluator exercises
/// both dispatch paths of the compiled visit programs.
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
    g.rule_direct(top, (1, env), [(1, decls)], |a| a[0].wrapping_mul(31) + 1);
    g.rule(top, (0, out), [(1, code)], |a| a[0]);
    let cons = g.production("cons", l, [b, l]);
    g.rule_direct(cons, (0, decls), [(2, decls)], |a| a[0] + 1);
    g.rule(cons, (2, env), [(0, env)], |a| a[0].wrapping_add(3));
    g.rule_direct(cons, (1, benv), [(0, env)], |a| a[0] ^ 0x55);
    // One spine node carries a region's worth of work under the thread
    // pool's hand-off floor, so a pool of `n` workers still cuts these
    // small trees into up to `n` regions instead of leaving them whole.
    // Rule costs feed work estimates (and simulated time), never values.
    g.rule_with_cost(
        cons,
        (0, code),
        [(1, bcode), (2, code)],
        |a| a[0].wrapping_mul(1_000_003).wrapping_add(a[1]),
        MIN_REGION_WORK,
    );
    let nil = g.production("nil", l, []);
    g.rule_direct(nil, (0, decls), [], |_| 0);
    g.rule(nil, (0, code), [(0, env)], |a| a[0]);
    let wrap = g.production("wrap", b, [b]);
    g.rule(wrap, (1, benv), [(0, benv)], |a| a[0].wrapping_add(7));
    g.rule_direct(wrap, (0, bcode), [(1, bcode), (0, benv)], |a| {
        a[0].wrapping_mul(17) ^ a[1]
    });
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

/// Runs all machines of a decomposition to completion with a
/// synchronous round-robin message pump; returns the merged store.
fn pump_machines(
    tree: &Arc<ParseTree<i64>>,
    plans: &Arc<Plans>,
    decomp: &Decomposition,
    mode: MachineMode,
) -> AttrStore<i64> {
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
    // Sparse assembly through the decomposition's slot layout: each
    // region's owned span fills disjoint whole-tree instances.
    let mut merged = AttrStore::new(tree);
    for m in machines {
        merged.absorb_region(tree, m.into_store());
    }
    merged
}

fn assert_stores_equal(
    g: &Arc<Grammar<i64>>,
    tree: &ParseTree<i64>,
    want: &AttrStore<i64>,
    got: &AttrStore<i64>,
    label: &str,
) -> Result<(), TestCaseError> {
    for node in tree.node_ids() {
        let sym = g.prod(tree.node(node).prod).lhs;
        for i in 0..g.attr_count(sym) {
            let attr = AttrId(i as u32);
            prop_assert_eq!(
                want.get(node, attr),
                got.get(node, attr),
                "{} disagrees at {:?} attr {:?}",
                label,
                node,
                attr
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// dynamic == static == combined machines == dynamic machines ==
    /// threaded runtime, everywhere, for random shapes, machine counts
    /// and split granularities.
    #[test]
    fn all_evaluators_fill_identical_stores(
        shape in prop::collection::vec(0u8..6, 1..16),
        machines in 1usize..5,
        scale in prop::sample::select(vec![0.5f64, 1.0, 4.0]),
    ) {
        let fx = fixture();
        let tree = build_tree(&fx, &shape);
        let plans = Arc::new(compute_plans(fx.grammar.as_ref()).unwrap());

        let (reference, dstats) = dynamic_eval(&tree).unwrap();
        prop_assert_eq!(dstats.graph_nodes, fx.grammar.rule_count_for_tree(&tree));

        let (stat, _) = static_eval(&tree, &plans).unwrap();
        assert_stores_equal(&fx.grammar, &tree, &reference, &stat, "static")?;

        // The compiled-program interpreter and the reference segment
        // walker must agree opcode-for-step.
        let (seg, _) = static_eval_segments(&tree, &plans).unwrap();
        assert_stores_equal(&fx.grammar, &tree, &reference, &seg, "static segments")?;

        let decomp = decompose(&tree, SplitConfig {
            target_regions: machines,
            min_size_scale: scale,
        });
        let combined = pump_machines(&tree, &plans, &decomp, MachineMode::Combined);
        assert_stores_equal(&fx.grammar, &tree, &reference, &combined, "combined machines")?;

        let dynamic_m = pump_machines(&tree, &plans, &decomp, MachineMode::Dynamic);
        assert_stores_equal(&fx.grammar, &tree, &reference, &dynamic_m, "dynamic machines")?;

        let plan = Arc::new(EvalPlan::from_parts(&fx.grammar, Some(plans), None));
        let report = WorkerPool::new(&plan, PoolConfig::workers(machines))
            .eval(&tree)
            .unwrap();
        assert_stores_equal(&fx.grammar, &tree, &reference, &report.store, "pool")?;
    }

    /// Subtree hashing is structural: within and across generated
    /// trees, two subtree hashes are equal exactly when the subtrees
    /// are structurally equal (same productions, same token values,
    /// recursively) — collision-free on this fixture set.
    #[test]
    fn subtree_hash_equality_is_structural_equality(
        shape_a in prop::collection::vec(0u8..6, 1..12),
        shape_b in prop::collection::vec(0u8..6, 1..12),
    ) {
        let fx = fixture();
        let a = build_tree(&fx, &shape_a);
        let b = build_tree(&fx, &shape_b);
        // Root hashes agree iff the shapes (⇔ the trees) agree.
        let ha = a.subtree_hash(a.root()).expect("i64 tokens hash exactly");
        let hb = b.subtree_hash(b.root()).expect("i64 tokens hash exactly");
        prop_assert_eq!(shape_a == shape_b, ha == hb,
            "root hashes {} vs {} for shapes {:?} / {:?}", ha, hb, shape_a, shape_b);
        // Node by node across both trees: hash equality must coincide
        // with structural subtree equality.
        let subtree_sig = |t: &ParseTree<i64>, n| {
            t.subtree(n)
                .map(|m| t.node(m).prod)
                .collect::<Vec<_>>()
        };
        for (t1, t2) in [(&a, &a), (&a, &b)] {
            for n1 in t1.node_ids() {
                for n2 in t2.node_ids() {
                    let h1 = t1.subtree_hash(n1).unwrap();
                    let h2 = t2.subtree_hash(n2).unwrap();
                    // Productions in preorder pin structure (the
                    // fixture has no token values to differ on).
                    prop_assert_eq!(
                        subtree_sig(t1, n1) == subtree_sig(t2, n2),
                        h1 == h2,
                        "subtree hash/structure mismatch at {:?}/{:?}", n1, n2
                    );
                }
            }
        }
    }

    /// The memo cache is invisible in the values: a pool with the cache
    /// on — cold pass, then a warm pass replaying cached spans — fills
    /// the store identically to the dynamic reference and to a memo-off
    /// pool, in both machine modes (the plan's own, and dynamic on the
    /// same grammar's plan without visit programs), for arbitrary
    /// shapes and machine counts (each (shape, machines) draw exercises
    /// a different region/schedule interleaving).
    #[test]
    fn memo_on_equals_memo_off_across_modes_and_schedules(
        shape in prop::collection::vec(0u8..6, 1..16),
        machines in 1usize..5,
    ) {
        let fx = fixture();
        let tree = build_tree(&fx, &shape);
        let (reference, _) = dynamic_eval(&tree).unwrap();
        for plan in [
            EvalPlan::analyze(&fx.grammar),
            EvalPlan::from_parts(&fx.grammar, None, None),
        ] {
            let plan = Arc::new(plan);
            let mode = plan.best_mode();
            let off = PoolConfig::workers(machines);
            let on = PoolConfig::workers(machines).with_memo_capacity(1 << 20);
            let mut off_pool = WorkerPool::new(&plan, off);
            let off_report = off_pool.eval(&tree).unwrap();
            assert_stores_equal(
                &fx.grammar, &tree, &reference, &off_report.store,
                &format!("{mode:?} memo-off"),
            )?;
            let mut on_pool = WorkerPool::new(&plan, on);
            for round in 0..2 {
                let r = on_pool.eval(&tree).unwrap();
                assert_stores_equal(
                    &fx.grammar, &tree, &reference, &r.store,
                    &format!("{mode:?} memo-on round {round}"),
                )?;
                prop_assert_eq!(
                    &r.root_values, &off_report.root_values,
                    "{:?} memo-on round {} root values", mode, round
                );
            }
        }
    }
}

/// Helper used by the property above (kept on the grammar so the count
/// stays in sync with rule additions).
trait RuleCount {
    fn rule_count_for_tree(&self, tree: &ParseTree<i64>) -> usize;
}

impl RuleCount for Grammar<i64> {
    fn rule_count_for_tree(&self, tree: &ParseTree<i64>) -> usize {
        tree.node_ids()
            .map(|n| self.prod(tree.node(n).prod).rules.len())
            .sum()
    }
}

/// The direct-call table is an optimisation, never a semantics change:
/// rules absent from it (boxed closures) fall back to `Arc<dyn Fn>`
/// dispatch inside the same compiled program, and the mixed grammar
/// still agrees with the dynamic reference everywhere.
#[test]
fn boxed_rules_fall_back_and_agree_with_direct_dispatch() {
    let fx = fixture();
    let tree = build_tree(&fx, &[2, 4, 0, 1, 3]);
    let plan = EvalPlan::analyze(&fx.grammar);
    let programs = plan.programs().expect("fixture grammar is l-ordered");

    // The fixture deliberately mixes registration styles; the compiled
    // rule table must mirror the grammar's `direct` slots exactly.
    let direct_in_grammar: usize = fx
        .grammar
        .prods()
        .iter()
        .flat_map(|p| &p.rules)
        .filter(|r| r.direct.is_some())
        .count();
    assert_eq!(programs.direct_rule_count(), direct_in_grammar);
    assert!(
        programs.direct_rule_count() > 0,
        "fixture should exercise the direct path"
    );
    assert!(
        programs.direct_rule_count() < programs.rule_count(),
        "fixture should exercise the boxed fallback path"
    );

    let (reference, _) = dynamic_eval(&tree).unwrap();
    let (via_programs, _) =
        static_eval_with_programs(&tree, plan.plans().unwrap(), programs).unwrap();
    for node in tree.node_ids() {
        let sym = fx.grammar.prod(tree.node(node).prod).lhs;
        for i in 0..fx.grammar.attr_count(sym) {
            let attr = AttrId(i as u32);
            assert_eq!(
                reference.get(node, attr),
                via_programs.get(node, attr),
                "mixed direct/boxed program disagrees at {node:?} {attr:?}"
            );
        }
    }
}

/// Priority attributes must not change results, only order — verified
/// against an identical grammar without priority markings.
#[test]
fn priority_markings_do_not_change_values() {
    let fx = fixture();
    let tree = build_tree(&fx, &[3, 0, 5, 2, 1]);
    let (with_priority, _) = dynamic_eval(&tree).unwrap();

    // Same grammar, no priority flags.
    let mut g = GrammarBuilder::<i64>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("L");
    let b = g.nonterminal("B");
    let _out = g.synthesized(s, "out");
    let decls = g.synthesized(l, "decls");
    let env = g.inherited(l, "env");
    let code = g.synthesized(l, "code");
    let benv = g.inherited(b, "env");
    let bcode = g.synthesized(b, "code");
    let top = g.production("top", s, [l]);
    g.rule(top, (1, env), [(1, decls)], |a| a[0].wrapping_mul(31) + 1);
    g.rule(top, (0, _out), [(1, code)], |a| a[0]);
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
    g.rule(wrap, (0, bcode), [(1, bcode), (0, benv)], |a| {
        a[0].wrapping_mul(17) ^ a[1]
    });
    let unit = g.production("unit", b, []);
    g.rule(unit, (0, bcode), [(0, benv)], |a| a[0].wrapping_mul(13) + 1);
    let plain = Fixture {
        grammar: Arc::new(g.build(s).unwrap()),
        top,
        cons,
        nil,
        wrap,
        unit,
    };
    let plain_tree = build_tree(&plain, &[3, 0, 5, 2, 1]);
    let (without_priority, _) = dynamic_eval(&plain_tree).unwrap();

    for node in plain_tree.node_ids() {
        let sym = plain.grammar.prod(plain_tree.node(node).prod).lhs;
        for i in 0..plain.grammar.attr_count(sym) {
            let attr = AttrId(i as u32);
            assert_eq!(
                with_priority.get(node, attr),
                without_priority.get(node, attr),
                "priority changed a value at {node:?} {attr:?}"
            );
        }
    }
}
