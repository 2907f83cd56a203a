//! Property-based tests of the central invariant: every evaluator —
//! dynamic, static, combined (any decomposition), threaded — computes
//! the same attribute values on the same tree.

use paragram::core::analysis::compute_plans;
use paragram::core::eval::{dynamic_eval, static_eval, EvalPlan};
use paragram::core::grammar::{AttrId, Grammar, GrammarBuilder};
use paragram::core::parallel::pool::{PoolConfig, WorkerPool, MIN_REGION_WORK};
use paragram::core::split::{decompose, SplitConfig};
use paragram::core::tree::{ParseTree, TreeBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// A two-pass grammar over i64 (decls up, env down, code up) with a
/// splittable list and item bodies — the paper's shape, scalar domain.
struct G {
    grammar: Arc<Grammar<i64>>,
    cons: paragram::core::grammar::ProdId,
    nil: paragram::core::grammar::ProdId,
    wrap: paragram::core::grammar::ProdId,
    unit: paragram::core::grammar::ProdId,
    top: paragram::core::grammar::ProdId,
}

fn fixture() -> G {
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

    let top = g.production("top", s, [l]);
    g.rule(top, (1, env), [(1, decls)], |a| a[0] * 7 + 1);
    g.rule(top, (0, out), [(1, code)], |a| a[0]);
    let cons = g.production("cons", l, [b, l]);
    g.rule(cons, (0, decls), [(2, decls)], |a| a[0] + 1);
    g.rule(cons, (2, env), [(0, env)], |a| a[0].wrapping_add(3));
    g.rule(cons, (1, benv), [(0, env)], |a| a[0]);
    // One spine node carries a region's worth of work under the thread
    // pool's hand-off floor, so a pool of `n` workers still cuts these
    // small trees into up to `n` regions instead of leaving them whole.
    // Rule costs feed work estimates (and simulated time), never values.
    g.rule_with_cost(
        cons,
        (0, code),
        [(1, bcode), (2, code)],
        |a| a[0].wrapping_mul(31).wrapping_add(a[1]),
        MIN_REGION_WORK,
    );
    let nil = g.production("nil", l, []);
    g.rule(nil, (0, decls), [], |_| 0);
    g.rule(nil, (0, code), [(0, env)], |a| a[0]);
    let wrap = g.production("wrap", b, [b]);
    g.rule(wrap, (1, benv), [(0, benv)], |a| a[0].wrapping_add(5));
    g.rule(wrap, (0, bcode), [(1, bcode), (0, benv)], |a| {
        a[0].wrapping_mul(17) ^ a[1]
    });
    let unit = g.production("unit", b, []);
    g.rule(unit, (0, bcode), [(0, benv)], |a| a[0].wrapping_mul(13));
    G {
        grammar: Arc::new(g.build(s).unwrap()),
        cons,
        nil,
        wrap,
        unit,
        top,
    }
}

/// Builds a tree from a shape description: one item per entry with the
/// given body depth.
fn build_tree(g: &G, shape: &[u8]) -> Arc<ParseTree<i64>> {
    let mut tb = TreeBuilder::new(&g.grammar);
    let mut tail = tb.leaf(g.nil);
    for &depth in shape {
        let mut body = tb.leaf(g.unit);
        for _ in 0..depth {
            body = tb.node(g.wrap, [body]);
        }
        tail = tb.node(g.cons, [body, tail]);
    }
    let root = tb.node(g.top, [tail]);
    Arc::new(tb.finish(root).unwrap())
}

fn all_attrs_equal(
    g: &Arc<Grammar<i64>>,
    tree: &ParseTree<i64>,
    a: &paragram::core::tree::AttrStore<i64>,
    b: &paragram::core::tree::AttrStore<i64>,
) -> Result<(), TestCaseError> {
    for node in tree.node_ids() {
        let sym = g.prod(tree.node(node).prod).lhs;
        for i in 0..g.attr_count(sym) {
            let attr = AttrId(i as u32);
            prop_assert_eq!(a.get(node, attr), b.get(node, attr), "at {:?}", node);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// dynamic == static on arbitrary tree shapes.
    #[test]
    fn dynamic_equals_static(shape in prop::collection::vec(0u8..8, 1..24)) {
        let g = fixture();
        let tree = build_tree(&g, &shape);
        let plans = compute_plans(g.grammar.as_ref()).unwrap();
        let (d, _) = dynamic_eval(&tree).unwrap();
        let (s, _) = static_eval(&tree, &plans).unwrap();
        all_attrs_equal(&g.grammar, &tree, &d, &s)?;
    }

    /// Threaded combined evaluation with arbitrary machine counts and
    /// granularities — the default cut, or regions of an adaptive
    /// budget — matches the dynamic reference everywhere.
    #[test]
    fn parallel_equals_dynamic(
        shape in prop::collection::vec(0u8..8, 2..24),
        machines in 1usize..6,
        adaptive_budget in prop::sample::select(vec![
            None,
            Some(MIN_REGION_WORK),
            Some(4 * MIN_REGION_WORK),
        ]),
    ) {
        let g = fixture();
        let tree = build_tree(&g, &shape);
        let plans = Arc::new(compute_plans(g.grammar.as_ref()).unwrap());
        let plan = Arc::new(EvalPlan::from_parts(&g.grammar, Some(plans), None));
        let (d, _) = dynamic_eval(&tree).unwrap();
        let config = PoolConfig {
            adaptive_budget,
            ..PoolConfig::workers(machines)
        };
        let report = WorkerPool::new(&plan, config).eval(&tree).unwrap();
        all_attrs_equal(&g.grammar, &tree, &d, &report.store)?;
    }

    /// Decompositions always partition the tree, whatever the target.
    #[test]
    fn decomposition_partitions(
        shape in prop::collection::vec(0u8..6, 1..30),
        machines in 1usize..8,
    ) {
        let g = fixture();
        let tree = build_tree(&g, &shape);
        let d = decompose(&tree, SplitConfig::machines(machines));
        let total: usize = d.regions.iter().map(|r| r.local_size).sum();
        prop_assert_eq!(total, tree.len());
        prop_assert!(d.len() <= machines.max(1));
        // Every region root's parent lives in the recorded parent region.
        for (i, r) in d.regions.iter().enumerate().skip(1) {
            let (p, _) = tree.node(r.root).parent.expect("non-root region");
            prop_assert_eq!(d.region(p), r.parent.unwrap(), "region {}", i);
        }
    }
}

// Random Pascal programs: the AG compiler (static and dynamic) and the
// direct compiler must agree behaviourally.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_pascal_programs_agree(seed in 0u64..1000) {
        use paragram::pascal::generator::{generate, GenConfig};
        let cfg = GenConfig {
            clusters: 2,
            procs_per_cluster: 2,
            stmts_per_proc: 5,
            nesting: 2,
            seed,
            template_clusters: 0,
        };
        let src = generate(&cfg);
        let compiler = paragram::pascal::Compiler::new();
        let ag = compiler.compile(&src).unwrap();
        prop_assert!(ag.errors.is_empty());
        let dynamic = compiler.compile_dynamic(&src).unwrap();
        prop_assert_eq!(&ag.asm, &dynamic.asm);
        let direct = paragram::pascal::direct::compile_direct(
            &paragram::pascal::parser::parse(&src).unwrap(),
        );
        prop_assert!(direct.errors.is_empty());
        let a = paragram::pascal::run_asm(&ag.asm).unwrap();
        let b = paragram::pascal::run_asm(&direct.asm).unwrap();
        prop_assert_eq!(a, b);
    }
}
