//! Cross-crate integration tests: the full parallel-compilation
//! pipeline — Pascal source → attributed tree → decomposition →
//! simulated/threaded parallel evaluation → VAX assembly → execution —
//! must agree with sequential evaluation and with the direct baseline
//! compiler everywhere.

use paragram::core::eval::{dynamic_eval, static_eval, MachineMode};
use paragram::core::parallel::pool::{PoolConfig, WorkerPool};
use paragram::core::parallel::sim::{run_sim, SimConfig};
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::{direct, parser, run_asm, Compiler, PVal};
use std::sync::Arc;

fn workload(seed: u64) -> (Compiler, String) {
    let cfg = GenConfig {
        clusters: 3,
        procs_per_cluster: 4,
        stmts_per_proc: 8,
        nesting: 3,
        seed,
        template_clusters: 0,
    };
    (Compiler::new(), generate(&cfg))
}

#[test]
fn sequential_evaluators_agree_on_generated_workload() {
    let (compiler, src) = workload(11);
    let tree = compiler.tree_from_source(&src).unwrap();
    let plans = compiler.evals.plans().unwrap();
    let (s_store, s_stats) = static_eval(&tree, plans).unwrap();
    let (d_store, d_stats) = dynamic_eval(&tree).unwrap();
    let a = compiler.output_from_store(&tree, &s_store, s_stats);
    let b = compiler.output_from_store(&tree, &d_store, d_stats);
    assert!(a.errors.is_empty());
    assert_eq!(a.asm, b.asm);
    assert_eq!(a.errors, b.errors);
}

#[test]
fn simulated_parallel_compilation_produces_identical_program() {
    let (compiler, src) = workload(12);
    let tree = compiler.tree_from_source(&src).unwrap();
    let plans = Arc::clone(compiler.evals.plans().unwrap());
    let (store, stats) = static_eval(&tree, &plans).unwrap();
    let sequential = compiler.output_from_store(&tree, &store, stats);
    let want = run_asm(&sequential.asm).unwrap();

    for machines in [2, 3, 5] {
        for mode in [MachineMode::Combined, MachineMode::Dynamic] {
            let mut cfg = SimConfig::paper(machines);
            cfg.mode = mode;
            let report = run_sim(&tree, Some(&plans), &cfg);
            let code = report
                .root_values
                .iter()
                .find(|(a, _)| *a == compiler.pg.s_code)
                .map(|(_, v)| v.code().to_string())
                .expect("code attribute at parser");
            assert_eq!(
                run_asm(&code).unwrap(),
                want,
                "machines={machines} mode={mode:?}"
            );
        }
    }
}

#[test]
fn threaded_parallel_compilation_produces_identical_program() {
    let (compiler, src) = workload(13);
    let tree = compiler.tree_from_source(&src).unwrap();
    let plans = Arc::clone(compiler.evals.plans().unwrap());
    let (store, stats) = static_eval(&tree, &plans).unwrap();
    let sequential = compiler.output_from_store(&tree, &store, stats);
    let want = run_asm(&sequential.asm).unwrap();

    for machines in [2, 4] {
        let report = WorkerPool::new(compiler.evals.plan(), PoolConfig::workers(machines))
            .eval(&tree)
            .unwrap();
        let code = report
            .root_values
            .iter()
            .find(|(a, _)| *a == compiler.pg.s_code)
            .map(|(_, v)| v.code().to_string())
            .expect("code attribute");
        assert_eq!(run_asm(&code).unwrap(), want, "machines={machines}");
    }
}

#[test]
fn parallel_store_matches_sequential_store_instance_by_instance() {
    let (compiler, src) = workload(14);
    let tree = compiler.tree_from_source(&src).unwrap();
    let plans = Arc::clone(compiler.evals.plans().unwrap());
    let (seq, _) = static_eval(&tree, &plans).unwrap();
    let report = WorkerPool::new(compiler.evals.plan(), PoolConfig::workers(3))
        .eval(&tree)
        .unwrap();
    assert_eq!(report.store.filled(), seq.filled());
    let g = tree.grammar();
    for node in tree.node_ids() {
        let sym = g.prod(tree.node(node).prod).lhs;
        for a in 0..g.attr_count(sym) {
            let attr = paragram::core::grammar::AttrId(a as u32);
            let x = seq.get(node, attr);
            let y = report.store.get(node, attr);
            match (x, y) {
                (Some(PVal::Code(cx)), Some(PVal::Code(cy))) => {
                    assert_eq!(cx.len(), cy.len(), "{node:?}.{attr:?}")
                }
                _ => assert_eq!(x, y, "{node:?}.{attr:?}"),
            }
        }
    }
}

#[test]
fn direct_and_ag_compilers_agree_across_seeds() {
    for seed in [21, 22, 23] {
        let (compiler, src) = workload(seed);
        let ag = compiler.compile(&src).unwrap();
        assert!(ag.errors.is_empty(), "{:?}", ag.errors);
        let d = direct::compile_direct(&parser::parse(&src).unwrap());
        assert!(d.errors.is_empty());
        assert_eq!(
            run_asm(&ag.asm).unwrap(),
            run_asm(&d.asm).unwrap(),
            "seed {seed}"
        );
    }
}

#[test]
fn peephole_optimized_parallel_output_still_runs_correctly() {
    let (compiler, src) = workload(31);
    let out = compiler.compile(&src).unwrap();
    let want = run_asm(&out.asm).unwrap();
    let (opt, stats) = paragram::pascal::optimize_asm(&out.asm).unwrap();
    assert!(stats.removed > 0);
    assert_eq!(run_asm(&opt).unwrap(), want);
}

#[test]
fn spec_language_parallel_evaluation_matches_sequential() {
    use paragram::spec::SpecLang;
    let lang = SpecLang::expression_language();
    // Build a deep expression with many let blocks so splitting kicks in
    // (block is %split with a large min size; scale it down).
    let mut input = String::new();
    for i in 0..40 {
        input.push_str(&format!("let v{i} = {i} in "));
    }
    input.push('1');
    for i in 0..40 {
        input.push_str(&format!(" + v{i} ni"));
    }
    let sequential = lang.eval_str(&input).unwrap();
    let tree = lang.parse_str(&input).unwrap();
    let mut cfg = SimConfig::paper(3);
    cfg.min_size_scale = 0.001; // allow small blocks to split
    let report = run_sim(&tree, lang.evals().plans(), &cfg);
    assert!(report.regions > 1, "input failed to split");
    let parallel = &report.root_values[0].1;
    assert_eq!(parallel, &sequential);
}

#[test]
fn semantic_errors_survive_parallel_evaluation() {
    let compiler = Compiler::new();
    let src = "program p;\nprocedure q(x: integer);\nbegin y := x end;\nbegin q(true); r end.";
    let tree = compiler.tree_from_source(src).unwrap();
    let plans = Arc::clone(compiler.evals.plans().unwrap());
    let report = run_sim(&tree, Some(&plans), &SimConfig::paper(2));
    let errs = report
        .root_values
        .iter()
        .find(|(a, _)| *a == compiler.pg.s_errs)
        .map(|(_, v)| v.as_errs().to_vec())
        .expect("error attribute");
    assert_eq!(errs.len(), 3, "{errs:?}");
}
