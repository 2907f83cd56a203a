//! What a region machine charges must never move.
//!
//! The simulator prices building a machine from its node count and the
//! size of its dependency graph (`Driver::charge_build`), so every
//! virtual time in the figures rests on these counts. They are pinned
//! here, machine by machine, for the paper tree under the paper's
//! five-way cut and an adaptive one, in combined and in purely dynamic
//! mode. The generator is seeded, so the tree is the same on every
//! runner. A dynamic machine over the undecomposed tree is checked
//! against `dynamic_eval`'s whole-tree graph.

use paragram_core::eval::{dynamic_eval, Machine, MachineMode, MachineScratch};
use paragram_core::split::{
    decompose_granular, Decomposition, RegionGranularity, RegionId, SplitTable,
};
use paragram_core::tree::ParseTree;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{Compiler, PVal};
use std::sync::Arc;

/// The tree of the program `cfg` generates.
fn tree(compiler: &Compiler, cfg: &GenConfig) -> Arc<ParseTree<PVal>> {
    compiler
        .tree_from_source(&generate(cfg))
        .expect("generated source parses")
}

/// `(local_nodes, graph_nodes, graph_edges)` of every region's machine,
/// under the five-way cut and under an adaptive cut of an eighth of the
/// tree's work, each in `mode`.
fn charged_counts(mode: MachineMode) -> [Vec<(usize, usize, usize)>; 2] {
    let compiler = Compiler::new();
    let plan = compiler.evals.plan();
    let tree = tree(&compiler, &GenConfig::paper());
    let table = SplitTable::new(plan.grammar().as_ref(), 1.0);
    let budget = plan.tree_work(&tree) / 8;
    [
        RegionGranularity::Machines(5),
        RegionGranularity::Adaptive { budget },
    ]
    .map(|granularity| {
        let d = decompose_granular(&tree, &table, plan.work_table(), granularity);
        (0..d.len() as RegionId)
            .map(|r| {
                let m = Machine::from_plan(plan, &tree, &d, r, mode, MachineScratch::new());
                let (nodes, edges) = m.graph_size();
                (m.local_nodes(), nodes, edges)
            })
            .collect()
    })
}

#[test]
fn combined_machines_charge_their_pinned_counts() {
    let [machines, adaptive] = charged_counts(MachineMode::Combined);
    assert_eq!(
        machines,
        [
            (5178, 153, 201),
            (5154, 2, 5),
            (5069, 2, 5),
            (5068, 2, 5),
            (5224, 2, 5),
        ],
        "Machines(5): (local_nodes, graph_nodes, graph_edges) per region"
    );
    assert_eq!(
        adaptive,
        [
            (1838, 159, 212),
            (3346, 2, 5),
            (3355, 2, 5),
            (3373, 2, 5),
            (3411, 2, 5),
            (3333, 162, 221),
            (2996, 2, 5),
            (4041, 174, 235),
        ],
        "adaptive: (local_nodes, graph_nodes, graph_edges) per region"
    );
}

#[test]
fn dynamic_machines_charge_their_pinned_counts() {
    let [machines, adaptive] = charged_counts(MachineMode::Dynamic);
    assert_eq!(
        machines,
        [
            (5178, 28027, 33662),
            (5154, 27920, 33609),
            (5069, 27479, 32878),
            (5068, 27457, 33014),
            (5224, 28238, 33889),
        ],
        "Machines(5): (local_nodes, graph_nodes, graph_edges) per region"
    );
    assert_eq!(
        adaptive,
        [
            (1838, 9899, 11925),
            (3346, 18150, 21777),
            (3355, 18200, 21847),
            (3373, 18284, 22008),
            (3411, 18490, 22113),
            (3333, 18078, 21686),
            (2996, 16229, 19471),
            (4041, 21791, 26225),
        ],
        "adaptive: (local_nodes, graph_nodes, graph_edges) per region"
    );
}

/// A dynamic machine over the undecomposed tree builds one task per
/// rule application — its single region walk neither duplicates nor
/// drops one — and exactly `dynamic_eval`'s graph, nodes and edges.
#[test]
fn a_whole_tree_dynamic_machine_builds_dynamic_evals_graph() {
    let compiler = Compiler::new();
    let plan = compiler.evals.plan();
    for (label, cfg) in [("small", GenConfig::small()), ("paper", GenConfig::paper())] {
        let tree = tree(&compiler, &cfg);
        let g = tree.grammar();
        let rule_applications: usize = tree
            .node_ids()
            .map(|n| g.prod(tree.node(n).prod).rules.len())
            .sum();
        let whole = Decomposition::whole(&tree);
        let m = Machine::from_plan(
            plan,
            &tree,
            &whole,
            0,
            MachineMode::Dynamic,
            MachineScratch::new(),
        );
        let (nodes, edges) = m.graph_size();
        assert_eq!(nodes, rule_applications, "{label}: one task per rule");
        let (_, stats) = dynamic_eval(&tree).unwrap();
        assert_eq!(
            (nodes, edges),
            (stats.graph_nodes, stats.graph_edges),
            "{label}: dynamic_eval's graph"
        );
    }
}
