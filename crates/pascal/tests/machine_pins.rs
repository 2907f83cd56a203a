//! What a region machine charges must never move.
//!
//! The simulator prices building a machine from its node count and the
//! size of its dependency graph (`Driver::charge_build`), so every
//! virtual time in the figures rests on these counts. They are pinned
//! here, machine by machine, for the paper tree under the paper's
//! five-way cut and an adaptive one, in combined and in purely dynamic
//! mode. The generator is seeded, so the tree is the same on every
//! runner.

use paragram_core::eval::{Machine, MachineMode, MachineScratch};
use paragram_core::split::{decompose_granular, RegionGranularity, RegionId, SplitTable};
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{agtree, parser, Compiler};
use std::sync::Arc;

/// `(local_nodes, graph_nodes, graph_edges)` of every region's machine,
/// under the five-way cut and under an adaptive cut of an eighth of the
/// tree's work, each in `mode`.
fn charged_counts(mode: MachineMode) -> [Vec<(usize, usize, usize)>; 2] {
    let compiler = Compiler::new();
    let plan = compiler.evals.plan();
    let ast = parser::parse(&generate(&GenConfig::paper())).expect("generated source parses");
    let tree = Arc::new(agtree::build_tree(&compiler.pg, &ast).unwrap());
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
