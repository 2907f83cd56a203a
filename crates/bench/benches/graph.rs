//! Criterion: dependency-graph construction cost in isolation.
//!
//! The dynamic pipeline (Figure 1) pays for building the instance
//! dependency graph before any rule runs; `stats.graph_nodes` /
//! `stats.graph_edges` measure its size, this bench measures its time.
//! Constructing a [`Machine`] in dynamic mode builds exactly the
//! region's dependency graph without evaluating anything.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paragram_bench::Workload;
use paragram_core::eval::{dynamic_eval, EvalPlan, Machine, MachineMode, MachineScratch};
use paragram_core::split::Decomposition;
use paragram_pascal::generator::GenConfig;
use std::sync::Arc;

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency-graph");
    group.sample_size(10);
    for (label, cfg) in [("small", GenConfig::small()), ("paper", GenConfig::paper())] {
        let w = Workload::from_config(&cfg);
        let whole = Decomposition::whole(&w.tree);
        // Shared plan tables built once, outside the timed loop, so the
        // "construct" timing isolates dependency-graph construction.
        let plan = Arc::new(EvalPlan::from_parts(w.tree.grammar(), None, None));
        // Construction-cost invariant: a dynamic-mode machine over the
        // undecomposed tree builds exactly one task per semantic-rule
        // application — its single region walk must not duplicate or
        // drop work. (Guards the folded single-walk construction.)
        {
            let g = w.tree.grammar();
            let expected_tasks: usize = w
                .tree
                .node_ids()
                .map(|n| g.prod(w.tree.node(n).prod).rules.len())
                .sum();
            let m = Machine::from_plan(
                &plan,
                &w.tree,
                &whole,
                0,
                MachineMode::Dynamic,
                MachineScratch::new(),
            );
            let (nodes, edges) = m.graph_size();
            assert_eq!(
                nodes, expected_tasks,
                "{label}: machine construction must enumerate every rule exactly once"
            );
            let (_, stats) = dynamic_eval(&w.tree).unwrap();
            assert_eq!(
                nodes, stats.graph_nodes,
                "{label}: same graph as dynamic_eval"
            );
            assert_eq!(
                edges, stats.graph_edges,
                "{label}: same edges as dynamic_eval"
            );
        }
        group.bench_with_input(BenchmarkId::new("construct", label), &w, |b, w| {
            b.iter(|| {
                let m = Machine::from_plan(
                    &plan,
                    &w.tree,
                    &whole,
                    0,
                    MachineMode::Dynamic,
                    MachineScratch::new(),
                );
                m.graph_size()
            })
        });
        group.bench_with_input(BenchmarkId::new("construct+eval", label), &w, |b, w| {
            b.iter(|| dynamic_eval(&w.tree).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
