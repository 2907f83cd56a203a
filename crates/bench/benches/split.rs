//! Criterion: the adaptive decomposition of one `memo_iid`-shaped
//! program at a budget of a sixteenth of its work — the cut the pool
//! makes of every memo-on tree it keeps whole, for its memo points —
//! built in full, and points-only (its leaf regions' roots, no slot
//! layout).

use criterion::{criterion_group, criterion_main, Criterion};
use paragram_bench::Workload;
use paragram_core::split::{adaptive_leaf_roots, decompose_adaptive, SplitTable, WorkTable};
use paragram_pascal::generator::GenConfig;

fn bench_split(c: &mut Criterion) {
    let w = Workload::from_config(&GenConfig {
        clusters: 3,
        procs_per_cluster: 2,
        stmts_per_proc: 4,
        nesting: 1,
        seed: 1,
        template_clusters: 0,
    });
    let grammar = w.tree.grammar();
    let table = SplitTable::new(grammar.as_ref(), 1.0);
    let work = WorkTable::new(grammar.as_ref());
    let budget = work.tree_work(&w.tree) / 16;
    let mut group = c.benchmark_group("decompose-adaptive-memo-tree");
    group.bench_function("decompose", |b| {
        b.iter(|| decompose_adaptive(&w.tree, &table, &work, budget))
    });
    group.bench_function("leaf-roots", |b| {
        b.iter(|| adaptive_leaf_roots(&w.tree, &table, &work, budget))
    });
    group.finish();
}

criterion_group!(benches, bench_split);
criterion_main!(benches);
