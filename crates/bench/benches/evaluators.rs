//! Criterion: sequential evaluator comparison (real host time).
//!
//! Static (ordered) vs dynamic evaluation of the same attributed tree —
//! the CPU-cost claim behind the paper's §2.3: static evaluation skips
//! run-time dependency analysis entirely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paragram_bench::Workload;
use paragram_core::eval::dynamic_eval;
use paragram_pascal::generator::GenConfig;

fn bench_evaluators(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential-evaluators");
    group.sample_size(10);
    for (label, cfg) in [("small", GenConfig::small()), ("paper", GenConfig::paper())] {
        let w = Workload::from_config(&cfg);
        group.bench_with_input(BenchmarkId::new("static", label), &w, |b, w| {
            b.iter(|| w.compiler.evals.eval_sequential(&w.tree).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dynamic", label), &w, |b, w| {
            b.iter(|| dynamic_eval(&w.tree).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_evaluators);
criterion_main!(benches);
