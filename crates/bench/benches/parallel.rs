//! Criterion: real-thread parallel speedup of the combined evaluator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paragram_bench::Workload;
use paragram_core::parallel::pool::{PoolConfig, WorkerPool};

fn bench_parallel(c: &mut Criterion) {
    let w = Workload::paper();
    let plan = w.compiler.evals.plan();
    let mut group = c.benchmark_group("threaded-combined");
    group.sample_size(10);
    for machines in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(machines),
            &machines,
            |b, &machines| {
                b.iter(|| {
                    let mut pool = WorkerPool::new(plan, PoolConfig::workers(machines));
                    pool.eval(&w.tree).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
