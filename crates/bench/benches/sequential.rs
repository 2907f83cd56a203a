//! Criterion: the AG compiler against the conventional (direct)
//! compiler — §4.1's "sequential compilation speeds comparable to
//! commonly available compilers" claim, on the host — and the stages of
//! the sequential front and back end one at a time: lexing, parsing
//! (lexing included), building the attributed tree, and flattening the
//! root's code into the output.

use criterion::{criterion_group, criterion_main, Criterion};
use paragram_bench::Workload;
use paragram_pascal::agtree::build_tree;
use paragram_pascal::direct::compile_direct;
use paragram_pascal::generator::GenConfig;
use paragram_pascal::lex::lex;
use paragram_pascal::parser::parse;

fn bench_sequential(c: &mut Criterion) {
    let w = Workload::from_config(&GenConfig::small());
    let mut group = c.benchmark_group("full-compilation");
    group.sample_size(20);
    group.bench_function("ag-static", |b| {
        b.iter(|| w.compiler.compile(&w.source).unwrap())
    });
    group.bench_function("ag-dynamic", |b| {
        b.iter(|| w.compiler.compile_dynamic(&w.source).unwrap())
    });
    group.bench_function("direct", |b| {
        b.iter(|| {
            let ast = parse(&w.source).unwrap();
            compile_direct(&ast)
        })
    });
    group.bench_function("lex-only", |b| b.iter(|| lex(&w.source).unwrap()));
    group.bench_function("parse-only", |b| b.iter(|| parse(&w.source).unwrap()));
    let ast = parse(&w.source).unwrap();
    group.bench_function("build-tree", |b| {
        b.iter(|| build_tree(&w.compiler.pg, &ast).unwrap())
    });
    let (store, _) = w.compiler.evals.eval_sequential(&w.tree).unwrap();
    group.bench_function("output", |b| {
        b.iter(|| {
            w.compiler
                .output_from_store(&w.tree, &store, Default::default())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sequential);
criterion_main!(benches);
