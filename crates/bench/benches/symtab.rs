//! Criterion: applicative symbol tables vs cloning a `BTreeMap` — the
//! §4.3 claim that path-copying BSTs make applicative updates cheap —
//! and what one add, a price and a digest cost on a 1 000-binding
//! Pascal environment.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use paragram_pascal::env::{Entry, Env, SigList, Ty};
use paragram_symtab::SymTab;
use std::collections::BTreeMap;
use std::sync::Arc;

fn bench_symtab(c: &mut Criterion) {
    let mut group = c.benchmark_group("applicative-updates");
    for n in [100usize, 1_000] {
        let names: Vec<String> = (0..n).map(|i| format!("ident{i}")).collect();
        group.bench_with_input(BenchmarkId::new("symtab", n), &names, |b, names| {
            b.iter(|| {
                // Keep every version alive, as the attribute grammar does.
                let mut versions = Vec::with_capacity(names.len());
                let mut t: SymTab<usize> = SymTab::new();
                for (i, name) in names.iter().enumerate() {
                    t = t.add(name.as_str(), i);
                    versions.push(t.clone());
                }
                versions.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("btreemap-clone", n), &names, |b, names| {
            b.iter(|| {
                let mut versions = Vec::with_capacity(names.len());
                let mut m: BTreeMap<String, usize> = BTreeMap::new();
                for (i, name) in names.iter().enumerate() {
                    let mut next = m.clone();
                    next.insert(name.clone(), i);
                    m = next.clone();
                    versions.push(next);
                }
                versions.len()
            })
        });
    }
    group.finish();
}

/// A 1 000-binding environment, a procedure every fourth entry: one
/// add path-copies ≈ 12 nodes; the price (`PVal::wire_size` of an
/// `Env`) and the digest (what the memo fingerprints an `Env` by) are
/// read off the root.
fn bench_env_1000(c: &mut Criterion) {
    let entry = |i: usize| match i % 4 {
        0 => Entry::Proc {
            label: format!("p_{i}").into(),
            level: 1,
            params: SigList::default(),
        },
        _ => Entry::Var {
            level: 1,
            offset: -4 * i as i32,
            ty: Ty::Int,
            by_ref: false,
        },
    };
    let env: Env = (0..1_000).fold(Env::new(), |t, i| t.add(format!("ident{i}"), entry(i)));
    let name: Arc<str> = "fresh".into();
    let mut group = c.benchmark_group("env-1000");
    group.bench_function("add", |b| b.iter(|| env.add(name.clone(), entry(1))));
    group.bench_function("wire_size", |b| b.iter(|| black_box(&env).wire_size()));
    group.bench_function("digest", |b| b.iter(|| black_box(&env).digest()));
    group.finish();
}

criterion_group!(benches, bench_symtab, bench_env_1000);
criterion_main!(benches);
