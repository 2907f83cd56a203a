//! Batched-compilation determinism: compiling the same stream of trees
//! through the driver must yield byte-identical output code and
//! identical attribute stores regardless of how many pool workers (and
//! therefore regions, message interleavings, tickets and trees
//! overlapping in the window of two per worker) were involved, and
//! regardless of how often it is repeated on the same pool.
//!
//! Three `#[ignore]`d tests extend the matrix on CI (`cargo test --
//! --ignored` runs them): the region-granular determinism matrix,
//! which pushes a
//! `GenConfig::huge()` single tree through the adaptive pool at
//! workers 1/2/8, the region-local store slot audit, which
//! pins (via the debug-build allocated-slot counter) that huge-tree
//! region machines allocate O(region), not O(tree), slots, and the
//! huge tree's wall-clock retire share (CI also runs that one in a
//! release build). A seconds-scale region-granular smoke stays in the
//! default set.

use paragram::core::eval::{static_eval, Machine, MachineScratch};
use paragram::core::grammar::AttrId;
use paragram::core::parallel::pool::MIN_REGION_WORK;
use paragram::core::split::{decompose_granular, RegionGranularity, RegionId, SplitTable};
use paragram::core::tree::{debug_allocated_slots, AttrStore, ParseTree};
use paragram::driver::{BatchDriver, CompilationPlan, DriverConfig};
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::{Compiler, PVal};
use std::sync::Arc;
use std::time::Duration;

fn sources() -> Vec<String> {
    let mut srcs = vec![
        "program a; var x: integer; begin x := 6 * 7; write(x) end.".to_string(),
        "program b;\nfunction fib(n: integer): integer;\nbegin if n < 2 then fib := n else fib := fib(n - 1) + fib(n - 2) end;\nbegin write(fib(10)) end.".to_string(),
        "program c; var i, s: integer; var a: array [0..9] of integer;\nbegin i := 0; s := 0;\nwhile i < 10 do begin a[i] := i * i; i := i + 1 end;\ni := 0; while i < 10 do begin s := s + a[i]; i := i + 1 end;\nwrite(s) end.".to_string(),
    ];
    // A generated multi-cluster program big enough to actually split:
    // ≈ 6 k nodes, ≈ 3.8 × the pool's hand-off floor, so three regions
    // on eight workers and two on two (the three programs above stay
    // whole at any worker count).
    srcs.push(generate(&GenConfig {
        clusters: 4,
        procs_per_cluster: 6,
        stmts_per_proc: 8,
        nesting: 2,
        seed: 99,
        template_clusters: 0,
    }));
    srcs
}

fn store_snapshot(tree: &ParseTree<PVal>, store: &AttrStore<PVal>) -> Vec<Option<PVal>> {
    let g = tree.grammar();
    let mut snap = Vec::new();
    for node in tree.node_ids() {
        let sym = g.prod(tree.node(node).prod).lhs;
        for a in 0..g.attr_count(sym) {
            snap.push(store.get(node, AttrId(a as u32)).cloned());
        }
    }
    snap
}

/// The oracle: per-tree (asm text, full store snapshot) from the
/// sequential static evaluator.
fn sequential_reference(
    compiler: &Compiler,
    trees: &[Arc<ParseTree<PVal>>],
) -> Vec<(String, Vec<Option<PVal>>)> {
    let plans = compiler.evals.plans().unwrap();
    trees
        .iter()
        .map(|tree| {
            let (store, stats) = static_eval(tree, plans).unwrap();
            let out = compiler.output_from_store(tree, &store, stats);
            assert!(out.errors.is_empty(), "{:?}", out.errors);
            (out.asm, store_snapshot(tree, &store))
        })
        .collect()
}

/// One batch run: per-tree (asm text, full store snapshot).
fn run_once(
    compiler: &Compiler,
    trees: &[Arc<ParseTree<PVal>>],
    workers: usize,
) -> Vec<(String, Vec<Option<PVal>>)> {
    run_once_with(compiler, trees, DriverConfig::workers(workers))
}

fn run_once_with(
    compiler: &Compiler,
    trees: &[Arc<ParseTree<PVal>>],
    config: DriverConfig,
) -> Vec<(String, Vec<Option<PVal>>)> {
    let plan = CompilationPlan::from_plan(compiler.evals.plan(), config);
    let mut driver = BatchDriver::new(&plan);
    let report = driver.compile_batch(trees.iter().cloned()).unwrap();
    trees
        .iter()
        .zip(&report.outputs)
        .map(|(tree, out)| {
            let output = compiler.output_from_store(tree, &out.store, out.stats);
            assert!(
                output.errors.is_empty(),
                "fixture programs compile cleanly: {:?}",
                output.errors
            );
            (output.asm, store_snapshot(tree, &out.store))
        })
        .collect()
}

#[test]
fn batch_output_is_identical_across_worker_counts_and_runs() {
    let compiler = Compiler::new();
    let trees: Vec<Arc<ParseTree<PVal>>> = sources()
        .iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();

    // Reference: the actual sequential static evaluator (not a
    // 1-worker pool), so a systematic pool-vs-sequential divergence
    // cannot slip through.
    let reference = sequential_reference(&compiler, &trees);

    for workers in [1usize, 2, 8] {
        // Repeated runs: both fresh pools and a reused pool must agree.
        for run in 0..2 {
            let got = run_once(&compiler, &trees, workers);
            for (i, ((want_asm, want_store), (got_asm, got_store))) in
                reference.iter().zip(&got).enumerate()
            {
                assert_eq!(
                    want_asm, got_asm,
                    "tree {i}: asm differs at workers={workers} run={run}"
                );
                assert_eq!(
                    want_store.len(),
                    got_store.len(),
                    "tree {i}: instance count differs at workers={workers}"
                );
                for (j, (a, b)) in want_store.iter().zip(got_store).enumerate() {
                    assert_eq!(
                        a, b,
                        "tree {i} instance {j}: value differs at workers={workers} run={run}"
                    );
                }
            }
        }
    }
}

#[test]
fn reused_pool_is_deterministic_across_repeats() {
    let compiler = Compiler::new();
    let trees: Vec<Arc<ParseTree<PVal>>> = sources()
        .iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();
    let plan = CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(8));
    let mut driver = BatchDriver::new(&plan);
    let mut first: Option<Vec<String>> = None;
    for round in 0..3 {
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        let asms: Vec<String> = trees
            .iter()
            .zip(&report.outputs)
            .map(|(tree, out)| compiler.output_from_store(tree, &out.store, out.stats).asm)
            .collect();
        match &first {
            None => first = Some(asms),
            Some(want) => assert_eq!(want, &asms, "round {round} diverged on the same pool"),
        }
    }
    assert_eq!(driver.trees_compiled(), 3 * trees.len());
}

/// The acceptance bar for cross-tree pipelining: with the window full
/// at every worker count (two trees per worker: 2, 4 and 16 in flight)
/// the output must be byte-identical to the sequential static evaluator
/// — overlapping trees in flight may change the schedule, never the
/// result.
#[test]
fn pipelined_batch_is_byte_identical_across_window_depths() {
    let compiler = Compiler::new();
    let trees: Vec<Arc<ParseTree<PVal>>> = sources()
        .iter()
        .cycle()
        .take(4 * sources().len())
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();
    let reference = sequential_reference(&compiler, &trees);

    for workers in [1usize, 2, 8] {
        let plan =
            CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(workers));
        let mut driver = BatchDriver::new(&plan);
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        assert_eq!(
            report.max_in_flight,
            2 * workers,
            "workers={workers}: window full"
        );
        for (i, (tree, out)) in trees.iter().zip(&report.outputs).enumerate() {
            let output = compiler.output_from_store(tree, &out.store, out.stats);
            assert!(output.errors.is_empty(), "{:?}", output.errors);
            let (want_asm, want_store) = &reference[i];
            assert_eq!(
                want_asm, &output.asm,
                "tree {i}: asm differs at workers={workers}"
            );
            assert_eq!(
                want_store,
                &store_snapshot(tree, &out.store),
                "tree {i}: store differs at workers={workers}"
            );
        }
    }
}

/// The hand-off floor: under the default `Machines(n)` granularity a
/// tree is cut into `min(n, work / floor)` regions — one below twice
/// the floor — and whichever side of the floor a program falls on, at
/// every worker count the stores and the assembly text are
/// byte-identical to the sequential static evaluator.
#[test]
fn trees_straddling_the_handoff_floor_split_by_work_and_stay_byte_identical() {
    let compiler = Compiler::new();
    let program = |clusters, procs_per_cluster, stmts_per_proc| {
        let src = generate(&GenConfig {
            clusters,
            procs_per_cluster,
            stmts_per_proc,
            nesting: 2,
            seed: 5,
            template_clusters: 0,
        });
        compiler.tree_from_source(&src).unwrap()
    };
    // Just below two regions' worth, just above, and eight regions'
    // worth or more.
    let trees = [program(3, 4, 6), program(3, 5, 8), program(9, 6, 8)];
    let work: Vec<u64> = trees
        .iter()
        .map(|t| compiler.evals.plan().tree_work(t))
        .collect();
    assert!(
        work[0] > MIN_REGION_WORK && work[0] < 2 * MIN_REGION_WORK,
        "{work:?}"
    );
    assert!(
        work[1] >= 2 * MIN_REGION_WORK && work[1] < 3 * MIN_REGION_WORK,
        "{work:?}"
    );
    assert!(work[2] >= 8 * MIN_REGION_WORK, "{work:?}");

    let reference = sequential_reference(&compiler, &trees);

    for workers in [1usize, 2, 8] {
        let what = format!("workers={workers}");
        let config = DriverConfig::workers(workers);
        let plan = CompilationPlan::from_plan(compiler.evals.plan(), config);
        let mut driver = BatchDriver::new(&plan);
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        for (i, (tree, out)) in trees.iter().zip(&report.outputs).enumerate() {
            let by_work = (work[i] / MIN_REGION_WORK).max(1) as usize;
            assert_eq!(
                out.regions,
                workers.min(by_work),
                "{what}: tree {i} of {} work units",
                work[i]
            );
            let output = compiler.output_from_store(tree, &out.store, out.stats);
            assert!(output.errors.is_empty(), "{:?}", output.errors);
            let (want_asm, want_store) = &reference[i];
            assert_eq!(want_asm, &output.asm, "{what}: tree {i} asm differs");
            assert_eq!(
                want_store,
                &store_snapshot(tree, &out.store),
                "{what}: tree {i} store differs"
            );
        }
    }
}

/// Below the floor a program is one whole-tree job — the sequential
/// static evaluation on a worker, its store adopted at retirement — and
/// at every worker count and memo setting the stores and the assembly
/// text are byte-identical to the sequential static evaluator. With the
/// memo on, a second pass over the same pool replays every program (the
/// root point's contract: installed by the worker in the first pass,
/// hit from then on).
#[test]
fn one_region_programs_are_whole_tree_jobs_and_stay_byte_identical() {
    let compiler = Compiler::new();
    let mut srcs = sources();
    srcs.truncate(3);
    for seed in [3, 4] {
        srcs.push(generate(&GenConfig {
            clusters: 1,
            procs_per_cluster: 3,
            stmts_per_proc: 6,
            nesting: 2,
            seed,
            template_clusters: 0,
        }));
    }
    let trees: Vec<Arc<ParseTree<PVal>>> = srcs
        .iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();
    for tree in &trees {
        let work = compiler.evals.plan().tree_work(tree);
        assert!(work < 2 * MIN_REGION_WORK, "{work} units: one region");
    }
    let reference = sequential_reference(&compiler, &trees);

    for workers in [1usize, 2, 8] {
        for memo in [0usize, 1 << 26] {
            let what = format!("workers={workers} memo={memo}");
            let config = DriverConfig::workers(workers).with_memo_capacity(memo);
            let plan = CompilationPlan::from_plan(compiler.evals.plan(), config);
            let mut driver = BatchDriver::new(&plan);
            for pass in 0..2 {
                let report = driver.compile_batch(trees.iter().cloned()).unwrap();
                for (i, (tree, out)) in trees.iter().zip(&report.outputs).enumerate() {
                    assert_eq!(out.regions, 1, "{what} pass {pass}: tree {i}");
                    let output = compiler.output_from_store(tree, &out.store, out.stats);
                    assert!(output.errors.is_empty(), "{:?}", output.errors);
                    let (want_asm, want_store) = &reference[i];
                    assert_eq!(
                        want_asm, &output.asm,
                        "{what} pass {pass}: tree {i} asm differs"
                    );
                    assert_eq!(
                        want_store,
                        &store_snapshot(tree, &out.store),
                        "{what} pass {pass}: tree {i} store differs"
                    );
                }
                assert_eq!(report.max_regions_in_flight, report.max_in_flight);
                let n = trees.len() as u64;
                match (report.memo, pass) {
                    (None, _) => assert_eq!(memo, 0, "{what}"),
                    (Some(m), 0) => assert_eq!(
                        (m.hits, m.misses, m.inserts),
                        (0, n, n),
                        "{what}: a cold pass of distinct programs"
                    ),
                    (Some(m), _) => assert_eq!(
                        (m.hits, m.misses, m.inserts),
                        (n, 0, 0),
                        "{what}: a warm pass replays"
                    ),
                }
            }
        }
    }
}

/// The region-granular acceptance bar: a single `GenConfig::huge()`
/// tree (≥10× the paper workload) run through the adaptive
/// region-granular pool must produce output byte-identical to the
/// sequential static evaluator at every worker count (and so window
/// depth) — even though the tree decomposes into far more regions than
/// there are workers, and the regions round-robin over the pool.
#[test]
#[ignore = "minutes-scale huge-workload matrix; run with cargo test -- --ignored (CI does)"]
fn region_granular_huge_single_tree_matches_sequential_at_every_depth_and_worker_count() {
    let compiler = Compiler::new();
    let huge = compiler
        .tree_from_source(&generate(&GenConfig::huge()))
        .unwrap();
    // Two small trees ride along so the pipeline window actually
    // overlaps the huge tree's regions with neighbours.
    let small = compiler
        .tree_from_source("program s; var x: integer; begin x := 6 * 7; write(x) end.")
        .unwrap();
    let trees = [Arc::clone(&huge), Arc::clone(&small), Arc::clone(&huge)];

    let reference = sequential_reference(&compiler, &trees);

    // Budget ≈ 1/16 of the huge tree: many more regions than any
    // tested worker count, identical decomposition at every count.
    let budget = (compiler.evals.plan().tree_work(&huge) / 16).max(1);
    for workers in [1usize, 2, 8] {
        let config = DriverConfig::workers(workers).with_adaptive_budget(budget);
        let plan = CompilationPlan::from_plan(compiler.evals.plan(), config);
        let mut driver = BatchDriver::new(&plan);
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        assert!(
            report.outputs[0].regions > workers,
            "workers={workers}: huge tree made {} regions",
            report.outputs[0].regions
        );
        for (i, (tree, out)) in trees.iter().zip(&report.outputs).enumerate() {
            let output = compiler.output_from_store(tree, &out.store, out.stats);
            assert!(output.errors.is_empty(), "{:?}", output.errors);
            let (want_asm, want_store) = &reference[i];
            assert_eq!(
                want_asm, &output.asm,
                "tree {i}: asm differs at workers={workers}"
            );
            assert_eq!(
                want_store,
                &store_snapshot(tree, &out.store),
                "tree {i}: store differs at workers={workers}"
            );
        }
    }
}

/// The region-local store footprint audit (CI's `--ignored` step runs
/// it in a debug build, where the allocated-slot counter is live): a
/// region machine on the huge tree must allocate O(region) slots —
/// its store sized by the region's owned instances plus boundary
/// aliases — and constructing machines for *every* region of a
/// K-region adaptive decomposition must allocate ≈1× the tree's
/// instances in total, not K×, which is what makes the work-budget
/// choice allocation-free.
#[test]
#[ignore = "huge-workload slot audit; run with cargo test -- --ignored (CI does)"]
fn region_machines_on_the_huge_tree_allocate_o_region_slots() {
    let compiler = Compiler::new();
    let huge = compiler
        .tree_from_source(&generate(&GenConfig::huge()))
        .unwrap();
    let plan = compiler.evals.plan();
    let g = huge.grammar();
    let tree_instances: usize = huge
        .node_ids()
        .map(|n| g.attr_count(g.prod(huge.node(n).prod).lhs))
        .sum();

    let budget = (plan.tree_work(&huge) / 16).max(1);
    let table = SplitTable::new(g.as_ref(), 1.0);
    let decomp = decompose_granular(
        &huge,
        &table,
        plan.work_table(),
        RegionGranularity::Adaptive { budget },
    );
    let regions = decomp.len();
    assert!(regions >= 8, "budget /16 should carve many regions");

    let before = debug_allocated_slots();
    let mut scratch = MachineScratch::new();
    let (mut total_slots, mut max_slots) = (0usize, 0usize);
    for r in 0..regions as RegionId {
        let m = Machine::from_plan(
            plan,
            &huge,
            &decomp,
            r,
            compiler.evals.plan().best_mode(),
            scratch,
        );
        total_slots += m.store().len();
        max_slots = max_slots.max(m.store().len());
        let (_, _, sc) = m.recycle();
        scratch = sc;
    }
    let allocated = debug_allocated_slots() - before;

    // The counter saw the region stores built above. A lower bound
    // only: the counter is process-global and other tests in this
    // binary may allocate concurrently; and in release builds it stays
    // 0 (lower-bounded by nothing).
    if cfg!(debug_assertions) {
        assert!(
            allocated >= total_slots,
            "counter ({allocated}) missed store construction ({total_slots})"
        );
    }
    // O(region), not O(tree): no single machine's store approaches the
    // whole tree, and all K machines together stay ≈1× the tree's
    // instance count (boundary aliases are the only overhead) instead
    // of the K× a whole-tree store per machine would cost.
    assert!(
        max_slots * 4 <= tree_instances,
        "largest region store ({max_slots}) must be well under the tree's {tree_instances} instances"
    );
    assert!(
        total_slots < tree_instances + tree_instances / 4,
        "{regions} region stores totalled {total_slots} slots for a {tree_instances}-instance tree"
    );
}

/// Seconds-scale region-granular determinism smoke (the huge-workload
/// matrix above is the `--ignored` CI version): the generated
/// multi-cluster program decomposed adaptively must match the
/// sequential static evaluator byte for byte.
#[test]
fn region_granular_smoke_matches_sequential() {
    let compiler = Compiler::new();
    let trees: Vec<Arc<ParseTree<PVal>>> = sources()
        .iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();
    let biggest = trees
        .iter()
        .map(|t| compiler.evals.plan().tree_work(t))
        .max()
        .unwrap();
    let budget = (biggest / 8).max(1);
    let reference = run_once(&compiler, &trees, 2);
    for workers in [1usize, 4] {
        let config = DriverConfig::workers(workers).with_adaptive_budget(budget);
        let got = run_once_with(&compiler, &trees, config);
        for (i, ((want_asm, want_store), (got_asm, got_store))) in
            reference.iter().zip(&got).enumerate()
        {
            assert_eq!(
                want_asm, got_asm,
                "tree {i}: asm differs at workers={workers}"
            );
            assert_eq!(
                want_store, got_store,
                "tree {i}: store differs at workers={workers}"
            );
        }
    }
}

/// Pipelining actually overlaps trees: a multi-tree batch fills the
/// window of two trees per worker.
#[test]
fn batch_report_exposes_in_flight_depth() {
    let compiler = Compiler::new();
    let trees: Vec<Arc<ParseTree<PVal>>> = sources()
        .iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();
    let plan = CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(1));
    let mut driver = BatchDriver::new(&plan);
    assert_eq!(driver.pipeline_depth(), 2);
    let report = driver.compile_batch(trees.iter().cloned()).unwrap();
    assert_eq!(
        report.max_in_flight, 2,
        "a 4-tree batch fills a depth-2 window"
    );
    // The default window is two trees per worker: a stream of small
    // programs, one job each, keeps a second one waiting at every
    // worker.
    let small: Vec<_> = trees[..3].iter().cycle().take(9).cloned().collect();
    for workers in [1usize, 2, 3] {
        let plan =
            CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(workers));
        let mut driver = BatchDriver::new(&plan);
        assert_eq!(driver.pipeline_depth(), 2 * workers);
        let report = driver.compile_batch(small.iter().cloned()).unwrap();
        assert!(report.outputs.iter().all(|out| out.regions == 1));
        assert_eq!(report.max_in_flight, 2 * workers, "{workers} workers");
    }
}

/// Live-pool fault tolerance: kill one worker of a pool, and the
/// survivors must keep compiling the same stream to byte-identical
/// assembly. (Mid-evaluation kills with region
/// re-execution are pinned by the pool's own unit tests; this is the
/// driver-level contract.)
#[test]
fn killed_worker_leaves_batch_output_byte_identical() {
    let compiler = Compiler::new();
    let trees: Vec<Arc<ParseTree<PVal>>> = sources()
        .iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect();
    let plan = CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(4));
    let mut driver = BatchDriver::new(&plan);
    let before: Vec<String> = {
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        trees
            .iter()
            .zip(&report.outputs)
            .map(|(tree, out)| compiler.output_from_store(tree, &out.store, out.stats).asm)
            .collect()
    };

    assert!(driver.kill_worker(1), "the pool absorbs a worker kill");
    assert!(!driver.kill_worker(1), "a dead worker cannot die twice");
    let f = driver.fault_counters();
    assert_eq!(f.crashes, 1, "{f:?}");

    for round in 0..2 {
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        for (i, (tree, out)) in trees.iter().zip(&report.outputs).enumerate() {
            let output = compiler.output_from_store(tree, &out.store, out.stats);
            assert!(output.errors.is_empty(), "{:?}", output.errors);
            assert_eq!(
                before[i], output.asm,
                "tree {i} round {round}: asm diverged after the kill"
            );
        }
    }
}

/// The cross-request memo cache on three streams of separately parsed
/// trees: duplicated (8 trees from 2 sources), sharing a two-cluster
/// template prefix, and i.i.d. Each runs memo off and memo on, a cold
/// pass then a warm pass of the same pool. Both passes match memo off
/// tree by tree, and on the duplicated stream the warm pass hits.
#[test]
fn memo_on_matches_memo_off_cold_and_warm() {
    let compiler = Compiler::new();
    let plan = compiler.evals.plan();
    let stream = |distinct: u64, template_clusters| -> Vec<Arc<ParseTree<PVal>>> {
        (0..8)
            .map(|i| {
                let src = generate(&GenConfig {
                    clusters: 3,
                    procs_per_cluster: 2,
                    stmts_per_proc: 4,
                    nesting: 1,
                    seed: 9_000 + i % distinct,
                    template_clusters,
                });
                compiler.tree_from_source(&src).unwrap()
            })
            .collect()
    };
    for (name, trees) in [
        ("duplicated", stream(2, 0)),
        ("shared_prefix", stream(8, 2)),
        ("iid", stream(8, 0)),
    ] {
        // The memo caches leaf regions, and only cost-driven carving
        // roots them at memo-safe procedure bodies.
        let budget = (plan.tree_work(&trees[0]) / 16).max(1);
        let off = DriverConfig::workers(4).with_adaptive_budget(budget);
        let cold_and_warm = |config| {
            let mut driver = BatchDriver::new(&CompilationPlan::from_plan(plan, config));
            [0, 1].map(|_| driver.compile_batch(trees.iter().cloned()).unwrap())
        };
        let [off_cold, off_warm] = cold_and_warm(off);
        let on = off.with_memo_capacity(64 << 20);
        let [on_cold, on_warm] = cold_and_warm(on);
        for (arm, got, want) in [("cold", &on_cold, &off_cold), ("warm", &on_warm, &off_warm)] {
            for (i, tree) in trees.iter().enumerate() {
                let (got, want) = (&got.outputs[i], &want.outputs[i]);
                assert_eq!(
                    store_snapshot(tree, &got.store),
                    store_snapshot(tree, &want.store),
                    "{name} {arm}: tree {i} store differs with the memo on"
                );
                assert_eq!(
                    got.root_values, want.root_values,
                    "{name} {arm}: tree {i} roots differ with the memo on"
                );
            }
        }
        if name == "duplicated" {
            let warm = on_warm.memo.unwrap();
            assert!(warm.hits > 0, "{warm:?}");
        }
    }
}

/// Retiring a tree is a small share of its pool time: the report keeps
/// the region stores the workers filled, so retirement builds no
/// whole-tree store and moves no value. On the huge tree, `assemble /
/// (elapsed + assemble)`, each the fastest of five runs, stays ≤ 0.10.
/// It read 0.21–0.23 while retirement sized a whole-tree store and
/// absorbed every region into it, and 0.6–0.7 while it re-walked every
/// code rope. A wall clock gate, so it is ignored by default.
#[test]
#[ignore = "wall-clock huge-tree gate; run with cargo test -- --ignored (CI does, in debug and in release)"]
fn huge_tree_retire_share_stays_under_0_10() {
    let compiler = Compiler::new();
    let huge = compiler
        .tree_from_source(&generate(&GenConfig::huge()))
        .unwrap();
    let config = DriverConfig::workers(4);
    let (mut elapsed, mut assemble) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        let plan = CompilationPlan::from_plan(compiler.evals.plan(), config);
        let output = BatchDriver::new(&plan).compile_tree(&huge).unwrap();
        elapsed = elapsed.min(output.elapsed);
        assemble = assemble.min(output.assemble);
    }
    let share = assemble.as_secs_f64() / (elapsed + assemble).as_secs_f64();
    assert!(
        share <= 0.10,
        "retiring the huge tree took {share:.2} of its pool time \
         ({assemble:?} after {elapsed:?}): is retirement building a whole-tree store again?"
    );
}

#[test]
fn compile_batch_entry_point_matches_sequential_compiler() {
    let compiler = Compiler::new();
    let srcs = sources();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let batch = compiler
        .compile_batch(refs.iter().copied(), DriverConfig::workers(2))
        .unwrap();
    for (src, out) in refs.iter().zip(&batch) {
        let seq = compiler.compile(src).unwrap();
        assert_eq!(out.asm, seq.asm);
        assert_eq!(out.errors, seq.errors);
    }
}
