//! Throughput benchmark for the batched compilation driver.
//!
//! Measures trees/second when a stream of parse trees is compiled
//! through `paragram-driver`, for batch sizes 1 / 16 / 256: each batch
//! pays the full per-compilation setup **once** — grammar analysis and
//! visit plans ([`CompilationPlan::analyze`]), split tables, worker and
//! librarian spin-up ([`BatchDriver::new`]) — and then streams its
//! trees through the persistent pool. Batch size 1 is the unamortized
//! baseline (the single-compilation pipeline the paper measures);
//! larger batches show how much of a compilation was really per-grammar
//! overhead.
//!
//! Every batch size is measured on a second axis, **barrier vs
//! pipelined**: the barrier pool (pipeline depth 1) retires each tree
//! before dispatching the next, while the pipelined pool (depth ≥ 2,
//! `--depth`) keeps a window of trees in flight so tree N+1's region
//! jobs fill workers idling behind tree N's stragglers and tree N's
//! result assembly overlaps tree N+1's evaluation. The two modes run
//! interleaved within each repetition so the comparison is same-box,
//! same-moment. Note: on a single-core host (like the current bench
//! container) both schedules consume the same CPU and the wall-clock
//! ratio hovers around 1.0 — there is no idle core for the window to
//! fill. The `sim` section therefore also runs the same stream on the
//! paper's simulated multi-machine network ([`run_sim_batch`]), where
//! the overlapped schedule's makespan win is measured deterministically
//! (straggler regions of tree N evaluate while tree N+1's machines
//! start).
//!
//! Two workload scales are generated from [`GenConfig`]: `proc`, a
//! procedure-sized program, and `unit`, a compilation-unit-sized one.
//! Trees are parsed up front (the paper's parser is a separate
//! sequential pipeline stage); distinct seeds make the trees distinct.
//! Each scale also prints how many regions the default decomposition
//! cuts its trees into (`regions_per_tree` in the JSON): both scales
//! are far below the pool's hand-off floor, so the answer is 1, and a
//! `--smoke` run fails if the `proc` scale says otherwise — a count,
//! so it holds on a noisy runner.
//!
//! A third axis, **`--single-tree`**, measures region-granular
//! scheduling on one bigger-than-paper tree ([`GenConfig::huge`], ≥10×
//! the paper workload): the same tree compiled whole-tree (fixed-count
//! decomposition, at most one region per worker) vs adaptive-region
//! (cost-driven budget, many region jobs round-robining over the pool),
//! interleaved rep by rep, plus the deterministic simulated-network
//! comparison on a stream led by the huge tree, plus a
//! store-construction axis (total/peak machine-store slots per
//! decomposition vs the tree's instance count — the O(region) win of
//! region-local stores), plus the huge tree's *retire share* —
//! `assemble / (elapsed + assemble)` of
//! [`paragram_driver::TreeOutput`], the part of a tree's pool time
//! spent after its last region reported — printed and gated. Emits a
//! `single_tree` section in the JSON. In `--smoke` mode the
//! paper-sized tree stands in for the huge one everywhere but the
//! retire share.
//!
//! Writes `BENCH_throughput.json` (override with `--out`). `--smoke`
//! runs a seconds-scale subset and writes nothing unless `--out` is
//! given — CI uses it (once per mode) to keep both driver schedules
//! alive.
//!
//! A fourth axis, **`--memo`**, measures cross-request subtree sharing:
//! streams of separately parsed trees — fully duplicated, sharing a
//! template prefix of clusters, or i.i.d. — compiled with the memo
//! cache off vs on ([`DriverConfig::with_memo_capacity`]), interleaved
//! rep by rep, cold (first pass of a fresh pool) and warm (second pass
//! of the same pool) measured separately. Hit rates come from
//! [`BatchReport::memo`](paragram_driver::BatchReport::memo). Two properties are asserted, not just
//! reported: memo-on outputs are value-identical to memo-off on every
//! tree, and the warm duplicated pass actually hits. The memo-on side
//! additionally runs under `InstallPolicy::SecondTouch` (2Q
//! scan-resistant installs), asserting the duplicated stream's warm
//! hit rate survives deferral. Emits a `memo` section in the JSON.
//!
//! A fifth axis, **`--sched`**, compares fixed modular placement
//! against the work-stealing scheduler ([`SchedulerMode::Stealing`])
//! on a skewed multi-huge-tree stream, wall-clock and simulated; see
//! [`run_sched`] for the stream's rationale and the gated acceptance
//! bar (stealing ≥ 1.15× fixed in the sim, zero result divergence).
//! Emits a `sched` section in the JSON.
//!
//! Usage: `cargo run --release --bin bench_throughput --
//! [--smoke] [--single-tree] [--memo] [--sched] [--workers N]
//! [--depth N] [--modes barrier,pipelined] [--out PATH] [--label TEXT]`

use paragram_core::memo::InstallPolicy;
use paragram_core::parallel::pool::SchedulerMode;
use paragram_core::parallel::sim::{run_sim_batch, run_sim_stream, SimConfig};
use paragram_core::split::{decompose_granular, RegionGranularity, RegionId, SplitTable};
use paragram_core::tree::ParseTree;
use paragram_driver::{BatchDriver, CompilationPlan, DriverConfig};
use paragram_netsim::FaultPlan;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{Compiler, PVal};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    smoke: bool,
    single_tree: bool,
    memo: bool,
    sched: bool,
    workers: usize,
    depth: usize,
    modes: Vec<Mode>,
    out: Option<String>,
    label: String,
}

/// One point on the barrier-vs-pipelined axis.
#[derive(Clone, Copy, PartialEq)]
struct Mode {
    name: &'static str,
    depth: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        single_tree: false,
        memo: false,
        sched: false,
        workers: 4,
        depth: 2,
        modes: Vec::new(),
        out: None,
        label: "current".to_string(),
    };
    let mut explicit_out = false;
    let mut mode_names: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--single-tree" => args.single_tree = true,
            "--memo" => args.memo = true,
            "--sched" => args.sched = true,
            "--workers" => {
                args.workers = val("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("error: --workers takes an integer");
                    std::process::exit(2);
                });
                args.workers = args.workers.max(1);
            }
            "--depth" => {
                args.depth = val("--depth").parse().unwrap_or_else(|_| {
                    eprintln!("error: --depth takes an integer");
                    std::process::exit(2);
                });
                if args.depth < 2 {
                    eprintln!(
                        "error: --depth must be >= 2 (depth 1 is the barrier; use --modes barrier)"
                    );
                    std::process::exit(2);
                }
            }
            "--modes" => mode_names = Some(val("--modes")),
            "--out" => {
                args.out = Some(val("--out"));
                explicit_out = true;
            }
            "--label" => args.label = val("--label"),
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\nusage: bench_throughput [--smoke] [--single-tree] [--memo] [--sched] [--workers N] [--depth N] [--modes barrier,pipelined] [--out PATH] [--label TEXT]"
                );
                std::process::exit(2);
            }
        }
    }
    let barrier = Mode {
        name: "barrier",
        depth: 1,
    };
    let pipelined = Mode {
        name: "pipelined",
        depth: args.depth,
    };
    args.modes = match mode_names.as_deref() {
        None => vec![barrier, pipelined],
        Some(names) => names
            .split(',')
            .map(|n| match n.trim() {
                "barrier" => barrier,
                "pipelined" => pipelined,
                other => {
                    eprintln!("error: unknown mode {other:?} (barrier|pipelined)");
                    std::process::exit(2);
                }
            })
            .collect(),
    };
    if args.modes.len() > 2 || (args.modes.len() == 2 && args.modes[0].name == args.modes[1].name) {
        eprintln!("error: --modes takes each mode at most once");
        std::process::exit(2);
    }
    if !args.smoke && !explicit_out {
        args.out = Some("BENCH_throughput.json".to_string());
    }
    args
}

/// A named workload scale: the generator shape and the batch sizes /
/// repetition counts measured at that scale.
struct Scale {
    name: &'static str,
    cfg: GenConfig,
}

fn scales(smoke: bool) -> Vec<Scale> {
    // Batch throughput matters where per-tree work is comparable to the
    // per-compilation setup it amortizes — streams of procedure- and
    // compilation-unit-sized trees. (At the generator's 2000-line paper
    // scale a single tree's evaluation dwarfs setup; that regime is
    // tracked by BENCH_dynamic.json instead.)
    let proc = Scale {
        name: "proc",
        cfg: GenConfig {
            clusters: 1,
            procs_per_cluster: 1,
            stmts_per_proc: 3,
            nesting: 1,
            seed: 7,
            template_clusters: 0,
        },
    };
    let unit = Scale {
        name: "unit",
        cfg: GenConfig {
            clusters: 1,
            procs_per_cluster: 2,
            stmts_per_proc: 4,
            nesting: 1,
            seed: 2024,
            template_clusters: 0,
        },
    };
    if smoke {
        return vec![proc];
    }
    vec![proc, unit]
}

/// Distinct trees for a scale (seeds vary; sources differ).
fn build_trees(compiler: &Compiler, cfg: &GenConfig, count: usize) -> Vec<Arc<ParseTree<PVal>>> {
    (0..count)
        .map(|i| {
            let src = generate(&GenConfig {
                seed: cfg.seed + i as u64,
                ..*cfg
            });
            compiler
                .tree_from_source(&src)
                .expect("generated workload parses")
        })
        .collect()
}

/// One timed batch: full setup (grammar analysis + plans + pool spawn)
/// plus `batch` trees streamed through the driver at the mode's
/// pipeline depth. Returns nanoseconds.
fn run_batch(
    compiler: &Compiler,
    trees: &[Arc<ParseTree<PVal>>],
    batch: usize,
    workers: usize,
    depth: usize,
) -> u128 {
    let stream: Vec<Arc<ParseTree<PVal>>> = (0..batch)
        .map(|i| Arc::clone(&trees[i % trees.len()]))
        .collect();
    let t = Instant::now();
    let plan = CompilationPlan::analyze(
        &compiler.pg.grammar,
        DriverConfig::workers(workers).with_pipeline_depth(depth),
    );
    let mut driver = BatchDriver::new(&plan);
    let report = driver.compile_batch(stream).expect("evaluation succeeds");
    std::hint::black_box(report.outputs.len());
    t.elapsed().as_nanos()
}

/// The most regions any of `trees` is cut into by the driver's default
/// decomposition on `workers` workers.
fn regions_per_tree(compiler: &Compiler, trees: &[Arc<ParseTree<PVal>>], workers: usize) -> usize {
    let plan = CompilationPlan::analyze(&compiler.pg.grammar, DriverConfig::workers(workers));
    let report = BatchDriver::new(&plan)
        .compile_batch(trees.iter().cloned())
        .expect("evaluation succeeds");
    report.outputs.iter().map(|o| o.regions).max().unwrap_or(0)
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// One memo-axis stream shape: how many distinct sources the stream
/// cycles through and how many leading clusters are template-shared.
struct MemoVariant {
    name: &'static str,
    distinct: usize,
    template_clusters: usize,
}

/// Builds a memo-axis stream: `count` separately parsed trees whose
/// generator seeds cycle through `distinct` values (identical sources
/// parse to identical trees — same unique-id tokens, same hashes — but
/// each occurrence is its own parse, as duplicated service traffic
/// would be).
fn memo_stream(
    compiler: &Compiler,
    variant: &MemoVariant,
    count: usize,
) -> Vec<Arc<ParseTree<PVal>>> {
    let base = GenConfig {
        clusters: 3,
        procs_per_cluster: 2,
        stmts_per_proc: 4,
        nesting: 1,
        seed: 0,
        template_clusters: variant.template_clusters,
    };
    (0..count)
        .map(|i| {
            let src = generate(&GenConfig {
                seed: 9_000 + (i % variant.distinct) as u64,
                ..base
            });
            compiler
                .tree_from_source(&src)
                .expect("generated workload parses")
        })
        .collect()
}

/// Asserts two outputs of the same tree are value-identical, instance
/// by instance (the bench-level equivalence gate; the unit suites do
/// the same per fixture).
fn assert_outputs_match(
    tree: &ParseTree<PVal>,
    on: &paragram_driver::TreeOutput<PVal>,
    off: &paragram_driver::TreeOutput<PVal>,
    ctx: &str,
) {
    let g = tree.grammar();
    for node in tree.node_ids() {
        let sym = g.prod(tree.node(node).prod).lhs;
        for a in 0..g.attr_count(sym) {
            let attr = paragram_core::grammar::AttrId(a as u32);
            assert_eq!(
                on.store.get(node, attr),
                off.store.get(node, attr),
                "{ctx}: node {node:?} attr {attr:?} diverged with the memo cache on"
            );
        }
    }
    assert_eq!(
        on.root_values, off.root_values,
        "{ctx}: root values diverged with the memo cache on"
    );
}

/// The `--memo` axis: duplicated / shared-prefix / i.i.d. streams with
/// the cache off vs on, cold and warm passes, interleaved rep by rep.
/// The on side runs twice more under `InstallPolicy::SecondTouch` (2Q:
/// first touch marks, second touch installs) to measure what
/// scan-resistant installs cost a genuinely re-referenced stream —
/// gated: the duplicated stream's warm hit rate must not drop.
fn run_memo(compiler: &Compiler, args: &Args, out: &mut String) {
    const MEMO_BYTES: usize = 64 << 20;
    let count = if args.smoke { 8 } else { 32 };
    let reps = if args.smoke { 2 } else { 7 };
    let variants = [
        MemoVariant {
            name: "duplicated",
            distinct: if args.smoke { 2 } else { 4 },
            template_clusters: 0,
        },
        MemoVariant {
            name: "shared_prefix",
            distinct: count,
            template_clusters: 2,
        },
        MemoVariant {
            name: "iid",
            distinct: count,
            template_clusters: 0,
        },
    ];
    let plan = compiler.evals.plan();
    out.push_str("  \"memo\": {\n");
    out.push_str(&format!("    \"capacity_bytes\": {MEMO_BYTES},\n"));
    out.push_str(&format!("    \"stream_len\": {count},\n"));
    for (vi, variant) in variants.iter().enumerate() {
        let trees = memo_stream(compiler, variant, count);
        let nodes_avg: usize = trees.iter().map(|t| t.len()).sum::<usize>() / trees.len();
        println!(
            "memo/{}: {count} trees ({} distinct), ~{nodes_avg} nodes each",
            variant.name, variant.distinct
        );

        // Both sides run adaptive granularity: the memo caches *leaf*
        // regions, and only cost-driven decomposition carves procedure
        // bodies (`stmts` subtrees — memo-safe symbols) into leaves.
        // Fixed per-worker carving roots every pascal leaf at `decls`,
        // whose forward-reference loop (genv ← env_out) makes it
        // uncacheable. Same budget on the off side keeps the ratio a
        // pure memo effect.
        let budget = (plan.tree_work(&trees[0]) / 16).max(1);

        // One full-detail pass for the equivalence gate and hit rates:
        // the same stream through a memo-off and a memo-on driver, two
        // passes each (cold, then warm on the same pool).
        let config = |bytes: usize| {
            DriverConfig::workers(args.workers)
                .with_pipeline_depth(args.depth)
                .with_adaptive_budget(budget)
                .with_memo_capacity(bytes)
        };
        let mut off_driver = BatchDriver::new(&CompilationPlan::from_plan(plan, config(0)));
        let mut on_driver = BatchDriver::new(&CompilationPlan::from_plan(plan, config(MEMO_BYTES)));
        let mut tq_driver = BatchDriver::new(&CompilationPlan::from_plan(
            plan,
            config(MEMO_BYTES).with_memo_install(InstallPolicy::SecondTouch),
        ));
        let off_cold = off_driver.compile_batch(trees.iter().cloned()).unwrap();
        let on_cold = on_driver.compile_batch(trees.iter().cloned()).unwrap();
        let tq_cold = tq_driver.compile_batch(trees.iter().cloned()).unwrap();
        let off_warm = off_driver.compile_batch(trees.iter().cloned()).unwrap();
        let on_warm = on_driver.compile_batch(trees.iter().cloned()).unwrap();
        let tq_warm = tq_driver.compile_batch(trees.iter().cloned()).unwrap();
        for (i, tree) in trees.iter().enumerate() {
            let ctx = format!("memo/{} tree {i}", variant.name);
            assert_outputs_match(tree, &on_cold.outputs[i], &off_cold.outputs[i], &ctx);
            assert_outputs_match(tree, &on_warm.outputs[i], &off_warm.outputs[i], &ctx);
            assert_outputs_match(tree, &tq_cold.outputs[i], &off_cold.outputs[i], &ctx);
            assert_outputs_match(tree, &tq_warm.outputs[i], &off_warm.outputs[i], &ctx);
        }
        let cold_counters = on_cold.memo.expect("memo on");
        let warm_counters = on_warm.memo.expect("memo on");
        let tq_cold_counters = tq_cold.memo.expect("memo on");
        let tq_warm_counters = tq_warm.memo.expect("memo on");
        if variant.name == "duplicated" {
            assert!(
                warm_counters.hits > 0,
                "warm duplicated stream must hit the memo cache: {warm_counters:?}"
            );
            // The 2Q gate: deferring first-touch installs must not cost
            // a genuinely re-referenced stream its warm hit rate — the
            // repeats earn installation on the second touch, so by the
            // warm pass the cache holds the same hot set.
            assert!(
                tq_warm_counters.hit_rate() >= warm_counters.hit_rate() - 0.01,
                "2Q must keep the duplicated stream's warm hit rate (always-install {:.3}, second-touch {:.3})",
                warm_counters.hit_rate(),
                tq_warm_counters.hit_rate()
            );
            assert!(
                tq_cold_counters.deferred > 0,
                "cold 2Q pass must defer first-touch installs: {tq_cold_counters:?}"
            );
        }
        println!(
            "  hit rate: cold {:.2} ({}/{} probes), warm {:.2} ({}/{} probes)",
            cold_counters.hit_rate(),
            cold_counters.hits,
            cold_counters.hits + cold_counters.misses,
            warm_counters.hit_rate(),
            warm_counters.hits,
            warm_counters.hits + warm_counters.misses,
        );
        println!(
            "  2Q: cold hit rate {:.2} ({} deferred), warm hit rate {:.2} ({} deferred)",
            tq_cold_counters.hit_rate(),
            tq_cold_counters.deferred,
            tq_warm_counters.hit_rate(),
            tq_warm_counters.deferred,
        );

        // Timed reps, memo-off and memo-on interleaved: fresh pool per
        // rep, pass 1 is the cold measurement, pass 2 the warm one.
        let mut times: [Vec<u128>; 6] = Default::default();
        let arms = [
            (0usize, 0usize, InstallPolicy::Always),
            (1, MEMO_BYTES, InstallPolicy::Always),
            (2, MEMO_BYTES, InstallPolicy::SecondTouch),
        ];
        for _ in 0..reps {
            for (oi, bytes, install) in arms {
                let mut driver = BatchDriver::new(&CompilationPlan::from_plan(
                    plan,
                    config(bytes).with_memo_install(install),
                ));
                for pass in 0..2 {
                    let t = Instant::now();
                    let report = driver.compile_batch(trees.iter().cloned()).unwrap();
                    std::hint::black_box(report.outputs.len());
                    times[oi * 2 + pass].push(t.elapsed().as_nanos());
                }
            }
        }
        let [off_cold_ns, off_warm_ns, on_cold_ns, on_warm_ns, tq_cold_ns, tq_warm_ns] =
            times.map(median);
        let tps = |ns: u128| count as f64 / (ns as f64 / 1e9);
        let warm_ratio = tps(on_warm_ns) / tps(off_warm_ns);
        let cold_ratio = tps(on_cold_ns) / tps(off_cold_ns);
        println!(
            "  memo-off: cold {:.1} / warm {:.1} trees/sec; memo-on: cold {:.1} / warm {:.1} trees/sec — warm memo-on is {warm_ratio:.2}x memo-off",
            tps(off_cold_ns),
            tps(off_warm_ns),
            tps(on_cold_ns),
            tps(on_warm_ns),
        );

        out.push_str(&format!("    \"{}\": {{\n", variant.name));
        out.push_str(&format!(
            "      \"distinct_sources\": {},\n",
            variant.distinct
        ));
        out.push_str(&format!("      \"tree_nodes_avg\": {nodes_avg},\n"));
        out.push_str(&format!(
            "      \"hit_rate\": {{ \"cold\": {:.3}, \"warm\": {:.3} }},\n",
            cold_counters.hit_rate(),
            warm_counters.hit_rate()
        ));
        out.push_str(&format!(
            "      \"memo_off\": {{ \"cold_trees_per_sec\": {:.1}, \"warm_trees_per_sec\": {:.1} }},\n",
            tps(off_cold_ns),
            tps(off_warm_ns)
        ));
        out.push_str(&format!(
            "      \"memo_on\": {{ \"cold_trees_per_sec\": {:.1}, \"warm_trees_per_sec\": {:.1} }},\n",
            tps(on_cold_ns),
            tps(on_warm_ns)
        ));
        out.push_str(&format!(
            "      \"memo_on_vs_off\": {{ \"cold\": {cold_ratio:.2}, \"warm\": {warm_ratio:.2} }},\n"
        ));
        out.push_str(&format!(
            "      \"second_touch\": {{ \"hit_rate\": {{ \"cold\": {:.3}, \"warm\": {:.3} }}, \"deferred\": {{ \"cold\": {}, \"warm\": {} }}, \"cold_trees_per_sec\": {:.1}, \"warm_trees_per_sec\": {:.1}, \"warm_vs_always_install\": {:.2} }}\n"
        ,
            tq_cold_counters.hit_rate(),
            tq_warm_counters.hit_rate(),
            tq_cold_counters.deferred,
            tq_warm_counters.deferred,
            tps(tq_cold_ns),
            tps(tq_warm_ns),
            tps(tq_warm_ns) / tps(on_warm_ns),
        ));
        out.push_str(if vi + 1 == variants.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  },\n");
}

/// Upper bound on the huge tree's retire share (see
/// [`run_single_tree`]): this box reads 0.24–0.28 now, and read
/// 0.6–0.7 while retirement re-walked every code rope.
const RETIRE_SHARE_GATE: f64 = 0.40;

/// The `--single-tree` axis: one bigger-than-paper tree compiled
/// whole-tree (fixed-count regions ≤ workers) vs adaptive-region
/// (cost-driven budget, regions ≫ workers), reps interleaved so the
/// ratio is a same-box, same-moment comparison. Appends a
/// `single_tree` object (with a trailing comma) to the JSON.
fn run_single_tree(compiler: &Compiler, args: &Args, out: &mut String) {
    let (workload, cfg) = if args.smoke {
        ("paper", GenConfig::paper())
    } else {
        ("huge", GenConfig::huge())
    };
    let src = generate(&cfg);
    let tree = compiler
        .tree_from_source(&src)
        .expect("generated workload parses");
    let plan = compiler.evals.plan();
    // Budget ≈ a quarter of a worker's fair share: several region jobs
    // per worker, so stragglers interleave. On a single-core host the
    // extra regions cost wall clock (each machine pays its own
    // construction; there is no idle core to fill) — the sim section
    // below shows the scheduling win on a real machine park.
    let budget = (plan.tree_work(&tree) / (args.workers as u64 * 4)).max(1);
    let whole_cfg = DriverConfig::workers(args.workers).with_pipeline_depth(args.depth);
    let adaptive_cfg = whole_cfg.with_adaptive_budget(budget);
    let reps = if args.smoke { 3 } else { 7 };
    println!(
        "single tree ({workload}): {} nodes, budget {budget} work units",
        tree.len()
    );

    let run = |config: DriverConfig| -> (u128, usize) {
        let t = Instant::now();
        let cp = CompilationPlan::from_plan(plan, config);
        let mut driver = BatchDriver::new(&cp);
        let output = driver.compile_tree(&tree).expect("evaluation succeeds");
        std::hint::black_box(output.stats.total_applied());
        (t.elapsed().as_nanos(), output.regions)
    };
    run(whole_cfg); // warm-up
    let mut whole_times = Vec::with_capacity(reps);
    let mut adaptive_times = Vec::with_capacity(reps);
    let (mut whole_regions, mut adaptive_regions) = (0usize, 0usize);
    for _ in 0..reps {
        let (t, r) = run(whole_cfg);
        whole_times.push(t);
        whole_regions = r;
        let (t, r) = run(adaptive_cfg);
        adaptive_times.push(t);
        adaptive_regions = r;
    }
    let wm = median(whole_times);
    let am = median(adaptive_times);
    let wall_ratio = wm as f64 / am as f64;
    println!(
        "  whole-tree: median {wm} ns ({whole_regions} regions); adaptive-region: median {am} ns ({adaptive_regions} regions) — adaptive is {wall_ratio:.2}x whole-tree wall clock"
    );

    // Retire share: of dispatch → finished output, the part the
    // retiring thread spends after the last region reported (librarian
    // reply, memo install, store assembly, inflation). Always on the
    // huge tree, where a retirement that re-walks code text shows: it
    // was 0.6–0.7 there before retirement became O(boundary). What is
    // left is sizing the whole-tree store and moving the region stores
    // into it. Each duration is the fastest of five runs — a box that
    // stalls can only add to either — and their ratio is gated.
    let huge_tree = if args.smoke {
        compiler
            .tree_from_source(&generate(&GenConfig::huge()))
            .expect("generated workload parses")
    } else {
        Arc::clone(&tree)
    };
    let (mut retire_elapsed, mut retire_assemble) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        let cp = CompilationPlan::from_plan(plan, whole_cfg);
        let output = BatchDriver::new(&cp)
            .compile_tree(&huge_tree)
            .expect("evaluation succeeds");
        retire_elapsed = retire_elapsed.min(output.elapsed);
        retire_assemble = retire_assemble.min(output.assemble);
    }
    let retire_share =
        retire_assemble.as_secs_f64() / (retire_elapsed + retire_assemble).as_secs_f64();
    println!(
        "  retire share (huge, {} nodes, fastest of 5): assemble {:.1} ms / (elapsed {:.1} ms + assemble) = {retire_share:.2}",
        huge_tree.len(),
        retire_assemble.as_secs_f64() * 1e3,
        retire_elapsed.as_secs_f64() * 1e3,
    );
    assert!(
        retire_share <= RETIRE_SHARE_GATE,
        "retiring the huge tree took {retire_share:.2} of its pool time (gate {RETIRE_SHARE_GATE}): is retirement walking code text again?"
    );

    // Store-construction axis: how many attribute slots the region
    // machines of each decomposition allocate in total / at peak.
    // Region-local stores put both modes at ≈1× the tree's instance
    // count (owned spans partition the instances; boundary aliases are
    // the only overhead), where whole-tree stores per machine used to
    // cost regions × tree instances under adaptive granularity.
    let split_table = SplitTable::new(tree.grammar().as_ref(), 1.0);
    let machine_slots = |granularity: RegionGranularity| -> (usize, usize, usize) {
        let d = decompose_granular(&tree, &split_table, plan.work_table(), granularity);
        let map = d.slot_map();
        (0..d.len() as RegionId).fold((0, 0, map.tree_instances()), |(total, peak, ti), r| {
            let slots = map.total_slots(r);
            (total + slots, peak.max(slots), ti)
        })
    };
    let (whole_slots, whole_peak, tree_instances) =
        machine_slots(RegionGranularity::Machines(args.workers));
    let (adaptive_slots, adaptive_peak, _) = machine_slots(RegionGranularity::Adaptive { budget });
    println!(
        "  store slots: tree {tree_instances}; whole-tree machines Σ{whole_slots} (peak {whole_peak}); adaptive machines Σ{adaptive_slots} (peak {adaptive_peak})"
    );

    // Deterministic simulated-network comparison: a stream led by the
    // single big tree plus small units behind it — the head-of-line
    // case region granularity exists for.
    let plans = compiler.evals.plans().expect("pascal grammar is l-ordered");
    let machines = args.workers.max(2);
    let mut stream = vec![Arc::clone(&tree)];
    stream.extend(build_trees(compiler, &scales(true)[0].cfg, 4));
    let sim_cfg = SimConfig::paper(machines);
    let whole_ms = run_sim_batch(&stream, Some(plans), &sim_cfg, args.depth).makespan;
    let adaptive_ms = run_sim_stream(
        &stream,
        Some(plans),
        &sim_cfg,
        args.depth,
        RegionGranularity::Adaptive { budget },
        &FaultPlan::default(),
        None,
    )
    .expect("a non-empty stream with no faults is acceptable")
    .makespan;
    let sim_ratio = whole_ms as f64 / adaptive_ms as f64;
    println!(
        "  sim ({machines} machines, {} trees): whole-tree {whole_ms}µs, adaptive {adaptive_ms}µs — adaptive is {sim_ratio:.2}x whole-tree throughput",
        stream.len()
    );

    out.push_str("  \"single_tree\": {\n");
    out.push_str(&format!("    \"workload\": {workload:?},\n"));
    out.push_str(&format!("    \"tree_nodes\": {},\n", tree.len()));
    out.push_str(&format!("    \"budget_work_units\": {budget},\n"));
    out.push_str(&format!(
        "    \"whole_tree\": {{ \"median_ns\": {wm}, \"regions\": {whole_regions} }},\n"
    ));
    out.push_str(&format!(
        "    \"adaptive_region\": {{ \"median_ns\": {am}, \"regions\": {adaptive_regions} }},\n"
    ));
    out.push_str(&format!(
        "    \"adaptive_vs_whole_tree_wall\": {wall_ratio:.2},\n"
    ));
    out.push_str(&format!(
        "    \"retire\": {{ \"tree_nodes\": {}, \"elapsed_ns\": {}, \"assemble_ns\": {}, \"share\": {retire_share:.3} }},\n",
        huge_tree.len(),
        retire_elapsed.as_nanos(),
        retire_assemble.as_nanos()
    ));
    out.push_str("    \"store_slots\": {\n");
    out.push_str(&format!("      \"tree_instances\": {tree_instances},\n"));
    out.push_str(&format!(
        "      \"whole_tree\": {{ \"machine_total\": {whole_slots}, \"machine_peak\": {whole_peak} }},\n"
    ));
    out.push_str(&format!(
        "      \"adaptive_region\": {{ \"machine_total\": {adaptive_slots}, \"machine_peak\": {adaptive_peak} }}\n"
    ));
    out.push_str("    },\n");
    out.push_str("    \"sim\": {\n");
    out.push_str(&format!("      \"machines\": {machines},\n"));
    out.push_str(&format!("      \"trees\": {},\n", stream.len()));
    out.push_str(&format!("      \"whole_tree_makespan_us\": {whole_ms},\n"));
    out.push_str(&format!("      \"adaptive_makespan_us\": {adaptive_ms},\n"));
    out.push_str(&format!(
        "      \"adaptive_vs_whole_tree\": {sim_ratio:.2}\n"
    ));
    out.push_str("    }\n");
    out.push_str("  },\n");
}

/// The `--sched` axis: fixed modular placement vs the work-stealing
/// scheduler on a skewed stream. Pascal trees decompose into exactly
/// `machines` regions whose *head* region (declarations + the root's
/// code concatenation) carries roughly twice the work of its siblings,
/// so a stream of several huge trees is the shape fixed placement
/// handles worst: every tree's heavy head region lands on machine 0
/// (region r always maps to machine r mod N) while LPT seeding spreads
/// one head region per machine. The stream is `machines` huge trees
/// interleaved with as many proc-scale small ones, at pipeline depth
/// `machines` so the skew actually overlaps in flight. Wall-clock reps
/// run interleaved; the deterministic simulated network is the ranking
/// that matters on a single-core host. Asserts zero result divergence
/// between the schedulers, that stealing is never worse in the sim,
/// and — the acceptance bar — that stealing clears 1.15× fixed
/// throughput on this stream. Appends a `sched` object (with a
/// trailing comma) to the JSON.
fn run_sched(compiler: &Compiler, args: &Args, out: &mut String) {
    let (workload, cfg) = if args.smoke {
        ("paper", GenConfig::paper())
    } else {
        ("huge", GenConfig::huge())
    };
    let big = compiler
        .tree_from_source(&generate(&cfg))
        .expect("generated workload parses");
    let machines = args.workers.max(2);
    let depth = machines;
    let mut stream = vec![Arc::clone(&big); machines];
    let pcfg = scales(true).remove(0).cfg;
    stream.extend(build_trees(compiler, &pcfg, machines));
    let plan = compiler.evals.plan();
    let reps = if args.smoke { 3 } else { 7 };
    println!(
        "sched ({workload}): {} trees, head tree {} nodes",
        stream.len(),
        big.len()
    );

    let config = |sched: SchedulerMode| {
        DriverConfig::workers(args.workers)
            .with_pipeline_depth(depth)
            .with_scheduler(sched)
    };

    // Equivalence gate: the stealing pool's outputs must be
    // value-identical to fixed placement's on every tree.
    let compile = |sched: SchedulerMode| {
        let mut driver = BatchDriver::new(&CompilationPlan::from_plan(plan, config(sched)));
        driver.compile_batch(stream.iter().cloned()).unwrap()
    };
    let fixed_out = compile(SchedulerMode::Fixed);
    let steal_out = compile(SchedulerMode::Stealing);
    for (i, tree) in stream.iter().enumerate() {
        assert_outputs_match(
            tree,
            &steal_out.outputs[i],
            &fixed_out.outputs[i],
            &format!("sched tree {i}"),
        );
    }

    // Wall-clock reps, interleaved. On a single-core host both
    // schedulers serialize onto one core and the ratio hovers near
    // 1.0; the telemetry still shows the placement differences.
    let run_live = |sched: SchedulerMode| -> u128 {
        let t = Instant::now();
        let mut driver = BatchDriver::new(&CompilationPlan::from_plan(plan, config(sched)));
        let report = driver.compile_batch(stream.iter().cloned()).unwrap();
        std::hint::black_box(report.outputs.len());
        t.elapsed().as_nanos()
    };
    run_live(SchedulerMode::Fixed); // warm-up
    let mut fixed_ns = Vec::with_capacity(reps);
    let mut steal_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        fixed_ns.push(run_live(SchedulerMode::Fixed));
        steal_ns.push(run_live(SchedulerMode::Stealing));
    }
    let (fm, sm) = (median(fixed_ns), median(steal_ns));
    let wall_ratio = fm as f64 / sm as f64;
    println!(
        "  wall clock: fixed median {fm} ns, stealing median {sm} ns — stealing is {wall_ratio:.2}x fixed"
    );

    // Deterministic simulated network: the ranking the scheduler was
    // validated on, and the CI gate.
    let plans = compiler.evals.plans().expect("pascal grammar is l-ordered");
    let sim_cfg = SimConfig::paper(machines);
    let fixed_rep = run_sim_batch(&stream, Some(plans), &sim_cfg, depth);
    let steal_rep = run_sim_batch(
        &stream,
        Some(plans),
        &sim_cfg.clone().with_scheduler(SchedulerMode::Stealing),
        depth,
    );
    for (i, (f, s)) in fixed_rep
        .root_values
        .iter()
        .zip(&steal_rep.root_values)
        .enumerate()
    {
        assert_eq!(f, s, "sim tree {i}: root values diverged under stealing");
    }
    let sim_ratio = fixed_rep.makespan as f64 / steal_rep.makespan as f64;
    let sc = steal_rep.sched;
    println!(
        "  sim ({machines} machines): fixed {}µs, stealing {}µs — stealing is {sim_ratio:.2}x fixed throughput ({} steals, {} local / {} remote sends)",
        fixed_rep.makespan, steal_rep.makespan, sc.steals, sc.local_sends, sc.remote_sends
    );
    assert!(
        steal_rep.makespan <= fixed_rep.makespan,
        "stealing ({}µs) must not be worse than fixed placement ({}µs) on the skewed stream",
        steal_rep.makespan,
        fixed_rep.makespan
    );
    assert!(
        sim_ratio >= 1.15,
        "stealing must clear 1.15x fixed placement on the skewed stream (got {sim_ratio:.2}x)"
    );

    out.push_str("  \"sched\": {\n");
    out.push_str(&format!("    \"workload\": {workload:?},\n"));
    out.push_str(&format!("    \"trees\": {},\n", stream.len()));
    out.push_str(&format!("    \"head_tree_nodes\": {},\n", big.len()));
    out.push_str(&format!("    \"pipeline_depth\": {depth},\n"));
    out.push_str(&format!(
        "    \"wall\": {{ \"fixed_median_ns\": {fm}, \"stealing_median_ns\": {sm}, \"stealing_vs_fixed\": {wall_ratio:.2} }},\n"
    ));
    out.push_str("    \"sim\": {\n");
    out.push_str(&format!("      \"machines\": {machines},\n"));
    out.push_str(&format!(
        "      \"fixed_makespan_us\": {},\n",
        fixed_rep.makespan
    ));
    out.push_str(&format!(
        "      \"stealing_makespan_us\": {},\n",
        steal_rep.makespan
    ));
    out.push_str(&format!("      \"stealing_vs_fixed\": {sim_ratio:.2},\n"));
    out.push_str(&format!(
        "      \"steals\": {}, \"migrated_attrs\": {}, \"local_sends\": {}, \"remote_sends\": {}\n",
        sc.steals, sc.migrated_attrs, sc.local_sends, sc.remote_sends
    ));
    out.push_str("    }\n");
    out.push_str("  },\n");
}

fn main() {
    let args = parse_args();
    let compiler = Compiler::new();
    let batch_sizes: &[usize] = if args.smoke { &[1, 4] } else { &[1, 16, 256] };

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": {:?},\n", args.label));
    out.push_str(&format!("  \"workers\": {},\n", args.workers));
    out.push_str(&format!("  \"pipeline_depth\": {},\n", args.depth));
    out.push_str(&format!(
        "  \"batch_sizes\": [{}],\n",
        batch_sizes
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let scales = scales(args.smoke);
    let mut all_amortized = true;
    let mut all_pipelined_win = true;
    // Ratios are barrier-vs-pipelined by *name*, independent of the
    // order --modes listed them in.
    let barrier_idx = args.modes.iter().position(|m| m.name == "barrier");
    let pipelined_idx = args.modes.iter().position(|m| m.name == "pipelined");
    for (si, scale) in scales.iter().enumerate() {
        let distinct = batch_sizes.iter().copied().max().unwrap().min(32);
        let trees = build_trees(&compiler, &scale.cfg, distinct);
        let nodes_avg: usize = trees.iter().map(|t| t.len()).sum::<usize>() / trees.len();
        println!(
            "scale {}: {} distinct trees, ~{} nodes each",
            scale.name,
            trees.len(),
            nodes_avg
        );

        out.push_str(&format!("  \"{}\": {{\n", scale.name));
        out.push_str(&format!("    \"tree_nodes_avg\": {nodes_avg},\n"));
        let regions = regions_per_tree(&compiler, &trees, args.workers);
        println!("  {}: regions per tree {regions}", scale.name);
        out.push_str(&format!("    \"regions_per_tree\": {regions},\n"));
        assert!(
            !(args.smoke && scale.name == "proc") || regions == 1,
            "a procedure-sized tree was cut into {regions} regions: trees below the pool's hand-off floor must stay whole"
        );
        // Per mode: (batch, trees/sec) series.
        let mut per_mode: Vec<Vec<(usize, f64)>> = vec![Vec::new(); args.modes.len()];
        for &batch in batch_sizes {
            // Keep total work per batch size comparable: more reps for
            // small batches, fewer for large ones.
            let reps = if args.smoke {
                2
            } else {
                (512 / batch).clamp(7, 15)
            };
            // Warm-up (loads code paths, grows allocator arenas).
            run_batch(&compiler, &trees, batch.min(4), args.workers, 1);
            // Interleave the modes rep-by-rep: the barrier-vs-pipelined
            // ratio is then a same-box, same-moment comparison.
            let mut times: Vec<Vec<u128>> = vec![Vec::new(); args.modes.len()];
            for _ in 0..reps {
                for (mi, mode) in args.modes.iter().enumerate() {
                    times[mi].push(run_batch(
                        &compiler,
                        &trees,
                        batch,
                        args.workers,
                        mode.depth,
                    ));
                }
            }
            out.push_str(&format!("    \"batch_{batch}\": {{\n"));
            for (mi, mode) in args.modes.iter().enumerate() {
                let med = median(times[mi].clone());
                let tps = batch as f64 / (med as f64 / 1e9);
                per_mode[mi].push((batch, tps));
                println!(
                    "  {}/batch_{batch}/{}: median {med} ns/batch, {tps:.1} trees/sec ({reps} reps)",
                    scale.name, mode.name
                );
                out.push_str(&format!("      \"{}\": {{\n", mode.name));
                out.push_str(&format!("        \"median_ns_per_batch\": {med},\n"));
                out.push_str(&format!("        \"trees_per_sec\": {tps:.1}\n"));
                out.push_str("      },\n");
            }
            if let (Some(bi), Some(pi)) = (barrier_idx, pipelined_idx) {
                let ratio = per_mode[pi].last().unwrap().1 / per_mode[bi].last().unwrap().1;
                println!(
                    "  {}/batch_{batch}: pipelined is {ratio:.2}x barrier",
                    scale.name
                );
                out.push_str(&format!("      \"pipelined_vs_barrier\": {ratio:.2}\n"));
            } else {
                // Strip the trailing comma of the last mode entry.
                let cut = out.trim_end_matches(",\n").len();
                out.truncate(cut);
                out.push('\n');
            }
            out.push_str("    },\n");
        }
        // Scale summary: amortization (largest batch vs batch 1,
        // preferring the pipelined series) and the pipelining win at
        // the largest batch.
        let summary_idx = pipelined_idx.unwrap_or(0);
        let series = &per_mode[summary_idx];
        let (b0, tps0) = series[0];
        let (bn, tpsn) = *series.last().unwrap();
        let speedup = tpsn / tps0;
        if speedup < 1.3 {
            all_amortized = false;
        }
        println!(
            "  {}: batch_{bn} is {speedup:.2}x batch_{b0} throughput ({})",
            scale.name, args.modes[summary_idx].name
        );
        out.push_str(&format!("    \"speedup_batch_{bn}_vs_{b0}\": {speedup:.2}"));
        if let (Some(bi), Some(pi)) = (barrier_idx, pipelined_idx) {
            let ratio = per_mode[pi].last().unwrap().1 / per_mode[bi].last().unwrap().1;
            if ratio < 1.10 {
                all_pipelined_win = false;
            }
            println!(
                "  {}: pipelined batch_{bn} is {ratio:.2}x barrier batch_{bn}",
                scale.name
            );
            out.push_str(&format!(
                ",\n    \"pipelined_vs_barrier_batch_{bn}\": {ratio:.2}\n"
            ));
        } else {
            out.push('\n');
        }
        out.push_str("  },\n");
        let _ = si;
    }

    // Cross-request memo-cache axis (duplicated / shared-prefix /
    // i.i.d. streams, cache off vs on, cold and warm).
    if args.memo {
        run_memo(&compiler, &args, &mut out);
    }

    // Region-granular single-tree axis (adaptive vs whole-tree on one
    // bigger-than-paper tree).
    if args.single_tree {
        run_single_tree(&compiler, &args, &mut out);
    }

    // Scheduler axis (fixed modular placement vs work stealing on a
    // skewed stream).
    if args.sched {
        run_sched(&compiler, &args, &mut out);
    }

    // Simulated multi-machine axis: the same kind of stream on the
    // paper's network-of-workstations model, where the pipelined
    // schedule has real (virtual) machines whose idle tails the next
    // tree can fill. The stream mixes the scales (real compilation
    // streams mix unit sizes): a small tree behind a large one slots
    // into the stragglers' gaps. Deterministic — one run per mode, and
    // only when both modes are requested (single-mode CI smoke steps
    // skip it; core's sim tests cover it).
    if barrier_idx.is_some() && pipelined_idx.is_some() {
        let machines = args.workers.max(2);
        let stream_len = if args.smoke { 6 } else { 24 };
        let per_scale: Vec<Vec<Arc<ParseTree<PVal>>>> = scales
            .iter()
            .map(|s| build_trees(&compiler, &s.cfg, (stream_len / 2).clamp(3, 16)))
            .collect();
        let stream: Vec<Arc<ParseTree<PVal>>> = (0..stream_len)
            .map(|i| {
                let s = &per_scale[i % per_scale.len()];
                Arc::clone(&s[(i / per_scale.len()) % s.len()])
            })
            .collect();
        let plans = compiler.evals.plans().expect("pascal grammar is l-ordered");
        let sim_cfg = SimConfig::paper(machines);
        let run = |depth: usize| run_sim_batch(&stream, Some(plans), &sim_cfg, depth).makespan;
        let barrier = run(1);
        let pipelined = run(args.depth);
        let ratio = barrier as f64 / pipelined as f64;
        println!(
            "sim ({machines} machines, {stream_len} trees): barrier {barrier}µs, pipelined {pipelined}µs — pipelined is {ratio:.2}x barrier throughput"
        );
        out.push_str("  \"sim\": {\n");
        out.push_str(&format!("    \"machines\": {machines},\n"));
        out.push_str(&format!("    \"trees\": {stream_len},\n"));
        out.push_str(&format!("    \"barrier_makespan_us\": {barrier},\n"));
        out.push_str(&format!("    \"pipelined_makespan_us\": {pipelined},\n"));
        out.push_str(&format!("    \"pipelined_vs_barrier\": {ratio:.2}\n"));
        out.push_str("  }\n");
        if ratio < 1.10 {
            all_pipelined_win = false;
        }
    } else {
        // No sim object: strip the last scale's trailing comma.
        let cut = out.trim_end_matches(",\n").len();
        out.truncate(cut);
        out.push('\n');
    }
    out.push_str("}\n");

    if let Some(path) = &args.out {
        std::fs::write(path, &out).expect("write output");
        println!("wrote {path}");
    }
    if !all_amortized {
        println!("warning: amortization below 1.3x on at least one scale");
    }
    if args.modes.len() == 2 && !all_pipelined_win {
        println!("warning: pipelining below 1.10x over the barrier on at least one scale");
    }
}
