//! Perf-trajectory benchmark for the dynamic pipeline.
//!
//! Measures, on the paper workload (and the small workload for quick
//! sanity), the median wall-clock time of:
//!
//! * `dynamic_eval` — graph construction + dynamic evaluation,
//! * `static_eval` — compiled-visit-program evaluation (no graph; the
//!   programs are prebuilt with the plan, outside the timed loop),
//! * `machine_combined` — a whole-tree combined-mode [`Machine`] run
//!   over the same programs (the region engine's sequential floor),
//! * dependency-graph construction alone (a dynamic-mode [`Machine`]
//!   over the undecomposed tree builds exactly the instance graph).
//!
//! With `--programs-vs-segments` the static measurement becomes an
//! *interleaved* A/B comparison against the reference segment walker
//! (`static_eval_segments`): iterations alternate program/segment on
//! the same box so neither side benefits from thermal or cache drift.
//! The run fails (non-zero exit) if the compiled programs are slower
//! than the segment walker by more than 10% on any non-small workload —
//! CI runs this in `--smoke` mode as a dispatch-regression gate.
//!
//! Every measurement times its closure *and* dropping what it returned,
//! so `static_eval` is evaluation plus tearing the attribute store down.
//! `store_drop_ms` beside it says how much of that is the teardown (the
//! median time to drop a store evaluated outside the clock), and a
//! counting allocator — this binary's only — says what the two cost in
//! heap traffic per tree node: `eval_allocs_per_node` (allocations made
//! by one `static_eval`, a `realloc` counting once) and
//! `store_frees_per_node` (frees made by dropping its store). The counts
//! repeat exactly, so `--smoke` fails when the paper workload's exceed
//! the ceilings `crates/pascal/tests/alloc_budget.rs` pins.
//!
//! Writes `BENCH_dynamic.json` (override with `--out`). With
//! `--baseline FILE` (a previous run's output), the new file embeds the
//! baseline numbers and the relative improvement so the repo can track
//! its perf trajectory across PRs.
//!
//! Usage: `cargo run --release --bin bench_dynamic -- [--iters N]
//! [--out PATH] [--baseline PATH] [--label TEXT] [--huge] [--smoke]
//! [--programs-vs-segments]`

use paragram_bench::Workload;
use paragram_core::eval::{
    dynamic_eval, static_eval_segments, static_eval_with_programs, EvalPlan, Machine, MachineMode,
    MachineScratch,
};
use paragram_core::split::Decomposition;
use paragram_pascal::generator::GenConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Regression gate: programs must not trail the segment walker by more
/// than this factor on non-small workloads.
const GATE_RATIO: f64 = 1.10;

/// Allocation gate on the paper workload, per tree node: the ceilings of
/// `crates/pascal/tests/alloc_budget.rs` for the same two counts.
const EVAL_ALLOCS_CEILING: f64 = 3.05;
const STORE_FREES_CEILING: f64 = 3.00;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations and frees; everything else is
/// `System`'s.
struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Args {
    iters: usize,
    out: String,
    baseline: Option<String>,
    label: String,
    huge: bool,
    smoke: bool,
    programs_vs_segments: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 15,
        out: "BENCH_dynamic.json".to_string(),
        baseline: None,
        label: "current".to_string(),
        huge: false,
        smoke: false,
        programs_vs_segments: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--iters" => {
                args.iters = val("--iters").parse().unwrap_or_else(|_| {
                    eprintln!("error: --iters takes an integer");
                    std::process::exit(2);
                });
                args.iters = args.iters.max(1);
            }
            "--out" => args.out = val("--out"),
            "--baseline" => args.baseline = Some(val("--baseline")),
            "--label" => args.label = val("--label"),
            "--huge" => args.huge = true,
            "--smoke" => args.smoke = true,
            "--programs-vs-segments" => args.programs_vs_segments = true,
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\nusage: bench_dynamic [--iters N] [--out PATH] [--baseline PATH] [--label TEXT] [--huge] [--smoke] [--programs-vs-segments]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.smoke {
        // Quick CI mode: fewer iterations, never the huge workload.
        args.iters = args.iters.min(9);
        args.huge = false;
    }
    args
}

/// Median of `iters` timed runs, in nanoseconds.
fn median_ns<O>(iters: usize, mut f: impl FnMut() -> O) -> u128 {
    let mut times: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_nanos());
    }
    times.sort_unstable();
    times[times.len() / 2]
}

/// Interleaved A/B medians: each iteration times `a` then `b`
/// back-to-back, so both sides see the same thermal, frequency and
/// cache conditions. Returns `(median_a, median_b)`.
fn medians_interleaved<A, B>(
    iters: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u128, u128) {
    let mut ta: Vec<u128> = Vec::with_capacity(iters);
    let mut tb: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(a());
        ta.push(t.elapsed().as_nanos());
        let t = Instant::now();
        std::hint::black_box(b());
        tb.push(t.elapsed().as_nanos());
    }
    ta.sort_unstable();
    tb.sort_unstable();
    (ta[ta.len() / 2], tb[tb.len() / 2])
}

struct Measurement {
    name: &'static str,
    median_ns: u128,
}

struct WorkloadResults {
    measurements: Vec<Measurement>,
    /// Relative advantage of programs over segments (positive =
    /// programs faster), from the interleaved comparison.
    programs_vs_segments_pct: Option<f64>,
    teardown: Teardown,
}

/// What tearing down the store of one `static_eval` costs.
struct Teardown {
    store_drop_ms: f64,
    eval_allocs_per_node: f64,
    store_frees_per_node: f64,
}

fn measure_teardown(w: &Workload, iters: usize) -> Teardown {
    let mut drops: Vec<u128> = (0..iters)
        .map(|_| {
            let evaluated = w.compiler.evals.eval_sequential(&w.tree).unwrap();
            let t = Instant::now();
            drop(evaluated);
            t.elapsed().as_nanos()
        })
        .collect();
    drops.sort_unstable();
    let per_node = |n: u64| n as f64 / w.tree.len() as f64;
    let allocs = ALLOCS.get();
    let evaluated = w.compiler.evals.eval_sequential(&w.tree).unwrap();
    let eval_allocs = ALLOCS.get() - allocs;
    let frees = FREES.get();
    drop(evaluated);
    Teardown {
        store_drop_ms: drops[drops.len() / 2] as f64 / 1e6,
        eval_allocs_per_node: per_node(eval_allocs),
        store_frees_per_node: per_node(FREES.get() - frees),
    }
}

fn measure(w: &Workload, iters: usize, compare_segments: bool) -> WorkloadResults {
    let whole = Decomposition::whole(&w.tree);
    // Plan tables are grammar-level and shared; build them outside the
    // timed loop so graph_build isolates graph construction.
    let dyn_plan = Arc::new(EvalPlan::from_parts(w.tree.grammar(), None, None));
    let plan = w.plan();
    let programs = plan
        .programs()
        .expect("pascal grammar compiles to programs");

    let mut measurements = vec![Measurement {
        name: "dynamic_eval",
        median_ns: median_ns(iters, || dynamic_eval(&w.tree).unwrap()),
    }];
    let mut pct = None;
    if compare_segments {
        let (prog_ns, seg_ns) = medians_interleaved(
            iters,
            || static_eval_with_programs(&w.tree, &w.plans, programs).unwrap(),
            || static_eval_segments(&w.tree, &w.plans).unwrap(),
        );
        pct = Some(100.0 * (seg_ns as f64 - prog_ns as f64) / seg_ns as f64);
        measurements.push(Measurement {
            name: "static_eval",
            median_ns: prog_ns,
        });
        measurements.push(Measurement {
            name: "static_eval_segments",
            median_ns: seg_ns,
        });
    } else {
        measurements.push(Measurement {
            name: "static_eval",
            median_ns: median_ns(iters, || {
                static_eval_with_programs(&w.tree, &w.plans, programs).unwrap()
            }),
        });
    }
    measurements.push(Measurement {
        name: "machine_combined",
        median_ns: median_ns(iters, || {
            let mut m = Machine::from_plan(
                plan,
                &w.tree,
                &whole,
                0,
                MachineMode::Combined,
                MachineScratch::new(),
            );
            m.run().unwrap();
            assert!(m.is_done());
        }),
    });
    measurements.push(Measurement {
        name: "graph_build",
        median_ns: median_ns(iters, || {
            Machine::from_plan(
                &dyn_plan,
                &w.tree,
                &whole,
                0,
                MachineMode::Dynamic,
                MachineScratch::new(),
            )
            .graph_size()
        }),
    });
    WorkloadResults {
        measurements,
        programs_vs_segments_pct: pct,
        teardown: measure_teardown(w, iters),
    }
}

/// Pulls `"name": { ... "median_ns": N ... }` out of a previous run's
/// JSON without a JSON parser (the format is our own, flat and stable).
fn baseline_value(json: &str, workload: &str, name: &str) -> Option<u128> {
    let w = json.find(&format!("\"{workload}\""))?;
    let sect = &json[w..];
    let k = sect.find(&format!("\"{name}\""))?;
    let rest = &sect[k..];
    let m = rest.find("\"median_ns\":")?;
    let tail = rest[m + "\"median_ns\":".len()..].trim_start();
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn main() {
    let args = parse_args();
    let baseline = args.baseline.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {p}: {e}");
            std::process::exit(2);
        })
    });

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": {:?},\n", args.label));
    out.push_str(&format!("  \"iters\": {},\n", args.iters));

    let mut workloads = vec![("small", GenConfig::small()), ("paper", GenConfig::paper())];
    if args.huge {
        workloads.push(("huge", GenConfig::huge()));
    }
    let mut gate_failures: Vec<String> = Vec::new();
    for (wi, (wname, cfg)) in workloads.iter().enumerate() {
        let w = Workload::from_config(cfg);
        let (d, dstats) = dynamic_eval(&w.tree).unwrap();
        drop(d);
        println!(
            "workload {wname}: {} lines, {} nodes, graph {} nodes / {} edges",
            w.lines(),
            w.tree.len(),
            dstats.graph_nodes,
            dstats.graph_edges
        );
        let results = measure(&w, args.iters, args.programs_vs_segments);
        out.push_str(&format!("  \"{wname}\": {{\n"));
        out.push_str(&format!("    \"source_lines\": {},\n", w.lines()));
        out.push_str(&format!("    \"tree_nodes\": {},\n", w.tree.len()));
        out.push_str(&format!("    \"graph_nodes\": {},\n", dstats.graph_nodes));
        out.push_str(&format!("    \"graph_edges\": {},\n", dstats.graph_edges));
        if let Some(pct) = results.programs_vs_segments_pct {
            out.push_str(&format!("    \"programs_vs_segments_pct\": {pct:.1},\n"));
            println!("  {wname}/programs_vs_segments: programs {pct:+.1}% vs segments");
            if *wname != "small" && pct < 100.0 * (1.0 - GATE_RATIO) {
                gate_failures.push(format!(
                    "{wname}: compiled programs are {:.1}% slower than the segment walker (gate: {:.0}%)",
                    -pct,
                    100.0 * (GATE_RATIO - 1.0)
                ));
            }
        }
        let Teardown {
            store_drop_ms,
            eval_allocs_per_node,
            store_frees_per_node,
        } = results.teardown;
        out.push_str(&format!("    \"store_drop_ms\": {store_drop_ms:.3},\n"));
        out.push_str(&format!(
            "    \"eval_allocs_per_node\": {eval_allocs_per_node:.3},\n"
        ));
        out.push_str(&format!(
            "    \"store_frees_per_node\": {store_frees_per_node:.3},\n"
        ));
        println!(
            "  {wname}/store_drop: {store_drop_ms:.3} ms ({eval_allocs_per_node:.3} allocations per node to evaluate, {store_frees_per_node:.3} frees per node to drop)"
        );
        if args.smoke
            && *wname == "paper"
            && (eval_allocs_per_node > EVAL_ALLOCS_CEILING
                || store_frees_per_node > STORE_FREES_CEILING)
        {
            gate_failures.push(format!(
                "{wname}: {eval_allocs_per_node:.3} allocations per node to evaluate (ceiling {EVAL_ALLOCS_CEILING}), {store_frees_per_node:.3} frees per node to drop the store (ceiling {STORE_FREES_CEILING})"
            ));
        }
        let ms = &results.measurements;
        for (i, m) in ms.iter().enumerate() {
            let base = baseline
                .as_deref()
                .and_then(|b| baseline_value(b, wname, m.name));
            out.push_str(&format!("    \"{}\": {{\n", m.name));
            out.push_str(&format!("      \"median_ns\": {}", m.median_ns));
            if let Some(base) = base {
                let pct = 100.0 * (base as f64 - m.median_ns as f64) / base as f64;
                out.push_str(&format!(",\n      \"baseline_median_ns\": {base}"));
                out.push_str(&format!(",\n      \"improvement_pct\": {pct:.1}"));
                println!(
                    "  {wname}/{}: {} ns (baseline {base} ns, {pct:+.1}%)",
                    m.name, m.median_ns
                );
            } else {
                println!("  {wname}/{}: {} ns", m.name, m.median_ns);
            }
            out.push_str("\n    }");
            out.push_str(if i + 1 < ms.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }");
        out.push_str(if wi + 1 < workloads.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("}\n");
    std::fs::write(&args.out, out).expect("write output");
    println!("wrote {}", args.out);
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
