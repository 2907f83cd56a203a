//! Latency benchmark for the open-arrival compilation service.
//!
//! `bench_throughput` measures *batches*: all trees known up front,
//! nobody waiting. This binary measures the **service** question —
//! when requests arrive on their own schedule, how long does each one
//! wait from enqueue to assembled output, and how much does the
//! dispatch policy change the tail?
//!
//! A seeded request stream ([`paragram_bench::stream`]) mixes size
//! classes — mostly procedure-sized requests, a few compilation units,
//! the paper program, and a bigger-than-paper huge unit as the skew
//! contaminant — with exponential (Poisson) interarrivals. The same
//! stream is replayed against:
//!
//! * **wall**: a real [`ServiceQueue`] over the worker pool, arrivals
//!   paced to ≈0.9 utilization (estimated from a short calibration),
//!   bounded waiting room (`--capacity`), per-request timestamps from
//!   [`paragram_driver::RequestTimes`]. Wall numbers are informational
//!   on a loaded host — the policy *ranking* is not taken from them.
//! * **sim**: the deterministic 4-machine network simulator
//!   (`run_sim_stream` with `Arrivals`), same arrival schedule
//!   compressed to virtual µs so the waiting room actually fills. This
//!   is where the policy
//!   comparison is reproducible bit-for-bit on a 1-core box — and it
//!   runs *the same `PolicyQueue` code* the wall service dispatches
//!   with.
//!
//! Each of FIFO, shortest-job-first (keyed by `EvalPlan::tree_work`)
//! and per-tenant deficit fair queueing runs both sections; the JSON
//! reports p50/p95/p99 latency per size class plus trees/sec and shed
//! counts, and a `sim_ranking` object compares p99 on the dominant
//! (`proc`) class. On a skewed stream a non-FIFO policy must improve
//! that tail — `--smoke` re-reads the emitted JSON, validates the
//! schema, and **fails (exit 1)** if SJF's sim p99 exceeds FIFO's.
//!
//! With `--sched`, the FIFO stream is additionally replayed under the
//! work-stealing scheduler (`SchedulerMode::Stealing`) on both the wall
//! service and the sim park, reporting proc-class p99 side by side with
//! the steal/locality telemetry from [`paragram_driver::ServiceStats`].
//! Informational: latency tails on this small-dominated stream are a
//! placement wash by design — the throughput acceptance scenario lives
//! in `bench_throughput --sched`.
//!
//! With `--faults`, the FIFO stream is additionally replayed on the
//! stealing sim park with a seeded mid-evaluation crash+restart of one
//! evaluator ([`paragram_netsim::FaultPlan`]): the victim and crash
//! instant are probed deterministically until the crash lands on held
//! work, and the `faults` JSON section records the recovery telemetry.
//! `--smoke --faults` **gates** (exit 1 on violation): zero output
//! divergence vs the fault-free run, recovered makespan ≤ 1.25× the
//! fault-free makespan, regions re-executed and duplicate deliveries
//! suppressed both > 0, and shed accounting unchanged by the crash.
//!
//! A `duplicated_traffic` section additionally replays the stream with
//! `template_fraction` 0.5 (half the requests drawn from a small
//! template pool — the replay shape of real fleets) against a memo-off
//! and a memo-on wall service, recording shed/p99 deltas and the cache
//! hit rate. Informational only: the deltas are reported, not gated.
//!
//! Writes `BENCH_latency.json` (override with `--out`; `--smoke`
//! writes `target/BENCH_latency.smoke.json` unless `--out` is given).
//!
//! Usage: `cargo run --release --bin bench_latency --
//! [--smoke] [--sched] [--faults] [--workers N] [--depth N]
//! [--capacity N] [--requests N] [--seed N] [--out PATH] [--label TEXT]`

use paragram_bench::percentile;
use paragram_bench::stream::{generate_stream, RequestSpec, SizeClass, StreamConfig};
use paragram_core::parallel::policy::DispatchPolicy;
use paragram_core::parallel::pool::SchedulerMode;
use paragram_core::parallel::sim::{
    run_sim_stream, Arrivals, BatchSimReport, SimConfig, SimRequest,
};
use paragram_core::split::RegionGranularity;
use paragram_core::tree::ParseTree;
use paragram_driver::{
    Admission, BatchDriver, CompilationPlan, DriverConfig, ServiceConfig, ServiceQueue,
};
use paragram_netsim::FaultPlan;
use paragram_pascal::generator::generate;
use paragram_pascal::{Compiler, PVal};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    smoke: bool,
    sched: bool,
    faults: bool,
    workers: usize,
    depth: usize,
    capacity: usize,
    requests: usize,
    seed: u64,
    out: String,
    label: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        sched: false,
        faults: false,
        workers: 4,
        depth: 2,
        capacity: 32,
        requests: 0, // resolved after --smoke is known
        seed: 2026,
        out: String::new(),
        label: "current".to_string(),
    };
    let mut requests: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        let int = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: {name} takes an integer");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--sched" => args.sched = true,
            "--faults" => args.faults = true,
            "--workers" => args.workers = int("--workers", val("--workers")).max(1),
            "--depth" => args.depth = int("--depth", val("--depth")).max(1),
            "--capacity" => args.capacity = int("--capacity", val("--capacity")).max(1),
            "--requests" => requests = Some(int("--requests", val("--requests")).max(1)),
            "--seed" => args.seed = int("--seed", val("--seed")) as u64,
            "--out" => out = Some(val("--out")),
            "--label" => args.label = val("--label"),
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\nusage: bench_latency [--smoke] [--sched] [--faults] [--workers N] [--depth N] [--capacity N] [--requests N] [--seed N] [--out PATH] [--label TEXT]"
                );
                std::process::exit(2);
            }
        }
    }
    args.requests = requests.unwrap_or(if args.smoke { 24 } else { 96 });
    args.out = out.unwrap_or_else(|| {
        if args.smoke {
            "target/BENCH_latency.smoke.json".to_string()
        } else {
            "BENCH_latency.json".to_string()
        }
    });
    args
}

const POLICIES: [DispatchPolicy; 3] = [
    DispatchPolicy::Fifo,
    DispatchPolicy::ShortestJobFirst,
    DispatchPolicy::FairQueue { quantum: 0 }, // quantum resolved per stream
];

/// Trees for a stream, index-aligned with the requests. Big classes
/// draw from small pre-parsed pools (parsing many distinct huge
/// programs would dominate the benchmark's setup), small classes stay
/// distinct per request.
fn build_trees(compiler: &Compiler, stream: &[RequestSpec]) -> Vec<Arc<ParseTree<PVal>>> {
    let pool_size = |class: SizeClass| match class {
        SizeClass::Proc => 32u64,
        SizeClass::Unit => 16,
        SizeClass::Paper => 2,
        SizeClass::Huge => 1,
    };
    let mut pools: HashMap<(SizeClass, u64), Arc<ParseTree<PVal>>> = HashMap::new();
    stream
        .iter()
        .map(|req| {
            let key = (req.class, req.seed % pool_size(req.class));
            Arc::clone(pools.entry(key).or_insert_with(|| {
                let src = generate(&req.class.gen_config(1 + key.1));
                compiler
                    .tree_from_source(&src)
                    .expect("generated workload parses")
            }))
        })
        .collect()
}

struct SectionResult {
    /// Latency µs per request (None = shed), index-aligned with the
    /// stream.
    latencies: Vec<Option<u64>>,
    shed: usize,
    trees_per_sec: f64,
}

/// Replays the stream against the real service queue, pacing arrivals
/// by `ns_per_tick` and pumping between them. Also returns the
/// service's memo counters (all zero unless the plan enables the
/// cache).
fn run_wall(
    plan: &CompilationPlan<PVal>,
    trees: &[Arc<ParseTree<PVal>>],
    stream: &[RequestSpec],
    policy: DispatchPolicy,
    capacity: usize,
    ns_per_tick: f64,
) -> (
    SectionResult,
    paragram_core::memo::MemoCounters,
    paragram_core::parallel::pool::SchedCounters,
) {
    let mut q = ServiceQueue::new(plan, ServiceConfig::fifo(capacity).with_policy(policy));
    let mut ids: Vec<Option<u64>> = vec![None; stream.len()];
    let start = Instant::now();
    for (i, req) in stream.iter().enumerate() {
        let due = start + Duration::from_nanos((req.arrival as f64 * ns_per_tick) as u64);
        loop {
            q.pump();
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(500)));
        }
        if let Admission::Admitted { id } = q.offer(&trees[i], req.tenant) {
            ids[i] = Some(id);
        }
    }
    q.drain();
    let elapsed = start.elapsed();
    let stats = q.stats();
    let latencies = ids
        .iter()
        .map(|id| {
            id.map(|id| {
                let t = q.times(id).expect("admitted request has times");
                t.latency().expect("drained request assembled").as_micros() as u64
            })
        })
        .collect();
    (
        SectionResult {
            latencies,
            shed: stats.shed,
            trees_per_sec: stats.completed as f64 / elapsed.as_secs_f64(),
        },
        stats.memo,
        stats.sched,
    )
}

/// Replays the stream on the simulated machine park (deterministic;
/// ticks become virtual µs, which floods the waiting room and makes
/// the policy differences visible and reproducible).
#[allow(clippy::too_many_arguments)]
fn run_sim(
    trees: &[Arc<ParseTree<PVal>>],
    stream: &[RequestSpec],
    plans: &Arc<paragram_core::analysis::Plans>,
    machines: usize,
    depth: usize,
    policy: DispatchPolicy,
    capacity: usize,
    scheduler: SchedulerMode,
) -> SectionResult {
    let requests: Vec<SimRequest> = stream
        .iter()
        .map(|r| SimRequest {
            arrival_us: r.arrival,
            tenant: r.tenant,
        })
        .collect();
    let report = run_sim_stream(
        trees,
        Some(plans),
        &SimConfig::paper(machines).with_scheduler(scheduler),
        depth,
        RegionGranularity::Machines(machines),
        &FaultPlan::default(),
        Some(Arrivals {
            requests: &requests,
            policy,
            queue_capacity: capacity,
        }),
    )
    .expect("generated streams are sorted, one request per tree");
    let completed = stream.len() - report.shed_count();
    SectionResult {
        latencies: (0..stream.len()).map(|i| report.latency(i)).collect(),
        shed: report.shed_count(),
        trees_per_sec: completed as f64 / (report.makespan as f64 / 1e6),
    }
}

/// Emits one section's per-class percentiles.
fn push_section(out: &mut String, indent: &str, r: &SectionResult, stream: &[RequestSpec]) {
    out.push_str(&format!("{indent}\"shed\": {},\n", r.shed));
    out.push_str(&format!(
        "{indent}\"trees_per_sec\": {:.2},\n",
        r.trees_per_sec
    ));
    out.push_str(&format!("{indent}\"per_class\": {{\n"));
    let classes = [
        SizeClass::Proc,
        SizeClass::Unit,
        SizeClass::Paper,
        SizeClass::Huge,
    ];
    let present: Vec<SizeClass> = classes
        .into_iter()
        .filter(|c| stream.iter().any(|s| s.class == *c))
        .collect();
    for (ci, class) in present.iter().enumerate() {
        let sample: Vec<u64> = stream
            .iter()
            .zip(&r.latencies)
            .filter(|(s, _)| s.class == *class)
            .filter_map(|(_, l)| *l)
            .collect();
        let comma = if ci + 1 == present.len() { "" } else { "," };
        out.push_str(&format!(
            "{indent}  \"{}\": {{ \"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }}{comma}\n",
            class.name(),
            sample.len(),
            percentile(&sample, 50),
            percentile(&sample, 95),
            percentile(&sample, 99),
        ));
    }
    out.push_str(&format!("{indent}}}\n"));
}

/// p99 of one class's completed latencies in a section.
fn class_p99(r: &SectionResult, stream: &[RequestSpec], class: SizeClass) -> u64 {
    let sample: Vec<u64> = stream
        .iter()
        .zip(&r.latencies)
        .filter(|(s, _)| s.class == class)
        .filter_map(|(_, l)| *l)
        .collect();
    percentile(&sample, 99)
}

/// Extracts `"key": <int>` from a JSON string by scanning (the smoke
/// validator's minimal parser — the schema is our own).
fn scan_int(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `--smoke` gate: re-read the emitted JSON, check the schema keys,
/// and enforce the policy ranking on the deterministic sim stream —
/// plus, with `--faults`, the crash-recovery gates on the `faults`
/// section.
fn validate(path: &str, faults: bool) {
    let json = std::fs::read_to_string(path).expect("re-read emitted JSON");
    for key in [
        "\"label\"",
        "\"policies\"",
        "\"fifo\"",
        "\"sjf\"",
        "\"fair\"",
        "\"wall\"",
        "\"sim\"",
        "\"per_class\"",
        "\"p50_us\"",
        "\"p95_us\"",
        "\"p99_us\"",
        "\"trees_per_sec\"",
        "\"shed\"",
        "\"sim_ranking\"",
        "\"sim_admission\"",
        "\"duplicated_traffic\"",
    ] {
        assert!(json.contains(key), "schema: missing {key} in {path}");
    }
    let fifo = scan_int(&json, "fifo_p99_us").expect("sim_ranking.fifo_p99_us");
    let sjf = scan_int(&json, "sjf_p99_us").expect("sim_ranking.sjf_p99_us");
    println!("smoke gate: sim proc p99 fifo={fifo}µs sjf={sjf}µs");
    if sjf > fifo {
        eprintln!(
            "FAIL: shortest-job-first p99 ({sjf}µs) exceeds FIFO p99 ({fifo}µs) on the skewed sim stream"
        );
        std::process::exit(1);
    }
    println!("smoke gate passed: SJF p99 <= FIFO p99 on the dominant class");

    if faults {
        assert!(
            json.contains("\"faults\""),
            "schema: missing faults section"
        );
        let get = |key: &str| scan_int(&json, key).unwrap_or_else(|| panic!("faults.{key}"));
        let divergent = get("divergent_trees");
        let reexec = get("regions_reexecuted");
        let dups = get("dup_suppressed");
        let clean_ms = get("clean_makespan_us");
        let faulty_ms = get("faulty_makespan_us");
        let (clean_shed, faulty_shed) = (get("clean_shed"), get("faulty_shed"));
        println!(
            "faults gate: {reexec} re-executed, {dups} dups suppressed, {divergent} divergent, makespan {faulty_ms}µs vs {clean_ms}µs, shed {faulty_shed} vs {clean_shed}"
        );
        let mut failed = false;
        if divergent != 0 {
            eprintln!("FAIL: {divergent} trees diverged from the fault-free output");
            failed = true;
        }
        if reexec == 0 || dups == 0 {
            eprintln!(
                "FAIL: the crash exercised no recovery (regions_reexecuted {reexec}, dup_suppressed {dups})"
            );
            failed = true;
        }
        // Recovery bound: the detour costs at most 25% of the
        // fault-free makespan on the open-arrival stream.
        if faulty_ms * 4 > clean_ms * 5 {
            eprintln!(
                "FAIL: recovered makespan {faulty_ms}µs exceeds 1.25× fault-free {clean_ms}µs"
            );
            failed = true;
        }
        if faulty_shed != clean_shed {
            eprintln!(
                "FAIL: crash changed admission accounting ({clean_shed} → {faulty_shed} shed)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "faults gate passed: byte-identical recovery within 1.25× makespan, shed accounting intact"
        );
    }
}

fn main() {
    let args = parse_args();
    let compiler = Compiler::new();

    // The stream: skewed small-dominated mix; smoke substitutes the
    // paper program for the huge unit to stay seconds-scale (the skew
    // survives — paper is still ~100× a proc request).
    let mut stream_cfg = StreamConfig::skewed(args.requests, args.seed);
    if args.smoke {
        stream_cfg = stream_cfg.capped(SizeClass::Paper);
    }
    let stream = generate_stream(&stream_cfg);
    // The whole point is a *skewed* stream: without at least one
    // big-class contaminant the policy comparison is vacuous.
    assert!(
        stream
            .iter()
            .any(|s| matches!(s.class, SizeClass::Paper | SizeClass::Huge)),
        "stream drew no big-class request — pick another --seed or more --requests"
    );
    let trees = build_trees(&compiler, &stream);
    let nodes: usize = trees.iter().map(|t| t.len()).sum();
    println!(
        "stream: {} requests, {} total nodes, classes {:?}",
        stream.len(),
        nodes,
        {
            let mut counts = HashMap::new();
            for s in &stream {
                *counts.entry(s.class.name()).or_insert(0usize) += 1;
            }
            let mut v: Vec<_> = counts.into_iter().collect();
            v.sort();
            v
        }
    );

    let plan_shared = compiler.evals.plan();
    let driver_cfg = DriverConfig::workers(args.workers).with_pipeline_depth(args.depth);
    let plan = CompilationPlan::from_plan(plan_shared, driver_cfg);
    let plans = compiler.evals.plans().expect("pascal grammar is l-ordered");

    // Fair-queueing quantum: the median request's work estimate.
    let works: Vec<u64> = trees.iter().map(|t| plan_shared.tree_work(t)).collect();
    let quantum = {
        let mut w = works.clone();
        w.sort_unstable();
        w[w.len() / 2].max(1)
    };

    // Pace wall arrivals to ≈0.9 utilization: estimate per-tree wall
    // cost from a short calibration (ns per work unit on this box).
    let ns_per_tick = {
        let mut driver = BatchDriver::new(&CompilationPlan::from_plan(plan_shared, driver_cfg));
        let probe: Vec<_> = trees.iter().take(8).cloned().collect();
        driver.compile_batch(probe.clone()).expect("calibration");
        let t = Instant::now();
        driver.compile_batch(probe.clone()).expect("calibration");
        let probe_work: u64 = probe.iter().map(|t| plan_shared.tree_work(t)).sum();
        let ns_per_work = t.elapsed().as_nanos() as f64 / probe_work as f64;
        let total_ns = works.iter().sum::<u64>() as f64 * ns_per_work;
        let span_ticks = stream.last().expect("non-empty stream").arrival.max(1);
        (total_ns / 0.9) / span_ticks as f64
    };
    println!("wall pacing: {ns_per_tick:.0} ns/tick (≈0.9 utilization target)");

    let resolve = |p: DispatchPolicy| match p {
        DispatchPolicy::FairQueue { .. } => DispatchPolicy::FairQueue { quantum },
        other => other,
    };

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"label\": {:?},\n", args.label));
    out.push_str(&format!("  \"workers\": {},\n", args.workers));
    out.push_str(&format!("  \"pipeline_depth\": {},\n", args.depth));
    out.push_str(&format!("  \"capacity\": {},\n", args.capacity));
    out.push_str(&format!("  \"requests\": {},\n", stream.len()));
    out.push_str(&format!("  \"fair_quantum_work\": {quantum},\n"));
    out.push_str("  \"policies\": {\n");

    let mut sim_results: Vec<(DispatchPolicy, SectionResult)> = Vec::new();
    for (pi, &policy) in POLICIES.iter().enumerate() {
        let policy = resolve(policy);
        let name = policy.name();
        println!("policy {name}: wall section");
        let (wall, _, _) = run_wall(&plan, &trees, &stream, policy, args.capacity, ns_per_tick);
        println!(
            "  wall: {:.1} trees/sec, {} shed, proc p99 {}µs",
            wall.trees_per_sec,
            wall.shed,
            class_p99(&wall, &stream, SizeClass::Proc)
        );
        println!("policy {name}: sim section (4-machine park)");
        // The ranking runs unbounded so every policy serves the same
        // request set; deterministic shed accounting is measured
        // separately below.
        let sim = run_sim(
            &trees,
            &stream,
            plans,
            4,
            args.depth,
            policy,
            stream.len(),
            SchedulerMode::Fixed,
        );
        println!(
            "  sim: {:.1} trees/sec, proc p99 {}µs",
            sim.trees_per_sec,
            class_p99(&sim, &stream, SizeClass::Proc)
        );
        out.push_str(&format!("    \"{name}\": {{\n"));
        out.push_str("      \"wall\": {\n");
        push_section(&mut out, "        ", &wall, &stream);
        out.push_str("      },\n");
        out.push_str("      \"sim\": {\n");
        push_section(&mut out, "        ", &sim, &stream);
        out.push_str("      }\n");
        out.push_str(if pi + 1 == POLICIES.len() {
            "    }\n"
        } else {
            "    },\n"
        });
        sim_results.push((policy, sim));
    }
    out.push_str("  },\n");

    // Deterministic shed accounting: the same sim stream against the
    // bounded waiting room (FIFO; admission is policy-independent at a
    // given queue length, but drain order changes how fast it empties).
    let bounded = run_sim(
        &trees,
        &stream,
        plans,
        4,
        args.depth,
        DispatchPolicy::Fifo,
        args.capacity.min(8),
        SchedulerMode::Fixed,
    );
    out.push_str("  \"sim_admission\": {\n");
    out.push_str(&format!("    \"capacity\": {},\n", args.capacity.min(8)));
    out.push_str(&format!("    \"offered\": {},\n", stream.len()));
    out.push_str(&format!("    \"shed\": {}\n", bounded.shed));
    out.push_str("  },\n");
    println!(
        "sim admission (capacity {}): {} of {} shed",
        args.capacity.min(8),
        bounded.shed,
        stream.len()
    );

    // Duplicated-traffic replay: the same arrival schedule with half
    // the requests drawing from a small template pool, served memo-off
    // vs memo-on (FIFO). Recorded as shed/p99 deltas — informational
    // wall numbers, deliberately not gated yet. Both sides use
    // adaptive granularity (budget = the median request's work) so the
    // cache's leaf regions exist; small duplicated requests then replay
    // as whole-tree hits.
    let dup_fraction = 0.5;
    let dup_stream = generate_stream(&stream_cfg.clone().with_template_fraction(dup_fraction));
    let dup_trees = build_trees(&compiler, &dup_stream);
    let adaptive_cfg = driver_cfg.with_adaptive_budget(quantum);
    let (dup_off, _, _) = run_wall(
        &CompilationPlan::from_plan(plan_shared, adaptive_cfg),
        &dup_trees,
        &dup_stream,
        DispatchPolicy::Fifo,
        args.capacity,
        ns_per_tick,
    );
    let (dup_on, dup_memo, _) = run_wall(
        &CompilationPlan::from_plan(plan_shared, adaptive_cfg.with_memo_capacity(64 << 20)),
        &dup_trees,
        &dup_stream,
        DispatchPolicy::Fifo,
        args.capacity,
        ns_per_tick,
    );
    let (off_p99, on_p99) = (
        class_p99(&dup_off, &dup_stream, SizeClass::Proc),
        class_p99(&dup_on, &dup_stream, SizeClass::Proc),
    );
    out.push_str("  \"duplicated_traffic\": {\n");
    out.push_str(&format!("    \"template_fraction\": {dup_fraction},\n"));
    out.push_str("    \"policy\": \"fifo\",\n");
    out.push_str(&format!(
        "    \"memo_off\": {{ \"shed\": {}, \"trees_per_sec\": {:.2}, \"proc_p99_us\": {} }},\n",
        dup_off.shed, dup_off.trees_per_sec, off_p99
    ));
    out.push_str(&format!(
        "    \"memo_on\": {{ \"shed\": {}, \"trees_per_sec\": {:.2}, \"proc_p99_us\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3} }},\n",
        dup_on.shed,
        dup_on.trees_per_sec,
        on_p99,
        dup_memo.hits,
        dup_memo.misses,
        dup_memo.hit_rate()
    ));
    out.push_str(&format!(
        "    \"delta\": {{ \"proc_p99_us\": {}, \"shed\": {} }}\n",
        on_p99 as i64 - off_p99 as i64,
        dup_on.shed as i64 - dup_off.shed as i64
    ));
    out.push_str("  },\n");
    println!(
        "duplicated traffic (fraction {dup_fraction}): memo-off proc p99 {off_p99}µs / shed {}, memo-on proc p99 {on_p99}µs / shed {} (hit rate {:.2})",
        dup_off.shed,
        dup_on.shed,
        dup_memo.hit_rate()
    );

    // The --sched axis: FIFO replayed under the stealing scheduler,
    // wall (with steal telemetry) and sim, against the Fixed runs
    // above. Informational — see the module doc.
    if args.sched {
        let steal_plan = CompilationPlan::from_plan(
            plan_shared,
            driver_cfg.with_scheduler(SchedulerMode::Stealing),
        );
        let (wall_fixed, _, _) = run_wall(
            &plan,
            &trees,
            &stream,
            DispatchPolicy::Fifo,
            args.capacity,
            ns_per_tick,
        );
        let (wall_steal, _, wsched) = run_wall(
            &steal_plan,
            &trees,
            &stream,
            DispatchPolicy::Fifo,
            args.capacity,
            ns_per_tick,
        );
        let sim_steal = run_sim(
            &trees,
            &stream,
            plans,
            4,
            args.depth,
            DispatchPolicy::Fifo,
            stream.len(),
            SchedulerMode::Stealing,
        );
        let sim_fixed_p99 = sim_results
            .iter()
            .find(|(p, _)| p.name() == "fifo")
            .map(|(_, r)| class_p99(r, &stream, SizeClass::Proc))
            .expect("fifo ran");
        let (wf_p99, ws_p99) = (
            class_p99(&wall_fixed, &stream, SizeClass::Proc),
            class_p99(&wall_steal, &stream, SizeClass::Proc),
        );
        let ss_p99 = class_p99(&sim_steal, &stream, SizeClass::Proc);
        out.push_str(
            "  \"sched\": {
",
        );
        out.push_str(
            "    \"policy\": \"fifo\",
",
        );
        out.push_str(&format!(
            "    \"wall\": {{ \"fixed_proc_p99_us\": {wf_p99}, \"stealing_proc_p99_us\": {ws_p99}, \"steals\": {}, \"migrated_attrs\": {}, \"local_sends\": {}, \"remote_sends\": {} }},
",
            wsched.steals, wsched.migrated_attrs, wsched.local_sends, wsched.remote_sends
        ));
        out.push_str(&format!(
            "    \"sim\": {{ \"fixed_proc_p99_us\": {sim_fixed_p99}, \"stealing_proc_p99_us\": {ss_p99} }}
"
        ));
        out.push_str(
            "  },
",
        );
        println!(
            "sched (fifo): wall proc p99 fixed {wf_p99}µs / stealing {ws_p99}µs ({} steals, {} local / {} remote sends); sim proc p99 fixed {sim_fixed_p99}µs / stealing {ss_p99}µs",
            wsched.steals, wsched.local_sends, wsched.remote_sends
        );
    }

    // The --faults axis: the FIFO stream replayed on the stealing sim
    // park with a mid-evaluation crash+restart of one evaluator. The
    // victim/instant pair is probed deterministically (the sim replays
    // bit-for-bit, so the probe always lands on the same pair) until
    // the crash hits held work AND forces duplicate-suppressed replay —
    // the recovery paths the smoke exists to exercise.
    if args.faults {
        let machines = 4usize;
        let cfg = SimConfig::paper(machines).with_scheduler(SchedulerMode::Stealing);
        let requests: Vec<SimRequest> = stream
            .iter()
            .map(|r| SimRequest {
                arrival_us: r.arrival,
                tenant: r.tenant,
            })
            .collect();
        let run_faulty = |plan: &FaultPlan| -> BatchSimReport<PVal> {
            run_sim_stream(
                &trees,
                Some(plans),
                &cfg,
                args.depth,
                RegionGranularity::Machines(machines),
                plan,
                Some(Arrivals {
                    requests: &requests,
                    policy: DispatchPolicy::Fifo,
                    queue_capacity: stream.len(),
                }),
            )
            .expect("the probe only crashes evaluator machines of a stealing park")
        };
        let clean = run_faulty(&FaultPlan::default());

        // Candidate crash instants: quarters of the evaluation window,
        // from the first dispatch to the fault-free makespan.
        let d0 = clean
            .dispatched
            .iter()
            .flatten()
            .copied()
            .min()
            .expect("stream dispatched at least one request");
        let downtime = (clean.makespan / 20).max(1);
        let probe = (1..=3u64)
            .flat_map(|frac| {
                (1..=machines).map(move |victim| (victim, d0 + (clean.makespan - d0) * frac / 4))
            })
            .map(|(victim, at)| {
                let plan = FaultPlan::seeded(args.seed).crash_restart(victim, at, downtime);
                (victim, at, run_faulty(&plan))
            })
            .find(|(_, _, rep)| rep.faults.regions_reexecuted > 0 && rep.faults.dup_suppressed > 0);
        let (victim, crash_at, faulty) =
            probe.expect("some victim×instant crash lands on mid-evaluation work");

        // Byte-identical recovery: every request's root attributes,
        // compared content-deep (ropes by bytes) after canonicalizing
        // by attribute id — faults may reorder arrival, never content.
        let canonical = |rep: &BatchSimReport<PVal>| -> Vec<Vec<(u32, PVal)>> {
            rep.root_values
                .iter()
                .map(|roots| {
                    let mut r: Vec<(u32, PVal)> =
                        roots.iter().map(|(a, v)| (a.0, v.clone())).collect();
                    r.sort_by_key(|(a, _)| *a);
                    r
                })
                .collect()
        };
        let divergent = canonical(&clean)
            .iter()
            .zip(canonical(&faulty).iter())
            .filter(|(c, f)| c != f)
            .count();
        let f = faulty.faults;
        out.push_str("  \"faults\": {\n");
        out.push_str(&format!("    \"victim\": {victim},\n"));
        out.push_str(&format!("    \"crash_at_us\": {crash_at},\n"));
        out.push_str(&format!("    \"restart_after_us\": {downtime},\n"));
        out.push_str(&format!("    \"crashes\": {},\n", f.crashes));
        out.push_str(&format!(
            "    \"regions_reexecuted\": {},\n",
            f.regions_reexecuted
        ));
        out.push_str(&format!("    \"dup_suppressed\": {},\n", f.dup_suppressed));
        out.push_str(&format!("    \"divergent_trees\": {divergent},\n"));
        out.push_str(&format!("    \"clean_makespan_us\": {},\n", clean.makespan));
        out.push_str(&format!(
            "    \"faulty_makespan_us\": {},\n",
            faulty.makespan
        ));
        out.push_str(&format!("    \"clean_shed\": {},\n", clean.shed_count()));
        out.push_str(&format!("    \"faulty_shed\": {}\n", faulty.shed_count()));
        out.push_str("  },\n");
        println!(
            "faults (fifo, stealing): crash p{victim}@{crash_at}µs ↓{downtime}µs — {} regions re-executed, {} dups suppressed, {} divergent trees, makespan {}µs vs clean {}µs",
            f.regions_reexecuted, f.dup_suppressed, divergent, faulty.makespan, clean.makespan
        );
    }

    // The ranking object the smoke gate reads: p99 on the dominant
    // small class, per policy, on the deterministic sim.
    let p99 = |name: &str| {
        sim_results
            .iter()
            .find(|(p, _)| p.name() == name)
            .map(|(_, r)| class_p99(r, &stream, SizeClass::Proc))
            .expect("policy ran")
    };
    let (f, s, q) = (p99("fifo"), p99("sjf"), p99("fair"));
    let winner = if s <= f.min(q) {
        "sjf"
    } else if q <= f {
        "fair"
    } else {
        "fifo"
    };
    out.push_str("  \"sim_ranking\": {\n");
    out.push_str("    \"class\": \"proc\",\n");
    out.push_str(&format!("    \"fifo_p99_us\": {f},\n"));
    out.push_str(&format!("    \"sjf_p99_us\": {s},\n"));
    out.push_str(&format!("    \"fair_p99_us\": {q},\n"));
    out.push_str(&format!("    \"winner\": \"{winner}\"\n"));
    out.push_str("  }\n");
    out.push_str("}\n");
    println!("sim ranking (proc p99): fifo {f}µs, sjf {s}µs, fair {q}µs — winner {winner}");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &out).expect("write output");
    println!("wrote {}", args.out);

    if args.smoke {
        validate(&args.out, args.faults);
    }
}
