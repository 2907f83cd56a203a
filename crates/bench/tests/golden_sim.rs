//! Golden virtual times of the simulator on the Pascal workloads the
//! figure bins and the benchmark run, and on the skewed streams that
//! gate placement, dispatch policy and crash recovery. The simulation
//! is deterministic, so these are exact: a moved number is a changed
//! policy or protocol, never noise. Each pin sits beside the bound it
//! must keep. (The mini-grammar pins — stealing, service, crash
//! recovery — live in `paragram_core::parallel::sim`'s unit tests.)

use paragram_bench::stream::{generate_stream, RequestSpec, SizeClass, StreamConfig};
use paragram_bench::Workload;
use paragram_core::grammar::AttrId;
use paragram_core::parallel::policy::DispatchPolicy;
use paragram_core::parallel::sim::{
    run_sim, run_sim_batch, run_sim_stream, Arrivals, BatchSimReport, SimConfig, SimRequest,
};
use paragram_core::parallel::SchedulerMode;
use paragram_core::split::RegionGranularity;
use paragram_core::tree::ParseTree;
use paragram_netsim::{FaultPlan, Trace};
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{Compiler, PVal};
use std::collections::HashMap;
use std::sync::Arc;

fn parse(compiler: &Compiler, cfg: &GenConfig) -> Arc<ParseTree<PVal>> {
    compiler
        .tree_from_source(&generate(cfg))
        .expect("generated program parses")
}

/// Figure 5's end points: the paper program alone on 1 and 5 machines.
///
/// `run_sim` is a batch of one, so the parser waits for every region's
/// `Done` before its final read, not only for the root attributes: on 5
/// machines the last `Done` lands 1,039 µs (0.009 %) after the last root
/// attribute; on 1 machine it is already there.
#[test]
fn paper_workload_eval_times_are_pinned() {
    let w = Workload::paper();
    let eval = |machines| run_sim(&w.tree, Some(&w.plans), &SimConfig::paper(machines)).eval_time;
    assert_eq!(eval(1), 26_071_643);
    assert_eq!(eval(5), 11_024_894);
}

/// The benchmark's batch shape: 24 alternating proc/unit programs on 4
/// machines at depth 2 under fixed placement.
#[test]
fn mixed_batch_makespan_is_pinned() {
    let compiler = Compiler::new();
    let plans = compiler.evals.plans().expect("pascal grammar is ordered");
    let trees: Vec<_> = (0..24u64)
        .map(|i| {
            let class = if i % 2 == 0 {
                SizeClass::Proc
            } else {
                SizeClass::Unit
            };
            parse(&compiler, &class.gen_config(100 + i))
        })
        .collect();
    let report = run_sim_batch(&trees, Some(plans), &SimConfig::paper(4), 2);
    assert_eq!(report.makespan, 4_564_587);
    assert_eq!(report.finish_times[0], 424_856);
    assert_eq!(report.finish_times[23], report.makespan);
}

/// Fixed placement against work stealing on the stream fixed placement
/// handles worst. A Pascal tree splits into one region per machine, and
/// its head region (declarations plus the root's code concatenation)
/// carries about twice a sibling's work. So four paper trees put every
/// head region on machine 0 under fixed placement (region `r` goes to
/// machine `r mod 4`), while LPT seeding spreads them. Four
/// procedure-sized trees follow, and depth 4 makes the skew overlap in
/// flight. Stealing must clear 1.15× fixed with identical root values.
#[test]
fn stealing_beats_fixed_placement_on_the_skewed_stream() {
    let compiler = Compiler::new();
    let plans = compiler.evals.plans().expect("pascal grammar is ordered");
    let mut stream = vec![parse(&compiler, &GenConfig::paper()); 4];
    stream.extend((7..11).map(|seed| parse(&compiler, &SizeClass::Proc.gen_config(seed))));
    let cfg = SimConfig::paper(4);
    let fixed = run_sim_batch(&stream, Some(plans), &cfg, 4);
    let cfg = cfg.with_scheduler(SchedulerMode::Stealing);
    let stealing = run_sim_batch(&stream, Some(plans), &cfg, 4);

    assert_eq!(fixed.makespan, 42_790_466);
    assert_eq!(stealing.makespan, 29_708_295);
    let s = stealing.sched;
    assert_eq!((s.steals, s.local_sends, s.remote_sends), (2, 29, 131));

    assert_eq!(fixed.root_values, stealing.root_values);
    assert!(stealing.makespan <= fixed.makespan);
    let ratio = fixed.makespan as f64 / stealing.makespan as f64;
    assert!(ratio >= 1.15, "stealing is {ratio:.2}x fixed placement");
}

/// The service stream the dispatch and recovery pins replay: 24
/// skewed requests with the huge class capped at paper size, and
/// their trees. Big classes draw from small pools of pre-parsed trees
/// (parsing many distinct paper programs would dominate the test),
/// small classes stay distinct per request.
fn service_stream(compiler: &Compiler) -> (Vec<RequestSpec>, Vec<Arc<ParseTree<PVal>>>) {
    let stream = generate_stream(&StreamConfig::skewed(24, 2026).capped(SizeClass::Paper));
    let pool_size = |class| match class {
        SizeClass::Proc => 32u64,
        SizeClass::Unit => 16,
        SizeClass::Paper => 2,
        SizeClass::Huge => 1,
    };
    let mut pools = HashMap::new();
    let trees = stream
        .iter()
        .map(|req| {
            let key = (req.class, req.seed % pool_size(req.class));
            Arc::clone(
                pools
                    .entry(key)
                    .or_insert_with(|| parse(compiler, &req.class.gen_config(1 + key.1))),
            )
        })
        .collect();
    (stream, trees)
}

/// Replays the service stream on a 4-machine park at depth 2.
fn serve(
    compiler: &Compiler,
    (stream, trees): &(Vec<RequestSpec>, Vec<Arc<ParseTree<PVal>>>),
    policy: DispatchPolicy,
    queue_capacity: usize,
    scheduler: SchedulerMode,
    faults: &FaultPlan,
) -> BatchSimReport<PVal> {
    let requests: Vec<SimRequest> = stream
        .iter()
        .map(|r| SimRequest {
            arrival_us: r.arrival,
            tenant: r.tenant,
        })
        .collect();
    run_sim_stream(
        trees,
        Some(compiler.evals.plans().expect("pascal grammar is ordered")),
        &SimConfig::paper(4).with_scheduler(scheduler),
        2,
        RegionGranularity::Machines(4),
        faults,
        Some(Arrivals {
            requests: &requests,
            policy,
            queue_capacity,
        }),
    )
    .expect("a sorted stream with one request per tree")
}

/// Nearest-rank percentile (`p` in 1..=100) of an unsorted sample; 0
/// for an empty one.
fn percentile(samples: &[u64], p: usize) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn percentile_is_the_nearest_rank() {
    assert_eq!(percentile(&[], 99), 0);
    let samples: Vec<u64> = (1..=24).rev().collect();
    assert_eq!(percentile(&samples, 100), 24);
    // ceil(0.99 × 24) = 24 and ceil(0.50 × 24) = 12.
    assert_eq!(percentile(&samples, 99), 24);
    assert_eq!(percentile(&samples, 50), 12);
    assert_eq!(percentile(&samples, 1), 1);
}

/// Dispatch policy decides the small requests' tail on a skewed
/// stream: proc-class p99 latency per policy, with a waiting room as
/// long as the stream so every policy serves the same requests. SJF
/// must not be worse than FIFO. A waiting room of 8 sheds a fixed set.
#[test]
fn dispatch_policy_tails_on_the_skewed_service_stream_are_pinned() {
    let compiler = Compiler::new();
    let service = service_stream(&compiler);
    let (stream, trees) = &service;
    let plan = compiler.evals.plan();
    let mut works: Vec<u64> = trees.iter().map(|t| plan.tree_work(t)).collect();
    works.sort_unstable();
    let quantum = works[works.len() / 2].max(1);
    let proc_p99 = |policy| {
        let report = serve(
            &compiler,
            &service,
            policy,
            stream.len(),
            SchedulerMode::Fixed,
            &FaultPlan::default(),
        );
        let proc: Vec<u64> = (0..stream.len())
            .filter(|&i| stream[i].class == SizeClass::Proc)
            .filter_map(|i| report.latency(i))
            .collect();
        percentile(&proc, 99)
    };
    let fifo = proc_p99(DispatchPolicy::Fifo);
    let sjf = proc_p99(DispatchPolicy::ShortestJobFirst);
    let fair = proc_p99(DispatchPolicy::FairQueue { quantum });
    assert_eq!(fifo, 20_080_463);
    assert_eq!(sjf, 8_948_251);
    assert_eq!(fair, 20_074_526);
    assert!(sjf <= fifo, "SJF p99 {sjf} µs against FIFO {fifo} µs");

    let bounded = serve(
        &compiler,
        &service,
        DispatchPolicy::Fifo,
        8,
        SchedulerMode::Fixed,
        &FaultPlan::default(),
    );
    assert_eq!(bounded.shed_count(), 14);
}

/// A mid-evaluation crash and restart of evaluator 2 on the stealing
/// park, at the instant and for the downtime (a twentieth of the clean
/// makespan) where it lands on held work and forces a duplicate-
/// suppressed replay. Recovery re-executes the lost region, keeps every
/// tree's root values, costs at most 1.25× the clean makespan and
/// leaves admission untouched.
#[test]
fn crash_recovery_on_the_service_stream_is_pinned() {
    let compiler = Compiler::new();
    let service = service_stream(&compiler);
    let run = |faults: &FaultPlan| {
        serve(
            &compiler,
            &service,
            DispatchPolicy::Fifo,
            service.0.len(),
            SchedulerMode::Stealing,
            faults,
        )
    };
    let clean = run(&FaultPlan::default());
    let faulty = run(&FaultPlan::seeded(2026).crash_restart(2, 5_186_247, 1_025_641));

    assert_eq!(faulty.faults.crashes, 1);
    assert_eq!(faulty.faults.regions_reexecuted, 1);
    assert_eq!(faulty.faults.dup_suppressed, 2);
    assert_eq!(clean.makespan, 20_512_835);
    assert_eq!(faulty.makespan, 20_409_827);

    // Faults may reorder the root attributes' arrival, never their
    // content.
    let canonical = |report: &BatchSimReport<PVal>| -> Vec<Vec<(AttrId, PVal)>> {
        let mut roots = report.root_values.clone();
        for r in &mut roots {
            r.sort_by_key(|(a, _)| *a);
        }
        roots
    };
    assert_eq!(canonical(&clean), canonical(&faulty));
    assert!(
        faulty.makespan * 4 <= clean.makespan * 5,
        "recovered {} µs against {} µs clean",
        faulty.makespan,
        clean.makespan
    );
    assert_eq!(faulty.shed_count(), clean.shed_count());
}

/// Message count and byte total for each tag the string librarian's
/// traffic rides on, and the trace's total.
type Traffic = ([(&'static str, usize, usize); 4], usize);

fn traffic(trace: &Trace) -> Traffic {
    let per_tag = ["code-segment", "attr", "resolve", "subtree"].map(|tag| {
        let msgs = trace.messages.iter().filter(|m| m.tag == tag);
        let (count, bytes) = msgs.fold((0, 0), |(n, b), m| (n + 1, b + m.bytes));
        (tag, count, bytes)
    });
    (per_tag, trace.network_bytes())
}

/// The librarian's wire traffic, summed per tag: the text evaluators
/// register with it, the boundary and root values that carry
/// references to that text instead of the text itself, and the
/// parser's final reads. The virtual-time pins see a miscounted byte
/// only through the time it moves; this sees it directly. Two runs:
/// the paper program on 5 machines, and a 24-tree stream of proc, unit
/// and paper programs cut into budget-sized regions on a stealing park
/// of 4 that loses evaluator 2 a third of the way in.
#[test]
fn librarian_wire_traffic_is_pinned() {
    let w = Workload::paper();
    let paper = run_sim(&w.tree, Some(&w.plans), &SimConfig::paper(5));
    let want = [
        ("code-segment", 6, 714_269),
        ("attr", 34, 8_982),
        ("resolve", 1, 64),
        ("subtree", 5, 314_109),
    ];
    assert_eq!(traffic(&paper.trace), (want, 1_037_568));

    let compiler = Compiler::new();
    let plans = compiler.evals.plans().expect("pascal grammar is ordered");
    let trees: Vec<_> = (0..24u64)
        .map(|i| {
            let class = [SizeClass::Proc, SizeClass::Unit, SizeClass::Paper][i as usize % 3];
            parse(&compiler, &class.gen_config(300 + i))
        })
        .collect();
    let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
    let crash = FaultPlan::seeded(34).crash_restart(2, 31_142_407, 1_000_000);
    let stream = run_sim_stream(
        &trees,
        Some(plans),
        &cfg,
        2,
        RegionGranularity::Adaptive { budget: 4000 },
        &crash,
        None,
    )
    .expect("a batch of 24 trees");
    assert_eq!(stream.faults.regions_reexecuted, 1);
    let want = [
        ("code-segment", 434, 5_926_228),
        ("attr", 2_984, 1_142_952),
        ("resolve", 24, 1_536),
        ("subtree", 0, 0),
    ];
    assert_eq!(traffic(&stream.trace), (want, 7_080_092));
}
