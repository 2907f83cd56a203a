//! Golden virtual times of the simulator on the Pascal workloads the
//! figure bins and the benchmark run. The simulation is deterministic,
//! so these are exact: a moved number is a changed policy or protocol,
//! never noise. (The mini-grammar pins — stealing, service, crash
//! recovery — live in `paragram_core::parallel::sim`'s unit tests.)

use paragram_bench::stream::SizeClass;
use paragram_bench::Workload;
use paragram_core::parallel::sim::{run_sim, run_sim_batch, SimConfig};
use paragram_pascal::generator::generate;
use paragram_pascal::Compiler;

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
            compiler
                .tree_from_source(&generate(&class.gen_config(100 + i)))
                .expect("generated program parses")
        })
        .collect();
    let report = run_sim_batch(&trees, Some(plans), &SimConfig::paper(4), 2);
    assert_eq!(report.makespan, 4_564_587);
    assert_eq!(report.finish_times[0], 424_856);
    assert_eq!(report.finish_times[23], report.makespan);
}
