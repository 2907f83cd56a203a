//! Fault-tolerance acceptance: crash a machine mid-evaluation and the
//! batch must still compile to exactly the fault-free bytes.
//!
//! Two layers are exercised. The simulated network multiprocessor
//! (`run_sim_stream` under a `FaultPlan`) takes seeded chaos schedules —
//! a crash/restart of a random evaluator at a random point of the run,
//! optionally with a slice of attribute messages arbitrarily delayed,
//! under either scheduler — and every tree's root attributes must come
//! back byte-identical to the fault-free run, with the recovery visible
//! in `FaultCounters`. The live thread pool (`BatchDriver::kill_worker`)
//! gets the integration-level version in `tests/batch.rs`: a worker is
//! killed between batches and the survivors must keep producing
//! byte-identical assembly.

use paragram::core::grammar::AttrId;
use paragram::core::parallel::sim::{run_sim_batch, run_sim_stream, BatchSimReport, SimConfig};
use paragram::core::parallel::{FaultCounters, SchedulerMode};
use paragram::core::split::RegionGranularity;
use paragram::core::tree::ParseTree;
use paragram::netsim::FaultPlan;
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::{Compiler, PVal};
use std::sync::Arc;

/// A stream with enough multi-cluster weight that every machine of a
/// 4-park holds regions for most of the run.
fn chaos_trees(compiler: &Compiler) -> Vec<Arc<ParseTree<PVal>>> {
    let mut srcs = vec![
        "program a; var x: integer; begin x := 6 * 7; write(x) end.".to_string(),
        "program b;\nfunction fib(n: integer): integer;\nbegin if n < 2 then fib := n else fib := fib(n - 1) + fib(n - 2) end;\nbegin write(fib(10)) end.".to_string(),
    ];
    for seed in [7u64, 21, 42] {
        srcs.push(generate(&GenConfig {
            clusters: 2,
            procs_per_cluster: 3,
            stmts_per_proc: 4,
            nesting: 2,
            seed,
            template_clusters: 0,
        }));
    }
    srcs.iter()
        .map(|s| compiler.tree_from_source(s).unwrap())
        .collect()
}

/// Root attributes canonicalized by attribute id (faults may reorder
/// *arrival*, never content) — `PVal` equality is content-based all the
/// way down to rope bytes.
fn canonical_roots(report: &BatchSimReport<PVal>) -> Vec<Vec<(AttrId, PVal)>> {
    report
        .root_values
        .iter()
        .map(|roots| {
            let mut r = roots.clone();
            r.sort_by_key(|(a, _)| *a);
            r
        })
        .collect()
}

mod chaos {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For ANY seeded chaos schedule — which evaluator dies, when
        /// it dies, how long it stays down, whether a random slice of
        /// attribute messages is delayed on the wire — under either
        /// scheduler, the batch compiles to the fault-free bytes and
        /// the recovery is accounted for.
        #[test]
        fn seeded_crash_schedules_never_change_output(seed in any::<u64>()) {
            let compiler = Compiler::new();
            let trees = chaos_trees(&compiler);
            for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
                chaos_case(&compiler, &trees, seed, scheduler)?;
            }
        }
    }

    /// One schedule of [`seeded_crash_schedules_never_change_output`]
    /// under one scheduler.
    fn chaos_case(
        compiler: &Compiler,
        trees: &[Arc<ParseTree<PVal>>],
        seed: u64,
        scheduler: SchedulerMode,
    ) -> Result<(), TestCaseError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plans = compiler.evals.plans().unwrap();

        let machines = 3 + (rng.next_u64() % 2) as usize;
        let depth = 1 + (rng.next_u64() % 2) as usize;
        let cfg = SimConfig::paper(machines).with_scheduler(scheduler);
        let clean = run_sim_batch(trees, Some(plans), &cfg, depth);
        prop_assert_eq!(clean.faults, FaultCounters::default());

        // Crash a random evaluator somewhere inside the evaluation
        // window; restart it after a random downtime (or never).
        let victim = 1 + rng.gen_range(0..machines);
        let crash_at = clean.parse_time + clean.makespan * (1 + rng.gen_range(0..3) as u64) / 4;
        let downtime = 50_000 + rng.gen_range(0..250_000) as u64;
        let mut plan = FaultPlan::seeded(seed);
        plan = if rng.gen_range(0..4) == 0 {
            plan.crash(victim, crash_at)
        } else {
            plan.crash_restart(victim, crash_at, downtime)
        };
        if rng.gen_range(0..2) == 0 {
            // Delay (never drop — attribute messages are
            // load-bearing) a random slice of the attr traffic.
            let permille = 100 + rng.gen_range(0..400) as u32;
            let delay = 5_000 + rng.gen_range(0..45_000) as u64;
            plan = plan.delay_tagged("attr", permille, delay);
        }

        let run = || {
            run_sim_stream(
                trees,
                Some(plans),
                &cfg,
                depth,
                RegionGranularity::Machines(machines),
                &plan,
                None,
            )
            .unwrap()
        };
        let faulty = run();
        prop_assert_eq!(
            faulty.faults.crashes,
            1,
            "seed {} {:?}: {:?}",
            seed,
            scheduler,
            faulty.faults
        );
        prop_assert_eq!(
            canonical_roots(&clean),
            canonical_roots(&faulty),
            "seed {} {:?}: output diverged under {:?}",
            seed,
            scheduler,
            faulty.faults
        );
        if scheduler == SchedulerMode::Fixed {
            prop_assert_eq!(faulty.sched.steals, 0, "seed {}: fixed never steals", seed);
        }

        // And the chaos itself is deterministic: the same plan
        // replays to the same virtual history.
        let again = run();
        prop_assert_eq!(
            faulty.makespan,
            again.makespan,
            "seed {} {:?}",
            seed,
            scheduler
        );
        prop_assert_eq!(faulty.faults, again.faults, "seed {} {:?}", seed, scheduler);
        Ok(())
    }
}

/// A recovery bound: losing one of four machines for a bounded downtime
/// cannot blow the makespan past 2x fault-free (the re-executed regions
/// fit in the survivors' slack; `crash_recovery_on_the_service_stream_is_pinned`
/// in `crates/bench/tests/golden_sim.rs` holds the tighter 1.25x bound
/// on the service stream).
#[test]
fn crash_recovery_makespan_stays_bounded() {
    let compiler = Compiler::new();
    let trees = chaos_trees(&compiler);
    let plans = compiler.evals.plans().unwrap();
    let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
    let clean = run_sim_batch(&trees, Some(plans), &cfg, 2);
    let plan = FaultPlan::seeded(17).crash_restart(
        2,
        clean.parse_time + clean.makespan / 3,
        clean.makespan / 10,
    );
    let faulty = run_sim_stream(
        &trees,
        Some(plans),
        &cfg,
        2,
        RegionGranularity::Machines(4),
        &plan,
        None,
    )
    .unwrap();
    assert_eq!(canonical_roots(&clean), canonical_roots(&faulty));
    assert!(faulty.faults.regions_reexecuted > 0, "{:?}", faulty.faults);
    assert!(
        faulty.makespan <= clean.makespan * 2,
        "recovery cost exploded: clean {} vs faulty {}",
        clean.makespan,
        faulty.makespan
    );
}
