//! The closed-loop workloads: one caller that sends its next operation
//! when the previous one has returned, so a slower system is simply
//! offered less. Every operation goes from source text to assembly
//! text, once through the persistent 2-worker pool and once through
//! sequential `Compiler::compile`, interleaved operation by operation
//! so that both see the same minutes of a noisy box.

use crate::calib::BoxClock;
use crate::inputs::{seed_stream, Checked, Corpus, Digest, Program, Shape, CLASS_NAMES};
use crate::layers::{self, Tree};
use crate::metrics::{Measured, RateSample, Report};
use crate::trace::Recorder;
use crate::{stats, Workload, WORKERS};
use paragram_bench::stream::SizeClass;
use paragram_driver::{BatchDriver, BatchReport};
use paragram_pascal::{Compiler, DriverConfig, PVal};
use rand::Rng;
use std::ops::Range;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SmallIid,
    LargeSingle,
    MemoDup,
    MemoIid,
}

/// Class index of a multi-program operation (after the program classes).
const BATCH_CLASS: usize = CLASS_NAMES.len();

impl Kind {
    /// Programs per operation: a `compile_batch` call, or one
    /// `compile_tree` call when 1.
    fn batch(self) -> usize {
        match self {
            Kind::SmallIid => 50,
            Kind::LargeSingle => 1,
            Kind::MemoDup | Kind::MemoIid => 32,
        }
    }

    fn memo_bytes(self) -> usize {
        match self {
            Kind::SmallIid | Kind::LargeSingle => 0,
            Kind::MemoDup => 64 << 20,
            // Below one pass's install volume, so that evictions run.
            Kind::MemoIid => 4 << 20,
        }
    }

    /// Whether every pass compiles programs never seen before.
    fn fresh(self) -> bool {
        self == Kind::MemoIid
    }

    /// The programs of pass `pass` (always 0 unless [`Kind::fresh`]).
    fn programs(self, seed: u64, pass: u64) -> Vec<Program> {
        let mut seeds = seed_stream(seed, 0x100 + pass);
        let mut next = |shape| Program::generate(shape, seeds.next_u64());
        match self {
            Kind::SmallIid => (0..3000)
                .map(|i| {
                    next(Shape::Size(if i % 3 == 2 {
                        SizeClass::Unit
                    } else {
                        SizeClass::Proc
                    }))
                })
                .collect(),
            Kind::LargeSingle => (0..7)
                .map(|i| {
                    next(Shape::Size(if i == 6 {
                        SizeClass::Huge
                    } else {
                        SizeClass::Paper
                    }))
                })
                .collect(),
            Kind::MemoDup => {
                let plain = Shape::Memo {
                    template_clusters: 0,
                };
                let templates: Vec<u64> = (0..8).map(|_| seeds.next_u64()).collect();
                (0..512)
                    .map(|i| {
                        if i % 2 == 0 {
                            let t = templates[seeds.gen_range(0..templates.len())];
                            Program::generate(plain, t)
                        } else {
                            Program::generate(
                                Shape::Memo {
                                    template_clusters: 2,
                                },
                                seeds.next_u64(),
                            )
                        }
                    })
                    .collect()
            }
            Kind::MemoIid => (0..512)
                .map(|_| {
                    next(Shape::Memo {
                        template_clusters: 0,
                    })
                })
                .collect(),
        }
    }
}

pub struct Closed {
    kind: Kind,
    seed: u64,
    compiler: Compiler,
    driver: BatchDriver<PVal>,
    corpus: Corpus,
    ops: Vec<Range<usize>>,
    /// Fresh passes drawn so far.
    pass: u64,
    spinup_secs: f64,
}

/// One operation on the pool path: front end, pool, output — the calls
/// a user of the batch driver makes.
fn pool_op(
    compiler: &Compiler,
    driver: &mut BatchDriver<PVal>,
    programs: &[Program],
) -> Result<Vec<String>, String> {
    let trees = programs
        .iter()
        .map(|p| compiler.tree_from_source(&p.source))
        .collect::<Result<Vec<Tree>, _>>()
        .map_err(|e| e.to_string())?;
    let outputs = if let [tree] = trees.as_slice() {
        vec![driver.compile_tree(tree).map_err(|e| e.to_string())?]
    } else {
        driver
            .compile_batch(trees.iter().cloned())
            .map_err(|e| e.to_string())?
            .outputs
    };
    Ok(trees
        .iter()
        .zip(outputs)
        .map(|(tree, out)| compiler.output_from_store(tree, &out.store, out.stats).asm)
        .collect())
}

fn seq_op(compiler: &Compiler, programs: &[Program]) -> Result<Vec<String>, String> {
    programs
        .iter()
        .map(|p| {
            compiler
                .compile(&p.source)
                .map(|o| o.asm)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// [`pool_op`] call by call, as the spans of one request; the pool's
/// counters for the operation are added to `report`.
fn traced_pool_op(
    compiler: &Compiler,
    driver: &mut BatchDriver<PVal>,
    rec: &mut Recorder,
    report: &mut Report,
    request: u32,
    programs: &[Program],
) -> Result<Vec<String>, String> {
    let span = rec.enter("driver.batch", None, request);
    let traced = (|| {
        let trees = programs
            .iter()
            .map(|p| layers::front_end(compiler, rec, Some(span), request, p))
            .collect::<Result<Vec<Tree>, _>>()?;
        // `compile_batch` even for one tree: only its report carries
        // the pool's counters.
        let pool_report = rec
            .span("core.parallel.pool", Some(span), request, || {
                driver.compile_batch(trees.iter().cloned())
            })
            .map_err(|e| e.to_string())?;
        rec.count("core.parallel.pool", pool_report.outputs.len());
        add_pool_counters(&pool_report, report);
        let asms = trees
            .iter()
            .zip(&pool_report.outputs)
            .map(|(tree, out)| layers::output(compiler, rec, Some(span), request, tree, &out.store))
            .collect();
        let nodes = trees.iter().map(|t| t.len()).sum();
        layers::teardown(rec, Some(span), request, nodes, (trees, pool_report));
        Ok(asms)
    })();
    rec.exit(span);
    traced
}

/// Whether `result` is one assembly text per program, each hashing to
/// its reference (where there is one); `digests` receives the hashes.
fn verified(
    result: &Result<Vec<String>, String>,
    reference: Option<&[u64]>,
    digests: &mut Vec<u64>,
) -> bool {
    digests.clear();
    match result {
        Ok(asms) => {
            digests.extend(asms.iter().map(|a| Digest::of(a.as_bytes())));
            reference.is_none_or(|r| r == digests.as_slice())
        }
        Err(_) => false,
    }
}

fn op_class(programs: &[Program]) -> usize {
    match programs {
        [one] => one.shape.class(),
        _ => BATCH_CLASS,
    }
}

impl Closed {
    /// Set-up: inputs, `Compiler::new`, pool spin-up and a warm pass
    /// (all of the working set where the workload is about a warm
    /// cache, a tenth of it otherwise).
    pub fn setup(kind: Kind, seed: u64) -> Result<Self, String> {
        Self::setup_first(kind, seed, usize::MAX)
    }

    /// [`Closed::setup`] on the first `per_pass` programs of every pass
    /// only (a test's size).
    fn setup_first(kind: Kind, seed: u64, per_pass: usize) -> Result<Self, String> {
        let compiler = Compiler::new();
        let mut programs = kind.programs(seed, 0);
        programs.truncate(per_pass);
        let corpus = Corpus::new(programs);
        let n = corpus.programs.len();
        let ops: Vec<Range<usize>> = (0..n)
            .step_by(kind.batch())
            .map(|at| at..(at + kind.batch()).min(n))
            .collect();
        let mut config = DriverConfig::workers(WORKERS);
        if kind.memo_bytes() > 0 {
            // The memo caches leaf regions, and only cost-driven
            // decomposition carves procedure bodies into leaves (see
            // `bench_throughput --memo`).
            let first = compiler
                .tree_from_source(&corpus.programs[0].source)
                .map_err(|e| e.to_string())?;
            let budget = (compiler.evals.plan().tree_work(&first) / 16).max(1);
            config = config
                .with_adaptive_budget(budget)
                .with_memo_capacity(kind.memo_bytes());
        }
        let t = Instant::now();
        let driver = compiler.batch_driver(config);
        let spinup_secs = t.elapsed().as_secs_f64();
        let mut w = Closed {
            kind,
            seed,
            compiler,
            driver,
            corpus,
            ops,
            pass: 0,
            spinup_secs,
        };
        let warm = match kind {
            Kind::SmallIid => w.ops.len() / 10,
            Kind::LargeSingle => 1,
            Kind::MemoDup | Kind::MemoIid => w.ops.len(),
        };
        for op in &w.ops[..warm] {
            pool_op(&w.compiler, &mut w.driver, &w.corpus.programs[op.clone()])?;
        }
        seq_op(&w.compiler, &w.corpus.programs[w.ops[0].clone()])?;
        Ok(w)
    }

    fn next_fresh(&mut self) -> Option<Vec<Program>> {
        self.kind.fresh().then(|| {
            self.pass += 1;
            let mut programs = self.kind.programs(self.seed, self.pass);
            programs.truncate(self.corpus.programs.len());
            programs
        })
    }
}

/// Adds the pool's counters for one traced operation to the report.
fn add_pool_counters(r: &BatchReport<PVal>, report: &mut Report) {
    report.max("max_in_flight", r.max_in_flight as f64);
    report.max("max_regions_in_flight", r.max_regions_in_flight as f64);
    let (m, s, f) = (r.memo.unwrap_or_default(), r.sched, r.faults);
    for (name, count) in [
        ("memo.hits", m.hits),
        ("memo.misses", m.misses),
        ("memo.inserts", m.inserts),
        ("memo.evictions", m.evictions),
        ("memo.deferred", m.deferred),
        ("sched.steals", s.steals),
        ("sched.local_sends", s.local_sends),
        ("sched.remote_sends", s.remote_sends),
        ("sched.migrated_attrs", s.migrated_attrs),
        ("faults.regions_reexecuted", f.regions_reexecuted),
        ("faults.dup_suppressed", f.dup_suppressed),
        ("faults.panics_contained", f.panics_contained),
    ] {
        report.add(name, count as f64);
    }
}

impl Workload for Closed {
    fn check(&mut self, seed: u64) -> Checked {
        self.corpus.check(&self.compiler, seed)
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::new();
        self.corpus.digest_into(&mut d);
        d.0
    }

    fn measure(&mut self, seconds: f64) -> Measured {
        let mut m = Measured::default();
        let mut op_ms = Vec::new();
        let (mut par_digests, mut seq_digests) = (Vec::new(), Vec::new());
        let mut clock = BoxClock::new();
        let start = Instant::now();
        // Whole passes only, so that every class of operation keeps its
        // share of the samples: stop when half of another pass would
        // not fit.
        for passes in 1.. {
            let fresh = self.next_fresh();
            let programs = fresh.as_deref().unwrap_or(&self.corpus.programs);
            for op in &self.ops {
                let batch = &programs[op.clone()];
                let reference = fresh.is_none().then(|| &self.corpus.asm_digest[op.clone()]);
                let lines = batch.iter().map(|p| p.lines).sum::<usize>() as f64;
                let class = op_class(batch);

                let t = Instant::now();
                let par = pool_op(&self.compiler, &mut self.driver, batch);
                let par_secs = t.elapsed().as_secs_f64() * clock.speed();
                let t = Instant::now();
                let seq = seq_op(&self.compiler, batch);
                let seq_secs = t.elapsed().as_secs_f64() * clock.speed();

                m.par.push(RateSample {
                    class,
                    lines,
                    secs: par_secs,
                });
                m.seq.push(RateSample {
                    class,
                    lines,
                    secs: seq_secs,
                });
                op_ms.push(par_secs * 1e3);
                m.attempted += 2;
                let par_ok = verified(&par, reference, &mut par_digests);
                let seq_ok = verified(&seq, reference, &mut seq_digests);
                m.failed += usize::from(!seq_ok);
                m.failed += usize::from(!par_ok || par_digests != seq_digests);
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + 0.5 * elapsed / passes as f64 > seconds {
                break;
            }
        }
        m.op_ms.push(op_ms);
        m.box_speed = clock.speeds;
        m
    }

    fn layers(
        &mut self,
        _seconds: f64,
        checked: &Checked,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> (usize, usize) {
        let staged = layers::staged_pass(&self.compiler, &self.corpus, rec);
        let (mut attempted, mut failed) = (self.corpus.programs.len(), staged.failed);

        // The pool path, each operation untraced and then call by call
        // under spans. Where the workload is about unseen traffic the
        // two are *different* fresh programs of the same shape: the
        // untraced compile has just shown its own to the memo cache,
        // and the traced one, whose counters are reported, must not
        // find them there.
        let fresh = self.next_fresh().zip(self.next_fresh());
        let (plain_programs, traced_programs) = match &fresh {
            Some((plain, traced)) => (plain.as_slice(), traced.as_slice()),
            None => (
                self.corpus.programs.as_slice(),
                self.corpus.programs.as_slice(),
            ),
        };
        let mut pool = layers::Reconciled::default();
        let mut class_ms: [Vec<f64>; BATCH_CLASS + 1] = Default::default();
        let mut digests = Vec::new();
        for (k, op) in self.ops.iter().enumerate() {
            // Seconds per source line, so that two batches reconcile.
            let lines = |batch: &[Program]| batch.iter().map(|p| p.lines).sum::<usize>() as f64;
            // Fresh programs have no first pass: sequential
            // `Compiler::compile`, untimed, is their reference.
            let reference = |batch: &[Program]| match fresh {
                None => Some(self.corpus.asm_digest[op.clone()].to_vec()),
                Some(_) => seq_op(&self.compiler, batch)
                    .ok()
                    .map(|asms| asms.iter().map(|a| Digest::of(a.as_bytes())).collect()),
            };

            let batch = &plain_programs[op.clone()];
            let want = reference(batch);
            let t = Instant::now();
            let plain = pool_op(&self.compiler, &mut self.driver, batch);
            let e2e_secs = t.elapsed().as_secs_f64();
            class_ms[op_class(batch)].push(e2e_secs * 1e3);
            let plain_ok = want.is_some() && verified(&plain, want.as_deref(), &mut digests);
            let e2e_secs = e2e_secs / lines(batch);

            let batch = &traced_programs[op.clone()];
            let want = reference(batch);
            let first_span = rec.spans.len();
            let t = Instant::now();
            let traced = traced_pool_op(
                &self.compiler,
                &mut self.driver,
                rec,
                report,
                k as u32,
                batch,
            );
            let traced_secs = t.elapsed().as_secs_f64();
            pool.push(
                e2e_secs,
                traced_secs / lines(batch),
                rec.children_secs("driver.batch", first_span) / lines(batch),
            );
            let traced_ok = want.is_some() && verified(&traced, want.as_deref(), &mut digests);
            attempted += 2;
            failed += usize::from(!plain_ok) + usize::from(!traced_ok);
        }

        layers::report_layers(rec, checked, &staged.seq, Some(&pool), report);
        report.set(
            "pool_ns_per_tree",
            rec.nanos_per("core.parallel.pool", "core.parallel.pool"),
        );
        // Above 1 the parallel runtime is slower than evaluating the
        // same trees sequentially.
        report.set(
            "pool_over_static",
            rec.total_secs("core.parallel.pool") / rec.total_secs("core.eval.static"),
        );
        let probes = report.get("memo.hits") + report.get("memo.misses");
        if probes > 0.0 {
            report.set("memo.hit_rate", report.get("memo.hits") / probes);
        }
        report.set("driver_spinup_ms", self.spinup_secs * 1e3);
        for (name, class) in [("compile_ms.paper", 2), ("compile_ms.huge", 3)] {
            if !class_ms[class].is_empty() {
                report.set_sampled(
                    name,
                    stats::median(&class_ms[class]),
                    stats::summarize(&class_ms[class]),
                );
            }
        }
        (attempted, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(programs: &[Program]) -> u64 {
        let mut d = Digest::new();
        for p in programs {
            d.bytes(p.source.as_bytes());
        }
        d.0
    }

    #[test]
    fn inputs_are_a_function_of_kind_seed_and_pass() {
        for kind in [Kind::LargeSingle, Kind::MemoDup, Kind::MemoIid] {
            let a = kind.programs(7, 0);
            assert_eq!(digest(&a), digest(&kind.programs(7, 0)), "{kind:?}");
            assert_ne!(digest(&a), digest(&kind.programs(8, 0)), "{kind:?}");
            assert_ne!(digest(&a), digest(&kind.programs(7, 1)), "{kind:?}");
        }
    }

    #[test]
    fn the_workloads_have_the_shapes_their_names_promise() {
        let small = Kind::SmallIid.programs(1, 0);
        assert_eq!(small.len(), 3000);
        let units = small.iter().filter(|p| p.shape.class() == 1).count();
        assert_eq!(units, 1000, "2:1 proc:unit");

        let large = Kind::LargeSingle.programs(1, 0);
        let classes: Vec<usize> = large.iter().map(|p| p.shape.class()).collect();
        assert_eq!(classes, [2, 2, 2, 2, 2, 2, 3], "six paper-shape, one huge");
        assert!(large[6].lines > 5 * large[0].lines);

        // Half of memo_dup repeats one of 8 templates exactly; the
        // other half shares a two-cluster prefix and nothing else.
        let dup = Kind::MemoDup.programs(1, 0);
        let mut repeats: Vec<&str> = dup.iter().step_by(2).map(|p| p.source.as_str()).collect();
        repeats.sort_unstable();
        repeats.dedup();
        assert_eq!(repeats.len(), 8);
        let mut tails: Vec<&str> = dup
            .iter()
            .skip(1)
            .step_by(2)
            .map(|p| p.source.as_str())
            .collect();
        tails.sort_unstable();
        tails.dedup();
        assert_eq!(tails.len(), 256);
        let prefix = |s: &str| s[..s.find("function cluster2").expect("third cluster")].to_owned();
        assert_eq!(prefix(tails[0]), prefix(tails[255]));

        // memo_iid never repeats, within a pass or across passes.
        let mut iid: Vec<String> = (0..2)
            .flat_map(|pass| Kind::MemoIid.programs(1, pass))
            .map(|p| p.source)
            .collect();
        iid.sort_unstable();
        iid.dedup();
        assert_eq!(iid.len(), 1024);
    }

    #[test]
    fn the_traced_pass_shows_the_memo_only_programs_it_has_never_seen() {
        let mut w = Closed::setup_first(Kind::MemoIid, 3, 64).expect("set-up");
        let checked = w.check(3);
        let (mut rec, mut report) = (Recorder::new(), Report::default());
        let (attempted, failed) = w.layers(1.0, &checked, &mut rec, &mut report);
        // 64 staged programs, then two operations, each plain and traced.
        assert_eq!((attempted, failed), (64 + 4, 0), "{:?}", checked.failures);
        assert!(report.get("memo.inserts") > 0.0);
        assert!(
            report.get("memo.hit_rate") < 0.05,
            "{} hits: the traced compile found programs in the cache",
            report.get("memo.hits")
        );
        // Every tree freed under a span was counted: the sequential
        // pass frees 64 programs' and the traced operations 64 others'
        // of the same shape.
        let freed = rec.units("core.tree/drop") / rec.units("core.eval.static");
        assert!((1.9..2.1).contains(&freed), "{freed} x the staged nodes");
    }

    #[test]
    fn a_wrong_or_missing_assembly_text_fails_verification() {
        let mut digests = Vec::new();
        let asm = |s: &str| Ok(vec![s.to_owned()]);
        let want = [Digest::of(b"halt")];
        assert!(verified(&asm("halt"), Some(&want), &mut digests));
        assert_eq!(digests, want);
        assert!(!verified(&asm("ret"), Some(&want), &mut digests));
        assert!(verified(&asm("ret"), None, &mut digests));
        assert!(!verified(&Err("boom".into()), None, &mut digests));
    }
}
