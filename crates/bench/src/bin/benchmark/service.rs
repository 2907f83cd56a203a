//! The open-loop workload: requests arrive on a seeded schedule at a
//! **fixed** rate whether or not the service keeps up, and each is
//! timed from the instant it was *due* — so a stall shows in the
//! latency of every request it delays, and a faster service is not
//! offered more work.
//!
//! The open-loop phase is timed in wall seconds, not box seconds:
//! reading the box's speed takes the CPU the service's two workers are
//! using, and the schedule is in wall time. Only the sequential base
//! and the set-up are calibrated.

use crate::calib::BoxClock;
use crate::inputs::{seed_stream, Checked, Corpus, Digest, Program, Shape};
use crate::layers::{self, Tree};
use crate::metrics::{Measured, RateSample, Report};
use crate::trace::Recorder;
use crate::{stats, Workload, WORKERS};
use paragram_bench::stream::{generate_stream, SizeClass, StreamConfig};
use paragram_core::parallel::policy::{DispatchPolicy, PolicyQueue, QueuedJob};
use paragram_driver::{Admission, CompilationPlan, ServiceConfig, ServiceQueue};
use paragram_pascal::{Compiler, DriverConfig, PVal};
use rand::Rng;
use std::time::{Duration, Instant};

/// Requests per second offered by the timed phase. Frozen: the rate
/// never adapts at run time, it is only checked against
/// `closed_loop_capacity_rps`. At this rate on the 2-core box the
/// benchmark was defined on, about a third of the requests queue behind
/// a paper-sized one: the median is an unqueued request, the tail a
/// queued one, and neither sits on the edge between the two.
pub const RATE: f64 = 125.0;

/// The traced run's extra phase, slow enough that queueing is rare:
/// its latencies are the service's own overheads.
const RATE_LO: f64 = 25.0;

/// A request answered later than this is a miss, like a shed one.
const LIMIT_MS: f64 = 100.0;

/// Waiting-room bound of `ServiceConfig::fifo`.
const CAPACITY: usize = 256;

/// Share of request classes, and how many distinct pre-parsed trees
/// each draws from. No huge class: at this rate a 0.7 s request only
/// measures shedding.
const MIX: [(SizeClass, u32, usize); 3] = [
    (SizeClass::Proc, 70, 64),
    (SizeClass::Unit, 27, 32),
    (SizeClass::Paper, 3, 4),
];

/// Consecutive requests per latency group (see `Measured::op_ms`):
/// enough for a p90 with 25 samples beyond it.
const GROUP: usize = 250;

/// How long the generator sleeps between looks at the clock.
const TICK: Duration = Duration::from_micros(200);

/// `(first corpus index, pool size)` of a class of [`MIX`].
fn pool_of(class: SizeClass) -> (usize, usize) {
    let at = MIX
        .iter()
        .position(|m| m.0 == class)
        .expect("class is in MIX");
    (MIX[..at].iter().map(|m| m.2).sum(), MIX[at].2)
}

struct Arrival {
    at: Duration,
    tenant: u32,
    /// Index into the corpus (and the pre-parsed trees).
    program: usize,
}

/// The seeded schedule of one phase: small requests (proc and unit
/// sizes, 70:27) as Poisson arrivals, and the paper-sized 3 % on a
/// regular beat with a seeded offset.
///
/// The beat is deliberate. One paper-sized request holds the pipeline
/// window for ~0.1 s, so with every class Poisson the tail of a 10 s
/// run was set by how its dozen or so big requests happened to cluster:
/// p99 ranged 64–216 ms across seeds at one rate. On a beat, the share
/// of requests that queue behind a big one is a property of the
/// service, not of the draw.
fn schedule(seed: u64, phase: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let small = |m: &&(SizeClass, u32, usize)| m.0 != SizeClass::Paper;
    let small_weight: u32 = MIX.iter().filter(small).map(|m| m.1).sum();
    let total_weight: u32 = MIX.iter().map(|m| m.1).sum();
    let small_rate = rate * f64::from(small_weight) / f64::from(total_weight);
    let mut seeds = seed_stream(seed, 0x300 + phase);
    let stream = generate_stream(&StreamConfig {
        seed: seeds.next_u64(),
        requests: (small_rate * seconds).ceil() as usize,
        // Ticks are microseconds.
        mean_interarrival: (1e6 / small_rate) as u64,
        tenants: 3,
        mix: MIX.iter().filter(small).map(|m| (m.0, m.1)).collect(),
        template_fraction: 0.0,
    });
    let mut arrivals: Vec<Arrival> = stream
        .iter()
        .map(|r| {
            let (base, pool) = pool_of(r.class);
            Arrival {
                at: Duration::from_micros(r.arrival),
                tenant: r.tenant,
                program: base + (r.seed % pool as u64) as usize,
            }
        })
        .collect();
    let beat = 1.0 / (rate - small_rate);
    let (base, pool) = pool_of(SizeClass::Paper);
    let mut at = beat * f64::from(seeds.gen_range(0..1000u32)) / 1000.0;
    while at < seconds {
        arrivals.push(Arrival {
            at: Duration::from_secs_f64(at),
            tenant: seeds.gen_range(0..3),
            program: base + seeds.gen_range(0..pool),
        });
        at += beat;
    }
    arrivals.sort_by_key(|a| a.at);
    arrivals
}

/// What happened to one request of a phase.
struct Outcome {
    program: usize,
    due: Instant,
    /// When the generator got round to offering it.
    offered: Instant,
    /// The service's id, unless shed.
    id: Option<u64>,
    /// When the generator saw the finished output.
    seen: Option<Instant>,
    asm_ok: bool,
}

impl Outcome {
    fn latency_ms(&self) -> Option<f64> {
        self.seen.map(|seen| (seen - self.due).as_secs_f64() * 1e3)
    }

    /// Shed, expired, given up on, or answered with the wrong text.
    fn failed(&self) -> bool {
        !self.asm_ok
    }

    /// Answered correctly, but after the limit.
    fn late(&self) -> bool {
        self.asm_ok && self.latency_ms().is_some_and(|ms| ms > LIMIT_MS)
    }
}

pub struct Service {
    seed: u64,
    compiler: Compiler,
    corpus: Corpus,
    trees: Vec<Tree>,
    queue: ServiceQueue<PVal>,
    /// Phases run so far; each draws its own schedule.
    phases: u64,
}

impl Service {
    /// Set-up: the tree pools (pre-parsed — the front end is not what
    /// this workload is about), `Compiler::new`, service spin-up and a
    /// warm pass of every tree.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let compiler = Compiler::new();
        let mut seeds = seed_stream(seed, 0x200);
        let programs: Vec<Program> = MIX
            .iter()
            .flat_map(|&(class, _, pool)| {
                (0..pool)
                    .map(|_| Program::generate(Shape::Size(class), seeds.next_u64()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let trees = programs
            .iter()
            .map(|p| compiler.tree_from_source(&p.source))
            .collect::<Result<Vec<Tree>, _>>()
            .map_err(|e| e.to_string())?;
        let plan =
            CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(WORKERS));
        let queue = ServiceQueue::new(&plan, ServiceConfig::fifo(CAPACITY));
        let mut w = Service {
            seed,
            compiler,
            corpus: Corpus::new(programs),
            trees,
            queue,
            phases: 0,
        };
        for tree in &w.trees {
            w.queue.offer(tree, 0);
        }
        w.queue.drain();
        while w.queue.take_completed().is_some() {}
        Ok(w)
    }

    /// Moves finished requests out of the service, stamping each with
    /// the time the generator saw it, then rendering and checking its
    /// assembly text.
    fn harvest(&mut self, ids: &[Option<usize>], outcomes: &mut [Outcome]) {
        self.queue.pump();
        while let Some(done) = self.queue.take_completed() {
            let seen = Instant::now();
            let Some(i) = ids.get(done.id as usize).copied().flatten() else {
                continue;
            };
            let o = &mut outcomes[i];
            o.seen = Some(seen);
            let out = done.output;
            let asm = self
                .compiler
                .output_from_store(&self.trees[o.program], &out.store, out.stats)
                .asm;
            o.asm_ok = Digest::of(asm.as_bytes()) == self.corpus.asm_digest[o.program];
        }
    }

    /// One open-loop phase at `rate` for `seconds`; returns every
    /// request's outcome and the phase's wall seconds.
    fn phase(&mut self, rate: f64, seconds: f64) -> (Vec<Outcome>, f64) {
        let schedule = schedule(self.seed, self.phases, rate, seconds);
        self.phases += 1;
        // The service numbers admitted requests from 0 for as long as it
        // lives; `ids` maps this phase's ids back to schedule positions.
        let mut ids: Vec<Option<usize>> = vec![None; self.queue.stats().admitted];
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(schedule.len());
        let start = Instant::now();
        for a in &schedule {
            let due = start + a.at;
            let offered = loop {
                self.harvest(&ids, &mut outcomes);
                let now = Instant::now();
                if now >= due {
                    break now;
                }
                std::thread::sleep((due - now).min(TICK));
            };
            let id = match self.queue.offer(&self.trees[a.program], a.tenant) {
                Admission::Admitted { id } => {
                    debug_assert_eq!(id as usize, ids.len());
                    ids.push(Some(outcomes.len()));
                    Some(id)
                }
                Admission::Shed | Admission::DeadlineShed => None,
            };
            outcomes.push(Outcome {
                program: a.program,
                due,
                offered,
                id,
                seen: None,
                asm_ok: false,
            });
        }
        while self.queue.waiting() + self.queue.in_service() > 0 {
            self.harvest(&ids, &mut outcomes);
            std::thread::sleep(TICK);
        }
        self.harvest(&ids, &mut outcomes);
        while self.queue.take_failed().is_some() {}
        (outcomes, start.elapsed().as_secs_f64())
    }

    /// Sequential `Compiler::compile` over the pool sources for about
    /// `seconds`: the base the service's throughput is read against.
    fn sequential(&self, seconds: f64, m: &mut Measured) {
        let mut clock = BoxClock::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let sweep = m.seq.len();
            for (p, want) in self.corpus.programs.iter().zip(&self.corpus.asm_digest) {
                let t = Instant::now();
                let out = self.compiler.compile(&p.source);
                m.seq.push(RateSample {
                    class: p.shape.class(),
                    lines: p.lines as f64,
                    secs: t.elapsed().as_secs_f64(),
                });
                m.attempted += 1;
                let ok = out.is_ok_and(|o| Digest::of(o.asm.as_bytes()) == *want);
                m.failed += usize::from(!ok);
            }
            // One reading of the box per sweep: the small programs
            // take less time than the reading.
            let speed = clock.speed();
            for sample in &mut m.seq[sweep..] {
                sample.secs *= speed;
            }
        }
        m.box_speed.extend(clock.speeds);
    }

    /// Closed-loop capacity on the same mix — the waiting room kept
    /// topped up to 32, completions counted per second — and the mean
    /// cost of one `offer` call.
    fn capacity(&mut self, seconds: f64) -> (f64, f64) {
        let mut picks = seed_stream(self.seed, 0x400);
        let total: u32 = MIX.iter().map(|m| m.1).sum();
        let mut pick = move || {
            let mut at = picks.gen_range(0..total);
            for &(class, weight, _) in &MIX {
                if at < weight {
                    let (base, pool) = pool_of(class);
                    return base + picks.gen_range(0..pool);
                }
                at -= weight;
            }
            unreachable!("weights sum to total")
        };
        let (mut done, mut offers, mut offer_secs) = (0usize, 0usize, 0.0);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            while self.queue.waiting() < 32 {
                let tree = &self.trees[pick()];
                let t = Instant::now();
                self.queue.offer(tree, 0);
                offer_secs += t.elapsed().as_secs_f64();
                offers += 1;
            }
            self.queue.pump();
            while self.queue.take_completed().is_some() {
                done += 1;
            }
            std::thread::yield_now();
        }
        let wall = start.elapsed().as_secs_f64();
        self.queue.drain();
        while self.queue.take_completed().is_some() {}
        (done as f64 / wall, offer_secs * 1e9 / offers.max(1) as f64)
    }
}

impl Workload for Service {
    fn check(&mut self, seed: u64) -> Checked {
        self.corpus.check(&self.compiler, seed)
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::new();
        self.corpus.digest_into(&mut d);
        for a in schedule(self.seed, 0, RATE, crate::metrics::run_seconds()) {
            d.u64(a.at.as_micros() as u64);
            d.u64(u64::from(a.tenant));
            d.u64(a.program as u64);
        }
        d.0
    }

    fn measure(&mut self, seconds: f64) -> Measured {
        let mut m = Measured::default();
        // The sequential base in two halves, before and after the
        // phase, so that it is not a reading of one three-second
        // stretch of the box.
        self.sequential(0.15 * seconds, &mut m);
        let (outcomes, wall) = self.phase(RATE, seconds);
        self.sequential(0.15 * seconds, &mut m);
        let done_lines: usize = outcomes
            .iter()
            .filter(|o| o.seen.is_some())
            .map(|o| self.corpus.programs[o.program].lines)
            .sum();
        m.par.push(RateSample {
            class: 0,
            lines: done_lines as f64,
            secs: wall,
        });
        // A request that never completed has no latency to report; it
        // counts as failed, which `ok_share` carries.
        let done: Vec<f64> = outcomes.iter().filter_map(Outcome::latency_ms).collect();
        m.op_ms.extend(
            done.chunks_exact(GROUP.min(done.len()).max(1))
                .map(<[f64]>::to_vec),
        );
        m.attempted += outcomes.len();
        m.failed += outcomes.iter().filter(|o| o.failed()).count();
        m.late += outcomes.iter().filter(|o| o.late()).count();
        m
    }

    fn layers(
        &mut self,
        seconds: f64,
        checked: &Checked,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> (usize, usize) {
        let staged = layers::staged_pass(&self.compiler, &self.corpus, rec);
        layers::report_layers(rec, checked, &staged.seq, None, report);

        // A slow phase first: with queueing rare, what is left is the
        // service's own cost per request.
        let (slow, _) = self.phase(RATE_LO, 0.3 * seconds);
        let slow_ms: Vec<f64> = slow.iter().filter_map(Outcome::latency_ms).collect();
        report.set_sampled(
            "lat_p50_ms.lo",
            stats::percentile_of(&slow_ms, 50.0),
            stats::summarize(&slow_ms),
        );

        // The timed phase again, this time keeping the service's own
        // milestones of every request as spans.
        let before = self.queue.stats();
        let (outcomes, wall) = self.phase(RATE, 0.6 * seconds);
        let after = self.queue.stats();
        let (mut queue_ms, mut service_ms) = (Vec::new(), Vec::new());
        let mut late_ms: f64 = 0.0;
        for (i, o) in outcomes.iter().enumerate() {
            let request = i as u32;
            late_ms = late_ms.max((o.offered - o.due).as_secs_f64() * 1e3);
            let end = o.seen.unwrap_or(o.offered);
            let span = rec.record("driver.service", None, request, o.due, end);
            rec.record("driver.service/late", Some(span), request, o.due, o.offered);
            let Some(times) = o.id.and_then(|id| self.queue.times(id)) else {
                continue;
            };
            if let (Some(dispatched), Some(assembled)) = (times.dispatched, times.assembled) {
                rec.record(
                    "driver.service/queue",
                    Some(span),
                    request,
                    times.enqueued,
                    dispatched,
                );
                rec.record(
                    "core.parallel.pool",
                    Some(span),
                    request,
                    dispatched,
                    assembled,
                );
                rec.record(
                    "driver.service/harvest",
                    Some(span),
                    request,
                    assembled,
                    end,
                );
                queue_ms.push((dispatched - times.enqueued).as_secs_f64() * 1e3);
                service_ms.push((assembled - dispatched).as_secs_f64() * 1e3);
            }
        }
        let all_ms: Vec<f64> = outcomes.iter().filter_map(Outcome::latency_ms).collect();
        report.set("lat_p99_ms.hi", stats::percentile_of(&all_ms, 99.0));
        report.set("offered_rps", outcomes.len() as f64 / wall);
        report.set_sampled(
            "queue_ms_p50",
            stats::percentile_of(&queue_ms, 50.0),
            stats::summarize(&queue_ms),
        );
        report.set("queue_ms_p99", stats::percentile_of(&queue_ms, 99.0));
        report.set_sampled(
            "service_ms_p50",
            stats::percentile_of(&service_ms, 50.0),
            stats::summarize(&service_ms),
        );
        report.set("shed", (after.shed - before.shed) as f64);
        report.set("failed", (after.failed - before.failed) as f64);
        report.set("max_waiting", after.max_waiting as f64);
        report.set("gen_late_ms_max", late_ms);
        report.set("memo.hits", after.memo.hits as f64);
        report.set("memo.misses", after.memo.misses as f64);

        let (capacity, offer_ns) = self.capacity(0.1 * seconds);
        report.set("closed_loop_capacity_rps", capacity);
        report.set("offer_ns", offer_ns);
        report.set("policy_push_pop_ns", policy_push_pop_ns());
        report.notes.push(format!(
            "fixed rate {RATE} requests/s = {:.2} of closed_loop_capacity_rps {capacity:.0}; generator at most {late_ms:.2} ms late",
            RATE / capacity
        ));
        if RATE > 0.85 * capacity {
            report.notes.push(
                "WARNING: the fixed rate exceeds 0.85 of capacity: the backlog grows for as long as the phase lasts"
                    .to_owned(),
            );
        }
        if late_ms > 1.0 {
            report.notes.push(format!(
                "WARNING: the generator ran {late_ms:.2} ms late: its thread was held inside ServiceQueue::pump or lost the CPU; latencies are still timed from the due instant, so the delay is in them"
            ));
        }

        let requests = slow.iter().chain(&outcomes);
        let failed = staged.failed + requests.clone().filter(|o| o.failed()).count();
        (self.corpus.programs.len() + requests.count(), failed)
    }
}

/// Mean nanoseconds of one push plus one pop on the FIFO `PolicyQueue`
/// at the service's waiting-room depth.
fn policy_push_pop_ns() -> f64 {
    let mut q = PolicyQueue::new(DispatchPolicy::Fifo);
    let rounds = 200;
    let t = Instant::now();
    for round in 0..rounds {
        for i in 0..CAPACITY as u64 {
            q.push(QueuedJob {
                seq: round * CAPACITY as u64 + i,
                tenant: (i % 3) as u32,
                work: 1 + i,
            });
        }
        while let Some(job) = q.pop() {
            std::hint::black_box(job);
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / (rounds * CAPACITY as u64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_sorted_and_hold_the_rate_and_the_mix() {
        let a = schedule(5, 0, RATE, 10.0);
        let b = schedule(5, 0, RATE, 10.0);
        let key = |s: &[Arrival]| -> Vec<(Duration, u32, usize)> {
            s.iter().map(|a| (a.at, a.tenant, a.program)).collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&schedule(6, 0, RATE, 10.0)));
        assert_ne!(key(&a), key(&schedule(5, 1, RATE, 10.0)));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let n = a.len() as f64;
        assert!((n - RATE * 10.0).abs() < 3.0, "{n} requests in 10 s");
        let (paper_base, _) = pool_of(SizeClass::Paper);
        let papers = a.iter().filter(|a| a.program >= paper_base).count() as f64;
        assert!(
            (papers / n - 0.03).abs() < 0.005,
            "{papers} of {n} are papers"
        );
    }
}
