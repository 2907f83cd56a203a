//! The scheduler board: the whole scheduler state machine — both
//! placements — free of threads, channels and clocks.
//!
//! [`Board`] owns everything the evaluators share — one deque of
//! pending region jobs per worker, the `(ticket, region) →` [`JobLoc`]
//! location table, the per-worker load accounts, the dead set, every
//! live job's input log, and the steal/locality and
//! crash/re-execution/duplicate counters — and has the one
//! implementation of each transition over them. The two
//! [`SchedulerMode`]s differ only in how a ticket is seeded and whether
//! a worker with an empty deque may steal:
//!
//! | transition | what it decides |
//! |---|---|
//! | [`Board::seed`], `Fixed` | modular seeding: region `r` onto worker `(r + rotation) mod W` ([`modular_placements`]) |
//! | [`Board::seed`], `Stealing` | LPT + parent/child co-seeding of a ticket's regions onto the deques ([`seed_placements`]) |
//! | [`Board::claim`] | own deque front; under `Stealing` only, else the largest eligible job of the most-loaded live victim |
//! | [`Board::take`] | a keyed take of one job off the taker's own deque (the sim's parser push) |
//! | [`Board::route`] | a boundary value's destination worker: table lookup, log-at-send, content-keyed duplicate suppression, local/remote count |
//! | [`Board::deliver`] | what the receiving worker does with it: attach to the queued job, feed the active one, forward, or drop |
//! | [`Board::retire`] | ownership check, load settle, record (and input log) freed |
//! | [`Board::crash`] / [`Board::restart`] | the victim's queued + active jobs rebuilt with full-log replay and reseeded least-loaded-first in `(ticket, region)` order; rejoin |
//! | [`Board::cancel`] | a failed ticket's jobs purged |
//!
//! Two drivers run it. The live pool ([`super::pool`]) calls it from
//! worker threads under one mutex, always under `Fixed`, and moves
//! values over channels; the simulator ([`super::sim`]) calls it from
//! netsim handlers under either mode and adds only what virtual time
//! needs (a per-machine `busy_until` clock and a transfer-cost gate,
//! both passed to [`Board::claim`] as its eligibility predicate).
//! Neither re-implements a transition, so "the sim runs the deployed
//! policy" holds by construction, and crash recovery covers both
//! placements.
//!
//! A job's record lives in one map from seeding to retirement, so an
//! absent record means exactly *retired or cancelled* on every path,
//! and retiring a job frees its input log in the same step.

use super::{FaultCounters, SchedCounters, SchedulerMode, Ticket};
use crate::grammar::AttrId;
use crate::split::RegionId;
use crate::tree::NodeId;
use std::collections::{HashMap, VecDeque};

/// Identifies one region job.
pub(crate) type JobKey = (Ticket, RegionId);

/// One boundary attribute value bound for a job.
pub(crate) type Input<V> = (NodeId, AttrId, V);

/// Load value pinning a dead worker at the bottom of every
/// least-loaded choice (large enough to lose all comparisons, small
/// enough never to overflow when summed with real work).
pub(crate) const DEAD_LOAD: u64 = u64::MAX / 2;

/// Where a region job currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobLoc {
    /// Waiting in this worker's deque — stealable.
    Queued(usize),
    /// Claimed by this worker — never migrates again (short of a crash).
    Active(usize),
}

impl JobLoc {
    fn worker(self) -> usize {
        match self {
            JobLoc::Queued(w) | JobLoc::Active(w) => w,
        }
    }
}

/// Chooses a worker for every region of one tree under the stealing
/// scheduler's seeding policy, updating `load` (one slot per worker)
/// in place. LPT: regions are placed largest-estimated-work first, so
/// big regions spread before small ones fill the gaps. Locality: a
/// region whose parent region (or an already-placed child) has a home
/// prefers that relative's worker — keeping boundary-attribute
/// messages worker-local — unless that worker's load exceeds the
/// least-loaded worker's by more than one region's worth (capped at a
/// fair share), which would stack a dependency chain onto one worker
/// and serialize it. Ties break toward the lowest worker index, so
/// placement is deterministic. Dead workers sit at [`DEAD_LOAD`], so
/// neither the least-loaded choice nor the locality slack test picks
/// them.
fn seed_placements(
    work: &[u64],
    parent_of: impl Fn(RegionId) -> Option<RegionId>,
    load: &mut [u64],
) -> Vec<usize> {
    let workers = load.len();
    let total: u64 = work.iter().sum();
    // A little over-filling for locality is tolerable — runtime
    // stealing corrects residual imbalance — but co-locating a whole
    // region chain serializes it, so the slack is tight.
    let bound = (total / workers as u64).max(1);
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by(|&a, &b| work[b].cmp(&work[a]).then(a.cmp(&b)));
    let mut placements = vec![usize::MAX; work.len()];
    let mut placed_child: HashMap<RegionId, usize> = HashMap::new();
    for &r in &order {
        let rid = r as RegionId;
        let parent = parent_of(rid);
        let pref = parent
            .and_then(|p| {
                let w = placements[p as usize];
                (w != usize::MAX).then_some(w)
            })
            .or_else(|| placed_child.get(&rid).copied());
        let least = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("at least one worker");
        let w = match pref {
            Some(p) if load[p] <= load[least] + bound.min(work[r]) => p,
            _ => least,
        };
        placements[r] = w;
        load[w] += work[r];
        if let Some(p) = parent {
            placed_child.entry(p).or_insert(w);
        }
    }
    placements
}

/// [`SchedulerMode::Fixed`]'s placement of a ticket's `regions`: region
/// `r` on worker `(r + rotation) mod W` — with `rotation` 0 the paper's
/// region *k* on machine *k* (§3) — or, if that worker is dead, the next
/// live one after it (the home itself when none is: the job waits for a
/// restart).
fn modular_placements(regions: usize, rotation: usize, dead: &[bool]) -> Vec<usize> {
    let workers = dead.len();
    (0..regions)
        .map(|r| {
            let home = (r + rotation) % workers;
            (0..workers)
                .map(|k| (home + k) % workers)
                .find(|&w| !dead[w])
                .unwrap_or(home)
        })
        .collect()
}

/// A live job's record, from seeding to retirement.
struct JobRec<V, P> {
    loc: JobLoc,
    /// Estimated work — the LPT seeding key and the load-account unit.
    work: u64,
    /// What the driver needs to build the job's machine (the pool: the
    /// tree and decomposition; the sim: the subtree's wire size). Kept
    /// after the claim so a crash can rebuild the job.
    payload: P,
    /// Values delivered while the job was queued; handed to the
    /// claimer, so a steal migrates them with the job.
    early: Vec<Input<V>>,
    /// Every value *sent* to the job, appended at send time — the
    /// recovery's stable storage (a value still on the wire when its
    /// destination dies is not lost) and the content-keyed duplicate
    /// filter (a `(node, attr)` already logged is a re-executed
    /// producer replaying its sends).
    log: Vec<Input<V>>,
}

/// What [`Board::claim`] hands the claiming worker.
pub(crate) struct Claimed<V, P> {
    pub key: JobKey,
    pub payload: P,
    /// Values that arrived before activation, to replay into the
    /// machine (after a crash: the job's whole input log).
    pub early: Vec<Input<V>>,
}

/// What the receiving worker does with a delivered value
/// ([`Board::deliver`]).
pub(crate) enum Delivery<V> {
    /// The job is queued here: the value was attached to it.
    Stored,
    /// The job is active here: feed its machine.
    Mine(V),
    /// The job lives on another worker now: send it on.
    Forward(usize, V),
    /// The job already finished (or was cancelled): nothing to do.
    Dropped,
}

/// The scheduler's shared state machine (see the module docs). `V` is
/// the attribute value type, `P` the driver's per-job payload.
pub(crate) struct Board<V, P> {
    /// The seeding policy, and whether an idle worker may steal.
    mode: SchedulerMode,
    /// Pending jobs per worker, seeding order.
    deques: Vec<VecDeque<JobKey>>,
    jobs: HashMap<JobKey, JobRec<V, P>>,
    /// Per-worker outstanding estimated work (queued + active); a dead
    /// worker is pinned at [`DEAD_LOAD`].
    load: Vec<u64>,
    dead: Vec<bool>,
    sched: SchedCounters,
    /// Only the crash / re-execution / duplicate fields are the
    /// board's; the rest stay zero here.
    faults: FaultCounters,
}

impl<V: Clone, P: Clone> Board<V, P> {
    pub fn new(workers: usize, mode: SchedulerMode) -> Self {
        Board {
            mode,
            deques: (0..workers).map(|_| VecDeque::new()).collect(),
            jobs: HashMap::new(),
            load: vec![0; workers],
            dead: vec![false; workers],
            sched: SchedCounters::default(),
            faults: FaultCounters::default(),
        }
    }

    /// Workers that are up, ascending — who a wake goes to.
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dead.len()).filter(|&w| !self.dead[w])
    }

    pub fn sched_counters(&self) -> SchedCounters {
        self.sched
    }

    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    pub fn reset_counters(&mut self) {
        self.sched = SchedCounters::default();
        self.faults = FaultCounters::default();
    }

    /// Counts a duplicate the driver suppressed itself (a re-executed
    /// region reporting to the parser a second time: the sim's root
    /// attribute, the pool's `Done`).
    pub fn count_duplicate(&mut self) {
        self.faults.dup_suppressed += 1;
    }

    /// Nothing seeded is unretired: no pending job, no record (hence no
    /// input log), and every live worker's load account back at zero.
    pub fn is_quiescent(&self) -> bool {
        self.jobs.is_empty()
            && self.deques.iter().all(|d| d.is_empty())
            && self.live().all(|w| self.load[w] == 0)
    }

    /// Seeds one ticket's region jobs (`work[r]` estimated for region
    /// `r`, `parent_of(r)` its parent region in the decomposition) onto
    /// the deques — by [`modular_placements`] from `rotation` under
    /// `Fixed`, by [`seed_placements`] under `Stealing` — and returns
    /// each region's home worker. Every region is recorded before this
    /// returns — so before the driver wakes any worker — which is what
    /// lets every other path read an absent record as "finished".
    pub fn seed(
        &mut self,
        ticket: Ticket,
        rotation: usize,
        work: &[u64],
        parent_of: impl Fn(RegionId) -> Option<RegionId>,
        mut payload: impl FnMut(RegionId) -> P,
    ) -> Vec<usize> {
        let placements = match self.mode {
            SchedulerMode::Fixed => {
                let homes = modular_placements(work.len(), rotation, &self.dead);
                for (&w, &units) in homes.iter().zip(work) {
                    self.load[w] = self.load[w].saturating_add(units);
                }
                homes
            }
            SchedulerMode::Stealing => seed_placements(work, parent_of, &mut self.load),
        };
        for (r, &w) in placements.iter().enumerate() {
            let key = (ticket, r as RegionId);
            self.jobs.insert(
                key,
                JobRec {
                    loc: JobLoc::Queued(w),
                    work: work[r],
                    payload: payload(r as RegionId),
                    early: Vec::new(),
                    log: Vec::new(),
                },
            );
            self.deques[w].push_back(key);
        }
        placements
    }

    /// Claims work for worker `me`: the front of its own deque (oldest
    /// seeded job), else — under `Stealing` only — a **steal**: the
    /// largest pending job of the most-loaded live victim, searched
    /// from the back of the victim's deque. `eligible(victim, None)`
    /// admits a victim at all and `eligible(victim, Some(payload))` one
    /// of its jobs; a driver with no notion of time passes
    /// `|_, _| true`. The job becomes `Active(me)` and never migrates
    /// again. `None` when nothing is claimable (or `me` is dead: a
    /// worker between its crash and its exit must not grab work that
    /// would be lost with it).
    pub fn claim(
        &mut self,
        me: usize,
        eligible: impl Fn(usize, Option<&P>) -> bool,
    ) -> Option<Claimed<V, P>> {
        if self.dead[me] {
            return None;
        }
        let key = match self.deques[me].pop_front() {
            Some(key) => key,
            None if self.mode == SchedulerMode::Fixed => return None,
            None => {
                let victim = (0..self.deques.len())
                    .filter(|&w| !self.dead[w] && !self.deques[w].is_empty() && eligible(w, None))
                    .max_by_key(|&w| (self.load[w], w))?;
                let (mut best, mut best_work) = (None, 0u64);
                for (i, key) in self.deques[victim].iter().enumerate().rev() {
                    let job = &self.jobs[key];
                    if job.work > best_work && eligible(victim, Some(&job.payload)) {
                        (best, best_work) = (Some(i), job.work);
                    }
                }
                let key = self.deques[victim].remove(best?).expect("index in range");
                self.load[victim] = self.load[victim].saturating_sub(best_work);
                self.load[me] += best_work;
                self.sched.steals += 1;
                self.sched.migrated_attrs += self.jobs[&key].early.len() as u64;
                key
            }
        };
        Some(self.activate(me, key))
    }

    /// Worker `me` takes job `key` off its own deque: the job whose
    /// subtree was pushed to it, activated by that arrival rather than
    /// by a claim (the sim's fixed placement, where the parser ships
    /// each region to its home). `None` unless the job is queued here —
    /// a crash reseeded it elsewhere, or a claim already took it.
    pub fn take(&mut self, me: usize, key: JobKey) -> Option<Claimed<V, P>> {
        if self.dead[me] || self.jobs.get(&key)?.loc != JobLoc::Queued(me) {
            return None;
        }
        let deque = &mut self.deques[me];
        let i = deque
            .iter()
            .position(|&k| k == key)
            .expect("a Queued(me) job is in my deque");
        deque.remove(i);
        Some(self.activate(me, key))
    }

    /// Marks `key`, just taken off a deque, `Active(me)` and hands its
    /// payload and early values over.
    fn activate(&mut self, me: usize, key: JobKey) -> Claimed<V, P> {
        let job = self
            .jobs
            .get_mut(&key)
            .expect("a queued job has a board record");
        job.loc = JobLoc::Active(me);
        Claimed {
            key,
            payload: job.payload.clone(),
            early: std::mem::take(&mut job.early),
        }
    }

    /// Sender side of a boundary value from worker `from` to job `to`:
    /// returns the worker to send it to, or `None` when nothing must be
    /// sent — the job already finished (the machine completed without
    /// the value), or its log already holds this `(node, attr)` (a
    /// re-executed producer replaying its sends; suppressed and
    /// counted, so recovery cannot double-feed a machine — each
    /// boundary instance has one defining rule, so the first delivery
    /// is as good as any). A value that is sent is logged first.
    pub fn route(
        &mut self,
        from: usize,
        to: JobKey,
        node: NodeId,
        attr: AttrId,
        value: &V,
    ) -> Option<usize> {
        let job = self.jobs.get_mut(&to)?;
        if job.log.iter().any(|&(n, a, _)| n == node && a == attr) {
            self.faults.dup_suppressed += 1;
            return None;
        }
        job.log.push((node, attr, value.clone()));
        let w = job.loc.worker();
        if w == from {
            self.sched.local_sends += 1;
        } else {
            self.sched.remote_sends += 1;
        }
        Some(w)
    }

    /// Receiver side: worker `me` holds a value for job `to`, which may
    /// have moved or finished since the sender routed it.
    pub fn deliver(
        &mut self,
        me: usize,
        to: JobKey,
        node: NodeId,
        attr: AttrId,
        value: V,
    ) -> Delivery<V> {
        let Some(job) = self.jobs.get_mut(&to) else {
            return Delivery::Dropped;
        };
        match job.loc {
            JobLoc::Queued(w) if w == me => {
                debug_assert!(
                    self.deques[me].contains(&to),
                    "a Queued(me) job is in my deque"
                );
                job.early.push((node, attr, value));
                Delivery::Stored
            }
            JobLoc::Active(w) if w == me => Delivery::Mine(value),
            loc => Delivery::Forward(loc.worker(), value),
        }
    }

    /// Retires job `key`, which worker `me` finished (or is dropping),
    /// and reports whether `me` still *owned* it — the record saying
    /// `Active(me)`. Crash recovery may have reseeded the job elsewhere
    /// while a dying worker was still driving it, and a cancellation
    /// may have purged it; then the record, and the right to report the
    /// job done, belong to someone else and nothing changes. An owned
    /// retirement settles `me`'s load account and frees the record,
    /// input log included.
    pub fn retire(&mut self, me: usize, key: JobKey) -> bool {
        match self.jobs.get(&key) {
            Some(job) if job.loc == JobLoc::Active(me) => {
                self.load[me] = self.load[me].saturating_sub(job.work);
                self.jobs.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Worker `victim` died. Every job living on it — queued in its
    /// deque or active on it — becomes a fresh pending job whose early
    /// values are its *whole* input log (a queued job's accumulated
    /// values may miss deliveries that were still on the wire; the log
    /// has everything sent so far, and machines drop re-deliveries),
    /// reseeded onto the least-loaded survivors in `(ticket, region)`
    /// order. Jobs that already retired have no record and are not
    /// re-executed. Returns `false` (and does nothing) if the victim
    /// was already dead.
    pub fn crash(&mut self, victim: usize) -> bool {
        if self.dead[victim] {
            return false;
        }
        self.dead[victim] = true;
        self.deques[victim].clear();
        self.load[victim] = DEAD_LOAD;
        let mut lost: Vec<JobKey> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.loc.worker() == victim)
            .map(|(&key, _)| key)
            .collect();
        lost.sort_unstable();
        self.faults.crashes += 1;
        self.faults.regions_reexecuted += lost.len() as u64;
        for key in lost {
            let w = self
                .live()
                .min_by_key(|&w| (self.load[w], w))
                // No survivor: park on the victim's own deque until a
                // restart rejoins and claims it.
                .unwrap_or(victim);
            let job = self.jobs.get_mut(&key).expect("collected above");
            job.loc = JobLoc::Queued(w);
            job.early = job.log.clone();
            self.load[w] = self.load[w].saturating_add(job.work);
            self.deques[w].push_back(key);
        }
        true
    }

    /// Worker `me` is back: it rejoins with a load account reflecting
    /// whatever recovery parked on its deque (normally nothing).
    pub fn restart(&mut self, me: usize) {
        self.dead[me] = false;
        self.load[me] = self.deques[me].iter().map(|k| self.jobs[k].work).sum();
    }

    /// Purges every job of a failed ticket — queued or active — and
    /// settles the load accounts. Workers still driving one of its
    /// machines find no record at [`Board::retire`] and report nothing.
    pub fn cancel(&mut self, ticket: Ticket) {
        for deque in &mut self.deques {
            deque.retain(|&(t, _)| t != ticket);
        }
        let (load, dead) = (&mut self.load, &self.dead);
        self.jobs.retain(|&(t, _), job| {
            if t != ticket {
                return true;
            }
            let w = job.loc.worker();
            if !dead[w] {
                load[w] = load[w].saturating_sub(job.work);
            }
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    type TestBoard = Board<u32, ()>;

    /// Region parents of a chain-shaped decomposition `0 ← 1 ← 2 …`.
    fn chain(r: RegionId) -> Option<RegionId> {
        r.checked_sub(1)
    }

    impl<V: Clone, P: Clone> Board<V, P> {
        fn stealing(workers: usize) -> Self {
            Board::new(workers, SchedulerMode::Stealing)
        }
    }

    /// Seeds one ticket with the given per-region work, rotated by the
    /// ticket under `Fixed` (the pool's rule); returns the homes.
    fn seed<P: Clone>(
        b: &mut Board<u32, P>,
        ticket: Ticket,
        work: &[u64],
        payload: P,
    ) -> Vec<usize> {
        b.seed(ticket, ticket as usize, work, chain, |_| payload.clone())
    }

    /// The invariants both drivers rely on.
    fn check(b: &TestBoard) {
        for (w, deque) in b.deques.iter().enumerate() {
            for key in deque {
                assert_eq!(b.jobs[key].loc, JobLoc::Queued(w), "deque entry {key:?}");
            }
        }
        let mut want = vec![0u64; b.load.len()];
        for (key, job) in &b.jobs {
            want[job.loc.worker()] += job.work;
            if let JobLoc::Queued(w) = job.loc {
                assert!(
                    b.deques[w].contains(key),
                    "Queued({w}) job {key:?} is in deque {w}"
                );
                assert_eq!(b.deques[w].iter().filter(|k| *k == key).count(), 1);
            } else {
                assert!(
                    job.early.is_empty(),
                    "claimed jobs hand their early values over"
                );
            }
            let mut logged: Vec<_> = job.log.iter().map(|&(n, a, _)| (n, a)).collect();
            logged.sort_unstable();
            logged.dedup();
            assert_eq!(logged.len(), job.log.len(), "{key:?} logged a value twice");
        }
        for (w, &want) in want.iter().enumerate() {
            if b.dead[w] {
                assert!(b.load[w] >= DEAD_LOAD, "dead worker {w} is pinned");
            } else {
                assert_eq!(b.load[w], want, "load account of worker {w}");
            }
        }
    }

    #[test]
    fn seeding_spreads_by_work_and_records_every_region() {
        let mut b = TestBoard::stealing(3);
        seed(&mut b, 0, &[10, 1, 9, 8], ());
        check(&b);
        assert_eq!(b.jobs.len(), 4);
        // LPT: the three big regions land on three different workers.
        let home = |r| b.jobs[&(0, r)].loc.worker();
        assert_ne!(home(0), home(2));
        assert_ne!(home(0), home(3));
        assert_ne!(home(2), home(3));
        assert_eq!(b.load.iter().sum::<u64>(), 28);
        assert!(!b.is_quiescent());
    }

    #[test]
    fn claim_prefers_own_front_then_steals_the_largest_from_the_most_loaded() {
        let mut b = TestBoard::stealing(2);
        seed(&mut b, 0, &[5], ());
        seed(&mut b, 1, &[7], ());
        seed(&mut b, 2, &[3], ());
        // Placement: 5 → w0, 7 → w1, 3 → w0.
        assert_eq!(b.claim(0, |_, _| true).unwrap().key, (0, 0));
        assert_eq!(b.claim(0, |_, _| true).unwrap().key, (2, 0));
        // Own deque empty: steal from w1.
        let stolen = b.claim(0, |_, _| true).unwrap();
        assert_eq!(stolen.key, (1, 0));
        assert_eq!(b.sched_counters().steals, 1);
        assert_eq!(b.jobs[&(1, 0)].loc, JobLoc::Active(0));
        check(&b);
        assert!(b.claim(1, |_, _| true).is_none());
    }

    #[test]
    fn the_eligibility_predicate_gates_victims_and_jobs() {
        let mut b = Board::<u32, u64>::stealing(2);
        seed(&mut b, 0, &[5], 50);
        seed(&mut b, 1, &[7], 70);
        seed(&mut b, 2, &[3], 30);
        assert_eq!(b.claim(1, |_, _| true).unwrap().key, (1, 0));
        // w0 holds (0,0) and (2,0); w1 is idle.
        assert!(
            b.claim(1, |_, job| job.is_some()).is_none(),
            "victim refused"
        );
        assert!(
            b.claim(1, |_, job| job.is_none()).is_none(),
            "every job refused"
        );
        // Only the small job is admitted, so it is the one stolen.
        let got = b.claim(1, |_, job| job.is_none_or(|&p| p < 40)).unwrap();
        assert_eq!((got.key, got.payload), ((2, 0), 30));
    }

    #[test]
    fn routed_values_attach_to_queued_jobs_and_migrate_with_a_steal() {
        let mut b = TestBoard::stealing(2);
        // A parent/child pair is co-seeded: both jobs queue on w0.
        seed(&mut b, 0, &[4, 4], ());
        let (to, w, thief) = ((0, 1), 0, 1);
        assert_eq!(b.jobs[&to].loc, JobLoc::Queued(w));
        assert_eq!(b.route(thief, to, NodeId(9), AttrId(0), &77), Some(w));
        assert!(matches!(
            b.deliver(w, to, NodeId(9), AttrId(0), 77),
            Delivery::Stored
        ));
        // The same instance again is a replayed send.
        assert_eq!(b.route(thief, to, NodeId(9), AttrId(0), &77), None);
        assert_eq!(b.fault_counters().dup_suppressed, 1);
        assert_eq!(b.sched_counters().remote_sends, 1);
        // w1's deque is empty, so its claim steals — from the back.
        let got = b.claim(thief, |_, _| true).unwrap();
        assert_eq!(got.key, to);
        assert_eq!(b.sched_counters().migrated_attrs, 1);
        assert_eq!(got.early, vec![(NodeId(9), AttrId(0), 77)]);
        // A straggler delivered to the old home is forwarded.
        assert!(matches!(
            b.deliver(w, to, NodeId(9), AttrId(1), 5),
            Delivery::Forward(t, 5) if t == thief
        ));
        assert!(matches!(
            b.deliver(thief, to, NodeId(9), AttrId(1), 5),
            Delivery::Mine(5)
        ));
    }

    #[test]
    fn retirement_frees_the_record_and_only_the_owner_may_retire() {
        let mut b = TestBoard::stealing(2);
        seed(&mut b, 0, &[6], ());
        let job = b.claim(0, |_, _| true).unwrap();
        b.route(1, job.key, NodeId(1), AttrId(0), &1);
        assert!(!b.retire(1, job.key), "not the owner");
        assert!(b.retire(0, job.key));
        assert!(!b.retire(0, job.key), "already retired");
        assert!(b.is_quiescent());
        assert_eq!(b.route(1, job.key, NodeId(1), AttrId(1), &2), None);
        assert!(matches!(
            b.deliver(0, job.key, NodeId(1), AttrId(1), 2),
            Delivery::Dropped
        ));
    }

    #[test]
    fn crash_reseeds_queued_and_active_jobs_with_full_log_replay() {
        let mut b = TestBoard::stealing(2);
        seed(&mut b, 0, &[5], ());
        seed(&mut b, 1, &[4], ());
        seed(&mut b, 2, &[3], ());
        seed(&mut b, 3, &[2], ());
        // w0: (0,0) then (3,0).
        let active = b.claim(0, |_, _| true).unwrap();
        assert_eq!(active.key, (0, 0));
        b.route(1, (0, 0), NodeId(1), AttrId(0), &10);
        b.route(1, (3, 0), NodeId(2), AttrId(0), &20);
        assert!(b.crash(0));
        assert!(!b.crash(0), "already dead");
        check(&b);
        let f = b.fault_counters();
        assert_eq!((f.crashes, f.regions_reexecuted), (1, 2));
        for key in [(0, 0), (3, 0)] {
            let job = &b.jobs[&key];
            assert!(matches!(job.loc, JobLoc::Queued(w) if w != 0));
            assert_eq!(job.early, job.log);
            assert_eq!(job.early.len(), 1);
        }
        // The zombie's late retirement is refused; a survivor's is not.
        assert!(!b.retire(0, (0, 0)));
        assert!(b.claim(0, |_, _| true).is_none(), "the dead claim nothing");
        b.restart(0);
        check(&b);
        assert_eq!(b.load[0], 0);
    }

    #[test]
    fn a_crash_with_no_survivor_parks_jobs_until_the_restart() {
        let mut b = TestBoard::stealing(1);
        seed(&mut b, 0, &[3, 2], ());
        b.claim(0, |_, _| true).unwrap();
        assert!(b.crash(0));
        assert_eq!(b.deques[0].len(), 2);
        b.restart(0);
        check(&b);
        assert_eq!(b.load[0], 5);
        assert_eq!(b.claim(0, |_, _| true).unwrap().key, (0, 0));
    }

    #[test]
    fn cancel_purges_a_ticket_and_settles_load() {
        let mut b = TestBoard::stealing(2);
        seed(&mut b, 0, &[4, 4], ());
        seed(&mut b, 1, &[2], ());
        let job = b.claim(0, |_, _| true).unwrap();
        b.cancel(job.key.0);
        check(&b);
        assert!(b.jobs.keys().all(|&(t, _)| t != job.key.0));
        assert!(!b.retire(0, job.key), "cancelled under the worker");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interleaving of the transitions, under either seeding
        /// policy, keeps the invariants the drivers rely on, and a
        /// record is absent exactly when its job retired or was
        /// cancelled. Under modular seeding no job ever leaves its home
        /// worker but through a crash, and nothing is stolen.
        #[test]
        fn random_transition_sequences_keep_the_board_consistent(rng_seed in any::<u64>()) {
            random_transitions(rng_seed, SchedulerMode::Fixed)?;
            random_transitions(rng_seed, SchedulerMode::Stealing)?;
        }
    }

    /// One random transition sequence of
    /// [`random_transition_sequences_keep_the_board_consistent`].
    fn random_transitions(rng_seed: u64, mode: SchedulerMode) -> Result<(), TestCaseError> {
        let modular = mode == SchedulerMode::Fixed;
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let workers = 1 + rng.gen_range(0..4) as usize;
        let mut b = TestBoard::new(workers, mode);
        let mut next_ticket: Ticket = 0;
        // Every key ever seeded, and whether it should still exist.
        let mut alive: HashMap<JobKey, bool> = HashMap::new();
        // Where each job was seeded, or reseeded by a crash.
        let mut homes: HashMap<JobKey, usize> = HashMap::new();
        let pick = |rng: &mut SmallRng, alive: &HashMap<JobKey, bool>| {
            let mut keys: Vec<JobKey> = alive.keys().copied().collect();
            keys.sort_unstable();
            (!keys.is_empty()).then(|| keys[rng.gen_range(0..keys.len() as u64) as usize])
        };
        for _ in 0..120 {
            let w = rng.gen_range(0..workers as u64) as usize;
            match rng.gen_range(0..10) {
                0 | 1 => {
                    let regions = 1 + rng.gen_range(0..4) as usize;
                    let work: Vec<u64> = (0..regions).map(|_| 1 + rng.gen_range(0..20)).collect();
                    let all_live = b.live().count() == workers;
                    let placed = seed(&mut b, next_ticket, &work, ());
                    for (r, &h) in placed.iter().enumerate() {
                        if modular && all_live {
                            prop_assert_eq!(h, (r + next_ticket as usize) % workers);
                        }
                        alive.insert((next_ticket, r as RegionId), true);
                        homes.insert((next_ticket, r as RegionId), h);
                    }
                    next_ticket += 1;
                }
                2 | 3 => {
                    let before: Vec<JobKey> = b.deques[w].iter().copied().collect();
                    let claimed = b.claim(w, |_, _| true);
                    if modular {
                        prop_assert_eq!(claimed.is_some(), !b.dead[w] && !before.is_empty());
                    }
                    if let Some(job) = claimed {
                        prop_assert!(!b.dead[w]);
                        prop_assert_eq!(b.jobs[&job.key].loc, JobLoc::Active(w));
                        if let Some(&front) = before.first() {
                            prop_assert_eq!(job.key, front, "own front first");
                        }
                    }
                }
                9 => {
                    if let Some(key) = pick(&mut rng, &alive) {
                        let queued_here = !b.dead[w]
                            && b.jobs.get(&key).is_some_and(|j| j.loc == JobLoc::Queued(w));
                        let early = b.jobs.get(&key).map(|j| j.early.clone());
                        let taken = b.take(w, key);
                        prop_assert_eq!(taken.is_some(), queued_here);
                        if let Some(job) = taken {
                            prop_assert_eq!(job.key, key);
                            prop_assert_eq!(
                                Some(job.early),
                                early,
                                "early values in arrival order"
                            );
                            prop_assert_eq!(b.jobs[&key].loc, JobLoc::Active(w));
                        }
                    }
                }
                4 => {
                    if let Some(to) = pick(&mut rng, &alive) {
                        let (node, attr) = (
                            NodeId(rng.gen_range(0..3) as u32),
                            AttrId(rng.gen_range(0..2) as u32),
                        );
                        let sent = b.route(w, to, node, attr, &7);
                        prop_assert!(alive[&to] || sent.is_none(), "finished jobs take nothing");
                        if let Some(dest) = sent {
                            // Deliver at the routed worker, or a
                            // stale one: never lost, never panics.
                            let at = if rng.gen_range(0..4) == 0 { w } else { dest };
                            match b.deliver(at, to, node, attr, 7) {
                                Delivery::Forward(next, v) => {
                                    prop_assert_eq!(next, b.jobs[&to].loc.worker());
                                    prop_assert!(!matches!(
                                        b.deliver(next, to, node, attr, v),
                                        Delivery::Forward(..) | Delivery::Dropped
                                    ));
                                }
                                Delivery::Dropped => {
                                    prop_assert!(false, "live job dropped a value")
                                }
                                Delivery::Stored | Delivery::Mine(_) => {}
                            }
                        }
                    }
                }
                5 => {
                    if let Some(key) = pick(&mut rng, &alive) {
                        let owned = b.jobs.get(&key).is_some_and(|j| j.loc == JobLoc::Active(w));
                        prop_assert_eq!(b.retire(w, key), owned);
                        if owned {
                            alive.insert(key, false);
                        }
                    }
                }
                6 => {
                    let was_dead = b.dead[w];
                    let before = b.fault_counters().regions_reexecuted;
                    let mut lost: Vec<JobKey> = b
                        .jobs
                        .iter()
                        .filter(|(_, j)| j.loc.worker() == w)
                        .map(|(&k, _)| k)
                        .collect();
                    lost.sort_unstable();
                    prop_assert_eq!(b.crash(w), !was_dead);
                    if !was_dead {
                        prop_assert_eq!(
                            b.fault_counters().regions_reexecuted,
                            before + lost.len() as u64
                        );
                        let any_live = b.live().next().is_some();
                        let mut tails: Vec<usize> = vec![0; workers];
                        for key in lost.iter().rev() {
                            // Reseeded in key order: walking the
                            // lost keys backwards meets each deque's
                            // tail in reverse.
                            let JobLoc::Queued(home) = b.jobs[key].loc else {
                                prop_assert!(false, "a lost job is pending again");
                                unreachable!();
                            };
                            prop_assert!(!any_live || !b.dead[home], "reseeded onto the dead");
                            let deque = &b.deques[home];
                            tails[home] += 1;
                            prop_assert_eq!(deque[deque.len() - tails[home]], *key);
                            prop_assert_eq!(&b.jobs[key].early, &b.jobs[key].log);
                        }
                        for key in &lost {
                            homes.insert(*key, b.jobs[key].loc.worker());
                        }
                    }
                }
                7 => {
                    if b.dead[w] {
                        b.restart(w);
                    }
                }
                _ => {
                    if next_ticket > 0 {
                        let t = rng.gen_range(0..next_ticket);
                        b.cancel(t);
                        for (key, live) in alive.iter_mut() {
                            if key.0 == t {
                                *live = false;
                            }
                        }
                    }
                }
            }
            check(&b);
            for (key, live) in &alive {
                prop_assert_eq!(b.jobs.contains_key(key), *live, "record of {:?}", key);
            }
            if modular {
                for (key, job) in &b.jobs {
                    prop_assert_eq!(job.loc.worker(), homes[key], "{:?} left its home", key);
                }
            }
        }
        if modular {
            prop_assert_eq!(b.sched_counters().steals, 0);
            prop_assert_eq!(b.sched_counters().migrated_attrs, 0);
        }
        Ok(())
    }

    /// Reseeding order is `(ticket, region)`, least-loaded survivor
    /// first — the property that makes recovery schedules replayable.
    #[test]
    fn crash_reseeds_in_key_order_onto_the_least_loaded_survivors() {
        let mut b = TestBoard::stealing(3);
        for t in 0..6 {
            seed(&mut b, t, &[1], ());
        }
        // Round-robin by load: w0 holds tickets 0 and 3.
        assert_eq!(Vec::from(b.deques[0].clone()), [(0, 0), (3, 0)]);
        b.crash(0);
        // Equal loads break toward the lowest index: 0 → w1, 3 → w2.
        assert_eq!(b.deques[1].back(), Some(&(0, 0)));
        assert_eq!(b.deques[2].back(), Some(&(3, 0)));
    }

    /// Modular seeding under both of its drivers' rotation rules: the
    /// pool's (and the sim's adaptive granularity's) rotation by ticket,
    /// and the sim's fixed-count granularity's 0 — region k on machine k.
    #[test]
    fn fixed_placement_rotates_by_ticket_and_spreads_by_region() {
        for workers in [1usize, 2, 3, 8] {
            let mut b = TestBoard::new(workers, SchedulerMode::Fixed);
            let all: Vec<usize> = (0..workers).collect();
            // Region 0 of consecutive tickets — a whole tree's only
            // job — visits every worker in turn.
            let mut seen: Vec<usize> = (0..workers as Ticket)
                .map(|t| seed(&mut b, t, &[1], ())[0])
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, all, "{workers} workers");
            // A ticket's first `workers` regions land on distinct
            // workers, and the pattern continues past a full turn.
            for (ticket, rotation) in [(10, 10), (11, 11), (17, 17), (12, 0), (13, 0)] {
                let work = vec![1; workers + 1];
                let homes = b.seed(ticket, rotation, &work, chain, |_| ());
                let want: Vec<usize> = (0..=workers).map(|r| (r + rotation) % workers).collect();
                assert_eq!(homes, want, "{workers} workers, ticket {ticket}");
                assert_eq!(homes[workers], homes[0]);
            }
            check(&b);
        }
    }

    /// Under `Fixed` a worker only ever runs what was seeded onto it:
    /// it claims its own front or nothing, a keyed take hands over the
    /// early values in arrival order, and seeding passes over a dead
    /// home.
    #[test]
    fn modular_seeding_never_steals_and_passes_over_the_dead() {
        let mut b = TestBoard::new(3, SchedulerMode::Fixed);
        let homes = seed(&mut b, 0, &[5, 5], ());
        assert_eq!(homes, [0, 1]);
        assert!(
            b.claim(2, |_, _| true).is_none(),
            "an idle worker steals nothing"
        );
        assert!(b.take(0, (0, 1)).is_none(), "not queued here");
        for (attr, v) in [(0, 7), (1, 3)] {
            assert_eq!(b.route(0, (0, 1), NodeId(1), AttrId(attr), &v), Some(1));
            assert!(matches!(
                b.deliver(1, (0, 1), NodeId(1), AttrId(attr), v),
                Delivery::Stored
            ));
        }
        let taken = b.take(1, (0, 1)).unwrap();
        assert_eq!(
            taken.early,
            [(NodeId(1), AttrId(0), 7), (NodeId(1), AttrId(1), 3)]
        );
        assert!(b.take(1, (0, 1)).is_none(), "taken once");
        assert_eq!(b.claim(0, |_, _| true).unwrap().key, (0, 0));
        assert_eq!(b.sched_counters().steals, 0);
        check(&b);
        // Worker 1 dies holding (0, 1): recovery reseeds it, and new
        // tickets whose home is dead go to the next live worker.
        assert!(b.crash(1));
        assert_eq!(b.fault_counters().regions_reexecuted, 1);
        assert_eq!(seed(&mut b, 1, &[1, 1, 1], ()), [2, 2, 0]);
        check(&b);
    }
}
