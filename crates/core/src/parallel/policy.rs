//! Dispatch policies for a service queue over the region pool.
//!
//! The batched runtimes ([`super::pool`], [`super::sim`]) always
//! dispatch trees in submission order. A *service* front end serving an
//! open arrival stream gets to choose which waiting request enters the
//! pipeline window next, and the right choice is a policy question:
//! FIFO is fair in arrival order but lets one huge tree lengthen every
//! later request's latency; shortest-job-first exploits the work
//! estimates the region machinery already computes
//! ([`crate::eval::EvalPlan::tree_work`], the same table
//! `decompose_adaptive` budgets regions with) to keep small requests
//! flowing past big ones; deficit round-robin fair queueing bounds how
//! much of the pool any one tenant can monopolize.
//!
//! [`PolicyQueue`] is the one implementation of those orderings, shared
//! by the wall-clock service queue (`paragram-driver`) and the
//! deterministic network-simulator service (`super::sim`) — so the
//! policy ranking the sim produces is computed by *exactly* the code
//! the real queue runs.
//!
//! Dispatch order composes with, and is independent of, *placement*
//! ([`super::SchedulerMode`]): the policy decides **which** tree
//! enters the pipeline window next; the scheduler decides **where**
//! that tree's region jobs run (fixed modular assignment — the live
//! pool's — or, in the simulator, LPT-seeded deques rebalanced by work
//! stealing). A policy that releases a huge tree still benefits from
//! stealing spreading its regions; stealing never reorders dispatch,
//! so policy-level fairness guarantees hold under either scheduler.

use std::collections::{HashMap, VecDeque};

/// Which waiting request the service dispatches into the pipeline
/// window next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Strict arrival order.
    Fifo,
    /// Smallest estimated work first (ties broken by arrival order).
    /// Estimates come from [`crate::eval::EvalPlan::tree_work`] — known
    /// at admission time, before any evaluation starts.
    ShortestJobFirst,
    /// Per-tenant deficit round-robin: active tenants take turns, each
    /// turn banking `quantum` work units of credit; a tenant's oldest
    /// request dispatches when its bank covers the request's estimated
    /// work. One flooding tenant can then delay a well-behaved one by
    /// at most ~one quantum per rotation, not by its whole backlog.
    FairQueue {
        /// Work-unit credit a tenant banks per rotation (clamped ≥ 1).
        /// Sensible values are around the typical request's
        /// `tree_work`.
        quantum: u64,
    },
}

impl DispatchPolicy {
    /// Short stable name (used in bench JSON and reports).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::Fifo => "fifo",
            DispatchPolicy::ShortestJobFirst => "sjf",
            DispatchPolicy::FairQueue { .. } => "fair",
        }
    }
}

/// One queued request, reduced to what a dispatch decision needs. The
/// caller keeps the real payload and maps back through `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Caller-assigned identity, strictly increasing in arrival order
    /// (the queue relies on this for FIFO and tie-breaking).
    pub seq: u64,
    /// Tenant the request bills to (only [`DispatchPolicy::FairQueue`]
    /// reads it).
    pub tenant: u32,
    /// Estimated work in rule-cost units
    /// ([`crate::eval::EvalPlan::tree_work`]).
    pub work: u64,
}

/// A waiting buffer that yields jobs in the order one
/// [`DispatchPolicy`] prescribes. Deterministic: the pop sequence is a
/// pure function of the push sequence.
#[derive(Debug)]
pub struct PolicyQueue {
    policy: DispatchPolicy,
    /// Arrival order (FIFO base order; per-tenant order is its
    /// subsequence).
    jobs: VecDeque<QueuedJob>,
    /// Active tenants in rotation order (fair queueing only).
    rotation: VecDeque<u32>,
    /// Banked credit per active tenant (fair queueing only).
    deficit: HashMap<u32, u64>,
}

impl PolicyQueue {
    /// An empty queue dispatching under `policy`.
    pub fn new(policy: DispatchPolicy) -> Self {
        PolicyQueue {
            policy,
            jobs: VecDeque::new(),
            rotation: VecDeque::new(),
            deficit: HashMap::new(),
        }
    }

    /// The policy this queue dispatches under.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Enqueues an arrived job. `seq` must exceed every previously
    /// pushed seq.
    pub fn push(&mut self, job: QueuedJob) {
        debug_assert!(
            self.jobs.back().is_none_or(|b| b.seq < job.seq),
            "seq increases in arrival order"
        );
        if matches!(self.policy, DispatchPolicy::FairQueue { .. })
            && !self.rotation.contains(&job.tenant)
        {
            self.rotation.push_back(job.tenant);
            self.deficit.entry(job.tenant).or_insert(0);
        }
        self.jobs.push_back(job);
    }

    /// Removes and returns the job the policy dispatches next.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        match self.policy {
            DispatchPolicy::Fifo => self.jobs.pop_front(),
            DispatchPolicy::ShortestJobFirst => {
                let best = self
                    .jobs
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, j)| (j.work, j.seq))?
                    .0;
                self.jobs.remove(best)
            }
            DispatchPolicy::FairQueue { quantum } => self.pop_fair(quantum.max(1)),
        }
    }

    /// Deficit round-robin: rotate through active tenants, banking
    /// `quantum` per turn, until the tenant at the front can afford its
    /// oldest request. Terminates because every full rotation grows
    /// every active tenant's bank.
    fn pop_fair(&mut self, quantum: u64) -> Option<QueuedJob> {
        if self.jobs.is_empty() {
            return None;
        }
        loop {
            let tenant = *self.rotation.front().expect("jobs imply active tenants");
            let head = self
                .jobs
                .iter()
                .position(|j| j.tenant == tenant)
                .expect("rotation tracks tenants with waiting jobs");
            let work = self.jobs[head].work;
            let bank = self.deficit.get_mut(&tenant).expect("active tenant banked");
            if *bank >= work {
                *bank -= work;
                let job = self.jobs.remove(head).expect("index in bounds");
                if !self.jobs.iter().any(|j| j.tenant == tenant) {
                    // Queue emptied: the tenant leaves the rotation and
                    // forfeits leftover credit (classic DRR — an idle
                    // tenant must not bank credit while away).
                    self.rotation.pop_front();
                    self.deficit.remove(&tenant);
                }
                return Some(job);
            }
            *bank += quantum;
            self.rotation.rotate_left(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64, tenant: u32, work: u64) -> QueuedJob {
        QueuedJob { seq, tenant, work }
    }

    fn drain(q: &mut PolicyQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop()).map(|j| j.seq).collect()
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = PolicyQueue::new(DispatchPolicy::Fifo);
        for (i, w) in [50u64, 5, 500].into_iter().enumerate() {
            q.push(job(i as u64, 0, w));
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn sjf_pops_smallest_work_breaking_ties_by_arrival() {
        let mut q = PolicyQueue::new(DispatchPolicy::ShortestJobFirst);
        for (i, w) in [50u64, 5, 500, 5, 49].into_iter().enumerate() {
            q.push(job(i as u64, 0, w));
        }
        assert_eq!(drain(&mut q), vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn sjf_interleaves_late_small_arrivals() {
        let mut q = PolicyQueue::new(DispatchPolicy::ShortestJobFirst);
        q.push(job(0, 0, 1000));
        q.push(job(1, 0, 10));
        assert_eq!(q.pop().unwrap().seq, 1);
        q.push(job(2, 0, 10));
        q.push(job(3, 0, 2000));
        assert_eq!(drain(&mut q), vec![2, 0, 3]);
    }

    #[test]
    fn fair_queue_round_robins_between_tenants() {
        // Tenant 0 floods four equal jobs before tenant 1's single job
        // arrives; DRR still alternates to tenant 1 after one of
        // tenant 0's.
        let mut q = PolicyQueue::new(DispatchPolicy::FairQueue { quantum: 10 });
        q.push(job(0, 0, 10));
        q.push(job(1, 0, 10));
        q.push(job(2, 0, 10));
        q.push(job(3, 0, 10));
        q.push(job(4, 1, 10));
        assert_eq!(drain(&mut q), vec![0, 4, 1, 2, 3]);
    }

    #[test]
    fn fair_queue_banks_credit_for_oversized_jobs() {
        // Tenant 0's head job costs three quanta: it must wait three
        // rotations, during which tenant 1's cheap jobs flow.
        let mut q = PolicyQueue::new(DispatchPolicy::FairQueue { quantum: 10 });
        q.push(job(0, 0, 30));
        q.push(job(1, 1, 10));
        q.push(job(2, 1, 10));
        q.push(job(3, 1, 10));
        assert_eq!(drain(&mut q), vec![1, 2, 0, 3]);
    }

    #[test]
    fn fair_queue_with_one_tenant_degenerates_to_fifo() {
        let mut q = PolicyQueue::new(DispatchPolicy::FairQueue { quantum: 1 });
        for (i, w) in [50u64, 5, 500].into_iter().enumerate() {
            q.push(job(i as u64, 7, w));
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2]);
    }

    #[test]
    fn departed_tenant_forfeits_banked_credit() {
        let mut q = PolicyQueue::new(DispatchPolicy::FairQueue { quantum: 100 });
        q.push(job(0, 0, 1));
        assert_eq!(q.pop().unwrap().seq, 0);
        // Tenant 0 went idle; on return it starts from an empty bank
        // and cannot burst ahead of tenant 1.
        q.push(job(1, 1, 100));
        q.push(job(2, 0, 100));
        assert_eq!(drain(&mut q), vec![1, 2]);
    }
}
