//! The waiting room of a service queue over the region pool.
//!
//! The batched runtimes ([`super::pool`], [`super::sim`]) dispatch
//! trees in submission order, the order the paper's parser hands them
//! to the evaluators (§3, §4.1). A *service* front end serving an open
//! arrival stream admits requests into a bounded waiting room and moves
//! them into the pipeline window in the same order: first in, first
//! out.
//!
//! [`PolicyQueue`] is that waiting room, shared by the wall-clock
//! service queue (`paragram-driver`) and the deterministic
//! network-simulator service (`super::sim`), so the simulated service
//! runs the code the real queue runs.
//!
//! Dispatch order is independent of *placement*: the waiting room
//! decides **which** tree enters the pipeline window next; the
//! scheduler board decides **where** that tree's region jobs run (the
//! paper's modular placement, in the pool and the simulator alike).

use std::collections::VecDeque;

/// The order in which waiting requests enter the pipeline window. There
/// is one; the type stays only because the benchmark's
/// `policy_push_pop_ns` probe names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Strict arrival order.
    Fifo,
}

/// One queued request. The caller keeps the real payload and maps back
/// through `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Caller-assigned identity, strictly increasing in arrival order.
    pub seq: u64,
    /// Never read: arrival order does not depend on it. Kept only
    /// because the benchmark's `policy_push_pop_ns` probe still sets
    /// it.
    pub tenant: u32,
    /// Never read, like `tenant`, and kept for the same reason.
    pub work: u64,
}

/// A waiting room that yields jobs in arrival order.
#[derive(Debug)]
pub struct PolicyQueue {
    jobs: VecDeque<QueuedJob>,
}

impl PolicyQueue {
    /// An empty waiting room.
    pub fn new(_policy: DispatchPolicy) -> Self {
        PolicyQueue {
            jobs: VecDeque::new(),
        }
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
        self.jobs.push_back(job);
    }

    /// Removes and returns the oldest waiting job.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        self.jobs.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = PolicyQueue::new(DispatchPolicy::Fifo);
        for (i, work) in [50u64, 5, 500].into_iter().enumerate() {
            q.push(QueuedJob {
                seq: i as u64,
                tenant: 0,
                work,
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.seq).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(q.is_empty());
    }
}
