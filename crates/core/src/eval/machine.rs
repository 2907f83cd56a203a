//! The per-evaluator engine of the combined evaluator (§2.4, Figure 4)
//! and of the parallel dynamic evaluator.
//!
//! Each parallel evaluator owns one *region* of the parse tree (see
//! [`crate::split`]). Its *remotely evaluated leaves* are the roots of
//! its child regions, which the decomposition already lists, and the
//! *spine* is the paths from the region root down to them:
//!
//! * **spine nodes** are evaluated dynamically — one scheduler task per
//!   semantic rule;
//! * subtrees hanging off the spine are evaluated **statically**: a
//!   single `StaticVisit` task per visit of the subtree root, whose
//!   *transitive dependencies* — precomputed by the grammar analysis as
//!   attribute phases — are entered into the dynamic dependency graph.
//!
//! Synthesized attributes of remote children and inherited attributes of
//! the region root are *external*: the machine blocks on them until
//! [`Machine::provide`] delivers the value from the network. Inherited
//! attributes the machine computes for remote children, and synthesized
//! attributes of its own region root, are emitted as [`AttrMsg`] sends.
//!
//! In [`MachineMode::Dynamic`] every region node is treated as spine,
//! which is exactly the paper's "purely dynamic" parallel evaluator.
//!
//! # Region-local storage
//!
//! A machine's attribute store is a [`RegionStore`]: slots indexed
//! *within the region* through the decomposition's shared
//! [`crate::split::SlotMap`]. The only nodes a machine ever addresses
//! are the nodes its region owns (dense span from 0) and its boundary
//! children (roots of child regions, aliased through the layout's
//! small remap) — so memory is O(region), the dependency CSR and the
//! ready bookkeeping are sized by the region's slots, and K-region
//! decomposition of a tree allocates ≈1× the tree's instances in total
//! rather than K×. Construction walks only the spine in combined mode. [`Machine::recycle`] /
//! [`Machine::into_store`] hand the region-local store back: a pool
//! report reads it where it is, beside every other region's, and
//! [`crate::tree::AttrStore::absorb_region`] copies it into a
//! whole-tree store for a caller that wants one.

use crate::analysis::Plans;
use crate::csr::Csr;
use crate::grammar::{AttrId, SymbolId};
use crate::split::{Decomposition, RegionId};
use crate::stats::EvalStats;
use crate::tree::{occ_slot, occ_value, Child, NodeId, ParseTree, RegionStore};
use crate::value::AttrValue;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use super::{run_program_segment, EvalError, EvalPlan, MachineScratch};

/// Evaluation strategy of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineMode {
    /// Combined static/dynamic evaluation (requires plans).
    Combined,
    /// Purely dynamic evaluation of the whole region.
    Dynamic,
}

/// Destination of an outgoing attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTarget {
    /// Another evaluator's region.
    Region(RegionId),
    /// The parser (root attributes of the whole tree).
    Parser,
}

/// An attribute value leaving a machine.
#[derive(Debug, Clone)]
pub struct AttrMsg<V> {
    /// Tree node the instance belongs to.
    pub node: NodeId,
    /// Attribute id within that node's symbol.
    pub attr: AttrId,
    /// The computed value.
    pub value: V,
    /// Where it must be delivered.
    pub to: SendTarget,
}

/// What one scheduler step did.
#[derive(Debug)]
pub struct StepOutcome<V> {
    /// Rule-cost units consumed (sum of applied rules' costs).
    pub cost_units: u64,
    /// Rules applied dynamically in this step (0 or 1).
    pub dynamic_rules: usize,
    /// Rules applied inside a static visit in this step.
    pub static_rules: usize,
    /// Attribute messages to transmit.
    pub sends: Vec<AttrMsg<V>>,
    /// Symbol/attribute the step produced (for phase classification in
    /// traces); `None` for attribute-free static visits.
    pub target: Option<(SymbolId, AttrId)>,
}

#[derive(Debug, Clone, Copy)]
enum Task {
    Apply { node: NodeId, rule: usize },
    StaticVisit { node: NodeId, visit: u32 },
}

/// One parallel evaluator working on one region of the tree.
pub struct Machine<V: AttrValue> {
    tree: Arc<ParseTree<V>>,
    plan: Arc<EvalPlan<V>>,
    region: RegionId,
    store: RegionStore<V>,
    tasks: Vec<Task>,
    missing: Vec<u32>,
    /// instance -> tasks waiting on it, in compressed sparse row form
    /// (one flat allocation instead of a `Vec` per instance).
    waiters: Csr,
    /// Per-task priority flag (precomputed so the hot wake-up path does
    /// no tree walks).
    priority: Vec<bool>,
    /// StaticVisit chaining: task -> the next visit's task.
    chain_next: HashMap<u32, u32>,
    ready: VecDeque<u32>,
    ready_priority: VecDeque<u32>,
    executed: usize,
    /// Reusable construction/evaluation buffers (recycled across trees
    /// via [`Machine::recycle`]).
    scratch: MachineScratch<V>,
    stats: EvalStats,
    /// Locally computed instances that must be transmitted.
    send_on_fill: HashMap<usize, (NodeId, AttrId, SendTarget)>,
    /// External instances not yet provided.
    awaiting: HashSet<usize>,
}

impl<V: AttrValue> Machine<V> {
    /// Builds the machine for `region` of the decomposed tree.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`MachineMode::Combined`] but `plans` is
    /// `None` — the caller (the evaluator factory) must fall back to
    /// dynamic mode when the grammar is not l-ordered.
    pub fn new(
        tree: &Arc<ParseTree<V>>,
        plans: Option<&Arc<Plans>>,
        decomp: &Decomposition,
        region: RegionId,
        mode: MachineMode,
    ) -> Self {
        let plan = Arc::new(EvalPlan::from_parts(tree.grammar(), plans.cloned(), None));
        Machine::from_plan(&plan, tree, decomp, region, mode, MachineScratch::new())
    }

    /// Builds the machine from a shared [`EvalPlan`] with reusable
    /// buffers — the batched-driver path. `scratch` is consumed and can
    /// be recovered (with its grown capacity) via [`Machine::recycle`]
    /// when this tree is finished.
    ///
    /// Construction reads what the decomposition already knows instead
    /// of walking the region for it: the boundary children are the
    /// roots of the region's child regions, the node count is the slot
    /// layout's, and the spine is the boundary children's ancestors up
    /// to the region root. One walk then descends from the region root
    /// into spine nodes only (into every region node in dynamic mode),
    /// and the in-region children it does not descend into are the
    /// static subtrees' roots. Each task's priority flag and the
    /// external/send classification are looked up in the plan's tables.
    /// In combined mode the build is O(spine) apart from the region
    /// store, which stays O(region) slots — most of a large region's
    /// build, as first-touch page faults.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`MachineMode::Combined`] but the plan has no
    /// visit sequences — the caller must fall back to dynamic mode when
    /// the grammar is not l-ordered.
    pub fn from_plan(
        plan: &Arc<EvalPlan<V>>,
        tree: &Arc<ParseTree<V>>,
        decomp: &Decomposition,
        region: RegionId,
        mode: MachineMode,
        mut scratch: MachineScratch<V>,
    ) -> Self {
        assert!(
            mode == MachineMode::Dynamic || plan.plans().is_some(),
            "combined mode requires static plans"
        );
        let g = tree.grammar();
        let info = &decomp.regions[region as usize];
        let region_root = info.root;
        let slots = decomp.slot_map();
        let dynamic = mode == MachineMode::Dynamic;
        scratch.reset();

        // Spine: the in-region ancestors of the boundary children.
        if !dynamic {
            for child in slots.child_roots(region) {
                let (mut n, _) = tree.node(child).parent.expect("a region root has a parent");
                while scratch.spine.insert(n) && n != region_root {
                    n = tree.node(n).parent.expect("non-root node has parent").0;
                }
            }
        }
        // The walk visits children last to first. The spine is
        // ancestor-closed, so the walk meets spine nodes in the order a
        // walk of the whole region would, and task order does not
        // depend on how much of the region is walked.
        if dynamic || !scratch.spine.is_empty() {
            scratch.stack.push(region_root);
        } else {
            scratch.static_roots.push(region_root);
        }
        while let Some(n) = scratch.stack.pop() {
            scratch.walk.push(n);
            for c in tree.children(n) {
                if let Child::Node(c) = *c {
                    if decomp.region(c) != region {
                        continue;
                    }
                    if dynamic || scratch.spine.contains(&c) {
                        scratch.stack.push(c);
                    } else {
                        scratch.static_roots.push(c);
                    }
                }
            }
        }

        let mut m = Machine {
            tree: Arc::clone(tree),
            plan: Arc::clone(plan),
            region,
            // O(region) storage: the slot layout was computed once at
            // decomposition time and is shared by every region's machine.
            store: RegionStore::new(slots, region),
            tasks: Vec::new(),
            missing: Vec::new(),
            waiters: Csr::empty(),
            priority: Vec::new(),
            chain_next: HashMap::new(),
            ready: VecDeque::new(),
            ready_priority: VecDeque::new(),
            executed: 0,
            scratch,
            stats: EvalStats::default(),
            send_on_fill: HashMap::new(),
            awaiting: HashSet::new(),
        };

        // External inputs: syn attrs of boundary children, whose inh
        // attrs go out to the child region ...
        for child in slots.child_roots(region) {
            let csym = g.prod(tree.node(child).prod).lhs;
            for &a in plan.syn_attrs(csym) {
                m.awaiting.insert(m.store.instance(child, a));
            }
            let target = SendTarget::Region(decomp.region(child));
            for &a in plan.inh_attrs(csym) {
                m.send_on_fill
                    .insert(m.store.instance(child, a), (child, a, target));
            }
        }
        // ... and inh attrs of the region root (unless it is the tree
        // root, whose start symbol has none), whose syn attrs go up to
        // the parent region (or the parser at the very top).
        let root_sym = g.prod(tree.node(region_root).prod).lhs;
        if region_root != tree.root() {
            for &a in plan.inh_attrs(root_sym) {
                m.awaiting.insert(m.store.instance(region_root, a));
            }
        }
        let target = match info.parent {
            Some(p) => SendTarget::Region(p),
            None => SendTarget::Parser,
        };
        for &a in plan.syn_attrs(root_sym) {
            let inst = m.store.instance(region_root, a);
            m.send_on_fill.insert(inst, (region_root, a, target));
        }

        // Task enumeration: one dynamic task per rule of every walked
        // node. The waiters relation is accumulated as one flat
        // (instance, task) pair list and compressed into CSR afterwards
        // — no per-instance allocations.
        let mut edges = std::mem::take(&mut m.scratch.edges);
        for i in 0..m.scratch.walk.len() {
            let n = m.scratch.walk[i];
            let prod_id = tree.node(n).prod;
            for (ri, rule) in g.prod(prod_id).rules.iter().enumerate() {
                let tid = m.tasks.len() as u32;
                m.tasks.push(Task::Apply { node: n, rule: ri });
                m.priority.push(plan.rule_priority(prod_id, ri));
                let mut need = 0u32;
                for arg in &rule.args {
                    if let Some(inst) = super::dynamic::arg_instance(&m.tree, &m.store, n, *arg) {
                        edges.push((inst as u32, tid));
                        need += 1;
                        m.stats.graph_edges += 1;
                    }
                }
                m.missing.push(need);
            }
        }

        // Static-visit tasks for subtrees hanging off the spine (or the
        // whole region when it has no boundary at all).
        if !dynamic {
            let plans = Arc::clone(plan.plans().expect("checked above"));
            for i in 0..m.scratch.static_roots.len() {
                let r = m.scratch.static_roots[i];
                let rsym = g.prod(tree.node(r).prod).lhs;
                let visits = plans.phases.visit_count(rsym);
                let mut prev: Option<u32> = None;
                for v in 1..=visits {
                    let tid = m.tasks.len() as u32;
                    m.tasks.push(Task::StaticVisit { node: r, visit: v });
                    m.priority.push(false);
                    let mut need = 0u32;
                    for &a in plan.inh_attrs(rsym) {
                        if plans.phases.of(rsym, a) == v {
                            let inst = m.store.instance(r, a);
                            edges.push((inst as u32, tid));
                            need += 1;
                            m.stats.graph_edges += 1;
                        }
                    }
                    if let Some(p) = prev {
                        m.chain_next.insert(p, tid);
                        need += 1;
                        m.stats.graph_edges += 1;
                    }
                    m.missing.push(need);
                    prev = Some(tid);
                }
            }
        }

        m.waiters = Csr::from_pairs(m.store.len(), &edges);
        m.scratch.edges = edges;
        m.stats.graph_nodes = m.tasks.len();

        // Seed the ready queues.
        for tid in 0..m.tasks.len() as u32 {
            if m.missing[tid as usize] == 0 {
                m.enqueue(tid);
            }
        }
        m
    }

    fn enqueue(&mut self, tid: u32) {
        if self.priority[tid as usize] {
            self.ready_priority.push_back(tid);
        } else {
            self.ready.push_back(tid);
        }
    }

    /// The region this machine evaluates.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Number of tree nodes owned by this machine.
    pub fn local_nodes(&self) -> usize {
        self.store.slot_map().region_nodes(self.region).len()
    }

    /// Size of the dependency graph built at start-up — the cost the
    /// dynamic pipeline pays before evaluating anything.
    pub fn graph_size(&self) -> (usize, usize) {
        (self.stats.graph_nodes, self.stats.graph_edges)
    }

    /// `true` once every task has executed.
    pub fn is_done(&self) -> bool {
        self.executed == self.tasks.len()
    }

    /// Tasks not yet executed.
    pub fn pending(&self) -> usize {
        self.tasks.len() - self.executed
    }

    /// External instances still awaited.
    pub fn awaiting(&self) -> usize {
        self.awaiting.len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Consumes the machine, returning its (partially) filled
    /// region-local store — to be read where it is, beside its peers',
    /// or copied into a whole-tree store with
    /// [`crate::tree::AttrStore::absorb_region`].
    pub fn into_store(self) -> RegionStore<V> {
        self.store
    }

    /// Consumes the machine, returning its region-local store, final
    /// statistics and the reusable scratch buffers (for the next
    /// tree's machine).
    pub fn recycle(self) -> (RegionStore<V>, EvalStats, MachineScratch<V>) {
        (self.store, self.stats, self.scratch)
    }

    /// Read access to the machine's region-local store.
    pub fn store(&self) -> &RegionStore<V> {
        &self.store
    }

    /// Delivers an external attribute value (from the network).
    /// Duplicate deliveries of an instance are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `node` is neither owned by this machine's region nor
    /// one of its boundary children — the region-local store has no
    /// slot for any other node. Senders route by the decomposition's
    /// `(ticket, region)` placement, which only ever produces those
    /// two cases; anything else is a routing bug worth crashing on.
    pub fn provide(&mut self, node: NodeId, attr: AttrId, value: V) {
        let inst = self.store.instance(node, attr);
        if !self.awaiting.remove(&inst) {
            return; // duplicate (or locally computed) delivery
        }
        self.stats.attrs_received += 1;
        self.store.set_by_index(inst, value);
        self.notify(inst);
    }

    fn notify(&mut self, inst: usize) {
        // Instances are write-once, so each is notified at most once;
        // provide() independently drops duplicate external deliveries.
        for k in self.waiters.target_range(inst) {
            let w = self.waiters.target_at(k);
            self.missing[w as usize] -= 1;
            if self.missing[w as usize] == 0 {
                self.enqueue(w);
            }
        }
    }

    /// Fills a locally computed instance: notifies waiting tasks and
    /// collects an outgoing message if the instance crosses the region
    /// boundary.
    fn filled_locally(&mut self, inst: usize, sends: &mut Vec<AttrMsg<V>>) {
        self.notify(inst);
        if let Some((node, attr, to)) = self.send_on_fill.remove(&inst) {
            let value = self
                .store
                .get_by_index(inst)
                .expect("instance was just filled")
                .clone();
            self.stats.attrs_sent += 1;
            self.stats.bytes_sent += value.wire_size();
            sends.push(AttrMsg {
                node,
                attr,
                value,
                to,
            });
        }
    }

    /// Executes one ready task. Returns `None` when no task is ready
    /// (machine finished or blocked on external values).
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError::PlanInconsistency`] from static visits.
    pub fn step(&mut self) -> Result<Option<StepOutcome<V>>, EvalError> {
        let Some(tid) = self
            .ready_priority
            .pop_front()
            .or_else(|| self.ready.pop_front())
        else {
            return Ok(None);
        };
        self.executed += 1;
        let g = Arc::clone(self.tree.grammar());
        match self.tasks[tid as usize] {
            Task::Apply { node, rule } => {
                let r = &g.prod(self.tree.node(node).prod).rules[rule];
                let tree = &self.tree;
                let store = &self.store;
                let value = self.scratch.eval.arg.apply(r, |a| {
                    occ_value(tree, store, node, a.occ, a.attr)
                        .expect("scheduler readiness guarantees arguments")
                });
                let (tn, ta) = occ_slot(&self.tree, node, r.target.occ, r.target.attr);
                self.store.set(tn, ta, value);
                self.stats.dynamic_applied += 1;
                self.stats.rule_cost_units += r.cost;
                let inst = self.store.instance(tn, ta);
                let mut sends = Vec::new();
                self.filled_locally(inst, &mut sends);
                let sym = g.prod(self.tree.node(tn).prod).lhs;
                Ok(Some(StepOutcome {
                    cost_units: r.cost,
                    dynamic_rules: 1,
                    static_rules: 0,
                    sends,
                    target: Some((sym, ta)),
                }))
            }
            Task::StaticVisit { node, visit } => {
                let plan = Arc::clone(&self.plan);
                let plans = plan.plans().expect("combined mode");
                // Region machines execute the same compiled programs the
                // sequential evaluator runs, over their RegionStore.
                let programs = plan.programs().expect("combined mode");
                let before = self.stats;
                run_program_segment(
                    &self.tree,
                    programs,
                    &mut self.store,
                    node,
                    visit,
                    &mut self.stats,
                    &mut self.scratch.eval,
                )?;
                let rules = self.stats.static_applied - before.static_applied;
                let cost = self.stats.rule_cost_units - before.rule_cost_units;
                // Expose the subtree root's synthesized attributes of
                // this phase to the dynamic graph and the network.
                let sym = g.prod(self.tree.node(node).prod).lhs;
                let mut sends = Vec::new();
                let mut target = None;
                for &a in plan.syn_attrs(sym) {
                    if plans.phases.of(sym, a) != visit {
                        continue;
                    }
                    target = Some((sym, a));
                    let inst = self.store.instance(node, a);
                    self.filled_locally(inst, &mut sends);
                }
                // Unlock the next visit of this subtree.
                if let Some(next) = self.chain_next.remove(&tid) {
                    self.missing[next as usize] -= 1;
                    if self.missing[next as usize] == 0 {
                        self.enqueue(next);
                    }
                }
                Ok(Some(StepOutcome {
                    cost_units: cost,
                    dynamic_rules: 0,
                    static_rules: rules,
                    sends,
                    target,
                }))
            }
        }
    }

    /// Runs until blocked or finished, collecting all outcomes' sends.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EvalError`] from [`Machine::step`].
    pub fn run(&mut self) -> Result<Vec<AttrMsg<V>>, EvalError> {
        let mut sends = Vec::new();
        while let Some(outcome) = self.step()? {
            sends.extend(outcome.sends);
        }
        Ok(sends)
    }
}

impl<V: AttrValue> std::fmt::Debug for Machine<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Machine(region {}, {}/{} tasks done, awaiting {})",
            self.region,
            self.executed,
            self.tasks.len(),
            self.awaiting.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compute_plans;
    use crate::eval::dynamic_eval;
    use crate::grammar::{AttrKind, Grammar, GrammarBuilder, ProdId};
    use crate::split::{decompose, SplitConfig};
    use crate::tree::{AttrStore, TreeBuilder};

    /// Two-pass grammar with splittable list; used across machine tests.
    struct Fixture {
        grammar: Arc<Grammar<i64>>,
        tree: Arc<ParseTree<i64>>,
        plans: Arc<Plans>,
        done: AttrId,
    }

    fn fixture(n_items: usize, depth: usize) -> Fixture {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let item = g.nonterminal("I");
        let done = g.synthesized(s, "done");
        let decls = g.synthesized(l, "decls");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        let idecls = g.synthesized(item, "decls");
        let ienv = g.inherited(item, "env");
        let icode = g.synthesized(item, "code");
        g.mark_split(l, 3);
        g.mark_priority(l, env);
        g.mark_priority(item, ienv);

        let top = g.production("top", s, [l]);
        g.rule(top, (1, env), [(1, decls)], |a| a[0] * 1000);
        g.rule(top, (0, done), [(1, code)], |a| a[0]);

        let cons = g.production("cons", l, [item, l]);
        g.rule(cons, (0, decls), [(1, decls), (2, decls)], |a| a[0] + a[1]);
        g.rule(cons, (1, ienv), [(0, env)], |a| a[0] + 1);
        g.rule(cons, (2, env), [(0, env)], |a| a[0] + 2);
        g.rule(cons, (0, code), [(1, icode), (2, code)], |a| {
            a[0] * 31 + a[1]
        });
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| 1);
        g.rule(nil, (0, code), [(0, env)], |a| a[0] + 7);

        let wrap = g.production("wrap", item, [item]);
        g.rule(wrap, (0, decls), [(1, idecls)], |a| a[0] + 1);
        g.rule(wrap, (1, ienv), [(0, ienv)], |a| a[0] + 3);
        g.rule(wrap, (0, code), [(1, icode)], |a| a[0] * 2);
        let unit = g.production("unit", item, []);
        g.rule(unit, (0, idecls), [], |_| 1);
        g.rule(unit, (0, icode), [(0, ienv)], |a| a[0] + 11);

        let grammar = Arc::new(g.build(s).unwrap());
        let plans = Arc::new(compute_plans(&grammar).unwrap());

        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        for _ in 0..n_items {
            let mut it = tb.leaf(unit);
            for _ in 0..depth {
                it = tb.node(wrap, [it]);
            }
            tail = tb.node(cons, [it, tail]);
        }
        let root = tb.node(top, [tail]);
        let tree = Arc::new(tb.finish(root).unwrap());
        let _ = (idecls, icode, ProdId(0));
        Fixture {
            grammar,
            tree,
            plans,
            done,
        }
    }

    /// Round-robin message pump: runs all machines to completion,
    /// delivering sends synchronously. Returns the merged store.
    fn pump(
        fx: &Fixture,
        decomp: &Decomposition,
        mode: MachineMode,
    ) -> (AttrStore<i64>, Vec<EvalStats>) {
        let plans = Some(&fx.plans);
        let mut machines: Vec<Machine<i64>> = (0..decomp.len() as RegionId)
            .map(|r| Machine::new(&fx.tree, plans, decomp, r, mode))
            .collect();
        let mut inbox: Vec<AttrMsg<i64>> = Vec::new();
        let mut parser_got: Vec<AttrMsg<i64>> = Vec::new();
        loop {
            let mut progressed = false;
            for m in machines.iter_mut() {
                let sends = m.run().unwrap();
                if !sends.is_empty() {
                    progressed = true;
                }
                inbox.extend(sends);
            }
            for msg in inbox.drain(..) {
                match msg.to {
                    SendTarget::Parser => parser_got.push(msg),
                    SendTarget::Region(r) => {
                        machines[r as usize].provide(msg.node, msg.attr, msg.value);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(
            machines.iter().all(|m| m.is_done()),
            "deadlock: {machines:?}"
        );
        assert!(!parser_got.is_empty(), "root attributes must reach parser");
        let stats: Vec<EvalStats> = machines.iter().map(|m| m.stats()).collect();
        // Sparse assembly: each region's owned span maps back into the
        // whole-tree store through the decomposition's slot layout.
        let mut merged = AttrStore::new(&fx.tree);
        for m in machines {
            merged.absorb_region(&fx.tree, &m.into_store());
        }
        (merged, stats)
    }

    #[test]
    fn single_region_combined_equals_dynamic() {
        let fx = fixture(6, 2);
        let decomp = Decomposition::whole(&fx.tree);
        let (store, stats) = pump(&fx, &decomp, MachineMode::Combined);
        let (dstore, _) = dynamic_eval(&fx.tree).unwrap();
        assert_eq!(
            store.get(fx.tree.root(), fx.done),
            dstore.get(fx.tree.root(), fx.done)
        );
        // Everything was static: the whole region is one static subtree.
        assert_eq!(stats[0].dynamic_applied, 0);
        assert!(stats[0].static_applied > 0);
    }

    #[test]
    fn multi_region_combined_matches_dynamic_everywhere() {
        let fx = fixture(12, 3);
        for k in [2, 3, 4] {
            let decomp = decompose(&fx.tree, SplitConfig::machines(k));
            assert!(decomp.len() > 1, "k={k} produced no split");
            let (store, stats) = pump(&fx, &decomp, MachineMode::Combined);
            let (dstore, _) = dynamic_eval(&fx.tree).unwrap();
            for node in fx.tree.node_ids() {
                let sym = fx.grammar.prod(fx.tree.node(node).prod).lhs;
                for a in 0..fx.grammar.attr_count(sym) {
                    let attr = AttrId(a as u32);
                    assert_eq!(
                        store.get(node, attr),
                        dstore.get(node, attr),
                        "k={k} node={node:?} attr={attr:?}"
                    );
                }
            }
            // The vast majority of rules must be static (§4.1).
            let total: usize = stats.iter().map(|s| s.total_applied()).sum();
            let dynamic: usize = stats.iter().map(|s| s.dynamic_applied).sum();
            assert!(
                (dynamic as f64) < 0.5 * total as f64,
                "k={k}: {dynamic}/{total} dynamic"
            );
        }
    }

    #[test]
    fn pure_dynamic_mode_also_matches() {
        let fx = fixture(10, 2);
        let decomp = decompose(&fx.tree, SplitConfig::machines(3));
        let (store, stats) = pump(&fx, &decomp, MachineMode::Dynamic);
        let (dstore, _) = dynamic_eval(&fx.tree).unwrap();
        assert_eq!(
            store.get(fx.tree.root(), fx.done),
            dstore.get(fx.tree.root(), fx.done)
        );
        assert!(stats.iter().all(|s| s.static_applied == 0));
    }

    #[test]
    fn machine_blocks_until_provided() {
        let fx = fixture(8, 2);
        let decomp = decompose(&fx.tree, SplitConfig::machines(2));
        // Region 1's root has an inherited attribute; without it the
        // machine must stop with pending work.
        let mut m1 = Machine::new(&fx.tree, Some(&fx.plans), &decomp, 1, MachineMode::Combined);
        let sends = m1.run().unwrap();
        // It may compute decls (phase 1 has no inherited inputs at the
        // boundary? decls of region root is syn phase 1 and needs no env)
        // but cannot finish: code needs env.
        assert!(!m1.is_done(), "machine finished without its inputs");
        assert!(m1.awaiting() > 0);
        let _ = sends;
    }

    #[test]
    fn graph_is_much_smaller_in_combined_mode() {
        let fx = fixture(16, 4);
        let decomp = decompose(&fx.tree, SplitConfig::machines(3));
        let combined = Machine::new(&fx.tree, Some(&fx.plans), &decomp, 0, MachineMode::Combined);
        let dynamic = Machine::new(&fx.tree, Some(&fx.plans), &decomp, 0, MachineMode::Dynamic);
        let (cn, _) = combined.graph_size();
        let (dn, _) = dynamic.graph_size();
        assert!(
            cn < dn,
            "combined graph ({cn}) should be smaller than dynamic ({dn})"
        );
    }

    #[test]
    fn machines_count_the_nodes_their_regions_own() {
        let fx = fixture(12, 3);
        let decomp = decompose(&fx.tree, SplitConfig::machines(4));
        assert!(decomp.len() > 1);
        for mode in [MachineMode::Combined, MachineMode::Dynamic] {
            let total: usize = (0..decomp.len() as RegionId)
                .map(|r| {
                    let m = Machine::new(&fx.tree, Some(&fx.plans), &decomp, r, mode);
                    let owned = fx.tree.node_ids().filter(|&n| decomp.region(n) == r);
                    assert_eq!(m.local_nodes(), owned.count(), "{mode:?} region {r}");
                    m.local_nodes()
                })
                .sum();
            assert_eq!(total, fx.tree.len(), "{mode:?}");
        }
    }

    #[test]
    fn duplicate_provide_is_ignored() {
        let fx = fixture(8, 2);
        let decomp = decompose(&fx.tree, SplitConfig::machines(2));
        let region1_root = decomp.regions[1].root;
        let sym = fx.grammar.prod(fx.tree.node(region1_root).prod).lhs;
        let env: Vec<AttrId> = fx
            .grammar
            .symbol(sym)
            .attrs_of_kind(AttrKind::Inh)
            .collect();
        let mut m1 = Machine::new(&fx.tree, Some(&fx.plans), &decomp, 1, MachineMode::Combined);
        m1.run().unwrap();
        let before = m1.awaiting();
        m1.provide(region1_root, env[0], 5);
        m1.provide(region1_root, env[0], 99); // duplicate: ignored
        assert_eq!(m1.awaiting(), before - 1);
        m1.run().unwrap();
        assert!(m1.is_done());
    }
}
