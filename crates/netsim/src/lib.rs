//! Deterministic discrete-event simulation of a network multiprocessor.
//!
//! The paper's experiments ran on up to 6 SUN-2 workstations connected by a
//! 10 Mbit Ethernet under the V System (§3). This crate is the substitute
//! substrate: a virtual-time simulator in which each *process* (one per
//! machine, plus auxiliary processes such as the string librarian) owns a
//! local clock, consumes CPU via [`Ctx::spend`], and exchanges messages over
//! a shared-bus network model with latency, bandwidth and per-message CPU
//! cost. The simulation is fully deterministic, so every figure regenerated
//! from it is exactly reproducible.
//!
//! Processes implement [`Process`]; the driver in `paragram-core::parallel`
//! layers attribute evaluators on top.
//!
//! # Examples
//!
//! ```
//! use paragram_netsim::{Ctx, NetModel, Process, ProcId, Sim};
//!
//! struct Echo;
//! impl Process<u32> for Echo {
//!     fn on_start(&mut self, ctx: &mut Ctx<u32>) {
//!         if ctx.me() == ProcId(0) {
//!             ctx.send(ProcId(1), 41, 64, "ping");
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: ProcId, msg: u32) {
//!         ctx.spend(100);
//!         if msg == 41 {
//!             ctx.send(ProcId(0), 42, 64, "pong");
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(NetModel::lan_1987());
//! sim.add_process("a", Echo);
//! sim.add_process("b", Echo);
//! sim.run();
//! assert!(sim.now() > 0);
//! assert_eq!(sim.trace().messages.len(), 2);
//! ```

pub mod trace;

pub use trace::{Activity, FaultKind, FaultRecord, MsgRecord, Trace};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in microseconds.
pub type Time = u64;

/// One second of virtual time.
pub const SECOND: Time = 1_000_000;

/// Formats a virtual time as fractional seconds.
pub fn secs(t: Time) -> f64 {
    t as f64 / SECOND as f64
}

/// Identifier of a simulated process (machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Network cost model: a shared bus (Ethernet) with propagation latency,
/// finite bandwidth, and CPU cost per message at the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// One-way propagation + protocol latency per message, µs.
    pub latency_us: Time,
    /// Bus throughput in bytes per microsecond.
    pub bytes_per_us: f64,
    /// Sender-side CPU cost per message (marshalling, kernel), µs.
    pub send_cpu_us: Time,
    /// Receiver-side CPU cost per message, µs.
    pub recv_cpu_us: Time,
    /// If `true`, transmissions serialize on the shared bus.
    pub shared_bus: bool,
}

impl NetModel {
    /// Constants approximating the paper's setting: 10 Mbit/s Ethernet
    /// (~1.25 bytes/µs), V-System message latency on SUN-2-class machines
    /// in the low milliseconds.
    pub fn lan_1987() -> Self {
        NetModel {
            latency_us: 2_000,
            bytes_per_us: 1.25,
            send_cpu_us: 1_000,
            recv_cpu_us: 1_000,
            shared_bus: true,
        }
    }

    /// An effectively free network, useful to isolate CPU effects in
    /// ablation experiments.
    pub fn instant() -> Self {
        NetModel {
            latency_us: 0,
            bytes_per_us: f64::INFINITY,
            send_cpu_us: 0,
            recv_cpu_us: 0,
            shared_bus: false,
        }
    }

    /// Pure transmission time for a payload of `bytes`.
    pub fn tx_time(&self, bytes: usize) -> Time {
        if self.bytes_per_us.is_infinite() {
            0
        } else {
            (bytes as f64 / self.bytes_per_us).ceil() as Time
        }
    }
}

/// Behaviour of a simulated process. Handlers run to completion; CPU is
/// accounted explicitly through [`Ctx::spend`].
pub trait Process<M> {
    /// Invoked once at simulation start (virtual time 0).
    fn on_start(&mut self, _ctx: &mut Ctx<M>) {}

    /// Invoked when a message is delivered to this process.
    fn on_message(&mut self, ctx: &mut Ctx<M>, from: ProcId, msg: M);

    /// Invoked when the [`FaultPlan`] crashes this process. All volatile
    /// handler state should be considered lost; implementations drop it
    /// here. A dead process has no [`Ctx`] — it cannot spend CPU or
    /// send — and receives nothing until (and unless) it restarts.
    fn on_crash(&mut self) {}

    /// Invoked when this process restarts after its downtime window.
    /// Retained (stable-storage) state is whatever the implementation
    /// kept across [`Process::on_crash`].
    fn on_restart(&mut self, _ctx: &mut Ctx<M>) {}

    /// Invoked on every live process when a peer crashes. This is an
    /// oracle failure detector standing in for the timeout-based
    /// detection a real network would run; it keeps recovery schedules
    /// deterministic. Delivered at the crash's virtual time with no
    /// network cost.
    fn on_peer_crash(&mut self, _ctx: &mut Ctx<M>, _peer: ProcId) {}
}

/// A seeded, deterministic schedule of faults to inject into one run:
/// process crashes at scheduled virtual times (with optional restart
/// after a downtime window), and probabilistic drop/delay of messages
/// by trace tag. The same plan against the same simulation always
/// injects exactly the same faults — chaos schedules are replayable and
/// CI-gateable. Every injected fault leaves a [`FaultRecord`] in the
/// [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<CrashSpec>,
    tags: Vec<TagFault>,
}

#[derive(Debug, Clone, Copy)]
struct CrashSpec {
    proc: usize,
    at: Time,
    /// Absolute restart time; `None` keeps the process down forever.
    restart_at: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
struct TagFault {
    tag: &'static str,
    /// Probability, in permille, that a matching message is hit.
    permille: u32,
    /// `0` drops the message; otherwise extra delivery delay in µs.
    delay_us: Time,
}

impl FaultPlan {
    /// An empty plan whose probabilistic faults roll from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Crashes process `proc` at virtual time `at`, permanently.
    pub fn crash(mut self, proc: usize, at: Time) -> Self {
        self.crashes.push(CrashSpec {
            proc,
            at,
            restart_at: None,
        });
        self
    }

    /// Crashes process `proc` at `at` and restarts it after `downtime`.
    pub fn crash_restart(mut self, proc: usize, at: Time, downtime: Time) -> Self {
        self.crashes.push(CrashSpec {
            proc,
            at,
            restart_at: Some(at + downtime),
        });
        self
    }

    /// Drops each message tagged `tag` with probability
    /// `permille`/1000. Only meaningful for protocols that tolerate the
    /// loss of that tag (retries, hints); dropping a load-bearing
    /// message deadlocks the run, by design — that is the bug the plan
    /// exposes.
    pub fn drop_tagged(mut self, tag: &'static str, permille: u32) -> Self {
        self.tags.push(TagFault {
            tag,
            permille,
            delay_us: 0,
        });
        self
    }

    /// Delays each message tagged `tag` by `delay_us` with probability
    /// `permille`/1000. Delays reorder delivery across destinations but
    /// never lose data.
    pub fn delay_tagged(mut self, tag: &'static str, permille: u32, delay_us: Time) -> Self {
        self.tags.push(TagFault {
            tag,
            permille,
            delay_us: delay_us.max(1),
        });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.tags.is_empty()
    }

    /// Registration indices of every process the plan crashes, in
    /// schedule order. Drivers use this to validate that a plan only
    /// targets processes whose loss their recovery protocol covers.
    pub fn crash_procs(&self) -> impl Iterator<Item = usize> + '_ {
        self.crashes.iter().map(|c| c.proc)
    }
}

/// SplitMix64: a tiny, high-quality deterministic mixer — the fault
/// plan's whole entropy source, so no RNG state needs carrying.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct PendingSend<M> {
    to: ProcId,
    msg: M,
    bytes: usize,
    tag: &'static str,
    /// CPU offset within the current handler run at which the send occurs.
    at_cpu: Time,
}

/// Handler-side view of the simulation: clock, CPU accounting, sends and
/// phase labels for the Gantt trace.
pub struct Ctx<M> {
    me: ProcId,
    wake: Time,
    cpu: Time,
    phase: &'static str,
    segments: Vec<(Time, Time, &'static str)>, // cpu offsets [start,end)
    seg_start: Time,
    sends: Vec<PendingSend<M>>,
    timers: Vec<(Time, M)>,
    stopped: bool,
}

impl<M> Ctx<M> {
    /// This process's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Current local virtual time (wake time plus CPU spent so far in this
    /// handler).
    pub fn now(&self) -> Time {
        self.wake + self.cpu
    }

    /// Consumes `cpu_us` microseconds of virtual CPU.
    pub fn spend(&mut self, cpu_us: Time) {
        self.cpu += cpu_us;
    }

    /// Labels subsequent CPU consumption for the activity trace
    /// ("symbol table", "code generation", "result propagation"...).
    pub fn phase(&mut self, label: &'static str) {
        if label != self.phase {
            if self.cpu > self.seg_start {
                self.segments.push((self.seg_start, self.cpu, self.phase));
            }
            self.seg_start = self.cpu;
            self.phase = label;
        }
    }

    /// Sends `msg` (`bytes` long on the wire) to `to`. The send is stamped
    /// at the current local time; network costs are applied by the
    /// simulator. `tag` labels the message in the trace.
    pub fn send(&mut self, to: ProcId, msg: M, bytes: usize, tag: &'static str) {
        self.sends.push(PendingSend {
            to,
            msg,
            bytes,
            tag,
            at_cpu: self.cpu,
        });
    }

    /// Schedules `msg` for delivery *to this process* at absolute
    /// virtual time `at` (clamped to the process's local clock if it is
    /// still busy then). Unlike [`Ctx::send`], a timer never touches
    /// the network: no bus occupancy, no latency, no send/recv CPU, no
    /// message-trace record — it models a local alarm (an arrival
    /// schedule, a timeout), not communication. The message arrives
    /// through [`Process::on_message`] with `from` equal to the process
    /// itself.
    pub fn wake_at(&mut self, at: Time, msg: M) {
        self.timers.push((at, msg));
    }

    /// Requests that the whole simulation stop after this handler returns
    /// (used by the driver when the root attributes have arrived).
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

enum Event<M> {
    Start(ProcId),
    Deliver {
        to: ProcId,
        from: ProcId,
        msg: M,
    },
    /// A [`Ctx::wake_at`] alarm: delivered like a message from the
    /// process to itself, but without any network cost.
    Timer {
        to: ProcId,
        msg: M,
    },
    /// Scheduled by the [`FaultPlan`]: the process dies at this time.
    Crash(ProcId),
    /// Scheduled by the [`FaultPlan`]: the process comes back.
    Restart(ProcId),
}

/// What a [`Sim::dispatch`] run delivers to the process.
enum Incoming<M> {
    /// Simulation start ([`Process::on_start`]).
    Start,
    /// A message or timer ([`Process::on_message`]).
    Msg {
        from: ProcId,
        msg: M,
        charge_recv: bool,
    },
    /// The process's own restart ([`Process::on_restart`]).
    Restarted,
    /// A peer crashed ([`Process::on_peer_crash`]).
    PeerCrash(ProcId),
}

/// The discrete-event simulator.
pub struct Sim<M> {
    processes: Vec<Box<dyn Process<M>>>,
    names: Vec<String>,
    local_time: Vec<Time>,
    net: NetModel,
    bus_free: Time,
    queue: BinaryHeap<Reverse<(Time, u64, usize)>>,
    events: Vec<Option<Event<M>>>,
    seq: u64,
    now: Time,
    trace: Trace,
    stopped: bool,
    faults: FaultPlan,
    dead: Vec<bool>,
    /// Monotonic roll counter for the fault plan's probabilistic
    /// faults: each candidate message mixes it with the plan seed.
    fault_seq: u64,
}

impl<M> Sim<M> {
    /// Creates an empty simulation with the given network model.
    pub fn new(net: NetModel) -> Self {
        Sim {
            processes: Vec::new(),
            names: Vec::new(),
            local_time: Vec::new(),
            net,
            bus_free: 0,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
            now: 0,
            trace: Trace::default(),
            stopped: false,
            faults: FaultPlan::default(),
            dead: Vec::new(),
            fault_seq: 0,
        }
    }

    /// Installs a fault plan; call before [`Sim::run`]. Crash schedules
    /// reference processes by registration index.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Registers a process; returns its id. Processes are started in
    /// registration order at time 0.
    pub fn add_process(&mut self, name: impl Into<String>, p: impl Process<M> + 'static) -> ProcId {
        let id = ProcId(self.processes.len());
        self.processes.push(Box::new(p));
        self.names.push(name.into());
        self.local_time.push(0);
        self.dead.push(false);
        id
    }

    /// Final virtual time after [`Sim::run`] (max over event completion).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Activity and message trace accumulated during the run.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Local completion time of a process.
    pub fn local_time(&self, p: ProcId) -> Time {
        self.local_time[p.0]
    }

    fn push_event(&mut self, at: Time, ev: Event<M>) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.queue.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Runs the simulation to completion (or until a handler calls
    /// [`Ctx::stop`]). Returns the final virtual time.
    ///
    /// Faults from the installed [`FaultPlan`] are injected as the
    /// event queue reaches their times. Handlers are atomic with
    /// respect to crashes: a handler that began before the crash time
    /// completes, and its sends stay on the wire — the crash boundary
    /// is the event, not the instruction.
    pub fn run(&mut self) -> Time {
        for i in 0..self.processes.len() {
            self.push_event(0, Event::Start(ProcId(i)));
        }
        for c in self.faults.crashes.clone() {
            self.push_event(c.at, Event::Crash(ProcId(c.proc)));
            if let Some(r) = c.restart_at {
                self.push_event(r, Event::Restart(ProcId(c.proc)));
            }
        }
        while let Some(Reverse((at, _, idx))) = self.queue.pop() {
            if self.stopped {
                break;
            }
            let ev = self.events[idx].take().expect("event consumed twice");
            match ev {
                Event::Start(p) => self.dispatch(at, p, Incoming::Start),
                Event::Deliver { to, from, msg } => {
                    if self.dead[to.0] {
                        self.trace.faults.push(FaultRecord {
                            at,
                            proc: to,
                            kind: FaultKind::Lost,
                            tag: "msg",
                        });
                    } else {
                        self.dispatch(
                            at,
                            to,
                            Incoming::Msg {
                                from,
                                msg,
                                charge_recv: true,
                            },
                        );
                    }
                }
                Event::Timer { to, msg } => {
                    if self.dead[to.0] {
                        self.trace.faults.push(FaultRecord {
                            at,
                            proc: to,
                            kind: FaultKind::Lost,
                            tag: "timer",
                        });
                    } else {
                        self.dispatch(
                            at,
                            to,
                            Incoming::Msg {
                                from: to,
                                msg,
                                charge_recv: false,
                            },
                        );
                    }
                }
                Event::Crash(p) => self.crash(at, p),
                Event::Restart(p) => self.restart(at, p),
            }
        }
        self.now
    }

    /// Kills `p`: volatile state is dropped via [`Process::on_crash`],
    /// and every live peer is notified at the same virtual instant (the
    /// deterministic stand-in for timeout detection).
    fn crash(&mut self, at: Time, p: ProcId) {
        if self.dead[p.0] {
            return;
        }
        self.dead[p.0] = true;
        self.now = self.now.max(at);
        self.trace.faults.push(FaultRecord {
            at,
            proc: p,
            kind: FaultKind::Crash,
            tag: "",
        });
        self.processes[p.0].on_crash();
        for q in 0..self.processes.len() {
            if q != p.0 && !self.dead[q] {
                self.dispatch(at, ProcId(q), Incoming::PeerCrash(p));
            }
        }
    }

    fn restart(&mut self, at: Time, p: ProcId) {
        if !self.dead[p.0] {
            return;
        }
        self.dead[p.0] = false;
        self.local_time[p.0] = self.local_time[p.0].max(at);
        self.trace.faults.push(FaultRecord {
            at,
            proc: p,
            kind: FaultKind::Restart,
            tag: "",
        });
        self.dispatch(at, p, Incoming::Restarted);
    }

    fn dispatch(&mut self, at: Time, p: ProcId, incoming: Incoming<M>) {
        let charge_recv = matches!(
            incoming,
            Incoming::Msg {
                charge_recv: true,
                ..
            }
        );
        let wake = at.max(self.local_time[p.0]);
        let mut ctx = Ctx {
            me: p,
            wake,
            cpu: if charge_recv { self.net.recv_cpu_us } else { 0 },
            phase: "recv",
            segments: Vec::new(),
            seg_start: 0,
            sends: Vec::new(),
            timers: Vec::new(),
            stopped: false,
        };
        // Temporarily move the process out to appease the borrow checker.
        let mut proc_box = std::mem::replace(
            &mut self.processes[p.0],
            Box::new(Inert) as Box<dyn Process<M>>,
        );
        match incoming {
            Incoming::Start => proc_box.on_start(&mut ctx),
            Incoming::Msg { from, msg, .. } => proc_box.on_message(&mut ctx, from, msg),
            Incoming::Restarted => proc_box.on_restart(&mut ctx),
            Incoming::PeerCrash(peer) => proc_box.on_peer_crash(&mut ctx, peer),
        }
        self.processes[p.0] = proc_box;

        // Close the last phase segment.
        if ctx.cpu > ctx.seg_start {
            ctx.segments.push((ctx.seg_start, ctx.cpu, ctx.phase));
        }
        let done = wake + ctx.cpu;
        self.local_time[p.0] = done;
        self.now = self.now.max(done);
        for (s, e, label) in ctx.segments.drain(..) {
            self.trace.activities.push(Activity {
                proc: p,
                start: wake + s,
                end: wake + e,
                phase: label,
            });
        }
        let stopped = ctx.stopped;
        let sends = std::mem::take(&mut ctx.sends);
        let timers = std::mem::take(&mut ctx.timers);
        drop(ctx);
        for (when, msg) in timers {
            self.push_event(when, Event::Timer { to: p, msg });
        }
        for send in sends {
            let send_time = wake + send.at_cpu + self.net.send_cpu_us;
            // Sender CPU for the message itself.
            self.local_time[p.0] = self.local_time[p.0].max(send_time);
            // Probabilistic tag faults roll deterministically from the
            // plan seed and a monotonic counter.
            let mut extra_delay: Time = 0;
            let mut dropped = false;
            for i in 0..self.faults.tags.len() {
                let tf = self.faults.tags[i];
                if tf.tag != send.tag {
                    continue;
                }
                self.fault_seq += 1;
                let roll = (splitmix64(self.faults.seed ^ self.fault_seq) % 1000) as u32;
                if roll < tf.permille {
                    if tf.delay_us == 0 {
                        dropped = true;
                    } else {
                        extra_delay += tf.delay_us;
                    }
                    self.trace.faults.push(FaultRecord {
                        at: send_time,
                        proc: send.to,
                        kind: if tf.delay_us == 0 {
                            FaultKind::Drop
                        } else {
                            FaultKind::Delay
                        },
                        tag: send.tag,
                    });
                }
            }
            if dropped {
                continue;
            }
            let tx = self.net.tx_time(send.bytes);
            let on_bus = if self.net.shared_bus {
                let start = send_time.max(self.bus_free);
                self.bus_free = start + tx;
                start
            } else {
                send_time
            };
            let deliver = on_bus + tx + self.net.latency_us + extra_delay;
            self.trace.messages.push(MsgRecord {
                from: p,
                to: send.to,
                send: send_time,
                recv: deliver,
                bytes: send.bytes,
                tag: send.tag,
            });
            self.push_event(
                deliver,
                Event::Deliver {
                    to: send.to,
                    from: p,
                    msg: send.msg,
                },
            );
        }
        if stopped {
            self.stopped = true;
        }
    }

    /// Process names, indexed by [`ProcId`].
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

struct Inert;
impl<M> Process<M> for Inert {
    fn on_message(&mut self, _ctx: &mut Ctx<M>, _from: ProcId, _msg: M) {
        panic!("message delivered to a process that is currently executing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pinger {
        replies: usize,
    }

    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if ctx.me() == ProcId(0) {
                ctx.phase("ping");
                ctx.spend(500);
                ctx.send(ProcId(1), 1, 100, "ping");
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: ProcId, msg: u32) {
            ctx.phase("serve");
            ctx.spend(200);
            if msg < 3 {
                ctx.send(from, msg + 1, 100, "reply");
            } else {
                self.replies += 1;
                ctx.stop();
            }
        }
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let mut sim = Sim::new(NetModel::lan_1987());
        sim.add_process("a", Pinger { replies: 0 });
        sim.add_process("b", Pinger { replies: 0 });
        let end = sim.run();
        assert!(end > 3 * 2_000, "three hops of latency at least");
        assert_eq!(sim.trace().messages.len(), 3);
        // Messages are causally ordered.
        let msgs = &sim.trace().messages;
        for w in msgs.windows(2) {
            assert!(w[0].recv <= w[1].send + 1_000_000);
        }
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = Sim::new(NetModel::lan_1987());
            sim.add_process("a", Pinger { replies: 0 });
            sim.add_process("b", Pinger { replies: 0 });
            sim.run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn instant_network_has_latency_only_from_cpu() {
        let mut sim = Sim::new(NetModel::instant());
        sim.add_process("a", Pinger { replies: 0 });
        sim.add_process("b", Pinger { replies: 0 });
        let end = sim.run();
        // 500 (ping cpu) + 3 * 200 (handler cpus); no network terms.
        assert_eq!(end, 500 + 3 * 200);
    }

    #[test]
    fn shared_bus_serializes_transmissions() {
        struct Burst;
        impl Process<u32> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me().0 < 2 {
                    ctx.send(ProcId(2), 0, 125_000, "big"); // 100 ms on bus
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<u32>, _from: ProcId, _msg: u32) {}
        }
        let net = NetModel {
            shared_bus: true,
            ..NetModel::lan_1987()
        };
        let mut sim = Sim::new(net);
        sim.add_process("s1", Burst);
        sim.add_process("s2", Burst);
        sim.add_process("sink", Burst);
        sim.run();
        let msgs = &sim.trace().messages;
        assert_eq!(msgs.len(), 2);
        let tx = net.tx_time(125_000);
        let gap = msgs[1].recv.saturating_sub(msgs[0].recv);
        assert!(gap >= tx, "second transmission must wait for the bus");
    }

    #[test]
    fn phases_recorded_per_segment() {
        struct TwoPhase;
        impl Process<u32> for TwoPhase {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.phase("one");
                ctx.spend(10);
                ctx.phase("two");
                ctx.spend(20);
            }
            fn on_message(&mut self, _: &mut Ctx<u32>, _: ProcId, _: u32) {}
        }
        let mut sim = Sim::new(NetModel::instant());
        sim.add_process("p", TwoPhase);
        sim.run();
        let acts = &sim.trace().activities;
        assert_eq!(acts.len(), 2);
        assert_eq!((acts[0].start, acts[0].end, acts[0].phase), (0, 10, "one"));
        assert_eq!((acts[1].start, acts[1].end, acts[1].phase), (10, 30, "two"));
    }

    #[test]
    fn wake_respects_local_clock() {
        // A process busy until t=1000 must not handle a message delivered
        // at t=10 before finishing.
        struct Busy;
        impl Process<u32> for Busy {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.me() == ProcId(0) {
                    ctx.send(ProcId(1), 7, 1, "early");
                } else {
                    ctx.spend(1_000_000);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: ProcId, _: u32) {
                assert!(ctx.now() >= 1_000_000);
                ctx.stop();
            }
        }
        let mut sim = Sim::new(NetModel::instant());
        sim.add_process("src", Busy);
        sim.add_process("busy", Busy);
        sim.run();
    }

    #[test]
    fn timers_fire_at_absolute_times_without_network_cost() {
        struct Alarmed {
            fired: Vec<Time>,
        }
        impl Process<u32> for Alarmed {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                // Out of order on purpose: the event queue sorts them.
                ctx.wake_at(5_000, 2);
                ctx.wake_at(1_000, 1);
            }
            fn on_message(&mut self, ctx: &mut Ctx<u32>, from: ProcId, msg: u32) {
                assert_eq!(from, ctx.me(), "timers come from the process itself");
                self.fired.push(ctx.now());
                ctx.spend(100);
                if msg == 1 {
                    ctx.wake_at(2_000, 3);
                }
            }
        }
        let mut sim = Sim::new(NetModel::lan_1987());
        sim.add_process("alarmed", Alarmed { fired: Vec::new() });
        let end = sim.run();
        // No network legs: virtual time is exactly the last alarm plus
        // its handler CPU, with zero recv-CPU charges.
        assert_eq!(end, 5_100);
        assert!(sim.trace().messages.is_empty(), "timers leave no msg trace");
    }

    #[test]
    fn timer_delivery_waits_for_a_busy_process() {
        struct BusyAlarm;
        impl Process<u32> for BusyAlarm {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.wake_at(10, 0);
                ctx.spend(5_000);
            }
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _: ProcId, _: u32) {
                assert!(ctx.now() >= 5_000, "alarm clamped to the local clock");
                ctx.stop();
            }
        }
        let mut sim = Sim::new(NetModel::instant());
        sim.add_process("busy", BusyAlarm);
        sim.run();
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(1_500_000), 1.5);
    }

    // --- fault injection ---

    /// Records the full fault lifecycle it observes.
    struct Witness {
        crashed: bool,
        restarted: bool,
        peer_crashes: Vec<ProcId>,
        delivered: usize,
    }

    impl Witness {
        fn new() -> Self {
            Witness {
                crashed: false,
                restarted: false,
                peer_crashes: Vec::new(),
                delivered: 0,
            }
        }
    }

    impl Process<u32> for Witness {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if ctx.me() == ProcId(0) {
                // One early message (lost to the crash window) and one
                // late message (delivered after restart).
                ctx.send(ProcId(1), 1, 64, "early");
                ctx.wake_at(50_000, 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: ProcId, msg: u32) {
            if ctx.me() == ProcId(0) && msg == 0 {
                ctx.send(ProcId(1), 2, 64, "late");
                return;
            }
            self.delivered += 1;
        }
        fn on_crash(&mut self) {
            self.crashed = true;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<u32>) {
            self.restarted = true;
        }
        fn on_peer_crash(&mut self, _ctx: &mut Ctx<u32>, peer: ProcId) {
            self.peer_crashes.push(peer);
        }
    }

    #[test]
    fn crash_loses_messages_notifies_peers_and_restart_revives() {
        let mut sim = Sim::new(NetModel::lan_1987());
        sim.add_process("a", Witness::new());
        sim.add_process("b", Witness::new());
        // b is down across the first delivery, back before the second.
        sim.set_faults(FaultPlan::seeded(1).crash_restart(1, 1_000, 20_000));
        sim.run();
        let faults = &sim.trace().faults;
        assert!(faults
            .iter()
            .any(|f| f.kind == FaultKind::Crash && f.proc == ProcId(1) && f.at == 1_000));
        assert!(faults
            .iter()
            .any(|f| f.kind == FaultKind::Lost && f.proc == ProcId(1)));
        assert!(faults
            .iter()
            .any(|f| f.kind == FaultKind::Restart && f.at == 21_000));
    }

    #[test]
    fn permanent_crash_never_restarts() {
        let mut sim = Sim::new(NetModel::lan_1987());
        sim.add_process("a", Witness::new());
        sim.add_process("b", Witness::new());
        sim.set_faults(FaultPlan::seeded(1).crash(1, 1_000));
        sim.run();
        let faults = &sim.trace().faults;
        assert!(!faults.iter().any(|f| f.kind == FaultKind::Restart));
        // Both deliveries to the dead process were lost.
        assert_eq!(
            faults
                .iter()
                .filter(|f| f.kind == FaultKind::Lost && f.tag == "msg")
                .count(),
            2
        );
    }

    /// Retries until acknowledged — the shape of protocol that makes
    /// `drop_tagged` survivable.
    struct Retrier {
        acked: bool,
    }
    impl Process<u32> for Retrier {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if ctx.me() == ProcId(0) {
                ctx.send(ProcId(1), 1, 64, "try");
                ctx.wake_at(100_000, 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: ProcId, msg: u32) {
            match msg {
                0 => {
                    // Retry timer: resend unless already acknowledged.
                    if !self.acked {
                        ctx.send(ProcId(1), 1, 64, "try");
                        ctx.wake_at(ctx.now() + 100_000, 0);
                    }
                }
                1 => ctx.send(from, 2, 64, "ack"),
                _ => {
                    self.acked = true;
                    ctx.stop();
                }
            }
        }
    }

    #[test]
    fn tagged_drops_are_deterministic_and_survivable_under_retry() {
        let run = |seed| {
            let mut sim = Sim::new(NetModel::lan_1987());
            sim.add_process("src", Retrier { acked: false });
            sim.add_process("dst", Retrier { acked: false });
            sim.set_faults(FaultPlan::seeded(seed).drop_tagged("try", 700));
            sim.run();
            let drops = sim
                .trace()
                .faults
                .iter()
                .filter(|f| f.kind == FaultKind::Drop)
                .count();
            (sim.now(), drops)
        };
        let (end, drops) = run(42);
        assert_eq!((end, drops), run(42), "same seed, same chaos");
        assert!(drops > 0 || end < 200_000, "a 70% drop rate should bite");
    }

    #[test]
    fn tagged_delays_postpone_delivery_without_loss() {
        let mut sim = Sim::new(NetModel::lan_1987());
        sim.add_process("a", Pinger { replies: 0 });
        sim.add_process("b", Pinger { replies: 0 });
        // Every ping is delayed by 100 ms; nothing is lost.
        sim.set_faults(FaultPlan::seeded(7).delay_tagged("ping", 1000, 100_000));
        sim.run();
        let delayed = sim
            .trace()
            .messages
            .iter()
            .find(|m| m.tag == "ping")
            .expect("ping still delivered");
        assert!(delayed.recv >= delayed.send + 100_000);
        assert!(sim
            .trace()
            .faults
            .iter()
            .any(|f| f.kind == FaultKind::Delay && f.tag == "ping"));
        assert_eq!(sim.trace().messages.len(), 3, "all hops completed");
    }
}
