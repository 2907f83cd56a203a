//! What the benchmark prints: the workloads and metrics `BENCHMARK.json`
//! lists, and the samples they are computed from.
//!
//! `BENCHMARK.json` is the one place a workload's `why`, a metric's
//! unit and an end-to-end metric's bound are written; the code reads
//! them from the copy compiled in here. What the code adds is the layer
//! (module) each per-layer metric belongs to.

use crate::stats::{self, Summary};
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// The names listed under `section` (`workloads`, `end_to_end` or
/// `per_layer`), in file order.
pub fn names_in(section: &str) -> Vec<&'static str> {
    let open = format!("\"{section}\": [");
    let Some(at) = BENCHMARK_JSON.find(&open) else {
        return Vec::new();
    };
    let list = &BENCHMARK_JSON[at + open.len()..];
    // The lists hold flat objects, so the first `]` closes the list.
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// The value of `key` in the object whose `name` is `name` — names are
/// used once in the file — as written, without the quotes of a string.
/// (No text in the file holds a quote, a brace or a backslash; a test
/// keeps it so.)
pub fn field_of(name: &str, key: &str) -> Option<&'static str> {
    let at = BENCHMARK_JSON.find(&format!("\"name\": \"{name}\""))?;
    let object = &BENCHMARK_JSON[BENCHMARK_JSON[..at].rfind('{')?..];
    let object = &object[..object.find('}')?];
    let value = object.split(&format!("\"{key}\": ")).nth(1)?;
    Some(match value.strip_prefix('"') {
        Some(text) => text.split('"').next()?,
        None => value.split([',', '\n']).next()?.trim(),
    })
}

/// The regression bound of an end-to-end metric.
pub fn bound_of(metric: &str) -> Option<f64> {
    field_of(metric, "bound")?.parse().ok()
}

/// `run_seconds`: how long one run measures unless `--seconds` says
/// otherwise, and the length of the arrival schedule whose digest is
/// pinned.
pub fn run_seconds() -> f64 {
    BENCHMARK_JSON
        .split("\"run_seconds\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next()?.trim().parse().ok())
        .expect("BENCHMARK.json gives run_seconds")
}

/// `(layer, name)` of the per-layer metrics, in print order. The layer
/// is the module the harness timed from outside; a workload that does
/// not reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pascal.lex", "lex_ns_per_byte"),
    ("pascal.lex", "tokens"),
    ("pascal.parser", "parse_ns_per_line"),
    ("pascal.agtree", "build_ns_per_node"),
    ("pascal.agtree", "tree_nodes"),
    ("core.tree", "teardown_ns_per_node"),
    ("core.split", "split_ns_per_node"),
    ("core.split", "regions_per_tree"),
    ("core.eval.static", "static_ns_per_node"),
    ("core.eval.static", "rule_evals"),
    ("core.eval.dynamic", "dynamic_ns_per_node"),
    ("core.eval.machine", "machine_build_ns_per_node"),
    ("core.eval.machine", "machine_run_ns_per_node"),
    ("core.parallel.pool", "pool_ns_per_tree"),
    ("core.parallel.pool", "pool_over_static"),
    ("core.parallel.pool", "max_in_flight"),
    ("core.parallel.pool", "max_regions_in_flight"),
    ("core.parallel.pool", "sched.steals"),
    ("core.parallel.pool", "sched.local_sends"),
    ("core.parallel.pool", "sched.remote_sends"),
    ("core.parallel.pool", "sched.migrated_attrs"),
    ("core.parallel.pool", "faults.regions_reexecuted"),
    ("core.parallel.pool", "faults.dup_suppressed"),
    ("core.parallel.pool", "faults.panics_contained"),
    ("core.memo", "memo.hits"),
    ("core.memo", "memo.misses"),
    ("core.memo", "memo.inserts"),
    ("core.memo", "memo.evictions"),
    ("core.memo", "memo.deferred"),
    ("core.memo", "memo.hit_rate"),
    ("driver.batch", "driver_spinup_ms"),
    ("driver.batch", "compile_ms.paper"),
    ("driver.batch", "compile_ms.huge"),
    ("driver.service", "offered_rps"),
    ("driver.service", "closed_loop_capacity_rps"),
    ("driver.service", "lat_p50_ms.lo"),
    ("driver.service", "lat_p99_ms.hi"),
    ("driver.service", "queue_ms_p50"),
    ("driver.service", "queue_ms_p99"),
    ("driver.service", "service_ms_p50"),
    ("driver.service", "shed"),
    ("driver.service", "failed"),
    ("driver.service", "max_waiting"),
    ("driver.service", "offer_ns"),
    ("driver.service", "gen_late_ms_max"),
    ("core.parallel.policy", "policy_push_pop_ns"),
    ("pascal.output", "output_ns_per_asm_byte"),
    ("pascal.output", "asm_bytes"),
    ("vax", "assemble_ms"),
    ("vax", "encoded_bytes"),
    ("vax", "vm_steps"),
    ("core.parallel.sim", "sim_makespan_us"),
    ("core.parallel.sim", "sim_batch_makespan_us"),
    ("core.parallel.sim", "sim_wall_s"),
    ("core.parallel.sim", "sim_wall_ns_per_event"),
    ("core.parallel.sim", "sim_machine_util"),
    ("netsim", "sim_events"),
    ("netsim", "sim_msgs"),
    ("harness", "layers_sum_over_e2e.seq"),
    ("harness", "layers_sum_over_e2e.pool"),
    ("harness", "trace_overhead"),
];

/// One throughput sample: `lines` of source went through in `secs`.
/// Samples of one `class` are comparable.
#[derive(Debug, Clone, Copy)]
pub struct RateSample {
    pub class: usize,
    pub lines: f64,
    pub secs: f64,
}

/// What one timed section measured, every timing in box seconds (see
/// `calib.rs`) unless a workload says otherwise. Sections merge, so an
/// A/A run can interleave the slices of its two sides.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// The workload's own path (pool, service or simulator).
    pub par: Vec<RateSample>,
    /// Sequential `Compiler::compile` on the same inputs, the base of
    /// every speed-up.
    pub seq: Vec<RateSample>,
    /// Latency of each operation on the workload's own path, in groups
    /// of consecutive operations. A percentile is read off each group
    /// and the median group reported, so that a stall of the box spoils
    /// the groups it hits and not the result.
    pub op_ms: Vec<Vec<f64>>,
    pub attempted: usize,
    /// Operations that returned an error, were refused, or produced
    /// assembly text other than the reference.
    pub failed: usize,
    /// Operations that were correct but over the workload's latency limit.
    pub late: usize,
    /// The box's speed over each calibrated stretch, as a share of nominal.
    pub box_speed: Vec<f64>,
}

impl Measured {
    pub fn merge(&mut self, other: Measured) {
        self.par.extend(other.par);
        self.seq.extend(other.seq);
        self.op_ms.extend(other.op_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late += other.late;
        self.box_speed.extend(other.box_speed);
    }
}

/// Lines per second over a mix of operation classes: each class's rate
/// is the *median* of its samples' rates, and classes combine by the
/// share of lines they carry. A stall that hits a minority of the
/// samples moves a mean but not this.
pub fn combined_rate(samples: &[RateSample]) -> (f64, Summary) {
    let mut by_class: BTreeMap<usize, (f64, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        let e = by_class.entry(s.class).or_default();
        e.0 += s.lines;
        e.1.push(s.lines / s.secs);
    }
    let lines: f64 = by_class.values().map(|(l, _)| l).sum();
    let secs: f64 = by_class
        .values()
        .map(|(l, rates)| l / stats::median(rates))
        .sum();
    let all: Vec<f64> = samples.iter().map(|s| s.lines / s.secs).collect();
    (lines / secs, stats::summarize(&all))
}

/// One printed value with the samples behind it, if it has any.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: Option<Summary>,
}

/// The metrics of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub values: BTreeMap<&'static str, Value>,
    /// Remarks and warnings printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(
            name,
            Value {
                value,
                samples: None,
            },
        );
    }

    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: Summary) {
        self.values.insert(
            name,
            Value {
                value,
                samples: Some(samples),
            },
        );
    }

    /// Adds `value` to a count.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    /// Raises a high-water mark to `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name).max(value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    /// Fills the end-to-end metrics that come from the timed section,
    /// and notes the two figures derived from them that are printed
    /// but carry no bound: the speed-up with its base beside it, and
    /// the tail latency.
    pub fn end_to_end(&mut self, m: &Measured) {
        let (par, par_s) = combined_rate(&m.par);
        let (seq, seq_s) = combined_rate(&m.seq);
        self.set_sampled("lines_per_s", par, par_s);
        self.set_sampled("seq_lines_per_s", seq, seq_s);
        self.notes.push(format!(
            "speedup {:.3} = lines_per_s {par:.1} / seq_lines_per_s {seq:.1}",
            par / seq
        ));
        let all: Vec<f64> = m.op_ms.iter().flatten().copied().collect();
        let over_groups = |of: fn(&[f64]) -> f64| {
            stats::median(&m.op_ms.iter().map(|g| of(g)).collect::<Vec<f64>>())
        };
        self.set_sampled(
            "op_ms_p50",
            over_groups(|g| stats::percentile_of(g, 50.0)),
            stats::summarize(&all),
        );
        if let Some(first) = m.op_ms.first() {
            self.notes.push(format!(
                "op_ms_tail {:.4} ms: p{} of {} operations, median of {} group(s)",
                over_groups(|g| stats::tail(g).1),
                stats::tail(first).0,
                first.len(),
                m.op_ms.len()
            ));
        }
        self.set(
            "ok_share",
            1.0 - (m.failed + m.late) as f64 / m.attempted.max(1) as f64,
        );
        let speed = stats::summarize(&m.box_speed);
        self.notes.push(format!(
            "box speed {:.3} of nominal (q1 {:.3}, q3 {:.3}, n={}): a timing in box seconds is its wall time times the speed read around it",
            speed.median, speed.q1, speed.q3, speed.n
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> Vec<&'static str> {
        ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|section| names_in(section))
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let names = all_names();
        assert_eq!(BENCHMARK_JSON.matches("\"name\": ").count(), names.len());
        for name in &names {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn the_per_layer_table_is_the_list_in_benchmark_json() {
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.1).collect();
        assert_eq!(table, names_in("per_layer"));
    }

    #[test]
    fn fields_are_read_from_benchmark_json() {
        // What `field_of` relies on.
        assert!(!BENCHMARK_JSON.contains('\\'));
        assert_eq!(names_in("workloads").len(), 6);
        for w in names_in("workloads") {
            let why = field_of(w, "why").unwrap_or_else(|| panic!("{w} has no why"));
            assert!(!why.is_empty() && why.len() <= 200, "{w}: {why:?}");
        }
        for m in names_in("end_to_end") {
            let b = bound_of(m).unwrap_or_else(|| panic!("{m} has no bound"));
            assert!(b > 0.0 && b <= 0.25, "{m}: bound {b}");
            assert!(field_of(m, "unit").is_some_and(|u| !u.is_empty()));
        }
        assert_eq!(field_of("setup_s", "unit"), Some("s"));
        assert_eq!(field_of("setup_s", "better"), Some("lower"));
        assert_eq!(field_of("tokens", "bound"), None);
        assert_eq!(field_of("no_such_metric", "unit"), None);
        assert!((1.0..=60.0).contains(&run_seconds()));
    }

    #[test]
    fn combined_rate_takes_class_medians_weighted_by_lines() {
        let s = |class, lines, secs| RateSample { class, lines, secs };
        // Class 0 runs at 100 lines/s with one stalled sample, class 1 at 10.
        let samples = [
            s(0, 100.0, 1.0),
            s(0, 100.0, 1.0),
            s(0, 100.0, 50.0),
            s(1, 30.0, 3.0),
        ];
        let (rate, summary) = combined_rate(&samples);
        // 330 lines in 300/100 + 30/10 = 6 s.
        assert_eq!(rate, 55.0);
        assert_eq!(summary.n, 4);
    }
}
