//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to a crates registry, so this
//! workspace-local shim implements the subset of the criterion API the
//! workspace's benches use: benchmark groups, `bench_function` /
//! `bench_with_input`, `BenchmarkId`, `Bencher::iter`, `black_box` and
//! the `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement model: each benchmark is warmed up briefly, then run for
//! `sample_size` samples; each sample times a batch of iterations sized
//! so one sample takes roughly `SAMPLE_TARGET`. The median, minimum and
//! maximum per-iteration times are printed, and every result is appended
//! to `target/shim-criterion/<group>.json` so scripts can consume the
//! numbers (the full criterion HTML machinery is deliberately absent).

use std::fmt;
use std::fs;
use std::hint;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Target wall-clock time for one sample batch.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);
/// Warm-up budget before calibration.
const WARMUP: Duration = Duration::from_millis(150);

/// Opaque value barrier (re-export of [`std::hint::black_box`]).
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{function}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name }
    }
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher {
    /// Per-iteration times in nanoseconds collected by [`Bencher::iter`],
    /// fractional: a routine faster than a nanosecond still reads above
    /// zero.
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `routine` repeatedly, recording one timing sample per batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and calibrate the batch size.
        let warm_start = Instant::now();
        let mut iters_per_batch = 1u64;
        let mut one = Duration::ZERO;
        while warm_start.elapsed() < WARMUP {
            let t = Instant::now();
            black_box(routine());
            one = t.elapsed();
            if one > WARMUP / 4 {
                break; // slow routine: one iteration per sample
            }
        }
        if !one.is_zero() && one < SAMPLE_TARGET {
            iters_per_batch = (SAMPLE_TARGET.as_nanos() / one.as_nanos().max(1)).max(1) as u64;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            self.samples
                .push(elapsed.as_nanos() as f64 / iters_per_batch as f64);
        }
    }
}

/// Summary statistics of one finished benchmark.
#[derive(Debug, Clone)]
struct Finished {
    name: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    results: Vec<Finished>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks a closure under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        self.record(id.name, &b.samples);
        self
    }

    /// Benchmarks a closure over an explicit input under `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        self.record(id.name, &b.samples);
        self
    }

    fn record(&mut self, name: String, samples: &[f64]) {
        let mut ns = samples.to_vec();
        ns.sort_unstable_by(f64::total_cmp);
        let median = ns.get(ns.len() / 2).copied().unwrap_or(0.0);
        let fin = Finished {
            name: format!("{}/{}", self.name, name),
            median_ns: median,
            min_ns: ns.first().copied().unwrap_or(0.0),
            max_ns: ns.last().copied().unwrap_or(0.0),
            samples: ns.len(),
        };
        println!(
            "{:<48} median {:>12}  (min {}, max {}, {} samples)",
            fin.name,
            fmt_ns(fin.median_ns),
            fmt_ns(fin.min_ns),
            fmt_ns(fin.max_ns),
            fin.samples,
        );
        self.results.push(fin);
    }

    /// Writes the group's results to `target/shim-criterion/`.
    pub fn finish(&mut self) {
        let dir = out_dir();
        if fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}.json", self.name.replace('/', "_")));
        let mut body = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                body.push_str(",\n");
            }
            body.push_str(&format!(
                "  {{\"name\": {:?}, \"median_ns\": {:.3}, \"min_ns\": {:.3}, \"max_ns\": {:.3}, \"samples\": {}}}",
                r.name, r.median_ns, r.min_ns, r.max_ns, r.samples
            ));
        }
        body.push_str("\n]\n");
        if let Ok(mut f) = fs::File::create(&path) {
            let _ = f.write_all(body.as_bytes());
        }
        let _ = &self.criterion;
    }
}

fn out_dir() -> PathBuf {
    // Bench binaries run with the *package* directory as cwd; the
    // build's target directory lives at the workspace root (or wherever
    // CARGO_TARGET_DIR points). Walk up from cwd to find it.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            let cwd = std::env::current_dir().ok()?;
            cwd.ancestors()
                .map(|a| a.join("target"))
                .find(|t| t.is_dir())
        })
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("shim-criterion")
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.3} ns")
    }
}

/// Entry point handed to `criterion_group!` functions.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            results: Vec::new(),
        }
    }

    /// Benchmarks a closure outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("standalone");
        g.bench_function(name, f);
        g.finish();
        self
    }
}

/// Declares a group function running each listed benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes --bench; ignore any CLI filters.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim-self-test");
        g.sample_size(5);
        // An opaque bound keeps the sum from folding to a constant in
        // release builds; even a folded routine reads above zero.
        g.bench_function("sum", |b| b.iter(|| (0..black_box(100u64)).sum::<u64>()));
        assert_eq!(g.results.len(), 1);
        assert!(g.results[0].median_ns > 0.0);
        assert_eq!(g.results[0].samples, 5);
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 3).name, "f/3");
        assert_eq!(BenchmarkId::from_parameter(7).name, "7");
    }
}
