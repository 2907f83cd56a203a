//! The repo's benchmark: one process per workload, one load-generating
//! thread, two pool workers, every timed operation from Pascal source
//! text to VAX assembly text. See `README.md` beside this file for the
//! workloads, the metrics and how they are expected to interact, and
//! `BENCHMARK.json` at the repo root for the contract the driver reads.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--aa]
//! ```
//!
//! `--trace 0` (the default) prints the end-to-end metrics, measured
//! with tracing off; `--trace 1` repeats the workload call by call
//! under spans, prints the per-layer metrics and each layer's self
//! time, and writes the spans as JSON next to the executable. `--aa`
//! runs the end-to-end measurement as two interleaved sides and prints
//! how far the same code differs from itself, beside each bound.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod calib;
mod closed;
mod inputs;
mod layers;
mod metrics;
mod service;
mod simw;
mod stats;
mod trace;

use calib::BoxClock;
use inputs::Checked;
use metrics::{bound_of, field_of, names_in, Measured, Report, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// Pool workers, = `nproc` of the box the bounds were set on. A
/// constant, recorded in every output, never detected: a run on a
/// bigger box measures the same configuration.
pub const WORKERS: usize = 2;

/// One workload, set up and ready to be timed.
pub trait Workload {
    /// The untimed first pass over the workload's programs: reference
    /// assembly digests, and the differential run on the VM.
    fn check(&mut self, seed: u64) -> Checked;
    /// Digest of the generated inputs (sources, arrival schedule).
    fn input_digest(&self) -> u64;
    /// The timed section, tracing off, for about `seconds`.
    fn measure(&mut self, seconds: f64) -> Measured;
    /// The traced pass: fills the per-layer metrics, returns
    /// `(operations attempted, failed)`.
    fn layers(
        &mut self,
        seconds: f64,
        checked: &Checked,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> (usize, usize);
}

fn set_up(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    use closed::{Closed, Kind};
    Ok(match workload {
        "small_iid" => Box::new(Closed::setup(Kind::SmallIid, seed)?),
        "large_single" => Box::new(Closed::setup(Kind::LargeSingle, seed)?),
        "memo_dup" => Box::new(Closed::setup(Kind::MemoDup, seed)?),
        "memo_iid" => Box::new(Closed::setup(Kind::MemoIid, seed)?),
        "service_open" => Box::new(service::Service::setup(seed)?),
        "sim_paper" => Box::new(simw::SimPaper::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of {:?}",
                names_in("workloads")
            ));
        }
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: metrics::run_seconds(),
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(
            "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--aa]".into(),
        );
    }
    if args.aa && args.trace {
        return Err("--aa compares end-to-end metrics; use it with --trace 0".into());
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `VmHWM` line of `/proc/self/status`, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets the workload up, timed in box seconds.
fn timed_set_up(args: &Args, clock: &mut BoxClock) -> Result<(Box<dyn Workload>, f64), String> {
    clock.speed();
    let t = Instant::now();
    let w = set_up(&args.workload, args.seed)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((w, secs * clock.speed()))
}

fn run(args: &Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < WORKERS {
        return Err(format!(
            "nproc = {nproc}: the benchmark runs {WORKERS} pool workers and refuses to time them on fewer cores"
        ));
    }
    let why = field_of(&args.workload, "why").unwrap_or("");
    let mut text = String::new();
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    writeln!(
        text,
        "workload {}  seed {}  seconds {}  trace {}\nwhy: {why}\nnproc {nproc}  workers {WORKERS}  load1 {}  {}  commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        loadavg.split_whitespace().next().unwrap_or("unknown"),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    )
    .expect("write to string");

    let mut clock = BoxClock::new();
    let (mut w, secs) = timed_set_up(args, &mut clock)?;
    let mut setup_secs = vec![secs];

    let digest = w.input_digest();
    match inputs::pinned(&args.workload, args.seed) {
        Some(want) if want != digest => {
            return Err(format!(
                "input digest {digest:#018x} differs from the pinned {want:#018x}: the generator or stream shapes changed, so this is no longer the workload the bounds were set on"
            ));
        }
        Some(_) => writeln!(text, "input_digest {digest:#018x} (pinned)"),
        None => writeln!(text, "input_digest {digest:#018x} (not pinned at this seed)"),
    }
    .expect("write to string");

    let mut failures = inputs::golden_preflight(&paragram_pascal::Compiler::new());
    let checked = w.check(args.seed);
    failures.extend(checked.failures.iter().cloned());

    // `(layer, name)` of what this run reports.
    let rows: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        names_in("end_to_end")
            .into_iter()
            .map(|name| ("end-to-end", name))
            .collect()
    };
    let mut report = Report::default();
    let (attempted, failed) = if args.trace {
        let mut rec = Recorder::new();
        let counts = w.layers(args.seconds, &checked, &mut rec, &mut report);
        drop(w);
        write_trace(&rec, &args.workload, &mut text);
        counts
    } else {
        let sides = if args.aa { 2 } else { 1 };
        let mut measured = vec![Measured::default(); sides];
        // A/A: eight slices alternate between the sides, so that both
        // see the same minutes of the box.
        let slices = if args.aa { 8 } else { 1 };
        for slice in 0..slices {
            measured[slice % sides].merge(w.measure(args.seconds * sides as f64 / slices as f64));
        }
        // Read before the workload is set up again: the peak is one
        // set-up's memory, not what several leave behind in the heap.
        let peak_rss_mb = peak_rss_mb();
        drop(w);
        // The set-up time reported is a median: at least 3 set-ups a
        // side, and up to 9 while they take under 1.5 s.
        while setup_secs.len() < 3 * sides
            || (setup_secs.iter().sum::<f64>() < 1.5 * sides as f64 && setup_secs.len() < 9 * sides)
        {
            // The pool's threads are joined outside the timing.
            setup_secs.push(timed_set_up(args, &mut clock)?.1);
        }
        let reference = simw::reference()?;
        failures.extend(reference.failures.iter().cloned());
        let mut reports: Vec<Report> = measured
            .iter()
            .enumerate()
            .map(|(side, m)| {
                let mut r = Report::default();
                r.end_to_end(m);
                let setups: Vec<f64> = setup_secs
                    .iter()
                    .copied()
                    .skip(side)
                    .step_by(sides)
                    .collect();
                r.set_sampled("setup_s", stats::median(&setups), stats::summarize(&setups));
                r.set("peak_rss_mb", peak_rss_mb);
                r.set("asm_bytes_per_line", reference.asm_bytes_per_line);
                r.set("vm_steps_per_line", reference.vm_steps_per_line);
                r.set("sim_speedup", reference.sim_speedup);
                r.set("sim_batch_lines_per_vs", reference.sim_batch_lines_per_vs);
                r
            })
            .collect();
        if args.aa {
            print_aa(&reports, &mut text);
        }
        report = reports.swap_remove(0);
        // The contract: every end-to-end metric, and none of them 0.
        if let Some((_, name)) = rows.iter().find(|(_, name)| report.get(name) == 0.0) {
            return Err(format!("end-to-end metric {name} was not measured"));
        }
        (
            measured.iter().map(|m| m.attempted).sum(),
            measured.iter().map(|m| m.failed).sum(),
        )
    };
    if let Some(name) = report
        .values
        .keys()
        .find(|name| !rows.iter().any(|(_, row)| row == *name))
    {
        return Err(format!("{name} is measured but not in BENCHMARK.json"));
    }

    for f in failures.iter().take(10) {
        writeln!(text, "CHECK FAILED: {f}").expect("write to string");
    }
    let correct = failures.is_empty() && failed == 0;
    print_report(&report, &rows, &mut text);

    let metrics: Vec<String> = rows
        .iter()
        .map(|(_, name)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                report.get(name),
                unit_of(name)
            )
        })
        .collect();
    writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
    .expect("write to string");
    Ok(text)
}

fn unit_of(metric: &str) -> &'static str {
    field_of(metric, "unit").unwrap_or("")
}

/// Every metric of the run by name, with its unit and — where it has
/// samples — their count, median and quartiles.
fn print_report(report: &Report, rows: &[(&str, &str)], text: &mut String) {
    for (layer, name) in rows {
        let (v, unit) = (report.values.get(name), unit_of(name));
        write!(
            text,
            "{layer:<20} {name:<28} {:>16.4} {unit:<10}",
            v.map_or(0.0, |v| v.value)
        )
        .expect("write to string");
        if let Some(s) = v.and_then(|v| v.samples) {
            write!(
                text,
                " n={} median={:.4} q1={:.4} q3={:.4}",
                s.n, s.median, s.q1, s.q3
            )
            .expect("write to string");
        }
        text.push('\n');
    }
    for note in &report.notes {
        writeln!(text, "note: {note}").expect("write to string");
    }
}

/// Each end-to-end metric on the two sides of an A/A run, their
/// relative difference, and the bound it has to stay within.
fn print_aa(sides: &[Report], text: &mut String) {
    writeln!(text, "A/A: the same code on two interleaved sides").expect("write to string");
    for name in names_in("end_to_end") {
        let (a, b, unit) = (sides[0].get(name), sides[1].get(name), unit_of(name));
        let diff = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
        let bound = bound_of(name).unwrap_or(0.0);
        let verdict = if diff <= bound { "within" } else { "EXCEEDS" };
        writeln!(
            text,
            "{name:<22} A {a:>14.4}  B {b:>14.4} {unit:<10} diff {:>7.3}%  {verdict} bound {:.0}%",
            diff * 100.0,
            bound * 100.0
        )
        .expect("write to string");
    }
}

/// Writes the spans next to the executable (inside the build directory,
/// so inside the checkout) and prints each layer's self time.
fn write_trace(rec: &Recorder, workload: &str, text: &mut String) {
    let path = std::env::current_exe().ok().and_then(|exe| {
        Some(
            exe.parent()?
                .join(format!("benchmark-trace-{workload}.json")),
        )
    });
    match path.as_ref().map(|p| rec.write_json(p)) {
        Some(Ok(())) => writeln!(
            text,
            "{} spans written to {}",
            rec.spans.len(),
            path.expect("some").display()
        ),
        Some(Err(e)) => writeln!(text, "spans not written: {e}"),
        None => writeln!(text, "spans not written: no executable directory"),
    }
    .expect("write to string");
    writeln!(
        text,
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    )
    .expect("write to string");
    for (name, (calls, total, own)) in rec.self_times() {
        writeln!(text, "{name:<28} {calls:>8} {total:>12.6} {own:>12.6}").expect("write to string");
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The numbers come from this directory built as a package of its
    /// own, outside the workspace, where cargo does not apply the root
    /// manifest's profile: the copy in `Cargo.toml` here must say what
    /// the root says, or the benchmark measures other code generation
    /// than `cargo build --release` ships.
    #[test]
    fn the_package_builds_with_the_workspace_release_profile() {
        let release_profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(str::to_owned)
                .collect()
        };
        let own = release_profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(
            own,
            release_profile(include_str!("../../../../../Cargo.toml"))
        );
    }

    #[test]
    fn unknown_workloads_are_refused_by_name() {
        let err = set_up("nonesuch", 1).err().expect("refused");
        for name in names_in("workloads") {
            assert!(err.contains(name), "{err}");
        }
    }
}
