//! Seeded inputs: generated Pascal sources, their digests, and the
//! reference results every timed operation is checked against.
//!
//! The generator (`pascal::generator`) and the stream shapes
//! (`paragram_bench::stream`) live in crates under test, so a silent
//! change to either would change the workloads. [`PINNED`] holds the
//! digest of each workload's inputs at the default seed; a run at that
//! seed aborts when its inputs no longer hash to it.

use paragram_bench::stream::SizeClass;
use paragram_pascal::direct::compile_direct;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{parser, Compiler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The seed a bare `--workload NAME` runs with, and the only one whose
/// digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// `(workload, input digest at DEFAULT_SEED)`; every run prints its
/// digest, which is where these come from after an intentional
/// generator change.
pub const PINNED: &[(&str, u64)] = &[
    ("small_iid", 0xd14e_9ae5_7779_0a70),
    ("large_single", 0xf33c_3d92_baa4_8814),
    ("memo_dup", 0xe855_454f_2e1e_c3a5),
    ("memo_iid", 0xe980_0ec5_7029_ca28),
    ("service_open", 0x3d6e_da12_14ba_0513),
    ("sim_paper", 0x3180_a8ad_e83f_1a09),
];

/// 64-bit multiply-xorshift hash over 8-byte words: stable across
/// platforms and toolchains (unlike `DefaultHasher`), and fast enough
/// to hash every timed operation's assembly text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0x9e37_79b9_7f4a_7c15)
    }

    pub fn u64(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.0 = x ^ (x >> 32);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut last = [0u8; 8];
        let rest = chunks.remainder();
        last[..rest.len()].copy_from_slice(rest);
        self.u64(u64::from_le_bytes(last));
        // The length separates "ab","c" from "a","bc".
        self.u64(bytes.len() as u64);
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.bytes(bytes);
        d.0
    }
}

/// The shape of one generated program. `Memo` is the 3-cluster,
/// ≈ 1.1 k-node unit of `bench_throughput --memo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Size(SizeClass),
    Memo { template_clusters: usize },
}

impl Shape {
    pub fn config(self, seed: u64) -> GenConfig {
        match self {
            Shape::Size(class) => class.gen_config(seed),
            Shape::Memo { template_clusters } => GenConfig {
                clusters: 3,
                procs_per_cluster: 2,
                stmts_per_proc: 4,
                nesting: 1,
                seed,
                template_clusters,
            },
        }
    }

    /// Index into [`CLASS_NAMES`]: operations of one class are
    /// comparable, so rates are taken per class.
    pub fn class(self) -> usize {
        match self {
            Shape::Size(SizeClass::Proc) => 0,
            Shape::Size(SizeClass::Unit) => 1,
            Shape::Size(SizeClass::Paper) => 2,
            Shape::Size(SizeClass::Huge) => 3,
            Shape::Memo { .. } => 4,
        }
    }
}

pub const CLASS_NAMES: [&str; 5] = ["proc", "unit", "paper", "huge", "memo"];

pub struct Program {
    pub source: String,
    pub lines: usize,
    pub shape: Shape,
}

impl Program {
    pub fn generate(shape: Shape, seed: u64) -> Self {
        let source = generate(&shape.config(seed));
        Program {
            lines: source.lines().count(),
            source,
            shape,
        }
    }
}

/// A stream of program seeds derived from the workload seed and a tag
/// naming what they are for, so that two uses never share programs.
pub fn seed_stream(seed: u64, tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Programs per class that the differential run executes.
const VM_SAMPLE: usize = 24;

/// What the reference pass and the differential run learned about a
/// corpus; every field is a pure function of the inputs.
#[derive(Debug, Default, Clone)]
pub struct Checked {
    pub lines: usize,
    pub asm_bytes: usize,
    /// `vax::Vm::steps` summed over the sampled programs.
    pub vm_steps: usize,
    /// Each sampled program's VM steps per source line. (Their mean is
    /// reported: a sum would be one huge program's ratio.)
    pub vm_steps_per_line: Vec<f64>,
    pub encoded_bytes: usize,
    pub assemble_secs: f64,
    /// One line per program whose reference compile or differential
    /// run went wrong.
    pub failures: Vec<String>,
}

/// The programs a workload compiles, with the digest of each one's
/// reference assembly (sequential `Compiler::compile`, untimed).
pub struct Corpus {
    pub programs: Vec<Program>,
    pub asm_digest: Vec<u64>,
}

impl Corpus {
    pub fn new(programs: Vec<Program>) -> Self {
        Corpus {
            programs,
            asm_digest: Vec::new(),
        }
    }

    pub fn lines(&self) -> usize {
        self.programs.iter().map(|p| p.lines).sum()
    }

    pub fn digest_into(&self, d: &mut Digest) {
        for p in &self.programs {
            d.bytes(p.source.as_bytes());
        }
    }

    /// A seeded sample of at most [`VM_SAMPLE`] programs per class.
    fn sample(&self, seed: u64) -> Vec<bool> {
        let mut picks = seed_stream(seed, 0xc4ec);
        let mut sampled = vec![false; self.programs.len()];
        for class in 0..CLASS_NAMES.len() {
            let mut members: Vec<usize> = (0..self.programs.len())
                .filter(|&i| self.programs[i].shape.class() == class)
                .collect();
            for _ in 0..VM_SAMPLE.min(members.len()) {
                let k = picks.gen_range(0..members.len());
                sampled[members.swap_remove(k)] = true;
            }
        }
        sampled
    }

    /// The untimed first pass: compiles every program sequentially and
    /// records its assembly digest, and runs the sampled programs on
    /// `vax::Vm` — once from the attribute-grammar compiler's assembly
    /// and once from `direct::compile_direct`'s, which shares no code
    /// generator with it — requiring equal program output.
    pub fn check(&mut self, compiler: &Compiler, seed: u64) -> Checked {
        let mut out = Checked {
            lines: self.lines(),
            ..Checked::default()
        };
        let sampled = self.sample(seed);
        self.asm_digest.clear();
        for (i, p) in self.programs.iter().enumerate() {
            let asm = match compiler.compile(&p.source) {
                Ok(o) => {
                    if !o.errors.is_empty() {
                        out.failures
                            .push(format!("program {i}: semantic errors {:?}", o.errors));
                    }
                    o.asm
                }
                Err(e) => {
                    out.failures.push(format!("program {i}: {e}"));
                    String::new()
                }
            };
            out.asm_bytes += asm.len();
            self.asm_digest.push(Digest::of(asm.as_bytes()));
            if sampled[i] {
                let before = out.vm_steps;
                if let Err(e) = differential_run(&p.source, &asm, &mut out) {
                    out.failures.push(format!("program {i}: {e}"));
                }
                out.vm_steps_per_line
                    .push((out.vm_steps - before) as f64 / p.lines as f64);
            }
        }
        out
    }
}

/// Runs `ag_asm` and the direct compiler's assembly for `source` on
/// the VM and compares what the two programs print.
fn differential_run(source: &str, ag_asm: &str, out: &mut Checked) -> Result<(), String> {
    let run = |asm: &str, out: &mut Checked, count: bool| -> Result<String, String> {
        let t = Instant::now();
        let program = paragram_vax::assemble(asm).map_err(|e| format!("assemble: {e}"))?;
        let assemble = t.elapsed().as_secs_f64();
        let mut vm = paragram_vax::Vm::new(&program);
        let printed = vm.run().map_err(|e| format!("vm: {e}"))?;
        if count {
            out.assemble_secs += assemble;
            out.encoded_bytes += program.machine_size();
            out.vm_steps += vm.steps();
        }
        Ok(printed)
    };
    let ast = parser::parse(source).map_err(|e| format!("parse: {e}"))?;
    let direct = compile_direct(&ast);
    if !direct.errors.is_empty() {
        return Err(format!("direct compiler errors {:?}", direct.errors));
    }
    let from_ag = run(ag_asm, out, true)?;
    let from_direct = run(&direct.asm, out, false)?;
    if from_ag != from_direct {
        return Err("attribute-grammar and direct assembly print different output".into());
    }
    Ok(())
}

/// `examples/pascal/*.pas` against `crates/pascal/tests/golden/*.s`,
/// byte for byte: hand-kept expected files, compiled in so that the
/// check needs no path at run time.
pub fn golden_preflight(compiler: &Compiler) -> Vec<String> {
    macro_rules! golden {
        ($($name:literal),*) => {
            [$((
                $name,
                include_str!(concat!("../../../../../examples/pascal/", $name, ".pas")),
                include_str!(concat!("../../../../pascal/tests/golden/", $name, ".s")),
            )),*]
        };
    }
    golden!("arith", "control", "nested", "output", "procs", "recurse")
        .iter()
        .filter_map(|(name, source, expected)| match compiler.compile(source) {
            Ok(out) if out.asm == *expected => None,
            Ok(_) => Some(format!("golden {name}: assembly differs from {name}.s")),
            Err(e) => Some(format!("golden {name}: {e}")),
        })
        .collect()
}

/// The pinned digest for `workload`, if this run is one the pins cover.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED)
        .then(|| PINNED.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_separates_boundaries() {
        // Pinned value: the hash must not change across toolchains, or
        // every PINNED entry silently goes stale.
        assert_eq!(Digest::of(b"program p; begin end."), 0xbe28_5df4_da80_189e);
        let mut a = Digest::new();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Digest::new();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a, b);
    }

    #[test]
    fn programs_are_a_function_of_shape_and_seed() {
        let shape = Shape::Memo {
            template_clusters: 2,
        };
        let a = Program::generate(shape, 7);
        let b = Program::generate(shape, 7);
        let c = Program::generate(shape, 8);
        assert_eq!(a.source, b.source);
        assert_ne!(a.source, c.source);
        assert_eq!(a.lines, a.source.lines().count());
        let mut s = seed_stream(1, 2);
        let mut t = seed_stream(1, 2);
        assert_eq!(s.next_u64(), t.next_u64());
        assert_ne!(seed_stream(1, 3).next_u64(), seed_stream(1, 2).next_u64());
    }

    #[test]
    fn every_workload_is_pinned_at_the_default_seed_only() {
        let workloads = crate::metrics::names_in("workloads");
        for name in &workloads {
            assert!(pinned(name, DEFAULT_SEED).is_some(), "{name} has no pin");
            assert_eq!(pinned(name, DEFAULT_SEED + 1), None);
        }
        assert_eq!(PINNED.len(), workloads.len());
    }

    #[test]
    fn golden_examples_compile_to_their_snapshots() {
        assert_eq!(golden_preflight(&Compiler::new()), Vec::<String>::new());
    }
}
