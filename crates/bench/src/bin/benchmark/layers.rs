//! The staged pass: the sequential source→asm path taken one public
//! call at a time, with a span around each, plus probes of the layers
//! that path does not call directly.

use crate::inputs::{Checked, Corpus, Digest, Program};
use crate::metrics::Report;
use crate::stats;
use crate::trace::{Recorder, SpanId};
use crate::WORKERS;
use paragram_core::eval::{dynamic_eval, static_eval, Machine, MachineScratch};
use paragram_core::split::{decompose, Decomposition, SplitConfig};
use paragram_core::tree::ParseTree;
use paragram_pascal::{agtree, lex, parser, Compiler, PVal};
use std::sync::Arc;
use std::time::Instant;

pub type Tree = Arc<ParseTree<PVal>>;

/// `Compiler::tree_from_source`, call by call: parse, then build.
pub fn front_end(
    compiler: &Compiler,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    request: u32,
    p: &Program,
) -> Result<Tree, String> {
    let ast = rec
        .span("pascal.parser", parent, request, || {
            parser::parse(&p.source)
        })
        .map_err(|e| e.to_string())?;
    rec.count("pascal.parser", p.lines);
    let tree = rec
        .span("pascal.agtree", parent, request, || {
            agtree::build_tree(&compiler.pg, &ast)
        })
        .map_err(|e| e.to_string())?;
    rec.count("pascal.agtree", tree.len());
    // The AST is the parser's; freeing it is not `core.tree`'s cost.
    rec.span("pascal.parser/drop", parent, request, || drop(ast));
    Ok(tree)
}

/// Drops trees of `nodes` nodes in all, with what was computed on them
/// (attribute stores, a batch report), under a span: freeing them is
/// part of every compile, and at these sizes not a small one. The nodes
/// are counted here, so that `teardown_ns_per_node` divides the spans
/// by the nodes of the same calls on every path.
pub fn teardown<T>(
    rec: &mut Recorder,
    parent: Option<SpanId>,
    request: u32,
    nodes: usize,
    values: T,
) {
    rec.span("core.tree/drop", parent, request, || drop(values));
    rec.count("core.tree/drop", nodes);
}

/// `Compiler::output_from_store` under a span.
pub fn output(
    compiler: &Compiler,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    request: u32,
    tree: &ParseTree<PVal>,
    store: &paragram_core::tree::AttrStore<PVal>,
) -> String {
    let out = rec.span("pascal.output", parent, request, || {
        compiler.output_from_store(tree, store, Default::default())
    });
    rec.count("pascal.output", out.asm.len());
    out.asm
}

/// `Compiler::compile`, call by call, as the spans of one request.
pub fn seq_request(
    compiler: &Compiler,
    rec: &mut Recorder,
    request: u32,
    p: &Program,
) -> Result<String, String> {
    let req = rec.enter("request.seq", None, request);
    let parent = Some(req);
    let tree = front_end(compiler, rec, parent, request, p)?;
    let plans = compiler.evals.plans().expect("pascal grammar is ordered");
    let (store, stats) = rec
        .span("core.eval.static", parent, request, || {
            static_eval(&tree, plans)
        })
        .map_err(|e| e.to_string())?;
    rec.count("core.eval.static", tree.len());
    rec.count("core.eval.static/rules", stats.total_applied());
    let asm = output(compiler, rec, parent, request, &tree, &store);
    teardown(rec, parent, request, tree.len(), (tree, store));
    rec.exit(req);
    Ok(asm)
}

/// Layers the sequential path reaches only through others: the lexer
/// (inside `parse`), the splitter and region machine (inside the pool)
/// and the dynamic evaluator (the machines' fallback).
pub fn probes(
    compiler: &Compiler,
    rec: &mut Recorder,
    request: u32,
    p: &Program,
) -> Result<(), String> {
    let tokens = rec
        .span("pascal.lex", None, request, || lex::lex(&p.source))
        .map_err(|e| e.msg)?;
    rec.count("pascal.lex", p.source.len());
    rec.count("pascal.lex/tokens", tokens.len());
    rec.count("pascal.lex/lines", p.lines);

    let tree = &compiler
        .tree_from_source(&p.source)
        .map_err(|e| e.to_string())?;
    rec.count("corpus/nodes", tree.len());
    let decomp = rec.span("core.split", None, request, || {
        decompose(tree, SplitConfig::machines(WORKERS))
    });
    rec.count("core.split", tree.len());
    rec.count("core.split/regions", decomp.len());
    rec.count("core.split/trees", 1);

    rec.span("core.eval.dynamic", None, request, || dynamic_eval(tree))
        .map_err(|e| e.to_string())?;
    rec.count("core.eval.dynamic", tree.len());

    let plan = compiler.evals.plan();
    let whole = Decomposition::whole(tree);
    let mut machine = rec.span("core.eval.machine/build", None, request, || {
        Machine::from_plan(
            plan,
            tree,
            &whole,
            0,
            plan.best_mode(),
            MachineScratch::new(),
        )
    });
    rec.span("core.eval.machine/run", None, request, || machine.run())
        .map_err(|e| e.to_string())?;
    rec.count("core.eval.machine", tree.len());
    Ok(())
}

/// How the spans of one path add up against its untraced end-to-end
/// time: one pair of ratios per stretch of work that was timed both
/// ways back to back. The medians are reported, so that a stall during
/// one stretch does not pass for tracing overhead.
#[derive(Default)]
pub struct Reconciled {
    /// Σ layer spans ÷ untraced end-to-end seconds.
    pub layers_over_e2e: Vec<f64>,
    /// Traced ÷ untraced end-to-end seconds.
    pub traced_over_e2e: Vec<f64>,
}

impl Reconciled {
    pub fn push(&mut self, e2e_secs: f64, traced_secs: f64, layer_secs: f64) {
        self.layers_over_e2e.push(layer_secs / e2e_secs);
        self.traced_over_e2e.push(traced_secs / e2e_secs);
    }
}

/// What the staged pass over a corpus found.
pub struct Staged {
    /// The sequential path, one entry per block of programs.
    pub seq: Reconciled,
    pub failed: usize,
}

/// Programs timed untraced, then traced, before moving on: long enough
/// that the second timing does not run in the first one's warm cache,
/// short enough (tens of milliseconds) that both see the same speed of
/// a box that changes pace from one second to the next.
const BLOCK: usize = 50;

/// `Compiler::compile` untraced and [`seq_request`] traced over
/// `corpus`, alternating in blocks of [`BLOCK`] programs, then
/// [`probes`]. Every assembly text is checked against the reference
/// digests.
pub fn staged_pass(compiler: &Compiler, corpus: &Corpus, rec: &mut Recorder) -> Staged {
    let matches = |i: usize, asm: &str| Digest::of(asm.as_bytes()) == corpus.asm_digest[i];
    let mut staged = Staged {
        seq: Reconciled::default(),
        failed: 0,
    };
    for block in (0..corpus.programs.len()).step_by(BLOCK) {
        let programs = corpus.programs.iter().enumerate().skip(block).take(BLOCK);
        let (mut e2e_secs, mut traced_secs) = (0.0, 0.0);
        for (i, p) in programs.clone() {
            let t = Instant::now();
            let plain = compiler.compile(&p.source);
            e2e_secs += t.elapsed().as_secs_f64();
            staged.failed += usize::from(!plain.is_ok_and(|o| matches(i, &o.asm)));
        }
        let first_span = rec.spans.len();
        for (i, p) in programs {
            let t = Instant::now();
            let traced = seq_request(compiler, rec, i as u32, p);
            traced_secs += t.elapsed().as_secs_f64();
            staged.failed += usize::from(!traced.is_ok_and(|asm| matches(i, &asm)));
        }
        let layer_secs = rec.children_secs("request.seq", first_span);
        staged.seq.push(e2e_secs, traced_secs, layer_secs);
    }
    for (i, p) in corpus.programs.iter().enumerate() {
        staged.failed += usize::from(probes(compiler, rec, i as u32, p).is_err());
    }
    staged
}

/// Turns the recorder's spans and counts, and how the sequential path
/// (and the pool path, where there is one) reconciled, into the
/// front-end, evaluator, output and harness metrics.
pub fn report_layers(
    rec: &Recorder,
    checked: &Checked,
    seq: &Reconciled,
    pool: Option<&Reconciled>,
    report: &mut Report,
) {
    report.set(
        "layers_sum_over_e2e.seq",
        stats::median(&seq.layers_over_e2e),
    );
    let mut overheads = seq.traced_over_e2e.clone();
    if let Some(pool) = pool {
        report.set(
            "layers_sum_over_e2e.pool",
            stats::median(&pool.layers_over_e2e),
        );
        overheads.extend(&pool.traced_over_e2e);
    }
    report.set_sampled(
        "trace_overhead",
        stats::median(&overheads),
        stats::summarize(&overheads),
    );
    let lex_ns_per_line = rec.nanos_per("pascal.lex", "pascal.lex/lines");
    report.set("lex_ns_per_byte", rec.nanos_per("pascal.lex", "pascal.lex"));
    report.set("tokens", rec.units("pascal.lex/tokens"));
    // `parse` lexes internally; the lexer's own share comes off.
    report.set(
        "parse_ns_per_line",
        rec.nanos_per("pascal.parser", "pascal.parser") - lex_ns_per_line,
    );
    report.set(
        "build_ns_per_node",
        rec.nanos_per("pascal.agtree", "pascal.agtree"),
    );
    report.set("tree_nodes", rec.units("corpus/nodes"));
    report.set(
        "teardown_ns_per_node",
        rec.nanos_per("core.tree/drop", "core.tree/drop"),
    );
    report.set(
        "split_ns_per_node",
        rec.nanos_per("core.split", "core.split"),
    );
    report.set(
        "regions_per_tree",
        rec.units("core.split/regions") / rec.units("core.split/trees").max(1.0),
    );
    report.set(
        "static_ns_per_node",
        rec.nanos_per("core.eval.static", "core.eval.static"),
    );
    report.set("rule_evals", rec.units("core.eval.static/rules"));
    report.set(
        "dynamic_ns_per_node",
        rec.nanos_per("core.eval.dynamic", "core.eval.dynamic"),
    );
    report.set(
        "machine_build_ns_per_node",
        rec.nanos_per("core.eval.machine/build", "core.eval.machine"),
    );
    report.set(
        "machine_run_ns_per_node",
        rec.nanos_per("core.eval.machine/run", "core.eval.machine"),
    );
    report.set(
        "output_ns_per_asm_byte",
        rec.nanos_per("pascal.output", "pascal.output"),
    );
    report.set("asm_bytes", checked.asm_bytes as f64);
    report.set("assemble_ms", checked.assemble_secs * 1e3);
    report.set("encoded_bytes", checked.encoded_bytes as f64);
    report.set("vm_steps", checked.vm_steps as f64);
}
