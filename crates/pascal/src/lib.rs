//! The Pascal-subset compiler expressed as an attribute grammar (§3 of
//! the paper), targeting the VAX-like assembly of `paragram-vax`.
//!
//! Components:
//!
//! * [`lex`] / [`parser`] / [`ast`] — the sequential front end;
//! * [`grammar`] — the compiler's attribute grammar (symbol tables,
//!   type checking, code generation as pure semantic rules), with the
//!   paper's `%split` and priority annotations;
//! * [`agtree`] — AST → attributed parse tree (the parser allocates
//!   unique-id tokens here, §4.3);
//! * [`direct`] — a conventional single-pass compiler over the same AST,
//!   standing in for the vendor compiler the paper benchmarks against;
//! * [`generator`] — seeded synthetic workloads shaped like the paper's
//!   2000-line measurement program.
//!
//! # Examples
//!
//! ```
//! use paragram_pascal::Compiler;
//!
//! let compiler = Compiler::new();
//! let out = compiler
//!     .compile("program p; var x: integer; begin x := 6 * 7; write(x) end.")
//!     .unwrap();
//! assert!(out.errors.is_empty());
//! assert_eq!(paragram_pascal::run_asm(&out.asm).unwrap(), "42");
//! ```

// Assembly text is spelled out with its `\n`s, one-instruction pieces
// like the multi-instruction ones beside them.
#![allow(clippy::write_with_newline)]

pub mod agtree;
pub mod ast;
pub mod codegen;
pub mod direct;
pub mod env;
pub mod generator;
pub mod grammar;
pub mod lex;
pub mod parser;
pub mod pval;

pub use grammar::PascalGrammar;
pub use pval::PVal;

use paragram_core::eval::{dynamic_eval, EvalError, Evaluators};
use paragram_core::stats::EvalStats;
use paragram_core::tree::{AttrStore, ParseTree, TreeError};
pub use paragram_driver::DriverConfig;
use paragram_driver::{BatchDriver, CompilationPlan};
use std::fmt;
use std::sync::Arc;

/// A compilation failure (before/outside semantic-error reporting).
#[derive(Debug)]
pub enum CompileError {
    /// Lexical or syntax error.
    Parse(parser::ParseError),
    /// Internal tree-construction error.
    Tree(TreeError),
    /// Internal evaluation error.
    Eval(EvalError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Tree(e) => write!(f, "internal: {e}"),
            CompileError::Eval(e) => write!(f, "internal: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<parser::ParseError> for CompileError {
    fn from(e: parser::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<TreeError> for CompileError {
    fn from(e: TreeError) -> Self {
        CompileError::Tree(e)
    }
}

impl From<EvalError> for CompileError {
    fn from(e: EvalError) -> Self {
        CompileError::Eval(e)
    }
}

/// Result of compiling a program.
#[derive(Debug)]
pub struct CompileOutput {
    /// Generated assembly text.
    pub asm: String,
    /// Semantic errors (the root error attribute).
    pub errors: Vec<String>,
    /// Evaluator statistics.
    pub stats: EvalStats,
}

/// The attribute-grammar compiler: grammar + analysis artifacts, built
/// once and reused across compilations (the paper's generated
/// evaluator).
pub struct Compiler {
    /// The Pascal grammar with all ids.
    pub pg: PascalGrammar,
    /// Evaluator factory (plans are precomputed here).
    pub evals: Evaluators<PVal>,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Compiler {
    /// Builds the grammar and runs the static analysis.
    pub fn new() -> Self {
        let pg = grammar::build();
        let evals = Evaluators::new(&pg.grammar);
        assert!(
            evals.plans().is_some(),
            "the Pascal grammar must be l-ordered"
        );
        Compiler { pg, evals }
    }

    /// Parses source and builds the attributed parse tree.
    ///
    /// # Errors
    ///
    /// [`CompileError::Parse`] on syntax errors.
    pub fn tree_from_source(&self, src: &str) -> Result<Arc<ParseTree<PVal>>, CompileError> {
        let ast = parser::parse(src)?;
        Ok(agtree::build_tree(&self.pg, &ast)?)
    }

    /// Extracts the root attributes from a filled store.
    pub fn output_from_store(
        &self,
        tree: &ParseTree<PVal>,
        store: &AttrStore<PVal>,
        stats: EvalStats,
    ) -> CompileOutput {
        let code = store
            .get(tree.root(), self.pg.s_code)
            .map(|v| v.code().to_string())
            .unwrap_or_default();
        let errors = store
            .get(tree.root(), self.pg.s_errs)
            .map(|v| v.as_errs().to_vec())
            .unwrap_or_default();
        CompileOutput {
            asm: code,
            errors,
            stats,
        }
    }

    /// Compiles with the sequential static (ordered) evaluator — the
    /// paper's fast sequential configuration.
    ///
    /// # Errors
    ///
    /// [`CompileError`] on syntax errors or internal failures.
    pub fn compile(&self, src: &str) -> Result<CompileOutput, CompileError> {
        let tree = self.tree_from_source(src)?;
        // Through the factory: it runs the visit programs compiled when
        // the plan was built (`new` checked the grammar is l-ordered, so
        // this is static evaluation).
        let (store, stats) = self.evals.eval_sequential(&tree)?;
        Ok(self.output_from_store(&tree, &store, stats))
    }

    /// Compiles with the sequential dynamic evaluator (Figure 1).
    ///
    /// # Errors
    ///
    /// [`CompileError`] on syntax errors or internal failures.
    pub fn compile_dynamic(&self, src: &str) -> Result<CompileOutput, CompileError> {
        let tree = self.tree_from_source(src)?;
        let (store, stats) = dynamic_eval(&tree)?;
        Ok(self.output_from_store(&tree, &store, stats))
    }

    /// A reusable batch driver over this compiler's (already computed)
    /// plan: persistent evaluator workers fed a stream of parse trees,
    /// pipelined through the pool's ticket window. Hold on to it when
    /// compiling many programs — plan construction and worker spin-up
    /// amortize across every [`BatchDriver::compile_tree`] /
    /// [`BatchDriver::compile_batch`] call.
    pub fn batch_driver(&self, config: DriverConfig) -> BatchDriver<PVal> {
        BatchDriver::new(&CompilationPlan::from_plan(self.evals.plan(), config))
    }

    /// Compiles a batch of programs through the parallel batch driver
    /// (shared plan, persistent worker pool, one ticket per program). Up
    /// to [`BatchDriver::pipeline_depth`] programs — two per worker —
    /// are kept in flight so each program's region jobs fill workers
    /// idling behind its predecessor's stragglers. Outputs are
    /// returned in input order and are identical to what
    /// [`Compiler::compile`] produces for each source.
    ///
    /// # Errors
    ///
    /// [`CompileError::Parse`] on the first syntax error (no program is
    /// evaluated until all parse), or an internal evaluation failure.
    pub fn compile_batch<'a>(
        &self,
        sources: impl IntoIterator<Item = &'a str>,
        config: DriverConfig,
    ) -> Result<Vec<CompileOutput>, CompileError> {
        let trees = sources
            .into_iter()
            .map(|s| self.tree_from_source(s))
            .collect::<Result<Vec<_>, _>>()?;
        let mut driver = self.batch_driver(config);
        // The per-program outputs a BatchError carries are of no use
        // here: a Pascal batch is all-or-nothing, so keep the error.
        let report = driver
            .compile_batch(trees.iter().cloned())
            .map_err(|e| CompileError::Eval(e.error))?;
        Ok(trees
            .iter()
            .zip(report.outputs)
            .map(|(tree, out)| self.output_from_store(tree, &out.store, out.stats))
            .collect())
    }
}

/// Assembles and runs generated assembly, returning program output.
///
/// # Errors
///
/// Returns a description of assembly or runtime failures.
pub fn run_asm(asm: &str) -> Result<String, String> {
    let program = paragram_vax::assemble(asm).map_err(|e| e.to_string())?;
    let mut vm = paragram_vax::Vm::new(&program);
    vm.run().map_err(|e| e.to_string())
}

/// Runs the peephole optimizer over assembly text.
///
/// # Errors
///
/// Returns a description of assembly-parse failures.
pub fn optimize_asm(asm: &str) -> Result<(String, paragram_vax::PeepholeStats), String> {
    let items = paragram_vax::parse_asm(asm).map_err(|e| e.to_string())?;
    let (items, stats) = paragram_vax::peephole(items);
    let mut out = String::new();
    for item in &items {
        out.push_str(&item.to_string());
        out.push('\n');
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_static(src: &str) -> String {
        let c = Compiler::new();
        let out = c.compile(src).unwrap();
        assert!(out.errors.is_empty(), "unexpected errors: {:?}", out.errors);
        run_asm(&out.asm).unwrap()
    }

    #[test]
    fn arithmetic_program() {
        let out =
            run_static("program p; var x: integer; begin x := 2 + 3 * 4 - 6 div 2; write(x) end.");
        assert_eq!(out, "11");
    }

    #[test]
    fn modulo_and_unary() {
        let out = run_static("program p; var x: integer; begin x := -(17 mod 5); write(x) end.");
        assert_eq!(out, "-2");
    }

    #[test]
    fn constants_fold_into_pushes() {
        let out =
            run_static("program p; const k = 10; var x: integer; begin x := k * k; write(x) end.");
        assert_eq!(out, "100");
    }

    #[test]
    fn booleans_and_conditionals() {
        let out = run_static(
            "program p; var b: boolean; begin b := (3 < 4) and not (2 = 3); if b then write('yes') else write('no') end.",
        );
        assert_eq!(out, "yes");
    }

    #[test]
    fn while_loop_sums() {
        let out = run_static(
            "program p; var i, s: integer; begin i := 1; s := 0; while i <= 10 do begin s := s + i; i := i + 1 end; write(s) end.",
        );
        assert_eq!(out, "55");
    }

    #[test]
    fn procedures_with_value_and_var_params() {
        let out = run_static(
            "program p; var r: integer;\nprocedure addto(x: integer; var acc: integer);\nbegin acc := acc + x end;\nbegin r := 10; addto(5, r); addto(7, r); write(r) end.",
        );
        assert_eq!(out, "22");
    }

    #[test]
    fn functions_and_recursion() {
        let out = run_static(
            "program p;\nfunction fact(n: integer): integer;\nbegin if n <= 1 then fact := 1 else fact := n * fact(n - 1) end;\nbegin write(fact(6)) end.",
        );
        assert_eq!(out, "720");
    }

    #[test]
    fn nested_procedures_use_static_links() {
        let out = run_static(
            "program p;\nvar g: integer;\nprocedure outer;\nvar t: integer;\n  procedure inner;\n  begin t := t + g end;\nbegin t := 5; inner; inner; write(t) end;\nbegin g := 3; outer end.",
        );
        assert_eq!(out, "11");
    }

    #[test]
    fn deeply_nested_static_links() {
        let out = run_static(
            "program p;\nprocedure a;\nvar x: integer;\n procedure b;\n  procedure c;\n  begin x := x * 2 end;\n begin c; c end;\nbegin x := 3; b; write(x) end;\nbegin a end.",
        );
        assert_eq!(out, "12");
    }

    #[test]
    fn arrays_store_and_load() {
        let out = run_static(
            "program p; var a: array [1..5] of integer; var i: integer;\nbegin i := 1; while i <= 5 do begin a[i] := i * i; i := i + 1 end;\nwrite(a[1] + a[2] + a[3] + a[4] + a[5]) end.",
        );
        assert_eq!(out, "55");
    }

    #[test]
    fn writeln_and_strings() {
        let out = run_static("program p; begin write('x = ', 5); writeln; writeln('done') end.");
        assert_eq!(out, "x = 5\ndone\n");
    }

    #[test]
    fn zero_arg_function_without_parens() {
        let out = run_static(
            "program p;\nfunction five: integer;\nbegin five := 5 end;\nbegin write(five + five) end.",
        );
        assert_eq!(out, "10");
    }

    #[test]
    fn semantic_errors_collected_at_root() {
        let c = Compiler::new();
        let out = c
            .compile("program p; var x: integer; begin y := 1; x := true; q(1) end.")
            .unwrap();
        assert_eq!(out.errors.len(), 3, "{:?}", out.errors);
        assert!(out.errors[0].contains("undeclared"));
        assert!(out.errors[1].contains("cannot assign"));
        assert!(out.errors[2].contains("undeclared procedure"));
    }

    #[test]
    fn type_errors_in_conditions_and_operands() {
        let c = Compiler::new();
        let out = c
            .compile("program p; var x: integer; begin if x then x := 1; x := 1 + true end.")
            .unwrap();
        assert!(out.errors.iter().any(|e| e.contains("must be boolean")));
        assert!(out.errors.iter().any(|e| e.contains("must be integer")));
    }

    #[test]
    fn var_argument_must_be_variable() {
        let c = Compiler::new();
        let out = c
            .compile("program p; var r: integer;\nprocedure q(var y: integer); begin y := 1 end;\nbegin q(r + 1) end.")
            .unwrap();
        assert!(
            out.errors.iter().any(|e| e.contains("must be a variable")),
            "{:?}",
            out.errors
        );
    }

    #[test]
    fn dynamic_evaluator_produces_identical_assembly() {
        let src = "program p;\nfunction sq(n: integer): integer;\nbegin sq := n * n end;\nvar i: integer;\nbegin i := 0; while i < 4 do begin write(sq(i)); i := i + 1 end end.";
        let c = Compiler::new();
        let a = c.compile(src).unwrap();
        let b = c.compile_dynamic(src).unwrap();
        assert_eq!(a.asm, b.asm);
        assert_eq!(a.errors, b.errors);
        assert!(a.stats.static_applied > 0 && a.stats.dynamic_applied == 0);
        assert!(b.stats.dynamic_applied > 0 && b.stats.static_applied == 0);
        assert_eq!(run_asm(&a.asm).unwrap(), "0149");
    }

    #[test]
    fn compile_batch_matches_sequential_compile() {
        let c = Compiler::new();
        let sources = [
            "program p; var x: integer; begin x := 6 * 7; write(x) end.",
            "program q;\nfunction fact(n: integer): integer;\nbegin if n <= 1 then fact := 1 else fact := n * fact(n - 1) end;\nbegin write(fact(5)) end.",
            "program r; var i, s: integer; begin i := 1; s := 0; while i <= 4 do begin s := s + i; i := i + 1 end; write(s) end.",
        ];
        let batch = c.compile_batch(sources, DriverConfig::workers(3)).unwrap();
        assert_eq!(batch.len(), sources.len());
        for (src, out) in sources.iter().zip(&batch) {
            let seq = c.compile(src).unwrap();
            assert_eq!(out.asm, seq.asm, "batch asm differs for {src:?}");
            assert_eq!(out.errors, seq.errors);
        }
        assert_eq!(run_asm(&batch[0].asm).unwrap(), "42");
        assert_eq!(run_asm(&batch[1].asm).unwrap(), "120");
        assert_eq!(run_asm(&batch[2].asm).unwrap(), "10");
    }

    #[test]
    fn compile_batch_surfaces_parse_errors_before_evaluating() {
        let c = Compiler::new();
        let err = c
            .compile_batch(
                ["program ok; begin write(1) end.", "program broken; begin"],
                DriverConfig::workers(2),
            )
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
    }

    #[test]
    fn peephole_preserves_behaviour() {
        let src = "program p; var x: integer; begin x := 0 + 5 * 1; x := x + 0; write(x) end.";
        let c = Compiler::new();
        let out = c.compile(src).unwrap();
        let before = run_asm(&out.asm).unwrap();
        let (opt, stats) = optimize_asm(&out.asm).unwrap();
        let after = run_asm(&opt).unwrap();
        assert_eq!(before, after);
        assert!(stats.removed + stats.rewritten > 0);
    }

    #[test]
    fn errors_do_not_prevent_code_extraction() {
        // Erroneous programs still produce (partial) code and a full
        // error list — the paper's root attributes are code AND errors.
        let c = Compiler::new();
        let out = c.compile("program p; begin x := 1 end.").unwrap();
        assert!(!out.errors.is_empty());
        assert!(out.asm.contains("__main"));
    }
}
