//! # paragram — Parallel Attribute Grammar Evaluation
//!
//! A from-scratch Rust reproduction of *Parallel Attribute Grammar
//! Evaluation* (Hans-Juergen Boehm and Willy Zwaenepoel, ICDCS 1987).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — attribute-grammar model, dependency analysis, Kastens OAG
//!   visit sequences, and the dynamic / static / **combined** evaluators,
//!   plus the parallel runtimes (simulated network multiprocessor and real
//!   threads).
//! * [`driver`] — batched compilation: shared immutable compilation
//!   plans and a persistent worker pool over streams of parse trees.
//! * [`rope`] — persistent rope strings with O(1) concatenation: a rope
//!   carries text, and the string librarian is the simulator's
//!   accounting of it.
//! * [`symtab`] — applicative binary-search-tree symbol tables.
//! * [`netsim`] — the deterministic discrete-event "network of
//!   workstations" simulator.
//! * [`parsegen`] — SLR(1) parser-table generator (the YACC substitute).
//! * [`spec`] — the evaluator generator's attribute-grammar specification
//!   language (the appendix syntax).
//! * [`vax`] — VAX-like assembly, assembler, peephole optimizer and VM.
//! * [`pascal`] — the Pascal-subset compiler expressed as an attribute
//!   grammar, with a direct (non-AG) baseline compiler and a workload
//!   generator.
//!
//! Each member's crate docs are its tour (start at [`core`] for the
//! evaluators and [`driver`] for the batched pipeline); `ROADMAP.md` at
//! the repository root holds the system's current state, the measured
//! numbers against the paper's, and what is open.
//!
//! # Examples
//!
//! Evaluate the paper's appendix expression grammar:
//!
//! ```
//! use paragram::spec::{builtins, SpecLang};
//!
//! let lang = SpecLang::expression_language();
//! let value = lang.eval_str("let x = 2 in 1 + 3 * x ni").unwrap();
//! assert_eq!(value.as_int(), Some(7));
//! ```

pub use paragram_core as core;
pub use paragram_driver as driver;
pub use paragram_netsim as netsim;
pub use paragram_parsegen as parsegen;
pub use paragram_pascal as pascal;
pub use paragram_rope as rope;
pub use paragram_spec as spec;
pub use paragram_symtab as symtab;
pub use paragram_vax as vax;
