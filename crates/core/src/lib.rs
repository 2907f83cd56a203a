//! Attribute-grammar core: the paper's primary contribution.
//!
//! This crate implements the machinery of *Parallel Attribute Grammar
//! Evaluation* (Boehm & Zwaenepoel, ICDCS 1987):
//!
//! * [`grammar`] — attribute grammars in Bochmann normal form: symbols
//!   with synthesized/inherited attributes, productions with semantic
//!   rules that are pure functions (§2.2), split annotations and priority
//!   attributes (§2.5, §4.3);
//! * [`tree`] — arena-allocated parse trees and attribute stores;
//! * [`csr`] — compressed-sparse-row adjacency backing the instance
//!   dependency graphs (one flat allocation instead of one per
//!   instance);
//! * [`analysis`] — dependency analysis: noncircularity, induced
//!   dependencies, and Kastens' *ordered* attribute-grammar construction
//!   producing per-production visit sequences (§2.3);
//! * [`eval`] — the three evaluators compared in the paper: dynamic
//!   (Figure 1), static (Figures 2–3) and the **combined** evaluator
//!   (Figure 4, §2.4);
//! * [`split`] — decomposition of the parse tree into subtrees for
//!   separate evaluation (§2.1, Figure 7);
//! * [`parallel`] — the parallel compiler runtimes: a deterministic
//!   simulated network multiprocessor (reproducing Figures 5 and 6),
//!   with string-librarian result propagation (§4.2), and a real-thread
//!   executor, whose threads share memory and so pass code as ropes;
//! * [`stats`] — instrumentation backing every measurement in §4;
//! * [`uniq`] — per-evaluator unique-identifier bases (§4.3).
//!
//! # Examples
//!
//! A tiny grammar — binary trees whose `size` is synthesized bottom-up —
//! evaluated all three ways:
//!
//! ```
//! use paragram_core::grammar::{AttrKind, GrammarBuilder};
//! use paragram_core::tree::TreeBuilder;
//! use paragram_core::eval::{dynamic_eval, static_eval};
//!
//! let mut g = GrammarBuilder::<i64>::new();
//! let t = g.nonterminal("T");
//! let size = g.synthesized(t, "size");
//! let leaf = g.production("leaf", t, []);
//! g.rule(leaf, (0, size), [], |_| 1);
//! let fork = g.production("fork", t, [t, t]);
//! g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] + a[1] + 1);
//! let grammar = std::sync::Arc::new(g.build(t).unwrap());
//!
//! let mut tb = TreeBuilder::new(&grammar);
//! let l1 = tb.leaf(leaf);
//! let l2 = tb.leaf(leaf);
//! let root = tb.node(fork, [l1, l2]);
//! let tree = tb.finish(root).unwrap();
//!
//! let (store, _) = dynamic_eval(&tree).unwrap();
//! assert_eq!(store.get(tree.root(), size), Some(&3));
//! let plans = paragram_core::analysis::compute_plans(&grammar).unwrap();
//! let (store2, _) = static_eval(&tree, &plans).unwrap();
//! assert_eq!(store2.get(tree.root(), size), Some(&3));
//! ```

pub mod analysis;
pub mod csr;
pub mod eval;
pub mod grammar;
pub mod memo;
pub mod parallel;
pub mod split;
pub mod stats;
pub mod tree;
pub mod uniq;
pub mod value;

pub use grammar::{AttrId, AttrKind, Grammar, GrammarBuilder, ProdId, SymbolId};
pub use memo::{MemoCache, MemoCounters};
pub use tree::{AttrSlots, AttrStore, NodeId, ParseTree, RegionStore, TreeBuilder};
pub use value::{AttrValue, Value};
