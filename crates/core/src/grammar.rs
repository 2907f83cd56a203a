//! Attribute grammars (§2.2 of the paper).
//!
//! A grammar is a set of [`Symbol`]s (terminals and nonterminals), each
//! carrying attribute declarations, and a set of [`Production`]s, each
//! carrying *semantic rules*. Semantic rules are pure functions — the
//! applicative nature of the specification is what makes parallel
//! evaluation cheap to synchronize — represented as `Arc<dyn Fn>` over the
//! argument attribute values.
//!
//! Grammars must be in Bochmann normal form: every rule defines either a
//! synthesized attribute of the left-hand side or an inherited attribute
//! of a right-hand-side occurrence, and every such attribute is defined by
//! exactly one rule per production. [`GrammarBuilder::build`] validates
//! this.
//!
//! The paper's extensions are first-class here: nonterminals may carry a
//! [`SplitSpec`] (the `%split` declaration with a minimum subtree size,
//! §2.5) and attributes may be flagged *priority* (§4.3) so that the
//! dynamic scheduler evaluates and propagates them as soon as possible.
//!
//! # The `Args` calling convention
//!
//! Semantic functions receive their arguments as [`Args<'_, V>`] — a
//! borrowed view of the argument attribute values — rather than an owned
//! `&[V]` slice. This is the paper's §4.3 "extremely fast storage
//! allocation" requirement applied to rule invocation: evaluators gather
//! argument *references* into a reusable [`ArgScratch`] buffer, so one
//! rule application performs **zero heap allocations and zero argument
//! clones**, at any tree size.
//!
//! [`Args`] implements `Index<usize, Output = V>`, so the closure style
//! used throughout (`|a| a[0].clone()`, `|a| a[0] + a[1]`,
//! `|a| PVal::errs_concat(&[&a[0], &a[1]])`) compiles unchanged.
//!
//! ## Migration notes (from the `&[V]` convention)
//!
//! * `|a| ...` closures with *inferred* parameter types need no edits —
//!   indexing, `&a[i]` borrows and method calls on `a[i]` all behave as
//!   before.
//! * Closures or functions with an *explicit* `&[V]` parameter type must
//!   either drop the annotation (and let the `rule` bound infer it) or
//!   be wrapped at the registration site so inference applies.
//! * Code that invoked a [`RuleFn`] directly with a temporary slice
//!   (`f(&[x, y])`) becomes `f(Args::from_slice(&[x, y]))`.
//! * Code that iterated the whole argument slice uses [`Args::iter`] or
//!   [`Args::len`] + indexing.

use crate::value::AttrValue;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;
use std::sync::Arc;

/// Identifies a symbol (terminal or nonterminal) within its [`Grammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

/// Identifies an attribute *of a particular symbol* (index into the
/// symbol's attribute list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// Identifies a production within its [`Grammar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProdId(pub u32);

/// Whether an attribute flows up (synthesized) or down (inherited) the
/// parse tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Computed at a node from its children (and its own inherited
    /// attributes); flows upward.
    Syn,
    /// Computed at the parent; flows downward.
    Inh,
}

/// An attribute declaration.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Attribute name (unique per symbol).
    pub name: String,
    /// Synthesized or inherited.
    pub kind: AttrKind,
    /// Priority attributes are evaluated and propagated as soon as they
    /// become ready (§4.3: the global symbol table).
    pub priority: bool,
}

/// `%split` annotation: subtrees rooted at this nonterminal may be
/// evaluated on a separate machine if they are large enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitSpec {
    /// Minimum subtree size (in tree nodes) for a split to be worthwhile;
    /// scaled at run time by the splitter configuration (the paper scales
    /// it "by a runtime argument to the parser").
    pub min_size: usize,
}

/// A grammar symbol and its attribute declarations.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// `true` for terminals (attributes are supplied by the scanner).
    pub terminal: bool,
    /// Attribute declarations; [`AttrId`] indexes this list.
    pub attrs: Vec<Attr>,
    /// Split annotation, if any.
    pub split: Option<SplitSpec>,
}

impl Symbol {
    /// Ids of all attributes of the given kind.
    pub fn attrs_of_kind(&self, kind: AttrKind) -> impl Iterator<Item = AttrId> + '_ {
        self.attrs
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.kind == kind)
            .map(|(i, _)| AttrId(i as u32))
    }
}

/// Reference to an attribute occurrence within a production: occurrence 0
/// is the left-hand side, occurrences 1..=n are the right-hand-side
/// symbols in order (the paper's `$$.x` / `$i.x` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OccRef {
    /// Occurrence index (0 = LHS).
    pub occ: usize,
    /// Attribute of the symbol at that occurrence.
    pub attr: AttrId,
}

impl From<(usize, AttrId)> for OccRef {
    fn from((occ, attr): (usize, AttrId)) -> Self {
        OccRef { occ, attr }
    }
}

/// Borrowed arguments of one semantic-rule application.
///
/// Indexing yields the argument values in the order the rule declared
/// them (`a[0]` is the first argument occurrence). The view is `Copy`
/// and only valid for the duration of the call — semantic functions are
/// pure, so nothing outlives it.
pub struct Args<'a, V> {
    repr: ArgsRepr<'a, V>,
}

enum ArgsRepr<'a, V> {
    /// Pointers gathered by an [`ArgScratch`] (the evaluators' path).
    ///
    /// Invariant: every pointer is valid for `'a` — upheld by
    /// [`Args::from_ptrs`]'s safety contract.
    Ptrs(&'a [*const V], PhantomData<&'a V>),
    /// A plain value slice (direct calls, nested semantic functions).
    Slice(&'a [V]),
}

impl<'a, V> Clone for Args<'a, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V> Copy for Args<'a, V> {}

impl<'a, V> Clone for ArgsRepr<'a, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, V> Copy for ArgsRepr<'a, V> {}

impl<'a, V> Args<'a, V> {
    /// Views a value slice as arguments (for calling a [`RuleFn`]
    /// directly, e.g. from tests or interpreters that computed owned
    /// argument values).
    pub fn from_slice(values: &'a [V]) -> Self {
        Args {
            repr: ArgsRepr::Slice(values),
        }
    }

    /// Wraps gathered pointers.
    ///
    /// # Safety
    ///
    /// Every pointer in `ptrs` must be dereferenceable and point to a
    /// live `V` for the whole lifetime `'a`.
    unsafe fn from_ptrs(ptrs: &'a [*const V]) -> Self {
        Args {
            repr: ArgsRepr::Ptrs(ptrs, PhantomData),
        }
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        match self.repr {
            ArgsRepr::Ptrs(p, _) => p.len(),
            ArgsRepr::Slice(s) => s.len(),
        }
    }

    /// `true` for nullary rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th argument, if present.
    pub fn get(&self, i: usize) -> Option<&'a V> {
        match self.repr {
            // SAFETY: pointers are valid for 'a per the from_ptrs
            // contract.
            ArgsRepr::Ptrs(p, _) => p.get(i).map(|&p| unsafe { &*p }),
            ArgsRepr::Slice(s) => s.get(i),
        }
    }

    /// Iterates over the argument values.
    pub fn iter(self) -> impl Iterator<Item = &'a V> {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }
}

impl<V> Index<usize> for Args<'_, V> {
    type Output = V;

    fn index(&self, i: usize) -> &V {
        match self.repr {
            // SAFETY: pointers are valid for 'a per the from_ptrs
            // contract (the returned borrow is further shortened to
            // &self here, which 'a outlives).
            ArgsRepr::Ptrs(p, _) => unsafe { &*p[i] },
            ArgsRepr::Slice(s) => &s[i],
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for Args<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        for i in 0..self.len() {
            list.entry(&self[i]);
        }
        list.finish()
    }
}

/// A reusable argument-gathering buffer: the zero-allocation bridge
/// between an attribute store and a [`RuleFn`].
///
/// Each evaluator owns one scratch and reuses its capacity across every
/// rule application, so argument passing allocates only until the
/// largest rule arity has been seen once.
pub struct ArgScratch<V> {
    ptrs: Vec<*const V>,
}

// SAFETY: the pointer buffer is logically empty between `apply` calls
// (cleared before the arguments could dangle); a scratch moved across
// threads carries no live borrows.
unsafe impl<V: Send> Send for ArgScratch<V> {}
// SAFETY: as above; `&ArgScratch` exposes no pointer reads.
unsafe impl<V: Sync> Sync for ArgScratch<V> {}

impl<V> Default for ArgScratch<V> {
    fn default() -> Self {
        ArgScratch { ptrs: Vec::new() }
    }
}

impl<V> ArgScratch<V> {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `rule`, resolving each argument occurrence through `get`.
    ///
    /// The resolved references only need to live for this call; the
    /// borrow of whatever backs them ends when `apply` returns, so the
    /// caller may mutate the attribute store immediately afterwards.
    pub fn apply<'t>(&mut self, rule: &Rule<V>, mut get: impl FnMut(OccRef) -> &'t V) -> V
    where
        V: 't,
    {
        self.ptrs.clear();
        for &a in &rule.args {
            let v: &'t V = get(a);
            self.ptrs.push(v as *const V);
        }
        // SAFETY: the pointers were just derived from `&'t V` borrows,
        // which outlive this call; `Args` does not escape `rule.func`
        // (semantic functions return owned values).
        let value = (rule.func)(unsafe { Args::from_ptrs(&self.ptrs) });
        self.ptrs.clear();
        value
    }

    /// Fallible variant of [`ArgScratch::apply`]: stops at the first
    /// argument `get` cannot resolve.
    ///
    /// # Errors
    ///
    /// Returns `get`'s error for the first unresolvable occurrence.
    pub fn try_apply<'t, E>(
        &mut self,
        rule: &Rule<V>,
        mut get: impl FnMut(OccRef) -> Result<&'t V, E>,
    ) -> Result<V, E>
    where
        V: 't,
    {
        self.ptrs.clear();
        for &a in &rule.args {
            match get(a) {
                Ok(v) => {
                    let v: &'t V = v;
                    self.ptrs.push(v as *const V);
                }
                Err(e) => {
                    self.ptrs.clear();
                    return Err(e);
                }
            }
        }
        // SAFETY: as in `apply`.
        let value = (rule.func)(unsafe { Args::from_ptrs(&self.ptrs) });
        self.ptrs.clear();
        Ok(value)
    }

    /// Gathers `count` argument references through `resolve` and hands
    /// them to `call` as a borrowed [`Args`] view — the compiled-program
    /// counterpart of [`ArgScratch::try_apply`], where the operand list
    /// lives in the program rather than on a [`Rule`].
    ///
    /// # Errors
    ///
    /// Returns `resolve`'s error for the first unresolvable operand.
    pub(crate) fn try_call_gathered<'t, E>(
        &mut self,
        count: usize,
        mut resolve: impl FnMut(usize) -> Result<&'t V, E>,
        call: impl FnOnce(Args<'_, V>) -> V,
    ) -> Result<V, E>
    where
        V: 't,
    {
        self.ptrs.clear();
        for i in 0..count {
            match resolve(i) {
                Ok(v) => self.ptrs.push(v as *const V),
                Err(e) => {
                    self.ptrs.clear();
                    return Err(e);
                }
            }
        }
        // SAFETY: as in `apply` — the pointers come from `&'t V` borrows
        // outliving this call, and `Args` does not escape `call`.
        let value = call(unsafe { Args::from_ptrs(&self.ptrs) });
        self.ptrs.clear();
        Ok(value)
    }
}

impl<V> fmt::Debug for ArgScratch<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArgScratch(capacity {})", self.ptrs.capacity())
    }
}

/// A semantic function: pure mapping from argument values to the target
/// value.
pub type RuleFn<V> = Arc<dyn for<'a> Fn(Args<'a, V>) -> V + Send + Sync>;

/// A *nameable* semantic function: a plain `fn` pointer with no captured
/// environment.
///
/// Rules registered with one (via [`GrammarBuilder::rule_direct`] /
/// [`GrammarBuilder::rule_with_cost_direct`]) form the grammar's
/// direct-call table: the compiled visit programs
/// ([`crate::eval::VisitPrograms`]) call them without the
/// `Arc<dyn Fn>` double indirection of [`RuleFn`].
pub type DirectFn<V> = fn(Args<'_, V>) -> V;

/// A semantic rule: `target = func(args...)`.
#[derive(Clone)]
pub struct Rule<V> {
    /// The attribute occurrence being defined.
    pub target: OccRef,
    /// Argument occurrences, in the order `func` receives them.
    pub args: Vec<OccRef>,
    /// The semantic function.
    pub func: RuleFn<V>,
    /// The same function as a plain `fn` pointer, when the registering
    /// layer could name one (the direct-call table entry; `None` means
    /// evaluators must go through the boxed `func`).
    pub direct: Option<DirectFn<V>>,
    /// Abstract CPU cost of one application (used by the simulator's cost
    /// model; 1 = a trivial copy/arithmetic rule).
    pub cost: u64,
}

impl<V> fmt::Debug for Rule<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rule {{ target: {:?}, args: {:?}, cost: {} }}",
            self.target, self.args, self.cost
        )
    }
}

/// A context-free production with its semantic rules.
#[derive(Debug, Clone)]
pub struct Production<V> {
    /// Production name (for diagnostics and plan dumps).
    pub name: String,
    /// Left-hand-side nonterminal.
    pub lhs: SymbolId,
    /// Right-hand-side symbols (terminals and nonterminals).
    pub rhs: Vec<SymbolId>,
    /// Semantic rules, one per defined attribute occurrence.
    pub rules: Vec<Rule<V>>,
}

impl<V> Production<V> {
    /// Symbol at an occurrence (0 = LHS).
    pub fn occ_symbol(&self, occ: usize) -> SymbolId {
        if occ == 0 {
            self.lhs
        } else {
            self.rhs[occ - 1]
        }
    }

    /// Number of occurrences including the LHS.
    pub fn occ_count(&self) -> usize {
        self.rhs.len() + 1
    }
}

/// A validated attribute grammar.
#[derive(Debug)]
pub struct Grammar<V> {
    symbols: Vec<Symbol>,
    prods: Vec<Production<V>>,
    prods_of: Vec<Vec<ProdId>>,
    start: SymbolId,
}

impl<V: AttrValue> Grammar<V> {
    /// The start symbol.
    pub fn start(&self) -> SymbolId {
        self.start
    }

    /// Symbol metadata.
    pub fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// All symbols in declaration order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Production metadata.
    pub fn prod(&self, id: ProdId) -> &Production<V> {
        &self.prods[id.0 as usize]
    }

    /// All productions in declaration order.
    pub fn prods(&self) -> &[Production<V>] {
        &self.prods
    }

    /// Productions whose LHS is `sym`.
    pub fn prods_of(&self, sym: SymbolId) -> &[ProdId] {
        &self.prods_of[sym.0 as usize]
    }

    /// Number of attributes of a symbol.
    pub fn attr_count(&self, sym: SymbolId) -> usize {
        self.symbols[sym.0 as usize].attrs.len()
    }

    /// Looks up a symbol by name.
    pub fn symbol_named(&self, name: &str) -> Option<SymbolId> {
        self.symbols
            .iter()
            .position(|s| s.name == name)
            .map(|i| SymbolId(i as u32))
    }

    /// Total number of semantic rules (the paper reports this for its
    /// Pascal grammar).
    pub fn rule_count(&self) -> usize {
        self.prods.iter().map(|p| p.rules.len()).sum()
    }
}

/// Errors detected by [`GrammarBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// A rule's target is not a synthesized attribute of the LHS or an
    /// inherited attribute of an RHS occurrence.
    BadRuleTarget {
        /// Production name.
        prod: String,
        /// Offending target.
        target: String,
    },
    /// Two rules define the same attribute occurrence.
    DuplicateRule {
        /// Production name.
        prod: String,
        /// Attribute occurrence defined twice.
        target: String,
    },
    /// An attribute occurrence that must be defined has no rule.
    MissingRule {
        /// Production name.
        prod: String,
        /// Undefined attribute occurrence.
        target: String,
    },
    /// A rule argument occurrence is out of range or refers to an unknown
    /// attribute.
    BadRuleArg {
        /// Production name.
        prod: String,
        /// Offending argument.
        arg: String,
    },
    /// Terminals cannot have inherited attributes.
    TerminalInherited {
        /// Terminal symbol name.
        symbol: String,
        /// Attribute name.
        attr: String,
    },
    /// The start symbol must not have inherited attributes.
    StartHasInherited {
        /// Attribute name.
        attr: String,
    },
    /// The start symbol is a terminal.
    StartIsTerminal,
    /// A production's LHS is a terminal.
    TerminalLhs {
        /// Production name.
        prod: String,
    },
    /// A nonterminal is used on an RHS but has no productions.
    NoProductions {
        /// Symbol name.
        symbol: String,
    },
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::BadRuleTarget { prod, target } => {
                write!(f, "production {prod:?}: rule target {target} must be a synthesized attribute of the LHS or an inherited attribute of an RHS occurrence")
            }
            GrammarError::DuplicateRule { prod, target } => {
                write!(
                    f,
                    "production {prod:?}: {target} is defined by more than one rule"
                )
            }
            GrammarError::MissingRule { prod, target } => {
                write!(f, "production {prod:?}: no rule defines {target}")
            }
            GrammarError::BadRuleArg { prod, arg } => {
                write!(f, "production {prod:?}: rule argument {arg} is invalid")
            }
            GrammarError::TerminalInherited { symbol, attr } => {
                write!(
                    f,
                    "terminal {symbol:?} cannot have inherited attribute {attr:?}"
                )
            }
            GrammarError::StartHasInherited { attr } => {
                write!(f, "start symbol cannot have inherited attribute {attr:?}")
            }
            GrammarError::StartIsTerminal => write!(f, "start symbol must be a nonterminal"),
            GrammarError::TerminalLhs { prod } => {
                write!(f, "production {prod:?}: left-hand side is a terminal")
            }
            GrammarError::NoProductions { symbol } => {
                write!(f, "nonterminal {symbol:?} has no productions")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// Incrementally assembles and validates a [`Grammar`].
pub struct GrammarBuilder<V> {
    symbols: Vec<Symbol>,
    prods: Vec<Production<V>>,
}

impl<V: AttrValue> Default for GrammarBuilder<V> {
    fn default() -> Self {
        GrammarBuilder {
            symbols: Vec::new(),
            prods: Vec::new(),
        }
    }
}

impl<V: AttrValue> GrammarBuilder<V> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a nonterminal.
    pub fn nonterminal(&mut self, name: impl Into<String>) -> SymbolId {
        self.symbols.push(Symbol {
            name: name.into(),
            terminal: false,
            attrs: Vec::new(),
            split: None,
        });
        SymbolId(self.symbols.len() as u32 - 1)
    }

    /// Declares a terminal. Terminal attributes (added with
    /// [`GrammarBuilder::synthesized`]) are supplied by the scanner.
    pub fn terminal(&mut self, name: impl Into<String>) -> SymbolId {
        self.symbols.push(Symbol {
            name: name.into(),
            terminal: true,
            attrs: Vec::new(),
            split: None,
        });
        SymbolId(self.symbols.len() as u32 - 1)
    }

    /// Declares a synthesized attribute on `sym`.
    pub fn synthesized(&mut self, sym: SymbolId, name: impl Into<String>) -> AttrId {
        self.add_attr(sym, name.into(), AttrKind::Syn)
    }

    /// Declares an inherited attribute on `sym`.
    pub fn inherited(&mut self, sym: SymbolId, name: impl Into<String>) -> AttrId {
        self.add_attr(sym, name.into(), AttrKind::Inh)
    }

    fn add_attr(&mut self, sym: SymbolId, name: String, kind: AttrKind) -> AttrId {
        let s = &mut self.symbols[sym.0 as usize];
        s.attrs.push(Attr {
            name,
            kind,
            priority: false,
        });
        AttrId(s.attrs.len() as u32 - 1)
    }

    /// Marks an attribute as a priority attribute (§4.3).
    pub fn mark_priority(&mut self, sym: SymbolId, attr: AttrId) {
        self.symbols[sym.0 as usize].attrs[attr.0 as usize].priority = true;
    }

    /// Marks `sym` as a split point with the given minimum subtree size
    /// (`%split`, §2.5).
    pub fn mark_split(&mut self, sym: SymbolId, min_size: usize) {
        self.symbols[sym.0 as usize].split = Some(SplitSpec { min_size });
    }

    /// Adds a production `lhs -> rhs...` and returns its id.
    pub fn production(
        &mut self,
        name: impl Into<String>,
        lhs: SymbolId,
        rhs: impl IntoIterator<Item = SymbolId>,
    ) -> ProdId {
        self.prods.push(Production {
            name: name.into(),
            lhs,
            rhs: rhs.into_iter().collect(),
            rules: Vec::new(),
        });
        ProdId(self.prods.len() as u32 - 1)
    }

    /// Adds a semantic rule `target = func(args...)` with unit cost.
    pub fn rule(
        &mut self,
        prod: ProdId,
        target: impl Into<OccRef>,
        args: impl IntoIterator<Item = (usize, AttrId)>,
        func: impl for<'a> Fn(Args<'a, V>) -> V + Send + Sync + 'static,
    ) {
        self.rule_with_cost(prod, target, args, func, 1);
    }

    /// Adds a semantic rule with an explicit abstract cost (virtual CPU
    /// units consumed per application in the simulator).
    pub fn rule_with_cost(
        &mut self,
        prod: ProdId,
        target: impl Into<OccRef>,
        args: impl IntoIterator<Item = (usize, AttrId)>,
        func: impl for<'a> Fn(Args<'a, V>) -> V + Send + Sync + 'static,
        cost: u64,
    ) {
        self.prods[prod.0 as usize].rules.push(Rule {
            target: target.into(),
            args: args.into_iter().map(OccRef::from).collect(),
            func: Arc::new(func),
            direct: None,
            cost,
        });
    }

    /// Adds a semantic rule whose function is a plain `fn` pointer, with
    /// unit cost.
    ///
    /// Such rules enter the grammar's direct-call table: compiled visit
    /// programs dispatch to them without boxed-closure indirection.
    /// Non-capturing closure literals coerce, so most call sites read
    /// exactly like [`GrammarBuilder::rule`].
    pub fn rule_direct(
        &mut self,
        prod: ProdId,
        target: impl Into<OccRef>,
        args: impl IntoIterator<Item = (usize, AttrId)>,
        func: DirectFn<V>,
    ) {
        self.rule_with_cost_direct(prod, target, args, func, 1);
    }

    /// Adds a direct-call rule with an explicit abstract cost.
    pub fn rule_with_cost_direct(
        &mut self,
        prod: ProdId,
        target: impl Into<OccRef>,
        args: impl IntoIterator<Item = (usize, AttrId)>,
        func: DirectFn<V>,
        cost: u64,
    ) {
        self.prods[prod.0 as usize].rules.push(Rule {
            target: target.into(),
            args: args.into_iter().map(OccRef::from).collect(),
            func: Arc::new(func),
            direct: Some(func),
            cost,
        });
    }

    /// Convenience: a copy rule `target = source` (very common in real
    /// grammars — e.g. threading the symbol table through expressions).
    /// Copy rules are always direct-callable.
    pub fn copy_rule(
        &mut self,
        prod: ProdId,
        target: impl Into<OccRef>,
        source: impl Into<OccRef>,
    ) {
        let src: OccRef = source.into();
        self.rule_direct(prod, target, [(src.occ, src.attr)], |args| args[0].clone());
    }

    /// Validates and freezes the grammar.
    ///
    /// # Errors
    ///
    /// Returns the first [`GrammarError`] found: normal-form violations,
    /// duplicate or missing rules, terminals with inherited attributes, a
    /// start symbol with inherited attributes, or unproductive
    /// nonterminals.
    pub fn build(self, start: SymbolId) -> Result<Grammar<V>, GrammarError> {
        let GrammarBuilder { symbols, prods } = self;

        // Terminals cannot have inherited attributes.
        for s in &symbols {
            if s.terminal {
                if let Some(a) = s.attrs.iter().find(|a| a.kind == AttrKind::Inh) {
                    return Err(GrammarError::TerminalInherited {
                        symbol: s.name.clone(),
                        attr: a.name.clone(),
                    });
                }
            }
        }

        let start_sym = &symbols[start.0 as usize];
        if start_sym.terminal {
            return Err(GrammarError::StartIsTerminal);
        }
        if let Some(a) = start_sym.attrs.iter().find(|a| a.kind == AttrKind::Inh) {
            return Err(GrammarError::StartHasInherited {
                attr: a.name.clone(),
            });
        }

        let occ_name = |p: &Production<V>, o: OccRef| {
            let sym = &symbols[p.occ_symbol(o.occ).0 as usize];
            let attr = sym
                .attrs
                .get(o.attr.0 as usize)
                .map_or("<bad attr>", |a| a.name.as_str());
            format!("${}.{}", o.occ, attr)
        };

        for p in &prods {
            if symbols[p.lhs.0 as usize].terminal {
                return Err(GrammarError::TerminalLhs {
                    prod: p.name.clone(),
                });
            }
            // Validate rule targets and arguments.
            let mut defined: Vec<OccRef> = Vec::new();
            for r in &p.rules {
                let t = r.target;
                if t.occ >= p.occ_count() {
                    return Err(GrammarError::BadRuleTarget {
                        prod: p.name.clone(),
                        target: format!("${}.<out of range>", t.occ),
                    });
                }
                let tsym = &symbols[p.occ_symbol(t.occ).0 as usize];
                let Some(attr) = tsym.attrs.get(t.attr.0 as usize) else {
                    return Err(GrammarError::BadRuleTarget {
                        prod: p.name.clone(),
                        target: occ_name(p, t),
                    });
                };
                let ok = if t.occ == 0 {
                    attr.kind == AttrKind::Syn
                } else {
                    attr.kind == AttrKind::Inh && !tsym.terminal
                };
                if !ok {
                    return Err(GrammarError::BadRuleTarget {
                        prod: p.name.clone(),
                        target: occ_name(p, t),
                    });
                }
                if defined.contains(&t) {
                    return Err(GrammarError::DuplicateRule {
                        prod: p.name.clone(),
                        target: occ_name(p, t),
                    });
                }
                defined.push(t);
                for a in &r.args {
                    if a.occ >= p.occ_count() {
                        return Err(GrammarError::BadRuleArg {
                            prod: p.name.clone(),
                            arg: format!("${}.<out of range>", a.occ),
                        });
                    }
                    let asym = &symbols[p.occ_symbol(a.occ).0 as usize];
                    if asym.attrs.get(a.attr.0 as usize).is_none() {
                        return Err(GrammarError::BadRuleArg {
                            prod: p.name.clone(),
                            arg: occ_name(p, *a),
                        });
                    }
                }
            }
            // Completeness: every syn attr of LHS and every inh attr of
            // each nonterminal RHS occurrence must be defined.
            let lhs_sym = &symbols[p.lhs.0 as usize];
            for (i, a) in lhs_sym.attrs.iter().enumerate() {
                if a.kind == AttrKind::Syn {
                    let t = OccRef {
                        occ: 0,
                        attr: AttrId(i as u32),
                    };
                    if !defined.contains(&t) {
                        return Err(GrammarError::MissingRule {
                            prod: p.name.clone(),
                            target: occ_name(p, t),
                        });
                    }
                }
            }
            for (occ, sym_id) in p.rhs.iter().enumerate() {
                let sym = &symbols[sym_id.0 as usize];
                if sym.terminal {
                    continue;
                }
                for (i, a) in sym.attrs.iter().enumerate() {
                    if a.kind == AttrKind::Inh {
                        let t = OccRef {
                            occ: occ + 1,
                            attr: AttrId(i as u32),
                        };
                        if !defined.contains(&t) {
                            return Err(GrammarError::MissingRule {
                                prod: p.name.clone(),
                                target: occ_name(p, t),
                            });
                        }
                    }
                }
            }
        }

        // Every nonterminal reachable on an RHS must have productions.
        let mut has_prods = vec![false; symbols.len()];
        for p in &prods {
            has_prods[p.lhs.0 as usize] = true;
        }
        for p in &prods {
            for s in &p.rhs {
                let sym = &symbols[s.0 as usize];
                if !sym.terminal && !has_prods[s.0 as usize] {
                    return Err(GrammarError::NoProductions {
                        symbol: sym.name.clone(),
                    });
                }
            }
        }
        if !has_prods[start.0 as usize] {
            return Err(GrammarError::NoProductions {
                symbol: symbols[start.0 as usize].name.clone(),
            });
        }

        let mut prods_of = vec![Vec::new(); symbols.len()];
        for (i, p) in prods.iter().enumerate() {
            prods_of[p.lhs.0 as usize].push(ProdId(i as u32));
        }

        Ok(Grammar {
            symbols,
            prods,
            prods_of,
            start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GrammarBuilder<i64> {
        GrammarBuilder::new()
    }

    #[test]
    fn build_simple_grammar() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let fork = g.production("fork", t, [t, t]);
        g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] + a[1] + 1);
        let grammar = g.build(t).unwrap();
        assert_eq!(grammar.prods().len(), 2);
        assert_eq!(grammar.rule_count(), 2);
        assert_eq!(grammar.symbol_named("T"), Some(t));
        assert_eq!(grammar.prods_of(t).len(), 2);
        assert_eq!(grammar.attr_count(t), 1);
    }

    #[test]
    fn missing_rule_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let _size = g.synthesized(t, "size");
        g.production("leaf", t, []);
        match g.build(t) {
            Err(GrammarError::MissingRule { prod, target }) => {
                assert_eq!(prod, "leaf");
                assert_eq!(target, "$0.size");
            }
            other => panic!("expected MissingRule, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_rule_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        g.rule(leaf, (0, size), [], |_| 2);
        assert!(matches!(
            g.build(t),
            Err(GrammarError::DuplicateRule { .. })
        ));
    }

    #[test]
    fn rule_defining_syn_of_child_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let wrap = g.production("wrap", t, [t]);
        g.rule(wrap, (0, size), [(1, size)], |a| a[0]);
        g.rule(wrap, (1, size), [], |_| 0); // illegal: syn of child
        assert!(matches!(
            g.build(t),
            Err(GrammarError::BadRuleTarget { .. })
        ));
    }

    #[test]
    fn inherited_on_start_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let _env = g.inherited(t, "env");
        let leaf = g.production("leaf", t, []);
        let _ = leaf;
        assert!(matches!(
            g.build(t),
            Err(GrammarError::StartHasInherited { .. })
        ));
    }

    #[test]
    fn terminal_with_inherited_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let num = g.terminal("num");
        // Force an inherited attr onto a terminal through the internal
        // path: inherited() is symbol-agnostic.
        let _bad = g.inherited(num, "down");
        let leaf = g.production("leaf", t, [num]);
        let _ = leaf;
        assert!(matches!(
            g.build(t),
            Err(GrammarError::TerminalInherited { .. })
        ));
    }

    #[test]
    fn unproductive_nonterminal_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let ghost = g.nonterminal("Ghost");
        let p = g.production("use-ghost", t, [ghost]);
        let _ = p;
        assert!(matches!(
            g.build(t),
            Err(GrammarError::NoProductions { symbol }) if symbol == "Ghost"
        ));
    }

    #[test]
    fn bad_arg_is_rejected() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [(3, size)], |_| 1); // occ 3 out of range
        assert!(matches!(g.build(t), Err(GrammarError::BadRuleArg { .. })));
    }

    #[test]
    fn split_and_priority_markers_stick() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        g.mark_priority(t, size);
        g.mark_split(t, 100);
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let grammar = g.build(t).unwrap();
        assert!(grammar.symbol(t).attrs[0].priority);
        assert_eq!(grammar.symbol(t).split, Some(SplitSpec { min_size: 100 }));
    }

    #[test]
    fn args_index_len_get_and_iter() {
        let vals = [10i64, 20, 30];
        let a = Args::from_slice(&vals);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a[0] + a[2], 40);
        assert_eq!(a.get(1), Some(&20));
        assert_eq!(a.get(3), None);
        assert_eq!(a.iter().copied().sum::<i64>(), 60);
        assert_eq!(format!("{a:?}"), "[10, 20, 30]");
    }

    #[test]
    fn arg_scratch_gathers_without_cloning_values() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let fork = g.production("fork", t, [t, t]);
        g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] + a[1]);
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let gr = g.build(t).unwrap();

        let rule = &gr.prod(fork).rules[0];
        let store = [7i64, 35];
        let mut scratch = ArgScratch::new();
        let v = scratch.apply(rule, |occ| &store[occ.occ - 1]);
        assert_eq!(v, 42);
        // Reuse across applications (capacity persists, contents don't).
        let v = scratch.apply(rule, |occ| &store[2 - occ.occ]);
        assert_eq!(v, 42);

        let err: Result<i64, &str> = scratch.try_apply(rule, |occ| {
            if occ.occ == 1 {
                Ok(&store[0])
            } else {
                Err("missing")
            }
        });
        assert_eq!(err, Err("missing"));
        let ok: Result<i64, &str> = scratch.try_apply(rule, |occ| Ok(&store[occ.occ - 1]));
        assert_eq!(ok, Ok(42));
    }

    #[test]
    fn rule_fn_direct_call_via_from_slice() {
        let mut g = tiny();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let fork = g.production("fork", t, [t, t]);
        g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] * a[1]);
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let gr = g.build(t).unwrap();
        let f = Arc::clone(&gr.prod(fork).rules[0].func);
        assert_eq!(f(Args::from_slice(&[6, 7])), 42);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = GrammarError::MissingRule {
            prod: "assign".into(),
            target: "$1.env".into(),
        };
        assert!(e.to_string().contains("assign"));
        assert!(e.to_string().contains("$1.env"));
    }
}
