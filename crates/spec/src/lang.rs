//! Binding a parsed specification into a runnable language: grammar,
//! SLR parser, input scanner and evaluators.

use crate::parse_spec::{parse_spec, Assoc, RuleExpr, SpecAst, SpecError, SpecSym};
use crate::registry::{builtins, FnRegistry, SemFn};
use paragram_core::eval::{EvalError, Evaluators};
use paragram_core::grammar::{Args, AttrId, AttrKind, Grammar, GrammarBuilder, ProdId, SymbolId};
use paragram_core::tree::{ChildSpec, ParseTree, TreeBuilder, TreeError};
use paragram_core::value::Value;
use paragram_parsegen as pg;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How input tokens map to a terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermKind {
    /// `%name` terminal: carries a scanner value.
    Name,
    /// `%keyword` terminal: matched as a lowercase word.
    Keyword,
    /// Quoted literal terminal.
    Lit,
}

/// A language generated from an attribute-grammar specification: the
/// output of the paper's compiler generator (§2.5).
pub struct SpecLang {
    grammar: Arc<Grammar<Value>>,
    evals: Evaluators<Value>,
    table: pg::Table,
    term_kinds: Vec<TermKind>,
    term_names: Vec<String>,
    keywords: HashMap<String, pg::Term>,
    literals: Vec<(String, pg::Term)>,
    ident_term: Option<pg::Term>,
    number_term: Option<pg::Term>,
    prod_map: Vec<ProdId>,
    start_fn: String,
}

/// Errors from evaluating an input string.
#[derive(Debug)]
pub enum EvalStrError {
    /// Input scanner error.
    Lex(String),
    /// Input syntax error.
    Parse(pg::ParseError),
    /// Internal tree error.
    Tree(TreeError),
    /// Internal evaluation error.
    Eval(EvalError),
}

impl fmt::Display for EvalStrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalStrError::Lex(m) => write!(f, "lexical error: {m}"),
            EvalStrError::Parse(e) => write!(f, "{e}"),
            EvalStrError::Tree(e) => write!(f, "internal: {e}"),
            EvalStrError::Eval(e) => write!(f, "internal: {e}"),
        }
    }
}

impl std::error::Error for EvalStrError {}

/// Compiled rule-expression evaluator.
enum Compiled {
    Arg(usize),
    /// The common shape `f($i.a, $j.b, ...)` with the arguments exactly
    /// in rule-argument order: the gathered [`Args`] view is forwarded
    /// straight to the semantic function — no allocation, no clones.
    Direct(SemFn),
    /// [`Compiled::Direct`] where the registry could also name the
    /// function as a plain `fn` pointer: the rule is registered through
    /// the grammar's direct-call table, so compiled visit programs skip
    /// the boxed closure entirely.
    DirectFn(crate::registry::DirectSemFn),
    Call(SemFn, Vec<Compiled>),
}

impl Compiled {
    fn eval(&self, args: Args<'_, Value>) -> Value {
        match self {
            Compiled::Arg(i) => args[*i].clone(),
            Compiled::Direct(f) => f(args),
            Compiled::DirectFn(f) => f(args),
            Compiled::Call(f, sub) => {
                // Nested calls produce owned intermediate values; those
                // are genuine data, not argument-passing overhead.
                let vals: Vec<Value> = sub.iter().map(|c| c.eval(args)).collect();
                f(Args::from_slice(&vals))
            }
        }
    }
}

fn compile_expr(
    expr: &RuleExpr,
    refs: &[(usize, String)],
    registry: &FnRegistry,
    line_err: &mut impl FnMut(String) -> SpecError,
) -> Result<Compiled, SpecError> {
    match expr {
        RuleExpr::Attr { occ, attr } => {
            let idx = refs
                .iter()
                .position(|(o, a)| o == occ && a == attr)
                .expect("ref list covers all refs");
            Ok(Compiled::Arg(idx))
        }
        RuleExpr::Call { func, args } => {
            let f = registry
                .get(func)
                .ok_or_else(|| line_err(format!("unknown semantic function {func:?}")))?
                .clone();
            let sub = args
                .iter()
                .map(|a| compile_expr(a, refs, registry, line_err))
                .collect::<Result<Vec<_>, _>>()?;
            // `refs` lists attribute references in first-occurrence
            // order, so a call whose arguments are plain references in
            // identity order can take the direct path.
            let identity = sub
                .iter()
                .enumerate()
                .all(|(i, c)| matches!(c, Compiled::Arg(j) if *j == i))
                && sub.len() == refs.len();
            if identity {
                // Prefer the registry's direct-call table entry so the
                // rule devirtualizes in compiled visit programs.
                match registry.get_direct(func) {
                    Some(fp) => Ok(Compiled::DirectFn(fp)),
                    None => Ok(Compiled::Direct(f)),
                }
            } else {
                Ok(Compiled::Call(f, sub))
            }
        }
    }
}

impl SpecLang {
    /// Builds a language from specification source and a semantic
    /// function registry.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for undeclared symbols/attributes, unknown semantic
    /// functions, normal-form violations, or parser-construction
    /// conflicts.
    pub fn from_spec(src: &str, registry: &FnRegistry) -> Result<SpecLang, SpecError> {
        let ast = parse_spec(src)?;
        Self::from_ast(&ast, registry)
    }

    /// Builds a language from a parsed specification.
    ///
    /// # Errors
    ///
    /// See [`SpecLang::from_spec`].
    pub fn from_ast(ast: &SpecAst, registry: &FnRegistry) -> Result<SpecLang, SpecError> {
        let mut err = |msg: String| SpecError { line: 0, msg };

        let mut g = GrammarBuilder::<Value>::new();
        let mut cfg = pg::CfgBuilder::new();
        let mut sym_ids: HashMap<String, SymbolId> = HashMap::new();
        let mut gsyms: HashMap<String, pg::GSym> = HashMap::new();

        let mut term_kinds = Vec::new();
        let mut term_names = Vec::new();
        let mut keywords = HashMap::new();
        let mut literals: Vec<(String, pg::Term)> = Vec::new();
        let mut ident_term = None;
        let mut number_term = None;

        // %name terminals (with the scanner-computed attribute).
        for name in &ast.name_terminals {
            let sid = g.terminal(name);
            g.synthesized(sid, "string");
            let t = cfg.terminal(name);
            sym_ids.insert(name.clone(), sid);
            gsyms.insert(name.clone(), pg::GSym::T(t));
            term_kinds.push(TermKind::Name);
            term_names.push(name.clone());
            if name == "IDENTIFIER" {
                ident_term = Some(t);
            }
            if name == "NUMBER" {
                number_term = Some(t);
            }
        }
        // %keyword terminals.
        for name in &ast.keywords {
            let sid = g.terminal(name);
            let t = cfg.terminal(name);
            sym_ids.insert(name.clone(), sid);
            gsyms.insert(name.clone(), pg::GSym::T(t));
            term_kinds.push(TermKind::Keyword);
            term_names.push(name.clone());
            keywords.insert(name.to_ascii_lowercase(), t);
        }
        // Literal terminals (from productions and precedence lines).
        let add_lit = |lit: &str,
                       g: &mut GrammarBuilder<Value>,
                       cfg: &mut pg::CfgBuilder,
                       sym_ids: &mut HashMap<String, SymbolId>,
                       gsyms: &mut HashMap<String, pg::GSym>,
                       term_kinds: &mut Vec<TermKind>,
                       term_names: &mut Vec<String>,
                       literals: &mut Vec<(String, pg::Term)>|
         -> pg::Term {
            let key = format!("'{lit}'");
            if let Some(pg::GSym::T(t)) = gsyms.get(&key) {
                return *t;
            }
            let sid = g.terminal(&key);
            let t = cfg.terminal(&key);
            sym_ids.insert(key.clone(), sid);
            gsyms.insert(key.clone(), pg::GSym::T(t));
            term_kinds.push(TermKind::Lit);
            term_names.push(key);
            literals.push((lit.to_string(), t));
            t
        };
        for p in &ast.prods {
            for s in &p.rhs {
                if let SpecSym::Lit(l) = s {
                    add_lit(
                        l,
                        &mut g,
                        &mut cfg,
                        &mut sym_ids,
                        &mut gsyms,
                        &mut term_kinds,
                        &mut term_names,
                        &mut literals,
                    );
                }
            }
        }

        // Nonterminals.
        for nt in &ast.nonterminals {
            let sid = g.nonterminal(&nt.name);
            for a in &nt.syn {
                g.synthesized(sid, a);
            }
            for a in &nt.inh {
                g.inherited(sid, a);
            }
            if let Some(min) = nt.split {
                g.mark_split(sid, min);
            }
            let n = cfg.nonterminal(&nt.name);
            sym_ids.insert(nt.name.clone(), sid);
            gsyms.insert(nt.name.clone(), pg::GSym::N(n));
        }

        // Precedence.
        for (assoc, terms) in &ast.prec {
            let ids: Vec<pg::Term> = terms
                .iter()
                .map(|t| {
                    // May be a literal (stored as 'x') or a named term.
                    let lit_key = format!("'{t}'");
                    match gsyms.get(&lit_key).or_else(|| gsyms.get(t)) {
                        Some(pg::GSym::T(term)) => Ok(*term),
                        _ => Ok(add_lit(
                            t,
                            &mut g,
                            &mut cfg,
                            &mut sym_ids,
                            &mut gsyms,
                            &mut term_kinds,
                            &mut term_names,
                            &mut literals,
                        )),
                    }
                })
                .collect::<Result<Vec<_>, SpecError>>()?;
            match assoc {
                Assoc::Left => cfg.left(&ids),
                Assoc::Right => cfg.right(&ids),
            }
        }

        // Productions + semantic rules.
        let mut prod_map = Vec::new();
        for (pi, sp) in ast.prods.iter().enumerate() {
            let Some(&lhs) = sym_ids.get(&sp.lhs) else {
                return Err(err(format!("undeclared nonterminal {:?}", sp.lhs)));
            };
            let rhs: Vec<SymbolId> = sp
                .rhs
                .iter()
                .map(|s| {
                    let key = match s {
                        SpecSym::Named(n) => n.clone(),
                        SpecSym::Lit(l) => format!("'{l}'"),
                    };
                    sym_ids.get(&key).copied().ok_or_else(|| SpecError {
                        line: 0,
                        msg: format!("undeclared symbol {key:?} in production {pi}"),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let prod = g.production(format!("{}#{pi}", sp.lhs), lhs, rhs.clone());
            prod_map.push(prod);
            // Mirror the production into the parser generator (same
            // index order, so ProdIdx ↔ ProdId align).
            let Some(pg::GSym::N(cfg_lhs)) = gsyms.get(&sp.lhs).copied() else {
                return Err(err(format!("{:?} is not a nonterminal", sp.lhs)));
            };
            let cfg_rhs: Vec<pg::GSym> = sp
                .rhs
                .iter()
                .map(|s| {
                    let key = match s {
                        SpecSym::Named(n) => n.clone(),
                        SpecSym::Lit(l) => format!("'{l}'"),
                    };
                    gsyms[&key]
                })
                .collect();
            cfg.prod(cfg_lhs, cfg_rhs);

            // Grammar-side occurrence symbols for attr resolution.
            let occ_sym = |occ: usize| -> Result<SymbolId, SpecError> {
                if occ == 0 {
                    Ok(lhs)
                } else {
                    rhs.get(occ - 1).copied().ok_or_else(|| SpecError {
                        line: 0,
                        msg: format!("occurrence ${occ} out of range in production {pi}"),
                    })
                }
            };
            // We need attr-id resolution before `g` is built; the
            // builder doesn't expose it, so track attr names per symbol.
            // (Names were added in declaration order: syn then inh for
            // nonterminals; "string" for %name terminals.)
            let attr_id = |sym: SymbolId, name: &str| -> Result<AttrId, SpecError> {
                let decl = ast
                    .nonterminals
                    .iter()
                    .find(|n| sym_ids.get(&n.name) == Some(&sym));
                if let Some(decl) = decl {
                    let idx = decl
                        .syn
                        .iter()
                        .chain(decl.inh.iter())
                        .position(|a| a == name);
                    return idx.map(|i| AttrId(i as u32)).ok_or_else(|| SpecError {
                        line: 0,
                        msg: format!("symbol {:?} has no attribute {name:?}", decl.name),
                    });
                }
                // Terminal: only "string" on %name terminals.
                let term_name = sym_ids
                    .iter()
                    .find(|(_, v)| **v == sym)
                    .map(|(k, _)| k.clone())
                    .unwrap_or_default();
                if ast.name_terminals.contains(&term_name) && name == "string" {
                    Ok(AttrId(0))
                } else {
                    Err(SpecError {
                        line: 0,
                        msg: format!("terminal {term_name:?} has no attribute {name:?}"),
                    })
                }
            };

            for rule in &sp.rules {
                let tsym = occ_sym(rule.target_occ)?;
                let tattr = attr_id(tsym, &rule.target_attr)?;
                let refs = rule.expr.attr_refs();
                let mut args = Vec::with_capacity(refs.len());
                for (occ, attr) in &refs {
                    let s = occ_sym(*occ)?;
                    args.push((*occ, attr_id(s, attr)?));
                }
                let compiled = compile_expr(&rule.expr, &refs, registry, &mut err)?;
                if let Compiled::DirectFn(fp) = compiled {
                    // The whole rule is one named capture-free function
                    // in identity argument order: register it through
                    // the direct-call table.
                    g.rule_with_cost_direct(prod, (rule.target_occ, tattr), args, fp, 2);
                } else {
                    g.rule_with_cost(
                        prod,
                        (rule.target_occ, tattr),
                        args,
                        move |vals| compiled.eval(vals),
                        2,
                    );
                }
            }
        }

        let Some(&start_sym) = sym_ids.get(&ast.start.0) else {
            return Err(err(format!("undeclared start symbol {:?}", ast.start.0)));
        };
        let grammar = Arc::new(g.build(start_sym).map_err(|e| SpecError {
            line: 0,
            msg: e.to_string(),
        })?);
        let Some(pg::GSym::N(start_nt)) = gsyms.get(&ast.start.0).copied() else {
            return Err(err("start symbol is not a nonterminal".into()));
        };
        let table = cfg.build(start_nt).map_err(|e| SpecError {
            line: 0,
            msg: e.to_string(),
        })?;
        let evals = Evaluators::new(&grammar);

        // Longest-match scanning for literals.
        literals.sort_by_key(|(lit, _)| std::cmp::Reverse(lit.len()));

        Ok(SpecLang {
            grammar,
            evals,
            table,
            term_kinds,
            term_names,
            keywords,
            literals,
            ident_term,
            number_term,
            prod_map,
            start_fn: ast.start.1.clone(),
        })
    }

    /// The appendix expression language with the builtin registry.
    ///
    /// # Panics
    ///
    /// Never — the embedded specification is tested.
    pub fn expression_language() -> SpecLang {
        SpecLang::from_spec(crate::EXPR_SPEC, &builtins()).expect("embedded appendix spec is valid")
    }

    /// The generated attribute grammar.
    pub fn grammar(&self) -> &Arc<Grammar<Value>> {
        &self.grammar
    }

    /// The evaluator factory for the generated grammar.
    pub fn evals(&self) -> &Evaluators<Value> {
        &self.evals
    }

    /// The `%start` callback name (metadata; the host application
    /// decides what to do with root attributes).
    pub fn start_fn(&self) -> &str {
        &self.start_fn
    }

    /// Scans input text into parser tokens.
    ///
    /// # Errors
    ///
    /// [`EvalStrError::Lex`] for unscannable input.
    pub fn lex_input(&self, input: &str) -> Result<Vec<(pg::Term, Value)>, EvalStrError> {
        let mut out = Vec::new();
        let bytes = input.as_bytes();
        let mut i = 0;
        'outer: while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                if let Some(&t) = self.keywords.get(&word.to_ascii_lowercase()) {
                    out.push((t, Value::Unit));
                } else if let Some(t) = self.ident_term {
                    out.push((t, Value::str(word)));
                } else {
                    return Err(EvalStrError::Lex(format!(
                        "no IDENTIFIER terminal for word {word:?}"
                    )));
                }
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = input[start..i].parse().map_err(|_| {
                    EvalStrError::Lex(format!("number {:?} out of range", &input[start..i]))
                })?;
                let Some(t) = self.number_term else {
                    return Err(EvalStrError::Lex("no NUMBER terminal".into()));
                };
                out.push((t, Value::Int(n)));
                continue;
            }
            for (lit, t) in &self.literals {
                if input[i..].starts_with(lit.as_str()) {
                    out.push((*t, Value::Unit));
                    i += lit.len();
                    continue 'outer;
                }
            }
            return Err(EvalStrError::Lex(format!("unexpected character {c:?}")));
        }
        Ok(out)
    }

    /// Parses input text into an attributed parse tree.
    ///
    /// # Errors
    ///
    /// [`EvalStrError`] for lexical or syntax errors.
    pub fn parse_str(&self, input: &str) -> Result<Arc<ParseTree<Value>>, EvalStrError> {
        let tokens = self.lex_input(input)?;
        let mut builder = InputBuilder {
            lang: self,
            tb: TreeBuilder::new(&self.grammar),
        };
        let root = pg::parse(&self.table, tokens, &mut builder).map_err(EvalStrError::Parse)?;
        let ChildSpec::Built(root) = root else {
            return Err(EvalStrError::Lex("input reduced to a bare token".into()));
        };
        builder
            .tb
            .finish(root)
            .map(Arc::new)
            .map_err(EvalStrError::Tree)
    }

    /// Parses and evaluates input, returning the root's synthesized
    /// attribute values (in declaration order).
    ///
    /// # Errors
    ///
    /// [`EvalStrError`] for lexical, syntax or evaluation failures.
    pub fn eval_root(&self, input: &str) -> Result<Vec<(String, Value)>, EvalStrError> {
        let tree = self.parse_str(input)?;
        let (store, _) = self
            .evals
            .eval_sequential(&tree)
            .map_err(EvalStrError::Eval)?;
        let root_sym = self.grammar.prod(tree.node(tree.root()).prod).lhs;
        Ok(self
            .grammar
            .symbol(root_sym)
            .attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == AttrKind::Syn)
            .map(|(i, a)| {
                (
                    a.name.clone(),
                    store
                        .get(tree.root(), AttrId(i as u32))
                        .cloned()
                        .unwrap_or(Value::Unit),
                )
            })
            .collect())
    }

    /// Parses and evaluates input, returning the first synthesized root
    /// attribute (the appendix's `value`).
    ///
    /// # Errors
    ///
    /// [`EvalStrError`] for lexical, syntax or evaluation failures.
    pub fn eval_str(&self, input: &str) -> Result<Value, EvalStrError> {
        let mut roots = self.eval_root(input)?;
        if roots.is_empty() {
            return Err(EvalStrError::Lex("start symbol has no attributes".into()));
        }
        Ok(roots.remove(0).1)
    }

    /// Terminal display name (diagnostics).
    pub fn term_name(&self, t: pg::Term) -> &str {
        &self.term_names[t.0 as usize]
    }
}

impl fmt::Debug for SpecLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpecLang({} terminals, {} productions)",
            self.term_kinds.len(),
            self.prod_map.len()
        )
    }
}

struct InputBuilder<'a> {
    lang: &'a SpecLang,
    tb: TreeBuilder<Value>,
}

impl<'a> pg::TreeBuilder<Value> for InputBuilder<'a> {
    type Node = ChildSpec;

    fn shift(&mut self, term: pg::Term, tok: Value) -> ChildSpec {
        match self.lang.term_kinds[term.0 as usize] {
            TermKind::Name => self.tb.token([tok]),
            TermKind::Keyword | TermKind::Lit => self.tb.token(None),
        }
    }

    fn reduce(&mut self, prod: pg::ProdIdx, children: Vec<ChildSpec>) -> ChildSpec {
        let grammar_prod = self.lang.prod_map[prod.0];
        ChildSpec::Built(self.tb.node_full(grammar_prod, children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_keywords_identifiers_numbers_and_literals() {
        let lang = SpecLang::expression_language();
        let toks = lang.lex_input("let xy = 12 in xy + 3 ni").unwrap();
        assert_eq!(toks.len(), 9);
        assert_eq!(lang.term_name(toks.n(0)), "LET");
        assert_eq!(lang.term_name(toks.n(1)), "IDENTIFIER");
        assert_eq!(lang.term_name(toks.n(2)), "'='");
        assert_eq!(lang.term_name(toks.n(3)), "NUMBER");
        assert_eq!(lang.term_name(toks.n(6)), "'+'");
        assert_eq!(lang.term_name(toks.n(8)), "NI");
    }

    trait Nth {
        fn n(&self, i: usize) -> pg::Term;
    }
    impl Nth for Vec<(pg::Term, Value)> {
        fn n(&self, i: usize) -> pg::Term {
            self[i].0
        }
    }

    #[test]
    fn parse_str_builds_attributed_tree() {
        let lang = SpecLang::expression_language();
        let tree = lang.parse_str("1 + 2 * 3").unwrap();
        assert!(tree.len() >= 5);
        // Root must be a main_expr production.
        let root_sym = lang.grammar().prod(tree.node(tree.root()).prod).lhs;
        assert_eq!(lang.grammar().symbol(root_sym).name, "main_expr");
    }

    #[test]
    fn eval_root_names_attributes() {
        let lang = SpecLang::expression_language();
        let roots = lang.eval_root("2 * 21").unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].0, "value");
        assert_eq!(roots[0].1, Value::Int(42));
        assert_eq!(lang.start_fn(), "printn");
    }

    /// Identity-order calls to registry builtins devirtualize: the rule
    /// lands in the grammar's direct-call table, and the compiled visit
    /// programs pick it up.
    #[test]
    fn identity_calls_enter_the_direct_call_table() {
        let spec =
            "%name N\n%nosplit e { syn v; }\n%start e f\n%%\ne : N { $$.v = id($1.string); }\n";
        let lang = SpecLang::from_spec(spec, &builtins()).unwrap();
        let direct: usize = lang
            .grammar()
            .prods()
            .iter()
            .flat_map(|p| p.rules.iter())
            .filter(|r| r.direct.is_some())
            .count();
        assert!(direct > 0, "no rule entered the direct-call table");
    }

    #[test]
    fn unknown_function_is_a_spec_error() {
        let spec = "%name N\n%nosplit e { syn v; }\n%start e f\n%%\ne : N { $$.v = mystery($1.string); }\n";
        let err = SpecLang::from_spec(spec, &builtins()).unwrap_err();
        assert!(err.msg.contains("mystery"));
    }

    #[test]
    fn undeclared_attribute_is_a_spec_error() {
        let spec = "%name N\n%nosplit e { syn v; }\n%start e f\n%%\ne : N { $$.w = $1.string; }\n";
        let err = SpecLang::from_spec(spec, &builtins()).unwrap_err();
        assert!(err.msg.contains("no attribute"), "{err}");
    }

    #[test]
    fn keyword_attribute_access_is_rejected() {
        let spec = "%name N\n%keyword K\n%nosplit e { syn v; }\n%start e f\n%%\ne : K N { $$.v = $1.string; }\n";
        let err = SpecLang::from_spec(spec, &builtins()).unwrap_err();
        assert!(err.msg.contains("has no attribute"), "{err}");
    }

    #[test]
    fn split_declaration_reaches_grammar() {
        let lang = SpecLang::expression_language();
        let block = lang.grammar().symbol_named("block").unwrap();
        assert_eq!(
            lang.grammar().symbol(block).split.map(|s| s.min_size),
            Some(1000)
        );
    }

    #[test]
    fn generated_language_is_statically_evaluable() {
        let lang = SpecLang::expression_language();
        assert!(lang.evals().plans().is_some());
    }
}
