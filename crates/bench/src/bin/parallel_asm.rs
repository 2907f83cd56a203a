//! §4.1's proposed extension: assembly as a *separate parallel pass*
//! specified by its own attribute grammar.
//!
//! The paper: "Assembly can be specified as a separate attribute
//! grammar which can be run as a separate parallel pass after
//! compilation. … machine language is much more compact than assembly
//! language, resulting in smaller attributes being transmitted over
//! the network."
//!
//! We build exactly that: the compiler's assembly output is divided
//! into sections (one per routine), the sections form a splittable
//! list, and a two-visit attribute grammar assembles them — visit 1
//! synthesizes each section's size and label table, the root combines
//! them into the global label table and passes it back down, visit 2
//! encodes each section against the resolved addresses, in parallel.
//! The same combined evaluator, splitter, simulator and librarian used
//! for compilation run this pass unchanged.

use paragram_bench::Workload;
use paragram_core::analysis::compute_plans;
use paragram_core::eval::{static_eval, MachineMode};
use paragram_core::grammar::{AttrId, Grammar, GrammarBuilder};
use paragram_core::parallel::phase_classifier;
use paragram_core::parallel::sim::{run_sim, SimConfig};
use paragram_core::tree::{ParseTree, TreeBuilder};
use paragram_core::value::Value;
use paragram_rope::Rope;
use paragram_symtab::SymTab;
use paragram_vax::{parse_asm, Instr, Item};
use std::sync::Arc;

/// One assembly section: a leading label and its instructions, kept as
/// text in the token (the tree is what the parser would ship).
fn split_sections(asm: &str) -> Vec<(String, Vec<Item>)> {
    let items = parse_asm(asm).expect("compiler output parses");
    let mut sections: Vec<(String, Vec<Item>)> = Vec::new();
    let mut current: Option<(String, Vec<Item>)> = None;
    for item in items {
        match item {
            Item::Label(l) => {
                // Local labels (branch targets) stay inside the current
                // section; routine labels (start/__*/P*) open a new one.
                let is_routine = l == "start" || l.starts_with("__") || l.starts_with('P');
                if is_routine || current.is_none() {
                    if let Some(s) = current.take() {
                        sections.push(s);
                    }
                    current = Some((l.clone(), vec![Item::Label(l)]));
                } else if let Some((_, items)) = current.as_mut() {
                    items.push(Item::Label(l));
                }
            }
            other => {
                if let Some((_, items)) = current.as_mut() {
                    items.push(other);
                }
            }
        }
    }
    if let Some(s) = current.take() {
        sections.push(s);
    }
    sections
}

/// The assembler attribute grammar: two-visit, splittable section list.
struct AsmLang {
    grammar: Arc<Grammar<Value>>,
    p_top: paragram_core::grammar::ProdId,
    p_cons: paragram_core::grammar::ProdId,
    p_nil: paragram_core::grammar::ProdId,
    p_sect: paragram_core::grammar::ProdId,
    out: AttrId,
}

fn asm_grammar() -> AsmLang {
    let mut g = GrammarBuilder::<Value>::new();
    let s = g.nonterminal("S");
    let list = g.nonterminal("sections");
    let sect = g.nonterminal("section");
    let t_text = g.terminal("TEXT");
    let _text = g.synthesized(t_text, "text");

    let out = g.synthesized(s, "object");
    // Visit 1: size and local label table, offsets relative to the
    // section start.
    let l_size = g.synthesized(list, "size");
    let l_tab = g.synthesized(list, "labtab");
    // Visit 2: absolute base address and resolved global table flow
    // down; encoded object code flows up.
    let l_base = g.inherited(list, "base");
    let l_genv = g.inherited(list, "glabels");
    let l_obj = g.synthesized(list, "object");
    let c_size = g.synthesized(sect, "size");
    let c_tab = g.synthesized(sect, "labtab");
    let c_base = g.inherited(sect, "base");
    let c_genv = g.inherited(sect, "glabels");
    let c_obj = g.synthesized(sect, "object");
    g.mark_split(list, 3);
    g.mark_split(sect, 3);
    // The paper's §4.3 fix applies here verbatim: without priority
    // markings the cheap base/label-table relay rules queue behind
    // 100ms encode visits and the pass serializes.
    for (sym, attrs) in [
        (list, vec![l_size, l_tab, l_base, l_genv]),
        (sect, vec![c_size, c_tab, c_base, c_genv]),
    ] {
        for a in attrs {
            g.mark_priority(sym, a);
        }
    }

    let parse_section = |text: &str| -> Vec<Item> { parse_asm(text).expect("section text parses") };

    // S -> sections
    let p_top = g.production("asm_prog", s, [list]);
    g.rule(p_top, (1, l_base), [], |_| Value::Int(0));
    g.copy_rule(p_top, (1, l_genv), (1, l_tab));
    g.copy_rule(p_top, (0, out), (1, l_obj));

    // sections -> section sections | ε
    let p_cons = g.production("sects_cons", list, [sect, list]);
    g.rule(p_cons, (0, l_size), [(1, c_size), (2, l_size)], |a| {
        Value::Int(a[0].as_int().unwrap() + a[1].as_int().unwrap())
    });
    g.rule_with_cost(
        p_cons,
        (0, l_tab),
        [(1, c_tab), (2, l_tab), (1, c_size)],
        |a| {
            // Merge: head's labels stay, tail's labels shift by head
            // size.
            let mut tab = a[0].as_tab().unwrap().clone();
            let shift = a[2].as_int().unwrap();
            for (name, v) in a[1].as_tab().unwrap().iter() {
                tab = tab.add(name, Value::Int(v.as_int().unwrap() + shift));
            }
            Value::Tab(tab)
        },
        3,
    );
    g.copy_rule(p_cons, (1, c_base), (0, l_base));
    g.copy_rule(p_cons, (1, c_genv), (0, l_genv));
    g.rule(p_cons, (2, l_base), [(0, l_base), (1, c_size)], |a| {
        Value::Int(a[0].as_int().unwrap() + a[1].as_int().unwrap())
    });
    g.copy_rule(p_cons, (2, l_genv), (0, l_genv));
    g.rule_with_cost(
        p_cons,
        (0, l_obj),
        [(1, c_obj), (2, l_obj)],
        |a| Value::Rope(a[0].as_rope().unwrap().concat(a[1].as_rope().unwrap())),
        2,
    );
    let p_nil = g.production("sects_nil", list, []);
    g.rule(p_nil, (0, l_size), [], |_| Value::Int(0));
    g.rule(p_nil, (0, l_tab), [], |_| Value::Tab(SymTab::new()));
    g.rule(p_nil, (0, l_obj), [], |_| Value::Rope(Rope::new()));

    // section -> TEXT
    let p_sect = g.production("section", sect, [t_text]);
    {
        g.rule_with_cost(
            p_sect,
            (0, c_size),
            [(1, AttrId(0))],
            move |a| {
                let items = parse_section(a[0].as_str().unwrap());
                Value::Int(
                    items
                        .iter()
                        .filter_map(|i| match i {
                            Item::Instr(i) => Some(i.encoded_size() as i64),
                            Item::Label(_) => None,
                        })
                        .sum(),
                )
            },
            // Costs approximate per-instruction work on the 1987 cost
            // model: sections average ≈500 instructions.
            150,
        );
    }
    g.rule_with_cost(
        p_sect,
        (0, c_tab),
        [(1, AttrId(0))],
        move |a| {
            let items = parse_asm(a[0].as_str().unwrap()).expect("section parses");
            let mut tab = SymTab::new();
            let mut off = 0i64;
            for item in items {
                match item {
                    Item::Label(l) => tab = tab.add(l.as_str(), Value::Int(off)),
                    Item::Instr(i) => off += i.encoded_size() as i64,
                }
            }
            Value::Tab(tab)
        },
        200,
    );
    g.rule_with_cost(
        p_sect,
        (0, c_obj),
        [(1, AttrId(0)), (0, c_base), (0, c_genv)],
        move |a| {
            // "Encode": one hex word per opcode and resolved absolute
            // address per branch target. Compact relative to text.
            let items = parse_asm(a[0].as_str().unwrap()).expect("section parses");
            let glabels = a[2].as_tab().unwrap();
            let mut out = String::new();
            for item in &items {
                if let Item::Instr(i) = item {
                    match i.target() {
                        Some(t) => {
                            let addr = glabels
                                .lookup(t)
                                .and_then(Value::as_int)
                                .expect("label resolved in global table");
                            out.push_str(&format!("{:02x}@{addr:06x};", opcode(i)));
                        }
                        None => out.push_str(&format!("{:02x};", opcode(i))),
                    }
                }
            }
            Value::Rope(Rope::from(out))
        },
        900,
    );

    AsmLang {
        grammar: Arc::new(g.build(s).unwrap()),
        p_top,
        p_cons,
        p_nil,
        p_sect,
        out,
    }
}

fn opcode(i: &Instr) -> u8 {
    // Stable tiny opcode map by mnemonic hash.
    i.mnemonic()
        .bytes()
        .fold(7u8, |h, b| h.wrapping_mul(31).wrapping_add(b))
}

fn build_asm_tree(lang: &AsmLang, sections: &[(String, Vec<Item>)]) -> Arc<ParseTree<Value>> {
    let mut tb = TreeBuilder::new(&lang.grammar);
    let mut tail = tb.leaf(lang.p_nil);
    for (_, items) in sections.iter().rev() {
        let text: String = items.iter().map(|i| format!("{i}\n")).collect();
        let tok = tb.token([Value::str(text)]);
        let sect = tb.node_full(lang.p_sect, [tok]);
        tail = tb.node_full(lang.p_cons, vec![sect.into(), tail.into()]);
    }
    let root = tb.node(lang.p_top, [tail]);
    Arc::new(tb.finish(root).unwrap())
}

fn main() {
    // Compile the paper workload, then assemble its output in parallel.
    let w = Workload::paper();
    let (store, stats) = w.compiler.evals.eval_sequential(&w.tree).unwrap();
    let compiled = w.compiler.output_from_store(&w.tree, &store, stats);
    assert!(compiled.errors.is_empty());

    let sections = split_sections(&compiled.asm);
    let lang = asm_grammar();
    let plans = Arc::new(compute_plans(lang.grammar.as_ref()).unwrap());
    let tree = build_asm_tree(&lang, &sections);
    println!(
        "§4.1 — assembly as a separate parallel pass ({} sections, {} KiB of assembly)\n",
        sections.len(),
        compiled.asm.len() / 1024
    );

    // Sequential reference for correctness + size accounting.
    let (seq_store, _) = static_eval(&tree, &plans).unwrap();
    let object = seq_store
        .get(tree.root(), lang.out)
        .and_then(Value::as_rope)
        .cloned()
        .unwrap();
    println!(
        "object code {} KiB vs assembly text {} KiB ({}x more compact)\n",
        object.len() / 1024,
        compiled.asm.len() / 1024,
        compiled.asm.len() / object.len().max(1)
    );

    println!("{:>9} | {:>9} | {:>8}", "machines", "time", "speedup");
    println!("{}", "-".repeat(34));
    let mut base = 0.0;
    for machines in [1usize, 2, 3, 5, 6] {
        let mut cfg = SimConfig::paper(machines);
        cfg.mode = MachineMode::Combined;
        cfg.classifier = phase_classifier(vec![
            ("labtab", "label table"),
            ("size", "label table"),
            ("object", "encode"),
        ]);
        let report = run_sim(&tree, Some(&plans), &cfg);
        if machines == 1 {
            base = report.eval_time as f64;
        }
        // Correctness under parallel evaluation.
        let got = report
            .root_values
            .iter()
            .find(|(a, _)| *a == lang.out)
            .and_then(|(_, v)| v.as_rope().cloned())
            .unwrap();
        assert!(got.content_eq(&object), "parallel assembly differs");
        println!(
            "{machines:>9} | {:8.2}s | {:7.2}x  ({} regions, {:.1}% dynamic)",
            report.eval_time as f64 / 1e6,
            base / report.eval_time as f64,
            report.regions,
            100.0 * report.stats.dynamic_fraction(),
        );
    }
    println!("\nparallel object code identical to sequential ✓");
}

#[cfg(test)]
mod probe {}
