//! §4.3 ablation: unique-identifier generation strategies.
//!
//! Sequential attribute grammars generate unique labels by threading a
//! counter attribute through the whole tree; in a parallel evaluator
//! that forces "virtually all evaluators to wait for the value of this
//! attribute to be propagated". The paper's alternative hands each
//! evaluator a disjoint base value from the parser. We build the same
//! little language both ways and compare on 5 machines: with the
//! threaded counter the code-generation phase serializes; with
//! parser-supplied unique-id tokens it parallelizes.

use paragram_core::analysis::compute_plans;
use paragram_core::eval::MachineMode;
use paragram_core::grammar::{Grammar, GrammarBuilder};
use paragram_core::parallel::sim::{run_sim, SimConfig};
use paragram_core::tree::{ParseTree, TreeBuilder};
use paragram_core::value::Value;
use paragram_rope::Rope;
use std::sync::Arc;

const ITEMS: usize = 120;
const DEPTH: usize = 10;

/// Labels from parser-supplied unique-id tokens.
fn uid_language() -> (Arc<Grammar<Value>>, Arc<ParseTree<Value>>) {
    let mut g = GrammarBuilder::<Value>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("stmts");
    let b = g.nonterminal("body");
    let uid = g.terminal("UID");
    let _u = g.synthesized(uid, "uid");
    let scode = g.synthesized(s, "code");
    let lcode = g.synthesized(l, "code");
    let bcode = g.synthesized(b, "code");
    g.mark_split(l, 4);

    let top = g.production("top", s, [l]);
    g.rule(top, (0, scode), [(1, lcode)], |a| a[0].clone());
    let cons = g.production("cons", l, [b, l]);
    g.rule(cons, (0, lcode), [(1, bcode), (2, lcode)], |a| {
        Value::Rope(a[0].as_rope().unwrap().concat(a[1].as_rope().unwrap()))
    });
    let nil = g.production("nil", l, []);
    g.rule(nil, (0, lcode), [], |_| Value::Rope(Rope::new()));
    let wrap = g.production("wrap", b, [uid, b]);
    g.rule_with_cost(
        wrap,
        (0, bcode),
        [(1, paragram_core::grammar::AttrId(0)), (2, bcode)],
        |a| {
            let label = a[0].as_int().unwrap();
            Value::Rope(Rope::from(format!("L{label}:\n\tinstr\n")).concat(a[1].as_rope().unwrap()))
        },
        4,
    );
    let unit = g.production("unit", b, []);
    g.rule(unit, (0, bcode), [], |_| Value::Rope(Rope::from("\tret\n")));

    let grammar = Arc::new(g.build(s).unwrap());
    let mut tb = TreeBuilder::new(&grammar);
    let mut next_uid = 0i64;
    let mut tail = tb.leaf(nil);
    for _ in 0..ITEMS {
        let mut body = tb.leaf(unit);
        for _ in 0..DEPTH {
            next_uid += 1;
            let tok = tb.token([Value::Int(next_uid)]);
            body = tb.node_full(wrap, [tok, body.into()]);
        }
        tail = tb.node(cons, [body, tail]);
    }
    let root = tb.node(top, [tail]);
    (Arc::clone(&grammar), Arc::new(tb.finish(root).unwrap()))
}

/// Labels from a counter attribute threaded through the entire tree.
fn threaded_language() -> (Arc<Grammar<Value>>, Arc<ParseTree<Value>>) {
    let mut g = GrammarBuilder::<Value>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("stmts");
    let b = g.nonterminal("body");
    let scode = g.synthesized(s, "code");
    let lin = g.inherited(l, "lab_in");
    let lout = g.synthesized(l, "lab_out");
    let lcode = g.synthesized(l, "code");
    let bin = g.inherited(b, "lab_in");
    let bout = g.synthesized(b, "lab_out");
    let bcode = g.synthesized(b, "code");
    g.mark_split(l, 4);

    let top = g.production("top", s, [l]);
    g.rule(top, (1, lin), [], |_| Value::Int(0));
    g.rule(top, (0, scode), [(1, lcode)], |a| a[0].clone());
    let cons = g.production("cons", l, [b, l]);
    g.copy_rule(cons, (1, bin), (0, lin));
    g.copy_rule(cons, (2, lin), (1, bout));
    g.copy_rule(cons, (0, lout), (2, lout));
    g.rule(cons, (0, lcode), [(1, bcode), (2, lcode)], |a| {
        Value::Rope(a[0].as_rope().unwrap().concat(a[1].as_rope().unwrap()))
    });
    let nil = g.production("nil", l, []);
    g.copy_rule(nil, (0, lout), (0, lin));
    g.rule(nil, (0, lcode), [], |_| Value::Rope(Rope::new()));
    let wrap = g.production("wrap", b, [b]);
    g.rule(wrap, (1, bin), [(0, bin)], |a| {
        Value::Int(a[0].as_int().unwrap() + 1)
    });
    g.copy_rule(wrap, (0, bout), (1, bout));
    g.rule_with_cost(
        wrap,
        (0, bcode),
        [(0, bin), (1, bcode)],
        |a| {
            let label = a[0].as_int().unwrap();
            Value::Rope(Rope::from(format!("L{label}:\n\tinstr\n")).concat(a[1].as_rope().unwrap()))
        },
        4,
    );
    let unit = g.production("unit", b, []);
    g.copy_rule(unit, (0, bout), (0, bin));
    g.rule(unit, (0, bcode), [], |_| Value::Rope(Rope::from("\tret\n")));

    let grammar = Arc::new(g.build(s).unwrap());
    let mut tb = TreeBuilder::new(&grammar);
    let mut tail = tb.leaf(nil);
    for _ in 0..ITEMS {
        let mut body = tb.leaf(unit);
        for _ in 0..DEPTH {
            body = tb.node(wrap, [body]);
        }
        tail = tb.node(cons, [body, tail]);
    }
    let root = tb.node(top, [tail]);
    (Arc::clone(&grammar), Arc::new(tb.finish(root).unwrap()))
}

fn main() {
    println!("§4.3 — unique-label strategies, 5 machines, {ITEMS} blocks\n");
    println!("{:>26} | {:>9} | note", "strategy", "time");
    println!("{}", "-".repeat(70));
    let mut times = Vec::new();
    for (name, (grammar, tree), note) in [
        (
            "parser-supplied uid tokens",
            uid_language(),
            "labels local, codegen parallel",
        ),
        (
            "threaded counter attribute",
            threaded_language(),
            "label chain serializes evaluators",
        ),
    ]
    .map(|(n, gt, note)| (n, gt, note))
    {
        let plans = Arc::new(compute_plans(grammar.as_ref()).unwrap());
        let mut cfg = SimConfig::paper(5);
        cfg.mode = MachineMode::Combined;
        let r = run_sim(&tree, Some(&plans), &cfg);
        println!("{name:>26} | {:8.2}s | {note}", r.eval_time as f64 / 1e6);
        times.push(r.eval_time);
    }
    println!(
        "\nthreaded counters are {:.2}x slower in parallel (paper §4.3)",
        times[1] as f64 / times[0] as f64
    );
}
