//! Incremental re-evaluation — the §5 trade-off the paper discusses
//! (batch vs structure-editor incremental evaluation), built on the
//! same dependency-graph machinery.
//!
//! We compile a Pascal program once, then "edit" number tokens in the
//! attributed tree and re-evaluate only the affected cone of attribute
//! instances, comparing against the cost of a full batch run.
//!
//! Run with: `cargo run --release --example incremental`

use paragram::core::eval::Incremental;
use paragram::core::grammar::AttrId;
use paragram::core::tree::Child;
use paragram::pascal::{run_asm, Compiler, PVal};

fn main() {
    let compiler = Compiler::new();
    let src = "program p;\nconst k = 3;\nvar i, s: integer;\nfunction f(n: integer): integer;\nbegin f := n * k end;\nbegin\n  i := 0; s := 0;\n  while i < 10 do begin s := s + f(i); i := i + 1 end;\n  write(s)\nend.";
    let tree = compiler.tree_from_source(src).expect("parses");

    let mut inc: Incremental<PVal> = Incremental::new(&tree).expect("acyclic");
    let total = inc.stats().graph_nodes;
    let code = |inc: &Incremental<PVal>| {
        inc.store()
            .get(tree.root(), compiler.pg.s_code)
            .map(|v| v.code().to_string())
            .expect("code attribute")
    };
    println!(
        "batch evaluation: {} attribute instances; program prints {}",
        total,
        run_asm(&code(&inc)).unwrap()
    );

    // Find the `const k = 3` token: a NUM token whose value is 3 under a
    // `const` production.
    let target = tree
        .node_ids()
        .find(|&n| tree.grammar().prod(tree.node(n).prod).name == "const")
        .expect("const declaration");
    let Child::Token(span) = tree.children(target)[1] else {
        panic!("const's second occurrence is the number token")
    };
    println!(
        "\nediting `const k = {}` to `const k = 7` …",
        tree.token(span)[0].int()
    );
    let applied = inc
        .update_token(target, 2, AttrId(0), PVal::Int(7))
        .expect("valid edit");
    println!(
        "incremental update re-applied {applied} of {total} rules ({:.1}%); program now prints {}",
        100.0 * applied as f64 / total as f64,
        run_asm(&code(&inc)).unwrap()
    );

    // Early cutoff: editing a token back to its current value is free.
    let noop = inc
        .update_token(target, 2, AttrId(0), PVal::Int(7))
        .expect("valid edit");
    println!("re-editing to the same value re-applies {noop} rules (early cutoff)");
}
