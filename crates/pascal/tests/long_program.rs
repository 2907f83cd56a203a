//! A program far longer than any stack is deep, and programs nested
//! deeper than the parser accepts.
//!
//! A statement list's code is a list-shaped rope, one level per
//! statement, and so is the list's subtree. Nothing between source text
//! and freed store may recurse once per statement: the pool's workers
//! (and these tests' threads) run on 2 MiB stacks, and 100 000
//! statements used to compile correctly and then overflow the stack
//! while the attribute store was being dropped.
//!
//! Nesting is different: the parser recurses once per level, and so do
//! the tree and the evaluators after it. A few kilobytes of `(` used to
//! overflow the stack inside `parser::parse`; past
//! [`parser::MAX_NESTING`] levels the parser now refuses the program.

use paragram_pascal::parser::MAX_NESTING;
use paragram_pascal::{direct::compile_direct, parser, CompileError, Compiler};

const STATEMENTS: usize = 200_000;

#[test]
fn two_hundred_thousand_statements_compile_and_tear_down() {
    let mut src = String::from("program p; var x: integer; begin x := 0");
    for _ in 1..STATEMENTS {
        src.push_str("; x := x + 1");
    }
    src.push_str("; write(x) end.");

    // `std::thread::spawn`'s default stack — what a pool worker has.
    std::thread::spawn(move || {
        let compiler = Compiler::new();
        let out = compiler.compile(&src).expect("compiles");
        // `compile` has dropped its tree and store by now.
        assert!(out.errors.is_empty(), "{:?}", &out.errors[..1]);
        assert_eq!(out.asm.matches("\tmovl r0, (r2)\n").count(), STATEMENTS);
        let direct = compile_direct(&parser::parse(&src).expect("parses"));
        assert!(direct.errors.is_empty());
        assert!(out.asm == direct.asm, "AG and direct assembly differ");
    })
    .join()
    .expect("neither a stack overflow nor a panic");
}

/// The four recursive shapes, `depth` levels deep: parentheses,
/// compound statements, `if … then` and unary minus.
fn nested_programs(depth: usize) -> [(&'static str, String); 4] {
    let program = |body: String| format!("program p; var x: integer; begin {body}; write(x) end.");
    [
        (
            "parentheses",
            program(format!("x := {}1{}", "(".repeat(depth), ")".repeat(depth))),
        ),
        (
            "begin",
            program(format!(
                "{}x := 1{}",
                "begin ".repeat(depth),
                " end".repeat(depth)
            )),
        ),
        (
            "if-then",
            program(format!("x := 0; {}x := 1", "if x = 0 then ".repeat(depth))),
        ),
        (
            "unary minus",
            program(format!("x := {}1", "- ".repeat(depth))),
        ),
    ]
}

#[test]
fn nesting_past_the_limit_is_a_parse_error_and_at_it_compiles() {
    // `std::thread::spawn`'s default stack — what a pool worker has.
    std::thread::spawn(|| {
        let compiler = Compiler::new();
        for (shape, src) in nested_programs(100_000) {
            match compiler.compile(&src) {
                Err(CompileError::Parse(e)) => {
                    assert!(e.msg.contains(&MAX_NESTING.to_string()), "{shape}: {e}")
                }
                Err(e) => panic!("{shape}: expected a parse error, got {e}"),
                Ok(_) => panic!("{shape}: 100 000 levels compiled"),
            }
        }
        for (shape, src) in nested_programs(MAX_NESTING + 1) {
            assert!(
                matches!(compiler.compile(&src), Err(CompileError::Parse(_))),
                "{shape}: one level past the limit"
            );
        }
        for (shape, src) in nested_programs(MAX_NESTING) {
            let out = compiler
                .compile(&src)
                .unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert!(out.errors.is_empty(), "{shape}: {:?}", out.errors);
            let direct = compile_direct(&parser::parse(&src).expect("parses"));
            assert!(direct.errors.is_empty(), "{shape}: {:?}", direct.errors);
            assert!(
                out.asm == direct.asm,
                "{shape}: AG and direct assembly differ"
            );
        }
    })
    .join()
    .expect("neither a stack overflow nor a panic");
}
