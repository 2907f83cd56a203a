//! A program far longer than any stack is deep.
//!
//! A statement list's code is a list-shaped rope, one level per
//! statement, and so is the list's subtree. Nothing between source text
//! and freed store may recurse once per statement: the pool's workers
//! (and this test's thread) run on 2 MiB stacks, and 100 000 statements
//! used to compile correctly and then overflow the stack while the
//! attribute store was being dropped.

use paragram_pascal::{direct::compile_direct, parser, Compiler};

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
