//! Allocation budgets on the lint request path, counted by a global
//! allocator that tallies the calling thread's allocations.
//!
//! * Parsing a `lint-edits`-shaped program (200 functions: 20 callers of
//!   9 leaves each, ~1,500 lines) allocates once per distinct identifier,
//!   once per function definition (its owned name), once per statement
//!   block, plus a small constant for the parser's own tables. The seed
//!   parser allocated per token and per line, several thousand times.
//! * Parsing it again after one leaf was edited, once its blocks have
//!   been seen twice, allocates only for what is parsed afresh (`main`
//!   and the edited function); every other definition comes shared from
//!   the parser's block table.
//! * Resolving an instrument that is already registered allocates
//!   nothing.

use gp_checker::ir::{FunctionDef, Program, Stmt};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the thread-local tally is a plain `Cell` (no allocation, no
// reentrancy into the allocator).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The shape of the serving benchmark's `lint-edits` base program: the
/// four leaf bodies it draws from, 20 callers of 9 leaves each, and a
/// `main` that calls every caller.
fn lint_edits_program() -> String {
    const LEAVES: [&str; 4] = [
        "    iter it = begin A\n    push_back B\n    deref it\n    advance it\n",
        "    iter it = begin A\n    push_back A\n    deref it\n    advance it\n",
        "    call sort A\n    call find A -> it\n    push_back B\n    clear B\n",
        "    container t vector\n    push_back t\n    iter i = begin t\n    \
         while i != end {\n        deref i\n        advance i\n    }\n",
    ];
    let mut src = String::new();
    let mut main = String::from("container V vector\ncontainer W list\n");
    for m in 0..20 {
        let mut mid = format!("fn mid_{m:02}(A, B) {{\n    push_back B\n");
        for l in 0..9 {
            let name = format!("leaf_{m:02}_{l}");
            mid.push_str(&format!("    invoke {name}(A, B)\n"));
            src.push_str(&format!("fn {name}(A, B) {{\n{}}}\n", LEAVES[(m + l) % 4]));
        }
        mid.push_str("}\n");
        src.push_str(&mid);
        main.push_str(&format!("invoke mid_{m:02}(V, W)\n"));
    }
    src + &main
}

/// Distinct identifiers and statement blocks of a parsed program.
fn names_and_blocks(p: &Program) -> (usize, usize) {
    fn walk<'a>(stmts: &'a [Stmt], names: &mut HashSet<&'a str>, blocks: &mut usize) {
        if !stmts.is_empty() {
            *blocks += 1;
        }
        for s in stmts {
            match s {
                Stmt::DeclContainer { name, .. } => {
                    names.insert(name);
                }
                Stmt::DeclIter {
                    name, container, ..
                } => {
                    names.extend([&**name, &**container]);
                }
                Stmt::Advance { iter } | Stmt::Deref { iter } => {
                    names.insert(iter);
                }
                Stmt::Erase {
                    container,
                    iter,
                    capture,
                } => {
                    names.extend([&**container, &**iter]);
                    names.extend(capture.as_deref());
                }
                Stmt::Insert { container, iter } => {
                    names.extend([&**container, &**iter]);
                }
                Stmt::PushBack { container } | Stmt::Clear { container } => {
                    names.insert(container);
                }
                Stmt::Assign { dst, src } => {
                    names.extend([&**dst, &**src]);
                }
                Stmt::Call {
                    container, capture, ..
                } => {
                    names.insert(container);
                    names.extend(capture.as_deref());
                }
                Stmt::While { cond, body } => {
                    if let gp_checker::ir::Cond::IterNotEnd { iter } = cond {
                        names.insert(iter);
                    }
                    walk(body, names, blocks);
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                } => {
                    walk(then_branch, names, blocks);
                    walk(else_branch, names, blocks);
                }
                Stmt::Invoke { function, args } => {
                    names.insert(function);
                    names.extend(args.iter().map(|a| &**a));
                }
            }
        }
    }
    let mut names = HashSet::new();
    let mut blocks = 0;
    for f in &p.functions {
        let FunctionDef { params, body, .. } = f;
        names.extend(params.iter().map(|a| &**a));
        walk(body, &mut names, &mut blocks);
    }
    walk(&p.stmts, &mut names, &mut blocks);
    (names.len(), blocks)
}

#[test]
fn parsing_allocates_per_name_and_block_not_per_token() {
    let src = lint_edits_program();
    assert!(src.lines().count() > 1_400, "the benchmark's program size");
    let (program, allocs) = count(|| gp_checker::parse::parse("edits", &src));
    let program = program.expect("parses");
    assert_eq!(program.functions.len(), 200);
    let (names, blocks) = names_and_blocks(&program);
    let budget = names + program.functions.len() + blocks + 64;
    assert!(
        allocs as usize <= budget,
        "{allocs} allocations; budget {budget} = {names} names + {} definitions + \
         {blocks} blocks + 64",
        program.functions.len()
    );
}

#[test]
fn a_warm_parse_allocates_for_the_fresh_text_only() {
    // Names of its own: the cold-parse test above must see its program
    // for the first time, and the block table is process-wide.
    let base = lint_edits_program()
        .replace("leaf_", "wleaf_")
        .replace("mid_", "wmid_");
    // A block is admitted on its second sighting. Three parses admit
    // every block even if another test's blocks overwrite some of the
    // sightings recorded by the first.
    for _ in 0..3 {
        gp_checker::parse::parse("edits", &base).expect("parses");
    }
    let header = "fn wleaf_07_3(A, B) {\n";
    let at = base.find(header).expect("leaf present") + header.len();
    let mut edited = base.clone();
    edited.insert_str(at, "    container e1 vector\n    push_back e1\n");
    let (program, allocs) = count(|| gp_checker::parse::parse("edits", &edited));
    let program = program.expect("parses");
    assert_eq!(program.functions.len(), 200);
    // What was parsed afresh: `main` and the edited function.
    let fresh = Program::with_functions(
        "fresh",
        program.stmts.clone(),
        program
            .functions
            .iter()
            .filter(|f| f.name == "wleaf_07_3")
            .cloned()
            .collect::<Vec<_>>(),
    );
    let (names, blocks) = names_and_blocks(&fresh);
    let budget = names + fresh.functions.len() + blocks + 32;
    assert!(
        allocs as usize <= budget,
        "{allocs} allocations; budget {budget} = {names} names + {} definition + \
         {blocks} blocks + 32",
        fresh.functions.len()
    );
}

#[test]
fn resolving_a_registered_instrument_does_not_allocate() {
    let reg = gp_telemetry::Registry::new();
    reg.counter("alloc_counts.c");
    reg.gauge("alloc_counts.g");
    reg.histogram("alloc_counts.h");
    let (_, allocs) = count(|| {
        reg.counter("alloc_counts.c").incr();
        reg.gauge("alloc_counts.g").add(1);
        reg.histogram("alloc_counts.h").record(7);
    });
    assert_eq!(allocs, 0);
    // A first registration does allocate (the name and the instrument).
    let (_, allocs) = count(|| reg.counter("alloc_counts.new"));
    assert!(allocs > 0);
}
