//! A compile against a cached prelude does no work for the prelude's
//! declarations: it neither copies them nor re-collects their types. The
//! heap allocations of one compile are counted on this thread, and must be
//! the same whether the prelude is v1model's or v1model's plus forty more
//! extern declarations. Any per-declaration prelude work shows up as a
//! difference.
//!
//! The count is per thread, so tests running beside this one do not
//! disturb it.

use p4t_targets::v1model::V1MODEL_PRELUDE;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the thread-local may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Compile `source` against `prelude` with v1model's package roots.
fn compile(prelude: &str, source: &str) {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let compiled = p4t_ir::compile_with_prelude(prelude, source, v1.package_roots());
    assert!(compiled.is_ok(), "the program compiles: {:?}", compiled.err());
}

#[test]
fn a_compile_allocates_the_same_whatever_the_prelude_declares() {
    let mut bigger = V1MODEL_PRELUDE.to_string();
    for i in 0..40 {
        bigger.push_str(&format!("extern void extra_{i}(in bit<8> a, inout bit<16> b);\n"));
    }
    let source = p4t_corpus::FIG1A;
    // The first compile against each prelude fills its cache entry.
    compile(V1MODEL_PRELUDE, source);
    compile(&bigger, source);
    let base = allocations(|| compile(V1MODEL_PRELUDE, source));
    let more = allocations(|| compile(&bigger, source));
    assert_eq!(base, more, "40 more prelude declarations changed a compile's allocations");
    // Repeating a compile repeats its count: nothing is cached per source.
    assert_eq!(allocations(|| compile(V1MODEL_PRELUDE, source)), base);
}
