//! What paths and tests share costs no allocation to copy. The heap
//! allocations of each operation are counted on this thread:
//!
//! - values of at most 128 bits are built, combined and cloned inline;
//! - a test holds its path's trace, so cloning it copies no line;
//! - a fork's first write to the environment copies the map's nodes, not
//!   its slot names or taint masks;
//! - a solver check that repeats an earlier check's list encodes and
//!   solves on the storage that check left.
//!
//! The count is per thread, so tests running beside these do not disturb
//! them.

use p4t_smt::{BitVec, CheckResult, Solver, TermPool};
use p4t_targets::V1Model;
use p4testgen_core::{ExecState, Sym, Testgen, TestgenConfig, TestSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

#[test]
fn values_up_to_128_bits_do_not_allocate() {
    let size = std::mem::size_of::<BitVec>();
    assert!(size <= 32, "BitVec is {size} bytes");
    for w in [1, 8, 48, 64, 65, 100, 128] {
        let (n, ()) = allocations(|| {
            let a = black_box(BitVec::from_u128(w, 0xDEAD_BEEF_0123_4567_89AB_CDEF_F00D_CAFE));
            let b = black_box(BitVec::from_u128(w, u128::MAX / 3));
            black_box(a.add(&b));
            black_box(a.and(&b));
            black_box(a.clone());
            let high = a.extract(w - 1, w / 2);
            black_box(high.concat(&b.extract((w / 2).max(1) - 1, 0)));
        });
        assert_eq!(n, 0, "width {w}: {n} allocations");
    }
}

/// The first test of FIG1A's suite.
fn emitted_test() -> TestSpec {
    let config = TestgenConfig::default();
    let mut tg = Testgen::new("fig1a", p4t_corpus::FIG1A, V1Model::new(), config).expect("builds");
    let mut first = None;
    tg.run(|t| {
        first = Some(t.clone());
        false
    });
    first.expect("FIG1A emits a test")
}

#[test]
fn cloning_a_test_costs_the_same_whatever_its_trace_length() {
    let short = emitted_test();
    assert!(short.trace.iter().count() > 0, "an emitted test carries its path's trace");
    let trace = (0..1000).map(|i| format!("step {i}")).collect();
    let long = TestSpec { trace, ..short.clone() };
    let (a, _) = allocations(|| short.clone());
    let (b, _) = allocations(|| long.clone());
    assert_eq!(a, b, "a 1000-line trace changed the clone's allocations");
}

#[test]
fn a_forks_first_write_copies_no_slot_name_or_taint() {
    let pool = TermPool::new();
    let mut parent = ExecState::new(0);
    for i in 0..100u64 {
        let term = pool.constant(BitVec::from_u64(16, i));
        parent.write(&format!("meta.slot_{i:03}"), Sym::clean(term, 16));
    }
    let fresh = Sym::clean(pool.constant(BitVec::from_u64(16, 0xFFFF)), 16);
    let mut child = parent.fork(1);
    let (n, ()) = allocations(|| child.write("meta.slot_050", fresh.clone()));
    assert!(n < 100, "the first write after a fork made {n} allocations over 100 slots");
    let old = pool.constant(BitVec::from_u64(16, 50));
    assert_eq!(parent.read("meta.slot_050").map(|s| s.term), Some(old));
    assert_eq!(child.read("meta.slot_050"), Some(&fresh));
}

#[test]
fn a_repeated_check_allocates_nothing() {
    // Slices of one 112-bit header-like variable, bound and compared, plus
    // an adder over a slice: the shapes a path constraint takes.
    let pool = TermPool::new();
    let hdr = pool.fresh_var("hdr", 112);
    let port = pool.fresh_var("port", 16);
    let list = [
        pool.eq(pool.extract(15, 0, hdr), pool.const_u128(16, 0x86DD)),
        pool.eq(pool.extract(63, 48, hdr), port),
        pool.ult(pool.add(pool.extract(47, 16, hdr), pool.const_u128(32, 7)), pool.const_u128(32, 100)),
        pool.not(pool.eq(port, pool.const_u128(16, 0))),
    ];
    let mut solver = Solver::new();
    assert_eq!(solver.check_assuming(&pool, &list), CheckResult::Sat);
    let (n, verdict) = allocations(|| solver.check_assuming(&pool, &list));
    assert_eq!(verdict, CheckResult::Sat);
    assert_eq!(n, 0, "repeating a check made {n} allocations");
}
