//! Allocation gate for compiling a program: a cold [`compile`] of a
//! ~182 KB ingest-shaped program ([`chase_bench::ingest_program`])
//! makes at most one heap allocation per parsed fact. The parser
//! streams tokens as spans of the source and resolves each fact into
//! reused buffers, and the vocabulary interns constant names into one
//! arena, so what remains is the growth of the tables themselves.
//!
//! The test installs a counting global allocator. It counts only the
//! allocations of the thread that raised its thread-local `COUNTING`
//! flag, so allocations by the harness or any other thread of the test
//! process never land in a counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use chase_bench::ingest_program;
use chase_core::compile::compile;

/// Delegates to the system allocator, counting the allocation events of
/// a thread whose `COUNTING` flag is up.
struct CountingAlloc;

thread_local! {
    /// Up while this thread is inside a counting window. Const-initialised
    /// and without a destructor, so the allocator can read it without
    /// allocating or registering anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation event if the calling thread is counting.
fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn compiling_allocates_at_most_once_per_fact() {
    let src = ingest_program(4000);
    assert!(
        (150_000..250_000).contains(&src.len()),
        "ingest program is {} bytes",
        src.len()
    );
    let facts = src.lines().filter(|line| !line.contains("->")).count();

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    let program = compile(&src).expect("ingest program compiles");
    COUNTING.set(false);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(program.database().len() <= facts);
    let per_fact = allocations as f64 / facts as f64;
    println!(
        "compile: {} bytes, {facts} facts, {allocations} allocations ({per_fact:.3} per fact)",
        src.len()
    );
    assert!(
        per_fact <= 1.0,
        "compile made {allocations} allocations for {facts} facts ({per_fact:.3} per fact)"
    );
}
