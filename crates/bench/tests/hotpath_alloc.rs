//! Proof of the hot path's zero-allocation claim: once the scratch
//! arenas are warmed, trigger enumeration, fingerprint interning,
//! the discovery-time ground-head probe and activeness checking
//! perform **no heap allocation**, and neither does a warmed JSON
//! Lines sink encoding an event.
//!
//! The test installs a counting global allocator and must therefore be
//! the only test in this binary (other tests' allocations on sibling
//! threads would pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use chase_bench::closure_workload;
use chase_core::atom::Atom;
use chase_core::hom::{exists_homomorphism_with, HomScratch};
use chase_core::ids::fx_set;
use chase_engine::restricted::{ChaseVariant, Strategy};
use chase_engine::trigger::{
    for_each_trigger_using_with, for_each_trigger_with, ground_head_into, TriggerFp,
};
use chase_telemetry::{ChaseObserver, EngineKind, Event, JsonlWriter};

/// Delegates to the system allocator, counting allocation events while
/// the `COUNTING` gate is up.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warmed_trigger_hot_path_allocates_nothing() {
    // Transitive closure over a random 40-node graph: multi-atom body
    // joins with plenty of candidate triggers.
    let (_vocab, set, instance) = closure_workload(40, 120);
    let delta_slot = instance.len() - 1;

    let mut enum_scratch = HomScratch::new();
    let mut probe_scratch = HomScratch::new();
    let mut head = Atom::new(chase_core::ids::PredId(0), Vec::new());
    let mut seen = fx_set();
    let fifo = ChaseVariant::Restricted(Strategy::Fifo);

    // Warm-up pass: drive every buffer to its capacity high-water mark
    // and populate the seen-set (insertion allocates; the measured
    // pass only probes membership).
    let mut pass = |count: bool,
                    hits: &mut usize,
                    seen: &mut chase_core::ids::FxHashSet<TriggerFp>| {
        // What the restricted chase does per discovered trigger: key
        // it by the images of `ChaseVariant::fp_vars` (the frontier
        // under FIFO), and for a single-head full TGD build the ground
        // head, probe the instance for it, and key the trigger by it.
        let mut discover = |fp: TriggerFp, head: &Atom, hits: &mut usize| {
            let _ = instance.contains(head);
            let head_fp = TriggerFp::of_ground_head(head);
            assert!(
                fp.is_inline() && head_fp.is_inline(),
                "closure keys stay inline"
            );
            for fp in [fp, head_fp] {
                if count {
                    if seen.contains(&fp) {
                        *hits += 1;
                    }
                } else {
                    seen.insert(fp);
                }
            }
        };
        let _ = for_each_trigger_with(&mut enum_scratch, &set, &instance, &mut |id, b| {
            let tgd = set.tgd(id);
            ground_head_into(tgd, b, &mut head);
            discover(TriggerFp::of(id, b, fifo.fp_vars(tgd)), &head, hits);
            // Activeness probe seeded with the full body binding.
            let active = !exists_homomorphism_with(&mut probe_scratch, tgd.head(), &instance, b);
            let _ = active;
            ControlFlow::Continue(())
        });
        let _ = for_each_trigger_using_with(
            &mut enum_scratch,
            &set,
            &instance,
            delta_slot,
            &mut |id, b| {
                let tgd = set.tgd(id);
                ground_head_into(tgd, b, &mut head);
                discover(TriggerFp::of(id, b, fifo.fp_vars(tgd)), &head, hits);
                ControlFlow::Continue(())
            },
        );
    };

    let mut warm_hits = 0usize;
    pass(false, &mut warm_hits, &mut seen);
    let total = seen.len();
    assert!(total > 0, "workload must produce triggers");

    // Measured pass: identical enumeration + fingerprints + ground
    // heads + activeness + membership probes, zero allocations.
    let mut hits = 0usize;
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    pass(true, &mut hits, &mut seen);
    COUNTING.store(false, Ordering::SeqCst);

    assert!(hits >= total, "measured pass re-discovered every trigger");
    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst),
        0,
        "steady-state trigger enumeration and activeness checks must be allocation-free"
    );

    // The flat-JSON encoder writes integers and escaped strings into
    // the sink's reused line buffer, so an observed run pays no
    // allocation per event either.
    let events = [
        Event::TriggerApplied {
            engine: EngineKind::Restricted,
            tgd: 3,
            step: u64::MAX,
            new_atoms: 2,
            new_nulls: 1,
        },
        Event::CounterAdd {
            name: "needs \"escaping\"\n",
            delta: 17,
        },
        Event::SpanExited {
            span: "step",
            tgd: 1,
            nanos: 123_456_789,
        },
    ];
    let mut sink = JsonlWriter::new(std::io::sink());
    for event in &events {
        sink.on_event(event);
    }
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for event in events.iter().cycle().take(3_000) {
        sink.on_event(event);
    }
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(sink.events_written(), 3_003);
    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst),
        0,
        "a warmed JsonlWriter must encode events without allocating"
    );
}
