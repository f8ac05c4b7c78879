//! Proof of the hot path's zero-allocation claim: once the scratch
//! arenas are warmed, trigger enumeration, the per-TGD trigger
//! identity (the discovery-time ground-head probe and the `seen` key),
//! rebuilding a binding and activeness checking perform **no heap
//! allocation**, and neither does a warmed JSON Lines sink encoding an
//! event.
//!
//! The test installs a counting global allocator. It counts only the
//! allocations of the thread that raised its thread-local `COUNTING`
//! flag, so allocations by the harness or any other thread of the test
//! process never land in a counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use chase_bench::closure_workload;
use chase_core::hom::{exists_homomorphism_with, HomScratch, SlotBinding};
use chase_core::ids::fx_map;
use chase_core::subst::Binding;
use chase_core::tgd::TgdId;
use chase_engine::restricted::{ChaseVariant, Seen, Strategy, TriggerIdentity};
use chase_engine::trigger::{for_each_trigger_using_with, for_each_trigger_with, TriggerFp};
use chase_telemetry::{ChaseObserver, EngineKind, Event, JsonlWriter};

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
fn warmed_trigger_hot_path_allocates_nothing() {
    // Transitive closure over a random 40-node graph: multi-atom body
    // joins with plenty of candidate triggers.
    let (_vocab, set, instance) = closure_workload(40, 120);
    let delta_slot = instance.len() - 1;

    let mut enum_scratch = HomScratch::new();
    let mut probe_scratch = HomScratch::new();
    let mut head = Vec::new();
    let mut binding = Binding::new();
    let mut seen: Seen = fx_map();
    // The identities a run fixes per TGD: the restricted FIFO chase's
    // (the ground head, for these full rules) and the semi-oblivious
    // chase's (the frontier image).
    let identities: Vec<[TriggerIdentity<'_>; 2]> = set
        .tgds()
        .iter()
        .map(|tgd| {
            [
                TriggerIdentity::of(ChaseVariant::Restricted(Strategy::Fifo), tgd),
                TriggerIdentity::of(ChaseVariant::SemiOblivious, tgd),
            ]
        })
        .collect();

    // Warm-up pass: drive every buffer to its capacity high-water mark
    // and populate the seen-set (insertion allocates; the measured
    // pass admits nothing new, so it only probes).
    let mut pass = |seen: &mut Seen| -> (usize, usize) {
        let (mut candidates, mut admitted) = (0usize, 0usize);
        // What the chase does per discovered trigger: admit it through
        // its TGD's identity, which for a single-head full TGD under
        // FIFO builds the ground head from the match's slots and probes
        // the seen-set and the instance for it.
        let mut discover = |id: TgdId, m: &SlotBinding<'_>| {
            for identity in identities[id.index()] {
                candidates += 1;
                if identity.admit(id, m, &instance, seen, &mut head) {
                    admitted += 1;
                }
            }
        };
        let _ = for_each_trigger_with(&mut enum_scratch, &set, &instance, |id, m| {
            discover(id, m);
            // Activeness probe seeded with the full body binding,
            // rebuilt as the chase rebuilds a popped trigger's.
            binding.clear();
            for (v, t) in m.pairs() {
                binding.push(v, t);
            }
            let tgd = set.tgd(id);
            let active =
                !exists_homomorphism_with(&mut probe_scratch, tgd.head(), &instance, &binding);
            let _ = active;
            ControlFlow::Continue(())
        });
        let _ =
            for_each_trigger_using_with(&mut enum_scratch, &set, &instance, delta_slot, |id, m| {
                discover(id, m);
                ControlFlow::Continue(())
            });
        (candidates, admitted)
    };

    let (_, warm_admitted) = pass(&mut seen);
    assert!(warm_admitted > 0, "workload must produce triggers");
    assert!(
        seen.keys().all(TriggerFp::is_inline),
        "closure keys stay inline"
    );

    // Measured pass: identical enumeration + identities (ground heads,
    // seen-set and membership probes, keys) + activeness, zero
    // allocations.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    let (candidates, admitted) = pass(&mut seen);
    COUNTING.set(false);

    assert!(candidates > warm_admitted, "measured pass re-ran discovery");
    assert_eq!(
        admitted, 0,
        "measured pass re-discovered only seen triggers"
    );
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
    COUNTING.set(true);
    for event in events.iter().cycle().take(3_000) {
        sink.on_event(event);
    }
    COUNTING.set(false);
    assert_eq!(sink.events_written(), 3_003);
    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst),
        0,
        "a warmed JsonlWriter must encode events without allocating"
    );
}
