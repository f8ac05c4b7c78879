//! `hotpath_report` — times the frozen seed engines against the
//! optimised hot path on the macro workloads and writes a JSON report
//! (`BENCH_hotpath.json` by default).
//!
//! Every row first re-verifies bit-identity (same steps, same final
//! instance) between the engines being compared, so the speedups are
//! speedups of the *same* computation.
//!
//! Usage:
//!   cargo run --release -p chase-bench --bin hotpath_report
//!   cargo run --release -p chase-bench --bin hotpath_report -- --mode smoke --out target/smoke.json
//!
//! In smoke mode the report doubles as a perf-regression gate: if any
//! optimised engine is slower than its seed baseline by more than
//! `HOTPATH_GATE_TOLERANCE` (a slowdown factor, default 1.5, i.e. the
//! optimised run may take at most 1.5× the seed's time), the process
//! exits non-zero. The generous tolerance absorbs timer noise on tiny
//! smoke workloads while still catching order-of-magnitude
//! regressions of the hot path.
//!
//! Each row also carries a span-attribution profile (one profiled run
//! per workload: wall-clock per engine phase plus peak instance
//! bytes). The `scale` row times the restricted engine alone on the
//! ontology-scale chain workload (`chase_workloads::scale`, ≥4·10⁴
//! facts even in smoke mode) with its peak instance bytes and the
//! final instance's bytes per atom; the seed engine is too slow to
//! pair with it. The `ingest_compile` row times a cold `compile` of the
//! ~182 KB ingest-shaped program (`chase_bench::ingest_program`) and
//! reports it per source byte, with the compiled database's
//! `Instance::memory_footprint` (`instance_bytes`) and its bytes per
//! atom; it carries no gate (`tests/instance_bytes.rs` bounds the bytes
//! per atom). The `compile_examples` row times a cold `compile` of the
//! small example programs `examples/rules/example_5_6.chase` and
//! `intro.chase` (min over samples of 200 compiles, per compile); it
//! carries no gate. The `decide_sweep` section decides seeds 0–199 of
//! the decide sweep (`chase_workloads::random::DECIDE_SWEEP`, the
//! generator `tests/golden/decide_sweep.txt` pins) and records the
//! verdict counts, the certificate kinds and each seed's decide time
//! (min of 3 runs; one run for a seed whose first takes a second or
//! more), with the total, p50, p99, max and the five slowest seeds.
//! Smoke mode decides the first 8 seeds; the section carries no gate.
//! The `guarded_seed_search` section decides the two guarded suite
//! entries whose verdict comes from the seed search (`example-5-6` and
//! `guarded-side-unlocks-loop`) and records each one's minimum decide
//! time and the heap allocations of one decide; it carries no gate.

use std::hint::black_box;
use std::time::Instant;

use chase_bench::{
    closure_workload, existential_workload, fan_workload, ingest_program, triangle_workload,
    wide_existential_workload,
};
use chase_core::compile::compile;
use chase_core::instance::Instance;
use chase_core::parser::parse_tgds;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::restricted::{Budget, ChaseVariant, RestrictedChase};
use chase_engine::seed::{SeedObliviousChase, SeedRestrictedChase};
use chase_server::cache::{ProgramCache, ProgramCacheConfig};
use chase_telemetry::{spans, SpanObserver};
use chase_termination::{decide, DeciderConfig, TerminationVerdict};
use chase_workloads::random::{random_tgds, DECIDE_SWEEP, DECIDE_SWEEP_SEEDS};
use chase_workloads::scale::{scale_workload, ScaleParams, Shape};
use chase_workloads::suite::labelled_suite;

/// Counts every allocation (and reallocation) into
/// [`chase_telemetry::alloc_track`], for the allocation figures of the
/// `guarded_seed_search` section. The library crate forbids `unsafe`,
/// so the `GlobalAlloc` shim lives here in the binary.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the extra work is one
// relaxed atomic add, which cannot allocate, unwind or alias.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        chase_telemetry::alloc_track::note(1);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        chase_telemetry::alloc_track::note(1);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        chase_telemetry::alloc_track::note(1);
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Phase attribution from one profiled run of a workload: where the
/// wall-clock inside the engine actually went.
struct PhaseProfile {
    match_ns: u64,
    check_ns: u64,
    insert_ns: u64,
    seed_ns: u64,
    peak_bytes: u64,
}

/// One seed-vs-optimised comparison on one workload.
struct Row {
    name: &'static str,
    steps: usize,
    atoms: usize,
    seed_ns: u128,
    opt_ns: u128,
    profile: PhaseProfile,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.seed_ns as f64 / self.opt_ns.max(1) as f64
    }
}

/// Cold-compile vs warm cache-hit cost of the server's program cache
/// on a many-rule program (DESIGN.md §18): `cold_ns` is a fresh
/// cache's `resolve_source` (parse + plans + fingerprint), `warm_ns`
/// the same call against a pre-warmed cache (source-alias lookup, no
/// parse). The gap is what a resident server saves every time a tenant
/// resubmits a rule set.
struct ServerWarm {
    rules: usize,
    source_bytes: usize,
    cold_ns: u128,
    warm_ns: u128,
}

impl ServerWarm {
    fn speedup(&self) -> f64 {
        self.cold_ns as f64 / self.warm_ns.max(1) as f64
    }
}

/// A synthetic many-rule program: layered chains with existential
/// heads, rendered as source text — the cache is addressed by text, so
/// the benchmark must pay the same parse the server would.
fn synthetic_program_text(rules: usize) -> String {
    let mut out = String::with_capacity(rules * 32 + 64);
    out.push_str("P0(c0,c1).\nP0(c1,c2).\nP0(c2,c0).\n");
    for i in 0..rules {
        let a = i % 97;
        let b = (i + 1) % 97;
        if i % 3 == 0 {
            out.push_str(&format!("P{a}(x,y) -> exists z. P{b}(y,z).\n"));
        } else {
            out.push_str(&format!("P{a}(x,y), P{b}(y,w) -> P{a}(w,x).\n"));
        }
    }
    out
}

fn server_warm_section(rules: usize, runs: usize) -> ServerWarm {
    let source = synthetic_program_text(rules);
    let cold_ns = min_ns(runs, || {
        // A fresh cache per run: every resolve is a full compile.
        let cache = ProgramCache::new(ProgramCacheConfig::default());
        black_box(
            cache
                .resolve_source(&source, "bench")
                .expect("synthetic program compiles"),
        );
    });
    let warm_cache = ProgramCache::new(ProgramCacheConfig::default());
    warm_cache
        .resolve_source(&source, "bench")
        .expect("synthetic program compiles");
    let warm_ns = min_ns(runs.max(5), || {
        black_box(
            warm_cache
                .resolve_source(&source, "bench")
                .expect("warm resolve"),
        );
    });
    ServerWarm {
        rules,
        source_bytes: source.len(),
        cold_ns,
        warm_ns,
    }
}

/// Cold [`compile`] of an ingest-shaped program
/// ([`chase_bench::ingest_program`]): the parse/compile layer a served
/// `chase_ingest` request pays before its chase starts.
struct IngestCompile {
    source_bytes: usize,
    facts: usize,
    ns: u128,
    /// The compiled database's `Instance::memory_footprint` total.
    instance_bytes: u64,
}

impl IngestCompile {
    fn ns_per_byte(&self) -> f64 {
        self.ns as f64 / self.source_bytes.max(1) as f64
    }

    fn bytes_per_atom(&self) -> f64 {
        self.instance_bytes as f64 / self.facts.max(1) as f64
    }
}

fn ingest_compile_section(runs: usize) -> IngestCompile {
    let source = ingest_program(4000);
    let program = compile(&source).expect("ingest program compiles");
    let database = program.database();
    let ns = min_ns(runs, || {
        black_box(compile(&source).expect("ingest program compiles"));
    });
    IngestCompile {
        source_bytes: source.len(),
        facts: database.len(),
        ns,
        instance_bytes: database.memory_footprint().total(),
    }
}

/// Cold [`compile`] of one small example program, per compile.
struct ExampleCompile {
    name: &'static str,
    source_bytes: usize,
    rules: usize,
    ns: u128,
}

/// The programs of the `compile_examples` row, by file name.
const COMPILE_EXAMPLES: [(&str, &str); 2] = [
    (
        "example_5_6.chase",
        include_str!("../../../../examples/rules/example_5_6.chase"),
    ),
    (
        "intro.chase",
        include_str!("../../../../examples/rules/intro.chase"),
    ),
];

/// Compiles per timed sample: one compile of an example program takes a
/// few microseconds, too close to the clock's own cost to time alone.
const COMPILES_PER_SAMPLE: u32 = 200;

fn compile_examples_section(samples: usize) -> Vec<ExampleCompile> {
    COMPILE_EXAMPLES
        .iter()
        .map(|&(name, source)| {
            let rules = compile(source).expect("example compiles").tgd_set().len();
            let ns = min_ns(samples, || {
                for _ in 0..COMPILES_PER_SAMPLE {
                    black_box(compile(black_box(source)).expect("example compiles"));
                }
            });
            ExampleCompile {
                name,
                source_bytes: source.len(),
                rules,
                ns: ns / u128::from(COMPILES_PER_SAMPLE),
            }
        })
        .collect()
}

/// `decide` over the first seeds of the decide sweep: verdicts,
/// certificate kinds and each seed's decide time.
struct DecideSweep {
    terminating: usize,
    non_terminating: usize,
    unknown: usize,
    /// Terminating verdicts per certificate kind, by kind name.
    certificates: std::collections::BTreeMap<String, usize>,
    /// Each seed's minimum decide time, in seed order.
    ns: Vec<u128>,
}

impl DecideSweep {
    /// The nearest-rank `q` quantile of the per-seed times.
    fn quantile(&self, q: f64) -> u128 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
        sorted.get(rank - 1).copied().unwrap_or(0)
    }

    /// The five slowest seeds, slowest first.
    fn slowest(&self) -> Vec<(usize, u128)> {
        let mut by_time: Vec<(usize, u128)> = self.ns.iter().copied().enumerate().collect();
        by_time.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_time.truncate(5);
        by_time
    }
}

fn decide_sweep_section(seeds: u64) -> DecideSweep {
    let config = DeciderConfig::default();
    let mut sweep = DecideSweep {
        terminating: 0,
        non_terminating: 0,
        unknown: 0,
        certificates: Default::default(),
        ns: Vec::new(),
    };
    for seed in 0..seeds {
        let mut vocab = Vocabulary::new();
        let set =
            parse_tgds(&random_tgds(&DECIDE_SWEEP, seed), &mut vocab).expect("sweep rules parse");
        let start = Instant::now();
        let verdict = decide(&set, &vocab, &config);
        let first = start.elapsed().as_nanos();
        let runs = if first >= 1_000_000_000 { 0 } else { 2 };
        let rest = min_ns(runs, || {
            black_box(decide(&set, &vocab, &config));
        });
        sweep
            .ns
            .push(if runs == 0 { first } else { first.min(rest) });
        match verdict {
            TerminationVerdict::AllInstancesTerminating(cert) => {
                sweep.terminating += 1;
                let kind = format!("{cert:?}");
                let kind = kind.split(' ').next().unwrap_or_default().to_string();
                *sweep.certificates.entry(kind).or_default() += 1;
            }
            TerminationVerdict::NonTerminating(_) => sweep.non_terminating += 1,
            TerminationVerdict::Unknown { .. } => sweep.unknown += 1,
        }
    }
    sweep
}

/// The guarded suite entries whose non-terminating verdict comes from
/// the seed search.
const GUARDED_SEED_SEARCH_ENTRIES: [&str; 2] = ["example-5-6", "guarded-side-unlocks-loop"];

/// One guarded entry's decide: minimum time and the allocations of
/// one run.
struct GuardedDecide {
    name: &'static str,
    ns: u128,
    allocations: u64,
}

fn guarded_seed_search_section(runs: usize) -> Vec<GuardedDecide> {
    let config = DeciderConfig::default();
    let suite = labelled_suite();
    GUARDED_SEED_SEARCH_ENTRIES
        .iter()
        .map(|&name| {
            let entry = suite
                .iter()
                .find(|e| e.name == name)
                .expect("guarded suite entry");
            let (vocab, set) = entry.build();
            let before = chase_telemetry::alloc_track::allocations();
            let verdict = decide(&set, &vocab, &config);
            let allocations = chase_telemetry::alloc_track::allocations() - before;
            assert!(
                matches!(verdict, TerminationVerdict::NonTerminating(_)),
                "{name}: {verdict:?}"
            );
            drop(verdict);
            let ns = min_ns(runs, || {
                black_box(decide(&set, &vocab, &config));
            });
            GuardedDecide {
                name,
                ns,
                allocations,
            }
        })
        .collect()
}

/// The restricted engine alone on one ontology-scale workload.
struct ScaleRow {
    workload: String,
    steps: usize,
    atoms: usize,
    ns: u128,
    peak_bytes: u64,
    /// The final instance's `Instance::memory_footprint` total.
    instance_bytes: u64,
}

impl ScaleRow {
    fn bytes_per_atom(&self) -> f64 {
        self.instance_bytes as f64 / self.atoms.max(1) as f64
    }
}

/// Minimum wall-clock nanoseconds over `runs` invocations of `f`.
///
/// Every run performs the bit-identical computation, so all variation
/// is external interference (scheduler, co-tenants, frequency
/// scaling); the minimum is the least-interfered — and therefore most
/// reproducible — estimate of the true cost.
fn min_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(u128::MAX)
}

/// One profiled run of `engine` → the phase attribution, after
/// re-checking that profiling did not perturb the derivation.
fn profile_restricted(
    engine: &RestrictedChase,
    db: &Instance,
    budget: Budget,
    reference: &chase_engine::restricted::ChaseRun,
    name: &str,
) -> PhaseProfile {
    let mut obs = SpanObserver::new();
    let run = engine.run_observed(db, budget, &mut obs);
    assert_eq!(reference.steps, run.steps, "{name}/profiled: step mismatch");
    assert_eq!(
        reference.instance, run.instance,
        "{name}/profiled: instance mismatch"
    );
    let p = obs.profile();
    assert_eq!(p.unbalanced, 0, "{name}/profiled: unbalanced spans");
    PhaseProfile {
        match_ns: p.span_total(spans::MATCH),
        check_ns: p.span_total(spans::RESTRICTION_CHECK),
        insert_ns: p.span_total(spans::INSERT),
        seed_ns: p.span_total(spans::SEED),
        peak_bytes: p.peak_bytes,
    }
}

fn restricted_row(
    name: &'static str,
    set: &TgdSet,
    db: &Instance,
    budget: Budget,
    runs: usize,
) -> Row {
    let seed_engine = SeedRestrictedChase::new(set);
    let opt_engine = RestrictedChase::new(set);

    let reference = seed_engine.run(db, budget);
    let run = opt_engine.run(db, budget);
    assert_eq!(reference.steps, run.steps, "{name}: step mismatch");
    assert_eq!(
        reference.instance, run.instance,
        "{name}: instance mismatch"
    );
    // Exhaustive spans (no 1-in-K sampling): the attribution run is
    // not the one being timed, so fidelity beats overhead here.
    let profile = profile_restricted(
        &opt_engine.clone().profile_sample_every(1),
        db,
        budget,
        &reference,
        name,
    );

    Row {
        name,
        steps: reference.steps,
        atoms: reference.instance.len(),
        seed_ns: min_ns(runs, || {
            black_box(seed_engine.run(db, budget));
        }),
        opt_ns: min_ns(runs, || {
            black_box(opt_engine.run(db, budget));
        }),
        profile,
    }
}

fn oblivious_row(
    name: &'static str,
    set: &TgdSet,
    db: &Instance,
    budget: Budget,
    runs: usize,
) -> Row {
    let seed_engine = SeedObliviousChase::new(set);
    let opt_engine = RestrictedChase::new(set).variant(ChaseVariant::Oblivious);

    let reference = seed_engine.run(db, budget);
    let run = opt_engine.run(db, budget);
    assert_eq!(reference.steps, run.steps, "{name}: step mismatch");
    assert_eq!(
        reference.instance, run.instance,
        "{name}: instance mismatch"
    );
    let profile = {
        let mut obs = SpanObserver::new();
        // Exhaustive spans: attribution fidelity over overhead.
        let run = opt_engine
            .clone()
            .profile_sample_every(1)
            .run_observed(db, budget, &mut obs);
        assert_eq!(reference.steps, run.steps, "{name}/profiled: step mismatch");
        assert_eq!(
            reference.instance, run.instance,
            "{name}/profiled: instance mismatch"
        );
        let p = obs.profile();
        assert_eq!(p.unbalanced, 0, "{name}/profiled: unbalanced spans");
        PhaseProfile {
            match_ns: p.span_total(spans::MATCH),
            check_ns: p.span_total(spans::RESTRICTION_CHECK),
            insert_ns: p.span_total(spans::INSERT),
            seed_ns: p.span_total(spans::SEED),
            peak_bytes: p.peak_bytes,
        }
    };

    Row {
        name,
        steps: reference.steps,
        atoms: reference.instance.len(),
        seed_ns: min_ns(runs, || {
            black_box(seed_engine.run(db, budget));
        }),
        opt_ns: min_ns(runs, || {
            black_box(opt_engine.run(db, budget));
        }),
        profile,
    }
}

/// Times the restricted engine on an ontology-scale workload, with the
/// peak instance bytes of a separate profiled run (default sampling
/// cadence) so the timed runs stay unobserved.
fn scale_row(
    workload: String,
    set: &TgdSet,
    db: &Instance,
    budget: Budget,
    runs: usize,
) -> ScaleRow {
    let engine = RestrictedChase::new(set);
    let reference = engine.run(db, budget);
    let mut obs = SpanObserver::new();
    let profiled = engine.run_observed(db, budget, &mut obs);
    assert_eq!(
        reference.steps, profiled.steps,
        "{workload}/profiled: step mismatch"
    );
    ScaleRow {
        workload,
        steps: reference.steps,
        atoms: reference.instance.len(),
        ns: min_ns(runs, || {
            black_box(engine.run(db, budget));
        }),
        peak_bytes: obs.profile().peak_bytes,
        instance_bytes: reference.instance.memory_footprint().total(),
    }
}

/// Everything the JSON report holds.
struct Report<'a> {
    mode: &'a str,
    host_cpus: usize,
    rows: &'a [Row],
    scale: &'a ScaleRow,
    server_warm: &'a ServerWarm,
    ingest: &'a IngestCompile,
    examples: &'a [ExampleCompile],
    sweep: &'a DecideSweep,
    guarded: &'a [GuardedDecide],
}

/// The JSON report.
fn render_json(report: &Report) -> String {
    let &Report {
        mode,
        host_cpus,
        rows,
        scale,
        server_warm,
        ingest,
        examples,
        sweep,
        guarded,
    } = report;
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(
        "  \"generated_by\": \"cargo run --release -p chase-bench --bin hotpath_report\",\n",
    );
    // Every engine is single-threaded; the host figure says what the
    // numbers were measured on.
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(
        "  \"baseline\": \"seed engines (frozen recursive matcher; shares the optimised \
         instance/atom layers, so baseline times improve as those layers do)\",\n",
    );
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"steps\": {}, \"atoms\": {}, \
             \"seed_ns\": {}, \"optimised_ns\": {}, \"speedup\": {:.2}, \
             \"profile\": {{\"match_ns\": {}, \"restriction_check_ns\": {}, \
             \"insert_ns\": {}, \"seed_phase_ns\": {}, \"peak_bytes\": {}}}}}{}\n",
            r.name,
            r.steps,
            r.atoms,
            r.seed_ns,
            r.opt_ns,
            r.speedup(),
            r.profile.match_ns,
            r.profile.check_ns,
            r.profile.insert_ns,
            r.profile.seed_ns,
            r.profile.peak_bytes,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scale\": {{\"workload\": \"{}\", \"engine\": \"restricted\", \"steps\": {}, \
         \"atoms\": {}, \"ns\": {}, \"peak_bytes\": {}, \"bytes_per_atom\": {:.1}}},\n",
        scale.workload,
        scale.steps,
        scale.atoms,
        scale.ns,
        scale.peak_bytes,
        scale.bytes_per_atom(),
    ));
    out.push_str(&format!(
        "  \"server_warm\": {{\"workload\": \"program cache resolve (cold compile vs \
         warm content-addressed hit)\", \"rules\": {}, \"source_bytes\": {}, \
         \"cold_ns\": {}, \"warm_ns\": {}, \"speedup\": {:.2}}},\n",
        server_warm.rules,
        server_warm.source_bytes,
        server_warm.cold_ns,
        server_warm.warm_ns,
        server_warm.speedup(),
    ));
    out.push_str(&format!(
        "  \"ingest_compile\": {{\"workload\": \"cold compile of an ingest-shaped program \
         (min of runs)\", \"source_bytes\": {}, \"facts\": {}, \"ns\": {}, \
         \"ns_per_byte\": {:.2}, \"instance_bytes\": {}, \"bytes_per_atom\": {:.1}}},\n",
        ingest.source_bytes,
        ingest.facts,
        ingest.ns,
        ingest.ns_per_byte(),
        ingest.instance_bytes,
        ingest.bytes_per_atom(),
    ));
    let entries: Vec<String> = examples
        .iter()
        .map(|e| {
            format!(
                "{{\"name\": \"{}\", \"source_bytes\": {}, \"rules\": {}, \"ns\": {}}}",
                e.name, e.source_bytes, e.rules, e.ns
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"compile_examples\": {{\"workload\": \"cold compile of examples/rules programs \
         (min over samples of {COMPILES_PER_SAMPLE} compiles, per compile)\", \"entries\": [{}]}},\n",
        entries.join(", "),
    ));
    let certificates: Vec<String> = sweep
        .certificates
        .iter()
        .map(|(kind, n)| format!("\"{kind}\": {n}"))
        .collect();
    let slowest: Vec<String> = sweep
        .slowest()
        .iter()
        .map(|(seed, ns)| format!("{{\"seed\": {seed}, \"ns\": {ns}}}"))
        .collect();
    let per_seed: Vec<String> = sweep.ns.iter().map(u128::to_string).collect();
    out.push_str(&format!(
        "  \"decide_sweep\": {{\"workload\": \"decide, default config, on seeds 0..{} of \
         random_tgds(DECIDE_SWEEP): 3 predicates, arity <= 3, 4 rules, bodies <= 3 atoms, \
         35% existentials (min of 3 runs per seed, 1 run for a seed whose first takes >= 1 \
         s)\", \"seeds\": {}, \"terminating\": {}, \"non_terminating\": {}, \"unknown\": {}, \
         \"certificates\": {{{}}}, \"total_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
         \"max_ns\": {}, \"slowest\": [{}], \"per_seed_ns\": [{}]}},\n",
        sweep.ns.len(),
        sweep.ns.len(),
        sweep.terminating,
        sweep.non_terminating,
        sweep.unknown,
        certificates.join(", "),
        sweep.ns.iter().sum::<u128>(),
        sweep.quantile(0.5),
        sweep.quantile(0.99),
        sweep.quantile(1.0),
        slowest.join(", "),
        per_seed.join(", "),
    ));
    let entries: Vec<String> = guarded
        .iter()
        .map(|g| {
            format!(
                "{{\"name\": \"{}\", \"ns\": {}, \"allocations\": {}}}",
                g.name, g.ns, g.allocations
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"guarded_seed_search\": {{\"workload\": \"decide, default config, on the \
         guarded suite entries answered by the seed search (min of runs; allocations of one \
         decide)\", \"entries\": [{}]}}\n",
        entries.join(", "),
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `--smoke` kept as an alias for `--mode smoke`.
            "--smoke" => smoke = true,
            "--mode" => match args.next().as_deref() {
                Some("smoke") => smoke = true,
                Some("full") => smoke = false,
                other => panic!("--mode expects smoke|full, got {other:?}"),
            },
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => panic!("unknown argument: {other} (expected --mode smoke|full / --out PATH)"),
        }
    }

    let budget = Budget::steps(1_000_000);
    let runs = if smoke { 3 } else { 7 };
    let (cn, ce) = if smoke { (16, 40) } else { (48, 160) };
    let (ew, ef) = if smoke { (3, 40) } else { (8, 400) };
    let (fk, fn_, fe) = if smoke { (4, 16, 40) } else { (8, 64, 256) };
    let (tn, te) = if smoke { (12, 40) } else { (40, 220) };
    let (ww, wf) = if smoke { (2, 60) } else { (6, 400) };

    let (_v, cset, cdb) = closure_workload(cn, ce);
    let (_v, eset, edb) = existential_workload(ew, ef);
    let (_v, fset, fdb) = fan_workload(fk, fn_, fe);
    let (_v, tset, tdb) = triangle_workload(tn, te);
    let (_v, wset, wdb) = wide_existential_workload(ww, wf);

    let rows = vec![
        restricted_row("closure_restricted", &cset, &cdb, budget, runs),
        restricted_row("fan_restricted", &fset, &fdb, budget, runs),
        restricted_row("existential_restricted", &eset, &edb, budget, runs),
        restricted_row("triangle_restricted", &tset, &tdb, budget, runs),
        restricted_row("wide_existential_restricted", &wset, &wdb, budget, runs),
        oblivious_row("existential_oblivious", &eset, &edb, budget, runs),
    ];

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chain_params = ScaleParams {
        shape: Shape::Chain,
        predicates: if smoke { 40 } else { 200 },
        facts: if smoke { 40_000 } else { 150_000 },
        constants: 64,
        existential_density: 0.9,
        seed: 7,
    };
    let (_v, chain_set, chain_db) = scale_workload(&chain_params);
    // Program-cache warm/cold comparison: hundreds of rules so the
    // cold compile is a realistic multi-millisecond admission cost.
    let server_warm = server_warm_section(if smoke { 150 } else { 500 }, runs);
    let scale = scale_row(chain_params.name(), &chain_set, &chain_db, budget, 3);
    let ingest = ingest_compile_section(2 * runs + 1);
    let examples = compile_examples_section(if smoke { 5 } else { 30 });
    let sweep = decide_sweep_section(if smoke { 8 } else { DECIDE_SWEEP_SEEDS });
    let guarded = guarded_seed_search_section(if smoke { 3 } else { 2 * runs + 1 });

    println!(
        "hot-path report ({}):",
        if smoke { "smoke" } else { "full" }
    );
    for r in &rows {
        println!(
            "  {:<28} steps={:<6} atoms={:<6} seed={:>10}ns opt={:>10}ns speedup={:.2}x",
            r.name,
            r.steps,
            r.atoms,
            r.seed_ns,
            r.opt_ns,
            r.speedup()
        );
        let p = &r.profile;
        println!(
            "  {:<28} profile: match={}ns check={}ns insert={}ns seed={}ns peak={}B",
            "", p.match_ns, p.check_ns, p.insert_ns, p.seed_ns, p.peak_bytes
        );
    }
    println!(
        "scale ({}): steps={} atoms={} ns={} peak={}B bytes_per_atom={:.1}",
        scale.workload,
        scale.steps,
        scale.atoms,
        scale.ns,
        scale.peak_bytes,
        scale.bytes_per_atom(),
    );
    println!(
        "server_warm: rules={} source={}B cold={}ns warm={}ns speedup={:.2}x",
        server_warm.rules,
        server_warm.source_bytes,
        server_warm.cold_ns,
        server_warm.warm_ns,
        server_warm.speedup(),
    );
    println!(
        "ingest_compile: source={}B facts={} ns={} ns_per_byte={:.2} instance={}B bytes_per_atom={:.1}",
        ingest.source_bytes,
        ingest.facts,
        ingest.ns,
        ingest.ns_per_byte(),
        ingest.instance_bytes,
        ingest.bytes_per_atom(),
    );
    for e in &examples {
        println!(
            "compile_examples: {} source={}B rules={} ns={}",
            e.name, e.source_bytes, e.rules, e.ns
        );
    }

    println!(
        "decide_sweep: seeds={} terminating={} non_terminating={} unknown={} total={}ns \
         p50={}ns p99={}ns max={}ns slowest={:?}",
        sweep.ns.len(),
        sweep.terminating,
        sweep.non_terminating,
        sweep.unknown,
        sweep.ns.iter().sum::<u128>(),
        sweep.quantile(0.5),
        sweep.quantile(0.99),
        sweep.quantile(1.0),
        sweep.slowest(),
    );

    for g in &guarded {
        println!(
            "guarded_seed_search: {} ns={} allocations={}",
            g.name, g.ns, g.allocations
        );
    }

    let report = render_json(&Report {
        mode: if smoke { "smoke" } else { "full" },
        host_cpus,
        rows: &rows,
        scale: &scale,
        server_warm: &server_warm,
        ingest: &ingest,
        examples: &examples,
        sweep: &sweep,
        guarded: &guarded,
    });
    std::fs::write(&out_path, report).expect("write report");
    println!("wrote {out_path}");

    if smoke {
        let tolerance: f64 = std::env::var("HOTPATH_GATE_TOLERANCE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.5);
        let mut failed = false;
        for r in &rows {
            let slowdown = r.opt_ns as f64 / r.seed_ns.max(1) as f64;
            if slowdown > tolerance {
                eprintln!(
                    "PERF GATE: {} optimised engine is {slowdown:.2}x the seed baseline \
                     (tolerance {tolerance:.2}x)",
                    r.name
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("perf gate passed (optimised <= {tolerance:.2}x seed on every workload)");

        // Program-cache gate: a warm content-addressed hit must be at
        // least `SERVER_WARM_GATE` (default 5×) faster than the cold
        // compile — the entire point of caching compiled programs. The
        // real gap is orders of magnitude; 5× only catches the cache
        // silently recompiling.
        let warm_gate: f64 = std::env::var("SERVER_WARM_GATE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(5.0);
        let warm_speedup = server_warm.speedup();
        if warm_speedup < warm_gate {
            eprintln!(
                "SERVER WARM GATE: warm program-cache resolve is only {warm_speedup:.2}x \
                 the cold compile (tolerance {warm_gate:.2}x)"
            );
            std::process::exit(1);
        }
        println!(
            "server warm gate passed (warm resolve {warm_speedup:.2}x >= \
             {warm_gate:.2}x cold compile)"
        );
    }
}
