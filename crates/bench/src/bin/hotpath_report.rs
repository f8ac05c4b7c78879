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
//! facts even in smoke mode) with its peak instance bytes; the seed
//! engine is too slow to pair with it.

use std::hint::black_box;
use std::time::Instant;

use chase_bench::{
    closure_workload, existential_workload, fan_workload, triangle_workload,
    wide_existential_workload,
};
use chase_core::instance::Instance;
use chase_core::tgd::TgdSet;
use chase_engine::oblivious::ObliviousChase;
use chase_engine::restricted::{Budget, RestrictedChase};
use chase_engine::seed::{SeedObliviousChase, SeedRestrictedChase};
use chase_server::cache::{ProgramCache, ProgramCacheConfig};
use chase_telemetry::{spans, SpanObserver};
use chase_workloads::scale::{scale_workload, ScaleParams, Shape};

/// Phase attribution from one profiled run of a workload: where the
/// wall-clock inside the engine actually went.
struct PhaseProfile {
    match_ns: u64,
    check_ns: u64,
    insert_ns: u64,
    seed_ns: u64,
    index_ns: u64,
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

/// The restricted engine alone on one ontology-scale workload.
struct ScaleRow {
    workload: String,
    steps: usize,
    atoms: usize,
    ns: u128,
    peak_bytes: u64,
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
        index_ns: p.span_total(spans::INDEX_MAINTAIN),
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
    let opt_engine = RestrictedChase::new(set).record_derivation(false);

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
    let opt_engine = ObliviousChase::new(set);

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
            index_ns: p.span_total(spans::INDEX_MAINTAIN),
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
    let engine = RestrictedChase::new(set).record_derivation(false);
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
    }
}

fn write_json(
    path: &str,
    mode: &str,
    host_cpus: usize,
    rows: &[Row],
    scale: &ScaleRow,
    server_warm: &ServerWarm,
) -> std::io::Result<()> {
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
             \"insert_ns\": {}, \"seed_phase_ns\": {}, \"index_maintain_ns\": {}, \
             \"peak_bytes\": {}}}}}{}\n",
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
            r.profile.index_ns,
            r.profile.peak_bytes,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scale\": {{\"workload\": \"{}\", \"engine\": \"restricted\", \"steps\": {}, \
         \"atoms\": {}, \"ns\": {}, \"peak_bytes\": {}}},\n",
        scale.workload, scale.steps, scale.atoms, scale.ns, scale.peak_bytes
    ));
    out.push_str(&format!(
        "  \"server_warm\": {{\"workload\": \"program cache resolve (cold compile vs \
         warm content-addressed hit)\", \"rules\": {}, \"source_bytes\": {}, \
         \"cold_ns\": {}, \"warm_ns\": {}, \"speedup\": {:.2}}}\n",
        server_warm.rules,
        server_warm.source_bytes,
        server_warm.cold_ns,
        server_warm.warm_ns,
        server_warm.speedup(),
    ));
    out.push_str("}\n");
    std::fs::write(path, out)
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
        shards: 64,
        seed: 7,
    };
    let (_v, chain_set, chain_db) = scale_workload(&chain_params);
    // Program-cache warm/cold comparison: hundreds of rules so the
    // cold compile is a realistic multi-millisecond admission cost.
    let server_warm = server_warm_section(if smoke { 150 } else { 500 }, runs);
    let scale = scale_row(chain_params.name(), &chain_set, &chain_db, budget, 3);

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
            "  {:<28} profile: match={}ns check={}ns insert={}ns seed={}ns index={}ns peak={}B",
            "", p.match_ns, p.check_ns, p.insert_ns, p.seed_ns, p.index_ns, p.peak_bytes
        );
    }
    println!(
        "scale ({}): steps={} atoms={} ns={} peak={}B",
        scale.workload, scale.steps, scale.atoms, scale.ns, scale.peak_bytes
    );
    println!(
        "server_warm: rules={} source={}B cold={}ns warm={}ns speedup={:.2}x",
        server_warm.rules,
        server_warm.source_bytes,
        server_warm.cold_ns,
        server_warm.warm_ns,
        server_warm.speedup(),
    );

    write_json(
        &out_path,
        if smoke { "smoke" } else { "full" },
        host_cpus,
        &rows,
        &scale,
        &server_warm,
    )
    .expect("write report");
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
