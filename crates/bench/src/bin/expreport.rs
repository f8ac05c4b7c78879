//! `expreport` — regenerates every measured figure recorded in
//! EXPERIMENTS.md (the paper has no measurement tables; these are the
//! reproductions of its checkable claims, experiment ids E1–E9).
//!
//! Run with `cargo run --release -p chase-bench --bin expreport`.

use chase_bench::{closure_workload, setup};
use chase_engine::fairness::{persistently_active, unfairness_age};
use chase_engine::real_oblivious::{OchaseLimits, RealOchase};
use chase_engine::restricted::{Budget, ChaseVariant, Outcome, RestrictedChase, Strategy};
use chase_engine::skolem::{SkolemPolicy, SkolemTable};
use chase_telemetry::summary::format_nanos;
use chase_termination::{DeciderConfig, TerminationCertificate, TerminationVerdict};
use chase_workloads::families;
use chase_workloads::runner::run_labelled_suite;
use chase_workloads::suite::{labelled_suite, Expected};
use tgd_classes::baselines::semi_oblivious_critical;
use tgd_classes::jointly_acyclic::is_jointly_acyclic;
use tgd_classes::weakly_acyclic::is_weakly_acyclic;

fn main() {
    e1();
    e2();
    e3();
    e4();
    e5();
    e6_e7_e8();
    e9();
}

fn e1() {
    println!("== E1: intro example — restricted vs oblivious (§1) ==");
    let (_, set, db) = setup("R(a,b). R(x,y) -> exists z. R(x,z).");
    let r = RestrictedChase::new(&set).run(&db, Budget::steps(1_000));
    println!(
        "restricted: outcome={:?} steps={} atoms={}",
        r.outcome,
        r.steps,
        r.instance.len()
    );
    print!("oblivious atoms by step budget:");
    for budget in [25usize, 50, 100, 200] {
        let o = RestrictedChase::new(&set)
            .variant(ChaseVariant::Oblivious)
            .run(&db, Budget::steps(budget));
        print!("  {budget}→{}", o.instance.len());
    }
    println!("\n");
}

fn e2() {
    println!("== E2: Fairness Theorem (§4) — unfairness age and Lemma 4.4 ==");
    let (_, set, db) = setup(
        "R(a,b).
         R(x,y) -> exists z. R(y,z).
         R(x,y) -> S(x).",
    );
    print!("single-head, PriorityTgd age by horizon:");
    for h in [10usize, 20, 40] {
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::PriorityTgd)
            .run(&db, Budget::steps(h));
        print!("  {h}→{}", unfairness_age(&db, &set, &run.derivation(&set)));
    }
    println!();
    print!("single-head, FIFO age by horizon:       ");
    for h in [10usize, 20, 40] {
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::steps(h));
        print!("  {h}→{}", unfairness_age(&db, &set, &run.derivation(&set)));
    }
    println!();
    // Lemma 4.4's set A: bounded for single-head, growing for B.1.
    let (_, set_b1, db_b1) = setup(
        "R(a,b,b).
         R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).
         R(u,v,w) -> R(w,w,w).",
    );
    print!("Example B.1 |A| by horizon (multi-head):");
    for h in [5usize, 10, 20] {
        let run = RestrictedChase::new(&set_b1)
            .strategy(Strategy::PriorityTgd)
            .run(&db_b1, Budget::steps(h));
        let p = persistently_active(&db_b1, &set_b1, &run.derivation(&set_b1));
        let mut skolem = SkolemTable::above(
            SkolemPolicy::PerTrigger,
            run.instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        let result = p[0]
            .trigger
            .result(set_b1.tgd(p[0].trigger.tgd), &mut skolem);
        let a = chase_engine::fairness::stopped_indices(&set_b1, &run.derivation(&set_b1), &result);
        print!("  {h}→{}", a.len());
    }
    println!("\n");
}

fn e3() {
    println!("== E3: real oblivious chase (Example 3.2/3.4) ==");
    let (vocab, set, db) = setup(
        "P(a,b).
         P(x1,y1) -> R(x1,y1).
         P(x2,y2) -> S(x2).
         R(x3,y3) -> S(x3).
         S(x4) -> exists y4. R(x4,y4).",
    );
    let oblivious = RestrictedChase::new(&set)
        .variant(ChaseVariant::Oblivious)
        .run(&db, Budget::steps(10_000));
    println!(
        "oblivious chase: {} atoms (finite set)",
        oblivious.instance.len()
    );
    print!("real oblivious chase vertices by depth (multiset):");
    for depth in [1usize, 2, 3, 4, 5] {
        let f = RealOchase::build(
            &db,
            &set,
            OchaseLimits {
                max_nodes: 100_000,
                max_depth: depth,
            },
        );
        print!("  {depth}→{}", f.len());
    }
    println!();
    let f = RealOchase::build(
        &db,
        &set,
        OchaseLimits {
            max_nodes: 1_000,
            max_depth: 2,
        },
    );
    let s = vocab.lookup_pred("S").unwrap();
    let s_mult = f.iter().filter(|(_, n)| n.atom.pred == s).count();
    println!("multiplicity of S(a) at depth 2: {s_mult} (two parents: P(a,b) and R(a,b))\n");
}

fn e4() {
    println!("== E4: chaseable sets (Theorem 5.3 round-trip) ==");
    let (_, set, db) = setup(
        "E(a,b). E(b,c). E(c,d).
         E(x,y) -> exists z. F(x,z).
         F(u,v) -> G(u).",
    );
    let run = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&db, Budget::steps(100));
    let fragment = RealOchase::build(&db, &set, OchaseLimits::default());
    let n =
        chase_engine::chaseable::roundtrip_theorem_5_3(&db, &set, &run.derivation(&set), &fragment)
            .expect("roundtrip");
    println!(
        "derivation of {} steps ↦ chaseable set of {} vertices ↦ re-extracted derivation: OK\n",
        run.steps, n
    );
}

fn e5() {
    println!("== E5: treeification (Theorem 5.5, Example 5.6) ==");
    let (mut vocab, set, db) = setup(
        "R(a,b). S(b,c).
         S(x1,y1) -> T(x1).
         R(x2,y2), T(y2) -> P(x2,y2).
         P(x3,y3) -> exists z3. P(y3,z3).",
    );
    let run = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&db, Budget::steps(20));
    let pairs = chase_engine_longs_for(&set, &db, &run);
    println!("longs-for pairs discovered: {pairs}");
    let dac = chase_termination::guarded::treeify::treeify(
        &set,
        &mut vocab,
        &db,
        &run.derivation(&set),
        4,
    )
    .expect("treeify");
    let dac_run = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&dac, Budget::steps(100));
    println!(
        "D_ac has {} atoms; chase from D_ac: {:?} (diverges like the original)",
        dac.len(),
        dac_run.outcome
    );
    // And the paper's contrast: {R(a,b)} alone admits no chase step.
    let just_r = chase_core::parser::parse_program("R(a,b).", &mut vocab)
        .expect("fact")
        .database;
    let lone = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&just_r, Budget::steps(100));
    println!(
        "chase from {{R(a,b)}} alone: {:?} after {} steps\n",
        lone.outcome, lone.steps
    );
}

fn chase_engine_longs_for(
    set: &chase_core::tgd::TgdSet,
    db: &chase_core::instance::Instance,
    run: &chase_engine::restricted::ChaseRun,
) -> usize {
    chase_termination::guarded::treeify::longs_for(set, db, &run.derivation(set)).len()
}

fn e6_e7_e8() {
    println!("== E6/E7: deciders vs ground truth; E8: criterion hierarchy ==");
    let config = DeciderConfig::default();
    let budget = Budget::steps(20_000);
    let (mut wa, mut ja, mut so, mut ct) = (0usize, 0usize, 0usize, 0usize);
    let mut max_states = 0usize;
    let suite = labelled_suite();
    let run = run_labelled_suite(&config);
    for (entry, result) in suite.iter().zip(&run.entries) {
        let (vocab, set) = entry.build();
        let mut scratch = vocab.clone();
        if let TerminationVerdict::AllInstancesTerminating(
            TerminationCertificate::StickyAutomatonEmpty { states },
        ) = &result.verdict
        {
            max_states = max_states.max(*states);
        }
        wa += usize::from(is_weakly_acyclic(&set, &vocab));
        ja += usize::from(is_jointly_acyclic(&set));
        so += usize::from(semi_oblivious_critical(&set, &mut scratch, budget).holds());
        ct += usize::from(entry.expected == Expected::Terminating);
    }
    println!(
        "decider agreement: {}/{} suite entries in {}",
        run.correct(),
        run.total(),
        format_nanos(run.total_nanos())
    );
    let aggregate = run.aggregate_telemetry();
    println!("decider time by phase (whole suite):");
    for (phase, nanos) in &aggregate.phases {
        println!("  {:<24} {:>10}", phase, format_nanos(*nanos));
    }
    let mut slowest: Vec<_> = run.entries.iter().collect();
    slowest.sort_by_key(|e| std::cmp::Reverse(e.nanos));
    print!("slowest entries:");
    for e in slowest.iter().take(3) {
        print!("  {}→{}", e.name, format_nanos(e.nanos));
    }
    println!();
    println!("criterion hierarchy: WA={wa} ⊂ JA={ja} ⊆ SO-critical={so} ⊂ CT(ground truth)={ct}");
    print!("sticky automaton states by arity (arity_keep, terminating):");
    for a in 2usize..=5 {
        let (vocab, set, _) = setup(&families::arity_keep(a));
        if let TerminationVerdict::AllInstancesTerminating(
            TerminationCertificate::StickyAutomatonEmpty { states },
        ) = chase_termination::sticky::decide_sticky(&set, &vocab, &config)
        {
            print!("  {a}→{states}");
        }
    }
    println!("\n");
}

fn e9() {
    println!("== E9: result sizes — restricted vs semi-oblivious vs oblivious ==");
    let facts: String = (0..40).map(|i| format!("Emp(p{i},d{}). ", i % 4)).collect();
    let (_, set, db) = setup(&format!(
        "Emp(e,d) -> exists m. Mgr(d,m).
         Mgr(d,m) -> Dept(d).
         {facts}"
    ));
    let r = RestrictedChase::new(&set).run(&db, Budget::steps(100_000));
    let s = RestrictedChase::new(&set)
        .variant(ChaseVariant::SemiOblivious)
        .run(&db, Budget::steps(100_000));
    let o = RestrictedChase::new(&set)
        .variant(ChaseVariant::Oblivious)
        .run(&db, Budget::steps(100_000));
    println!(
        "Emp workload (40 facts, 4 depts): restricted={} semi-oblivious={} oblivious={} atoms",
        r.instance.len(),
        s.instance.len(),
        o.instance.len()
    );
    let (_, cset, cdb) = closure_workload(24, 48);
    let rc = RestrictedChase::new(&cset).run(&cdb, Budget::steps(100_000));
    let oc = RestrictedChase::new(&cset)
        .variant(ChaseVariant::Oblivious)
        .run(&cdb, Budget::steps(100_000));
    assert_eq!(rc.outcome, Outcome::Terminated);
    println!(
        "closure workload: restricted={} oblivious={} atoms (full TGDs: identical closure)",
        rc.instance.len(),
        oc.instance.len()
    );
}
