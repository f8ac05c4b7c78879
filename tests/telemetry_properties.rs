//! Counter-consistency properties of the telemetry layer: for every
//! randomly generated workload, the counters aggregated by a
//! [`CountingObserver`] must agree with the chase run's own account of
//! what happened — the counters are derived data and may never drift
//! from the run. The same counters read back from the run's JSONL
//! trace (`chasectl stats`) must equal the live ones.

use proptest::prelude::*;
use restricted_chase::prelude::*;
// `proptest::prelude` exports a `Strategy` trait that shadows the
// chase engine's `Strategy` enum in glob imports; re-import explicitly.
use restricted_chase::engine::restricted::Strategy;
use restricted_chase::telemetry::{
    names, parse_line, spans, ChaseObserver, CountingObserver, Event, JsonlWriter, Profiled,
    RecordingObserver, Tee,
};
use restricted_chase::termination::{decide_observed, decider_class};

/// Parses a generated (rules, database) pair.
fn build(seed: u64, db_seed: u64) -> (Vocabulary, TgdSet, Instance) {
    let params = RandomTgdParams::default();
    let rules = random_tgds(&params, seed);
    let db = random_database(&params, 12, seed, db_seed);
    let mut vocab = Vocabulary::new();
    let program = parse_program(&format!("{rules}{db}"), &mut vocab).expect("generated input");
    let set = program.tgd_set(&vocab).expect("generated set");
    (vocab, set, program.database)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// The trigger-counter lattice: every applied trigger was found
    /// active, every active or deactivated trigger was checked, and
    /// the checked count splits exactly into active + deactivated.
    /// At most one active trigger is abandoned (budget exhaustion
    /// strikes between the activeness check and the application).
    #[test]
    fn trigger_counters_are_consistent(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let mut obs = CountingObserver::new();
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run_observed(&db, Budget::new(300, 3_000), &mut obs);
        let s = obs.summary();
        let checked = s.counter(names::TRIGGERS_CHECKED).unwrap();
        let active = s.counter(names::TRIGGERS_ACTIVE).unwrap();
        let applied = s.counter(names::TRIGGERS_APPLIED).unwrap();
        let deactivated = s.counter(names::TRIGGERS_DEACTIVATED).unwrap();
        let discovered = s.counter(names::TRIGGERS_DISCOVERED).unwrap();
        prop_assert!(applied <= active);
        prop_assert!(active <= applied + 1, "one active trigger may hit the budget");
        prop_assert_eq!(checked, active + deactivated);
        prop_assert!(checked <= discovered);
        prop_assert_eq!(applied, run.steps as u64);
        // The instance grows by exactly the fresh insertions.
        let fresh = s.counter(names::ATOMS_FRESH).unwrap();
        prop_assert_eq!(run.instance.len() as u64, db.len() as u64 + fresh);
        prop_assert!(fresh <= s.counter(names::ATOMS_INSERTED).unwrap());
    }

    /// For single-head TGDs an active trigger always inserts exactly
    /// one fresh atom (the head is unsatisfied, so the produced atom
    /// is new): final atoms = database atoms + applied steps.
    #[test]
    fn single_head_growth_matches_applied_steps(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        prop_assume!(set.all_single_head());
        let mut obs = CountingObserver::new();
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run_observed(&db, Budget::new(300, 3_000), &mut obs);
        let s = obs.summary();
        prop_assert_eq!(run.instance.len(), db.len() + run.steps);
        prop_assert_eq!(
            s.counter(names::ATOMS_FRESH).unwrap(),
            s.counter(names::TRIGGERS_APPLIED).unwrap()
        );
    }

    /// FIFO queue-depth samples are exact: every sample equals
    /// triggers discovered so far minus triggers popped (= checked) so
    /// far, and a terminated run's last sample is zero.
    #[test]
    fn fifo_queue_depth_samples_are_consistent(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let mut rec = RecordingObserver::default();
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run_observed(&db, Budget::new(300, 3_000), &mut rec);
        let mut discovered = 0u64;
        let mut checked = 0u64;
        let mut last_depth = None;
        for event in &rec.events {
            match event {
                Event::TriggerDiscovered { .. } => discovered += 1,
                Event::TriggerChecked { .. } => checked += 1,
                Event::QueueDepth { depth, .. } => {
                    prop_assert_eq!(
                        *depth,
                        discovered - checked,
                        "sample must equal pending trigger count"
                    );
                    last_depth = Some(*depth);
                }
                _ => {}
            }
        }
        if run.outcome == Outcome::Terminated {
            prop_assert_eq!(last_depth, Some(0), "terminated run drains its queue");
        }
    }

    /// Observation is pure: for each chase variant (restricted,
    /// oblivious, semi-oblivious) the observed run returns exactly what
    /// the unobserved run returns, event stream or not.
    #[test]
    fn observation_never_changes_the_run(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let restricted = RestrictedChase::new(&set).strategy(Strategy::Fifo);
        let oblivious = RestrictedChase::new(&set).variant(ChaseVariant::Oblivious);
        let semi = RestrictedChase::new(&set).variant(ChaseVariant::SemiOblivious);
        let runs = [
            (
                restricted.run(&db, budget),
                restricted.run_observed(&db, budget, &mut CountingObserver::new()),
            ),
            (
                oblivious.run(&db, budget),
                oblivious.run_observed(&db, budget, &mut CountingObserver::new()),
            ),
            (
                semi.run(&db, budget),
                semi.run_observed(&db, budget, &mut CountingObserver::new()),
            ),
        ];
        for (plain, observed) in runs {
            prop_assert_eq!(plain.outcome, observed.outcome);
            prop_assert_eq!(plain.steps, observed.steps);
            prop_assert_eq!(plain.instance, observed.instance);
        }
    }

    /// Each chase variant's profiling span stream is a well-nested
    /// word (see [`assert_well_nested`]).
    #[test]
    fn profiled_span_stream_is_well_nested(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(300, 3_000);
        let mut restricted = Profiled(RecordingObserver::default());
        RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .heartbeat_every(7)
            .run_observed(&db, budget, &mut restricted);
        let mut oblivious = Profiled(RecordingObserver::default());
        RestrictedChase::new(&set)
            .variant(ChaseVariant::Oblivious)
            .heartbeat_every(7)
            .run_observed(&db, budget, &mut oblivious);
        let mut semi = Profiled(RecordingObserver::default());
        RestrictedChase::new(&set)
            .variant(ChaseVariant::SemiOblivious)
            .heartbeat_every(7)
            .run_observed(&db, budget, &mut semi);
        for rec in [restricted, oblivious, semi] {
            assert_well_nested(&rec.0.events)?;
        }
    }

    /// The live and offline folds agree on the restricted chase's full
    /// profiled stream (see [`assert_live_and_offline_folds_agree`]).
    #[test]
    fn live_and_offline_folds_agree(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let engine = RestrictedChase::new(&set).strategy(Strategy::Fifo).heartbeat_every(7);
        assert_live_and_offline_folds_agree(|obs| {
            engine.run_observed(&db, Budget::new(300, 3_000), obs);
        })?;
    }

    /// Profiling is pure: a run under a profiling observer returns
    /// exactly what the plain run returns.
    #[test]
    fn profiling_never_changes_the_run(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let engine = RestrictedChase::new(&set).strategy(Strategy::Fifo).heartbeat_every(5);
        let plain = engine.run(&db, Budget::new(200, 2_000));
        let mut obs = Profiled(CountingObserver::new());
        let profiled = engine.run_observed(&db, Budget::new(200, 2_000), &mut obs);
        prop_assert_eq!(plain.outcome, profiled.outcome);
        prop_assert_eq!(plain.steps, profiled.steps);
        prop_assert_eq!(plain.instance, profiled.instance);
    }
}

/// Runs `run` under `Profiled(Tee(JsonlWriter, CountingObserver))`,
/// then folds the written trace through `parse_line` and
/// `CountingObserver::record_line` into a fresh observer: the two
/// summaries — counters, histograms including `span.*`, and phases
/// with their nanos — must be equal.
fn assert_live_and_offline_folds_agree(
    run: impl FnOnce(&mut dyn ChaseObserver),
) -> Result<(), TestCaseError> {
    let mut writer = JsonlWriter::new(Vec::new());
    let mut live = CountingObserver::new();
    run(&mut Profiled(Tee::new(&mut writer, &mut live)));
    let trace = String::from_utf8(writer.finish().expect("in-memory trace")).expect("utf-8");
    let mut offline = CountingObserver::new();
    for line in trace.lines() {
        let event = parse_line(line).map_err(TestCaseError::fail)?;
        offline.record_line(&event).map_err(TestCaseError::fail)?;
    }
    let live = live.summary();
    prop_assert!(live
        .histograms
        .iter()
        .any(|(name, h)| name.starts_with("span.") && h.count > 0));
    prop_assert_eq!(live, offline.summary());
    Ok(())
}

/// The live and offline folds agree on a decider's stream too —
/// phases, `counter_add`s and the internal chases — for one sticky
/// and one guarded set of the labelled suite.
#[test]
fn live_and_offline_folds_agree_on_decide() {
    let config = DeciderConfig::default();
    for (name, class) in [("sticky-join-loop-1", "sticky"), ("example-5-6", "guarded")] {
        let entry = labelled_suite()
            .into_iter()
            .find(|e| e.name == name)
            .expect("suite entry");
        let (vocab, set) = entry.build();
        assert_eq!(decider_class(&set), class, "{name}");
        assert_live_and_offline_folds_agree(|obs| {
            decide_observed(&set, &vocab, &config, obs);
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Checks that a profiling span stream is a well-nested word: every
/// exit matches the innermost open span, the stream closes everything
/// it opens, no child interval outlasts its parent, and it holds
/// exactly one run span.
fn assert_well_nested(events: &[Event]) -> Result<(), TestCaseError> {
    // Stack frames: (span, tgd, longest child duration seen).
    let mut stack: Vec<(&'static str, u32, u64)> = Vec::new();
    let mut run_spans = 0u64;
    for event in events {
        match event {
            Event::SpanEntered { span, tgd } => stack.push((span, *tgd, 0)),
            Event::SpanExited { span, tgd, nanos } => {
                let (open_span, open_tgd, max_child) = stack
                    .pop()
                    .ok_or_else(|| TestCaseError::fail("span exit with no open span"))?;
                prop_assert_eq!(open_span, *span, "exit must match the innermost span");
                prop_assert_eq!(open_tgd, *tgd, "exit must match the innermost tgd");
                prop_assert!(
                    max_child <= *nanos,
                    "child span ({max_child} ns) outlasted parent {span} ({nanos} ns)"
                );
                if *span == spans::RUN {
                    run_spans += 1;
                }
                if let Some(parent) = stack.last_mut() {
                    parent.2 = parent.2.max(*nanos);
                }
            }
            _ => {}
        }
    }
    prop_assert!(stack.is_empty(), "unclosed spans: {stack:?}");
    prop_assert_eq!(run_spans, 1, "exactly one run span per run");
    Ok(())
}
