//! Integration test: the termination deciders against the labelled
//! ground-truth suite (experiments E6/E7 in test form).
//!
//! Every entry must be decided (no `Unknown`), agree with the
//! hand-derived label, and every non-termination verdict must carry a
//! replay-valid witness whose database really blows a chase budget.

use std::collections::{HashSet, VecDeque};

use restricted_chase::prelude::*;
use restricted_chase::telemetry::names::{AUTOMATON_STATES, GUARDED_SEEDS, TRIGGERS_APPLIED};
use restricted_chase::telemetry::CountingObserver;
use restricted_chase::termination::sticky::{CatState, StickyAutomaton};
use restricted_chase::termination::{decide_with_telemetry, decider_class};

#[test]
fn deciders_agree_with_ground_truth_on_the_entire_suite() {
    let config = DeciderConfig::default();
    let mut failures = Vec::new();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        let verdict = decide(&set, &vocab, &config);
        let ok = match entry.expected {
            Expected::Terminating => verdict.is_terminating(),
            Expected::NonTerminating => verdict.is_non_terminating(),
        };
        if !ok {
            failures.push(format!(
                "{}: expected {:?}, got {:?}",
                entry.name, entry.expected, verdict
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn non_termination_witnesses_replay_and_diverge() {
    let config = DeciderConfig::default();
    for entry in labelled_suite() {
        if entry.expected != Expected::NonTerminating {
            continue;
        }
        let (vocab, set) = entry.build();
        let TerminationVerdict::NonTerminating(witness) = decide(&set, &vocab, &config) else {
            continue; // covered by the agreement test
        };
        // (a) the recorded derivation is a valid restricted chase
        // derivation from the witness database;
        witness
            .derivation
            .validate(&witness.database, &set, false)
            .unwrap_or_else(|f| panic!("{}: witness replay failed: {f}", entry.name));
        // (b) a fair (FIFO) chase from the same database exhausts a
        // generous budget — independent evidence of divergence.
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&witness.database, Budget::steps(2_000));
        assert_eq!(
            run.outcome,
            Outcome::BudgetExhausted,
            "{}: witness database saturated unexpectedly",
            entry.name
        );
        // (c) a guarded-portfolio witness is exactly the first
        // `witness_steps` steps of the FIFO chase from its database.
        if decider_class(&set) == "guarded" {
            let evidence = RestrictedChase::new(&set)
                .strategy(Strategy::Fifo)
                .run(&witness.database, Budget::steps(config.witness_steps));
            let (got, want) = (&witness.derivation.steps, &evidence.derivation.steps);
            assert_eq!(got.len(), want.len(), "{}: witness length", entry.name);
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    g.trigger == w.trigger && g.added == w.added,
                    "{}: witness step {i} differs from the FIFO chase",
                    entry.name
                );
            }
        }
    }
}

/// The guarded seed search chases each seed once: on Example 5.6 the
/// first seed (σ0's canonical body) saturates after one step and the
/// second diverges to the `2 * (chase_budget / 4)` horizon, whose
/// prefix is the witness. Re-running a seed shows up as extra
/// applied triggers.
#[test]
fn guarded_seed_search_chases_each_seed_once() {
    let mut vocab = Vocabulary::new();
    let src = std::fs::read_to_string("examples/rules/example_5_6.chase").unwrap();
    let program = parse_program(&src, &mut vocab).unwrap();
    let set = program.tgd_set(&vocab).unwrap();
    let (verdict, summary) = decide_with_telemetry(&set, &vocab, &DeciderConfig::default());
    assert!(verdict.is_non_terminating(), "{verdict:?}");
    assert_eq!(summary.counter(TRIGGERS_APPLIED), Some(10_001));
    assert_eq!(summary.counter(GUARDED_SEEDS), Some(2));
}

const GUARDED_GOLDEN_PATH: &str = "tests/golden/guarded_suite.txt";

/// Every guarded-class suite entry's decision, rendered by `explain`
/// (no telemetry), followed by the full witness derivation of a
/// non-terminating verdict.
fn guarded_suite_answers() -> String {
    let config = DeciderConfig::default();
    let mut out = String::new();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        if decider_class(&set) != "guarded" {
            continue;
        }
        let verdict = decide(&set, &vocab, &config);
        out.push_str(&format!("== {}\n", entry.name));
        out.push_str(&explain(&verdict, &set, &vocab, None, None));
        if let TerminationVerdict::NonTerminating(w) = &verdict {
            out.push_str("derivation:\n");
            out.push_str(&w.derivation.display(&set, &vocab));
        }
    }
    out
}

/// Guarded verdicts, certificates and witnesses are pinned byte for
/// byte: a change to the guarded decider that moves an answer fails
/// here. Regenerate deliberately with
/// `cargo test --test decider_suite regenerate_guarded_golden -- --ignored`.
#[test]
fn guarded_answers_match_golden_file() {
    let text = guarded_suite_answers();
    let golden = std::fs::read_to_string(GUARDED_GOLDEN_PATH).expect("golden file present");
    assert!(
        text == golden,
        "guarded answers drifted from {GUARDED_GOLDEN_PATH}; if the change is intentional, \
         regenerate with `cargo test --test decider_suite regenerate_guarded_golden -- --ignored`"
    );
}

/// Regenerates the guarded golden file.
#[test]
#[ignore]
fn regenerate_guarded_golden() {
    std::fs::write(GUARDED_GOLDEN_PATH, guarded_suite_answers()).unwrap();
}

#[test]
fn sticky_entries_get_automaton_certificates() {
    let config = DeciderConfig::default();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        if !is_sticky(&set) {
            continue;
        }
        let verdict = decide_sticky(&set, &vocab, &config);
        match (&verdict, entry.expected) {
            (TerminationVerdict::AllInstancesTerminating(cert), Expected::Terminating) => {
                assert!(
                    matches!(cert, TerminationCertificate::StickyAutomatonEmpty { .. }),
                    "{}: unexpected certificate {cert:?}",
                    entry.name
                );
            }
            (TerminationVerdict::NonTerminating(w), Expected::NonTerminating) => {
                assert!(w.description.contains("caterpillar word"), "{}", entry.name);
            }
            other => panic!("{}: sticky decider mismatch: {other:?}", entry.name),
        }
    }
}

/// The number of reachable states of the sticky automaton of `set`,
/// by a plain BFS independent of the emptiness search.
fn reachable_sticky_states(set: &TgdSet, vocab: &Vocabulary) -> usize {
    let automaton = StickyAutomaton::new(set, vocab);
    let symbols = automaton.alphabet();
    let mut seen: HashSet<CatState> = automaton.initial_states().into_iter().collect();
    let mut queue: VecDeque<CatState> = seen.iter().cloned().collect();
    while let Some(state) = queue.pop_front() {
        for sym in &symbols {
            if let Some(next) = automaton.next(&state, sym) {
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }
    seen.len()
}

/// The emptiness search explores every reachable state of an empty
/// language, so a terminating verdict's certificate counts exactly
/// those; a non-empty language stops early, so its explored-state
/// counter never exceeds them.
#[test]
fn sticky_state_counts_match_a_reachability_count() {
    let config = DeciderConfig::default();
    let mut sources: Vec<(String, String)> = labelled_suite()
        .into_iter()
        .map(|entry| (entry.name.to_string(), entry.source))
        .collect();
    for a in 2..=4 {
        sources.push((format!("arity_keep({a})"), families::arity_keep(a)));
    }
    for n in 1..=8 {
        sources.push((format!("linear_chain({n})"), families::linear_chain(n)));
        sources.push((
            format!("left_recursion_family({n})"),
            families::left_recursion_family(n),
        ));
    }
    for n in 1..=16 {
        sources.push((format!("data_exchange({n})"), families::data_exchange(n)));
    }
    let mut checked = 0;
    for (name, source) in &sources {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(source, &mut vocab).expect("suite and family sources parse");
        if !is_sticky(&set) || set.require_single_head().is_err() {
            continue;
        }
        let reachable = reachable_sticky_states(&set, &vocab);
        let mut counting = CountingObserver::new();
        let verdict = decide_sticky_observed(&set, &vocab, &config, &mut counting);
        let explored = counting
            .summary()
            .counter(AUTOMATON_STATES)
            .expect("the search reports its state count") as usize;
        match verdict {
            TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::StickyAutomatonEmpty { states },
            ) => {
                assert_eq!(states, reachable, "{name}: certificate state count");
                assert_eq!(explored, reachable, "{name}: explored-state counter");
            }
            TerminationVerdict::NonTerminating(_) => {
                assert!(
                    explored <= reachable,
                    "{name}: explored {explored} > {reachable}"
                )
            }
            other => panic!("{name}: unexpected verdict {other:?}"),
        }
        checked += 1;
    }
    assert!(checked >= 60, "only {checked} sticky sets checked");
    // The states-by-arity figures of EXPERIMENTS.md (E6).
    for (a, states) in [(2, 3), (3, 10), (4, 37)] {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(&families::arity_keep(a), &mut vocab).expect("family parses");
        assert!(
            matches!(
                decide_sticky(&set, &vocab, &config),
                TerminationVerdict::AllInstancesTerminating(
                    TerminationCertificate::StickyAutomatonEmpty { states: s },
                ) if s == states
            ),
            "arity_keep({a}) must have {states} states"
        );
    }
}

#[test]
fn baselines_are_strictly_weaker_than_the_deciders() {
    // E8's containments, in test form:
    //   WA ⊆ SO-critical-terminating ⊆ CT^res_∀∀,
    // with suite members witnessing strictness of each inclusion.
    let budget = Budget::steps(20_000);
    let mut wa_count = 0usize;
    let mut so_count = 0usize;
    let mut ct_count = 0usize;
    let mut wa_not_so = Vec::new();
    let mut so_without_wa = Vec::new();
    let mut ct_without_so = Vec::new();
    for entry in labelled_suite() {
        let (vocab, set) = entry.build();
        let mut scratch = vocab.clone();
        let wa = is_weakly_acyclic(&set, &vocab);
        let so = semi_oblivious_critical(&set, &mut scratch, budget).holds();
        let ct = entry.expected == Expected::Terminating;
        if wa {
            wa_count += 1;
            if !so {
                wa_not_so.push(entry.name);
            }
            assert!(ct, "{}: WA must imply CT", entry.name);
        }
        if so {
            so_count += 1;
            assert!(ct, "{}: SO-critical must imply CT", entry.name);
            if !wa {
                so_without_wa.push(entry.name);
            }
        }
        if ct {
            ct_count += 1;
            if !so {
                ct_without_so.push(entry.name);
            }
        }
    }
    assert!(wa_not_so.is_empty(), "WA ⊆ SO violated: {wa_not_so:?}");
    assert!(
        !so_without_wa.is_empty(),
        "expected a suite member separating SO from WA"
    );
    assert!(
        !ct_without_so.is_empty(),
        "expected a suite member separating CT from SO (e.g. the intro rule)"
    );
    assert!(wa_count < so_count && so_count < ct_count);
}
