//! Properties of the seeded request generators.

use chase_core::compile::compile;
use chase_engine::governor::{Budget, Outcome};
use chase_engine::task::{run_chase_task, ChaseTaskSpec};
use chase_telemetry::NullObserver;
use chase_termination::{decide, DeciderConfig, TerminationVerdict};
use chase_workloads::suite::Expected;
use perfbench::check::chase_reference;
use perfbench::workload::{Op, Request, Stream, Workload, MAX_STEPS};

fn verdict(source: &str) -> TerminationVerdict {
    let program = compile(source).expect("generated programs compile");
    decide(
        program.tgd_set(),
        program.vocab(),
        &DeciderConfig::default(),
    )
}

fn label_of(v: &TerminationVerdict) -> Option<Expected> {
    if v.is_terminating() {
        Some(Expected::Terminating)
    } else if v.is_non_terminating() {
        Some(Expected::NonTerminating)
    } else {
        None
    }
}

/// One pass over the deck: every template of the stream once.
fn one_pass(stream: &Stream) -> Vec<Request> {
    (0..stream.deck_len() as u64)
        .map(|i| stream.request(i))
        .collect()
}

#[test]
fn same_seed_gives_the_same_stream() {
    for workload in Workload::ALL {
        let a = Stream::new(workload, 42);
        let b = Stream::new(workload, 42);
        let c = Stream::new(workload, 43);
        let span = 2 * a.deck_len() as u64;
        let texts =
            |s: &Stream| -> Vec<String> { (0..span).map(|i| s.request(i).source).collect() };
        assert_eq!(texts(&a), texts(&b), "{}", workload.name());
        assert_ne!(texts(&a), texts(&c), "{}", workload.name());
    }
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
    assert_eq!(Workload::parse("nope"), None);
}

#[test]
fn decide_cold_labels_agree_with_decide() {
    let stream = Stream::new(Workload::DecideCold, 5);
    for request in one_pass(&stream) {
        assert_eq!(request.op, Op::Decide);
        let v = verdict(&request.source);
        assert_eq!(label_of(&v), request.expected, "{}", request.family);
    }
}

#[test]
fn nonce_changes_the_fingerprint_but_not_the_verdict() {
    let stream = Stream::new(Workload::DecideCold, 9);
    let len = stream.deck_len() as u64;
    for i in (0..len).step_by(7) {
        let first = stream.request(i);
        let again = stream.request(i + len);
        assert_eq!(first.family, again.family);
        assert_ne!(first.source, again.source);
        let fp = |r: &Request| compile(&r.source).expect("compiles").fingerprint();
        assert_ne!(fp(&first), fp(&again), "{}", first.family);
        let rules_only = first.source.split("\nNonce(").next().expect("nonce suffix");
        assert_ne!(
            fp(&first),
            compile(rules_only).expect("compiles").fingerprint()
        );
        assert_eq!(
            label_of(&verdict(&first.source)),
            label_of(&verdict(rules_only)),
            "{}",
            first.family
        );
    }
}

fn chase_programs() -> Vec<Request> {
    let mut out: Vec<Request> = one_pass(&Stream::new(Workload::ChaseIngest, 3));
    out.extend(
        Stream::new(Workload::RepeatMix, 3)
            .warmup()
            .into_iter()
            .filter(|r| r.op == Op::Chase),
    );
    out
}

#[test]
fn every_chase_program_terminates_within_its_budget() {
    for request in chase_programs() {
        let spec = ChaseTaskSpec {
            budget: Budget::steps(MAX_STEPS as usize),
            ..ChaseTaskSpec::restricted(request.source.clone())
        };
        let out = run_chase_task(&spec, &mut NullObserver, None).expect("chase runs");
        assert_eq!(out.outcome, Outcome::Terminated, "{}", request.family);
        let reference = chase_reference(&request.source).expect("reference");
        assert_eq!(reference.steps, out.steps as u64, "{}", request.family);
        assert_eq!(reference.atoms, out.atoms() as u64, "{}", request.family);
    }
}

#[test]
fn chase_ingest_programs_are_new_and_sized() {
    let stream = Stream::new(Workload::ChaseIngest, 4);
    let len = stream.deck_len() as u64;
    for i in 0..len {
        let (a, b) = (stream.request(i), stream.request(i + len));
        assert_eq!(a.op, Op::Chase);
        assert_eq!(a.family, b.family);
        assert_ne!(a.source, b.source, "{}", a.family);
        let kib = a.source.len() / 1024;
        assert!((10..=220).contains(&kib), "{}: {kib} KiB", a.family);
    }
}

#[test]
fn repeat_mix_is_a_zipf_pool_with_whitespace_variants() {
    let stream = Stream::new(Workload::RepeatMix, 8);
    let pool = stream.pool();
    assert_eq!(pool.len(), 16);
    let pass = one_pass(&stream);
    let chases = pass.iter().filter(|r| r.op == Op::Chase).count();
    let share = chases as f64 / pass.len() as f64;
    assert!((0.17..=0.23).contains(&share), "chase share {share}");
    let mut variants = 0;
    for request in &pass {
        let entry = pool
            .iter()
            .find(|e| e.name == request.family)
            .expect("every request comes from the pool");
        if request.source != entry.source {
            variants += 1;
            // Whitespace only: the same rules and facts in the same order.
            assert_eq!(
                request.source.split_whitespace().collect::<Vec<_>>(),
                entry.source.split_whitespace().collect::<Vec<_>>()
            );
            assert_eq!(
                compile(&request.source).expect("compiles").fingerprint(),
                compile(&entry.source).expect("compiles").fingerprint()
            );
        }
    }
    assert!(variants * 12 >= pass.len(), "variants {variants}");
    // The most popular program is sent more often than the least.
    let count = |name: &str| pass.iter().filter(|r| r.family == name).count();
    assert!(count(&pool[0].name) > 4 * count(&pool[15].name));
}
