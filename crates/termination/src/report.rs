//! Human-readable explanation of a termination verdict: what was
//! decided, by which machinery, and — for non-termination — a replay
//! of the witness. This is what `chasectl decide` and downstream tools
//! surface to users who need to *trust* the answer.

use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_telemetry::TelemetrySummary;
use tgd_classes::profile::ClassProfile;

use crate::common::{TerminationCertificate, TerminationVerdict};

/// Renders a full explanation of `verdict` for `set`. When a
/// [`TelemetrySummary`] is supplied (from
/// [`crate::decide_with_telemetry`]), a "telemetry:" section with
/// per-phase wall-clock and the decider's counters is appended.
pub fn explain(
    verdict: &TerminationVerdict,
    set: &TgdSet,
    vocab: &Vocabulary,
    profile: Option<&ClassProfile>,
    telemetry: Option<&TelemetrySummary>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TGD set: {} rule(s) over {} predicate(s), max arity {}\n",
        set.len(),
        set.schema_preds().len(),
        set.max_arity()
    ));
    if let Some(p) = profile {
        out.push_str(&format!("classes: {}\n", p.summary()));
    }
    match verdict {
        TerminationVerdict::AllInstancesTerminating(cert) => {
            out.push_str("verdict: ALL-INSTANCES TERMINATING\n");
            out.push_str("  every restricted chase derivation of every database is finite\n");
            out.push_str(&explain_certificate(cert));
        }
        TerminationVerdict::NonTerminating(w) => {
            out.push_str("verdict: NOT all-instances terminating\n");
            out.push_str(&format!(
                "  witness database ({} atoms): {}\n",
                w.database.len(),
                w.database.display(vocab)
            ));
            out.push_str(&format!("  structure: {}\n", w.description));
            out.push_str(&format!(
                "  evidence: a replay-validated restricted chase derivation of {} steps{}\n",
                w.derivation.len(),
                if w.finitary {
                    " from a finite database with a pumpable pattern"
                } else {
                    ""
                }
            ));
            out.push_str(
                "  by the Fairness Theorem (paper §4) the infinite derivation can be made fair\n",
            );
            let preview = w.derivation.display(set, vocab);
            let lines: Vec<&str> = preview.lines().take(6).collect();
            out.push_str("  first steps:\n");
            for l in lines {
                out.push_str(&format!("    {l}\n"));
            }
            if w.derivation.len() > 6 {
                out.push_str("    ⋮\n");
            }
        }
        TerminationVerdict::Unknown { reason } => {
            out.push_str(&format!("verdict: UNKNOWN\n  {reason}\n"));
        }
    }
    if let Some(summary) = telemetry {
        if !summary.is_empty() {
            out.push_str("telemetry:\n");
            out.push_str(&summary.render_table());
        }
    }
    out
}

fn explain_certificate(cert: &TerminationCertificate) -> String {
    match cert {
        TerminationCertificate::StickyAutomatonEmpty { states } => format!(
            "  certificate: the caterpillar Büchi automaton (paper Thm 6.1, App D.2) is empty\n  \
             ({states} reachable product states; no finitary caterpillar exists)\n"
        ),
        TerminationCertificate::FullTgds => {
            "  certificate: no TGD that can fire has an existential variable, so no null is \
             ever invented and every derivation stays within the active domain\n"
                .to_string()
        }
        TerminationCertificate::WeaklyAcyclic => {
            "  certificate: weak acyclicity (no special-edge cycle in the position graph)\n"
                .to_string()
        }
        TerminationCertificate::JointlyAcyclic => {
            "  certificate: joint acyclicity (the existential dependency graph is acyclic)\n"
                .to_string()
        }
        TerminationCertificate::SemiObliviousCritical { steps } => format!(
            "  certificate: the semi-oblivious chase saturates the critical database in \
             {steps} steps (Marnette's criterion)\n"
        ),
        TerminationCertificate::ExhaustedSearch { seeds } => format!(
            "  certificate: exhaustive search — {seeds} canonical seed database(s), every \
             derivation order terminates\n"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DeciderConfig;
    use crate::decide;
    use chase_core::parser::parse_tgds;

    fn explained(src: &str) -> String {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        let verdict = decide(&set, &vocab, &DeciderConfig::default());
        let profile = ClassProfile::analyse(&set, &vocab);
        explain(&verdict, &set, &vocab, Some(&profile), None)
    }

    #[test]
    fn terminating_report_names_the_certificate() {
        let r = explained("R(x,y) -> exists z. R(x,z).");
        assert!(r.contains("ALL-INSTANCES TERMINATING"));
        assert!(r.contains("Büchi automaton"));
        assert!(r.contains("classes:"));
    }

    #[test]
    fn non_terminating_report_shows_witness_steps() {
        let r = explained("R(x,y) -> exists z. R(y,z).");
        assert!(r.contains("NOT all-instances terminating"));
        assert!(r.contains("witness database"));
        assert!(r.contains("first steps:"));
        assert!(r.contains("Fairness Theorem"));
    }

    #[test]
    fn unknown_report_carries_the_reason() {
        let r = explained("R(x,y) -> S(x), T(y)."); // multi-head
        assert!(r.contains("UNKNOWN"));
        assert!(r.contains("single-head"));
    }

    #[test]
    fn telemetry_section_appended_when_supplied() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(x,z).", &mut vocab).unwrap();
        let (verdict, summary) =
            crate::decide_with_telemetry(&set, &vocab, &DeciderConfig::default());
        let r = explain(&verdict, &set, &vocab, None, Some(&summary));
        assert!(r.contains("telemetry:"), "{r}");
        assert!(r.contains("sticky.emptiness"), "{r}");
        assert!(r.contains(chase_telemetry::names::AUTOMATON_STATES), "{r}");
        // Histogram rows carry the log₂-bucket quantile columns.
        assert!(r.contains("p50"), "{r}");
        assert!(r.contains("p99"), "{r}");
        // Without a summary the section is absent.
        let r2 = explain(&verdict, &set, &vocab, None, None);
        assert!(!r2.contains("telemetry:"));
    }
}
