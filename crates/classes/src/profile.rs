//! A one-call syntactic profile of a TGD set: which recognised classes
//! it belongs to. It runs no chase. Marnette's semi-oblivious check on
//! the critical database belongs to the deciders; when it proves
//! termination, the verdict's certificate says so
//! (`SemiObliviousCritical` in `chase-termination`).

use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;

use crate::guarded::{all_guarded, all_linear};
use crate::jointly_acyclic::is_jointly_acyclic;
use crate::sticky::is_sticky;
use crate::weakly_acyclic::is_weakly_acyclic;

/// Syntactic class membership of a TGD set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassProfile {
    /// Every TGD single-head (precondition of the paper's theorems).
    pub single_head: bool,
    /// Class `G` (all TGDs guarded).
    pub guarded: bool,
    /// All TGDs linear (single body atom); implies guarded.
    pub linear: bool,
    /// Class `S` (sticky).
    pub sticky: bool,
    /// Weakly acyclic (implies `CT^res_∀∀`).
    pub weakly_acyclic: bool,
    /// Jointly acyclic (implies `CT^res_∀∀`; strictly weaker than WA).
    pub jointly_acyclic: bool,
}

impl ClassProfile {
    /// Analyses the set.
    pub fn analyse(set: &TgdSet, vocab: &Vocabulary) -> Self {
        ClassProfile {
            single_head: set.all_single_head(),
            guarded: all_guarded(set),
            linear: all_linear(set),
            sticky: is_sticky(set),
            weakly_acyclic: is_weakly_acyclic(set, vocab),
            jointly_acyclic: is_jointly_acyclic(set),
        }
    }

    /// Whether one of the paper's decidable cases applies (single-head
    /// guarded or single-head sticky).
    pub fn in_decidable_fragment(&self) -> bool {
        self.single_head && (self.guarded || self.sticky)
    }

    /// The names of the classes the set belongs to.
    pub fn tags(&self) -> Vec<&'static str> {
        let mut tags = Vec::new();
        if self.single_head {
            tags.push("single-head");
        }
        if self.linear {
            tags.push("linear");
        } else if self.guarded {
            tags.push("guarded");
        }
        if self.sticky {
            tags.push("sticky");
        }
        if self.weakly_acyclic {
            tags.push("weakly-acyclic");
        } else if self.jointly_acyclic {
            tags.push("jointly-acyclic");
        }
        tags
    }

    /// Renders the profile as a compact single line.
    pub fn summary(&self) -> String {
        render_tags(&self.tags())
    }
}

/// Joins class tags into one line, or names the absence of any.
pub fn render_tags(tags: &[&str]) -> String {
    if tags.is_empty() {
        "(no recognised class)".to_string()
    } else {
        tags.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;

    fn profile(src: &str) -> ClassProfile {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        ClassProfile::analyse(&set, &vocab)
    }

    #[test]
    fn linear_rule_profile() {
        let p = profile("R(x,y) -> exists z. R(x,z).");
        assert!(p.single_head && p.linear && p.guarded && p.sticky && p.weakly_acyclic);
        assert!(p.in_decidable_fragment());
        assert!(p.summary().contains("linear"));
    }

    #[test]
    fn guarded_not_sticky_profile() {
        // Example 5.6's σ2 has a join on y inside a guard; the set is
        // guarded. Stickiness: y is marked via σ1 dropping it... check
        // structurally rather than by expectation.
        let p = profile(
            "S(x1,y1) -> T(x1).
             R(x2,y2), T(y2) -> P(x2,y2).
             P(x3,y3) -> exists z3. P(y3,z3).",
        );
        assert!(p.single_head && p.guarded && !p.linear);
        assert!(!p.weakly_acyclic); // P(x,y) -> ∃z P(y,z) has a special cycle
        assert!(p.in_decidable_fragment());
    }

    #[test]
    fn unguarded_sticky_profile() {
        let p = profile(
            "T(x1,y1,z1) -> exists w1. S(y1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
        );
        assert!(!p.guarded && p.sticky);
        assert!(p.in_decidable_fragment());
    }

    #[test]
    fn multi_head_flagged() {
        let p = profile("R(x,y) -> S(x), T(y).");
        assert!(!p.single_head);
        assert!(!p.in_decidable_fragment());
    }
}
