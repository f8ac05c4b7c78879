//! Error types for the core crate. Library code returns `Result`
//! everywhere; panics are reserved for internal invariant violations.

use std::fmt;

/// Errors produced while building vocabularies, programs or TGD sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A predicate was used with two different arities.
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// Arity recorded first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// Predicates must have arity `> 0` (paper, Section 2).
    ZeroArity {
        /// Predicate name.
        predicate: String,
    },
    /// A predicate's arity exceeds [`crate::vocab::MAX_ARITY`], the
    /// widest atom the columnar instance store can hold.
    ArityTooLarge {
        /// Predicate name.
        predicate: String,
        /// The rejected arity.
        arity: usize,
    },
    /// A syntax error in a rule/fact file.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        column: usize,
        /// Human-readable description.
        message: String,
    },
    /// TGDs are constant-free first-order sentences; a constant
    /// appeared inside a rule.
    ConstantInRule {
        /// The constant's name.
        constant: String,
    },
    /// A rule was declared with an empty body.
    EmptyBody,
    /// A rule has an empty head.
    EmptyHead,
    /// An `exists` annotation quantified a variable that also occurs
    /// in the body (it would not be existential) or not at all.
    BadExistential {
        /// The variable's display name.
        variable: String,
    },
    /// Two TGDs of one set share a variable; the paper assumes
    /// (w.l.o.g.) that TGDs do not share variables and the stickiness
    /// marking procedure relies on it.
    SharedVariables,
    /// A fact contained a variable or null.
    NonGroundFact,
    /// A decision procedure requiring single-head TGDs received a
    /// multi-head TGD.
    NotSingleHead {
        /// Index of the offending TGD within its set.
        tgd_index: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "predicate {predicate} used with arity {found}, but was declared with arity {expected}"
            ),
            CoreError::ZeroArity { predicate } => {
                write!(f, "predicate {predicate} must have arity > 0")
            }
            CoreError::ArityTooLarge { predicate, arity } => write!(
                f,
                "predicate {predicate} has arity {arity}, but the maximum arity is {}",
                crate::vocab::MAX_ARITY
            ),
            CoreError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            CoreError::ConstantInRule { constant } => {
                write!(f, "TGDs are constant-free, found constant '{constant}' in a rule")
            }
            CoreError::EmptyBody => write!(f, "a TGD must have a non-empty body"),
            CoreError::EmptyHead => write!(f, "a TGD must have a non-empty head"),
            CoreError::BadExistential { variable } => write!(
                f,
                "variable '{variable}' is declared existential but occurs in the body (or nowhere)"
            ),
            CoreError::SharedVariables => {
                write!(f, "TGDs in a set must not share variables (rename apart)")
            }
            CoreError::NonGroundFact => write!(f, "facts must consist of constants only"),
            CoreError::NotSingleHead { tgd_index } => write!(
                f,
                "TGD #{tgd_index} has a multi-atom head; this procedure requires single-head TGDs"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = CoreError::ArityMismatch {
            predicate: "R".into(),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("arity 3"));
        let e = CoreError::Parse {
            line: 2,
            column: 5,
            message: "expected ')'".into(),
        };
        assert!(e.to_string().contains("2:5"));
    }
}
