//! # chase-core
//!
//! Foundational layer of the restricted-chase toolkit: terms, atoms,
//! schemas, instances, substitutions, homomorphisms,
//! tuple-generating dependencies (TGDs), equality types and a parser
//! for rule/fact files.
//!
//! This crate implements the objects of Section 2 and Appendix A of
//! *All-Instances Restricted Chase Termination* (Gogacz, Marcinkowski
//! & Pieris, PODS 2020). The chase procedures themselves live in
//! `chase-engine`; the class recognisers in `tgd-classes`; the
//! decision procedures in `chase-termination`.
//!
//! ## Example
//!
//! ```
//! use chase_core::prelude::*;
//!
//! let mut vocab = Vocabulary::new();
//! let program = parse_program(
//!     "R(a,b). R(x,y) -> exists z. R(x,z).",
//!     &mut vocab,
//! ).unwrap();
//! let tgds = program.tgd_set(&vocab).unwrap();
//! // The database already satisfies the TGD (intro example of the paper):
//! assert!(chase_core::hom::satisfies_all(&program.database, &tgds));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atom;
pub mod cancel;
pub mod compile;
pub mod eqtype;
pub mod error;
pub mod hom;
pub mod ids;
pub mod instance;
pub mod parser;
pub mod subst;
mod table;
pub mod term;
pub mod tgd;
pub mod vocab;

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::atom::{Atom, Position};
    pub use crate::cancel::CancelToken;
    pub use crate::compile::{compile, CompiledProgram, ProgramFingerprint};
    pub use crate::eqtype::{EqType, LabeledEqType};
    pub use crate::error::CoreError;
    pub use crate::hom::{
        exists_homomorphism, for_each_homomorphism, ground_homomorphism_exists, satisfies,
        satisfies_all,
    };
    pub use crate::ids::{ConstId, NullId, PredId, VarId};
    pub use crate::instance::{Database, Instance, MemoryFootprint};
    pub use crate::parser::{parse_program, parse_tgds, Program};
    pub use crate::subst::Binding;
    pub use crate::term::{NullFactory, Term};
    pub use crate::tgd::{RuleBuilder, Tgd, TgdId, TgdSet};
    pub use crate::vocab::Vocabulary;
}
