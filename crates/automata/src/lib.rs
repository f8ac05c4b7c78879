//! # chase-automata
//!
//! A small, dependency-free automata toolkit: implicitly represented
//! (lazily expanded) Büchi automata with on-the-fly emptiness checking
//! and accepting-lasso extraction: Couvreur's (1999) SCC search stops
//! at the first accepting SCC, so only an empty language is explored
//! in full.
//!
//! The sticky termination decider of `chase-termination` instantiates
//! [`buchi::BuchiAutomaton`] with the paper's `A_T` (Appendix D.2);
//! emptiness of `A_T` decides `CT^res_∀∀(S)` (Theorem 6.1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buchi;

/// One-stop imports.
pub mod prelude {
    pub use crate::buchi::{BuchiAutomaton, Emptiness, Explorer, Lasso};
}
