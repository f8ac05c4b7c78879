//! Differential test of the on-the-fly Büchi emptiness search against
//! a brute-force oracle, over small random deterministic automata.
//!
//! The oracle computes the transitive closure of the transition graph:
//! the language is non-empty iff some accepting state `q` is reachable
//! from an initial state and reaches itself in at least one step.

use proptest::prelude::*;
use restricted_chase::automata::buchi::{BuchiAutomaton, Emptiness, Explorer, Lasso};

/// A deterministic automaton over `0..n` with symbols `0..symbols`;
/// `delta[q][a] = None` is a rejecting edge.
#[derive(Debug)]
struct Random {
    symbols: usize,
    delta: Vec<Vec<Option<usize>>>,
    accepting: Vec<bool>,
    initial: Vec<usize>,
}

impl BuchiAutomaton for Random {
    type State = usize;
    type Symbol = usize;

    fn initial_states(&self) -> Vec<usize> {
        self.initial.clone()
    }

    fn alphabet(&self) -> Vec<usize> {
        (0..self.symbols).collect()
    }

    fn next(&self, state: &usize, symbol: &usize) -> Option<usize> {
        self.delta[*state][*symbol]
    }

    fn is_accepting(&self, state: &usize) -> bool {
        self.accepting[*state]
    }
}

/// Builds the automaton from raw draws: a cell below 12 is an edge to
/// state `cell % n`, anything above a rejecting edge; a flag of 0
/// makes a state accepting.
fn build(n: usize, symbols: usize, cells: &[usize], flags: &[u8], initial: &[usize]) -> Random {
    Random {
        symbols,
        delta: (0..n)
            .map(|q| {
                (0..symbols)
                    .map(|a| {
                        let cell = cells[q * 3 + a];
                        (cell < 12).then_some(cell % n)
                    })
                    .collect()
            })
            .collect(),
        accepting: flags[..n].iter().map(|&f| f == 0).collect(),
        initial: initial.iter().map(|&q| q % n).collect(),
    }
}

/// The oracle: `(number of reachable states, whether the language is
/// non-empty)`.
fn oracle(a: &Random) -> (usize, bool) {
    let n = a.delta.len();
    // plus[p][q]: q is reachable from p in at least one step.
    let mut plus = vec![vec![false; n]; n];
    for (p, row) in a.delta.iter().enumerate() {
        for &q in row.iter().flatten() {
            plus[p][q] = true;
        }
    }
    for k in 0..n {
        let via_k = plus[k].clone();
        for row in plus.iter_mut().filter(|row| row[k]) {
            for (to, &reached) in row.iter_mut().zip(&via_k) {
                *to |= reached;
            }
        }
    }
    let reachable: Vec<usize> = (0..n)
        .filter(|&q| a.initial.iter().any(|&i| i == q || plus[i][q]))
        .collect();
    let nonempty = reachable.iter().any(|&q| a.accepting[q] && plus[q][q]);
    (reachable.len(), nonempty)
}

/// Replays `lasso`: it must start at an initial state, every edge must
/// exist, the cycle must be non-empty, return to its entry state and
/// visit an accepting state.
fn check_lasso(a: &Random, lasso: &Lasso<usize, usize>) -> Result<(), TestCaseError> {
    prop_assert!(
        a.initial.contains(&lasso.start),
        "{lasso:?} starts off-initial"
    );
    let mut state = lasso.start;
    for sym in &lasso.prefix {
        state = a
            .next(&state, sym)
            .ok_or_else(|| TestCaseError::fail("prefix rejects"))?;
    }
    let entry = state;
    prop_assert!(!lasso.cycle.is_empty(), "empty cycle");
    let mut accepting = false;
    for sym in &lasso.cycle {
        state = a
            .next(&state, sym)
            .ok_or_else(|| TestCaseError::fail("cycle rejects"))?;
        accepting |= a.is_accepting(&state);
    }
    prop_assert_eq!(state, entry, "cycle does not return to its entry");
    prop_assert!(accepting, "cycle visits no accepting state");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 2_000,
        .. ProptestConfig::default()
    })]

    /// Emptiness, the explored-state count and the lasso agree with the
    /// oracle; a too-small cap is still reported as `Capped`.
    #[test]
    fn emptiness_matches_the_transitive_closure_oracle(
        n in 1usize..13,
        symbols in 1usize..4,
        cells in proptest::collection::vec(0usize..18, 36..37),
        flags in proptest::collection::vec(0u8..3, 12..13),
        initial in proptest::collection::vec(0usize..12, 1..4),
    ) {
        let a = build(n, symbols, &cells, &flags, &initial);
        let (reachable, nonempty) = oracle(&a);
        match Explorer::new(&a, usize::MAX).emptiness(|| false) {
            Emptiness::Empty { states } => {
                prop_assert!(!nonempty, "{a:?}: oracle finds an accepting lasso");
                prop_assert_eq!(states, reachable, "{:?}", a);
            }
            Emptiness::NonEmpty { lasso, states } => {
                prop_assert!(nonempty, "{a:?}: oracle finds no accepting lasso");
                prop_assert!(states <= reachable, "{a:?}: explored {states}");
                check_lasso(&a, &lasso)?;
            }
            other => prop_assert!(false, "{a:?}: uncapped search gave {other:?}"),
        }
        for cap in 0..reachable {
            match Explorer::new(&a, cap).emptiness(|| false) {
                Emptiness::Capped { cap: hit } => prop_assert_eq!(hit, cap),
                // A lasso found within the cap is still a lasso.
                Emptiness::NonEmpty { lasso, states } if nonempty => {
                    prop_assert!(states <= cap, "{a:?}: explored {states} > cap {cap}");
                    check_lasso(&a, &lasso)?;
                }
                other => prop_assert!(false, "{a:?}: cap {cap} gave {other:?}"),
            }
        }
        // A cap of exactly the reachable states is never hit.
        let exact = Explorer::new(&a, reachable).emptiness(|| false);
        prop_assert!(!matches!(exact, Emptiness::Capped { .. }), "{a:?}: {exact:?}");
    }
}
