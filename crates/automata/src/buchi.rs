//! Lazily expanded Büchi automata.
//!
//! The sticky decision procedure (Section 6.5 / Appendix D.2 of the
//! paper) reduces non-termination to the emptiness of a deterministic
//! Büchi automaton whose state space is finite but astronomically
//! large if materialised eagerly. This module therefore works with an
//! *implicit* automaton: a trait supplying initial states, a finite
//! alphabet and a transition function; states are interned on the fly
//! and only the reachable fragment is ever built.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// An implicitly represented Büchi automaton, deterministic per input
/// symbol (the paper's `A_T` is deterministic; nondeterminism lives in
/// the choice of the input word, i.e. which edge to follow).
pub trait BuchiAutomaton {
    /// Automaton states. Cheaply clonable; interned by the explorer.
    type State: Clone + Eq + Hash;
    /// Input symbols (the caterpillar alphabet `Λ_T`).
    type Symbol: Clone;

    /// The initial states (the union over start pairs `(e₀, Π₀)`).
    fn initial_states(&self) -> Vec<Self::State>;

    /// The finite input alphabet.
    fn alphabet(&self) -> Vec<Self::Symbol>;

    /// The successor of `state` on `symbol`; `None` encodes the reject
    /// sink (transitions into it are dropped from the graph).
    fn next(&self, state: &Self::State, symbol: &Self::Symbol) -> Option<Self::State>;

    /// Büchi acceptance: the run must visit accepting states
    /// infinitely often.
    fn is_accepting(&self, state: &Self::State) -> bool;
}

/// How many states the emptiness search interns between two calls of
/// its `interrupted` callback.
pub const POLL_INTERVAL: usize = 256;

/// An ultimately periodic word `prefix · cycleᵚ` accepted from the
/// initial state `start`: a witness of non-emptiness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso<S, Sym> {
    /// The initial state the accepting run starts from.
    pub start: S,
    /// The finite prefix.
    pub prefix: Vec<Sym>,
    /// The repeated cycle (non-empty; visits an accepting state).
    pub cycle: Vec<Sym>,
}

/// Outcome of an emptiness check.
#[derive(Debug, Clone)]
pub enum Emptiness<S, Sym> {
    /// `L(A) = ∅`: the search explored every reachable state.
    Empty {
        /// Number of reachable states.
        states: usize,
    },
    /// A witness lasso was found.
    NonEmpty {
        /// The accepting lasso.
        lasso: Lasso<S, Sym>,
        /// Number of states explored before the witness was returned.
        states: usize,
    },
    /// The state cap was hit before the search finished; the result is
    /// unknown. (A resource guard, never a silent truncation.)
    Capped {
        /// The cap that was hit.
        cap: usize,
    },
    /// The `interrupted` callback stopped the search; the result is
    /// unknown.
    Interrupted {
        /// Number of states explored before the stop.
        states: usize,
    },
}

/// Explores an implicit Büchi automaton and decides emptiness on the
/// fly: states are interned as the search first reaches them, and a
/// non-empty language stops the search at its first accepting SCC.
pub struct Explorer<'a, A: BuchiAutomaton> {
    automaton: &'a A,
    cap: usize,
}

impl<'a, A: BuchiAutomaton> Explorer<'a, A> {
    /// Creates an explorer of `automaton` with a state cap (resource
    /// guard).
    pub fn new(automaton: &'a A, cap: usize) -> Self {
        Explorer { automaton, cap }
    }

    /// Decides emptiness with Couvreur's (1999) on-the-fly SCC search:
    /// one iterative DFS from each initial state in turn, whose roots
    /// stack records for every partial SCC whether it holds an
    /// accepting state. The language is non-empty iff an edge into a
    /// live state merges partial SCCs into one that does, and the
    /// search returns right there; an empty language is explored in
    /// full.
    ///
    /// The lasso is read off the explored part: the prefix follows
    /// DFS-tree edges from the DFS root (the lasso's `start`) to an
    /// accepting state `q` of that SCC, and the cycle is a shortest
    /// cycle through `q` over explored edges inside the SCC.
    ///
    /// Interning more than the cap's number of states returns
    /// [`Emptiness::Capped`]. Every [`POLL_INTERVAL`] interned states
    /// the search calls `interrupted` and returns
    /// [`Emptiness::Interrupted`] if it answers `true`.
    pub fn emptiness(
        &self,
        mut interrupted: impl FnMut() -> bool,
    ) -> Emptiness<A::State, A::Symbol> {
        let symbols = self.automaton.alphabet();
        let mut dfs = Dfs {
            nodes: Vec::new(),
            index: HashMap::new(),
            roots: Vec::new(),
            live: Vec::new(),
            path: Vec::new(),
            edges: Vec::new(),
        };
        for init in self.automaton.initial_states() {
            let Ok(root) = dfs.intern(init, None) else {
                continue; // explored from an earlier root
            };
            if let Some(stop) = self.open(&mut dfs, root, &mut interrupted) {
                return stop;
            }
            while let Some(top) = dfs.path.last_mut() {
                let (u, si) = *top;
                top.1 += 1;
                let Some(sym) = symbols.get(si) else {
                    dfs.path.pop();
                    dfs.close(u);
                    continue;
                };
                let Some(next) = self.automaton.next(&dfs.nodes[u].state, sym) else {
                    continue;
                };
                match dfs.intern(next, Some((u, si))) {
                    Ok(v) => {
                        dfs.edges.push((u, si, v));
                        if let Some(stop) = self.open(&mut dfs, v, &mut interrupted) {
                            return stop;
                        }
                    }
                    Err(v) if !dfs.nodes[v].done => {
                        dfs.edges.push((u, si, v));
                        if dfs.merge(v) {
                            return Emptiness::NonEmpty {
                                lasso: dfs.lasso(self.automaton, &symbols),
                                states: dfs.nodes.len(),
                            };
                        }
                    }
                    Err(_) => {} // into a complete SCC: no new cycle
                }
            }
        }
        Emptiness::Empty {
            states: dfs.nodes.len(),
        }
    }

    /// Opens the newly interned state `v` on the DFS path, enforcing
    /// the cap and polling `interrupted`.
    fn open(
        &self,
        dfs: &mut Dfs<A::State>,
        v: usize,
        interrupted: &mut impl FnMut() -> bool,
    ) -> Option<Emptiness<A::State, A::Symbol>> {
        let states = dfs.nodes.len();
        if states > self.cap {
            return Some(Emptiness::Capped { cap: self.cap });
        }
        let accepting = self.automaton.is_accepting(&dfs.nodes[v].state);
        dfs.roots.push((v, accepting));
        dfs.live.push(v);
        dfs.path.push((v, 0));
        (states % POLL_INTERVAL == 0 && interrupted()).then_some(Emptiness::Interrupted { states })
    }
}

/// An interned state and what the search keeps about it.
struct Node<S> {
    state: S,
    /// The DFS-tree edge `(parent, symbol index)` that first reached
    /// the state; `None` for a DFS root.
    parent: Option<(usize, usize)>,
    /// Whether the state's SCC is complete (it left the live stack).
    done: bool,
}

/// The state of one emptiness search. State ids are DFS preorder
/// numbers.
struct Dfs<S> {
    nodes: Vec<Node<S>>,
    index: HashMap<S, usize>,
    /// The first state of each partial SCC, and whether that SCC holds
    /// an accepting state.
    roots: Vec<(usize, bool)>,
    /// The states of the partial SCCs, in increasing id order.
    live: Vec<usize>,
    /// The DFS path: each state with the index of its next symbol.
    path: Vec<(usize, usize)>,
    /// Explored edges `(from, symbol index, to)` into live states.
    edges: Vec<(usize, usize, usize)>,
}

impl<S: Clone + Eq + Hash> Dfs<S> {
    /// Interns `state`, reached over the DFS-tree edge `parent`:
    /// `Ok(id)` if it is new, `Err(id)` if known.
    fn intern(&mut self, state: S, parent: Option<(usize, usize)>) -> Result<usize, usize> {
        match self.index.entry(state) {
            Entry::Occupied(e) => Err(*e.get()),
            Entry::Vacant(e) => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    state: e.key().clone(),
                    parent,
                    done: false,
                });
                e.insert(id);
                Ok(id)
            }
        }
    }

    /// Closes `u`, whose successors are all explored: if `u` roots a
    /// partial SCC, that SCC is complete and leaves the live stack.
    fn close(&mut self, u: usize) {
        if self.roots.last().is_some_and(|&(r, _)| r == u) {
            self.roots.pop();
            while let Some(w) = self.live.pop() {
                self.nodes[w].done = true;
                if w == u {
                    break;
                }
            }
        }
    }

    /// An edge into the live state `v` closes a cycle through every
    /// partial SCC rooted after `v`'s: merges them into `v`'s and
    /// returns whether the merged SCC holds an accepting state.
    fn merge(&mut self, v: usize) -> bool {
        let mut accepting = false;
        while let Some(&(r, acc)) = self.roots.last() {
            if r <= v {
                break;
            }
            accepting |= acc;
            self.roots.pop();
        }
        let top = self.roots.last_mut().expect("a live state has a root");
        top.1 |= accepting;
        top.1
    }

    /// The lasso through the top partial SCC, which holds an accepting
    /// state.
    fn lasso<A: BuchiAutomaton<State = S>>(
        &self,
        automaton: &A,
        symbols: &[A::Symbol],
    ) -> Lasso<S, A::Symbol> {
        let (root, _) = *self.roots.last().expect("an accepting SCC");
        let in_scc = |w: usize| w >= root && !self.nodes[w].done;
        let q = (root..self.nodes.len())
            .find(|&w| in_scc(w) && automaton.is_accepting(&self.nodes[w].state))
            .expect("the SCC holds an accepting state");
        let mut prefix = Vec::new();
        let mut start = q;
        while let Some((from, si)) = self.nodes[start].parent {
            prefix.push(symbols[si].clone());
            start = from;
        }
        prefix.reverse();
        let cycle = self
            .shortest_cycle(q, in_scc)
            .into_iter()
            .map(|si| symbols[si].clone())
            .collect();
        Lasso {
            start: self.nodes[start].state.clone(),
            prefix,
            cycle,
        }
    }

    /// BFS for a shortest non-empty cycle through `q` over explored
    /// edges between states `in_scc` accepts; returns its symbol
    /// indices.
    fn shortest_cycle(&self, q: usize, in_scc: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        for &(u, si, v) in &self.edges {
            if in_scc(u) && in_scc(v) {
                succ[u].push((si, v));
            }
        }
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.nodes.len()]; // (from, symbol)
        let mut queue = VecDeque::from([q]);
        while let Some(u) = queue.pop_front() {
            for &(si, v) in &succ[u] {
                if v == q {
                    let mut cycle = vec![si];
                    let mut cur = u;
                    while let Some((from, s)) = prev[cur] {
                        cycle.push(s);
                        cur = from;
                    }
                    cycle.reverse();
                    return cycle;
                }
                if prev[v].is_none() {
                    prev[v] = Some((u, si));
                    queue.push_back(v);
                }
            }
        }
        unreachable!("q lies on a cycle inside its SCC")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy automaton over the alphabet {0, 1}: states are counters
    /// mod `modulus`; symbol 0 increments, symbol 1 resets; accepting
    /// iff the counter equals `accept`. Transitions out of the last
    /// counter value reject when `trap` is set.
    struct Toy {
        modulus: u16,
        accept: u16,
        trap: bool,
    }

    impl BuchiAutomaton for Toy {
        type State = u16;
        type Symbol = u8;

        fn initial_states(&self) -> Vec<u16> {
            vec![0]
        }

        fn alphabet(&self) -> Vec<u8> {
            vec![0, 1]
        }

        fn next(&self, state: &u16, symbol: &u8) -> Option<u16> {
            if self.trap && *state == self.modulus - 1 {
                return None;
            }
            Some(match symbol {
                0 => (state + 1) % self.modulus,
                _ => 0,
            })
        }

        fn is_accepting(&self, state: &u16) -> bool {
            *state == self.accept
        }
    }

    fn toy(modulus: u16, accept: u16, trap: bool) -> Toy {
        Toy {
            modulus,
            accept,
            trap,
        }
    }

    fn emptiness<A: BuchiAutomaton>(automaton: A, cap: usize) -> Emptiness<A::State, A::Symbol> {
        Explorer::new(&automaton, cap).emptiness(|| false)
    }

    #[test]
    fn nonempty_with_reachable_accepting_cycle() {
        let t = toy(5, 3, false);
        match emptiness(toy(5, 3, false), 1000) {
            Emptiness::NonEmpty { lasso, states } => {
                assert_eq!(lasso.start, 0);
                assert_eq!(states, 5);
                assert!(!lasso.cycle.is_empty());
                // Replay the lasso and check it visits state 3 in the cycle.
                let mut s = lasso.start;
                for sym in &lasso.prefix {
                    s = t.next(&s, sym).unwrap();
                }
                let mut hit = false;
                let entry = s;
                for sym in &lasso.cycle {
                    s = t.next(&s, sym).unwrap();
                    hit |= t.is_accepting(&s);
                }
                assert_eq!(s, entry, "cycle must return to its entry state");
                assert!(hit, "cycle must visit an accepting state");
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }

    /// Counter values 0..1000 where symbol 1 increments and symbol 0
    /// loops on the accepting state 0 (and rejects elsewhere).
    struct LoopAtZero;

    impl BuchiAutomaton for LoopAtZero {
        type State = u16;
        type Symbol = u8;

        fn initial_states(&self) -> Vec<u16> {
            vec![0]
        }

        fn alphabet(&self) -> Vec<u8> {
            vec![0, 1]
        }

        fn next(&self, state: &u16, symbol: &u8) -> Option<u16> {
            match symbol {
                0 => (*state == 0).then_some(0),
                _ => Some((state + 1) % 1000),
            }
        }

        fn is_accepting(&self, state: &u16) -> bool {
            *state == 0
        }
    }

    #[test]
    fn nonempty_stops_at_the_first_accepting_cycle() {
        // The first edge explored closes the accepting self-loop; the
        // other 999 states are never interned.
        match emptiness(LoopAtZero, 10) {
            Emptiness::NonEmpty { lasso, states } => {
                assert_eq!(states, 1);
                assert_eq!((lasso.prefix, lasso.cycle), (vec![], vec![0]));
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }

    #[test]
    fn empty_when_accepting_state_unreachable() {
        // Counter values stay below 5, so 7 is never reached; every
        // reachable state is explored.
        assert!(matches!(
            emptiness(toy(5, 7, false), 1000),
            Emptiness::Empty { states: 5 }
        ));
    }

    #[test]
    fn empty_when_accepting_state_not_on_cycle() {
        // With trap=true, state 4 has no outgoing edges. Accepting
        // state 4 is reachable but on no cycle.
        assert!(matches!(
            emptiness(toy(5, 4, true), 1000),
            Emptiness::Empty { states: 5 }
        ));
    }

    #[test]
    fn self_loop_accepted() {
        // modulus 1: single state 0, symbol 0 self-loops.
        match emptiness(toy(1, 0, false), 10) {
            Emptiness::NonEmpty { lasso, .. } => {
                assert!(lasso.prefix.is_empty());
                assert_eq!(lasso.cycle.len(), 1);
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }

    #[test]
    fn cap_reported() {
        assert!(matches!(
            emptiness(toy(200, 199, false), 10),
            Emptiness::Capped { cap: 10 }
        ));
    }

    #[test]
    fn interrupted_every_poll_interval() {
        // 1,000 states, empty language: three polls, at 256, 512 and
        // 768 states.
        let mut polls = 0;
        let e = Explorer::new(&toy(1000, 2000, false), usize::MAX).emptiness(|| {
            polls += 1;
            false
        });
        assert!(matches!(e, Emptiness::Empty { states: 1000 }));
        assert_eq!(polls, 1000 / POLL_INTERVAL);
        let e = Explorer::new(&toy(1000, 2000, false), usize::MAX).emptiness(|| true);
        assert!(matches!(
            e,
            Emptiness::Interrupted {
                states: POLL_INTERVAL
            }
        ));
    }

    /// Two disjoint components: a dead end from initial state 0 and an
    /// accepting self-loop from initial state 10.
    struct TwoStarts;

    impl BuchiAutomaton for TwoStarts {
        type State = u8;
        type Symbol = u8;

        fn initial_states(&self) -> Vec<u8> {
            vec![0, 10]
        }

        fn alphabet(&self) -> Vec<u8> {
            vec![0]
        }

        fn next(&self, state: &u8, _: &u8) -> Option<u8> {
            match state {
                0 => Some(1),
                10 | 11 => Some(11),
                _ => None,
            }
        }

        fn is_accepting(&self, state: &u8) -> bool {
            *state == 11
        }
    }

    #[test]
    fn lasso_names_its_initial_state() {
        match emptiness(TwoStarts, 100) {
            Emptiness::NonEmpty { lasso, states } => {
                assert_eq!(lasso.start, 10);
                assert_eq!(lasso.prefix, vec![0]);
                assert_eq!(lasso.cycle, vec![0]);
                assert_eq!(states, 4);
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }
}
