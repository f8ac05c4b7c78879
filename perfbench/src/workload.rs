//! Seeded request streams for the three served workloads.
//!
//! A stream is a *deck*: a fixed multiset of request templates whose
//! composition never depends on the seed, shuffled by the seed. Request
//! `i` is deck slot `i mod len` rendered with per-request data derived
//! from `(seed, i)`. A fixed composition keeps the latency quantiles on
//! the same plateau for every seed; the seed changes order, data and
//! nonces only. Rendering is a pure function of `(workload, seed, i)`,
//! so the checker can regenerate any request after the timed window.
//!
//! Size caps (measured on a 2-CPU x86-64 host, release build): closure
//! at 250 nodes / 1,500 edges takes about 12 s per chase (60k steps at
//! ~200 µs/step), and `arity_shift(5)`/`(6)` decide in 70 ms / 0.9 s.
//! The generators stay at or below closure 50/300, arity 4, family
//! size 16 and join loop 6, so one request costs about 100 ms or less.

use chase_server::protocol::Reply;
use chase_workloads::families;
use chase_workloads::suite::{labelled_suite, Expected};

/// Step budget sent with every chase request (and used by the
/// references). Every generated chase program saturates well inside it.
pub const MAX_STEPS: u64 = 20_000;

/// Largest arity of `arity_shift`/`arity_keep` in `decide_cold`.
const MAX_ARITY: usize = 4;
/// Largest size of the linear/guarded/data-exchange families in
/// `decide_cold`.
const MAX_FAMILY: usize = 16;
/// Largest `sticky_join_loop` size in `decide_cold`.
const MAX_JOIN_LOOP: usize = 6;
/// Closure graph of the `repeat_mix` chase programs.
const CLOSURE_NODES: usize = 50;
/// Edges of the `repeat_mix` closure graphs.
const CLOSURE_EDGES: usize = 300;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique `decide` requests: every one misses both caches.
    DecideCold,
    /// Unique `chase` requests with large fact lists under cheap rules.
    ChaseIngest,
    /// Zipf-skewed decides and chases over a small warm pool.
    RepeatMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DecideCold,
        Workload::ChaseIngest,
        Workload::RepeatMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideCold => "decide_cold",
            Workload::ChaseIngest => "chase_ingest",
            Workload::RepeatMix => "repeat_mix",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The protocol operation of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `{"op":"decide"}`: all-instances termination.
    Decide,
    /// `{"op":"chase"}`: a FIFO restricted chase.
    Chase,
}

/// One rendered request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Template name, for reports and failure messages.
    pub family: String,
    /// The exact program text sent.
    pub source: String,
    /// The hand label of a decide request.
    pub expected: Option<Expected>,
}

impl Request {
    /// The protocol line for this request under session id `id`.
    pub fn line(&self, id: &str, telemetry: bool) -> String {
        match self.op {
            Op::Decide => Reply::request("decide")
                .str("id", id)
                .str("program", &self.source)
                .bool("telemetry", telemetry)
                .finish(),
            Op::Chase => Reply::request("chase")
                .str("id", id)
                .str("program", &self.source)
                .num("max_steps", MAX_STEPS)
                .bool("telemetry", telemetry)
                .finish(),
        }
    }
}

/// The wire name of a label, as a decide `result` line carries it.
pub(crate) fn verdict_name(expected: Expected) -> &'static str {
    match expected {
        Expected::Terminating => "terminating",
        Expected::NonTerminating => "non_terminating",
    }
}

/// SplitMix64: a tiny deterministic generator for decks and data.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Per-request data seed: distinct for every `(seed, index)` pair.
fn data_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// A labelled decide template.
#[derive(Debug, Clone)]
struct DecideTemplate {
    name: String,
    rules: String,
    expected: Expected,
}

fn decide_templates() -> Vec<DecideTemplate> {
    use Expected::{NonTerminating, Terminating};
    let mut out: Vec<DecideTemplate> = labelled_suite()
        .into_iter()
        .map(|e| DecideTemplate {
            name: e.name.to_string(),
            rules: e.source,
            expected: e.expected,
        })
        .collect();
    let mut add = |name: String, rules: String, expected| {
        out.push(DecideTemplate {
            name,
            rules,
            expected,
        })
    };
    for a in 2..=MAX_ARITY {
        add(
            format!("arity_shift({a})"),
            families::arity_shift(a),
            NonTerminating,
        );
        add(
            format!("arity_keep({a})"),
            families::arity_keep(a),
            Terminating,
        );
    }
    for n in 1..=MAX_FAMILY {
        add(
            format!("linear_cycle({n})"),
            families::linear_cycle(n),
            NonTerminating,
        );
        add(
            format!("linear_chain({n})"),
            families::linear_chain(n),
            Terminating,
        );
        add(
            format!("left_recursion_family({n})"),
            families::left_recursion_family(n),
            Terminating,
        );
        add(
            format!("guarded_side_bounded({n})"),
            families::guarded_side_bounded(n),
            Terminating,
        );
        add(
            format!("data_exchange({n})"),
            families::data_exchange(n),
            Terminating,
        );
    }
    for k in 1..=MAX_JOIN_LOOP {
        add(
            format!("sticky_join_loop({k})"),
            families::sticky_join_loop(k),
            NonTerminating,
        );
    }
    out
}

/// Shapes of the `chase_ingest` programs: cheap rules over large,
/// freshly generated fact lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ingest {
    /// `S_i(x,y,u) → ∃z T_i(x,y,z)`, `T_i(p,q,r) → W_i(p,q)` over
    /// `facts` facts per `S_i`.
    WideExistential { width: usize, facts: usize },
    /// `families::data_exchange(width)` over `facts` facts per `S_i`.
    DataExchange { width: usize, facts: usize },
    /// `E(x,y), E(y,z), E(x,z) → ∃w M(x,z,w)` over a random graph.
    Triangle { nodes: usize, edges: usize },
}

fn ingest_deck() -> Vec<Ingest> {
    let mut deck = Vec::new();
    for width in [4, 8, 12, 16] {
        for facts in [150, 300, 600] {
            deck.push(Ingest::WideExistential { width, facts });
        }
    }
    for width in [4, 8, 16] {
        for facts in [200, 400] {
            deck.push(Ingest::DataExchange { width, facts });
        }
    }
    for edges in [1_500, 3_000, 6_000] {
        deck.push(Ingest::Triangle {
            nodes: edges,
            edges,
        });
    }
    deck
}

fn render_ingest(shape: Ingest, data: u64) -> (String, String) {
    use std::fmt::Write as _;
    // Constants carry a per-request offset so every program is new.
    let base = data % 0x100_0000;
    match shape {
        Ingest::WideExistential { width, facts } => {
            let mut src = String::with_capacity(width * facts * 24);
            for i in 0..width {
                let _ = writeln!(src, "S{i}(x,y,u) -> exists z. T{i}(x,y,z).");
                let _ = writeln!(src, "T{i}(p,q,r) -> W{i}(p,q).");
            }
            for i in 0..width {
                for j in 0..facts {
                    let _ = writeln!(src, "S{i}(c{},d{},e{:x}).", j % 5, j % 7, base + j as u64);
                }
            }
            (format!("wide_existential({width}x{facts})"), src)
        }
        Ingest::DataExchange { width, facts } => {
            let mut src = families::data_exchange(width);
            for i in 0..width {
                for j in 0..facts {
                    let _ = writeln!(src, "S{i}(c{:x},d{}).", base + j as u64, j % 7);
                }
            }
            (format!("data_exchange({width}x{facts})"), src)
        }
        Ingest::Triangle { nodes, edges } => {
            let mut src = String::from("E(x,y), E(y,z), E(x,z) -> exists w. M(x,z,w).\n");
            src.push_str(&families::edge_database("E", nodes, edges, data));
            (format!("triangle({nodes}/{edges})"), src)
        }
    }
}

/// One program of the `repeat_mix` pool.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// The operation the pool entry is sent with.
    pub op: Op,
    /// Template name.
    pub name: String,
    /// Byte-identical resubmission text.
    pub source: String,
    /// Decide label.
    pub expected: Option<Expected>,
}

/// Zipf ranks (1-based) of the pool that are chase programs: their
/// weights `1/2 + 1/9 + 1/14` are 20.2% of the pool's total `H_16`.
const CHASE_RANKS: [usize; 3] = [2, 9, 14];
/// Deck slots of `repeat_mix`; each pool entry gets a share
/// proportional to `1/rank`.
const MIX_DECK: usize = 256;
/// One in this many deck slots of each pool entry is a whitespace-only
/// variant (unique per request: a program-cache miss, a decide-cache
/// hit via the canonical fingerprint).
const VARIANT_EVERY: usize = 8;

fn closure_program(graph_seed: u64) -> String {
    let mut src = String::from("E(x,y), E(y,z) -> E(x,z).\n");
    src.push_str(&families::edge_database(
        "E",
        CLOSURE_NODES,
        CLOSURE_EDGES,
        graph_seed,
    ));
    src
}

/// The 16-program `repeat_mix` pool in Zipf rank order; only the
/// closure graphs depend on the seed.
fn mix_pool(seed: u64) -> Vec<PoolEntry> {
    use Expected::{NonTerminating, Terminating};
    let suite = labelled_suite();
    let suite_entry = |name: &str| {
        let e = suite
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("labelled suite has no entry {name}"));
        (e.name.to_string(), e.source.clone(), e.expected)
    };
    let decides: Vec<(String, String, Expected)> = vec![
        suite_entry("example-5-6"),
        suite_entry("guarded-side-unlocks-loop"),
        suite_entry("intro-right-recursion"),
        (
            "arity_shift(4)".into(),
            families::arity_shift(4),
            NonTerminating,
        ),
        (
            "linear_cycle(8)".into(),
            families::linear_cycle(8),
            NonTerminating,
        ),
        (
            "sticky_join_loop(4)".into(),
            families::sticky_join_loop(4),
            NonTerminating,
        ),
        (
            "linear_chain(8)".into(),
            families::linear_chain(8),
            Terminating,
        ),
        (
            "data_exchange(8)".into(),
            families::data_exchange(8),
            Terminating,
        ),
        ("arity_keep(4)".into(), families::arity_keep(4), Terminating),
        (
            "left_recursion_family(8)".into(),
            families::left_recursion_family(8),
            Terminating,
        ),
        (
            "guarded_side_bounded(8)".into(),
            families::guarded_side_bounded(8),
            Terminating,
        ),
        suite_entry("sticky-tuv-join"),
        suite_entry("two-phase-existential-loop"),
    ];
    let mut decides = decides.into_iter();
    let mut graphs = Rng::new(seed ^ 0xC105_u64);
    (1..=decides.len() + CHASE_RANKS.len())
        .map(|rank| {
            if CHASE_RANKS.contains(&rank) {
                PoolEntry {
                    op: Op::Chase,
                    name: format!("closure({CLOSURE_NODES}/{CLOSURE_EDGES})#{rank}"),
                    source: closure_program(graphs.next_u64()),
                    expected: None,
                }
            } else {
                let (name, source, expected) = decides.next().expect("13 decide programs");
                PoolEntry {
                    op: Op::Decide,
                    name,
                    source,
                    expected: Some(expected),
                }
            }
        })
        .collect()
}

/// Appends a whitespace-only suffix that encodes `index`, so the text
/// is new but its rules and facts (and their order) are unchanged.
fn whitespace_variant(source: &str, index: u64) -> String {
    let mut out = String::with_capacity(source.len() + 80);
    out.push_str(source);
    out.push('\n');
    let mut i = index + 1;
    while i > 0 {
        out.push(if i & 1 == 1 { '\t' } else { ' ' });
        i >>= 1;
    }
    out.push('\n');
    out
}

#[derive(Debug, Clone)]
enum Slot {
    Decide(usize),
    Ingest(Ingest),
    Pool { entry: usize, variant: bool },
}

/// A seeded request stream of one workload.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    deck: Vec<Slot>,
    templates: Vec<DecideTemplate>,
    pool: Vec<PoolEntry>,
}

impl Stream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (mut deck, templates, pool) = match workload {
            Workload::DecideCold => {
                let templates = decide_templates();
                let deck = (0..templates.len()).map(Slot::Decide).collect();
                (deck, templates, Vec::new())
            }
            Workload::ChaseIngest => (
                ingest_deck().into_iter().map(Slot::Ingest).collect(),
                Vec::new(),
                Vec::new(),
            ),
            Workload::RepeatMix => {
                let pool = mix_pool(seed);
                let harmonic: f64 = (1..=pool.len()).map(|r| 1.0 / r as f64).sum();
                let mut deck = Vec::new();
                for entry in 0..pool.len() {
                    let share = MIX_DECK as f64 / ((entry + 1) as f64 * harmonic);
                    let count = (share.round() as usize).max(1);
                    for k in 0..count {
                        deck.push(Slot::Pool {
                            entry,
                            variant: k % VARIANT_EVERY == VARIANT_EVERY - 1,
                        });
                    }
                }
                (deck, Vec::new(), pool)
            }
        };
        rng.shuffle(&mut deck);
        Stream {
            seed,
            deck,
            templates,
            pool,
        }
    }

    /// Slots in one pass of the deck.
    pub fn deck_len(&self) -> usize {
        self.deck.len()
    }

    /// The `repeat_mix` pool (empty for the other workloads).
    pub fn pool(&self) -> &[PoolEntry] {
        &self.pool
    }

    /// The requests that warm the caches before timing: one pass over
    /// the `repeat_mix` pool; nothing for the cold workloads.
    pub fn warmup(&self) -> Vec<Request> {
        self.pool
            .iter()
            .map(|e| Request {
                op: e.op,
                family: e.name.clone(),
                source: e.source.clone(),
                expected: e.expected,
            })
            .collect()
    }

    /// Request number `index` of the stream.
    pub fn request(&self, index: u64) -> Request {
        match &self.deck[(index % self.deck.len() as u64) as usize] {
            Slot::Decide(t) => {
                let t = &self.templates[*t];
                // A fresh fact: a new fingerprint (both caches miss),
                // the same rules (the same verdict).
                let source = format!("{}\nNonce(k{:x}_{index}).\n", t.rules, self.seed);
                Request {
                    op: Op::Decide,
                    family: t.name.clone(),
                    source,
                    expected: Some(t.expected),
                }
            }
            Slot::Ingest(shape) => {
                let (family, source) = render_ingest(*shape, data_seed(self.seed, index));
                Request {
                    op: Op::Chase,
                    family,
                    source,
                    expected: None,
                }
            }
            Slot::Pool { entry, variant } => {
                let e = &self.pool[*entry];
                let source = if *variant {
                    whitespace_variant(&e.source, index)
                } else {
                    e.source.clone()
                };
                Request {
                    op: e.op,
                    family: e.name.clone(),
                    source,
                    expected: e.expected,
                }
            }
        }
    }
}
