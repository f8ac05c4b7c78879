//! Content-addressed caches consulted at admission: the
//! [`ProgramCache`] (compiled rule sets and their source aliases) and
//! the [`DecideCache`] (memoized termination verdicts). All three
//! tables are one private bounded LRU, `Lru`.
//!
//! ## Keys
//!
//! Compiled programs key on the order-preserving [`ProgramFingerprint`]
//! — stable under whitespace, comments and rule-local variable
//! renaming, but not under reordering rules or facts, because order
//! decides the restricted chase result (see [`chase_core::compile`]).
//! Two sources with one fingerprint compile to the same program, so a
//! hit can change a reply's latency, never its content.
//!
//! The program cache additionally keeps a *source alias* table (FxHash
//! of the raw source bytes → the source text and its fingerprint) so a
//! byte-identical resubmission hits without any parse work at all. An
//! alias hits only when the request's text equals the stored text, so
//! two texts that share a hash are a plain miss, never each other's
//! program. A reformatted submission pays one compile, lands on the
//! same fingerprint, and reuses the cached bundle from then on (the
//! fresh compile is dropped, the alias is recorded).
//!
//! The decide cache keys on fingerprint × decider class
//! ([`chase_termination::decider_class`]): verdicts are pure functions
//! of the rule set *given* a dispatch policy, so a policy change must
//! change the key. `Unknown` verdicts are **never** cached — they
//! depend on the request's deadline/cancel budget, not just the rules.
//!
//! ## Eviction and accounting
//!
//! Each table is capped by entries and by bytes, never evicts its
//! newest entry, and evicts by popping its oldest use-stamp. Compiled
//! programs are capped at `max_entries` and `max_bytes` of
//! [`CompiledProgram::approx_bytes`]; aliases at the same `max_entries`
//! and `max_bytes` of source text, so a hot program's aliases age out
//! like anything else; verdicts at their entry count. An alias whose
//! program was evicted is a miss. Evicted values are dropped after the
//! cache mutex is released. Each cache counts its own hits, misses and
//! evictions; nothing is accounted per tenant.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use chase_core::compile::{compile, CompiledProgram, ProgramFingerprint};
use chase_core::error::CoreError;
use chase_core::ids::FxHasher;
use chase_termination::TerminationVerdict;

/// Capacity knobs for the [`ProgramCache`].
#[derive(Debug, Clone, Copy)]
pub struct ProgramCacheConfig {
    /// Maximum resident compiled programs (and source aliases).
    pub max_entries: usize,
    /// Maximum total [`CompiledProgram::approx_bytes`] across entries
    /// (and maximum total source text across aliases).
    pub max_bytes: usize,
}

impl Default for ProgramCacheConfig {
    fn default() -> Self {
        ProgramCacheConfig {
            max_entries: 128,
            max_bytes: 256 << 20,
        }
    }
}

/// One cache's monotonic counters; snapshot cheaply, read from any
/// thread.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: AtomicU64,
    /// Lookups that had to do the work: a compile in the program
    /// cache, a decider run in the decide cache.
    pub misses: AtomicU64,
    /// Entries evicted over a cap.
    pub evictions: AtomicU64,
}

impl CacheCounters {
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// A bounded LRU map: values with their byte weight and use-stamp, and
/// a recency index from stamp to key. Capped by entries and by bytes,
/// it never evicts its newest entry.
struct Lru<K, V> {
    map: HashMap<K, (V, u64, usize)>,
    by_stamp: BTreeMap<u64, K>,
    stamp: u64,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new(max_entries: usize, max_bytes: usize) -> Self {
        Lru {
            map: HashMap::new(),
            by_stamp: BTreeMap::new(),
            stamp: 0,
            bytes: 0,
            max_entries,
            max_bytes,
        }
    }

    /// The value under `key`, now the most recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        let (value, stamp, _) = self.map.get_mut(key)?;
        self.by_stamp.remove(stamp);
        self.stamp += 1;
        *stamp = self.stamp;
        self.by_stamp.insert(self.stamp, *key);
        Some(value)
    }

    /// Stores `value`, weighing `bytes`, as the most recently used
    /// entry, then evicts the oldest entries while over a cap. Returns
    /// the evicted values for the caller to drop outside its lock.
    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<V> {
        self.stamp += 1;
        if let Some((_, stamp, old)) = self.map.insert(key, (value, self.stamp, bytes)) {
            self.by_stamp.remove(&stamp);
            self.bytes -= old;
        }
        self.by_stamp.insert(self.stamp, key);
        self.bytes += bytes;
        let mut evicted = Vec::new();
        while self.map.len() > 1
            && (self.map.len() > self.max_entries || self.bytes > self.max_bytes)
        {
            let (_, oldest) = self.by_stamp.pop_first().expect("more than one entry");
            let (value, _, bytes) = self.map.remove(&oldest).expect("indexed keys are live");
            self.bytes -= bytes;
            evicted.push(value);
        }
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// How a program lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Served from cache; zero parse/plan work happened.
    Hit,
    /// A fresh compile ran (and the result is now cached).
    Compiled,
}

/// A successful [`ProgramCache::resolve_source`] outcome, with the
/// per-call facts the server splices into session telemetry.
pub struct Resolved {
    /// The shared compiled bundle.
    pub program: Arc<CompiledProgram>,
    /// Hit or compiled.
    pub resolution: Resolution,
    /// Entries this call's insert pushed over a cap.
    pub evicted: u64,
}

/// The program cache's two tables, under one mutex.
struct ProgramTables {
    programs: Lru<ProgramFingerprint, Arc<CompiledProgram>>,
    /// Source hash → (source text, fingerprint).
    aliases: Lru<u64, (Box<str>, ProgramFingerprint)>,
}

/// The admission-time compiled-program cache.
pub struct ProgramCache {
    tables: Mutex<ProgramTables>,
    counters: CacheCounters,
}

fn source_key(source: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(b"chase-source-alias");
    h.write(source.as_bytes());
    h.finish()
}

impl ProgramCache {
    /// An empty cache with the given caps.
    pub fn new(config: ProgramCacheConfig) -> Self {
        ProgramCache {
            tables: Mutex::new(ProgramTables {
                programs: Lru::new(config.max_entries, config.max_bytes),
                aliases: Lru::new(config.max_entries, config.max_bytes),
            }),
            counters: CacheCounters::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ProgramTables> {
        self.tables.lock().expect("program cache poisoned")
    }

    /// The cache's counters (tests).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Resident compiled programs.
    pub fn len(&self) -> usize {
        self.lock().programs.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a client-supplied fingerprint (`program_ref`
    /// submission). A miss means the client must fall back to full
    /// source; it is *not* counted as a cache miss — no compile was
    /// avoidable.
    pub fn lookup_ref(&self, fp: ProgramFingerprint) -> Option<Arc<CompiledProgram>> {
        let hit = self.lock().programs.get(&fp).cloned();
        if hit.is_some() {
            CacheCounters::add(&self.counters.hits, 1);
        }
        hit
    }

    /// Resolves program source to a compiled bundle: a byte-identical
    /// resubmission hits via its source alias with zero parse work;
    /// otherwise one compile runs and the result is cached (deduped by
    /// fingerprint, so reformatted equivalents share one entry).
    ///
    /// The tenant argument is ignored; it is kept because the frozen
    /// served-request benchmark calls `resolve_source(src, TENANT)`.
    pub fn resolve_source(&self, source: &str, _tenant: &str) -> Result<Resolved, CoreError> {
        let key = source_key(source);
        {
            let mut tables = self.lock();
            let aliased = match tables.aliases.get(&key) {
                Some((text, fp)) if **text == *source => Some(*fp),
                _ => None,
            };
            if let Some(program) = aliased.and_then(|fp| tables.programs.get(&fp).cloned()) {
                CacheCounters::add(&self.counters.hits, 1);
                return Ok(Resolved {
                    program,
                    resolution: Resolution::Hit,
                    evicted: 0,
                });
            }
        }
        // Compile outside the lock: admission threads of other
        // connections keep hitting while we build.
        CacheCounters::add(&self.counters.misses, 1);
        let compiled = compile(source)?;
        let fp = compiled.fingerprint();
        let mut tables = self.lock();
        // A reformatted equivalent (or a racing compile) may already have
        // landed: keep the incumbent so every session shares one
        // allocation, and just record the new alias.
        let (program, evicted) = match tables.programs.get(&fp).cloned() {
            Some(incumbent) => (incumbent, Vec::new()),
            None => {
                let bytes = compiled.approx_bytes();
                let evicted = tables.programs.insert(fp, Arc::clone(&compiled), bytes);
                (compiled, evicted)
            }
        };
        let _stale_aliases = tables
            .aliases
            .insert(key, (source.into(), fp), source.len());
        // The victims (an evicted program can hold a large database) are
        // freed after the lock is released, when they go out of scope.
        drop(tables);
        let evicted_count = evicted.len() as u64;
        CacheCounters::add(&self.counters.evictions, evicted_count);
        Ok(Resolved {
            program,
            resolution: Resolution::Compiled,
            evicted: evicted_count,
        })
    }
}

/// Memoized termination verdicts: fingerprint × decider class →
/// definitive verdict, LRU-bounded at `max_entries`; `Unknown` is
/// never stored. Verdicts are shared, so a hit costs a reference count,
/// not a copy of the verdict's witness instance and derivation.
/// Admission probes it once per decide and answers a hit on the
/// connection's handler thread; only a miss takes a runner.
pub struct DecideCache {
    verdicts: Mutex<Lru<(ProgramFingerprint, &'static str), Arc<TerminationVerdict>>>,
    counters: CacheCounters,
}

impl DecideCache {
    /// An empty cache bounded at `max_entries` verdicts.
    pub fn new(max_entries: usize) -> Self {
        DecideCache {
            verdicts: Mutex::new(Lru::new(max_entries, usize::MAX)),
            counters: CacheCounters::default(),
        }
    }

    fn lock(
        &self,
    ) -> MutexGuard<'_, Lru<(ProgramFingerprint, &'static str), Arc<TerminationVerdict>>> {
        self.verdicts.lock().expect("decide cache poisoned")
    }

    /// The cache's counters (tests).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// The memoized verdict for `fp` under `class`, if any; counts a
    /// hit or a miss.
    pub fn get(
        &self,
        fp: ProgramFingerprint,
        class: &'static str,
    ) -> Option<Arc<TerminationVerdict>> {
        let hit = self.lock().get(&(fp, class)).map(Arc::clone);
        let counter = match hit {
            Some(_) => &self.counters.hits,
            None => &self.counters.misses,
        };
        CacheCounters::add(counter, 1);
        hit
    }

    /// Memoizes a definitive verdict; `Unknown` is dropped on the
    /// floor (it reflects the request's budget, not the program).
    pub fn insert(
        &self,
        fp: ProgramFingerprint,
        class: &'static str,
        verdict: &TerminationVerdict,
    ) {
        if verdict.is_unknown() {
            return;
        }
        let evicted = self
            .lock()
            .insert((fp, class), Arc::new(verdict.clone()), 0);
        CacheCounters::add(&self.counters.evictions, evicted.len() as u64);
    }

    /// Memoized verdicts currently resident.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The server's cache pair, shared across connection handlers and
/// session runners.
pub struct Caches {
    /// Compiled programs, consulted at admission.
    pub programs: ProgramCache,
    /// Memoized decide verdicts.
    pub decide: DecideCache,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheCounters {
        /// A point-in-time copy (hits, misses, evictions, runs). Every
        /// miss runs one compile or decide, so runs equals misses.
        fn snapshot(&self) -> [u64; 4] {
            let misses = self.misses.load(Ordering::Relaxed);
            [
                self.hits.load(Ordering::Relaxed),
                misses,
                self.evictions.load(Ordering::Relaxed),
                misses,
            ]
        }
    }

    const FINITE: &str = "R(a,b).\nR(x,y) -> S(x).\n";

    #[test]
    fn second_resolution_of_identical_source_is_a_hit() {
        let cache = ProgramCache::new(ProgramCacheConfig::default());
        let a = cache.resolve_source(FINITE, "t").unwrap();
        let b = cache.resolve_source(FINITE, "t").unwrap();
        assert_eq!(a.resolution, Resolution::Compiled);
        assert_eq!(b.resolution, Resolution::Hit);
        assert!(Arc::ptr_eq(&a.program, &b.program));
        let [hits, misses, _, compiles, ..] = cache.counters().snapshot();
        assert_eq!((hits, misses, compiles), (1, 1, 1));
    }

    #[test]
    fn reformatted_source_shares_the_canonical_entry() {
        let cache = ProgramCache::new(ProgramCacheConfig::default());
        let a = cache.resolve_source(FINITE, "t").unwrap();
        let b = cache
            .resolve_source("  R( a ,b ).\nR(u,w)->S(u).", "t")
            .unwrap();
        // The reformatted text pays one compile but lands on the same
        // fingerprint and shares the incumbent allocation.
        assert_eq!(b.resolution, Resolution::Compiled);
        assert!(Arc::ptr_eq(&a.program, &b.program));
        assert_eq!(cache.len(), 1);
        // And from now on the reformatted text hits by alias too.
        let c = cache
            .resolve_source("  R( a ,b ).\nR(u,w)->S(u).", "t")
            .unwrap();
        assert_eq!(c.resolution, Resolution::Hit);
    }

    #[test]
    fn lookup_ref_round_trips_and_misses_unknown_fingerprints() {
        let cache = ProgramCache::new(ProgramCacheConfig::default());
        let a = cache.resolve_source(FINITE, "t").unwrap();
        let fp = a.program.fingerprint();
        assert!(cache.lookup_ref(fp).is_some());
        assert!(cache.lookup_ref(ProgramFingerprint(0xDEAD_BEEF)).is_none());
    }

    #[test]
    fn entry_cap_evicts_least_recently_used() {
        let cache = ProgramCache::new(ProgramCacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        let a = cache.resolve_source("A(a).\nA(x) -> B(x).", "t").unwrap();
        let fp_a = a.program.fingerprint();
        cache.resolve_source("C(c).\nC(x) -> D(x).", "t").unwrap();
        // Touch `a` so the C program is the LRU victim.
        assert!(cache.lookup_ref(fp_a).is_some());
        let c = cache.resolve_source("E(e).\nE(x) -> F(x).", "t").unwrap();
        assert_eq!(c.evicted, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().snapshot()[2], 1);
        // `a` survived (and this lookup re-touches it).
        assert!(cache.lookup_ref(fp_a).is_some());
        // The evicted program's source alias is gone too: resubmitting
        // it compiles again.
        let again = cache.resolve_source("C(c).\nC(x) -> D(x).", "t").unwrap();
        assert_eq!(again.resolution, Resolution::Compiled);
    }

    #[test]
    fn byte_cap_evicts_but_never_empties() {
        let cache = ProgramCache::new(ProgramCacheConfig {
            max_entries: 64,
            max_bytes: 1, // everything is oversized
        });
        cache.resolve_source("A(a).\nA(x) -> B(x).", "t").unwrap();
        cache.resolve_source("C(c).\nC(x) -> D(x).", "t").unwrap();
        // Over-cap, but the most recent entry is always kept.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn decide_cache_memoizes_definitive_verdicts_only() {
        let cache = DecideCache::new(8);
        let fp = ProgramFingerprint(7);
        assert!(cache.get(fp, "sticky").is_none());
        cache.insert(
            fp,
            "sticky",
            &TerminationVerdict::Unknown {
                reason: "budget".into(),
            },
        );
        assert!(cache.get(fp, "sticky").is_none());

        let verdict = chase_core::compile::compile(FINITE)
            .ok()
            .map(|p| {
                chase_termination::decide(
                    p.tgd_set(),
                    p.vocab(),
                    &chase_termination::DeciderConfig::default(),
                )
            })
            .unwrap();
        assert!(!verdict.is_unknown());
        cache.insert(fp, "sticky", &verdict);
        assert!(cache.get(fp, "sticky").is_some());
        // Keyed by class: a different dispatch misses.
        assert!(cache.get(fp, "guarded").is_none());
    }

    #[test]
    fn decide_cache_is_bounded() {
        let cache = DecideCache::new(2);
        let verdict = chase_core::compile::compile(FINITE)
            .ok()
            .map(|p| {
                chase_termination::decide(
                    p.tgd_set(),
                    p.vocab(),
                    &chase_termination::DeciderConfig::default(),
                )
            })
            .unwrap();
        for i in 0..5 {
            cache.insert(ProgramFingerprint(i), "sticky", &verdict);
        }
        assert_eq!(cache.len(), 2);
    }

    /// Two sources with different rules and one alias key. Each is a
    /// fixed prefix ending in a `%` comment, then 8 letters, then 8
    /// printable bytes. A's tail is fixed; B's letters come from a
    /// seeded search and its last 8 bytes are solved from the FxHash
    /// state so that B's key lands on A's (FxHash maps state `s` and a
    /// last 8-byte word `w` to `(s.rotl(5) ^ w) * SEED`, and `SEED` is
    /// odd, so `w` has one solution; about 1 in 2,800 is printable).
    fn colliding_sources() -> (String, String) {
        const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        // FX_SEED⁻¹ mod 2⁶⁴ by Newton's iteration.
        let mut inverse = FX_SEED;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(inverse)));
        }
        let a = "R(a,b).\nR(x,y) -> S(x).\n%       abcdefghijklmnop".to_string();
        let target = source_key(&a).wrapping_mul(inverse);
        let prefix = "R(a,b).\nR(x,y) -> T(y).\n%       ";
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        loop {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let letters: String = (0..8)
                .map(|i| char::from(b'a' + ((rng >> (8 * i)) % 26) as u8))
                .collect();
            let mut h = FxHasher::default();
            h.write(b"chase-source-alias");
            h.write(prefix.as_bytes());
            h.write(letters.as_bytes());
            let last = (target ^ h.finish().rotate_left(5)).to_le_bytes();
            if last.iter().all(|b| (b' '..=b'~').contains(b)) {
                let tail = std::str::from_utf8(&last).unwrap();
                return (a, format!("{prefix}{letters}{tail}"));
            }
        }
    }

    #[test]
    fn a_colliding_alias_key_is_a_miss_not_another_program() {
        let (a, b) = colliding_sources();
        assert_eq!(
            a.len() % 8,
            0,
            "the solved bytes must be the last FxHash word"
        );
        assert_eq!(b.len(), a.len());
        // A real collision under the alias key.
        assert_eq!(source_key(&a), source_key(&b));
        let fp_b = compile(&b).unwrap().fingerprint();
        assert_ne!(compile(&a).unwrap().fingerprint(), fp_b);

        let cache = ProgramCache::new(ProgramCacheConfig::default());
        cache.resolve_source(&a, "tenant-a").unwrap();
        let served = cache.resolve_source(&b, "tenant-b").unwrap();
        assert_eq!(served.program.fingerprint(), fp_b);
        assert_eq!(served.resolution, Resolution::Compiled);
        // Both texts hit from now on, each with its own program.
        let again = cache.resolve_source(&b, "tenant-b").unwrap();
        assert_eq!(again.program.fingerprint(), fp_b);
    }

    #[test]
    fn aliases_of_a_hot_program_are_bounded() {
        let cache = ProgramCache::new(ProgramCacheConfig {
            max_entries: 8,
            max_bytes: usize::MAX,
        });
        for i in 0..1000 {
            let variant = format!("{FINITE}{}", " ".repeat(i));
            cache.resolve_source(&variant, "t").unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert!(alias_count(&cache) <= 8, "{} aliases", alias_count(&cache));
    }

    #[test]
    fn each_cache_counts_its_own_lookups() {
        let caches = Caches {
            programs: ProgramCache::new(ProgramCacheConfig::default()),
            decide: DecideCache::new(1),
        };
        let program = caches.programs.resolve_source(FINITE, "t").unwrap().program;
        let fp = program.fingerprint();
        let config = chase_termination::DeciderConfig::default();
        let verdict = chase_termination::decide(program.tgd_set(), program.vocab(), &config);
        assert!(caches.decide.get(fp, "sticky").is_none());
        caches.decide.insert(fp, "sticky", &verdict);
        assert!(caches.decide.get(fp, "sticky").is_some());
        caches.decide.insert(fp, "guarded", &verdict);
        assert_eq!(caches.decide.counters().snapshot()[..3], [1, 1, 1]);
        assert_eq!(caches.programs.counters().snapshot()[..3], [0, 1, 0]);
    }

    fn alias_count(cache: &ProgramCache) -> usize {
        cache.lock().aliases.len()
    }
}
