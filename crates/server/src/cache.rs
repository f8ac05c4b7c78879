//! Content-addressed caches consulted at admission: the
//! [`ProgramCache`] (compiled rule sets, LRU, entry- and byte-capped)
//! and the [`DecideCache`] (memoized termination verdicts).
//!
//! ## Keys
//!
//! Both caches key on the order-preserving [`ProgramFingerprint`] —
//! stable under whitespace, comments and rule-local variable renaming,
//! but not under reordering rules or facts, because order decides the
//! restricted chase result (see [`chase_core::compile`]). Two sources
//! with one fingerprint compile to the same program, so a hit can
//! change a reply's latency, never its content.
//!
//! The program cache additionally keeps a *source alias* index (FxHash
//! of the raw source bytes → fingerprint) so a byte-identical
//! resubmission hits without any parse work at all; a reformatted
//! submission pays one compile, lands on the same fingerprint, and
//! reuses the cached bundle from then on (the fresh compile is
//! dropped, the alias is recorded).
//!
//! The decide cache keys on fingerprint × decider class
//! ([`chase_termination::decider_class`]): verdicts are pure functions
//! of the rule set *given* a dispatch policy, so a policy change must
//! change the key. `Unknown` verdicts are **never** cached — they
//! depend on the request's deadline/cancel budget, not just the rules.
//!
//! ## Eviction and accounting
//!
//! LRU by a monotone use-stamp, evicting while over either cap
//! (`max_entries`, `max_bytes` of [`CompiledProgram::approx_bytes`]).
//! Hit/miss/eviction totals feed the telemetry counters surfaced
//! through session event streams and `chasectl stats`; nothing is
//! accounted per tenant.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use chase_core::compile::{compile, CompiledProgram, ProgramFingerprint};
use chase_core::error::CoreError;
use chase_core::ids::FxHasher;
use chase_termination::TerminationVerdict;

/// Capacity knobs for the [`ProgramCache`].
#[derive(Debug, Clone, Copy)]
pub struct ProgramCacheConfig {
    /// Maximum resident compiled programs.
    pub max_entries: usize,
    /// Maximum total [`CompiledProgram::approx_bytes`] across entries.
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

/// Monotonic counters shared by both caches; snapshot cheaply, read
/// from any thread. These are the numbers the server splices into
/// session telemetry streams.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Program-cache lookups answered without compiling.
    pub hits: AtomicU64,
    /// Program-cache lookups that required a compile.
    pub misses: AtomicU64,
    /// Entries evicted over a cap.
    pub evictions: AtomicU64,
    /// Full `compile()` runs performed.
    pub compiles: AtomicU64,
    /// Decide verdicts answered from memoization.
    pub decide_hits: AtomicU64,
    /// Decide requests that ran a decider.
    pub decide_misses: AtomicU64,
}

impl CacheCounters {
    fn bump(field: &AtomicU64) -> u64 {
        field.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A point-in-time copy (hits, misses, evictions, compiles,
    /// decide_hits, decide_misses).
    pub fn snapshot(&self) -> [u64; 6] {
        [
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.compiles.load(Ordering::Relaxed),
            self.decide_hits.load(Ordering::Relaxed),
            self.decide_misses.load(Ordering::Relaxed),
        ]
    }
}

struct Entry {
    program: Arc<CompiledProgram>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct ProgramCacheInner {
    by_fp: HashMap<ProgramFingerprint, Entry>,
    /// FxHash of raw source bytes → fingerprint, for zero-parse hits
    /// on byte-identical resubmission.
    source_alias: HashMap<u64, ProgramFingerprint>,
    total_bytes: usize,
    tick: u64,
}

impl ProgramCacheInner {
    fn touch(&mut self, fp: ProgramFingerprint) -> Option<Arc<CompiledProgram>> {
        self.tick += 1;
        let tick = self.tick;
        self.by_fp.get_mut(&fp).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.program)
        })
    }

    /// Evicts least-recently-used entries while over either cap,
    /// always keeping at least the most recent entry so one oversized
    /// program cannot render the cache unusable. Returns evictions.
    fn evict_over_caps(&mut self, config: &ProgramCacheConfig) -> u64 {
        let mut evicted = 0;
        while self.by_fp.len() > 1
            && (self.by_fp.len() > config.max_entries || self.total_bytes > config.max_bytes)
        {
            let victim = self
                .by_fp
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp)
                .expect("non-empty cache has an LRU entry");
            if let Some(entry) = self.by_fp.remove(&victim) {
                self.total_bytes -= entry.bytes;
            }
            self.source_alias.retain(|_, fp| *fp != victim);
            evicted += 1;
        }
        evicted
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

/// The admission-time compiled-program cache.
pub struct ProgramCache {
    config: ProgramCacheConfig,
    inner: Mutex<ProgramCacheInner>,
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
            config,
            inner: Mutex::new(ProgramCacheInner::default()),
            counters: CacheCounters::default(),
        }
    }

    /// The shared counters (telemetry splicing, tests).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("program cache poisoned")
            .by_fp
            .len()
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
        let hit = self.inner.lock().expect("program cache poisoned").touch(fp);
        if hit.is_some() {
            CacheCounters::bump(&self.counters.hits);
        }
        hit
    }

    /// Resolves program source to a compiled bundle: byte-identical
    /// resubmissions hit via the source alias with zero parse work;
    /// otherwise one compile runs and the result is cached (deduped by
    /// fingerprint, so reformatted equivalents share one entry).
    ///
    /// The tenant argument is ignored; it is kept because the frozen
    /// served-request benchmark calls `resolve_source(src, TENANT)`.
    pub fn resolve_source(&self, source: &str, _tenant: &str) -> Result<Resolved, CoreError> {
        let key = source_key(source);
        {
            let mut inner = self.inner.lock().expect("program cache poisoned");
            if let Some(fp) = inner.source_alias.get(&key).copied() {
                if let Some(program) = inner.touch(fp) {
                    CacheCounters::bump(&self.counters.hits);
                    return Ok(Resolved {
                        program,
                        resolution: Resolution::Hit,
                        evicted: 0,
                    });
                }
                // Alias survived its entry's eviction window — treat
                // as a plain miss below.
            }
        }
        // Compile outside the lock: admission threads of other
        // connections keep hitting while we build.
        CacheCounters::bump(&self.counters.misses);
        CacheCounters::bump(&self.counters.compiles);
        let compiled = compile(source)?;
        let fp = compiled.fingerprint();
        let bytes = compiled.approx_bytes();
        let mut inner = self.inner.lock().expect("program cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let program = match inner.by_fp.get_mut(&fp) {
            // A reformatted equivalent (or a racing compile) already
            // landed: keep the incumbent so every session shares one
            // allocation, just record the new alias.
            Some(entry) => {
                entry.last_used = tick;
                Arc::clone(&entry.program)
            }
            None => {
                inner.total_bytes += bytes;
                inner.by_fp.insert(
                    fp,
                    Entry {
                        program: Arc::clone(&compiled),
                        bytes,
                        last_used: tick,
                    },
                );
                compiled
            }
        };
        inner.source_alias.insert(key, fp);
        let evicted = inner.evict_over_caps(&self.config);
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        Ok(Resolved {
            program,
            resolution: Resolution::Compiled,
            evicted,
        })
    }
}

/// Memoized termination verdicts: fingerprint × decider class →
/// definitive verdict. Bounded FIFO-ish (LRU by use-stamp) at
/// `max_entries`; `Unknown` is never stored.
pub struct DecideCache {
    max_entries: usize,
    inner: Mutex<DecideCacheInner>,
}

#[derive(Default)]
struct DecideCacheInner {
    verdicts: HashMap<(ProgramFingerprint, &'static str), (TerminationVerdict, u64)>,
    tick: u64,
}

impl DecideCache {
    /// An empty cache bounded at `max_entries` verdicts.
    pub fn new(max_entries: usize) -> Self {
        DecideCache {
            max_entries: max_entries.max(1),
            inner: Mutex::new(DecideCacheInner::default()),
        }
    }

    /// The memoized verdict for `fp` under `class`, if any.
    pub fn get(&self, fp: ProgramFingerprint, class: &'static str) -> Option<TerminationVerdict> {
        let mut inner = self.inner.lock().expect("decide cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.verdicts.get_mut(&(fp, class)).map(|slot| {
            slot.1 = tick;
            slot.0.clone()
        })
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
        let mut inner = self.inner.lock().expect("decide cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.verdicts.insert((fp, class), (verdict.clone(), tick));
        while inner.verdicts.len() > self.max_entries {
            let victim = inner
                .verdicts
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
                .expect("non-empty cache has an LRU entry");
            inner.verdicts.remove(&victim);
        }
    }

    /// Memoized verdicts currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("decide cache poisoned")
            .verdicts
            .len()
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

impl Default for Caches {
    fn default() -> Self {
        Caches {
            programs: ProgramCache::new(ProgramCacheConfig::default()),
            decide: DecideCache::new(1024),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
