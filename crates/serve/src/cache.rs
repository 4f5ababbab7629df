//! The compiled-plan cache: verified execution artifacts keyed by
//! canonical circuit hash, LRU-evicted by estimated plan bytes.
//!
//! An entry is the *post-verification* artifact: the canonical circuit
//! plus its (optionally transpiled) plan, proved safe once by
//! `EngineExecutor::prepare` at insert time. A hit therefore skips
//! classify → transpile → verify entirely; the executor's pre-flight
//! gate is bypassed via `run_prepared`.

use qse_circuit::transpile::{Plan, PlanStep};
use qse_circuit::Circuit;
use std::collections::HashMap;
use std::sync::Arc;

/// One cached, verified execution artifact.
#[derive(Debug)]
pub struct CachedPlan {
    /// The canonical circuit this plan executes (the representative of
    /// its equivalence class — every cache hit runs exactly this).
    pub circuit: Circuit,
    /// The verified transpiled plan; `None` when the job's strategy is
    /// `Off` (the raw canonical circuit was still verified).
    pub plan: Option<Plan>,
    /// Estimated resident bytes, charged against the cache cap.
    pub bytes: usize,
}

/// Deterministic size estimate for a cache entry: a fixed header plus a
/// per-gate/per-step charge (gate enums are matrix-sized) and a
/// per-permutation charge. Exact malloc accounting is not the point —
/// the cap just needs to scale with real memory use and be stable for
/// tests.
pub fn plan_cost_bytes(circuit: &Circuit, plan: Option<&Plan>) -> usize {
    const HEADER: usize = 128;
    const PER_GATE: usize = std::mem::size_of::<qse_circuit::gate::Gate>();
    const PER_PERMUTE: usize = 256;
    let mut bytes = HEADER + circuit.len() * PER_GATE;
    if let Some(p) = plan {
        for step in &p.steps {
            bytes += match step {
                PlanStep::Gate(_) => PER_GATE,
                PlanStep::Permute(_) => PER_PERMUTE,
            };
        }
    }
    bytes
}

/// Cache observability counters (monotonic, plus current occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a verified plan.
    pub hits: u64,
    /// Lookups that missed (the caller then compiles + inserts).
    pub misses: u64,
    /// Entries evicted to stay under the byte cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged.
    pub bytes: usize,
    /// The configured cap.
    pub cap_bytes: usize,
}

/// LRU-by-bytes map from canonical circuit hash to [`CachedPlan`].
///
/// Not internally synchronised — the server wraps it in a `Mutex` and
/// holds the lock across miss-compile-insert so a key is compiled at
/// most once and hit/miss counters are exact.
pub struct PlanCache {
    cap_bytes: usize,
    entries: HashMap<u64, (Arc<CachedPlan>, u64)>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache capped at `cap_bytes`.
    pub fn new(cap_bytes: usize) -> Self {
        PlanCache {
            cap_bytes,
            entries: HashMap::new(),
            tick: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, bumping its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: u64) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some((entry, last_used)) => {
                *last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(entry))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `entry` under `key`, evicting least-recently-used
    /// entries until the cap holds. An entry bigger than the whole cap
    /// is returned un-cached (it would only evict everything else to
    /// then be evicted itself).
    pub fn insert(&mut self, key: u64, entry: CachedPlan) -> Arc<CachedPlan> {
        let entry = Arc::new(entry);
        if entry.bytes > self.cap_bytes {
            return entry;
        }
        self.tick += 1;
        if let Some((old, _)) = self.entries.insert(key, (Arc::clone(&entry), self.tick)) {
            self.bytes -= old.bytes;
        }
        self.bytes += entry.bytes;
        while self.bytes > self.cap_bytes {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(&k, _)| k);
            let Some((gone, _)) = victim.and_then(|k| self.entries.remove(&k)) else {
                break;
            };
            self.bytes -= gone.bytes;
            self.evictions += 1;
        }
        entry
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
            cap_bytes: self.cap_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_circuit::qft::qft;

    fn entry(n: u32) -> CachedPlan {
        let circuit = qft(n);
        let bytes = plan_cost_bytes(&circuit, None);
        CachedPlan {
            circuit,
            plan: None,
            bytes,
        }
    }

    #[test]
    fn counts_hits_and_misses_exactly() {
        let mut cache = PlanCache::new(1 << 20);
        assert!(cache.get(1).is_none());
        cache.insert(1, entry(4));
        assert!(cache.get(1).is_some());
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 1));
        assert!(s.bytes > 0 && s.bytes <= s.cap_bytes);
    }

    #[test]
    fn evicts_least_recently_used_first_by_bytes() {
        // Cap sized to hold exactly two qft(4) entries.
        let one = plan_cost_bytes(&qft(4), None);
        let mut cache = PlanCache::new(2 * one);
        cache.insert(1, entry(4));
        cache.insert(2, entry(4));
        assert_eq!(cache.stats().entries, 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, entry(4));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(cache.get(2).is_none(), "LRU entry 2 should be gone");
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert!(s.bytes <= s.cap_bytes);
    }

    #[test]
    fn oversized_entries_bypass_the_cache() {
        let mut cache = PlanCache::new(16);
        let arc = cache.insert(1, entry(6));
        assert_eq!(arc.circuit, qft(6), "caller still gets the artifact");
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let one = plan_cost_bytes(&qft(4), None);
        let mut cache = PlanCache::new(4 * one);
        cache.insert(1, entry(4));
        cache.insert(1, entry(4));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, one);
    }

    #[test]
    fn cost_grows_with_circuit_and_plan_size() {
        let small = plan_cost_bytes(&qft(3), None);
        let big = plan_cost_bytes(&qft(8), None);
        assert!(big > small);
    }
}
