//! Feasibility memos: the run-local `FeasMemo` keyed by constraint set,
//! and the bounded cross-run [`SharedFeasMemo`] a long-lived host shares
//! between requests.

use crate::config::TestgenConfig;
use crate::{fnv_mix, FNV_OFFSET};
use p4t_smt::TermId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A bounded, thread-safe feasibility memo shared *across* runs by a
/// long-lived host (the serve daemon). Keys are the stable, canonical
/// constraint-set fingerprints from [`p4t_smt::stable_fingerprint`] —
/// content-addressed, so entries are valid across programs and targets:
/// an identical fingerprint means an identical (alpha-renamed) constraint
/// system, and feasibility is a pure function of that system.
///
/// The fingerprint is paired with a *budget class* (see
/// [`feas_budget_class`]): a Sat/Unsat verdict is a fact about the
/// constraint system, but *whether a cold run reaches it at all* depends
/// on the solver budget (a small budget abandons as Unknown where a large
/// one resolves). Sharing a verdict across budget classes would let a
/// high-budget tenant's answer leak into a low-budget tenant's run,
/// breaking its byte-identity with an equivalent cold CLI run.
///
/// Bounded by an LRU so a daemon serving many tenants cannot grow memo
/// state without limit; the [`p4t_obs::LruStats`] counters feed the
/// daemon's `/metrics` export.
pub struct SharedFeasMemo {
    inner: Mutex<p4t_obs::LruCache<(u64, u128), bool>>,
}

/// The config subset that decides whether a feasibility query resolves at
/// all (as opposed to what the verdict is): the conflict budget and the
/// seed, which feeds the budget retry's phase seed and so decides whether a
/// retried query comes back definitive. Two runs in the same class abandon
/// the same queries, so they may share memoized verdicts without perturbing
/// each other's suites.
pub fn feas_budget_class(c: &TestgenConfig) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_mix(&mut h, &c.solver_budget.to_le_bytes());
    fnv_mix(&mut h, &c.seed.to_le_bytes());
    h
}

impl SharedFeasMemo {
    /// A memo holding at most `capacity` verdicts.
    pub fn new(capacity: usize) -> Self {
        SharedFeasMemo { inner: Mutex::new(p4t_obs::LruCache::new(capacity)) }
    }

    fn get(&self, class: u64, fp: u128) -> Option<bool> {
        self.inner.lock().get(&(class, fp)).copied()
    }

    fn put(&self, class: u64, fp: u128, sat: bool) {
        self.inner.lock().insert((class, fp), sat);
    }

    /// Cache statistics (size, capacity, hit/miss/eviction counters).
    pub fn stats(&self) -> p4t_obs::LruStats {
        self.inner.lock().stats()
    }
}

impl std::fmt::Debug for SharedFeasMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedFeasMemo")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// Memoizes fork-feasibility verdicts by constraint *set*. Different
/// interleavings frequently reconverge on the same constraint set (e.g.
/// sibling table branches re-deriving a parser prefix); hash consing makes
/// the sorted `TermId` vector a cheap canonical key. Only the sat/unsat
/// verdict is cached — emission-time checks always run, because they need a
/// fresh model.
pub(crate) struct FeasMemo {
    map: Mutex<HashMap<Vec<TermId>, bool>>,
    pub(crate) hits: AtomicU64,
    pub(crate) lookups: AtomicU64,
    /// Process-portable second layer, keyed by the canonical (alpha-renamed)
    /// constraint-set fingerprint instead of `TermId`s. Enabled only when a run
    /// checkpoints or resumes: this is the form the memo round-trips through
    /// [`ExplorationState::memo`](crate::ExplorationState::memo), and computing
    /// fingerprints costs a term walk per miss, which plain runs should not
    /// pay.
    stable: Option<Mutex<HashMap<u128, bool>>>,
    /// Cross-run layer owned by a long-lived host (see
    /// [`TestgenConfig::shared_memo`]); consulted after `stable`, written
    /// alongside it. Keyed by `(external_class, fingerprint)` so tenants
    /// with different solver budgets never see each other's verdicts.
    external: Option<Arc<SharedFeasMemo>>,
    /// This run's [`feas_budget_class`], fixed at construction.
    external_class: u64,
}

impl FeasMemo {
    pub(crate) fn new() -> Self {
        FeasMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            stable: None,
            external: None,
            external_class: 0,
        }
    }

    /// A memo with the stable-fingerprint layer on, seeded from a restored
    /// checkpoint's entries (empty for a cold checkpointed start) and
    /// optionally connected to a host-owned cross-run cache, which is
    /// consulted only within this run's budget class.
    pub(crate) fn with_persistence(
        entries: &[(u128, bool)],
        external: Option<Arc<SharedFeasMemo>>,
        external_class: u64,
    ) -> Self {
        FeasMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            stable: Some(Mutex::new(entries.iter().copied().collect())),
            external,
            external_class,
        }
    }

    /// Is a stable-fingerprint layer enabled (checkpointing runs and runs
    /// hosted by the serve daemon)?
    pub(crate) fn persistent(&self) -> bool {
        self.stable.is_some() || self.external.is_some()
    }

    /// Look a fingerprint up in the stable layer, then the cross-run one.
    /// A hit counts in `hits` like a `TermId`-layer hit, so `solver_checks +
    /// memo_hits` is the same with the layer on or off.
    pub(crate) fn stable_lookup(&self, fp: u128) -> Option<bool> {
        let local = self.stable.as_ref().and_then(|s| s.lock().get(&fp).copied());
        let hit = local.or_else(|| self.external.as_ref()?.get(self.external_class, fp));
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    pub(crate) fn stable_record(&self, fp: u128, sat: bool) {
        if let Some(s) = &self.stable {
            s.lock().insert(fp, sat);
        }
        if let Some(e) = &self.external {
            e.put(self.external_class, fp, sat);
        }
    }

    /// Sorted dump of the stable layer for checkpointing (empty when the
    /// layer is off).
    pub(crate) fn stable_snapshot(&self) -> Vec<(u128, bool)> {
        match &self.stable {
            Some(s) => {
                let mut v: Vec<(u128, bool)> = s.lock().iter().map(|(&k, &v)| (k, v)).collect();
                v.sort_unstable();
                v
            }
            None => Vec::new(),
        }
    }

    pub(crate) fn key(constraints: &[TermId]) -> Vec<TermId> {
        let mut k = constraints.to_vec();
        k.sort_unstable();
        k.dedup();
        k
    }

    pub(crate) fn lookup(&self, key: &[TermId]) -> Option<bool> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self.map.lock().get(key).copied();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    pub(crate) fn record(&self, key: Vec<TermId>, sat: bool) {
        self.map.lock().insert(key, sat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4t_smt::TermPool;

    #[test]
    fn feas_memo_key_is_canonical() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 1);
        let y = p.fresh_var("y", 1);
        let a = FeasMemo::key(&[y, x, y]);
        let b = FeasMemo::key(&[x, y]);
        assert_eq!(a, b);
        let memo = FeasMemo::new();
        assert_eq!(memo.lookup(&a), None);
        memo.record(a.clone(), true);
        assert_eq!(memo.lookup(&a), Some(true));
        assert_eq!(memo.hits.load(Ordering::Relaxed), 1);
    }

    /// A verdict recorded by one budget class must be invisible to another:
    /// a high-budget tenant's definitive answer leaking into a low-budget
    /// tenant's run would diverge that tenant's suite from its cold CLI
    /// run, which would have abandoned the query as Unknown.
    #[test]
    fn shared_memo_is_partitioned_by_budget_class() {
        let shared = Arc::new(SharedFeasMemo::new(16));
        let mut big = TestgenConfig::default();
        big.solver_budget = 1_000_000;
        let mut small = big.clone();
        small.solver_budget = 1;
        let (big_class, small_class) =
            (feas_budget_class(&big), feas_budget_class(&small));
        assert_ne!(big_class, small_class);

        let writer = FeasMemo::with_persistence(&[], Some(Arc::clone(&shared)), big_class);
        writer.stable_record(42, true);
        let reader_small =
            FeasMemo::with_persistence(&[], Some(Arc::clone(&shared)), small_class);
        assert_eq!(reader_small.stable_lookup(42), None);
        let reader_big = FeasMemo::with_persistence(&[], Some(shared), big_class);
        assert_eq!(reader_big.stable_lookup(42), Some(true));

        // Budget-irrelevant config fields (here: max_tests) do not split the
        // class — that sharing is the point of the daemon-wide memo.
        let mut other = big.clone();
        other.max_tests = big.max_tests + 7;
        assert_eq!(feas_budget_class(&other), big_class);
        // The seed feeds the budget retry's phase seed and so decides which
        // queries come back definitive: it splits the class.
        let mut seeded = big.clone();
        seeded.seed = big.seed + 1;
        assert_ne!(feas_budget_class(&seeded), big_class);
    }
}
