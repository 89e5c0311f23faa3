//! Feasibility memos: the run's `FeasMemo`, keyed by the stable
//! fingerprint of a path's constraint list, and the bounded cross-run
//! [`SharedFeasMemo`] a long-lived host shares between requests under the
//! same key.

use crate::config::TestgenConfig;
use crate::{fnv_mix, FNV_OFFSET};
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

/// The run's fork-feasibility memo: sat/unsat verdicts keyed by the
/// [`p4t_smt::stable_fingerprint`] of a path's constraint list, which each
/// path carries incrementally in its
/// [`FingerprintFrame`](p4t_smt::fingerprint::FingerprintFrame). Different
/// interleavings frequently reconverge on alpha-equivalent constraint lists
/// (e.g. sibling table branches re-deriving a parser prefix), and the key
/// does not depend on `TermId`s, so the same memo is what a checkpoint
/// persists and resumes and what a serve daemon shares across requests.
/// Only the verdict is cached — emission-time checks always run, because
/// they need a fresh model.
pub(crate) struct FeasMemo {
    map: Mutex<HashMap<u128, bool>>,
    pub(crate) hits: AtomicU64,
    pub(crate) lookups: AtomicU64,
    /// Cross-run layer owned by a long-lived host (see
    /// [`TestgenConfig::shared_memo`]); consulted after the run's own map,
    /// written alongside it. Keyed by `(external_class, fingerprint)` so
    /// tenants with different solver budgets never see each other's
    /// verdicts.
    external: Option<Arc<SharedFeasMemo>>,
    /// This run's [`feas_budget_class`], fixed at construction.
    external_class: u64,
}

impl FeasMemo {
    /// A memo seeded from a restored checkpoint's entries (empty for a cold
    /// start) and optionally connected to a host-owned cross-run cache,
    /// which is consulted only within this run's budget class.
    pub(crate) fn new(
        entries: &[(u128, bool)],
        external: Option<Arc<SharedFeasMemo>>,
        external_class: u64,
    ) -> Self {
        FeasMemo {
            map: Mutex::new(entries.iter().copied().collect()),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            external,
            external_class,
        }
    }

    /// Look a fingerprint up in the run's map, then in the cross-run one.
    pub(crate) fn lookup(&self, fp: u128) -> Option<bool> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let local = self.map.lock().get(&fp).copied();
        let hit = local.or_else(|| self.external.as_ref()?.get(self.external_class, fp));
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    pub(crate) fn record(&self, fp: u128, sat: bool) {
        self.map.lock().insert(fp, sat);
        if let Some(e) = &self.external {
            e.put(self.external_class, fp, sat);
        }
    }

    /// Sorted dump of the run's map, for checkpointing.
    pub(crate) fn snapshot(&self) -> Vec<(u128, bool)> {
        let mut v: Vec<(u128, bool)> = self.map.lock().iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_unstable();
        v
    }
}

/// Prefix of the panic message a failed memo audit raises in debug builds.
#[cfg(debug_assertions)]
pub(crate) const AUDIT_FAILURE: &str = "memo audit failed";

/// Debug-build audit of one memo lookup for `constraints`. The fingerprint
/// `fp` a path carried must equal the whole list's, which catches a stale
/// frame. A hit's verdict must survive a re-solve on a scratch fresh solver
/// under the run's conflict budget, so the worker's solver, rewrite memo,
/// phase seed and counters stay untouched; an Unknown answer proves nothing
/// either way.
#[cfg(debug_assertions)]
pub(crate) fn audit_lookup(
    pool: &p4t_smt::TermPool,
    constraints: &[p4t_smt::TermId],
    fp: u128,
    hit: Option<bool>,
    budget: u64,
) -> Result<(), String> {
    use p4t_smt::{stable_fingerprint, CheckResult, SolveBudget, Solver};
    if fp != stable_fingerprint(pool, constraints) {
        return Err(format!("{AUDIT_FAILURE}: stale fingerprint frame"));
    }
    let Some(sat) = hit else { return Ok(()) };
    let mut solver = Solver::new();
    solver.set_budget(SolveBudget::conflicts(budget));
    let fresh = match solver.check_assuming(pool, constraints) {
        CheckResult::Sat => true,
        CheckResult::Unsat => false,
        CheckResult::Unknown => return Ok(()),
    };
    if fresh == sat {
        Ok(())
    } else {
        Err(format!("{AUDIT_FAILURE}: memo says sat={sat}, a fresh solve says sat={fresh}"))
    }
}

/// Prefix of the panic message a failed feasibility audit raises in debug
/// builds.
#[cfg(debug_assertions)]
pub(crate) const FEASIBILITY_AUDIT_FAILURE: &str = "feasibility audit failed";

/// Whether a panic message is a failed audit: an engine bug, not a path
/// fault.
#[cfg(debug_assertions)]
pub(crate) fn is_audit_failure(msg: &str) -> bool {
    msg.starts_with(AUDIT_FAILURE) || msg.starts_with(FEASIBILITY_AUDIT_FAILURE)
}

/// Debug-build audit of one simplified feasibility verdict: a scratch
/// solver re-solves `constraints` unsimplified and with no budget, and must
/// agree. The simplifier's unit tests check equisatisfiability only on
/// small domains; this checks every verdict it decides in a run. An
/// Unknown verdict claims nothing and passes.
#[cfg(debug_assertions)]
pub(crate) fn audit_feasible(
    pool: &p4t_smt::TermPool,
    constraints: &[p4t_smt::TermId],
    verdict: p4t_smt::CheckResult,
) -> Result<(), String> {
    use p4t_smt::{CheckResult, Solver};
    if verdict == CheckResult::Unknown {
        return Ok(());
    }
    let unsimplified = Solver::new().check_assuming(pool, constraints);
    if unsimplified == verdict {
        Ok(())
    } else {
        Err(format!(
            "{FEASIBILITY_AUDIT_FAILURE}: the simplified check says {verdict:?}, \
             an unsimplified solve says {unsimplified:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The feasibility audit accepts true verdicts and refutes a wrong one
    /// either way; Unknown passes.
    #[cfg(debug_assertions)]
    #[test]
    fn feasibility_audit_refutes_a_wrong_verdict() {
        use p4t_smt::CheckResult::{Sat, Unknown, Unsat};
        let p = p4t_smt::TermPool::new();
        let x = p.fresh_var("x", 8);
        let is5 = p.eq(x, p.const_u128(8, 5));
        let is6 = p.eq(x, p.const_u128(8, 6));
        assert_eq!(audit_feasible(&p, &[is5], Sat), Ok(()));
        assert_eq!(audit_feasible(&p, &[is5, is6], Unsat), Ok(()));
        assert_eq!(audit_feasible(&p, &[is5, is6], Unknown), Ok(()));
        let err = audit_feasible(&p, &[is5], Unsat).unwrap_err();
        assert!(is_audit_failure(&err), "{err}");
        assert!(audit_feasible(&p, &[is5, is6], Sat).is_err());
    }

    /// The audit accepts a true verdict and refutes a planted wrong one,
    /// whichever way the plant points, and a stale fingerprint.
    #[cfg(debug_assertions)]
    #[test]
    fn audit_refutes_a_planted_wrong_verdict() {
        let p = p4t_smt::TermPool::new();
        let x = p.fresh_var("x", 8);
        let is5 = p.eq(x, p.const_u128(8, 5));
        let is6 = p.eq(x, p.const_u128(8, 6));
        let audit = |cs: &[p4t_smt::TermId], hit| {
            audit_lookup(&p, cs, p4t_smt::stable_fingerprint(&p, cs), hit, 0)
        };
        assert_eq!(audit(&[is5], Some(true)), Ok(()));
        assert_eq!(audit(&[is5, is6], Some(false)), Ok(()));
        assert_eq!(audit(&[is5, is6], None), Ok(()));
        let err = audit(&[is5], Some(false)).unwrap_err();
        assert!(err.starts_with(AUDIT_FAILURE), "{err}");
        assert!(audit(&[is5, is6], Some(true)).is_err());
        let stale = p4t_smt::stable_fingerprint(&p, &[is5]);
        assert!(audit_lookup(&p, &[is5, is6], stale, None, 0).is_err());
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

        let writer = FeasMemo::new(&[], Some(Arc::clone(&shared)), big_class);
        writer.record(42, true);
        let reader_small =
            FeasMemo::new(&[], Some(Arc::clone(&shared)), small_class);
        assert_eq!(reader_small.lookup(42), None);
        let reader_big = FeasMemo::new(&[], Some(shared), big_class);
        assert_eq!(reader_big.lookup(42), Some(true));
        assert_eq!(reader_big.hits.load(Ordering::Relaxed), 1);

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
