//! Statement-coverage tracking and reports (§7, Table 4a).
//!
//! P4Testgen's main metric is statement coverage after dead-code
//! elimination. Each emitted test records the statements its path covered;
//! the tracker accumulates the union and reports the covered percentage and
//! the list of never-covered statements.

use p4t_ir::{IrProgram, StmtId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Accumulates covered statements over a generation run.
#[derive(Clone, Debug, Default)]
pub struct CoverageTracker {
    covered: BTreeSet<StmtId>,
    total: usize,
}

impl CoverageTracker {
    pub fn new(prog: &IrProgram) -> Self {
        CoverageTracker { covered: BTreeSet::new(), total: prog.num_statements() }
    }

    /// Record the statements covered by one test; returns how many were new.
    pub fn add(&mut self, stmts: &BTreeSet<StmtId>) -> usize {
        let before = self.covered.len();
        self.covered.extend(stmts.iter().copied());
        self.covered.len() - before
    }

    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }

    pub fn total(&self) -> usize {
        self.total
    }

    /// Covered fraction in [0, 1].
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.covered.len() as f64 / self.total as f64
        }
    }

    pub fn is_full(&self) -> bool {
        self.covered.len() >= self.total
    }

    pub fn contains(&self, id: StmtId) -> bool {
        self.covered.contains(&id)
    }

    /// Build the end-of-run report.
    pub fn report(&self, prog: &IrProgram) -> CoverageReport {
        let missed: Vec<MissedStatement> = prog
            .statements
            .iter()
            .filter(|s| !self.covered.contains(&s.id))
            .map(|s| MissedStatement {
                id: s.id,
                block: s.block.to_string(),
                line: s.line,
                col: s.col,
                describe: s.describe.clone(),
            })
            .collect();
        CoverageReport {
            total: self.total,
            covered: self.covered.len(),
            percent: self.fraction() * 100.0,
            missed,
        }
    }
}

/// Thread-safe statement-coverage accumulator for parallel exploration.
///
/// A fixed-size atomic bitset indexed by [`StmtId`] (statement ids are
/// assigned densely at lowering time, but dead-code elimination may leave
/// gaps, so the bitset is sized by the maximum surviving id). Workers record
/// coverage with [`SharedCoverage::add`] without any lock; the `epoch`
/// counter bumps whenever a *new* statement is covered, which lets the
/// coverage-first selector cache per-state novelty counts and invalidate
/// them only when global coverage actually grows.
#[derive(Debug)]
pub struct SharedCoverage {
    words: Vec<AtomicU64>,
    covered: AtomicUsize,
    epoch: AtomicU64,
    total: usize,
}

impl SharedCoverage {
    pub fn new(prog: &IrProgram) -> Self {
        let max_id = prog.statements.iter().map(|s| s.id.0 as usize + 1).max().unwrap_or(0);
        SharedCoverage {
            words: (0..max_id.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            covered: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            total: prog.num_statements(),
        }
    }

    /// Record the statements covered by one path; returns how many were new.
    pub fn add(&self, stmts: &BTreeSet<StmtId>) -> usize {
        let mut new = 0;
        for id in stmts {
            let i = id.0 as usize;
            let Some(word) = self.words.get(i / 64) else { continue };
            let bit = 1u64 << (i % 64);
            if word.fetch_or(bit, Ordering::AcqRel) & bit == 0 {
                new += 1;
            }
        }
        if new > 0 {
            self.covered.fetch_add(new, Ordering::AcqRel);
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        new
    }

    pub fn contains(&self, id: StmtId) -> bool {
        let i = id.0 as usize;
        self.words
            .get(i / 64)
            .is_some_and(|w| w.load(Ordering::Acquire) & (1u64 << (i % 64)) != 0)
    }

    /// Monotone counter that advances whenever new coverage lands; cheap to
    /// poll, used to invalidate cached novelty scores.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub fn covered_count(&self) -> usize {
        self.covered.load(Ordering::Acquire)
    }

    pub fn total(&self) -> usize {
        self.total
    }

    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.covered_count() as f64 / self.total as f64
        }
    }

    /// Snapshot the bitset for checkpointing: the raw words plus the
    /// novelty epoch. Taken while workers may still be running; each word
    /// is read atomically, so the snapshot is a superset of some past
    /// consistent state and a subset of the final one — safe for resume,
    /// where it only seeds the union.
    pub fn snapshot(&self) -> (Vec<u64>, u64) {
        let words = self.words.iter().map(|w| w.load(Ordering::Acquire)).collect();
        (words, self.epoch.load(Ordering::Acquire))
    }

    /// Restore a snapshot taken by [`SharedCoverage::snapshot`]. Only valid
    /// before workers start (single-threaded setup); the covered count is
    /// recomputed from the word popcounts. Word vectors from a different
    /// program shape are truncated/ignored defensively rather than trusted.
    pub fn restore(&self, words: &[u64], epoch: u64) {
        let mut covered = 0usize;
        for (slot, &w) in self.words.iter().zip(words.iter()) {
            slot.store(w, Ordering::Release);
            covered += w.count_ones() as usize;
        }
        self.covered.store(covered, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Build the end-of-run report.
    pub fn report(&self, prog: &IrProgram) -> CoverageReport {
        let missed: Vec<MissedStatement> = prog
            .statements
            .iter()
            .filter(|s| !self.contains(s.id))
            .map(|s| MissedStatement {
                id: s.id,
                block: s.block.to_string(),
                line: s.line,
                col: s.col,
                describe: s.describe.clone(),
            })
            .collect();
        CoverageReport {
            total: self.total,
            covered: self.covered_count(),
            percent: self.fraction() * 100.0,
            missed,
        }
    }
}

/// A statement never covered by any generated test.
#[derive(Clone, Debug)]
pub struct MissedStatement {
    pub id: StmtId,
    pub block: String,
    pub line: u32,
    /// Start column (1-based) of the statement's source span.
    pub col: u32,
    pub describe: String,
}

/// Where and why a path was abandoned, for coverage attribution
/// (`--coverage-report`). `near_stmt` is the deepest statement the path
/// had covered before it died — the frontier of "how close we got".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbandonSite {
    /// Fork trail of the abandoned path (schedule-independent identity).
    pub trail: Vec<u32>,
    /// Stable taxonomy key from `summary::reason`.
    pub reason: String,
    /// Highest-id statement covered by the path before abandonment.
    pub near_stmt: Option<StmtId>,
}

/// The coverage report emitted when generation finishes (§7: "it emits a
/// report that details the total percentage of statements covered and lists
/// the statements not covered").
#[derive(Clone, Debug)]
pub struct CoverageReport {
    pub total: usize,
    pub covered: usize,
    pub percent: f64,
    pub missed: Vec<MissedStatement>,
}

impl std::fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "statement coverage: {}/{} ({:.1}%)",
            self.covered, self.total, self.percent
        )?;
        for m in &self.missed {
            writeln!(f, "  not covered: [{}] line {}: {}", m.block, m.line, m.describe)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_reports_fraction() {
        let mut t = CoverageTracker { covered: BTreeSet::new(), total: 4 };
        let mut s = BTreeSet::new();
        s.insert(StmtId(0));
        s.insert(StmtId(1));
        assert_eq!(t.add(&s), 2);
        assert_eq!(t.add(&s), 0); // idempotent
        assert!((t.fraction() - 0.5).abs() < 1e-9);
        assert!(!t.is_full());
        s.insert(StmtId(2));
        s.insert(StmtId(3));
        t.add(&s);
        assert!(t.is_full());
    }

    #[test]
    fn shared_coverage_counts_and_epochs() {
        let sc = SharedCoverage {
            words: (0..2).map(|_| AtomicU64::new(0)).collect(),
            covered: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            total: 4,
        };
        let mut s = BTreeSet::new();
        s.insert(StmtId(0));
        s.insert(StmtId(65)); // second word
        assert_eq!(sc.add(&s), 2);
        let e = sc.epoch();
        assert_eq!(sc.add(&s), 0, "idempotent");
        assert_eq!(sc.epoch(), e, "epoch only advances on new coverage");
        assert!(sc.contains(StmtId(65)));
        assert!(!sc.contains(StmtId(1)));
        assert!(!sc.contains(StmtId(500)), "out-of-range ids are not covered");
        assert_eq!(sc.covered_count(), 2);
    }

    #[test]
    fn shared_coverage_snapshot_restore_round_trip() {
        let sc = SharedCoverage {
            words: (0..2).map(|_| AtomicU64::new(0)).collect(),
            covered: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            total: 70,
        };
        let s: BTreeSet<StmtId> = [0, 3, 64, 69].into_iter().map(StmtId).collect();
        sc.add(&s);
        let (words, epoch) = sc.snapshot();

        let fresh = SharedCoverage {
            words: (0..2).map(|_| AtomicU64::new(0)).collect(),
            covered: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            total: 70,
        };
        fresh.restore(&words, epoch);
        assert_eq!(fresh.covered_count(), 4);
        assert_eq!(fresh.epoch(), epoch);
        assert!(fresh.contains(StmtId(64)));
        assert!(!fresh.contains(StmtId(1)));
        // Restoring a snapshot with a different shape must not panic.
        fresh.restore(&words[..1], epoch);
        assert_eq!(fresh.covered_count(), 2);
    }

    #[test]
    fn shared_coverage_concurrent_adds_count_once() {
        let sc = SharedCoverage {
            words: (0..4).map(|_| AtomicU64::new(0)).collect(),
            covered: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            total: 200,
        };
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sc = &sc;
                scope.spawn(move || {
                    // Overlapping ranges: each statement hit by two threads.
                    let s: BTreeSet<StmtId> =
                        (t * 50..(t + 2) * 50).map(|i| StmtId(i % 200)).collect();
                    sc.add(&s);
                });
            }
        });
        assert_eq!(sc.covered_count(), 200, "each bit counted exactly once");
    }

    #[test]
    fn shared_coverage_epoch_is_monotone_under_concurrent_adds() {
        let sc = SharedCoverage {
            words: (0..8).map(|_| AtomicU64::new(0)).collect(),
            covered: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            total: 512,
        };
        std::thread::scope(|scope| {
            // Writers: disjoint and overlapping statement sets.
            for t in 0..4u32 {
                let sc = &sc;
                scope.spawn(move || {
                    for i in 0..128u32 {
                        let s: BTreeSet<StmtId> =
                            [StmtId(t * 128 + i), StmtId(i)].into_iter().collect();
                        sc.add(&s);
                    }
                });
            }
            // Readers: the epoch and covered count must never go backward.
            for _ in 0..2 {
                let sc = &sc;
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    let mut last_covered = 0;
                    for _ in 0..2000 {
                        let e = sc.epoch();
                        let c = sc.covered_count();
                        assert!(e >= last_epoch, "epoch went backward: {last_epoch} -> {e}");
                        assert!(c >= last_covered, "covered went backward");
                        last_epoch = e;
                        last_covered = c;
                    }
                });
            }
        });
        assert_eq!(sc.covered_count(), 512);
        assert!(sc.epoch() >= 1);
        // Fully-covered: further adds never advance the epoch.
        let e = sc.epoch();
        let s: BTreeSet<StmtId> = (0..512).map(StmtId).collect();
        assert_eq!(sc.add(&s), 0);
        assert_eq!(sc.epoch(), e);
    }
}
