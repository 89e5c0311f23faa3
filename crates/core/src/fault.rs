//! Deterministic fault injection for exploration robustness.
//!
//! A [`FaultPlan`] lets tests and benches *force* every degradation path the
//! engine supports — Unknown solver verdicts, mid-path panics, expired
//! deadlines — instead of waiting for them to occur in production. All
//! injection is keyed by the schedule-independent fork trail (see
//! `crates/core/src/testgen.rs`), so a faulted run is exactly as
//! deterministic across worker counts as a clean one: the same trails are
//! poisoned no matter which worker reaches them or in what order.
//!
//! The plan lives in [`crate::config::TestgenConfig`] but is intentionally
//! not reachable from the one-shot CLI; production runs always carry the
//! empty plan, which is checked with two branch-predictable comparisons per
//! path. The `serve` daemon *can* accept per-request plans (parsed with
//! [`FaultPlan::from_json`]) when booted with `--enable-fault-injection`,
//! which is how the soak tests exercise request isolation: the
//! [`FaultPlan::driver_panic`] and [`FaultPlan::driver_stall`] faults fire
//! at the driver level — before any worker spawns — so they escape the
//! per-path containment and must be caught by the per-request
//! `catch_unwind` in the daemon.
//!
//! Interplay with solving: injected Unknowns fire *before* the memo and
//! the solver, so a forced-Unknown trail never touches the simplifier's
//! rewrite memo; the engine's rotated-phase-seed retry always solves
//! unsimplified (a non-zero phase seed skips the simplifier in
//! `p4t_smt::Solver::check_feasible`); and an injected panic makes the
//! worker drop that memo (`Solver::reset`) exactly as an organic panic
//! would. Faulted runs are therefore byte-identical at any worker count,
//! which `tests/determinism.rs` checks directly.

use std::collections::BTreeSet;
use std::time::Duration;

use serde::value::Value;

/// Mix a fork trail into a 64-bit value (splitmix64 steps per element, so
/// sibling trails diverge completely). Shared with the per-path RNG seeding
/// in the driver: a path's randomness and its fault verdicts are both pure
/// functions of its trail.
pub fn trail_hash(trail: &[u32]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (trail.len() as u64);
    for &t in trail {
        h ^= u64::from(t).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// A seeded, trail-keyed fault-injection plan (test/bench only).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the sampled (permille) injection below.
    pub seed: u64,
    /// Force every solver query issued for one of these exact trails to
    /// come back Unknown (both attempts, including the rotated-seed retry).
    unknown_trails: BTreeSet<Vec<u32>>,
    /// Panic while processing a state whose trail matches one of these.
    panic_trails: BTreeSet<Vec<u32>>,
    /// Simulate a hard abort (power loss) when a worker *pops* a state with
    /// one of these trails: exploration latches a drain, the coordinator
    /// flushes a final checkpoint, and the run reports no tests — as if the
    /// process had been killed right after its last flush. Trails here must
    /// be queue-time trails (ending in a nonzero element, or the root `[]`).
    kill_trails: BTreeSet<Vec<u32>>,
    /// Additionally force Unknown on roughly `unknown_permille`/1000 of all
    /// queries, sampled by `hash(seed, trail)` — schedule-independent.
    pub unknown_permille: u32,
    /// Shrink the run deadline (overrides `TestgenConfig::deadline`).
    pub deadline_override: Option<Duration>,
    /// Panic in the driver before any worker spawns. Unlike `panic_trails`
    /// this escapes the per-path containment, so it exercises the *request*
    /// level `catch_unwind` in the serve daemon.
    pub driver_panic: bool,
    /// Stall the driver for this long before exploration starts (polling
    /// the cooperative drain flag so graceful shutdown still works). Used
    /// to hold a worker slot busy deterministically in queue-full and
    /// drain tests.
    pub driver_stall: Option<Duration>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// True when the plan injects nothing (the production state).
    pub fn is_empty(&self) -> bool {
        self.unknown_trails.is_empty()
            && self.panic_trails.is_empty()
            && self.kill_trails.is_empty()
            && self.unknown_permille == 0
            && self.deadline_override.is_none()
            && !self.driver_panic
            && self.driver_stall.is_none()
    }

    /// Parse a per-request fault plan from the serve protocol's `fault`
    /// object. Recognized keys (all optional):
    ///
    /// ```json
    /// {"seed": 7, "driver_panic": true, "stall_ms": 500,
    ///  "deadline_ms": 0, "unknown_permille": 250,
    ///  "panic_at": [[0,1]], "unknown_at": [[0]], "kill_at": [[1]]}
    /// ```
    ///
    /// Unknown keys are rejected rather than ignored so a typo in a test
    /// harness cannot silently disable its intended fault.
    pub fn from_json(v: &Value) -> Result<FaultPlan, String> {
        let Value::Object(entries) = v else {
            return Err("fault must be a JSON object".to_string());
        };
        let mut plan = FaultPlan::default();
        for (key, val) in entries {
            match key.as_str() {
                "seed" => {
                    plan.seed =
                        val.as_u64().ok_or("fault.seed must be a non-negative integer")?;
                }
                "driver_panic" => {
                    plan.driver_panic =
                        val.as_bool().ok_or("fault.driver_panic must be a boolean")?;
                }
                "stall_ms" => {
                    let ms =
                        val.as_u64().ok_or("fault.stall_ms must be a non-negative integer")?;
                    plan.driver_stall = Some(Duration::from_millis(ms));
                }
                "deadline_ms" => {
                    let ms = val
                        .as_u64()
                        .ok_or("fault.deadline_ms must be a non-negative integer")?;
                    plan.deadline_override = Some(Duration::from_millis(ms));
                }
                "unknown_permille" => {
                    let p = val
                        .as_u64()
                        .ok_or("fault.unknown_permille must be a non-negative integer")?;
                    plan.unknown_permille =
                        u32::try_from(p.min(1000)).expect("clamped to 1000");
                }
                "panic_at" => {
                    for trail in parse_trails(val, "panic_at")? {
                        plan.force_panic_at(trail);
                    }
                }
                "unknown_at" => {
                    for trail in parse_trails(val, "unknown_at")? {
                        plan.force_unknown_at(trail);
                    }
                }
                "kill_at" => {
                    for trail in parse_trails(val, "kill_at")? {
                        plan.kill_at_trail(trail);
                    }
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Force Unknown verdicts for all solver queries issued at `trail`.
    pub fn force_unknown_at(&mut self, trail: Vec<u32>) -> &mut Self {
        self.unknown_trails.insert(trail);
        self
    }

    /// Inject a panic when a worker processes the state with `trail`.
    pub fn force_panic_at(&mut self, trail: Vec<u32>) -> &mut Self {
        self.panic_trails.insert(trail);
        self
    }

    /// Simulate a hard abort when a worker pops the state with `trail`
    /// (see `kill_trails`). Crash-recovery tests pair this with a
    /// checkpoint: the killed run persists its frontier, a resumed run
    /// (with a plan *not* containing the trail) completes the suite.
    pub fn kill_at_trail(&mut self, trail: Vec<u32>) -> &mut Self {
        self.kill_trails.insert(trail);
        self
    }

    /// Shrink the run deadline.
    pub fn with_deadline(&mut self, deadline: Duration) -> &mut Self {
        self.deadline_override = Some(deadline);
        self
    }

    /// Should the query issued for this trail be forced Unknown?
    pub fn wants_unknown(&self, trail: &[u32]) -> bool {
        if self.unknown_permille > 0
            && (trail_hash(trail) ^ self.seed) % 1000 < u64::from(self.unknown_permille.min(1000))
        {
            return true;
        }
        !self.unknown_trails.is_empty() && self.unknown_trails.contains(trail)
    }

    /// Should processing this trail panic?
    pub fn wants_panic(&self, trail: &[u32]) -> bool {
        !self.panic_trails.is_empty() && self.panic_trails.contains(trail)
    }

    /// Should popping this trail simulate a hard abort?
    pub fn wants_kill(&self, trail: &[u32]) -> bool {
        !self.kill_trails.is_empty() && self.kill_trails.contains(trail)
    }

    /// Number of explicitly planned Unknown trails (test bookkeeping).
    pub fn planned_unknowns(&self) -> usize {
        self.unknown_trails.len()
    }

    /// Number of explicitly planned kill trails (test bookkeeping).
    pub fn planned_kills(&self) -> usize {
        self.kill_trails.len()
    }

    /// Number of explicitly planned panic trails (test bookkeeping).
    pub fn planned_panics(&self) -> usize {
        self.panic_trails.len()
    }
}

/// Parse a JSON array-of-arrays into fork trails.
fn parse_trails(v: &Value, key: &str) -> Result<Vec<Vec<u32>>, String> {
    let arr = v.as_array().ok_or_else(|| format!("fault.{key} must be an array of trails"))?;
    let mut trails = Vec::with_capacity(arr.len());
    for item in arr {
        let elems =
            item.as_array().ok_or_else(|| format!("fault.{key}: each trail must be an array"))?;
        let mut trail = Vec::with_capacity(elems.len());
        for e in elems {
            let n = e
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("fault.{key}: trail elements must be u32"))?;
            trail.push(n);
        }
        trails.push(trail);
    }
    Ok(trails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trail_hash_distinguishes_siblings_and_depth() {
        assert_ne!(trail_hash(&[1]), trail_hash(&[2]));
        assert_ne!(trail_hash(&[0, 1]), trail_hash(&[1, 0]));
        assert_ne!(trail_hash(&[]), trail_hash(&[0]));
        assert_eq!(trail_hash(&[3, 1, 4]), trail_hash(&[3, 1, 4]));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(!plan.wants_unknown(&[]));
        assert!(!plan.wants_unknown(&[0, 1, 2]));
        assert!(!plan.wants_panic(&[0]));
    }

    #[test]
    fn explicit_trails_fire_exactly() {
        let mut plan = FaultPlan::new(7);
        plan.force_unknown_at(vec![0, 2]).force_panic_at(vec![1]);
        assert!(plan.wants_unknown(&[0, 2]));
        assert!(!plan.wants_unknown(&[0, 1]));
        assert!(plan.wants_panic(&[1]));
        assert!(!plan.wants_panic(&[0, 2]));
        assert!(!plan.is_empty());
        assert_eq!(plan.planned_unknowns(), 1);
        assert_eq!(plan.planned_panics(), 1);
    }

    #[test]
    fn kill_trails_fire_exactly() {
        let mut plan = FaultPlan::new(3);
        plan.kill_at_trail(vec![2, 1]);
        assert!(plan.wants_kill(&[2, 1]));
        assert!(!plan.wants_kill(&[2]));
        assert!(!plan.wants_kill(&[]));
        assert!(!plan.is_empty());
        assert_eq!(plan.planned_kills(), 1);
        // Kill trails are independent of the other injection kinds.
        assert!(!plan.wants_unknown(&[2, 1]));
        assert!(!plan.wants_panic(&[2, 1]));
    }

    #[test]
    fn from_json_parses_every_recognized_key() {
        let v = serde_json::from_str(
            r#"{"seed": 9, "driver_panic": true, "stall_ms": 250,
                "deadline_ms": 0, "unknown_permille": 100,
                "panic_at": [[0, 1]], "unknown_at": [[2]], "kill_at": [[3]]}"#,
        )
        .unwrap();
        let plan = FaultPlan::from_json(&v).expect("valid plan");
        assert_eq!(plan.seed, 9);
        assert!(plan.driver_panic);
        assert_eq!(plan.driver_stall, Some(Duration::from_millis(250)));
        assert_eq!(plan.deadline_override, Some(Duration::from_millis(0)));
        assert_eq!(plan.unknown_permille, 100);
        assert!(plan.wants_panic(&[0, 1]));
        assert!(plan.wants_kill(&[3]));
        assert_eq!(plan.planned_unknowns(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn from_json_rejects_unknown_keys_and_bad_shapes() {
        let v = serde_json::from_str(r#"{"driver_panik": true}"#).unwrap();
        let err = FaultPlan::from_json(&v).unwrap_err();
        assert!(err.contains("driver_panik"), "{err}");
        let v = serde_json::from_str(r#"{"panic_at": [0]}"#).unwrap();
        assert!(FaultPlan::from_json(&v).is_err());
        let v = serde_json::from_str("[]").unwrap();
        assert!(FaultPlan::from_json(&v).is_err());
        // The empty object is the empty plan.
        let v = serde_json::from_str("{}").unwrap();
        assert!(FaultPlan::from_json(&v).expect("empty plan parses").is_empty());
    }

    #[test]
    fn driver_faults_make_plan_non_empty() {
        let mut plan = FaultPlan::default();
        plan.driver_panic = true;
        assert!(!plan.is_empty());
        let mut plan = FaultPlan::default();
        plan.driver_stall = Some(Duration::from_millis(1));
        assert!(!plan.is_empty());
    }

    #[test]
    fn permille_sampling_is_deterministic_and_roughly_calibrated() {
        let mut plan = FaultPlan::new(42);
        plan.unknown_permille = 250;
        let trails: Vec<Vec<u32>> = (0..1000u32).map(|i| vec![i, i % 5]).collect();
        let hits: usize = trails.iter().filter(|t| plan.wants_unknown(t)).count();
        // Deterministic: the same trail answers the same way forever.
        let hits2: usize = trails.iter().filter(|t| plan.wants_unknown(t)).count();
        assert_eq!(hits, hits2);
        assert!((150..350).contains(&hits), "250 permille sampled {hits}/1000");
        // permille 1000 catches (nearly) everything.
        plan.unknown_permille = 1000;
        let all: usize = trails.iter().filter(|t| plan.wants_unknown(t)).count();
        assert!(all >= 999, "permille=1000 hit only {all}/1000");
    }
}
