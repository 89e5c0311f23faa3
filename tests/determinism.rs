//! Determinism of parallel exploration: for a fixed seed, the emitted test
//! suite must be the same at any worker count. Path identity is the fork
//! trail (schedule-independent), per-path randomness is seeded from the
//! trail, and emission is trail-sorted — so full-exploration runs must
//! agree not just as sets but in order.

use p4testgen_core::{Testgen, TestgenConfig, TestSpec};
use p4t_targets::V1Model;

fn run_with_jobs(name: &str, src: &str, jobs: usize) -> (Vec<TestSpec>, p4testgen_core::RunSummary) {
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = jobs;
    let mut tg = Testgen::new(name, src, V1Model::new(), config)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut tests = Vec::new();
    let summary = tg.run(|t| {
        tests.push(t.clone());
        true
    });
    (tests, summary)
}

/// Canonical, order-insensitive fingerprint of a suite.
fn suite_set(tests: &[TestSpec]) -> Vec<String> {
    let mut v: Vec<String> = tests
        .iter()
        .map(|t| {
            // Ids are assigned by emission order; exclude them from the
            // set fingerprint (they are checked separately for ordering).
            let mut t = t.clone();
            t.id = 0;
            serde_json::to_string(&t).expect("serialize")
        })
        .collect();
    v.sort();
    v
}

/// A matrix column: [`TestgenConfig::set`] key/value pairs applied on top
/// of the row's settings.
type Col = &'static [(&'static str, &'static str)];

/// Worker counts × solver modes. The incremental warm core is verdict-only
/// and every emitted byte comes from a fresh model-bearing check, so every
/// cell must emit the reference suite byte for byte, in trail order.
const JOBS_X_MODES: &[Col] = &[
    &[("jobs", "1"), ("solver_mode", "fresh")],
    &[("jobs", "1"), ("solver_mode", "incremental")],
    &[("jobs", "4"), ("solver_mode", "fresh")],
    &[("jobs", "4"), ("solver_mode", "incremental")],
    &[("jobs", "8"), ("solver_mode", "fresh")],
    &[("jobs", "8"), ("solver_mode", "incremental")],
];

/// Full exploration visits the same path set under any strategy, also with
/// a parallel pool (the strategy only orders each worker's local deque), so
/// strategy cells must emit the reference *set*; the order may differ.
const STRATEGY_COLS: &[Col] = &[
    &[("jobs", "1")],
    &[("jobs", "4"), ("strategy", "bfs")],
    &[("jobs", "4"), ("strategy", "random")],
    &[("jobs", "4"), ("strategy", "coverage")],
];

/// The `max_tests` caps the capped fork-heavy rows run at.
const CAPS: &[Col] = &[&[("max_tests", "1")], &[("max_tests", "7")], &[("max_tests", "25")]];

/// A matrix row: one program, the settings all its cells share, and the
/// fewest tests its reference cell (the first column) must emit.
struct Row {
    name: &'static str,
    src: String,
    base: Col,
    min_tests: usize,
    cols: &'static [Col],
}

fn label(pairs: Col) -> String {
    pairs.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Run one cell, turning any panic into one that names the row and column.
fn run_cell(row: &Row, col: Col, ctx: &str) -> (Vec<TestSpec>, p4testgen_core::RunSummary) {
    let run = || {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        for (k, v) in row.base.iter().chain(col) {
            config.set(k, v).unwrap_or_else(|e| panic!("{e}"));
        }
        run_with_config(row.name, &row.src, config)
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        panic!("{ctx}: run panicked: {msg}")
    })
}

/// Every v1model corpus program, one row each.
fn corpus_rows(cols: &'static [Col]) -> Vec<Row> {
    p4t_corpus::all_programs()
        .into_iter()
        .filter(|(_, _, target)| *target == "v1model")
        .map(|(name, src, _)| Row { name, src, base: &[], min_tests: 1, cols })
        .collect()
}

/// The fork-heavy synthetic program, one row per base setting. ~4^4
/// feasible paths: enough branching that all 8 workers stay busy and the
/// work-stealing paths actually execute.
fn fork_heavy_rows(bases: &[Col], cols: &'static [Col]) -> Vec<Row> {
    let src = p4t_corpus::generate_synthetic(4, 3);
    bases
        .iter()
        .map(|&base| Row {
            name: "synthetic_4x3",
            src: src.clone(),
            base,
            min_tests: if base.is_empty() { 51 } else { 1 },
            cols,
        })
        .collect()
}

/// The equivalence matrix: for a fixed seed, every column of a row must
/// reproduce the row's reference cell (its first column). Path identity is
/// the fork trail, per-path randomness is seeded from it, and emission is
/// trail-sorted, so worker count and solver mode may not change the suite,
/// its order, or (uncapped) the path, infeasible-path and coverage counts.
/// A `max_tests = k` cap keeps the k lexicographically-smallest trails, so
/// capped suites must agree too. Every panic names the failing cell. The
/// tests below are the matrix's slices, one per row family and column set.
fn check_matrix(rows: &[Row]) {
    for row in rows {
        let row_label = format!("{} {}", row.name, label(row.base)).trim_end().to_string();
        let ref_ctx = format!("{row_label} × {}", label(row.cols[0]));
        let (reference, ref_sum) = run_cell(row, row.cols[0], &ref_ctx);
        assert!(
            reference.len() >= row.min_tests,
            "{ref_ctx}: {} tests, expected at least {}",
            reference.len(),
            row.min_tests
        );
        for &col in row.cols {
            let ctx = format!("{row_label} × {}", label(col));
            let (tests, sum) = run_cell(row, col, &ctx);
            // Expectations come from the cell's labels, not from the config
            // `set` built, so a key that `set` mis-maps fails here.
            let get = |key: &str| {
                row.base.iter().chain(col).rev().find(|(k, _)| *k == key).map(|&(_, v)| v)
            };
            let ordered = get("strategy").is_none();
            if get("jobs") == Some("8") {
                let set = suite_set(&tests);
                let mut dedup = set.clone();
                dedup.dedup();
                assert_eq!(set.len(), dedup.len(), "{ctx}: duplicate tests emitted");
            }
            assert_eq!(suite_set(&reference), suite_set(&tests), "{ctx}: test set differs");
            if ordered {
                assert_eq!(reference, tests, "{ctx}: suite order or ids differ");
                assert_eq!(ref_sum.test_trails, sum.test_trails, "{ctx}: trails differ");
            }
            if let Some(cap) = get("max_tests") {
                assert_eq!(tests.len().to_string(), cap, "{ctx}: cap not honored");
            } else {
                assert_eq!(ref_sum.tests, sum.tests, "{ctx}: test counts differ");
                assert_eq!(
                    ref_sum.coverage.covered, sum.coverage.covered,
                    "{ctx}: coverage differs"
                );
                if ordered {
                    assert_eq!(ref_sum.paths_explored, sum.paths_explored, "{ctx}: paths differ");
                    assert_eq!(
                        ref_sum.infeasible_paths, sum.infeasible_paths,
                        "{ctx}: infeasible paths differ"
                    );
                }
            }
            // The comparison is only meaningful if the warm core ran in
            // incremental cells and stayed off in fresh ones.
            let mode = get("solver_mode")
                .unwrap_or_else(|| TestgenConfig::default().solver_mode.as_str());
            if mode == "fresh" {
                assert_eq!(sum.solver.warm_checks, 0, "{ctx}: fresh mode went warm");
            } else {
                assert!(sum.solver.warm_checks > 0, "{ctx}: warm core never used");
            }
            // The retired clause-exchange keys stay in the summary, always 0.
            let s = &sum.solver;
            assert_eq!(
                (s.learnt_exported, s.learnt_imported, s.learnt_import_skipped),
                (0, 0, 0),
                "{ctx}: retired learnt_* counters moved"
            );
        }
    }
}

#[test]
fn corpus_programs_same_suite_at_jobs_1_and_4() {
    check_matrix(&corpus_rows(&[&[("jobs", "1")], &[("jobs", "4")]]));
}

#[test]
fn solver_modes_agree_on_corpus_programs() {
    check_matrix(&corpus_rows(&[
        &[("jobs", "1"), ("solver_mode", "fresh")],
        &[("jobs", "1"), ("solver_mode", "incremental")],
    ]));
}

#[test]
fn fork_heavy_stress_jobs_8_no_duplicates_and_coverage_matches() {
    check_matrix(&fork_heavy_rows(&[&[]], &[&[("jobs", "1")], &[("jobs", "8")]]));
}

#[test]
fn solver_modes_emit_identical_suites_at_jobs_1_4_8() {
    check_matrix(&fork_heavy_rows(&[&[]], JOBS_X_MODES));
}

#[test]
fn max_tests_cap_is_deterministic_across_job_counts() {
    check_matrix(&fork_heavy_rows(CAPS, &[&[("jobs", "1")], &[("jobs", "4")], &[("jobs", "8")]]));
}

#[test]
fn solver_modes_identical_under_max_tests_cap() {
    check_matrix(&fork_heavy_rows(CAPS, JOBS_X_MODES));
}

#[test]
fn strategies_explore_same_set_in_parallel() {
    let row = Row {
        name: "synthetic_3x2",
        src: p4t_corpus::generate_synthetic(3, 2),
        base: &[],
        min_tests: 1,
        cols: STRATEGY_COLS,
    };
    check_matrix(&[row]);
}

fn run_with_config(
    name: &str,
    src: &str,
    config: TestgenConfig,
) -> (Vec<TestSpec>, p4testgen_core::RunSummary) {
    let mut tg = Testgen::new(name, src, V1Model::new(), config)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut tests = Vec::new();
    let summary = tg
        .try_run(|t| {
            tests.push(t.clone());
            true
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (tests, summary)
}

/// Serialized specs with ids zeroed, *in emission order* (for subsequence
/// and exact-sequence comparisons across runs that renumber differently).
fn suite_seq(tests: &[TestSpec]) -> Vec<String> {
    tests
        .iter()
        .map(|t| {
            let mut t = t.clone();
            t.id = 0;
            serde_json::to_string(&t).expect("serialize")
        })
        .collect()
}

#[test]
fn fault_plan_injections_are_exact_and_schedule_independent() {
    use p4testgen_core::reason;
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (base, base_sum) = run_with_jobs("synthetic_4x3", &src, 1);
    assert!(base_sum.errors.is_clean(), "clean baseline expected: {}", base_sum.errors);
    assert_eq!(base_sum.test_trails.len(), base.len(), "trails parallel the suite");
    assert!(base.len() > 10, "need a fork-heavy corpus, got {} tests", base.len());

    // Poison 5 emitted leaf trails with Unknown verdicts and 1 with a panic.
    let unknown_trails: Vec<Vec<u32>> =
        [0usize, 2, 4, 6, 8].iter().map(|&i| base_sum.test_trails[i].clone()).collect();
    let panic_trail = base_sum.test_trails[1].clone();
    let poisoned: Vec<Vec<u32>> = unknown_trails
        .iter()
        .cloned()
        .chain(std::iter::once(panic_trail.clone()))
        .collect();
    let expected: Vec<String> = suite_seq(&base)
        .into_iter()
        .zip(&base_sum.test_trails)
        .filter(|(_, trail)| !poisoned.contains(trail))
        .map(|(s, _)| s)
        .collect();

    let mut reference: Option<(Vec<String>, p4testgen_core::ErrorStats)> = None;
    for jobs in [1usize, 4, 8] {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = jobs;
        config.fault_plan.seed = 99;
        for t in &unknown_trails {
            config.fault_plan.force_unknown_at(t.clone());
        }
        config.fault_plan.force_panic_at(panic_trail.clone());
        let (tests, summary) = run_with_config("synthetic_4x3", &src, config);

        // The run completed without aborting the process, and lost exactly
        // the poisoned paths — nothing else.
        assert_eq!(suite_seq(&tests), expected, "jobs={jobs}: suite != base minus poisoned");
        let e = &summary.errors;
        assert_eq!(e.unknown_queries, 5, "jobs={jobs}: unknown_queries");
        assert_eq!(e.budget_retries, 5, "jobs={jobs}: budget_retries");
        assert_eq!(e.panicked_paths, 1, "jobs={jobs}: panicked_paths");
        assert!(!e.deadline_expired, "jobs={jobs}: no deadline configured");
        assert_eq!(e.panics.len(), 1, "jobs={jobs}: one panic record");
        assert_eq!(e.panics[0].trail, panic_trail, "jobs={jobs}: panic recorded at its trail");
        assert!(
            e.panics[0].payload.contains("injected fault"),
            "jobs={jobs}: panic payload captured, got {:?}",
            e.panics[0].payload
        );
        assert_eq!(
            e.abandoned_by_reason.get(reason::SOLVER_UNKNOWN).copied(),
            Some(5),
            "jobs={jobs}: solver-unknown abandon count"
        );
        assert_eq!(
            e.abandoned_by_reason.get(reason::PANIC).copied(),
            Some(1),
            "jobs={jobs}: panic abandon count"
        );

        // Deterministic across worker counts, including the error taxonomy.
        let fingerprint = (suite_seq(&tests), e.clone());
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => {
                assert_eq!(r.0, fingerprint.0, "jobs={jobs}: faulted suite differs");
                assert_eq!(r.1, fingerprint.1, "jobs={jobs}: error stats differ");
            }
        }
    }
}

#[test]
fn deadline_expiry_drains_to_a_prefix_consistent_subset() {
    use std::time::Duration;
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (full, _) = run_with_jobs("synthetic_4x3", &src, 4);
    let full_seq = suite_seq(&full);

    // An already-expired deadline: the run must still complete gracefully,
    // with an empty suite and the expiry reported.
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.deadline = Some(Duration::ZERO);
    let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
    assert!(tests.is_empty(), "expired-at-start run emitted {} tests", tests.len());
    assert!(summary.errors.deadline_expired, "deadline expiry not reported");
    assert!(
        summary.errors.abandoned_by_reason.get(p4testgen_core::reason::DEADLINE).copied()
            >= Some(1),
        "drained states not attributed to the deadline"
    );

    // The fault plan can shrink the deadline too (overriding the config).
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.fault_plan.with_deadline(Duration::ZERO);
    let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
    assert!(tests.is_empty(), "fault-plan deadline did not cut the run");
    assert!(summary.errors.deadline_expired);

    // A mid-run expiry (any outcome from empty to complete is legal): the
    // emitted suite must be a subsequence of the full deterministic suite —
    // same specs, same relative order, nothing new.
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.deadline = Some(Duration::from_millis(5));
    let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
    let got = suite_seq(&tests);
    let mut it = full_seq.iter();
    for spec in &got {
        assert!(
            it.any(|f| f == spec),
            "deadline run emitted a test that is not a subsequence of the full suite"
        );
    }
    if (got.len() as u64) < full.len() as u64 {
        assert!(summary.errors.deadline_expired, "partial suite without reported expiry");
    }
}

#[test]
fn saturating_unknown_injection_still_terminates_deterministically() {
    // Force *every* solver query Unknown: nothing can be emitted, but the
    // run must terminate cleanly with identical books at any worker count.
    let src = p4t_corpus::generate_synthetic(3, 2);
    let mut reference: Option<(u64, p4testgen_core::ErrorStats)> = None;
    for jobs in [1usize, 4] {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = jobs;
        config.fault_plan.seed = 5;
        config.fault_plan.unknown_permille = 1000;
        let (tests, summary) = run_with_config("synthetic_3x2", &src, config);
        assert!(tests.is_empty(), "jobs={jobs}: saturated Unknowns still emitted tests");
        assert!(summary.errors.unknown_queries > 0, "jobs={jobs}: no Unknowns counted");
        let fp = (summary.errors.unknown_queries, summary.errors.clone());
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(*r, fp, "jobs={jobs}: saturated-fault run not deterministic"),
        }
    }
}

/// Run with tracing on and return the schedule-independent residue of the
/// JSONL trace: path records only, timing stripped.
fn stripped_trace(src: &str, configure: impl Fn(&mut TestgenConfig), jobs: usize) -> String {
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = jobs;
    config.obs.trace = true;
    configure(&mut config);
    let (_, summary) = run_with_config("synthetic", src, config);
    let trace = summary.trace.expect("trace collected when obs.trace is set");
    p4t_obs::trace::strip_schedule_dependent(&trace.to_jsonl())
}

#[test]
fn trace_jsonl_is_schedule_independent_after_stripping_timing() {
    let src = p4t_corpus::generate_synthetic(4, 3);
    let base = stripped_trace(&src, |_| {}, 1);
    assert!(!base.is_empty(), "tracing produced no path records");
    // Every surviving line is a path record keyed by its fork trail, with
    // the timing object gone.
    for line in base.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("trace line parses");
        assert_eq!(v.get("k").and_then(|k| k.as_str()), Some("path"), "{line}");
        assert!(v.get("trail").is_some(), "path record without a trail: {line}");
        assert!(v.get("t").is_none(), "timing survived stripping: {line}");
        assert!(v.get("outcome").is_some(), "path record without outcome: {line}");
    }
    for jobs in [4usize, 8] {
        assert_eq!(
            base,
            stripped_trace(&src, |_| {}, jobs),
            "stripped trace differs between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn trace_stays_deterministic_under_fault_injection() {
    // The PR 2 fault plan poisons specific trails with Unknown verdicts and
    // a panic; the stripped trace must still be identical at any worker
    // count, with the injected outcomes visible in the path records.
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (_, base_sum) = run_with_jobs("synthetic_4x3", &src, 1);
    let unknown_trails: Vec<Vec<u32>> =
        [0usize, 2, 4].iter().map(|&i| base_sum.test_trails[i].clone()).collect();
    let panic_trail = base_sum.test_trails[1].clone();
    let configure = |config: &mut TestgenConfig| {
        config.fault_plan.seed = 99;
        for t in &unknown_trails {
            config.fault_plan.force_unknown_at(t.clone());
        }
        config.fault_plan.force_panic_at(panic_trail.clone());
    };
    let base = stripped_trace(&src, configure, 1);
    assert!(base.contains("\"abandoned\""), "injected Unknowns not visible in the trace");
    assert!(base.contains("\"panicked\""), "injected panic not visible in the trace");
    for jobs in [4usize, 8] {
        assert_eq!(
            base,
            stripped_trace(&src, configure, jobs),
            "faulted stripped trace differs between jobs=1 and jobs={jobs}"
        );
    }
}

/// Run one program with an explicit solver mode (and optional extra
/// configuration), returning the suite in emission order plus the summary.
fn run_with_mode(
    name: &str,
    src: &str,
    jobs: usize,
    mode: p4testgen_core::SolverMode,
    configure: impl Fn(&mut TestgenConfig),
) -> (Vec<TestSpec>, p4testgen_core::RunSummary) {
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = jobs;
    config.solver_mode = mode;
    configure(&mut config);
    run_with_config(name, src, config)
}


#[test]
fn solver_modes_identical_under_fault_plans() {
    use p4testgen_core::SolverMode;
    // The PR 2 fault machinery (forced Unknowns + injected panics) must not
    // open a gap between the modes: injected Unknowns fire before the
    // solver, retries force fresh solves in both modes, and a panic drops
    // the warm core.
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (_, base_sum) = run_with_jobs("synthetic_4x3", &src, 1);
    let unknown_trails: Vec<Vec<u32>> =
        [0usize, 2, 4].iter().map(|&i| base_sum.test_trails[i].clone()).collect();
    let panic_trail = base_sum.test_trails[1].clone();
    let configure = |config: &mut TestgenConfig| {
        config.fault_plan.seed = 99;
        for t in &unknown_trails {
            config.fault_plan.force_unknown_at(t.clone());
        }
        config.fault_plan.force_panic_at(panic_trail.clone());
    };
    for jobs in [1usize, 4, 8] {
        let (fresh, fresh_sum) =
            run_with_mode("synthetic_4x3", &src, jobs, SolverMode::Fresh, configure);
        let (inc, inc_sum) =
            run_with_mode("synthetic_4x3", &src, jobs, SolverMode::Incremental, configure);
        assert_eq!(fresh, inc, "jobs={jobs}: faulted suites differ between solver modes");
        assert_eq!(
            fresh_sum.errors, inc_sum.errors,
            "jobs={jobs}: faulted error taxonomy differs between solver modes"
        );
        assert_eq!(inc_sum.errors.panicked_paths, 1, "jobs={jobs}: panic not injected");
        assert_eq!(inc_sum.errors.unknown_queries, 3, "jobs={jobs}: Unknowns not injected");
    }
}


#[test]
fn incremental_run_reports_spine_reuse() {
    use p4testgen_core::SolverMode;
    // Sibling forks share their whole constraint prefix, so a DFS of a
    // fork-heavy program must reuse warm-core encodings and hit the blast
    // cache; the summary counters are how BENCH and operators see this.
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (_, summary) = run_with_mode("synthetic_4x3", &src, 1, SolverMode::Incremental, |_| {});
    let s = &summary.solver;
    assert!(s.warm_checks > 0, "no warm checks recorded");
    assert!(s.roots_reused > 0, "no spine reuse on a fork-heavy DFS");
    assert!(s.blast_cache_hits > 0, "no blast-cache hits recorded");
}

// ---------------------------------------------------------------------------
// Sharded, checkpointable, crash-resumable exploration (PR 7).

use p4testgen_core::{CheckpointCfg, ExplorationState, ShardSpec};
use std::path::PathBuf;

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p4testgen_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.ckpt"))
}

/// Truncate a completed-path trail to its queue-time form: everything up to
/// and including the last nonzero element (the last point at which the path
/// sat in a worker deque and could be popped — where kill faults fire).
fn queue_time_prefix(trail: &[u32]) -> Vec<u32> {
    let cut = trail.iter().rposition(|&e| e != 0).map_or(0, |i| i + 1);
    trail[..cut].to_vec()
}

#[test]
fn shard_merge_reproduces_whole_run_suite() {
    let src = p4t_corpus::generate_synthetic(4, 3);
    for (jobs, cap) in [(1usize, 0u64), (4, 0), (4, 7), (8, 0)] {
        let whole = {
            let mut config = TestgenConfig::default();
            config.seed = 7;
            config.jobs = jobs;
            config.max_tests = cap;
            run_with_config("synthetic_4x3", &src, config)
        };
        let count = 3u32;
        let mut shard_suites = Vec::new();
        let mut owned_total = 0u64;
        for index in 0..count {
            let mut config = TestgenConfig::default();
            config.seed = 7;
            config.jobs = jobs;
            config.max_tests = cap;
            config.shard = Some(ShardSpec { index, count });
            let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
            assert!(
                summary.out_of_shard_paths > 0,
                "shard {index}/{count}: pruned nothing on a fork-heavy program"
            );
            owned_total += tests.len() as u64;
            let keyed: Vec<(Vec<u32>, TestSpec)> =
                summary.test_trails.iter().cloned().zip(tests.iter().cloned()).collect();
            shard_suites.push(keyed);
        }
        if cap == 0 {
            assert_eq!(
                owned_total,
                whole.0.len() as u64,
                "jobs={jobs}: shards did not partition the suite"
            );
        }
        let merged = p4testgen_core::merge_shard_suites(shard_suites, cap);
        assert_eq!(
            merged, whole.0,
            "jobs={jobs} cap={cap}: merged shard suites differ from the whole run"
        );
    }
}

#[test]
fn shard_merge_identical_under_fault_plans() {
    // Trail-keyed faults land in whichever shard owns the trail; the merged
    // faulted suites must equal the whole faulted run.
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (_, base_sum) = run_with_jobs("synthetic_4x3", &src, 1);
    let unknown_trails: Vec<Vec<u32>> =
        [0usize, 3].iter().map(|&i| base_sum.test_trails[i].clone()).collect();
    let configure = |config: &mut TestgenConfig| {
        config.seed = 7;
        config.jobs = 4;
        config.fault_plan.seed = 99;
        for t in &unknown_trails {
            config.fault_plan.force_unknown_at(t.clone());
        }
    };
    let whole = {
        let mut config = TestgenConfig::default();
        configure(&mut config);
        run_with_config("synthetic_4x3", &src, config).0
    };
    let count = 2u32;
    let mut shard_suites = Vec::new();
    for index in 0..count {
        let mut config = TestgenConfig::default();
        configure(&mut config);
        config.shard = Some(ShardSpec { index, count });
        let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
        shard_suites
            .push(summary.test_trails.iter().cloned().zip(tests.iter().cloned()).collect());
    }
    assert_eq!(
        p4testgen_core::merge_shard_suites(shard_suites, 0),
        whole,
        "faulted merged shards differ from the whole faulted run"
    );
}

#[test]
fn resume_after_deadline_completes_byte_identical() {
    use std::time::Duration;
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (full, full_sum) = run_with_jobs("synthetic_4x3", &src, 4);
    let path = scratch_file("deadline_resume");

    // Segment 1: expired before any work — drains, preserving the frontier.
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.deadline = Some(Duration::ZERO);
    config.checkpoint = Some(CheckpointCfg::new(&path));
    let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
    assert!(tests.is_empty(), "expired-at-start segment emitted {} tests", tests.len());
    let info = summary.resume.as_ref().expect("checkpointing run reports resume info");
    assert_eq!(info.interrupted.as_deref(), Some("deadline"));
    assert!(info.frontier_remaining >= 1, "drain did not preserve the frontier");
    assert!(info.flush_error.is_none(), "flush failed: {:?}", info.flush_error);
    let saved = ExplorationState::load(&path).expect("final checkpoint written");
    assert!(!saved.is_complete(), "interrupted run wrote a complete checkpoint");

    // Segment 2: resume with no deadline (the deadline is not part of the
    // config fingerprint) — must complete the exact single-run suite.
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.resume = Some(saved);
    config.checkpoint = Some(CheckpointCfg::new(&path));
    let (resumed, summary) = run_with_config("synthetic_4x3", &src, config);
    let info = summary.resume.as_ref().expect("resume info");
    assert!(info.resumed, "valid checkpoint not accepted");
    assert!(info.interrupted.is_none(), "completed segment still reports interruption");
    assert_eq!(resumed, full, "resumed suite differs from the uninterrupted run");
    assert_eq!(
        summary.coverage.covered, full_sum.coverage.covered,
        "resumed coverage differs"
    );
    assert!(
        ExplorationState::load(&path).expect("checkpoint").is_complete(),
        "completed run left a non-empty frontier in its checkpoint"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_after_kill_fault_completes_byte_identical() {
    // Simulated power loss mid-run, at a deterministic trail, at several
    // worker counts; a resumed run (same config, kill removed) must finish
    // the exact single-run suite.
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (full, full_sum) = run_with_jobs("synthetic_4x3", &src, 1);
    assert!(full.len() > 10);
    let kill = queue_time_prefix(&full_sum.test_trails[full.len() / 2]);
    assert!(!kill.is_empty(), "picked the root; choose a deeper corpus trail");

    for jobs in [1usize, 4, 8] {
        let path = scratch_file(&format!("kill_resume_{jobs}"));
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = jobs;
        config.checkpoint = Some(CheckpointCfg::new(&path));
        config.fault_plan.kill_at_trail(kill.clone());
        let (tests, summary) = run_with_config("synthetic_4x3", &src, config);
        assert!(tests.is_empty(), "jobs={jobs}: killed run still delivered tests");
        let info = summary.resume.as_ref().expect("resume info");
        assert_eq!(info.interrupted.as_deref(), Some("kill-fault"), "jobs={jobs}");

        let saved = ExplorationState::load(&path)
            .unwrap_or_else(|e| panic!("jobs={jobs}: final checkpoint unreadable: {e}"));
        assert!(!saved.is_complete(), "jobs={jobs}: kill left nothing to resume");
        assert!(
            saved.frontier.contains(&kill),
            "jobs={jobs}: the killed trail itself must stay in the frontier"
        );

        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = jobs;
        config.resume = Some(saved);
        let (resumed, summary) = run_with_config("synthetic_4x3", &src, config);
        let info = summary.resume.as_ref().expect("resume info");
        assert!(info.resumed, "jobs={jobs}: checkpoint rejected: {:?}", info.rejected);
        assert_eq!(resumed, full, "jobs={jobs}: resumed suite differs from the full run");
        assert_eq!(
            summary.coverage.covered, full_sum.coverage.covered,
            "jobs={jobs}: resumed coverage differs"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resume_after_kill_respects_max_tests_cap() {
    let src = p4t_corpus::generate_synthetic(4, 3);
    let cap = 7u64;
    let capped_full = {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = 4;
        config.max_tests = cap;
        run_with_config("synthetic_4x3", &src, config).0
    };
    assert_eq!(capped_full.len() as u64, cap);
    let (_, base_sum) = run_with_jobs("synthetic_4x3", &src, 1);
    let kill = queue_time_prefix(&base_sum.test_trails[2]);

    let path = scratch_file("kill_capped");
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.max_tests = cap;
    config.checkpoint = Some(CheckpointCfg::new(&path));
    config.fault_plan.kill_at_trail(kill);
    let _ = run_with_config("synthetic_4x3", &src, config);
    let saved = ExplorationState::load(&path).expect("checkpoint");

    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 4;
    config.max_tests = cap;
    config.resume = Some(saved);
    let (resumed, _) = run_with_config("synthetic_4x3", &src, config);
    assert_eq!(resumed, capped_full, "capped resumed suite differs from the capped run");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn config_mismatch_degrades_to_cold_start() {
    let src = p4t_corpus::generate_synthetic(3, 2);
    let path = scratch_file("mismatch");
    {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.checkpoint = Some(CheckpointCfg::new(&path));
        let _ = run_with_config("synthetic_3x2", &src, config);
    }
    let saved = ExplorationState::load(&path).expect("checkpoint written");
    // Different seed => different fingerprint: the checkpoint describes a
    // different suite and must be refused — but as a cold start, not a
    // failure.
    let baseline = {
        let mut config = TestgenConfig::default();
        config.seed = 8;
        run_with_config("synthetic_3x2", &src, config).0
    };
    let mut config = TestgenConfig::default();
    config.seed = 8;
    config.resume = Some(saved);
    let (tests, summary) = run_with_config("synthetic_3x2", &src, config);
    let info = summary.resume.as_ref().expect("resume info");
    assert!(!info.resumed, "mismatched checkpoint was accepted");
    assert_eq!(info.rejected.as_deref(), Some("config-mismatch"));
    assert_eq!(tests, baseline, "cold-start fallback diverged from a plain run");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_checkpoints_classify_and_never_panic() {
    let src = p4t_corpus::generate_synthetic(3, 2);
    let path = scratch_file("corrupt");
    {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.checkpoint = Some(CheckpointCfg::new(&path));
        let _ = run_with_config("synthetic_3x2", &src, config);
    }
    let good = std::fs::read(&path).expect("checkpoint bytes");

    // Not a checkpoint at all.
    assert_eq!(
        ExplorationState::from_bytes(b"definitely not a checkpoint").unwrap_err().kind(),
        "not-a-checkpoint"
    );
    // Truncated mid-record (a non-atomic copy interrupted partway).
    let err = ExplorationState::from_bytes(&good[..good.len() - 7]).unwrap_err();
    assert!(
        matches!(err.kind(), "truncated" | "checksum"),
        "truncation classified as {}",
        err.kind()
    );
    // A flipped payload byte fails its record checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    let err = ExplorationState::from_bytes(&flipped).unwrap_err();
    assert!(
        matches!(err.kind(), "checksum" | "truncated" | "malformed"),
        "bit flip classified as {}",
        err.kind()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deadline_without_checkpoint_reports_no_resume_state() {
    use std::time::Duration;
    let src = p4t_corpus::generate_synthetic(3, 2);
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.deadline = Some(Duration::ZERO);
    let (_, summary) = run_with_config("synthetic_3x2", &src, config);
    assert!(
        summary.resume.is_none(),
        "plain deadline run must not fabricate resume state"
    );
    let json = summary.to_json();
    assert!(
        json.get("resume").is_some_and(serde_json::Value::is_null),
        "summary JSON must report resume: null, got: {json:?}"
    );
    // Legacy deadline accounting is unchanged.
    assert!(summary.errors.deadline_expired);
}

#[test]
fn engine_checkpoint_round_trips_through_bytes() {
    // The engine's own final snapshot (not a hand-built state) must decode
    // to exactly what was written.
    let src = p4t_corpus::generate_synthetic(3, 2);
    let path = scratch_file("roundtrip");
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.checkpoint = Some(CheckpointCfg::new(&path));
    let (tests, summary) = run_with_config("synthetic_3x2", &src, config);
    let saved = ExplorationState::load(&path).expect("checkpoint");
    assert!(saved.is_complete());
    assert_eq!(saved.emitted.len(), tests.len());
    assert_eq!(saved.paths_explored, summary.paths_explored);
    let reparsed = ExplorationState::from_bytes(&saved.to_bytes()).expect("re-decode");
    assert_eq!(reparsed, saved);
    assert!(summary.resume.as_ref().is_some_and(|i| i.checkpoints_written >= 1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn feasibility_memo_reports_hits() {
    // Chained identical tables reconverge on identical constraint sets, so
    // the memo must absorb some of the fork-feasibility solver calls.
    let src = p4t_corpus::generate_synthetic(3, 2);
    let (_, summary) = run_with_jobs("synthetic_3x2", &src, 2);
    assert!(
        summary.memo_hits > 0,
        "expected feasibility-memo hits on a reconverging program, got 0 \
         (solver checks: {})",
        summary.solver_checks
    );
}

/// The whole introspection stack — flight recorder, live status, trace,
/// metrics, provenance, abandonment explanation — enabled at once. None of
/// it may perturb the suite, and the collected provenance / abandonment /
/// coverage data must itself be schedule-independent.
#[test]
fn full_observability_stack_is_zero_cost_and_deterministic_at_jobs_1_4_8() {
    use p4t_obs::{FlightRecorder, LiveStatus, Registry};
    use std::sync::Arc;

    let src = p4t_corpus::generate_synthetic(3, 3);
    let (plain, _) = run_with_jobs("synthetic_3x3", &src, 1);
    assert!(!plain.is_empty());

    let observed = |jobs: usize| {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = jobs;
        config.obs.trace = true;
        config.obs.metrics = Some(Arc::new(Registry::new()));
        config.obs.flight = Some(Arc::new(FlightRecorder::new(jobs, 64)));
        config.obs.live = Some(Arc::new(LiveStatus::new()));
        run_with_config("synthetic_3x3", &src, config)
    };
    let mut reference_prov = None;
    for jobs in [1, 4, 8] {
        let (tests, summary) = observed(jobs);
        assert_eq!(
            suite_seq(&plain),
            suite_seq(&tests),
            "jobs={jobs}: observability perturbed the suite"
        );
        let prov = summary.provenance.expect("provenance collected");
        assert_eq!(prov.len(), tests.len(), "jobs={jobs}: one record per test");
        for (i, p) in prov.iter().enumerate() {
            assert_eq!(p.id, i as u64, "jobs={jobs}: provenance ids follow suite order");
            assert!(p.constraints.is_some() && p.solver_checks.is_some());
        }
        // cumulative_covered of the last record is the run's coverage.
        assert_eq!(
            prov.last().map(|p| p.cumulative_covered),
            Some(summary.coverage.covered as u64),
            "jobs={jobs}"
        );
        match &reference_prov {
            None => reference_prov = Some(prov),
            Some(r) => assert_eq!(r, &prov, "jobs={jobs}: provenance differs"),
        }
    }
}

/// The coverage report (counts, and the identity+order of missed
/// statements) and the abandonment sites are stable across worker counts —
/// satellite of the `--coverage-report` work: the rendered file is a pure
/// function of them. An infeasible branch gives a deterministic uncovered
/// statement; a trail-keyed Unknown fault gives deterministic abandonment.
#[test]
fn coverage_report_is_stable_at_jobs_1_4_8() {
    let src = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    action fwd(bit<9> p) { sm.egress_spec = p; }
    action nop() { }
    table t {
        key = { hdr.eth.etherType: exact; }
        actions = { fwd; nop; }
        default_action = nop();
    }
    apply {
        if (hdr.eth.etherType == 16w1) {
            if (hdr.eth.etherType == 16w2) { meta.x = 8w1; }
        }
        t.apply();
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;
    let (base, base_sum) = run_with_jobs("infeasible_branch", src, 1);
    assert!(!base.is_empty());
    let poison = base_sum.test_trails[0].clone();
    let fingerprint = |jobs: usize| {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = jobs;
        config.obs.trace = true;
        config.fault_plan.seed = 99;
        config.fault_plan.force_unknown_at(poison.clone());
        let (_, summary) = run_with_config("infeasible_branch", src, config);
        let missed: Vec<(u32, String, u32, u32)> = summary
            .coverage
            .missed
            .iter()
            .map(|m| (m.id.0, m.block.clone(), m.line, m.col))
            .collect();
        (summary.coverage.covered, summary.coverage.total, missed, summary.abandon_sites)
    };
    let f1 = fingerprint(1);
    assert!(f1.0 < f1.1, "the infeasible branch must stay uncovered: {f1:?}");
    assert!(!f1.3.is_empty(), "the poisoned trail must leave an abandonment site");
    assert!(f1.3.iter().all(|s| s.near_stmt.is_some()), "{:?}", f1.3);
    assert_eq!(f1, fingerprint(4), "report differs between jobs=1 and jobs=4");
    assert_eq!(f1, fingerprint(8), "report differs between jobs=1 and jobs=8");
}

/// The fault plan the per-path view tests share: Unknown verdicts (one
/// trail-keyed, the rest sampled) and one panic, keyed by a clean run's
/// test trails, so abandoned, panicked and emitted records all occur.
fn views_fault_plan(trails: &[Vec<u32>]) -> p4testgen_core::FaultPlan {
    let mut plan = p4testgen_core::FaultPlan::new(99);
    plan.unknown_permille = 100;
    plan.force_unknown_at(trails[0].clone());
    plan.force_panic_at(trails[trails.len() / 2].clone());
    plan
}

/// Every per-path view is derived from one per-path record, so the views
/// agree with the trace on every trail, and the one `trace` switch fills
/// all three of them.
#[test]
fn per_path_views_agree_with_the_trace() {
    use p4t_obs::trace::PathOutcome;
    use std::collections::{BTreeMap, BTreeSet};
    let src = p4t_corpus::generate_synthetic(3, 3);
    let (_, base_sum) = run_with_jobs("synthetic_3x3", &src, 1);
    let plan = views_fault_plan(&base_sum.test_trails);
    let observed = |trace: bool| {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.jobs = 4;
        config.fault_plan = plan.clone();
        config.obs.trace = trace;
        run_with_config("synthetic_3x3", &src, config).1
    };
    let all = observed(true);
    let trace = all.trace.as_ref().expect("trace collected");

    // Abandonment sites are exactly the abandoned and panicked records.
    let from_trace: BTreeSet<(Vec<u32>, String)> = trace
        .paths
        .iter()
        .filter_map(|r| match r.outcome {
            PathOutcome::Abandoned(reason) => Some((r.trail.clone(), reason.to_string())),
            PathOutcome::Panicked => Some((r.trail.clone(), "panic".to_string())),
            PathOutcome::Emitted | PathOutcome::Infeasible => None,
        })
        .collect();
    let sites: BTreeSet<(Vec<u32>, String)> =
        all.abandon_sites.iter().map(|s| (s.trail.clone(), s.reason.clone())).collect();
    assert_eq!(sites.len(), all.abandon_sites.len(), "one site per abandoned path");
    assert!(sites.iter().any(|(_, r)| r == "panic"), "{sites:?}");
    assert!(sites.iter().any(|(_, r)| r == "solver-unknown"), "{sites:?}");
    assert_eq!(sites, from_trace);

    // Provenance checks are the trace's checks for the same trail.
    let checks: BTreeMap<&[u32], u64> =
        trace.paths.iter().map(|r| (r.trail.as_slice(), r.checks)).collect();
    let prov = all.provenance.as_ref().expect("provenance collected");
    assert_eq!(prov.len() as u64, all.tests);
    for p in prov {
        assert_eq!(p.solver_checks, checks.get(p.trail.as_slice()).copied(), "trail {:?}", p.trail);
    }

    // With the switch off, none of the three views is collected.
    let off = observed(false);
    assert!(off.trace.is_none() && off.provenance.is_none() && off.abandon_sites.is_empty());
}

/// Every worker event reaches the trace and the flight recorder alike, and
/// every per-path record gets one flight `path-end` span — pruned forks and
/// panics included. The program needs SAT search, so a one-conflict budget
/// forces budget retries; the views' fault plan adds Unknowns and a panic.
#[test]
fn worker_events_reach_trace_and_flight_alike() {
    use p4t_obs::{FlightRecorder, RUN_WORKER};
    use p4t_targets::Tofino;
    use std::sync::Arc;
    let (name, src) = p4t_corpus::all_programs()
        .into_iter()
        .find_map(|(name, src, _)| (name == "switch_sim").then_some((name, src)))
        .expect("switch_sim is a corpus program");
    let run = |config: TestgenConfig| {
        let mut tg = Testgen::new(name, &src, Tofino::tna(), config)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        tg.try_run(|_| true).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = 1;
    config.solver_budget = 0;
    let base = run(config);

    let jobs = 4;
    let flight = Arc::new(FlightRecorder::new(jobs, 1 << 16));
    let mut config = TestgenConfig::default();
    config.seed = 7;
    config.jobs = jobs;
    config.solver_budget = 1;
    config.fault_plan = views_fault_plan(&base.test_trails);
    config.obs.trace = true;
    config.obs.flight = Some(Arc::clone(&flight));
    let summary = run(config);
    let trace = summary.trace.expect("trace collected");

    let spans: Vec<_> = flight.drain().into_iter().filter(|e| e.worker != RUN_WORKER).collect();
    let (path_ends, flight_events): (Vec<_>, Vec<_>) =
        spans.into_iter().partition(|e| e.kind == "path-end");
    let key = |e: &p4t_obs::SpanEvent| (e.worker, e.kind, e.detail.clone());
    let mut from_flight: Vec<_> = flight_events.iter().map(key).collect();
    let mut from_trace: Vec<_> = trace.engine.iter().map(key).collect();
    from_flight.sort();
    from_trace.sort();
    assert_eq!(from_flight, from_trace, "flight and trace saw different worker events");
    for kind in ["worker-start", "worker-stop", "solver-check", "budget-retry", "panic"] {
        assert!(from_trace.iter().any(|(_, k, _)| *k == kind), "no {kind} event");
    }

    let mut flight_trails: Vec<Vec<u32>> =
        path_ends.into_iter().map(|e| e.trail.expect("path-end carries its trail")).collect();
    flight_trails.sort();
    let trace_trails: Vec<Vec<u32>> = trace.paths.iter().map(|r| r.trail.clone()).collect();
    assert_eq!(flight_trails, trace_trails, "one flight path-end per path record");
}
