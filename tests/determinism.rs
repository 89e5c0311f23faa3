//! Determinism of exploration: for a fixed seed, every way of running a
//! program must emit the same test suite. Path identity is the fork trail
//! (schedule-independent), per-path randomness is seeded from the trail,
//! and emission is trail-sorted — so worker count, sharding,
//! checkpoint and resume, observability and the serve daemon must agree
//! with one plain run, not just as sets but in order. `check_matrix` checks
//! all of them as the columns of one table.

mod common;

use common::{spawn_serve, Client, Daemon, ScratchDir};
use p4t_backends::{StfBackend, TestBackend};
use p4t_obs::{FlightRecorder, LiveStatus, Registry};
use p4t_targets::V1Model;
use p4testgen_core::{
    merge_shard_suites, panic_payload_text, reason, CheckpointCfg, ErrorStats, ExplorationState,
    FaultPlan, RunSummary, TestProvenance, TestSpec, Testgen, TestgenConfig,
};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;

/// [`TestgenConfig::set`] key/value pairs.
type Pairs = &'static [(&'static str, &'static str)];

/// Every run in this file uses this seed; serve cells send it as a pair.
const SEED: (&str, &str) = ("seed", "7");

/// A config at [`SEED`] with `pairs` applied through [`TestgenConfig::set`].
fn config<'a>(pairs: impl IntoIterator<Item = &'a (&'a str, &'a str)>) -> TestgenConfig {
    let mut config = TestgenConfig::default();
    for (k, v) in std::iter::once(&SEED).chain(pairs) {
        config.set(k, v).unwrap_or_else(|e| panic!("{e}"));
    }
    config
}

/// The one runner: compile `src` for v1model and run it under `config`,
/// returning the suite in emission order and the run's summary.
fn run(name: &str, src: &str, config: TestgenConfig) -> (Vec<TestSpec>, RunSummary) {
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

/// Canonical, order-insensitive fingerprint of a suite.
fn suite_set(tests: &[TestSpec]) -> Vec<String> {
    let mut v = suite_seq(tests);
    v.sort();
    v
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

/// A checkpoint path in a scratch directory of its own, removed when the
/// returned directory drops.
fn scratch_file(tag: &str) -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new("ckpt");
    let path = dir.join(format!("{tag}.ckpt"));
    (dir, path)
}

/// Truncate a completed-path trail to its queue-time form: everything up to
/// and including the last nonzero element (the last point at which the path
/// sat in a worker deque and could be popped — where kill faults fire).
fn queue_time_prefix(trail: &[u32]) -> Vec<u32> {
    let cut = trail.iter().rposition(|&e| e != 0).map_or(0, |i| i + 1);
    trail[..cut].to_vec()
}

/// How a column runs its cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Runner {
    /// One run.
    Plain,
    /// One run that writes a checkpoint, feasibility memo included, and is
    /// not interrupted.
    Checkpoint,
    /// One run with the trace, metrics, flight recorder and live status on.
    Obs,
    /// Shards i/N for N = 2 and N = 3, each set merged by
    /// `merge_shard_suites`.
    Shard,
    /// Two interrupted runs that write a checkpoint, each then resumed: one
    /// killed at the queue-time prefix of the reference's middle trail, one
    /// under a deadline that has expired at the start.
    Resume,
    /// The row's and column's pairs sent verbatim as a request's `config`
    /// to a `p4testgen serve` daemon. Only on unfaulted rows.
    Serve,
}
use Runner::*;

/// A matrix column: a runner and the [`TestgenConfig::set`] pairs it
/// applies on top of the row's settings.
#[derive(Clone, Copy)]
struct Col {
    runner: Runner,
    set: Pairs,
}

const fn col(runner: Runner, set: Pairs) -> Col {
    Col { runner, set }
}

const fn plain(set: Pairs) -> Col {
    col(Plain, set)
}

impl Col {
    fn label(&self) -> String {
        let pairs = pairs_label(self.set);
        match self.runner {
            Plain => pairs,
            runner => format!("{runner:?} {pairs}").to_lowercase().trim_end().to_string(),
        }
    }
}

fn pairs_label(pairs: Pairs) -> String {
    pairs.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Worker counts. Every emitted byte comes from a model-bearing check of
/// the path's own constraint list, so every cell must emit the reference
/// suite byte for byte, in trail order.
const JOBS_1_4_8: &[Col] =
    &[plain(&[("jobs", "1")]), plain(&[("jobs", "4")]), plain(&[("jobs", "8")])];

/// Full exploration visits the same path set under any strategy, also with
/// a parallel pool (the strategy only orders each worker's local deque), so
/// strategy cells must emit the reference *set*; the order may differ.
const STRATEGY_COLS: &[Col] = &[
    plain(&[("jobs", "1")]),
    plain(&[("jobs", "4"), ("strategy", "bfs")]),
    plain(&[("jobs", "4"), ("strategy", "random")]),
    plain(&[("jobs", "4"), ("strategy", "coverage")]),
];

/// The `max_tests` caps the capped fork-heavy rows run at.
const CAPS: &[Pairs] = &[&[("max_tests", "1")], &[("max_tests", "7")], &[("max_tests", "25")]];

/// A fault plan for a row, keyed by indices into the test trails of the
/// row's unfaulted reference run: trail-keyed Unknown verdicts and at most
/// one panic. Each poisons one emitted leaf, so the faulted suite is the
/// unfaulted one minus exactly those tests.
#[derive(Clone, Copy)]
struct Fault {
    unknown_at: &'static [usize],
    panic_at: Option<usize>,
}

impl Fault {
    fn plan(&self, trails: &[Vec<u32>]) -> FaultPlan {
        let mut plan = FaultPlan::new(99);
        for &i in self.unknown_at {
            plan.force_unknown_at(trails[i].clone());
        }
        if let Some(i) = self.panic_at {
            plan.force_panic_at(trails[i].clone());
        }
        plan
    }
}

/// A matrix row: one program, the settings all its cells share, the fewest
/// tests its reference cell (the first column, a plain one) must emit, and
/// the fault plan every cell runs under.
struct Row {
    name: String,
    src: String,
    base: Pairs,
    min_tests: usize,
    fault: Option<Fault>,
    cols: Vec<Col>,
}

/// Every v1model corpus program, one row each.
fn corpus_rows(cols: &[Col]) -> Vec<Row> {
    p4t_corpus::all_programs()
        .into_iter()
        .filter(|(_, _, target)| *target == "v1model")
        .map(|(name, src, _)| Row {
            name: name.to_string(),
            src,
            base: &[],
            min_tests: 1,
            fault: None,
            cols: cols.to_vec(),
        })
        .collect()
}

/// The synthetic program with `tables` chained tables of `actions` actions.
fn synthetic_row(tables: u32, actions: u32, cols: &[Col]) -> Row {
    let src = p4t_corpus::generate_synthetic(tables, actions);
    let name = format!("synthetic_{tables}x{actions}");
    Row { name, src, base: &[], min_tests: 1, fault: None, cols: cols.to_vec() }
}

/// The fork-heavy synthetic program, one row per base setting. ~4^4
/// feasible paths: enough branching that all 8 workers stay busy and the
/// work-stealing paths actually execute.
fn fork_heavy_rows(bases: &[Pairs], cols: &[Col]) -> Vec<Row> {
    let min_tests = |base: Pairs| if base.is_empty() { 51 } else { 1 };
    let row = |base| Row { base, min_tests: min_tests(base), ..synthetic_row(4, 3, cols) };
    bases.iter().map(|&base| row(base)).collect()
}

/// The uncapped fork-heavy row under `fault`.
fn faulted_row(fault: Fault, cols: &[Col]) -> Row {
    Row { min_tests: 51, fault: Some(fault), ..synthetic_row(4, 3, cols) }
}

/// Run `f`, turning any panic into one that names the cell.
fn guarded<T>(ctx: &str, f: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|p| panic!("{ctx}: run panicked: {}", panic_payload_text(p.as_ref())))
}

/// What a cell produced: one entry per suite it compares (two for shard
/// and resume cells), each with a tag for the panic message, the suite in
/// emission order, and the summary when the suite comes from one run.
type Outcomes = Vec<(String, Vec<TestSpec>, Option<RunSummary>)>;

/// The feasibility checks a run made, whether the solver or the memo
/// answered them.
fn logical_checks(sum: &RunSummary) -> u64 {
    sum.solver_checks + sum.memo_hits
}

/// Run one cell of `row` other than its reference and its serve cells.
fn run_cell(row: &Row, col: Col, plan: Option<&FaultPlan>, ref_sum: &RunSummary) -> Outcomes {
    let cfg = || {
        let mut config = config(row.base.iter().chain(col.set));
        if let Some(plan) = plan {
            config.fault_plan = plan.clone();
        }
        config
    };
    let one = |config| {
        let (tests, sum) = run(&row.name, &row.src, config);
        vec![(String::new(), tests, Some(sum))]
    };
    match col.runner {
        Plain => one(cfg()),
        Checkpoint => {
            let (_scratch, path) = scratch_file("checkpoint");
            let mut config = cfg();
            config.checkpoint = Some(CheckpointCfg::new(&path));
            let outcome = one(config);
            let info = outcome[0].2.as_ref().and_then(|s| s.resume.clone()).expect("resume info");
            assert!(
                info.interrupted.is_none() && info.checkpoints_written >= 1,
                "checkpointing run was interrupted or wrote nothing: {info:?}"
            );
            outcome
        }
        Obs => {
            let mut config = cfg();
            config.obs.trace = true;
            config.obs.metrics = Some(Arc::new(Registry::new()));
            config.obs.flight = Some(Arc::new(FlightRecorder::new(config.jobs, 64)));
            config.obs.live = Some(Arc::new(LiveStatus::new()));
            one(config)
        }
        Shard => {
            let cap = cfg().max_tests;
            [2u32, 3]
            .into_iter()
            .map(|count| {
                let (mut owned, mut checks) = (0, 0);
                let suites = (0..count)
                    .map(|index| {
                        let mut config = cfg();
                        config.set("shard", &format!("{index}/{count}")).expect("shard spec");
                        let (tests, sum) = run(&row.name, &row.src, config);
                        assert!(
                            sum.out_of_shard_paths > 0,
                            "shard {index}/{count}: pruned nothing on a fork-heavy program"
                        );
                        owned += tests.len();
                        checks += logical_checks(&sum);
                        // A shard checks a subset of the whole run's forks.
                        if cap == 0 && plan.is_none() {
                            assert!(
                                logical_checks(&sum) <= logical_checks(ref_sum),
                                "shard {index}/{count}: more logical checks than the whole run"
                            );
                        }
                        sum.test_trails.into_iter().zip(tests).collect()
                    })
                    .collect();
                let merged = merge_shard_suites(suites, cap);
                if cap == 0 {
                    assert_eq!(owned, merged.len(), "N={count}: shards did not partition");
                }
                // Together the shards check every fork of the whole run, and
                // each re-checks the forks above the split.
                if cap == 0 && plan.is_none() {
                    assert!(
                        checks >= logical_checks(ref_sum),
                        "N={count}: shards made {checks} logical checks, the whole run {}",
                        logical_checks(ref_sum)
                    );
                }
                (format!(" N={count}"), merged, None)
            })
            .collect()
        }
        Resume => {
            let trails = &ref_sum.test_trails;
            let kill = queue_time_prefix(&trails[trails.len() / 2]);
            assert!(!kill.is_empty(), "picked the root; choose a deeper trail");
            ["kill-fault", "deadline"]
                .into_iter()
                .map(|cut| {
                    let (_scratch, path) = scratch_file(cut);
                    let mut config = cfg();
                    config.checkpoint = Some(CheckpointCfg::new(&path));
                    if cut == "deadline" {
                        config.set("deadline_ms", "0").expect("deadline");
                    } else {
                        config.fault_plan.kill_at_trail(kill.clone());
                    }
                    let (tests, sum) = run(&row.name, &row.src, config);
                    assert!(tests.is_empty(), "{cut}: interrupted run delivered tests");
                    let info = sum.resume.as_ref().expect("checkpointing run reports resume info");
                    assert_eq!(info.interrupted.as_deref(), Some(cut));
                    assert!(info.frontier_remaining >= 1, "{cut}: drain did not keep the frontier");
                    assert_eq!(info.flush_error, None, "{cut}: flush failed");
                    let saved = ExplorationState::load(&path)
                        .unwrap_or_else(|e| panic!("{cut}: final checkpoint unreadable: {e}"));
                    assert!(!saved.is_complete(), "{cut}: interruption left nothing to resume");
                    if cut == "kill-fault" {
                        assert!(
                            saved.frontier.contains(&kill),
                            "the killed trail itself must stay in the frontier"
                        );
                    }

                    // The deadline and the kill are not part of the config
                    // fingerprint, so the resumed run accepts the checkpoint.
                    // The kill is resumed as `--resume` alone, with no
                    // checkpoint to flush; the deadline keeps checkpointing.
                    let mut config = cfg();
                    config.resume = Some(saved);
                    let checkpointed = cut == "deadline";
                    if checkpointed {
                        config.checkpoint = Some(CheckpointCfg::new(&path));
                    }
                    let (tests, sum) = run(&row.name, &row.src, config);
                    let info = sum.resume.as_ref().expect("resume info");
                    assert!(info.resumed, "{cut}: checkpoint rejected: {:?}", info.rejected);
                    assert!(info.interrupted.is_none(), "{cut}: resumed run still interrupted");
                    if checkpointed {
                        assert!(
                            ExplorationState::load(&path).expect("checkpoint").is_complete(),
                            "{cut}: completed run left a non-empty frontier in its checkpoint"
                        );
                    }
                    (format!(" {cut}"), tests, Some(sum))
                })
                .collect()
        }
        Serve => unreachable!("serve cells go through check_served"),
    }
}

/// Send `row`'s program and pairs with `col`'s as one serve request and
/// compare the served STF and the response's `summary` counters with the
/// reference run.
fn check_served(
    ctx: &str,
    daemon: &Daemon,
    row: &Row,
    col: Col,
    reference: &[TestSpec],
    ref_sum: &RunSummary,
) {
    let text = |s: &str| Value::String(s.to_string());
    let pairs = std::iter::once(&SEED).chain(row.base).chain(col.set);
    let request = Value::Object(vec![
        ("name".to_string(), text(&row.name)),
        ("target".to_string(), text("v1model")),
        ("backend".to_string(), text("stf")),
        ("source".to_string(), text(&row.src)),
        ("config".to_string(), Value::Object(pairs.map(|&(k, v)| (k.into(), text(v))).collect())),
    ]);
    let resp = guarded(ctx, || {
        let mut client = Client::connect(&daemon.addr);
        client.send(&request);
        client.recv()
    });
    let field = |v: &Value, key: &str| {
        v.get(key).cloned().unwrap_or_else(|| panic!("{ctx}: response has no '{key}': {resp:?}"))
    };
    assert_eq!(field(&resp, "status").as_str(), Some("ok"), "{ctx}: {resp:?}");
    assert_eq!(
        field(&resp, "suite").as_str(),
        Some(StfBackend.emit_suite(reference).as_str()),
        "{ctx}: served suite differs"
    );
    assert_eq!(field(&resp, "tests").as_u64(), Some(ref_sum.tests), "{ctx}: test counts differ");
    let summary = field(&resp, "summary");
    let count = |key: &str| {
        field(&summary, key).as_u64().unwrap_or_else(|| panic!("{ctx}: summary.{key}: {resp:?}"))
    };
    assert_eq!(
        field(&summary, "coverage_percent").as_f64(),
        Some(ref_sum.coverage.percent),
        "{ctx}: coverage differs"
    );
    if !row.base.iter().chain(col.set).any(|(k, _)| *k == "max_tests") {
        assert_eq!(count("paths_explored"), ref_sum.paths_explored, "{ctx}: paths differ");
        assert_eq!(count("infeasible_paths"), ref_sum.infeasible_paths, "{ctx}: infeasible paths");
        assert_eq!(count("abandoned_paths"), ref_sum.abandoned_paths, "{ctx}: abandoned paths");
        assert_eq!(
            count("solver_checks") + count("memo_hits"),
            logical_checks(ref_sum),
            "{ctx}: logical feasibility checks (solver_checks + memo_hits) differ"
        );
    }
}

/// Run `row`'s reference cell: its first column, under the row's fault
/// plan if it has one (built from the unfaulted run's trails and checked
/// against it). Returns the suite, the summary and the plan.
fn reference_cell(row: &Row, ctx: &str) -> (Vec<TestSpec>, RunSummary, Option<FaultPlan>) {
    let ref_config = || config(row.base.iter().chain(row.cols[0].set));
    let (reference, ref_sum) = guarded(ctx, || run(&row.name, &row.src, ref_config()));
    assert_eq!(ref_sum.test_trails.len(), reference.len(), "{ctx}: trails parallel the suite");
    let Some(fault) = row.fault else { return (reference, ref_sum, None) };
    assert!(ref_sum.errors.is_clean(), "{ctx}: unfaulted run degraded");
    let expected: Vec<String> = (suite_seq(&reference).into_iter().enumerate())
        .filter(|(i, _)| !fault.unknown_at.contains(i) && fault.panic_at != Some(*i))
        .map(|(_, spec)| spec)
        .collect();
    let panic_trails: Vec<Vec<u32>> =
        fault.panic_at.iter().map(|&i| ref_sum.test_trails[i].clone()).collect();
    let plan = fault.plan(&ref_sum.test_trails);
    let mut config = ref_config();
    config.fault_plan = plan.clone();
    let (faulted, sum) = guarded(ctx, || run(&row.name, &row.src, config));

    // The run lost exactly the poisoned paths, and said why.
    assert_eq!(suite_seq(&faulted), expected, "{ctx}: suite != unfaulted suite minus poisoned");
    let e = &sum.errors;
    let (unknowns, panics) = (fault.unknown_at.len() as u64, panic_trails.len() as u64);
    assert_eq!(
        (e.unknown_queries, e.budget_retries, e.panicked_paths),
        (unknowns, unknowns, panics),
        "{ctx}: unknown_queries, budget_retries, panicked_paths"
    );
    assert!(!e.deadline_expired, "{ctx}: no deadline configured");
    let abandoned = |reason| e.abandoned_by_reason.get(reason).copied().unwrap_or(0);
    assert_eq!(
        (abandoned(reason::SOLVER_UNKNOWN), abandoned(reason::PANIC)),
        (unknowns, panics),
        "{ctx}: abandon counts by reason"
    );
    let recorded: Vec<Vec<u32>> = e.panics.iter().map(|p| p.trail.clone()).collect();
    assert_eq!(recorded, panic_trails, "{ctx}: panics recorded at their trails");
    assert!(
        e.panics.iter().all(|p| p.payload.contains("injected fault")),
        "{ctx}: panic payload captured, got {:?}",
        e.panics
    );
    (faulted, sum, Some(plan))
}

/// Checks on an obs cell: one provenance record per test, in suite order;
/// a stripped trace of path records only, showing a faulted row's injected
/// outcomes; and both equal to the row's first obs cell's (`first`), the
/// trace only when uncapped.
fn check_observed(
    ctx: &str,
    row: &Row,
    tests: &[TestSpec],
    sum: &RunSummary,
    uncapped: bool,
    first: &mut Option<(Vec<TestProvenance>, String)>,
) {
    let prov = sum.provenance.clone().expect("provenance collected");
    assert_eq!(prov.len(), tests.len(), "{ctx}: one provenance record per test");
    for (n, p) in prov.iter().enumerate() {
        assert_eq!(p.id, n as u64, "{ctx}: provenance ids follow suite order");
        assert!(p.constraints.is_some() && p.solver_checks.is_some(), "{ctx}");
    }
    // cumulative_covered of the last record is the run's coverage.
    assert_eq!(
        prov.last().map(|p| p.cumulative_covered),
        Some(sum.coverage.covered as u64),
        "{ctx}: cumulative coverage"
    );
    let trace = sum.trace.as_ref().expect("trace collected").to_jsonl();
    let trace = p4t_obs::trace::strip_schedule_dependent(&trace);
    // Every surviving line is a path record keyed by its fork trail, with
    // the timing object gone.
    assert!(!trace.is_empty(), "{ctx}: tracing produced no path records");
    for line in trace.lines() {
        let v: Value = serde_json::from_str(line).expect("trace line parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some("path"), "{ctx}: {line}");
        assert!(v.get("trail").is_some(), "{ctx}: path record without a trail: {line}");
        assert!(v.get("t").is_none(), "{ctx}: timing survived stripping: {line}");
        assert!(v.get("outcome").is_some(), "{ctx}: path record without outcome: {line}");
    }
    if let Some(f) = row.fault {
        let unknowns_seen = f.unknown_at.is_empty() || trace.contains("\"abandoned\"");
        assert!(unknowns_seen, "{ctx}: injected Unknowns not visible in the trace");
        let panic_seen = f.panic_at.is_none() || trace.contains("\"panicked\"");
        assert!(panic_seen, "{ctx}: injected panic not visible in the trace");
    }
    match first {
        None => *first = Some((prov, trace)),
        Some((first_prov, first_trace)) => {
            assert_eq!(first_prov, &prov, "{ctx}: provenance differs");
            if uncapped {
                assert_eq!(first_trace, &trace, "{ctx}: stripped trace differs");
            }
        }
    }
}

/// The equivalence matrix: for a fixed seed, every column of a row must
/// reproduce the row's reference cell (its first column, a plain run).
/// Path identity is the fork trail, per-path randomness is seeded from it,
/// and emission is trail-sorted, so worker count, sharding,
/// checkpoint and resume, observability and serving may not change the
/// suite, its order, or (uncapped) the test and coverage counts. A
/// `max_tests = k` cap keeps the k lexicographically-smallest trails, so
/// capped suites must agree too. Cells that are one uncapped run must also
/// agree on the path, infeasible-path and error counts, and, on unfaulted
/// rows, on the number of logical feasibility checks: `solver_checks +
/// memo_hits`. At one worker the memo sees the same checks in the same
/// order in every one-run mode, so there the solver checks and memo hits
/// must each agree; with more workers, which of two reconverging paths
/// asks first is up to the schedule. Uncapped, unfaulted
/// shards each make at most that many and together at least that many,
/// since every shard re-checks the forks above the split. A faulted row's cells
/// all run under the plan its fault builds from the unfaulted reference's
/// trails. Every panic names the failing cell as `<row> × <column>`. The
/// tests below are the matrix's slices, one per row family and column set.
fn check_matrix(rows: &[Row]) {
    // One daemon serves every serve cell of the matrix.
    let daemon =
        rows.iter().any(|r| r.cols.iter().any(|c| c.runner == Serve)).then(|| spawn_serve(&[]));
    for row in rows {
        let row_label = format!("{} {}", row.name, pairs_label(row.base)).trim_end().to_string();
        let ref_col = row.cols[0];
        assert_eq!(ref_col.runner, Plain, "{row_label}: the reference column must be plain");
        let jobs_of = |col: Col| {
            let set = row.base.iter().chain(col.set).rev().find(|(k, _)| *k == "jobs");
            set.map_or(TestgenConfig::default().jobs, |(_, v)| v.parse().expect("jobs"))
        };
        let ref_ctx = format!("{row_label} × {}", ref_col.label());
        let (reference, ref_sum, plan) = reference_cell(row, &ref_ctx);
        assert!(
            reference.len() >= row.min_tests,
            "{ref_ctx}: {} tests, expected at least {}",
            reference.len(),
            row.min_tests
        );
        let mut first_obs = None;
        for (i, &col) in row.cols.iter().enumerate() {
            let ctx = format!("{row_label} × {}", col.label());
            // Expectations come from the cell's labels, not from the config
            // `set` built, so a key that `set` mis-maps fails here.
            let get = |key: &str| {
                row.base.iter().chain(col.set).rev().find(|(k, _)| *k == key).map(|&(_, v)| v)
            };
            if col.runner == Serve {
                assert!(plan.is_none(), "{ctx}: serve cells run only on unfaulted rows");
                let daemon = daemon.as_ref().expect("spawned for serve columns");
                check_served(&ctx, daemon, row, col, &reference, &ref_sum);
                continue;
            }
            let outcomes = if i == 0 {
                vec![(String::new(), reference.clone(), Some(ref_sum.clone()))]
            } else {
                guarded(&ctx, || run_cell(row, col, plan.as_ref(), &ref_sum))
            };
            for (tag, tests, sum) in outcomes {
                let ctx = format!("{ctx}{tag}");
                let ordered = get("strategy").is_none();
                let cap = get("max_tests");
                if get("jobs") == Some("8") {
                    let set = suite_set(&tests);
                    let mut dedup = set.clone();
                    dedup.dedup();
                    assert_eq!(set.len(), dedup.len(), "{ctx}: duplicate tests emitted");
                }
                assert_eq!(suite_set(&reference), suite_set(&tests), "{ctx}: test set differs");
                if ordered {
                    assert_eq!(reference, tests, "{ctx}: suite order or ids differ");
                }
                if let Some(cap) = cap {
                    assert_eq!(tests.len().to_string(), cap, "{ctx}: cap not honored");
                }
                let Some(sum) = sum else { continue };
                let one_run = matches!(col.runner, Plain | Checkpoint | Obs);
                if ordered && one_run {
                    assert_eq!(ref_sum.test_trails, sum.test_trails, "{ctx}: trails differ");
                }
                if cap.is_none() {
                    assert_eq!(ref_sum.tests, sum.tests, "{ctx}: test counts differ");
                    assert_eq!(
                        ref_sum.coverage.covered, sum.coverage.covered,
                        "{ctx}: coverage differs"
                    );
                }
                if cap.is_none() && one_run {
                    assert_eq!(ref_sum.errors, sum.errors, "{ctx}: error taxonomy differs");
                    if ordered {
                        let paths = |s: &RunSummary| (s.paths_explored, s.infeasible_paths);
                        assert_eq!(paths(&ref_sum), paths(&sum), "{ctx}: (infeasible) paths differ");
                    }
                    if plan.is_none() {
                        assert_eq!(
                            logical_checks(&ref_sum),
                            logical_checks(&sum),
                            "{ctx}: logical feasibility checks (solver_checks + memo_hits) differ"
                        );
                        if jobs_of(ref_col) == 1 && jobs_of(col) == 1 {
                            let split = |s: &RunSummary| (s.solver_checks, s.memo_hits);
                            assert_eq!(
                                split(&ref_sum),
                                split(&sum),
                                "{ctx}: (solver_checks, memo_hits) differ at one worker"
                            );
                        }
                    }
                }
                // The retired warm-core and clause-exchange keys stay in
                // the summary, always 0.
                let s = &sum.solver;
                assert_eq!(
                    (s.rebuilds, s.roots_reused, s.roots_blasted),
                    (0, 0, 0),
                    "{ctx}: retired warm-core counters moved"
                );
                assert_eq!(
                    (s.learnt_exported, s.learnt_imported, s.learnt_import_skipped),
                    (0, 0, 0),
                    "{ctx}: retired learnt_* counters moved"
                );
                if col.runner == Obs {
                    check_observed(&ctx, row, &tests, &sum, cap.is_none(), &mut first_obs);
                }
            }
        }
    }
}

#[test]
fn corpus_programs_same_suite_at_jobs_1_and_4() {
    check_matrix(&corpus_rows(&[plain(&[("jobs", "1")]), plain(&[("jobs", "4")])]));
}

/// Checkpointing persists the feasibility memo and serving shares one
/// across requests: neither may change a suite or the count of logical
/// feasibility checks, and a checkpointing run at one worker splits them
/// between solver and memo exactly as a plain run does. Every program is
/// served twice, so a daemon that carried engine state from one request to
/// the next would show it.
#[test]
fn checkpointed_and_served_runs_match_plain_runs() {
    const COLS: &[Col] = &[
        plain(&[("jobs", "1")]),
        col(Checkpoint, &[("jobs", "1")]),
        col(Checkpoint, &[("jobs", "4")]),
        col(Serve, &[("jobs", "1")]),
        col(Serve, &[("jobs", "4")]),
    ];
    let mut rows = corpus_rows(COLS);
    rows.extend(fork_heavy_rows(&[&[]], COLS));
    check_matrix(&rows);
}

#[test]
fn fork_heavy_stress_jobs_8_no_duplicates_and_coverage_matches() {
    check_matrix(&fork_heavy_rows(&[&[]], &[plain(&[("jobs", "1")]), plain(&[("jobs", "8")])]));
}

#[test]
fn fork_heavy_suites_identical_at_jobs_1_4_8() {
    check_matrix(&fork_heavy_rows(&[&[]], JOBS_1_4_8));
}

#[test]
fn max_tests_cap_is_deterministic_across_job_counts() {
    check_matrix(&fork_heavy_rows(CAPS, JOBS_1_4_8));
}

#[test]
fn strategies_explore_same_set_in_parallel() {
    check_matrix(&[synthetic_row(3, 2, STRATEGY_COLS)]);
}

/// Trail-keyed Unknown verdicts and a panic cost exactly the poisoned
/// paths, and the faulted suite and error taxonomy are the same at any
/// worker count.
#[test]
fn fault_plan_injections_are_exact_and_schedule_independent() {
    let fault = Fault { unknown_at: &[0, 2, 4, 6, 8], panic_at: Some(1) };
    check_matrix(&[faulted_row(fault, JOBS_1_4_8)]);
}

#[test]
fn shard_merge_reproduces_whole_run_suite() {
    let mut rows = fork_heavy_rows(
        &[&[]],
        &[
            plain(&[("jobs", "1")]),
            col(Shard, &[("jobs", "1")]),
            col(Shard, &[("jobs", "4")]),
            col(Shard, &[("jobs", "8")]),
        ],
    );
    rows.extend(fork_heavy_rows(
        &[&[("max_tests", "7")]],
        &[plain(&[("jobs", "4")]), col(Shard, &[("jobs", "4")])],
    ));
    check_matrix(&rows);
}

/// Trail-keyed faults land in whichever shard owns the trail; the merged
/// faulted suites must equal the whole faulted run.
#[test]
fn shard_merge_identical_under_fault_plans() {
    let fault = Fault { unknown_at: &[0, 3], panic_at: None };
    let cols = &[plain(&[("jobs", "4")]), col(Shard, &[("jobs", "4")])];
    check_matrix(&[faulted_row(fault, cols)]);
}

#[test]
fn resume_after_deadline_completes_byte_identical() {
    check_matrix(&fork_heavy_rows(
        &[&[]],
        &[plain(&[("jobs", "4")]), col(Resume, &[("jobs", "4")])],
    ));
}

/// Simulated power loss mid-run, at a deterministic trail, at several
/// worker counts; a resumed run (same config, kill removed) must finish the
/// exact single-run suite.
#[test]
fn resume_after_kill_fault_completes_byte_identical() {
    check_matrix(&fork_heavy_rows(
        &[&[]],
        &[plain(&[("jobs", "1")]), col(Resume, &[("jobs", "1")]), col(Resume, &[("jobs", "8")])],
    ));
}

#[test]
fn resume_after_kill_respects_max_tests_cap() {
    check_matrix(&fork_heavy_rows(
        &[&[("max_tests", "7")]],
        &[plain(&[("jobs", "4")]), col(Resume, &[("jobs", "4")])],
    ));
}

const OBS_AT_1_4_8: &[Col] = &[
    plain(&[("jobs", "1")]),
    col(Obs, &[("jobs", "1")]),
    col(Obs, &[("jobs", "4")]),
    col(Obs, &[("jobs", "8")]),
];

#[test]
fn trace_jsonl_is_schedule_independent_after_stripping_timing() {
    check_matrix(&fork_heavy_rows(&[&[]], OBS_AT_1_4_8));
}

/// Poisoned trails with Unknown verdicts and a panic: the stripped trace
/// must still be identical at any worker count, with the injected outcomes
/// visible in the path records.
#[test]
fn trace_stays_deterministic_under_fault_injection() {
    let fault = Fault { unknown_at: &[0, 2, 4], panic_at: Some(1) };
    check_matrix(&[faulted_row(fault, OBS_AT_1_4_8)]);
}

/// The whole introspection stack — flight recorder, live status, trace,
/// metrics, provenance, abandonment explanation — enabled at once. None of
/// it may perturb the suite, and the collected provenance and stripped
/// trace must themselves be schedule-independent.
#[test]
fn full_observability_stack_is_zero_cost_and_deterministic_at_jobs_1_4_8() {
    check_matrix(&[synthetic_row(3, 3, OBS_AT_1_4_8)]);
}

#[test]
fn deadline_expiry_drains_to_a_prefix_consistent_subset() {
    use std::time::Duration;
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (full, _) = run("synthetic_4x3", &src, config(&[("jobs", "4")]));
    let full_seq = suite_seq(&full);

    // An already-expired deadline: the run must still complete gracefully,
    // with an empty suite and the expiry reported.
    let mut cfg = config(&[("jobs", "4")]);
    cfg.deadline = Some(Duration::ZERO);
    let (tests, summary) = run("synthetic_4x3", &src, cfg);
    assert!(tests.is_empty(), "expired-at-start run emitted {} tests", tests.len());
    assert!(summary.errors.deadline_expired, "deadline expiry not reported");
    assert!(
        summary.errors.abandoned_by_reason.get(reason::DEADLINE).copied() >= Some(1),
        "drained states not attributed to the deadline"
    );

    // The fault plan can shrink the deadline too (overriding the config).
    let mut cfg = config(&[("jobs", "4")]);
    cfg.fault_plan.with_deadline(Duration::ZERO);
    let (tests, summary) = run("synthetic_4x3", &src, cfg);
    assert!(tests.is_empty(), "fault-plan deadline did not cut the run");
    assert!(summary.errors.deadline_expired);

    // A mid-run expiry (any outcome from empty to complete is legal): the
    // emitted suite must be a subsequence of the full deterministic suite —
    // same specs, same relative order, nothing new.
    let mut cfg = config(&[("jobs", "4")]);
    cfg.deadline = Some(Duration::from_millis(5));
    let (tests, summary) = run("synthetic_4x3", &src, cfg);
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
    let mut reference: Option<(u64, ErrorStats)> = None;
    for jobs in ["1", "4"] {
        let mut cfg = config(&[("jobs", jobs)]);
        cfg.fault_plan.seed = 5;
        cfg.fault_plan.unknown_permille = 1000;
        let (tests, summary) = run("synthetic_3x2", &src, cfg);
        assert!(tests.is_empty(), "jobs={jobs}: saturated Unknowns still emitted tests");
        assert!(summary.errors.unknown_queries > 0, "jobs={jobs}: no Unknowns counted");
        let fp = (summary.errors.unknown_queries, summary.errors.clone());
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(*r, fp, "jobs={jobs}: saturated-fault run not deterministic"),
        }
    }
}

#[test]
fn feasibility_run_reports_simplifier_and_blast_counters() {
    // Every unbudgeted feasibility check goes through the simplifier, and
    // an instance's blast cache serves shared subterms; the summary
    // counters are how the benchmark and operators see this.
    let src = p4t_corpus::generate_synthetic(4, 3);
    let (_, summary) = run("synthetic_4x3", &src, config(&[("jobs", "1"), ("solver_budget", "0")]));
    let s = &summary.solver;
    assert!(s.warm_checks > 0, "no simplified feasibility checks recorded");
    assert_eq!(s.fresh_fallbacks, 0, "an unbudgeted run fell back");
    assert!(s.blast_cache_hits > 0, "no blast-cache hits recorded");
}

#[test]
fn config_mismatch_degrades_to_cold_start() {
    let src = p4t_corpus::generate_synthetic(3, 2);
    let (_scratch, path) = scratch_file("mismatch");
    {
        let mut cfg = config(&[]);
        cfg.checkpoint = Some(CheckpointCfg::new(&path));
        let _ = run("synthetic_3x2", &src, cfg);
    }
    let saved = ExplorationState::load(&path).expect("checkpoint written");
    // Different seed => different fingerprint: the checkpoint describes a
    // different suite and must be refused — but as a cold start, not a
    // failure.
    let baseline = run("synthetic_3x2", &src, config(&[("seed", "8")])).0;
    let mut cfg = config(&[("seed", "8")]);
    cfg.resume = Some(saved);
    let (tests, summary) = run("synthetic_3x2", &src, cfg);
    let info = summary.resume.as_ref().expect("resume info");
    assert!(!info.resumed, "mismatched checkpoint was accepted");
    assert_eq!(info.rejected.as_deref(), Some("config-mismatch"));
    assert_eq!(tests, baseline, "cold-start fallback diverged from a plain run");
}

#[test]
fn corrupt_checkpoints_classify_and_never_panic() {
    let src = p4t_corpus::generate_synthetic(3, 2);
    let (_scratch, path) = scratch_file("corrupt");
    {
        let mut cfg = config(&[]);
        cfg.checkpoint = Some(CheckpointCfg::new(&path));
        let _ = run("synthetic_3x2", &src, cfg);
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
}

#[test]
fn deadline_without_checkpoint_reports_no_resume_state() {
    use std::time::Duration;
    let src = p4t_corpus::generate_synthetic(3, 2);
    let mut cfg = config(&[]);
    cfg.deadline = Some(Duration::ZERO);
    let (_, summary) = run("synthetic_3x2", &src, cfg);
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
    let (_scratch, path) = scratch_file("roundtrip");
    let mut cfg = config(&[]);
    cfg.checkpoint = Some(CheckpointCfg::new(&path));
    let (tests, summary) = run("synthetic_3x2", &src, cfg);
    let saved = ExplorationState::load(&path).expect("checkpoint");
    assert!(saved.is_complete());
    assert_eq!(saved.emitted.len(), tests.len());
    assert_eq!(saved.paths_explored, summary.paths_explored);
    let reparsed = ExplorationState::from_bytes(&saved.to_bytes()).expect("re-decode");
    assert_eq!(reparsed, saved);
    assert!(summary.resume.as_ref().is_some_and(|i| i.checkpoints_written >= 1));
}

/// A wrong memo verdict would delete coverage silently, so a debug build
/// re-solves every memo hit, and a refuted one must fail the whole run
/// rather than abandon one path. The plant: a run resumed from its own
/// frontier root with every verdict of the complete run flipped.
#[cfg(debug_assertions)]
#[test]
fn debug_builds_fail_the_run_on_a_wrong_memo_verdict() {
    let src = p4t_corpus::generate_synthetic(3, 2);
    let checkpoint = |tag: &str, pairs: Pairs| {
        let (_scratch, path) = scratch_file(tag);
        let mut cfg = config(pairs);
        cfg.checkpoint = Some(CheckpointCfg::new(&path));
        let _ = run("synthetic_3x2", &src, cfg);
        ExplorationState::load(&path).expect("checkpoint written")
    };
    let verdicts = checkpoint("audit-full", &[]).memo;
    assert!(!verdicts.is_empty(), "the complete run memoized nothing");
    let mut planted = checkpoint("audit-cut", &[("deadline_ms", "0")]);
    assert!(!planted.is_complete(), "the cut run left nothing to resume");
    planted.memo = verdicts.iter().map(|&(fp, sat)| (fp, !sat)).collect();
    // One worker runs on the calling thread, so the failure is a panic out
    // of `try_run`; more workers report it as a `RunError`.
    for jobs in ["1", "2"] {
        let mut cfg = config(&[("jobs", jobs)]);
        cfg.resume = Some(planted.clone());
        let mut tg = Testgen::new("synthetic_3x2", &src, V1Model::new(), cfg).expect("compiles");
        let failure = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tg.try_run(|_| true)
        })) {
            Ok(Ok(_)) => panic!("jobs {jobs}: a refuted memo verdict did not fail the run"),
            Ok(Err(e)) => e.to_string(),
            Err(p) => panic_payload_text(p.as_ref()),
        };
        assert!(failure.contains("memo audit failed"), "jobs {jobs}: {failure}");
    }
}

#[test]
fn feasibility_memo_reports_hits() {
    // Chained identical tables reconverge on identical constraint sets, so
    // the memo must absorb some of the fork-feasibility solver calls.
    let src = p4t_corpus::generate_synthetic(3, 2);
    let (_, summary) = run("synthetic_3x2", &src, config(&[("jobs", "2")]));
    assert!(
        summary.memo_hits > 0,
        "expected feasibility-memo hits on a reconverging program, got 0 \
         (solver checks: {})",
        summary.solver_checks
    );
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
    let (base, base_sum) = run("infeasible_branch", src, config(&[("jobs", "1")]));
    assert!(!base.is_empty());
    let poison = base_sum.test_trails[0].clone();
    let fingerprint = |jobs: &str| {
        let mut cfg = config(&[("jobs", jobs)]);
        cfg.obs.trace = true;
        cfg.fault_plan.seed = 99;
        cfg.fault_plan.force_unknown_at(poison.clone());
        let (_, summary) = run("infeasible_branch", src, cfg);
        let missed: Vec<(u32, String, u32, u32)> = summary
            .coverage
            .missed
            .iter()
            .map(|m| (m.id.0, m.block.clone(), m.line, m.col))
            .collect();
        (summary.coverage.covered, summary.coverage.total, missed, summary.abandon_sites)
    };
    let f1 = fingerprint("1");
    assert!(f1.0 < f1.1, "the infeasible branch must stay uncovered: {f1:?}");
    assert!(!f1.3.is_empty(), "the poisoned trail must leave an abandonment site");
    assert!(f1.3.iter().all(|s| s.near_stmt.is_some()), "{:?}", f1.3);
    assert_eq!(f1, fingerprint("4"), "report differs between jobs=1 and jobs=4");
    assert_eq!(f1, fingerprint("8"), "report differs between jobs=1 and jobs=8");
}

/// The fault plan the per-path view tests share: Unknown verdicts (one
/// trail-keyed, the rest sampled) and one panic, keyed by a clean run's
/// test trails, so abandoned, panicked and emitted records all occur.
fn views_fault_plan(trails: &[Vec<u32>]) -> FaultPlan {
    let mut plan = FaultPlan::new(99);
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
    let (_, base_sum) = run("synthetic_3x3", &src, config(&[("jobs", "1")]));
    let plan = views_fault_plan(&base_sum.test_trails);
    let observed = |trace: bool| {
        let mut cfg = config(&[("jobs", "4")]);
        cfg.fault_plan = plan.clone();
        cfg.obs.trace = trace;
        run("synthetic_3x3", &src, cfg).1
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
    use p4t_obs::RUN_WORKER;
    use p4t_targets::Tofino;
    let (name, src) = p4t_corpus::all_programs()
        .into_iter()
        .find_map(|(name, src, _)| (name == "switch_sim").then_some((name, src)))
        .expect("switch_sim is a corpus program");
    let run_tna = |cfg: TestgenConfig| {
        let mut tg = Testgen::new(name, &src, Tofino::tna(), cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        tg.try_run(|_| true).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let base = run_tna(config(&[("jobs", "1"), ("solver_budget", "0")]));

    let flight = Arc::new(FlightRecorder::new(4, 1 << 16));
    let mut cfg = config(&[("jobs", "4"), ("solver_budget", "1")]);
    cfg.fault_plan = views_fault_plan(&base.test_trails);
    cfg.obs.trace = true;
    cfg.obs.flight = Some(Arc::clone(&flight));
    let summary = run_tna(cfg);
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
