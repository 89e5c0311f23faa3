//! Structured run traces: the one per-path record every per-path view is
//! derived from, and the one worker event stream.
//!
//! The exploration engine produces exactly one [`PathRecord`] for every
//! path it finishes or prunes, buffered per worker in [`TraceLog::paths`]
//! whenever the trace is on (`ObsConfig::trace`; the CLI turns it on for
//! any of `--trace-out`, `--provenance-out` and `--coverage-report`). At
//! merge time the engine derives each view from the same records:
//!
//! * **the trace** (`--trace-out`) — the records themselves, serialized
//!   below;
//! * **abandonment sites** (`--coverage-report`) — the `abandoned` and
//!   `panicked` records, with their taxonomy reason and `near_stmt`;
//! * **provenance** (`--provenance-out`) — `constraints` and `checks` of
//!   the `emitted` records, joined to the suite by trail;
//! * **the flight recorder** (`--flight-out`) — the worker writes one
//!   `path-end` span per record, pruned forks and panics included.
//!
//! Every other worker event (lifecycle, steal, park, budget retry, solver
//! check, panic) is one [`SpanEvent`] that the worker sends to each enabled
//! sink alike: the flight recorder's ring and [`TraceLog::engine`].
//!
//! A trace has two record kinds, distinguished by the `"k"` field of each
//! JSONL line:
//!
//! * **Path records** (`"k":"path"`) — one per explored path, keyed by the
//!   path's fork trail (the same schedule-independent identity the engine
//!   uses for deterministic emission). They carry step counts, logical
//!   solver-query counts, the outcome (`emitted` / `infeasible` /
//!   `abandoned` + taxonomy reason / `panicked`), and per-phase durations.
//!   The fields that feed only the other views (`constraints`,
//!   `near_stmt`) are not serialized.
//! * **Engine events** (`"k":"engine"`) — the worker event stream: worker
//!   start and stop, steals, parks, drain, deadline expiry, kill faults,
//!   checkpoint flushes, budget retries, solver checks and panics. These
//!   describe *one particular schedule*.
//!
//! # Determinism contract
//!
//! For a fixed program, seed, and configuration (including any fault plan),
//! and with no result-dependent caps cutting exploration short
//! (`max_tests` / `--deadline` make *which* paths run
//! schedule-dependent), the set of path records is identical across worker
//! counts **except** for wall-clock timings. All timing fields therefore
//! live under the single `"t"` object so consumers can strip them
//! mechanically. Engine events are inherently schedule-dependent and are
//! excluded from cross-run comparison entirely.
//!
//! [`strip_schedule_dependent`] implements exactly this contract (the jq
//! equivalent is `select(.k == "path") | del(.t)`); `tests/determinism.rs`
//! asserts the stripped output is byte-identical at jobs 1/4/8.

use serde::value::{Number, Value};

use crate::span::SpanEvent;

/// Terminal state of one explored path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathOutcome {
    /// A test was emitted for this path.
    Emitted,
    /// The path condition was UNSAT.
    Infeasible,
    /// Abandoned; the payload is a stable taxonomy key from
    /// `core::summary::reason` (e.g. `"solver-unknown"`, `"step-budget"`).
    Abandoned(&'static str),
    /// The path's worker caught a panic while processing it.
    Panicked,
}

impl PathOutcome {
    fn label(&self) -> &'static str {
        match self {
            PathOutcome::Emitted => "emitted",
            PathOutcome::Infeasible => "infeasible",
            PathOutcome::Abandoned(_) => "abandoned",
            PathOutcome::Panicked => "panicked",
        }
    }

    /// One word for the outcome: the taxonomy reason of an abandoned
    /// path, the outcome label otherwise (the flight recorder's form).
    pub fn key(&self) -> &'static str {
        match self {
            PathOutcome::Abandoned(reason) => reason,
            other => other.label(),
        }
    }
}

/// Per-phase wall-clock durations for one path, in nanoseconds. These are
/// the *only* schedule-dependent fields of a [`PathRecord`]; they serialize
/// under the `"t"` key so they can be stripped wholesale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathTiming {
    pub step_ns: u64,
    pub solve_ns: u64,
    pub emit_ns: u64,
}

/// One explored path, keyed by its fork trail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathRecord {
    /// Fork trail — the branch-index sequence identifying this path.
    pub trail: Vec<u32>,
    /// Interpreter steps executed along the path.
    pub steps: u64,
    /// Logical feasibility/emission queries issued for this path. Counted
    /// at the query sites (not from raw solver deltas) so memo hits count
    /// too — raw deltas would vary with which worker warmed the memo.
    pub checks: u64,
    pub outcome: PathOutcome,
    pub timing: PathTiming,
    /// Path-constraint count at the path's end (the provenance view; not
    /// serialized).
    pub constraints: u64,
    /// Highest-id statement the path covered (the coverage-report view;
    /// not serialized).
    pub near_stmt: Option<u32>,
}

impl PathRecord {
    fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("k".into(), Value::String("path".into())),
            (
                "trail".into(),
                Value::Array(self.trail.iter().map(|b| Value::Number(Number::U(u64::from(*b)))).collect()),
            ),
            ("steps".into(), Value::Number(Number::U(self.steps))),
            ("checks".into(), Value::Number(Number::U(self.checks))),
            ("outcome".into(), Value::String(self.outcome.label().into())),
        ];
        if let PathOutcome::Abandoned(reason) = self.outcome {
            obj.push(("reason".into(), Value::String(reason.into())));
        }
        obj.push((
            "t".into(),
            Value::Object(vec![
                ("step_ns".into(), Value::Number(Number::U(self.timing.step_ns))),
                ("solve_ns".into(), Value::Number(Number::U(self.timing.solve_ns))),
                ("emit_ns".into(), Value::Number(Number::U(self.timing.emit_ns))),
            ]),
        ));
        Value::Object(obj)
    }
}

/// One worker event as a trace line. `seq` is the event's index in its
/// worker's buffer, so `(worker, seq)` orders events totally; `at_ns`
/// (nanoseconds since engine start) sits under `"t"`.
fn engine_value(ev: &SpanEvent) -> Value {
    let mut obj: Vec<(String, Value)> = vec![
        ("k".into(), Value::String("engine".into())),
        ("event".into(), Value::String(ev.kind.into())),
        ("worker".into(), Value::Number(Number::U(u64::from(ev.worker)))),
        ("seq".into(), Value::Number(Number::U(ev.seq))),
    ];
    if let Some(trail) = &ev.trail {
        obj.push((
            "trail".into(),
            Value::Array(trail.iter().map(|b| Value::Number(Number::U(u64::from(*b)))).collect()),
        ));
    }
    if let Some(d) = &ev.detail {
        obj.push(("detail".into(), Value::String(d.clone())));
    }
    obj.push((
        "t".into(),
        Value::Object(vec![("at_ns".into(), Value::Number(Number::U(ev.at_ns)))]),
    ));
    Value::Object(obj)
}

/// A complete run trace: per-worker buffers merged at join time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    pub paths: Vec<PathRecord>,
    /// Worker events, entirely schedule-dependent.
    pub engine: Vec<SpanEvent>,
}

impl TraceLog {
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Merge another worker's buffer into this one.
    pub fn absorb(&mut self, other: TraceLog) {
        self.paths.extend(other.paths);
        self.engine.extend(other.engine);
    }

    /// Sort into the canonical order: path records by trail (the engine's
    /// deterministic emission order), engine events by `(worker, seq)`.
    /// Call once after merging all worker buffers, before serializing.
    pub fn canonicalize(&mut self) {
        self.paths.sort_by(|a, b| a.trail.cmp(&b.trail));
        self.engine.sort_by_key(|e| (e.worker, e.seq));
    }

    /// Serialize as JSONL: all path records first (canonical order), then
    /// engine events. One JSON object per line, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&serde_json::to_string(&p.to_value()).expect("trace value serializes"));
            out.push('\n');
        }
        for e in &self.engine {
            out.push_str(&serde_json::to_string(&engine_value(e)).expect("trace value serializes"));
            out.push('\n');
        }
        out
    }
}

/// Reduce a JSONL trace to its schedule-independent core: keep only
/// `"k":"path"` lines and delete their `"t"` timing object. The result is
/// identical across worker counts for deterministic runs (see the module
/// docs for the exact contract). Lines that fail to parse are dropped.
pub fn strip_schedule_dependent(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if v.get("k").and_then(Value::as_str) != Some("path") {
            continue;
        }
        let Some(entries) = v.as_object() else {
            continue;
        };
        let kept: Vec<(String, Value)> =
            entries.iter().filter(|(k, _)| k != "t").cloned().collect();
        out.push_str(&serde_json::to_string(&Value::Object(kept)).expect("stripped value serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceLog {
        TraceLog {
            paths: vec![
                PathRecord {
                    trail: vec![1, 0],
                    steps: 12,
                    checks: 3,
                    outcome: PathOutcome::Abandoned("solver-unknown"),
                    timing: PathTiming { step_ns: 5, solve_ns: 6, emit_ns: 0 },
                    constraints: 4,
                    near_stmt: Some(9),
                },
                PathRecord {
                    trail: vec![0],
                    steps: 7,
                    checks: 2,
                    outcome: PathOutcome::Emitted,
                    timing: PathTiming { step_ns: 1, solve_ns: 2, emit_ns: 3 },
                    constraints: 2,
                    near_stmt: None,
                },
            ],
            engine: vec![SpanEvent {
                at_ns: 99,
                worker: 1,
                seq: 0,
                kind: "steal",
                trail: None,
                detail: Some("from=0".into()),
            }],
        }
    }

    #[test]
    fn canonicalize_sorts_paths_by_trail() {
        let mut t = sample();
        t.canonicalize();
        assert_eq!(t.paths[0].trail, vec![0]);
        assert_eq!(t.paths[1].trail, vec![1, 0]);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_schema_fields() {
        let mut t = sample();
        t.canonicalize();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("k").and_then(Value::as_str), Some("path"));
        assert_eq!(first.get("outcome").and_then(Value::as_str), Some("emitted"));
        assert!(first.get("t").is_some());
        assert!(first.get("constraints").is_none() && first.get("near_stmt").is_none());
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("reason").and_then(Value::as_str), Some("solver-unknown"));
        let engine: Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(engine.get("k").and_then(Value::as_str), Some("engine"));
        assert_eq!(engine.get("event").and_then(Value::as_str), Some("steal"));
    }

    #[test]
    fn strip_removes_engine_lines_and_timing() {
        let mut t = sample();
        t.canonicalize();
        let stripped = strip_schedule_dependent(&t.to_jsonl());
        let lines: Vec<&str> = stripped.lines().collect();
        assert_eq!(lines.len(), 2, "engine line must be dropped");
        for line in &lines {
            let v: Value = serde_json::from_str(line).unwrap();
            assert!(v.get("t").is_none(), "timing must be stripped: {line}");
            assert_eq!(v.get("k").and_then(Value::as_str), Some("path"));
        }
    }

    #[test]
    fn strip_is_timing_invariant() {
        let mut a = sample();
        let mut b = sample();
        for p in &mut b.paths {
            p.timing = PathTiming { step_ns: 1000, solve_ns: 2000, emit_ns: 3000 };
        }
        b.engine.clear();
        a.canonicalize();
        b.canonicalize();
        assert_eq!(
            strip_schedule_dependent(&a.to_jsonl()),
            strip_schedule_dependent(&b.to_jsonl())
        );
    }
}
