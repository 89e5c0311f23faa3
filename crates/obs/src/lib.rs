//! # p4t-obs — observability substrate for the exploration engine
//!
//! The paper's evaluation (§8) is built on *measuring* P4Testgen runs —
//! paths/second, coverage growth over time, per-component cost. This crate
//! is the machinery those measurements flow through:
//!
//! * [`metrics`] — a registry of named counters, gauges, and fixed-bucket
//!   histograms. Handles are `Arc`s over atomics: updating a metric on the
//!   exploration hot path is a single lock-free atomic operation, and the
//!   registry lock is only taken at registration and export time. Exports
//!   render in Prometheus text format and as JSON.
//! * [`trace`] — the structured event layer: per-path spans keyed by the
//!   schedule-independent fork trail (steps, solver checks, phase
//!   durations, outcome) plus the worker event stream (lifecycle, steals,
//!   parks, budget retries, solver checks, panics) as [`SpanEvent`]s —
//!   the same events the flight recorder holds — rendered as JSONL. The
//!   determinism contract — which lines and fields are identical across
//!   worker counts — is documented on [`trace::TraceLog`] and enforced by
//!   [`trace::strip_schedule_dependent`].
//! * [`diag`] — the leveled, consistently-prefixed stderr diagnostics the
//!   CLI routes all human-facing output through (`--quiet` / `-v`).
//! * [`span`] / [`recorder`] — the span flight recorder: a bounded,
//!   lock-free last-N-events-per-worker ring dumped as JSONL on panic,
//!   deadline expiry, SIGTERM drain, or corrupt-checkpoint fallback
//!   (`--flight-out`), turning graceful-degradation paths into
//!   post-mortems.
//! * [`http`] — the live introspection endpoint (`--status-addr`): a
//!   dependency-free blocking listener serving `/metrics` (Prometheus),
//!   `/status` (live JSON progress incl. coverage-curve ETA), `/healthz`
//!   (liveness), and `/readyz` (readiness — flips to 503 during drain).
//! * [`server`] — service primitives for the long-lived `p4testgen serve`
//!   daemon: a bounded LRU cache with hit/miss/eviction accounting and a
//!   bounded admission queue with deterministic load shedding and drain
//!   semantics.
//!
//! The crate is a dependency *leaf*: `core` and the CLI depend on it, never
//! the reverse. `smt` and `interp` stay observability-agnostic — they expose
//! richer raw statistics (learnt-clause size histograms, conflicts-per-check
//! buckets, intern contention, statement/visit counts) that `core` folds
//! into the registry when the run completes. Everything is designed to be
//! zero-cost when observability is off — recorders are `Option`s checked
//! once per path, not per step, and no event allocation happens unless a
//! sink is installed.

pub mod diag;
pub mod http;
pub mod metrics;
pub mod recorder;
pub mod server;
pub mod span;
pub mod trace;

pub use diag::{Diag, Level};
pub use http::{LiveStatus, StatusExtra, StatusServer};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use server::{BoundedQueue, LruCache, LruStats, Pop, Push};
pub use recorder::{FlightRecorder, DEFAULT_RING_CAPACITY};
pub use span::{SpanEvent, RUN_WORKER};
pub use trace::{PathOutcome, PathRecord, PathTiming, TraceLog};
