//! `p4testgen serve` — a long-lived, multi-tenant generation daemon.
//!
//! ```text
//! p4testgen serve --listen HOST:PORT [options]
//!
//! options:
//!   --listen <HOST:PORT>        accept generation requests here (required;
//!                               port 0 picks a free port, announced on stderr)
//!   --workers <N>               request worker threads [2]
//!   --max-pending <N>           admission-queue bound; requests past it are
//!                               shed with a structured retry-after [16]
//!   --ir-cache <N>              compiled-IR LRU entries, keyed on the
//!                               (target, canonicalized source) hash —
//!                               comments and whitespace don't miss [32]
//!   --memo-cache <N>            shared feasibility-memo entries [65536]
//!   --status-addr <ADDR>        serve /status, /metrics, /healthz, /readyz
//!   --enable-fault-injection    honor per-request "fault" plans (tests only)
//!   --quiet | -v                stderr verbosity
//! ```
//!
//! The wire protocol is newline-delimited JSON over plain TCP: one request
//! object per line in, one response object per line out, in completion
//! order (responses carry the request `id`, so clients may pipeline).
//! Request lines may arrive in arbitrarily slow fragments, and a client
//! may half-close its write side after its last request and still receive
//! every response.
//!
//! Request: `{"id": ..., "tenant": "...", "name": "prog.p4",
//! "target": "v1model|tna|t2na|ebpf_model", "backend": "stf|ptf|proto|json",
//! "source": "...P4...", "config": {...}, "fault": {...}}`. Each scalar in
//! the `config` object is applied with `TestgenConfig::set`, which lists
//! the keys (the CLI's engine flags, spelled `max_tests`, `deadline_ms`,
//! ...); an unknown key or a bad value is a `bad-request`, never ignored,
//! so a typo cannot silently change what a tenant asked for. `name`
//! becomes the `program` stamped into every test — pass the CLI's file
//! basename to get byte-identical suites.
//!
//! Responses: `"status": "ok"` with the rendered suite, `"shed"` with a
//! deterministic `retry_after_ms` (admission queue full, or draining), or
//! `"error"` with a classified kind (`bad-request`, `frontend`, `target`,
//! `deadline`, `panic`, `run`, `cancelled`).
//!
//! Robustness properties (the point of the daemon):
//! * **Per-request panic containment** — each request runs under
//!   `catch_unwind`; a panicking request produces a structured `panic`
//!   error and the worker keeps serving. The engine's per-path isolation
//!   still applies underneath; this layer catches what escapes it.
//! * **Admission control** — a bounded queue sheds deterministically
//!   instead of accepting unbounded work.
//! * **Bounded caches** — compiled IR and the shared feasibility memo are
//!   LRU-bounded with hit/miss/eviction counters exported via `/metrics`.
//!   Every request runs on a fresh engine built from the compiled IR, so
//!   its summary counts only its own work.
//! * **Graceful drain** — SIGTERM/SIGINT stop admission (`/readyz` flips
//!   to 503, new requests shed as `draining`), in-flight and queued
//!   requests finish, and the process exits 0.
//! * **Cancellation** — a client disconnect (a hard read error, or any
//!   failed response write) sets a per-connection flag wired into the
//!   engine's cooperative-drain path, so orphaned requests stop early
//!   instead of burning the budget of live tenants. A plain EOF is only a
//!   half-close: pipelined requests still run and their responses are
//!   still delivered.

use crate::driver;
use p4t_obs::{
    BoundedQueue, Diag, Level, LiveStatus, LruStats, Pop, Push, Registry, StatusServer,
};
use p4t_obs::LruCache;
use p4testgen_core::{
    fnv_mix, panic_payload_text, BuildError, CompiledProgram, FaultPlan, RunSummary,
    SharedFeasMemo, Target, Testgen, TestgenConfig, FNV_OFFSET,
};
use serde::value::{Number, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const EXIT_USAGE_IO: u8 = 2;

/// How long workers sleep on an empty queue before re-checking for drain.
const POP_POLL: Duration = Duration::from_millis(250);
/// Accept-loop poll interval (the listener is non-blocking so SIGTERM is
/// observed promptly).
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Per-connection read timeout; bounds how long a reader thread can sit
/// blind to a disconnect mid-line.
const READ_POLL: Duration = Duration::from_millis(250);
/// How many finished requests the `/status` recent-requests table keeps.
const RECENT_CAPACITY: usize = 32;

struct ServeOptions {
    listen: String,
    workers: usize,
    max_pending: usize,
    ir_cache: usize,
    memo_cache: usize,
    status_addr: Option<String>,
    fault_enabled: bool,
    verbosity: Level,
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: p4testgen serve --listen HOST:PORT [--workers N] [--max-pending N]\n\
         \t[--ir-cache N] [--memo-cache N]\n\
         \t[--status-addr ADDR] [--enable-fault-injection] [--quiet] [-v|--verbose]"
    );
    std::process::exit(2);
}

fn parse_serve_args(args: &[String]) -> ServeOptions {
    let mut opts = ServeOptions {
        listen: String::new(),
        workers: 2,
        max_pending: 16,
        ir_cache: 32,
        memo_cache: 65536,
        status_addr: None,
        fault_enabled: false,
        verbosity: Level::Info,
    };
    let mut it = args.iter();
    let usize_arg = |v: Option<&String>, min: usize| -> usize {
        v.and_then(|s| s.parse().ok()).filter(|&n| n >= min).unwrap_or_else(|| serve_usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => opts.listen = it.next().cloned().unwrap_or_else(|| serve_usage()),
            "--workers" => opts.workers = usize_arg(it.next(), 1),
            "--max-pending" => opts.max_pending = usize_arg(it.next(), 1),
            "--ir-cache" => opts.ir_cache = usize_arg(it.next(), 1),
            "--memo-cache" => opts.memo_cache = usize_arg(it.next(), 1),
            "--status-addr" => {
                opts.status_addr = Some(it.next().cloned().unwrap_or_else(|| serve_usage()))
            }
            "--enable-fault-injection" => opts.fault_enabled = true,
            "--quiet" => opts.verbosity = Level::Error,
            "-v" | "--verbose" => opts.verbosity = Level::Verbose,
            _ => serve_usage(),
        }
    }
    if opts.listen.is_empty() {
        serve_usage();
    }
    opts
}

/// Poison-tolerant lock: a worker that panicked while holding a cache lock
/// was already contained by `catch_unwind`; the cache data is a plain LRU
/// map whose invariants hold between mutations, so later requests keep
/// going instead of failing forever on `PoisonError`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One admitted generation request, queued for a worker.
struct Job {
    /// Echoed verbatim in the response (any JSON value).
    id: Value,
    tenant: String,
    /// `program` name stamped into every emitted test.
    name: String,
    target: Box<dyn Target>,
    backend: String,
    source: String,
    config: TestgenConfig,
    /// Write half of the client connection (line-per-response, under a
    /// mutex so concurrent completions for one client never interleave).
    reply: Arc<Mutex<TcpStream>>,
    /// Set when the client is known gone (hard read error or failed
    /// response write — *not* a mere read-side EOF, which pipelining
    /// clients use as end-of-requests); wired into `config.drain` so the
    /// engine stops cooperatively.
    cancel: Arc<AtomicBool>,
    enqueued: Instant,
}

/// A row in the `/status` recent-requests table.
struct Recent {
    id: String,
    tenant: String,
    target: String,
    status: String,
    queue_ms: u64,
    run_ms: u64,
    tests: u64,
}

#[derive(Default)]
struct ServeStats {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    active: AtomicU64,
    /// Requests whose source canonicalized to different bytes than it
    /// arrived with (comments/whitespace stripped before IR-cache keying).
    ir_canonicalized: AtomicU64,
    /// IR-cache hits on canonicalized requests — hits a raw-byte cache
    /// key could have missed.
    ir_canonical_hits: AtomicU64,
    recent: Mutex<VecDeque<Recent>>,
}

impl ServeStats {
    fn record_recent(&self, row: Recent) {
        let mut g = lock(&self.recent);
        if g.len() == RECENT_CAPACITY {
            g.pop_front();
        }
        g.push_back(row);
    }
}

/// Everything the accept loop, connection readers, and workers share.
struct ServeShared {
    queue: BoundedQueue<Job>,
    /// Compiled IR keyed on fnv(target name, canonical source).
    ir: Mutex<LruCache<u64, Arc<CompiledProgram>>>,
    memo: Arc<SharedFeasMemo>,
    registry: Arc<Registry>,
    stats: ServeStats,
    draining: Arc<AtomicBool>,
    fault_enabled: bool,
}

/// Canonicalize P4 source for IR-cache keying: strip `//` and `/* */`
/// comments and collapse whitespace runs to one space, so formatting-only
/// variants of the same program (a tenant re-submitting with an edited
/// comment, a CI job with different indentation) share a compiled-IR slot
/// instead of each paying a frontend pass. String literals are preserved
/// verbatim; the canonical form is lexically equivalent to the original,
/// so it can never alias two programs that compile differently.
fn canonicalize_source(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push('"');
                while let Some(s) = chars.next() {
                    out.push(s);
                    match s {
                        '\\' => {
                            if let Some(e) = chars.next() {
                                out.push(e);
                            }
                        }
                        '"' => break,
                        _ => {}
                    }
                }
            }
            '/' if chars.peek() == Some(&'/') => {
                for s in chars.by_ref() {
                    if s == '\n' {
                        break;
                    }
                }
                pending_space = true;
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                let mut prev = '\0';
                for s in chars.by_ref() {
                    if prev == '*' && s == '/' {
                        break;
                    }
                    prev = s;
                }
                pending_space = true;
            }
            c if c.is_whitespace() => pending_space = true,
            c => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    out
}

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in parts {
        fnv_mix(&mut h, p);
        // Separator so ("ab","c") and ("a","bc") differ.
        fnv_mix(&mut h, &[0xff]);
    }
    h
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn vstr(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn vnum(n: u64) -> Value {
    Value::Number(Number::U(n))
}

/// Structured error payload: classified kind plus a human message.
struct ErrBody {
    kind: &'static str,
    message: String,
    /// Tests generated before a deadline/cancel cut the run short.
    partial_tests: Option<u64>,
}

impl ErrBody {
    fn new(kind: &'static str, message: impl Into<String>) -> ErrBody {
        ErrBody { kind, message: message.into(), partial_tests: None }
    }
}

struct OkBody {
    tests: u64,
    suite: String,
    ir_hit: bool,
    summary: RunSummary,
}

fn error_response(id: &Value, e: &ErrBody) -> Value {
    let mut err = vec![("kind", vstr(e.kind)), ("message", vstr(e.message.clone()))];
    if let Some(n) = e.partial_tests {
        err.push(("partial_tests", vnum(n)));
    }
    obj(vec![("id", id.clone()), ("status", vstr("error")), ("error", obj(err))])
}

/// Deterministic shed payload: `retry_after_ms` scales with the configured
/// bound (a deeper queue earns a longer back-off), never with wall-clock
/// state or randomness, so identical load patterns shed identically.
fn shed_response(id: &Value, kind: &'static str, max_pending: usize) -> Value {
    let retry_after_ms = 100 * (max_pending as u64).clamp(1, 50);
    obj(vec![
        ("id", id.clone()),
        ("status", vstr("shed")),
        ("error", obj(vec![("kind", vstr(kind))])),
        ("retry_after_ms", vnum(retry_after_ms)),
    ])
}

fn write_line(reply: &Arc<Mutex<TcpStream>>, cancel: &AtomicBool, v: &Value) {
    let mut line = serde_json::to_string(v).unwrap_or_default();
    line.push('\n');
    let mut g = lock(reply);
    // A failed write is the authoritative disconnect signal: a client may
    // half-close its write side after pipelining (EOF on the read side)
    // and still be reading responses, but a client we cannot write to is
    // gone — stop this connection's remaining work cooperatively.
    if g.write_all(line.as_bytes()).and_then(|()| g.flush()).is_err() {
        cancel.store(true, Ordering::Release);
    }
}

/// Parse and validate one request line into an admitted `Job`.
/// Everything rejectable is rejected here, before the queue, so workers
/// only ever see well-formed work.
fn parse_request(
    v: &Value,
    shared: &ServeShared,
    reply: &Arc<Mutex<TcpStream>>,
    cancel: &Arc<AtomicBool>,
) -> Result<Job, ErrBody> {
    let fields = v
        .as_object()
        .ok_or_else(|| ErrBody::new("bad-request", "request must be a JSON object"))?;
    const KNOWN: [&str; 8] =
        ["id", "tenant", "name", "target", "backend", "source", "config", "fault"];
    for (k, _) in fields {
        if !KNOWN.contains(&k.as_str()) {
            return Err(ErrBody::new("bad-request", format!("unknown request key '{k}'")));
        }
    }
    let req_str = |key: &str| -> Result<String, ErrBody> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ErrBody::new("bad-request", format!("missing string field '{key}'")))
    };
    let target_name = req_str("target")?;
    let target = p4t_targets::by_name(&target_name).ok_or_else(|| {
        ErrBody::new("bad-request", format!("unknown target '{target_name}'"))
    })?;
    let backend = match v.get("backend").and_then(Value::as_str) {
        None => "stf".to_string(),
        Some(b @ ("stf" | "ptf" | "proto" | "json")) => b.to_string(),
        Some(other) => {
            return Err(ErrBody::new("bad-request", format!("unknown backend '{other}'")))
        }
    };
    let source = req_str("source")?;
    let tenant = match v.get("tenant") {
        None => "anonymous".to_string(),
        Some(t) => t
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| ErrBody::new("bad-request", "'tenant' must be a string"))?,
    };
    let name = match v.get("name") {
        None => "request.p4".to_string(),
        Some(n) => n
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| ErrBody::new("bad-request", "'name' must be a string"))?,
    };

    let mut config = TestgenConfig::default();
    if let Some(c) = v.get("config") {
        let cfg = c
            .as_object()
            .ok_or_else(|| ErrBody::new("bad-request", "'config' must be an object"))?;
        for (k, val) in cfg {
            // A string goes to `set` as is, anything else as its JSON text
            // (`5`, `true`, `1.0`, `[]`), which `set` parses or refuses.
            let text = match val {
                Value::String(s) => s.clone(),
                other => serde_json::to_string(other).unwrap_or_default(),
            };
            config.set(k, &text).map_err(|e| ErrBody::new("bad-request", e.to_string()))?;
        }
    }
    if let Some(f) = v.get("fault") {
        if !shared.fault_enabled {
            return Err(ErrBody::new(
                "bad-request",
                "fault plans require the daemon to run with --enable-fault-injection",
            ));
        }
        config.fault_plan =
            FaultPlan::from_json(f).map_err(|e| ErrBody::new("bad-request", e))?;
    }
    // Per-request plumbing: client-disconnect cancellation rides the
    // engine's cooperative-drain path; the feasibility memo is the
    // daemon-wide bounded one.
    config.drain = Some(Arc::clone(cancel));
    config.shared_memo = Some(Arc::clone(&shared.memo));

    Ok(Job {
        id: v.get("id").cloned().unwrap_or(Value::Null),
        tenant,
        name,
        target,
        backend,
        source,
        config,
        reply: Arc::clone(reply),
        cancel: Arc::clone(cancel),
        enqueued: Instant::now(),
    })
}

/// Render frontend diagnostics into one classified message (the daemon has
/// no file to point at, so spans are reported prelude-adjusted by line).
fn frontend_message(diagnostics: &[p4t_frontend::Diagnostic], prelude_lines: u32) -> String {
    let rendered: Vec<String> = diagnostics
        .iter()
        .map(|d| {
            let line = d.span.start.line.saturating_sub(prelude_lines);
            format!("{}:{}: {} [{}]", line, d.span.start.col, d.message, d.code)
        })
        .collect();
    rendered.join("; ")
}

/// One request: compile (or hit the IR cache), then run a fresh engine.
fn handle(job: Job, shared: &ServeShared) -> Result<OkBody, ErrBody> {
    if job.cancel.load(Ordering::Acquire) {
        return Err(ErrBody::new("cancelled", "client disconnected before the request ran"));
    }
    // Key on the canonical form (comments/whitespace stripped), so
    // formatting-only resubmissions hit the cache instead of recompiling.
    let canonical = canonicalize_source(&job.source);
    let canonicalized = canonical != job.source;
    if canonicalized {
        shared.stats.ir_canonicalized.fetch_add(1, Ordering::Relaxed);
    }
    let ir_key = fnv1a(&[job.target.name().as_bytes(), canonical.as_bytes()]);
    let cached = lock(&shared.ir).get(&ir_key).cloned();
    if cached.is_some() && canonicalized {
        shared.stats.ir_canonical_hits.fetch_add(1, Ordering::Relaxed);
    }
    let (compiled, ir_hit) = match cached {
        Some(c) => (c, true),
        None => {
            // Compile outside the lock: a slow frontend pass must not
            // serialize every other tenant's cache lookup behind it.
            let built = CompiledProgram::build(&job.source, &*job.target).map_err(|e| match e {
                BuildError::Frontend { diagnostics, prelude_lines } => {
                    ErrBody::new("frontend", frontend_message(&diagnostics, prelude_lines))
                }
                BuildError::Target(msg) => ErrBody::new("target", msg),
            })?;
            let arc = Arc::new(built);
            lock(&shared.ir).insert(ir_key, Arc::clone(&arc));
            (arc, false)
        }
    };

    let mut tg = Testgen::from_compiled(&job.name, (*compiled).clone(), job.target, job.config);
    let mut tests = Vec::new();
    let summary = tg
        .try_run(|t| {
            tests.push(t.clone());
            true
        })
        .map_err(|e| ErrBody::new("run", e.to_string()))?;

    if summary.errors.deadline_expired {
        let mut e = ErrBody::new(
            "deadline",
            format!(
                "request deadline expired after {} test(s); raise config.deadline_ms",
                summary.tests
            ),
        );
        e.partial_tests = Some(summary.tests);
        return Err(e);
    }
    if job.cancel.load(Ordering::Acquire) && !shared.draining.load(Ordering::Relaxed) {
        // The run ended because the client went away; classify rather
        // than pretend a truncated suite is the full answer.
        let mut e = ErrBody::new("cancelled", "client disconnected; run stopped cooperatively");
        e.partial_tests = Some(summary.tests);
        return Err(e);
    }

    let suite = driver::render_suite(&job.backend, &tests)
        .ok_or_else(|| ErrBody::new("bad-request", format!("unknown backend '{}'", job.backend)))?;
    Ok(OkBody { tests: summary.tests, suite, ir_hit, summary })
}

/// Export one cache's LRU statistics as gauges (totals are monotonic but
/// exported by `set`, so a scrape sees exact values, never deltas).
fn export_cache(reg: &Registry, cache: &str, s: LruStats) {
    let g = |name: &str, help: &str, v: u64| {
        reg.gauge_with(name, help, &[("cache", cache)]).set(v);
    };
    g("p4testgen_serve_cache_entries", "entries currently cached", s.len as u64);
    g("p4testgen_serve_cache_capacity", "configured cache bound", s.capacity as u64);
    g("p4testgen_serve_cache_hits", "cache hits since start", s.hits);
    g("p4testgen_serve_cache_misses", "cache misses since start", s.misses);
    g("p4testgen_serve_cache_evictions", "entries evicted since start", s.evictions);
}

fn export_all_caches(shared: &ServeShared) {
    export_cache(&shared.registry, "ir", lock(&shared.ir).stats());
    export_cache(&shared.registry, "memo", shared.memo.stats());
    shared
        .registry
        .gauge_with(
            "p4testgen_serve_ir_canonicalized",
            "requests whose source canonicalized to different bytes",
            &[("cache", "ir")],
        )
        .set(shared.stats.ir_canonicalized.load(Ordering::Relaxed));
    shared
        .registry
        .gauge_with(
            "p4testgen_serve_ir_canonical_hits",
            "IR-cache hits a raw-byte key could have missed",
            &[("cache", "ir")],
        )
        .set(shared.stats.ir_canonical_hits.load(Ordering::Relaxed));
}

/// One worker: pop, contain, respond, account — forever, until drained.
fn worker_loop(shared: &Arc<ServeShared>) {
    loop {
        let job = match shared.queue.pop_timeout(POP_POLL) {
            Pop::Item(j) => j,
            Pop::Empty => continue,
            Pop::Drained => break,
        };
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        let queue_ms = job.enqueued.elapsed().as_millis() as u64;
        let id = job.id.clone();
        let tenant = job.tenant.clone();
        let target = job.target.name().to_string();
        let reply = Arc::clone(&job.reply);
        let cancel = Arc::clone(&job.cancel);
        let t_run = Instant::now();
        // The containment boundary: a panic anywhere in compile/run/render
        // unwinds to here, becomes a structured response, and the worker
        // (and every cache — all poison-tolerant) keeps serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle(job, shared)));
        let run_ms = t_run.elapsed().as_millis() as u64;
        let (status, tests, response) = match outcome {
            Ok(Ok(ok)) => {
                let coverage = Value::Number(Number::F(ok.summary.coverage.percent));
                let cache = obj(vec![("ir", vstr(if ok.ir_hit { "hit" } else { "miss" }))]);
                let summary = obj(vec![
                    ("paths_explored", vnum(ok.summary.paths_explored)),
                    ("infeasible_paths", vnum(ok.summary.infeasible_paths)),
                    ("abandoned_paths", vnum(ok.summary.abandoned_paths)),
                    ("solver_checks", vnum(ok.summary.solver_checks)),
                    ("memo_hits", vnum(ok.summary.memo_hits)),
                    ("coverage_percent", coverage),
                ]);
                let resp = obj(vec![
                    ("id", id.clone()),
                    ("status", vstr("ok")),
                    ("tests", vnum(ok.summary.tests)),
                    ("suite", vstr(ok.suite)),
                    ("queue_ms", vnum(queue_ms)),
                    ("run_ms", vnum(run_ms)),
                    ("cache", cache),
                    ("summary", summary),
                ]);
                ("ok", ok.tests, resp)
            }
            Ok(Err(e)) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                (e.kind, e.partial_tests.unwrap_or(0), error_response(&id, &e))
            }
            Err(payload) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let e = ErrBody::new(
                    "panic",
                    format!("request panicked: {}", panic_payload_text(payload.as_ref())),
                );
                ("panic", 0, error_response(&id, &e))
            }
        };
        write_line(&reply, &cancel, &response);
        shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        let reg = &shared.registry;
        reg.counter_with(
            "p4testgen_serve_requests_total",
            "requests finished, by outcome",
            &[("status", status)],
        )
        .inc();
        reg.counter_with(
            "p4testgen_serve_tenant_requests_total",
            "requests finished, by tenant",
            &[("tenant", &tenant)],
        )
        .inc();
        reg.histogram(
            "p4testgen_serve_queue_ms",
            "admission-queue wait per request (ms)",
            &[1, 5, 10, 50, 100, 500, 1000, 5000],
        )
        .observe(queue_ms);
        reg.histogram(
            "p4testgen_serve_run_ms",
            "generation time per request (ms)",
            &[1, 5, 10, 50, 100, 500, 1000, 5000, 30000],
        )
        .observe(run_ms);
        export_all_caches(shared);
        let id_str = match &id {
            Value::String(s) => s.clone(),
            other => serde_json::to_string(other).unwrap_or_default(),
        };
        shared.stats.record_recent(Recent {
            id: id_str,
            tenant,
            target,
            status: status.to_string(),
            queue_ms,
            run_ms,
            tests,
        });
    }
}

/// One connection: read request lines, admit or shed, flag cancellation
/// when the client is known gone (hard read error here; failed response
/// writes in `write_line`). Responses are written by whichever worker
/// finishes the job (or inline here for shed/bad-request, which never
/// reach the queue).
fn conn_loop(stream: TcpStream, shared: Arc<ServeShared>, diag: Diag) {
    let peer =
        stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".to_string());
    let out = match stream.try_clone() {
        Ok(s) => Arc::new(Mutex::new(s)),
        Err(e) => {
            diag.warn(format!("{peer}: cannot clone stream: {e}"));
            return;
        }
    };
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let cancel = Arc::new(AtomicBool::new(false));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            // EOF is a *half*-close: a pipelining client may shut down its
            // write side and still be reading responses, so queued work for
            // this connection keeps running. Cancellation happens when a
            // response write fails (see `write_line`).
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    let parsed: Result<Value, _> = serde_json::from_str(trimmed);
                    match parsed {
                        Ok(v) => {
                            let id = v.get("id").cloned().unwrap_or(Value::Null);
                            match parse_request(&v, &shared, &out, &cancel) {
                                Ok(job) => match shared.queue.push(job) {
                                    Push::Admitted => {
                                        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Push::Full(_) => {
                                        shed(&shared, "shed");
                                        write_line(
                                            &out,
                                            &cancel,
                                            &shed_response(
                                                &id,
                                                "queue-full",
                                                shared.queue.capacity(),
                                            ),
                                        );
                                    }
                                    Push::Closed(_) => {
                                        shed(&shared, "draining");
                                        write_line(
                                            &out,
                                            &cancel,
                                            &shed_response(
                                                &id,
                                                "draining",
                                                shared.queue.capacity(),
                                            ),
                                        );
                                    }
                                },
                                Err(body) => {
                                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                                    write_line(&out, &cancel, &error_response(&id, &body));
                                }
                            }
                        }
                        Err(e) => {
                            let body =
                                ErrBody::new("bad-request", format!("invalid JSON: {e}"));
                            write_line(&out, &cancel, &error_response(&Value::Null, &body));
                            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Only a fully-consumed line is discarded.
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The timeout may have left a partial request line in
                // `line` (read_line appends what arrived before the poll
                // expired); keep it so the next read completes it instead
                // of silently dropping the prefix.
                continue;
            }
            Err(_) => {
                // A hard read error (reset, aborted): the client is gone,
                // stop its outstanding work cooperatively.
                cancel.store(true, Ordering::Release);
                break;
            }
        }
    }
    diag.verbose(format!("{peer}: connection closed"));
}

/// Account one shed: the `/status` counter and the per-outcome
/// `/metrics` counter (status `shed` for queue-full, `draining` during a
/// drain), so the two views always agree.
fn shed(shared: &ServeShared, status: &'static str) {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    shared
        .registry
        .counter_with(
            "p4testgen_serve_requests_total",
            "requests finished, by outcome",
            &[("status", status)],
        )
        .inc();
}

pub fn serve_main(args: &[String]) -> ExitCode {
    let opts = parse_serve_args(args);
    let diag = Diag::new(opts.verbosity);

    let draining = driver::process_drain_flag();
    let registry = Arc::new(Registry::new());
    let shared = Arc::new(ServeShared {
        queue: BoundedQueue::new(opts.max_pending),
        ir: Mutex::new(LruCache::new(opts.ir_cache)),
        memo: Arc::new(SharedFeasMemo::new(opts.memo_cache)),
        registry: Arc::clone(&registry),
        stats: ServeStats::default(),
        draining: Arc::clone(&draining),
        fault_enabled: opts.fault_enabled,
    });
    export_all_caches(&shared);

    // Observe panics process-wide (the per-request containment responds to
    // the client; this counts what it contained).
    {
        let hook_shared = Arc::clone(&shared);
        driver::add_panic_hook(Box::new(move |_info| {
            hook_shared.stats.panics.fetch_add(1, Ordering::Relaxed);
        }));
    }

    // Optional introspection endpoint: /healthz stays live through a drain,
    // /readyz flips to 503 the moment the drain flag is set, /status gains
    // a `serve` section with queue depth and the recent-requests table.
    let mut status_server = None;
    if let Some(addr) = &opts.status_addr {
        let extra_shared = Arc::clone(&shared);
        let extra: p4t_obs::StatusExtra = Arc::new(move || {
            let s = &extra_shared.stats;
            let recent: Vec<Value> = lock(&s.recent)
                .iter()
                .map(|r| {
                    obj(vec![
                        ("id", vstr(r.id.clone())),
                        ("tenant", vstr(r.tenant.clone())),
                        ("target", vstr(r.target.clone())),
                        ("status", vstr(r.status.clone())),
                        ("queue_ms", vnum(r.queue_ms)),
                        ("run_ms", vnum(r.run_ms)),
                        ("tests", vnum(r.tests)),
                    ])
                })
                .collect();
            vec![(
                "serve".to_string(),
                obj(vec![
                    ("admitted", vnum(s.admitted.load(Ordering::Relaxed))),
                    ("completed", vnum(s.completed.load(Ordering::Relaxed))),
                    ("shed", vnum(s.shed.load(Ordering::Relaxed))),
                    ("errors", vnum(s.errors.load(Ordering::Relaxed))),
                    ("panics", vnum(s.panics.load(Ordering::Relaxed))),
                    ("active", vnum(s.active.load(Ordering::Relaxed))),
                    ("ir_canonicalized", vnum(s.ir_canonicalized.load(Ordering::Relaxed))),
                    ("ir_canonical_hits", vnum(s.ir_canonical_hits.load(Ordering::Relaxed))),
                    ("queued", vnum(extra_shared.queue.len() as u64)),
                    (
                        "draining",
                        Value::Bool(extra_shared.draining.load(Ordering::Relaxed)),
                    ),
                    ("recent", Value::Array(recent)),
                ]),
            )]
        });
        match StatusServer::bind_full(
            addr,
            Arc::new(LiveStatus::new()),
            Some(Arc::clone(&registry)),
            Some(Arc::clone(&draining)),
            Some(extra),
        ) {
            Ok(srv) => {
                diag.info(format!("status endpoint listening on http://{}", srv.local_addr()));
                status_server = Some(srv);
            }
            Err(e) => {
                diag.error(format!("cannot bind status endpoint {addr}: {e}"));
                return ExitCode::from(EXIT_USAGE_IO);
            }
        }
    }

    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            diag.error(format!("cannot bind {}: {e}", opts.listen));
            return ExitCode::from(EXIT_USAGE_IO);
        }
    };
    let local = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| opts.listen.clone());
    if let Err(e) = listener.set_nonblocking(true) {
        diag.error(format!("cannot set listener non-blocking: {e}"));
        return ExitCode::from(EXIT_USAGE_IO);
    }
    diag.info(format!(
        "serve listening on {local} ({} workers, {} pending max)",
        opts.workers, opts.max_pending
    ));

    let workers: Vec<std::thread::JoinHandle<()>> = (0..opts.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    // Accept until drained. Connection readers are not joined: they hold
    // no state the drain must flush (responses are written by workers,
    // which ARE joined), and they exit with the process.
    while !draining.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let conn_diag = Diag::new(opts.verbosity);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || conn_loop(stream, shared, conn_diag));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                diag.warn(format!("accept failed: {e}"));
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }

    // Graceful drain: stop admitting (readers now shed as "draining"),
    // let workers finish everything already queued, then leave cleanly.
    diag.info("drain requested; finishing in-flight requests");
    shared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    if let Some(mut srv) = status_server.take() {
        srv.shutdown();
    }
    diag.info(format!(
        "drained: {} completed, {} shed, {} errors",
        shared.stats.completed.load(Ordering::Relaxed),
        shared.stats.shed.load(Ordering::Relaxed),
        shared.stats.errors.load(Ordering::Relaxed),
    ));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::canonicalize_source;

    #[test]
    fn canonicalize_strips_comments_and_collapses_whitespace() {
        let a = "control C() { // trailing\n  apply {\t}\n}\n";
        let b = "/* banner */ control C() {\n\n\napply { } }";
        assert_eq!(canonicalize_source(a), canonicalize_source(b));
        assert_eq!(canonicalize_source(a), "control C() { apply { } }");
    }

    #[test]
    fn canonicalize_preserves_string_literals() {
        let s = r#"@name("a  // b /* c */") table t"#;
        let canon = canonicalize_source(s);
        assert!(canon.contains(r#""a  // b /* c */""#), "literal mangled: {canon}");
    }

    #[test]
    fn canonicalize_distinguishes_semantic_changes() {
        assert_ne!(
            canonicalize_source("bit<8> a;"),
            canonicalize_source("bit<9> a;")
        );
    }

    #[test]
    fn canonicalize_handles_unterminated_constructs() {
        // Never panics, never loops: lexically broken inputs are the fuzz
        // corpus's bread and butter.
        for s in ["/* open", "// eol", "\"open", "a /", "\\"] {
            let _ = canonicalize_source(s);
        }
    }
}
