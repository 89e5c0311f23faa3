//! Live status/metrics HTTP endpoint.
//!
//! A deliberately tiny, dependency-free blocking HTTP/1.0-ish server for
//! `--status-addr`. Four routes:
//!
//! * `GET /healthz` — `200 ok` while the process is alive (pure liveness:
//!   a draining process is still healthy).
//! * `GET /readyz`  — readiness: `200 ready` while the process admits
//!   work, `503 draining` once drain has been requested. Load balancers
//!   should route on this, not `/healthz`.
//! * `GET /metrics` — Prometheus text exposition of the run's [`Registry`]
//!   (404 when the run has no registry).
//! * `GET /status`  — live JSON progress: elapsed time, tests emitted,
//!   paths explored, frontier/queue depth, coverage, worker busy/total,
//!   checkpoint age and size, and an ETA extrapolated from the
//!   coverage-growth curve. An optional [`StatusExtra`] provider merges
//!   additional rows (the serve daemon's requests table) into the
//!   document.
//!
//! The server runs one accept-loop thread and handles connections
//! serially — status polling is human/CI-frequency traffic, and a serial
//! loop keeps the implementation free of thread churn. The accept loop is
//! non-blocking with a bounded poll interval, so `shutdown` always joins
//! within one poll tick — no throwaway self-connection, no detached
//! thread leaking past process teardown. Reads carry a short timeout so a
//! stalled client cannot wedge the endpoint. The engine never waits on
//! the server; all shared state is atomics updated from the hot path with
//! relaxed ordering, so enabling the endpoint cannot perturb exploration
//! (suites stay byte-identical).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::value::{Number, Value};

use crate::metrics::Registry;

/// Sentinel for "no checkpoint written yet".
const NEVER: u64 = u64::MAX;

/// Bound on retained coverage-growth samples; when full, every other
/// sample is dropped (halving keeps the curve's shape).
const MAX_SAMPLES: usize = 512;

/// Live run progress, shared between the engine (writer) and the HTTP
/// server (reader). All counters are monotonic or last-write-wins; the
/// reader composes a snapshot without locks (except the sample curve).
#[derive(Default)]
pub struct LiveStatus {
    pub tests_emitted: AtomicU64,
    pub paths_explored: AtomicU64,
    /// Frontier: queued-but-unexplored paths (journal pending).
    pub frontier_depth: AtomicU64,
    /// States currently held by workers (popped, not yet retired).
    pub queue_live: AtomicU64,
    pub covered: AtomicU64,
    pub total_statements: AtomicU64,
    pub workers_busy: AtomicUsize,
    pub workers_total: AtomicUsize,
    /// Milliseconds since `started` at the last checkpoint flush; NEVER
    /// when no checkpoint has been written.
    checkpoint_at_ms: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
    done: AtomicBool,
    started: Mutex<Option<Instant>>,
    /// (elapsed_ms, covered) samples for the ETA extrapolation.
    samples: Mutex<Vec<(u64, u64)>>,
}

impl LiveStatus {
    pub fn new() -> Self {
        let s = LiveStatus::default();
        s.checkpoint_at_ms.store(NEVER, Ordering::Relaxed);
        *s.started.lock() = Some(Instant::now());
        s
    }

    fn elapsed_ms(&self) -> u64 {
        let started = *self.started.lock();
        started.map_or(0, |t| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    /// Record one coverage observation for the growth curve.
    pub fn sample_coverage(&self, covered: u64) {
        self.covered.store(covered, Ordering::Relaxed);
        let now = self.elapsed_ms();
        let mut samples = self.samples.lock();
        if samples.len() >= MAX_SAMPLES {
            let kept: Vec<_> = samples.iter().copied().step_by(2).collect();
            *samples = kept;
        }
        samples.push((now, covered));
    }

    /// Publish one progress snapshot: the frontier depth, tests emitted,
    /// paths explored, states held by workers, and statements covered
    /// (also recorded as a coverage-growth sample).
    pub fn publish(&self, frontier: u64, emitted: u64, paths: u64, queue_live: u64, covered: u64) {
        self.frontier_depth.store(frontier, Ordering::Relaxed);
        self.tests_emitted.store(emitted, Ordering::Relaxed);
        self.paths_explored.store(paths, Ordering::Relaxed);
        self.queue_live.store(queue_live, Ordering::Relaxed);
        self.sample_coverage(covered);
    }

    /// Note a successful checkpoint flush of `bytes` bytes.
    pub fn note_checkpoint(&self, bytes: u64) {
        self.checkpoint_bytes.store(bytes, Ordering::Relaxed);
        self.checkpoint_at_ms.store(self.elapsed_ms(), Ordering::Relaxed);
    }

    /// Mark the run finished (the endpoint may linger to serve the final
    /// snapshot).
    pub fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    /// ETA to full coverage in milliseconds, extrapolated linearly from
    /// the first and last growth samples. `None` when the curve is flat,
    /// empty, or coverage is already complete.
    fn eta_ms(&self) -> Option<u64> {
        let total = self.total_statements.load(Ordering::Relaxed);
        let covered = self.covered.load(Ordering::Relaxed);
        if total == 0 || covered >= total {
            return None;
        }
        let samples = self.samples.lock();
        let (t0, c0) = *samples.first()?;
        let (t1, c1) = *samples.last()?;
        if t1 <= t0 || c1 <= c0 {
            return None; // no measurable growth yet
        }
        let rate = (c1 - c0) as f64 / (t1 - t0) as f64; // statements per ms
        Some(((total - covered) as f64 / rate) as u64)
    }

    /// The `/status` document.
    pub fn status_json(&self) -> Value {
        let total = self.total_statements.load(Ordering::Relaxed);
        let covered = self.covered.load(Ordering::Relaxed);
        let percent =
            if total == 0 { 0.0 } else { covered as f64 * 100.0 / total as f64 };
        let ckpt_at = self.checkpoint_at_ms.load(Ordering::Relaxed);
        let checkpoint = if ckpt_at == NEVER {
            Value::Null
        } else {
            Value::Object(vec![
                (
                    "age_ms".to_string(),
                    Value::Number(Number::U(self.elapsed_ms().saturating_sub(ckpt_at))),
                ),
                (
                    "bytes".to_string(),
                    Value::Number(Number::U(self.checkpoint_bytes.load(Ordering::Relaxed))),
                ),
            ])
        };
        Value::Object(vec![
            (
                "state".to_string(),
                Value::String(
                    if self.done.load(Ordering::Relaxed) { "done" } else { "running" }
                        .to_string(),
                ),
            ),
            ("elapsed_ms".to_string(), Value::Number(Number::U(self.elapsed_ms()))),
            (
                "tests_emitted".to_string(),
                Value::Number(Number::U(self.tests_emitted.load(Ordering::Relaxed))),
            ),
            (
                "paths_explored".to_string(),
                Value::Number(Number::U(self.paths_explored.load(Ordering::Relaxed))),
            ),
            (
                "frontier_depth".to_string(),
                Value::Number(Number::U(self.frontier_depth.load(Ordering::Relaxed))),
            ),
            (
                "queue_live".to_string(),
                Value::Number(Number::U(self.queue_live.load(Ordering::Relaxed))),
            ),
            (
                "coverage".to_string(),
                Value::Object(vec![
                    ("covered".to_string(), Value::Number(Number::U(covered))),
                    ("total".to_string(), Value::Number(Number::U(total))),
                    ("percent".to_string(), Value::Number(Number::F(percent))),
                ]),
            ),
            (
                "workers".to_string(),
                Value::Object(vec![
                    (
                        "busy".to_string(),
                        Value::Number(Number::U(
                            self.workers_busy.load(Ordering::Relaxed) as u64
                        )),
                    ),
                    (
                        "total".to_string(),
                        Value::Number(Number::U(
                            self.workers_total.load(Ordering::Relaxed) as u64
                        )),
                    ),
                ]),
            ),
            ("checkpoint".to_string(), checkpoint),
            (
                "eta_ms".to_string(),
                self.eta_ms().map_or(Value::Null, |ms| Value::Number(Number::U(ms))),
            ),
        ])
    }
}

/// Extra rows merged into the `/status` document, e.g. the serve daemon's
/// per-request table. Called per request; must be cheap and lock-light.
pub type StatusExtra = Arc<dyn Fn() -> Vec<(String, Value)> + Send + Sync>;

/// Bounded accept-poll interval: the server thread wakes at least this
/// often to observe the stop flag, so shutdown latency is capped.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// The status endpoint. Binds on construction; serves until dropped or
/// [`StatusServer::shutdown`].
pub struct StatusServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving `status` and,
    /// when present, `registry` under `/metrics`.
    pub fn bind(
        addr: &str,
        status: Arc<LiveStatus>,
        registry: Option<Arc<Registry>>,
    ) -> std::io::Result<StatusServer> {
        StatusServer::bind_full(addr, status, registry, None, None)
    }

    /// [`StatusServer::bind`] plus a readiness flag (`/readyz` flips to
    /// `503 draining` once it is set) and an extra `/status` row provider.
    pub fn bind_full(
        addr: &str,
        status: Arc<LiveStatus>,
        registry: Option<Arc<Registry>>,
        draining: Option<Arc<AtomicBool>>,
        extra: Option<StatusExtra>,
    ) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept with a bounded poll keeps shutdown
        // deterministic: the thread observes the stop flag within
        // ACCEPT_POLL even if no client ever connects again.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let requests = Arc::clone(&requests);
            std::thread::Builder::new()
                .name("p4testgen-status".to_string())
                .spawn(move || loop {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Per-connection IO goes back to blocking mode
                            // with timeouts (set in serve_one).
                            if stream.set_nonblocking(false).is_err() {
                                continue;
                            }
                            requests.fetch_add(1, Ordering::Relaxed);
                            let _ = serve_one(
                                stream,
                                &status,
                                registry.as_deref(),
                                draining.as_deref(),
                                extra.as_ref(),
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                })
                .expect("spawn status-server thread")
        };
        Ok(StatusServer { addr: local, stop, requests, handle: Some(handle) })
    }

    /// The bound address (reports the real port when bound to port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stop accepting and join the server thread. Bounded: the accept
    /// loop polls, so the join completes within one poll interval plus
    /// any in-flight request's IO timeouts.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(
    mut stream: TcpStream,
    status: &LiveStatus,
    registry: Option<&Registry>,
    draining: Option<&AtomicBool>,
    extra: Option<&StatusExtra>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request line; headers and bodies are
    // irrelevant for GET routing.
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(2).any(|w| w == b"\r\n") || req.len() >= 8192 {
            break;
        }
    }
    let line = String::from_utf8_lossy(&req);
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let (code, content_type, body) = match path {
        // Liveness: the process is up. Deliberately stays 200 during
        // drain — restarting a draining process would lose its in-flight
        // work for no reason.
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        // Readiness: whether new work will be admitted.
        "/readyz" => {
            if draining.is_some_and(|d| d.load(Ordering::Acquire)) {
                ("503 Service Unavailable", "text/plain", "draining\n".to_string())
            } else {
                ("200 OK", "text/plain", "ready\n".to_string())
            }
        }
        "/status" => (
            "200 OK",
            "application/json",
            {
                let mut doc = status.status_json();
                if let (Value::Object(rows), Some(provider)) = (&mut doc, extra) {
                    rows.extend(provider());
                }
                let mut body = serde_json::to_string(&doc).expect("status serializes");
                body.push('\n');
                body
            },
        ),
        "/metrics" => match registry {
            Some(reg) => ("200 OK", "text/plain; version=0.0.4", reg.render_prometheus()),
            None => ("404 Not Found", "text/plain", "no metrics registry for this run\n".to_string()),
        },
        _ => ("404 Not Found", "text/plain", "unknown path\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {code}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let split = out.find("\r\n\r\n").expect("response has a header/body split");
        (out[..split].to_string(), out[split + 4..].to_string())
    }

    #[test]
    fn serves_healthz_status_metrics_and_404() {
        let status = Arc::new(LiveStatus::new());
        status.tests_emitted.store(3, Ordering::Relaxed);
        status.total_statements.store(10, Ordering::Relaxed);
        status.sample_coverage(5);
        let registry = Arc::new(Registry::new());
        registry.counter("p4testgen_tests_emitted_total", "tests").add(3);
        let server =
            StatusServer::bind("127.0.0.1:0", Arc::clone(&status), Some(registry)).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/status");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let v: Value = serde_json::from_str(&body).expect("status is JSON");
        assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("running"));
        assert_eq!(v.get("tests_emitted").and_then(|n| n.as_u64()), Some(3));
        let cov = v.get("coverage").expect("coverage object");
        assert_eq!(cov.get("covered").and_then(|n| n.as_u64()), Some(5));
        assert_eq!(cov.get("total").and_then(|n| n.as_u64()), Some(10));

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("p4testgen_tests_emitted_total"), "{body}");

        let (head, _) = get(addr, "/nonesuch");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        assert!(server.requests() >= 4);
    }

    #[test]
    fn readyz_tracks_draining_flag_and_healthz_stays_live() {
        let status = Arc::new(LiveStatus::new());
        let draining = Arc::new(AtomicBool::new(false));
        let extra: StatusExtra = {
            Arc::new(|| vec![("requests".to_string(), Value::Number(Number::U(7)))])
        };
        let server = StatusServer::bind_full(
            "127.0.0.1:0",
            status,
            None,
            Some(Arc::clone(&draining)),
            Some(extra),
        )
        .unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ready\n");

        draining.store(true, Ordering::Release);
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert_eq!(body, "draining\n");
        // Liveness is unaffected by drain.
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        // The extra provider's rows land in /status.
        let (_, body) = get(addr, "/status");
        let v: Value = serde_json::from_str(&body).expect("status is JSON");
        assert_eq!(v.get("requests").and_then(|n| n.as_u64()), Some(7));
    }

    #[test]
    fn readyz_without_flag_is_always_ready() {
        let status = Arc::new(LiveStatus::new());
        let server = StatusServer::bind("127.0.0.1:0", status, None).unwrap();
        let (head, body) = get(server.local_addr(), "/readyz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ready\n");
    }

    #[test]
    fn shutdown_joins_promptly_without_a_final_connection() {
        let status = Arc::new(LiveStatus::new());
        let mut server = StatusServer::bind("127.0.0.1:0", status, None).unwrap();
        let t0 = std::time::Instant::now();
        server.shutdown();
        // Bounded by the accept poll interval, with generous slack for
        // loaded CI machines.
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn metrics_without_registry_is_404_and_shutdown_joins() {
        let status = Arc::new(LiveStatus::new());
        let mut server = StatusServer::bind("127.0.0.1:0", status, None).unwrap();
        let (head, _) = get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        server.shutdown();
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn eta_extrapolates_from_growth_curve() {
        let status = LiveStatus::new();
        status.total_statements.store(100, Ordering::Relaxed);
        // Manufacture a curve: 10 statements over some elapsed window.
        {
            let mut samples = status.samples.lock();
            samples.push((0, 0));
            samples.push((1000, 10));
        }
        status.covered.store(10, Ordering::Relaxed);
        let eta = status.eta_ms().expect("growth implies an ETA");
        // 90 remaining at 10/s => ~9000 ms.
        assert_eq!(eta, 9000);
        // Full coverage: no ETA.
        status.covered.store(100, Ordering::Relaxed);
        assert!(status.eta_ms().is_none());
    }

    #[test]
    fn sample_curve_stays_bounded() {
        let status = LiveStatus::new();
        for i in 0..(MAX_SAMPLES as u64 * 4) {
            status.sample_coverage(i);
        }
        assert!(status.samples.lock().len() <= MAX_SAMPLES + 1);
    }
}
