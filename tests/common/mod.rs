//! Shared by the integration tests that drive the binary or its engine
//! options: the (key, good, bad) option table (`tests/config.rs`,
//! `tests/cli.rs`, `tests/serve.rs`), a `p4testgen serve` daemon with a
//! line-per-message client (`tests/serve.rs`, `tests/determinism.rs`), and
//! a scratch directory that removes itself (`tests/cli.rs`, `tests/diff.rs`,
//! `tests/serve.rs`, `tests/determinism.rs`).
#![allow(dead_code)] // each test crate uses its own subset

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One `(key, accepted value, rejected value)` row per
/// `TestgenConfig::set` key: a new key gets config, CLI and serve coverage
/// by adding a row.
pub const EXAMPLE_VALUES: &[(&str, &str, &str)] = &[
    ("max_tests", "3", "-1"),
    ("seed", "7", "abc"),
    ("strategy", "bfs", "sideways"),
    ("jobs", "2", "0"),
    ("solver_budget", "100000", "abc"),
    ("deadline", "300", "-1"),
    ("deadline_ms", "300000", "1.5"),
    ("shard", "0/2", "4/4"),
    ("model_loop_bound", "32", "-3"),
    ("fixed_packet_bytes", "64", "big"),
    ("fixed_packet_size", "64", "-64"),
    ("with_constraints", "true", "yes"),
];

pub fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p4testgen"))
}

/// A new directory under the temp dir, removed with its contents on drop,
/// so a test leaves nothing behind even when an assertion fails.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `p4testgen_<tag>_<pid>_<n>`, unique within the test process.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("p4testgen_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kill-on-drop guard so a failing assertion never leaks a daemon.
pub struct Daemon {
    pub child: Child,
    pub addr: String,
    pub status_addr: Option<String>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `p4testgen serve` on an ephemeral port and parse the announced
/// addresses off stderr.
pub fn spawn_serve(extra: &[&str]) -> Daemon {
    let mut child = bin()
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut status_addr = None;
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read stderr") == 0 {
            panic!("daemon exited before announcing its address");
        }
        let l = line.trim();
        if let Some(rest) = l.strip_prefix("p4testgen: status endpoint listening on http://") {
            status_addr = Some(rest.to_string());
        }
        if let Some(rest) = l.strip_prefix("p4testgen: serve listening on ") {
            break rest.split(' ').next().unwrap().to_string();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    Daemon { child, addr, status_addr }
}

/// One client connection with line-per-message framing.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { writer: stream, reader }
    }

    pub fn send(&mut self, v: &Value) {
        let mut line = serde_json::to_string(v).unwrap();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send request");
    }

    pub fn send_raw(&mut self, raw: &str) {
        self.writer.write_all(raw.as_bytes()).expect("send raw");
    }

    pub fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed the connection");
        serde_json::from_str(line.trim()).expect("response is JSON")
    }

    /// Shut down the write half (end-of-requests for a pipelining client);
    /// the read half stays open for the remaining responses.
    pub fn half_close(&mut self) {
        self.writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    }
}
