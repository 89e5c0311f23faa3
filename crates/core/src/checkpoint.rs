//! Sharding, checkpointing, and crash-resumable exploration state.
//!
//! Fork trails are a total, schedule-independent address space over the
//! path tree (see `testgen.rs`), which makes exploration state *portable*:
//! a run is fully described by which trails are still unexplored (the
//! frontier), which tests have been emitted (keyed by trail), and a handful
//! of monotone accumulators. [`ExplorationState`] captures exactly that and
//! round-trips through a versioned, checksummed binary file.
//!
//! Three consumers share this module:
//!
//! * **Checkpoint/resume** — the engine periodically snapshots its journal
//!   into an `ExplorationState` and writes it with an atomic
//!   rename-on-write; `--resume` loads it, validates the config hash, and
//!   replays the frontier trails to reconstruct live states. A completed
//!   resumed run emits the byte-identical suite of an uninterrupted run.
//! * **Sharding** — [`ShardSpec`] hash-partitions the trail space so N
//!   independent processes explore disjoint subtrees;
//!   [`merge_shard_suites`] k-way-merges their emitted tests back into the
//!   single-run suite (same `max_tests` semantics: lex-smallest trails).
//! * **Graceful degradation** — corrupt or truncated files decode to a
//!   classified [`CheckpointError`], never a panic, so a caller can warn
//!   and fall back to a cold start.
//!
//! ## File format (version 1)
//!
//! ```text
//! magic "P4TGCKPT" | u32 version | u64 config_hash
//! record*          (u8 tag, u32 len, payload[len], u64 fnv1a(payload))
//! end record       (tag 0xFF, len 0, checksum of empty payload)
//! ```
//!
//! All integers little-endian. Unknown record tags are skipped (their
//! checksum is still verified), so minor-version readers tolerate appended
//! record kinds. The config hash covers every suite-affecting config field
//! plus the program source and target name — never schedule-only knobs
//! (`jobs`, `deadline`, fault plans), so a resumed run may change worker
//! count and still produce identical bytes.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::fault::trail_hash;
use crate::summary::{ErrorStats, PanicRecord};
use crate::testspec::TestSpec;

/// File magic: identifies a p4testgen checkpoint.
const MAGIC: &[u8; 8] = b"P4TGCKPT";
/// Current format version. Bump on any incompatible layout change.
const VERSION: u32 = 1;

/// Number of leading trail elements that decide shard ownership. Depth 2
/// keeps the root and first fork generation shared (every shard replays
/// them — they are a handful of states) while partitioning the exponential
/// part of the tree.
pub const SHARD_PREFIX_LEN: usize = 2;

/// Record tags. Append-only once a version ships.
mod tag {
    pub const FRONTIER: u8 = 1;
    pub const EMITTED: u8 = 2;
    pub const BEST: u8 = 3;
    pub const COVERAGE: u8 = 4;
    pub const MEMO: u8 = 5;
    pub const COUNTERS: u8 = 6;
    pub const ERRORS: u8 = 7;
    /// The `--shard i/N` filter the writing run was under (absent in
    /// files written before this tag existed; older readers skip it).
    pub const SHARD: u8 = 8;
    pub const END: u8 = 0xFF;
}

/// FNV-1a over a byte slice; the per-record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = crate::FNV_OFFSET;
    crate::fnv_mix(&mut h, bytes);
    h
}

/// One shard of a partitioned exploration: this process owns the trails
/// whose hashed [`SHARD_PREFIX_LEN`]-prefix maps to `index` (mod `count`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u32,
    /// Total number of shards, `>= 1`.
    pub count: u32,
}

impl ShardSpec {
    /// Parse the CLI form `i/N` (e.g. `0/4`). `i < N`, `N >= 1`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s.split_once('/').ok_or_else(|| format!("--shard wants i/N, got '{s}'"))?;
        let index: u32 = i.trim().parse().map_err(|_| format!("bad shard index '{i}'"))?;
        let count: u32 = n.trim().parse().map_err(|_| format!("bad shard count '{n}'"))?;
        if count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count} shard(s)"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Which shard owns a trail: hash of the (clamped) prefix, mod count.
    fn shard_of(&self, trail: &[u32]) -> u32 {
        let prefix = &trail[..trail.len().min(SHARD_PREFIX_LEN)];
        (trail_hash(prefix) % u64::from(self.count)) as u32
    }

    /// May this shard still own states somewhere below `trail`? Trails
    /// shorter than the prefix are shared by construction (their subtree
    /// spans every shard); once the prefix is fixed, ownership is decided.
    pub fn may_own_subtree(&self, trail: &[u32]) -> bool {
        trail.len() < SHARD_PREFIX_LEN || self.shard_of(trail) == self.index
    }

    /// Does this shard own the *emission* of a completed path? Exactly one
    /// shard answers true for any trail, including short ones.
    pub fn owns_test(&self, trail: &[u32]) -> bool {
        self.shard_of(trail) == self.index
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Checkpointing configuration carried in `TestgenConfig`.
#[derive(Clone, Debug)]
pub struct CheckpointCfg {
    /// Destination file; written atomically (tmp + rename).
    pub path: PathBuf,
    /// Minimum interval between periodic flushes. A final flush always
    /// happens at run end (clean, drained, or killed).
    pub every: Duration,
}

impl CheckpointCfg {
    pub fn new(path: impl Into<PathBuf>) -> CheckpointCfg {
        CheckpointCfg { path: path.into(), every: Duration::from_secs(2) }
    }
}

/// Why a checkpoint file could not be used. `kind()` is the stable
/// classification key surfaced in warnings and telemetry.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The magic bytes are wrong: not a checkpoint file.
    NotACheckpoint,
    /// A checkpoint, but from an incompatible format version.
    UnsupportedVersion(u32),
    /// The file ends mid-record (interrupted write of a non-atomic copy).
    Truncated,
    /// A record's checksum does not match its payload.
    Checksum,
    /// Structurally valid records with nonsensical contents.
    Malformed(String),
    /// The checkpoint's config hash does not match this run's.
    ConfigMismatch { expected: u64, found: u64 },
}

impl CheckpointError {
    /// Stable classification key for warnings/metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            CheckpointError::Io(_) => "io",
            CheckpointError::NotACheckpoint => "not-a-checkpoint",
            CheckpointError::UnsupportedVersion(_) => "unsupported-version",
            CheckpointError::Truncated => "truncated",
            CheckpointError::Checksum => "checksum",
            CheckpointError::Malformed(_) => "malformed",
            CheckpointError::ConfigMismatch { .. } => "config-mismatch",
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint unreadable: {e}"),
            CheckpointError::NotACheckpoint => write!(f, "not a p4testgen checkpoint file"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Checksum => write!(f, "checkpoint record failed its checksum"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a different run configuration \
                 (expected {expected:#018x}, found {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The complete serializable state of an exploration run: everything the
/// engine needs to continue where a previous process stopped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplorationState {
    /// Fingerprint of the suite-affecting configuration + program source +
    /// target (see `Testgen::run_fingerprint`). Resume refuses a mismatch.
    pub config_hash: u64,
    /// Unexplored frontier: queue-time trails (ending in a nonzero element,
    /// or the root `[]`), sorted.
    pub frontier: Vec<Vec<u32>>,
    /// Tests emitted so far, keyed by their full completed-path trail,
    /// sorted by trail.
    pub emitted: Vec<(Vec<u32>, TestSpec)>,
    /// Contents of the top-k emitted-trail heap (`max_tests` pruning),
    /// sorted.
    pub best: Vec<Vec<u32>>,
    /// Raw coverage bitset words.
    pub coverage_words: Vec<u64>,
    /// Coverage novelty epoch matching the bitset.
    pub coverage_epoch: u64,
    /// Persistable feasibility memo: stable constraint-set fingerprints
    /// (`p4t_smt::stable_fingerprint`) and their sat verdicts, sorted.
    pub memo: Vec<(u128, bool)>,
    /// Paths fully processed so far.
    pub paths_explored: u64,
    /// Infeasible paths so far.
    pub infeasible_paths: u64,
    /// Abandoned paths so far.
    pub abandoned_paths: u64,
    /// Cumulative degradation taxonomy.
    pub errors: ErrorStats,
    /// Checkpoints written over the campaign so far (all resumed segments).
    pub checkpoints_written: u64,
    /// The `--shard` filter the writing run was under, if any. The config
    /// hash deliberately excludes sharding (shards of one partition must
    /// share a fingerprint), so resume compares this field separately and
    /// warns on mismatch — a different filter silently abandons frontier
    /// subtrees the new process does not own.
    pub shard: Option<ShardSpec>,
}

impl ExplorationState {
    /// Serialize to the versioned record format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, self.config_hash);

        let mut payload = Vec::new();
        put_u64(&mut payload, self.frontier.len() as u64);
        for t in &self.frontier {
            put_trail(&mut payload, t);
        }
        put_record(&mut out, tag::FRONTIER, &payload);

        payload.clear();
        put_u64(&mut payload, self.emitted.len() as u64);
        for (t, spec) in &self.emitted {
            put_trail(&mut payload, t);
            // TestSpec round-trips through its serde JSON form: the spec is
            // already the externally-stable artifact (the json backend
            // emits it), so no second binary schema to keep in sync.
            let json = serde_json::to_string(spec).unwrap_or_default();
            put_bytes(&mut payload, json.as_bytes());
        }
        put_record(&mut out, tag::EMITTED, &payload);

        payload.clear();
        put_u64(&mut payload, self.best.len() as u64);
        for t in &self.best {
            put_trail(&mut payload, t);
        }
        put_record(&mut out, tag::BEST, &payload);

        payload.clear();
        put_u64(&mut payload, self.coverage_epoch);
        put_u64(&mut payload, self.coverage_words.len() as u64);
        for &w in &self.coverage_words {
            put_u64(&mut payload, w);
        }
        put_record(&mut out, tag::COVERAGE, &payload);

        payload.clear();
        put_u64(&mut payload, self.memo.len() as u64);
        for &(fp, sat) in &self.memo {
            put_u128(&mut payload, fp);
            payload.push(u8::from(sat));
        }
        put_record(&mut out, tag::MEMO, &payload);

        payload.clear();
        put_u64(&mut payload, self.paths_explored);
        put_u64(&mut payload, self.infeasible_paths);
        put_u64(&mut payload, self.abandoned_paths);
        put_u64(&mut payload, self.checkpoints_written);
        put_record(&mut out, tag::COUNTERS, &payload);

        payload.clear();
        put_errors(&mut payload, &self.errors);
        put_record(&mut out, tag::ERRORS, &payload);

        payload.clear();
        match self.shard {
            Some(s) => {
                payload.push(1);
                put_u32(&mut payload, s.index);
                put_u32(&mut payload, s.count);
            }
            None => payload.push(0),
        }
        put_record(&mut out, tag::SHARD, &payload);

        put_record(&mut out, tag::END, &[]);
        out
    }

    /// Decode a checkpoint, verifying magic, version, and per-record
    /// checksums. Classified errors; never panics on arbitrary bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExplorationState, CheckpointError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = cur.take(8)?;
        if magic != MAGIC {
            return Err(CheckpointError::NotACheckpoint);
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let mut state = ExplorationState { config_hash: cur.u64()?, ..Default::default() };
        let mut saw_end = false;
        while cur.pos < cur.bytes.len() {
            let t = cur.u8()?;
            let len = cur.u32()? as usize;
            let payload = cur.take(len)?;
            let sum = cur.u64()?;
            if sum != fnv1a(payload) {
                return Err(CheckpointError::Checksum);
            }
            let mut rec = Cursor { bytes: payload, pos: 0 };
            match t {
                tag::FRONTIER => {
                    let n = rec.u64()? as usize;
                    let mut v = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        v.push(rec.trail()?);
                    }
                    state.frontier = v;
                }
                tag::EMITTED => {
                    let n = rec.u64()? as usize;
                    let mut v = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        let trail = rec.trail()?;
                        let json = rec.bytes_field()?;
                        let spec: TestSpec = serde_json::from_slice(json).map_err(|e| {
                            CheckpointError::Malformed(format!("test spec: {e:?}"))
                        })?;
                        v.push((trail, spec));
                    }
                    state.emitted = v;
                }
                tag::BEST => {
                    let n = rec.u64()? as usize;
                    let mut v = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        v.push(rec.trail()?);
                    }
                    state.best = v;
                }
                tag::COVERAGE => {
                    state.coverage_epoch = rec.u64()?;
                    let n = rec.u64()? as usize;
                    let mut v = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        v.push(rec.u64()?);
                    }
                    state.coverage_words = v;
                }
                tag::MEMO => {
                    let n = rec.u64()? as usize;
                    let mut v = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        let fp = rec.u128()?;
                        let sat = rec.u8()? != 0;
                        v.push((fp, sat));
                    }
                    state.memo = v;
                }
                tag::COUNTERS => {
                    state.paths_explored = rec.u64()?;
                    state.infeasible_paths = rec.u64()?;
                    state.abandoned_paths = rec.u64()?;
                    state.checkpoints_written = rec.u64()?;
                }
                tag::ERRORS => {
                    state.errors = take_errors(&mut rec)?;
                }
                tag::SHARD => {
                    if rec.u8()? == 0 {
                        continue;
                    }
                    let index = rec.u32()?;
                    let count = rec.u32()?;
                    if count == 0 || index >= count {
                        return Err(CheckpointError::Malformed(format!(
                            "shard {index}/{count} out of range"
                        )));
                    }
                    state.shard = Some(ShardSpec { index, count });
                }
                tag::END => {
                    saw_end = true;
                    break;
                }
                // Unknown tag from a newer minor writer: checksum already
                // verified, content skipped.
                _ => {}
            }
        }
        if !saw_end {
            return Err(CheckpointError::Truncated);
        }
        Ok(state)
    }

    /// Write atomically: serialize to `<path>.tmp`, fsync, rename over the
    /// destination. A crash mid-write leaves the previous checkpoint (or
    /// nothing) in place, never a torn file at `path`.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        write_bytes_atomic(path, &self.to_bytes())
    }

    /// [`ExplorationState::write_atomic`] with bounded retry: transient IO
    /// errors (EINTR, EAGAIN, ENOSPC — a filesystem mid-reclaim can clear
    /// within milliseconds) are retried up to [`WRITE_ATTEMPTS`] times with
    /// deterministic jittered backoff. Non-transient errors and final
    /// failures come back classified in [`WriteFailure`] so the caller can
    /// warn instead of silently losing the checkpoint. Returns the number
    /// of attempts the successful write took (1 = first try).
    pub fn write_atomic_retry(&self, path: &Path) -> Result<u32, WriteFailure> {
        let bytes = self.to_bytes();
        let salt = fnv1a(path.to_string_lossy().as_bytes());
        let mut attempt = 1u32;
        loop {
            match write_bytes_atomic(path, &bytes) {
                Ok(()) => return Ok(attempt),
                Err(error) => {
                    let transient = is_transient_io(&error);
                    if !transient || attempt >= WRITE_ATTEMPTS {
                        return Err(WriteFailure { error, attempts: attempt, transient });
                    }
                    std::thread::sleep(retry_backoff(attempt, salt));
                    attempt += 1;
                }
            }
        }
    }

    /// Load and decode a checkpoint file.
    pub fn load(path: &Path) -> Result<ExplorationState, CheckpointError> {
        let bytes = fs::read(path).map_err(CheckpointError::Io)?;
        ExplorationState::from_bytes(&bytes)
    }

    /// Validate this state against a run fingerprint.
    pub fn validate_config(&self, fingerprint: u64) -> Result<(), CheckpointError> {
        if self.config_hash != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected: fingerprint,
                found: self.config_hash,
            });
        }
        Ok(())
    }

    /// True when the recorded run had finished exploring (nothing left to
    /// resume; the suite is exactly `emitted`).
    pub fn is_complete(&self) -> bool {
        self.frontier.is_empty()
    }
}

/// Maximum attempts for [`ExplorationState::write_atomic_retry`].
pub const WRITE_ATTEMPTS: u32 = 3;

/// A checkpoint write that failed after retry, with its classification.
#[derive(Debug)]
pub struct WriteFailure {
    /// The last attempt's error.
    pub error: std::io::Error,
    /// How many attempts were made (1..=[`WRITE_ATTEMPTS`]).
    pub attempts: u32,
    /// Whether the final error was transient (retried and still failing)
    /// or permanent (retry would be pointless; failed fast).
    pub transient: bool,
}

impl fmt::Display for WriteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} IO error, {} attempt{})",
            self.error,
            if self.transient { "transient" } else { "permanent" },
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
        )
    }
}

/// Is this IO error worth retrying? Signal interruptions and momentary
/// resource exhaustion clear on their own; permission or path errors do
/// not.
pub fn is_transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(4 /* EINTR */ | 11 /* EAGAIN */ | 28 /* ENOSPC */))
}

/// Deterministic jittered backoff: exponential base (5ms · 2^(attempt-1))
/// plus a jitter derived from the path hash and attempt number — no clock
/// or RNG, so a given (path, attempt) always waits the same duration.
fn retry_backoff(attempt: u32, salt: u64) -> Duration {
    let base = 5u64 << (attempt.saturating_sub(1)).min(8);
    let jitter = trail_hash(&[attempt, (salt & 0xFFFF_FFFF) as u32, (salt >> 32) as u32]) % 8;
    Duration::from_millis(base + jitter)
}

/// The shared tmp + write + fsync + rename sequence.
fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Merge per-shard emissions back into the single-run suite: k-way merge by
/// trail (the global emission order), cap to `max_tests` lex-smallest
/// trails, renumber ids. Byte-identical to the suite of an unsharded run
/// with the same config, provided the inputs are the complete emissions of
/// each shard of one partition.
pub fn merge_shard_suites(
    shards: Vec<Vec<(Vec<u32>, TestSpec)>>,
    max_tests: u64,
) -> Vec<TestSpec> {
    let mut all: Vec<(Vec<u32>, TestSpec)> = shards.into_iter().flatten().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    // Trails are unique across a correct partition; drop duplicates
    // defensively (overlapping inputs, e.g. the same shard given twice).
    all.dedup_by(|a, b| a.0 == b.0);
    if max_tests > 0 {
        all.truncate(max_tests as usize);
    }
    // Same renumbering convention as `Testgen::try_run`: ids are the
    // 0-based position in trail order.
    all.into_iter()
        .enumerate()
        .map(|(i, (_, mut spec))| {
            spec.id = i as u64;
            spec
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Encoding helpers.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_trail(out: &mut Vec<u8>, t: &[u32]) {
    put_u32(out, t.len() as u32);
    for &e in t {
        put_u32(out, e);
    }
}

fn put_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u64(out, fnv1a(payload));
}

fn put_errors(out: &mut Vec<u8>, e: &ErrorStats) {
    put_u64(out, e.unknown_queries);
    put_u64(out, e.budget_retries);
    put_u64(out, e.panicked_paths);
    out.push(u8::from(e.deadline_expired));
    put_u64(out, e.model_defaults);
    put_u64(out, e.frontend_warnings);
    put_u32(out, e.abandoned_by_reason.len() as u32);
    for (k, v) in &e.abandoned_by_reason {
        put_bytes(out, k.as_bytes());
        put_u64(out, *v);
    }
    put_u32(out, e.panics.len() as u32);
    for p in &e.panics {
        put_trail(out, &p.trail);
        put_bytes(out, p.payload.as_bytes());
        match &p.last_trace {
            Some(s) => {
                out.push(1);
                put_bytes(out, s.as_bytes());
            }
            None => out.push(0),
        }
    }
}

fn take_errors(rec: &mut Cursor<'_>) -> Result<ErrorStats, CheckpointError> {
    let mut e = ErrorStats {
        unknown_queries: rec.u64()?,
        budget_retries: rec.u64()?,
        panicked_paths: rec.u64()?,
        deadline_expired: rec.u8()? != 0,
        model_defaults: rec.u64()?,
        frontend_warnings: rec.u64()?,
        ..Default::default()
    };
    let n = rec.u32()? as usize;
    for _ in 0..n {
        let k = rec.string_field()?;
        let v = rec.u64()?;
        e.abandoned_by_reason.insert(k, v);
    }
    let n = rec.u32()? as usize;
    for _ in 0..n {
        let trail = rec.trail()?;
        let payload = rec.string_field()?;
        let last_trace = if rec.u8()? != 0 { Some(rec.string_field()?) } else { None };
        e.panics.push(PanicRecord { trail, payload, last_trace });
    }
    Ok(e)
}

/// Bounds-checked reader over a byte slice: every overrun is `Truncated`.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn u128(&mut self) -> Result<u128, CheckpointError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    fn trail(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.u32()? as usize;
        // Trails are fork paths; anything astronomically long is garbage.
        if n > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut t = Vec::with_capacity(n);
        for _ in 0..n {
            t.push(self.u32()?);
        }
        Ok(t)
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string_field(&mut self) -> Result<String, CheckpointError> {
        let b = self.bytes_field()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CheckpointError::Malformed("non-utf8 string".to_string()))
    }
}

/// Used by tests and the engine: is this set of trails a well-formed
/// frontier (queue-time trails only)?
pub(crate) fn is_queue_time_trail(trail: &[u32]) -> bool {
    trail.is_empty() || trail.last().is_some_and(|&e| e != 0)
}

/// Defensive frontier filter used on resume: drop trails that could never
/// have been queued (corrupt state that still passed checksums).
pub(crate) fn sanitize_frontier(frontier: Vec<Vec<u32>>) -> BTreeSet<Vec<u32>> {
    frontier.into_iter().filter(|t| is_queue_time_trail(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ExplorationState {
        let mut errors = ErrorStats { unknown_queries: 3, budget_retries: 1, ..Default::default() };
        errors.bump_reason("solver-unknown");
        errors.panics.push(PanicRecord {
            trail: vec![1, 0, 2],
            payload: "boom".to_string(),
            last_trace: Some("last".to_string()),
        });
        ExplorationState {
            config_hash: 0xDEAD_BEEF_1234_5678,
            frontier: vec![vec![], vec![1], vec![2, 1]],
            emitted: Vec::new(),
            best: vec![vec![1, 0], vec![2, 0]],
            coverage_words: vec![0b1011, u64::MAX],
            coverage_epoch: 7,
            memo: vec![(42u128, true), (u128::MAX - 1, false)],
            paths_explored: 10,
            infeasible_paths: 2,
            abandoned_paths: 1,
            errors,
            checkpoints_written: 4,
            shard: Some(ShardSpec { index: 1, count: 4 }),
        }
    }

    #[test]
    fn round_trip_identity() {
        let st = sample_state();
        let bytes = st.to_bytes();
        let back = ExplorationState::from_bytes(&bytes).expect("decode");
        assert_eq!(st, back);
    }

    #[test]
    fn truncation_is_classified_not_a_panic() {
        let bytes = sample_state().to_bytes();
        for cut in [0, 4, 7, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            match ExplorationState::from_bytes(&bytes[..cut]) {
                Err(CheckpointError::Truncated) | Err(CheckpointError::NotACheckpoint) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mut bytes = sample_state().to_bytes();
        // Flip a byte inside the first record's payload (after the
        // 8+4+8 header and the record's 1+4 tag/len).
        let idx = 8 + 4 + 8 + 5 + 2;
        bytes[idx] ^= 0x40;
        match ExplorationState::from_bytes(&bytes) {
            Err(CheckpointError::Checksum) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_version_are_classified() {
        let mut bytes = sample_state().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ExplorationState::from_bytes(&bytes),
            Err(CheckpointError::NotACheckpoint)
        ));
        let mut bytes = sample_state().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            ExplorationState::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            ExplorationState::from_bytes(b"short"),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn config_validation() {
        let st = sample_state();
        assert!(st.validate_config(st.config_hash).is_ok());
        let err = st.validate_config(1).unwrap_err();
        assert_eq!(err.kind(), "config-mismatch");
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        assert_eq!(ShardSpec::parse("0/1").unwrap(), ShardSpec { index: 0, count: 1 });
        assert_eq!(ShardSpec::parse("3/4").unwrap(), ShardSpec { index: 3, count: 4 });
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("1/0").is_err());
        assert!(ShardSpec::parse("banana").is_err());

        // Every trail is owned by exactly one of N shards, and subtree
        // ownership is consistent with emission ownership at depth >= 2.
        let shards: Vec<ShardSpec> =
            (0..4).map(|i| ShardSpec { index: i, count: 4 }).collect();
        for a in 0..6u32 {
            for b in 0..6u32 {
                let trail = vec![a, b, 1, 0, 2];
                let owners: Vec<_> =
                    shards.iter().filter(|s| s.owns_test(&trail)).collect();
                assert_eq!(owners.len(), 1);
                assert!(owners[0].may_own_subtree(&trail));
            }
        }
        // Short trails are in every shard's subtree but owned by one.
        for s in &shards {
            assert!(s.may_own_subtree(&[]));
            assert!(s.may_own_subtree(&[3]));
        }
        assert_eq!(shards.iter().filter(|s| s.owns_test(&[3])).count(), 1);
    }

    #[test]
    fn shard_record_round_trips_and_defaults_to_none() {
        let mut st = sample_state();
        st.shard = Some(ShardSpec { index: 2, count: 8 });
        let back = ExplorationState::from_bytes(&st.to_bytes()).expect("decode");
        assert_eq!(back.shard, Some(ShardSpec { index: 2, count: 8 }));

        st.shard = None;
        let back = ExplorationState::from_bytes(&st.to_bytes()).expect("decode");
        assert_eq!(back.shard, None);
    }

    #[test]
    fn out_of_range_shard_record_is_malformed() {
        let mut st = sample_state();
        st.shard = Some(ShardSpec { index: 2, count: 8 });
        let bytes = st.to_bytes();
        // Rebuild the shard record with index >= count and a valid
        // checksum, exercising the semantic (not checksum) validation.
        let mut forged = Vec::new();
        let mut payload = Vec::new();
        payload.push(1);
        put_u32(&mut payload, 9);
        put_u32(&mut payload, 8);
        // Copy everything before the shard record, then splice.
        let mut cur = Cursor { bytes: &bytes, pos: 8 + 4 + 8 };
        let mut shard_start = None;
        while cur.pos < bytes.len() {
            let rec_start = cur.pos;
            let t = cur.u8().unwrap();
            let len = cur.u32().unwrap() as usize;
            cur.take(len).unwrap();
            cur.u64().unwrap();
            if t == tag::SHARD {
                shard_start = Some((rec_start, cur.pos));
                break;
            }
        }
        let (start, end) = shard_start.expect("sample state has a shard record");
        forged.extend_from_slice(&bytes[..start]);
        put_record(&mut forged, tag::SHARD, &payload);
        forged.extend_from_slice(&bytes[end..]);
        match ExplorationState::from_bytes(&forged) {
            Err(CheckpointError::Malformed(m)) => assert!(m.contains("shard"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_retry_succeeds_first_try_and_fails_classified() {
        let dir = std::env::temp_dir().join(format!("p4tg-ckpt-retry-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let st = sample_state();
        assert_eq!(st.write_atomic_retry(&path).expect("writable temp dir"), 1);
        assert_eq!(ExplorationState::load(&path).expect("round trip"), st);

        // A directory that does not exist is a permanent error: no retry.
        let bad = dir.join("missing-subdir").join("state.ckpt");
        let fail = st.write_atomic_retry(&bad).unwrap_err();
        assert_eq!(fail.attempts, 1);
        assert!(!fail.transient);
        assert!(fail.to_string().contains("permanent IO error"), "{fail}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_io_classification() {
        use std::io::{Error, ErrorKind};
        assert!(is_transient_io(&Error::from(ErrorKind::Interrupted)));
        assert!(is_transient_io(&Error::from_raw_os_error(28))); // ENOSPC
        assert!(is_transient_io(&Error::from_raw_os_error(4))); // EINTR
        assert!(!is_transient_io(&Error::from(ErrorKind::PermissionDenied)));
        assert!(!is_transient_io(&Error::from(ErrorKind::NotFound)));
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_growing() {
        let salt = fnv1a(b"some/path.ckpt");
        let d1 = retry_backoff(1, salt);
        let d2 = retry_backoff(2, salt);
        assert_eq!(d1, retry_backoff(1, salt), "same inputs, same delay");
        assert!(d1 >= Duration::from_millis(5) && d1 < Duration::from_millis(13), "{d1:?}");
        assert!(d2 >= Duration::from_millis(10) && d2 < Duration::from_millis(18), "{d2:?}");
        // Different paths jitter differently (with overwhelming likelihood
        // for any fixed pair of distinct salts baked into this test).
        assert_ne!(
            (retry_backoff(1, 1), retry_backoff(2, 1), retry_backoff(3, 1)),
            (retry_backoff(1, 2), retry_backoff(2, 2), retry_backoff(3, 2)),
        );
    }

    /// Satellite: bit-flip fuzz over every byte of a valid checkpoint.
    /// Every mutation must either decode (possibly to a state that then
    /// fails config validation) or fail with a *classified* error — never
    /// a panic, never an unclassified failure. This is the cold-start
    /// guarantee: whatever is on disk, the engine can always warn and
    /// start fresh.
    #[test]
    fn bit_flip_fuzz_always_classifies_never_panics() {
        let st = sample_state();
        let bytes = st.to_bytes();
        let known_kinds = [
            "io",
            "not-a-checkpoint",
            "unsupported-version",
            "truncated",
            "checksum",
            "malformed",
            "config-mismatch",
        ];
        let mut outcomes: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for i in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ExplorationState::from_bytes(&mutated)
                }));
                match result {
                    Ok(Ok(decoded)) => {
                        // Structurally valid (e.g. a flip in the config
                        // hash, a record tag, or a skipped-record body).
                        // Resume still guards via config validation.
                        let _ = decoded.validate_config(st.config_hash);
                        *outcomes.entry("ok").or_default() += 1;
                    }
                    Ok(Err(e)) => {
                        assert!(
                            known_kinds.contains(&e.kind()),
                            "byte {i} bit {bit}: unclassified error {e:?}"
                        );
                        *outcomes.entry(e.kind()).or_default() += 1;
                    }
                    Err(_) => panic!("byte {i} bit {bit}: decode panicked"),
                }
            }
        }
        // The sweep must actually exercise the classifier: checksum and
        // truncation failures are unavoidable in any full-file sweep.
        assert!(outcomes.get("checksum").copied().unwrap_or(0) > 0, "{outcomes:?}");
        assert!(outcomes.get("truncated").copied().unwrap_or(0) > 0, "{outcomes:?}");
    }

    /// Companion sweep: every prefix truncation classifies as well.
    #[test]
    fn truncation_sweep_always_classifies() {
        let bytes = sample_state().to_bytes();
        for cut in 0..bytes.len() {
            match ExplorationState::from_bytes(&bytes[..cut]) {
                Err(e) => assert!(
                    matches!(
                        e,
                        CheckpointError::Truncated | CheckpointError::NotACheckpoint
                    ),
                    "cut {cut}: unexpected {e:?}"
                ),
                Ok(_) => panic!("cut {cut}: truncated file decoded"),
            }
        }
    }

    #[test]
    fn frontier_sanitizer_drops_non_queue_trails() {
        let f = vec![vec![], vec![1], vec![2, 0], vec![3, 1]];
        let clean = sanitize_frontier(f);
        assert!(clean.contains(&vec![]));
        assert!(clean.contains(&vec![1]));
        assert!(clean.contains(&vec![3, 1]));
        assert!(!clean.contains(&vec![2, 0]), "trails ending in 0 are not queue-time trails");
    }
}
