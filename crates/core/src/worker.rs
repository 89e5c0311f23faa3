//! Exploration workers: the state they share ([`Shared`]), the per-worker
//! loop ([`run_worker`]) and checkpoint-trail replay. Scheduling and
//! determinism are described in the [`crate::testgen`] module docs.

use crate::checkpoint::ExplorationState;
use crate::concolic::{resolve_concolics, ConcolicRegistry};
use crate::config::{Strategy, TestgenConfig};
use crate::coverage::SharedCoverage;
use crate::exec;
use crate::fault::trail_hash;
use crate::memo::FeasMemo;
use crate::state::{ExecState, FinishReason, RegisterOp, SynthKeyMatch};
use crate::summary::{
    classify_abandon_reason, reason, ErrorStats, PanicRecord, PhaseStats, MAX_PANIC_RECORDS,
};
use crate::target::{ExecCtx, PipeStep, Target};
use crate::testspec::{
    KeyMatch, MaskedBytes, OutputPacketSpec, RegisterSpec, TableEntrySpec, TestSpec,
};
use crossbeam::deque::{Steal, Stealer, Worker as WorkerDeque};
use p4t_ir::IrProgram;
use p4t_obs::trace::{PathOutcome, PathRecord, PathTiming, TraceLog};
use p4t_obs::SpanEvent;
use p4t_smt::fingerprint::TermHashes;
use p4t_smt::sat::SatStats;
use p4t_smt::solver::{IncrementalStats, SolverStats};
use p4t_smt::{
    eval, Assignment, BitVec, CheckResult, SolveBudget, Solver, TermId, TermPool, VarWalk,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, BinaryHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-path step budget (runaway guard).
pub(crate) const MAX_STEPS_PER_PATH: u64 = 100_000;

/// Retries for the concolic resolution loop (§5.4).
pub(crate) const CONCOLIC_RETRIES: u32 = 3;

/// A queued state plus its cached coverage-novelty score. The score is the
/// count of statements this path covered that are still globally uncovered;
/// it is stamped with the [`SharedCoverage`] epoch so it is recomputed only
/// when global coverage has actually grown since it was cached.
pub(crate) struct Pending {
    pub(crate) st: ExecState,
    pub(crate) novelty: Option<(u64, usize)>,
}

/// The exploration journal: the single serializable source of truth for
/// what is left to explore and what has been produced. Workers commit one
/// atomic transaction per finished path — remove the popped trail, insert
/// its spawned children, append its emission, fold its counters — so any
/// locked snapshot is a *consistent cut* of the path tree: every path is
/// either still in `pending`, or fully accounted for by its replacements.
/// That invariant is what makes checkpoints resumable without replaying
/// partial work.
#[derive(Default)]
pub(crate) struct Journal {
    /// Every queued or in-flight queue-time trail. A trail leaves this set
    /// only in the same transaction that inserts its children/emission.
    pub(crate) pending: BTreeSet<Vec<u32>>,
    /// Emitted tests keyed by their full completed-path trail (unsorted;
    /// the merger sorts).
    pub(crate) emitted: Vec<(Vec<u32>, TestSpec)>,
    pub(crate) paths: u64,
    pub(crate) infeasible: u64,
    pub(crate) abandoned: u64,
    /// Fork subtrees pruned because another shard owns them.
    pub(crate) out_of_shard: u64,
    pub(crate) errors: ErrorStats,
}

/// Everything the workers share for one run.
pub(crate) struct Shared<'a> {
    pub(crate) prog: &'a IrProgram,
    pub(crate) pipeline: &'a [PipeStep],
    pub(crate) target: &'a dyn Target,
    pub(crate) pool: &'a TermPool,
    pub(crate) config: &'a TestgenConfig,
    pub(crate) concolics: &'a ConcolicRegistry,
    pub(crate) program_name: &'a str,
    pub(crate) next_id: AtomicU64,
    /// States queued or being processed; exploration is done when a worker
    /// finds no work and this is zero.
    pub(crate) live: AtomicU64,
    /// With `max_tests = k`: the k lexicographically-smallest emitted
    /// trails so far (a max-heap, so the worst retained trail is at the
    /// top). A pending state whose trail is ≥ the heap's top once the heap
    /// is full can only produce tests outside the final top-k (descendant
    /// trails extend, and therefore lexicographically follow, the state's
    /// trail) and is pruned. This makes the capped suite exactly "the first
    /// k tests in canonical trail order" — deterministic for a fixed seed
    /// at any job count and across repeated runs, unlike a stop-at-k flag,
    /// which would cap whichever paths happened to finish first.
    pub(crate) best: Mutex<BinaryHeap<Vec<u32>>>,
    pub(crate) coverage: SharedCoverage,
    pub(crate) memo: FeasMemo,
    pub(crate) stealers: Vec<Stealer<Pending>>,
    /// Run start, for the cooperative deadline below.
    pub(crate) started: Instant,
    /// Effective wall-clock deadline: the fault plan's override when set,
    /// else `config.deadline`.
    pub(crate) deadline: Option<Duration>,
    /// Latched once any worker observes the deadline expired.
    pub(crate) deadline_hit: AtomicBool,
    /// A worker died *outside* the per-path panic isolation (a harness bug).
    /// Siblings bail out instead of spinning on `live`, and the join
    /// surfaces a [`RunError`](crate::RunError).
    pub(crate) aborted: AtomicBool,
    /// The exploration journal (frontier + emissions + counters); see
    /// [`Journal`].
    pub(crate) journal: Mutex<Journal>,
    /// Cooperative drain latched: an external signal, the deadline, or a
    /// kill fault asked the run to stop taking new states.
    pub(crate) drain_hit: AtomicBool,
    /// A kill fault fired: the run simulates a hard abort (final checkpoint
    /// flushed, no tests delivered).
    pub(crate) kill_hit: AtomicBool,
    /// Suite-affecting config fingerprint stamped into checkpoints.
    pub(crate) run_fingerprint: u64,
    /// Timestamp of the last periodic checkpoint flush (also serializes
    /// writers: flushes hold this lock across the write).
    pub(crate) last_flush: Mutex<Instant>,
    pub(crate) checkpoints_written: AtomicU64,
    /// First checkpoint-write failure, surfaced in [`ResumeInfo`](crate::ResumeInfo).
    pub(crate) flush_error: Mutex<Option<String>>,
    /// Time and on-disk size of the last successful checkpoint flush, for
    /// the checkpoint gauges and the `/status` endpoint.
    pub(crate) last_ckpt: Mutex<Option<(Instant, u64)>>,
}

impl Shared<'_> {
    /// Has the run deadline expired? Latches the verdict on first
    /// observation, so workers drain their queues and the run ends with a
    /// deterministic partial suite.
    pub(crate) fn deadline_expired(&self) -> bool {
        let Some(d) = self.deadline else { return false };
        if self.deadline_hit.load(Ordering::Relaxed) {
            return true;
        }
        if self.started.elapsed() >= d {
            self.deadline_hit.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Has anything asked for a cooperative drain? Sources: an external
    /// drain flag (signal handler), the run deadline, or a kill fault
    /// (latched directly by the worker that popped the poisoned trail).
    /// Latches `drain_hit` on first observation.
    pub(crate) fn drain_requested(&self) -> bool {
        if self.drain_hit.load(Ordering::Relaxed) {
            return true;
        }
        let external = self.config.drain.as_ref().is_some_and(|f| f.load(Ordering::Relaxed));
        if external {
            self.drain_hit.store(true, Ordering::Relaxed);
            return true;
        }
        if self.deadline_expired() {
            self.drain_hit.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Snapshot the run into a serializable [`ExplorationState`]. Safe to
    /// call while workers run: the journal lock gives a consistent frontier
    /// cut, and the coverage/best/memo snapshots are supersets of that cut's
    /// state — resume only ever unions them back in.
    pub(crate) fn snapshot_state(&self) -> ExplorationState {
        let (frontier, mut emitted, paths, infeasible, abandoned, errors) = {
            let j = self.journal.lock();
            (
                j.pending.iter().cloned().collect::<Vec<_>>(),
                j.emitted.clone(),
                j.paths,
                j.infeasible,
                j.abandoned,
                j.errors.clone(),
            )
        };
        emitted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut best: Vec<Vec<u32>> = self.best.lock().iter().cloned().collect();
        best.sort();
        let (coverage_words, coverage_epoch) = self.coverage.snapshot();
        ExplorationState {
            config_hash: self.run_fingerprint,
            frontier,
            emitted,
            best,
            coverage_words,
            coverage_epoch,
            memo: self.memo.snapshot(),
            paths_explored: paths,
            infeasible_paths: infeasible,
            abandoned_paths: abandoned,
            errors,
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            shard: self.config.shard,
        }
    }

    /// Write a checkpoint to `path`, recording success or the first
    /// failure. Transient IO errors are retried with bounded deterministic
    /// backoff (see [`ExplorationState::write_atomic_retry`]); a final
    /// failure is classified, never silent. Callers serialize via
    /// `last_flush`.
    pub(crate) fn flush_checkpoint(&self, path: &std::path::Path) -> bool {
        let state = self.snapshot_state();
        match state.write_atomic_retry(path) {
            Ok(attempts) => {
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                if attempts > 1 {
                    if let Some(reg) = &self.config.obs.metrics {
                        reg.counter(
                            "p4testgen_checkpoint_write_retries_total",
                            "Checkpoint writes that needed transient-IO retries",
                        )
                        .add(u64::from(attempts - 1));
                    }
                }
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                *self.last_ckpt.lock() = Some((Instant::now(), bytes));
                if let Some(ls) = &self.config.obs.live {
                    ls.note_checkpoint(bytes);
                }
                if let Some(reg) = &self.config.obs.metrics {
                    reg.gauge(
                        "p4testgen_checkpoint_bytes",
                        "On-disk size of the last successful checkpoint",
                    )
                    .set(bytes);
                    reg.gauge(
                        "p4testgen_checkpoint_age_seconds",
                        "Seconds since the last successful checkpoint flush",
                    )
                    .set(0);
                }
                true
            }
            Err(e) => {
                let mut slot = self.flush_error.lock();
                if slot.is_none() {
                    *slot = Some(e.to_string());
                }
                false
            }
        }
    }
}

/// Queue-depth histogram bounds (inclusive upper bounds; +Inf implicit).
/// Sampled once per dequeued state, so the histogram answers "how deep was
/// my local queue when I took work" — the signal for steal pressure.
pub(crate) const QUEUE_DEPTH_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Per-worker results, merged on the main thread after the join. Path
/// counters, emissions, and error taxonomies live in the shared [`Journal`]
/// (committed transactionally per path), not here: only genuinely
/// worker-local instrumentation rides back on the join.
#[derive(Default)]
pub(crate) struct WorkerOut {
    pub(crate) phases: PhaseStats,
    pub(crate) solver_stats: SolverStats,
    pub(crate) sat_stats: SatStats,
    /// Simplifier / blast-cache counters.
    pub(crate) inc_stats: IncrementalStats,
    /// This worker's path records and engine events (see `PathWorker::log`).
    pub(crate) log: Option<TraceLog>,
    /// Successful steals from sibling deques.
    pub(crate) steals: u64,
    /// Busy→idle transitions (the worker found no local or stealable work).
    pub(crate) parks: u64,
    /// Wall-clock this worker spent *not* holding a state.
    pub(crate) idle: Duration,
    /// Local-queue depth histogram (populated only when metrics are on).
    pub(crate) queue_depth_hist: [u64; QUEUE_DEPTH_BOUNDS.len() + 1],
    /// Sum of the sampled depths (the histogram's `_sum` series).
    pub(crate) queue_depth_sum: u64,
}

impl WorkerOut {
    /// Merge another worker's results into this one.
    pub(crate) fn absorb(&mut self, other: WorkerOut) {
        self.phases.absorb(&other.phases);
        self.solver_stats.absorb(&other.solver_stats);
        self.sat_stats.absorb(&other.sat_stats);
        self.inc_stats.absorb(&other.inc_stats);
        if let Some(log) = other.log {
            self.log.get_or_insert_with(TraceLog::new).absorb(log);
        }
        self.steals += other.steals;
        self.parks += other.parks;
        self.idle += other.idle;
        for (t, o) in self.queue_depth_hist.iter_mut().zip(other.queue_depth_hist.iter()) {
            *t += o;
        }
        self.queue_depth_sum += other.queue_depth_sum;
    }
}

/// Render a panic payload as text when possible.
pub fn panic_payload_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Rebuild the live [`ExecState`] for one checkpointed frontier trail by
/// re-executing from the initial state and consuming one trail element per
/// fork event (`0` = continue the parent, `e ≥ 1` = take fork `e-1`).
///
/// Replay does no feasibility checking and no fault injection: the original
/// run already admitted this exact trail, and replaying its prefix is pure
/// deterministic stepping. The step budget is the per-path budget scaled by
/// the trail depth (each queue-time hop along the trail was itself a path
/// that ran under the per-path budget). `None` means the program or engine
/// no longer produces this trail — the caller abandons it rather than
/// trusting a diverged world.
pub(crate) fn replay_to_trail(
    sh: &Shared<'_>,
    init: &ExecState,
    trail: &[u32],
) -> Option<ExecState> {
    let mut st = init.clone();
    if trail.is_empty() {
        return Some(st); // the root is the initial state itself
    }
    let budget = MAX_STEPS_PER_PATH.saturating_mul(trail.len() as u64 + 1);
    let mut pos = 0usize;
    let mut steps = 0u64;
    while pos < trail.len() {
        if !st.is_running() {
            return None; // finished before the trail was consumed
        }
        let cmd = st.continuations.pop()?;
        steps += 1;
        if steps > budget {
            return None;
        }
        let mut ctx = ExecCtx::new(
            sh.pool,
            sh.prog,
            sh.pipeline,
            &sh.next_id,
            sh.config.parser_loop_bound,
            sh.config.seed,
        );
        ctx.apply_entry_restrictions = sh.config.preconditions.apply_entry_restrictions;
        let res = exec::step(&mut ctx, &mut st, sh.target, cmd);
        let forks = std::mem::take(&mut ctx.forks);
        res.ok()?;
        if forks.is_empty() {
            continue;
        }
        let e = trail[pos];
        pos += 1;
        if e == 0 {
            // Continue the parent along its (…, 0) trail; the forked
            // children belong to other frontier entries.
            st.trail.push(0);
        } else {
            let mut f = forks.into_iter().nth(e as usize - 1)?;
            f.trail.push(e);
            st = f;
            // A queue-time trail ends on a nonzero element: when the last
            // element is consumed here the state is exactly what the
            // original run had queued — return it unstepped.
        }
    }
    Some(st)
}

/// One exploration worker: drives states popped from its local deque,
/// queues feasible forks locally, and steals when idle.
struct PathWorker<'a, 'b> {
    sh: &'b Shared<'a>,
    widx: u32,
    solver: Solver,
    rng: StdRng,
    phases: PhaseStats,
    /// Per-*path* scratch counters, folded into the shared [`Journal`] by
    /// the per-path transaction in the worker loop (`mem::take`n there).
    paths: u64,
    infeasible: u64,
    abandoned: u64,
    out_of_shard: u64,
    errors: ErrorStats,
    /// Feasible children found by the current path. A worker field — not a
    /// `process` local — so children queued before an injected/organic
    /// panic survive the unwind, exactly as the old inline pushes did. They
    /// reach the local deque only after the journal transaction commits.
    spawned: Vec<Pending>,
    /// The current path's emission, if it survived the top-k filter.
    pending_emit: Option<(Vec<u32>, TestSpec)>,
    /// The one per-path record and worker event buffer, `Some` while
    /// `ObsConfig::trace` is on. `None` (the default) costs one pointer
    /// test per path and allocates nothing.
    log: Option<TraceLog>,
    /// Successful steals (counted even with tracing off — one add per steal).
    steals: u64,
    /// Logical queries issued while processing the current path. Counted at
    /// the query *sites* (fork admission, emission verdict) rather than from
    /// raw solver-check deltas, so a memo hit counts like a solver round
    /// trip — raw deltas would differ with which worker warmed the memo,
    /// breaking the trace determinism contract.
    path_checks: u64,
    /// Term hashes for extending fingerprint frames, kept across checks.
    term_hashes: TermHashes,
    /// Marks for gathering a test's variables, kept across emissions.
    var_walk: VarWalk,
}

/// If a worker dies *outside* the per-path panic isolation, its `live`
/// bookkeeping is lost and sibling workers would spin on `live > 0` forever.
/// This drop guard (armed only while the thread is unwinding) flips the
/// abort flag so siblings bail out and the join can report a [`RunError`](crate::RunError).
struct AbortGuard<'x> {
    aborted: &'x AtomicBool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.aborted.store(true, Ordering::Relaxed);
        }
    }
}

pub(crate) fn run_worker(sh: &Shared<'_>, widx: usize, local: WorkerDeque<Pending>) -> WorkerOut {
    let _abort_guard = AbortGuard { aborted: &sh.aborted };
    let t_worker = Instant::now();
    let metrics_on = sh.config.obs.metrics.is_some();
    let mut solver = Solver::new();
    solver.set_budget(SolveBudget::conflicts(sh.config.solver_budget));
    let mut w = PathWorker {
        sh,
        widx: widx as u32,
        solver,
        // Worker-local RNG (used only by RandomBacktrack selection, which is
        // schedule-dependent anyway). Test-emission RNG is per-path.
        rng: StdRng::seed_from_u64(
            sh.config.seed ^ (widx as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        ),
        phases: PhaseStats::default(),
        paths: 0,
        infeasible: 0,
        abandoned: 0,
        out_of_shard: 0,
        errors: ErrorStats::default(),
        spawned: Vec::new(),
        pending_emit: None,
        log: sh.config.obs.trace.then(TraceLog::new),
        steals: 0,
        path_checks: 0,
        term_hashes: TermHashes::default(),
        var_walk: VarWalk::default(),
    };
    w.event("worker-start", None, None);
    let live_status = sh.config.obs.live.as_deref();
    if let Some(ls) = live_status {
        // Workers start busy (`was_busy = true` below mirrors this).
        ls.workers_busy.fetch_add(1, Ordering::Relaxed);
    }
    let mut parks = 0u64;
    let mut queue_depth_hist = [0u64; QUEUE_DEPTH_BOUNDS.len() + 1];
    let mut queue_depth_sum = 0u64;
    // Busy→idle edge detector: `park` fires once per transition, not per
    // polling iteration (an idle worker spins through here constantly).
    let mut was_busy = true;
    let mut deadline_seen = false;
    let mut drain_seen = false;
    loop {
        if sh.aborted.load(Ordering::Relaxed) {
            break;
        }
        let pending = match w.select_local(&local) {
            Some(p) => Some(p),
            None => w.steal(widx),
        };
        let Some(p) = pending else {
            if was_busy {
                was_busy = false;
                parks += 1;
                w.event("park", None, None);
                if let Some(ls) = live_status {
                    ls.workers_busy.fetch_sub(1, Ordering::Relaxed);
                }
            }
            if sh.live.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        if !was_busy {
            if let Some(ls) = live_status {
                ls.workers_busy.fetch_add(1, Ordering::Relaxed);
            }
        }
        was_busy = true;
        let t_busy = Instant::now();
        if metrics_on {
            let depth = local.len() as u64;
            queue_depth_hist[QUEUE_DEPTH_BOUNDS.partition_point(|&b| b < depth)] += 1;
            queue_depth_sum += depth;
        }
        // Drain/deadline first, before any path work. With a checkpoint
        // configured (or after a kill fault) the popped state is simply
        // dropped — its trail *stays* in the journal's pending set, so the
        // final checkpoint hands it to a resuming run. Without one, legacy
        // deadline semantics apply: the state is *abandoned* (undecided),
        // unlike a cap-stop discard, which truncates a fully-decided run.
        if sh.drain_requested() {
            if sh.config.checkpoint.is_some() || sh.kill_hit.load(Ordering::Relaxed) {
                if !drain_seen {
                    drain_seen = true;
                    w.event("drain", Some(&p.st.trail), None);
                }
            } else {
                {
                    let mut j = sh.journal.lock();
                    j.pending.remove(&p.st.trail);
                    j.abandoned += 1;
                    j.errors.bump_reason(reason::DEADLINE);
                }
                w.pruned(&p.st, PathOutcome::Abandoned(reason::DEADLINE));
                if !deadline_seen {
                    deadline_seen = true;
                    w.event("deadline", Some(&p.st.trail), None);
                }
            }
            w.phases.busy += t_busy.elapsed();
            sh.live.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Injected hard abort: the simulated power loss happens at pop
        // time, before the state is processed, so its trail stays in the
        // frontier and siblings latch into the drain path above.
        if sh.config.fault_plan.wants_kill(&p.st.trail) {
            sh.kill_hit.store(true, Ordering::Relaxed);
            sh.drain_hit.store(true, Ordering::Relaxed);
            w.event("kill-fault", Some(&p.st.trail), None);
            w.phases.busy += t_busy.elapsed();
            sh.live.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Subtree pruning for the deterministic test cap: every test in
        // this state's subtree has a trail ≥ the state's trail, so once k
        // better trails exist the subtree cannot reach the final top-k.
        // (The converse holds under any schedule: the heap's top only ever
        // improves, so a state that could still contribute is never pruned
        // — the final suite is schedule-independent.) Only the cap decides
        // here: a drain another worker latches after the check above is
        // seen at the next pop, and this state is processed in full, so a
        // drain never drops a subtree from the frontier.
        let discard = sh.config.max_tests > 0 && {
            let best = sh.best.lock();
            best.len() as u64 >= sh.config.max_tests
                && best.peek().is_some_and(|worst| p.st.trail >= *worst)
        };
        if discard {
            // Cap discards *decide* the subtree (it can never contribute),
            // so it leaves the frontier — a resumed run agrees.
            sh.journal.lock().pending.remove(&p.st.trail);
            w.phases.busy += t_busy.elapsed();
            sh.live.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Per-path panic isolation: a poisoned path is recorded and
        // abandoned; the worker (and every other path) continues. The
        // state is stepped behind a mutable reference so its trail and
        // trace survive the unwind for the PanicRecord.
        let popped_trail = p.st.trail.clone();
        let mut st = p.st;
        let outcome = catch_unwind(AssertUnwindSafe(|| w.process(&mut st)));
        if let Err(payload) = outcome {
            // A failed memo or feasibility audit (a refuted verdict or a
            // stale frame) is an engine bug, not a path fault: it fails the
            // run instead of abandoning one path.
            #[cfg(debug_assertions)]
            if crate::memo::is_audit_failure(&panic_payload_text(payload.as_ref())) {
                std::panic::resume_unwind(payload);
            }
            // The unwound frame may have left a simplification round
            // half done; drop the rewrite memo so the next feasibility
            // check starts from its own constraint list alone.
            w.solver.reset();
            w.abandoned += 1;
            w.errors.panicked_paths += 1;
            w.errors.bump_reason(reason::PANIC);
            let payload_text = panic_payload_text(payload.as_ref());
            if w.observed() {
                w.event("panic", Some(&st.trail), Some(payload_text.clone()));
            }
            w.errors.panics.push(PanicRecord {
                trail: st.trail.clone(),
                payload: payload_text,
                last_trace: st.trace.last().map(str::to_owned),
            });
            // Step/check counts died with the unwound frame; the trail
            // survives in the state and identifies the path.
            w.pruned(&st, PathOutcome::Panicked);
        }
        // The per-path journal transaction: atomically replace the popped
        // trail with its children and emission, and fold this path's
        // scratch counters. Runs for panicked paths too — children queued
        // before the unwind are real frontier (the old inline pushes kept
        // them as well).
        let spawned = std::mem::take(&mut w.spawned);
        let emit = w.pending_emit.take();
        let live_snapshot = {
            let mut j = sh.journal.lock();
            j.pending.remove(&popped_trail);
            for s in &spawned {
                j.pending.insert(s.st.trail.clone());
            }
            if let Some(e) = emit {
                j.emitted.push(e);
            }
            j.paths += std::mem::take(&mut w.paths);
            j.infeasible += std::mem::take(&mut w.infeasible);
            j.abandoned += std::mem::take(&mut w.abandoned);
            j.out_of_shard += std::mem::take(&mut w.out_of_shard);
            let mut scratch = std::mem::take(&mut w.errors);
            if j.errors.panics.len() >= MAX_PANIC_RECORDS {
                scratch.panics.clear();
            }
            j.errors.absorb(&scratch);
            live_status.map(|_| (j.pending.len() as u64, j.emitted.len() as u64, j.paths))
        };
        if let (Some(ls), Some((frontier, emitted, paths))) = (live_status, live_snapshot) {
            let queue_live = sh.live.load(Ordering::Relaxed);
            ls.publish(frontier, emitted, paths, queue_live, sh.coverage.covered_count() as u64);
        }
        if !spawned.is_empty() {
            // `live` covers this path's own slot until the fetch_sub below,
            // so incrementing after the transaction cannot race termination.
            sh.live.fetch_add(spawned.len() as u64, Ordering::AcqRel);
            for s in spawned {
                local.push(s);
            }
        }
        w.maybe_flush_checkpoint();
        w.phases.busy += t_busy.elapsed();
        sh.live.fetch_sub(1, Ordering::AcqRel);
    }
    w.event("worker-stop", None, None);
    if was_busy {
        if let Some(ls) = live_status {
            ls.workers_busy.fetch_sub(1, Ordering::Relaxed);
        }
    }
    WorkerOut {
        idle: t_worker.elapsed().saturating_sub(w.phases.busy),
        phases: w.phases,
        solver_stats: w.solver.stats.clone(),
        sat_stats: w.solver.sat_stats().clone(),
        inc_stats: w.solver.inc_stats.clone(),
        log: w.log,
        steals: w.steals,
        parks,
        queue_depth_hist,
        queue_depth_sum,
    }
}

impl PathWorker<'_, '_> {
    /// Is any worker event sink on? Callers building an event's `detail`
    /// string gate on this first, so "off" allocates nothing.
    fn observed(&self) -> bool {
        self.log.is_some() || self.sh.config.obs.flight.is_some()
    }

    /// The one worker event call: send `kind` (with the path `trail` it
    /// concerns, if any, and a free-form `detail`) to every enabled sink —
    /// the flight recorder's ring and the trace's engine events. A no-op,
    /// with no allocation, when both are off.
    fn event(&mut self, kind: &'static str, trail: Option<&[u32]>, detail: Option<String>) {
        if let Some(fr) = &self.sh.config.obs.flight {
            fr.record(self.widx, kind, trail.map(<[u32]>::to_vec), detail.clone());
        }
        if let Some(log) = &mut self.log {
            log.engine.push(SpanEvent {
                at_ns: self.sh.started.elapsed().as_nanos() as u64,
                worker: self.widx,
                seq: log.engine.len() as u64,
                kind,
                trail: trail.map(<[u32]>::to_vec),
                detail,
            });
        }
    }

    /// The one sink for a path's terminal record: every per-path view is
    /// derived from these at merge time, and the flight recorder gets the
    /// record's `path-end` span here. Callers build the record only when
    /// [`PathWorker::observed`].
    fn path_end(&mut self, rec: PathRecord) {
        if let Some(fr) = &self.sh.config.obs.flight {
            fr.record(
                self.widx,
                "path-end",
                Some(rec.trail.clone()),
                Some(format!("{} steps={} checks={}", rec.outcome.key(), rec.steps, rec.checks)),
            );
        }
        if let Some(log) = &mut self.log {
            log.paths.push(rec);
        }
    }

    /// Record a path that ends without being processed to completion: a
    /// pruned fork, a deadline abandon at pop time, or a panic. It has no
    /// steps, checks, or timing of its own — a pruned fork's admission
    /// query is charged to the parent path that issued it.
    fn pruned(&mut self, st: &ExecState, outcome: PathOutcome) {
        if self.observed() {
            self.path_end(PathRecord {
                trail: st.trail.clone(),
                steps: 0,
                checks: 0,
                outcome,
                timing: PathTiming::default(),
                constraints: st.constraints.len() as u64,
                near_stmt: near_stmt(st),
            });
        }
    }

    /// Pop the next state from the local deque per the configured strategy.
    fn select_local(&mut self, local: &WorkerDeque<Pending>) -> Option<Pending> {
        let sh = self.sh;
        match sh.config.strategy {
            Strategy::Dfs => local.pop(),
            // O(1) front pop — the deque replaces the old `Vec::remove(0)`.
            Strategy::Bfs => local.with(|d| d.pop_front()),
            Strategy::RandomBacktrack => {
                let rng = &mut self.rng;
                local.with(|d| {
                    if d.is_empty() {
                        None
                    } else {
                        let i = rng.gen_range(0..d.len());
                        d.swap_remove_back(i)
                    }
                })
            }
            Strategy::CoverageFirst => local.with(|d| {
                if d.is_empty() {
                    return None;
                }
                // Most novel statements covered wins; ties go to the most
                // recent state (DFS-like locality). Novelty counts are
                // cached per state and recomputed only when the global
                // coverage epoch has advanced.
                let epoch = sh.coverage.epoch();
                let mut best = (0usize, 0usize);
                for i in 0..d.len() {
                    let p = d.get_mut(i).expect("index in range");
                    let novel = match p.novelty {
                        Some((e, n)) if e == epoch => n,
                        _ => {
                            let n = p
                                .st
                                .covered
                                .iter()
                                .filter(|id| !sh.coverage.contains(**id))
                                .count();
                            p.novelty = Some((epoch, n));
                            n
                        }
                    };
                    if (novel, i) >= best {
                        best = (novel, i);
                    }
                }
                d.swap_remove_back(best.1)
            }),
        }
    }

    /// Round-robin steal from the other workers' deques.
    fn steal(&mut self, widx: usize) -> Option<Pending> {
        let n = self.sh.stealers.len();
        for k in 1..n {
            let i = (widx + k) % n;
            loop {
                match self.sh.stealers[i].steal() {
                    Steal::Success(p) => {
                        self.steals += 1;
                        if self.observed() {
                            self.event("steal", None, Some(format!("from={i}")));
                        }
                        return Some(p);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Injected Unknown (fault plan) for a query issued at `trail`. Counts
    /// the forced verdict — and the retry the plan also swallows — so the
    /// injected-fault books balance exactly like organic ones.
    fn injected_unknown(&mut self, trail: &[u32]) -> bool {
        if !self.sh.config.fault_plan.wants_unknown(trail) {
            return false;
        }
        self.errors.unknown_queries += 1;
        self.errors.budget_retries += 1;
        true
    }

    /// Injected panic (fault plan): deliberately poison this path. The
    /// per-path `catch_unwind` in the worker loop contains it.
    fn maybe_panic(&self, trail: &[u32]) {
        if self.sh.config.fault_plan.wants_panic(trail) {
            panic!("injected fault: panic at trail {trail:?}");
        }
    }

    /// One *logical* solver query with budget handling: on Unknown, retry
    /// once with a rotated decision-phase seed (a pure function of the run
    /// seed and the querying trail, so the retry — like everything else — is
    /// schedule-independent), then count the query as Unknown if it still
    /// failed to decide.
    fn checked(&mut self, trail: &[u32], assumptions: &[TermId]) -> CheckResult {
        self.checked_impl(trail, assumptions, false)
    }

    /// Like [`PathWorker::checked`] but verdict-only, so the solver may
    /// simplify first. The Unknown retry path is identical — with a budget
    /// set, `check_feasible` solves unsimplified, and the rotated phase seed
    /// does too, so retry verdicts are a pure function of (constraints,
    /// budget, seed, trail). Debug builds audit every simplified verdict
    /// against an unsimplified solve.
    fn checked_feasible(&mut self, trail: &[u32], assumptions: &[TermId]) -> CheckResult {
        self.checked_impl(trail, assumptions, true)
    }

    fn checked_impl(
        &mut self,
        trail: &[u32],
        assumptions: &[TermId],
        verdict_only: bool,
    ) -> CheckResult {
        let sh = self.sh;
        let query = |solver: &mut Solver| {
            if verdict_only {
                solver.check_feasible(sh.pool, assumptions)
            } else {
                solver.check_assuming(sh.pool, assumptions)
            }
        };
        let mut res = query(&mut self.solver);
        #[cfg(debug_assertions)]
        if verdict_only && self.solver.budget().is_unlimited() {
            if let Err(msg) = crate::memo::audit_feasible(sh.pool, assumptions, res) {
                panic!("{msg} at trail {trail:?}");
            }
        }
        if res == CheckResult::Unknown {
            self.errors.budget_retries += 1;
            self.event("budget-retry", Some(trail), None);
            self.solver.set_phase_seed((sh.config.seed ^ trail_hash(trail)) | 1);
            res = query(&mut self.solver);
            self.solver.set_phase_seed(0);
        }
        if res == CheckResult::Unknown {
            self.errors.unknown_queries += 1;
        }
        self.log_check(trail, res, verdict_only, assumptions.len());
        res
    }

    /// The `solver-check` event for one query issued at `trail`.
    fn log_check(&mut self, trail: &[u32], res: CheckResult, verdict_only: bool, n: usize) {
        if !self.observed() {
            return;
        }
        let verdict = match res {
            CheckResult::Sat => "sat",
            CheckResult::Unsat => "unsat",
            CheckResult::Unknown => "unknown",
        };
        let kind = if verdict_only { "feasibility" } else { "model" };
        self.event("solver-check", Some(trail), Some(format!("{verdict} {kind} assumptions={n}")));
    }

    /// Fork-feasibility check, memoized by the fork's constraint
    /// fingerprint.
    fn fork_feasible(&mut self, f: &mut ExecState) -> CheckResult {
        let sh = self.sh;
        // One logical query regardless of how it resolves (injected fault,
        // memo hit, or solver round trip) — see the `path_checks` field docs.
        self.path_checks += 1;
        // Fault injection comes before the memo: a memoized verdict must
        // never swallow a planned fault on some schedules but not others.
        if self.injected_unknown(&f.trail) {
            return CheckResult::Unknown;
        }
        let fp = f.fingerprint.extend(sh.pool, &f.constraints, &mut self.term_hashes);
        let hit = sh.memo.lookup(fp);
        #[cfg(debug_assertions)]
        if let Err(msg) = crate::memo::audit_lookup(
            sh.pool,
            &f.constraints,
            fp,
            hit,
            sh.config.solver_budget,
        ) {
            panic!("{msg} at trail {:?}", f.trail);
        }
        if let Some(sat) = hit {
            return if sat { CheckResult::Sat } else { CheckResult::Unsat };
        }
        let t1 = Instant::now();
        let res = self.checked_feasible(&f.trail, &f.constraints);
        self.phases.solving += t1.elapsed();
        // Unknown is a verdict about the budget, not the constraint set —
        // never memoize it.
        if res != CheckResult::Unknown {
            sh.memo.record(fp, res == CheckResult::Sat);
        }
        res
    }

    /// Periodic checkpoint flush, called once per completed journal
    /// transaction. The interval gate lives behind a `try_lock` so at most
    /// one worker pays the snapshot+write cost per interval and nobody ever
    /// blocks on a flush in progress.
    fn maybe_flush_checkpoint(&mut self) {
        let Some(ck) = &self.sh.config.checkpoint else { return };
        let Some(mut last) = self.sh.last_flush.try_lock() else { return };
        if last.elapsed() < ck.every {
            return;
        }
        let path = ck.path.clone();
        if self.sh.flush_checkpoint(&path) && self.observed() {
            let frontier = self.sh.journal.lock().pending.len();
            self.event("checkpoint-flush", None, Some(format!("frontier={frontier}")));
        }
        *last = Instant::now();
    }

    /// Drive one state until it forks into children, finishes, or exhausts
    /// its budget; then emit a test if it completed. Children and the
    /// emitted test land on `self.spawned` / `self.pending_emit`, which the
    /// worker loop commits to the shared journal in one transaction after
    /// this call returns (or unwinds — spawned children survive a panic).
    fn process(&mut self, st: &mut ExecState) {
        let sh = self.sh;
        // Per-path span bookkeeping: reset the logical-query counter and
        // remember the phase clocks so the deltas at the end of this call
        // are this path's own cost. Plain copies — nothing here allocates
        // or branches on whether tracing is enabled.
        self.path_checks = 0;
        let phases_at_entry =
            (self.phases.stepping, self.phases.solving, self.phases.emission);
        self.maybe_panic(&st.trail);
        let mut steps: u64 = 0;
        while st.is_running() {
            let Some(cmd) = st.continuations.pop() else {
                st.finish(FinishReason::Completed);
                break;
            };
            steps += 1;
            if steps > MAX_STEPS_PER_PATH {
                st.finish(FinishReason::Abandoned("step budget exhausted".into()));
                break;
            }
            // Cooperative mid-path drain check, amortized over steps. Only
            // in legacy (no-checkpoint) mode: a checkpointing run lets
            // in-flight paths complete, because a mid-path abandon is
            // schedule-dependent and the path would be lost on resume.
            if steps & 0x1FF == 0
                && sh.config.checkpoint.is_none()
                && sh.drain_requested()
            {
                let msg = if sh.deadline_expired() {
                    "deadline expired"
                } else {
                    "drain requested"
                };
                st.finish(FinishReason::Abandoned(msg.into()));
                break;
            }
            let t0 = Instant::now();
            let mut ctx = ExecCtx::new(
                sh.pool,
                sh.prog,
                sh.pipeline,
                &sh.next_id,
                sh.config.parser_loop_bound,
                sh.config.seed,
            );
            ctx.apply_entry_restrictions = sh.config.preconditions.apply_entry_restrictions;
            let res = exec::step(&mut ctx, st, sh.target, cmd);
            let forks = std::mem::take(&mut ctx.forks);
            self.phases.stepping += t0.elapsed();
            self.phases.forks += ctx.fork_count;
            self.phases.fork += ctx.fork_time;
            if let Err(e) = res {
                st.finish(FinishReason::Abandoned(e.0));
                break;
            }
            if !forks.is_empty() {
                // Extend the fork trails *before* feasibility pruning, so a
                // path's trail does not depend on which siblings happened to
                // be pruned (pruning verdicts are deterministic, but this
                // keeps trail assignment trivially schedule-independent).
                // Children are pushed in reverse so the owner's LIFO pop
                // explores the lowest fork index — lex-smallest trail —
                // first, which under a test cap reaches the retained top-k
                // quickly and lets the subtree pruning close the rest.
                st.trail.push(0);
                for (i, mut f) in forks.into_iter().enumerate().rev() {
                    f.trail.push(i as u32 + 1);
                    // Shard pruning happens first — before any solver work —
                    // and before trace records, so per-shard traces contain
                    // only owned paths. `may_own_subtree` keeps every trail
                    // shorter than the shard prefix, so short-trail tests
                    // are claimed by `owns_test` at emission instead.
                    if let Some(shard) = &sh.config.shard {
                        if !shard.may_own_subtree(&f.trail) {
                            self.out_of_shard += 1;
                            continue;
                        }
                    }
                    if f.trivially_unsat(sh.pool) {
                        self.infeasible += 1;
                        self.pruned(&f, PathOutcome::Infeasible);
                        continue;
                    }
                    if !f.constraints.is_empty() {
                        match self.fork_feasible(&mut f) {
                            CheckResult::Sat => {}
                            CheckResult::Unsat => {
                                self.infeasible += 1;
                                self.pruned(&f, PathOutcome::Infeasible);
                                continue;
                            }
                            CheckResult::Unknown => {
                                // Undecided, not proven infeasible: the fork
                                // is *abandoned* (budget or injected fault).
                                self.abandoned += 1;
                                self.errors.bump_reason(reason::SOLVER_UNKNOWN);
                                self.pruned(&f, PathOutcome::Abandoned(reason::SOLVER_UNKNOWN));
                                continue;
                            }
                        }
                    }
                    self.spawned.push(Pending { st: f, novelty: None });
                }
                // The continuing (…, 0) trail may have left this shard's
                // prefix; stop stepping it here. Not a journal event — the
                // owning shard explores the identical continuation.
                if let Some(shard) = &sh.config.shard {
                    if !shard.may_own_subtree(&st.trail) {
                        self.out_of_shard += 1;
                        return;
                    }
                }
                // Injected panic on the continuing (…, 0) trail — after the
                // children are queued, so only this continuation is lost.
                self.maybe_panic(&st.trail);
                if !st.is_running() {
                    break; // superseded by forks
                }
            }
        }
        // A completed state whose full trail belongs to another shard is
        // dropped before emission (and before the shared heap): the owning
        // shard emits the identical test. Checked only for finished states
        // that would emit — infeasible/abandoned bookkeeping is shard-local.
        if matches!(
            st.finished,
            Some(FinishReason::Completed) | Some(FinishReason::Dropped)
        ) {
            if let Some(shard) = &sh.config.shard {
                if !shard.owns_test(&st.trail) {
                    self.out_of_shard += 1;
                    return;
                }
            }
        }
        self.paths += 1;
        let outcome = match &st.finished {
            Some(FinishReason::Completed) | Some(FinishReason::Dropped) => {
                let t2 = Instant::now();
                let solving_before = self.phases.solving;
                let emitted = self.emit_test(st);
                let nested_solving = self.phases.solving - solving_before;
                self.phases.emission += t2.elapsed().saturating_sub(nested_solving);
                match emitted {
                    Ok(spec) => {
                        sh.coverage.add(&st.covered);
                        let mut keep = true;
                        if sh.config.max_tests > 0 {
                            let mut best = sh.best.lock();
                            if (best.len() as u64) < sh.config.max_tests {
                                best.push(st.trail.clone());
                            } else if best.peek().is_some_and(|worst| st.trail < *worst) {
                                best.pop();
                                best.push(st.trail.clone());
                            } else {
                                // Outside the retained top-k; the merger
                                // would truncate it anyway.
                                keep = false;
                            }
                        }
                        if keep {
                            self.pending_emit = Some((st.trail.clone(), spec));
                        }
                        PathOutcome::Emitted
                    }
                    Err(key) => {
                        self.abandoned += 1;
                        self.errors.bump_reason(key);
                        PathOutcome::Abandoned(key)
                    }
                }
            }
            Some(FinishReason::Infeasible) => {
                self.infeasible += 1;
                PathOutcome::Infeasible
            }
            Some(FinishReason::Abandoned(msg)) => {
                self.abandoned += 1;
                let key = classify_abandon_reason(msg);
                self.errors.bump_reason(key);
                PathOutcome::Abandoned(key)
            }
            None => {
                self.abandoned += 1;
                self.errors.bump_reason(reason::EXEC_ERROR);
                PathOutcome::Abandoned(reason::EXEC_ERROR)
            }
        };
        if self.observed() {
            self.path_end(PathRecord {
                trail: st.trail.clone(),
                steps,
                checks: self.path_checks,
                outcome,
                timing: PathTiming {
                    step_ns: (self.phases.stepping - phases_at_entry.0).as_nanos() as u64,
                    solve_ns: (self.phases.solving - phases_at_entry.1).as_nanos() as u64,
                    emit_ns: (self.phases.emission - phases_at_entry.2).as_nanos() as u64,
                },
                constraints: st.constraints.len() as u64,
                near_stmt: near_stmt(st),
            });
        }
    }

    /// Concretize a finished state into a test specification; `Err(reason)`
    /// — a [`reason`] taxonomy key — when the path must be discarded (unsat,
    /// Unknown, unresolvable concolics, or a tainted output port). The
    /// spec's `id` is provisional — the merger renumbers after
    /// trail-sorting.
    fn emit_test(&mut self, st: &ExecState) -> Result<TestSpec, &'static str> {
        let sh = self.sh;
        // Injected Unknown at this finished trail (fault plan): the
        // emission-time check is treated as exhausted before being issued.
        // (For leaf trails that were eagerly pruned as forks the injection
        // already fired in `fork_feasible` and execution never got here.)
        if self.injected_unknown(&st.trail) {
            self.path_checks += 1;
            return Err(reason::SOLVER_UNKNOWN);
        }
        // Tainted output port, or control flow that branched on a tainted
        // value: the test would be flaky (§5.3 / footnote 2) — drop it.
        if st.flag("taint_flaky") == 1 {
            return Err(reason::TAINTED_OUTPUT);
        }
        for out in &st.outputs {
            if out.port.is_tainted() {
                return Err(reason::TAINTED_OUTPUT);
            }
        }
        // Resolve concolic bindings (§5.4); adds equality constraints. An
        // Unknown inside the concolic loop surfaces as a failed resolution.
        let t0 = Instant::now();
        let Some(eqs) = resolve_concolics(
            sh.pool,
            &mut self.solver,
            &mut self.var_walk,
            sh.concolics,
            &st.concolics,
            &st.constraints,
            CONCOLIC_RETRIES,
        ) else {
            self.phases.solving += t0.elapsed();
            return Err(reason::CONCOLIC_UNRESOLVED);
        };
        let mut assumptions = st.constraints.clone();
        assumptions.extend(eqs);
        // Randomize free control-plane choices (the paper: "the output port
        // is chosen at random"): propose seeded random values for synthesized
        // entry arguments. Seeded by the fork trail so the choice is a
        // function of the path, not of the order in which workers reached it.
        let mut proposals: Vec<TermId> = Vec::new();
        let mut rng = StdRng::seed_from_u64(sh.config.seed ^ trail_hash(&st.trail));
        for e in &st.entries {
            for (_, t, w) in &e.args {
                // `from_u128` truncates the draw to the argument's width.
                let c = sh.pool.constant(BitVec::from_u128(*w as usize, rng.gen::<u128>()));
                proposals.push(sh.pool.eq(*t, c));
            }
        }
        // One model-bearing check per emitted test. Proposals first: when
        // `constraints ∪ eqs ∪ proposals` is Sat, that check's instance holds
        // the test's model. Only when it is not (the proposal contradicts the
        // path, or it ran out of budget) is the unbiased model solved for,
        // with the usual Unknown retry. With no proposals, a path whose
        // concolics resolved already holds a Sat check of exactly
        // `constraints ∪ eqs` — the last check `resolve_concolics` made — and
        // a fresh check's model is a pure function of its ordered constraint
        // list, so solving it again would rebuild the same model.
        self.path_checks += 1;
        let verdict = if !proposals.is_empty() {
            let mut with_rand = assumptions.clone();
            with_rand.extend(proposals);
            let res = self.solver.check_assuming(sh.pool, &with_rand);
            self.log_check(&st.trail, res, false, with_rand.len());
            if res == CheckResult::Sat {
                assumptions = with_rand;
                res
            } else {
                self.checked(&st.trail, &assumptions)
            }
        } else if !st.concolics.is_empty() {
            CheckResult::Sat
        } else {
            self.checked(&st.trail, &assumptions)
        };
        self.phases.solving += t0.elapsed();
        match verdict {
            CheckResult::Sat => {}
            CheckResult::Unsat => return Err(reason::EMISSION_UNSAT),
            CheckResult::Unknown => return Err(reason::SOLVER_UNKNOWN),
        }
        // Gather every variable the test depends on and extract the model.
        let model = self.model_for(st, &assumptions);
        // Input packet.
        let mut input_bits = BitVec::empty();
        for chunk in &st.packet.input {
            input_bits = input_bits.concat(&eval(sh.pool, &model, chunk.term));
        }
        let input_packet = bits_to_bytes(&input_bits);
        // Input port (targets record it in a conventional slot).
        let input_port = match st.read("$input_port") {
            Some(s) => self.model_u64(&model, s.term) as u32,
            None => 0,
        };
        // Outputs.
        let mut outputs = Vec::new();
        for out in &st.outputs {
            let port = self.model_u64(&model, out.port.term) as u32;
            let packet = match &out.payload {
                Some(p) => {
                    let data = eval(sh.pool, &model, p.term);
                    masked_bytes(&data, &p.taint)
                }
                None => MaskedBytes::exact(Vec::new()),
            };
            outputs.push(OutputPacketSpec { port, packet });
        }
        // Control-plane entries.
        let entries = st
            .entries
            .iter()
            .map(|e| TableEntrySpec {
                table: e.table.to_string(),
                keys: e.keys.iter().map(|k| self.concretize_key(k, &model)).collect(),
                action: e.action.to_string(),
                action_args: e
                    .args
                    .iter()
                    .map(|(n, t, w)| {
                        (n.to_string(), value_bytes(&eval(sh.pool, &model, *t), *w))
                    })
                    .collect(),
                priority: e.priority,
            })
            .collect();
        // Registers.
        let mut register_init = Vec::new();
        let mut register_expect = Vec::new();
        for op in &st.register_ops {
            match op {
                RegisterOp::Read { instance, index, result, width } => {
                    register_init.push(RegisterSpec {
                        instance: instance.clone(),
                        index: self.model_u64(&model, *index),
                        value: value_bytes(&eval(sh.pool, &model, *result), *width),
                    });
                }
                RegisterOp::Write { instance, index, value, width } => {
                    register_expect.push(RegisterSpec {
                        instance: instance.clone(),
                        index: self.model_u64(&model, *index),
                        value: value_bytes(&eval(sh.pool, &model, *value), *width),
                    });
                }
            }
        }
        Ok(TestSpec {
            id: 0,
            program: sh.program_name.to_string(),
            target: sh.target.name().to_string(),
            seed: sh.config.seed,
            input_port,
            input_packet,
            entries,
            register_init,
            register_expect,
            outputs,
            covered_statements: st.covered.iter().map(|s| s.0).collect(),
            trace: st.trace.clone(),
        })
    }

    /// Evaluate a term under the model as `u64`, falling back to 0 — and
    /// counting the silent gap in `errors.model_defaults` — when the model
    /// has no 64-bit value for it.
    fn model_u64(&mut self, model: &Assignment, t: TermId) -> u64 {
        match eval(self.sh.pool, model, t).to_u64() {
            Some(v) => v,
            None => {
                self.errors.model_defaults += 1;
                0
            }
        }
    }

    /// The model over every variable the test depends on, gathered in one
    /// walk over all of its terms.
    fn model_for(&mut self, st: &ExecState, assumptions: &[TermId]) -> Assignment {
        let pool = self.sh.pool;
        let mut roots = assumptions.to_vec();
        roots.extend(st.packet.input.iter().map(|chunk| chunk.term));
        for out in &st.outputs {
            roots.push(out.port.term);
            roots.extend(out.payload.as_ref().map(|p| p.term));
        }
        for e in &st.entries {
            for k in &e.keys {
                roots.extend([k.value, k.mask, k.hi].into_iter().flatten());
            }
            roots.extend(e.args.iter().map(|(_, t, _)| *t));
        }
        for op in &st.register_ops {
            roots.extend(match op {
                RegisterOp::Read { index, result, .. } => [*index, *result],
                RegisterOp::Write { index, value, .. } => [*index, *value],
            });
        }
        roots.extend(st.read("$input_port").map(|p| p.term));
        let vars = self.var_walk.vars(pool, roots);
        self.solver.model(pool, &vars)
    }

    fn concretize_key(&self, k: &SynthKeyMatch, model: &Assignment) -> KeyMatch {
        let pool = self.sh.pool;
        let val = |t: Option<TermId>| {
            t.map(|t| value_bytes(&eval(pool, model, t), k.width)).unwrap_or_default()
        };
        let name = k.key_name.to_string();
        match &*k.match_kind {
            "ternary" => KeyMatch::Ternary {
                name,
                value: val(k.value),
                mask: val(k.mask),
            },
            "lpm" => KeyMatch::Lpm {
                name,
                value: val(k.value),
                prefix_len: k.prefix_len.unwrap_or(k.width),
            },
            "range" => KeyMatch::Range {
                name,
                lo: val(k.value),
                hi: val(k.hi),
            },
            "optional" => {
                // Zero mask encodes the wildcard.
                let wildcard = k
                    .mask
                    .map(|m| eval(pool, model, m).is_zero())
                    .unwrap_or(false);
                KeyMatch::Optional {
                    name,
                    value: if wildcard { None } else { Some(val(k.value)) },
                }
            }
            _ => KeyMatch::Exact { name, value: val(k.value) },
        }
    }
}

/// The deepest (highest-id) statement a path covered: how close it got.
fn near_stmt(st: &ExecState) -> Option<u32> {
    st.covered.iter().next_back().map(|s| s.0)
}

/// Bits (MSB-first) to bytes, right-padding the final partial byte with 0.
fn bits_to_bytes(bits: &BitVec) -> Vec<u8> {
    let w = bits.width();
    if w == 0 {
        return Vec::new();
    }
    let rem = w % 8;
    let padded = if rem == 0 {
        bits.clone()
    } else {
        bits.concat(&BitVec::zeros(8 - rem))
    };
    padded.to_bytes_be()
}

/// A value rendered as minimal big-endian bytes of its declared width.
fn value_bytes(v: &BitVec, width: u32) -> Vec<u8> {
    let byte_w = (width as usize).div_ceil(8) * 8;
    v.cast(byte_w).to_bytes_be()
}

/// Data + taint mask to masked bytes (taint bit 1 → mask bit 0).
fn masked_bytes(data: &BitVec, taint: &BitVec) -> MaskedBytes {
    let d = bits_to_bytes(data);
    let m = bits_to_bytes(&taint.not());
    MaskedBytes { data: d, mask: m }
}
