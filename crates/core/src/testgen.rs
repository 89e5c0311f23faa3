//! The test-generation driver (§4): run setup, the worker pool and the
//! merge, with per-phase timing for the Fig. 7 experiment. Path exploration
//! itself is in the `worker` module.
//!
//! # Parallel exploration
//!
//! Exploration runs on a pool of `config.jobs` workers. Each worker owns a
//! [`crossbeam::deque::Worker`] of pending states (owner side is LIFO for
//! DFS locality; thieves steal from the FIFO end, handing them the oldest —
//! and therefore shallowest, largest — subtrees) and its own
//! [`p4t_smt::Solver`].
//! The term pool is shared: interning is `&self` and thread-safe, so
//! `TermId`s are valid across workers and hash-consing dedups structurally
//! identical path-prefix terms globally.
//!
//! Determinism: a path's identity is its *fork trail* (the sequence of
//! branch indices taken at each fork event), which is independent of the
//! schedule. Per-test randomness is seeded from `seed ^ hash(trail)`, and
//! finished tests are buffered per worker, merged, and sorted by trail
//! before the `on_test` callback runs — so a fixed seed yields the same
//! test suite, in the same order, for any worker count. `max_tests = k`
//! stays deterministic too: it selects the k lexicographically-smallest
//! test trails (enforced by a shared top-k heap that prunes subtrees which
//! can no longer contribute), not whichever k tests raced to finish first.

use crate::checkpoint::{sanitize_frontier, ExplorationState, ShardSpec};
use crate::concolic::ConcolicRegistry;
use crate::config::TestgenConfig;
use crate::coverage::{AbandonSite, SharedCoverage};
use crate::memo::{feas_budget_class, FeasMemo};
use crate::state::{Cmd, ExecState};
use crate::summary::{reason, ResumeInfo, RunSummary, TestProvenance, MAX_PANIC_RECORDS};
use crate::target::{ExecCtx, PipeStep, Target};
use crate::testspec::TestSpec;
use crate::worker::{
    panic_payload_text, replay_to_trail, run_worker, Journal, Pending, Shared, WorkerOut,
    CONCOLIC_RETRIES, MAX_STEPS_PER_PATH, QUEUE_DEPTH_BOUNDS,
};
use crate::{fnv_mix, FNV_OFFSET};
use crossbeam::deque::Worker as WorkerDeque;
use p4t_ir::{IrProgram, StmtId};
use p4t_obs::trace::PathOutcome;
use p4t_obs::Registry;
use p4t_smt::sat::{SatStats, LEARNT_SIZE_BOUNDS};
use p4t_smt::solver::{SolverStats, CONFLICTS_PER_CHECK_BOUNDS};
use p4t_smt::TermPool;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A build that could not produce a [`Testgen`]: the frontend rejected the
/// program, or the target extension rejected the compiled pipeline.
/// Returned by [`Testgen::new_checked`]; [`Testgen::new`] flattens it to a
/// string for API compatibility.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// The frontend produced error diagnostics. `prelude_lines` is the
    /// number of source lines the target's architecture prelude occupies
    /// ahead of the user's program — subtract it (e.g. via
    /// `SourceMap::render`'s `line_offset`) to report positions in the
    /// user's file.
    Frontend { diagnostics: Vec<p4t_frontend::Diagnostic>, prelude_lines: u32 },
    /// The program compiled but the target rejected the pipeline shape.
    Target(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Frontend { diagnostics, .. } => {
                for (i, d) in diagnostics.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            BuildError::Target(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A run that could not produce a summary: one or more workers died outside
/// the per-path isolation (a harness bug, not a path bug). Surfaced as a
/// structured error instead of aborting the process.
#[derive(Clone, Debug)]
pub struct RunError {
    pub worker_failures: Vec<String>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} exploration worker(s) failed: ", self.worker_failures.len())?;
        for (i, m) in self.worker_failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

/// A target-validated frontend compile, separated from [`Testgen`] so a
/// long-lived host can cache it: compiling is the expensive, immutable
/// part of request setup (parse + type-check + IR lowering), keyed purely
/// on (source, target). [`Testgen::from_compiled`] turns one into a driver
/// without recompiling.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The lowered IR, its block parameters bound to the target's roots.
    pub prog: IrProgram,
    /// The target's pipeline template for `prog`.
    pub pipeline: Vec<PipeStep>,
    /// Warning diagnostics from the frontend (program still compiled).
    pub frontend_warnings: Vec<p4t_frontend::Diagnostic>,
    /// Number of prelude lines prepended ahead of the user's source.
    pub prelude_lines: u32,
    /// FNV-1a over the full (prelude-prepended) source and the target
    /// name; one input to [`run_fingerprint_of`].
    pub source_fingerprint: u64,
}

impl CompiledProgram {
    /// Compile `source` placed on the line after `target`'s prelude,
    /// binding block parameters to the target's package roots, and build
    /// the target's pipeline template for it.
    ///
    /// The prelude is parsed and checked once per process (see
    /// [`p4t_frontend::prelude`]): a compile shares the prelude's cached
    /// declarations and type environment, and lexes, parses and checks only
    /// `source`, at the positions it has in the concatenated file.
    /// Lowering and everything after it see the same program, spans and
    /// diagnostics as a compile of `format!("{prelude}\n{source}")`, and so
    /// does the fingerprint, which continues the prelude's from the newline.
    pub fn build(source: &str, target: &dyn Target) -> Result<CompiledProgram, BuildError> {
        let prelude = p4t_frontend::Prelude::get(target.prelude());
        let prelude_lines = prelude.lines();
        let (prog, frontend_warnings) =
            p4t_ir::compile_after(&prelude, source, target.package_roots())
                .map_err(|diagnostics| BuildError::Frontend { diagnostics, prelude_lines })?;
        let mut source_fingerprint = prelude.fingerprint();
        let pipeline = target.pipeline(&prog).map_err(BuildError::Target)?;
        for part in [source, target.name()] {
            fnv_mix(&mut source_fingerprint, part.as_bytes());
        }
        Ok(CompiledProgram { prog, pipeline, frontend_warnings, prelude_lines, source_fingerprint })
    }
}

/// The suite-deciding fingerprint for a compiled program under `config`:
/// everything that decides the emitted bytes — the compiled source, the
/// target, and the suite-affecting config fields. Schedule-only knobs
/// (`jobs`, `deadline`, fault plans, observability,
/// checkpoint/resume/drain wiring, shared memo, and the shard spec — the
/// *merged* suite is shard-independent) are excluded, so a resumed run may
/// change them and still complete the identical suite. Exposed free-form so
/// a host can compute cache keys before constructing a [`Testgen`]. The
/// path cap, per-path step budget, concolic retry count, budget-retry,
/// stop-at-full-coverage and eager-pruning switches were once config
/// fields; they are constants now (the path cap and the coverage stop are
/// gone, hashed as 0) but keep their slots, so fingerprints written by
/// older binaries still match.
pub fn run_fingerprint_of(source_fingerprint: u64, c: &TestgenConfig) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_mix(&mut h, &source_fingerprint.to_le_bytes());
    for v in [
        c.max_tests,
        0, // max_paths: retired, the slot stays
        MAX_STEPS_PER_PATH,
        c.seed,
        u64::from(c.parser_loop_bound),
        c.strategy as u64,
        u64::from(c.preconditions.apply_entry_restrictions),
        c.preconditions.fixed_packet_bytes.map_or(u64::MAX, u64::from),
        0, // stop at full coverage: retired, the slot stays
        u64::from(CONCOLIC_RETRIES),
        1, // eager pruning: always on
        c.solver_budget,
        1, // budget retry: always on
    ] {
        fnv_mix(&mut h, &v.to_le_bytes());
    }
    h
}

/// The generation driver. Owns the term pool, the target extension, and the
/// compiled program; each exploration worker owns its solver.
pub struct Testgen {
    pub prog: IrProgram,
    /// The target's pipeline template for `prog`.
    pipeline: Vec<PipeStep>,
    pub target: Box<dyn Target>,
    pool: TermPool,
    pub config: TestgenConfig,
    pub concolics: ConcolicRegistry,
    program_name: String,
    /// Warning diagnostics from the frontend (program still compiled).
    frontend_warnings: Vec<p4t_frontend::Diagnostic>,
    /// Solver statistics merged across all workers of all runs.
    solver_totals: SolverStats,
    sat_totals: SatStats,
    /// FNV-1a over the full (prelude-prepended) source and the target name;
    /// one input to [`Testgen::run_fingerprint`].
    source_fingerprint: u64,
}

impl Testgen {
    /// Compile `source` (with the target's prelude prepended) and prepare a
    /// generation run.
    ///
    /// Convenience wrapper over [`Testgen::new_checked`] that flattens the
    /// structured [`BuildError`] into a rendered string.
    pub fn new(
        program_name: &str,
        source: &str,
        target: impl Into<Box<dyn Target>>,
        config: TestgenConfig,
    ) -> Result<Self, String> {
        Self::new_checked(program_name, source, target, config).map_err(|e| e.to_string())
    }

    /// Compile `source` (with the target's prelude prepended) and prepare a
    /// generation run, preserving structured frontend diagnostics for
    /// rendering against the user's source.
    pub fn new_checked(
        program_name: &str,
        source: &str,
        target: impl Into<Box<dyn Target>>,
        config: TestgenConfig,
    ) -> Result<Self, BuildError> {
        let target = target.into();
        let compiled = CompiledProgram::build(source, &*target)?;
        Ok(Testgen::from_compiled(program_name, compiled, target, config))
    }

    /// Build a driver from an already-compiled program (see
    /// [`CompiledProgram`]) — no frontend work, so a host with a compile
    /// cache pays only the (cheap) driver construction per request. The
    /// compiled program must have been built for the same target kind:
    /// its parameter roots and pipeline template come from that target.
    pub fn from_compiled(
        program_name: &str,
        compiled: CompiledProgram,
        target: impl Into<Box<dyn Target>>,
        config: TestgenConfig,
    ) -> Self {
        Testgen {
            prog: compiled.prog,
            pipeline: compiled.pipeline,
            target: target.into(),
            pool: TermPool::new(),
            config,
            concolics: ConcolicRegistry::with_builtins(),
            program_name: program_name.to_string(),
            frontend_warnings: compiled.frontend_warnings,
            solver_totals: SolverStats::default(),
            sat_totals: SatStats::default(),
            source_fingerprint: compiled.source_fingerprint,
        }
    }

    /// Fingerprint of everything that decides the emitted suite's bytes
    /// (see [`run_fingerprint_of`]). Stamped into checkpoints and
    /// validated on resume.
    pub fn run_fingerprint(&self) -> u64 {
        run_fingerprint_of(self.source_fingerprint, &self.config)
    }

    /// The (source, target) fingerprint this driver was compiled from.
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// Warning diagnostics from the frontend compile (empty when clean).
    pub fn frontend_warnings(&self) -> &[p4t_frontend::Diagnostic] {
        &self.frontend_warnings
    }

    /// Access the compiled program.
    pub fn program(&self) -> &IrProgram {
        &self.prog
    }

    /// Solver timing and SAT-core statistics (Fig. 7 analysis), summed over
    /// every worker's solver of every run this driver has made: a lifetime
    /// total, unlike the per-run counters in [`RunSummary`].
    pub fn solver_stats(&self) -> (Duration, Duration, SatStats) {
        (self.solver_totals.solve_time, self.solver_totals.sat_time, self.sat_totals.clone())
    }

    /// Run generation, invoking `on_test` for every emitted test. Returning
    /// `false` from the callback stops the run.
    ///
    /// Convenience wrapper over [`Testgen::try_run`] that panics on the
    /// (harness-bug-only) [`RunError`]; path-level faults never reach it —
    /// they degrade into [`RunSummary::errors`].
    pub fn run(&mut self, on_test: impl FnMut(&TestSpec) -> bool) -> RunSummary {
        match self.try_run(on_test) {
            Ok(summary) => summary,
            Err(e) => panic!("testgen run failed: {e}"),
        }
    }

    /// Run generation, invoking `on_test` for every emitted test. Returning
    /// `false` from the callback stops the run.
    ///
    /// With `config.jobs > 1` exploration fans out over a work-stealing
    /// thread pool; emitted tests are collected, canonically ordered by
    /// fork trail, renumbered, and only then delivered to `on_test` on the
    /// calling thread.
    ///
    /// Path-level faults (panicking paths, Unknown solver verdicts, the run
    /// deadline) are *contained*: the run completes and reports them in
    /// [`RunSummary::errors`]. `Err` is reserved for workers dying outside
    /// that isolation — a harness bug, surfaced structurally instead of
    /// aborting the process.
    pub fn try_run(
        &mut self,
        mut on_test: impl FnMut(&TestSpec) -> bool,
    ) -> Result<RunSummary, RunError> {
        let t_start = Instant::now();
        // Request-level fault injection (serve isolation tests): these
        // fire before any worker spawns, so they deliberately escape the
        // per-path containment below — the host's per-*request*
        // `catch_unwind` is what must contain them.
        if self.config.fault_plan.driver_panic {
            panic!("injected driver panic (FaultPlan::driver_panic)");
        }
        if let Some(stall) = self.config.fault_plan.driver_stall {
            let until = t_start + stall;
            loop {
                if self.config.drain.as_ref().is_some_and(|d| d.load(Ordering::Acquire)) {
                    break;
                }
                let now = Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(Duration::from_millis(5)));
            }
        }
        let jobs = self.config.jobs.max(1);
        let fingerprint = self.run_fingerprint();
        let ckpt_enabled = self.config.checkpoint.is_some() || self.config.resume.is_some();
        let mut resume_info: Option<ResumeInfo> = ckpt_enabled.then(ResumeInfo::default);

        // Validate an offered resume state against this run's fingerprint.
        // A mismatch degrades to a cold start (recorded, never an error):
        // the checkpoint simply describes a different suite.
        let mut restored: Option<ExplorationState> = None;
        if let Some(r) = &self.config.resume {
            match r.validate_config(fingerprint) {
                Ok(()) => restored = Some(r.clone()),
                Err(e) => {
                    if let Some(info) = &mut resume_info {
                        info.rejected = Some(e.kind().to_string());
                    }
                    if let Some(fr) = &self.config.obs.flight {
                        fr.record_run("resume-rejected", Some(e.kind().to_string()));
                    }
                }
            }
        }
        // The config fingerprint deliberately excludes sharding (every
        // shard of one partition must share it), so the recorded filter is
        // compared separately: resuming under a different `--shard` leaves
        // frontier subtrees this process does not own silently unexplored.
        if let (Some(r), Some(info)) = (&restored, &mut resume_info) {
            if r.shard != self.config.shard {
                let describe = |s: Option<ShardSpec>| match s {
                    Some(s) => format!("shard {s}"),
                    None => "no shard filter".to_string(),
                };
                info.shard_mismatch = Some(format!(
                    "checkpoint written under {}, resumed under {}",
                    describe(r.shard),
                    describe(self.config.shard),
                ));
            }
        }
        if let Some(fr) = &self.config.obs.flight {
            let shard = self
                .config
                .shard
                .as_ref()
                .map_or(String::new(), |s| format!(" shard={}/{}", s.index, s.count));
            fr.record_run("run-start", Some(format!("jobs={jobs}{shard}")));
        }
        if let Some(ls) = &self.config.obs.live {
            ls.workers_total.store(jobs, Ordering::Relaxed);
            ls.total_statements.store(self.prog.num_statements() as u64, Ordering::Relaxed);
        }

        let shared = Shared {
            prog: &self.prog,
            pipeline: &self.pipeline,
            target: &*self.target,
            pool: &self.pool,
            config: &self.config,
            concolics: &self.concolics,
            program_name: &self.program_name,
            next_id: AtomicU64::new(0),
            live: AtomicU64::new(0),
            best: Mutex::new(BinaryHeap::new()),
            coverage: SharedCoverage::new(&self.prog),
            memo: FeasMemo::new(
                restored.as_ref().map_or(&[], |r| r.memo.as_slice()),
                self.config.shared_memo.clone(),
                feas_budget_class(&self.config),
            ),
            stealers: Vec::new(),
            started: t_start,
            deadline: self.config.fault_plan.deadline_override.or(self.config.deadline),
            deadline_hit: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            journal: Mutex::new(Journal::default()),
            drain_hit: AtomicBool::new(false),
            kill_hit: AtomicBool::new(false),
            run_fingerprint: fingerprint,
            last_flush: Mutex::new(Instant::now()),
            checkpoints_written: AtomicU64::new(
                restored.as_ref().map_or(0, |r| r.checkpoints_written),
            ),
            flush_error: Mutex::new(None),
            last_ckpt: Mutex::new(None),
        };

        // Initial state.
        let mut init = ExecState::new(0);
        {
            let mut ctx = ExecCtx::new(
                shared.pool,
                shared.prog,
                shared.pipeline,
                &shared.next_id,
                self.config.parser_loop_bound,
                self.config.seed,
            );
            ctx.apply_entry_restrictions = self.config.preconditions.apply_entry_restrictions;
            self.target.init(&mut ctx, &mut init);
            if let Some(bytes) = self.config.preconditions.fixed_packet_bytes {
                init.packet.grow_input(ctx.pool, bytes * 8);
            }
        }
        init.continuations.push(Cmd::PipeStep(0));

        let deques: Vec<WorkerDeque<Pending>> =
            (0..jobs).map(|_| WorkerDeque::new_lifo()).collect();
        let mut shared = shared;
        shared.stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = shared;

        if let Some(r) = restored {
            // Warm start: restore coverage, the top-k heap, and the journal,
            // then rebuild a live state for every frontier trail by
            // replaying execution along it. Replay is single-threaded and
            // skips feasibility/fault work — the original run already
            // admitted these exact trails.
            shared.coverage.restore(&r.coverage_words, r.coverage_epoch);
            *shared.best.lock() = BinaryHeap::from(r.best);
            let frontier = sanitize_frontier(r.frontier);
            {
                let mut j = shared.journal.lock();
                j.pending = frontier.clone();
                j.emitted = r.emitted;
                j.paths = r.paths_explored;
                j.infeasible = r.infeasible_paths;
                j.abandoned = r.abandoned_paths;
                j.errors = r.errors;
                // Run-scoped flags are re-derived by *this* run's merger.
                j.errors.deadline_expired = false;
                j.errors.frontend_warnings = 0;
                if let Some(info) = &mut resume_info {
                    info.resumed = true;
                    info.frontier_restored = j.pending.len() as u64;
                    info.tests_restored = j.emitted.len() as u64;
                    info.memo_restored = r.memo.len() as u64;
                }
            }
            let mut live = 0u64;
            for (i, trail) in frontier.iter().enumerate() {
                match replay_to_trail(&shared, &init, trail) {
                    Some(st) => {
                        deques[i % jobs].push(Pending { st, novelty: None });
                        live += 1;
                    }
                    None => {
                        // Replay of a checksum-valid trail failed: the
                        // program or engine diverged from the checkpoint's
                        // world. Count it abandoned rather than losing it
                        // silently or poisoning the run.
                        let mut j = shared.journal.lock();
                        j.pending.remove(trail);
                        j.abandoned += 1;
                        j.errors.bump_reason(reason::EXEC_ERROR);
                    }
                }
            }
            if let Some(info) = &mut resume_info {
                info.replayed_trails = live;
            }
            if let Some(fr) = &self.config.obs.flight {
                fr.record_run("resume-restored", Some(format!("replayed={live}")));
            }
            if let Some(ls) = &self.config.obs.live {
                let (frontier, emitted, paths) = {
                    let j = shared.journal.lock();
                    (j.pending.len() as u64, j.emitted.len() as u64, j.paths)
                };
                ls.publish(frontier, emitted, paths, live, shared.coverage.covered_count() as u64);
            }
            shared.live.store(live, Ordering::Release);
        } else {
            shared.journal.lock().pending.insert(Vec::new());
            shared.live.store(1, Ordering::Release);
            deques[0].push(Pending { st: init, novelty: None });
        }

        let outs: Vec<WorkerOut> = if jobs == 1 {
            let local = deques.into_iter().next().expect("one deque");
            vec![run_worker(&shared, 0, local)]
        } else {
            let sh = &shared;
            let joined: Vec<Result<WorkerOut, String>> = crossbeam::scope(move |s| {
                let handles: Vec<_> = deques
                    .into_iter()
                    .enumerate()
                    .map(|(i, local)| s.spawn(move |_| run_worker(sh, i, local)))
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| {
                        h.join().map_err(|p| {
                            format!("worker {i} panicked: {}", panic_payload_text(p.as_ref()))
                        })
                    })
                    .collect()
            })
            .map_err(|p| RunError {
                worker_failures: vec![format!(
                    "exploration scope failed: {}",
                    panic_payload_text(p.as_ref())
                )],
            })?;
            let mut outs = Vec::with_capacity(joined.len());
            let mut worker_failures = Vec::new();
            for r in joined {
                match r {
                    Ok(o) => outs.push(o),
                    Err(m) => worker_failures.push(m),
                }
            }
            if !worker_failures.is_empty() {
                return Err(RunError { worker_failures });
            }
            outs
        };

        // Final checkpoint flush — always when configured, even on clean
        // completion (an empty-frontier checkpoint is how shard campaigns
        // hand their emissions to the merge step, and how a later `--resume`
        // knows the suite is already complete).
        if let Some(ck) = &self.config.checkpoint {
            shared.flush_checkpoint(&ck.path);
        }

        // Merge per-worker instrumentation; path counters, emissions, and
        // error taxonomies come from the journal.
        let mut out = WorkerOut::default();
        for o in outs {
            out.absorb(o);
        }
        let (paths, infeasible, abandoned, out_of_shard, mut errors, mut merged, frontier_remaining) = {
            let mut j = shared.journal.lock();
            (
                j.paths,
                j.infeasible,
                j.abandoned,
                j.out_of_shard,
                std::mem::take(&mut j.errors),
                std::mem::take(&mut j.emitted),
                j.pending.len() as u64,
            )
        };
        self.solver_totals.absorb(&out.solver_stats);
        self.sat_totals.absorb(&out.sat_stats);
        // Every per-path view below is derived from these records.
        let log = out.log.take().map(|mut log| {
            log.canonicalize();
            log
        });
        errors.deadline_expired |= shared.deadline_hit.load(Ordering::Relaxed);
        errors.frontend_warnings = self.frontend_warnings.len() as u64;
        // Canonical panic order too: by trail, like the test suite itself.
        errors.panics.sort_by(|a, b| a.trail.cmp(&b.trail));
        errors.panics.truncate(MAX_PANIC_RECORDS);
        let solver_checks = out.solver_stats.checks;
        let memo_hits = shared.memo.hits.load(Ordering::Relaxed);

        // A kill fault simulates power loss right after the final flush:
        // nothing is delivered downstream of the (already-written)
        // checkpoint, exactly like a real dead process.
        let killed = shared.kill_hit.load(Ordering::Relaxed);
        if killed {
            merged.clear();
            if resume_info.is_none() {
                resume_info = Some(ResumeInfo::default());
            }
        }
        if let Some(info) = &mut resume_info {
            info.checkpoint_path =
                self.config.checkpoint.as_ref().map(|c| c.path.display().to_string());
            info.checkpoints_written = shared.checkpoints_written.load(Ordering::Relaxed);
            info.frontier_remaining = frontier_remaining;
            info.flush_error = shared.flush_error.lock().take();
            info.interrupted = if killed {
                Some("kill-fault".to_string())
            } else if shared.deadline_hit.load(Ordering::Relaxed) {
                Some("deadline".to_string())
            } else if shared.drain_hit.load(Ordering::Relaxed) {
                Some("signal".to_string())
            } else {
                None
            };
        }

        // Canonical order: lexicographic by fork trail — the order a
        // sequential DFS-of-the-fork-tree would discover the paths in,
        // independent of worker scheduling.
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        if self.config.max_tests > 0 {
            merged.truncate(self.config.max_tests as usize);
        }
        let test_trails: Vec<Vec<u32>> = merged.iter().map(|(t, _)| t.clone()).collect();
        let mut tests = 0u64;
        for (i, (_, spec)) in merged.iter_mut().enumerate() {
            spec.id = i as u64;
        }
        // Provenance: coverage deltas are derived by walking the *final*
        // suite in canonical order, so they are a pure function of the
        // suite — deterministic at any job count — rather than of the
        // racy order in which workers reached `SharedCoverage::add`.
        let provenance = log.as_ref().map(|log| {
            let meta: BTreeMap<&[u32], (u64, u64)> = log
                .paths
                .iter()
                .filter(|r| r.outcome == PathOutcome::Emitted)
                .map(|r| (r.trail.as_slice(), (r.constraints, r.checks)))
                .collect();
            let mut seen: BTreeSet<u32> = BTreeSet::new();
            merged
                .iter()
                .map(|(trail, spec)| {
                    let mut new_coverage = Vec::new();
                    for &s in &spec.covered_statements {
                        if seen.insert(s) {
                            new_coverage.push(s);
                        }
                    }
                    // Checkpoint-restored tests have no per-path meta (their
                    // paths were not re-executed this run): None, not 0.
                    let m = meta.get(trail.as_slice());
                    TestProvenance {
                        id: spec.id,
                        trail: trail.clone(),
                        constraints: m.map(|(c, _)| *c),
                        solver_checks: m.map(|(_, k)| *k),
                        new_coverage,
                        cumulative_covered: seen.len() as u64,
                    }
                })
                .collect::<Vec<_>>()
        });
        // Abandonment sites: the abandoned and panicked records, in the
        // records' canonical trail order.
        let abandon_sites: Vec<AbandonSite> = log
            .iter()
            .flat_map(|log| &log.paths)
            .filter_map(|r| {
                let reason = match r.outcome {
                    PathOutcome::Abandoned(key) => key,
                    PathOutcome::Panicked => reason::PANIC,
                    PathOutcome::Emitted | PathOutcome::Infeasible => return None,
                };
                Some(AbandonSite {
                    trail: r.trail.clone(),
                    reason: reason.to_string(),
                    near_stmt: r.near_stmt.map(StmtId),
                })
            })
            .collect();
        for (_, spec) in &merged {
            tests += 1;
            if !on_test(spec) {
                break;
            }
        }

        let mut phases = std::mem::take(&mut out.phases);
        phases.total = t_start.elapsed();
        phases.workers = jobs as u32;

        if let Some(ls) = &self.config.obs.live {
            ls.publish(frontier_remaining, tests, paths, 0, shared.coverage.covered_count() as u64);
            ls.finish();
        }

        let summary = RunSummary {
            tests,
            paths_explored: paths,
            infeasible_paths: infeasible,
            abandoned_paths: abandoned,
            out_of_shard_paths: out_of_shard,
            coverage: shared.coverage.report(&self.prog),
            phases,
            solver_checks,
            memo_hits,
            solver: std::mem::take(&mut out.inc_stats),
            errors,
            test_trails,
            trace: log,
            resume: resume_info,
            provenance,
            abandon_sites,
            differential: None,
        };
        if let Some(reg) = &self.config.obs.metrics {
            fold_run_metrics(reg, &summary, &out, &shared);
        }
        Ok(summary)
    }
}

/// Fold one run's finished summary and merged per-worker results into the
/// metrics registry. Runs once at merge time on the coordinating thread —
/// the exploration hot path never touches the registry. The metric
/// catalogue here is documented in DESIGN.md ("Observability").
fn fold_run_metrics(
    reg: &Registry,
    summary: &RunSummary,
    out: &WorkerOut,
    sh: &Shared<'_>,
) {
    let paths_help = "explored paths by terminal outcome";
    reg.counter_with("p4testgen_paths_total", paths_help, &[("outcome", "emitted")])
        .add(summary.tests);
    reg.counter_with("p4testgen_paths_total", paths_help, &[("outcome", "infeasible")])
        .add(summary.infeasible_paths);
    reg.counter_with("p4testgen_paths_total", paths_help, &[("outcome", "abandoned")])
        .add(summary.abandoned_paths);
    reg.counter("p4testgen_tests_emitted_total", "tests delivered to the backend")
        .add(summary.tests);
    for (reason, n) in &summary.errors.abandoned_by_reason {
        reg.counter_with(
            "p4testgen_abandoned_total",
            "abandoned paths by taxonomy reason",
            &[("reason", reason)],
        )
        .add(*n);
    }

    reg.counter("p4testgen_forks_total", "states forked while stepping")
        .add(summary.phases.forks);
    reg.counter("p4testgen_fork_ns_total", "time making forks, part of stepping (ns)")
        .add(summary.phases.fork.as_nanos() as u64);

    let s = &out.solver_stats;
    reg.counter("p4testgen_solver_checks_total", "solver checks issued").add(s.checks);
    let verdict_help = "solver verdicts by kind";
    reg.counter_with("p4testgen_solver_results_total", verdict_help, &[("verdict", "sat")])
        .add(s.sat_results);
    reg.counter_with("p4testgen_solver_results_total", verdict_help, &[("verdict", "unsat")])
        .add(s.unsat_results);
    reg.counter_with("p4testgen_solver_results_total", verdict_help, &[("verdict", "unknown")])
        .add(s.unknown_results);
    reg.counter("p4testgen_solver_solve_ns_total", "wall time inside check (ns)")
        .add(s.solve_time.as_nanos() as u64);
    reg.counter(
        "p4testgen_solver_simplify_ns_total",
        "wall time in term simplification, part of solve_ns (ns)",
    )
    .add(s.simplify_time.as_nanos() as u64);

    let sat = &out.sat_stats;
    reg.counter("p4testgen_sat_decisions_total", "SAT decisions").add(sat.decisions);
    reg.counter("p4testgen_sat_propagations_total", "SAT unit propagations").add(sat.propagations);
    reg.counter("p4testgen_sat_conflicts_total", "SAT conflicts").add(sat.conflicts);
    reg.counter("p4testgen_sat_restarts_total", "SAT restarts").add(sat.restarts);
    reg.counter("p4testgen_sat_learnt_clauses_total", "learnt clauses").add(sat.learnt_clauses);
    reg.counter("p4testgen_sat_learnt_literals_total", "literals across learnt clauses")
        .add(sat.learnt_literals);
    reg.histogram(
        "p4testgen_sat_learnt_clause_size",
        "learnt clause sizes (literals)",
        &LEARNT_SIZE_BOUNDS,
    )
    .merge_prebucketed(&sat.learnt_size_hist, sat.learnt_literals);
    reg.histogram(
        "p4testgen_sat_conflicts_per_check",
        "SAT conflicts per solver check",
        &CONFLICTS_PER_CHECK_BOUNDS,
    )
    .merge_prebucketed(&s.conflicts_per_check_hist, sat.conflicts);

    reg.counter("p4testgen_memo_lookups_total", "feasibility-memo lookups").add(sh.memo.lookups.load(Ordering::Relaxed));
    reg.counter("p4testgen_memo_hits_total", "feasibility-memo hits").add(summary.memo_hits);

    // The feasibility layer: simplifier, blast cache.
    let inc = &summary.solver;
    let path_help = "feasibility checks by solving path";
    reg.counter_with("p4testgen_feasibility_checks_total", path_help, &[("path", "simplified")])
        .add(inc.warm_checks);
    reg.counter_with("p4testgen_feasibility_checks_total", path_help, &[("path", "fresh_fallback")])
        .add(inc.fresh_fallbacks);
    let cache_help = "blaster term-cache outcomes";
    reg.counter_with("p4testgen_blast_cache_total", cache_help, &[("outcome", "hit")])
        .add(inc.blast_cache_hits);
    reg.counter_with("p4testgen_blast_cache_total", cache_help, &[("outcome", "miss")])
        .add(inc.blast_cache_misses);
    let simp_help = "term-simplifier actions on feasibility checks";
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "rewrites")])
        .add(inc.simplify.rewrites);
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "substitutions")])
        .add(inc.simplify.substitutions);
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "dropped_true")])
        .add(inc.simplify.dropped_true);
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "fast_unsat")])
        .add(inc.simplify.fast_unsat);

    reg.gauge("p4testgen_pool_terms", "interned terms in the pool").set(sh.pool.len() as u64);
    reg.gauge("p4testgen_pool_vars", "declared symbolic variables").set(sh.pool.num_vars() as u64);
    reg.gauge(
        "p4testgen_pool_intern_contention",
        "interns that found their consing shard locked (pool lifetime)",
    )
    .set(sh.pool.intern_contention());

    reg.counter("p4testgen_worker_steals_total", "successful work steals").add(out.steals);
    reg.counter("p4testgen_worker_parks_total", "busy-to-idle worker transitions").add(out.parks);
    reg.counter("p4testgen_worker_busy_ns_total", "summed worker busy time (ns)")
        .add(summary.phases.busy.as_nanos() as u64);
    reg.counter("p4testgen_worker_idle_ns_total", "summed worker idle time (ns)")
        .add(out.idle.as_nanos() as u64);
    reg.histogram(
        "p4testgen_queue_depth",
        "local queue depth sampled at each dequeue",
        &QUEUE_DEPTH_BOUNDS,
    )
    .merge_prebucketed(&out.queue_depth_hist, out.queue_depth_sum);

    reg.counter("p4testgen_unknown_queries_total", "solver queries ending Unknown after retry")
        .add(summary.errors.unknown_queries);
    reg.counter("p4testgen_budget_retries_total", "Unknown queries retried with a rotated phase seed")
        .add(summary.errors.budget_retries);
    reg.counter("p4testgen_panicked_paths_total", "paths isolated after panicking")
        .add(summary.errors.panicked_paths);
    reg.counter("p4testgen_model_defaults_total", "model evaluations that fell back to zero")
        .add(summary.errors.model_defaults);
    reg.gauge("p4testgen_deadline_expired", "1 when the run deadline expired")
        .set(u64::from(summary.errors.deadline_expired));

    // Checkpoint/resume instrumentation (present only for checkpointed or
    // resumed runs, so plain runs don't grow empty series).
    if let Some(r) = &summary.resume {
        reg.counter("p4testgen_checkpoints_written_total", "checkpoint files flushed")
            .add(r.checkpoints_written);
        reg.counter("p4testgen_frontier_restored_total", "frontier trails replayed on resume")
            .add(r.frontier_restored);
        reg.counter("p4testgen_tests_restored_total", "emitted tests carried over on resume")
            .add(r.tests_restored);
        reg.counter(
            "p4testgen_resume_replayed_trails_total",
            "frontier trails successfully replayed to live states on resume",
        )
        .add(r.replayed_trails);
        reg.gauge(
            "p4testgen_frontier_remaining",
            "unexplored frontier trails at run end (resumable work)",
        )
        .set(r.frontier_remaining);
    }
    if let Some((at, bytes)) = *sh.last_ckpt.lock() {
        reg.gauge(
            "p4testgen_checkpoint_age_seconds",
            "Seconds since the last successful checkpoint flush",
        )
        .set(at.elapsed().as_secs());
        reg.gauge(
            "p4testgen_checkpoint_bytes",
            "On-disk size of the last successful checkpoint",
        )
        .set(bytes);
    }
}
