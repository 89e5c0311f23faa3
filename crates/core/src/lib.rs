//! # p4testgen-core — the P4Testgen symbolic executor
//!
//! This crate is the paper's primary contribution: a test oracle that, given
//! a P4 program and a target extension, generates input/output packet tests
//! covering the program's statements. The implementation decomposes
//! *whole-program semantics* (§5) exactly as the paper does:
//!
//! * [`target`] — the extension interface: pipeline templates (§5.1),
//!   package roots that lowering binds block parameters to (Fig. 3),
//!   interstitial hooks (Fig. 5), extern dispatch, and policies
//!   (uninitialized values, minimum packet size).
//! * [`state`] — per-path execution state with a continuation stack
//!   (§5.1.2); continuations let targets express recirculation, cloning, and
//!   multi-pipe traversal by pushing commands.
//! * [`packet`] — the packet-sizing model with the I/L/E buffers (§5.2.1,
//!   Fig. 6).
//! * [`sym`] — symbolic values with bit-level taint and the taint-spread
//!   mitigations (§5.3).
//! * [`concolic`] — concolic execution for checksum-like externs (§5.4),
//!   with the solve → execute → bind → re-solve loop and retry handling.
//! * [`exec`] — the small-step reference semantics of every P4 construct;
//!   each step can be customized by target extensions (§4 step 2).
//! * [`tables`] — symbolic table application and control-plane entry
//!   synthesis, including the taint rules for each match kind.
//! * [`preconditions`] — P4-constraints (`@entry_restriction`) and
//!   fixed-packet-size preconditions (Table 4b).
//! * [`coverage`] — statement-coverage tracking and reports (§7).
//! * [`testspec`] — the abstract test specification consumed by the test
//!   back ends (§4 step 3).
//! * [`config`] — [`TestgenConfig`] and [`TestgenConfig::set`], the one
//!   option-name → field map every front end uses.
//! * [`testgen`] — the driver: path selection (DFS default), eager
//!   infeasible-path pruning, and test emission with per-phase timing
//!   (Fig. 7), on the private `worker` module's exploration workers.
//! * [`summary`] — what a run reports; [`memo`] — the feasibility memos.
//! * [`fault`] — deterministic, trail-keyed fault injection for exercising
//!   the driver's degradation paths (Unknown verdicts, panicking paths,
//!   shrunken deadlines, simulated hard kills) from tests and benches.
//! * [`checkpoint`] — serializable exploration state: trail-prefix
//!   sharding (`ShardSpec`), versioned checksummed checkpoint files
//!   (`ExplorationState`), and shard-suite merging for distributed and
//!   crash-resumable campaigns.

pub mod checkpoint;
pub mod concolic;
pub mod config;
pub mod coverage;
pub mod exec;
pub mod fault;
pub mod memo;
pub mod packet;
pub mod preconditions;
pub mod state;
pub mod summary;
pub mod sym;
pub mod tables;
pub mod target;
pub mod testgen;
pub mod testspec;
mod worker;

pub use checkpoint::{
    is_transient_io, merge_shard_suites, CheckpointCfg, CheckpointError, ExplorationState,
    ShardSpec, WriteFailure, WRITE_ATTEMPTS,
};
pub use coverage::{AbandonSite, CoverageReport, CoverageTracker, MissedStatement, SharedCoverage};
pub use fault::FaultPlan;
pub use preconditions::Preconditions;
pub use state::{Cmd, ExecState, FinishReason};
pub use sym::Sym;
pub use target::{ExecCtx, ExtArg, ExternOutcome, PipeStep, Target, UninitPolicy};
pub use config::{ConfigError, ObsConfig, SolverMode, Strategy, TestgenConfig};
pub use memo::SharedFeasMemo;
pub use summary::{
    classify_abandon_reason, reason, DifferentialSummary, ErrorStats, PanicRecord, PhaseStats,
    ResumeInfo, RunSummary, TestProvenance,
};
pub use testgen::{run_fingerprint_of, BuildError, CompiledProgram, RunError, Testgen};
pub use worker::panic_payload_text;
pub use testspec::{KeyMatch, MaskedBytes, OutputPacketSpec, TableEntrySpec, TestSpec};

/// The one FNV-1a behind every persisted fingerprint and checksum. It
/// lives in the frontend, whose prelude cache starts source fingerprints.
pub use p4t_frontend::{fnv_mix, FNV_OFFSET};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        let hash = |s: &str| {
            let mut h = FNV_OFFSET;
            fnv_mix(&mut h, s.as_bytes());
            h
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}
