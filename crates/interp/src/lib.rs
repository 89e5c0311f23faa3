//! # p4t-interp — concrete software models with fault injection
//!
//! The paper validates P4Testgen's oracle by executing generated tests on
//! the targets' software models (BMv2, the Tofino model, the eBPF kernel)
//! and counts toolchain bugs the tests expose (Tables 2/3). Those vendor
//! models are unavailable here, so this crate provides the substitute:
//!
//! * [`interp`] — a from-scratch concrete interpreter over the same IR,
//!   implementing each architecture's semantics independently of the
//!   symbolic extensions (the "software model");
//! * [`faults`] — a catalog of 25 toolchain-style bugs (9 BMv2-class,
//!   16 Tofino-class, matching Table 2's totals and Table 3's BMv2
//!   descriptions) that can be planted into the model;
//! * [`verdict`] — compares a model run against a test's expectations,
//!   classifying failures as *exceptions* or *wrong code* exactly as the
//!   paper's §7 does.
//!
//! Running every generated test against the unfaulted model is the
//! oracle-correctness experiment; running them against each faulted model
//! and counting detections reproduces the bug-finding experiment.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod faults;
pub mod interp;
pub mod verdict;

pub use faults::{Fault, FaultClass, FaultSet, FaultTargetClass};
pub use interp::{Arch, Interp, InterpException, InterpResult, InterpStats};
pub use verdict::{check, Verdict};

use p4t_ir::IrProgram;
use p4testgen_core::testspec::TestSpec;

/// Convenience: run one test against a (possibly faulted) model and verdict.
pub fn execute_and_check(
    prog: &IrProgram,
    arch: Arch,
    faults: FaultSet,
    spec: &TestSpec,
) -> Verdict {
    let interp = Interp::new(prog, arch, faults);
    check(spec, interp.run(spec))
}

/// Like [`execute_and_check`], with an explicit parser-loop runaway bound
/// for the model (callers thread `TestgenConfig::interp_parser_loop_bound`
/// through here so the symbolic and concrete bounds can be tuned together).
pub fn execute_and_check_with_bound(
    prog: &IrProgram,
    arch: Arch,
    faults: FaultSet,
    spec: &TestSpec,
    parser_loop_bound: u32,
) -> Verdict {
    execute_and_check_counted(prog, arch, faults, spec, parser_loop_bound).0
}

/// Like [`execute_and_check_with_bound`], additionally returning the model's
/// work counters so validation drivers can aggregate how much concrete
/// interpretation the pass performed (statements executed, parser state
/// visits). The counters are meaningful even on failing verdicts.
pub fn execute_and_check_counted(
    prog: &IrProgram,
    arch: Arch,
    faults: FaultSet,
    spec: &TestSpec,
    parser_loop_bound: u32,
) -> (Verdict, InterpStats) {
    let interp = Interp::new(prog, arch, faults).with_parser_loop_bound(parser_loop_bound);
    let (result, stats) = interp.run_counted(spec);
    (check(spec, result), stats)
}
