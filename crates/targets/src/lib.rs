//! # p4t-targets — target extensions for p4testgen
//!
//! The paper instantiates P4Testgen for four architectures (Table 1); this
//! crate provides all four, each implementing the
//! [`Target`](p4testgen_core::Target) trait from `p4testgen-core` without
//! touching the core executor — the extensibility claim the paper validates:
//!
//! * [`v1model`] — BMv2's architecture (§6.1.1), including `clone`,
//!   recirculation, checksums, and P4-constraints support.
//! * [`tofino`] — the `tna` (Tofino 1) and `t2na` (Tofino 2) architectures
//!   (§6.1.2): prepended intrinsic metadata, frame check sequences,
//!   64-byte minimum packets, drop-on-parser-error in the ingress parser,
//!   and (for t2na) the ghost thread.
//! * [`ebpf`] — the `ebpf_model` end-host target (§6.1.3): parser + filter,
//!   no deparser, implicit header emission.
//!
//! [`by_name`] is the one place a target name picks a target: the CLI,
//! the serve daemon, the differential harness and the corpus tools all
//! choose their target through it.
//!
//! [`quirks`] documents the expected cross-target behavioral differences
//! the differential harness tolerates (`p4testgen diff --cross`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod common;
pub mod ebpf;
pub mod quirks;
pub mod tofino;
pub mod v1model;

pub use ebpf::EbpfModel;
pub use quirks::{match_quirk, DivergenceContext, Quirk, SideObservation};
pub use tofino::{Tofino, TofinoVariant};
pub use v1model::V1Model;

use p4testgen_core::Target;

/// Every target name [`by_name`] accepts, in Table 1 order.
pub const NAMES: &[&str] = &["v1model", "tna", "t2na", "ebpf_model"];

/// The target extension called `name` (one of [`NAMES`]), or `None` for
/// an unknown name.
pub fn by_name(name: &str) -> Option<Box<dyn Target>> {
    Some(match name {
        "v1model" => Box::new(V1Model::new()),
        "tna" => Box::new(Tofino::tna()),
        "t2na" => Box::new(Tofino::t2na()),
        "ebpf_model" => Box::new(EbpfModel::new()),
        _ => return None,
    })
}
