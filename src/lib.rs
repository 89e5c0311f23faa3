//! # p4testgen — a test oracle for P4-16
//!
//! A from-scratch Rust reproduction of *"P4Testgen: An Extensible Test
//! Oracle for P4₁₆"* (Ruffy et al., SIGCOMM 2023). Given a P4 program and a
//! target architecture, it generates input/output packet tests — input
//! packet, control-plane configuration, expected output(s) with don't-care
//! masks — covering every reachable statement of the program.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`frontend`] (`p4t-frontend`) — P4-16 lexer, parser, typechecker.
//! * [`ir`] (`p4t-ir`) — the executable IR and midend passes.
//! * [`smt`] (`p4t-smt`) — bitvectors, terms, bit-blasting, CDCL SAT.
//! * [`core`] (`p4testgen-core`) — the symbolic executor with
//!   whole-program semantics: pipeline templates, packet sizing, taint,
//!   concolic execution, coverage, and the generation driver.
//! * [`targets`] (`p4t-targets`) — v1model, tna, t2na, ebpf_model.
//! * [`interp`] (`p4t-interp`) — concrete software models + fault injection.
//! * [`backends`] (`p4t-backends`) — STF, PTF, and Protobuf-text emitters.
//! * [`obs`] (`p4t-obs`) — diagnostics, metrics, the status endpoint, and
//!   the bounded queue/LRU primitives behind `p4testgen serve`.
//! * [`corpus`] (`p4t-corpus`) — the evaluation program corpus.
//!
//! It owns one piece of code: [`refeval_spec`], the translation of a
//! generated test into the reference evaluator's input and expectation.
//!
//! The `p4testgen` binary fronts all of this twice over: a one-shot CLI
//! (`p4testgen --target ... prog.p4`) and a long-lived generation daemon
//! (`p4testgen serve --listen HOST:PORT`) that multiplexes tenants over
//! the same reentrant [`core`] engine with per-request panic containment,
//! admission control, and bounded caches.
//!
//! ## Quick example
//!
//! ```
//! use p4testgen::core::{Testgen, TestgenConfig};
//! use p4testgen::targets::V1Model;
//!
//! let program = r#"
//! header h_t { bit<8> a; }
//! struct headers_t { h_t h; }
//! struct meta_t { bit<8> m; }
//! parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
//!     state start { pkt.extract(hdr.h); transition accept; }
//! }
//! control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
//! control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
//!     apply { sm.egress_spec = 1; }
//! }
//! control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
//! control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
//! control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
//! V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
//! "#;
//!
//! let mut tg = Testgen::new("demo", program, V1Model::new(), TestgenConfig::default()).unwrap();
//! let mut count = 0;
//! let summary = tg.run(|_test| { count += 1; true });
//! assert!(summary.tests >= 1);
//! assert_eq!(summary.coverage.covered, summary.coverage.total);
//! ```

pub use p4t_backends as backends;
pub use p4t_corpus as corpus;
pub use p4t_frontend as frontend;
pub use p4t_interp as interp;
pub use p4t_ir as ir;
pub use p4t_obs as obs;
pub use p4t_smt as smt;
pub use p4t_targets as targets;
pub use p4testgen_core as core;

pub mod refeval_spec;
