//! # p4t-backends — test back ends
//!
//! The paper's P4Testgen emits an abstract test specification which
//! framework-specific back ends concretize (§4 step 3, Table 1): STF for
//! BMv2/eBPF, PTF for BMv2/Tofino, and Protobuf messages. This crate
//! implements all three emitters over
//! [`p4testgen_core::testspec::TestSpec`]:
//!
//! * [`stf`] — the Simple Test Framework text format (`add`/`packet`/
//!   `expect` lines). STF cannot express range matches (§6 notes BMv2 STF
//!   does not support adding range entries), so the emitter reports
//!   unsupported tests rather than emitting wrong ones.
//! * [`ptf`] — a Packet Test Framework-style Python script.
//! * [`proto`] — machine-readable text-format Protobuf-like messages
//!   (P4Runtime-flavored), plus a JSON dump for tooling.
//! * [`stf_parser`] — reads STF text back into test specifications, so a
//!   generated `.stf` file can be executed against the software models the
//!   way BMv2's STF driver consumes P4C test files.

pub mod proto;
pub mod ptf;
pub mod stf;
pub mod stf_parser;

pub use proto::ProtoBackend;
pub use ptf::PtfBackend;
pub use stf::StfBackend;
pub use stf_parser::{parse_stf, StfParseError};

use p4testgen_core::testspec::TestSpec;

/// A test back end: concretizes abstract test specifications into an
/// executable format.
pub trait TestBackend {
    /// Short name ("stf", "ptf", "proto").
    fn name(&self) -> &str;

    /// Render one test. `Err` means the framework cannot express this test
    /// (e.g. STF with range entries) — the caller counts it as skipped.
    fn emit_test(&self, spec: &TestSpec) -> Result<String, String>;

    /// Render a whole suite (header + tests + footer).
    fn emit_suite(&self, specs: &[TestSpec]) -> String {
        let mut out = self.prologue(specs);
        for s in specs {
            match self.emit_test(s) {
                Ok(t) => out.push_str(&t),
                Err(e) => {
                    out.push_str(&format!("# test {} skipped: {e}\n", s.id));
                }
            }
        }
        out
    }

    /// Suite header.
    fn prologue(&self, _specs: &[TestSpec]) -> String {
        String::new()
    }
}

pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02X}")).collect()
}

#[cfg(test)]
pub(crate) fn sample_spec() -> TestSpec {
    use p4testgen_core::testspec::*;
    TestSpec {
        id: 0,
        program: "fig1a".into(),
        target: "v1model".into(),
        seed: 1,
        input_port: 0,
        input_packet: vec![0; 12],
        entries: vec![TableEntrySpec {
            table: "Ing.forward_table".into(),
            keys: vec![KeyMatch::Exact { name: "type".into(), value: vec![0xBE, 0xEF] }],
            action: "Ing.set_out".into(),
            action_args: vec![("port".into(), vec![0x00, 0x02])],
            priority: 0,
        }],
        register_init: vec![],
        register_expect: vec![],
        outputs: vec![OutputPacketSpec {
            port: 2,
            packet: MaskedBytes::exact(vec![0xBE, 0xEF]),
        }],
        covered_statements: vec![1, 2],
        trace: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_render_the_sample() {
        let spec = sample_spec();
        for b in [
            Box::new(StfBackend) as Box<dyn TestBackend>,
            Box::new(PtfBackend),
            Box::new(ProtoBackend),
        ] {
            let out = b.emit_test(&spec).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(out.contains("BEEF") || out.contains("beef"), "{}: {out}", b.name());
        }
    }
}
