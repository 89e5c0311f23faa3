//! The abstract test specification (§4 step 3).
//!
//! A [`TestSpec`] is the target- and framework-independent description of
//! one test: input packet and port, control-plane configuration, register
//! initialization/expectations, and the expected output packet(s) with
//! don't-care masks over tainted bits. Test back ends (STF, PTF, Protobuf)
//! concretize this structure into their own formats.

use crate::state::Trace;
use serde::{Deserialize, Serialize};

/// Bytes plus a per-bit care mask of equal length (mask bit 1 = verify this
/// bit; 0 = don't care, i.e. tainted in the model).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskedBytes {
    pub data: Vec<u8>,
    /// Same length as `data`; `0xFF` everywhere when fully deterministic.
    pub mask: Vec<u8>,
}

impl MaskedBytes {
    pub fn exact(data: Vec<u8>) -> Self {
        let mask = vec![0xFF; data.len()];
        MaskedBytes { data, mask }
    }

    pub fn is_fully_exact(&self) -> bool {
        self.mask.iter().all(|&m| m == 0xFF)
    }

    /// Whether `actual` matches under the mask.
    pub fn matches(&self, actual: &[u8]) -> bool {
        if actual.len() != self.data.len() {
            return false;
        }
        self.data
            .iter()
            .zip(&self.mask)
            .zip(actual)
            .all(|((d, m), a)| (d & m) == (a & m))
    }

    /// Hex rendering of the data (don't-care nibbles as `*`).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(self.data.len() * 2);
        for (d, m) in self.data.iter().zip(&self.mask) {
            for shift in [4u8, 0u8] {
                let nib_mask = (m >> shift) & 0xF;
                if nib_mask == 0 {
                    s.push('*');
                } else {
                    s.push(char::from_digit(((d >> shift) & 0xF) as u32, 16).unwrap());
                }
            }
        }
        s
    }
}

/// A key match in a control-plane entry, fully concretized.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyMatch {
    Exact { name: String, value: Vec<u8> },
    Ternary { name: String, value: Vec<u8>, mask: Vec<u8> },
    Lpm { name: String, value: Vec<u8>, prefix_len: u32 },
    Range { name: String, lo: Vec<u8>, hi: Vec<u8> },
    Optional { name: String, value: Option<Vec<u8>> },
}

impl KeyMatch {
    pub fn name(&self) -> &str {
        match self {
            KeyMatch::Exact { name, .. }
            | KeyMatch::Ternary { name, .. }
            | KeyMatch::Lpm { name, .. }
            | KeyMatch::Range { name, .. }
            | KeyMatch::Optional { name, .. } => name,
        }
    }
}

/// One table entry to install before injecting the packet.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableEntrySpec {
    pub table: String,
    pub keys: Vec<KeyMatch>,
    pub action: String,
    /// (parameter name, value bytes).
    pub action_args: Vec<(String, Vec<u8>)>,
    pub priority: u32,
}

/// Register state to initialize before, or validate after, the test.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterSpec {
    pub instance: String,
    pub index: u64,
    pub value: Vec<u8>,
}

/// An expected output packet on a port.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputPacketSpec {
    pub port: u32,
    pub packet: MaskedBytes,
}

/// A complete, concrete test.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestSpec {
    /// Sequential test id within the run.
    pub id: u64,
    /// The program and target this test was generated for.
    pub program: String,
    pub target: String,
    /// Seed used for value selection (reproducibility).
    pub seed: u64,
    /// Input packet bytes and ingress port.
    pub input_port: u32,
    pub input_packet: Vec<u8>,
    /// Control-plane configuration.
    pub entries: Vec<TableEntrySpec>,
    /// Registers to initialize before injection.
    pub register_init: Vec<RegisterSpec>,
    /// Registers to validate after the run.
    pub register_expect: Vec<RegisterSpec>,
    /// Expected outputs; empty = the packet must be dropped.
    pub outputs: Vec<OutputPacketSpec>,
    /// Statement ids covered by this test's path.
    pub covered_statements: Vec<u32>,
    /// Human-readable trace of the path (for debugging failing tests). The
    /// path's own persistent list: tests share the prefixes their paths
    /// share, and a clone copies no line.
    pub trace: Trace,
}

impl TestSpec {
    /// True when the test expects the packet to be dropped.
    pub fn expects_drop(&self) -> bool {
        self.outputs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_match_respects_dont_care() {
        let mb = MaskedBytes { data: vec![0xAB, 0x00], mask: vec![0xFF, 0x00] };
        assert!(mb.matches(&[0xAB, 0x42]));
        assert!(mb.matches(&[0xAB, 0xFF]));
        assert!(!mb.matches(&[0xAC, 0x42]));
        assert!(!mb.matches(&[0xAB])); // length mismatch
    }

    #[test]
    fn hex_rendering_with_wildcards() {
        let mb = MaskedBytes { data: vec![0xAB, 0xCD], mask: vec![0xFF, 0x0F] };
        assert_eq!(mb.to_hex(), "ab*d");
    }

    fn sample(trace: &[&str]) -> TestSpec {
        TestSpec {
            id: 1,
            program: "p".into(),
            target: "v1model".into(),
            seed: 42,
            input_port: 0,
            input_packet: vec![1, 2, 3],
            entries: vec![TableEntrySpec {
                table: "C.t".into(),
                keys: vec![KeyMatch::Exact { name: "k".into(), value: vec![0xBE, 0xEF] }],
                action: "C.a".into(),
                action_args: vec![("port".into(), vec![2])],
                priority: 0,
            }],
            register_init: vec![],
            register_expect: vec![],
            outputs: vec![OutputPacketSpec {
                port: 2,
                packet: MaskedBytes::exact(vec![1, 2, 3]),
            }],
            covered_statements: vec![0, 1],
            trace: trace.iter().map(|l| l.to_string()).collect(),
        }
    }

    #[test]
    fn serde_round_trip() {
        let spec = sample(&["x"]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: TestSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    /// The serialized and debug forms of a spec are pinned: the trace is an
    /// array of its lines in push order, whatever its representation.
    #[test]
    fn serialized_form_is_pinned() {
        let spec = sample(&["start", "C.t: synthesized entry -> a", "emit \"eth\""]);
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(json, PINNED_JSON);
        let back: TestSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_ne!(back, sample(&["start", "C.t: synthesized entry -> a"]));
        let debug = r#"["start", "C.t: synthesized entry -> a", "emit \"eth\""]"#;
        assert_eq!(format!("{:?}", spec.trace), debug);
    }

    /// Written by the serializer when the trace was a `Vec<String>`.
    const PINNED_JSON: &str = concat!(
        r#"{"id":1,"program":"p","target":"v1model","seed":42,"input_port":0,"#,
        r#""input_packet":[1,2,3],"entries":[{"table":"C.t","keys":[{"Exact":"#,
        r#"{"name":"k","value":[190,239]}}],"action":"C.a","action_args":[["port",[2]]],"#,
        r#""priority":0}],"register_init":[],"register_expect":[],"outputs":[{"port":2,"#,
        r#""packet":{"data":[1,2,3],"mask":[255,255,255]}}],"covered_statements":[0,1],"#,
        r#""trace":["start","C.t: synthesized entry -> a","emit \"eth\""]}"#,
    );
}
