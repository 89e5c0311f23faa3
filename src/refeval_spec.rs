//! The one translation of a generated [`TestSpec`] into the reference
//! evaluator's terms: its input (packet, table entries, register state)
//! and its expectation (outputs with don't-care masks, final registers).
//! `p4testgen diff` and the differential tests both go through it, so
//! `p4t-refeval` stays a leaf that shares only the frontend.

use p4t_refeval::{RefEntry, RefExpect, RefExpectedOutput, RefInput, RefKey, RefRegister};
use p4testgen_core::{KeyMatch, TestSpec};

/// The reference evaluator's input for `spec`.
pub fn ref_input(spec: &TestSpec) -> RefInput {
    RefInput {
        input_port: spec.input_port,
        input_packet: spec.input_packet.clone(),
        entries: spec
            .entries
            .iter()
            .map(|e| RefEntry {
                table: e.table.clone(),
                keys: e
                    .keys
                    .iter()
                    .map(|k| match k {
                        KeyMatch::Exact { value, .. } => RefKey::Exact { value: value.clone() },
                        KeyMatch::Ternary { value, mask, .. } => {
                            RefKey::Ternary { value: value.clone(), mask: mask.clone() }
                        }
                        KeyMatch::Lpm { value, prefix_len, .. } => {
                            RefKey::Lpm { value: value.clone(), prefix_len: *prefix_len }
                        }
                        KeyMatch::Range { lo, hi, .. } => {
                            RefKey::Range { lo: lo.clone(), hi: hi.clone() }
                        }
                        KeyMatch::Optional { value, .. } => {
                            RefKey::Optional { value: value.clone() }
                        }
                    })
                    .collect(),
                action: e.action.clone(),
                action_args: e.action_args.iter().map(|(_, v)| v.clone()).collect(),
                priority: e.priority,
            })
            .collect(),
        register_init: spec
            .register_init
            .iter()
            .map(|r| RefRegister { instance: r.instance.clone(), index: r.index, value: r.value.clone() })
            .collect(),
    }
}

/// What the reference evaluator must observe for `spec` to pass.
pub fn ref_expect(spec: &TestSpec) -> RefExpect {
    RefExpect {
        expects_drop: spec.expects_drop(),
        outputs: spec
            .outputs
            .iter()
            .map(|o| RefExpectedOutput {
                port: o.port,
                data: o.packet.data.clone(),
                mask: Some(o.packet.mask.clone()),
            })
            .collect(),
        registers: spec
            .register_expect
            .iter()
            .map(|r| RefRegister { instance: r.instance.clone(), index: r.index, value: r.value.clone() })
            .collect(),
    }
}
