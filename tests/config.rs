//! `TestgenConfig::set`, the one option-name → field map behind the CLI,
//! `diff`, serve requests and the `P4TESTGEN_*` environment defaults.

mod common;

use common::EXAMPLE_VALUES;
use p4testgen_core::{ConfigError, ShardSpec, TestgenConfig};
use std::time::Duration;

#[test]
fn set_accepts_good_values_and_rejects_bad_ones_unchanged() {
    for &(key, good, bad) in EXAMPLE_VALUES {
        let mut config = TestgenConfig::default();
        config.set(key, good).unwrap_or_else(|e| panic!("{key}={good}: {e}"));
        let before = format!("{config:?}");
        match config.set(key, bad) {
            Err(ConfigError::BadValue { key: k, .. }) => assert_eq!(k, key),
            other => panic!("{key}={bad}: expected BadValue, got {other:?}"),
        }
        assert_eq!(format!("{config:?}"), before, "{key}={bad} changed the config");
    }
    // `solver_mode` is retired: there is one feasibility discipline.
    for key in ["max-tests", "deadline_s", "", "solver_mode"] {
        let err = TestgenConfig::default().set(key, "1");
        assert_eq!(err, Err(ConfigError::UnknownKey(key.to_string())));
    }
}

#[test]
fn set_writes_the_field_behind_each_spelling() {
    let mut c = TestgenConfig::default();
    c.set("deadline", "1.5").unwrap();
    assert_eq!(c.deadline, Some(Duration::from_millis(1500)));
    c.set("deadline_ms", "0").unwrap();
    assert_eq!(c.deadline, Some(Duration::ZERO), "deadline_ms 0 expires at once");
    assert!(c.set("deadline", "0").is_err() && c.set("deadline", "inf").is_err());
    c.set("fixed_packet_size", "60").unwrap();
    assert_eq!(c.preconditions.fixed_packet_bytes, Some(60));
    c.set("fixed_packet_bytes", "64").unwrap();
    assert_eq!(c.preconditions.fixed_packet_bytes, Some(64));
    c.set("with_constraints", "true").unwrap();
    assert!(c.preconditions.apply_entry_restrictions);
    c.set("model_loop_bound", "9").unwrap();
    assert_eq!(c.interp_parser_loop_bound, 9);
    c.set("shard", "1/4").unwrap();
    assert_eq!(c.shard, Some(ShardSpec { index: 1, count: 4 }));
}
