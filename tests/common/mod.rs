//! Shared by the integration tests that drive engine options through the
//! front ends (`tests/config.rs`, `tests/cli.rs`, `tests/serve.rs`).

/// One `(key, accepted value, rejected value)` row per
/// `TestgenConfig::set` key: a new key gets config, CLI and serve coverage
/// by adding a row.
pub const EXAMPLE_VALUES: &[(&str, &str, &str)] = &[
    ("max_tests", "3", "-1"),
    ("seed", "7", "abc"),
    ("strategy", "bfs", "sideways"),
    ("jobs", "2", "0"),
    ("solver_budget", "100000", "abc"),
    ("solver_mode", "fresh", "warm"),
    ("deadline", "300", "-1"),
    ("deadline_ms", "300000", "1.5"),
    ("shard", "0/2", "4/4"),
    ("model_loop_bound", "32", "-3"),
    ("fixed_packet_bytes", "64", "big"),
    ("fixed_packet_size", "64", "-64"),
    ("with_constraints", "true", "yes"),
];
