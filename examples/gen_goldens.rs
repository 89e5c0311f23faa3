//! Regenerate the golden STF suites in `tests/golden_suites/` from the
//! `examples/p4/` seed corpus. Run with `cargo run --example gen_goldens`.
//!
//! The suites pin down the exact bytes the engine emits for every valid
//! example under a deterministic configuration (seed 1, one worker); the
//! `frontend_errors` integration test replays the same configuration and
//! asserts byte-identical output.

use p4testgen::backends::{StfBackend, TestBackend};
use p4testgen::core::{Testgen, TestgenConfig};
use p4testgen::corpus::fuzz::arch_of;
use p4testgen::targets;
use std::fs;
use std::path::Path;

fn golden_config() -> TestgenConfig {
    let mut config = TestgenConfig::default();
    config.seed = 1;
    config.jobs = 1;
    config.max_tests = 0;
    config
}

/// The STF suite for one example, on the target its `// arch:` banner names.
fn suite_for(name: &str, source: &str) -> String {
    let target = targets::by_name(arch_of(source)).expect("arch_of yields a target name");
    let mut tg = Testgen::new(name, source, target, golden_config()).expect("compile");
    let mut tests = Vec::new();
    tg.run(|t| {
        tests.push(t.clone());
        true
    });
    StfBackend.emit_suite(&tests)
}

fn main() {
    let out = Path::new("tests/golden_suites");
    fs::create_dir_all(out).expect("create tests/golden_suites");
    for entry in fs::read_dir("examples/p4").expect("read examples/p4") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("p4") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let source = fs::read_to_string(&path).expect("read example");
        let suite = suite_for(&name, &source);
        let dest = out.join(format!("{name}.stf"));
        fs::write(&dest, &suite).expect("write golden");
        println!("wrote {} ({} bytes)", dest.display(), suite.len());
    }
}
