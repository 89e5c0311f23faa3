//! The by-name target registry: every name resolves to the target of that
//! name, every engine knows it, and a registry-built suite is the suite the
//! concrete target builds.

use p4t_backends::{StfBackend, TestBackend};
use p4t_interp::Arch;
use p4t_refeval::RefArch;
use p4t_targets::{by_name, EbpfModel, Tofino, V1Model, NAMES};
use p4testgen_core::{Target, Testgen, TestgenConfig};

#[test]
fn every_name_resolves_for_the_generator_and_both_engines() {
    for &n in NAMES {
        let target = by_name(n).unwrap_or_else(|| panic!("{n}: not in the registry"));
        assert_eq!(target.name(), n);
        assert!(Arch::from_target_name(n).is_some(), "{n}: unknown to the interpreter");
        assert!(RefArch::from_target_name(n).is_some(), "{n}: unknown to refeval");
    }
    assert!(by_name("bmv2").is_none());
    assert!(by_name("").is_none());
}

#[test]
fn names_list_every_concrete_target() {
    let concrete: [Box<dyn Target>; 4] =
        [V1Model::new().into(), Tofino::tna().into(), Tofino::t2na().into(), EbpfModel::new().into()];
    let names: Vec<&str> = concrete.iter().map(|t| t.name()).collect();
    assert_eq!(names, NAMES);
}

/// The STF suite for `generate_intersection(name)` on `target`.
fn intersection_suite(name: &str, target: impl Into<Box<dyn Target>>) -> String {
    let src = p4t_corpus::generate_intersection(name);
    let config = TestgenConfig { seed: 1, jobs: 1, ..TestgenConfig::default() };
    let mut tg = Testgen::new("intersection", &src, target, config)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut tests = Vec::new();
    tg.run(|t| {
        tests.push(t.clone());
        true
    });
    assert!(!tests.is_empty(), "{name}: no tests");
    StfBackend.emit_suite(&tests)
}

fn assert_registry_suite_matches<T: Target>(target: T) {
    let name = target.name().to_string();
    let direct = intersection_suite(&name, target);
    let registered = intersection_suite(&name, by_name(&name).expect("registered"));
    assert_eq!(registered, direct, "{name}: registry-built suite differs");
}

#[test]
fn registry_suites_are_byte_identical_to_concrete_ones() {
    assert_registry_suite_matches(V1Model::new());
    assert_registry_suite_matches(Tofino::tna());
    assert_registry_suite_matches(Tofino::t2na());
    assert_registry_suite_matches(EbpfModel::new());
}
