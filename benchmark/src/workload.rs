//! The four workloads. Each stresses different layers; README.md says which
//! and why.

use p4t_corpus::fuzz::Rng;
use p4t_interp::Arch;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["corpus", "wide", "deep", "programs"];

/// One program of a workload: its P4 source (without the target prelude)
/// and the architecture it is generated for and validated on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub arch: Arch,
}

pub struct Workload {
    pub name: &'static str,
    /// Exploration workers per `Testgen::run`.
    pub jobs: usize,
    pub programs: Vec<Program>,
}

fn program(name: &str, source: String, target: &str) -> Program {
    let arch = match target {
        "v1model" => Arch::V1Model,
        "tna" => Arch::Tna,
        "ebpf_model" => Arch::Ebpf,
        other => panic!("workload program {name} names unknown target {other}"),
    };
    Program {
        name: name.to_string(),
        source,
        arch,
    }
}

/// Build the named workload; `None` for an unknown name.
pub fn workload(name: &str, seed: u64, host_cpus: usize) -> Option<Workload> {
    let (name, jobs, programs) = match name {
        "corpus" => (
            "corpus",
            host_cpus.clamp(1, 2),
            p4t_corpus::all_programs()
                .into_iter()
                .map(|(n, s, t)| program(n, s, t))
                .collect(),
        ),
        "wide" => (
            "wide",
            1,
            vec![program(
                "synthetic_5x3",
                p4t_corpus::generate_synthetic(5, 3),
                "v1model",
            )],
        ),
        "deep" => (
            "deep",
            1,
            vec![program(
                "parser_deep_20x8",
                p4t_corpus::generate_parser_deep(20, 8),
                "v1model",
            )],
        ),
        "programs" => ("programs", 1, draw_programs(seed)),
        _ => return None,
    };
    Some(Workload {
        name,
        jobs,
        programs,
    })
}

/// Corpus programs left out of the `programs` draw: they dominate `corpus`
/// and would drown the per-program costs `programs` exists to show.
const LARGE: [&str; 3] = ["middleblock_sim", "up4_sim", "switch_sim"];

/// How many times each small program appears in the draw.
const ROUNDS: usize = 4;

/// The `programs` workload: every small program shape, `ROUNDS` times over,
/// in an order shuffled by a SplitMix64 seeded with `seed`. The shapes are
/// `synthetic(n ≤ 2, a ≤ 4)`, `parser_deep(d ≤ 7, f ≤ 4)`, the three
/// target-intersection variants, and the nine small corpus programs. Every
/// seed draws the same multiset, so per-seed cost differs only through the
/// generation seed and `suite_s` stays comparable across seeds.
pub fn draw_programs(seed: u64) -> Vec<Program> {
    let mut shapes = Vec::new();
    for n in 1..=2 {
        for a in 1..=4 {
            let src = p4t_corpus::generate_synthetic(n, a);
            shapes.push(program(&format!("synthetic_{n}x{a}"), src, "v1model"));
        }
    }
    for d in 1..=7 {
        for f in 1..=4 {
            let src = p4t_corpus::generate_parser_deep(d, f);
            shapes.push(program(&format!("parser_deep_{d}x{f}"), src, "v1model"));
        }
    }
    for t in p4t_corpus::INTERSECTION_TARGETS {
        shapes.push(program(
            &format!("intersection_{t}"),
            p4t_corpus::generate_intersection(t),
            t,
        ));
    }
    for (n, s, t) in p4t_corpus::all_programs() {
        if !LARGE.contains(&n) {
            shapes.push(program(n, s, t));
        }
    }
    let mut list: Vec<Program> = (0..ROUNDS).flat_map(|_| shapes.iter().cloned()).collect();
    let mut rng = Rng::new(seed);
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i + 1));
    }
    for (i, p) in list.iter_mut().enumerate() {
        p.name = format!("{}_{i:03}", p.name);
    }
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_draw_repeats_for_a_seed_and_changes_with_it() {
        let a = draw_programs(1);
        assert_eq!(a, draw_programs(1));
        assert_ne!(a, draw_programs(2));
        assert_eq!(a.len(), ROUNDS * (8 + 28 + 3 + 9));
        // Another seed reorders the same multiset of sources.
        let sources = |ps: &[Program]| {
            let mut v: Vec<String> = ps.iter().map(|p| p.source.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(sources(&a), sources(&draw_programs(2)));
    }

    #[test]
    fn corpus_uses_at_most_two_workers() {
        assert_eq!(workload("corpus", 1, 8).map(|w| w.jobs), Some(2));
        assert_eq!(workload("corpus", 1, 1).map(|w| w.jobs), Some(1));
        assert!(workload("nope", 1, 1).is_none());
        for name in NAMES {
            assert_eq!(workload(name, 1, 2).map(|w| w.name), Some(name));
        }
    }
}
