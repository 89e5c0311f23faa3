//! Ablation study of p4testgen's design choices (DESIGN.md items):
//!
//! 1. **Path-selection strategy** (§5.1.2: continuations make heuristics
//!    pluggable; §6: DFS is the default): tests needed to reach full
//!    statement coverage under DFS vs BFS vs random backtracking.
//! 2. **Eager infeasible-path pruning** (§6: "P4Testgen prunes
//!    unsatisfiable paths"): solver checks and wall time with pruning at
//!    fork time vs only at test emission.
//! 3. **Taint-aware entry synthesis** (§5.3): number of generated tests
//!    with the wildcard-ternary mitigation vs dropping tainted-key tables
//!    entirely (approximated by counting tests whose entries use wildcards).
//! 4. **Incremental solving** (the paper solves each path incrementally):
//!    run time and warm-core reuse counters with feasibility checks solved
//!    fresh per check vs on the warm spine core, at one worker.

use p4t_targets::V1Model;
use p4testgen_core::{SolverMode, Strategy, Testgen, TestgenConfig};
use std::time::Instant;

fn tests_to_full_coverage(src: &str, strategy: Strategy, seed: u64) -> (u64, u64) {
    let mut config = TestgenConfig::default();
    config.strategy = strategy;
    config.seed = seed;
    config.stop_at_full_coverage = true;
    let mut tg = Testgen::new("ablation", src, V1Model::new(), config).unwrap();
    let summary = tg.run(|_| true);
    (summary.tests, summary.paths_explored)
}

fn pruning_run(src: &str, eager: bool) -> (u64, u64, u64, f64) {
    let mut config = TestgenConfig::default();
    config.eager_pruning = eager;
    let t0 = Instant::now();
    let mut tg = Testgen::new("ablation", src, V1Model::new(), config).unwrap();
    let summary = tg.run(|_| true);
    (summary.tests, summary.paths_explored, summary.solver_checks, t0.elapsed().as_secs_f64())
}

fn solver_mode_table() {
    println!("Ablation 4: fresh vs incremental feasibility checks (jobs 1)");
    println!("| Program | Mode | Total | Roots reused / blasted | Rebuilds | Blast-cache misses |");
    println!("|---|---|---|---|---|---|");
    let programs = [
        ("synthetic_4x3", p4t_corpus::generate_synthetic(4, 3)),
        ("synthetic_5x3", p4t_corpus::generate_synthetic(5, 3)),
        ("up4_sim", p4t_corpus::UP4_SIM.clone()),
        ("parser_deep_12x6", p4t_corpus::generate_parser_deep(12, 6)),
        ("parser_deep_20x8", p4t_corpus::generate_parser_deep(20, 8)),
    ];
    for (name, src) in &programs {
        for mode in [SolverMode::Fresh, SolverMode::Incremental] {
            let mut config = TestgenConfig::default();
            config.jobs = 1;
            config.solver_mode = mode;
            let mut tg = Testgen::new(name, src, V1Model::new(), config).unwrap();
            let s = tg.run(|_| true);
            let i = &s.solver;
            println!(
                "| {name} | {} | {:.3}s | {} / {} | {} | {} |",
                mode.as_str(),
                s.phases.total.as_secs_f64(),
                i.roots_reused,
                i.roots_blasted,
                i.rebuilds,
                i.blast_cache_misses
            );
        }
    }
}

fn main() {
    let mb = &*p4t_corpus::MIDDLEBLOCK_SIM;

    println!("Ablation 1: tests to reach full statement coverage (middleblock_sim)");
    println!("| Strategy          | Tests | Paths explored |");
    println!("|-------------------|-------|----------------|");
    for (name, strat) in [
        ("DFS (default)", Strategy::Dfs),
        ("BFS", Strategy::Bfs),
        ("Random backtrack", Strategy::RandomBacktrack),
        ("Coverage-first", Strategy::CoverageFirst),
    ] {
        let (tests, paths) = tests_to_full_coverage(mb, strat, 1);
        println!("| {name:17} | {tests:5} | {paths:14} |");
    }

    println!();
    println!("Ablation 2: eager vs lazy infeasible-path pruning (middleblock_sim)");
    println!("| Pruning | Tests | Paths | Solver checks | Time |");
    println!("|---------|-------|-------|---------------|------|");
    for (name, eager) in [("eager", true), ("lazy", false)] {
        let (tests, paths, checks, secs) = pruning_run(mb, eager);
        println!("| {name:7} | {tests:5} | {paths:5} | {checks:13} | {secs:.2}s |");
    }

    println!();
    println!("Ablation 3: taint-aware ternary wildcarding (tofino_quirks-style)");
    // A tna program keying a ternary table on tainted intrinsic metadata:
    // with the mitigation, entries are wildcarded (tests still generated);
    // without it (exact match kind), synthesis is skipped entirely.
    let base = r#"
header tofino_md_t { bit<64> pad; }
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { tofino_md_t tofino_md; ethernet_t eth; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start { pkt.extract(hdr.tofino_md); pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    action fwd(bit<9> p) { ig_tm_md.ucast_egress_port = p; }
    action nop() { ig_tm_md.ucast_egress_port = 9w1; }
    table t {
        key = { hdr.tofino_md.pad: MATCHKIND @name("pad"); }
        actions = { fwd; nop; }
        default_action = nop();
    }
    apply { t.apply(); }
}
control IDep(packet_out pkt, inout headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
parser EPrs(packet_in pkt, out headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Egr(inout headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
    apply { }
}
control EDep(packet_out pkt, inout headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#;
    println!("| Key match kind | Tests | Tests with entries | Action coverage |");
    println!("|----------------|-------|--------------------|-----------------|");
    for kind in ["ternary", "exact"] {
        let src = base.replace("MATCHKIND", kind);
        let mut tg = Testgen::new(
            "taint_ablation",
            &src,
            p4t_targets::Tofino::tna(),
            TestgenConfig::default(),
        )
        .unwrap();
        let mut with_entries = 0u64;
        let mut fwd_covered = false;
        let summary = tg.run(|t| {
            if !t.entries.is_empty() {
                with_entries += 1;
            }
            if t.trace.iter().any(|l| l.contains("-> fwd")) {
                fwd_covered = true;
            }
            true
        });
        println!(
            "| {kind:14} | {:5} | {with_entries:18} | fwd reachable: {fwd_covered} |",
            summary.tests
        );
    }
    println!();
    println!("(ternary keys on tainted data are wildcarded — the §5.3 mitigation —");
    println!(" so the fwd action stays reachable; exact keys cannot be wildcarded");
    println!(" and the synthesized-entry path is dropped to avoid flaky tests)");

    println!();
    solver_mode_table();
}
