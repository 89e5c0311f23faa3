//! The bug-finding campaign (Tables 2 and 3): generate tests for the corpus,
//! then run them against each faulted software model and record which faults
//! are detected and how they manifest.

use p4t_interp::{execute_and_check, Arch, Fault, FaultClass, FaultSet, FaultTargetClass, Verdict};
use p4testgen_core::{Testgen, TestgenConfig, TestSpec};
use std::collections::HashMap;

/// How one fault was (or was not) detected.
#[derive(Clone, Debug)]
pub struct Detection {
    pub fault: Fault,
    /// Program whose test first exposed the fault.
    pub program: Option<String>,
    /// How the failure manifested.
    pub observed: Option<FaultClass>,
    pub detail: String,
}

/// The campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    pub detections: Vec<Detection>,
}

impl CampaignResult {
    pub fn detected(&self) -> usize {
        self.detections.iter().filter(|d| d.observed.is_some()).count()
    }

    pub fn count(&self, target: FaultTargetClass, class: FaultClass) -> usize {
        self.detections
            .iter()
            .filter(|d| {
                d.observed == Some(class) && d.fault.target_class() == target
            })
            .count()
    }
}

/// Pre-generated tests for one program.
pub struct ProgramTests {
    pub name: String,
    pub arch: Arch,
    pub prog: p4t_ir::IrProgram,
    pub tests: Vec<TestSpec>,
}

/// Generate tests for one program.
fn generate_one(name: &str, src: &str, arch: &str, max_tests: u64) -> ProgramTests {
    let mut config = TestgenConfig::default();
    config.max_tests = max_tests;
    let (Some(target), Some(model)) =
        (p4t_targets::by_name(arch), Arch::from_target_name(arch))
    else {
        panic!("unknown arch {arch}")
    };
    let mut tg =
        Testgen::new(name, src, target, config).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut tests = Vec::new();
    tg.run(|t| {
        tests.push(t.clone());
        true
    });
    ProgramTests { name: name.to_string(), arch: model, prog: tg.prog, tests }
}

/// Generate up to `max_tests` tests for every corpus program, one scoped
/// thread per program (generation runs are independent; each owns its own
/// term pool and solver — the only CPU-bound fan-out in the harness, per
/// the Tokio guide's "use threads, not async, for CPU-bound work").
pub fn generate_corpus_tests(max_tests: u64) -> Vec<ProgramTests> {
    let programs = p4t_corpus::all_programs();
    let mut results: Vec<Option<ProgramTests>> = Vec::new();
    results.resize_with(programs.len(), || None);
    let slots: Vec<parking_lot::Mutex<Option<ProgramTests>>> =
        results.into_iter().map(parking_lot::Mutex::new).collect();
    crossbeam::scope(|scope| {
        for (i, (name, src, arch)) in programs.iter().enumerate() {
            let slot = &slots[i];
            scope.spawn(move |_| {
                *slot.lock() = Some(generate_one(name, src, arch, max_tests));
            });
        }
    })
    .expect("generation threads join");
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("every program generated"))
        .collect()
}

/// Which architectures a fault's toolchain class applies to.
fn arch_matches(fault: Fault, arch: Arch) -> bool {
    match fault.target_class() {
        FaultTargetClass::Bmv2 => arch == Arch::V1Model,
        FaultTargetClass::Tofino => matches!(arch, Arch::Tna | Arch::T2na),
    }
}

/// Run the full campaign: for every fault, plant it into the matching
/// software model and look for a corpus test that fails.
pub fn run_campaign(corpus: &[ProgramTests]) -> CampaignResult {
    let mut result = CampaignResult::default();
    for fault in Fault::catalog() {
        let mut detection = Detection {
            fault,
            program: None,
            observed: None,
            detail: String::new(),
        };
        'progs: for pt in corpus {
            if !arch_matches(fault, pt.arch) {
                continue;
            }
            for t in &pt.tests {
                let verdict =
                    execute_and_check(&pt.prog, pt.arch, FaultSet::single(fault), t);
                match verdict {
                    Verdict::Pass => {}
                    Verdict::Exception(m) => {
                        detection.program = Some(pt.name.clone());
                        detection.observed = Some(FaultClass::Exception);
                        detection.detail = m;
                        break 'progs;
                    }
                    Verdict::WrongOutput(m) => {
                        detection.program = Some(pt.name.clone());
                        detection.observed = Some(FaultClass::WrongCode);
                        detection.detail = m;
                        break 'progs;
                    }
                }
            }
        }
        result.detections.push(detection);
    }
    result
}

/// Sanity: verify unfaulted models pass everything (oracle correctness).
pub fn unfaulted_pass_rate(corpus: &[ProgramTests]) -> (usize, usize) {
    let mut pass = 0;
    let mut total = 0;
    for pt in corpus {
        for t in &pt.tests {
            total += 1;
            if execute_and_check(&pt.prog, pt.arch, FaultSet::none(), t).is_pass() {
                pass += 1;
            }
        }
    }
    (pass, total)
}

/// Per-target detection counts in Table 2's layout.
pub fn table2_rows(result: &CampaignResult) -> HashMap<(&'static str, &'static str), usize> {
    let mut rows = HashMap::new();
    rows.insert(
        ("Exception", "BMv2"),
        result.count(FaultTargetClass::Bmv2, FaultClass::Exception),
    );
    rows.insert(
        ("Exception", "Tofino"),
        result.count(FaultTargetClass::Tofino, FaultClass::Exception),
    );
    rows.insert(
        ("Wrong Code", "BMv2"),
        result.count(FaultTargetClass::Bmv2, FaultClass::WrongCode),
    );
    rows.insert(
        ("Wrong Code", "Tofino"),
        result.count(FaultTargetClass::Tofino, FaultClass::WrongCode),
    );
    rows
}
