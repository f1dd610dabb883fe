#![forbid(unsafe_code)]
//! End-to-end pipeline: learn translation rules from a program corpus and
//! run benchmarks under the rule-enhanced DBT.
//!
//! This facade crate wires the whole system together the way the paper's
//! evaluation does:
//!
//! 1. [`learn_suite`] compiles every (synthetic) SPEC CINT2006 program
//!    for both ISAs and learns verified translation rules, optionally
//!    *excluding* the program under evaluation (the paper's leave-one-out
//!    protocol);
//! 2. [`run_benchmark`] executes a benchmark under a chosen engine
//!    (QEMU-style TCG baseline, rule-enhanced, or the HQEMU-style
//!    optimizing JIT), validating the final architectural state against
//!    the ARM interpreter and returning the statistics each figure is
//!    computed from;
//! 3. [`experiment`] contains one driver per table/figure of the paper.
//!
//! ```no_run
//! use ldbt_core::{learn_suite, run_benchmark, Config, EngineKind};
//! use ldbt_compiler::Options;
//! use ldbt_workloads::Workload;
//!
//! let cfg = Config::DEFAULT;
//! let (rules, _) = learn_suite(&Options::o2(), Some("mcf"), &cfg).unwrap();
//! let baseline =
//!     run_benchmark("mcf", Workload::Ref, EngineKind::Tcg, &Options::o2(), None, &cfg);
//! let ours =
//!     run_benchmark("mcf", Workload::Ref, EngineKind::Rules, &Options::o2(), Some(&rules), &cfg);
//! println!("speedup: {:.2}x", ours.speedup_over(&baseline));
//! ```

pub mod experiment;
pub mod kernel;
pub mod report;
pub mod serve;

pub use ldbt_compiler as compiler;
pub use ldbt_dbt as dbt;
pub use ldbt_dbt::Config;
pub use ldbt_learn as learn;
pub use ldbt_learn::{LearnConfig, VerifyCache};
pub use ldbt_workloads as workloads;

use ldbt_compiler::{link::build_arm_image, CompileError, Options};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::{DbtStats, Engine, ExecProfile};
use ldbt_learn::{LearnStats, RuleSet};
use ldbt_workloads::{benchmark, source, Workload, SUITE};
use std::sync::Arc;

/// Which execution engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// QEMU-style TCG baseline.
    Tcg,
    /// Rule-enhanced translation (requires a [`RuleSet`]).
    Rules,
    /// HQEMU-style optimizing JIT backend.
    Jit,
}

impl EngineKind {
    /// Stable lowercase tag used in run reports and trace events.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Tcg => "tcg",
            EngineKind::Rules => "rules",
            EngineKind::Jit => "jit",
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Benchmark name.
    pub name: String,
    /// The engine used.
    pub engine: EngineKind,
    /// DBT statistics (cycles, coverage, rule hits).
    pub stats: DbtStats,
    /// Execution-hotness profile (per-rule attribution, hot blocks),
    /// snapshotted from the code cache at run end.
    pub profile: ExecProfile,
    /// The guest checksum (r0 at exit) — validated against the
    /// interpreter.
    pub checksum: u32,
}

impl BenchRun {
    /// Speedup of this run over a baseline (`baseline_time / own_time`).
    pub fn speedup_over(&self, baseline: &BenchRun) -> f64 {
        baseline.stats.total_cycles() as f64 / self.stats.total_cycles() as f64
    }
}

/// Learn rules from the whole suite, optionally excluding one program
/// (the paper's protocol: "the translation rules learned from all other
/// benchmark programs that do not include the evaluated benchmark").
///
/// Rules are always learned from `Ref`-workload sources compiled with
/// `options` (the workload only changes iteration counts, not code
/// shape), under `config`'s learner settings ([`Config::learn`]).
///
/// # Errors
///
/// Returns a [`CompileError`] if generation/compilation fails.
pub fn learn_suite(
    options: &Options,
    exclude: Option<&str>,
    config: &Config,
) -> Result<(RuleSet, Vec<LearnStats>), CompileError> {
    let config = config.learn();
    let mut cache = ldbt_learn::VerifyCache::new();
    let mut rules = RuleSet::new();
    let mut stats = Vec::new();
    for b in &SUITE {
        if Some(b.name) == exclude {
            continue;
        }
        let src = source(b, Workload::Ref);
        let report = ldbt_learn::pipeline::learn_from_source_cached(
            b.name, &src, options, &config, &mut cache,
        )?;
        rules.merge(&report.rules);
        stats.push(report.stats);
    }
    Ok((rules, stats))
}

/// Host-instruction fuel for benchmark runs.
pub const RUN_FUEL: u64 = 3_000_000_000;

/// Run one benchmark under an engine configured by `config`
/// ([`Config::apply`]), validating correctness against the ARM
/// interpreter.
///
/// # Panics
///
/// Panics if compilation fails, the engine does not halt, or the final
/// guest state disagrees with the interpreter — any of these is a bug in
/// the translation stack, never a measurement to report.
pub fn run_benchmark(
    name: &str,
    workload: Workload,
    engine: EngineKind,
    guest_options: &Options,
    rules: Option<&RuleSet>,
    config: &Config,
) -> BenchRun {
    let b = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let src = source(b, workload);
    let image = build_arm_image(&src, guest_options)
        .unwrap_or_else(|e| panic!("{name} failed to build: {e}"));
    // Reference run.
    let mut m = ldbt_arm::ArmMachine::new();
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    let stop = m.run(600_000_000);
    assert_eq!(stop, ldbt_arm::ArmStop::Halt, "{name}: interpreter did not halt");
    let want = m.state.reg(ldbt_arm::ArmReg::R0);
    // DBT run.
    let translator = match engine {
        EngineKind::Tcg => Translator::Tcg,
        EngineKind::Jit => Translator::Jit,
        EngineKind::Rules => {
            Translator::Rules(Arc::new(rules.expect("Rules engine needs a rule set").clone()))
        }
    };
    let mut e = config.apply(Engine::new(&image, translator));
    let out = e.run(RUN_FUEL);
    assert_eq!(out, RunOutcome::Halted, "{name}: DBT did not halt under {engine:?}");
    let got = e.guest_reg(ldbt_arm::ArmReg::R0);
    assert_eq!(got, want, "{name}: wrong result under {engine:?}");
    let profile = e.profile();
    BenchRun { name: name.to_string(), engine, stats: e.stats, profile, checksum: got }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leave_one_out_excludes() {
        // Use a tiny sub-experiment: learning from two small programs.
        let (all, stats_all) = {
            let mut rules = RuleSet::new();
            let mut stats = Vec::new();
            for name in ["mcf", "libquantum"] {
                let b = benchmark(name).unwrap();
                let src = source(b, Workload::Ref);
                let r =
                    ldbt_learn::pipeline::learn_from_source(name, &src, &Options::o2()).unwrap();
                rules.merge(&r.rules);
                stats.push(r.stats);
            }
            (rules, stats)
        };
        assert_eq!(stats_all.len(), 2);
        assert!(!all.is_empty(), "some rules learned");
    }

    #[test]
    fn tcg_baseline_runs_mcf_test() {
        let cfg = Config::DEFAULT;
        let run = run_benchmark("mcf", Workload::Test, EngineKind::Tcg, &Options::o2(), None, &cfg);
        assert!(run.stats.guest_dyn() > 0);
        assert!(run.stats.exec.host_instrs > run.stats.guest_dyn(), "expansion > 1x");
    }

    #[test]
    fn rules_engine_correct_and_faster_on_ref() {
        let cfg = Config::DEFAULT;
        let (rules, _) = learn_suite(&Options::o2(), Some("mcf"), &cfg).unwrap();
        let o2 = Options::o2();
        let base = run_benchmark("mcf", Workload::Ref, EngineKind::Tcg, &o2, None, &cfg);
        let ours = run_benchmark("mcf", Workload::Ref, EngineKind::Rules, &o2, Some(&rules), &cfg);
        assert_eq!(base.checksum, ours.checksum);
        let speedup = ours.speedup_over(&base);
        assert!(
            speedup > 1.0,
            "rules must beat the baseline on ref (got {speedup:.3}x, coverage {:.2})",
            ours.stats.dynamic_coverage()
        );
        assert!(ours.stats.dynamic_coverage() > 0.2, "some dynamic coverage");
    }
}
