//! Inputs made from the seed, and the set-up every workload shares.
//!
//! The end-to-end metrics are measured on the paper's twelve `SUITE`
//! programs, in suite order, under every seed: generator seeds derived
//! from `--seed` change the programs' kernels, and
//! `host_instrs_per_ginstr` over ten derived suites spreads 9% between
//! its quartiles (README, "What the seed changes") — no regression
//! bound could be both honest and useful on top of that. The seed
//! therefore selects the *holdout* and nothing else: the twelve
//! programs with generator seeds derived from `(SUITE seed, --seed)`,
//! which nobody tuned anything on. Every run learns, executes and
//! checks the holdout and reports it in `holdout.*` layer rows, which
//! `compare` prints side by side for seeds both files ran. Seed 0
//! derives the suite itself.

use crate::spec::{ExecKind, WorkloadSpec};
use ldbt_arm::{ArmMachine, ArmReg, ArmStop};
use ldbt_compiler::link::build_arm_image;
use ldbt_compiler::{ArmImage, Options};
use ldbt_core::kernel::{run_mini_kernel_interp, KernelRun};
use ldbt_isa::Width;
use ldbt_learn::param::MAX_MAPPING_TRIES;
use ldbt_learn::pipeline::learn_from_source_cached;
use ldbt_learn::{Budget, LearnConfig, RuleSet, VerifyCache};
use ldbt_workloads::asm::{smc_image, SMC_BODY_WORD};
use ldbt_workloads::{source, Benchmark, Workload, SUITE};
use std::sync::Arc;
use std::time::Instant;

/// The serving mix (`serve_throughput`'s): loop-heavy suite programs.
pub const MIX: [&str; 4] = ["mcf", "libquantum", "bzip2", "sjeng"];

/// Interpreter step budget for reference runs.
const INTERP_FUEL: u64 = 600_000_000;

/// `T`: serve tenants, and the workers of every learning pass that is
/// checked but not timed into an end-to-end metric: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// Every learn knob pinned; nothing comes from `LDBT_*`.
pub fn learn_config(threads: usize) -> LearnConfig {
    LearnConfig {
        threads,
        max_tries: MAX_MAPPING_TRIES,
        budget: Budget::default(),
        isolate: true,
        fault: None,
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator seed of a suite program under benchmark seed `n`.
/// `n = 0` is the suite's own seed, so seed 0 reproduces `SUITE`.
pub fn derive_seed(suite_seed: u64, n: u64) -> u64 {
    if n == 0 {
        suite_seed
    } else {
        splitmix(splitmix(suite_seed) ^ n)
    }
}

/// The suite with generator seeds derived from `n`.
pub fn derived_suite(n: u64) -> Vec<Benchmark> {
    SUITE.iter().map(|b| Benchmark { seed: derive_seed(b.seed, n), ..*b }).collect()
}

/// What the ARM interpreter made of a program: the reference every
/// engine run is compared with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub r0: u32,
    pub steps: u64,
    /// The `checksum` global at exit.
    pub checksum: u32,
}

/// A guest program ready to run: image, reference, where to look.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub image: ArmImage,
    pub want: Reference,
    pub checksum_addr: u32,
}

/// Wall spent in the layers set-up itself drives, kept for layer rows.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub image_s: f64,
    pub images: u64,
    pub interp_s: f64,
    pub interp_steps: u64,
}

/// Build a program and run it on the interpreter.
pub fn build_program(
    b: &Benchmark,
    size: Workload,
    times: &mut SetupTimes,
) -> Result<Program, String> {
    let src = source(b, size);
    let t = Instant::now();
    let image = build_arm_image(&src, &Options::o2())
        .map_err(|e| format!("{} does not build: {e}", b.name))?;
    times.image_s += t.elapsed().as_secs_f64();
    times.images += 1;
    let checksum_addr = image
        .globals
        .iter()
        .find(|(name, ..)| name == "checksum")
        .map(|(_, addr, ..)| *addr)
        .ok_or_else(|| format!("{} has no checksum global", b.name))?;
    let t = Instant::now();
    let mut m = ArmMachine::new();
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    let stop = m.run(INTERP_FUEL);
    times.interp_s += t.elapsed().as_secs_f64();
    times.interp_steps += m.steps;
    if stop != ArmStop::Halt {
        return Err(format!("{}: interpreter stopped with {stop}", b.name));
    }
    let want = Reference {
        r0: m.state.reg(ArmReg::R0),
        steps: m.steps,
        checksum: m.state.mem.read(checksum_addr, Width::W32),
    };
    Ok(Program { name: b.name.to_string(), image, want, checksum_addr })
}

/// One program of the learning corpus and what the sequential
/// reference pass learned from it.
#[derive(Debug, Clone)]
pub struct Learned {
    pub name: String,
    pub source: String,
    pub rules: RuleSet,
    /// `RuleSet::canonical_dump` of `rules`: what every later pass must
    /// reproduce byte for byte.
    pub dump: String,
}

/// Learn `programs` one after another on one thread with one shared
/// memo: the reference for every timed (parallel, memoized) pass.
pub fn learn_reference(
    programs: &[(String, String)],
) -> Result<(Vec<Learned>, VerifyCache), String> {
    let config = learn_config(1);
    let mut cache = VerifyCache::new();
    let mut out = Vec::with_capacity(programs.len());
    for (name, src) in programs {
        let report = learn_from_source_cached(name, src, &Options::o2(), &config, &mut cache)
            .map_err(|e| format!("{name} does not compile: {e}"))?;
        let dump = report.rules.canonical_dump();
        out.push(Learned { name: name.clone(), source: src.clone(), rules: report.rules, dump });
    }
    Ok((out, cache))
}

/// The self-modifying loop's reference state.
#[derive(Debug, Clone)]
pub struct SmcRef {
    pub image: ArmImage,
    pub regs: [u32; 16],
    pub body_addr: u32,
    pub body: u32,
}

fn smc_reference() -> Result<SmcRef, String> {
    let image = smc_image();
    let body_addr = image.base + 4 * SMC_BODY_WORD;
    let mut m = ArmMachine::new();
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    let stop = m.run(INTERP_FUEL);
    if stop != ArmStop::Halt {
        return Err(format!("smc image: interpreter stopped with {stop}"));
    }
    let body = m.state.mem.read(body_addr, Width::W32);
    Ok(SmcRef { image, regs: m.state.regs, body_addr, body })
}

/// Everything a workload's passes read; built before the first timed
/// pass, and its wall is `setup_s`.
pub struct Setup {
    /// The learning corpus, with the reference rules.
    pub corpus: Vec<Learned>,
    /// The reference memo after the corpus, encoded with `full`: the
    /// database `learn_warm` starts every pass from.
    pub db_bytes: Vec<u8>,
    /// Every corpus program's rules merged.
    pub full: Arc<RuleSet>,
    /// The programs to execute.
    pub programs: Vec<Program>,
    /// The rule set each of `programs` runs under.
    pub rules_for: Vec<Arc<RuleSet>>,
    /// `churn` only: the SMC loop and the mini-kernel's references.
    pub smc: Option<SmcRef>,
    pub kernel: Option<KernelRun>,
    pub times: SetupTimes,
}

/// Corpus program names are unique (`<suite name>.<copy>`) so that a
/// check can name the program that failed.
fn corpus_sources(copies: u64) -> Vec<(String, String)> {
    // Copy 0 is the suite itself; the others are fixed derivations, the
    // same under every `--seed`, so that `rule_yield` repeats exactly.
    let mut all = Vec::new();
    for copy in 0..copies {
        let n = if copy == 0 { 0 } else { 1000 + copy };
        for b in derived_suite(n) {
            all.push((format!("{}.{copy}", b.name), source(&b, Workload::Ref)));
        }
    }
    all
}

impl Setup {
    pub fn build(spec: &WorkloadSpec) -> Result<Setup, String> {
        let mut times = SetupTimes::default();
        let (corpus, cache) = learn_reference(&corpus_sources(spec.corpus_copies))?;
        let mut full = RuleSet::new();
        for l in &corpus {
            full.merge(&l.rules);
        }
        let db_bytes = ldbt_learn::db::to_bytes(&full, &cache);
        let full = Arc::new(full);

        let suite: Vec<&Benchmark> = if spec.mix_only {
            MIX.iter()
                .map(|n| ldbt_workloads::benchmark(n).ok_or(format!("no suite program {n}")))
                .collect::<Result<_, _>>()?
        } else {
            SUITE.iter().collect()
        };
        let mut programs = Vec::with_capacity(suite.len());
        let mut rules_for = Vec::with_capacity(suite.len());
        for b in suite {
            programs.push(build_program(b, spec.size, &mut times)?);
            rules_for.push(if spec.leave_one_out {
                // The paper's protocol: rules from every program but the
                // one evaluated, composed without re-learning.
                let mut rules = RuleSet::new();
                for l in corpus.iter().filter(|l| l.name != format!("{}.0", b.name)) {
                    rules.merge(&l.rules);
                }
                Arc::new(rules)
            } else {
                Arc::clone(&full)
            });
        }
        let (smc, kernel) = if spec.exec == ExecKind::Churn {
            (Some(smc_reference()?), Some(run_mini_kernel_interp()))
        } else {
            (None, None)
        };
        Ok(Setup { corpus, db_bytes, full, programs, rules_for, smc, kernel, times })
    }

    /// The holdout as a set-up of its own: the suite with generator
    /// seeds derived from `seed`, to be learned (corpus) and, at `test`
    /// size, executed under `rules` — the workload's own rule set, which
    /// was learned without ever seeing these programs.
    pub fn holdout(seed: u64, rules: &Arc<RuleSet>) -> Result<Setup, String> {
        let mut times = SetupTimes::default();
        let suite = derived_suite(seed);
        let sources: Vec<(String, String)> =
            suite.iter().map(|b| (b.name.to_string(), source(b, Workload::Ref))).collect();
        let (corpus, _) = learn_reference(&sources)?;
        let programs = suite
            .iter()
            .map(|b| build_program(b, Workload::Test, &mut times))
            .collect::<Result<Vec<_>, _>>()?;
        let rules_for = vec![Arc::clone(rules); programs.len()];
        Ok(Setup {
            corpus,
            db_bytes: Vec::new(),
            full: Arc::clone(rules),
            programs,
            rules_for,
            smc: None,
            kernel: None,
            times,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_suite() {
        assert_eq!(derived_suite(0), SUITE.to_vec());
    }

    #[test]
    fn derived_seeds_differ_by_program_and_by_seed_and_repeat() {
        let one = derived_suite(1);
        let two = derived_suite(2);
        for (i, b) in SUITE.iter().enumerate() {
            assert_eq!(one[i].name, b.name);
            assert_ne!(one[i].seed, b.seed);
            assert_ne!(one[i].seed, two[i].seed);
        }
        let mut seeds: Vec<u64> = one.iter().map(|b| b.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), SUITE.len(), "no two programs share a derived seed");
        assert_eq!(derived_suite(1), one);
    }

    #[test]
    fn corpus_is_the_suite_then_fixed_derivations() {
        let two = corpus_sources(2);
        assert_eq!(two.len(), 24);
        assert_eq!(two[..12], corpus_sources(1)[..]);
        for (b, (name, src)) in SUITE.iter().zip(&two) {
            assert_eq!((name, src), (&format!("{}.0", b.name), &source(b, Workload::Ref)));
        }
        assert_ne!(two[0].1, two[12].1, "copy 1 is another program");
    }
}
