//! Fault-injection harness: the fault plans `LDBT_FAULT` arms, under the
//! watchdog `LDBT_WATCHDOG` enables, set per test through the builders.
//!
//! Each injection site must degrade gracefully, never abort: a corrupted
//! rule is caught by the watchdog and quarantined, an exhausted solver
//! budget surfaces as recorded `Other` verification failures, a panicking
//! verify worker loses only its item — and in every case the guest's
//! final state is bit-identical to a pure-TCG run (rules are verified or
//! dropped, never trusted blindly).

use ldbt_arm::ArmReg;
use ldbt_compiler::{link::build_arm_image, Options};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::{Config, Engine};
use ldbt_learn::cache::VerifyCache;
use ldbt_learn::pipeline::{learn_from_source_cached, LearnConfig};
use ldbt_learn::{FaultPlan, FaultSite, RuleSet};
use std::sync::Arc;

/// A small program with rule-friendly inner-loop arithmetic.
const SRC: &str = "
int a[16];
int main() {
  int s = 0;
  for (int i = 0; i < 16; i += 1) { a[i] = i * 5 + 1; }
  for (int i = 0; i < 16; i += 1) {
    s = s + a[i];
    s = s - 1;
    s = s ^ 3;
  }
  return s & 0xffff;
}";

fn learn(config: &LearnConfig) -> (RuleSet, ldbt_learn::LearnStats) {
    let report =
        learn_from_source_cached("fi", SRC, &Options::o2(), config, &mut VerifyCache::new())
            .expect("learning completes");
    (report.rules, report.stats)
}

/// The pure-TCG reference result for `SRC`.
fn tcg_want(image: &ldbt_compiler::ArmImage) -> u32 {
    let mut base = Engine::new(image, Translator::Tcg);
    assert_eq!(base.run(50_000_000), RunOutcome::Halted);
    base.guest_reg(ArmReg::R0)
}

#[test]
fn clean_watchdog_run_quarantines_nothing() {
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let (rules, _) = learn(&LearnConfig::default());
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules))).with_watchdog(Some(1));
    assert_eq!(e.run(50_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "watchdog must not perturb a clean run");
    assert!(e.stats.guest_dyn_covered() > 0, "rules must actually apply");
    assert!(e.stats.watchdog_checks() > 0, "rule-covered dispatches were sampled");
    assert_eq!(e.stats.quarantined_rules(), 0, "verified rules never mismatch");
}

#[test]
fn rule_corrupt_is_quarantined_and_output_matches_tcg() {
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let (rules, _) = learn(&LearnConfig::default());
    let fault = FaultPlan { site: FaultSite::RuleCorrupt, seed: 0 };
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules)))
        .with_watchdog(Some(1))
        .with_fault(Some(fault));
    assert_eq!(e.run(50_000_000), RunOutcome::Halted, "corruption must not abort the run");
    assert_eq!(e.guest_reg(ArmReg::R0), want, "quarantine must restore TCG-identical output");
    assert!(e.stats.watchdog_checks() > 0);
    assert!(
        e.stats.quarantined_rules() >= 1,
        "the corrupted rule application must be caught and tombstoned"
    );
}

/// `imm-skew` corrupts a learned rule's stored immediate relation at
/// install time; the watchdog must catch it, attribute it, and *repair*
/// it — the rule survives (no tombstone) and output matches pure TCG.
#[test]
fn imm_skew_is_repaired_and_output_matches_tcg() {
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let (rules, _) = learn(&LearnConfig::default());
    let fault = FaultPlan { site: FaultSite::ImmSkew, seed: 0 };
    // Pick the seed's victim the same way the engine will, so this test
    // fails loudly (below) if the seed lands on a never-applied rule.
    let mut probe = rules.clone();
    let victim = ldbt_learn::corrupt_ruleset(&mut probe, fault);
    assert!(victim.is_some(), "the learned set has an imm-parameterized rule to skew");
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules)))
        .with_watchdog(Some(1))
        .with_fault(Some(fault))
        .with_repair(true);
    assert_eq!(e.run(50_000_000), RunOutcome::Halted, "corruption must not abort the run");
    assert_eq!(e.guest_reg(ArmReg::R0), want, "the repaired run matches pure TCG");
    assert!(
        e.stats.hit_rules.contains_key(&victim.unwrap()),
        "the skewed rule was actually applied"
    );
    assert!(e.stats.watchdog_checks() > 0);
    assert!(e.stats.wd_repaired() >= 1, "the skewed rule must be repaired");
    assert_eq!(e.stats.quarantined_rules(), 0, "repair leaves no tombstone");
}

/// `operand-swap` transposes two register bindings of a learned rule at
/// install time — the complementary repairable corruption: not an
/// immediate relation but the operand mapping itself. `SRC`'s rules are
/// all single-register, so this test adds a reg-reg statement
/// (`s = s ^ i`) that learns an `eor reg0, reg0, reg1` rule with two
/// distinct guest registers to swap.
#[test]
fn operand_swap_is_repaired_and_output_matches_tcg() {
    let src = "
int a[16];
int main() {
  int s = 0;
  for (int i = 0; i < 16; i += 1) { a[i] = i * 5 + 1; }
  for (int i = 0; i < 16; i += 1) {
    s = s + a[i];
    s = s ^ i;
    s = s - 1;
  }
  return s & 0xffff;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let report = learn_from_source_cached(
        "fi-swap",
        src,
        &Options::o2(),
        &LearnConfig::default(),
        &mut VerifyCache::new(),
    )
    .expect("learning completes");
    let rules = report.rules;
    let fault = FaultPlan { site: FaultSite::OperandSwap, seed: 0 };
    let mut probe = rules.clone();
    let victim = ldbt_learn::corrupt_ruleset(&mut probe, fault);
    assert!(victim.is_some(), "the learned set has a two-register rule to swap");
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules)))
        .with_watchdog(Some(1))
        .with_fault(Some(fault))
        .with_repair(true);
    assert_eq!(e.run(50_000_000), RunOutcome::Halted, "corruption must not abort the run");
    assert_eq!(e.guest_reg(ArmReg::R0), want, "the repaired run matches pure TCG");
    assert!(
        e.stats.hit_rules.contains_key(&victim.unwrap()),
        "the swapped rule was actually applied"
    );
    assert!(e.stats.watchdog_checks() > 0);
    assert!(e.stats.wd_repaired() >= 1, "the swapped rule must be repaired");
    assert_eq!(e.stats.quarantined_rules(), 0, "repair leaves no tombstone");
}

/// With repair explicitly off (`LDBT_REPAIR=0` semantics), the same
/// install-time corruption falls back to today's conservative behavior:
/// every rule in the divergent block is tombstoned, nothing is
/// attributed or repaired, and output still matches pure TCG.
#[test]
fn repair_off_falls_back_to_conservative_quarantine() {
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let (rules, _) = learn(&LearnConfig::default());
    let fault = FaultPlan { site: FaultSite::ImmSkew, seed: 0 };
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules)))
        .with_watchdog(Some(1))
        .with_fault(Some(fault))
        .with_repair(false);
    assert_eq!(e.run(50_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "quarantine must restore TCG-identical output");
    assert!(e.stats.quarantined_rules() >= 1, "repair-off mismatch tombstones conservatively");
    assert_eq!(e.stats.wd_attributed(), 0, "no attribution runs with repair off");
    assert_eq!(e.stats.wd_repair_attempts(), 0, "no repair runs with repair off");
    assert_eq!(e.stats.wd_repaired(), 0);
}

#[test]
fn solver_exhaust_degrades_yield_without_abort() {
    let (clean_rules, clean_stats) = learn(&LearnConfig::default());
    let fault = FaultPlan { site: FaultSite::SolverExhaust, seed: 0 };
    let config = LearnConfig { fault: Some(fault), ..LearnConfig::default() };
    let (rules, stats) = learn(&config);
    assert!(rules.len() <= clean_rules.len(), "an exhausted solver can only lose rules");
    assert!(
        stats.ver_other >= clean_stats.ver_other,
        "budget exhaustion is recorded as Other failures"
    );
    // Whatever survived is still verified: the DBT result stays exact.
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules))).with_watchdog(Some(1));
    assert_eq!(e.run(50_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want);
    assert_eq!(e.stats.quarantined_rules(), 0);
}

#[test]
fn worker_panic_loses_only_its_item() {
    let (clean_rules, _) = learn(&LearnConfig::default());
    let fault = FaultPlan { site: FaultSite::WorkerPanic, seed: 3 };
    // Suppress the injected panic's default stderr backtrace.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let config = LearnConfig { fault: Some(fault), isolate: true, ..LearnConfig::default() };
    let (rules, stats) = learn(&config);
    std::panic::set_hook(prev);
    assert!(stats.ver_other >= 1, "the panicked item is recorded as an Other failure");
    assert!(
        clean_rules.len().saturating_sub(rules.len()) <= 1,
        "at most the panicked item's rule is lost ({} vs {})",
        rules.len(),
        clean_rules.len()
    );
    // The surviving set still runs exactly.
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules))).with_watchdog(Some(1));
    assert_eq!(e.run(50_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want);
}

/// Every fault site × repair on/off cell of the configuration, under a
/// watchdog sampling every dispatch (`LDBT_WATCHDOG=1 LDBT_FAULT=<site>:0
/// LDBT_REPAIR=0|1`): learning and the engine take the plan from the
/// cell, and the run must still complete with a pure-TCG-identical
/// result.
#[test]
fn env_driven_fault_run_completes_identical_to_tcg() {
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let want = tcg_want(&image);
    let sites =
        ["rule-corrupt:0", "imm-skew:0", "operand-swap:0", "solver-exhaust:0", "worker-panic:0"];
    for (site, repair) in sites.iter().flat_map(|s| [(s, false), (s, true)]) {
        let plan = FaultPlan::parse(site);
        let cfg = Config { watchdog: Some(1), fault: plan, repair, ..Config::DEFAULT };
        let cell = format!("fault={site} repair={repair}");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (rules, _) = learn(&cfg.learn());
        std::panic::set_hook(prev);
        // Whether an install-time fault plan has a victim in this learned
        // set (e.g. operand-swap needs a two-register rule): replay the
        // corruption on a throwaway clone before the set moves into the
        // engine, so the per-site outcome asserts below don't demand a
        // repair of a fault that never installed.
        let installs = match plan {
            Some(p @ FaultPlan { site: FaultSite::ImmSkew | FaultSite::OperandSwap, .. }) => {
                ldbt_learn::corrupt_ruleset(&mut rules.clone(), p).is_some()
            }
            _ => false,
        };
        let mut e = cfg.apply(Engine::new(&image, Translator::Rules(Arc::new(rules))));
        assert_eq!(e.run(50_000_000), RunOutcome::Halted, "{cell}: a fault plan aborted the run");
        assert_eq!(e.guest_reg(ArmReg::R0), want, "{cell}: output must stay identical to pure TCG");
        // The per-site repair outcome: with the watchdog sampling, an
        // install-time corruption must end repaired when repair is on,
        // and the lowering-time `rule-corrupt` clobber must stay
        // permanently tombstoned (the control: its rule is healthy, so
        // the counterexample gate rejects every "repair").
        if e.stats.watchdog_checks() > 0 && repair {
            match plan.map(|p| p.site) {
                Some(FaultSite::ImmSkew | FaultSite::OperandSwap) if installs => {
                    assert!(e.stats.wd_repaired() >= 1, "{cell}: corruption must be repaired");
                    assert_eq!(e.stats.quarantined_rules(), 0, "{cell}: a tombstone is left");
                }
                Some(FaultSite::RuleCorrupt) => {
                    assert_eq!(e.stats.wd_repaired(), 0, "{cell}: rule-corrupt is unrepairable");
                    assert!(e.stats.quarantined_rules() >= 1, "{cell}: the clobbered rule stays");
                }
                _ => {}
            }
        }
    }
}
