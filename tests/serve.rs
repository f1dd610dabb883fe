//! Multi-tenant serving invariants (DESIGN.md §15).
//!
//! Two families:
//!
//! * **Concurrent determinism** — N tenants running the same program
//!   concurrently must each produce the bit-identical final guest state
//!   *and* the bit-identical engine counters of a solo run: tenants
//!   share only the immutable rule generation, so concurrency is not
//!   allowed to be observable. Checked across the watchdog × superblock
//!   knob matrix.
//! * **Generation publication** — when one tenant's watchdog
//!   quarantines or repairs a rule, the new rule set is published
//!   atomically through the shared [`RuleCell`]: after publication no
//!   tenant — concurrent or later — ever executes the bad rule again.
//!   Driven by the same install-time corruptions (`imm-skew`) as the
//!   fault-injection harness in `tests/fault_injection.rs`.

use ldbt_compiler::{link::build_arm_image, Options};
use ldbt_core::serve::{serve_with, ServeProgram};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::{Engine, RuleCell};
use ldbt_learn::pipeline::learn_from_source;
use ldbt_learn::{corrupt_ruleset, FaultPlan, FaultSite, RuleSet};
use std::sync::Arc;

/// Same rule-friendly program as the fault-injection harness: its
/// learned set is known to contain an imm-parameterized rule for the
/// `imm-skew` corruption to land on.
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

fn program() -> ServeProgram {
    let image = build_arm_image(SRC, &Options::o2()).unwrap();
    let mut m = ldbt_arm::ArmMachine::new();
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    assert_eq!(m.run(50_000_000), ldbt_arm::ArmStop::Halt);
    let want = m.state.reg(ldbt_arm::ArmReg::R0);
    ServeProgram { name: "serve-src".into(), image, want }
}

fn rules() -> RuleSet {
    learn_from_source("serve", SRC, &Options::o2()).expect("learning completes").rules
}

/// N tenants concurrently must be indistinguishable from a solo run:
/// same checksums, same per-tenant counter totals — under every
/// watchdog × superblock combination.
#[test]
fn concurrent_tenants_match_solo_bit_for_bit() {
    let programs = [program()];
    let rules = rules();
    for (wd, sb) in [(None, None), (None, Some(64)), (Some(1), None), (Some(1), Some(64))] {
        let cfg = move |e: Engine| e.with_watchdog(wd).with_superblocks(sb).with_repair(true);
        let solo = {
            let cell = Arc::new(RuleCell::new(rules.clone()));
            serve_with(&programs, 1, &cell, cfg)
        };
        let cell = Arc::new(RuleCell::new(rules.clone()));
        let multi = serve_with(&programs, 3, &cell, cfg);
        assert_eq!(multi.tenants.len(), 3);
        for t in &multi.tenants {
            assert_eq!(
                t.checksums, solo.tenants[0].checksums,
                "wd={wd:?} sb={sb:?}: concurrent checksum differs from solo"
            );
            assert_eq!(
                t.counters, solo.tenants[0].counters,
                "wd={wd:?} sb={sb:?}: tenant {} counters differ from solo",
                t.tenant
            );
        }
        // Clean rules: the watchdog never fires a mismatch, so no
        // generation is ever published.
        assert_eq!(multi.generation, 0, "wd={wd:?} sb={sb:?}");
        // The aggregate is the exact fold of the tenant blocks.
        assert_eq!(multi.total_guest_instrs(), 3 * solo.total_guest_instrs());
    }
}

/// Pre-corrupt the shared rule set the way the engine's `LDBT_FAULT`
/// install site would (one corruption total — a shared cell must not be
/// re-corrupted per tenant, which is why the tenants themselves run
/// `with_fault(None)`). Returns the victim's stable key.
fn corrupt_seed(rules: &mut RuleSet) -> u64 {
    let plan = FaultPlan { site: FaultSite::ImmSkew, seed: 0 };
    corrupt_ruleset(rules, plan).expect("the learned set has an imm-parameterized rule")
}

/// Concurrent serving over a corrupted shared generation: every tenant
/// samples every rule-covered dispatch, so whichever tenant hits the
/// skew first repairs it and *publishes*; the others adopt the repaired
/// generation at their next dispatcher entry. Everyone's output is
/// correct and the cell's generation has advanced.
#[test]
fn concurrent_repair_publishes_one_generation_for_all() {
    let programs = [program()];
    let mut rules = rules();
    let victim = corrupt_seed(&mut rules);
    let cell = Arc::new(RuleCell::new(rules));
    // Checksum correctness for every tenant is asserted inside serve_with.
    let report = serve_with(&programs, 3, &cell, |e| e.with_watchdog(Some(1)).with_repair(true));
    assert!(report.generation >= 1, "the repair must be published through the cell");
    let (published, _) = cell.load();
    assert!(
        published.find_by_key(victim).is_some(),
        "repair leaves the (fixed) rule live, not tombstoned"
    );
    let repaired: u64 = report.aggregate.iter().find(|(n, _)| *n == "wd_repaired").unwrap().1;
    assert!(repaired >= 1, "at least one tenant performed the repair");
}

/// The publication half of the tentpole invariant, isolated: tenant A
/// (watchdog on) repairs the corrupted rule and publishes; tenant B —
/// attached to the same cell, watchdog **off**, so it has no safety net
/// of its own — starts after the publication and must still produce the
/// correct result. The bad rule is unreachable for every tenant created
/// after the generation swap.
#[test]
fn later_tenant_without_watchdog_inherits_published_repair() {
    let p = program();
    let mut rules = rules();
    corrupt_seed(&mut rules);
    let cell = Arc::new(RuleCell::new(rules));

    // Tenant A: watchdog every dispatch, repairs and publishes.
    let translator = Translator::Rules(cell.load().0);
    let mut a = Engine::new(&p.image, translator)
        .with_rule_cell(Arc::clone(&cell))
        .with_watchdog(Some(1))
        .with_repair(true);
    assert_eq!(a.run(50_000_000), RunOutcome::Halted);
    assert_eq!(a.guest_reg(ldbt_arm::ArmReg::R0), p.want);
    assert!(a.stats.wd_repaired() >= 1, "A repaired the skewed rule");
    assert!(cell.generation() >= 1, "the repair was published");

    // Tenant B: no watchdog, same cell, fresh engine. Correct because
    // its translator starts from the published (repaired) generation.
    let translator = Translator::Rules(cell.load().0);
    let mut b = Engine::new(&p.image, translator).with_rule_cell(Arc::clone(&cell));
    assert_eq!(b.run(50_000_000), RunOutcome::Halted);
    assert_eq!(
        b.guest_reg(ldbt_arm::ArmReg::R0),
        p.want,
        "a tenant attached after publication must never execute the pre-repair rule"
    );
    assert_eq!(b.stats.watchdog_checks(), 0, "B really ran without a watchdog");
    assert!(b.stats.guest_dyn_covered() > 0, "B still translates through rules");
}

/// Same isolation with repair disabled: the conservative tombstone is
/// what gets published, and a later watchdog-less tenant never applies
/// the tombstoned rule.
#[test]
fn later_tenant_inherits_published_tombstone() {
    let p = program();
    let mut rules = rules();
    let victim = corrupt_seed(&mut rules);
    let cell = Arc::new(RuleCell::new(rules));

    let translator = Translator::Rules(cell.load().0);
    let mut a = Engine::new(&p.image, translator)
        .with_rule_cell(Arc::clone(&cell))
        .with_watchdog(Some(1))
        .with_repair(false);
    assert_eq!(a.run(50_000_000), RunOutcome::Halted);
    assert_eq!(a.guest_reg(ldbt_arm::ArmReg::R0), p.want);
    assert!(a.stats.quarantined_rules() >= 1, "repair-off mismatch tombstones");
    assert!(cell.generation() >= 1);
    let (published, _) = cell.load();
    assert!(published.is_tombstoned(victim), "the tombstone is in the published generation");

    let translator = Translator::Rules(cell.load().0);
    let mut b = Engine::new(&p.image, translator).with_rule_cell(Arc::clone(&cell));
    assert_eq!(b.run(50_000_000), RunOutcome::Halted);
    assert_eq!(b.guest_reg(ldbt_arm::ArmReg::R0), p.want);
    assert!(
        !b.stats.hit_rules.contains_key(&victim),
        "the tombstoned rule never applies in a tenant attached after publication"
    );
}
