//! Adversarial tests: the verifier must reject wrong rules, and the DBT
//! must actually *execute* rule-generated code (a deliberately corrupted
//! rule changes program results — proving rules are load-bearing).

use ldbt_arm::{ArmInstr, ArmReg, DpOp, Operand2};
use ldbt_compiler::{link::build_arm_image, Options};
use ldbt_dbt::engine::{RunOutcome, Translator};
use ldbt_dbt::Engine;
use ldbt_learn::extract::SnippetPair;
use ldbt_learn::param::initial_mappings;
use ldbt_learn::verify::verify;
use ldbt_learn::{FaultPlan, FaultSite, Rule, RuleSet};
use ldbt_x86::{AluOp, Gpr, X86Instr};
use std::sync::Arc;

fn learn_one(guest: Vec<ArmInstr>, host: Vec<X86Instr>) -> Result<Rule, String> {
    let pair = SnippetPair {
        loc: ldbt_isa::SourceLoc::line(1),
        func: "f".into(),
        guest: guest.into_iter().map(|g| (g, None)).collect(),
        host: host.into_iter().map(|h| (h, None)).collect(),
    };
    let mappings = initial_mappings(&pair).map_err(|e| format!("{e:?}"))?;
    let mut last = Err("no mapping".to_string());
    for m in &mappings {
        match verify(&pair, m) {
            Ok(r) => return Ok(r),
            Err(e) => last = Err(format!("{e:?}")),
        }
    }
    last
}

/// Mutating any single host instruction of a correct rule into a
/// different ALU operation must make verification fail.
#[test]
fn verifier_rejects_mutated_host_code() {
    let guest = vec![
        ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0)),
        ArmInstr::dp(DpOp::Eor, ArmReg::R2, ArmReg::R1, Operand2::Imm(9)),
    ];
    let host = vec![
        X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Eax),
        X86Instr::mov_rr(Gpr::Ecx, Gpr::Edx),
        X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 9),
    ];
    assert!(learn_one(guest.clone(), host.clone()).is_ok(), "base rule verifies");
    // Mutations: swap each ALU opcode for a wrong one.
    let mutations: Vec<Vec<X86Instr>> = vec![
        vec![
            X86Instr::alu_rr(AluOp::Sub, Gpr::Edx, Gpr::Eax), // add → sub
            host[1],
            host[2],
        ],
        vec![
            host[0],
            host[1],
            X86Instr::alu_ri(AluOp::Or, Gpr::Ecx, 9), // xor → or
        ],
        vec![
            host[0],
            host[1],
            X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 8), // wrong immediate
        ],
        vec![
            host[0],
            X86Instr::mov_rr(Gpr::Ecx, Gpr::Eax), // copies the wrong source
            host[2],
        ],
    ];
    for (i, m) in mutations.into_iter().enumerate() {
        assert!(learn_one(guest.clone(), m).is_err(), "mutation {i} must be rejected");
    }
}

/// Flag-polarity confusion must be caught: emulating ARM `cs` with x86
/// `b` (instead of `ae`) is refuted by the branch-condition check.
#[test]
fn verifier_rejects_carry_polarity_swap() {
    let guest = vec![
        ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
        ArmInstr::B { offset: 4, cond: ldbt_arm::Cond::Cs },
    ];
    let good = vec![
        X86Instr::alu_rr(AluOp::Cmp, Gpr::Ecx, Gpr::Ebx),
        X86Instr::Jcc { cc: ldbt_x86::Cc::Ae, target: 0 },
    ];
    let bad = vec![
        X86Instr::alu_rr(AluOp::Cmp, Gpr::Ecx, Gpr::Ebx),
        X86Instr::Jcc { cc: ldbt_x86::Cc::B, target: 0 },
    ];
    assert!(learn_one(guest.clone(), good).is_ok());
    assert!(learn_one(guest, bad).is_err());
}

/// Rule code actually executes: injecting a subtly wrong rule directly
/// into the rule set (bypassing verification) changes the program's
/// result, proving the engine runs rule-generated host code rather than
/// silently falling back to TCG.
#[test]
fn rules_are_load_bearing() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 10; i += 1) { s = s + i; s = s ^ 3; }
  return s;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    // A wrong "rule": eor r, r, #imm → xorl $(imm+1).
    let mut evil = RuleSet::new();
    evil.insert(Rule {
        guest: vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        host: vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 2)],
        host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
        imm_params: vec![],
        unemulated_flags: 0,
        has_branch: false,
    });
    let mut evil_engine = Engine::new(&image, Translator::Rules(Arc::new(evil)));
    assert_eq!(evil_engine.run(10_000_000), RunOutcome::Halted);
    assert_ne!(
        evil_engine.guest_reg(ArmReg::R0),
        want,
        "the corrupted rule must visibly change the result (rules execute)"
    );
    assert!(evil_engine.stats.guest_dyn_covered() > 0);
}

/// The watchdog catches the same deliberately corrupted rule within its
/// sampling window, tombstones it exactly once, and the run completes
/// with output identical to the pure-TCG run.
#[test]
fn watchdog_quarantines_corrupted_rule() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 10; i += 1) { s = s + i; s = s ^ 3; }
  return s;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    // The same wrong "rule" as `rules_are_load_bearing` — injected past
    // verification straight into the rule set.
    let mut evil = RuleSet::new();
    evil.insert(Rule {
        guest: vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        host: vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 2)],
        host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
        imm_params: vec![],
        unemulated_flags: 0,
        has_branch: false,
    });
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(evil))).with_watchdog(Some(1));
    assert_eq!(e.run(10_000_000), RunOutcome::Halted);
    assert_eq!(
        e.guest_reg(ArmReg::R0),
        want,
        "after quarantine the run must produce the TCG result"
    );
    assert!(e.stats.watchdog_checks() > 0, "the corrupted block was sampled");
    assert_eq!(e.stats.quarantined_rules(), 1, "the one bad rule is tombstoned exactly once");
}

/// A quarantine purge must also sever chained links: blocks that were
/// directly linked into the purged translation fall back to the
/// dispatcher (and re-chain to the clean retranslation), so the run
/// still ends with the pure-TCG result instead of jumping into a stale
/// or tombstoned block.
#[test]
fn quarantine_unlinks_chained_predecessors() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 10; i += 1) { s = s + i; s = s ^ 3; }
  return s;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    // Same deliberately wrong rule as `watchdog_quarantines_corrupted_rule`,
    // but with block chaining explicitly on: by the time the watchdog
    // samples the corrupted block, its predecessors have chained into it.
    let mut evil = RuleSet::new();
    evil.insert(Rule {
        guest: vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        host: vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 2)],
        host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
        imm_params: vec![],
        unemulated_flags: 0,
        has_branch: false,
    });
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(evil)))
        .with_chaining(true)
        .with_watchdog(Some(1));
    assert_eq!(e.run(10_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "post-quarantine run matches TCG");
    assert_eq!(e.stats.quarantined_rules(), 1, "the bad rule is tombstoned");
    assert!(e.stats.chain_links() > 0, "blocks were chained before the purge");
    assert!(
        e.stats.chain_unlinks() > 0,
        "purging the corrupted block severed its incoming chained links"
    );
}

/// A corrupted rule that has already been inlined into a superblock must
/// not survive eviction: when the watchdog catches the mismatch inside
/// the region, the quarantine purge invalidates the region (its parts
/// hold clones of the purged code), severs the chained predecessors, and
/// the loop re-forms a fresh region from the clean retranslation.
///
/// The lazy watchdog (period 50, so the region has time to form and run
/// before the first sample) only repairs the *checked* execution, so the
/// iterations the bad rule corrupted before the catch stay corrupted.
/// The guest therefore resets the accumulator to a constant late in the
/// loop: everything after `i == 1500` runs on the post-eviction clean
/// translation, making the final result comparable against pure TCG.
#[test]
fn quarantine_evicts_rule_inside_superblock() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 2000; i += 1) {
    s = s + i;
    s = s ^ 3;
    if (i == 1500) { s = 7; }
  }
  return s & 0xffff;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    // The same deliberately wrong rule as the quarantine tests above. The
    // low formation threshold (8) against the lazy watchdog period (50)
    // guarantees the hot loop is already running as a region — bad rule
    // inlined — by the time the watchdog first samples it.
    let mut evil = RuleSet::new();
    evil.insert(Rule {
        guest: vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        host: vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 2)],
        host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
        imm_params: vec![],
        unemulated_flags: 0,
        has_branch: false,
    });
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(evil)))
        .with_chaining(true)
        .with_watchdog(Some(50))
        .with_superblocks(Some(8));
    assert_eq!(e.run(10_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "post-eviction run matches TCG");
    assert_eq!(e.stats.quarantined_rules(), 1, "the bad rule is tombstoned");
    assert!(e.stats.sb_formed() >= 2, "a region formed before the purge and re-formed after");
    assert!(e.stats.sb_invalidated() >= 1, "the purge invalidated the region holding the rule");
    assert!(e.stats.chain_unlinks() > 0, "predecessors chained into the purge were severed");
    assert!(e.stats.sb_execs() > 0, "regions actually ran");
}

/// The self-healing loop end-to-end: a *learned* rule carrying an
/// immediate parameter is corrupted in place by the `imm-skew` fault
/// (its stored `ImmRel` is flipped at install time), the watchdog
/// catches the divergence, attributes it to that one rule, repairs it
/// against the counterexample, and hot-republishes it — no tombstone,
/// no TCG forcing — so the re-translated blocks finish the run with
/// output identical to pure TCG while the rule keeps applying.
#[test]
fn watchdog_repairs_imm_skewed_rule() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 200; i += 1) { s = s + i; s = s ^ 3; }
  return s & 0xffff;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    // A correct, verified rule with an immediate parameter — exactly the
    // shape `imm-skew` corrupts.
    let rule = learn_one(
        vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 3)],
    )
    .expect("the eor/xor rule verifies");
    assert!(!rule.imm_params.is_empty(), "the rule must be immediate-parameterized");
    let mut rules = RuleSet::new();
    rules.insert(rule);

    let fault = FaultPlan { site: FaultSite::ImmSkew, seed: 0 };
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules)))
        .with_watchdog(Some(1))
        .with_fault(Some(fault))
        .with_repair(true);
    assert_eq!(e.run(10_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "the repaired run matches pure TCG");
    assert!(e.stats.watchdog_checks() > 0, "the corrupted block was sampled");
    assert_eq!(e.stats.wd_attributed(), 1, "the divergence is attributed to the one rule");
    assert_eq!(e.stats.wd_repair_attempts(), 1, "one repair attempt");
    assert_eq!(e.stats.wd_repaired(), 1, "the skewed rule is repaired, not quarantined");
    assert_eq!(e.stats.wd_repair_failed(), 0);
    assert_eq!(e.stats.quarantined_rules(), 0, "repair leaves no tombstone");
    assert_eq!(e.stats.wd_collateral(), 0, "attribution leaves no collateral damage");
    assert!(e.stats.guest_dyn_covered() > 0, "the repaired rule keeps applying");
}

/// An unrepairable rule exhausts the per-rule attempt cap and stays
/// tombstoned: the evil eor→xor$2 rule has no immediate parameter and
/// its templates re-learn to nothing its counterexample accepts, so the
/// single capped attempt fails, the rule is quarantined permanently, and
/// the run completes on the TCG path with the correct result.
#[test]
fn unrepairable_rule_hits_attempt_cap_and_stays_tombstoned() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 10; i += 1) { s = s + i; s = s ^ 3; }
  return s;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    let mut evil = RuleSet::new();
    evil.insert(Rule {
        guest: vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        host: vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 2)],
        host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
        imm_params: vec![],
        unemulated_flags: 0,
        has_branch: false,
    });
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(evil)))
        .with_watchdog(Some(1))
        .with_repair(true);
    assert_eq!(e.run(10_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "the quarantined run matches pure TCG");
    assert_eq!(e.stats.wd_attributed(), 1, "the single-application block attributes trivially");
    assert_eq!(e.stats.wd_repair_attempts(), 1, "exactly one attempt — the cap");
    assert_eq!(e.stats.wd_repaired(), 0, "the evil rule is unrepairable");
    assert_eq!(e.stats.wd_repair_failed(), 1);
    assert_eq!(e.stats.quarantined_rules(), 1, "the failed repair ends in a tombstone");
}

/// A skewed rule already inlined into a superblock is repaired in place:
/// the mismatch inside the region attributes to the rule, the repair
/// purge invalidates the region (its parts hold clones of the purged
/// code), and — because the rule survives repair instead of being
/// tombstoned — the loop re-forms a fresh region from the *repaired*
/// rule translation. Same guest structure as the eviction test above:
/// the accumulator reset at `i == 1500` makes the tail comparable
/// against pure TCG despite the pre-catch corrupted iterations.
#[test]
fn repaired_rule_inside_superblock_reforms_region() {
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 2000; i += 1) {
    s = s + i;
    s = s ^ 3;
    if (i == 1500) { s = 7; }
  }
  return s & 0xffff;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let mut base = Engine::new(&image, Translator::Tcg);
    assert_eq!(base.run(10_000_000), RunOutcome::Halted);
    let want = base.guest_reg(ArmReg::R0);

    let rule = learn_one(
        vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 3)],
    )
    .expect("the eor/xor rule verifies");
    let mut rules = RuleSet::new();
    rules.insert(rule);

    let fault = FaultPlan { site: FaultSite::ImmSkew, seed: 0 };
    let mut e = Engine::new(&image, Translator::Rules(Arc::new(rules)))
        .with_chaining(true)
        .with_watchdog(Some(50))
        .with_superblocks(Some(8))
        .with_fault(Some(fault))
        .with_repair(true);
    assert_eq!(e.run(10_000_000), RunOutcome::Halted);
    assert_eq!(e.guest_reg(ArmReg::R0), want, "the post-repair run matches pure TCG");
    assert_eq!(e.stats.wd_repaired(), 1, "the inlined rule is repaired");
    assert_eq!(e.stats.quarantined_rules(), 0, "repair leaves no tombstone");
    assert!(e.stats.sb_formed() >= 2, "a region formed before the purge and re-formed after");
    assert!(e.stats.sb_invalidated() >= 1, "the repair purge invalidated the stale region");
    assert!(e.stats.sb_execs() > 0, "regions actually ran");
    assert!(e.stats.guest_dyn_covered() > 0, "the repaired rule keeps applying");
}

/// One table, five reasons: every way a translation can be invalidated —
/// quarantine, repair, adoption of a foreign rule generation, a guest
/// store into translated code, reset-time revalidation — is driven on a
/// chained, region-forming rules engine, and must leave the same
/// postconditions: the cache invariants hold (`check_cache`; debug builds
/// also assert them at the instant of every invalidation), the guest
/// result is the ARM interpreter's, the victims are dead, and the blocks
/// that were not touched keep their links.
#[test]
fn every_invalidation_reason_leaves_a_consistent_cache() {
    use ldbt_arm::{encode, ArmMachine, ArmStop};
    use ldbt_compiler::ArmImage;
    use ldbt_dbt::RuleCell;

    fn interpret(image: &ArmImage) -> u32 {
        let mut m = ArmMachine::new();
        image.load_into(&mut m.state.mem);
        m.state.regs[15] = image.entry;
        assert_eq!(m.run(50_000_000), ArmStop::Halt);
        m.state.reg(ArmReg::R0)
    }
    // Same guest structure as the superblock eviction tests above: the
    // reset at `i == 1500` makes the tail comparable although the lazy
    // watchdog lets a few corrupted iterations through before the catch.
    let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 2000; i += 1) {
    s = s + i;
    s = s ^ 3;
    if (i == 1500) { s = 7; }
  }
  return s & 0xffff;
}";
    let image = build_arm_image(src, &Options::o2()).unwrap();
    let rule = learn_one(
        vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
        vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 3)],
    )
    .expect("the eor/xor rule verifies");
    let mut rules = RuleSet::new();
    rules.insert(rule);
    let rules = Arc::new(rules);
    let engine = |image: &ArmImage, fault: Option<&str>, watchdog: Option<u64>| {
        Engine::new(image, Translator::Rules(Arc::clone(&rules)))
            .with_chaining(true)
            .with_superblocks(Some(8))
            .with_smc(true)
            .with_watchdog(watchdog)
            .with_fault(fault.and_then(FaultPlan::parse))
    };

    for reason in ["quarantine", "repair", "adoption", "smc", "reset"] {
        let (e, want) = match reason {
            "quarantine" => {
                let mut e = engine(&image, Some("rule-corrupt:0"), Some(50)).with_repair(false);
                assert_eq!(e.run(10_000_000), RunOutcome::Halted);
                assert_eq!(e.stats.quarantined_rules(), 1, "{reason}");
                (e, interpret(&image))
            }
            "repair" => {
                let mut e = engine(&image, Some("imm-skew:0"), Some(50)).with_repair(true);
                assert_eq!(e.run(10_000_000), RunOutcome::Halted);
                assert_eq!(
                    (e.stats.wd_repaired(), e.stats.quarantined_rules()),
                    (1, 0),
                    "{reason}"
                );
                (e, interpret(&image))
            }
            "adoption" => {
                // A tenant pauses mid-loop with blocks, links and a region
                // built on the shared generation; a second tenant then
                // quarantines the rule, and the first adopts the tombstone
                // at its next dispatcher entry.
                let cell = Arc::new(RuleCell::from_arc(Arc::clone(&rules)));
                let mut e = engine(&image, None, None).with_rule_cell(Arc::clone(&cell));
                assert_eq!(e.run(5_000), RunOutcome::OutOfFuel);
                assert!(e.live_regions() > 0 && e.stats.guest_dyn_covered() > 0, "{reason}");
                let mut other = engine(&image, Some("rule-corrupt:0"), Some(1))
                    .with_repair(false)
                    .with_rule_cell(Arc::clone(&cell));
                assert_eq!(other.run(10_000_000), RunOutcome::Halted);
                assert!(cell.generation() > e.rules_generation(), "{reason}: a tombstone went out");
                assert_eq!(e.run(10_000_000), RunOutcome::Halted);
                assert_eq!(e.rules_generation(), cell.generation(), "{reason}");
                (e, interpret(&image))
            }
            "smc" => {
                let image = ldbt_workloads::asm::smc_image();
                let mut e = engine(&image, None, None);
                assert_eq!(e.run(10_000_000), RunOutcome::Halted);
                assert!(e.stats.smc_invalidations() > 0, "{reason}");
                (e, interpret(&image))
            }
            _ => {
                // Rewrite a code word behind the engine's back between two
                // runs: `s ^ 3` becomes `s ^ 5`.
                let mut e = engine(&image, None, None);
                assert_eq!(e.run(10_000_000), RunOutcome::Halted);
                let mut patched = image.clone();
                let is_eor3 = |w: &[u8]| {
                    let word = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                    matches!(
                        encode::decode(word),
                        Ok(ArmInstr::Dp { op: DpOp::Eor, op2: Operand2::Imm(3), .. })
                    )
                };
                let at = patched.bytes.chunks(4).position(is_eor3).expect("the loop body xors 3");
                patched.bytes[4 * at] ^= 3 ^ 5;
                patched.load_into(&mut e.state.mem);
                let (blocks, links) = (e.cache_blocks(), e.live_links());
                e.reset();
                // At the instant of the invalidation: only the rewritten
                // translations died, the rest of the cache kept its links.
                assert_eq!(e.check_cache(), Ok(()), "{reason}");
                assert!(e.stats.smc_invalidations() > 0 && e.cache_blocks() < blocks, "{reason}");
                assert!(e.cache_blocks() > 0 && (1..links).contains(&e.live_links()), "{reason}");
                assert_eq!(e.run(20_000_000), RunOutcome::Halted);
                (e, interpret(&patched))
            }
        };
        assert_eq!(e.check_cache(), Ok(()), "{reason}");
        assert_eq!(e.guest_reg(ArmReg::R0), want, "{reason}: the interpreter's result");
        assert!(e.stats.blocks() > e.cache_blocks() as u64, "{reason}: the victims are dead");
        assert!(e.stats.chain_unlinks() > 0, "{reason}: links into the victims were severed");
        assert!(e.stats.sb_invalidated() > 0, "{reason}: regions over the victims died");
        assert!(e.live_links() > 0, "{reason}: untouched blocks keep their links");
    }
}

/// The repair synthesizer's output is itself verified: a snippet whose
/// scratch materialization cannot be expressed as mov/lea is rejected,
/// not silently mistranslated.
#[test]
fn unsynthesizable_scratch_rejected() {
    // Guest computes r12 = r0 * r1 (not expressible as a single mov/lea
    // over mapped inputs) while the host ignores it.
    let guest = vec![
        ArmInstr::Mul {
            rd: ArmReg::R12,
            rn: ArmReg::R0,
            rm: ArmReg::R1,
            set_flags: false,
            cond: ldbt_arm::Cond::Al,
        },
        ArmInstr::dp(DpOp::Add, ArmReg::R2, ArmReg::R0, Operand2::Reg(ArmReg::R1)),
    ];
    let host = vec![X86Instr::Lea {
        dst: Gpr::Edx,
        addr: ldbt_x86::X86Mem { base: Some(Gpr::Eax), index: Some((Gpr::Ecx, 1)), disp: 0 },
    }];
    assert!(learn_one(guest, host).is_err());
}
