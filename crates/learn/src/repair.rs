//! Counterexample-guided rule repair (ROADMAP item 4, after RulER).
//!
//! When the runtime watchdog catches a rule-covered block diverging from
//! the ARM interpreter, the engine attributes the divergence to a single
//! rule (bisection replay in `ldbt-dbt`) and hands this module the
//! quarantined [`Rule`] plus a [`Counterexample`] — the concrete binding
//! that was executing and the divergent-vs-reference register values.
//! Repair then runs the *learning* machinery in reverse:
//!
//! 1. **Localize** ([`diagnose`]): check every stored [`ImmRel`] against
//!    the rule's own templates — at a parameterized host site the template
//!    immediate must equal `rel.apply(template_value)`, so a skewed
//!    relation is self-inconsistent and names the falsified site.
//! 2. **Re-parameterize**: rebuild candidate operand mappings from the
//!    (intact) guest/host templates via [`initial_mappings`] — the same
//!    §3.2 heuristics that learned the rule in the first place.
//! 3. **Re-verify & gate on the counterexample**: each candidate goes
//!    through [`verify_in_budgeted`] under the caller's repair [`Budget`];
//!    an accepted candidate must keep the rule's [`Rule::stable_key`]
//!    (so hot publication via `RuleSet::replace` stays index-safe) and
//!    must instantiate *differently* from the quarantined rule under the
//!    counterexample's binding — identical host code cannot explain, let
//!    alone fix, the observed divergence. That filter is what makes the
//!    counterexample a mandatory test vector: a rule whose metadata is
//!    actually correct (e.g. the `rule-corrupt` fault, which clobbers
//!    emitted code rather than the rule) re-learns only byte-identical
//!    candidates and the repair honestly fails.
//!
//! The engine keeps the pre-dispatch memory snapshot on its side and
//! replays the repaired rule against the interpreter reference before
//! publishing — this module only has to produce a verified, key-stable,
//! counterexample-separating candidate.

use crate::budget::Budget;
use crate::extract::SnippetPair;
use crate::param::initial_mappings;
use crate::rule::{Binding, ImmRel, ImmSlot, Rule};
use crate::verify::verify_in_budgeted;
use ldbt_arm::ArmReg;
use ldbt_isa::SourceLoc;
use ldbt_smt::TermPool;
use ldbt_x86::{Gpr, Operand, X86Instr};

/// A runtime divergence captured by the watchdog, attributed to one rule.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Guest PC of the diverging block.
    pub block_pc: u32,
    /// The binding the rule was applied under when the block diverged.
    pub binding: Binding,
    /// Divergent registers: `(reg, observed, expected)` — the value the
    /// rule-translated code produced vs. the interpreter reference.
    pub divergent: Vec<(ArmReg, u32, u32)>,
}

/// What [`diagnose`] found falsified by the rule's own templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Falsified {
    /// Host site `site` of immediate parameter `param` stores `stored`,
    /// but the template values imply `implied` (`None`: no single
    /// [`ImmRel`] explains the templates at all).
    ImmRelation { param: usize, site: usize, stored: ImmRel, implied: Option<ImmRel> },
    /// No immediate relation is self-inconsistent — the fault is in the
    /// operand mapping (`host_reg_of`), which templates alone cannot
    /// pinpoint; re-parameterization searches the mapping space instead.
    OperandMapping,
}

/// Why a repair attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairFail {
    /// The templates no longer parameterize at all.
    NoMappings,
    /// Every candidate was rejected (verification failed, the stable key
    /// changed, or the candidate could not explain the counterexample).
    NoCandidate {
        /// Number of candidate mappings tried.
        tried: usize,
    },
}

/// A successful repair.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The repaired, re-verified rule (same [`Rule::stable_key`] as the
    /// quarantined rule — safe to hot-publish via `RuleSet::replace`).
    pub rule: Rule,
    /// What localization falsified (diagnostics for tracing).
    pub falsified: Vec<Falsified>,
    /// Number of candidate mappings tried before acceptance.
    pub candidates_tried: usize,
}

/// The dedicated repair budget: repair runs on the engine's hot path
/// aftermath, so it gets half the learning-time solver budget — enough
/// for the short rules the DBT applies, bounded enough that a
/// pathological counterexample cannot stall dispatch.
pub fn repair_budget() -> Budget {
    let d = Budget::default();
    Budget { solver_conflicts: d.solver_conflicts / 2, ..d }
}

/// The template immediate stored at a host site, mirroring exactly the
/// slots [`Rule::instantiate`] substitutes into.
fn host_imm_at(i: &X86Instr, slot: ImmSlot) -> Option<i64> {
    match slot {
        ImmSlot::Data => match i {
            X86Instr::Mov { src: Operand::Imm(v), .. }
            | X86Instr::Alu { src: Operand::Imm(v), .. }
            | X86Instr::Imul { src: Operand::Imm(v), .. }
            | X86Instr::Un { dst: Operand::Imm(v), .. }
            | X86Instr::Shift { dst: Operand::Imm(v), .. } => Some(*v as i64),
            _ => None,
        },
        ImmSlot::MemOffset => {
            if let X86Instr::Lea { addr, .. } = i {
                return Some(addr.disp as i64);
            }
            if let X86Instr::MovStore { dst, .. } = i {
                return Some(dst.disp as i64);
            }
            for op in instr_operands(i) {
                if let Operand::Mem(m) = op {
                    return Some(m.disp as i64);
                }
            }
            None
        }
    }
}

fn instr_operands(i: &X86Instr) -> Vec<&Operand> {
    match i {
        X86Instr::Mov { dst, src } | X86Instr::Alu { dst, src, .. } => vec![dst, src],
        X86Instr::Imul { src, .. } | X86Instr::Movx { src, .. } => vec![src],
        X86Instr::Shift { dst, .. } | X86Instr::Un { dst, .. } => vec![dst],
        _ => vec![],
    }
}

/// Localize which stored relations the rule's own templates falsify.
///
/// A healthy rule is *self-consistent*: at every parameterized host site
/// the template immediate equals `rel.apply(template_value)` (that is how
/// the relation was derived during learning). A site where that fails is
/// the repair target; if every site checks out, the fault must be in the
/// operand mapping and [`Falsified::OperandMapping`] is reported instead.
pub fn diagnose(rule: &Rule) -> Vec<Falsified> {
    let mut out = Vec::new();
    for (p, param) in rule.imm_params.iter().enumerate() {
        for (s, (hi, hslot, rel)) in param.host_sites.iter().enumerate() {
            let Some(host_v) = rule.host.get(*hi).and_then(|i| host_imm_at(i, *hslot)) else {
                continue;
            };
            if host_v as i32 == rel.apply(param.template_value) as i32 {
                continue;
            }
            let implied = [ImmRel::Id, ImmRel::Neg, ImmRel::Not]
                .into_iter()
                .find(|r| host_v as i32 == r.apply(param.template_value) as i32);
            out.push(Falsified::ImmRelation { param: p, site: s, stored: *rel, implied });
        }
    }
    if out.is_empty() {
        out.push(Falsified::OperandMapping);
    }
    out
}

/// A deterministic host-register allocation over the binding's actual
/// guest registers, used to compare two instantiations of the same guest
/// template: distinct actual registers get successive pool registers in
/// register-index order, so the comparison sees only differences that
/// come from the *rules*, never from allocation order.
fn identity_alloc(binding: &Binding) -> impl FnMut(ArmReg) -> Gpr + '_ {
    let mut actual: Vec<ArmReg> = binding.actuals().collect();
    actual.sort_by_key(|r| r.index());
    move |g: ArmReg| {
        let i = actual.iter().position(|r| *r == g).expect("actual register is bound");
        Gpr::ALL[i % Gpr::ALL.len()]
    }
}

/// Whether two same-template rules emit byte-identical host code under
/// the counterexample's binding. A candidate that does cannot explain the
/// observed divergence and is rejected.
fn instantiates_identically(a: &Rule, b: &Rule, binding: &Binding) -> bool {
    a.instantiate(binding, identity_alloc(binding))
        == b.instantiate(binding, identity_alloc(binding))
}

/// Attempt to repair a quarantined rule against a counterexample.
///
/// On success the returned rule has the same [`Rule::stable_key`] as the
/// input (hot publication via `RuleSet::replace` + `RuleSet::revive` is
/// safe) and is guaranteed to instantiate differently from the
/// quarantined rule under the counterexample's binding.
///
/// # Errors
///
/// [`RepairFail::NoMappings`] when the templates no longer parameterize;
/// [`RepairFail::NoCandidate`] when no candidate survives verification
/// and the counterexample gate.
pub fn repair(
    quarantined: &Rule,
    cex: &Counterexample,
    budget: &Budget,
) -> Result<RepairReport, RepairFail> {
    let falsified = diagnose(quarantined);
    // Rebuild the learning input from the rule's own (intact) templates.
    // Memory-operand variable names are long gone; every site gets the
    // same empty name, which pairs them in occurrence order — the
    // verifier gates any mis-pairing.
    let pair = SnippetPair {
        loc: SourceLoc::line(0),
        func: "repair".into(),
        guest: quarantined.guest.iter().map(|g| (*g, None)).collect(),
        host: quarantined.host.iter().map(|h| (*h, None)).collect(),
    };
    let mappings = initial_mappings(&pair).map_err(|_| RepairFail::NoMappings)?;
    let mut pool = TermPool::new();
    let mut tried = 0;
    for m in &mappings {
        tried += 1;
        pool.reset();
        let Ok(candidate) = verify_in_budgeted(&mut pool, &pair, m, budget) else {
            continue;
        };
        // Hot publication requires an unchanged identity: same guest
        // template (it is, verbatim) and same parameter sites.
        if candidate.guest != quarantined.guest
            || candidate.stable_key() != quarantined.stable_key()
        {
            continue;
        }
        // The counterexample is a mandatory test vector: the repaired
        // rule must actually change the code the divergent block ran.
        if instantiates_identically(&candidate, quarantined, &cex.binding) {
            continue;
        }
        return Ok(RepairReport { rule: candidate, falsified, candidates_tried: tried });
    }
    Err(RepairFail::NoCandidate { tried })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt_ruleset, FaultPlan, FaultSite};
    use crate::rule::RuleSet;
    use crate::verify::verify;
    use ldbt_arm::{ArmInstr, DpOp, Operand2};
    use ldbt_x86::AluOp;

    fn learn(guest: Vec<ArmInstr>, host: Vec<X86Instr>) -> Rule {
        let pair = SnippetPair {
            loc: SourceLoc::line(1),
            func: "t".into(),
            guest: guest.into_iter().map(|g| (g, None)).collect(),
            host: host.into_iter().map(|h| (h, None)).collect(),
        };
        let mappings = initial_mappings(&pair).expect("mappings");
        for m in &mappings {
            if let Ok(r) = verify(&pair, m) {
                return r;
            }
        }
        panic!("test rule must verify");
    }

    /// `eor r0, r0, #3` → `xorl $3, %ecx`: one Id immediate parameter.
    fn imm_rule() -> Rule {
        learn(
            vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
            vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 3)],
        )
    }

    /// `add r0, r0, r1` → `addl %edx, %ecx`: two operand bindings.
    fn two_reg_rule() -> Rule {
        learn(
            vec![ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1))],
            vec![X86Instr::alu_rr(AluOp::Add, Gpr::Ecx, Gpr::Edx)],
        )
    }

    fn cex_for(rule: &Rule, seq: &[ArmInstr]) -> Counterexample {
        let binding = rule.matches(seq).expect("counterexample block matches the rule");
        Counterexample { block_pc: 0x1000, binding, divergent: vec![(ArmReg::R5, 1, 2)] }
    }

    fn skewed(rule: &Rule) -> Rule {
        let mut rs = RuleSet::new();
        rs.insert(rule.clone());
        let key = corrupt_ruleset(&mut rs, FaultPlan { site: FaultSite::ImmSkew, seed: 0 })
            .expect("eligible");
        rs.find_by_key(key).unwrap().clone()
    }

    #[test]
    fn diagnose_localizes_a_skewed_relation() {
        let good = imm_rule();
        assert_eq!(diagnose(&good), vec![Falsified::OperandMapping], "healthy rule: no imm site");
        let bad = skewed(&good);
        let f = diagnose(&bad);
        assert_eq!(f.len(), 1);
        match f[0] {
            Falsified::ImmRelation { stored, implied, .. } => {
                assert_eq!(stored, ImmRel::Not, "Id skews to Not");
                assert_eq!(implied, Some(ImmRel::Id), "templates imply the original relation");
            }
            other => panic!("expected ImmRelation, got {other:?}"),
        }
    }

    #[test]
    fn imm_skew_is_repaired() {
        let good = imm_rule();
        let bad = skewed(&good);
        let seq = [ArmInstr::dp(DpOp::Eor, ArmReg::R5, ArmReg::R5, Operand2::Imm(10))];
        let cex = cex_for(&bad, &seq);
        let report = repair(&bad, &cex, &repair_budget()).expect("repairable");
        assert_eq!(report.rule.stable_key(), bad.stable_key(), "key stable for hot publication");
        assert_eq!(report.rule.imm_params[0].host_sites[0].2, ImmRel::Id, "relation restored");
        // The repaired rule emits the original rule's code again.
        assert!(instantiates_identically(&report.rule, &good, &cex.binding));
        assert!(!instantiates_identically(&report.rule, &bad, &cex.binding));
    }

    #[test]
    fn operand_swap_is_repaired() {
        let good = two_reg_rule();
        let mut rs = RuleSet::new();
        rs.insert(good.clone());
        let key = corrupt_ruleset(&mut rs, FaultPlan { site: FaultSite::OperandSwap, seed: 0 })
            .expect("eligible");
        let bad = rs.find_by_key(key).unwrap().clone();
        assert_ne!(bad.host_reg_of, good.host_reg_of, "fault armed");
        let seq = [ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7))];
        let cex = cex_for(&bad, &seq);
        let report = repair(&bad, &cex, &repair_budget()).expect("repairable");
        assert_eq!(report.rule.stable_key(), bad.stable_key());
        assert!(instantiates_identically(&report.rule, &good, &cex.binding));
        assert!(!instantiates_identically(&report.rule, &bad, &cex.binding));
        assert_eq!(report.falsified, vec![Falsified::OperandMapping]);
    }

    #[test]
    fn correct_rule_cannot_be_repaired() {
        // The rule-corrupt control: the divergence came from clobbered
        // *emitted code*, the rule itself is right — every re-learned
        // candidate instantiates identically and must be rejected.
        let good = imm_rule();
        let seq = [ArmInstr::dp(DpOp::Eor, ArmReg::R5, ArmReg::R5, Operand2::Imm(10))];
        let cex = cex_for(&good, &seq);
        match repair(&good, &cex, &repair_budget()) {
            Err(RepairFail::NoCandidate { tried }) => assert!(tried > 0),
            other => panic!("expected NoCandidate, got {other:?}"),
        }
    }

    #[test]
    fn repair_budget_is_bounded() {
        let d = Budget::default();
        let r = repair_budget();
        assert!(r.solver_conflicts < d.solver_conflicts);
        assert_eq!(r.symexec_steps, d.symexec_steps);
    }
}
