//! Fault injection for exercising the containment layer.
//!
//! A [`FaultPlan`] (`<site>:<seed>`, the `LDBT_FAULT` knob of a binary's
//! configuration) arms exactly one deterministic fault per run; each
//! site targets a different containment mechanism:
//!
//! | site             | injected fault                          | contained by                  |
//! |------------------|-----------------------------------------|-------------------------------|
//! | `rule-corrupt`   | clobber a rule application's host code  | watchdog quarantine (`dbt`)   |
//! | `imm-skew`       | skew an `ImmRel` of one installed rule  | watchdog **repair** (`dbt`)   |
//! | `operand-swap`   | swap two operand bindings of one rule   | watchdog **repair** (`dbt`)   |
//! | `solver-exhaust` | force the SAT conflict budget to seed   | budget → `VerifyFail::Other`  |
//! | `worker-panic`   | panic in one verification worker        | `catch_unwind` isolation      |
//!
//! The seed selects *which* item faults (an application index, a rule
//! index, a budget value, a worker item index), keeping every injected
//! run reproducible. Faults are injected only where a [`FaultPlan`] is
//! explicitly threaded (engine/learn config); nothing is armed by
//! default.
//!
//! `imm-skew` and `operand-swap` corrupt the *installed* rule set once,
//! via [`corrupt_ruleset`] — the rule's stored metadata goes wrong, so a
//! successful counterexample-guided repair (which republishes a corrected
//! rule) provably recovers: retranslation after the repair is clean. By
//! contrast `rule-corrupt` re-clobbers the host code at *every* lowering
//! of the seed-th application, so no rule replacement can fix it — it is
//! the must-stay-quarantined control for the repair loop.

use crate::rule::{ImmRel, Rule, RuleSet};

/// Where the fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Corrupt the host code of one rule application at lowering time.
    RuleCorrupt,
    /// Skew one parameterized-immediate relation ([`ImmRel`]) of the
    /// seed-th eligible installed rule (repairable).
    ImmSkew,
    /// Swap two operand bindings (`host_reg_of` entries) of the seed-th
    /// eligible installed rule (repairable).
    OperandSwap,
    /// Replace the SAT conflict budget with the seed (0 = every
    /// SAT-stage query exhausts immediately).
    SolverExhaust,
    /// Panic inside one parallel verification worker item.
    WorkerPanic,
}

impl FaultSite {
    /// The site's `LDBT_FAULT` selector name (also the trace-event tag).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::RuleCorrupt => "rule-corrupt",
            FaultSite::ImmSkew => "imm-skew",
            FaultSite::OperandSwap => "operand-swap",
            FaultSite::SolverExhaust => "solver-exhaust",
            FaultSite::WorkerPanic => "worker-panic",
        }
    }
}

/// One armed fault: a site plus a deterministic seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Injection site.
    pub site: FaultSite,
    /// Deterministic selector (meaning depends on the site).
    pub seed: u64,
}

impl FaultPlan {
    /// Parse `<site>[:<seed>]`; unknown sites and malformed seeds yield
    /// `None` (an unparseable plan must never arm a surprise fault).
    pub fn parse(s: &str) -> Option<FaultPlan> {
        let (name, seed) = match s.split_once(':') {
            Some((name, seed)) => (name, seed.parse().ok()?),
            None => (s, 0),
        };
        let site = match name {
            "rule-corrupt" => FaultSite::RuleCorrupt,
            "imm-skew" => FaultSite::ImmSkew,
            "operand-swap" => FaultSite::OperandSwap,
            "solver-exhaust" => FaultSite::SolverExhaust,
            "worker-panic" => FaultSite::WorkerPanic,
            _ => return None,
        };
        Some(FaultPlan { site, seed })
    }
}

/// Skewed replacement for an [`ImmRel`]: the corrupted relation differs
/// from the original on *every* bound value, so any execution through the
/// skewed site diverges (`!v ≠ v`, `!v ≠ -v`, and `v ≠ !v` for all `v`) —
/// the watchdog is guaranteed a counterexample, not a coincidence.
fn skew_rel(rel: ImmRel) -> ImmRel {
    match rel {
        ImmRel::Id | ImmRel::Neg => ImmRel::Not,
        ImmRel::Not => ImmRel::Id,
    }
}

/// Apply an install-time corruption (`imm-skew` / `operand-swap`) to one
/// rule of an installed rule set, in place. Returns the corrupted rule's
/// stable key, or `None` when the plan targets a different site or no
/// rule is eligible.
///
/// Eligibility and selection are deterministic: the eligible rules are
/// ordered by opcode mean, then [`Rule::dedup_key`], and the seed indexes
/// (mod count) into them. Only rule *metadata* is touched — the guest/host
/// templates stay intact, which is exactly what makes the corruption
/// repairable by template-seeded re-parameterization.
pub fn corrupt_ruleset(rules: &mut RuleSet, plan: FaultPlan) -> Option<u64> {
    let pick = |eligible: &dyn Fn(&&Rule) -> bool| -> Option<Rule> {
        let mut pool: Vec<&Rule> = rules.iter().filter(eligible).collect();
        // Ordered by the rules' own texts, not by where the store keeps
        // them: a seed names the same rule whatever the store's layout.
        pool.sort_by_cached_key(|r| (r.hash_key(), r.dedup_key()));
        pool.get(plan.seed as usize % pool.len().max(1)).map(|r| (*r).clone())
    };
    let bad = match plan.site {
        FaultSite::ImmSkew => {
            let mut bad = pick(&|r| r.imm_params.iter().any(|p| !p.host_sites.is_empty()))?;
            let param = bad.imm_params.iter_mut().find(|p| !p.host_sites.is_empty())?;
            let site = &mut param.host_sites[0];
            site.2 = skew_rel(site.2);
            bad
        }
        FaultSite::OperandSwap => {
            let mut bad = pick(&|r| {
                let mut guests: Vec<usize> = r.host_reg_of.values().map(|g| g.index()).collect();
                guests.sort_unstable();
                guests.dedup();
                guests.len() >= 2
            })?;
            // Swap the guest correspondences of the two lowest-numbered
            // host registers with distinct guest registers.
            let mut hosts: Vec<_> = bad.host_reg_of.keys().copied().collect();
            hosts.sort_by_key(|h| h.index());
            let a = hosts[0];
            let b = *hosts[1..].iter().find(|h| bad.host_reg_of[*h] != bad.host_reg_of[&a])?;
            let (ga, gb) = (bad.host_reg_of[&a], bad.host_reg_of[&b]);
            bad.host_reg_of.insert(a, gb);
            bad.host_reg_of.insert(b, ga);
            bad
        }
        _ => return None,
    };
    // Metadata-only corruption keeps the guest template, hence the key.
    let key = bad.stable_key();
    rules.replace(key, bad).then_some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{ImmParam, ImmSlot, Rule};
    use ldbt_arm::{ArmInstr, ArmReg, DpOp, Operand2};
    use ldbt_x86::{AluOp, Gpr, X86Instr};

    #[test]
    fn parse_sites_and_seeds() {
        assert_eq!(
            FaultPlan::parse("rule-corrupt:3"),
            Some(FaultPlan { site: FaultSite::RuleCorrupt, seed: 3 })
        );
        assert_eq!(
            FaultPlan::parse("solver-exhaust"),
            Some(FaultPlan { site: FaultSite::SolverExhaust, seed: 0 })
        );
        assert_eq!(
            FaultPlan::parse("worker-panic:17"),
            Some(FaultPlan { site: FaultSite::WorkerPanic, seed: 17 })
        );
        assert_eq!(
            FaultPlan::parse("imm-skew:2"),
            Some(FaultPlan { site: FaultSite::ImmSkew, seed: 2 })
        );
        assert_eq!(
            FaultPlan::parse("operand-swap"),
            Some(FaultPlan { site: FaultSite::OperandSwap, seed: 0 })
        );
        assert_eq!(FaultPlan::parse("melt-cpu:1"), None);
        assert_eq!(FaultPlan::parse("rule-corrupt:x"), None);
        assert_eq!(FaultPlan::parse("imm-skew:x"), None);
    }

    #[test]
    fn skew_always_differs() {
        for rel in [ImmRel::Id, ImmRel::Neg, ImmRel::Not] {
            let bad = skew_rel(rel);
            assert_ne!(rel, bad);
            for v in [-7i64, -1, 0, 1, 3, 0x7fff_ffff] {
                assert_ne!(rel.apply(v), bad.apply(v), "{rel:?}→{bad:?} must differ at {v}");
            }
        }
    }

    fn imm_rule() -> Rule {
        Rule {
            guest: vec![ArmInstr::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
            host: vec![X86Instr::alu_ri(AluOp::Xor, Gpr::Ecx, 3)],
            host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
            imm_params: vec![ImmParam {
                guest_site: (0, ImmSlot::Data),
                extra_guest_sites: vec![],
                template_value: 3,
                host_sites: vec![(0, ImmSlot::Data, ImmRel::Id)],
            }],
            unemulated_flags: 0,
            has_branch: false,
        }
    }

    fn two_reg_rule() -> Rule {
        Rule {
            guest: vec![ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1))],
            host: vec![X86Instr::alu_rr(AluOp::Add, Gpr::Ecx, Gpr::Edx)],
            host_reg_of: [(Gpr::Ecx, ArmReg::R0), (Gpr::Edx, ArmReg::R1)].into_iter().collect(),
            imm_params: vec![],
            unemulated_flags: 0,
            has_branch: false,
        }
    }

    #[test]
    fn imm_skew_corrupts_the_relation_and_keeps_the_key() {
        let mut rs = RuleSet::new();
        rs.insert(two_reg_rule()); // ineligible (no imm params)
        rs.insert(imm_rule());
        let want_key = imm_rule().stable_key();
        let key = corrupt_ruleset(&mut rs, FaultPlan { site: FaultSite::ImmSkew, seed: 0 })
            .expect("an eligible rule exists");
        assert_eq!(key, want_key, "only the imm-param rule is eligible");
        let bad = rs.find_by_key(key).unwrap();
        assert_eq!(bad.imm_params[0].host_sites[0].2, ImmRel::Not, "Id skews to Not");
        assert_eq!(bad.guest, imm_rule().guest, "guest template untouched");
        assert_eq!(bad.host, imm_rule().host, "host template untouched");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn operand_swap_swaps_two_bindings_and_keeps_the_key() {
        let mut rs = RuleSet::new();
        rs.insert(imm_rule()); // ineligible (one distinct guest reg)
        rs.insert(two_reg_rule());
        let want_key = two_reg_rule().stable_key();
        let key = corrupt_ruleset(&mut rs, FaultPlan { site: FaultSite::OperandSwap, seed: 0 })
            .expect("an eligible rule exists");
        assert_eq!(key, want_key, "only the two-register rule is eligible");
        let bad = rs.find_by_key(key).unwrap();
        assert_eq!(bad.host_reg_of[&Gpr::Ecx], ArmReg::R1, "bindings swapped");
        assert_eq!(bad.host_reg_of[&Gpr::Edx], ArmReg::R0, "bindings swapped");
        assert_eq!(bad.host, two_reg_rule().host, "host template untouched");
    }

    #[test]
    fn corrupt_ruleset_ignores_other_sites_and_empty_sets() {
        let mut rs = RuleSet::new();
        rs.insert(imm_rule());
        for site in [FaultSite::RuleCorrupt, FaultSite::SolverExhaust, FaultSite::WorkerPanic] {
            assert_eq!(corrupt_ruleset(&mut rs, FaultPlan { site, seed: 0 }), None);
        }
        let mut empty = RuleSet::new();
        assert_eq!(
            corrupt_ruleset(&mut empty, FaultPlan { site: FaultSite::ImmSkew, seed: 0 }),
            None
        );
    }
}
