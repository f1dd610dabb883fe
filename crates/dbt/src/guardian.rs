//! The guardian: the quarantine watchdog, divergence attribution,
//! counterexample-guided rule repair and fault installation.
//!
//! The executor asks [`Guardian::sample`] whether a dispatch is to be
//! cross-checked and hands the pre-dispatch memory snapshot to
//! [`Guardian::check`] afterwards. The guardian reaches the code cache
//! only through [`CodeCache::invalidate`] (plus its read-only selectors)
//! and the rule set only through the [`RuleHandle`]'s shared `RuleCell`.

use crate::api::RunOutcome;
use crate::cache::{CodeCache, InvalidateReason};
use crate::env::{
    load_guest, reg_offset, step_guest, store_guest, ENV_BASE, GUEST_MEM_LIMIT, HOST_STACK_TOP,
};
use crate::rules::lower_block_with_rules_suppress;
use crate::share::RuleHandle;
use crate::stats::{DbtCtr, DbtStats};
use crate::tcg::{decode_block, GuestBlock};
use ldbt_arm::{ArmReg, ArmState};
use ldbt_isa::{CostModel, ExecStats, Memory, Width};
use ldbt_learn::rule::Binding;
use ldbt_learn::{Counterexample, FaultPlan, FaultSite, RuleSet};
use ldbt_x86::interp::{run_seq, SeqExit};
use ldbt_x86::{Gpr, X86Instr, X86State};
use std::collections::{HashMap, HashSet};

/// Repair attempts allowed per rule (stable key). Past the cap a
/// divergent rule is tombstoned permanently: a rule that was "repaired"
/// and diverges again is unrepairable in practice, and re-trying would
/// livelock the watchdog on it.
const REPAIR_ATTEMPT_CAP: u32 = 1;
/// Attribution bisection gives up beyond this many rule applications in
/// one block: each probe is a full re-lower + replay, and a block this
/// dense is cheaper to quarantine conservatively.
const ATTRIBUTION_MAX_HITS: usize = 8;
/// Fuel for one attribution or trial-replay probe run — generous for a
/// single block, bounded against a probe lowering that misbehaves.
const PROBE_FUEL: u64 = 100_000;

/// The engine state a cross-check works on, borrowed field by field.
pub(crate) struct GuardCx<'a> {
    /// Live guest memory after the translated dispatch; replaced by the
    /// interpreter's on a divergence.
    pub(crate) mem: &'a mut Memory,
    /// The continuation pc the translated dispatch produced; corrected
    /// on a divergence.
    pub(crate) pc: &'a mut u32,
    pub(crate) cache: &'a mut CodeCache,
    pub(crate) rules: Option<&'a mut RuleHandle>,
    pub(crate) stats: &'a DbtStats,
}

/// The interpreter's run of one block from the pre-dispatch snapshot.
struct Reference {
    pc: u32,
    block: GuestBlock,
    arm: ArmState,
    next_pc: u32,
    /// The block halted or trapped the guest.
    end: Option<RunOutcome>,
}

/// Compare guest-visible state against the reference: r0–r14 env slots
/// and guest memory, as `(regs_ok, mem_ok)`. Flags are excluded (the
/// translated side may hold them in host EFLAGS legitimately); the env +
/// host-stack region is host-private and also excluded.
fn surface_matches(mem: &Memory, arm: &ArmState) -> (bool, bool) {
    let regs_ok = ArmReg::ALL.iter().all(|r| {
        matches!(r, ArmReg::Pc)
            || mem.read(ENV_BASE + reg_offset(*r), Width::W32) == arm.regs[r.index()]
    });
    (regs_ok, mem.first_difference(&arm.mem, |addr| addr >= GUEST_MEM_LIMIT).is_none())
}

/// Watchdog, repair and fault-injection state of one engine.
#[derive(Default)]
pub(crate) struct Guardian {
    /// Watchdog sampling period: check every Nth rule-covered dispatch.
    pub(crate) watchdog: Option<u64>,
    tick: u64,
    /// Counterexample-guided rule repair enabled (`LDBT_REPAIR`).
    pub(crate) repair: bool,
    /// Repair attempts per rule (stable key), capped at
    /// [`REPAIR_ATTEMPT_CAP`].
    repair_attempts: HashMap<u64, u32>,
    /// Blocks forced onto the TCG path after a quarantine.
    force_tcg: HashSet<u32>,
    /// Translation-time fault injection (`LDBT_FAULT`).
    pub(crate) fault: Option<FaultPlan>,
    /// Whether the install-time fault corruption (`imm-skew` /
    /// `operand-swap`) has been applied to the installed rule set.
    fault_installed: bool,
}

impl Guardian {
    pub(crate) fn new(watchdog: Option<u64>, repair: bool, fault: Option<FaultPlan>) -> Guardian {
        Guardian { watchdog, repair, fault, ..Default::default() }
    }

    /// Whether a quarantine forced the block at `pc` onto the TCG path.
    pub(crate) fn forces_tcg(&self, pc: u32) -> bool {
        self.force_tcg.contains(&pc)
    }

    /// Watchdog sampling: every Nth dispatch of a rule-covered block is
    /// cross-checked. Uncovered dispatches do not advance the tick.
    #[inline]
    pub(crate) fn sample(&mut self, rule_covered: bool) -> bool {
        match self.watchdog {
            Some(period) if rule_covered => {
                self.tick += 1;
                self.tick.is_multiple_of(period)
            }
            _ => false,
        }
    }

    /// Apply install-time fault corruption (`imm-skew` / `operand-swap`)
    /// to the installed rule set, once, at the first translation. The
    /// corrupted rule keeps its stable key, so everything downstream —
    /// hit attribution, quarantine, repair — handles it like any other
    /// (wrong) rule. `rule-corrupt` stays a lowering-time clobber and is
    /// untouched here.
    pub(crate) fn install_fault(&mut self, rules: Option<&mut RuleHandle>) {
        if std::mem::replace(&mut self.fault_installed, true) {
            return;
        }
        let (Some(plan), Some(rules)) = (self.fault, rules) else { return };
        if !matches!(plan.site, FaultSite::ImmSkew | FaultSite::OperandSwap) {
            return;
        }
        if let Some(key) = rules.publish(move |rs| ldbt_learn::corrupt_ruleset(rs, plan)) {
            exec_event!("fault_install", site = plan.site.name(), rule = key);
        }
    }

    /// Re-execute a rule-covered block from its pre-dispatch memory
    /// snapshot through the ARM interpreter and compare architectural
    /// state. On mismatch, attribute the divergence to a single rule
    /// application by bisection replay and try to repair that rule from
    /// the counterexample (`LDBT_REPAIR`, on by default): a repaired rule
    /// is hot-republished and the stale translations re-translate against
    /// it. When repair is off, attribution fails, or repair fails, the
    /// culprit (or, conservatively, every rule applied in the block) is
    /// quarantined — tombstoned in the rule set — the affected
    /// translations are invalidated, unlinking any blocks chained into
    /// them, and this block is forced onto the TCG path. Either way the
    /// engine adopts the interpreter's (correct) state so execution
    /// continues unharmed.
    ///
    /// `Ok(true)`: states matched, a chain may continue. `Ok(false)`:
    /// mismatch — state was rewound to the interpreter's, translations
    /// were invalidated, `cx.pc` holds the corrected continuation and the
    /// run loop must go back through the dispatcher. `Err`: the
    /// interpreter reference run ended the program.
    pub(crate) fn check(
        &mut self,
        cx: &mut GuardCx,
        pc: u32,
        hits: &[(usize, u64)],
        pre: Memory,
    ) -> Result<bool, RunOutcome> {
        cx.stats.bump(DbtCtr::WatchdogChecks);
        let block = decode_block(&pre, pc);
        if block.instrs.is_empty() {
            return Ok(true);
        }
        // The repair path replays the block from the pristine
        // pre-dispatch snapshot; the reference interpreter consumes
        // `pre`, so keep a copy while repair could still need one.
        let pre_snap = self.repair.then(|| pre.clone());
        let mut rf = reference_run(pre, pc, block);
        let (regs_ok, mem_ok) = surface_matches(cx.mem, &rf.arm);
        // The next PC is part of the compared surface.
        let pc_ok = rf.end.is_none() && *cx.pc == rf.next_pc;
        if regs_ok && pc_ok && mem_ok {
            return Ok(true);
        }
        // Mismatch. With repair enabled, first attribute the divergence
        // to a candidate set of rule applications by bisection, then run
        // the repair loop candidate by candidate; tombstoning is the
        // fallback, not the default. When suppressing more than one
        // application fixes the block the bisection alone is ambiguous,
        // but the counterexample-gated repair rejects healthy rules, so
        // the first candidate whose repair survives the trial replay is
        // the culprit.
        let candidates = pre_snap.as_ref().and_then(|p| self.attribute(cx, hits, p, &rf));
        let unique = candidates.as_ref().is_some_and(|c| c.len() == 1);
        let mut culprit: Option<u64> = None;
        for (k, binding) in candidates.iter().flatten() {
            let key = hits[*k].1;
            let attempts = *self.repair_attempts.get(&key).unwrap_or(&0);
            if attempts >= REPAIR_ATTEMPT_CAP {
                exec_event!("repair_capped", pc = pc, rule = key, attempts = attempts);
                continue;
            }
            self.repair_attempts.insert(key, attempts + 1);
            cx.stats.bump(DbtCtr::WdRepairAttempts);
            let p = pre_snap.as_ref().expect("attribution implies a snapshot");
            if self.try_repair(cx, key, binding, p, &rf) {
                culprit = Some(key);
                cx.stats.bump(DbtCtr::WdRepaired);
                break;
            }
            cx.stats.bump(DbtCtr::WdRepairFailed);
        }
        // A unique bisection survivor is attributed outright; an
        // ambiguous set only counts as attributed once a repair
        // singles out the culprit.
        if unique || culprit.is_some() {
            cx.stats.bump(DbtCtr::WdAttributed);
        }
        // A repair invalidates (and re-translates) every block holding
        // the stale instantiation but keeps the rule alive: no
        // tombstone, no TCG forcing. Otherwise quarantine. With
        // candidates, only the candidate set: the bisection proved the
        // other applications in this block innocent; a unique survivor
        // is an attributed quarantine, an ambiguous set that no repair
        // could split is collateral. Without attribution, every rule
        // applied in the block — with repair enabled these are
        // *collateral* tombstones, counted apart from attributed
        // quarantines so the accounting does not overstate how many
        // rules were proven wrong. Tombstoning publishes a new shared
        // generation — other tenants stop translating with these rules
        // at their next dispatch.
        let mut newly: HashSet<u64> = culprit.into_iter().collect();
        if culprit.is_none() {
            let (keys, attributed): (Vec<u64>, bool) = match &candidates {
                Some(cands) => (cands.iter().map(|(k, _)| hits[*k].1).collect(), unique),
                None => (hits.iter().map(|&(_, key)| key).collect(), !self.repair),
            };
            let ctr = if attributed { DbtCtr::QuarantinedRules } else { DbtCtr::WdCollateral };
            if let Some(rules) = cx.rules.as_deref_mut() {
                let tombstone =
                    move |rs: &mut RuleSet| keys.into_iter().filter(|&k| rs.tombstone(k)).collect();
                for key in rules.publish::<Vec<u64>>(tombstone) {
                    newly.insert(key);
                    cx.stats.bump(ctr);
                }
            }
            self.force_tcg.insert(pc);
        }
        exec_event!(
            "quarantine",
            pc = pc,
            rules = newly.len(),
            repaired = culprit.is_some(),
            regs_ok = regs_ok,
            pc_ok = pc_ok,
            mem_ok = mem_ok
        );
        let mut victims = cx.cache.hitting(&newly);
        victims.extend(cx.cache.at(pc));
        let reason =
            if culprit.is_some() { InvalidateReason::Repair } else { InvalidateReason::Quarantine };
        cx.cache.invalidate(&victims, reason, cx.mem, cx.stats);
        // Adopt the interpreter's state: write its registers and flags
        // back into the env and take its memory.
        *cx.mem = store_guest(&mut rf.arm, true);
        if let Some(RunOutcome::Trap { .. }) = rf.end {
            // The reference trapped where the translated block ran on:
            // the corrected outcome of the run is the trap itself.
            cx.stats.bump(DbtCtr::Traps);
        }
        if let Some(end) = rf.end {
            return Err(end);
        }
        *cx.pc = rf.next_pc;
        Ok(false)
    }

    /// Attribute a watchdog divergence to a candidate set of rule
    /// applications by bisection replay: re-lower the divergent block
    /// with each application individually suppressed (its guest
    /// instructions forced onto the TCG path) and re-execute from the
    /// pre-dispatch snapshot. Every suppression that makes the
    /// divergence vanish yields a candidate `(hit index, Binding)` —
    /// usually exactly one, but a wrong write can be masked such that
    /// suppressing a neighbouring application also corrects the block;
    /// the caller splits such ties with the counterexample-gated repair.
    /// A single-application block needs no probing — its one rule is the
    /// only suspect.
    fn attribute(
        &self,
        cx: &GuardCx,
        hits: &[(usize, u64)],
        pre: &Memory,
        rf: &Reference,
    ) -> Option<Vec<(usize, Binding)>> {
        let (rules, pc) = (cx.rules.as_deref()?, rf.pc);
        let lower = |suppress| {
            let (set, lazy) = (&rules.rules, rules.lazy_flags);
            lower_block_with_rules_suppress(pre, &rf.block, set, lazy, self.fault, suppress)
        };
        let full = lower(None);
        let bail = |why: &'static str| {
            exec_event!("attr_bail", pc = pc, why = why);
            None
        };
        // Sanity: the replayed plan must be the plan the cached block
        // actually ran; anything else means the world changed under us
        // and attribution would blame the wrong application.
        if full.hits.as_slice() != hits {
            return bail("plan-mismatch");
        }
        if hits.len() == 1 {
            return Some(vec![(0, full.bindings[0].clone())]);
        }
        if hits.len() > ATTRIBUTION_MAX_HITS {
            return bail("too-many-applications");
        }
        let fixes = |k: &usize| probe_matches(&lower(Some(*k)).code, pre, rf);
        let candidates: Vec<(usize, Binding)> =
            (0..hits.len()).filter(fixes).map(|k| (k, full.bindings[k].clone())).collect();
        if candidates.is_empty() {
            return bail("no-suppression-fixes");
        }
        if candidates.len() > 1 {
            // Ambiguous bisection: more than one suppression fixes the
            // block. The caller disambiguates via the repair gate.
            exec_event!("attr_ambiguous", pc = pc, candidates = candidates.len());
        }
        Some(candidates)
    }

    /// Run the localize → re-verify → hot-publish repair loop for the
    /// attributed rule. Publication is gated on a full trial replay: the
    /// divergent block is re-lowered against a trial rule set holding the
    /// repaired rule and re-executed from the pre-dispatch snapshot; only
    /// a trial that matches the interpreter reference is published (via
    /// `RuleSet::replace` + `RuleSet::revive`, the key is unchanged).
    fn try_repair(
        &self,
        cx: &mut GuardCx,
        key: u64,
        binding: &Binding,
        pre: &Memory,
        rf: &Reference,
    ) -> bool {
        let (Some(rules), pc) = (cx.rules.as_deref_mut(), rf.pc) else { return false };
        let Some(quarantined) = rules.rules.find_by_key(key) else { return false };
        // The counterexample: the binding the block applied the rule
        // under, plus the registers the translated run got wrong.
        let divergent: Vec<(ArmReg, u32, u32)> = ArmReg::ALL
            .iter()
            .filter(|r| !matches!(r, ArmReg::Pc))
            .filter_map(|r| {
                let observed = cx.mem.read(ENV_BASE + reg_offset(*r), Width::W32);
                let expected = rf.arm.regs[r.index()];
                (observed != expected).then_some((*r, observed, expected))
            })
            .collect();
        let cex = Counterexample { block_pc: pc, binding: binding.clone(), divergent };
        let fail = |why: &'static str| {
            exec_event!("repair_fail", pc = pc, rule = key, why = why);
            false
        };
        let report = match ldbt_learn::repair(quarantined, &cex, &ldbt_learn::repair_budget()) {
            Ok(report) => report,
            Err(ldbt_learn::RepairFail::NoMappings) => return fail("no-mappings"),
            Err(ldbt_learn::RepairFail::NoCandidate { .. }) => return fail("no-candidate"),
        };
        // Trial replay gate: the repaired rule must make this very block
        // agree with the interpreter before it goes live.
        let mut trial = (*rules.rules).clone();
        if !trial.replace(key, report.rule.clone()) {
            return false;
        }
        trial.revive(key);
        let lazy = rules.lazy_flags;
        let low = lower_block_with_rules_suppress(pre, &rf.block, &trial, lazy, self.fault, None);
        if !probe_matches(&low.code, pre, rf) {
            return fail("trial-replay-mismatch");
        }
        // Hot-publish: overwrite the rule (same stable key), clear any
        // tombstone on it, and publish the result as a new shared
        // generation so other tenants re-translate with the repaired
        // rule instead of the divergent one.
        let rule = report.rule;
        if !rules.publish(move |rs| rs.replace(key, rule).then(|| rs.revive(key)).is_some()) {
            return false;
        }
        exec_event!("repair", pc = pc, rule = key, candidates = report.candidates_tried);
        true
    }
}

/// Interpreter reference run of `block` over the snapshot `pre`. The
/// reference stops at a trap like at a halt. A translated dispatch that
/// trapped never reaches the watchdog (the run returns first, like a
/// halt), so a reference trap here is itself a divergence to rewind.
fn reference_run(pre: Memory, pc: u32, block: GuestBlock) -> Reference {
    let mut rf = Reference { pc, block, arm: load_guest(pre), next_pc: pc, end: None };
    for (idx, instr) in rf.block.instrs.iter().enumerate() {
        let at = pc.wrapping_add(4 * idx as u32);
        rf.next_pc = at.wrapping_add(4);
        match step_guest(&mut rf.arm, instr, at) {
            Ok((_, false)) => continue,
            Ok((target, true)) => rf.next_pc = target,
            Err(end) => rf.end = Some(end),
        }
        break;
    }
    rf
}

/// Execute probe code from the pre-dispatch snapshot on a scratch
/// host state and compare the result against the interpreter
/// reference — the same surface the watchdog compares: env registers
/// r0–r14, the continuation pc, and guest memory.
fn probe_matches(code: &[X86Instr], pre: &Memory, rf: &Reference) -> bool {
    let mut st = X86State::new();
    st.mem = pre.clone();
    st.set_reg(Gpr::Esp, HOST_STACK_TOP);
    // The cycle model only feeds the scratch statistics.
    let (cost, mut scratch) = (CostModel::default(), ExecStats::new());
    let halted = rf.end == Some(RunOutcome::Halted);
    // A fresh lowering exits through `ret` stubs (no chaining), so
    // only `Returned` and `Halted` are well-formed probe exits.
    match run_seq(&mut st, code, PROBE_FUEL, &cost, &mut scratch) {
        SeqExit::Returned if !halted && st.reg(Gpr::Eax) == rf.next_pc => {}
        SeqExit::Halted if halted => {}
        _ => return false,
    }
    surface_matches(&st.mem, &rf.arm) == (true, true)
}
