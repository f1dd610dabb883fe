//! Rule-based block translation (paper §4 and §5).
//!
//! A guest block is scanned greedily for the *longest* contiguous
//! instruction sequence matching a learned rule (`RuleSet::longest_match`,
//! hash-bucketed by the mean guest opcode, filtered by the flag policy
//! below); matched sequences emit the rule's host template
//! directly — bypassing the TCG IR — while uncovered instructions fall
//! back to the TCG path. Rule host code cooperates with the translator's
//! register state the way the paper's prototype reuses TCG's allocator:
//! rule applications and TCG stretches are emitted into the *same*
//! `backend::Emitter`, whose guest-register homes, dirty bits and
//! flag-mode fact carry across every rule/TCG boundary of the block
//! (homes are written back at the block's exits, or when evicted) and
//! which declares every exit; this module only plans which rule applies
//! where.
//!
//! Condition codes follow §5: a rule's flag-setting host code leaves
//! guest-visible flags in the *host* EFLAGS; if guest flags are live out
//! of the block the translator appends the three-instruction lazy save
//! (`pushfd; popl env.hostflags; movl $mode, env.flagmode`), and
//! consumer stretches materialize the env NZCV slots through the
//! flag-mode dispatch stub in [`crate::backend`], whose module docs state
//! the protocol. A rule whose *unemulated* flags would be consumed
//! downstream is simply not applied (the paper's "lightweight analysis
//! at translation time"), and neither is one that would lazily save over
//! a live flag it does not write — both read off the block's one
//! `tcg::FlagLiveness`, the same pass the TCG front end prunes dead flag
//! updates with; every TCG stretch is translated under the liveness at
//! its own end.

use crate::backend::{Emitter, POOL};
use crate::tcg::{translate_span, BlockEnd, FlagLiveness, GuestBlock};
use ldbt_arm::{ArmInstr, ArmReg};
use ldbt_isa::Memory;
use ldbt_learn::rule::{Binding, RuleMatch};
use ldbt_learn::{FaultPlan, FaultSite, Rule, RuleSet};
use ldbt_x86::X86Instr;

/// The result of translating one block with rules.
#[derive(Debug, Clone)]
pub struct RuleLowering {
    /// The host code.
    pub code: Vec<X86Instr>,
    /// Per guest instruction: covered by a rule?
    pub covered: Vec<bool>,
    /// (length, stable rule key) of each rule application.
    pub hits: Vec<(usize, u64)>,
    /// The concrete binding of each rule application, parallel to
    /// `hits`. The watchdog's repair path reads these to rebuild the
    /// counterexample a divergent block was executing under.
    pub bindings: Vec<Binding>,
    /// Number of TCG micro-ops emitted for uncovered stretches (for the
    /// translation-overhead model).
    pub tcg_ops: usize,
    /// Number of rule host instructions emitted.
    pub rule_instrs: usize,
    /// Rule-match attempts (hash lookups) made.
    pub lookups: usize,
    /// Patchable direct exits as `(ret_index, target_pc)`, declared at
    /// emission time — the chainer must never infer exits from code
    /// shape (a rule body may legitimately end in `mov $imm, %eax; ret`
    /// lookalikes).
    pub exits: Vec<(usize, u32)>,
    /// Host instructions spent on rule/TCG boundaries.
    pub boundary_instrs: usize,
}

/// One planned rule application.
struct Planned<'r> {
    start: usize,
    m: RuleMatch<'r>,
    /// The rule's host code leaves guest flags in EFLAGS that are
    /// consumed after it: emit the §5 lazy save.
    flags_live_out: bool,
    /// Application index in the *unsuppressed* plan order — the identity
    /// `suppress` and the `rule-corrupt` clobber key on.
    index: usize,
}

/// Translate a guest block using the rule set with TCG fallback.
pub fn lower_block_with_rules(mem: &Memory, block: &GuestBlock, rules: &RuleSet) -> RuleLowering {
    lower_block_with_rules_suppress(mem, block, rules, true, None, None)
}

/// [`lower_block_with_rules`] in full.
///
/// `lazy_flags` is the §5 lazy host-flag save as a knob: with `false`,
/// rules whose guest flags are live out of the block are *not applied*
/// (the conservative ablation baseline).
///
/// `fault`: under `LDBT_FAULT=rule-corrupt:<seed>` the seed-th rule
/// application of each block has its host code clobbered after emission
/// (a deterministic wrong constant into the first defined register's
/// home), modeling a miscompiled/corrupted rule template for the watchdog
/// to catch.
///
/// `suppress` takes one rule application out of the plan (its guest
/// instructions take the TCG path instead). This is the watchdog's
/// attribution probe: re-lowering a divergent block with the k-th
/// application suppressed and replaying it against the interpreter
/// isolates which application caused the divergence. `suppress` indexes
/// applications in plan order — the same order `hits`/`bindings` report —
/// and the `rule-corrupt` clobber stays keyed to the *original* plan
/// index, so suppressing the clobbered application removes the clobber
/// with it (exactly what attribution needs to observe).
pub fn lower_block_with_rules_suppress(
    mem: &Memory,
    block: &GuestBlock,
    rules: &RuleSet,
    lazy_flags: bool,
    fault: Option<FaultPlan>,
    suppress: Option<usize>,
) -> RuleLowering {
    let corrupt_at = fault.filter(|f| f.site == FaultSite::RuleCorrupt).map(|f| f.seed as usize);
    let instrs = &block.instrs;
    let n = instrs.len();
    let live = FlagLiveness::of_block(mem, block);
    let mut out = RuleLowering {
        code: Vec::new(),
        covered: vec![false; n],
        hits: Vec::new(),
        bindings: Vec::new(),
        tcg_ops: 0,
        rule_instrs: 0,
        lookups: 0,
        exits: Vec::new(),
        boundary_instrs: 0,
    };

    // --- Plan: longest match at every position (paper §4), filtered by
    // the §5 flag policy. ---
    let mut plans: Vec<Planned> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let mut flags_live_out = false;
        let accept = |rule: &Rule, len: usize| {
            let (seq, rest) = instrs[i..].split_at(len);
            // A branch may only appear as the final instruction of both
            // the sequence and the block.
            if seq[..len - 1].iter().any(|x| x.is_block_end())
                || (seq[len - 1].is_block_end() && !rest.is_empty())
            {
                return false;
            }
            let written = seq.iter().fold(0, |w, x| w | x.flags_written());
            let writes_flags = written != 0;
            // Flags defined by the rule but *read via env* by a later
            // uncovered instruction cannot be seen (they live in host
            // EFLAGS): handled by only allowing flag-setting rules whose
            // flags are dead in-block after the rule (live-out uses the
            // lazy save instead).
            if writes_flags && !rule.has_branch && live.read_in_block(i + len) != 0 {
                return false;
            }
            // Guest flags read after the rule before being rewritten,
            // in this block or (conservatively) in its successors.
            let consumed = live.live_before(i + len);
            flags_live_out = writes_flags && consumed != 0;
            // §5 applicability: unemulated guest flags must not be
            // consumed downstream, and flags consumed after the rule need
            // the lazy save — on, and writing every consumed flag: the
            // consumer's stub materializes all four from the saved
            // EFLAGS, so a flag the rule passes through would be lost.
            rule.unemulated_flags & consumed == 0
                && (!flags_live_out || lazy_flags && consumed & !written == 0)
        };
        let (found, probes) = rules.longest_match(&instrs[i..], accept);
        out.lookups += probes;
        let Some(m) = found else {
            i += 1;
            continue;
        };
        let len = m.rule.len();
        out.covered[i..i + len].fill(true);
        plans.push(Planned { start: i, m, flags_live_out, index: plans.len() });
        i += len;
    }

    // --- Attribution probe: drop the suppressed application. ---
    if let Some(pos) = suppress.and_then(|k| plans.iter().position(|p| p.index == k)) {
        let p = plans.remove(pos);
        out.covered[p.start..p.start + p.m.rule.len()].fill(false);
    }

    // --- Emit: rule applications, TCG for the stretches between them,
    // all into one emitter. ---
    let mut em = Emitter::new(POOL.len());
    let end_pc = block.pc.wrapping_add(4 * n as u32);
    let (mut at, mut ended) = (0usize, false);
    for p in plans {
        let (start, rule, len) = (p.start, p.m.rule, p.m.rule.len());
        if at < start {
            emit_tcg(block, at..start, &live, &mut em, &mut out);
        }
        at = start + len;
        out.hits.push((len, p.m.key));
        // Every bound guest register without a home needs a free pool
        // register; homes of registers the rule does not bind make way.
        em.make_room(p.m.binding.actuals());
        // Which guest regs does the rule define? (for dirty marks)
        let defined: Vec<ArmReg> = instrs[start..at].iter().filter_map(|g| g.def()).collect();
        let host = rule.instantiate(&p.m.binding, |g| em.home(g));
        out.bindings.push(p.m.binding);
        // Split a trailing jcc off the template: the lazy flag
        // save and register writebacks must precede it (none of
        // them touch EFLAGS).
        let (body, tail_jcc) = match host.split_last() {
            Some((X86Instr::Jcc { cc, .. }, body)) if rule.has_branch => (body.to_vec(), Some(*cc)),
            _ => (host, None),
        };
        out.rule_instrs += body.len() + tail_jcc.is_some() as usize;
        em.extend(body);
        for d in &defined {
            em.mark_dirty(*d);
        }
        if corrupt_at == Some(p.index) {
            // Injected fault: clobber the first defined register's
            // home with a recognizably wrong constant.
            if let Some(home) = defined.iter().find_map(|d| em.home_of(*d)) {
                em.emit(X86Instr::mov_imm(home, 0x5a5a_5a5au32 as i32));
            }
        }
        if p.flags_live_out {
            em.lazy_flag_save();
        }
        if let Some(cc) = tail_jcc {
            // Terminal conditional branch: write everything back
            // (flag-safe movs), then branch between the two exits.
            let ArmInstr::B { offset, .. } = instrs[n - 1] else {
                unreachable!("branch rule must end on b")
            };
            em.exit_on_cc(cc, end_pc.wrapping_add((offset as u32).wrapping_mul(4)), end_pc);
            ended = true;
        }
    }
    if at < n {
        emit_tcg(block, at..n, &live, &mut em, &mut out);
        ended = true;
    }
    // If the block's last guest instruction was covered by a *non-branch*
    // rule (or the loop ended without a terminator segment), fall through
    // to the next PC.
    if !ended {
        em.exit(BlockEnd::Jump(end_pc));
    }
    let boundary_instrs = em.boundary_instrs;
    let low = em.finish();
    RuleLowering { code: low.code, exits: low.exits, boundary_instrs, ..out }
}

/// Emit the uncovered stretch `span` of `block` through the TCG path,
/// translated under the flags live where it ends. A mid-block stretch
/// falls through into the next rule application with its homes in
/// place; the final one ends the block with the block's terminator.
fn emit_tcg(
    block: &GuestBlock,
    span: std::ops::Range<usize>,
    live: &FlagLiveness,
    em: &mut Emitter,
    out: &mut RuleLowering,
) {
    let last = span.end == block.instrs.len();
    let pc = block.pc.wrapping_add(4 * span.start as u32);
    let live = FlagLiveness::with_live_out(&block.instrs[span.clone()], live.live_before(span.end));
    let tcg = translate_span(pc, &block.instrs[span], &live);
    debug_assert_eq!(tcg.unsupported_at, None, "prefiltered by engine");
    out.tcg_ops += tcg.ops.len();
    em.lower_ops(&tcg);
    if last {
        em.exit(tcg.end);
    }
}

/// Whether a block contains anything the rule translator cannot lower
/// (the engine then falls back entirely to TCG or the interpreter).
pub fn block_supported(block: &GuestBlock) -> bool {
    !block
        .instrs
        .iter()
        .any(|i| i.is_predicated() && matches!(i, ArmInstr::Ldr { .. } | ArmInstr::Str { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{load_guest, step_guest, FlagId, ENV_BASE, FLAGMODE_OFFSET, HOST_STACK_TOP};
    use ldbt_arm::{AddrMode, ArmState, Cond, DpOp, Operand2, Shift};
    use ldbt_isa::{CostModel, ExecStats, Width};
    use ldbt_learn::rule::{ImmParam, ImmRel, ImmSlot};
    use ldbt_x86::interp::{run_seq, SeqExit};
    use ldbt_x86::{AluOp, Cc, Gpr, Operand, X86Mem, X86State};
    use proptest::test_runner::TestRng;
    use ArmReg::*;

    fn figure1_rule() -> Rule {
        Rule {
            guest: vec![
                ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R0, ArmReg::R0, Operand2::Imm(5)),
            ],
            host: vec![X86Instr::Lea {
                dst: Gpr::Edx,
                addr: X86Mem { base: Some(Gpr::Edx), index: Some((Gpr::Ecx, 1)), disp: -5 },
            }],
            host_reg_of: [(Gpr::Edx, ArmReg::R0), (Gpr::Ecx, ArmReg::R1)].into_iter().collect(),
            imm_params: vec![ImmParam {
                guest_site: (1, ImmSlot::Data),
                extra_guest_sites: vec![],
                template_value: 5,
                host_sites: vec![(0, ImmSlot::MemOffset, ImmRel::Neg)],
            }],
            unemulated_flags: 0,
            has_branch: false,
        }
    }

    fn run(code: &[X86Instr], setup: impl FnOnce(&mut X86State)) -> (X86State, SeqExit) {
        let mut st = X86State::new();
        st.set_reg(Gpr::Esp, HOST_STACK_TOP);
        setup(&mut st);
        let mut stats = ExecStats::new();
        let exit = run_seq(&mut st, code, 10_000, &CostModel::default(), &mut stats);
        (st, exit)
    }

    fn set_guest(st: &mut X86State, r: ArmReg, v: u32) {
        st.mem.write(ENV_BASE + 4 * r.index() as u32, v, Width::W32);
    }

    fn guest(st: &X86State, r: ArmReg) -> u32 {
        st.mem.read(ENV_BASE + 4 * r.index() as u32, Width::W32)
    }

    #[test]
    fn fully_covered_block_uses_one_lea() {
        let mut rules = RuleSet::new();
        rules.insert(figure1_rule());
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
            ],
        };
        let mem = Memory::new();
        let low = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(low.covered, vec![true, true]);
        assert_eq!(low.hits.len(), 1);
        assert_eq!(low.hits[0].0, 2);
        assert!(low.code.iter().any(|i| matches!(i, X86Instr::Lea { .. })));
        // Execute and check the env.
        let (st, exit) = run(&low.code, |st| {
            set_guest(st, ArmReg::R4, 100);
            set_guest(st, ArmReg::R7, 30);
        });
        assert_eq!(exit, SeqExit::Returned);
        assert_eq!(st.reg(Gpr::Eax), 0x1_0008);
        assert_eq!(guest(&st, ArmReg::R4), 118);
        assert_eq!(guest(&st, ArmReg::R7), 30);
    }

    #[test]
    fn partial_coverage_mixes_tcg_and_rules() {
        let mut rules = RuleSet::new();
        rules.insert(figure1_rule());
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                // Uncovered: mvn has no rule.
                ArmInstr::dp(DpOp::Mvn, ArmReg::R2, ArmReg::R0, Operand2::Reg(ArmReg::R2)),
                ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(3)),
            ],
        };
        let mem = Memory::new();
        let low = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(low.covered, vec![false, true, true]);
        assert!(low.tcg_ops > 0);
        let (st, _) = run(&low.code, |st| {
            set_guest(st, ArmReg::R2, 0x0f0f_0f0f);
            set_guest(st, ArmReg::R4, 50);
            set_guest(st, ArmReg::R7, 8);
        });
        assert_eq!(guest(&st, ArmReg::R2), !0x0f0f_0f0f);
        assert_eq!(guest(&st, ArmReg::R4), 55);
    }

    /// A hand-checked rule over the template registers `r0`, `r1`, …,
    /// which its host template names as `POOL[0]`, `POOL[1]`, … (`%ecx`,
    /// `%edx`, …).
    fn rule(guest: Vec<ArmInstr>, host: Vec<X86Instr>, imm_params: Vec<ImmParam>) -> Rule {
        let regs = guest.iter().flat_map(|g| g.uses().into_iter().chain(g.def()));
        let n = regs.map(|r| r.index() + 1).max().unwrap_or(0);
        Rule {
            host_reg_of: POOL[..n].iter().copied().zip(ArmReg::ALL).collect(),
            has_branch: guest.last().is_some_and(|g| g.is_block_end()),
            guest,
            host,
            imm_params,
            unemulated_flags: 0,
        }
    }

    /// One immediate parameter shared by guest instruction 0 and host
    /// instruction 0, in `slot`.
    fn imm0(slot: ImmSlot, value: i64) -> Vec<ImmParam> {
        vec![ImmParam {
            guest_site: (0, slot),
            extra_guest_sites: vec![],
            template_value: value,
            host_sites: vec![(0, slot, ImmRel::Id)],
        }]
    }

    /// `cmp r0, r1; bne` ↦ `cmpl %edx, %ecx; jne`.
    fn cmp_bne_rule() -> Rule {
        rule(
            vec![ArmInstr::cmp(R0, Operand2::Reg(R1)), ArmInstr::B { offset: 0, cond: Cond::Ne }],
            vec![
                X86Instr::alu_rr(AluOp::Cmp, Gpr::Ecx, Gpr::Edx),
                X86Instr::Jcc { cc: Cc::Ne, target: 0 },
            ],
            vec![],
        )
    }

    /// `cmp r0, r1` ↦ `cmpl %edx, %ecx`: all four flags.
    fn cmp_rule() -> Rule {
        let host = vec![X86Instr::alu_rr(AluOp::Cmp, Gpr::Ecx, Gpr::Edx)];
        rule(vec![ArmInstr::cmp(R0, Operand2::Reg(R1))], host, vec![])
    }

    /// `ands r0, r0, r1` ↦ `andl %edx, %ecx`: N and Z only; C and V pass
    /// through the guest but not the host.
    fn ands_rule() -> Rule {
        let host = vec![X86Instr::alu_rr(AluOp::And, Gpr::Ecx, Gpr::Edx)];
        rule(vec![ArmInstr::dps(DpOp::And, R0, R0, Operand2::Reg(R1))], host, vec![])
    }

    /// The rules of the mixed-block tests: besides the three above, a
    /// move, an add, a load, a store, and one rule binding six registers
    /// — as many as the pool holds.
    fn mixed_rules() -> RuleSet {
        let mem4 = |r: Gpr| X86Mem { base: Some(r), index: None, disp: 4 };
        let sum = |a: Gpr, b: Gpr| X86Mem { base: Some(a), index: Some((b, 1)), disp: 0 };
        let mut rules = RuleSet::new();
        for r in [
            cmp_bne_rule(),
            cmp_rule(),
            ands_rule(),
            rule(
                vec![ArmInstr::mov(R0, Operand2::Imm(1))],
                vec![X86Instr::mov_imm(Gpr::Ecx, 1)],
                imm0(ImmSlot::Data, 1),
            ),
            rule(
                vec![ArmInstr::dp(DpOp::Add, R0, R0, Operand2::Reg(R1))],
                vec![X86Instr::alu_rr(AluOp::Add, Gpr::Ecx, Gpr::Edx)],
                vec![],
            ),
            rule(
                vec![ArmInstr::ldr(R0, AddrMode::Imm(R1, 4))],
                vec![X86Instr::Mov {
                    dst: Operand::Reg(Gpr::Ecx),
                    src: Operand::Mem(mem4(Gpr::Edx)),
                }],
                imm0(ImmSlot::MemOffset, 4),
            ),
            rule(
                vec![ArmInstr::str(R0, AddrMode::Imm(R1, 4))],
                vec![X86Instr::Mov {
                    dst: Operand::Mem(mem4(Gpr::Edx)),
                    src: Operand::Reg(Gpr::Ecx),
                }],
                imm0(ImmSlot::MemOffset, 4),
            ),
            rule(
                vec![
                    ArmInstr::dp(DpOp::Add, R0, R1, Operand2::Reg(R2)),
                    ArmInstr::dp(DpOp::Add, R3, R4, Operand2::Reg(R5)),
                ],
                vec![
                    X86Instr::Lea { dst: Gpr::Ecx, addr: sum(Gpr::Edx, Gpr::Ebx) },
                    X86Instr::Lea { dst: Gpr::Esi, addr: sum(Gpr::Edi, Gpr::Ebp) },
                ],
                vec![],
            ),
        ] {
            rules.insert(r);
        }
        rules
    }

    /// Base of the data area the generated blocks load from and store to
    /// (through `r6`, which they never write).
    const DATA: u32 = 0x8000;

    /// Run one block on both sides — `code`, its translation, on `st`,
    /// the ARM interpreter on `arm` — and compare everything guest
    /// visible: the next pc, every guest register, NZCV as the env
    /// materializes it (flag-mode included), and the data area.
    fn run_both(st: &mut X86State, arm: &mut ArmState, code: &[X86Instr], block: &GuestBlock) {
        let what = format!("{:x?} -> {code:?}", block.instrs);
        let mut stats = ExecStats::new();
        let exit = run_seq(st, code, 100_000, &CostModel::default(), &mut stats);
        assert_eq!(exit, SeqExit::Returned, "{what}");
        let mut next = block.pc;
        for (k, i) in block.instrs.iter().enumerate() {
            next = step_guest(arm, i, block.pc + 4 * k as u32).expect("no trap").0;
        }
        assert_eq!(st.reg(Gpr::Eax), next, "next pc of {what}");
        for r in ArmReg::ALL.into_iter().filter(|r| *r != Pc) {
            assert_eq!(guest(st, r), arm.reg(r), "{r} after {what}");
        }
        assert_eq!(load_guest(st.mem.clone()).flags, arm.flags, "NZCV after {what}");
        for a in (DATA..DATA + 64).step_by(4) {
            assert_eq!(st.mem.read(a, Width::W32), arm.mem.read(a, Width::W32), "{a:#x}: {what}");
        }
    }

    /// An x86 state and an ARM state holding the same guest state.
    fn twin_states(regs: [u32; 15], flags: ldbt_arm::Flags) -> (X86State, ArmState) {
        let mut st = X86State::new();
        st.set_reg(Gpr::Esp, HOST_STACK_TOP);
        let mut arm = ArmState::new();
        for (r, v) in ArmReg::ALL.into_iter().zip(regs) {
            set_guest(&mut st, r, v);
            arm.set_reg(r, v);
        }
        for (f, on) in
            [(FlagId::N, flags.n), (FlagId::Z, flags.z), (FlagId::C, flags.c), (FlagId::V, flags.v)]
        {
            st.mem.write(ENV_BASE + f.offset(), on as u32, Width::W32);
        }
        arm.flags = flags;
        for a in (DATA..DATA + 64).step_by(4) {
            st.mem.write(a, a.wrapping_mul(0x9e37_79b9), Width::W32);
            arm.mem.write(a, a.wrapping_mul(0x9e37_79b9), Width::W32);
        }
        (st, arm)
    }

    /// A rule that writes only N and Z must not lazily save while C or V
    /// is consumed after it: the consumer's stub materializes all four
    /// flags from the saved EFLAGS, and `andl` clears OF where the guest
    /// kept V.
    #[test]
    fn lazy_save_never_overwrites_a_flag_the_rule_passes_through() {
        let mut rules = RuleSet::new();
        rules.insert(ands_rule());
        // `ands r4, r4, r5; b 0x2_0000`, and there `bvs`.
        let ands = ArmInstr::dps(DpOp::And, R4, R4, Operand2::Reg(R5));
        let head = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![ands, ArmInstr::B { offset: (0x2_0000 - 0x1_0008) / 4, cond: Cond::Al }],
        };
        let bvs =
            GuestBlock { pc: 0x2_0000, instrs: vec![ArmInstr::B { offset: 4, cond: Cond::Vs }] };
        let mut mem = Memory::new();
        mem.write(bvs.pc, ldbt_arm::encode::encode(&bvs.instrs[0]).unwrap(), Width::W32);
        let low = lower_block_with_rules(&mem, &head, &rules);
        let tail = crate::backend::lower_block(&crate::tcg::translate_block(&mem, &bvs));
        let mut regs = [0; 15];
        (regs[4], regs[5]) = (0xff, 0x0f);
        let (mut st, mut arm) =
            twin_states(regs, ldbt_arm::Flags { n: false, z: false, c: true, v: true });
        run_both(&mut st, &mut arm, &low.code, &head);
        run_both(&mut st, &mut arm, &tail.code, &bvs);
        assert_eq!(st.reg(Gpr::Eax), 0x2_0014, "V survives: bvs taken");
        assert_eq!(low.covered, vec![false, false], "C and V are consumed: no lazy save");
    }

    /// A TCG stretch that writes some flags after a lazily saved rule
    /// must materialize the saved ones first: its flag-mode store makes
    /// every env slot authoritative, the ones it passes through included.
    #[test]
    fn partial_flag_writer_after_a_lazy_save_materializes_first() {
        let mut rules = RuleSet::new();
        rules.insert(cmp_rule());
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::cmp(R5, Operand2::Reg(R6)),
                ArmInstr::dps(DpOp::And, R1, R1, Operand2::Reg(R2)),
                ArmInstr::B { offset: 0, cond: Cond::Al },
            ],
        };
        let low = lower_block_with_rules(&Memory::new(), &block, &rules);
        assert_eq!(low.covered, vec![true, false, false]);
        assert!(low.code.contains(&X86Instr::Pushfd), "the cmp rule saves lazily");
        let mut regs = [0; 15];
        (regs[1], regs[2], regs[5], regs[6]) = (0xf0, 0x0f, 1, 2);
        let (mut st, mut arm) =
            twin_states(regs, ldbt_arm::Flags { n: false, z: false, c: true, v: true });
        run_both(&mut st, &mut arm, &low.code, &block);
        assert_eq!(st.mem.read(ENV_BASE + FLAGMODE_OFFSET, Width::W32), 0);
    }

    /// Seeded blocks that interleave rule applications and TCG stretches,
    /// run back to back against the ARM interpreter (see [`run_both`]).
    /// The generator must reach four cases: a dirty home in `%ecx` the
    /// flag stub evicts, a rule evicting homes to make room, a lazy save
    /// before a stretch that materializes it, and a branch rule ending a
    /// block.
    #[test]
    fn mixed_blocks_match_the_interpreter() {
        let rules = mixed_rules();
        let mut rng = TestRng::deterministic("mixed_blocks_match_the_interpreter");
        let mut below = move |n: usize| (rng.next_u64() % n as u64) as usize;
        let data = [R0, R1, R2, R3, R4, R5, R7, R8, R9, R10, R11];
        let wide = [
            ArmInstr::dp(DpOp::Add, R0, R1, Operand2::Reg(R2)),
            ArmInstr::dp(DpOp::Add, R3, R4, Operand2::Reg(R5)),
        ];
        let wide = rules.longest_match(&wide, |_, _| true).0.expect("the wide rule").key;
        let cmp_bne = cmp_bne_rule().stable_key();
        let is_home_slot = |m: X86Mem| ArmReg::ALL.iter().any(|g| m == crate::env::reg_mem(*g));
        let mut seen = [0usize; 4];
        for _ in 0..300 {
            let mut regs = [0u32; 15];
            for (k, r) in regs.iter_mut().enumerate() {
                *r = (below(1 << 16) as u32).wrapping_mul(0x1_0001).wrapping_add(k as u32);
            }
            regs[6] = DATA;
            let bit = |b: usize| b & 1 != 0;
            let f = below(16);
            let flags =
                ldbt_arm::Flags { n: bit(f >> 3), z: bit(f >> 2), c: bit(f >> 1), v: bit(f) };
            let (mut st, mut arm) = twin_states(regs, flags);
            let mut saved_at_exit = false;
            for b in 0..6 {
                let mut instrs = Vec::new();
                for _ in 0..1 + below(6) {
                    instrs.extend(gen_shape(&mut below, &data));
                }
                instrs.extend(match below(4) {
                    0 => vec![ArmInstr::B { offset: 5, cond: Cond::Al }],
                    1 => vec![ArmInstr::B { offset: 5, cond: Cond::ALL[below(14)] }],
                    _ => {
                        let (a, c) = (data[below(11)], data[below(11)]);
                        vec![
                            ArmInstr::cmp(a, Operand2::Reg(c)),
                            ArmInstr::B { offset: 5, cond: Cond::Ne },
                        ]
                    }
                });
                let block = GuestBlock { pc: 0x1_0000 + 0x100 * b, instrs };
                let low = lower_block_with_rules(&Memory::new(), &block, &rules);
                let code = &low.code;
                // Which cases this block exercises.
                let stub_at = |i: usize| {
                    matches!(code[i], X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Mem(m), .. }
                        if m == crate::env::env_mem(FLAGMODE_OFFSET))
                };
                let stub = (0..code.len()).find(|&i| stub_at(i));
                let save = code.iter().position(|i| *i == X86Instr::Pushfd);
                seen[0] += stub.is_some_and(|i| {
                    i > 0 && matches!(code[i - 1], X86Instr::Mov { dst: Operand::Mem(m), src: Operand::Reg(Gpr::Ecx) } if is_home_slot(m))
                }) as usize;
                seen[1] +=
                    low.hits.iter().any(|h| h.1 == wide) as usize * (!low.covered[0]) as usize;
                seen[2] += (stub.is_some()
                    && (saved_at_exit || save.is_some_and(|s| Some(s) < stub)))
                    as usize;
                seen[3] += low.hits.iter().any(|h| h.1 == cmp_bne) as usize;
                saved_at_exit = save.is_some() && stub.is_none_or(|i| save > Some(i));
                run_both(&mut st, &mut arm, code, &block);
            }
        }
        assert!(seen.iter().all(|n| *n > 0), "cases reached: {seen:?}");
    }

    /// One instruction shape of the mixed-block generator: the guest
    /// side of a rule over random registers, or anything the TCG path
    /// takes (flag setters, flag readers, predicated moves, carries).
    fn gen_shape(below: &mut impl FnMut(usize) -> usize, data: &[ArmReg; 11]) -> Vec<ArmInstr> {
        let mut reg = || data[below(11)];
        let (a, b, c) = (reg(), reg(), reg());
        let off = 4 * below(16) as i32;
        match below(12) {
            0 => vec![ArmInstr::mov(a, Operand2::Imm(below(256) as u32))],
            1 => vec![ArmInstr::dp(DpOp::Add, a, a, Operand2::Reg(b))],
            2 => vec![ArmInstr::cmp(a, Operand2::Reg(b))],
            3 => vec![ArmInstr::dps(DpOp::And, a, a, Operand2::Reg(b))],
            4 => vec![ArmInstr::ldr(a, AddrMode::Imm(R6, off))],
            5 => vec![ArmInstr::str(a, AddrMode::Imm(R6, off))],
            6 => {
                // Six distinct registers, as the wide rule needs.
                let mut six = Vec::new();
                while six.len() < 6 {
                    let r = data[below(11)];
                    if !six.contains(&r) {
                        six.push(r);
                    }
                }
                vec![
                    ArmInstr::dp(DpOp::Add, six[0], six[1], Operand2::Reg(six[2])),
                    ArmInstr::dp(DpOp::Add, six[3], six[4], Operand2::Reg(six[5])),
                ]
            }
            k => {
                let op = DpOp::ALL[below(15)];
                let op2 = match below(3) {
                    0 => Operand2::Imm(below(256) as u32),
                    1 => Operand2::Reg(b),
                    _ => Operand2::RegShift(b, Shift::Lsr(1 + below(31) as u8)),
                };
                let cond = if k == 7 { Cond::ALL[below(14)] } else { Cond::Al };
                vec![ArmInstr::Dp { op, rd: a, rn: c, op2, set_flags: below(2) == 0, cond }]
            }
        }
    }

    #[test]
    fn branch_rule_emits_two_exits() {
        let mut rules = RuleSet::new();
        rules.insert(cmp_bne_rule());
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::cmp(ArmReg::R5, Operand2::Reg(ArmReg::R6)),
                ArmInstr::B { offset: 3, cond: Cond::Ne },
            ],
        };
        let mem = Memory::new();
        let low = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(low.covered, vec![true, true]);
        let (st, _) = run(&low.code, |st| {
            set_guest(st, ArmReg::R5, 1);
            set_guest(st, ArmReg::R6, 2);
        });
        assert_eq!(st.reg(Gpr::Eax), 0x1_0008 + 12, "taken");
        let (st2, _) = run(&low.code, |st| {
            set_guest(st, ArmReg::R5, 2);
            set_guest(st, ArmReg::R6, 2);
        });
        assert_eq!(st2.reg(Gpr::Eax), 0x1_0008, "not taken");
        // The flag save must be present: successors are unknown code
        // (zeroed memory decodes as flag-unknown), so flags are live-out.
        assert!(low.code.iter().any(|i| matches!(i, X86Instr::Pushfd)));
    }

    #[test]
    fn longest_match_preferred() {
        // Both a 2-instruction rule and a 1-instruction rule apply at
        // index 0; the longer must win.
        let mut rules = RuleSet::new();
        rules.insert(figure1_rule());
        rules.insert(Rule {
            guest: vec![ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1))],
            host: vec![X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx)],
            host_reg_of: [(Gpr::Edx, ArmReg::R0), (Gpr::Ecx, ArmReg::R1)].into_iter().collect(),
            imm_params: vec![],
            unemulated_flags: 0,
            has_branch: false,
        });
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(9)),
            ],
        };
        let mem = Memory::new();
        let low = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(low.hits.len(), 1);
        assert_eq!(low.hits[0].0, 2, "longest match wins");
    }

    #[test]
    fn unemulated_flags_block_application() {
        // A rule with C unemulated must not apply when a later in-block
        // instruction reads C.
        let mut rules = RuleSet::new();
        rules.insert(Rule {
            guest: vec![ArmInstr::dps(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Imm(1))],
            host: vec![X86Instr::Un { op: ldbt_x86::UnOp::Inc, dst: Operand::Reg(Gpr::Ecx) }],
            host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
            imm_params: vec![],
            unemulated_flags: 0b0010, // C
            has_branch: false,
        });
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::dps(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Imm(1)),
                // adc reads the carry the rule cannot produce.
                ArmInstr::dp(DpOp::Adc, ArmReg::R5, ArmReg::R5, Operand2::Imm(0)),
            ],
        };
        let mem = Memory::new();
        let low = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(low.covered, vec![false, false], "rule must be skipped");
    }

    #[test]
    fn mixed_block_correctness_against_interpreter() {
        // An uncovered mvn, a rule-covered pair, then a store, an eor, a
        // compare and a conditional branch: two TCG stretches separated
        // by a rule application.
        let mut rules = RuleSet::new();
        rules.insert(figure1_rule());
        let instrs = vec![
            ArmInstr::dp(DpOp::Mvn, ArmReg::R3, ArmReg::R0, Operand2::Reg(ArmReg::R0)),
            ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R1, ArmReg::R1, Operand2::Imm(7)),
            ArmInstr::str(ArmReg::R1, ldbt_arm::AddrMode::Imm(ArmReg::R6, 4)),
            ArmInstr::dp(DpOp::Eor, ArmReg::R2, ArmReg::R1, Operand2::Imm(0xff)),
            ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
            ArmInstr::B { offset: 3, cond: Cond::Ne },
        ];
        let block = GuestBlock { pc: 0x1_0000, instrs: instrs.clone() };
        let mem = Memory::new();
        let low = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(low.covered, vec![false, true, true, false, false, false, false]);
        let setup = |st: &mut X86State| {
            set_guest(st, ArmReg::R0, 11);
            set_guest(st, ArmReg::R1, 100);
            set_guest(st, ArmReg::R6, 0x8000);
        };
        let (st, exit) = run(&low.code, setup);
        assert_eq!(exit, SeqExit::Returned);
        // Reference: the ARM interpreter.
        let mut arm = ldbt_arm::ArmState::new();
        arm.set_reg(ArmReg::R0, 11);
        arm.set_reg(ArmReg::R1, 100);
        arm.set_reg(ArmReg::R6, 0x8000);
        for i in &instrs {
            arm.exec(i);
        }
        assert_eq!(guest(&st, ArmReg::R1), arm.reg(ArmReg::R1));
        assert_eq!(guest(&st, ArmReg::R2), arm.reg(ArmReg::R2));
        assert_eq!(st.mem.read(0x8004, Width::W32), arm.mem.read(0x8004, Width::W32));
        // The block declares exactly the exits of its last segment: the
        // branch's two arms, each a `mov $pc, %eax; ret` — the first
        // stretch fell through into the rule and left no stub behind.
        let end_pc = 0x1_0000 + 4 * instrs.len() as u32;
        let targets: Vec<u32> = low.exits.iter().map(|&(_, pc)| pc).collect();
        assert_eq!(targets, vec![end_pc, end_pc + 12]);
        for &(at, pc) in &low.exits {
            assert_eq!(low.code[at], X86Instr::Ret);
            assert_eq!(low.code[at - 1], X86Instr::mov_imm(Gpr::Eax, pc as i32));
        }
        let rets = low.code.iter().filter(|i| matches!(i, X86Instr::Ret)).count();
        assert_eq!(rets, low.exits.len(), "every ret is a declared exit: {:?}", low.code);
        // And it executes identically to the plain TCG lowering: same
        // exit, same next pc, same guest registers, flags and memory.
        let tcg = crate::backend::lower_block(&crate::tcg::translate_block(&mem, &block));
        assert_eq!(tcg.exits.iter().map(|&(_, pc)| pc).collect::<Vec<_>>(), targets);
        let (want, want_exit) = run(&tcg.code, setup);
        assert_eq!(exit, want_exit);
        assert_eq!(st.reg(Gpr::Eax), want.reg(Gpr::Eax), "next pc");
        for r in ArmReg::ALL {
            assert_eq!(guest(&st, r), guest(&want, r), "{r}");
        }
        for f in [FlagId::N, FlagId::Z, FlagId::C, FlagId::V] {
            let slot = ENV_BASE + f.offset();
            assert_eq!(st.mem.read(slot, Width::W32), want.mem.read(slot, Width::W32), "{f:?}");
        }
        assert_eq!(st.mem.read(0x8004, Width::W32), want.mem.read(0x8004, Width::W32));
    }

    #[test]
    fn suppressed_application_falls_back_to_tcg() {
        let mut rules = RuleSet::new();
        rules.insert(figure1_rule());
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
            ],
        };
        let mem = Memory::new();
        let full = lower_block_with_rules(&mem, &block, &rules);
        assert_eq!(full.hits.len(), 1);
        assert_eq!(full.bindings.len(), full.hits.len(), "bindings parallel hits");
        assert_eq!(full.bindings[0].reg(ArmReg::R0), Some(ArmReg::R4));
        let probe = lower_block_with_rules_suppress(&mem, &block, &rules, true, None, Some(0));
        assert_eq!(probe.hits.len(), 0, "suppressed application emits no rule");
        assert!(probe.bindings.is_empty());
        assert_eq!(probe.covered, vec![false, false]);
        assert!(probe.tcg_ops > 0, "suppressed stretch takes the TCG path");
        // Both lowerings compute the same guest state.
        for low in [&full, &probe] {
            let (st, exit) = run(&low.code, |st| {
                set_guest(st, ArmReg::R4, 100);
                set_guest(st, ArmReg::R7, 30);
            });
            assert_eq!(exit, SeqExit::Returned);
            assert_eq!(st.reg(Gpr::Eax), 0x1_0008);
            assert_eq!(guest(&st, ArmReg::R4), 118);
        }
        // Suppressing an index that does not exist changes nothing.
        let noop = lower_block_with_rules_suppress(&mem, &block, &rules, true, None, Some(7));
        assert_eq!(noop.hits.len(), 1);
    }

    /// The scratch-register invariant (see backend.rs and sb.rs): rule
    /// glue loads every host register the rule body reads from the env
    /// before use, so rule-covered blocks — fully covered, partially
    /// covered, or branch-covered — depend on nothing from host entry
    /// state but %esp. The superblock optimizer's cross-seam liveness
    /// assumes exactly this.
    #[test]
    fn rule_lowered_blocks_read_no_host_entry_state() {
        let mut rules = RuleSet::new();
        rules.insert(figure1_rule());
        let shapes: Vec<(&str, Vec<ArmInstr>)> = vec![
            (
                "fully covered",
                vec![
                    ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                    ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
                ],
            ),
            (
                "partially covered",
                vec![
                    ArmInstr::dp(DpOp::Mvn, ArmReg::R2, ArmReg::R0, Operand2::Reg(ArmReg::R2)),
                    ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                    ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(3)),
                ],
            ),
        ];
        for (name, instrs) in shapes {
            let block = GuestBlock { pc: 0x1_0000, instrs };
            let mem = Memory::new();
            let low = lower_block_with_rules(&mem, &block, &rules);
            let (regs, flags) = crate::sb::entry_reads(&low.code);
            assert_eq!(regs & !(1 << Gpr::Esp.index()), 0, "{name}: reads host regs {regs:#010b}");
            assert_eq!(flags, 0, "{name}: reads host EFLAGS {flags:#06b}");
        }
    }
}
