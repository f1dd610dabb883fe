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
//! `backend::Emitter`, which owns the guest-register homes
//! (loaded on demand, written back at boundaries) and declares every
//! exit; this module only plans which rule applies where.
//!
//! Condition codes follow §5: a rule's flag-setting host code leaves
//! guest-visible flags in the *host* EFLAGS; if guest flags are live out
//! of the block the translator appends the three-instruction lazy save
//! (`pushfd; popl env.hostflags; movl $mode, env.flagmode`), and
//! consumer blocks materialize the env NZCV slots through the flag-mode
//! dispatch stub in [`crate::backend`]. A rule whose *unemulated* flags
//! would be consumed downstream is simply not applied (the paper's
//! "lightweight analysis at translation time") — read off the block's
//! one `tcg::FlagLiveness`, the same pass the TCG front end
//! prunes dead flag updates with.

use crate::backend::{Emitter, POOL};
use crate::env::{env_mem, FLAGMODE_OFFSET, HOSTFLAGS_OFFSET};
use crate::tcg::{translate_span, BlockEnd, FlagLiveness, GuestBlock};
use ldbt_arm::{ArmInstr, ArmReg};
use ldbt_isa::Memory;
use ldbt_learn::rule::{Binding, RuleMatch};
use ldbt_learn::{FaultPlan, FaultSite, Rule, RuleSet};
use ldbt_x86::{Operand, X86Instr};

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
            let writes_flags = seq.iter().any(|x| x.flags_written() != 0);
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
            // consumed downstream; without the lazy save, none may.
            rule.unemulated_flags & consumed == 0 && (lazy_flags || !flags_live_out)
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
        // register (only their number matters, not the binding's order).
        if !em.fits(p.m.binding.regs.values().copied()) {
            // Very wide rule with a full home table: flush and
            // restart the table (rare).
            em.flush();
        }
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
            // The 3-instruction lazy save of paper §5.
            em.emit(X86Instr::Pushfd);
            em.emit(X86Instr::Pop { dst: Operand::Mem(env_mem(HOSTFLAGS_OFFSET)) });
            em.emit(X86Instr::Mov {
                dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
                src: Operand::Imm(1), // bit1 = 0: sub carry polarity
            });
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
    let low = em.finish();
    RuleLowering { code: low.code, exits: low.exits, ..out }
}

/// Emit the uncovered stretch `span` of `block` through the TCG path.
fn emit_tcg(
    block: &GuestBlock,
    span: std::ops::Range<usize>,
    live: &FlagLiveness,
    em: &mut Emitter,
    out: &mut RuleLowering,
) {
    // Flush rule homes: the TCG stretch works env-to-env.
    em.flush();
    let last = span.end == block.instrs.len();
    // The final stretch ends where the block does and shares its
    // live-out flags; a mid-block one conservatively leaves all live.
    let pc = block.pc.wrapping_add(4 * span.start as u32);
    let instrs = &block.instrs[span];
    let live = FlagLiveness::with_live_out(instrs, if last { live.live_out } else { 0b1111 });
    let tcg = translate_span(pc, instrs, &live);
    debug_assert_eq!(tcg.unsupported_at, None, "prefiltered by engine");
    out.tcg_ops += tcg.ops.len();
    em.lower_ops(&tcg);
    if last {
        // Final segment: its terminator is the block's, declared exits
        // and all.
        em.exit(tcg.end);
    } else {
        // Mid-block segment: no exit stub (fall through into the next
        // segment), but its homes go back to env — the other half of
        // the rule/TCG boundary flush.
        em.flush();
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
    use crate::env::{FlagId, ENV_BASE, HOST_STACK_TOP};
    use ldbt_arm::{Cond, DpOp, Operand2};
    use ldbt_isa::{CostModel, ExecStats, Width};
    use ldbt_learn::rule::{ImmParam, ImmRel, ImmSlot};
    use ldbt_x86::interp::{run_seq, SeqExit};
    use ldbt_x86::{AluOp, Cc, Gpr, X86Mem, X86State};

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

    #[test]
    fn branch_rule_emits_two_exits() {
        let mut rules = RuleSet::new();
        rules.insert(Rule {
            guest: vec![
                ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
                ArmInstr::B { offset: 0, cond: Cond::Ne },
            ],
            host: vec![
                X86Instr::alu_rr(AluOp::Cmp, Gpr::Ecx, Gpr::Edx),
                X86Instr::Jcc { cc: Cc::Ne, target: 0 },
            ],
            host_reg_of: [(Gpr::Ecx, ArmReg::R2), (Gpr::Edx, ArmReg::R3)].into_iter().collect(),
            imm_params: vec![],
            unemulated_flags: 0,
            has_branch: true,
        });
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
        assert_eq!(full.bindings[0].regs[&ArmReg::R0], ArmReg::R4);
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
