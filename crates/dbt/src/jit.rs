//! The HQEMU-style optimizing backend.
//!
//! Models a DBT that feeds its IR through a heavyweight JIT (the paper's
//! comparison system routes TCG ops through LLVM). The TCG stream is
//! cleaned up — guest-register forwarding, redundant put elimination,
//! copy propagation, constant folding, local CSE, dead-code elimination —
//! before lowering with the normal backend. The engine charges a much
//! higher translation cost for this path, which is what makes the
//! short-running-workload comparison of Figure 8 come out the way it
//! does.

use crate::backend::{lower_block_pool, LoweredBlock, POOL};
use crate::env::FlagId;
use crate::tcg::{TcgAlu, TcgBlock, TcgOp, Temp};
use ldbt_arm::ArmReg;
use std::collections::HashMap;

/// Optimize a TCG stream (in place, returning the new op vector).
pub fn optimize_ops(ops: &[TcgOp]) -> Vec<TcgOp> {
    let mut out: Vec<TcgOp> = Vec::with_capacity(ops.len());
    // Forwarding state.
    let mut reg_val: HashMap<ArmReg, Temp> = HashMap::new();
    let mut flag_val: HashMap<FlagId, Temp> = HashMap::new();
    let mut copy_of: HashMap<Temp, Temp> = HashMap::new();
    let mut const_of: HashMap<Temp, u32> = HashMap::new();
    let mut cse: HashMap<(TcgAlu, Temp, u32), Temp> = HashMap::new();

    let resolve = |t: Temp, copy_of: &HashMap<Temp, Temp>| -> Temp {
        let mut cur = t;
        while let Some(n) = copy_of.get(&cur) {
            cur = *n;
        }
        cur
    };

    for op in ops {
        let mut op = *op;
        // Rewrite uses through copies.
        match &mut op {
            TcgOp::Mov(_, s)
            | TcgOp::AluI(_, _, s, _)
            | TcgOp::Not(_, s)
            | TcgOp::Neg(_, s)
            | TcgOp::PutReg(_, s)
            | TcgOp::PutFlag(_, s) => *s = resolve(*s, &copy_of),
            TcgOp::Alu(_, _, a, b) | TcgOp::Setc(_, _, a, b) => {
                *a = resolve(*a, &copy_of);
                *b = resolve(*b, &copy_of);
            }
            TcgOp::Load(_, a, _, _) => *a = resolve(*a, &copy_of),
            TcgOp::Store(s, a, _) => {
                *s = resolve(*s, &copy_of);
                *a = resolve(*a, &copy_of);
            }
            _ => {}
        }
        match op {
            TcgOp::GetReg(d, g) => {
                if let Some(v) = reg_val.get(&g) {
                    copy_of.insert(d, *v);
                } else {
                    reg_val.insert(g, d);
                    out.push(op);
                }
            }
            TcgOp::PutReg(g, s) => {
                reg_val.insert(g, s);
                out.push(op); // later dead-put pass removes shadowed ones
            }
            TcgOp::GetFlag(d, f) => {
                if let Some(v) = flag_val.get(&f) {
                    copy_of.insert(d, *v);
                } else {
                    flag_val.insert(f, d);
                    out.push(op);
                }
            }
            TcgOp::PutFlag(f, s) => {
                flag_val.insert(f, s);
                out.push(op);
            }
            TcgOp::Mov(d, s) => {
                copy_of.insert(d, s);
            }
            TcgOp::MovI(d, v) => {
                const_of.insert(d, v);
                out.push(op);
            }
            TcgOp::Alu(aop, d, a, b) => {
                // Constant-fold register operand b into an immediate form.
                if let Some(vb) = const_of.get(&b).copied() {
                    let key = (aop, a, vb);
                    if let Some(prev) = cse.get(&key) {
                        copy_of.insert(d, *prev);
                    } else {
                        cse.insert(key, d);
                        out.push(TcgOp::AluI(aop, d, a, vb));
                    }
                } else {
                    out.push(op);
                }
            }
            TcgOp::AluI(aop, d, a, imm) => {
                let key = (aop, a, imm);
                if let Some(prev) = cse.get(&key) {
                    copy_of.insert(d, *prev);
                } else {
                    cse.insert(key, d);
                    out.push(op);
                }
            }
            TcgOp::Store(_, _, _) => {
                out.push(op);
            }
            _ => out.push(op),
        }
    }

    // Dead-put elimination: only the last Put per register/flag survives.
    let mut seen_reg: HashMap<ArmReg, usize> = HashMap::new();
    let mut seen_flag: HashMap<FlagId, usize> = HashMap::new();
    let mut keep = vec![true; out.len()];
    for (i, op) in out.iter().enumerate() {
        match op {
            TcgOp::PutReg(g, _) => {
                if let Some(prev) = seen_reg.insert(*g, i) {
                    keep[prev] = false;
                }
            }
            TcgOp::PutFlag(f, _) => {
                if let Some(prev) = seen_flag.insert(*f, i) {
                    keep[prev] = false;
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<TcgOp> =
        out.into_iter().zip(keep).filter_map(|(o, k)| k.then_some(o)).collect();

    // DCE: remove defs never used (iterate to fixpoint).
    loop {
        let mut used: HashMap<Temp, usize> = HashMap::new();
        for o in &out {
            for u in o.uses() {
                *used.entry(u).or_insert(0) += 1;
            }
        }
        let before = out.len();
        out.retain(|o| match o {
            TcgOp::PutReg(_, _) | TcgOp::PutFlag(_, _) | TcgOp::Store(_, _, _) => true,
            TcgOp::Load(d, _, _, _) => used.contains_key(d), // loads are side-effect free here
            other => match other.def() {
                Some(d) => used.contains_key(&d),
                None => true,
            },
        });
        if out.len() == before {
            break;
        }
    }
    out
}

/// Pool registers the JIT path lowers with: the narrower pool models the
/// extra spills the paper attributes to LLVM keeping a copy of the guest
/// register file in host memory (reserved base registers, shadow slots).
pub(crate) const JIT_POOL: usize = 3;
// Three is the emitter's floor: a two-operand ALU op pins two pool
// registers and still needs a victim to evict.
const _: () = assert!(JIT_POOL >= 3 && JIT_POOL <= POOL.len());

/// The JIT translation of a block: optimize, then lower with [`JIT_POOL`].
pub(crate) fn lower(block: &TcgBlock) -> LoweredBlock {
    lower_block_pool(&optimize_block(block), JIT_POOL)
}

/// Optimize a whole block. Terminator temps must stay live, so they are
/// pinned by re-adding synthetic uses through the returned block's `end`.
pub fn optimize_block(block: &TcgBlock) -> TcgBlock {
    // Pin terminator temps by appending a fake op? Simpler: run the
    // pipeline on ops plus knowledge that end-temps are "used".
    // Pin the terminator temp with a synthetic store (stores survive every
    // pass untouched and do not shadow register/flag puts); it is popped
    // after optimization, with copy propagation applied to its operand.
    let mut pinned = block.ops.clone();
    let pin_temp = match block.end {
        crate::tcg::BlockEnd::Branch { cond, .. } => Some(cond),
        crate::tcg::BlockEnd::Indirect(t) => Some(t),
        _ => None,
    };
    if let Some(t) = pin_temp {
        pinned.push(TcgOp::Store(t, t, ldbt_isa::Width::W32));
    }
    let mut ops = optimize_ops(&pinned);
    let mut end = block.end;
    if pin_temp.is_some() {
        let Some(TcgOp::Store(s, _, _)) = ops.last().copied() else {
            unreachable!("pin store survives optimization")
        };
        ops.pop();
        match &mut end {
            crate::tcg::BlockEnd::Branch { cond, .. } => *cond = s,
            crate::tcg::BlockEnd::Indirect(t0) => *t0 = s,
            _ => {}
        }
    }
    TcgBlock {
        ops,
        end,
        reads_live_in_flags: block.reads_live_in_flags,
        writes_flags: block.writes_flags,
        merges_live_in_flags: block.merges_live_in_flags,
        unsupported_at: block.unsupported_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcg::{translate_block, GuestBlock};
    use ldbt_arm::{ArmInstr, DpOp, Operand2};
    use ldbt_isa::Memory;

    fn tcg_of(instrs: Vec<ArmInstr>) -> TcgBlock {
        let mem = Memory::new();
        translate_block(&mem, &GuestBlock { pc: 0x1_0000, instrs })
    }

    #[test]
    fn redundant_get_forwarded() {
        // Two instructions both reading r0: the JIT stream must contain a
        // single GetReg for it.
        let b = tcg_of(vec![
            ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R0, Operand2::Imm(1)),
            ArmInstr::dp(DpOp::Add, ArmReg::R2, ArmReg::R0, Operand2::Imm(2)),
        ]);
        let gets_before =
            b.ops.iter().filter(|o| matches!(o, TcgOp::GetReg(_, ArmReg::R0))).count();
        let opt = optimize_block(&b);
        let gets_after =
            opt.ops.iter().filter(|o| matches!(o, TcgOp::GetReg(_, ArmReg::R0))).count();
        assert_eq!(gets_before, 2);
        assert_eq!(gets_after, 1);
    }

    #[test]
    fn shadowed_put_removed() {
        // r0 written twice: only the last PutReg survives.
        let b = tcg_of(vec![
            ArmInstr::mov(ArmReg::R0, Operand2::Imm(1)),
            ArmInstr::mov(ArmReg::R0, Operand2::Imm(2)),
        ]);
        let opt = optimize_block(&b);
        let puts = opt.ops.iter().filter(|o| matches!(o, TcgOp::PutReg(ArmReg::R0, _))).count();
        assert_eq!(puts, 1);
    }

    #[test]
    fn put_get_forwarding() {
        // mov r0, #7; add r1, r0, #1 — the get of r0 forwards the put temp.
        let b = tcg_of(vec![
            ArmInstr::mov(ArmReg::R0, Operand2::Imm(7)),
            ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R0, Operand2::Imm(1)),
        ]);
        let opt = optimize_block(&b);
        let gets = opt.ops.iter().filter(|o| matches!(o, TcgOp::GetReg(_, ArmReg::R0))).count();
        assert_eq!(gets, 0, "forwarded through the put: {:?}", opt.ops);
    }

    #[test]
    fn optimized_stream_is_smaller() {
        let b = tcg_of(vec![
            ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R1, ArmReg::R1, Operand2::Imm(5)),
            ArmInstr::dp(DpOp::Add, ArmReg::R2, ArmReg::R1, Operand2::Reg(ArmReg::R0)),
        ]);
        let opt = optimize_block(&b);
        assert!(opt.ops.len() < b.ops.len(), "{} !< {}", opt.ops.len(), b.ops.len());
    }

    #[test]
    fn branch_condition_survives() {
        let b = tcg_of(vec![
            ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
            ArmInstr::B { offset: 3, cond: ldbt_arm::Cond::Ne },
        ]);
        let opt = optimize_block(&b);
        let crate::tcg::BlockEnd::Branch { cond, .. } = opt.end else { panic!() };
        // The condition temp must be defined by the optimized stream.
        assert!(
            opt.ops.iter().any(|o| o.def() == Some(cond)),
            "branch cond defined: {:?}",
            opt.ops
        );
    }

    #[test]
    fn executes_identically_to_unoptimized() {
        use crate::backend::lower_block;
        use crate::env::{ENV_BASE, HOST_STACK_TOP};
        use ldbt_isa::{CostModel, ExecStats, Width};
        use ldbt_x86::interp::run_seq;
        use ldbt_x86::{Gpr, X86State};
        let b = tcg_of(vec![
            ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0)),
            ArmInstr::dp(DpOp::Eor, ArmReg::R2, ArmReg::R1, Operand2::Imm(0xff)),
            ArmInstr::mov(ArmReg::R3, Operand2::Reg(ArmReg::R2)),
        ]);
        let opt = optimize_block(&b);
        let mut results = Vec::new();
        for blk in [&b, &opt] {
            let code = lower_block(blk).code;
            let mut st = X86State::new();
            st.set_reg(Gpr::Esp, HOST_STACK_TOP);
            st.mem.write(ENV_BASE, 5, Width::W32); // r0
            st.mem.write(ENV_BASE + 4, 9, Width::W32); // r1
            let mut stats = ExecStats::new();
            run_seq(&mut st, &code, 10_000, &CostModel::default(), &mut stats);
            results.push((
                st.mem.read(ENV_BASE + 4, Width::W32),
                st.mem.read(ENV_BASE + 8, Width::W32),
                st.mem.read(ENV_BASE + 12, Width::W32),
                stats.host_instrs,
            ));
        }
        assert_eq!(results[0].0, results[1].0);
        assert_eq!(results[0].1, results[1].1);
        assert_eq!(results[0].2, results[1].2);
        assert!(results[1].3 <= results[0].3, "optimized runs no more instructions");
    }

    /// The block-local optimizer must preserve the scratch-register
    /// invariant (backend.rs, sb.rs): however aggressively it forwards
    /// gets and kills puts, the lowered result still reads nothing from
    /// host entry state but %esp — the precondition for superblock
    /// cross-seam optimization over JIT-translated parts.
    #[test]
    fn optimized_blocks_read_no_host_entry_state() {
        use crate::backend::lower_block;
        use ldbt_x86::Gpr;
        let shapes: Vec<Vec<ArmInstr>> = vec![
            vec![
                ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0)),
                ArmInstr::dp(DpOp::Eor, ArmReg::R2, ArmReg::R1, Operand2::Imm(0xff)),
                ArmInstr::mov(ArmReg::R3, Operand2::Reg(ArmReg::R2)),
            ],
            vec![
                ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
                ArmInstr::B { offset: 3, cond: ldbt_arm::Cond::Ne },
            ],
        ];
        for instrs in shapes {
            let code = lower_block(&optimize_block(&tcg_of(instrs))).code;
            let (regs, flags) = crate::sb::entry_reads(&code);
            assert_eq!(regs & !(1 << Gpr::Esp.index()), 0, "reads host regs {regs:#010b}");
            assert_eq!(flags, 0, "reads host EFLAGS {flags:#06b}");
        }
    }

    /// The engine's JIT translation — optimize, then lower with
    /// [`JIT_POOL`] registers — of every suite block, hashed: the static
    /// pin `tests/codegen_pins.rs` cannot take (it reaches only the
    /// public full-pool lowering). Recorded at the commit before the
    /// block emitter replaced `backend::Lowerer`.
    #[test]
    fn jit_pool_code_is_pinned() {
        use std::fmt::Write;
        let mut text = String::new();
        for (mem, blocks) in crate::tcg::tests::suite_blocks() {
            for block in &blocks {
                let tcg = translate_block(&mem, block);
                if tcg.unsupported_at != Some(0) {
                    let low = lower(&tcg);
                    writeln!(text, "{:#x} {:?} {:?}", block.pc, low.code, low.exits).unwrap();
                }
            }
        }
        let got = ldbt_learn::cache::sig_hash(&text);
        assert_eq!(got, 0x3111_81c8_15fd_9cae, "jit code hash: {got:#018x}");
    }
}
