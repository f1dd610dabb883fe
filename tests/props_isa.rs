//! Property-based tests for both instruction sets: encode/decode
//! round-trips and interpreter invariants.

use ldbt_arm::{AddrMode, ArmInstr, ArmReg, Cond, DpOp, Operand2, Shift};
use ldbt_isa::{Memory, Width};
use ldbt_x86::{AluOp, Cc, Gpr, Operand, ShiftOp, UnOp, X86Instr, X86Mem};
use proptest::prelude::*;
use std::collections::HashMap;

fn arm_reg() -> impl Strategy<Value = ArmReg> {
    (0usize..16).prop_map(ArmReg::from_index)
}

fn arm_cond() -> impl Strategy<Value = Cond> {
    (0usize..15).prop_map(|i| Cond::ALL[i])
}

fn shift() -> impl Strategy<Value = Shift> {
    (0u8..4, 1u8..32).prop_map(|(t, a)| match t {
        0 => Shift::Lsl(a),
        1 => Shift::Lsr(a),
        2 => Shift::Asr(a),
        _ => Shift::Ror(a),
    })
}

fn operand2() -> impl Strategy<Value = Operand2> {
    prop_oneof![
        (0u32..4096).prop_map(Operand2::Imm),
        arm_reg().prop_map(Operand2::Reg),
        (arm_reg(), shift()).prop_map(|(r, s)| Operand2::RegShift(r, s)),
    ]
}

fn arm_instr() -> impl Strategy<Value = ArmInstr> {
    prop_oneof![
        (0usize..15, arm_reg(), arm_reg(), operand2(), any::<bool>(), arm_cond()).prop_map(
            |(op, rd, rn, op2, s, cond)| {
                let op = DpOp::ALL[op];
                ArmInstr::Dp { op, rd, rn, op2, set_flags: s || op.is_compare(), cond }
            }
        ),
        (arm_reg(), arm_reg(), arm_reg(), any::<bool>(), arm_cond())
            .prop_map(|(rd, rn, rm, s, cond)| ArmInstr::Mul { rd, rn, rm, set_flags: s, cond }),
        (arm_reg(), arm_reg(), -2048i32..2048, 0usize..3, any::<bool>(), arm_cond()).prop_map(
            |(rt, rn, off, w, sg, cond)| {
                let width = [Width::W8, Width::W16, Width::W32][w];
                ArmInstr::Ldr { rt, addr: AddrMode::Imm(rn, off), width, signed: sg, cond }
            }
        ),
        (arm_reg(), arm_reg(), arm_reg(), 1u8..32, arm_cond()).prop_map(|(rt, rn, rm, s, cond)| {
            ArmInstr::Str { rt, addr: AddrMode::RegShift(rn, rm, s), width: Width::W32, cond }
        }),
        (-(1i32 << 23)..(1 << 23), arm_cond())
            .prop_map(|(offset, cond)| ArmInstr::B { offset, cond }),
        (arm_reg(), 0u32..0x100_0000).prop_map(|(rm, imm)| {
            if imm & 1 == 0 {
                ArmInstr::Bx { rm, cond: Cond::Al }
            } else {
                ArmInstr::Svc { imm, cond: Cond::Al }
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arm_encode_decode_roundtrip(instr in arm_instr()) {
        let word = ldbt_arm::encode::encode(&instr).expect("valid by construction");
        let back = ldbt_arm::encode::decode(word).expect("decodes");
        prop_assert_eq!(back, instr);
        // Re-encoding is a fixpoint.
        prop_assert_eq!(ldbt_arm::encode::encode(&back).unwrap(), word);
    }

    #[test]
    fn arm_display_is_nonempty_and_stable(instr in arm_instr()) {
        let s = instr.to_string();
        prop_assert!(!s.is_empty());
        prop_assert_eq!(instr.to_string(), s);
    }

    #[test]
    fn arm_flags_written_within_mask(instr in arm_instr()) {
        prop_assert_eq!(instr.flags_written() & !0b1111, 0);
        prop_assert_eq!(instr.flags_read() & !0b1111, 0);
        if !instr.sets_flags() {
            prop_assert_eq!(instr.flags_written(), 0);
        }
    }
}

/// One guest-memory operation for the fast-path equivalence property.
#[derive(Debug, Clone)]
enum MemOp {
    Write(u32, u32, Width),
    Read(u32, Width),
    WriteBytes(u32, Vec<u8>),
}

/// Addresses concentrated on a few pages, with extra weight right at
/// page boundaries so W16/W32 page-cross and unaligned accesses are
/// common rather than rare.
fn mem_addr() -> impl Strategy<Value = u32> {
    let off = prop_oneof![0u32..4096, 4090u32..4096, Just(0u32), Just(1u32)];
    (0u32..4, off).prop_map(|(page, off)| page * 4096 + off)
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    let width = prop_oneof![Just(Width::W8), Just(Width::W16), Just(Width::W32)];
    prop_oneof![
        (mem_addr(), any::<u32>(), width.clone()).prop_map(|(a, v, w)| MemOp::Write(a, v, w)),
        (mem_addr(), width).prop_map(|(a, w)| MemOp::Read(a, w)),
        (mem_addr(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(a, bytes)| MemOp::WriteBytes(a, bytes)),
    ]
}

/// Byte-at-a-time little-endian reference model for guest memory.
#[derive(Default)]
struct ShadowMem(HashMap<u32, u8>);

impl ShadowMem {
    fn write(&mut self, addr: u32, val: u32, width: Width) {
        for i in 0..width.bytes() {
            self.0.insert(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }
    fn read(&self, addr: u32, width: Width) -> u32 {
        let mut v = 0u32;
        for i in 0..width.bytes() {
            v |= (*self.0.get(&addr.wrapping_add(i)).unwrap_or(&0) as u32) << (8 * i);
        }
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word-wide/page-cached memory fast path is observationally
    /// identical to a plain byte-at-a-time little-endian model, across
    /// unaligned and page-crossing accesses interleaved with bulk
    /// `write_bytes` (which drops the last-page caches).
    #[test]
    fn memory_fast_path_equals_byte_loop(ops in proptest::collection::vec(mem_op(), 1..80)) {
        let mut mem = Memory::new();
        let mut shadow = ShadowMem::default();
        for op in &ops {
            match op {
                MemOp::Write(a, v, w) => {
                    mem.write(*a, *v, *w);
                    shadow.write(*a, *v, *w);
                }
                MemOp::Read(a, w) => {
                    prop_assert_eq!(mem.read(*a, *w), shadow.read(*a, *w));
                }
                MemOp::WriteBytes(a, bytes) => {
                    mem.write_bytes(*a, bytes);
                    for (i, b) in bytes.iter().enumerate() {
                        shadow.0.insert(a.wrapping_add(i as u32), *b);
                    }
                }
            }
        }
        // Final sweep: every byte either side ever touched, plus both
        // sides of each page boundary, reads back identically.
        for page in 0u32..4 {
            for off in [0u32, 1, 2, 3, 4093, 4094, 4095] {
                let a = page * 4096 + off;
                for w in [Width::W8, Width::W16, Width::W32] {
                    prop_assert_eq!(mem.read(a, w), shadow.read(a, w));
                }
            }
        }
    }
}

/// One guest memory access for the fusion-equivalence property, at a
/// static absolute address in the guest data region.
#[derive(Debug, Clone)]
enum FuseOp {
    /// Store an immediate (via `mov_imm` + `MovStore` for narrow widths,
    /// a direct memory-immediate `mov` for words).
    Store(u32, i32, Width),
    /// Two 16-bit constant stores at `addr` and `addr + 2` — the shape
    /// `pair_stores` fuses into one word store when `addr % 4 == 0`, and
    /// must refuse otherwise.
    Pair(u32, u16, u16),
    /// Load (zero- or sign-extended for narrow widths) folded into the
    /// `%esi` checksum.
    Load(u32, Width, bool),
}

/// Absolute guest data addresses: a few pages starting at 0x0050_0000,
/// weighted toward page boundaries and unaligned offsets so misaligned
/// and page-crossing accesses (which fusion must never pair) are common.
fn fuse_addr() -> impl Strategy<Value = u32> {
    let off = prop_oneof![0u32..16, 4088u32..4096, Just(1u32), Just(2u32), Just(3u32)];
    (0u32..3, off).prop_map(|(page, off)| 0x0050_0000 + page * 4096 + off)
}

fn fuse_op() -> impl Strategy<Value = FuseOp> {
    let width = prop_oneof![Just(Width::W8), Just(Width::W16), Just(Width::W32)];
    prop_oneof![
        (fuse_addr(), any::<i32>(), width.clone()).prop_map(|(a, v, w)| FuseOp::Store(a, v, w)),
        (fuse_addr(), any::<u16>(), any::<u16>()).prop_map(|(a, lo, hi)| FuseOp::Pair(a, lo, hi)),
        (fuse_addr(), width, any::<bool>()).prop_map(|(a, w, s)| FuseOp::Load(a, w, s)),
    ]
}

/// Lower one [`FuseOp`] to host code. Loads fold into the `%esi`
/// checksum with an op alternating by position so reorderings change the
/// result.
fn emit_fuse_op(idx: usize, op: &FuseOp, code: &mut Vec<X86Instr>) {
    let fold = if idx.is_multiple_of(2) { AluOp::Add } else { AluOp::Xor };
    let abs = |a: u32| X86Mem::absolute(a as i32);
    match *op {
        FuseOp::Store(a, v, Width::W32) => {
            code.push(X86Instr::Mov { dst: Operand::Mem(abs(a)), src: Operand::Imm(v) });
        }
        FuseOp::Store(a, v, w) => {
            code.push(X86Instr::mov_imm(Gpr::Eax, v));
            code.push(X86Instr::MovStore { width: w, src: Gpr::Eax, dst: abs(a) });
        }
        FuseOp::Pair(a, lo, hi) => {
            code.push(X86Instr::mov_imm(Gpr::Eax, lo as i32));
            code.push(X86Instr::mov_imm(Gpr::Edx, hi as i32));
            code.push(X86Instr::MovStore { width: Width::W16, src: Gpr::Eax, dst: abs(a) });
            code.push(X86Instr::MovStore {
                width: Width::W16,
                src: Gpr::Edx,
                dst: abs(a.wrapping_add(2)),
            });
        }
        FuseOp::Load(a, Width::W32, _) => {
            code.push(X86Instr::Mov { dst: Operand::Reg(Gpr::Eax), src: Operand::Mem(abs(a)) });
            code.push(X86Instr::Alu {
                op: fold,
                dst: Operand::Reg(Gpr::Esi),
                src: Operand::Reg(Gpr::Eax),
            });
        }
        FuseOp::Load(a, w, sign) => {
            code.push(X86Instr::Movx { sign, width: w, dst: Gpr::Eax, src: Operand::Mem(abs(a)) });
            code.push(X86Instr::Alu {
                op: fold,
                dst: Operand::Reg(Gpr::Esi),
                src: Operand::Reg(Gpr::Eax),
            });
        }
    }
}

/// Apply one [`FuseOp`] to the byte-loop reference model, returning the
/// updated checksum.
fn shadow_fuse_op(idx: usize, op: &FuseOp, shadow: &mut ShadowMem, acc: u32) -> u32 {
    match *op {
        FuseOp::Store(a, v, w) => {
            shadow.write(a, v as u32, w);
            acc
        }
        FuseOp::Pair(a, lo, hi) => {
            shadow.write(a, lo as u32, Width::W16);
            shadow.write(a.wrapping_add(2), hi as u32, Width::W16);
            acc
        }
        FuseOp::Load(a, w, sign) => {
            let raw = shadow.read(a, w);
            let v = match (w, sign) {
                (Width::W8, true) => raw as u8 as i8 as i32 as u32,
                (Width::W16, true) => raw as u16 as i16 as i32 as u32,
                _ => raw,
            };
            if idx.is_multiple_of(2) {
                acc.wrapping_add(v)
            } else {
                acc ^ v
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Guest memory access fusion (store-to-load forwarding, redundant
    /// load elimination, dead-store sinking, narrow-store pairing —
    /// including the cross-seam fact carry) is observationally identical
    /// to the unfused access sequence as judged by a byte-at-a-time
    /// little-endian reference model, across unaligned and page-crossing
    /// accesses. Pairing never manufactures an unaligned word store.
    #[test]
    fn fused_region_matches_byte_loop_memory_model(
        ops in proptest::collection::vec(fuse_op(), 1..40),
        split_frac in 0u32..100,
    ) {
        use ldbt_dbt::sb::{fuse_region, SbPart};
        use ldbt_isa::{CostModel, ExecStats};
        use ldbt_x86::interp::{run_seq, SeqExit};
        use ldbt_x86::X86State;
        use std::rc::Rc;

        // Split the ops across two parts joined by a stripped seam so
        // the cross-seam fact carry is exercised.
        let split = (ops.len() * split_frac as usize) / 100;
        let (mut code_a, mut code_b) = (Vec::new(), Vec::new());
        for (idx, op) in ops.iter().enumerate() {
            emit_fuse_op(idx, op, if idx < split { &mut code_a } else { &mut code_b });
        }
        code_b.push(X86Instr::Ret);
        // Word stores that were *already* unaligned in the input: pairing
        // may never add to this set.
        let unaligned_words = |code: &[X86Instr]| -> Vec<i32> {
            code.iter()
                .filter_map(|ins| match *ins {
                    X86Instr::Mov { dst: Operand::Mem(m), src: Operand::Imm(_) }
                        if m.base.is_none() && m.index.is_none() && m.disp % 4 != 0 =>
                    {
                        Some(m.disp)
                    }
                    _ => None,
                })
                .collect()
        };
        let before_unaligned = {
            let mut v = unaligned_words(&code_a);
            v.extend(unaligned_words(&code_b));
            v
        };

        let mut parts = vec![
            SbPart { id: 3, code: Rc::new(code_a), fallthrough_seam: true },
            SbPart { id: 4, code: Rc::new(code_b), fallthrough_seam: false },
        ];
        fuse_region(&mut parts);
        for p in &parts {
            for d in unaligned_words(&p.code) {
                prop_assert!(
                    before_unaligned.contains(&d),
                    "pairing created an unaligned word store at {d:#x}"
                );
            }
        }

        // Execute the fused region: part 0 falls through its stripped
        // seam into part 1 (both are straight-line), so concatenation is
        // exactly the region's execution order.
        let mut code: Vec<X86Instr> = (*parts[0].code).clone();
        code.extend(parts[1].code.iter().copied());
        let mut st = X86State::new();
        st.set_reg(Gpr::Esp, ldbt_dbt::env::HOST_STACK_TOP);
        let mut stats = ExecStats::new();
        let exit = run_seq(&mut st, &code, 1_000_000, &CostModel::default(), &mut stats);
        prop_assert_eq!(exit, SeqExit::Returned);

        // Reference: the same ops against the byte-loop model.
        let mut shadow = ShadowMem::default();
        let mut acc = 0u32;
        for (idx, op) in ops.iter().enumerate() {
            acc = shadow_fuse_op(idx, op, &mut shadow, acc);
        }
        prop_assert_eq!(st.reg(Gpr::Esi), acc, "checksum over loaded values diverged");
        for op in &ops {
            let a = match *op {
                FuseOp::Store(a, ..) | FuseOp::Pair(a, ..) | FuseOp::Load(a, ..) => a,
            };
            for d in -4i64..8 {
                let b = a.wrapping_add(d as u32);
                prop_assert_eq!(
                    st.mem.read(b, Width::W8),
                    shadow.read(b, Width::W8),
                    "byte {b:#x} diverged after fusion"
                );
            }
        }
    }
}

/// One step of a generated region part, lowered the way the translators
/// lower guest instructions: guest state lives in env slots, host
/// registers are scratch, and nothing is read before the part wrote it.
#[derive(Debug, Clone)]
enum PartOp {
    /// `mov env(src), %a; op $imm, %a; mov %a, env(dst)`.
    Alu { dst: u8, src: u8, op: usize, imm: i32, a: usize },
    /// `mov env(src), %a; mov %a, %b; mov %b, env(dst)`.
    Copy { dst: u8, src: u8, a: usize, b: usize },
    /// `op $imm, env(slot)` — the rule-lowered read-modify-write form.
    AluHome { slot: u8, op: usize, imm: i32 },
    /// `mov env(slot), %a; mov %a, word; mov word, %b; mov %b, env(slot ^ 1)`.
    Spill { slot: u8, word: u32, a: usize, b: usize },
    /// `mov $0, flagmode`.
    FlagReset,
    /// `mov env(src), %a; cmp $imm, %a; jcc +2; mov $pc, %eax; chain @99`.
    SideExit { src: u8, imm: i32, cc: usize, a: usize },
}

/// How the last part of a generated region ends.
#[derive(Debug, Clone, Copy)]
enum RegionEnd {
    /// `chain` back to the head: the resident backedge.
    Backedge,
    /// `chain` to a block outside the region.
    ChainOut,
    /// `ret` to the dispatcher.
    Ret,
}

const PART_REGS: [Gpr; 3] = [Gpr::Ecx, Gpr::Edx, Gpr::Ebx];
const PART_ALU: [AluOp; 5] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];
const PART_CC: [Cc; 4] = [Cc::E, Cc::Ne, Cc::L, Cc::Ge];
/// Block id side exits chain to; never a member of the region.
const OUTSIDE: u32 = 99;

fn part_op() -> impl Strategy<Value = PartOp> {
    let (slot, reg, imm) = (0u8..4, 0usize..3, -2i32..3);
    prop_oneof![
        (slot.clone(), slot.clone(), 0usize..5, imm.clone(), reg.clone())
            .prop_map(|(dst, src, op, imm, a)| PartOp::Alu { dst, src, op, imm, a }),
        (slot.clone(), slot.clone(), reg.clone(), reg.clone())
            .prop_map(|(dst, src, a, b)| PartOp::Copy { dst, src, a, b }),
        (slot.clone(), 0usize..5, imm.clone()).prop_map(|(slot, op, imm)| PartOp::AluHome {
            slot,
            op,
            imm
        }),
        (slot.clone(), 0u32..2, reg.clone(), reg.clone())
            .prop_map(|(slot, word, a, b)| PartOp::Spill { slot, word, a, b }),
        Just(PartOp::FlagReset),
        (slot, imm, 0usize..4, reg).prop_map(|(src, imm, cc, a)| PartOp::SideExit {
            src,
            imm,
            cc,
            a
        }),
    ]
}

fn emit_part_op(op: &PartOp, code: &mut Vec<X86Instr>) {
    let home = |s: u8| Operand::Mem(ldbt_dbt::env::reg_mem(ArmReg::from_index(s as usize)));
    let reg = |r: usize| Operand::Reg(PART_REGS[r]);
    let mov = |dst: Operand, src: Operand| X86Instr::Mov { dst, src };
    match *op {
        PartOp::Alu { dst, src, op, imm, a } => code.extend([
            mov(reg(a), home(src)),
            X86Instr::alu_ri(PART_ALU[op], PART_REGS[a], imm),
            mov(home(dst), reg(a)),
        ]),
        PartOp::Copy { dst, src, a, b } => {
            code.extend([mov(reg(a), home(src)), mov(reg(b), reg(a)), mov(home(dst), reg(b))]);
        }
        PartOp::AluHome { slot, op, imm } => {
            code.push(X86Instr::Alu { op: PART_ALU[op], dst: home(slot), src: Operand::Imm(imm) });
        }
        PartOp::Spill { slot, word, a, b } => {
            let word = Operand::Mem(X86Mem::absolute((0x0050_0000 + 4 * word) as i32));
            code.extend([
                mov(reg(a), home(slot)),
                mov(word, reg(a)),
                mov(reg(b), word),
                mov(home(slot ^ 1), reg(b)),
            ]);
        }
        PartOp::FlagReset => code.push(mov(
            Operand::Mem(ldbt_dbt::env::env_mem(ldbt_dbt::env::FLAGMODE_OFFSET)),
            Operand::Imm(0),
        )),
        PartOp::SideExit { src, imm, cc, a } => code.extend([
            mov(reg(a), home(src)),
            X86Instr::Alu { op: AluOp::Cmp, dst: reg(a), src: Operand::Imm(imm) },
            X86Instr::Jcc { cc: PART_CC[cc], target: 2 },
            X86Instr::mov_imm(Gpr::Eax, 0x9000 + src as i32),
            X86Instr::ChainJmp { block: OUTSIDE },
        ]),
    }
}

/// Where a region run ended, for comparing two runs of "the same" region.
#[derive(Debug, PartialEq)]
enum RegionExit {
    /// Left through an escape, with this `%eax` (the next guest pc).
    Escaped(ldbt_x86::interp::SeqExit, u32),
    /// Still looping after `REGION_LAPS` trips around the backedge.
    Looping,
}

const REGION_LAPS: u32 = 3;

/// Execute a region part by part the way `Engine::run_region` does:
/// the preamble once, seams and the backedge in-region, pinned registers
/// written to their env homes when the run stops at an in-region
/// boundary (after an escape the writeback stubs already did it).
fn run_region_model(
    parts: &[ldbt_dbt::sb::SbPart],
    ra: &[(u8, Gpr)],
    seed: &[i32],
) -> (RegionExit, ldbt_x86::X86State, u64) {
    use ldbt_isa::{CostModel, ExecStats};
    use ldbt_x86::interp::{run_seq, SeqExit};
    let mut st = ldbt_x86::X86State::new();
    st.set_reg(Gpr::Esp, ldbt_dbt::env::HOST_STACK_TOP);
    for (s, v) in seed.iter().enumerate() {
        st.mem.write(ldbt_dbt::env::ENV_BASE + 4 * s as u32, *v as u32, Width::W32);
    }
    let (model, mut stats) = (CostModel::default(), ExecStats::new());
    let pre = ldbt_dbt::sb::ra_preamble(ra);
    assert_eq!(run_seq(&mut st, &pre, 100, &model, &mut stats), SeqExit::FellThrough);
    let (mut k, mut laps) = (0usize, 0u32);
    let exit = loop {
        let next = parts.get(k + 1).map(|p| p.id);
        match run_seq(&mut st, &parts[k].code, 10_000, &model, &mut stats) {
            SeqExit::Chained(b) if Some(b) == next => k += 1,
            SeqExit::FellThrough if parts[k].fallthrough_seam && next.is_some() => k += 1,
            SeqExit::Chained(b) if b == parts[0].id => {
                laps += 1;
                if laps == REGION_LAPS {
                    for &(s, p) in ra {
                        let home = ldbt_dbt::env::ENV_BASE + 4 * s as u32;
                        st.mem.write(home, st.reg(p), Width::W32);
                    }
                    break RegionExit::Looping;
                }
                k = 0;
            }
            exit @ (SeqExit::Chained(_) | SeqExit::Returned) => {
                break RegionExit::Escaped(exit, st.reg(Gpr::Eax));
            }
            other => panic!("part {k} ended in {other:?}"),
        }
    };
    (exit, st, stats.host_instrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The whole region pipeline — `specialize_part → strip_seam_exits →
    /// optimize_region → fuse_region → allocate_region →
    /// optimize_region_pinned` — is invisible: a generated 2–3-part
    /// region (env-slot loads and writebacks, register ALU and copies,
    /// read-modify-write homes, guest-word spills, the flag-mode reset,
    /// forward `Jcc`s over side-exit pairs, `ChainJmp` seams, and a
    /// backedge, chained or `ret` ending) leaves through the same exit
    /// with the same `%eax`, env bytes and guest memory as its
    /// unoptimized parts, and never executes more host instructions than
    /// they do plus what a register allocation knowingly pays (the
    /// preamble and one writeback stub).
    #[test]
    fn region_pipeline_preserves_exits_env_and_memory(
        bodies in proptest::collection::vec(proptest::collection::vec(part_op(), 0..6), 2..4),
        end in prop_oneof![Just(RegionEnd::Backedge), Just(RegionEnd::ChainOut), Just(RegionEnd::Ret)],
        seed in proptest::collection::vec(-3i32..4, 4..5),
    ) {
        use ldbt_dbt::sb::{
            allocate_region, fuse_region, optimize_region, optimize_region_pinned,
            region_contract, specialize_part, strip_seam_exits, SbPart, SeamState,
        };
        use std::rc::Rc;

        let (id, pc) = (|k: usize| 10 + k as u32, |k: usize| 0x1000 * (k as u32 + 1));
        let last = bodies.len() - 1;
        let original: Vec<SbPart> = bodies
            .iter()
            .enumerate()
            .map(|(k, body)| {
                let mut code = Vec::new();
                body.iter().for_each(|op| emit_part_op(op, &mut code));
                code.extend(match (k == last, end) {
                    (false, _) => [X86Instr::mov_imm(Gpr::Eax, pc(k + 1) as i32), X86Instr::ChainJmp { block: id(k + 1) }],
                    (true, RegionEnd::Backedge) => [X86Instr::mov_imm(Gpr::Eax, pc(0) as i32), X86Instr::ChainJmp { block: id(0) }],
                    (true, RegionEnd::ChainOut) => [X86Instr::mov_imm(Gpr::Eax, 0x8000), X86Instr::ChainJmp { block: OUTSIDE }],
                    (true, RegionEnd::Ret) => [X86Instr::mov_imm(Gpr::Eax, 0x8000), X86Instr::Ret],
                });
                SbPart { id: id(k), code: Rc::new(code), fallthrough_seam: false }
            })
            .collect();

        let mut seam = SeamState::entry();
        let mut parts: Vec<SbPart> = original
            .iter()
            .map(|p| {
                let (code, exit) = specialize_part(&p.code, &seam);
                seam = exit;
                SbPart { id: p.id, code: Rc::new(code), fallthrough_seam: false }
            })
            .collect();
        let pcs: Vec<u32> = (0..parts.len()).map(pc).collect();
        strip_seam_exits(&mut parts, &pcs);
        optimize_region(&mut parts);
        fuse_region(&mut parts);
        let ra = allocate_region(&mut parts, &[Gpr::Esi, Gpr::Edi, Gpr::Ebp]);
        optimize_region_pinned(&mut parts, &ra);
        prop_assert!(region_contract(&parts, &ra), "contract broken: {parts:?}");

        let (want_exit, want, want_instrs) = run_region_model(&original, &[], &seed);
        let (got_exit, got, got_instrs) = run_region_model(&parts, &ra, &seed);
        prop_assert_eq!(&got_exit, &want_exit, "optimized: {:?}", parts);
        prop_assert_eq!(
            got.mem.first_difference(&want.mem, |_| false),
            None,
            "env or guest memory diverged; optimized: {:?}",
            parts
        );
        prop_assert!(
            got_instrs <= want_instrs + 2 * ra.len() as u64,
            "{got_instrs} host instructions for {want_instrs}; optimized: {parts:?}"
        );
    }
}

fn gpr() -> impl Strategy<Value = Gpr> {
    (0usize..8).prop_map(Gpr::from_index)
}

fn x86_mem() -> impl Strategy<Value = X86Mem> {
    (
        proptest::option::of(gpr()),
        proptest::option::of((
            gpr().prop_filter("esp is not an index", |g| *g != Gpr::Esp),
            0u8..4,
        )),
        -5000i32..5000,
    )
        .prop_map(|(base, idx, disp)| X86Mem {
            base,
            index: idx.map(|(r, s)| (r, 1u8 << s)),
            disp,
        })
}

fn rm_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![gpr().prop_map(Operand::Reg), x86_mem().prop_map(Operand::Mem)]
}

fn x86_instr() -> impl Strategy<Value = X86Instr> {
    prop_oneof![
        (gpr(), any::<i32>()).prop_map(|(r, v)| X86Instr::mov_imm(r, v)),
        (rm_operand(), gpr()).prop_map(|(dst, s)| X86Instr::Mov { dst, src: Operand::Reg(s) }),
        (gpr(), x86_mem())
            .prop_map(|(d, m)| X86Instr::Mov { dst: Operand::Reg(d), src: Operand::Mem(m) }),
        (0usize..9, rm_operand(), gpr()).prop_map(|(op, dst, s)| X86Instr::Alu {
            op: AluOp::ALL[op],
            dst,
            src: Operand::Reg(s)
        }),
        (0usize..9, rm_operand(), any::<i32>()).prop_map(|(op, dst, v)| X86Instr::Alu {
            op: AluOp::ALL[op],
            dst,
            src: Operand::Imm(v)
        }),
        (gpr(), x86_mem()).prop_map(|(d, m)| X86Instr::Lea { dst: d, addr: m }),
        (gpr(), rm_operand()).prop_map(|(d, s)| X86Instr::Imul { dst: d, src: s }),
        (0usize..3, rm_operand(), 1u8..32).prop_map(|(op, dst, c)| X86Instr::Shift {
            op: [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][op],
            dst,
            count: c
        }),
        (0usize..4, rm_operand()).prop_map(|(op, dst)| X86Instr::Un {
            op: [UnOp::Neg, UnOp::Not, UnOp::Inc, UnOp::Dec][op],
            dst
        }),
        (any::<bool>(), any::<bool>(), gpr(), x86_mem()).prop_map(|(sg, w16, d, m)| {
            X86Instr::Movx {
                sign: sg,
                width: if w16 { Width::W16 } else { Width::W8 },
                dst: d,
                src: Operand::Mem(m),
            }
        }),
        (0usize..14, 0usize..4)
            .prop_map(|(cc, r)| X86Instr::Setcc { cc: Cc::ALL[cc], dst: Gpr::from_index(r) }),
        Just(X86Instr::Ret),
        Just(X86Instr::Pushfd),
        Just(X86Instr::Popfd),
        Just(X86Instr::Halt),
        gpr().prop_map(|r| X86Instr::Push { src: Operand::Reg(r) }),
        gpr().prop_map(|r| X86Instr::Pop { dst: Operand::Reg(r) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn x86_encode_decode_roundtrip(instr in x86_instr()) {
        let bytes = ldbt_x86::encode::encode(&instr).expect("valid by construction");
        let (back, len) = ldbt_x86::encode::decode(&bytes).expect("decodes");
        prop_assert_eq!(back, instr);
        prop_assert_eq!(len, bytes.len());
    }

    #[test]
    fn x86_sequences_disassemble(instrs in proptest::collection::vec(x86_instr(), 1..12)) {
        // Straight-line sequences (no branch targets to fix up).
        let bytes = ldbt_x86::encode::assemble(&instrs).expect("assembles");
        let back = ldbt_x86::encode::disassemble(&bytes).expect("disassembles");
        prop_assert_eq!(back, instrs);
    }

    #[test]
    fn x86_mem_operands_consistent(instr in x86_instr()) {
        // mem_operands() ⊇ mem_operand(), and RMW forms report
        // load-then-store at the same address.
        let all = instr.mem_operands();
        if let Some(one) = instr.mem_operand() {
            prop_assert!(all.contains(&one));
        }
        if all.len() == 2 {
            prop_assert_eq!(all[0].0, all[1].0);
            prop_assert!(!all[0].2 && all[1].2);
        }
    }
}

// --- Translation-cache coherence: code-page store detection ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The SMC pipeline's exactness property: marking a translated
    /// block's byte range and then applying the engine's overlap filter
    /// to the store-hit log must flag exactly the stores whose span
    /// intersects the block — every width and alignment, including
    /// page-crossing stores and multi-byte `write_bytes` spans. The
    /// page bitmap is allowed to log near misses on the same page; the
    /// span filter must discard them.
    #[test]
    fn code_page_store_log_triggers_iff_span_overlaps_block(
        block_word in 0u32..0x2000,
        block_words in 1u32..64,
        stores in proptest::collection::vec(
            (-0x3000i64..0x3000, 0usize..4, 1usize..9),
            1..32
        ),
    ) {
        let bpc = 0x1_0000 + block_word * 4;
        let blen = block_words * 4;
        let mut mem = Memory::new();
        mem.mark_code(bpc, blen);
        let (bs, be) = (bpc as u64, bpc as u64 + blen as u64);
        for (off, kind, nbytes) in stores {
            let addr = (bpc as i64 + off) as u32;
            let (ws, wl) = match kind {
                0 => { mem.write(addr, 0xa5, Width::W8); (addr as u64, 1u64) }
                1 => { mem.write(addr, 0xa5a5, Width::W16); (addr as u64, 2) }
                2 => { mem.write(addr, 0xa5a5_a5a5, Width::W32); (addr as u64, 4) }
                _ => {
                    mem.write_bytes(addr, &vec![0xa5u8; nbytes]);
                    (addr as u64, nbytes as u64)
                }
            };
            let spans = mem.take_code_writes();
            let logged_hit = spans.iter().any(|&(s, l)| {
                let (s, e) = (s as u64, s as u64 + l as u64);
                s < be && bs < e
            });
            let expect = ws < be && bs < ws + wl;
            prop_assert_eq!(
                logged_hit, expect,
                "store {:#x}+{} vs block {:#x}+{}", addr, wl, bpc, blen
            );
        }
        // A memory with no marked pages logs nothing at all — the store
        // fast path stays free for non-code workloads.
        let mut clean = Memory::new();
        clean.write(bpc, 1, Width::W32);
        clean.write_bytes(bpc + 8, &[1, 2, 3]);
        prop_assert!(!clean.has_code_writes());
    }
}
