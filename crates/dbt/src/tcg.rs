//! The TCG-like micro-op IR and the ARM front end.
//!
//! Each guest instruction expands into several micro-ops over unbounded
//! temporaries, exactly the one-to-many shape the paper identifies as the
//! source of QEMU's code expansion. Guest registers and flags live in the
//! env ([`crate::env`]); `GetReg`/`PutReg`/`GetFlag`/`PutFlag` move values
//! between env and temporaries.
//!
//! The front end already performs QEMU-style *flag liveness* pruning:
//! NZCV updates that are provably dead (overwritten before use within
//! the block and not live into any successor) are not materialized.
//! `FlagLiveness` is that analysis, computed once per block and shared
//! with the rule planner in [`crate::rules`].

use crate::env::FlagId;
use ldbt_arm::{encode::decode, AddrMode, ArmInstr, ArmReg, Cond, DpOp, Operand2, Shift};
use ldbt_isa::{Memory, Width};

/// A TCG temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Temp(pub u32);

/// Micro-op ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TcgAlu {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Lshr,
    Ashr,
    Mul,
}

/// Micro-op comparison predicates (producing 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TcgCond {
    Eq,
    Ne,
    Ltu,
    Leu,
    Geu,
    Gtu,
    Lts,
    Ges,
}

/// One micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcgOp {
    /// `dst = imm`.
    MovI(Temp, u32),
    /// `dst = src`.
    Mov(Temp, Temp),
    /// `dst = a op b`.
    Alu(TcgAlu, Temp, Temp, Temp),
    /// `dst = a op imm`.
    AluI(TcgAlu, Temp, Temp, u32),
    /// `dst = !a` (bitwise).
    Not(Temp, Temp),
    /// `dst = -a`.
    Neg(Temp, Temp),
    /// `dst = (a cond b) ? 1 : 0`.
    Setc(Temp, TcgCond, Temp, Temp),
    /// Load a guest register from env.
    GetReg(Temp, ArmReg),
    /// Store a guest register to env.
    PutReg(ArmReg, Temp),
    /// Load a guest flag (0/1) from env.
    GetFlag(Temp, FlagId),
    /// Store a guest flag (0/1) to env.
    PutFlag(FlagId, Temp),
    /// `dst = mem[addr]`, zero- or sign-extended.
    Load(Temp, Temp, Width, bool),
    /// `mem[addr] = src` (low `width` bits).
    Store(Temp, Temp, Width),
}

impl TcgOp {
    /// The temp defined, if any.
    pub fn def(&self) -> Option<Temp> {
        match *self {
            TcgOp::MovI(d, _)
            | TcgOp::Mov(d, _)
            | TcgOp::Alu(_, d, _, _)
            | TcgOp::AluI(_, d, _, _)
            | TcgOp::Not(d, _)
            | TcgOp::Neg(d, _)
            | TcgOp::Setc(d, _, _, _)
            | TcgOp::GetReg(d, _)
            | TcgOp::GetFlag(d, _)
            | TcgOp::Load(d, _, _, _) => Some(d),
            _ => None,
        }
    }

    /// The temps read.
    pub fn uses(&self) -> Vec<Temp> {
        match *self {
            TcgOp::Mov(_, s) | TcgOp::AluI(_, _, s, _) | TcgOp::Not(_, s) | TcgOp::Neg(_, s) => {
                vec![s]
            }
            TcgOp::Alu(_, _, a, b) | TcgOp::Setc(_, _, a, b) => vec![a, b],
            TcgOp::PutReg(_, s) | TcgOp::PutFlag(_, s) => vec![s],
            TcgOp::Load(_, a, _, _) => vec![a],
            TcgOp::Store(s, a, _) => vec![s, a],
            _ => vec![],
        }
    }
}

/// How a translated block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEnd {
    /// Continue at a known guest PC.
    Jump(u32),
    /// Conditional: if `cond` (a 0/1 temp) is nonzero go to `taken`.
    Branch {
        /// Condition temp.
        cond: Temp,
        /// Target when nonzero.
        taken: u32,
        /// Fall-through target.
        not_taken: u32,
    },
    /// Jump to the address in a temp (`bx`).
    Indirect(Temp),
    /// Guest executed `svc #0`.
    Halt,
    /// Guest executed a trapping instruction (`svc #n`, n ≠ 0) at this
    /// PC: the block exits with a precise trap (full writeback, `%eax`
    /// holding the trapping PC, then the `trap` sentinel).
    Trap(u32),
}

/// A decoded guest basic block.
#[derive(Debug, Clone)]
pub struct GuestBlock {
    /// Start PC.
    pub pc: u32,
    /// The instructions.
    pub instrs: Vec<ArmInstr>,
}

/// Maximum guest instructions per block.
pub const MAX_BLOCK: usize = 64;

/// Decode a guest basic block starting at `pc`.
///
/// The block ends after a control-flow instruction, before an
/// undecodable word, or at [`MAX_BLOCK`] instructions.
pub fn decode_block(mem: &Memory, pc: u32) -> GuestBlock {
    let mut instrs = Vec::new();
    let mut cur = pc;
    while instrs.len() < MAX_BLOCK {
        let Ok(i) = decode(mem.read(cur, Width::W32)) else { break };
        instrs.push(i);
        if i.is_block_end() {
            break;
        }
        cur = cur.wrapping_add(4);
    }
    GuestBlock { pc, instrs }
}

/// The flags `i` always overwrites: a predicated flag setter writes only
/// when its condition holds, so it kills nothing.
fn flags_killed(i: &ArmInstr) -> u8 {
    if i.is_predicated() {
        0
    } else {
        i.flags_written()
    }
}

/// NZCV liveness into the code starting at `pc`: a flag is live if some
/// instruction reads it before any instruction overwrites it.
///
/// The scan is linear and bounded; unknown control flow is conservative
/// (all unwritten flags live).
pub fn flags_live_at(mem: &Memory, pc: u32, depth: u32) -> u8 {
    let mut live = 0u8;
    let mut written = 0u8;
    let mut cur = pc;
    for _ in 0..32 {
        let Ok(i) = decode(mem.read(cur, Width::W32)) else {
            return live | (0b1111 & !written);
        };
        live |= i.flags_read() & !written;
        written |= flags_killed(&i);
        if written == 0b1111 {
            return live;
        }
        match i {
            ArmInstr::B { offset, cond } => {
                if depth == 0 {
                    return live | (0b1111 & !written);
                }
                let next = cur.wrapping_add(4);
                let taken = next.wrapping_add((offset as u32).wrapping_mul(4));
                let mut l = flags_live_at(mem, taken, depth - 1);
                if cond != Cond::Al {
                    l |= flags_live_at(mem, next, depth - 1);
                }
                return live | (l & !written);
            }
            ArmInstr::Bl { .. } | ArmInstr::Bx { .. } | ArmInstr::Svc { .. } => {
                // Across calls/returns: conservative.
                return live | (0b1111 & !written);
            }
            _ => cur = cur.wrapping_add(4),
        }
    }
    live | (0b1111 & !written)
}

/// NZCV liveness of one guest block, the single flag analysis of the
/// translators: the TCG front end reads which flags an instruction's
/// update must materialize, the rule planner which flags a rule's host
/// code would leave to be consumed (paper §5).
pub(crate) struct FlagLiveness {
    /// Per position `i` in `0..=n`, the flags some instruction at or
    /// after `i` reads before any rewrites them: `[0]` within the block
    /// only, `[1]` counting the flags live into the block's successors
    /// as a read at the end.
    before: Vec<[u8; 2]>,
}

impl FlagLiveness {
    /// Liveness of `block`: one scan of its successors in `mem`, one
    /// backward walk over its instructions.
    pub(crate) fn of_block(mem: &Memory, block: &GuestBlock) -> FlagLiveness {
        let live_out = match block.instrs.last() {
            Some(ArmInstr::B { offset, cond }) => {
                let end_pc = block.pc.wrapping_add(4 * block.instrs.len() as u32);
                let taken = end_pc.wrapping_add((*offset as u32).wrapping_mul(4));
                let mut l = flags_live_at(mem, taken, 2);
                if *cond != Cond::Al {
                    l |= flags_live_at(mem, end_pc, 2);
                }
                l
            }
            _ => 0b1111, // calls/returns/halt: conservative
        };
        FlagLiveness::with_live_out(&block.instrs, live_out)
    }

    /// Liveness of an instruction span whose exit liveness is given (a
    /// stretch cut out of a block: the block's `live_before` where the
    /// stretch ends).
    pub(crate) fn with_live_out(instrs: &[ArmInstr], live_out: u8) -> FlagLiveness {
        let mut before = vec![[0, live_out]; instrs.len() + 1];
        for (i, ins) in instrs.iter().enumerate().rev() {
            before[i] = before[i + 1].map(|l| ins.flags_read() | (l & !flags_killed(ins)));
        }
        FlagLiveness { before }
    }

    /// Flags read by instruction `i` or a later one of the block before
    /// being rewritten.
    pub(crate) fn read_in_block(&self, i: usize) -> u8 {
        self.before[i][0]
    }

    /// [`FlagLiveness::read_in_block`] plus the flags that reach the end
    /// of the block unwritten and are live out of it.
    pub(crate) fn live_before(&self, i: usize) -> u8 {
        self.before[i][1]
    }
}

/// The translated (micro-op) form of a guest block.
#[derive(Debug, Clone)]
pub struct TcgBlock {
    /// The micro-ops.
    pub ops: Vec<TcgOp>,
    /// The terminator.
    pub end: BlockEnd,
    /// Whether the block reads guest flags that are live-in.
    pub reads_live_in_flags: bool,
    /// Whether the block writes any guest flag slot.
    pub writes_flags: bool,
    /// Whether the block writes some guest flag slots while a flag live
    /// at its end passes through it unwritten: the env NZCV it leaves
    /// merges fresh slots with live-in ones, so a pending §5 lazy save
    /// must be materialized before it writes.
    pub merges_live_in_flags: bool,
    /// Instructions the front end could not translate (the engine falls
    /// back to single-step interpretation for them). `None` when fully
    /// translated; otherwise the index of the first unsupported guest
    /// instruction.
    pub unsupported_at: Option<usize>,
}

struct FrontEnd {
    ops: Vec<TcgOp>,
    next_temp: u32,
    reads_live_in_flags: bool,
    writes_flags: bool,
    flags_written_so_far: u8,
}

impl FrontEnd {
    fn temp(&mut self) -> Temp {
        let t = Temp(self.next_temp);
        self.next_temp += 1;
        t
    }

    fn emit(&mut self, op: TcgOp) {
        self.ops.push(op);
    }

    fn get_reg(&mut self, r: ArmReg) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::GetReg(t, r));
        t
    }

    fn get_flag(&mut self, f: FlagId) -> Temp {
        if self.flags_written_so_far & f.mask() == 0 {
            self.reads_live_in_flags = true;
        }
        let t = self.temp();
        self.emit(TcgOp::GetFlag(t, f));
        t
    }

    fn put_flag(&mut self, f: FlagId, t: Temp) {
        self.writes_flags = true;
        self.flags_written_so_far |= f.mask();
        self.emit(TcgOp::PutFlag(f, t));
    }

    fn movi(&mut self, v: u32) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::MovI(t, v));
        t
    }

    fn alu(&mut self, op: TcgAlu, a: Temp, b: Temp) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::Alu(op, t, a, b));
        t
    }

    fn alui(&mut self, op: TcgAlu, a: Temp, imm: u32) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::AluI(op, t, a, imm));
        t
    }

    fn setc(&mut self, cond: TcgCond, a: Temp, b: Temp) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::Setc(t, cond, a, b));
        t
    }

    fn not(&mut self, a: Temp) -> Temp {
        let t = self.temp();
        self.emit(TcgOp::Not(t, a));
        t
    }

    fn xor1(&mut self, a: Temp) -> Temp {
        self.alui(TcgAlu::Xor, a, 1)
    }

    /// Evaluate the shifter: returns (value temp, carry-out temp if a
    /// shift occurred).
    fn shifter(&mut self, r: Temp, shift: Shift) -> (Temp, Option<Temp>) {
        let amt = shift.amount() as u32 & 31;
        if amt == 0 {
            return (r, None);
        }
        match shift {
            Shift::Lsl(_) => {
                let v = self.alui(TcgAlu::Shl, r, amt);
                let c0 = self.alui(TcgAlu::Lshr, r, 32 - amt);
                let c = self.alui(TcgAlu::And, c0, 1);
                (v, Some(c))
            }
            Shift::Lsr(_) => {
                let v = self.alui(TcgAlu::Lshr, r, amt);
                let c0 = self.alui(TcgAlu::Lshr, r, amt - 1);
                let c = self.alui(TcgAlu::And, c0, 1);
                (v, Some(c))
            }
            Shift::Asr(_) => {
                let v = self.alui(TcgAlu::Ashr, r, amt);
                let c0 = self.alui(TcgAlu::Lshr, r, amt - 1);
                let c = self.alui(TcgAlu::And, c0, 1);
                (v, Some(c))
            }
            Shift::Ror(_) => {
                let lo = self.alui(TcgAlu::Lshr, r, amt);
                let hi = self.alui(TcgAlu::Shl, r, 32 - amt);
                let v = self.alu(TcgAlu::Or, lo, hi);
                let c = self.alui(TcgAlu::Lshr, v, 31);
                (v, Some(c))
            }
        }
    }

    fn operand2(&mut self, op2: Operand2) -> (Temp, Option<Temp>) {
        match op2 {
            Operand2::Imm(v) => (self.movi(v), None),
            Operand2::Reg(r) => (self.get_reg(r), None),
            Operand2::RegShift(r, s) => {
                let t = self.get_reg(r);
                self.shifter(t, s)
            }
        }
    }

    fn addr(&mut self, a: AddrMode) -> Temp {
        match a {
            AddrMode::Imm(rn, off) => {
                let b = self.get_reg(rn);
                self.alui(TcgAlu::Add, b, off as u32)
            }
            AddrMode::Reg(rn, rm) => {
                let b = self.get_reg(rn);
                let i = self.get_reg(rm);
                self.alu(TcgAlu::Add, b, i)
            }
            AddrMode::RegShift(rn, rm, s) => {
                let b = self.get_reg(rn);
                let i = self.get_reg(rm);
                let sc = self.alui(TcgAlu::Shl, i, s as u32);
                self.alu(TcgAlu::Add, b, sc)
            }
        }
    }

    /// Evaluate an ARM condition from the env flags into a 0/1 temp.
    fn eval_cond(&mut self, cond: Cond) -> Temp {
        match cond {
            Cond::Eq => self.get_flag(FlagId::Z),
            Cond::Ne => {
                let z = self.get_flag(FlagId::Z);
                self.xor1(z)
            }
            Cond::Cs => self.get_flag(FlagId::C),
            Cond::Cc => {
                let c = self.get_flag(FlagId::C);
                self.xor1(c)
            }
            Cond::Mi => self.get_flag(FlagId::N),
            Cond::Pl => {
                let n = self.get_flag(FlagId::N);
                self.xor1(n)
            }
            Cond::Vs => self.get_flag(FlagId::V),
            Cond::Vc => {
                let v = self.get_flag(FlagId::V);
                self.xor1(v)
            }
            Cond::Hi => {
                let c = self.get_flag(FlagId::C);
                let z = self.get_flag(FlagId::Z);
                let nz = self.xor1(z);
                self.alu(TcgAlu::And, c, nz)
            }
            Cond::Ls => {
                let c = self.get_flag(FlagId::C);
                let z = self.get_flag(FlagId::Z);
                let nc = self.xor1(c);
                self.alu(TcgAlu::Or, nc, z)
            }
            Cond::Ge => {
                let n = self.get_flag(FlagId::N);
                let v = self.get_flag(FlagId::V);
                let x = self.alu(TcgAlu::Xor, n, v);
                self.xor1(x)
            }
            Cond::Lt => {
                let n = self.get_flag(FlagId::N);
                let v = self.get_flag(FlagId::V);
                self.alu(TcgAlu::Xor, n, v)
            }
            Cond::Gt => {
                let n = self.get_flag(FlagId::N);
                let v = self.get_flag(FlagId::V);
                let z = self.get_flag(FlagId::Z);
                let x = self.alu(TcgAlu::Xor, n, v);
                let ge = self.xor1(x);
                let nz = self.xor1(z);
                self.alu(TcgAlu::And, ge, nz)
            }
            Cond::Le => {
                let n = self.get_flag(FlagId::N);
                let v = self.get_flag(FlagId::V);
                let z = self.get_flag(FlagId::Z);
                let lt = self.alu(TcgAlu::Xor, n, v);
                self.alu(TcgAlu::Or, z, lt)
            }
            Cond::Al => self.movi(1),
        }
    }

    /// Select `t` when `cond` (0/1) else `f`, branch-free.
    fn select(&mut self, cond: Temp, t: Temp, f: Temp) -> Temp {
        let zero = self.movi(0);
        let mask = self.alu(TcgAlu::Sub, zero, cond); // 0 or 0xffffffff
        let a = self.alu(TcgAlu::And, t, mask);
        let nm = self.not(mask);
        let b = self.alu(TcgAlu::And, f, nm);
        self.alu(TcgAlu::Or, a, b)
    }

    /// Translate one instruction. `flags_live` is the NZCV mask worth
    /// materializing for this instruction. Returns `false` if the
    /// instruction is unsupported.
    fn instr(&mut self, i: &ArmInstr, flags_live: u8) -> bool {
        let cond = i.cond();
        let predicated = i.is_predicated();
        if predicated && matches!(i, ArmInstr::Ldr { .. } | ArmInstr::Str { .. }) {
            return false; // helper fallback
        }
        let guard = predicated.then(|| self.eval_cond(cond));
        match *i {
            ArmInstr::Dp { op, rd, rn, op2, set_flags, .. } => {
                let (b, shifter_c) = self.operand2(op2);
                let a = if op.is_move() { None } else { Some(self.get_reg(rn)) };
                let live = if set_flags { flags_live } else { 0 };
                let (value, c_out, v_out) = match op {
                    DpOp::And | DpOp::Tst => {
                        (self.alu(TcgAlu::And, a.unwrap(), b), shifter_c, None)
                    }
                    DpOp::Eor | DpOp::Teq => {
                        (self.alu(TcgAlu::Xor, a.unwrap(), b), shifter_c, None)
                    }
                    DpOp::Orr => (self.alu(TcgAlu::Or, a.unwrap(), b), shifter_c, None),
                    DpOp::Bic => {
                        let nb = self.not(b);
                        (self.alu(TcgAlu::And, a.unwrap(), nb), shifter_c, None)
                    }
                    DpOp::Mov => (b, shifter_c, None),
                    DpOp::Mvn => (self.not(b), shifter_c, None),
                    DpOp::Add | DpOp::Cmn => {
                        let a = a.unwrap();
                        let r = self.alu(TcgAlu::Add, a, b);
                        let c =
                            (live & FlagId::C.mask() != 0).then(|| self.setc(TcgCond::Ltu, r, a));
                        let v = (live & FlagId::V.mask() != 0).then(|| self.overflow_add(a, b, r));
                        (r, c, v)
                    }
                    DpOp::Adc => {
                        let a = a.unwrap();
                        let cin = self.get_flag(FlagId::C);
                        let ab = self.alu(TcgAlu::Add, a, b);
                        let r = self.alu(TcgAlu::Add, ab, cin);
                        let c = (live & FlagId::C.mask() != 0).then(|| {
                            let c1 = self.setc(TcgCond::Ltu, r, a);
                            let c2 = self.setc(TcgCond::Leu, r, a);
                            self.select(cin, c2, c1)
                        });
                        let v = (live & FlagId::V.mask() != 0).then(|| self.overflow_add(a, b, r));
                        (r, c, v)
                    }
                    DpOp::Sub | DpOp::Cmp => {
                        let a = a.unwrap();
                        let r = self.alu(TcgAlu::Sub, a, b);
                        let c =
                            (live & FlagId::C.mask() != 0).then(|| self.setc(TcgCond::Geu, a, b));
                        let v = (live & FlagId::V.mask() != 0).then(|| self.overflow_sub(a, b, r));
                        (r, c, v)
                    }
                    DpOp::Sbc => {
                        let a = a.unwrap();
                        let cin = self.get_flag(FlagId::C);
                        let ab = self.alu(TcgAlu::Sub, a, b);
                        let ncin = self.xor1(cin);
                        let r = self.alu(TcgAlu::Sub, ab, ncin);
                        let c = (live & FlagId::C.mask() != 0).then(|| {
                            let c1 = self.setc(TcgCond::Gtu, a, b);
                            let c2 = self.setc(TcgCond::Geu, a, b);
                            self.select(cin, c2, c1)
                        });
                        let v = (live & FlagId::V.mask() != 0).then(|| self.overflow_sub(a, b, r));
                        (r, c, v)
                    }
                    DpOp::Rsb => {
                        let a = a.unwrap();
                        let r = self.alu(TcgAlu::Sub, b, a);
                        let c =
                            (live & FlagId::C.mask() != 0).then(|| self.setc(TcgCond::Geu, b, a));
                        let v = (live & FlagId::V.mask() != 0).then(|| self.overflow_sub(b, a, r));
                        (r, c, v)
                    }
                };
                if set_flags {
                    // For logical ops the shifter carry (if any) updates C.
                    self.put_nz_guarded(value, live, guard);
                    if live & FlagId::C.mask() != 0 {
                        if let Some(c) = c_out {
                            self.put_flag_guarded(FlagId::C, c, guard);
                        }
                    }
                    if live & FlagId::V.mask() != 0 {
                        if let Some(v) = v_out {
                            self.put_flag_guarded(FlagId::V, v, guard);
                        }
                    }
                }
                if !op.is_compare() {
                    self.put_reg_guarded(rd, value, guard);
                }
                true
            }
            ArmInstr::Mul { rd, rn, rm, set_flags, .. } => {
                let a = self.get_reg(rn);
                let b = self.get_reg(rm);
                let r = self.alu(TcgAlu::Mul, a, b);
                if set_flags {
                    self.put_nz_guarded(r, flags_live, guard);
                }
                self.put_reg_guarded(rd, r, guard);
                true
            }
            ArmInstr::Ldr { rt, addr, width, signed, .. } => {
                let a = self.addr(addr);
                let t = self.temp();
                self.emit(TcgOp::Load(t, a, width, signed));
                self.put_reg_guarded(rt, t, guard);
                true
            }
            ArmInstr::Str { rt, addr, width, .. } => {
                let v = self.get_reg(rt);
                let a = self.addr(addr);
                self.emit(TcgOp::Store(v, a, width));
                true
            }
            _ => false,
        }
    }

    fn overflow_add(&mut self, a: Temp, b: Temp, r: Temp) -> Temp {
        let xa = self.alu(TcgAlu::Xor, a, r);
        let xb = self.alu(TcgAlu::Xor, b, r);
        let both = self.alu(TcgAlu::And, xa, xb);
        self.alui(TcgAlu::Lshr, both, 31)
    }

    fn overflow_sub(&mut self, a: Temp, b: Temp, r: Temp) -> Temp {
        let xab = self.alu(TcgAlu::Xor, a, b);
        let xar = self.alu(TcgAlu::Xor, a, r);
        let both = self.alu(TcgAlu::And, xab, xar);
        self.alui(TcgAlu::Lshr, both, 31)
    }

    fn put_reg_guarded(&mut self, rd: ArmReg, value: Temp, guard: Option<Temp>) {
        match guard {
            None => self.emit(TcgOp::PutReg(rd, value)),
            Some(g) => {
                let old = self.get_reg(rd);
                let sel = self.select(g, value, old);
                self.emit(TcgOp::PutReg(rd, sel));
            }
        }
    }

    fn put_flag_guarded(&mut self, f: FlagId, value: Temp, guard: Option<Temp>) {
        match guard {
            None => self.put_flag(f, value),
            Some(g) => {
                let old = self.get_flag(f);
                let sel = self.select(g, value, old);
                self.put_flag(f, sel);
            }
        }
    }

    fn put_nz_guarded(&mut self, result: Temp, live: u8, guard: Option<Temp>) {
        if live & FlagId::N.mask() != 0 {
            let n = self.alui(TcgAlu::Lshr, result, 31);
            self.put_flag_guarded(FlagId::N, n, guard);
        }
        if live & FlagId::Z.mask() != 0 {
            let zero = self.movi(0);
            let z = self.setc(TcgCond::Eq, result, zero);
            self.put_flag_guarded(FlagId::Z, z, guard);
        }
    }
}

/// Translate a guest block to micro-ops.
///
/// `mem` is used for the cross-block flag-liveness scan. Translation
/// stops early at the first unsupported instruction (the engine
/// interprets it with a helper and resumes at the next PC).
pub fn translate_block(mem: &Memory, block: &GuestBlock) -> TcgBlock {
    translate_span(block.pc, &block.instrs, &FlagLiveness::of_block(mem, block))
}

/// [`translate_block`] for the instructions `instrs` at `pc0` under a
/// liveness already computed for exactly that span.
pub(crate) fn translate_span(pc0: u32, instrs: &[ArmInstr], live: &FlagLiveness) -> TcgBlock {
    let mut fe = FrontEnd {
        ops: Vec::new(),
        next_temp: 0,
        reads_live_in_flags: false,
        writes_flags: false,
        flags_written_so_far: 0,
    };
    let mut end = BlockEnd::Jump(pc0.wrapping_add(4 * instrs.len() as u32));
    let mut unsupported_at = None;
    for (idx, i) in instrs.iter().enumerate() {
        let pc = pc0.wrapping_add(4 * idx as u32);
        let next = pc.wrapping_add(4);
        match *i {
            ArmInstr::B { offset, cond } => {
                let taken = next.wrapping_add((offset as u32).wrapping_mul(4));
                if cond == Cond::Al {
                    end = BlockEnd::Jump(taken);
                } else {
                    let c = fe.eval_cond(cond);
                    end = BlockEnd::Branch { cond: c, taken, not_taken: next };
                }
                break;
            }
            ArmInstr::Bl { offset, cond } => {
                debug_assert_eq!(cond, Cond::Al, "conditional bl unsupported");
                let taken = next.wrapping_add((offset as u32).wrapping_mul(4));
                let lr = fe.movi(next);
                fe.emit(TcgOp::PutReg(ArmReg::Lr, lr));
                end = BlockEnd::Jump(taken);
                break;
            }
            ArmInstr::Bx { rm, cond } => {
                debug_assert_eq!(cond, Cond::Al, "conditional bx unsupported");
                let t = fe.get_reg(rm);
                end = BlockEnd::Indirect(t);
                break;
            }
            ArmInstr::Svc { imm, .. } => {
                if imm == 0 {
                    end = BlockEnd::Halt;
                } else {
                    end = BlockEnd::Trap(pc);
                }
                break;
            }
            _ => {
                // Flags worth materializing for this instruction: those
                // read by a later in-block instruction before being
                // rewritten, plus those live out of the block.
                if !fe.instr(i, i.flags_written() & live.live_before(idx + 1)) {
                    unsupported_at = Some(idx);
                    end = BlockEnd::Jump(pc); // engine interprets from here
                    break;
                }
            }
        }
    }
    let done = unsupported_at.unwrap_or(instrs.len());
    let written = instrs[..done].iter().fold(0, |w, i| w | flags_killed(i));
    TcgBlock {
        ops: fe.ops,
        end,
        reads_live_in_flags: fe.reads_live_in_flags,
        writes_flags: fe.writes_flags,
        merges_live_in_flags: fe.writes_flags && live.live_before(done) & !written != 0,
        unsupported_at,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::lower_block;
    use ldbt_x86::Gpr;

    fn tcg_of(instrs: Vec<ArmInstr>) -> TcgBlock {
        let mem = Memory::new();
        translate_block(&mem, &GuestBlock { pc: 0x1_0000, instrs })
    }

    /// Every block reachable from the entry of each of the twelve suite
    /// `Test` images, with the memory it was decoded from.
    pub(crate) fn suite_blocks() -> Vec<(Memory, Vec<GuestBlock>)> {
        use ldbt_workloads::{source, Workload, SUITE};
        let mut out = Vec::new();
        for b in &SUITE {
            let src = source(b, Workload::Test);
            let image = ldbt_compiler::link::build_arm_image(&src, &ldbt_compiler::Options::o2())
                .expect("suite compiles");
            let mut mem = Memory::new();
            image.load_into(&mut mem);
            let (mut seen, mut work, mut blocks) = (Vec::new(), vec![image.entry], Vec::new());
            while let Some(pc) = work.pop() {
                if seen.contains(&pc) {
                    continue;
                }
                seen.push(pc);
                let block = decode_block(&mem, pc);
                let end = pc.wrapping_add(4 * block.instrs.len() as u32);
                match block.instrs.last() {
                    None => continue,
                    Some(ArmInstr::B { offset, cond }) => {
                        work.push(end.wrapping_add((*offset as u32).wrapping_mul(4)));
                        if *cond != Cond::Al {
                            work.push(end);
                        }
                    }
                    Some(ArmInstr::Bl { offset, .. }) => {
                        work.extend([end, end.wrapping_add((*offset as u32).wrapping_mul(4))]);
                    }
                    Some(i) if i.is_block_end() => {}
                    Some(_) => work.push(end),
                }
                blocks.push(block);
            }
            out.push((mem, blocks));
        }
        out
    }

    /// The flags instruction `idx` of `block` must materialize, as
    /// `translate_block` derived them per instruction before
    /// [`FlagLiveness`] (kept verbatim as the oracle).
    fn flags_live_oracle(mem: &Memory, block: &GuestBlock, idx: usize) -> u8 {
        let n = block.instrs.len();
        let written = block.instrs[idx].flags_written();
        let mut live = 0u8;
        let mut redefined = 0u8;
        for j in &block.instrs[idx + 1..] {
            live |= j.flags_read() & written & !redefined;
            redefined |= j.flags_written();
        }
        let live_out = match block.instrs.last() {
            Some(ArmInstr::B { offset, cond }) => {
                let end_pc = block.pc.wrapping_add(4 * n as u32);
                let taken = end_pc.wrapping_add((*offset as u32).wrapping_mul(4));
                let mut l = flags_live_at(mem, taken, 2);
                if *cond != Cond::Al {
                    l |= flags_live_at(mem, end_pc, 2);
                }
                l
            }
            _ => 0b1111, // calls/returns/halt: conservative
        };
        live | (live_out & written & !redefined)
    }

    /// Guest flags `instrs` reads before writing them, and those it
    /// writes (the rule planner's former helper, verbatim).
    fn flags_read_in(instrs: &[ArmInstr]) -> (u8, u8) {
        let (mut live, mut written) = (0u8, 0u8);
        for i in instrs {
            live |= i.flags_read() & !written;
            written |= i.flags_written();
        }
        (live, written)
    }

    /// Guest flags read by `rest`, the tail of `block`, before being
    /// written, plus conservative liveness at the end (the rule
    /// planner's former helper, verbatim).
    fn flags_consumed_after(rest: &[ArmInstr], block: &GuestBlock, mem: &Memory) -> u8 {
        let (mut live, written) = flags_read_in(rest);
        if written != 0b1111 {
            // Flags may escape through the block's successors.
            let live_out = match block.instrs.last() {
                Some(ArmInstr::B { offset, cond }) => {
                    let end_pc = block.pc.wrapping_add(4 * block.instrs.len() as u32);
                    let taken = end_pc.wrapping_add((*offset as u32).wrapping_mul(4));
                    let mut l = flags_live_at(mem, taken, 2);
                    if *cond != Cond::Al {
                        l |= flags_live_at(mem, end_pc, 2);
                    }
                    l
                }
                _ => 0b1111,
            };
            live |= live_out & !written;
        }
        live
    }

    /// The one liveness pass reproduces both definitions it replaced, at
    /// every position of every suite block — and for a stretch cut out
    /// of a block's middle under a given exit liveness (all live here,
    /// which the oracle assumes for a block that does not end in `b`).
    #[test]
    fn flag_liveness_equals_the_definitions_it_replaced() {
        let mut positions = 0;
        for (mem, blocks) in suite_blocks() {
            for block in &blocks {
                let n = block.instrs.len();
                let live = FlagLiveness::of_block(&mem, block);
                // (Every but the last instruction, cut out as a stretch.)
                let mid = GuestBlock { pc: block.pc, instrs: block.instrs[..n - 1].to_vec() };
                let mid_live = FlagLiveness::with_live_out(&mid.instrs, 0b1111);
                for k in 0..=n {
                    let rest = &block.instrs[k..];
                    assert_eq!(live.read_in_block(k), flags_read_in(rest).0, "{:#x}+{k}", block.pc);
                    assert_eq!(
                        live.live_before(k),
                        flags_consumed_after(rest, block, &mem),
                        "{:#x}+{k}",
                        block.pc
                    );
                    if k < n {
                        let written = block.instrs[k].flags_written();
                        assert_eq!(
                            written & live.live_before(k + 1),
                            flags_live_oracle(&mem, block, k),
                            "{:#x}+{k}",
                            block.pc
                        );
                    }
                    if k + 1 < n {
                        assert_eq!(
                            mid.instrs[k].flags_written() & mid_live.live_before(k + 1),
                            flags_live_oracle(&mem, &mid, k),
                            "mid {:#x}+{k}",
                            block.pc
                        );
                    }
                    positions += 1;
                }
            }
        }
        assert!(positions > 5_000, "the suite has blocks: {positions}");
    }

    /// A predicated flag setter writes only when its condition holds, so
    /// the flags set before it stay live across it and are materialized.
    #[test]
    fn predicated_flag_setter_kills_nothing() {
        let instrs = [
            ArmInstr::dps(DpOp::And, ArmReg::R9, ArmReg::R9, Operand2::Reg(ArmReg::R1)),
            ArmInstr::Dp {
                op: DpOp::Tst,
                rd: ArmReg::R9,
                rn: ArmReg::R9,
                op2: Operand2::Reg(ArmReg::R2),
                set_flags: true,
                cond: Cond::Eq,
            },
        ];
        let live = FlagLiveness::with_live_out(&instrs, 0b1000);
        assert_eq!(live.live_before(1), 0b1100, "Z for the condition, N through the tst");
        let tcg = translate_span(0x1_0000, &instrs, &live);
        let puts_n = tcg.ops.iter().filter(|o| matches!(o, TcgOp::PutFlag(FlagId::N, _))).count();
        assert_eq!(puts_n, 2, "the ands materializes N too: {:?}", tcg.ops);
        assert!(!tcg.merges_live_in_flags, "the ands writes every flag live at the end");
    }

    /// Live-in guest flags are an *explicit* frontend fact
    /// (`reads_live_in_flags`), satisfied by the backend's flag stub
    /// from the env-saved flags — never by reading whatever host EFLAGS
    /// the previous block left behind. That routing is what lets the
    /// superblock optimizer (sb.rs) treat host EFLAGS as dead at every
    /// seam: `entry_reads` on the lowered code must report no host
    /// register (but %esp) and no EFLAGS bit, even for a block whose
    /// first guest instruction branches on live-in condition codes.
    #[test]
    fn live_in_flags_are_explicit_and_env_routed() {
        let plain = tcg_of(vec![ArmInstr::dp(
            DpOp::Add,
            ArmReg::R1,
            ArmReg::R1,
            Operand2::Reg(ArmReg::R0),
        )]);
        assert!(!plain.reads_live_in_flags);
        let branchy = tcg_of(vec![ArmInstr::B { offset: 3, cond: Cond::Ne }]);
        assert!(branchy.reads_live_in_flags, "bne at block start consumes live-in flags");
        for b in [&plain, &branchy] {
            let code = lower_block(b).code;
            let (regs, flags) = crate::sb::entry_reads(&code);
            assert_eq!(regs & !(1 << Gpr::Esp.index()), 0, "reads host regs {regs:#010b}");
            assert_eq!(flags, 0, "reads host EFLAGS {flags:#06b}");
        }
    }
}
