//! Lowering to host (x86) code: the one block emitter.
//!
//! `Emitter` owns everything a translated block is made of besides the
//! instructions a translator hands it: the code vector, the declared
//! exits, the register pool and the guest-register home table. TCG
//! lowering ([`lower_block`]), the JIT's narrower pool
//! (`jit::lower`) and rule lowering ([`crate::rules`]) all drive
//! the same value, so how a guest register is homed and written back and
//! what an exit stub looks like are each decided in one place.
//!
//! QEMU-style conventions:
//!
//! * the guest register file lives in the env; each guest register
//!   accessed by a block gets a *home* host register, loaded on first use
//!   and written back (if dirty) at every block exit. A home lives for
//!   the whole block, across every rule/TCG boundary; it leaves early only
//!   under pool pressure, to make room for a rule's bound registers, or
//!   because it sits in `%ecx`, the flag stub's scratch,
//! * `%eax` is the dispatcher register (the block returns the next guest
//!   PC in it) and doubles as scratch,
//! * temporaries that exceed the register pool spill to env slots;
//!   temps and spill slots belong to one TCG stretch,
//! * copies are coalesced the way QEMU's register allocator does it: an
//!   op whose operand dies there takes the operand's register for its
//!   result (`Mov` just renames), and `PutReg` of a dying temp makes the
//!   temp's register the guest register's dirty home, freeing the old
//!   one; no `movl %r, %r` is ever emitted,
//! * a `MovI` emits nothing: its temp stays an immediate until a use
//!   needs it in a register, and `PutReg`, `PutFlag`, a 32-bit `Store`,
//!   an ALU or compare source and the block's exit take it as `$imm` (a
//!   constant branch condition picks its exit statically),
//! * condition codes follow one flag-mode protocol (env `flagmode`):
//!   - only the §5 lazy save ([`Emitter::lazy_flag_save`]) sets it
//!     nonzero, after a rule body whose guest flags are live out in host
//!     EFLAGS;
//!   - a TCG stretch that writes guest flags stores 0, and so does the
//!     flag stub;
//!   - the stub runs at the head of a stretch that reads live-in flags,
//!     or writes some while others pass through it live, and, when
//!     flag-mode is nonzero, materializes the env NZCV slots from the
//!     saved EFLAGS image — the moral equivalent of the paper's
//!     two-version blocks, selected by the same boolean;
//!   - inside a block the emitter knows when flag-mode is 0 (after a
//!     store or a stub, until a lazy save) and then emits neither.

use crate::env::{
    env_mem, flag_mem, reg_mem, FlagId, FLAGMODE_OFFSET, HOSTFLAGS_OFFSET, SPILL_OFFSET,
    SPILL_SLOTS,
};
use crate::tcg::{BlockEnd, TcgAlu, TcgBlock, TcgCond, TcgOp, Temp};
use ldbt_arm::ArmReg;
use ldbt_isa::Width;
use ldbt_x86::{AluOp, Cc, Gpr, Operand, ShiftOp, UnOp, X86Instr, X86Mem};

/// The allocatable host register pool: every general-purpose register
/// except `%eax` (exit-pc linkage) and `%esp` (host stack). The region
/// allocator in [`crate::sb`] pins guest registers to the pool entries a
/// region's code leaves untouched.
pub(crate) const POOL: [Gpr; 6] = [Gpr::Ecx, Gpr::Edx, Gpr::Ebx, Gpr::Esi, Gpr::Edi, Gpr::Ebp];

fn cc_of(c: TcgCond) -> Cc {
    match c {
        TcgCond::Eq => Cc::E,
        TcgCond::Ne => Cc::Ne,
        TcgCond::Ltu => Cc::B,
        TcgCond::Leu => Cc::Be,
        TcgCond::Geu => Cc::Ae,
        TcgCond::Gtu => Cc::A,
        TcgCond::Lts => Cc::L,
        TcgCond::Ges => Cc::Ge,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegUse {
    Free,
    Temp(Temp),
    Home(ArmReg),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TLoc {
    Reg(Gpr),
    Spill(u32),
    /// A constant not yet placed in a register (a folded `MovI`).
    Imm(u32),
}

/// The block emitter (see module docs). A translator asks it for guest
/// register homes, hands it TCG ops or finished host instructions, and
/// ends the block through [`Emitter::exit`] or [`Emitter::exit_on_cc`].
pub(crate) struct Emitter {
    code: Vec<X86Instr>,
    /// Patchable direct exits, pushed by [`Emitter::ret_to`] and nowhere
    /// else.
    exits: Vec<(usize, u32)>,
    /// The pool registers available. The JIT path shrinks this,
    /// modeling the extra spills the paper attributes to LLVM keeping a
    /// copy of the guest register file in host memory (reserved base
    /// registers, shadow slots).
    pool: &'static [Gpr],
    /// What each host register holds, by `Gpr::index()`.
    reg_state: [RegUse; 8],
    /// Guest registers cached in host registers for the block (QEMU
    /// style), by `ArmReg::index()`: the home and its dirty bit.
    home: [Option<(Gpr, bool)>; 16],
    /// Location and last use of each temp of the TCG stretch being
    /// lowered, by temp number.
    temp_loc: Vec<Option<TLoc>>,
    last_use: Vec<usize>,
    free_slots: Vec<u32>,
    /// Block-local fact: env flag-mode is known to be 0 here, so the
    /// NZCV slots are authoritative. Set by a stretch's flag stub or
    /// flag-mode store, cleared by a §5 lazy save.
    flagmode_zero: bool,
    /// Host instructions spent at rule/TCG boundaries (the
    /// `rule_boundary_instrs` counter).
    pub(crate) boundary_instrs: usize,
}

impl Emitter {
    /// An empty block lowered with the first `pool` registers of [`POOL`]
    /// (at least 3: a two-operand ALU op pins two of them via `forbid`
    /// and still needs a victim).
    pub(crate) fn new(pool: usize) -> Emitter {
        Emitter {
            code: Vec::new(),
            exits: Vec::new(),
            pool: &POOL[..pool],
            reg_state: [RegUse::Free; 8],
            home: [None; 16],
            temp_loc: Vec::new(),
            last_use: Vec::new(),
            free_slots: (0..SPILL_SLOTS).rev().collect(),
            flagmode_zero: false,
            boundary_instrs: 0,
        }
    }

    /// The finished block.
    pub(crate) fn finish(self) -> LoweredBlock {
        LoweredBlock { code: self.code, exits: self.exits }
    }

    /// Append finished host instructions (a rule body).
    pub(crate) fn extend(&mut self, instrs: impl IntoIterator<Item = X86Instr>) {
        self.code.extend(instrs);
    }

    pub(crate) fn emit(&mut self, i: X86Instr) {
        debug_assert!(
            !matches!(i, X86Instr::Mov { dst: Operand::Reg(d), src: Operand::Reg(s) } if d == s),
            "self-move {i:?}"
        );
        self.code.push(i);
    }

    fn spill_mem(&self, slot: u32) -> X86Mem {
        env_mem(SPILL_OFFSET + 4 * slot)
    }

    fn store_home(&mut self, g: ArmReg, r: Gpr) {
        self.emit(X86Instr::Mov { dst: Operand::Mem(reg_mem(g)), src: Operand::Reg(r) });
    }

    /// Grab a free pool register, evicting if necessary. Registers
    /// holding temps in `forbid` are never victimized (they are operands
    /// of the op being lowered).
    fn grab_reg(&mut self, forbid: &[Temp]) -> Gpr {
        let pool = self.pool;
        if let Some(r) = pool.iter().find(|r| self.reg_state[r.index()] == RegUse::Free) {
            return *r;
        }
        // Prefer evicting a clean home, then a dirty home, then spill the
        // temp with the furthest last use.
        let mut clean = None;
        let mut dirty = None;
        for r in pool.iter().copied() {
            if let RegUse::Home(g) = self.reg_state[r.index()] {
                if matches!(self.home[g.index()], Some((_, true))) {
                    dirty.get_or_insert(r);
                } else {
                    clean.get_or_insert(r);
                }
            }
        }
        if let Some(r) = clean.or(dirty) {
            self.evict(r);
            return r;
        }
        // All pool regs hold temps: spill the one used furthest away.
        let (victim_reg, victim_temp) = pool
            .iter()
            .filter_map(|r| match self.reg_state[r.index()] {
                RegUse::Temp(t) if !forbid.contains(&t) => Some((*r, t)),
                _ => None,
            })
            .max_by_key(|(_, t)| self.last_use[t.0 as usize])
            .expect("pool has evictable temps");
        // The pool holds at most `POOL.len()` temps, each spillable once,
        // and slots are recycled on reload/death — pressure can never
        // exhaust `SPILL_SLOTS` (16) while the pool is ≥ 3 wide.
        debug_assert!(
            self.free_slots.len() <= SPILL_SLOTS as usize,
            "spill slot bookkeeping overflowed SPILL_SLOTS"
        );
        let slot = self.free_slots.pop().expect("out of spill slots");
        let m = self.spill_mem(slot);
        self.emit(X86Instr::Mov { dst: Operand::Mem(m), src: Operand::Reg(victim_reg) });
        self.temp_loc[victim_temp.0 as usize] = Some(TLoc::Spill(slot));
        self.reg_state[victim_reg.index()] = RegUse::Free;
        victim_reg
    }

    /// Forget the home `r` holds, if any, writing it back when dirty.
    fn evict(&mut self, r: Gpr) {
        if let RegUse::Home(g) = self.reg_state[r.index()] {
            if matches!(self.home[g.index()], Some((_, true))) {
                self.store_home(g, r);
            }
            self.home[g.index()] = None;
            self.reg_state[r.index()] = RegUse::Free;
        }
    }

    /// The current home of a guest register, if it has one.
    pub(crate) fn home_of(&self, g: ArmReg) -> Option<Gpr> {
        self.home[g.index()].map(|(r, _)| r)
    }

    /// The home register for a guest register, loading it if requested.
    fn guest_home(&mut self, g: ArmReg, load: bool) -> Option<Gpr> {
        if let Some(r) = self.home_of(g) {
            return Some(r);
        }
        // Only cache if a register is free or a home can be evicted —
        // avoid thrashing temps.
        let has_room = self
            .pool
            .iter()
            .any(|r| matches!(self.reg_state[r.index()], RegUse::Free | RegUse::Home(_)));
        if !has_room {
            return None;
        }
        let r = self.grab_reg(&[]);
        self.reg_state[r.index()] = RegUse::Home(g);
        self.home[g.index()] = Some((r, false));
        if load {
            self.emit(X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(reg_mem(g)) });
        }
        Some(r)
    }

    /// Make room for a rule application over the guest registers
    /// `bound`: evict the homes of other guest registers, clean ones
    /// first, until every bound register without a home can take a free
    /// pool register. Homes the rule binds stay where they are.
    pub(crate) fn make_room(&mut self, bound: impl Iterator<Item = ArmReg>) {
        let keep = bound.fold(0u16, |m, g| m | 1 << g.index());
        let need = (0..16).filter(|&i| keep >> i & 1 != 0 && self.home[i].is_none()).count();
        let at = self.code.len();
        loop {
            let free = self.pool.iter().filter(|r| self.reg_state[r.index()] == RegUse::Free);
            if free.count() >= need {
                break;
            }
            let victim = |dirty: bool| {
                self.pool.iter().copied().find(|r| match self.reg_state[r.index()] {
                    RegUse::Home(g) => {
                        keep >> g.index() & 1 == 0 && self.home[g.index()] == Some((*r, dirty))
                    }
                    _ => false,
                })
            };
            let Some(r) = victim(false).or_else(|| victim(true)) else { break };
            self.evict(r);
        }
        self.boundary_instrs += self.code.len() - at;
    }

    /// The home of a guest register a rule body names, loaded on first
    /// use. The caller has made room ([`Emitter::make_room`]).
    pub(crate) fn home(&mut self, g: ArmReg) -> Gpr {
        self.guest_home(g, true).expect("room made for every bound register")
    }

    /// A rule body defined `g`: its home, if any, now differs from env.
    pub(crate) fn mark_dirty(&mut self, g: ArmReg) {
        if let Some((_, dirty)) = &mut self.home[g.index()] {
            *dirty = true;
        }
    }

    /// Write every dirty home back to env, in guest register order.
    fn writeback(&mut self) {
        for i in 0..self.home.len() {
            if let Some((r, true)) = self.home[i] {
                self.store_home(ArmReg::from_index(i), r);
            }
        }
    }

    /// The three-instruction lazy save of paper §5 after a rule body
    /// that left guest flags in host EFLAGS: flag-mode becomes nonzero.
    pub(crate) fn lazy_flag_save(&mut self) {
        self.emit(X86Instr::Pushfd);
        self.emit(X86Instr::Pop { dst: Operand::Mem(env_mem(HOSTFLAGS_OFFSET)) });
        self.emit(X86Instr::Mov {
            dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
            src: Operand::Imm(1), // bit1 = 0: sub carry polarity
        });
        self.flagmode_zero = false;
    }

    /// Materialize a temp into a pool register, un-spilling it (or placing
    /// its constant) if needed. `forbid` protects other operands of the
    /// current op from eviction.
    fn unspill(&mut self, t: Temp, forbid: &[Temp]) -> Gpr {
        let loc = self.temp_loc[t.0 as usize];
        if let Some(TLoc::Reg(r)) = loc {
            return r;
        }
        // Grab before freeing the slot, so a spill made to free a
        // register cannot land on the value being loaded.
        let r = self.grab_reg(forbid);
        let src = match loc {
            Some(TLoc::Spill(slot)) => {
                self.free_slots.push(slot);
                Operand::Mem(self.spill_mem(slot))
            }
            Some(TLoc::Imm(v)) => Operand::Imm(v as i32),
            _ => panic!("use of undefined temp {t:?}"),
        };
        self.emit(X86Instr::Mov { dst: Operand::Reg(r), src });
        self.reg_state[r.index()] = RegUse::Temp(t);
        self.temp_loc[t.0 as usize] = Some(TLoc::Reg(r));
        r
    }

    /// A source operand for a temp (spills stay in memory, constants
    /// are immediates).
    fn temp_operand(&self, t: Temp) -> Operand {
        match self.temp_loc[t.0 as usize] {
            Some(TLoc::Reg(r)) => Operand::Reg(r),
            Some(TLoc::Spill(slot)) => Operand::Mem(self.spill_mem(slot)),
            Some(TLoc::Imm(v)) => Operand::Imm(v as i32),
            None => panic!("use of undefined temp {t:?}"),
        }
    }

    /// A source operand for a temp that may be an immediate but not
    /// memory (un-spilled into a register).
    fn reg_or_imm(&mut self, t: Temp, forbid: &[Temp]) -> Operand {
        match self.temp_loc[t.0 as usize] {
            Some(TLoc::Imm(v)) => Operand::Imm(v as i32),
            _ => Operand::Reg(self.unspill(t, forbid)),
        }
    }

    /// Whether op `idx` is the last reader of `t`.
    fn dies(&self, t: Temp, idx: usize) -> bool {
        self.last_use[t.0 as usize] == idx
    }

    /// Hand `from`'s register to `to` when `from` dies at op `idx` and
    /// holds a register; the register, if handed over.
    fn take_reg(&mut self, to: Temp, from: Temp, idx: usize) -> Option<Gpr> {
        let Some(TLoc::Reg(r)) = self.temp_loc[from.0 as usize] else { return None };
        if !self.dies(from, idx) {
            return None;
        }
        self.temp_loc[from.0 as usize] = None;
        self.temp_loc[to.0 as usize] = Some(TLoc::Reg(r));
        self.reg_state[r.index()] = RegUse::Temp(to);
        Some(r)
    }

    /// Allocate a register for a temp definition.
    fn def_temp(&mut self, t: Temp, forbid: &[Temp]) -> Gpr {
        let r = self.grab_reg(forbid);
        self.reg_state[r.index()] = RegUse::Temp(t);
        self.temp_loc[t.0 as usize] = Some(TLoc::Reg(r));
        r
    }

    /// Release the temps of op `idx` whose last use has passed (a temp
    /// dies at the op that last reads it, or at its own definition when
    /// nothing reads it). A temp whose register went to another temp or
    /// a home has no location left to release.
    fn expire(&mut self, op: &TcgOp, idx: usize) {
        for t in op.uses().into_iter().chain(op.def()) {
            if self.last_use[t.0 as usize] > idx {
                continue;
            }
            match self.temp_loc[t.0 as usize].take() {
                Some(TLoc::Reg(r)) => self.reg_state[r.index()] = RegUse::Free,
                Some(TLoc::Spill(slot)) => self.free_slots.push(slot),
                Some(TLoc::Imm(_)) | None => {}
            }
        }
    }

    /// Lower a TCG stretch — flag prologue and ops, not the terminator —
    /// into the block. The caller ends it with [`Emitter::exit`] when the
    /// stretch closes the block; otherwise the next rule application or
    /// stretch continues from the homes and flag-mode fact it leaves.
    /// Temps and spill slots are the stretch's own.
    pub(crate) fn lower_ops(&mut self, block: &TcgBlock) {
        debug_assert!(
            !self.reg_state.iter().any(|s| matches!(s, RegUse::Temp(_))),
            "temps never cross a stretch"
        );
        let temps = block.ops.iter().filter_map(|o| o.def()).map(|t| t.0 as usize + 1).max();
        self.last_use.clear();
        self.last_use.resize(temps.unwrap_or(0), 0);
        for (i, op) in block.ops.iter().enumerate() {
            for u in op.uses() {
                self.last_use[u.0 as usize] = i;
            }
        }
        if let BlockEnd::Branch { cond: t, .. } | BlockEnd::Indirect(t) = block.end {
            self.last_use[t.0 as usize] = block.ops.len();
        }
        self.temp_loc.clear();
        self.temp_loc.resize(self.last_use.len(), None);
        self.free_slots.clear();
        self.free_slots.extend((0..SPILL_SLOTS).rev());
        // Flag prologue, decided on the fact the stretch starts from: in
        // one stretch the mode store still follows a stub, which region
        // specialization drops as known zero.
        let (at, first) = (self.code.len(), self.code.is_empty());
        let stub = !self.flagmode_zero && (block.reads_live_in_flags || block.merges_live_in_flags);
        if stub {
            // The stub's scratch register.
            self.evict(Gpr::Ecx);
            self.flag_stub();
        }
        if block.writes_flags && !self.flagmode_zero {
            self.emit(X86Instr::Mov {
                dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
                src: Operand::Imm(0),
            });
        }
        self.flagmode_zero |= stub || block.writes_flags;
        if !first {
            self.boundary_instrs += self.code.len() - at;
        }
        for (idx, op) in block.ops.iter().enumerate() {
            self.lower_op(op, idx);
            self.expire(op, idx);
            self.debug_check();
        }
    }

    /// Lower op `idx` of the stretch.
    fn lower_op(&mut self, op: &TcgOp, idx: usize) {
        match *op {
            TcgOp::MovI(d, v) => self.temp_loc[d.0 as usize] = Some(TLoc::Imm(v)),
            TcgOp::Mov(d, s) => match self.temp_loc[s.0 as usize] {
                loc @ Some(TLoc::Imm(_)) => self.temp_loc[d.0 as usize] = loc,
                // A dying spilled source is renamed (a dying one in a
                // register too, by `def_copy`).
                loc @ Some(TLoc::Spill(_)) if self.dies(s, idx) => {
                    self.temp_loc[s.0 as usize] = None;
                    self.temp_loc[d.0 as usize] = loc;
                }
                _ => {
                    self.def_copy(d, s, None, idx);
                }
            },
            TcgOp::Alu(aop, d, a, b) => {
                let r = self.def_copy(d, a, Some(b), idx);
                let sb = self.temp_operand(b);
                match aop {
                    TcgAlu::Mul => {
                        let src = match sb {
                            Operand::Imm(v) => {
                                self.emit(X86Instr::mov_imm(Gpr::Eax, v));
                                Operand::Reg(Gpr::Eax)
                            }
                            src => src,
                        };
                        self.emit(X86Instr::Imul { dst: r, src })
                    }
                    _ => {
                        self.emit(X86Instr::Alu { op: alu_of(aop), dst: Operand::Reg(r), src: sb })
                    }
                }
            }
            TcgOp::AluI(aop, d, a, imm) => {
                let r = self.def_copy(d, a, None, idx);
                match aop {
                    TcgAlu::Shl | TcgAlu::Lshr | TcgAlu::Ashr => {
                        let sop = match aop {
                            TcgAlu::Shl => ShiftOp::Shl,
                            TcgAlu::Lshr => ShiftOp::Shr,
                            _ => ShiftOp::Sar,
                        };
                        let count = (imm & 31) as u8;
                        if count != 0 {
                            self.emit(X86Instr::Shift { op: sop, dst: Operand::Reg(r), count });
                        }
                    }
                    TcgAlu::Mul => {
                        self.emit(X86Instr::mov_imm(Gpr::Eax, imm as i32));
                        self.emit(X86Instr::Imul { dst: r, src: Operand::Reg(Gpr::Eax) });
                    }
                    _ => self.emit(X86Instr::alu_ri(alu_of(aop), r, imm as i32)),
                }
            }
            TcgOp::Not(d, a) => {
                let r = self.def_copy(d, a, None, idx);
                self.emit(X86Instr::Un { op: UnOp::Not, dst: Operand::Reg(r) });
            }
            TcgOp::Neg(d, a) => {
                let r = self.def_copy(d, a, None, idx);
                self.emit(X86Instr::Un { op: UnOp::Neg, dst: Operand::Reg(r) });
            }
            TcgOp::Setc(d, cond, a, b) => {
                let sa = self.unspill(a, &[b]);
                let sb = self.temp_operand(b);
                self.emit(X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(sa), src: sb });
                // setcc needs a byte register; go through %eax (movs and
                // register shuffles below do not touch EFLAGS).
                self.emit(X86Instr::mov_imm(Gpr::Eax, 0));
                self.emit(X86Instr::Setcc { cc: cc_of(cond), dst: Gpr::Eax });
                let r = self.def_temp(d, &[]);
                self.emit(X86Instr::mov_rr(r, Gpr::Eax));
            }
            TcgOp::GetReg(d, g) => {
                let home = self.guest_home(g, true);
                let r = self.def_temp(d, &[]);
                // Under pool pressure `d` may evict the home just made:
                // its register then already holds `g`.
                if home != Some(r) {
                    let src = home.map_or(Operand::Mem(reg_mem(g)), Operand::Reg);
                    self.emit(X86Instr::Mov { dst: Operand::Reg(r), src });
                }
            }
            TcgOp::PutReg(g, s) => {
                if let Some(TLoc::Reg(r)) = self.temp_loc[s.0 as usize] {
                    if self.dies(s, idx) {
                        // Re-home: the temp's register becomes `g`'s dirty
                        // home, and the old home's stale value is dropped.
                        if let Some((old, _)) = self.home[g.index()] {
                            self.reg_state[old.index()] = RegUse::Free;
                        }
                        self.temp_loc[s.0 as usize] = None;
                        self.reg_state[r.index()] = RegUse::Home(g);
                        self.home[g.index()] = Some((r, true));
                        return;
                    }
                }
                let src = self.reg_or_imm(s, &[]);
                // (A home allocated here is never `src`: `guest_home`
                // takes a free register or another home, not a temp's.)
                match self.guest_home(g, false) {
                    Some(h) => {
                        self.emit(X86Instr::Mov { dst: Operand::Reg(h), src });
                        self.mark_dirty(g);
                    }
                    None => self.emit(X86Instr::Mov { dst: Operand::Mem(reg_mem(g)), src }),
                }
            }
            TcgOp::GetFlag(d, f) => {
                let r = self.def_temp(d, &[]);
                self.emit(X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(flag_mem(f)) });
            }
            TcgOp::PutFlag(f, s) => {
                let src = self.reg_or_imm(s, &[]);
                self.emit(X86Instr::Mov { dst: Operand::Mem(flag_mem(f)), src });
            }
            TcgOp::Load(d, a, width, signed) => {
                let base = self.unspill(a, &[]);
                let r = self.def_temp(d, &[a]);
                let m = X86Mem::base(base);
                match width {
                    Width::W32 => {
                        self.emit(X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(m) })
                    }
                    w => self.emit(X86Instr::Movx {
                        sign: signed,
                        width: w,
                        dst: r,
                        src: Operand::Mem(m),
                    }),
                }
            }
            TcgOp::Store(s, a, width) => {
                let val = self.reg_or_imm(s, &[a]);
                let dst = X86Mem::base(self.unspill(a, &[s]));
                if width == Width::W32 {
                    self.emit(X86Instr::Mov { dst: Operand::Mem(dst), src: val });
                } else {
                    // Sub-word: from a byte-addressable register or %eax.
                    let src = match val {
                        Operand::Reg(r) if r.low8_name().is_some() || width == Width::W16 => r,
                        src => {
                            self.emit(X86Instr::Mov { dst: Operand::Reg(Gpr::Eax), src });
                            Gpr::Eax
                        }
                    };
                    self.emit(X86Instr::MovStore { width, src, dst });
                }
            }
        }
    }

    /// `d = a` in a register `d` owns — the two-address prelude of a
    /// unary or binary op. When `a` dies here in a register, `d` takes
    /// that register and nothing is emitted; otherwise `a` is copied
    /// (from its register, spill slot or immediate) into a fresh one.
    /// `b`, the op's other operand, is protected from eviction along
    /// with `a`, and keeps `a` alive when it is `a`.
    fn def_copy(&mut self, d: Temp, a: Temp, b: Option<Temp>, idx: usize) -> Gpr {
        if b != Some(a) {
            if let Some(r) = self.take_reg(d, a, idx) {
                return r;
            }
        }
        let r = self.def_temp(d, &[b.unwrap_or(a), a]);
        let src = self.temp_operand(a);
        self.emit(X86Instr::Mov { dst: Operand::Reg(r), src });
        r
    }

    /// The flag-materialization prologue of a stretch that reads or
    /// merges live-in guest flags (see module docs). Ends just before the
    /// stretch body, with flag-mode 0. Scratch: `%ecx`, `%eax`, EFLAGS.
    fn flag_stub(&mut self) {
        let code = &mut self.code;
        code.push(X86Instr::Alu {
            op: AluOp::Cmp,
            dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
            src: Operand::Imm(0),
        });
        // Patched below to skip the stub when flag-mode is 0.
        code.push(X86Instr::Jcc { cc: Cc::E, target: 0 });
        let je_at = code.len() - 1;
        code.push(X86Instr::Mov {
            dst: Operand::Reg(Gpr::Ecx),
            src: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
        });
        code.push(X86Instr::Push { src: Operand::Mem(env_mem(HOSTFLAGS_OFFSET)) });
        code.push(X86Instr::Popfd);
        let set = |code: &mut Vec<X86Instr>, cc: Cc, f: FlagId| {
            code.push(X86Instr::mov_imm(Gpr::Eax, 0));
            code.push(X86Instr::Setcc { cc, dst: Gpr::Eax });
            code.push(X86Instr::Mov {
                dst: Operand::Mem(flag_mem(f)),
                src: Operand::Reg(Gpr::Eax),
            });
        };
        set(code, Cc::S, FlagId::N);
        set(code, Cc::E, FlagId::Z);
        set(code, Cc::O, FlagId::V);
        // Carry: polarity bit 1 of the saved mode decides CF vs ¬CF.
        code.push(X86Instr::mov_imm(Gpr::Eax, 0));
        code.push(X86Instr::Setcc { cc: Cc::B, dst: Gpr::Eax });
        code.push(X86Instr::Alu {
            op: AluOp::Test,
            dst: Operand::Reg(Gpr::Ecx),
            src: Operand::Imm(2),
        });
        code.push(X86Instr::Jcc { cc: Cc::Ne, target: 1 }); // skip the invert
        code.push(X86Instr::alu_ri(AluOp::Xor, Gpr::Eax, 1));
        code.push(X86Instr::Mov {
            dst: Operand::Mem(flag_mem(FlagId::C)),
            src: Operand::Reg(Gpr::Eax),
        });
        code.push(X86Instr::Mov {
            dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
            src: Operand::Imm(0),
        });
        // Patch the skip target.
        let skip = (code.len() - je_at - 1) as i32;
        if let X86Instr::Jcc { target, .. } = &mut code[je_at] {
            *target = skip;
        }
    }

    /// `mov $pc, %eax; ret`: the one place a patchable direct exit is
    /// declared — the `Ret` whose preceding `mov` names a statically
    /// known successor.
    fn ret_to(&mut self, pc: u32) {
        self.emit(X86Instr::mov_imm(Gpr::Eax, pc as i32));
        self.exits.push((self.code.len(), pc));
        self.emit(X86Instr::Ret);
    }

    /// `jcc` between the two direct exits of a conditional branch.
    fn ret_either(&mut self, cc: Cc, taken: u32, not_taken: u32) {
        self.emit(X86Instr::Jcc { cc, target: 2 });
        self.ret_to(not_taken);
        self.ret_to(taken);
    }

    /// End the block with a two-way exit on a host condition the code
    /// before it left in EFLAGS (the writeback movs are flag-safe).
    pub(crate) fn exit_on_cc(&mut self, cc: Cc, taken: u32, not_taken: u32) {
        self.debug_check();
        self.writeback();
        self.ret_either(cc, taken, not_taken);
    }

    /// End the block: write the dirty homes back, then the exit stub.
    /// Direct exits (Jump, both Branch arms) are declared as they are
    /// emitted; an Indirect return deliberately is not, even though it
    /// ends in `mov %eax; ret` too.
    pub(crate) fn exit(&mut self, end: BlockEnd) {
        self.debug_check();
        self.writeback();
        match end {
            BlockEnd::Jump(pc) => self.ret_to(pc),
            BlockEnd::Halt => self.emit(X86Instr::Halt),
            BlockEnd::Trap(pc) => {
                // Precise trap: every dirty guest register reaches its env
                // home before the sentinel; %eax carries the trapping PC.
                self.emit(X86Instr::mov_imm(Gpr::Eax, pc as i32));
                self.emit(X86Instr::Trap);
            }
            BlockEnd::Indirect(t) => {
                let src = self.temp_operand(t);
                self.emit(X86Instr::Mov { dst: Operand::Reg(Gpr::Eax), src });
                self.emit(X86Instr::Ret);
            }
            BlockEnd::Branch { cond, taken, not_taken } => match self.temp_operand(cond) {
                // A constant condition has one successor.
                Operand::Imm(v) => self.ret_to(if v != 0 { taken } else { not_taken }),
                c => {
                    self.emit(X86Instr::Alu { op: AluOp::Cmp, dst: c, src: Operand::Imm(0) });
                    self.ret_either(Cc::Ne, taken, not_taken);
                }
            },
        }
    }

    /// The ownership invariant of the register state, reporting the first
    /// violation: every pool register is free, one live temp's, or one
    /// guest register's home, and `reg_state`, `temp_loc` and `home` say
    /// the same thing about it; no register outside the pool is owned; a
    /// spill slot belongs to one temp and is not also free; a temp that
    /// is an immediate owns no register.
    #[cfg(debug_assertions)]
    fn check(&self) -> Result<(), String> {
        let ensure = |ok: bool, what: String| ok.then_some(()).ok_or(what);
        for (i, u) in self.reg_state.iter().enumerate() {
            let r = Gpr::from_index(i);
            ensure(
                *u == RegUse::Free || self.pool.contains(&r),
                format!("{r:?} outside pool is {u:?}"),
            )?;
            match *u {
                RegUse::Free => {}
                RegUse::Temp(t) => ensure(
                    self.temp_loc.get(t.0 as usize) == Some(&Some(TLoc::Reg(r))),
                    format!(
                        "{r:?} holds {t:?}, which lives at {:?}",
                        self.temp_loc.get(t.0 as usize)
                    ),
                )?,
                RegUse::Home(g) => ensure(
                    self.home[g.index()].is_some_and(|(h, _)| h == r),
                    format!("{r:?} holds {g:?}, whose home is {:?}", self.home[g.index()]),
                )?,
            }
        }
        for (i, h) in self.home.iter().enumerate() {
            if let Some((r, _)) = *h {
                let g = ArmReg::from_index(i);
                let owner = self.reg_state[r.index()];
                ensure(
                    owner == RegUse::Home(g),
                    format!("home of {g:?} is {r:?}, held by {owner:?}"),
                )?;
            }
        }
        let mut slots = 0u32;
        for (i, loc) in self.temp_loc.iter().enumerate() {
            let t = Temp(i as u32);
            match *loc {
                Some(TLoc::Reg(r)) => {
                    let owner = self.reg_state[r.index()];
                    ensure(
                        owner == RegUse::Temp(t),
                        format!("{t:?} is in {r:?}, held by {owner:?}"),
                    )?;
                }
                Some(TLoc::Spill(s)) => {
                    let taken = slots & 1 << s != 0 || self.free_slots.contains(&s);
                    ensure(!taken, format!("{t:?} spilled to slot {s}, which is shared or free"))?;
                    slots |= 1 << s;
                }
                Some(TLoc::Imm(_)) | None => {}
            }
        }
        Ok(())
    }

    /// Debug builds: assert [`Emitter::check`].
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check() {
            panic!("emitter ownership: {e}");
        }
    }
}

fn alu_of(op: TcgAlu) -> AluOp {
    match op {
        TcgAlu::Add => AluOp::Add,
        TcgAlu::Sub => AluOp::Sub,
        TcgAlu::And => AluOp::And,
        TcgAlu::Or => AluOp::Or,
        TcgAlu::Xor => AluOp::Xor,
        TcgAlu::Shl | TcgAlu::Lshr | TcgAlu::Ashr | TcgAlu::Mul => {
            unreachable!("{op:?} has no two-address ALU form (variable shift in TCG stream?)")
        }
    }
}

/// Host code for one block plus its direct-exit metadata.
///
/// `exits` lists every patchable direct exit as `(ret_index, target_pc)`
/// — the `Ret` whose preceding `mov $pc, %eax` names a statically known
/// successor. The engine's block chainer patches exactly these sites
/// and nothing else; exits are declared here, at lowering time, because
/// pattern-matching `mov/ret` pairs after the fact cannot distinguish a
/// genuine exit stub from a coincidental literal `mov` into `%eax`
/// before an indirect return.
#[derive(Debug, Clone)]
pub struct LoweredBlock {
    pub code: Vec<X86Instr>,
    pub exits: Vec<(usize, u32)>,
}

/// Lower a TCG block to host code.
pub fn lower_block(block: &TcgBlock) -> LoweredBlock {
    lower_block_pool(block, POOL.len())
}

/// [`lower_block`] over the first `pool` registers of [`POOL`] (the JIT
/// path shrinks the pool).
pub(crate) fn lower_block_pool(block: &TcgBlock, pool: usize) -> LoweredBlock {
    let mut e = Emitter::new(pool);
    e.lower_ops(block);
    e.exit(block.end);
    e.finish()
}

/// The block for an undecodable guest word at `pc`: a bare trap exit.
pub(crate) fn lower_undecodable(pc: u32) -> LoweredBlock {
    let mut e = Emitter::new(POOL.len());
    e.exit(BlockEnd::Trap(pc));
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ENV_BASE;
    use crate::tcg::{translate_block, GuestBlock};
    use ldbt_arm::{ArmInstr, Cond, DpOp, Operand2};
    use ldbt_isa::{CostModel, ExecStats, Memory};
    use ldbt_x86::interp::{run_seq, SeqExit};
    use ldbt_x86::X86State;

    fn run_block(
        instrs: Vec<ArmInstr>,
        setup: impl FnOnce(&mut Memory),
    ) -> (X86State, SeqExit, Vec<X86Instr>) {
        let block = GuestBlock { pc: 0x1_0000, instrs };
        let mem = Memory::new();
        let tcg = translate_block(&mem, &block);
        assert_eq!(tcg.unsupported_at, None);
        let code = lower_block(&tcg).code;
        let mut st = X86State::new();
        st.set_reg(Gpr::Esp, crate::env::HOST_STACK_TOP);
        setup(&mut st.mem);
        let mut stats = ExecStats::new();
        let exit = run_seq(&mut st, &code, 10_000, &CostModel::default(), &mut stats);
        (st, exit, code)
    }

    fn set_guest_reg(mem: &mut Memory, r: ArmReg, v: u32) {
        mem.write(ENV_BASE + 4 * r.index() as u32, v, Width::W32);
    }

    fn guest_reg(st: &X86State, r: ArmReg) -> u32 {
        st.mem.read(ENV_BASE + 4 * r.index() as u32, Width::W32)
    }

    #[test]
    fn add_block_updates_env() {
        let (st, exit, _) = run_block(
            vec![ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0))],
            |mem| {
                set_guest_reg(mem, ArmReg::R0, 5);
                set_guest_reg(mem, ArmReg::R1, 7);
            },
        );
        assert_eq!(exit, SeqExit::Returned);
        assert_eq!(st.reg(Gpr::Eax), 0x1_0004, "next pc");
        assert_eq!(guest_reg(&st, ArmReg::R1), 12);
        assert_eq!(guest_reg(&st, ArmReg::R0), 5);
    }

    #[test]
    fn cmp_branch_block_sets_flags_and_selects_target() {
        let instrs = vec![
            ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
            ArmInstr::B { offset: 3, cond: Cond::Ne },
        ];
        let (st, exit, _) = run_block(instrs.clone(), |mem| {
            set_guest_reg(mem, ArmReg::R2, 1);
            set_guest_reg(mem, ArmReg::R3, 2);
        });
        assert_eq!(exit, SeqExit::Returned);
        // taken: next(0x10008) + 3*4 = 0x10014.
        assert_eq!(st.reg(Gpr::Eax), 0x1_0014);
        let (st2, _, _) = run_block(instrs, |mem| {
            set_guest_reg(mem, ArmReg::R2, 2);
            set_guest_reg(mem, ArmReg::R3, 2);
        });
        assert_eq!(st2.reg(Gpr::Eax), 0x1_0008, "fall through when equal");
    }

    #[test]
    fn flag_slots_materialized() {
        // cmp writes NZCV env slots when the flags are live out
        // (conservative here because the block ends with a return-like bx).
        let (st, _, _) = run_block(
            vec![
                ArmInstr::cmp(ArmReg::R2, Operand2::Imm(5)),
                ArmInstr::Bx { rm: ArmReg::Lr, cond: Cond::Al },
            ],
            |mem| {
                set_guest_reg(mem, ArmReg::R2, 3);
                set_guest_reg(mem, ArmReg::Lr, 0x2_0000);
            },
        );
        assert_eq!(st.reg(Gpr::Eax), 0x2_0000, "indirect exit to lr");
        // 3 - 5: N=1 Z=0 C=0 (borrow) V=0.
        assert_eq!(st.mem.read(ENV_BASE + FlagId::N.offset(), Width::W32), 1);
        assert_eq!(st.mem.read(ENV_BASE + FlagId::Z.offset(), Width::W32), 0);
        assert_eq!(st.mem.read(ENV_BASE + FlagId::C.offset(), Width::W32), 0);
        assert_eq!(st.mem.read(ENV_BASE + FlagId::V.offset(), Width::W32), 0);
    }

    #[test]
    fn dead_flags_not_materialized() {
        // cmp followed in-block by bne: only Z is consumed, and the branch
        // targets immediately redefine all flags with another cmp — so
        // N/C/V must be pruned.
        let mut mem = Memory::new();
        // Place `cmp r0, #0; svc` at both targets so the liveness scan
        // sees a full redefinition.
        let cmp = ldbt_arm::encode::encode(&ArmInstr::cmp(ArmReg::R0, Operand2::Imm(0))).unwrap();
        let svc = ldbt_arm::encode::encode(&ArmInstr::Svc { imm: 0, cond: Cond::Al }).unwrap();
        for base in [0x1_0008u32, 0x1_0014] {
            mem.write(base, cmp, Width::W32);
            mem.write(base + 4, svc, Width::W32);
        }
        let block = GuestBlock {
            pc: 0x1_0000,
            instrs: vec![
                ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
                ArmInstr::B { offset: 3, cond: Cond::Ne },
            ],
        };
        let tcg = translate_block(&mem, &block);
        let flag_puts = tcg.ops.iter().filter(|o| matches!(o, TcgOp::PutFlag(_, _))).count();
        assert_eq!(flag_puts, 1, "only Z materialized: {:?}", tcg.ops);
    }

    #[test]
    fn load_store_block() {
        let (st, _, _) = run_block(
            vec![
                ArmInstr::ldr(ArmReg::R0, ldbt_arm::AddrMode::Imm(ArmReg::R1, 4)),
                ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Imm(1)),
                ArmInstr::str(ArmReg::R0, ldbt_arm::AddrMode::Imm(ArmReg::R1, 8)),
            ],
            |mem| {
                set_guest_reg(mem, ArmReg::R1, 0x8000);
                mem.write(0x8004, 41, Width::W32);
            },
        );
        assert_eq!(st.mem.read(0x8008, Width::W32), 42);
        assert_eq!(guest_reg(&st, ArmReg::R0), 42);
    }

    #[test]
    fn sub_word_accesses() {
        let (st, _, _) = run_block(
            vec![
                ArmInstr::Ldr {
                    rt: ArmReg::R0,
                    addr: ldbt_arm::AddrMode::Imm(ArmReg::R1, 0),
                    width: Width::W8,
                    signed: true,
                    cond: Cond::Al,
                },
                ArmInstr::Str {
                    rt: ArmReg::R0,
                    addr: ldbt_arm::AddrMode::Imm(ArmReg::R1, 4),
                    width: Width::W8,
                    cond: Cond::Al,
                },
            ],
            |mem| {
                set_guest_reg(mem, ArmReg::R1, 0x8000);
                mem.write(0x8000, 0x80, Width::W8);
                mem.write(0x8004, 0xffff_ffff, Width::W32);
            },
        );
        assert_eq!(guest_reg(&st, ArmReg::R0), 0xffff_ff80, "sign extended");
        assert_eq!(st.mem.read(0x8004, Width::W32), 0xffff_ff80);
    }

    #[test]
    fn predicated_mov_via_select() {
        // movne r0, #9 with Z=1 (not taken) and Z=0 (taken).
        let instr = ArmInstr::Dp {
            op: DpOp::Mov,
            rd: ArmReg::R0,
            rn: ArmReg::R0,
            op2: Operand2::Imm(9),
            set_flags: false,
            cond: Cond::Ne,
        };
        let (st, _, _) = run_block(vec![instr], |mem| {
            set_guest_reg(mem, ArmReg::R0, 1);
            mem.write(ENV_BASE + FlagId::Z.offset(), 1, Width::W32);
        });
        assert_eq!(guest_reg(&st, ArmReg::R0), 1, "suppressed");
        let (st2, _, _) = run_block(vec![instr], |mem| {
            set_guest_reg(mem, ArmReg::R0, 1);
            mem.write(ENV_BASE + FlagId::Z.offset(), 0, Width::W32);
        });
        assert_eq!(guest_reg(&st2, ArmReg::R0), 9, "executed");
    }

    /// Regression for the spill bookkeeping assertion in `grab_reg`: an
    /// adversarial block keeping more than the 6 pool registers' worth of
    /// guest state live, lowered at the narrowest legal pool, must stay
    /// within `SPILL_SLOTS` — every spill reference the lowered code
    /// makes has to land inside the env spill area, and the debug
    /// assertion (active in test builds) must not fire.
    #[test]
    fn spill_pressure_never_exceeds_spill_slots() {
        // 13 guest registers, each read and written, with every result
        // depending on a neighbor so homes stay live across the block.
        let mut instrs = Vec::new();
        for i in 0..13usize {
            instrs.push(ArmInstr::dp(
                DpOp::Add,
                ArmReg::from_index(i),
                ArmReg::from_index(i),
                Operand2::Reg(ArmReg::from_index((i + 1) % 13)),
            ));
        }
        let block = GuestBlock { pc: 0x1_0000, instrs };
        let mem = Memory::new();
        let tcg = translate_block(&mem, &block);
        assert_eq!(tcg.unsupported_at, None);
        // A 2-wide pool is below the allocator's floor: a two-operand ALU
        // can pin both pool registers via `forbid`, leaving no evictable
        // victim. Three registers is the narrowest legal pool, and the
        // two widths in use are the JIT's and the full pool.
        for pool_limit in [crate::jit::JIT_POOL, POOL.len()] {
            let code = lower_block_pool(&tcg, pool_limit).code;
            let spill_lo = ENV_BASE + SPILL_OFFSET;
            let spill_hi = spill_lo + 4 * SPILL_SLOTS;
            for ins in &code {
                let mems: Vec<X86Mem> = match *ins {
                    X86Instr::Mov { dst: Operand::Mem(m), .. }
                    | X86Instr::Mov { src: Operand::Mem(m), .. }
                    | X86Instr::Alu { dst: Operand::Mem(m), .. }
                    | X86Instr::Alu { src: Operand::Mem(m), .. } => vec![m],
                    _ => vec![],
                };
                for m in mems {
                    let a = m.disp as u32;
                    if m.base.is_none() && a >= spill_lo {
                        assert!(
                            a < spill_hi,
                            "spill reference {a:#x} beyond SPILL_SLOTS in {ins:?}"
                        );
                    }
                }
            }
            // The block still computes the right values at this pressure.
            let mut st = X86State::new();
            st.set_reg(Gpr::Esp, crate::env::HOST_STACK_TOP);
            for i in 0..13usize {
                set_guest_reg(&mut st.mem, ArmReg::from_index(i), 100 * i as u32);
            }
            let mut stats = ExecStats::new();
            let exit = run_seq(&mut st, &code, 10_000, &CostModel::default(), &mut stats);
            assert_eq!(exit, SeqExit::Returned, "pool_limit={pool_limit}");
            // Expected values come from simulating the sequence: r12 reads
            // r0 *after* instruction 0 already rewrote it.
            let mut want = [0u32; 13];
            for (i, w) in want.iter_mut().enumerate() {
                *w = 100 * i as u32;
            }
            for i in 0..13usize {
                want[i] = want[i].wrapping_add(want[(i + 1) % 13]);
            }
            for (i, w) in want.iter().enumerate() {
                assert_eq!(
                    guest_reg(&st, ArmReg::from_index(i)),
                    *w,
                    "r{i} at pool_limit={pool_limit}"
                );
            }
        }
    }

    #[test]
    fn many_guest_regs_force_eviction() {
        // Touch 9 distinct guest registers; pool has 6.
        let mut instrs = Vec::new();
        for i in 0..9 {
            instrs.push(ArmInstr::dp(
                DpOp::Add,
                ArmReg::from_index(i),
                ArmReg::from_index(i),
                Operand2::Imm(i as u32 + 1),
            ));
        }
        let (st, exit, _) = run_block(instrs, |mem| {
            for i in 0..9 {
                set_guest_reg(mem, ArmReg::from_index(i), 100 * i as u32);
            }
        });
        assert_eq!(exit, SeqExit::Returned);
        for i in 0..9 {
            assert_eq!(
                guest_reg(&st, ArmReg::from_index(i)),
                100 * i as u32 + i as u32 + 1,
                "r{i}"
            );
        }
    }

    #[test]
    fn flag_stub_materializes_saved_host_flags() {
        // A block that reads live-in flags (bne at block start) with
        // flag-mode = 1 and saved host EFLAGS where ZF=0.
        let block =
            GuestBlock { pc: 0x1_0000, instrs: vec![ArmInstr::B { offset: 3, cond: Cond::Ne }] };
        let mem = Memory::new();
        let tcg = translate_block(&mem, &block);
        assert!(tcg.reads_live_in_flags);
        let code = lower_block(&tcg).code;
        let mut st = X86State::new();
        st.set_reg(Gpr::Esp, crate::env::HOST_STACK_TOP);
        // Saved flags: ZF clear (so NE holds), mode=1, sub polarity.
        st.mem.write(ENV_BASE + HOSTFLAGS_OFFSET, 0, Width::W32);
        st.mem.write(ENV_BASE + FLAGMODE_OFFSET, 1, Width::W32);
        let mut stats = ExecStats::new();
        let exit = run_seq(&mut st, &code, 10_000, &CostModel::default(), &mut stats);
        assert_eq!(exit, SeqExit::Returned);
        assert_eq!(st.reg(Gpr::Eax), 0x1_0010, "branch taken (ZF=0 → ne)");
        assert_eq!(
            st.mem.read(ENV_BASE + FLAGMODE_OFFSET, Width::W32),
            0,
            "mode reset after materialization"
        );
        assert_eq!(
            st.mem.read(ENV_BASE + FlagId::C.offset(), Width::W32),
            1,
            "sub polarity: CF=0 → ARM C=1"
        );
    }

    /// The scratch-register invariant the superblock optimizer depends
    /// on (sb.rs): lowered blocks communicate only through the env and
    /// %esp — they must never *read* a host register or EFLAGS bit left
    /// behind by the previous block. `entry_reads` computes the code's
    /// dependence on host entry state by backward liveness; anything but
    /// %esp here would make cross-seam dead-code elimination unsound.
    #[test]
    fn lowered_blocks_read_no_host_entry_state() {
        let shapes: Vec<(&str, Vec<ArmInstr>)> = vec![
            (
                "dp",
                vec![ArmInstr::dp(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R0))],
            ),
            (
                "cmp+branch",
                vec![
                    ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
                    ArmInstr::B { offset: 3, cond: Cond::Ne },
                ],
            ),
            (
                "mem",
                vec![
                    ArmInstr::ldr(ArmReg::R0, ldbt_arm::AddrMode::Imm(ArmReg::R1, 4)),
                    ArmInstr::str(ArmReg::R0, ldbt_arm::AddrMode::Imm(ArmReg::R1, 8)),
                ],
            ),
            (
                "flag-setting",
                vec![
                    ArmInstr::dps(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Imm(1)),
                    ArmInstr::B { offset: 2, cond: Cond::Eq },
                ],
            ),
        ];
        for (name, instrs) in shapes {
            let block = GuestBlock { pc: 0x1_0000, instrs };
            let mem = Memory::new();
            let code = lower_block(&translate_block(&mem, &block)).code;
            let (regs, flags) = crate::sb::entry_reads(&code);
            assert_eq!(regs & !(1 << Gpr::Esp.index()), 0, "{name}: reads host regs {regs:#010b}");
            assert_eq!(flags, 0, "{name}: reads host EFLAGS {flags:#06b}");
        }
    }

    // ---- coalescing, re-homing and folded constants ----

    fn block_of(ops: Vec<TcgOp>, end: BlockEnd) -> TcgBlock {
        TcgBlock {
            ops,
            end,
            reads_live_in_flags: false,
            writes_flags: false,
            merges_live_in_flags: false,
            unsupported_at: None,
        }
    }

    /// Run `code` from a fresh host state prepared by `setup`.
    fn exec(code: &[X86Instr], setup: impl FnOnce(&mut Memory)) -> X86State {
        let mut st = X86State::new();
        st.set_reg(Gpr::Esp, crate::env::HOST_STACK_TOP);
        setup(&mut st.mem);
        let mut stats = ExecStats::new();
        let exit = run_seq(&mut st, code, 10_000, &CostModel::default(), &mut stats);
        assert_eq!(exit, SeqExit::Returned, "{code:?}");
        st
    }

    fn is_self_move(i: &X86Instr) -> bool {
        matches!(i, X86Instr::Mov { dst: Operand::Reg(d), src: Operand::Reg(s) } if d == s)
    }

    fn flag(st: &X86State, f: FlagId) -> u32 {
        st.mem.read(ENV_BASE + f.offset(), Width::W32)
    }

    #[test]
    fn dying_spilled_operand_loads_straight_into_the_result() {
        // Three registers, four live flag temps: `t0`, read last, is
        // spilled. When `not` consumes it as it dies, the spill slot is
        // loaded straight into the result's register — not into a
        // register of its own first and then copied.
        let t = |i| Temp(i);
        let ops = vec![
            TcgOp::GetFlag(t(0), FlagId::N),
            TcgOp::GetFlag(t(1), FlagId::Z),
            TcgOp::GetFlag(t(2), FlagId::C),
            TcgOp::GetFlag(t(3), FlagId::V),
            TcgOp::Alu(TcgAlu::Add, t(4), t(1), t(2)),
            TcgOp::Alu(TcgAlu::Add, t(5), t(4), t(3)),
            TcgOp::PutReg(ArmReg::R1, t(5)),
            TcgOp::Not(t(6), t(0)),
            TcgOp::PutReg(ArmReg::R2, t(6)),
        ];
        let code =
            lower_block_pool(&block_of(ops, BlockEnd::Jump(0x1000)), crate::jit::JIT_POOL).code;
        let slot0 = env_mem(SPILL_OFFSET);
        let spill = code.iter().position(|i| {
            *i == X86Instr::Mov { dst: Operand::Mem(slot0), src: Operand::Reg(Gpr::Ecx) }
        });
        assert!(spill.is_some(), "t0 spilled: {code:?}");
        let reload = code
            .iter()
            .position(|i| matches!(i, X86Instr::Mov { dst: Operand::Reg(_), src: Operand::Mem(m) } if *m == slot0))
            .expect("t0 reloaded");
        let X86Instr::Mov { dst: Operand::Reg(r), .. } = code[reload] else { unreachable!() };
        assert_eq!(
            code[reload + 1],
            X86Instr::Un { op: UnOp::Not, dst: Operand::Reg(r) },
            "{code:?}"
        );
        let copies = code
            .iter()
            .filter(|i| matches!(i, X86Instr::Mov { dst: Operand::Reg(_), src: Operand::Reg(_) }));
        assert_eq!(copies.count(), 0, "every copy coalesced: {code:?}");
        let st = exec(&code, |mem| {
            for (f, v) in [(FlagId::N, 1), (FlagId::Z, 0), (FlagId::C, 1), (FlagId::V, 1)] {
                mem.write(ENV_BASE + f.offset(), v, Width::W32);
            }
        });
        assert_eq!(guest_reg(&st, ArmReg::R1), 2);
        assert_eq!(guest_reg(&st, ArmReg::R2), !1);
    }

    #[test]
    fn rehome_over_a_dirty_home_drops_the_stale_value() {
        // r1 is re-homed twice: the first home is dirty when the second
        // put lands, and goes back to the pool without a store.
        let t = |i| Temp(i);
        let ops = vec![
            TcgOp::GetReg(t(0), ArmReg::R2),
            TcgOp::AluI(TcgAlu::Add, t(1), t(0), 1),
            TcgOp::PutReg(ArmReg::R1, t(1)),
            TcgOp::GetReg(t(2), ArmReg::R3),
            TcgOp::AluI(TcgAlu::Add, t(3), t(2), 5),
            TcgOp::PutReg(ArmReg::R1, t(3)),
        ];
        let mut e = Emitter::new(POOL.len());
        e.lower_ops(&block_of(ops.clone(), BlockEnd::Jump(0x1000)));
        let first = e.code.iter().find_map(|i| match *i {
            X86Instr::Alu { op: AluOp::Add, dst: Operand::Reg(r), src: Operand::Imm(1) } => Some(r),
            _ => None,
        });
        let first = first.expect("r2 + 1 computed in place");
        let home = e.home_of(ArmReg::R1).expect("r1 homed");
        assert_ne!(home, first, "the second put re-homed r1");
        assert_eq!(
            e.reg_state[first.index()],
            RegUse::Free,
            "the stale home went back to the pool"
        );
        assert_eq!(e.home[ArmReg::R1.index()], Some((home, true)));
        let code = lower_block(&block_of(ops, BlockEnd::Jump(0x1000))).code;
        let r1 = Operand::Mem(reg_mem(ArmReg::R1));
        let stores = code.iter().filter(|i| matches!(i, X86Instr::Mov { dst, .. } if *dst == r1));
        assert_eq!(stores.count(), 1, "one writeback of r1, at the exit: {code:?}");
        let st = exec(&code, |mem| {
            set_guest_reg(mem, ArmReg::R1, 7);
            set_guest_reg(mem, ArmReg::R2, 10);
            set_guest_reg(mem, ArmReg::R3, 20);
        });
        assert_eq!(guest_reg(&st, ArmReg::R1), 25);
        assert_eq!(guest_reg(&st, ArmReg::R2), 10);
    }

    #[test]
    fn rehome_into_ecx_is_written_back_before_a_flag_stub() {
        // The first stretch leaves r4's dirty home in %ecx; the next one
        // reads live-in flags, and its stub uses %ecx as scratch.
        let t = |i| Temp(i);
        let mut e = Emitter::new(POOL.len());
        let first = vec![
            TcgOp::MovI(t(0), 5),
            TcgOp::AluI(TcgAlu::Add, t(1), t(0), 1),
            TcgOp::PutReg(ArmReg::R4, t(1)),
        ];
        e.lower_ops(&block_of(first, BlockEnd::Jump(0)));
        assert_eq!(e.home[ArmReg::R4.index()], Some((Gpr::Ecx, true)));
        let reader = TcgBlock {
            reads_live_in_flags: true,
            ..block_of(
                vec![TcgOp::GetFlag(t(0), FlagId::Z), TcgOp::PutReg(ArmReg::R5, t(0))],
                BlockEnd::Jump(0x2000),
            )
        };
        e.lower_ops(&reader);
        e.exit(reader.end);
        let code = e.finish().code;
        let stub = code
            .iter()
            .position(|i| matches!(i, X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Mem(m), .. } if *m == env_mem(FLAGMODE_OFFSET)))
            .expect("flag stub");
        let wb =
            X86Instr::Mov { dst: Operand::Mem(reg_mem(ArmReg::R4)), src: Operand::Reg(Gpr::Ecx) };
        assert_eq!(code[stub - 1], wb, "{code:?}");
        // Flag-mode 1 with ZF clear: the stub runs and clobbers %ecx.
        let st = exec(&code, |mem| {
            mem.write(ENV_BASE + FLAGMODE_OFFSET, 1, Width::W32);
            mem.write(ENV_BASE + HOSTFLAGS_OFFSET, 0, Width::W32);
            mem.write(ENV_BASE + FlagId::Z.offset(), 1, Width::W32);
        });
        assert_eq!(guest_reg(&st, ArmReg::R4), 6);
        assert_eq!(guest_reg(&st, ArmReg::R5), 0, "Z materialized from the saved EFLAGS");
        assert_eq!(st.reg(Gpr::Eax), 0x2000);
    }

    #[test]
    fn jit_pool_block_coalesces_and_computes() {
        // Nine guest registers through three pool registers: homes are
        // evicted and re-homed all the way, with no copies left over.
        let instrs: Vec<ArmInstr> = (0..9)
            .map(|i| {
                let (d, s) = (ArmReg::from_index(i), ArmReg::from_index((i + 1) % 9));
                ArmInstr::dp(DpOp::Add, d, d, Operand2::Reg(s))
            })
            .collect();
        let tcg = translate_block(&Memory::new(), &GuestBlock { pc: 0x1_0000, instrs });
        let code = lower_block_pool(&tcg, crate::jit::JIT_POOL).code;
        assert!(!code.iter().any(is_self_move), "{code:?}");
        let st = exec(&code, |mem| {
            for i in 0..9 {
                set_guest_reg(mem, ArmReg::from_index(i), 1 << i);
            }
        });
        let mut want: Vec<u32> = (0..9).map(|i| 1 << i).collect();
        for i in 0..9 {
            want[i] = want[i].wrapping_add(want[(i + 1) % 9]);
        }
        for (i, w) in want.iter().enumerate() {
            assert_eq!(guest_reg(&st, ArmReg::from_index(i)), *w, "r{i}");
        }
    }

    #[test]
    fn constants_fold_into_stores_flags_and_branches() {
        let t = |i| Temp(i);
        let ops = vec![
            TcgOp::MovI(t(0), 0x1234_5678),
            TcgOp::GetReg(t(1), ArmReg::R1),
            TcgOp::Store(t(0), t(1), Width::W32),
            TcgOp::MovI(t(2), 0x1ff),
            TcgOp::GetReg(t(3), ArmReg::R2),
            TcgOp::Store(t(2), t(3), Width::W8),
            TcgOp::MovI(t(4), 1),
            TcgOp::PutFlag(FlagId::Z, t(4)),
            TcgOp::PutReg(ArmReg::R3, t(4)),
            TcgOp::MovI(t(5), 1),
        ];
        for (cond, next) in [(1, 0x3000), (0, 0x4000)] {
            let mut ops = ops.clone();
            ops[9] = TcgOp::MovI(t(5), cond);
            let end = BlockEnd::Branch { cond: t(5), taken: 0x3000, not_taken: 0x4000 };
            let low = lower_block(&block_of(ops, end));
            let code = &low.code;
            let has = |i: X86Instr| code.contains(&i);
            assert!(
                code.iter().any(|i| matches!(i, X86Instr::Mov { dst: Operand::Mem(m), src: Operand::Imm(0x1234_5678) } if m.base.is_some())),
                "word store of the immediate: {code:?}"
            );
            assert!(has(X86Instr::Mov {
                dst: Operand::Mem(flag_mem(FlagId::Z)),
                src: Operand::Imm(1)
            }));
            // No constant is placed in a pool register: the byte store
            // goes through %eax, the guest register's home takes `$1`.
            let in_pool = |i: &X86Instr| matches!(i, X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Imm(_) } if POOL.contains(r));
            let placed: Vec<_> = code.iter().filter(|i| in_pool(i)).collect();
            assert_eq!(placed.len(), 1, "only r3's home takes a constant: {code:?}");
            // A constant condition has one exit and no compare.
            assert_eq!(low.exits.len(), 1, "{code:?}");
            assert_eq!(low.exits[0].1, next);
            assert!(!code.iter().any(|i| matches!(i, X86Instr::Alu { op: AluOp::Cmp, .. })));
            let st = exec(code, |mem| {
                set_guest_reg(mem, ArmReg::R1, 0x8000);
                set_guest_reg(mem, ArmReg::R2, 0x8010);
                mem.write(0x8010, 0xaaaa_aaaa, Width::W32);
            });
            assert_eq!(st.mem.read(0x8000, Width::W32), 0x1234_5678);
            assert_eq!(st.mem.read(0x8010, Width::W32), 0xaaaa_aaff);
            assert_eq!(flag(&st, FlagId::Z), 1);
            assert_eq!(guest_reg(&st, ArmReg::R3), 1);
            assert_eq!(st.reg(Gpr::Eax), next);
        }
    }

    /// No translator emits `movl %r, %r`, over every reachable block of
    /// the twelve `Test` images: TCG, the JIT (its own 3-register pool)
    /// and rules under each program's leave-one-out rule set, learned
    /// here from the `Ref` sources of the other eleven programs.
    #[test]
    fn no_translator_emits_a_self_move_over_the_suite() {
        use ldbt_workloads::{source, Workload, SUITE};
        let o2 = ldbt_compiler::Options::o2();
        let learned: Vec<ldbt_learn::RuleSet> = SUITE
            .iter()
            .map(|b| {
                let src = source(b, Workload::Ref);
                ldbt_learn::pipeline::learn_from_source(b.name, &src, &o2).expect("learns").rules
            })
            .collect();
        let mut blocks = 0;
        for (p, (mem, suite)) in crate::tcg::tests::suite_blocks().into_iter().enumerate() {
            let mut rules = ldbt_learn::RuleSet::new();
            learned.iter().enumerate().filter(|&(q, _)| q != p).for_each(|(_, r)| rules.merge(r));
            for block in &suite {
                let tcg = translate_block(&mem, block);
                if tcg.unsupported_at == Some(0) {
                    continue;
                }
                let mut lowered = vec![lower_block(&tcg).code, crate::jit::lower(&tcg).code];
                if crate::rules::block_supported(block) {
                    lowered.push(crate::rules::lower_block_with_rules(&mem, block, &rules).code);
                }
                for (code, by) in lowered.iter().zip(["tcg", "jit", "rules"]) {
                    let bad = code.iter().find(|i| is_self_move(i));
                    assert!(bad.is_none(), "{by} at {:#x}: {bad:?}", block.pc);
                }
                blocks += 1;
            }
        }
        assert!(blocks > 1000, "the whole suite was scanned: {blocks} blocks");
    }

    /// [`Emitter::check`] reports a register two owners claim.
    #[cfg(debug_assertions)]
    #[test]
    fn ownership_check_reports_a_doubly_owned_register() {
        let mut e = Emitter::new(POOL.len());
        e.lower_ops(&block_of(vec![TcgOp::GetReg(Temp(0), ArmReg::R0)], BlockEnd::Halt));
        assert_eq!(e.check(), Ok(()));
        let home = e.home_of(ArmReg::R0).expect("r0 homed");
        e.home[ArmReg::R1.index()] = Some((home, false));
        assert!(e.check().is_err(), "two guest registers homed in {home:?}");
    }
}
