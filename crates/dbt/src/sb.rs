//! Superblock formation: hot chained block sequences re-materialized as
//! straight-line regions.
//!
//! A superblock is an ordered list of already-translated blocks (a
//! *path* through the chain graph, picked by hotness). Each block's host
//! code is cloned and *specialized* against the seam state its
//! predecessor in the path is known to leave behind:
//!
//! * **redundant home loads** — `movl env(r), %hostreg` when the host
//!   register is known to still hold that guest register from the
//!   previous part — are elided,
//! * the **flag-materialization stub** (the `cmpl $0, flagmode; je ...`
//!   prologue of flag-reading blocks) is elided when the seam state
//!   proves flag-mode is zero, killing the redundant EFLAGS/hostflags
//!   materialization at chain seams,
//! * the **flag-mode reset** (`movl $0, flagmode`) is elided when
//!   flag-mode is already known zero,
//! * the trailing **seam exit pair** (`movl $pc, %eax; chain @next`) is
//!   stripped when the next part provably redefines `%eax` before any
//!   use, so the seam costs zero host instructions.
//!
//! Specialization never re-translates: it only deletes instructions from
//! a clone, so a region is architecturally bit-identical to running the
//! member blocks back to back (the watchdog's comparison surface — env
//! registers, guest memory, next PC — is untouched by every elision).
//! Cross-block reuse of the interpreter's last-page memory caches is
//! inherent: the caches live in `X86State.mem` and persist across
//! `run_seq` calls, so a straightened region keeps them hot through
//! every seam.
//!
//! The engine (see `engine.rs`) owns formation triggers and region
//! dispatch, the code cache (`cache.rs`) the two-way link bookkeeping and
//! invalidation; this module is the pure code-transformation layer.

use crate::env::{ENV_BASE, FLAGMODE_OFFSET};
use ldbt_isa::{CostModel, Width};
use ldbt_x86::{AluOp, Cc, Gpr, Operand, ShiftOp, UnOp, X86Instr, X86Mem};
use std::rc::Rc;

/// Sentinel: block is not the head of any live region.
pub const NO_SB: u32 = u32::MAX;

/// Maximum number of parts in one region (a self-loop unrolls to this).
pub const SB_MAX_PARTS: usize = 8;

/// One member of a superblock: a specialized clone of an arena block.
#[derive(Debug, Clone)]
pub struct SbPart {
    /// Arena id of the original block (execs/hits/guest_len accounting
    /// and watchdog sampling all go through the original).
    pub id: u32,
    /// Specialized host code (elisions applied to a clone).
    pub code: Rc<Vec<X86Instr>>,
    /// The trailing seam exit pair was stripped: running off the end of
    /// `code` means "continue at the next part".
    pub fallthrough_seam: bool,
}

/// A formed region: an ordered path of specialized parts.
#[derive(Debug, Clone)]
pub struct Superblock {
    /// Arena id of the head block (`CachedBlock::sb_head` points back).
    pub head: u32,
    /// The path, in execution order.
    pub parts: Vec<SbPart>,
    /// Region register allocation: `(guest slot, pinned host register)`
    /// pairs. Inside the region the pinned register is the guest
    /// register; the env home is refreshed by writeback stubs at every
    /// escape and by the engine at in-region part boundaries before a
    /// watchdog snapshot (see [`allocate_region`]).
    pub ra: Vec<(u8, Gpr)>,
    /// Region-entry preamble: loads each pinned register from its env
    /// home. Run by the engine once per region entry — not on the loop
    /// backedge, where the pinned registers (not env) are authoritative.
    pub preamble: Rc<Vec<X86Instr>>,
    /// Invalidated (member purged or re-patched); never executed again.
    pub dead: bool,
}

/// Abstract value of the env flag-mode slot at a seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagAbs {
    /// Provably zero: the NZCV env slots are authoritative.
    Zero,
    /// Anything (including a pending §5 lazy save).
    Unknown,
}

/// What is known about host state at a part boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeamState {
    /// `tags[gpr] = Some(slot)`: the host register provably holds the
    /// same value as guest register slot `slot` (env offset `4*slot`),
    /// and the env slot is current.
    pub tags: [Option<u8>; 8],
    /// Abstract flag-mode value.
    pub flagmode: FlagAbs,
}

impl SeamState {
    /// The no-knowledge state (region entry from the dispatcher).
    pub fn entry() -> SeamState {
        SeamState { tags: [None; 8], flagmode: FlagAbs::Unknown }
    }
}

/// Classify an absolute env address.
enum EnvSlot {
    /// A guest register slot r0–r14 (index).
    Reg(u8),
    /// The flag-mode slot.
    FlagMode,
    /// Some other env slot (flags, hostflags, spill).
    Other,
    /// Not an env address at all.
    NotEnv,
}

fn classify(m: &X86Mem) -> EnvSlot {
    if m.base.is_some() || m.index.is_some() {
        return EnvSlot::NotEnv; // dynamic: handled by the caller as "may alias anything"
    }
    let a = m.disp as u32;
    if a == ENV_BASE + FLAGMODE_OFFSET {
        return EnvSlot::FlagMode;
    }
    if (ENV_BASE..ENV_BASE + 0x3C).contains(&a) && a.is_multiple_of(4) {
        return EnvSlot::Reg(((a - ENV_BASE) / 4) as u8);
    }
    if (ENV_BASE..ENV_BASE + 0x100).contains(&a) {
        return EnvSlot::Other;
    }
    EnvSlot::NotEnv
}

/// Whether `m` is a memory operand that could alias a guest-register env
/// slot at runtime (any base/index addressing must be assumed to).
fn dynamic_addr(m: &X86Mem) -> bool {
    m.base.is_some() || m.index.is_some()
}

/// The flag-materialization stub starts at `i`: `cmpl $0, flagmode;
/// je +N` with the stub body within bounds. Returns the exclusive end
/// index of the stub.
fn stub_extent(code: &[X86Instr], i: usize) -> Option<usize> {
    let X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Mem(m), src: Operand::Imm(0) } =
        code.get(i)?
    else {
        return None;
    };
    if !matches!(classify(m), EnvSlot::FlagMode) {
        return None;
    }
    let X86Instr::Jcc { cc: Cc::E, target } = code.get(i + 1)? else { return None };
    let t = *target;
    if t <= 0 {
        return None;
    }
    let end = i + 2 + t as usize;
    (end <= code.len()).then_some(end)
}

/// Whether eliding the stub's `cmpl` is EFLAGS-safe: no instruction
/// after `from` reads host EFLAGS before they are rewritten. Stops at
/// the first flag writer (safe) or block exit (safe — successors never
/// read live-in EFLAGS; the flag-mode protocol goes through the env).
fn eflags_dead_after(code: &[X86Instr], from: usize) -> bool {
    for ins in &code[from..] {
        if ins.flags_read() != 0 {
            return false; // Jcc/setcc/adc/pushfd: the cmp is load-bearing
        }
        if ins.flags_written() != 0 {
            return true;
        }
        match ins {
            // Cannot follow the jump linearly: be conservative.
            X86Instr::Jmp { .. } | X86Instr::Call { .. } => return false,
            // Block exits are safe: no generated block reads live-in
            // EFLAGS (the flag protocol goes through the env, and every
            // flag consumer is preceded by its producer in-block).
            X86Instr::Ret
            | X86Instr::JmpInd { .. }
            | X86Instr::ChainJmp { .. }
            | X86Instr::Halt => return true,
            _ => {}
        }
    }
    true
}

/// Kill every tag naming guest slot `slot`.
fn kill_slot(tags: &mut [Option<u8>; 8], slot: u8) {
    for t in tags.iter_mut() {
        if *t == Some(slot) {
            *t = None;
        }
    }
}

/// The memory operand `ins` writes, if any (stack pushes report an
/// `%esp`-based store; a memory-destination `cmp`/`test` is reported as
/// a store too, which over-kills but never under-kills).
fn store_mem(ins: &X86Instr) -> Option<X86Mem> {
    match ins {
        X86Instr::Mov { dst: Operand::Mem(m), .. }
        | X86Instr::Alu { dst: Operand::Mem(m), .. }
        | X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. }
        | X86Instr::Pop { dst: Operand::Mem(m) } => Some(*m),
        X86Instr::MovStore { dst, .. } => Some(*dst),
        X86Instr::Push { .. } | X86Instr::Pushfd | X86Instr::Call { .. } => {
            // Stack pushes: dynamic addresses (through %esp).
            Some(X86Mem::base(Gpr::Esp))
        }
        _ => None,
    }
}

/// Apply one instruction's *writes* to the seam state, without assuming
/// it is on the guaranteed straight-line path (`merge` mode: stores may
/// or may not execute, so they only ever remove knowledge).
fn apply_kills(st: &mut SeamState, ins: &X86Instr, merge: bool) {
    if let Some(d) = ins.def() {
        st.tags[d.index()] = None;
    }
    if let Some(m) = store_mem(ins) {
        if dynamic_addr(&m) {
            // Could alias any env slot: drop all register knowledge.
            st.tags = [None; 8];
            st.flagmode = FlagAbs::Unknown;
        } else {
            match classify(&m) {
                EnvSlot::Reg(s) => kill_slot(&mut st.tags, s),
                EnvSlot::FlagMode => {
                    let zero =
                        matches!(ins, X86Instr::Mov { dst: Operand::Mem(_), src: Operand::Imm(0) });
                    // A conditional (or non-zero) write degrades to
                    // Unknown; a zero write on a guaranteed path sets
                    // Zero; in merge mode "was Zero and writes zero"
                    // stays Zero.
                    st.flagmode = if zero && (!merge || st.flagmode == FlagAbs::Zero) {
                        FlagAbs::Zero
                    } else {
                        FlagAbs::Unknown
                    };
                }
                EnvSlot::Other | EnvSlot::NotEnv => {}
            }
        }
    }
}

/// Specialize one part's host code against the seam state on entry.
///
/// Returns the (possibly shorter) code and the seam state at the part's
/// straight-line exit — the state a successor part may rely on no matter
/// which exit is actually taken, because elisions and state *generation*
/// are restricted to the straight-line prefix that dominates every exit,
/// and everything after the first branch only *removes* knowledge.
pub fn specialize_part(code: &[X86Instr], entry: &SeamState) -> (Vec<X86Instr>, SeamState) {
    let mut st = entry.clone();
    // Backward jumps would let later code re-enter the elided prefix with
    // shifted targets; none of our lowerers emit them, but a learned rule
    // template could. Refuse to elide in that case (state tracking stays
    // valid: elision is what moves instructions).
    let allow_elide = !code.iter().any(
        |i| matches!(i, X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } if *target < 0),
    );
    let mut out: Vec<X86Instr> = Vec::with_capacity(code.len());
    let mut i = 0usize;
    let mut straight = true;
    while i < code.len() {
        let ins = &code[i];
        // The flag-materialization stub is handled atomically: its
        // internal forward jumps stay self-contained whether it is
        // elided or kept, and either way it leaves flag-mode zero.
        if straight {
            if let Some(end) = stub_extent(code, i) {
                if allow_elide && st.flagmode == FlagAbs::Zero && eflags_dead_after(code, end) {
                    // Provably skipped at runtime: drop guard and body.
                    i = end;
                    continue;
                }
                // Kept: the body clobbers %eax/%ecx and ends with
                // flag-mode zero on both paths.
                out.extend_from_slice(&code[i..end]);
                st.tags[Gpr::Eax.index()] = None;
                st.tags[Gpr::Ecx.index()] = None;
                st.flagmode = FlagAbs::Zero;
                i = end;
                continue;
            }
        }
        if straight {
            match ins {
                // Home load: `movl env(slot), %r`.
                X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(m) }
                    if matches!(classify(m), EnvSlot::Reg(_)) =>
                {
                    let EnvSlot::Reg(s) = classify(m) else { unreachable!() };
                    if allow_elide && st.tags[r.index()] == Some(s) {
                        i += 1; // redundant: register already holds the slot
                        continue;
                    }
                    // Another host register provably holds the slot: a
                    // register-register copy replaces the memory load
                    // (cheaper to execute, and it feeds the region's
                    // copy propagation).
                    if allow_elide {
                        if let Some(q) = st.tags.iter().position(|t| *t == Some(s)) {
                            out.push(X86Instr::mov_rr(*r, Gpr::from_index(q)));
                            st.tags[r.index()] = Some(s);
                            i += 1;
                            continue;
                        }
                    }
                    st.tags[r.index()] = Some(s);
                    out.push(*ins);
                    i += 1;
                    continue;
                }
                // Writeback: `movl %r, env(slot)`.
                X86Instr::Mov { dst: Operand::Mem(m), src: Operand::Reg(r) }
                    if matches!(classify(m), EnvSlot::Reg(_)) =>
                {
                    let EnvSlot::Reg(s) = classify(m) else { unreachable!() };
                    kill_slot(&mut st.tags, s);
                    st.tags[r.index()] = Some(s);
                    out.push(*ins);
                    i += 1;
                    continue;
                }
                // Flag-mode reset: `movl $0, flagmode`.
                X86Instr::Mov { dst: Operand::Mem(m), src: Operand::Imm(0) }
                    if matches!(classify(m), EnvSlot::FlagMode) =>
                {
                    if allow_elide && st.flagmode == FlagAbs::Zero {
                        i += 1; // already zero
                        continue;
                    }
                    st.flagmode = FlagAbs::Zero;
                    out.push(*ins);
                    i += 1;
                    continue;
                }
                // Register copy propagates a tag.
                X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Reg(q) } => {
                    st.tags[r.index()] = st.tags[q.index()];
                    out.push(*ins);
                    i += 1;
                    continue;
                }
                _ => {}
            }
            if matches!(
                ins,
                X86Instr::Jcc { .. }
                    | X86Instr::Jmp { .. }
                    | X86Instr::JmpInd { .. }
                    | X86Instr::Call { .. }
                    | X86Instr::Ret
                    | X86Instr::ChainJmp { .. }
                    | X86Instr::Halt
            ) {
                straight = false;
            }
        }
        apply_kills(&mut st, ins, !straight);
        out.push(*ins);
        i += 1;
    }
    (out, st)
}

// ---------------------------------------------------------------------
// Region-level liveness optimization.
//
// Once a hot chain is straightened, the merged body is full of rule and
// lowering glue that only made sense at block granularity: values copied
// through chains of scratch registers, results computed and thrown away
// before the next seam, immediates shuffled into registers only to be
// stored. Host scratch registers are invisible outside the region —
// translated blocks communicate exclusively through the env, plus `%eax`
// for the dispatcher protocol and `%esp` for the host stack (the
// `entry_reads` invariant, asserted at block insertion in debug builds)
// — so a cross-seam liveness pass may rewrite and delete freely as long
// as every env access, memory effect, and exit is preserved.
// ---------------------------------------------------------------------

/// Register liveness (bit per [`Gpr::index`]) plus EFLAGS liveness (the
/// [`X86Instr::flags_written`] mask layout) at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Live {
    regs: u8,
    flags: u8,
}

impl Live {
    const NONE: Live = Live { regs: 0, flags: 0 };
    const ALL: Live = Live { regs: 0xFF, flags: 0b1111 };

    fn union(self, o: Live) -> Live {
        Live { regs: self.regs | o.regs, flags: self.flags | o.flags }
    }
}

fn bit(r: Gpr) -> u8 {
    1u8 << r.index()
}

/// What is live when control escapes a region to foreign code (the
/// dispatcher after `ret`, or another translated block after a chained
/// side exit): `%eax` carries the next guest pc and `%esp` is the host
/// stack pointer; every other register and all EFLAGS are scratch,
/// because translated blocks start from the env ([`entry_reads`]).
fn exit_live() -> Live {
    Live { regs: bit(Gpr::Eax) | bit(Gpr::Esp), flags: 0 }
}

/// Whether every jump destination lands inside `[0, len]` (`len` itself
/// is the past-the-end fallthrough). Out-of-range jumps would fault at
/// runtime; the optimizer refuses to touch such code.
fn jumps_in_range(code: &[X86Instr]) -> bool {
    code.iter().enumerate().all(|(i, ins)| match ins {
        X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } => {
            (0..=code.len() as i64).contains(&(i as i64 + 1 + *target as i64))
        }
        _ => true,
    })
}

/// Per-instruction liveness. `end_live` is what is live when execution
/// runs off the end of `code` (the successor part's entry liveness for a
/// stripped seam, [`exit_live`] otherwise); `exit` what is live at every
/// escape to foreign code. `seam_next` is the block id of the region's
/// next part, if any: a `ChainJmp` to *that* block is an in-region seam
/// — `run_superblock` continues straight into the next part with host
/// registers intact, and the next part may have been specialized to read
/// them — so it flows into `end_live`, not `exit`. Every other
/// `ChainJmp` leaves the region and lands on arena code, which reads
/// nothing but the env. Iterates to a fixpoint, so backward jumps are
/// handled exactly. Returns the live-*out* set per instruction and the
/// live-in set of the entry point.
fn liveness(
    code: &[X86Instr],
    end_live: Live,
    exit: Live,
    seam_next: Option<u32>,
) -> (Vec<Live>, Live) {
    let n = code.len();
    let mut live_in = vec![Live::NONE; n + 1];
    live_in[n] = end_live;
    let mut live_out = vec![Live::NONE; n];
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let ins = &code[i];
            let dest =
                |t: i32| -> Live { live_in[(i as i64 + 1 + t as i64).clamp(0, n as i64) as usize] };
            let out = match ins {
                X86Instr::ChainJmp { block } if Some(*block) == seam_next => end_live,
                X86Instr::Ret
                | X86Instr::JmpInd { .. }
                | X86Instr::ChainJmp { .. }
                | X86Instr::Halt => exit,
                // A call hands control to code this analysis cannot see
                // and expects it to return: keep everything.
                X86Instr::Call { .. } => Live::ALL,
                X86Instr::Jmp { target } => dest(*target),
                X86Instr::Jcc { target, .. } => dest(*target).union(live_in[i + 1]),
                _ => live_in[i + 1],
            };
            live_out[i] = out;
            let mut regs = out.regs;
            if let Some(d) = ins.def() {
                regs &= !bit(d);
            }
            for u in ins.uses() {
                regs |= bit(u);
            }
            let li = Live { regs, flags: ins.flags_read() | (out.flags & !ins.flags_written()) };
            if li != live_in[i] {
                live_in[i] = li;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (live_out, live_in[0])
}

/// The host registers and EFLAGS `code` may read before writing them —
/// its dependence on entry state. Every translated block must depend on
/// nothing but `%esp`: blocks are entered from the dispatcher or an
/// arbitrary chained predecessor and load all guest state from the env.
/// This invariant is what makes [`exit_live`]'s scratch assumption (and
/// with it the whole region optimizer) sound; the engine asserts it for
/// every inserted block in debug builds.
pub fn entry_reads(code: &[X86Instr]) -> (u8, u8) {
    let (_, li) = liveness(code, Live::NONE, Live::NONE, None);
    (li.regs, li.flags)
}

/// Whether `ins` may be deleted once its results are dead: no memory
/// write, no stack or control-flow effect, and any memory *read* must be
/// a static env access (the env is always mapped, so deletion cannot
/// suppress a fault the original code would raise).
fn removable(ins: &X86Instr) -> bool {
    if store_mem(ins).is_some() || ins.is_block_end() {
        return false;
    }
    if matches!(
        ins,
        X86Instr::Jcc { .. }
            | X86Instr::Push { .. }
            | X86Instr::Pop { .. }
            | X86Instr::Pushfd
            | X86Instr::Popfd
    ) {
        return false;
    }
    let src_mem = match ins {
        X86Instr::Mov { src: Operand::Mem(m), .. }
        | X86Instr::Alu { src: Operand::Mem(m), .. }
        | X86Instr::Imul { src: Operand::Mem(m), .. }
        | X86Instr::Movx { src: Operand::Mem(m), .. } => Some(m),
        _ => None,
    };
    match src_mem {
        Some(m) => !dynamic_addr(m) && !matches!(classify(m), EnvSlot::NotEnv),
        None => true,
    }
}

/// Rebuild `code` keeping only instructions with `keep[i]`, re-encoding
/// the relative jump targets around the holes. A target that pointed at
/// a removed instruction lands on the next kept one.
fn remap(code: &[X86Instr], keep: &[bool]) -> Vec<X86Instr> {
    let n = code.len();
    let mut pos = vec![0usize; n + 1];
    let mut c = 0usize;
    for i in 0..n {
        pos[i] = c;
        if keep[i] {
            c += 1;
        }
    }
    pos[n] = c;
    let mut out = Vec::with_capacity(c);
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        let retarget = |t: i32| -> i32 {
            let d = (i as i64 + 1 + t as i64).clamp(0, n as i64) as usize;
            pos[d] as i32 - pos[i] as i32 - 1
        };
        out.push(match code[i] {
            X86Instr::Jmp { target } => X86Instr::Jmp { target: retarget(target) },
            X86Instr::Jcc { cc, target } => X86Instr::Jcc { cc, target: retarget(target) },
            ins => ins,
        });
    }
    out
}

/// Delete instructions whose register result and flag effects are both
/// dead (plus no-op self-moves), iterating until nothing more falls out.
/// Returns the new code (`None` if unchanged) and the entry liveness for
/// threading across the preceding seam.
fn eliminate_dead(
    code: &[X86Instr],
    end_live: Live,
    exit: Live,
    seam_next: Option<u32>,
) -> (Option<Vec<X86Instr>>, Live) {
    let mut cur: Vec<X86Instr> = code.to_vec();
    let mut any = false;
    loop {
        let n = cur.len();
        let (live_out, live_in0) = liveness(&cur, end_live, exit, seam_next);
        let mut keep = vec![true; n];
        let mut removed = false;
        for (i, ins) in cur.iter().enumerate() {
            let noop = matches!(
                ins,
                X86Instr::Mov { dst: Operand::Reg(a), src: Operand::Reg(b) } if a == b
            );
            if !noop {
                if !removable(ins) {
                    continue;
                }
                let effect = ins.def().is_some() || ins.flags_written() != 0;
                let dead_def = ins.def().is_none_or(|d| live_out[i].regs & bit(d) == 0);
                let dead_flags = ins.flags_written() & live_out[i].flags == 0;
                if !(effect && dead_def && dead_flags) {
                    continue;
                }
            }
            keep[i] = false;
            removed = true;
        }
        if !removed {
            return (any.then_some(cur), live_in0);
        }
        any = true;
        cur = remap(&cur, &keep);
    }
}

/// Constant-fold a pure-register ALU/shift/unary whose inputs are all
/// known. Returns the destination and the folded value; the caller must
/// separately prove the instruction's EFLAGS results dead, because the
/// replacement `mov` writes none.
fn fold(ins: &X86Instr, vals: &[Option<Operand>; 8]) -> Option<(Gpr, i32)> {
    let cv = |r: Gpr| match vals[r.index()] {
        Some(Operand::Imm(v)) => Some(v),
        _ => None,
    };
    match *ins {
        X86Instr::Alu { op, dst: Operand::Reg(r), src }
            if !op.is_compare() && !op.reads_carry() =>
        {
            let a = cv(r)?;
            let b = match src {
                Operand::Imm(v) => v,
                Operand::Reg(q) => cv(q)?,
                Operand::Mem(_) => return None,
            };
            let v = match op {
                AluOp::Add => a.wrapping_add(b),
                AluOp::Sub => a.wrapping_sub(b),
                AluOp::And => a & b,
                AluOp::Or => a | b,
                AluOp::Xor => a ^ b,
                _ => return None,
            };
            Some((r, v))
        }
        X86Instr::Shift { op, dst: Operand::Reg(r), count } => {
            let a = cv(r)?;
            let c = count as u32 & 31;
            let v = match op {
                ShiftOp::Shl => ((a as u32) << c) as i32,
                ShiftOp::Shr => ((a as u32) >> c) as i32,
                ShiftOp::Sar => a >> c,
            };
            Some((r, v))
        }
        X86Instr::Un { op, dst: Operand::Reg(r) } => {
            let a = cv(r)?;
            let v = match op {
                UnOp::Neg => a.wrapping_neg(),
                UnOp::Not => !a,
                UnOp::Inc => a.wrapping_add(1),
                UnOp::Dec => a.wrapping_sub(1),
            };
            Some((r, v))
        }
        _ => None,
    }
}

/// Drop every known register equality invalidated by a write to `d`.
fn invalidate(vals: &mut [Option<Operand>; 8], d: Gpr) {
    vals[d.index()] = None;
    for v in vals.iter_mut() {
        if *v == Some(Operand::Reg(d)) {
            *v = None;
        }
    }
}

/// Substitute a known equality into one *read* operand. `imm_ok` says an
/// immediate is encodable in this position.
fn subst_operand(op: &mut Operand, vals: &[Option<Operand>; 8], imm_ok: bool) -> bool {
    match op {
        Operand::Reg(q) => match vals[q.index()] {
            Some(Operand::Reg(p)) if p != *q => {
                *op = Operand::Reg(p);
                true
            }
            Some(Operand::Imm(v)) if imm_ok => {
                *op = Operand::Imm(v);
                true
            }
            _ => false,
        },
        Operand::Mem(m) => subst_mem(m, vals),
        Operand::Imm(_) => false,
    }
}

/// Substitute into an address: base/index registers with known register
/// equalities are renamed, and known-constant bases fold into the
/// displacement (the computed address is identical either way).
fn subst_mem(m: &mut X86Mem, vals: &[Option<Operand>; 8]) -> bool {
    let mut ch = false;
    if let Some(b) = m.base {
        match vals[b.index()] {
            Some(Operand::Reg(p)) if p != b => {
                m.base = Some(p);
                ch = true;
            }
            Some(Operand::Imm(v)) => {
                m.base = None;
                m.disp = m.disp.wrapping_add(v);
                ch = true;
            }
            _ => {}
        }
    }
    if let Some((ix, s)) = m.index {
        match vals[ix.index()] {
            Some(Operand::Reg(p)) if p != ix => {
                m.index = Some((p, s));
                ch = true;
            }
            Some(Operand::Imm(v)) => {
                m.index = None;
                m.disp = m.disp.wrapping_add(v.wrapping_mul(s as i32));
                ch = true;
            }
            _ => {}
        }
    }
    ch
}

/// Substitute known equalities into every read position of `ins`.
/// Read-write operands (ALU destinations, `setcc`, sub-word stores) are
/// never renamed; compare destinations are pure reads and are.
fn rewrite_reads(ins: &mut X86Instr, vals: &[Option<Operand>; 8]) -> bool {
    match ins {
        X86Instr::Mov { dst, src } => {
            let mut ch = subst_operand(src, vals, true);
            if let Operand::Mem(m) = dst {
                ch |= subst_mem(m, vals);
            }
            ch
        }
        X86Instr::Alu { op, dst, src } => {
            let mut ch = subst_operand(src, vals, true);
            match dst {
                Operand::Mem(m) => ch |= subst_mem(m, vals),
                // cmp/test read their destination without writing it.
                Operand::Reg(q) if op.is_compare() => {
                    if let Some(Operand::Reg(p)) = vals[q.index()] {
                        if p != *q {
                            *dst = Operand::Reg(p);
                            ch = true;
                        }
                    }
                }
                _ => {}
            }
            ch
        }
        X86Instr::Lea { addr, .. } => subst_mem(addr, vals),
        X86Instr::Imul { src, .. } => subst_operand(src, vals, false),
        X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. } => subst_mem(m, vals),
        X86Instr::Movx { src, .. } => subst_operand(src, vals, false),
        // The source's low bits are stored: renaming is value-safe, but
        // W8 needs a byte-addressable register — skip the source.
        X86Instr::MovStore { dst, .. } => subst_mem(dst, vals),
        X86Instr::Push { src } => subst_operand(src, vals, true),
        X86Instr::JmpInd { src } => subst_operand(src, vals, false),
        X86Instr::Pop { dst: Operand::Mem(m) } => subst_mem(m, vals),
        _ => false,
    }
}

/// Forward copy/constant propagation with local constant folding over
/// one part. Equalities are dropped at every jump target (join points;
/// the target set is precomputed, so backward edges join correctly). A
/// fold replaces a flag-writing instruction with a `mov`, so it requires
/// the instruction's EFLAGS results dead per `live_out`. Folds only ever
/// *remove* flag writes whose results were already dead, so `live_out`
/// computed before the pass stays a sound over-approximation throughout.
fn propagate(code: &[X86Instr], live_out: &[Live]) -> Option<Vec<X86Instr>> {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for (i, ins) in code.iter().enumerate() {
        if let X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } = ins {
            is_target[(i as i64 + 1 + *target as i64).clamp(0, n as i64) as usize] = true;
        }
    }
    let mut vals: [Option<Operand>; 8] = [None; 8];
    let mut out = Vec::with_capacity(n);
    let mut changed = false;
    for (i, ins) in code.iter().enumerate() {
        if is_target[i] {
            vals = [None; 8];
        }
        let mut ins = *ins;
        changed |= rewrite_reads(&mut ins, &vals);
        if let Some((d, v)) = fold(&ins, &vals) {
            if ins.flags_written() & live_out[i].flags == 0 {
                ins = X86Instr::mov_imm(d, v);
                changed = true;
            }
        }
        if let Some(d) = ins.def() {
            invalidate(&mut vals, d);
        }
        if matches!(
            ins,
            X86Instr::Push { .. }
                | X86Instr::Pop { .. }
                | X86Instr::Pushfd
                | X86Instr::Popfd
                | X86Instr::Call { .. }
                | X86Instr::Ret
        ) {
            invalidate(&mut vals, Gpr::Esp);
        }
        if let X86Instr::Mov { dst: Operand::Reg(r), src } = ins {
            match src {
                Operand::Reg(q) if q != r => vals[r.index()] = Some(Operand::Reg(q)),
                Operand::Imm(v) => vals[r.index()] = Some(Operand::Imm(v)),
                _ => {}
            }
        }
        out.push(ins);
    }
    changed.then_some(out)
}

/// Liveness-driven cleanup of a whole region, run after specialization
/// and seam stripping: forward copy/constant propagation inside each
/// part, then dead code elimination with cross-seam liveness — a seam
/// (stripped fallthrough *or* a `ChainJmp` to the next part's block,
/// which `run_superblock` follows without leaving the region) threads
/// the successor part's entry liveness into its predecessor, so a value
/// is dead only when no later part on the straightened path reads it
/// before control could reach foreign code. This matters because
/// specialized parts legitimately read registers at entry — that is the
/// seam optimization — so their entry liveness is *not* empty. Every
/// env access, memory effect, and exit is preserved, so the watchdog
/// comparison surface and all guest-visible state are untouched; only
/// executed host instructions shrink.
pub fn optimize_region(parts: &mut [SbPart]) {
    optimize_region_inner(parts, 0);
}

/// [`optimize_region`] with an extra set of registers (`pinned`, a
/// register bitmask) held live across every in-region seam and at every
/// exit — a region allocation's pinned registers carry guest state over
/// seams *and* over the loop backedge (a `ChainJmp` escape from
/// `liveness`'s point of view), so they may never be invalidated
/// anywhere in the region.
fn optimize_region_inner(parts: &mut [SbPart], pinned: u8) {
    let exit = Live { regs: exit_live().regs | pinned, flags: exit_live().flags };
    for _ in 0..4 {
        let mut changed = false;
        let mut next_entry = exit;
        for k in (0..parts.len()).rev() {
            let seam_next = parts.get(k + 1).map(|p| p.id);
            // What is live past the end of this part: the next part's
            // entry for a stripped seam; unreachable otherwise. The same
            // set is what an in-region ChainJmp seam flows into (see
            // `liveness`), so any non-last part uses the threaded value.
            let end_live = if seam_next.is_some() {
                Live { regs: next_entry.regs | pinned, flags: next_entry.flags }
            } else {
                exit
            };
            let mut code: Vec<X86Instr> = (*parts[k].code).clone();
            if jumps_in_range(&code) {
                let mut part_changed = false;
                for _ in 0..4 {
                    let (live_out, _) = liveness(&code, end_live, exit, seam_next);
                    let Some(c) = propagate(&code, &live_out) else { break };
                    code = c;
                    part_changed = true;
                }
                let (c, _) = eliminate_dead(&code, end_live, exit, seam_next);
                if let Some(c) = c {
                    code = c;
                    part_changed = true;
                }
                if part_changed {
                    changed = true;
                    parts[k].code = Rc::new(code.clone());
                }
            }
            let (_, entry) = liveness(&code, end_live, exit, seam_next);
            next_entry = entry;
        }
        if !changed {
            break;
        }
    }
}

/// Whether executing `code` from its start provably writes `%eax` before
/// any instruction reads it (and before any exit the analysis cannot
/// follow). Used to prove a predecessor's seam exit pair — which is what
/// normally freshens `%eax` — can be stripped.
fn eax_redefined_first(code: &[X86Instr], ip: usize, depth: u32) -> bool {
    if depth == 0 {
        return false;
    }
    let mut i = ip;
    loop {
        let Some(ins) = code.get(i) else {
            // Ran off the end: only reachable when this part's own seam
            // pair was stripped, which required its successor to pass
            // this same check first.
            return true;
        };
        if ins.uses().contains(&Gpr::Eax) {
            return false;
        }
        if ins.def() == Some(Gpr::Eax) {
            return true;
        }
        match ins {
            X86Instr::Jcc { target, .. } => {
                if *target < 0 {
                    return false;
                }
                return eax_redefined_first(code, i + 1, depth - 1)
                    && eax_redefined_first(code, i + 1 + *target as usize, depth - 1);
            }
            X86Instr::Jmp { target } => {
                if *target < 0 {
                    return false;
                }
                i = i + 1 + *target as usize;
                continue;
            }
            // Halt never consults %eax; everything else hands control to
            // code this analysis cannot see (the dispatcher reads %eax
            // after `ret`) — refuse.
            X86Instr::Halt => return true,
            X86Instr::Ret | X86Instr::JmpInd { .. } | X86Instr::Call { .. } => return false,
            X86Instr::ChainJmp { .. } => return false,
            _ => {}
        }
        i += 1;
    }
}

/// Strip each part's trailing seam exit pair (`movl $next_pc, %eax;
/// chain @next_id`) where the next part provably redefines `%eax` before
/// reading it. Decided back to front so a stripped part's own
/// past-the-end fallthrough is covered by its successor's proof.
pub fn strip_seam_exits(parts: &mut [SbPart], pcs: &[u32]) {
    debug_assert_eq!(parts.len(), pcs.len());
    for k in (0..parts.len().saturating_sub(1)).rev() {
        let next_id = parts[k + 1].id;
        let next_pc = pcs[k + 1];
        let code = &parts[k].code;
        let n = code.len();
        if n < 2 {
            continue;
        }
        let pair_ok = matches!(
            code[n - 2],
            X86Instr::Mov { dst: Operand::Reg(Gpr::Eax), src: Operand::Imm(v) }
                if v as u32 == next_pc
        ) && matches!(code[n - 1], X86Instr::ChainJmp { block } if block == next_id);
        if !pair_ok || !eax_redefined_first(&parts[k + 1].code, 0, 16) {
            continue;
        }
        // No forward jump may land inside the stripped pair or past the
        // code end — either would change meaning once the pair is gone.
        // A jump to exactly n-2 lands on the pair's first instruction,
        // which after stripping is the past-the-end fallthrough: that is
        // precisely the seam semantics, so it stays legal.
        let jump_into_pair = code.iter().enumerate().any(|(at, ins)| match ins {
            X86Instr::Jcc { target, .. } | X86Instr::Jmp { target } if *target > 0 => {
                let dest = at + 1 + *target as usize;
                dest > n - 2
            }
            _ => false,
        });
        if jump_into_pair {
            continue;
        }
        let part = &mut parts[k];
        let mut new_code = (*part.code).clone();
        new_code.truncate(n - 2);
        part.code = Rc::new(new_code);
        part.fallthrough_seam = true;
    }
}

// ---------------------------------------------------------------------------
// Guest memory access fusion
// ---------------------------------------------------------------------------
//
// A region-scope dataflow pass over each part's straightened body that
// performs store-to-load forwarding, redundant-load elimination, dead-store
// sinking, and pairing of adjacent narrow stores into word stores. All
// reasoning is *segment-local*: facts are discarded at every jump target
// (join points) and at calls, exactly like `propagate`. Fusion never
// removes a store whose bytes could be observed (a side exit, a possibly
// aliasing read, or an address-register redefinition all block the
// elimination), so the watchdog comparison surface — memory at part
// boundaries — is bit-identical with the pass on or off. Eliminated
// *loads* are trivially fault-safe: memory in this substrate never faults
// and the forwarded value is by construction the value the load would have
// produced. Narrow-store pairing only fires for two 16-bit stores covering
// one 4-aligned word — an unaligned or page-crossing pair can never
// qualify — and is gated on the `isa::cost` model pricing the word store
// cheaper than the two narrow stores it replaces.

/// Byte width of an access.
fn width_bytes(w: Width) -> u32 {
    w.bits() / 8
}

/// The absolute address of a register-free address expression.
fn abs_addr(m: &X86Mem) -> Option<u32> {
    (m.base.is_none() && m.index.is_none()).then_some(m.disp as u32)
}

/// `stack` is an `%esp`-relative address and `other` a static env
/// address: disjoint because the host stack lives strictly below
/// `ENV_BASE` (const-asserted in `dbt::env`).
fn esp_vs_env(stack: &X86Mem, other: &X86Mem) -> bool {
    stack.base == Some(Gpr::Esp)
        && stack.index.is_none()
        && matches!(abs_addr(other), Some(a) if a >= ENV_BASE)
}

/// Whether the byte ranges `[m1, m1+w1)` and `[m2, m2+w2)` may overlap.
/// Conservative: only three disjointness proofs exist — both addresses
/// absolute, same-base same-(no-)index displacement deltas, and the
/// `%esp`-vs-env rule.
fn may_overlap(m1: &X86Mem, w1: u32, m2: &X86Mem, w2: u32) -> bool {
    if let (Some(a), Some(b)) = (abs_addr(m1), abs_addr(m2)) {
        // u64 arithmetic so address-space wraparound cannot fake overlap.
        return (a as u64) < b as u64 + w2 as u64 && (b as u64) < a as u64 + w1 as u64;
    }
    if m1.index.is_none() && m2.index.is_none() && m1.base.is_some() && m1.base == m2.base {
        let (d1, d2) = (m1.disp as i64, m2.disp as i64);
        return d1 < d2 + w2 as i64 && d2 < d1 + w1 as i64;
    }
    if esp_vs_env(m1, m2) || esp_vs_env(m2, m1) {
        return false;
    }
    true
}

/// A known equality: reading `width` bytes at `mem` yields `val` (for a
/// sub-word fact with a register value, the register's *low* bits).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemFact {
    mem: X86Mem,
    width: Width,
    val: Operand,
}

/// Memory addresses `ins` *reads*, with byte widths. Complements
/// `store_mem`: read-modify-write ALU destinations (and `cmp` with a
/// memory destination) read their bytes, and stack pops read through
/// `%esp`.
fn load_mems(ins: &X86Instr) -> Vec<(X86Mem, u32)> {
    let mut v = Vec::new();
    match *ins {
        X86Instr::Mov { src: Operand::Mem(m), .. }
        | X86Instr::Alu { src: Operand::Mem(m), .. }
        | X86Instr::Imul { src: Operand::Mem(m), .. }
        | X86Instr::JmpInd { src: Operand::Mem(m) } => v.push((m, 4)),
        X86Instr::Movx { src: Operand::Mem(m), width, .. } => v.push((m, width_bytes(width))),
        _ => {}
    }
    match *ins {
        X86Instr::Alu { dst: Operand::Mem(m), .. }
        | X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. } => v.push((m, 4)),
        _ => {}
    }
    if matches!(ins, X86Instr::Pop { .. } | X86Instr::Popfd | X86Instr::Ret) {
        v.push((X86Mem::base(Gpr::Esp), 4));
    }
    v
}

/// Update the fact/constant state for one (already rewritten)
/// instruction: kill facts clobbered by its store, its register def, or
/// an `%esp` adjustment, then record any new equality it establishes.
fn apply_effects(ins: &X86Instr, facts: &mut Vec<MemFact>, consts: &mut [Option<i32>; 8]) {
    if let Some(sm) = store_mem(ins) {
        let w = match *ins {
            X86Instr::MovStore { width, .. } => width_bytes(width),
            _ => 4,
        };
        facts.retain(|f| !may_overlap(&f.mem, width_bytes(f.width), &sm, w));
    }
    if let Some(d) = ins.def() {
        facts.retain(|f| f.val != Operand::Reg(d) && !f.mem.regs().contains(&d));
        consts[d.index()] = None;
    }
    if matches!(
        ins,
        X86Instr::Push { .. }
            | X86Instr::Pop { .. }
            | X86Instr::Pushfd
            | X86Instr::Popfd
            | X86Instr::Call { .. }
            | X86Instr::Ret
    ) {
        // %esp moved: every %esp-relative address now names other bytes.
        facts.retain(|f| !f.mem.regs().contains(&Gpr::Esp));
        consts[Gpr::Esp.index()] = None;
    }
    if matches!(ins, X86Instr::Call { .. }) {
        facts.clear();
        *consts = [None; 8];
    }
    match *ins {
        X86Instr::Mov { dst: Operand::Mem(m), src: src @ (Operand::Reg(_) | Operand::Imm(_)) } => {
            facts.push(MemFact { mem: m, width: Width::W32, val: src });
        }
        X86Instr::MovStore { width, src, dst } => {
            facts.push(MemFact { mem: dst, width, val: Operand::Reg(src) });
        }
        X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(m) } if !m.regs().contains(&r) => {
            facts.push(MemFact { mem: m, width: Width::W32, val: Operand::Reg(r) });
        }
        X86Instr::Movx { width, dst, src: Operand::Mem(m), .. } if !m.regs().contains(&dst) => {
            facts.push(MemFact { mem: m, width, val: Operand::Reg(dst) });
        }
        _ => {}
    }
    if let X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Imm(v) } = *ins {
        consts[r.index()] = Some(v);
    }
}

/// Replace a memory read in `ins` with a known equal value, if any.
/// A register value standing in for a narrow read uses the register's
/// low bits, which both zero- and sign-extension then treat exactly as
/// they would the memory bytes. A full-width fact also serves a narrow
/// read at the same address expression (little-endian low bytes). W8
/// register substitution additionally requires a byte-addressable
/// register (`%eax`–`%ebx`), mirroring the encoder's constraint.
fn forward_into(ins: X86Instr, facts: &[MemFact], elim: &mut u64) -> X86Instr {
    let find = |m: &X86Mem, w: Width| {
        facts.iter().find(|f| f.mem == *m && (f.width == w || f.width == Width::W32)).map(|f| f.val)
    };
    match ins {
        X86Instr::Mov { dst: dst @ Operand::Reg(_), src: Operand::Mem(m) } => {
            if let Some(v) = find(&m, Width::W32) {
                *elim += 1;
                return X86Instr::Mov { dst, src: v };
            }
        }
        X86Instr::Alu { op, dst, src: Operand::Mem(m) } => {
            if let Some(v) = find(&m, Width::W32) {
                *elim += 1;
                return X86Instr::Alu { op, dst, src: v };
            }
        }
        X86Instr::Imul { dst, src: Operand::Mem(m) } => {
            if let Some(v @ Operand::Reg(_)) = find(&m, Width::W32) {
                *elim += 1;
                return X86Instr::Imul { dst, src: v };
            }
        }
        X86Instr::Movx { sign, width, dst, src: Operand::Mem(m) } => {
            if let Some(v @ Operand::Reg(q)) = find(&m, width) {
                if width != Width::W8 || q.index() < 4 {
                    *elim += 1;
                    return X86Instr::Movx { sign, width, dst, src: v };
                }
            }
        }
        _ => {}
    }
    ins
}

/// Try to pair the two leading instructions of `w` — adjacent 16-bit
/// stores of known constants covering one 4-aligned word — into a single
/// word-store, when the cost model prices that cheaper. Returns the
/// replacement. An unaligned word (`addr % 4 != 0`, including any
/// page-crossing pair) never qualifies.
fn pair_stores(w: &[X86Instr], consts: &[Option<i32>; 8], model: &CostModel) -> Option<X86Instr> {
    let [X86Instr::MovStore { width: Width::W16, src: s1, dst: d1 }, X86Instr::MovStore { width: Width::W16, src: s2, dst: d2 }, ..] =
        *w
    else {
        return None;
    };
    let (a1, a2) = (abs_addr(&d1)?, abs_addr(&d2)?);
    let (v1, v2) = (consts[s1.index()]?, consts[s2.index()]?);
    let (lo, l, h) = if a2 == a1.checked_add(2)? {
        (a1, v1, v2)
    } else if a1 == a2.checked_add(2)? {
        (a2, v2, v1)
    } else {
        return None;
    };
    if lo % 4 != 0 {
        return None;
    }
    let word = (l as u32 & 0xffff) | ((h as u32) << 16);
    let fused = X86Instr::Mov {
        dst: Operand::Mem(X86Mem::absolute(lo as i32)),
        src: Operand::Imm(word as i32),
    };
    let before = model.cost(w[0].kind()) + model.cost(w[1].kind());
    (model.cost(fused.kind()) < before).then_some(fused)
}

/// Pass 1: one forward sweep doing store-to-load forwarding, redundant
/// load elimination, and narrow-store pairing. Returns the rewritten
/// code, the number of accesses eliminated or replaced by a cheaper
/// form, and the facts that hold at *every* transition to the seam
/// successor (`seam_next` chains plus the stripped fallthrough when
/// `ft_seam`) — a seam executes nothing, so the caller may thread those
/// facts into the next part's sweep.
///
/// `entry` seeds the sweep with facts carried across the preceding seam.
/// The seed is only sound because a part's entry (other than the region
/// head, which the caller seeds empty) is reachable *solely* through
/// that seam: mid-region parts are never dispatch targets and the
/// resident backedge re-enters at part 0 alone.
fn fuse_forward(
    code: &[X86Instr],
    entry: Vec<MemFact>,
    seam_next: Option<u32>,
    ft_seam: bool,
) -> (Vec<X86Instr>, u64, Vec<MemFact>) {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for (i, ins) in code.iter().enumerate() {
        if let X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } = ins {
            is_target[(i as i64 + 1 + *target as i64).clamp(0, n as i64) as usize] = true;
        }
    }
    let model = CostModel::default();
    let mut facts: Vec<MemFact> = entry;
    let mut consts: [Option<i32>; 8] = [None; 8];
    let mut out = Vec::with_capacity(n);
    let mut elim = 0u64;
    // Intersection of the fact sets at each seam transition site.
    let mut seam_facts: Option<Vec<MemFact>> = None;
    let meet = |cur: &[MemFact], acc: &mut Option<Vec<MemFact>>| match acc {
        None => *acc = Some(cur.to_vec()),
        Some(a) => a.retain(|f| cur.contains(f)),
    };
    let mut i = 0usize;
    while i < n {
        if is_target[i] {
            facts.clear();
            consts = [None; 8];
        }
        // Pairing consumes two instructions; a jump landing between them
        // must see both stores, so the pair is refused across a target.
        if i + 1 < n && !is_target[i + 1] {
            if let Some(fused) = pair_stores(&code[i..], &consts, &model) {
                apply_effects(&fused, &mut facts, &mut consts);
                out.push(fused);
                elim += 1;
                i += 2;
                continue;
            }
        }
        let ins = forward_into(code[i], &facts, &mut elim);
        apply_effects(&ins, &mut facts, &mut consts);
        match ins {
            // An in-region chained seam: the jump executes nothing more.
            X86Instr::ChainJmp { block } if Some(block) == seam_next => {
                meet(&facts, &mut seam_facts);
            }
            // A stripped seam is also reached by jumps landing exactly on
            // the end of the code (e.g. a branch over the part's escape).
            X86Instr::Jmp { target } | X86Instr::Jcc { target, .. }
                if ft_seam && i as i64 + 1 + target as i64 == n as i64 =>
            {
                meet(&facts, &mut seam_facts);
            }
            _ => {}
        }
        out.push(ins);
        i += 1;
    }
    // The linear fallthrough reaches a stripped seam only when the last
    // instruction does not end the straight line (a trailing escape means
    // the seam is entered solely through the jump sites above).
    if ft_seam && (n == 0 || !code[n - 1].is_block_end()) {
        meet(&facts, &mut seam_facts);
    }
    (out, elim, seam_facts.unwrap_or_default())
}

/// Pass 2: dead-store sinking. A plain store (`mov` to memory or a
/// narrow `MovStore` — never a read-modify-write, which also produces
/// flags) is removed when a later store in the same straight-line
/// segment fully overwrites its bytes through the *same* address
/// expression before any possibly-aliasing read, any control transfer
/// (`Jcc` side exits escape to foreign code that may read memory), any
/// jump target, or any redefinition of the address registers.
fn eliminate_dead_stores(code: &[X86Instr]) -> (Option<Vec<X86Instr>>, u64) {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for (i, ins) in code.iter().enumerate() {
        if let X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } = ins {
            is_target[(i as i64 + 1 + *target as i64).clamp(0, n as i64) as usize] = true;
        }
    }
    let mut keep = vec![true; n];
    let mut elim = 0u64;
    for i in 0..n {
        let (m, w) = match code[i] {
            X86Instr::Mov { dst: Operand::Mem(m), .. } => (m, 4u32),
            X86Instr::MovStore { width, dst, .. } => (dst, width_bytes(width)),
            _ => continue,
        };
        let addr_regs = m.regs();
        let mut j = i + 1;
        let dead = loop {
            if j >= n || is_target[j] {
                break false;
            }
            let nxt = code[j];
            let covers = match nxt {
                X86Instr::Mov { dst: Operand::Mem(m2), .. } => m2 == m,
                X86Instr::MovStore { width: w2, dst: m2, .. } => m2 == m && width_bytes(w2) >= w,
                _ => false,
            };
            if covers && keep[j] {
                break true;
            }
            if nxt.is_block_end() || matches!(nxt, X86Instr::Jcc { .. }) {
                break false;
            }
            if load_mems(&nxt).iter().any(|(lm, lw)| may_overlap(lm, *lw, &m, w)) {
                break false;
            }
            if nxt.def().is_some_and(|d| addr_regs.contains(&d)) {
                break false;
            }
            if addr_regs.contains(&Gpr::Esp)
                && matches!(
                    nxt,
                    X86Instr::Push { .. }
                        | X86Instr::Pop { .. }
                        | X86Instr::Pushfd
                        | X86Instr::Popfd
                )
            {
                break false;
            }
            j += 1;
        };
        if dead {
            keep[i] = false;
            elim += 1;
        }
    }
    if elim == 0 {
        return (None, 0);
    }
    (Some(remap(code, &keep)), elim)
}

/// Fuse guest memory accesses across the region, part by part, with
/// store-to-load facts carried across stripped seams (a seam executes
/// nothing, so an equality proven at every seam transition of part `k`
/// still holds at part `k + 1`'s entry). The region head starts with no
/// facts — it is a dispatch target and the resident backedge re-enters
/// there. Returns the number of accesses eliminated, forwarded, or
/// paired.
pub fn fuse_region(parts: &mut [SbPart]) -> u64 {
    let mut total = 0u64;
    let mut carry: Vec<MemFact> = Vec::new();
    for k in 0..parts.len() {
        let seam_next = parts.get(k + 1).map(|p| p.id);
        let code: Vec<X86Instr> = (*parts[k].code).clone();
        if !jumps_in_range(&code) {
            carry = Vec::new();
            continue;
        }
        let entry = std::mem::take(&mut carry);
        let (fwd, e1, exit_facts) =
            fuse_forward(&code, entry, seam_next, parts[k].fallthrough_seam);
        let (sunk, e2) = eliminate_dead_stores(&fwd);
        if e1 + e2 > 0 {
            parts[k].code = Rc::new(sunk.unwrap_or(fwd));
            total += e1 + e2;
        }
        carry = exit_facts;
    }
    total
}

// ---------------------------------------------------------------------------
// Region register allocation
// ---------------------------------------------------------------------------
//
// Promote hot guest register env slots to host registers pinned for the
// whole region. After promotion the pinned register *is* the guest
// register inside the region: a preamble (owned by the engine, run once
// at region entry — see [`Superblock::preamble`]) loads it from the env
// home, every interior access is rewritten to the register form, and an
// unconditional writeback sequence re-materializes the env home
// immediately before every escape (ret / indirect jump / halt / chain to
// a block outside the straightened path). In-region seams and the
// *backedge* — a `ChainJmp` to the region's own head, which
// `run_superblock` follows back to part 0 without leaving the region —
// do NOT write back: that residency is the point. The engine therefore
// materializes pinned registers into env before any watchdog snapshot or
// comparison taken at an in-region boundary (`Engine::run_superblock`
// does exactly that, and only there: after an escape the writebacks have
// already run and the pinned register may legitimately be stale).
//
// Legality is whole-region: any call, any backward jump, or any explicit
// `%esp` definition refuses the allocation entirely. Dynamically
// addressed accesses — loads and stores — are permitted: the guest
// address space (code, globals, guest stack) lies strictly below
// `HOST_STACK_TOP < ENV_BASE`, so guest code cannot legitimately name a
// pinned slot's env home; the differential watchdog remains the safety
// net for one that somehow does (DESIGN.md §16). A slot accessed by any
// sub-word or misaligned-overlap form is unpinnable; remaining
// candidates are ranked by static access count and pinned to `POOL`
// registers the region never touches, most-accessed first, while free
// registers last. Under spill pressure (no free registers) the region
// simply keeps its current env-home behavior.

/// The absolute address expression of guest register slot `s`.
fn slot_mem(s: u8) -> X86Mem {
    X86Mem::absolute((ENV_BASE + 4 * s as u32) as i32)
}

/// Whether `ins` leaves the region given the next part on the path and
/// the region's head block. A `ChainJmp` to the head is the loop
/// backedge: `run_superblock` follows it back to part 0 in-region, so it
/// is not an escape.
fn is_escape(ins: &X86Instr, seam_next: Option<u32>, head: u32) -> bool {
    match *ins {
        X86Instr::Ret | X86Instr::JmpInd { .. } | X86Instr::Halt => true,
        X86Instr::ChainJmp { block } => Some(block) != seam_next && block != head,
        _ => false,
    }
}

/// Insert `block` before position `p`, stretching relative jump targets
/// that cross the insertion point. A jump landing exactly *at* `p` keeps
/// its target: after insertion it lands on the first inserted
/// instruction, so an escape reached by jump still runs the writebacks
/// inserted before it. Backward jumps are refused region-wide before
/// this is ever called.
fn insert_before(code: &mut Vec<X86Instr>, p: usize, block: &[X86Instr]) {
    let len = block.len() as i32;
    for (a, ins) in code.iter_mut().enumerate() {
        if let X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } = ins {
            let dest = a as i64 + 1 + *target as i64;
            if a < p && dest > p as i64 {
                *target += len;
            }
        }
    }
    code.splice(p..p, block.iter().copied());
}

/// Static memory accesses of `ins` as `(address, bytes, supported)`:
/// `supported` means the access is a whole-slot W32 form the allocator
/// knows how to rewrite to a plain register operand with identical value
/// and flags behavior. An unsupported access overlapping a slot poisons
/// that slot.
fn static_accesses(ins: &X86Instr) -> Vec<(X86Mem, u32, bool)> {
    let mut v = Vec::new();
    match *ins {
        X86Instr::Mov { dst: Operand::Mem(m), .. } | X86Instr::Mov { src: Operand::Mem(m), .. } => {
            v.push((m, 4, true));
        }
        X86Instr::Alu { dst: Operand::Mem(m), .. } | X86Instr::Alu { src: Operand::Mem(m), .. } => {
            v.push((m, 4, true));
        }
        X86Instr::Imul { src: Operand::Mem(m), .. }
        | X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. }
        | X86Instr::Push { src: Operand::Mem(m) }
        | X86Instr::Pop { dst: Operand::Mem(m) } => v.push((m, 4, true)),
        X86Instr::Movx { src: Operand::Mem(m), width, .. } => {
            v.push((m, width_bytes(width), false));
        }
        X86Instr::MovStore { width, dst, .. } => v.push((dst, width_bytes(width), false)),
        X86Instr::JmpInd { src: Operand::Mem(m) } | X86Instr::Lea { addr: m, .. } => {
            v.push((m, 4, false));
        }
        _ => {}
    }
    v
}

/// Rewrite every whole-slot access to slot `s` in `ins` to use the
/// pinned register `p` instead of the env home.
fn rewrite_slot_access(ins: &mut X86Instr, s: u8, p: Gpr) {
    let slot = slot_mem(s);
    let hit = |o: &Operand| matches!(o, Operand::Mem(m) if *m == slot);
    *ins = match *ins {
        X86Instr::Mov { dst: dst @ Operand::Reg(_), src } if hit(&src) => {
            X86Instr::Mov { dst, src: Operand::Reg(p) }
        }
        X86Instr::Mov { dst, src } if hit(&dst) => X86Instr::Mov { dst: Operand::Reg(p), src },
        X86Instr::Alu { op, dst, src } if hit(&dst) => {
            X86Instr::Alu { op, dst: Operand::Reg(p), src }
        }
        X86Instr::Alu { op, dst, src } if hit(&src) => {
            X86Instr::Alu { op, dst, src: Operand::Reg(p) }
        }
        X86Instr::Imul { dst, src } if hit(&src) => X86Instr::Imul { dst, src: Operand::Reg(p) },
        X86Instr::Shift { op, dst, count } if hit(&dst) => {
            X86Instr::Shift { op, dst: Operand::Reg(p), count }
        }
        X86Instr::Un { op, dst } if hit(&dst) => X86Instr::Un { op, dst: Operand::Reg(p) },
        X86Instr::Push { src } if hit(&src) => X86Instr::Push { src: Operand::Reg(p) },
        X86Instr::Pop { dst } if hit(&dst) => X86Instr::Pop { dst: Operand::Reg(p) },
        other => other,
    };
}

/// Region-wide register allocation: pin hot guest register slots to host
/// registers from `pool` that the region never otherwise touches.
/// Returns the allocation (`(slot, pinned register)` pairs, empty when
/// nothing was pinned). See the module section comment for the contract.
pub fn allocate_region(parts: &mut [SbPart], pool: &[Gpr]) -> Vec<(u8, Gpr)> {
    // ---- whole-region legality ----
    // Calls hand control to code that may use any register; an explicit
    // `%esp` definition breaks the stack/env disjointness reasoning;
    // backward jumps would complicate writeback insertion (a jump could
    // then land *after* an inserted block it must execute). Dynamically
    // addressed accesses — loads and stores — are permitted: the guest
    // address space (code, globals, guest stack) lies strictly below
    // `HOST_STACK_TOP < ENV_BASE`, so guest code cannot legitimately name
    // a pinned slot's env home; the differential watchdog remains the
    // safety net for one that somehow does (DESIGN.md §16).
    for part in parts.iter() {
        if !jumps_in_range(&part.code) {
            return Vec::new();
        }
        for ins in part.code.iter() {
            if matches!(ins, X86Instr::Call { .. }) || ins.def() == Some(Gpr::Esp) {
                return Vec::new();
            }
            if let X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } = ins {
                if *target < 0 {
                    return Vec::new();
                }
            }
        }
    }
    // ---- per-slot census + register usage ----
    let head = parts[0].id;
    let mut count = [0u32; 15];
    let mut pinnable = [true; 15];
    let mut used: u8 = bit(Gpr::Eax) | bit(Gpr::Esp);
    let mut escapes = 0u32;
    for (k, part) in parts.iter().enumerate() {
        let seam_next = parts.get(k + 1).map(|p| p.id);
        for ins in part.code.iter() {
            for u in ins.uses() {
                used |= bit(u);
            }
            if let Some(d) = ins.def() {
                used |= bit(d);
            }
            if is_escape(ins, seam_next, head) {
                escapes += 1;
            }
            for (m, bytes, supported) in static_accesses(ins) {
                if dynamic_addr(&m) {
                    continue;
                }
                let a = m.disp as u32;
                for s in 0..15u32 {
                    let lo = ENV_BASE + 4 * s;
                    if a < lo + 4 && lo < a.saturating_add(bytes) {
                        if supported && a == lo && bytes == 4 {
                            count[s as usize] += 1;
                        } else {
                            pinnable[s as usize] = false;
                        }
                    }
                }
            }
        }
    }
    // ---- selection: hottest slots onto unused pool registers ----
    // A pin costs one preamble load plus one writeback per escape; it
    // must be reached by at least two rewritten accesses to pay off.
    let mut hot: Vec<u8> = (0..15u8)
        .filter(|&s| pinnable[s as usize] && count[s as usize] >= 2u32.max(escapes))
        .collect();
    hot.sort_by_key(|&s| (std::cmp::Reverse(count[s as usize]), s));
    let free: Vec<Gpr> = pool.iter().copied().filter(|&p| used & bit(p) == 0).collect();
    let ra: Vec<(u8, Gpr)> = hot.into_iter().zip(free).collect();
    if ra.is_empty() {
        return ra;
    }
    // ---- rewrite: interior accesses, preamble, writebacks ----
    for part in parts.iter_mut() {
        let mut code = (*part.code).clone();
        for ins in code.iter_mut() {
            for &(s, p) in &ra {
                rewrite_slot_access(ins, s, p);
            }
        }
        part.code = Rc::new(code);
    }
    for k in 0..parts.len() {
        let seam_next = parts.get(k + 1).map(|p| p.id);
        let mut code = (*parts[k].code).clone();
        let sites: Vec<usize> = code
            .iter()
            .enumerate()
            .filter(|(_, ins)| is_escape(ins, seam_next, head))
            .map(|(i, _)| i)
            .collect();
        let wb: Vec<X86Instr> = ra
            .iter()
            .map(|&(s, p)| X86Instr::Mov { dst: Operand::Mem(slot_mem(s)), src: Operand::Reg(p) })
            .collect();
        for &at in sites.iter().rev() {
            insert_before(&mut code, at, &wb);
        }
        parts[k].code = Rc::new(code);
    }
    ra
}

/// The region-entry preamble for an allocation: one load from each
/// pinned slot's env home. The engine runs this once per region entry,
/// *not* on the loop backedge (where the pinned registers — not env —
/// are authoritative).
pub fn ra_preamble(ra: &[(u8, Gpr)]) -> Vec<X86Instr> {
    ra.iter()
        .map(|&(s, p)| X86Instr::Mov { dst: Operand::Reg(p), src: Operand::Mem(slot_mem(s)) })
        .collect()
}

/// [`optimize_region`] with the pinned registers of an allocation held
/// live across every in-region seam, so cleanup can never invalidate a
/// pinned register between parts (a writeback's source may be renamed
/// away from the pin by propagation; the pin itself must still hold the
/// guest value at the next seam for the engine's watchdog
/// materialization).
pub fn optimize_region_pinned(parts: &mut [SbPart], ra: &[(u8, Gpr)]) {
    let pinned = ra.iter().fold(0u8, |acc, &(_, p)| acc | bit(p));
    optimize_region_inner(parts, pinned);
}

/// The region allocation contract, checked by the engine after region
/// formation (debug builds): part 0 reads only `%esp` and the pinned
/// registers (which the entry preamble defines) and no flags at entry,
/// and every escape is immediately preceded by a writeback store to each
/// pinned slot's env home (later passes may rewrite the *source* of a
/// writeback but never remove or reorder the store).
pub fn region_contract(parts: &[SbPart], ra: &[(u8, Gpr)]) -> bool {
    let Some(first) = parts.first() else {
        return true;
    };
    let head = first.id;
    let pinned = ra.iter().fold(0u8, |acc, &(_, p)| acc | bit(p));
    let (regs, flags) = entry_reads(&first.code);
    if regs & !(bit(Gpr::Esp) | pinned) != 0 || flags != 0 {
        return false;
    }
    for (k, part) in parts.iter().enumerate() {
        let seam_next = parts.get(k + 1).map(|p| p.id);
        for (i, ins) in part.code.iter().enumerate() {
            if !is_escape(ins, seam_next, head) {
                continue;
            }
            let window = &part.code[i.saturating_sub(ra.len())..i];
            for &(s, _) in ra {
                let slot = slot_mem(s);
                let wrote = window
                    .iter()
                    .any(|w| matches!(w, X86Instr::Mov { dst: Operand::Mem(m), .. } if *m == slot));
                if !wrote {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{env_mem, reg_mem, FLAGMODE_OFFSET, HOSTFLAGS_OFFSET};
    use ldbt_arm::ArmReg;

    fn load(r: Gpr, g: ArmReg) -> X86Instr {
        X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(reg_mem(g)) }
    }

    fn store(g: ArmReg, r: Gpr) -> X86Instr {
        X86Instr::Mov { dst: Operand::Mem(reg_mem(g)), src: Operand::Reg(r) }
    }

    fn flagmode_reset() -> X86Instr {
        X86Instr::Mov { dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)), src: Operand::Imm(0) }
    }

    fn exit_pair(pc: u32, block: u32) -> [X86Instr; 2] {
        [X86Instr::mov_imm(Gpr::Eax, pc as i32), X86Instr::ChainJmp { block }]
    }

    /// A miniature but faithful flag stub (guard + body + reset).
    fn mini_stub() -> Vec<X86Instr> {
        vec![
            X86Instr::Alu {
                op: AluOp::Cmp,
                dst: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
                src: Operand::Imm(0),
            },
            X86Instr::Jcc { cc: Cc::E, target: 4 },
            X86Instr::Mov {
                dst: Operand::Reg(Gpr::Ecx),
                src: Operand::Mem(env_mem(FLAGMODE_OFFSET)),
            },
            X86Instr::Push { src: Operand::Mem(env_mem(HOSTFLAGS_OFFSET)) },
            X86Instr::Popfd,
            flagmode_reset(),
        ]
    }

    #[test]
    fn entry_state_keeps_everything() {
        let code = vec![load(Gpr::Ecx, ArmReg::R0), X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1)];
        let (out, st) = specialize_part(&code, &SeamState::entry());
        assert_eq!(out, code, "nothing provable at entry: nothing elided");
        // The add killed the tag the load generated.
        assert_eq!(st.tags[Gpr::Ecx.index()], None);
    }

    #[test]
    fn redundant_home_load_elided_and_writeback_tags() {
        // Part A writes back r4 from %esi; part B reloads it.
        let a = vec![store(ArmReg::R4, Gpr::Esi), X86Instr::Ret];
        let (_, seam) = specialize_part(&a, &SeamState::entry());
        assert_eq!(seam.tags[Gpr::Esi.index()], Some(4));
        let b = vec![load(Gpr::Esi, ArmReg::R4), X86Instr::alu_ri(AluOp::Add, Gpr::Esi, 7)];
        let (out, _) = specialize_part(&b, &seam);
        assert_eq!(out.len(), 1, "reload of a still-live home is dropped");
        assert!(matches!(out[0], X86Instr::Alu { .. }));
        // With a cold seam the load must survive.
        let (cold, _) = specialize_part(&b, &SeamState::entry());
        assert_eq!(cold.len(), 2);
    }

    #[test]
    fn load_to_different_reg_not_elided() {
        let a = vec![store(ArmReg::R4, Gpr::Esi), X86Instr::Ret];
        let (_, seam) = specialize_part(&a, &SeamState::entry());
        let b = vec![load(Gpr::Edi, ArmReg::R4)];
        let (out, st) = specialize_part(&b, &seam);
        assert_eq!(out.len(), 1, "different target register: keep the load");
        assert_eq!(st.tags[Gpr::Edi.index()], Some(4));
    }

    #[test]
    fn flagmode_reset_elided_when_zero() {
        let a = vec![flagmode_reset(), X86Instr::Ret];
        let (_, seam) = specialize_part(&a, &SeamState::entry());
        assert_eq!(seam.flagmode, FlagAbs::Zero);
        let b = vec![flagmode_reset(), X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1)];
        let (out, st) = specialize_part(&b, &seam);
        assert_eq!(out.len(), 1, "redundant reset dropped");
        assert_eq!(st.flagmode, FlagAbs::Zero);
    }

    #[test]
    fn flag_stub_elided_only_when_flagmode_zero_and_eflags_dead() {
        let mut b = mini_stub();
        // Body: a flag writer follows, so the stub's cmp flags are dead.
        b.push(X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1));
        let zero = SeamState { tags: [None; 8], flagmode: FlagAbs::Zero };
        let (out, st) = specialize_part(&b, &zero);
        assert_eq!(out.len(), 1, "whole stub elided: {out:?}");
        assert_eq!(st.flagmode, FlagAbs::Zero);
        // Unknown flag-mode: the stub must stay, and normalizes to Zero.
        let (kept, st2) = specialize_part(&b, &SeamState::entry());
        assert_eq!(kept.len(), b.len());
        assert_eq!(st2.flagmode, FlagAbs::Zero);
    }

    #[test]
    fn flag_stub_kept_when_eflags_still_read() {
        // A setcc consumes EFLAGS right after the stub: the stub's cmp is
        // load-bearing for it, so elision must refuse.
        let mut b = mini_stub();
        b.push(X86Instr::Setcc { cc: Cc::E, dst: Gpr::Ecx });
        let zero = SeamState { tags: [None; 8], flagmode: FlagAbs::Zero };
        let (out, _) = specialize_part(&b, &zero);
        assert_eq!(out.len(), b.len(), "EFLAGS consumer blocks stub elision");
    }

    #[test]
    fn dynamic_store_kills_all_tags() {
        let a = vec![store(ArmReg::R4, Gpr::Esi), X86Instr::Ret];
        let (_, mut seam) = specialize_part(&a, &SeamState::entry());
        seam.flagmode = FlagAbs::Zero;
        let b = vec![X86Instr::Mov {
            dst: Operand::Mem(X86Mem::base(Gpr::Edx)),
            src: Operand::Reg(Gpr::Esi),
        }];
        let (_, st) = specialize_part(&b, &seam);
        assert_eq!(st.tags, [None; 8], "a store through a pointer may alias the env");
        assert_eq!(st.flagmode, FlagAbs::Unknown);
    }

    #[test]
    fn post_branch_code_only_removes_knowledge() {
        // After the first branch nothing is guaranteed to execute: a
        // home load there must not generate a tag, and a conditional
        // writeback must kill one.
        let code = vec![
            store(ArmReg::R4, Gpr::Esi),
            X86Instr::Jcc { cc: Cc::E, target: 1 },
            store(ArmReg::R4, Gpr::Edi), // maybe-executed: r4 no longer tied to %esi
            load(Gpr::Ebx, ArmReg::R5),  // maybe-executed: generates nothing
        ];
        let (out, st) = specialize_part(&code, &SeamState::entry());
        assert_eq!(out.len(), code.len());
        assert_eq!(st.tags[Gpr::Esi.index()], None);
        assert_eq!(st.tags[Gpr::Ebx.index()], None);
    }

    #[test]
    fn backward_jump_disables_elision() {
        let a = vec![store(ArmReg::R4, Gpr::Esi), X86Instr::Ret];
        let (_, seam) = specialize_part(&a, &SeamState::entry());
        let b = vec![load(Gpr::Esi, ArmReg::R4), X86Instr::Jcc { cc: Cc::E, target: -1 }];
        let (out, _) = specialize_part(&b, &seam);
        assert_eq!(out.len(), 2, "backward jump: shifting indices is unsafe");
    }

    #[test]
    fn seam_exit_pair_stripped_when_eax_dead() {
        let pair = exit_pair(0x1_0040, 7);
        let mut parts = vec![
            SbPart {
                id: 3,
                code: Rc::new(vec![X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1), pair[0], pair[1]]),
                fallthrough_seam: false,
            },
            SbPart {
                id: 7,
                // Next part redefines %eax before any use (a Jump exit).
                code: Rc::new(vec![
                    X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 2),
                    X86Instr::mov_imm(Gpr::Eax, 0x1_0080),
                    X86Instr::Ret,
                ]),
                fallthrough_seam: false,
            },
        ];
        strip_seam_exits(&mut parts, &[0x1_0000, 0x1_0040]);
        assert!(parts[0].fallthrough_seam);
        assert_eq!(parts[0].code.len(), 1, "pair stripped");
        assert!(!parts[1].fallthrough_seam, "last part never stripped");
    }

    #[test]
    fn seam_exit_pair_kept_when_next_reads_eax() {
        let pair = exit_pair(0x1_0040, 7);
        let mut parts = vec![
            SbPart { id: 3, code: Rc::new(vec![pair[0], pair[1]]), fallthrough_seam: false },
            SbPart {
                id: 7,
                // Reads %eax (e.g. via an indirect-exit mov) before writing.
                code: Rc::new(vec![
                    X86Instr::mov_rr(Gpr::Ecx, Gpr::Eax),
                    X86Instr::mov_imm(Gpr::Eax, 0),
                    X86Instr::Ret,
                ]),
                fallthrough_seam: false,
            },
        ];
        strip_seam_exits(&mut parts, &[0x1_0000, 0x1_0040]);
        assert!(!parts[0].fallthrough_seam, "eax live-in: keep the pair");
        assert_eq!(parts[0].code.len(), 2);
    }

    #[test]
    fn seam_exit_pair_kept_when_target_mismatches() {
        let pair = exit_pair(0x9999, 7); // wrong pc for part 1
        let mut parts = vec![
            SbPart { id: 3, code: Rc::new(vec![pair[0], pair[1]]), fallthrough_seam: false },
            SbPart {
                id: 7,
                code: Rc::new(vec![X86Instr::mov_imm(Gpr::Eax, 0), X86Instr::Ret]),
                fallthrough_seam: false,
            },
        ];
        strip_seam_exits(&mut parts, &[0x1_0000, 0x1_0040]);
        assert!(!parts[0].fallthrough_seam);
    }

    #[test]
    fn eax_analysis_follows_both_branch_arms() {
        // Branch-terminator shape: cmp; jcc over the not-taken arm; both
        // arms define %eax first thing.
        let code = vec![
            X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(Gpr::Ecx), src: Operand::Imm(0) },
            X86Instr::Jcc { cc: Cc::Ne, target: 2 },
            X86Instr::mov_imm(Gpr::Eax, 0x10),
            X86Instr::Ret,
            X86Instr::mov_imm(Gpr::Eax, 0x20),
            X86Instr::Ret,
        ];
        assert!(eax_redefined_first(&code, 0, 16));
        // But a bare chain-jump path (no def) must refuse.
        let leak = vec![X86Instr::ChainJmp { block: 5 }];
        assert!(!eax_redefined_first(&leak, 0, 16));
    }

    /// Regression (caught on gobmk): a part ending in a *conditional*
    /// ChainJmp seam (`fallthrough_seam == false`) still continues into
    /// the next part with registers intact, and that next part may have
    /// been specialized to read them. The optimizer must thread the
    /// successor's entry liveness through the ChainJmp-to-next-part
    /// edge, not treat it as a register-killing region escape — here,
    /// stripping `%ecx = %ebx` from part 0 would leave part 1 comparing
    /// a stale `%ecx`.
    #[test]
    fn chainjmp_seam_threads_successor_entry_liveness() {
        let part0 = vec![
            load(Gpr::Ebx, ArmReg::R0),
            X86Instr::mov_rr(Gpr::Ecx, Gpr::Ebx), // dead, unless part 1 needs %ecx
            store(ArmReg::R1, Gpr::Ebx),
            X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(Gpr::Ebx), src: Operand::Imm(9) },
            X86Instr::Jcc { cc: Cc::L, target: 2 },
            X86Instr::mov_imm(Gpr::Eax, 0x100),
            X86Instr::ChainJmp { block: 7 }, // in-region seam: next part's block
            X86Instr::mov_imm(Gpr::Eax, 0x200),
            X86Instr::ChainJmp { block: 3 }, // side exit
        ];
        // Part 1 was specialized against the seam state: no home load of
        // r0, it reads %ecx straight away.
        let part1 = vec![
            X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(Gpr::Ecx), src: Operand::Imm(4) },
            X86Instr::Jcc { cc: Cc::L, target: 2 },
            X86Instr::mov_imm(Gpr::Eax, 0x300),
            X86Instr::Ret,
            X86Instr::mov_imm(Gpr::Eax, 0x400),
            X86Instr::Ret,
        ];
        let mut parts = vec![
            SbPart { id: 5, code: Rc::new(part0), fallthrough_seam: false },
            SbPart { id: 7, code: Rc::new(part1), fallthrough_seam: false },
        ];
        optimize_region(&mut parts);
        assert!(
            parts[0].code.iter().any(|i| matches!(
                i,
                X86Instr::Mov { dst: Operand::Reg(Gpr::Ecx), src: Operand::Reg(Gpr::Ebx) }
            )),
            "%ecx def feeding the specialized successor must survive: {:?}",
            parts[0].code
        );
        // Sanity: with no successor depending on it, the same copy IS
        // removed (it is genuinely dead at a real region escape).
        let solo = vec![
            load(Gpr::Ebx, ArmReg::R0),
            X86Instr::mov_rr(Gpr::Ecx, Gpr::Ebx),
            store(ArmReg::R1, Gpr::Ebx),
            X86Instr::mov_imm(Gpr::Eax, 0x100),
            X86Instr::Ret,
        ];
        let mut alone = vec![SbPart { id: 5, code: Rc::new(solo), fallthrough_seam: false }];
        optimize_region(&mut alone);
        assert!(
            !alone[0].code.iter().any(|i| matches!(
                i,
                X86Instr::Mov { dst: Operand::Reg(Gpr::Ecx), src: Operand::Reg(Gpr::Ebx) }
            )),
            "dead copy at a real escape is removed: {:?}",
            alone[0].code
        );
    }

    // ---- guest memory access fusion ----

    fn part(id: u32, code: Vec<X86Instr>) -> SbPart {
        SbPart { id, code: Rc::new(code), fallthrough_seam: false }
    }

    #[test]
    fn fusion_forwards_store_to_load() {
        let mut parts = vec![part(
            1,
            vec![
                store(ArmReg::R4, Gpr::Esi),
                load(Gpr::Edi, ArmReg::R4),
                X86Instr::alu_ri(AluOp::Add, Gpr::Edi, 1),
                X86Instr::Ret,
            ],
        )];
        let n = fuse_region(&mut parts);
        assert_eq!(n, 1);
        assert!(
            parts[0].code.iter().any(|i| matches!(
                i,
                X86Instr::Mov { dst: Operand::Reg(Gpr::Edi), src: Operand::Reg(Gpr::Esi) }
            )),
            "load forwarded from the store: {:?}",
            parts[0].code
        );
    }

    #[test]
    fn fusion_eliminates_redundant_load() {
        // Two loads of the same slot: the second reuses the first's value.
        let mut parts = vec![part(
            1,
            vec![load(Gpr::Esi, ArmReg::R4), load(Gpr::Edi, ArmReg::R4), X86Instr::Ret],
        )];
        assert_eq!(fuse_region(&mut parts), 1);
        assert!(parts[0].code.iter().any(|i| matches!(
            i,
            X86Instr::Mov { dst: Operand::Reg(Gpr::Edi), src: Operand::Reg(Gpr::Esi) }
        )));
    }

    #[test]
    fn fusion_sinks_dead_store() {
        // The first store is fully shadowed before any read.
        let mut parts = vec![part(
            1,
            vec![store(ArmReg::R4, Gpr::Esi), store(ArmReg::R4, Gpr::Edi), X86Instr::Ret],
        )];
        assert_eq!(fuse_region(&mut parts), 1);
        let stores = parts[0]
            .code
            .iter()
            .filter(|i| matches!(i, X86Instr::Mov { dst: Operand::Mem(_), .. }))
            .count();
        assert_eq!(stores, 1, "shadowed store sunk: {:?}", parts[0].code);
    }

    #[test]
    fn fusion_dead_store_blocked_by_read_and_branch() {
        // An intervening load of the same bytes keeps the store.
        let read = vec![
            store(ArmReg::R4, Gpr::Esi),
            load(Gpr::Ebx, ArmReg::R4),
            store(ArmReg::R4, Gpr::Edi),
            X86Instr::Ret,
        ];
        let (sunk, n) = eliminate_dead_stores(&read);
        assert!(sunk.is_none() && n == 0, "aliasing read is a barrier");
        // A conditional branch escapes to code that may read memory.
        let branch = vec![
            store(ArmReg::R4, Gpr::Esi),
            X86Instr::Jcc { cc: Cc::E, target: 0 },
            store(ArmReg::R4, Gpr::Edi),
            X86Instr::Ret,
        ];
        let (sunk, n) = eliminate_dead_stores(&branch);
        assert!(sunk.is_none() && n == 0, "Jcc is a barrier");
    }

    #[test]
    fn fusion_pairs_adjacent_narrow_stores() {
        let base = 0x0050_0000i32; // word-aligned guest address
        let mut parts = vec![part(
            1,
            vec![
                X86Instr::mov_imm(Gpr::Esi, 0x1111),
                X86Instr::mov_imm(Gpr::Edi, 0x2222),
                X86Instr::MovStore {
                    width: Width::W16,
                    src: Gpr::Esi,
                    dst: X86Mem::absolute(base),
                },
                X86Instr::MovStore {
                    width: Width::W16,
                    src: Gpr::Edi,
                    dst: X86Mem::absolute(base + 2),
                },
                X86Instr::Ret,
            ],
        )];
        assert!(fuse_region(&mut parts) >= 1);
        assert!(
            parts[0].code.iter().any(|i| matches!(
                i,
                X86Instr::Mov { dst: Operand::Mem(_), src: Operand::Imm(0x2222_1111) }
            )),
            "paired into one word store: {:?}",
            parts[0].code
        );
    }

    #[test]
    fn fusion_refuses_misaligned_pair() {
        // lo % 4 == 2: the fused word store would be misaligned and could
        // cross a page boundary, changing fault behavior.
        let base = 0x0050_0002i32;
        let code = vec![
            X86Instr::mov_imm(Gpr::Esi, 0x1111),
            X86Instr::mov_imm(Gpr::Edi, 0x2222),
            X86Instr::MovStore { width: Width::W16, src: Gpr::Esi, dst: X86Mem::absolute(base) },
            X86Instr::MovStore {
                width: Width::W16,
                src: Gpr::Edi,
                dst: X86Mem::absolute(base + 2),
            },
            X86Instr::Ret,
        ];
        let (out, n, _) = fuse_forward(&code, Vec::new(), None, false);
        assert_eq!(n, 0, "misaligned pair refused");
        assert_eq!(out, code);
    }

    #[test]
    fn fusion_carries_facts_across_seams() {
        // Part 0 stores r4 and falls through the stripped seam; part 1's
        // reload forwards from the carried fact.
        let mut parts = vec![
            SbPart {
                id: 1,
                code: Rc::new(vec![store(ArmReg::R4, Gpr::Esi)]),
                fallthrough_seam: true,
            },
            part(2, vec![load(Gpr::Edi, ArmReg::R4), X86Instr::Ret]),
        ];
        assert_eq!(fuse_region(&mut parts), 1);
        assert!(parts[1].code.iter().any(|i| matches!(
            i,
            X86Instr::Mov { dst: Operand::Reg(Gpr::Edi), src: Operand::Reg(Gpr::Esi) }
        )));
    }

    #[test]
    fn fusion_meets_facts_at_every_seam_entry() {
        // The seam is reachable both by the branch over the escape and by
        // the fallthrough, with *different* facts: only the intersection
        // may carry, which here is empty — the next part's load survives.
        let mut parts = vec![
            SbPart {
                id: 1,
                code: Rc::new(vec![
                    store(ArmReg::R4, Gpr::Esi),
                    X86Instr::Jcc { cc: Cc::E, target: 1 },
                    store(ArmReg::R4, Gpr::Edi),
                ]),
                fallthrough_seam: true,
            },
            part(2, vec![load(Gpr::Ebx, ArmReg::R4), X86Instr::Ret]),
        ];
        fuse_region(&mut parts);
        assert!(
            parts[1].code.iter().any(|i| matches!(
                i,
                X86Instr::Mov { dst: Operand::Reg(Gpr::Ebx), src: Operand::Mem(_) }
            )),
            "conflicting seam facts must not forward: {:?}",
            parts[1].code
        );
    }

    #[test]
    fn fusion_trailing_escape_does_not_leak_facts() {
        // Part 0's seam is reached only through the branch at index 1;
        // the store after it belongs to the escape path and its fact must
        // not reach part 1.
        let mut parts = vec![
            SbPart {
                id: 1,
                code: Rc::new(vec![
                    X86Instr::Alu {
                        op: AluOp::Cmp,
                        dst: Operand::Reg(Gpr::Ecx),
                        src: Operand::Imm(0),
                    },
                    X86Instr::Jcc { cc: Cc::E, target: 3 },
                    store(ArmReg::R4, Gpr::Esi),
                    X86Instr::mov_imm(Gpr::Eax, 0x100),
                    X86Instr::Ret,
                ]),
                fallthrough_seam: true,
            },
            part(2, vec![load(Gpr::Edi, ArmReg::R4), X86Instr::Ret]),
        ];
        fuse_region(&mut parts);
        assert!(
            parts[1].code.iter().any(|i| matches!(
                i,
                X86Instr::Mov { dst: Operand::Reg(Gpr::Edi), src: Operand::Mem(_) }
            )),
            "escape-path fact leaked across the seam: {:?}",
            parts[1].code
        );
    }

    #[test]
    fn may_overlap_disjoint_and_esp_cases() {
        let a = X86Mem::absolute(0x1000);
        let b = X86Mem::absolute(0x1004);
        assert!(!may_overlap(&a, 4, &b, 4), "disjoint absolute intervals");
        assert!(may_overlap(&a, 4, &X86Mem::absolute(0x1002), 4), "overlapping intervals");
        let stack = X86Mem { base: Some(Gpr::Esp), index: None, disp: 0 };
        let env = X86Mem::absolute(ENV_BASE as i32);
        assert!(!may_overlap(&stack, 4, &env, 4), "host stack and env are disjoint");
        let unknown = X86Mem { base: Some(Gpr::Edx), index: None, disp: 0 };
        assert!(may_overlap(&unknown, 4, &env, 4), "unknown base must be conservative");
    }

    // ---- region register allocation ----

    /// Two-part loop region: head increments r4 and seams; the tail
    /// accesses r4 twice more and ends with `tail_exit` (plus preceding
    /// `mov %eax, pc` as the exit pair).
    fn ra_region(tail_exit: X86Instr) -> Vec<SbPart> {
        vec![
            SbPart {
                id: 5,
                code: Rc::new(vec![
                    X86Instr::Mov { dst: Operand::Reg(Gpr::Edx), src: Operand::Mem(slot_mem(4)) },
                    X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 1),
                    X86Instr::Mov { dst: Operand::Mem(slot_mem(4)), src: Operand::Reg(Gpr::Edx) },
                ]),
                fallthrough_seam: true,
            },
            part(
                7,
                vec![
                    X86Instr::Mov { dst: Operand::Reg(Gpr::Edx), src: Operand::Mem(slot_mem(4)) },
                    X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 2),
                    X86Instr::Mov { dst: Operand::Mem(slot_mem(4)), src: Operand::Reg(Gpr::Edx) },
                    X86Instr::mov_imm(Gpr::Eax, 0x100),
                    tail_exit,
                ],
            ),
        ]
    }

    #[test]
    fn allocate_region_pins_and_writes_back_at_escape() {
        let mut parts = ra_region(X86Instr::ChainJmp { block: 9 });
        let ra = allocate_region(&mut parts, &[Gpr::Ecx, Gpr::Ebx]);
        assert_eq!(ra, vec![(4, Gpr::Ecx)]);
        // Interior accesses rewritten: the only remaining slot-4 memory
        // reference is the writeback immediately before the escape.
        let slot4 = slot_mem(4);
        for (k, p) in parts.iter().enumerate() {
            for (i, ins) in p.code.iter().enumerate() {
                let touches = static_accesses(ins).iter().any(|(m, _, _)| *m == slot4);
                if touches {
                    assert_eq!(k, 1);
                    assert!(
                        matches!(
                            ins,
                            X86Instr::Mov { dst: Operand::Mem(_), src: Operand::Reg(Gpr::Ecx) }
                        ) && matches!(p.code[i + 1], X86Instr::ChainJmp { block: 9 }),
                        "only a writeback right before the escape may touch the home: {ins:?}"
                    );
                }
            }
        }
        assert!(region_contract(&parts, &ra));
    }

    #[test]
    fn allocate_region_backedge_is_not_an_escape() {
        // The tail chains back to the head: a resident backedge. No
        // writeback may be inserted before it — the pins stay live and
        // the engine re-enters part 0 without re-running the preamble.
        let mut parts = ra_region(X86Instr::ChainJmp { block: 5 });
        let ra = allocate_region(&mut parts, &[Gpr::Ecx, Gpr::Ebx]);
        assert_eq!(ra, vec![(4, Gpr::Ecx)]);
        let slot4 = slot_mem(4);
        let any_home_access = parts
            .iter()
            .flat_map(|p| p.code.iter())
            .any(|ins| static_accesses(ins).iter().any(|(m, _, _)| *m == slot4));
        assert!(!any_home_access, "no writeback on the backedge: {:?}", parts[1].code);
        assert!(region_contract(&parts, &ra));
    }

    #[test]
    fn allocate_region_refusals() {
        // A Call may clobber any register.
        let mut with_call = ra_region(X86Instr::ChainJmp { block: 9 });
        Rc::make_mut(&mut with_call[0].code).insert(0, X86Instr::Call { target: 0 });
        assert!(allocate_region(&mut with_call, &[Gpr::Ecx]).is_empty());
        // An %esp definition breaks stack/env disjointness reasoning.
        let mut with_esp = ra_region(X86Instr::ChainJmp { block: 9 });
        Rc::make_mut(&mut with_esp[0].code).insert(0, X86Instr::alu_ri(AluOp::Add, Gpr::Esp, 4));
        assert!(allocate_region(&mut with_esp, &[Gpr::Ecx]).is_empty());
        // A backward jump could land after an inserted writeback block.
        let mut with_back = ra_region(X86Instr::ChainJmp { block: 9 });
        Rc::make_mut(&mut with_back[1].code).insert(3, X86Instr::Jcc { cc: Cc::E, target: -2 });
        assert!(allocate_region(&mut with_back, &[Gpr::Ecx]).is_empty());
        // No free pool register: the region keeps its env-home behavior.
        let mut no_free = ra_region(X86Instr::ChainJmp { block: 9 });
        assert!(allocate_region(&mut no_free, &[Gpr::Edx]).is_empty());
    }

    #[test]
    fn allocate_region_subword_access_poisons_slot() {
        let mut parts = ra_region(X86Instr::ChainJmp { block: 9 });
        Rc::make_mut(&mut parts[0].code)
            .insert(0, X86Instr::MovStore { width: Width::W8, src: Gpr::Edx, dst: slot_mem(4) });
        assert!(
            allocate_region(&mut parts, &[Gpr::Ecx]).is_empty(),
            "sub-word home access cannot be rewritten to a register"
        );
    }

    #[test]
    fn ra_preamble_loads_each_pin() {
        let pre = ra_preamble(&[(4, Gpr::Ecx), (6, Gpr::Esi)]);
        assert_eq!(
            pre,
            vec![
                X86Instr::Mov { dst: Operand::Reg(Gpr::Ecx), src: Operand::Mem(slot_mem(4)) },
                X86Instr::Mov { dst: Operand::Reg(Gpr::Esi), src: Operand::Mem(slot_mem(6)) },
            ]
        );
    }

    #[test]
    fn region_contract_detects_missing_writeback() {
        let mut parts = ra_region(X86Instr::ChainJmp { block: 9 });
        let ra = allocate_region(&mut parts, &[Gpr::Ecx, Gpr::Ebx]);
        assert!(region_contract(&parts, &ra));
        // Drop the writeback: the contract must notice.
        let code = Rc::make_mut(&mut parts[1].code);
        let wb = code
            .iter()
            .position(|i| matches!(i, X86Instr::Mov { dst: Operand::Mem(_), src: Operand::Reg(_) }))
            .unwrap();
        code.remove(wb);
        assert!(!region_contract(&parts, &ra));
    }

    #[test]
    fn insert_before_stretches_spanning_jumps() {
        // jcc at 0 over index 1 to index 2; insertion at 1 stretches it.
        let mut code = vec![
            X86Instr::Jcc { cc: Cc::E, target: 1 },
            X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1),
            X86Instr::Ret,
        ];
        insert_before(&mut code, 1, &[X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 7)]);
        assert_eq!(code.len(), 4);
        assert!(matches!(code[0], X86Instr::Jcc { target: 2, .. }), "stretched: {code:?}");
        // A jump landing exactly at the insertion point keeps its target:
        // it must run the inserted block (writebacks before an escape).
        let mut code = vec![
            X86Instr::Jcc { cc: Cc::E, target: 1 },
            X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1),
            X86Instr::Ret,
        ];
        insert_before(&mut code, 2, &[X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 7)]);
        assert!(matches!(code[0], X86Instr::Jcc { target: 1, .. }), "kept: {code:?}");
    }
}
