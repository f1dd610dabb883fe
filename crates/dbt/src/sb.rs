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
//! Every pass after specialization walks one private representation
//! ([`Region`]: the parts' code concatenated), with each instruction's
//! control flow classified in one place ([`Flow`]).
//!
//! The engine (see `engine.rs`) owns formation triggers and region
//! dispatch, the code cache (`cache.rs`) the two-way link bookkeeping and
//! invalidation; this module is the pure code-transformation layer.

use crate::env::{ENV_BASE, FLAGMODE_OFFSET};
use ldbt_isa::{CostModel, Width};
use ldbt_x86::semantics::{eval_alu, eval_shift, eval_un};
use ldbt_x86::{AluOp, Cc, EFlags, Gpr, Operand, X86Instr, X86Mem};
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
    /// watchdog snapshot (see [`allocate_region`]). Shared, so a region
    /// entry takes a reference instead of a copy.
    pub ra: Rc<[(u8, Gpr)]>,
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

// ---------------------------------------------------------------------
// Control flow and per-instruction facts: classified once, here.
// ---------------------------------------------------------------------

/// Where control goes after one instruction of a region part, and — the
/// liveness contract of the whole optimizer, stated once — what is live
/// on that edge (`exit` is `{%eax, %esp}` plus a region allocation's
/// pinned registers: after `ret` the dispatcher reads the next guest pc
/// from `%eax`, `%esp` is the host stack, and every other register and
/// all EFLAGS are scratch, because translated blocks start from the env,
/// see [`entry_reads`]):
///
/// | kind       | instruction                          | live-out                          |
/// |------------|--------------------------------------|-----------------------------------|
/// | `Next`     | anything that is not a transfer      | live-in of `i + 1`                |
/// | `Jump`     | `jmp` (intra-part, relative)         | live-in of the target             |
/// | `Branch`   | `jcc` (intra-part, relative)         | target ∪ `i + 1`                  |
/// | `Seam`     | `chain` to the next part's block     | live-in of the next part ∪ pins   |
/// | `Backedge` | `chain` to the region head           | `exit`                            |
/// | `Escape`   | `ret`, `jmp *`, `chain` elsewhere    | `exit`                            |
/// | `Trap`     | guest trap sentinel                  | `exit`                            |
/// | `Halt`     | `hlt`                                | `exit` without `%eax`             |
/// | `Call`     | `call`                               | everything                        |
///
/// Running off the end of part `k` *is* arriving at part `k + 1` (the
/// stripped seam), so `Next`, `Jump` and `Branch` need no seam case.
/// `Engine::run_region` follows a `Seam` straight into the next part with
/// host registers intact — and that part may have been specialized to
/// read them — so it is no escape; it wins over `Backedge` because in an
/// unrolled self-loop every part *is* the head. A `Backedge` re-enters
/// part 0, which reads nothing but the pins. `Trap` keeps `%eax` live
/// (`Engine::trap_outcome` reads the trapping pc from it), `Halt` does
/// not (nothing consults it once the guest has exited), and a `Call`
/// hands control to code this analysis cannot see and expects it to
/// return: keep everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Next,
    Jump(i32),
    Branch(i32),
    Seam,
    Backedge,
    Escape,
    Trap,
    Halt,
    Call,
}

impl Flow {
    /// Control leaves the region for good (not a seam, not the resident
    /// backedge): a region allocation must have written every pinned
    /// register back to its env home by here.
    fn leaves(self) -> bool {
        matches!(self, Flow::Escape | Flow::Trap | Flow::Halt)
    }
}

/// Classify `ins` inside a part whose successor on the path is block
/// `seam` in a region headed by block `head` (both `None` outside a
/// region). With [`Region::retarget`] the only place that matches
/// control-transfer instruction kinds.
fn flow(ins: &X86Instr, seam: Option<u32>, head: Option<u32>) -> Flow {
    match *ins {
        X86Instr::Jmp { target } => Flow::Jump(target),
        X86Instr::Jcc { target, .. } => Flow::Branch(target),
        X86Instr::ChainJmp { block } if Some(block) == seam => Flow::Seam,
        X86Instr::ChainJmp { block } if Some(block) == head => Flow::Backedge,
        X86Instr::Ret | X86Instr::JmpInd { .. } | X86Instr::ChainJmp { .. } => Flow::Escape,
        X86Instr::Trap => Flow::Trap,
        X86Instr::Halt => Flow::Halt,
        X86Instr::Call { .. } => Flow::Call,
        _ => Flow::Next,
    }
}

/// Whether `ins` moves `%esp` without reporting it as a `def`: every
/// `%esp`-relative address names other bytes afterwards.
fn moves_esp(ins: &X86Instr) -> bool {
    matches!(
        ins,
        X86Instr::Push { .. }
            | X86Instr::Pop { .. }
            | X86Instr::Pushfd
            | X86Instr::Popfd
            | X86Instr::Call { .. }
            | X86Instr::Ret
    )
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
    // Dynamic: handled by the caller as "may alias anything".
    let Some(a) = abs_addr(m) else { return EnvSlot::NotEnv };
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

/// The absolute address of a register-free address expression. `None`:
/// a dynamic address, which could alias a guest-register env slot at
/// runtime (any base/index addressing must be assumed to).
fn abs_addr(m: &X86Mem) -> Option<u32> {
    (m.base.is_none() && m.index.is_none()).then_some(m.disp as u32)
}

/// Whether the address expression `m` reads register `r`.
fn addr_uses(m: &X86Mem, r: Gpr) -> bool {
    m.base == Some(r) || m.index.is_some_and(|(x, _)| x == r)
}

/// The memory `ins` writes and its byte width, if any (stack pushes
/// report an `%esp`-based store; a memory-destination `cmp`/`test` is
/// reported as a store too, which over-kills but never under-kills).
fn store_mem(ins: &X86Instr) -> Option<(X86Mem, u32)> {
    match *ins {
        X86Instr::Mov { dst: Operand::Mem(m), .. }
        | X86Instr::Alu { dst: Operand::Mem(m), .. }
        | X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. }
        | X86Instr::Pop { dst: Operand::Mem(m) } => Some((m, 4)),
        X86Instr::MovStore { width, dst, .. } => Some((dst, width.bits() / 8)),
        X86Instr::Push { .. } | X86Instr::Pushfd | X86Instr::Call { .. } => {
            // Stack pushes: dynamic addresses (through %esp).
            Some((X86Mem::base(Gpr::Esp), 4))
        }
        _ => None,
    }
}

/// The memory `ins` *reads* and its byte width, if any (an instruction
/// has one memory operand at most). Complements [`store_mem`]:
/// read-modify-write ALU destinations (and `cmp` with a memory
/// destination) read their bytes, and stack pops read through `%esp`.
fn load_mem(ins: &X86Instr) -> Option<(X86Mem, u32)> {
    match *ins {
        X86Instr::Mov { src: Operand::Mem(m), .. }
        | X86Instr::Alu { src: Operand::Mem(m), .. }
        | X86Instr::Imul { src: Operand::Mem(m), .. }
        | X86Instr::Push { src: Operand::Mem(m) }
        | X86Instr::JmpInd { src: Operand::Mem(m) }
        | X86Instr::Alu { dst: Operand::Mem(m), .. }
        | X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. } => Some((m, 4)),
        X86Instr::Movx { src: Operand::Mem(m), width, .. } => Some((m, width.bits() / 8)),
        X86Instr::Pop { .. } | X86Instr::Popfd | X86Instr::Ret => Some((X86Mem::base(Gpr::Esp), 4)),
        _ => None,
    }
}

/// What the walks need to know about one instruction, computed once when
/// it enters the region and again only when a pass rewrites it.
#[derive(Debug, Clone, Copy)]
struct Info {
    /// Index of the part the instruction belongs to.
    part: u8,
    flow: Flow,
    /// Register written / registers read (bit per [`Gpr::index`]).
    def: u8,
    uses: u8,
    /// EFLAGS read / written ([`X86Instr::flags_written`] mask layout).
    flags_read: u8,
    flags_written: u8,
    store: Option<(X86Mem, u32)>,
    load: Option<(X86Mem, u32)>,
}

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
}

fn bit(r: Gpr) -> u8 {
    1u8 << r.index()
}

/// The registers a region allocation pins, as a mask.
fn pin_mask(ra: &[(u8, Gpr)]) -> u8 {
    ra.iter().fold(0u8, |acc, &(_, p)| acc | bit(p))
}

/// The `exit` of [`Flow`]'s table: what is live when control escapes a
/// region to foreign code, plus the `pinned` registers.
fn exit_live(pinned: u8) -> Live {
    Live { regs: bit(Gpr::Eax) | bit(Gpr::Esp) | pinned, flags: 0 }
}

// ---------------------------------------------------------------------
// The region: every part's code, concatenated.
// ---------------------------------------------------------------------

/// A region's code as the passes see it: the parts concatenated into one
/// instruction vector. Jumps are intra-part and relative, so flattening
/// moves no target, and "one past the end of part `k`" is the first
/// instruction of part `k + 1` — the stripped fallthrough seam is an
/// ordinary edge. Passes mutate the region in place; `code` and `info`
/// stay index-aligned through [`Region::set`], [`Region::compact`] and
/// [`Region::insert_before`].
#[derive(Clone, Default)]
struct Region {
    code: Vec<X86Instr>,
    info: Vec<Info>,
    /// Part `k` is `code[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    /// Arena block id of each part.
    ids: Vec<u32>,
    /// Per part: the trailing seam exit pair was stripped.
    ft_seam: Vec<bool>,
}

impl Region {
    fn of<'a>(pieces: impl IntoIterator<Item = (u32, bool, &'a [X86Instr])>) -> Region {
        let mut r = Region { starts: vec![0], ..Region::default() };
        for (id, ft, code) in pieces {
            r.ids.push(id);
            r.ft_seam.push(ft);
            r.code.extend_from_slice(code);
            r.starts.push(r.code.len());
        }
        for k in 0..r.ids.len() {
            for i in r.starts[k]..r.starts[k + 1] {
                let info = r.info_of(&r.code[i], k);
                r.info.push(info);
            }
        }
        r
    }

    /// Flatten `parts`. `None` when some jump lands outside `[0, len]` of
    /// its own part (`len` itself is the past-the-end fallthrough): such
    /// a jump would fault at runtime, and every pass refuses to touch
    /// such code.
    fn flatten(parts: &[SbPart]) -> Option<Region> {
        let r = Region::of(parts.iter().map(|p| (p.id, p.fallthrough_seam, &p.code[..])));
        let stray = |i: usize| match r.info[i].flow {
            Flow::Jump(t) | Flow::Branch(t) => r.dest(i, t) as i64 != i as i64 + 1 + t as i64,
            _ => false,
        };
        let ok = !(0..r.code.len()).any(stray);
        ok.then_some(r)
    }

    /// Run `pass` over the flattened `parts` and write the result back.
    fn with<T: Default>(parts: &mut [SbPart], pass: impl FnOnce(&mut Region) -> T) -> T {
        let Some(mut r) = Region::flatten(parts) else { return T::default() };
        let out = pass(&mut r);
        for (k, part) in parts.iter_mut().enumerate() {
            part.code = Rc::new(r.code[r.starts[k]..r.starts[k + 1]].to_vec());
            part.fallthrough_seam = r.ft_seam[k];
        }
        out
    }

    fn info_of(&self, ins: &X86Instr, k: usize) -> Info {
        Info {
            part: k as u8,
            flow: flow(ins, self.ids.get(k + 1).copied(), self.ids.first().copied()),
            def: ins.def().map_or(0, bit),
            uses: ins.uses().into_iter().fold(0, |m, r| m | bit(r)),
            flags_read: ins.flags_read(),
            flags_written: ins.flags_written(),
            store: store_mem(ins),
            load: load_mem(ins),
        }
    }

    /// Replace instruction `i`, refreshing its facts.
    fn set(&mut self, i: usize, ins: X86Instr) {
        self.info[i] = self.info_of(&ins, self.info[i].part as usize);
        self.code[i] = ins;
    }

    /// One past the last instruction of the part holding `i`.
    fn end(&self, i: usize) -> usize {
        self.starts[self.info[i].part as usize + 1]
    }

    /// Whether `i` is the first instruction of its part.
    fn is_start(&self, i: usize) -> bool {
        i == self.starts[self.info[i].part as usize]
    }

    /// The instruction a jump at `i` with relative target `t` lands on —
    /// the only place a relative target is resolved. Clamped to the
    /// jump's own part (its end is the seam), which only matters for
    /// the unchecked code [`entry_reads`] sees.
    fn dest(&self, i: usize, t: i32) -> usize {
        let k = self.info[i].part as usize;
        (i as i64 + 1 + t as i64).clamp(self.starts[k] as i64, self.starts[k + 1] as i64) as usize
    }

    /// Where the jump at `i`, if it is one, lands.
    fn jump_dest(&self, i: usize) -> Option<usize> {
        match self.info[i].flow {
            Flow::Jump(t) | Flow::Branch(t) => Some(self.dest(i, t)),
            _ => None,
        }
    }

    /// Point the jump at `i` at relative target `t`.
    fn retarget(&mut self, i: usize, t: i32) {
        if let X86Instr::Jmp { target } | X86Instr::Jcc { target, .. } = &mut self.code[i] {
            *target = t;
        }
        self.set(i, self.code[i]);
    }

    /// Instructions some jump lands on: join points, where every forward
    /// walk drops what it knows (the set is computed before the walk, so
    /// backward edges join correctly). A jump to the end of its own part
    /// is a seam edge, not a join inside the next part.
    fn targets(&self) -> Vec<bool> {
        let mut is_target = vec![false; self.code.len()];
        for i in 0..self.code.len() {
            if let Some(d) = self.jump_dest(i).filter(|&d| d < self.end(i)) {
                is_target[d] = true;
            }
        }
        is_target
    }

    /// Keep only instructions with `keep[i]`, re-encoding the relative
    /// jump targets around the holes and moving the part boundaries. A
    /// target that pointed at a removed instruction lands on the next
    /// kept one.
    fn compact(&mut self, keep: &[bool]) {
        // pos[i]: where instruction `i` (or the next kept one) ends up.
        let mut pos = vec![0usize; keep.len() + 1];
        for (i, &k) in keep.iter().enumerate() {
            pos[i + 1] = pos[i] + k as usize;
        }
        for i in 0..keep.len() {
            if let Flow::Jump(t) | Flow::Branch(t) = self.info[i].flow {
                let new = pos[self.dest(i, t)] as i32 - pos[i] as i32 - 1;
                if keep[i] && new != t {
                    self.retarget(i, new);
                }
            }
        }
        let mut kept = keep.iter();
        self.code.retain(|_| *kept.next().expect("one flag per instruction"));
        let mut kept = keep.iter();
        self.info.retain(|_| *kept.next().expect("one flag per instruction"));
        for s in &mut self.starts {
            *s = pos[*s];
        }
    }

    /// Insert `block` before position `p` (into `p`'s part), stretching
    /// relative jump targets that cross the insertion point. A jump
    /// landing exactly *at* `p` keeps its target: after insertion it
    /// lands on the first inserted instruction, so an escape reached by
    /// jump still runs the writebacks inserted before it. Backward jumps
    /// are refused region-wide before this is ever called.
    fn insert_before(&mut self, p: usize, block: &[X86Instr]) {
        let k = self.info[p].part as usize;
        for a in self.starts[k]..p {
            if let Flow::Jump(t) | Flow::Branch(t) = self.info[a].flow {
                if self.dest(a, t) > p {
                    self.retarget(a, t + block.len() as i32);
                }
            }
        }
        let facts: Vec<Info> = block.iter().map(|ins| self.info_of(ins, k)).collect();
        self.code.splice(p..p, block.iter().copied());
        self.info.splice(p..p, facts);
        for s in &mut self.starts[k + 1..] {
            *s += block.len();
        }
    }

    /// What is live after instruction `i`, given the live-in sets `lin`:
    /// [`Flow`]'s table.
    fn live_out(&self, i: usize, lin: &[Live], exit: Live) -> Live {
        match self.info[i].flow {
            Flow::Next => lin[i + 1],
            Flow::Jump(t) => lin[self.dest(i, t)],
            Flow::Branch(t) => {
                let (a, b) = (lin[self.dest(i, t)], lin[i + 1]);
                Live { regs: a.regs | b.regs, flags: a.flags | b.flags }
            }
            Flow::Seam => lin[self.end(i)],
            Flow::Backedge | Flow::Escape | Flow::Trap => exit,
            Flow::Halt => Live { regs: exit.regs & !bit(Gpr::Eax), flags: exit.flags },
            Flow::Call => Live::ALL,
        }
    }

    /// Backward liveness over the whole region, seams as ordinary edges:
    /// the live-*in* set of every instruction, plus (last) of the point
    /// past the final part, which is `exit`. The pinned registers (what
    /// `exit` holds beyond `%eax` and `%esp`) are live into every part
    /// but the head — a seam carries guest state in them, and
    /// specialized parts legitimately read registers at entry (that is
    /// the seam optimization), so a part's entry liveness is *not*
    /// empty. Iterates to a fixpoint, so backward jumps are handled
    /// exactly.
    fn liveness(&self, exit: Live) -> Vec<Live> {
        let pinned = exit.regs & !exit_live(0).regs;
        let n = self.code.len();
        let mut lin = vec![Live::NONE; n + 1];
        lin[n] = exit;
        loop {
            let mut changed = false;
            for i in (0..n).rev() {
                let (f, out) = (&self.info[i], self.live_out(i, &lin, exit));
                let mut regs = (out.regs & !f.def) | f.uses;
                if f.part > 0 && self.is_start(i) {
                    regs |= pinned;
                }
                let li = Live { regs, flags: f.flags_read | (out.flags & !f.flags_written) };
                if li != lin[i] {
                    lin[i] = li;
                    changed = true;
                }
            }
            if !changed {
                return lin;
            }
        }
    }

    /// Strip each part's trailing seam exit pair (`movl $next_pc, %eax;
    /// chain @next_id`) where `%eax` is dead on entry to the next part:
    /// the pair is what normally freshens `%eax`, and the next part
    /// provably redefines it before any read (and before any exit the
    /// dispatcher reads it after). Decided back to front, liveness
    /// re-solved after each strip, so a stripped part's own past-the-end
    /// fallthrough is covered by its successor's proof.
    fn strip_seam_exits(&mut self, pcs: &[u32]) {
        for k in (0..self.ids.len().saturating_sub(1)).rev() {
            let (start, n) = (self.starts[k], self.starts[k + 1]);
            let pair = [
                X86Instr::mov_imm(Gpr::Eax, pcs[k + 1] as i32),
                X86Instr::ChainJmp { block: self.ids[k + 1] },
            ];
            let pair_ok = self.code[start..n].ends_with(&pair);
            if !pair_ok || self.liveness(exit_live(0))[n].regs & bit(Gpr::Eax) != 0 {
                continue;
            }
            // No jump may land inside the stripped pair or past the
            // code end — either would change meaning once the pair is gone.
            // A jump to exactly n-2 lands on the pair's first instruction,
            // which after stripping is the past-the-end fallthrough: that is
            // precisely the seam semantics, so it stays legal.
            if (start..n).any(|i| self.jump_dest(i).is_some_and(|d| d > n - 2)) {
                continue;
            }
            let keep: Vec<bool> = (0..self.code.len()).map(|i| i != n - 2 && i != n - 1).collect();
            self.compact(&keep);
            self.ft_seam[k] = true;
        }
    }
}

/// The host registers and EFLAGS `code` may read before writing them —
/// its dependence on entry state. Every translated block must depend on
/// nothing but `%esp`: blocks are entered from the dispatcher or an
/// arbitrary chained predecessor and load all guest state from the env.
/// This invariant is what makes the `exit` scratch assumption of
/// [`Flow`]'s table (and with it the whole region optimizer) sound; the
/// engine asserts it for every inserted block in debug builds.
pub fn entry_reads(code: &[X86Instr]) -> (u8, u8) {
    let li = Region::of([(NO_SB, false, code)]).liveness(Live::NONE)[0];
    (li.regs, li.flags)
}

// ---------------------------------------------------------------------
// Seam specialization (a per-part pre-pass: it runs before a region
// exists).
// ---------------------------------------------------------------------

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
    let X86Instr::Jcc { cc: Cc::E, target: t @ 1.. } = *code.get(i + 1)? else { return None };
    let end = i + 2 + t as usize;
    (end <= code.len()).then_some(end)
}

/// Kill every tag naming guest slot `slot`.
fn kill_slot(tags: &mut [Option<u8>; 8], slot: u8) {
    tags.iter_mut().filter(|t| **t == Some(slot)).for_each(|t| *t = None);
}

/// Apply one instruction's *writes* to the seam state, without assuming
/// it is on the guaranteed straight-line path (`merge` mode: stores may
/// or may not execute, so they only ever remove knowledge).
fn apply_kills(st: &mut SeamState, ins: &X86Instr, merge: bool) {
    if let Some(d) = ins.def() {
        st.tags[d.index()] = None;
    }
    let Some((m, _)) = store_mem(ins) else { return };
    match classify(&m) {
        // A dynamic store could alias any env slot: drop all knowledge.
        EnvSlot::NotEnv if abs_addr(&m).is_none() => {
            st.tags = [None; 8];
            st.flagmode = FlagAbs::Unknown;
        }
        EnvSlot::Reg(s) => kill_slot(&mut st.tags, s),
        EnvSlot::FlagMode => {
            let zero = matches!(ins, X86Instr::Mov { dst: Operand::Mem(_), src: Operand::Imm(0) });
            // A conditional (or non-zero) write degrades to Unknown; a
            // zero write on a guaranteed path sets Zero; in merge mode
            // "was Zero and writes zero" stays Zero.
            st.flagmode = if zero && (!merge || st.flagmode == FlagAbs::Zero) {
                FlagAbs::Zero
            } else {
                FlagAbs::Unknown
            };
        }
        EnvSlot::Other | EnvSlot::NotEnv => {}
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
    let allow_elide = !code
        .iter()
        .any(|i| matches!(flow(i, None, None), Flow::Jump(t) | Flow::Branch(t) if t < 0));
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
                // Eliding the stub's `cmpl` must be EFLAGS-safe: nothing after
                // the stub may read host EFLAGS before they are rewritten
                // (a block exit is safe — successors never read live-in
                // EFLAGS; the flag-mode protocol goes through the env).
                let eflags_dead = || entry_reads(&code[end..]).1 == 0;
                if allow_elide && st.flagmode == FlagAbs::Zero && eflags_dead() {
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
            // Home accesses on the straight line: `Some(what to emit)`,
            // nothing when the instruction is elided.
            let slot = match ins {
                X86Instr::Mov { dst: Operand::Mem(m), .. }
                | X86Instr::Mov { src: Operand::Mem(m), .. } => classify(m),
                _ => EnvSlot::NotEnv,
            };
            let emit = match (*ins, slot) {
                // Home load: `movl env(slot), %r`.
                (X86Instr::Mov { dst: Operand::Reg(r), .. }, EnvSlot::Reg(s)) => {
                    let holds = |q: usize| allow_elide && st.tags[q] == Some(s);
                    let held =
                        if holds(r.index()) { Some(r.index()) } else { (0..8).find(|&q| holds(q)) };
                    st.tags[r.index()] = Some(s);
                    Some(match held {
                        // Redundant: the register already holds the slot.
                        Some(q) if q == r.index() => None,
                        // Another host register provably holds the slot: a
                        // register-register copy replaces the memory load
                        // (cheaper to execute, and it feeds the region's
                        // copy propagation).
                        Some(q) => Some(X86Instr::mov_rr(r, Gpr::from_index(q))),
                        None => Some(*ins),
                    })
                }
                // Writeback: `movl %r, env(slot)`.
                (X86Instr::Mov { src: Operand::Reg(r), .. }, EnvSlot::Reg(s)) => {
                    kill_slot(&mut st.tags, s);
                    st.tags[r.index()] = Some(s);
                    Some(Some(*ins))
                }
                // Flag-mode reset: `movl $0, flagmode` (dropped when
                // flag-mode is already zero).
                (X86Instr::Mov { src: Operand::Imm(0), .. }, EnvSlot::FlagMode) => {
                    let known = allow_elide && st.flagmode == FlagAbs::Zero;
                    st.flagmode = FlagAbs::Zero;
                    Some((!known).then_some(*ins))
                }
                // Register copy propagates a tag.
                (X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Reg(q) }, _) => {
                    st.tags[r.index()] = st.tags[q.index()];
                    Some(Some(*ins))
                }
                _ => None,
            };
            if let Some(emit) = emit {
                out.extend(emit);
                i += 1;
                continue;
            }
            straight = flow(ins, None, None) == Flow::Next;
        }
        apply_kills(&mut st, ins, !straight);
        out.push(*ins);
        i += 1;
    }
    (out, st)
}

/// Strip the seam exit pairs of `parts` (whose blocks start at guest
/// `pcs`) that the next part makes redundant.
pub fn strip_seam_exits(parts: &mut [SbPart], pcs: &[u32]) {
    debug_assert_eq!(parts.len(), pcs.len());
    Region::with(parts, |r| r.strip_seam_exits(pcs));
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

/// Constant-fold a pure-register ALU/shift/unary whose inputs are all
/// known (the interpreter's own `semantics`, so a fold cannot disagree
/// with execution). Returns the destination and the folded value; the
/// caller must separately prove the instruction's EFLAGS results dead,
/// because the replacement `mov` writes none.
fn fold(ins: &X86Instr, vals: &[Option<Operand>; 8]) -> Option<(Gpr, i32)> {
    let cv = |mut o: Operand| {
        subst_operand(&mut o, vals, true);
        if let Operand::Imm(v) = o {
            Some(v as u32)
        } else {
            None
        }
    };
    let (r, out) = match *ins {
        X86Instr::Alu { op, dst: dst @ Operand::Reg(r), src }
            if !op.is_compare() && !op.reads_carry() =>
        {
            (r, eval_alu(op, cv(dst)?, cv(src)?, EFlags::new()))
        }
        X86Instr::Shift { op, dst: dst @ Operand::Reg(r), count } => {
            (r, eval_shift(op, cv(dst)?, count, EFlags::new()))
        }
        X86Instr::Un { op, dst: dst @ Operand::Reg(r) } => {
            (r, eval_un(op, cv(dst)?, EFlags::new()))
        }
        _ => return None,
    };
    Some((r, out.value as i32))
}

/// Drop every known register equality invalidated by a write to `d`.
fn invalidate(vals: &mut [Option<Operand>; 8], d: Gpr) {
    vals[d.index()] = None;
    vals.iter_mut().filter(|v| **v == Some(Operand::Reg(d))).for_each(|v| *v = None);
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
    let before = *m;
    match m.base.and_then(|b| vals[b.index()]) {
        Some(Operand::Reg(p)) => m.base = Some(p),
        Some(Operand::Imm(v)) => {
            m.base = None;
            m.disp = m.disp.wrapping_add(v);
        }
        _ => {}
    }
    if let Some((ix, s)) = m.index {
        match vals[ix.index()] {
            Some(Operand::Reg(p)) => m.index = Some((p, s)),
            Some(Operand::Imm(v)) => {
                m.index = None;
                m.disp = m.disp.wrapping_add(v.wrapping_mul(s as i32));
            }
            _ => {}
        }
    }
    *m != before
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
            // cmp/test read their destination without writing it.
            if dst.is_mem() || op.is_compare() {
                ch |= subst_operand(dst, vals, false);
            }
            ch
        }
        X86Instr::Imul { src, .. } | X86Instr::Movx { src, .. } | X86Instr::JmpInd { src } => {
            subst_operand(src, vals, false)
        }
        X86Instr::Push { src } => subst_operand(src, vals, true),
        // (A sub-word store's source low bits are stored: renaming is
        // value-safe, but W8 needs a byte-addressable register — skip
        // the source.)
        X86Instr::Lea { addr: m, .. }
        | X86Instr::MovStore { dst: m, .. }
        | X86Instr::Shift { dst: Operand::Mem(m), .. }
        | X86Instr::Un { dst: Operand::Mem(m), .. }
        | X86Instr::Pop { dst: Operand::Mem(m) } => subst_mem(m, vals),
        _ => false,
    }
}

impl Region {
    /// Forward copy/constant propagation with local constant folding.
    /// Equalities are dropped at every join (jump targets). The region
    /// head starts with none, and so does a part whose
    /// predecessor kept its seam exit pair. A part behind a stripped seam
    /// starts from the meet of the equalities at each seam edge into it,
    /// the same edges [`Region::fuse_forward`] meets its facts over (host
    /// registers are intact across a seam). A fold replaces a
    /// flag-writing instruction with a `mov`, so it requires the
    /// instruction's EFLAGS results dead per `lin`. Folds only ever
    /// *remove* flag writes whose results were already dead, so liveness
    /// computed before the pass stays a sound over-approximation
    /// throughout.
    fn propagate(&mut self, lin: &[Live], exit: Live, is_target: &[bool]) -> bool {
        type Vals = [Option<Operand>; 8];
        let meet = |cur: &Vals, acc: &mut Option<Vals>| match acc {
            None => *acc = Some(*cur),
            Some(a) => a.iter_mut().zip(cur).filter(|(a, c)| a != c).for_each(|(a, _)| *a = None),
        };
        let mut changed = false;
        let mut carry: Option<Vals> = None;
        for k in 0..self.ids.len() {
            let (start, end) = (self.starts[k], self.starts[k + 1]);
            let mut vals: Vals = carry.take().unwrap_or([None; 8]);
            let mut seam: Option<Vals> = None;
            for (i, &join) in is_target.iter().enumerate().take(end).skip(start) {
                if join {
                    vals = [None; 8];
                }
                let mut ins = self.code[i];
                let mut rewritten = rewrite_reads(&mut ins, &vals);
                if let Some((d, v)) = fold(&ins, &vals) {
                    if ins.flags_written() & self.live_out(i, lin, exit).flags == 0 {
                        ins = X86Instr::mov_imm(d, v);
                        rewritten = true;
                    }
                }
                if rewritten {
                    self.set(i, ins);
                    changed = true;
                }
                if let Some(d) = ins.def() {
                    invalidate(&mut vals, d);
                }
                if moves_esp(&ins) {
                    invalidate(&mut vals, Gpr::Esp);
                }
                if let X86Instr::Mov { dst: Operand::Reg(r), src } = ins {
                    if !src.is_mem() && src != Operand::Reg(r) {
                        vals[r.index()] = Some(src);
                    }
                }
                let to_end = self.ft_seam[k] && self.jump_dest(i) == Some(end);
                if self.info[i].flow == Flow::Seam || to_end {
                    meet(&vals, &mut seam);
                }
            }
            let falls =
                start == end || matches!(self.info[end - 1].flow, Flow::Next | Flow::Branch(_));
            if self.ft_seam[k] && falls {
                meet(&vals, &mut seam);
            }
            carry = seam.filter(|_| self.ft_seam[k]);
        }
        changed
    }

    /// Whether instruction `i` can go, `out` being live after it: a no-op
    /// self-move, or an instruction whose register result and flag
    /// effects are both dead and that may be deleted once they are — no
    /// memory write, no stack or control-flow effect, and any memory
    /// *read* must be a static env access (the env is always mapped, so
    /// deletion cannot suppress a fault the original code would raise).
    fn is_dead(&self, i: usize, out: Live) -> bool {
        let (ins, f) = (&self.code[i], &self.info[i]);
        if matches!(ins, X86Instr::Mov { dst: Operand::Reg(a), src: Operand::Reg(b) } if a == b) {
            return true;
        }
        let removable = f.flow == Flow::Next
            && f.store.is_none()
            && !moves_esp(ins)
            && f.load.is_none_or(|(m, _)| !matches!(classify(&m), EnvSlot::NotEnv));
        removable
            && (f.def != 0 || f.flags_written != 0)
            && f.def & out.regs == 0
            && f.flags_written & out.flags == 0
    }

    /// Delete dead instructions, iterating until nothing more falls out.
    fn eliminate_dead(&mut self, exit: Live) -> bool {
        let mut any = false;
        loop {
            let lin = self.liveness(exit);
            let keep: Vec<bool> = (0..self.code.len())
                .map(|i| !self.is_dead(i, self.live_out(i, &lin, exit)))
                .collect();
            if !keep.contains(&false) {
                return any;
            }
            any = true;
            self.compact(&keep);
        }
    }

    /// The cleanup sweep behind [`optimize_region`] and
    /// [`optimize_region_pinned`]: forward copy/constant propagation,
    /// then dead code elimination over region-wide liveness — a value is
    /// dead only when no later part on the straightened path reads it
    /// before control could reach foreign code.
    fn optimize(&mut self, pinned: u8) {
        let exit = exit_live(pinned);
        for _ in 0..4 {
            let is_target = self.targets();
            let mut changed = false;
            for _ in 0..4 {
                let lin = self.liveness(exit);
                if !self.propagate(&lin, exit, &is_target) {
                    break;
                }
                changed = true;
            }
            changed |= self.eliminate_dead(exit);
            if !changed {
                break;
            }
        }
    }
}

/// Liveness-driven cleanup of a whole region, run after specialization
/// and seam stripping. Every env access, memory effect, and exit is
/// preserved, so the watchdog comparison surface and all guest-visible
/// state are untouched; only executed host instructions shrink.
pub fn optimize_region(parts: &mut [SbPart]) {
    Region::with(parts, |r| r.optimize(0));
}

// ---------------------------------------------------------------------------
// Guest memory access fusion
// ---------------------------------------------------------------------------
//
// A region-scope dataflow pass over the straightened body that performs
// store-to-load forwarding, redundant-load elimination, dead-store
// sinking, and pairing of adjacent narrow stores into word stores. All
// reasoning is *segment-local*: facts are discarded at every jump target
// (join points) and at calls, exactly like `propagate`; a part boundary
// is a join whose predecessors are the seam edges. Fusion never
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
    !(esp_vs_env(m1, m2) || esp_vs_env(m2, m1))
}

/// A known equality: reading `width` bytes at `mem` yields `val` (for a
/// sub-word fact with a register value, the register's *low* bits).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemFact {
    mem: X86Mem,
    width: Width,
    val: Operand,
}

/// Update the fact/constant state for one (already rewritten)
/// instruction: kill facts clobbered by its store, its register def, or
/// an `%esp` adjustment, then record any new equality it establishes.
fn apply_effects(
    ins: &X86Instr,
    info: &Info,
    facts: &mut Vec<MemFact>,
    consts: &mut [Option<i32>; 8],
) {
    if let Some((sm, w)) = info.store {
        facts.retain(|f| !may_overlap(&f.mem, f.width.bits() / 8, &sm, w));
    }
    if let Some(d) = ins.def() {
        facts.retain(|f| f.val != Operand::Reg(d) && !addr_uses(&f.mem, d));
        consts[d.index()] = None;
    }
    if moves_esp(ins) {
        // %esp moved: every %esp-relative address now names other bytes.
        facts.retain(|f| !addr_uses(&f.mem, Gpr::Esp));
        consts[Gpr::Esp.index()] = None;
    }
    if info.flow == Flow::Call {
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
        X86Instr::Mov { dst: Operand::Reg(r), src: Operand::Mem(m) } if !addr_uses(&m, r) => {
            facts.push(MemFact { mem: m, width: Width::W32, val: Operand::Reg(r) });
        }
        X86Instr::Movx { width, dst, src: Operand::Mem(m), .. } if !addr_uses(&m, dst) => {
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
fn forward_into(ins: X86Instr, facts: &[MemFact]) -> X86Instr {
    let (m, w) = match ins {
        X86Instr::Mov { dst: Operand::Reg(_), src: Operand::Mem(m) }
        | X86Instr::Alu { src: Operand::Mem(m), .. }
        | X86Instr::Imul { src: Operand::Mem(m), .. } => (m, Width::W32),
        X86Instr::Movx { src: Operand::Mem(m), width, .. } => (m, width),
        _ => return ins,
    };
    let hit = |f: &&MemFact| f.mem == m && (f.width == w || f.width == Width::W32);
    match (ins, facts.iter().find(hit).map(|f| f.val)) {
        (X86Instr::Mov { dst, .. }, Some(src)) => X86Instr::Mov { dst, src },
        (X86Instr::Alu { op, dst, .. }, Some(src)) => X86Instr::Alu { op, dst, src },
        (X86Instr::Imul { dst, .. }, Some(src @ Operand::Reg(_))) => X86Instr::Imul { dst, src },
        (X86Instr::Movx { sign, width, dst, .. }, Some(src @ Operand::Reg(q)))
            if width != Width::W8 || q.index() < 4 =>
        {
            X86Instr::Movx { sign, width, dst, src }
        }
        _ => ins,
    }
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

impl Region {
    /// Pass 1: one forward sweep doing store-to-load forwarding,
    /// redundant load elimination, and narrow-store pairing (the second
    /// store of a pair is cleared in `keep`). Returns the number of
    /// accesses eliminated or replaced by a cheaper form.
    ///
    /// The region head starts with no facts — it is a dispatch target
    /// and the resident backedge re-enters there. Every later part
    /// starts from the meet (intersection) of the facts at each seam
    /// edge into it — `Seam` chains, plus, behind a stripped pair, jumps
    /// landing exactly on the end of the part (e.g. a branch over the
    /// part's escape) and the linear fallthrough: a seam executes
    /// nothing, so an equality proven at every transition still holds.
    /// The seed is only sound because such a part's entry is reachable
    /// *solely* through that seam: mid-region parts are never dispatch
    /// targets.
    fn fuse_forward(&mut self, is_target: &[bool], keep: &mut [bool]) -> u64 {
        let model = CostModel::default();
        let mut elim = 0u64;
        let mut carry: Vec<MemFact> = Vec::new();
        for k in 0..self.ids.len() {
            let (start, end) = (self.starts[k], self.starts[k + 1]);
            let mut facts = std::mem::take(&mut carry);
            let mut consts: [Option<i32>; 8] = [None; 8];
            // Intersection of the fact sets at each seam edge.
            let mut seam_facts: Option<Vec<MemFact>> = None;
            let meet = |cur: &[MemFact], acc: &mut Option<Vec<MemFact>>| match acc {
                None => *acc = Some(cur.to_vec()),
                Some(a) => a.retain(|f| cur.contains(f)),
            };
            let mut i = start;
            while i < end {
                if is_target[i] {
                    facts.clear();
                    consts = [None; 8];
                }
                // Pairing consumes two instructions; a jump landing between
                // them must see both stores, so the pair is refused across
                // a target.
                let pair = (i + 1 < end && !is_target[i + 1])
                    .then(|| pair_stores(&self.code[i..end], &consts, &model))
                    .flatten();
                let ins = pair.unwrap_or_else(|| forward_into(self.code[i], &facts));
                if ins != self.code[i] {
                    self.set(i, ins);
                    elim += 1;
                }
                apply_effects(&ins, &self.info[i], &mut facts, &mut consts);
                let to_end = self.ft_seam[k] && self.jump_dest(i) == Some(end);
                if self.info[i].flow == Flow::Seam || to_end {
                    meet(&facts, &mut seam_facts);
                }
                if pair.is_some() {
                    keep[i + 1] = false;
                    i += 1;
                }
                i += 1;
            }
            // The linear fallthrough reaches a stripped seam only when the
            // last instruction does not end the straight line (a trailing
            // escape means the seam is entered solely through the sites
            // above).
            let falls =
                start == end || matches!(self.info[end - 1].flow, Flow::Next | Flow::Branch(_));
            if self.ft_seam[k] && falls {
                meet(&facts, &mut seam_facts);
            }
            carry = seam_facts.unwrap_or_default();
        }
        elim
    }

    /// Pass 2: dead-store sinking. A plain store (`mov` to memory or a
    /// narrow `MovStore` — never a read-modify-write, which also produces
    /// flags) is removed when a later store in the same straight-line
    /// segment fully overwrites its bytes through the *same* address
    /// expression before any possibly-aliasing read, any control transfer
    /// (`Jcc` side exits escape to foreign code that may read memory), any
    /// jump target or part end, or any redefinition of the address
    /// registers.
    fn eliminate_dead_stores(&self, is_target: &[bool], keep: &mut [bool]) -> u64 {
        let mut elim = 0u64;
        for i in 0..self.code.len() {
            let (X86Instr::Mov { .. } | X86Instr::MovStore { .. }, Some((m, w)), true) =
                (self.code[i], self.info[i].store, keep[i])
            else {
                continue;
            };
            let dead = (i + 1..self.end(i)).find_map(|j| {
                let (nxt, f) = (&self.code[j], &self.info[j]);
                if is_target[j] {
                    return Some(false);
                }
                if !keep[j] {
                    return None; // the paired-away half of a fused word store
                }
                let covers = matches!(nxt, X86Instr::Mov { .. } | X86Instr::MovStore { .. })
                    && f.store.is_some_and(|(m2, w2)| m2 == m && w2 >= w);
                if covers {
                    return Some(true);
                }
                let barrier = f.flow != Flow::Next
                    || f.load.is_some_and(|(lm, lw)| may_overlap(&lm, lw, &m, w))
                    || nxt.def().is_some_and(|d| addr_uses(&m, d))
                    || addr_uses(&m, Gpr::Esp) && moves_esp(nxt);
                barrier.then_some(false)
            });
            if dead == Some(true) {
                keep[i] = false;
                elim += 1;
            }
        }
        elim
    }

    /// Both fusion passes, then one `compact`.
    fn fuse(&mut self) -> u64 {
        let is_target = self.targets();
        let mut keep = vec![true; self.code.len()];
        let elim = self.fuse_forward(&is_target, &mut keep)
            + self.eliminate_dead_stores(&is_target, &mut keep);
        if elim > 0 {
            self.compact(&keep);
        }
        elim
    }
}

/// Fuse guest memory accesses across the region, with store-to-load
/// facts carried across seams. Returns the number of accesses
/// eliminated, forwarded, or paired.
pub fn fuse_region(parts: &mut [SbPart]) -> u64 {
    Region::with(parts, Region::fuse)
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
// immediately before every instruction that leaves the region
// ([`Flow::leaves`]: ret / indirect jump / halt / trap / chain to a
// block outside the straightened path). In-region seams and the
// *backedge* — a `ChainJmp` to the region's own head, which
// `Engine::run_region` follows back to part 0 without leaving the
// region — do NOT write back: that residency is the point. The engine
// therefore materializes pinned registers into env before any watchdog
// snapshot or comparison taken at an in-region boundary, and when a
// memory access traps mid-part (`Engine::run_region` does exactly that,
// and only there: after an escape the writebacks have already run and
// the pinned register may legitimately be stale).
//
// Legality is whole-region: any call, any backward jump, or any explicit
// `%esp` definition refuses the allocation entirely. Dynamically
// addressed accesses — loads and stores — are permitted: the guest
// address space (code, globals, guest stack) lies strictly below
// `HOST_STACK_TOP < ENV_BASE`, so guest code cannot legitimately name a
// pinned slot's env home; the differential watchdog remains the safety
// net for one that somehow does (DESIGN.md §16). A slot accessed by any
// sub-word or misaligned-overlap form is unpinnable; remaining
// candidates are ranked by static access count and tried on `POOL`
// registers the region never touches, most-accessed first, while free
// registers last: a pin is kept only when the region cleanup then
// deletes at least one instruction it could not delete without it.
// Under spill pressure (no free registers) the region simply keeps its
// current env-home behavior.

/// The absolute address expression of guest register slot `s`.
fn slot_mem(s: u8) -> X86Mem {
    X86Mem::absolute((ENV_BASE + 4 * s as u32) as i32)
}

/// `ins` with every whole-slot W32 access to slot `s` — the forms with
/// identical value and flags behavior on a plain register operand —
/// rewritten to use the pinned register `p` instead of the env home.
fn rewrite_slot_access(ins: X86Instr, s: u8, p: Gpr) -> X86Instr {
    let slot = slot_mem(s);
    let hit = |o: &Operand| matches!(o, Operand::Mem(m) if *m == slot);
    match ins {
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
    }
}

impl Region {
    fn allocate(&mut self, pool: &[Gpr]) -> Vec<(u8, Gpr)> {
        // ---- whole-region legality ----
        // Calls hand control to code that may use any register; an explicit
        // `%esp` definition breaks the stack/env disjointness reasoning;
        // backward jumps would complicate writeback insertion (a jump could
        // then land *after* an inserted block it must execute).
        let illegal = |f: &Info| {
            f.def == bit(Gpr::Esp)
                || matches!(f.flow, Flow::Call)
                || matches!(f.flow, Flow::Jump(t) | Flow::Branch(t) if t < 0)
        };
        if self.info.iter().any(illegal) {
            return Vec::new();
        }
        // ---- per-slot census + register usage ----
        // An access overlapping a slot in any form the rewrite does not
        // know (sub-word, misaligned, `lea`, `jmp *`) poisons that slot.
        let mut count = [0u32; 15];
        let mut pinnable = [true; 15];
        let mut used: u8 = bit(Gpr::Eax) | bit(Gpr::Esp);
        let mut escapes = 0u32;
        for (ins, f) in self.code.iter().zip(&self.info) {
            used |= f.uses | f.def;
            escapes += f.flow.leaves() as u32;
            let lea = if let X86Instr::Lea { addr, .. } = *ins { Some((addr, 4)) } else { None };
            for s in 0..15u8 {
                let lo = ENV_BASE + 4 * s as u32;
                let overlaps = |&(m, bytes): &(X86Mem, u32)| {
                    abs_addr(&m).is_some_and(|a| a < lo + 4 && lo < a.saturating_add(bytes))
                };
                if [f.store, f.load, lea].iter().flatten().any(overlaps) {
                    if rewrite_slot_access(*ins, s, Gpr::Eax) != *ins {
                        count[s as usize] += 1;
                    } else {
                        pinnable[s as usize] = false;
                    }
                }
            }
        }
        // ---- selection: hottest slots onto unused pool registers ----
        // A pin adds one preamble load per region entry and one writeback
        // per escape. A rewritten access alone is a register move, no
        // fewer instructions than the env access it replaces; what a pin
        // can save is what the cleanup then deletes from the body, which
        // runs once per loop iteration. So each candidate, hottest first,
        // is pinned on a copy and cleaned up there, and kept only when
        // that deletes at least one instruction (its writebacks aside).
        let mut hot: Vec<u8> =
            (0..15u8).filter(|&s| pinnable[s as usize] && count[s as usize] >= 2).collect();
        hot.sort_by_key(|&s| (std::cmp::Reverse(count[s as usize]), s));
        let mut free = pool.iter().copied().filter(|&p| used & bit(p) == 0).peekable();
        let mut ra: Vec<(u8, Gpr)> = Vec::new();
        if hot.is_empty() || free.peek().is_none() {
            return ra;
        }
        let mut kept = self.clone();
        kept.optimize(0);
        for s in hot {
            let Some(&p) = free.peek() else { break };
            let mut trial = self.clone();
            ra.push((s, p));
            ra.iter().for_each(|&(s, p)| trial.pin(s, p));
            trial.optimize(pin_mask(&ra));
            let deleted = (kept.code.len() + escapes as usize).saturating_sub(trial.code.len());
            if deleted > 0 {
                kept = trial;
                free.next();
            } else {
                ra.pop();
            }
        }
        ra.iter().for_each(|&(s, p)| self.pin(s, p));
        ra
    }

    /// Pin guest slot `s` to `p`: rewrite every interior access to the
    /// register form, then write the slot back immediately before every
    /// instruction that leaves the region (after the writebacks of the
    /// slots pinned before it).
    fn pin(&mut self, s: u8, p: Gpr) {
        for i in 0..self.code.len() {
            let ins = rewrite_slot_access(self.code[i], s, p);
            if ins != self.code[i] {
                self.set(i, ins);
            }
        }
        let wb = X86Instr::Mov { dst: Operand::Mem(slot_mem(s)), src: Operand::Reg(p) };
        let sites: Vec<usize> =
            (0..self.code.len()).filter(|&i| self.info[i].flow.leaves()).collect();
        for &at in sites.iter().rev() {
            self.insert_before(at, &[wb]);
        }
    }
}

/// Region-wide register allocation: pin hot guest register slots to host
/// registers from `pool` that the region never otherwise touches.
/// Returns the allocation (`(slot, pinned register)` pairs, empty when
/// nothing was pinned). See the module section comment for the contract.
pub fn allocate_region(parts: &mut [SbPart], pool: &[Gpr]) -> Vec<(u8, Gpr)> {
    Region::with(parts, |r| r.allocate(pool))
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
/// live across every in-region seam and at every exit, so cleanup can
/// never invalidate a pinned register between parts (a writeback's
/// source may be renamed away from the pin by propagation; the pin
/// itself must still hold the guest value at the next seam for the
/// engine's watchdog materialization).
pub fn optimize_region_pinned(parts: &mut [SbPart], ra: &[(u8, Gpr)]) {
    Region::with(parts, |r| r.optimize(pin_mask(ra)));
}

/// Everything the engine does to freshly specialized `parts` (whose
/// blocks start at guest `pcs`), on one flattening: seam stripping and
/// cleanup, then the region-wide passes — memory access fusion first
/// (when `fuse`; its dead-store sinking must run before writeback stubs
/// exist), then register allocation (from `pool`, when given), then one
/// more cleanup sweep with the pinned registers held live across seams.
/// Returns the fused-access count and the allocation.
pub(crate) fn form_region(
    parts: &mut [SbPart],
    pcs: &[u32],
    fuse: bool,
    pool: Option<&[Gpr]>,
) -> (u64, Vec<(u8, Gpr)>) {
    Region::with(parts, |r| {
        r.strip_seam_exits(pcs);
        r.optimize(0);
        let fused = if fuse { r.fuse() } else { 0 };
        let ra = pool.map_or_else(Vec::new, |pool| r.allocate(pool));
        if fused > 0 || !ra.is_empty() {
            r.optimize(pin_mask(&ra));
        }
        (fused, ra)
    })
}

/// The region allocation contract, checked by the engine after region
/// formation (debug builds): part 0 reads only `%esp` and the pinned
/// registers (which the entry preamble defines) and no flags at entry,
/// and every instruction that leaves the region ([`Flow::leaves`] —
/// traps included) is immediately preceded by a writeback store to each
/// pinned slot's env home (later passes may rewrite the *source* of a
/// writeback but never remove or reorder the store).
pub fn region_contract(parts: &[SbPart], ra: &[(u8, Gpr)]) -> bool {
    let (Some(first), Some(r)) = (parts.first(), Region::flatten(parts)) else {
        return ra.is_empty();
    };
    let (regs, flags) = entry_reads(&first.code);
    if regs & !(bit(Gpr::Esp) | pin_mask(ra)) != 0 || flags != 0 {
        return false;
    }
    (0..r.code.len()).filter(|&i| r.info[i].flow.leaves()).all(|i| {
        let window = &r.code[i.saturating_sub(ra.len()).max(r.starts[r.info[i].part as usize])..i];
        ra.iter().all(|&(s, _)| {
            let slot = slot_mem(s);
            window
                .iter()
                .any(|w| matches!(w, X86Instr::Mov { dst: Operand::Mem(m), .. } if *m == slot))
        })
    })
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
        let eax_live_in = |code: &[X86Instr]| {
            Region::of([(3, false, code)]).liveness(exit_live(0))[0].regs & bit(Gpr::Eax) != 0
        };
        assert!(!eax_live_in(&code));
        // But a bare chain-jump path (no def) must refuse.
        assert!(eax_live_in(&[X86Instr::ChainJmp { block: 5 }]));
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

    /// Behind a stripped seam, copy propagation continues into the next
    /// part from the meet of the seam edges: a copy made at the end of
    /// part 0 is read through its source in part 1 and then dies, unless
    /// a side exit into part 1 arrives without the equality.
    #[test]
    fn propagation_carries_equalities_across_a_stripped_seam() {
        let copy = X86Instr::mov_rr(Gpr::Ecx, Gpr::Ebx);
        let tail = vec![
            X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(Gpr::Ecx), src: Operand::Imm(4) },
            X86Instr::Jcc { cc: Cc::L, target: 2 },
            X86Instr::mov_imm(Gpr::Eax, 0x300),
            X86Instr::Ret,
            X86Instr::mov_imm(Gpr::Eax, 0x400),
            X86Instr::Ret,
        ];
        let region = |head: Vec<X86Instr>| {
            let mut parts = vec![
                SbPart { id: 5, code: Rc::new(head), fallthrough_seam: true },
                part(7, tail.clone()),
            ];
            optimize_region(&mut parts);
            parts
        };
        let parts = region(vec![load(Gpr::Ebx, ArmReg::R0), copy, store(ArmReg::R1, Gpr::Ebx)]);
        assert!(
            !parts[0].code.contains(&copy),
            "copy read through its source: {:?}",
            parts[0].code
        );
        assert!(matches!(
            parts[1].code[0],
            X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(Gpr::Ebx), .. }
        ));
        // A chain into part 1 taken before the copy: the edges disagree.
        let parts = region(vec![
            load(Gpr::Ebx, ArmReg::R0),
            X86Instr::mov_rr(Gpr::Ecx, Gpr::Edx),
            X86Instr::Alu { op: AluOp::Cmp, dst: Operand::Reg(Gpr::Ebx), src: Operand::Imm(9) },
            X86Instr::Jcc { cc: Cc::L, target: 1 },
            X86Instr::ChainJmp { block: 7 },
            copy,
            store(ArmReg::R1, Gpr::Ebx),
        ]);
        assert!(parts[0].code.contains(&copy), "{:?}", parts[0].code);
        assert_eq!(parts[1].code, tail.into());
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
        let sunk = |code: &[X86Instr]| {
            let r = Region::of([(1, false, code)]);
            r.eliminate_dead_stores(&r.targets(), &mut vec![true; code.len()])
        };
        assert_eq!(sunk(&read), 0, "aliasing read is a barrier");
        // A conditional branch escapes to code that may read memory.
        let branch = vec![
            store(ArmReg::R4, Gpr::Esi),
            X86Instr::Jcc { cc: Cc::E, target: 0 },
            store(ArmReg::R4, Gpr::Edi),
            X86Instr::Ret,
        ];
        assert_eq!(sunk(&branch), 0, "Jcc is a barrier");
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
        let mut r = Region::of([(1, false, &code[..])]);
        let n = r.fuse_forward(&r.targets(), &mut vec![true; code.len()]);
        assert_eq!(n, 0, "misaligned pair refused");
        assert_eq!(r.code, code);
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

    fn touches(ins: &X86Instr, slot: &X86Mem) -> bool {
        [store_mem(ins), load_mem(ins)].iter().flatten().any(|(m, _)| m == slot)
    }

    #[test]
    fn allocate_region_pins_and_writes_back_at_escape() {
        // A trap leaves the region like any escape: an `svc` block ends
        // `writeback_all; mov $pc, %eax; trap`, and with r4 pinned those
        // writebacks are register moves — only the stub makes it precise.
        for exit in [X86Instr::ChainJmp { block: 9 }, X86Instr::Trap] {
            let mut parts = ra_region(exit);
            let ra = allocate_region(&mut parts, &[Gpr::Ecx, Gpr::Ebx]);
            assert_eq!(ra, vec![(4, Gpr::Ecx)]);
            // Interior accesses rewritten: the only remaining slot-4 memory
            // reference is the writeback immediately before the escape.
            let slot4 = slot_mem(4);
            let writeback = X86Instr::Mov { dst: Operand::Mem(slot4), src: Operand::Reg(Gpr::Ecx) };
            let homes: Vec<(usize, usize)> = (0..parts.len())
                .flat_map(|k| (0..parts[k].code.len()).map(move |i| (k, i)))
                .filter(|&(k, i)| touches(&parts[k].code[i], &slot4))
                .collect();
            let at = parts[1].code.len() - 2;
            assert_eq!(homes, [(1, at)], "one home access, right before {exit:?}");
            assert_eq!(parts[1].code[at..], [writeback, exit]);
            assert!(region_contract(&parts, &ra));
        }
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
        let any_home_access =
            parts.iter().flat_map(|p| p.code.iter()).any(|ins| touches(ins, &slot4));
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
    fn allocate_region_refuses_a_pin_that_deletes_nothing() {
        // Two accesses to r4 in a one-part region that escapes: pinned,
        // the load and the store become register moves the cleanup
        // cannot delete (the pin is live at the escape), so the pin
        // would only add its writeback and preamble load.
        let code = vec![
            X86Instr::Mov { dst: Operand::Reg(Gpr::Edx), src: Operand::Mem(slot_mem(4)) },
            X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 1),
            X86Instr::Mov { dst: Operand::Mem(slot_mem(4)), src: Operand::Reg(Gpr::Edx) },
            X86Instr::mov_imm(Gpr::Eax, 0x100),
            X86Instr::Ret,
        ];
        let mut parts = vec![part(5, code.clone())];
        assert!(allocate_region(&mut parts, &[Gpr::Ecx]).is_empty());
        assert_eq!(*parts[0].code, code, "a refused pin leaves the code as it was");
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
        let code = [
            X86Instr::Jcc { cc: Cc::E, target: 1 },
            X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1),
            X86Instr::Ret,
        ];
        let mut r = Region::of([(1, false, &code[..])]);
        r.insert_before(1, &[X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 7)]);
        let code = r.code;
        assert_eq!(code.len(), 4);
        assert!(matches!(code[0], X86Instr::Jcc { target: 2, .. }), "stretched: {code:?}");
        // A jump landing exactly at the insertion point keeps its target:
        // it must run the inserted block (writebacks before an escape).
        let code = [
            X86Instr::Jcc { cc: Cc::E, target: 1 },
            X86Instr::alu_ri(AluOp::Add, Gpr::Ecx, 1),
            X86Instr::Ret,
        ];
        let mut r = Region::of([(1, false, &code[..])]);
        r.insert_before(2, &[X86Instr::alu_ri(AluOp::Add, Gpr::Edx, 7)]);
        let code = r.code;
        assert!(matches!(code[0], X86Instr::Jcc { target: 1, .. }), "kept: {code:?}");
    }
}
