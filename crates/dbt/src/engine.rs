//! The DBT executor: translation, the dispatcher, the chained fast loop,
//! the superblock region loop, and the interpreter helper fallback, over
//! the code cache (`crate::cache`) and the guardian (`crate::guardian`).
//!
//! Four mechanisms keep the dispatcher off the hot path:
//!
//! 1. **Block chaining**: a chained exit flows block-to-block inside the
//!    run loop without a map probe. Fuel and per-block statistics are
//!    accounted at chain entry, making chained execution bit-identical
//!    to unchained (`LDBT_NOCHAIN=1`).
//! 2. **Indirect-branch target cache**: consulted before the `HashMap`
//!    on every dispatcher entry.
//! 3. **Zero-allocation dispatch**: rule-hit metadata is aggregated into
//!    [`DbtStats::hit_rules`] once at translation time and shared with
//!    the watchdog via `Rc`, so a dispatch allocates nothing.
//! 4. **Superblocks** (`LDBT_NOSB` / `LDBT_SB_THRESHOLD`): once a chain
//!    head crosses the hotness threshold, the hottest chain through it
//!    is re-materialized as a straight-line region of seam-specialized
//!    code clones (see [`crate::sb`]); the head's dispatch entry then
//!    runs the region, with side exits falling back to the chain/
//!    dispatcher. The per-unit accounting of the plain loop and the
//!    region loop is the same code, so it is bit-identical.

pub use crate::api::{RunOutcome, TransCost, Translator, TrapKind};
use crate::backend::{lower_block, lower_undecodable, POOL};
use crate::cache::{CachedBlock, CodeCache, InvalidateReason};
use crate::env::{
    env_mem, load_guest, reg_mem, step_guest, store_guest, Config, FlagId, ENV_BASE,
    GUEST_MEM_LIMIT, HOST_STACK_TOP,
};
use crate::guardian::{GuardCx, Guardian};
use crate::jit;
use crate::rules::{block_supported, lower_block_with_rules_suppress};
use crate::sb::{form_region, region_contract, specialize_part, SbPart, SeamState, NO_SB};
use crate::share::{RuleCell, RuleHandle};
use crate::stats::{DbtCtr, DbtStats, ExecProfile};
use crate::tcg::{decode_block, translate_block, GuestBlock};
use ldbt_arm::{encode::decode, ArmInstr, ArmReg};
use ldbt_compiler::ArmImage;
use ldbt_isa::{CostModel, Memory, Width};
use ldbt_learn::FaultPlan;
use ldbt_x86::interp::{run_seq, SeqExit};
use ldbt_x86::{Gpr, TrapCause, X86Instr, X86State};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The dynamic binary translator.
pub struct Engine {
    /// Host machine state; its memory holds the guest image, the env, and
    /// the host stack.
    pub state: X86State,
    /// Statistics for the experiment harness.
    pub stats: DbtStats,
    cache: CodeCache,
    guardian: Guardian,
    /// The installed rule generation, present exactly when the
    /// translator is rules-based.
    rules: Option<RuleHandle>,
    /// The TCG stream goes through the optimizing JIT backend.
    jit: bool,
    cost: CostModel,
    tcost: TransCost,
    entry: u32,
    pc: u32,
    /// Superblock formation threshold; `None` disables formation
    /// (`LDBT_NOSB` / `LDBT_SB_THRESHOLD`).
    sb_cfg: Option<u64>,
    /// Region register allocation enabled (`!LDBT_NORA`).
    region_alloc: bool,
    /// Guest memory access fusion enabled (`!LDBT_NOFUSE`).
    fusion: bool,
}

impl Engine {
    /// Create an engine for a linked guest image.
    ///
    /// The watchdog period, chaining flag, superblock config, region
    /// passes, SMC protection, fault plan, and repair flag start at
    /// [`Config::DEFAULT`]; the `with_*` builders override them, and
    /// [`Config::apply`] sets them all from one configuration. Nothing is
    /// read from the environment.
    pub fn new(image: &ArmImage, translator: Translator) -> Engine {
        let mut state = X86State::new();
        image.load_into(&mut state.mem);
        // Guest accesses at or above the host region trap instead of
        // silently aliasing the env or host stack.
        state.guest_limit = Some(GUEST_MEM_LIMIT);
        let (rules, jit) = match translator {
            Translator::Tcg => (None, false),
            Translator::Jit => (None, true),
            Translator::Rules(r) => (Some(RuleHandle::new(r, true)), false),
            Translator::RulesNoLazyFlags(r) => (Some(RuleHandle::new(r, false)), false),
        };
        let d = Config::DEFAULT;
        Engine {
            state,
            stats: DbtStats::new(),
            cache: CodeCache::new(d.chaining, d.smc),
            guardian: Guardian::new(d.watchdog, d.repair, d.fault),
            rules,
            jit,
            cost: CostModel::default(),
            tcost: TransCost::default(),
            entry: image.entry,
            pc: image.entry,
            sb_cfg: d.superblocks,
            region_alloc: d.region_alloc,
            fusion: d.fusion,
        }
    }

    /// Override the cycle cost model.
    pub fn with_cost(mut self, cost: CostModel, tcost: TransCost) -> Engine {
        self.cost = cost;
        self.tcost = tcost;
        self
    }

    /// Override the watchdog sampling period (`None` disables it).
    pub fn with_watchdog(mut self, period: Option<u64>) -> Engine {
        self.guardian.watchdog = period;
        self
    }

    /// Enable or disable block chaining (the `LDBT_NOCHAIN` knob).
    pub fn with_chaining(mut self, chaining: bool) -> Engine {
        self.cache.chaining = chaining;
        self
    }

    /// Override the translation fault plan (`None` disables injection).
    pub fn with_fault(mut self, fault: Option<FaultPlan>) -> Engine {
        self.guardian.fault = fault;
        self
    }

    /// Enable or disable counterexample-guided rule repair (the
    /// `LDBT_REPAIR` knob). With repair off, a watchdog mismatch
    /// conservatively quarantines every rule applied in the block.
    pub fn with_repair(mut self, repair: bool) -> Engine {
        self.guardian.repair = repair;
        self
    }

    /// Override superblock formation: `None` disables it (the `LDBT_NOSB`
    /// knob), `Some(t)` forms a region once a chain head crosses `t`
    /// executions (the `LDBT_SB_THRESHOLD` knob).
    pub fn with_superblocks(mut self, cfg: Option<u64>) -> Engine {
        self.sb_cfg = cfg;
        self
    }

    /// Enable or disable region register allocation inside superblocks
    /// (the `LDBT_NORA` knob).
    pub fn with_region_alloc(mut self, on: bool) -> Engine {
        self.region_alloc = on;
        self
    }

    /// Enable or disable guest memory access fusion inside superblocks
    /// (the `LDBT_NOFUSE` knob).
    pub fn with_fusion(mut self, on: bool) -> Engine {
        self.fusion = on;
        self
    }

    /// Enable or disable self-modifying-code protection (the
    /// `LDBT_NOSMC` knob). With it off, guest stores into translated
    /// code go unnoticed until the next [`Engine::reset`].
    pub fn with_smc(mut self, on: bool) -> Engine {
        self.cache.smc = on;
        self
    }

    /// Attach this engine to a shared rule-generation cell (serve mode).
    ///
    /// The engine drops its private cell, caches the shared cell's
    /// current generation, and from then on publishes quarantine/repair
    /// through the shared cell and adopts generations published by other
    /// tenants at dispatcher entries.
    ///
    /// # Panics
    ///
    /// Panics if the translator is not rules-based — only rule sets are
    /// shared; TCG/JIT engines have no cross-tenant state.
    pub fn with_rule_cell(mut self, cell: Arc<RuleCell>) -> Engine {
        let h = self.rules.as_mut().expect("with_rule_cell requires a rules translator");
        (h.rules, h.gen) = cell.load();
        h.cell = cell;
        self
    }

    /// The rule-generation cell (present iff the translator is
    /// rules-based). Share the returned `Arc` with other engines to form
    /// a tenant group.
    pub fn rule_cell(&self) -> Option<&Arc<RuleCell>> {
        self.rules.as_ref().map(|h| &h.cell)
    }

    /// Generation of the rule set this engine currently translates with.
    pub fn rules_generation(&self) -> u64 {
        self.rules.as_ref().map_or(0, |h| h.gen)
    }

    /// Read a guest register from the env.
    pub fn guest_reg(&self, r: ArmReg) -> u32 {
        self.state.mem.read(ENV_BASE + 4 * r.index() as u32, Width::W32)
    }

    /// The current guest PC.
    pub fn guest_pc(&self) -> u32 {
        self.pc
    }

    /// Read a word of guest memory (driver use: auditing guest-visible
    /// state after a halt or trap).
    pub fn guest_mem(&self, addr: u32) -> u32 {
        self.state.mem.read(addr, Width::W32)
    }

    /// Write a guest register's env slot (driver use: a host-side trap
    /// handler mutating guest state between dispatches).
    pub fn set_guest_reg(&mut self, r: ArmReg, v: u32) {
        self.state.mem.write(ENV_BASE + 4 * r.index() as u32, v, Width::W32);
    }

    /// Redirect execution: the next [`Engine::run`] dispatch starts at
    /// `pc`.
    pub fn set_guest_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn invalidate(&mut self, victims: Vec<u32>, reason: InvalidateReason) {
        self.cache.invalidate(&victims, reason, &self.state.mem, &self.stats);
    }

    /// Drain the guest-store hit log and invalidate every live block
    /// whose guest byte range a logged store overlapped; the pc
    /// retranslates from the rewritten bytes at its next dispatch.
    #[inline(always)]
    fn handle_smc(&mut self) {
        if self.state.mem.has_code_writes() {
            let spans = self.state.mem.take_code_writes();
            self.invalidate(self.cache.overlapping(&spans), InvalidateReason::Smc);
        }
    }

    /// Dispatcher-entry generation poll (serve mode): adopt a rule
    /// generation published by another tenant and invalidate exactly the
    /// translations whose rule applications went stale, so any block
    /// dispatched from here on never runs a rule that was tombstoned or
    /// replaced in the adopted generation.
    #[inline(always)]
    fn sync_rules(&mut self) {
        let Some(h) = self.rules.as_mut() else { return };
        let Some((from_gen, stale)) = h.adopt(self.cache.hit_keys()) else { return };
        exec_event!("rules_adopt", from_gen = from_gen, to_gen = h.gen, stale_keys = stale.len());
        self.invalidate(self.cache.hitting(&stale), InvalidateReason::Adoption);
    }

    /// Resolve a trap exit from translated code into a [`RunOutcome`].
    ///
    /// Instruction traps are precise: the lowering wrote every dirty
    /// guest register back before the sentinel and left the trapping pc
    /// in `%eax`; the guest word there tells a trap instruction from an
    /// undecodable one. Memory traps are block-granular: the faulting
    /// address is exact but the reported pc is the entry of the
    /// faulting block (guest registers hold the block-entry values).
    fn trap_outcome(&mut self, block_pc: u32, cause: TrapCause) -> RunOutcome {
        let (pc, kind) = match cause {
            TrapCause::Insn => {
                let tpc = self.state.reg(Gpr::Eax);
                let kind = match decode(self.state.mem.read(tpc, Width::W32)) {
                    Ok(ArmInstr::Svc { imm, .. }) => TrapKind::Svc(imm),
                    _ => TrapKind::Undef,
                };
                (tpc, kind)
            }
            TrapCause::Mem(addr) => (block_pc, TrapKind::Mem(addr)),
        };
        self.stats.bump(DbtCtr::Traps);
        let (name, detail) = match kind {
            TrapKind::Svc(n) => ("svc", n as u64),
            TrapKind::Undef => ("undef", 0),
            TrapKind::Mem(a) => ("mem", a as u64),
        };
        exec_event!("trap", pc = pc, cause = name, detail = detail);
        RunOutcome::Trap { pc, cause: kind }
    }

    /// Lower `block` through the learned rules, when rule translation is
    /// active, supports the block, and no quarantine forced it onto TCG.
    fn translate_with_rules(&mut self, pc: u32, block: &GuestBlock) -> Option<CachedBlock> {
        let h = self.rules.as_ref()?;
        if !block_supported(block) || self.guardian.forces_tcg(pc) {
            return None;
        }
        let (mem, fault) = (&self.state.mem, self.guardian.fault);
        let low = lower_block_with_rules_suppress(mem, block, &h.rules, h.lazy_flags, fault, None);
        let covered = low.covered.iter().filter(|c| **c).count() as u64;
        self.stats.exec.translation_cycles += self.tcost.block_base
            + self.tcost.per_lookup * low.lookups as u64
            + self.tcost.per_rule_instr * low.rule_instrs as u64
            + self.tcost.per_tcg_op * low.tcg_ops as u64;
        self.stats.add(DbtCtr::RuleLookups, low.lookups as u64);
        self.stats.add(DbtCtr::GuestStaticCovered, covered);
        self.stats.add(DbtCtr::RuleBoundaryInstrs, low.boundary_instrs as u64);
        // Hit-rule aggregation happens once here, not per dispatch
        // (a translated block is always dispatched at least once).
        for &(len, key) in &low.hits {
            self.stats.hit_rules.insert(key, len);
        }
        let guest_len = block.instrs.len() as u64;
        Some(CachedBlock::new(pc, guest_len, covered, low.code, low.hits, low.exits))
    }

    /// Translate the block at `pc` into the code cache; returns its id.
    fn translate(&mut self, pc: u32) -> u32 {
        self.guardian.install_fault(self.rules.as_mut());
        let block = decode_block(&self.state.mem, pc);
        self.stats.bump(DbtCtr::Blocks);
        let (kind, cached) = if block.instrs.is_empty() {
            // Undecodable: a trap block. Executing it reports an
            // undefined-instruction trap at this pc — exactly what the
            // interpreter does — instead of faulting the engine. It
            // still covers the word it failed to decode, so a store
            // rewriting that word invalidates it and the retranslation
            // sees the fresh bytes.
            let low = lower_undecodable(pc);
            ("trap", CachedBlock::new(pc, 0, 0, low.code, Vec::new(), low.exits))
        } else if let Some(cached) = self.translate_with_rules(pc, &block) {
            ("rules", cached)
        } else {
            let tcg = translate_block(&self.state.mem, &block);
            let translated_len = tcg.unsupported_at.unwrap_or(block.instrs.len()) as u64;
            if translated_len == 0 {
                // The first instruction needs the interpreter helper.
                ("interp_one", CachedBlock::helper(pc))
            } else {
                let (kind, base, per_op, low) = if self.jit {
                    ("jit", self.tcost.jit_block_base, self.tcost.jit_per_op, jit::lower(&tcg))
                } else {
                    ("tcg", self.tcost.block_base, self.tcost.per_tcg_op, lower_block(&tcg))
                };
                self.stats.exec.translation_cycles += base + per_op * tcg.ops.len() as u64;
                (kind, CachedBlock::new(pc, translated_len, 0, low.code, Vec::new(), low.exits))
            }
        };
        self.stats.add(DbtCtr::GuestStatic, cached.guest_len);
        exec_event!(
            "translate",
            pc = pc,
            kind = kind,
            guest_len = cached.guest_len,
            covered = cached.covered
        );
        self.cache.insert(cached, &mut self.state.mem, &self.stats)
    }

    /// Interpret a single guest instruction against the env (the "helper"
    /// path for instructions the translators do not model).
    fn helper_step(&mut self, pc: u32) -> Result<u32, RunOutcome> {
        let word = self.state.mem.read(pc, Width::W32);
        let Ok(instr) = decode(word) else { return Err(RunOutcome::Fault) };
        let mut arm = load_guest(std::mem::take(&mut self.state.mem));
        let step = step_guest(&mut arm, &instr, pc).map(|(next, _)| next);
        // A halt or trap writes the registers back and leaves the flags.
        self.state.mem = store_guest(&mut arm, step.is_ok());
        match step {
            Ok(_) => {
                self.stats.exec.exec_cycles += self.tcost.helper;
                self.stats.bump(DbtCtr::HelperSteps);
            }
            Err(RunOutcome::Trap { .. }) => self.stats.bump(DbtCtr::Traps),
            Err(_) => {}
        }
        step
    }

    /// Unit prologue, shared by the plain and the region loop: count one
    /// execution of block `bid` and ask the watchdog whether to sample
    /// it. Returns the block's pc, its execution count, and the verdict.
    /// (`inline(always)` on the unit helpers: under plain `#[inline]` the
    /// dispatcher-heavy paths measured ~4% slower than the parent's
    /// hand-inlined loops.)
    #[inline(always)]
    fn begin_unit(&mut self, bid: u32) -> (u32, u64, bool) {
        let b = self.cache.enter(bid);
        self.stats.bump(DbtCtr::BlockExecs);
        self.stats.add(DbtCtr::GuestDyn, b.guest_len);
        self.stats.add(DbtCtr::GuestDynCovered, b.covered);
        (b.pc, b.execs, self.guardian.sample(!b.hits.is_empty()))
    }

    /// Run one unit's code and classify the exit. A continuing exit sets
    /// the guest pc and yields the block it chained to (`None`: a `ret`
    /// to the dispatcher); running off the end of the code continues at
    /// `seam` (a region part's stripped seam: falling off the end *is*
    /// the chained jump to the next part). Anything else ends the run.
    /// Like `Halted`, a trap ends the run before the watchdog sees it (a
    /// sampled snapshot is dropped unused; the tick already advanced,
    /// keeping parity across configurations).
    #[inline(always)]
    fn exec_unit(
        &mut self,
        code: &[X86Instr],
        block_pc: u32,
        fuel: u64,
        seam: Option<u32>,
    ) -> Result<Option<u32>, RunOutcome> {
        let remaining = fuel - self.stats.exec.host_instrs;
        let next = match run_seq(&mut self.state, code, remaining, &self.cost, &mut self.stats.exec)
        {
            SeqExit::Chained(next) => next,
            SeqExit::Returned => {
                self.pc = self.state.reg(Gpr::Eax);
                return Ok(None);
            }
            SeqExit::FellThrough => seam.ok_or(RunOutcome::Fault)?,
            SeqExit::Halted => return Err(RunOutcome::Halted),
            SeqExit::OutOfFuel => return Err(RunOutcome::OutOfFuel),
            SeqExit::Trapped(cause) => return Err(self.trap_outcome(block_pc, cause)),
            SeqExit::JumpedOut(_) | SeqExit::Faulted => return Err(RunOutcome::Fault),
        };
        self.pc = self.cache.block(next).pc;
        Ok(Some(next))
    }

    /// Unit epilogue: cross-check a sampled unit of block `bid` (`pre`:
    /// its pre-dispatch memory snapshot) against the interpreter, then
    /// drain SMC. `Ok(false)`: the watchdog rewound a divergence and
    /// invalidated translations, so control must go back through the
    /// dispatcher.
    #[inline(always)]
    fn end_unit(&mut self, bid: u32, pre: Option<Memory>) -> Result<bool, RunOutcome> {
        if let Some(pre) = pre {
            let b = self.cache.block(bid);
            // The `Rc` clone is a pointer bump.
            let (block_pc, hits) = (b.pc, Rc::clone(&b.hits));
            let mut cx = GuardCx {
                mem: &mut self.state.mem,
                pc: &mut self.pc,
                cache: &mut self.cache,
                rules: self.rules.as_mut(),
                stats: &self.stats,
            };
            if !self.guardian.check(&mut cx, block_pc, &hits, pre)? {
                return Ok(false);
            }
        }
        // Stores from this unit may have rewritten translated code:
        // invalidate before control flows into a stale translation —
        // possibly the chained successor itself, or this very block
        // re-entered via a loop.
        self.handle_smc();
        Ok(true)
    }

    /// A chained transition: mirror the dispatcher-entry fuel check so
    /// chained accounting is bit-identical.
    #[inline(always)]
    fn chain_step(&mut self, fuel: u64) -> Result<(), RunOutcome> {
        if self.stats.exec.host_instrs >= fuel {
            return Err(RunOutcome::OutOfFuel);
        }
        self.stats.bump(DbtCtr::ChainedExecs);
        Ok(())
    }

    /// Run until the guest halts or `fuel` host instructions have been
    /// executed.
    pub fn run(&mut self, fuel: u64) -> RunOutcome {
        self.state.set_reg(Gpr::Esp, HOST_STACK_TOP);
        loop {
            if self.stats.exec.host_instrs >= fuel {
                return RunOutcome::OutOfFuel;
            }
            self.sync_rules();
            // Helper steps and watchdog adoption write guest memory on
            // paths that re-enter here directly: drain any code-page
            // store hits before dispatching (and before translating
            // from possibly-rewritten bytes).
            self.handle_smc();
            let pc = self.pc;
            let id = match self.cache.lookup(pc, &self.stats) {
                Some(id) => id,
                None => self.translate(pc),
            };
            if let Err(out) = self.run_chain(id, fuel) {
                return out;
            }
        }
    }

    /// Chained fast loop from block `id`: no map probes until control
    /// leaves the chain (indirect branch, an unlinked exit, or an
    /// invalidation) — `Ok`: the dispatcher continues at the guest pc.
    #[inline(always)]
    fn run_chain(&mut self, mut id: u32, fuel: u64) -> Result<(), RunOutcome> {
        loop {
            // A block heading a live region runs the region instead;
            // its per-block accounting happens inside, part by part.
            let sbid = self.cache.block(id).sb_head;
            if sbid != NO_SB {
                match self.run_region(sbid, fuel)? {
                    // An SMC purge inside the region may have killed
                    // the escape target.
                    Some(next) if !self.cache.block(next).dead => id = next,
                    _ => return Ok(()),
                }
                continue;
            }
            let (block_pc, execs_now, sampled) = self.begin_unit(id);
            if self.cache.block(id).interp_one {
                self.pc = self.helper_step(block_pc)?;
                return Ok(());
            }
            // Formation trigger: every `threshold`-th execution of a
            // block, try to grow a region from the hot chain through
            // it. This execution still runs the plain code; the
            // region takes over at the next entry. Forming only
            // clones and specializes already-translated code, so no
            // translation counters move and accounting parity with
            // `LDBT_NOSB` holds.
            if let Some(threshold) = self.sb_cfg {
                if self.cache.chaining && execs_now.is_multiple_of(threshold) {
                    self.try_form_region(id);
                }
            }
            let code = Rc::clone(&self.cache.block(id).code);
            if code.is_empty() {
                return Err(RunOutcome::Fault);
            }
            // The memory snapshot is only taken on a sampled dispatch.
            let pre = sampled.then(|| self.state.mem.clone());
            let next = self.exec_unit(&code, block_pc, fuel, None)?;
            if !self.end_unit(id, pre)? {
                return Ok(());
            }
            match next {
                // (An SMC purge may have killed the successor; its pc
                // retranslates through the dispatcher.)
                Some(next) if !self.cache.block(next).dead => {
                    self.chain_step(fuel)?;
                    id = next;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Try to form a superblock region headed at block `head` from the
    /// hot chain through it: specialize each member's code clone against
    /// the seam state its predecessor leaves behind, and strip provably
    /// dead seam exit pairs. Forming never re-translates — it only
    /// clones and deletes — so translation-side statistics are untouched.
    fn try_form_region(&mut self, head: u32) {
        // The `sb_form` event reports what formation took; the clock is
        // read only when someone is listening.
        let t0 = ldbt_obs::trace::enabled(ldbt_obs::trace::Scope::Exec).then(Instant::now);
        let Some(path) = self.cache.hot_path(head) else { return };
        let mut st = SeamState::entry();
        let mut parts: Vec<SbPart> = Vec::with_capacity(path.len());
        for &id in &path {
            let (code, exit) = specialize_part(&self.cache.block(id).code, &st);
            st = exit;
            parts.push(SbPart { id, code: Rc::new(code), fallthrough_seam: false });
        }
        let pcs: Vec<u32> = path.iter().map(|&id| self.cache.block(id).pc).collect();
        let pool = self.region_alloc.then_some(&POOL[..]);
        let (fused, ra) = form_region(&mut parts, &pcs, self.fusion, pool);
        self.stats.add(DbtCtr::FuseElim, fused);
        self.stats.add(DbtCtr::RaPromoted, ra.len() as u64);
        debug_assert!(region_contract(&parts, &ra), "region allocation contract violated");
        let host_instrs_in = path.iter().map(|&id| self.cache.block(id).code.len()).sum();
        self.cache.install_region(parts, ra, (host_instrs_in, t0), &self.stats);
    }

    /// Execute region `rid` from its head. Every counter the plain path
    /// maintains per block execution is maintained here per part by the
    /// same unit code, so a run's `DbtStats` accounting is bit-identical
    /// with superblocks on or off; only the host instruction count (the
    /// thing regions exist to shrink) differs. `Ok(Some(next))`: a side
    /// exit chained to a block outside the region — continue the fast
    /// loop there (mirrors a plain chained transition). `Ok(None)`:
    /// control left the chain (indirect branch or a watchdog rewind) —
    /// go back through the dispatcher.
    fn run_region(&mut self, rid: u32, fuel: u64) -> Result<Option<u32>, RunOutcome> {
        let (ra, preamble, head_id) = {
            let sb = self.cache.region(rid);
            (Rc::clone(&sb.ra), Rc::clone(&sb.preamble), sb.parts[0].id)
        };
        let mut k = 0usize;
        // Whether the pinned registers currently hold guest state. Set
        // when the entry preamble runs; stays set across seams *and*
        // across the loop backedge to the head — a `ChainJmp` back to
        // part 0 is an in-region transition, so the pins remain
        // authoritative and neither the writeback stubs nor the preamble
        // execute on it. Only a true escape leaves the region.
        let mut resident = false;
        loop {
            let (bid, code, ft_seam, next_id) = {
                let sb = self.cache.region(rid);
                let part = &sb.parts[k];
                let next = sb.parts.get(k + 1).map(|p| p.id);
                (part.id, Rc::clone(&part.code), part.fallthrough_seam, next)
            };
            self.stats.bump(DbtCtr::SbExecs);
            // Watchdog sampling is the plain path's: same tick sequence,
            // same snapshots, and the comparison surface (env registers,
            // next pc, guest memory) is untouched by part specialization.
            let (block_pc, _, sampled) = self.begin_unit(bid);
            // While resident the pinned registers are authoritative and
            // the env homes stale: materialize before snapshotting so the
            // watchdog's reference interpretation starts from the true
            // guest state. Before the preamble has run, env is already
            // authoritative.
            if sampled && resident {
                self.materialize_ra(&ra);
            }
            let pre = sampled.then(|| self.state.mem.clone());
            // First entry into the region body: load the pinned registers
            // from their env homes. The preamble only reads env, so it is
            // transparent to the watchdog snapshot taken just above.
            if k == 0 && !resident && !ra.is_empty() {
                let left = fuel - self.stats.exec.host_instrs;
                match run_seq(&mut self.state, &preamble, left, &self.cost, &mut self.stats.exec) {
                    SeqExit::FellThrough => {}
                    _ => return Err(RunOutcome::OutOfFuel),
                }
                resident = true;
            }
            // Where the part handed control: `None` = back to the
            // dispatcher, else a seam to the next part, the resident
            // backedge to the region head, or an escape out of the region.
            // Seam takes precedence over backedge: in an unrolled
            // self-loop every part *is* the head, and mid-unroll
            // chains are seams; only the last part's chain back to
            // the head closes the loop.
            let next = match self.exec_unit(&code, block_pc, fuel, next_id.filter(|_| ft_seam)) {
                // A memory access trapped mid-part, where no writeback
                // stub has run: the pins are the guest registers, and the
                // run ends here. (An instruction trap is preceded by its
                // stub, like every other way out of the region.)
                Err(out @ RunOutcome::Trap { cause: TrapKind::Mem(_), .. }) if resident => {
                    self.materialize_ra(&ra);
                    return Err(out);
                }
                unit => unit?,
            };
            let seam = next.is_some() && next == next_id;
            let in_region = seam || next == Some(head_id);
            // The comparison surface is env: materialize the pinned
            // registers, but only when the part continued *in-region*
            // (a seam carries guest state in pinned registers). After
            // an escape the writeback stubs already materialized env,
            // and later cleanup may have renamed a writeback's source
            // away from the pinned register — overwriting env from it
            // then would corrupt guest state.
            if pre.is_some() && in_region {
                self.materialize_ra(&ra);
            }
            // (A divergence rewind purged blocks — possibly this very
            // region — so control must leave it.)
            if !self.end_unit(bid, pre)? {
                return Ok(None);
            }
            // Stores from this part may have rewritten a member of this
            // very region (a self-modifying loop): the purge killed the
            // region and its remaining clones are stale. Materialize
            // the pins (on an in-region step they are authoritative)
            // and fall back at the pc the part already handed over.
            if self.cache.region(rid).dead {
                if in_region {
                    self.materialize_ra(&ra);
                }
                return Ok(next.filter(|_| !in_region));
            }
            let Some(next) = next else { return Ok(None) };
            self.chain_step(fuel)?;
            if seam {
                // On to the next part, pins stay resident.
                k += 1;
            } else if in_region {
                // Resident backedge: around the loop without leaving the
                // region — no writebacks ran, no preamble will re-run,
                // pins stay authoritative.
                k = 0;
            } else {
                // Escape: the writeback stubs materialized env on the way
                // out; hand control back to the chainer.
                return Ok(Some(next));
            }
        }
    }

    /// Write every pinned register's current value to its guest env home
    /// ([`crate::sb::Superblock::ra`]). Called only at in-region part
    /// boundaries ahead of a watchdog snapshot or comparison, and when a
    /// memory access traps mid-part — there the pinned register is
    /// authoritative and the env home stale. Never called after an
    /// escape: the region's writeback stubs have already materialized
    /// env.
    fn materialize_ra(&mut self, ra: &[(u8, Gpr)]) {
        for &(s, p) in ra {
            let v = self.state.reg(p);
            self.state.mem.write(ENV_BASE + 4 * s as u32, v, Width::W32);
        }
    }

    /// Reset execution state (keeping the translated-code cache) so the
    /// same image can be run again.
    ///
    /// Callers may rewrite guest memory between runs — reloading a
    /// different image, or the finished run itself modified its code —
    /// so every live block's guest bytes are revalidated against the
    /// checksum recorded at translation time and stale blocks are
    /// invalidated. This runs even under `LDBT_NOSMC`: it is the
    /// coherence floor for cache reuse, not a hot-path optimization.
    pub fn reset(&mut self) {
        self.pc = self.entry;
        // The checksum sweep subsumes any pending store-hit log.
        let _ = self.state.mem.take_code_writes();
        self.invalidate(self.cache.stale(&self.state.mem), InvalidateReason::Reset);
    }

    /// Number of live translated blocks in the code cache.
    pub fn cache_blocks(&self) -> usize {
        self.cache.live_blocks()
    }

    /// Number of chained (patched) block-to-block links currently live.
    pub fn live_links(&self) -> usize {
        self.cache.live_links()
    }

    /// Number of live superblock regions.
    pub fn live_regions(&self) -> usize {
        self.cache.live_regions()
    }

    /// Check the code-cache invariants (links, dispatch map, IBTC,
    /// pending back-patches, regions, code-page marks), reporting the
    /// first violation. Debug builds assert this after every mutation.
    pub fn check_cache(&self) -> Result<(), String> {
        self.cache.check(&self.state.mem)
    }

    /// Execution-hotness and rule-attribution profile, computed from the
    /// code-cache arena at snapshot time. The dispatch hot path pays
    /// nothing for this beyond the per-block `execs` counter it already
    /// maintains.
    pub fn profile(&self) -> ExecProfile {
        self.cache.profile()
    }

    /// The env slot address of a guest register (for tests/diagnostics).
    pub fn reg_slot(r: ArmReg) -> u32 {
        (reg_mem(r).disp) as u32
    }

    /// The env slot address of a flag.
    pub fn flag_slot(f: FlagId) -> u32 {
        (env_mem(f.offset()).disp) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbt_compiler::{link::build_arm_image, Options};

    fn run_both_ways(src: &str) -> (u32, u32) {
        let image = build_arm_image(src, &Options::o2()).unwrap();
        // Reference: the ARM interpreter.
        let mut m = ldbt_arm::ArmMachine::new();
        image.load_into(&mut m.state.mem);
        m.state.regs[15] = image.entry;
        assert_eq!(m.run(50_000_000), ldbt_arm::ArmStop::Halt);
        let want = m.state.reg(ArmReg::R0);
        // DBT.
        let mut e = Engine::new(&image, Translator::Tcg);
        assert_eq!(e.run(200_000_000), RunOutcome::Halted);
        (want, e.guest_reg(ArmReg::R0))
    }

    #[test]
    fn simple_program_matches_interpreter() {
        let (want, got) = run_both_ways("int main() { return 41 + 1; }");
        assert_eq!(want, got);
        assert_eq!(got, 42);
    }

    #[test]
    fn loops_and_branches_match() {
        let src = "
int main() {
  int s = 0;
  for (int i = 1; i <= 100; i += 1) {
    if (i & 1) { s += i; } else { s -= 1; }
  }
  return s;
}";
        let (want, got) = run_both_ways(src);
        assert_eq!(want, got);
    }

    #[test]
    fn memory_and_calls_match() {
        let src = "
int a[32];
int sum(int n) {
  int s = 0;
  for (int i = 0; i < n; i += 1) { s += a[i]; }
  return s;
}
int main() {
  for (int i = 0; i < 32; i += 1) { a[i] = i * 3; }
  return sum(32) & 0xffff;
}";
        let (want, got) = run_both_ways(src);
        assert_eq!(want, got);
    }

    #[test]
    fn recursion_matches() {
        let src = "
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { return fib(14); }";
        let (want, got) = run_both_ways(src);
        assert_eq!(want, got);
        assert_eq!(got, 377);
    }

    #[test]
    fn code_cache_reuses_blocks() {
        let src = "
int main() {
  int s = 0;
  for (int i = 0; i < 50; i += 1) { s += i; }
  return s;
}";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        let mut e = Engine::new(&image, Translator::Tcg);
        assert_eq!(e.run(10_000_000), RunOutcome::Halted);
        assert!(e.stats.block_execs() > e.stats.blocks(), "loop blocks re-executed");
        assert!(e.cache_blocks() as u64 == e.stats.blocks());
    }

    #[test]
    fn jit_translator_matches_tcg() {
        let src = "
int h(int x) { return (x ^ 2166136261) * 599; }
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i += 1) { acc += h(i) & 1023; }
  return acc;
}";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        let mut tcg = Engine::new(&image, Translator::Tcg);
        assert_eq!(tcg.run(50_000_000), RunOutcome::Halted);
        let mut jit = Engine::new(&image, Translator::Jit);
        assert_eq!(jit.run(50_000_000), RunOutcome::Halted);
        assert_eq!(tcg.guest_reg(ArmReg::R0), jit.guest_reg(ArmReg::R0));
        assert!(
            jit.stats.exec.host_instrs < tcg.stats.exec.host_instrs,
            "jit code is leaner: {} vs {}",
            jit.stats.exec.host_instrs,
            tcg.stats.exec.host_instrs
        );
        assert!(
            jit.stats.exec.translation_cycles > tcg.stats.exec.translation_cycles,
            "jit pays for it in translation time"
        );
    }

    #[test]
    fn predicated_code_via_helper_or_select() {
        // Comparison-as-value compiles to a predicated mov: must still run
        // correctly under the DBT.
        let src = "int main() { int a = 5; int b = 9; return (a < b) + 2 * (a == 5); }";
        let (want, got) = run_both_ways(src);
        assert_eq!(want, got);
        assert_eq!(got, 3);
    }

    #[test]
    fn guest_dyn_instr_accounting() {
        let src = "int main() { return 7; }";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        let mut e = Engine::new(&image, Translator::Tcg);
        assert_eq!(e.run(1_000_000), RunOutcome::Halted);
        // _start (4 instrs incl. svc) + main body.
        assert!(e.stats.guest_dyn() >= 6, "{}", e.stats.guest_dyn());
        assert!(e.stats.exec.host_instrs > 0);
        assert!(e.stats.exec.translation_cycles > 0);
    }

    #[test]
    fn out_of_fuel_reported() {
        let src = "int main() { int s = 0; while (s < 100000000) { s += 1; } return s; }";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        let mut e = Engine::new(&image, Translator::Tcg);
        assert_eq!(e.run(10_000), RunOutcome::OutOfFuel);
    }

    const LOOPY: &str = "
int main() {
  int s = 0;
  for (int i = 0; i < 200; i += 1) {
    if (i & 1) { s += i; } else { s ^= 5; }
  }
  return s & 0xffff;
}";

    #[test]
    fn chaining_links_blocks_and_matches_unchained() {
        let image = build_arm_image(LOOPY, &Options::o2()).unwrap();
        // Superblocks off: this test pins chained == unchained down to
        // the host instruction count, which regions deliberately shrink.
        let mut chained =
            Engine::new(&image, Translator::Tcg).with_chaining(true).with_superblocks(None);
        assert_eq!(chained.run(50_000_000), RunOutcome::Halted);
        let mut plain =
            Engine::new(&image, Translator::Tcg).with_chaining(false).with_superblocks(None);
        assert_eq!(plain.run(50_000_000), RunOutcome::Halted);
        // Chaining is live.
        assert!(chained.stats.chain_links() > 0, "direct branches were linked");
        assert!(chained.stats.chained_execs() > 0, "chained entries actually ran");
        assert!(chained.live_links() > 0);
        assert_eq!(plain.stats.chain_links(), 0);
        assert_eq!(plain.stats.chained_execs(), 0);
        // Bit-identical architectural results and accounting.
        for r in ArmReg::ALL {
            assert_eq!(chained.guest_reg(r), plain.guest_reg(r), "{r:?}");
        }
        assert_eq!(chained.stats.guest_dyn(), plain.stats.guest_dyn());
        assert_eq!(chained.stats.block_execs(), plain.stats.block_execs());
        assert_eq!(chained.stats.exec.host_instrs, plain.stats.exec.host_instrs);
        assert_eq!(chained.stats.exec.exec_cycles, plain.stats.exec.exec_cycles);
        assert_eq!(
            chained.state.mem.first_difference(&plain.state.mem, |_| false),
            None,
            "guest memory identical"
        );
        // Chaining replaces dispatcher entries: far fewer lookups.
        assert!(
            chained.stats.ibtc_hits() + chained.stats.ibtc_misses()
                < plain.stats.ibtc_hits() + plain.stats.ibtc_misses(),
            "chained runs consult the dispatcher less"
        );
    }

    #[test]
    fn ibtc_serves_repeat_dispatches() {
        let image = build_arm_image(LOOPY, &Options::o2()).unwrap();
        // Without chaining every loop iteration goes through the
        // dispatcher, so the IBTC must carry almost all of them.
        let mut e = Engine::new(&image, Translator::Tcg).with_chaining(false);
        assert_eq!(e.run(50_000_000), RunOutcome::Halted);
        assert!(e.stats.ibtc_hits() > 0, "repeat dispatches hit the IBTC");
        assert!(
            e.stats.ibtc_hits() > e.stats.ibtc_misses(),
            "hits dominate: {} vs {}",
            e.stats.ibtc_hits(),
            e.stats.ibtc_misses()
        );
    }

    #[test]
    fn self_loop_chains_to_itself() {
        // A one-block countdown loop ends in a conditional branch back to
        // its own pc: the block must link to itself and still terminate.
        let src = "int main() { int s = 100000; while (s > 0) { s -= 1; } return s; }";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        let mut e = Engine::new(&image, Translator::Tcg).with_chaining(true);
        assert_eq!(e.run(50_000_000), RunOutcome::Halted);
        assert_eq!(e.guest_reg(ArmReg::R0), 0);
        assert!(e.stats.chained_execs() > 0);
    }

    #[test]
    fn chained_out_of_fuel_accounting_matches() {
        let src = "int main() { int s = 0; while (s < 100000000) { s += 1; } return s; }";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        for fuel in [10_000u64, 10_001, 12_345] {
            let mut a =
                Engine::new(&image, Translator::Tcg).with_chaining(true).with_superblocks(None);
            assert_eq!(a.run(fuel), RunOutcome::OutOfFuel);
            let mut b =
                Engine::new(&image, Translator::Tcg).with_chaining(false).with_superblocks(None);
            assert_eq!(b.run(fuel), RunOutcome::OutOfFuel);
            assert_eq!(a.stats.guest_dyn(), b.stats.guest_dyn(), "fuel={fuel}");
            assert_eq!(a.stats.exec.host_instrs, b.stats.exec.host_instrs, "fuel={fuel}");
            assert_eq!(a.guest_reg(ArmReg::R0), b.guest_reg(ArmReg::R0), "fuel={fuel}");
        }
    }

    #[test]
    fn superblocks_form_and_match_plain_accounting() {
        let image = build_arm_image(LOOPY, &Options::o2()).unwrap();
        let mut sb =
            Engine::new(&image, Translator::Tcg).with_chaining(true).with_superblocks(Some(4));
        assert_eq!(sb.run(50_000_000), RunOutcome::Halted);
        let mut plain =
            Engine::new(&image, Translator::Tcg).with_chaining(true).with_superblocks(None);
        assert_eq!(plain.run(50_000_000), RunOutcome::Halted);
        // Regions actually formed and ran. (None need survive to the
        // end: translating the loop's cold exit path re-patches a member
        // and invalidates, which is the protocol working as designed.)
        assert!(sb.stats.sb_formed() > 0, "hot chain crossed the threshold");
        assert!(sb.stats.sb_execs() > 0, "region parts executed");
        assert_eq!(plain.stats.sb_formed(), 0);
        assert_eq!(plain.stats.sb_execs(), 0);
        // Architectural state and accounting are bit-identical; only the
        // host instruction count shrinks.
        for r in ArmReg::ALL {
            assert_eq!(sb.guest_reg(r), plain.guest_reg(r), "{r:?}");
        }
        assert_eq!(
            sb.state.mem.first_difference(&plain.state.mem, |_| false),
            None,
            "guest memory identical"
        );
        assert_eq!(sb.stats.guest_dyn(), plain.stats.guest_dyn());
        assert_eq!(sb.stats.guest_dyn_covered(), plain.stats.guest_dyn_covered());
        assert_eq!(sb.stats.block_execs(), plain.stats.block_execs());
        assert_eq!(sb.stats.chained_execs(), plain.stats.chained_execs());
        assert_eq!(sb.stats.ibtc_hits(), plain.stats.ibtc_hits());
        assert_eq!(sb.stats.ibtc_misses(), plain.stats.ibtc_misses());
        assert_eq!(sb.stats.blocks(), plain.stats.blocks());
        assert!(
            sb.stats.exec.host_instrs <= plain.stats.exec.host_instrs,
            "regions never add host work: {} vs {}",
            sb.stats.exec.host_instrs,
            plain.stats.exec.host_instrs
        );
    }

    /// A trap inside a register-allocated region leaves the guest
    /// registers in their env homes, with the pins resident (r4 and r5
    /// live in pinned host registers across the A → B seam) and on every
    /// trip: an `svc` through the writeback stub before it, a wild store
    /// through the engine, which no stub precedes.
    #[test]
    fn trap_inside_allocated_region_keeps_guest_registers() {
        use ldbt_arm::{AddrMode, ArmMachine, ArmStop, ArmTrapCause, Cond, DpOp, Operand2};
        use ldbt_compiler::link::CODE_BASE;
        use ArmReg::{R4, R5, R6};
        let add = |rd, op2| ArmInstr::dp(DpOp::Add, rd, rd, op2);
        let (a_pc, trap_pc, wild) = (CODE_BASE + 4 * 2, CODE_BASE + 4 * 5, GUEST_MEM_LIMIT);
        for (trap, want, got) in [
            (ArmInstr::Svc { imm: 1, cond: Cond::Al }, ArmTrapCause::Svc(1), TrapKind::Svc(1)),
            (ArmInstr::str(R6, AddrMode::Imm(R6, 0)), ArmTrapCause::Mem(wild), TrapKind::Mem(wild)),
        ] {
            let prog = [
                /* 0 */ ArmInstr::mov(R4, Operand2::Imm(0)),
                /* 1 */ ArmInstr::mov(R5, Operand2::Imm(0)),
                /* 2: A */ add(R4, Operand2::Imm(1)),
                /* 3 */ add(R5, Operand2::Reg(R4)),
                /* 4 */ ArmInstr::B { offset: 0, cond: Cond::Al },
                /* 5: B */ trap,
                /* 6 */ ArmInstr::Svc { imm: 0, cond: Cond::Al },
            ];
            let image = ArmImage {
                bytes: ldbt_arm::encode::assemble(&prog).unwrap(),
                base: CODE_BASE,
                entry: CODE_BASE,
                func_addrs: Vec::new(),
                meta: Vec::new(),
                globals: Vec::new(),
            };
            let mut m = ArmMachine::new();
            image.load_into(&mut m.state.mem);
            (m.state.regs[15], m.state.regs[6], m.state.trap_limit) =
                (image.entry, wild, Some(wild));
            let mut e =
                Engine::new(&image, Translator::Tcg).with_chaining(true).with_superblocks(Some(2));
            e.set_guest_reg(R6, wild);
            for trip in 0..30 {
                assert_eq!(m.run(1_000), ArmStop::Trap { pc: trap_pc, cause: want });
                assert_eq!(e.run(1_000_000), RunOutcome::Trap { pc: trap_pc, cause: got });
                for r in &ArmReg::ALL[..15] {
                    assert_eq!(e.guest_reg(*r), m.state.reg(*r), "{r:?} on trip {trip}");
                }
                // The handler sends the guest around again: back to A,
                // which heads the region once it is hot.
                m.state.regs[15] = a_pc;
                e.set_guest_pc(a_pc);
            }
            assert!(e.stats.sb_execs() > 0 && e.stats.ra_promoted() > 0, "the trap ran pinned");
        }
    }

    #[test]
    fn superblock_region_survives_self_loop_and_halts() {
        // A one-block countdown loop unrolls into a self-loop region; it
        // must still terminate with the right result.
        let src = "int main() { int s = 100000; while (s > 0) { s -= 1; } return s; }";
        let image = build_arm_image(src, &Options::o2()).unwrap();
        let mut e =
            Engine::new(&image, Translator::Tcg).with_chaining(true).with_superblocks(Some(2));
        assert_eq!(e.run(50_000_000), RunOutcome::Halted);
        assert_eq!(e.guest_reg(ArmReg::R0), 0);
        assert!(e.stats.sb_formed() > 0);
        assert!(e.stats.sb_execs() > 0);
    }
}
