//! The translation cache: the block arena, chain links and pending
//! back-patches, the indirect-branch target cache, guest ranges and
//! checksums, code-page marks and superblock regions — behind one API.
//!
//! Translated blocks live in an append-only arena keyed by a stable block
//! id; a `pc → id` map backs the slow dispatcher path and a small
//! direct-mapped `pc → id` table (QEMU's `lookup_tb_ptr` analog) sits in
//! front of it. When a block's exit stub (`movl $pc, %eax; ret`) targets
//! an already-translated block, the `ret` is patched into
//! [`X86Instr::ChainJmp`]; every link is recorded on *both* ends so an
//! invalidation can unlink predecessors and fall back to the dispatcher.
//!
//! The only mutation verbs are [`CodeCache::insert`],
//! [`CodeCache::install_region`] and [`CodeCache::invalidate`]. Everything
//! else hands out shared references, so the invariants listed on
//! [`CodeCache::check`] can only be broken — or restored — in this file.

use crate::sb::{ra_preamble, SbPart, Superblock, NO_SB, SB_MAX_PARTS};
use crate::stats::{BlockProfile, DbtCtr, DbtStats, ExecProfile, RuleProfile};
use ldbt_isa::{Memory, Width};
use ldbt_obs::registry::Hist;
use ldbt_x86::{Gpr, X86Instr};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

/// Number of entries in the direct-mapped indirect-branch target cache.
const IBTC_SIZE: usize = 1024;
/// Empty IBTC slot / "no block" sentinel (arena ids stay well below).
const NO_BLOCK: u32 = u32::MAX;

/// The one IBTC slot a pc can ever occupy.
#[inline]
fn ibtc_slot(pc: u32) -> usize {
    ((pc >> 2) as usize) & (IBTC_SIZE - 1)
}

/// Why translations are being invalidated (carried on the `purge` trace
/// event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InvalidateReason {
    /// The watchdog tombstoned a rule the block applied.
    Quarantine,
    /// A rule the block applied was repaired and republished.
    Repair,
    /// An adopted foreign generation changed a rule the block applied.
    Adoption,
    /// A guest store overlapped the block's guest bytes.
    Smc,
    /// Reset-time revalidation found the block's guest bytes changed.
    Reset,
}

impl InvalidateReason {
    fn name(self) -> &'static str {
        match self {
            InvalidateReason::Quarantine => "quarantine",
            InvalidateReason::Repair => "repair",
            InvalidateReason::Adoption => "adoption",
            InvalidateReason::Smc => "smc",
            InvalidateReason::Reset => "reset",
        }
    }
}

/// One translated block in the code cache arena. Handed out by shared
/// reference only; the fields the executor reads are `pub(crate)`, the
/// link and coherence bookkeeping is private to this module.
pub(crate) struct CachedBlock {
    /// Guest start PC.
    pub(crate) pc: u32,
    /// Byte length of the guest range this translation covers
    /// (`[pc, pc + guest_bytes)`); a guest store overlapping it
    /// invalidates the block. The trap and helper blocks cover the one
    /// word they decoded (or failed to), so this is never zero.
    guest_bytes: u32,
    /// FNV-1a fingerprint of the guest bytes at translation time;
    /// [`CodeCache::stale`] revalidates against it.
    csum: u64,
    pub(crate) code: Rc<Vec<X86Instr>>,
    pub(crate) guest_len: u64,
    pub(crate) covered: u64,
    pub(crate) execs: u64,
    /// Interpret exactly one guest instruction instead of running code.
    pub(crate) interp_one: bool,
    /// (length, stable rule key) of each rule application, shared with
    /// the watchdog without per-dispatch cloning.
    pub(crate) hits: Rc<[(usize, u64)]>,
    /// Patchable exit stubs: (index of the `ret`, direct-branch target).
    exits: Vec<(usize, u32)>,
    /// Outgoing chained links: (exit site, successor id).
    links_out: Vec<(usize, u32)>,
    /// Incoming chained links: (predecessor id, site in predecessor).
    links_in: Vec<(u32, usize)>,
    /// Invalidated; the arena slot is never reused.
    pub(crate) dead: bool,
    /// Region id of the live superblock this block heads, or
    /// [`NO_SB`]. Dispatching the block enters the region instead.
    pub(crate) sb_head: u32,
}

impl CachedBlock {
    /// A freshly translated, unlinked block covering `guest_len` guest
    /// instructions at `pc` (a trap block passes 0 and still covers the
    /// word it failed to decode).
    pub(crate) fn new(
        pc: u32,
        guest_len: u64,
        covered: u64,
        code: Vec<X86Instr>,
        hits: Vec<(usize, u64)>,
        exits: Vec<(usize, u32)>,
    ) -> CachedBlock {
        CachedBlock {
            pc,
            guest_bytes: 4 * guest_len.max(1) as u32,
            csum: 0,
            code: Rc::new(code),
            guest_len,
            covered,
            execs: 0,
            interp_one: false,
            hits: Rc::from(hits),
            exits,
            links_out: Vec::new(),
            links_in: Vec::new(),
            dead: false,
            sb_head: NO_SB,
        }
    }

    /// A block with no code: the interpreter helper executes its one
    /// guest instruction.
    pub(crate) fn helper(pc: u32) -> CachedBlock {
        CachedBlock {
            interp_one: true,
            ..CachedBlock::new(pc, 1, 0, Vec::new(), Vec::new(), Vec::new())
        }
    }

    /// Whether other blocks may chain into this one.
    fn chainable(&self) -> bool {
        !self.dead && !self.interp_one && !self.code.is_empty()
    }

    /// Whether `[start, end)` overlaps the block's guest byte range.
    fn overlaps(&self, start: u64, end: u64) -> bool {
        start < self.pc as u64 + self.guest_bytes as u64 && (self.pc as u64) < end
    }
}

/// FNV-1a over a guest byte range — the translation-time fingerprint
/// [`CodeCache::stale`] revalidates cached blocks against.
fn guest_csum(mem: &Memory, start: u32, len: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..len {
        let b = mem.read(start.wrapping_add(i), Width::W8) as u64;
        h = (h ^ b).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The code cache. See the module docs for the structure and
/// [`CodeCache::check`] for the invariants.
#[derive(Default)]
pub(crate) struct CodeCache {
    /// Block arena; ids are indices and never reused.
    blocks: Vec<CachedBlock>,
    /// Slow-path dispatch map: guest pc → block id.
    map: HashMap<u32, u32>,
    /// Direct-mapped indirect-branch target cache: `(pc, id)` entries.
    ibtc: Vec<(u32, u32)>,
    /// Unresolved direct-branch exits waiting for their target to be
    /// translated: target pc → (block id, exit site).
    pending: HashMap<u32, Vec<(u32, usize)>>,
    /// Superblock region arena; ids are indices and never reused.
    superblocks: Vec<Superblock>,
    /// Block id → regions it is a member of (for invalidation when the
    /// block is purged or its code is re-patched).
    sb_members: HashMap<u32, Vec<u32>>,
    /// Block chaining enabled (`!LDBT_NOCHAIN`). A knob, not state: the
    /// builders set it before the first insert.
    pub(crate) chaining: bool,
    /// SMC protection enabled (`!LDBT_NOSMC`): inserted blocks mark
    /// their guest pages so stores into them are logged. A knob, too.
    pub(crate) smc: bool,
}

impl CodeCache {
    pub(crate) fn new(chaining: bool, smc: bool) -> CodeCache {
        CodeCache { ibtc: vec![(0, NO_BLOCK); IBTC_SIZE], chaining, smc, ..Default::default() }
    }

    /// The block with arena id `id` (a direct slice index).
    #[inline]
    pub(crate) fn block(&self, id: u32) -> &CachedBlock {
        &self.blocks[id as usize]
    }

    /// Count one execution of block `id` and return it.
    #[inline]
    pub(crate) fn enter(&mut self, id: u32) -> &CachedBlock {
        let b = &mut self.blocks[id as usize];
        b.execs += 1;
        b
    }

    /// The region with arena id `rid`.
    #[inline]
    pub(crate) fn region(&self, rid: u32) -> &Superblock {
        &self.superblocks[rid as usize]
    }

    /// The live block translated from `pc`, if any (no counters move).
    pub(crate) fn at(&self, pc: u32) -> Option<u32> {
        self.map.get(&pc).copied()
    }

    /// Dispatcher lookup: IBTC first, then the map. `None` means the pc
    /// needs translating (and [`CodeCache::insert`]ing).
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32, stats: &DbtStats) -> Option<u32> {
        let (epc, eid) = self.ibtc[ibtc_slot(pc)];
        // A hit must also be live: `invalidate` scrubs the IBTC, but
        // the dispatcher is the last line of defense — dispatching a
        // tombstoned block would run empty code and fault the guest, so
        // the liveness check is enforced here, not debug-asserted.
        if epc == pc && eid != NO_BLOCK && !self.blocks[eid as usize].dead {
            stats.bump(DbtCtr::IbtcHits);
            return Some(eid);
        }
        stats.bump(DbtCtr::IbtcMisses);
        let id = self.at(pc)?;
        self.fill_ibtc(pc, id);
        Some(id)
    }

    fn fill_ibtc(&mut self, pc: u32, id: u32) {
        let slot = ibtc_slot(pc);
        let (epc, eid) = self.ibtc[slot];
        if epc != pc && eid != NO_BLOCK {
            exec_event!("ibtc_evict", slot = slot, old_pc = epc, new_pc = pc);
        }
        self.ibtc[slot] = (pc, id);
    }

    /// Patch predecessor `pred`'s exit `site` into a chained jump to
    /// `succ`, recording the link on both ends.
    ///
    /// Only sites listed in the predecessor's `exits` — declared by the
    /// lowerer when it emitted the stub — are ever patched. The cache
    /// never infers exits from code shape: a `movl $imm, %eax; ret`
    /// lookalike in a rule or JIT body must not become a `ChainJmp`.
    fn patch_link(&mut self, pred: u32, site: usize, succ: u32, stats: &DbtStats) {
        // The predecessor's code is about to change: any region holding a
        // clone of it would go stale (its copy would still `ret` to the
        // dispatcher where the original now chains, diverging the chain
        // accounting), so those regions are invalidated and re-form later.
        self.invalidate_regions_of(pred, stats);
        let code = Rc::make_mut(&mut self.blocks[pred as usize].code);
        debug_assert!(matches!(code[site], X86Instr::Ret), "link site must be an unpatched ret");
        code[site] = X86Instr::ChainJmp { block: succ };
        self.blocks[pred as usize].links_out.push((site, succ));
        self.blocks[succ as usize].links_in.push((pred, site));
        stats.bump(DbtCtr::ChainLinks);
        exec_event!(
            "chain_link",
            pred_pc = self.blocks[pred as usize].pc,
            succ_pc = self.blocks[succ as usize].pc,
            site = site
        );
    }

    /// Insert a freshly translated block into the arena: fingerprint and
    /// mark its guest bytes in `mem`, enter it in the dispatch map and
    /// the IBTC and, with chaining enabled, link it to
    /// already-translated neighbors in both directions.
    pub(crate) fn insert(
        &mut self,
        mut block: CachedBlock,
        mem: &mut Memory,
        stats: &DbtStats,
    ) -> u32 {
        let pc = block.pc;
        block.csum = guest_csum(mem, pc, block.guest_bytes);
        // Mark the pages holding the translated bytes so the store
        // fast path reports writes into them (SMC protection).
        if self.smc {
            mem.mark_code(pc, block.guest_bytes);
        }
        debug_assert!(
            block.exits.iter().all(|&(at, _)| matches!(block.code.get(at), Some(X86Instr::Ret))),
            "declared exits must point at ret stubs"
        );
        #[cfg(debug_assertions)]
        {
            // Blocks must start from the env: reading any host register
            // (beyond %esp) or EFLAGS before writing it would make block
            // behavior depend on unspecified entry state — and would
            // break the superblock optimizer's scratch assumption (see
            // `sb::entry_reads`).
            let (regs, flags) = crate::sb::entry_reads(&block.code);
            debug_assert!(
                regs & !(1 << Gpr::Esp.index()) == 0 && flags == 0,
                "block at {pc:#x} reads host entry state (regs {regs:#010b}, flags {flags:#06b})"
            );
        }
        let id = self.blocks.len() as u32;
        self.blocks.push(block);
        self.map.insert(pc, id);
        if self.chaining {
            // Predecessors waiting for this pc.
            if self.blocks[id as usize].chainable() {
                for (pred, site) in self.pending.remove(&pc).unwrap_or_default() {
                    if !self.blocks[pred as usize].dead {
                        self.patch_link(pred, site, id, stats);
                    }
                }
            }
            // This block's own direct exits.
            let exits = self.blocks[id as usize].exits.clone();
            for (site, target) in exits {
                match self.map.get(&target) {
                    Some(&tid) if self.blocks[tid as usize].chainable() => {
                        self.patch_link(id, site, tid, stats);
                    }
                    _ => self.pending.entry(target).or_default().push((id, site)),
                }
            }
        }
        self.fill_ibtc(pc, id);
        debug_assert_eq!(self.check(mem), Ok(()));
        id
    }

    /// Live blocks applying any rule in `keys`.
    pub(crate) fn hitting(&self, keys: &HashSet<u64>) -> Vec<u32> {
        self.select(|b| b.hits.iter().any(|(_, k)| keys.contains(k)))
    }

    /// Live blocks whose guest byte range a logged `(addr, len)` store
    /// span overlaps. The protection bitmap is page-granular and sticky,
    /// so a logged span is only a *candidate*; the exact range check
    /// here drops stores that merely landed near code.
    pub(crate) fn overlapping(&self, spans: &[(u32, u32)]) -> Vec<u32> {
        self.select(|b| spans.iter().any(|&(s, l)| b.overlaps(s as u64, s as u64 + l as u64)))
    }

    /// Live blocks whose guest bytes in `mem` no longer match the
    /// checksum recorded at translation time.
    pub(crate) fn stale(&self, mem: &Memory) -> Vec<u32> {
        self.select(|b| guest_csum(mem, b.pc, b.guest_bytes) != b.csum)
    }

    /// Ids of the live blocks satisfying `pred`, ascending.
    fn select(&self, pred: impl Fn(&CachedBlock) -> bool) -> Vec<u32> {
        let live = self.blocks.iter().enumerate().filter(|(_, b)| !b.dead && pred(b));
        live.map(|(i, _)| i as u32).collect()
    }

    /// Stable keys of every rule application in a live block.
    pub(crate) fn hit_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().filter(|b| !b.dead).flat_map(|b| b.hits.iter().map(|&(_, k)| k))
    }

    /// Invalidate `victims` (already-dead ids are skipped): for each,
    /// kill the regions holding a clone of it, unlink chained
    /// predecessors (their exit stubs fall back to `ret` and re-queue as
    /// pending links, so a retranslation re-links them), detach from
    /// successors, drop the dispatch-map and IBTC entries, and tombstone
    /// the arena slot — the pc retranslates at its next dispatch.
    /// Coherence reasons (`Smc`, `Reset`) count as `smc_invalidations`.
    pub(crate) fn invalidate(
        &mut self,
        victims: &[u32],
        reason: InvalidateReason,
        mem: &Memory,
        stats: &DbtStats,
    ) {
        for &id in victims {
            if self.blocks[id as usize].dead {
                continue;
            }
            let pc = self.blocks[id as usize].pc;
            if matches!(reason, InvalidateReason::Smc | InvalidateReason::Reset) {
                stats.bump(DbtCtr::SmcInvalidations);
                exec_event!("smc_invalidate", pc = pc, id = id);
            }
            // Regions holding a clone of this block must die with it.
            self.invalidate_regions_of(id, stats);
            let links_in = std::mem::take(&mut self.blocks[id as usize].links_in);
            for (pred, site) in links_in {
                // Unlinking re-patches the predecessor's code, so its region
                // clones go stale too.
                self.invalidate_regions_of(pred, stats);
                let code = Rc::make_mut(&mut self.blocks[pred as usize].code);
                debug_assert!(matches!(code[site], X86Instr::ChainJmp { .. }));
                code[site] = X86Instr::Ret;
                self.blocks[pred as usize].links_out.retain(|&(s, t)| !(s == site && t == id));
                // The predecessor still branches to `pc`: let a future
                // retranslation re-link it.
                self.pending.entry(pc).or_default().push((pred, site));
                stats.bump(DbtCtr::ChainUnlinks);
                exec_event!(
                    "chain_unlink",
                    pred_pc = self.blocks[pred as usize].pc,
                    succ_pc = pc,
                    site = site
                );
            }
            let links_out = std::mem::take(&mut self.blocks[id as usize].links_out);
            for (site, succ) in links_out {
                self.blocks[succ as usize].links_in.retain(|&(p, s)| !(p == id && s == site));
            }
            // The victim's own unresolved exits (including a self-link
            // re-queued just above) must not wait on a dead block.
            for (_, target) in std::mem::take(&mut self.blocks[id as usize].exits) {
                if let Some(waiters) = self.pending.get_mut(&target) {
                    waiters.retain(|&(p, _)| p != id);
                }
            }
            if self.map.get(&pc) == Some(&id) {
                self.map.remove(&pc);
            }
            // `ibtc[slot]` is only ever written at `slot = ibtc_slot(pc)`,
            // so a block can only sit in its own pc's slot.
            let slot = ibtc_slot(pc);
            if self.ibtc[slot].1 == id {
                self.ibtc[slot] = (0, NO_BLOCK);
            }
            let b = &mut self.blocks[id as usize];
            b.dead = true;
            b.code = Rc::new(Vec::new());
            b.hits = Rc::from(Vec::new());
            exec_event!("purge", pc = pc, id = id, reason = reason.name());
        }
        debug_assert_eq!(self.check(mem), Ok(()));
    }

    /// Invalidate every region block `bid` is a member of: the region
    /// goes dead, the head's dispatch redirect is removed, and the other
    /// members forget the region. Called whenever `bid`'s code is purged
    /// or re-patched (the region holds clones of it). The head re-forms
    /// a fresh region — without any purged member — the next time it
    /// crosses the formation threshold.
    fn invalidate_regions_of(&mut self, bid: u32, stats: &DbtStats) {
        let Some(rids) = self.sb_members.remove(&bid) else { return };
        for rid in rids {
            let sb = &mut self.superblocks[rid as usize];
            sb.dead = true;
            let head = sb.head;
            // Drop the cloned code; dead regions are never entered again.
            let parts = std::mem::take(&mut sb.parts);
            self.blocks[head as usize].sb_head = NO_SB;
            for m in parts.iter().map(|p| p.id).filter(|&m| m != bid) {
                if let Some(v) = self.sb_members.get_mut(&m) {
                    v.retain(|&r| r != rid);
                    if v.is_empty() {
                        self.sb_members.remove(&m);
                    }
                }
            }
            stats.bump(DbtCtr::SbInvalidated);
            exec_event!(
                "sb_invalidate",
                head_pc = self.blocks[head as usize].pc,
                region = rid,
                member_pc = self.blocks[bid as usize].pc
            );
        }
    }

    /// The hot chain through block `head`, as region-formation input:
    /// follow the hottest chained successor from each block (up to
    /// [`SB_MAX_PARTS`]; revisits are allowed, so a self-loop unrolls).
    /// `None` when `head` already heads a region, cannot be chained
    /// into, or has no chained successor.
    pub(crate) fn hot_path(&self, head: u32) -> Option<Vec<u32>> {
        if self.blocks[head as usize].sb_head != NO_SB || !self.blocks[head as usize].chainable() {
            return None;
        }
        // Hottest chainable successor; ties break to the smaller id
        // so formation is deterministic.
        let hottest = |bid: u32| {
            let succs = self.blocks[bid as usize].links_out.iter().map(|&(_, succ)| succ);
            succs
                .filter(|&s| self.blocks[s as usize].chainable())
                .max_by_key(|&s| (self.blocks[s as usize].execs, std::cmp::Reverse(s)))
        };
        let mut path: Vec<u32> = vec![head];
        while path.len() < SB_MAX_PARTS {
            match hottest(path[path.len() - 1]) {
                Some(n) => path.push(n),
                None => break,
            }
        }
        if path.len() < 2 {
            return None;
        }
        // Prefer a path whose final chain target is the head: the
        // backedge then stays resident (the pinned registers live around
        // the loop) instead of paying writeback stubs plus the entry
        // preamble on every traversal. The walk unrolls the loop up to
        // SB_MAX_PARTS, which rarely lands on a whole number of cycles —
        // truncate back to the last revisit of the head so it does. The
        // dropped tail parts lose nothing: execution reaches them again
        // on the next resident trip around the region.
        if hottest(path[path.len() - 1]) != Some(head) {
            if let Some(cut) = (2..path.len()).rev().find(|&i| path[i] == head) {
                path.truncate(cut);
            }
        }
        Some(path)
    }

    /// Install a formed region over its parts' blocks: the head block's
    /// dispatch now enters the region, and every member remembers it so
    /// that invalidating or re-patching the member kills the region.
    /// `cost` is what formation took, for the `sb_form` event: the host
    /// instructions of the member blocks it started from and, when exec
    /// tracing is on (the engine reads no clock otherwise), when it began.
    pub(crate) fn install_region(
        &mut self,
        parts: Vec<SbPart>,
        ra: Vec<(u8, Gpr)>,
        cost: (usize, Option<Instant>),
        stats: &DbtStats,
    ) {
        let rid = self.superblocks.len() as u32;
        let head = parts[0].id;
        for part in &parts {
            let rids = self.sb_members.entry(part.id).or_default();
            if !rids.contains(&rid) {
                rids.push(rid);
            }
        }
        self.blocks[head as usize].sb_head = rid;
        exec_event!(
            "sb_form",
            head_pc = self.blocks[head as usize].pc,
            region = rid,
            parts = parts.len(),
            dur_us = cost.1.map_or(0, |t0| t0.elapsed().as_micros() as u64),
            host_instrs_in = cost.0,
            host_instrs_out = parts.iter().map(|p| p.code.len()).sum::<usize>()
        );
        let preamble = Rc::new(ra_preamble(&ra));
        self.superblocks.push(Superblock { head, parts, ra: ra.into(), preamble, dead: false });
        stats.bump(DbtCtr::SbFormed);
    }

    /// Number of live translated blocks.
    pub(crate) fn live_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.dead).count()
    }

    /// Number of chained (patched) block-to-block links currently live.
    pub(crate) fn live_links(&self) -> usize {
        self.blocks.iter().filter(|b| !b.dead).map(|b| b.links_out.len()).sum()
    }

    /// Number of live superblock regions.
    pub(crate) fn live_regions(&self) -> usize {
        self.superblocks.iter().filter(|s| !s.dead).count()
    }

    /// Execution-hotness and rule-attribution profile of the live
    /// blocks; purged blocks drop out of the attribution with their
    /// cleared `hits`.
    pub(crate) fn profile(&self) -> ExecProfile {
        let mut rules: BTreeMap<u64, RuleProfile> = BTreeMap::new();
        let mut hot: Vec<BlockProfile> = Vec::new();
        let hist = Hist::new();
        for b in self.blocks.iter().filter(|b| !b.dead) {
            hist.record(b.execs);
            hot.push(BlockProfile {
                pc: b.pc,
                execs: b.execs,
                guest_len: b.guest_len,
                covered: b.covered,
            });
            for &(len, key) in b.hits.iter() {
                let r = rules.entry(key).or_insert(RuleProfile { key, len, blocks: 0, execs: 0 });
                r.blocks += 1;
                r.execs += b.execs;
            }
        }
        hot.sort_by(|a, b| b.execs.cmp(&a.execs).then(a.pc.cmp(&b.pc)));
        hot.truncate(ExecProfile::HOT_BLOCKS);
        ExecProfile {
            rules: rules.into_values().collect(),
            hot_blocks: hot,
            hotness: hist.snapshot(),
        }
    }

    /// Check the cache invariants, reporting the first violation:
    ///
    /// 1. chain links are two-way consistent between live blocks, every
    ///    `links_out` site is a `ChainJmp` to that successor, and every
    ///    `exits` and `pending` site is an unpatched `Ret` or a link;
    /// 2. no dispatch-map, IBTC, `pending`, region or `sb_members` entry
    ///    names a dead block (an IBTC or map entry also names the block
    ///    translated from that pc);
    /// 3. with SMC protection on, every live block's guest pages are
    ///    marked in `mem`;
    /// 4. `sb_head` names a live region headed by that block, live
    ///    regions are headed that way, and `sb_members` lists exactly
    ///    the live regions' members.
    pub(crate) fn check(&self, mem: &Memory) -> Result<(), String> {
        let live = |id: u32| self.blocks.get(id as usize).is_some_and(|b| !b.dead);
        let ensure = |ok: bool, what: &str, id: u32| {
            ok.then_some(()).ok_or_else(|| format!("code cache: {what} (id {id})"))
        };
        for (id, b) in (0u32..).zip(&self.blocks) {
            if b.dead {
                let bare = b.links_in.is_empty() && b.links_out.is_empty() && b.code.is_empty();
                ensure(bare && b.sb_head == NO_SB, "dead block keeps links, code or a region", id)?;
                continue;
            }
            for &(site, succ) in &b.links_out {
                let jmp = b.code.get(site) == Some(&X86Instr::ChainJmp { block: succ });
                ensure(jmp && live(succ), "link site is not a jump to a live successor", id)?;
                let back = self.blocks[succ as usize].links_in.contains(&(id, site));
                ensure(back, "outgoing link is not recorded on its successor", id)?;
            }
            for &(pred, site) in &b.links_in {
                let fwd = live(pred) && self.blocks[pred as usize].links_out.contains(&(site, id));
                ensure(fwd, "incoming link is not recorded on a live predecessor", id)?;
            }
            for &(site, _) in &b.exits {
                let linked = b.links_out.iter().any(|&(s, _)| s == site);
                let ret = b.code.get(site) == Some(&X86Instr::Ret);
                ensure(linked != ret, "exit site is neither an unpatched ret nor a link", id)?;
            }
            ensure(!self.smc || mem.code_marked(b.pc, b.guest_bytes), "guest pages unmarked", id)?;
            let headed = self.superblocks.get(b.sb_head as usize).is_some_and(|sb| sb.head == id);
            ensure(b.sb_head == NO_SB || headed, "sb_head names a region headed elsewhere", id)?;
        }
        for (&pc, &id) in &self.map {
            ensure(
                live(id) && self.blocks[id as usize].pc == pc,
                "map entry dead or misfiled",
                id,
            )?;
        }
        for (slot, &(pc, id)) in self.ibtc.iter().enumerate().filter(|(_, e)| e.1 != NO_BLOCK) {
            let filed = live(id) && self.blocks[id as usize].pc == pc && ibtc_slot(pc) == slot;
            ensure(filed, "IBTC entry dead or misfiled", id)?;
        }
        for &(pred, site) in self.pending.values().flatten() {
            let ret = live(pred) && self.blocks[pred as usize].code[site] == X86Instr::Ret;
            ensure(ret, "pending site is not a ret in a live block", pred)?;
        }
        for (rid, sb) in (0u32..).zip(&self.superblocks) {
            let head = &self.blocks[sb.head as usize];
            ensure(sb.dead == (head.sb_head != rid), "region and its head disagree", rid)?;
            for p in &sb.parts {
                let member = self.sb_members.get(&p.id).is_some_and(|v| v.contains(&rid));
                ensure(live(p.id) && member, "region part is dead or unregistered", rid)?;
            }
        }
        for (&bid, rids) in &self.sb_members {
            let part_of = |&r: &u32| self.superblocks[r as usize].parts.iter().any(|p| p.id == bid);
            ensure(live(bid) && rids.iter().all(part_of), "sb_members names a stranger", bid)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty cache over an empty guest memory.
    fn fixture(chaining: bool) -> (CodeCache, Memory, DbtStats) {
        (CodeCache::new(chaining, true), Memory::new(), DbtStats::new())
    }

    /// A synthetic non-exit block for chaining tests: code that *looks
    /// like* an exit stub (`mov $imm, %eax; ret` — e.g. a constant-folded
    /// indirect branch) but declares no patchable exits.
    fn mov_ret_block(pc: u32, target: u32, exits: Vec<(usize, u32)>) -> CachedBlock {
        let code = vec![X86Instr::mov_imm(Gpr::Eax, target as i32), X86Instr::Ret];
        CachedBlock::new(pc, 1, 0, code, Vec::new(), exits)
    }

    /// The dispatcher's lookup-or-translate, with a synthetic translator.
    fn dispatch(c: &mut CodeCache, mem: &mut Memory, stats: &DbtStats, pc: u32) -> u32 {
        match c.lookup(pc, stats) {
            Some(id) => id,
            None => c.insert(mov_ret_block(pc, pc, Vec::new()), mem, stats),
        }
    }

    #[test]
    fn purging_a_member_invalidates_the_region() {
        let (mut c, mut mem, stats) = fixture(true);
        // A two-block loop a → b → a over declared exits, so both link
        // and the hot path through `a` unrolls around it.
        let a = c.insert(mov_ret_block(0x1000, 0x2000, vec![(1, 0x2000)]), &mut mem, &stats);
        let b = c.insert(mov_ret_block(0x2000, 0x1000, vec![(1, 0x1000)]), &mut mem, &stats);
        let path = c.hot_path(a).expect("a chains into b");
        assert_eq!(path[..3], [a, b, a]);
        let part =
            |&id: &u32| SbPart { id, code: Rc::clone(&c.block(id).code), fallthrough_seam: false };
        let parts: Vec<SbPart> = path.iter().map(part).collect();
        c.install_region(parts, Vec::new(), (0, None), &stats);
        assert_eq!(c.live_regions(), 1);
        assert_eq!(c.check(&mem), Ok(()));
        let rid = c.block(a).sb_head;
        // Purge a block that is a member of the live region.
        c.invalidate(&[b], InvalidateReason::Quarantine, &mem, &stats);
        assert!(c.region(rid).dead, "region died with its member");
        assert_eq!(c.block(a).sb_head, NO_SB, "head redirect removed");
        assert_eq!(stats.sb_invalidated(), 1);
        assert!(c.region(rid).parts.is_empty(), "dead region dropped its code clones");
        assert!(c.sb_members.is_empty(), "no member remembers the dead region");
        // The surviving predecessor fell back to a `ret` that waits for
        // a retranslation of the purged pc.
        assert!(matches!(c.block(a).code[1], X86Instr::Ret));
        assert_eq!(c.pending[&0x2000], vec![(a, 1)]);
    }

    #[test]
    fn literal_mov_ret_is_not_a_patchable_exit() {
        // Regression: the engine used to pattern-match any
        // `mov $imm32, %eax; ret` pair as a chainable direct exit, which
        // would silently mis-patch a coincidental literal in rule- or
        // JIT-emitted code into a ChainJmp. Exits are now declared by the
        // lowerer; an undeclared lookalike must stay a plain `ret`.
        let (mut c, mut mem, stats) = fixture(true);
        let target_pc = 0x1000;
        let tid = dispatch(&mut c, &mut mem, &stats, target_pc);
        let amb = c.insert(mov_ret_block(0x0900_0000, target_pc, Vec::new()), &mut mem, &stats);
        assert!(
            c.block(amb).links_out.is_empty(),
            "undeclared mov/ret lookalike must not be linked"
        );
        assert!(matches!(c.block(amb).code[1], X86Instr::Ret));
        // Control: an identical block that *declares* the exit chains.
        let decl = mov_ret_block(0x0a00_0000, target_pc, vec![(1, target_pc)]);
        let decl = c.insert(decl, &mut mem, &stats);
        assert_eq!(c.block(decl).links_out, vec![(1, tid)]);
        assert!(matches!(c.block(decl).code[1], X86Instr::ChainJmp { block } if block == tid));
    }

    #[test]
    fn ibtc_never_dispatches_a_purged_block() {
        // Regression: translate → purge → re-dispatch at a pc whose IBTC
        // slot still names the purged entry. The purge scrubs the IBTC,
        // and — the release-build invariant this test pins — even a stale
        // slot that survived (the bug used to be a debug_assert only)
        // must not dispatch a tombstoned block.
        let (mut c, mut mem, stats) = fixture(true);
        let pc = 0x1234 << 2;
        let id = dispatch(&mut c, &mut mem, &stats, pc);
        let slot = ibtc_slot(pc);
        assert_eq!(c.ibtc[slot], (pc, id), "a dispatch leaves an IBTC entry");
        c.invalidate(&[id], InvalidateReason::Smc, &mem, &stats);
        assert_eq!(c.ibtc[slot], (0, NO_BLOCK), "purge scrubs the block's own slot");
        // Adversarially resurrect the stale entry, as a missed scrub
        // would leave it, then re-dispatch at the same pc.
        c.ibtc[slot] = (pc, id);
        let fresh = dispatch(&mut c, &mut mem, &stats, pc);
        assert_ne!(fresh, id, "dead block must not be served from the IBTC");
        assert!(!c.block(fresh).dead);
        assert_eq!(c.block(fresh).pc, pc);
        assert_eq!(c.ibtc[slot], (pc, fresh), "stale entry replaced on miss");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// IBTC slot aliasing: pcs `IBTC_SIZE*4` apart map to the same
        /// direct-mapped slot; repeated dispatches of both must round-trip
        /// to their own blocks without cross-contamination, chained and
        /// unchained.
        #[test]
        fn ibtc_slot_aliasing_round_trips(
            base in 0u32..1024,
            k in 1u32..8,
            chained in proptest::prelude::any::<bool>(),
        ) {
            let (mut c, mut mem, stats) = fixture(chained);
            let pc_a = 0x0100_0000 + base * 4;
            let pc_b = pc_a + k * (IBTC_SIZE as u32) * 4;
            proptest::prop_assert_eq!(ibtc_slot(pc_a), ibtc_slot(pc_b), "aliasing precondition");
            let a1 = dispatch(&mut c, &mut mem, &stats, pc_a);
            let b1 = dispatch(&mut c, &mut mem, &stats, pc_b);
            let a2 = dispatch(&mut c, &mut mem, &stats, pc_a);
            let b2 = dispatch(&mut c, &mut mem, &stats, pc_b);
            proptest::prop_assert_eq!(a1, a2, "pc_a round-trips");
            proptest::prop_assert_eq!(b1, b2, "pc_b round-trips");
            proptest::prop_assert_ne!(a1, b1, "aliasing pcs get distinct blocks");
            proptest::prop_assert_eq!(c.block(a1).pc, pc_a);
            proptest::prop_assert_eq!(c.block(b1).pc, pc_b);
            // Purging one alias never scrubs the other's slot entry.
            c.invalidate(&[a1], InvalidateReason::Smc, &mem, &stats);
            proptest::prop_assert_eq!(c.ibtc[ibtc_slot(pc_b)], (pc_b, b1));
            proptest::prop_assert_eq!(c.check(&mem), Ok(()));
        }
    }
}
