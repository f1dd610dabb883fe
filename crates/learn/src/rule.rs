//! Parameterized translation rules and the rule store.

use crate::cache::sig_hash;
use crate::db::rule_bytes;
use ldbt_arm::{AddrMode, ArmInstr, ArmReg, Operand2};
use ldbt_x86::{Gpr, Operand, X86Instr, X86Mem};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

/// How a host immediate is derived from its guest parameter (paper §3.2's
/// "arithmetic/logical operations to accommodate the differences").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImmRel {
    /// Same value.
    Id,
    /// Additive inverse (`-imm000 ↦ imm100` in Figure 1).
    Neg,
    /// Bitwise complement.
    Not,
}

impl ImmRel {
    /// Apply the relation.
    pub fn apply(self, v: i64) -> i64 {
        match self {
            ImmRel::Id => v,
            ImmRel::Neg => v.wrapping_neg(),
            ImmRel::Not => !v,
        }
    }
}

/// Which immediate slot of an instruction a parameter occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImmSlot {
    /// A data immediate (`#imm`, `$imm`).
    Data,
    /// The displacement of a memory operand.
    MemOffset,
}

/// One parameterized immediate: a guest site and the host sites bound to
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImmParam {
    /// Guest instruction index and slot.
    pub guest_site: (usize, ImmSlot),
    /// Additional guest sites bound to the *same* parameter (e.g. the
    /// load and store displacements of a read-modify-write pattern);
    /// matching requires their actual values to agree.
    pub extra_guest_sites: Vec<(usize, ImmSlot)>,
    /// Template value at the guest site (for diagnostics).
    pub template_value: i64,
    /// Host sites receiving the (transformed) bound value.
    pub host_sites: Vec<(usize, ImmSlot, ImmRel)>,
}

/// A register/immediate binding produced by matching a rule against
/// concrete guest code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Binding {
    /// Template guest register → actual guest register, indexed by the
    /// template register's [`ArmReg::index`].
    pub regs: [Option<ArmReg>; 16],
    /// Bound value per immediate parameter (indexed like
    /// [`Rule::imm_params`]).
    pub imms: Vec<i64>,
}

impl Binding {
    /// The actual guest register bound to template register `t`.
    pub fn reg(&self, t: ArmReg) -> Option<ArmReg> {
        self.regs[t.index()]
    }

    /// Every bound actual guest register, in template-register order.
    pub fn actuals(&self) -> impl Iterator<Item = ArmReg> + '_ {
        self.regs.iter().flatten().copied()
    }
}

/// The immediate of `i` in `slot`, if it has one there.
fn imm_in(i: &ArmInstr, slot: ImmSlot) -> Option<i64> {
    match (*i, slot) {
        (ArmInstr::Dp { op2: Operand2::Imm(v), .. }, ImmSlot::Data) => Some(v as i64),
        (ArmInstr::Ldr { addr: AddrMode::Imm(_, off), .. }, ImmSlot::MemOffset)
        | (ArmInstr::Str { addr: AddrMode::Imm(_, off), .. }, ImmSlot::MemOffset) => {
            Some(off as i64)
        }
        _ => None,
    }
}

/// A learned, verified, parameterized translation rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The guest instruction template.
    pub guest: Vec<ArmInstr>,
    /// The host instruction template.
    pub host: Vec<X86Instr>,
    /// Host register → guest register correspondence (initial ∪ final
    /// mapping). Every register used by `host` appears here.
    pub host_reg_of: HashMap<Gpr, ArmReg>,
    /// Parameterized immediates.
    pub imm_params: Vec<ImmParam>,
    /// NZCV mask (N=8, Z=4, C=2, V=1) of guest flags the guest template
    /// writes but the host template does *not* emulate; the DBT refuses
    /// to apply the rule if any of these is live afterwards (paper §5).
    pub unemulated_flags: u8,
    /// Whether the rule ends with a (conditional) branch pair.
    pub has_branch: bool,
}

impl Rule {
    /// Rule length = number of guest instructions (Figure 12's metric).
    pub fn len(&self) -> usize {
        self.guest.len()
    }

    /// Whether the guest template is empty (never true for learned rules).
    pub fn is_empty(&self) -> bool {
        self.guest.is_empty()
    }

    /// The hash-table key: arithmetic mean of the guest opcode ids
    /// (paper §4).
    pub fn hash_key(&self) -> u32 {
        hash_key(&self.guest)
    }

    /// Try to match this rule against a concrete guest sequence.
    ///
    /// Registers unify up to a *bijective* renaming; immediates at
    /// parameterized sites bind, all others must match exactly; branch
    /// offsets are ignored (targets are re-resolved by the DBT). A miss
    /// allocates nothing.
    pub fn matches(&self, seq: &[ArmInstr]) -> Option<Binding> {
        if seq.len() != self.guest.len() {
            return None;
        }
        let mut regs = [None; 16];
        let mut taken = 0u16;
        let mut bind_reg = |t: ArmReg, a: ArmReg| -> bool {
            match regs[t.index()] {
                Some(prev) => prev == a,
                None if taken >> a.index() & 1 != 0 => false,
                None => {
                    regs[t.index()] = Some(a);
                    taken |= 1 << a.index();
                    true
                }
            }
        };
        // A parameter's value is the actual immediate at its primary
        // site; every other site it owns must agree with that one.
        let mut bind_imm = |idx: usize, slot: ImmSlot, tmpl: i64, actual: i64| -> bool {
            let site = (idx, slot);
            let owner = |p: &&ImmParam| p.guest_site == site || p.extra_guest_sites.contains(&site);
            match self.imm_params.iter().find(owner) {
                Some(p) if p.guest_site == site => true,
                Some(p) => imm_in(&seq[p.guest_site.0], p.guest_site.1) == Some(actual),
                None => tmpl == actual,
            }
        };
        for (idx, (t, a)) in self.guest.iter().zip(seq).enumerate() {
            match (*t, *a) {
                (
                    ArmInstr::Dp { op: to, rd: trd, rn: trn, op2: top2, set_flags: ts, cond: tc },
                    ArmInstr::Dp { op: ao, rd: ard, rn: arn, op2: aop2, set_flags: as_, cond: ac },
                ) => {
                    if to != ao || ts != as_ || tc != ac {
                        return None;
                    }
                    if !to.is_compare() && !bind_reg(trd, ard) {
                        return None;
                    }
                    if !to.is_move() && !bind_reg(trn, arn) {
                        return None;
                    }
                    match (top2, aop2) {
                        (Operand2::Imm(tv), Operand2::Imm(av)) => {
                            if !bind_imm(idx, ImmSlot::Data, tv as i64, av as i64) {
                                return None;
                            }
                        }
                        (Operand2::Reg(tr), Operand2::Reg(ar)) => {
                            if !bind_reg(tr, ar) {
                                return None;
                            }
                        }
                        (Operand2::RegShift(tr, tsh), Operand2::RegShift(ar, ash)) => {
                            if tsh != ash || !bind_reg(tr, ar) {
                                return None;
                            }
                        }
                        _ => return None,
                    }
                }
                (
                    ArmInstr::Mul { rd: trd, rn: trn, rm: trm, set_flags: ts, cond: tc },
                    ArmInstr::Mul { rd: ard, rn: arn, rm: arm, set_flags: as_, cond: ac },
                ) => {
                    if ts != as_ || tc != ac {
                        return None;
                    }
                    if !bind_reg(trd, ard) || !bind_reg(trn, arn) || !bind_reg(trm, arm) {
                        return None;
                    }
                }
                (
                    ArmInstr::Ldr { rt: trt, addr: ta, width: tw, signed: tsg, cond: tc },
                    ArmInstr::Ldr { rt: art, addr: aa, width: aw, signed: asg, cond: ac },
                ) => {
                    if tw != aw || tsg != asg || tc != ac || !bind_reg(trt, art) {
                        return None;
                    }
                    if !match_addr(idx, ta, aa, &mut bind_reg, &mut bind_imm) {
                        return None;
                    }
                }
                (
                    ArmInstr::Str { rt: trt, addr: ta, width: tw, cond: tc },
                    ArmInstr::Str { rt: art, addr: aa, width: aw, cond: ac },
                ) => {
                    if tw != aw || tc != ac || !bind_reg(trt, art) {
                        return None;
                    }
                    if !match_addr(idx, ta, aa, &mut bind_reg, &mut bind_imm) {
                        return None;
                    }
                }
                (ArmInstr::B { cond: tc, .. }, ArmInstr::B { cond: ac, .. }) => {
                    if tc != ac {
                        return None;
                    }
                }
                _ => return None,
            }
        }
        let imms = self.imm_params.iter();
        let imms = imms.map(|p| imm_in(&seq[p.guest_site.0], p.guest_site.1).unwrap_or(0));
        Some(Binding { regs, imms: imms.collect() })
    }

    /// Instantiate the host template under a binding.
    ///
    /// `host_reg_alloc` maps an *actual guest register* to the host
    /// register the DBT allocated for it. Branch targets are emitted as 0
    /// and patched by the DBT.
    ///
    /// # Panics
    ///
    /// Panics if the rule is malformed (a host register without a guest
    /// correspondence — excluded by construction in the verifier).
    pub fn instantiate(
        &self,
        binding: &Binding,
        mut host_reg_alloc: impl FnMut(ArmReg) -> Gpr,
    ) -> Vec<X86Instr> {
        let mut sub_reg = |h: Gpr| -> Gpr {
            let template_guest =
                self.host_reg_of.get(&h).copied().unwrap_or_else(|| {
                    panic!("host register {h} has no guest correspondence in rule")
                });
            let actual_guest = binding
                .reg(template_guest)
                .unwrap_or_else(|| panic!("guest template register {template_guest} unbound"));
            host_reg_alloc(actual_guest)
        };
        let imm_at = |idx: usize, slot: ImmSlot, template: i64| -> i64 {
            for (p, param) in self.imm_params.iter().enumerate() {
                for (hi, hslot, rel) in &param.host_sites {
                    if *hi == idx && *hslot == slot {
                        return rel.apply(binding.imms[p]);
                    }
                }
            }
            template
        };
        let mut out = Vec::with_capacity(self.host.len());
        for (idx, h) in self.host.iter().enumerate() {
            let sub_mem = |m: &X86Mem, sub_reg: &mut dyn FnMut(Gpr) -> Gpr| -> X86Mem {
                X86Mem {
                    base: m.base.map(&mut *sub_reg),
                    index: m.index.map(|(r, s)| (sub_reg(r), s)),
                    disp: imm_at(idx, ImmSlot::MemOffset, m.disp as i64) as i32,
                }
            };
            let sub_op = |o: &Operand, sub_reg: &mut dyn FnMut(Gpr) -> Gpr| -> Operand {
                match o {
                    Operand::Reg(r) => Operand::Reg(sub_reg(*r)),
                    Operand::Imm(v) => Operand::Imm(imm_at(idx, ImmSlot::Data, *v as i64) as i32),
                    Operand::Mem(m) => Operand::Mem(sub_mem(m, sub_reg)),
                }
            };
            let new = match h {
                X86Instr::Mov { dst, src } => {
                    X86Instr::Mov { dst: sub_op(dst, &mut sub_reg), src: sub_op(src, &mut sub_reg) }
                }
                X86Instr::Alu { op, dst, src } => X86Instr::Alu {
                    op: *op,
                    dst: sub_op(dst, &mut sub_reg),
                    src: sub_op(src, &mut sub_reg),
                },
                X86Instr::Lea { dst, addr } => {
                    X86Instr::Lea { dst: sub_reg(*dst), addr: sub_mem(addr, &mut sub_reg) }
                }
                X86Instr::Imul { dst, src } => {
                    X86Instr::Imul { dst: sub_reg(*dst), src: sub_op(src, &mut sub_reg) }
                }
                X86Instr::Shift { op, dst, count } => {
                    X86Instr::Shift { op: *op, dst: sub_op(dst, &mut sub_reg), count: *count }
                }
                X86Instr::Un { op, dst } => {
                    X86Instr::Un { op: *op, dst: sub_op(dst, &mut sub_reg) }
                }
                X86Instr::Movx { sign, width, dst, src } => X86Instr::Movx {
                    sign: *sign,
                    width: *width,
                    dst: sub_reg(*dst),
                    src: sub_op(src, &mut sub_reg),
                },
                X86Instr::MovStore { width, src, dst } => X86Instr::MovStore {
                    width: *width,
                    src: sub_reg(*src),
                    dst: sub_mem(dst, &mut sub_reg),
                },
                X86Instr::Setcc { cc, dst } => X86Instr::Setcc { cc: *cc, dst: sub_reg(*dst) },
                X86Instr::Jcc { cc, .. } => X86Instr::Jcc { cc: *cc, target: 0 },
                other => panic!("unexpected instruction in host template: {other}"),
            };
            out.push(new);
        }
        out
    }

    /// A canonical text key used for deduplication.
    pub fn dedup_key(&self) -> String {
        // Canonicalize register names through first-occurrence numbering.
        let mut names = [None; 16];
        let (mut canon, mut text) = (String::new(), String::new());
        for g in &self.guest {
            let mut regs: Vec<(String, ArmReg)> =
                guest_regs_of(g).into_iter().map(|r| (r.to_string(), r)).collect();
            // Longer names first so `r1` cannot corrupt `r12` in the text.
            regs.sort_by_key(|(name, _)| std::cmp::Reverse(name.len()));
            let subs: Vec<(String, Option<usize>)> =
                regs.into_iter().map(|(name, r)| (name, Some(number(&mut names, r)))).collect();
            text.clear();
            let _ = write!(text, "{g}");
            push_renamed(&mut canon, &text, "reg", &subs);
            canon.push(';');
        }
        canon.push('|');
        for (p, param) in self.imm_params.iter().enumerate() {
            let _ = write!(canon, "imm{p}@{:?};", param.guest_site);
        }
        canon
    }

    /// A stable 64-bit identity for quarantine bookkeeping.
    ///
    /// Hashes [`Rule::dedup_key`], so the key survives `RuleSet` clones,
    /// merges, and re-learning of the same rule — a tombstone laid down
    /// against one copy suppresses every equivalent copy. The hash is the
    /// crate's own FNV-1a, not std's unspecified `DefaultHasher`: keys
    /// are persisted in the rule database and printed in run reports, so
    /// they must not change with the toolchain.
    pub fn stable_key(&self) -> u64 {
        sig_hash(&self.dedup_key())
    }

    /// A complete canonical rendering of the rule.
    ///
    /// Extends [`Rule::dedup_key`] with the host side: host registers
    /// render through their guest correspondence using the same
    /// first-occurrence numbering, and the host immediate sites, flag
    /// mask, and branch marker are appended. Two rules compare equal
    /// only when they are interchangeable, and the rendering is
    /// independent of the concrete registers either rule was learned
    /// with — which makes it usable as the final, order-independent
    /// tie-break of [`RuleSet::insert`].
    pub fn canonical_text(&self) -> String {
        self.canonical_after(self.dedup_key())
    }

    /// [`Rule::canonical_text`] given the already rendered
    /// [`Rule::dedup_key`] it starts with.
    fn canonical_after(&self, mut canon: String) -> String {
        // Number guest registers by first occurrence — first across the
        // guest template (like `dedup_key`), then across the guest
        // correspondences of host-template registers, so even a register
        // that only appears on the host side gets a deterministic id.
        let mut names = [None; 16];
        for g in &self.guest {
            for r in guest_regs_of(g) {
                number(&mut names, r);
            }
        }
        for h in &self.host {
            for r in host_regs_of(h) {
                if let Some(g) = self.host_reg_of.get(&r) {
                    number(&mut names, *g);
                }
            }
        }
        canon.push('|');
        let mut text = String::new();
        for h in &self.host {
            let id = |r: &Gpr| self.host_reg_of.get(r).and_then(|g| names[g.index()]);
            let subs: Vec<(String, Option<usize>)> =
                host_regs_of(h).iter().map(|r| (r.to_string(), id(r))).collect();
            text.clear();
            let _ = write!(text, "{h}");
            push_renamed(&mut canon, &text, "hreg", &subs);
            canon.push(';');
        }
        canon.push('|');
        for p in &self.imm_params {
            let _ = write!(canon, "{:?};", p.host_sites);
        }
        let _ = write!(canon, "|f{:x}b{}", self.unemulated_flags, u8::from(self.has_branch));
        canon
    }
}

/// Number guest registers in order of first mention: `r`'s number in `ids`.
fn number(ids: &mut [Option<usize>; 16], r: ArmReg) -> usize {
    let seen = ids.iter().flatten().count();
    *ids[r.index()].get_or_insert(seen)
}

/// Append `text` to `out` with register names replaced: `subs` pairs a
/// name with its canonical number, printed after `prefix` (`?` for none).
/// Where two names match at one position the first listed is replaced.
fn push_renamed(out: &mut String, text: &str, prefix: &str, subs: &[(String, Option<usize>)]) {
    let mut rest = text;
    let next = |rest: &str| {
        let hits = subs.iter().filter_map(|(name, id)| Some((rest.find(name.as_str())?, name, id)));
        hits.min_by_key(|hit| hit.0)
    };
    while let Some((at, name, id)) = next(rest) {
        out.push_str(&rest[..at]);
        out.push_str(prefix);
        let _ = match id {
            Some(id) => write!(out, "{id}"),
            None => write!(out, "?"),
        };
        rest = &rest[at + name.len()..];
    }
    out.push_str(rest);
}

fn host_regs_of(i: &X86Instr) -> Vec<Gpr> {
    let mut v = i.uses();
    if let Some(d) = i.def() {
        v.push(d);
    }
    v.dedup();
    v
}

fn guest_regs_of(i: &ArmInstr) -> Vec<ArmReg> {
    let mut v = i.uses();
    if let Some(d) = i.def() {
        v.push(d);
    }
    v.dedup();
    v
}

fn match_addr(
    idx: usize,
    t: AddrMode,
    a: AddrMode,
    bind_reg: &mut impl FnMut(ArmReg, ArmReg) -> bool,
    bind_imm: &mut impl FnMut(usize, ImmSlot, i64, i64) -> bool,
) -> bool {
    match (t, a) {
        (AddrMode::Imm(trn, toff), AddrMode::Imm(arn, aoff)) => {
            bind_reg(trn, arn) && bind_imm(idx, ImmSlot::MemOffset, toff as i64, aoff as i64)
        }
        (AddrMode::Reg(trn, trm), AddrMode::Reg(arn, arm)) => {
            bind_reg(trn, arn) && bind_reg(trm, arm)
        }
        (AddrMode::RegShift(trn, trm, ts), AddrMode::RegShift(arn, arm, asx)) => {
            ts == asx && bind_reg(trn, arn) && bind_reg(trm, arm)
        }
        _ => false,
    }
}

/// The rule-sequence hash key: integer mean of guest opcode ids.
pub fn hash_key(seq: &[ArmInstr]) -> u32 {
    if seq.is_empty() {
        return 0;
    }
    let sum: u32 = seq.iter().map(|i| i.opcode_id()).sum();
    sum / seq.len() as u32
}

/// A parameterized operand rendered for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOperand {
    /// A register parameter.
    Reg(u8),
    /// An immediate parameter.
    Imm(u8),
}

/// A stored rule with its identity, rendered once when it enters the
/// store: `key` is [`Rule::stable_key`], `canon` [`Rule::canonical_text`],
/// whose first `dedup_len` bytes are [`Rule::dedup_key`].
#[derive(Debug, Clone)]
struct Entry {
    rule: Rule,
    key: u64,
    canon: String,
    dedup_len: usize,
}

impl Entry {
    fn new(rule: Rule) -> Entry {
        let dedup = rule.dedup_key();
        let (key, dedup_len) = (sig_hash(&dedup), dedup.len());
        Entry { key, canon: rule.canonical_after(dedup), dedup_len, rule }
    }

    fn dedup(&self) -> &str {
        &self.canon[..self.dedup_len]
    }
}

/// Where a guest sequence hashes to: first opcode, length, opcode mean.
type BucketKey = (u32, usize, u32);

fn bucket_key(seq: &[ArmInstr]) -> BucketKey {
    (seq.first().map_or(0, |i| i.opcode_id()), seq.len(), hash_key(seq))
}

/// A rule matched against concrete guest code.
#[derive(Debug, Clone)]
pub struct RuleMatch<'r> {
    /// The matching rule.
    pub rule: &'r Rule,
    /// Its [`Rule::stable_key`], as cached by the store.
    pub key: u64,
    /// The operand binding of the match.
    pub binding: Binding,
}

/// The rule store: buckets of rules keyed by the guest sequence's opcode
/// mean (paper §4) under its first opcode and length, which makes "the
/// lengths of the rules starting with this opcode" a range of the map.
///
/// A rule's identity is its guest template ([`Rule::dedup_key`], hashed
/// into [`Rule::stable_key`]); the store holds one rule per identity and
/// renders it once, at [`RuleSet::insert`]. Buckets live in a [`BTreeMap`]
/// and stay sorted by `dedup_key` (identities are unique, so the order is
/// total): iteration and match order are a function of the set's
/// *contents*, never of insertion or merge order or hash-seed randomness.
#[derive(Debug, Clone)]
pub struct RuleSet {
    buckets: BTreeMap<BucketKey, Vec<Entry>>,
    /// Stable key → bucket of the rule carrying it.
    index: HashMap<u64, BucketKey>,
    /// Quarantined rules by [`Rule::stable_key`]. Tombstoned rules stay
    /// in their buckets (so [`RuleSet::len`] and learning statistics are
    /// unaffected) but are skipped by matching.
    tombstones: std::collections::HashSet<u64>,
    /// Ablation knob: when `true` (default via [`RuleSet::new`]) a
    /// duplicate guest template keeps the host sequence with fewer
    /// instructions (paper §6.1); when `false`, first-found wins.
    pub prefer_shorter: bool,
}

impl Default for RuleSet {
    /// [`RuleSet::new`] — the paper's policy, not the ablation baseline.
    fn default() -> Self {
        RuleSet::new()
    }
}

impl RuleSet {
    /// An empty rule set (shortest-host dedup policy).
    pub fn new() -> Self {
        RuleSet {
            buckets: BTreeMap::new(),
            index: HashMap::new(),
            tombstones: Default::default(),
            prefer_shorter: true,
        }
    }

    /// An empty rule set with first-found dedup (the ablation baseline).
    pub fn new_first_found() -> Self {
        RuleSet { prefer_shorter: false, ..RuleSet::new() }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Insert a rule, deduplicating by guest template. When two rules
    /// share a guest template the one with the *fewest host instructions*
    /// wins (paper §6.1: "we select the sequence with the smallest number
    /// of host instructions"), ties broken by the lexicographically least
    /// [`Rule::canonical_text`], then database encoding — a total order,
    /// so the surviving rule does not depend on which was seen first.
    /// Under first-found (`prefer_shorter == false`) the incumbent always
    /// stays.
    ///
    /// Returns `true` if the set changed.
    pub fn insert(&mut self, rule: Rule) -> bool {
        // Learning the very same rule again is the common collision (one
        // memoized outcome serves every snippet pair with its signature);
        // it settles before anything is rendered.
        let bucket = self.buckets.get(&bucket_key(&rule.guest));
        if bucket.is_some_and(|b| b.iter().any(|e| e.rule == rule)) {
            return false;
        }
        self.put(Entry::new(rule))
    }

    /// [`RuleSet::insert`] with the identity already rendered: store `e`
    /// at its sorted bucket position, or settle the collision.
    fn put(&mut self, e: Entry) -> bool {
        let at = bucket_key(&e.rule.guest);
        let bucket = self.buckets.entry(at).or_default();
        match bucket.binary_search_by(|x| x.dedup().cmp(e.dedup())) {
            Ok(pos) => {
                let old = &mut bucket[pos];
                let rank = (e.rule.host.len(), &e.canon).cmp(&(old.rule.host.len(), &old.canon));
                // Equal canonical texts: the rules are interchangeable up
                // to the registers they were learned with; their database
                // encoding still picks the same one in any order.
                let wins = self.prefer_shorter
                    && rank.then_with(|| rule_bytes(&e.rule).cmp(&rule_bytes(&old.rule))).is_lt();
                if wins {
                    *old = e;
                }
                wins
            }
            Err(pos) => {
                self.index.insert(e.key, at);
                // Buckets hold a handful of rules and every generation
                // clones them all: no rounding one rule up to room for four.
                bucket.reserve_exact(1);
                bucket.insert(pos, e);
                true
            }
        }
    }

    /// Quarantine a rule by stable key: the rule keeps its bucket slot
    /// but is skipped by [`RuleSet::candidates`], [`RuleSet::lookup`] and
    /// [`RuleSet::longest_match`] from now on. Returns `true` when the
    /// key was not already tombstoned.
    pub fn tombstone(&mut self, key: u64) -> bool {
        self.tombstones.insert(key)
    }

    /// Whether a stable key has been quarantined.
    pub fn is_tombstoned(&self, key: u64) -> bool {
        self.tombstones.contains(&key)
    }

    /// Number of quarantined rule keys.
    pub fn tombstoned_count(&self) -> usize {
        self.tombstones.len()
    }

    /// All quarantined stable keys, sorted (for deterministic
    /// serialization in `db`).
    pub fn tombstoned_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.tombstones.iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Replace the stored rule identified by stable key `key` with a
    /// repaired version, in place (hot publication after a successful
    /// counterexample-guided repair).
    ///
    /// The replacement must have the *same* stable key — i.e. the same
    /// guest template and parameter sites — so every index (hash bucket,
    /// key index, outstanding tombstones) stays valid. A repair only ever
    /// changes the host side, so this always holds for real repairs.
    /// Returns `false` (and leaves the set untouched) when the keys
    /// differ or no rule with that key is stored.
    pub fn replace(&mut self, key: u64, repaired: Rule) -> bool {
        let e = Entry::new(repaired);
        let bucket = self.index.get(&key).and_then(|at| self.buckets.get_mut(at));
        let slot = bucket.into_iter().flatten().find(|slot| slot.key == key && e.key == key);
        slot.map(|slot| *slot = e).is_some()
    }

    /// Lift a quarantine tombstone (after the repaired rule has been
    /// republished via [`RuleSet::replace`]). Returns `true` when the key
    /// was tombstoned.
    pub fn revive(&mut self, key: u64) -> bool {
        self.tombstones.remove(&key)
    }

    /// Find a rule by stable key: one index probe, then a scan of its
    /// bucket. Tombstoned rules are found too: repair needs to read the
    /// rule it is about to fix.
    pub fn find_by_key(&self, key: u64) -> Option<&Rule> {
        let bucket = self.buckets.get(self.index.get(&key)?)?;
        bucket.iter().find(|e| e.key == key).map(|e| &e.rule)
    }

    /// The active (not tombstoned) entries of the bucket `seq` hashes to.
    fn bucket_of(&self, seq: &[ArmInstr]) -> impl Iterator<Item = &Entry> {
        let live = move |e: &&Entry| !self.tombstones.contains(&e.key);
        self.buckets.get(&bucket_key(seq)).into_iter().flatten().filter(live)
    }

    /// All rules whose hash key matches `seq`'s and whose length equals
    /// `seq.len()` — the candidates for matching.
    pub fn candidates(&self, seq: &[ArmInstr]) -> impl Iterator<Item = &Rule> {
        self.bucket_of(seq).map(|e| &e.rule)
    }

    /// The first rule matching `seq`, with key and binding: one bucket probe.
    pub fn lookup(&self, seq: &[ArmInstr]) -> Option<RuleMatch<'_>> {
        self.bucket_of(seq).find_map(|e| {
            e.rule.matches(seq).map(|binding| RuleMatch { rule: &e.rule, key: e.key, binding })
        })
    }

    /// The longest-match policy of paper §4: the longest prefix of `seq`
    /// matching a rule that `accept(rule, len)` agrees to apply. Only the
    /// lengths that rules starting with `seq[0]`'s opcode have are probed,
    /// longest first, one [`RuleSet::lookup`] each; a refused match is
    /// *not* replaced by a bucket sibling, the next shorter length is
    /// tried. Returns the match and the number of probes made (the
    /// "lookups" of the translation cost model).
    pub fn longest_match(
        &self,
        seq: &[ArmInstr],
        mut accept: impl FnMut(&Rule, usize) -> bool,
    ) -> (Option<RuleMatch<'_>>, usize) {
        let (first, n, _) = bucket_key(seq);
        if n == 0 {
            return (None, 0);
        }
        let lens =
            self.buckets.range((first, 1, 0)..=(first, n, u32::MAX)).rev().map(|(at, _)| at.1);
        let (mut probes, mut last) = (0, 0);
        for len in lens {
            if len == last {
                continue; // a second opcode mean at a length already probed
            }
            (probes, last) = (probes + 1, len);
            if let Some(m) = self.lookup(&seq[..len]).filter(|m| accept(m.rule, len)) {
                return (Some(m), probes);
            }
        }
        (None, probes)
    }

    /// Iterate over all rules, in the store's canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.buckets.values().flatten().map(|e| &e.rule)
    }

    /// Merge another rule set into this one: [`RuleSet::insert`] for
    /// every rule of `other`, with the identity `other` already rendered.
    /// The collision policy is a total order and buckets are always
    /// sorted, so composing the same rule sets in *any* merge order yields
    /// byte-identical stores — contents and iteration (hence lookup) order
    /// alike. This is how the leave-one-out experiment sets are assembled
    /// from the twelve per-program sets without re-learning.
    pub fn merge(&mut self, other: &RuleSet) {
        for e in other.buckets.values().flatten() {
            self.put(e.clone());
        }
        // Quarantine is sticky across composition: a rule tombstoned in
        // either input stays quarantined in the union.
        self.tombstones.extend(&other.tombstones);
    }

    /// Every rule's [`Rule::canonical_text`], sorted — a canonical dump
    /// for comparing rule-set contents irrespective of storage order.
    pub fn canonical_dump(&self) -> String {
        let mut texts: Vec<&str> = self.buckets.values().flatten().map(|e| &*e.canon).collect();
        texts.sort_unstable();
        texts.join("\n")
    }

    /// Histogram of rule lengths (for Figure 12-style reporting).
    pub fn length_histogram(&self) -> HashMap<usize, usize> {
        let mut h = HashMap::new();
        for r in self.iter() {
            *h.entry(r.len()).or_insert(0) += 1;
        }
        h
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rule (len {}):", self.len())?;
        for g in &self.guest {
            writeln!(f, "  guest: {g}")?;
        }
        for h in &self.host {
            writeln!(f, "  host:  {h}")?;
        }
        if self.unemulated_flags != 0 {
            writeln!(f, "  unemulated flags: {:#06b}", self.unemulated_flags)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldbt_arm::DpOp;
    use ldbt_x86::AluOp;

    /// The paper's Figure 1 rule: `add r0,r0,r1; sub r0,r0,#imm` →
    /// `leal -imm(r0,r1), r0`.
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

    #[test]
    fn figure1_matches_renamed_registers() {
        let rule = figure1_rule();
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
        ];
        let b = rule.matches(&seq).expect("must match");
        assert_eq!(b.reg(ArmReg::R0), Some(ArmReg::R4));
        assert_eq!(b.reg(ArmReg::R1), Some(ArmReg::R7));
        assert_eq!(b.imms, vec![12]);
    }

    #[test]
    fn figure1_instantiates_with_bound_operands() {
        let rule = figure1_rule();
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
        ];
        let b = rule.matches(&seq).unwrap();
        // DBT allocation: r4 → esi, r7 → eax.
        let host = rule.instantiate(&b, |g| match g {
            ArmReg::R4 => Gpr::Esi,
            ArmReg::R7 => Gpr::Eax,
            other => panic!("{other}"),
        });
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].to_string(), "leal -12(%esi,%eax,1), %esi");
    }

    #[test]
    fn tombstoned_rule_is_skipped_by_matching() {
        let rule = figure1_rule();
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
        ];
        let key = rule.stable_key();
        let mut set = RuleSet::new();
        set.insert(rule);
        assert!(set.lookup(&seq).is_some());
        assert!(set.tombstone(key), "first tombstone is new");
        assert!(!set.tombstone(key), "second tombstone is a no-op");
        assert!(set.is_tombstoned(key));
        assert_eq!(set.tombstoned_count(), 1);
        assert_eq!(set.len(), 1, "tombstoning does not remove the rule");
        assert!(set.lookup(&seq).is_none(), "matching skips quarantined rules");
        assert_eq!(set.longest_match(&seq, |_, _| true).0.map(|m| m.key), None);
        // Quarantine survives order-independent merges.
        let mut merged = RuleSet::new();
        merged.merge(&set);
        assert!(merged.lookup(&seq).is_none());
    }

    #[test]
    fn mismatched_structure_rejected() {
        let rule = figure1_rule();
        // Different opcode.
        let seq = [
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
        ];
        assert!(rule.matches(&seq).is_none());
        // Wrong length.
        assert!(rule.matches(&seq[..1]).is_none());
        // Inconsistent register renaming: template r0 must be one register.
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R5, ArmReg::R5, Operand2::Imm(12)),
        ];
        assert!(rule.matches(&seq).is_none());
    }

    #[test]
    fn bijective_renaming_enforced() {
        // Template uses two distinct registers; actual code uses one.
        let rule = figure1_rule();
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R4)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(12)),
        ];
        assert!(rule.matches(&seq).is_none(), "r0 and r1 cannot both bind r4");
    }

    #[test]
    fn unparameterized_immediates_must_match() {
        let mut rule = figure1_rule();
        rule.imm_params.clear(); // now #5 is structural
        let hit = [
            ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R0, ArmReg::R0, Operand2::Imm(5)),
        ];
        let miss = [
            ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R0, ArmReg::R0, Operand2::Imm(6)),
        ];
        assert!(rule.matches(&hit).is_some());
        assert!(rule.matches(&miss).is_none());
    }

    #[test]
    fn hash_key_is_opcode_mean() {
        let rule = figure1_rule();
        let add_id = ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Imm(0)).opcode_id();
        let sub_id = ArmInstr::dp(DpOp::Sub, ArmReg::R0, ArmReg::R0, Operand2::Imm(0)).opcode_id();
        assert_eq!(rule.hash_key(), (add_id + sub_id) / 2);
    }

    #[test]
    fn ruleset_dedup_prefers_shorter_host() {
        let mut rs = RuleSet::new();
        let long = Rule {
            host: vec![
                X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx),
                X86Instr::alu_ri(AluOp::Sub, Gpr::Edx, 5),
            ],
            ..figure1_rule()
        };
        assert!(rs.insert(long));
        assert_eq!(rs.len(), 1);
        // The one-instruction lea version replaces it.
        assert!(rs.insert(figure1_rule()));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.iter().next().unwrap().host.len(), 1);
        // A worse rule does not.
        let worse = Rule {
            host: vec![
                X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx),
                X86Instr::alu_ri(AluOp::Sub, Gpr::Edx, 5),
                X86Instr::mov_rr(Gpr::Edx, Gpr::Edx),
            ],
            ..figure1_rule()
        };
        assert!(!rs.insert(worse));
        assert_eq!(rs.iter().next().unwrap().host.len(), 1);
    }

    #[test]
    fn ruleset_lookup_by_hash() {
        let mut rs = RuleSet::new();
        rs.insert(figure1_rule());
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R2, ArmReg::R2, Operand2::Reg(ArmReg::R3)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R2, ArmReg::R2, Operand2::Imm(100)),
        ];
        let m = rs.lookup(&seq).expect("found");
        assert_eq!(m.rule.len(), 2);
        assert_eq!(m.key, figure1_rule().stable_key(), "a match hands the cached key back");
        assert_eq!(m.binding.imms, vec![100]);
        // Non-matching sequence.
        let other = [ArmInstr::mov(ArmReg::R0, Operand2::Imm(1))];
        assert!(rs.lookup(&other).is_none());
    }

    #[test]
    fn dedup_key_canonicalizes_registers() {
        let a = figure1_rule();
        let mut b = figure1_rule();
        // Rename r0→r6, r1→r9 consistently in the guest template.
        b.guest = vec![
            ArmInstr::dp(DpOp::Add, ArmReg::R6, ArmReg::R6, Operand2::Reg(ArmReg::R9)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R6, ArmReg::R6, Operand2::Imm(5)),
        ];
        assert_eq!(a.dedup_key(), b.dedup_key());
    }

    #[test]
    fn length_histogram() {
        let mut rs = RuleSet::new();
        rs.insert(figure1_rule());
        let h = rs.length_histogram();
        assert_eq!(h.get(&2), Some(&1));
    }

    #[test]
    fn branch_rule_matches_ignoring_offset() {
        let rule = Rule {
            guest: vec![
                ArmInstr::cmp(ArmReg::R2, Operand2::Reg(ArmReg::R3)),
                ArmInstr::B { offset: 7, cond: ldbt_arm::Cond::Ne },
            ],
            host: vec![
                X86Instr::alu_rr(AluOp::Cmp, Gpr::Ecx, Gpr::Edx),
                X86Instr::Jcc { cc: ldbt_x86::Cc::Ne, target: 0 },
            ],
            host_reg_of: [(Gpr::Ecx, ArmReg::R2), (Gpr::Edx, ArmReg::R3)].into_iter().collect(),
            imm_params: vec![],
            unemulated_flags: 0,
            has_branch: true,
        };
        let seq = [
            ArmInstr::cmp(ArmReg::R5, Operand2::Reg(ArmReg::R6)),
            ArmInstr::B { offset: -42, cond: ldbt_arm::Cond::Ne },
        ];
        assert!(rule.matches(&seq).is_some());
        let wrong_cond = [
            ArmInstr::cmp(ArmReg::R5, Operand2::Reg(ArmReg::R6)),
            ArmInstr::B { offset: -42, cond: ldbt_arm::Cond::Eq },
        ];
        assert!(rule.matches(&wrong_cond).is_none());
    }

    /// A figure1-template rule with a two-instruction host body.
    fn figure1_long_host() -> Rule {
        Rule {
            host: vec![
                X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx),
                X86Instr::alu_ri(AluOp::Sub, Gpr::Edx, 5),
            ],
            imm_params: vec![ImmParam {
                guest_site: (1, ImmSlot::Data),
                extra_guest_sites: vec![],
                template_value: 5,
                host_sites: vec![(1, ImmSlot::Data, ImmRel::Id)],
            }],
            ..figure1_rule()
        }
    }

    /// An unrelated single-instruction rule so merges also carry
    /// non-colliding content.
    fn mov_rule() -> Rule {
        Rule {
            guest: vec![ArmInstr::mov(ArmReg::R3, Operand2::Reg(ArmReg::R4))],
            host: vec![X86Instr::mov_rr(Gpr::Esi, Gpr::Edi)],
            host_reg_of: [(Gpr::Esi, ArmReg::R3), (Gpr::Edi, ArmReg::R4)].into_iter().collect(),
            imm_params: vec![],
            unemulated_flags: 0,
            has_branch: false,
        }
    }

    fn set_of(rules: &[Rule]) -> RuleSet {
        let mut rs = RuleSet::new();
        for r in rules {
            rs.insert(r.clone());
        }
        rs
    }

    #[test]
    fn merge_is_order_independent() {
        let a = set_of(&[figure1_long_host(), mov_rule()]);
        let b = set_of(&[figure1_rule()]);
        let c = set_of(&[figure1_long_host()]);
        let orders: Vec<Vec<&RuleSet>> =
            vec![vec![&a, &b, &c], vec![&c, &b, &a], vec![&b, &a, &c], vec![&b, &c, &a]];
        let mut dumps = Vec::new();
        let mut iteration_orders = Vec::new();
        for order in &orders {
            let mut merged = RuleSet::new();
            for s in order {
                merged.merge(s);
            }
            assert_eq!(merged.len(), 2, "figure1 collision resolved + mov rule");
            // The one-instruction host must win every collision.
            let fig1 = merged
                .iter()
                .find(|r| r.dedup_key() == figure1_rule().dedup_key())
                .expect("figure1 template present");
            assert_eq!(fig1.host.len(), 1);
            dumps.push(merged.canonical_dump());
            iteration_orders.push(merged.iter().map(Rule::canonical_text).collect::<Vec<_>>());
        }
        // Contents and iteration order are identical across merge orders.
        assert!(dumps.windows(2).all(|w| w[0] == w[1]), "contents differ");
        assert!(iteration_orders.windows(2).all(|w| w[0] == w[1]), "order differs");
    }

    #[test]
    fn merge_tie_break_is_canonical_not_positional() {
        // Two equal-length hosts for the same guest template: the
        // lexicographically least canonical rendering must win no matter
        // which set is merged first.
        let lea = figure1_rule();
        let other = Rule {
            host: vec![X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx)],
            imm_params: lea.imm_params.clone(),
            ..figure1_rule()
        };
        let rank = |r: &Rule| (r.host.len(), r.canonical_text());
        let expected = if rank(&lea) < rank(&other) { &lea } else { &other };
        for order in [[&lea, &other], [&other, &lea]] {
            let mut merged = RuleSet::new();
            for r in order {
                merged.merge(&set_of(std::slice::from_ref(r)));
            }
            assert_eq!(merged.len(), 1);
            assert_eq!(merged.iter().next().unwrap().canonical_text(), expected.canonical_text());
        }
    }

    #[test]
    fn stable_key_is_pinned() {
        // FNV-1a of the dedup key: the value is persisted (tombstones in
        // the rule database, run reports), so it must never move with the
        // toolchain or the hasher of the day.
        assert_eq!(
            figure1_rule().dedup_key(),
            "add reg0, reg0, reg1;sub reg0, reg0, #5;|imm0@(1, Data);"
        );
        assert_eq!(figure1_rule().stable_key(), 0xee1b_8e4b_0eea_762f);
    }

    #[test]
    fn first_found_is_opt_in_and_keeps_the_incumbent() {
        // A derived `Default` would mean first-found; it must mean `new()`.
        assert!(RuleSet::default().prefer_shorter && RuleSet::new().prefer_shorter);
        assert!(!RuleSet::new_first_found().prefer_shorter);
        // First-found keeps the incumbent even against a shorter host.
        let mut ff = RuleSet::new_first_found();
        assert!(ff.insert(figure1_long_host()));
        assert!(!ff.insert(figure1_rule()));
        assert_eq!(ff.iter().next().unwrap().host.len(), 2);
    }

    /// A rule over `figure1`'s opcode shape (same bucket) with a different
    /// identity: the subtracted immediate is structural.
    fn figure1_unparameterized() -> Rule {
        Rule {
            host: vec![
                X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx),
                X86Instr::alu_ri(AluOp::Sub, Gpr::Edx, 5),
            ],
            imm_params: vec![],
            ..figure1_rule()
        }
    }

    #[test]
    fn unparameterized_sibling_is_tried_before_the_parameterized_rule() {
        // The unparameterized rule's dedup key is a strict prefix of its
        // immediate-parameterized sibling's, so it sorts first in their
        // shared bucket and wins wherever both match — whatever the
        // insertion order. (Sorting by canonical text alone would flip
        // them: '|' > 'i'.)
        let (plain, param) = (figure1_unparameterized(), figure1_rule());
        assert!(param.dedup_key().starts_with(&plain.dedup_key()));
        let seq = |imm| {
            [
                ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(imm)),
            ]
        };
        for order in [[&plain, &param], [&param, &plain]] {
            let rs = set_of(&[order[0].clone(), order[1].clone()]);
            assert_eq!(rs.len(), 2);
            assert_eq!(rs.iter().next(), Some(&plain));
            assert_eq!(rs.lookup(&seq(5)).unwrap().key, plain.stable_key());
            assert_eq!(rs.lookup(&seq(6)).unwrap().key, param.stable_key());
        }
    }

    #[test]
    fn key_index_survives_a_merge_that_reorders_the_bucket() {
        // `param` sits alone in its bucket until the merge slots `plain`
        // in *before* it; find/replace/revive must still reach it.
        let (plain, param) = (figure1_unparameterized(), figure1_rule());
        let key = param.stable_key();
        let mut rs = set_of(&[param.clone(), mov_rule()]);
        rs.tombstone(key);
        rs.merge(&set_of(std::slice::from_ref(&plain)));
        let order: Vec<&Rule> = rs.iter().filter(|r| r.len() == 2).collect();
        assert_eq!(order, [&plain, &param], "param moved back");
        assert_eq!(rs.find_by_key(key), Some(&param));
        assert_eq!(rs.find_by_key(plain.stable_key()), Some(&plain));
        assert_eq!(rs.find_by_key(!key), None);
        let repaired = figure1_long_host();
        assert!(!rs.replace(plain.stable_key(), repaired.clone()), "wrong identity refused");
        assert!(!rs.replace(!key, repaired.clone()), "unknown key refused");
        assert!(rs.replace(key, repaired.clone()));
        assert_eq!(rs.find_by_key(key), Some(&repaired));
        assert_eq!(rs.len(), 3);
        assert!(rs.canonical_dump().contains(&repaired.canonical_text()));
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(9)),
        ];
        assert!(rs.lookup(&seq).is_none(), "still tombstoned");
        assert!(rs.revive(key));
        assert_eq!(rs.lookup(&seq).unwrap().rule, &repaired);
    }

    #[test]
    fn longest_match_walks_only_lengths_present_and_honours_refusals() {
        let add = Rule {
            guest: vec![ArmInstr::dp(DpOp::Add, ArmReg::R0, ArmReg::R0, Operand2::Reg(ArmReg::R1))],
            host: vec![X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx)],
            imm_params: vec![],
            ..figure1_rule()
        };
        let rs = set_of(&[figure1_rule(), add.clone(), mov_rule()]);
        let seq = [
            ArmInstr::dp(DpOp::Add, ArmReg::R4, ArmReg::R4, Operand2::Reg(ArmReg::R7)),
            ArmInstr::dp(DpOp::Sub, ArmReg::R4, ArmReg::R4, Operand2::Imm(9)),
            ArmInstr::mov(ArmReg::R5, Operand2::Reg(ArmReg::R4)),
        ];
        // Rules starting with `add` are 2 and 1 long: length 3 is never
        // probed, the longest acceptable match wins.
        let (m, probes) = rs.longest_match(&seq, |_, _| true);
        assert_eq!((m.unwrap().rule.len(), probes), (2, 1));
        let (m, probes) = rs.longest_match(&seq, |_, len| len < 2);
        assert_eq!((m.unwrap().key, probes), (add.stable_key(), 2));
        let (m, probes) = rs.longest_match(&seq[..1], |_, _| true);
        assert_eq!((m.unwrap().key, probes), (add.stable_key(), 1));
        // No rule starts with `sub`; nothing matches an empty sequence.
        assert_eq!(rs.longest_match(&seq[1..], |_, _| true).1, 0);
        assert_eq!(rs.longest_match(&[], |_, _| true).1, 0);
    }

    #[test]
    fn canonical_text_is_register_independent() {
        let a = figure1_rule();
        // Rename guest r0→r6, r1→r9 and host edx→eax, ecx→ebx coherently.
        let b = Rule {
            guest: vec![
                ArmInstr::dp(DpOp::Add, ArmReg::R6, ArmReg::R6, Operand2::Reg(ArmReg::R9)),
                ArmInstr::dp(DpOp::Sub, ArmReg::R6, ArmReg::R6, Operand2::Imm(5)),
            ],
            host: vec![X86Instr::Lea {
                dst: Gpr::Eax,
                addr: X86Mem { base: Some(Gpr::Eax), index: Some((Gpr::Ebx, 1)), disp: -5 },
            }],
            host_reg_of: [(Gpr::Eax, ArmReg::R6), (Gpr::Ebx, ArmReg::R9)].into_iter().collect(),
            ..figure1_rule()
        };
        assert_eq!(a.canonical_text(), b.canonical_text());
        // A host-side difference dedup_key cannot see still shows up.
        let c =
            Rule { host: vec![X86Instr::alu_rr(AluOp::Add, Gpr::Edx, Gpr::Ecx)], ..figure1_rule() };
        assert_ne!(a.canonical_text(), c.canonical_text());
    }
}
