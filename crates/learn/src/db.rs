//! The persistent rule database (DESIGN.md §15).
//!
//! Learned rules are expensive to produce — symbolic execution plus SAT
//! over every candidate signature — but cheap to apply. This module makes
//! them a durable artifact: a [`RuleSet`] and the cross-program
//! [`VerifyCache`] memo serialize to a single versioned file, so a node
//! warm-starts from disk and serves immediately instead of re-verifying
//! the whole suite on every boot.
//!
//! The format is hand-rolled little-endian binary (no serde, in the
//! spirit of `ldbt-obs`'s hand-rolled JSON). A rule's instruction
//! templates are stored in the ISAs' own machine encodings, one
//! instruction at a time: each guest instruction as its ARM word
//! (`ldbt_arm::encode`), each host instruction as its x86 bytes
//! (`ldbt_x86::encode`), so the ISA crates are the only code that knows
//! how an instruction becomes bytes. Per-instruction encoding writes a
//! `Jcc` / `Jmp` / `Call` target field verbatim, so targets stay the
//! instruction-relative indices the translator sees — not `assemble`'s
//! byte displacements, which cannot express a target outside the
//! sequence. Everything else is written field by field: enum tags by
//! position, collections length-prefixed.
//!
//! ## File layout
//!
//! | field        | size | meaning                                        |
//! |--------------|------|------------------------------------------------|
//! | magic        | 8    | `"LDBTRUDB"`                                   |
//! | version      | 4    | [`FORMAT_VERSION`], little-endian              |
//! | fingerprint  | 8    | [`isa_fingerprint`] of the builder             |
//! | payload len  | 8    | byte length of the payload                     |
//! | checksum     | 8    | FNV-1a (as [`sig_hash`]) over the payload      |
//! | payload      | n    | rule set, then memo cache                      |
//!
//! The payload is `prefer_shorter`, the rules, the tombstone keys, then
//! the memo entries (signature, failed bit, then the rule or the
//! failure). One rule is:
//!
//! | field          | encoding                                             |
//! |----------------|------------------------------------------------------|
//! | guest          | count, then one 4-byte ARM word per instruction      |
//! | host           | count, then the x86 encodings back to back (decoding one returns its length) |
//! | `host_reg_of`  | count, then (x86 register, ARM register) index pairs sorted by x86 register |
//! | `imm_params`   | count, then each parameter's sites and template value |
//! | flags          | `unemulated_flags` byte, `has_branch` bool           |
//!
//! A reader rejects (and the caller falls back to fresh learning) on bad
//! magic, a version it does not speak, a fingerprint produced by a
//! different ISA model, a checksum mismatch, a short file, or any
//! malformed payload — an instruction its ISA will not decode included —
//! so a stale or corrupt database never loads half-way.
//!
//! Writing is deterministic: rules serialize in [`RuleSet::iter`] order
//! (canonical for any construction order), tombstone keys and the
//! `host_reg_of` map are sorted, and memo entries are sorted by
//! signature. Byte-identical inputs produce byte-identical files, which
//! the warm-start CI gate relies on. A rule or memo entry with an
//! instruction its ISA encoder refuses, or does not decode back to the
//! same instruction, is left out of the file; learning never produces
//! one (every compiled instruction encodes), and the database is a cache,
//! so the next boot re-verifies what is missing.

use crate::cache::{fnv1a, sig_hash, VerifyCache, VerifyOutcome};
use crate::rule::{ImmParam, ImmRel, ImmSlot, Rule, RuleSet};
use crate::verify::VerifyFail;
use ldbt_arm::{encode as arm_codec, ArmInstr, ArmReg};
use ldbt_x86::{encode as x86_codec, Gpr, X86Instr};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// On-disk magic, first 8 bytes of every database file.
pub const MAGIC: &[u8; 8] = b"LDBTRUDB";

/// Format version this build reads and writes. Version 3 stores
/// instruction templates in the ISAs' machine encodings; version 2 wrote
/// them structurally, tag by tag, and version 1 keyed tombstones by std's
/// unspecified `DefaultHasher` instead of the FNV-1a
/// [`crate::Rule::stable_key`]. Both are rejected. A change to either
/// ISA's binary encoding changes what a file's bytes mean and must bump
/// this.
pub const FORMAT_VERSION: u32 = 3;

/// The payload's positional tag tables: a value is written as its index
/// here. Each lists every variant of its type
/// (`tests::tag_tables_list_every_variant`).
const IMM_SLOTS: [ImmSlot; 2] = [ImmSlot::Data, ImmSlot::MemOffset];
const IMM_RELS: [ImmRel; 3] = [ImmRel::Id, ImmRel::Neg, ImmRel::Not];
/// `Other`'s reason follows its tag as a string.
const FAILS: [VerifyFail; 4] =
    [VerifyFail::Registers, VerifyFail::Memory, VerifyFail::Branch, VerifyFail::Other("")];

/// Fingerprint of the model the payload's positional tags index into.
///
/// Hashes the size of everything the payload writes as a position —
/// register indices and the tag tables above — so growing any of them
/// invalidates existing databases instead of mis-decoding them.
/// Instructions need no entry: they are stored in their ISA's machine
/// encoding, which does not renumber when an instruction set grows.
pub fn isa_fingerprint() -> u64 {
    let text = format!(
        "ldbt-rule-db;armreg{};gpr{};immslot{};immrel{};verifyfail{}",
        ArmReg::ALL.len(),
        Gpr::ALL.len(),
        IMM_SLOTS.len(),
        IMM_RELS.len(),
        FAILS.len(),
    );
    sig_hash(&text)
}

/// A loaded database: the rule store plus the verification memo.
#[derive(Debug, Clone)]
pub struct RuleDb {
    /// The learned rules, tombstones included.
    pub rules: RuleSet,
    /// The verification memo cache (signature → outcome).
    pub cache: VerifyCache,
}

/// Why a database failed to load. Every variant means "fall back to
/// fresh learning"; they are distinguished for diagnostics and tests.
#[derive(Debug)]
pub enum DbError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    Version(u32),
    /// The file was written against a different ISA model.
    Fingerprint { found: u64, expected: u64 },
    /// The file ends before its declared payload does.
    Truncated,
    /// The payload bytes are malformed (checksum mismatch, bad enum
    /// tag, undecodable instruction, invalid UTF-8, trailing bytes, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::BadMagic => write!(f, "not a rule database (bad magic)"),
            DbError::Version(v) => {
                write!(f, "unsupported format version {v} (this build speaks {FORMAT_VERSION})")
            }
            DbError::Fingerprint { found, expected } => {
                write!(f, "ISA fingerprint mismatch (file {found:#018x}, build {expected:#018x})")
            }
            DbError::Truncated => write!(f, "truncated file"),
            DbError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Serialize a rule set and memo cache to the on-disk byte format.
pub fn to_bytes(rules: &RuleSet, cache: &VerifyCache) -> Vec<u8> {
    let mut w = W::default();
    w.rule_set(rules);
    w.cache(cache);
    let payload = w.buf;
    let mut out = Vec::with_capacity(payload.len() + 36);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&isa_fingerprint().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One rule in the payload encoding: independent of `HashMap` order and
/// injective over the rules the file stores, which makes it the store's
/// last-resort tie-break. A rule the file would leave out renders up to
/// its first refused instruction — still a deterministic order.
pub(crate) fn rule_bytes(rule: &Rule) -> Vec<u8> {
    let mut w = W::default();
    let _ = w.rule(rule);
    w.buf
}

/// Deserialize a database from its on-disk byte format.
pub fn from_bytes(bytes: &[u8]) -> Result<RuleDb, DbError> {
    if bytes.len() < 8 {
        return Err(DbError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(DbError::BadMagic);
    }
    if bytes.len() < 36 {
        return Err(DbError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(DbError::Version(version));
    }
    let fp = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let expected = isa_fingerprint();
    if fp != expected {
        return Err(DbError::Fingerprint { found: fp, expected });
    }
    let len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    let payload = &bytes[36..];
    if payload.len() < len {
        return Err(DbError::Truncated);
    }
    if payload.len() > len {
        return Err(DbError::Corrupt("trailing bytes after payload"));
    }
    if fnv1a(payload) != sum {
        return Err(DbError::Corrupt("checksum mismatch"));
    }
    let mut r = R { buf: payload, pos: 0 };
    let rules = r.rule_set()?;
    let cache = r.cache()?;
    if r.pos != r.buf.len() {
        return Err(DbError::Corrupt("payload longer than its contents"));
    }
    Ok(RuleDb { rules, cache })
}

/// Write the database to `path` (atomically: temp file + rename, so a
/// crash mid-write never leaves a half-written database behind).
pub fn save(path: &Path, rules: &RuleSet, cache: &VerifyCache) -> std::io::Result<()> {
    let bytes = to_bytes(rules, cache);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Load the database at `path`.
pub fn load(path: &Path) -> Result<RuleDb, DbError> {
    let bytes = std::fs::read(path).map_err(DbError::Io)?;
    from_bytes(&bytes)
}

/// Decode a `VerifyFail::Other` reason back to a `&'static str`.
///
/// The budget/pipeline reasons are canonical constants; anything else
/// (e.g. a `SymHazard::Unsupported` message minted at runtime) is
/// interned once via `Box::leak` — safe code, bounded by the set of
/// distinct reason strings ever loaded.
fn intern_reason(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        crate::budget::REASON_SOLVER_BUDGET,
        crate::budget::REASON_SYMEXEC_FUEL,
        crate::budget::REASON_TERM_CAP,
        crate::budget::REASON_WORKER_PANIC,
        "no mapping",
        "symexec: possible aliasing",
        "symexec: mixed-width access",
        "symexec: mid-block branch",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == s) {
        return k;
    }
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("reason interner poisoned");
    if let Some(k) = map.get(s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

/// A guest instruction's ARM word, if the encoder takes the instruction
/// and decodes the word back to it.
fn arm_word(i: &ArmInstr) -> Option<u32> {
    let word = arm_codec::encode(i).ok()?;
    (arm_codec::decode(word).ok()? == *i).then_some(word)
}

/// A host instruction's x86 bytes, if the encoder takes the instruction
/// and decodes all of them back to it.
fn x86_bytes(i: &X86Instr) -> Option<Vec<u8>> {
    let bytes = x86_codec::encode(i).ok()?;
    (x86_codec::decode(&bytes).ok()? == (*i, bytes.len())).then_some(bytes)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Collection lengths and instruction indices, always 32-bit.
    fn len(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("length fits u32"));
    }
    fn string(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// `v` as the position of its variant in `table`.
    fn tag<T>(&mut self, table: &[T], v: &T) {
        let d = std::mem::discriminant(v);
        let at = table.iter().position(|t| std::mem::discriminant(t) == d);
        self.u8(at.expect("tag tables list every variant") as u8);
    }
    /// A length-prefixed list, `put` writing each item.
    fn each<T>(&mut self, items: &[T], mut put: impl FnMut(&mut W, &T)) {
        self.len(items.len());
        for item in items {
            put(self, item);
        }
    }
    /// A length-prefixed list of the items `put` accepts: an item it
    /// refuses (`None`) is cut from the buffer again and not counted.
    fn kept<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut put: impl FnMut(&mut W, T) -> Option<()>,
    ) {
        let at = self.buf.len();
        self.u32(0);
        let mut n = 0u32;
        for item in items {
            let start = self.buf.len();
            match put(self, item) {
                Some(()) => n += 1,
                None => self.buf.truncate(start),
            }
        }
        self.buf[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }

    fn imm_site(&mut self, &(idx, slot): &(usize, ImmSlot)) {
        self.len(idx);
        self.tag(&IMM_SLOTS, &slot);
    }
    fn imm_param(&mut self, p: &ImmParam) {
        self.imm_site(&p.guest_site);
        self.each(&p.extra_guest_sites, W::imm_site);
        self.i64(p.template_value);
        self.each(&p.host_sites, |w, &(idx, slot, rel)| {
            w.imm_site(&(idx, slot));
            w.tag(&IMM_RELS, &rel);
        });
    }

    /// `r`'s record; `None` — the buffer then holds a prefix of it — when
    /// one of its instructions cannot be stored ([`arm_word`],
    /// [`x86_bytes`]).
    fn rule(&mut self, r: &Rule) -> Option<()> {
        self.len(r.guest.len());
        for i in &r.guest {
            self.u32(arm_word(i)?);
        }
        self.len(r.host.len());
        for i in &r.host {
            let bytes = x86_bytes(i)?;
            self.buf.extend_from_slice(&bytes);
        }
        // HashMap: sort by host register index for deterministic bytes.
        let mut pairs: Vec<(Gpr, ArmReg)> = r.host_reg_of.iter().map(|(g, a)| (*g, *a)).collect();
        pairs.sort_by_key(|(g, _)| g.index());
        self.each(&pairs, |w, (g, a)| {
            w.u8(g.index() as u8);
            w.u8(a.index() as u8);
        });
        self.each(&r.imm_params, W::imm_param);
        self.u8(r.unemulated_flags);
        self.boolean(r.has_branch);
        Some(())
    }

    fn rule_set(&mut self, rs: &RuleSet) {
        self.boolean(rs.prefer_shorter);
        self.kept(rs.iter(), W::rule);
        self.each(&rs.tombstoned_keys(), |w, k| w.u64(*k));
    }

    fn cache(&mut self, cache: &VerifyCache) {
        let mut entries: Vec<(&str, &VerifyOutcome)> = cache.iter().collect();
        entries.sort_by_key(|(sig, _)| *sig);
        self.kept(entries, |w, (sig, outcome)| {
            w.string(sig);
            match outcome {
                VerifyOutcome::Learned(r) => {
                    w.boolean(false);
                    w.rule(r)
                }
                VerifyOutcome::Failed(f) => {
                    w.boolean(true);
                    w.tag(&FAILS, f);
                    if let VerifyFail::Other(why) = f {
                        w.string(why);
                    }
                    Some(())
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Res<T> = Result<T, DbError>;

impl R<'_> {
    fn bytes(&mut self, n: usize) -> Res<&[u8]> {
        if self.buf.len() - self.pos < n {
            return Err(DbError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Res<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn boolean(&mut self) -> Res<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DbError::Corrupt("bad bool")),
        }
    }
    fn u32(&mut self) -> Res<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Res<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }
    fn i64(&mut self) -> Res<i64> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }
    fn len(&mut self) -> Res<usize> {
        let n = self.u32()? as usize;
        // A length can never exceed the bytes that remain; this bounds
        // allocations against a corrupt (but checksum-colliding) count.
        if n > self.buf.len() - self.pos {
            return Err(DbError::Corrupt("length exceeds payload"));
        }
        Ok(n)
    }
    fn string(&mut self) -> Res<String> {
        let n = self.len()?;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DbError::Corrupt("bad utf-8"))
    }
    /// The entry of `table` at the next byte's position.
    fn pick<T: Copy>(&mut self, table: &[T], what: &'static str) -> Res<T> {
        let tag = self.u8()? as usize;
        table.get(tag).copied().ok_or(DbError::Corrupt(what))
    }
    /// A length-prefixed list, `item` reading each entry.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn arm_instr(&mut self) -> Res<ArmInstr> {
        arm_codec::decode(self.u32()?).map_err(|_| DbError::Corrupt("bad arm instruction"))
    }
    fn x86_instr(&mut self) -> Res<X86Instr> {
        let (instr, n) = x86_codec::decode(&self.buf[self.pos..])
            .map_err(|_| DbError::Corrupt("bad x86 instruction"))?;
        self.pos += n;
        Ok(instr)
    }

    fn imm_site(&mut self) -> Res<(usize, ImmSlot)> {
        Ok((self.len()?, self.pick(&IMM_SLOTS, "bad imm slot")?))
    }
    fn imm_param(&mut self) -> Res<ImmParam> {
        Ok(ImmParam {
            guest_site: self.imm_site()?,
            extra_guest_sites: self.list(R::imm_site)?,
            template_value: self.i64()?,
            host_sites: self.list(|r| {
                let (idx, slot) = r.imm_site()?;
                Ok((idx, slot, r.pick(&IMM_RELS, "bad imm rel")?))
            })?,
        })
    }

    fn rule(&mut self) -> Res<Rule> {
        Ok(Rule {
            guest: self.list(R::arm_instr)?,
            host: self.list(R::x86_instr)?,
            host_reg_of: self
                .list(|r| {
                    Ok((r.pick(&Gpr::ALL, "bad gpr")?, r.pick(&ArmReg::ALL, "bad arm reg")?))
                })?
                .into_iter()
                .collect(),
            imm_params: self.list(R::imm_param)?,
            unemulated_flags: self.u8()?,
            has_branch: self.boolean()?,
        })
    }

    fn rule_set(&mut self) -> Res<RuleSet> {
        let prefer_shorter = self.boolean()?;
        let mut rs = if prefer_shorter { RuleSet::new() } else { RuleSet::new_first_found() };
        for rule in self.list(R::rule)? {
            // The source set was deduplicated, so every serialized rule
            // must insert cleanly; a collision means the payload lies.
            if !rs.insert(rule) {
                return Err(DbError::Corrupt("duplicate rule"));
            }
        }
        for key in self.list(R::u64)? {
            rs.tombstone(key);
        }
        Ok(rs)
    }

    fn outcome(&mut self) -> Res<VerifyOutcome> {
        if !self.boolean()? {
            return Ok(VerifyOutcome::Learned(self.rule()?));
        }
        Ok(VerifyOutcome::Failed(match self.pick(&FAILS, "bad verify fail")? {
            VerifyFail::Other(_) => VerifyFail::Other(intern_reason(&self.string()?)),
            f => f,
        }))
    }

    fn cache(&mut self) -> Res<VerifyCache> {
        let mut cache = VerifyCache::new();
        for (sig, outcome) in self.list(|r| Ok((r.string()?, r.outcome()?)))? {
            cache.insert(sig, outcome);
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::REASON_SOLVER_BUDGET;
    use ldbt_arm::ArmInstr as AI;
    use ldbt_arm::{AddrMode, Cond, DpOp, Operand2};
    use ldbt_isa::Width;
    use ldbt_x86::X86Instr as XI;
    use ldbt_x86::{AluOp, Cc, Operand, X86Mem};

    fn imm_rule() -> Rule {
        Rule {
            guest: vec![AI::dp(DpOp::Eor, ArmReg::R0, ArmReg::R0, Operand2::Imm(3))],
            host: vec![XI::alu_ri(AluOp::Xor, Gpr::Ecx, 3)],
            host_reg_of: [(Gpr::Ecx, ArmReg::R0)].into_iter().collect(),
            imm_params: vec![ImmParam {
                guest_site: (0, ImmSlot::Data),
                extra_guest_sites: vec![(0, ImmSlot::MemOffset)],
                template_value: 3,
                host_sites: vec![(0, ImmSlot::Data, ImmRel::Neg)],
            }],
            unemulated_flags: 0b1010,
            has_branch: false,
        }
    }

    /// Branch targets outside the rule's own host sequence — backwards
    /// past its start and forwards past its end — as rule hosts keep the
    /// compiler's function-relative targets.
    fn mem_rule() -> Rule {
        Rule {
            guest: vec![
                AI::ldr(ArmReg::R1, AddrMode::Imm(ArmReg::R2, 8)),
                AI::dps(DpOp::Add, ArmReg::R1, ArmReg::R1, Operand2::Reg(ArmReg::R3)),
                AI::Str {
                    rt: ArmReg::R1,
                    addr: AddrMode::Reg(ArmReg::R2, ArmReg::R4),
                    width: Width::W16,
                    cond: Cond::Al,
                },
            ],
            host: vec![
                XI::Movx {
                    sign: true,
                    width: Width::W16,
                    dst: Gpr::Eax,
                    src: Operand::Mem(X86Mem {
                        base: Some(Gpr::Ebx),
                        index: Some((Gpr::Esi, 2)),
                        disp: -4,
                    }),
                },
                XI::Alu {
                    op: AluOp::Add,
                    dst: Operand::Reg(Gpr::Eax),
                    src: Operand::Reg(Gpr::Edi),
                },
                XI::Jcc { cc: Cc::Ne, target: 9 },
                XI::Jmp { target: -7 },
                XI::Call { target: 1 << 20 },
                XI::Jcc { cc: Cc::L, target: -(1 << 30) },
                XI::MovStore {
                    width: Width::W16,
                    src: Gpr::Eax,
                    dst: X86Mem::base_disp(Gpr::Ebx, 12),
                },
            ],
            host_reg_of: [
                (Gpr::Eax, ArmReg::R1),
                (Gpr::Ebx, ArmReg::R2),
                (Gpr::Edi, ArmReg::R3),
                (Gpr::Esi, ArmReg::R4),
            ]
            .into_iter()
            .collect(),
            imm_params: vec![],
            unemulated_flags: 0,
            has_branch: true,
        }
    }

    fn sample_db() -> (RuleSet, VerifyCache) {
        let mut rs = RuleSet::new();
        assert!(rs.insert(imm_rule()));
        assert!(rs.insert(mem_rule()));
        rs.tombstone(imm_rule().stable_key());
        let mut cache = VerifyCache::new();
        cache.insert("sig-learned".into(), VerifyOutcome::Learned(mem_rule()));
        cache.insert("sig-regs".into(), VerifyOutcome::Failed(VerifyFail::Registers));
        cache.insert("sig-mem".into(), VerifyOutcome::Failed(VerifyFail::Memory));
        cache.insert("sig-branch".into(), VerifyOutcome::Failed(VerifyFail::Branch));
        cache.insert(
            "sig-known".into(),
            VerifyOutcome::Failed(VerifyFail::Other(REASON_SOLVER_BUDGET)),
        );
        cache.insert(
            "sig-novel".into(),
            VerifyOutcome::Failed(VerifyFail::Other("symexec: unsupported widget")),
        );
        (rs, cache)
    }

    /// Re-seal a file's header around an edited payload, so the decoder
    /// proper runs on it instead of the checksum catching the edit.
    fn reseal(bytes: &mut [u8]) {
        let payload_len = (bytes.len() - 36) as u64;
        bytes[20..28].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a(&bytes[36..]);
        bytes[28..36].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn round_trip_is_byte_identical_and_behavior_preserving() {
        let (rs, cache) = sample_db();
        let bytes = to_bytes(&rs, &cache);
        let db = from_bytes(&bytes).expect("round trip loads");
        // Re-serializing the loaded database reproduces the exact bytes:
        // structure, iteration order, tombstones, and memo entries all
        // survived.
        assert_eq!(to_bytes(&db.rules, &db.cache), bytes);
        // Behavior: same size, same tombstones, same rules per key.
        assert_eq!(db.rules.len(), rs.len());
        assert_eq!(db.rules.tombstoned_keys(), rs.tombstoned_keys());
        assert_eq!(db.rules.prefer_shorter, rs.prefer_shorter);
        for r in rs.iter() {
            assert_eq!(db.rules.find_by_key(r.stable_key()), Some(r));
        }
        // Tombstoned rules stay quarantined after a reload.
        assert!(db.rules.is_tombstoned(imm_rule().stable_key()));
        assert!(db.rules.lookup(&imm_rule().guest).is_none());
        assert!(db.rules.lookup(&mem_rule().guest).is_some());
        // Memo cache content survives, including interned Other reasons.
        assert_eq!(db.cache.len(), cache.len());
        assert!(matches!(
            db.cache.get("sig-known"),
            Some(VerifyOutcome::Failed(VerifyFail::Other(s))) if *s == REASON_SOLVER_BUDGET
        ));
        assert!(matches!(
            db.cache.get("sig-novel"),
            Some(VerifyOutcome::Failed(VerifyFail::Other("symexec: unsupported widget")))
        ));
        assert!(
            matches!(db.cache.get("sig-learned"), Some(VerifyOutcome::Learned(r)) if *r == mem_rule())
        );
    }

    #[test]
    fn out_of_sequence_branch_targets_round_trip() {
        // `assemble` cannot lay these targets out; per-instruction
        // encoding keeps them verbatim.
        let host = mem_rule().host;
        assert_eq!(x86_codec::assemble(&host), Err(x86_codec::EncodeX86Error::BranchLayout));
        let db = from_bytes(&to_bytes(&sample_db().0, &VerifyCache::new())).expect("loads");
        let back = db.rules.find_by_key(mem_rule().stable_key()).expect("rule survives");
        assert_eq!(back.host, host);
        assert_eq!(rule_bytes(back), rule_bytes(&mem_rule()));
    }

    #[test]
    fn unstorable_entries_are_left_out() {
        // Out of the ARM encoder's range, refused by the x86 encoder, and
        // an encoding that decodes to a different (commuted) instruction.
        let wide = Rule {
            guest: vec![AI::dp(DpOp::Eor, ArmReg::R5, ArmReg::R5, Operand2::Imm(0x1000))],
            ..imm_rule()
        };
        let chain = Rule {
            guest: vec![AI::dp(DpOp::Sub, ArmReg::R7, ArmReg::R7, Operand2::Imm(5))],
            host: vec![XI::ChainJmp { block: 7 }],
            ..imm_rule()
        };
        let test_rm = XI::Alu {
            op: AluOp::Test,
            dst: Operand::Reg(Gpr::Ecx),
            src: Operand::Mem(X86Mem::base(Gpr::Edx)),
        };
        let commuted = Rule {
            guest: vec![AI::dp(DpOp::Orr, ArmReg::R6, ArmReg::R6, Operand2::Imm(1))],
            host: vec![test_rm],
            ..imm_rule()
        };
        let (mut rs, mut cache) = sample_db();
        let (want_rules, want_cache) = (to_bytes(&rs, &VerifyCache::new()), to_bytes(&rs, &cache));
        for (n, bad) in [wide, chain, commuted].into_iter().enumerate() {
            assert!(rs.insert(bad.clone()));
            cache.insert(format!("sig-bad-{n}"), VerifyOutcome::Learned(bad.clone()));
            // The tie-break still renders such a rule, deterministically.
            assert_eq!(rule_bytes(&bad), rule_bytes(&bad.clone()));
        }
        let db = from_bytes(&to_bytes(&rs, &cache)).expect("the storable rest loads");
        assert_eq!((db.rules.len(), db.cache.len()), (2, sample_db().1.len()));
        // Every other entry loads as if the refused ones had never been
        // there.
        assert_eq!(to_bytes(&db.rules, &VerifyCache::new()), want_rules);
        assert_eq!(to_bytes(&db.rules, &db.cache), want_cache);
    }

    #[test]
    fn serialization_is_deterministic() {
        let (rs, cache) = sample_db();
        assert_eq!(to_bytes(&rs, &cache), to_bytes(&rs, &cache));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (rs, cache) = sample_db();
        let mut bytes = to_bytes(&rs, &cache);
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(DbError::BadMagic)));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (rs, cache) = sample_db();
        // The next version, and the structural version 2 this one replaced.
        for v in [FORMAT_VERSION + 1, 2] {
            let mut bytes = to_bytes(&rs, &cache);
            bytes[8..12].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(from_bytes(&bytes), Err(DbError::Version(got)) if got == v));
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let (rs, cache) = sample_db();
        let mut bytes = to_bytes(&rs, &cache);
        bytes[12] ^= 0xff;
        assert!(matches!(from_bytes(&bytes), Err(DbError::Fingerprint { .. })));
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let (rs, cache) = sample_db();
        let bytes = to_bytes(&rs, &cache);
        // Flip one payload byte: the checksum catches it.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(from_bytes(&flipped), Err(DbError::Corrupt(_))));
        // Re-sealed around a corrupted payload, decoding still rejects
        // structurally invalid bytes: here the condition nibble of the
        // first rule's first ARM word (after `prefer_shorter`, the rule
        // count and the guest count) driven to the reserved 0b1111.
        let mut recond = bytes.clone();
        recond[36 + 1 + 4 + 4 + 3] |= 0xf0;
        reseal(&mut recond);
        assert!(matches!(from_bytes(&recond), Err(DbError::Corrupt("bad arm instruction"))));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let (rs, cache) = sample_db();
        let bytes = to_bytes(&rs, &cache);
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "a file cut to {cut} bytes must not load");
            // Re-sealed, the cut reaches the decoder, which must refuse
            // it too: nothing of a payload is optional.
            if cut > 36 {
                let mut sealed = bytes[..cut].to_vec();
                reseal(&mut sealed);
                assert!(from_bytes(&sealed).is_err(), "a payload cut to {cut} bytes must not load");
            }
        }
    }

    #[test]
    fn tag_tables_list_every_variant() {
        // Each `let` pattern names every variant of its type, so adding
        // one fails to compile here: append it to its table as well.
        for v in [ImmSlot::Data, ImmSlot::MemOffset] {
            let (ImmSlot::Data | ImmSlot::MemOffset) = v;
            assert!(IMM_SLOTS.contains(&v), "{v:?}");
        }
        for v in [ImmRel::Id, ImmRel::Neg, ImmRel::Not] {
            let (ImmRel::Id | ImmRel::Neg | ImmRel::Not) = v;
            assert!(IMM_RELS.contains(&v), "{v:?}");
        }
        for v in
            [VerifyFail::Registers, VerifyFail::Memory, VerifyFail::Branch, VerifyFail::Other("")]
        {
            let (VerifyFail::Registers
            | VerifyFail::Memory
            | VerifyFail::Branch
            | VerifyFail::Other(_)) = v;
            assert!(FAILS.contains(&v), "{v:?}");
        }
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let (rs, cache) = sample_db();
        let dir = std::env::temp_dir().join(format!("ldbt-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("rules.db");
        save(&path, &rs, &cache).expect("save succeeds");
        let db = load(&path).expect("load succeeds");
        assert_eq!(to_bytes(&db.rules, &db.cache), to_bytes(&rs, &cache));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = Path::new("/nonexistent/ldbt-rules.db");
        assert!(matches!(load(path), Err(DbError::Io(_))));
    }
}
