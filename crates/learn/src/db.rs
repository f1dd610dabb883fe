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
//! spirit of `ldbt-obs`'s hand-rolled JSON): every enum gets an explicit
//! tag in declaration order, every struct is written field by field, and
//! collections are length-prefixed. Serialization is *structural*, not
//! machine encoding — `X86Instr::Jcc` targets are instruction-relative
//! indices, not byte displacements, and must round-trip exactly as the
//! translator sees them.
//!
//! ## File layout
//!
//! | field        | size | meaning                                        |
//! |--------------|------|------------------------------------------------|
//! | magic        | 8    | `"LDBTRUDB"`                                   |
//! | version      | 4    | [`FORMAT_VERSION`], little-endian              |
//! | fingerprint  | 8    | [`isa_fingerprint`] of the builder             |
//! | payload len  | 8    | byte length of the payload                     |
//! | checksum     | 8    | FNV-1a ([`sig_hash`]) over the payload bytes   |
//! | payload      | n    | rule set, then memo cache                      |
//!
//! A reader rejects (and the caller falls back to fresh learning) on bad
//! magic, a version it does not speak, a fingerprint produced by a
//! different ISA model, a checksum mismatch, a short file, or any
//! malformed payload — a stale or corrupt database must never load
//! half-way.
//!
//! Writing is deterministic: rules serialize in [`RuleSet::iter`] order
//! (canonical for any construction order), tombstone keys and the
//! `host_reg_of` map are sorted, and memo entries are sorted by
//! signature. Byte-identical inputs produce byte-identical files, which
//! the warm-start CI gate relies on.

use crate::cache::{sig_hash, VerifyCache, VerifyOutcome};
use crate::rule::{ImmParam, ImmRel, ImmSlot, Rule, RuleSet};
use crate::verify::VerifyFail;
use ldbt_arm::{AddrMode, ArmInstr, ArmReg, Cond, DpOp, Operand2, Shift};
use ldbt_isa::Width;
use ldbt_x86::{AluOp, Cc, Gpr, Operand, ShiftOp, UnOp, X86Instr, X86Mem};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// On-disk magic, first 8 bytes of every database file.
pub const MAGIC: &[u8; 8] = b"LDBTRUDB";

/// Format version this build reads and writes. Version 2 stores
/// tombstones under the FNV-1a [`crate::Rule::stable_key`]; version 1
/// used std's unspecified `DefaultHasher` and is rejected.
pub const FORMAT_VERSION: u32 = 2;

/// Fingerprint of the ISA model the database was built against.
///
/// Hashes the variant counts of every serialized enum, so growing any
/// instruction-set enum (which would shift the tags below) automatically
/// invalidates existing databases instead of mis-decoding them.
pub fn isa_fingerprint() -> u64 {
    let text = format!(
        "ldbt-rule-db;arm:instr8,op2-3,shift4,addr3,dp{},cond{},reg{};\
         x86:instr20,operand3,alu{},shiftop3,unop4,cc{},gpr{};\
         width{};immrel3,immslot2,verifyfail4,outcome2",
        DpOp::ALL.len(),
        Cond::ALL.len(),
        ArmReg::ALL.len(),
        AluOp::ALL.len(),
        Cc::ALL.len(),
        Gpr::ALL.len(),
        Width::ALL.len(),
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
    /// tag, invalid UTF-8, trailing bytes, …).
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

/// The database path configured via `LDBT_RULEDB` (empty/unset → none).
pub fn env_path() -> Option<PathBuf> {
    match std::env::var("LDBT_RULEDB") {
        Ok(s) if !s.is_empty() => Some(PathBuf::from(s)),
        _ => None,
    }
}

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
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One rule in the payload encoding: injective and independent of
/// `HashMap` order, which makes it the store's last-resort tie-break.
pub(crate) fn rule_bytes(rule: &Rule) -> Vec<u8> {
    let mut w = W::default();
    w.rule(rule);
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
    if checksum(payload) != sum {
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

/// FNV-1a over raw payload bytes (the string hash from `cache`, reused
/// byte-wise).
fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    fn i32(&mut self, v: i32) {
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

    fn arm_reg(&mut self, r: ArmReg) {
        self.u8(r.index() as u8);
    }
    fn gpr(&mut self, g: Gpr) {
        self.u8(g.index() as u8);
    }
    fn cond(&mut self, c: Cond) {
        self.u8(Cond::ALL.iter().position(|x| *x == c).expect("cond in ALL") as u8);
    }
    fn dp_op(&mut self, op: DpOp) {
        self.u8(DpOp::ALL.iter().position(|x| *x == op).expect("dp op in ALL") as u8);
    }
    fn alu_op(&mut self, op: AluOp) {
        self.u8(AluOp::ALL.iter().position(|x| *x == op).expect("alu op in ALL") as u8);
    }
    fn cc(&mut self, cc: Cc) {
        self.u8(Cc::ALL.iter().position(|x| *x == cc).expect("cc in ALL") as u8);
    }
    fn width(&mut self, w: Width) {
        self.u8(Width::ALL.iter().position(|x| *x == w).expect("width in ALL") as u8);
    }
    fn shift(&mut self, s: Shift) {
        match s {
            Shift::Lsl(a) => (self.u8(0), self.u8(a)),
            Shift::Lsr(a) => (self.u8(1), self.u8(a)),
            Shift::Asr(a) => (self.u8(2), self.u8(a)),
            Shift::Ror(a) => (self.u8(3), self.u8(a)),
        };
    }
    fn operand2(&mut self, op2: Operand2) {
        match op2 {
            Operand2::Imm(v) => {
                self.u8(0);
                self.u32(v);
            }
            Operand2::Reg(r) => {
                self.u8(1);
                self.arm_reg(r);
            }
            Operand2::RegShift(r, s) => {
                self.u8(2);
                self.arm_reg(r);
                self.shift(s);
            }
        }
    }
    fn addr_mode(&mut self, a: AddrMode) {
        match a {
            AddrMode::Imm(rn, off) => {
                self.u8(0);
                self.arm_reg(rn);
                self.i32(off);
            }
            AddrMode::Reg(rn, rm) => {
                self.u8(1);
                self.arm_reg(rn);
                self.arm_reg(rm);
            }
            AddrMode::RegShift(rn, rm, s) => {
                self.u8(2);
                self.arm_reg(rn);
                self.arm_reg(rm);
                self.u8(s);
            }
        }
    }

    fn arm_instr(&mut self, i: &ArmInstr) {
        match *i {
            ArmInstr::Dp { op, rd, rn, op2, set_flags, cond } => {
                self.u8(0);
                self.dp_op(op);
                self.arm_reg(rd);
                self.arm_reg(rn);
                self.operand2(op2);
                self.boolean(set_flags);
                self.cond(cond);
            }
            ArmInstr::Mul { rd, rn, rm, set_flags, cond } => {
                self.u8(1);
                self.arm_reg(rd);
                self.arm_reg(rn);
                self.arm_reg(rm);
                self.boolean(set_flags);
                self.cond(cond);
            }
            ArmInstr::Ldr { rt, addr, width, signed, cond } => {
                self.u8(2);
                self.arm_reg(rt);
                self.addr_mode(addr);
                self.width(width);
                self.boolean(signed);
                self.cond(cond);
            }
            ArmInstr::Str { rt, addr, width, cond } => {
                self.u8(3);
                self.arm_reg(rt);
                self.addr_mode(addr);
                self.width(width);
                self.cond(cond);
            }
            ArmInstr::B { offset, cond } => {
                self.u8(4);
                self.i32(offset);
                self.cond(cond);
            }
            ArmInstr::Bl { offset, cond } => {
                self.u8(5);
                self.i32(offset);
                self.cond(cond);
            }
            ArmInstr::Bx { rm, cond } => {
                self.u8(6);
                self.arm_reg(rm);
                self.cond(cond);
            }
            ArmInstr::Svc { imm, cond } => {
                self.u8(7);
                self.u32(imm);
                self.cond(cond);
            }
        }
    }

    fn x86_mem(&mut self, m: &X86Mem) {
        match m.base {
            Some(b) => {
                self.u8(1);
                self.gpr(b);
            }
            None => self.u8(0),
        }
        match m.index {
            Some((r, scale)) => {
                self.u8(1);
                self.gpr(r);
                self.u8(scale);
            }
            None => self.u8(0),
        }
        self.i32(m.disp);
    }
    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Reg(g) => {
                self.u8(0);
                self.gpr(*g);
            }
            Operand::Imm(v) => {
                self.u8(1);
                self.i32(*v);
            }
            Operand::Mem(m) => {
                self.u8(2);
                self.x86_mem(m);
            }
        }
    }

    fn x86_instr(&mut self, i: &X86Instr) {
        match *i {
            X86Instr::Mov { dst, src } => {
                self.u8(0);
                self.operand(&dst);
                self.operand(&src);
            }
            X86Instr::Alu { op, dst, src } => {
                self.u8(1);
                self.alu_op(op);
                self.operand(&dst);
                self.operand(&src);
            }
            X86Instr::Lea { dst, addr } => {
                self.u8(2);
                self.gpr(dst);
                self.x86_mem(&addr);
            }
            X86Instr::Imul { dst, src } => {
                self.u8(3);
                self.gpr(dst);
                self.operand(&src);
            }
            X86Instr::Shift { op, dst, count } => {
                self.u8(4);
                self.u8(match op {
                    ShiftOp::Shl => 0,
                    ShiftOp::Shr => 1,
                    ShiftOp::Sar => 2,
                });
                self.operand(&dst);
                self.u8(count);
            }
            X86Instr::Un { op, dst } => {
                self.u8(5);
                self.u8(match op {
                    UnOp::Neg => 0,
                    UnOp::Not => 1,
                    UnOp::Inc => 2,
                    UnOp::Dec => 3,
                });
                self.operand(&dst);
            }
            X86Instr::Movx { sign, width, dst, src } => {
                self.u8(6);
                self.boolean(sign);
                self.width(width);
                self.gpr(dst);
                self.operand(&src);
            }
            X86Instr::MovStore { width, src, dst } => {
                self.u8(7);
                self.width(width);
                self.gpr(src);
                self.x86_mem(&dst);
            }
            X86Instr::Setcc { cc, dst } => {
                self.u8(8);
                self.cc(cc);
                self.gpr(dst);
            }
            X86Instr::Jcc { cc, target } => {
                self.u8(9);
                self.cc(cc);
                self.i32(target);
            }
            X86Instr::Jmp { target } => {
                self.u8(10);
                self.i32(target);
            }
            X86Instr::JmpInd { src } => {
                self.u8(11);
                self.operand(&src);
            }
            X86Instr::Call { target } => {
                self.u8(12);
                self.i32(target);
            }
            X86Instr::Ret => self.u8(13),
            X86Instr::Push { src } => {
                self.u8(14);
                self.operand(&src);
            }
            X86Instr::Pop { dst } => {
                self.u8(15);
                self.operand(&dst);
            }
            X86Instr::Pushfd => self.u8(16),
            X86Instr::Popfd => self.u8(17),
            X86Instr::Halt => self.u8(18),
            X86Instr::ChainJmp { block } => {
                self.u8(19);
                self.u32(block);
            }
            X86Instr::Trap => self.u8(20),
        }
    }

    fn imm_slot(&mut self, s: ImmSlot) {
        self.u8(match s {
            ImmSlot::Data => 0,
            ImmSlot::MemOffset => 1,
        });
    }
    fn imm_site(&mut self, site: (usize, ImmSlot)) {
        self.len(site.0);
        self.imm_slot(site.1);
    }
    fn imm_param(&mut self, p: &ImmParam) {
        self.imm_site(p.guest_site);
        self.len(p.extra_guest_sites.len());
        for &s in &p.extra_guest_sites {
            self.imm_site(s);
        }
        self.i64(p.template_value);
        self.len(p.host_sites.len());
        for &(idx, slot, rel) in &p.host_sites {
            self.len(idx);
            self.imm_slot(slot);
            self.u8(match rel {
                ImmRel::Id => 0,
                ImmRel::Neg => 1,
                ImmRel::Not => 2,
            });
        }
    }

    fn rule(&mut self, r: &Rule) {
        self.len(r.guest.len());
        for i in &r.guest {
            self.arm_instr(i);
        }
        self.len(r.host.len());
        for i in &r.host {
            self.x86_instr(i);
        }
        // HashMap: sort by host register index for deterministic bytes.
        let mut pairs: Vec<(Gpr, ArmReg)> = r.host_reg_of.iter().map(|(g, a)| (*g, *a)).collect();
        pairs.sort_by_key(|(g, _)| g.index());
        self.len(pairs.len());
        for (g, a) in pairs {
            self.gpr(g);
            self.arm_reg(a);
        }
        self.len(r.imm_params.len());
        for p in &r.imm_params {
            self.imm_param(p);
        }
        self.u8(r.unemulated_flags);
        self.boolean(r.has_branch);
    }

    fn rule_set(&mut self, rs: &RuleSet) {
        self.boolean(rs.prefer_shorter);
        self.len(rs.len());
        for r in rs.iter() {
            self.rule(r);
        }
        let keys = rs.tombstoned_keys();
        self.len(keys.len());
        for k in keys {
            self.u64(k);
        }
    }

    fn cache(&mut self, cache: &VerifyCache) {
        let mut entries: Vec<(&str, &VerifyOutcome)> = cache.iter().collect();
        entries.sort_by_key(|(sig, _)| *sig);
        self.len(entries.len());
        for (sig, outcome) in entries {
            self.string(sig);
            match outcome {
                VerifyOutcome::Learned(r) => {
                    self.u8(0);
                    self.rule(r);
                }
                VerifyOutcome::Failed(f) => {
                    self.u8(1);
                    match f {
                        VerifyFail::Registers => self.u8(0),
                        VerifyFail::Memory => self.u8(1),
                        VerifyFail::Branch => self.u8(2),
                        VerifyFail::Other(why) => {
                            self.u8(3);
                            self.string(why);
                        }
                    }
                }
            }
        }
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
    fn i32(&mut self) -> Res<i32> {
        Ok(i32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
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

    fn pick<T: Copy>(&mut self, all: &[T], what: &'static str) -> Res<T> {
        let tag = self.u8()? as usize;
        all.get(tag).copied().ok_or(DbError::Corrupt(what))
    }
    fn arm_reg(&mut self) -> Res<ArmReg> {
        self.pick(&ArmReg::ALL, "bad arm reg")
    }
    fn gpr(&mut self) -> Res<Gpr> {
        self.pick(&Gpr::ALL, "bad gpr")
    }
    fn cond(&mut self) -> Res<Cond> {
        self.pick(&Cond::ALL, "bad cond")
    }
    fn dp_op(&mut self) -> Res<DpOp> {
        self.pick(&DpOp::ALL, "bad dp op")
    }
    fn alu_op(&mut self) -> Res<AluOp> {
        self.pick(&AluOp::ALL, "bad alu op")
    }
    fn cc(&mut self) -> Res<Cc> {
        self.pick(&Cc::ALL, "bad cc")
    }
    fn width(&mut self) -> Res<Width> {
        self.pick(&Width::ALL, "bad width")
    }
    fn shift(&mut self) -> Res<Shift> {
        let tag = self.u8()?;
        let a = self.u8()?;
        Ok(match tag {
            0 => Shift::Lsl(a),
            1 => Shift::Lsr(a),
            2 => Shift::Asr(a),
            3 => Shift::Ror(a),
            _ => return Err(DbError::Corrupt("bad shift")),
        })
    }
    fn operand2(&mut self) -> Res<Operand2> {
        Ok(match self.u8()? {
            0 => Operand2::Imm(self.u32()?),
            1 => Operand2::Reg(self.arm_reg()?),
            2 => Operand2::RegShift(self.arm_reg()?, self.shift()?),
            _ => return Err(DbError::Corrupt("bad operand2")),
        })
    }
    fn addr_mode(&mut self) -> Res<AddrMode> {
        Ok(match self.u8()? {
            0 => AddrMode::Imm(self.arm_reg()?, self.i32()?),
            1 => AddrMode::Reg(self.arm_reg()?, self.arm_reg()?),
            2 => AddrMode::RegShift(self.arm_reg()?, self.arm_reg()?, self.u8()?),
            _ => return Err(DbError::Corrupt("bad addr mode")),
        })
    }

    fn arm_instr(&mut self) -> Res<ArmInstr> {
        Ok(match self.u8()? {
            0 => ArmInstr::Dp {
                op: self.dp_op()?,
                rd: self.arm_reg()?,
                rn: self.arm_reg()?,
                op2: self.operand2()?,
                set_flags: self.boolean()?,
                cond: self.cond()?,
            },
            1 => ArmInstr::Mul {
                rd: self.arm_reg()?,
                rn: self.arm_reg()?,
                rm: self.arm_reg()?,
                set_flags: self.boolean()?,
                cond: self.cond()?,
            },
            2 => ArmInstr::Ldr {
                rt: self.arm_reg()?,
                addr: self.addr_mode()?,
                width: self.width()?,
                signed: self.boolean()?,
                cond: self.cond()?,
            },
            3 => ArmInstr::Str {
                rt: self.arm_reg()?,
                addr: self.addr_mode()?,
                width: self.width()?,
                cond: self.cond()?,
            },
            4 => ArmInstr::B { offset: self.i32()?, cond: self.cond()? },
            5 => ArmInstr::Bl { offset: self.i32()?, cond: self.cond()? },
            6 => ArmInstr::Bx { rm: self.arm_reg()?, cond: self.cond()? },
            7 => ArmInstr::Svc { imm: self.u32()?, cond: self.cond()? },
            _ => return Err(DbError::Corrupt("bad arm instr tag")),
        })
    }

    fn x86_mem(&mut self) -> Res<X86Mem> {
        let base = match self.u8()? {
            0 => None,
            1 => Some(self.gpr()?),
            _ => return Err(DbError::Corrupt("bad mem base tag")),
        };
        let index = match self.u8()? {
            0 => None,
            1 => Some((self.gpr()?, self.u8()?)),
            _ => return Err(DbError::Corrupt("bad mem index tag")),
        };
        Ok(X86Mem { base, index, disp: self.i32()? })
    }
    fn operand(&mut self) -> Res<Operand> {
        Ok(match self.u8()? {
            0 => Operand::Reg(self.gpr()?),
            1 => Operand::Imm(self.i32()?),
            2 => Operand::Mem(self.x86_mem()?),
            _ => return Err(DbError::Corrupt("bad operand")),
        })
    }

    fn x86_instr(&mut self) -> Res<X86Instr> {
        Ok(match self.u8()? {
            0 => X86Instr::Mov { dst: self.operand()?, src: self.operand()? },
            1 => X86Instr::Alu { op: self.alu_op()?, dst: self.operand()?, src: self.operand()? },
            2 => X86Instr::Lea { dst: self.gpr()?, addr: self.x86_mem()? },
            3 => X86Instr::Imul { dst: self.gpr()?, src: self.operand()? },
            4 => X86Instr::Shift {
                op: match self.u8()? {
                    0 => ShiftOp::Shl,
                    1 => ShiftOp::Shr,
                    2 => ShiftOp::Sar,
                    _ => return Err(DbError::Corrupt("bad shift op")),
                },
                dst: self.operand()?,
                count: self.u8()?,
            },
            5 => X86Instr::Un {
                op: match self.u8()? {
                    0 => UnOp::Neg,
                    1 => UnOp::Not,
                    2 => UnOp::Inc,
                    3 => UnOp::Dec,
                    _ => return Err(DbError::Corrupt("bad un op")),
                },
                dst: self.operand()?,
            },
            6 => X86Instr::Movx {
                sign: self.boolean()?,
                width: self.width()?,
                dst: self.gpr()?,
                src: self.operand()?,
            },
            7 => {
                X86Instr::MovStore { width: self.width()?, src: self.gpr()?, dst: self.x86_mem()? }
            }
            8 => X86Instr::Setcc { cc: self.cc()?, dst: self.gpr()? },
            9 => X86Instr::Jcc { cc: self.cc()?, target: self.i32()? },
            10 => X86Instr::Jmp { target: self.i32()? },
            11 => X86Instr::JmpInd { src: self.operand()? },
            12 => X86Instr::Call { target: self.i32()? },
            13 => X86Instr::Ret,
            14 => X86Instr::Push { src: self.operand()? },
            15 => X86Instr::Pop { dst: self.operand()? },
            16 => X86Instr::Pushfd,
            17 => X86Instr::Popfd,
            18 => X86Instr::Halt,
            19 => X86Instr::ChainJmp { block: self.u32()? },
            20 => X86Instr::Trap,
            _ => return Err(DbError::Corrupt("bad x86 instr tag")),
        })
    }

    fn imm_slot(&mut self) -> Res<ImmSlot> {
        Ok(match self.u8()? {
            0 => ImmSlot::Data,
            1 => ImmSlot::MemOffset,
            _ => return Err(DbError::Corrupt("bad imm slot")),
        })
    }
    fn imm_site(&mut self) -> Res<(usize, ImmSlot)> {
        Ok((self.len()?, self.imm_slot()?))
    }
    fn imm_param(&mut self) -> Res<ImmParam> {
        let guest_site = self.imm_site()?;
        let n_extra = self.len()?;
        let mut extra_guest_sites = Vec::with_capacity(n_extra);
        for _ in 0..n_extra {
            extra_guest_sites.push(self.imm_site()?);
        }
        let template_value = self.i64()?;
        let n_host = self.len()?;
        let mut host_sites = Vec::with_capacity(n_host);
        for _ in 0..n_host {
            let idx = self.len()?;
            let slot = self.imm_slot()?;
            let rel = match self.u8()? {
                0 => ImmRel::Id,
                1 => ImmRel::Neg,
                2 => ImmRel::Not,
                _ => return Err(DbError::Corrupt("bad imm rel")),
            };
            host_sites.push((idx, slot, rel));
        }
        Ok(ImmParam { guest_site, extra_guest_sites, template_value, host_sites })
    }

    fn rule(&mut self) -> Res<Rule> {
        let n_guest = self.len()?;
        let mut guest = Vec::with_capacity(n_guest);
        for _ in 0..n_guest {
            guest.push(self.arm_instr()?);
        }
        let n_host = self.len()?;
        let mut host = Vec::with_capacity(n_host);
        for _ in 0..n_host {
            host.push(self.x86_instr()?);
        }
        let n_regs = self.len()?;
        let mut host_reg_of = HashMap::with_capacity(n_regs);
        for _ in 0..n_regs {
            let g = self.gpr()?;
            let a = self.arm_reg()?;
            host_reg_of.insert(g, a);
        }
        let n_params = self.len()?;
        let mut imm_params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            imm_params.push(self.imm_param()?);
        }
        let unemulated_flags = self.u8()?;
        let has_branch = self.boolean()?;
        Ok(Rule { guest, host, host_reg_of, imm_params, unemulated_flags, has_branch })
    }

    fn rule_set(&mut self) -> Res<RuleSet> {
        let prefer_shorter = self.boolean()?;
        let mut rs = if prefer_shorter { RuleSet::new() } else { RuleSet::new_first_found() };
        let n = self.len()?;
        for _ in 0..n {
            let rule = self.rule()?;
            // The source set was deduplicated, so every serialized rule
            // must insert cleanly; a collision means the payload lies.
            if !rs.insert(rule) {
                return Err(DbError::Corrupt("duplicate rule"));
            }
        }
        let n_tomb = self.len()?;
        for _ in 0..n_tomb {
            let key = self.u64()?;
            rs.tombstone(key);
        }
        Ok(rs)
    }

    fn cache(&mut self) -> Res<VerifyCache> {
        let n = self.len()?;
        let mut cache = VerifyCache::new();
        for _ in 0..n {
            let sig = self.string()?;
            let outcome = match self.u8()? {
                0 => VerifyOutcome::Learned(self.rule()?),
                1 => VerifyOutcome::Failed(match self.u8()? {
                    0 => VerifyFail::Registers,
                    1 => VerifyFail::Memory,
                    2 => VerifyFail::Branch,
                    3 => VerifyFail::Other(intern_reason(&self.string()?)),
                    _ => return Err(DbError::Corrupt("bad verify fail")),
                }),
                _ => return Err(DbError::Corrupt("bad outcome tag")),
            };
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
    use ldbt_x86::X86Instr as XI;

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
                XI::Jcc { cc: Cc::Ne, target: 1 },
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
        let mut bytes = to_bytes(&rs, &cache);
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(DbError::Version(v)) if v == FORMAT_VERSION + 1));
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
        // Fix up the checksum over a corrupted payload: decoding still
        // rejects structurally invalid bytes (here, an enum tag driven
        // out of range).
        let mut retagged = bytes.clone();
        retagged[37] = 0xee; // inside the first rule's encoding
        let sum = super::checksum(&retagged[36..]);
        retagged[28..36].copy_from_slice(&sum.to_le_bytes());
        assert!(from_bytes(&retagged).is_err());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let (rs, cache) = sample_db();
        let bytes = to_bytes(&rs, &cache);
        for cut in [0, 4, 12, 30, 36, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "a file cut to {cut} bytes must not load");
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

    #[test]
    fn env_path_requires_a_nonempty_value() {
        // Not set in the test environment (tier1 runs tests without it).
        if std::env::var("LDBT_RULEDB").is_err() {
            assert!(env_path().is_none());
        }
    }
}
