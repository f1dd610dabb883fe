//! The emulation environment: guest state held in host memory, plus the
//! parse table for the runtime knobs.
//!
//! Like QEMU, the DBT keeps the guest register file and condition flags
//! in a host memory block (`env`); translated code loads guest registers
//! into host registers on demand and writes dirty ones back at block
//! boundaries.
//!
//! The `LDBT_*` knobs that change what a run computes live here too, as
//! one table ([`KNOBS`]) resolved into one [`Config`], so every default
//! follows one documented convention: unset / empty / garbage always
//! resolve to the knob's default, never to a surprise mode.

use crate::api::{RunOutcome, TrapKind};
use crate::engine::Engine;
use ldbt_arm::{ArmEvent, ArmInstr, ArmReg, ArmState, Flags};
use ldbt_isa::{Memory, Width};
use ldbt_learn::{FaultPlan, LearnConfig};
use ldbt_x86::{EFlags, X86Mem};
use std::path::PathBuf;

/// Base address of the env block.
pub const ENV_BASE: u32 = 0x00f0_0000;
/// Host stack for translated code (`%esp` initial value, grows down).
pub const HOST_STACK_TOP: u32 = 0x00e8_0000;
/// Exclusive upper bound of the guest address space. Everything at or
/// above — the host stack guard band, the host stack, the env — belongs
/// to the host: a guest load or store landing here traps instead of
/// silently aliasing host state. The watchdog's memory compare has
/// always excluded this region; the trap check turns the same boundary
/// into an architectural fault.
pub const GUEST_MEM_LIMIT: u32 = HOST_STACK_TOP - 0x1_0000;

/// Byte offset of guest register `r` within the env.
pub fn reg_offset(r: ArmReg) -> u32 {
    4 * r.index() as u32
}

/// One guest condition flag, in env order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlagId {
    /// Negative.
    N,
    /// Zero.
    Z,
    /// Carry (ARM polarity).
    C,
    /// Overflow.
    V,
}

impl FlagId {
    /// All flags, env order.
    pub const ALL: [FlagId; 4] = [FlagId::N, FlagId::Z, FlagId::C, FlagId::V];

    /// The flag's NZCV mask bit (N=8, Z=4, C=2, V=1).
    pub fn mask(self) -> u8 {
        match self {
            FlagId::N => 0b1000,
            FlagId::Z => 0b0100,
            FlagId::C => 0b0010,
            FlagId::V => 0b0001,
        }
    }

    /// Byte offset of the flag's env slot (each slot holds 0 or 1).
    pub fn offset(self) -> u32 {
        0x40 + 4 * match self {
            FlagId::N => 0,
            FlagId::Z => 1,
            FlagId::C => 2,
            FlagId::V => 3,
        }
    }
}

/// Env slot holding saved host EFLAGS (`pushfd` image) for lazily-saved
/// condition codes (paper §5).
pub const HOSTFLAGS_OFFSET: u32 = 0x50;
/// Env slot: flag mode. Bit 0: 1 = `HOSTFLAGS` is authoritative, 0 = the
/// NZCV slots are. Bit 1: carry polarity of the saved flags (0 = ARM C is
/// ¬CF, subtraction-style; 1 = ARM C is CF, addition-style).
pub const FLAGMODE_OFFSET: u32 = 0x54;
/// Start of the spill area for translated-code temporaries.
pub const SPILL_OFFSET: u32 = 0x80;
/// Number of temp spill slots.
pub const SPILL_SLOTS: u32 = 16;

/// An absolute-address memory operand for an env slot.
pub fn env_mem(offset: u32) -> X86Mem {
    X86Mem::absolute((ENV_BASE + offset) as i32)
}

/// The env slot of a guest register.
pub fn reg_mem(r: ArmReg) -> X86Mem {
    env_mem(reg_offset(r))
}

/// The env slot of a guest flag.
pub fn flag_mem(f: FlagId) -> X86Mem {
    env_mem(f.offset())
}

/// Read the guest register file and condition flags out of the env in
/// `mem` into an interpreter state that takes ownership of the memory.
/// With a §5 lazy flag save pending (flag-mode bit 0) the NZCV slots are
/// stale and the live flags sit in the saved host EFLAGS word:
/// materialize them the way the flag-mode dispatch stub does (N↔SF, Z↔ZF,
/// V↔OF; mode bit 1 selects the carry polarity).
pub(crate) fn load_guest(mem: Memory) -> ArmState {
    let word = |offset: u32| mem.read(ENV_BASE + offset, Width::W32);
    let regs = ArmReg::ALL.map(|r| word(reg_offset(r)));
    let flagmode = word(FLAGMODE_OFFSET);
    let flags = if flagmode & 1 != 0 {
        let f = EFlags::from_word(word(HOSTFLAGS_OFFSET));
        Flags { n: f.sf, z: f.zf, c: if flagmode & 2 != 0 { f.cf } else { !f.cf }, v: f.of }
    } else {
        let slot = |f: FlagId| word(f.offset()) != 0;
        Flags { n: slot(FlagId::N), z: slot(FlagId::Z), c: slot(FlagId::C), v: slot(FlagId::V) }
    };
    ArmState { regs, flags, trap_limit: Some(GUEST_MEM_LIMIT), mem }
}

/// Write an interpreter state's registers — and, with `flags`, its
/// condition flags into the NZCV slots, which become authoritative (flag
/// mode 0) — back into the env, and hand the memory back.
pub(crate) fn store_guest(arm: &mut ArmState, flags: bool) -> Memory {
    for r in ArmReg::ALL {
        arm.mem.write(ENV_BASE + reg_offset(r), arm.regs[r.index()], Width::W32);
    }
    if flags {
        let f = arm.flags;
        for (id, on) in [(FlagId::N, f.n), (FlagId::Z, f.z), (FlagId::C, f.c), (FlagId::V, f.v)] {
            arm.mem.write(ENV_BASE + id.offset(), on as u32, Width::W32);
        }
        arm.mem.write(ENV_BASE + FLAGMODE_OFFSET, 0, Width::W32);
    }
    std::mem::take(&mut arm.mem)
}

/// Execute one guest instruction, located at `pc`, on the interpreter:
/// the pc execution continues at and whether control transferred there,
/// or how the instruction ended the run. A trap reports the pc of the
/// trapping instruction — the interpreter's contract; an out-of-range
/// access is checked before it happens, so the faulting instruction had
/// no side effect and the registers are still the pre-instruction ones.
pub(crate) fn step_guest(
    arm: &mut ArmState,
    instr: &ArmInstr,
    pc: u32,
) -> Result<(u32, bool), RunOutcome> {
    let next = pc.wrapping_add(4);
    let target = |off: i32| next.wrapping_add((off as u32).wrapping_mul(4));
    match arm.exec(instr) {
        ArmEvent::Next => Ok((next, false)),
        ArmEvent::Branch(off) => Ok((target(off), true)),
        ArmEvent::Call(off) => {
            arm.set_reg(ArmReg::Lr, next);
            Ok((target(off), true))
        }
        ArmEvent::Indirect(a) => Ok((a, true)),
        ArmEvent::Syscall(0) => Err(RunOutcome::Halted),
        ArmEvent::Syscall(n) => Err(RunOutcome::Trap { pc, cause: TrapKind::Svc(n) }),
        ArmEvent::Trap(a) => Err(RunOutcome::Trap { pc, cause: TrapKind::Mem(a) }),
    }
}

/// Default superblock formation threshold: a chain head must be
/// dispatched this many times before the engine forms a region from it.
pub const SB_THRESHOLD_DEFAULT: u64 = 64;

/// How a variable's raw environment value resolves. Numeric values are
/// trimmed first; every kind sends unset and `""` to its default, never
/// to a surprise mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KnobKind {
    /// Kill switch spelled negatively (`LDBT_NO*`): unset, `""`, `0` and
    /// `off` keep the feature **on** (1); any other value, garbage
    /// included, turns it off (0) — an unrecognized value fails toward
    /// the measurement mode the user was reaching for.
    Disabler,
    /// Default-on switch spelled positively: only an explicit `0`/`off`
    /// turns it off (0); garbage keeps the default (1).
    Enabler,
    /// Sampling period: `on` is 1, an integer N > 0 is N; unset, `""`,
    /// `0`, `off` and garbage disable (0) — garbage is not a period.
    Period,
    /// Positive integer; unset, `""`, `0`, garbage and overflow all
    /// resolve to the default.
    Count,
    /// A fault plan, `<site>[:<seed>]` taken verbatim
    /// ([`FaultPlan::parse`]); anything else arms nothing.
    Fault,
    /// A file path, trimmed; blank is none.
    Path,
}

/// Every [`Config`] variable as `(variable, kind, default)`, in field
/// order (a default only means something for the numeric kinds):
///
/// | variable            | effect                                           |
/// |---------------------|--------------------------------------------------|
/// | `LDBT_WATCHDOG`     | differential cross-check every Nth rule-covered dispatch (default off) |
/// | `LDBT_NOCHAIN`      | block-chaining kill switch for A/B measurement   |
/// | `LDBT_NOSB`         | superblock-formation kill switch                 |
/// | `LDBT_SB_THRESHOLD` | dispatches of a chain head before a region forms |
/// | `LDBT_NORA`         | region register-allocation kill switch (superblocks still form, env accesses stay through home slots) |
/// | `LDBT_NOFUSE`       | guest memory-access fusion kill switch (superblocks still form, every guest memory access stays explicit) |
/// | `LDBT_NOSMC`        | self-modifying-code protection kill switch (guest stores into translated code go unnoticed until the next engine reset, which checksum-revalidates the cache) |
/// | `LDBT_REPAIR`       | counterexample-guided rule repair, default **on** — repair only runs after a watchdog mismatch, so a clean run pays nothing for it; off, a mismatch quarantines |
/// | `LDBT_THREADS`      | learn-pipeline worker threads (0 = the machine's available parallelism) |
/// | `LDBT_FAULT`        | one deterministic injected fault, armed in the learner and the engine |
/// | `LDBT_RULEDB`       | persistent rule database the suite learner warm-starts from and writes back |
pub(crate) const KNOBS: [(&str, KnobKind, u64); 11] = [
    ("LDBT_WATCHDOG", KnobKind::Period, 0),
    ("LDBT_NOCHAIN", KnobKind::Disabler, 1),
    ("LDBT_NOSB", KnobKind::Disabler, 1),
    ("LDBT_SB_THRESHOLD", KnobKind::Count, SB_THRESHOLD_DEFAULT),
    ("LDBT_NORA", KnobKind::Disabler, 1),
    ("LDBT_NOFUSE", KnobKind::Disabler, 1),
    ("LDBT_NOSMC", KnobKind::Disabler, 1),
    ("LDBT_REPAIR", KnobKind::Enabler, 1),
    ("LDBT_THREADS", KnobKind::Count, 0),
    ("LDBT_FAULT", KnobKind::Fault, 0),
    ("LDBT_RULEDB", KnobKind::Path, 0),
];

/// Resolve one numeric knob from its raw environment value (the text
/// kinds resolve in [`Config::from_raw`] and keep their default here).
pub(crate) fn parse(kind: KnobKind, default: u64, raw: Option<&str>) -> u64 {
    let Some(s) = raw.map(str::trim).filter(|s| !s.is_empty()) else { return default };
    let positive = s.parse::<u64>().ok().filter(|n| *n > 0);
    match kind {
        KnobKind::Disabler => matches!(s, "0" | "off") as u64,
        KnobKind::Enabler => !matches!(s, "0" | "off") as u64,
        KnobKind::Period if s == "on" => 1,
        KnobKind::Period => positive.unwrap_or(0),
        KnobKind::Count => positive.unwrap_or(default),
        KnobKind::Fault | KnobKind::Path => default,
    }
}

/// Everything a run computes with that the `LDBT_*` environment can
/// set: the engine knobs, the learner's worker count and fault plan, and
/// the rule database path. Libraries never read the environment; a
/// binary reads it once ([`Config::from_env`]) and hands the value down,
/// and a test builds its cells from [`Config::DEFAULT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Watchdog sampling period, `None` when disabled (`LDBT_WATCHDOG`).
    pub watchdog: Option<u64>,
    /// Block chaining (`!LDBT_NOCHAIN`).
    pub chaining: bool,
    /// Superblock formation threshold (`LDBT_SB_THRESHOLD`), `None` when
    /// superblocks are disabled (`LDBT_NOSB`).
    pub superblocks: Option<u64>,
    /// Region register allocation (`!LDBT_NORA`).
    pub region_alloc: bool,
    /// Guest memory access fusion (`!LDBT_NOFUSE`).
    pub fusion: bool,
    /// Self-modifying-code protection (`!LDBT_NOSMC`).
    pub smc: bool,
    /// Counterexample-guided rule repair (`LDBT_REPAIR`).
    pub repair: bool,
    /// Learn-pipeline worker threads, 0 = auto (`LDBT_THREADS`).
    pub threads: usize,
    /// Armed fault injection (`LDBT_FAULT`).
    pub fault: Option<FaultPlan>,
    /// Persistent rule database (`LDBT_RULEDB`).
    pub ruledb: Option<PathBuf>,
}

impl Config {
    /// What every variable resolves to when it is unset.
    pub const DEFAULT: Config = Config {
        watchdog: None,
        chaining: true,
        superblocks: Some(SB_THRESHOLD_DEFAULT),
        region_alloc: true,
        fusion: true,
        smc: true,
        repair: true,
        threads: 0,
        fault: None,
        ruledb: None,
    };

    /// The process environment's configuration.
    pub fn from_env() -> Config {
        Config::from_raw(|var| std::env::var(var).ok())
    }

    /// Resolve every [`KNOBS`] row through `raw` (variable name → raw
    /// value).
    pub fn from_raw(raw: impl Fn(&str) -> Option<String>) -> Config {
        let raw = KNOBS.map(|(var, _, _)| raw(var));
        let n = |i: usize| parse(KNOBS[i].1, KNOBS[i].2, raw[i].as_deref());
        Config {
            watchdog: Some(n(0)).filter(|&p| p > 0),
            chaining: n(1) != 0,
            superblocks: (n(2) != 0).then(|| n(3)),
            region_alloc: n(4) != 0,
            fusion: n(5) != 0,
            smc: n(6) != 0,
            repair: n(7) != 0,
            threads: usize::try_from(n(8)).unwrap_or(0),
            fault: raw[9].as_deref().and_then(FaultPlan::parse),
            ruledb: raw[10].as_deref().map(str::trim).filter(|p| !p.is_empty()).map(PathBuf::from),
        }
    }

    /// `e` with every engine knob of this configuration applied through
    /// its builder.
    pub fn apply(&self, e: Engine) -> Engine {
        e.with_watchdog(self.watchdog)
            .with_chaining(self.chaining)
            .with_superblocks(self.superblocks)
            .with_region_alloc(self.region_alloc)
            .with_fusion(self.fusion)
            .with_smc(self.smc)
            .with_repair(self.repair)
            .with_fault(self.fault)
    }

    /// The learner's settings: this configuration's worker count and
    /// fault plan over [`LearnConfig`]'s defaults.
    pub fn learn(&self) -> LearnConfig {
        LearnConfig { threads: self.threads, fault: self.fault, ..LearnConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint() {
        let mut offsets: Vec<u32> = ArmReg::ALL.iter().map(|r| reg_offset(*r)).collect();
        offsets.extend(FlagId::ALL.iter().map(|f| f.offset()));
        offsets.push(HOSTFLAGS_OFFSET);
        offsets.push(FLAGMODE_OFFSET);
        for k in 0..SPILL_SLOTS {
            offsets.push(SPILL_OFFSET + 4 * k);
        }
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), offsets.len(), "overlapping env slots");
    }

    #[test]
    fn flag_masks() {
        assert_eq!(
            FlagId::N.mask() | FlagId::Z.mask() | FlagId::C.mask() | FlagId::V.mask(),
            0b1111
        );
        assert_eq!(FlagId::C.offset(), 0x48);
    }

    #[test]
    fn env_mem_is_absolute() {
        let m = reg_mem(ArmReg::R3);
        assert_eq!(m.base, None);
        assert_eq!(m.disp as u32, ENV_BASE + 12);
    }

    #[test]
    fn env_does_not_collide_with_program_regions() {
        // Code, globals, guest stack, host stack all live below the env.
        const { assert!(ldbt_compiler::link::CODE_BASE < ENV_BASE) };
        const { assert!(ldbt_compiler::link::STACK_TOP < ENV_BASE) };
        const { assert!(HOST_STACK_TOP < ENV_BASE) };
    }

    /// `Config::from_raw` with only `var` set to `raw`.
    fn only(var: &str, raw: &str) -> Config {
        Config::from_raw(|v| (v == var).then(|| raw.to_string()))
    }

    #[test]
    fn knob_parse_table() {
        const D: Config = Config::DEFAULT;
        let max = u64::MAX.to_string();
        let max: &[&str] = &[&max];
        let imm_skew = |seed| FaultPlan::parse(&format!("imm-skew:{seed}"));
        // (variable, raw values, resolved configuration)
        let rows: Vec<(&str, &[&str], Config)> = vec![
            // Period: garbage is not a period.
            ("LDBT_WATCHDOG", &["", "0", "off", "garbage", "-3", "3x", " off ", "on1"], D),
            ("LDBT_WATCHDOG", &["on", "1"], Config { watchdog: Some(1), ..D }),
            ("LDBT_WATCHDOG", &[" 250 "], Config { watchdog: Some(250), ..D }),
            // Disablers: the feature stays on.
            ("LDBT_NOCHAIN", &["", "0", "off", " 0 "], D),
            ("LDBT_NOCHAIN", &["1", "on", "garbage"], Config { chaining: false, ..D }),
            ("LDBT_NOSB", &["", "0", "off", " 0 "], D),
            ("LDBT_NOSB", &["1", "on", "garbage"], Config { superblocks: None, ..D }),
            ("LDBT_NORA", &["", "0", "off", " 0 ", " off "], D),
            ("LDBT_NORA", &["1", "on", "garbage", "ON", "no"], Config { region_alloc: false, ..D }),
            ("LDBT_NOFUSE", &["", "0", "off", " 0 ", " off "], D),
            ("LDBT_NOFUSE", &["1", "on", "garbage", "ON", "no"], Config { fusion: false, ..D }),
            ("LDBT_NOSMC", &["", "0", "off", " 0 ", " off "], D),
            ("LDBT_NOSMC", &["1", "on", "garbage", "ON", "no"], Config { smc: false, ..D }),
            // Enabler: only an explicit 0/off disables.
            ("LDBT_REPAIR", &["", "1", "on", "garbage", " on "], D),
            ("LDBT_REPAIR", &["0", "off", " off ", " 0 "], Config { repair: false, ..D }),
            // Counts. An explicit 0 resolves to the default — a raw
            // threshold of 0 would make the engine's `is_multiple_of(0)`
            // trigger never fire (no first-execution region, no division)
            // — the max value parses verbatim, and one past it is
            // garbage, not a wrap.
            ("LDBT_SB_THRESHOLD", &["", "0", "off", "garbage", "-8", "8x", " 0 "], D),
            ("LDBT_SB_THRESHOLD", &["18446744073709551616"], D),
            ("LDBT_SB_THRESHOLD", &["1"], Config { superblocks: Some(1), ..D }),
            ("LDBT_SB_THRESHOLD", &[" 128 "], Config { superblocks: Some(128), ..D }),
            ("LDBT_SB_THRESHOLD", max, Config { superblocks: Some(u64::MAX), ..D }),
            // Threads: the default 0 is "the machine's parallelism"; 1 is
            // honored and takes the learner's sequential path.
            ("LDBT_THREADS", &["", "   ", "0", "-2", "garbage", "2.5"], D),
            ("LDBT_THREADS", &["1"], Config { threads: 1, ..D }),
            ("LDBT_THREADS", &["8"], Config { threads: 8, ..D }),
            ("LDBT_THREADS", &[" 4 "], Config { threads: 4, ..D }),
            // Fault plans parse verbatim: a malformed seed or an unknown
            // site never arms a surprise fault.
            ("LDBT_FAULT", &["", "imm-skew:", "nope:3", "imm-skew:x"], D),
            ("LDBT_FAULT", &["imm-skew", "imm-skew:0"], Config { fault: imm_skew(0), ..D }),
            ("LDBT_FAULT", &["imm-skew:7"], Config { fault: imm_skew(7), ..D }),
            // The database path is trimmed; blank is no database.
            ("LDBT_RULEDB", &["", " ", "\t"], D),
            ("LDBT_RULEDB", &[" a.db ", "a.db"], Config { ruledb: Some("a.db".into()), ..D }),
        ];
        assert_eq!(Config::from_raw(|_| None), D, "unset takes the default");
        for (var, raws, want) in rows {
            for raw in raws {
                assert_eq!(only(var, raw), want, "{var}={raw:?}");
            }
        }
    }

    /// Setting one variable moves exactly its field; and blank, garbage,
    /// negative and overflowing values on every row end where the
    /// README's table says, without a panic: only a disabler (any
    /// non-blank value but `0`/`off` turns its feature off) and the
    /// database path (any non-blank text names a file) leave the default.
    #[test]
    fn config_resolves_each_variable_into_its_own_field() {
        const D: Config = Config::DEFAULT;
        for (i, (var, kind, _)) in KNOBS.into_iter().enumerate() {
            let raw = match var {
                "LDBT_REPAIR" => "off",
                "LDBT_FAULT" => "worker-panic:7",
                _ => "7",
            };
            let moved = match i {
                0 => Config { watchdog: Some(7), ..D },
                1 => Config { chaining: false, ..D },
                2 => Config { superblocks: None, ..D },
                3 => Config { superblocks: Some(7), ..D },
                4 => Config { region_alloc: false, ..D },
                5 => Config { fusion: false, ..D },
                6 => Config { smc: false, ..D },
                7 => Config { repair: false, ..D },
                8 => Config { threads: 7, ..D },
                9 => Config { fault: FaultPlan::parse("worker-panic:7"), ..D },
                _ => Config { ruledb: Some("7".into()), ..D },
            };
            assert_eq!(only(var, raw), moved, "{var}");
            for raw in ["", " ", "garbage", "-1", "18446744073709551616"] {
                let want = match kind {
                    _ if raw.trim().is_empty() => D,
                    KnobKind::Disabler => moved.clone(),
                    KnobKind::Path => Config { ruledb: Some(raw.into()), ..D },
                    _ => D,
                };
                assert_eq!(only(var, raw), want, "{var}={raw:?}");
            }
        }
    }
}
