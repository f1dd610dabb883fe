//! The emulation environment: guest state held in host memory, plus the
//! parse tables for the engine's runtime knobs.
//!
//! Like QEMU, the DBT keeps the guest register file and condition flags
//! in a host memory block (`env`); translated code loads guest registers
//! into host registers on demand and writes dirty ones back at block
//! boundaries.
//!
//! The engine's `LDBT_*` knobs live here too, as one table ([`KNOBS`])
//! with one parser, so every engine default follows one documented
//! convention: unset / empty / garbage always resolve to the knob's
//! default, never to a surprise mode.

use crate::api::{RunOutcome, TrapKind};
use ldbt_arm::{ArmEvent, ArmInstr, ArmReg, ArmState, Flags};
use ldbt_isa::{Memory, Width};
use ldbt_x86::{EFlags, X86Mem};
use std::sync::OnceLock;

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

/// How a knob's raw environment value resolves to a number. Values are
/// trimmed first; every kind sends unset and `""` to the knob's default,
/// never to a surprise mode.
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
}

/// Every engine knob as `(variable, kind, default)`, in [`EngineEnv`]
/// field order:
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
pub(crate) const KNOBS: [(&str, KnobKind, u64); 8] = [
    ("LDBT_WATCHDOG", KnobKind::Period, 0),
    ("LDBT_NOCHAIN", KnobKind::Disabler, 1),
    ("LDBT_NOSB", KnobKind::Disabler, 1),
    ("LDBT_SB_THRESHOLD", KnobKind::Count, SB_THRESHOLD_DEFAULT),
    ("LDBT_NORA", KnobKind::Disabler, 1),
    ("LDBT_NOFUSE", KnobKind::Disabler, 1),
    ("LDBT_NOSMC", KnobKind::Disabler, 1),
    ("LDBT_REPAIR", KnobKind::Enabler, 1),
];

/// Resolve one knob from its raw environment value.
pub(crate) fn parse(kind: KnobKind, default: u64, raw: Option<&str>) -> u64 {
    let Some(s) = raw.map(str::trim).filter(|s| !s.is_empty()) else { return default };
    let positive = s.parse::<u64>().ok().filter(|n| *n > 0);
    match kind {
        KnobKind::Disabler => matches!(s, "0" | "off") as u64,
        KnobKind::Enabler => !matches!(s, "0" | "off") as u64,
        KnobKind::Period if s == "on" => 1,
        KnobKind::Period => positive.unwrap_or(0),
        KnobKind::Count => positive.unwrap_or(default),
    }
}

/// The resolved engine knobs; [`KNOBS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EngineEnv {
    /// Watchdog sampling period, `None` when disabled.
    pub(crate) watchdog: Option<u64>,
    pub(crate) chaining: bool,
    /// Superblock formation threshold (`LDBT_SB_THRESHOLD`), `None`
    /// when superblocks are disabled (`LDBT_NOSB`).
    pub(crate) superblocks: Option<u64>,
    pub(crate) region_alloc: bool,
    pub(crate) fusion: bool,
    pub(crate) smc: bool,
    pub(crate) repair: bool,
}

impl EngineEnv {
    /// Resolve every knob through `raw` (variable name → raw value).
    pub(crate) fn resolve(raw: impl Fn(&str) -> Option<String>) -> EngineEnv {
        let v = KNOBS.map(|(var, kind, default)| parse(kind, default, raw(var).as_deref()));
        EngineEnv {
            watchdog: (v[0] > 0).then_some(v[0]),
            chaining: v[1] != 0,
            superblocks: (v[2] != 0).then_some(v[3]),
            region_alloc: v[4] != 0,
            fusion: v[5] != 0,
            smc: v[6] != 0,
            repair: v[7] != 0,
        }
    }
}

/// The process environment's knobs, read once.
pub(crate) fn engine_env() -> &'static EngineEnv {
    static ENV: OnceLock<EngineEnv> = OnceLock::new();
    ENV.get_or_init(|| EngineEnv::resolve(|var| std::env::var(var).ok()))
}

/// Cached `LDBT_WATCHDOG` parse.
pub fn watchdog_from_env() -> Option<u64> {
    engine_env().watchdog
}

/// Cached `LDBT_REPAIR` parse.
pub fn repair_from_env() -> bool {
    engine_env().repair
}

/// Cached `LDBT_NOSMC` parse.
pub fn smc_from_env() -> bool {
    engine_env().smc
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

    #[test]
    fn knob_parse_table() {
        const D: u64 = SB_THRESHOLD_DEFAULT;
        let max = u64::MAX.to_string();
        // (variable, raw values, resolved value)
        let rows: &[(&str, &[&str], u64)] = &[
            // Period: garbage is not a period.
            ("LDBT_WATCHDOG", &["", "0", "off", "garbage", "-3", "3x", " off ", "on1"], 0),
            ("LDBT_WATCHDOG", &["on", "1"], 1),
            ("LDBT_WATCHDOG", &[" 250 "], 250),
            // Disablers: 1 = the feature stays on.
            ("LDBT_NOCHAIN", &["", "0", "off", " 0 "], 1),
            ("LDBT_NOCHAIN", &["1", "on", "garbage"], 0),
            ("LDBT_NOSB", &["", "0", "off", " 0 "], 1),
            ("LDBT_NOSB", &["1", "on", "garbage"], 0),
            ("LDBT_NORA", &["", "0", "off", " 0 ", " off "], 1),
            ("LDBT_NORA", &["1", "on", "garbage", "ON", "no"], 0),
            ("LDBT_NOFUSE", &["", "0", "off", " 0 ", " off "], 1),
            ("LDBT_NOFUSE", &["1", "on", "garbage", "ON", "no"], 0),
            ("LDBT_NOSMC", &["", "0", "off", " 0 ", " off "], 1),
            ("LDBT_NOSMC", &["1", "on", "garbage", "ON", "no"], 0),
            // Enabler: only an explicit 0/off disables.
            ("LDBT_REPAIR", &["", "1", "on", "garbage", " on "], 1),
            ("LDBT_REPAIR", &["0", "off", " off ", " 0 "], 0),
            // Counts. An explicit 0 resolves to the default — a raw
            // threshold of 0 would make the engine's `is_multiple_of(0)`
            // trigger never fire (no first-execution region, no division)
            // — the max value parses verbatim, and one past it is
            // garbage, not a wrap.
            ("LDBT_SB_THRESHOLD", &["", "0", "off", "garbage", "-8", "8x", " 0 "], D),
            ("LDBT_SB_THRESHOLD", &["18446744073709551616"], D),
            ("LDBT_SB_THRESHOLD", &["1"], 1),
            ("LDBT_SB_THRESHOLD", &[" 128 "], 128),
            ("LDBT_SB_THRESHOLD", &[&max], u64::MAX),
        ];
        for &(var, raws, want) in rows {
            let &(_, kind, default) = KNOBS.iter().find(|k| k.0 == var).expect("row names a knob");
            assert_eq!(parse(kind, default, None), default, "{var} unset takes the default");
            for raw in raws {
                assert_eq!(parse(kind, default, Some(raw)), want, "{var}={raw:?}");
            }
        }
    }

    #[test]
    fn engine_env_resolves_each_variable_into_its_own_field() {
        let unset = EngineEnv::resolve(|_| None);
        assert_eq!(unset.superblocks, Some(SB_THRESHOLD_DEFAULT));
        assert_eq!(unset.watchdog, None);
        let switches = |e: &EngineEnv| [e.chaining, e.region_alloc, e.fusion, e.smc, e.repair];
        assert_eq!(switches(&unset), [true; 5]);
        // Setting one variable moves exactly its field.
        for (i, (var, _, _)) in KNOBS.iter().enumerate() {
            let raw = if *var == "LDBT_REPAIR" { "off" } else { "7" };
            let set = EngineEnv::resolve(|v| (v == *var).then(|| raw.to_string()));
            let want = match i {
                0 => EngineEnv { watchdog: Some(7), ..unset },
                1 => EngineEnv { chaining: false, ..unset },
                2 => EngineEnv { superblocks: None, ..unset },
                3 => EngineEnv { superblocks: Some(7), ..unset },
                4 => EngineEnv { region_alloc: false, ..unset },
                5 => EngineEnv { fusion: false, ..unset },
                6 => EngineEnv { smc: false, ..unset },
                _ => EngineEnv { repair: false, ..unset },
            };
            assert_eq!(set, want, "{var}");
        }
    }
}
