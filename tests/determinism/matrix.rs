//! The configuration matrix: every cell of the `LDBT_*` knobs that
//! change what a run computes ([`Config`]), checked in-process against
//! the ARM interpreter and against the default cell.
//!
//! | cells | test |
//! |-------|------|
//! | chaining × superblocks (3 besides the default), SMC protection off | [`exec_cells_match_the_interpreter_and_the_default_cell`] |
//! | chaining × superblocks (4) under the watchdog | [`watchdog_cells_match_the_interpreter_and_the_default_cell`] |
//! | region RA × fusion × superblocks (7), repair off | [`region_and_repair_cells_match_the_default_cell`] |
//! | each toggle on/off on one hot loop, per translator and watchdog period ([`each_hot_loop_cell`]) | `chained_execution_is_bit_identical_to_unchained`, `superblock_execution_is_bit_identical_to_plain`, `region_alloc_and_fusion_are_bit_identical_on_off`, `repair_toggle_is_bit_identical_on_clean_runs` in `tests/determinism.rs` |
//! | rule database cold, warm, truncated | [`rule_database_cells_learn_what_no_database_learns`] |
//! | mini-kernel watchdog × superblocks (4, and threshold 4) | `ldbt-core`'s `kernel::tests::dbt_kernel_matches_under_watchdog_and_without_superblocks` |
//! | SMC protection on, on the self-modifying image | `tests/engine_edge_cases.rs`: `smc_workload_bit_identical_across_matrix` |
//! | fault × repair (10) | `tests/fault_injection.rs`: `env_driven_fault_run_completes_identical_to_tcg` |
//!
//! A watchdog cell always includes a rules engine with a non-empty rule
//! set and shows the watchdog sampled: it only checks rule-covered
//! dispatches.

use super::suite_sets;
use ldbt_arm::{ArmMachine, ArmReg, ArmStop};
use ldbt_compiler::{link::build_arm_image, ArmImage, Options};
use ldbt_core::experiment::{learn_all, loo_rules, ProgramRules};
use ldbt_core::RUN_FUEL;
use ldbt_dbt::env::GUEST_MEM_LIMIT;
use ldbt_dbt::{Config, Engine, RunOutcome, Translator};
use ldbt_learn::pipeline::learn_from_source_cached;
use ldbt_learn::{Rule, RuleSet, VerifyCache};
use ldbt_workloads::{source, Workload, SUITE};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A suite program's `Test` image, its leave-one-out rules (what
/// `table1` runs it with) and the interpreter's final state (which is
/// not `Sync`, so each test builds its own).
struct Program {
    name: &'static str,
    image: ArmImage,
    rules: Arc<RuleSet>,
    want: ArmMachine,
}

fn programs() -> Vec<Program> {
    SUITE
        .iter()
        .map(|b| {
            let image = build_arm_image(&source(b, Workload::Test), &Options::o2()).unwrap();
            let mut want = ArmMachine::new();
            image.load_into(&mut want.state.mem);
            want.state.regs[15] = image.entry;
            assert_eq!(want.run(600_000_000), ArmStop::Halt, "{}: interpreter", b.name);
            let rules = Arc::new(loo_rules(suite_sets(), b.name));
            Program { name: b.name, image, rules, want }
        })
        .collect()
}

/// The three translators, the rules one over `rules`.
fn translators(rules: &Arc<RuleSet>) -> [(&'static str, Translator); 3] {
    [
        ("tcg", Translator::Tcg),
        ("jit", Translator::Jit),
        ("rules", Translator::Rules(rules.clone())),
    ]
}

/// What every cell must agree on with the default cell: the guest's
/// work and the rule attribution.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    guest_dyn: u64,
    block_execs: u64,
    hit_rules: BTreeMap<u64, usize>,
}

/// Run every suite program on each of `engines` under `cfg`; each run
/// must halt with the interpreter's registers and guest memory, leave
/// off what the cell switches off, and — a clean run — quarantine and
/// repair nothing (`table1`'s columns). Keyed by program and engine.
fn run_cell(programs: &[Program], cfg: &Config, engines: &[&str]) -> BTreeMap<String, Outcome> {
    let mut out = BTreeMap::new();
    for p in programs {
        for (name, t) in translators(&p.rules).into_iter().filter(|(n, _)| engines.contains(n)) {
            let ctx = format!("{} {name} {cfg:?}", p.name);
            let mut e = cfg.apply(Engine::new(&p.image, t));
            assert_eq!(e.run(RUN_FUEL), RunOutcome::Halted, "{ctx}");
            for r in ArmReg::ALL.into_iter().filter(|&r| r != ArmReg::Pc) {
                assert_eq!(e.guest_reg(r), p.want.state.reg(r), "{ctx}: {r:?}");
            }
            let host = |a: u32| a >= GUEST_MEM_LIMIT;
            let diff = e.state.mem.first_difference(&p.want.state.mem, host);
            assert_eq!(diff, None, "{ctx}: memory");
            let s = &e.stats;
            assert!(cfg.chaining || s.chained_execs() == 0, "{ctx}: chained");
            assert!(cfg.superblocks.is_some() || s.sb_formed() == 0, "{ctx}: formed regions");
            assert!(cfg.region_alloc || s.ra_promoted() == 0, "{ctx}: promoted registers");
            assert!(cfg.fusion || s.fuse_elim() == 0, "{ctx}: fused accesses");
            if cfg.watchdog.is_some() && name == "rules" {
                assert!(s.watchdog_checks() > 0, "{ctx}: the watchdog never sampled");
            }
            assert_eq!((s.quarantined_rules(), s.wd_repaired()), (0, 0), "{ctx}: a clean run");
            let (guest_dyn, block_execs) = (s.guest_dyn(), s.block_execs());
            let outcome = Outcome { guest_dyn, block_execs, hit_rules: s.hit_rules.clone() };
            out.insert(format!("{} {name}", p.name), outcome);
        }
    }
    out
}

/// Each of `cells` on `engines` against the interpreter ([`run_cell`])
/// and, run by run, against the default cell.
fn check_cells(cells: &[Config], engines: &[&str]) {
    static DEFAULT: OnceLock<BTreeMap<String, Outcome>> = OnceLock::new();
    let programs = programs();
    let all = ["tcg", "jit", "rules"];
    let default = DEFAULT.get_or_init(|| run_cell(&programs, &Config::DEFAULT, &all));
    for cfg in cells {
        for (run, got) in run_cell(&programs, cfg, engines) {
            assert_eq!(got, default[&run], "{run} {cfg:?}: differs from the default cell");
        }
    }
}

/// `LDBT_NOCHAIN` × `LDBT_NOSB` but the default, and `LDBT_NOSMC=1`
/// (the suite never stores into its code, so an incoherent cache must
/// change nothing there), on every translator.
#[test]
fn exec_cells_match_the_interpreter_and_the_default_cell() {
    let d = Config::DEFAULT;
    let cells = [
        Config { chaining: false, ..d.clone() },
        Config { superblocks: None, ..d.clone() },
        Config { chaining: false, superblocks: None, ..d.clone() },
        Config { smc: false, ..d },
    ];
    check_cells(&cells, &["tcg", "jit", "rules"]);
}

/// `LDBT_WATCHDOG=1` × `LDBT_NOCHAIN` × `LDBT_NOSB`, on the rules engine:
/// the watchdog only samples rule-covered dispatches, so on tcg and jit
/// a watchdog cell is its cell without the watchdog.
#[test]
fn watchdog_cells_match_the_interpreter_and_the_default_cell() {
    let d = Config::DEFAULT;
    let mut cells = Vec::new();
    for chaining in [true, false] {
        for superblocks in [d.superblocks, None] {
            cells.push(Config { watchdog: Some(1), chaining, superblocks, ..Config::DEFAULT });
        }
    }
    check_cells(&cells, &["rules"]);
}

/// `LDBT_NORA` × `LDBT_NOFUSE` × `LDBT_NOSB` but the default, and
/// `LDBT_REPAIR=0`, on the rules engine `table1` runs.
#[test]
fn region_and_repair_cells_match_the_default_cell() {
    let d = Config::DEFAULT;
    let mut cells = vec![Config { repair: false, ..Config::DEFAULT }];
    for region_alloc in [true, false] {
        for fusion in [true, false] {
            for superblocks in [d.superblocks, None] {
                let cell = Config { region_alloc, fusion, superblocks, ..Config::DEFAULT };
                if cell != d {
                    cells.push(cell);
                }
            }
        }
    }
    check_cells(&cells, &["rules"]);
}

/// A hot loop with a rule-friendly body: enough iterations that regions
/// form at a threshold of 8 and fusion finds work.
const LOOP: &str = "
int a[16];
int main() {
  int s = 0;
  for (int i = 0; i < 16; i += 1) { a[i] = i * 7; }
  for (int i = 0; i < 400; i += 1) {
    s = s + a[i & 15];
    if (i & 1) { s = s ^ 9; }
  }
  return s & 0xffff;
}";

/// Every hot-loop cell: [`LOOP`], its rules learned once per test
/// binary, on each translator under each watchdog period (none, 1, 3).
/// `check` gets the translator's name, the cell, and a runner that
/// halts the loop under a config derived from the cell.
pub(super) fn each_hot_loop_cell(mut check: impl FnMut(&str, &Config, &dyn Fn(Config) -> Engine)) {
    static LEARNED: OnceLock<(ArmImage, Arc<RuleSet>)> = OnceLock::new();
    let (image, rules) = LEARNED.get_or_init(|| {
        let mut cache = VerifyCache::new();
        let learned =
            learn_from_source_cached("loop", LOOP, &Options::o2(), &Default::default(), &mut cache);
        (build_arm_image(LOOP, &Options::o2()).unwrap(), Arc::new(learned.unwrap().rules))
    });
    for (name, t) in translators(rules) {
        for watchdog in [None, Some(1), Some(3)] {
            let run = |cfg: Config| {
                let mut e = cfg.apply(Engine::new(image, t.clone()));
                assert_eq!(e.run(100_000_000), RunOutcome::Halted, "{name} {cfg:?}");
                e
            };
            check(name, &Config { watchdog, ..Config::DEFAULT }, &run);
        }
    }
}

/// Two runs of one image end with the same guest registers and memory.
pub(super) fn same_guest(a: &Engine, b: &Engine, ctx: &str) {
    for r in ArmReg::ALL {
        assert_eq!(a.guest_reg(r), b.guest_reg(r), "{ctx}: {r:?}");
    }
    assert_eq!(a.state.mem.first_difference(&b.state.mem, |_| false), None, "{ctx}: memory");
}

/// `LDBT_RULEDB`: a first boot writes the database, a second boot
/// replays learning from its memo with no verification, and a truncated
/// file is refused and learning starts fresh; all three learn, program
/// by program, the rules and `table1` counters the no-database default
/// learns (memo traffic aside, which a warm start shifts).
#[test]
fn rule_database_cells_learn_what_no_database_learns() {
    let dir = std::env::temp_dir().join(format!("ldbt-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (db, cut) = (dir.join("rules.db"), dir.join("truncated.db"));
    let table = |sets: &[ProgramRules]| -> Vec<(String, Vec<usize>, Vec<String>)> {
        let rows = sets.iter().map(|p| {
            let counters = p.stats.counters()[..12].to_vec();
            (p.name.clone(), counters, p.rules.iter().map(Rule::canonical_text).collect())
        });
        rows.collect()
    };
    let want = table(suite_sets());
    let learn = |path: &std::path::Path| {
        let cfg = Config { ruledb: Some(path.to_path_buf()), ..Config::DEFAULT };
        learn_all(&Options::o2(), &cfg).unwrap()
    };
    let cold = learn(&db);
    assert_eq!(table(&cold), want, "cold");
    let bytes = std::fs::read(&db).expect("the cold boot writes the database");
    assert!(!bytes.is_empty());
    let warm = learn(&db);
    assert_eq!(table(&warm), want, "warm");
    assert!(warm.iter().all(|p| p.stats.cache_misses == 0), "a warm boot verifies nothing");
    std::fs::write(&cut, &bytes[..24]).unwrap();
    let refused = !matches!(ldbt_learn::db::load(&cut), Ok(_) | Err(ldbt_learn::DbError::Io(_)));
    assert!(refused, "a truncated database must be refused, not missing");
    assert_eq!(table(&learn(&cut)), want, "truncated");
    std::fs::remove_dir_all(&dir).ok();
}
