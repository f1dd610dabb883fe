//! `serve_throughput`: concurrent multi-tenant translation throughput.
//!
//! The serving claim (DESIGN.md §15): tenants share one immutable rule
//! generation behind an atomic cell and contend on nothing else, so
//! aggregate guest-instruction throughput should scale with tenant
//! count until the machine runs out of cores. This binary measures
//! that: it prepares a fixed program mix once, then serves it to 1, 2,
//! 4, and 8 concurrent tenants, reporting best-of-N aggregate
//! guest-instrs/sec per tenant count (best-of-N **min** wall-clock:
//! scheduler noise only ever adds time, so the minimum is the stable
//! estimate of the true cost).
//!
//! Output, one line per tenant count (the recorded format of
//! `results/serve_throughput.txt`):
//!
//! ```text
//! serve_throughput tenants=4 best_ms=812.503 guest_instrs=93902864 ginstrs_per_sec=115.6M scale_vs_1=3.41x
//! ```
//!
//! `--smoke` is the CI gate: solo vs `LDBT_TENANTS` (default 2)
//! concurrent tenants, asserting aggregate throughput scales by at
//! least 1.5x. On hosts with fewer than 4 cores the gate is vacuous
//! (tenants would time-slice one core), so it skips with a notice.
//!
//! Rules come from the persistent database when `LDBT_RULEDB` points at
//! a loadable one (the warm-start path — no learning at all), otherwise
//! they are learned from the mix programs' sources on the spot.

use ldbt_compiler::Options;
use ldbt_core::serve::{prepare, serve, ServeProgram};
use ldbt_dbt::env::tenants_from_env;
use ldbt_dbt::RuleCell;
use ldbt_learn::pipeline::learn_from_source;
use ldbt_learn::RuleSet;
use ldbt_workloads::{benchmark, source, Workload};
use std::sync::Arc;
use std::time::Instant;

/// The served program mix: loop-heavy suite programs, `test` workloads
/// (enough dynamic instructions to dominate translation time, small
/// enough that 8 tenants x the mix stays in CI budget).
const MIX: &[&str] = &["mcf", "libquantum", "bzip2", "sjeng"];

/// Best-of-N runs per tenant count.
const RUNS: usize = 3;

/// The scaling floor the smoke gate asserts (aggregate throughput at
/// `LDBT_TENANTS` tenants vs solo).
const SMOKE_FLOOR: f64 = 1.5;

fn mix_rules() -> RuleSet {
    if let Some(path) = ldbt_learn::db::env_path() {
        match ldbt_learn::db::load(&path) {
            Ok(db) => {
                eprintln!(
                    "serve_throughput: warm rules from {} ({} rules)",
                    path.display(),
                    db.rules.len()
                );
                return db.rules;
            }
            Err(e) => eprintln!(
                "serve_throughput: ignoring rule database {}: {e}; learning fresh",
                path.display()
            ),
        }
    }
    let mut rules = RuleSet::new();
    for name in MIX {
        let b = benchmark(name).expect("suite program");
        let src = source(b, Workload::Ref);
        rules.merge(&learn_from_source(name, &src, &Options::o2()).expect("learning").rules);
    }
    rules
}

/// Serve the mix to `tenants` tenants `RUNS` times; return (best
/// wall-clock ms, aggregate guest instructions). The instruction count
/// is identical across repeats — serving is deterministic — so min
/// time is max throughput.
fn measure(programs: &[ServeProgram], rules: &RuleSet, tenants: usize) -> (f64, u64) {
    let mut best_ms = f64::INFINITY;
    let mut guest_instrs = 0;
    for _ in 0..RUNS {
        let cell = Arc::new(RuleCell::new(rules.clone()));
        let t0 = Instant::now();
        let report = serve(programs, tenants, &cell);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
        guest_instrs = report.total_guest_instrs();
    }
    (best_ms, guest_instrs)
}

fn row(programs: &[ServeProgram], rules: &RuleSet, tenants: usize, solo: Option<f64>) -> f64 {
    let (best_ms, guest_instrs) = measure(programs, rules, tenants);
    let per_sec = guest_instrs as f64 / (best_ms / 1e3);
    let scale = solo.map_or(1.0, |s| per_sec / s);
    println!(
        "serve_throughput tenants={tenants} best_ms={best_ms:.3} guest_instrs={guest_instrs} \
         ginstrs_per_sec={:.1}M scale_vs_1={scale:.2}x",
        per_sec / 1e6
    );
    per_sec
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if smoke && cores < 4 {
        println!("serve_throughput smoke skipped: {cores} cores < 4 (scaling gate needs real parallelism)");
        return;
    }
    println!("serve_throughput cores={cores} mix={} runs={RUNS} workload=test", MIX.join(","));
    let rules = mix_rules();
    let programs = prepare(MIX, Workload::Test, &Options::o2()).expect("mix builds");
    if smoke {
        let solo = row(&programs, &rules, 1, None);
        let tenants = tenants_from_env();
        let multi = row(&programs, &rules, tenants, Some(solo));
        let scale = multi / solo;
        assert!(
            scale >= SMOKE_FLOOR,
            "serve throughput did not scale: {tenants} tenants reached {scale:.2}x solo (floor {SMOKE_FLOOR}x)"
        );
        println!("serve_throughput smoke ok: {tenants} tenants at {scale:.2}x solo throughput");
        return;
    }
    let solo = row(&programs, &rules, 1, None);
    for tenants in [2usize, 4, 8] {
        row(&programs, &rules, tenants, Some(solo));
    }
}
