//! Observability smoke: one small learn plus two engine runs with
//! fully deterministic stdout.
//!
//! `scripts/tier1.sh` runs this twice — tracing off and
//! `LDBT_TRACE=all:<path>` + `LDBT_STATS_JSON=<path>` — and byte-compares
//! the stdout of the two runs: observability must never perturb results.
//! Everything printed is a pure function of the modeled execution
//! (counters and modeled cycles; no wall-clock time), so the comparison
//! is exact. The emitted trace and run report are then validated with
//! the `obs_selfcheck` binary.

use ldbt_compiler::Options;
use ldbt_core::learn::pipeline::learn_from_source_cached;
use ldbt_core::workloads::{benchmark, source, Workload};
use ldbt_core::{report, run_benchmark, Config, EngineKind, VerifyCache};

fn main() {
    let cfg = Config::from_env();
    let b = benchmark("mcf").expect("suite has mcf");
    let src = source(b, Workload::Ref);
    let mut cache = VerifyCache::new();
    let learned = learn_from_source_cached("mcf", &src, &Options::o2(), &cfg.learn(), &mut cache)
        .expect("mcf compiles");
    let s = &learned.stats;
    println!(
        "learn mcf: pairs={} rules={} cache_hits={} cache_misses={}",
        s.total, s.rules, s.cache_hits, s.cache_misses
    );

    let o2 = Options::o2();
    let tcg = run_benchmark("mcf", Workload::Test, EngineKind::Tcg, &o2, None, &cfg);
    let rules =
        run_benchmark("mcf", Workload::Test, EngineKind::Rules, &o2, Some(&learned.rules), &cfg);
    for run in [&tcg, &rules] {
        println!(
            "{} mcf: guest_dyn={} host_instrs={} blocks={} total_cycles={} coverage={:.4} rules_hit={} checksum={:#010x}",
            run.engine.name(),
            run.stats.guest_dyn(),
            run.stats.exec.host_instrs,
            run.stats.blocks(),
            run.stats.total_cycles(),
            run.stats.dynamic_coverage(),
            run.profile.rules.len(),
            run.checksum,
        );
    }

    // The run report (when configured) goes to its own file and the
    // confirmation to stderr, keeping stdout byte-comparable across
    // traced and untraced runs.
    if let Some(p) = report::write_if_configured(&[tcg, rules], &[learned.stats]) {
        eprintln!("run report: {}", p.display());
    }
}
