//! Table 1: per-benchmark learning statistics.

use ldbt_bench::{deterministic_output, hr, learn_everything, table1_row};
use ldbt_compiler::Options;
use ldbt_core::experiment::{loo_rules, table1};
use ldbt_core::workloads::Workload;
use ldbt_core::{report, run_benchmark, Config, EngineKind};
use std::time::Duration;

fn main() {
    let cfg = Config::from_env();
    let all = learn_everything(&cfg);
    let rows = table1(&all);
    let deterministic = deterministic_output();
    println!("Table 1. Learning results (synthetic SPEC CINT2006 stand-ins)");
    hr(149);
    println!(
        "{:<11} {:>3} {:>5} | {:>5} {:>4} {:>4} | {:>5} {:>5} {:>6} | {:>4} {:>4} {:>4} {:>5} | {:>6} {:>9} {:>9} {:>5} {:>5} | {:>6} {:>4} {:>4}",
        "bench", "PL", "LoC", "CI", "PI", "MB", "Num", "Name", "FailG", "Rg", "Mm", "Br", "Other", "#Rules", "time(ms)", "ms/rule", "vfy%", "hit%", "wd-chk", "quar", "rpr"
    );
    hr(149);
    let mut tot = [0usize; 14];
    let mut wd_tot = (0u64, 0u64, 0u64);
    let mut bench_runs = Vec::new();
    let mut learn_stats = Vec::new();
    for (b, lines, s) in &rows {
        let mut s = s.clone();
        if deterministic {
            s.learn_time = Duration::ZERO;
            s.verify_time = Duration::ZERO;
            // Memo traffic depends on whether `LDBT_RULEDB` warm-started
            // the verify cache (a warm boot is ~100% hits); zero it so a
            // warm and a fresh run print byte-identical tables — the
            // tier-1 warm-start gate compares exactly that.
            s.cache_hits = 0;
            s.cache_misses = 0;
        }
        // A rules-engine run on the test workload surfaces the runtime
        // fault-containment counters (nonzero only with LDBT_WATCHDOG).
        let rules = loo_rules(&all, b.name);
        let o2 = Options::o2();
        let run = run_benchmark(b.name, Workload::Test, EngineKind::Rules, &o2, Some(&rules), &cfg);
        wd_tot.0 += run.stats.watchdog_checks();
        wd_tot.1 += run.stats.quarantined_rules();
        wd_tot.2 += run.stats.wd_repaired();
        let wd =
            (run.stats.watchdog_checks(), run.stats.quarantined_rules(), run.stats.wd_repaired());
        println!("{}", table1_row(b.name, if b.cpp { "C++" } else { "C" }, *lines, &s, wd));
        for (i, v) in [
            s.total,
            s.prep_ci,
            s.prep_pi,
            s.prep_mb,
            s.par_num,
            s.par_name,
            s.par_failg,
            s.ver_rg,
            s.ver_mm,
            s.ver_br,
            s.ver_other,
            s.rules,
            s.cache_hits,
            s.cache_misses,
        ]
        .into_iter()
        .enumerate()
        {
            tot[i] += v;
        }
        bench_runs.push(run);
        learn_stats.push(s);
    }
    hr(149);
    let total = tot[0] as f64;
    println!(
        "preparation failures: {:.0}%   parameterization failures: {:.0}%   verification failures: {:.0}%   yield: {:.0}%",
        (tot[1] + tot[2] + tot[3]) as f64 / total * 100.0,
        (tot[4] + tot[5] + tot[6]) as f64 / total * 100.0,
        (tot[7] + tot[8] + tot[9] + tot[10]) as f64 / total * 100.0,
        tot[11] as f64 / total * 100.0,
    );
    println!("(paper: 43% / 19% / 14% / 24% yield; verification dominates learning time)");
    let learn_total: f64 = learn_stats.iter().map(|s| s.learn_time.as_secs_f64()).sum();
    let verify_share: f64 = if learn_total > 0.0 {
        learn_stats.iter().map(|s| s.verify_time.as_secs_f64()).sum::<f64>() / learn_total
    } else {
        0.0
    };
    println!("verification share of learning time: {:.0}% (paper: ~95%)", verify_share * 100.0);
    let queries = tot[12] + tot[13];
    if queries > 0 {
        println!(
            "verify memo cache: {} hits / {} unique signatures verified ({:.0}% hit rate, shared across programs)",
            tot[12],
            tot[13],
            tot[12] as f64 / queries as f64 * 100.0,
        );
    }
    println!(
        "watchdog cross-checks: {} performed, {} rules quarantined, {} rules repaired (enable with LDBT_WATCHDOG=on|N; fault injection via LDBT_FAULT; repair via LDBT_REPAIR)",
        wd_tot.0, wd_tot.1, wd_tot.2,
    );
    println!(
        "threads: {} (override with LDBT_THREADS; 1 = sequential)",
        cfg.learn().effective_threads()
    );
    if let Some(p) = report::write_if_configured(&bench_runs, &learn_stats) {
        eprintln!("run report: {}", p.display());
    }
}
