#![forbid(unsafe_code)]
//! Experiment harness for the paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! evaluation (run with `cargo run --release -p ldbt-bench --bin <name>`):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — learning statistics per benchmark            |
//! | `fig6`   | Figure 6 — rules learned vs optimization level         |
//! | `fig7`   | Figure 7 — learning sensitivity demonstration          |
//! | `fig8`   | Figure 8 — speedups, LLVM-style guest binaries         |
//! | `fig9`   | Figure 9 — speedups, GCC-style guest binaries          |
//! | `fig10`  | Figure 10 — dynamic host instructions removed          |
//! | `fig11`  | Figure 11 — static/dynamic rule coverage               |
//! | `fig12`  | Figure 12 — length distribution of hit rules           |
//! | `ablations` | design-choice ablations called out in DESIGN.md     |
//!
//! Micro-benchmarks of the pipeline stages (rule learning, rule lookup,
//! block translation, engine throughput, SMT equivalence checking) are
//! per-layer rows of the repository's benchmark, `perfbench/`.

use ldbt_core::experiment::ProgramRules;
use ldbt_core::learn::LearnStats;
use ldbt_core::Config;

/// Pretty-print a horizontal rule.
pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Render one Table 1 body row. Factored out of the `table1` binary so
/// the column layout can be golden-tested: the format string below is
/// the byte-exact layout the table has printed since the seed, and the
/// test pins it.
pub fn table1_row(
    name: &str,
    lang: &str,
    lines: usize,
    s: &LearnStats,
    wd: (u64, u64, u64),
) -> String {
    let vfy_share = if s.learn_time.as_secs_f64() > 0.0 {
        s.verify_time.as_secs_f64() / s.learn_time.as_secs_f64() * 100.0
    } else {
        0.0
    };
    format!(
        "{:<11} {:>3} {:>5} | {:>5} {:>4} {:>4} | {:>5} {:>5} {:>6} | {:>4} {:>4} {:>4} {:>5} | {:>6} {:>9.2} {:>9.3} {:>5.1} {:>5.1} | {:>6} {:>4} {:>4}",
        name,
        lang,
        lines,
        s.prep_ci, s.prep_pi, s.prep_mb,
        s.par_num, s.par_name, s.par_failg,
        s.ver_rg, s.ver_mm, s.ver_br, s.ver_other,
        s.rules,
        s.learn_time.as_secs_f64() * 1e3,
        if s.rules > 0 { s.learn_time.as_secs_f64() * 1e3 / s.rules as f64 } else { 0.0 },
        vfy_share,
        s.cache_hit_rate() * 100.0,
        wd.0,
        wd.1,
        wd.2,
    )
}

/// Format a slice of (label, value) pairs as an aligned table body.
pub fn print_rows(rows: &[(String, String)]) {
    let w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (l, v) in rows {
        println!("{l:<w$}  {v}");
    }
}

/// Shared preamble: learn from all suite programs under `config`,
/// printing progress.
pub fn learn_everything(config: &Config) -> Vec<ProgramRules> {
    eprintln!("learning rules from the 12 suite programs (leave-one-out sets are assembled per target)...");
    ldbt_core::experiment::learn_all(&ldbt_compiler::Options::o2(), config).expect("suite compiles")
}

/// Whether `LDBT_DETERMINISTIC=1` is set: experiment binaries then zero
/// their wall-clock columns so two invocations are byte-identical
/// (`scripts/tier1.sh` uses this to prove tracing cannot perturb
/// results). Anything but exactly `1` leaves timing untouched.
pub fn deterministic_output() -> bool {
    std::env::var("LDBT_DETERMINISTIC").as_deref() == Ok("1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table1_row_layout_is_pinned() {
        let s = LearnStats {
            name: "demo".into(),
            total: 100,
            prep_ci: 10,
            prep_pi: 2,
            prep_mb: 3,
            par_num: 4,
            par_name: 5,
            par_failg: 6,
            ver_rg: 7,
            ver_mm: 8,
            ver_br: 9,
            ver_other: 1,
            rules: 45,
            cache_hits: 30,
            cache_misses: 40,
            learn_time: Duration::from_millis(90),
            verify_time: Duration::from_millis(45),
        };
        assert_eq!(
            table1_row("mcf", "C", 123, &s, (17, 1, 1)),
            "mcf           C   123 |    10    2    3 |     4     5      6 |    7    8    9     1 |     45     90.00     2.000  50.0  42.9 |     17    1    1"
        );
        // Zeroed wall-clock (the LDBT_DETERMINISTIC=1 rendering) divides
        // nothing by zero.
        let z = LearnStats { learn_time: Duration::ZERO, verify_time: Duration::ZERO, ..s };
        assert_eq!(
            table1_row("mcf", "C", 123, &z, (0, 0, 0)),
            "mcf           C   123 |    10    2    3 |     4     5      6 |    7    8    9     1 |     45      0.00     0.000   0.0  42.9 |      0    0    0"
        );
    }
}
