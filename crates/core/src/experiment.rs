//! One driver per table/figure of the paper's evaluation (§6).
//!
//! Each function returns plain data; the `ldbt-bench` binaries print the
//! rows and EXPERIMENTS.md records paper-vs-measured values.

use crate::{run_benchmark, BenchRun, Config, EngineKind};
use ldbt_compiler::{CompileError, OptLevel, Options};
use ldbt_learn::pipeline::learn_from_source_cached;
use ldbt_learn::{LearnStats, RuleSet, VerifyCache};
use ldbt_workloads::{source, Benchmark, Workload, SUITE};

/// Per-program learned rules (kept separate so leave-one-out sets can be
/// assembled without re-learning).
#[derive(Debug, Clone)]
pub struct ProgramRules {
    /// Program name.
    pub name: String,
    /// Rules learned from this program alone.
    pub rules: RuleSet,
    /// Learning statistics (Table 1 row).
    pub stats: LearnStats,
}

/// Learn rules from every suite program individually.
///
/// Each program is learned exactly once (its `RuleSet` is kept separate
/// so the twelve leave-one-out sets compose from the other eleven via
/// [`loo_rules`] instead of re-learning), and one verification memo
/// cache is shared across the suite so cross-program snippet repeats
/// verify only once.
///
/// Learning runs under `config`'s learner settings ([`Config::learn`]).
/// With a rule database configured ([`Config::ruledb`], the
/// `LDBT_RULEDB` knob), the verification memo warm-starts from it
/// ([`ldbt_learn::db`]): every
/// signature already memoized on disk skips symexec+SAT entirely, so a
/// second boot replays the suite at ~100% memo hit rate with
/// byte-identical learned rules. After learning, the merged suite rules
/// and the (grown) memo are written back, best-effort. A missing,
/// stale, or corrupt database is reported to stderr and learning falls
/// back to fresh — it never half-loads.
///
/// # Errors
///
/// Returns a [`CompileError`] if a generated program fails to compile.
pub fn learn_all(options: &Options, config: &Config) -> Result<Vec<ProgramRules>, CompileError> {
    let db_path = &config.ruledb;
    let config = config.learn();
    let mut cache = match db_path {
        Some(path) => match ldbt_learn::db::load(path) {
            Ok(db) => db.cache,
            Err(ldbt_learn::DbError::Io(_)) => VerifyCache::new(), // first boot
            Err(e) => {
                eprintln!("ldbt: ignoring rule database {}: {e}; learning fresh", path.display());
                VerifyCache::new()
            }
        },
        None => VerifyCache::new(),
    };
    let mut out = Vec::new();
    for b in &SUITE {
        let src = source(b, Workload::Ref);
        let report = learn_from_source_cached(b.name, &src, options, &config, &mut cache)?;
        out.push(ProgramRules {
            name: b.name.to_string(),
            rules: report.rules,
            stats: report.stats,
        });
    }
    if let Some(path) = db_path {
        let mut merged = RuleSet::new();
        for p in &out {
            merged.merge(&p.rules);
        }
        if let Err(e) = ldbt_learn::db::save(path, &merged, &cache) {
            eprintln!("ldbt: failed to write rule database {}: {e}", path.display());
        }
    }
    Ok(out)
}

/// Assemble the leave-one-out rule set for `exclude` by composing the
/// other programs' already-learned sets ([`RuleSet::merge`] — cross-
/// program dedup and shortest-host selection preserved, and the result
/// is independent of the composition order).
pub fn loo_rules(all: &[ProgramRules], exclude: &str) -> RuleSet {
    let mut rules = RuleSet::new();
    for p in all {
        if p.name != exclude {
            rules.merge(&p.rules);
        }
    }
    rules
}

/// Table 1: the per-benchmark learning statistics.
///
/// Returns `(benchmark, source line count, stats)` rows.
pub fn table1(all: &[ProgramRules]) -> Vec<(&'static Benchmark, usize, LearnStats)> {
    SUITE
        .iter()
        .map(|b| {
            let lines = source(b, Workload::Ref).lines().count();
            let stats =
                all.iter().find(|p| p.name == b.name).map(|p| p.stats.clone()).unwrap_or_default();
            (b, lines, stats)
        })
        .collect()
}

/// Figure 6: rules learned per optimization level.
///
/// # Errors
///
/// Propagates compile errors.
pub fn figure6(config: &Config) -> Result<Vec<(String, [usize; 4])>, CompileError> {
    // One memo cache across all programs *and* levels: snippet
    // signatures are content-based, so repeats between optimization
    // levels verify once too.
    let config = config.learn();
    let mut cache = VerifyCache::new();
    let mut rows = Vec::new();
    for b in &SUITE {
        let src = source(b, Workload::Ref);
        let mut counts = [0usize; 4];
        for (i, level) in OptLevel::ALL.iter().enumerate() {
            let report = learn_from_source_cached(
                b.name,
                &src,
                &Options { level: *level, style: ldbt_compiler::Style::Llvm },
                &config,
                &mut cache,
            )?;
            counts[i] = report.rules.len();
        }
        rows.push((b.name.to_string(), counts));
    }
    Ok(rows)
}

/// Figure 7's demonstration: at `-O0` the frame-bound code produces
/// operand shapes whose guest/host memory accesses and live-ins diverge,
/// so fewer rules are learned than at `-O2` — the paper's example where a
/// line's live-in registers "cannot be mapped using -O0 due to different
/// numbers".
///
/// Returns `(o0_rules, o0_param_fails, o2_rules, o2_param_fails)` for a
/// representative program (the mcf stand-in).
///
/// # Errors
///
/// Propagates compile errors.
pub fn figure7(config: &Config) -> Result<(usize, usize, usize, usize), CompileError> {
    let b = ldbt_workloads::benchmark("mcf").expect("suite program");
    let src = source(b, Workload::Ref);
    let config = config.learn();
    let learn = |level| {
        learn_from_source_cached(
            "mcf",
            &src,
            &Options::level(level),
            &config,
            &mut VerifyCache::new(),
        )
    };
    let o0 = learn(OptLevel::O0)?;
    let o2 = learn(OptLevel::O2)?;
    Ok((
        o0.rules.len(),
        o0.stats.par_num + o0.stats.par_name + o0.stats.par_failg,
        o2.rules.len(),
        o2.stats.par_num + o2.stats.par_name + o2.stats.par_failg,
    ))
}

/// One row of Figures 8/9: speedups over the TCG baseline.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub name: String,
    /// Rule-based speedup on the `test` workload.
    pub rules_test: f64,
    /// LLVM-JIT-style speedup on the `test` workload.
    pub jit_test: f64,
    /// Rule-based speedup on the `ref` workload.
    pub rules_ref: f64,
    /// LLVM-JIT-style speedup on the `ref` workload.
    pub jit_ref: f64,
    /// The `ref` rule run (kept for Figures 10–12).
    pub rules_ref_run: BenchRun,
    /// The `ref` baseline run.
    pub base_ref_run: BenchRun,
}

/// Figures 8 (LLVM-built guests) / 9 (GCC-built guests): speedups of the
/// rule prototype and the JIT backend over QEMU-style TCG.
///
/// `guest` selects the compiler style used to build the *guest* binaries;
/// rules always come from LLVM-style learning (`all`). Every engine
/// runs under `config`.
pub fn speedups(all: &[ProgramRules], guest: &Options, config: &Config) -> Vec<SpeedupRow> {
    SUITE
        .iter()
        .map(|b| {
            let rules = loo_rules(all, b.name);
            let get = |wl: Workload, kind: EngineKind| {
                run_benchmark(
                    b.name,
                    wl,
                    kind,
                    guest,
                    if kind == EngineKind::Rules { Some(&rules) } else { None },
                    config,
                )
            };
            let base_test = get(Workload::Test, EngineKind::Tcg);
            let rules_test = get(Workload::Test, EngineKind::Rules);
            let jit_test = get(Workload::Test, EngineKind::Jit);
            let base_ref = get(Workload::Ref, EngineKind::Tcg);
            let rules_ref = get(Workload::Ref, EngineKind::Rules);
            let jit_ref = get(Workload::Ref, EngineKind::Jit);
            SpeedupRow {
                name: b.name.to_string(),
                rules_test: rules_test.speedup_over(&base_test),
                jit_test: jit_test.speedup_over(&base_test),
                rules_ref: rules_ref.speedup_over(&base_ref),
                jit_ref: jit_ref.speedup_over(&base_ref),
                rules_ref_run: rules_ref,
                base_ref_run: base_ref,
            }
        })
        .collect()
}

/// Figure 10: percentage of dynamic host instructions removed by the
/// rules relative to the TCG baseline (`ref` workload).
pub fn dynamic_reduction(rows: &[SpeedupRow]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| {
            let base = r.base_ref_run.stats.exec.host_instrs as f64;
            let ours = r.rules_ref_run.stats.exec.host_instrs as f64;
            (r.name.clone(), (base - ours) / base)
        })
        .collect()
}

/// Figure 11: static and dynamic rule coverage (`ref` workload).
pub fn coverage(rows: &[SpeedupRow]) -> Vec<(String, f64, f64)> {
    rows.iter()
        .map(|r| {
            (
                r.name.clone(),
                r.rules_ref_run.stats.static_coverage(),
                r.rules_ref_run.stats.dynamic_coverage(),
            )
        })
        .collect()
}

/// Figure 12: length distribution of hit rules per benchmark: for each
/// benchmark, `dist[k]` = fraction of distinct hit rules with length
/// `k+1` (k = 5 collects "6 or more").
pub fn hit_length_distribution(rows: &[SpeedupRow]) -> Vec<(String, [f64; 6])> {
    rows.iter()
        .map(|r| {
            let h = r.rules_ref_run.stats.hit_length_histogram();
            let total: usize = h.values().sum();
            let mut dist = [0f64; 6];
            if total > 0 {
                for (len, count) in h {
                    let bucket = len.clamp(1, 6) - 1;
                    dist[bucket] += count as f64 / total as f64;
                }
            }
            (r.name.clone(), dist)
        })
        .collect()
}

/// Geometric mean helper used in the reported averages.
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn figure7_probe_shows_optimization_sensitivity() {
        let (o0_rules, _o0_fails, o2_rules, _o2_fails) = figure7(&Config::DEFAULT).unwrap();
        assert!(o2_rules > 0, "O2 learns from the probe");
        assert!(
            o0_rules < o2_rules,
            "higher optimization levels learn more rules (paper Fig. 6/7): {o0_rules} vs {o2_rules}"
        );
    }

    #[test]
    fn loo_excludes_target_program() {
        // Learn from two tiny programs directly to keep the test fast.
        let mk = |name: &str, src: &str| {
            let r = ldbt_learn::pipeline::learn_from_source(name, src, &Options::o2()).unwrap();
            ProgramRules { name: name.into(), rules: r.rules, stats: r.stats }
        };
        let a = mk("a", "int f(int x, int y) { return x + y - 1; }\nint main() { return f(1,2); }");
        let b = mk("b", "int g(int x) { return x ^ 255; }\nint main() { return g(7); }");
        let all = vec![a, b];
        let loo_a = loo_rules(&all, "a");
        let loo_none = loo_rules(&all, "zzz");
        assert!(loo_a.len() <= loo_none.len());
    }
}
