//! Machine-readable run reports (`LDBT_STATS_JSON`).
//!
//! A run report is one JSON document (schema
//! [`ldbt_obs::selfcheck::REPORT_SCHEMA`]) capturing everything a run
//! measured: per-benchmark counter registries, per-rule execution
//! attribution, hot blocks, per-program learning statistics, and the
//! process-wide learn-worker metrics. `scripts/tier1.sh` validates the
//! emitted shape with the `obs_selfcheck` binary.
//!
//! Every field is deterministic: counters are pure functions of the
//! modeled execution, rule profiles sort by their stable key (rendered
//! as fixed-width hex so string order is numeric order), and wall-clock
//! durations are deliberately excluded.

use crate::BenchRun;
use ldbt_learn::LearnStats;
use ldbt_obs::json::Json;
use ldbt_obs::selfcheck::REPORT_SCHEMA;
use std::path::PathBuf;

/// Names of [`LearnStats::counters`] entries, in that array's order.
pub const LEARN_COUNTER_NAMES: [&str; 14] = [
    "total",
    "prep_ci",
    "prep_pi",
    "prep_mb",
    "par_num",
    "par_name",
    "par_failg",
    "ver_rg",
    "ver_mm",
    "ver_br",
    "ver_other",
    "rules",
    "cache_hits",
    "cache_misses",
];

fn counters_obj(pairs: &[(&str, u64)]) -> Json {
    Json::obj(pairs.iter().map(|(n, v)| (*n, Json::u64(*v))).collect())
}

/// One benchmark's report entry: the full counter registry plus the
/// execution-hotness profile.
pub fn bench_report(run: &BenchRun) -> Json {
    let rules: Vec<Json> = run
        .profile
        .rules
        .iter()
        .map(|r| {
            Json::obj(vec![
                // Fixed-width hex: string order is numeric order, which
                // the schema self-check relies on.
                ("key", Json::Str(format!("{:#018x}", r.key))),
                ("len", Json::u64(r.len as u64)),
                ("blocks", Json::u64(r.blocks)),
                ("execs", Json::u64(r.execs)),
            ])
        })
        .collect();
    let hot: Vec<Json> = run
        .profile
        .hot_blocks
        .iter()
        .map(|b| {
            Json::obj(vec![
                ("pc", Json::Str(format!("{:#010x}", b.pc))),
                ("execs", Json::u64(b.execs)),
                ("guest_len", Json::u64(b.guest_len)),
                ("covered", Json::u64(b.covered)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::Str(run.name.clone())),
        ("engine", Json::Str(run.engine.name().to_string())),
        ("counters", counters_obj(&run.stats.registry())),
        ("rules", Json::Arr(rules)),
        ("hot_blocks", Json::Arr(hot)),
        // Log2 block-hotness histogram: entry i counts live blocks whose
        // exec count has bit length i.
        ("hotness", Json::Arr(run.profile.hotness.iter().map(|&c| Json::u64(c)).collect())),
    ])
}

/// One program's learning statistics (the deterministic counters only).
pub fn learn_report(s: &LearnStats) -> Json {
    let pairs: Vec<(&str, u64)> =
        LEARN_COUNTER_NAMES.iter().copied().zip(s.counters().map(|v| v as u64)).collect();
    Json::obj(vec![("name", Json::Str(s.name.clone())), ("counters", counters_obj(&pairs))])
}

/// Assemble the full run report from whatever this process measured.
/// The `learn_workers` section snapshots the process-wide
/// [`ldbt_learn::worker_metrics`] registry (cumulative across every
/// pipeline run in the process).
pub fn run_report(benches: &[BenchRun], learn: &[LearnStats]) -> Json {
    let mut fields = vec![
        ("schema", Json::Str(REPORT_SCHEMA.to_string())),
        ("benches", Json::Arr(benches.iter().map(bench_report).collect())),
    ];
    if !learn.is_empty() {
        fields.push(("learn", Json::Arr(learn.iter().map(learn_report).collect())));
    }
    fields.push(("learn_workers", counters_obj(&ldbt_learn::worker_metrics().snapshot())));
    Json::obj(fields)
}

/// The run-report destination from `LDBT_STATS_JSON` (empty/whitespace
/// values mean "no report", like an unset variable).
pub fn stats_json_path() -> Option<PathBuf> {
    std::env::var("LDBT_STATS_JSON").ok().filter(|p| !p.trim().is_empty()).map(PathBuf::from)
}

/// Write the run report to the `LDBT_STATS_JSON` path if one is
/// configured. Returns the path written, `None` when unconfigured. A
/// write failure is reported on stderr but never fails the run — the
/// report is diagnostics, not results.
pub fn write_if_configured(benches: &[BenchRun], learn: &[LearnStats]) -> Option<PathBuf> {
    let path = stats_json_path()?;
    let mut text = run_report(benches, learn).render();
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("LDBT_STATS_JSON: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_benchmark, Config, EngineKind};
    use ldbt_compiler::Options;
    use ldbt_obs::selfcheck::check_run_report;
    use ldbt_workloads::Workload;

    #[test]
    fn report_passes_its_own_selfcheck() {
        let cfg = Config::DEFAULT;
        let run = run_benchmark("mcf", Workload::Test, EngineKind::Tcg, &Options::o2(), None, &cfg);
        let learn = LearnStats { name: "demo".into(), total: 3, rules: 1, ..Default::default() };
        let report = run_report(&[run], &[learn]);
        let text = report.render();
        check_run_report(&text).unwrap();
        // The learn section round-trips its counters by name.
        let v = ldbt_obs::json::parse(&text).unwrap();
        let learn = v.get("learn").and_then(Json::as_arr).unwrap();
        let ctrs = learn[0].get("counters").unwrap();
        assert_eq!(ctrs.get("total").and_then(Json::as_num), Some(3.0));
        assert_eq!(ctrs.get("rules").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn rules_profile_is_sorted_and_checksummed() {
        let cfg = Config::DEFAULT;
        let (rules, _) = crate::learn_suite(&Options::o2(), Some("mcf"), &cfg).unwrap();
        let o2 = Options::o2();
        let run = run_benchmark("mcf", Workload::Test, EngineKind::Rules, &o2, Some(&rules), &cfg);
        assert!(!run.profile.rules.is_empty(), "rules engine attributes rule hits");
        let text = run_report(&[run], &[]).render();
        check_run_report(&text).unwrap();
    }
}
