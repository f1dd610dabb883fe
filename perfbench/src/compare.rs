//! `perfbench compare A.json B.json`: B (the change) against A (the
//! parent), per workload and end-to-end metric, by the direction and
//! bound the spec fixes.
//!
//! * **regressed** — B's median is worse than A's by more than the
//!   bound, or B has no value where A has one;
//! * **unresolved** — not regressed, but the run-to-run spread of either
//!   side (quartile distance over median) is wider than the bound, and
//!   B's runs do not all read better than all of A's; or A has no value
//!   to compare with;
//! * **improved** — every run of B reads better than every run of A and
//!   the medians differ by more than the spread of A's own runs (with
//!   fewer than four runs a side there are no quartiles: by more than
//!   the bound);
//! * **unchanged** — none of the above.
//!
//! Each workload is its own row; nothing is folded into a score. A row
//! tagged `probe` re-measures what another workload's main half gates
//! (`WorkloadSpec::is_probe`) and is no independent evidence. A larger
//! share of failed operations is a regression whatever the metrics say.
//!
//! Below the table come the `holdout.*` rows of every seed both files
//! ran with layers on: the end-to-end definitions on programs nobody
//! tuned anything on, side by side. They are not gated — they vary with
//! the seed by design — but they repeat exactly on one commit, so any
//! difference is the change's.

use crate::report::{count, Reported};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{quantile, quartiles, spread};
use ldbt_obs::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if b.is_empty() {
        // The change stopped reporting what the parent reported.
        return Verdict::Regressed;
    }
    if a.is_empty() {
        return Verdict::Unresolved;
    }
    let (med_a, med_b) = (quantile(a, 0.5), quantile(b, 0.5));
    // How much worse B's median is: in the metric's unit, then as a
    // share of A's. A zero median has no shares, so any worsening from
    // it is beyond every bound.
    let diff = match better {
        Better::Lower => med_b - med_a,
        Better::Higher => med_a - med_b,
    };
    let worse = if diff == 0.0 {
        0.0
    } else if med_a == 0.0 {
        diff.signum() * f64::INFINITY
    } else {
        diff / med_a.abs()
    };
    if worse > bound {
        return Verdict::Regressed;
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let clean_win = b.iter().all(|x| a.iter().all(|y| beats(*x, *y)));
    if spread(a).max(spread(b)) > bound && !clean_win {
        return Verdict::Unresolved;
    }
    let beyond_noise = if a.len() >= 4 && b.len() >= 4 {
        let [q1, _, q3] = quartiles(a);
        -diff > q3 - q1
    } else {
        -worse > bound
    };
    if clean_win && beyond_noise {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One run of a `perfbench run --out` file: its seed, and per workload
/// the end-to-end metrics plus the `holdout.*` layer rows, if any.
pub type Runs = Vec<(u64, Vec<(String, Reported)>)>;

fn is_holdout(name: &str) -> bool {
    name.starts_with("holdout.")
}

/// Parse a `perfbench run --out` file.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let file = ldbt_obs::json::parse(text)?;
    let runs = file.get("runs").and_then(Json::as_arr).ok_or("no \"runs\" array")?;
    runs.iter()
        .map(|run| {
            let seed = count(run, "seed")?;
            let workloads =
                run.get("workloads").and_then(Json::as_obj).ok_or("a run has no \"workloads\"")?;
            let workloads = workloads
                .iter()
                .map(|(name, w)| {
                    let end_to_end = w
                        .get("end_to_end")
                        .and_then(Json::as_obj)
                        .ok_or(format!("{name} has no end_to_end"))?;
                    let per_layer = w.get("per_layer").and_then(Json::as_obj).unwrap_or(&[]);
                    let metrics = end_to_end
                        .iter()
                        .chain(per_layer.iter().filter(|(k, _)| is_holdout(k)))
                        .filter_map(|(k, v)| Some((k.clone(), v.as_num()?)))
                        .collect();
                    let counted = |key| count(w, key).map_err(|e| format!("{name}: {e}"));
                    Ok((
                        name.clone(),
                        Reported {
                            attempted: counted("attempted")?,
                            failed: counted("failed")?,
                            metrics,
                        },
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((seed, workloads))
        })
        .collect()
}

fn values(runs: &Runs, workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|(_, workloads)| workloads)
        .filter(|(w, _)| w == workload)
        .flat_map(|(_, r)| r.metrics.iter().filter(|(m, _)| m == metric).map(|(_, v)| *v))
        .collect()
}

fn failed_share(runs: &Runs, workload: &str) -> f64 {
    let (mut attempted, mut failed) = (0, 0);
    for (_, r) in runs.iter().flat_map(|(_, workloads)| workloads).filter(|(w, _)| w == workload) {
        attempted += r.attempted;
        failed += r.failed;
    }
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// B's value against A's, as a signed percentage of A's.
fn change_pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a.abs() * 100.0
    }
}

fn value_in(run: &[(String, Reported)], workload: &str, metric: &str) -> Option<f64> {
    let (_, reported) = run.iter().find(|(w, _)| w == workload)?;
    reported.metrics.iter().find(|(m, _)| m == metric).map(|(_, v)| *v)
}

/// The `holdout.*` rows of every seed both files have them for.
fn print_holdout(a: &Runs, b: &Runs) {
    println!("holdout rows, same seed in both files (not gated):");
    let mut rows = 0;
    for (seed, run_a) in a {
        let Some((_, run_b)) = b.iter().find(|(s, _)| s == seed) else { continue };
        for w in WORKLOADS {
            for m in PER_LAYER.iter().filter(|m| is_holdout(m.name)) {
                let (Some(va), Some(vb)) =
                    (value_in(run_a, w.name, m.name), value_in(run_b, w.name, m.name))
                else {
                    continue;
                };
                rows += 1;
                println!(
                    "  seed {seed:<4} {:<11} {:<32} {va:>12.6} {vb:>12.6} {:>+7.2}%",
                    w.name,
                    m.name,
                    change_pct(va, vb)
                );
            }
        }
    }
    if rows == 0 {
        println!("  none: no seed was run with layers on in both files");
    }
}

/// Print one row per workload and metric; `true` when nothing
/// regressed and no workload failed a larger share of its operations.
pub fn compare(a: &Runs, b: &Runs) -> bool {
    let mut ok = true;
    println!(
        "{:<11} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(m.better, m.bound, &va, &vb);
            ok &= v != Verdict::Regressed;
            let (ma, mb) = (quantile(&va, 0.5), quantile(&vb, 0.5));
            println!(
                "{:<11} {:<24} {:>14.6} {:>14.6} {:>+7.2}% {:>6.1}%  {}{} (n={}/{}, spread {:.2}%/{:.2}%)",
                w.name,
                m.name,
                ma,
                mb,
                change_pct(ma, mb),
                m.bound * 100.0,
                v.name(),
                if w.is_probe(m.name) { " probe" } else { "" },
                va.len(),
                vb.len(),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
        }
        let (fa, fb) = (failed_share(a, w.name), failed_share(b, w.name));
        if fb > fa {
            ok = false;
            println!(
                "{:<11} failed operations: {:.4}% -> {:.4}%  REGRESSED",
                w.name,
                fa * 100.0,
                fb * 100.0
            );
        }
    }
    print_holdout(a, b);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};
    use Verdict::*;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        // A deterministic count that repeats exactly.
        assert_eq!(verdict(Lower, 0.005, &[2.5; 5], &[2.5; 5]), Unchanged);
        // Worse by more than the bound, in the metric's own direction.
        assert_eq!(verdict(Lower, 0.08, &[100.0; 5], &[109.0; 5]), Regressed);
        assert_eq!(verdict(Higher, 0.08, &[100.0; 5], &[91.0; 5]), Regressed);
        assert_eq!(verdict(Higher, 0.08, &[100.0; 5], &[109.0; 5]), Improved);
        assert_eq!(verdict(Lower, 0.08, &[100.0; 5], &[95.0; 5]), Improved);
        // Inside the bound and not a clean win: nothing to say.
        assert_eq!(
            verdict(Lower, 0.08, &[100.0, 101.0, 99.0, 100.5], &[100.2, 99.5, 101.0, 100.0]),
            Unchanged
        );
        // Spread wider than the bound: unresolved, not unchanged …
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(Lower, 0.08, &noisy, &[85.0, 105.0, 118.0, 95.0, 100.0]), Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(verdict(Lower, 0.08, &noisy, &[60.0, 55.0, 65.0, 50.0, 62.0]), Improved);
        // A clean win smaller than A's own spread is not a claim.
        assert_eq!(
            verdict(Lower, 0.08, &[100.0, 101.0, 102.0, 103.0], &[99.9, 99.8, 99.7, 99.6]),
            Unchanged
        );
        // One run a side: the bound is all there is to go by.
        assert_eq!(verdict(Higher, 0.08, &[16.0], &[16.4]), Unchanged);
        assert_eq!(verdict(Higher, 0.08, &[16.0], &[18.0]), Improved);
        assert_eq!(verdict(Higher, 0.08, &[16.0], &[14.0]), Regressed);
        // Nothing to compare with; and a metric that vanished.
        assert_eq!(verdict(Lower, 0.1, &[], &[1.0]), Unresolved);
        assert_eq!(verdict(Lower, 0.1, &[1.0], &[]), Regressed);
        // A zero median has no shares: worse is regressed, equal is not.
        assert_eq!(verdict(Lower, 0.1, &[0.0; 5], &[0.001; 5]), Regressed);
        assert_eq!(verdict(Higher, 0.1, &[0.0; 5], &[0.001; 5]), Improved);
        assert_eq!(verdict(Lower, 0.1, &[0.0; 5], &[0.0; 5]), Unchanged);
    }

    fn file(guest_mips: f64, failed: u64) -> String {
        format!(
            "{{\"header\":{{}},\"runs\":[{{\"seed\":7,\"workloads\":{{\"ref_exec\":{{\"attempted\":100,\"failed\":{failed},\"end_to_end\":{{\"guest_mips\":{guest_mips},\"setup_s\":0.25}},\"per_layer\":{{\"holdout.dyn_coverage\":0.44,\"smt.equiv_us\":3.5}}}}}}}}]}}"
        )
    }

    #[test]
    fn files_round_trip_and_failures_count_as_regressions() {
        let a = parse_runs(&file(16.0, 0)).unwrap();
        assert_eq!(a[0].0, 7);
        assert_eq!(values(&a, "ref_exec", "guest_mips"), [16.0]);
        assert_eq!(values(&a, "ref_exec", "setup_s"), [0.25]);
        assert!(values(&a, "churn", "guest_mips").is_empty());
        // Of the layer rows, only the holdout's are kept.
        assert_eq!(value_in(&a[0].1, "ref_exec", "holdout.dyn_coverage"), Some(0.44));
        assert_eq!(value_in(&a[0].1, "ref_exec", "smt.equiv_us"), None);
        assert!(compare(&a, &parse_runs(&file(16.1, 0)).unwrap()));
        assert!(!compare(&a, &parse_runs(&file(12.0, 0)).unwrap()), "slower than the bound");
        assert!(!compare(&a, &parse_runs(&file(16.0, 1)).unwrap()), "a larger failed share");
        let without = file(16.0, 0).replace("\"guest_mips\":16,", "");
        assert!(!compare(&a, &parse_runs(&without).unwrap()), "a metric B stopped reporting");
        assert!(compare(&parse_runs(&without).unwrap(), &a), "a metric B started reporting");
        assert!(parse_runs("{}").is_err());
    }
}
