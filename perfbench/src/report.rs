//! The result a run prints: a table for people, then — as the last line
//! of standard output — one JSON object for the driver, with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`. Values are
//! written as measured, with all their digits.

use crate::measure::RunResult;
use crate::spec::unit_of;
use ldbt_obs::json::Json;

/// `name  value unit` rows, aligned.
pub fn table(metrics: &[(&str, f64)]) -> String {
    let width = metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|(name, v)| format!("  {name:<width$}  {v:>16.6} {}\n", unit_of(name).unwrap_or("?")))
        .collect()
}

/// The driver's line.
pub fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = unit_of(name).unwrap_or_else(|| panic!("{name} is not in the spec"));
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::Str(unit.to_string()))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::u64(r.attempted)),
        ("failed", Json::u64(r.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// One workload's result as `run` and `compare` keep it: counts, and
/// `name → value` for each metric the child reported.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reported {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// The whole number under `key` of a result object.
pub fn count(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_num).map(|n| n as u64).ok_or(format!("result has no {key}"))
}

/// Read a result line back.
pub fn parse_result_line(line: &str) -> Result<Reported, String> {
    let v = ldbt_obs::json::parse(line)?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value =
                m.get("value").and_then(Json::as_num).ok_or(format!("{name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(Reported { attempted: count(&v, "attempted")?, failed: count(&v, "failed")?, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    fn result(metrics: Vec<(&'static str, f64)>, failed: u64) -> RunResult {
        RunResult { attempted: 1000, failed, metrics, notes: Vec::new() }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_digit() {
        let metrics: Vec<_> =
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, 1.2034 + i as f64 / 3.0)).collect();
        let line = result_line(&result(metrics.clone(), 0));
        assert!(!line.contains('\n'));
        let v = ldbt_obs::json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert!(line.contains("\"attempted\":1000,\"failed\":0"), "whole numbers: {line}");
        let reported = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(reported.len(), END_TO_END.len());
        for ((name, value), spec) in reported.iter().zip(END_TO_END) {
            assert_eq!(name, spec.name);
            let fields: Vec<&str> =
                value.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(fields, ["value", "unit"]);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(spec.unit));
        }
        // Round trip: no digit is lost between the run and `compare`.
        let back = parse_result_line(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (1000, 0));
        for ((name, v), (want_name, want)) in back.metrics.iter().zip(&metrics) {
            assert_eq!((name.as_str(), *v), (*want_name, *want));
        }
    }

    #[test]
    fn a_failed_operation_reads_as_incorrect() {
        let line = result_line(&result(vec![("setup_s", 0.5)], 3));
        assert!(line.starts_with("{\"correct\":false,\"attempted\":1000,\"failed\":3,"));
    }

    #[test]
    fn per_layer_names_have_units_too() {
        let metrics: Vec<_> = PER_LAYER.iter().map(|m| (m.name, 1.5)).collect();
        let back = parse_result_line(&result_line(&result(metrics.clone(), 0))).unwrap();
        assert_eq!(back.metrics.len(), PER_LAYER.len());
        assert!(table(&metrics).contains("smt.equiv_us"));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line("{\"attempted\":1}").is_err());
    }
}
