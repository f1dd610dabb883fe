//! Span-style NDJSON event tracing, gated by `LDBT_TRACE`.
//!
//! Selector grammar (documented parse table, unit-tested below):
//!
//! | `LDBT_TRACE` value      | effect                                   |
//! |-------------------------|------------------------------------------|
//! | unset / empty / `"0"` / `"off"` | tracing disabled                 |
//! | `learn`                 | learn-pipeline events only               |
//! | `exec`                  | engine events only                       |
//! | `all`                   | both scopes                              |
//! | `<scope>:<path>`        | as above, written to `<path>` (else stderr) |
//! | anything else           | tracing disabled (fail safe, not fatal)  |
//!
//! Every event is one JSON object per line with a monotonic `ts_us`
//! (microseconds since tracer init), a `scope`, and an `ev` name.
//! Timestamps are taken *inside* the writer lock so file order is
//! timestamp order even when learn workers race — the selfcheck relies
//! on that.

use std::fs::File;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape_into;

/// Which half of the system an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Learn,
    Exec,
}

impl Scope {
    pub fn name(self) -> &'static str {
        match self {
            Scope::Learn => "learn",
            Scope::Exec => "exec",
        }
    }
}

/// Parsed form of `LDBT_TRACE`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    pub learn: bool,
    pub exec: bool,
    pub path: Option<String>,
}

impl TraceConfig {
    pub fn disabled(&self) -> bool {
        !self.learn && !self.exec
    }
}

/// Pure parse of the `LDBT_TRACE` selector (see module table).
pub fn parse_trace(raw: Option<&str>) -> TraceConfig {
    let raw = match raw {
        Some(s) => s.trim(),
        None => return TraceConfig::default(),
    };
    let (scope, path) = match raw.split_once(':') {
        Some((s, p)) if !p.is_empty() => (s, Some(p.to_string())),
        Some((s, _)) => (s, None),
        None => (raw, None),
    };
    let (learn, exec) = match scope {
        "learn" => (true, false),
        "exec" => (false, true),
        "all" => (true, true),
        // "", "0", "off", and unknown selectors all mean disabled.
        _ => (false, false),
    };
    if !learn && !exec {
        return TraceConfig::default();
    }
    TraceConfig { learn, exec, path }
}

/// One typed field value. Borrowed strings keep event sites
/// allocation-free up to the final render.
#[derive(Debug, Clone, Copy)]
pub enum Val<'a> {
    U(u64),
    I(i64),
    F(f64),
    S(&'a str),
    B(bool),
}

/// Lossless conversions into a field value, so event sites can pass ids,
/// pcs, counts and flags as they are.
macro_rules! val_from {
    ($($ty:ty => $variant:ident),*) => {$(
        impl From<$ty> for Val<'_> {
            fn from(v: $ty) -> Self {
                Val::$variant(v as _)
            }
        }
    )*};
}
val_from!(u32 => U, u64 => U, usize => U, bool => B);

impl<'a> From<&'a str> for Val<'a> {
    fn from(s: &'a str) -> Self {
        Val::S(s)
    }
}

/// Render one NDJSON line (no trailing newline). Pure, unit-testable.
pub fn render_event(ts_us: u64, scope: Scope, ev: &str, fields: &[(&str, Val)]) -> String {
    let mut out = String::with_capacity(64 + 16 * fields.len());
    out.push_str("{\"ts_us\":");
    out.push_str(&ts_us.to_string());
    out.push_str(",\"scope\":\"");
    out.push_str(scope.name());
    out.push_str("\",\"ev\":\"");
    escape_into(ev, &mut out);
    out.push('"');
    for (k, v) in fields {
        out.push_str(",\"");
        escape_into(k, &mut out);
        out.push_str("\":");
        match v {
            Val::U(n) => out.push_str(&n.to_string()),
            Val::I(n) => out.push_str(&n.to_string()),
            Val::F(n) => out.push_str(&format!("{n}")),
            Val::B(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::S(s) => {
                out.push('"');
                escape_into(s, &mut out);
                out.push('"');
            }
        }
    }
    out.push('}');
    out
}

struct Tracer {
    learn: bool,
    exec: bool,
    epoch: Instant,
    out: Mutex<Box<dyn Write + Send>>,
}

static TRACER: OnceLock<Option<Tracer>> = OnceLock::new();

fn tracer() -> Option<&'static Tracer> {
    TRACER
        .get_or_init(|| {
            let cfg = parse_trace(std::env::var("LDBT_TRACE").ok().as_deref());
            if cfg.disabled() {
                return None;
            }
            let out: Box<dyn Write + Send> = match &cfg.path {
                Some(p) => match File::create(p) {
                    Ok(f) => Box::new(f),
                    Err(e) => {
                        // Fail safe: keep tracing, to stderr.
                        eprintln!("LDBT_TRACE: cannot create {p}: {e}; tracing to stderr");
                        Box::new(std::io::stderr())
                    }
                },
                None => Box::new(std::io::stderr()),
            };
            Some(Tracer {
                learn: cfg.learn,
                exec: cfg.exec,
                epoch: Instant::now(),
                out: Mutex::new(out),
            })
        })
        .as_ref()
}

/// Cheap guard for event sites: one `OnceLock` load when disabled.
#[inline]
pub fn enabled(scope: Scope) -> bool {
    match tracer() {
        Some(t) => match scope {
            Scope::Learn => t.learn,
            Scope::Exec => t.exec,
        },
        None => false,
    }
}

/// Emit one event if the scope is enabled. The timestamp is taken under
/// the writer lock so lines are monotonic in file order.
pub fn emit(scope: Scope, ev: &str, fields: &[(&str, Val)]) {
    let Some(t) = tracer() else { return };
    let on = match scope {
        Scope::Learn => t.learn,
        Scope::Exec => t.exec,
    };
    if !on {
        return;
    }
    let mut out = t.out.lock().unwrap_or_else(|e| e.into_inner());
    let ts_us = t.epoch.elapsed().as_micros() as u64;
    let line = render_event(ts_us, scope, ev, fields);
    // A full disk is not worth crashing a run over; drop the line.
    let _ = writeln!(out, "{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_table() {
        // (input, learn, exec, path)
        let cases: &[(Option<&str>, bool, bool, Option<&str>)] = &[
            (None, false, false, None),
            (Some(""), false, false, None),
            (Some("0"), false, false, None),
            (Some("off"), false, false, None),
            (Some("bogus"), false, false, None),
            (Some("learn"), true, false, None),
            (Some("exec"), false, true, None),
            (Some("all"), true, true, None),
            (Some("exec:/tmp/t.ndjson"), false, true, Some("/tmp/t.ndjson")),
            (Some("all:out.ndjson"), true, true, Some("out.ndjson")),
            (Some(" learn "), true, false, None),
            // Unknown scope with a path is still disabled, and the path
            // is dropped with it.
            (Some("bogus:/tmp/x"), false, false, None),
            (Some("learn:"), true, false, None),
        ];
        for (raw, learn, exec, path) in cases {
            let cfg = parse_trace(*raw);
            assert_eq!(cfg.learn, *learn, "learn for {raw:?}");
            assert_eq!(cfg.exec, *exec, "exec for {raw:?}");
            assert_eq!(cfg.path.as_deref(), *path, "path for {raw:?}");
        }
    }

    #[test]
    fn render_is_valid_single_line_json() {
        let line = render_event(
            17,
            Scope::Exec,
            "translate",
            &[
                ("pc", Val::U(0x8000)),
                ("kind", Val::S("rules")),
                ("delta", Val::I(-3)),
                ("ratio", Val::F(0.5)),
                ("chained", Val::B(true)),
            ],
        );
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ts_us").and_then(crate::json::Json::as_num), Some(17.0));
        assert_eq!(v.get("scope").and_then(crate::json::Json::as_str), Some("exec"));
        assert_eq!(v.get("ev").and_then(crate::json::Json::as_str), Some("translate"));
        assert_eq!(v.get("pc").and_then(crate::json::Json::as_num), Some(32768.0));
        assert_eq!(v.get("kind").and_then(crate::json::Json::as_str), Some("rules"));
        assert_eq!(v.get("delta").and_then(crate::json::Json::as_num), Some(-3.0));
        assert_eq!(v.get("chained"), Some(&crate::json::Json::Bool(true)));
    }

    #[test]
    fn render_escapes_field_content() {
        let line = render_event(0, Scope::Learn, "e\"v", &[("k", Val::S("a\nb"))]);
        assert!(crate::json::parse(&line).is_ok(), "{line}");
    }
}
