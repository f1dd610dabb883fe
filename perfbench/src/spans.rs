//! Spans recorded around the calls into each layer, from outside.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! program it belongs to. Spans stay in memory and are written once,
//! when the run ends. A layer's *self time* is its spans' durations
//! minus what their child spans cover, so self times over a tree sum to
//! the root's duration exactly.

use ldbt_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the program (corpus or guest) the span worked on.
    pub item: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    item: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), item: 0 }
    }

    /// Program index stamped on the spans opened from now on.
    pub fn set_item(&mut self, item: usize) {
        self.item = item as u32;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `f` gets the tracer back to open children of its own.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Total duration (children included) and count of the spans named
    /// `name`, in seconds.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let mut ns = 0;
        let mut n = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.ns();
            n += 1;
        }
        (ns as f64 / 1e9, n)
    }

    /// Self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// Seconds covered by the root spans (those with no parent).
    pub fn root_time(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::ns).sum::<u64>() as f64 / 1e9
    }

    /// The span file: every span, then self time by layer.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::u64(id as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::u64(s.start_ns)),
                    ("end_ns", Json::u64(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::u64(p as u64))),
                    ("item", Json::u64(u64::from(s.item))),
                ])
            })
            .collect();
        let self_s =
            self.self_times().into_iter().map(|(k, v)| (k.to_string(), Json::Num(v))).collect();
        Json::obj(vec![
            ("root_s", Json::Num(self.root_time())),
            ("self_s", Json::Obj(self_s)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        t.span("pass", |t| {
            t.set_item(3);
            t.span("a", |t| {
                t.span("b", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            });
            t.span("b", |_| ());
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.item)).collect();
        assert_eq!(
            names,
            [("pass", None, 0), ("a", Some(0), 3), ("b", Some(1), 3), ("b", Some(0), 3)]
        );
        assert_eq!(t.total("b").1, 2);
        let own: f64 = t.self_times().values().sum();
        assert!((own - t.root_time()).abs() < 1e-9, "{own} vs {}", t.root_time());
        assert!(t.self_times()["b"] >= 0.002);
        // Children never outlast their parent.
        for s in &t.spans {
            if let Some(p) = s.parent {
                assert!(t.spans[p].start_ns <= s.start_ns && s.end_ns <= t.spans[p].end_ns);
            }
        }
        let file = t.to_json().render();
        let parsed = ldbt_obs::json::parse(&file).expect("span file is JSON");
        assert_eq!(parsed.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len), Some(4));
    }
}
