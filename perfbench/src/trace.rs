//! In-memory spans around the runner's calls into each layer.
//!
//! Every timed segment goes through a [`Tracer`], traced or not, so the
//! end-to-end timings come from the same code path either way. With
//! tracing on, each segment is also kept as a span (name, start, end,
//! parent) and written out with the run's result when the run ends.

use djson::Json;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Times segments and, when on, records them as nested spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open segment; pass it back to [`Tracer::exit`].
#[derive(Debug)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a segment named `layer.what`; nested inside the innermost
    /// open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_s: start.duration_since(self.origin).as_secs_f64(),
                end_s: f64::NAN,
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        });
        Open { index, start }
    }

    /// Closes a segment and returns its wall seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.open.pop(), Some(index), "spans close in LIFO order");
            self.spans[index].end_s = end.duration_since(self.origin).as_secs_f64();
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a segment; returns its value and wall seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let value = f();
        (value, self.exit(open))
    }

    /// The recorded spans as `[{id, parent, name, start_s, end_s}]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::U64(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("name", Json::Str(s.name.to_owned())),
                        ("start_s", Json::F64(s.start_s)),
                        ("end_s", Json::F64(s.end_s)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_tracer_times_but_keeps_no_spans() {
        let mut t = Tracer::new(false);
        let (v, s) = t.time("core.build", || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert_eq!(t.to_json(), Json::Arr(Vec::new()));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true);
        let outer = t.enter("bench.run");
        t.time("core.build", || ());
        t.exit(outer);
        let spans = t.to_json();
        let spans = spans.as_array().expect("array");
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").expect("field").is_null());
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        let (start, end) = (spans[1].get("start_s"), spans[1].get("end_s"));
        assert!(start.and_then(Json::as_f64) <= end.and_then(Json::as_f64));
    }
}
