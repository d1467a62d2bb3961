//! Wall-clock spans the benchmark records around each layer call it makes.
//!
//! Spans stay in memory while the run measures and are written once at the
//! end as a Chrome trace (`chrome://tracing` / Perfetto): one complete
//! (`"ph":"X"`) event per span, nested by time on a single track, with the
//! span's id and its parent's id in `args`. Nothing inside the program is
//! instrumented; the simulated-time view of the solver is the separate
//! `PERF_<workload>.json`.

use std::time::Instant;

use shrinksvm_obs::json::{escape_into, write_f64};

/// One recorded span, in microseconds since the recorder started.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

/// Span recorder: [`Spans::scope`] records a span around a call, nested
/// under the innermost open span.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Open a span; returns its id for [`Spans::exit`].
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    ///
    /// # Panics
    /// When spans are closed out of order — a bug in the caller.
    fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// The spans as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            escape_into(&mut out, s.name);
            out.push_str(",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
            write_f64(&mut out, s.start_us);
            out.push_str(",\"dur\":");
            write_f64(&mut out, s.end_us - s.start_us);
            out.push_str(&format!(",\"args\":{{\"id\":{id},\"parent\":"));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_exports_valid_json() {
        let mut s = Spans::default();
        s.scope("outer", |s| {
            s.scope("inner", |_| ());
        });
        s.scope("next", |_| ());
        let parents: Vec<_> = s.spans.iter().map(|x| (x.name, x.parent)).collect();
        assert_eq!(
            parents,
            [("outer", None), ("inner", Some(0)), ("next", None)]
        );
        assert!(s.spans.iter().all(|x| x.end_us >= x.start_us));
        shrinksvm_obs::json::check(&s.to_chrome_json()).expect("valid JSON");
    }
}
