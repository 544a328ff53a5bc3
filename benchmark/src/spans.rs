//! Spans recorded by the traced run, from the benchmark's side of each
//! layer boundary: name, start, end, the span that caused it, and the
//! chunk (the unit of work all layers advance over in lock-step) they
//! share. Kept in memory; written out once when the run ends.

use std::path::Path;
use std::time::Instant;

use flash_obs::JsonValue;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    chunk: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id, for use as a parent and for
    /// [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, chunk: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            chunk,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (span.end_us - span.start_us) / 1e6
    }

    /// Runs `f` inside a child span; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let chunk = self.spans[parent].chunk;
        let id = self.open(name, Some(parent), chunk);
        let result = f();
        (result, self.close(id))
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonValue::Object(vec![
                    ("id".into(), JsonValue::UInt(id as u64)),
                    ("name".into(), JsonValue::String(s.name.into())),
                    ("start_us".into(), JsonValue::Number(s.start_us)),
                    ("end_us".into(), JsonValue::Number(s.end_us)),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64)),
                    ),
                    ("chunk".into(), JsonValue::UInt(s.chunk)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, JsonValue::Array(spans).render() + "\n")
    }
}
