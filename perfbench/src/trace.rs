//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records the public call it wraps, its start and end on a clock
//! shared by the whole process, the span that was open around it, the run
//! it belongs to, and the counts the call returned. Spans stay in memory
//! and are written out once, when the traced run ends. A disabled tracer
//! records nothing, so the untraced run pays only a branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span within its tracer.
    pub id: usize,
    /// The span that was open around this one, if any.
    pub parent: Option<usize>,
    /// The simulation run the span belongs to (0 for set-up).
    pub run: u64,
    /// The library call the span wraps.
    pub name: &'static str,
    /// Nanoseconds since the process clock's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process clock's epoch (0 while still open).
    pub end_ns: u64,
    /// Counts the call returned, recorded at the same boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A span recorder for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans against `epoch`.
    #[must_use]
    pub fn on(epoch: Instant) -> Self {
        Self {
            epoch: Some(epoch),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock this tracer records against (now, for a disabled one).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch.unwrap_or_else(Instant::now)
    }

    /// Open a span named after the call it wraps; returns its handle.
    pub fn enter(&mut self, name: &'static str, run: u64) -> usize {
        let Some(epoch) = self.epoch else {
            return usize::MAX;
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run,
            name,
            start_ns: nanos_since(epoch),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the span `id` (the innermost open one) with its counts.
    pub fn exit(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        let Some(epoch) = self.epoch else {
            return;
        };
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = nanos_since(epoch);
        span.counts = counts.to_vec();
    }

    /// Seconds of span `id` (0 when tracing is off or the span is open).
    #[must_use]
    pub fn secs(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, Span::secs)
    }

    /// Append `other`'s spans, renumbering them after this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Total seconds of every span named `name`.
    #[must_use]
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Per call name: number of spans, total seconds and self seconds (the
    /// total minus the time child spans cover), sorted by self time.
    #[must_use]
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_secs[parent] += span.secs();
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for span in &self.spans {
            let own = span.secs() - child_secs[span.id];
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.secs();
                    row.3 += own;
                }
                None => rows.push((span.name, 1, span.secs(), own)),
            }
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
                s.id,
                s.run,
                s.name,
                s.start_ns,
                s.end_ns,
                counts.join(", ")
            );
        }
        out
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("a", 1);
        t.exit(id, &[("n", 3)]);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_self_time() {
        let mut t = Tracer::on(Instant::now());
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner, &[("n", 3)]);
        t.exit(outer, &[]);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert_eq!(t.spans[inner].counts, vec![("n", 3)]);
        let summary = t.summary();
        let outer_row = summary.iter().find(|r| r.0 == "outer").unwrap();
        assert!(outer_row.3 <= outer_row.2);

        let mut merged = Tracer::on(Instant::now());
        let first = merged.enter("x", 1);
        merged.exit(first, &[]);
        merged.absorb(t);
        assert_eq!(merged.spans[2].parent, Some(1));
        assert_eq!(merged.total_secs("inner"), merged.spans[2].secs());
    }
}
