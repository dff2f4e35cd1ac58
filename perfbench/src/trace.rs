//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `lf.add_column`.
    pub name: &'static str,
    /// The unit op it belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Span recorder. While off, `enter`/`exit` record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder, initially on or off.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off (between ops).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start a new unit op; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record an interval measured elsewhere (another thread or process),
    /// as a root span of its own op. `start`/`end` are instants.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let op = self.next_op();
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Self time of each span (its duration minus its children's), in ms,
    /// grouped by span name; one value per span.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.enter("round");
        t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit();
        t.exit();
        let st = t.self_times_ms();
        assert!(st["child"][0] >= 19.0);
        assert!(st["round"][0] < 5.0, "{st:?}");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, t.spans[1].op);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.self_times_ms().is_empty());
    }
}
