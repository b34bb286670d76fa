//! In-memory spans for the traced run.
//!
//! A span is a name, a start and an end (wall ns since the process's first
//! span),
//! the index of its parent span (the wake it ran in), and the range of
//! ids — corpus transaction or query indices — it advanced. Spans are
//! kept in memory and written out once, after the timed phase.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `archival.on_gossip`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Parent span index (`u32::MAX` for a root).
    pub parent: u32,
    /// Range into [`Tracer::ids`] of the ids this span advanced.
    pub ids: (u32, u32),
}

/// Span recorder. `open`/`close` nest like a stack.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<u32>,
    ids: Vec<u32>,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus covered child time), ns.
    pub self_ns: u64,
    /// Ids advanced.
    pub ids: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    fn now(&self) -> u64 {
        static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        ORIGIN
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let at = self.ids.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            ids: (at, at),
        });
        self.stack.push(self.spans.len() as u32 - 1);
    }

    /// Closes the innermost span, crediting it with `ids`.
    pub fn close(&mut self, ids: &[u32]) {
        let i = self.stack.pop().expect("close matches an open") as usize;
        let end = self.now();
        self.ids.extend_from_slice(ids);
        let s = &mut self.spans[i];
        s.end = end;
        s.ids.1 = self.ids.len() as u32;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close(&[]);
        out
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name; self time subtracts direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end.saturating_sub(s.start);
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
            t.ids += u64::from(s.ids.1 - s.ids.0);
        }
        out
    }

    /// Writes every span as a tab-separated line: index, name, start ns,
    /// end ns, parent index (-1 for roots), advanced ids (comma list).
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "index\tname\tstart_ns\tend_ns\tparent\tids")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            let ids: Vec<String> = self.ids[s.ids.0 as usize..s.ids.1 as usize]
                .iter()
                .map(u32::to_string)
                .collect();
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name,
                s.start,
                s.end,
                ids.join(",")
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.open("wake");
        t.span("child", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        t.close(&[1, 2]);
        let totals = t.totals();
        let wake = totals["wake"];
        let child = totals["child"];
        assert_eq!(wake.count, 1);
        assert_eq!(wake.ids, 2);
        assert_eq!(wake.self_ns + child.total_ns, wake.total_ns);
        assert_eq!(t.spans()[1].parent, 0);
    }
}
