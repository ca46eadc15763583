//! Spans recorded by the benchmark around its calls into each crate.
//!
//! Spans live in memory while the traced run works and are written out
//! as JSON lines when it ends. A span's *self time* is its duration minus
//! the time its child spans cover, minus `inner_ns` — time measured
//! inside a callback the span's layer makes into another layer (the
//! verify loop's `eval_batch` closure), which is too fine-grained for a
//! span of its own.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operator family or workload name the span worked on ("" if none).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Time spent in the span's untraced callback into another layer.
    pub inner_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Summed self time and span count of one `(name, tag)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub self_ns: u64,
    pub total_ns: u64,
    pub inner_ns: u64,
    pub spans: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts attributing new spans to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, tag: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            inner_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, tag);
        let out = f();
        self.exit(id);
        out
    }

    /// Records `ns` of callback time inside span `id`.
    pub fn add_inner(&mut self, id: usize, ns: u64) {
        self.spans[id].inner_ns += ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c + s.inner_ns))
            .collect()
    }

    /// Per `(name, tag)` totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), Total> {
        let mut out: BTreeMap<(&'static str, &'static str), Total> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry((span.name, span.tag)).or_default();
            t.self_ns += self_ns;
            t.total_ns += span.end_ns - span.start_ns;
            t.inner_ns += span.inner_ns;
            t.spans += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let uint = |n: u64| Value::UInt(n.into());
            let fields = vec![
                ("id", uint(id as u64)),
                ("name", Value::String(span.name.to_owned())),
                ("tag", Value::String(span.tag.to_owned())),
                ("start_ns", uint(span.start_ns)),
                ("end_ns", uint(span.end_ns)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| uint(p as u64)),
                ),
                ("op", uint(span.op)),
                ("inner_ns", uint(span.inner_ns)),
            ];
            let object =
                Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
            text.push_str(&serde_json::to_string(&object).expect("a Value always renders"));
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_inner_callback_time() {
        let mut t = Tracer::new();
        let root = t.enter("root", "");
        let child = t.enter("child", "x");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.add_inner(root, 100);
        t.exit(root);
        let spans = t.spans();
        let self_ns = t.self_times();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(self_ns[child], dur(child));
        assert_eq!(self_ns[root], dur(root) - dur(child) - 100);
        assert_eq!(t.totals()[&("child", "x")].spans, 1);
    }
}
