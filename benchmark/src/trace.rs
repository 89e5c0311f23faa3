//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self time derived from them.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans while `enabled`; while disabled, `open` and `close` do
/// nothing, so untraced passes pay one branch per call.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    pub enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its id (its index in [`Tracer::spans`]).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        if self.enabled {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
        }
        id
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, in seconds: each span's duration minus the part
/// of its interval that its children cover. Children may overlap each other
/// or stick out of the parent; only their union inside the parent counts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_parent() {
        let spans = [
            span(0, None, "pass", 0, 100),
            // Overlapping children: [10, 40) and [30, 60) cover 50 ns.
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),
            // A child sticking out of the parent counts only up to 100.
            span(3, Some(0), "a", 90, 130),
            // A grandchild reduces its own parent, not the pass.
            span(4, Some(2), "c", 35, 45),
        ];
        let t = self_times(&spans);
        let ns = |name| (t[name] * 1e9).round() as u64;
        assert_eq!(ns("pass"), 100 - 50 - 10);
        assert_eq!(ns("a"), 30 + 40);
        assert_eq!(ns("b"), 30 - 10);
        assert_eq!(ns("c"), 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        let id = t.open("pass", None);
        t.close(id);
        assert!(t.spans().is_empty());
        t.enabled = true;
        let id = t.open("pass", None);
        t.close(id);
        assert_eq!(t.spans().len(), 1);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
    }
}
