//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began; all spans of one workload iteration share that iteration's id.
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// Workload iteration the span belongs to.
    pub iteration: u64,
    /// Layer call, `module.call`.
    pub name: &'static str,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    iteration: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new iteration: later spans carry its id.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            id,
            iteration: self.iteration,
            name,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total and self time per span name, in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += self_ns;
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"iteration\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}\n",
            s.id, s.iteration, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            iteration: 0,
            name: "x",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50), // overlaps its sibling
            span(3, Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 20, 5]);
    }

    #[test]
    fn recorder_nests() {
        let mut r = Recorder::new();
        r.set_iteration(7);
        r.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1))
        });
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|x| x.iteration == 7));
    }
}
