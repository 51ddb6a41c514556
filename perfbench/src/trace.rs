//! Benchmark-side spans. Each span wraps one call into a layer's public
//! function (`layer.function`), carries the id of the change, step or run
//! it belongs to, and nests under the span open when it began. Spans stay
//! in memory until the run ends; a disabled recorder records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub(crate) struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span; [`Recorder::end`] closes it.
#[must_use]
pub(crate) struct Open(Option<usize>);

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part its child spans cover, summed by layer. Root spans (no parent)
/// are reported under their own layer, so the values add up to the total
/// duration of the root spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(children);
    }
    out
}

/// The spans as JSON lines: name, id, parent index, start and end.
pub(crate) fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"name":"{}","id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.id, parent, s.start_ns, s.end_ns
        )
        .unwrap();
    }
    out
}

/// Inclusive nanoseconds of every profiler node called `name`, not
/// descending into a match (so nested same-name spans are not counted
/// twice).
pub(crate) fn prof_ns(nodes: &[obs::prof::ProfNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| {
            if n.name == name {
                n.incl_ns
            } else {
                prof_ns(&n.children, name)
            }
        })
        .sum()
}

/// Inclusive nanoseconds of `child`-named nodes inside `parent`-named
/// subtrees.
pub(crate) fn prof_ns_within(nodes: &[obs::prof::ProfNode], parent: &str, child: &str) -> u64 {
    nodes
        .iter()
        .map(|n| {
            if n.name == parent {
                prof_ns(&n.children, child)
            } else {
                prof_ns_within(&n.children, parent, child)
            }
        })
        .sum()
}
