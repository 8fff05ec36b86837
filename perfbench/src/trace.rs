//! In-memory span recording around calls into the program's layers.
//!
//! A span is `(name, start, end, parent, request)`. Spans live in
//! memory until the run ends and are then written out in one file. A
//! span's self time is its duration minus the part of it its children
//! cover; [`reconcile`] checks that, for every request, the self times
//! of its span tree add up to the request span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client's span log. Indices are local to the log.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end;
        s.dur_ns()
    }

    /// Time `f` as a child span of `parent`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let request = self.spans[parent].request;
        let s = self.open(name, request, Some(parent));
        let out = f();
        let ns = self.close(s);
        (out, ns)
    }
}

/// Self time of every span, by index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Mean self time in microseconds per span name.
pub fn mean_self_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        let e = acc.entry(s.name).or_default();
        e.0 += ns as f64 / 1e3;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(k, (sum, n))| (k, sum / n as f64))
        .collect()
}

/// The smallest positive step of the monotonic clock, in nanoseconds.
pub fn timer_resolution_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..1000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min((b - a).as_nanos() as u64);
    }
    best.max(1)
}

/// Check every request's span tree: children lie inside their parent,
/// siblings do not overlap, and the self times of the tree add up to
/// the root span within one timer step per span. Returns the number of
/// requests checked, or the first violation.
pub fn reconcile(spans: &[Span], resolution_ns: u64) -> Result<usize, String> {
    let selfs = self_times(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                let ps = &spans[p];
                if s.request != ps.request || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {} of request {} escapes its parent",
                        s.name, s.request
                    ));
                }
                children[p].push(i);
            }
            None => roots.push(i),
        }
    }
    for kids in &children {
        for w in kids.windows(2) {
            if spans[w[1]].start_ns < spans[w[0]].end_ns {
                return Err(format!(
                    "spans {} and {} overlap",
                    spans[w[0]].name, spans[w[1]].name
                ));
            }
        }
    }
    for &r in &roots {
        let mut stack = vec![r];
        let (mut total, mut count) = (0u64, 0u64);
        while let Some(i) = stack.pop() {
            total += selfs[i];
            count += 1;
            stack.extend(&children[i]);
        }
        let root = spans[r].dur_ns();
        if total.abs_diff(root) > count * resolution_ns {
            return Err(format!(
                "request {}: self times sum to {total} ns, request span is {root} ns",
                spans[r].request
            ));
        }
    }
    Ok(roots.len())
}

/// Serialize spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_reconciles() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
        assert_eq!(reconcile(&spans, 1), Ok(1));
        let escaped = vec![span("request", None, 0, 100), span("a", Some(0), 10, 140)];
        assert!(reconcile(&escaped, 1).is_err());
        let overlap = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 50, 90),
        ];
        assert!(reconcile(&overlap, 1).is_err());
    }
}
