//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a simulator crate is wrapped in a
//! span named after the layer it enters (`isa.engine`, `fault.armed`,
//! ...). Spans are kept in memory and only summarised when the run
//! ends. A span's parent is the innermost span that contains it on the
//! (single) benchmark thread, and a layer's self time is its spans'
//! durations minus the parts their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer entered (`"isa.engine"`, `"bench.cell"`, ...).
    pub layer: &'static str,
    /// The cell the call belongs to, when it belongs to one.
    pub cell: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. A disabled recorder runs the wrapped calls and keeps
/// nothing, so the untraced run pays for no bookkeeping.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    done: RefCell<Vec<Span>>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            done: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&self, layer: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.done.borrow_mut().push(Span {
            layer,
            cell,
            start_ns,
            end_ns,
        });
        out
    }

    /// Completed spans, ordered by start (outer before inner on ties).
    pub fn spans(&self) -> Vec<Span> {
        let mut out = self.done.borrow().clone();
        out.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        out
    }

    /// Total duration of every span of `layer`, in seconds.
    pub fn total_s(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .done
            .borrow()
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Whether any span of `layer` was recorded.
    pub fn has(&self, layer: &str) -> bool {
        self.done.borrow().iter().any(|s| s.layer == layer)
    }
}

/// Parent of each span (index into `spans`, which must be sorted as
/// [`Spans::spans`] returns them): the innermost earlier span whose
/// interval contains it.
pub fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    let mut stack: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if spans[top].end_ns >= s.end_ns && spans[top].start_ns <= s.start_ns {
                break;
            }
            stack.pop();
        }
        out.push(stack.last().copied());
        stack.push(i);
    }
    out
}

/// Self time per layer in seconds: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let parent = parents(spans);
    let mut self_ns: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            self_ns[*p] -= i128::from(spans[i].dur_ns());
        }
    }
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            cell: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn parents_follow_containment() {
        let spans = vec![
            sp("root", 0, 100),
            sp("a", 10, 40),
            sp("b", 20, 30),
            sp("c", 50, 90),
        ];
        assert_eq!(parents(&spans), vec![None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = vec![
            sp("root", 0, 100),
            sp("a", 10, 40),
            sp("b", 20, 30),
            sp("a", 50, 90),
        ];
        let st = self_times(&spans);
        assert!((st["root"] - 30e-9).abs() < 1e-15);
        assert!((st["a"] - 60e-9).abs() < 1e-15);
        assert!((st["b"] - 10e-9).abs() < 1e-15);
        let sum: f64 = st.values().sum();
        assert!((sum - 100e-9).abs() < 1e-15);
    }
}
