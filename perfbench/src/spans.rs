//! Benchmark-side spans around calls into the program's public layers.
//!
//! Spans are kept in memory and rolled up by name when the run ends. A
//! span's self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    secs: f64,
}

/// An in-memory span recorder.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Rolled-up time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Spans {
    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span, and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            secs: 0.0,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        self.spans[id].secs = start.elapsed().as_secs_f64();
        self.open.pop();
        out
    }

    /// Durations of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .collect()
    }

    /// Per-name totals and self times.
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs;
            }
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let r = out.entry(s.name).or_default();
            r.count += 1;
            r.total_s += s.secs;
            r.self_s += s.secs - children;
        }
        out
    }

    /// Rolled-up time of one span name (zero when it never ran).
    pub fn get(&self, name: &str) -> Rollup {
        self.rollup().get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.time("root", |s| {
            s.time("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            s.time("child", |_| ());
        });
        let r = spans.rollup();
        let (root, child) = (r["root"], r["child"]);
        assert_eq!((root.count, child.count), (1, 2));
        assert!(child.total_s >= 0.02);
        assert!((root.self_s - (root.total_s - child.total_s)).abs() < 1e-12);
        assert_eq!(child.self_s, child.total_s);
        assert_eq!(spans.get("absent"), Rollup::default());
    }
}
