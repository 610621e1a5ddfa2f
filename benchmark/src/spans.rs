//! The benchmark's own spans: recorded from outside, around the calls
//! into each crate, kept in memory and written out once at exit.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Workload the span belongs to (all spans of one workload share it).
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder: `enter` pushes onto a stack so the enclosing open span
/// becomes the parent; `exit` closes the innermost open span.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        self.enter(name);
        let out = f(self);
        let secs = self.exit();
        (out, secs)
    }

    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("workload", Json::Str(s.workload.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".to_string(),
            workload: "w".to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(100, 200, None),
            span(120, 160, Some(0)),
            span(150, 180, Some(0)), // overlaps the first child by 10
            span(190, 250, Some(0)), // hangs over the parent's end
            span(0, 50, Some(0)),    // wholly outside: covers nothing
        ];
        // Covered: [120,180) + [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut spans = Spans::new("w");
        spans.enter("outer");
        spans.time("inner", |s| s.time("leaf", |_| ()));
        spans.exit();
        let parents: Vec<Option<usize>> = spans.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert!(spans.spans[0].end_ns >= spans.spans[2].end_ns);
        assert!(spans.open.is_empty());
    }
}
