//! Spans around the calls into each layer, kept in memory and written
//! when the run ends. Recorded from the benchmark's side of every call;
//! nothing inside the simulator is instrumented.

use std::time::Instant;

use attila_json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at this boundary (cycles, allocations, bytes …).
    pub counts: Vec<(String, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one workload run; `run` is the identifier they
/// all share.
pub struct Tracer {
    run: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: &str) -> Tracer {
        Tracer {
            run: run.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize, counts: &[(&str, f64)]) -> &Span {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.counts = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        span
    }

    /// Runs `f` inside a span and returns its result.
    pub fn within<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = f();
        let seconds = self.end(id, &[]).duration_ns() as f64 * 1e-9;
        (out, seconds)
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("run".into(), Json::Str(self.run.clone())),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "self_ns".into(),
                        Json::Num(self_time_ns(&self.spans, s.id) as f64),
                    ),
                    (
                        "counts".into(),
                        Json::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("run".into(), Json::Str(self.run.clone())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children are clipped to the parent and overlapping children are
/// counted once.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25), // grandchild: already inside span 1
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_time_ns(&spans, 1), 30 - 10);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // overhangs the parent by 50
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::new("w");
        let root = t.begin("root");
        let inner = t.within("inner", || 5);
        let child = t.begin("child");
        t.end(child, &[("cycles", 42.0)]);
        t.end(root, &[]);
        assert_eq!(inner, 5);
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(s[2].counts, vec![("cycles".to_string(), 42.0)]);
        assert!(s[0].end_ns >= s[2].end_ns);
        let json = t.to_json().render();
        assert!(json.contains("\"run\":\"w\"") && json.contains("\"self_ns\""));
    }
}
