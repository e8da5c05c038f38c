//! In-memory spans recorded by the traced run, around the calls into
//! each layer. Nothing is written until the run ends.

use crate::json::Json;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused it; spans of one
/// chain pass share `pass`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub pass: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder with an explicit open-span stack, so a span's parent is
/// whichever span was open when it started.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Sets the pass number stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the currently open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            pass: self.pass,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds consecutive child spans under `parent`, starting where the
    /// parent starts, from stage durations the callee measured itself
    /// (the replay engines report plan / shards / merge that way).
    pub fn synthesize(&mut self, parent: usize, stages: &[(&'static str, f64)]) {
        let mut start_ns = self.spans[parent].start_ns;
        for &(name, ms) in stages {
            let end_ns = start_ns + (ms * 1e6) as u64;
            self.spans.push(Span {
                id: self.spans.len(),
                parent: Some(parent),
                pass: self.spans[parent].pass,
                name,
                start_ns,
                end_ns,
            });
            start_ns = end_ns;
        }
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times in ms of every span called `name`, in recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .filter(|(s, _)| s.name == name)
            .map(|(_, self_ns)| self_ns as f64 / 1e6)
            .collect()
    }

    /// All spans as a JSON array of
    /// `{id, parent, pass, name, start_ns, end_ns, self_ns}`.
    pub fn to_json(&self) -> Json {
        let self_ns = self_times_ns(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, self_ns)| {
                    Json::Obj(vec![
                        ("id".into(), Json::U64(s.id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("pass".into(), Json::U64(s.pass as u64)),
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::U64(s.start_ns)),
                        ("end_ns".into(), Json::U64(s.end_ns)),
                        ("self_ns".into(), Json::U64(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once,
/// and a child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 45, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, 100, 200),
            // Overlap each other on 120..150, and the second overhangs
            // the parent's end by 50.
            span(1, Some(0), 110, 150),
            span(2, Some(0), 120, 250),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_by_open_stack_and_synthesizes_children() {
        let mut t = Tracer::new();
        t.set_pass(3);
        let chain = t.enter("chain");
        let v = t.time("leaf", || 7);
        assert_eq!(v, 7);
        let replay = t.enter("replay");
        t.exit(replay);
        t.synthesize(replay, &[("plan", 1.0), ("shards", 2.0)]);
        t.exit(chain);

        let s = &t.spans;
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(chain));
        assert_eq!(s[2].parent, Some(chain));
        assert_eq!(
            (s[3].name, s[3].parent, s[3].pass),
            ("plan", Some(replay), 3)
        );
        assert_eq!(s[3].start_ns, s[2].start_ns);
        assert_eq!(s[4].start_ns, s[3].end_ns);
        assert_eq!(s[4].duration_ns(), 2_000_000);
        assert_eq!(t.durations_ms("shards"), vec![2.0]);
        assert_eq!(t.self_ms("plan"), vec![1.0]);
        let chain_ms = t.durations_ms("chain")[0];
        let children_ms = t.durations_ms("leaf")[0] + t.durations_ms("replay")[0];
        assert!((t.self_ms("chain")[0] - (chain_ms - children_ms)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
