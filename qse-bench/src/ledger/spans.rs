//! In-memory spans recorded by the benchmark around its calls into each
//! crate's public functions.
//!
//! A span is `{name, start_ns, end_ns, parent, run_id, rank}`; spans of
//! one traced iteration or job share a `run_id`. They stay in memory for
//! the whole traced pass and are written once, at exit. A span's self
//! time is its duration minus the part of that interval its child spans
//! cover — children on rank threads overlap each other, so cover is the
//! union of their intervals, not their sum.

use qse_util::json::{Json, ToJson};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary this span was taken at, e.g. `gate.distributed`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The traced iteration or job this span belongs to.
    pub run_id: u32,
    /// The thread rank the span was taken on; `None` on the caller.
    pub rank: Option<u32>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
            ("parent", self.parent.to_json()),
            ("run_id", self.run_id.to_json()),
            ("rank", self.rank.to_json()),
        ])
    }
}

/// An append-only span list on one thread. Rank threads record into
/// their own [`Recorder::on_rank`] and the caller [`Recorder::absorb`]s
/// them, so the hot path takes no lock.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    run_id: u32,
    rank: Option<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for the calling thread; its creation is time zero.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            run_id: 0,
            rank: None,
            spans: Vec::new(),
        }
    }

    /// An empty recorder for rank thread `rank`, on this recorder's
    /// clock and current run.
    pub fn on_rank(&self, rank: usize) -> Recorder {
        Recorder {
            epoch: self.epoch,
            run_id: self.run_id,
            rank: Some(rank as u32),
            spans: Vec::new(),
        }
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id: self.run_id,
            rank: self.rank,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as a span under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere — `seconds` from `start` —
    /// as a closed span under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        seconds: f64,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent,
            run_id: self.run_id,
            rank: self.rank,
        });
        self.spans.len() - 1
    }

    /// Moves a rank recorder's spans in: its root spans become children
    /// of `parent`, its internal parent links are re-based.
    pub fn absorb(&mut self, rank: Recorder, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(rank.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// Every span recorded so far, in opening order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of `id`'s interval that no child span covers.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut frontier = parent.start_ns;
        for (a, b) in children {
            let a = a.max(frontier);
            if b > a {
                covered += b - a;
                frontier = b;
            }
        }
        (parent.end_ns - parent.start_ns - covered) as f64 * 1e-9
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The whole trace as one JSON array.
    pub fn to_json(&self) -> Json {
        self.spans.to_json()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            run_id: 0,
            rank: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new();
        r.spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first child
            span(80, 120, Some(0)), // runs past the parent: clipped
            span(15, 20, Some(1)),  // grandchild: not the parent's concern
        ];
        // covered: [10, 60) ∪ [80, 100) = 70 ns
        assert!((r.self_seconds(0) - 30e-9).abs() < 1e-15);
        assert!((r.self_seconds(1) - 25e-9).abs() < 1e-15);
        assert!((r.self_seconds(4) - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_rebases_parents_under_the_given_span() {
        let mut main = Recorder::new();
        main.set_run(7);
        let top = main.open("universe", None);
        let mut rank = main.on_rank(1);
        let body = rank.open("rank", None);
        rank.span("gate.local", Some(body), || ());
        rank.close(body);
        main.absorb(rank, top);
        main.close(top);
        let s = main.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].name, s[1].parent, s[1].rank, s[1].run_id),
            ("rank", Some(0), Some(1), 7)
        );
        assert_eq!((s[2].name, s[2].parent), ("gate.local", Some(1)));
        assert!(s[0].end_ns >= s[2].end_ns);
    }
}
