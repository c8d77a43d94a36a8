//! In-memory wall-clock spans recorded around the calls the traced
//! replay makes into each layer.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: u32,
}

/// Handle of an open span, returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be closed with Spans::exit"]
pub struct SpanId(usize);

/// A span log: spans nest as a stack, and each carries the id of the
/// round (dataflow) it belongs to.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

/// Per-name totals of a span log.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Self time (duration minus time covered by child spans), ns.
    pub self_ns: u64,
    /// Every span duration, ns, in recording order.
    pub durations_ns: Vec<u64>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tag spans opened from now on with this round id.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = end_ns;
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    fn duration(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.duration(i);
            }
        }
        (0..self.spans.len())
            .map(|i| self.duration(i) - child_ns[i])
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, self_ns) in self.self_times().into_iter().enumerate() {
            let t = out.entry(self.spans[i].name).or_default();
            t.self_ns += self_ns;
            t.durations_ns.push(self.duration(i));
        }
        out
    }

    /// Check that every span is closed and that, in each round, the
    /// self times of the round's spans add up to its root spans'
    /// durations exactly. Returns the number of rounds checked.
    pub fn reconcile(&self) -> Result<usize, String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        // Per round: (sum of root durations, sum of self times).
        let mut rounds: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (i, self_ns) in self.self_times().into_iter().enumerate() {
            let s = &self.spans[i];
            let entry = rounds.entry(s.round).or_default();
            entry.1 += self_ns;
            match s.parent {
                None => entry.0 += self.duration(i),
                Some(p) if self.spans[p].round != s.round => {
                    return Err(format!("span {} crosses rounds", s.name));
                }
                Some(_) => {}
            }
        }
        for (round, (total, selfs)) in &rounds {
            if total != selfs {
                return Err(format!(
                    "round {round}: self times sum to {selfs} ns, root spans last {total} ns"
                ));
            }
        }
        Ok(rounds.len())
    }
}
