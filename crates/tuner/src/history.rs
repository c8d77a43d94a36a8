//! The historical dataflow list `Hd`.

use std::collections::BTreeMap;

use flowtune_common::{DataflowId, IndexId, SimDuration, SimTime};

use crate::gain::GainContribution;

/// One executed dataflow with its per-index gains.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The dataflow.
    pub dataflow: DataflowId,
    /// When it finished executing.
    pub finished_at: SimTime,
    /// `idx -> (gtd, gmd)` in quanta, for every index the dataflow uses.
    pub index_gains: BTreeMap<IndexId, (f64, f64)>,
}

/// One history entry's gains for a single index.
#[derive(Debug, Clone, Copy)]
struct IndexUse {
    finished_at: SimTime,
    gtd: f64,
    gmd: f64,
}

/// The list of historical dataflows, stored per index: each index
/// keeps the gains of the entries that used it, in finish-time order,
/// so [`History::contributions`] visits only those entries instead of
/// every dataflow in the window.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// `idx ->` its uses, sorted by finish time; equal times keep
    /// recording order.
    uses: BTreeMap<IndexId, Vec<IndexUse>>,
    /// Finish time of every recorded entry, sorted — all that
    /// [`History::len`] and [`History::prune`] need of entries that
    /// used no index.
    finish_times: Vec<SimTime>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a finished dataflow. Entries may arrive slightly out of
    /// time order (concurrently executing dataflows finish in any
    /// order); every list is kept sorted by finish time, an entry
    /// landing after those that finished at the same time.
    pub fn record(&mut self, entry: HistoryEntry) {
        let t = entry.finished_at;
        let pos = self.finish_times.partition_point(|&f| f <= t);
        self.finish_times.insert(pos, t);
        for (idx, (gtd, gmd)) in entry.index_gains {
            let uses = self.uses.entry(idx).or_default();
            let pos = uses.partition_point(|u| u.finished_at <= t);
            uses.insert(
                pos,
                IndexUse {
                    finished_at: t,
                    gtd,
                    gmd,
                },
            );
        }
    }

    /// Number of recorded dataflows.
    pub fn len(&self) -> usize {
        self.finish_times.len()
    }

    /// True when nothing has executed yet.
    pub fn is_empty(&self) -> bool {
        self.finish_times.is_empty()
    }

    /// Contributions of `idx` from dataflows inside the window
    /// `[t − W, t]` (δ of Eq. 4/5), as gain-model inputs, newest
    /// first.
    pub fn contributions(
        &self,
        idx: IndexId,
        now: SimTime,
        window: SimDuration,
        quantum: SimDuration,
    ) -> Vec<GainContribution> {
        let Some(uses) = self.uses.get(&idx) else {
            return Vec::new();
        };
        let cutoff = span_start(now, window);
        let lo = uses.partition_point(|u| u.finished_at < cutoff);
        let hi = uses.partition_point(|u| u.finished_at <= now);
        uses[lo..hi]
            .iter()
            .rev()
            .map(|u| GainContribution {
                quanta_ago: now.saturating_since(u.finished_at).quanta(quantum),
                gtd: u.gtd,
                gmd: u.gmd,
            })
            .collect()
    }

    /// Drop entries older than `t − keep` (memory bound for long runs).
    pub fn prune(&mut self, now: SimTime, keep: SimDuration) {
        let cutoff = span_start(now, keep);
        let old = self.finish_times.partition_point(|&f| f < cutoff);
        self.finish_times.drain(..old);
        self.uses.retain(|_, uses| {
            let old = uses.partition_point(|u| u.finished_at < cutoff);
            uses.drain(..old);
            !uses.is_empty()
        });
    }
}

/// Start of the span `[now − span, now]`, clamped at time zero.
fn span_start(now: SimTime, span: SimDuration) -> SimTime {
    SimTime::from_millis(now.as_millis().saturating_sub(span.as_millis()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;

    const Q: SimDuration = SimDuration::from_secs(60);

    fn entry(df: u32, finished_secs: u64, gains: &[(u32, f64, f64)]) -> HistoryEntry {
        HistoryEntry {
            dataflow: DataflowId(df),
            finished_at: SimTime::from_secs(finished_secs),
            index_gains: gains
                .iter()
                .map(|&(i, gt, gm)| (IndexId(i), (gt, gm)))
                .collect(),
        }
    }

    #[test]
    fn window_filters_old_entries() {
        let mut h = History::new();
        h.record(entry(0, 60, &[(1, 1.0, 2.0)]));
        h.record(entry(1, 300, &[(1, 3.0, 4.0)]));
        h.record(entry(2, 500, &[(2, 9.0, 9.0)]));
        // Window of 5 quanta (300 s) at t = 540 s covers [240, 540].
        let c = h.contributions(IndexId(1), SimTime::from_secs(540), Q * 5, Q);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].gtd, 3.0);
        assert!((c[0].quanta_ago.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn indexes_not_used_by_a_dataflow_contribute_nothing() {
        let mut h = History::new();
        h.record(entry(0, 60, &[(1, 1.0, 2.0)]));
        assert!(h
            .contributions(IndexId(9), SimTime::from_secs(100), Q * 10, Q)
            .is_empty());
    }

    #[test]
    fn window_larger_than_elapsed_time_covers_everything() {
        let mut h = History::new();
        h.record(entry(0, 10, &[(1, 1.0, 1.0)]));
        h.record(entry(1, 20, &[(1, 2.0, 2.0)]));
        let c = h.contributions(IndexId(1), SimTime::from_secs(30), Q * 1000, Q);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn out_of_order_recording_keeps_entries_sorted() {
        let mut h = History::new();
        h.record(entry(0, 100, &[(1, 1.0, 1.0)]));
        h.record(entry(1, 50, &[(1, 2.0, 2.0)]));
        h.record(entry(2, 75, &[(1, 3.0, 3.0)]));
        // Contributions come newest first: 100 s, 75 s, 50 s.
        let c = h.contributions(IndexId(1), SimTime::from_secs(120), Q * 10, Q);
        let gains: Vec<_> = c.iter().map(|c| c.gtd).collect();
        assert_eq!(gains, [1.0, 3.0, 2.0]);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn prune_bounds_memory() {
        let mut h = History::new();
        for i in 0..100u32 {
            h.record(entry(i, (i as u64 + 1) * 10, &[(1, 1.0, 1.0)]));
        }
        h.prune(SimTime::from_secs(1000), SimDuration::from_secs(200));
        assert!(h.len() <= 21);
        let c = h.contributions(IndexId(1), SimTime::from_secs(1000), Q * 1000, Q);
        assert_eq!(c.len(), h.len());
        assert!(c.iter().all(|c| c.quanta_ago.get() <= 200.0 / 60.0 + 1e-9));
    }

    /// The pre-index list: every entry in one finish-ordered `Vec`,
    /// every query a scan over the window.
    #[derive(Default)]
    struct NaiveHistory {
        entries: Vec<HistoryEntry>,
    }

    impl NaiveHistory {
        fn record(&mut self, entry: HistoryEntry) {
            let pos = self
                .entries
                .partition_point(|e| e.finished_at <= entry.finished_at);
            self.entries.insert(pos, entry);
        }

        fn contributions(
            &self,
            idx: IndexId,
            now: SimTime,
            window: SimDuration,
            quantum: SimDuration,
        ) -> Vec<GainContribution> {
            let cutoff = if window.as_millis() >= now.as_millis() {
                SimTime::ZERO
            } else {
                now - window
            };
            self.entries
                .iter()
                .rev()
                .take_while(|e| e.finished_at >= cutoff)
                .filter(|e| e.finished_at <= now)
                .filter_map(|e| {
                    e.index_gains.get(&idx).map(|&(gtd, gmd)| GainContribution {
                        quanta_ago: now.saturating_since(e.finished_at).quanta(quantum),
                        gtd,
                        gmd,
                    })
                })
                .collect()
        }

        fn prune(&mut self, now: SimTime, keep: SimDuration) {
            let cutoff = if keep.as_millis() >= now.as_millis() {
                SimTime::ZERO
            } else {
                now - keep
            };
            self.entries.retain(|e| e.finished_at >= cutoff);
        }
    }

    fn bits(cs: &[GainContribution]) -> Vec<(u64, u64, u64)> {
        cs.iter()
            .map(|c| {
                (
                    c.quanta_ago.get().to_bits(),
                    c.gtd.to_bits(),
                    c.gmd.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn per_index_lists_match_the_full_scan() {
        let mut rng = SimRng::seed_from_u64(0x4157_0127);
        let mut fast = History::new();
        let mut naive = NaiveHistory::default();
        let mut now_secs = 0u64;
        let mut compared = 0;
        for df in 0..2_000u32 {
            now_secs += rng.uniform_u64(0, 40);
            // Finish times arrive out of order and often tie (a coarse
            // 10 s grid, up to 3 minutes behind the clock).
            let finished = now_secs.saturating_sub(rng.uniform_u64(0, 18) * 10) / 10 * 10;
            let uses = rng.uniform_u64(0, 6);
            let gains: Vec<(u32, f64, f64)> = (0..uses)
                .map(|_| {
                    let idx = rng.uniform_u64(0, 24) as u32;
                    if rng.chance(0.2) {
                        // A failed build's negative evidence.
                        (idx, -1.5, -1.5)
                    } else {
                        (
                            idx,
                            rng.uniform_range(-1.0, 5.0),
                            rng.uniform_range(0.0, 5.0),
                        )
                    }
                })
                .collect();
            let e = entry(df, finished, &gains);
            fast.record(e.clone());
            naive.record(e);
            if rng.chance(0.3) {
                let keep = SimDuration::from_secs(rng.uniform_u64(0, 1_200));
                fast.prune(SimTime::from_secs(now_secs), keep);
                naive.prune(SimTime::from_secs(now_secs), keep);
            }
            assert_eq!(fast.len(), naive.entries.len());
            let now = SimTime::from_secs(now_secs.saturating_sub(rng.uniform_u64(0, 60)));
            let window = SimDuration::from_secs(rng.uniform_u64(0, 900));
            for idx in 0..25 {
                let want = bits(&naive.contributions(IndexId(idx), now, window, Q));
                compared += want.len();
                assert_eq!(
                    bits(&fast.contributions(IndexId(idx), now, window, Q)),
                    want,
                    "index {idx} after dataflow {df}"
                );
            }
        }
        // The loop must have compared real windows, not empty ones.
        assert!(compared > 20_000, "only {compared} contributions compared");
    }
}
