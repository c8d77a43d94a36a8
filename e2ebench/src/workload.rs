//! The benchmark's workloads: each turns a seed into the service
//! configurations one run measures.

use flowtune_cloud::FaultConfig;
use flowtune_core::{IndexPolicy, InterleaverKind, RecoveryConfig, RecoveryPolicyKind};
use flowtune_core::{SchedulerKind, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's default configuration: phases, gain policy with
    /// deletes, skyline + LP interleaver, no faults.
    PaperGainLp,
    /// The same arrivals with indexing off: tuner, interleaver, page
    /// store and storage bill are bypassed.
    NoIndex,
    /// Random workload under injected faults (crashes, torn writes),
    /// retry recovery, online interleaving and measured index I/O.
    FaultsOnline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGainLp,
        Workload::NoIndex,
        Workload::FaultsOnline,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGainLp => "paper-gain-lp",
            Workload::NoIndex => "no-index",
            Workload::FaultsOnline => "faults-online",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Service runs (one per sub-seed) that make up one pass over the
    /// workload's inputs. The work of a single 720-quanta run depends
    /// heavily on its seed (on `faults-online` the index pages written
    /// vary 5x), so a pass pools several runs to keep the figures of
    /// one seed close to those of the next; cheaper runs pool more.
    pub fn runs_per_pass(self) -> usize {
        match self {
            Workload::PaperGainLp => 6,
            Workload::NoIndex => 16,
            Workload::FaultsOnline => 16,
        }
    }

    /// Sub-seeds (the first ones of a pass) the traced run replays.
    pub fn traced_runs(self) -> usize {
        match self {
            Workload::PaperGainLp => 3,
            Workload::NoIndex => 16,
            Workload::FaultsOnline => 8,
        }
    }

    /// The `j`-th sub-seed of a benchmark seed. Sub-seed 0 is the seed
    /// itself, so `--seed 7` starts with the service's seed-7 run.
    pub fn sub_seed(seed: u64, j: usize) -> u64 {
        seed.wrapping_add(1000 * j as u64)
    }

    /// The service configuration for one sub-seed. The paper's Table 3
    /// horizon (720 quanta) and four concurrent lanes throughout.
    pub fn config(self, seed: u64) -> ServiceConfig {
        let mut c = ServiceConfig::default();
        c.params.total_quanta = 720;
        c.params.seed = seed;
        c.concurrency = 4;
        c.scheduler = SchedulerKind::Skyline;
        match self {
            Workload::PaperGainLp | Workload::NoIndex => {
                c.workload = WorkloadKind::paper_phases();
                c.interleaver = InterleaverKind::Lp;
                c.policy = if self == Workload::NoIndex {
                    IndexPolicy::NoIndex
                } else {
                    IndexPolicy::Gain { delete: true }
                };
            }
            Workload::FaultsOnline => {
                c.workload = WorkloadKind::Random;
                c.interleaver = InterleaverKind::Online;
                c.policy = IndexPolicy::Gain { delete: true };
                c.faults = FaultConfig {
                    rate: 0.2,
                    seed,
                    crash_build_share: 0.3,
                    torn_write_share: 0.3,
                    ..FaultConfig::default()
                };
                c.recovery = RecoveryConfig::with_policy(RecoveryPolicyKind::Retry);
                c.calibrate_index_io = true;
            }
        }
        c
    }
}
