//! Traced replay of one `QaasService::new` + `QaasService::run`.
//!
//! The replay makes the same calls into each layer, in the same order
//! and with the same `SimRng` forks, as the service does, and wraps
//! each call in a [`Spans`] span. It must end in the same simulated
//! outcome as the real run; the caller checks that. It covers the
//! configurations the benchmark's workloads use and refuses others.

use std::collections::BTreeMap;

use flowtune_cloud::{ExecutionReport, FaultPlan, IndexAvailability, Simulator};
use flowtune_common::{BuildOpId, DataflowId, IndexId, Quanta, SimDuration, SimRng, SimTime};
use flowtune_core::service::build_catalog;
use flowtune_core::{
    remnant_dag, DataflowRecord, IndexPolicy, InterleaverKind, RebuildThrottle, RunReport,
    SchedulerKind, ServiceConfig, TimelinePoint,
};
use flowtune_dataflow::{ArrivalClient, DataflowFactory, FileDatabase};
use flowtune_index::{measure_io, IndexCatalog, IndexPageStore};
use flowtune_interleave::{BuildOp, LpInterleaver, OnlineInterleaver};
use flowtune_obs::Recorder;
use flowtune_sched::{BuildRef, Schedule, SchedulerConfig, SkylineScheduler};
use flowtune_storage::{ObjectKey, PoolStats, StorageService};
use flowtune_tuner::{dataflow_index_gains, GainModel, HistoryEntry, OnlineTuner};

use crate::span::Spans;

/// What the replay saw besides the run report: figures measured at the
/// benchmark's own call boundaries.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// `LpInterleaver::interleave` calls, and those that changed the
    /// schedule's makespan or leased quanta (the paper's claim is that
    /// none do).
    pub lp_calls: u64,
    pub lp_violations: u64,
    /// Build operators offered to either interleaver, and placed.
    pub ops_offered: u64,
    pub placed: u64,
    /// Largest tuner history after a round's pruning.
    pub history_len_max: u64,
    /// Largest live page count of the index page store after a round.
    pub pages_live_max: u64,
    /// Post-commit verification verdicts, and the clean ones.
    pub verdicts: u64,
    pub clean_verdicts: u64,
    /// The index page store's buffer-pool traffic at the end.
    pub pool: PoolStats,
}

/// A finished replay.
#[derive(Debug)]
pub struct Replay {
    pub report: RunReport,
    pub stats: ReplayStats,
    /// The `flowtune_obs` recorder, when the replay ran with one
    /// installed around its rounds.
    pub recorder: Option<Recorder>,
}

/// Mutable service state, as `QaasService` holds it.
struct State {
    catalog: IndexCatalog,
    tuner: OnlineTuner,
    storage: StorageService,
    index_store: IndexPageStore,
    throttle: RebuildThrottle,
    last_settle: SimTime,
}

fn sched_config(config: &ServiceConfig) -> SchedulerConfig {
    let cloud = &config.params.cloud;
    SchedulerConfig {
        max_containers: cloud.max_containers,
        max_skyline: config.max_skyline,
        quantum: cloud.quantum,
        vm_price: cloud.vm_price_per_quantum,
        network_bandwidth: cloud.network_bandwidth,
        ..SchedulerConfig::default()
    }
}

fn fastest(schedules: Vec<Schedule>) -> Result<Schedule, String> {
    schedules
        .into_iter()
        .next()
        .ok_or_else(|| "scheduler returned no schedule".to_owned())
}

fn supported(config: &ServiceConfig) -> Result<(), String> {
    let unsupported = [
        (
            config.scheduler != SchedulerKind::Skyline,
            "a scheduler other than skyline",
        ),
        (
            config.policy == IndexPolicy::Random,
            "the random index policy",
        ),
        (config.deferred_builds, "deferred builds"),
        (config.estimation_error != (0.0, 0.0), "estimation error"),
    ];
    match unsupported.iter().find(|(on, _)| *on) {
        Some((_, what)) => Err(format!("the traced replay does not cover {what}")),
        None => Ok(()),
    }
}

/// Replay setup and run of the service for `config`, recording spans.
/// With `count` set, a `flowtune_obs` recorder is installed around the
/// rounds (not the setup) and returned.
pub fn replay(config: &ServiceConfig, spans: &mut Spans, count: bool) -> Result<Replay, String> {
    supported(config)?;
    config.faults.validate().map_err(|e| e.to_string())?;
    config.recovery.validate().map_err(|e| e.to_string())?;

    // --- QaasService::new ---
    spans.set_round(0);
    let setup = spans.enter("setup");
    let mut rng = SimRng::seed_from_u64(config.params.seed);
    let filedb = spans.time("setup.filedb", || FileDatabase::generate(&mut rng));
    let mut catalog = spans.time("setup.catalog", || build_catalog(&filedb));
    if config.calibrate_index_io {
        spans.time("setup.calibrate", || {
            catalog.calibrate_io(measure_io(5_000, 200, config.params.seed));
        });
    }
    let mut factory =
        DataflowFactory::new(filedb.clone(), config.params.ops_per_dataflow, rng.fork());
    let cloud = config.params.cloud.clone();
    let model = GainModel::new(
        config.params.tuner.clone(),
        cloud.quantum,
        cloud.vm_price_per_quantum,
        cloud.storage_price_per_mb_quantum,
    );
    let tuner = if config.adaptive_fading {
        OnlineTuner::with_adaptive_fading(model)
    } else {
        OnlineTuner::new(model)
    };
    let mut st = State {
        catalog,
        tuner,
        storage: StorageService::new(cloud.storage_price_per_mb_quantum, cloud.quantum),
        index_store: IndexPageStore::new(),
        throttle: RebuildThrottle::new(),
        last_settle: SimTime::ZERO,
    };
    spans.exit(setup);

    // --- QaasService::run ---
    if count {
        flowtune_obs::install();
    }
    let fault_plan = FaultPlan::new(config.faults.clone());
    let horizon = SimTime::ZERO + config.params.horizon();
    let mean_gap = cloud.quantum.mul_f64(config.params.poisson_lambda_quanta);
    let mut client = ArrivalClient::new(config.workload.clone(), mean_gap, rng.fork());
    let mut report = RunReport::default();
    let mut stats = ReplayStats::default();
    let lane_count = config.concurrency.max(1);
    let mut lanes = vec![SimTime::ZERO; lane_count];
    let mut lane_gains: Vec<BTreeMap<IndexId, (f64, f64)>> = vec![BTreeMap::new(); lane_count];
    let mut next_id = 0u32;

    loop {
        let (arrival, app) = client.next_arrival();
        if arrival > horizon {
            break;
        }
        let lane = (0..lanes.len())
            .min_by_key(|&l| lanes[l])
            .ok_or("no lanes")?;
        let issued = arrival.max(lanes[lane]);
        if issued >= horizon {
            break;
        }
        spans.set_round(next_id + 1);
        let round = spans.enter("core.round");
        report.dataflows_issued += 1;
        let df_seq = next_id;
        let df = spans.time("dataflow.make", || {
            factory.make(DataflowId(next_id), app, issued)
        });
        next_id += 1;

        // Tune.
        let gains = spans.time("tuner.gains", || {
            dataflow_index_gains(&df, &st.catalog, &cloud)
        });
        let used: Vec<IndexId> = df.index_uses.iter().map(|u| u.index).collect();
        spans.time("tuner.history", || st.tuner.observe_uses(&used, issued));
        let pending = match config.policy {
            IndexPolicy::Gain { delete } => {
                let mut active: Vec<&BTreeMap<_, _>> = vec![&gains];
                for (l, free) in lanes.iter().enumerate() {
                    if l != lane && *free > issued {
                        active.push(&lane_gains[l]);
                    }
                }
                let decision = spans.time("tuner.decide", || {
                    st.tuner.decide(issued, &st.catalog, &active)
                });
                if delete {
                    for idx in &decision.deletions {
                        delete_index(&mut st, spans, *idx, issued, &mut report);
                    }
                }
                pending_ops(&st, config, &decision.beneficial, issued)
            }
            _ => Vec::new(),
        };

        // Schedule + interleave.
        let schedule = match config.interleaver {
            InterleaverKind::Lp => {
                let scheduler = SkylineScheduler::new(sched_config(config));
                let mut schedule =
                    fastest(spans.time("sched.skyline", || scheduler.schedule(&df.dag)))?;
                if !pending.is_empty() {
                    let before = (schedule.makespan(), schedule.leased_quanta(cloud.quantum));
                    let placed = spans.time("interleave.lp", || {
                        LpInterleaver::new(cloud.quantum).interleave(&mut schedule, &pending)
                    });
                    let after = (schedule.makespan(), schedule.leased_quanta(cloud.quantum));
                    stats.lp_calls += 1;
                    stats.lp_violations += u64::from(before != after);
                    stats.ops_offered += pending.len() as u64;
                    stats.placed += placed.len() as u64;
                }
                schedule
            }
            InterleaverKind::Online => {
                let interleaver =
                    OnlineInterleaver::new(SkylineScheduler::new(sched_config(config)));
                let schedule = fastest(spans.time("interleave.online", || {
                    interleaver.schedule(&df.dag, &pending)
                }))?;
                stats.ops_offered += pending.len() as u64;
                stats.placed += schedule.build_assignments().count() as u64;
                schedule
            }
        };

        // Execute.
        let actual = df.dag.clone();
        let availability = availability_at(&st.catalog, issued);
        let sim = Simulator::new(cloud.clone(), &filedb);
        let no_durations = BTreeMap::new();
        let exec = {
            let mut injector = fault_plan.injector(df_seq, 0);
            spans.time("cloud.simulate", || {
                sim.execute_with_faults(
                    &actual,
                    &schedule,
                    &df.index_uses,
                    &availability,
                    &no_durations,
                    &mut injector,
                )
            })
        }
        .map_err(|e| e.to_string())?;
        absorb_fault_stats(&mut report, &exec, cloud.quantum);

        // Recover.
        let mut df_completed = exec.completed();
        let mut recovery_delay = SimDuration::ZERO;
        let mut attempt = 0u32;
        if !df_completed {
            let recover = spans.enter("core.recover");
            let mut remnant_src = actual.clone();
            let mut killed_ops = exec.killed_ops.clone();
            while !df_completed {
                if !config.recovery.policy.retries() || attempt >= config.recovery.max_retries {
                    report.dataflows_failed += 1;
                    break;
                }
                attempt += 1;
                report.retries += 1;
                let (remnant, _original) =
                    remnant_dag(&remnant_src, &killed_ops).map_err(|e| e.to_string())?;
                let scheduler = SkylineScheduler::new(sched_config(config));
                let retry_schedule =
                    fastest(spans.time("sched.skyline", || scheduler.schedule(&remnant)))?;
                let mut injector = fault_plan.injector(df_seq, attempt);
                let retry = spans
                    .time("cloud.simulate", || {
                        sim.execute_with_faults(
                            &remnant,
                            &retry_schedule,
                            &df.index_uses,
                            &availability,
                            &no_durations,
                            &mut injector,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                absorb_fault_stats(&mut report, &retry, cloud.quantum);
                report.compute_cost += retry.compute_cost;
                report.dataflow_ops += retry.dataflow_ops;
                recovery_delay += config.recovery.backoff_delay(attempt) + retry.makespan;
                df_completed = retry.completed();
                killed_ops = retry.killed_ops.clone();
                remnant_src = remnant;
            }
            spans.exit(recover);
        }
        if df_completed && attempt > 0 {
            report
                .recovery_latency_quanta
                .push(recovery_delay.quanta(cloud.quantum).get());
        }
        let total_makespan = exec.makespan + recovery_delay;
        let finish = issued + total_makespan;

        // Commit completed builds and crash debris.
        let commit = spans.enter("index.commit");
        let mut completed = exec.completed_builds.clone();
        completed.sort_by_key(|cb| cb.finished_at);
        let mut settled_to = finish.max(st.last_settle);
        let mut to_verify: Vec<BuildRef> = Vec::new();
        for cb in &completed {
            let at = (issued + (cb.finished_at - SimTime::ZERO)).max(st.last_settle);
            settled_to = settled_to.max(at);
            let part = cb.build.part as usize;
            if !st.catalog.is_partition_built(cb.build.index, part) {
                st.catalog.mark_built(cb.build.index, part, at, 0);
                let bytes = st.catalog.spec(cb.build.index).partition_bytes(part);
                spans.time("storage.bill", || {
                    st.storage.put(
                        ObjectKey::IndexPart(cb.build.index, cb.build.part),
                        bytes,
                        at.min(horizon),
                    );
                });
                if exec.torn_builds.contains(&cb.build) {
                    st.index_store
                        .write_partition_torn(cb.build.index, cb.build.part, bytes);
                } else {
                    st.index_store
                        .write_partition(cb.build.index, cb.build.part, bytes);
                }
                to_verify.push(cb.build);
            }
        }
        for crash in &exec.crashed_builds {
            let part = crash.build.part as usize;
            if !st.catalog.is_partition_built(crash.build.index, part) {
                let bytes = st.catalog.spec(crash.build.index).partition_bytes(part);
                st.index_store.write_partition_crashed(
                    crash.build.index,
                    crash.build.part,
                    bytes,
                    crash.fraction,
                );
                to_verify.push(crash.build);
            }
        }
        spans.exit(commit);

        // Failed builds: invalidate the corrupt partition.
        if !exec.failed_builds.is_empty() {
            let del = spans.enter("index.delete");
            for b in &exec.failed_builds {
                if st.catalog.unmark_built(b.index, b.part as usize) {
                    let at = settled_to.min(horizon);
                    spans.time("storage.bill", || {
                        st.storage
                            .delete(&ObjectKey::IndexPart(b.index, b.part), at)
                    });
                }
            }
            spans.exit(del);
        }

        // Post-commit verification scan.
        to_verify.sort();
        to_verify.dedup();
        let verify = spans.enter("index.verify");
        for b in &to_verify {
            let Some(verdict) = st.index_store.verify_partition(b.index, b.part) else {
                continue;
            };
            report.verify_pages_scanned += verdict.pages_scanned;
            stats.verdicts += 1;
            if verdict.is_clean() {
                stats.clean_verdicts += 1;
                if st.throttle.record_success(b.index, b.part) {
                    report.rebuilds_completed += 1;
                }
                continue;
            }
            let del = spans.enter("index.delete");
            report.bad_pages_detected += verdict.bad_pages.len() as u64;
            report.partitions_invalidated += 1;
            let part = b.part as usize;
            if st.catalog.unmark_built(b.index, part) {
                let at = settled_to.min(horizon);
                spans.time("storage.bill", || {
                    st.storage
                        .delete(&ObjectKey::IndexPart(b.index, b.part), at)
                });
                let burnt = st.catalog.spec(b.index).partition_build_time(part);
                report.wasted_compute_quanta += burnt.quanta(cloud.quantum);
                report.wasted_cost += cloud
                    .vm_price_per_quantum
                    .mul_f64(burnt.as_quanta(cloud.quantum));
            }
            st.index_store.delete_partition(b.index, b.part);
            st.throttle
                .record_failure(b.index, b.part, finish, &config.recovery);
            spans.exit(del);
        }
        spans.exit(verify);

        // History.
        let history = spans.enter("tuner.history");
        if df_completed {
            st.tuner.history.record(HistoryEntry {
                dataflow: df.id,
                finished_at: finish,
                index_gains: gains.clone(),
            });
        }
        if config.recovery.policy.penalises_gain() {
            let penalty = config.recovery.gain_penalty;
            let mut negative: BTreeMap<IndexId, (f64, f64)> = BTreeMap::new();
            for b in exec.failed_builds.iter().chain(&exec.fault_killed_builds) {
                let e = negative.entry(b.index).or_insert((0.0, 0.0));
                e.0 -= penalty;
                e.1 -= penalty;
            }
            if !negative.is_empty() {
                st.tuner.history.record(HistoryEntry {
                    dataflow: df.id,
                    finished_at: finish,
                    index_gains: negative,
                });
            }
        }
        st.tuner.history.prune(
            finish,
            cloud.quantum.mul_f64(4.0 * config.params.tuner.window_w),
        );
        spans.exit(history);

        // Metrics.
        report.compute_cost += exec.compute_cost;
        report.dataflow_ops += exec.dataflow_ops;
        report.builds_completed += exec.completed_builds.len();
        report.builds_killed += exec.killed_builds.len();
        if df_completed && finish <= horizon {
            report.dataflows_finished += 1;
            report.total_makespan_quanta += total_makespan.quanta(cloud.quantum);
        }
        st.last_settle = settled_to.min(horizon);
        spans.time("storage.bill", || st.storage.settle(st.last_settle));
        let total_reads = exec.accelerated_reads + exec.plain_reads;
        let indexed = if total_reads == 0 {
            0.0
        } else {
            exec.accelerated_reads as f64 / total_reads as f64
        };
        report.per_dataflow.push(DataflowRecord {
            app: df.app.name(),
            issued_quanta: issued.quanta(cloud.quantum),
            makespan_quanta: total_makespan.quanta(cloud.quantum),
            cost_quanta: Quanta::new(exec.leased_quanta as f64),
            indexed_fraction: indexed,
        });
        report.timeline.push(TimelinePoint {
            time_quanta: finish.quanta(cloud.quantum),
            indexes_built: st
                .catalog
                .ids()
                .filter(|i| !st.catalog.state(*i).empty())
                .count(),
            index_partitions: st
                .catalog
                .ids()
                .map(|i| st.catalog.state(i).built_count())
                .sum(),
            stored_bytes: st.catalog.total_built_bytes(),
            storage_cost: st.storage.accrued_cost(),
        });
        lanes[lane] = finish;
        lane_gains[lane] = gains;
        spans.exit(round);

        // Between rounds, outside every span.
        stats.history_len_max = stats.history_len_max.max(st.tuner.history.len() as u64);
        stats.pages_live_max = stats.pages_live_max.max(st.index_store.page_count() as u64);
    }
    st.storage.settle(horizon);
    report.index_storage_cost = st.storage.accrued_cost();
    stats.pool = st.index_store.pool_stats();
    let recorder = if count {
        flowtune_obs::uninstall()
    } else {
        None
    };
    Ok(Replay {
        report,
        stats,
        recorder,
    })
}

/// Build operators of the beneficial indexes, as the service offers
/// them to the interleaver.
fn pending_ops(
    st: &State,
    config: &ServiceConfig,
    beneficial: &[(IndexId, flowtune_tuner::IndexGains)],
    now: SimTime,
) -> Vec<BuildOp> {
    let mut ops = Vec::new();
    for (idx, g) in beneficial {
        for (part, duration, _) in st.catalog.remaining_build_ops(*idx) {
            if ops.len() >= config.max_pending_build_ops {
                return ops;
            }
            if !st.throttle.is_eligible(*idx, part as u32, now) {
                continue;
            }
            ops.push(BuildOp {
                id: BuildOpId(ops.len() as u32),
                build: BuildRef {
                    index: *idx,
                    part: part as u32,
                },
                duration,
                gain: g.g.max(1e-6),
            });
        }
    }
    ops
}

fn delete_index(
    st: &mut State,
    spans: &mut Spans,
    idx: IndexId,
    now: SimTime,
    report: &mut RunReport,
) {
    let del = spans.enter("index.delete");
    let parts = st.catalog.state(idx).parts.len();
    let freed = st.catalog.delete_index(idx);
    if freed > 0 {
        report.indexes_deleted += 1;
        for part in 0..parts {
            let at = now.max(st.last_settle);
            spans.time("storage.bill", || {
                st.storage
                    .delete(&ObjectKey::IndexPart(idx, part as u32), at)
            });
            st.index_store.delete_partition(idx, part as u32);
        }
    }
    spans.exit(del);
}

fn availability_at(catalog: &IndexCatalog, now: SimTime) -> IndexAvailability {
    let mut avail = IndexAvailability::new();
    for idx in catalog.ids() {
        let state = catalog.state(idx);
        if state.empty() {
            continue;
        }
        for (part, built) in state.parts.iter().enumerate() {
            if built.is_some_and(|b| b.built_at <= now) {
                avail.add(idx, part as u32, catalog.spec(idx).partition_bytes(part));
            }
        }
    }
    avail
}

fn absorb_fault_stats(report: &mut RunReport, exec: &ExecutionReport, quantum: SimDuration) {
    report.ops_killed_by_fault += exec.killed_ops.len();
    report.containers_revoked += exec.revoked_containers.len();
    report.storage_faults += exec.storage_faults;
    report.straggler_ops += exec.straggler_ops;
    report.builds_failed += exec.failed_builds.len();
    report.builds_killed_by_fault += exec.fault_killed_builds.len();
    report.builds_crashed += exec.crashed_builds.len();
    report.wasted_compute_quanta += exec.wasted_compute.quanta(quantum);
    if !exec.completed() {
        report.wasted_cost += exec.compute_cost;
    }
}
