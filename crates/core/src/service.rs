//! The QaaS service loop.
//!
//! Dataflows are issued sequentially (the user "observes the results of
//! a single dataflow before submitting the next one", §3); each issue
//! triggers one round of Algorithm 1, run as named stages over a
//! per-round context: issue → tune → plan (schedule + interleave) →
//! execute (+ recover) → commit → verify → history → metrics → deferred
//! flush.
//!
//! "Partition p of index i is built" lives in three stores: the index
//! catalog, the storage bill and the page images. Only two methods write
//! it: every commit goes through `commit_partition` and every
//! invalidation (failed build, defective image, tuner deletion) through
//! `invalidate_partition`. Crash debris, an image of an unbuilt
//! partition, is the one other page write.

use std::collections::{BTreeMap, BTreeSet};

use flowtune_cloud::{
    perturb_dag, ExecutionReport, FaultConfig, FaultPlan, IndexAvailability, Simulator,
};
use flowtune_common::{
    BuildOpId, DataflowId, ExperimentParams, IndexId, Quanta, Result, SimDuration, SimRng, SimTime,
};
use flowtune_dataflow::{
    filedb::ROW_BYTES, App, ArrivalClient, Dag, Dataflow, DataflowFactory, FileDatabase,
    WorkloadKind,
};
use flowtune_index::{
    measure_io, IndexCatalog, IndexCostModel, IndexKind, IndexPageStore, IndexSpec,
};
use flowtune_interleave::{BuildOp, DeferredBuildQueue, LpInterleaver, OnlineInterleaver};
use flowtune_sched::{
    BuildRef, OnlineLoadBalanceScheduler, Schedule, SchedulerConfig, SkylineScheduler,
};
use flowtune_storage::{ObjectKey, StorageService};
use flowtune_tuner::{dataflow_index_gains, GainModel, HistoryEntry, OnlineTuner};

use crate::policy::{IndexPolicy, InterleaverKind, SchedulerKind};
use crate::recovery::{remnant_dag, RebuildThrottle, RecoveryConfig};
use crate::report::{RunReport, TimelinePoint};

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Experiment parameters (Table 3).
    pub params: ExperimentParams,
    /// Index-management policy.
    pub policy: IndexPolicy,
    /// Dataflow scheduler.
    pub scheduler: SchedulerKind,
    /// Interleaving algorithm.
    pub interleaver: InterleaverKind,
    /// Workload mix.
    pub workload: WorkloadKind,
    /// Skyline width during planning (smaller = faster planning; the
    /// service picks the fastest schedule anyway).
    pub max_skyline: usize,
    /// Cap on build operators offered to the interleaver per round.
    pub max_pending_build_ops: usize,
    /// Runtime / data-size estimation error injected at execution
    /// (fractions; (0, 0) = exact estimates).
    pub estimation_error: (f64, f64),
    /// Concurrently executing dataflows. The provider pool (100
    /// containers) holds several ~25-container schedules at once, so the
    /// service drains its queue in parallel lanes.
    pub concurrency: usize,
    /// Learn a fading controller `D` per index from observed reuse
    /// intervals instead of the global `TunerConfig::fading_d` (the
    /// paper's §7 future work).
    pub adaptive_fading: bool,
    /// Defer build operators that fit no idle slot and run them in paid
    /// batches once their accumulated gain covers the dedicated lease
    /// (the paper's §7 "delayed building" future work).
    pub deferred_builds: bool,
    /// Calibrate the index cost models against *measured* page I/O of
    /// a real paged B+Tree build/probe run instead of the analytic
    /// write-size estimate (see `flowtune_index::measured`).
    pub calibrate_index_io: bool,
    /// Fault model injected at execution (rate 0 = the fault-free
    /// simulator, byte-identical to a run without the layer).
    pub faults: FaultConfig,
    /// What the service does with dataflows whose operators were
    /// killed.
    pub recovery: RecoveryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            params: ExperimentParams::default(),
            policy: IndexPolicy::Gain { delete: true },
            scheduler: SchedulerKind::Skyline,
            interleaver: InterleaverKind::Lp,
            workload: WorkloadKind::Random,
            max_skyline: 8,
            max_pending_build_ops: 192,
            estimation_error: (0.0, 0.0),
            concurrency: 4,
            adaptive_fading: false,
            deferred_builds: false,
            calibrate_index_io: false,
            faults: FaultConfig::default(),
            recovery: RecoveryConfig::default(),
        }
    }
}

/// The Query-as-a-Service platform.
#[derive(Debug)]
pub struct QaasService {
    config: ServiceConfig,
    filedb: FileDatabase,
    factory: DataflowFactory,
    catalog: IndexCatalog,
    tuner: OnlineTuner,
    storage: StorageService,
    rng: SimRng,
    last_settle: SimTime,
    deferred: DeferredBuildQueue,
    /// Paged on-"disk" images of committed index partitions — the
    /// thing torn writes and build crashes physically corrupt and the
    /// post-commit verification scan reads back.
    index_store: IndexPageStore,
    /// Backoff gate for partitions the verification scan invalidated.
    throttle: RebuildThrottle,
    /// The report of the run in progress.
    report: RunReport,
}

impl QaasService {
    /// Build the service: generate the file database, register every
    /// potential index, initialise the tuner and the storage meter.
    pub fn new(config: ServiceConfig) -> Self {
        let mut rng = SimRng::seed_from_u64(config.params.seed);
        let filedb = FileDatabase::generate(&mut rng);
        let mut catalog = build_catalog(&filedb);
        if config.calibrate_index_io {
            // One real paged-tree build/probe run; the observed page
            // traffic replaces the analytic write-size estimate in
            // every registered cost model.
            catalog.calibrate_io(measure_io(5_000, 200, config.params.seed));
        }
        let factory =
            DataflowFactory::new(filedb.clone(), config.params.ops_per_dataflow, rng.fork());
        let cloud = &config.params.cloud;
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
        let storage = StorageService::new(cloud.storage_price_per_mb_quantum, cloud.quantum);
        let deferred = DeferredBuildQueue::new(cloud.quantum, cloud.vm_price_per_quantum);
        QaasService {
            config,
            filedb,
            factory,
            catalog,
            tuner,
            storage,
            rng,
            last_settle: SimTime::ZERO,
            deferred,
            index_store: IndexPageStore::new(),
            throttle: RebuildThrottle::new(),
            report: RunReport::default(),
        }
    }

    /// The file database the service operates on.
    pub fn filedb(&self) -> &FileDatabase {
        &self.filedb
    }

    /// The current index catalog.
    pub fn catalog(&self) -> &IndexCatalog {
        &self.catalog
    }

    /// Run the service until the horizon (Table 3: 720 quanta).
    ///
    /// Errors when the fault/recovery configuration is invalid or a
    /// planned schedule turns out inconsistent — both non-recoverable
    /// configuration/logic faults, as opposed to the *injected* cloud
    /// faults, which are handled by the recovery policy.
    pub fn run(&mut self) -> Result<RunReport> {
        self.config.faults.validate()?;
        self.config.recovery.validate()?;
        let faults = FaultPlan::new(self.config.faults.clone());
        let horizon = self.horizon();
        let params = &self.config.params;
        let mean_gap = params.cloud.quantum.mul_f64(params.poisson_lambda_quanta);
        let mut client =
            ArrivalClient::new(self.config.workload.clone(), mean_gap, self.rng.fork());
        self.report = RunReport::default();
        // Each lane is one concurrently executing dataflow; a new
        // dataflow starts on the earliest-free lane (the first one on a
        // tie). `gains` holds the gains of the dataflow running on each
        // lane (Eq. 4's "currently running" δT = 0 contributions).
        let mut lanes = vec![SimTime::ZERO; self.config.concurrency.max(1)];
        let mut gains = vec![Gains::new(); lanes.len()];
        for seq in 0u32.. {
            let (arrival, app) = client.next_arrival();
            let lane = (0..lanes.len()).min_by_key(|&l| lanes[l]).unwrap_or(0);
            let issued = arrival.max(lanes[lane]);
            if arrival > horizon || issued >= horizon {
                break;
            }
            let mut round = self.issue(seq, app, issued, lane);
            let pending = self.tune(&mut round, &lanes, &gains);
            let schedule = self.plan_round(&round, &pending);
            self.execute(&mut round, &schedule, &faults)?;
            self.commit(&mut round);
            self.verify(&mut round);
            self.record_history(&round);
            self.record_metrics(&round);
            self.flush_deferred(issued);
            lanes[lane] = round.finish;
            gains[lane] = round.gains;
        }
        self.storage.settle(horizon);
        self.report.index_storage_cost = self.storage.accrued_cost();
        Ok(std::mem::take(&mut self.report))
    }

    /// End of the simulated horizon.
    fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.config.params.horizon()
    }

    /// Issue: generate dataflow `seq`; the round records at `issued`.
    fn issue(&mut self, seq: u32, app: App, issued: SimTime, lane: usize) -> Round {
        self.report.dataflows_issued += 1;
        let df = self.factory.make(DataflowId(seq), app, issued);
        flowtune_obs::set_now(issued);
        flowtune_obs::obs_event!(
            "service.issue",
            dataflow = seq,
            app = df.app.name(),
            lane = lane,
            ops = df.dag.len(),
        );
        flowtune_obs::count("service.dataflows_issued", 1);
        Round {
            issued,
            lane,
            df,
            gains: Gains::new(),
            exec: ExecutionReport::default(),
            completed: false,
            finish: issued,
            settled_to: issued,
            to_verify: Vec::new(),
        }
    }

    /// Tune (Alg. 1 lines 2-9, 13-19): gains, the tuner's decision and
    /// deletions, and the build ops offered to the interleaver.
    fn tune(&mut self, round: &mut Round, lanes: &[SimTime], gains: &[Gains]) -> Vec<BuildOp> {
        let now = round.issued;
        round.gains = dataflow_index_gains(&round.df, &self.catalog, &self.config.params.cloud);
        let used: Vec<IndexId> = round.df.index_uses.iter().map(|u| u.index).collect();
        self.tuner.observe_uses(&used, now);
        let cap = self.config.max_pending_build_ops;
        match self.config.policy {
            IndexPolicy::NoIndex => Vec::new(),
            IndexPolicy::Random => {
                // A few random potential indexes, uninformative gains.
                let n = self.catalog.len() as u64;
                let rng = &mut self.rng;
                let picks = (0..3).map(|_| (IndexId(rng.uniform_u64(0, n) as u32), 1.0));
                offer_builds(&self.catalog, &self.throttle, cap, now, picks)
            }
            IndexPolicy::Gain { delete } => {
                // The queued dataflow plus every dataflow still running
                // on another lane contribute at δT = 0.
                let mut active = vec![&round.gains];
                for (l, free) in lanes.iter().enumerate() {
                    if l != round.lane && *free > now {
                        active.push(&gains[l]);
                    }
                }
                let decision = self.tuner.decide(now, &self.catalog, &active);
                if delete {
                    for idx in &decision.deletions {
                        self.delete_index(*idx, now);
                    }
                }
                let picks = decision.beneficial.iter().map(|(i, g)| (*i, g.g.max(1e-6)));
                offer_builds(&self.catalog, &self.throttle, cap, now, picks)
            }
        }
    }

    /// Plan (Alg. 1 lines 10-11): schedule and interleave. With deferred
    /// builds on, offered builds that found no idle slot queue for a
    /// paid batch, and placed ones leave the queue.
    fn plan_round(&mut self, round: &Round, pending: &[BuildOp]) -> Schedule {
        let schedule = self.plan(&round.df, pending);
        flowtune_obs::obs_event!(
            "service.plan",
            dataflow = round.df.id.0,
            builds_offered = pending.len(),
            builds_placed = schedule.build_assignments().count(),
            planned_makespan_ms = schedule.makespan().as_millis(),
        );
        if self.config.deferred_builds {
            let placed: BTreeSet<BuildRef> = schedule
                .build_assignments()
                .filter_map(|a| a.build)
                .collect();
            let unplaced = pending.iter().filter(|b| !placed.contains(&b.build));
            self.deferred.defer(unplaced.copied());
            for b in &placed {
                self.deferred.remove(b);
            }
        }
        schedule
    }

    /// Execute on the simulated cloud, then recover: re-schedule killed
    /// operators onto fresh containers with capped exponential backoff
    /// (sim time) until the dataflow completes or the policy gives up.
    fn execute(&mut self, round: &mut Round, plan: &Schedule, faults: &FaultPlan) -> Result<()> {
        let (time_err, data_err) = self.config.estimation_error;
        let actual = if time_err > 0.0 || data_err > 0.0 {
            perturb_dag(&round.df.dag, time_err, data_err, &mut self.rng)
        } else {
            round.df.dag.clone()
        };
        // Causality: only index partitions built before this dataflow
        // was issued are visible to it (lanes execute logically in
        // parallel but are processed in issue order).
        let availability = self.availability_at(round.issued);
        let quantum = self.config.params.cloud.quantum;
        let sim = Simulator::new(self.config.params.cloud.clone(), &self.filedb);
        // No build-duration overrides: builds run as planned.
        let (seq, uses, as_planned) = (round.df.id.0, &round.df.index_uses, BTreeMap::new());
        // One execution attempt, folded into the report.
        let attempt_on = |dag: &Dag, sched: &Schedule, n: u32, report: &mut RunReport| {
            let mut injector = faults.injector(seq, n);
            sim.execute_with_faults(dag, sched, uses, &availability, &as_planned, &mut injector)
                .inspect(|exec| absorb_attempt(report, exec, quantum))
        };

        // Retries re-schedule the killed remnant onto fresh containers,
        // with no builds interleaved: recovery capacity is not donated
        // to the tuner.
        let rescheduler = SkylineScheduler::new(self.sched_config());
        let exec = attempt_on(&actual, plan, 0, &mut self.report)?;
        let (report, recovery) = (&mut self.report, &self.config.recovery);
        let mut completed = exec.completed();
        let mut recovery_delay = SimDuration::ZERO;
        let mut attempt = 0u32;
        let mut remnant_src = actual;
        let mut killed_ops = exec.killed_ops.clone();
        while !completed {
            if !recovery.policy.retries() || attempt >= recovery.max_retries {
                report.dataflows_failed += 1;
                break;
            }
            attempt += 1;
            report.retries += 1;
            let (remnant, _original) = remnant_dag(&remnant_src, &killed_ops)?;
            let replan = rescheduler.schedule(&remnant).remove(0);
            let retry = attempt_on(&remnant, &replan, attempt, report)?;
            recovery_delay += recovery.backoff_delay(attempt) + retry.makespan;
            completed = retry.completed();
            killed_ops = retry.killed_ops;
            remnant_src = remnant;
        }
        if completed && attempt > 0 {
            let latency = recovery_delay.quanta(quantum).get();
            report.recovery_latency_quanta.push(latency);
        }
        round.finish = round.issued + exec.makespan + recovery_delay;
        flowtune_obs::set_now(round.finish);
        flowtune_obs::obs_event!(
            "service.complete",
            dataflow = seq,
            completed = completed,
            makespan_ms = exec.makespan.as_millis(),
            recovery_delay_ms = recovery_delay.as_millis(),
            attempts = attempt,
        );
        if completed {
            flowtune_obs::count("service.dataflows_completed", 1);
        }
        flowtune_obs::count("service.recovery_attempts", attempt as u64);
        round.completed = completed;
        round.exec = exec;
        Ok(())
    }

    /// Commit completed builds in finish order, write crash debris, and
    /// invalidate failed builds. Killed builds stay pending.
    fn commit(&mut self, round: &mut Round) {
        // Builds may finish in the tail idle slot after the last
        // dataflow operator, i.e. later than `finish`. Lanes finish out
        // of order; storage is settled monotonically.
        round.settled_to = round.finish.max(self.last_settle);
        round.exec.completed_builds.sort_by_key(|cb| cb.finished_at);
        for cb in &round.exec.completed_builds {
            let at = (round.issued + (cb.finished_at - SimTime::ZERO)).max(self.last_settle);
            round.settled_to = round.settled_to.max(at);
            let torn = round.exec.torn_builds.contains(&cb.build);
            if self.commit_partition(cb.build, at, torn) {
                round.to_verify.push(cb.build);
            }
        }
        // A crashed build flushed only a prefix of its page image: the
        // debris occupies the page store until the verify scan clears it.
        for crash in &round.exec.crashed_builds {
            let (b, part) = (crash.build, crash.build.part as usize);
            if !self.catalog.is_partition_built(b.index, part) {
                let bytes = self.catalog.spec(b.index).partition_bytes(part);
                self.index_store
                    .write_partition_crashed(b.index, b.part, bytes, crash.fraction);
                round.to_verify.push(b);
            }
        }
        // `settled_to`, not `finish`: a tail-slot commit may already have
        // settled storage past the dataflow's finish, and settlement must
        // move forward.
        let at = round.settled_to.min(self.horizon());
        for b in &round.exec.failed_builds {
            self.invalidate_partition(*b, at);
        }
    }

    /// Verify: read every page image touched this round back from the
    /// *persistent* store (buffered frames are not trusted) and check
    /// checksum + epoch. Defective partitions are invalidated in the
    /// round they committed, before any later dataflow's availability
    /// snapshot — a failing page is never probed.
    fn verify(&mut self, round: &mut Round) {
        let cloud = &self.config.params.cloud;
        let (quantum, vm_price) = (cloud.quantum, cloud.vm_price_per_quantum);
        let at = round.settled_to.min(self.horizon());
        round.to_verify.sort();
        round.to_verify.dedup();
        for &b in &round.to_verify {
            let Some(verdict) = self.index_store.verify_partition(b.index, b.part) else {
                continue;
            };
            let report = &mut self.report;
            report.verify_pages_scanned += verdict.pages_scanned;
            flowtune_obs::count("storage.verify_pages", verdict.pages_scanned);
            if verdict.is_clean() {
                if self.throttle.record_success(b.index, b.part) {
                    report.rebuilds_completed += 1;
                    // flowtune-allow(obs-discipline): only fires after an injected corruption; the smoke run is fault-free
                    flowtune_obs::count("service.rebuilds_completed", 1);
                }
                continue;
            }
            report.bad_pages_detected += verdict.bad_pages.len() as u64;
            report.partitions_invalidated += 1;
            flowtune_obs::obs_event!(
                "service.partition_invalidated",
                index = b.index.0,
                part = b.part,
                bad_pages = verdict.bad_pages.len(),
                pages_scanned = verdict.pages_scanned,
            );
            // flowtune-allow(obs-discipline): only fires after an injected corruption; the smoke run is fault-free
            flowtune_obs::count("service.partitions_invalidated", 1);
            if self.invalidate_partition(b, at) {
                // The build ran to commit and its output is discarded:
                // its whole build time is compute wasted.
                let spec = self.catalog.spec(b.index);
                let burnt = spec.partition_build_time(b.part as usize);
                self.report.wasted_compute_quanta += burnt.quanta(quantum);
                self.report.wasted_cost += vm_price.mul_f64(burnt.as_quanta(quantum));
            }
            self.throttle
                .record_failure(b.index, b.part, round.finish, &self.config.recovery);
        }
    }

    /// History (Hd): a completed dataflow's gains and, under the gain
    /// penalty, *negative* evidence for builds the cloud destroyed or
    /// corrupted, so the same index is not immediately re-attempted.
    fn record_history(&mut self, round: &Round) {
        let (history, exec) = (&mut self.tuner.history, &round.exec);
        let entry = |index_gains| HistoryEntry {
            dataflow: round.df.id,
            finished_at: round.finish,
            index_gains,
        };
        if round.completed {
            history.record(entry(round.gains.clone()));
        }
        let recovery = &self.config.recovery;
        if recovery.policy.penalises_gain() {
            let mut negative = Gains::new();
            for b in exec.failed_builds.iter().chain(&exec.fault_killed_builds) {
                let e = negative.entry(b.index).or_insert((0.0, 0.0));
                e.0 -= recovery.gain_penalty;
                e.1 -= recovery.gain_penalty;
            }
            if !negative.is_empty() {
                history.record(entry(negative));
            }
        }
        let params = &self.config.params;
        let window = params.cloud.quantum.mul_f64(4.0 * params.tuner.window_w);
        history.prune(round.finish, window);
    }

    /// Metrics: fold the round into the report, settle storage, and
    /// record the dataflow and a timeline point.
    fn record_metrics(&mut self, round: &Round) {
        let (quantum, horizon) = (self.config.params.cloud.quantum, self.horizon());
        let (exec, report) = (&round.exec, &mut self.report);
        let makespan = (round.finish - round.issued).quanta(quantum);
        report.builds_completed += exec.completed_builds.len();
        report.builds_killed += exec.killed_builds.len();
        if round.completed && round.finish <= horizon {
            report.dataflows_finished += 1;
            report.total_makespan_quanta += makespan;
        }
        self.last_settle = round.settled_to.min(horizon);
        self.storage.settle(self.last_settle);
        let total_reads = exec.accelerated_reads + exec.plain_reads;
        let indexed = if total_reads == 0 {
            0.0
        } else {
            exec.accelerated_reads as f64 / total_reads as f64
        };
        flowtune_obs::observe("service.makespan_quanta", makespan.get());
        flowtune_obs::observe("service.indexed_fraction", indexed);
        // flowtune-allow(cast-discipline): leased-quanta counts stay far below 2^53, exact in f64
        let cost_quanta = Quanta::new(exec.leased_quanta as f64);
        flowtune_obs::observe("service.cost_quanta", cost_quanta.get());
        report.per_dataflow.push(crate::report::DataflowRecord {
            app: round.df.app.name(),
            issued_quanta: round.issued.quanta(quantum),
            makespan_quanta: makespan,
            cost_quanta,
            indexed_fraction: indexed,
        });
        let catalog = &self.catalog;
        report.timeline.push(TimelinePoint {
            time_quanta: round.finish.quanta(quantum),
            indexes_built: catalog.ids().filter(|i| !catalog.state(*i).empty()).count(),
            index_partitions: catalog.ids().map(|i| catalog.state(i).built_count()).sum(),
            stored_bytes: catalog.total_built_bytes(),
            storage_cost: self.storage.accrued_cost(),
        });
    }

    /// Deferred flush: every batch whose accumulated gain now covers its
    /// dedicated paid lease runs back to back from `issued`, outside the
    /// fault layer, so its images land clean.
    fn flush_deferred(&mut self, issued: SimTime) {
        if !self.config.deferred_builds {
            return;
        }
        let horizon = self.horizon();
        while let Some(batch) = self.deferred.try_flush() {
            let mut at = issued;
            for op in &batch.ops {
                at += op.duration;
                let commit = at.max(self.last_settle).min(horizon);
                if self.commit_partition(op.build, commit, false) {
                    self.last_settle = commit;
                }
            }
            self.report.compute_cost += batch.cost;
            self.report.builds_completed += batch.ops.len();
        }
    }

    /// The one commit path: partition `b` becomes built at `at` in all
    /// three stores — the catalog, the storage bill (from `at`, clamped
    /// to the horizon) and the page image, whose last page is torn when
    /// `torn`. Returns false, touching nothing, when it already was.
    fn commit_partition(&mut self, b: BuildRef, at: SimTime, torn: bool) -> bool {
        let part = b.part as usize;
        if self.catalog.is_partition_built(b.index, part) {
            return false;
        }
        self.catalog.mark_built(b.index, part, at, 0);
        let bytes = self.catalog.spec(b.index).partition_bytes(part);
        flowtune_obs::obs_event!(
            "service.index_commit",
            index = b.index.0,
            part = b.part,
            at_ms = at.as_millis(),
            bytes = bytes,
        );
        flowtune_obs::count("service.index_commits", 1);
        let key = ObjectKey::IndexPart(b.index, b.part);
        self.storage.put(key, bytes, at.min(self.horizon()));
        // The partition materially lands as a run of checksummed pages;
        // a torn final write persists the defect the verify scan finds.
        if torn {
            self.index_store
                .write_partition_torn(b.index, b.part, bytes);
        } else {
            self.index_store.write_partition(b.index, b.part, bytes);
        }
        true
    }

    /// The one invalidate path: partition `b` stops being built in all
    /// three stores. The storage delete (billed up to `at`) is gated on
    /// the catalog entry, so a double invalidation is idempotent; the
    /// page image, clean or debris, is dropped either way. Returns
    /// whether the partition was built.
    fn invalidate_partition(&mut self, b: BuildRef, at: SimTime) -> bool {
        let built = self.catalog.unmark_built(b.index, b.part as usize);
        if built {
            self.storage
                .delete(&ObjectKey::IndexPart(b.index, b.part), at);
        }
        self.index_store.delete_partition(b.index, b.part);
        built
    }

    /// The configuration of every skyline scheduler the service runs.
    fn sched_config(&self) -> SchedulerConfig {
        let cloud = &self.config.params.cloud;
        SchedulerConfig {
            max_containers: cloud.max_containers,
            max_skyline: self.config.max_skyline,
            quantum: cloud.quantum,
            vm_price: cloud.vm_price_per_quantum,
            network_bandwidth: cloud.network_bandwidth,
            ..SchedulerConfig::default()
        }
    }

    /// Plan one dataflow: schedule, pick the fastest, interleave.
    fn plan(&self, df: &Dataflow, pending: &[BuildOp]) -> Schedule {
        let cloud = &self.config.params.cloud;
        let interleave = |mut schedule: Schedule| {
            if !pending.is_empty() {
                LpInterleaver::new(cloud.quantum).interleave(&mut schedule, pending);
            }
            schedule
        };
        let skyline = || SkylineScheduler::new(self.sched_config());
        match (self.config.scheduler, self.config.interleaver) {
            (SchedulerKind::OnlineLoadBalance, _) => interleave(
                OnlineLoadBalanceScheduler::new(cloud.max_containers, cloud.network_bandwidth)
                    .schedule(&df.dag),
            ),
            // The service executes the fastest schedule (§5.2).
            (SchedulerKind::Skyline, InterleaverKind::Lp) => {
                interleave(skyline().schedule(&df.dag).remove(0))
            }
            (SchedulerKind::Skyline, InterleaverKind::Online) => OnlineInterleaver::new(skyline())
                .schedule(&df.dag, pending)
                .remove(0),
        }
    }

    /// Drop every built partition of `idx` (a tuner deletion).
    fn delete_index(&mut self, idx: IndexId, now: SimTime) {
        let freed = self.catalog.built_bytes(idx);
        if freed == 0 {
            return;
        }
        self.report.indexes_deleted += 1;
        flowtune_obs::obs_event!(
            "service.index_drop",
            index = idx.0,
            freed_bytes = freed,
            at_ms = now.as_millis(),
        );
        // flowtune-allow(obs-discipline): drops need a long horizon with phase shifts; the smoke run never drops
        flowtune_obs::count("service.index_drops", 1);
        // Never bill backwards: a build committed in the previous
        // dataflow's tail slot may have settled past `now`.
        let at = now.max(self.last_settle);
        for part in 0..self.catalog.state(idx).parts.len() as u32 {
            self.invalidate_partition(BuildRef { index: idx, part }, at);
        }
    }

    fn availability_at(&self, now: SimTime) -> IndexAvailability {
        let mut avail = IndexAvailability::new();
        for idx in self.catalog.ids() {
            for (part, built) in self.catalog.state(idx).parts.iter().enumerate() {
                if built.is_some_and(|b| b.built_at <= now) {
                    let bytes = self.catalog.spec(idx).partition_bytes(part);
                    avail.add(idx, part as u32, bytes);
                }
            }
        }
        avail
    }
}

/// Per-index `(time, money)` gains of one dataflow (Eq. 4).
type Gains = BTreeMap<IndexId, (f64, f64)>;

/// One round of Algorithm 1: what its stages hand on to one another.
#[derive(Debug)]
struct Round {
    issued: SimTime,
    lane: usize,
    df: Dataflow,
    gains: Gains,
    /// The first execution attempt, the only one that runs builds.
    exec: ExecutionReport,
    /// Completed, possibly after retries.
    completed: bool,
    /// Issue time plus execution and recovery time.
    finish: SimTime,
    /// How far this round's commits settle the storage bill.
    settled_to: SimTime,
    /// Page images touched this round, for the verify scan.
    to_verify: Vec<BuildRef>,
}

/// The build ops of `candidates` — `(index, gain)` in offer order — for
/// the interleaver: every unbuilt partition not sitting out a rebuild
/// backoff, at most `cap` in all. Candidates are pulled lazily, so none
/// is drawn once the cap is hit.
fn offer_builds(
    catalog: &IndexCatalog,
    throttle: &RebuildThrottle,
    cap: usize,
    now: SimTime,
    candidates: impl IntoIterator<Item = (IndexId, f64)>,
) -> Vec<BuildOp> {
    let mut ops = Vec::new();
    for (index, gain) in candidates {
        for (part, duration, _) in catalog.remaining_build_ops(index) {
            if ops.len() >= cap {
                return ops;
            }
            let part = part as u32;
            if throttle.is_eligible(index, part, now) {
                ops.push(BuildOp {
                    id: BuildOpId(ops.len() as u32),
                    build: BuildRef { index, part },
                    duration,
                    gain,
                });
            }
        }
    }
    ops
}

/// Fold one execution attempt into the run report: its cost and
/// operators, and its fault counters (all zero on a fault-free
/// execution, so rate-0 runs are unaffected).
fn absorb_attempt(report: &mut RunReport, exec: &ExecutionReport, quantum: SimDuration) {
    report.compute_cost += exec.compute_cost;
    report.dataflow_ops += exec.dataflow_ops;
    report.ops_killed_by_fault += exec.killed_ops.len();
    report.containers_revoked += exec.revoked_containers.len();
    report.storage_faults += exec.storage_faults;
    report.straggler_ops += exec.straggler_ops;
    report.builds_failed += exec.failed_builds.len();
    report.builds_killed_by_fault += exec.fault_killed_builds.len();
    report.builds_crashed += exec.crashed_builds.len();
    report.wasted_compute_quanta += exec.wasted_compute.quanta(quantum);
    if !exec.completed() {
        // Every quantum leased by an attempt that did not complete is
        // money spent on discarded work.
        report.wasted_cost += exec.compute_cost;
    }
}

/// Register every potential index of the file database, preserving ids.
pub fn build_catalog(filedb: &FileDatabase) -> IndexCatalog {
    let mut catalog = IndexCatalog::new();
    for pi in filedb.potential_indexes() {
        let rows: Vec<u64> = filedb
            .file(pi.file)
            .partitions
            .iter()
            .map(|p| p.rows)
            .collect();
        let id = catalog.add(IndexSpec::single_column(
            pi.id,
            pi.file,
            pi.column,
            IndexKind::BTree,
            IndexCostModel::new(pi.rec_bytes(), ROW_BYTES),
            rows,
        ));
        assert_eq!(id, pi.id, "catalog ids must match file-database ids");
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config(policy: IndexPolicy) -> ServiceConfig {
        let mut c = ServiceConfig::default();
        c.params.total_quanta = 40;
        c.params.seed = 7;
        c.policy = policy;
        c.max_skyline = 4;
        c
    }

    #[test]
    fn no_index_policy_builds_nothing() {
        let mut svc = QaasService::new(short_config(IndexPolicy::NoIndex));
        let r = svc.run().expect("service run failed");
        assert!(r.dataflows_finished > 0);
        assert_eq!(r.builds_completed, 0);
        assert_eq!(r.builds_killed, 0);
        assert_eq!(r.index_storage_cost, flowtune_common::Money::ZERO);
    }

    #[test]
    fn gain_policy_builds_indexes_and_accrues_storage() {
        let mut svc = QaasService::new(short_config(IndexPolicy::Gain { delete: true }));
        let r = svc.run().expect("service run failed");
        assert!(r.dataflows_finished > 0);
        assert!(r.builds_completed > 0, "gain policy never built an index");
        assert!(r.index_storage_cost > flowtune_common::Money::ZERO);
        assert!(!r.timeline.is_empty());
        let built_at_end = r.timeline.last().unwrap().indexes_built;
        assert!(built_at_end > 0);
    }

    #[test]
    fn indexes_reduce_execution_time_versus_no_index() {
        let mut no_index = QaasService::new(short_config(IndexPolicy::NoIndex));
        let base = no_index.run().expect("service run failed");
        let mut gain = QaasService::new(short_config(IndexPolicy::Gain { delete: true }));
        let tuned = gain.run().expect("service run failed");
        // Same seed, same workload: the tuned service must finish at
        // least as many dataflows.
        assert!(
            tuned.dataflows_finished >= base.dataflows_finished,
            "tuned {} vs base {}",
            tuned.dataflows_finished,
            base.dataflows_finished
        );
    }

    #[test]
    fn random_policy_never_deletes() {
        let mut svc = QaasService::new(short_config(IndexPolicy::Random));
        let r = svc.run().expect("service run failed");
        assert_eq!(r.indexes_deleted, 0);
    }

    #[test]
    fn catalog_ids_align_with_filedb() {
        let svc = QaasService::new(short_config(IndexPolicy::NoIndex));
        assert_eq!(svc.catalog().len(), svc.filedb().potential_indexes().len());
    }

    /// Catalog-built ⇔ storage object ⇔ page image, for every partition.
    fn assert_stores_agree(svc: &QaasService, name: &str) {
        for idx in svc.catalog.ids() {
            for part in 0..svc.catalog.state(idx).parts.len() {
                let built = svc.catalog.is_partition_built(idx, part);
                let key = ObjectKey::IndexPart(idx, part as u32);
                let billed = svc.storage.contains(&key);
                let paged = svc.index_store.has_partition(idx, part as u32);
                assert_eq!(
                    billed, built,
                    "{name}: storage vs catalog at {idx:?}/{part}"
                );
                assert_eq!(
                    paged, built,
                    "{name}: page image vs catalog at {idx:?}/{part}"
                );
            }
        }
    }

    #[test]
    fn catalog_storage_bill_and_page_images_agree_at_end_of_run() {
        let gain = short_config(IndexPolicy::Gain { delete: true });
        let mut faulty = gain.clone();
        faulty.params.total_quanta = 80;
        faulty.faults = FaultConfig {
            rate: 0.3,
            seed: 7,
            crash_build_share: 0.3,
            torn_write_share: 0.3,
            ..FaultConfig::default()
        };
        faulty.recovery = RecoveryConfig::with_policy(crate::RecoveryPolicyKind::Retry);
        // At the default skyline width, the phase workload's recurring
        // indexes fill a deferred batch that flushes within 40 quanta.
        let mut deferred = gain.clone();
        deferred.workload = WorkloadKind::paper_phases();
        deferred.max_skyline = ServiceConfig::default().max_skyline;
        deferred.deferred_builds = true;
        let random = short_config(IndexPolicy::Random);
        for (name, config) in [
            ("gain", gain),
            ("faults", faulty),
            ("deferred", deferred),
            ("random", random),
        ] {
            let mut svc = QaasService::new(config);
            let r = svc.run().expect("service run failed");
            assert!(r.builds_completed > 0, "{name}: nothing was built");
            assert_stores_agree(&svc, name);
            if name == "faults" {
                // The invalidate path really ran.
                assert!(r.partitions_invalidated > 0, "no partition was invalidated");
            }
        }
    }

    #[test]
    fn interleaving_never_costs_time_or_money_inside_the_service() {
        for (scheduler, interleaver) in [
            (SchedulerKind::Skyline, InterleaverKind::Lp),
            (SchedulerKind::Skyline, InterleaverKind::Online),
            (SchedulerKind::OnlineLoadBalance, InterleaverKind::Lp),
            (SchedulerKind::OnlineLoadBalance, InterleaverKind::Online),
        ] {
            let mut config = short_config(IndexPolicy::Gain { delete: true });
            config.scheduler = scheduler;
            config.interleaver = interleaver;
            let mut svc = QaasService::new(config);
            let quantum = svc.config.params.cloud.quantum;
            let cap = svc.config.max_pending_build_ops;
            let mut placed = 0;
            for (seq, app) in App::ALL.into_iter().cycle().take(6).enumerate() {
                let df = svc.factory.make(DataflowId(seq as u32), app, SimTime::ZERO);
                // Every unbuilt partition, starting at a different index
                // each time, with uneven gains.
                let n = svc.catalog.len();
                let picks = (0..n).map(|i| {
                    let idx = (i + 7 * seq) % n;
                    (IndexId(idx as u32), 1.0 + (idx % 5) as f64)
                });
                let pending = offer_builds(&svc.catalog, &svc.throttle, cap, SimTime::ZERO, picks);
                assert!(!pending.is_empty());
                let with = svc.plan(&df, &pending);
                let without = svc.plan(&df, &[]);
                placed += with.build_assignments().count();
                let combo = format!("{scheduler:?}+{interleaver:?} {}", app.name());
                if (scheduler, interleaver) == (SchedulerKind::Skyline, InterleaverKind::Online) {
                    assert!(with.makespan() <= without.makespan(), "{combo}: slower");
                } else {
                    assert_eq!(with.makespan(), without.makespan(), "{combo}: makespan");
                    assert_eq!(
                        with.leased_quanta(quantum),
                        without.leased_quanta(quantum),
                        "{combo}: leased quanta"
                    );
                }
            }
            assert!(placed > 0, "{scheduler:?}+{interleaver:?} placed no build");
        }
    }
}
