//! The traced run: a campaign that repeats `StudySession::round`'s
//! exact sequence of public calls, timing each one from outside, plus a
//! traced store query.
//!
//! This file is the one place that has to follow the session: when
//! `StudySession::round` or `finish` change their call sequence, the
//! campaign below must change with them. The equality check (its
//! Figs 2–6, Table V and Table VI must equal an untraced session's at the
//! same seed) fails the traced run when the two drift apart.
//!
//! Layers are timed at their public boundaries only:
//! - the world's DNS fabric through a [`TimedFabric`] transport wrapper
//!   handed to the collector (busy time summed over workers);
//! - the engine through the [`SweepStats`] each collection returns;
//! - every session phase — collection, classification and the fold, the
//!   unchanged study, harvesting, the weekly scans and Fig 8 filters, the
//!   world step, the session's obs bookkeeping and `finish` — with one
//!   wall-clock span each;
//! - the query layer through `SnapshotStore`, `PlanContext` and the plans.

use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remnant::core::collector::Target;
use remnant::core::residual::{
    CloudflareScanner, ExposureTracker, FilterPipeline, IncapsulaScanner, WeeklyScanReport,
};
use remnant::core::study::{ProviderResidualReport, ResidualReport, UnchangedReport};
use remnant::core::unchanged::{self, UnchangedStudy};
use remnant::core::{
    DeltaCollector, DnsSnapshot, MetricsRegistry, RecordCollector, ShardClassCache, SnapshotPasses,
    SpillConfig, SCANNER_SOURCE,
};
use remnant::dns::registry::ZoneGenerationProbe;
use remnant::dns::transport::{QueryStats, ShardableTransport};
use remnant::dns::{DomainName, Query, Response};
use remnant::engine::{EngineConfig, ScanEngine, SweepStats};
use remnant::net::Region;
use remnant::provider::ProviderId;
use remnant::query::{
    PassesPlan, PlanContext, QueryPlan, ResidualScanPlan, ResidualScanReport, SnapshotStore,
};
use remnant::sim::stats::Series;
use remnant::sim::SimTime;
use remnant::world::World;
use remnant_bench::render_residual_scan;

use crate::metrics::Metrics;
use crate::study::{
    bytes_read, dir_bytes, figs_2_to_6, median, CampaignMode, Scale, Sections, WORKERS,
};

/// Unattributed campaign time above this share fails the traced run.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// Warm queries timed in a traced run.
const TRACED_WARM_QUERIES: usize = 20;

/// Fabric busy time and query count, summed over the workers.
#[derive(Default)]
struct FabricTimer {
    nanos: AtomicU64,
    queries: AtomicU64,
}

impl FabricTimer {
    fn record(&self, elapsed: Duration) {
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    fn busy(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

/// The world's DNS fabric with every query timed; answers pass through
/// unchanged.
struct TimedFabric<'a> {
    world: &'a World,
    timer: &'a FabricTimer,
}

impl ShardableTransport for TimedFabric<'_> {
    fn root(&self) -> Ipv4Addr {
        ShardableTransport::root(self.world)
    }

    fn query_shared(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response> {
        let started = Instant::now();
        let response = self.world.query_shared(now, server, region, query);
        self.timer.record(started.elapsed());
        response
    }

    fn query_stats(&self) -> QueryStats {
        ShardableTransport::query_stats(self.world)
    }
}

impl ZoneGenerationProbe for TimedFabric<'_> {
    fn generation_of(&self, apex: &DomainName) -> u64 {
        self.world.generation_of(apex)
    }

    fn generations_for(&self, apexes: &[&DomainName]) -> Vec<u64> {
        self.world.generations_for(apexes)
    }
}

/// The collectors of the two campaign modes the benchmark runs.
enum Collector {
    Full(RecordCollector),
    DeltaSpill(DeltaCollector, SpillConfig),
}

/// Wall time per named campaign phase.
#[derive(Default)]
struct Phases {
    collect: Duration,
    classify: Duration,
    passes: Duration,
    unchanged: Duration,
    harvest: Duration,
    scan: Duration,
    filters: Duration,
    step: Duration,
    bookkeeping: Duration,
    finish: Duration,
}

impl Phases {
    /// The top-level phases, which do not overlap (`passes` runs inside
    /// `classify`).
    fn attributed(&self) -> Duration {
        self.collect
            + self.classify
            + self.unchanged
            + self.harvest
            + self.scan
            + self.filters
            + self.step
            + self.bookkeeping
            + self.finish
    }
}

/// Engine and resolver counters over the collection sweeps.
#[derive(Default)]
struct CollectionCounters {
    sweep_wall: Duration,
    shard_busy: Duration,
    worker_wall: Duration,
    skews: Vec<f64>,
    sites_resolved: u64,
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
    reused: u64,
    reresolved: u64,
}

impl CollectionCounters {
    /// Folds one collection sweep. Only executed shards count: a delta
    /// round's replayed shards carry the previous round's counters and a
    /// zero wall time.
    fn absorb(&mut self, stats: &SweepStats) {
        self.sweep_wall += stats.wall;
        self.worker_wall += stats.wall * stats.workers.max(1) as u32;
        let timings: Vec<_> = stats
            .timings
            .iter()
            .filter(|t| t.wall > Duration::ZERO)
            .collect();
        let executed: std::collections::HashSet<usize> = timings.iter().map(|t| t.shard).collect();
        let walls: Vec<f64> = timings.iter().map(|t| t.wall.as_secs_f64()).collect();
        self.shard_busy += timings.iter().map(|t| t.wall).sum::<Duration>();
        if !walls.is_empty() {
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            let max = walls.iter().copied().fold(0.0, f64::max);
            if mean > 0.0 {
                self.skews.push(max / mean);
            }
        }
        for shard in stats.shards.iter().filter(|s| executed.contains(&s.shard)) {
            self.sites_resolved += shard.items;
            self.queries += shard.queries;
            self.cache_hits += shard.cache_hits;
            self.cache_misses += shard.cache_misses;
        }
    }
}

/// What a traced campaign leaves behind.
pub struct TracedCampaign {
    /// Figs 2–6, Table V and Table VI, for the equality check.
    pub rendered: String,
    /// Campaign wall time, setup excluded.
    pub wall: Duration,
    /// The rounds' snapshots, kept when the campaign did not spill so the
    /// query layer can be traced over them.
    pub snapshots: Vec<DnsSnapshot>,
}

/// Runs one campaign through the traced campaign and records the campaign
/// layers' metrics.
pub fn campaign(
    scale: &Scale,
    mode: CampaignMode,
    world: &mut World,
    spill_dir: Option<&Path>,
    metrics: &mut Metrics,
) -> Result<TracedCampaign, String> {
    let config = scale.study(mode.collection(), spill_dir);
    let region = config.collector_region;
    let started = Instant::now();

    // `StudySession::new`.
    let engine = ScanEngine::new(
        EngineConfig::with_workers(config.workers.max(1), config.seed)
            .map_err(|e| e.to_string())?,
    );
    let targets: Vec<Target> = world
        .sites()
        .iter()
        .map(|s| (s.apex.clone(), s.www.clone()))
        .collect();
    let mut jitter = StdRng::seed_from_u64(config.seed);
    let mut collector = match (mode, &config.spill) {
        (CampaignMode::DeltaSpill, Some(spill)) => Collector::DeltaSpill(
            DeltaCollector::new(world.clock(), region, config.seed),
            spill.clone(),
        ),
        (CampaignMode::DeltaSpill, None) => return Err("a delta campaign needs a spill dir".into()),
        (CampaignMode::FullInMemory, _) => {
            Collector::Full(RecordCollector::new(world.clock(), region))
        }
    };
    let mut passes = SnapshotPasses::new(targets.len());
    let mut class_cache = ShardClassCache::new();
    let mut unchanged_study = UnchangedStudy::new(SCANNER_SOURCE);
    let mut cf_scanner = CloudflareScanner::new(world.clock(), "cloudflare");
    let mut inc_scanner = IncapsulaScanner::new(world.clock(), "incapdns");
    let mut pipeline = FilterPipeline::new(world.clock(), region, SCANNER_SOURCE);
    let mut obs = MetricsRegistry::new();
    let mut cf_weekly: Vec<WeeklyScanReport> = Vec::new();
    let mut inc_weekly: Vec<WeeklyScanReport> = Vec::new();
    let mut prev_snapshot: Option<DnsSnapshot> = None;
    let mut snapshots = Vec::new();

    let timer = FabricTimer::default();
    let mut phases = Phases::default();
    let mut counters = CollectionCounters::default();
    let mut scan_queries = 0u64;

    for day in 0..scale.rounds() {
        // 1. Collection.
        let t = Instant::now();
        let fabric = TimedFabric {
            world,
            timer: &timer,
        };
        let (snapshot, sweep, delta) = match &mut collector {
            Collector::Full(c) => {
                let (s, st) = c.collect_with(&engine, &fabric, &targets, day);
                (s, st, None)
            }
            Collector::DeltaSpill(c, spill) => {
                let (s, st, r) = c
                    .collect_spilled(&engine, &fabric, &targets, day, spill)
                    .map_err(|e| format!("day {day} spill round failed: {e}"))?;
                (s, st, Some(r))
            }
        };
        phases.collect += t.elapsed();
        counters.absorb(&sweep);
        match delta {
            Some(round) => {
                counters.reused += round.reused;
                counters.reresolved += round.reresolved;
            }
            None => counters.reresolved += targets.len() as u64,
        }
        if !mode.spills() {
            snapshots.push(snapshot.clone());
        }

        // The session's per-sweep bookkeeping: obs merge, engine report.
        let t = Instant::now();
        obs.merge_from(&sweep.merged_metrics());
        phases.bookkeeping += t.elapsed();

        // 2. Classification and the snapshot fold.
        let t = Instant::now();
        let behaviors = match mode {
            CampaignMode::FullInMemory => {
                let behaviors = passes.observe(day, &snapshot);
                phases.passes += t.elapsed();
                behaviors
            }
            CampaignMode::DeltaSpill => {
                let columns = class_cache.classify_snapshot(&engine, passes.detector(), &snapshot);
                let tp = Instant::now();
                let behaviors = passes.observe_columns(
                    day,
                    snapshot.taken_at,
                    columns.classes,
                    &columns.multi_cdn_ranks,
                );
                phases.passes += tp.elapsed();
                behaviors
            }
        };
        phases.classify += t.elapsed();

        // 3. The unchanged study (Table V).
        if let Some(prev) = &prev_snapshot {
            let t = Instant::now();
            let candidates = unchanged::candidates(&targets, &behaviors, prev, &snapshot);
            let now = world.now();
            unchanged_study.observe_candidates(world, now, &candidates);
            phases.unchanged += t.elapsed();
        }

        // 4. Harvesting daily, scans and filters weekly.
        let t = Instant::now();
        cf_scanner.harvest_fleet(world, &snapshot);
        inc_scanner.harvest(&snapshot);
        phases.harvest += t.elapsed();
        if day % 7 == 0 {
            let week = day / 7;
            for provider in [ProviderId::Cloudflare, ProviderId::Incapsula] {
                let t = Instant::now();
                let (raw, sweep) = match provider {
                    ProviderId::Cloudflare => cf_scanner.scan_with(&engine, world, &targets, week),
                    _ => inc_scanner.scan_with(&engine, world),
                };
                phases.scan += t.elapsed();
                scan_queries += sweep.queries();
                let t = Instant::now();
                obs.merge_from(&sweep.merged_metrics());
                phases.bookkeeping += t.elapsed();
                let t = Instant::now();
                let weekly = pipeline.run(world, provider, week, &raw, &targets);
                phases.filters += t.elapsed();
                match provider {
                    ProviderId::Cloudflare => cf_weekly.push(weekly),
                    _ => inc_weekly.push(weekly),
                }
            }
        }

        prev_snapshot = Some(snapshot);

        // 5. The 20–30 h step to the next experiment.
        let interval = if config.uneven_intervals {
            jitter.gen_range(20..=30)
        } else {
            24
        };
        let t = Instant::now();
        world.step_hours(interval);
        phases.step += t.elapsed();
    }

    // `StudySession::finish`.
    let t = Instant::now();
    let aggregates = passes.finish();
    let unchanged_report = UnchangedReport {
        rows: unchanged_study.rows(),
        total: unchanged_study.total(),
    };
    let residual = ResidualReport {
        cloudflare: ProviderResidualReport {
            exposure: ExposureTracker::fold(&cf_weekly),
            weekly: cf_weekly,
        },
        incapsula: ProviderResidualReport {
            exposure: ExposureTracker::fold(&inc_weekly),
            weekly: inc_weekly,
        },
        fleet_size: cf_scanner.fleet_size(),
        harvested_tokens: inc_scanner.harvested_count(),
    };
    obs.merge_from(&pipeline.metrics());
    phases.finish += t.elapsed();
    let wall = started.elapsed();

    let sections = Sections {
        adoption: &aggregates.adoption,
        behaviors: &aggregates.behaviors,
        pauses: &aggregates.pauses,
        unchanged: &unchanged_report,
        residual: &residual,
    };
    let repro = scale.repro();
    let traced = TracedCampaign {
        rendered: sections.traced_check(&repro),
        wall,
        snapshots,
    };

    let site_rounds = scale.site_rounds();
    let fabric_busy = timer.busy();
    let fabric_queries = timer.queries();
    let spill_bytes = spill_dir.map_or(0, dir_bytes);
    let unattributed = wall.saturating_sub(phases.attributed()).as_secs_f64() / wall.as_secs_f64();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    metrics.push("campaign.wall_s", wall.as_secs_f64(), "s");
    metrics.push("campaign.unattributed_share", unattributed, "share");
    metrics.push("world.fabric.busy_s", fabric_busy.as_secs_f64(), "s");
    metrics.push("world.fabric.queries", fabric_queries as f64, "count");
    metrics.push(
        "world.fabric.ns_per_query",
        fabric_busy.as_nanos() as f64 / fabric_queries.max(1) as f64,
        "ns",
    );
    metrics.push("world.step.busy_s", phases.step.as_secs_f64(), "s");
    metrics.push("core.collector.busy_s", phases.collect.as_secs_f64(), "s");
    metrics.push(
        "core.collector.self_s",
        counters.shard_busy.as_secs_f64() - fabric_busy.as_secs_f64(),
        "s",
    );
    metrics.push(
        "core.collector.sites_resolved",
        counters.sites_resolved as f64,
        "count",
    );
    metrics.push(
        "core.collector.reuse_ratio",
        ratio(counters.reused, counters.reused + counters.reresolved),
        "ratio",
    );
    metrics.push(
        "dns.resolver.queries_per_site",
        ratio(counters.queries, counters.sites_resolved),
        "count",
    );
    metrics.push(
        "dns.resolver.cache_hit_ratio",
        ratio(
            counters.cache_hits,
            counters.cache_hits + counters.cache_misses,
        ),
        "ratio",
    );
    metrics.push(
        "engine.sweep.wall_s",
        counters.sweep_wall.as_secs_f64(),
        "s",
    );
    metrics.push(
        "engine.shard.busy_s",
        counters.shard_busy.as_secs_f64(),
        "s",
    );
    metrics.push(
        "engine.idle_share",
        1.0 - counters.shard_busy.as_secs_f64()
            / counters.worker_wall.as_secs_f64().max(f64::MIN_POSITIVE),
        "share",
    );
    metrics.push("engine.shard.skew", median(&counters.skews), "ratio");
    metrics.push("core.spill.bytes_written", spill_bytes as f64, "B");
    metrics.push(
        "core.spill.bytes_per_site_round",
        spill_bytes as f64 / site_rounds,
        "B",
    );
    metrics.push("core.classify.busy_s", phases.classify.as_secs_f64(), "s");
    metrics.push(
        "core.classify.cache_hit_ratio",
        ratio(
            class_cache.hits(),
            class_cache.hits() + class_cache.misses(),
        ),
        "ratio",
    );
    metrics.push("core.passes.busy_s", phases.passes.as_secs_f64(), "s");
    metrics.push("core.unchanged.busy_s", phases.unchanged.as_secs_f64(), "s");
    metrics.push(
        "core.residual.harvest.busy_s",
        phases.harvest.as_secs_f64(),
        "s",
    );
    metrics.push("core.residual.scan.busy_s", phases.scan.as_secs_f64(), "s");
    metrics.push("core.residual.scan.queries", scan_queries as f64, "count");
    metrics.push(
        "core.residual.filters.busy_s",
        phases.filters.as_secs_f64(),
        "s",
    );
    metrics.push(
        "core.session.bookkeeping_s",
        phases.bookkeeping.as_secs_f64(),
        "s",
    );
    metrics.push("core.finish.busy_s", phases.finish.as_secs_f64(), "s");

    if unattributed > MAX_UNATTRIBUTED_SHARE {
        return Err(format!(
            "traced campaign left {:.1}% of its wall time outside every named phase (limit {:.0}%)",
            unattributed * 100.0,
            MAX_UNATTRIBUTED_SHARE * 100.0
        ));
    }
    Ok(traced)
}

/// Where a traced query reads its rounds from.
pub enum QuerySource<'a> {
    Spilled(&'a Path),
    Resident(Vec<DnsSnapshot>),
}

/// Runs one cold query (the steps of `repro query`, each timed), then warm
/// queries on its context, and records the query layer's metrics. The
/// query's Figs 2–6 must equal `live_figs`, rendered from the campaign's
/// own report.
pub fn query(
    scale: &Scale,
    source: QuerySource<'_>,
    live_figs: &str,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let read_before = bytes_read();
    let t = Instant::now();
    let store = match source {
        QuerySource::Spilled(dir) => SnapshotStore::open(dir),
        QuerySource::Resident(snapshots) => SnapshotStore::in_memory(snapshots),
    }
    .map_err(|e| format!("opening the store: {e}"))?;
    let open = t.elapsed();
    let t = Instant::now();
    let ctx = PlanContext::new(&store, WORKERS);
    let build = t.elapsed();
    let t = Instant::now();
    let aggregates = PassesPlan.execute_with(&ctx);
    let passes = t.elapsed();
    let t = Instant::now();
    let residual = ResidualScanPlan::default().execute_with(&ctx);
    let residual_time = t.elapsed();
    let t = Instant::now();
    let repro = scale.repro();
    let figs = figs_2_to_6(
        &repro,
        &aggregates.adoption,
        &aggregates.behaviors,
        &aggregates.pauses,
    );
    let _scan = render_residual_scan(&repro, &residual);
    let render = t.elapsed();
    let read = bytes_read().saturating_sub(read_before);
    if figs != live_figs {
        return Err("the store query's Figs 2-6 differ from the campaign's own".into());
    }

    let expected = uncached_warm_query(&store);
    let mut warm = Vec::with_capacity(TRACED_WARM_QUERIES);
    for _ in 0..TRACED_WARM_QUERIES {
        let t = Instant::now();
        let answer = warm_query(&ctx);
        warm.push(t.elapsed().as_secs_f64());
        if answer != expected {
            return Err("a warm query differs from the uncached reference path".into());
        }
    }

    let (hits, misses) = ctx.classified().cache_stats();
    metrics.push("query.store.open_s", open.as_secs_f64(), "s");
    metrics.push("query.classified.build_s", build.as_secs_f64(), "s");
    metrics.push(
        "query.classified.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.push("query.plans.passes_s", passes.as_secs_f64(), "s");
    metrics.push("query.plans.residual_s", residual_time.as_secs_f64(), "s");
    metrics.push("query.render_s", render.as_secs_f64(), "s");
    metrics.push(
        "query.index.bytes",
        ctx.classified().index().bytes() as f64,
        "B",
    );
    metrics.push("query.store.bytes_read", read as f64, "B");
    metrics.push("query.warm.fold_s", median(&warm), "s");
    Ok(())
}

/// A warm query's answer: the residual-scan timeline and the Cloudflare
/// adoption fold.
#[derive(Debug, PartialEq)]
struct WarmAnswer {
    scan: ResidualScanReport,
    cloudflare_final: usize,
    cloudflare_series: Series,
}

/// One warm slice query on an already-built context.
fn warm_query(ctx: &PlanContext<'_>) -> WarmAnswer {
    let cloudflare = ctx.classified().provider(ProviderId::Cloudflare);
    WarmAnswer {
        scan: ResidualScanPlan::default().execute_with(ctx),
        cloudflare_final: cloudflare.adopted_final,
        cloudflare_series: cloudflare.adopted_series,
    }
}

/// The same slice through the uncached reference path, which rescans and
/// reclassifies the store.
fn uncached_warm_query(store: &SnapshotStore) -> WarmAnswer {
    let cloudflare = store.query().provider(ProviderId::Cloudflare);
    WarmAnswer {
        scan: ResidualScanPlan::default().execute(store),
        cloudflare_final: cloudflare.adopted_final,
        cloudflare_series: cloudflare.adopted_series,
    }
}
