//! The daily DNS record collector (Sec IV-B.1).
//!
//! "we set a recursive DNS resolver inside Amazon EC2 ... and send DNS
//! queries for the tested domains to obtain their A, CNAME, and NS records.
//! ... we purge the DNS cache of the resolver before performing each
//! experiment."
//!
//! Every round resolves each site through one per-site task
//! (`resolve_site`). There are two ways to run a round:
//!
//! - [`RecordCollector::collect`] — sequential and in-memory, through one
//!   purged resolver.
//! - Every engine-backed collect — [`RecordCollector::collect_with`],
//!   [`DeltaCollector::collect_with`] and
//!   [`DeltaCollector::collect_spilled`] — is a short call into one
//!   private round driver. The driver sweeps the round's selected shards
//!   through the engine (a fresh resolver per shard) and hands each
//!   finished block to a sink: a resident `Arc` slot, or the round's spill
//!   file, written in batches of at most `resident_shards` so a round's
//!   resident working set is the batch, never the population. One
//!   function then splices the fresh blocks with any shards replayed from
//!   the previous round into the snapshot.
//!
//! Which shards a round selects is the collector's policy, taken from the
//! study's [`CollectionMode`]: full mode selects every shard every round;
//! delta mode selects the shards whose zone generations changed plus a
//! refresh stratum, and replays the rest (`Arc` clones in memory,
//! [`SpillRef`](crate::spill::SpillRef) clones into older round files on
//! disk).
//!
//! All paths produce byte-identical snapshots (same block layout = same
//! shard plan) for any worker count, which is what the in-memory-vs-spill
//! and full-vs-delta differential tests assert.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use remnant_dns::{
    CountingTransport, DnsTransport, DomainName, Instrumented, RecordType, RecursiveResolver,
    ShardableTransport, ZoneGenerationProbe,
};
use remnant_engine::{ScanEngine, ShardScope, ShardStats, ShardTiming, SweepStats};
use remnant_net::Region;
use remnant_sim::{SeedSeq, SimClock};

use crate::snapshot::{BlockSlot, DnsSnapshot, RecordBlock, SiteRecords, DEFAULT_BLOCK_SIZE};
use crate::spill::{SpillConfig, SpillError, SpillMeta, SpillWriter};
use crate::study::CollectionMode;

/// A collection target: `(apex, www host)`.
pub type Target = (DomainName, DomainName);

/// The record collector: a cache-purging recursive resolver sweeping the
/// target list.
#[derive(Debug)]
pub struct RecordCollector {
    clock: SimClock,
    region: Region,
    resolver: RecursiveResolver,
    rounds: u32,
}

impl RecordCollector {
    /// Creates a collector resolving from `region` (the paper used
    /// us-east-1, our [`Region::Ashburn`]).
    pub fn new(clock: SimClock, region: Region) -> Self {
        RecordCollector {
            resolver: RecursiveResolver::new(clock.clone(), region),
            clock,
            region,
            rounds: 0,
        }
    }

    /// Number of collection rounds performed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Collects one snapshot over `targets`, purging the resolver cache
    /// first so the round is independent of the previous one.
    ///
    /// Per-site failures (timeouts, NXDOMAIN) are recorded as empty
    /// [`SiteRecords`] — one dead site must not abort a million-site sweep.
    pub fn collect<T: DnsTransport>(
        &mut self,
        transport: &mut T,
        targets: &[Target],
        day: u32,
    ) -> DnsSnapshot {
        self.resolver.purge_cache();
        self.rounds += 1;
        let mut builder = DnsSnapshot::builder(self.clock.now(), day, DEFAULT_BLOCK_SIZE);
        for (apex, www) in targets {
            builder.push(resolve_site(&mut self.resolver, transport, apex, www));
        }
        builder.finish()
    }

    /// Collects one snapshot over `targets` through `engine`, sharding the
    /// target list over the engine's workers.
    ///
    /// Every shard resolves through its own fresh [`RecursiveResolver`], so
    /// each is as cold as a freshly purged cache and the snapshot is
    /// bit-identical for every worker count. Each shard's sites are packed
    /// into one columnar [`RecordBlock`] (block layout = shard plan). The
    /// returned [`SweepStats`] carry per-shard query counts and wall times,
    /// and each shard's resolver exports its full counter surface
    /// (per-qtype queries, delegation depths, cache hits/misses/
    /// expirations) into the shard's metrics once at shard end — off the
    /// per-item hot path.
    pub fn collect_with<T: ShardableTransport>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
    ) -> (DnsSnapshot, SweepStats) {
        self.rounds += 1;
        let round = Round::new(&self.clock, self.region, engine, transport, targets, day);
        let every_shard: Vec<usize> = (0..round.plan.len()).collect();
        round
            .run(&every_shard, None, None)
            .expect("a resident round does no I/O")
    }
}

/// The per-site record collection every path shares: A + CNAME chain for
/// the www host, NS for the apex.
fn resolve_site<T: DnsTransport>(
    resolver: &mut RecursiveResolver,
    transport: &mut T,
    apex: &DomainName,
    www: &DomainName,
) -> SiteRecords {
    let mut records = SiteRecords::default();
    if let Ok(res) = resolver.resolve(transport, www, RecordType::A) {
        records.a = res.addresses();
        records.cnames = res.cnames();
    }
    if let Ok(res) = resolver.resolve(transport, apex, RecordType::Ns) {
        records.ns = res.ns_hosts();
    }
    records
}

/// The engine task of every engine-backed round: [`resolve_site`] plus
/// the shard's query and resolver-cache counters.
fn site_task<T: ShardableTransport + ?Sized>(
    transport: &T,
    resolver: &mut RecursiveResolver,
    scope: &mut ShardScope,
    _rank: usize,
    (apex, www): &Target,
) -> SiteRecords {
    let mut counting = CountingTransport::new(transport);
    let (hits_before, misses_before) = resolver.cache().stats();
    let records = resolve_site(resolver, &mut counting, apex, www);
    let (hits_after, misses_after) = resolver.cache().stats();
    scope.add_queries(counting.query_stats().sent);
    scope.add_cache_stats(hits_after - hits_before, misses_after - misses_before);
    records
}

/// The freshly resolved part of one round, in selected-shard order.
#[derive(Default)]
struct FreshShards {
    blocks: Vec<BlockSlot>,
    stats: Vec<ShardStats>,
    timings: Vec<ShardTiming>,
    wall: Duration,
}

/// One engine-backed collection round: the driver behind every
/// `collect_with` and `collect_spilled`.
struct Round<'a, T> {
    clock: &'a SimClock,
    region: Region,
    engine: &'a ScanEngine,
    transport: &'a T,
    targets: &'a [Target],
    day: u32,
    /// The engine's shard plan over `targets`; block `i` of the snapshot
    /// holds shard `i`.
    plan: Vec<Range<usize>>,
}

impl<'a, T: ShardableTransport> Round<'a, T> {
    fn new(
        clock: &'a SimClock,
        region: Region,
        engine: &'a ScanEngine,
        transport: &'a T,
        targets: &'a [Target],
        day: u32,
    ) -> Self {
        Round {
            clock,
            region,
            engine,
            transport,
            targets,
            day,
            plan: engine.shard_plan(targets.len()),
        }
    }

    /// Resolves the `selected` shards (ascending), sinks their blocks —
    /// resident, or into the spill file `spill` names — and assembles the
    /// round with the unselected shards replayed from `replay`.
    fn run(
        &self,
        selected: &[usize],
        replay: Option<&DeltaCache>,
        spill: Option<(&SpillConfig, String)>,
    ) -> Result<(DnsSnapshot, SweepStats), SpillError> {
        let fresh = self.sweep(selected, spill)?;
        Ok(self.assemble(selected, fresh, replay))
    }

    /// Sweeps the `selected` shards with their full-sweep identity (RNG
    /// stream, stats row, item range), so each shard's block and counters
    /// are byte-identical however the shards are batched.
    ///
    /// A resident round sweeps in one batch and keeps every block as an
    /// `Arc`. A spilled round sweeps in batches of [`resident_batch`]
    /// shards, appends each batch's blocks to the round file in ascending
    /// shard order and drops them, and returns the file's frame refs.
    fn sweep(
        &self,
        selected: &[usize],
        spill: Option<(&SpillConfig, String)>,
    ) -> Result<FreshShards, SpillError> {
        let (mut writer, batch) = match spill {
            Some((config, name)) => (
                Some(self.create_round_file(config, &name)?),
                resident_batch(self.engine, config),
            ),
            None => (None, selected.len().max(1)),
        };
        let mut fresh = FreshShards::default();
        for batch in selected.chunks(batch) {
            let sweep = self.engine.sweep_selected(
                self.transport,
                self.targets,
                batch,
                |_shard| RecursiveResolver::new(self.clock.clone(), self.region),
                site_task,
                |resolver, scope| resolver.export_into(scope.metrics()),
            );
            let mut outputs = sweep.outputs.into_iter();
            for &shard in batch {
                let block = RecordBlock::from_sites(outputs.by_ref().take(self.plan[shard].len()));
                match writer.as_mut() {
                    Some(writer) => writer.append_block(shard as u32, &block)?,
                    None => fresh.blocks.push(BlockSlot::Resident(Arc::new(block))),
                }
            }
            fresh.stats.extend(sweep.stats.shards);
            fresh.timings.extend(sweep.stats.timings);
            fresh.wall += sweep.stats.wall;
        }
        if let Some(writer) = writer {
            let (_file, refs) = writer.finish()?;
            fresh.blocks = refs.into_iter().map(BlockSlot::Spilled).collect();
        }
        Ok(fresh)
    }

    /// Creates the spill directory (if needed) and this round's file.
    fn create_round_file(
        &self,
        spill: &SpillConfig,
        name: &str,
    ) -> Result<SpillWriter, SpillError> {
        std::fs::create_dir_all(&spill.dir).map_err(|e| SpillError::Io {
            context: "creating spill directory",
            error: e.to_string(),
        })?;
        SpillWriter::create(
            spill.dir.join(name),
            SpillMeta {
                taken_at: self.clock.now(),
                day: self.day,
                sites: self.targets.len() as u64,
                block_size: self.block_size() as u32,
                shard_count: self.plan.len() as u32,
            },
        )
    }

    /// Splices the fresh shards and the shards replayed from `replay` into
    /// the round's snapshot and full-length stats, in plan order.
    ///
    /// # Panics
    ///
    /// Panics if a shard is neither selected nor replayable.
    fn assemble(
        &self,
        selected: &[usize],
        fresh: FreshShards,
        replay: Option<&DeltaCache>,
    ) -> (DnsSnapshot, SweepStats) {
        let mut builder = DnsSnapshot::builder(self.clock.now(), self.day, self.block_size());
        // The worker count a full sweep over this plan would use, not the
        // (possibly smaller) clamp over the selected subset.
        let workers = self.engine.config().workers.max(1);
        let mut stats = SweepStats {
            workers: workers.min(self.plan.len().max(1)),
            shards: Vec::with_capacity(self.plan.len()),
            timings: Vec::with_capacity(self.plan.len()),
            wall: fresh.wall,
        };
        let mut fresh_shards = fresh.blocks.into_iter().zip(fresh.stats).zip(fresh.timings);
        let mut next_selected = selected.iter().copied().peekable();
        for idx in 0..self.plan.len() {
            if next_selected.next_if_eq(&idx).is_some() {
                let ((block, shard_stats), timing) =
                    fresh_shards.next().expect("one block per selected shard");
                builder.push_slot(block);
                stats.shards.push(shard_stats);
                stats.timings.push(timing);
            } else {
                let cache = replay.expect("unselected shards replay the previous round");
                builder.push_slot(cache.snapshot.slots()[idx].clone());
                stats.shards.push(cache.shard_stats[idx].clone());
                // Replayed shards cost no wall time; timings are
                // nondeterministic and excluded from all reports anyway.
                stats.timings.push(ShardTiming {
                    shard: idx,
                    wall: Duration::ZERO,
                });
            }
        }
        (builder.finish(), stats)
    }

    /// Sites per snapshot block: the configured shard size.
    fn block_size(&self) -> usize {
        self.engine.config().shard_size.max(1)
    }
}

/// Shards resident at once during a spilled round: the configured
/// budget, but never fewer than the workers that must be kept busy.
fn resident_batch(engine: &ScanEngine, spill: &SpillConfig) -> usize {
    spill.resident_shards.max(engine.config().workers).max(1)
}

/// Identity of a target list. Delta replay is valid only for the list a
/// cache was built from; equal lengths are not enough.
fn fingerprint(targets: &[Target]) -> u64 {
    let mut hasher = DefaultHasher::new();
    targets.hash(&mut hasher);
    hasher.finish()
}

/// Default number of refresh strata for [`DeltaCollector`]: each shard is
/// forcibly re-resolved at least once every this many rounds even if its
/// generations never change.
pub const DEFAULT_REFRESH_STRATA: u64 = 16;

/// Per-round accounting of what a [`DeltaCollector`] reused vs re-resolved.
///
/// Carried in the study's `CollectionReport` and deliberately kept *out* of
/// the study [`ObsReport`](remnant_obs::ObsReport) counters — full and
/// delta mode must produce byte-identical study observability output, and
/// these counters are exactly what differs between the modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaRound {
    /// Sites whose previous-round records were reused via `Arc` sharing.
    pub reused: u64,
    /// Sites re-resolved this round (dirty shard, cold cache, or stratum).
    pub reresolved: u64,
    /// Subset of `reresolved` whose shard was selected only by the round's
    /// refresh stratum, not by a generation change.
    pub refresh_stratum: u64,
}

/// State a delta-mode [`DeltaCollector`] carries between rounds.
#[derive(Debug)]
struct DeltaCache {
    /// Shard size the cached layout was computed under; a different engine
    /// configuration invalidates the cache wholesale.
    shard_size: usize,
    /// [`fingerprint`] of the target list the cache was built from.
    targets: u64,
    /// Per-rank zone generation observed when the rank's shard last ran.
    generations: Vec<u64>,
    /// The previous round. Its blocks are resident `Arc`s in in-memory
    /// mode and [`SpillRef`](crate::spill::SpillRef)s into older rounds'
    /// files in spill mode; cloning either is O(1) — sharing, never
    /// copying.
    snapshot: DnsSnapshot,
    /// Per-shard deterministic counters from each shard's last execution.
    shard_stats: Vec<ShardStats>,
}

/// What [`DeltaCollector::select_shards`] decided for one round.
struct ShardSelection {
    /// Shard indices to execute, ascending.
    selected: Vec<usize>,
    /// The round's reuse accounting.
    round: DeltaRound,
    /// Per-rank zone generations probed this round (delta mode only).
    generations: Vec<u64>,
    /// [`fingerprint`] of this round's target list (delta mode only).
    targets: u64,
}

/// The incremental record collector: a drop-in alternative to
/// [`RecordCollector::collect_with`] that re-resolves only what could have
/// changed since the previous round.
///
/// # How it stays byte-identical to full collection
///
/// The reuse unit is the **shard**, not the site: within a shard the
/// resolver cache is shared across sites, so per-site telemetry depends on
/// the order and company a site is resolved in — but a whole shard's
/// outputs *and* counters are a pure function of its members' zone state
/// at a fixed virtual time (each shard starts from a fresh resolver and a
/// shard-indexed RNG stream). A shard whose members' zone generations
/// (via [`ZoneGenerationProbe`]) are all unchanged would therefore produce
/// exactly what it produced last time, so the collector replays its cached
/// block (`Arc` clone or [`SpillRef`](crate::spill::SpillRef) clone) and [`ShardStats`].
/// Everything downstream — snapshot, merged metrics, journal lines — is
/// byte-identical to a full sweep's.
///
/// # Refresh stratum
///
/// Generation probes cannot see out-of-band mutations (e.g. direct
/// provider edits through `World::provider_mut`). To bound the staleness
/// such edits could cause, every round additionally re-resolves one
/// deterministic, seed-derived stratum of shards: shard `s` is refreshed
/// in round `r` iff `s ≡ base + r (mod strata)`, with `strata` =
/// [`DEFAULT_REFRESH_STRATA`], so every shard is force-refreshed at least
/// once every `strata` rounds.
///
/// # Full mode
///
/// The study session runs both collection modes through this type. In
/// [`CollectionMode::Full`] every round selects every shard: no generation
/// probe, no replay cache, and spill files are named `full-r*.rsnb`
/// instead of `delta-r*.rsnb`.
#[derive(Debug)]
pub struct DeltaCollector {
    clock: SimClock,
    region: Region,
    mode: CollectionMode,
    /// Seed-derived base offset of the rotating refresh stratum.
    stratum_base: u64,
    rounds: u32,
    cache: Option<DeltaCache>,
}

impl DeltaCollector {
    /// Creates a delta collector resolving from `region`, refreshing one of
    /// [`DEFAULT_REFRESH_STRATA`] strata of shards per round.
    ///
    /// `seed` feeds the stratum schedule; collectors with the same seed
    /// refresh the same shards in the same rounds.
    pub fn new(clock: SimClock, region: Region, seed: u64) -> Self {
        DeltaCollector {
            clock,
            region,
            mode: CollectionMode::Delta,
            stratum_base: SeedSeq::new(seed).child("delta").derive("stratum-base"),
            rounds: 0,
            cache: None,
        }
    }

    /// The study session's collector: [`DeltaCollector::new`] with the
    /// shard selection policy of `mode`.
    pub(crate) fn for_mode(
        clock: SimClock,
        region: Region,
        seed: u64,
        mode: CollectionMode,
    ) -> Self {
        DeltaCollector {
            mode,
            ..Self::new(clock, region, seed)
        }
    }

    /// Number of collection rounds performed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Decides which shards must execute this round: every shard in full
    /// mode or on a cold/invalid cache; otherwise dirty generations plus
    /// the refresh stratum.
    fn select_shards<T: ZoneGenerationProbe>(
        &self,
        transport: &T,
        engine: &ScanEngine,
        plan: &[Range<usize>],
        targets: &[Target],
        round_index: u64,
    ) -> ShardSelection {
        let mut sel = ShardSelection {
            selected: (0..plan.len()).collect(),
            round: DeltaRound {
                reresolved: targets.len() as u64,
                ..DeltaRound::default()
            },
            generations: Vec::new(),
            targets: 0,
        };
        if self.mode == CollectionMode::Full {
            return sel;
        }
        let apexes: Vec<&DomainName> = targets.iter().map(|(apex, _)| apex).collect();
        sel.generations = transport.generations_for(&apexes);
        sel.targets = fingerprint(targets);
        let valid = self.cache.as_ref().filter(|c| {
            c.shard_size == engine.config().shard_size
                && c.targets == sel.targets
                && c.snapshot.slots().len() == plan.len()
        });
        // A cold cache (first round, or a changed target list or shard
        // layout) re-resolves everything.
        let Some(cache) = valid else {
            return sel;
        };
        let stratum_offset = (self.stratum_base + round_index) % DEFAULT_REFRESH_STRATA;
        sel.selected.clear();
        sel.round = DeltaRound::default();
        for (idx, range) in plan.iter().enumerate() {
            let dirty = range
                .clone()
                .any(|rank| sel.generations[rank] != cache.generations[rank]);
            let stratum = (idx as u64) % DEFAULT_REFRESH_STRATA == stratum_offset;
            if dirty || stratum {
                sel.selected.push(idx);
                sel.round.reresolved += range.len() as u64;
                if !dirty {
                    sel.round.refresh_stratum += range.len() as u64;
                }
            } else {
                sel.round.reused += range.len() as u64;
            }
        }
        sel
    }

    /// One round in this collector's mode: in memory, or streamed to the
    /// spill directory when `spill` is set.
    pub(crate) fn collect_round<T: ShardableTransport + ZoneGenerationProbe>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
        spill: Option<&SpillConfig>,
    ) -> Result<(DnsSnapshot, SweepStats, DeltaRound), SpillError> {
        let round_index = u64::from(self.rounds);
        self.rounds += 1;
        let round = Round::new(&self.clock, self.region, engine, transport, targets, day);
        let sel = self.select_shards(transport, engine, &round.plan, targets, round_index);
        let spill = spill.map(|config| {
            (
                config,
                format!("{}-r{round_index:05}.rsnb", self.mode.name()),
            )
        });
        let (snapshot, stats) = round.run(&sel.selected, self.cache.as_ref(), spill)?;
        if self.mode == CollectionMode::Delta {
            self.cache = Some(DeltaCache {
                shard_size: engine.config().shard_size,
                targets: sel.targets,
                generations: sel.generations,
                snapshot: snapshot.clone(),
                shard_stats: stats.shards.clone(),
            });
        }
        Ok((snapshot, stats, sel.round))
    }

    /// Collects one snapshot over `targets` through `engine`, re-resolving
    /// only shards whose zone generations changed since the previous round
    /// (plus the round's refresh stratum) and reusing the rest.
    ///
    /// Returns the same `(snapshot, stats)` a full
    /// [`RecordCollector::collect_with`] would — byte-identical, including
    /// per-shard counters; only the (nondeterministic, never-reported)
    /// wall times differ — plus the round's reuse accounting.
    pub fn collect_with<T: ShardableTransport + ZoneGenerationProbe>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
    ) -> (DnsSnapshot, SweepStats, DeltaRound) {
        self.collect_round(engine, transport, targets, day, None)
            .expect("a resident round does no I/O")
    }

    /// [`DeltaCollector::collect_with`], memory-bounded: dirty shards
    /// execute in batches of at most `spill.resident_shards` (clamped up
    /// to the worker count) and stream to `<dir>/delta-r<round>.rsnb`;
    /// clean shards are replayed as [`SpillRef`](crate::spill::SpillRef)
    /// clones into the older round files that last wrote them — no load,
    /// no copy. Older round files must therefore outlive the campaign (the
    /// spill directory is append-only).
    ///
    /// # Errors
    ///
    /// Returns [`SpillError`] if the spill directory or round file cannot
    /// be created or written.
    pub fn collect_spilled<T: ShardableTransport + ZoneGenerationProbe>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        day: u32,
        spill: &SpillConfig,
    ) -> Result<(DnsSnapshot, SweepStats, DeltaRound), SpillError> {
        self.collect_round(engine, transport, targets, day, Some(spill))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_world::{World, WorldConfig};

    fn tiny_world() -> World {
        World::generate(WorldConfig {
            population: 200,
            seed: 9,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    fn targets(world: &World) -> Vec<Target> {
        world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect()
    }

    fn temp_spill(tag: &str) -> SpillConfig {
        let dir =
            std::env::temp_dir().join(format!("remnant-collector-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SpillConfig {
            resident_shards: 2,
            ..SpillConfig::new(dir)
        }
    }

    #[test]
    fn collects_every_site() {
        let mut world = tiny_world();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(&mut world, &targets, 0);
        assert_eq!(snapshot.len(), 200);
        assert_eq!(snapshot.resolved_count(), 200, "every site resolves");
        assert_eq!(collector.rounds(), 1);
    }

    #[test]
    fn self_hosted_records_point_at_origin_with_hosting_ns() {
        let mut world = tiny_world();
        let site = world
            .sites()
            .iter()
            .find(|s| s.state == remnant_world::SiteState::SelfHosted)
            .unwrap()
            .clone();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(&mut world, &targets, 0);
        let records = snapshot.site(site.id.0 as usize).unwrap();
        assert_eq!(records.a, vec![site.origin]);
        assert!(records.cnames.is_empty());
        assert_eq!(records.ns.len(), 2);
        assert!(records.ns[0].contains_label_substring("webhost"));
    }

    #[test]
    fn cname_customers_show_their_token_chain() {
        let mut world = tiny_world();
        let site = world
            .sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    remnant_world::SiteState::Dps {
                        rerouting: remnant_provider::ReroutingMethod::Cname,
                        paused: false,
                        ..
                    }
                )
            })
            .unwrap()
            .clone();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(&mut world, &targets, 0);
        let records = snapshot.site(site.id.0 as usize).unwrap();
        assert_eq!(records.cnames.len(), 1, "CNAME chain captured");
        assert!(!records.a.is_empty());
    }

    #[test]
    fn sharded_collection_matches_sequential() {
        use remnant_engine::EngineConfig;

        let mut world = tiny_world();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let sequential = collector.collect(&mut world, &targets, 0);

        let engine = |workers| {
            ScanEngine::new(EngineConfig {
                workers,
                shard_size: 32,
                seed: 1,
            })
        };
        let (snap1, stats1) = collector.collect_with(&engine(1), &world, &targets, 0);
        let (snap4, stats4) = collector.collect_with(&engine(4), &world, &targets, 0);
        assert_eq!(sequential, snap1, "engine path sees the same records");
        assert_eq!(
            snap1.encode(),
            snap4.encode(),
            "worker count never changes the snapshot"
        );
        assert_eq!(
            stats1.shards, stats4.shards,
            "per-shard counters are worker-invariant"
        );
        assert!(stats1.queries() > 0);
        assert_eq!(collector.rounds(), 3);

        // The finish hook exported each shard's resolver telemetry, and the
        // merged registry is worker-invariant like everything else.
        let merged1 = stats1.merged_metrics();
        let merged4 = stats4.merged_metrics();
        assert_eq!(merged1, merged4, "resolver metrics are worker-invariant");
        let a_queries: u64 = merged1
            .counters_named("resolver.queries")
            .filter(|(k, _)| k.label("qtype") == Some("A"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(a_queries, targets.len() as u64, "one A lookup per site");
    }

    #[test]
    fn spilled_collection_matches_in_memory_byte_for_byte() {
        use remnant_engine::EngineConfig;

        let world = tiny_world();
        let targets = targets(&world);
        let engine = |workers| {
            ScanEngine::new(EngineConfig {
                workers,
                shard_size: 32,
                seed: 1,
            })
        };
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let (in_mem, mem_stats) = collector.collect_with(&engine(4), &world, &targets, 0);

        let spill = temp_spill("full");
        let mut collector =
            DeltaCollector::for_mode(world.clock(), Region::Ashburn, 1, CollectionMode::Full);
        let (spilled, spill_stats, round) = collector
            .collect_spilled(&engine(4), &world, &targets, 0, &spill)
            .expect("spill round succeeds");
        assert!(spill.dir.join("full-r00000.rsnb").exists());
        assert_eq!(round.reresolved, targets.len() as u64);
        assert_eq!(in_mem, spilled);
        assert_eq!(in_mem.encode(), spilled.encode(), "text byte-identical");
        assert_eq!(
            in_mem.encode_binary(),
            spilled.encode_binary(),
            "binary byte-identical"
        );
        assert_eq!(mem_stats.shards, spill_stats.shards);
        assert_eq!(mem_stats.workers, spill_stats.workers);
        assert_eq!(mem_stats.merged_metrics(), spill_stats.merged_metrics());
        std::fs::remove_dir_all(&spill.dir).ok();
    }

    #[test]
    fn spilled_delta_rounds_match_in_memory_delta_rounds() {
        use remnant_engine::EngineConfig;

        let make_engine = || {
            ScanEngine::new(EngineConfig {
                workers: 2,
                shard_size: 16,
                seed: 5,
            })
        };
        let mut mem_world = tiny_world();
        let mut spill_world = tiny_world();
        let targets = targets(&mem_world);
        let mut mem = DeltaCollector::new(mem_world.clock(), Region::Ashburn, 5);
        let mut spilled = DeltaCollector::new(spill_world.clock(), Region::Ashburn, 5);
        let spill = temp_spill("delta");

        for day in 0..4u32 {
            let (mem_snap, mem_stats, mem_round) =
                mem.collect_with(&make_engine(), &mem_world, &targets, day);
            let (sp_snap, sp_stats, sp_round) = spilled
                .collect_spilled(&make_engine(), &spill_world, &targets, day, &spill)
                .expect("spill round succeeds");
            assert_eq!(mem_snap, sp_snap, "day {day} snapshots agree");
            assert_eq!(mem_snap.encode(), sp_snap.encode());
            assert_eq!(mem_stats.shards, sp_stats.shards);
            assert_eq!(mem_round, sp_round, "day {day} reuse accounting agrees");
            mem_world.step_hours(24);
            spill_world.step_hours(24);
        }
        // Later rounds replay clean shards as refs into older round files;
        // the reuse counter proves cross-file structural sharing happened.
        assert!(spilled.cache.as_ref().is_some());
        std::fs::remove_dir_all(&spill.dir).ok();
    }

    #[test]
    fn delta_rounds_match_full_rounds_under_churn() {
        use remnant_engine::EngineConfig;

        let make_engine = || {
            ScanEngine::new(EngineConfig {
                workers: 2,
                shard_size: 16,
                seed: 5,
            })
        };
        let mut full_world = tiny_world();
        let mut delta_world = tiny_world();
        let targets = targets(&full_world);
        let mut full = RecordCollector::new(full_world.clock(), Region::Ashburn);
        let mut delta = DeltaCollector::new(delta_world.clock(), Region::Ashburn, 5);

        let mut total = DeltaRound::default();
        for day in 0..6u32 {
            let (full_snap, full_stats) =
                full.collect_with(&make_engine(), &full_world, &targets, day);
            let (delta_snap, delta_stats, round) =
                delta.collect_with(&make_engine(), &delta_world, &targets, day);
            assert_eq!(full_snap, delta_snap, "day {day} snapshots agree");
            assert_eq!(full_snap.encode(), delta_snap.encode());
            assert_eq!(
                full_stats.shards, delta_stats.shards,
                "day {day} per-shard counters agree"
            );
            assert_eq!(full_stats.workers, delta_stats.workers);
            assert_eq!(
                full_stats.merged_metrics(),
                delta_stats.merged_metrics(),
                "day {day} resolver telemetry agrees"
            );
            total.reused += round.reused;
            total.reresolved += round.reresolved;
            total.refresh_stratum += round.refresh_stratum;
            assert_eq!(round.reused + round.reresolved, targets.len() as u64);
            // Identical virtual time and dynamics on both worlds.
            full_world.step_hours(24);
            delta_world.step_hours(24);
        }
        // Round 0 is cold (all re-resolved); later rounds reuse most shards.
        assert!(total.reused > 0, "later rounds replayed unchanged shards");
        assert!(
            total.reresolved < 6 * targets.len() as u64,
            "delta mode did strictly less resolution work"
        );
        assert!(total.refresh_stratum > 0, "refresh stratum fired");
        assert_eq!(delta.rounds(), 6);
    }

    #[test]
    fn cold_cache_and_target_list_changes_fall_back_to_full_rounds() {
        use remnant_engine::EngineConfig;

        let world = tiny_world();
        let targets = targets(&world);
        let engine = ScanEngine::new(EngineConfig {
            workers: 1,
            shard_size: 16,
            seed: 5,
        });
        let mut delta = DeltaCollector::new(world.clock(), Region::Ashburn, 5);
        let (_, _, round) = delta.collect_with(&engine, &world, &targets, 0);
        assert_eq!(round.reused, 0, "cold cache resolves everything");
        assert_eq!(round.reresolved, targets.len() as u64);

        // Shrinking the target list invalidates the cache wholesale.
        let fewer = &targets[..100];
        let (snap, _, round) = delta.collect_with(&engine, &world, fewer, 1);
        assert_eq!(round.reused, 0, "changed target list resolves everything");
        assert_eq!(round.reresolved, 100);
        assert_eq!(snap.len(), 100);

        // So does a different list of the same length: unmutated zones
        // all probe as generation 0, so only the list's identity tells
        // the rounds apart.
        let others = &targets[100..];
        let (snap, _, round) = delta.collect_with(&engine, &world, others, 2);
        assert_eq!(
            round.reused, 0,
            "same-length target list resolves everything"
        );
        assert_eq!(round.reresolved, 100);
        let mut full = RecordCollector::new(world.clock(), Region::Ashburn);
        let (expected, _) = full.collect_with(&engine, &world, others, 2);
        assert_eq!(snap, expected, "no other site's records are replayed");
    }

    #[test]
    fn rounds_are_independent_after_purge() {
        let mut world = tiny_world();
        let targets = targets(&world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let s1 = collector.collect(&mut world, &targets, 0);
        let (q_after_first, _) = world.traffic_stats();
        let s2 = collector.collect(&mut world, &targets, 1);
        let (q_after_second, _) = world.traffic_stats();
        assert_eq!(
            s1.to_site_records(),
            s2.to_site_records(),
            "static world yields identical rounds"
        );
        // The purge forces real re-resolution (roughly as many queries).
        assert!(q_after_second - q_after_first > targets.len() as u64);
    }
}
