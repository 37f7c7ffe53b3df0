//! The delta-collection equivalence contract, end to end: a multi-week
//! study run with `--collection delta` must produce output byte-identical
//! to `--collection full` — every daily `DnsSnapshot`, the rendered
//! report, and the observability JSON — at any worker count.
//!
//! This is the differential test backing `DeltaCollector`'s guarantee:
//! shard outputs are a pure function of the member sites' zone state at a
//! fixed virtual time, so replaying a clean shard's cached records is
//! indistinguishable from re-resolving it.

use remnant::core::study::{CollectionMode, PaperStudy, StudyConfig, StudyReport};
use remnant::world::{World, WorldConfig};
use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_fig8_residual, render_fig9_exposure, render_table5_unchanged,
    render_table6_residual, ReproConfig,
};

const POPULATION: usize = 2_500;
const WEEKS: u32 = 4;
const SEED: u64 = 17;

/// One full study in `mode`: the concatenated encodings of all 28 daily
/// snapshots, plus the report.
fn run(mode: CollectionMode, workers: usize) -> (String, StudyReport) {
    let mut world = World::generate(WorldConfig::new(POPULATION, SEED));
    let config = StudyConfig::builder()
        .weeks(WEEKS)
        .seed(SEED)
        .workers(workers)
        .collection_mode(mode)
        .build()
        .expect("valid study config");
    let mut snapshots = String::new();
    let report = PaperStudy::new(config).run_with(&mut world, |snapshot| {
        snapshots.push_str(&snapshot.encode())
    });
    (snapshots, report)
}

/// Everything `repro` prints from the study report, in `repro all` order.
fn rendered_output(report: &StudyReport) -> String {
    let config = ReproConfig {
        population: POPULATION,
        weeks: WEEKS,
        seed: SEED,
        ..ReproConfig::default()
    };
    [
        render_fig2_adoption(&config, report.adoption()),
        render_fig3_behaviors(&config, report.behaviors()),
        render_fig4_behaviors(report.behaviors()),
        render_fig5_pauses(report.pauses()),
        render_fig6_adoption(report.adoption()),
        render_fig8_residual(report.residual()),
        render_fig9_exposure(&config, &report.residual().cloudflare.exposure),
        render_table5_unchanged(&config, report.unchanged()),
        render_table6_residual(&config, report.residual()),
    ]
    .join("\n")
}

fn assert_equivalent(workers: usize) {
    let (full_snaps, full) = run(CollectionMode::Full, workers);
    let (delta_snaps, delta) = run(CollectionMode::Delta, workers);

    // Every daily snapshot, byte for byte.
    assert_eq!(
        full_snaps, delta_snaps,
        "daily snapshot sequences must be byte-identical"
    );
    // The rendered evaluation, byte for byte.
    assert_eq!(
        rendered_output(&full),
        rendered_output(&delta),
        "rendered study output must be byte-identical"
    );
    // The observability snapshot, byte for byte: counters, histograms, and
    // the event journal all ride on virtual time and shard-ordered merges,
    // and the delta reuse counters deliberately live outside it.
    assert_eq!(
        full.obs().to_json(),
        delta.obs().to_json(),
        "ObsReport JSON must be byte-identical across collection modes"
    );
    // The deterministic engine counters agree too (wall times may not).
    assert_eq!(full.engine().sweeps, delta.engine().sweeps);
    assert_eq!(full.engine().shards, delta.engine().shards);
    assert_eq!(full.engine().queries, delta.engine().queries);
    assert_eq!(full.engine().attempts, delta.engine().attempts);
    assert_eq!(full.engine().cache_hits, delta.engine().cache_hits);
    assert_eq!(full.engine().cache_misses, delta.engine().cache_misses);

    // And the run was genuinely incremental, not a fallback to full.
    let days = u64::from(WEEKS) * 7;
    assert_eq!(delta.collection().rounds, days);
    assert_eq!(
        delta.collection().reused + delta.collection().reresolved,
        days * POPULATION as u64
    );
    assert!(
        delta.collection().reuse_rate() > 0.5,
        "expected most site-rounds reused, got {:.1}%",
        delta.collection().reuse_rate() * 100.0
    );
}

#[test]
fn equivalence_workers_1() {
    assert_equivalent(1);
}

#[test]
fn equivalence_workers_8() {
    assert_equivalent(8);
}
