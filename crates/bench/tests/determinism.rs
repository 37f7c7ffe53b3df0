//! The engine's determinism contract, end to end: a full study run with
//! `--workers 8` must produce output byte-identical to `--workers 1`.

use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_fig7, render_fig8_from_obs, render_fig8_residual,
    render_fig9_exposure, render_table5_unchanged, render_table6_residual, run_study, ReproConfig,
};

fn config(workers: usize) -> ReproConfig {
    ReproConfig {
        population: 3_000,
        weeks: 2,
        seed: 11,
        even_intervals: false,
        workers,
        ..ReproConfig::default()
    }
}

/// Everything `repro` prints from the study report, in `repro all` order.
fn rendered_output(
    config: &ReproConfig,
    world: &remnant::world::World,
    report: &remnant::core::study::StudyReport,
) -> String {
    [
        render_fig2_adoption(config, report.adoption()),
        render_fig3_behaviors(config, report.behaviors()),
        render_fig4_behaviors(report.behaviors()),
        render_fig5_pauses(report.pauses()),
        render_fig6_adoption(report.adoption()),
        render_fig7(world),
        render_fig8_residual(report.residual()),
        render_fig9_exposure(config, &report.residual().cloudflare.exposure),
        render_table5_unchanged(config, report.unchanged()),
        render_table6_residual(config, report.residual()),
    ]
    .join("\n")
}

#[test]
fn study_is_worker_count_invariant() {
    let sequential_config = config(1);
    let parallel_config = config(8);
    let (world1, report1) = run_study(&sequential_config);
    let (world8, report8) = run_study(&parallel_config);

    // The structured reports match field for field...
    assert_eq!(report1.adoption(), report8.adoption());
    assert_eq!(
        report1.residual().cloudflare.weekly,
        report8.residual().cloudflare.weekly
    );
    assert_eq!(
        report1.residual().incapsula.weekly,
        report8.residual().incapsula.weekly
    );
    assert_eq!(report1.residual().fleet_size, report8.residual().fleet_size);
    assert_eq!(
        report1.residual().harvested_tokens,
        report8.residual().harvested_tokens
    );
    assert_eq!(report1.unchanged().rows, report8.unchanged().rows);
    assert_eq!(
        report1.behaviors().interval_hours,
        report8.behaviors().interval_hours
    );
    assert_eq!(
        report1.behaviors().fsm_violations,
        report8.behaviors().fsm_violations
    );

    // ...the deterministic engine counters match (only wall times may
    // differ)...
    assert_eq!(report1.engine().sweeps, report8.engine().sweeps);
    assert_eq!(report1.engine().shards, report8.engine().shards);
    assert_eq!(report1.engine().queries, report8.engine().queries);
    assert_eq!(report1.engine().attempts, report8.engine().attempts);
    assert_eq!(report1.engine().retries, report8.engine().retries);
    assert_eq!(report1.engine().exhausted, report8.engine().exhausted);
    assert_eq!(report1.engine().workers, 1);
    assert_eq!(report8.engine().workers, 8);

    // ...the worlds saw identical query volume...
    assert_eq!(world1.traffic_stats(), world8.traffic_stats());

    // ...and the rendered stdout is byte-identical.
    assert_eq!(
        rendered_output(&sequential_config, &world1, &report1),
        rendered_output(&parallel_config, &world8, &report8),
    );

    // The observability snapshot holds to the same contract: every counter,
    // histogram, and journal event rides on virtual time and shard-ordered
    // merges, so the exported JSON is byte-identical too (`repro
    // --metrics out.json` is reproducible at any worker count).
    assert_eq!(
        report1.obs().to_json(),
        report8.obs().to_json(),
        "ObsReport must not vary with worker count"
    );
    // And the Fig 8 funnel rebuilt from those metrics alone matches the
    // funnel rendered from the structured report.
    let body = |s: &str| s.split_once('\n').map(|(_, t)| t.to_owned()).unwrap();
    assert_eq!(
        body(&render_fig8_from_obs(report1.obs())),
        body(&render_fig8_residual(report1.residual()))
    );
}
