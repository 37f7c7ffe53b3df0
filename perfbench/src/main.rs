//! The repository benchmark: 100k-site campaigns and queries over the
//! store a campaign leaves behind.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--population P] [--weeks W]
//! ```
//!
//! Workloads (each runs in a process of its own, so `peak_rss_mib` is that
//! workload's own):
//! - `campaign-full`: `StudySession` campaigns with full collection, kept
//!   in memory; one operation is one `StudySession::round`.
//! - `campaign-delta-spill`: the same campaigns with delta collection
//!   spilled to a fresh directory.
//! - `query-store`: one closed-loop client running cold queries, each what
//!   one `repro query` does over a stored spill-delta campaign: open the
//!   store, build the plan context, run `PassesPlan` and
//!   `ResidualScanPlan`, render Figs 2–6 and the scan timeline. Warm
//!   queries on a built context are timed in the traced run only.
//!
//! The amount of work is fixed by `--seconds`: enough operations to take
//! about that long on the 2-core machine the benchmark was sized on, so
//! the two sides of a comparison time the same operations.
//!
//! `--trace 1` runs the traced campaign instead (see `traced.rs`) and reports
//! per-layer metrics. The last line of standard output is the JSON result.

mod metrics;
mod study;
mod traced;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use remnant::core::StudySession;
use remnant::query::{PassesPlan, PlanContext, ResidualScanPlan, SnapshotStore};
use remnant::world::World;
use remnant_bench::render_residual_scan;

use metrics::{Metrics, Outcome};
use study::{
    campaign_digest, digest_note, figs_2_to_6, median, peak_rss_mib, tail, CampaignMode,
    DigestCheck, RunDir, Scale, Sections, WORKERS,
};

/// Reference cost of one site-round on the machine the benchmark was
/// sized on (2 cores, 2 workers), per campaign mode, and of one cold
/// query per stored site-round; used only to size a run's work.
const FULL_S_PER_SITE_ROUND: f64 = 7.5e-6;
const DELTA_SPILL_S_PER_SITE_ROUND: f64 = 4.8e-6;
const COLD_QUERY_S_PER_SITE_ROUND: f64 = 2.6e-7;

/// World generations timed for `setup_s` in a campaign run.
const SETUP_REPEATS: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CampaignFull,
    CampaignDeltaSpill,
    QueryStore,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "campaign-full" => Workload::CampaignFull,
            "campaign-delta-spill" => Workload::CampaignDeltaSpill,
            "query-store" => Workload::QueryStore,
            _ => return None,
        })
    }

    /// The campaign shape the workload runs (for `query-store`: the one
    /// that writes its store).
    fn mode(self) -> CampaignMode {
        match self {
            Workload::CampaignFull => CampaignMode::FullInMemory,
            _ => CampaignMode::DeltaSpill,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    store_writer: bool,
    scale: Scale,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
    figs: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        store_writer: false,
        scale: Scale {
            population: 100_000,
            weeks: 2,
            seed: 0,
        },
        seconds: 10.0,
        trace: false,
        dir: None,
        figs: None,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "write-store" {
            args.store_writer = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(parse(&flag, &value)?),
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid value for --trace: '{value}'")),
                }
            }
            "--population" => args.scale.population = parse(&flag, &value)?,
            "--weeks" => args.scale.weeks = parse(&flag, &value)?,
            "--dir" => args.dir = Some(value.into()),
            "--figs" => args.figs = Some(value.into()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    args.scale.seed = seed.ok_or("--seed is required")?;
    if args.workload.is_none() && !args.store_writer {
        return Err("--workload is required".into());
    }
    if args.scale.population == 0 || args.scale.weeks == 0 {
        return Err("--population and --weeks must be positive".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: '{value}'"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.store_writer {
        return match write_store(&args) {
            Ok(digest) => {
                println!("{digest:016x}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench write-store: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked in parse_args");
    let result = if args.trace {
        traced_run(&args.scale, workload.mode())
    } else {
        match workload {
            Workload::CampaignFull | Workload::CampaignDeltaSpill => {
                campaigns(&args.scale, workload.mode(), args.seconds)
            }
            Workload::QueryStore => cold_queries(&args.scale, args.seconds),
        }
    };
    match result {
        Ok(outcome) => {
            print!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operations of `cost` seconds each that fill `seconds` on the reference
/// machine.
fn units(seconds: f64, cost: f64) -> usize {
    ((seconds / cost).ceil() as usize).max(1)
}

/// Runs `op`, turning a panic into an error.
fn guarded<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Err(format!("panicked: {message}"))
    })
}

/// Generates the world `SETUP_REPEATS` times and returns the last one with
/// the median generation time.
fn setup_world(scale: &Scale) -> (World, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        let t = Instant::now();
        world = Some(scale.generate_world());
        times.push(t.elapsed().as_secs_f64());
    }
    (world.expect("at least one generation"), median(&times))
}

/// One untraced campaign through `StudySession`, on a fork of `base`.
/// Returns the report with each round's latency and the campaign's wall
/// time.
fn session_campaign(
    scale: &Scale,
    mode: CampaignMode,
    base: &World,
    spill: Option<&Path>,
    round_times: &mut Vec<f64>,
) -> (remnant::core::StudyReport, f64) {
    let mut world = base.fork();
    let started = Instant::now();
    let mut session = StudySession::new(scale.study(mode.collection(), spill), &world);
    loop {
        let t = Instant::now();
        if session.round(&mut world, &mut |_| {}).is_none() {
            break;
        }
        round_times.push(t.elapsed().as_secs_f64());
    }
    let report = session.finish();
    (report, started.elapsed().as_secs_f64())
}

fn push_latency(metrics: &mut Metrics, what: &str, samples: &[f64]) {
    let (tail_value, slowest) = tail(samples);
    metrics.note(format!(
        "op = {what}: {} samples, tail = median of the slowest {slowest}",
        samples.len()
    ));
    metrics.push("op_s.p50", median(samples), "s");
    metrics.push("op_s.tail", tail_value, "s");
}

fn campaigns(scale: &Scale, mode: CampaignMode, seconds: f64) -> Result<Outcome, String> {
    let run = RunDir::create().map_err(|e| format!("creating the run directory: {e}"))?;
    let (base, setup) = setup_world(scale);
    let cost = match mode {
        CampaignMode::FullInMemory => FULL_S_PER_SITE_ROUND,
        CampaignMode::DeltaSpill => DELTA_SPILL_S_PER_SITE_ROUND,
    } * scale.site_rounds();
    let count = units(seconds, cost);

    let mut outcome = Outcome::default();
    let mut round_times = Vec::new();
    let mut walls = Vec::new();
    let mut digests = DigestCheck::default();
    let repro = scale.repro();
    for k in 0..count {
        let spill = mode.spills().then(|| run.fresh(&format!("spill-{k}")));
        let result = guarded(|| {
            let (report, wall) =
                session_campaign(scale, mode, &base, spill.as_deref(), &mut round_times);
            walls.push(wall);
            digests.check(campaign_digest(&repro, &report))
        });
        outcome.tally(u64::from(scale.rounds()), result);
        if let Some(dir) = &spill {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    let metrics = &mut outcome.metrics;
    metrics.note(format!(
        "{count} campaign(s) of {} sites x {} rounds, {} workers, seed {}",
        scale.population,
        scale.rounds(),
        WORKERS,
        scale.seed
    ));
    if let Some(note) = digests.note() {
        metrics.note(note);
    }
    metrics.push("setup_s", setup, "s");
    metrics.push(
        "site_rounds_per_s",
        scale.site_rounds() * walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    push_latency(metrics, "StudySession::round", &round_times);
    metrics.push("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(outcome)
}

/// The `write-store` child of `query-store`: runs one spill-delta
/// campaign into `--dir`, writes the live report's Figs 2–6 to `--figs`,
/// and returns the campaign's digest.
fn write_store(args: &Args) -> Result<u64, String> {
    let (dir, figs) = match (&args.dir, &args.figs) {
        (Some(dir), Some(figs)) => (dir, figs),
        _ => return Err("write-store needs --dir and --figs".into()),
    };
    let scale = &args.scale;
    let world = scale.generate_world();
    let (report, _) = session_campaign(
        scale,
        CampaignMode::DeltaSpill,
        &world,
        Some(dir),
        &mut Vec::new(),
    );
    let repro = scale.repro();
    std::fs::write(figs, Sections::of(&report).figs_2_to_6(&repro))
        .map_err(|e| format!("writing {}: {e}", figs.display()))?;
    Ok(campaign_digest(&repro, &report))
}

/// A stored campaign written by a `write-store` child process, so the
/// campaign's memory never counts towards the query run's peak RSS.
struct Store {
    dir: PathBuf,
    live_figs: String,
    digest: u64,
    setup: f64,
}

fn stored_campaign(scale: &Scale, run: &RunDir) -> Result<Store, String> {
    let dir = run.fresh("store");
    let figs = run.fresh("live-figs.txt");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let output = Command::new(exe)
        .arg("write-store")
        .args(["--seed", &scale.seed.to_string()])
        .args(["--population", &scale.population.to_string()])
        .args(["--weeks", &scale.weeks.to_string()])
        .arg("--dir")
        .arg(&dir)
        .arg("--figs")
        .arg(&figs)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the store writer: {e}"))?;
    let setup = t.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "the store-writing campaign failed ({})",
            output.status
        ));
    }
    let digest = String::from_utf8_lossy(&output.stdout);
    let digest = u64::from_str_radix(digest.trim(), 16)
        .map_err(|_| format!("the store writer printed no digest: '{}'", digest.trim()))?;
    let live_figs = std::fs::read_to_string(&figs).map_err(|e| e.to_string())?;
    Ok(Store {
        dir,
        live_figs,
        digest,
        setup,
    })
}

/// One cold query, as `repro query` runs it: Figs 2–6 and the rendered
/// residual-scan timeline.
fn cold_query(scale: &Scale, dir: &Path) -> Result<(String, String), String> {
    let store = SnapshotStore::open(dir).map_err(|e| format!("opening the store: {e}"))?;
    let ctx = PlanContext::new(&store, WORKERS);
    let aggregates = PassesPlan.execute_with(&ctx);
    let residual = ResidualScanPlan::default().execute_with(&ctx);
    let repro = scale.repro();
    Ok((
        figs_2_to_6(
            &repro,
            &aggregates.adoption,
            &aggregates.behaviors,
            &aggregates.pauses,
        ),
        render_residual_scan(&repro, &residual),
    ))
}

fn cold_queries(scale: &Scale, seconds: f64) -> Result<Outcome, String> {
    let run = RunDir::create().map_err(|e| format!("creating the run directory: {e}"))?;
    let store = stored_campaign(scale, &run)?;
    let count = units(seconds, COLD_QUERY_S_PER_SITE_ROUND * scale.site_rounds());

    let mut outcome = Outcome::default();
    let mut times = Vec::with_capacity(count);
    let mut first_scan: Option<String> = None;
    for _ in 0..count {
        let t = Instant::now();
        let answer = guarded(|| cold_query(scale, &store.dir));
        times.push(t.elapsed().as_secs_f64());
        let result = answer.and_then(|(figs, scan)| {
            if figs != store.live_figs {
                return Err("a cold query's Figs 2-6 differ from the live report's".into());
            }
            match &first_scan {
                Some(first) if *first != scan => {
                    Err("the residual-scan timeline changed between queries".into())
                }
                Some(_) => Ok(()),
                None => {
                    first_scan = Some(scan);
                    Ok(())
                }
            }
        });
        outcome.tally(1, result);
    }

    let metrics = &mut outcome.metrics;
    metrics.note(digest_note(store.digest));
    metrics.push("setup_s", store.setup, "s");
    metrics.push(
        "site_rounds_per_s",
        scale.site_rounds() * times.len() as f64 / times.iter().sum::<f64>(),
        "1/s",
    );
    push_latency(metrics, "cold store query", &times);
    metrics.push("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(outcome)
}

/// The traced run: an untraced session campaign as the reference, the
/// traced campaign on a fork of the same world (its output must equal the
/// reference's), then a traced query over what the traced campaign left.
fn traced_run(scale: &Scale, mode: CampaignMode) -> Result<Outcome, String> {
    let run = RunDir::create().map_err(|e| format!("creating the run directory: {e}"))?;
    let base = scale.generate_world();
    let repro = scale.repro();
    let mut outcome = Outcome::default();
    let mut metrics = Metrics::default();

    let spill = mode.spills().then(|| run.fresh("untraced"));
    let reference = guarded(|| {
        let (report, wall) =
            session_campaign(scale, mode, &base, spill.as_deref(), &mut Vec::new());
        let sections = Sections::of(&report);
        Ok((
            sections.traced_check(&repro),
            sections.figs_2_to_6(&repro),
            campaign_digest(&repro, &report),
            wall,
        ))
    });
    if let Some(dir) = &spill {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (expected, live_figs, digest, untraced_wall) = match reference {
        Ok(reference) => reference,
        Err(e) => return Err(format!("untraced reference campaign: {e}")),
    };
    metrics.note(digest_note(digest));
    outcome.tally(u64::from(scale.rounds()), Ok(()));

    let spill = mode.spills().then(|| run.fresh("traced"));
    let traced = guarded(|| {
        let mut world = base.fork();
        traced::campaign(scale, mode, &mut world, spill.as_deref(), &mut metrics)
    });
    let traced = match traced {
        Ok(traced) if traced.rendered == expected => Ok(traced),
        Ok(_) => {
            Err("the traced campaign's Figs 2-6 / Tables V-VI differ from StudySession's".into())
        }
        Err(e) => Err(e),
    };
    match traced {
        Ok(traced) => {
            outcome.tally(u64::from(scale.rounds()), Ok(()));
            metrics.push(
                "trace.overhead_share",
                traced.wall.as_secs_f64() / untraced_wall - 1.0,
                "share",
            );
            let source = match &spill {
                Some(dir) => traced::QuerySource::Spilled(dir),
                None => traced::QuerySource::Resident(traced.snapshots),
            };
            let queried = guarded(|| traced::query(scale, source, &live_figs, &mut metrics));
            outcome.tally(1, queried);
        }
        Err(e) => outcome.tally(u64::from(scale.rounds()), Err(e)),
    }
    outcome.metrics = metrics;
    Ok(outcome)
}
