//! What the untraced workloads and the traced campaign share: campaign
//! configuration, the rendered study sections the output checks compare,
//! the campaign digest, the run's scratch directory, and the summary
//! statistics every timing goes through.

use std::fs;
use std::path::{Path, PathBuf};

use remnant::core::study::{
    AdoptionReport, BehaviorReport, CollectionMode, PauseReport, ResidualReport, StudyConfig,
    StudyReport, UnchangedReport,
};
use remnant::core::SpillConfig;
use remnant::world::{World, WorldConfig};
use remnant_bench::{
    render_fig2_adoption, render_fig3_behaviors, render_fig4_behaviors, render_fig5_pauses,
    render_fig6_adoption, render_fig8_residual, render_fig9_exposure, render_table5_unchanged,
    render_table6_residual, ReproConfig,
};

/// Where every run keeps its scratch state, relative to the checkout root.
pub const STATE_DIR: &str = ".perfbench";

/// Workers of every campaign and query: one per core of the 2-core
/// machine the benchmark was sized on.
pub const WORKERS: usize = 2;

/// The scale and seed one run works at.
#[derive(Clone, Debug)]
pub struct Scale {
    pub population: usize,
    pub weeks: u32,
    pub seed: u64,
}

impl Scale {
    /// Daily rounds in one campaign.
    pub fn rounds(&self) -> u32 {
        self.weeks * 7
    }

    /// Site-rounds one campaign (or one stored campaign) covers.
    pub fn site_rounds(&self) -> f64 {
        self.population as f64 * f64::from(self.rounds())
    }

    pub fn generate_world(&self) -> World {
        World::generate(WorldConfig::new(self.population, self.seed))
    }

    /// The rendering config: counts are rescaled by the population.
    pub fn repro(&self) -> ReproConfig {
        ReproConfig {
            population: self.population,
            weeks: self.weeks,
            seed: self.seed,
            workers: WORKERS,
            ..ReproConfig::default()
        }
    }

    /// The study config `repro` would build for this scale, in `mode`,
    /// spilling to `spill` when set.
    pub fn study(&self, mode: CollectionMode, spill: Option<&Path>) -> StudyConfig {
        StudyConfig {
            weeks: self.weeks,
            seed: self.seed,
            uneven_intervals: true,
            workers: WORKERS,
            collection_mode: mode,
            spill: spill.map(SpillConfig::new),
            ..StudyConfig::default()
        }
    }
}

/// The campaign shape a workload runs: full collection kept in memory, or
/// delta collection spilled to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignMode {
    FullInMemory,
    DeltaSpill,
}

impl CampaignMode {
    pub fn collection(self) -> CollectionMode {
        match self {
            CampaignMode::FullInMemory => CollectionMode::Full,
            CampaignMode::DeltaSpill => CollectionMode::Delta,
        }
    }

    pub fn spills(self) -> bool {
        self == CampaignMode::DeltaSpill
    }
}

/// The sub-reports Figs 2–6, Table V and Table VI render from — what both
/// a [`StudyReport`] and the traced campaign can produce.
pub struct Sections<'a> {
    pub adoption: &'a AdoptionReport,
    pub behaviors: &'a BehaviorReport,
    pub pauses: &'a PauseReport,
    pub unchanged: &'a UnchangedReport,
    pub residual: &'a ResidualReport,
}

impl<'a> Sections<'a> {
    pub fn of(report: &'a StudyReport) -> Self {
        Sections {
            adoption: report.adoption(),
            behaviors: report.behaviors(),
            pauses: report.pauses(),
            unchanged: report.unchanged(),
            residual: report.residual(),
        }
    }

    /// Figs 2–6 exactly as `repro query` prints them from a store.
    pub fn figs_2_to_6(&self, config: &ReproConfig) -> String {
        figs_2_to_6(config, self.adoption, self.behaviors, self.pauses)
    }

    /// Figs 2–6, Table V and Table VI: what the traced campaign must
    /// reproduce byte for byte.
    pub fn traced_check(&self, config: &ReproConfig) -> String {
        let mut out = self.figs_2_to_6(config);
        out.push_str(&render_table5_unchanged(config, self.unchanged));
        out.push('\n');
        out.push_str(&render_table6_residual(config, self.residual));
        out.push('\n');
        out
    }
}

/// Figs 2–6 from the snapshot-derived sub-reports.
pub fn figs_2_to_6(
    config: &ReproConfig,
    adoption: &AdoptionReport,
    behaviors: &BehaviorReport,
    pauses: &PauseReport,
) -> String {
    [
        render_fig2_adoption(config, adoption),
        render_fig3_behaviors(config, behaviors),
        render_fig4_behaviors(behaviors),
        render_fig5_pauses(pauses),
        render_fig6_adoption(adoption),
    ]
    .join("\n")
}

/// The digest of a finished campaign: the study sections of `repro all`
/// (Figs 2–6, 8, 9, Tables V and VI) plus the `ObsReport` JSON. It must be
/// identical for every campaign mode and every run at one scale and seed.
pub fn campaign_digest(config: &ReproConfig, report: &StudyReport) -> u64 {
    let residual = report.residual();
    let text = [
        Sections::of(report).traced_check(config),
        render_fig8_residual(residual),
        render_fig9_exposure(config, &residual.cloudflare.exposure),
        report.obs().to_json(),
    ]
    .concat();
    fnv1a(text.as_bytes())
}

/// 64-bit FNV-1a: a stable digest with no dependency.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest every campaign of one run must share, and that the smoke
/// test compares across workloads at one scale and seed (full ≡ delta,
/// in-memory ≡ spill). The first campaign's digest is the reference.
#[derive(Default)]
pub struct DigestCheck {
    first: Option<u64>,
}

impl DigestCheck {
    pub fn check(&mut self, digest: u64) -> Result<(), String> {
        match self.first {
            None => {
                self.first = Some(digest);
                Ok(())
            }
            Some(first) if first == digest => Ok(()),
            Some(first) => Err(format!(
                "campaign digest {digest:016x} differs from this run's first, {first:016x}"
            )),
        }
    }

    /// The line the smoke test reads the digest from.
    pub fn note(&self) -> Option<String> {
        self.first.map(digest_note)
    }
}

pub fn digest_note(digest: u64) -> String {
    format!("campaign digest: {digest:016x}")
}

/// The run's own scratch directory, removed when the run ends. Spill
/// directories are append-only, so each campaign gets a fresh one inside.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> std::io::Result<Self> {
        let path = Path::new(STATE_DIR).join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// A path inside the run directory that does not exist yet.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.path.join(name);
        let _ = fs::remove_dir_all(&path);
        path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Total size of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes this process has read through `read(2)`-family calls, page-cache
/// hits included (`rchar` in `/proc/self/io`).
pub fn bytes_read() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("rchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    remnant_bench::perf::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n => (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
    }
}

/// One operation in this many is a campaign's week-boundary round, the
/// only rounds that run the weekly scans and Fig 8 filters.
const TAIL_ONE_IN: usize = 7;

/// The tail of a sample: the median of its slowest seventh. On a campaign
/// that is the week-boundary rounds, so the tail moves with the weekly
/// scans and filters; an order statistic with ten samples beyond it would
/// sit among ordinary rounds at the 28–42 rounds a run measures. Returns
/// the value and how many samples the slowest seventh holds.
pub fn tail(samples: &[f64]) -> (f64, usize) {
    let sorted = sorted(samples);
    let slowest = sorted.len().div_ceil(TAIL_ONE_IN);
    (median(&sorted[sorted.len() - slowest..]), slowest)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
