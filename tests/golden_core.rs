//! Golden-bits differential harness for the data-oriented core rewrite
//! (DESIGN.md §14).
//!
//! Where `tests/telemetry_golden.rs` pins a handful of scalar
//! observables, this suite pins the **entire `SimReport`** — stats,
//! stall causes, metrics windows, journey attribution, and fault
//! accounting — as pretty-printed JSON, byte for byte, for all four
//! hardware design points at two loads plus two fault-injected points.
//! The snapshots under `tests/golden_core/` were captured from the
//! pre-rewrite (per-router heap structures) core; the struct-of-arrays
//! core must reproduce them exactly. Any drift means the rewrite
//! changed simulated behaviour, not just its memory layout.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! MIRA_BLESS=1 cargo test --test golden_core
//! ```

use std::path::PathBuf;

use mira::arch::Arch;
use mira::experiments::common::{run_arch, RunResult, EXPERIMENT_SEED};
use mira::experiments::quick_sim_config;
use mira::noc::anomaly::AnomalyConfig;
use mira::noc::fault::FaultConfig;
use mira_noc::flit::FlitData;
use mira_noc::packet::PacketSpec;
use mira_noc::telemetry::TelemetryConfig;
use mira_noc::traffic::{PayloadProfile, UniformRandom, Workload};
use mira_noc::SimConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One pinned design point.
struct Point {
    name: &'static str,
    arch: Arch,
    rate: f64,
    /// Short-flit payload fraction; > 0 also turns on layer shutdown,
    /// matching how the power experiments drive the 3D architectures.
    short: f64,
    faults: Option<FaultConfig>,
}

/// Everything one golden file pins. The report is the full `SimReport`;
/// the power numbers come from the activity-counter pricing on top, and
/// are pinned as IEEE-754 bit patterns so the JSON comparison is exact
/// even if a formatter ever changes float printing.
#[derive(Serialize)]
struct GoldenPoint {
    name: String,
    arch: String,
    rate: f64,
    short_fraction: f64,
    layer_shutdown: bool,
    faulted: bool,
    avg_power_bits: u64,
    pdp_bits: u64,
    report: mira_noc::SimReport,
}

/// The telemetry switches used for every golden run: windowed metrics
/// and journey sampling on (so `windows`, `stalls`, and `journeys` are
/// populated in the report), event tracing off (trace events never land
/// in `SimReport`).
fn golden_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        metrics_window: 500,
        trace_capacity: 0,
        journey_sample_ppm: 250_000,
        journey_seed: 0,
    }
}

fn points() -> Vec<Point> {
    let mut pts = Vec::new();
    for arch in Arch::HARDWARE {
        pts.push(Point {
            name: match arch {
                Arch::TwoDB => "2DB_ur010",
                Arch::ThreeDB => "3DB_ur010",
                Arch::ThreeDM => "3DM_ur010",
                _ => "3DME_ur010",
            },
            arch,
            rate: 0.10,
            short: 0.0,
            faults: None,
        });
        pts.push(Point {
            name: match arch {
                Arch::TwoDB => "2DB_ur030_short",
                Arch::ThreeDB => "3DB_ur030_short",
                Arch::ThreeDM => "3DM_ur030_short",
                _ => "3DME_ur030_short",
            },
            arch,
            rate: 0.30,
            short: 0.5,
            faults: None,
        });
    }
    // Two fault-injected points: transient corruption with a retry
    // budget plus an explicit link kill with rerouting, exercising the
    // ARQ window, the purge/reroute paths, and the fault counters.
    let faults = FaultConfig::disabled()
        .with_transient(2_000)
        .with_kill(14, 1, 400)
        .with_max_retries(4)
        .with_reroute(true)
        .with_seed(EXPERIMENT_SEED);
    pts.push(Point {
        name: "2DB_ur010_faults",
        arch: Arch::TwoDB,
        rate: 0.10,
        short: 0.0,
        faults: Some(faults),
    });
    pts.push(Point {
        name: "3DME_ur010_faults",
        arch: Arch::ThreeDME,
        rate: 0.10,
        short: 0.0,
        faults: Some(faults),
    });
    pts
}

// `shards: 0` defers to the `MIRA_SHARDS` environment default, so CI
// can re-run the whole suite with a process-wide shard count and the
// snapshots must still match.
fn run_point(p: &Point, anomaly: AnomalyConfig) -> RunResult {
    run_point_sharded(p, anomaly, 0)
}

fn run_point_sharded(p: &Point, anomaly: AnomalyConfig, shards: usize) -> RunResult {
    let mut cfg: SimConfig = quick_sim_config()
        .with_telemetry(golden_telemetry())
        .with_anomaly(anomaly)
        .with_shards(shards);
    if let Some(f) = p.faults {
        cfg = cfg.with_faults(f);
    }
    let mut w = UniformRandom::new(p.rate, 5, EXPERIMENT_SEED);
    if p.short > 0.0 {
        w = w.with_payload(PayloadProfile::with_short_fraction(4, p.short));
    }
    run_arch(p.arch, p.short > 0.0, Box::new(w), cfg)
}

fn golden_json(p: &Point, r: &RunResult) -> String {
    let golden = GoldenPoint {
        name: p.name.to_string(),
        arch: p.arch.name().to_string(),
        rate: p.rate,
        short_fraction: p.short,
        layer_shutdown: p.short > 0.0,
        faulted: p.faults.is_some(),
        avg_power_bits: r.avg_power_w.to_bits(),
        pdp_bits: r.pdp.to_bits(),
        report: r.report.clone(),
    };
    let mut s = serde_json::to_string_pretty(&golden).expect("report serializes");
    s.push('\n');
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_core")
        .join(format!("{name}.json"))
}

fn check_points(pts: &[Point]) {
    check_points_with(pts, AnomalyConfig::disabled());
}

fn check_points_with(pts: &[Point], anomaly: AnomalyConfig) {
    let bless = std::env::var_os("MIRA_BLESS").is_some();
    for p in pts {
        let r = run_point(p, anomaly);
        let actual = golden_json(p, &r);
        let path = golden_path(p.name);
        if bless {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
            std::fs::write(&path, &actual).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden snapshot {} ({e}); run `MIRA_BLESS=1 cargo test --test golden_core` to record",
                p.name,
                path.display()
            )
        });
        if actual != expected {
            // Find the first diverging line for a readable failure.
            let (mut line, mut got, mut want) = (0usize, "", "");
            for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
                if a != e {
                    (line, got, want) = (i + 1, a, e);
                    break;
                }
            }
            panic!(
                "{}: SimReport drifted from the pre-rewrite golden bits\n  first diff at {}:{line}\n    golden: {want}\n    actual: {got}\n  (MIRA_BLESS=1 re-records, but only after an intentional behaviour change)",
                p.name,
                path.display()
            );
        }
    }
}

/// The four hardware design points at two loads reproduce the
/// pre-rewrite `SimReport` byte for byte: stats, stall causes, windowed
/// metrics, journey attribution, and (all-zero) fault counters.
#[test]
fn hardware_points_match_golden_bits() {
    let pts = points();
    check_points(&pts[..8]);
}

/// The fault-injected points reproduce the pre-rewrite fault accounting
/// byte for byte: transient verdicts, retransmissions, drops, reroutes.
#[test]
fn fault_points_match_golden_bits() {
    let pts = points();
    check_points(&pts[8..]);
}

/// With host observability collecting (DESIGN.md §15), the golden bits
/// are *still* unchanged: phase timers and watermark gauges observe the
/// simulator, never the simulation, so `SimReport` and the power bits
/// must stay byte-identical to the obs-off snapshots.
#[test]
fn obs_enabled_matches_golden_bits() {
    mira_obs::set_enabled(true);
    let pts = points();
    // One fault-free and one fault-injected point cover both report
    // shapes; the full matrix is pinned by the obs-off tests above.
    check_points(&pts[..2]);
    check_points(&pts[8..9]);
    mira_obs::set_enabled(false);
}

/// With the full flight-recorder detector suite armed (DESIGN.md §17),
/// the golden bits are *still* unchanged: on a healthy run no detector
/// fires, the recorder only reads fabric state, and `SimReport` omits
/// the anomaly section entirely at zero firings — so the snapshots
/// match byte for byte, fault-injected points included.
#[test]
fn anomaly_armed_matches_golden_bits() {
    let pts = points();
    // One fault-free and one fault-injected point cover both report
    // shapes (the fault point also exercises the fault-storm budget
    // against real transient traffic).
    check_points_with(&pts[..2], AnomalyConfig::detect());
    check_points_with(&pts[8..9], AnomalyConfig::detect());
}

/// Sharded stepping (DESIGN.md §18) is bit-identical to one shard:
/// running the same design points split across N worker shards must
/// reproduce the committed golden snapshots — which pin the one-shard
/// output — byte for byte, including the IEEE-754 power
/// bits. Two shards cover the full matrix, fault points included (a
/// faulted network steps every phase inline on the calling thread, but
/// still builds its multi-shard runtime); four and eight shards cover
/// one load per architecture (the 6x6 2D meshes cap out at fewer
/// routers per shard, exercising unbalanced partitions).
#[test]
fn sharded_points_match_golden_bits() {
    let pts = points();
    for p in &pts {
        let r = run_point_sharded(p, AnomalyConfig::disabled(), 2);
        assert_matches_golden(p, &r);
    }
    for &shards in &[4usize, 8] {
        for p in pts.iter().take(8).step_by(2) {
            let r = run_point_sharded(p, AnomalyConfig::disabled(), shards);
            assert_matches_golden(p, &r);
        }
    }
}

/// Uniform-random traffic whose flits are re-drawn 1 to 8 words wide,
/// each with 1 to all of its words active. Before cycle `mixed_from`
/// every width is 1, 2, 4 or 8, so each active-layer fraction is a
/// multiple of 1/8 and the N-shard engine counts the activity sums as
/// integer tallies; from then on any width 1–8 may come, and the first
/// 3-, 5-, 6- or 7-word flit switches the network to the ordered replay.
struct WidthMix {
    inner: UniformRandom,
    rng: SmallRng,
    mixed_from: u64,
}

impl Workload for WidthMix {
    fn init(&mut self, num_nodes: usize) {
        self.inner.init(num_nodes);
    }

    fn generate(&mut self, cycle: u64) -> Vec<PacketSpec> {
        let mut specs = self.inner.generate(cycle);
        for flit in specs.iter_mut().flat_map(|s| s.payload.iter_mut()) {
            let words = if cycle < self.mixed_from {
                [1, 2, 4, 8][self.rng.gen_range(0..4usize)]
            } else {
                self.rng.gen_range(1..=8usize)
            };
            *flit = FlitData::with_active_words(words, self.rng.gen_range(1..=words));
        }
        specs
    }
}

/// One run of the untraced shard matrix: a design point under a
/// telemetry configuration, rendered as the exact `SimReport` JSON plus
/// the IEEE-754 power bits.
fn untraced_json(
    arch: Arch,
    layer_shutdown: bool,
    workload: Box<dyn Workload>,
    cfg: SimConfig,
) -> String {
    let r = run_arch(arch, layer_shutdown, workload, cfg);
    let pinned = (r.avg_power_w.to_bits(), r.pdp.to_bits(), &r.report);
    serde_json::to_string_pretty(&pinned).expect("report serializes")
}

/// The configuration users actually shard — journeys and traces off,
/// as perfbench and the exhibit binaries run — is bit-identical at 1,
/// 2, 4 and 8 shards. The golden recipe turns journeys on, which keeps
/// every N-shard run on the ordered replay; this matrix covers the
/// integer-tally path instead: every golden point with telemetry off,
/// plus three points of its own — layer shutdown with 1/2/4/8-word
/// flits (fractional k/8 tallies throughout), the same with widths
/// mixing 1–8 words from cycle 800 (the exact-sum flag clears mid-run),
/// and the 1/2/4/8-word point with metrics windows on (each shard writes
/// its routers' occupancy rows in the fused dispatch).
#[test]
fn untraced_reports_identical_across_shard_counts() {
    let width_mix = |mixed_from: u64| -> Box<dyn Workload> {
        Box::new(WidthMix {
            inner: UniformRandom::new(0.25, 5, EXPERIMENT_SEED),
            rng: SmallRng::seed_from_u64(EXPERIMENT_SEED),
            mixed_from,
        })
    };
    type Run = Box<dyn Fn(usize) -> String>;
    let mut runs: Vec<(String, Run)> = Vec::new();
    for p in points() {
        let name = p.name.to_string();
        runs.push((
            name,
            Box::new(move |shards| {
                let mut cfg = quick_sim_config().with_shards(shards);
                if let Some(f) = p.faults {
                    cfg = cfg.with_faults(f);
                }
                let mut w = UniformRandom::new(p.rate, 5, EXPERIMENT_SEED);
                if p.short > 0.0 {
                    w = w.with_payload(PayloadProfile::with_short_fraction(4, p.short));
                }
                untraced_json(p.arch, p.short > 0.0, Box::new(w), cfg)
            }),
        ));
    }
    let metrics = TelemetryConfig { metrics_window: 500, ..TelemetryConfig::default() };
    for (name, mixed_from, telemetry) in [
        ("3DM_ur025_words_1248", u64::MAX, TelemetryConfig::default()),
        ("3DM_ur025_words_mixed", 800, TelemetryConfig::default()),
        ("3DM_ur025_words_1248_metrics", u64::MAX, metrics),
    ] {
        runs.push((
            name.to_string(),
            Box::new(move |shards| {
                let cfg = quick_sim_config().with_telemetry(telemetry).with_shards(shards);
                untraced_json(Arch::ThreeDM, true, width_mix(mixed_from), cfg)
            }),
        ));
    }
    for (name, run) in &runs {
        let one = run(1);
        assert!(one.contains("\"packets_ejected\""), "{name}: report rendered");
        for shards in [2usize, 4, 8] {
            assert!(run(shards) == one, "{name}: {shards}-shard report differs from one shard");
        }
    }
}

fn assert_matches_golden(p: &Point, r: &RunResult) {
    let actual = golden_json(p, r);
    let path = golden_path(p.name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: missing golden snapshot {} ({e})", p.name, path.display()));
    assert_eq!(actual, expected, "{}: sharded run drifted from the one-shard golden bits", p.name);
}

/// Sanity: the golden recipe actually populates every report section it
/// claims to pin (guards against a silent telemetry regression making
/// the snapshots vacuous).
#[test]
fn golden_recipe_populates_all_sections() {
    let pts = points();
    let base = run_point(&pts[0], AnomalyConfig::disabled());
    assert!(!base.report.windows.is_empty(), "metrics windows collected");
    assert!(base.report.journeys.as_ref().is_some_and(|j| j.sampled > 0), "journeys sampled");
    assert!(base.report.stalls.stalled > 0, "stall causes counted");
    let faulted = run_point(&pts[8], AnomalyConfig::disabled());
    assert!(faulted.report.faults.transient_faults > 0, "transients injected");
    assert!(faulted.report.faults.links_killed > 0, "link killed");
}
