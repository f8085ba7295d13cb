//! The large-fabric workloads: a UR load below each mesh's measured
//! knee, run through `Simulator::run` at the workload's shard count.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mira::arch::Arch;
use mira::experiments::{derive_seed, EXPERIMENT_SEED};
use mira::noc::config::NetworkConfig;
use mira::noc::network::Network;
use mira::noc::sim::{SimConfig, SimReport, Simulator};
use mira::noc::topology::{Mesh2D, Topology};
use mira::noc::traffic::{PayloadProfile, UniformRandom, Workload};

use crate::digest::{self, Expected};
use crate::drive::{drive, idle_step_us};
use crate::outcome::Outcome;
use crate::spans::{self_times, Tracer};
use crate::stats::{find_knee, median, tail, LoadPoint, KNEE_ACCEPT_SHARE};

/// One mesh workload's fabric, router configuration and traffic.
#[derive(Debug, Clone, Copy)]
pub struct MeshSpec {
    /// Workload name.
    pub name: &'static str,
    /// Mesh side (the fabric is `side × side`).
    pub side: usize,
    /// Architecture whose router configuration and power model apply.
    pub arch: Arch,
    /// Link pitch, mm.
    pub pitch_mm: f64,
    /// Layer shutdown for short flits.
    pub shutdown: bool,
    /// Share of short (one-word) flits in the UR payloads.
    pub short_fraction: f64,
    /// Offered load as a share of the measured knee.
    pub knee_share: f64,
    /// Intra-run shard workers.
    pub shards: usize,
}

/// 32×32 2DB, dense-payload UR at half the knee.
pub const MESH32_LIGHT: MeshSpec = MeshSpec {
    name: "mesh32_light",
    side: 32,
    arch: Arch::TwoDB,
    pitch_mm: Mesh2D::PITCH_2DB_MM,
    shutdown: false,
    short_fraction: 0.0,
    knee_share: 0.5,
    shards: 2,
};

/// 16×16 with the 3DM router (4-layer bit-sliced datapath, combined
/// ST+LT, layer shutdown), UR with 50% short flits at 0.9× the knee.
pub const MESH16_KNEE: MeshSpec = MeshSpec {
    name: "mesh16_knee",
    side: 16,
    arch: Arch::ThreeDM,
    pitch_mm: Mesh2D::PITCH_3DM_MM,
    shutdown: true,
    short_fraction: 0.5,
    knee_share: 0.9,
    shards: 2,
};

/// Both mesh workloads.
pub const MESHES: [MeshSpec; 2] = [MESH32_LIGHT, MESH16_KNEE];

/// Phase windows of every mesh point (the library's quick windows).
pub fn sim_config() -> SimConfig {
    mira::experiments::quick_sim_config()
}

/// Flits per UR packet.
const PACKET_FLITS: u64 = 5;

/// Seed of the reference point whose digest is stored.
const REFERENCE_SEED: u64 = EXPERIMENT_SEED;

/// Set-ups timed before each timed point. The host's speed drifts within
/// a run, so set-ups are spread over the run rather than bunched at its
/// start; the median of all of them is reported.
const SETUP_PER_POINT: usize = 3;

/// Fewest timed points per run: enough for the median to have ten
/// samples beyond it, the least a tail percentile needs.
const MIN_POINTS: usize = 21;

/// Checks each run makes; `claims_in_band` counts those that hold.
const CHECKS: [&str; 6] = [
    "no timed point saturated",
    "accepted load within 5% of offered on every point",
    "live flits never exceeded the fabric's buffer capacity",
    "2-shard digest equals 1-shard digest",
    "reference digest at 1 shard matches the stored one",
    "reference digest at the workload's shards matches the stored one",
];

impl MeshSpec {
    fn topology(&self) -> Box<dyn Topology> {
        Box::new(Mesh2D::with_pitch(self.side, self.side, self.pitch_mm))
    }

    fn net_config(&self) -> NetworkConfig {
        self.arch.network_config(self.shutdown)
    }

    fn workload(&self, rate: f64, seed: u64) -> UniformRandom {
        let payload = PayloadProfile::with_short_fraction(4, self.short_fraction);
        UniformRandom::new(rate, PACKET_FLITS as usize, seed).with_payload(payload)
    }

    fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// Flits the fabric's router buffers hold when full. More live
    /// flits than this can only be a source-queue backlog.
    pub fn fabric_capacity_flits(&self) -> u64 {
        let cfg = self.net_config();
        (self.nodes() * 5 * cfg.router.vcs_per_port * cfg.router.buffer_depth) as u64
    }

    /// Host seconds of everything before simulated cycle 0: topology,
    /// `Simulator::new` (arena, shard pool spawn) and `Workload::init`.
    fn setup_once(&self, rate: f64, seed: u64) -> f64 {
        let started = Instant::now();
        let sim = self.simulator(self.shards);
        let mut w = self.workload(rate, seed);
        w.init(sim.network().topology().num_nodes());
        let secs = started.elapsed().as_secs_f64();
        drop(std::hint::black_box((sim, w)));
        secs
    }

    fn simulator(&self, shards: usize) -> Simulator {
        Simulator::new(self.topology(), self.net_config(), sim_config().with_shards(shards))
    }

    /// Runs one point; a panic becomes an error.
    fn run_point(&self, rate: f64, seed: u64, shards: usize) -> Result<PointRun, String> {
        let spec = *self;
        std::panic::catch_unwind(move || {
            let mut sim = spec.simulator(shards);
            let workload = Box::new(spec.workload(rate, seed));
            let started = Instant::now();
            let report = sim.run(workload);
            let wall_s = started.elapsed().as_secs_f64();
            let arena_peak = sim.network().watermarks().arena_live_peak as u64;
            PointRun { report, wall_s, arena_peak }
        })
        .map_err(|e| format!("{} seed {seed} x{shards}: panic: {}", self.name, panic_text(&*e)))
    }

    /// The workload's offered load: the calibrated knee times its share.
    pub fn load(&self) -> Result<f64, String> {
        let knees = Knees::load(&knees_path())?;
        let knee = knees
            .0
            .get(self.name)
            .ok_or_else(|| format!("{}: no knee recorded; run --calibrate", self.name))?;
        Ok(knee.load)
    }
}

struct PointRun {
    report: SimReport,
    wall_s: f64,
    arena_peak: u64,
}

/// Renders a panic payload.
pub fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A calibrated knee and the load derived from it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Knee {
    /// Highest offered load (flits/node/cycle) that still drains and
    /// accepts ≥95% of what is offered.
    pub knee: f64,
    /// The workload's share of the knee.
    pub share: f64,
    /// `knee × share`, the load the timed runs offer.
    pub load: f64,
    /// Every probe of the sweep, in probe order.
    pub probes: Vec<LoadPoint>,
}

/// Calibrated knees by workload name.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Knees(pub BTreeMap<String, Knee>);

impl Knees {
    fn load(path: &Path) -> Result<Knees, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }
}

fn knees_path() -> std::path::PathBuf {
    crate::bench_dir().join("knees.json")
}

fn expected_path(spec: &MeshSpec) -> std::path::PathBuf {
    crate::bench_dir().join("expected").join(format!("{}.json", spec.name))
}

/// Sweeps offered against accepted load on each mesh's exact fabric and
/// configuration, bisecting for the knee, and records it.
pub fn calibrate(specs: &[MeshSpec]) -> Result<(), String> {
    let path = knees_path();
    let mut knees = Knees::load(&path).unwrap_or_default();
    for spec in specs {
        let (knee, probes) = find_knee(0.005, 0.12, 0.0005, |rate| {
            let run = spec
                .run_point(rate, REFERENCE_SEED, spec.shards)
                .unwrap_or_else(|e| panic!("calibration point failed: {e}"));
            let p = LoadPoint {
                offered: rate,
                accepted: run.report.throughput,
                saturated: run.report.saturated,
            };
            eprintln!(
                "[calibrate] {} offered {rate:.5} accepted {:.5} saturated {} ({:.2} s)",
                spec.name, p.accepted, p.saturated, run.wall_s
            );
            p
        })?;
        let load = knee * spec.knee_share;
        println!("{}: knee {knee:.5} flits/node/cycle, load {load:.5}", spec.name);
        knees.0.insert(spec.name.to_string(), Knee { knee, share: spec.knee_share, load, probes });
    }
    let json = serde_json::to_string_pretty(&knees).expect("knees serialize");
    std::fs::write(&path, json + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Stores the reference point's digest from the current simulator.
pub fn bless(spec: &MeshSpec) -> Result<(), String> {
    let rate = spec.load()?;
    let run = spec.run_point(rate, REFERENCE_SEED, 1)?;
    let mut e = Expected { claims_in_band: CHECKS.len() as u64, ..Expected::default() };
    e.digests.insert("reference".to_string(), digest::of_report(&run.report));
    e.store(&expected_path(spec))
}

/// Runs the reference point at 1 shard and at the workload's shards and
/// compares both digests with the stored one; returns one flag per run.
fn verify_reference(spec: &MeshSpec, rate: f64, out: &mut Outcome) -> Result<[bool; 2], String> {
    let expected = Expected::load(&expected_path(spec))?;
    let mut flags = [false; 2];
    for (flag, shards) in flags.iter_mut().zip([1, spec.shards]) {
        out.attempted += 1;
        let observed = match spec.run_point(rate, REFERENCE_SEED, shards) {
            Ok(run) => BTreeMap::from([("reference".to_string(), digest::of_report(&run.report))]),
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let bad = expected.mismatches(&observed);
        *flag = bad.is_empty();
        for b in bad {
            out.fail(format!("{} reference x{shards}: {b}", spec.name));
        }
    }
    Ok(flags)
}

/// The timed run (`--trace 0`).
pub fn run(spec: &MeshSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rate = spec.load()?;
    let mut out = Outcome::default();

    // One untimed point settles the allocator and the shard pool before
    // anything is timed.
    spec.run_point(rate, derive_seed(seed, u64::MAX), spec.shards)?;

    let capacity = spec.fabric_capacity_flits();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut checks = [true; CHECKS.len()];
    let mut first_digest = None;
    let mut min_accept = f64::INFINITY;
    let mut setup = Vec::new();
    let started = Instant::now();
    let mut i = 0u64;
    while walls.len() < MIN_POINTS || started.elapsed().as_secs_f64() < seconds {
        let point_seed = derive_seed(seed, i);
        i += 1;
        for _ in 0..SETUP_PER_POINT {
            setup.push(spec.setup_once(rate, point_seed));
        }
        out.attempted += 1;
        let run = match spec.run_point(rate, point_seed, spec.shards) {
            Ok(run) => run,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let r = &run.report;
        let mut ok = true;
        if r.saturated {
            checks[0] = false;
            ok = false;
            out.problem(format!("{} seed {point_seed}: saturated", spec.name));
        }
        // Offered load as generated in this point's measurement window,
        // which the Bernoulli sources make differ from the nominal rate.
        let offered = (r.packets_created * PACKET_FLITS) as f64
            / (sim_config().measure_cycles as f64 * spec.nodes() as f64);
        min_accept = min_accept.min(r.throughput / offered);
        if r.throughput < KNEE_ACCEPT_SHARE * offered {
            checks[1] = false;
            ok = false;
            out.problem(format!(
                "{} seed {point_seed}: accepted {:.5} < 95% of offered {offered:.5}",
                spec.name, r.throughput
            ));
        }
        if run.arena_peak > capacity {
            checks[2] = false;
            ok = false;
            out.problem(format!(
                "{} seed {point_seed}: {} live flits exceed the fabric's {capacity}",
                spec.name, run.arena_peak
            ));
        }
        if r.anomalies.total() > 0 {
            ok = false;
            out.problem(format!("{} seed {point_seed}: anomaly detectors fired", spec.name));
        }
        if !ok {
            // A saturated or failed point never counts as a throughput point.
            out.failed += 1;
            continue;
        }
        if first_digest.is_none() {
            first_digest = Some((point_seed, digest::of_report(r)));
        }
        walls.push(run.wall_s);
        rates.push(r.cycles_simulated as f64 / run.wall_s);
    }

    // Output checks, untimed: the first point again at 1 shard, and the
    // stored reference digest at both shard counts.
    out.attempted += 1;
    match first_digest {
        Some((point_seed, d)) => match spec.run_point(rate, point_seed, 1) {
            Ok(one) if digest::of_report(&one.report) == d => {}
            Ok(_) => {
                checks[3] = false;
                out.fail(format!("{} seed {point_seed}: 2-shard digest != 1-shard", spec.name));
            }
            Err(e) => {
                checks[3] = false;
                out.fail(e);
            }
        },
        None => {
            checks[3] = false;
            out.fail(format!("{}: no point completed", spec.name));
        }
    }
    let refs = verify_reference(spec, rate, &mut out)?;
    checks[4] = refs[0];
    checks[5] = refs[1];
    let stored = Expected::load(&expected_path(spec))?.claims_in_band;
    let in_band = checks.iter().filter(|&&c| c).count() as u64;
    for (name, ok) in CHECKS.iter().zip(checks) {
        if !ok {
            out.problem(format!("{}: check failed: {name}", spec.name));
        }
    }
    if in_band != stored {
        out.problem(format!("{}: {in_band} checks in band, {stored} expected", spec.name));
    }

    let point_tail = tail(&walls);
    out.note(format!(
        "{}: load {rate:.5} flits/node/cycle, {} shards, {} timed points, accepted/offered >= \
         {min_accept:.4}, point_s_tail = p{} ({} beyond)",
        spec.name,
        spec.shards,
        walls.len(),
        point_tail.pct,
        point_tail.beyond
    ));
    out.metric("wall_s", median(&walls), "s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("sim_cycles_per_s", median(&rates), "1/s");
    out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.metric("point_s_p50", median(&walls), "s");
    out.metric("point_s_tail", point_tail.value, "s");
    out.metric("claims_in_band", in_band as f64, "count");
    Ok(out)
}

/// Steps `spec`'s fabric by hand for the reference point's cycles.
fn layered_drive(
    spec: &MeshSpec,
    rate: f64,
    seed: u64,
    shards: usize,
    cycles: u64,
    tracer: &mut Tracer,
) -> crate::drive::DriveStats {
    let mut net = Network::new(spec.topology(), spec.net_config());
    net.set_shards(shards);
    let mut w = spec.workload(rate, seed);
    w.init(spec.nodes());
    let cfg = sim_config();
    drive(&mut net, &mut w, cfg.warmup_cycles + cfg.measure_cycles, cycles, tracer)
}

/// Wall seconds of `Simulator::run` on the point, with observability on
/// or off.
fn sim_run_wall(spec: &MeshSpec, rate: f64, seed: u64, obs: bool) -> Result<PointRun, String> {
    mira_obs::set_enabled(obs);
    let run = spec.run_point(rate, seed, spec.shards);
    mira_obs::set_enabled(false);
    run
}

/// The traced run (`--trace 1`): per-layer metrics on this fabric.
pub fn traced(spec: &MeshSpec, seed: u64, trace_out: &Path) -> Result<Outcome, String> {
    let rate = spec.load()?;
    let mut out = Outcome::default();
    let point_seed = derive_seed(seed, 0);

    // Simulator::run with observability off and on, alternated.
    let mut plain = Vec::new();
    let mut with_obs = Vec::new();
    let mut report = None;
    for _ in 0..3 {
        out.attempted += 2;
        let off = sim_run_wall(spec, rate, point_seed, false)?;
        let on = sim_run_wall(spec, rate, point_seed, true)?;
        plain.push(off.wall_s);
        with_obs.push(on.wall_s);
        report = Some(off.report);
    }
    let report = report.expect("three runs");
    if report.saturated {
        out.fail(format!("{} seed {point_seed}: saturated", spec.name));
    }
    let cycles = report.cycles_simulated;

    // The same point stepped by hand: untraced, traced, and traced at
    // one shard for the shard speed-up.
    let mut off = Tracer::new(false);
    let untraced = layered_drive(spec, rate, point_seed, spec.shards, cycles, &mut off);
    let mut tracer = Tracer::new(true);
    tracer.set_sim(1);
    let traced = layered_drive(spec, rate, point_seed, spec.shards, cycles, &mut tracer);
    let step_ns = tracer.total_ns("network.step");
    let mut one = Tracer::new(true);
    let single = layered_drive(spec, rate, point_seed, 1, cycles, &mut one);
    let step1_ns = one.total_ns("network.step");
    out.attempted += 1;
    if traced.counters.flits_ejected != single.counters.flits_ejected
        || traced.counters.buffer_writes_raw != single.counters.buffer_writes_raw
        || traced.counters.flits_ejected != untraced.counters.flits_ejected
    {
        out.fail(format!("{}: layered drives disagree across shard counts", spec.name));
    }

    let mut idle_net = Network::new(spec.topology(), spec.net_config());
    idle_net.set_shards(spec.shards);
    let idle_us = idle_step_us(&mut idle_net, 300);

    let pricing = spec.arch.network_power();
    let price_us = crate::layers::price_us(&pricing, &report);
    let _ = verify_reference(spec, rate, &mut out)?;

    std::fs::write(trace_out, tracer.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    let st = self_times(tracer.spans());
    out.note(format!(
        "{}: self time ms: {}",
        spec.name,
        st.iter().map(|(k, v)| format!("{k}={:.1}", *v as f64 / 1e6)).collect::<Vec<_>>().join(" ")
    ));

    let run_wall = median(&plain);
    crate::layers::network_metrics(&mut out, &tracer, &traced, idle_us);
    out.metric("shard.speedup", step1_ns as f64 / step_ns.max(1) as f64, "ratio");
    out.metric("sim.driver_share", (1.0 - step_ns as f64 / 1e9 / run_wall).max(0.0), "ratio");
    crate::layers::zero_nuca_fault_thermal_runner(&mut out);
    out.metric("power.price_us", price_us, "us");
    out.metric("obs.overhead_ratio", median(&with_obs) / run_wall, "ratio");
    out.metric("trace.overhead_ratio", traced.wall_ns as f64 / untraced.wall_ns as f64, "ratio");
    Ok(out)
}
