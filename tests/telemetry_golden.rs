//! Golden determinism guard for the telemetry PR (DESIGN.md §11).
//!
//! The telemetry subsystem is purely observational: with the default
//! `NullSink` the simulator must produce bit-identical results to the
//! pre-telemetry build. The `EXPECTED` bits below were captured on the
//! commit immediately before telemetry landed, with the exact recipe in
//! [`run_point`]; any drift means an instrumentation hook leaked into
//! the simulated behaviour.

use mira::arch::Arch;
use mira::experiments::common::{run_arch, EXPERIMENT_SEED};
use mira::experiments::quick_sim_config;
use mira::noc::fault::FaultConfig;
use mira_noc::journey::PacketJourney;
use mira_noc::telemetry::{TelemetryConfig, TraceEvent};
use mira_noc::traffic::{PayloadProfile, UniformRandom};
use mira_noc::{SimConfig, SimReport, Simulator};

/// One pinned run: architecture, load, short-flit fraction, and the
/// pre-telemetry golden observables (floats as IEEE-754 bit patterns).
struct Golden {
    name: &'static str,
    arch: Arch,
    rate: f64,
    short: f64,
    lat_bits: u64,
    hops_bits: u64,
    thr_bits: u64,
    pwr_bits: u64,
    created: u64,
    ejected: u64,
    xbar_raw: u64,
}

const EXPECTED: [Golden; 3] = [
    Golden {
        name: "2db_ur010",
        arch: Arch::TwoDB,
        rate: 0.10,
        short: 0.0,
        lat_bits: 0x4041e678108f868e,
        hops_bits: 0x40100dccf0211f0d,
        thr_bits: 0x3fba3b0342fa28cf,
        pwr_bits: 0x40100571615c4461,
        created: 1113,
        ejected: 1113,
        xbar_raw: 28226,
    },
    Golden {
        name: "3dm_ur010",
        arch: Arch::ThreeDM,
        rate: 0.10,
        short: 0.0,
        lat_bits: 0x403d0882a5257dd1,
        hops_bits: 0x40100dccf0211f0d,
        thr_bits: 0x3fba45ef76dc1f40,
        pwr_bits: 0x40055cd8e2c5b9fe,
        created: 1113,
        ejected: 1113,
        xbar_raw: 28183,
    },
    Golden {
        name: "3dme_ur020_short",
        arch: Arch::ThreeDME,
        rate: 0.20,
        short: 0.5,
        lat_bits: 0x40378e7b54166c61,
        hops_bits: 0x4003f2eb71fc4345,
        thr_bits: 0x3fc9e3064bb33ce9,
        pwr_bits: 0x4009fd493a040d1d,
        created: 2192,
        ejected: 2192,
        xbar_raw: 38666,
    },
];

/// Replays one golden point. `short > 0` enables the short-flit payload
/// profile and layer shutdown, matching how the power experiments drive
/// the 3D architectures.
fn run_point(g: &Golden, sim_cfg: SimConfig) -> mira::experiments::common::RunResult {
    let mut w = UniformRandom::new(g.rate, 5, EXPERIMENT_SEED);
    if g.short > 0.0 {
        w = w.with_payload(PayloadProfile::with_short_fraction(4, g.short));
    }
    run_arch(g.arch, g.short > 0.0, Box::new(w), sim_cfg)
}

fn check(g: &Golden, r: &mira::experiments::common::RunResult, label: &str) {
    assert_eq!(
        r.report.avg_latency.to_bits(),
        g.lat_bits,
        "{}/{label}: avg_latency drifted ({} != {})",
        g.name,
        r.report.avg_latency,
        f64::from_bits(g.lat_bits),
    );
    assert_eq!(r.report.avg_hops.to_bits(), g.hops_bits, "{}/{label}: avg_hops", g.name);
    assert_eq!(r.report.throughput.to_bits(), g.thr_bits, "{}/{label}: throughput", g.name);
    assert_eq!(r.avg_power_w.to_bits(), g.pwr_bits, "{}/{label}: avg_power_w", g.name);
    assert_eq!(r.report.packets_created, g.created, "{}/{label}: packets_created", g.name);
    assert_eq!(r.report.packets_ejected, g.ejected, "{}/{label}: packets_ejected", g.name);
    assert_eq!(
        r.report.counters.xbar_traversals_raw, g.xbar_raw,
        "{}/{label}: xbar_traversals_raw",
        g.name
    );
}

/// Default path (NullSink, no metrics windows) reproduces the
/// pre-telemetry golden bits exactly.
#[test]
fn null_sink_is_bit_identical_to_pre_telemetry_build() {
    for g in &EXPECTED {
        let r = run_point(g, quick_sim_config());
        check(g, &r, "null-sink");
    }
}

/// Turning on metrics windows and event tracing changes nothing about
/// the simulated behaviour — same golden bits, counters included.
#[test]
fn enabled_telemetry_is_bit_identical_to_disabled() {
    for g in &EXPECTED {
        let traced_cfg = quick_sim_config().with_telemetry(TelemetryConfig {
            metrics_window: 500,
            trace_capacity: 1 << 14,
            journey_sample_ppm: 0,
            journey_seed: 0,
        });
        let traced = run_point(g, traced_cfg);
        check(g, &traced, "traced");
        assert!(!traced.report.windows.is_empty(), "{}: windows were collected", g.name);
        let plain = run_point(g, quick_sim_config());
        assert_eq!(plain.report.counters, traced.report.counters, "{}: counters", g.name);
        assert_eq!(plain.pdp.to_bits(), traced.pdp.to_bits(), "{}: pdp", g.name);
    }
}

/// Runs `arch` at `rate` (short-flit fraction `short`, layer shutdown
/// when non-zero, fault injection per `faults`) with the trace sink and
/// journeys on, on `shards` shards, returning the report, every
/// recorded trace event and the finished journeys.
fn traced_run(
    arch: Arch,
    rate: f64,
    short: f64,
    faults: Option<FaultConfig>,
    shards: usize,
) -> (SimReport, Vec<TraceEvent>, Vec<PacketJourney>) {
    let mut w = UniformRandom::new(rate, 5, EXPERIMENT_SEED);
    if short > 0.0 {
        w = w.with_payload(PayloadProfile::with_short_fraction(4, short));
    }
    let mut cfg = quick_sim_config()
        .with_telemetry(TelemetryConfig {
            metrics_window: 500,
            trace_capacity: 1 << 22,
            journey_sample_ppm: 1_000_000,
            journey_seed: 0,
        })
        .with_shards(shards);
    if let Some(f) = faults {
        cfg = cfg.with_faults(f);
    }
    let mut sim = Simulator::new(arch.topology(), arch.network_config(short > 0.0), cfg);
    let report = sim.run(Box::new(w));
    let sink = sim.network().trace_sink().expect("trace sink installed");
    assert_eq!(sink.dropped(), 0, "{arch}: the ring must hold the whole run");
    (report, sink.events().copied().collect(), sim.journeys().to_vec())
}

/// The sharded engine replays trace events and journey records in the
/// one-shard order: with the trace sink and journeys on, 2 and 4
/// shards record the 1-shard event stream event for event, on a 2DB
/// point and a 3DM layer-shutdown point.
#[test]
fn traced_event_stream_is_identical_across_shard_counts() {
    for (arch, rate, short) in [(Arch::TwoDB, 0.10, 0.0), (Arch::ThreeDM, 0.20, 0.5)] {
        let (base, events, journeys) = traced_run(arch, rate, short, None, 1);
        assert!(!events.is_empty() && !journeys.is_empty(), "{arch}: the run was traced");
        for shards in [2, 4] {
            let (report, sharded, sharded_journeys) = traced_run(arch, rate, short, None, shards);
            assert_eq!(sharded.len(), events.len(), "{arch}/{shards} shards: event count");
            if let Some(i) = (0..events.len()).find(|&i| sharded[i] != events[i]) {
                panic!(
                    "{arch}/{shards} shards: event {i} differs: {:?} != {:?}",
                    sharded[i], events[i]
                );
            }
            assert_eq!(sharded_journeys, journeys, "{arch}/{shards} shards: journeys");
            assert_eq!(report.counters, base.counters, "{arch}/{shards} shards: counters");
            assert_eq!(
                report.avg_latency.to_bits(),
                base.avg_latency.to_bits(),
                "{arch}/{shards} shards: avg_latency"
            );
        }
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Digest of a trace-event stream: per event, in order, the
/// little-endian bytes of `cycle`, `router`, `port`, `vc`, the kind's
/// declaration index, `packet` and `detail` (all widened to `u64`).
fn event_digest(events: &[TraceEvent]) -> u64 {
    fnv1a(events.iter().flat_map(|e| {
        [
            e.cycle,
            e.router.index() as u64,
            e.port.index() as u64,
            e.vc.index() as u64,
            e.kind as u64,
            e.packet,
            u64::from(e.detail),
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

/// Digest of the finished journeys: the bytes of their compact JSON.
fn journey_digest(journeys: &[PacketJourney]) -> u64 {
    fnv1a(serde_json::to_string(journeys).expect("journeys serialize").into_bytes())
}

/// One traced point pinned by digest: `(name, arch, rate, short-flit
/// fraction, faulted, event digest, journey digest)`.
type TracedDigest = (&'static str, Arch, f64, f64, bool, u64, u64);

/// Trace-event and journey digests recorded with the two-engine step
/// (separate sequential and sharded paths) that preceded the single
/// cycle engine, by running [`traced_run`] at 1 shard and hashing with
/// [`event_digest`] / [`journey_digest`]. The faulted point uses
/// [`golden_faults`] (transients, a retry budget, a link kill with
/// rerouting), so it pins the fault layer's trace order too.
const TRACED_DIGESTS: [TracedDigest; 3] = [
    ("2db_ur010", Arch::TwoDB, 0.10, 0.0, false, 0xb7e8_8e00_0e04_c2ac, 0x0888_94a3_b280_6264),
    (
        "3dm_ur020_short",
        Arch::ThreeDM,
        0.20,
        0.5,
        false,
        0x8025_fd39_131d_7791,
        0xb400_e4b9_4f0f_0430,
    ),
    (
        "2db_ur010_faults",
        Arch::TwoDB,
        0.10,
        0.0,
        true,
        0x5191_2a6c_d86d_1e5d,
        0x7ca6_df40_2816_28c8,
    ),
];

/// The fault plan of `tests/golden_core.rs`'s faulted points.
fn golden_faults() -> FaultConfig {
    FaultConfig::disabled()
        .with_transient(2_000)
        .with_kill(14, 1, 400)
        .with_max_retries(4)
        .with_reroute(true)
        .with_seed(EXPERIMENT_SEED)
}

/// The one-shard trace-event order and journeys equal the pinned
/// digests, and so do 2 shards' — a reordering of link delivery (say,
/// every flit wire before every credit wire) keeps `SimReport` intact
/// but moves these.
#[test]
fn traced_streams_match_pinned_digests() {
    for &(name, arch, rate, short, faulted, events_want, journeys_want) in &TRACED_DIGESTS {
        let faults = faulted.then(golden_faults);
        for shards in [1, 2] {
            let (_, events, journeys) = traced_run(arch, rate, short, faults, shards);
            let (ev, jn) = (event_digest(&events), journey_digest(&journeys));
            assert_eq!(
                (ev, jn),
                (events_want, journeys_want),
                "{name}/{shards} shards: digests {ev:#018x}/{jn:#018x}"
            );
        }
    }
}

/// A span-sample rate of zero leaves the journey recorder uninstalled:
/// the run reproduces the pre-journey golden bits exactly (the
/// `--span-sample-rate 0` acceptance criterion).
#[test]
fn zero_span_rate_is_bit_identical_to_pre_journey_build() {
    for g in &EXPECTED {
        let cfg = quick_sim_config().with_telemetry(TelemetryConfig::disabled().with_journeys(0));
        let r = run_point(g, cfg);
        check(g, &r, "span-rate-0");
    }
}

/// Arming the full anomaly-detector suite (DESIGN.md §17) changes
/// nothing on a healthy run: the recorder only reads fabric state, no
/// detector fires, and the pre-telemetry golden bits reproduce exactly,
/// counters included.
#[test]
fn armed_anomaly_recorder_is_bit_identical_to_disabled() {
    use mira::noc::anomaly::AnomalyConfig;
    for g in &EXPECTED {
        let armed = run_point(g, quick_sim_config().with_anomaly(AnomalyConfig::detect()));
        check(g, &armed, "anomaly-armed");
        assert_eq!(
            armed.report.anomalies.total(),
            0,
            "{}: no detector may fire on a healthy golden run",
            g.name
        );
        let plain = run_point(g, quick_sim_config());
        assert_eq!(plain.report.counters, armed.report.counters, "{}: counters", g.name);
        assert_eq!(plain.pdp.to_bits(), armed.pdp.to_bits(), "{}: pdp", g.name);
    }
}

/// The journey recorder is purely observational: sampling every packet
/// still reproduces the golden bits, counters included.
#[test]
fn journey_sampling_is_bit_identical_to_disabled() {
    for g in &EXPECTED {
        let cfg =
            quick_sim_config().with_telemetry(TelemetryConfig::disabled().with_journeys(1_000_000));
        let sampled = run_point(g, cfg);
        check(g, &sampled, "journeys");
        let plain = run_point(g, quick_sim_config());
        assert_eq!(plain.report.counters, sampled.report.counters, "{}: counters", g.name);
        assert!(
            sampled.report.journeys.as_ref().is_some_and(|j| j.sampled > 0),
            "{}: journeys were recorded",
            g.name
        );
    }
}
