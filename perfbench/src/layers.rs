//! Per-layer metrics shared by the traced runs of every workload.

use std::time::Instant;

use mira::noc::sim::SimReport;
use mira::power::network_power::NetworkPower;

use crate::drive::DriveStats;
use crate::outcome::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, tail};

/// Pricing calls timed per measurement.
const PRICE_CALLS: u32 = 2_000;

/// Host µs per pricing call (`average_power_w` plus
/// `power_delay_product`, as the experiments price every run).
pub fn price_us(pricing: &NetworkPower, report: &SimReport) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..PRICE_CALLS {
            let c = std::hint::black_box(&report.counters);
            let w = pricing.average_power_w(c);
            std::hint::black_box(w + pricing.power_delay_product(c, report.avg_latency));
        }
        samples.push(started.elapsed().as_nanos() as f64 / 1e3 / f64::from(PRICE_CALLS));
    }
    median(&samples)
}

/// The `traffic` and `network` metrics of one traced layered drive.
pub fn network_metrics(out: &mut Outcome, tracer: &Tracer, d: &DriveStats, idle_us: f64) {
    let steps: Vec<f64> =
        tracer.durations("network.step").iter().map(|&ns| ns as f64 / 1e3).collect();
    let step_ns = tracer.total_ns("network.step") as f64;
    let step_tail = tail(&steps);
    out.note(format!(
        "network.step_us_tail = p{} of {} steps ({} beyond)",
        step_tail.pct, step_tail.count, step_tail.beyond
    ));
    let c = &d.counters;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    out.metric(
        "traffic.gen_ns_per_cycle",
        per(tracer.total_ns("traffic.generate") as f64, d.cycles),
        "ns",
    );
    out.metric("traffic.packets", d.packets as f64, "count");
    out.metric("network.step_us_p50", median(&steps), "us");
    out.metric("network.step_us_tail", step_tail.value, "us");
    out.metric("network.step_share", per(step_ns, d.wall_ns), "ratio");
    out.metric("network.idle_step_us", idle_us, "us");
    out.metric("network.ns_per_flit_hop", per(step_ns, c.buffer_writes_raw), "ns");
    out.metric(
        "network.enqueue_ns_per_packet",
        per(tracer.total_ns("network.enqueue_packet") as f64, d.packets),
        "ns",
    );
    out.metric(
        "network.drain_ns_per_cycle",
        per(tracer.total_ns("network.drain_ejected") as f64, d.cycles),
        "ns",
    );
    out.metric(
        "network.sa_success",
        per(c.xbar_traversals_raw as f64, c.sa1_arbitrations),
        "ratio",
    );
    out.metric("network.stalled", d.stalled as f64, "count");
    out.metric("network.source_queue_peak_flits", d.source_queue_peak as f64, "count");
    out.metric("network.arena_peak_flits", d.arena_peak as f64, "count");
    out.metric("network.flit_hops", c.buffer_writes_raw as f64, "count");
    out.metric("network.link_traversals", c.link_traversals_raw as f64, "count");
    out.metric("network.flits_ejected", c.flits_ejected as f64, "count");
}

/// The layers a mesh workload never calls report zero.
pub fn zero_nuca_fault_thermal_runner(out: &mut Outcome) {
    out.metric("nuca.trace_gen_s", 0.0, "s");
    out.metric("nuca.trace_records", 0.0, "count");
    out.metric("fault.retransmissions", 0.0, "count");
    out.metric("fault.packets_dropped", 0.0, "count");
    out.metric("thermal.solve_ms", 0.0, "ms");
    out.metric("runner.busy_frac", 0.0, "ratio");
    out.metric("runner.imbalance", 0.0, "ratio");
    out.metric("runner.queue_wait_ms_max", 0.0, "ms");
    out.metric("runner.retried_points", 0.0, "count");
}
