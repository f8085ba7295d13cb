//! The layered drive: one simulation stepped by hand through the
//! network's public calls, so the traced run can time each layer
//! (`Workload::generate`, `Network::{enqueue_packet, step,
//! drain_ejected}`) from the benchmark's side without instrumenting the
//! simulator.
//!
//! The loop mirrors `Simulator::run` for open-loop traffic: generation
//! stops at the end of the measurement window, packet ids are issued in
//! creation order, and ejections are drained every cycle. Given the
//! cycle count a `Simulator::run` of the same point reported, it steps
//! the network through exactly the same states.

use std::time::Instant;

use mira::noc::network::Network;
use mira::noc::packet::{Packet, PacketId};
use mira::noc::stats::ActivityCounters;
use mira::noc::traffic::Workload;

use crate::spans::Tracer;

/// What one drive did.
#[derive(Debug, Clone)]
pub struct DriveStats {
    /// Host nanoseconds for the whole loop.
    pub wall_ns: u64,
    /// Cycles stepped.
    pub cycles: u64,
    /// Packets enqueued.
    pub packets: u64,
    /// Peak flits waiting in source queues (sampled each cycle, traced
    /// drives only).
    pub source_queue_peak: u64,
    /// Peak live flits in the arena.
    pub arena_peak: u64,
    /// Network activity over the whole drive.
    pub counters: ActivityCounters,
    /// Stalled router-cycles over the whole drive.
    pub stalled: u64,
}

/// Steps `net` for `cycles` cycles, generating traffic from `workload`
/// until `gen_end`. With a recording `tracer`, every layer call gets a
/// span and the source queues are sampled after each cycle.
pub fn drive(
    net: &mut Network,
    workload: &mut dyn Workload,
    gen_end: u64,
    cycles: u64,
    tracer: &mut Tracer,
) -> DriveStats {
    let traced = tracer.enabled();
    let mut ejected = Vec::new();
    let mut next_packet = 0u64;
    let mut source_queue_peak = 0u64;
    let started = Instant::now();
    tracer.begin("sim.drive");
    for cycle in 0..cycles {
        if cycle < gen_end {
            let specs = tracer.time("traffic.generate", || workload.generate(cycle));
            tracer.begin("network.enqueue_packet");
            for spec in specs {
                net.enqueue_packet(Packet {
                    id: PacketId(next_packet),
                    src: spec.src,
                    dst: spec.dst,
                    class: spec.class,
                    payload: spec.payload,
                    created_at: cycle,
                });
                next_packet += 1;
            }
            tracer.end();
        }
        tracer.time("network.step", || net.step(cycle));
        tracer.time("network.drain_ejected", || net.drain_ejected(&mut ejected));
        ejected.clear();
        if traced {
            source_queue_peak = source_queue_peak.max(net.flits_in_source_queues() as u64);
        }
    }
    tracer.end();
    DriveStats {
        wall_ns: started.elapsed().as_nanos() as u64,
        cycles,
        packets: next_packet,
        source_queue_peak,
        arena_peak: net.watermarks().arena_live_peak as u64,
        counters: net.counters().clone(),
        stalled: net.stall_totals().stalled,
    }
}

/// Median host µs of one `Network::step` on `net` with nothing in
/// flight: the fixed per-cycle scan floor of the fabric.
pub fn idle_step_us(net: &mut Network, steps: u64) -> f64 {
    let mut us = Vec::with_capacity(steps as usize);
    for cycle in 0..steps {
        let t = Instant::now();
        net.step(cycle);
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    crate::stats::median(&us)
}
