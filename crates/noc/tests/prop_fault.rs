//! Property tests for the fault-injection and recovery subsystem.
//!
//! Three claims, matching the recovery design:
//!
//! 1. **Transient faults + unbounded retries ⇒ lossless delivery.**
//!    Parity catches single flips, the go-back-N window resends, and
//!    the stateless fault hash re-rolls per cycle, so every packet is
//!    eventually delivered exactly once.
//! 2. **Permanent kills + fault-aware routing ⇒ no livelock, exact
//!    conservation.** Every flit is delivered, dropped-with-accounting,
//!    or still in flight — at every cycle — and the network drains.
//! 3. **Faults off ⇒ bit-identical to the pre-fault simulator.** The
//!    default `FaultConfig` leaves the whole machinery disengaged.

use std::collections::HashMap;

use proptest::prelude::*;

use mira_noc::config::NetworkConfig;
use mira_noc::fault::FaultConfig;
use mira_noc::flit::FlitData;
use mira_noc::ids::NodeId;
use mira_noc::network::Network;
use mira_noc::packet::{Packet, PacketClass, PacketId};
use mira_noc::topology::{Mesh2D, Mesh3D};

#[derive(Debug, Clone)]
struct Spec {
    src: usize,
    dst: usize,
    len: usize,
}

fn spec_strategy(nodes: usize) -> impl Strategy<Value = Spec> {
    (0..nodes, 0..nodes, 1usize..6).prop_map(|(src, dst, len)| Spec { src, dst, len })
}

fn enqueue_all(net: &mut Network, specs: &[Spec]) -> usize {
    let mut total = 0usize;
    for (i, s) in specs.iter().enumerate() {
        total += s.len;
        net.enqueue_packet(Packet {
            id: PacketId(i as u64),
            src: NodeId(s.src),
            dst: NodeId(s.dst),
            class: if s.len > 1 { PacketClass::DataResponse } else { PacketClass::ReadRequest },
            payload: (0..s.len).map(|_| FlitData::dense(4)).collect(),
            created_at: 0,
        });
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Claim 1: transient corruption with an unlimited retry budget
    /// loses nothing — every packet's tail ejects exactly once.
    #[test]
    fn transient_faults_with_unbounded_retries_deliver_exactly_once(
        specs in proptest::collection::vec(spec_strategy(16), 1..40),
        ppm in 1_000u32..80_000,
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig::disabled()
            .with_transient(ppm)
            .with_max_retries(0) // retry forever
            .with_seed(seed);
        let mut net = Network::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default());
        net.set_faults(faults).expect("valid fault config");
        let total_packets = specs.len();
        enqueue_all(&mut net, &specs);

        let mut tails: HashMap<PacketId, u32> = HashMap::new();
        for c in 0..100_000u64 {
            net.step(c);
            for e in net.take_ejected() {
                if e.flit.is_tail() {
                    *tails.entry(e.flit.packet).or_insert(0) += 1;
                }
            }
            if net.is_drained() {
                break;
            }
        }
        prop_assert!(net.is_drained(), "retries must converge — no livelock");
        prop_assert_eq!(tails.len(), total_packets, "every packet delivered");
        prop_assert!(tails.values().all(|&n| n == 1), "each exactly once: {:?}", tails);
        let fc = net.fault_counters();
        prop_assert_eq!(fc.packets_dropped, 0);
        prop_assert_eq!(fc.flits_dropped, 0);
        prop_assert_eq!(
            fc.transient_faults,
            (fc.detected - fc.stuck_faults) + fc.escaped + fc.masked,
            "every transient fault has exactly one verdict"
        );
    }

    /// Claim 2: a permanent link kill under fault-aware routing neither
    /// livelocks nor leaks — `delivered + dropped + in_flight ==
    /// injected` holds at every cycle, and the network drains with
    /// every packet either delivered or dropped-with-accounting.
    /// (Single kill: the routing layer argues deadlock/livelock freedom
    /// for one dead link; multi-fault recovery is best-effort.)
    #[test]
    fn permanent_kills_conserve_flits_and_drain(
        specs in proptest::collection::vec(spec_strategy(36), 1..40),
        window in 0u64..150,
        ppm in 0u32..20_000,
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig::disabled()
            .with_transient(ppm)
            .with_random_kills(1, window)
            .with_max_retries(2) // tight budget: drops do happen
            .with_seed(seed);
        let mut net = Network::new(Box::new(Mesh2D::new(6, 6)), NetworkConfig::default());
        net.set_faults(faults).expect("valid fault config");
        let total_packets = specs.len();
        let total_flits = enqueue_all(&mut net, &specs) as u64;

        let mut tails = 0u64;
        let mut ejected_flits = 0u64;
        for c in 0..100_000u64 {
            net.step(c);
            for e in net.take_ejected() {
                ejected_flits += 1;
                if e.flit.is_tail() {
                    tails += 1;
                }
            }
            // The wire and NIC counts survive kills, ARQ resends and
            // severed-flit drops.
            net.assert_worklists_consistent();
            let dropped = net.fault_counters().flits_dropped;
            let in_flight =
                (net.flits_in_fabric() + net.flits_in_source_queues()) as u64;
            prop_assert_eq!(
                ejected_flits + dropped + in_flight,
                total_flits,
                "flit conservation broken at cycle {}",
                c
            );
            // Keep stepping through the kill window even when drained,
            // so every scheduled kill actually fires.
            if net.is_drained() && c > window {
                break;
            }
        }
        prop_assert!(net.is_drained(), "dead links must not wedge the network");
        let fc = net.fault_counters();
        prop_assert_eq!(
            tails + fc.packets_dropped,
            total_packets as u64,
            "every packet is delivered or dropped with accounting"
        );
        prop_assert!(fc.links_killed >= 1, "at least one kill fired");
    }

    /// Claim 2b (3D): the same holds on the paper's stacked mesh, where
    /// a kill can sever an inter-layer via.
    #[test]
    fn kills_on_stacked_mesh_drain(
        specs in proptest::collection::vec(spec_strategy(36), 1..30),
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig::disabled()
            .with_random_kills(1, 100)
            .with_max_retries(4)
            .with_seed(seed);
        let mut net = Network::new(Box::new(Mesh3D::new(3, 3, 4)), NetworkConfig::default());
        net.set_faults(faults).expect("valid fault config");
        let total_packets = specs.len() as u64;
        enqueue_all(&mut net, &specs);

        let mut tails = 0u64;
        for c in 0..100_000u64 {
            net.step(c);
            tails += net.take_ejected().iter().filter(|e| e.flit.is_tail()).count() as u64;
            if net.is_drained() {
                break;
            }
        }
        prop_assert!(net.is_drained());
        prop_assert_eq!(tails + net.fault_counters().packets_dropped, total_packets);
    }
}

/// Claim 3: with `FaultConfig::default()` the simulator output is
/// bit-identical to the pre-fault-subsystem golden run — the machinery
/// is provably disengaged on the default path.
#[test]
fn disabled_faults_match_pre_fault_golden_bits() {
    use mira_noc::sim::{SimConfig, Simulator};
    use mira_noc::traffic::UniformRandom;

    let cfg = SimConfig::short().with_faults(FaultConfig::default());
    let mut sim = Simulator::new(Box::new(Mesh2D::new(4, 4)), NetworkConfig::default(), cfg);
    let r = sim.run(Box::new(UniformRandom::new(0.10, 5, 42)));

    // Bits captured from the simulator immediately before the fault
    // subsystem was introduced (same topology, config, and workload).
    assert_eq!(r.avg_latency.to_bits(), 0x4039080000000000, "avg latency drifted");
    assert_eq!(r.avg_hops.to_bits(), 0x4004eaaaaaaaaaab, "avg hops drifted");
    assert_eq!(r.throughput.to_bits(), 0x3fb7851eb851eb85, "throughput drifted");
    assert_eq!(r.packets_created, 288);
    assert_eq!(r.packets_ejected, 288);
    assert_eq!(r.counters.xbar_traversals_raw, 5303);
    assert_eq!(r.stalls.stalled, 2732);
    assert_eq!(r.packets_dropped, 0);
    assert_eq!(r.faults, mira_noc::fault::FaultCounters::new());
}
