//! The cycle-accurate virtual-channel wormhole router.
//!
//! Implements the canonical four-stage pipeline of the paper's Fig. 8(a):
//!
//! ```text
//! RC  → VA  → SA  → ST [→ LT]
//! ```
//!
//! * **RC** — route computation on the head flit (dimension-ordered,
//!   delegated to the topology),
//! * **VA** — two-stage virtual-channel allocation: VA1 picks the desired
//!   output VC (one VC per traffic class, paper §3.2.4), VA2 arbitrates
//!   among the input VCs contending for it (paper §3.2.5),
//! * **SA** — two-stage separable switch allocation: SA1 picks one VC per
//!   input port, SA2 one input port per output port (paper §3.2.6),
//! * **ST** — switch traversal; with the multi-layered design's short
//!   wires the link traversal **LT** merges into the same cycle
//!   (paper §3.4.1, Table 3), otherwise it takes one more.
//!
//! Flow control is credit-based: credits are debited at SA grant (so a
//! grant can never overflow the downstream buffer) and returned one cycle
//! after the downstream buffer slot frees.
//!
//! Every energy-relevant event is reported to [`ActivityCounters`]; events
//! on the separable datapath carry the flit's active-layer fraction when
//! short-flit shutdown is enabled (paper §3.2.1).
//!
//! # Dense layout (DESIGN.md §14)
//!
//! A router's hot state is three compact tables beside a small struct:
//!
//! * one 16-byte record per `(port, vc)` pair, keyed by `pv = port*vcs +
//!   vc`, holding both roles of the pair — as an *input* VC its pipeline
//!   state, route, FIFO head and length and the packet it services; as
//!   an *output* VC its owner, downstream credits and VA2 arbiter;
//! * one 16-byte record per port: link ids, SA1/SA2 arbiters, the
//!   pending switch grant, and the paused and dead bits;
//! * the FIFO slots themselves, `depth` [`BufSlot`]s per `pv`, each a
//!   flit header carried by value, so no stage reads the network's
//!   [`FlitArena`].
//!
//! The per-cycle transient state the stages need is borrowed from a
//! caller-owned [`StepScratch`] — the pipeline allocates nothing per
//! cycle.

use std::collections::HashSet;

use mira_obs::phase::{scope as obs_scope, Phase as ObsPhase};

use crate::arbiter::RoundRobinArbiter;
use crate::arena::{FlitArena, FlitRef};
use crate::buffer::{ring_index, BufSlot, FlitHeader};
use crate::config::{NetworkConfig, PipelineConfig};
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::link::{Link, WireTable};
use crate::packet::PacketId;
use crate::routing::apply_fault_mask;
use crate::shard::{Effect, StepFx};
use crate::stats::RouterActivity;
use crate::telemetry::{RouterTelemetry, StallCause, StallCounters, TraceEvent, TraceEventKind};
use crate::topology::Topology;
use crate::vc::VcState;

/// A flit that reached its destination, with arrival metadata.
#[derive(Debug, Clone)]
pub struct EjectedFlit {
    /// The flit (hop count and timestamps inside).
    pub flit: Flit,
    /// Node at which it ejected.
    pub node: NodeId,
    /// Cycle of ejection (its ST cycle at the destination router).
    pub cycle: u64,
}

/// Reusable per-cycle working memory for [`Router::step`].
///
/// Every transient collection the pipeline stages need lives here and is
/// re-zeroed instead of reallocated, which is what makes the
/// steady-state step loop allocation-free. One scratch, sized for the
/// largest router, is shared across all routers of a network.
#[derive(Debug)]
pub struct StepScratch {
    /// SA2 request masks bucketed by output port: bit `ip` requests on
    /// behalf of input port `ip` (set by SA1 winners, drained and
    /// re-zeroed by SA2).
    sa2_req: Vec<u64>,
    /// SA1 winners: the granted input `pv` per input port.
    sa1: Vec<u8>,
    /// VA2 request masks bucketed by flat `(out_port, out_vc)` index:
    /// bit `pv` requests on behalf of input VC `pv`.
    va_line_masks: Vec<u64>,
    /// Route candidates of the head flit under consideration.
    candidates: Vec<PortId>,
}

impl StepScratch {
    /// Creates scratch space for routers of up to `ports` ports and
    /// `vcs` VCs per port.
    pub fn new(ports: usize, vcs: usize) -> Self {
        StepScratch {
            sa2_req: vec![0; ports],
            sa1: vec![0; ports],
            va_line_masks: vec![0; ports * vcs],
            candidates: Vec::with_capacity(8),
        }
    }
}

/// Pipeline-state tags of a [`VcRec`] (the discriminants of [`VcState`]).
const IDLE: u8 = 0;
const ROUTING: u8 = 1;
const WAITING: u8 = 2;
const ACTIVE: u8 = 3;
/// No owner in [`VcRec::owner`], no grant in [`PortRec::grant`].
const NONE: u8 = u8::MAX;
/// No link in a [`PortRec`].
const NO_LINK: u32 = u32::MAX;

/// Both roles of one `(port, vc)` pair.
#[derive(Debug, Clone, Copy)]
struct VcRec {
    /// Input role: the packet the VC services (meaningful unless idle).
    packet: PacketId,
    /// Input role: the pipeline-state tag.
    tag: u8,
    /// Input role: the flat `(out_port, out_vc)` index of the route —
    /// VC 0 of the chosen port while waiting, the granted VC once active.
    out: u8,
    /// Input role: the FIFO ring's head slot and length.
    head: u8,
    len: u8,
    /// Output role: the input `pv` holding this output VC, or [`NONE`].
    owner: u8,
    /// Output role: downstream credits.
    credits: u8,
    /// Output role: VA2 arbitration among the input `pv` lines.
    va2: RoundRobinArbiter,
}

/// One port: its links, switch arbiters, pending grant and fault bits.
#[derive(Debug, Clone, Copy)]
struct PortRec {
    /// Link feeding this input port (upstream credit returns), or
    /// [`NO_LINK`] for the local port.
    in_link: u32,
    /// Link carrying flits out of this output port, or [`NO_LINK`] for
    /// the local port and edge ports.
    out_link: u32,
    /// SA1 arbitration among this input port's VCs.
    sa1: RoundRobinArbiter,
    /// SA2 arbitration among the input ports requesting this output.
    sa2: RoundRobinArbiter,
    /// The input `pv` granted this output port for the coming ST, or
    /// [`NONE`].
    grant: u8,
    /// The output link is in retransmission backoff this cycle (SA
    /// pauses grants toward it and charges `LinkFault`).
    paused: bool,
    /// The output link has permanently died.
    dead: bool,
}

/// One router: its VC and port records, FIFO slots, and the pipeline.
///
/// The layout is fixed and cache-line aligned so that the first line
/// holds everything the per-cycle quiescence check and the stages'
/// early-outs read (the work-list and grant masks, the occupancy), and
/// the second the table pointers a stepped router dereferences: an idle
/// router costs the fabric scan one line.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct Router {
    /// Bit per `pv` in `Routing` state — the RC stage iterates set bits
    /// instead of scanning every VC (see [`Router::set_state`]).
    routing_mask: u64,
    /// Bit per `pv` in `WaitingVc` state (VA1 work list).
    waiting_mask: u64,
    /// Bit per `pv` in `Active` state (SA1 work list).
    active_mask: u64,
    /// Bit per output port holding a switch grant for the coming ST.
    grant_mask: u64,
    /// Flits buffered across every FIFO (the O(1) occupancy read), and
    /// the highest count ever (host-side watermark; never read by the
    /// simulation).
    occupied: u32,
    occupied_peak: u32,
    vcs: usize,
    depth: usize,
    ports: usize,
    /// Per-`(port, vc)` records.
    vc: Box<[VcRec]>,
    /// Per-port records.
    port: Box<[PortRec]>,
    /// FIFO storage: `pv`'s ring is slots `pv*depth .. (pv+1)*depth`.
    slots: Box<[BufSlot]>,
    /// Telemetry counts: flits sent per output port, then per-layer
    /// count of switch traversals in which the layer was powered. One
    /// block, so [`Router::telemetry`] hands both out as slices.
    counts: Box<[u64]>,
    id: NodeId,
    /// Number of physical datapath layers (duty-cycle denominator).
    layers: usize,
    /// Total switch traversals (denominator for the layer counts).
    layer_events: u64,
    /// Route computations diverted around a dead link (fault
    /// telemetry).
    reroutes: u64,
    /// Stall cycles attributed by cause (telemetry; never read by the
    /// pipeline itself).
    stalls: StallCounters,
    pipeline: PipelineConfig,
    layer_shutdown: bool,
    /// Fault-aware routing enabled: RC masks dead output ports and
    /// detours around them. Off (and free) unless fault injection with
    /// rerouting is configured.
    fault_routing: bool,
    /// Chaos hook: when set, the switch allocator issues no grants, so
    /// every flit entering this router parks forever — a deterministic
    /// way to exercise the no-progress watchdog. Never set outside
    /// chaos testing.
    sa_frozen: bool,
}

impl Router {
    /// Creates a router with `ports` ports (including local) configured
    /// per `cfg`. Link wiring is attached afterwards by the network.
    ///
    /// # Panics
    ///
    /// Panics if the router has more than 64 `(port, vc)` pairs or a
    /// buffer deeper than 255 flits (the records hold both as bytes).
    pub fn new(id: NodeId, ports: usize, cfg: &NetworkConfig) -> Self {
        let vcs = cfg.router.vcs_per_port;
        let depth = cfg.router.buffer_depth;
        let pvs = ports * vcs;
        assert!(pvs <= 64, "router supports at most 64 (port, vc) pairs");
        let credits = u8::try_from(depth).expect("router supports buffers of at most 255 flits");
        let vc = VcRec {
            packet: PacketId(0),
            tag: IDLE,
            out: 0,
            head: 0,
            len: 0,
            owner: NONE,
            credits,
            va2: RoundRobinArbiter::new(pvs),
        };
        let port = PortRec {
            in_link: NO_LINK,
            out_link: NO_LINK,
            sa1: RoundRobinArbiter::new(vcs),
            sa2: RoundRobinArbiter::new(ports),
            grant: NONE,
            paused: false,
            dead: false,
        };
        Router {
            id,
            ports,
            vcs,
            depth,
            layers: cfg.layers,
            pipeline: cfg.router.pipeline,
            layer_shutdown: cfg.layer_shutdown,
            routing_mask: 0,
            waiting_mask: 0,
            active_mask: 0,
            grant_mask: 0,
            occupied: 0,
            occupied_peak: 0,
            vc: vec![vc; pvs].into_boxed_slice(),
            port: vec![port; ports].into_boxed_slice(),
            slots: vec![BufSlot::EMPTY; pvs * depth].into_boxed_slice(),
            counts: vec![0; ports + cfg.layers].into_boxed_slice(),
            layer_events: 0,
            stalls: StallCounters::new(),
            reroutes: 0,
            fault_routing: false,
            sa_frozen: false,
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of ports (including local).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Flat `(port, vc)` index into the per-VC records.
    #[inline]
    fn pv(&self, port: PortId, vc: VcId) -> usize {
        port.index() * self.vcs + vc.index()
    }

    /// Attaches the outgoing link at `port` (wiring pass).
    pub(crate) fn set_out_link(&mut self, port: PortId, link: usize) {
        self.port[port.index()].out_link = u32::try_from(link).expect("link index exceeds u32");
    }

    /// Attaches the incoming link at `port` (wiring pass).
    pub(crate) fn set_in_link(&mut self, port: PortId, link: usize) {
        self.port[port.index()].in_link = u32::try_from(link).expect("link index exceeds u32");
    }

    /// The link leaving output port `p`, if wired.
    #[inline]
    fn out_link(&self, p: usize) -> Option<usize> {
        let li = self.port[p].out_link;
        (li != NO_LINK).then_some(li as usize)
    }

    /// The link feeding input port `p`, if wired.
    #[inline]
    fn in_link(&self, p: usize) -> Option<usize> {
        let li = self.port[p].in_link;
        (li != NO_LINK).then_some(li as usize)
    }

    /// The pipeline state of input VC `pv`, decoded from its record.
    fn state(&self, pv: usize) -> VcState {
        let r = self.vc[pv];
        let (out_port, out_vc) =
            (PortId(r.out as usize / self.vcs), VcId(r.out as usize % self.vcs));
        match r.tag {
            IDLE => VcState::Idle,
            ROUTING => VcState::Routing,
            WAITING => VcState::WaitingVc { out_port },
            _ => VcState::Active { out_port, out_vc },
        }
    }

    /// The single write path for per-VC pipeline state: keeps the
    /// per-state bitmasks (the stage work lists) exactly in sync with
    /// the records.
    #[inline]
    fn set_state(&mut self, pv: usize, state: VcState) {
        let bit = 1u64 << pv;
        self.routing_mask &= !bit;
        self.waiting_mask &= !bit;
        self.active_mask &= !bit;
        let (tag, out) = match state {
            VcState::Idle => (IDLE, 0),
            VcState::Routing => (ROUTING, 0),
            VcState::WaitingVc { out_port } => {
                self.waiting_mask |= bit;
                (WAITING, self.pv(out_port, VcId(0)))
            }
            VcState::Active { out_port, out_vc } => {
                self.active_mask |= bit;
                (ACTIVE, self.pv(out_port, out_vc))
            }
        };
        if tag == ROUTING {
            self.routing_mask |= bit;
        }
        let r = &mut self.vc[pv];
        r.tag = tag;
        r.out = out as u8;
    }

    /// The flit at the front of FIFO `pv`, if any.
    #[inline]
    fn front(&self, pv: usize) -> Option<&BufSlot> {
        let r = &self.vc[pv];
        (r.len > 0).then(|| &self.slots[pv * self.depth + r.head as usize])
    }

    /// `true` if the front flit of FIFO `pv` exists and is ready at
    /// `cycle`.
    #[inline]
    fn front_ready(&self, pv: usize, cycle: u64) -> bool {
        self.front(pv).is_some_and(|t| t.ready_at <= cycle)
    }

    /// Writes `slot` into FIFO `pv`.
    ///
    /// # Panics
    ///
    /// Panics on overflow — credits must guarantee space, so overflow is
    /// a flow-control bug, not a recoverable condition.
    #[inline]
    fn push(&mut self, pv: usize, slot: BufSlot) {
        let r = &mut self.vc[pv];
        assert!((r.len as usize) < self.depth, "VC buffer overflow: credit accounting is broken");
        let i = ring_index(r.head as usize, r.len as usize, self.depth);
        r.len += 1;
        self.slots[pv * self.depth + i] = slot;
        self.occupied += 1;
        self.occupied_peak = self.occupied_peak.max(self.occupied);
    }

    /// Removes and returns the front flit of FIFO `pv`.
    #[inline]
    fn pop(&mut self, pv: usize) -> Option<BufSlot> {
        let r = &mut self.vc[pv];
        if r.len == 0 {
            return None;
        }
        let slot = self.slots[pv * self.depth + r.head as usize];
        r.head = ring_index(r.head as usize, 1, self.depth) as u8;
        r.len -= 1;
        self.occupied -= 1;
        Some(slot)
    }

    /// A head flit buffered into an idle VC starts the next packet's
    /// pipeline occupancy: the VC enters `Routing` and records the
    /// packet it now services.
    fn on_flit_buffered(&mut self, pv: usize) {
        if self.vc[pv].tag == IDLE {
            if let Some(front) = self.front(pv) {
                debug_assert!(front.hdr.is_head(), "an idle VC must only receive head flits first");
                self.vc[pv].packet = front.hdr.packet;
                self.set_state(pv, VcState::Routing);
            }
        }
    }

    /// The tail's switch traversal frees the VC; if the next packet's
    /// head is already buffered the VC re-enters `Routing` immediately.
    fn on_tail_departed(&mut self, pv: usize) {
        self.set_state(pv, VcState::Idle);
        self.on_flit_buffered(pv);
    }

    /// Buffers the flit `hdr` describes into input port `port`, VC
    /// `hdr.vc`, returning the active-layer fraction of the buffer
    /// write. The caller owns the global accounting — with N shards the
    /// buffer push happens on the owning worker while the f64 counter
    /// addition replays on the calling thread in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (credit-accounting violation).
    #[inline]
    pub(crate) fn receive(&mut self, port: PortId, hdr: FlitHeader, cycle: u64) -> f64 {
        let pv = self.pv(port, hdr.vc());
        self.push(pv, BufSlot { hdr, ready_at: cycle });
        self.on_flit_buffered(pv);
        hdr.fraction(self.layer_shutdown)
    }

    /// Accepts the flit at `fref` (whose contents are `flit`) into the
    /// input buffer at (`port`, `vc`), returning the active-layer
    /// fraction of the buffer write (see [`Router::receive`]).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (credit-accounting violation).
    pub fn receive_flit(
        &mut self,
        port: PortId,
        vc: VcId,
        fref: FlitRef,
        flit: &Flit,
        cycle: u64,
    ) -> f64 {
        self.receive(port, FlitHeader::of(fref, flit, vc), cycle)
    }

    /// Accepts a returned credit for output VC (`port`, `vc`).
    ///
    /// # Panics
    ///
    /// Panics if the credit count overflows its byte — far past the
    /// `credits > depth` violation [`Router::credit_overflows`] reports.
    #[inline]
    pub fn receive_credit(&mut self, port: PortId, vc: VcId) {
        let pv = self.pv(port, vc);
        let c = &mut self.vc[pv].credits;
        *c = c.checked_add(1).expect("credit counter overflow: credit conservation is broken");
    }

    /// Free slots in the local input buffer for VC `vc` (used by the
    /// network interface to pace injection).
    #[inline]
    pub fn local_free_slots(&self, vc: VcId) -> usize {
        self.depth - self.vc[self.pv(PortId::LOCAL, vc)].len as usize
    }

    /// Total flits currently buffered in this router (conservation
    /// checks; O(1) — occupancy is tracked incrementally).
    #[inline]
    pub fn buffered_flits(&self) -> usize {
        self.occupied as usize
    }

    /// Highest total buffer occupancy this router ever reached
    /// (host-side watermark; see `mira-obs`).
    pub fn buffer_peak(&self) -> usize {
        self.occupied_peak as usize
    }

    /// Returns `true` if the router holds no flits and has no pending
    /// switch grants. A quiescent router's [`Router::step`] is a
    /// provable no-op — no counter, stall, trace, or arbiter mutation —
    /// which is what lets the network skip it entirely (the active-set
    /// optimisation; see DESIGN.md §14).
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.occupied == 0 && self.grant_mask == 0
    }

    /// The headers of every buffered flit, FIFO by FIFO (the black box
    /// reads hop counts here).
    pub(crate) fn buffered(&self) -> impl Iterator<Item = &FlitHeader> {
        (0..self.vc.len()).flat_map(move |pv| {
            let r = self.vc[pv];
            (0..r.len as usize).map(move |k| {
                &self.slots[pv * self.depth + ring_index(r.head as usize, k, self.depth)].hdr
            })
        })
    }

    /// Verifies the dense core's invariants, panicking with a diagnostic
    /// on the first violation. Checked properties:
    ///
    /// * each per-state mask (`routing`/`waiting`/`active`) holds exactly
    ///   the VCs whose record carries that state — the stages iterate
    ///   the masks, so a desync would silently skip pipeline work;
    /// * `Routing` and `WaitingVc` VCs hold a buffered head flit (which
    ///   is what makes the quiescence skip sound: an empty router can
    ///   have no routable or waiting VC);
    /// * FIFO lengths sum to the occupancy count and stay within the
    ///   depth, and every output VC's credits stay within the depth;
    /// * output-VC ownership is a matching: each owned output VC's owner
    ///   is an `Active` input VC that names it back, and each `Active`
    ///   input VC owns exactly the output VC it names (so none owns two);
    /// * a quiescent router has empty routing and waiting masks.
    ///
    /// This is a test/debug facility; it walks every VC and is not meant
    /// for per-cycle production use.
    pub fn assert_worklists_consistent(&self) {
        let id = self.id;
        let mut buffered = 0usize;
        for pv in 0..self.vc.len() {
            let bit = 1u64 << pv;
            let (r, w, a) = (
                self.routing_mask & bit != 0,
                self.waiting_mask & bit != 0,
                self.active_mask & bit != 0,
            );
            let state = self.state(pv);
            let expect = match state {
                VcState::Idle => (false, false, false),
                VcState::Routing => (true, false, false),
                VcState::WaitingVc { .. } => (false, true, false),
                VcState::Active { .. } => (false, false, true),
            };
            assert_eq!((r, w, a), expect, "router {id}: pv {pv} {state:?} disagrees with masks");
            if matches!(state, VcState::Routing | VcState::WaitingVc { .. }) {
                let front = self.front(pv);
                assert!(
                    front.is_some_and(|t| t.hdr.is_head()),
                    "router {id}: pv {pv} is {state:?} without a buffered head flit"
                );
            }
            let rec = self.vc[pv];
            assert!(rec.len as usize <= self.depth, "router {id}: pv {pv} FIFO over depth");
            buffered += rec.len as usize;
            assert!(
                rec.credits as usize <= self.depth,
                "router {id}: output VC {pv} holds {} credits for a depth of {}",
                rec.credits,
                self.depth
            );
            if rec.owner != NONE {
                let o = self.vc[rec.owner as usize];
                assert!(
                    o.tag == ACTIVE && o.out as usize == pv,
                    "router {id}: output VC {pv} owned by pv {} which does not name it",
                    rec.owner
                );
            }
            if let VcState::Active { out_port, out_vc } = state {
                let ov = self.pv(out_port, out_vc);
                assert_eq!(
                    self.vc[ov].owner as usize, pv,
                    "router {id}: active pv {pv} does not own its output VC {ov}"
                );
            }
        }
        assert_eq!(buffered, self.occupied as usize, "router {id}: occupancy count drifted");
        for p in 0..self.ports {
            let granted = self.grant_mask & (1u64 << p) != 0;
            assert_eq!(granted, self.port[p].grant != NONE, "router {id}: port {p} grant drifted");
        }
        if self.is_quiescent() {
            assert_eq!(
                self.routing_mask | self.waiting_mask,
                0,
                "router {id}: quiescent but holds routable or waiting VCs"
            );
        }
    }

    /// Cumulative stall-cause counters since construction.
    pub fn stall_counters(&self) -> &StallCounters {
        &self.stalls
    }

    /// Live view of this router's cumulative telemetry counters (the
    /// metrics collector diffs successive views to form windows).
    pub fn telemetry(&self) -> RouterTelemetry<'_> {
        let (port_flits_out, layer_active) = self.counts.split_at(self.ports);
        RouterTelemetry {
            stalls: self.stalls,
            port_flits_out,
            layer_active,
            layer_events: self.layer_events,
        }
    }

    /// Enables fault-aware route computation: dead output ports are
    /// masked out of the candidate set and detoured around.
    pub(crate) fn set_fault_routing(&mut self, enabled: bool) {
        self.fault_routing = enabled;
    }

    /// Marks an output port's link as permanently dead. Any VC whose
    /// computed route crosses the port but has not yet been granted an
    /// output VC is sent back to route computation so the mask (or the
    /// detour fallback) can pick a live port. VCs already streaming
    /// (`Active`) keep their route; the network black-holes their flits
    /// at the dead link and refluxes the credits.
    pub(crate) fn on_port_death(&mut self, port: PortId) {
        self.port[port.index()].dead = true;
        for pv in 0..self.vc.len() {
            if self.state(pv) == (VcState::WaitingVc { out_port: port }) {
                self.set_state(pv, VcState::Routing);
            }
        }
    }

    /// Marks an output port's link as paused (retransmission backoff in
    /// progress) or live again. SA skips paused ports and charges the
    /// [`StallCause::LinkFault`] cause.
    pub(crate) fn set_link_paused(&mut self, port: PortId, paused: bool) {
        self.port[port.index()].paused = paused;
    }

    /// Route computations diverted around dead links so far.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Chaos hook: freezes the switch allocator permanently, so this
    /// router accepts flits but never grants the switch — the
    /// deterministic stall the no-progress watchdog is tested against.
    pub(crate) fn freeze_sa(&mut self) {
        self.sa_frozen = true;
    }

    /// A compact word summarising this router's fabric-facing state:
    /// the three work-list masks, the buffer occupancy and the pending
    /// switch grants. Any flit movement, state transition or grant
    /// changes it, so the no-progress watchdog can hash it per cycle
    /// instead of comparing full state.
    pub(crate) fn progress_word(&self) -> [u64; 5] {
        [
            self.routing_mask,
            self.waiting_mask,
            self.active_mask,
            u64::from(self.occupied),
            u64::from(self.grant_mask.count_ones()),
        ]
    }

    /// Age in cycles of the oldest ready head-of-FIFO flit at this
    /// router (0 when every FIFO is empty) — the starvation detector's
    /// subject.
    pub(crate) fn max_head_age(&self, cycle: u64) -> u64 {
        (0..self.vc.len())
            .filter_map(|pv| self.front(pv))
            .map(|s| cycle.saturating_sub(s.ready_at))
            .max()
            .unwrap_or(0)
    }

    /// Number of output VCs holding more downstream credits than the
    /// buffer depth they track — any non-zero value is a
    /// credit-conservation violation.
    pub(crate) fn credit_overflows(&self) -> u64 {
        self.vc.iter().filter(|r| r.credits as usize > self.depth).count() as u64
    }

    /// Freezes this router's state into a
    /// [`RouterDump`](crate::recorder::RouterDump) for the black box.
    /// `x`/`y` are the topology coordinates (passed in because the
    /// router does not know where it sits).
    pub(crate) fn dump(&self, cycle: u64, x: u64, y: u64) -> crate::recorder::RouterDump {
        let mut vcs = Vec::new();
        for pv in 0..self.vc.len() {
            let state = self.state(pv);
            let occupancy = self.vc[pv].len as usize;
            if state == VcState::Idle && occupancy == 0 {
                continue;
            }
            let (out_port, out_vc) = match state {
                VcState::Idle | VcState::Routing => (None, None),
                VcState::WaitingVc { out_port } => (Some(out_port.index() as u64), None),
                VcState::Active { out_port, out_vc } => {
                    (Some(out_port.index() as u64), Some(out_vc.index() as u64))
                }
            };
            vcs.push(crate::recorder::VcDump {
                pv: pv as u64,
                port: (pv / self.vcs) as u64,
                vc: (pv % self.vcs) as u64,
                state: match state {
                    VcState::Idle => "idle",
                    VcState::Routing => "routing",
                    VcState::WaitingVc { .. } => "waiting_vc",
                    VcState::Active { .. } => "active",
                }
                .to_string(),
                out_port,
                out_vc,
                packet: (state != VcState::Idle).then_some(self.vc[pv].packet.0),
                occupancy: occupancy as u64,
                head_age: self.front(pv).map(|s| cycle.saturating_sub(s.ready_at)),
                credits: u64::from(self.vc[pv].credits),
            });
        }
        crate::recorder::RouterDump {
            router: self.id.index() as u64,
            x,
            y,
            buffered: u64::from(self.occupied),
            routing_mask: self.routing_mask,
            waiting_mask: self.waiting_mask,
            active_mask: self.active_mask,
            sa_frozen: self.sa_frozen,
            vcs,
        }
    }

    /// Minimal-detour fallback when the fault mask empties the candidate
    /// set: among the live, wired output ports (excluding the u-turn back
    /// out of the input port, which could ping-pong forever), pick the
    /// one whose neighbour minimises the remaining hop distance, lowest
    /// port on ties. Falls back to allowing the u-turn if it is the only
    /// live port left.
    fn detour_port(&self, topo: &dyn Topology, in_port: PortId, dst: NodeId) -> PortId {
        let best = |allow_uturn: bool| -> Option<PortId> {
            (1..self.ports)
                .filter(|&p| !self.port[p].dead && self.out_link(p).is_some())
                .filter(|&p| allow_uturn || PortId(p) != in_port)
                .filter_map(|p| {
                    topo.neighbor(self.id, PortId(p)).map(|n| (topo.min_hops(n, dst), p))
                })
                .min()
                .map(|(_, p)| PortId(p))
        };
        best(false)
            .or_else(|| best(true))
            .expect("no live output port left for detour: node is fully disconnected")
    }

    /// Returns `true` when input VC `pv` holds a switch grant scheduled
    /// for the coming ST phase (the reaper must not purge such a VC —
    /// ST would pop an empty buffer).
    fn has_st_grant(&self, pv: usize) -> bool {
        self.port.iter().any(|p| p.grant as usize == pv)
    }

    /// Purges buffered flits belonging to severed (dropped) packets and
    /// refluxes their credits upstream, releasing any held output VC.
    /// Returns the number of flits purged. Called by the network's fault
    /// layer before the router phase each cycle; VCs holding a pending
    /// switch grant are skipped until the grant drains.
    pub(crate) fn purge_severed(
        &mut self,
        severed: &HashSet<PacketId>,
        cycle: u64,
        arena: &mut FlitArena,
        wires: &mut WireTable,
    ) -> u64 {
        let mut purged = 0u64;
        for ip in 0..self.ports {
            for iv in 0..self.vcs {
                let pv = ip * self.vcs + iv;
                let rec = self.vc[pv];
                if rec.tag == IDLE || !severed.contains(&rec.packet) || self.has_st_grant(pv) {
                    continue;
                }
                let mut popped = 0u64;
                while self.front(pv).is_some_and(|s| s.hdr.packet == rec.packet) {
                    let slot = self.pop(pv).expect("front exists");
                    arena.free(slot.hdr.fref);
                    popped += 1;
                }
                // Each popped flit frees a slot the upstream router
                // already paid a credit for.
                if let Some(li) = self.in_link(ip) {
                    let mut wire = wires.wire(li);
                    for _ in 0..popped {
                        wire.send_credit(VcId(iv), Link::delivery_cycle(cycle, 0));
                    }
                }
                if rec.tag == ACTIVE {
                    let ov = rec.out as usize;
                    debug_assert_eq!(self.vc[ov].owner as usize, pv);
                    self.vc[ov].owner = NONE;
                }
                purged += popped;
                self.set_state(pv, VcState::Idle);
                self.on_flit_buffered(pv);
            }
        }
        purged
    }

    /// Advances the router by one cycle.
    ///
    /// The phase order within the cycle realises the configured pipeline
    /// depth (paper Fig. 8): running a later stage *after* an earlier one
    /// lets a flit advance two stages in the same cycle, which is how the
    /// speculative organisations shorten the pipeline:
    ///
    /// * **four-stage** — ST → SA → VA → RC: every grant takes effect the
    ///   next cycle (one cycle per stage; 5 per hop with separate LT);
    /// * **three-stage speculative** — ST → VA → SA → RC: a head flit
    ///   that wins VA arbitrates for the switch in the same cycle
    ///   (speculative SA; failure degenerates into a retry);
    /// * **two-stage look-ahead** — ST → RC → VA → SA: the route is also
    ///   available in the arrival cycle, modelling look-ahead routing.
    ///
    /// Every mutation of shared (cross-router) state goes through the
    /// [`StepFx`] seam: [`crate::shard::DirectFx`] applies it inline
    /// (one shard, or a fault run) while [`crate::shard::DeferredFx`]
    /// applies the shard-owned effects in place and logs the rest for
    /// ordered replay (N shards). Monomorphisation keeps the inline path
    /// free of virtual-call overhead.
    pub(crate) fn step<F: StepFx>(
        &mut self,
        cycle: u64,
        topo: &dyn Topology,
        scratch: &mut StepScratch,
        activity: &mut RouterActivity,
        fx: &mut F,
    ) {
        self.stage_st(cycle, activity, &mut *fx);
        match self.pipeline.depth {
            crate::config::PipelineDepth::FourStage => {
                self.stage_sa(cycle, scratch, &mut *fx);
                self.stage_va(cycle, scratch, &mut *fx);
                self.stage_rc(cycle, topo, scratch, &mut *fx);
            }
            crate::config::PipelineDepth::ThreeStageSpeculative => {
                self.stage_va(cycle, scratch, &mut *fx);
                self.stage_sa(cycle, scratch, &mut *fx);
                self.stage_rc(cycle, topo, scratch, &mut *fx);
            }
            crate::config::PipelineDepth::TwoStageLookahead => {
                self.stage_rc(cycle, topo, scratch, &mut *fx);
                self.stage_va(cycle, scratch, &mut *fx);
                self.stage_sa(cycle, scratch, fx);
            }
        }
    }

    /// ST: execute last cycle's switch grants, in ascending output-port
    /// order (the order SA2 issued them).
    fn stage_st<F: StepFx>(&mut self, cycle: u64, activity: &mut RouterActivity, fx: &mut F) {
        let _obs = obs_scope(ObsPhase::StageSt);
        let traced = fx.traced();
        while self.grant_mask != 0 {
            let op = self.grant_mask.trailing_zeros() as usize;
            self.grant_mask &= self.grant_mask - 1;
            let pv = std::mem::replace(&mut self.port[op].grant, NONE) as usize;
            let ov = self.vc[pv].out as usize;
            let (in_port, in_vc) = (PortId(pv / self.vcs), VcId(pv % self.vcs));
            let (out_port, out_vc) = (PortId(op), VcId(ov % self.vcs));
            let slot = self.pop(pv).expect("SA granted an empty VC");
            let mut hdr = slot.hdr;
            if hdr.is_head() && fx.journeys_on() {
                fx.commit(Effect::JourneySt { packet: hdr.packet, out_port });
            }
            let (fraction, active_layers) = if self.layer_shutdown {
                let words = usize::from(hdr.words);
                let active = (usize::from(hdr.active) * self.layers).div_ceil(words);
                (hdr.fraction(true), active.min(self.layers))
            } else {
                (1.0, self.layers)
            };
            fx.commit(Effect::StRead { fraction });
            activity.buffer_events += fraction;
            activity.xbar_events += fraction;
            activity.xbar_events_raw += 1;

            // Duty-cycle accounting: which datapath layers powered this
            // traversal. Flit words map onto layers MSB-down, so the
            // first `active_layers` layers carry the active words.
            self.counts[op] += 1;
            for l in &mut self.counts[self.ports..self.ports + active_layers] {
                *l += 1;
            }
            self.layer_events += 1;
            if traced {
                fx.commit(Effect::Trace(TraceEvent {
                    cycle,
                    router: self.id,
                    port: in_port,
                    vc: in_vc,
                    kind: TraceEventKind::SwitchTraversal,
                    packet: hdr.packet.0,
                    detail: op as u32,
                }));
                if active_layers < self.layers {
                    fx.commit(Effect::Trace(TraceEvent {
                        cycle,
                        router: self.id,
                        port: out_port,
                        vc: out_vc,
                        kind: TraceEventKind::LayerGate,
                        packet: hdr.packet.0,
                        detail: (self.layers - active_layers) as u32,
                    }));
                }
            }

            // Return a credit upstream for the freed buffer slot.
            if let Some(li) = self.in_link(in_port.index()) {
                fx.send_credit(li, in_vc, cycle + 1);
            }

            if out_port.is_local() {
                fx.commit(Effect::Eject {
                    fref: hdr.fref,
                    hops: hdr.hops,
                    node: self.id,
                    tail: hdr.is_tail(),
                });
            } else {
                let li = self.out_link(op).expect("route led through a port with no link");
                activity.link_flit_mm += fx.link_length_mm(li) * fraction;
                let deliver = Link::delivery_cycle(cycle, self.pipeline.link_extra_cycles());
                hdr.hop();
                hdr.vc = out_vc.index() as u8;
                fx.forward(li, hdr, deliver, fraction);
            }

            if hdr.is_tail() {
                self.vc[ov].owner = NONE;
                self.on_tail_departed(pv);
            }
        }
    }

    /// Charges one stall of `cause` to VC `pv` and, when journeys are
    /// on, to the journey of the flit at its front.
    fn stall<F: StepFx>(&mut self, fx: &mut F, pv: usize, cause: StallCause) {
        self.stalls.record(cause);
        if fx.journeys_on() {
            if let Some(t) = self.front(pv) {
                let (packet, head) = (t.hdr.packet, t.hdr.is_head());
                fx.commit(Effect::JourneyStall { packet, router: self.id, cause, head });
            }
        }
    }

    /// SA: separable two-stage switch allocation; winners traverse next
    /// cycle. Credits are debited here so grants never overcommit.
    ///
    /// Stall attribution happens here for switch-ready flits: an active
    /// VC whose downstream buffer holds no credit is charged `NoCredit`;
    /// an eligible VC that fails to receive an ST grant (lost SA1 or SA2)
    /// is charged `SaLoss`. The two sets are disjoint, so each stalled
    /// VC-cycle carries exactly one cause.
    fn stage_sa<F: StepFx>(&mut self, cycle: u64, scratch: &mut StepScratch, fx: &mut F) {
        let _obs = obs_scope(ObsPhase::StageSa);
        if self.active_mask == 0 || self.sa_frozen {
            // No VC holds the switch (or the chaos hook froze the
            // allocator): both allocation stages are no-ops.
            return;
        }
        let traced = fx.traced();
        // SA1: one candidate VC per input port. Only ports with an
        // `Active` VC (a set bit in the work-list mask) do any work.
        let vcs = self.vcs;
        let vc_bits = (1u64 << vcs) - 1;
        let (mut sa2_used, mut eligible) = (0u64, 0u64);
        for ip in 0..self.ports {
            let mut port_active = (self.active_mask >> (ip * vcs)) & vc_bits;
            if port_active == 0 {
                continue;
            }
            let mut elig_mask: u64 = 0;
            while port_active != 0 {
                let iv = port_active.trailing_zeros() as usize;
                port_active &= port_active - 1;
                let pv = ip * vcs + iv;
                if !self.front_ready(pv, cycle) {
                    continue;
                }
                let ov = self.vc[pv].out as usize;
                let local = ov < vcs;
                if !local && self.port[ov / vcs].paused {
                    // The outgoing link is replaying its window; new
                    // traffic would interleave into the resent stream.
                    self.stall(fx, pv, StallCause::LinkFault);
                    continue;
                }
                if local || self.vc[ov].credits > 0 {
                    elig_mask |= 1u64 << iv;
                } else {
                    self.stall(fx, pv, StallCause::NoCredit);
                }
            }
            if elig_mask == 0 {
                continue;
            }
            eligible |= elig_mask << (ip * vcs);
            fx.tallies().sa1 += 1;
            if let Some(iv) = self.port[ip].sa1.arbitrate_mask(elig_mask) {
                let pv = ip * vcs + iv;
                let op = self.vc[pv].out as usize / vcs;
                scratch.sa1[ip] = pv as u8;
                scratch.sa2_req[op] |= 1u64 << ip;
                sa2_used |= 1u64 << op;
            }
        }

        // SA2: one input port per output port, over the requested output
        // ports only (ascending, via the bucket-usage mask).
        while sa2_used != 0 {
            let op = sa2_used.trailing_zeros() as usize;
            sa2_used &= sa2_used - 1;
            fx.tallies().sa2 += 1;
            if let Some(ip) = self.port[op].sa2.arbitrate_mask(scratch.sa2_req[op]) {
                let pv = scratch.sa1[ip] as usize;
                let ov = self.vc[pv].out as usize;
                if op != PortId::LOCAL.index() {
                    let credits = &mut self.vc[ov].credits;
                    debug_assert!(*credits > 0, "SA granted without credit");
                    *credits -= 1;
                }
                if traced {
                    let packet = self.front(pv).map_or(0, |t| t.hdr.packet.0);
                    fx.commit(Effect::Trace(TraceEvent {
                        cycle,
                        router: self.id,
                        port: PortId(ip),
                        vc: VcId(pv % vcs),
                        kind: TraceEventKind::SwitchAlloc,
                        packet,
                        detail: op as u32,
                    }));
                }
                eligible &= !(1u64 << pv);
                self.port[op].grant = pv as u8;
                self.grant_mask |= 1u64 << op;
            }
            scratch.sa2_req[op] = 0;
        }

        // Every eligible VC that did not get the switch stalled on
        // arbitration this cycle.
        while eligible != 0 {
            let pv = eligible.trailing_zeros() as usize;
            eligible &= eligible - 1;
            self.stall(fx, pv, StallCause::SaLoss);
        }
    }

    /// VA: two-stage virtual-channel allocation for VCs holding a routed
    /// head flit.
    ///
    /// Stall attribution for head flits waiting on a VC: requesters of an
    /// output VC still owned by another packet are charged `RouteBusy`;
    /// losers of the arbitration for a free VC are charged `VaLoss`.
    fn stage_va<F: StepFx>(&mut self, cycle: u64, scratch: &mut StepScratch, fx: &mut F) {
        let _obs = obs_scope(ObsPhase::StageVa);
        if self.waiting_mask == 0 {
            return;
        }
        let traced = fx.traced();
        // VA1: each waiting input VC (a set bit in the work-list mask)
        // selects its desired output VC — one VC per traffic class
        // (control / data), clamped to the available VC count. Buckets
        // are left empty by VA2, so no clearing pass is needed here.
        let mut waiting = self.waiting_mask;
        let mut va2_used: u64 = 0;
        while waiting != 0 {
            let pv = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            if !self.front_ready(pv, cycle) {
                continue;
            }
            let class = self.front(pv).expect("waiting VC holds a head flit").hdr.class;
            let out_vc = class.vc_index().min(self.vcs - 1);
            fx.tallies().va1 += 1;
            let b = self.vc[pv].out as usize + out_vc;
            scratch.va_line_masks[b] |= 1u64 << pv;
            va2_used |= 1u64 << b;
        }

        // VA2: arbitrate per (output port, output VC) among requesters —
        // requested buckets only, ascending flat index; requesters stall
        // in ascending `pv` order.
        while va2_used != 0 {
            let b = va2_used.trailing_zeros() as usize;
            va2_used &= va2_used - 1;
            let mut requests = std::mem::take(&mut scratch.va_line_masks[b]);
            fx.tallies().va2 += 1;
            let cause = if self.vc[b].owner != NONE {
                // The target VC is held by an in-flight packet: every
                // requester stalls on route occupancy this cycle.
                StallCause::RouteBusy
            } else {
                let Some(line) = self.vc[b].va2.arbitrate_mask(requests) else { continue };
                self.vc[b].owner = line as u8;
                let (op, ov) = (PortId(b / self.vcs), VcId(b % self.vcs));
                self.set_state(line, VcState::Active { out_port: op, out_vc: ov });
                if traced {
                    let packet = self.front(line).map_or(0, |t| t.hdr.packet.0);
                    fx.commit(Effect::Trace(TraceEvent {
                        cycle,
                        router: self.id,
                        port: PortId(line / self.vcs),
                        vc: VcId(line % self.vcs),
                        kind: TraceEventKind::VcAlloc,
                        packet,
                        detail: op.index() as u32,
                    }));
                }
                // The remaining requesters lost the arbitration.
                requests &= !(1u64 << line);
                StallCause::VaLoss
            };
            while requests != 0 {
                let pv = requests.trailing_zeros() as usize;
                requests &= requests - 1;
                self.stall(fx, pv, cause);
            }
        }
    }

    /// RC: route computation for VCs holding an unrouted head flit.
    ///
    /// With an adaptive topology ([`Topology::route_candidates_into`]
    /// yields more than one port) the stage selects the candidate whose
    /// output VCs hold the most credits — congestion-aware selection —
    /// with the model's preference order breaking ties.
    fn stage_rc<F: StepFx>(
        &mut self,
        cycle: u64,
        topo: &dyn Topology,
        scratch: &mut StepScratch,
        fx: &mut F,
    ) {
        let _obs = obs_scope(ObsPhase::StageRc);
        if self.routing_mask == 0 {
            return;
        }
        let traced = fx.traced();
        let mut routing = self.routing_mask;
        while routing != 0 {
            let pv = routing.trailing_zeros() as usize;
            routing &= routing - 1;
            let (ip, iv) = (pv / self.vcs, pv % self.vcs);
            if !self.front_ready(pv, cycle) {
                continue;
            }
            let (packet, dst) = {
                let head = &self.front(pv).expect("routing VC holds a head flit").hdr;
                debug_assert!(head.is_head(), "routing state without a head flit");
                (head.packet.0, head.dst())
            };
            let candidates = &mut scratch.candidates;
            candidates.clear();
            topo.route_candidates_into(self.id, dst, candidates);
            debug_assert!(!candidates.is_empty(), "routing produced no candidates");
            if self.fault_routing {
                let masked = apply_fault_mask(candidates, |p| self.port[p].dead);
                // Also mask the backtrack port (the reverse of the edge
                // the flit arrived on). Dimension-ordered routes are
                // monotone and never backtrack, so this only fires for
                // packets already detoured around a dead link — and for
                // those it is what breaks the detour/return ping-pong
                // livelock: the neighbour of a dead link would otherwise
                // XY-route the packet straight back at the fault forever.
                let backtracked = if ip != PortId::LOCAL.index() {
                    let before = candidates.len();
                    candidates.retain(|p| p.index() != ip);
                    candidates.len() != before
                } else {
                    false
                };
                if candidates.is_empty() {
                    candidates.push(self.detour_port(topo, PortId(ip), dst));
                }
                if masked || backtracked {
                    self.reroutes += 1;
                }
            }
            let out_port = if candidates.len() == 1 {
                candidates[0]
            } else {
                let credits_of = |p: PortId| -> usize {
                    let base = p.index() * self.vcs;
                    self.vc[base..base + self.vcs].iter().map(|r| r.credits as usize).sum()
                };
                // max_by_key returns the *last* maximum; iterate in
                // reverse so ties resolve to the earliest (preferred)
                // candidate.
                candidates
                    .iter()
                    .rev()
                    .copied()
                    .max_by_key(|&p| credits_of(p))
                    .expect("non-empty candidates")
            };
            fx.tallies().rc += 1;
            self.set_state(pv, VcState::WaitingVc { out_port });
            if traced {
                fx.commit(Effect::Trace(TraceEvent {
                    cycle,
                    router: self.id,
                    port: PortId(ip),
                    vc: VcId(iv),
                    kind: TraceEventKind::RouteCompute,
                    packet,
                    detail: out_port.index() as u32,
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::flit::{FlitData, FlitKind};
    use crate::packet::{PacketClass, PacketId};
    use crate::shard::{DirectFx, PipelineTallies, Sinks};
    use crate::stats::ActivityCounters;
    use crate::telemetry::NullSink;
    use crate::topology::Mesh2D;

    fn mk_cfg() -> NetworkConfig {
        NetworkConfig::default()
    }

    fn mk_head(dst: NodeId, class: PacketClass) -> Flit {
        Flit {
            packet: PacketId(1),
            seq: 0,
            kind: FlitKind::HeadTail,
            src: NodeId(0),
            dst,
            class,
            data: FlitData::dense(4),
            created_at: 0,
            hops: 0,
        }
    }

    /// Per-test harness bundling the caller-owned state `Router::step`
    /// borrows (arena, scratch, links, counters).
    struct Ctx {
        topo: Mesh2D,
        arena: FlitArena,
        scratch: StepScratch,
        counters: ActivityCounters,
        activity: RouterActivity,
        ejected: Vec<EjectedFlit>,
        links: Vec<Link>,
        wires: WireTable,
    }

    impl Ctx {
        fn new(cfg: &NetworkConfig) -> Self {
            Ctx {
                topo: Mesh2D::new(2, 2),
                arena: FlitArena::new(),
                scratch: StepScratch::new(5, cfg.router.vcs_per_port),
                counters: ActivityCounters::new(),
                activity: RouterActivity::default(),
                ejected: Vec::new(),
                links: Vec::new(),
                wires: WireTable::new(0, 1, 1),
            }
        }

        /// Wires `links` with rings deep enough for any of these tests.
        fn set_links(&mut self, links: Vec<Link>) {
            self.wires = WireTable::new(links.len(), 8, 8);
            self.links = links;
        }

        fn recv(&mut self, r: &mut Router, port: PortId, vc: VcId, flit: Flit, cycle: u64) {
            let fref = self.arena.alloc(flit);
            let fraction = r.receive_flit(port, vc, fref, self.arena.get(fref), cycle);
            self.counters.record_buffer_write(fraction);
            self.activity.buffer_events += fraction;
        }

        fn step(&mut self, r: &mut Router, cycle: u64) {
            let mut sink = NullSink;
            let sinks = Sinks::new(
                cycle,
                &mut self.counters,
                &mut self.arena,
                &mut self.ejected,
                &mut sink,
                None,
                false,
            );
            let mut t = PipelineTallies::default();
            let (links, wires) = (&mut self.links, &mut self.wires);
            let mut fx = DirectFx { sinks, links, wires, t: &mut t };
            r.step(cycle, &self.topo, &mut self.scratch, &mut self.activity, &mut fx);
            t.merge_into(&mut self.counters);
        }
    }

    /// A single-flit packet destined for the local node must traverse
    /// RC → VA → SA → ST in four successive cycles and then eject.
    #[test]
    fn single_flit_ejects_after_four_stages() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);

        c.recv(&mut r, PortId::LOCAL, VcId(0), mk_head(NodeId(0), PacketClass::Ack), 0);

        for cycle in 0..=3 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.ejected.len(), 1, "RC@0, VA@1, SA@2, ST@3");
        assert_eq!(c.ejected[0].cycle, 3);
        assert_eq!(c.ejected[0].flit.hops, 0);
        assert!(r.is_quiescent());
        assert_eq!(c.arena.allocated(), 0, "ejection frees the arena slot");
        assert_eq!(c.counters.flits_ejected, 1);
        assert_eq!(c.counters.packets_ejected, 1);
        assert_eq!(c.counters.rc_computations, 1);
    }

    /// Two head flits contending for the same output VC are granted in
    /// successive cycles, not simultaneously.
    #[test]
    fn output_vc_is_exclusive() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);

        // Two packets on different input VCs, both local-bound, same class
        // → same output VC.
        let mut f0 = mk_head(NodeId(0), PacketClass::Ack);
        f0.packet = PacketId(10);
        let mut f1 = mk_head(NodeId(0), PacketClass::Ack);
        f1.packet = PacketId(11);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f0, 0);
        c.recv(&mut r, PortId(1), VcId(0), f1, 0);

        for cycle in 0..=5 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.ejected.len(), 2);
        // Ejections happen in different cycles (the single ejection VC
        // serialises the packets).
        assert_ne!(c.ejected[0].cycle, c.ejected[1].cycle);
    }

    /// Credits throttle forwarding: with a full downstream VC, nothing is
    /// granted until a credit returns.
    #[test]
    fn credits_gate_switch_allocation() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        // One outgoing link east (to node 1).
        c.set_links(vec![Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1)]);
        r.set_out_link(PortId(1), 0);

        // Exhaust all credits on (east, vc0).
        let ov = r.pv(PortId(1), VcId(0));
        r.vc[ov].credits = 0;

        let f = mk_head(NodeId(1), PacketClass::Ack);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..10 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.wires.flits(0), 0, "no credit, no traversal");

        // Return one credit; the flit must now flow.
        r.receive_credit(PortId(1), VcId(0));
        for cycle in 10..15 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.wires.flits(0), 1);
        assert!(r.is_quiescent());
    }

    /// Layer shutdown scales the separable-module activity by the active
    /// fraction of the flit.
    #[test]
    fn shutdown_weights_separable_activity() {
        let mut cfg = mk_cfg();
        cfg.layer_shutdown = true;
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);

        let mut f = mk_head(NodeId(0), PacketClass::Ack);
        f.data = FlitData::with_active_words(4, 1); // short flit
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..=3 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.counters.buffer_writes_raw, 1);
        assert!((c.counters.buffer_writes - 0.25).abs() < 1e-12);
        assert!((c.counters.buffer_reads - 0.25).abs() < 1e-12);
        assert!((c.counters.xbar_traversals - 0.25).abs() < 1e-12);
        // Non-separable logic is not gated: RC ran at full weight.
        assert_eq!(c.counters.rc_computations, 1);
    }

    /// With fault routing on, RC masks a dead output port and detours
    /// through the best live neighbour instead.
    #[test]
    fn dead_port_detours_route_computation() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        // Node 0 of the 2x2 mesh is wired east (port 1) and north (port 3).
        c.set_links(vec![
            Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1),
            Link::new((NodeId(0), PortId(3)), (NodeId(2), PortId(4)), 3.1),
        ]);
        r.set_out_link(PortId(1), 0);
        r.set_out_link(PortId(3), 1);
        r.set_fault_routing(true);
        r.on_port_death(PortId(1));

        // Destination east of us: the deterministic route is through the
        // dead port, so the detour must pick north.
        let f = mk_head(NodeId(1), PacketClass::Ack);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        c.step(&mut r, 0);
        assert_eq!(
            r.state(r.pv(PortId::LOCAL, VcId(0))),
            VcState::WaitingVc { out_port: PortId(3) },
            "masked route falls back to the live north port"
        );
        assert_eq!(r.reroutes(), 1);
    }

    /// A dead port invalidates already-computed-but-not-granted routes:
    /// the VC is sent back to RC.
    #[test]
    fn port_death_restarts_waiting_vcs() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let pv00 = r.pv(PortId(0), VcId(0));
        let pv21 = r.pv(PortId(2), VcId(1));
        r.set_state(pv00, VcState::WaitingVc { out_port: PortId(1) });
        r.set_state(pv21, VcState::WaitingVc { out_port: PortId(3) });
        r.on_port_death(PortId(1));
        assert_eq!(r.state(pv00), VcState::Routing, "route through dead port recomputed");
        assert_eq!(
            r.state(pv21),
            VcState::WaitingVc { out_port: PortId(3) },
            "routes through live ports keep their grant request"
        );
    }

    /// A paused link (retransmission backoff) blocks switch allocation
    /// toward it and charges the LinkFault stall cause.
    #[test]
    fn paused_link_stalls_sa_with_link_fault_cause() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        c.set_links(vec![Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1)]);
        r.set_out_link(PortId(1), 0);
        r.set_link_paused(PortId(1), true);

        let f = mk_head(NodeId(1), PacketClass::Ack);
        c.recv(&mut r, PortId::LOCAL, VcId(0), f, 0);
        for cycle in 0..6 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.wires.flits(0), 0, "paused link admits no traffic");
        assert!(r.stall_counters().link_fault > 0, "stall attributed to the link fault");

        r.set_link_paused(PortId(1), false);
        for cycle in 6..10 {
            c.step(&mut r, cycle);
        }
        assert_eq!(c.wires.flits(0), 1, "unpausing releases the flit");
    }

    /// The severed-packet reaper drains buffered flits of a dropped
    /// packet, refluxes their credits upstream, and releases the held
    /// output VC.
    #[test]
    fn reaper_purges_severed_packet_and_refluxes_credits() {
        let cfg = mk_cfg();
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut c = Ctx::new(&cfg);
        // Incoming link feeding port 2 (west side), for credit reflux.
        c.set_links(vec![Link::new((NodeId(1), PortId(2)), (NodeId(0), PortId(1)), 3.1)]);
        r.set_in_link(PortId(1), 0);

        let mut head = mk_head(NodeId(3), PacketClass::ReadRequest);
        head.kind = FlitKind::Head;
        head.packet = PacketId(42);
        let mut body = head.clone();
        body.kind = FlitKind::Body;
        body.seq = 1;
        c.recv(&mut r, PortId(1), VcId(0), head, 0);
        c.recv(&mut r, PortId(1), VcId(0), body, 0);
        let pv = r.pv(PortId(1), VcId(0));
        // Pretend VA granted the east output VC to this packet.
        r.set_state(pv, VcState::Active { out_port: PortId(1), out_vc: VcId(0) });
        let ov = r.pv(PortId(1), VcId(0));
        r.vc[ov].owner = pv as u8;
        r.assert_worklists_consistent();

        let severed: HashSet<PacketId> = [PacketId(42)].into_iter().collect();
        let purged = r.purge_severed(&severed, 5, &mut c.arena, &mut c.wires);
        assert_eq!(purged, 2);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(c.arena.allocated(), 0, "purged flits freed their arena slots");
        assert_eq!(r.state(pv), VcState::Idle);
        assert_eq!(r.dump(5, 0, 0).vcs.len(), 0, "an idle, empty VC services no packet");
        assert_eq!(r.vc[ov].owner, NONE, "held output VC released");
        r.assert_worklists_consistent();
        let mut wire = c.wires.wire(0);
        assert_eq!(wire.take_due_credit(6).map(|cr| cr.vc), Some(VcId(0)), "credit refluxed");
        assert_eq!(wire.take_due_credit(6).map(|cr| cr.vc), Some(VcId(0)));
        assert!(wire.take_due_credit(6).is_none());
    }

    fn mk_slot(fref: u32, ready_at: u64) -> BufSlot {
        BufSlot { hdr: FlitHeader { fref: FlitRef(fref), ..FlitHeader::EMPTY }, ready_at }
    }

    /// Each VC's FIFO keeps its own order and wraps around its ring.
    #[test]
    fn fifos_are_independent_rings() {
        let mut r = Router::new(NodeId(0), 5, &mk_cfg());
        for round in 0..4u32 {
            r.push(3, mk_slot(3 * round, 0));
            r.push(3, mk_slot(3 * round + 1, 0));
            r.push(1, mk_slot(100 + round, 0));
            assert_eq!(r.pop(3).map(|s| s.hdr.fref), Some(FlitRef(3 * round)));
            assert_eq!(r.pop(3).map(|s| s.hdr.fref), Some(FlitRef(3 * round + 1)));
            assert_eq!(r.pop(1).map(|s| s.hdr.fref), Some(FlitRef(100 + round)));
        }
        assert!(r.pop(3).is_none() && r.pop(1).is_none());
        assert_eq!((r.buffered_flits(), r.buffer_peak()), (0, 3));
    }

    #[test]
    fn readiness_gates_the_front() {
        let mut r = Router::new(NodeId(0), 5, &mk_cfg());
        r.push(0, mk_slot(0, 5));
        assert!(!r.front_ready(0, 4));
        assert!(r.front_ready(0, 5) && r.front_ready(0, 6));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fifo_overflow_panics() {
        let mut r = Router::new(NodeId(0), 5, &mk_cfg());
        for i in 0..=mk_cfg().router.buffer_depth as u32 {
            r.push(0, mk_slot(i, 0));
        }
    }

    /// Size budgets of the dense cycle state. The cycle is bound by
    /// cache misses on first touch (DESIGN.md §14), so a field added to
    /// a hot record costs every router-step or every hop; these fail
    /// with the reason instead of letting the simulator slow in silence.
    #[test]
    fn hot_state_fits_its_size_budget() {
        use crate::link::{CreditInFlight, FlitInFlight};
        use std::mem::size_of;
        // Half a cache line per entry at most: a VC record, port record,
        // buffered flit or wire flit that grows past 32 bytes puts fewer
        // than two on a line, and every stage reads several per step.
        for (name, size) in [
            ("VcRec", size_of::<VcRec>()),
            ("PortRec", size_of::<PortRec>()),
            ("BufSlot", size_of::<BufSlot>()),
            ("FlitInFlight", size_of::<FlitInFlight>()),
        ] {
            assert!(size <= 32, "{name} is {size} bytes, over its 32-byte budget");
        }
        // Today's records are smaller still: a VC record is half a BufSlot.
        assert_eq!(size_of::<VcRec>(), 16, "VcRec");
        assert_eq!(size_of::<PortRec>(), 16, "PortRec");
        assert!(size_of::<CreditInFlight>() <= 16, "CreditInFlight");
        // A 5-port, 2-VC, depth-4 router (the paper's mesh router) in
        // struct plus tables. Its state before the dense layout was a
        // 496-byte struct plus about 2.8 KB in 17 heap blocks, 3.4 MB at
        // 1 024 routers against a 2 MB L2 per core; 2 KB per router keeps
        // a 32x32 fabric's routers within that L2.
        let cfg = mk_cfg();
        let r = Router::new(NodeId(0), 5, &cfg);
        let hot = size_of::<Router>()
            + r.vc.len() * size_of::<VcRec>()
            + r.port.len() * size_of::<PortRec>()
            + r.slots.len() * size_of::<BufSlot>()
            + r.counts.len() * size_of::<u64>();
        assert!(hot <= 2048, "a 5-port router holds {hot} hot bytes, over its 2 KB budget");
        // The quiescence check reads one line per router.
        let line = std::mem::offset_of!(Router, occupied) + size_of::<u32>();
        assert!(line <= 64, "the quiescence fields end at byte {line}, past the first line");
    }
}

#[cfg(test)]
mod pipeline_depth_tests {
    use super::*;
    use crate::config::{NetworkConfig, PipelineConfig, PipelineDepth};
    use crate::flit::{FlitData, FlitKind};
    use crate::packet::{PacketClass, PacketId};
    use crate::shard::{DirectFx, PipelineTallies, Sinks};
    use crate::stats::ActivityCounters;
    use crate::telemetry::NullSink;
    use crate::topology::Mesh2D;

    fn eject_cycle(depth: PipelineDepth) -> u64 {
        let topo = Mesh2D::new(2, 2);
        let mut cfg = NetworkConfig::default();
        cfg.router.pipeline = PipelineConfig::separate_lt().with_depth(depth);
        let mut r = Router::new(NodeId(0), 5, &cfg);
        let mut arena = FlitArena::new();
        let mut scratch = StepScratch::new(5, cfg.router.vcs_per_port);
        let mut counters = ActivityCounters::new();
        let mut activity = RouterActivity::default();
        let mut ejected = Vec::new();
        let (mut links, mut wires) = (Vec::new(), WireTable::new(0, 1, 1));
        let flit = Flit {
            packet: PacketId(1),
            seq: 0,
            kind: FlitKind::HeadTail,
            src: NodeId(0),
            dst: NodeId(0),
            class: PacketClass::Ack,
            data: FlitData::dense(4),
            created_at: 0,
            hops: 0,
        };
        let fref = arena.alloc(flit);
        let fraction = r.receive_flit(PortId::LOCAL, VcId(0), fref, arena.get(fref), 0);
        counters.record_buffer_write(fraction);
        activity.buffer_events += fraction;
        let mut t = PipelineTallies::default();
        for cycle in 0..10 {
            let mut sink = NullSink;
            let sinks =
                Sinks::new(cycle, &mut counters, &mut arena, &mut ejected, &mut sink, None, false);
            let mut fx = DirectFx { sinks, links: &mut links, wires: &mut wires, t: &mut t };
            r.step(cycle, &topo, &mut scratch, &mut activity, &mut fx);
            if let Some(e) = ejected.first() {
                return e.cycle;
            }
        }
        panic!("flit never ejected");
    }

    /// Uncontended head-flit pipeline occupancy matches Fig. 8: four,
    /// three, and two cycles from visibility to switch traversal.
    #[test]
    fn stage_counts_match_fig8() {
        assert_eq!(eject_cycle(PipelineDepth::FourStage), 3, "RC@0 VA@1 SA@2 ST@3");
        assert_eq!(eject_cycle(PipelineDepth::ThreeStageSpeculative), 2, "RC@0 VA+SA@1 ST@2");
        assert_eq!(eject_cycle(PipelineDepth::TwoStageLookahead), 1, "RC+VA+SA@0 ST@1");
    }
}
