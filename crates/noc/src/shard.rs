//! The cycle engine's shard layer (DESIGN.md §18): every phase body of
//! `Network::step`, run on one shard or split across N, bit-identical at
//! any count.
//!
//! The mesh is partitioned into contiguous spatial tiles of routers.
//! With one shard each phase body runs on the calling thread and applies
//! its order-sensitive effects in place. With N shards, shard 0 runs on
//! the calling thread and shards 1..N on a persistent [`WorkerPool`],
//! in two barrier-separated dispatches per cycle: link delivery, then
//! the fused router pipeline, occupancy count and NIC injection. Each
//! runs every effect a shard can own on that shard's worker — buffer
//! pushes, credit returns, link sends — and logs only the
//! *globally ordered* remainder as [`Effect`] entries, which the calling
//! thread replays in canonical (link- or node-ascending) order: the
//! non-associative f64 activity-counter sums, the arena free list
//! (ejections), and trace/journey records. Commutative counts are summed
//! from per-shard [`PipelineTallies`] instead — and so are the buffer
//! and crossbar sums while they are exact (see there). Either way each
//! logged effect lands through the one [`Sinks::apply`], so the result
//! is byte-identical at every seam: the same f64 sums, the same
//! trace/journey event sequence, the same arena free-list history, the
//! same wire contents.
//!
//! Ownership goes by *wire*, not by link ([`ShardPlan`]): a link's flit
//! wire is pushed by its sender's shard in the pipeline phase and popped
//! by its receiver's shard in the link phase; its credit wire the other
//! way round. Every phase body lives in this module, so the raw-pointer
//! sharing it rests on is audited in one place.
//!
//! Two seams carry the effects. [`Commit`] is where a phase body's
//! ordered remainder goes: [`Sinks`] applies it at once, [`ShardLog`]
//! logs it. [`StepFx`] extends it with the shard-local effects of
//! `Router::step`: [`DirectFx`] applies everything inline, [`DeferredFx`]
//! applies the shard-owned effects in place and logs the rest.

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::arena::{FlitArena, FlitRef};
use crate::buffer::FlitHeader;
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::journey::JourneyRecorder;
use crate::link::{FlitInFlight, Link, LinkWires, WireTable};
use crate::network::{FaultRuntime, Nic};
use crate::packet::PacketId;
use crate::router::{EjectedFlit, Router, StepScratch};
use crate::stats::{ActivityCounters, RouterActivity};
use crate::telemetry::{EventSink, StallCause, TraceEvent, TraceEventKind};
use crate::topology::Topology;

/// Hard cap on shard count (stack-allocated replay cursors; far above
/// any core count this simulator targets).
pub(crate) const MAX_SHARDS: usize = 64;

/// Commutative counts accumulated per shard and summed into the global
/// [`ActivityCounters`] after each phase: the stage tallies, the
/// occupancy count and, on the tally path, the buffer-write, buffer-read
/// and crossbar sums (integer addition is order-free, so summing
/// per-shard partials is bit-identical to accumulating in place).
///
/// The tally path counts each active-layer fraction in eighths. With
/// layer shutdown off every fraction is 1; with it on a flit of 1, 2, 4
/// or 8 words has fraction `k/8`. Every partial f64 sum of such
/// fractions (below 2^50) is exactly representable, so each addition of
/// the ordered replay is exact and any order gives the same bits —
/// including one `eighths as f64 / 8.0` added at the merge. A network
/// whose flits break that ([`Sinks::tally`] clear) keeps the replay.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PipelineTallies {
    pub rc: u64,
    pub va1: u64,
    pub va2: u64,
    pub sa1: u64,
    pub sa2: u64,
    /// Buffered flits after the router pipeline, summed over routers.
    occupancy: u64,
    /// Flits the NICs moved into local input buffers.
    injected: u64,
    /// Buffer writes (link arrivals and injections), and their fractions
    /// in eighths.
    writes: u64,
    write_eighths: u64,
    /// Switch traversals (each one buffer read and one crossbar
    /// traversal), and their fractions in eighths.
    reads: u64,
    read_eighths: u64,
}

impl PipelineTallies {
    /// Counts `e` instead of logging it when all it does is add to the
    /// activity sums (the caller has checked that the tally path is on);
    /// returns `false` for every other effect.
    #[inline]
    fn absorb(&mut self, e: &Effect) -> bool {
        match *e {
            Effect::Arrival { fraction, .. } => self.write(fraction),
            Effect::Inject { fraction, .. } => {
                self.injected += 1;
                self.write(fraction);
            }
            Effect::StRead { fraction } => {
                self.reads += 1;
                self.read_eighths += eighths(fraction);
            }
            _ => return false,
        }
        true
    }

    #[inline]
    fn write(&mut self, fraction: f64) {
        self.writes += 1;
        self.write_eighths += eighths(fraction);
    }

    pub(crate) fn merge_into(&mut self, counters: &mut ActivityCounters) {
        counters.rc_computations += self.rc;
        counters.va1_arbitrations += self.va1;
        counters.va2_arbitrations += self.va2;
        counters.sa1_arbitrations += self.sa1;
        counters.sa2_arbitrations += self.sa2;
        counters.buffer_occupancy_flit_cycles += self.occupancy;
        counters.flits_injected += self.injected;
        if self.writes > 0 {
            counters.buffer_writes += self.write_eighths as f64 / 8.0;
            counters.buffer_writes_raw += self.writes;
        }
        if self.reads > 0 {
            let sum = self.read_eighths as f64 / 8.0;
            counters.buffer_reads += sum;
            counters.buffer_reads_raw += self.reads;
            counters.xbar_traversals += sum;
            counters.xbar_traversals_raw += self.reads;
        }
        *self = PipelineTallies::default();
    }
}

/// `fraction` in eighths; exact for the fractions the tally path admits.
#[inline]
fn eighths(fraction: f64) -> u64 {
    let e = fraction * 8.0;
    debug_assert!(e == e.trunc(), "fraction {fraction} is not a multiple of 1/8");
    e as u64
}

/// One order-sensitive effect. What it does to the ordered sinks is
/// [`Sinks::apply`]; a shard worker logs it instead, for the calling
/// thread to replay in canonical order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    /// A flit delivered off link `li` into `router`'s input `port`: its
    /// `BufferWrite` event, journey arrival and buffer-write sum.
    Arrival {
        li: u32,
        head: bool,
        router: NodeId,
        port: PortId,
        vc: VcId,
        packet: PacketId,
        fraction: f64,
    },
    /// A credit delivered off link `li` to `router`'s output `port`,
    /// committed only when traced, for its `CreditReturn` event.
    Credit { li: u32, router: NodeId, port: PortId, vc: VcId },
    /// A flit the NIC moved into `node`'s local input buffer.
    Inject { node: NodeId, vc: VcId, packet: PacketId, head: bool, fraction: f64 },
    /// ST's buffer read and crossbar traversal.
    StRead { fraction: f64 },
    /// A forward's link energy (`record_link` operands).
    Link { length_mm: f64, fraction: f64 },
    /// A flit leaving the network at `node` after `hops` hops (takes it
    /// out of its arena slot).
    Eject { fref: FlitRef, hops: u16, node: NodeId, tail: bool },
    /// Journey: a head flit won the switch toward `out_port`.
    JourneySt { packet: PacketId, out_port: PortId },
    /// Journey: the flit at a VC's front stalled for `cause`.
    JourneyStall { packet: PacketId, router: NodeId, cause: StallCause, head: bool },
    /// A pipeline trace event.
    Trace(TraceEvent),
}

impl Effect {
    /// The link-phase replay key: link id, then flits before credits —
    /// the order the one-shard body visits the wires in.
    fn link_key(&self) -> (u32, bool) {
        match *self {
            Effect::Arrival { li, .. } => (li, false),
            Effect::Credit { li, .. } => (li, true),
            _ => unreachable!("the link phase logs only arrivals and credits"),
        }
    }
}

/// Where a phase body's order-sensitive remainder goes: applied at once
/// ([`Sinks`], [`DirectFx`]) or logged for an ordered replay
/// ([`ShardLog`], [`DeferredFx`]).
pub(crate) trait Commit {
    /// `true` when the event sink wants trace events.
    fn traced(&self) -> bool;
    /// Applies or logs one ordered effect.
    fn commit(&mut self, e: Effect);
}

/// The seam of NIC injection, the one phase body that reads the flit
/// arena: a queued flit's header is built there, from the flit itself.
pub(crate) trait InjectFx: Commit {
    /// The flit at `fref`, queued at a NIC of the calling shard.
    fn flit(&self, fref: FlitRef) -> &Flit;
    /// When the fault layer severed the packet of the queued flit at
    /// `fref`, frees its slot, counts the drop and returns `true`. Only
    /// a fault run's inline sinks ever drop.
    fn drop_severed(&mut self, _fref: FlitRef) -> bool {
        false
    }
}

/// The effect seam of `Router::step`: every mutation of *shared* state
/// (arena, links, global counters, sink, journeys, ejection queue) goes
/// through these methods. Router-local state (VC pipeline, arbiter
/// state, stall counters, per-router activity) stays direct — it is
/// shard-owned either way.
pub(crate) trait StepFx: Commit {
    /// `true` when a journey recorder is attached.
    fn journeys_on(&self) -> bool;
    /// Length of link `li` in millimetres (read-only link access).
    fn link_length_mm(&self, li: usize) -> f64;
    /// The commutative `u64` stage tallies (RC, VA and SA operations),
    /// merged into the counters after the phase.
    fn tallies(&mut self) -> &mut PipelineTallies;
    /// Returns a credit upstream on link `li`.
    fn send_credit(&mut self, li: usize, vc: VcId, at: u64);
    /// Forwards the flit `hdr` describes onto link `li` (link energy,
    /// wire send); `hdr` already carries the new hop count and the
    /// downstream VC.
    fn forward(&mut self, li: usize, hdr: FlitHeader, at: u64, fraction: f64);
}

/// The ordered sinks of one cycle: the activity counters, the ejection
/// queue with the arena free list, the trace sink and the journeys —
/// plus, during a fault run's NIC injection, the fault layer's severed
/// set. Every ordered effect lands here through [`Sinks::apply`]: at
/// once on the inline path, in canonical order on the replay.
pub(crate) struct Sinks<'a> {
    pub counters: &'a mut ActivityCounters,
    pub arena: &'a mut FlitArena,
    pub ejected: &'a mut Vec<EjectedFlit>,
    pub sink: &'a mut dyn EventSink,
    pub journeys: Option<&'a mut JourneyRecorder>,
    pub faults: Option<&'a mut FaultRuntime>,
    pub cycle: u64,
    /// `sink.enabled()`, read once per cycle.
    pub traced: bool,
    /// Shard workers count `Arrival`, `Inject` and `StRead` in their
    /// [`PipelineTallies`] instead of logging them: the activity sums
    /// are exact (see there), and neither a trace nor a journey reads
    /// those effects.
    pub tally: bool,
}

impl<'a> Sinks<'a> {
    /// The sinks of `cycle`; `exact_sums` says that every active-layer
    /// fraction the network has seen is a multiple of 1/8.
    pub(crate) fn new(
        cycle: u64,
        counters: &'a mut ActivityCounters,
        arena: &'a mut FlitArena,
        ejected: &'a mut Vec<EjectedFlit>,
        sink: &'a mut dyn EventSink,
        journeys: Option<&'a mut JourneyRecorder>,
        exact_sums: bool,
    ) -> Self {
        let traced = sink.enabled();
        let tally = exact_sums && !traced && journeys.is_none();
        Sinks { counters, arena, ejected, sink, journeys, faults: None, cycle, traced, tally }
    }

    /// The same sinks, borrowed for one phase's [`DirectFx`].
    fn reborrow(&mut self) -> Sinks<'_> {
        Sinks {
            counters: &mut *self.counters,
            arena: &mut *self.arena,
            ejected: &mut *self.ejected,
            sink: &mut *self.sink,
            journeys: self.journeys.as_deref_mut(),
            faults: self.faults.as_deref_mut(),
            cycle: self.cycle,
            traced: self.traced,
            tally: self.tally,
        }
    }

    /// Applies `e` to the ordered sinks — the one definition of what
    /// each effect does, for the inline path and the replay alike.
    #[inline(always)]
    pub(crate) fn apply(&mut self, e: Effect) {
        let cycle = self.cycle;
        let buffer_write = |router, port, vc, packet: PacketId| TraceEvent {
            cycle,
            router,
            port,
            vc,
            kind: TraceEventKind::BufferWrite,
            packet: packet.0,
            detail: 0,
        };
        match e {
            Effect::Arrival { head, router, port, vc, packet, fraction, .. } => {
                if self.traced {
                    self.sink.record(buffer_write(router, port, vc, packet));
                }
                if head {
                    if let Some(j) = self.journeys.as_deref_mut() {
                        j.on_link_arrival(packet, router, port, cycle);
                    }
                }
                self.counters.record_buffer_write(fraction);
            }
            Effect::Credit { router, port, vc, .. } => self.sink.record(TraceEvent {
                cycle,
                router,
                port,
                vc,
                kind: TraceEventKind::CreditReturn,
                packet: 0,
                detail: 0,
            }),
            Effect::Inject { node, vc, packet, head, fraction } => {
                self.counters.flits_injected += 1;
                if head {
                    if let Some(j) = self.journeys.as_deref_mut() {
                        j.on_nic_inject(packet, node, cycle);
                    }
                }
                if self.traced {
                    self.sink.record(buffer_write(node, PortId::LOCAL, vc, packet));
                }
                self.counters.record_buffer_write(fraction);
            }
            Effect::StRead { fraction } => {
                self.counters.record_buffer_read(fraction);
                self.counters.record_xbar(fraction);
            }
            Effect::Link { length_mm, fraction } => self.counters.record_link(length_mm, fraction),
            Effect::Eject { fref, hops, node, tail } => {
                self.counters.flits_ejected += 1;
                if tail {
                    self.counters.packets_ejected += 1;
                }
                let mut flit = self.arena.take(fref);
                flit.hops = u32::from(hops);
                self.ejected.push(EjectedFlit { flit, node, cycle });
            }
            Effect::JourneySt { packet, out_port } => {
                if let Some(j) = self.journeys.as_deref_mut() {
                    j.on_st(packet, out_port, cycle);
                }
            }
            Effect::JourneyStall { packet, router, cause, head } => {
                if let Some(j) = self.journeys.as_deref_mut() {
                    j.on_stall(packet, router, cause, head);
                }
            }
            Effect::Trace(ev) => self.sink.record(ev),
        }
    }
}

impl Commit for Sinks<'_> {
    #[inline]
    fn traced(&self) -> bool {
        self.traced
    }

    #[inline]
    fn commit(&mut self, e: Effect) {
        self.apply(e);
    }
}

impl InjectFx for Sinks<'_> {
    #[inline]
    fn flit(&self, fref: FlitRef) -> &Flit {
        self.arena.get(fref)
    }

    #[inline]
    fn drop_severed(&mut self, fref: FlitRef) -> bool {
        match self.faults.as_deref_mut() {
            Some(fr) => fr.swallow_severed(fref, self.arena),
            None => false,
        }
    }
}

/// Immediate-application [`StepFx`]: the pipeline phase of a one-shard
/// engine and of every fault run. It owns its [`Sinks`] (reborrowed for
/// the phase), so the counters are one pointer away.
pub(crate) struct DirectFx<'a> {
    pub sinks: Sinks<'a>,
    pub links: &'a mut [Link],
    pub wires: &'a mut WireTable,
    pub t: &'a mut PipelineTallies,
}

impl Commit for DirectFx<'_> {
    #[inline]
    fn traced(&self) -> bool {
        self.sinks.traced
    }

    #[inline]
    fn commit(&mut self, e: Effect) {
        self.sinks.apply(e);
    }
}

impl StepFx for DirectFx<'_> {
    #[inline]
    fn journeys_on(&self) -> bool {
        self.sinks.journeys.is_some()
    }

    #[inline]
    fn link_length_mm(&self, li: usize) -> f64 {
        self.links[li].length_mm
    }

    #[inline]
    fn tallies(&mut self) -> &mut PipelineTallies {
        self.t
    }

    #[inline]
    fn send_credit(&mut self, li: usize, vc: VcId, at: u64) {
        self.wires.wire(li).send_credit(vc, at);
    }

    #[inline]
    fn forward(&mut self, li: usize, hdr: FlitHeader, at: u64, fraction: f64) {
        self.sinks.apply(Effect::Link { length_mm: self.links[li].length_mm, fraction });
        self.links[li].send_flit(self.sinks.arena, &mut self.wires.wire(li), hdr, at);
    }
}

/// Logging [`Commit`] for a shard worker's link phase, which reads flit
/// headers off the wires and never the arena.
struct ShardLog<'a> {
    log: &'a mut Vec<Effect>,
    traced: bool,
    tally: bool,
    t: &'a mut PipelineTallies,
}

impl Commit for ShardLog<'_> {
    #[inline]
    fn traced(&self) -> bool {
        self.traced
    }

    #[inline]
    fn commit(&mut self, e: Effect) {
        if !(self.tally && self.t.absorb(&e)) {
            self.log.push(e);
        }
    }
}

/// Per-slot access to the flit arena during NIC injection, the one
/// phase body that reads it.
///
/// A flit in a source queue is reached only by the shard that owns the
/// node, so each worker touches a disjoint set of slots. The handle
/// therefore never forms a `&FlitArena` (which would cover every slot)
/// but addresses one slot at a time.
#[derive(Clone, Copy)]
struct ArenaSlots<'a> {
    base: *mut Option<Flit>,
    len: usize,
    _arena: PhantomData<&'a mut FlitArena>,
}

// SAFETY: `base` and `len` describe a slot table exclusively borrowed
// for `'a`, and `Flit` is `Send`. Every dereference goes through `get`,
// whose callers guarantee that the slot belongs to a source queue of the
// calling shard's nodes.
unsafe impl Send for ArenaSlots<'_> {}
// SAFETY: as for `Send`.
unsafe impl Sync for ArenaSlots<'_> {}

impl<'a> ArenaSlots<'a> {
    fn new(arena: &'a mut FlitArena) -> Self {
        let (base, len) = arena.slots_raw();
        ArenaSlots { base, len, _arena: PhantomData }
    }

    fn slot(self, fref: FlitRef) -> *mut Option<Flit> {
        let i = fref.0 as usize;
        assert!(i < self.len, "FlitRef out of range");
        // SAFETY: `i` is in bounds of the slot table.
        unsafe { self.base.add(i) }
    }

    /// # Safety
    ///
    /// The flit at `fref` must sit in a source queue of a node the
    /// calling shard owns, and no `&mut` to it may be live.
    unsafe fn get(self, fref: FlitRef) -> &'a Flit {
        // SAFETY: per the contract, no other thread touches this slot.
        unsafe { (*self.slot(fref)).as_ref().expect("dangling FlitRef") }
    }
}

/// Logging [`StepFx`] for shard workers, built by
/// [`ShardRuntime::step_nodes`] for the nodes of one shard's `range`,
/// which is what its in-place effects rely on:
///
/// * `forward` pushes a flit a stepped router held onto an out-link flit
///   wire of that router — the sender's shard is that wire's only
///   producer, and nothing pops it until the next link phase;
/// * `send_credit` pushes onto an in-link credit wire of the stepped
///   router — the receiver's shard is that wire's only producer.
///
/// The order-sensitive remainder goes to the shard's log; commutative
/// counters (and, on the tally path, the activity sums) accumulate in
/// the shard's [`PipelineTallies`]. The same seam then serves the
/// shard's NIC injection, whose queued flits its nodes own too: the
/// only arena reads of the phase.
pub(crate) struct DeferredFx<'a> {
    /// The nodes of the shard running this seam.
    range: Range<usize>,
    slots: ArenaSlots<'a>,
    wires: LinkWires<'a>,
    traced: bool,
    journeys_on: bool,
    tally: bool,
    log: &'a mut Vec<Effect>,
    t: &'a mut PipelineTallies,
}

impl Commit for DeferredFx<'_> {
    #[inline]
    fn traced(&self) -> bool {
        self.traced
    }

    #[inline]
    fn commit(&mut self, e: Effect) {
        if !(self.tally && self.t.absorb(&e)) {
            self.log.push(e);
        }
    }
}

impl InjectFx for DeferredFx<'_> {
    #[inline]
    fn flit(&self, fref: FlitRef) -> &Flit {
        // SAFETY: the NIC injecting `fref` holds it in a source queue,
        // and that node belongs to this shard (a `FlitRef` has exactly
        // one holder); nothing in this phase writes an arena slot.
        unsafe { self.slots.get(fref) }
    }
}

impl StepFx for DeferredFx<'_> {
    #[inline]
    fn journeys_on(&self) -> bool {
        self.journeys_on
    }

    #[inline]
    fn link_length_mm(&self, li: usize) -> f64 {
        self.wires.length_mm(li)
    }

    #[inline]
    fn tallies(&mut self) -> &mut PipelineTallies {
        self.t
    }

    #[inline]
    fn send_credit(&mut self, li: usize, vc: VcId, at: u64) {
        let owner = self.wires.to(li).0.index();
        assert!(self.range.contains(&owner), "credit sent on an in-link of a foreign shard");
        // SAFETY: `li` leads into a router of this shard (asserted
        // above); in the pipeline phase only that router's shard pushes
        // the credit wire, and no one pops it until the next link phase.
        unsafe { self.wires.send_credit(li, vc, at) };
    }

    #[inline]
    fn forward(&mut self, li: usize, hdr: FlitHeader, at: u64, fraction: f64) {
        self.log.push(Effect::Link { length_mm: self.wires.length_mm(li), fraction });
        let owner = self.wires.from(li).0.index();
        assert!(self.range.contains(&owner), "flit forwarded on an out-link of a foreign shard");
        // SAFETY: `li` leaves a router of this shard (asserted above); in
        // the pipeline phase only the sender's shard pushes its flit
        // wire, and no one pops it until the next link phase.
        unsafe { self.wires.send_flit(li, FlitInFlight { hdr, deliver_at: at }) };
    }
}

/// One link of a shard's link-phase plan: which of its two wires the
/// shard pops.
#[derive(Debug, Clone, Copy)]
struct Duty {
    li: u32,
    flits: bool,
    credits: bool,
}

/// Static shard partition: contiguous router ranges plus the wire
/// ownership derived from them. In the link phase a link's flit wire is
/// popped by the shard of its destination router and its credit wire by
/// the shard of its source router, so every delivery lands in a router
/// the popping shard owns and every wire is touched by exactly one
/// worker.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Half-open router ranges `[start, end)`, one per shard,
    /// contiguous and balanced.
    ranges: Vec<(usize, usize)>,
    /// The link count the partition covers.
    links: usize,
    /// Per shard, link-ascending, the links whose flit wire (into its
    /// routers) or credit wire (out of its routers) it pops. At one
    /// shard every link appears with both wires.
    duties: Vec<Vec<Duty>>,
}

impl ShardPlan {
    pub(crate) fn new(routers: usize, links: &[Link], shards: usize) -> Self {
        let ranges: Vec<(usize, usize)> =
            (0..shards).map(|s| (s * routers / shards, (s + 1) * routers / shards)).collect();
        let owner_of = |node: NodeId| {
            ranges
                .iter()
                .position(|&(a, b)| (a..b).contains(&node.index()))
                .expect("router outside every shard range")
        };
        let mut duties: Vec<Vec<Duty>> = vec![Vec::new(); shards];
        for (li, l) in links.iter().enumerate() {
            let li = li as u32;
            let (f, c) = (owner_of(l.to.0), owner_of(l.from.0));
            if f == c {
                duties[f].push(Duty { li, flits: true, credits: true });
            } else {
                duties[f].push(Duty { li, flits: true, credits: false });
                duties[c].push(Duty { li, flits: false, credits: true });
            }
        }
        ShardPlan { ranges, links: links.len(), duties }
    }

    fn range(&self, s: usize) -> Range<usize> {
        self.ranges[s].0..self.ranges[s].1
    }

    /// Panics unless a phase's per-node tables (`rows` each) match the
    /// partition: the phase bodies index them unchecked.
    fn check_nodes(&self, rows: &[usize]) {
        let nodes = self.ranges.last().map_or(0, |r| r.1);
        assert!(rows.iter().all(|&n| n == nodes), "node tables do not match the shard plan");
    }

    /// Panics unless the link table matches the partition.
    fn check_links(&self, links: usize) {
        assert_eq!(links, self.links, "link table does not match the shard plan");
    }
}

/// Per-shard working memory, reused every cycle (cleared keeping
/// capacity — the steady-state step loop stays allocation-free).
#[derive(Debug)]
struct ShardCtx {
    scratch: StepScratch,
    tallies: PipelineTallies,
    /// The ordered remainder of the current phase, replayed after its
    /// barrier (unused at one shard). In the fused phase the pipeline's
    /// entries come first and the injection's follow from `split` on.
    log: Vec<Effect>,
    split: usize,
}

type JobPtr = *const (dyn Fn(usize) + Sync);

/// State shared between the dispatching thread and the pool workers.
struct PoolShared {
    /// Bumped once per dispatch; workers spin on it.
    epoch: AtomicU64,
    /// Workers that finished the current epoch (every worker bumps it,
    /// panicking or not — the join must never deadlock).
    done: AtomicU64,
    /// The current job, valid for the duration of one epoch.
    job: UnsafeCell<Option<JobPtr>>,
    shutdown: AtomicBool,
    /// Set when `panic` holds a payload (checked without locking on the
    /// per-dispatch fast path).
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Busy-wait iterations before falling back to `yield_now`. Zero on
    /// oversubscribed hosts (fewer CPUs than pool threads), where
    /// spinning only steals the core the other threads need.
    spin_limit: u32,
}

// SAFETY: the job pointer is only written between epochs (before the
// Release bump) and only read after the Acquire load of the new epoch;
// the pointee outlives the epoch because `run` joins before returning.
// Every other field is a thread-safe type.
unsafe impl Send for PoolShared {}
// SAFETY: as for `Send`.
unsafe impl Sync for PoolShared {}

/// A persistent spin-then-yield worker pool. Shard 0 is the calling
/// thread; workers carry shard indices `1..=N-1`. Dispatch and join are
/// allocation-free (the zero-alloc suite covers the sharded step). A
/// one-shard engine's pool has no workers and is never run.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.handles.len()).finish()
    }
}

const SPIN_LIMIT: u32 = 1 << 14;

impl WorkerPool {
    /// Spawns `workers` threads carrying shard indices `1..=workers`.
    pub(crate) fn new(workers: usize) -> Self {
        // The pool runs `workers + 1` threads per dispatch (the caller
        // is shard 0). With at least that many CPUs, spinning keeps the
        // barrier latency in the nanoseconds; with fewer, every spin
        // iteration delays the very thread the barrier is waiting on. A
        // pool without workers never runs, so it skips the CPU query.
        let cpus = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin_limit = if workers > 0 && cpus() > workers { SPIN_LIMIT } else { 0 };
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            done: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            spin_limit,
        });
        let handles = (1..=workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mira-shard-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Runs `f(shard)` for every shard: `f(0)` on the calling thread,
    /// `f(1..=workers)` on the pool, and returns after all complete. A
    /// panic on any shard is re-raised here (the caller's panic first)
    /// after the barrier, so the pool never deadlocks on a poisoned
    /// epoch.
    pub(crate) fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        shared.done.store(0, Ordering::Relaxed);
        // SAFETY: only the borrow lifetime is erased; the job pointer is
        // dereferenced between the epoch bump below and the join, while
        // `f` is live.
        let erased: JobPtr = unsafe { std::mem::transmute(std::ptr::from_ref(f)) };
        // SAFETY: every worker finished the previous epoch (the join),
        // so none reads the slot until the Release bump below.
        unsafe { *shared.job.get() = Some(erased) };
        shared.epoch.fetch_add(1, Ordering::Release);

        let main_result = catch_unwind(AssertUnwindSafe(|| f(0)));

        let workers = self.handles.len() as u64;
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) != workers {
            spins += 1;
            if spins < shared.spin_limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if let Err(p) = main_result {
            resume_unwind(p);
        }
        if shared.panicked.swap(false, Ordering::Acquire) {
            let payload = shared
                .panic
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("panicked flag set without a payload");
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, idx: usize) {
    // Worker-side phase scopes must not double-charge the sections the
    // main thread already times around dispatch + join.
    mira_obs::phase::set_worker_thread(true);
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < shared.spin_limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // SAFETY: the dispatcher wrote the slot before the Release bump
        // this thread just Acquired, and does not write it again before
        // the join.
        let job = unsafe { (*shared.job.get()).expect("epoch bumped without a job") };
        // SAFETY: the job outlives the epoch (`run` joins first).
        let f = unsafe { &*job };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(idx))) {
            *shared.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(p);
            shared.panicked.store(true, Ordering::Release);
        }
        shared.done.fetch_add(1, Ordering::Release);
    }
}

/// The cycle engine's shard state, built by `Network::new` and
/// `Network::set_shards` and reused every cycle: the partition, the
/// worker pool (no threads at one shard) and one context per shard. Its
/// two phase methods run a phase body on the calling thread, applying
/// effects in place — with one shard, or when `inline` (every phase of
/// a fault run) — or on every shard, followed by the ordered replay.
#[derive(Debug)]
pub(crate) struct ShardRuntime {
    plan: ShardPlan,
    pool: WorkerPool,
    ctxs: Vec<ShardCtx>,
}

impl ShardRuntime {
    pub(crate) fn new(
        shards: usize,
        routers: usize,
        links: &[Link],
        radix: usize,
        vcs: usize,
        depth: usize,
    ) -> Self {
        assert!((1..=MAX_SHARDS).contains(&shards), "shard count out of range");
        let plan = ShardPlan::new(routers, links, shards);
        let ctxs = (0..shards)
            .map(|s| {
                // Per cycle: in the link phase at most one due flit and a
                // couple of credits per wire; in the fused phase at most
                // one ST grant per output port per router, with its trace
                // events, then one NIC flit per local buffer slot. One
                // shard logs nothing.
                let (nodes, duties) = (plan.range(s).len(), plan.duties[s].len());
                let log = if shards == 1 {
                    0
                } else {
                    (nodes * radix * 8 + nodes * vcs * depth + 8).max(duties * 4 + 16)
                };
                ShardCtx {
                    scratch: StepScratch::new(radix, vcs),
                    tallies: PipelineTallies::default(),
                    log: Vec::with_capacity(log),
                    split: 0,
                }
            })
            .collect();
        ShardRuntime { plan, pool: WorkerPool::new(shards - 1), ctxs }
    }

    /// The shard count.
    pub(crate) fn shards(&self) -> usize {
        self.ctxs.len()
    }

    /// Phase 1, link delivery, for a fault-free network (a fault run's
    /// link layer feeds the same [`accept_flit`]/[`accept_credit`] from
    /// its own loop). Each shard runs [`deliver`] over its wires; with N
    /// shards one k-way merge over the logs, each link-ascending, then
    /// replays them in the one-shard order: by link, flits before
    /// credits. Credits are logged only when traced, and arrivals not at
    /// all on the tally path, so the merge costs at most O(flits
    /// delivered), not O(links).
    pub(crate) fn deliver_links(
        &mut self,
        routers: &mut [Router],
        activity: &mut [RouterActivity],
        links: &[Link],
        wires: &mut WireTable,
        out: &mut Sinks<'_>,
    ) {
        self.plan.check_nodes(&[routers.len(), activity.len()]);
        self.plan.check_links(links.len());
        let ShardRuntime { plan, pool, ctxs } = self;
        let plan = &*plan;
        let routers = SyncPtr(routers.as_mut_ptr());
        let activity = SyncPtr(activity.as_mut_ptr());
        let wires = LinkWires::new(links, wires);
        let cycle = out.cycle;
        if ctxs.len() == 1 {
            // SAFETY: the one shard owns every wire, router and activity
            // row, and this thread holds them all exclusively.
            unsafe {
                deliver(&plan.duties[0], plan.range(0), wires, routers, activity, cycle, out)
            };
            return;
        }
        let (traced, tally) = (out.traced, out.tally);
        let ctxs_ptr = SyncPtr(ctxs.as_mut_ptr());
        pool.run(&move |s| {
            // SAFETY: one context per shard, indexed by the shard's id.
            let ctx = unsafe { &mut *ctxs_ptr.get().add(s) };
            ctx.log.clear();
            let mut log = ShardLog { log: &mut ctx.log, traced, tally, t: &mut ctx.tallies };
            // SAFETY: the plan gives each wire to exactly one shard —
            // a flit wire to the shard of its destination router, a
            // credit wire to the shard of its source router — and
            // `deliver` asserts that every popped wire's router lies in
            // this shard's range, so no two workers share a wire, a
            // router or an activity row.
            unsafe {
                deliver(&plan.duties[s], plan.range(s), wires, routers, activity, cycle, &mut log)
            };
        });
        for ctx in ctxs.iter_mut() {
            ctx.tallies.merge_into(out.counters);
        }
        let mut cursor = [0usize; MAX_SHARDS];
        loop {
            let mut next: Option<((u32, bool), usize)> = None;
            for (s, ctx) in ctxs.iter().enumerate() {
                if let Some(e) = ctx.log.get(cursor[s]) {
                    let key = e.link_key();
                    if next.is_none_or(|(k, _)| key < k) {
                        next = Some((key, s));
                    }
                }
            }
            let Some((_, s)) = next else { break };
            out.apply(ctxs[s].log[cursor[s]]);
            cursor[s] += 1;
        }
    }

    /// Phase 2, fused: router pipelines, the occupancy count and NIC
    /// injection, which are all node-local. Inline, [`step_range`] runs
    /// through a [`DirectFx`] over every router and [`inject_range`]
    /// applies into `out` directly; with N shards each shard runs both
    /// through one [`DeferredFx`] over its own nodes — sending flits and
    /// credits in place, counting its occupancy and writing its rows of
    /// `occupancy_rows` (the metrics windows' per-router sums, when
    /// collected) — and the logs replay in the one-shard order: every
    /// shard's pipeline entries in shard (= router-ascending) order, then
    /// every shard's injection entries the same way.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_nodes(
        &mut self,
        routers: &mut [Router],
        activity: &mut [RouterActivity],
        links: &mut [Link],
        wires: &mut WireTable,
        nics: &mut [Nic],
        occupancy_rows: Option<&mut [u64]>,
        topo: &dyn Topology,
        out: &mut Sinks<'_>,
        inline: bool,
    ) {
        let n = routers.len();
        let rows_len = occupancy_rows.as_ref().map_or(n, |r| r.len());
        self.plan.check_nodes(&[n, activity.len(), nics.len(), rows_len]);
        self.plan.check_links(links.len());
        let ShardRuntime { plan, pool, ctxs } = self;
        let plan = &*plan;
        let routers = SyncPtr(routers.as_mut_ptr());
        let activity = SyncPtr(activity.as_mut_ptr());
        let nics = SyncPtr(nics.as_mut_ptr());
        let rows = occupancy_rows.map(|r| SyncPtr(r.as_mut_ptr()));
        let cycle = out.cycle;
        if inline || ctxs.len() == 1 {
            let ShardCtx { scratch, tallies, .. } = &mut ctxs[0];
            let occupancy = {
                let mut fx = DirectFx { sinks: out.reborrow(), links, wires, t: &mut *tallies };
                // SAFETY: this thread holds every router, activity row
                // and occupancy row exclusively.
                unsafe { step_range(0..n, routers, activity, rows, topo, scratch, cycle, &mut fx) }
            };
            tallies.occupancy += occupancy;
            // SAFETY: this thread holds every NIC, router and activity
            // row exclusively.
            unsafe { inject_range(0..n, nics, routers, activity, cycle, out) };
            tallies.merge_into(out.counters);
            return;
        }
        let (traced, journeys_on, tally) = (out.traced, out.journeys.is_some(), out.tally);
        let wires = LinkWires::new(links, wires);
        let slots = ArenaSlots::new(out.arena);
        let ctxs_ptr = SyncPtr(ctxs.as_mut_ptr());
        pool.run(&move |s| {
            // SAFETY: one context per shard, indexed by the shard's id.
            let ctx = unsafe { &mut *ctxs_ptr.get().add(s) };
            ctx.log.clear();
            let range = plan.range(s);
            let mut fx = DeferredFx {
                range: range.clone(),
                slots,
                wires,
                traced,
                journeys_on,
                tally,
                log: &mut ctx.log,
                t: &mut ctx.tallies,
            };
            // SAFETY: shard ranges are disjoint, so this shard is the
            // only one stepping these routers and writing their activity
            // and occupancy rows; `DeferredFx` asserts the wire rules of
            // the phase.
            let occupancy = unsafe {
                step_range(
                    range.clone(),
                    routers,
                    activity,
                    rows,
                    topo,
                    &mut ctx.scratch,
                    cycle,
                    &mut fx,
                )
            };
            fx.t.occupancy += occupancy;
            ctx.split = fx.log.len();
            // SAFETY: as above; a node's NIC shares its router's shard.
            unsafe { inject_range(range, nics, routers, activity, cycle, &mut fx) };
        });
        for ctx in ctxs.iter_mut() {
            ctx.tallies.merge_into(out.counters);
        }
        for ctx in ctxs.iter() {
            ctx.log[..ctx.split].iter().for_each(|&e| out.apply(e));
        }
        for ctx in ctxs.iter() {
            ctx.log[ctx.split..].iter().for_each(|&e| out.apply(e));
        }
    }
}

/// Buffers flit `f`, delivered off link `li` into `router`'s input
/// `port`, and commits its ordered remainder: the one arrival tail, for
/// the link-phase body and the fault layer alike.
pub(crate) fn accept_flit<O: Commit>(
    out: &mut O,
    router: &mut Router,
    act: &mut RouterActivity,
    li: u32,
    port: PortId,
    f: &FlitInFlight,
    cycle: u64,
) {
    let h = &f.hdr;
    let fraction = router.receive(port, *h, cycle);
    act.buffer_events += fraction;
    let (head, vc, packet) = (h.is_head(), h.vc(), h.packet);
    out.commit(Effect::Arrival { li, head, router: router.id(), port, vc, packet, fraction });
}

/// Returns a credit, delivered off link `li`, to `router`'s output
/// `port`; when traced, commits its `CreditReturn` event.
pub(crate) fn accept_credit<O: Commit>(
    out: &mut O,
    router: &mut Router,
    li: u32,
    port: PortId,
    vc: VcId,
) {
    router.receive_credit(port, vc);
    if out.traced() {
        out.commit(Effect::Credit { li, router: router.id(), port, vc });
    }
}

/// The link-delivery body: for each of `duties`, link-ascending, pops
/// the due flits and then the due credits of the wires it names — per
/// link, flits then credits, the order the trace stream pins — buffering
/// each flit and returning each credit in place.
///
/// # Safety
///
/// Until it returns, the calling thread must be the only one touching
/// the wires `duties` names and the routers and activity rows in
/// `range`; `routers` and `activity` must point to tables covering
/// `range`. Each popped wire's router is asserted to lie in `range`.
unsafe fn deliver<O: Commit>(
    duties: &[Duty],
    range: Range<usize>,
    wires: LinkWires<'_>,
    routers: SyncPtr<Router>,
    activity: SyncPtr<RouterActivity>,
    cycle: u64,
    out: &mut O,
) {
    for d in duties {
        let li = d.li as usize;
        // Endpoints resolve only once something is due: most wires
        // deliver nothing in a given cycle.
        if d.flits {
            // SAFETY: per the contract, this thread owns the flit wire.
            while let Some(f) = unsafe { wires.take_due_flit(li, cycle) } {
                let (dst, port) = wires.to(li);
                assert!(range.contains(&dst.index()), "flit wire {li} outside shard {range:?}");
                // SAFETY: `dst` lies in `range` (asserted above), which
                // this thread owns, and so does its activity row.
                let router = unsafe { &mut *routers.get().add(dst.index()) };
                // SAFETY: as for the router.
                let act = unsafe { &mut *activity.get().add(dst.index()) };
                accept_flit(out, router, act, d.li, port, &f, cycle);
            }
        }
        if d.credits {
            // SAFETY: per the contract, this thread owns the credit wire.
            while let Some(c) = unsafe { wires.take_due_credit(li, cycle) } {
                let (src, port) = wires.from(li);
                assert!(range.contains(&src.index()), "credit wire {li} outside shard {range:?}");
                // SAFETY: `src` lies in `range` (asserted above), which
                // this thread owns.
                let router = unsafe { &mut *routers.get().add(src.index()) };
                accept_credit(out, router, d.li, port, c.vc);
            }
        }
    }
}

/// The router-pipeline body: steps every non-quiescent router in
/// `range` through `fx` and returns the flits the routers hold after
/// it, adding each router's count to its row of `rows` when metrics
/// windows are collected. Only a router's own step changes its buffers
/// in this phase, so counting right after it is counting after all.
///
/// # Safety
///
/// Until it returns, the calling thread must be the only one touching
/// the routers, activity rows and occupancy rows in `range`; `routers`,
/// `activity` and `rows` must point to tables covering `range`. `fx`
/// upholds the wire rules of the pipeline phase.
#[allow(clippy::too_many_arguments)]
unsafe fn step_range<F: StepFx>(
    range: Range<usize>,
    routers: SyncPtr<Router>,
    activity: SyncPtr<RouterActivity>,
    rows: Option<SyncPtr<u64>>,
    topo: &dyn Topology,
    scratch: &mut StepScratch,
    cycle: u64,
    fx: &mut F,
) -> u64 {
    let mut occupancy = 0u64;
    for i in range {
        // SAFETY: router `i` lies in `range`, which this thread owns.
        let r = unsafe { &mut *routers.get().add(i) };
        if r.is_quiescent() {
            continue;
        }
        // SAFETY: as for the router.
        let act = unsafe { &mut *activity.get().add(i) };
        r.step(cycle, topo, scratch, act, fx);
        let buffered = r.buffered_flits() as u64;
        occupancy += buffered;
        if let Some(rows) = rows {
            // SAFETY: as for the router.
            unsafe { *rows.get().add(i) += buffered };
        }
    }
    occupancy
}

/// The NIC-injection body: moves queued flits of the nodes in `range`
/// into their local input buffers as space permits, skipping a NIC with
/// nothing queued without touching its queues. A flit of a packet the
/// fault layer severed dies at the source when `out` drops it.
///
/// # Safety
///
/// Until it returns, the calling thread must be the only one touching
/// the NICs, routers and activity rows in `range`; the three pointers
/// must point to tables covering `range`.
unsafe fn inject_range<O: InjectFx>(
    range: Range<usize>,
    nics: SyncPtr<Nic>,
    routers: SyncPtr<Router>,
    activity: SyncPtr<RouterActivity>,
    cycle: u64,
    out: &mut O,
) {
    for node in range {
        // SAFETY: node `node` lies in `range`, which this thread owns,
        // with its NIC, router and activity row.
        let nic = unsafe { &mut *nics.get().add(node) };
        if nic.queued() == 0 {
            continue;
        }
        // SAFETY: as for the NIC.
        let router = unsafe { &mut *routers.get().add(node) };
        // SAFETY: as for the NIC.
        let act = unsafe { &mut *activity.get().add(node) };
        for vc in (0..nic.vcs()).map(VcId) {
            while let Some(fref) = nic.front(vc) {
                if out.drop_severed(fref) {
                    nic.pop(vc);
                    continue;
                }
                if router.local_free_slots(vc) == 0 {
                    break;
                }
                nic.pop(vc);
                let hdr = FlitHeader::of(fref, out.flit(fref), vc);
                let (packet, head) = (hdr.packet, hdr.is_head());
                let fraction = router.receive(PortId::LOCAL, hdr, cycle);
                act.buffer_events += fraction;
                out.commit(Effect::Inject { node: NodeId(node), vc, packet, head, fraction });
            }
        }
    }
}

/// A raw pointer that asserts cross-thread shareability. Soundness is
/// the phase body's obligation: every phase hands each shard a disjoint
/// set of elements of the pointee (routers, activity rows, source
/// queues or contexts of its own shard).
struct SyncPtr<T>(*mut T);

// Manual impls: the derives would bound on `T: Copy`, but the wrapper
// copies the pointer, not the pointee.
impl<T> Clone for SyncPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SyncPtr<T> {}

// SAFETY: see the type's documentation — workers dereference disjoint
// elements only, and `T: Send` lets them mutate those on other threads.
unsafe impl<T: Send> Send for SyncPtr<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// The wrapped pointer. A method (not field access) so closures
    /// capture the `Sync` wrapper rather than disjointly capturing the
    /// raw pointer, which is `!Sync`.
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_every_shard_and_joins() {
        let pool = WorkerPool::new(3);
        let hits = [const { AtomicUsize::new(0) }; 4];
        for round in 1..=5usize {
            pool.run(&|s| {
                hits[s].fetch_add(s + 1, Ordering::Relaxed);
            });
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), (s + 1) * round, "shard {s} round {round}");
            }
        }
    }

    #[test]
    fn pool_propagates_worker_panic_without_deadlock() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|s| {
                if s == 2 {
                    panic!("shard 2 exploded");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must surface on the dispatcher");
        // The pool survives the panic: the next dispatch still works.
        let ok = AtomicUsize::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn plan_partitions_routers_and_links_exactly_once() {
        use crate::ids::{NodeId, PortId};
        let links: Vec<Link> = (0..12)
            .map(|i| Link::new((NodeId(i % 9), PortId(1)), (NodeId((i + 1) % 9), PortId(2)), 1.0))
            .collect();
        let plan = ShardPlan::new(9, &links, 4);
        assert_eq!(plan.ranges.first(), Some(&(0, 2)));
        assert_eq!(plan.ranges.last(), Some(&(6, 9)));
        let covered: usize = plan.ranges.iter().map(|(a, b)| b - a).sum();
        assert_eq!(covered, 9, "every router in exactly one shard");
        // Each shard's duties are link-ascending and name only wires of
        // its routers — a flit wire under the shard of `link.to`, a
        // credit wire under the shard of `link.from` — and together
        // they name every wire exactly once.
        let mut seen = vec![(0u32, 0u32); links.len()];
        for (w, duties) in plan.duties.iter().enumerate() {
            let range = plan.range(w);
            let mut prev = None;
            for d in duties {
                let l = &links[d.li as usize];
                assert!(d.flits || d.credits, "duty {} names no wire", d.li);
                assert!(
                    !d.flits || range.contains(&l.to.0.index()),
                    "flit wire {} under {w}",
                    d.li
                );
                assert!(
                    !d.credits || range.contains(&l.from.0.index()),
                    "credit wire {} under {w}",
                    d.li
                );
                assert!(prev.is_none_or(|p| p < d.li), "per-shard duties ascending");
                prev = Some(d.li);
                seen[d.li as usize].0 += u32::from(d.flits);
                seen[d.li as usize].1 += u32::from(d.credits);
            }
        }
        assert!(seen.iter().all(|&c| c == (1, 1)), "every wire owned exactly once");
    }
}
