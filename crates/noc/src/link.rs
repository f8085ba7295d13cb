//! Inter-router links: flit transport forward, credit returns backward.
//!
//! A link models one unidirectional physical channel (the reverse credit
//! wire rides along). Delivery times are assigned by the sender according
//! to the pipeline configuration: with ST+LT combining the flit is
//! available at the downstream router on the cycle after switch traversal;
//! with a separate LT stage it spends one extra cycle on the wire
//! (paper Fig. 8).
//!
//! In the multi-layered designs the link is bit-sliced like the rest of
//! the datapath (paper §3.2.3); the slice accounting happens in the
//! activity counters, keyed by the per-flit active-layer fraction.
//!
//! A wire carries each flit's [`FlitHeader`] by value (with the
//! [`crate::arena::FlitRef`] of the full flit inside it), so a hop never
//! reads the arena. The wires of every link live in one flat
//! [`WireTable`] of fixed-capacity rings, kept apart from the cold
//! [`Link`] fields (endpoints, length, ARQ state): link delivery walks
//! dense ring metadata, and a ring's length is its wire's in-flight count
//! (DESIGN.md §14, §18). The only place a link clones payloads is the ARQ
//! retransmit window, which by design must hold a pristine copy that
//! survives corruption of the in-flight original; ARQ is off unless
//! fault injection enables it, so the default path stays copy-free.

use std::collections::VecDeque;
use std::marker::PhantomData;

use crate::arena::FlitArena;
use crate::buffer::{ring_index, FlitHeader};
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::packet::PacketId;

/// A flit in flight on a link: its header and delivery cycle (32 bytes).
///
/// # Invariant
///
/// `deliver_at` is always computed through [`Link::delivery_cycle`],
/// which checks the `cycle + 1 + extra` arithmetic against `u64`
/// overflow. Simulations run for at most a few billion cycles, so the
/// counter stays far below `u64::MAX`; the checked arithmetic turns a
/// hypothetical wrap (which would silently violate the FIFO ordering
/// of a wire) into a panic at the injection seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitInFlight {
    /// The flit's header; its `vc` is the downstream input VC.
    pub hdr: FlitHeader,
    /// Cycle at which the flit becomes visible to the downstream router.
    pub deliver_at: u64,
}

/// A credit return in flight on a link (towards the upstream router).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditInFlight {
    /// Cycle at which the credit reaches the upstream router.
    pub deliver_at: u64,
    /// Output VC (on the upstream router) being credited.
    pub vc: VcId,
}

/// One unacknowledged flit held by the sender-side retransmit buffer.
///
/// The window owns a full [`Flit`] copy rather than an arena reference:
/// a resend must replay the *pristine* payload even after the in-flight
/// original was corrupted, delivered, or freed. It also keeps the header
/// the flit was sent with (hop count and downstream VC included).
#[derive(Debug, Clone)]
struct ArqEntry {
    seq: u64,
    hdr: FlitHeader,
    flit: Flit,
}

/// Sender-side go-back-N retransmission state for one link.
///
/// Every flit sent while ARQ is on gets a link-level sequence number
/// and a pristine copy in the `window` until the receiver acknowledges
/// it (clean delivery). On a parity NACK the physical wire is purged
/// and, after a bounded exponential backoff, the *whole* window is
/// resent in order — which is what keeps the wire a FIFO and makes
/// duplicates impossible (each sequence number is on the wire at most
/// once). Every delivered flit is acknowledged or NACKed on the spot, so
/// the flit at the front of the wire is always the window's front entry,
/// which is where the receiver reads its sequence number.
#[derive(Debug, Clone)]
struct LinkArq {
    window: VecDeque<ArqEntry>,
    next_seq: u64,
    /// When `Some`, a resend is scheduled: new sends go to the window
    /// only (they ride the resend), so the wire never reorders.
    resend_at: Option<u64>,
    /// Consecutive failed attempts for the current window head; reset
    /// on acknowledged progress.
    retries: u32,
    /// Full sender-to-receiver latency in cycles (`1 + LT cycles`).
    latency: u64,
}

/// One unidirectional link between two router ports: the cold fields.
/// Its two wires live in the network's [`WireTable`], at the link's
/// index.
#[derive(Debug, Clone)]
pub struct Link {
    /// Upstream endpoint: (router, output port).
    pub from: (NodeId, PortId),
    /// Downstream endpoint: (router, input port).
    pub to: (NodeId, PortId),
    /// Physical wire length in millimetres (drives power/delay models).
    pub length_mm: f64,
    /// Retransmission state, boxed and absent unless fault injection
    /// enables it — the default path carries only a null pointer.
    arq: Option<Box<LinkArq>>,
}

impl Link {
    /// Creates a link; its wires are the [`WireTable`] entry of the same
    /// index.
    pub fn new(from: (NodeId, PortId), to: (NodeId, PortId), length_mm: f64) -> Self {
        Link { from, to, length_mm, arq: None }
    }

    /// Computes the delivery cycle `cycle + 1 + extra`, panicking on
    /// `u64` overflow instead of silently wrapping.
    ///
    /// A wrapped `deliver_at` would schedule a flit in the distant past
    /// and corrupt the FIFO invariant of a wire; every scheduled
    /// delivery (switch traversal and ARQ resend alike) goes through
    /// this check.
    pub fn delivery_cycle(cycle: u64, extra: u64) -> u64 {
        cycle
            .checked_add(Link::nominal_latency(extra))
            .expect("cycle counter overflow: scheduled deliver_at would wrap")
    }

    /// Fault-free sender-to-receiver latency in cycles for a link with
    /// `extra` additional LT cycles: `1 + extra`. This is the latency the
    /// ARQ retransmitter replays at, the budget the journey recorder
    /// charges to plain link traversal (anything beyond it is ARQ replay
    /// time), and the most flits a fault-free wire ever holds.
    pub const fn nominal_latency(extra: u64) -> u64 {
        1 + extra
    }

    /// Enables sender-side go-back-N retransmission with the given
    /// sender-to-receiver latency in cycles (`1 + LT cycles`).
    pub fn enable_arq(&mut self, latency: u64) {
        self.arq = Some(Box::new(LinkArq {
            window: VecDeque::new(),
            next_seq: 0,
            resend_at: None,
            retries: 0,
            latency,
        }));
    }

    /// `true` when retransmission is enabled on this link.
    pub fn arq_enabled(&self) -> bool {
        self.arq.is_some()
    }

    /// Sends the flit `hdr` describes down `wire`, to be delivered at
    /// `deliver_at`. Ownership of its arena slot moves to the link (and
    /// back out through [`Link::take_due_flit`]).
    ///
    /// Delivery times must be non-decreasing across calls (links are
    /// FIFOs); this holds by construction because the per-link latency is
    /// constant and senders call this once per cycle at most. With ARQ
    /// on, a NACK purges the wire before any resend is pushed, and new
    /// sends during a pending resend go to the window only, so the
    /// invariant survives retransmission too.
    pub(crate) fn send_flit(
        &mut self,
        arena: &mut FlitArena,
        wire: &mut Wire<'_>,
        hdr: FlitHeader,
        deliver_at: u64,
    ) {
        if let Some(a) = &mut self.arq {
            let seq = a.next_seq;
            a.next_seq += 1;
            a.window.push_back(ArqEntry { seq, hdr, flit: arena.get(hdr.fref).clone() });
            if a.resend_at.is_some() {
                // A resend is scheduled: the wire was purged and will be
                // repopulated (including this flit) when the backoff
                // expires. Pushing now would deliver this flit ahead of
                // its predecessors.
                arena.free(hdr.fref);
                return;
            }
        }
        wire.push_flit(FlitInFlight { hdr, deliver_at });
    }

    /// Removes and returns the next flit due on `wire` at or before
    /// `cycle`, with the link-level sequence number ARQ stamped on it (0
    /// when ARQ is off).
    pub(crate) fn take_due_flit(
        &self,
        wire: &mut Wire<'_>,
        cycle: u64,
    ) -> Option<(FlitInFlight, u64)> {
        let f = wire.take_due_flit(cycle)?;
        let seq = self.arq.as_ref().map_or(0, |a| {
            let e = a.window.front().expect("an ARQ wire carries only window entries");
            debug_assert_eq!(e.hdr.packet, f.hdr.packet, "wire front is not the window front");
            e.seq
        });
        Some((f, seq))
    }

    /// Cumulative acknowledgement: drops every retransmit-window entry
    /// with sequence number `<= seq` (the receiver took the flit
    /// cleanly) and resets the retry counter — progress was made.
    pub fn arq_ack(&mut self, seq: u64) {
        if let Some(a) = &mut self.arq {
            while a.window.front().is_some_and(|e| e.seq <= seq) {
                a.window.pop_front();
            }
            a.retries = 0;
        }
    }

    /// Negative acknowledgement: the receiver detected corruption.
    /// Purges `wire` (go-back-N: everything after the bad flit is dropped
    /// and will be resent in order; their arena slots are freed — the
    /// window clones are authoritative) and schedules a full-window
    /// resend after an exponential backoff capped at 64 cycles. Returns
    /// the consecutive-retry count for the current window head.
    pub(crate) fn arq_nack(
        &mut self,
        wire: &mut Wire<'_>,
        cycle: u64,
        arena: &mut FlitArena,
    ) -> u32 {
        let a = self.arq.as_mut().expect("NACK on a link without ARQ");
        while let Some(f) = wire.flit_ring.pop(wire.flits) {
            arena.free(f.hdr.fref);
        }
        a.retries += 1;
        let backoff = 1u64 << a.retries.min(6);
        a.resend_at = Some(Link::delivery_cycle(cycle, backoff));
        a.retries
    }

    /// Drops the packet owning the window head (retry budget
    /// exhausted): removes every window entry of that packet and
    /// returns the packet id plus the downstream VC of each removed
    /// entry (the caller refluxes one credit per entry, because the
    /// downstream buffer slots those flits reserved will never fill).
    pub fn arq_drop_front_packet(&mut self) -> Option<(PacketId, Vec<VcId>)> {
        let a = self.arq.as_mut()?;
        let pid = a.window.front()?.hdr.packet;
        let mut vcs = Vec::new();
        a.window.retain(|e| {
            if e.hdr.packet == pid {
                vcs.push(e.hdr.vc());
                false
            } else {
                true
            }
        });
        a.retries = 0;
        if a.window.is_empty() {
            a.resend_at = None;
        }
        Some((pid, vcs))
    }

    /// Executes a due scheduled resend: pushes every window entry back
    /// onto `wire` in order (re-allocating each pristine copy into the
    /// arena, with the header it was sent with). Returns the number of
    /// flits resent (0 when no resend was due).
    pub(crate) fn arq_service(
        &mut self,
        wire: &mut Wire<'_>,
        cycle: u64,
        arena: &mut FlitArena,
    ) -> u64 {
        let Some(a) = &mut self.arq else { return 0 };
        if a.resend_at.is_none_or(|at| at > cycle) {
            return 0;
        }
        a.resend_at = None;
        debug_assert!(wire.flits() == 0, "wire must be purged before a resend");
        let deliver_at = Link::delivery_cycle(cycle, a.latency - 1);
        for e in &a.window {
            let hdr = FlitHeader { fref: arena.alloc(e.flit.clone()), ..e.hdr };
            wire.push_flit(FlitInFlight { hdr, deliver_at });
        }
        a.window.len() as u64
    }

    /// `true` while a resend is scheduled but not yet executed — the
    /// window during which the upstream router pauses new grants
    /// toward this link (surfaced as the `LinkFault` stall cause).
    pub fn arq_resend_pending(&self) -> bool {
        self.arq.as_ref().is_some_and(|a| a.resend_at.is_some())
    }

    /// Unacknowledged flits in the retransmit window.
    pub fn arq_window_len(&self) -> usize {
        self.arq.as_ref().map_or(0, |a| a.window.len())
    }

    /// Permanently kills the link: purges `wire` and the retransmit
    /// window (freeing the arena slots of everything on the wire),
    /// returning the `(packet, downstream VC)` of every lost
    /// unacknowledged flit so the caller can account the drops. With
    /// ARQ on, the window is a superset of the wire, so the returned
    /// list covers every in-flight flit exactly once.
    pub(crate) fn kill(
        &mut self,
        wire: &mut Wire<'_>,
        arena: &mut FlitArena,
    ) -> Vec<(PacketId, VcId)> {
        let mut lost: Vec<(PacketId, VcId)> = Vec::new();
        if let Some(a) = &mut self.arq {
            lost.extend(a.window.drain(..).map(|e| (e.hdr.packet, e.hdr.vc())));
            a.resend_at = None;
            a.retries = 0;
        }
        while let Some(f) = wire.flit_ring.pop(wire.flits) {
            if self.arq.is_none() {
                lost.push((f.hdr.packet, f.hdr.vc()));
            }
            arena.free(f.hdr.fref);
        }
        lost
    }

    /// Number of flits in flight, given the link's [`WireTable`]. With
    /// ARQ on this is the unacknowledged window (a superset of the wire:
    /// a NACK moves flits off the wire but they remain logically in
    /// flight at the sender's retransmit buffer until acknowledged).
    pub(crate) fn flits_in_flight(&self, wires: &WireTable, li: usize) -> usize {
        match &self.arq {
            Some(a) => a.window.len(),
            None => wires.flits(li),
        }
    }

    /// Returns `true` if no flits or credits are in flight on the
    /// link's wires (entry `li` of `wires`) and (with ARQ) no flit
    /// awaits acknowledgement or resend.
    pub(crate) fn is_quiescent(&self, wires: &WireTable, li: usize) -> bool {
        wires.flits(li) == 0
            && wires.credits(li) == 0
            && self.arq.as_ref().is_none_or(|a| a.window.is_empty() && a.resend_at.is_none())
    }
}

/// Head slot and length of one wire's ring; the length is the wire's
/// in-flight count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ring {
    head: u16,
    len: u16,
}

impl Ring {
    #[inline]
    fn len(self) -> usize {
        usize::from(self.len)
    }

    /// The `k`-th entry from the front of the ring over `slots`.
    #[inline]
    fn get<T>(self, slots: &[T], k: usize) -> &T {
        &slots[ring_index(usize::from(self.head), k, slots.len())]
    }

    /// Appends `v`.
    ///
    /// # Panics
    ///
    /// Panics when the ring is full: capacities are the flow-control
    /// bounds of a wire, so an overflow is a flow-control bug, exactly
    /// like a router buffer overflow.
    #[inline]
    fn push<T>(&mut self, slots: &mut [T], v: T) {
        assert!(self.len() < slots.len(), "wire ring overflow: flow control is broken");
        slots[ring_index(usize::from(self.head), self.len(), slots.len())] = v;
        self.len += 1;
    }

    /// Removes and returns the front entry.
    #[inline]
    fn pop<T: Copy>(&mut self, slots: &[T]) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = slots[usize::from(self.head)];
        self.head = ring_index(usize::from(self.head), 1, slots.len()) as u16;
        self.len -= 1;
        Some(v)
    }

    /// Removes and returns the front entry when `due` says it is due.
    #[inline]
    fn pop_due<T: Copy>(&mut self, slots: &[T], due: impl Fn(&T) -> bool) -> Option<T> {
        if self.len == 0 || !due(self.get(slots, 0)) {
            return None;
        }
        self.pop(slots)
    }
}

/// Every link's two wires, as one flat table of fixed-capacity rings:
/// link `li`'s flit ring holds slots `li*flit_cap .. (li+1)*flit_cap` of
/// one entry array, its credit ring the same stretch of another, and the
/// ring heads and lengths sit in two dense arrays of their own.
///
/// Capacities come from the configuration: a fault-free flit wire holds
/// at most `1 + LT` flits (one send per cycle, each due `1 + LT` cycles
/// later) and a credit wire one credit (one per cycle, due the next).
/// With ARQ a resend replays a whole window onto the wire, and credit
/// conservation bounds both wires by `vcs × depth`
/// ([`WireTable::resize`]). A push past capacity panics.
#[derive(Debug, Clone)]
pub(crate) struct WireTable {
    flit_cap: usize,
    credit_cap: usize,
    flit_rings: Box<[Ring]>,
    credit_rings: Box<[Ring]>,
    flits: Box<[FlitInFlight]>,
    credits: Box<[CreditInFlight]>,
}

/// A placeholder for unused flit ring slots.
const NO_FLIT: FlitInFlight = FlitInFlight { hdr: FlitHeader::EMPTY, deliver_at: 0 };
/// A placeholder for unused credit ring slots.
const NO_CREDIT: CreditInFlight = CreditInFlight { deliver_at: 0, vc: VcId(0) };

impl WireTable {
    /// Empty wires for `links` links, holding up to `flit_cap` flits and
    /// `credit_cap` credits per wire.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is zero or above `u16::MAX`.
    pub fn new(links: usize, flit_cap: usize, credit_cap: usize) -> Self {
        for cap in [flit_cap, credit_cap] {
            assert!((1..=usize::from(u16::MAX)).contains(&cap), "wire capacity {cap} out of range");
        }
        WireTable {
            flit_cap,
            credit_cap,
            flit_rings: vec![Ring::default(); links].into_boxed_slice(),
            credit_rings: vec![Ring::default(); links].into_boxed_slice(),
            flits: vec![NO_FLIT; links * flit_cap].into_boxed_slice(),
            credits: vec![NO_CREDIT; links * credit_cap].into_boxed_slice(),
        }
    }

    /// Rebuilds the table with new capacities, keeping every wire's
    /// contents in order (fault injection widens the rings to its ARQ
    /// bound).
    pub fn resize(&mut self, flit_cap: usize, credit_cap: usize) {
        let mut next = WireTable::new(self.links(), flit_cap, credit_cap);
        for li in 0..self.links() {
            let (from, mut to) = (self.wire(li), next.wire(li));
            while let Some(f) = from.flit_ring.pop(from.flits) {
                to.push_flit(f);
            }
            while let Some(c) = from.credit_ring.pop(from.credits) {
                to.credit_ring.push(to.credits, c);
            }
        }
        *self = next;
    }

    /// The number of links.
    pub fn links(&self) -> usize {
        self.flit_rings.len()
    }

    /// Flits on link `li`'s wire.
    #[inline]
    pub fn flits(&self, li: usize) -> usize {
        self.flit_rings[li].len()
    }

    /// Credits on link `li`'s credit wire.
    #[inline]
    pub fn credits(&self, li: usize) -> usize {
        self.credit_rings[li].len()
    }

    /// The flits on link `li`'s wire, front first.
    pub fn flits_on(&self, li: usize) -> impl Iterator<Item = &FlitInFlight> {
        let ring = self.flit_rings[li];
        let slots = &self.flits[li * self.flit_cap..(li + 1) * self.flit_cap];
        (0..ring.len()).map(move |k| ring.get(slots, k))
    }

    /// Both wires of link `li`.
    pub fn wire(&mut self, li: usize) -> Wire<'_> {
        let (fc, cc) = (self.flit_cap, self.credit_cap);
        Wire {
            flit_ring: &mut self.flit_rings[li],
            flits: &mut self.flits[li * fc..(li + 1) * fc],
            credit_ring: &mut self.credit_rings[li],
            credits: &mut self.credits[li * cc..(li + 1) * cc],
        }
    }

    /// Panics unless every ring holds at most its capacity and its
    /// flits and credits are in non-decreasing `deliver_at` order (the
    /// FIFO invariant link delivery relies on).
    pub fn assert_consistent(&self) {
        for li in 0..self.links() {
            let (f, c) = (self.flit_rings[li], self.credit_rings[li]);
            assert!(f.len() <= self.flit_cap, "link {li}: flit ring over capacity");
            assert!(c.len() <= self.credit_cap, "link {li}: credit ring over capacity");
            assert!(usize::from(f.head) < self.flit_cap && usize::from(c.head) < self.credit_cap);
            let due: Vec<u64> = self.flits_on(li).map(|x| x.deliver_at).collect();
            assert!(due.is_sorted(), "link {li}: flit wire out of order {due:?}");
            let slots = &self.credits[li * self.credit_cap..(li + 1) * self.credit_cap];
            let due: Vec<u64> = (0..c.len()).map(|k| c.get(slots, k).deliver_at).collect();
            assert!(due.is_sorted(), "link {li}: credit wire out of order {due:?}");
        }
    }
}

/// Both wires of one link, borrowed from the [`WireTable`].
#[derive(Debug)]
pub(crate) struct Wire<'a> {
    flit_ring: &'a mut Ring,
    flits: &'a mut [FlitInFlight],
    credit_ring: &'a mut Ring,
    credits: &'a mut [CreditInFlight],
}

impl Wire<'_> {
    /// Flits on the wire.
    pub fn flits(&self) -> usize {
        self.flit_ring.len()
    }

    /// Pushes `f` onto the flit wire (no ARQ involved; see
    /// [`Link::send_flit`]).
    #[inline]
    pub fn push_flit(&mut self, f: FlitInFlight) {
        push_flit(self.flit_ring, self.flits, f);
    }

    /// Removes and returns the next flit due at or before `cycle`.
    #[inline]
    pub fn take_due_flit(&mut self, cycle: u64) -> Option<FlitInFlight> {
        self.flit_ring.pop_due(self.flits, |f| f.deliver_at <= cycle)
    }

    /// Sends a credit upstream, to be delivered at `deliver_at`.
    #[inline]
    pub fn send_credit(&mut self, vc: VcId, deliver_at: u64) {
        self.credit_ring.push(self.credits, CreditInFlight { deliver_at, vc });
    }

    /// Removes and returns the next credit due at or before `cycle`.
    #[inline]
    pub fn take_due_credit(&mut self, cycle: u64) -> Option<CreditInFlight> {
        self.credit_ring.pop_due(self.credits, |c| c.deliver_at <= cycle)
    }
}

/// Appends `f` to a flit ring, checking the FIFO invariant of
/// [`Link::send_flit`] in debug builds.
#[inline]
fn push_flit(ring: &mut Ring, slots: &mut [FlitInFlight], f: FlitInFlight) {
    debug_assert!(
        ring.len == 0 || ring.get(slots, ring.len() - 1).deliver_at <= f.deliver_at,
        "link is not a FIFO"
    );
    ring.push(slots, f);
}

/// Wire-level access to the wire table during a sharded phase
/// (DESIGN.md §18).
///
/// Every link has two wires — flits downstream, credits upstream — and
/// in each sharded phase each wire has exactly one producer or consumer
/// shard, but the two wires of one link may belong to different shards.
/// A sharded phase therefore never holds a `&WireTable` or `&mut
/// WireTable`; it reaches each wire's ring through raw pointers instead,
/// one wire at a time. The [`Link`] table itself is only read in a
/// sharded phase (endpoints and lengths), so it is shared. Touching a
/// wire is `unsafe`: the caller must be the wire's sole user in the
/// current phase.
#[derive(Clone, Copy)]
pub(crate) struct LinkWires<'a> {
    links: &'a [Link],
    flit_cap: usize,
    credit_cap: usize,
    flit_rings: *mut Ring,
    credit_rings: *mut Ring,
    flits: *mut FlitInFlight,
    credits: *mut CreditInFlight,
    _wires: PhantomData<&'a mut WireTable>,
}

// SAFETY: the pointers describe a wire table exclusively borrowed for
// `'a`, and its entries are plain `Copy` data. On its own the handle only
// reads the shared link table; every ring access is an `unsafe` method
// whose caller guarantees that one thread owns the wire for the phase.
unsafe impl Send for LinkWires<'_> {}
// SAFETY: as for `Send`.
unsafe impl Sync for LinkWires<'_> {}

impl<'a> LinkWires<'a> {
    /// A handle over `links` and their wires, borrowed for `'a`.
    pub(crate) fn new(links: &'a [Link], wires: &'a mut WireTable) -> Self {
        assert_eq!(links.len(), wires.links(), "wire table does not match the link table");
        LinkWires {
            links,
            flit_cap: wires.flit_cap,
            credit_cap: wires.credit_cap,
            flit_rings: wires.flit_rings.as_mut_ptr(),
            credit_rings: wires.credit_rings.as_mut_ptr(),
            flits: wires.flits.as_mut_ptr(),
            credits: wires.credits.as_mut_ptr(),
            _wires: PhantomData,
        }
    }

    /// Upstream endpoint of link `li`.
    #[inline]
    pub(crate) fn from(self, li: usize) -> (NodeId, PortId) {
        self.links[li].from
    }

    /// Downstream endpoint of link `li`.
    #[inline]
    pub(crate) fn to(self, li: usize) -> (NodeId, PortId) {
        self.links[li].to
    }

    /// Length of link `li` in millimetres.
    #[inline]
    pub(crate) fn length_mm(self, li: usize) -> f64 {
        self.links[li].length_mm
    }

    /// The flit ring of link `li` and its slots.
    ///
    /// # Safety
    ///
    /// The calling thread must be the only one touching the flit wire of
    /// `li` until the next barrier, and must drop the borrows before it.
    #[inline]
    unsafe fn flit_wire(self, li: usize) -> (&'a mut Ring, &'a mut [FlitInFlight]) {
        assert!(li < self.links.len(), "link {li} out of range");
        // SAFETY: `li` is in bounds of the ring array and its slot
        // stretch of the entry array; the two borrows cover only wire
        // `li`, which the caller owns.
        unsafe {
            (
                &mut *self.flit_rings.add(li),
                std::slice::from_raw_parts_mut(self.flits.add(li * self.flit_cap), self.flit_cap),
            )
        }
    }

    /// The credit ring of link `li` and its slots.
    ///
    /// # Safety
    ///
    /// As for [`LinkWires::flit_wire`], for the credit wire.
    #[inline]
    unsafe fn credit_wire(self, li: usize) -> (&'a mut Ring, &'a mut [CreditInFlight]) {
        assert!(li < self.links.len(), "link {li} out of range");
        // SAFETY: as for `flit_wire`.
        unsafe {
            (
                &mut *self.credit_rings.add(li),
                std::slice::from_raw_parts_mut(
                    self.credits.add(li * self.credit_cap),
                    self.credit_cap,
                ),
            )
        }
    }

    /// Sends a flit down link `li` (the fault-free path: links of a
    /// sharded network never carry ARQ state).
    ///
    /// # Safety
    ///
    /// The calling thread must be the only one touching the flit wire
    /// of `li` until the next barrier.
    #[inline]
    pub(crate) unsafe fn send_flit(self, li: usize, f: FlitInFlight) {
        debug_assert!(!self.links[li].arq_enabled(), "sharded send on an ARQ link");
        // SAFETY: the caller owns the flit wire.
        let (ring, slots) = unsafe { self.flit_wire(li) };
        push_flit(ring, slots, f);
    }

    /// Removes and returns the next flit due on link `li` at or before
    /// `cycle`.
    ///
    /// # Safety
    ///
    /// As for [`LinkWires::send_flit`].
    #[inline]
    pub(crate) unsafe fn take_due_flit(self, li: usize, cycle: u64) -> Option<FlitInFlight> {
        // SAFETY: the caller owns the flit wire.
        let (ring, slots) = unsafe { self.flit_wire(li) };
        ring.pop_due(slots, |f| f.deliver_at <= cycle)
    }

    /// Sends a credit up link `li`.
    ///
    /// # Safety
    ///
    /// The calling thread must be the only one touching the credit wire
    /// of `li` until the next barrier.
    #[inline]
    pub(crate) unsafe fn send_credit(self, li: usize, vc: VcId, deliver_at: u64) {
        // SAFETY: the caller owns the credit wire.
        let (ring, slots) = unsafe { self.credit_wire(li) };
        ring.push(slots, CreditInFlight { deliver_at, vc });
    }

    /// Removes and returns the next credit due on link `li` at or before
    /// `cycle`.
    ///
    /// # Safety
    ///
    /// As for [`LinkWires::send_credit`].
    #[inline]
    pub(crate) unsafe fn take_due_credit(self, li: usize, cycle: u64) -> Option<CreditInFlight> {
        // SAFETY: the caller owns the credit wire.
        let (ring, slots) = unsafe { self.credit_wire(li) };
        ring.pop_due(slots, |c| c.deliver_at <= cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::FlitRef;
    use crate::flit::{FlitData, FlitKind};
    use crate::packet::{PacketClass, PacketId};

    fn mk_flit() -> Flit {
        Flit {
            packet: PacketId(1),
            seq: 0,
            kind: FlitKind::HeadTail,
            src: NodeId(0),
            dst: NodeId(1),
            class: PacketClass::Ack,
            data: FlitData::zeroed(4),
            created_at: 0,
            hops: 0,
        }
    }

    /// One link with wires of capacity 8, and an arena.
    struct One {
        l: Link,
        w: WireTable,
        a: FlitArena,
    }

    impl One {
        fn new() -> Self {
            let l = Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1);
            One { l, w: WireTable::new(1, 8, 8), a: FlitArena::new() }
        }

        fn send(&mut self, flit: Flit, vc: VcId, deliver_at: u64) {
            let fref = self.a.alloc(flit);
            let hdr = FlitHeader::of(fref, self.a.get(fref), vc);
            self.l.send_flit(&mut self.a, &mut self.w.wire(0), hdr, deliver_at);
        }

        fn take(&mut self, cycle: u64) -> Option<(FlitInFlight, u64)> {
            self.l.take_due_flit(&mut self.w.wire(0), cycle)
        }

        fn quiescent(&self) -> bool {
            self.l.is_quiescent(&self.w, 0)
        }
    }

    #[test]
    fn flit_delivery_respects_time() {
        let mut o = One::new();
        o.send(mk_flit(), VcId(0), 5);
        assert!(o.take(4).is_none());
        let (f, seq) = o.take(5).expect("flit is due at its delivery cycle");
        assert_eq!((f.hdr.vc(), seq), (VcId(0), 0));
        assert!(o.a.is_live(f.hdr.fref), "delivered ref is live until the receiver consumes it");
        assert!(o.take(6).is_none());
    }

    #[test]
    fn credit_delivery_respects_time() {
        let mut w = WireTable::new(1, 1, 1);
        w.wire(0).send_credit(VcId(1), 3);
        assert_eq!(w.credits(0), 1);
        assert!(w.wire(0).take_due_credit(2).is_none());
        assert_eq!(
            w.wire(0).take_due_credit(3),
            Some(CreditInFlight { deliver_at: 3, vc: VcId(1) })
        );
        assert_eq!(w.credits(0), 0);
    }

    #[test]
    fn quiescence() {
        let mut o = One::new();
        assert!(o.quiescent());
        o.send(mk_flit(), VcId(0), 1);
        assert!(!o.quiescent());
        assert_eq!(o.l.flits_in_flight(&o.w, 0), 1);
        let _ = o.take(1);
        assert!(o.quiescent());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut o = One::new();
        let mut f0 = mk_flit();
        f0.seq = 0;
        let mut f1 = mk_flit();
        f1.seq = 1;
        o.send(f0, VcId(0), 2);
        o.send(f1, VcId(0), 3);
        let first = o.take(3).expect("first flit is due").0;
        assert_eq!(o.a.get(first.hdr.fref).seq, 0);
        let second = o.take(3).expect("second flit is due").0;
        assert_eq!(o.a.get(second.hdr.fref).seq, 1);
    }

    /// Rings wrap around their slots; each link's ring is its own, and
    /// a resize keeps every wire's contents in order.
    #[test]
    fn rings_wrap_and_resize_in_order() {
        let mut w = WireTable::new(2, 2, 1);
        let f = |n: u32, at: u64| FlitInFlight {
            hdr: FlitHeader { fref: FlitRef(n), ..FlitHeader::EMPTY },
            deliver_at: at,
        };
        for round in 0..5u32 {
            let at = u64::from(round) * 2;
            w.wire(1).push_flit(f(2 * round, at));
            w.wire(1).push_flit(f(2 * round + 1, at + 1));
            assert_eq!(w.wire(1).take_due_flit(at).map(|x| x.hdr.fref), Some(FlitRef(2 * round)));
            assert!(w.wire(1).take_due_flit(at).is_none(), "the second is not due yet");
            let second = w.wire(1).take_due_flit(at + 1).map(|x| x.hdr.fref);
            assert_eq!(second, Some(FlitRef(2 * round + 1)));
        }
        w.wire(1).push_flit(f(99, 20));
        assert_eq!((w.flits(0), w.flits(1)), (0, 1));
        w.wire(1).send_credit(VcId(1), 7);
        w.resize(4, 3);
        w.assert_consistent();
        assert_eq!(w.flits_on(1).map(|x| x.hdr.fref).collect::<Vec<_>>(), vec![FlitRef(99)]);
        assert_eq!(w.wire(1).take_due_credit(7).map(|c| c.vc), Some(VcId(1)));
    }

    #[test]
    #[should_panic(expected = "wire ring overflow")]
    fn ring_overflow_panics() {
        let mut w = WireTable::new(1, 1, 1);
        w.wire(0).send_credit(VcId(0), 1);
        w.wire(0).send_credit(VcId(0), 1);
    }

    #[test]
    fn delivery_cycle_is_checked() {
        assert_eq!(Link::delivery_cycle(10, 1), 12);
        assert_eq!(Link::delivery_cycle(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "cycle counter overflow")]
    fn delivery_cycle_overflow_panics() {
        let _ = Link::delivery_cycle(u64::MAX - 1, 1);
    }

    #[test]
    fn arq_stamps_sequence_numbers() {
        let mut o = One::new();
        o.l.enable_arq(1);
        o.send(mk_flit(), VcId(0), 1);
        o.send(mk_flit(), VcId(1), 2);
        let (a, sa) = o.take(1).expect("first ARQ flit is due");
        assert_eq!((a.hdr.vc(), sa), (VcId(0), 0));
        assert_eq!(o.l.arq_window_len(), 2, "unacked flits stay in the window");
        o.l.arq_ack(sa);
        let (b, sb) = o.take(2).expect("second ARQ flit is due");
        assert_eq!((b.hdr.vc(), sb), (VcId(1), 1));
        assert_eq!(o.l.arq_window_len(), 1);
        o.l.arq_ack(sb);
        assert!(o.quiescent());
    }

    #[test]
    fn nack_purges_wire_and_resend_replays_in_order() {
        let mut o = One::new();
        o.l.enable_arq(1);
        let mut f0 = mk_flit();
        f0.seq = 10;
        let mut f1 = mk_flit();
        f1.seq = 11;
        o.send(f0, VcId(0), 5);
        o.send(f1, VcId(0), 6);
        let retries = o.l.arq_nack(&mut o.w.wire(0), 5, &mut o.a);
        assert_eq!(retries, 1);
        assert!(o.take(100).is_none(), "wire was purged");
        assert_eq!(o.a.allocated(), 0, "purged wire refs were freed");
        assert!(o.l.arq_resend_pending());
        assert!(!o.quiescent(), "unacked flits keep the link busy");
        // A new send during backoff must not jump the queue.
        let mut f2 = mk_flit();
        f2.seq = 12;
        f2.hops = 4;
        o.send(f2, VcId(0), 6);
        assert!(o.take(100).is_none(), "send during backoff rides the resend");
        assert_eq!(o.a.allocated(), 0, "backoff send is swallowed into the window");
        // Backoff = 1 << 1 = 2 cycles: due at cycle 5 + 1 + 2 = 8.
        assert_eq!(o.l.arq_service(&mut o.w.wire(0), 7, &mut o.a), 0, "not due yet");
        assert_eq!(o.l.arq_service(&mut o.w.wire(0), 8, &mut o.a), 3, "whole window resent");
        let mut seqs = Vec::new();
        while let Some((f, seq)) = o.take(100) {
            seqs.push((o.a.get(f.hdr.fref).seq, seq, f.hdr.hops));
            o.l.arq_ack(seq);
        }
        assert_eq!(
            seqs,
            vec![(10, 0, 0), (11, 1, 0), (12, 2, 4)],
            "resend keeps order and headers"
        );
    }

    #[test]
    fn drop_front_packet_strips_the_window() {
        let mut o = One::new();
        o.l.enable_arq(1);
        let mut f0 = mk_flit();
        f0.packet = PacketId(1);
        let mut other = mk_flit();
        other.packet = PacketId(2);
        let mut f1 = mk_flit();
        f1.packet = PacketId(1);
        o.send(f0, VcId(0), 1);
        o.send(other, VcId(1), 2);
        o.send(f1, VcId(0), 3);
        o.l.arq_nack(&mut o.w.wire(0), 3, &mut o.a);
        let (pid, vcs) = o.l.arq_drop_front_packet().expect("the NACKed window holds a packet");
        assert_eq!(pid, PacketId(1));
        assert_eq!(vcs, vec![VcId(0), VcId(0)], "both entries of the packet stripped");
        assert_eq!(o.l.arq_window_len(), 1, "the other packet survives");
        assert!(o.l.arq_resend_pending(), "survivors still get resent");
    }

    #[test]
    fn kill_returns_every_unacked_flit_once() {
        let mut o = One::new();
        o.l.enable_arq(1);
        o.send(mk_flit(), VcId(0), 1);
        o.send(mk_flit(), VcId(1), 2);
        let (f, _) = o.take(1).expect("due"); // delivered but not acked
        o.a.free(f.hdr.fref);
        let lost = o.l.kill(&mut o.w.wire(0), &mut o.a);
        assert_eq!(lost.len(), 2, "window covers wire and delivered-unacked alike");
        assert_eq!(o.a.allocated(), 0, "the wire's refs were freed");
        assert!(o.quiescent());
    }

    #[test]
    fn kill_without_arq_loses_the_wire() {
        let mut o = One::new();
        o.send(mk_flit(), VcId(1), 1);
        let lost = o.l.kill(&mut o.w.wire(0), &mut o.a);
        assert_eq!(lost, vec![(PacketId(1), VcId(1))]);
        assert!(o.quiescent());
    }
}
