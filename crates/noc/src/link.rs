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
//! Since the data-oriented core rewrite (DESIGN.md §14) the wire carries
//! [`FlitRef`] arena indices, not owned flits — sending a flit moves a
//! 4-byte index. The only place a link clones payloads is the ARQ
//! retransmit window, which by design must hold a pristine copy that
//! survives corruption of the in-flight original; ARQ is off unless
//! fault injection enables it, so the default path stays copy-free.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ptr::addr_of_mut;

use crate::arena::{FlitArena, FlitRef};
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::packet::PacketId;

/// A flit in flight on a link.
///
/// # Invariant
///
/// `deliver_at` is always computed through [`Link::delivery_cycle`],
/// which checks the `cycle + 1 + extra` arithmetic against `u64`
/// overflow. Simulations run for at most a few billion cycles, so the
/// counter stays far below `u64::MAX`; the checked arithmetic turns a
/// hypothetical wrap (which would silently violate the FIFO ordering
/// below) into a panic at the injection seam.
#[derive(Debug, Clone, Copy)]
pub struct FlitInFlight {
    /// Cycle at which the flit becomes visible to the downstream router.
    pub deliver_at: u64,
    /// Downstream input VC the flit was allocated to.
    pub vc: VcId,
    /// Link-level sequence number stamped by the sender-side
    /// retransmission logic (0 when ARQ is off).
    pub seq: u64,
    /// Sender-computed slice parity ([`crate::flit::FlitData::slice_parity`]);
    /// only meaningful when ARQ is on.
    pub parity: u8,
    /// Arena reference to the flit itself.
    pub flit: FlitRef,
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
/// The window owns a full [`Flit`] copy rather than a [`FlitRef`]: a
/// resend must replay the *pristine* payload even after the in-flight
/// original was corrupted, delivered, or freed.
#[derive(Debug, Clone)]
struct ArqEntry {
    seq: u64,
    vc: VcId,
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
/// once).
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

/// One unidirectional link between two router ports.
#[derive(Debug, Clone)]
pub struct Link {
    /// Upstream endpoint: (router, output port).
    pub from: (NodeId, PortId),
    /// Downstream endpoint: (router, input port).
    pub to: (NodeId, PortId),
    /// Physical wire length in millimetres (drives power/delay models).
    pub length_mm: f64,
    flits: VecDeque<FlitInFlight>,
    credits: VecDeque<CreditInFlight>,
    /// Retransmission state, boxed and absent unless fault injection
    /// enables it — the default path carries only a null pointer.
    arq: Option<Box<LinkArq>>,
}

impl Link {
    /// Creates an empty link.
    pub fn new(from: (NodeId, PortId), to: (NodeId, PortId), length_mm: f64) -> Self {
        Link { from, to, length_mm, flits: VecDeque::new(), credits: VecDeque::new(), arq: None }
    }

    /// Computes the delivery cycle `cycle + 1 + extra`, panicking on
    /// `u64` overflow instead of silently wrapping.
    ///
    /// A wrapped `deliver_at` would schedule a flit in the distant past
    /// and corrupt the FIFO invariant of [`Link::send_flit`]; every
    /// scheduled delivery (switch traversal and ARQ resend alike) goes
    /// through this check.
    pub fn delivery_cycle(cycle: u64, extra: u64) -> u64 {
        cycle
            .checked_add(Link::nominal_latency(extra))
            .expect("cycle counter overflow: scheduled deliver_at would wrap")
    }

    /// Fault-free sender-to-receiver latency in cycles for a link with
    /// `extra` additional LT cycles: `1 + extra`. This is the latency the
    /// ARQ retransmitter replays at and the budget the journey recorder
    /// charges to plain link traversal (anything beyond it is ARQ replay
    /// time).
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

    /// Sends the flit at `fref` downstream, to be delivered at
    /// `deliver_at`. Ownership of the reference moves to the link (and
    /// back out through [`Link::take_due_flit`]).
    ///
    /// Delivery times must be non-decreasing across calls (links are
    /// FIFOs); this holds by construction because the per-link latency is
    /// constant and senders call this once per cycle at most. With ARQ
    /// on, a NACK purges the wire before any resend is pushed, and new
    /// sends during a pending resend go to the window only, so the
    /// invariant survives retransmission too.
    pub fn send_flit(&mut self, arena: &mut FlitArena, fref: FlitRef, vc: VcId, deliver_at: u64) {
        let (seq, parity) = match &mut self.arq {
            None => (0, 0),
            Some(a) => {
                let seq = a.next_seq;
                a.next_seq += 1;
                let flit = arena.get(fref);
                let parity = flit.data.slice_parity();
                a.window.push_back(ArqEntry { seq, vc, flit: flit.clone() });
                if a.resend_at.is_some() {
                    // A resend is scheduled: the wire was purged and
                    // will be repopulated (including this flit) when
                    // the backoff expires. Pushing now would deliver
                    // this flit ahead of its predecessors.
                    arena.free(fref);
                    return;
                }
                (seq, parity)
            }
        };
        push_flit(&mut self.flits, FlitInFlight { deliver_at, vc, seq, parity, flit: fref });
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
    /// Purges the physical wire (go-back-N: everything after the bad
    /// flit is dropped and will be resent in order; their arena slots
    /// are freed — the window clones are authoritative) and schedules a
    /// full-window resend after an exponential backoff capped at 64
    /// cycles. Returns the consecutive-retry count for the current
    /// window head.
    pub fn arq_nack(&mut self, cycle: u64, arena: &mut FlitArena) -> u32 {
        let a = self.arq.as_mut().expect("NACK on a link without ARQ");
        for f in self.flits.drain(..) {
            arena.free(f.flit);
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
        let pid = a.window.front()?.flit.packet;
        let mut vcs = Vec::new();
        a.window.retain(|e| {
            if e.flit.packet == pid {
                vcs.push(e.vc);
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
    /// onto the wire in order (re-allocating each pristine copy into
    /// the arena). Returns the number of flits resent (0 when no resend
    /// was due).
    pub fn arq_service(&mut self, cycle: u64, arena: &mut FlitArena) -> u64 {
        let Some(a) = &mut self.arq else { return 0 };
        if a.resend_at.is_none_or(|at| at > cycle) {
            return 0;
        }
        a.resend_at = None;
        debug_assert!(self.flits.is_empty(), "wire must be purged before a resend");
        let deliver_at = Link::delivery_cycle(cycle, a.latency - 1);
        for e in &a.window {
            self.flits.push_back(FlitInFlight {
                deliver_at,
                vc: e.vc,
                seq: e.seq,
                parity: e.flit.data.slice_parity(),
                flit: arena.alloc(e.flit.clone()),
            });
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

    /// Permanently kills the link: purges the wire and the retransmit
    /// window (freeing the arena slots of everything on the wire),
    /// returning the `(packet, downstream VC)` of every lost
    /// unacknowledged flit so the caller can account the drops. With
    /// ARQ on, the window is a superset of the wire, so the returned
    /// list covers every in-flight flit exactly once.
    pub fn kill(&mut self, arena: &mut FlitArena) -> Vec<(PacketId, VcId)> {
        let mut lost: Vec<(PacketId, VcId)> = Vec::new();
        match &mut self.arq {
            Some(a) => {
                lost.extend(a.window.drain(..).map(|e| (e.flit.packet, e.vc)));
                a.resend_at = None;
                a.retries = 0;
            }
            None => lost.extend(self.flits.iter().map(|f| (arena.get(f.flit).packet, f.vc))),
        }
        for f in self.flits.drain(..) {
            arena.free(f.flit);
        }
        lost
    }

    /// Sends a credit upstream, to be delivered at `deliver_at`.
    pub fn send_credit(&mut self, vc: VcId, deliver_at: u64) {
        self.credits.push_back(CreditInFlight { deliver_at, vc });
    }

    /// Removes and returns the next flit due at or before `cycle`.
    pub fn take_due_flit(&mut self, cycle: u64) -> Option<FlitInFlight> {
        pop_due(&mut self.flits, cycle, |f| f.deliver_at)
    }

    /// Removes and returns the next credit due at or before `cycle`.
    pub fn take_due_credit(&mut self, cycle: u64) -> Option<CreditInFlight> {
        pop_due(&mut self.credits, cycle, |c| c.deliver_at)
    }

    /// Number of flits currently in flight. With ARQ on this is the
    /// unacknowledged window (a superset of the wire: a NACK moves
    /// flits off the wire but they remain logically in flight at the
    /// sender's retransmit buffer until acknowledged).
    pub fn flits_in_flight(&self) -> usize {
        match &self.arq {
            Some(a) => a.window.len(),
            None => self.flits.len(),
        }
    }

    /// Number of credit returns currently in flight (the flight
    /// recorder's wire-state dump).
    pub fn credits_in_flight(&self) -> usize {
        self.credits.len()
    }

    /// Returns `true` if no flits or credits are in flight and (with
    /// ARQ) no flit awaits acknowledgement or resend.
    pub fn is_quiescent(&self) -> bool {
        self.flits.is_empty()
            && self.credits.is_empty()
            && self.arq.as_ref().is_none_or(|a| a.window.is_empty() && a.resend_at.is_none())
    }
}

/// Appends `f` to a flit wire, checking the FIFO invariant of
/// [`Link::send_flit`] in debug builds.
fn push_flit(wire: &mut VecDeque<FlitInFlight>, f: FlitInFlight) {
    debug_assert!(wire.back().is_none_or(|b| b.deliver_at <= f.deliver_at), "link is not a FIFO");
    wire.push_back(f);
}

/// Pops the front of `wire` when it is due at or before `cycle`.
fn pop_due<T>(wire: &mut VecDeque<T>, cycle: u64, due: impl Fn(&T) -> u64) -> Option<T> {
    if wire.front().is_some_and(|x| due(x) <= cycle) {
        wire.pop_front()
    } else {
        None
    }
}

/// The number of flits and of credits on each link's two wires, kept
/// beside the link table and updated by every push and pop, so link
/// delivery skips an empty wire without touching its [`Link`]. A count
/// is written by the one shard that owns its wire in the phase at hand,
/// exactly like the wire itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WireLoad {
    flits: Vec<u32>,
    credits: Vec<u32>,
}

impl WireLoad {
    /// The counts of `links` as they stand.
    pub(crate) fn of(links: &[Link]) -> Self {
        let mut load = WireLoad { flits: vec![0; links.len()], credits: vec![0; links.len()] };
        for (li, l) in links.iter().enumerate() {
            load.sync(li, l);
        }
        load
    }

    /// Re-reads both counts of link `li` from its wires: the update for
    /// paths that push or pop through `Link` itself (the one-shard
    /// sends, whose ARQ may swallow a flit, and the fault layer).
    #[inline]
    pub(crate) fn sync(&mut self, li: usize, link: &Link) {
        self.flits[li] = link.flits.len() as u32;
        self.credits[li] = link.credits.len() as u32;
    }
}

/// Field-level access to a link table during a sharded phase
/// (DESIGN.md §18).
///
/// Every link has two wires — flits downstream, credits upstream — and
/// in each sharded phase each wire has exactly one producer or consumer
/// shard, but the two wires of one link may belong to different shards.
/// A sharded phase therefore never holds a `&Link`, `&mut Link` or
/// `&[Link]`; it reaches each wire through a raw field pointer instead.
/// The endpoints and length are never written while this handle lives
/// (it is built from an exclusive borrow of the table), so reading them
/// is safe. Touching a wire is `unsafe`: the caller must be the wire's
/// sole user in the current phase. The wire's [`WireLoad`] count goes
/// with it, so an empty wire is skipped without reading its `Link`.
#[derive(Clone, Copy)]
pub(crate) struct LinkWires<'a> {
    base: *mut Link,
    len: usize,
    flits: *mut u32,
    credits: *mut u32,
    _links: PhantomData<&'a mut [Link]>,
}

// SAFETY: `base` and `len` describe a table, and `flits`/`credits` its
// two count columns, exclusively borrowed for `'a`; `Link` is `Send`.
// On its own the handle only reads the immutable endpoint and length
// fields; every wire or count access is an `unsafe` method whose caller
// guarantees that one thread owns the wire for the phase.
unsafe impl Send for LinkWires<'_> {}
// SAFETY: as for `Send`.
unsafe impl Sync for LinkWires<'_> {}

impl<'a> LinkWires<'a> {
    /// A handle over `links` and their counts, exclusively borrowed for
    /// `'a`.
    pub(crate) fn new(links: &'a mut [Link], load: &'a mut WireLoad) -> Self {
        assert!(
            load.flits.len() == links.len() && load.credits.len() == links.len(),
            "wire counts do not match the link table"
        );
        LinkWires {
            base: links.as_mut_ptr(),
            len: links.len(),
            flits: load.flits.as_mut_ptr(),
            credits: load.credits.as_mut_ptr(),
            _links: PhantomData,
        }
    }

    fn link(self, li: usize) -> *mut Link {
        assert!(li < self.len, "link {li} out of range");
        // SAFETY: `li` is in bounds of the table `base` points to.
        unsafe { self.base.add(li) }
    }

    /// The flit count of link `li`.
    fn flit_count(self, li: usize) -> *mut u32 {
        assert!(li < self.len, "link {li} out of range");
        // SAFETY: `li` is in bounds of the count column.
        unsafe { self.flits.add(li) }
    }

    /// The credit count of link `li`.
    fn credit_count(self, li: usize) -> *mut u32 {
        assert!(li < self.len, "link {li} out of range");
        // SAFETY: `li` is in bounds of the count column.
        unsafe { self.credits.add(li) }
    }

    /// Upstream endpoint of link `li`.
    pub(crate) fn from(self, li: usize) -> (NodeId, PortId) {
        // SAFETY: a field read through a raw place (no `&Link` is made);
        // `from` is never written while the table is borrowed by `self`.
        unsafe { (*self.link(li)).from }
    }

    /// Downstream endpoint of link `li`.
    pub(crate) fn to(self, li: usize) -> (NodeId, PortId) {
        // SAFETY: as for `from`.
        unsafe { (*self.link(li)).to }
    }

    /// Length of link `li` in millimetres.
    pub(crate) fn length_mm(self, li: usize) -> f64 {
        // SAFETY: as for `from`.
        unsafe { (*self.link(li)).length_mm }
    }

    /// Sends a flit down link `li` (the fault-free path: links of a
    /// sharded network never carry ARQ state).
    ///
    /// # Safety
    ///
    /// The calling thread must be the only one touching the flit wire
    /// of `li` until the next barrier.
    pub(crate) unsafe fn send_flit(self, li: usize, fref: FlitRef, vc: VcId, deliver_at: u64) {
        let l = self.link(li);
        // SAFETY: `arq` is never written while the table is borrowed.
        debug_assert!(unsafe { (*l).arq.is_none() }, "sharded send on an ARQ link");
        // SAFETY: the caller owns the flit wire; the borrow covers only
        // that field, so a concurrent user of the credit wire is disjoint.
        let wire = unsafe { &mut *addr_of_mut!((*l).flits) };
        push_flit(wire, FlitInFlight { deliver_at, vc, seq: 0, parity: 0, flit: fref });
        // SAFETY: the caller owns the flit wire, and so its count.
        unsafe { *self.flit_count(li) += 1 };
    }

    /// Removes and returns the next flit due on link `li` at or before
    /// `cycle`.
    ///
    /// # Safety
    ///
    /// As for [`LinkWires::send_flit`].
    pub(crate) unsafe fn take_due_flit(self, li: usize, cycle: u64) -> Option<FlitInFlight> {
        // SAFETY: the caller owns the flit wire, and so its count.
        let count = unsafe { &mut *self.flit_count(li) };
        if *count == 0 {
            return None;
        }
        // SAFETY: the caller owns the flit wire (field-level borrow).
        let wire = unsafe { &mut *addr_of_mut!((*self.link(li)).flits) };
        let f = pop_due(wire, cycle, |f| f.deliver_at)?;
        *count -= 1;
        Some(f)
    }

    /// Sends a credit up link `li`.
    ///
    /// # Safety
    ///
    /// The calling thread must be the only one touching the credit wire
    /// of `li` until the next barrier.
    pub(crate) unsafe fn send_credit(self, li: usize, vc: VcId, deliver_at: u64) {
        // SAFETY: the caller owns the credit wire (field-level borrow).
        let wire = unsafe { &mut *addr_of_mut!((*self.link(li)).credits) };
        wire.push_back(CreditInFlight { deliver_at, vc });
        // SAFETY: the caller owns the credit wire, and so its count.
        unsafe { *self.credit_count(li) += 1 };
    }

    /// Removes and returns the next credit due on link `li` at or before
    /// `cycle`.
    ///
    /// # Safety
    ///
    /// As for [`LinkWires::send_credit`].
    pub(crate) unsafe fn take_due_credit(self, li: usize, cycle: u64) -> Option<CreditInFlight> {
        // SAFETY: the caller owns the credit wire, and so its count.
        let count = unsafe { &mut *self.credit_count(li) };
        if *count == 0 {
            return None;
        }
        // SAFETY: the caller owns the credit wire (field-level borrow).
        let wire = unsafe { &mut *addr_of_mut!((*self.link(li)).credits) };
        let c = pop_due(wire, cycle, |c| c.deliver_at)?;
        *count -= 1;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn mk_link() -> Link {
        Link::new((NodeId(0), PortId(1)), (NodeId(1), PortId(2)), 3.1)
    }

    fn send(l: &mut Link, a: &mut FlitArena, flit: Flit, vc: VcId, deliver_at: u64) {
        let fref = a.alloc(flit);
        l.send_flit(a, fref, vc, deliver_at);
    }

    #[test]
    fn flit_delivery_respects_time() {
        let mut a = FlitArena::new();
        let mut l = mk_link();
        send(&mut l, &mut a, mk_flit(), VcId(0), 5);
        assert!(l.take_due_flit(4).is_none());
        let f = l.take_due_flit(5).expect("flit is due at its delivery cycle");
        assert_eq!(f.vc, VcId(0));
        assert!(a.is_live(f.flit), "delivered ref is live until the receiver consumes it");
        assert!(l.take_due_flit(6).is_none());
    }

    #[test]
    fn credit_delivery_respects_time() {
        let mut l = mk_link();
        l.send_credit(VcId(1), 3);
        assert!(l.take_due_credit(2).is_none());
        assert_eq!(l.take_due_credit(3), Some(CreditInFlight { deliver_at: 3, vc: VcId(1) }));
    }

    #[test]
    fn quiescence() {
        let mut a = FlitArena::new();
        let mut l = mk_link();
        assert!(l.is_quiescent());
        send(&mut l, &mut a, mk_flit(), VcId(0), 1);
        assert!(!l.is_quiescent());
        assert_eq!(l.flits_in_flight(), 1);
        let _ = l.take_due_flit(1);
        assert!(l.is_quiescent());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut a = FlitArena::new();
        let mut l = mk_link();
        let mut f0 = mk_flit();
        f0.seq = 0;
        let mut f1 = mk_flit();
        f1.seq = 1;
        send(&mut l, &mut a, f0, VcId(0), 2);
        send(&mut l, &mut a, f1, VcId(0), 3);
        assert_eq!(a.get(l.take_due_flit(3).expect("first flit is due").flit).seq, 0);
        assert_eq!(a.get(l.take_due_flit(3).expect("second flit is due").flit).seq, 1);
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
    fn arq_stamps_sequence_numbers_and_parity() {
        let mut ar = FlitArena::new();
        let mut l = mk_link();
        l.enable_arq(1);
        send(&mut l, &mut ar, mk_flit(), VcId(0), 1);
        send(&mut l, &mut ar, mk_flit(), VcId(1), 2);
        let a = l.take_due_flit(1).expect("first ARQ flit is due");
        let b = l.take_due_flit(2).expect("second ARQ flit is due");
        assert_eq!((a.seq, b.seq), (0, 1));
        assert_eq!(a.parity, ar.get(a.flit).data.slice_parity());
        assert_eq!(l.arq_window_len(), 2, "unacked flits stay in the window");
        l.arq_ack(0);
        assert_eq!(l.arq_window_len(), 1);
        l.arq_ack(1);
        assert!(l.is_quiescent());
    }

    #[test]
    fn nack_purges_wire_and_resend_replays_in_order() {
        let mut ar = FlitArena::new();
        let mut l = mk_link();
        l.enable_arq(1);
        let mut f0 = mk_flit();
        f0.seq = 10;
        let mut f1 = mk_flit();
        f1.seq = 11;
        send(&mut l, &mut ar, f0, VcId(0), 5);
        send(&mut l, &mut ar, f1, VcId(0), 6);
        let retries = l.arq_nack(5, &mut ar);
        assert_eq!(retries, 1);
        assert!(l.take_due_flit(100).is_none(), "wire was purged");
        assert_eq!(ar.allocated(), 0, "purged wire refs were freed");
        assert!(l.arq_resend_pending());
        assert!(!l.is_quiescent(), "unacked flits keep the link busy");
        // A new send during backoff must not jump the queue.
        let mut f2 = mk_flit();
        f2.seq = 12;
        send(&mut l, &mut ar, f2, VcId(0), 6);
        assert!(l.take_due_flit(100).is_none(), "send during backoff rides the resend");
        assert_eq!(ar.allocated(), 0, "backoff send is swallowed into the window");
        // Backoff = 1 << 1 = 2 cycles: due at cycle 5 + 1 + 2 = 8.
        assert_eq!(l.arq_service(7, &mut ar), 0, "not due yet");
        assert_eq!(l.arq_service(8, &mut ar), 3, "whole window resent");
        let seqs: Vec<u64> = std::iter::from_fn(|| l.take_due_flit(100))
            .map(|f| ar.get(f.flit).seq as u64)
            .collect();
        assert_eq!(seqs, vec![10, 11, 12], "resend preserves order");
    }

    #[test]
    fn drop_front_packet_strips_the_window() {
        let mut ar = FlitArena::new();
        let mut l = mk_link();
        l.enable_arq(1);
        let mut f0 = mk_flit();
        f0.packet = PacketId(1);
        let mut other = mk_flit();
        other.packet = PacketId(2);
        let mut f1 = mk_flit();
        f1.packet = PacketId(1);
        send(&mut l, &mut ar, f0, VcId(0), 1);
        send(&mut l, &mut ar, other, VcId(1), 2);
        send(&mut l, &mut ar, f1, VcId(0), 3);
        l.arq_nack(3, &mut ar);
        let (pid, vcs) = l.arq_drop_front_packet().expect("the NACKed window holds a packet");
        assert_eq!(pid, PacketId(1));
        assert_eq!(vcs, vec![VcId(0), VcId(0)], "both entries of the packet stripped");
        assert_eq!(l.arq_window_len(), 1, "the other packet survives");
        assert!(l.arq_resend_pending(), "survivors still get resent");
    }

    #[test]
    fn kill_returns_every_unacked_flit_once() {
        let mut ar = FlitArena::new();
        let mut l = mk_link();
        l.enable_arq(1);
        send(&mut l, &mut ar, mk_flit(), VcId(0), 1);
        send(&mut l, &mut ar, mk_flit(), VcId(1), 2);
        let _ = l.take_due_flit(1); // one delivered but not acked
        let lost = l.kill(&mut ar);
        assert_eq!(lost.len(), 2, "window covers wire and delivered-unacked alike");
        assert!(l.is_quiescent());
    }
}
