//! Flit headers by value, and the buffer slot that holds one.
//!
//! In the multi-layered router the buffer is bit-sliced across layers
//! (paper §3.2.1): word-lines span layers, bit-lines stay within a layer.
//! That split is *physical*, not logical — the buffer still holds whole
//! flits — so the simulator models it through the activity accounting (a
//! short flit only charges the active slices), not through the data
//! structure.
//!
//! Every hop of the cycle engine reads the same few fields of a flit:
//! its packet, destination, class, head/tail position, word and
//! active-word counts, and hop count. A [`FlitHeader`] carries exactly
//! those by value, next to the [`FlitRef`] of the full flit in the
//! network's arena, through router buffers ([`BufSlot`]) and link wires
//! ([`crate::link::FlitInFlight`]). The arena is therefore touched only
//! where a flit enters the fabric (NIC injection builds the header) and
//! where it leaves it (ejection takes the flit and writes the hop count
//! back) — DESIGN.md §14.

use crate::arena::FlitRef;
use crate::flit::{Flit, FlitKind};
use crate::ids::{NodeId, VcId};
use crate::packet::{PacketClass, PacketId};

/// What the hot path needs from a flit, carried by value (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitHeader {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Arena reference to the full flit (payload, timestamps).
    pub fref: FlitRef,
    /// Destination node index (read by RC on head flits).
    pub dst: u32,
    /// Router-to-router hops taken so far; written back into the arena
    /// flit when it ejects.
    pub hops: u16,
    /// Traffic class (selects the output VC in VA1).
    pub class: PacketClass,
    /// Position of the flit within its packet.
    pub kind: FlitKind,
    /// Payload words (= datapath layers the flit spans).
    pub words: u8,
    /// Low-order words the zero-detector keeps powered.
    pub active: u8,
    /// The VC the flit occupies at this hop: its input VC while
    /// buffered, the downstream input VC while on a wire.
    pub vc: u8,
}

impl FlitHeader {
    /// A placeholder for unused ring slots.
    pub(crate) const EMPTY: FlitHeader = FlitHeader {
        packet: PacketId(0),
        fref: FlitRef(u32::MAX),
        dst: 0,
        hops: 0,
        class: PacketClass::ReadRequest,
        kind: FlitKind::Body,
        words: 1,
        active: 1,
        vc: 0,
    };

    /// The header of `flit`, stored at `fref`, travelling in `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the destination index, hop count or VC does not fit its
    /// narrow field.
    pub fn of(fref: FlitRef, flit: &Flit, vc: VcId) -> Self {
        FlitHeader {
            packet: flit.packet,
            fref,
            dst: u32::try_from(flit.dst.index()).expect("node index exceeds u32"),
            hops: u16::try_from(flit.hops).expect("hop count exceeds u16"),
            class: flit.class,
            kind: flit.kind,
            words: flit.data.num_words() as u8,
            active: flit.data.active_words() as u8,
            vc: u8::try_from(vc.index()).expect("VC index exceeds u8"),
        }
    }

    /// Destination node.
    #[inline]
    pub fn dst(&self) -> NodeId {
        NodeId(self.dst as usize)
    }

    /// The VC field as an id.
    #[inline]
    pub fn vc(&self) -> VcId {
        VcId(usize::from(self.vc))
    }

    /// `true` when the flit carries the packet header.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// `true` when the flit terminates the packet.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }

    /// The active-layer fraction of a datapath event on this flit:
    /// `active / words` under layer shutdown (bit-identical to
    /// [`crate::flit::FlitData::active_fraction`]), 1 without it.
    #[inline]
    pub fn fraction(&self, layer_shutdown: bool) -> f64 {
        if layer_shutdown {
            f64::from(self.active) / f64::from(self.words)
        } else {
            1.0
        }
    }

    /// Counts one router-to-router hop.
    ///
    /// # Panics
    ///
    /// Panics if the hop count overflows `u16`, which only a flit
    /// circling the fabric for the whole run could reach.
    #[inline]
    pub fn hop(&mut self) {
        self.hops = self.hops.checked_add(1).expect("hop count exceeds u16");
    }

    /// Re-reads the active-word count after the payload at `fref`
    /// changed in flight (a fault layer bit flip).
    pub(crate) fn refresh(&mut self, flit: &Flit) {
        self.active = flit.data.active_words() as u8;
    }
}

/// One buffered flit: its header plus the cycle it becomes visible to
/// the pipeline (32 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufSlot {
    /// The flit's header.
    pub hdr: FlitHeader,
    /// Earliest cycle this flit is visible to the pipeline (models
    /// link/pipeline latches).
    pub ready_at: u64,
}

impl BufSlot {
    /// A placeholder for unused FIFO slots.
    pub(crate) const EMPTY: BufSlot = BufSlot { hdr: FlitHeader::EMPTY, ready_at: 0 };
}

/// The slot `k` places after `head` in a ring of `cap` slots (`head <
/// cap`, `k <= cap`): the one index step of every FIFO ring in the
/// engine, router buffers and link wires alike.
#[inline]
pub(crate) fn ring_index(head: usize, k: usize, cap: usize) -> usize {
    let i = head + k;
    if i >= cap {
        i - cap
    } else {
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitData;

    fn flit(kind: FlitKind, data: FlitData) -> Flit {
        Flit {
            packet: PacketId(9),
            seq: 0,
            kind,
            src: NodeId(0),
            dst: NodeId(17),
            class: PacketClass::DataResponse,
            data,
            created_at: 0,
            hops: 3,
        }
    }

    #[test]
    fn header_carries_what_the_pipeline_reads() {
        let f = flit(FlitKind::Head, FlitData::with_active_words(4, 1));
        let h = FlitHeader::of(FlitRef(5), &f, VcId(1));
        assert_eq!((h.packet, h.dst(), h.vc(), h.hops), (PacketId(9), NodeId(17), VcId(1), 3));
        assert!(h.is_head() && !h.is_tail());
        assert_eq!((h.words, h.active), (4, 1));
        assert_eq!(h.fraction(true), f.data.active_fraction());
        assert_eq!(h.fraction(false), 1.0);
    }

    #[test]
    fn fractions_match_the_payload_bit_for_bit() {
        for words in 1..=8 {
            for active in 1..=words {
                let f = flit(FlitKind::Body, FlitData::with_active_words(words, active));
                let h = FlitHeader::of(FlitRef(0), &f, VcId(0));
                assert_eq!(h.fraction(true).to_bits(), f.data.active_fraction().to_bits());
            }
        }
    }

    #[test]
    fn refresh_follows_a_bit_flip() {
        let mut f = flit(FlitKind::Tail, FlitData::with_active_words(4, 1));
        let mut h = FlitHeader::of(FlitRef(0), &f, VcId(0));
        f.data.flip_bits(3, 1);
        h.refresh(&f);
        assert_eq!(h.active, 4);
    }

    #[test]
    fn ring_index_wraps() {
        assert_eq!(ring_index(2, 1, 4), 3);
        assert_eq!(ring_index(3, 1, 4), 0);
        assert_eq!(ring_index(3, 4, 4), 3);
        assert_eq!(ring_index(0, 0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "hop count")]
    fn hop_overflow_panics() {
        let mut h = FlitHeader::EMPTY;
        h.hops = u16::MAX;
        h.hop();
    }
}
