//! Intra-run sharded stepping (DESIGN.md §18): parallel cycle execution
//! of a single mesh, bit-identical at any worker count.
//!
//! The mesh is partitioned into contiguous spatial tiles of routers
//! (shard 0 runs on the calling thread, shards 1..N on a persistent
//! [`WorkerPool`]). Within one `Network::step`, each barrier-separated
//! phase runs every effect a shard can own on that shard's worker —
//! buffer pushes, credit returns, link sends, hop counts — and defers
//! only the *globally ordered* remainder into a per-shard log that the
//! main thread replays in canonical (router- or link-ascending) order:
//! the non-associative f64 activity-counter sums, the arena free list
//! (ejections), and trace/journey records. Commutative `u64` counters
//! are summed from per-shard [`PipelineTallies`] instead. The result is
//! byte-identical to the sequential path at every seam: the same f64
//! additions in the same order, the same trace/journey event sequence,
//! the same arena free-list history, the same wire contents.
//!
//! Ownership goes by *wire*, not by link ([`ShardPlan`]): a link's flit
//! wire is pushed by its sender's shard in the pipeline phase and popped
//! by its receiver's shard in the link phase; its credit wire the other
//! way round. Every worker body lives in this module, so the raw-pointer
//! sharing it rests on is audited in one place.
//!
//! The seam itself is the [`StepFx`] trait: `Router::step` reports
//! every cross-router effect through it. [`DirectFx`] (the sequential
//! path) applies each effect immediately, reproducing the pre-shard
//! code exactly; [`DeferredFx`] (shard workers) applies the shard-owned
//! effects in place and logs the rest into its shard's effect log.

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::arena::{FlitArena, FlitRef};
use crate::flit::Flit;
use crate::ids::{NodeId, PortId, VcId};
use crate::journey::JourneyRecorder;
use crate::link::{Link, LinkWires};
use crate::network::Nic;
use crate::router::{EjectedFlit, Router, StepScratch};
use crate::stats::{ActivityCounters, RouterActivity};
use crate::telemetry::{EventSink, StallCause, TraceEvent};
use crate::topology::Topology;

/// Hard cap on shard count (stack-allocated replay cursors; far above
/// any core count this simulator targets).
pub(crate) const MAX_SHARDS: usize = 64;

/// Commutative `u64` pipeline counters accumulated per shard and summed
/// into the global [`ActivityCounters`] after the barrier (integer
/// addition is order-free, so summing per-shard partials is
/// bit-identical to sequential accumulation).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PipelineTallies {
    pub rc: u64,
    pub va1: u64,
    pub va2: u64,
    pub sa1: u64,
    pub sa2: u64,
}

impl PipelineTallies {
    pub(crate) fn merge_into(&mut self, counters: &mut ActivityCounters) {
        counters.rc_computations += self.rc;
        counters.va1_arbitrations += self.va1;
        counters.va2_arbitrations += self.va2;
        counters.sa1_arbitrations += self.sa1;
        counters.sa2_arbitrations += self.sa2;
        *self = PipelineTallies::default();
    }
}

/// The effect seam of `Router::step`: every mutation of *shared* state
/// (arena, links, global counters, sink, journeys, ejection queue) goes
/// through these methods. Router-local state (VC pipeline, arbiter
/// state, stall counters, per-router activity) stays direct — it is
/// shard-owned either way.
pub(crate) trait StepFx {
    /// `true` when the event sink wants trace events.
    fn traced(&self) -> bool;
    /// `true` when a journey recorder is attached.
    fn journeys_on(&self) -> bool;
    /// The buffered flit at `fref` (the ST payload touch).
    fn flit(&self, fref: FlitRef) -> &Flit;
    /// Length of link `li` in millimetres (read-only link access).
    fn link_length_mm(&self, li: usize) -> f64;
    /// Emits a trace event.
    fn trace(&mut self, ev: TraceEvent);
    /// Journey: head flit won the switch toward `out_port`.
    fn journey_st(&mut self, packet: crate::packet::PacketId, out_port: PortId, cycle: u64);
    /// Journey: flit stalled at `router` for `cause`.
    fn journey_stall(
        &mut self,
        packet: crate::packet::PacketId,
        router: NodeId,
        cause: StallCause,
        head: bool,
    );
    /// ST's buffer read + crossbar traversal (layer-weighted f64s —
    /// replay order matters).
    fn st_read(&mut self, fraction: f64);
    /// RC computation performed (u64 — commutative).
    fn count_rc(&mut self);
    /// VA1 arbitration performed.
    fn count_va1(&mut self);
    /// VA2 arbitration performed.
    fn count_va2(&mut self);
    /// SA1 arbitration performed.
    fn count_sa1(&mut self);
    /// SA2 arbitration performed.
    fn count_sa2(&mut self);
    /// Returns a credit upstream on link `li`.
    fn send_credit(&mut self, li: usize, vc: VcId, at: u64);
    /// Ejects the flit at `fref` at `node` (frees its arena slot).
    fn eject(&mut self, fref: FlitRef, node: NodeId, cycle: u64, tail: bool);
    /// Forwards the flit at `fref` onto link `li` (hop count, link
    /// energy, wire send).
    fn forward(&mut self, li: usize, fref: FlitRef, vc: VcId, at: u64, fraction: f64);
}

/// Immediate-application [`StepFx`]: the sequential path. Reproduces
/// the pre-shard `Router::step` side-effect order exactly — the golden
/// bit suites pin this.
pub(crate) struct DirectFx<'a> {
    pub arena: &'a mut FlitArena,
    pub links: &'a mut [Link],
    pub counters: &'a mut ActivityCounters,
    pub ejected: &'a mut Vec<EjectedFlit>,
    pub sink: &'a mut dyn EventSink,
    pub journeys: Option<&'a mut JourneyRecorder>,
}

impl StepFx for DirectFx<'_> {
    #[inline]
    fn traced(&self) -> bool {
        self.sink.enabled()
    }

    #[inline]
    fn journeys_on(&self) -> bool {
        self.journeys.is_some()
    }

    #[inline]
    fn flit(&self, fref: FlitRef) -> &Flit {
        self.arena.get(fref)
    }

    #[inline]
    fn link_length_mm(&self, li: usize) -> f64 {
        self.links[li].length_mm
    }

    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        self.sink.record(ev);
    }

    #[inline]
    fn journey_st(&mut self, packet: crate::packet::PacketId, out_port: PortId, cycle: u64) {
        if let Some(rec) = self.journeys.as_deref_mut() {
            rec.on_st(packet, out_port, cycle);
        }
    }

    #[inline]
    fn journey_stall(
        &mut self,
        packet: crate::packet::PacketId,
        router: NodeId,
        cause: StallCause,
        head: bool,
    ) {
        if let Some(rec) = self.journeys.as_deref_mut() {
            rec.on_stall(packet, router, cause, head);
        }
    }

    #[inline]
    fn st_read(&mut self, fraction: f64) {
        self.counters.record_buffer_read(fraction);
        self.counters.record_xbar(fraction);
    }

    #[inline]
    fn count_rc(&mut self) {
        self.counters.rc_computations += 1;
    }

    #[inline]
    fn count_va1(&mut self) {
        self.counters.va1_arbitrations += 1;
    }

    #[inline]
    fn count_va2(&mut self) {
        self.counters.va2_arbitrations += 1;
    }

    #[inline]
    fn count_sa1(&mut self) {
        self.counters.sa1_arbitrations += 1;
    }

    #[inline]
    fn count_sa2(&mut self) {
        self.counters.sa2_arbitrations += 1;
    }

    #[inline]
    fn send_credit(&mut self, li: usize, vc: VcId, at: u64) {
        self.links[li].send_credit(vc, at);
    }

    #[inline]
    fn eject(&mut self, fref: FlitRef, node: NodeId, cycle: u64, tail: bool) {
        self.counters.flits_ejected += 1;
        if tail {
            self.counters.packets_ejected += 1;
        }
        self.ejected.push(EjectedFlit { flit: self.arena.take(fref), node, cycle });
    }

    #[inline]
    fn forward(&mut self, li: usize, fref: FlitRef, vc: VcId, at: u64, fraction: f64) {
        self.arena.get_mut(fref).hops += 1;
        self.counters.record_link(self.links[li].length_mm, fraction);
        self.links[li].send_flit(self.arena, fref, vc, at);
    }
}

/// One order-sensitive pipeline effect, replayed by the main thread in
/// shard (= router-ascending) order. Wire sends and hop counts already
/// happened on the worker, so a forward leaves only its `record_link`
/// operands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    StRead { fraction: f64 },
    Link { length_mm: f64, fraction: f64 },
    Eject { fref: FlitRef, node: NodeId, tail: bool },
    JourneySt { packet: crate::packet::PacketId, out_port: PortId },
    JourneyStall { packet: crate::packet::PacketId, router: NodeId, cause: StallCause, head: bool },
    Trace(TraceEvent),
}

/// Per-slot access to the flit arena during the pipeline phase.
///
/// A flit in a router buffer is reached only by the shard that owns the
/// router, so each worker touches a disjoint set of slots. The handle
/// therefore never forms a `&FlitArena` (which would cover every slot)
/// but addresses one slot at a time.
#[derive(Clone, Copy)]
struct ArenaSlots<'a> {
    base: *mut Option<Flit>,
    len: usize,
    _arena: PhantomData<&'a mut FlitArena>,
}

// SAFETY: `base` and `len` describe a slot table exclusively borrowed
// for `'a`, and `Flit` is `Send`. Every dereference goes through
// `get`/`get_mut`, whose callers guarantee that the slot belongs to
// the calling shard's routers.
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
    /// The flit at `fref` must sit in a buffer of a router the calling
    /// shard owns, and no `&mut` to it may be live.
    unsafe fn get(self, fref: FlitRef) -> &'a Flit {
        // SAFETY: per the contract, no other thread touches this slot.
        unsafe { (*self.slot(fref)).as_ref().expect("dangling FlitRef") }
    }

    /// # Safety
    ///
    /// As for [`ArenaSlots::get`], and no other reference to the flit
    /// may be live.
    unsafe fn get_mut(self, fref: FlitRef) -> &'a mut Flit {
        // SAFETY: per the contract, this is the only reference.
        unsafe { (*self.slot(fref)).as_mut().expect("dangling FlitRef") }
    }
}

/// Logging [`StepFx`] for shard workers. Built only by
/// [`ShardRuntime::step_routers`] for a router of the worker's own
/// range, which is what its in-place effects rely on:
///
/// * `forward` bumps the hop count of a flit that router holds and
///   pushes it onto the router's out-link flit wire — the sender's shard
///   is that wire's only producer, and nothing pops it until the next
///   link phase;
/// * `send_credit` pushes onto the router's in-link credit wire — the
///   receiver's shard is that wire's only producer.
///
/// The order-sensitive remainder goes to the shard's log; commutative
/// counters accumulate in the shard's [`PipelineTallies`].
pub(crate) struct DeferredFx<'a> {
    /// The router being stepped; its shard runs this seam.
    node: NodeId,
    slots: ArenaSlots<'a>,
    wires: LinkWires<'a>,
    traced: bool,
    journeys_on: bool,
    log: &'a mut Vec<Effect>,
    t: &'a mut PipelineTallies,
}

impl StepFx for DeferredFx<'_> {
    #[inline]
    fn traced(&self) -> bool {
        self.traced
    }

    #[inline]
    fn journeys_on(&self) -> bool {
        self.journeys_on
    }

    #[inline]
    fn flit(&self, fref: FlitRef) -> &Flit {
        // SAFETY: the router being stepped holds `fref` in its buffer
        // and belongs to this shard (a `FlitRef` has exactly one
        // holder); the returned borrow ends before any
        // `&mut self` call (`forward`'s hop bump) can alias it.
        unsafe { self.slots.get(fref) }
    }

    #[inline]
    fn link_length_mm(&self, li: usize) -> f64 {
        self.wires.length_mm(li)
    }

    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        self.log.push(Effect::Trace(ev));
    }

    #[inline]
    fn journey_st(&mut self, packet: crate::packet::PacketId, out_port: PortId, _cycle: u64) {
        if self.journeys_on {
            self.log.push(Effect::JourneySt { packet, out_port });
        }
    }

    #[inline]
    fn journey_stall(
        &mut self,
        packet: crate::packet::PacketId,
        router: NodeId,
        cause: StallCause,
        head: bool,
    ) {
        if self.journeys_on {
            self.log.push(Effect::JourneyStall { packet, router, cause, head });
        }
    }

    #[inline]
    fn st_read(&mut self, fraction: f64) {
        self.log.push(Effect::StRead { fraction });
    }

    #[inline]
    fn count_rc(&mut self) {
        self.t.rc += 1;
    }

    #[inline]
    fn count_va1(&mut self) {
        self.t.va1 += 1;
    }

    #[inline]
    fn count_va2(&mut self) {
        self.t.va2 += 1;
    }

    #[inline]
    fn count_sa1(&mut self) {
        self.t.sa1 += 1;
    }

    #[inline]
    fn count_sa2(&mut self) {
        self.t.sa2 += 1;
    }

    #[inline]
    fn send_credit(&mut self, li: usize, vc: VcId, at: u64) {
        assert_eq!(self.wires.to(li).0, self.node, "credit sent on a foreign in-link");
        // SAFETY: `li` is an in-link of the router being stepped
        // (asserted above); in the pipeline phase only that router's
        // shard pushes the credit wire, and no one pops it until the
        // next link phase.
        unsafe { self.wires.send_credit(li, vc, at) };
    }

    #[inline]
    fn eject(&mut self, fref: FlitRef, node: NodeId, _cycle: u64, tail: bool) {
        self.log.push(Effect::Eject { fref, node, tail });
    }

    #[inline]
    fn forward(&mut self, li: usize, fref: FlitRef, vc: VcId, at: u64, fraction: f64) {
        // SAFETY: the flit left a buffer of the router being stepped,
        // which this shard owns; a `FlitRef` has exactly one holder, so
        // no other shard reaches it this phase.
        unsafe { self.slots.get_mut(fref) }.hops += 1;
        self.log.push(Effect::Link { length_mm: self.wires.length_mm(li), fraction });
        assert_eq!(self.wires.from(li).0, self.node, "flit forwarded on a foreign out-link");
        // SAFETY: `li` is an out-link of the router being stepped
        // (asserted above); in the pipeline phase only the sender's
        // shard pushes its flit wire, and no one pops it until the next
        // link phase.
        unsafe { self.wires.send_flit(li, fref, vc, at) };
    }
}

/// A flit delivered off link `li` by a phase-1 worker: the buffer push
/// happened in place (the destination router is shard-owned); the
/// globally ordered remainder — trace event, journey arrival, the f64
/// buffer-write counter — replays from this entry in link order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct P1Flit {
    pub li: u32,
    pub head: bool,
    pub fraction: f64,
    pub packet: crate::packet::PacketId,
    pub dst: NodeId,
    pub port: PortId,
    pub vc: VcId,
}

/// A credit applied by a phase-1 worker, logged only when a trace sink
/// is on so its `CreditReturn` event replays in link order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct P1Credit {
    pub li: u32,
    pub vc: VcId,
}

/// A flit injected by a phase-4 (NIC) worker; the `flits_injected`
/// count, journey record, trace event, and f64 buffer-write counter
/// replay in node order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NicEntry {
    pub node: NodeId,
    pub vc: VcId,
    pub packet: crate::packet::PacketId,
    pub head: bool,
    pub fraction: f64,
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
    /// Links whose flit wire each shard pops (those into its routers),
    /// ascending.
    flit_links: Vec<Vec<u32>>,
    /// Links whose credit wire each shard pops (those out of its
    /// routers), ascending.
    credit_links: Vec<Vec<u32>>,
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
        let partition = |end: fn(&Link) -> NodeId| {
            let mut of: Vec<Vec<u32>> = vec![Vec::new(); shards];
            for (li, l) in links.iter().enumerate() {
                of[owner_of(end(l))].push(li as u32);
            }
            of
        };
        let flit_links = partition(|l| l.to.0);
        let credit_links = partition(|l| l.from.0);
        ShardPlan { ranges, links: links.len(), flit_links, credit_links }
    }

    /// Panics unless a phase's per-node tables (`rows` each) match the
    /// partition: the workers index them unchecked.
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
pub(crate) struct ShardCtx {
    scratch: StepScratch,
    tallies: PipelineTallies,
    pub pipeline: Vec<Effect>,
    pub p1_flits: Vec<P1Flit>,
    pub p1_credits: Vec<P1Credit>,
    pub nic_log: Vec<NicEntry>,
}

impl ShardCtx {
    fn new(
        range_len: usize,
        flit_links: usize,
        credit_links: usize,
        radix: usize,
        vcs: usize,
        depth: usize,
    ) -> Self {
        ShardCtx {
            scratch: StepScratch::new(radix, vcs),
            tallies: PipelineTallies::default(),
            // At most one ST grant per output port per router per cycle.
            pipeline: Vec::with_capacity(range_len * radix * 8),
            // At most one due flit and a couple of credits per wire per
            // fault-free cycle.
            p1_flits: Vec::with_capacity(flit_links * 2 + 8),
            p1_credits: Vec::with_capacity(credit_links * 2 + 8),
            nic_log: Vec::with_capacity(range_len * vcs * depth + 8),
        }
    }

    fn clear(&mut self) {
        self.pipeline.clear();
        self.p1_flits.clear();
        self.p1_credits.clear();
        self.nic_log.clear();
    }
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

// The job pointer is only written between epochs (before the Release
// bump) and only read after the Acquire load of the new epoch; the
// pointee outlives the epoch because `run` joins before returning.
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

/// A persistent spin-then-yield worker pool. Shard 0 is the calling
/// thread; workers carry shard indices `1..=N-1`. Dispatch and join are
/// allocation-free (the zero-alloc suite covers the sharded step).
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
        // iteration delays the very thread the barrier is waiting on.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin_limit = if cpus > workers { SPIN_LIMIT } else { 0 };
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
        // Erase the borrow lifetime: the job pointer is only dereferenced
        // between the epoch bump below and the join, while `f` is live.
        let erased: JobPtr = unsafe { std::mem::transmute(std::ptr::from_ref(f)) };
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
        let job = unsafe { (*shared.job.get()).expect("epoch bumped without a job") };
        let f = unsafe { &*job };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(idx))) {
            *shared.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(p);
            shared.panicked.store(true, Ordering::Release);
        }
        shared.done.fetch_add(1, Ordering::Release);
    }
}

/// Everything the sharded step needs, built once by
/// `Network::set_shards` and reused every cycle. Its three phase
/// methods are the worker bodies of the sharded cycle; each returns
/// after the barrier, leaving the order-sensitive remainder in the
/// per-shard logs for `Network::step_sharded` to replay.
#[derive(Debug)]
pub(crate) struct ShardRuntime {
    shards: usize,
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
        assert!((2..=MAX_SHARDS).contains(&shards), "shard count out of range");
        let plan = ShardPlan::new(routers, links, shards);
        let ctxs = (0..shards)
            .map(|s| {
                let (a, b) = plan.ranges[s];
                let (flits, credits) = (plan.flit_links[s].len(), plan.credit_links[s].len());
                ShardCtx::new(b - a, flits, credits, radix, vcs, depth)
            })
            .collect();
        ShardRuntime { shards, plan, pool: WorkerPool::new(shards - 1), ctxs }
    }

    /// The shard count.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The per-shard logs the last phase left, in shard order.
    pub(crate) fn ctxs(&self) -> &[ShardCtx] {
        &self.ctxs
    }

    /// Phase 1, link delivery. Each shard pops the flit wires of the
    /// links into its routers, pushing every due flit straight into its
    /// destination buffer and logging a [`P1Flit`], then pops the credit
    /// wires of the links out of its routers and applies each credit in
    /// place (logging a [`P1Credit`] only when `log_credits`). Clears
    /// every shard context first.
    pub(crate) fn deliver_links(
        &mut self,
        routers: &mut [Router],
        activity: &mut [RouterActivity],
        links: &mut [Link],
        arena: &FlitArena,
        cycle: u64,
        log_credits: bool,
    ) {
        self.plan.check_nodes(&[routers.len(), activity.len()]);
        self.plan.check_links(links.len());
        let ShardRuntime { plan, pool, ctxs, .. } = self;
        let plan = &*plan;
        let ctxs = SyncPtr(ctxs.as_mut_ptr());
        let routers = SyncPtr(routers.as_mut_ptr());
        let activity = SyncPtr(activity.as_mut_ptr());
        let wires = LinkWires::new(links);
        pool.run(&move |s| {
            // SAFETY: one context per shard, indexed by the shard's id.
            let ctx = unsafe { &mut *ctxs.get().add(s) };
            ctx.clear();
            let range = plan.ranges[s].0..plan.ranges[s].1;
            for &li in &plan.flit_links[s] {
                let (dst, port) = wires.to(li as usize);
                assert!(range.contains(&dst.index()), "flit wire {li} outside shard {s}");
                // SAFETY: `dst` is in this shard's range (asserted above),
                // and so is its activity row.
                let router = unsafe { &mut *routers.get().add(dst.index()) };
                // SAFETY: as for the router.
                let act = unsafe { &mut *activity.get().add(dst.index()) };
                // SAFETY: in the link phase the flit wire of `li` is
                // popped only by the shard of its destination router, and
                // nothing pushes it.
                while let Some(f) = unsafe { wires.take_due_flit(li as usize, cycle) } {
                    let (packet, head) = {
                        let flit = arena.get(f.flit);
                        (flit.packet, flit.is_head())
                    };
                    let fraction = router.receive_flit(port, f.vc, f.flit, arena, cycle);
                    act.buffer_events += fraction;
                    ctx.p1_flits.push(P1Flit { li, head, fraction, packet, dst, port, vc: f.vc });
                }
            }
            for &li in &plan.credit_links[s] {
                let (src, port) = wires.from(li as usize);
                assert!(range.contains(&src.index()), "credit wire {li} outside shard {s}");
                // SAFETY: `src` is in this shard's range (asserted above).
                let router = unsafe { &mut *routers.get().add(src.index()) };
                // SAFETY: in the link phase the credit wire of `li` is
                // popped only by the shard of its source router, and
                // nothing pushes it.
                while let Some(c) = unsafe { wires.take_due_credit(li as usize, cycle) } {
                    router.receive_credit(port, c.vc);
                    if log_credits {
                        ctx.p1_credits.push(P1Credit { li, vc: c.vc });
                    }
                }
            }
        });
    }

    /// Phase 2, router pipelines: each shard steps the non-quiescent
    /// routers of its range through a [`DeferredFx`], which sends flits
    /// and credits in place and logs the ordered remainder. The
    /// commutative stage tallies merge into `counters` after the
    /// barrier.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_routers(
        &mut self,
        routers: &mut [Router],
        activity: &mut [RouterActivity],
        links: &mut [Link],
        arena: &mut FlitArena,
        topo: &dyn Topology,
        counters: &mut ActivityCounters,
        cycle: u64,
        traced: bool,
        journeys_on: bool,
    ) {
        self.plan.check_nodes(&[routers.len(), activity.len()]);
        self.plan.check_links(links.len());
        let ShardRuntime { plan, pool, ctxs, .. } = self;
        let plan = &*plan;
        let ctxs = SyncPtr(ctxs.as_mut_ptr());
        let routers = SyncPtr(routers.as_mut_ptr());
        let activity = SyncPtr(activity.as_mut_ptr());
        let wires = LinkWires::new(links);
        let slots = ArenaSlots::new(arena);
        pool.run(&move |s| {
            // SAFETY: one context per shard, indexed by the shard's id.
            let ctx = unsafe { &mut *ctxs.get().add(s) };
            let (start, end) = plan.ranges[s];
            for i in start..end {
                // SAFETY: router `i` and its activity row are in this
                // shard's range.
                let r = unsafe { &mut *routers.get().add(i) };
                if r.is_quiescent() {
                    continue;
                }
                // SAFETY: as for the router.
                let act = unsafe { &mut *activity.get().add(i) };
                let mut fx = DeferredFx {
                    node: NodeId(i),
                    slots,
                    wires,
                    traced,
                    journeys_on,
                    log: &mut ctx.pipeline,
                    t: &mut ctx.tallies,
                };
                r.step(cycle, topo, &mut ctx.scratch, act, &mut fx);
            }
        });
        for ctx in &mut self.ctxs {
            ctx.tallies.merge_into(counters);
        }
    }

    /// Phase 4, NIC injection: each shard moves queued flits of its own
    /// nodes into their local input buffers and logs a [`NicEntry`] per
    /// flit. The fault-severance check of the sequential path is absent
    /// by construction — fault runs never shard.
    pub(crate) fn inject(
        &mut self,
        nics: &mut [Nic],
        routers: &mut [Router],
        activity: &mut [RouterActivity],
        arena: &FlitArena,
        cycle: u64,
    ) {
        self.plan.check_nodes(&[nics.len(), routers.len(), activity.len()]);
        let ShardRuntime { plan, pool, ctxs, .. } = self;
        let plan = &*plan;
        let ctxs = SyncPtr(ctxs.as_mut_ptr());
        let nics = SyncPtr(nics.as_mut_ptr());
        let routers = SyncPtr(routers.as_mut_ptr());
        let activity = SyncPtr(activity.as_mut_ptr());
        pool.run(&move |s| {
            // SAFETY: one context per shard, indexed by the shard's id.
            let ctx = unsafe { &mut *ctxs.get().add(s) };
            let (start, end) = plan.ranges[s];
            for node in start..end {
                // SAFETY: node `node`'s NIC, router and activity row are
                // in this shard's range.
                let nic = unsafe { &mut *nics.get().add(node) };
                // SAFETY: as for the NIC.
                let router = unsafe { &mut *routers.get().add(node) };
                // SAFETY: as for the NIC.
                let act = unsafe { &mut *activity.get().add(node) };
                for (vc, queue) in nic.queues.iter_mut().enumerate() {
                    while let Some(&fref) = queue.front() {
                        if router.local_free_slots(VcId(vc)) == 0 {
                            break;
                        }
                        queue.pop_front();
                        let (packet, head) = {
                            let flit = arena.get(fref);
                            (flit.packet, flit.is_head())
                        };
                        let fraction =
                            router.receive_flit(PortId::LOCAL, VcId(vc), fref, arena, cycle);
                        act.buffer_events += fraction;
                        let (node, vc) = (NodeId(node), VcId(vc));
                        ctx.nic_log.push(NicEntry { node, vc, packet, head, fraction });
                    }
                }
            }
        });
    }
}

/// A raw pointer that asserts cross-thread shareability. Soundness is
/// the phase method's obligation: every sharded phase hands each worker
/// a disjoint set of elements of the pointee (routers, activity rows,
/// source queues or contexts of its own shard).
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
        // Flit wires go to the shard of `link.to`, credit wires to the
        // shard of `link.from`; each partition lists every link exactly
        // once, under the right shard, in ascending order.
        let check = |of: &[Vec<u32>], end: fn(&Link) -> NodeId, wire: &str| {
            let mut seen = vec![0u32; links.len()];
            for (w, ls) in of.iter().enumerate() {
                let (a, b) = plan.ranges[w];
                let mut prev = None;
                for &li in ls {
                    let node = end(&links[li as usize]).index();
                    assert!((a..b).contains(&node), "{wire} wire of link {li} under shard {w}");
                    assert!(prev.is_none_or(|p| p < li), "per-shard {wire} list ascending");
                    prev = Some(li);
                    seen[li as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "every {wire} wire owned exactly once");
        };
        check(&plan.flit_links, |l| l.to.0, "flit");
        check(&plan.credit_links, |l| l.from.0, "credit");
    }
}
