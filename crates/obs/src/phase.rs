//! Scoped phase timers: wall-time attribution for the simulator's hot
//! loop.
//!
//! [`scope`] returns a guard that, while observability is enabled,
//! charges the scope's elapsed wall time to its [`Phase`] on drop. When
//! observability is off the guard is inert and the only cost is the one
//! relaxed atomic load inside [`enabled`](crate::enabled) — cheap enough
//! to leave in `Network::step` permanently (the CI bench gate runs with
//! observability off and must not move).
//!
//! The phases come in three groups:
//!
//! * [`Phase::StepTotal`] spans the whole of `Network::step`, and the
//!   [`Phase::STEP_SECTIONS`] tile its body exactly — link delivery
//!   (including ARQ and fault verdicts), the fused router pipeline,
//!   occupancy and NIC injection, and the metrics-window close. One
//!   [`StepClock`] times them all from a single chain of clock reads:
//!   each section ends at the instant the next one starts, so host
//!   preemption between sections is charged to a section, never lost.
//!   The profiler's accounting claim, `coverage() >= 0.95`, compares the
//!   section sum against the step total: only what runs before the
//!   first section starts and after the last one ends can leak out.
//! * The `Stage*` phases nest *inside* [`Phase::RouterPipeline`],
//!   attributing pipeline time to BW/ST, SA, VA, and RC individually
//!   (BW — buffer write — happens inside link delivery and NIC
//!   injection; ST carries the label here because the write and
//!   traversal share the slab path).
//! * [`Phase::Workload`] and [`Phase::Ejection`] time the simulator
//!   driver around the step: packet generation/injection and ejection
//!   processing. They sit outside `StepTotal` and do not enter coverage.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// A profiled region of the per-cycle path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// The whole of `Network::step`.
    StepTotal = 0,
    /// Link delivery: due flits and credits, ARQ service, fault verdicts.
    LinkDelivery,
    /// The fused node-local section: router pipeline sweep (all stages,
    /// all active routers), buffer-occupancy count, and NIC injection
    /// from source queues into local input buffers.
    RouterPipeline,
    /// Metrics-window bookkeeping at the end of the step.
    Telemetry,
    /// Switch traversal (and the buffer read feeding it).
    StageSt,
    /// Switch allocation.
    StageSa,
    /// Virtual-channel allocation.
    StageVa,
    /// Route computation.
    StageRc,
    /// Simulator driver: workload generation and packet injection.
    Workload,
    /// Simulator driver: drop and ejection processing.
    Ejection,
}

/// Number of phases (array sizing).
const COUNT: usize = 10;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; COUNT] = [
        Phase::StepTotal,
        Phase::LinkDelivery,
        Phase::RouterPipeline,
        Phase::Telemetry,
        Phase::StageSt,
        Phase::StageSa,
        Phase::StageVa,
        Phase::StageRc,
        Phase::Workload,
        Phase::Ejection,
    ];

    /// The sections that tile `Network::step`'s body (the coverage
    /// denominator is [`Phase::StepTotal`], these are the numerator).
    pub const STEP_SECTIONS: [Phase; 3] =
        [Phase::LinkDelivery, Phase::RouterPipeline, Phase::Telemetry];

    /// Stable snake-case name (snapshot key and Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::StepTotal => "step_total",
            Phase::LinkDelivery => "link_delivery",
            Phase::RouterPipeline => "router_pipeline",
            Phase::Telemetry => "telemetry",
            Phase::StageSt => "stage_st",
            Phase::StageSa => "stage_sa",
            Phase::StageVa => "stage_va",
            Phase::StageRc => "stage_rc",
            Phase::Workload => "workload",
            Phase::Ejection => "ejection",
        }
    }
}

// The const-repeat array initializer: each use expands to a fresh
// AtomicU64, which is exactly the intent (clippy's interior-mutability
// lint guards against *sharing* a const atomic, which never happens).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static NANOS: [AtomicU64; COUNT] = [ZERO; COUNT];
static CALLS: [AtomicU64; COUNT] = [ZERO; COUNT];

thread_local! {
    /// Set on shard worker threads (see [`set_worker_thread`]): their
    /// scopes are inert so the sections tiling `Network::step` are
    /// charged exactly once, by the main thread whose scope spans the
    /// dispatch, the parallel execution, and the join. Without this,
    /// N workers inside one `RouterPipeline` wall-clock interval would
    /// charge N overlapping durations and `coverage()` could exceed 1.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks (or unmarks) the current thread as a shard worker. Phase
/// scopes opened on a worker thread record nothing — the main thread's
/// enclosing scope already accounts for the worker's wall time.
pub fn set_worker_thread(worker: bool) {
    IS_WORKER.with(|w| w.set(worker));
}

/// Live guard for one phase scope; charges the phase on drop. Inert
/// (start time absent) when observability is off at entry.
#[derive(Debug)]
pub struct PhaseGuard {
    phase: Phase,
    start: Option<Instant>,
}

/// Opens a timing scope for `phase`. Call at the top of the region and
/// bind the guard (`let _p = scope(...)`) so it drops at region exit.
/// On shard worker threads the guard is always inert (see
/// [`set_worker_thread`]); the `enabled` check runs first so the
/// disabled path stays one relaxed atomic load with no TLS access.
#[inline(always)]
pub fn scope(phase: Phase) -> PhaseGuard {
    let start =
        if crate::enabled() && !IS_WORKER.with(Cell::get) { Some(Instant::now()) } else { None };
    PhaseGuard { phase, start }
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            charge(self.phase, nanos(t0, Instant::now()));
        }
    }
}

/// Charges `ns` nanoseconds and one call to `phase`.
#[inline]
fn charge(phase: Phase, ns: u64) {
    NANOS[phase as usize].fetch_add(ns, Ordering::Relaxed);
    CALLS[phase as usize].fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds from `from` to `to`.
#[inline]
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The section timer of one `Network::step`: a single chain of clock
/// reads. [`StepClock::lap`] ends the running section at the instant the
/// next one starts; dropping the clock charges [`Phase::StepTotal`] from
/// the first read to the last. Inert, like [`scope`], when observability
/// is off or on a shard worker thread.
#[derive(Debug)]
pub struct StepClock {
    /// The step's first clock read and the running section's start.
    start: Option<(Instant, Instant)>,
}

/// Starts the section chain of one step (the first section starts now).
#[inline(always)]
pub fn step_clock() -> StepClock {
    let start = if crate::enabled() && !IS_WORKER.with(Cell::get) {
        let now = Instant::now();
        Some((now, now))
    } else {
        None
    };
    StepClock { start }
}

impl StepClock {
    /// Charges the running section to `phase` and starts the next one at
    /// the same instant.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if let Some((_, section)) = &mut self.start {
            let now = Instant::now();
            charge(phase, nanos(*section, now));
            *section = now;
        }
    }
}

impl Drop for StepClock {
    #[inline]
    fn drop(&mut self) {
        if let Some((first, _)) = self.start {
            charge(Phase::StepTotal, nanos(first, Instant::now()));
        }
    }
}

/// One phase's accumulated profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSample {
    /// [`Phase::name`] of the phase.
    pub phase: String,
    /// Scopes closed.
    pub calls: u64,
    /// Wall nanoseconds accumulated.
    pub nanos: u64,
}

/// Snapshots every phase (including ones that never fired, so consumers
/// see a stable row set).
pub fn snapshot() -> Vec<PhaseSample> {
    Phase::ALL
        .iter()
        .map(|&p| PhaseSample {
            phase: p.name().to_string(),
            calls: CALLS[p as usize].load(Ordering::Relaxed),
            nanos: NANOS[p as usize].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes every phase accumulator (test isolation; production snapshots
/// are cumulative per process).
pub fn reset() {
    for i in 0..COUNT {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

/// Fraction of [`Phase::StepTotal`] wall time covered by the tiled
/// [`Phase::STEP_SECTIONS`], or `None` when no step has been profiled.
pub fn coverage() -> Option<f64> {
    let total = NANOS[Phase::StepTotal as usize].load(Ordering::Relaxed);
    if total == 0 {
        return None;
    }
    let sections: u64 =
        Phase::STEP_SECTIONS.iter().map(|&p| NANOS[p as usize].load(Ordering::Relaxed)).sum();
    Some(sections as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All phase behaviour in one test: the accumulators are global, so
    /// concurrent tests would race a `reset`.
    #[test]
    fn scopes_accumulate_only_when_enabled() {
        reset();
        crate::set_enabled(false);
        {
            let _p = scope(Phase::StageSt);
            step_clock().lap(Phase::LinkDelivery);
        }
        assert!(snapshot().iter().all(|s| s.calls == 0), "disabled scopes must not record");

        crate::set_enabled(true);
        {
            let mut clock = step_clock();
            for &s in &Phase::STEP_SECTIONS {
                std::hint::black_box(0u64);
                clock.lap(s);
            }
        }
        // Scopes and clocks on a shard worker thread are inert even while
        // enabled: the main thread's enclosing section already accounts
        // for the worker's wall time, so a worker-side one would be a
        // double count.
        set_worker_thread(true);
        {
            let _p = scope(Phase::RouterPipeline);
            step_clock().lap(Phase::RouterPipeline);
        }
        set_worker_thread(false);
        crate::set_enabled(false);

        let snap = snapshot();
        let total = snap.iter().find(|s| s.phase == "step_total").expect("present");
        assert_eq!(total.calls, 1);
        let pipeline = snap.iter().find(|s| s.phase == "router_pipeline").expect("present");
        assert_eq!(pipeline.calls, 1, "worker-thread scope must not record");
        assert!(total.nanos > 0);
        // The laps tile the chain up to the last one; the total runs to
        // the drop, a read later.
        let sections: u64 = Phase::STEP_SECTIONS
            .iter()
            .map(|p| snap.iter().find(|s| s.phase == p.name()).expect("present").nanos)
            .sum();
        assert!(sections <= total.nanos, "sections {sections} ns exceed the step {total:?}");
        let cov = coverage().expect("step profiled");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov} out of range");
        reset();
        assert_eq!(coverage(), None);
    }
}
