//! The `paper_exhibits` workload: the simulation-backed exhibit set of
//! `all_experiments --quick`, run in-process on a pinned runner.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use mira::arch::Arch;
use mira::experiments::common::{quick_sim_config, sweep_ur_points, SweepPoint};
use mira::experiments::faults::{
    fault_rates_ppm, fault_sweep_figures, fault_sweep_points, FaultPoint, FAULT_ARCHS,
};
use mira::experiments::runner::{RunSummary, Runner};
use mira::experiments::{ablations, latency, patterns, power, scorecard, thermal, EXPERIMENT_SEED};
use mira::noc::network::Network;
use mira::noc::sim::Simulator;
use mira::noc::traffic::{UniformRandom, Workload};
use mira::nuca::cmp::{CmpConfig, CmpSystem};
use mira::traffic::workloads::Application;

use crate::digest::{self, Expected};
use crate::drive::{drive, idle_step_us};
use crate::mesh::panic_text;
use crate::outcome::Outcome;
use crate::spans::{self_times, Span, Tracer};
use crate::stats::{median, tail};

/// `all_experiments --quick` settings.
const PATTERN_CYCLES: u64 = 4_000;
const TRACE_CYCLES: u64 = 5_000;
const UR_RATES: [f64; 3] = [0.05, 0.15, 0.30];
const NUCA_RATES: [f64; 2] = [0.05, 0.15];
const THERMAL_RATES: [f64; 2] = [0.05, 0.20];

/// Fewest timed passes per run.
const MIN_PASSES: usize = 3;
/// Set-ups timed before each timed pass. The host's speed drifts within
/// a run, so set-ups are spread over the run; the median is reported.
const SETUP_PER_PASS: usize = 2;

/// The representative paper point the traced run steps by hand: 2DB
/// under UR at the scorecard's pre-saturation load.
const PROBE_ARCH: Arch = Arch::TwoDB;
const PROBE_RATE: f64 = 0.15;

fn expected_path() -> PathBuf {
    crate::bench_dir().join("expected").join("paper_exhibits.json")
}

/// What one pass over the exhibit set produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the pass.
    pub wall_s: f64,
    /// Host seconds of each runner point.
    pub point_walls_s: Vec<f64>,
    /// Simulated cycles over the runner batches.
    pub cycles: u64,
    /// Host seconds over the runner batches.
    pub batch_wall_s: f64,
    /// Every batch summary.
    pub summaries: Vec<RunSummary>,
    /// Output digests by key.
    pub digests: BTreeMap<String, String>,
    /// Scorecard claims inside their band.
    pub claims_in_band: u64,
    /// Fault-sweep link retransmissions.
    pub fault_retransmissions: u64,
    /// Fault-sweep packets dropped.
    pub fault_packets_dropped: u64,
    /// Operations attempted: runner points plus exhibit calls whose
    /// points the benchmark cannot see.
    pub attempted: u64,
    /// Failed operations.
    pub failures: Vec<String>,
}

impl Pass {
    /// Runs an exhibit whose points are internal to it: one operation,
    /// digested by its rendered text.
    fn opaque(&mut self, tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> String) {
        self.attempted += 1;
        match tracer.time(name, || catch_unwind(AssertUnwindSafe(f))) {
            Ok(text) => {
                self.digests.insert(name.to_string(), digest::of_text(&text));
            }
            Err(e) => self.failures.push(format!("{name}: panic: {}", panic_text(&*e))),
        }
    }

    /// Folds in one runner batch: point timings, per-point digests of
    /// the headline statistics, and one span per point.
    fn batch(&mut self, tracer: &mut Tracer, name: &str, start_ns: u64, s: RunSummary) {
        let parent = tracer.innermost();
        for (i, p) in s.point_details.iter().enumerate() {
            self.point_walls_s.push(p.wall_ms / 1e3);
            let key = format!("{name}/{i:03} {}", p.label);
            let stats = format!("{} {:?} {}", p.cycles, p.avg_latency, p.saturated);
            self.digests.entry(key).or_insert_with(|| digest::of_text(&stats));
            let start = start_ns + (p.queue_wait_ms * 1e6) as u64;
            tracer.push(Span {
                name: "runner.point",
                start_ns: start,
                end_ns: start + (p.wall_ms * 1e6) as u64,
                parent,
                sim: self.point_walls_s.len() as u64,
            });
        }
        for f in &s.failed_points {
            self.failures.push(format!("{name}/{} {}: {} {}", f.index, f.label, f.kind, f.detail));
        }
        self.attempted += s.points as u64;
        self.cycles += s.cycles_simulated;
        self.batch_wall_s += s.wall_ms / 1e3;
        self.summaries.push(s);
    }

    /// Runs an `_on(&Runner, …)` exhibit; its batch is folded in.
    fn on_runner(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        f: impl FnOnce() -> (String, RunSummary),
    ) {
        let start = tracer.now_ns();
        tracer.begin(name);
        let result = catch_unwind(AssertUnwindSafe(f));
        match result {
            Ok((text, summary)) => {
                self.digests.insert(name.to_string(), digest::of_text(&text));
                self.batch(tracer, name, start, summary);
            }
            Err(e) => {
                self.attempted += 1;
                self.failures.push(format!("{name}: panic: {}", panic_text(&*e)));
            }
        }
        tracer.end();
    }
}

/// One pass over the exhibit set.
pub fn run_pass(runner: &Runner, tracer: &mut Tracer) -> Pass {
    let sim = quick_sim_config();
    let mut pass = Pass::default();
    let started = Instant::now();
    tracer.begin("exhibits.pass");

    pass.opaque(tracer, "fig1", || patterns::fig1(&Application::ALL, PATTERN_CYCLES).to_text());
    pass.opaque(tracer, "fig2", || patterns::fig2(&Application::ALL, PATTERN_CYCLES).to_text());
    pass.opaque(tracer, "fig13a", || patterns::fig13a(&Application::ALL, PATTERN_CYCLES).to_text());

    // The UR sweep through Runner::try_run, so every point's full report
    // is digested.
    let start = tracer.now_ns();
    tracer.begin("ur_sweep");
    let batch = runner.try_run(sweep_ur_points(&UR_RATES, 0.0, sim));
    let mut sweep = Vec::new();
    let mut results = batch.outcomes.into_iter();
    for &rate in &UR_RATES {
        for arch in Arch::ALL {
            if let Some(Ok(o)) = results.next() {
                pass.digests.insert(format!("ur/{}", o.label), digest::of_report(&o.result.report));
                sweep.push(SweepPoint { arch, rate, result: o.result });
            }
        }
    }
    pass.batch(tracer, "ur_sweep", start, batch.summary);
    tracer.end();
    if sweep.len() == UR_RATES.len() * Arch::ALL.len() {
        pass.opaque(tracer, "fig11a", || latency::fig11a(&sweep).to_text());
        pass.opaque(tracer, "fig12a", || power::fig12a(&sweep).to_text());
        pass.opaque(tracer, "fig12d", || power::fig12d(&sweep).to_text());
        pass.on_runner(tracer, "fig11d", || {
            let (f, s) =
                latency::fig11d_on(runner, &sweep, 0.05, Application::Apache, TRACE_CYCLES, sim);
            (f.to_text(), s)
        });
    } else {
        pass.attempted += 4;
        pass.failures.push("fig11a/12a/12d/11d skipped: the UR sweep is incomplete".into());
    }

    pass.on_runner(tracer, "fig11b", || {
        let (f, s) = latency::fig11b_on(runner, &NUCA_RATES, sim);
        (f.to_text(), s)
    });
    pass.on_runner(tracer, "fig12b", || {
        let (f, s) = power::fig12b_on(runner, &NUCA_RATES, sim);
        (f.to_text(), s)
    });
    pass.on_runner(tracer, "fig11c", || {
        let (f, s) = latency::fig11c_on(runner, &Application::PRESENTED, TRACE_CYCLES, sim);
        (f.to_text(), s)
    });
    pass.on_runner(tracer, "fig12c", || {
        let (f, s) = power::fig12c_on(runner, &Application::PRESENTED, TRACE_CYCLES, sim);
        (f.to_text(), s)
    });

    pass.opaque(tracer, "fig13b", || power::fig13b(0.10, sim).to_text());
    pass.opaque(tracer, "fig13c", || thermal::fig13c(&THERMAL_RATES, sim).to_text());
    pass.opaque(tracer, "abl_pipeline", || ablations::ablate_pipeline(0.10, sim).to_text());
    pass.opaque(tracer, "abl_express_span", || ablations::ablate_express_span(0.10, sim).to_text());
    pass.opaque(tracer, "abl_buffers", || ablations::ablate_buffers(0.15, sim).to_text());
    pass.opaque(tracer, "abl_routing", || ablations::ablate_routing(0.15, sim).to_text());
    pass.opaque(tracer, "tail_latency", || latency::tail_latency(0.15, sim).to_text());

    // The fault sweep through Runner::try_run, for the fault counters.
    let rates = fault_rates_ppm(true);
    let start = tracer.now_ns();
    tracer.begin("fault_sweep");
    let batch = runner.try_run(fault_sweep_points(&rates, sim));
    let mut points = Vec::new();
    let mut results = batch.outcomes.into_iter();
    for &ppm in &rates {
        for arch in FAULT_ARCHS {
            if let Some(Ok(o)) = results.next() {
                let f = &o.result.report.faults;
                pass.fault_retransmissions += f.retransmissions;
                pass.fault_packets_dropped += f.packets_dropped;
                pass.digests
                    .insert(format!("fault/{}", o.label), digest::of_report(&o.result.report));
                points.push(FaultPoint { arch, ppm, result: o.result });
            }
        }
    }
    pass.batch(tracer, "fault_sweep", start, batch.summary);
    tracer.end();
    if points.len() == rates.len() * FAULT_ARCHS.len() {
        pass.opaque(tracer, "fault_figures", || fault_sweep_figures(&points).to_text());
    } else {
        pass.attempted += 1;
        pass.failures.push("fault figures skipped: the fault sweep is incomplete".into());
    }

    let mut claims = Vec::new();
    pass.opaque(tracer, "scorecard", || {
        claims = scorecard::run_scorecard(sim, TRACE_CYCLES);
        scorecard::scorecard_table(&claims).to_text()
    });
    pass.claims_in_band = claims.iter().filter(|c| c.passes()).count() as u64;

    tracer.end();
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Everything before simulated cycle 0 for the paper fabrics: each
/// architecture's topology, `Simulator::new` and `Workload::init`, plus
/// the CMP trace generation of every presented application.
fn setup_once() -> f64 {
    let started = Instant::now();
    for arch in Arch::ALL {
        let sim = Simulator::new(arch.topology(), arch.network_config(false), quick_sim_config());
        let mut w = UniformRandom::new(PROBE_RATE, 5, EXPERIMENT_SEED);
        w.init(sim.network().topology().num_nodes());
        std::hint::black_box((sim, w));
    }
    for app in Application::PRESENTED {
        std::hint::black_box(latency::app_trace(app, PROBE_ARCH, TRACE_CYCLES));
    }
    started.elapsed().as_secs_f64()
}

/// Checks one pass against the stored expectations.
fn check(pass: &Pass, expected: &Expected, out: &mut Outcome) {
    out.attempted += pass.attempted;
    for f in &pass.failures {
        out.fail(f.clone());
    }
    for bad in expected.mismatches(&pass.digests) {
        out.fail(format!("paper_exhibits: {bad}"));
    }
    if pass.claims_in_band != expected.claims_in_band {
        out.problem(format!(
            "paper_exhibits: {} claims in band, {} expected",
            pass.claims_in_band, expected.claims_in_band
        ));
    }
}

/// Stores the digests of one pass of the current simulator.
pub fn bless(runner: &Runner) -> Result<(), String> {
    let pass = run_pass(runner, &mut Tracer::new(false));
    if !pass.failures.is_empty() {
        return Err(format!("cannot bless a failing pass: {:?}", pass.failures));
    }
    Expected { digests: pass.digests, claims_in_band: pass.claims_in_band }.store(&expected_path())
}

/// The timed run (`--trace 0`).
pub fn run(runner: &Runner, seconds: f64) -> Result<Outcome, String> {
    let expected = Expected::load(&expected_path())?;
    let mut out = Outcome::default();

    // One untimed pass lets lazy set-up and the allocator settle before
    // anything is timed; it is checked like the rest.
    let warm = run_pass(runner, &mut Tracer::new(false));
    check(&warm, &expected, &mut out);

    let mut passes = Vec::new();
    let mut setup = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        setup.extend((0..SETUP_PER_PASS).map(|_| setup_once()));
        let pass = run_pass(runner, &mut Tracer::new(false));
        check(&pass, &expected, &mut out);
        passes.push(pass);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.cycles as f64 / p.batch_wall_s).collect();
    let points: Vec<f64> = passes.iter().flat_map(|p| p.point_walls_s.iter().copied()).collect();
    let point_tail = tail(&points);
    out.note(format!(
        "paper_exhibits: {} timed passes, {} runner points, point_s_tail = p{} ({} beyond)",
        passes.len(),
        point_tail.count,
        point_tail.pct,
        point_tail.beyond
    ));
    out.metric("wall_s", median(&walls), "s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("sim_cycles_per_s", median(&rates), "1/s");
    out.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    out.metric("point_s_p50", median(&points), "s");
    out.metric("point_s_tail", point_tail.value, "s");
    out.metric("claims_in_band", passes.last().map_or(0, |p| p.claims_in_band) as f64, "count");
    Ok(out)
}

/// The traced run (`--trace 1`).
pub fn traced(runner: &Runner, trace_out: &Path) -> Result<Outcome, String> {
    let expected = Expected::load(&expected_path())?;
    let mut out = Outcome::default();

    let warm = run_pass(runner, &mut Tracer::new(false));
    check(&warm, &expected, &mut out);
    let plain = run_pass(runner, &mut Tracer::new(false));
    check(&plain, &expected, &mut out);
    let mut tracer = Tracer::new(true);
    let traced = run_pass(runner, &mut tracer);
    check(&traced, &expected, &mut out);
    mira_obs::set_enabled(true);
    let with_obs = run_pass(runner, &mut Tracer::new(false));
    mira_obs::set_enabled(false);
    check(&with_obs, &expected, &mut out);

    // The representative point, once through Simulator::run and once
    // stepped by hand with a span per layer call.
    let sim_cfg = quick_sim_config();
    let mut sim = Simulator::new(PROBE_ARCH.topology(), PROBE_ARCH.network_config(false), sim_cfg);
    let run_started = Instant::now();
    let report = sim.run(Box::new(UniformRandom::new(PROBE_RATE, 5, EXPERIMENT_SEED)));
    let run_wall = run_started.elapsed().as_secs_f64();
    let mut net = Network::new(PROBE_ARCH.topology(), PROBE_ARCH.network_config(false));
    let mut w = UniformRandom::new(PROBE_RATE, 5, EXPERIMENT_SEED);
    w.init(net.topology().num_nodes());
    let gen_end = sim_cfg.warmup_cycles + sim_cfg.measure_cycles;
    // The probe's spans join the traced pass's under their own id; they
    // are the only layer-call spans in the trace.
    tracer.set_sim(u64::MAX);
    let d = drive(&mut net, &mut w, gen_end, report.cycles_simulated, &mut tracer);
    out.attempted += 1;
    if d.counters.flits_ejected != sim.network().counters().flits_ejected {
        out.fail("paper_exhibits: layered drive diverged from Simulator::run".into());
    }
    let idle_us = idle_step_us(
        &mut Network::new(PROBE_ARCH.topology(), PROBE_ARCH.network_config(false)),
        2_000,
    );

    // nuca: CMP trace generation of every presented application.
    let mut gen_s = 0.0;
    let mut records = 0usize;
    for app in Application::PRESENTED {
        let mut sys = CmpSystem::new(CmpConfig::for_app(
            app,
            PROBE_ARCH.cpu_nodes(),
            PROBE_ARCH.cache_nodes(),
            EXPERIMENT_SEED,
        ));
        sys.calibrate_rate(app.profile().offered_load, 36, TRACE_CYCLES.min(10_000));
        let started = Instant::now();
        records += sys.generate_trace(TRACE_CYCLES).len();
        gen_s += started.elapsed().as_secs_f64();
    }

    // thermal: the 3DM chip solve the thermal exhibits call.
    let pricing = PROBE_ARCH.network_power();
    let power_w = pricing.average_power_w(&report.counters);
    let solve_ms: Vec<f64> = (0..7)
        .map(|_| {
            let chip = thermal::chip_model(Arch::ThreeDM, power_w);
            let started = Instant::now();
            std::hint::black_box(chip.solve());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // runner: over every batch of the traced pass.
    let s = &traced.summaries;
    let busy: f64 = s.iter().map(|b| b.busy_ms).sum();
    let capacity: f64 = s.iter().map(|b| b.wall_ms * b.jobs as f64).sum();
    let weighted_imbalance: f64 = s.iter().map(|b| b.imbalance * b.wall_ms).sum();
    let batch_wall: f64 = s.iter().map(|b| b.wall_ms).sum();

    std::fs::write(trace_out, tracer.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;
    let st = self_times(tracer.spans());
    out.note(format!(
        "paper_exhibits: self time ms: {}",
        st.iter().map(|(k, v)| format!("{k}={:.1}", *v as f64 / 1e6)).collect::<Vec<_>>().join(" ")
    ));

    let step_s = tracer.total_ns("network.step") as f64 / 1e9;
    crate::layers::network_metrics(&mut out, &tracer, &d, idle_us);
    out.metric("shard.speedup", 1.0, "ratio");
    out.metric("sim.driver_share", (1.0 - step_s / run_wall).max(0.0), "ratio");
    out.metric("nuca.trace_gen_s", gen_s, "s");
    out.metric("nuca.trace_records", records as f64, "count");
    out.metric("fault.retransmissions", traced.fault_retransmissions as f64, "count");
    out.metric("fault.packets_dropped", traced.fault_packets_dropped as f64, "count");
    out.metric("power.price_us", crate::layers::price_us(&pricing, &report), "us");
    out.metric("thermal.solve_ms", median(&solve_ms), "ms");
    out.metric("runner.busy_frac", busy / capacity, "ratio");
    out.metric("runner.imbalance", weighted_imbalance / batch_wall, "ratio");
    out.metric(
        "runner.queue_wait_ms_max",
        s.iter().map(|b| b.queue_wait_max_ms).fold(0.0, f64::max),
        "ms",
    );
    out.metric(
        "runner.retried_points",
        s.iter().map(|b| b.retried_points).sum::<usize>() as f64,
        "count",
    );
    out.metric("obs.overhead_ratio", with_obs.wall_s / plain.wall_s, "ratio");
    out.metric("trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio");
    Ok(out)
}
