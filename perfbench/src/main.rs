//! Layered benchmark of the MIRA simulator.
//!
//! ```text
//! python3 perfbench/run.py --workload <paper_exhibits|mesh32_light|mesh16_knee> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! python3 perfbench/run.py --calibrate
//! python3 perfbench/run.py --bless --workload <name>
//! ```
//!
//! (`run.py` builds this binary when its sources changed, then runs it.)
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the run's spans as Chrome trace JSON under
//! `.bench_out/`). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--calibrate` finds
//! each mesh's knee and records it in `knees.json`; `--bless` stores the
//! current simulator's output digests under `expected/`. NOTES.md has
//! each workload's rationale and the layer → metric map.

mod digest;
mod drive;
mod exhibits;
mod layers;
mod mesh;
mod outcome;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use mira::experiments::runner::Runner;

use crate::mesh::{MeshSpec, MESHES};
use crate::outcome::Outcome;

const USAGE: &str = "usage: mira-perfbench --workload <paper_exhibits|mesh32_light|mesh16_knee> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     mira-perfbench --calibrate\n       \
                     mira-perfbench --bless --workload <name>";

/// Environment variables that would change what the benchmark measures:
/// runner size and policy, shard count, observability, chaos hooks.
const REFUSED_ENV_PREFIX: &str = "MIRA_";

/// The benchmark's directory (expected digests, knees).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Host memory high-water mark (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    calibrate: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--calibrate" => args.calibrate = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn mesh(name: &str) -> Option<&'static MeshSpec> {
    MESHES.iter().find(|m| m.name == name)
}

/// CPU model from /proc/cpuinfo.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

/// Runner jobs and shard counts, fixed here and checked against the host.
struct Budget {
    nproc: usize,
    jobs: usize,
}

impl Budget {
    fn pin() -> Result<Budget, String> {
        let refused: Vec<String> = std::env::vars()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with(REFUSED_ENV_PREFIX))
            .collect();
        if !refused.is_empty() {
            return Err(format!(
                "refusing to run with {} set: the benchmark pins runner jobs, shards and \
                 observability itself",
                refused.join(", ")
            ));
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let jobs = nproc.min(2);
        // Exhibits without an `_on(&Runner, …)` entry point size their
        // runner from MIRA_JOBS; pin it to the same job count. Set before
        // any thread is spawned.
        std::env::set_var("MIRA_JOBS", jobs.to_string());
        Ok(Budget { nproc, jobs })
    }

    fn runner(&self) -> Runner {
        Runner::with_jobs(self.jobs).exhibit("perfbench")
    }

    fn check_shards(&self, spec: &MeshSpec) -> Result<(), String> {
        if spec.shards > self.nproc {
            return Err(format!(
                "{} steps on {} shards but this host has {} CPUs",
                spec.name, spec.shards, self.nproc
            ));
        }
        Ok(())
    }
}

fn fingerprint(budget: &Budget, workload: &str, seed: u64, trace: bool) -> String {
    let p = mira_obs::provenance::Provenance::current();
    format!(
        "# host nproc={} cpu=\"{}\" rustc=\"{}\" git_rev={} profile={} jobs={} \
         workload={workload} seed={seed} trace={}",
        budget.nproc,
        cpu_model(),
        p.rustc,
        p.git_rev,
        p.profile,
        budget.jobs,
        u8::from(trace)
    )
}

fn result_json(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let budget = Budget::pin()?;

    if args.calibrate {
        for spec in &MESHES {
            budget.check_shards(spec)?;
        }
        return mesh::calibrate(&MESHES);
    }

    let workload = args.workload.ok_or("--workload is required")?;
    if args.bless {
        return match workload.as_str() {
            "paper_exhibits" => exhibits::bless(&budget.runner()),
            name => mesh::bless(mesh(name).ok_or_else(|| format!("unknown workload {name}"))?),
        };
    }
    let seed = args.seed.ok_or("--seed is required")?;
    let seconds = args.seconds.ok_or("--seconds is required")?;
    let trace = args.trace.ok_or("--trace is required")?;
    println!("{}", fingerprint(&budget, &workload, seed, trace));

    let root = bench_dir().parent().map_or_else(|| PathBuf::from("."), PathBuf::from);
    let trace_dir = root.join(".bench_out");
    let trace_out = trace_dir.join(format!("{workload}-seed{seed}.trace.json"));
    if trace {
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
    }
    let out = match (workload.as_str(), trace) {
        // paper_exhibits keeps EXPERIMENT_SEED: its scorecard bands were
        // tuned at that seed.
        ("paper_exhibits", false) => exhibits::run(&budget.runner(), seconds)?,
        ("paper_exhibits", true) => exhibits::traced(&budget.runner(), &trace_out)?,
        (name, traced) => {
            let spec = mesh(name).ok_or_else(|| format!("unknown workload {name}"))?;
            budget.check_shards(spec)?;
            if traced {
                mesh::traced(spec, seed, &trace_out)?
            } else {
                mesh::run(spec, seed, seconds)?
            }
        }
    };
    if trace {
        println!("# spans written to {}", trace_out.display());
    }

    for note in &out.notes {
        println!("# {note}");
    }
    for p in &out.problems {
        println!("# PROBLEM: {p}");
    }
    println!(
        "# error_rate = {} ({} failed / {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&out)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mira-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
