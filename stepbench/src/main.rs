//! `stepbench`: host wall time per simulated PRAM step, end to end and
//! layer by layer. README.md in this directory documents the workloads,
//! the metrics and the baseline numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path stepbench/Cargo.toml -- \
//!     --workload rw-warm --seed 1 --seconds 45 --trace 0
//! ```
//!
//! A run prints a readable report and, as its last stdout line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics of untraced fresh simulators;
//! `--trace 1` reports the per-layer metrics of a traced replay. A run
//! whose outputs fail a correctness gate exits 1; bad usage exits 2.

mod probes;
mod replay;

use std::process::ExitCode;
use std::time::Instant;

use prasim::core::{workload, PramMeshSim, PramStep, ReadPolicy, SimConfig, StepReport};
use prasim::fault::{FaultPlan, TraceReport};
use prasim::hmos::HmosParams;
use prasim::mesh::topology::MeshShape;
use prasim::routing::problem::SplitMix64;
use prasim::sortnet::sorter::Sorter;

/// Mesh nodes = PRAM processors; every step is a full-machine step.
pub const N: u64 = 4096;
/// Requested shared memory (rounded up to 88452 variables, α ≈ 1.37).
const MEMORY: u64 = 40_000;
/// Distinct variable sets the program cycles through.
const SETS: usize = 2;
/// The deterministic window: every simulator's first `WINDOW` steps
/// (write A, read A, write B, read B). Simulated counts are taken over
/// it, so they repeat exactly for a seed whatever the host speed.
pub const WINDOW: usize = 2 * SETS;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Fresh simulators per untraced run; `setup_s` is their median.
    /// Under faults each runs its own fault plan and its own traffic, so
    /// a run averages over `sims` (plan, traffic) draws.
    sims: usize,
    pub policy: ReadPolicy,
    pub faults: bool,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        let (name, sims, policy, faults) = match name {
            "rw-warm" => ("rw-warm", 3, ReadPolicy::Freshest, false),
            "quorum-faults" => ("quorum-faults", 6, ReadPolicy::HierarchicalMajority, true),
            _ => return None,
        };
        Some(Workload {
            name,
            sims,
            policy,
            faults,
        })
    }

    /// Timed runs use 1 thread; the window is re-checked at nproc.
    pub fn config(&self, threads: usize) -> SimConfig {
        SimConfig::new(N, MEMORY)
            .with_threads(threads)
            .with_sorter(Sorter::Columnsort)
            .with_read_policy(self.policy)
    }

    /// The program of fresh simulator `sim`.
    pub fn program(&self, seed: u64, sim: usize) -> Program {
        Program::new(match self.faults {
            true => mix(seed ^ ((sim as u64) << 48)),
            false => seed,
        })
    }

    /// The fault plan of fresh simulator `sim`, if the workload has faults.
    pub fn fault_plan(&self, sim: usize) -> Option<FaultPlan> {
        self.faults.then(|| fault_plan(sim))
    }
}

pub fn shape() -> MeshShape {
    MeshShape::square_of(N).expect("N is a perfect square")
}

pub fn params() -> HmosParams {
    HmosParams::new(3, 2, N, MEMORY).expect("the benchmark's HMOS parameters are valid")
}

/// Fault plan `i`: 20 dead nodes and 20 links losing 250‰ of traversals,
/// all from step 0 (the static fault model of Chlebus–Gasieniec–Pelc),
/// placed by `FaultPlan::new(i)`.
///
/// The plans are part of the workload, not drawn from the run's seed: the
/// cost of a faulty step hangs on where the dead nodes fall (stage `k+1`
/// routes take 0.8k to 6.5k steps over the first plans tried, as packets
/// queue around a dead node in a busy region), so plans drawn per seed
/// would make the spread between seeds a lottery over fault positions.
/// Every run covers the same plans, and the seed varies the traffic.
pub fn fault_plan(i: usize) -> FaultPlan {
    let mut plan = FaultPlan::new(i as u64);
    plan.random_dead_nodes(shape(), 20, 0)
        .random_lossy_links(shape(), 20, 250, 0);
    plan
}

pub fn mix(x: u64) -> u64 {
    SplitMix64(x).next_u64()
}

/// The PRAM program every simulator runs: step `j` writes (even `j`) or
/// reads (odd `j`) the variable set `(j / 2) % SETS`, so each read step
/// reads what the step before it wrote.
pub struct Program {
    seed: u64,
    sets: Vec<Vec<u64>>,
}

impl Program {
    pub fn new(seed: u64) -> Program {
        let nv = params().num_variables;
        let sets = (0..SETS as u64)
            .map(|s| workload::random_distinct(N, nv, mix(seed ^ (s << 56))))
            .collect();
        Program { seed, sets }
    }

    fn vars(&self, j: usize) -> &[u64] {
        &self.sets[(j / 2) % SETS]
    }

    /// The value write step `j` stores to `var`.
    fn value(&self, j: usize, var: u64) -> u64 {
        mix(self.seed ^ ((j as u64) << 40) ^ var)
    }

    pub fn step(&self, j: usize) -> PramStep {
        let vars = self.vars(j);
        if j.is_multiple_of(2) {
            let values: Vec<u64> = vars.iter().map(|&v| self.value(j, v)).collect();
            PramStep::writes(vars, &values)
        } else {
            PramStep::reads(vars)
        }
    }

    /// Operations of step `j` that violate the correctness gate. Write
    /// steps return no values. On a fault-free machine every read
    /// returns the value the previous step wrote; under faults the
    /// simulator's own trace checker judges the reads (see [`trace_gate`]).
    pub fn check(&self, j: usize, report: &StepReport, fault_free: bool) -> u64 {
        let vars = self.vars(j);
        if report.reads.len() != vars.len() {
            return vars.len() as u64;
        }
        if j.is_multiple_of(2) {
            return report.reads.iter().filter(|r| r.is_some()).count() as u64;
        }
        if !fault_free {
            return 0;
        }
        vars.iter()
            .zip(&report.reads)
            .filter(|&(&var, &read)| read != Some(self.value(j - 1, var)))
            .count() as u64
    }
}

/// Gate on the trace checker's verdict for one step (`before` → `after`):
/// returns `(violations, failed_ops)`. Violations are silent-wrong reads
/// and EREW-violating steps (counted as a whole step of operations), plus,
/// on a fault-free machine, any read not clean or write not committed.
/// Failed operations are unrecoverable reads plus uncommitted writes.
pub fn trace_gate(before: &TraceReport, after: &TraceReport, fault_free: bool) -> (u64, u64) {
    let d = |f: fn(&TraceReport) -> u64| f(after) - f(before);
    let failed = d(|t| t.unrecoverable_reads) + d(|t| t.partial_writes);
    let mut violations = d(|t| t.silent_wrong_reads) + d(|t| t.erew_violations) * N;
    if fault_free {
        violations += failed + d(|t| t.tainted_reads);
    }
    (violations, failed)
}

/// Whether two reports of the same step agree on everything simulated:
/// reads, outcomes, `total_steps`, CULLING and per-stage protocol counts.
pub fn same_step(a: &StepReport, b: &StepReport) -> bool {
    a.reads == b.reads
        && a.outcomes == b.outcomes
        && a.total_steps == b.total_steps
        && a.culling == b.culling
        && a.protocol == b.protocol
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A metric as printed: name, unit, value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Gate tally of a run: operations attempted and operations that
/// violated a correctness gate.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// One untraced fresh simulator: set-up, then warm steps until its time
/// slot is used up and the deterministic window is complete.
struct SimRun {
    setup_s: f64,
    warm_s: Vec<f64>,
    ok_ops: u64,
    /// The window's reports, kept for the first simulator only; later
    /// fault-free simulators are checked against them as they run.
    window: Vec<StepReport>,
    window_steps: u64,
    window_failed: u64,
}

impl SimRun {
    /// Reads and writes completed without failure per host second, from
    /// `PramMeshSim::new` to the last step.
    fn ops_per_s(&self) -> f64 {
        self.ok_ops as f64 / (self.setup_s + self.warm_s.iter().sum::<f64>())
    }
}

fn run_sim(
    w: &Workload,
    prog: &Program,
    plan: Option<&FaultPlan>,
    first: Option<&[StepReport]>,
    slot_s: f64,
    tally: &mut Tally,
) -> Result<SimRun, String> {
    let mut run = SimRun {
        setup_s: 0.0,
        warm_s: Vec::new(),
        ok_ops: 0,
        window: Vec::new(),
        window_steps: 0,
        window_failed: 0,
    };
    let mut next = prog.step(0);
    let start = Instant::now();
    let mut sim = PramMeshSim::new(w.config(1)).map_err(|e| e.to_string())?;
    if let Some(plan) = plan {
        sim.set_fault_plan(plan.clone());
    }
    let mut j = 0;
    loop {
        let before = sim.trace_report();
        let t = Instant::now();
        let report = sim.step(&next).map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64();
        if j == 0 {
            run.setup_s = start.elapsed().as_secs_f64();
        } else {
            run.warm_s.push(dt);
        }
        let (violations, failed) = trace_gate(&before, &sim.trace_report(), !w.faults);
        let ops = next.ops.len() as u64;
        tally.attempted += ops;
        tally.failed += violations + prog.check(j, &report, !w.faults);
        run.ok_ops += ops - failed;
        if j < WINDOW {
            run.window_steps += report.total_steps;
            run.window_failed += failed;
            match first {
                // Fault-free simulators run identical inputs, so each
                // must reproduce the first one's window.
                Some(first) if !w.faults && !same_step(&first[j], &report) => tally.failed += ops,
                Some(_) => {}
                None => run.window.push(report),
            }
        }
        j += 1;
        if j >= WINDOW && start.elapsed().as_secs_f64() >= slot_s {
            return Ok(run);
        }
        next = prog.step(j);
    }
}

/// Peak resident set of this process, in MB (`VmHWM`, reported in KiB).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The untraced end-to-end run.
fn run_e2e(
    w: &Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut runs: Vec<SimRun> = Vec::with_capacity(w.sims);
    for sim in 0..w.sims {
        let (prog, plan) = (w.program(seed, sim), w.fault_plan(sim));
        let first = runs.first().map(|r| r.window.as_slice());
        let slot_s = seconds / w.sims as f64;
        let run = run_sim(w, &prog, plan.as_ref(), first, slot_s, &mut tally)?;
        runs.push(run);
    }

    // Untimed: the banded engine at nproc threads must reproduce the
    // first simulator's window step for step.
    if nproc > 1 {
        let prog = w.program(seed, 0);
        let mut sim = PramMeshSim::new(w.config(nproc)).map_err(|e| e.to_string())?;
        if let Some(plan) = w.fault_plan(0) {
            sim.set_fault_plan(plan);
        }
        for (j, seq) in runs[0].window.iter().enumerate() {
            let report = sim.step(&prog.step(j)).map_err(|e| e.to_string())?;
            if !same_step(seq, &report) {
                eprintln!("step {j}: threads = {nproc} differs from threads = 1");
                tally.failed += N;
            }
        }
    }

    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let ops_per_s: Vec<f64> = runs.iter().map(SimRun::ops_per_s).collect();
    let mut warm: Vec<f64> = runs.iter().flat_map(|r| r.warm_s.iter().copied()).collect();
    warm.sort_by(f64::total_cmp);
    // The highest percentile with at least ten samples beyond it.
    let tail_idx = warm.len().saturating_sub(11);
    let window_steps: u64 = runs.iter().map(|r| r.window_steps).sum();
    let window_failed: u64 = runs.iter().map(|r| r.window_failed).sum();
    let window_len = (w.sims * WINDOW) as f64;
    let failed_ratio = window_failed as f64 / (window_len * N as f64);

    println!(
        "samples: {} fresh simulators (setup_s, pram_ops_per_s: medians over them), {} warm steps; \
         warm_step_tail_s is p{:.1}, with {} samples beyond it",
        setups.len(),
        warm.len(),
        100.0 * (tail_idx + 1) as f64 / warm.len() as f64,
        warm.len() - tail_idx - 1,
    );
    // Printed, not reported: the host alternates between two speeds ~1.6x
    // apart every few seconds, and a run's median or mean lands on
    // whichever phase dominated it, so these spread up to 38% between
    // runs. Nearly every run has slow phases, so the tail stays steady.
    println!("warm_step_s = {} s (median)", median(&warm));
    println!("pram_ops_per_s = {} ops/s", median(&ops_per_s));
    println!("failed_ops_ratio = {failed_ratio} (over each simulator's first {WINDOW} steps)");
    let metrics = vec![
        metric("setup_s", "s", median(&setups)),
        metric("warm_step_tail_s", "s", warm[tail_idx]),
        metric(
            "mesh_steps_per_pram_step",
            "steps",
            window_steps as f64 / window_len,
        ),
        metric("served_ops_ratio", "ratio", 1.0 - failed_ratio),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    Ok((tally, metrics))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: stepbench --workload <rw-warm|quorum-faults> \
--seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                seconds = Some((1..=60).contains(&s).then_some(s as f64).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "stepbench: workload {} seed {} seconds {} trace {} | n = {N}, {} variables, columnsort, \
         1 thread (host nproc {nproc}), closed loop of 1 caller",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        params().num_variables,
    );
    let result = if args.trace {
        replay::run_traced(&w, args.seed, args.seconds, nproc)
    } else {
        run_e2e(&w, args.seed, args.seconds, nproc)
    };
    let (tally, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stepbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("stepbench: metric {} is not finite", m.name);
        return ExitCode::from(1);
    }
    for m in &metrics {
        println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "stepbench: {} operations failed a correctness gate",
            tally.failed
        );
        ExitCode::from(1)
    }
}
