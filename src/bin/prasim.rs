//! `prasim` — command-line driver for the PRAM-on-mesh simulator.
//!
//! ```text
//! prasim simulate  --n 1024 --memory 9000 [--q 3] [--k 2] [--steps 2]
//!                  [--workload random|adversarial|strided] [--seed 42]
//!                  [--slack 1.0] [--analytic]
//!                  [--policy freshest|quorum] [--threads N]
//!                  [--sorter shearsort|columnsort]
//!                  [--dead N] [--sever N] [--lossy N]
//!                  [--corrupt N] [--freeze N]
//!                  [--fault-seed S] [--fault-from T]
//! prasim structure --n 1024 --d 5 [--q 3] [--k 2]
//! prasim route     --n 1024 [--l1 1] [--algo greedy|flat|hier] [--parts 16]
//!                  [--threads N] [--sorter shearsort|columnsort]
//! prasim bibd      --q 3 --d 2 [--m 8] [--dot]
//! ```
//!
//! Fault flags inject a deterministic [`FaultPlan`]: `--dead`/`--sever`/
//! `--lossy` pick that many random nodes/links (lossy links drop 25% of
//! traversals); `--corrupt`/`--freeze` fault that many copies of every
//! variable the run touches. `--fault-from` delays activation to the
//! given PRAM step (steps are 1-based). `--policy quorum` reads through
//! Definition 2's hierarchical majority instead of freshest-timestamp.
//! `--threads N` shards the mesh engines across N workers (default:
//! available parallelism); the output is byte-identical for every N.
//! `--sorter` selects the mesh sorting network used by every sort phase
//! (default: the step-simulated columnsort; `shearsort` restores the
//! previous merge-split shearsort). Both are parsed once per command
//! and passed down in the simulator's or router's execution context.

use prasim::bibd::{Bibd, BibdSubgraph};
use prasim::core::{workload, PramMeshSim, ReadPolicy, SimConfig};
use prasim::exec::ExecCtx;
use prasim::fault::{CopyFaultKind, FaultPlan};
use prasim::hmos::{Hmos, HmosParams, QuorumRead};
use prasim::mesh::topology::MeshShape;
use prasim::routing::bounds::lower_bounds;
use prasim::routing::flat::route_flat_ctx;
use prasim::routing::greedy::route_greedy_ctx;
use prasim::routing::hierarchical::route_hierarchical_ctx;
use prasim::routing::problem::{RoutingInstance, RoutingOutcome};
use prasim::sortnet::Sorter;
use std::collections::HashMap;
use std::process::ExitCode;

/// Parsed `--key value` arguments plus positional words.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Splits raw arguments into positionals, `--key value` pairs and bare
/// `--switch`es (a `--key` followed by another `--…` or nothing is a
/// switch).
fn parse_args(raw: &[String]) -> Args {
    let mut out = Args::default();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if let Some(key) = a.strip_prefix("--") {
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                out.flags.insert(key.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                out.switches.push(key.to_string());
                i += 1;
            }
        } else {
            out.positional.push(a.clone());
            i += 1;
        }
    }
    out
}

impl Args {
    fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{key} expects a number")))
            })
            .unwrap_or(default)
    }

    fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{key} expects a number")))
            })
            .unwrap_or(default)
    }

    fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(String::as_str).unwrap_or(default)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// `--threads` (default: available parallelism).
    fn threads(&self) -> usize {
        let default = std::thread::available_parallelism().map_or(1, |n| n.get());
        (self.get_u64("threads", default as u64) as usize).max(1)
    }

    /// `--sorter` (default: [`Sorter::default`], columnsort).
    fn sorter(&self) -> Sorter {
        match self.flags.get("sorter") {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die("--sorter expects shearsort|columnsort")),
            None => Sorter::default(),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `prasim help` for usage");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw);
    match args.positional.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args),
        Some("structure") => cmd_structure(&args),
        Some("route") => cmd_route(&args),
        Some("bibd") => cmd_bibd(&args),
        Some("help") | None => {
            println!("{}", HELP);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{HELP}");
            ExitCode::from(2)
        }
    }
}

const HELP: &str = "prasim — constructive deterministic PRAM simulation on a mesh

commands:
  simulate   run PRAM steps and print the measured costs
  structure  print the HMOS structure for a configuration
  route      run one routing algorithm on a generated instance
  bibd       print (or DOT-render) a BIBD subgraph
  help       this text

see the source header of src/bin/prasim.rs for all flags";

fn cmd_simulate(args: &Args) -> ExitCode {
    let n = args.get_u64("n", 1024);
    let memory = args.get_u64("memory", 9000);
    let policy = match args.get_str("policy", "freshest") {
        "freshest" => ReadPolicy::Freshest,
        "quorum" | "majority" => ReadPolicy::HierarchicalMajority,
        other => die(&format!("unknown policy `{other}` (use freshest|quorum)")),
    };
    let sorter = args.sorter();
    let config = SimConfig::new(n, memory)
        .with_q(args.get_u64("q", 3))
        .with_k(args.get_u64("k", 2) as u32)
        .with_culling_slack(args.get_f64("slack", 1.0))
        .with_analytic_sort(args.has("analytic"))
        .with_read_policy(policy)
        .with_sorter(sorter)
        .with_threads(args.threads());
    let mut sim = match PramMeshSim::new(config) {
        Ok(s) => s,
        Err(e) => die(&format!("{e}")),
    };
    let p = sim.hmos().params().clone();
    println!(
        "machine: n = {n}, q = {}, k = {}, redundancy {}, memory {} (α = {:.3}), {} reads, {} sorter",
        p.q,
        p.k,
        p.redundancy(),
        p.num_variables,
        p.alpha(),
        match policy {
            ReadPolicy::Freshest => "freshest",
            ReadPolicy::HierarchicalMajority => "hierarchical-majority",
        },
        sorter
    );
    let steps = args.get_u64("steps", 2);
    let seed = args.get_u64("seed", 42);
    let active = n.min(sim.num_variables());

    // Pre-derive the per-step workloads so copy faults can target the
    // variables the run will actually touch.
    let workloads: Vec<Vec<u64>> = (0..steps)
        .map(|s| match args.get_str("workload", "random") {
            "random" => workload::random_distinct(active, sim.num_variables(), seed + s),
            "adversarial" => workload::multi_module_adversary(sim.hmos(), active, s),
            "strided" => workload::strided(active, sim.num_variables(), 81 + s),
            other => die(&format!("unknown workload `{other}`")),
        })
        .collect();

    let (dead, sever, lossy) = (
        args.get_u64("dead", 0),
        args.get_u64("sever", 0),
        args.get_u64("lossy", 0),
    );
    let (corrupt, freeze) = (args.get_u64("corrupt", 0), args.get_u64("freeze", 0));
    if dead + sever + lossy + corrupt + freeze > 0 {
        let from = args.get_u64("fault-from", 0);
        let fseed = args.get_u64("fault-seed", seed);
        let shape = sim.hmos().shape();
        let mut plan = FaultPlan::new(fseed);
        if dead > 0 {
            plan.random_dead_nodes(shape, dead, from);
        }
        if sever > 0 {
            plan.random_severed_links(shape, sever, from);
        }
        if lossy > 0 {
            plan.random_lossy_links(shape, lossy, 250, from);
        }
        if corrupt + freeze > 0 {
            let mut seen = std::collections::HashSet::new();
            for vars in &workloads {
                for &v in vars {
                    if seen.insert(v) {
                        if corrupt > 0 {
                            plan.fault_variable_copies(
                                sim.hmos(),
                                v,
                                corrupt,
                                CopyFaultKind::Corrupt,
                                from,
                            );
                        }
                        if freeze > 0 {
                            plan.fault_variable_copies(
                                sim.hmos(),
                                v,
                                freeze,
                                CopyFaultKind::Freeze,
                                from,
                            );
                        }
                    }
                }
            }
        }
        println!(
            "faults: {} (seed {fseed}, from step {from})",
            plan.describe()
        );
        sim.set_fault_plan(plan);
    }

    for (s, vars) in workloads.iter().enumerate() {
        let step = if s % 2 == 0 {
            workload::write_step(vars, 1000 * s as u64)
        } else {
            workload::read_step(vars)
        };
        match sim.step(&step) {
            Ok(r) => {
                println!(
                    "step {s}: total {} (culling {}, protocol {}), theorem3 {}, dropped {}",
                    r.total_steps,
                    r.culling.total_steps,
                    r.protocol.total_steps,
                    if r.culling.theorem3_holds() {
                        "ok"
                    } else {
                        "VIOLATED"
                    },
                    r.protocol.dropped
                );
                let (mut clean, mut tainted, mut unrec) = (0u64, 0u64, 0u64);
                for o in r.outcomes.iter().flatten() {
                    match o {
                        QuorumRead::Value { .. } => clean += 1,
                        QuorumRead::Tainted { .. } => tainted += 1,
                        QuorumRead::Unrecoverable => unrec += 1,
                    }
                }
                if clean + tainted + unrec > 0 {
                    println!("  reads: {clean} clean, {tainted} tainted, {unrec} unrecoverable");
                }
                for st in &r.protocol.stages {
                    println!(
                        "  stage {}: sort {} route {} δ {}",
                        st.stage, st.sort_steps, st.route_steps, st.max_node_load
                    );
                }
            }
            Err(e) => die(&format!("{e}")),
        }
    }
    let t = sim.trace_report();
    println!(
        "trace: {} reads ({} correct, {} tainted, {} detected-unrecoverable, {} silent-wrong), \
         {} writes ({} committed) — {}",
        t.reads,
        t.correct_reads,
        t.tainted_reads,
        t.unrecoverable_reads,
        t.silent_wrong_reads,
        t.writes,
        t.committed_writes,
        if t.is_consistent() {
            "consistent EREW execution"
        } else {
            "INCONSISTENT (silent wrong reads)"
        }
    );
    ExitCode::SUCCESS
}

fn cmd_structure(args: &Args) -> ExitCode {
    let n = args.get_u64("n", 1024);
    let d = args.get_u64("d", 5) as u32;
    let q = args.get_u64("q", 3);
    let k = args.get_u64("k", 2) as u32;
    let params = match HmosParams::with_d(q, k, n, d) {
        Ok(p) => p,
        Err(e) => die(&format!("{e}")),
    };
    println!(
        "variables: {} (α = {:.3}), redundancy {}",
        params.num_variables,
        params.alpha(),
        params.redundancy()
    );
    for i in 1..=k {
        println!(
            "level {i}: d_{i} = {}, {} modules, {} pages",
            params.d[i as usize - 1],
            params.modules_at(i),
            params.pages_at(i)
        );
    }
    if !params.crowded_levels().is_empty() {
        println!(
            "crowded levels (pages share nodes): {:?}",
            params.crowded_levels()
        );
    }
    match Hmos::new(params) {
        Ok(h) => {
            for i in (1..=k).rev() {
                let (lo, hi) = h.level_extents(i);
                println!("tessellation level {i}: submeshes of {lo}–{hi} nodes");
            }
            println!("max copies per node: {}", h.max_copies_per_node());
            ExitCode::SUCCESS
        }
        Err(e) => die(&format!("{e}")),
    }
}

fn cmd_route(args: &Args) -> ExitCode {
    let n = args.get_u64("n", 1024);
    let shape = match MeshShape::square_of(n) {
        Some(s) => s,
        None => die("--n must be a perfect square"),
    };
    let mut ctx = ExecCtx::new(args.threads(), args.sorter(), false);
    let l1 = args.get_u64("l1", 1);
    let seed = args.get_u64("seed", 7);
    let inst = RoutingInstance::random(shape, l1, seed);
    let lb = lower_bounds(&inst);
    let outcome: RoutingOutcome =
        match args.get_str("algo", "flat") {
            "greedy" => route_greedy_ctx(&inst, 100_000_000, &mut ctx)
                .unwrap_or_else(|e| die(&format!("{e}"))),
            "flat" => route_flat_ctx(&inst, 100_000_000, &mut ctx)
                .unwrap_or_else(|e| die(&format!("{e}"))),
            "hier" => {
                let parts = args.get_u64("parts", (n / 64).max(2));
                route_hierarchical_ctx(&inst, parts, 100_000_000, &mut ctx)
                    .unwrap_or_else(|e| die(&format!("{e}")))
            }
            other => die(&format!("unknown algorithm `{other}`")),
        };
    println!(
        "routed {} packets (l1 = {}, l2 = {}): {} steps (sort {}, route {})",
        inst.pairs.len(),
        inst.l1(),
        inst.l2(),
        outcome.total_steps,
        outcome.sort_steps,
        outcome.route_steps
    );
    println!(
        "lower bounds: distance {}, receiver {}, bisection {}/{} → best {}",
        lb.distance,
        lb.receiver,
        lb.bisection_v,
        lb.bisection_h,
        lb.best()
    );
    ExitCode::SUCCESS
}

fn cmd_bibd(args: &Args) -> ExitCode {
    let q = args.get_u64("q", 3);
    let d = args.get_u64("d", 2) as u32;
    let bibd = match Bibd::new(q, d) {
        Ok(b) => b,
        Err(e) => die(&format!("{e}")),
    };
    let m = args.get_u64("m", bibd.num_inputs());
    let sg = match BibdSubgraph::from_design(bibd, m) {
        Ok(s) => s,
        Err(e) => die(&format!("{e}")),
    };
    if args.has("dot") {
        println!("graph bibd {{");
        for v in 0..sg.num_inputs() {
            println!("  w{v} [shape=box];");
            for u in sg.neighbors(v) {
                println!("  w{v} -- u{u};");
            }
        }
        println!("}}");
    } else {
        let (lo, hi) = sg.degree_bounds();
        println!(
            "({}^{d}, {q})-BIBD subgraph: {} inputs, {} outputs, output degrees in [{lo}, {hi}]",
            q,
            m,
            sg.num_outputs()
        );
        let st = prasim::bibd::verify::degree_stats(&sg);
        println!(
            "observed degrees: [{}, {}] — Theorem 5 {}",
            st.min,
            st.max,
            if st.balanced() { "holds" } else { "VIOLATED" }
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flags_switches_positionals() {
        let a = args(&["simulate", "--n", "256", "--analytic", "--seed", "9"]);
        assert_eq!(a.positional, vec!["simulate"]);
        assert_eq!(a.get_u64("n", 0), 256);
        assert_eq!(a.get_u64("seed", 0), 9);
        assert!(a.has("analytic"));
        assert_eq!(a.get_u64("missing", 7), 7);
        assert_eq!(a.get_str("algo", "flat"), "flat");
    }

    #[test]
    fn trailing_switch() {
        let a = args(&["bibd", "--dot"]);
        assert!(a.has("dot"));
        assert!(a.flags.is_empty());
    }
}
