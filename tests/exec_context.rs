//! Execution-context equivalence and isolation.
//!
//! The tentpole guarantee of the `prasim-exec` layer: a long-lived
//! [`ExecCtx`] — persistent worker pool, recycled engines, warm route
//! memo, reused scratch arenas — is a pure wall-clock optimization.
//! Every observable of a simulation step (reads, outcomes, culling and
//! protocol step counts, trace reports) must be byte-identical to a run
//! that rebuilds the whole context from scratch at every step boundary,
//! at every worker-thread count, with and without injected faults.
//!
//! Contexts must also be isolated: two simulations running concurrently
//! on separate OS threads with different sorters and mesh shapes own
//! separate route memos and engine pools, so neither contends with nor
//! cross-pollinates the other.

use prasim::core::{Op, PramMeshSim, PramStep, SimConfig};
use prasim::fault::FaultPlan;
use prasim::mesh::engine::{Engine, Packet};
use prasim::mesh::reference::ReferenceEngine;
use prasim::mesh::region::Rect;
use prasim::mesh::topology::MeshShape;
use prasim::sortnet::Sorter;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ProgramSpec {
    steps: Vec<Vec<(u64, Option<u64>)>>, // (var, Some(value)=write / None=read)
}

fn program(num_vars: u64, max_steps: usize, max_ops: usize) -> impl Strategy<Value = ProgramSpec> {
    let step = prop::collection::vec(
        (0..num_vars, prop::option::of(0u64..1_000_000)),
        1..=max_ops,
    );
    prop::collection::vec(step, 1..=max_steps).prop_map(|steps| ProgramSpec { steps })
}

/// Lowers a program spec onto a `n`-processor machine: one op per
/// processor, duplicate variables dropped, deterministic scatter.
fn lower(spec: &ProgramSpec, n: usize) -> Vec<PramStep> {
    spec.steps
        .iter()
        .map(|raw| {
            let mut seen = std::collections::HashSet::new();
            let mut step = PramStep { ops: vec![None; n] };
            for (i, &(var, write)) in raw.iter().filter(|(v, _)| seen.insert(*v)).enumerate() {
                let p = (i * 37 + 11) % n;
                step.ops[p] = Some(match write {
                    Some(value) => Op::Write { var, value },
                    None => Op::Read { var },
                });
            }
            step
        })
        .collect()
}

/// Runs `steps` and returns a byte-exact transcript of everything a
/// step observes: the full debug rendering of each report plus the
/// final trace report.
fn transcript(sim: &mut PramMeshSim, steps: &[PramStep], fresh_per_step: bool) -> Vec<String> {
    let mut out = Vec::new();
    for step in steps {
        if fresh_per_step {
            // The seed's behavior: every step rebuilds its worker pool,
            // engines, memo, and arenas from nothing.
            sim.exec().renew();
        }
        let report = sim.step(step).unwrap();
        out.push(format!("{report:?}"));
    }
    out.push(format!("{:?}", sim.trace_report()));
    out
}

fn config(n: u64, threads: usize) -> SimConfig {
    SimConfig::new(n, 117).with_threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reused context ≡ fresh context, across thread counts and shapes.
    #[test]
    fn reused_context_is_byte_identical(
        spec in program(117, 4, 48),
        threads in prop::sample::select(&[1usize, 2, 3, 7]),
        n in prop::sample::select(&[256u64, 1024]),
    ) {
        let steps = lower(&spec, n as usize);
        let mut reused = PramMeshSim::new(config(n, threads)).unwrap();
        let mut fresh = PramMeshSim::new(config(n, threads)).unwrap();
        let a = transcript(&mut reused, &steps, false);
        let b = transcript(&mut fresh, &steps, true);
        prop_assert_eq!(a, b);
    }

    /// Same equivalence under an active fault plan.
    #[test]
    fn reused_context_is_byte_identical_under_faults(
        spec in program(117, 3, 32),
        threads in prop::sample::select(&[1usize, 2, 7]),
    ) {
        let steps = lower(&spec, 256);
        let build = || {
            let mut sim = PramMeshSim::new(config(256, threads)).unwrap();
            let shape = sim.hmos().shape();
            let mut plan = FaultPlan::new(0xEC5);
            plan.random_dead_nodes(shape, 6, 0);
            sim.set_fault_plan(plan);
            sim
        };
        let a = transcript(&mut build(), &steps, false);
        let b = transcript(&mut build(), &steps, true);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Arena engine vs the frozen legacy engine.
// ---------------------------------------------------------------------

/// Byte-exact transcript of everything an engine run observes: run
/// outcome (stats or budget error), every delivered packet in delivery
/// order, the remaining in-flight count, and the full link trace.
fn engine_transcript(
    outcome: &Result<prasim::mesh::engine::EngineStats, prasim::mesh::engine::EngineError>,
    delivered: &[(u32, Packet)],
    in_flight: u64,
    trace: Option<&prasim::mesh::trace::LinkTrace>,
) -> String {
    format!("outcome={outcome:?} delivered={delivered:?} in_flight={in_flight} trace={trace:?}")
}

/// A deterministic packet workload over a random mesh: `count` packets,
/// sources and destinations drawn from the whole mesh (self-addressed
/// packets included — they exercise the absorb-at-injection path).
fn engine_workload(shape: MeshShape, pairs: &[(u32, u32)]) -> Vec<(u32, Packet)> {
    let bounds = Rect::full(shape);
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| {
            let n = shape.nodes() as u32;
            (
                s % n,
                Packet {
                    id: i as u64,
                    dest: shape.coord(d % n),
                    bounds,
                    tag: i as u64,
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The struct-of-arrays engine, at every worker-thread count, and
    /// the frozen sequential pre-arena [`ReferenceEngine`] must agree on
    /// every observable — stats, delivered order, traces, fault drops —
    /// over random meshes and fault plans. The two implementations
    /// share no storage code, so agreement here pins the arena layout
    /// to the legacy semantics bit for bit.
    #[test]
    fn arena_engine_matches_reference(
        rows in 2u32..9,
        cols in 2u32..9,
        pairs in prop::collection::vec((0u32..64, 0u32..64), 1..96),
        threads in prop::sample::select(&[1usize, 2, 3, 7]),
        faults in prop::option::of((0u64..3, 0u64..3, 0u64..3, 0u64..1024)),
        budget in prop::sample::select(&[4u64, 10_000]),
    ) {
        let shape = MeshShape { rows, cols };
        let mask = faults.map(|(dead, severed, lossy, seed)| {
            let mut plan = FaultPlan::new(seed);
            plan.random_dead_nodes(shape, dead, 0);
            plan.random_severed_links(shape, severed, 0);
            plan.random_lossy_links(shape, lossy, 400, 0);
            plan.mask_at(shape, 0)
        });
        let w = engine_workload(shape, &pairs);

        let mut arena = Engine::new(shape).with_threads(threads).with_trace();
        let mut legacy = ReferenceEngine::new(shape).with_trace();
        if let Some(m) = &mask {
            arena = arena.with_faults(m.clone());
            legacy = legacy.with_faults(m.clone());
        }
        for &(src, pkt) in &w {
            arena.inject(shape.coord(src), pkt);
            legacy.inject(shape.coord(src), pkt);
        }
        let a_out = arena.run(budget);
        let l_out = legacy.run(budget);
        let a = engine_transcript(&a_out, &arena.take_delivered(), arena.in_flight(), arena.trace());
        let l = engine_transcript(&l_out, &legacy.take_delivered(), legacy.in_flight(), legacy.trace());
        prop_assert_eq!(a, l);
    }
}

/// One fixed workload per (n, sorter), returning the transcript.
fn run_workload(n: u64, sorter: Sorter) -> Vec<String> {
    let mut sim = PramMeshSim::new(SimConfig::new(n, 200).with_sorter(sorter)).unwrap();
    let vars: Vec<u64> = (0..150).map(|i| (i * 7 + 3) % 200).collect();
    let mut seen = std::collections::HashSet::new();
    let vars: Vec<u64> = vars.into_iter().filter(|v| seen.insert(*v)).collect();
    let values: Vec<u64> = vars.iter().map(|v| v * 13 + 1).collect();
    let mut out = Vec::new();
    out.push(format!(
        "{:?}",
        sim.step(&PramStep::writes(&vars, &values)).unwrap()
    ));
    out.push(format!("{:?}", sim.step(&PramStep::reads(&vars)).unwrap()));
    out.push(format!("{:?}", sim.trace_report()));
    out
}

/// Two simulations on separate OS threads — different sorters, different
/// mesh shapes, each with its own context — must produce exactly what
/// they produce when run alone. A shared/global route memo or engine
/// pool would either contend (deadlock, poisoned locks) or
/// cross-pollinate (one sorter's permutation measurements leaking into
/// the other's cost model); per-context state shows neither.
#[test]
fn concurrent_simulations_do_not_share_context_state() {
    let solo_a = run_workload(1024, Sorter::Columnsort);
    let solo_b = run_workload(256, Sorter::Shearsort);

    for _ in 0..3 {
        let ta = std::thread::spawn(|| run_workload(1024, Sorter::Columnsort));
        let tb = std::thread::spawn(|| run_workload(256, Sorter::Shearsort));
        let a = ta.join().expect("columnsort sim panicked");
        let b = tb.join().expect("shearsort sim panicked");
        assert_eq!(a, solo_a, "concurrent run changed the columnsort sim");
        assert_eq!(b, solo_b, "concurrent run changed the shearsort sim");
    }
}
