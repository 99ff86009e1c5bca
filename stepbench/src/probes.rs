//! Standalone probes of the sort and engine layers, with inputs built
//! from the workload seed. Cold calls run on fresh state (a new
//! `ExecCtx` or `Engine`); warm calls reuse state a previous call built,
//! so work moved between warm-up and steady state shows.

use std::time::Instant;

use prasim::exec::ExecCtx;
use prasim::mesh::engine::{Engine, EngineStats, Packet};
use prasim::mesh::region::Rect;
use prasim::mesh::topology::Coord;
use prasim::routing::problem::SplitMix64;
use prasim::sortnet::snake::snake_index;
use prasim::sortnet::sorter::Sorter;

use crate::{fault_plan, median, metric, mix, params, shape, Metric, Workload, N};

const COLD_REPS: usize = 3;
const WARM_REPS: usize = 7;

pub struct Probes {
    pub metrics: Vec<Metric>,
    /// Probe outputs that were wrong (unsorted keys, lost packets).
    pub violations: u64,
}

/// Copies each processor sends per request: a minimal target set after
/// CULLING, all `q^k` copies under quorum reads.
fn copies(w: &Workload) -> usize {
    let p = params();
    match w.faults {
        false => p.majority().pow(p.k) as usize,
        true => p.redundancy() as usize,
    }
}

/// The CULLING sort's input: every node holds `h` `(page, processor,
/// leaf)` keys, pages drawn from the level-1 page range.
fn sort_input(seed: u64, h: usize) -> Vec<Vec<(u32, u32, u16)>> {
    let p = params();
    let pages = p.pages_at(1);
    let s = shape();
    let mut rng = SplitMix64(mix(seed ^ 0x50_27));
    let mut items = vec![Vec::new(); N as usize];
    for proc in 0..N as u32 {
        let c = s.coord(proc);
        let pos = snake_index(s.cols, c.r, c.c) as usize;
        for leaf in 0..h as u16 {
            items[pos].push((rng.below(pages) as u32, proc, leaf));
        }
    }
    items
}

fn timed_sort(ctx: &mut ExecCtx, input: &[Vec<(u32, u32, u16)>], h: usize) -> (f64, bool) {
    let mut items = input.to_vec();
    let s = shape();
    let t = Instant::now();
    ctx.sort(&mut items, s.rows, s.cols, h);
    let dt = t.elapsed().as_secs_f64();
    let flat: Vec<_> = items.iter().flatten().collect();
    let ok = flat.len() == N as usize * h && flat.windows(2).all(|p| p[0] <= p[1]);
    (dt, ok)
}

/// A full-mesh instance shaped like stage `k+1`: `h` packets per node,
/// seeded uniform destinations anywhere on the mesh.
fn route_input(seed: u64, h: usize) -> Vec<(Coord, Packet)> {
    let s = shape();
    let full = Rect::full(s);
    let mut rng = SplitMix64(mix(seed ^ 0xE4_61));
    (0..N as u32 * h as u32)
        .map(|id| {
            let src = s.coord(id / h as u32);
            let dest = s.coord(rng.below(N) as u32);
            let pkt = Packet {
                id: id as u64,
                dest,
                bounds: full,
                tag: id as u64,
            };
            (src, pkt)
        })
        .collect()
}

fn timed_run(engine: &mut Engine, input: &[(Coord, Packet)]) -> Result<(f64, EngineStats), String> {
    engine.reserve(input.len());
    let t = Instant::now();
    for &(src, pkt) in input {
        engine.inject(src, pkt);
    }
    let stats = engine.run(100_000_000).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), stats))
}

/// Median time of `WARM_REPS` runs on pooled engines of `ctx`, after one
/// untimed warm-up run. A run that loses a packet it cannot account for
/// as dropped counts as a violation.
fn warm_runs(
    ctx: &mut ExecCtx,
    input: &[(Coord, Packet)],
    faulty: bool,
    violations: &mut u64,
) -> Result<(f64, EngineStats), String> {
    let mask = faulty.then(|| fault_plan(0).mask_at(shape(), 1));
    let mut times = Vec::new();
    let mut last = EngineStats::default();
    for rep in 0..=WARM_REPS {
        let mut engine = match &mask {
            Some(m) => ctx.engine(shape()).with_faults(m.clone()),
            None => ctx.engine(shape()),
        };
        let (dt, stats) = timed_run(&mut engine, input)?;
        engine.drain_delivered().for_each(drop);
        ctx.recycle(engine);
        let lost = input.len() as u64 - stats.delivered;
        if (faulty && lost != stats.dropped) || (!faulty && lost != 0) {
            *violations += 1;
        }
        if rep > 0 {
            times.push(dt);
        }
        last = stats;
    }
    Ok((median(&times), last))
}

pub fn run(w: &Workload, seed: u64, nproc: usize) -> Result<Probes, String> {
    let h = copies(w);
    let mut violations = 0;
    let fresh = |threads| ExecCtx::new(threads, Sorter::Columnsort, false);

    let input = sort_input(seed, h);
    let mut cold = Vec::new();
    for _ in 0..COLD_REPS {
        let (dt, ok) = timed_sort(&mut fresh(1), &input, h);
        violations += u64::from(!ok);
        cold.push(dt);
    }
    let mut ctx = fresh(1);
    let mut warm = Vec::new();
    for rep in 0..=WARM_REPS {
        let (dt, ok) = timed_sort(&mut ctx, &input, h);
        violations += u64::from(!ok);
        if rep > 0 {
            warm.push(dt);
        }
    }
    let sort_s = median(&warm);

    let input = route_input(seed, h);
    let mut cold_run = Vec::new();
    for _ in 0..COLD_REPS {
        let mut engine = Engine::new(shape()).with_threads(1);
        let (dt, stats) = timed_run(&mut engine, &input)?;
        violations += u64::from(stats.delivered != input.len() as u64);
        cold_run.push(dt);
    }
    let (run_s, stats) = warm_runs(&mut fresh(1), &input, false, &mut violations)?;
    let (run_faulty_s, _) = warm_runs(&mut fresh(1), &input, true, &mut violations)?;
    let (run_par_s, _) = warm_runs(&mut fresh(nproc), &input, false, &mut violations)?;

    println!(
        "probes: sort {} keys ({h} per node) on a 64x64 mesh; route {} packets, {} hops, {} steps; \
         {COLD_REPS} cold and {WARM_REPS} warm reps each",
        N as usize * h,
        input.len(),
        stats.total_hops,
        stats.steps,
    );
    let metrics = vec![
        metric("sortnet.sort_s", "s", sort_s),
        metric("sortnet.sort_cold_s", "s", median(&cold)),
        metric(
            "sortnet.keys_per_s",
            "keys/s",
            (N as usize * h) as f64 / sort_s,
        ),
        metric("mesh.run_s", "s", run_s),
        metric("mesh.run_cold_s", "s", median(&cold_run)),
        metric("mesh.run_faulty_s", "s", run_faulty_s),
        metric("mesh.run_par_s", "s", run_par_s),
        metric("mesh.hops_per_s", "hops/s", stats.total_hops as f64 / run_s),
    ];
    Ok(Probes {
        metrics,
        violations,
    })
}
