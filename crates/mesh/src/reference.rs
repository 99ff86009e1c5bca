//! The legacy packet engine, kept as a differential-testing oracle.
//!
//! [`ReferenceEngine`] is the pre-arena storage layout frozen in place:
//! one heap `Vec<Flight>` per node, whole [`Packet`]s carried in every
//! queue entry, fresh scratch vectors per step. It is sequential only:
//! the arena engine's sharded path is pinned to the arena engine's own
//! sequential path by the `parallel_equivalence` suite, so one
//! sequential oracle covers every thread count. It shares no storage code with [`crate::engine::Engine`]; the
//! routing policy (greedy XY within bounds, farthest-first link
//! arbitration, fault detours, the deterministic lossy-link hash) is
//! deliberately *duplicated*, not imported, so a storage bug in the
//! arena engine cannot silently cancel out in both implementations.
//!
//! Two consumers:
//!
//! - the `arena_engine_matches_reference` proptest in
//!   `tests/exec_context.rs` byte-diffs every observable (stats,
//!   delivered order, traces, fault drops) of the arena engine at
//!   several thread counts against this oracle over random meshes and
//!   fault plans;
//! - the T19 throughput table measures both engines sequentially on
//!   identical workloads, so `BENCH_engine.json`
//!   records the speedup of the struct-of-arrays layout over this
//!   baseline rather than over a number that no longer exists in the
//!   tree.
//!
//! Nothing outside tests and benches should use this type.

use crate::engine::{EngineError, EngineStats, Packet};
use crate::fault::FaultMask;
use crate::topology::{Coord, Dir, MeshShape};
use crate::trace::LinkTrace;

/// A resident packet plus its fault-detour bookkeeping (legacy layout:
/// the whole packet rides in the queue entry).
#[derive(Debug, Clone, Copy)]
struct Flight {
    pkt: Packet,
    detours: u32,
    budget: u32,
    last_dir: Option<Dir>,
}

/// Read-only per-step context.
#[derive(Clone, Copy)]
struct StepCtx<'a> {
    shape: MeshShape,
    faults: Option<&'a FaultMask>,
    step: u64,
}

impl StepCtx<'_> {
    /// Greedy XY next direction: fix the column first, then the row.
    fn next_dir(cur: Coord, dest: Coord) -> Option<Dir> {
        if cur.c < dest.c {
            Some(Dir::East)
        } else if cur.c > dest.c {
            Some(Dir::West)
        } else if cur.r < dest.r {
            Some(Dir::South)
        } else if cur.r > dest.r {
            Some(Dir::North)
        } else {
            None
        }
    }

    /// The direction a packet leaves `here` by plus the detour flag;
    /// `None` drops the packet (see the arena engine for commentary).
    fn choose_dir(&self, here: Coord, fl: &Flight) -> Option<(Dir, bool)> {
        let greedy = Self::next_dir(here, fl.pkt.dest)
            .expect("resident packet at destination should have been absorbed");
        let mask = match self.faults {
            Some(m) if !m.is_empty() => m,
            _ => return Some((greedy, false)),
        };
        let idx = self.shape.index(here);
        let dist = here.manhattan(fl.pkt.dest);
        let mut order: [Option<Dir>; 4] = [Some(greedy), None, None, None];
        let mut n = 1;
        for improving_pass in [true, false] {
            for d in Dir::ALL {
                if d == greedy {
                    continue;
                }
                let improves = self
                    .shape
                    .step(here, d)
                    .is_some_and(|c| c.manhattan(fl.pkt.dest) < dist);
                if improves == improving_pass {
                    order[n] = Some(d);
                    n += 1;
                }
            }
        }
        let usable = |dir: Dir| -> Option<(Dir, bool)> {
            let next = self.shape.step(here, dir)?;
            if !fl.pkt.bounds.contains(next) {
                return None;
            }
            if mask.link_severed(idx, dir) {
                return None;
            }
            if mask.node_dead(self.shape.index(next)) && next != fl.pkt.dest {
                return None;
            }
            let improves = next.manhattan(fl.pkt.dest) < dist;
            if !improves && fl.detours >= fl.budget {
                return None;
            }
            Some((dir, !improves))
        };
        let reverse = fl.last_dir.map(Dir::opposite);
        if let Some(choice) = order
            .into_iter()
            .flatten()
            .filter(|d| Some(*d) != reverse)
            .find_map(usable)
        {
            return Some(choice);
        }
        reverse.and_then(usable)
    }
}

/// One step's output: the moves in source-node order plus the stats
/// deltas folded into [`EngineStats`].
#[derive(Default)]
struct StepScratch {
    moves: Vec<(u32, Flight)>,
    hops: u64,
    dropped: u64,
    delivered: Vec<(u32, Packet)>,
}

/// The compute half of a step (legacy storage walk: winner pick per
/// node, `swap_remove` of movers, fresh `stuck`/`removals` vectors).
fn compute(
    ctx: &StepCtx<'_>,
    queues: &mut [Vec<Flight>],
    mut trace: Option<&mut [[u64; 4]]>,
    out: &mut StepScratch,
) {
    for (local, queue) in queues.iter_mut().enumerate() {
        if queue.is_empty() {
            continue;
        }
        let idx = local as u32;
        let here = ctx.shape.coord(idx);
        let mut best: [Option<(u32, u64, usize, bool)>; 4] = [None; 4]; // (dist, id, pos, detour)
        let mut stuck: Vec<usize> = Vec::new();
        for (pos, fl) in queue.iter().enumerate() {
            match ctx.choose_dir(here, fl) {
                Some((dir, detour)) => {
                    let d = dir.index();
                    let dist = here.manhattan(fl.pkt.dest);
                    let better = match best[d] {
                        None => true,
                        Some((bd, bid, _, _)) => dist > bd || (dist == bd && fl.pkt.id < bid),
                    };
                    if better {
                        best[d] = Some((dist, fl.pkt.id, pos, detour));
                    }
                }
                None => stuck.push(pos),
            }
        }
        let mut removals: Vec<(usize, Option<(Dir, bool)>)> =
            stuck.into_iter().map(|p| (p, None)).collect();
        for (d, slot) in best.iter().enumerate() {
            if let Some((_, _, pos, detour)) = *slot {
                removals.push((pos, Some((Dir::ALL[d], detour))));
            }
        }
        removals.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        for (pos, action) in removals {
            let mut fl = queue.swap_remove(pos);
            let Some((dir, detour)) = action else {
                out.dropped += 1;
                continue;
            };
            if let Some(counts) = trace.as_deref_mut() {
                counts[local][dir.index()] += 1;
            }
            out.hops += 1;
            let lost = ctx
                .faults
                .is_some_and(|m| m.traversal_lost(ctx.step, idx, dir, fl.pkt.id));
            if lost {
                out.dropped += 1;
                continue;
            }
            if detour {
                fl.detours += 1;
            }
            fl.last_dir = Some(dir);
            let next = ctx
                .shape
                .step(here, dir)
                .expect("XY routing within bounds cannot leave the mesh");
            let next_idx = ctx.shape.index(next);
            out.moves.push((next_idx, fl));
        }
    }
}

/// Absorbs every packet that sits at its destination (and drops
/// anything resident on a dead node), in ascending node order.
fn absorb(
    shape: MeshShape,
    faults: Option<&FaultMask>,
    queues: &mut [Vec<Flight>],
    out: &mut StepScratch,
) {
    for (local, queue) in queues.iter_mut().enumerate() {
        let idx = local as u32;
        let here = shape.coord(idx);
        let dead_here = faults.is_some_and(|m| m.node_dead(idx));
        let mut i = 0;
        while i < queue.len() {
            if dead_here {
                queue.swap_remove(i);
                out.dropped += 1;
            } else if queue[i].pkt.dest == here {
                let fl = queue.swap_remove(i);
                out.delivered.push((idx, fl.pkt));
            } else {
                i += 1;
            }
        }
    }
}

/// The legacy array-of-structs engine, sequential only. Same observable
/// contract as [`crate::engine::Engine`] at every thread count; see the
/// module docs for why it is kept.
#[derive(Debug)]
pub struct ReferenceEngine {
    shape: MeshShape,
    resident: Vec<Vec<Flight>>,
    delivered: Vec<(u32, Packet)>,
    in_flight: u64,
    stats: EngineStats,
    trace: Option<LinkTrace>,
    faults: Option<FaultMask>,
}

impl ReferenceEngine {
    /// An empty legacy engine on the given mesh.
    pub fn new(shape: MeshShape) -> Self {
        ReferenceEngine {
            resident: vec![Vec::new(); shape.nodes() as usize],
            delivered: Vec::new(),
            in_flight: 0,
            shape,
            stats: EngineStats::default(),
            trace: None,
            faults: None,
        }
    }

    /// Enables per-link traversal tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(LinkTrace::new(self.shape));
        self
    }

    /// Returns the engine to its post-[`ReferenceEngine::new`] state
    /// while keeping queue capacity (the legacy `Engine::reset`), so
    /// throughput comparisons can reuse one engine on both sides.
    pub fn reset(&mut self) {
        for q in &mut self.resident {
            q.clear();
        }
        self.delivered.clear();
        self.in_flight = 0;
        self.stats = EngineStats::default();
        self.trace = None;
        self.faults = None;
    }

    /// Installs a fault mask; must precede injection.
    pub fn with_faults(mut self, mask: FaultMask) -> Self {
        debug_assert_eq!(mask.shape(), self.shape, "fault mask shape mismatch");
        self.faults = Some(mask);
        self
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&LinkTrace> {
        self.trace.as_ref()
    }

    /// The mesh shape.
    #[inline]
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Places a packet at `src` (same contract as
    /// [`crate::engine::Engine::inject`]).
    pub fn inject(&mut self, src: Coord, pkt: Packet) {
        debug_assert!(pkt.bounds.contains(src), "source outside bounds");
        debug_assert!(pkt.bounds.contains(pkt.dest), "destination outside bounds");
        if let Some(mask) = &self.faults {
            if mask.node_dead(self.shape.index(src)) || mask.node_dead(self.shape.index(pkt.dest)) {
                self.stats.dropped += 1;
                return;
            }
        }
        let budget = 2 * (pkt.bounds.rows + pkt.bounds.cols) + 8;
        self.in_flight += 1;
        self.resident[self.shape.index(src) as usize].push(Flight {
            pkt,
            detours: 0,
            budget,
            last_dir: None,
        });
    }

    /// Packets not yet delivered.
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Stats accumulated so far.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Drains and returns the delivered packets.
    pub fn take_delivered(&mut self) -> Vec<(u32, Packet)> {
        std::mem::take(&mut self.delivered)
    }

    /// Runs until every packet is delivered or the budget is exhausted.
    pub fn run(&mut self, max_steps: u64) -> Result<EngineStats, EngineError> {
        self.absorb_arrivals();
        while self.in_flight > 0 {
            if self.stats.steps >= max_steps {
                return Err(EngineError::StepBudgetExceeded {
                    max_steps,
                    in_flight: self.in_flight,
                });
            }
            self.step();
        }
        Ok(self.stats)
    }

    /// Absorbs arrivals over the whole mesh and folds the drop/delivery
    /// deltas into the engine counters.
    fn absorb_arrivals(&mut self) {
        let mut out = StepScratch::default();
        absorb(
            self.shape,
            self.faults.as_ref(),
            &mut self.resident,
            &mut out,
        );
        self.in_flight -= out.dropped + out.delivered.len() as u64;
        self.stats.dropped += out.dropped;
        self.stats.delivered += out.delivered.len() as u64;
        self.delivered.append(&mut out.delivered);
    }

    /// One synchronous step.
    fn step(&mut self) {
        let ctx = StepCtx {
            shape: self.shape,
            faults: self.faults.as_ref(),
            step: self.stats.steps,
        };
        let mut out = StepScratch::default();
        compute(
            &ctx,
            &mut self.resident,
            self.trace.as_mut().map(LinkTrace::counts_mut),
            &mut out,
        );
        self.stats.total_hops += out.hops;
        self.stats.dropped += out.dropped;
        self.in_flight -= out.dropped;
        for (node, fl) in out.moves {
            self.resident[node as usize].push(fl);
        }
        self.stats.steps += 1;
        for q in &self.resident {
            self.stats.max_queue = self.stats.max_queue.max(q.len());
        }
        self.absorb_arrivals();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Rect;

    fn permutation_workload(shape: MeshShape) -> Vec<(Coord, Packet)> {
        let b = Rect::full(shape);
        let mut id = 0u64;
        let mut out = Vec::new();
        for r in 0..shape.rows {
            for c in 0..shape.cols {
                out.push((
                    Coord::new(r, c),
                    Packet {
                        id,
                        dest: Coord::new(c, r),
                        bounds: b,
                        tag: id,
                    },
                ));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn reference_routes_a_permutation() {
        let shape = MeshShape::square(8);
        let mut e = ReferenceEngine::new(shape);
        for (src, pkt) in permutation_workload(shape) {
            e.inject(src, pkt);
        }
        let stats = e.run(10_000).unwrap();
        assert_eq!(stats.delivered, 64);
        assert_eq!(e.take_delivered().len(), 64);
    }
}
