//! Baseline shared-memory schemes the paper positions itself against.
//!
//! 1. [`SingleCopySim`] — the no-replication scheme (one fixed home per
//!    variable). Fast on uniform loads, Θ(n) on the trivial worst case
//!    where all requests target one module (Section 1's motivation).
//! 2. [`MehlhornVishkinSim`] — the \[MV84\] multi-copy scheme: `c`
//!    copies, *read one* (least-loaded), *write all*. Reads are cheap in
//!    the worst case, writes degrade to all-copies traffic.
//! 3. [`FlatHmosSim`] — ablation: the same HMOS replication and target
//!    sets, but no CULLING and a single flat routing instead of the
//!    staged protocol. Isolates the contribution of the hierarchy.
//!
//! All baselines run on the same packet engine and report comparable
//! simulated step counts (sort + route + access + charged return).

use crate::pram::{Op, PramStep};
use crate::sim::SimError;
use prasim_exec::ExecCtx;
use prasim_hmos::{CopyAddr, Hmos, HmosParams, TargetSpec};
use prasim_mesh::engine::{EngineError, Packet};
use prasim_mesh::region::Rect;
use prasim_mesh::topology::{Coord, MeshShape};
use prasim_routing::problem::SplitMix64;
use prasim_sortnet::snake::{snake_coord, snake_index};
use prasim_sortnet::sorter::Sorter;
use std::collections::HashMap;

/// What a baseline measures for one PRAM step.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Sorting steps charged.
    pub sort_steps: u64,
    /// Packet-routing steps.
    pub route_steps: u64,
    /// Destination service steps (max packets per node).
    pub access_steps: u64,
    /// Charged return trip (= route steps).
    pub return_steps: u64,
    /// Grand total.
    pub total_steps: u64,
    /// Per-processor read results.
    pub reads: Vec<Option<u64>>,
}

/// A uniform interface over the baselines (used by the comparison
/// benches).
pub trait BaselineScheme {
    /// Human-readable scheme name.
    fn name(&self) -> &'static str;
    /// Simulates one PRAM step.
    fn step(&mut self, step: &PramStep) -> Result<BaselineReport, SimError>;
}

/// Sort-then-greedy delivery of `(src, dest, pkt)` requests; returns the
/// cost pieces and, per packet, the node it was delivered to.
fn route_packets(
    shape: MeshShape,
    pkts: &[(u32, u32)],
    max_steps: u64,
    ctx: &mut ExecCtx,
) -> Result<(u64, u64, u64, usize), EngineError> {
    let n = shape.nodes() as usize;
    let h = pkts
        .iter()
        .fold(vec![0usize; n], |mut acc, &(s, _)| {
            acc[s as usize] += 1;
            acc
        })
        .into_iter()
        .max()
        .unwrap_or(0)
        .max(1);
    let mut items: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for (i, &(s, d)) in pkts.iter().enumerate() {
        let sc = shape.coord(s);
        let pos = snake_index(shape.cols, sc.r, sc.c) as usize;
        let dc = shape.coord(d);
        items[pos].push((snake_index(shape.cols, dc.r, dc.c) as u64, i as u64));
    }
    let cost = ctx.sort(&mut items, shape.rows, shape.cols, h);
    let mut engine = ctx.engine(shape);
    let bounds = Rect::full(shape);
    for (pos, buf) in items.iter().enumerate() {
        let (r, c) = snake_coord(shape.cols, pos as u32);
        for &(_, idx) in buf {
            engine.inject(
                Coord { r, c },
                Packet {
                    id: idx,
                    dest: shape.coord(pkts[idx as usize].1),
                    bounds,
                    tag: idx,
                },
            );
        }
    }
    let stats = engine.run(max_steps)?;
    let mut per_node: HashMap<u32, u64> = HashMap::new();
    for (node, pkt) in engine.drain_delivered() {
        debug_assert_eq!(node, pkts[pkt.tag as usize].1);
        *per_node.entry(node).or_insert(0) += 1;
    }
    ctx.recycle(engine);
    let access = per_node.values().copied().max().unwrap_or(0);
    Ok((cost.steps, stats.steps, access, stats.max_queue))
}

// ---------------------------------------------------------------------
// 1. Single copy.
// ---------------------------------------------------------------------

/// One copy per variable at node `var mod n`.
#[derive(Debug)]
pub struct SingleCopySim {
    shape: MeshShape,
    num_variables: u64,
    memory: Vec<HashMap<u64, u64>>,
    max_engine_steps: u64,
    exec: ExecCtx,
}

impl SingleCopySim {
    /// Builds the scheme on an `n`-node mesh with the given memory size.
    pub fn new(n: u64, num_variables: u64) -> Option<Self> {
        let shape = MeshShape::square_of(n)?;
        Some(SingleCopySim {
            shape,
            num_variables,
            memory: vec![HashMap::new(); n as usize],
            max_engine_steps: 100_000_000,
            exec: ExecCtx::default(),
        })
    }

    /// Selects the mesh sorter of the pre-routing sort (configures the
    /// scheme's execution context).
    pub fn with_sorter(mut self, sorter: Sorter) -> Self {
        self.exec.set_sorter(sorter);
        self
    }

    /// Sets the engine worker-thread count (configures the scheme's
    /// execution context; results never depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec.set_threads(threads);
        self
    }

    /// The home node of a variable.
    #[inline]
    pub fn home(&self, var: u64) -> u32 {
        (var % self.shape.nodes()) as u32
    }
}

impl BaselineScheme for SingleCopySim {
    fn name(&self) -> &'static str {
        "single-copy"
    }

    fn step(&mut self, step: &PramStep) -> Result<BaselineReport, SimError> {
        step.validate(self.num_variables)
            .map_err(|var| SimError::InvalidStep { var })?;
        let pkts: Vec<(u32, u32)> = step
            .ops
            .iter()
            .enumerate()
            .filter_map(|(p, op)| op.map(|o| (p as u32, self.home(o.var()))))
            .collect();
        let (sort_steps, route_steps, access_steps, _q) =
            route_packets(self.shape, &pkts, self.max_engine_steps, &mut self.exec)?;
        let mut reads = vec![None; step.ops.len()];
        for (p, op) in step.ops.iter().enumerate() {
            match op {
                Some(Op::Read { var }) => {
                    let node = self.home(*var) as usize;
                    reads[p] = Some(self.memory[node].get(var).copied().unwrap_or(0));
                }
                Some(Op::Write { var, value }) => {
                    let node = self.home(*var) as usize;
                    self.memory[node].insert(*var, *value);
                }
                None => {}
            }
        }
        Ok(BaselineReport {
            sort_steps,
            route_steps,
            access_steps,
            return_steps: route_steps,
            total_steps: sort_steps + 2 * route_steps + access_steps,
            reads,
        })
    }
}

// ---------------------------------------------------------------------
// 2. Mehlhorn–Vishkin: c copies, read-one / write-all.
// ---------------------------------------------------------------------

/// The \[MV84\] scheme with `c` hashed copies per variable.
#[derive(Debug)]
pub struct MehlhornVishkinSim {
    shape: MeshShape,
    num_variables: u64,
    c: u32,
    memory: Vec<HashMap<u64, u64>>,
    max_engine_steps: u64,
    exec: ExecCtx,
}

impl MehlhornVishkinSim {
    /// Builds the scheme with redundancy `c ≥ 1`.
    pub fn new(n: u64, num_variables: u64, c: u32) -> Option<Self> {
        let shape = MeshShape::square_of(n)?;
        assert!(c >= 1);
        Some(MehlhornVishkinSim {
            shape,
            num_variables,
            c,
            memory: vec![HashMap::new(); n as usize],
            max_engine_steps: 100_000_000,
            exec: ExecCtx::default(),
        })
    }

    /// Selects the mesh sorter of the pre-routing sort (configures the
    /// scheme's execution context).
    pub fn with_sorter(mut self, sorter: Sorter) -> Self {
        self.exec.set_sorter(sorter);
        self
    }

    /// Sets the engine worker-thread count (configures the scheme's
    /// execution context; results never depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec.set_threads(threads);
        self
    }

    /// The `j`-th copy home of a variable (deterministic mix).
    pub fn home(&self, var: u64, j: u32) -> u32 {
        let mut rng = SplitMix64(var.wrapping_mul(self.c as u64).wrapping_add(j as u64));
        (rng.next_u64() % self.shape.nodes()) as u32
    }
}

impl BaselineScheme for MehlhornVishkinSim {
    fn name(&self) -> &'static str {
        "mehlhorn-vishkin"
    }

    fn step(&mut self, step: &PramStep) -> Result<BaselineReport, SimError> {
        step.validate(self.num_variables)
            .map_err(|var| SimError::InvalidStep { var })?;
        // Reads pick the least-loaded copy (greedy, processed in
        // processor order — a centralized stand-in for MV's protocol);
        // writes go to all c copies.
        let mut load: HashMap<u32, u64> = HashMap::new();
        let mut pkts: Vec<(u32, u32)> = Vec::new();
        for (p, op) in step.ops.iter().enumerate() {
            match op {
                Some(Op::Read { var }) => {
                    let dest = (0..self.c)
                        .map(|j| self.home(*var, j))
                        .min_by_key(|d| (load.get(d).copied().unwrap_or(0), *d))
                        .expect("c >= 1");
                    *load.entry(dest).or_insert(0) += 1;
                    pkts.push((p as u32, dest));
                }
                Some(Op::Write { var, .. }) => {
                    for j in 0..self.c {
                        let dest = self.home(*var, j);
                        *load.entry(dest).or_insert(0) += 1;
                        pkts.push((p as u32, dest));
                    }
                }
                None => {}
            }
        }
        let (sort_steps, route_steps, access_steps, _q) =
            route_packets(self.shape, &pkts, self.max_engine_steps, &mut self.exec)?;
        let mut reads = vec![None; step.ops.len()];
        for (p, op) in step.ops.iter().enumerate() {
            match op {
                Some(Op::Read { var }) => {
                    // All copies agree (write-all), read copy 0's node.
                    let node = self.home(*var, 0) as usize;
                    reads[p] = Some(self.memory[node].get(var).copied().unwrap_or(0));
                }
                Some(Op::Write { var, value }) => {
                    for j in 0..self.c {
                        let node = self.home(*var, j) as usize;
                        self.memory[node].insert(*var, *value);
                    }
                }
                None => {}
            }
        }
        Ok(BaselineReport {
            sort_steps,
            route_steps,
            access_steps,
            return_steps: route_steps,
            total_steps: sort_steps + 2 * route_steps + access_steps,
            reads,
        })
    }
}

// ---------------------------------------------------------------------
// 3. Flat HMOS (ablation: no culling, no staged routing).
// ---------------------------------------------------------------------

/// The HMOS replication with fixed (hash-chosen) minimal target sets,
/// routed by one flat sort-then-greedy phase.
#[derive(Debug)]
pub struct FlatHmosSim {
    hmos: Hmos,
    spec: TargetSpec,
    memory: Vec<HashMap<u64, (u64, u64)>>,
    clock: u64,
    max_engine_steps: u64,
    exec: ExecCtx,
}

impl FlatHmosSim {
    /// Builds the scheme with the same parameters as the full simulator.
    pub fn new(q: u64, k: u32, n: u64, memory_size: u64) -> Result<Self, SimError> {
        let params = HmosParams::new(q, k, n, memory_size)?;
        let spec = TargetSpec {
            q: params.q,
            k: params.k,
        };
        let hmos = Hmos::new(params)?;
        Ok(FlatHmosSim {
            memory: vec![HashMap::new(); n as usize],
            hmos,
            spec,
            clock: 0,
            max_engine_steps: 100_000_000,
            exec: ExecCtx::default(),
        })
    }

    /// Selects the mesh sorter of the pre-routing sort (configures the
    /// scheme's execution context).
    pub fn with_sorter(mut self, sorter: Sorter) -> Self {
        self.exec.set_sorter(sorter);
        self
    }

    /// Sets the engine worker-thread count (configures the scheme's
    /// execution context; results never depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec.set_threads(threads);
        self
    }

    /// Number of addressable variables.
    pub fn num_variables(&self) -> u64 {
        self.hmos.num_variables()
    }

    fn fixed_target_set(&self, var: u64) -> Vec<u64> {
        let mut rng = SplitMix64(var.wrapping_mul(0xD1B54A32D192ED03));
        let prefs: Vec<u64> = (0..self.spec.num_leaves())
            .map(|_| rng.next_u64() >> 8)
            .collect();
        self.spec
            .extract_minimal(self.spec.k, |_| true, |l| prefs[l as usize])
            .expect("full tree always has a target set")
    }
}

impl BaselineScheme for FlatHmosSim {
    fn name(&self) -> &'static str {
        "flat-hmos"
    }

    fn step(&mut self, step: &PramStep) -> Result<BaselineReport, SimError> {
        step.validate(self.num_variables())
            .map_err(|var| SimError::InvalidStep { var })?;
        let shape = self.hmos.shape();
        self.clock += 1;
        // One packet per target-set copy, flat-routed.
        let mut pkts: Vec<(u32, u32)> = Vec::new();
        let mut cells: Vec<(usize, u32, u64)> = Vec::new(); // (proc, node, slot)
        for (p, op) in step.ops.iter().enumerate() {
            if let Some(op) = op {
                for leaf in self.fixed_target_set(op.var()) {
                    let addr = CopyAddr::from_leaf_index(op.var(), self.spec.q, self.spec.k, leaf);
                    let rc = self.hmos.resolve(&addr);
                    let node = shape.index(rc.node);
                    pkts.push((p as u32, node));
                    cells.push((p, node, rc.slot));
                }
            }
        }
        let (sort_steps, route_steps, access_steps, _q) =
            route_packets(shape, &pkts, self.max_engine_steps, &mut self.exec)?;
        let mut best: Vec<Option<(u64, u64)>> = vec![None; step.ops.len()];
        for &(p, node, slot) in &cells {
            match step.ops[p] {
                Some(Op::Read { .. }) => {
                    let (value, ts) = self.memory[node as usize]
                        .get(&slot)
                        .copied()
                        .unwrap_or((0, 0));
                    if best[p].is_none_or(|(bts, _)| ts > bts) {
                        best[p] = Some((ts, value));
                    }
                }
                Some(Op::Write { value, .. }) => {
                    self.memory[node as usize].insert(slot, (value, self.clock));
                }
                None => unreachable!(),
            }
        }
        let reads = best
            .into_iter()
            .zip(&step.ops)
            .map(|(b, op)| match op {
                Some(Op::Read { .. }) => Some(b.map_or(0, |(_, v)| v)),
                _ => None,
            })
            .collect();
        Ok(BaselineReport {
            sort_steps,
            route_steps,
            access_steps,
            return_steps: route_steps,
            total_steps: sort_steps + 2 * route_steps + access_steps,
            reads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn single_copy_roundtrip() {
        let mut s = SingleCopySim::new(256, 10_000).unwrap();
        let vars = workload::random_distinct(256, 10_000, 3);
        s.step(&PramStep::writes(&vars, &vars)).unwrap();
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        for (p, &v) in vars.iter().enumerate() {
            assert_eq!(r.reads[p], Some(v));
        }
    }

    #[test]
    fn single_copy_worst_case_serializes() {
        // All requests to variables with the same home: access time Θ(n).
        let mut s = SingleCopySim::new(256, 100_000).unwrap();
        let vars: Vec<u64> = (0..256u64).map(|i| i * 256).collect(); // all home 0
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        assert_eq!(r.access_steps, 256);
        // Uniform load for contrast.
        let uniform = workload::random_distinct(256, 100_000, 9);
        let ru = s.step(&PramStep::reads(&uniform)).unwrap();
        assert!(ru.access_steps * 8 < r.access_steps);
    }

    #[test]
    fn mv_roundtrip_and_write_amplification() {
        let mut s = MehlhornVishkinSim::new(256, 10_000, 3).unwrap();
        let vars = workload::random_distinct(256, 10_000, 5);
        let w = s.step(&PramStep::writes(&vars, &vars)).unwrap();
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        for (p, &v) in vars.iter().enumerate() {
            assert_eq!(r.reads[p], Some(v));
        }
        // Writes move c× the packets of reads.
        assert!(w.route_steps + w.access_steps >= r.route_steps.max(r.access_steps));
    }

    #[test]
    fn flat_hmos_roundtrip() {
        let mut s = FlatHmosSim::new(3, 2, 1024, 1000).unwrap();
        let vars = workload::random_distinct(512, s.num_variables(), 7);
        s.step(&PramStep::writes(&vars, &vars)).unwrap();
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        for (p, &v) in vars.iter().enumerate() {
            assert_eq!(r.reads[p], Some(v));
        }
    }

    #[test]
    fn flat_hmos_consistent_across_target_sets() {
        // The fixed target sets still satisfy the intersection property,
        // so overwrites are visible.
        let mut s = FlatHmosSim::new(3, 2, 1024, 1000).unwrap();
        s.step(&PramStep::writes(&[42], &[1])).unwrap();
        s.step(&PramStep::writes(&[42], &[2])).unwrap();
        let r = s.step(&PramStep::reads(&[42])).unwrap();
        assert_eq!(r.reads[0], Some(2));
    }
}
