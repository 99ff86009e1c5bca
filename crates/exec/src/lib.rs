//! The shared execution-context layer.
//!
//! Every stage of the PRAM simulation — the `k+1` access-protocol
//! stages, CULLING, the CREW/CRCW front-ends, the baselines, the
//! `(l1,l2)`-routing layers and columnsort's permutation measurements —
//! runs packets on the store-and-forward engine and sorts through the
//! pluggable sorter. Before this layer, each of those call sites
//! re-threaded the cross-cutting knobs (`threads`, `sorter`, `analytic`)
//! by hand, rebuilt `Engine`s per stage, re-spawned the sharded engine's
//! worker threads per `run` call, and shared one process-global
//! columnsort route memo.
//!
//! [`ExecCtx`] consolidates that state into one value built per
//! simulation:
//!
//! - a persistent [`WorkerPool`] — threads spawned once and parked
//!   between engine runs (the pool's job protocol preserves the
//!   engine's band/barrier schedule exactly, so results stay
//!   byte-identical for every thread count);
//! - an [`EnginePool`] keyed by submesh shape, so repeated stages reuse
//!   engines and their per-node queue buffers;
//! - the columnsort [`RouteMemo`] and the protocol's scratch arena,
//!   moved off globals so concurrent simulations neither contend nor
//!   cross-pollinate;
//! - a [`CostLedger`] that decides analytic-vs-measured charging in one
//!   place (the only caller of [`SortCost::charged`]).
//!
//! Every knob is explicit: the caller picks the thread count, the
//! sorter and the charging mode in [`ExecCtx::new`] (or takes
//! [`ExecCtx::default`]: one thread, columnsort, measured charging).
//! The context only moves wall clock — simulated results are
//! byte-identical for every thread count and whether or not the pools
//! are reused.

use std::sync::Arc;

use prasim_mesh::engine::Engine;
use prasim_mesh::pool::{EnginePool, WorkerPool};
use prasim_mesh::topology::MeshShape;
use prasim_sortnet::columnsort::RouteMemo;
use prasim_sortnet::shearsort::SortCost;
use prasim_sortnet::sorter::Sorter;

/// The single place analytic-vs-measured cost charging is decided.
///
/// Call sites hand their [`SortCost`] here instead of picking a field
/// with `SortCost::charged(analytic)` themselves: [`CostLedger::value`]
/// converts without recording (for comparisons), [`CostLedger::charge`]
/// converts and accumulates into the running totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostLedger {
    analytic: bool,
    charged_steps: u64,
    charges: u64,
}

impl CostLedger {
    /// A ledger charging measured steps (`analytic = false`) or the
    /// paper's analytic bounds (`analytic = true`).
    pub fn new(analytic: bool) -> Self {
        CostLedger {
            analytic,
            charged_steps: 0,
            charges: 0,
        }
    }

    /// Whether the ledger charges the paper's analytic bounds.
    pub fn analytic(&self) -> bool {
        self.analytic
    }

    /// Switches charging mode (totals keep accumulating).
    pub fn set_analytic(&mut self, analytic: bool) {
        self.analytic = analytic;
    }

    /// The steps this cost is worth under the ledger's mode, without
    /// recording it (e.g. candidate comparison before committing).
    #[inline]
    pub fn value(&self, cost: &SortCost) -> u64 {
        cost.charged(self.analytic)
    }

    /// Records the cost and returns its charged steps.
    #[inline]
    pub fn charge(&mut self, cost: &SortCost) -> u64 {
        let v = self.value(cost);
        self.charged_steps += v;
        self.charges += 1;
        v
    }

    /// Total steps charged so far.
    pub fn charged_steps(&self) -> u64 {
        self.charged_steps
    }

    /// Number of costs recorded so far.
    pub fn charges(&self) -> u64 {
        self.charges
    }
}

/// The per-simulation execution context: worker pool, engine pool,
/// sorter resources, cost ledger and scratch arena, owned together and
/// borrowed (`&mut ExecCtx`) by every execution layer instead of
/// drilling individual knobs.
#[derive(Debug)]
pub struct ExecCtx {
    threads: usize,
    sorter: Sorter,
    pool: Arc<WorkerPool>,
    engines: EnginePool,
    ledger: CostLedger,
    memo: RouteMemo,
    /// Reusable `(key, value)`-pair buffers for the protocol's
    /// gather/scatter staging.
    arena: Vec<Vec<(u32, u32)>>,
}

impl Default for ExecCtx {
    /// One thread, the default sorter, measured charging.
    fn default() -> Self {
        Self::new(1, Sorter::default(), false)
    }
}

impl ExecCtx {
    /// A context with explicit knobs and fresh pools.
    pub fn new(threads: usize, sorter: Sorter, analytic: bool) -> Self {
        ExecCtx {
            threads: threads.max(1),
            sorter,
            pool: Arc::new(WorkerPool::new()),
            engines: EnginePool::new(),
            ledger: CostLedger::new(analytic),
            memo: RouteMemo::new(),
            arena: Vec::new(),
        }
    }

    /// The configured engine worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Reconfigures the worker-thread count for subsequent engines.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured sorter.
    pub fn sorter(&self) -> Sorter {
        self.sorter
    }

    /// Reconfigures the sorter.
    pub fn set_sorter(&mut self, sorter: Sorter) {
        self.sorter = sorter;
    }

    /// The cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The cost ledger, mutably (charge through this).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// The shared worker pool handed to checked-out engines.
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The engine pool (for direct checkout/recycle bookkeeping).
    pub fn engine_pool(&mut self) -> &mut EnginePool {
        &mut self.engines
    }

    /// The columnsort route memo.
    pub fn route_memo(&self) -> &RouteMemo {
        &self.memo
    }

    /// Checks out an engine on `shape`, configured with the context's
    /// thread count and persistent worker pool. Return it with
    /// [`ExecCtx::recycle`] when the stage is done.
    pub fn engine(&mut self, shape: MeshShape) -> Engine {
        let mut engine = self.engines.checkout(shape);
        engine.set_threads(self.threads);
        engine.set_pool(Arc::clone(&self.pool));
        engine
    }

    /// Returns an engine to the context's pool.
    pub fn recycle(&mut self, engine: Engine) {
        self.engines.recycle(engine);
    }

    /// Sorts with the context's sorter and execution resources (the
    /// [`Sorter::sort_with`] contract: snake-indexed buffers, `h` keys
    /// per node). The cost is *returned*, not charged — stages decide
    /// what to charge through [`ExecCtx::ledger_mut`].
    pub fn sort<T: Ord + Copy>(
        &mut self,
        items: &mut [Vec<T>],
        rows: u32,
        cols: u32,
        h: usize,
    ) -> SortCost {
        self.sorter
            .sort_with(items, rows, cols, h, &mut self.engines, &mut self.memo)
    }

    /// Takes the scratch pair-buffer slab out of the context (the
    /// protocol's gather/scatter staging area). Every inner buffer is
    /// empty; capacities are retained from earlier uses. Return the
    /// slab with [`ExecCtx::store_arena`] so the next stage reuses the
    /// allocations instead of growing a fresh slab.
    pub fn take_arena(&mut self) -> Vec<Vec<(u32, u32)>> {
        std::mem::take(&mut self.arena)
    }

    /// Returns the scratch slab to the context, clearing the buffers
    /// (but not their capacity) for the next taker.
    pub fn store_arena(&mut self, mut slab: Vec<Vec<(u32, u32)>>) {
        for buf in &mut slab {
            buf.clear();
        }
        self.arena = slab;
    }

    /// Discards pooled state — engines, memo, arena, worker threads —
    /// so the next use starts cold (the seed's per-step behavior).
    pub fn renew(&mut self) {
        self.engines = EnginePool::new();
        self.memo = RouteMemo::new();
        self.arena = Vec::new();
        // Dropping the old Arc joins its threads once every engine
        // holding a clone is gone; the replacement spawns lazily.
        self.pool = Arc::new(WorkerPool::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_the_charging_authority() {
        let cost = SortCost {
            steps: 120,
            analytic_steps: 48,
            phases: 3,
        };
        let mut measured = CostLedger::new(false);
        assert_eq!(measured.value(&cost), 120);
        assert_eq!(measured.charge(&cost), 120);
        assert_eq!(measured.charged_steps(), 120);
        assert_eq!(measured.charges(), 1);

        let mut analytic = CostLedger::new(true);
        assert_eq!(analytic.charge(&cost), 48);
        assert_eq!(analytic.charge(&cost), 48);
        assert_eq!(analytic.charged_steps(), 96);
        assert_eq!(analytic.charges(), 2);
    }

    #[test]
    fn engines_are_pooled_and_configured() {
        let mut ctx = ExecCtx::new(3, Sorter::Shearsort, false);
        let shape = MeshShape::square(4);
        let a = ctx.engine(shape);
        assert_eq!(a.threads(), 3);
        ctx.recycle(a);
        let b = ctx.engine(shape);
        assert_eq!(ctx.engine_pool().reused(), 1);
        ctx.recycle(b);
    }

    #[test]
    fn sort_uses_context_resources() {
        let mut ctx = ExecCtx::new(1, Sorter::Columnsort, false);
        let mut items: Vec<Vec<u64>> = (0..256u64).rev().map(|x| vec![x]).collect();
        let c1 = ctx.sort(&mut items, 16, 16, 1);
        let flat: Vec<u64> = items.iter().flatten().copied().collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        assert!(!ctx.route_memo().is_empty(), "columnsort fills the memo");
        let mut again: Vec<Vec<u64>> = (0..256u64).rev().map(|x| vec![x]).collect();
        let c2 = ctx.sort(&mut again, 16, 16, 1);
        assert_eq!(c1, c2, "memoized repeat sorts charge identically");
    }

    #[test]
    fn renew_discards_pools() {
        let mut ctx = ExecCtx::new(2, Sorter::Columnsort, false);
        let mut items: Vec<Vec<u64>> = (0..64u64).rev().map(|x| vec![x]).collect();
        ctx.sort(&mut items, 8, 8, 1);
        let e = ctx.engine(MeshShape::square(8));
        ctx.recycle(e);
        assert!(!ctx.route_memo().is_empty());
        ctx.renew();
        assert!(ctx.route_memo().is_empty());
        assert_eq!(ctx.engine_pool().created(), 0);
        assert_eq!(ctx.worker_pool().spawned(), 0);
    }

    #[test]
    fn scratch_arena_round_trips() {
        let mut ctx = ExecCtx::default();
        let mut slab = ctx.take_arena();
        slab.resize_with(4, Vec::new);
        slab[2].extend([(1, 2), (3, 4)]);
        let cap = slab[2].capacity();
        ctx.store_arena(slab);
        let slab2 = ctx.take_arena();
        assert_eq!(slab2.len(), 4);
        assert!(slab2.iter().all(Vec::is_empty));
        assert_eq!(slab2[2].capacity(), cap, "capacity survives the arena");
    }
}
