//! Regression test: the routing layers must run their engines with the
//! configured worker-thread count. The seed built `Engine::new(shape)`
//! inside `route_flat`/`route_hierarchical`, so `--threads` silently
//! fell back to the process default on those paths; with the execution
//! context the route engines come from the context and carry its thread
//! count.

use prasim_exec::ExecCtx;
use prasim_mesh::topology::MeshShape;
use prasim_routing::flat::route_flat_ctx;
use prasim_routing::greedy::route_greedy_ctx;
use prasim_routing::hierarchical::route_hierarchical_ctx;
use prasim_routing::problem::RoutingInstance;
use prasim_routing::{route_flat, route_hierarchical};
use prasim_sortnet::sorter::Sorter;

/// A context whose only engine users are the route phases: shearsort
/// runs no engine, so every pool-thread spawn below is attributable to
/// the routing engines.
fn ctx_with(threads: usize) -> ExecCtx {
    let mut ctx = ExecCtx::new(threads, Sorter::Shearsort, false);
    ctx.set_sorter(Sorter::Shearsort);
    ctx
}

#[test]
fn flat_route_engine_uses_context_threads() {
    let shape = MeshShape::square(8);
    // l1 = 2 so the post-sort positions differ from the destinations and
    // the route phase actually runs the engine (a bare permutation sorts
    // every packet directly onto its destination).
    let inst = RoutingInstance::random(shape, 2, 5);
    let mut ctx = ctx_with(3);
    let out = route_flat_ctx(&inst, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 128);
    // With the seed bug the engine ignored the configured count and the
    // context pool would have spawned nothing (process default is 1).
    assert_eq!(
        ctx.worker_pool().spawned(),
        3,
        "route engine must shard across the context's 3 workers"
    );
}

#[test]
fn greedy_route_engine_uses_context_threads() {
    let inst = RoutingInstance::random(MeshShape::square(8), 2, 5);
    let mut ctx = ctx_with(3);
    let out = route_greedy_ctx(&inst, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 128);
    assert_eq!(ctx.worker_pool().spawned(), 3);
}

#[test]
fn hierarchical_route_engines_use_context_threads() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 2, 77);
    let mut ctx = ctx_with(2);
    let out = route_hierarchical_ctx(&inst, 4, 100_000, &mut ctx).unwrap();
    assert_eq!(out.delivered, 2 * 64 * 2);
    assert_eq!(ctx.worker_pool().spawned(), 2);
}

#[test]
fn context_thread_count_does_not_change_results() {
    let shape = MeshShape::square(8);
    let inst = RoutingInstance::random(shape, 3, 13);
    let base_flat = route_flat(&inst, 100_000).unwrap();
    let base_hier = route_hierarchical(&inst, 4, 100_000).unwrap();
    for threads in [1usize, 2, 3, 7] {
        let mut ctx = ctx_with(threads);
        ctx.set_sorter(Sorter::default());
        let f = route_flat_ctx(&inst, 100_000, &mut ctx).unwrap();
        let h = route_hierarchical_ctx(&inst, 4, 100_000, &mut ctx).unwrap();
        assert_eq!(f, base_flat, "threads = {threads}");
        assert_eq!(h, base_hier, "threads = {threads}");
    }
}
