//! Sort-then-route `(l1, l2)`-routing — the Theorem 2 primitive.
//!
//! \[SK93\] achieve `√(l1·l2·n) + O(l1·√n)` steps. We realize the same
//! shape with the standard deterministic strategy: sort all packets into
//! snake order by destination (spreading them evenly over the mesh and
//! making destination neighborhoods contiguous), then greedy-route. The
//! sort prevents the pathological source/destination concentrations that
//! hurt plain greedy routing.

use crate::problem::{RoutingInstance, RoutingOutcome};
use prasim_exec::ExecCtx;
use prasim_mesh::engine::{EngineError, Packet};
use prasim_mesh::region::Rect;
use prasim_mesh::topology::Coord;
use prasim_sortnet::snake::{snake_coord, snake_index};

/// Routes an `(l1, l2)` instance by sorting by destination and then
/// greedy-routing from the balanced post-sort positions, using a
/// default execution context ([`ExecCtx::default`]).
pub fn route_flat(inst: &RoutingInstance, max_steps: u64) -> Result<RoutingOutcome, EngineError> {
    route_flat_ctx(inst, max_steps, &mut ExecCtx::default())
}

/// [`route_flat`] on a caller-owned execution context: the sort runs
/// with the context's sorter and resources, and the route engine comes
/// from the context's pool — configured with the context's thread count
/// (previously this path built `Engine::new(shape)` directly and
/// silently ignored the configured thread count).
pub fn route_flat_ctx(
    inst: &RoutingInstance,
    max_steps: u64,
    ctx: &mut ExecCtx,
) -> Result<RoutingOutcome, EngineError> {
    let shape = inst.shape;
    let n = shape.nodes() as usize;
    let h = (inst.pairs.len().div_ceil(n.max(1)))
        .max(inst.l1() as usize)
        .max(1);

    // Snake-indexed per-node buffers of (dest snake key, packet index).
    let mut items: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for (i, &(s, d)) in inst.pairs.iter().enumerate() {
        let sc = shape.coord(s);
        let pos = snake_index(shape.cols, sc.r, sc.c) as usize;
        let dc = shape.coord(d);
        let key = snake_index(shape.cols, dc.r, dc.c) as u64;
        items[pos].push((key, i as u64));
    }

    let mut out = RoutingOutcome::default();
    let cost = ctx.sort(&mut items, shape.rows, shape.cols, h);
    out.add_sort(cost.steps);

    // Greedy route from post-sort positions.
    let mut engine = ctx.engine(shape);
    engine.reserve(inst.pairs.len());
    let bounds = Rect::full(shape);
    for (pos, buf) in items.iter().enumerate() {
        let (r, c) = snake_coord(shape.cols, pos as u32);
        for &(_, idx) in buf {
            engine.inject(
                Coord { r, c },
                Packet {
                    id: idx,
                    dest: shape.coord(inst.pairs[idx as usize].1),
                    bounds,
                    tag: idx,
                },
            );
        }
    }
    let stats = engine.run(max_steps)?;
    out.add_route(stats);
    debug_assert!(crate::greedy::verify_delivery(inst, &mut engine));
    ctx.recycle(engine);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::route_greedy;
    use prasim_mesh::topology::MeshShape;

    #[test]
    fn flat_routes_permutation() {
        let shape = MeshShape::square(8);
        let inst = RoutingInstance::permutation(shape, 3);
        let out = route_flat(&inst, 100_000).unwrap();
        assert_eq!(out.delivered, 64);
        assert!(out.sort_steps > 0);
    }

    #[test]
    fn flat_routes_random_multi() {
        let shape = MeshShape::square(8);
        for l1 in [1u64, 2, 4] {
            let inst = RoutingInstance::random(shape, l1, 17 + l1);
            let out = route_flat(&inst, 100_000).unwrap();
            assert_eq!(out.delivered, 64 * l1);
        }
    }

    #[test]
    fn flat_beats_greedy_on_all_to_one_route_phase() {
        // All packets to one corner. The sort spreads packets so the
        // route phase pipelines into the corner instead of colliding from
        // two sides; total still Θ(n) (that is inherent: l2 = n), but
        // the route phase must not exceed greedy's.
        let shape = MeshShape::square(16);
        let pairs: Vec<(u32, u32)> = (0..256).map(|s| (s, 0)).collect();
        let inst = RoutingInstance { shape, pairs };
        let flat = route_flat(&inst, 1_000_000).unwrap();
        let greedy = route_greedy(&inst, 1_000_000).unwrap();
        assert_eq!(flat.delivered, 256);
        assert!(
            flat.route_steps <= greedy.route_steps + 32,
            "flat {} vs greedy {}",
            flat.route_steps,
            greedy.route_steps
        );
    }

    #[test]
    fn flat_handles_empty_instance() {
        let shape = MeshShape::square(4);
        let inst = RoutingInstance {
            shape,
            pairs: vec![],
        };
        let out = route_flat(&inst, 1000).unwrap();
        assert_eq!(out.delivered, 0);
    }
}
