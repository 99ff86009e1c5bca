//! Segmented ranking of sorted keys.
//!
//! After a sort, packets destined to the same page/submesh occupy a
//! contiguous segment of the snake order; *ranking* assigns each packet
//! its index within its segment (used to spread packets evenly over the
//! processors of the destination submesh, and by CULLING to count copies
//! per page). On a mesh this is a segmented parallel prefix, a standard
//! `O(h·(rows + cols))` pipelined computation; we execute it as a scan
//! and charge exactly that cost (see DESIGN.md §4).

use crate::shearsort::SortCost;

/// Ranks items within groups along the snake order.
///
/// `items` must already be sorted so that equal groups are contiguous
/// (e.g. by [`crate::shearsort::shearsort`] on a key with the group as
/// prefix). Returns per-item ranks (aligned with `items`) and the cost
/// charge.
pub fn rank_sorted<T, G, F>(
    items: &[Vec<T>],
    rows: u32,
    cols: u32,
    mut group_of: F,
) -> (Vec<Vec<u64>>, SortCost)
where
    G: Eq + Copy,
    F: FnMut(&T) -> G,
{
    let h = items.iter().map(|v| v.len()).max().unwrap_or(0);
    let mut ranks: Vec<Vec<u64>> = Vec::with_capacity(items.len());
    let mut current: Option<(G, u64)> = None;
    for buf in items {
        let mut r = Vec::with_capacity(buf.len());
        for item in buf {
            let g = group_of(item);
            let next = match current {
                Some((cg, n)) if cg == g => n + 1,
                _ => 0,
            };
            r.push(next);
            current = Some((g, next));
        }
        ranks.push(r);
    }
    let cost = SortCost {
        steps: 2 * h as u64 * (rows as u64 + cols as u64),
        analytic_steps: 2 * h as u64 * (rows as u64 + cols as u64),
        phases: 0,
    };
    (ranks, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shearsort::shearsort;
    use std::collections::HashMap;

    #[test]
    fn ranks_within_contiguous_groups() {
        // Snake-ordered buffers, groups contiguous.
        let items: Vec<Vec<(u64, u64)>> = vec![
            vec![(0, 10), (0, 11)],
            vec![(0, 12), (1, 20)],
            vec![(1, 21)],
            vec![(2, 30), (2, 31), (2, 32)],
        ];
        let (ranks, _) = rank_sorted(&items, 2, 2, |t| t.0);
        assert_eq!(ranks, vec![vec![0, 1], vec![2, 0], vec![1], vec![0, 1, 2]]);
    }

    #[test]
    fn empty_buffers_ok() {
        let items: Vec<Vec<(u64, u64)>> = vec![vec![], vec![(5, 1)], vec![], vec![(5, 2)]];
        let (ranks, _) = rank_sorted(&items, 2, 2, |t| t.0);
        assert_eq!(ranks, vec![vec![], vec![0], vec![], vec![1]]);
    }

    #[test]
    fn sort_then_rank_pipeline() {
        // The canonical use: sort packets by destination group, then rank.
        let (rows, cols, h) = (4u32, 4u32, 3usize);
        let n = (rows * cols) as usize;
        let mut state = 12345u64;
        let mut items: Vec<Vec<(u64, u64)>> = (0..n)
            .map(|i| {
                (0..h)
                    .map(|j| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((state >> 33) % 5, (i * h + j) as u64)
                    })
                    .collect()
            })
            .collect();
        shearsort(&mut items, rows, cols, h);
        let (ranks, _) = rank_sorted(&items, rows, cols, |t| t.0);
        // Each (group, rank) pair must be unique and dense per group:
        // a group's ranks are exactly 0..size, size counted directly.
        let mut seen: HashMap<u64, Vec<u64>> = HashMap::new();
        for (buf, rbuf) in items.iter().zip(&ranks) {
            for ((g, _), &r) in buf.iter().zip(rbuf) {
                seen.entry(*g).or_default().push(r);
            }
        }
        for (g, mut rs) in seen {
            rs.sort_unstable();
            let expect: Vec<u64> = (0..rs.len() as u64).collect();
            assert_eq!(rs, expect, "group {g} ranks not dense");
        }
    }
}
