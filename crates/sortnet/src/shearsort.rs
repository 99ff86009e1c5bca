//! Merge-split shearsort of `h` keys per node on a `rows × cols` grid.
//!
//! Each node holds up to `h` keys. A *merge-split* between two adjacent
//! nodes merges their (individually sorted) buffers and hands the lower
//! half to the node earlier in the line — the standard block
//! generalization of a compare-exchange, costing `h` communication steps
//! (the buffers cross the link one key per step, both directions in
//! parallel). Odd-even transposition with merge-split sorts a line of `L`
//! blocks in `L` rounds; shearsort interleaves row passes (ascending in
//! snake position, which realizes the alternating row directions) and
//! column passes for `⌈log₂ rows⌉ + 1` phases.
//!
//! # How a pass is computed on the host
//!
//! A pass is *charged* as `L` merge-split rounds (`L·h` steps) but
//! *computed* as one stable sort per line. All keys live in one flat
//! buffer of `nodes·h` slots, node `p` owning `p·h..(p+1)·h`; a row is a
//! contiguous slice and is sorted in place, a column is gathered top to
//! bottom, sorted and scattered back. The two agree exactly: `L` rounds
//! of odd-even merge-split sort a line of `L` pre-sorted blocks
//! (Baudet–Stevenson), and every merge-split is a stable merge of
//! adjacent blocks, so equal keys never cross and the pass yields
//! precisely the stable sort of the line. Buffers, per-node fill and the
//! phase count are therefore those of the round-by-round network.
//! The passes run over any such buffer: [`shearsort`] packs its per-node
//! `Vec`s into one, and columnsort runs them in place on each block of
//! its matrix, whose slots already have this layout.
//!
//! The paper charges `O(l₁√n)` for sorting, citing Kunde-style
//! algorithms; shearsort is `O(l·√n·log n)` — the substitution and its
//! (non-)impact on the reproduced claims are discussed in DESIGN.md §4.
//! [`SortCost`] carries both the measured shearsort steps and the
//! analytic Kunde-style charge so experiments can report either.

use crate::snake::snake_index;

/// Communication-cost account of a sorting/ranking operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortCost {
    /// Simulated communication steps of the implemented algorithm
    /// (merge-split shearsort).
    pub steps: u64,
    /// The paper's analytic charge for the same operation,
    /// `l · (rows + cols)` — the Kunde/KSS94 bound shape with constant 1.
    pub analytic_steps: u64,
    /// Shearsort phases actually executed.
    pub phases: u32,
}

impl SortCost {
    /// Accumulates another cost into this one (sequential composition).
    pub fn add(&mut self, other: SortCost) {
        self.steps += other.steps;
        self.analytic_steps += other.analytic_steps;
        self.phases += other.phases;
    }

    /// The steps to charge: measured shearsort steps, or the paper's
    /// analytic `l·(rows+cols)` when `analytic` is set (the
    /// "analytic cost mode" of DESIGN.md §4).
    #[inline]
    pub fn charged(&self, analytic: bool) -> u64 {
        if analytic {
            self.analytic_steps
        } else {
            self.steps
        }
    }
}

/// A key padded with `+∞`: `Val(x) < PosInf`. Empty slots of a node's
/// `h`-slot buffer hold `PosInf`, so they sort after every real key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Key<T> {
    Val(T),
    PosInf,
}

/// Sorts `h`-key-per-node buffers into snake order.
///
/// `items` is indexed by snake position (`items.len() == rows·cols`);
/// every buffer may hold up to `h` keys. On return the concatenation of
/// the buffers in snake order is sorted, keys are balanced `h` per node
/// (the trailing nodes hold the remainder), and the cost is returned.
///
/// # Panics
/// Panics if any buffer exceeds `h` keys or `items.len() != rows·cols`.
pub fn shearsort<T: Ord + Copy>(items: &mut [Vec<T>], rows: u32, cols: u32, h: usize) -> SortCost {
    assert_eq!(items.len(), (rows as u64 * cols as u64) as usize);
    assert!(h >= 1);
    let mut buf: Vec<Key<T>> = vec![Key::PosInf; items.len() * h];
    for (node, v) in buf.chunks_exact_mut(h).zip(items.iter()) {
        assert!(v.len() <= h, "buffer exceeds h = {h}");
        for (slot, &x) in node.iter_mut().zip(v) {
            *slot = Key::Val(x);
        }
    }
    let cost = shear_passes(&mut buf, rows, cols, h);
    for (slot, node) in items.iter_mut().zip(buf.chunks_exact(h)) {
        slot.clear();
        slot.extend(node.iter().map_while(|k| match *k {
            Key::Val(x) => Some(x),
            Key::PosInf => None,
        }));
    }
    cost
}

/// Shearsort over a flat snake-indexed buffer of `rows·cols·h` slots,
/// node `p` owning `buf[p·h..(p+1)·h]`. On return `buf` is sorted. The
/// first row pass stably sorts every row, so a node's keys need no local
/// sort beforehand: sorting them first would leave the same buffer.
pub(crate) fn shear_passes<K: Ord + Copy>(
    buf: &mut [K],
    rows: u32,
    cols: u32,
    h: usize,
) -> SortCost {
    debug_assert_eq!(buf.len(), rows as usize * cols as usize * h);
    let mut cost = SortCost {
        steps: 0,
        analytic_steps: h as u64 * (rows as u64 + cols as u64),
        phases: 0,
    };

    let max_phases = rows.max(2).ilog2() + 2 + rows; // theory bound + safety margin
    let mut column: Vec<K> = Vec::with_capacity(rows as usize * h);
    loop {
        // Row pass: each row is a contiguous ascending chunk in snake
        // indexing. All rows run in parallel -> charge one line sort.
        for row in buf.chunks_exact_mut(cols as usize * h) {
            row.sort();
        }
        cost.steps += cols as u64 * h as u64;
        cost.phases += 1;
        if buf.is_sorted() {
            break;
        }
        // Column pass: gather top to bottom, sort, scatter back.
        for c in 0..cols {
            column.clear();
            for r in 0..rows {
                let p = snake_index(cols, r, c) as usize * h;
                column.extend_from_slice(&buf[p..p + h]);
            }
            column.sort();
            for (r, keys) in (0..rows).zip(column.chunks_exact(h)) {
                let p = snake_index(cols, r, c) as usize * h;
                buf[p..p + h].copy_from_slice(keys);
            }
        }
        cost.steps += rows as u64 * h as u64;
        assert!(
            cost.phases < max_phases,
            "shearsort failed to converge in {max_phases} phases"
        );
    }
    cost
}

/// The round-by-round merge-split network the flat passes replace, kept
/// as the differential oracle for [`shearsort`].
#[cfg(test)]
mod oracle {
    use super::SortCost;
    use crate::snake::snake_index;

    /// `None` sorts after every `Some` (acts as +infinity padding).
    fn cmp_opt_key<T: Ord>(a: &Option<T>, b: &Option<T>) -> std::cmp::Ordering {
        match (a, b) {
            (Some(x), Some(y)) => x.cmp(y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        }
    }

    /// [`super::shearsort`] computed with `L` explicit merge-split
    /// rounds per line over per-node `Vec`s.
    pub fn shearsort<T: Ord + Copy>(
        items: &mut [Vec<T>],
        rows: u32,
        cols: u32,
        h: usize,
    ) -> SortCost {
        let mut buf: Vec<Vec<Option<T>>> = items
            .iter()
            .map(|v| {
                let mut b: Vec<Option<T>> = v.iter().copied().map(Some).collect();
                b.sort_unstable_by(cmp_opt_key);
                b.resize(h, None);
                b
            })
            .collect();
        let mut cost = SortCost {
            steps: 0,
            analytic_steps: h as u64 * (rows as u64 + cols as u64),
            phases: 0,
        };
        let mut scratch = Vec::with_capacity(2 * h);
        let mut col: Vec<Vec<Option<T>>> = Vec::with_capacity(rows as usize);
        loop {
            for row in buf.chunks_exact_mut(cols as usize) {
                odd_even_line(row, h, &mut scratch);
            }
            cost.steps += cols as u64 * h as u64;
            cost.phases += 1;
            if is_sorted(&buf) {
                break;
            }
            for c in 0..cols {
                let ps: Vec<usize> = (0..rows)
                    .map(|r| snake_index(cols, r, c) as usize)
                    .collect();
                col.clear();
                col.extend(ps.iter().map(|&p| std::mem::take(&mut buf[p])));
                odd_even_line(&mut col, h, &mut scratch);
                for (&p, v) in ps.iter().zip(col.drain(..)) {
                    buf[p] = v;
                }
            }
            cost.steps += rows as u64 * h as u64;
        }
        for (slot, b) in items.iter_mut().zip(buf) {
            slot.clear();
            slot.extend(b.into_iter().flatten());
        }
        cost
    }

    /// Odd-even transposition with merge-split: `L` rounds over a line
    /// of `L` pre-sorted blocks.
    fn odd_even_line<T: Ord + Copy>(
        line: &mut [Vec<Option<T>>],
        h: usize,
        scratch: &mut Vec<Option<T>>,
    ) {
        let n = line.len();
        for round in 0..n {
            let mut i = round % 2;
            while i + 1 < n {
                merge_split(line, i, h, scratch);
                i += 2;
            }
        }
    }

    /// Stable merge of blocks `lo` and `lo + 1`; the lower `h` keys stay
    /// in `lo`, the rest go to `lo + 1`.
    fn merge_split<T: Ord + Copy>(
        line: &mut [Vec<Option<T>>],
        lo: usize,
        h: usize,
        merged: &mut Vec<Option<T>>,
    ) {
        merged.clear();
        {
            let (a, b) = (&line[lo], &line[lo + 1]);
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                if cmp_opt_key(&a[i], &b[j]).is_le() {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
        }
        let split = merged.len().min(h);
        line[lo].clear();
        line[lo].extend_from_slice(&merged[..split]);
        line[lo + 1].clear();
        line[lo + 1].extend_from_slice(&merged[split..]);
    }

    fn is_sorted<T: Ord>(buf: &[Vec<Option<T>>]) -> bool {
        buf.iter()
            .flatten()
            .is_sorted_by(|a, b| cmp_opt_key(a, b).is_le())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A key whose order ignores its payload, so equal keys are
    /// distinguishable and any reordering of ties shows.
    #[derive(Debug, Clone, Copy)]
    struct Tagged {
        key: u8,
        payload: u32,
    }

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Tagged {}
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    fn exact(items: &[Vec<Tagged>]) -> Vec<Vec<(u8, u32)>> {
        items
            .iter()
            .map(|v| v.iter().map(|t| (t.key, t.payload)).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat passes reproduce the round-by-round merge-split
        /// network exactly: per-node buffers (payloads included, so tie
        /// order counts), per-node fill and the whole `SortCost`.
        #[test]
        fn flat_passes_match_merge_split_oracle(
            shape in (1u32..12, 1u32..12, 1usize..10),
            full in any::<bool>(),
            key_range in 1u8..=255,
            seed in any::<u64>(),
        ) {
            let (rows, cols, h) = shape;
            let mut state = seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut payload = 0u32;
            let items: Vec<Vec<Tagged>> = (0..rows * cols)
                .map(|_| {
                    let fill = if full { h } else { next() as usize % (h + 1) };
                    (0..fill)
                        .map(|_| {
                            payload += 1;
                            Tagged { key: (next() % key_range as u64) as u8, payload }
                        })
                        .collect()
                })
                .collect();
            let mut flat = items.clone();
            let mut rounds = items;
            let got = shearsort(&mut flat, rows, cols, h);
            let want = oracle::shearsort(&mut rounds, rows, cols, h);
            prop_assert_eq!(got, want);
            prop_assert_eq!(exact(&flat), exact(&rounds));
        }
    }

    fn flatten<T: Copy>(items: &[Vec<T>]) -> Vec<T> {
        items.iter().flat_map(|v| v.iter().copied()).collect()
    }

    fn check_sorted(items: &[Vec<u64>], original: &mut Vec<u64>) {
        let mut got = flatten(items);
        assert!(got.windows(2).all(|w| w[0] <= w[1]), "not sorted: {got:?}");
        original.sort_unstable();
        got.sort_unstable();
        assert_eq!(&got, original, "keys lost or invented");
    }

    fn lcg_fill(n: usize, h: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                (0..h)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 33
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sorts_single_key_grids() {
        for (rows, cols) in [(1u32, 1u32), (1, 8), (8, 1), (4, 4), (8, 8), (5, 7)] {
            let mut items = lcg_fill((rows * cols) as usize, 1, 42);
            let mut orig = flatten(&items);
            shearsort(&mut items, rows, cols, 1);
            check_sorted(&items, &mut orig);
        }
    }

    #[test]
    fn sorts_multi_key_grids() {
        for (rows, cols, h) in [(4u32, 4u32, 3usize), (8, 8, 4), (3, 5, 7), (16, 16, 2)] {
            let mut items = lcg_fill((rows * cols) as usize, h, 7 + rows as u64);
            let mut orig = flatten(&items);
            shearsort(&mut items, rows, cols, h);
            check_sorted(&items, &mut orig);
            // Balanced h keys per node except the tail.
            let total: usize = items.iter().map(|v| v.len()).sum();
            let full = total / h;
            for (i, v) in items.iter().enumerate() {
                if i < full {
                    assert_eq!(v.len(), h, "node {i} not full");
                }
            }
        }
    }

    #[test]
    fn sorts_uneven_buffers() {
        // Buffers of varying fill (0..=h keys).
        let (rows, cols, h) = (4u32, 6u32, 5usize);
        let mut items: Vec<Vec<u64>> = lcg_fill((rows * cols) as usize, h, 99)
            .into_iter()
            .enumerate()
            .map(|(i, mut v)| {
                v.truncate(i % (h + 1));
                v
            })
            .collect();
        let mut orig = flatten(&items);
        shearsort(&mut items, rows, cols, h);
        check_sorted(&items, &mut orig);
    }

    #[test]
    fn sorts_adversarial_patterns() {
        let (rows, cols) = (8u32, 8u32);
        let n = (rows * cols) as usize;
        // Reverse order.
        let mut rev: Vec<Vec<u64>> = (0..n).map(|i| vec![(n - i) as u64]).collect();
        let mut orig = flatten(&rev);
        shearsort(&mut rev, rows, cols, 1);
        check_sorted(&rev, &mut orig);
        // All equal.
        let mut eq: Vec<Vec<u64>> = (0..n).map(|_| vec![5u64, 5]).collect();
        let mut orig = flatten(&eq);
        shearsort(&mut eq, rows, cols, 2);
        check_sorted(&eq, &mut orig);
        // Column-major worst case for row/column sorters.
        let mut cm: Vec<Vec<u64>> = (0..n).map(|i| vec![((i % 8) * 8 + i / 8) as u64]).collect();
        let mut orig = flatten(&cm);
        shearsort(&mut cm, rows, cols, 1);
        check_sorted(&cm, &mut orig);
    }

    #[test]
    fn cost_scales_with_grid_and_load() {
        let (rows, cols) = (8u32, 8u32);
        let mut a = lcg_fill(64, 1, 1);
        let c1 = shearsort(&mut a, rows, cols, 1);
        let mut b = lcg_fill(64, 4, 1);
        let c4 = shearsort(&mut b, rows, cols, 4);
        // 4x the keys per node ⇒ ~4x the steps (same number of rounds).
        assert!(c4.steps >= 3 * c1.steps, "c1={c1:?} c4={c4:?}");
        assert_eq!(c1.analytic_steps, 16);
        assert_eq!(c4.analytic_steps, 64);
    }

    #[test]
    fn phase_bound_respected() {
        // Shearsort theory: ⌈log2 rows⌉ + 1 phases suffice; allow the
        // safety margin but verify we are in the right ballpark.
        for side in [4u32, 8, 16, 32] {
            let mut items = lcg_fill((side * side) as usize, 2, side as u64);
            let cost = shearsort(&mut items, side, side, 2);
            assert!(
                cost.phases <= side.ilog2() + 2,
                "side={side}: {} phases",
                cost.phases
            );
        }
    }
}
