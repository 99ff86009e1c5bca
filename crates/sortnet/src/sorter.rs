//! The pluggable mesh-sorter layer.
//!
//! Every hot path of the simulation — the access protocol, CULLING,
//! CREW/CRCW combining, and both routing layers — sorts through this
//! dispatch point. Two step-simulated sorters are available:
//!
//! - [`Sorter::Shearsort`] — merge-split shearsort,
//!   `O(l·√n·log n)` (the historical default; kept for comparison and
//!   as the T17 baseline).
//! - [`Sorter::Columnsort`] — the step-simulated Leighton columnsort of
//!   [`crate::columnsort::columnsort_mesh_with`], in the `O(l·√n)` class
//!   the paper's accounting assumes. **The default.** Its block sorts
//!   run shearsort's passes in place.
//!
//! [`Sorter::sort`] is the one standalone entry point: it supplies a
//! throwaway engine pool and route memo, which an execution context
//! otherwise owns and passes to [`Sorter::sort_with`].
//!
//! There is no process-wide override: callers pick a sorter per run
//! (`SimConfig::with_sorter`, `ExecCtx::new`) and get
//! [`Sorter::default`] otherwise.

use prasim_mesh::pool::EnginePool;

use crate::columnsort::{columnsort_mesh_with, RouteMemo};
use crate::shearsort::{shearsort, SortCost};

/// Selects the step-simulated sorting algorithm used by the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Sorter {
    /// Merge-split shearsort — `O(l·√n·log n)`.
    Shearsort,
    /// Step-simulated Leighton columnsort — `O(l·√n)`.
    #[default]
    Columnsort,
}

impl Sorter {
    /// Every sorter, in display order.
    pub const ALL: [Sorter; 2] = [Sorter::Shearsort, Sorter::Columnsort];

    /// Sorts snake-indexed `h`-key-per-node buffers on a `rows × cols`
    /// submesh (the [`crate::shearsort::shearsort`] contract) with the
    /// selected algorithm, returning its measured cost.
    pub fn sort<T: Ord + Copy>(
        self,
        items: &mut [Vec<T>],
        rows: u32,
        cols: u32,
        h: usize,
    ) -> SortCost {
        // Standalone entry point: ephemeral execution resources. Charged
        // costs are identical to `sort_with` — pooling only affects wall
        // clock.
        let mut engines = EnginePool::new();
        let mut memo = RouteMemo::new();
        self.sort_with(items, rows, cols, h, &mut engines, &mut memo)
    }

    /// [`Sorter::sort`] with caller-owned execution resources (normally
    /// an execution context's engine pool and columnsort route memo).
    /// Shearsort needs neither; columnsort uses them for its permutation
    /// route measurements.
    pub fn sort_with<T: Ord + Copy>(
        self,
        items: &mut [Vec<T>],
        rows: u32,
        cols: u32,
        h: usize,
        engines: &mut EnginePool,
        memo: &mut RouteMemo,
    ) -> SortCost {
        match self {
            Sorter::Shearsort => shearsort(items, rows, cols, h),
            Sorter::Columnsort => columnsort_mesh_with(items, rows, cols, h, engines, memo),
        }
    }

    /// The CLI / table name.
    pub fn name(self) -> &'static str {
        match self {
            Sorter::Shearsort => "shearsort",
            Sorter::Columnsort => "columnsort",
        }
    }

    /// Parses a CLI name (`shearsort`/`shear`, `columnsort`/`column`).
    pub fn parse(s: &str) -> Option<Sorter> {
        match s {
            "shearsort" | "shear" => Some(Sorter::Shearsort),
            "columnsort" | "column" => Some(Sorter::Columnsort),
            _ => None,
        }
    }
}

impl std::fmt::Display for Sorter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Sorter {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Sorter::parse(s).ok_or_else(|| format!("unknown sorter '{s}' (shearsort|columnsort)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in Sorter::ALL {
            assert_eq!(Sorter::parse(s.name()), Some(s));
            assert_eq!(s.name().parse::<Sorter>().unwrap(), s);
        }
        assert_eq!(Sorter::parse("bitonic"), None);
        assert!("bitonic".parse::<Sorter>().is_err());
    }

    #[test]
    fn both_sorters_agree() {
        let mut a: Vec<Vec<u64>> = (0..64u64).rev().map(|x| vec![x, x / 2]).collect();
        let mut b = a.clone();
        Sorter::Shearsort.sort(&mut a, 8, 8, 2);
        Sorter::Columnsort.sort(&mut b, 8, 8, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn default_is_columnsort() {
        assert_eq!(Sorter::default(), Sorter::Columnsort);
    }

    /// Both sorters' full `SortCost` on fixed seeded inputs, pinned to
    /// the values the implementation has always charged: the CULLING
    /// shape (64×64, h = 4), non-square meshes at h > 1, a shape with no
    /// feasible block plan (7×7, columnsort's snake line sort) and a
    /// single row. `(steps, analytic_steps, phases)` per sorter.
    #[test]
    fn sort_costs_are_pinned() {
        type Pin = (u64, u64, u32);
        let cases: [((u32, u32, usize), Pin, Pin); 5] = [
            ((64, 64, 4), (3328, 512, 7), (2101, 512, 8)),
            ((16, 64, 3), (1152, 240, 5), (1258, 240, 8)),
            ((12, 6, 2), (120, 36, 4), (187, 36, 8)),
            ((7, 7, 1), (49, 14, 4), (49, 14, 1)),
            ((1, 16, 2), (32, 34, 1), (72, 34, 8)),
        ];
        for ((rows, cols, h), shear, column) in cases {
            let mut state = (rows as u64) << 32 | (cols as u64) << 8 | h as u64;
            let items: Vec<Vec<u64>> = (0..rows * cols)
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
                .collect();
            let mut expect: Vec<u64> = items.iter().flatten().copied().collect();
            expect.sort_unstable();
            for (sorter, (steps, analytic_steps, phases)) in
                [(Sorter::Shearsort, shear), (Sorter::Columnsort, column)]
            {
                let mut got = items.clone();
                let cost = sorter.sort(&mut got, rows, cols, h);
                let want = SortCost {
                    steps,
                    analytic_steps,
                    phases,
                };
                assert_eq!(cost, want, "{sorter} on {rows}×{cols}, h = {h}");
                assert!(got.iter().all(|v| v.len() == h));
                assert_eq!(got.concat(), expect, "{sorter} on {rows}×{cols}, h = {h}");
            }
        }
    }
}
