//! Deterministic sorting and ranking on the mesh.
//!
//! The PRAM simulation repeatedly needs to *sort* packets by destination
//! and *rank* packets within groups, inside submeshes of various sizes
//! (the access protocol's stages, the CULLING procedure, and the
//! `(l1,l2)`-routing all start with a sort). The paper charges
//! `O(l·√n)` for these, citing Kunde-style algorithms; two fully
//! step-simulated sorters are provided behind the pluggable
//! [`sorter::Sorter`] layer: merge-split **shearsort**
//! (`O(l·√n·log n)`) and step-simulated Leighton **columnsort**
//! (`O(l·√n)`, the class the paper assumes — and the default). Both
//! carry exact step-cost accounting plus an analytic mode charging the
//! paper's bound; DESIGN.md §4 discusses the substitution.
//!
//! - [`snake`]: snake-order indexing of a rectangular region.
//! - [`mod@sorter`]: the pluggable sorter dispatch (default:
//!   columnsort).
//! - [`mod@shearsort`]: merge-split shearsort of `l` keys per node.
//! - [`mod@columnsort`]: Leighton's columnsort — both the flat
//!   reference and the step-simulated mesh realization
//!   ([`columnsort::columnsort_mesh`]).
//! - [`rank`]: segmented ranking / prefix operations over sorted keys.
//! - [`broadcast`]: segmented broadcast (prefix copy) for request
//!   combining.

//!
//! # Example
//!
//! ```
//! use prasim_sortnet::shearsort::shearsort;
//!
//! // 2 keys per node on a 4×4 grid, snake-position indexed.
//! let mut items: Vec<Vec<u64>> = (0..16).map(|i| vec![31 - i, i]).collect();
//! let cost = shearsort(&mut items, 4, 4, 2);
//! let flat: Vec<u64> = items.iter().flatten().copied().collect();
//! assert!(flat.windows(2).all(|w| w[0] <= w[1]));
//! assert!(cost.steps > 0);
//! ```

pub mod broadcast;
pub mod columnsort;
pub mod rank;
pub mod shearsort;
pub mod snake;
pub mod sorter;

pub use broadcast::segmented_broadcast;
pub use columnsort::{columnsort, columnsort_mesh, columnsort_mesh_with, RouteMemo};
pub use rank::rank_sorted;
pub use shearsort::{shearsort, SortCost};
pub use snake::snake_index;
pub use sorter::Sorter;
