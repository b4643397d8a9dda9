#![warn(missing_docs)]
//! # cracker-core — the database cracker
//!
//! The primary contribution of *Cracking the Database Store* (Kersten &
//! Manegold, CIDR 2005): instead of maintaining indices at update time, the
//! store is **cracked** — physically reorganized — as a byproduct of query
//! processing. "Every query is first analyzed for its contribution to break
//! the database into multiple pieces, such that both the required subset is
//! easily retrieved and subsequent queries may benefit from the new
//! partitioning structure."
//!
//! ## The four cracker operators (§3.1)
//!
//! * **Ξ (Xi)** — selection cracking: [`column::CrackerColumn`] keeps a
//!   shuffled copy of one attribute; each range predicate partitions at most
//!   the two *border pieces* in place, after which the answer is a
//!   contiguous slot range. One-sided predicates crack a piece in two,
//!   double-sided ranges (and point queries, viewed as `low == high`) crack
//!   in three — restoring the "consecutive ranges" property the paper calls
//!   out.
//! * **Ψ (Psi)** — projection cracking: [`project`] splits a relation
//!   vertically into two fragments, each carrying the surrogate `oid`
//!   needed for loss-less 1:1 reconstruction.
//! * **^ (Wedge)** — join cracking: [`join`] shuffles both join operands so
//!   that matching tuples form consecutive areas — a dynamically built
//!   semijoin index yielding the four pieces `R⋉S`, `R∖(R⋉S)`, `S⋉R`,
//!   `S∖(S⋉R)`.
//! * **Ω (Omega)** — group-by cracking: [`group`] clusters a column into an
//!   n-way partition, one consecutive piece per group value.
//!
//! ## The cracker index (§3.2, §5.2)
//!
//! [`index::CrackerIndex`] is the "decorated interval tree": an ordered map
//! from boundary values to split positions, from which every piece's size
//! and value bounds follow. The engine's durability layer checkpoints it
//! ([`snapshot`]); the paper's prototype kept its indices only for a
//! session.
//!
//! ## Beyond the happy path
//!
//! * [`updates`] — the paper's open question "what are the effects of
//!   updates on the scheme proposed?": pending insert/delete staging areas
//!   merged into the cracked store on demand.
//! * [`lineage`] — the lineage DAG of Figures 5 and 6, recording which
//!   cracker produced which piece so originals remain reconstructible.

pub mod column;
pub mod config;
pub mod crack;
pub mod group;
pub mod index;
pub mod join;
pub mod kernel;
pub mod lineage;
pub mod pred;
pub mod project;
pub mod sharded;
pub(crate) mod simd;
pub mod snapshot;
pub mod stats;
pub mod stochastic;
pub mod sync;
pub mod updates;
pub mod value_trait;

pub use column::{CrackerColumn, Selection};
pub use config::CrackerConfig;
pub use index::CrackerIndex;
pub use kernel::{simd_supported, CrackKernel, KernelPolicy};
pub use pred::RangePred;
pub use sharded::{ConcurrencyMode, ConcurrentColumn, ShardedSelection};
pub use snapshot::{
    BoundaryRecord, ColumnDelta, ColumnSnapshot, ConcurrentDelta, ConcurrentSnapshot,
};
pub use stats::CrackStats;
pub use stochastic::{StochasticCracker, StochasticPolicy};
pub use updates::{MergeJournal, OidSet, Renumbering};
pub use value_trait::{CrackValue, OrdF64};
