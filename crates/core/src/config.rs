//! Cracker configuration.
//!
//! §3.4.2 closes with "the research challenge ... to find a balance between
//! cracking the database into pieces, the overhead it incurs in terms of
//! cracker index management, query optimization, and query evaluation plan.
//! Possible cut-off points to consider are the disk-blocks, being the
//! slowest granularity in the system, or to limit the number of pieces
//! administered." `CrackerConfig` exposes exactly those knobs, and they
//! are swept by the ablation benchmarks.

use crate::kernel::KernelPolicy;
use serde::{Deserialize, Serialize};

/// A cracked column (each shard counted alone) merges its staged updates
/// once they reach `max(merge_threshold, len / STAGE_SHARE)`. A ripple
/// merge writes `Σ min(S_j, len_j)`, about `len` tuples once the staged
/// rows outnumber the pieces, so at 1/64 it moves ~64 tuples per staged
/// row. The staging area costs a select `O(log k)` at any size, so the
/// share bounds the merge's amortized work and the staging area's memory
/// (~1.6 % of the column's rows), not read latency. The checkpoint's
/// counterpart is the engine's `ORIGIN_SHARE`, the share of a column its
/// merge journal may reach before the origin is rewritten.
pub const STAGE_SHARE: usize = 64;

/// How a double-sided range predicate cracks a virgin piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrackMode {
    /// Two successive two-way cracks (one per bound).
    TwoWay,
    /// One three-way partition when both bounds land in the same
    /// piece — the paper's "second version \[of\] selection-cracking that
    /// yields three pieces" (§3.1).
    ThreeWay,
}

/// Which boundary to sacrifice when the piece budget is exceeded.
///
/// "Fusion of pieces becomes a necessity, but which heuristic works best,
/// with minimal amount of work \[,\] remains an open issue" (§3.2). We
/// implement three candidates and benchmark them against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FusionPolicy {
    /// Merge the adjacent pair of pieces with the smallest combined size
    /// (keeps big, discriminative pieces).
    SmallestPair,
    /// Drop the least recently used boundary (keeps the hot set sharp).
    LeastRecentlyUsed,
    /// Drop the boundary that produces the most balanced merge, i.e. the
    /// one whose removal increases the maximum piece size the least.
    MostBalanced,
}

/// Tuning knobs for a [`crate::column::CrackerColumn`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrackerConfig {
    /// Two-way vs. three-way cracking for range predicates.
    pub mode: CrackMode,
    /// Pieces at or below this size are never cracked further; the residual
    /// filtering is done by scanning inside the piece. Models the paper's
    /// disk-block cut-off. `1` disables the cut-off.
    pub min_piece_size: usize,
    /// Upper bound on the number of pieces; exceeding it triggers fusion.
    /// `usize::MAX` disables fusion.
    pub max_pieces: usize,
    /// Fusion heuristic used when `max_pieces` is exceeded.
    pub fusion: FusionPolicy,
    /// The floor of the merge trigger: the next query merges the staged
    /// updates into the cracked store once they reach
    /// `max(merge_threshold, len / STAGE_SHARE)` ([`STAGE_SHARE`]). On a
    /// small column the floor is the trigger.
    pub merge_threshold: usize,
    /// Pieces at or below this size are sorted in place on first touch and
    /// thereafter cracked by binary search with zero tuple movement
    /// (progressive refinement, see [`crate::sorted`]). `0` disables.
    pub sort_below: usize,
    /// Which crack kernel the column's hot loops run (see
    /// [`crate::kernel`]). Resolved once at column construction: `Auto`
    /// is the AVX2 vector kernels where the CPU has them and the scalar
    /// loops elsewhere, `Scalar` forces the scalar loops.
    pub kernel: KernelPolicy,
}

impl Default for CrackerConfig {
    fn default() -> Self {
        CrackerConfig {
            mode: CrackMode::ThreeWay,
            min_piece_size: 1,
            max_pieces: usize::MAX,
            fusion: FusionPolicy::SmallestPair,
            merge_threshold: 1024,
            sort_below: 0,
            kernel: KernelPolicy::Auto,
        }
    }
}

impl CrackerConfig {
    /// Default configuration (three-way cracks, no cut-off, no piece cap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set the crack mode.
    pub fn with_mode(mut self, mode: CrackMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: set the minimum piece size (cut-off granule).
    pub fn with_min_piece_size(mut self, n: usize) -> Self {
        self.min_piece_size = n.max(1);
        self
    }

    /// Builder: cap the number of pieces.
    pub fn with_max_pieces(mut self, n: usize) -> Self {
        self.max_pieces = n.max(1);
        self
    }

    /// Builder: choose the fusion policy.
    pub fn with_fusion(mut self, policy: FusionPolicy) -> Self {
        self.fusion = policy;
        self
    }

    /// Builder: set the floor of the pending-update merge trigger.
    pub fn with_merge_threshold(mut self, n: usize) -> Self {
        self.merge_threshold = n.max(1);
        self
    }

    /// Builder: set the progressive-refinement sort threshold (`0`
    /// disables).
    pub fn with_sort_below(mut self, n: usize) -> Self {
        self.sort_below = n;
        self
    }

    /// Builder: choose the crack kernel (scalar, or auto-selected from
    /// the CPU).
    pub fn with_kernel(mut self, kernel: KernelPolicy) -> Self {
        self.kernel = kernel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_no_limits() {
        let c = CrackerConfig::default();
        assert_eq!(c.mode, CrackMode::ThreeWay);
        assert_eq!(c.min_piece_size, 1);
        assert_eq!(c.max_pieces, usize::MAX);
        assert_eq!(c.kernel, KernelPolicy::Auto);
    }

    #[test]
    fn builder_chains() {
        let c = CrackerConfig::new()
            .with_mode(CrackMode::TwoWay)
            .with_min_piece_size(64)
            .with_max_pieces(100)
            .with_fusion(FusionPolicy::LeastRecentlyUsed)
            .with_merge_threshold(10)
            .with_kernel(KernelPolicy::Scalar);
        assert_eq!(c.mode, CrackMode::TwoWay);
        assert_eq!(c.min_piece_size, 64);
        assert_eq!(c.max_pieces, 100);
        assert_eq!(c.fusion, FusionPolicy::LeastRecentlyUsed);
        assert_eq!(c.merge_threshold, 10);
        assert_eq!(c.kernel, KernelPolicy::Scalar);
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let c = CrackerConfig::new()
            .with_min_piece_size(0)
            .with_max_pieces(0)
            .with_merge_threshold(0);
        assert_eq!(c.min_piece_size, 1);
        assert_eq!(c.max_pieces, 1);
        assert_eq!(c.merge_threshold, 1);
    }
}
