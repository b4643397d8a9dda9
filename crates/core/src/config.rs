//! Cracker configuration.
//!
//! §3.4.2 closes with "the research challenge ... to find a balance between
//! cracking the database into pieces, the overhead it incurs in terms of
//! cracker index management, query optimization, and query evaluation plan.
//! Possible cut-off points to consider are the disk-blocks, being the
//! slowest granularity in the system, or to limit the number of pieces
//! administered." `CrackerConfig` exposes the cut-off, which the ablation
//! benchmarks sweep; the number of pieces is not limited.

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

/// Tuning knobs for a [`crate::column::CrackerColumn`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrackerConfig {
    /// Pieces at or below this size are never cracked further; the residual
    /// filtering is done by scanning inside the piece. Models the paper's
    /// disk-block cut-off. `1` disables the cut-off.
    pub min_piece_size: usize,
    /// The floor of the merge trigger: the next query merges the staged
    /// updates into the cracked store once they reach
    /// `max(merge_threshold, len / STAGE_SHARE)` ([`STAGE_SHARE`]). On a
    /// small column the floor is the trigger.
    pub merge_threshold: usize,
    /// Which crack kernel the column's hot loops run (see
    /// [`crate::kernel`]). Resolved once at column construction: `Auto`
    /// is the AVX2 vector kernels where the CPU has them and the scalar
    /// loops elsewhere, `Scalar` forces the scalar loops.
    pub kernel: KernelPolicy,
}

impl Default for CrackerConfig {
    fn default() -> Self {
        CrackerConfig {
            min_piece_size: 1,
            merge_threshold: 1024,
            kernel: KernelPolicy::Auto,
        }
    }
}

impl CrackerConfig {
    /// Default configuration (no cut-off, a merge floor of 1 024, the
    /// CPU's best kernel).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set the minimum piece size (cut-off granule).
    pub fn with_min_piece_size(mut self, n: usize) -> Self {
        self.min_piece_size = n.max(1);
        self
    }

    /// Builder: set the floor of the pending-update merge trigger.
    pub fn with_merge_threshold(mut self, n: usize) -> Self {
        self.merge_threshold = n.max(1);
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
        assert_eq!(c.min_piece_size, 1);
        assert_eq!(c.kernel, KernelPolicy::Auto);
    }

    #[test]
    fn builder_chains() {
        let c = CrackerConfig::new()
            .with_min_piece_size(64)
            .with_merge_threshold(10)
            .with_kernel(KernelPolicy::Scalar);
        assert_eq!(c.min_piece_size, 64);
        assert_eq!(c.merge_threshold, 10);
        assert_eq!(c.kernel, KernelPolicy::Scalar);
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let c = CrackerConfig::new()
            .with_min_piece_size(0)
            .with_merge_threshold(0);
        assert_eq!(c.min_piece_size, 1);
        assert_eq!(c.merge_threshold, 1);
    }
}
