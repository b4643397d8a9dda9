//! The overlay: nodes, query execution, and self-organization.
//!
//! Queries enter at an arbitrary node and are answered by the nodes
//! owning the overlapping pieces. Execution is exactly the cracker
//! recipe of §3 applied across machines:
//!
//! 1. **route** — the entry node locates the owners of the overlapping
//!    pieces (one hop per remote owner);
//! 2. **crack** — each owner Ξ-cracks its border pieces at the query
//!    bounds, so the requested range becomes whole pieces;
//! 3. **transfer** — matching tuples stream back to the entry node
//!    (counted per tuple);
//! 4. **migrate** — a piece whose recent accesses are dominated by one
//!    remote peer moves there. Cracking makes this cheap and precise:
//!    migration moves exactly the hot value range, nothing else.
//!
//! Over a workload with per-node affinity the store redistributes itself
//! until queries are answered locally — the "self-organizing database in
//! a P2P environment" of §7, with cracking as the partitioning engine.

use crate::piece::{NodeId, Piece};
use std::collections::BTreeMap;

/// Tuning knobs of the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P2pConfig {
    /// A piece migrates to a peer once that peer's access count since
    /// the last move reaches this threshold. `0` disables migration.
    pub migrate_after: u32,
    /// Per-node piece budget; exceeding it fuses the node's smallest
    /// adjacent pair (`usize::MAX` disables fusion).
    pub piece_budget_per_node: usize,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig {
            migrate_after: 3,
            piece_budget_per_node: usize::MAX,
        }
    }
}

/// One peer: its owned pieces, keyed by range start.
#[derive(Debug, Default)]
struct Node {
    pieces: BTreeMap<i64, Piece>,
}

impl Node {
    fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    fn tuple_count(&self) -> usize {
        self.pieces.values().map(Piece::len).sum()
    }

    /// Fuse the adjacent (in the value domain) pair of this node's
    /// pieces with the smallest combined tuple count. Returns `true`
    /// when a fusion happened.
    fn fuse_smallest_adjacent(&mut self) -> bool {
        let keys: Vec<i64> = self.pieces.keys().copied().collect();
        let mut best: Option<(i64, i64, usize)> = None;
        for pair in keys.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // Only value-adjacent pieces may fuse (a gap means some other
            // node owns the range between).
            if self.pieces[&a].hi != self.pieces[&b].lo {
                continue;
            }
            let cost = self.pieces[&a].len() + self.pieces[&b].len();
            if best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((a, b, cost));
            }
        }
        let Some((a, b, _)) = best else {
            return false;
        };
        // lint: allow(unwrap) — `best` was chosen from this map's own keys
        let right = self.pieces.remove(&b).expect("key listed");
        self.pieces.get_mut(&a).expect("key listed").fuse(right); // lint: allow(unwrap) — same

        true
    }
}

/// Per-query execution record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Qualifying tuples.
    pub result: u64,
    /// Tuples answered from the entry node's own pieces.
    pub local: u64,
    /// Tuples shipped from remote owners.
    pub transferred: u64,
    /// Remote owners contacted.
    pub hops: u64,
    /// Pieces that migrated to the entry node as a consequence.
    pub migrations: u64,
    /// Tuples moved by those migrations.
    pub migrated_tuples: u64,
}

impl QueryTrace {
    /// Fraction of the answer served locally (1.0 for an empty answer).
    pub fn locality(&self) -> f64 {
        if self.result == 0 {
            1.0
        } else {
            self.local as f64 / self.result as f64
        }
    }
}

/// Aggregate counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Queries executed.
    pub queries: u64,
    /// Total remote owners contacted.
    pub hops: u64,
    /// Total tuples shipped for answers.
    pub transferred: u64,
    /// Total piece migrations.
    pub migrations: u64,
    /// Total tuples moved by migrations.
    pub migrated_tuples: u64,
    /// Total piece cracks.
    pub cracks: u64,
    /// Total piece fusions (budget enforcement).
    pub fusions: u64,
}

/// The simulated overlay network.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    config: P2pConfig,
    stats: NetStats,
    domain: (i64, i64),
}

impl Network {
    /// An overlay of `n_nodes` peers over `values`, whose value domain is
    /// `[domain_lo, domain_hi)`. The initial placement splits the domain
    /// into `n_nodes` equal value stripes, one per node — a conventional
    /// static range partitioning for the self-organization to improve on.
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero or a value lies outside the domain.
    pub fn new(
        n_nodes: usize,
        values: &[i64],
        domain_lo: i64,
        domain_hi: i64,
        config: P2pConfig,
    ) -> Self {
        assert!(n_nodes >= 1, "an overlay needs at least one node");
        assert!(domain_lo < domain_hi, "empty value domain");
        let width = ((domain_hi - domain_lo) as usize).div_ceil(n_nodes) as i64;
        let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); n_nodes];
        for &v in values {
            assert!(
                (domain_lo..domain_hi).contains(&v),
                "value {v} outside the domain"
            );
            let b = ((v - domain_lo) / width) as usize;
            buckets[b.min(n_nodes - 1)].push(v);
        }
        let nodes = buckets
            .into_iter()
            .enumerate()
            .map(|(i, tuples)| {
                let lo = domain_lo + i as i64 * width;
                let hi = (lo + width).min(domain_hi);
                let mut node = Node::default();
                if lo < hi {
                    node.pieces.insert(lo, Piece::new(lo, hi, tuples));
                }
                node
            })
            .collect();
        Network {
            nodes,
            config,
            stats: NetStats::default(),
            domain: (domain_lo, domain_hi),
        }
    }

    /// Number of peers.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Piece count per node.
    pub fn piece_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(Node::piece_count).collect()
    }

    /// Tuple count per node.
    pub fn tuple_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(Node::tuple_count).collect()
    }

    /// Execute `SELECT count(*) WHERE value IN [lo, hi)` entering at
    /// `entry`.
    pub fn query(&mut self, entry: NodeId, lo: i64, hi: i64) -> QueryTrace {
        self.stats.queries += 1;
        let mut trace = QueryTrace::default();
        if lo >= hi {
            return trace;
        }

        // Every node cracks its overlapping pieces first, so the answer
        // is made of whole pieces.
        for owner in 0..self.nodes.len() {
            self.crack_overlapping(NodeId(owner), lo, hi);
        }

        // Collect whole in-range pieces; record affinity; count hops.
        let mut migrate: Vec<(NodeId, i64)> = Vec::new();
        for owner in 0..self.nodes.len() {
            let owner_id = NodeId(owner);
            let mut contributed = false;
            for piece in self.nodes[owner].pieces.values_mut() {
                // Whole in-range pieces answer for free; partial overlaps
                // (which only exist where budget fusion coarsened the
                // partitioning back) are residual-filtered by scanning.
                let whole = piece.within(lo, hi);
                let matching = if whole {
                    piece.len() as u64
                } else if piece.overlaps(lo, hi) {
                    piece
                        .tuples
                        .iter()
                        .filter(|&&t| (lo..hi).contains(&t))
                        .count() as u64
                } else {
                    continue;
                };
                trace.result += matching;
                if owner_id == entry {
                    trace.local += matching;
                    continue;
                }
                if matching == 0 {
                    continue;
                }
                contributed = true;
                trace.transferred += matching;
                // Only whole pieces build migration affinity: moving a
                // partially relevant piece would ship cold tuples.
                if whole {
                    let count = piece.record_access(entry);
                    if self.config.migrate_after > 0 && count >= self.config.migrate_after {
                        migrate.push((owner_id, piece.lo));
                    }
                }
            }
            if contributed {
                trace.hops += 1;
            }
        }

        // Apply migrations: the hot piece moves to the entry node.
        for (from, key) in migrate {
            let mut piece = self.nodes[from.0]
                .pieces
                .remove(&key)
                .expect("migration key collected above"); // lint: allow(unwrap) — see message
            trace.migrations += 1;
            trace.migrated_tuples += piece.len() as u64;
            piece.reset_accesses();
            self.nodes[entry.0].pieces.insert(piece.lo, piece);
            self.enforce_budget(entry);
        }

        self.stats.hops += trace.hops;
        self.stats.transferred += trace.transferred;
        self.stats.migrations += trace.migrations;
        self.stats.migrated_tuples += trace.migrated_tuples;
        trace
    }

    /// Insert a tuple: it lands in whichever peer currently owns the
    /// piece covering its value — updates follow the adaptive placement
    /// instead of a static shard function. Returns the owner.
    ///
    /// # Panics
    /// Panics if the value lies outside the domain.
    pub fn insert(&mut self, value: i64) -> NodeId {
        assert!(
            (self.domain.0..self.domain.1).contains(&value),
            "value {value} outside the domain"
        );
        let owner = self
            .owner_of(value)
            .expect("pieces tile the domain, so every value has an owner"); // lint: allow(unwrap) — tiling invariant
        let node = &mut self.nodes[owner.0];
        let piece = node
            .pieces
            .values_mut()
            .find(|p| (p.lo..p.hi).contains(&value))
            .expect("owner_of found this piece"); // lint: allow(unwrap) — owner_of just matched it
        piece.tuples.push(value);
        owner
    }

    /// Delete one tuple with this value, if present anywhere. Returns the
    /// peer it was removed from.
    pub fn delete(&mut self, value: i64) -> Option<NodeId> {
        let owner = self.owner_of(value)?;
        let node = &mut self.nodes[owner.0];
        let piece = node
            .pieces
            .values_mut()
            .find(|p| (p.lo..p.hi).contains(&value))?;
        let idx = piece.tuples.iter().position(|&t| t == value)?;
        piece.tuples.swap_remove(idx);
        Some(owner)
    }

    /// The peer owning the piece covering `value`, if any.
    pub fn owner_of(&self, value: i64) -> Option<NodeId> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.pieces.values().any(|p| (p.lo..p.hi).contains(&value)) {
                return Some(NodeId(i));
            }
        }
        None
    }

    /// Ξ-crack every piece of `owner` that partially overlaps `[lo, hi)`.
    fn crack_overlapping(&mut self, owner: NodeId, lo: i64, hi: i64) {
        let node = &mut self.nodes[owner.0];
        let keys: Vec<i64> = node
            .pieces
            .values()
            .filter(|p| p.overlaps(lo, hi) && !p.within(lo, hi))
            .map(|p| p.lo)
            .collect();
        for key in keys {
            // lint: allow(unwrap) — keys were collected from this node's map
            let piece = node.pieces.remove(&key).expect("key collected above");
            let (below, inside, above) = piece.crack(lo, hi);
            for np in [below, inside, above].into_iter().flatten() {
                node.pieces.insert(np.lo, np);
            }
            self.stats.cracks += 1;
        }
        self.enforce_budget(owner);
    }

    /// Fuse pieces while the node exceeds its budget.
    fn enforce_budget(&mut self, owner: NodeId) {
        while self.nodes[owner.0].piece_count() > self.config.piece_budget_per_node {
            if !self.nodes[owner.0].fuse_smallest_adjacent() {
                break; // nothing adjacent left to fuse
            }
            self.stats.fusions += 1;
        }
    }

    /// Check global invariants: pieces tile disjoint value ranges across
    /// the whole overlay, and every tuple sits in a piece covering it.
    pub fn validate(&self) -> Result<(), String> {
        let mut ranges: Vec<(i64, i64)> = Vec::new();
        for node in &self.nodes {
            for (key, p) in &node.pieces {
                if *key != p.lo {
                    return Err(format!("piece keyed {key} but starts at {}", p.lo));
                }
                if p.lo >= p.hi {
                    return Err(format!("empty value range [{}, {})", p.lo, p.hi));
                }
                if !p.tuples.iter().all(|&t| (p.lo..p.hi).contains(&t)) {
                    return Err(format!("tuple outside piece [{}, {})", p.lo, p.hi));
                }
                ranges.push((p.lo, p.hi));
            }
        }
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            if pair[0].1 > pair[1].0 {
                return Err(format!(
                    "overlapping pieces: [{}, {}) and [{}, {})",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
        if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
            if first.0 != self.domain.0 || last.1 != self.domain.1 {
                return Err("pieces do not tile the domain".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node overlay over the permutation 0..1000 (value == tuple).
    fn net(config: P2pConfig) -> Network {
        let values: Vec<i64> = (0..1000).collect();
        Network::new(4, &values, 0, 1000, config)
    }

    #[test]
    fn initial_placement_stripes_the_domain() {
        let n = net(P2pConfig::default());
        assert_eq!(n.node_count(), 4);
        assert_eq!(n.piece_counts(), vec![1, 1, 1, 1]);
        assert_eq!(n.tuple_counts(), vec![250, 250, 250, 250]);
        n.validate().unwrap();
    }

    #[test]
    fn queries_count_correctly_wherever_data_lives() {
        let mut n = net(P2pConfig::default());
        for (lo, hi, want) in [
            (0, 1000, 1000),
            (100, 200, 100),
            (240, 260, 20), // straddles a node boundary
            (999, 1000, 1),
            (500, 500, 0),
            (1200, 1300, 0),
        ] {
            let t = n.query(NodeId(0), lo, hi);
            assert_eq!(t.result, want, "[{lo},{hi})");
            n.validate().unwrap();
        }
    }

    #[test]
    fn local_answers_cost_no_hops() {
        let mut n = net(P2pConfig::default());
        // Node 1 owns values 250..500.
        let t = n.query(NodeId(1), 300, 350);
        assert_eq!(t.result, 50);
        assert_eq!(t.local, 50);
        assert_eq!(t.hops, 0);
        assert_eq!(t.transferred, 0);
        assert!((t.locality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remote_answers_cost_hops_and_transfers() {
        let mut n = net(P2pConfig {
            migrate_after: 0,
            ..Default::default()
        });
        let t = n.query(NodeId(0), 300, 350);
        assert_eq!(t.result, 50);
        assert_eq!(t.local, 0);
        assert_eq!(t.hops, 1);
        assert_eq!(t.transferred, 50);
        // A query spanning three owners costs three hops.
        let t = n.query(NodeId(0), 260, 760);
        assert_eq!(t.hops, 3);
    }

    #[test]
    fn cracking_splits_only_border_pieces() {
        let mut n = net(P2pConfig {
            migrate_after: 0,
            ..Default::default()
        });
        n.query(NodeId(0), 300, 350);
        // Node 1 (250..500) cracked into three; others untouched.
        assert_eq!(n.piece_counts(), vec![1, 3, 1, 1]);
        assert_eq!(n.stats().cracks, 1);
        n.validate().unwrap();
    }

    #[test]
    fn hot_pieces_migrate_to_their_consumer() {
        let mut n = net(P2pConfig {
            migrate_after: 3,
            ..Default::default()
        });
        // Node 0 keeps asking for node 1's range.
        let mut migrated_at = None;
        for step in 1..=5 {
            let t = n.query(NodeId(0), 300, 350);
            if t.migrations > 0 {
                migrated_at = Some(step);
                break;
            }
        }
        assert_eq!(migrated_at, Some(3), "third access triggers the move");
        // The next identical query is fully local.
        let t = n.query(NodeId(0), 300, 350);
        assert_eq!(t.local, 50);
        assert_eq!(t.hops, 0);
        n.validate().unwrap();
        // Tuples conserved globally.
        assert_eq!(n.tuple_counts().iter().sum::<usize>(), 1000);
    }

    #[test]
    fn migration_disabled_means_hops_forever() {
        let mut n = net(P2pConfig {
            migrate_after: 0,
            ..Default::default()
        });
        for _ in 0..10 {
            let t = n.query(NodeId(0), 300, 350);
            assert_eq!(t.hops, 1, "without migration the hop never goes away");
        }
        assert_eq!(n.stats().migrations, 0);
    }

    #[test]
    fn piece_budget_forces_fusion() {
        let mut n = net(P2pConfig {
            migrate_after: 0,
            piece_budget_per_node: 4,
        });
        // Many disjoint narrow queries into node 0's stripe (0..250).
        for lo in (0..240).step_by(20) {
            n.query(NodeId(1), lo, lo + 10);
        }
        assert!(n.piece_counts()[0] <= 4, "budget enforced");
        assert!(n.stats().fusions > 0);
        n.validate().unwrap();
        // Answers remain correct after fusions.
        let t = n.query(NodeId(1), 0, 250);
        assert_eq!(t.result, 250);
    }

    #[test]
    fn affinity_workload_self_organizes() {
        // 4 nodes; node i's clients query inside stripe ((i+1) % 4) — all
        // data starts one stripe "away" from its consumers.
        let mut n = net(P2pConfig {
            migrate_after: 2,
            ..Default::default()
        });
        let mut early_hops = 0;
        let mut late_hops = 0;
        for round in 0..20 {
            for node in 0..4 {
                let target = (node + 1) % 4;
                let base = target as i64 * 250;
                let lo = base + (round % 5) * 50;
                let t = n.query(NodeId(node), lo, lo + 50);
                if round < 5 {
                    early_hops += t.hops;
                } else if round >= 15 {
                    late_hops += t.hops;
                }
            }
        }
        assert!(
            late_hops * 4 <= early_hops,
            "self-organization must collapse remote traffic \
             (early {early_hops}, late {late_hops})"
        );
        n.validate().unwrap();
        assert_eq!(n.tuple_counts().iter().sum::<usize>(), 1000);
    }

    #[test]
    fn updates_follow_the_adaptive_placement() {
        let mut n = net(P2pConfig {
            migrate_after: 2,
            ..Default::default()
        });
        // Node 0 pulls the range 300..350 over from node 1.
        for _ in 0..2 {
            n.query(NodeId(0), 300, 350);
        }
        assert_eq!(n.owner_of(320), Some(NodeId(0)), "hot range migrated");
        // A new tuple in that range lands on the *new* owner.
        assert_eq!(n.insert(320), NodeId(0));
        let t = n.query(NodeId(0), 300, 350);
        assert_eq!(t.result, 51, "insert is visible");
        assert_eq!(t.hops, 0, "and local to its consumer");
        // Deleting removes exactly one copy.
        assert_eq!(n.delete(320), Some(NodeId(0)));
        let t = n.query(NodeId(0), 300, 350);
        assert_eq!(t.result, 50);
        // The original is still there (value 320 existed once before).
        assert_eq!(n.delete(320), Some(NodeId(0)));
        assert_eq!(n.query(NodeId(0), 320, 321).result, 0);
        assert_eq!(n.delete(320), None, "nothing left to delete");
        n.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn inserting_outside_the_domain_panics() {
        let mut n = net(P2pConfig::default());
        n.insert(5_000);
    }

    #[test]
    fn single_node_overlay_is_always_local() {
        let values: Vec<i64> = (0..100).collect();
        let mut n = Network::new(1, &values, 0, 100, P2pConfig::default());
        let t = n.query(NodeId(0), 10, 90);
        assert_eq!(t.result, 80);
        assert_eq!(t.hops, 0);
        assert!((t.locality() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn out_of_domain_values_are_rejected() {
        Network::new(2, &[5, 500], 0, 100, P2pConfig::default());
    }

    proptest::proptest! {
        /// Any query sequence conserves tuples and preserves tiling.
        #[test]
        fn prop_invariants_hold_under_random_traffic(
            queries in proptest::collection::vec(
                (0usize..4, 0i64..1000, 0i64..1000), 1..40),
            migrate_after in 0u32..4,
            budget in 2usize..20,
        ) {
            let values: Vec<i64> = (0..1000).collect();
            let mut n = Network::new(
                4,
                &values,
                0,
                1000,
                P2pConfig { migrate_after, piece_budget_per_node: budget },
            );
            for (entry, a, b) in queries {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let t = n.query(NodeId(entry), lo, hi);
                proptest::prop_assert_eq!(t.result, (hi - lo) as u64);
                n.validate().map_err(proptest::test_runner::TestCaseError::fail)?;
            }
            proptest::prop_assert_eq!(n.tuple_counts().iter().sum::<usize>(), 1000);
        }
    }
}
