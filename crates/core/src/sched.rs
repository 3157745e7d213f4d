//! Conflict-cluster planning for batch scans, kept as a measurement
//! probe.
//!
//! [`WavePlan::build`] summarizes how a batch would partition under
//! locality-aware scheduling: two transactions touching the same venue,
//! flash-loan provider, or attacker creation tree resolve the same tags,
//! so clustering them onto one worker would turn the second resolution
//! into a local cache hit. The plan has three steps:
//!
//! 1. **Access-set estimation** — each [`TxRecord`]'s initiator, entry
//!    point, and transfer endpoints, mapped to their creation-tree roots
//!    through the [`CreationIndex`] ancestry the tagging stage walks.
//! 2. **Affinity clustering** — a union-find pass joins transactions
//!    whose root sets overlap.
//! 3. **Wave layout** — wave `w` takes the `w`-th hint-sized piece of
//!    every cluster, and the pieces of a wave pack into chunks of an
//!    adaptive size, so no two chunks of one wave share a cluster.
//!
//! [`crate::scan::ScanEngine`] does not use the plan: it cuts every batch
//! into input-order chunks, which was faster on every benchmark workload
//! (DESIGN.md §2e). The plan's shape ([`SchedStats`]) and build time
//! remain per-layer benchmark rows.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ethsim::{Address, BuildFnv, CreationIndex, TxRecord};

/// How many chunks per worker a wave aims for.
const CHUNKS_PER_WORKER: usize = 4;

/// The creation-tree roots `tx` touches: the root of the initiator, of
/// the entry-point contract, and of both sides of every journal transfer
/// (the zero address is skipped — it is the black hole, not an account).
///
/// Roots rather than raw addresses because the root is the identity the
/// tagging stage groups by: a mixer-laundered deposit address and the
/// attack contract it funds sit in one creation tree, so both map to the
/// same root and land in the same cluster. The set is deduplicated and
/// tiny (a handful of roots per transaction), so it is kept as a plain
/// vector.
fn access_set(tx: &TxRecord, creations: &CreationIndex) -> Vec<Address> {
    fn push(roots: &mut Vec<Address>, creations: &CreationIndex, addr: Address) {
        if addr.is_zero() {
            return;
        }
        let root = creations.root(addr);
        if !roots.contains(&root) {
            roots.push(root);
        }
    }
    let mut roots = Vec::with_capacity(8);
    push(&mut roots, creations, tx.from);
    push(&mut roots, creations, tx.to);
    for t in &tx.trace.transfers {
        push(&mut roots, creations, t.sender);
        push(&mut roots, creations, t.receiver);
    }
    roots
}

/// Union-find over transaction indices, with the *minimum* index as every
/// set's representative so cluster identity is deterministic and clusters
/// come out ordered by their first transaction.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut i: u32) -> u32 {
        // Path halving: every probe shortcuts grandparent links.
        while self.parent[i as usize] != i {
            let p = self.parent[i as usize];
            self.parent[i as usize] = self.parent[p as usize];
            i = self.parent[i as usize];
        }
        i
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
    }
}

/// Shape of one planned batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Affinity clusters found.
    pub clusters: usize,
    /// Waves the chunks were laid out into.
    pub waves: usize,
    /// Chunks across all waves.
    pub chunks: usize,
}

/// A conflict-aware plan for one batch, reduced to its shape.
#[derive(Clone, Debug)]
pub struct WavePlan {
    stats: SchedStats,
}

impl WavePlan {
    /// Plans `txs` for `workers` workers: access sets → union-find
    /// clusters → wave layout, with the chunk size adapted to the batch
    /// (never above `chunk_hint`, shrinking for small batches so each
    /// wave still spreads across the pool).
    ///
    /// Clusters no larger than `chunk_hint` stay whole within one chunk,
    /// and small clusters pack together up to the adaptive size. Only
    /// clusters larger than the hint split, into hint-sized pieces laid
    /// out across consecutive waves.
    pub fn build(
        txs: &[&TxRecord],
        creations: &CreationIndex,
        workers: usize,
        chunk_hint: usize,
    ) -> WavePlan {
        let n = txs.len();
        let hint = chunk_hint.max(1);
        let chunk_size = adaptive_chunk_size(n, workers, chunk_hint);

        // Cluster by shared creation-tree roots: the first transaction to
        // touch a root owns it; later ones union into the owner's set.
        let mut uf = UnionFind::new(n);
        let mut owner: HashMap<Address, u32, BuildFnv> =
            HashMap::with_capacity_and_hasher(n * 2, BuildFnv::default());
        for (i, tx) in txs.iter().enumerate() {
            for root in access_set(tx, creations) {
                match owner.entry(root) {
                    Entry::Occupied(e) => uf.union(i as u32, *e.get()),
                    Entry::Vacant(e) => {
                        e.insert(i as u32);
                    }
                }
            }
        }

        // Cluster sizes, in first-transaction order.
        let mut cluster_of_rep: HashMap<u32, usize, BuildFnv> = HashMap::default();
        let mut sizes: Vec<usize> = Vec::new();
        for i in 0..n as u32 {
            let c = *cluster_of_rep.entry(uf.find(i)).or_insert_with(|| {
                sizes.push(0);
                sizes.len() - 1
            });
            sizes[c] += 1;
        }

        // Wave layout: within a wave, consecutive pieces pack into one
        // chunk up to the adaptive size; a piece is never split.
        let waves = sizes.iter().map(|s| s.div_ceil(hint)).max().unwrap_or(0);
        let mut chunks = 0;
        for wave in 0..waves {
            // Transactions in the chunk being packed (0: none open).
            let mut open = 0;
            for &size in &sizes {
                let left = size.saturating_sub(wave * hint);
                if left == 0 {
                    continue;
                }
                let piece = left.min(hint);
                if open > 0 && open + piece > chunk_size {
                    chunks += 1;
                    open = 0;
                }
                open += piece;
                if open >= chunk_size {
                    chunks += 1;
                    open = 0;
                }
            }
            if open > 0 {
                chunks += 1;
            }
        }

        WavePlan {
            stats: SchedStats {
                clusters: sizes.len(),
                waves,
                chunks,
            },
        }
    }

    /// The plan's shape.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }
}

/// The chunk size for a batch of `n` over `workers` workers: aim for
/// [`CHUNKS_PER_WORKER`] chunks per worker, never exceeding the
/// configured `chunk_hint` and never below 1. A 64-transaction batch on 4
/// workers gets 4-transaction chunks; a 10k batch keeps hint-sized
/// chunks.
fn adaptive_chunk_size(n: usize, workers: usize, chunk_hint: usize) -> usize {
    n.div_ceil(workers.max(1) * CHUNKS_PER_WORKER)
        .clamp(1, chunk_hint.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{CreationRecord, Transfer, TokenId, TxId, TxStatus, TxTrace};

    /// A minimal committed transaction whose journal moves one token
    /// between `sender` and `receiver`.
    fn tx(id: u64, from: u64, to: u64, sender: u64, receiver: u64) -> TxRecord {
        TxRecord {
            id: TxId(id),
            block: 0,
            timestamp: 0,
            from: Address::from_u64(from),
            to: Address::from_u64(to),
            function: "f".into(),
            status: TxStatus::Success,
            trace: TxTrace {
                transfers: vec![Transfer {
                    seq: 0,
                    sender: Address::from_u64(sender),
                    receiver: Address::from_u64(receiver),
                    amount: 1,
                    token: TokenId::ETH,
                }],
                ..TxTrace::default()
            },
        }
    }

    fn rec(creator: u64, created: u64) -> CreationRecord {
        CreationRecord {
            creator: Address::from_u64(creator),
            created: Address::from_u64(created),
            block: 0,
        }
    }

    #[test]
    fn access_set_maps_addresses_to_roots_and_dedups() {
        // 1 -> 2 -> {3, 4}: everything in the tree resolves to root 1.
        let idx = CreationIndex::new(&[rec(1, 2), rec(2, 3), rec(2, 4)]);
        let t = tx(0, 3, 4, 3, 4);
        assert_eq!(access_set(&t, &idx), vec![Address::from_u64(1)]);

        // The zero address is skipped; unrelated addresses are their own
        // root.
        let mut t2 = tx(1, 3, 99, 0, 0);
        t2.trace.transfers[0].receiver = Address::from_u64(50);
        assert_eq!(
            access_set(&t2, &idx),
            vec![
                Address::from_u64(1),
                Address::from_u64(99),
                Address::from_u64(50)
            ]
        );
    }

    #[test]
    fn mixer_laundered_tx_joins_its_creation_tree_siblings() {
        // A mixer tree: attacker EOA 100 deployed mixer 101, which
        // deployed fresh deposit addresses 102 and 103 — the laundering
        // pattern. One tx touches 102, another 103; they never share an
        // address directly, but share ancestry.
        let idx = CreationIndex::new(&[rec(100, 101), rec(101, 102), rec(101, 103)]);
        let records = [
            tx(0, 102, 200, 102, 200), // mixer child 102
            tx(1, 300, 301, 300, 301), // unrelated
            tx(2, 103, 201, 103, 201), // mixer child 103
        ];
        let txs: Vec<&TxRecord> = records.iter().collect();
        // With the tree, tx0 and tx2 cluster (same root 100); without
        // it, every tx is its own cluster.
        assert_eq!(WavePlan::build(&txs, &idx, 4, 32).stats().clusters, 2);
        let no_tree = CreationIndex::new(&[]);
        assert_eq!(WavePlan::build(&txs, &no_tree, 4, 32).stats().clusters, 3);
    }

    #[test]
    fn disjoint_txs_spread_across_parallel_chunks_in_one_wave() {
        // Eight transactions over eight disjoint address sets: eight
        // clusters, all schedulable concurrently.
        let idx = CreationIndex::new(&[]);
        let records: Vec<TxRecord> = (0..8)
            .map(|i| tx(i, 1000 + i, 2000 + i, 1000 + i, 2000 + i))
            .collect();
        let txs: Vec<&TxRecord> = records.iter().collect();
        let stats = WavePlan::build(&txs, &idx, 4, 32).stats();
        assert_eq!(stats.clusters, 8, "no false conflicts between disjoint txs");
        assert_eq!(stats.waves, 1, "independent work needs no serialization");
        assert_eq!(stats.chunks, 8);
    }

    #[test]
    fn one_giant_cluster_gets_one_chunk_per_wave() {
        // Every tx touches venue 7: one cluster of 10, split into
        // hint-sized pieces (4, 4, 2), one per wave.
        let idx = CreationIndex::new(&[]);
        let records: Vec<TxRecord> = (0..10).map(|i| tx(i, 100 + i, 7, 100 + i, 7)).collect();
        let txs: Vec<&TxRecord> = records.iter().collect();
        let stats = WavePlan::build(&txs, &idx, 4, 4).stats();
        assert_eq!(
            stats,
            SchedStats {
                clusters: 1,
                waves: 3,
                chunks: 3
            }
        );
    }

    #[test]
    fn adaptive_chunks_shrink_for_small_batches_and_cap_at_the_hint() {
        // Small batch: 8 txs on 4 workers → chunk size 1 (16 target
        // slots), every worker gets work.
        assert_eq!(adaptive_chunk_size(8, 4, 32), 1);
        // Large batch: the hint caps growth.
        assert_eq!(adaptive_chunk_size(100_000, 4, 32), 32);
        // In between: ceil(724 / 16) = 46 → capped to the hint.
        assert_eq!(adaptive_chunk_size(724, 4, 32), 32);
        assert_eq!(adaptive_chunk_size(724, 8, 64), 23);
        // Degenerate inputs clamp sanely.
        assert_eq!(adaptive_chunk_size(0, 4, 32), 1);
        assert_eq!(adaptive_chunk_size(10, 0, 0), 1);
    }

    #[test]
    fn empty_batch_plans_empty() {
        let idx = CreationIndex::new(&[]);
        let plan = WavePlan::build(&[], &idx, 4, 32);
        assert_eq!(plan.stats(), SchedStats::default());
    }
}
