//! Contract-creation relationships — the substrate's XBlock-ETH dataset.
//!
//! LeiShen's account tagging (paper §V-B1) propagates DeFi-application tags
//! along contract-creation edges, using the creation dataset of Zheng et al.
//! (XBlock-ETH). Our chain records every creation as a [`CreationRecord`];
//! [`CreationIndex`] provides the parent/child queries the tagging tree
//! builder needs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::address::Address;

/// FNV-1a, eight bytes per round, for maps keyed by addresses: the id map
/// of the index below, and the detector's label cloud (and the retired
/// wave planner's root map). It is unkeyed, so whoever picks the keys can
/// pick colliding ones; it is safe here only because [`Address::derive`]
/// assigns every contract address on this substrate. On real chain data
/// an adversary chooses addresses (CREATE2 lets it grind them) and gains
/// from slowing the monitor, so a deployment there needs a keyed hasher in
/// each of these maps. Here it costs several times less per probe than
/// SipHash. ([`Address::derive`] and [`Address::from_seed`] keep their
/// byte-at-a-time FNV: it defines every address.)
pub struct FnvHasher(u64);

// `#[inline]` throughout: the maps that probe with it live in other crates.
impl Default for FnvHasher {
    #[inline]
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Eight bytes per round instead of one: an address is 20 bytes
        // (plus the slice-hash length prefix), so this is ~7 multiplies
        // per probe instead of ~28.
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            h ^= u64::from_ne_bytes(c.try_into().expect("chunks_exact(8)"));
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Builds [`FnvHasher`]s: `HashMap<Address, V, BuildFnv>`.
pub type BuildFnv = BuildHasherDefault<FnvHasher>;

/// One contract-creation edge: `creator` deployed `created` at `block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreationRecord {
    /// The deploying account (EOA or contract).
    pub creator: Address,
    /// The deployed contract.
    pub created: Address,
    /// Block number of the deployment.
    pub block: u64,
}

/// Index over creation records supporting ancestor/descendant queries.
///
/// Every account a record names gets a dense id ([`CreationIndex::id`],
/// `0..len()` in order of first appearance) from the only hash map.
/// Creators are a parent-id array and creations are CSR (compressed
/// sparse row) child runs in record order, so a walk follows arrays after
/// its first step, and a memo (the detector's tag cache) can keep one
/// slot per id. The walks are lazy, and only a descendant walk over an
/// account with creations allocates (its stack, once). They do not rely
/// on the records being a forest: the ancestor walk stops after 1024
/// steps and the descendant walk after `len()` accounts, so a cycle or a
/// repeated creation cannot make either run forever. Each build is
/// stamped with an identity its clones share ([`CreationIndex::stamp`]).
///
/// ```
/// use ethsim::{Address, CreationIndex, CreationRecord};
///
/// let eoa = Address::from_seed("deployer");
/// let factory = Address::from_seed("factory");
/// let pool = Address::from_seed("pool");
/// let idx = CreationIndex::new(&[
///     CreationRecord { creator: eoa, created: factory, block: 1 },
///     CreationRecord { creator: factory, created: pool, block: 2 },
/// ]);
/// assert_eq!(idx.parent(pool), Some(factory));
/// assert_eq!(idx.root(pool), eoa);
/// assert!(idx.ancestors(pool).eq([factory, eoa]));
/// assert!(idx.descendants(eoa).eq([factory, pool]));
/// assert_eq!((idx.id(eoa), idx.id(pool), idx.len()), (Some(0), Some(2), 3));
/// ```
#[derive(Clone, Debug)]
pub struct CreationIndex {
    ids: HashMap<Address, u32, BuildFnv>,
    /// By id: the account and its creator.
    accounts: Vec<Address>,
    parents: Vec<Option<u32>>,
    /// Id `i` created `children[child_start[i]..child_start[i + 1]]`, whose
    /// ids are the same run of `child_ids`.
    child_start: Vec<u32>,
    children: Vec<Address>,
    child_ids: Vec<u32>,
    stamp: u64,
}

/// Creation graphs are trees (an address is created once); this bound on
/// an ancestor walk still guards against corrupted inputs with a cycle.
const MAX_ANCESTORS: usize = 1024;

static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

impl CreationIndex {
    /// Builds the index from creation records. An account created by more
    /// than one record is a child of each creator, and the last record
    /// names its parent.
    pub fn new(records: &[CreationRecord]) -> Self {
        // Two accounts per record at most, so every id fits a u32.
        let most = 2 * records.len();
        assert!(most < u32::MAX as usize, "too many creation records");
        let mut ids = HashMap::with_capacity_and_hasher(most, BuildFnv::default());
        let mut accounts = Vec::with_capacity(most);
        let mut id = |a: Address| {
            *ids.entry(a).or_insert_with(|| {
                accounts.push(a);
                (accounts.len() - 1) as u32
            })
        };
        let edges: Vec<(u32, u32)> = records
            .iter()
            .map(|r| (id(r.creator), id(r.created)))
            .collect();

        let n = accounts.len();
        let mut parents = vec![None; n];
        let mut child_start = vec![0u32; n + 1];
        for &(creator, created) in &edges {
            parents[created as usize] = Some(creator);
            child_start[creator as usize + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut fill = child_start.clone();
        let mut child_ids = vec![0u32; edges.len()];
        for &(creator, created) in &edges {
            let at = &mut fill[creator as usize];
            child_ids[*at as usize] = created;
            *at += 1;
        }
        let children = child_ids.iter().map(|&c| accounts[c as usize]).collect();
        CreationIndex {
            ids,
            accounts,
            parents,
            child_start,
            children,
            child_ids,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    // `#[inline]` on what another crate's tagging calls per lookup or step.
    /// The dense id of `addr`, when a record names it.
    #[inline]
    pub fn id(&self, addr: Address) -> Option<u32> {
        self.ids.get(&addr).copied()
    }

    /// Number of indexed accounts: every id is below it.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Whether no record was indexed.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// This index's identity: unique per build, shared by clones.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    #[inline]
    fn child_run(&self, id: u32) -> std::ops::Range<usize> {
        self.child_start[id as usize] as usize..self.child_start[id as usize + 1] as usize
    }

    /// Direct creator of `addr`, if the index knows one.
    pub fn parent(&self, addr: Address) -> Option<Address> {
        let parent = self.parents[self.id(addr)? as usize]?;
        Some(self.accounts[parent as usize])
    }

    /// Direct creations of `addr`.
    pub fn children(&self, addr: Address) -> &[Address] {
        self.id(addr).map_or(&[], |id| &self.children[self.child_run(id)])
    }

    /// The ancestors of `addr`, nearest first (excludes `addr`), at most
    /// 1024 of them.
    #[inline]
    pub fn ancestors(&self, addr: Address) -> impl Iterator<Item = Address> + '_ {
        let first = self.id(addr).and_then(|id| self.parents[id as usize]);
        std::iter::successors(first, |&id| self.parents[id as usize])
            .take(MAX_ANCESTORS)
            .map(|id| self.accounts[id as usize])
    }

    /// The root of `addr`'s creation tree — the EOA that ultimately
    /// deployed its lineage (or `addr` itself when it has no recorded
    /// creator). The paper tags unknown accounts with no application tag by
    /// this root address (Fig. 7b).
    pub fn root(&self, addr: Address) -> Address {
        self.ancestors(addr).last().unwrap_or(addr)
    }

    /// All transitive creations of `addr`, preorder (excludes `addr`), at
    /// most [`CreationIndex::len`] of them.
    #[inline]
    pub fn descendants(&self, addr: Address) -> impl Iterator<Item = Address> + '_ {
        let mut walk = Descendants {
            index: self,
            stack: Vec::new(),
            left: self.len(),
        };
        if let Some(id) = self.id(addr) {
            walk.push(id);
        }
        walk
    }
}

/// Preorder walk over a creation subtree. Its stack holds the sibling ids
/// still to visit on each open level, innermost last. A level leaves the
/// stack with its last sibling, so none is empty, and a walk over an
/// account with no creations never allocates. `left` counts down from the
/// account count, which only a cycle or a repeated creation reaches.
struct Descendants<'a> {
    index: &'a CreationIndex,
    stack: Vec<&'a [u32]>,
    left: usize,
}

impl<'a> Descendants<'a> {
    #[inline]
    fn push(&mut self, id: u32) {
        let level = &self.index.child_ids[self.index.child_run(id)];
        if !level.is_empty() {
            self.stack.push(level);
        }
    }
}

impl Iterator for Descendants<'_> {
    type Item = Address;

    #[inline]
    fn next(&mut self) -> Option<Address> {
        self.left = self.left.checked_sub(1)?;
        let level = self.stack.last_mut()?;
        let (&next, rest) = level.split_first()?;
        *level = rest;
        if rest.is_empty() {
            self.stack.pop();
        }
        self.push(next);
        Some(self.index.accounts[next as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(creator: Address, created: Address) -> CreationRecord {
        CreationRecord {
            creator,
            created,
            block: 0,
        }
    }

    #[test]
    fn empty_index() {
        let idx = CreationIndex::new(&[]);
        let a = Address::from_u64(1);
        assert_eq!(idx.parent(a), None);
        assert!(idx.children(a).is_empty());
        assert_eq!(idx.root(a), a);
        assert_eq!(idx.ancestors(a).count(), 0);
        assert_eq!(idx.descendants(a).count(), 0);
    }

    #[test]
    fn three_level_tree() {
        let eoa = Address::from_u64(1);
        let factory = Address::from_u64(2);
        let p1 = Address::from_u64(3);
        let p2 = Address::from_u64(4);
        let idx = CreationIndex::new(&[rec(eoa, factory), rec(factory, p1), rec(factory, p2)]);
        assert!(idx.ancestors(p1).eq([factory, eoa]));
        assert_eq!(idx.root(p1), eoa);
        assert_eq!(idx.root(eoa), eoa);
        assert!(idx.descendants(eoa).eq([factory, p1, p2]));
        assert_eq!(idx.children(factory), &[p1, p2]);
    }

    /// `n` addresses starting at `first`, each created by the one before.
    fn chain(first: u64, n: u64) -> (Vec<Address>, Vec<CreationRecord>) {
        let addrs: Vec<Address> = (first..first + n).map(Address::from_u64).collect();
        let records = addrs.windows(2).map(|w| rec(w[0], w[1])).collect();
        (addrs, records)
    }

    #[test]
    fn ancestors_walk_nearest_first() {
        let (addrs, records) = chain(1, 100);
        let idx = CreationIndex::new(&records);
        let leaf = addrs[99];
        assert!(idx.ancestors(leaf).eq(addrs[..99].iter().rev().copied()));
        // Stopping early visits only the prefix asked for.
        assert_eq!(idx.ancestors(leaf).nth(2), Some(addrs[96]));
        assert_eq!(idx.root(leaf), addrs[0]);
    }

    #[test]
    fn ancestors_stop_after_1024_steps() {
        // A chain longer than the guard: the walk and the root stop at
        // the 1024th ancestor.
        let (addrs, records) = chain(1, 1100);
        let idx = CreationIndex::new(&records);
        let leaf = addrs[1099];
        assert_eq!(idx.ancestors(leaf).count(), MAX_ANCESTORS);
        assert_eq!(idx.root(leaf), addrs[1099 - MAX_ANCESTORS]);
        // A corrupted cycle terminates instead of spinning.
        let (a, b) = (Address::from_u64(5000), Address::from_u64(5001));
        let cyclic = CreationIndex::new(&[rec(a, b), rec(b, a)]);
        assert_eq!(cyclic.ancestors(a).count(), MAX_ANCESTORS);
        assert_eq!(cyclic.root(a), a);
    }

    #[test]
    fn descendants_walk_in_preorder() {
        //        1
        //      / | \
        //     2  5  7
        //    / \  \
        //   3   4  6
        let a = Address::from_u64;
        let idx = CreationIndex::new(&[
            rec(a(1), a(2)),
            rec(a(2), a(3)),
            rec(a(1), a(5)),
            rec(a(2), a(4)),
            rec(a(5), a(6)),
            rec(a(1), a(7)),
        ]);
        assert!(idx.descendants(a(1)).eq([2, 3, 4, 5, 6, 7].map(a)));
        assert!(idx.descendants(a(2)).eq([3, 4].map(a)));
        // Early stop: the walk yields in preorder up to where the caller
        // stops, so `find` sees 2, 3, 4, 5 and no more.
        let mut walk = idx.descendants(a(1));
        assert_eq!(walk.find(|&d| d == a(5)), Some(a(5)));
        assert!(walk.eq([6, 7].map(a)));
    }

    #[test]
    fn ids_are_dense_in_order_of_first_appearance() {
        let a = Address::from_u64;
        let idx = CreationIndex::new(&[rec(a(7), a(8)), rec(a(9), a(7)), rec(a(8), a(6))]);
        assert_eq!(idx.len(), 4);
        assert_eq!([7, 8, 9, 6].map(|i| idx.id(a(i))), [0, 1, 2, 3].map(Some));
        assert_eq!(idx.id(a(5)), None);
        assert!(CreationIndex::new(&[]).is_empty());
    }

    #[test]
    fn clones_share_a_stamp_and_builds_do_not() {
        let records = [rec(Address::from_u64(1), Address::from_u64(2))];
        let idx = CreationIndex::new(&records);
        assert_eq!(idx.clone().stamp(), idx.stamp());
        assert_ne!(CreationIndex::new(&records).stamp(), idx.stamp());
    }

    #[test]
    fn descendants_of_cycles_and_repeated_creations_are_finite() {
        let a = Address::from_u64;
        // A 2-cycle: each account once, then the walk stops.
        let cyclic = CreationIndex::new(&[rec(a(1), a(2)), rec(a(2), a(1))]);
        assert!(cyclic.descendants(a(1)).eq([2, 1].map(a)));
        // A DAG of 20 diamonds, each account created twice by the two
        // accounts of the level above: 2^20 paths from the top, so an
        // unbounded walk would visit about two million accounts.
        let level = |l: u64| [a(100 + 2 * l), a(101 + 2 * l)];
        let mut records = Vec::new();
        for l in 0..20 {
            for creator in level(l) {
                records.extend(level(l + 1).map(|created| rec(creator, created)));
            }
        }
        let dag = CreationIndex::new(&records);
        assert_eq!(dag.len(), 42);
        assert_eq!(dag.descendants(level(0)[0]).count(), dag.len());
        // The last record names the parent; every creator lists the child.
        assert_eq!(dag.parent(level(1)[0]), Some(level(0)[1]));
        assert_eq!(dag.children(level(0)[0]), &level(1));
    }
}
