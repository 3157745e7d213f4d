//! Contract-creation relationships — the substrate's XBlock-ETH dataset.
//!
//! LeiShen's account tagging (paper §V-B1) propagates DeFi-application tags
//! along contract-creation edges, using the creation dataset of Zheng et al.
//! (XBlock-ETH). Our chain records every creation as a [`CreationRecord`];
//! [`CreationIndex`] provides the parent/child queries the tagging tree
//! builder needs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::address::Address;

/// FNV-1a, eight bytes per round, for maps keyed by addresses: the index
/// below, and the detector's tag cache and label cloud. It is unkeyed, so
/// whoever picks the keys can pick colliding ones; it is safe here only
/// because [`Address::derive`] assigns every contract address on this
/// substrate. On real chain data an adversary chooses addresses (CREATE2
/// lets it grind them) and gains from slowing the monitor, so a deployment
/// there needs a keyed hasher in all three maps. Here it costs several
/// times less per probe than SipHash. ([`Address::derive`] and
/// [`Address::from_seed`] keep their byte-at-a-time FNV: it defines every
/// address.)
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
/// Both walks are lazy iterators, so a caller that stops early (the
/// tagging stage stops at its second application name) pays only for the
/// accounts it visits. The ancestor walk never allocates; the descendant
/// walk allocates its stack once, and only for an account with creations.
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
/// ```
#[derive(Clone, Debug, Default)]
pub struct CreationIndex {
    parent: HashMap<Address, Address, BuildFnv>,
    children: HashMap<Address, Vec<Address>, BuildFnv>,
}

/// Creation graphs are trees (an address is created once); this bound on
/// an ancestor walk still guards against corrupted inputs with a cycle.
const MAX_ANCESTORS: usize = 1024;

impl CreationIndex {
    /// Builds the index from creation records.
    pub fn new(records: &[CreationRecord]) -> Self {
        let mut idx = CreationIndex::default();
        for r in records {
            idx.parent.insert(r.created, r.creator);
            idx.children.entry(r.creator).or_default().push(r.created);
        }
        idx
    }

    /// Direct creator of `addr`, if the index knows one.
    pub fn parent(&self, addr: Address) -> Option<Address> {
        self.parent.get(&addr).copied()
    }

    /// Direct creations of `addr`.
    pub fn children(&self, addr: Address) -> &[Address] {
        self.children.get(&addr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The ancestors of `addr`, nearest first (excludes `addr`), at most
    /// 1024 of them.
    pub fn ancestors(&self, addr: Address) -> impl Iterator<Item = Address> + '_ {
        std::iter::successors(self.parent(addr), |&a| self.parent(a)).take(MAX_ANCESTORS)
    }

    /// The root of `addr`'s creation tree — the EOA that ultimately
    /// deployed its lineage (or `addr` itself when it has no recorded
    /// creator). The paper tags unknown accounts with no application tag by
    /// this root address (Fig. 7b).
    pub fn root(&self, addr: Address) -> Address {
        self.ancestors(addr).last().unwrap_or(addr)
    }

    /// All transitive creations of `addr`, preorder (excludes `addr`).
    pub fn descendants(&self, addr: Address) -> impl Iterator<Item = Address> + '_ {
        let mut walk = Descendants {
            index: self,
            stack: Vec::new(),
        };
        walk.push(self.children(addr));
        walk
    }
}

/// Preorder walk over a creation subtree. Its stack holds the siblings
/// still to visit on each open level, innermost last. A level leaves the
/// stack with its last sibling, so none is empty, and a walk over an
/// account with no creations never allocates.
struct Descendants<'a> {
    index: &'a CreationIndex,
    stack: Vec<&'a [Address]>,
}

impl<'a> Descendants<'a> {
    fn push(&mut self, level: &'a [Address]) {
        if !level.is_empty() {
            self.stack.push(level);
        }
    }
}

impl Iterator for Descendants<'_> {
    type Item = Address;

    fn next(&mut self) -> Option<Address> {
        let level = self.stack.last_mut()?;
        let (&next, rest) = level.split_first()?;
        *level = rest;
        if rest.is_empty() {
            self.stack.pop();
        }
        self.push(self.index.children(next));
        Some(next)
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
}
