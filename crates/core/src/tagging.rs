//! Account tagging — from 160-bit addresses to application identities
//! (paper §V-B1, Fig. 7).
//!
//! The paper observes (over 52,500 Etherscan-tagged accounts of 119 apps)
//! that accounts related by contract creation share an application tag.
//! Unknown accounts are therefore tagged by looking at their creation tree:
//!
//! * the tree contains exactly **one** distinct application tag among the
//!   account's ancestors and descendants → the account gets that tag
//!   (Fig. 7a);
//! * the tree contains **no** tag → the account is tagged with its tree's
//!   root address, which still groups the attacker EOA with the attack
//!   contracts it deployed (Fig. 7b) — the property DeFiRanger lacks;
//! * the tree contains **conflicting** tags (e.g. a Yearn deployer created
//!   a Uniswap pool; < 0.1% of accounts) → the account stays untaggable
//!   (Fig. 7c).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ethsim::{Address, CreationIndex, TokenId, Transfer};
use serde::{Deserialize, Serialize};

use crate::labels::Labels;

/// The application-level identity of an account.
// The manual `PartialEq` below only adds an `Arc::ptr_eq` shortcut in
// front of the same comparison the derive would generate, so the derived
// `Hash` still agrees with it: equal tags hash equally.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Debug, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tag {
    /// A DeFi application name (from the label cloud or propagated).
    ///
    /// Interned as `Arc<str>` so cloning a tag — which the simplification
    /// and trade stages do constantly, and which a [`crate::scan::TagCache`]
    /// hit does once per lookup — is a reference-count bump instead of a
    /// string allocation.
    App(Arc<str>),
    /// No tag anywhere in the creation tree: identified by the tree root.
    Root(Address),
    /// Conflicting tags in the creation tree: untaggable (Fig. 7c).
    Unknown(Address),
    /// The zero / mint-burn address.
    BlackHole,
}

impl PartialEq for Tag {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Pointer test first: cache-interned tags share one `Arc`, so
            // the pattern stage's per-leg `buyer == borrower` compares
            // short-circuit without touching the string bytes.
            (Tag::App(a), Tag::App(b)) => Arc::ptr_eq(a, b) || a == b,
            (Tag::Root(a), Tag::Root(b)) => a == b,
            (Tag::Unknown(a), Tag::Unknown(b)) => a == b,
            (Tag::BlackHole, Tag::BlackHole) => true,
            _ => false,
        }
    }
}

impl Eq for Tag {}

impl Tag {
    /// Whether this is the BlackHole (mint/burn) tag.
    pub fn is_black_hole(&self) -> bool {
        matches!(self, Tag::BlackHole)
    }

    /// Whether the account could not be tagged (conflicting tree tags).
    pub fn is_unknown(&self) -> bool {
        matches!(self, Tag::Unknown(_))
    }

    /// The application name, when this is an [`Tag::App`].
    pub fn app_name(&self) -> Option<&str> {
        match self {
            Tag::App(name) => Some(name.as_ref()),
            _ => None,
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tag::App(name) => write!(f, "{name}"),
            Tag::Root(addr) => write!(f, "root:{}", addr.short()),
            Tag::Unknown(addr) => write!(f, "?{}", addr.short()),
            Tag::BlackHole => write!(f, "BlackHole"),
        }
    }
}

/// Address → [`Tag`] assignment for one transaction's accounts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagMap {
    tags: HashMap<Address, Tag>,
}

impl TagMap {
    /// Builds the tag map for every address in `addresses`.
    pub fn build(
        addresses: impl IntoIterator<Item = Address>,
        labels: &Labels,
        creations: &CreationIndex,
    ) -> TagMap {
        let mut tags = HashMap::new();
        for addr in addresses {
            tags.entry(addr)
                .or_insert_with(|| tag_of(addr, labels, creations));
        }
        TagMap { tags }
    }

    /// Tag of `addr`: [`Tag::BlackHole`] for the zero address, the built
    /// tag for an address in the built set, and `Tag::Root(addr)` for any
    /// other address. That fallback is wrong for an account with a
    /// creator or a label, so build the map over every address you ask about.
    pub fn get(&self, addr: Address) -> Tag {
        if addr.is_zero() {
            return Tag::BlackHole;
        }
        self.tags
            .get(&addr)
            .cloned()
            .unwrap_or(Tag::Root(addr))
    }
}

/// Computes the tag of a single address per the Fig. 7 rules.
pub fn tag_of(addr: Address, labels: &Labels, creations: &CreationIndex) -> Tag {
    if addr.is_zero() {
        return Tag::BlackHole;
    }
    if let Some(app) = labels.get(addr) {
        return Tag::App(Arc::from(app));
    }
    // One walk over the ancestors (nearest first, noting the last as the
    // root) and the descendants (preorder). A second distinct app name
    // settles the conflict, so the walk stops there. Names are borrowed
    // from the label cloud; only the winning one is interned.
    let mut root = addr;
    let mut found: Option<&str> = None;
    let related = creations
        .ancestors(addr)
        .inspect(|&anc| root = anc)
        .chain(creations.descendants(addr));
    for name in related.filter_map(|a| labels.get(a)) {
        match found {
            None => found = Some(name),
            Some(first) if first != name => return Tag::Unknown(addr),
            Some(_) => {}
        }
    }
    match found {
        Some(name) => Tag::App(Arc::from(name)),
        None => Tag::Root(root),
    }
}

/// A tagged asset transfer — the paper's
/// `tagT_i = (tag_sender, tag_receiver, amount, token)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaggedTransfer {
    /// Position in the transaction's action stream (preserved through
    /// simplification so trades keep their ordering).
    pub seq: u32,
    /// Application tag of the paying account.
    pub sender: Tag,
    /// Application tag of the receiving account.
    pub receiver: Tag,
    /// Raw token units moved.
    pub amount: u128,
    /// Asset moved.
    pub token: TokenId,
}

/// Tags a transaction's account-level transfers.
pub fn tag_transfers(
    transfers: &[Transfer],
    labels: &Labels,
    creations: &CreationIndex,
) -> Vec<TaggedTransfer> {
    let addrs = transfers
        .iter()
        .flat_map(|t| [t.sender, t.receiver])
        .filter(|a| !a.is_zero());
    let map = TagMap::build(addrs, labels, creations);
    transfers
        .iter()
        .map(|t| TaggedTransfer {
            seq: t.seq,
            sender: map.get(t.sender),
            receiver: map.get(t.receiver),
            amount: t.amount,
            token: t.token,
        })
        .collect()
}

/// Tags a transaction's account-level transfers through a caller-supplied
/// resolver (which must map the zero address to [`Tag::BlackHole`]) into
/// a reused buffer (cleared first). A memoizing resolver such as
/// [`crate::scan::TagCache::resolve`] already deduplicates addresses, so
/// no per-transaction [`TagMap`] is built; and the tagged list is
/// transient in the full pipeline, so batch scanners keep one buffer per
/// worker instead of allocating one per transaction.
pub fn tag_transfers_with_into(
    transfers: &[Transfer],
    mut resolve: impl FnMut(Address) -> Tag,
    out: &mut Vec<TaggedTransfer>,
) {
    out.clear();
    out.extend(transfers.iter().map(|t| TaggedTransfer {
        seq: t.seq,
        sender: resolve(t.sender),
        receiver: resolve(t.receiver),
        amount: t.amount,
        token: t.token,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::CreationRecord;

    fn rec(creator: Address, created: Address) -> CreationRecord {
        CreationRecord {
            creator,
            created,
            block: 0,
        }
    }

    #[test]
    fn directly_labeled_account_keeps_its_label() {
        let a = Address::from_u64(1);
        let mut labels = Labels::new();
        labels.set(a, "Uniswap");
        let idx = CreationIndex::new(&[]);
        assert_eq!(tag_of(a, &labels, &idx), Tag::App("Uniswap".into()));
    }

    #[test]
    fn fig7a_single_tag_propagates_down_and_up() {
        // a1(EOA, "Uniswap") -> a2(factory) -> a3(pool)
        let a1 = Address::from_u64(1);
        let a2 = Address::from_u64(2);
        let a3 = Address::from_u64(3);
        let mut labels = Labels::new();
        labels.set(a1, "Uniswap");
        let idx = CreationIndex::new(&[rec(a1, a2), rec(a2, a3)]);
        assert_eq!(tag_of(a3, &labels, &idx), Tag::App("Uniswap".into()));
        assert_eq!(tag_of(a2, &labels, &idx), Tag::App("Uniswap".into()));
        // upward propagation: only the *descendant* is labeled
        let mut labels2 = Labels::new();
        labels2.set(a3, "Uniswap");
        assert_eq!(tag_of(a1, &labels2, &idx), Tag::App("Uniswap".into()));
    }

    #[test]
    fn fig7b_untagged_tree_uses_root_address() {
        let b1 = Address::from_u64(11);
        let b2 = Address::from_u64(12);
        let b3 = Address::from_u64(13);
        let labels = Labels::new();
        let idx = CreationIndex::new(&[rec(b1, b2), rec(b2, b3)]);
        assert_eq!(tag_of(b3, &labels, &idx), Tag::Root(b1));
        assert_eq!(tag_of(b2, &labels, &idx), Tag::Root(b1));
        assert_eq!(tag_of(b1, &labels, &idx), Tag::Root(b1));
        // attacker EOA and its contract share one identity
        assert_eq!(tag_of(b1, &labels, &idx), tag_of(b3, &labels, &idx));
    }

    #[test]
    fn fig7c_conflicting_tags_stay_unknown() {
        // c1 -> c2("Yearn") ; c1 -> c3("Uniswap"); c4 created by c1
        let c1 = Address::from_u64(21);
        let c2 = Address::from_u64(22);
        let c3 = Address::from_u64(23);
        let c4 = Address::from_u64(24);
        let mut labels = Labels::new();
        labels.set(c2, "Yearn");
        labels.set(c3, "Uniswap");
        let idx = CreationIndex::new(&[rec(c1, c2), rec(c1, c3), rec(c1, c4)]);
        assert_eq!(tag_of(c1, &labels, &idx), Tag::Unknown(c1));
        // c4's ancestors (c1) are unlabeled and it has no descendants:
        // its tag set is empty -> Root(c1).
        assert_eq!(tag_of(c4, &labels, &idx), Tag::Root(c1));
        assert!(tag_of(c1, &labels, &idx).is_unknown());
    }

    #[test]
    fn tag_of_returns_on_a_creation_cycle() {
        // Corrupted records a -> b -> a, no labels: both walks stop at
        // their bounds, and the 1024th ancestor of `a` is `a` itself.
        let a = Address::from_u64(31);
        let b = Address::from_u64(32);
        let idx = CreationIndex::new(&[rec(a, b), rec(b, a)]);
        assert_eq!(tag_of(a, &Labels::new(), &idx), Tag::Root(a));
    }

    #[test]
    fn black_hole_is_special() {
        let labels = Labels::new();
        let idx = CreationIndex::new(&[]);
        assert_eq!(tag_of(Address::ZERO, &labels, &idx), Tag::BlackHole);
        assert!(Tag::BlackHole.is_black_hole());
    }

    #[test]
    fn tag_transfers_maps_both_sides() {
        let uni_deployer = Address::from_u64(1);
        let pool = Address::from_u64(2);
        let attacker = Address::from_u64(3);
        let attack_contract = Address::from_u64(4);
        let mut labels = Labels::new();
        labels.set(uni_deployer, "Uniswap");
        let idx = CreationIndex::new(&[rec(uni_deployer, pool), rec(attacker, attack_contract)]);
        let transfers = vec![
            Transfer {
                seq: 0,
                sender: attack_contract,
                receiver: pool,
                amount: 10,
                token: TokenId::ETH,
            },
            Transfer {
                seq: 1,
                sender: Address::ZERO,
                receiver: attack_contract,
                amount: 5,
                token: TokenId::from_index(1),
            },
        ];
        let tagged = tag_transfers(&transfers, &labels, &idx);
        assert_eq!(tagged[0].sender, Tag::Root(attacker));
        assert_eq!(tagged[0].receiver, Tag::App("Uniswap".into()));
        assert_eq!(tagged[1].sender, Tag::BlackHole);
        assert_eq!(tagged[1].receiver, Tag::Root(attacker));
        assert_eq!(tagged[0].seq, 0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Tag::App("Aave".into()).to_string(), "Aave");
        assert_eq!(Tag::BlackHole.to_string(), "BlackHole");
        assert!(Tag::Root(Address::from_u64(1)).to_string().starts_with("root:"));
        assert!(Tag::Unknown(Address::from_u64(1)).to_string().starts_with('?'));
    }

    #[test]
    fn app_name_accessor() {
        assert_eq!(Tag::App("X".into()).app_name(), Some("X"));
        assert_eq!(Tag::BlackHole.app_name(), None);
    }
}
