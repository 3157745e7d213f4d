//! The detector's view of account labels.
//!
//! LeiShen consumes an Etherscan-style label cloud: a partial map from
//! addresses to DeFi-application names. This type deliberately lives in the
//! detector crate (rather than reusing a protocol-suite type) so the
//! detector depends only on the substrate — on mainnet the labels come from
//! a web service, not from the protocols themselves.

use std::collections::HashMap;

use ethsim::{Address, BuildFnv};
use serde::{Deserialize, Serialize};

/// A partial address → application-name map, keyed with
/// [`ethsim::FnvHasher`]: tagging probes it once per account it walks.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Labels {
    map: HashMap<Address, String, BuildFnv>,
}

impl Labels {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites a label.
    pub fn set(&mut self, addr: Address, app: impl Into<String>) {
        self.map.insert(addr, app.into());
    }

    /// Removes a label (the paper strips attackers' after-the-fact labels
    /// before running detection, §VI-B).
    pub fn remove(&mut self, addr: Address) -> Option<String> {
        self.map.remove(&addr)
    }

    /// Looks up a label.
    pub fn get(&self, addr: Address) -> Option<&str> {
        self.map.get(&addr).map(String::as_str)
    }

    /// Number of labeled addresses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no address is labeled.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(address, label)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Address, &str)> {
        self.map.iter().map(|(a, s)| (*a, s.as_str()))
    }
}

impl FromIterator<(Address, String)> for Labels {
    fn from_iter<T: IntoIterator<Item = (Address, String)>>(iter: T) -> Self {
        Labels {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut l = Labels::new();
        assert!(l.is_empty());
        let a = Address::from_u64(1);
        l.set(a, "Uniswap");
        assert_eq!(l.get(a), Some("Uniswap"));
        assert_eq!(l.len(), 1);
        assert_eq!(l.remove(a).as_deref(), Some("Uniswap"));
        assert!(l.get(a).is_none());
    }

    #[test]
    fn from_iterator() {
        let l: Labels = vec![
            (Address::from_u64(1), "A".to_string()),
            (Address::from_u64(2), "B".to_string()),
        ]
        .into_iter()
        .collect();
        assert_eq!(l.len(), 2);
        assert_eq!(l.get(Address::from_u64(2)), Some("B"));
    }
}
