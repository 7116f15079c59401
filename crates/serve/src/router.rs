//! Model router: picks the metro-area shard that serves a tweet.
//!
//! Each shard is a full serving stack (model slot, micro-batch queue,
//! response-cache partition, SLO/brownout state) loaded from its own
//! artifact (`--model NAME=PATH`, repeatable). Routing is two-tier:
//!
//! 1. **Affinity.** A union recognizer (every shard's gazetteer merged)
//!    extracts the tweet's entity mentions once; each shard's affinity is
//!    how many of those mentions its *current* entity index knows. A
//!    unique argmax with positive affinity wins — a tweet about Broadway
//!    goes to the shard whose diffusion graph actually contains Broadway.
//! 2. **Consistent hash.** Ties (including the no-known-entity case)
//!    fall through to a vnode hash ring keyed on the sorted canonical
//!    mention ids (or the raw text when no mentions at all), so equal
//!    entity sets always land on the same shard and adding/removing a
//!    shard only remaps the keys that shard owns.
//!
//! The serve path calls [`Router::route_and_resolve`], which tokenizes a
//! text once and scans those tokens with the union recognizer and then
//! with the chosen shard's. With one shard the router short-circuits to
//! shard 0 without the union scan, so the single-model path costs what
//! resolution alone costs.

use edge_core::model::EdgeModel;
use edge_text::{with_tokens, EntityRecognizer, Tokens};
use std::sync::Arc;

/// 64-bit FNV-1a with a splitmix64 finalizer. Stable and
/// dependency-free; the finalizer matters because ring placement is
/// ordered by the *high* bits, where raw FNV-1a avalanches poorly on
/// short, similar keys like `"nyma/0" .. "nyma/63"`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    finish(fnv1a_update(FNV_OFFSET, bytes))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Feeds `bytes` into a running FNV-1a state.
fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64 finalizer: full-width avalanche.
fn finish(mut hash: u64) -> u64 {
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A consistent-hash ring over shard names. Every shard contributes
/// `vnodes` points hashed from `"{name}/{v}"`, so a shard's points are a
/// pure function of its name — adding or removing a shard by name leaves
/// every other shard's points (and therefore key ownership) untouched.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard_index)` sorted by point.
    points: Vec<(u64, usize)>,
}

/// Vnodes per shard: enough to balance a handful of metro shards within
/// a few percent without bloating the binary search.
pub const DEFAULT_VNODES: usize = 64;

impl HashRing {
    pub fn new(names: &[String], vnodes: usize) -> HashRing {
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a(format!("{name}/{v}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `key`: the first ring point at or after it,
    /// wrapping at the top.
    pub fn route(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }
}

/// The hash key for a resolved entity set: sorted canonical mention ids
/// joined with an unprintable separator. Equal sets hash equally no
/// matter the mention order in the tweet.
pub fn entity_set_key<S: AsRef<str> + Ord>(mention_ids: &mut Vec<S>) -> u64 {
    mention_ids.sort_unstable();
    mention_ids.dedup();
    let mut hash = FNV_OFFSET;
    for (i, id) in mention_ids.iter().enumerate() {
        if i > 0 {
            hash = fnv1a_update(hash, "\u{1f}".as_bytes());
        }
        hash = fnv1a_update(hash, id.as_ref().as_bytes());
    }
    finish(hash)
}

/// The routing half of the serving stack: shard names, the merged
/// recognizer, and the ring. Pure and immutable — the topology is fixed
/// at startup (consistent hashing is only useful if it is stable), while
/// per-shard affinity follows hot reloads because it consults each
/// shard's current entity index at request time.
pub struct Router {
    names: Vec<String>,
    ring: HashRing,
    /// `None` for a single shard: routing is skipped entirely.
    union: Option<EntityRecognizer>,
}

impl Router {
    /// Builds the router from the shards' startup models (names and
    /// models index-aligned).
    pub fn new(names: Vec<String>, models: &[Arc<EdgeModel>]) -> Router {
        let union = (names.len() > 1).then(|| {
            let mut merged = EntityRecognizer::new();
            for model in models {
                merged.merge(model.recognizer());
            }
            merged
        });
        let ring = HashRing::new(&names, DEFAULT_VNODES);
        Router { names, ring, union }
    }

    pub fn shard_count(&self) -> usize {
        self.names.len()
    }

    pub fn shard_names(&self) -> &[String] {
        &self.names
    }

    pub fn shard_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Routes one tweet given every shard's current model (fetched once
    /// per request by the caller, index-aligned with the shard list).
    pub fn route_text(&self, text: &str, models: &[Arc<EdgeModel>]) -> usize {
        if self.union.is_none() {
            return 0;
        }
        with_tokens(text, |tokens| self.route_tokens(text, tokens, models))
    }

    /// Routes one tweet and resolves its entities on the chosen shard from
    /// one tokenization: the union recognizer scans it for affinity, then
    /// the shard's recognizer scans the same tokens. Equal to
    /// [`Self::route_text`] followed by [`EdgeModel::resolve_entities`] on
    /// the chosen shard.
    pub fn route_and_resolve(&self, text: &str, models: &[Arc<EdgeModel>]) -> (usize, Vec<usize>) {
        with_tokens(text, |tokens| {
            let shard = self.route_tokens(text, tokens, models);
            (shard, models[shard].resolve_tokens(tokens))
        })
    }

    fn route_tokens(&self, text: &str, tokens: &mut Tokens, models: &[Arc<EdgeModel>]) -> usize {
        let Some(union) = &self.union else { return 0 };
        let mut ids: Vec<&str> = Vec::new();
        union.scan(tokens, |m| ids.push(m.id));
        // Affinity: how many recognized mentions each shard's entity
        // index can actually serve.
        let mut best = 0usize;
        let mut best_count = 0usize;
        let mut tied = true;
        for (idx, model) in models.iter().enumerate() {
            let count = ids.iter().filter(|id| model.entity_index().get(id).is_some()).count();
            if count > best_count {
                best = idx;
                best_count = count;
                tied = false;
            } else if count == best_count && count > 0 {
                tied = true;
            }
        }
        if best_count > 0 && !tied {
            return best;
        }
        // Tie or no known entity: deterministic consistent hash.
        let key = if ids.is_empty() { fnv1a(text.as_bytes()) } else { entity_set_key(&mut ids) };
        self.ring.route(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ring_routing_is_deterministic() {
        let ring = HashRing::new(&names(&["nyma", "lama", "covid"]), DEFAULT_VNODES);
        for k in 0..1000u64 {
            let key = fnv1a(&k.to_le_bytes());
            assert_eq!(ring.route(key), ring.route(key));
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(&names(&["nyma", "lama", "covid"]), DEFAULT_VNODES);
        let mut counts = [0usize; 3];
        for k in 0..3000u64 {
            counts[ring.route(fnv1a(&k.to_le_bytes()))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 300, "shard {i} starved: {counts:?}");
        }
    }

    /// Removing a shard remaps exactly the keys it owned; every key on a
    /// surviving shard stays put. (The ≤ K/n consistency property —
    /// removal moves only the removed shard's share.)
    #[test]
    fn removing_a_shard_remaps_only_its_own_keys() {
        let all = names(&["nyma", "lama", "covid", "chi"]);
        let kept = names(&["nyma", "lama", "chi"]); // drop "covid"
        let before = HashRing::new(&all, DEFAULT_VNODES);
        let after = HashRing::new(&kept, DEFAULT_VNODES);
        let mut moved = 0usize;
        let total = 4000u64;
        for k in 0..total {
            let key = fnv1a(&k.to_le_bytes());
            let owner_before = all[before.route(key)].clone();
            let owner_after = kept[after.route(key)].clone();
            if owner_before == "covid" {
                moved += 1; // had to move somewhere
            } else {
                assert_eq!(owner_before, owner_after, "surviving key moved: {k}");
            }
        }
        // The removed shard owned roughly K/n of the keyspace.
        assert!(moved > 0 && moved < total as usize / 2, "moved {moved} of {total}");
    }

    /// Adding a shard only steals keys for the new shard; no key moves
    /// between pre-existing shards.
    #[test]
    fn adding_a_shard_steals_at_most_its_share() {
        let old = names(&["nyma", "lama"]);
        let new = names(&["nyma", "lama", "covid"]);
        let before = HashRing::new(&old, DEFAULT_VNODES);
        let after = HashRing::new(&new, DEFAULT_VNODES);
        let total = 4000u64;
        let mut stolen = 0usize;
        for k in 0..total {
            let key = fnv1a(&k.to_le_bytes());
            let owner_before = old[before.route(key)].clone();
            let owner_after = new[after.route(key)].clone();
            if owner_after != owner_before {
                assert_eq!(owner_after, "covid", "key {k} moved between old shards");
                stolen += 1;
            }
        }
        // Expected share is K/n = 1/3; allow generous slack but require
        // the bound that matters: well under a full reshuffle.
        assert!(stolen > 0 && stolen < (total as usize * 6) / 10, "stolen {stolen}");
    }

    #[test]
    fn entity_set_key_ignores_order_and_duplicates() {
        let mut a = vec!["times_square".to_string(), "broadway".to_string()];
        let mut b =
            vec!["broadway".to_string(), "times_square".to_string(), "broadway".to_string()];
        assert_eq!(entity_set_key(&mut a), entity_set_key(&mut b));
        let mut c = vec!["broadway".to_string()];
        assert_ne!(entity_set_key(&mut a), entity_set_key(&mut c));
    }
}
