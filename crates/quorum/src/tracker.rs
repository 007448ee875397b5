//! Accumulation of matching messages until a quorum threshold is reached.
//!
//! Every phase of every protocol in this workspace follows the same shape:
//! *collect messages that "match" (same view, same value digest) from
//! distinct senders; act once a threshold-many have arrived*. The
//! [`QuorumTracker`] factors that logic out: it is keyed by an arbitrary
//! matching key `K` and stores per-sender payloads `M` (e.g. the full signed
//! message, needed later to assemble certificates).
//!
//! Duplicate votes from the same sender for the same key are ignored — a
//! Byzantine replica cannot inflate a quorum by repeating itself (first
//! message wins, matching the "receive from a quorum of *distinct*
//! replicas" wording of Algorithm 1).
//!
//! A replica's tracker holds about one key at a time (the view and digest
//! of the proposal it is voting on), so keys are a short list searched by
//! `==`, with no hashing, and each key's votes are a vector in arrival
//! order beside a bitset of the senders seen, which answers the duplicate
//! check in one word. Readers still get the votes in sender order.

use crate::ReplicaId;
use std::fmt;

/// Result of inserting a vote into a [`QuorumTracker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumOutcome {
    /// The vote was recorded; the threshold is not yet reached.
    Pending {
        /// Votes recorded for this key so far.
        count: usize,
    },
    /// This vote completed the quorum (fires exactly once per key).
    Reached,
    /// The quorum for this key had already been reached earlier.
    AlreadyReached,
    /// This sender already voted for this key; the vote was ignored.
    Duplicate,
}

/// Collects votes from distinct senders, keyed by a matching key.
///
/// Memory is one bit per replica id up to the largest sender of a key, so
/// senders are expected to be replica indices (below `n`), as every
/// verified vote's signer is.
///
/// # Examples
///
/// ```
/// use probft_quorum::{QuorumOutcome, QuorumTracker, ReplicaId};
///
/// let mut votes: QuorumTracker<&str, ()> = QuorumTracker::new(2);
/// assert_eq!(votes.insert("v1:digest", ReplicaId(0), ()), QuorumOutcome::Pending { count: 1 });
/// assert_eq!(votes.insert("v1:digest", ReplicaId(0), ()), QuorumOutcome::Duplicate);
/// assert_eq!(votes.insert("v1:digest", ReplicaId(1), ()), QuorumOutcome::Reached);
/// ```
#[derive(Clone)]
pub struct QuorumTracker<K, M> {
    threshold: usize,
    /// One entry per key with at least one vote, in first-vote order.
    keys: Vec<KeyVotes<K, M>>,
}

/// The votes for one key.
#[derive(Clone)]
struct KeyVotes<K, M> {
    key: K,
    /// In arrival order.
    votes: Vec<(ReplicaId, M)>,
    /// Bit `id % 64` of word `id / 64` is set iff replica `id` voted.
    senders: Vec<u64>,
    reached: bool,
}

impl<K, M> KeyVotes<K, M> {
    /// Marks `sender` as having voted; `false` if it already had.
    fn mark(&mut self, sender: ReplicaId) -> bool {
        let id = sender.index();
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if self.senders.len() <= word {
            self.senders.resize(word + 1, 0);
        }
        let fresh = self.senders[word] & bit == 0;
        self.senders[word] |= bit;
        fresh
    }
}

impl<K: Eq, M> QuorumTracker<K, M> {
    /// Creates a tracker that fires once `threshold` distinct senders have
    /// voted for the same key.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    pub fn new(threshold: usize) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        QuorumTracker {
            threshold,
            keys: Vec::new(),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn entry(&self, key: &K) -> Option<&KeyVotes<K, M>> {
        self.keys.iter().find(|entry| entry.key == *key)
    }

    /// Records a vote. See [`QuorumOutcome`] for the possible results.
    pub fn insert(&mut self, key: K, sender: ReplicaId, payload: M) -> QuorumOutcome {
        let at = match self.keys.iter().position(|entry| entry.key == key) {
            Some(at) => at,
            None => {
                self.keys.push(KeyVotes {
                    key,
                    votes: Vec::new(),
                    senders: Vec::new(),
                    reached: false,
                });
                self.keys.len() - 1
            }
        };
        let entry = &mut self.keys[at];
        if !entry.mark(sender) {
            return QuorumOutcome::Duplicate;
        }
        entry.votes.push((sender, payload));
        let count = entry.votes.len();
        if entry.reached {
            QuorumOutcome::AlreadyReached
        } else if count >= self.threshold {
            entry.reached = true;
            QuorumOutcome::Reached
        } else {
            QuorumOutcome::Pending { count }
        }
    }

    /// Number of distinct senders that voted for `key`.
    pub fn count(&self, key: &K) -> usize {
        self.entry(key).map_or(0, |entry| entry.votes.len())
    }

    /// Whether the quorum for `key` has been reached.
    pub fn is_reached(&self, key: &K) -> bool {
        self.entry(key).is_some_and(|entry| entry.reached)
    }

    /// The votes collected for `key`, ordered by sender.
    pub fn votes(&self, key: &K) -> impl Iterator<Item = (ReplicaId, &M)> {
        let mut votes: Vec<(ReplicaId, &M)> = self
            .entry(key)
            .into_iter()
            .flat_map(|entry| entry.votes.iter().map(|(id, m)| (*id, m)))
            .collect();
        votes.sort_unstable_by_key(|(id, _)| *id);
        votes.into_iter()
    }

    /// The senders that voted for `key`, in ascending order.
    pub fn senders(&self, key: &K) -> Vec<ReplicaId> {
        self.votes(key).map(|(id, _)| id).collect()
    }

    /// Total number of keys with at least one vote.
    pub fn keys_len(&self) -> usize {
        self.keys.len()
    }

    /// Removes all state (e.g. on view change).
    pub fn clear(&mut self) {
        self.keys.clear();
    }
}

impl<K, M> fmt::Debug for QuorumTracker<K, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuorumTracker")
            .field("threshold", &self.threshold)
            .field("keys", &self.keys.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tracker against a map of maps: every insert's outcome, and
        /// after it every key's count, flag, votes and senders (in sender
        /// order), the number of keys, and `clear` — over up to three keys
        /// and senders 0..300, so the bitset spans five words, with senders
        /// repeated often enough to hit the duplicate path.
        #[test]
        fn tracker_matches_a_map_of_maps(
            votes in proptest::collection::vec((0u8..3, 0u32..300, any::<u8>()), 0..200),
            repeats in proptest::collection::vec(0usize..200, 0..40),
            threshold in 1usize..40,
        ) {
            let mut tracker: QuorumTracker<u8, u8> = QuorumTracker::new(threshold);
            let mut model: BTreeMap<u8, BTreeMap<ReplicaId, u8>> = BTreeMap::new();
            let mut reached: BTreeMap<u8, bool> = BTreeMap::new();
            // Some inserts replay an earlier (key, sender) with a new payload.
            let mut inserts = votes.clone();
            for at in repeats {
                if let Some(&(key, sender, payload)) = votes.get(at) {
                    inserts.push((key, sender, payload.wrapping_add(1)));
                }
            }
            for (key, sender, payload) in inserts {
                let sender = ReplicaId(sender);
                let outcome = tracker.insert(key, sender, payload);
                let senders = model.entry(key).or_default();
                let before = senders.len();
                senders.entry(sender).or_insert(payload);
                let expected = if senders.len() == before {
                    QuorumOutcome::Duplicate
                } else {
                    let flag = reached.entry(key).or_default();
                    if *flag {
                        QuorumOutcome::AlreadyReached
                    } else if senders.len() >= threshold {
                        *flag = true;
                        QuorumOutcome::Reached
                    } else {
                        QuorumOutcome::Pending { count: senders.len() }
                    }
                };
                prop_assert_eq!(outcome, expected);
                for key in 0..3 {
                    let held = model.get(&key);
                    prop_assert_eq!(tracker.count(&key), held.map_or(0, BTreeMap::len));
                    prop_assert_eq!(tracker.is_reached(&key), reached.get(&key) == Some(&true));
                    let votes: Vec<(ReplicaId, u8)> =
                        tracker.votes(&key).map(|(id, m)| (id, *m)).collect();
                    let modelled: Vec<(ReplicaId, u8)> =
                        held.into_iter().flatten().map(|(id, m)| (*id, *m)).collect();
                    prop_assert_eq!(votes, modelled);
                    let senders: Vec<ReplicaId> =
                        held.into_iter().flat_map(|m| m.keys().copied()).collect();
                    prop_assert_eq!(tracker.senders(&key), senders);
                }
                prop_assert_eq!(tracker.keys_len(), model.len());
            }
            tracker.clear();
            prop_assert_eq!(tracker.keys_len(), 0);
            for key in 0..3 {
                prop_assert_eq!(tracker.count(&key), 0);
                prop_assert!(!tracker.is_reached(&key));
                prop_assert!(tracker.senders(&key).is_empty());
            }
        }
    }

    #[test]
    fn quorum_fires_exactly_once() {
        let mut t: QuorumTracker<u64, &str> = QuorumTracker::new(3);
        assert_eq!(
            t.insert(1, ReplicaId(0), "a"),
            QuorumOutcome::Pending { count: 1 }
        );
        assert_eq!(
            t.insert(1, ReplicaId(1), "b"),
            QuorumOutcome::Pending { count: 2 }
        );
        assert_eq!(t.insert(1, ReplicaId(2), "c"), QuorumOutcome::Reached);
        assert_eq!(
            t.insert(1, ReplicaId(3), "d"),
            QuorumOutcome::AlreadyReached
        );
        assert!(t.is_reached(&1));
        assert_eq!(t.count(&1), 4);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut t: QuorumTracker<u64, ()> = QuorumTracker::new(2);
        assert_eq!(
            t.insert(9, ReplicaId(5), ()),
            QuorumOutcome::Pending { count: 1 }
        );
        for _ in 0..10 {
            assert_eq!(t.insert(9, ReplicaId(5), ()), QuorumOutcome::Duplicate);
        }
        assert_eq!(t.count(&9), 1);
        assert!(!t.is_reached(&9));
    }

    #[test]
    fn keys_are_independent() {
        let mut t: QuorumTracker<&str, ()> = QuorumTracker::new(2);
        t.insert("x", ReplicaId(0), ());
        t.insert("y", ReplicaId(0), ());
        t.insert("x", ReplicaId(1), ());
        assert!(t.is_reached(&"x"));
        assert!(!t.is_reached(&"y"));
        assert_eq!(t.keys_len(), 2);
    }

    #[test]
    fn votes_and_senders_sorted_by_replica() {
        let mut t: QuorumTracker<u8, u8> = QuorumTracker::new(10);
        t.insert(0, ReplicaId(5), 50);
        t.insert(0, ReplicaId(1), 10);
        t.insert(0, ReplicaId(3), 30);
        assert_eq!(
            t.senders(&0),
            vec![ReplicaId(1), ReplicaId(3), ReplicaId(5)]
        );
        let payloads: Vec<u8> = t.votes(&0).map(|(_, p)| *p).collect();
        assert_eq!(payloads, vec![10, 30, 50]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t: QuorumTracker<u8, ()> = QuorumTracker::new(1);
        t.insert(0, ReplicaId(0), ());
        assert!(t.is_reached(&0));
        t.clear();
        assert!(!t.is_reached(&0));
        assert_eq!(t.count(&0), 0);
        assert_eq!(t.keys_len(), 0);
    }

    #[test]
    fn threshold_one_fires_immediately() {
        let mut t: QuorumTracker<u8, ()> = QuorumTracker::new(1);
        assert_eq!(t.insert(0, ReplicaId(9), ()), QuorumOutcome::Reached);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _: QuorumTracker<u8, ()> = QuorumTracker::new(0);
    }

    #[test]
    fn missing_key_queries() {
        let t: QuorumTracker<u8, ()> = QuorumTracker::new(2);
        assert_eq!(t.count(&42), 0);
        assert!(!t.is_reached(&42));
        assert!(t.senders(&42).is_empty());
    }
}
