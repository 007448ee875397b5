//! The three protocol predicates of Algorithm 1: `prepared`,
//! `validNewLeader`, and `safeProposal`, plus the leader's
//! proposal-selection rule (lines 7–12).
//!
//! These are pure functions over messages and the verification context, so
//! they can be exhaustively unit-tested away from the event loop — and the
//! leader's selection rule and the validators' `safeProposal` re-check are
//! literally the same code, which is what the paper's "redoing the leader's
//! computation" requires. They are generic over the vote policy
//! ([`CertVote`]), so ProBFT and the PBFT baseline run the same predicates
//! over their own certificates.

use crate::config::View;
use crate::message::{CertVote, NewLeaderBody, ProposeBody, VerifyCtx};
use crate::sampling::Phase;
use crate::signed::Signed;
use crate::value::Value;
use probft_crypto::sha256::Digest;
use probft_quorum::ReplicaId;
use std::collections::{BTreeMap, BTreeSet};

/// The `prepared(C, v, x, j)` predicate (§3.2).
///
/// True iff `cert` contains Prepare votes from a quorum of distinct
/// replicas, each cryptographically valid, each for `(view, value)`, and
/// each one the certificate holder `j` may count (in ProBFT: whose
/// recipient sample contains `j`).
pub fn prepared<V: CertVote>(
    cert: &[Signed<V>],
    view: View,
    value: &Value,
    holder: ReplicaId,
    ctx: &VerifyCtx<'_>,
) -> bool {
    if view.is_none() {
        return false;
    }
    let digest = value.digest();
    let senders: BTreeSet<ReplicaId> = cert
        .iter()
        .filter(|vote| vote.view() == view && vote.digest() == digest)
        .filter(|vote| vote.counts_for(holder, ctx.cfg))
        .filter(|vote| V::verify_vote(vote, Phase::Prepare, ctx).is_ok())
        .map(|vote| vote.signer())
        .collect();
    senders.len() >= V::quorum(ctx.cfg)
}

/// The `validNewLeader(m)` predicate (§3.2).
///
/// A NewLeader message is valid if it reports a prepared view strictly
/// before the view being entered, and — when it reports one at all — backs
/// it with a valid prepared certificate. A report of "never prepared"
/// (`prepared_view = 0`) must carry no value and no certificate.
pub fn valid_new_leader<V: CertVote>(m: &Signed<NewLeaderBody<V>>, ctx: &VerifyCtx<'_>) -> bool {
    if m.prepared_view >= m.view {
        return false;
    }
    if m.prepared_view.is_none() {
        return m.prepared_value.is_none() && m.cert.is_empty();
    }
    let Some(value) = &m.prepared_value else {
        return false;
    };
    prepared(&m.cert, m.prepared_view, value, m.sender, ctx)
}

/// The leader's proposal-choice rule (lines 7–8): the value prepared in the
/// most recent view by the most replicas, or `None` if no justification
/// message reports a prepared value (leader is then free to propose its
/// own).
///
/// Ties in the mode are broken by smallest value digest, deterministically,
/// so that the leader and every validator agree (see DESIGN.md,
/// "Paper-fidelity notes", note 3).
///
/// This is also PBFT's rule, "the value of the highest prepared view":
/// there a report counts only with a certificate of `⌈(n+f+1)/2⌉` Prepare
/// votes, two such certificates for one view share a correct replica, and a
/// correct replica casts one Prepare per view — so every valid report of
/// the highest prepared view names the same value, and the mode over one
/// distinct value is that value. The tie-break never runs.
pub fn choose_proposal<V>(justification: &[Signed<NewLeaderBody<V>>]) -> Option<Value> {
    let v_max = justification
        .iter()
        .map(|m| m.prepared_view)
        .max()
        .unwrap_or(View::NONE);
    if v_max.is_none() {
        return None;
    }
    // mode{ val_j : prepared_view_j = v_max }
    let mut counts: BTreeMap<Digest, (usize, &Value)> = BTreeMap::new();
    for m in justification {
        if m.prepared_view == v_max {
            if let Some(value) = &m.prepared_value {
                let e = counts.entry(value.digest()).or_insert((0, value));
                e.0 += 1;
            }
        }
    }
    // Max count; ties resolved by the BTreeMap's digest order (smallest
    // digest wins) by scanning in order and requiring a strict improvement.
    counts
        .values()
        .fold(
            None::<(usize, &Value)>,
            |best, &(count, value)| match best {
                Some((best_count, _)) if best_count >= count => best,
                _ => Some((count, value)),
            },
        )
        .map(|(_, v)| v.clone())
}

/// The `safeProposal(m)` predicate (§3.2).
///
/// Validators re-run the leader's computation: in view 1 any valid value is
/// safe; in later views the Propose must carry a deterministic quorum of
/// valid NewLeader messages from distinct senders, and the proposed value
/// must equal the outcome of [`choose_proposal`] over them (or be free when
/// no replica reported a prepared value).
///
/// Assumes `propose` has already passed cryptographic verification
/// (`Propose::verify`, which also binds the value to the header's digest);
/// this function performs only the semantic checks.
pub fn safe_proposal<V: CertVote>(propose: &Signed<ProposeBody<V>>, ctx: &VerifyCtx<'_>) -> bool {
    let view = propose.proposal.view;
    if view.is_none() {
        return false;
    }
    if ctx.cfg.leader_of(view) != propose.proposal.leader {
        return false;
    }
    if !ctx.cfg.validity().is_valid(&propose.value) {
        return false;
    }
    if view == View::FIRST {
        return true;
    }
    // |M| ≥ ⌈(n+f+1)/2⌉ distinct valid senders.
    let mut senders: BTreeSet<ReplicaId> = BTreeSet::new();
    for m in &propose.justification {
        if m.view != view || !valid_new_leader(m, ctx) {
            return false;
        }
        senders.insert(m.sender);
    }
    if senders.len() < ctx.cfg.deterministic_quorum() {
        return false;
    }
    match choose_proposal(&propose.justification) {
        // Some replica prepared: the leader is bound to the mode value.
        Some(required) => required.digest() == propose.proposal.digest,
        // Nobody prepared: the leader may propose any valid value.
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProbftConfig;
    use crate::message::{NewLeader, PhaseBody, PhaseMessage, Propose};
    use probft_crypto::keyring::Keyring;
    use probft_quorum::ReplicaId;

    /// Small config where q is tiny, so certificates are easy to build:
    /// n = 16, l = 1 → q = 4, o = 1.5 → s = 6.
    fn setup() -> (ProbftConfig, Keyring) {
        let cfg = ProbftConfig::builder(16)
            .quorum_multiplier(1.0)
            .overprovision(1.5)
            .build();
        let ring = Keyring::generate(16, b"pred-test");
        (cfg, ring)
    }

    /// The leader of `view` proposing `Value::from_tag(tag)`.
    fn propose(
        cfg: &ProbftConfig,
        ring: &Keyring,
        view: View,
        tag: u64,
        justification: Vec<NewLeader>,
    ) -> Propose {
        let leader = cfg.leader_of(view);
        let sk = ring.signing_key(leader.index()).unwrap();
        Propose::lead(sk, leader, view, Value::from_tag(tag), justification)
    }

    /// Builds Prepare messages for `(view, tag)` from enough senders whose
    /// samples include `holder`, by scanning the population.
    fn cert_for(
        cfg: &ProbftConfig,
        ring: &Keyring,
        view: View,
        tag: u64,
        holder: ReplicaId,
        want: usize,
    ) -> Vec<PhaseMessage> {
        let proposal = propose(cfg, ring, view, tag, vec![]).proposal;
        let mut cert = Vec::new();
        for i in 0..cfg.n() {
            let sk = ring.signing_key(i).unwrap();
            let vote = PhaseBody::cast(sk, cfg, Phase::Prepare, ReplicaId::from(i), &proposal);
            if vote.counts_for(holder, cfg) {
                cert.push(vote);
                if cert.len() == want {
                    break;
                }
            }
        }
        assert_eq!(cert.len(), want, "population too small to build cert");
        cert
    }

    #[test]
    fn prepared_accepts_valid_certificate() {
        let (cfg, ring) = setup();
        let holder = ReplicaId(2);
        let cert = cert_for(&cfg, &ring, View(1), 7, holder, cfg.probabilistic_quorum());
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(prepared(&cert, View(1), &Value::from_tag(7), holder, &ctx));
    }

    #[test]
    fn prepared_rejects_undersized_certificate() {
        let (cfg, ring) = setup();
        let holder = ReplicaId(2);
        let cert = cert_for(
            &cfg,
            &ring,
            View(1),
            7,
            holder,
            cfg.probabilistic_quorum() - 1,
        );
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(!prepared(&cert, View(1), &Value::from_tag(7), holder, &ctx));
    }

    #[test]
    fn prepared_ignores_duplicate_senders() {
        let (cfg, ring) = setup();
        let holder = ReplicaId(2);
        let mut cert = cert_for(
            &cfg,
            &ring,
            View(1),
            7,
            holder,
            cfg.probabilistic_quorum() - 1,
        );
        // Pad with copies of the first message: distinct-sender count stays
        // below q.
        let dup = cert[0];
        cert.push(dup);
        cert.push(dup);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(!prepared(&cert, View(1), &Value::from_tag(7), holder, &ctx));
    }

    #[test]
    fn prepared_rejects_wrong_holder() {
        let (cfg, ring) = setup();
        let holder = ReplicaId(2);
        let cert = cert_for(&cfg, &ring, View(1), 7, holder, cfg.probabilistic_quorum());
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        // A different replica cannot claim this certificate unless every
        // sample happens to contain it too; find one excluded somewhere.
        let other = (0..cfg.n())
            .map(ReplicaId::from)
            .find(|id| cert.iter().any(|m| !m.counts_for(*id, &cfg)))
            .expect("some replica excluded from some sample");
        assert!(!prepared(&cert, View(1), &Value::from_tag(7), other, &ctx));
    }

    #[test]
    fn prepared_rejects_mismatched_value_or_view() {
        let (cfg, ring) = setup();
        let holder = ReplicaId(2);
        let cert = cert_for(&cfg, &ring, View(1), 7, holder, cfg.probabilistic_quorum());
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(!prepared(&cert, View(1), &Value::from_tag(8), holder, &ctx));
        assert!(!prepared(&cert, View(2), &Value::from_tag(7), holder, &ctx));
        assert!(!prepared(
            &cert,
            View::NONE,
            &Value::from_tag(7),
            holder,
            &ctx
        ));
    }

    fn new_leader_none(ring: &Keyring, sender: usize, view: View) -> NewLeader {
        NewLeader::sign(
            ring.signing_key(sender).unwrap(),
            NewLeaderBody {
                sender: ReplicaId::from(sender),
                view,
                prepared_view: View::NONE,
                prepared_value: None,
                cert: vec![],
            },
        )
    }

    #[test]
    fn valid_new_leader_accepts_empty_report() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(valid_new_leader(&new_leader_none(&ring, 0, View(2)), &ctx));
    }

    #[test]
    fn valid_new_leader_rejects_future_prepared_view() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let m = NewLeader::sign(
            ring.signing_key(0).unwrap(),
            NewLeaderBody {
                sender: ReplicaId(0),
                view: View(2),
                prepared_view: View(2), // not < view
                prepared_value: Some(Value::from_tag(1)),
                cert: vec![],
            },
        );
        assert!(!valid_new_leader(&m, &ctx));
    }

    #[test]
    fn valid_new_leader_rejects_value_without_cert() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let m = NewLeader::sign(
            ring.signing_key(0).unwrap(),
            NewLeaderBody {
                sender: ReplicaId(0),
                view: View(2),
                prepared_view: View(1),
                prepared_value: Some(Value::from_tag(1)),
                cert: vec![],
            },
        );
        assert!(!valid_new_leader(&m, &ctx));
    }

    #[test]
    fn valid_new_leader_rejects_cert_without_value() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let m = NewLeader::sign(
            ring.signing_key(0).unwrap(),
            NewLeaderBody {
                sender: ReplicaId(0),
                view: View(2),
                prepared_view: View(1),
                prepared_value: None,
                cert: vec![],
            },
        );
        assert!(!valid_new_leader(&m, &ctx));
    }

    #[test]
    fn valid_new_leader_accepts_proper_certificate() {
        let (cfg, ring) = setup();
        let holder = ReplicaId(3);
        let cert = cert_for(&cfg, &ring, View(1), 7, holder, cfg.probabilistic_quorum());
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let m = NewLeader::sign(
            ring.signing_key(3).unwrap(),
            NewLeaderBody {
                sender: holder,
                view: View(2),
                prepared_view: View(1),
                prepared_value: Some(Value::from_tag(7)),
                cert,
            },
        );
        assert!(valid_new_leader(&m, &ctx));
    }

    #[test]
    fn choose_proposal_none_when_nothing_prepared() {
        let (_, ring) = setup();
        let ms: Vec<NewLeader> = (0..3).map(|i| new_leader_none(&ring, i, View(2))).collect();
        assert_eq!(choose_proposal(&ms), None);
        assert_eq!(choose_proposal::<PhaseBody>(&[]), None);
    }

    #[test]
    fn choose_proposal_takes_mode_of_latest_view() {
        let (_, ring) = setup();
        let make = |sender: usize, pview: u64, tag: u64| {
            NewLeader::sign(
                ring.signing_key(sender).unwrap(),
                NewLeaderBody {
                    sender: ReplicaId::from(sender),
                    view: View(5),
                    prepared_view: View(pview),
                    prepared_value: Some(Value::from_tag(tag)),
                    cert: vec![], // cert validity not needed by choose_proposal
                },
            )
        };
        // Latest prepared view is 3; among those, value 9 appears twice,
        // value 8 once. An older view-2 report of value 7 is ignored.
        let ms = vec![make(0, 3, 9), make(1, 3, 8), make(2, 3, 9), make(3, 2, 7)];
        assert_eq!(choose_proposal(&ms), Some(Value::from_tag(9)));
    }

    #[test]
    fn choose_proposal_breaks_ties_by_digest() {
        let (_, ring) = setup();
        let make = |sender: usize, tag: u64| {
            NewLeader::sign(
                ring.signing_key(sender).unwrap(),
                NewLeaderBody {
                    sender: ReplicaId::from(sender),
                    view: View(5),
                    prepared_view: View(3),
                    prepared_value: Some(Value::from_tag(tag)),
                    cert: vec![],
                },
            )
        };
        let a = Value::from_tag(1);
        let b = Value::from_tag(2);
        let expected = if a.digest() < b.digest() { a } else { b };
        let ms = vec![make(0, 1), make(1, 2)];
        assert_eq!(choose_proposal(&ms), Some(expected.clone()));
        // Order of the justification must not matter.
        let ms_rev = vec![make(1, 2), make(0, 1)];
        assert_eq!(choose_proposal(&ms_rev), Some(expected));
    }

    #[test]
    fn safe_proposal_view_one_accepts_any_valid_value() {
        let (cfg, ring) = setup();
        let propose = propose(&cfg, &ring, View(1), 42, vec![]);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(safe_proposal(&propose, &ctx));
    }

    #[test]
    fn safe_proposal_rejects_invalid_value() {
        let ring = Keyring::generate(16, b"pred-test");
        let cfg = ProbftConfig::builder(16)
            .quorum_multiplier(1.0)
            .validity(crate::value::ValidityPredicate::new(|v| v.len() < 4))
            .build();
        let propose = propose(&cfg, &ring, View(1), 1, vec![]); // "value-1" is 7 bytes
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(!safe_proposal(&propose, &ctx));
    }

    #[test]
    fn safe_proposal_later_view_requires_quorum() {
        let (cfg, ring) = setup();
        let view = View(2);
        // Too few NewLeader messages.
        let justification: Vec<NewLeader> =
            (0..3).map(|i| new_leader_none(&ring, i, view)).collect();
        let propose = propose(&cfg, &ring, view, 1, justification);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(!safe_proposal(&propose, &ctx));
    }

    #[test]
    fn safe_proposal_later_view_with_full_quorum() {
        let (cfg, ring) = setup();
        let view = View(2);
        let dq = cfg.deterministic_quorum();
        let justification: Vec<NewLeader> =
            (0..dq).map(|i| new_leader_none(&ring, i, view)).collect();
        let propose = propose(&cfg, &ring, view, 1, justification);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(safe_proposal(&propose, &ctx));
    }

    #[test]
    fn safe_proposal_duplicate_senders_do_not_count() {
        let (cfg, ring) = setup();
        let view = View(2);
        let dq = cfg.deterministic_quorum();
        // dq messages but all from sender 0.
        let justification: Vec<NewLeader> =
            (0..dq).map(|_| new_leader_none(&ring, 0, view)).collect();
        let propose = propose(&cfg, &ring, view, 1, justification);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(!safe_proposal(&propose, &ctx));
    }

    #[test]
    fn safe_proposal_binds_leader_to_prepared_value() {
        let (cfg, ring) = setup();
        let view = View(2);
        let dq = cfg.deterministic_quorum();

        // Replica 3 prepared value 7 in view 1; everyone else reports none.
        let holder = ReplicaId(3);
        let cert = cert_for(&cfg, &ring, View(1), 7, holder, cfg.probabilistic_quorum());
        let mut justification: Vec<NewLeader> = vec![NewLeader::sign(
            ring.signing_key(3).unwrap(),
            NewLeaderBody {
                sender: holder,
                view,
                prepared_view: View(1),
                prepared_value: Some(Value::from_tag(7)),
                cert,
            },
        )];
        for i in 0..dq - 1 {
            let sender = if i >= 3 { i + 1 } else { i }; // skip replica 3
            justification.push(new_leader_none(&ring, sender, view));
        }

        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);

        // Leader proposing the prepared value: safe.
        let good = propose(&cfg, &ring, view, 7, justification.clone());
        assert!(safe_proposal(&good, &ctx));

        // Leader proposing something else: unsafe.
        let bad = propose(&cfg, &ring, view, 8, justification);
        assert!(!safe_proposal(&bad, &ctx));
    }
}
