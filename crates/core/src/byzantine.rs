//! Byzantine replica behaviours, including the attack models of §4.3.
//!
//! The paper's agreement analysis (Figure 4) considers three leader
//! strategies, culminating in the *optimal* one — the strategy a rational
//! adversary maximising the probability of disagreement would pick:
//!
//! - **General case (Fig. 4a)** — [`ByzantineStrategy::EquivocatingLeader`]:
//!   the leader sends `m ≥ 2` distinct proposals to arbitrary, possibly
//!   overlapping subsets, leaving some replicas with none.
//! - **Sub-optimal case (Fig. 4b)** — [`ByzantineStrategy::SplitLeader`]:
//!   the leader splits *all* replicas into two halves and sends each half
//!   one proposal.
//! - **Optimal case (Fig. 4c)** — [`ByzantineStrategy::OptimalSplitLeader`]:
//!   the leader splits only the *correct* replicas into two equal halves
//!   Π¹_C and Π²_C and sends `val1` to Π¹_C ∪ Π_F and `val2` to Π²_C ∪ Π_F.
//!   All Byzantine replicas then *double-vote*: within their (genuine,
//!   VRF-mandated) recipient samples, they support `val1` toward Π¹_C and
//!   `val2` toward Π²_C, without waiting for quorums they never formed.
//!
//! Byzantine replicas cannot forge what the cryptography pins down. Their
//! recipient samples are fixed by the VRF: a vote carries only the proof,
//! each receiver derives the sample from it, so a sample of the sender's
//! choosing is not something a message can express — all that is left is
//! sending the genuine vote to replicas outside its sample
//! ([`ByzantineStrategy::FloodingReplica`]), who find themselves absent from
//! the derived sample and do not count it. Dropping the proof does not help
//! either: a vote without one counts for everyone only where the sample is
//! everyone (`s = n`), and fails verification where the cluster samples.
//! And Prepare/Commit messages must embed a *leader-signed* header, so
//! helpers can only amplify values the leader actually signed.
//!
//! All strategies are *static*: they are fixed before the run starts
//! (static corruption adversary, §2.1), and the colluding replicas know
//! each other (`Π_F` is shared).
//!
//! The replica is generic over the vote, like the honest one: it casts
//! with [`CertVote::cast`] and addresses with [`CertVote::recipients`], so
//! [`ByzantineReplica`] over [`PhaseBody`] is ProBFT's adversary and the
//! PBFT baseline's is the same type over its digest votes. Against PBFT the
//! votes are broadcast and embed no leader-signed header, so a split
//! leader's helpers vote unsampled and nobody detects the equivocation;
//! deterministic quorum intersection is what keeps agreement there.

use crate::config::{SharedConfig, View};
use crate::message::{CertVote, MessageOf, PhaseBody, SignedProposal};
use crate::sampling::Phase;
use crate::shell::Seat;
use crate::signed::Signed;
use crate::value::Value;
use probft_crypto::schnorr::SigningKey;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// A Byzantine behaviour, fixed at the start of the run.
#[derive(Clone, Debug, PartialEq)]
pub enum ByzantineStrategy {
    /// Fail-stop: halts before doing anything.
    Crash,
    /// Stays alive but never sends a message (a silent leader forces a
    /// view change; a silent follower just sheds messages).
    Silent,
    /// Fig. 4a: as leader, sends `m` distinct proposals to random subsets,
    /// leaving roughly `skip_fraction` of replicas with no proposal.
    EquivocatingLeader {
        /// Number of distinct values to equivocate between (≥ 2).
        values: usize,
        /// Fraction of replicas receiving no proposal at all.
        skip_fraction: f64,
    },
    /// Fig. 4b: as leader, splits *all* replicas into two halves.
    SplitLeader,
    /// Fig. 4c: the optimal attack. As leader, splits the *correct*
    /// replicas into two halves and sends both values to all of Π_F; as a
    /// follower, double-votes toward each half within its VRF samples.
    OptimalSplitLeader,
    /// Multicasts its genuine Prepare vote to the whole population instead
    /// of its VRF sample (honest replicas outside the sample must not count
    /// it).
    FloodingReplica,
    /// As leader, proposes a value violating the application `valid`
    /// predicate (honest replicas must reject via `safeProposal`).
    InvalidValueLeader {
        /// The invalid value to propose.
        value: Value,
    },
}

/// The two values an equivocating leader tries to get decided.
///
/// Deterministic so that colluding replicas agree on them without
/// communication.
pub fn equivocation_values() -> (Value, Value) {
    (
        Value::new(b"equivocation-A".to_vec()),
        Value::new(b"equivocation-B".to_vec()),
    )
}

/// A Byzantine replica executing one [`ByzantineStrategy`] in the protocol
/// whose votes are `V`.
pub struct ByzantineReplica<V: CertVote = PhaseBody> {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    /// The colluding set Π_F (known to every Byzantine replica, §2.1).
    faulty: Arc<BTreeSet<ReplicaId>>,
    strategy: ByzantineStrategy,
    /// Leader-signed proposals observed (the ammunition for double-voting).
    seen_proposals: Vec<SignedProposal>,
    /// Guards against double-casting the helper votes.
    helper_voted: bool,
    vote: PhantomData<V>,
}

impl<V: CertVote> ByzantineReplica<V> {
    /// A Byzantine replica in `seat`, colluding with the `faulty` set.
    pub fn new(seat: Seat, faulty: Arc<BTreeSet<ReplicaId>>, strategy: ByzantineStrategy) -> Self {
        let Seat { cfg, id, sk, .. } = seat;
        ByzantineReplica {
            cfg,
            id,
            sk,
            faulty,
            strategy,
            seen_proposals: Vec::new(),
            helper_voted: false,
            vote: PhantomData,
        }
    }

    /// The correct replicas, in index order.
    fn correct_replicas(&self) -> Vec<ReplicaId> {
        self.cfg
            .all_replicas()
            .filter(|r| !self.faulty.contains(r))
            .collect()
    }

    /// The two halves (Π¹_C, Π²_C) of the optimal split, plus Π_F.
    fn optimal_split(&self) -> (BTreeSet<ReplicaId>, BTreeSet<ReplicaId>) {
        let correct = self.correct_replicas();
        let half = correct.len() / 2;
        let pi1: BTreeSet<ReplicaId> = correct[..half].iter().copied().collect();
        let pi2: BTreeSet<ReplicaId> = correct[half..].iter().copied().collect();
        (pi1, pi2)
    }

    fn is_leader_of_view_one(&self) -> bool {
        self.cfg.leader_of(View::FIRST) == self.id
    }

    /// Sends `value` as a view-1 proposal to `recipients`.
    fn send_proposal_to(
        &mut self,
        value: Value,
        recipients: impl IntoIterator<Item = ReplicaId>,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) -> SignedProposal {
        let propose = Signed::lead(&self.sk, self.id, View::FIRST, value, vec![]);
        let proposal = propose.proposal;
        let targets: Vec<ProcessId> = recipients
            .into_iter()
            .map(|r| ProcessId(r.index()))
            .collect();
        ctx.multicast(targets, MessageOf::Propose(propose));
        proposal
    }

    /// The optimal-attack helper votes: for each signed proposal, send
    /// Prepare and Commit within the genuine VRF samples, restricted to the
    /// half (plus Π_F) that proposal targets.
    ///
    /// Byzantine replicas skip quorum formation entirely — they commit
    /// without having prepared, which honest verifiers cannot observe.
    fn cast_split_votes(&mut self, ctx: &mut Context<'_, MessageOf<V>>) {
        if self.helper_voted || self.seen_proposals.len() < 2 {
            return;
        }
        self.helper_voted = true;
        let (pi1, pi2) = self.optimal_split();
        let (val1, val2) = equivocation_values();
        let (digest1, digest2) = (val1.digest(), val2.digest());

        for proposal in self.seen_proposals.clone() {
            let side: &BTreeSet<ReplicaId> = if proposal.digest == digest1 {
                &pi1
            } else if proposal.digest == digest2 {
                &pi2
            } else {
                continue;
            };
            for phase in [Phase::Prepare, Phase::Commit] {
                let vote = V::cast(&self.sk, &self.cfg, phase, self.id, &proposal);
                // Omission within the sample is undetectable: send only to
                // sample members in this proposal's side (or fellow
                // Byzantine replicas, who cannot be tricked anyway).
                let targets: Vec<ProcessId> = vote
                    .recipients(&self.cfg)
                    .into_iter()
                    .filter(|p| {
                        let r = ReplicaId::from(p.index());
                        side.contains(&r) || self.faulty.contains(&r)
                    })
                    .collect();
                ctx.multicast(targets, MessageOf::vote(phase, vote));
            }
        }
    }
}

impl<V: CertVote> Process for ByzantineReplica<V> {
    type Message = MessageOf<V>;

    fn on_start(&mut self, ctx: &mut Context<'_, MessageOf<V>>) {
        match self.strategy.clone() {
            ByzantineStrategy::Crash => ctx.halt(),
            ByzantineStrategy::Silent => {}
            ByzantineStrategy::EquivocatingLeader {
                values,
                skip_fraction,
            } => {
                if !self.is_leader_of_view_one() {
                    return;
                }
                // Assign each replica one of `values` proposals at random,
                // or none with probability `skip_fraction` (Fig. 4a).
                let n = self.cfg.n();
                let mut assignment: Vec<Vec<ReplicaId>> = vec![Vec::new(); values];
                for r in 0..n {
                    if ctx.rng().gen_bool(skip_fraction) {
                        continue;
                    }
                    let v = ctx.rng().gen_range(0..values);
                    assignment[v].push(ReplicaId::from(r));
                }
                for (tag, group) in assignment.into_iter().enumerate() {
                    let value = Value::new(format!("equivocation-{tag}").into_bytes());
                    let p = self.send_proposal_to(value, group, ctx);
                    self.seen_proposals.push(p);
                }
            }
            ByzantineStrategy::SplitLeader => {
                if !self.is_leader_of_view_one() {
                    return;
                }
                // Fig. 4b: split all replicas into two halves by index.
                let n = self.cfg.n();
                let (val1, val2) = equivocation_values();
                let first: Vec<ReplicaId> = (0..n / 2).map(ReplicaId::from).collect();
                let second: Vec<ReplicaId> = (n / 2..n).map(ReplicaId::from).collect();
                let p1 = self.send_proposal_to(val1, first, ctx);
                let p2 = self.send_proposal_to(val2, second, ctx);
                self.seen_proposals.push(p1);
                self.seen_proposals.push(p2);
            }
            ByzantineStrategy::OptimalSplitLeader => {
                if self.is_leader_of_view_one() {
                    // Fig. 4c: val1 → Π¹_C ∪ Π_F, val2 → Π²_C ∪ Π_F.
                    let (pi1, pi2) = self.optimal_split();
                    let (val1, val2) = equivocation_values();
                    let to1: Vec<ReplicaId> =
                        pi1.iter().chain(self.faulty.iter()).copied().collect();
                    let to2: Vec<ReplicaId> =
                        pi2.iter().chain(self.faulty.iter()).copied().collect();
                    let p1 = self.send_proposal_to(val1, to1, ctx);
                    let p2 = self.send_proposal_to(val2, to2, ctx);
                    self.seen_proposals.push(p1);
                    self.seen_proposals.push(p2);
                    // The leader is also a helper.
                    self.cast_split_votes(ctx);
                }
                // Helpers wait for the leader's signed proposals.
            }
            ByzantineStrategy::FloodingReplica => {}
            ByzantineStrategy::InvalidValueLeader { value } => {
                if self.is_leader_of_view_one() {
                    let all: Vec<ReplicaId> = self.cfg.all_replicas().collect();
                    self.send_proposal_to(value, all, ctx);
                }
            }
        }
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: MessageOf<V>,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) {
        match &self.strategy {
            ByzantineStrategy::OptimalSplitLeader => {
                // Helpers collect the leader's signed equivocating
                // proposals, then double-vote.
                if let MessageOf::Propose(p) = &msg {
                    if p.view() == View::FIRST
                        && !self
                            .seen_proposals
                            .iter()
                            .any(|sp| sp.digest == p.proposal.digest)
                    {
                        self.seen_proposals.push(p.proposal);
                    }
                    self.cast_split_votes(ctx);
                }
            }
            ByzantineStrategy::FloodingReplica => {
                // On any view-1 proposal: send our Prepare to the whole
                // population. Each receiver derives our sample from the
                // proof, so those outside it do not count the vote — this
                // strategy exists to *prove* that in tests.
                if let MessageOf::Propose(p) = &msg {
                    if p.view() != View::FIRST {
                        return;
                    }
                    let vote = V::cast(&self.sk, &self.cfg, Phase::Prepare, self.id, &p.proposal);
                    let everyone = (0..self.cfg.n()).map(ProcessId);
                    ctx.multicast(everyone, MessageOf::Prepare(vote));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, MessageOf<V>>) {}
}

impl<V: CertVote> fmt::Debug for ByzantineReplica<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByzantineReplica")
            .field("id", &self.id)
            .field("strategy", &self.strategy)
            .finish()
    }
}
