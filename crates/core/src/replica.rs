//! The honest Propose → Prepare → Commit replica — Algorithm 1, once, for
//! ProBFT and for the PBFT baseline.
//!
//! Each numbered handler of the paper's pseudocode maps to a method here
//! (the synchronizer, timers, buffering and the decision latch live in
//! [`crate::shell`]):
//!
//! | Algorithm 1 | Method |
//! |---|---|
//! | `upon newView(v)`, lines 1–5 | [`ThreePhase::enter_view`](Phases::enter_view) |
//! | NewLeader quorum, lines 6–12 | `on_new_leader` |
//! | `upon receiving Propose`, lines 13–16 | `on_propose` |
//! | Prepare quorum, lines 17–20 | `on_vote` / `maybe_commit` |
//! | Commit quorum, lines 21–22 | `on_vote` / `maybe_decide` |
//! | equivocation, lines 23–25 | `check_equivocation` |
//!
//! A vote that arrives after the quorum rule it feeds has fired is *moot*
//! ([`Phases::is_moot`]): the shell drops it before verification, since the
//! rule would return at its latch without reading it.
//!
//! Votes name the value by the digest in the leader-signed header they
//! embed. Every quorum rule below fires only for the header of the Propose
//! this replica *accepted* — the message that carried the value — so the
//! replica counts votes without the value and never prepares, commits or
//! decides one it does not hold.
//!
//! The state machine is generic over the vote body. Where PBFT departs from
//! Algorithm 1 — how a vote is cast, who receives it, how many make a
//! quorum, who may count it, what a prepared certificate is and whether a
//! vote carries the leader's signed proposal — the [`CertVote`] policy
//! supplies a value; the replica takes no branch on the protocol it runs
//! (DESIGN.md, "PBFT is Algorithm 1 under another vote policy").

use crate::config::{ProbftConfig, View};
use crate::error::RejectReason;
use crate::message::{
    CertVote, MessageOf, NewLeaderBody, PhaseBody, ProposeBody, SignedProposal, VerifyCtx, Wish,
};
use crate::predicates;
use crate::sampling::Phase;
use crate::shell::{InstanceHalf, Phases, Seat, ShellState, ViewShell};
use crate::signed::Signed;
use crate::value::Value;
use probft_crypto::sha256::Digest;
use probft_quorum::{QuorumTracker, ReplicaId};
use probft_simnet::process::Context;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub use crate::shell::{Decision, ReplicaStats};

/// The honest ProBFT replica.
pub type Replica = ReplicaOf<PhaseBody>;

/// The honest replica of the Propose → Prepare → Commit protocol whose
/// votes are `V`: ProBFT's [`Replica`], or the PBFT baseline's.
pub type ReplicaOf<V> = ViewShell<ThreePhase<V>>;

/// One ProBFT instance without a view of its own — what a log keeps per
/// slot in flight, under the one view it holds for all of them.
pub type ReplicaInstance = InstanceHalf<ThreePhase<PhaseBody>>;

/// Algorithm 1's state inside the view shell.
pub struct ThreePhase<V: CertVote> {
    // --- Algorithm 1, line 1 state ---
    /// The accepted Propose message: `proposal` in the pseudocode, with
    /// `voted` (it is set) and `curVal` (its value, under the digest in its
    /// header). Re-broadcast on equivocation detection (line 25).
    accepted: Option<Signed<ProposeBody<V>>>,
    block_view: bool,
    /// The last leader-signed header that verified on arrival. Every vote
    /// of a view repeats one header, so remembering it is what makes the
    /// leader's signature cost one check per view rather than one per vote.
    verified_header: Option<SignedProposal>,

    // --- prepared state (persists across views) ---
    prepared_view: View,
    prepared_value: Option<Value>,
    prepared_cert: Vec<Signed<V>>,

    // --- per-view vote tracking ---
    prepare_votes: QuorumTracker<(View, Digest), Signed<V>>,
    commit_votes: QuorumTracker<(View, Digest), Signed<V>>,
    /// The prepare-quorum rule (lines 17–20) has fired in this view.
    sent_commit: bool,
    /// The commit-quorum rule (lines 21–22) has fired in this view.
    decided: bool,

    // --- leader state for the current view ---
    new_leader_msgs: BTreeMap<ReplicaId, Signed<NewLeaderBody<V>>>,
    proposed: bool,
}

impl<V: CertVote> Phases for ThreePhase<V> {
    type Message = MessageOf<V>;
    type Strategy = V::Strategy;
    type Byzantine = V::Byzantine;
    const QUORUM_PARAMS: (f64, f64) = V::QUORUM_PARAMS;

    fn byzantine(
        seat: Seat,
        faulty: Arc<BTreeSet<ReplicaId>>,
        strategy: V::Strategy,
    ) -> V::Byzantine {
        V::byzantine(seat, faulty, strategy)
    }

    fn new(cfg: &ProbftConfig) -> Self {
        ThreePhase {
            accepted: None,
            block_view: false,
            verified_header: None,
            prepared_view: View::NONE,
            prepared_value: None,
            prepared_cert: Vec::new(),
            prepare_votes: QuorumTracker::new(V::quorum(cfg)),
            commit_votes: QuorumTracker::new(V::quorum(cfg)),
            sent_commit: false,
            decided: false,
            new_leader_msgs: BTreeMap::new(),
            proposed: false,
        }
    }

    fn verify(&mut self, msg: &MessageOf<V>, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        let known_header = self.verified_header;
        msg.verify(&VerifyCtx {
            known_header,
            ..*ctx
        })?;
        if let Some(header) = msg.embedded_proposal() {
            self.verified_header = Some(*header);
        }
        Ok(())
    }

    /// A Prepare or Commit is moot when it names the view and digest of the
    /// Propose this replica accepted in the current view and that phase's
    /// quorum rule has already fired here. It cannot trip lines 23–25 (its
    /// digest is `curVal`'s); the tracker it would join is read only by the
    /// rule that has fired, which now returns before reading; and nothing
    /// else keeps a vote. So with it or without it this replica sends,
    /// holds and decides the same — the vote is as good as lost, and a lost
    /// vote needs no verifying. (`accepted` is reset on `newView`, so a
    /// vote that matches it is a vote of the current view.)
    fn is_moot(&self, msg: &MessageOf<V>) -> bool {
        let (vote, fired) = match msg {
            MessageOf::Prepare(vote) => (vote, self.sent_commit),
            MessageOf::Commit(vote) => (vote, self.decided),
            _ => return false,
        };
        fired
            && self.accepted.as_ref().is_some_and(|accepted| {
                let header = &accepted.proposal;
                (vote.view(), vote.digest()) == (header.view, header.digest)
            })
    }

    fn view_of(msg: &MessageOf<V>) -> View {
        msg.view()
    }
    fn as_wish(msg: &MessageOf<V>) -> Option<&Wish> {
        match msg {
            MessageOf::Wish(w) => Some(w),
            _ => None,
        }
    }

    // -----------------------------------------------------------------
    // newView(v): Algorithm 1 lines 1–5.
    // -----------------------------------------------------------------
    fn enter_view(&mut self, shell: &mut ShellState, ctx: &mut Context<'_, MessageOf<V>>) {
        self.accepted = None;
        self.block_view = false;
        self.sent_commit = false;
        self.decided = false;
        self.proposed = false;
        self.new_leader_msgs.clear();
        self.prepare_votes.clear();
        self.commit_votes.clear();

        let view = shell.current_view();
        if view == View::FIRST {
            if shell.is_leader() {
                // Line 3: first leader proposes its own value immediately.
                self.broadcast_propose(shell.my_value.clone(), vec![], shell, ctx);
            }
        } else {
            // Line 5: report the latest prepared value to the new leader.
            let report = NewLeaderBody {
                sender: shell.seat.id,
                view,
                prepared_view: self.prepared_view,
                prepared_value: self.prepared_value.clone(),
                cert: self.prepared_cert.clone(),
            };
            let nl = Signed::sign(&shell.seat.sk, report);
            ctx.send(shell.leader(), MessageOf::NewLeader(nl));
        }
    }

    /// Dispatches a message already routed to the current view.
    fn on_message(
        &mut self,
        msg: MessageOf<V>,
        shell: &mut ShellState,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) {
        if self.check_equivocation(&msg, shell, ctx) {
            return;
        }
        match msg {
            MessageOf::NewLeader(m) => self.on_new_leader(m, shell, ctx),
            // Blocked views ignore protocol traffic (we wait for the
            // synchronizer); NewLeader is still collected because it
            // belongs to *entering* the view, not to deciding in it.
            _ if self.block_view => {}
            MessageOf::Propose(p) => self.on_propose(p, shell, ctx),
            MessageOf::Prepare(v) => self.on_vote(Phase::Prepare, v, shell, ctx),
            MessageOf::Commit(v) => self.on_vote(Phase::Commit, v, shell, ctx),
            MessageOf::Wish(_) => unreachable!("wishes are routed separately"),
        }
    }
}

impl<V: CertVote> ThreePhase<V> {
    fn broadcast_propose(
        &mut self,
        value: Value,
        justification: Vec<Signed<NewLeaderBody<V>>>,
        shell: &ShellState,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) {
        let (sk, id, view) = (&shell.seat.sk, shell.seat.id, shell.current_view());
        let propose = Signed::lead(sk, id, view, value, justification);
        self.proposed = true;
        ctx.multicast(shell.peers(), MessageOf::Propose(propose));
    }

    // -----------------------------------------------------------------
    // Leader: NewLeader aggregation, lines 6–12.
    // -----------------------------------------------------------------
    fn on_new_leader(
        &mut self,
        msg: Signed<NewLeaderBody<V>>,
        shell: &mut ShellState,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) {
        // pre (line 6): curView = v ∧ i = leader(v); each message valid.
        if !shell.is_leader() || self.proposed {
            return;
        }
        if !predicates::valid_new_leader(&msg, &shell.verify_ctx()) {
            shell.stats.rejected += 1;
            return;
        }
        self.new_leader_msgs.insert(msg.sender, msg);
        if self.new_leader_msgs.len() < shell.seat.cfg.deterministic_quorum() {
            return;
        }
        let justification: Vec<_> = self.new_leader_msgs.values().cloned().collect();
        // Lines 7–12: propose the mode of the latest prepared view, or our
        // own value if nothing was prepared.
        let value =
            predicates::choose_proposal(&justification).unwrap_or_else(|| shell.my_value.clone());
        self.broadcast_propose(value, justification, shell, ctx);
    }

    // -----------------------------------------------------------------
    // Propose: lines 13–16.
    // -----------------------------------------------------------------
    fn on_propose(
        &mut self,
        propose: Signed<ProposeBody<V>>,
        shell: &mut ShellState,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) {
        // pre (line 13): ¬blockView ∧ curView = v ∧ ¬voted ∧ safeProposal(m)
        // (the caller checked the first two).
        if self.accepted.is_some() {
            return;
        }
        if !predicates::safe_proposal(&propose, &shell.verify_ctx()) {
            shell.stats.rejected += 1;
            return;
        }
        // Line 14.
        self.accepted = Some(propose);

        // Lines 15–16: cast Prepare.
        self.cast_vote(Phase::Prepare, shell, ctx);

        // Votes buffered before we voted may already complete a quorum.
        self.maybe_commit(shell, ctx);
        self.maybe_decide(shell, ctx);
    }

    /// Casts this replica's `phase` vote for the accepted proposal to the
    /// recipients the vote policy names (lines 15–16 and 19–20).
    fn cast_vote(&self, phase: Phase, shell: &ShellState, ctx: &mut Context<'_, MessageOf<V>>) {
        let Some(accepted) = &self.accepted else {
            return;
        };
        let seat = &shell.seat;
        let vote = V::cast(&seat.sk, &seat.cfg, phase, seat.id, &accepted.proposal);
        ctx.multicast(vote.recipients(&seat.cfg), MessageOf::vote(phase, vote));
    }

    // -----------------------------------------------------------------
    // Prepare and Commit: collect votes, lines 17 and 21.
    // -----------------------------------------------------------------
    fn on_vote(
        &mut self,
        phase: Phase,
        vote: Signed<V>,
        shell: &mut ShellState,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) {
        // Receiver-specific precondition (ProBFT: i ∈ S).
        if !vote.counts_for(shell.seat.id, &shell.seat.cfg) {
            shell.stats.rejected += 1;
            return;
        }
        let key = (vote.view(), vote.digest());
        match phase {
            Phase::Prepare => {
                self.prepare_votes.insert(key, vote.signer(), vote);
                self.maybe_commit(shell, ctx);
            }
            Phase::Commit => {
                self.commit_votes.insert(key, vote.signer(), vote);
                self.maybe_decide(shell, ctx);
            }
        }
    }

    /// Fires the prepare-quorum rule (lines 17–20) if its preconditions
    /// hold: records the prepared certificate and casts `Commit`.
    fn maybe_commit(&mut self, shell: &mut ShellState, ctx: &mut Context<'_, MessageOf<V>>) {
        if self.block_view || self.sent_commit {
            return;
        }
        let Some(accepted) = &self.accepted else {
            return; // ¬voted
        };
        let view = accepted.proposal.view;
        let key = (view, accepted.proposal.digest);
        if self.prepare_votes.count(&key) < V::quorum(&shell.seat.cfg) {
            return;
        }
        shell.stats.prepare_quorums += 1;

        // Line 18: preparedVal, preparedView, cert ← curVal, curView, C.
        self.prepared_view = view;
        self.prepared_value = Some(accepted.value.clone());
        self.prepared_cert = self
            .prepare_votes
            .votes(&key)
            .map(|(_, m)| m.clone())
            .collect();

        // Lines 19–20: cast Commit.
        self.cast_vote(Phase::Commit, shell, ctx);
        self.sent_commit = true;

        // Commit votes may already be waiting.
        self.maybe_decide(shell, ctx);
    }

    // -----------------------------------------------------------------
    // Commit quorum: lines 21–22.
    // -----------------------------------------------------------------
    fn maybe_decide(&mut self, shell: &mut ShellState, ctx: &mut Context<'_, MessageOf<V>>) {
        // pre (line 21): ¬blockView ∧ preparedVal = x ∧
        //                curView = preparedView = v.
        let view = shell.current_view();
        if self.block_view || self.decided || self.prepared_view != view {
            return;
        }
        // Prepared in this view means prepared from this view's accepted
        // Propose (line 18), so `preparedVal` is its value.
        let Some(accepted) = &self.accepted else {
            return;
        };
        let digest = accepted.proposal.digest;
        if self.commit_votes.count(&(view, digest)) < V::quorum(&shell.seat.cfg) {
            return;
        }
        shell.stats.commit_quorums += 1;
        // Line 22: decide(curVal).
        shell.decide(digest, &accepted.value, ctx.now());
        self.decided = true;
    }

    // -----------------------------------------------------------------
    // Equivocation: lines 23–25.
    // -----------------------------------------------------------------
    /// Checks an incoming message for a conflicting leader-signed proposal.
    /// Returns `true` if the view was blocked by this message.
    fn check_equivocation(
        &mut self,
        msg: &MessageOf<V>,
        shell: &mut ShellState,
        ctx: &mut Context<'_, MessageOf<V>>,
    ) -> bool {
        // pre (line 23): ¬blockView ∧ curView = v ∧ j = leader(v) ∧
        //                voted ∧ curVal ≠ x.
        if self.block_view {
            return false;
        }
        let (Some(original), Some(prop)) = (&self.accepted, msg.embedded_proposal()) else {
            return false;
        };
        if prop.view != shell.current_view() || prop.digest == original.proposal.digest {
            return false;
        }
        // Line 24: block the view; line 25: expose both proposals.
        self.block_view = true;
        shell.stats.equivocations_detected += 1;
        ctx.multicast(shell.peers(), msg.clone());
        ctx.multicast(shell.peers(), MessageOf::Propose(original.clone()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, PhaseMessage, Propose};
    use probft_crypto::keyring::Keyring;
    use probft_crypto::schnorr::Signature;
    use probft_simnet::process::{Action, Process, ProcessId};
    use probft_simnet::time::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// n = 16, l = 1 → q = 4, o = 1.5 → s = 6: samples leave most replicas
    /// out, and a quorum is four votes.
    fn setup() -> (crate::config::SharedConfig, Keyring) {
        setup_with_overprovision(1.5)
    }

    /// n = 16, q = 4 and `s = ⌈4·o⌉`.
    fn setup_with_overprovision(o: f64) -> (crate::config::SharedConfig, Keyring) {
        let cfg = ProbftConfig::builder(16)
            .quorum_multiplier(1.0)
            .overprovision(o)
            .build_shared();
        (cfg, Keyring::generate(16, b"replica-test"))
    }

    /// The view-1 leader's Propose of `Value::from_tag(tag)`.
    fn propose(ring: &Keyring, tag: u64) -> Propose {
        let sk = ring.signing_key(0).unwrap();
        Propose::lead(sk, ReplicaId(0), View::FIRST, Value::from_tag(tag), vec![])
    }

    /// The replicas whose `phase` votes for `header` do / do not count for
    /// `receiver`, as those votes.
    fn votes(
        cfg: &ProbftConfig,
        ring: &Keyring,
        phase: Phase,
        header: &SignedProposal,
        receiver: ReplicaId,
    ) -> (Vec<PhaseMessage>, Vec<PhaseMessage>) {
        (1..cfg.n())
            .map(|i| {
                let sk = ring.signing_key(i).unwrap();
                PhaseBody::cast(sk, cfg, phase, i.into(), header)
            })
            .partition(|vote| vote.counts_for(receiver, cfg))
    }

    /// [`votes`] cast in view 1's prepare phase for `propose`.
    fn prepares(
        cfg: &ProbftConfig,
        ring: &Keyring,
        propose: &Propose,
        receiver: ReplicaId,
    ) -> (Vec<PhaseMessage>, Vec<PhaseMessage>) {
        votes(cfg, ring, Phase::Prepare, &propose.proposal, receiver)
    }

    /// Replica 5, started, having accepted `accepted`.
    fn replica_five(
        cfg: &crate::config::SharedConfig,
        ring: &Keyring,
        rng: &mut StdRng,
        accepted: &Propose,
    ) -> Replica {
        let sk = ring.signing_key(5).unwrap().clone();
        let keys = Arc::new(ring.public());
        let mut replica = Replica::new(cfg.clone(), ReplicaId(5), sk, keys, Value::from_tag(5));
        let mut ctx = Context::detached(ProcessId(5), SimTime::ZERO, rng);
        replica.on_start(&mut ctx);
        replica.on_message(ProcessId(0), Message::Propose(accepted.clone()), &mut ctx);
        replica
    }

    fn deliver(replica: &mut Replica, msg: Message, rng: &mut StdRng) -> Vec<Action<Message>> {
        let mut ctx = Context::detached(ProcessId(5), SimTime::ZERO, rng);
        replica.on_message(ProcessId(1), msg, &mut ctx);
        ctx.drain_actions()
    }

    #[test]
    fn remembered_header_is_matched_by_its_signature_too() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let header = propose(&ring, 1).proposal;
        let sk = ring.signing_key(3).unwrap();
        let genuine = PhaseBody::cast(sk, &cfg, Phase::Prepare, ReplicaId(3), &header);

        let mut phases = ThreePhase::<PhaseBody>::new(&cfg);
        assert_eq!(phases.verify(&Message::Prepare(genuine), &ctx), Ok(()));
        assert_eq!(phases.verified_header, Some(header));

        // A Byzantine voter flips one bit of the leader's signature in the
        // header it embeds and signs the result as its own vote. Were the
        // memory keyed by (view, digest), this would pass and end up in an
        // honest prepared certificate that verifies nowhere else.
        let mut bytes = header.signature.to_bytes();
        bytes[15] ^= 1;
        let mut poisoned = genuine.body;
        poisoned.proposal.signature = Signature::from_bytes(bytes).unwrap();
        let poisoned = PhaseMessage::sign_in(sk, Phase::Prepare, poisoned);
        assert_eq!(
            phases.verify(&Message::Prepare(poisoned), &ctx),
            Err(RejectReason::BadProposalSignature)
        );
        // Only what verified is remembered.
        assert_eq!(phases.verified_header, Some(header));
    }

    #[test]
    fn vote_from_outside_its_derived_sample_is_rejected_and_not_tallied() {
        let (cfg, ring) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let accepted = propose(&ring, 1);
        let (counting, not_counting) = prepares(&cfg, &ring, &accepted, ReplicaId(5));
        let quorum = cfg.probabilistic_quorum();
        assert!(counting.len() >= quorum && !not_counting.is_empty());

        let mut replica = replica_five(&cfg, &ring, &mut rng, &accepted);
        for vote in &counting[..quorum - 1] {
            deliver(&mut replica, Message::Prepare(*vote), &mut rng);
        }
        assert_eq!(
            (replica.stats.rejected, replica.stats.prepare_quorums),
            (0, 0)
        );

        // A genuine, verifying vote — whose sample replica 5 is not in.
        deliver(&mut replica, Message::Prepare(not_counting[0]), &mut rng);
        assert_eq!(
            (replica.stats.rejected, replica.stats.prepare_quorums),
            (1, 0)
        );

        // One more vote that does count completes the quorum.
        deliver(
            &mut replica,
            Message::Prepare(counting[quorum - 1]),
            &mut rng,
        );
        assert_eq!(
            (replica.stats.rejected, replica.stats.prepare_quorums),
            (1, 1)
        );
    }

    #[test]
    fn conflicting_header_in_a_relayed_vote_blocks_a_replica_outside_its_sample() {
        let (cfg, ring) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let accepted = propose(&ring, 1);
        // The leader also signed a header for another value; all replica 5
        // ever sees of it is a vote relayed from outside the vote's sample.
        let conflicting = propose(&ring, 2);
        let (_, not_counting) = prepares(&cfg, &ring, &conflicting, ReplicaId(5));
        let relayed = Message::Prepare(not_counting[0]);

        let mut replica = replica_five(&cfg, &ring, &mut rng, &accepted);
        let actions = deliver(&mut replica, relayed.clone(), &mut rng);
        assert_eq!(replica.stats.equivocations_detected, 1);
        assert_eq!(replica.stats.rejected, 0);

        // Line 25: the conflicting message, then the accepted Propose, each
        // to everyone — the two signed headers are the proof.
        let sent: Vec<(usize, &Message)> = actions
            .iter()
            .map(|a| match a {
                Action::Send { to, msg } => (to.index(), msg),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let everyone = |msg| (0..cfg.n()).map(move |to| (to, msg));
        let original = Message::Propose(accepted.clone());
        let expected: Vec<_> = everyone(&relayed).chain(everyone(&original)).collect();
        assert_eq!(sent, expected);

        // Line 24: the view is blocked — even a quorum no longer prepares.
        let (counting, _) = prepares(&cfg, &ring, &accepted, ReplicaId(5));
        for vote in counting {
            assert!(deliver(&mut replica, Message::Prepare(vote), &mut rng).is_empty());
        }
        assert_eq!(replica.stats.prepare_quorums, 0);
    }

    // -----------------------------------------------------------------
    // The moot rule: votes past their quorum.
    // -----------------------------------------------------------------

    const FIVE: ReplicaId = ReplicaId(5);

    /// Replica 5 as a bare instance (the log's view of a replica), in view 1.
    fn instance_five(cfg: &crate::config::SharedConfig, ring: &Keyring) -> ReplicaInstance {
        let seat = Seat {
            cfg: cfg.clone(),
            id: FIVE,
            sk: ring.signing_key(5).unwrap().clone(),
            keys: Arc::new(ring.public()),
        };
        let mut instance = ReplicaInstance::new(seat, Value::from_tag(5));
        drive(&mut instance, |i, ctx| i.new_view(View::FIRST, ctx));
        instance
    }

    /// What `step` makes the instance send.
    fn drive(
        instance: &mut ReplicaInstance,
        step: impl FnOnce(&mut ReplicaInstance, &mut Context<'_, Message>),
    ) -> Vec<Action<Message>> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::detached(ProcessId(5), SimTime::ZERO, &mut rng);
        step(instance, &mut ctx);
        ctx.drain_actions()
    }

    /// What receiving `msg` makes the instance send.
    fn hand(instance: &mut ReplicaInstance, msg: Message) -> Vec<Action<Message>> {
        drive(instance, |i, ctx| assert!(i.on_message(msg, ctx).is_none()))
    }

    /// `vote` under a signature that verifies for nothing.
    fn garbled(ring: &Keyring, mut vote: PhaseMessage) -> PhaseMessage {
        vote.signature = ring.signing_key(5).unwrap().sign(b"garbage");
        vote
    }

    /// Hands the instance a quorum of the `phase` votes for `header` that
    /// count for it; returns the votes not delivered, `(counting, not
    /// counting)`.
    fn deliver_quorum(
        instance: &mut ReplicaInstance,
        ring: &Keyring,
        phase: Phase,
        header: &SignedProposal,
    ) -> (Vec<PhaseMessage>, Vec<PhaseMessage>) {
        let cfg = instance.seat.cfg.clone();
        let quorum = cfg.probabilistic_quorum();
        let (mut counting, not_counting) = votes(&cfg, ring, phase, header, FIVE);
        assert!(counting.len() >= quorum + 2 && !not_counting.is_empty());
        for vote in counting.drain(..quorum) {
            hand(instance, Message::vote(phase, vote));
        }
        (counting, not_counting)
    }

    /// Hands the instance `propose` and a quorum of Prepares for it: it has
    /// sent its Commit.
    fn prepare(instance: &mut ReplicaInstance, ring: &Keyring, propose: &Propose) {
        hand(instance, Message::Propose(propose.clone()));
        deliver_quorum(instance, ring, Phase::Prepare, &propose.proposal);
    }

    /// [`prepare`], then a quorum of Commits: it has decided.
    fn decide(instance: &mut ReplicaInstance, ring: &Keyring, propose: &Propose) {
        prepare(instance, ring, propose);
        deliver_quorum(instance, ring, Phase::Commit, &propose.proposal);
    }

    #[test]
    fn votes_past_their_quorum_are_dropped_unverified_and_change_nothing() {
        let (cfg, ring) = setup_with_overprovision(2.5);
        let accepted = propose(&ring, 1);
        let key = (View::FIRST, accepted.proposal.digest);
        let quorum = cfg.probabilistic_quorum();
        let mut replica = instance_five(&cfg, &ring);
        hand(&mut replica, Message::Propose(accepted.clone()));

        // Four late votes per phase: a genuine one that would count, two
        // whose signatures are garbage, a genuine one that would not count.
        // Verified, the last three would each be counted rejected.
        let mut late = 0;
        for phase in [Phase::Prepare, Phase::Commit] {
            let (counting, not_counting) =
                deliver_quorum(&mut replica, &ring, phase, &accepted.proposal);
            let tracker = |replica: &ReplicaInstance| match phase {
                Phase::Prepare => replica.phases().prepare_votes.count(&key),
                Phase::Commit => replica.phases().commit_votes.count(&key),
            };
            assert_eq!(tracker(&replica), quorum);
            for vote in [
                counting[0],
                garbled(&ring, counting[1]),
                garbled(&ring, not_counting[0]),
                not_counting[0],
            ] {
                let sent = hand(&mut replica, Message::vote(phase, vote));
                assert!(sent.is_empty(), "a late {phase:?} made the replica send");
                late += 1;
                assert_eq!(replica.stats.late_votes, late);
            }
            assert_eq!(tracker(&replica), quorum);
            assert_eq!(replica.stats.rejected, 0);
        }
        // One quorum per phase, however many votes followed it.
        assert_eq!(replica.stats.prepare_quorums, 1);
        assert_eq!(replica.stats.commit_quorums, 1);
        assert_eq!(replica.decision().map(|d| &d.value), Some(&accepted.value));
        assert!(!replica.has_conflicting_decision());
    }

    #[test]
    fn late_vote_with_a_conflicting_header_is_verified_and_blocks_the_view() {
        let (cfg, ring) = setup_with_overprovision(2.5);
        let accepted = propose(&ring, 1);
        let conflicting = propose(&ring, 2).proposal;
        for phase in [Phase::Prepare, Phase::Commit] {
            let mut replica = instance_five(&cfg, &ring);
            match phase {
                Phase::Prepare => prepare(&mut replica, &ring, &accepted),
                Phase::Commit => decide(&mut replica, &ring, &accepted),
            }
            let (_, not_counting) = votes(&cfg, &ring, phase, &conflicting, FIVE);

            // Its digest is not `curVal`'s, so it is not moot: a garbled
            // copy is rejected, the genuine one trips lines 23–25.
            let garbage = Message::vote(phase, garbled(&ring, not_counting[0]));
            assert!(hand(&mut replica, garbage).is_empty());
            assert_eq!(replica.stats.rejected, 1);

            let relayed = Message::vote(phase, not_counting[0]);
            let sent = hand(&mut replica, relayed.clone());
            assert_eq!(replica.stats.equivocations_detected, 1);
            assert_eq!(replica.stats.late_votes, 0);
            let sent: Vec<(usize, &Message)> = sent
                .iter()
                .map(|a| match a {
                    Action::Send { to, msg } => (to.index(), msg),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            let everyone = |msg| (0..cfg.n()).map(move |to| (to, msg));
            let original = Message::Propose(accepted.clone());
            let expected: Vec<_> = everyone(&relayed).chain(everyone(&original)).collect();
            assert_eq!(sent, expected);
        }
    }

    #[test]
    fn commit_for_another_digest_in_a_later_view_is_verified_and_flags_the_conflict() {
        let (cfg, ring) = setup_with_overprovision(2.5);
        let first = propose(&ring, 1);
        let mut replica = instance_five(&cfg, &ring);
        decide(&mut replica, &ring, &first);
        assert_eq!(replica.decision().map(|d| d.view), Some(View::FIRST));

        // View 2: a deterministic quorum reports nothing prepared, so its
        // leader is free to propose another value (replica 5's own report
        // is not among them).
        let view = View(2);
        drive(&mut replica, |i, ctx| i.new_view(view, ctx));
        let reports = (6..6 + cfg.deterministic_quorum())
            .map(|i| {
                let report = NewLeaderBody {
                    sender: ReplicaId::from(i % cfg.n()),
                    view,
                    prepared_view: View::NONE,
                    prepared_value: None,
                    cert: vec![],
                };
                Signed::sign(ring.signing_key(i % cfg.n()).unwrap(), report)
            })
            .collect();
        let sk = ring.signing_key(1).unwrap();
        let second = Propose::lead(sk, ReplicaId(1), view, Value::from_tag(2), reports);
        prepare(&mut replica, &ring, &second);
        assert_eq!(replica.stats.prepare_quorums, 2);
        assert_eq!(replica.stats.late_votes, 0);

        // The first decision does not make view 2's Commits moot: each is
        // verified (a garbled one is rejected) and counted.
        let quorum = cfg.probabilistic_quorum();
        let (commits, _) = votes(&cfg, &ring, Phase::Commit, &second.proposal, FIVE);
        hand(&mut replica, Message::Commit(garbled(&ring, commits[0])));
        assert_eq!(replica.stats.rejected, 1);
        for vote in &commits[..quorum] {
            assert!(!replica.has_conflicting_decision());
            hand(&mut replica, Message::Commit(*vote));
        }
        assert!(replica.has_conflicting_decision());
        assert_eq!(replica.decision().map(|d| &d.value), Some(&first.value));
        // One per deciding view; view 2's late Commits are moot in turn.
        hand(&mut replica, Message::Commit(commits[quorum]));
        assert_eq!(replica.stats.commit_quorums, 2);
        assert_eq!(replica.stats.late_votes, 1);
    }
}
