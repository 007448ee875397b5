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
//! The state machine is generic over the vote body. Where PBFT departs from
//! Algorithm 1 — how a vote is cast, who receives it, how many make a
//! quorum, who may count it, what a prepared certificate is and whether a
//! vote carries the leader's signed proposal — the [`CertVote`] policy
//! supplies a value; the replica takes no branch on the protocol it runs
//! (DESIGN.md, "PBFT is Algorithm 1 under another vote policy").

use crate::config::{ProbftConfig, View};
use crate::error::RejectReason;
use crate::message::{CertVote, MessageOf, NewLeaderBody, PhaseBody, ProposeBody, VerifyCtx, Wish};
use crate::predicates;
use crate::sampling::Phase;
use crate::shell::{Phases, Seat, ShellState, ViewShell};
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

/// Algorithm 1's state inside the view shell.
pub struct ThreePhase<V: CertVote> {
    // --- Algorithm 1, line 1 state ---
    /// The accepted Propose message: `proposal` in the pseudocode, with
    /// `voted` (it is set) and `curVal` (its value). Re-broadcast on
    /// equivocation detection (line 25).
    accepted: Option<Signed<ProposeBody<V>>>,
    block_view: bool,

    // --- prepared state (persists across views) ---
    prepared_view: View,
    prepared_value: Option<Value>,
    prepared_cert: Vec<Signed<V>>,

    // --- per-view vote tracking ---
    prepare_votes: QuorumTracker<(View, Digest), Signed<V>>,
    commit_votes: QuorumTracker<(View, Digest), Signed<V>>,
    sent_commit: bool,

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
            prepared_view: View::NONE,
            prepared_value: None,
            prepared_cert: Vec::new(),
            prepare_votes: QuorumTracker::new(V::quorum(cfg)),
            commit_votes: QuorumTracker::new(V::quorum(cfg)),
            sent_commit: false,
            new_leader_msgs: BTreeMap::new(),
            proposed: false,
        }
    }

    fn verify(msg: &MessageOf<V>, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        msg.verify(ctx)
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
        if !vote.counts_for(shell.seat.id) {
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
        let (view, value) = (accepted.proposal.view, &accepted.proposal.value);
        let key = (view, value.digest());
        if self.prepare_votes.count(&key) < V::quorum(&shell.seat.cfg) {
            return;
        }
        shell.stats.prepare_quorums += 1;

        // Line 18: preparedVal, preparedView, cert ← curVal, curView, C.
        self.prepared_view = view;
        self.prepared_value = Some(value.clone());
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
        if self.block_view || self.prepared_view != view {
            return;
        }
        let Some(value) = self.prepared_value.clone() else {
            return;
        };
        if self.commit_votes.count(&(view, value.digest())) < V::quorum(&shell.seat.cfg) {
            return;
        }
        shell.stats.commit_quorums += 1;
        // Line 22: decide(curVal).
        shell.decide(value, ctx.now());
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
        if prop.view != shell.current_view()
            || prop.value.digest() == original.proposal.value.digest()
        {
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
