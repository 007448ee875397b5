//! The single-shot PBFT replica (paper §2.3, Figure 2).
//!
//! Identical skeleton to the ProBFT replica with the two defining
//! differences: Prepare/Commit votes are **broadcast to all** replicas, and
//! progress requires a **deterministic quorum** `⌈(n+f+1)/2⌉` of matching
//! votes. Because any two such quorums intersect in a correct replica,
//! safety is deterministic — the property ProBFT deliberately relaxes.

use crate::message::{
    choose_pbft_proposal, safe_proposal, valid_new_leader, PbftMessage, PbftNewLeader, PbftPropose,
    Vote, VoteBody, VotePhase,
};
use probft_core::config::{SharedConfig, View};
use probft_core::message::{NewLeaderBody, VerifyCtx, Wish, WishBody};
use probft_core::replica::{Decision, ReplicaStats};
use probft_core::synchronizer::Synchronizer;
use probft_core::value::Value;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_quorum::{QuorumTracker, ReplicaId};
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A single-shot PBFT replica.
pub struct PbftReplica {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    keys: Arc<PublicKeyring>,
    my_value: Value,

    cur_view: View,
    cur_val: Option<Value>,
    voted: bool,
    accepted_propose: Option<PbftPropose>,

    prepared_view: View,
    prepared_value: Option<Value>,
    prepared_cert: Vec<Vote>,

    prepare_votes: QuorumTracker<(View, Digest), Vote>,
    commit_votes: QuorumTracker<(View, Digest), Vote>,
    sent_commit: bool,

    new_leader_msgs: BTreeMap<ReplicaId, PbftNewLeader>,
    proposed: bool,

    sync: Synchronizer,
    future: BTreeMap<View, Vec<PbftMessage>>,

    decision: Option<Decision>,
    conflicting_decision: bool,
    stats: ReplicaStats,
}

impl PbftReplica {
    /// Creates a PBFT replica.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        my_value: Value,
    ) -> Self {
        let dq = cfg.deterministic_quorum();
        let f = cfg.faults();
        PbftReplica {
            cfg,
            id,
            sk,
            keys,
            my_value,
            cur_view: View::FIRST,
            cur_val: None,
            voted: false,
            accepted_propose: None,
            prepared_view: View::NONE,
            prepared_value: None,
            prepared_cert: Vec::new(),
            prepare_votes: QuorumTracker::new(dq),
            commit_votes: QuorumTracker::new(dq),
            sent_commit: false,
            new_leader_msgs: BTreeMap::new(),
            proposed: false,
            sync: Synchronizer::new(id, f),
            future: BTreeMap::new(),
            decision: None,
            conflicting_decision: false,
            stats: ReplicaStats::default(),
        }
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    /// Run counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Whether the decide rule fired twice with different values (must
    /// never happen in PBFT).
    pub fn has_conflicting_decision(&self) -> bool {
        self.conflicting_decision
    }

    /// The replica's current view.
    pub fn current_view(&self) -> View {
        self.cur_view
    }

    fn verify_ctx(&self) -> VerifyCtx<'_> {
        VerifyCtx::new(&self.cfg, &self.keys)
    }

    fn broadcast(&self, msg: PbftMessage, ctx: &mut Context<'_, PbftMessage>) {
        let peers: Vec<ProcessId> = (0..self.cfg.n()).map(ProcessId).collect();
        ctx.multicast(peers, msg);
    }

    fn enter_view(&mut self, view: View, ctx: &mut Context<'_, PbftMessage>) {
        self.cur_view = view;
        self.cur_val = None;
        self.voted = false;
        self.accepted_propose = None;
        self.sent_commit = false;
        self.proposed = false;
        self.new_leader_msgs.clear();
        self.prepare_votes.clear();
        self.commit_votes.clear();
        self.stats.views_entered += 1;

        ctx.set_timer(self.cfg.timeout_for(view), TimerToken(view.0));

        if view == View::FIRST {
            if self.cfg.leader_of(view) == self.id {
                self.broadcast_propose(self.my_value.clone(), vec![], ctx);
            }
        } else {
            let nl = PbftNewLeader::sign(
                &self.sk,
                NewLeaderBody {
                    sender: self.id,
                    view,
                    prepared_view: self.prepared_view,
                    prepared_value: self.prepared_value.clone(),
                    cert: self.prepared_cert.clone(),
                },
            );
            let leader = self.cfg.leader_of(view);
            ctx.send(ProcessId(leader.index()), PbftMessage::NewLeader(nl));
        }

        self.future.retain(|v, _| *v >= view);
        if let Some(msgs) = self.future.remove(&view) {
            for msg in msgs {
                self.handle_current(msg, ctx);
            }
        }
    }

    fn broadcast_propose(
        &mut self,
        value: Value,
        justification: Vec<PbftNewLeader>,
        ctx: &mut Context<'_, PbftMessage>,
    ) {
        let propose = PbftPropose::lead(&self.sk, self.id, self.cur_view, value, justification);
        self.proposed = true;
        self.broadcast(PbftMessage::Propose(propose), ctx);
    }

    fn on_new_leader(&mut self, msg: PbftNewLeader, ctx: &mut Context<'_, PbftMessage>) {
        if msg.view != self.cur_view
            || self.cfg.leader_of(self.cur_view) != self.id
            || self.proposed
        {
            return;
        }
        if !valid_new_leader(&msg, &self.verify_ctx()) {
            self.stats.rejected += 1;
            return;
        }
        self.new_leader_msgs.insert(msg.sender, msg);
        if self.new_leader_msgs.len() >= self.cfg.deterministic_quorum() {
            let justification: Vec<PbftNewLeader> =
                self.new_leader_msgs.values().cloned().collect();
            let value =
                choose_pbft_proposal(&justification).unwrap_or_else(|| self.my_value.clone());
            self.broadcast_propose(value, justification, ctx);
        }
    }

    fn on_propose(&mut self, propose: PbftPropose, ctx: &mut Context<'_, PbftMessage>) {
        if self.voted || propose.proposal.view != self.cur_view {
            return;
        }
        if !safe_proposal(&propose, &self.verify_ctx()) {
            self.stats.rejected += 1;
            return;
        }
        let value = propose.proposal.value.clone();
        let digest = value.digest();
        self.cur_val = Some(value);
        self.voted = true;
        self.accepted_propose = Some(propose);

        let vote = Vote::sign_in(
            &self.sk,
            VotePhase::Prepare,
            VoteBody {
                sender: self.id,
                view: self.cur_view,
                digest,
            },
        );
        self.broadcast(PbftMessage::Prepare(vote), ctx);

        self.maybe_commit(ctx);
        self.maybe_decide(ctx);
    }

    fn maybe_commit(&mut self, ctx: &mut Context<'_, PbftMessage>) {
        if !self.voted || self.sent_commit {
            return;
        }
        let Some(value) = self.cur_val.clone() else {
            return;
        };
        let key = (self.cur_view, value.digest());
        if self.prepare_votes.count(&key) < self.cfg.deterministic_quorum() {
            return;
        }
        self.stats.prepare_quorums += 1;
        self.prepared_view = self.cur_view;
        self.prepared_value = Some(value.clone());
        self.prepared_cert = self
            .prepare_votes
            .votes(&key)
            .map(|(_, v)| v.clone())
            .collect();

        let vote = Vote::sign_in(
            &self.sk,
            VotePhase::Commit,
            VoteBody {
                sender: self.id,
                view: self.cur_view,
                digest: value.digest(),
            },
        );
        self.broadcast(PbftMessage::Commit(vote), ctx);
        self.sent_commit = true;
        self.maybe_decide(ctx);
    }

    fn maybe_decide(&mut self, ctx: &mut Context<'_, PbftMessage>) {
        if self.prepared_view != self.cur_view {
            return;
        }
        let Some(value) = self.prepared_value.clone() else {
            return;
        };
        let key = (self.cur_view, value.digest());
        if self.commit_votes.count(&key) < self.cfg.deterministic_quorum() {
            return;
        }
        self.stats.commit_quorums += 1;
        match &self.decision {
            None => {
                self.decision = Some(Decision {
                    view: self.cur_view,
                    value,
                    at: ctx.now(),
                });
            }
            Some(d) if d.value.digest() != value.digest() => {
                self.conflicting_decision = true;
            }
            Some(_) => {}
        }
    }

    fn handle_current(&mut self, msg: PbftMessage, ctx: &mut Context<'_, PbftMessage>) {
        match msg {
            PbftMessage::Propose(p) => self.on_propose(p, ctx),
            PbftMessage::Prepare(v) => {
                let key = (v.view, v.digest);
                self.prepare_votes.insert(key, v.sender, v);
                self.maybe_commit(ctx);
            }
            PbftMessage::Commit(v) => {
                let key = (v.view, v.digest);
                self.commit_votes.insert(key, v.sender, v);
                self.maybe_decide(ctx);
            }
            PbftMessage::NewLeader(m) => self.on_new_leader(m, ctx),
            PbftMessage::Wish(_) => unreachable!("wishes routed separately"),
        }
    }

    fn apply_sync_action(
        &mut self,
        action: probft_core::synchronizer::SyncAction,
        ctx: &mut Context<'_, PbftMessage>,
    ) {
        if let Some(wish) = action.broadcast_wish {
            let msg = PbftMessage::Wish(Wish::sign(
                &self.sk,
                WishBody {
                    sender: self.id,
                    view: wish,
                },
            ));
            self.broadcast(msg, ctx);
        }
        if let Some(view) = action.enter_view {
            self.enter_view(view, ctx);
        }
    }
}

impl Process for PbftReplica {
    type Message = PbftMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, PbftMessage>) {
        self.enter_view(View::FIRST, ctx);
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: PbftMessage,
        ctx: &mut Context<'_, PbftMessage>,
    ) {
        if msg.verify(&self.verify_ctx()).is_err() {
            self.stats.rejected += 1;
            return;
        }
        if let PbftMessage::Wish(w) = &msg {
            let action = self.sync.on_wish(w.sender, w.view);
            self.apply_sync_action(action, ctx);
            return;
        }
        let view = msg.view();
        if view < self.cur_view {
            return;
        }
        if view > self.cur_view {
            if view.0 - self.cur_view.0 <= self.cfg.view_buffer_horizon() {
                self.future.entry(view).or_default().push(msg);
            } else {
                self.stats.rejected += 1;
            }
            return;
        }
        self.handle_current(msg, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, PbftMessage>) {
        let view = View(token.0);
        if view != self.cur_view {
            return;
        }
        let action = self.sync.on_timeout();
        ctx.set_timer(
            self.cfg.timeout_for(self.cur_view),
            TimerToken(self.cur_view.0),
        );
        self.apply_sync_action(action, ctx);
    }
}

impl fmt::Debug for PbftReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PbftReplica")
            .field("id", &self.id)
            .field("view", &self.cur_view)
            .field("decided", &self.decision.is_some())
            .finish()
    }
}
