//! The single-shot basic-HotStuff replica.
//!
//! Three vote rounds (prepare, pre-commit, commit), each aggregated by the
//! leader into a QC and re-broadcast; replicas lock on the pre-commit QC
//! and decide on the commit QC. Safety comes from the locking rule; view
//! changes carry the highest prepare QC to the next leader.

use crate::message::{
    BroadcastBody, HsMessage, HsPhase, HsVote, HsVoteBody, LeaderBroadcast, NewViewBody, Qc,
};
use probft_core::config::{SharedConfig, View};
use probft_core::message::{VerifyCtx, Wish, WishBody};
use probft_core::replica::{Decision, ReplicaStats};
use probft_core::signed::Signed;
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

/// A single-shot HotStuff replica.
pub struct HsReplica {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    keys: Arc<PublicKeyring>,
    my_value: Value,

    cur_view: View,
    /// Highest prepare QC seen (the `prepareQC` of the HotStuff paper).
    prepare_qc: Option<Qc>,
    /// The lock set by a valid pre-commit QC.
    locked_qc: Option<Qc>,
    /// Phases already voted in the current view (at most one vote each).
    voted: BTreeMap<HsPhase, bool>,

    // Leader state.
    new_views: BTreeMap<ReplicaId, Option<Qc>>,
    votes: QuorumTracker<(View, HsPhase, Digest), HsVote>,
    proposed: bool,
    /// Phases for which this leader already emitted a QC broadcast.
    qc_sent: BTreeMap<HsPhase, bool>,

    sync: Synchronizer,
    future: BTreeMap<View, Vec<HsMessage>>,

    decision: Option<Decision>,
    conflicting_decision: bool,
    stats: ReplicaStats,
}

impl HsReplica {
    /// Creates a HotStuff replica.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        my_value: Value,
    ) -> Self {
        let dq = cfg.deterministic_quorum();
        let f = cfg.faults();
        HsReplica {
            cfg,
            id,
            sk,
            keys,
            my_value,
            cur_view: View::FIRST,
            prepare_qc: None,
            locked_qc: None,
            voted: BTreeMap::new(),
            new_views: BTreeMap::new(),
            votes: QuorumTracker::new(dq),
            proposed: false,
            qc_sent: BTreeMap::new(),
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

    /// Whether the decide rule fired with two different values.
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

    fn is_leader(&self) -> bool {
        self.cfg.leader_of(self.cur_view) == self.id
    }

    fn leader_pid(&self) -> ProcessId {
        ProcessId(self.cfg.leader_of(self.cur_view).index())
    }

    fn broadcast(&self, msg: HsMessage, ctx: &mut Context<'_, HsMessage>) {
        let peers: Vec<ProcessId> = (0..self.cfg.n()).map(ProcessId).collect();
        ctx.multicast(peers, msg);
    }

    /// Signs `payload` as the current view's leader and broadcasts it.
    fn broadcast_as_leader(&self, payload: LeaderBroadcast, ctx: &mut Context<'_, HsMessage>) {
        let body = BroadcastBody {
            sender: self.id,
            view: self.cur_view,
            payload,
        };
        self.broadcast(HsMessage::Broadcast(Signed::sign(&self.sk, body)), ctx);
    }

    fn enter_view(&mut self, view: View, ctx: &mut Context<'_, HsMessage>) {
        self.cur_view = view;
        self.voted.clear();
        self.new_views.clear();
        self.votes.clear();
        self.proposed = false;
        self.qc_sent.clear();
        self.stats.views_entered += 1;

        ctx.set_timer(self.cfg.timeout_for(view), TimerToken(view.0));

        if view == View::FIRST {
            if self.is_leader() {
                let value = self.my_value.clone();
                self.proposed = true;
                let payload = LeaderBroadcast::Propose {
                    value,
                    high_qc: None,
                };
                self.broadcast_as_leader(payload, ctx);
            }
        } else {
            let body = NewViewBody {
                sender: self.id,
                view,
                prepare_qc: self.prepare_qc.clone(),
            };
            let msg = HsMessage::NewView(Signed::sign(&self.sk, body));
            ctx.send(self.leader_pid(), msg);
        }

        self.future.retain(|v, _| *v >= view);
        if let Some(msgs) = self.future.remove(&view) {
            for msg in msgs {
                self.handle_current(msg, ctx);
            }
        }
    }

    fn on_new_view(
        &mut self,
        sender: ReplicaId,
        prepare_qc: Option<Qc>,
        ctx: &mut Context<'_, HsMessage>,
    ) {
        if !self.is_leader() || self.proposed {
            return;
        }
        // A carried QC must be a valid prepare QC from an earlier view.
        if let Some(qc) = &prepare_qc {
            if qc.phase != HsPhase::Prepare
                || qc.view >= self.cur_view
                || !qc.is_valid(&self.verify_ctx())
            {
                self.stats.rejected += 1;
                return;
            }
        }
        self.new_views.insert(sender, prepare_qc);
        if self.new_views.len() >= self.cfg.deterministic_quorum() {
            // Propose the value of the highest prepare QC, or our own.
            let high_qc = self
                .new_views
                .values()
                .flatten()
                .max_by_key(|qc| qc.view)
                .cloned();
            let value = high_qc
                .as_ref()
                .map(|qc| qc.value.clone())
                .unwrap_or_else(|| self.my_value.clone());
            self.proposed = true;
            self.broadcast_as_leader(LeaderBroadcast::Propose { value, high_qc }, ctx);
        }
    }

    /// The HotStuff safety rule for voting on a proposal.
    fn safe_to_vote(&self, value: &Value, high_qc: &Option<Qc>) -> bool {
        if !self.cfg.validity().is_valid(value) {
            return false;
        }
        match (&self.locked_qc, high_qc) {
            (None, _) => true,
            // Safety: the proposal extends the locked value.
            (Some(locked), _) if locked.value.digest() == value.digest() => true,
            // Liveness: the justification is newer than the lock.
            (Some(locked), Some(high)) => {
                high.view > locked.view
                    && high.value.digest() == value.digest()
                    && high.is_valid(&self.verify_ctx())
            }
            (Some(_), None) => false,
        }
    }

    fn send_vote(&mut self, phase: HsPhase, digest: Digest, ctx: &mut Context<'_, HsMessage>) {
        if self.voted.get(&phase).copied().unwrap_or(false) {
            return;
        }
        self.voted.insert(phase, true);
        let vote = HsVote::sign(
            &self.sk,
            HsVoteBody {
                phase,
                sender: self.id,
                view: self.cur_view,
                digest,
            },
        );
        ctx.send(self.leader_pid(), HsMessage::Vote(vote));
    }

    fn on_broadcast(&mut self, payload: LeaderBroadcast, ctx: &mut Context<'_, HsMessage>) {
        match payload {
            LeaderBroadcast::Propose { value, high_qc } => {
                if self.safe_to_vote(&value, &high_qc) {
                    self.send_vote(HsPhase::Prepare, value.digest(), ctx);
                } else {
                    self.stats.rejected += 1;
                }
            }
            LeaderBroadcast::PreCommit(qc) => {
                if qc.phase == HsPhase::Prepare
                    && qc.view == self.cur_view
                    && qc.is_valid(&self.verify_ctx())
                {
                    self.stats.prepare_quorums += 1;
                    self.prepare_qc = Some(qc.clone());
                    self.send_vote(HsPhase::PreCommit, qc.value.digest(), ctx);
                } else {
                    self.stats.rejected += 1;
                }
            }
            LeaderBroadcast::Commit(qc) => {
                if qc.phase == HsPhase::PreCommit
                    && qc.view == self.cur_view
                    && qc.is_valid(&self.verify_ctx())
                {
                    self.locked_qc = Some(qc.clone());
                    self.send_vote(HsPhase::Commit, qc.value.digest(), ctx);
                } else {
                    self.stats.rejected += 1;
                }
            }
            LeaderBroadcast::Decide(qc) => {
                if qc.phase == HsPhase::Commit
                    && qc.view == self.cur_view
                    && qc.is_valid(&self.verify_ctx())
                {
                    self.stats.commit_quorums += 1;
                    match &self.decision {
                        None => {
                            self.decision = Some(Decision {
                                view: self.cur_view,
                                value: qc.value.clone(),
                                at: ctx.now(),
                            });
                        }
                        Some(d) if d.value.digest() != qc.value.digest() => {
                            self.conflicting_decision = true;
                        }
                        Some(_) => {}
                    }
                } else {
                    self.stats.rejected += 1;
                }
            }
        }
    }

    fn on_vote(&mut self, vote: HsVote, ctx: &mut Context<'_, HsMessage>) {
        if !self.is_leader() || vote.view != self.cur_view {
            return;
        }
        let phase = vote.phase;
        let digest = vote.digest;
        let key = (vote.view, phase, digest);
        self.votes.insert(key, vote.sender, vote);
        if self.qc_sent.get(&phase).copied().unwrap_or(false) {
            return;
        }
        if self.votes.count(&key) < self.cfg.deterministic_quorum() {
            return;
        }
        // Assemble the QC; we need the full value, which the leader knows
        // from its own proposal (it proposed it).
        let value = self.proposed_value().filter(|v| v.digest() == digest);
        let Some(value) = value else {
            return;
        };
        let votes: Vec<HsVote> = self.votes.votes(&key).map(|(_, v)| v.clone()).collect();
        let qc = Qc {
            phase,
            view: self.cur_view,
            value,
            votes,
        };
        self.qc_sent.insert(phase, true);
        let payload = match phase {
            HsPhase::Prepare => LeaderBroadcast::PreCommit(qc),
            HsPhase::PreCommit => LeaderBroadcast::Commit(qc),
            HsPhase::Commit => LeaderBroadcast::Decide(qc),
        };
        self.broadcast_as_leader(payload, ctx);
    }

    /// The value this leader proposed in the current view (if leader).
    fn proposed_value(&self) -> Option<Value> {
        if !self.proposed {
            return None;
        }
        let high_qc = self.new_views.values().flatten().max_by_key(|qc| qc.view);
        Some(
            high_qc
                .map(|qc| qc.value.clone())
                .unwrap_or_else(|| self.my_value.clone()),
        )
    }

    fn handle_current(&mut self, msg: HsMessage, ctx: &mut Context<'_, HsMessage>) {
        match msg {
            HsMessage::NewView(m) => self.on_new_view(m.body.sender, m.body.prepare_qc, ctx),
            HsMessage::Broadcast(b) => self.on_broadcast(b.body.payload, ctx),
            HsMessage::Vote(v) => self.on_vote(v, ctx),
            HsMessage::Wish(_) => unreachable!("wishes routed separately"),
        }
    }

    fn apply_sync_action(
        &mut self,
        action: probft_core::synchronizer::SyncAction,
        ctx: &mut Context<'_, HsMessage>,
    ) {
        if let Some(wish) = action.broadcast_wish {
            let msg = HsMessage::Wish(Wish::sign(
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

impl Process for HsReplica {
    type Message = HsMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, HsMessage>) {
        self.enter_view(View::FIRST, ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: HsMessage, ctx: &mut Context<'_, HsMessage>) {
        if msg.verify(&self.verify_ctx()).is_err() {
            self.stats.rejected += 1;
            return;
        }
        if let HsMessage::Wish(w) = &msg {
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

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, HsMessage>) {
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

impl fmt::Debug for HsReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HsReplica")
            .field("id", &self.id)
            .field("view", &self.cur_view)
            .field("locked", &self.locked_qc.is_some())
            .field("decided", &self.decision.is_some())
            .finish()
    }
}
