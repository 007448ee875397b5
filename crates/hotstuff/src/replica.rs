//! The single-shot basic-HotStuff replica: its phases, inside core's view
//! shell.
//!
//! Three vote rounds (prepare, pre-commit, commit), each aggregated by the
//! leader into a QC and re-broadcast; replicas lock on the pre-commit QC
//! and decide on the commit QC. Safety comes from the locking rule; view
//! changes carry the highest prepare QC to the next leader.

use crate::message::{
    BroadcastBody, HsMessage, HsPhase, HsVote, HsVoteBody, LeaderBroadcast, NewViewBody, Qc,
};
use probft_core::config::{ProbftConfig, View};
use probft_core::error::RejectReason;
use probft_core::message::{VerifyCtx, Wish};
use probft_core::shell::{Phases, ShellState, ViewShell};
use probft_core::signed::Signed;
use probft_core::value::Value;
use probft_crypto::sha256::Digest;
use probft_quorum::{QuorumTracker, ReplicaId};
use probft_simnet::process::Context;
use std::collections::{BTreeMap, BTreeSet};

/// A single-shot HotStuff replica.
pub type HsReplica = ViewShell<HsPhases>;

/// HotStuff's state inside the view shell.
#[derive(Debug)]
pub struct HsPhases {
    /// Highest prepare QC seen (the `prepareQC` of the HotStuff paper).
    prepare_qc: Option<Qc>,
    /// The lock set by a valid pre-commit QC.
    locked_qc: Option<Qc>,
    /// Phases already voted in the current view (at most one vote each).
    voted: BTreeSet<HsPhase>,

    // Leader state.
    new_views: BTreeMap<ReplicaId, Option<Qc>>,
    votes: QuorumTracker<(View, HsPhase, Digest), HsVote>,
    proposed: bool,
    /// Phases for which this leader already emitted a QC broadcast.
    qc_sent: BTreeSet<HsPhase>,
}

impl Phases for HsPhases {
    type Message = HsMessage;

    fn new(cfg: &ProbftConfig) -> Self {
        HsPhases {
            prepare_qc: None,
            locked_qc: None,
            voted: BTreeSet::new(),
            new_views: BTreeMap::new(),
            votes: QuorumTracker::new(cfg.deterministic_quorum()),
            proposed: false,
            qc_sent: BTreeSet::new(),
        }
    }

    fn verify(&mut self, msg: &HsMessage, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        msg.verify(ctx)
    }
    fn view_of(msg: &HsMessage) -> View {
        msg.view()
    }
    fn as_wish(msg: &HsMessage) -> Option<&Wish> {
        match msg {
            HsMessage::Wish(w) => Some(w),
            _ => None,
        }
    }

    fn enter_view(&mut self, shell: &mut ShellState, ctx: &mut Context<'_, HsMessage>) {
        self.voted.clear();
        self.new_views.clear();
        self.votes.clear();
        self.proposed = false;
        self.qc_sent.clear();

        let view = shell.current_view();
        if view == View::FIRST {
            if shell.is_leader() {
                self.proposed = true;
                let payload = LeaderBroadcast::Propose {
                    value: shell.my_value.clone(),
                    high_qc: None,
                };
                broadcast_as_leader(payload, shell, ctx);
            }
        } else {
            let body = NewViewBody {
                sender: shell.seat.id,
                view,
                prepare_qc: self.prepare_qc.clone(),
            };
            let msg = HsMessage::NewView(Signed::sign(&shell.seat.sk, body));
            ctx.send(shell.leader(), msg);
        }
    }

    fn on_message(
        &mut self,
        msg: HsMessage,
        shell: &mut ShellState,
        ctx: &mut Context<'_, HsMessage>,
    ) {
        match msg {
            HsMessage::NewView(m) => self.on_new_view(m.body.sender, m.body.prepare_qc, shell, ctx),
            HsMessage::Broadcast(b) => self.on_broadcast(b.body.payload, shell, ctx),
            HsMessage::Vote(v) => self.on_vote(v, shell, ctx),
            HsMessage::Wish(_) => unreachable!("wishes routed separately"),
        }
    }
}

/// Signs `payload` as the current view's leader and broadcasts it.
fn broadcast_as_leader(
    payload: LeaderBroadcast,
    shell: &ShellState,
    ctx: &mut Context<'_, HsMessage>,
) {
    let body = BroadcastBody {
        sender: shell.seat.id,
        view: shell.current_view(),
        payload,
    };
    let msg = HsMessage::Broadcast(Signed::sign(&shell.seat.sk, body));
    ctx.multicast(shell.peers(), msg);
}

impl HsPhases {
    fn on_new_view(
        &mut self,
        sender: ReplicaId,
        prepare_qc: Option<Qc>,
        shell: &mut ShellState,
        ctx: &mut Context<'_, HsMessage>,
    ) {
        if !shell.is_leader() || self.proposed {
            return;
        }
        // A carried QC must be a valid prepare QC from an earlier view.
        if let Some(qc) = &prepare_qc {
            if qc.phase != HsPhase::Prepare
                || qc.view >= shell.current_view()
                || !qc.is_valid(&shell.verify_ctx())
            {
                shell.stats.rejected += 1;
                return;
            }
        }
        self.new_views.insert(sender, prepare_qc);
        if self.new_views.len() >= shell.seat.cfg.deterministic_quorum() {
            // Propose the value of the highest prepare QC, or our own.
            let high_qc = self.high_qc().cloned();
            let value = high_qc
                .as_ref()
                .map_or_else(|| shell.my_value.clone(), |qc| qc.value.clone());
            self.proposed = true;
            broadcast_as_leader(LeaderBroadcast::Propose { value, high_qc }, shell, ctx);
        }
    }

    /// The highest prepare QC reported to this leader in the current view.
    fn high_qc(&self) -> Option<&Qc> {
        self.new_views.values().flatten().max_by_key(|qc| qc.view)
    }

    /// The HotStuff safety rule for voting on a proposal.
    fn safe_to_vote(&self, value: &Value, high_qc: &Option<Qc>, shell: &ShellState) -> bool {
        if !shell.seat.cfg.validity().is_valid(value) {
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
                    && high.is_valid(&shell.verify_ctx())
            }
            (Some(_), None) => false,
        }
    }

    fn send_vote(
        &mut self,
        phase: HsPhase,
        digest: Digest,
        shell: &ShellState,
        ctx: &mut Context<'_, HsMessage>,
    ) {
        if !self.voted.insert(phase) {
            return;
        }
        let body = HsVoteBody {
            phase,
            sender: shell.seat.id,
            view: shell.current_view(),
            digest,
        };
        let vote = HsVote::sign(&shell.seat.sk, body);
        ctx.send(shell.leader(), HsMessage::Vote(vote));
    }

    fn on_broadcast(
        &mut self,
        payload: LeaderBroadcast,
        shell: &mut ShellState,
        ctx: &mut Context<'_, HsMessage>,
    ) {
        // A QC counts only if it certifies `phase` in the current view.
        let certifies = |qc: &Qc, phase: HsPhase| {
            qc.phase == phase && qc.view == shell.current_view() && qc.is_valid(&shell.verify_ctx())
        };
        match payload {
            LeaderBroadcast::Propose { value, high_qc }
                if self.safe_to_vote(&value, &high_qc, shell) =>
            {
                self.send_vote(HsPhase::Prepare, value.digest(), shell, ctx);
            }
            LeaderBroadcast::PreCommit(qc) if certifies(&qc, HsPhase::Prepare) => {
                shell.stats.prepare_quorums += 1;
                self.send_vote(HsPhase::PreCommit, qc.value.digest(), shell, ctx);
                self.prepare_qc = Some(qc);
            }
            LeaderBroadcast::Commit(qc) if certifies(&qc, HsPhase::PreCommit) => {
                self.send_vote(HsPhase::Commit, qc.value.digest(), shell, ctx);
                self.locked_qc = Some(qc);
            }
            LeaderBroadcast::Decide(qc) if certifies(&qc, HsPhase::Commit) => {
                shell.stats.commit_quorums += 1;
                shell.decide(qc.value.digest(), &qc.value, ctx.now());
            }
            _ => shell.stats.rejected += 1,
        }
    }

    fn on_vote(&mut self, vote: HsVote, shell: &ShellState, ctx: &mut Context<'_, HsMessage>) {
        if !shell.is_leader() {
            return;
        }
        let phase = vote.phase;
        let digest = vote.digest;
        let key = (vote.view, phase, digest);
        self.votes.insert(key, vote.sender, vote);
        if self.qc_sent.contains(&phase)
            || self.votes.count(&key) < shell.seat.cfg.deterministic_quorum()
        {
            return;
        }
        // Assemble the QC; we need the full value, which the leader knows
        // from its own proposal (it proposed it).
        let value = self.proposed_value(shell).filter(|v| v.digest() == digest);
        let Some(value) = value else {
            return;
        };
        let votes: Vec<HsVote> = self.votes.votes(&key).map(|(_, v)| v.clone()).collect();
        let qc = Qc {
            phase,
            view: shell.current_view(),
            value,
            votes,
        };
        self.qc_sent.insert(phase);
        let payload = match phase {
            HsPhase::Prepare => LeaderBroadcast::PreCommit(qc),
            HsPhase::PreCommit => LeaderBroadcast::Commit(qc),
            HsPhase::Commit => LeaderBroadcast::Decide(qc),
        };
        broadcast_as_leader(payload, shell, ctx);
    }

    /// The value this leader proposed in the current view (if leader).
    fn proposed_value(&self, shell: &ShellState) -> Option<Value> {
        self.proposed.then(|| {
            self.high_qc()
                .map_or_else(|| shell.my_value.clone(), |qc| qc.value.clone())
        })
    }
}
