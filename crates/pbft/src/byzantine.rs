//! Byzantine strategies for the PBFT baseline.
//!
//! PBFT's deterministic quorum intersection makes the ProBFT split attack
//! pointless (two quorums of `⌈(n+f+1)/2⌉` share a correct replica, which
//! votes for at most one value per view) — the strategies here exist to
//! demonstrate exactly that in tests.

use crate::message::{PbftMessage, PbftPropose};
use probft_core::config::{SharedConfig, View};
use probft_core::value::Value;
use probft_crypto::schnorr::SigningKey;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use std::fmt;

/// A Byzantine behaviour for a PBFT replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PbftStrategy {
    /// Halts immediately.
    Crash,
    /// Stays alive but silent (a silent leader forces a view change).
    Silent,
    /// As leader of view 1: sends one value to the first half of the
    /// replicas and another to the second half.
    SplitLeader,
}

/// A Byzantine PBFT replica.
pub struct PbftByzantine {
    cfg: SharedConfig,
    id: ReplicaId,
    sk: SigningKey,
    strategy: PbftStrategy,
}

impl PbftByzantine {
    /// Creates a Byzantine PBFT replica.
    pub fn new(cfg: SharedConfig, id: ReplicaId, sk: SigningKey, strategy: PbftStrategy) -> Self {
        PbftByzantine {
            cfg,
            id,
            sk,
            strategy,
        }
    }
}

impl Process for PbftByzantine {
    type Message = PbftMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, PbftMessage>) {
        match self.strategy {
            PbftStrategy::Crash => ctx.halt(),
            PbftStrategy::Silent => {}
            PbftStrategy::SplitLeader => {
                if self.cfg.leader_of(View::FIRST) != self.id {
                    return;
                }
                let n = self.cfg.n();
                let (val1, val2) = (
                    Value::new(b"pbft-equiv-A".to_vec()),
                    Value::new(b"pbft-equiv-B".to_vec()),
                );
                for (value, range) in [(val1, 0..n / 2), (val2, n / 2..n)] {
                    let propose = PbftPropose::lead(&self.sk, self.id, View::FIRST, value, vec![]);
                    let targets: Vec<ProcessId> = range.map(ProcessId).collect();
                    ctx.multicast(targets, PbftMessage::Propose(propose));
                }
            }
        }
    }

    fn on_message(&mut self, _f: ProcessId, _m: PbftMessage, _c: &mut Context<'_, PbftMessage>) {}
    fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, PbftMessage>) {}
}

impl fmt::Debug for PbftByzantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PbftByzantine")
            .field("id", &self.id)
            .field("strategy", &self.strategy)
            .finish()
    }
}
