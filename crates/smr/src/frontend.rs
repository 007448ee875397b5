//! The replica's client-facing half, without I/O: one [`Frontend`] beside
//! an [`SmrNode`] decides what becomes of each client request, and which
//! client each applied answer goes to. Its embedder moves the bytes — the
//! live runtime over connections, the virtual-time executor
//! ([`crate::sim`]) between processes — so both run the same decisions: a replica that does not
//! lead redirects (and tells the node, [`SmrNode::on_redirect`]); the
//! leader answers an applied retry from the reply cache, sheds a new
//! request past [`max_pending`](crate::SmrSettings::max_pending), or
//! accepts it and answers once it is applied. Time is the context's, in
//! ticks of 1 µs, so [`WAITER_TTL`] holds in virtual time too.

use crate::machine::{Consistency, Entry, OpKind, RequestId, StateMachine};
use crate::node::{SmrMessage, SmrNode};
use probft_core::wire::Wire;
use probft_core::wire_fields;
use probft_obs::TraceKind;
use probft_quorum::ReplicaId;
use probft_simnet::process::Context;
use probft_simnet::time::SimTime;
use std::collections::BTreeMap;
use std::time::Duration;

/// How long a replica keeps an unanswered waiter before concluding the
/// request was lost upstream (view change, deposed leadership) and the
/// client has long since retried elsewhere. Twice the client's default
/// overall submission budget.
pub const WAITER_TTL: Duration = Duration::from_secs(60);

/// A replica's answer to one client request. A redirect names the leader
/// by id, and by `A` where its embedder reaches it otherwise: the live
/// wire's socket address ([`Reply::addressed`]), nothing in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply<R, A = ()> {
    /// The ordered request was applied — now, or before, and answered
    /// from the reply cache — carrying what its one execution returned.
    Applied {
        /// The request answered.
        request: RequestId,
        /// What its one execution returned.
        response: R,
    },
    /// A consensus-bypassing read, evaluated off the applied state
    /// between whole-batch applies: stale at worst, never torn.
    Read {
        /// The read answered.
        request: RequestId,
        /// What it observed.
        response: R,
    },
    /// Not the leader: resubmit to the leader of the log's view as this
    /// replica holds it, so after a view change even an idle replica
    /// points at the new leader.
    Redirect {
        /// The request turned away.
        request: RequestId,
        /// The replica believed to lead.
        leader: ReplicaId,
        /// Where that replica is reached: the authoritative hint, valid
        /// however the client orders its own list.
        addr: A,
    },
    /// Admission control: the leader is alive and leads, but its pending
    /// queue is full, so the request was shed, not queued. The client
    /// backs off and retries the same id *here* — any follower would
    /// redirect it straight back.
    Overloaded {
        /// The request shed (not ordered, not applied).
        request: RequestId,
        /// The queue depth it was shed at: a load signal.
        queued: u32,
    },
}

// The live wire's reply frames: the tags are `SmrFrame`'s, which passes
// every tag it does not list through to here.
wire_fields! {
    impl<R: Wire, A: Wire> Wire for Reply<R, A> {
        3 => Applied { request, response },
        4 => Redirect { request, leader, addr },
        6 => Read { request, response },
        10 => Overloaded { request, queued },
    }
}

impl<R, A> Reply<R, A> {
    /// The request this answers.
    pub fn request(&self) -> RequestId {
        match self {
            Reply::Applied { request, .. }
            | Reply::Read { request, .. }
            | Reply::Redirect { request, .. }
            | Reply::Overloaded { request, .. } => *request,
        }
    }

    /// The same reply, a redirect's leader reached at `addr(leader)`.
    pub fn addressed<B>(self, addr: impl FnOnce(ReplicaId) -> B) -> Reply<R, B> {
        match self {
            Reply::Applied { request, response } => Reply::Applied { request, response },
            Reply::Read { request, response } => Reply::Read { request, response },
            Reply::Redirect {
                request, leader, ..
            } => Reply::Redirect {
                request,
                leader,
                addr: addr(leader),
            },
            Reply::Overloaded { request, queued } => Reply::Overloaded { request, queued },
        }
    }
}

/// One replica's client-facing half: the requests it accepted, each with
/// the handle `C` its answer goes to (a connection, a process) and when it
/// was last registered.
#[derive(Debug)]
pub struct Frontend<C> {
    waiting: BTreeMap<RequestId, (C, SimTime)>,
}

impl<C> Default for Frontend<C> {
    fn default() -> Self {
        Frontend {
            waiting: BTreeMap::new(),
        }
    }
}

impl<C> Frontend<C> {
    /// A request from `from` to order `op`: redirected, answered from the
    /// reply cache, shed (unless a retry of one already waiting, whose
    /// waiter would be orphaned), or accepted — the only case with no
    /// reply to send now. A retry of a waiting request moves its waiter.
    pub fn on_request<S: StateMachine>(
        &mut self,
        node: &mut SmrNode<S>,
        request: RequestId,
        kind: OpKind,
        op: S::Op,
        from: C,
        ctx: &mut Context<SmrMessage>,
    ) -> Option<Reply<S::Response>> {
        if !node.leads() {
            return Some(redirect(node, request, ctx));
        }
        if let Some(response) = node.cached_response(request).cloned() {
            return Some(Reply::Applied { request, response });
        }
        if node.overloaded() && !self.waiting.contains_key(&request) {
            node.obs().shed_requests.inc();
            node.obs().trace(ctx.now().ticks(), TraceKind::OverloadShed);
            let queued = u32::try_from(node.pending_len()).unwrap_or(u32::MAX);
            return Some(Reply::Overloaded { request, queued });
        }
        self.waiting.insert(request, (from, ctx.now()));
        let request = Some(request);
        node.submit(Entry { request, kind, op }, ctx);
        None
    }

    /// A read from `from`: `Local` is served here, `Leader` only by the
    /// replica that believes it leads, and `Linearizable` is ordered like
    /// a write.
    pub fn on_read<S: StateMachine>(
        &mut self,
        node: &mut SmrNode<S>,
        request: RequestId,
        consistency: Consistency,
        op: S::Op,
        from: C,
        ctx: &mut Context<SmrMessage>,
    ) -> Option<Reply<S::Response>> {
        match consistency {
            Consistency::Linearizable => {
                self.on_request(node, request, OpKind::Read, op, from, ctx)
            }
            // A leader read bounced off a silent leader is client contact
            // too, or an idle dead-leader cluster would starve reads.
            Consistency::Leader if !node.leads() => Some(redirect(node, request, ctx)),
            Consistency::Local | Consistency::Leader => {
                let response = node.query(&op);
                Some(Reply::Read { request, response })
            }
        }
    }

    /// Pairs what the node applied since the last call with its waiters,
    /// recording receive → answer as `commit_latency_us`, and forgets
    /// waiters older than [`WAITER_TTL`]. Returns who to send what.
    pub fn on_applied<S: StateMachine>(
        &mut self,
        node: &mut SmrNode<S>,
        ctx: &Context<SmrMessage>,
    ) -> Vec<(C, Reply<S::Response>)> {
        let now = ctx.now().ticks();
        let mut answers = Vec::new();
        for applied in node.drain_applied() {
            if let Some((to, since)) = self.waiting.remove(&applied.request) {
                let waited = now.saturating_sub(since.ticks());
                node.obs().commit_latency_us.record(waited);
                let (request, response) = (applied.request, applied.response);
                answers.push((to, Reply::Applied { request, response }));
            }
        }
        if !self.waiting.is_empty() {
            let ttl = u64::try_from(WAITER_TTL.as_micros()).unwrap_or(u64::MAX);
            let young = |since: &SimTime| now.saturating_sub(since.ticks()) < ttl;
            self.waiting.retain(|_, (_, since)| young(since));
        }
        answers
    }
}

/// Turns `request` away toward the leader of the log's view, counted and
/// journaled: a client turned away is work the named leader owes, and
/// that is what runs the view timer when no slot is in flight anywhere.
fn redirect<S: StateMachine, R>(
    node: &mut SmrNode<S>,
    request: RequestId,
    ctx: &mut Context<SmrMessage>,
) -> Reply<R> {
    let (leader, obs, now) = (node.current_leader(), node.obs(), ctx.now().ticks());
    obs.redirects_served.inc();
    let traced = u64::from(leader.0);
    obs.trace(now, TraceKind::RedirectServed { leader: traced });
    node.on_redirect(ctx);
    Reply::Redirect {
        request,
        leader,
        addr: (),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Command, KvResponse, KvStore};
    use crate::node::SmrSettings;
    use probft_core::config::{ProbftConfig, SharedConfig};
    use probft_core::wire::WireError;
    use probft_crypto::keyring::Keyring;
    use probft_simnet::process::{Action, Process, ProcessId};
    use std::collections::VecDeque;
    use std::net::SocketAddr;
    use std::sync::Arc;

    /// Four nodes (replica 0 leads) and the messages between them, delivered
    /// in order only when asked, at a clock the test sets.
    struct Net {
        nodes: Vec<SmrNode<KvStore>>,
        queue: VecDeque<(usize, usize, SmrMessage)>,
        now: SimTime,
    }

    impl Net {
        fn new(settings: SmrSettings) -> Self {
            let cfg: SharedConfig = Arc::new(ProbftConfig::builder(4).build());
            let keyring = Keyring::generate(4, b"frontend-tests");
            let keys = Arc::new(keyring.public());
            let node = |i: usize| {
                let sk = keyring.signing_key(i).expect("in range").clone();
                let id = ReplicaId::from(i);
                SmrNode::new(cfg.clone(), id, sk, keys.clone(), Vec::new(), settings)
            };
            Net {
                nodes: (0..4).map(node).collect(),
                queue: VecDeque::new(),
                now: SimTime::ZERO,
            }
        }

        /// Runs `f` on node `i` and queues what it sent.
        fn at<R>(
            &mut self,
            i: usize,
            f: impl FnOnce(&mut SmrNode<KvStore>, &mut Context<SmrMessage>) -> R,
        ) -> R {
            let mut ctx = Context::detached(ProcessId(i), self.now);
            let out = f(&mut self.nodes[i], &mut ctx);
            for action in ctx.drain_actions() {
                if let Action::Send { to, msg } = action {
                    self.queue.push_back((i, to.index(), msg));
                }
            }
            out
        }

        /// Delivers every queued message, and what that sends, in order.
        fn deliver(&mut self) {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                self.at(to, |node, ctx| node.on_message(ProcessId(from), msg, ctx));
            }
        }
    }

    type Front = Frontend<u32>;

    fn ttl() -> u64 {
        u64::try_from(WAITER_TTL.as_micros()).expect("in range")
    }

    fn id(seq: u64) -> RequestId {
        RequestId { client: 9, seq }
    }

    fn put(key: &str) -> Command {
        Command::Put {
            key: key.into(),
            value: "v".into(),
        }
    }

    fn submit(
        front: &mut Front,
        net: &mut Net,
        i: usize,
        seq: u64,
        from: u32,
    ) -> Option<Reply<KvResponse>> {
        net.at(i, |node, ctx| {
            front.on_request(node, id(seq), OpKind::Write, put("k"), from, ctx)
        })
    }

    fn applied(front: &mut Front, net: &mut Net) -> Vec<(u32, Reply<KvResponse>)> {
        net.at(0, |node, ctx| front.on_applied(node, ctx))
    }

    #[test]
    fn a_reply_is_its_frame_tag_then_its_fields() {
        let request = RequestId { client: 3, seq: 9 };
        let addr: SocketAddr = "127.0.0.1:7002".parse().expect("an address");
        let leader = ReplicaId(2);
        let replies: [(u8, Reply<KvResponse, SocketAddr>); 4] = [
            (
                3,
                Reply::Applied {
                    request,
                    response: KvResponse::Unit,
                },
            ),
            (
                4,
                Reply::Redirect {
                    request,
                    leader,
                    addr,
                },
            ),
            (
                6,
                Reply::Read {
                    request,
                    response: KvResponse::Value(None),
                },
            ),
            (10, Reply::Overloaded { request, queued: 5 }),
        ];
        for (tag, reply) in replies {
            let bytes = reply.to_wire_bytes();
            assert_eq!(bytes.first(), Some(&tag));
            assert_eq!(bytes.get(1..17), Some(&request.to_wire_bytes()[..]));
            assert_eq!(reply.wire_len(), bytes.len());
            assert_eq!(Reply::from_wire_bytes(&bytes), Ok(reply));
        }
        let unlisted = Reply::<KvResponse, SocketAddr>::from_wire_bytes(&[1]);
        assert_eq!(unlisted, Err(WireError::UnknownTag(1)));
    }

    #[test]
    fn a_follower_redirects_to_the_leader_and_counts_it() {
        let (mut net, mut front) = (Net::new(SmrSettings::live(4)), Front::default());
        let reply = submit(&mut front, &mut net, 2, 1, 7);
        let leader = ReplicaId(0);
        assert_eq!(
            reply,
            Some(Reply::Redirect {
                request: id(1),
                leader,
                addr: ()
            })
        );
        let obs = net.nodes[2].obs();
        assert_eq!(obs.redirects_served.get(), 1);
        // Turned away with nothing in flight, the follower opened a slot.
        assert_eq!(net.nodes[2].slots_opened(), 1);
        assert!(front.waiting.is_empty());
    }

    #[test]
    fn an_applied_retry_is_answered_from_the_cache_not_ordered_again() {
        let (mut net, mut front) = (Net::new(SmrSettings::live(4)), Front::default());
        assert_eq!(submit(&mut front, &mut net, 0, 1, 7), None);
        net.deliver();
        let first = Reply::Applied {
            request: id(1),
            response: KvResponse::Prev(None),
        };
        assert_eq!(applied(&mut front, &mut net), [(7, first.clone())]);
        assert_eq!(net.nodes[0].obs().commit_latency_us.count(), 1);
        let opened = net.nodes[0].slots_opened();
        assert_eq!(submit(&mut front, &mut net, 0, 1, 8), Some(first));
        assert_eq!(net.nodes[0].slots_opened(), opened);
        assert_eq!(net.nodes[0].pending_len(), 0);
        assert!(front.waiting.is_empty());
    }

    #[test]
    fn the_leader_sheds_at_max_pending_but_not_a_retry_of_a_queued_request() {
        let settings = SmrSettings {
            max_pending: 1,
            ..SmrSettings::live(1)
        };
        let (mut net, mut front) = (Net::new(settings), Front::default());
        // The first fills the one-slot window, the second the queue.
        assert_eq!(submit(&mut front, &mut net, 0, 1, 7), None);
        assert_eq!(submit(&mut front, &mut net, 0, 2, 7), None);
        assert!(net.nodes[0].overloaded());
        let shed = Reply::Overloaded {
            request: id(3),
            queued: 1,
        };
        assert_eq!(submit(&mut front, &mut net, 0, 3, 7), Some(shed));
        assert_eq!(net.nodes[0].obs().shed_requests.get(), 1);
        // A retry of the queued request is not shed: its waiter moves.
        assert_eq!(submit(&mut front, &mut net, 0, 2, 8), None);
        assert_eq!(front.waiting.get(&id(2)).map(|w| w.0), Some(8));
        assert_eq!(net.nodes[0].obs().shed_requests.get(), 1);
    }

    #[test]
    fn a_follower_serves_a_local_read_and_redirects_a_leader_read() {
        let (mut net, mut front) = (Net::new(SmrSettings::live(4)), Front::default());
        let get = || Command::Get { key: "k".into() };
        let local = net.at(3, |node, ctx| {
            front.on_read(node, id(1), Consistency::Local, get(), 7, ctx)
        });
        let response = KvResponse::Value(None);
        assert_eq!(
            local,
            Some(Reply::Read {
                request: id(1),
                response
            })
        );
        let leader = net.at(3, |node, ctx| {
            front.on_read(node, id(2), Consistency::Leader, get(), 7, ctx)
        });
        let (request, leader_id) = (id(2), ReplicaId(0));
        assert_eq!(
            leader,
            Some(Reply::Redirect {
                request,
                leader: leader_id,
                addr: ()
            })
        );
        assert_eq!(net.nodes[3].obs().redirects_served.get(), 1);
    }

    #[test]
    fn a_waiter_expires_after_the_ttl_of_virtual_time() {
        let (mut net, mut front) = (Net::new(SmrSettings::live(4)), Front::default());
        assert_eq!(submit(&mut front, &mut net, 0, 1, 7), None);
        net.now = SimTime::from_ticks(ttl() - 1);
        assert!(applied(&mut front, &mut net).is_empty());
        assert_eq!(front.waiting.len(), 1);
        net.now = SimTime::from_ticks(ttl());
        assert!(applied(&mut front, &mut net).is_empty());
        assert!(front.waiting.is_empty());
        // Applied after all, it has nobody left to answer.
        net.deliver();
        assert!(applied(&mut front, &mut net).is_empty());
        assert_eq!(
            net.nodes[0].cached_response(id(1)),
            Some(&KvResponse::Prev(None))
        );
    }
}
