//! ProBFT message types: `Propose`, `Prepare`, `Commit`, `NewLeader`, and
//! the synchronizer's `Wish`.
//!
//! Every message is a [`Signed`] body, signed by its *signer*, which may
//! differ from the transport-level sender: line 25 of Algorithm 1 has
//! replicas re-broadcast a conflicting message verbatim to expose leader
//! equivocation, so verification always runs against the signer recorded
//! inside the body. The bodies here are field lists plus the checks that
//! are genuinely theirs; payload, signature and key lookup live in
//! [`crate::signed`].
//!
//! The value `x` travels once, in the `Propose`. The leader signs the header
//! `⟨v, H(x)⟩_j` ([`SignedProposal`], 60 bytes), and that one signature
//! serves the Propose, every vote and every certificate. A `Prepare` or
//! `Commit` is the header, the voter's VRF proof `P` and the voter's
//! signature: 104 bytes for every `n` with `s < n` and every value size.
//! The sample `S` of lines 15–16 and 19–20 is a function of `P`
//! ([`PhaseBody::sample`]), so it is not shipped: the sender expands its
//! proof to address the vote, a receiver checks the proof and draws from it
//! until it finds itself (preconditions of lines 17 and 21). Where `s = n`
//! the sample is everyone whatever the proof says, so a vote carries none
//! (81 bytes, a one-byte marker in the proof's place), goes to every
//! replica in id order and counts for each; a vote whose proof is present
//! or absent against its cluster's regime fails verification. A vote is
//! counted by matching `(view, digest)` against the header of the Propose
//! the receiver accepted, which carried `x` — so no replica prepares,
//! commits or decides a value it lacks.

use crate::config::{ProbftConfig, View};
use crate::error::RejectReason;
use crate::sampling::{self, Phase};
use crate::shell::Seat;
use crate::signed::{Signed, SignedBody};
use crate::value::Value;
use crate::wire::{self, Reader, Wire, WireError};
use crate::wire_fields;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_crypto::vrf::VrfProof;
use probft_quorum::ReplicaId;
use probft_simnet::metrics::Measurable;
use probft_simnet::process::ProcessId;

/// Context needed to verify any message: protocol parameters plus the
/// public keys of the population.
#[derive(Clone, Copy, Debug)]
pub struct VerifyCtx<'a> {
    /// The instance configuration.
    pub cfg: &'a ProbftConfig,
    /// Public keys of all replicas.
    pub keys: &'a PublicKeyring,
    /// A header the caller has seen pass [`SignedProposal::verify`], which
    /// accepts it again without redoing the work: all votes of a view embed
    /// one header, so a replica that remembers it checks the leader's
    /// signature once per view, not once per vote.
    pub known_header: Option<SignedProposal>,
}

impl<'a> VerifyCtx<'a> {
    /// Creates a verification context that takes nothing on trust.
    pub fn new(cfg: &'a ProbftConfig, keys: &'a PublicKeyring) -> Self {
        VerifyCtx {
            cfg,
            keys,
            known_header: None,
        }
    }
}

// ---------------------------------------------------------------------------
// SignedProposal — the leader-signed ⟨v, H(x)⟩_j header.
// ---------------------------------------------------------------------------

/// The leader-signed proposal header `⟨v, H(x)⟩_j` embedded in `Propose`,
/// `Prepare`, and `Commit` messages.
///
/// Because only the leader of `v` can produce this signature, two
/// `SignedProposal`s for the same view with different digests are *proof of
/// equivocation* (used by lines 23–25 of Algorithm 1) — no payload needed.
pub type SignedProposal = Signed<ProposalBody>;

/// The contents of a [`SignedProposal`]: what the leader's signature binds.
/// The value itself travels beside the header in the [`Propose`] alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProposalBody {
    /// The view this proposal belongs to.
    pub view: View,
    /// The signer — must be `leader(view)`.
    pub leader: ReplicaId,
    /// Digest of the proposed value.
    pub digest: Digest,
}

impl SignedBody for ProposalBody {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        b"probft-proposal|"
    }
    fn signer(&self) -> ReplicaId {
        self.leader
    }
}

wire_fields! { impl Wire for ProposalBody { view, leader, digest } }

impl Signed<ProposalBody> {
    /// Verifies the leader signature and that the signer leads the view —
    /// or recognises the header `ctx` knows, by all of it, signature bytes
    /// included (a known `(view, digest)` under another signature is
    /// another header and is checked in full).
    ///
    /// # Errors
    ///
    /// [`RejectReason::WrongLeader`] if the signer does not lead `view`;
    /// [`RejectReason::BadProposalSignature`] on signature failure.
    pub fn verify(&self, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        if ctx.known_header.as_ref() == Some(self) {
            return Ok(());
        }
        if ctx.cfg.leader_of(self.view) != self.leader {
            return Err(RejectReason::WrongLeader {
                view: self.view,
                claimed: self.leader,
            });
        }
        self.verify_signature(ctx.keys).map_err(|e| match e {
            RejectReason::BadSignature => RejectReason::BadProposalSignature,
            other => other,
        })
    }
}

// ---------------------------------------------------------------------------
// Prepare / Commit — sample-multicast phase messages.
// ---------------------------------------------------------------------------

/// A phase message: `⟨Prepare/Commit, ⟨v, H(x)⟩_j, P⟩_i` (lines 16 and 20).
///
/// `Prepare` and `Commit` share this structure; they differ only in the
/// phase, which selects the signature's domain tag and the VRF seed (and
/// therefore the valid proof and its sample).
pub type PhaseMessage = Signed<PhaseBody>;

/// The contents of a [`PhaseMessage`]: who votes, for which leader-signed
/// header, and the proof of whom the vote may be counted by. One size per
/// regime — neither the value nor the sample is in it (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseBody {
    /// The signer `i`.
    pub sender: ReplicaId,
    /// The leader-signed header this vote supports.
    pub proposal: SignedProposal,
    /// The VRF proof `P` for `(sender, view, phase)`, which determines the
    /// recipient sample `S`: present exactly when the cluster samples
    /// (`s < n`); where `s = n` the sample is everyone and there is none.
    pub proof: Option<VrfProof>,
}

/// Whether `cfg`'s votes go to a sample smaller than the cluster, and so
/// carry the VRF proof that names it.
fn samples(cfg: &ProbftConfig) -> bool {
    cfg.sample_size() < cfg.n()
}

impl PhaseBody {
    /// The recipient sample `S`, in send order: the one the proof
    /// determines, or every replica in id order for a vote without one.
    /// Meaningful once the vote has verified.
    pub fn sample(&self, cfg: &ProbftConfig) -> Vec<ReplicaId> {
        match &self.proof {
            Some(proof) => sampling::sample_of(proof, cfg.sample_size(), cfg.n()),
            None => cfg.all_replicas().collect(),
        }
    }
}

impl SignedBody for PhaseBody {
    type Phase = Phase;
    fn domain(phase: Phase) -> &'static [u8] {
        match phase {
            Phase::Prepare => b"probft-prepare|",
            Phase::Commit => b"probft-commit|",
        }
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

/// What stands in a vote's proof slot when it has no proof. A proof's first
/// byte is the top byte of `Γ < P < 2⁶³`, below `0x80`, so this byte cannot
/// begin one; any other leading byte at or above it is an unknown tag.
const NO_PROOF: u8 = 0x80;

// By hand, not `wire_fields!`: the proof slot is a proof or the one-byte
// `NO_PROOF`, which keeps a vote with a proof byte-identical to the vote
// before the slot became optional.
impl Wire for PhaseBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.proposal.encode(out);
        match &self.proof {
            Some(proof) => proof.encode(out),
            None => out.push(NO_PROOF),
        }
    }
    fn wire_len(&self) -> usize {
        let proof = self.proof.as_ref().map_or(1, Wire::wire_len);
        wire::fields_len([self.sender.wire_len(), self.proposal.wire_len(), proof])
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let sender = ReplicaId::decode(r)?;
        let proposal = SignedProposal::decode(r)?;
        let proof = match r.peek()? {
            NO_PROOF => {
                r.u8()?;
                None
            }
            t if t > NO_PROOF => return Err(WireError::UnknownTag(t)),
            _ => Some(VrfProof::decode(r)?),
        };
        Ok(PhaseBody {
            sender,
            proposal,
            proof,
        })
    }
}

impl Signed<PhaseBody> {
    /// Full verification: leader-signed header, outer signature, and VRF
    /// proof — which must be present exactly when the cluster samples
    /// (`s < n`); where `s = n` there is no proof to check.
    ///
    /// Does **not** check receiver sample membership — that is a property of
    /// a specific receiver, checked by [`CertVote::counts_for`].
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check;
    /// [`RejectReason::BadVrfProof`] also for a proof present or absent
    /// against the regime.
    pub fn verify(&self, phase: Phase, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        self.proposal.verify(ctx)?;
        self.verify_in(phase, ctx.keys)?;
        match (&self.proof, samples(ctx.cfg)) {
            (None, false) => Ok(()),
            (Some(proof), true) => {
                let key = ctx.keys.tabled_key(self.sender.index())?;
                if sampling::verify_proof(key, self.proposal.view, phase, proof) {
                    Ok(())
                } else {
                    Err(RejectReason::BadVrfProof)
                }
            }
            (Some(_), false) | (None, true) => Err(RejectReason::BadVrfProof),
        }
    }
}

// ---------------------------------------------------------------------------
// NewLeader / Propose — the view-change report and the leader's broadcast,
// generic over the vote their certificates are made of.
// ---------------------------------------------------------------------------

/// The Prepare/Commit vote body of a Propose → Prepare → Commit protocol,
/// and with it the protocol's *vote policy*: what view-change certificates
/// are built from, what [`MessageOf`] is generic over, and the only places
/// where the one replica ([`crate::replica::ThreePhase`]) and the one
/// adversary ([`crate::byzantine::ByzantineReplica`]) behave differently
/// for ProBFT (sampled [`PhaseBody`] votes) and for the PBFT baseline
/// (broadcast digest votes). The vote supplies the domain tags, so the two
/// never share a signature.
pub trait CertVote: SignedBody<Phase = Phase> + Clone {
    /// Domain tag of a [`NewLeader`] carrying these votes.
    const NEW_LEADER_DOMAIN: &'static [u8];
    /// Domain tag of a [`Propose`] justified by such NewLeaders.
    const PROPOSE_DOMAIN: &'static [u8];
    /// The quorum multiplier `l` and overprovision factor `o` harness
    /// instances of this policy start from.
    const QUORUM_PARAMS: (f64, f64);

    /// The view the vote was cast in.
    fn view(&self) -> View;

    /// Digest of the value voted for; with [`view`](Self::view), the key
    /// votes are matched under.
    fn digest(&self) -> Digest;

    /// Full verification of a vote cast in `phase`: its signature, plus
    /// whatever else the vote carries that a receiver must check.
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check.
    fn verify_vote(
        vote: &Signed<Self>,
        phase: Phase,
        ctx: &VerifyCtx<'_>,
    ) -> Result<(), RejectReason> {
        vote.verify_in(phase, ctx.keys)
    }

    /// How `sender`'s vote for an accepted `proposal` is cast (lines 15–16
    /// and 19–20).
    fn cast(
        sk: &SigningKey,
        cfg: &ProbftConfig,
        phase: Phase,
        sender: ReplicaId,
        proposal: &SignedProposal,
    ) -> Signed<Self>;

    /// Who the vote is sent to, in send order.
    fn recipients(&self, cfg: &ProbftConfig) -> Vec<ProcessId>;

    /// How many matching votes make a quorum (lines 17 and 21). Applied to
    /// a certificate's votes that [`counts_for`](Self::counts_for) its
    /// holder, this is also what `prepared(C, v, x, j)` means.
    fn quorum(cfg: &ProbftConfig) -> usize;

    /// Whether `receiver` may count this vote (the `i ∈ S` precondition).
    fn counts_for(&self, receiver: ReplicaId, cfg: &ProbftConfig) -> bool;

    /// The leader-signed header the vote embeds, which lines 23–25
    /// compare against `curVal`'s.
    fn proposal(&self) -> Option<&SignedProposal>;
}

impl CertVote for PhaseBody {
    const NEW_LEADER_DOMAIN: &'static [u8] = b"probft-newleader|";
    const PROPOSE_DOMAIN: &'static [u8] = b"probft-propose|";
    // The paper's operating point (§5).
    const QUORUM_PARAMS: (f64, f64) = (2.0, 1.7);

    fn view(&self) -> View {
        self.proposal.view
    }
    fn digest(&self) -> Digest {
        self.proposal.digest
    }
    fn verify_vote(
        vote: &PhaseMessage,
        phase: Phase,
        ctx: &VerifyCtx<'_>,
    ) -> Result<(), RejectReason> {
        vote.verify(phase, ctx)
    }

    fn cast(
        sk: &SigningKey,
        cfg: &ProbftConfig,
        phase: Phase,
        sender: ReplicaId,
        proposal: &SignedProposal,
    ) -> PhaseMessage {
        // The vote goes to the sample this proof determines, which
        // `recipients` expands when it is sent — or, where the sample is
        // everyone, to everyone, with no proof to derive.
        let body = PhaseBody {
            sender,
            proposal: *proposal,
            proof: samples(cfg).then(|| sampling::derive_proof(sk, proposal.view, phase)),
        };
        Signed::sign_in(sk, phase, body)
    }
    fn recipients(&self, cfg: &ProbftConfig) -> Vec<ProcessId> {
        let sample = self.sample(cfg);
        sample.iter().map(|r| ProcessId(r.index())).collect()
    }
    fn quorum(cfg: &ProbftConfig) -> usize {
        cfg.probabilistic_quorum()
    }
    fn counts_for(&self, receiver: ReplicaId, cfg: &ProbftConfig) -> bool {
        self.proof
            .as_ref()
            .is_none_or(|proof| sampling::in_sample(proof, cfg.sample_size(), cfg.n(), receiver))
    }
    fn proposal(&self) -> Option<&SignedProposal> {
        Some(&self.proposal)
    }
}

/// `⟨NewLeader, v, preparedView, preparedVal, cert⟩_i` (line 5).
///
/// Reports the sender's latest prepared value (if any) to the leader of the
/// new view `v`, carrying the prepared certificate — a quorum of Prepare
/// votes — as evidence. [`Signed::verify_signature`] checks the outer
/// signature; the semantic `validNewLeader` check lives in
/// [`crate::predicates`].
pub type NewLeader = Signed<NewLeaderBody<PhaseBody>>;

/// The contents of a [`NewLeader`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NewLeaderBody<V> {
    /// The signer.
    pub sender: ReplicaId,
    /// The view being entered.
    pub view: View,
    /// The view in which the sender last prepared a value
    /// ([`View::NONE`] if it never prepared).
    pub prepared_view: View,
    /// The prepared value, if any — carried whole, once, so the new leader
    /// can re-propose it; the certificate's votes name it by digest.
    pub prepared_value: Option<Value>,
    /// The prepared certificate: a quorum of Prepare votes for
    /// `(prepared_view, H(prepared_value))` (in ProBFT, all including the
    /// sender in their samples).
    pub cert: Vec<Signed<V>>,
}

impl<V: CertVote> SignedBody for NewLeaderBody<V> {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        V::NEW_LEADER_DOMAIN
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

wire_fields! {
    impl<V: Wire> Wire for NewLeaderBody<V> { sender, view, prepared_view, prepared_value, cert }
}

/// `⟨Propose, ⟨v, H(x)⟩_i, x, M⟩_i` (lines 3, 10, 12).
///
/// In view 1 the justification `M` is empty; in later views it must contain
/// a deterministic quorum of [`NewLeader`] messages proving the proposal
/// respects earlier (probable) decisions — checked by `safeProposal`.
pub type Propose = Signed<ProposeBody<PhaseBody>>;

/// The contents of a [`Propose`]: the only message of a view that carries
/// the value. Votes repeat its header, so a replica counts a vote by
/// comparing headers and reads the value from the Propose it accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProposeBody<V> {
    /// The leader-signed header `⟨v, H(x)⟩`.
    pub proposal: SignedProposal,
    /// The proposed value `x`, which must hash to the header's digest.
    pub value: Value,
    /// The justification set `M` of NewLeader messages.
    pub justification: Vec<Signed<NewLeaderBody<V>>>,
}

impl<V> ProposeBody<V> {
    /// The view this Propose belongs to.
    pub fn view(&self) -> View {
        self.proposal.view
    }
}

impl<V: CertVote> SignedBody for ProposeBody<V> {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        V::PROPOSE_DOMAIN
    }
    fn signer(&self) -> ReplicaId {
        self.proposal.leader
    }
}

wire_fields! { impl<V: Wire> Wire for ProposeBody<V> { proposal, value, justification } }

impl<V: CertVote> Signed<ProposeBody<V>> {
    /// Signs `⟨v, H(x)⟩` and the Propose carrying it and `x`, as the leader.
    pub fn lead(
        sk: &SigningKey,
        leader: ReplicaId,
        view: View,
        value: Value,
        justification: Vec<Signed<NewLeaderBody<V>>>,
    ) -> Self {
        let header = ProposalBody {
            view,
            leader,
            digest: value.digest(),
        };
        let body = ProposeBody {
            proposal: Signed::sign(sk, header),
            value,
            justification,
        };
        Signed::sign(sk, body)
    }

    /// Verifies that the value is the one the header names, then leader
    /// identity and both signatures (plus the signatures of all
    /// justification messages).
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check.
    pub fn verify(&self, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        if self.value.digest() != self.proposal.digest {
            return Err(RejectReason::ValueDigestMismatch);
        }
        self.proposal.verify(ctx)?;
        self.verify_signature(ctx.keys)?;
        self.justification
            .iter()
            .try_for_each(|m| m.verify_signature(ctx.keys))
    }
}

// ---------------------------------------------------------------------------
// Wish — synchronizer view-advancement vote.
// ---------------------------------------------------------------------------

/// A synchronizer message: the sender wishes to enter `view`.
///
/// Part of the Bravo–Chockler–Gotsman synchronizer abstraction the paper
/// builds on (§3.2): `f+1` wishes for a view are amplified, `2f+1` wishes
/// trigger entry.
pub type Wish = Signed<WishBody>;

/// The contents of a [`Wish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WishBody {
    /// The signer.
    pub sender: ReplicaId,
    /// The wished-for view.
    pub view: View,
}

impl Signed<WishBody> {
    /// The wish of the replica in `seat` to enter `view`.
    pub fn cast(seat: &Seat, view: View) -> Self {
        let sender = seat.id;
        Signed::sign(&seat.sk, WishBody { sender, view })
    }
}

impl SignedBody for WishBody {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        b"probft-wish|"
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

wire_fields! { impl Wire for WishBody { sender, view } }

// ---------------------------------------------------------------------------
// Message — the transport envelope.
// ---------------------------------------------------------------------------

/// Any ProBFT protocol message.
pub type Message = MessageOf<PhaseBody>;

/// Any message of a Propose → Prepare → Commit protocol whose votes are
/// `V`: ProBFT's [`Message`], or the PBFT baseline's over its digest votes.
#[derive(Clone, Debug, PartialEq)]
pub enum MessageOf<V> {
    /// Leader proposal (propose phase).
    Propose(Signed<ProposeBody<V>>),
    /// Prepare-phase vote (in ProBFT, multicast to a VRF sample).
    Prepare(Signed<V>),
    /// Commit-phase vote (in ProBFT, multicast to a VRF sample).
    Commit(Signed<V>),
    /// View-change report to the incoming leader.
    NewLeader(Signed<NewLeaderBody<V>>),
    /// Synchronizer view-advancement vote.
    Wish(Wish),
}

impl<V> From<Wish> for MessageOf<V> {
    fn from(wish: Wish) -> Self {
        MessageOf::Wish(wish)
    }
}

impl<V: CertVote> MessageOf<V> {
    /// Wraps a vote cast in `phase`.
    pub fn vote(phase: Phase, vote: Signed<V>) -> Self {
        match phase {
            Phase::Prepare => MessageOf::Prepare(vote),
            Phase::Commit => MessageOf::Commit(vote),
        }
    }

    /// The leader-signed header embedded in this message, if any.
    ///
    /// This is the `⟨v, H(x)⟩_j` unit that lines 23–25 of Algorithm 1
    /// compare against `curVal`'s to detect equivocation; `NewLeader` and
    /// `Wish` carry no current-view header, and neither do the PBFT
    /// baseline's votes, which name the digest unsigned by the leader.
    pub fn embedded_proposal(&self) -> Option<&SignedProposal> {
        match self {
            MessageOf::Propose(p) => Some(&p.proposal),
            MessageOf::Prepare(p) | MessageOf::Commit(p) => p.proposal(),
            MessageOf::NewLeader(_) | MessageOf::Wish(_) => None,
        }
    }

    /// The view this message belongs to.
    pub fn view(&self) -> View {
        match self {
            MessageOf::Propose(p) => p.proposal.view,
            MessageOf::Prepare(p) | MessageOf::Commit(p) => p.view(),
            MessageOf::NewLeader(m) => m.view,
            MessageOf::Wish(w) => w.view,
        }
    }

    /// The replica that signed (authored) this message.
    pub fn signer(&self) -> ReplicaId {
        match self {
            MessageOf::Propose(p) => p.signer(),
            MessageOf::Prepare(p) | MessageOf::Commit(p) => p.signer(),
            MessageOf::NewLeader(m) => m.signer(),
            MessageOf::Wish(w) => w.signer(),
        }
    }

    /// Full cryptographic verification of the message.
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check.
    pub fn verify(&self, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        match self {
            MessageOf::Propose(p) => p.verify(ctx),
            MessageOf::Prepare(p) => V::verify_vote(p, Phase::Prepare, ctx),
            MessageOf::Commit(p) => V::verify_vote(p, Phase::Commit, ctx),
            MessageOf::NewLeader(m) => m.verify_signature(ctx.keys),
            MessageOf::Wish(w) => w.verify_signature(ctx.keys),
        }
    }
}

wire_fields! {
    impl<V: CertVote> Wire for MessageOf<V> {
        1 => Propose(m), 2 => Prepare(m), 3 => Commit(m), 4 => NewLeader(m), 5 => Wish(m)
    }
}

impl<V: CertVote> Measurable for MessageOf<V> {
    fn kind(&self) -> &'static str {
        match self {
            MessageOf::Propose(_) => "Propose",
            MessageOf::Prepare(_) => "Prepare",
            MessageOf::Commit(_) => "Commit",
            MessageOf::NewLeader(_) => "NewLeader",
            MessageOf::Wish(_) => "Wish",
        }
    }
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireError;
    use probft_crypto::keyring::Keyring;

    fn setup(n: usize) -> (ProbftConfig, Keyring) {
        let cfg = ProbftConfig::builder(n).build();
        let ring = Keyring::generate(n, b"msg-test");
        (cfg, ring)
    }

    fn header_for(cfg: &ProbftConfig, ring: &Keyring, view: View, value: &Value) -> SignedProposal {
        let leader = cfg.leader_of(view);
        SignedProposal::sign(
            ring.signing_key(leader.index()).unwrap(),
            ProposalBody {
                view,
                leader,
                digest: value.digest(),
            },
        )
    }

    fn proposal(cfg: &ProbftConfig, ring: &Keyring, view: View, tag: u64) -> SignedProposal {
        header_for(cfg, ring, view, &Value::from_tag(tag))
    }

    /// Replica `i`'s genuine `phase` vote for `proposal`.
    fn vote(
        cfg: &ProbftConfig,
        ring: &Keyring,
        phase: Phase,
        i: usize,
        proposal: SignedProposal,
    ) -> PhaseMessage {
        let sk = ring.signing_key(i).unwrap();
        PhaseBody::cast(sk, cfg, phase, ReplicaId::from(i), &proposal)
    }

    #[test]
    fn signed_proposal_verifies() {
        let (cfg, ring) = setup(4);
        let p = proposal(&cfg, &ring, View(1), 7);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(p.verify(&ctx).is_ok());
    }

    #[test]
    fn non_leader_proposal_rejected() {
        let (cfg, ring) = setup(4);
        // Replica 2 signs a proposal for view 1, whose leader is replica 0.
        let p = SignedProposal::sign(
            ring.signing_key(2).unwrap(),
            ProposalBody {
                view: View(1),
                leader: ReplicaId(2),
                digest: Value::from_tag(1).digest(),
            },
        );
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert_eq!(
            p.verify(&ctx),
            Err(RejectReason::WrongLeader {
                view: View(1),
                claimed: ReplicaId(2)
            })
        );
    }

    #[test]
    fn forged_proposal_signature_rejected() {
        let (cfg, ring) = setup(4);
        let mut p = proposal(&cfg, &ring, View(1), 7);
        p.body.digest = Value::from_tag(8).digest(); // tamper after signing
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert_eq!(p.verify(&ctx), Err(RejectReason::BadProposalSignature));
    }

    #[test]
    fn known_header_is_recognised_by_all_of_its_bytes() {
        let (cfg, ring) = setup(4);
        let public = ring.public();
        let genuine = proposal(&cfg, &ring, View(1), 7);
        let ctx = VerifyCtx {
            known_header: Some(genuine),
            ..VerifyCtx::new(&cfg, &public)
        };
        assert_eq!(genuine.verify(&ctx), Ok(()));
        // Same view and digest under another signature is another header:
        // it gets the full check, and fails it.
        let mut garbage = genuine;
        garbage.signature = ring.signing_key(0).unwrap().sign(b"not the header");
        assert_eq!(
            garbage.verify(&ctx),
            Err(RejectReason::BadProposalSignature)
        );
    }

    #[test]
    fn prepare_round_trip_and_verify() {
        let (cfg, ring) = setup(16);
        let p = proposal(&cfg, &ring, View(1), 1);
        let msg = vote(&cfg, &ring, Phase::Prepare, 3, p);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(msg.verify(Phase::Prepare, &ctx).is_ok());
        // Same message fails commit-phase verification (different domain).
        assert_eq!(
            msg.verify(Phase::Commit, &ctx),
            Err(RejectReason::BadSignature)
        );
        // The sample is the one the sender drew, recomputed from the proof.
        let sk = ring.signing_key(3).unwrap();
        let (drawn, _) =
            sampling::derive_sample(sk, View(1), Phase::Prepare, cfg.sample_size(), cfg.n());
        assert_eq!(msg.sample(&cfg), drawn);

        // `Message` is `MessageOf<PhaseBody>`.
        let wire = Message::Prepare(msg);
        let decoded = MessageOf::<PhaseBody>::from_wire_bytes(&wire.to_wire_bytes()).unwrap();
        assert_eq!(decoded, wire);

        // The bare structs (not just the enum wrapper) must roundtrip.
        assert_eq!(
            PhaseMessage::from_wire_bytes(&msg.to_wire_bytes()).unwrap(),
            msg
        );
        assert_eq!(
            SignedProposal::from_wire_bytes(&p.to_wire_bytes()).unwrap(),
            p
        );
    }

    #[test]
    fn a_cast_vote_is_sent_to_the_sample_its_sender_derives() {
        for n in [16, 100] {
            let (cfg, ring) = setup(n);
            let sk = ring.signing_key(3).unwrap();
            for (view, phase) in [(View(1), Phase::Prepare), (View(2), Phase::Commit)] {
                let header = proposal(&cfg, &ring, view, 1);
                let vote = PhaseBody::cast(sk, &cfg, phase, ReplicaId(3), &header);
                let (sample, proof) =
                    sampling::derive_sample(sk, view, phase, cfg.sample_size(), cfg.n());
                assert_eq!(vote.proof, Some(proof), "n = {n}, {phase:?}");
                let sent: Vec<ProcessId> = sample.iter().map(|r| ProcessId(r.index())).collect();
                assert_eq!(vote.recipients(&cfg), sent, "n = {n}, {phase:?}");
            }
        }
        // At n = 4 the sample is everyone (s = n): no proof, and the vote
        // goes to every replica in id order and counts for each.
        let (cfg, ring) = setup(4);
        assert_eq!(cfg.sample_size(), 4);
        let header = proposal(&cfg, &ring, View(1), 1);
        let vote = vote(&cfg, &ring, Phase::Prepare, 3, header);
        let everyone: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        assert_eq!(vote.proof, None);
        assert_eq!(vote.recipients(&cfg), everyone);
        assert!(cfg.all_replicas().all(|id| vote.counts_for(id, &cfg)));
    }

    #[test]
    fn forged_sample_rejected() {
        // A vote cannot name its sample, so the only way left to claim
        // another one is to attach a proof that determines another one:
        // the sender's own proof for the other phase or for another view,
        // or someone else's proof. Each is re-signed honestly, so only the
        // proof check stands in the way.
        let (cfg, ring) = setup(16);
        let p = proposal(&cfg, &ring, View(1), 1);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let sk = ring.signing_key(3).unwrap();
        let proof_of = |i: usize, view, phase| {
            let sk = ring.signing_key(i).unwrap();
            sampling::derive_sample(sk, view, phase, cfg.sample_size(), cfg.n()).1
        };
        for (proof, genuine) in [
            (proof_of(3, View(1), Phase::Prepare), true),
            (proof_of(3, View(1), Phase::Commit), false),
            (proof_of(3, View(2), Phase::Prepare), false),
            (proof_of(4, View(1), Phase::Prepare), false),
        ] {
            let body = PhaseBody {
                sender: ReplicaId(3),
                proposal: p,
                proof: Some(proof),
            };
            let msg = PhaseMessage::sign_in(sk, Phase::Prepare, body);
            let expected = if genuine {
                Ok(())
            } else {
                Err(RejectReason::BadVrfProof)
            };
            assert_eq!(msg.verify(Phase::Prepare, &ctx), expected);
        }
    }

    #[test]
    fn a_proof_present_or_absent_against_the_regime_is_rejected() {
        // Each vote is the sender's genuine one with its proof swapped for
        // the other regime's, then re-signed honestly: only the regime
        // check stands in the way.
        for (n, samples) in [(4, false), (16, true)] {
            let (cfg, ring) = setup(n);
            assert_eq!(cfg.sample_size() < n, samples, "n = {n}");
            let public = ring.public();
            let ctx = VerifyCtx::new(&cfg, &public);
            let sk = ring.signing_key(3).unwrap();
            let header = proposal(&cfg, &ring, View(1), 1);
            let genuine = vote(&cfg, &ring, Phase::Prepare, 3, header);
            assert_eq!(genuine.verify(Phase::Prepare, &ctx), Ok(()), "n = {n}");
            let swapped = PhaseBody {
                proof: match genuine.proof {
                    Some(_) => None,
                    None => Some(sampling::derive_proof(sk, View(1), Phase::Prepare)),
                },
                ..genuine.body
            };
            let forged = PhaseMessage::sign_in(sk, Phase::Prepare, swapped);
            assert_eq!(
                forged.verify(Phase::Prepare, &ctx),
                Err(RejectReason::BadVrfProof),
                "n = {n}"
            );
        }
    }

    #[test]
    fn a_proof_slot_byte_above_the_marker_is_an_unknown_tag() {
        // The proof slot follows the sender (4 B) and the header (60 B).
        const SLOT: usize = 64;
        for n in [4, 16] {
            let (cfg, ring) = setup(n);
            let header = proposal(&cfg, &ring, View(1), 1);
            let genuine = vote(&cfg, &ring, Phase::Prepare, 3, header);
            let bytes = genuine.to_wire_bytes();
            assert_eq!(PhaseMessage::from_wire_bytes(&bytes), Ok(genuine));
            assert!(bytes[SLOT] <= NO_PROOF, "n = {n}");
            for tag in [0x81, 0xC0, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[SLOT] = tag;
                assert_eq!(
                    PhaseMessage::from_wire_bytes(&corrupt),
                    Err(WireError::UnknownTag(tag)),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn vote_is_one_size_per_regime_for_every_value() {
        let sizes: Vec<(usize, usize)> = [7, 100]
            .into_iter()
            .flat_map(|n| {
                let (cfg, ring) = setup(n);
                [Value::from_tag(1), Value::new(vec![0xAB; 1024])].map(|value| {
                    let header = header_for(&cfg, &ring, View(1), &value);
                    let vote = vote(&cfg, &ring, Phase::Prepare, 3, header);
                    (vote.to_wire_bytes().len(), vote.wire_len())
                })
            })
            .collect();
        // n = 7 samples everyone (s = n): no proof. n = 100 samples.
        assert_eq!(sizes, [(81, 81), (81, 81), (104, 104), (104, 104)]);
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
    fn propose_with_justification_round_trips() {
        let (cfg, ring) = setup(4);
        // View 2: leader is replica 1; all replicas report nothing prepared.
        let justification = (0..3).map(|i| new_leader_none(&ring, i, View(2))).collect();
        let sk = ring.signing_key(1).unwrap();
        let propose = Propose::lead(sk, ReplicaId(1), View(2), Value::from_tag(9), justification);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(propose.verify(&ctx).is_ok());
        assert_eq!(propose.proposal, proposal(&cfg, &ring, View(2), 9));

        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(
            Propose::from_wire_bytes(&propose.to_wire_bytes()).unwrap(),
            propose
        );
        let wire = Message::Propose(propose);
        let decoded = Message::from_wire_bytes(&wire.to_wire_bytes()).unwrap();
        assert_eq!(decoded, wire);
    }

    #[test]
    fn propose_whose_value_does_not_hash_to_its_header_is_rejected_first() {
        let (cfg, ring) = setup(4);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let sk = ring.signing_key(0).unwrap();
        let genuine = Propose::lead(sk, ReplicaId(0), View(1), Value::from_tag(1), vec![]);
        assert_eq!(genuine.verify(&ctx), Ok(()));

        // The leader signs a header for one value and ships another.
        let swapped = ProposeBody {
            value: Value::from_tag(2),
            ..genuine.body.clone()
        };
        assert_eq!(
            Propose::sign(sk, swapped.clone()).verify(&ctx),
            Err(RejectReason::ValueDigestMismatch)
        );
        // The mismatch answers before either signature is looked at.
        let mut unsigned = Propose::sign(sk, swapped);
        unsigned.signature = sk.sign(b"not the propose");
        unsigned.body.proposal.signature = sk.sign(b"not the header");
        assert_eq!(
            unsigned.verify(&ctx),
            Err(RejectReason::ValueDigestMismatch)
        );
    }

    #[test]
    fn tampered_justification_rejected() {
        let (cfg, ring) = setup(4);
        let mut nl = new_leader_none(&ring, 0, View(2));
        nl.body.prepared_view = View(1); // tamper
        let sk = ring.signing_key(1).unwrap();
        let propose = Propose::lead(sk, ReplicaId(1), View(2), Value::from_tag(9), vec![nl]);
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert_eq!(propose.verify(&ctx), Err(RejectReason::BadSignature));
    }

    #[test]
    fn wish_round_trip() {
        let (cfg, ring) = setup(4);
        let w = Wish::sign(
            ring.signing_key(2).unwrap(),
            WishBody {
                sender: ReplicaId(2),
                view: View(5),
            },
        );
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(w.verify_signature(ctx.keys).is_ok());
        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(Wish::from_wire_bytes(&w.to_wire_bytes()).unwrap(), w);
        let wire = Message::Wish(w);
        assert_eq!(
            Message::from_wire_bytes(&wire.to_wire_bytes()).unwrap(),
            wire
        );
    }

    #[test]
    fn new_leader_with_cert_round_trips() {
        let (cfg, ring) = setup(16);
        let p = proposal(&cfg, &ring, View(1), 1);
        let cert: Vec<PhaseMessage> = (0..3)
            .map(|i| vote(&cfg, &ring, Phase::Prepare, i, p))
            .collect();
        let nl = NewLeader::sign(
            ring.signing_key(5).unwrap(),
            NewLeaderBody {
                sender: ReplicaId(5),
                view: View(2),
                prepared_view: View(1),
                prepared_value: Some(Value::from_tag(1)),
                cert,
            },
        );
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(nl.verify_signature(ctx.keys).is_ok());
        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(NewLeader::from_wire_bytes(&nl.to_wire_bytes()).unwrap(), nl);
        let wire = Message::NewLeader(nl);
        assert_eq!(
            Message::from_wire_bytes(&wire.to_wire_bytes()).unwrap(),
            wire
        );
    }

    #[test]
    fn message_accessors() {
        let (cfg, ring) = setup(4);
        let p = proposal(&cfg, &ring, View(1), 7);
        let sk = ring.signing_key(0).unwrap();
        let propose = Propose::lead(sk, ReplicaId(0), View(1), Value::from_tag(7), vec![]);
        let msg = Message::Propose(propose);
        assert_eq!(msg.view(), View(1));
        assert_eq!(msg.signer(), ReplicaId(0));
        assert_eq!(msg.embedded_proposal(), Some(&p));
        assert_eq!(msg.kind(), "Propose");
        assert!(msg.wire_size() > 0);

        let w = Message::Wish(Wish::sign(
            ring.signing_key(1).unwrap(),
            WishBody {
                sender: ReplicaId(1),
                view: View(2),
            },
        ));
        assert_eq!(w.embedded_proposal(), None);
        assert_eq!(w.kind(), "Wish");
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(
            Message::from_wire_bytes(&[9]),
            Err(WireError::UnknownTag(9))
        );
    }

    #[test]
    fn relayed_message_still_verifies() {
        // Line 25: a replica re-broadcasts another replica's message; the
        // embedded signer (not the transport sender) must validate.
        let (cfg, ring) = setup(16);
        let p = proposal(&cfg, &ring, View(1), 1);
        let msg = Message::Prepare(vote(&cfg, &ring, Phase::Prepare, 3, p));
        // Decode as if received from a relay, then verify.
        let relayed = Message::from_wire_bytes(&msg.to_wire_bytes()).unwrap();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        assert!(relayed.verify(&ctx).is_ok());
        assert_eq!(relayed.signer(), ReplicaId(3));
    }
}
