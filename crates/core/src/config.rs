//! Protocol configuration: population, fault threshold, quorum parameters.

use crate::value::ValidityPredicate;
use probft_quorum::sizes;
use probft_quorum::ReplicaId;
use probft_simnet::time::SimDuration;
use std::fmt;
use std::sync::Arc;

/// A view number. Views start at 1 (view 0 encodes "no view", e.g. an
/// empty `preparedView`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct View(pub u64);

impl View {
    /// The sentinel "no view yet" value used by `preparedView`.
    pub const NONE: View = View(0);
    /// The first real view.
    pub const FIRST: View = View(1);

    /// The next view.
    pub fn next(self) -> View {
        View(self.0.saturating_add(1))
    }

    /// Whether this is the sentinel [`View::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Immutable configuration shared by every replica of a ProBFT instance.
///
/// Use [`ProbftConfig::builder`] to construct one:
///
/// ```
/// use probft_core::config::ProbftConfig;
///
/// let cfg = ProbftConfig::builder(100)
///     .quorum_multiplier(2.0)    // l: q = ⌈l·√n⌉
///     .overprovision(1.7)        // o: sample size s = ⌈o·q⌉
///     .build();
/// assert_eq!(cfg.faults(), 33);
/// assert_eq!(cfg.probabilistic_quorum(), 20);
/// assert_eq!(cfg.sample_size(), 34);
/// assert_eq!(cfg.deterministic_quorum(), 67);
/// ```
#[derive(Clone)]
pub struct ProbftConfig {
    n: usize,
    f: usize,
    l: f64,
    o: f64,
    q: usize,
    s: usize,
    base_timeout: SimDuration,
    validity: ValidityPredicate,
}

/// The cap on a view's timeout in ticks, whatever its base: 4 s at
/// 1 tick = 1 µs.
const MAX_TIMEOUT_TICKS: u64 = 4_000_000;

/// Shared handle to a [`ProbftConfig`].
pub type SharedConfig = Arc<ProbftConfig>;

impl ProbftConfig {
    /// Starts building a configuration for `n` replicas with the default
    /// fault threshold `f = ⌊(n−1)/3⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn builder(n: usize) -> ProbftConfigBuilder {
        assert!(n > 0, "population must be nonempty");
        ProbftConfigBuilder {
            n,
            f: sizes::max_faults(n),
            l: 2.0,
            o: 1.7,
            base_timeout: SimDuration::from_ticks(50_000),
            validity: ValidityPredicate::accept_all(),
        }
    }

    /// Population size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Assumed fault threshold `f < n/3`.
    pub fn faults(&self) -> usize {
        self.f
    }

    /// The quorum multiplier `l` (paper §3.1).
    pub fn quorum_multiplier(&self) -> f64 {
        self.l
    }

    /// The overprovision factor `o` (paper §3.1).
    pub fn overprovision(&self) -> f64 {
        self.o
    }

    /// Probabilistic quorum size `q = ⌈l·√n⌉`.
    pub fn probabilistic_quorum(&self) -> usize {
        self.q
    }

    /// Recipient sample size `s = ⌈o·q⌉`.
    pub fn sample_size(&self) -> usize {
        self.s
    }

    /// Deterministic quorum size `⌈(n+f+1)/2⌉`, used for NewLeader
    /// collection during view change (and by the PBFT baseline throughout).
    pub fn deterministic_quorum(&self) -> usize {
        sizes::deterministic_quorum(self.n, self.f)
    }

    /// The leader of view `v`: the paper's `leader(v) = (v−1 mod n)+1`,
    /// mapped to zero-based replica indices.
    ///
    /// # Panics
    ///
    /// Panics on the sentinel view 0.
    pub fn leader_of(&self, view: View) -> ReplicaId {
        assert!(!view.is_none(), "view 0 has no leader");
        let index = view.0.saturating_sub(1).checked_rem(self.n as u64);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below n, which is a usize"
        )]
        ReplicaId::from(index.unwrap_or(0) as usize)
    }

    /// Initial view timeout for the synchronizer.
    pub fn base_timeout(&self) -> SimDuration {
        self.base_timeout
    }

    /// The per-view timeout: doubles each view, capped at 4 000 000 ticks.
    pub fn timeout_for(&self, view: View) -> SimDuration {
        let exp = view.0.saturating_sub(1).min(16) as u32;
        let scaled = self.base_timeout.saturating_mul(1u64 << exp);
        scaled.min(SimDuration::from_ticks(MAX_TIMEOUT_TICKS))
    }

    /// The application validity predicate.
    pub fn validity(&self) -> &ValidityPredicate {
        &self.validity
    }

    /// All replica IDs, `0..n`.
    pub fn all_replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n).map(ReplicaId::from)
    }
}

impl fmt::Debug for ProbftConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbftConfig")
            .field("n", &self.n)
            .field("f", &self.f)
            .field("l", &self.l)
            .field("o", &self.o)
            .field("q", &self.q)
            .field("s", &self.s)
            .finish()
    }
}

/// Builder for [`ProbftConfig`].
#[derive(Debug)]
pub struct ProbftConfigBuilder {
    n: usize,
    f: usize,
    l: f64,
    o: f64,
    base_timeout: SimDuration,
    validity: ValidityPredicate,
}

impl ProbftConfigBuilder {
    /// Overrides the fault threshold (default `⌊(n−1)/3⌋`).
    pub fn faults(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Sets the quorum multiplier `l ≥ 1` (default 2.0, the paper's choice
    /// in §5).
    pub fn quorum_multiplier(mut self, l: f64) -> Self {
        self.l = l;
        self
    }

    /// Sets the overprovision factor `o ≥ 1` (default 1.7, the middle of
    /// the paper's evaluated range).
    pub fn overprovision(mut self, o: f64) -> Self {
        self.o = o;
        self
    }

    /// Sets the initial per-view timeout.
    pub fn base_timeout(mut self, t: SimDuration) -> Self {
        self.base_timeout = t;
        self
    }

    /// Sets the application validity predicate (default: accept all).
    pub fn validity(mut self, validity: ValidityPredicate) -> Self {
        self.validity = validity;
        self
    }

    /// Finalizes the configuration.
    ///
    /// The sample size `s = ⌈o·q⌉` is capped at `n`: for small populations
    /// the sample degenerates to a broadcast, which is the correct limiting
    /// behaviour (and exactly PBFT's pattern).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (`n < 3f+1`, `l < 1`,
    /// `o < 1`, or a quorum size exceeding `n`).
    pub fn build(self) -> ProbftConfig {
        assert!(
            self.f.checked_mul(3).is_some_and(|bound| self.n > bound),
            "need n ≥ 3f+1 (n={}, f={})",
            self.n,
            self.f
        );
        let q = sizes::probabilistic_quorum(self.n, self.l);
        let s = sizes::sample_size(q, self.o).min(self.n);
        ProbftConfig {
            n: self.n,
            f: self.f,
            l: self.l,
            o: self.o,
            q,
            s,
            base_timeout: self.base_timeout,
            validity: self.validity,
        }
    }

    /// Finalizes and wraps in an [`Arc`].
    pub fn build_shared(self) -> SharedConfig {
        Arc::new(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point() {
        let cfg = ProbftConfig::builder(100).build();
        assert_eq!(cfg.n(), 100);
        assert_eq!(cfg.faults(), 33);
        assert_eq!(cfg.probabilistic_quorum(), 20);
        assert_eq!(cfg.sample_size(), 34);
        assert_eq!(cfg.deterministic_quorum(), 67);
    }

    #[test]
    fn leader_rotation_is_round_robin() {
        let cfg = ProbftConfig::builder(4).build();
        assert_eq!(cfg.leader_of(View(1)), ReplicaId(0));
        assert_eq!(cfg.leader_of(View(2)), ReplicaId(1));
        assert_eq!(cfg.leader_of(View(4)), ReplicaId(3));
        assert_eq!(cfg.leader_of(View(5)), ReplicaId(0));
    }

    #[test]
    #[should_panic(expected = "view 0 has no leader")]
    fn view_zero_has_no_leader() {
        ProbftConfig::builder(4).build().leader_of(View::NONE);
    }

    #[test]
    fn timeout_doubles_and_caps() {
        let cfg = ProbftConfig::builder(4)
            .base_timeout(SimDuration::from_ticks(1_000_000))
            .build();
        assert_eq!(cfg.timeout_for(View(1)), SimDuration::from_ticks(1_000_000));
        assert_eq!(cfg.timeout_for(View(2)), SimDuration::from_ticks(2_000_000));
        assert_eq!(cfg.timeout_for(View(3)), SimDuration::from_ticks(4_000_000));
        assert_eq!(
            cfg.timeout_for(View(10)),
            SimDuration::from_ticks(4_000_000)
        );
    }

    #[test]
    fn custom_faults_accepted_when_consistent() {
        let cfg = ProbftConfig::builder(100).faults(20).build();
        assert_eq!(cfg.faults(), 20);
        assert_eq!(cfg.deterministic_quorum(), 61); // ⌈121/2⌉
    }

    /// Rejected with the builder's own message, whatever the profile:
    /// `3·f` for the second `f` wraps to 2, which an unchecked product
    /// let through in release and turned into an overflow panic in debug.
    #[test]
    fn excess_faults_rejected() {
        for (n, f) in [(9, 3), (4, usize::MAX / 3 + 1)] {
            let Err(panic) =
                std::panic::catch_unwind(|| ProbftConfig::builder(n).faults(f).build())
            else {
                panic!("n = {n}, f = {f} built");
            };
            let message = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("need n ≥ 3f+1"),
                "n = {n}, f = {f}: {message}"
            );
        }
    }

    #[test]
    fn view_helpers() {
        assert!(View::NONE.is_none());
        assert!(!View::FIRST.is_none());
        assert_eq!(View::FIRST.next(), View(2));
        assert_eq!(View(3).to_string(), "3");
    }

    #[test]
    fn all_replicas_enumerates_population() {
        let cfg = ProbftConfig::builder(5).build();
        let ids: Vec<ReplicaId> = cfg.all_replicas().collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], ReplicaId(0));
        assert_eq!(ids[4], ReplicaId(4));
    }
}
