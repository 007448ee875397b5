//! Network delay models, including the paper's partial-synchrony model.
//!
//! The system model of ProBFT (§2.1) is partial synchrony in the style of
//! Dwork–Lynch–Stockmeyer: the network may behave asynchronously until an
//! unknown global stabilization time **GST**, after which message delays are
//! bounded (by a bound unknown to the protocol). The adversarial scheduler
//! may manipulate delays but only *content-obliviously*: "independent of the
//! sender's identifier, its past and current states, and whether it is
//! Byzantine or not". Every model here draws delays from distributions that
//! depend only on time and randomness — never on the sender, receiver, or
//! payload — so the implemented scheduler is sender-oblivious by
//! construction.

use crate::process::ProcessId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Decides when (or whether) a message sent at `now` is delivered.
pub trait DelayModel: fmt::Debug {
    /// Returns the message's delivery delay, or `None` to drop it.
    ///
    /// Partial synchrony never drops messages; `None` exists for explicit
    /// fault-injection wrappers like [`Lossy`].
    fn delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration>;

    /// Optionally returns a delay for a *duplicate* copy of the message.
    ///
    /// The default network never duplicates; fault-injection wrappers like
    /// [`Lossy`] override this to model at-least-once links.
    fn duplicate_delay(
        &mut self,
        _from: ProcessId,
        _to: ProcessId,
        _now: SimTime,
        _rng: &mut StdRng,
    ) -> Option<SimDuration> {
        None
    }
}

impl DelayModel for Box<dyn DelayModel> {
    fn delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        (**self).delay(from, to, now, rng)
    }

    fn duplicate_delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        (**self).duplicate_delay(from, to, now, rng)
    }
}

/// Constant delay for every message (a fully synchronous network).
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub SimDuration);

impl DelayModel for Fixed {
    fn delay(
        &mut self,
        _from: ProcessId,
        _to: ProcessId,
        _now: SimTime,
        _rng: &mut StdRng,
    ) -> Option<SimDuration> {
        Some(self.0)
    }
}

/// The paper's partial-synchrony model.
///
/// Before [GST](Self::gst), delays are drawn uniformly from
/// `[pre_min, pre_max]` — typically with `pre_max` much larger than any
/// protocol timeout, modelling adversarial asynchrony. Messages in flight at
/// GST are *not* retroactively hurried: a message sent before GST may land
/// after it, exactly as in the DLS model. After GST, delays are uniform in
/// `[post_min, post_delta]`, so `post_delta` acts as the (protocol-unknown)
/// synchrony bound Δ.
///
/// # Examples
///
/// ```
/// use probft_simnet::delay::PartialSynchrony;
/// use probft_simnet::time::{SimDuration, SimTime};
///
/// // Chaotic until t=10_000, then delays of at most 50 ticks.
/// let net = PartialSynchrony::new(
///     SimTime::from_ticks(10_000),
///     SimDuration::from_ticks(1),
///     SimDuration::from_ticks(5_000),
///     SimDuration::from_ticks(1),
///     SimDuration::from_ticks(50),
/// );
/// assert_eq!(net.gst(), SimTime::from_ticks(10_000));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PartialSynchrony {
    gst: SimTime,
    pre_min: SimDuration,
    pre_max: SimDuration,
    post_min: SimDuration,
    post_delta: SimDuration,
}

impl PartialSynchrony {
    /// Creates a partial-synchrony model.
    ///
    /// # Panics
    ///
    /// Panics if either delay interval is inverted.
    pub fn new(
        gst: SimTime,
        pre_min: SimDuration,
        pre_max: SimDuration,
        post_min: SimDuration,
        post_delta: SimDuration,
    ) -> Self {
        assert!(pre_min <= pre_max, "pre-GST interval inverted");
        assert!(post_min <= post_delta, "post-GST interval inverted");
        PartialSynchrony {
            gst,
            pre_min,
            pre_max,
            post_min,
            post_delta,
        }
    }

    /// A convenient "synchronous from the start" instance: GST = 0 with
    /// delays in `[min, delta]`.
    pub fn synchronous(min: SimDuration, delta: SimDuration) -> Self {
        Self::new(SimTime::ZERO, min, delta, min, delta)
    }

    /// The global stabilization time.
    pub fn gst(&self) -> SimTime {
        self.gst
    }

    /// The post-GST delay bound Δ.
    pub fn delta(&self) -> SimDuration {
        self.post_delta
    }
}

impl DelayModel for PartialSynchrony {
    fn delay(
        &mut self,
        _from: ProcessId,
        _to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        let (min, max) = if now < self.gst {
            (self.pre_min, self.pre_max)
        } else {
            (self.post_min, self.post_delta)
        };
        Some(SimDuration::from_ticks(
            rng.gen_range(min.ticks()..=max.ticks()),
        ))
    }
}

/// A transient network partition that heals at a fixed time.
///
/// Messages within a partition group use the inner model; messages across
/// groups are *delayed* until after the heal time (partial synchrony never
/// loses messages, it only withholds them). Note that partitions are
/// endpoint-dependent and therefore step outside the paper's
/// sender-oblivious scheduler assumption — this model exists for
/// robustness testing, not for reproducing the paper's adversary.
#[derive(Debug)]
pub struct HealingPartition<D> {
    inner: D,
    /// Group id per process index; out-of-range processes default to 0.
    groups: Vec<u8>,
    heal_at: SimTime,
}

impl<D: DelayModel> HealingPartition<D> {
    /// Creates a partition with the given per-process group assignment,
    /// healing at `heal_at`.
    pub fn new(inner: D, groups: Vec<u8>, heal_at: SimTime) -> Self {
        HealingPartition {
            inner,
            groups,
            heal_at,
        }
    }

    fn group_of(&self, p: ProcessId) -> u8 {
        self.groups.get(p.index()).copied().unwrap_or(0)
    }
}

impl<D: DelayModel> DelayModel for HealingPartition<D> {
    fn delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        let base = self.inner.delay(from, to, now, rng)?;
        if now >= self.heal_at || self.group_of(from) == self.group_of(to) {
            return Some(base);
        }
        // Cross-partition: held until the heal, then delivered with the
        // inner model's delay on top.
        let held_until = self.heal_at + base;
        Some(held_until - now)
    }
}

/// Fault-injection wrapper: drops or duplicates messages probabilistically.
///
/// Used in robustness tests; note that dropping messages steps outside the
/// partial-synchrony model, so liveness assertions must not be combined with
/// unbounded loss.
#[derive(Debug)]
pub struct Lossy<D> {
    inner: D,
    drop_prob: f64,
    dup_prob: f64,
}

impl<D: DelayModel> Lossy<D> {
    /// Wraps `inner`, dropping each message with probability `drop_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` or `dup_prob` is outside `[0, 1]`.
    pub fn new(inner: D, drop_prob: f64, dup_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob out of range");
        assert!((0.0..=1.0).contains(&dup_prob), "dup_prob out of range");
        Lossy {
            inner,
            drop_prob,
            dup_prob,
        }
    }
}

impl<D: DelayModel> DelayModel for Lossy<D> {
    fn delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
            return None;
        }
        self.inner.delay(from, to, now, rng)
    }

    fn duplicate_delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        if self.dup_prob > 0.0 && rng.gen_bool(self.dup_prob) {
            self.inner.delay(from, to, now, rng)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn fixed_is_constant() {
        let mut m = Fixed(SimDuration::from_ticks(5));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                m.delay(ProcessId(0), ProcessId(1), SimTime::ZERO, &mut r),
                Some(SimDuration::from_ticks(5))
            );
        }
    }

    #[test]
    fn synchronous_respects_bounds() {
        let mut m =
            PartialSynchrony::synchronous(SimDuration::from_ticks(3), SimDuration::from_ticks(9));
        let mut r = rng();
        for _ in 0..200 {
            let d = m
                .delay(ProcessId(0), ProcessId(1), SimTime::ZERO, &mut r)
                .unwrap();
            assert!(d.ticks() >= 3 && d.ticks() <= 9);
        }
    }

    #[test]
    fn partial_synchrony_switches_at_gst() {
        let mut m = PartialSynchrony::new(
            SimTime::from_ticks(1000),
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(5000),
            SimDuration::from_ticks(1),
            SimDuration::from_ticks(10),
        );
        let mut r = rng();
        // Pre-GST: delays at least 100.
        for _ in 0..50 {
            let d = m
                .delay(ProcessId(0), ProcessId(1), SimTime::from_ticks(999), &mut r)
                .unwrap();
            assert!(d.ticks() >= 100);
        }
        // Post-GST: delays at most 10.
        for _ in 0..50 {
            let d = m
                .delay(
                    ProcessId(0),
                    ProcessId(1),
                    SimTime::from_ticks(1000),
                    &mut r,
                )
                .unwrap();
            assert!(d.ticks() <= 10);
        }
    }

    #[test]
    fn lossy_drops_with_probability_one() {
        let mut m = Lossy::new(Fixed(SimDuration::ZERO), 1.0, 0.0);
        let mut r = rng();
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(1), SimTime::ZERO, &mut r),
            None
        );
    }

    #[test]
    fn lossy_passes_with_probability_zero() {
        let mut m = Lossy::new(Fixed(SimDuration::from_ticks(2)), 0.0, 0.0);
        let mut r = rng();
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(1), SimTime::ZERO, &mut r),
            Some(SimDuration::from_ticks(2))
        );
    }

    #[test]
    #[should_panic(expected = "pre-GST interval inverted")]
    fn synchronous_inverted_panics() {
        PartialSynchrony::synchronous(SimDuration::from_ticks(2), SimDuration::from_ticks(1));
    }

    #[test]
    #[should_panic(expected = "drop_prob out of range")]
    fn lossy_bad_probability_panics() {
        Lossy::new(Fixed(SimDuration::ZERO), 1.5, 0.0);
    }

    #[test]
    fn partition_holds_cross_group_messages_until_heal() {
        let mut m = HealingPartition::new(
            Fixed(SimDuration::from_ticks(5)),
            vec![0, 0, 1, 1],
            SimTime::from_ticks(1000),
        );
        let mut r = rng();
        // Within a group: normal delay.
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(1), SimTime::from_ticks(10), &mut r),
            Some(SimDuration::from_ticks(5))
        );
        // Across groups before heal: delivered at heal + 5 = 1005.
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(2), SimTime::from_ticks(10), &mut r),
            Some(SimDuration::from_ticks(995))
        );
        // Across groups after heal: normal delay again.
        assert_eq!(
            m.delay(
                ProcessId(0),
                ProcessId(2),
                SimTime::from_ticks(2000),
                &mut r
            ),
            Some(SimDuration::from_ticks(5))
        );
        // Unlisted processes default to group 0.
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(99), SimTime::from_ticks(10), &mut r),
            Some(SimDuration::from_ticks(5))
        );
    }

    #[test]
    fn synchronous_constructor() {
        let m =
            PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(4));
        assert_eq!(m.gst(), SimTime::ZERO);
        assert_eq!(m.delta(), SimDuration::from_ticks(4));
    }
}
