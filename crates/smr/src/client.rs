//! The client's retry and redirect policy, without I/O: a [`ClientPolicy`]
//! over replicas named by socket address (the live client) or process id
//! (the virtual-time executor) says where each attempt goes and how long
//! to back off first; its embedder connects, sends, reads and sleeps, and
//! resends the *same request id*, so the replicas' dedup and reply cache
//! keep execution at-most-once however often it is rerouted.

use std::time::Duration;

/// How many consecutive redirects naming the *same* leader a client
/// follows before concluding that leader is unresponsive and rotating
/// instead: breaks the bounce-forever loop between a follower and a
/// crashed leader the follower still believes in.
const MAX_REDIRECT_STREAK: u32 = 3;

/// First pause after an `Overloaded` shed; it doubles per consecutive
/// shed of the same request, up to `OVERLOAD_BACKOFF_CAP`.
const OVERLOAD_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Longest single overload backoff pause.
const OVERLOAD_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// How long a client waits for the reply to one attempt by default.
pub const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(1);

/// Where a client's next attempt goes, over replicas named by `T`. It
/// starts at its hint and follows a redirect to the named leader — unless
/// that leader was named three times in a row, or named the replica
/// asked: then the chain is going nowhere, and it rotates past the
/// replica asked instead. A silent or unreachable replica is rotated
/// past too: it must not absorb the whole submission. An overloaded
/// leader is alive and shedding by choice — every follower would bounce
/// the client straight back — so the client backs off and retries it.
#[derive(Clone, Debug)]
pub struct ClientPolicy<T> {
    targets: Vec<T>,
    hint: T,
    /// Consecutive redirects naming the same leader without an answer.
    redirect_streak: Option<(T, u32)>,
    /// Consecutive sheds of the request in flight.
    overload_streak: u32,
}

impl<T: Copy + PartialEq> ClientPolicy<T> {
    /// A policy over `targets` (any order: redirects name the leader
    /// itself) that tries `hint` first.
    pub fn new(targets: Vec<T>, hint: T) -> Self {
        ClientPolicy {
            targets,
            hint,
            redirect_streak: None,
            overload_streak: 0,
        }
    }

    /// The replicas, as configured.
    pub fn targets(&self) -> &[T] {
        &self.targets
    }

    /// Where the next attempt goes.
    pub fn target(&self) -> T {
        self.hint
    }

    /// Sends the next attempt to `target`, listed or not.
    pub fn prefer(&mut self, target: T) {
        self.hint = target;
    }

    /// A new request starts: its overload backoff starts at the base.
    pub fn begin(&mut self) {
        self.overload_streak = 0;
    }

    /// The request was answered.
    pub fn answered(&mut self) {
        self.redirect_streak = None;
    }

    /// `asked` redirected the client to `named`.
    pub fn redirected(&mut self, asked: T, named: T) {
        let streak = match self.redirect_streak {
            Some((leader, count)) if leader == named => count.saturating_add(1),
            _ => 1,
        };
        if streak >= MAX_REDIRECT_STREAK || named == asked {
            // A replica never names itself, and a streak means the named
            // leader is not answering: either way, rotate past `asked`.
            self.redirect_streak = None;
            self.hint = self.after(asked);
        } else {
            self.redirect_streak = Some((named, streak));
            self.hint = named;
        }
    }

    /// `asked` did not answer: no reply in time, a torn connection, or no
    /// connection at all.
    pub fn silent(&mut self, asked: T) {
        self.hint = self.after(asked);
    }

    /// The leader shed the request: how long to back off before retrying
    /// it at the same replica.
    pub fn overloaded(&mut self) -> Duration {
        self.redirect_streak = None;
        let backoff = OVERLOAD_BACKOFF_BASE
            .saturating_mul(1u32 << self.overload_streak.min(10))
            .min(OVERLOAD_BACKOFF_CAP);
        self.overload_streak = self.overload_streak.saturating_add(1);
        backoff
    }

    /// The target after `asked` in the list (wrapping); the list's front
    /// for a target outside it; `asked` itself if the list is empty.
    fn after(&self, asked: T) -> T {
        let next = match self.targets.iter().position(|&t| t == asked) {
            Some(i) => i
                .saturating_add(1)
                .checked_rem(self.targets.len())
                .and_then(|next| self.targets.get(next)),
            None => self.targets.first(),
        };
        next.copied().unwrap_or(asked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four replicas named 10..=13, starting at the first.
    fn policy() -> ClientPolicy<u32> {
        ClientPolicy::new(vec![10, 11, 12, 13], 10)
    }

    #[test]
    fn a_redirect_streak_rotates_at_three() {
        let mut p = policy();
        p.redirected(11, 10);
        assert_eq!(p.target(), 10);
        p.silent(10);
        p.redirected(11, 10);
        assert_eq!(p.target(), 10);
        p.silent(10);
        // The third redirect naming 10 in a row: rotate past the asker.
        p.redirected(11, 10);
        assert_eq!(p.target(), 12);
        // The streak starts over.
        p.redirected(12, 10);
        assert_eq!(p.target(), 10);
    }

    #[test]
    fn an_answer_or_a_shed_ends_a_redirect_streak() {
        let ends: [fn(&mut ClientPolicy<u32>); 2] = [ClientPolicy::answered, |p| {
            p.overloaded();
        }];
        for end in ends {
            let mut p = policy();
            p.redirected(11, 10);
            p.redirected(11, 10);
            end(&mut p);
            p.redirected(11, 10);
            assert_eq!(p.target(), 10);
        }
    }

    #[test]
    fn a_redirect_naming_the_replica_asked_rotates_past_it() {
        let mut p = policy();
        p.redirected(13, 13);
        assert_eq!(p.target(), 10);
    }

    #[test]
    fn a_target_outside_the_list_restarts_at_its_front() {
        let mut p = policy();
        p.redirected(12, 99);
        assert_eq!(p.target(), 99);
        p.silent(99);
        assert_eq!(p.target(), 10);
        p.prefer(77);
        p.silent(77);
        assert_eq!(p.target(), 10);
    }

    #[test]
    fn an_overload_backs_off_doubling_to_the_cap_on_the_same_target() {
        let mut p = policy();
        p.prefer(12);
        let ms: Vec<u128> = (0..8).map(|_| p.overloaded().as_millis()).collect();
        assert_eq!(ms, [5, 10, 20, 40, 80, 160, 200, 200]);
        assert_eq!(p.target(), 12);
        p.begin();
        assert_eq!(p.overloaded(), OVERLOAD_BACKOFF_BASE);
    }

    #[test]
    fn a_silent_attempt_rotates_wrapping_at_the_end() {
        let mut p = policy();
        p.silent(10);
        assert_eq!(p.target(), 11);
        p.silent(13);
        assert_eq!(p.target(), 10);
        let mut alone = ClientPolicy::new(Vec::new(), 5);
        alone.silent(5);
        assert_eq!(alone.target(), 5);
    }
}
