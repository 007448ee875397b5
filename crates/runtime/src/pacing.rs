//! The one sanctioned home for real-clock waits in the runtime.
//!
//! Consensus code must never sprinkle raw `thread::sleep` calls around:
//! every intentional wait is a latency decision, and scattering them makes
//! the latency budget unauditable (the root `clippy.toml` disallows
//! `std::thread::sleep` workspace-wide — rule L005 — and the one call
//! below carries the `#[expect]`). Callers pick one of the named waits
//! below so each site documents *why* it is waiting, not just for how
//! long.

use std::time::Duration;

/// Poll interval while watching replica progress counters settle during
/// shutdown quiescence.
pub(crate) const QUIESCE_POLL: Duration = Duration::from_millis(5);

/// How long a paused (fault-injected) replica serves its sockets, and
/// discards what they bring, between looks at its resume flag.
pub(crate) const PAUSED_POLL: Duration = Duration::from_millis(5);

/// Client-side pause after a failed connect/send before trying the next
/// replica, so a dead cluster is probed, not hammered.
pub(crate) const CLIENT_RETRY: Duration = Duration::from_millis(10);

/// Block the calling thread for `d`. This is the only raw sleep in the
/// consensus crates; use the named constants above (or a computed backoff,
/// e.g. overload retry-after) so every wait is attributable.
pub(crate) fn pause(d: Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned sleep: every other wait calls this with a named interval"
    )]
    std::thread::sleep(d);
}
