//! The view synchronizer (Bravo–Chockler–Gotsman abstraction, §3.2).
//!
//! ProBFT assumes "a synchronizer exactly like the one presented in [6]"
//! that emits `newView(v)` notifications such that, after GST, all correct
//! replicas eventually overlap in the same view for long enough to decide
//! under a correct leader. This module implements the classic wish-based
//! construction:
//!
//! - A replica whose view timer expires *wishes* for the next view by
//!   broadcasting a signed `Wish`.
//! - Seeing `f+1` distinct replicas wish for views `≥ v` amplifies the
//!   replica's own wish to `v` (at least one correct replica wants it, so
//!   it is safe to join) — Bracha-style amplification.
//! - Seeing `2f+1` distinct replicas wish for views `≥ v > curView` enters
//!   view `v` (a majority of correct replicas will also see them and
//!   follow).
//!
//! Per-replica wish state is monotone (only a replica's highest wish
//! counts), so Byzantine replicas cannot force view changes alone: a jump
//! to view `v` requires `f+1` *correct* wishes among the `2f+1`.
//!
//! A wish for a view *at or below* the one this replica occupies comes from
//! a replica that fell behind (paused, partitioned, restored from a
//! snapshot): it missed the wishes that moved everyone else, and nobody
//! repeats them. The synchronizer reports such a wish as worth an
//! [`answer`](SyncAction::answer_wish) — this replica's own standing wish,
//! to that sender alone — once per sender and wished view, so at most
//! `current − 1` answers per sender ever. A long-lived log honours it; a
//! single-shot instance, which ends at its decision, does not.
//!
//! The synchronizer reports [`SyncAction`]s and never touches the network
//! itself — its driver signs, wraps and sends the wishes it asks for —
//! which keeps it unit-testable and lets one type serve a single-shot
//! replica of any of the three protocols or a whole log of instances. It
//! does keep its own view timer: [`arm`](Synchronizer::arm) sizes it by how
//! far the view is past the last reported
//! [`progress`](Synchronizer::progressed), and
//! [`on_timer`](Synchronizer::on_timer) turns the running one's expiry into
//! a timeout.

use crate::config::{ProbftConfig, View};
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, TimerToken};
use std::collections::BTreeMap;

/// What the caller should do after feeding an event to the synchronizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SyncAction {
    /// If set, broadcast a `Wish` for this view (the replica's new wish).
    pub broadcast_wish: Option<View>,
    /// If set, enter this view (`newView(v)` notification).
    pub enter_view: Option<View>,
    /// If set, the wish just fed came from a replica behind this one and
    /// has not been answered before: send it a `Wish` for this view.
    pub answer_wish: Option<View>,
}

impl SyncAction {
    fn nothing() -> Self {
        SyncAction::default()
    }
}

/// Wish-based view synchronizer state for one replica.
#[derive(Clone, Debug)]
pub struct Synchronizer {
    /// Highest wish seen per replica (including our own).
    wishes: BTreeMap<ReplicaId, View>,
    me: ReplicaId,
    f: usize,
    current: View,
    my_wish: View,
    /// Highest at-or-below-current wish answered so far, per sender.
    answered: BTreeMap<ReplicaId, View>,
    /// The latest view progress was made in: a view's timeout is sized by
    /// its distance from it. A single-shot replica never reports progress,
    /// which leaves the paper's absolute `timeout_for(view)`.
    progress_view: View,
    /// Generation of the running timer: only the latest one set counts.
    timer: u64,
}

impl Synchronizer {
    /// Creates a synchronizer for replica `me` with fault threshold `f`.
    /// The replica starts in view 1 (no wishes required).
    pub fn new(me: ReplicaId, f: usize) -> Self {
        Self::born_in(me, f, View::FIRST)
    }

    /// A synchronizer that starts out occupying `view` with no wish cast:
    /// it enters nothing at or below `view`, and moves on `2f+1` wishes
    /// above it like any other.
    pub fn born_in(me: ReplicaId, f: usize, view: View) -> Self {
        Synchronizer {
            wishes: BTreeMap::new(),
            me,
            f,
            current: view,
            my_wish: View::NONE,
            answered: BTreeMap::new(),
            progress_view: View::FIRST,
            timer: 0,
        }
    }

    /// Progress was made in `view`: later waits are sized from there, so a
    /// log that has lived through five leaders does not wait 16 × base for
    /// the sixth.
    pub fn progressed(&mut self, view: View) {
        self.progress_view = self.progress_view.max(view);
    }

    /// (Re)starts the view timer; one still pending goes stale.
    pub fn arm<M>(&mut self, cfg: &ProbftConfig, ctx: &mut Context<'_, M>) {
        let behind = self.current.0.saturating_sub(self.progress_view.0);
        let delay = cfg.timeout_for(View(behind.saturating_add(1)));
        self.timer += 1;
        ctx.set_timer(delay, TimerToken(self.timer));
    }

    /// The view timer follows the work: begun afresh while there is
    /// `work` to time, stopped (whatever is pending goes stale) otherwise.
    pub fn restart<M>(&mut self, work: bool, cfg: &ProbftConfig, ctx: &mut Context<'_, M>) {
        if work {
            self.arm(cfg, ctx);
        } else {
            self.timer += 1;
        }
    }

    /// A timer fired. `None` if it was not the running one; otherwise the
    /// view timed out: wish to advance ([`on_timeout`](Self::on_timeout)),
    /// and re-arm so a stuck view keeps re-broadcasting its wish.
    pub fn on_timer<M>(
        &mut self,
        token: TimerToken,
        cfg: &ProbftConfig,
        ctx: &mut Context<'_, M>,
    ) -> Option<SyncAction> {
        if token.0 != self.timer {
            return None;
        }
        let action = self.on_timeout();
        self.arm(cfg, ctx);
        Some(action)
    }

    /// The view this replica currently occupies.
    pub fn current_view(&self) -> View {
        self.current
    }

    /// The highest view this replica has wished for.
    pub fn my_wish(&self) -> View {
        self.my_wish
    }

    /// The replica's view timer expired: wish for the next view.
    ///
    /// Returns a wish broadcast unless we already wished that high; also
    /// checks for (unlikely) immediate entry, e.g. when `f = 0`.
    pub fn on_timeout(&mut self) -> SyncAction {
        let target = self.current.next();
        self.raise_wish(target)
    }

    /// Records a (verified) wish from `sender` for `view`.
    pub fn on_wish(&mut self, sender: ReplicaId, view: View) -> SyncAction {
        // Judged against the view held *before* this wish counts: the wish
        // that completes an entry quorum is not a straggler's.
        let behind = view <= self.current && sender != self.me;
        let entry = self.wishes.entry(sender).or_insert(View::NONE);
        let mut action = if view > *entry {
            *entry = view;
            self.evaluate()
        } else {
            // Stale or duplicate wish; cumulative state unchanged.
            SyncAction::nothing()
        };
        if behind {
            let told = self.answered.entry(sender).or_insert(View::NONE);
            if view > *told {
                *told = view;
                action.answer_wish = Some(self.current.max(self.my_wish));
            }
        }
        action
    }

    /// Raises our own wish to at least `target`.
    fn raise_wish(&mut self, target: View) -> SyncAction {
        let mut action = SyncAction::nothing();
        if target > self.my_wish {
            self.my_wish = target;
            self.wishes.insert(self.me, target);
            action.broadcast_wish = Some(target);
        } else if self.my_wish > self.current {
            // Re-broadcast the standing wish (timer re-fired while stuck).
            action.broadcast_wish = Some(self.my_wish);
        }
        let eval = self.evaluate();
        action.enter_view = eval.enter_view;
        if let Some(w) = eval.broadcast_wish {
            // Amplification may have raised the wish beyond `target`.
            action.broadcast_wish = Some(w);
        }
        action
    }

    /// The largest view `v` such that at least `count` replicas wish `≥ v`,
    /// or `None` if fewer than `count` wishes exist.
    fn kth_highest_wish(&self, count: usize) -> Option<View> {
        if self.wishes.len() < count || count == 0 {
            return None;
        }
        let mut views: Vec<View> = self.wishes.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a)); // descending
        Some(views[count - 1])
    }

    /// Applies the amplification (`f+1`) and entry (`2f+1`) rules.
    fn evaluate(&mut self) -> SyncAction {
        let mut action = SyncAction::nothing();

        // Amplification: f+1 wishes ≥ v means a correct replica wants v.
        if let Some(v) = self.kth_highest_wish(self.f + 1) {
            if v > self.my_wish && v > self.current {
                self.my_wish = v;
                self.wishes.insert(self.me, v);
                action.broadcast_wish = Some(v);
            }
        }

        // Entry: 2f+1 wishes ≥ v > current.
        if let Some(v) = self.kth_highest_wish(2 * self.f + 1) {
            if v > self.current {
                self.current = v;
                action.enter_view = Some(v);
            }
        }

        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync(f: usize) -> Synchronizer {
        Synchronizer::new(ReplicaId(0), f)
    }

    #[test]
    fn starts_in_view_one() {
        let s = sync(1);
        assert_eq!(s.current_view(), View::FIRST);
        assert_eq!(s.my_wish(), View::NONE);
    }

    #[test]
    fn timeout_broadcasts_wish() {
        let mut s = sync(1);
        let a = s.on_timeout();
        assert_eq!(a.broadcast_wish, Some(View(2)));
        assert_eq!(a.enter_view, None, "one wish is not enough with f=1");
    }

    #[test]
    fn entry_requires_two_f_plus_one() {
        let mut s = sync(1); // need 3 wishes
        s.on_timeout(); // our own wish for view 2
        assert_eq!(s.on_wish(ReplicaId(1), View(2)).enter_view, None);
        let a = s.on_wish(ReplicaId(2), View(2));
        assert_eq!(a.enter_view, Some(View(2)));
        assert_eq!(s.current_view(), View(2));
    }

    #[test]
    fn amplification_at_f_plus_one() {
        let mut s = sync(1);
        // Two peers wish view 5; we have not timed out ourselves.
        assert_eq!(s.on_wish(ReplicaId(1), View(5)).broadcast_wish, None);
        let a = s.on_wish(ReplicaId(2), View(5));
        // f+1 = 2 wishes ≥ 5 → we join the wish (and that makes 3 = 2f+1,
        // entering the view in the same step).
        assert_eq!(a.broadcast_wish, Some(View(5)));
        assert_eq!(a.enter_view, Some(View(5)));
    }

    #[test]
    fn byzantine_minority_cannot_force_view_change() {
        let mut s = sync(2); // n ≥ 7, amplification needs 3
        assert_eq!(s.on_wish(ReplicaId(5), View(100)).broadcast_wish, None);
        let a = s.on_wish(ReplicaId(6), View(100));
        assert_eq!(a.broadcast_wish, None, "f wishes must not amplify");
        assert_eq!(a.enter_view, None);
        assert_eq!(s.current_view(), View::FIRST);
    }

    #[test]
    fn wish_state_is_monotone_per_replica() {
        let mut s = sync(1);
        s.on_wish(ReplicaId(1), View(5));
        // The same replica "lowering" its wish changes nothing.
        assert_eq!(s.on_wish(ReplicaId(1), View(2)), SyncAction::default());
        // A second peer wish amplifies ours, making 2f+1 total: entry at
        // view 5 (the cumulative max), never view 2.
        let a = s.on_wish(ReplicaId(2), View(5));
        assert_eq!(a.enter_view, Some(View(5)));
        assert_eq!(s.current_view(), View(5));
    }

    #[test]
    fn repeated_timeout_rebroadcasts_standing_wish() {
        let mut s = sync(1);
        assert_eq!(s.on_timeout().broadcast_wish, Some(View(2)));
        // Still stuck in view 1; a second timeout re-broadcasts wish 2.
        assert_eq!(s.on_timeout().broadcast_wish, Some(View(2)));
    }

    #[test]
    fn straggler_jumps_to_quorum_view() {
        let mut s = sync(1);
        // The rest of the system has moved on to view 9. The second wish
        // amplifies ours (f+1 rule), which immediately completes the 2f+1
        // entry quorum — the straggler jumps straight to view 9.
        s.on_wish(ReplicaId(1), View(9));
        let a = s.on_wish(ReplicaId(2), View(9));
        assert_eq!(a.broadcast_wish, Some(View(9)));
        assert_eq!(a.enter_view, Some(View(9)));
        assert_eq!(s.current_view(), View(9));
    }

    #[test]
    fn f_zero_single_timeout_advances() {
        let mut s = sync(0);
        let a = s.on_timeout();
        assert_eq!(a.broadcast_wish, Some(View(2)));
        assert_eq!(a.enter_view, Some(View(2)), "with f=0 one wish is 2f+1");
    }

    #[test]
    fn born_in_a_view_enters_nothing_at_or_below_it_and_moves_on_a_quorum_above() {
        let mut s = Synchronizer::born_in(ReplicaId(0), 1, View(5));
        assert_eq!((s.current_view(), s.my_wish()), (View(5), View::NONE));
        // A full house wishing for views up to its own moves nothing.
        for (peer, view) in [(1, 3), (2, 5), (3, 5)] {
            let a = s.on_wish(ReplicaId(peer), View(view));
            assert_eq!((a.broadcast_wish, a.enter_view), (None, None));
        }
        assert_eq!(s.current_view(), View(5));
        // Its own timeout wishes for the next view, not for view 2.
        assert_eq!(s.on_timeout().broadcast_wish, Some(View(6)));
        // 2f+1 = 3 wishes above: its own and two peers'.
        assert_eq!(s.on_wish(ReplicaId(1), View(6)).enter_view, None);
        assert_eq!(s.on_wish(ReplicaId(2), View(7)).enter_view, Some(View(6)));
        assert_eq!(s.current_view(), View(6));
    }

    #[test]
    fn wish_at_or_below_the_current_view_is_answered_once_per_sender_and_view() {
        let mut s = Synchronizer::born_in(ReplicaId(0), 1, View(3));
        // Replica 1 is behind: it wishes for a view the log has left.
        let a = s.on_wish(ReplicaId(1), View(2));
        assert_eq!(a.answer_wish, Some(View(3)), "told where the log is");
        assert_eq!((a.broadcast_wish, a.enter_view), (None, None));
        // Re-broadcasts of the same wish are not answered again …
        assert_eq!(s.on_wish(ReplicaId(1), View(2)), SyncAction::default());
        // … its next one, still not past this view, once more …
        assert_eq!(s.on_wish(ReplicaId(1), View(3)).answer_wish, Some(View(3)));
        assert_eq!(s.on_wish(ReplicaId(1), View(3)), SyncAction::default());
        assert_eq!(s.on_wish(ReplicaId(1), View(2)), SyncAction::default());
        // … and another sender has its own account.
        assert_eq!(s.on_wish(ReplicaId(2), View(2)).answer_wish, Some(View(3)));
        // A wish above the view is a vote, not a straggler's: no answer.
        assert_eq!(s.on_wish(ReplicaId(3), View(4)).answer_wish, None);
    }

    #[test]
    fn wish_recorded_before_the_view_moved_is_still_answered_after() {
        // Replica 3's wish for view 2 is counted while everyone is in view
        // 1; it then goes deaf, and the others move on without it.
        let mut s = sync(1);
        assert_eq!(s.on_wish(ReplicaId(3), View(2)).answer_wish, None);
        // (f+1 = 2 wishes amplify this replica's, which makes 2f+1.)
        assert_eq!(s.on_wish(ReplicaId(1), View(2)).enter_view, Some(View(2)));
        // Its re-broadcast is a duplicate to the wish table, yet it is the
        // first sign that replica 3 is behind: answered with the standing
        // wish, exactly once.
        assert_eq!(s.on_wish(ReplicaId(3), View(2)).answer_wish, Some(View(2)));
        assert_eq!(s.on_wish(ReplicaId(3), View(2)), SyncAction::default());
    }
}
