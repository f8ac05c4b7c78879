//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheaply clonable flag shared between the
//! party that *requests* a stop (a signal handler, a supervisor
//! thread, a test harness) and the party that *honours* it (a chase
//! loop, a decider). Cancellation is cooperative:
//! setting the flag never interrupts anything by force — long-running
//! loops poll [`CancelToken::is_cancelled`] at their safe points and
//! wind down with a truthful partial result.
//!
//! The token is a single relaxed `AtomicBool` behind an `Arc`, so
//! polling it on a hot path costs one uncontended atomic load and
//! cloning it costs one reference-count bump. Relaxed ordering is
//! sufficient: the flag carries no payload and observers only need to
//! see it *eventually* (each poll point re-reads it).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable, cooperative cancellation flag.
///
/// Clones observe the same underlying flag: cancelling any clone
/// cancels them all. The default token starts uncancelled.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested on this token (or any
    /// clone of it).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Whether two tokens share the same underlying flag.
    pub fn same_flag(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// A set of [`CancelToken`]s cancellable as one unit.
///
/// A supervisor (the chase server's shutdown path, a test harness
/// tearing down a fleet of runs) registers the token of every run it
/// is responsible for and later stops them all with a single
/// [`CancelGroup::cancel_all`]. Registration hands back a clone, so
/// the usual pattern is `gov.with_cancel(group.register())`.
///
/// The group is internally synchronised: registration and cancellation
/// may race from different threads. Tokens whose runs have finished
/// are cheap to keep (one `Arc` each); [`CancelGroup::prune`] drops
/// the ones nobody else references any more.
#[derive(Debug, Default)]
pub struct CancelGroup {
    members: std::sync::Mutex<Vec<CancelToken>>,
}

impl CancelGroup {
    /// An empty group.
    pub fn new() -> Self {
        CancelGroup::default()
    }

    /// Creates, registers and returns a fresh token.
    pub fn register(&self) -> CancelToken {
        let token = CancelToken::new();
        self.adopt(token.clone());
        token
    }

    /// Registers an existing token (a clone is kept).
    pub fn adopt(&self, token: CancelToken) {
        self.members
            .lock()
            .expect("cancel group poisoned")
            .push(token);
    }

    /// Cancels every registered token. Idempotent; tokens registered
    /// *after* this call are not affected.
    pub fn cancel_all(&self) {
        for token in self.members.lock().expect("cancel group poisoned").iter() {
            token.cancel();
        }
    }

    /// Number of registered tokens (including finished runs until
    /// [`CancelGroup::prune`]).
    pub fn len(&self) -> usize {
        self.members.lock().expect("cancel group poisoned").len()
    }

    /// `true` if no token is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops tokens whose flag nobody else holds any more (the
    /// governed run has finished and released its clones).
    pub fn prune(&self) {
        self.members
            .lock()
            .expect("cancel group poisoned")
            .retain(|t| Arc::strong_count(&t.flag) > 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(t.same_flag(&c));
        c.cancel();
        assert!(t.is_cancelled());
        // Idempotent.
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn distinct_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
        assert!(!a.same_flag(&b));
    }

    #[test]
    fn cancel_is_visible_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }

    #[test]
    fn group_cancels_all_registered_tokens() {
        let group = CancelGroup::new();
        let a = group.register();
        let b = group.register();
        let adopted = CancelToken::new();
        group.adopt(adopted.clone());
        assert_eq!(group.len(), 3);
        group.cancel_all();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
        assert!(adopted.is_cancelled());
    }

    #[test]
    fn late_registrations_survive_an_earlier_cancel_all() {
        let group = CancelGroup::new();
        group.register();
        group.cancel_all();
        let late = group.register();
        assert!(!late.is_cancelled());
    }

    #[test]
    fn prune_drops_released_tokens() {
        let group = CancelGroup::new();
        let keep = group.register();
        drop(group.register()); // run finished, clone released
        assert_eq!(group.len(), 2);
        group.prune();
        assert_eq!(group.len(), 1);
        assert!(!keep.is_cancelled());
        group.cancel_all();
        assert!(keep.is_cancelled());
    }
}
