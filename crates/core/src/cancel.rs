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
//!
//! A supervisor that stops many runs at once keeps their tokens itself
//! and cancels each: the chase server's session registry maps every
//! live session id to its token, and an abortive shutdown walks that
//! map.

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
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
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
    }

    #[test]
    fn cancel_is_visible_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
