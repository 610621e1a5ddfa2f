//! The replicated-application contract (the paper's state machine
//! abstraction, §2).
//!
//! Treplica treats the application as a black box whose public methods
//! are deterministic actions. The middleware feeds it totally ordered
//! actions via [`Application::apply`], snapshots it for checkpoints via
//! [`Application::snapshot`], and reconstructs it during recovery via
//! [`Application::restore`] — the programmer-visible equivalents of
//! `execute()` and `getState()` in the paper.

use crate::wire::{Wire, WireError};

/// A checkpoint of application state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Serialized state (round-trips through [`Application::restore`]).
    pub data: Vec<u8>,
    /// The size this state *models*. The paper's experiments use 300, 500
    /// and 700 MB states whose checkpoint-load time dominates recovery;
    /// the simulation keeps a compact in-memory state but charges disk
    /// latency for this many bytes.
    pub nominal_bytes: u64,
}

impl Snapshot {
    /// A snapshot whose modeled size equals its real size.
    pub fn exact(data: Vec<u8>) -> Snapshot {
        let nominal_bytes = data.len() as u64;
        Snapshot {
            data,
            nominal_bytes,
        }
    }
}

/// A deterministic replicated application.
///
/// Determinism is the application's obligation (the paper's task II):
/// any randomness or clock reads must be sampled *before* constructing
/// the action and carried inside it, so every replica computes the same
/// state. See the `robuststore` crate for the worked retrofit.
pub trait Application: Sized {
    /// The deterministic action type (a command object).
    type Action: Wire + Clone + Eq + std::hash::Hash + std::fmt::Debug;
    /// What [`Application::apply`] returns to the local caller. `Debug`
    /// like the action, so a middleware prints with the effects it holds.
    type Reply: std::fmt::Debug;

    /// Applies one action, mutating state deterministically.
    fn apply(&mut self, action: &Self::Action) -> Self::Reply;

    /// Captures a checkpoint of the current state.
    fn snapshot(&self) -> Snapshot;

    /// Reconstructs state from a checkpoint's data.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the checkpoint bytes are malformed.
    fn restore(data: &[u8]) -> Result<Self, WireError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial counter application used across middleware tests.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Counter {
        pub total: u64,
    }

    impl Application for Counter {
        type Action = u64;
        type Reply = u64;
        fn apply(&mut self, action: &u64) -> u64 {
            self.total += *action;
            self.total
        }
        fn snapshot(&self) -> Snapshot {
            Snapshot::exact(self.total.to_bytes())
        }
        fn restore(data: &[u8]) -> Result<Self, WireError> {
            Ok(Counter {
                total: u64::from_bytes(data)?,
            })
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut c = Counter { total: 0 };
        assert_eq!(c.apply(&5), 5);
        assert_eq!(c.apply(&7), 12);
        let snap = c.snapshot();
        assert_eq!(snap.nominal_bytes, 8);
        let c2 = Counter::restore(&snap.data).unwrap();
        assert_eq!(c2, c);
    }

    #[test]
    fn snapshot_exact_sizes() {
        let s = Snapshot::exact(vec![1, 2, 3]);
        assert_eq!(s.nominal_bytes, 3);
    }
}
