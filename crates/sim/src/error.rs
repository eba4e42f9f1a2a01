//! Simulation error types.
//!
//! The ATTILA paper specifies that signals "perform verification checks that
//! may terminate the simulator, for example when bandwidth is exceeded or
//! data is lost". Those verification failures are represented by
//! [`SimError`]; the infallible signal APIs turn them into panics with a
//! precise message, the fallible (`try_*`) APIs return them.

use std::error::Error;
use std::fmt;

use crate::name::SignalName;

/// An error detected by the simulation framework's verification checks.
///
/// A `SimError` always indicates a *bug in the timing model* (a box writing
/// more data than the configured wire can carry, a box failing to drain a
/// wire, a name collision while wiring up the pipeline) rather than a
/// recoverable runtime condition. Simulators typically abort on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// More objects were written to a signal in one cycle than its
    /// configured bandwidth allows.
    BandwidthExceeded {
        /// Name of the offending signal (interned: cloning the error out
        /// of the wire's hot path does not allocate).
        signal: SignalName,
        /// Cycle at which the over-subscription happened.
        cycle: u64,
        /// The configured bandwidth in objects per cycle.
        bandwidth: usize,
    },
    /// Objects arrived at the output of a signal but were never read by the
    /// consuming box before newer data arrived behind them.
    DataLost {
        /// Name of the offending signal (interned).
        signal: SignalName,
        /// Cycle at which the loss was detected.
        cycle: u64,
        /// Number of objects lost.
        lost: usize,
    },
    /// A write was issued for a cycle earlier than a previous write
    /// (the global clock only moves forward).
    TimeTravel {
        /// Name of the offending signal (interned).
        signal: SignalName,
        /// The cycle of the offending write.
        cycle: u64,
        /// The latest cycle the signal had already observed.
        latest: u64,
    },
    /// Two signals were registered under the same name in a
    /// [`SignalBinder`](crate::SignalBinder).
    NameCollision(String),
    /// A lookup in a [`SignalBinder`](crate::SignalBinder) referenced a name
    /// that was never registered.
    UnknownSignal(String),
    /// A configuration was rejected before elaboration (degenerate
    /// parameter values that would otherwise surface as a mid-run panic).
    InvalidConfig(String),
    /// A checkpoint file was rejected on restore: bad magic, checksum
    /// failure, or a config/trace hash that does not match the simulator
    /// instance asked to resume from it.
    CheckpointMismatch {
        /// Human-readable description of the first mismatch found.
        reason: String,
    },
    /// A checkpoint file carries a format version this build cannot read.
    ///
    /// Unlike the free-form [`CheckpointMismatch`](Self::CheckpointMismatch)
    /// this variant is typed: callers (and tests) can match on the exact
    /// version found in the file instead of grepping a message string.
    CheckpointVersion {
        /// The format version recorded in the rejected file.
        found: u64,
        /// The format version this build reads.
        supported: u64,
    },
}

impl SimError {
    /// The name of the offending signal, when the error is tied to one.
    pub fn signal(&self) -> Option<&str> {
        match self {
            SimError::BandwidthExceeded { signal, .. }
            | SimError::DataLost { signal, .. }
            | SimError::TimeTravel { signal, .. } => Some(signal.as_str()),
            SimError::NameCollision(name) | SimError::UnknownSignal(name) => Some(name),
            SimError::InvalidConfig(_)
            | SimError::CheckpointMismatch { .. }
            | SimError::CheckpointVersion { .. } => None,
        }
    }

    /// The cycle at which the error was detected, when known.
    pub fn cycle(&self) -> Option<u64> {
        match self {
            SimError::BandwidthExceeded { cycle, .. }
            | SimError::DataLost { cycle, .. }
            | SimError::TimeTravel { cycle, .. } => Some(*cycle),
            SimError::NameCollision(_)
            | SimError::UnknownSignal(_)
            | SimError::InvalidConfig(_)
            | SimError::CheckpointMismatch { .. }
            | SimError::CheckpointVersion { .. } => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BandwidthExceeded { signal, cycle, bandwidth } => write!(
                f,
                "signal `{signal}` exceeded its bandwidth of {bandwidth} objects/cycle at cycle {cycle}"
            ),
            SimError::DataLost { signal, cycle, lost } => write!(
                f,
                "{lost} object(s) on signal `{signal}` were never read and got lost at cycle {cycle}"
            ),
            SimError::TimeTravel { signal, cycle, latest } => write!(
                f,
                "signal `{signal}` was written at cycle {cycle} after already observing cycle {latest}"
            ),
            SimError::NameCollision(name) => {
                write!(f, "a signal named `{name}` is already registered")
            }
            SimError::UnknownSignal(name) => {
                write!(f, "no signal named `{name}` is registered")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint rejected: {reason}")
            }
            SimError::CheckpointVersion { found, supported } => write!(
                f,
                "checkpoint rejected: format version {found} is not supported, this build reads {supported}"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::BandwidthExceeded {
            signal: "setup->fraggen".into(),
            cycle: 42,
            bandwidth: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("setup->fraggen"));
        assert!(msg.contains("42"));
        assert!(msg.contains('2'));
    }

    #[test]
    fn errors_are_comparable() {
        let a = SimError::NameCollision("x".into());
        let b = SimError::NameCollision("x".into());
        assert_eq!(a, b);
        assert_ne!(a, SimError::UnknownSignal("x".into()));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(SimError::UnknownSignal("q".into()));
    }
}
