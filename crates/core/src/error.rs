//! Error types shared by the BPS core algebra and the simulated I/O path.

use crate::time::Nanos;
use std::fmt;

/// Errors produced when building or analyzing traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A correlation was requested over series of mismatched or insufficient length.
    BadSeries {
        /// Length of the x series.
        x_len: usize,
        /// Length of the y series.
        y_len: usize,
    },
    /// One of the correlated series has zero variance, so the correlation
    /// coefficient is undefined.
    ZeroVariance,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadSeries { x_len, y_len } => write!(
                f,
                "correlation needs two equal-length series of >= 2 points, got {x_len} and {y_len}"
            ),
            CoreError::ZeroVariance => {
                write!(f, "correlation undefined: a series has zero variance")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Errors produced on the simulated I/O request path.
///
/// Most variants carry the *detection instant* `at`: the virtual time at
/// which the client learned of the failure (after the error reply crossed
/// the network, for remote requests). Retry schedulers use it to decide
/// when the next attempt may be issued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// An access extends past the end of the file. Permanent: retrying
    /// cannot help.
    BeyondEof {
        /// Requested byte offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// File size.
        size: u64,
    },
    /// A device completed a request with a transient media/transport error.
    DeviceFault {
        /// Server whose device faulted.
        server: usize,
        /// Client-side detection instant.
        at: Nanos,
    },
    /// The target server is down for a known window (pause-and-recover).
    ServerOffline {
        /// The offline server.
        server: usize,
        /// Client-side detection instant.
        at: Nanos,
        /// When the server is expected back.
        until: Nanos,
    },
    /// All retry attempts were exhausted; carries the final failure.
    RetriesExhausted {
        /// Total attempts made.
        attempts: u32,
        /// Detection instant of the last failure.
        at: Nanos,
    },
}

impl IoError {
    /// The virtual instant at which the client detected the failure.
    /// `None` for client-side validation errors detected at issue time
    /// (the caller already knows `now`).
    pub fn fail_time(&self) -> Option<Nanos> {
        match self {
            IoError::BeyondEof { .. } => None,
            IoError::DeviceFault { at, .. }
            | IoError::ServerOffline { at, .. }
            | IoError::RetriesExhausted { at, .. } => Some(*at),
        }
    }

    /// True when a retry might succeed (transient faults); false for
    /// permanent errors like [`IoError::BeyondEof`].
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            IoError::BeyondEof { .. } | IoError::RetriesExhausted { .. }
        )
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::BeyondEof { offset, len, size } => {
                write!(f, "access [{offset}, {}) beyond EOF {size}", offset + len)
            }
            IoError::DeviceFault { server, at } => {
                write!(f, "device fault on server {server} detected at {at}")
            }
            IoError::ServerOffline { server, at, until } => {
                write!(f, "server {server} offline at {at} (back at {until})")
            }
            IoError::RetriesExhausted { attempts, at } => {
                write!(f, "gave up after {attempts} attempts at {at}")
            }
        }
    }
}

impl std::error::Error for IoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::BadSeries { x_len: 1, y_len: 2 };
        assert!(e.to_string().contains("1 and 2"));
        assert!(CoreError::ZeroVariance.to_string().contains("variance"));
    }

    #[test]
    fn io_error_display_and_classification() {
        let eof = IoError::BeyondEof {
            offset: 100,
            len: 50,
            size: 120,
        };
        assert!(eof.to_string().contains("beyond EOF"));
        assert!(!eof.is_transient());
        assert_eq!(eof.fail_time(), None);

        let fault = IoError::DeviceFault {
            server: 2,
            at: Nanos(7_000),
        };
        assert!(fault.is_transient());
        assert_eq!(fault.fail_time(), Some(Nanos(7_000)));

        let off = IoError::ServerOffline {
            server: 0,
            at: Nanos::from_millis(1),
            until: Nanos::from_millis(9),
        };
        assert!(off.is_transient());
        assert!(off.to_string().contains("offline"));

        let gone = IoError::RetriesExhausted {
            attempts: 4,
            at: Nanos::from_millis(3),
        };
        assert!(!gone.is_transient());
        assert!(gone.to_string().contains("4 attempts"));
    }
}
