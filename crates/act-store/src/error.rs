//! Store error type: every fallible store operation returns [`StoreError`],
//! and hostile or damaged on-disk bytes must surface as [`StoreError::Corrupt`]
//! — never a panic or an unbounded allocation.

use std::fmt;
use std::io;

/// Errors from corpus/segment operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// On-disk bytes failed validation (bad magic, CRC mismatch, truncated
    /// varint, impossible length...). `offset` is the best-effort byte
    /// position within the file or block being decoded.
    Corrupt {
        /// Byte position the decoder was at.
        offset: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// No entry under the requested key.
    NotFound {
        /// The key that was looked up.
        key: String,
    },
    /// Caller misuse (bad key syntax, entry kind mismatch, put while another
    /// entry is open...).
    InvalidInput(String),
}

impl StoreError {
    /// Shorthand for a corruption error.
    pub fn corrupt(offset: u64, reason: impl Into<String>) -> Self {
        StoreError::Corrupt { offset, reason: reason.into() }
    }

    /// Whether this is a data-integrity error (as opposed to IO or misuse).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt store data at byte {offset}: {reason}")
            }
            StoreError::NotFound { key } => write!(f, "no store entry for key `{key}`"),
            StoreError::InvalidInput(msg) => write!(f, "invalid store input: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A sink that cannot fail (a `TraceBuilder`) never reports an error.
impl From<std::convert::Infallible> for StoreError {
    fn from(never: std::convert::Infallible) -> Self {
        match never {}
    }
}
