//! Error types shared by every crate in the workspace.

use std::fmt;

/// The error type returned by fallible operations across the SMC stack.
///
/// Every public `Result` in the workspace uses this type (or a thin wrapper
/// around it), so errors compose across the transport, bus, discovery and
/// policy layers without conversion boilerplate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A wire message could not be decoded (truncated, bad tag, bad UTF-8…).
    Codec(CodecError),
    /// An I/O level failure, carrying the `std::io` error kind and message.
    Io(String),
    /// An operation did not complete within its deadline.
    Timeout,
    /// The channel, transport or service has been shut down.
    Closed,
    /// The referenced service is not a member of the cell.
    NotMember,
    /// An authorisation policy denied the operation.
    Denied(String),
    /// A join request was rejected by the discovery authenticator.
    JoinRejected(String),
    /// A queue or table reached its configured capacity.
    CapacityExceeded(String),
    /// The named entity (subscription, policy, proxy…) does not exist.
    NotFound(String),
    /// The named entity already exists.
    AlreadyExists(String),
    /// A request was syntactically valid but semantically unacceptable.
    Invalid(String),
}

/// Detailed reason for a codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd {
        /// How many bytes the decoder needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// The context in which the tag was read (e.g. `"packet"`).
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the configured sanity limit.
    LengthOverflow {
        /// The declared length.
        declared: usize,
        /// The maximum the decoder accepts.
        limit: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after a complete value was decoded.
    TrailingBytes(usize),
    /// A text field was valid UTF-8 but did not parse as what it holds.
    BadText {
        /// What the text should have been (e.g. `"condition"`).
        what: &'static str,
        /// The parser's complaint.
        reason: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::LengthOverflow { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            CodecError::BadUtf8 => write!(f, "string field contains invalid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadText { what, reason } => write!(f, "{what} does not parse: {reason}"),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec(e) => write!(f, "codec error: {e}"),
            Error::Io(m) => write!(f, "i/o error: {m}"),
            Error::Timeout => write!(f, "operation timed out"),
            Error::Closed => write!(f, "endpoint closed"),
            Error::NotMember => write!(f, "service is not a member of the cell"),
            Error::Denied(m) => write!(f, "denied by policy: {m}"),
            Error::JoinRejected(m) => write!(f, "join rejected: {m}"),
            Error::CapacityExceeded(m) => write!(f, "capacity exceeded: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::AlreadyExists(m) => write!(f, "already exists: {m}"),
            Error::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl std::error::Error for CodecError {}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Self {
        Error::Codec(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Convenience alias used throughout the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::Timeout;
        let s = e.to_string();
        assert!(s.starts_with(char::is_lowercase), "{s}");
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn codec_error_converts() {
        let c = CodecError::BadUtf8;
        let e: Error = c.clone().into();
        assert_eq!(e, Error::Codec(c));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(ref m) if m.contains("boom")));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn codec_error_display_variants() {
        assert!(CodecError::UnexpectedEnd {
            needed: 4,
            remaining: 1
        }
        .to_string()
        .contains("needed 4"));
        assert!(CodecError::BadTag {
            what: "packet",
            tag: 0xff
        }
        .to_string()
        .contains("0xff"));
        assert!(CodecError::LengthOverflow {
            declared: 10,
            limit: 5
        }
        .to_string()
        .contains("10"));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
    }
}
