//! Error type for repository operations.

use std::fmt;

/// Anything that can go wrong opening, verifying, or writing a
/// repository file.
#[derive(Debug)]
pub enum RepoError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the repository magic.
    NotARepo {
        /// The offending path.
        path: String,
    },
    /// The file declares a format version this build cannot read, or an
    /// older one it can read but not append to.
    UnsupportedVersion {
        /// The version byte found in the header.
        found: u8,
    },
    /// A structural problem: bad footer, overlapping segments, frame
    /// metadata disagreeing with the index, and the like.
    Corrupt {
        /// Human-readable description of the damage.
        detail: String,
    },
    /// A record payload failed its CRC check.
    Checksum {
        /// Zero-based record index.
        index: usize,
        /// The record id as named by the footer.
        id: String,
        /// The CRC stored in the file.
        stored: u32,
        /// The CRC computed over the payload.
        computed: u32,
    },
    /// A record payload passed its CRC but could not be decoded.
    Decode {
        /// Zero-based record index.
        index: usize,
        /// The record id as named by the footer.
        id: String,
        /// What the decoder objected to.
        detail: String,
    },
    /// Two records share an id.
    DuplicateId {
        /// The colliding id.
        id: String,
    },
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "i/o error: {e}"),
            RepoError::NotARepo { path } => {
                write!(f, "{path}: not an OptImatch repository (bad magic)")
            }
            RepoError::UnsupportedVersion { found } => write!(
                f,
                "unsupported repository format version {found} (this build reads versions \
                 1 to {current} and appends only to version {current})",
                current = crate::store::FORMAT_VERSION
            ),
            RepoError::Corrupt { detail } => write!(f, "corrupt repository: {detail}"),
            RepoError::Checksum {
                index,
                id,
                stored,
                computed,
            } => write!(
                f,
                "record #{index} ({id}): checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
            RepoError::Decode { index, id, detail } => {
                write!(f, "record #{index} ({id}): {detail}")
            }
            RepoError::DuplicateId { id } => {
                write!(f, "duplicate record id {id:?}")
            }
        }
    }
}

impl std::error::Error for RepoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RepoError {
    fn from(e: std::io::Error) -> RepoError {
        RepoError::Io(e)
    }
}
