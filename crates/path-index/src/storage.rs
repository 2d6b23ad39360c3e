//! The typed errors of the index's disk boundary — the paper's Section
//! 6.1 "disk" — shared by the one index image ([`crate::v2`],
//! `SAMAIDX2`) and the LSH sidecar ([`crate::lsh`]).

/// Errors raised while encoding, opening or decoding a serialized index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The buffer does not start with the format magic.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A kind byte, label id, node id or edge id was out of range.
    Corrupt(&'static str),
    /// A section's element count or byte offset exceeds the format's
    /// `u32` range — the index is too large for this format.
    TooLarge(&'static str),
    /// An I/O error while opening or reading an index file.
    Io(String),
    /// A file in a format this crate once wrote and no longer reads:
    /// `SAMAIDX1`, the compressed `SAMAIDXZ`, or a `SAMAIDX2` written
    /// before the shape table (20 or 21 sections) or before path-content
    /// order (23). The index is a pure function of its RDF source, so
    /// the remedy is to build it again.
    LegacyLayout,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::BadMagic => write!(f, "not a Sama index (bad magic)"),
            StorageError::Truncated => write!(f, "serialized index is truncated"),
            StorageError::BadUtf8 => write!(f, "invalid UTF-8 in label table"),
            StorageError::Corrupt(what) => write!(f, "corrupt index: {what}"),
            StorageError::TooLarge(what) => {
                write!(f, "index too large for format: {what} exceeds u32 range")
            }
            StorageError::Io(err) => write!(f, "index i/o error: {err}"),
            StorageError::LegacyLayout => {
                write!(
                    f,
                    "index is in a format that is no longer read; \
                     rebuild it from its RDF source with `sama index`"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convert a length to the on-disk `u32` count representation, refusing
/// (rather than silently truncating) anything past 4G-1 elements.
pub(crate) fn try_u32(n: usize, what: &'static str) -> Result<u32, StorageError> {
    u32::try_from(n).map_err(|_| StorageError::TooLarge(what))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_overflow_is_typed_not_truncated() {
        assert_eq!(try_u32(u32::MAX as usize, "ok"), Ok(u32::MAX));
        let err = try_u32(u32::MAX as usize + 1, "paths").unwrap_err();
        assert_eq!(err, StorageError::TooLarge("paths"));
        assert_eq!(
            err.to_string(),
            "index too large for format: paths exceeds u32 range"
        );
    }
}
