//! Filesystem error types.

use ssdhammer_simkit::StorageError;

/// Errors surfaced by filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Path already exists.
    Exists,
    /// A non-directory appeared where a directory was required.
    NotADirectory,
    /// A directory appeared where a file was required.
    IsADirectory,
    /// The credentials do not permit the operation.
    PermissionDenied,
    /// No free blocks or inodes remain.
    NoSpace,
    /// Name invalid (empty, too long, or contains `/`).
    InvalidName,
    /// Offset beyond the maximum file size for its addressing mode.
    FileTooLarge,
    /// On-disk metadata failed validation (bad magic, checksum mismatch,
    /// impossible pointer). The payload describes what failed.
    Corrupted(String),
    /// The underlying device failed.
    Io(StorageError),
}

impl From<StorageError> for FsError {
    fn from(e: StorageError) -> Self {
        FsError::Io(e)
    }
}

impl core::fmt::Display for FsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::IsADirectory => write!(f, "is a directory"),
            FsError::PermissionDenied => write!(f, "permission denied"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::InvalidName => write!(f, "invalid file name"),
            FsError::FileTooLarge => write!(f, "file too large"),
            FsError::Corrupted(why) => write!(f, "filesystem corrupted: {why}"),
            FsError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Result alias for filesystem operations.
pub type FsResult<T> = Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;
    use ssdhammer_simkit::Lba;

    #[test]
    fn display_messages() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert_eq!(
            FsError::Corrupted("extent checksum".into()).to_string(),
            "filesystem corrupted: extent checksum"
        );
    }

    #[test]
    fn io_errors_convert() {
        let e: FsError = StorageError::Uncorrectable { lba: Lba(3) }.into();
        assert!(matches!(e, FsError::Io(_)));
    }
}
