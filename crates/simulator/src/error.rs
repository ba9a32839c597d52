//! Error types for simulation construction and execution.

use std::error::Error;
use std::fmt;

/// Errors produced while building or running a simulation.
///
/// # Examples
///
/// ```
/// use lasmq_simulator::SimError;
///
/// let err = SimError::InvalidCluster("cluster has zero containers".into());
/// assert!(err.to_string().contains("zero containers"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The cluster configuration is unusable (e.g. zero nodes or zero
    /// containers per node).
    InvalidCluster(String),
    /// A job specification is unusable (e.g. a stage with zero tasks, or a
    /// task that needs more containers than the whole cluster provides).
    InvalidJob {
        /// Index of the offending job in the submitted job list.
        job_index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The engine configuration is inconsistent (e.g. a zero scheduling
    /// quantum).
    InvalidConfig(String),
    /// A [`SimSnapshot`](crate::SimSnapshot) could not be parsed or applied
    /// (schema mismatch, scheduler mismatch, a deadline, or corrupt
    /// payload).
    Snapshot(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidCluster(reason) => {
                write!(f, "invalid cluster configuration: {reason}")
            }
            SimError::InvalidJob { job_index, reason } => {
                write!(
                    f,
                    "invalid job specification at index {job_index}: {reason}"
                )
            }
            SimError::InvalidConfig(reason) => write!(f, "invalid engine configuration: {reason}"),
            SimError::Snapshot(reason) => write!(f, "unusable snapshot: {reason}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs = [
            SimError::InvalidCluster("x".into()),
            SimError::InvalidJob {
                job_index: 1,
                reason: "y".into(),
            },
            SimError::InvalidConfig("z".into()),
        ];
        for err in errs {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
