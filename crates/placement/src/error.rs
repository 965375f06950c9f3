use std::fmt;

use ropus_trace::TraceError;

/// Error raised by the workload placement service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlacementError {
    /// No workloads were supplied.
    NoWorkloads,
    /// Workload traces are not aligned to the same calendar and length.
    MisalignedWorkloads {
        /// Name of the offending workload.
        name: String,
    },
    /// More workloads than the fit engine can index (`u16::MAX`).
    TooManyWorkloads {
        /// Number of workloads supplied.
        count: usize,
    },
    /// Workload traces must cover whole weeks for the `θ` measurement.
    PartialWeeks {
        /// Name of the offending workload.
        name: String,
    },
    /// A server specification was invalid (zero CPUs or capacity).
    InvalidServer {
        /// Reason the spec was rejected.
        message: String,
    },
    /// The workloads cannot be placed on the available pool while meeting
    /// the resource access commitments.
    Infeasible {
        /// Number of servers that were available.
        servers: usize,
        /// Human-readable explanation (e.g. which constraint failed).
        message: String,
    },
    /// A session already holds a workload with this name.
    DuplicateWorkload {
        /// Name of the offending workload.
        name: String,
    },
    /// A session operation referenced a workload that is not present.
    UnknownWorkload {
        /// Name (or `#id`) of the missing workload.
        name: String,
    },
    /// The underlying trace layer reported an error.
    Trace(TraceError),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoWorkloads => write!(f, "no workloads supplied"),
            PlacementError::MisalignedWorkloads { name } => {
                write!(f, "workload {name} is not aligned with the others")
            }
            PlacementError::TooManyWorkloads { count } => write!(
                f,
                "{count} workloads exceed the placement limit of {}",
                u16::MAX
            ),
            PlacementError::PartialWeeks { name } => {
                write!(f, "workload {name} does not cover whole weeks")
            }
            PlacementError::InvalidServer { message } => {
                write!(f, "invalid server specification: {message}")
            }
            PlacementError::Infeasible { servers, message } => {
                write!(f, "placement infeasible on {servers} servers: {message}")
            }
            PlacementError::DuplicateWorkload { name } => {
                write!(f, "workload {name} is already placed in the session")
            }
            PlacementError::UnknownWorkload { name } => {
                write!(f, "workload {name} is not present in the session")
            }
            PlacementError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlacementError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for PlacementError {
    fn from(err: TraceError) -> Self {
        PlacementError::Trace(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_nonempty() {
        let errors = [
            PlacementError::NoWorkloads,
            PlacementError::MisalignedWorkloads { name: "a".into() },
            PlacementError::PartialWeeks { name: "b".into() },
            PlacementError::TooManyWorkloads { count: 70_000 },
            PlacementError::InvalidServer {
                message: "zero cpus".into(),
            },
            PlacementError::Infeasible {
                servers: 3,
                message: "cos1 overflow".into(),
            },
            PlacementError::DuplicateWorkload { name: "d".into() },
            PlacementError::UnknownWorkload { name: "u".into() },
            PlacementError::Trace(TraceError::Empty),
        ];
        for err in errors {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<PlacementError>();
    }
}
