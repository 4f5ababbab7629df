//! Typed service errors — every rejection a client can receive.

use std::fmt;

/// Why the service refused or failed a job. Each variant has a stable
/// wire code (`ServeError::code`) so clients can branch without parsing
/// prose.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admitting the job would exceed the configured amplitude-memory
    /// budget (counting jobs currently queued or executing).
    OverBudget {
        /// Bytes this job would pin while executing.
        required_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
        /// Bytes already reserved by queued + in-flight jobs.
        in_use_bytes: u64,
    },
    /// The bounded admission queue is at capacity — backpressure, try
    /// again later.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The request was malformed: bad JSON, unknown op or gate, invalid
    /// qubit index, non-power-of-two ranks, …
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The execution itself failed (an unrecoverable injected fault, a
    /// zero-norm sample). The job was admitted and run; the failure is
    /// surfaced to exactly the submitting client.
    Exec {
        /// The underlying typed error, rendered.
        detail: String,
    },
    /// The server is shutting down and no longer accepts work.
    Shutdown,
}

impl ServeError {
    /// Stable machine-readable code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::OverBudget { .. } => "over_budget",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::Exec { .. } => "exec_failed",
            ServeError::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::OverBudget {
                required_bytes,
                budget_bytes,
                in_use_bytes,
            } => write!(
                f,
                "admission would need {required_bytes} B with {in_use_bytes} B already reserved of a {budget_bytes} B budget"
            ),
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue is full ({capacity} jobs)")
            }
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Exec { detail } => write!(f, "execution failed: {detail}"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_display_carries_numbers() {
        let e = ServeError::OverBudget {
            required_bytes: 64,
            budget_bytes: 32,
            in_use_bytes: 16,
        };
        assert_eq!(e.code(), "over_budget");
        let msg = e.to_string();
        assert!(msg.contains("64") && msg.contains("32") && msg.contains("16"));
        assert_eq!(ServeError::QueueFull { capacity: 4 }.code(), "queue_full");
        assert_eq!(
            ServeError::BadRequest { detail: "x".into() }.code(),
            "bad_request"
        );
        assert_eq!(
            ServeError::Exec { detail: "x".into() }.code(),
            "exec_failed"
        );
        assert_eq!(ServeError::Shutdown.code(), "shutdown");
    }
}
