//! Structured server errors.
//!
//! Every failure mode of the serving path is a [`ServerError`] variant the
//! client can match on — compilation problems keep their source positions
//! and did-you-mean suggestions from `morph-sql`, admission failures name
//! the tenant and the capacity that was exceeded, and execution failures
//! carry the decoded panic message (wrapping a
//! [`DecodeError`](morph_compression::DecodeError) when a compressed
//! intermediate was corrupt).  Nothing in the server panics across the
//! session boundary.

use std::fmt;
use std::time::Duration;

use morph_compression::DecodeError;
use morph_sql::SqlError;
use morphstore_engine::ExecError;

/// An error produced by the query server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The SQL text failed to parse; positions are 1-based.
    Parse {
        /// Line of the offending token.
        line: u32,
        /// Column of the offending token.
        column: u32,
        /// What the parser expected or found.
        message: String,
    },
    /// A `FROM` table is not in the catalog.
    UnknownTable {
        /// The name as written.
        name: String,
        /// Closest catalog table, if any is plausibly near.
        did_you_mean: Option<String>,
    },
    /// A referenced column exists in none of the query's tables.
    UnknownColumn {
        /// The name as written.
        name: String,
        /// Closest column of the query's tables, if plausibly near.
        did_you_mean: Option<String>,
    },
    /// The query parses and resolves but falls outside the supported
    /// star-join subset.
    Unsupported {
        /// Why the planner rejected it.
        message: String,
    },
    /// The tenant's admission queue is at capacity — or the estimated
    /// queue wait already exceeds the query's deadline (load shedding).
    /// The query was rejected rather than enqueued (back-pressure, not an
    /// exception).
    QueueFull {
        /// The tenant whose queue is full.
        tenant: String,
        /// The configured per-tenant capacity.
        capacity: usize,
        /// Hint for the client: how long to wait before retrying, when the
        /// server can estimate it from recent service times.
        retry_after: Option<Duration>,
    },
    /// The tenant already has its configured maximum number of in-flight
    /// (queued or executing) queries.
    InFlightLimit {
        /// The tenant at its in-flight limit.
        tenant: String,
        /// The configured per-tenant in-flight maximum.
        max_in_flight: usize,
    },
    /// Opening a session for a new tenant would exceed the configured
    /// tenant limit.
    TenantLimit {
        /// The configured maximum number of tenants.
        max_tenants: usize,
    },
    /// Plan execution failed (the engine panicked); the message is the
    /// panic payload, and `decode` carries the structured
    /// [`DecodeError`] when a compressed buffer was corrupt.
    Execution {
        /// The panic message.
        message: String,
        /// The decode failure, when that is what brought execution down.
        decode: Option<DecodeError>,
    },
    /// The query was cancelled — via
    /// [`PendingQuery::cancel`](crate::PendingQuery::cancel) while queued or executing.
    Cancelled,
    /// The query ran past its deadline (tenant limit), measured from
    /// admission so queue wait counts against it.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Elapsed wall clock when the violation was observed.
        elapsed: Duration,
    },
    /// The query exceeded its per-query memory budget (tenant limit).
    MemoryExceeded {
        /// Bytes charged to the query when the violation was observed.
        used_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
    },
    /// The server shut down while the query was queued or running.
    Shutdown,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at line {line}, column {column}: {message}"),
            ServerError::UnknownTable { name, did_you_mean } => {
                write!(f, "unknown table `{name}`")?;
                if let Some(suggestion) = did_you_mean {
                    write!(f, " (did you mean `{suggestion}`?)")?;
                }
                Ok(())
            }
            ServerError::UnknownColumn { name, did_you_mean } => {
                write!(f, "unknown column `{name}`")?;
                if let Some(suggestion) = did_you_mean {
                    write!(f, " (did you mean `{suggestion}`?)")?;
                }
                Ok(())
            }
            ServerError::Unsupported { message } => write!(f, "unsupported query: {message}"),
            ServerError::QueueFull {
                tenant,
                capacity,
                retry_after,
            } => {
                write!(
                    f,
                    "admission queue of tenant `{tenant}` is full ({capacity} queued queries)"
                )?;
                if let Some(retry_after) = retry_after {
                    write!(f, "; retry after {retry_after:?}")?;
                }
                Ok(())
            }
            ServerError::InFlightLimit {
                tenant,
                max_in_flight,
            } => write!(
                f,
                "tenant `{tenant}` is at its in-flight limit ({max_in_flight} queries)"
            ),
            ServerError::TenantLimit { max_tenants } => {
                write!(f, "tenant limit reached ({max_tenants} tenants)")
            }
            ServerError::Execution { message, decode } => {
                write!(f, "query execution failed: {message}")?;
                if let Some(decode) = decode {
                    write!(f, " ({decode})")?;
                }
                Ok(())
            }
            ServerError::Cancelled => write!(f, "query cancelled"),
            ServerError::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "query deadline exceeded: ran {elapsed:?} against a deadline of {deadline:?}"
            ),
            ServerError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "query memory budget exceeded: {used_bytes} bytes used, budget {budget_bytes}"
            ),
            ServerError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl From<ExecError> for ServerError {
    fn from(error: ExecError) -> ServerError {
        match error {
            ExecError::Cancelled => ServerError::Cancelled,
            ExecError::DeadlineExceeded { deadline, elapsed } => {
                ServerError::DeadlineExceeded { deadline, elapsed }
            }
            ExecError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            } => ServerError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            },
            ExecError::Decode(decode) => ServerError::from(decode),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SqlError> for ServerError {
    fn from(error: SqlError) -> ServerError {
        match error {
            SqlError::Parse {
                line,
                column,
                message,
            } => ServerError::Parse {
                line,
                column,
                message,
            },
            SqlError::UnknownTable { name, did_you_mean } => {
                ServerError::UnknownTable { name, did_you_mean }
            }
            SqlError::UnknownColumn { name, did_you_mean } => {
                ServerError::UnknownColumn { name, did_you_mean }
            }
            SqlError::Unsupported { message } => ServerError::Unsupported { message },
            SqlError::InvalidPlan { error } => ServerError::Execution {
                message: format!("compiled plan failed verification: {error}"),
                decode: None,
            },
        }
    }
}

impl From<DecodeError> for ServerError {
    fn from(error: DecodeError) -> ServerError {
        ServerError::Execution {
            message: error.to_string(),
            decode: Some(error),
        }
    }
}

/// Convert a caught panic payload into an [`ServerError::Execution`],
/// preserving a [`DecodeError`] payload structurally.
pub(crate) fn execution_error(payload: Box<dyn std::any::Any + Send>) -> ServerError {
    let payload = match payload.downcast::<DecodeError>() {
        Ok(decode) => return ServerError::from(*decode),
        Err(payload) => payload,
    };
    let message = if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else {
        "query execution panicked".to_string()
    };
    ServerError::Execution {
        message,
        decode: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_keep_positions() {
        let error = ServerError::from(morph_sql::parse("SELECT a\nFROM").unwrap_err());
        match &error {
            ServerError::Parse { line, column, .. } => assert_eq!((*line, *column), (2, 5)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(error.to_string().contains("line 2, column 5"));
    }

    #[test]
    fn unknown_names_keep_suggestions() {
        let error = ServerError::UnknownTable {
            name: "lineorderz".to_string(),
            did_you_mean: Some("lineorder".to_string()),
        };
        assert!(error.to_string().contains("did you mean `lineorder`?"));
        let error = ServerError::UnknownColumn {
            name: "lo_revenu".to_string(),
            did_you_mean: None,
        };
        assert_eq!(error.to_string(), "unknown column `lo_revenu`");
    }

    #[test]
    fn queue_full_names_tenant_and_capacity() {
        let error = ServerError::QueueFull {
            tenant: "acme".to_string(),
            capacity: 4,
            retry_after: None,
        };
        let text = error.to_string();
        assert!(text.contains("acme") && text.contains('4'), "{text}");
        let error = ServerError::QueueFull {
            tenant: "acme".to_string(),
            capacity: 4,
            retry_after: Some(Duration::from_millis(12)),
        };
        assert!(error.to_string().contains("retry after"), "{error}");
    }

    #[test]
    fn governance_errors_map_structurally() {
        assert_eq!(
            ServerError::from(ExecError::Cancelled),
            ServerError::Cancelled
        );
        let deadline = ExecError::DeadlineExceeded {
            deadline: Duration::from_millis(5),
            elapsed: Duration::from_millis(9),
        };
        match ServerError::from(deadline) {
            ServerError::DeadlineExceeded { deadline, elapsed } => {
                assert_eq!(deadline, Duration::from_millis(5));
                assert_eq!(elapsed, Duration::from_millis(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        let memory = ExecError::MemoryExceeded {
            used_bytes: 2048,
            budget_bytes: 1024,
        };
        match ServerError::from(memory) {
            ServerError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            } => assert_eq!((used_bytes, budget_bytes), (2048, 1024)),
            other => panic!("unexpected {other:?}"),
        }
        let decode = DecodeError::CorruptHeader {
            format: "fault-injection",
            detail: "injected".to_string(),
        };
        match ServerError::from(ExecError::Decode(decode.clone())) {
            ServerError::Execution {
                decode: Some(inner),
                ..
            } => assert_eq!(inner, decode),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_errors_are_wrapped_structurally() {
        let decode = DecodeError::CorruptHeader {
            format: "rle",
            detail: "zero run length".to_string(),
        };
        let error = ServerError::from(decode.clone());
        match &error {
            ServerError::Execution {
                decode: Some(inner),
                ..
            } => assert_eq!(*inner, decode),
            other => panic!("unexpected {other:?}"),
        }
        assert!(error.to_string().contains("corrupt rle header"));
    }

    #[test]
    fn panic_payloads_become_execution_errors() {
        let error = execution_error(Box::new("boom".to_string()));
        assert_eq!(
            error,
            ServerError::Execution {
                message: "boom".to_string(),
                decode: None
            }
        );
        let error = execution_error(Box::new("static boom"));
        match error {
            ServerError::Execution { message, decode } => {
                assert_eq!(message, "static boom");
                assert!(decode.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        let decode = DecodeError::Truncated {
            format: "delta",
            offset: 8,
            needed: 16,
            available: 3,
        };
        match execution_error(Box::new(decode.clone())) {
            ServerError::Execution {
                decode: Some(inner),
                ..
            } => assert_eq!(inner, decode),
            other => panic!("unexpected {other:?}"),
        }
    }
}
