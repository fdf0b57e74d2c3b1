//! Query-lifecycle governance: cooperative cancellation, wall-clock
//! deadlines, and per-query transient-memory budgets.
//!
//! A [`QueryGovernor`] is a small shared token attached to
//! [`ExecSettings`](crate::ExecSettings). Both plan executors enter a
//! thread-local [`GovernorScope`] around execution, and every operator loop
//! calls [`checkpoint_chunk`] once per decoded chunk (the pull-based chunk
//! cursors make this nearly free: one thread-local read and one atomic
//! increment per ~2048 values). [`execute_node`](crate::plan) calls
//! [`checkpoint_node`] once per plan node. A violated limit unwinds the
//! current worker with an [`ExecError`] payload; the fallible entry points
//! (`PlanExecutor::try_execute`, `ParallelExecutor::try_execute`) catch that
//! payload — and structured [`DecodeError`] payloads from the decoders — and
//! return it as a `Result`, resuming any *other* panic unchanged. The
//! parallel scheduler's existing `PanicRelease` guard unblocks sibling
//! workers, so a governor trip on any one morsel cleanly drains the whole
//! pool.
//!
//! Memory accounting is **per query**: materialised intermediates are
//! charged via `charge_materialized` as they are recorded, and the
//! pairwise operators' transient carry buffers via `charge_transient`
//! (routed through [`ops::transient`](crate::ops::transient), which keeps
//! the process-global high-water mark for the bench harness alongside the
//! governor-scoped one). The join operators charge their key tables
//! ([`morph_vector::keys`]) the same way — directly, since a table is
//! O(build side), not a chunk-bounded carry the process-global mark is meant
//! to bound. One tenant's spike can therefore never trip another query's
//! memory verdict.

use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use morph_compression::DecodeError;

use crate::faults::{ArmedFault, FaultKind, FaultSite};

/// A structured reason why a governed query execution stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The query's cancellation token was flipped (cooperatively observed
    /// at the next chunk or node boundary).
    Cancelled,
    /// The query ran past its wall-clock deadline.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Elapsed wall clock when the violation was observed.
        elapsed: Duration,
    },
    /// The query's materialised intermediates plus transient carry buffers
    /// exceeded its memory budget.
    MemoryExceeded {
        /// Bytes in use when the violation was observed.
        used_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
    },
    /// A compressed buffer failed to decode mid-plan; the structured cause
    /// is preserved instead of a stringly panic.
    Decode(DecodeError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "query deadline exceeded: ran {elapsed:?} against a deadline of {deadline:?}"
            ),
            ExecError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "query memory budget exceeded: {used_bytes} bytes used, budget {budget_bytes}"
            ),
            ExecError::Decode(error) => write!(f, "decode failure during execution: {error}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DecodeError> for ExecError {
    fn from(error: DecodeError) -> ExecError {
        ExecError::Decode(error)
    }
}

/// Shared per-query governance token: cancellation flag, wall-clock
/// deadline, and transient-memory budget, plus the per-query memory and
/// checkpoint counters. Cheap to share (`Arc`) between the submitting
/// session (which may cancel) and the worker threads executing the plan.
#[derive(Debug)]
pub struct QueryGovernor {
    started: Instant,
    deadline: Option<Duration>,
    budget_bytes: Option<usize>,
    cancelled: AtomicBool,
    materialized_bytes: AtomicUsize,
    transient_peak_bytes: AtomicUsize,
    chunk_checks: AtomicU64,
    node_checks: AtomicU64,
    /// The fault armed against this query, set by the builder before the
    /// governor is shared.
    fault: Option<ArmedFault>,
    /// Whether the armed fault has fired (each fires at most once).
    fault_fired: AtomicBool,
}

impl Default for QueryGovernor {
    fn default() -> QueryGovernor {
        QueryGovernor::new()
    }
}

impl QueryGovernor {
    /// An unlimited governor: cancellable, but with no deadline and no
    /// memory budget.
    pub fn new() -> QueryGovernor {
        QueryGovernor {
            started: Instant::now(),
            deadline: None,
            budget_bytes: None,
            cancelled: AtomicBool::new(false),
            materialized_bytes: AtomicUsize::new(0),
            transient_peak_bytes: AtomicUsize::new(0),
            chunk_checks: AtomicU64::new(0),
            node_checks: AtomicU64::new(0),
            fault: None,
            fault_fired: AtomicBool::new(false),
        }
    }

    /// Set a wall-clock deadline, measured from the governor's creation
    /// (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> QueryGovernor {
        self.deadline = Some(deadline);
        self
    }

    /// Set a per-query memory budget in bytes, covering materialised
    /// intermediates plus the peak transient carry (builder style).
    pub fn with_memory_budget(mut self, budget_bytes: usize) -> QueryGovernor {
        self.budget_bytes = Some(budget_bytes);
        self
    }

    /// Arm one deterministic fault against this query (builder style; fault
    /// harness only).
    pub fn with_fault(mut self, fault: Option<ArmedFault>) -> QueryGovernor {
        self.fault = fault;
        self
    }

    /// Flip the cancellation token. Execution observes the flag at the next
    /// chunk or node boundary and unwinds with [`ExecError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the cancellation token was flipped.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured memory budget in bytes, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Wall clock elapsed since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Per-query bytes currently charged: materialised intermediates plus
    /// the peak transient carry buffer.
    pub fn used_bytes(&self) -> usize {
        self.materialized_bytes.load(Ordering::Relaxed)
            + self.transient_peak_bytes.load(Ordering::Relaxed)
    }

    /// Peak transient carry-buffer size charged to this query (the
    /// governor-scoped counterpart of
    /// [`transient::peak_bytes`](crate::ops::transient::peak_bytes)).
    pub fn transient_peak_bytes(&self) -> usize {
        self.transient_peak_bytes.load(Ordering::Relaxed)
    }

    /// Number of chunk-boundary checkpoints this query has passed.
    pub fn chunk_checkpoints(&self) -> u64 {
        self.chunk_checks.load(Ordering::Relaxed)
    }

    /// Number of node-boundary checkpoints this query has passed.
    pub fn node_checkpoints(&self) -> u64 {
        self.node_checks.load(Ordering::Relaxed)
    }

    /// Verify every limit; `Err` names the first violated one.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(ExecError::DeadlineExceeded { deadline, elapsed });
            }
        }
        self.check_memory()
    }

    fn check_memory(&self) -> Result<(), ExecError> {
        if let Some(budget_bytes) = self.budget_bytes {
            let used_bytes = self.used_bytes();
            if used_bytes > budget_bytes {
                return Err(ExecError::MemoryExceeded {
                    used_bytes,
                    budget_bytes,
                });
            }
        }
        Ok(())
    }

    /// Charge one materialised intermediate to the query's budget.
    fn add_materialized(&self, bytes: usize) -> Result<(), ExecError> {
        self.materialized_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.check_memory()
    }

    /// Raise the query's transient carry high-water mark.
    fn note_transient(&self, bytes: usize) -> Result<(), ExecError> {
        self.transient_peak_bytes
            .fetch_max(bytes, Ordering::Relaxed);
        self.check_memory()
    }

    /// One chunk- or node-boundary checkpoint: count, inject any armed
    /// fault whose trigger has come due, and verify the limits.
    fn on_checkpoint(&self, site: FaultSite) -> Result<(), ExecError> {
        let checks = match site {
            FaultSite::Chunk => &self.chunk_checks,
            FaultSite::Node => &self.node_checks,
        };
        let count = checks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(armed) = self.fault.as_ref().filter(|armed| armed.site == site) {
            self.maybe_inject(armed, count)?;
        }
        self.check()
    }

    /// Trigger `armed`, already matched to this checkpoint's site, if
    /// `count` is at or past its trigger point; each armed fault fires at
    /// most once.  Out of line and cold, so the checkpoints inlined into
    /// operator loops stay small.
    #[cold]
    #[inline(never)]
    fn maybe_inject(&self, armed: &ArmedFault, count: u64) -> Result<(), ExecError> {
        let ArmedFault {
            site,
            at,
            kind,
            query,
        } = armed;
        if count < *at || self.fault_fired.swap(true, Ordering::Relaxed) {
            return Ok(());
        }
        match kind {
            FaultKind::Decode => Err(ExecError::Decode(DecodeError::CorruptHeader {
                format: "fault-injection",
                detail: format!("injected decode fault at {site:?} {count} of `{query}`"),
            })),
            FaultKind::Panic => panic!("injected panic at {site:?} {count} of `{query}`"),
            FaultKind::Delay(pause) => {
                // Sleep in short slices so a cancellation or deadline
                // expiry arriving mid-delay is still observed promptly by
                // the following limit check instead of waiting out the
                // whole pause.
                let mut remaining = *pause;
                while !remaining.is_zero() && self.check().is_ok() {
                    let slice = remaining.min(Duration::from_millis(5));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
                Ok(())
            }
            FaultKind::Cancel => {
                self.cancel();
                Ok(())
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<QueryGovernor>>> = const { RefCell::new(None) };
}

/// RAII registration of the governor consulted by [`checkpoint_chunk`] /
/// [`checkpoint_node`] on the current thread. The executors enter a scope
/// per worker thread (and per serial execution); dropping restores the
/// previous registration, so nested governed executions behave.
#[derive(Debug)]
pub struct GovernorScope {
    previous: Option<Arc<QueryGovernor>>,
}

impl GovernorScope {
    /// Register `governor` (possibly none) as the current thread's governor.
    pub fn enter(governor: Option<Arc<QueryGovernor>>) -> GovernorScope {
        GovernorScope {
            previous: CURRENT.with(|cell| cell.replace(governor)),
        }
    }
}

impl Drop for GovernorScope {
    fn drop(&mut self) {
        CURRENT.with(|cell| {
            *cell.borrow_mut() = self.previous.take();
        });
    }
}

/// The governor registered on the current thread, if any.
pub fn current() -> Option<Arc<QueryGovernor>> {
    CURRENT.with(|cell| cell.borrow().clone())
}

/// Run `check` against the current thread's governor, unwinding with the
/// violation as payload; a no-op when no governor is registered.
#[inline]
fn with_current(check: impl FnOnce(&QueryGovernor) -> Result<(), ExecError>) {
    let violation = CURRENT.with(|cell| match cell.borrow().as_ref() {
        Some(governor) => check(governor).err(),
        None => None,
    });
    if let Some(error) = violation {
        panic::panic_any(error);
    }
}

/// Chunk-boundary checkpoint, called by every operator loop once per
/// decoded chunk. Nearly free without a governor (one thread-local read).
#[inline]
pub fn checkpoint_chunk() {
    with_current(|governor| governor.on_checkpoint(FaultSite::Chunk));
}

/// Node-boundary checkpoint, called by `execute_node` once per plan node.
#[inline]
pub fn checkpoint_node() {
    with_current(|governor| governor.on_checkpoint(FaultSite::Node));
}

/// Charge one materialised intermediate to the current query's memory
/// budget (no-op without a governor).
#[inline]
pub(crate) fn charge_materialized(bytes: usize) {
    with_current(|governor| governor.add_materialized(bytes));
}

/// Raise the current query's transient high-water mark — a pairwise carry
/// buffer or a join key table (no-op without a governor).
#[inline]
pub(crate) fn charge_transient(bytes: usize) {
    with_current(|governor| governor.note_transient(bytes));
}

/// Recover a structured [`ExecError`] from a caught panic payload;
/// `Err` returns the payload untouched when it is neither an `ExecError`
/// nor a [`DecodeError`].
pub fn error_from_panic(
    payload: Box<dyn std::any::Any + Send>,
) -> Result<ExecError, Box<dyn std::any::Any + Send>> {
    let payload = match payload.downcast::<ExecError>() {
        Ok(error) => return Ok(*error),
        Err(payload) => payload,
    };
    match payload.downcast::<DecodeError>() {
        Ok(decode) => Ok(ExecError::Decode(*decode)),
        Err(payload) => Err(payload),
    }
}

static SILENT_UNWIND_HOOK: std::sync::Once = std::sync::Once::new();

/// Install (once, process-wide) a panic hook that stays silent for
/// governance unwinds: an [`ExecError`] payload is control flow — raised
/// only at governor checkpoints and recovered into a `Result` by
/// [`run_governed`] — so the default hook's "thread panicked" backtrace
/// would spam stderr on every cancelled or deadline-expired query. Every
/// other panic (including [`DecodeError`] payloads, which can legitimately
/// escape through the infallible decode paths and then deserve a trace) is
/// delegated to the previously installed hook.
fn install_silent_unwind_hook() {
    SILENT_UNWIND_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ExecError>() {
                previous(info);
            }
        }));
    });
}

/// Run `f`, converting a governance or decode unwind into `Err` and
/// resuming any other panic unchanged — the shared core of the executors'
/// `try_execute` entry points.
pub fn run_governed<R>(f: impl FnOnce() -> R) -> Result<R, ExecError> {
    install_silent_unwind_hook();
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => match error_from_panic(payload) {
            Ok(error) => Err(error),
            Err(other) => panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_passes_checks() {
        let governor = QueryGovernor::new();
        assert!(governor.check().is_ok());
        assert!(!governor.is_cancelled());
        assert_eq!(governor.used_bytes(), 0);
    }

    #[test]
    fn cancel_is_observed() {
        let governor = QueryGovernor::new();
        governor.cancel();
        assert_eq!(governor.check(), Err(ExecError::Cancelled));
    }

    #[test]
    fn deadline_is_observed() {
        let governor = QueryGovernor::new().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        match governor.check() {
            Err(ExecError::DeadlineExceeded { deadline, elapsed }) => {
                assert_eq!(deadline, Duration::ZERO);
                assert!(elapsed > Duration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memory_budget_covers_materialized_and_transient() {
        let governor = QueryGovernor::new().with_memory_budget(100);
        assert!(governor.add_materialized(60).is_ok());
        assert!(governor.note_transient(30).is_ok());
        assert_eq!(governor.used_bytes(), 90);
        // The transient charge is a high-water mark, not a sum.
        assert!(governor.note_transient(20).is_ok());
        assert_eq!(governor.used_bytes(), 90);
        match governor.add_materialized(20) {
            Err(ExecError::MemoryExceeded {
                used_bytes,
                budget_bytes,
            }) => {
                assert_eq!(used_bytes, 110);
                assert_eq!(budget_bytes, 100);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checkpoints_without_scope_are_noops() {
        checkpoint_chunk();
        checkpoint_node();
    }

    #[test]
    fn scope_registers_and_restores() {
        assert!(current().is_none());
        let governor = Arc::new(QueryGovernor::new());
        {
            let _scope = GovernorScope::enter(Some(governor.clone()));
            assert!(Arc::ptr_eq(&current().expect("registered"), &governor));
            checkpoint_chunk();
            checkpoint_node();
            {
                let inner = Arc::new(QueryGovernor::new());
                let _nested = GovernorScope::enter(Some(inner.clone()));
                assert!(Arc::ptr_eq(&current().expect("nested"), &inner));
            }
            assert!(Arc::ptr_eq(&current().expect("restored"), &governor));
        }
        assert!(current().is_none());
        assert_eq!(governor.chunk_checkpoints(), 1);
        assert_eq!(governor.node_checkpoints(), 1);
    }

    #[test]
    fn cancelled_checkpoint_unwinds_with_structured_payload() {
        let governor = Arc::new(QueryGovernor::new());
        governor.cancel();
        let result = {
            let _scope = GovernorScope::enter(Some(governor));
            run_governed(|| {
                checkpoint_chunk();
                unreachable!("checkpoint must unwind")
            })
        };
        assert_eq!(result, Err(ExecError::Cancelled));
    }

    #[test]
    fn decode_panics_convert_and_foreign_panics_resume() {
        let decode = DecodeError::CorruptHeader {
            format: "rle",
            detail: "zero run length".to_string(),
        };
        let result = run_governed(|| -> () {
            panic::panic_any(decode.clone());
        });
        assert_eq!(result, Err(ExecError::Decode(decode)));

        let foreign = panic::catch_unwind(|| {
            let _ = run_governed(|| -> () { panic!("a genuine bug") });
        });
        let payload = foreign.expect_err("foreign panic must resume");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a genuine bug"));
    }

    #[test]
    fn display_is_informative() {
        assert!(ExecError::Cancelled.to_string().contains("cancelled"));
        let text = ExecError::DeadlineExceeded {
            deadline: Duration::from_millis(5),
            elapsed: Duration::from_millis(9),
        }
        .to_string();
        assert!(text.contains("deadline"), "{text}");
        let text = ExecError::MemoryExceeded {
            used_bytes: 2048,
            budget_bytes: 1024,
        }
        .to_string();
        assert!(text.contains("2048") && text.contains("1024"), "{text}");
    }
}
