//! Deterministic fault injection for governance testing.
//!
//! A [`FaultPlan`] decides, per *occurrence* of a named query, whether to
//! arm one fault and where: at the N-th chunk or node checkpoint (the same
//! checkpoints [`govern`](crate::govern) already pays for). The decision is
//! a pure hash of `(seed, query name, occurrence index)`, so a run is
//! reproducible regardless of how the server's worker threads interleave —
//! as long as each query name is submitted in a deterministic per-name
//! order, the same occurrences fault in every run.
//!
//! Armed faults are carried by the query's
//! [`QueryGovernor`](crate::govern::QueryGovernor) and trigger at most
//! once, inside a checkpoint (a governor without an armed fault pays one
//! branch per checkpoint, no lock):
//!
//! * [`FaultKind::Decode`] unwinds with a structured
//!   [`DecodeError`](morph_compression::DecodeError) (surfaces as
//!   `ExecError::Decode`),
//! * [`FaultKind::Panic`] raises a plain engine panic (exercises the
//!   server's panic containment),
//! * [`FaultKind::Delay`] sleeps, pushing the query toward its deadline,
//! * [`FaultKind::Cancel`] flips the governor's cancellation token —
//!   the deterministic stand-in for a client cancelling mid-plan.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Which checkpoint family a fault triggers at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The N-th chunk-boundary checkpoint of the query.
    Chunk,
    /// The N-th node-boundary checkpoint of the query.
    Node,
}

/// What an armed fault does when its checkpoint comes due.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a structured corrupt-header [`DecodeError`](morph_compression::DecodeError).
    Decode,
    /// Raise a plain panic (a stand-in for an engine bug).
    Panic,
    /// Sleep for the given duration, then continue.
    Delay(Duration),
    /// Flip the query's cancellation token.
    Cancel,
}

/// One fault armed against one query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmedFault {
    /// Checkpoint family the fault triggers at.
    pub site: FaultSite,
    /// 1-based checkpoint index at (or past) which the fault fires.
    pub at: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// The query name the fault was armed for (diagnostics).
    pub query: String,
}

/// How long a seeded [`FaultKind::Delay`] pauses the query.
pub const INJECTED_DELAY: Duration = Duration::from_millis(2);

/// A deterministic, seeded schedule of faults over named queries.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rate_percent: u64,
    occurrences: Mutex<HashMap<String, u64>>,
    targeted: Mutex<HashMap<String, ArmedFault>>,
    armed: AtomicU64,
}

impl FaultPlan {
    /// A plan that faults roughly `rate_percent`% of query occurrences,
    /// chosen by a pure hash of `(seed, query name, occurrence index)`.
    pub fn seeded(seed: u64, rate_percent: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate_percent: rate_percent.min(100),
            ..FaultPlan::default()
        }
    }

    /// A plan that faults nothing until faults are added with
    /// [`FaultPlan::inject`].
    pub fn targeted() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `kind` at the `at`-th checkpoint of `site` for **every**
    /// occurrence of `query` (targeted mode; overrides any seeded
    /// decision for that query).
    pub fn inject(&self, query: &str, site: FaultSite, at: u64, kind: FaultKind) {
        self.targeted.lock().expect("targeted faults lock").insert(
            query.to_string(),
            ArmedFault {
                site,
                at: at.max(1),
                kind,
                query: query.to_string(),
            },
        );
    }

    /// Decide the fault (if any) for the next occurrence of `query`.
    /// Called once per execution, when the query's governor is built.
    pub fn arm(&self, query: &str) -> Option<ArmedFault> {
        let occurrence = {
            let mut occurrences = self.occurrences.lock().expect("occurrence lock");
            let slot = occurrences.entry(query.to_string()).or_insert(0);
            *slot += 1;
            *slot
        };
        if let Some(fault) = self
            .targeted
            .lock()
            .expect("targeted faults lock")
            .get(query)
        {
            self.armed.fetch_add(1, Ordering::Relaxed);
            return Some(fault.clone());
        }
        if self.rate_percent == 0 {
            return None;
        }
        let h = mix(self.seed ^ hash_name(query) ^ mix(occurrence));
        if h % 100 >= self.rate_percent {
            return None;
        }
        // Chunk faults dominate (they exercise mid-operator unwinding);
        // every fourth fault lands on a node boundary instead.
        let (site, at) = if (h >> 16).is_multiple_of(4) {
            (FaultSite::Node, 1 + (h >> 24) % 6)
        } else {
            (FaultSite::Chunk, 1 + (h >> 24) % 64)
        };
        let kind = match (h >> 8) % 3 {
            0 => FaultKind::Decode,
            1 => FaultKind::Panic,
            _ => FaultKind::Delay(INJECTED_DELAY),
        };
        self.armed.fetch_add(1, Ordering::Relaxed);
        Some(ArmedFault {
            site,
            at,
            kind,
            query: query.to_string(),
        })
    }

    /// How many faults this plan has armed so far.
    pub fn armed_count(&self) -> u64 {
        self.armed.load(Ordering::Relaxed)
    }
}

/// `splitmix64` finaliser — the same deterministic mixer the vendored
/// `rand` shim uses; good enough bit diffusion for fault scheduling.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the query name, folded through the mixer.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_decisions_are_deterministic_per_occurrence() {
        let a = FaultPlan::seeded(42, 10);
        let b = FaultPlan::seeded(42, 10);
        let decisions_a: Vec<_> = (0..200).map(|_| a.arm("q1")).collect();
        let decisions_b: Vec<_> = (0..200).map(|_| b.arm("q1")).collect();
        assert_eq!(decisions_a, decisions_b);
        let armed = decisions_a.iter().flatten().count();
        // ~10% of 200 occurrences; the exact count is seed-determined.
        assert!((5..=40).contains(&armed), "armed {armed} of 200");
        assert_eq!(a.armed_count(), armed as u64);
    }

    #[test]
    fn rate_zero_never_faults_and_rate_hundred_always_faults() {
        let never = FaultPlan::seeded(7, 0);
        assert!((0..50).all(|_| never.arm("q").is_none()));
        let always = FaultPlan::seeded(7, 100);
        assert!((0..50).all(|_| always.arm("q").is_some()));
    }

    #[test]
    fn targeted_faults_override_seeded_decisions() {
        let plan = FaultPlan::seeded(1, 0);
        plan.inject("q3", FaultSite::Chunk, 5, FaultKind::Cancel);
        let armed = plan.arm("q3").expect("targeted fault armed");
        assert_eq!(armed.site, FaultSite::Chunk);
        assert_eq!(armed.at, 5);
        assert_eq!(armed.kind, FaultKind::Cancel);
        // Every occurrence of the targeted query is armed.
        assert!(plan.arm("q3").is_some());
        assert!(plan.arm("other").is_none());
    }

    #[test]
    fn different_names_get_independent_schedules() {
        let plan = FaultPlan::seeded(9, 50);
        let a: Vec<bool> = (0..64).map(|_| plan.arm("alpha").is_some()).collect();
        let b: Vec<bool> = (0..64).map(|_| plan.arm("beta").is_some()).collect();
        assert_ne!(a, b);
    }
}
