//! Admission control for the multi-tenant query service.
//!
//! Replay is CPU-bound, so a serving deployment protects itself at the
//! door rather than at the worker pool: per-tenant token buckets bound
//! sustained submission rates, per-tenant concurrent-job limits keep one
//! tenant from monopolizing the scheduler, a global queue-depth cap
//! bounds memory, and backlog shedding — estimated as
//! `queued_jobs × p50(scheduler.job_ns)` from the live metrics — refuses
//! work that would sit in the queue longer than the configured budget.
//! Every rejection is a one-line protocol error to exactly one client;
//! admitted jobs are never preempted.

use crate::scheduler::ReplayScheduler;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// Longest tenant name the `tenant` verb accepts, in bytes.
pub const MAX_TENANT_NAME_BYTES: usize = 64;

/// Distinct tenant names one process will register. Any peer may send
/// `tenant <x>`, and every new name costs two leaked metric names
/// (`flor_obs::metrics::{counter_named, histogram_named}`) and an
/// [`AdmissionController`] map entry for the life of the process.
pub const MAX_TENANTS: usize = 1024;

static KNOWN_TENANTS: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Checks a tenant name a peer sent and counts it against
/// [`MAX_TENANTS`]; `Err` is the protocol line to answer with, and
/// nothing was registered. A name already known is always accepted.
pub(crate) fn register_tenant(name: &str) -> Result<(), String> {
    if name.len() > MAX_TENANT_NAME_BYTES {
        return Err(format!(
            "bad tenant: name over {MAX_TENANT_NAME_BYTES} bytes"
        ));
    }
    let charset_ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if name.is_empty() || !charset_ok {
        return Err(format!("bad tenant {name:?} (alphanumeric, '-', '_' only)"));
    }
    let mut known = KNOWN_TENANTS
        .lock()
        .expect("no holder of the tenant table panics");
    if !known.contains(name) {
        if known.len() >= MAX_TENANTS {
            return Err("error: too many tenants".into());
        }
        known.insert(name.to_string());
    }
    Ok(())
}

/// Limits enforced by `AdmissionController::try_admit`. Zero disables
/// the corresponding check, so [`AdmissionPolicy::unlimited`] admits
/// everything — the stdin serve mode's byte-compatible default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum jobs waiting in the scheduler queue (0 = unlimited).
    pub max_queue_depth: usize,
    /// Maximum non-terminal jobs per tenant (0 = unlimited).
    pub max_tenant_jobs: usize,
    /// Token-bucket capacity per tenant: a tenant may burst this many
    /// submissions before the refill rate gates it (0 = unlimited).
    pub tenant_burst: u64,
    /// Token-bucket refill, tokens per second (with `tenant_burst > 0`).
    pub tenant_refill_per_sec: f64,
    /// Estimated queue backlog budget, ms: submissions are shed while
    /// `queued × p50(scheduler.job_ns)` exceeds it (0 = unlimited). Falls
    /// back to `replay.restore_ns`'s p50 before any job has completed,
    /// and admits when neither histogram has samples yet.
    pub max_backlog_ms: u64,
}

impl AdmissionPolicy {
    /// Admit everything (every limit disabled).
    pub fn unlimited() -> AdmissionPolicy {
        AdmissionPolicy {
            max_queue_depth: 0,
            max_tenant_jobs: 0,
            tenant_burst: 0,
            tenant_refill_per_sec: 0.0,
            max_backlog_ms: 0,
        }
    }
}

struct TenantState {
    tokens: f64,
    last_refill_ns: u64,
    active_jobs: usize,
}

/// Enforces an [`AdmissionPolicy`] over the tenants of one server.
pub struct AdmissionController {
    policy: AdmissionPolicy,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl AdmissionController {
    /// A controller enforcing `policy`.
    pub fn new(policy: AdmissionPolicy) -> AdmissionController {
        AdmissionController {
            policy,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Decides one submission from `tenant`. `Ok(())` consumes a token
    /// and claims a job slot — pair every success with exactly one
    /// [`AdmissionController::release`] when the job goes terminal.
    /// `Err` carries the one-line protocol reason; nothing is consumed.
    pub(crate) fn try_admit(
        &self,
        tenant: &str,
        scheduler: &ReplayScheduler,
    ) -> Result<(), String> {
        let queued = scheduler.queued_depth();
        if self.policy.max_queue_depth > 0 && queued >= self.policy.max_queue_depth {
            self.count_shed(tenant);
            return Err(format!(
                "admission denied: queue depth {queued} at limit {}",
                self.policy.max_queue_depth
            ));
        }
        if self.policy.max_backlog_ms > 0 {
            if let Some(est_ms) = backlog_estimate_ms(queued) {
                if est_ms > self.policy.max_backlog_ms {
                    self.count_shed(tenant);
                    return Err(format!(
                        "admission denied: estimated backlog {est_ms}ms over limit {}ms",
                        self.policy.max_backlog_ms
                    ));
                }
            }
        }
        let mut tenants = self.tenants.lock().unwrap();
        let now = flor_obs::clock::now_ns();
        let state = tenants.entry(tenant.to_string()).or_insert(TenantState {
            tokens: self.policy.tenant_burst as f64,
            last_refill_ns: now,
            active_jobs: 0,
        });
        if self.policy.max_tenant_jobs > 0 && state.active_jobs >= self.policy.max_tenant_jobs {
            drop(tenants);
            self.count_shed(tenant);
            return Err(format!(
                "admission denied: tenant {tenant:?} at concurrent-job limit {}",
                self.policy.max_tenant_jobs
            ));
        }
        if self.policy.tenant_burst > 0 {
            let elapsed_s = now.saturating_sub(state.last_refill_ns) as f64 / 1e9;
            state.tokens = (state.tokens + elapsed_s * self.policy.tenant_refill_per_sec)
                .min(self.policy.tenant_burst as f64);
            state.last_refill_ns = now;
            if state.tokens < 1.0 {
                drop(tenants);
                self.count_shed(tenant);
                return Err(format!(
                    "admission denied: tenant {tenant:?} out of tokens (refill {}/s)",
                    self.policy.tenant_refill_per_sec
                ));
            }
            state.tokens -= 1.0;
        }
        state.active_jobs += 1;
        Ok(())
    }

    /// Returns the job slot claimed by a successful
    /// `AdmissionController::try_admit`.
    pub fn release(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(state) = tenants.get_mut(tenant) {
            state.active_jobs = state.active_jobs.saturating_sub(1);
        }
    }

    fn count_shed(&self, tenant: &str) {
        flor_obs::counter!("serve.shed").inc();
        if !tenant.is_empty() {
            flor_obs::metrics::counter_named(&format!("tenant.{tenant}.shed")).inc();
        }
    }
}

/// Estimated time for the current queue to drain, ms — `queued` jobs at
/// the live p50 of `scheduler.job_ns` (falling back to
/// `replay.restore_ns` before the first job completes). `None` when
/// neither histogram has samples: with no evidence, admit.
fn backlog_estimate_ms(queued: usize) -> Option<u64> {
    for name in ["scheduler.job_ns", "replay.restore_ns"] {
        let snap = flor_obs::metrics::histogram_named(name).snapshot(name);
        if snap.count > 0 {
            return Some((queued as u64).saturating_mul(snap.p50_ns) / 1_000_000);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Registry;
    use std::sync::Arc;

    fn test_sched(tag: &str) -> (Arc<Registry>, ReplayScheduler) {
        let root = std::env::temp_dir().join(format!(
            "flor-admission-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let reg = Arc::new(Registry::open(&root).unwrap());
        let sched = ReplayScheduler::new(reg.clone(), 1);
        (reg, sched)
    }

    #[test]
    fn unlimited_policy_admits_everything() {
        let (_reg, sched) = test_sched("unlimited");
        let ctl = AdmissionController::new(AdmissionPolicy::unlimited());
        for _ in 0..100 {
            ctl.try_admit("anyone", &sched).unwrap();
        }
        assert_eq!(ctl.tenants.lock().unwrap()["anyone"].active_jobs, 100);
    }

    #[test]
    fn concurrent_job_limit_frees_on_release() {
        let (_reg, sched) = test_sched("slots");
        let ctl = AdmissionController::new(AdmissionPolicy {
            max_tenant_jobs: 2,
            ..AdmissionPolicy::unlimited()
        });
        ctl.try_admit("a", &sched).unwrap();
        ctl.try_admit("a", &sched).unwrap();
        let err = ctl.try_admit("a", &sched).unwrap_err();
        assert!(err.contains("concurrent-job limit"), "{err}");
        // Another tenant is unaffected.
        ctl.try_admit("b", &sched).unwrap();
        ctl.release("a");
        ctl.try_admit("a", &sched).unwrap();
    }

    #[test]
    fn token_bucket_bounds_burst() {
        let (_reg, sched) = test_sched("tokens");
        let ctl = AdmissionController::new(AdmissionPolicy {
            tenant_burst: 3,
            tenant_refill_per_sec: 1000.0,
            ..AdmissionPolicy::unlimited()
        });
        for _ in 0..3 {
            ctl.try_admit("t", &sched).unwrap();
        }
        let err = ctl.try_admit("t", &sched).unwrap_err();
        assert!(err.contains("out of tokens"), "{err}");
        // Refill at 1000/s: a few ms restores a token.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ctl.try_admit("t", &sched).unwrap();
    }

    #[test]
    fn queue_depth_cap_checks_live_depth() {
        let (_reg, sched) = test_sched("depth");
        let ctl = AdmissionController::new(AdmissionPolicy {
            max_queue_depth: 1,
            ..AdmissionPolicy::unlimited()
        });
        // Queue is empty: admitted (depth check reads the scheduler).
        ctl.try_admit("t", &sched).unwrap();
    }
}
