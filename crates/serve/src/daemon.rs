//! In-process work-queue serving daemon.
//!
//! The daemon fronts [`ModelRegistry`] + `SynCircuit::generate_one`
//! with the things a batch pipeline lacks:
//!
//! 1. **Admission control** — the request queue is bounded; a
//!    submission past the high-water mark is rejected immediately with
//!    [`ServeError::Overloaded`] instead of buffering without bound.
//!    Callers see backpressure as a typed error, never a deadlock or an
//!    OOM.
//! 2. **Tenant fairness** — queued work lives in per-tenant lanes and
//!    workers drain them round-robin, so one tenant flooding the queue
//!    delays its own backlog, not everyone else's.
//! 3. **Crash-free shutdown** — [`Daemon::shutdown`] stops admitting,
//!    drains every queued job, joins the workers, and fails any job
//!    that could never run (no workers configured) with
//!    [`ServeError::ShuttingDown`]; no ticket is ever left hanging.
//! 4. **Request coalescing** — generation is a pure function of
//!    `(artifact, request)`, so identical explicitly seeded submissions
//!    from one tenant share one execution. A duplicate that arrives
//!    while its leader is queued or running attaches to it (a
//!    *coalesce hit*) without touching the queue, so it can never be
//!    `Overloaded`; every attached waiter gets the same outcome. The
//!    worker detaches the key before resolving, so a later duplicate
//!    runs fresh: coalescing is a concurrency optimisation, not a
//!    response cache. Unseeded requests draw fresh entropy per run and
//!    always pass straight through.
//! 5. **Fault isolation** — a request whose deadline passed while
//!    queued is shed with [`ServeError::DeadlineExceeded`] without
//!    occupying a worker; a panic while serving is caught at the job
//!    boundary and fails only that request
//!    ([`ServeError::WorkerPanicked`]) with the worker loop restarting
//!    in place; poisoned queue and ticket locks are recovered (state
//!    re-validated) instead of cascading the panic to every caller.
//!
//! Everything is std-only: scoped ownership via `Arc`, a `Mutex` +
//! `Condvar` work queue, and plain `std::thread` workers. Serving is
//! deterministic end to end — a [`GenRequest`] with an explicit seed
//! produces the same design whether it ran through the daemon or
//! directly against a freshly loaded model (property-tested in
//! `tests/registry_equivalence.rs`), and fault injection
//! ([`Daemon::start_with_faults`]) keys every decision on request
//! seeds, never on thread schedule.

use crate::error::ServeError;
use crate::fault::{FaultInjector, JobFault, NoFaults, INJECTED_PANIC_MARK};
use crate::registry::{ModelRegistry, QuarantinePolicy, RegistryBudget};
use crate::retry::RetryPolicy;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use syncircuit_core::{GenRequest, Generated};

/// Configuration of a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Worker threads serving the queue. `0` runs the daemon in
    /// admission-only mode (jobs queue but never execute until
    /// shutdown fails them) — useful for testing admission control
    /// and scheduling order deterministically.
    pub workers: usize,
    /// High-water mark of the request queue: submissions while this
    /// many jobs are queued are rejected with
    /// [`ServeError::Overloaded`]. Must be at least 1.
    pub queue_capacity: usize,
    /// Residency budget of the daemon's model registry.
    pub budget: RegistryBudget,
    /// Retry policy for transient artifact-read failures (see
    /// [`RetryPolicy`]); backoff jitter is seeded per request, so
    /// replays are deterministic.
    pub retry: RetryPolicy,
    /// Quarantine policy for artifacts that repeatedly fail to parse
    /// (see [`QuarantinePolicy`]).
    pub quarantine: QuarantinePolicy,
}

impl Default for DaemonConfig {
    /// One worker per available core, a 1024-deep queue, an unlimited
    /// registry, and the default retry/quarantine policies.
    fn default() -> Self {
        DaemonConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 1024,
            budget: RegistryBudget::unlimited(),
            retry: RetryPolicy::default(),
            quarantine: QuarantinePolicy::default(),
        }
    }
}

/// Counters reported by [`Daemon::shutdown`] and [`Daemon::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Requests admitted and resolved by a worker — successfully, with
    /// a model error, or with a typed resilience error (expired and
    /// panicked jobs resolve too; they are also counted below).
    pub served: u64,
    /// Submissions rejected at admission (overload or shutdown).
    pub rejected: u64,
    /// Jobs currently queued (always 0 after shutdown).
    pub queued: usize,
    /// Jobs shed at the worker because their deadline passed while
    /// queued ([`ServeError::DeadlineExceeded`]).
    pub expired: u64,
    /// Jobs failed by an isolated worker panic
    /// ([`ServeError::WorkerPanicked`]).
    pub panicked: u64,
    /// Submissions that attached to an identical queued or running
    /// job instead of queueing their own (see the module docs).
    pub coalesce_hits: u64,
    /// Submissions admitted as a job of their own: the leader of a
    /// (possibly singleton) identical group, or an unseeded request.
    pub coalesce_misses: u64,
}

/// Receives the outcome of one submission. Called exactly once, by the
/// worker that resolved the job (or by shutdown), and never while a
/// daemon lock is held; it must not block.
pub(crate) type Waiter = Box<dyn FnOnce(Result<Generated, ServeError>) + Send>;

/// One queued generation job.
struct Job {
    model: String,
    request: GenRequest,
    /// Absolute expiry, resolved from the request's time budget at
    /// admission.
    deadline: Option<Instant>,
    /// The request's explicit seed (0 when unseeded): the key every
    /// deterministic fault-injection decision derives from.
    seed_hint: u64,
    /// Coalescing key of an explicitly seeded job; while the job is in
    /// flight, [`Queues::inflight`] holds the waiters attached to it.
    key: Option<String>,
    /// The submitter's waiter (attached duplicates live in the map).
    waiters: Vec<Waiter>,
}

/// The rendezvous cell a [`Ticket`] waits on.
struct TicketShared {
    result: Mutex<Option<Result<Generated, ServeError>>>,
    cv: Condvar,
}

impl TicketShared {
    /// Locks the result cell, recovering a poisoned lock: the cell is a
    /// plain `Option` write, so a panic mid-update cannot leave it
    /// inconsistent.
    fn lock_result(&self) -> MutexGuard<'_, Option<Result<Generated, ServeError>>> {
        lock_recovering(&self.result)
    }
}

/// A handle to one admitted request; redeem it with [`Ticket::wait`] or
/// [`Ticket::wait_timeout`].
#[must_use = "an unredeemed ticket discards the response"]
pub struct Ticket {
    slot: Arc<TicketShared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the daemon has served (or failed) the request and
    /// returns the outcome. Every admitted ticket resolves: workers
    /// fill it on completion, and shutdown fails stranded jobs with
    /// [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Generated, ServeError> {
        let mut guard = self.slot.lock_result();
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = match self.slot.cv.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => {
                    self.slot.result.clear_poison();
                    poisoned.into_inner()
                }
            };
        }
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`. On timeout
    /// the (still unredeemed) ticket is handed back so the caller can
    /// keep waiting or drop it — the daemon still resolves the slot, so
    /// a timed-out wait never leaks a hung job.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when `timeout` elapsed without an outcome.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Generated, ServeError>, Ticket> {
        let give_up = Instant::now() + timeout;
        let mut guard = self.slot.lock_result();
        loop {
            if let Some(outcome) = guard.take() {
                return Ok(outcome);
            }
            let now = Instant::now();
            if now >= give_up {
                drop(guard);
                return Err(self);
            }
            guard = match self.slot.cv.wait_timeout(guard, give_up - now) {
                Ok((g, _)) => g,
                Err(poisoned) => {
                    self.slot.result.clear_poison();
                    poisoned.into_inner().0
                }
            };
        }
    }
}

/// Per-tenant lanes drained round-robin. Lanes are kept in first-seen
/// tenant order (never removed), so the scheduling order is a pure
/// function of the submission sequence — deterministic and testable.
#[derive(Default)]
struct Queues {
    lanes: Vec<(String, VecDeque<Job>)>,
    cursor: usize,
    queued: usize,
    shutting_down: bool,
    /// Waiters attached to each queued or running seeded job, by key.
    inflight: HashMap<String, Vec<Waiter>>,
}

impl Queues {
    fn push(&mut self, tenant: &str, job: Job) {
        match self.lanes.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, lane)) => lane.push_back(job),
            None => {
                let mut lane = VecDeque::new();
                lane.push_back(job);
                self.lanes.push((tenant.to_string(), lane));
            }
        }
        self.queued += 1;
    }

    /// Pops the next job round-robin, starting at the lane after the
    /// previously drained one and skipping empty lanes.
    fn pop_round_robin(&mut self) -> Option<Job> {
        if self.queued == 0 {
            return None;
        }
        let n = self.lanes.len();
        for offset in 0..n {
            let idx = (self.cursor + offset) % n;
            if let Some(job) = self.lanes[idx].1.pop_front() {
                self.cursor = (idx + 1) % n;
                self.queued -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Re-derives the cached queue depth from the lanes themselves —
    /// run after recovering a poisoned lock, where a panic may have
    /// struck between a lane mutation and the counter update.
    fn revalidate(&mut self) {
        self.queued = self.lanes.iter().map(|(_, lane)| lane.len()).sum();
    }

    /// Takes `job` out of coalescing: once its key leaves the map no
    /// duplicate can attach, and the attached waiters join the job's.
    fn detach(&mut self, job: &mut Job) {
        if let Some(followers) = job.key.as_ref().and_then(|key| self.inflight.remove(key)) {
            job.waiters.extend(followers);
        }
    }
}

/// The canonical coalescing key. `GenRequest`'s wire encoding is
/// canonical (fixed field order, deadline as millis), so textual
/// equality here is semantic equality of the whole submission.
fn key_of(tenant: &str, artifact: &str, request: &GenRequest) -> String {
    let body = serde_json::to_string(&request.serialize())
        .expect("canonical request encodings always render");
    format!("{tenant}\u{0}{artifact}\u{0}{body}")
}

/// Hands `outcome` to every waiter: clones to all but the first, which
/// gets the original.
fn resolve(waiters: Vec<Waiter>, outcome: Result<Generated, ServeError>) {
    let mut waiters = waiters.into_iter();
    let Some(first) = waiters.next() else {
        return;
    };
    for waiter in waiters {
        waiter(outcome.clone());
    }
    first(outcome);
}

struct Shared {
    queues: Mutex<Queues>,
    work_cv: Condvar,
    registry: ModelRegistry,
    injector: Arc<dyn FaultInjector>,
    queue_capacity: usize,
    served: std::sync::atomic::AtomicU64,
    rejected: std::sync::atomic::AtomicU64,
    expired: std::sync::atomic::AtomicU64,
    panicked: std::sync::atomic::AtomicU64,
    coalesce_hits: std::sync::atomic::AtomicU64,
    coalesce_misses: std::sync::atomic::AtomicU64,
}

impl Shared {
    /// Locks the queues, recovering (and re-validating) a poisoned
    /// lock: a worker that panicked while holding it cannot take the
    /// whole daemon down.
    fn lock_queues(&self) -> MutexGuard<'_, Queues> {
        self.queues
            .lock()
            .unwrap_or_else(|poisoned| self.recover_queues(poisoned))
    }

    fn recover_queues<'a>(
        &'a self,
        poisoned: PoisonError<MutexGuard<'a, Queues>>,
    ) -> MutexGuard<'a, Queues> {
        self.queues.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.revalidate();
        guard
    }
}

/// The serving daemon (see the module docs).
pub struct Daemon {
    shared: Arc<Shared>,
    /// Taken (and joined) by the first [`Daemon::drain`].
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("workers", &lock_recovering(&self.workers).len())
            .field("queue_capacity", &self.shared.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Starts the daemon: spawns `config.workers` worker threads over a
    /// fresh registry with `config.budget`, with no fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is 0 (a daemon that admits
    /// nothing is a misconfiguration, not a serving policy).
    pub fn start(config: DaemonConfig) -> Self {
        Self::start_with_faults(config, Arc::new(NoFaults))
    }

    /// Starts the daemon with a fault injector wired into the
    /// registry's artifact-read seam and the worker's job boundary.
    /// Production code uses [`Daemon::start`] ([`NoFaults`]); chaos
    /// tests pass a seeded [`crate::FaultPlan`].
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is 0.
    pub fn start_with_faults(config: DaemonConfig, injector: Arc<dyn FaultInjector>) -> Self {
        assert!(config.queue_capacity > 0, "queue_capacity must be at least 1");
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues::default()),
            work_cv: Condvar::new(),
            registry: ModelRegistry::with_resilience(
                config.budget,
                config.retry,
                config.quarantine,
                injector.clone(),
            ),
            injector,
            queue_capacity: config.queue_capacity,
            served: std::sync::atomic::AtomicU64::new(0),
            rejected: std::sync::atomic::AtomicU64::new(0),
            expired: std::sync::atomic::AtomicU64::new(0),
            panicked: std::sync::atomic::AtomicU64::new(0),
            coalesce_hits: std::sync::atomic::AtomicU64::new(0),
            coalesce_misses: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("syncircuit-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Daemon {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a generation request on behalf of `tenant` against the
    /// model artifact at `model_path`. Returns immediately with a
    /// [`Ticket`] on admission. A request with a time budget
    /// ([`GenRequest::deadline`]) is stamped with its absolute deadline
    /// here, at admission. An explicitly seeded request identical to
    /// one already queued or running attaches to it instead of
    /// queueing (see the module docs).
    ///
    /// # Errors
    ///
    /// - [`ServeError::Overloaded`] when the queue is at its high-water
    ///   mark (the submission is shed, not buffered). A submission that
    ///   attaches to an in-flight job never is.
    /// - [`ServeError::ShuttingDown`] when shutdown has begun.
    pub fn submit(
        &self,
        tenant: &str,
        model_path: &str,
        request: GenRequest,
    ) -> Result<Ticket, ServeError> {
        let slot = Arc::new(TicketShared {
            result: Mutex::new(None),
            cv: Condvar::new(),
        });
        let filled = slot.clone();
        self.submit_with(
            tenant,
            model_path,
            request,
            Box::new(move |outcome| fill(&filled, outcome)),
        )?;
        Ok(Ticket { slot })
    }

    /// [`Daemon::submit`] with a caller-supplied completion: on
    /// admission, `waiter` is called with the outcome exactly once.
    pub(crate) fn submit_with(
        &self,
        tenant: &str,
        model_path: &str,
        request: GenRequest,
        waiter: Waiter,
    ) -> Result<(), ServeError> {
        use std::sync::atomic::Ordering;
        let deadline = request.time_budget().map(|budget| Instant::now() + budget);
        let seed_hint = request.seed().unwrap_or(0);
        // Rendered before taking the lock: the queue lock stays short.
        let key = request.seed().map(|_| key_of(tenant, model_path, &request));
        {
            let mut queues = self.shared.lock_queues();
            if queues.shutting_down {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::ShuttingDown);
            }
            if let Some(attached) = key.as_ref().and_then(|k| queues.inflight.get_mut(k)) {
                attached.push(waiter);
                self.shared.coalesce_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if queues.queued >= self.shared.queue_capacity {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    capacity: self.shared.queue_capacity,
                });
            }
            if let Some(k) = &key {
                queues.inflight.insert(k.clone(), Vec::new());
            }
            queues.push(
                tenant,
                Job {
                    model: model_path.to_string(),
                    request,
                    deadline,
                    seed_hint,
                    key,
                    waiters: vec![waiter],
                },
            );
            self.shared.coalesce_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// The daemon's model registry (for telemetry; e.g. eviction and
    /// quarantine counts under budget or fault pressure).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Current serving counters.
    pub fn stats(&self) -> DaemonStats {
        use std::sync::atomic::Ordering;
        DaemonStats {
            served: self.shared.served.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            queued: self.shared.lock_queues().queued,
            expired: self.shared.expired.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            coalesce_hits: self.shared.coalesce_hits.load(Ordering::Relaxed),
            coalesce_misses: self.shared.coalesce_misses.load(Ordering::Relaxed),
        }
    }

    /// Stops admitting, drains every queued job, joins the workers, and
    /// fails jobs that could never run (admission-only mode) with
    /// [`ServeError::ShuttingDown`]. Returns the final counters.
    pub fn shutdown(self) -> DaemonStats {
        self.drain()
    }

    /// [`Daemon::shutdown`] through a shared reference, for owners that
    /// cannot move the daemon out. Idempotent.
    pub(crate) fn drain(&self) -> DaemonStats {
        self.begin_shutdown();
        // Workers catch every panic (see `worker_loop`), so a join
        // cannot fail.
        for handle in std::mem::take(&mut *lock_recovering(&self.workers)) {
            let _ = handle.join();
        }
        self.fail_stranded();
        self.stats()
    }

    pub(crate) fn begin_shutdown(&self) {
        let mut queues = self.shared.lock_queues();
        queues.shutting_down = true;
        drop(queues);
        self.shared.work_cv.notify_all();
    }

    /// Fails every still-queued job, and everything attached to it,
    /// with [`ServeError::ShuttingDown`]. Running jobs are left to their
    /// workers.
    pub(crate) fn fail_stranded(&self) {
        let mut stranded = Vec::new();
        {
            let mut queues = self.shared.lock_queues();
            while let Some(mut job) = queues.pop_round_robin() {
                queues.detach(&mut job);
                stranded.push(job);
            }
        }
        for job in stranded {
            resolve(job.waiters, Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Daemon {
    /// Safety net for daemons dropped without [`Daemon::shutdown`]:
    /// signals shutdown, joins workers, and resolves stranded tickets
    /// so no waiter blocks forever.
    fn drop(&mut self) {
        self.drain();
    }
}

/// Locks `mutex`, recovering a poisoned lock (for state a panic cannot
/// leave inconsistent).
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

fn fill(slot: &TicketShared, outcome: Result<Generated, ServeError>) {
    let mut guard = slot.lock_result();
    *guard = Some(outcome);
    drop(guard);
    slot.cv.notify_all();
}

/// Renders a caught panic payload for [`ServeError::WorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serves one job: queue-side deadline expiry first (an expired job is
/// shed without touching the registry), then model resolution +
/// generation under `catch_unwind` so a panic — injected or real —
/// fails only this request.
fn serve_job(shared: &Shared, job: &Job) -> Result<Generated, ServeError> {
    use std::sync::atomic::Ordering;
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        shared.expired.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::DeadlineExceeded);
    }
    let seed = job.seed_hint;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if let Some(JobFault::Panic) = shared.injector.job_start(seed) {
            panic!("{INJECTED_PANIC_MARK} (seed {seed})");
        }
        shared
            .registry
            .get_or_load_seeded(&job.model, seed)
            .and_then(|model| model.generate_one(&job.request).map_err(ServeError::Model))
    }));
    match attempt {
        Ok(outcome) => outcome,
        Err(payload) => {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// One pass of the worker: pop → serve → fill, until shutdown. Runs
/// under the respawn guard in [`worker_loop`].
fn serve_loop(shared: &Shared) {
    use std::sync::atomic::Ordering;
    loop {
        let mut job = {
            let mut queues = shared.lock_queues();
            loop {
                if let Some(job) = queues.pop_round_robin() {
                    break job;
                }
                if queues.shutting_down {
                    return; // drained and shutting down
                }
                queues = match shared.work_cv.wait(queues) {
                    Ok(g) => g,
                    Err(poisoned) => shared.recover_queues(poisoned),
                };
            }
        };
        // Serve outside the queue lock: model resolution and generation
        // are the expensive part and must overlap across workers.
        let outcome = serve_job(shared, &job);
        shared.lock_queues().detach(&mut job);
        shared.served.fetch_add(1, Ordering::Relaxed);
        resolve(job.waiters, outcome);
    }
}

/// Worker entry point: respawns [`serve_loop`] in place if a panic ever
/// escapes the per-job `catch_unwind` boundary (e.g. out of the queue
/// bookkeeping itself), so the daemon never silently loses a worker.
fn worker_loop(shared: &Shared) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| serve_loop(shared))).is_ok() {
            return; // orderly shutdown exit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ReadFault;

    fn probe_job(tag: &str) -> Job {
        Job {
            model: tag.to_string(),
            request: GenRequest::nodes(8),
            deadline: None,
            seed_hint: 0,
            key: None,
            waiters: Vec::new(),
        }
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let mut q = Queues::default();
        // Tenant a floods first; b and c trickle in after.
        for i in 0..3 {
            q.push("a", probe_job(&format!("a{i}")));
        }
        q.push("b", probe_job("b0"));
        q.push("c", probe_job("c0"));
        let order: Vec<String> = std::iter::from_fn(|| q.pop_round_robin())
            .map(|j| j.model)
            .collect();
        assert_eq!(order, ["a0", "b0", "c0", "a1", "a2"]);
        assert_eq!(q.queued, 0);
    }

    #[test]
    fn round_robin_resumes_after_refill() {
        let mut q = Queues::default();
        q.push("a", probe_job("a0"));
        q.push("b", probe_job("b0"));
        assert_eq!(q.pop_round_robin().unwrap().model, "a0");
        // New work for a arrives before b is drained; b still goes next.
        q.push("a", probe_job("a1"));
        assert_eq!(q.pop_round_robin().unwrap().model, "b0");
        assert_eq!(q.pop_round_robin().unwrap().model, "a1");
        assert!(q.pop_round_robin().is_none());
    }

    #[test]
    fn admission_rejects_past_high_water_mark() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 2,
            ..DaemonConfig::default()
        });
        let t1 = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        let t2 = daemon.submit("b", "m", GenRequest::nodes(8)).unwrap();
        match daemon.submit("c", "m", GenRequest::nodes(8)) {
            Err(ServeError::Overloaded { capacity: 2 }) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(daemon.stats().rejected, 1);
        assert_eq!(daemon.stats().queued, 2);
        let stats = daemon.shutdown();
        assert_eq!(stats.queued, 0, "shutdown leaves nothing queued");
        for t in [t1, t2] {
            assert_eq!(t.wait().unwrap_err(), ServeError::ShuttingDown);
        }
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        daemon.begin_shutdown();
        match daemon.submit("a", "m", GenRequest::nodes(8)) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn zero_capacity_is_a_misconfiguration() {
        let result = std::panic::catch_unwind(|| {
            Daemon::start(DaemonConfig {
                workers: 0,
                queue_capacity: 0,
                ..DaemonConfig::default()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn drop_without_shutdown_resolves_tickets() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let ticket = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        drop(daemon);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn expired_deadline_is_shed_without_a_model() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        // Zero budget: the deadline has passed by the time a worker
        // pops the job, so the (nonexistent) model is never touched.
        let ticket = daemon
            .submit("a", "/no/such/model.json", GenRequest::nodes(8).deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(
            daemon.registry().stats().load_failures,
            0,
            "expired jobs never reach the registry"
        );
        let stats = daemon.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.served, 1, "an expired job still resolves its ticket");
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let ticket = daemon.submit("a", "m", GenRequest::nodes(8)).unwrap();
        // No workers: the job cannot resolve, so the bounded wait must
        // give up and return the ticket rather than hanging.
        let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
            Err(t) => t,
            Ok(outcome) => panic!("expected timeout, got {:?}", outcome.map(|_| ())),
        };
        daemon.shutdown();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    fn admission_only(queue_capacity: usize) -> Daemon {
        Daemon::start(DaemonConfig {
            workers: 0,
            queue_capacity,
            ..DaemonConfig::default()
        })
    }

    fn inflight_keys(daemon: &Daemon) -> usize {
        daemon.shared.lock_queues().inflight.len()
    }

    /// K identical seeded submissions queue exactly one job; the other
    /// K-1 are hits, and all K resolve with the leader's outcome.
    /// Deterministic: zero workers keep the leader queued for the whole
    /// burst.
    #[test]
    fn identical_submissions_share_one_execution() {
        let daemon = admission_only(4);
        let request = || GenRequest::nodes(16).seeded(9);
        let tickets: Vec<_> = (0..5)
            .map(|_| daemon.submit("t", "/m.json", request()).unwrap())
            .collect();
        let stats = daemon.stats();
        assert_eq!(stats.queued, 1, "one job for the whole group");
        assert_eq!(stats.coalesce_hits, 4);
        assert_eq!(stats.coalesce_misses, 1);
        // Shutdown fails the leader's job; every blocked waiter is woken
        // with the same typed outcome.
        let daemon = &daemon;
        std::thread::scope(|scope| {
            let handles: Vec<_> = tickets
                .into_iter()
                .map(|t| scope.spawn(move || t.wait()))
                .collect();
            // Give the waiters a beat to block, then resolve them.
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(daemon.stats().queued, 1);
            daemon.begin_shutdown();
            daemon.fail_stranded();
            for h in handles {
                assert_eq!(h.join().unwrap().unwrap_err(), ServeError::ShuttingDown);
            }
        });
        assert_eq!(daemon.stats().queued, 0);
    }

    /// Different seeds, tenants, artifacts, node counts, or deadlines
    /// never coalesce.
    #[test]
    fn distinct_submissions_never_share() {
        let daemon = admission_only(16);
        let base = || GenRequest::nodes(16).seeded(9);
        let _t: Vec<_> = vec![
            daemon.submit("t", "/m.json", base()).unwrap(),
            daemon.submit("t", "/m.json", base().seeded(10)).unwrap(),
            daemon.submit("u", "/m.json", base()).unwrap(),
            daemon.submit("t", "/n.json", base()).unwrap(),
            daemon.submit("t", "/m.json", GenRequest::nodes(17).seeded(9)).unwrap(),
            daemon.submit("t", "/m.json", base().deadline(Duration::from_secs(5))).unwrap(),
        ];
        let stats = daemon.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.coalesce_misses, 6);
        assert_eq!(stats.queued, 6);
    }

    /// Unseeded requests draw fresh entropy per run, so they must not
    /// coalesce even when textually identical.
    #[test]
    fn unseeded_requests_pass_straight_through() {
        let daemon = admission_only(4);
        let _a = daemon.submit("t", "/m.json", GenRequest::nodes(16)).unwrap();
        let _b = daemon.submit("t", "/m.json", GenRequest::nodes(16)).unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.coalesce_hits, 0);
        assert_eq!(stats.coalesce_misses, 2);
        assert_eq!(stats.queued, 2);
        assert_eq!(inflight_keys(&daemon), 0);
    }

    /// An overloaded submission leaves no in-flight key behind, and a
    /// duplicate of an admitted job attaches even with the queue full.
    #[test]
    fn admission_errors_do_not_pin_entries() {
        let daemon = admission_only(1);
        let _first = daemon.submit("t", "/m.json", GenRequest::nodes(16).seeded(1)).unwrap();
        match daemon.submit("t", "/m.json", GenRequest::nodes(16).seeded(2)) {
            Err(ServeError::Overloaded { capacity: 1 }) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(inflight_keys(&daemon), 1, "only the admitted key is in flight");
        assert_eq!(daemon.stats().queued, 1);
        let _dup = daemon.submit("t", "/m.json", GenRequest::nodes(16).seeded(1)).unwrap();
        assert_eq!(daemon.stats().coalesce_hits, 1);
        assert_eq!(daemon.stats().queued, 1, "a hit never takes queue capacity");
    }

    /// A bounded wait on an unresolved seeded job hands the ticket back
    /// and leaves the key in flight; shutdown fails the job and clears
    /// the key.
    #[test]
    fn wait_timeout_keeps_the_group_alive() {
        let daemon = admission_only(4);
        let ticket = daemon.submit("t", "/m.json", GenRequest::nodes(16).seeded(4)).unwrap();
        let ticket = match ticket.wait_timeout(Duration::from_millis(15)) {
            Err(t) => t,
            Ok(outcome) => panic!("expected timeout, got {:?}", outcome.map(|_| ())),
        };
        assert_eq!(inflight_keys(&daemon), 1, "timed-out waiter stays attached");
        daemon.begin_shutdown();
        daemon.fail_stranded();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(inflight_keys(&daemon), 0, "shutdown detaches stranded keys");
    }

    /// The worker detaches the key before resolving, so once a ticket
    /// has its outcome an identical submission runs fresh: coalescing
    /// is not a response cache.
    #[test]
    fn resolved_keys_run_fresh() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            queue_capacity: 4,
            ..DaemonConfig::default()
        });
        let request = || GenRequest::nodes(8).seeded(5);
        for _ in 0..2 {
            let ticket = daemon.submit("t", "/no/such/model.json", request()).unwrap();
            assert!(matches!(ticket.wait().unwrap_err(), ServeError::Model(_)));
            assert_eq!(inflight_keys(&daemon), 0, "resolved keys leave the map");
        }
        let stats = daemon.shutdown();
        assert_eq!((stats.served, stats.coalesce_hits, stats.coalesce_misses), (2, 0, 2));
    }

    /// Panics the job whose request seed is 7; leaves others alone.
    #[derive(Debug)]
    struct PanicOnSeed7;

    impl FaultInjector for PanicOnSeed7 {
        fn artifact_read(&self, _path: &str, _seed: u64, _attempt: u32) -> Option<ReadFault> {
            None
        }

        fn job_start(&self, seed: u64) -> Option<JobFault> {
            (seed == 7).then_some(JobFault::Panic)
        }
    }

    #[test]
    fn worker_panic_fails_one_request_and_recovers() {
        crate::fault::silence_injected_panics();
        let daemon = Daemon::start_with_faults(
            DaemonConfig {
                workers: 1,
                queue_capacity: 4,
                ..DaemonConfig::default()
            },
            Arc::new(PanicOnSeed7),
        );
        let poisoned = daemon
            .submit("a", "/irrelevant.json", GenRequest::nodes(8).seeded(7))
            .unwrap();
        match poisoned.wait().unwrap_err() {
            ServeError::WorkerPanicked { message } => {
                assert!(message.contains(INJECTED_PANIC_MARK), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The same single worker must still be alive to serve (and
        // type-fail) the next request.
        let next = daemon
            .submit("a", "/no/such/model.json", GenRequest::nodes(8).seeded(8))
            .unwrap();
        assert!(matches!(next.wait().unwrap_err(), ServeError::Model(_)));
        let stats = daemon.shutdown();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.served, 2);
    }
}
