//! The [`SessionPool`]: many tenants' mining sessions behind sharded locks, with bounded
//! ingest queues, LRU eviction, and snapshot rehydration.
//!
//! ## Layout
//!
//! Tenants key by `(user_id, thread_id)` and hash to one of `shards` independent
//! [`Mutex`]-guarded maps, so concurrent tenants contend only when they collide on a shard
//! — never on one global lock.  The shard lock guards only *membership* (resident and
//! evicted tenants, LRU stamps); each tenant carries its own `Mutex` around its
//! [`Session`], queue and tail, so applying one tenant's mining work never holds a shard
//! lock.  Lock order is always shard → tenant, and every queue mutation happens with the
//! shard lock held, which is what makes eviction race-free: once a tenant leaves the
//! residents, nothing can append to it until it returns.
//!
//! ## Backpressure
//!
//! [`SessionPool::enqueue`] appends statements to the tenant's bounded queue and returns
//! immediately — mining runs on the pool's worker threads, so an HTTP acceptor calling it
//! never blocks on tree alignment.  A full queue *rejects* the batch ([`EnqueueError`],
//! which the HTTP layer turns into `429` + `Retry-After`) instead of blocking: under
//! overload the server sheds load explicitly rather than stalling every connection behind
//! the slowest tenant.
//!
//! ## Durable state: a base plus a tail
//!
//! Every rebuild follows one rule: a tenant is its **base**, the versioned binary snapshot
//! ([`Session::persist`]) it was last restored from or persisted to (nothing when new),
//! plus its **tail**, the statements applied since.  Persisting a tenant makes the
//! snapshot its new base and clears the tail, so no tenant keeps its whole history.
//!
//! - **Eviction** persists a full shard's least-recently-used tenant as its base and drops
//!   its session.  The tenant stays in the shard, beside the residents and not counted
//!   against capacity; when it returns, its base is restored — milliseconds where
//!   re-mining takes seconds — and it continues where it stood, warm memo included.
//! - **Restart**: with a *spill directory* ([`SessionPool::with_spill`], wired to
//!   `ServerOptions::spill_dir`) each base is also written to disk with its `applied`
//!   watermark; a pool reopened over the directory restores it, and startup recovery
//!   replays the journal past the watermark.
//! - **Quarantine**: when a statement panics the miner, the supervisor restores the base
//!   and replays the tail without it.
//!
//! One function rebuilds a tenant in every case, a tenant whose lock was recovered from
//! poison included.  The rebuilt session is **byte-identical** to one never evicted,
//! restarted or rebuilt (property-tested in `tests/`); only accumulated wall-clock timings
//! differ.  Eviction, checkpoints and `close` share one spill step, which skips a tenant
//! whose `applied` watermark equals its last durable spill: a checkpoint writes only the
//! tenants that changed, and a tenant whose spill write failed, resident or evicted, stays
//! dirty until a retry lands.

use crate::journal::{sync_dir, DurabilityOptions, Journal, JournalStats, RecoveredLog};
use crate::wire::LogItem;
use pi_ast::codec::{self, CodecError};
use pi_core::{GeneratedInterface, InteractionGraph, PiOptions, Session};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(any(test, feature = "faults"))]
use crate::faults::{FaultOp, FaultPlan};

/// A tenant identity: `(user_id, thread_id)`.
pub type TenantId = (String, String);

/// Configuration of a [`SessionPool`].
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Maximum resident sessions, divided evenly across shards (each shard holds at most
    /// `ceil(capacity / shards)` tenants; eviction is LRU *within* the insert's shard).
    pub capacity: usize,
    /// Number of independently locked shards.  One shard makes LRU order global and
    /// deterministic (useful in tests); production pools want enough shards that
    /// concurrent tenants rarely collide.
    pub shards: usize,
    /// Per-tenant ingest queue bound, in statements.  A batch that would overflow it is
    /// rejected whole.
    pub queue_depth: usize,
    /// Background worker threads applying queued statements to sessions.
    pub workers: usize,
    /// The mining options every tenant session runs with.
    pub session: PiOptions,
    /// Crash safety: a write-ahead journal + checkpoint configuration.  `None` (the
    /// default) keeps the pre-journal behaviour — spill snapshots only, written at
    /// eviction and close.  `Some` makes every acknowledged batch durable *before* the
    /// ack and replays the journal tail on the next open.  When set and no explicit
    /// spill directory is given, spill snapshots share the journal directory.
    pub durability: Option<DurabilityOptions>,
    /// Pool-wide queued-statement count above which readiness reports unready (the HTTP
    /// layer then sheds load with `503 + Retry-After` instead of letting the apply
    /// backlog grow without bound).  `None` disables the high-water check.
    pub ready_high_water: Option<usize>,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            capacity: 1024,
            shards: 16,
            queue_depth: 256,
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            session: PiOptions::default(),
            durability: None,
            ready_high_water: None,
        }
    }
}

/// Why a batch was not enqueued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueError {
    /// The tenant's queue cannot take the batch; retry after the suggested seconds.
    QueueFull {
        /// Statements currently queued for the tenant.
        queued: usize,
        /// The queue bound the batch would have overflowed.
        depth: usize,
    },
    /// The pool is shutting down and no longer accepts work.
    ShuttingDown,
    /// Startup recovery is still replaying the journal; retry shortly.
    Recovering,
    /// The write-ahead journal could not make the batch durable.  The journal is
    /// fail-stop: after the first failure the pool acknowledges nothing further, so a
    /// client retry lands on a restarted, recovered process rather than on silently
    /// un-durable state.
    Journal(String),
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqueueError::QueueFull { queued, depth } => {
                write!(f, "tenant queue full ({queued}/{depth} statements)")
            }
            EnqueueError::ShuttingDown => write!(f, "pool is shutting down"),
            EnqueueError::Recovering => write!(f, "pool is replaying its write-ahead journal"),
            EnqueueError::Journal(err) => write!(f, "write-ahead journal failed: {err}"),
        }
    }
}

impl std::error::Error for EnqueueError {}

/// A point-in-time gauge of the pool, served by `GET /stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolGauge {
    /// Resident sessions.
    pub occupancy: usize,
    /// Evicted tenants: their sessions are dropped, and their snapshots wait in memory for
    /// their return.
    pub archived: usize,
    /// Statements queued but not yet applied, across all tenants.
    pub queued: usize,
    /// Queries ingested (applied) across resident sessions.
    pub queries: usize,
    /// Unparseable statements skipped across resident sessions.
    pub skipped: usize,
    /// Lifetime evictions.
    pub evictions: u64,
    /// Lifetime rehydrations (evicted tenants that returned).
    pub rehydrations: u64,
    /// Lifetime statements accepted by `enqueue`.
    pub accepted: u64,
    /// Lifetime batches rejected for backpressure.
    pub rejected_batches: u64,
    /// Accumulated parse time across resident sessions, milliseconds.
    pub parse_ms: f64,
    /// Accumulated mining time across resident sessions, milliseconds.
    pub mining_ms: f64,
    /// Accumulated mapping time across resident sessions, milliseconds.
    pub mapping_ms: f64,
    /// A bounded sample of recent parse failures across resident sessions (each session
    /// keeps its own capped [`pi_ast::ErrorSample`]; the gauge takes the first
    /// [`GAUGE_ERROR_SAMPLES`] it encounters).  `skipped` has the full count — this is
    /// the *what*, not the *how many*.
    pub parse_error_samples: Vec<String>,
    /// Bytes of versioned binary snapshots currently held in memory for evicted tenants
    /// (spill files on disk are not counted).
    pub snapshot_bytes: usize,
    /// Accumulated wall-clock spent persisting tenant snapshots, milliseconds.
    pub persist_ms: f64,
    /// Accumulated wall-clock spent restoring sessions from snapshots, milliseconds.
    pub restore_ms: f64,
    /// True while startup recovery is still replaying the journal (readiness gates on it).
    pub recovering: bool,
    /// Worker panics caught by the supervisor (each triggers a session rebuild).
    pub worker_panics: u64,
    /// Sessions rebuilt from durable state after a panic or a poisoned lock.
    pub session_rebuilds: u64,
    /// Statements quarantined because applying them panicked even on rebuild.
    pub quarantined_statements: u64,
    /// A bounded sample of quarantined statements (tenant, dialect, text, panic message).
    pub quarantine_samples: Vec<String>,
    /// Poisoned mutexes recovered instead of propagated (a tenant's session is rebuilt
    /// before it is trusted again).
    pub lock_poison_recoveries: u64,
    /// Spill snapshots quarantined (renamed `*.corrupt`) after failing integrity checks.
    pub spill_quarantines: u64,
    /// Tenants whose journal tail was replayed by startup recovery.
    pub recovered_tenants: u64,
    /// Statements replayed from the journal by startup recovery.
    pub recovered_statements: u64,
    /// Journal statements dropped by recovery because a sequence gap preceded them (a
    /// pruned or lost segment; replaying past a hole would mis-state the session).
    pub recovery_dropped: u64,
    /// Completed checkpoints (journal rotated, every tenant snapshot durable, prune ran).
    pub checkpoints: u64,
    /// Journal segment files deleted by checkpoint prunes.
    pub pruned_segments: u64,
    /// Wall-clock of the last startup recovery, milliseconds (0 when never recovered).
    pub last_recovery_ms: f64,
    /// Journal counters, when the pool runs with durability.
    pub journal: Option<JournalStats>,
}

/// How many parse-failure samples a [`PoolGauge`] carries at most — enough for an
/// operator squinting at `/stats` to recognise the garbage's shape, small enough that a
/// garbage flood cannot bloat the endpoint.
pub const GAUGE_ERROR_SAMPLES: usize = 8;

#[derive(Default)]
struct TenantInner {
    /// `None` from eviction, admission or a recovered poisoned lock until the next use
    /// rebuilds it from `base` and `tail` ([`SessionPool::rebuild_tenant`]).
    session: Option<Session>,
    /// The snapshot the tenant was last restored from or persisted to; `None` while it has
    /// been neither, when the base is an empty session.
    base: Option<Arc<Vec<u8>>>,
    /// Statements applied since `base`, in order: what a supervisor rebuild replays over
    /// it.  Cleared whenever the tenant is persisted.  `Arc`-shared with the wire
    /// decoder's batch, so each costs two words, not a copy of its text.
    tail: Vec<(pi_ast::Dialect, Arc<str>)>,
    /// Statements accepted but not yet applied.
    queue: VecDeque<(pi_ast::Dialect, Arc<str>)>,
    /// Whether the tenant currently sits in the dispatch queue.
    dispatched: bool,
    /// Statements applied into the session, quarantined ones included: the journal
    /// sequence a spill records, so recovery replay over the spill is idempotent.
    applied: u64,
    /// The `applied` watermark of the tenant's last durable spill (0 without one).  Equal
    /// to `applied` means the spill already covers the tenant and the spill step skips it.
    spilled: u64,
}

impl TenantInner {
    /// The journal sequence number of the next statement accepted.
    fn next_seq(&self) -> u64 {
        self.applied + self.queue.len() as u64
    }
}

struct Tenant {
    key: TenantId,
    inner: Mutex<TenantInner>,
}

struct Resident {
    tenant: Arc<Tenant>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    tenants: HashMap<TenantId, Resident>,
    /// Evicted tenants, without sessions and not counted against capacity; a touch makes
    /// one resident again.
    evicted: HashMap<TenantId, Arc<Tenant>>,
    /// LRU clock: bumps on every touch; the resident with the smallest stamp is evicted.
    clock: u64,
}

/// A multi-tenant pool of mining [`Session`]s; see the module docs for the layout.
pub struct SessionPool {
    opts: PoolOptions,
    shards: Vec<Mutex<Shard>>,
    /// Tenants with pending queue items, awaiting a worker.
    dispatch: Mutex<VecDeque<TenantId>>,
    dispatch_cv: Condvar,
    shutdown: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
    default_dialect: pi_ast::Dialect,
    known_dialects: Vec<pi_ast::Dialect>,
    /// Persisted bases are written here as spill files, and tenants unknown to every shard
    /// are probed here before being treated as new — restart rehydration.
    spill_dir: Option<PathBuf>,
    /// The write-ahead journal, when the pool runs with durability.
    journal: Option<Journal>,
    /// True from construction until startup recovery has replayed the whole journal;
    /// ingest is refused and readiness reports unready while set.
    recovering: AtomicBool,
    /// The background recovery thread, joined by `close()` / `simulate_crash()`.
    recovery_thread: Mutex<Option<JoinHandle<()>>>,
    /// Serializes checkpoints (`try_lock`: a checkpoint already running is good enough).
    checkpoint_lock: Mutex<()>,
    /// Statements accepted but not yet applied, pool-wide (drives the readiness
    /// high-water check without walking every shard).
    queued_statements: AtomicUsize,
    quarantine_samples: Mutex<Vec<String>>,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
    accepted: AtomicU64,
    rejected_batches: AtomicU64,
    worker_panics: AtomicU64,
    session_rebuilds: AtomicU64,
    quarantined_statements: AtomicU64,
    lock_poison_recoveries: AtomicU64,
    spill_quarantines: AtomicU64,
    recovered_tenants: AtomicU64,
    recovered_statements: AtomicU64,
    recovery_dropped: AtomicU64,
    checkpoints: AtomicU64,
    pruned_segments: AtomicU64,
    /// Wall-clock totals in microseconds (atomics can't add floats; the gauge divides).
    persist_us: AtomicU64,
    restore_us: AtomicU64,
    last_recovery_us: AtomicU64,
}

/// Recovers a poisoned lock on pool-global state (dispatch queue, worker list, sample
/// buffers): these hold plain data a panicking thread cannot leave half-mutated in a way
/// that matters, so propagating the poison would turn one caught panic into a dead pool.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A shard's resident tenants, then its evicted ones, listed under its lock so that
/// callers lock each tenant after releasing it.
fn tenants(shard: &Shard) -> Vec<Arc<Tenant>> {
    let residents = shard.tenants.values().map(|r| &r.tenant);
    residents.chain(shard.evicted.values()).cloned().collect()
}

/// Renders a caught panic payload for counters and quarantine samples.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Magic prefix of the versioned spill file format (`applied` watermark + key + snapshot).
const SPILL_MAGIC: &[u8; 8] = b"PISPILL2";

/// Suffix of a spill write in flight (`tenant-<hash>.pisnap.tmp`).
const SPILL_TEMP_SUFFIX: &str = ".tmp";

/// Removes the temp files of spill writes a previous process left unfinished, named as
/// this build names them or with the write number older builds put before the suffix
/// (`tenant-<hash>.pisnap.<write>.tmp`).  A temp file is only ever a write in flight, and
/// no write outlives the pool that started it, so at open every one of them is garbage.
fn remove_spill_temps(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("tenant-")
            && name.contains(".pisnap.")
            && name.ends_with(SPILL_TEMP_SUFFIX)
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// What reading a tenant's spill file yielded.
enum SpillRead {
    /// No spill file (or a hash collision with another tenant's — treated as absent).
    Missing,
    /// An intact spill: the applied-statement watermark and the session snapshot bytes.
    Loaded { applied: u64, snapshot: Vec<u8> },
    /// A malformed spill file: the caller quarantines it and falls back.
    Corrupt,
}

/// Reads a spill file's header (see [`SessionPool::write_spill`]), leaving `r` at the
/// session snapshot: the `applied` watermark, or `None` when the key is another tenant's.
fn take_spill_header(r: &mut &[u8], key: &TenantId) -> Result<Option<u64>, CodecError> {
    if codec::take_bytes(r, SPILL_MAGIC.len())? != SPILL_MAGIC {
        return Err(codec::corrupt("not a spill file (bad magic)"));
    }
    let applied = codec::take_u64(r)?;
    for expected in [&key.0, &key.1] {
        let len = codec::take_u32(r)? as usize;
        if codec::take_bytes(r, len)? != expected.as_bytes() {
            return Ok(None);
        }
    }
    Ok(Some(applied))
}

impl SessionPool {
    /// Builds a pool and spawns its ingest workers; no spill directory — evicted tenants'
    /// snapshots live in memory only and die with the pool.
    pub fn new(opts: PoolOptions) -> Arc<SessionPool> {
        SessionPool::with_spill(opts, None)
    }

    /// Builds a pool whose persisted snapshots are also written into `spill_dir`, so
    /// tenants survive a process restart: a pool opened over the same directory restores
    /// any spilled tenant's full mining state on first touch instead of starting empty.
    ///
    /// Spilling is best-effort — the directory is created if missing, a failed write
    /// leaves the tenant dirty for the next spill step to retry (its base in memory
    /// preserves all single-process guarantees meanwhile), and a spill file whose
    /// integrity check fails on read is quarantined (renamed `*.corrupt`) and the tenant
    /// starts empty, with journal replay restoring whatever the journal still holds.
    ///
    /// With [`PoolOptions::durability`] set, the journal under its directory is opened
    /// (its tail scanned, torn records discarded) and a background recovery thread
    /// replays every recovered tenant through the normal ingest path; until it finishes
    /// the pool reports [`EnqueueError::Recovering`] and readiness is false — use
    /// [`SessionPool::wait_ready`] to block on it.
    ///
    /// # Panics
    ///
    /// Panics if the journal directory cannot be created or scanned — a pool that
    /// silently ran without its configured durability would be worse than one that
    /// refuses to start.
    pub fn with_spill(opts: PoolOptions, spill_dir: Option<PathBuf>) -> Arc<SessionPool> {
        let spill_dir = spill_dir.or_else(|| opts.durability.as_ref().map(|d| d.dir.clone()));
        if let Some(dir) = &spill_dir {
            let _ = std::fs::create_dir_all(dir);
            remove_spill_temps(dir);
        }
        let shards = opts.shards.max(1);
        let workers = opts.workers.max(1);
        let (journal, recovered) = match opts.durability.clone() {
            Some(durability) => {
                let (journal, recovered) =
                    Journal::open(durability).expect("open write-ahead journal");
                (Some(journal), Some(recovered))
            }
            None => (None, None),
        };
        // Sessions share one standard registry; probe it once rather than per request.
        let probe = Session::new(opts.session.clone());
        let default_dialect = probe.default_dialect();
        let known_dialects = probe.frontends().dialects();
        let pool = Arc::new(SessionPool {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            dispatch: Mutex::new(VecDeque::new()),
            dispatch_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            recovering: AtomicBool::new(recovered.is_some()),
            recovery_thread: Mutex::new(None),
            checkpoint_lock: Mutex::new(()),
            queued_statements: AtomicUsize::new(0),
            quarantine_samples: Mutex::new(Vec::new()),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected_batches: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            session_rebuilds: AtomicU64::new(0),
            quarantined_statements: AtomicU64::new(0),
            lock_poison_recoveries: AtomicU64::new(0),
            spill_quarantines: AtomicU64::new(0),
            recovered_tenants: AtomicU64::new(0),
            recovered_statements: AtomicU64::new(0),
            recovery_dropped: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            pruned_segments: AtomicU64::new(0),
            persist_us: AtomicU64::new(0),
            restore_us: AtomicU64::new(0),
            last_recovery_us: AtomicU64::new(0),
            default_dialect,
            known_dialects,
            spill_dir,
            journal,
            opts,
        });
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("pi-pool-worker-{i}"))
                    .spawn(move || pool.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        *lock_or_recover(&pool.workers) = handles;
        if let Some(recovered) = recovered {
            let recoverer = Arc::clone(&pool);
            let handle = std::thread::Builder::new()
                .name("pi-pool-recovery".to_string())
                .spawn(move || recoverer.recover(recovered))
                .expect("spawn recovery thread");
            *lock_or_recover(&pool.recovery_thread) = Some(handle);
        }
        pool
    }

    /// The options this pool runs with.
    pub fn options(&self) -> &PoolOptions {
        &self.opts
    }

    /// The default dialect untagged ingest text is attributed to (the session registry's
    /// first front-end).
    pub fn default_dialect(&self) -> pi_ast::Dialect {
        self.default_dialect
    }

    /// The dialects the tenant sessions can parse.
    pub fn known_dialects(&self) -> &[pi_ast::Dialect] {
        &self.known_dialects
    }

    /// Enqueues one decoded [`LogItem`] for its tenant.  Returns the number of statements
    /// accepted; never blocks on mining.
    pub fn enqueue(&self, item: &LogItem) -> Result<usize, EnqueueError> {
        self.enqueue_tagged(
            &item.user_id,
            &item.thread_id,
            item.queries.iter().map(|(d, t)| (*d, Arc::clone(t))),
        )
    }

    /// Enqueues tagged statement texts for a tenant; see [`SessionPool::enqueue`].
    ///
    /// All-or-nothing per batch: either every statement fits under the queue bound or the
    /// whole batch is rejected — partial ingest would silently reorder a tenant's log when
    /// the client retries the remainder.
    ///
    /// Statements arriving as `Arc<str>` (the wire decoder's shape) are enqueued by
    /// refcount bump; `&str` callers pay the one owning allocation here and never again —
    /// the queue and the tail share it.
    ///
    /// With durability on, the batch's journal record is appended under the tenant lock
    /// (atomically with sequence assignment and queue insertion, so file order equals
    /// sequence order) and group-committed *before* this returns `Ok` — an acknowledged
    /// batch survives a crash.
    pub fn enqueue_tagged<I, S>(
        &self,
        user_id: &str,
        thread_id: &str,
        statements: I,
    ) -> Result<usize, EnqueueError>
    where
        I: IntoIterator<Item = (pi_ast::Dialect, S)>,
        S: Into<Arc<str>>,
    {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(EnqueueError::ShuttingDown);
        }
        if self.recovering.load(Ordering::Acquire) {
            return Err(EnqueueError::Recovering);
        }
        if self.journal.as_ref().is_some_and(Journal::is_failed) {
            return Err(EnqueueError::Journal("journal is failed".to_string()));
        }
        let statements: Vec<(pi_ast::Dialect, Arc<str>)> =
            statements.into_iter().map(|(d, s)| (d, s.into())).collect();
        if statements.is_empty() {
            return Ok(0);
        }
        let key: TenantId = (user_id.to_string(), thread_id.to_string());
        let mut guard = self.lock_shard(&self.shards[self.shard_of(&key)]);
        let tenant = self.resident(&mut guard, &key);
        let (accepted, ticket) = {
            let mut inner = self.lock_tenant(&tenant);
            if inner.queue.len() + statements.len() > self.opts.queue_depth {
                self.rejected_batches.fetch_add(1, Ordering::Relaxed);
                return Err(EnqueueError::QueueFull {
                    queued: inner.queue.len(),
                    depth: self.opts.queue_depth,
                });
            }
            let ticket = match &self.journal {
                Some(journal) => {
                    let record = crate::journal::encode_batch_record(
                        &key.0,
                        &key.1,
                        inner.next_seq(),
                        &statements,
                    );
                    match journal.append(&record) {
                        Ok(ticket) => Some(ticket),
                        Err(err) => return Err(EnqueueError::Journal(err.to_string())),
                    }
                }
                None => None,
            };
            let accepted = statements.len();
            inner.queue.extend(statements);
            self.queued_statements
                .fetch_add(accepted, Ordering::Relaxed);
            self.mark_dispatched(&tenant, &mut inner);
            (accepted, ticket)
        };
        drop(guard);
        // The fsync happens outside every lock: appends from other tenants accumulate
        // under it (group commit), and mining never waits on the disk.
        if let (Some(journal), Some(ticket)) = (&self.journal, ticket) {
            if let Err(err) = journal.commit(ticket) {
                // The statements are queued (the live session may mine them) but the
                // batch is NOT acknowledged: the journal is now failed and nothing
                // further acks, so the client's retry lands after a restart+recovery
                // instead of on un-durable state.
                return Err(EnqueueError::Journal(err.to_string()));
            }
        }
        self.accepted.fetch_add(accepted as u64, Ordering::Relaxed);
        Ok(accepted)
    }

    /// Serves the tenant's current interface snapshot, or `None` for a tenant the pool has
    /// never seen.
    ///
    /// Read-your-writes: any statements still queued for the tenant are applied inline
    /// before the snapshot, so a client that ingested and immediately fetched sees its own
    /// queries.  An evicted tenant rehydrates transparently from its snapshot first.
    pub fn snapshot(&self, user_id: &str, thread_id: &str) -> Option<GeneratedInterface> {
        self.read(user_id, thread_id, Session::snapshot)
    }

    /// The tenant's mined interaction graph, read as [`SessionPool::snapshot`] reads (its
    /// queue applied first, an evicted tenant rehydrated), or `None` for a tenant the pool
    /// has never seen.  A full copy of the tenant's records and edges, for tests and
    /// diagnostics; serving reads go through [`SessionPool::snapshot`].
    pub fn graph(&self, user_id: &str, thread_id: &str) -> Option<InteractionGraph> {
        self.read(user_id, thread_id, |session| session.graph())
    }

    /// The read path shared by [`SessionPool::snapshot`] and [`SessionPool::graph`]:
    /// resolves a known tenant (rehydrating it if evicted), applies its queue, then runs
    /// `read` on its session.
    fn read<T>(
        &self,
        user_id: &str,
        thread_id: &str,
        read: impl FnOnce(&mut Session) -> T,
    ) -> Option<T> {
        let key: TenantId = (user_id.to_string(), thread_id.to_string());
        let shard = &self.shards[self.shard_of(&key)];
        let mut guard = self.lock_shard(shard);
        let known = guard.tenants.contains_key(&key)
            || guard.evicted.contains_key(&key)
            || self.has_spill(&key);
        if !known {
            return None;
        }
        let tenant = self.resident(&mut guard, &key);
        drop(guard);
        let mut inner = self.lock_tenant(&tenant);
        let rebuilds = inner.session.is_none();
        self.apply_supervised(&tenant, &mut inner);
        let value = read(self.session(&tenant, &mut inner));
        drop(inner);
        // An eviction between the two locks must not leave the tenant the session rebuilt
        // here (dropping a session is always safe: its base and tail remain).
        if rebuilds && self.lock_shard(shard).evicted.contains_key(&key) {
            self.lock_tenant(&tenant).session = None;
        }
        Some(value)
    }

    /// Applies every queued statement for one tenant without snapshotting.  Used by tests
    /// and the graceful-shutdown drain; returns how many statements were applied, or
    /// `None` for an unknown tenant.
    pub fn flush(&self, user_id: &str, thread_id: &str) -> Option<usize> {
        let key: TenantId = (user_id.to_string(), thread_id.to_string());
        let guard = self.lock_shard(&self.shards[self.shard_of(&key)]);
        let tenant = Arc::clone(&guard.tenants.get(&key)?.tenant);
        drop(guard);
        let mut inner = self.lock_tenant(&tenant);
        Some(self.apply_supervised(&tenant, &mut inner))
    }

    /// A point-in-time gauge across every shard.  Each shard lock is held only to list the
    /// shard's tenants: a tenant busy mining must not block the shard's ingest behind it.
    pub fn gauge(&self) -> PoolGauge {
        let mut gauge = PoolGauge {
            evictions: self.evictions.load(Ordering::Relaxed),
            rehydrations: self.rehydrations.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_batches: self.rejected_batches.load(Ordering::Relaxed),
            persist_ms: self.persist_us.load(Ordering::Relaxed) as f64 / 1e3,
            restore_ms: self.restore_us.load(Ordering::Relaxed) as f64 / 1e3,
            recovering: self.recovering.load(Ordering::Acquire),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            session_rebuilds: self.session_rebuilds.load(Ordering::Relaxed),
            quarantined_statements: self.quarantined_statements.load(Ordering::Relaxed),
            quarantine_samples: lock_or_recover(&self.quarantine_samples).clone(),
            lock_poison_recoveries: self.lock_poison_recoveries.load(Ordering::Relaxed),
            spill_quarantines: self.spill_quarantines.load(Ordering::Relaxed),
            recovered_tenants: self.recovered_tenants.load(Ordering::Relaxed),
            recovered_statements: self.recovered_statements.load(Ordering::Relaxed),
            recovery_dropped: self.recovery_dropped.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            pruned_segments: self.pruned_segments.load(Ordering::Relaxed),
            last_recovery_ms: self.last_recovery_us.load(Ordering::Relaxed) as f64 / 1e3,
            journal: self.journal.as_ref().map(Journal::stats),
            ..PoolGauge::default()
        };
        for shard in &self.shards {
            let (tenants, evicted) = {
                let guard = self.lock_shard(shard);
                (tenants(&guard), guard.evicted.len())
            };
            let (residents, evicted) = tenants.split_at(tenants.len() - evicted);
            gauge.occupancy += residents.len();
            gauge.archived += evicted.len();
            for tenant in evicted {
                let base = self.lock_tenant(tenant).base.clone();
                gauge.snapshot_bytes += base.map_or(0, |base| base.len());
            }
            for tenant in residents {
                let inner = self.lock_tenant(tenant);
                gauge.queued += inner.queue.len();
                // A tenant back from eviction has no session until its first use.
                let Some(session) = &inner.session else {
                    continue;
                };
                gauge.queries += session.len();
                gauge.skipped += session.skipped();
                let timings = session.timings();
                gauge.parse_ms += timings.parse_ms;
                gauge.mining_ms += timings.mining_ms;
                gauge.mapping_ms += timings.mapping_ms;
                for error in session.parse_errors().entries() {
                    if gauge.parse_error_samples.len() >= GAUGE_ERROR_SAMPLES {
                        break;
                    }
                    gauge.parse_error_samples.push(error.to_string());
                }
            }
        }
        gauge
    }

    /// Graceful shutdown: stop accepting, join the workers, then drain every remaining
    /// queue.  With a spill directory, every tenant, resident or evicted, that changed since
    /// its last spill is also spilled, so a pool reopened over the same directory
    /// rehydrates *all* tenants.  With durability, a final checkpoint then prunes the
    /// journal the spills now cover.  Idempotent.
    pub fn close(&self) {
        // Let an in-flight recovery finish first: its replay work must not race the
        // drain, and an interrupted recovery must keep `recovering` set so no checkpoint
        // prunes journal segments that were never replayed.
        let recovery = lock_or_recover(&self.recovery_thread).take();
        if let Some(handle) = recovery {
            let _ = handle.join();
        }
        self.signal_shutdown();
        let handles = std::mem::take(&mut *lock_or_recover(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
        for shard in &self.shards {
            let tenants = tenants(&self.lock_shard(shard));
            for tenant in tenants {
                let mut inner = self.lock_tenant(&tenant);
                if self.spill_dir.is_some() {
                    self.spill(&tenant, &mut inner);
                } else {
                    self.apply_supervised(&tenant, &mut inner);
                }
            }
        }
        // Every tenant is drained and spilled: a full checkpoint now prunes the
        // journal, so the next open restores from snapshots in milliseconds instead of
        // replaying the whole log.
        if self.journal.is_some() && !self.recovering.load(Ordering::Acquire) {
            self.checkpoint();
        }
    }

    fn shard_of(&self, key: &TenantId) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Looks up the resident tenant for `key` (bringing it back from eviction, or admitting
    /// it), touching its LRU stamp.  Called with the shard lock held; may evict the shard's
    /// LRU tenant.
    fn resident(&self, shard: &mut Shard, key: &TenantId) -> Arc<Tenant> {
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(resident) = shard.tenants.get_mut(key) {
            resident.last_used = stamp;
            return Arc::clone(&resident.tenant);
        }
        // A shard holds its even share of the pool-wide capacity.
        let shard_cap = self.opts.capacity.div_ceil(self.shards.len()).max(1);
        if shard.tenants.len() >= shard_cap {
            self.evict_lru(shard);
        }
        // An evicted tenant returns as it left, and its first use rebuilds its session.
        let tenant = match shard.evicted.remove(key) {
            Some(tenant) => {
                self.rehydrations.fetch_add(1, Ordering::Relaxed);
                tenant
            }
            None => self.admit(key),
        };
        shard.tenants.insert(
            key.clone(),
            Resident {
                tenant: Arc::clone(&tenant),
                last_used: stamp,
            },
        );
        tenant
    }

    /// A tenant the pool does not hold: one from before a restart when its spill file reads,
    /// else a new one.  A spilled tenant is rebuilt at once, so that a base that fails to
    /// restore has started over at sequence 0 before recovery or a journaled enqueue reads
    /// the tenant's next sequence; recovery replays the journal past that sequence.
    fn admit(&self, key: &TenantId) -> Arc<Tenant> {
        let tenant = Arc::new(Tenant {
            key: key.clone(),
            inner: Mutex::default(),
        });
        match self.read_spill(key) {
            SpillRead::Loaded { applied, snapshot } => {
                let mut inner = self.lock_tenant(&tenant);
                inner.base = Some(Arc::new(snapshot));
                inner.applied = applied;
                inner.spilled = applied;
                self.rebuild_tenant(&tenant, &mut inner, None);
                if inner.base.is_some() {
                    self.rehydrations.fetch_add(1, Ordering::Relaxed);
                }
            }
            SpillRead::Corrupt => self.quarantine_spill(key),
            SpillRead::Missing => {}
        }
        tenant
    }

    /// Evicts the least-recently-used tenant of a shard: spills it, drops its session and
    /// moves it among the evicted.  Called with the shard lock held.
    fn evict_lru(&self, shard: &mut Shard) {
        let Some(victim_key) = shard
            .tenants
            .iter()
            .min_by_key(|(_, r)| r.last_used)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        let victim = shard
            .tenants
            .remove(&victim_key)
            .expect("victim resident")
            .tenant;
        let mut inner = self.lock_tenant(&victim);
        // This runs under the shard lock — eviction is rare and the backlog small, and it
        // must be atomic with removal or a late worker would apply to an evicted session.
        // The spill step leaves the base current even when its write fails, so the base and
        // tail hold the whole tenant once its session and buffers are dropped.
        self.spill(&victim, &mut inner);
        inner.session = None;
        inner.queue.shrink_to_fit();
        inner.tail.shrink_to_fit();
        // A worker skips an evicted tenant's dispatch entry, so a return must dispatch anew.
        inner.dispatched = false;
        drop(inner);
        shard.evicted.insert(victim_key, victim);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// The one spill step behind eviction, checkpoints and `close`.  Applies the tenant's
    /// queue; then, unless its `applied` watermark equals its last durable spill, persists
    /// the session as its new base (clearing the tail) and writes that base to its spill
    /// file.  A failed write leaves the tenant dirty, so the next checkpoint retries it.
    /// Returns whether the tenant's state is durably spilled.
    fn spill(&self, tenant: &Tenant, inner: &mut TenantInner) -> bool {
        self.apply_supervised(tenant, inner);
        if inner.spilled == inner.applied {
            return true;
        }
        if inner.base.is_none() || !inner.tail.is_empty() {
            let start = Instant::now();
            let bytes = self
                .session(tenant, inner)
                .persist_to_vec()
                .expect("persisting a session into memory cannot fail");
            self.persist_us
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            inner.base = Some(Arc::new(bytes));
            inner.tail.clear();
        }
        let base = inner.base.as_deref().expect("the base is current");
        let written = self.write_spill(&tenant.key, base, inner.applied);
        if written {
            inner.spilled = inner.applied;
        }
        written
    }

    /// The spill file for a tenant, when spilling is enabled.  Named by the key's hash;
    /// the file's own header carries the exact key, so a hash collision reads as a miss
    /// for the other tenant rather than serving it foreign state.
    fn spill_path(&self, key: &TenantId) -> Option<PathBuf> {
        let dir = self.spill_dir.as_ref()?;
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        Some(dir.join(format!("tenant-{:016x}.pisnap", hasher.finish())))
    }

    /// True when a spill file exists for this tenant (cheap existence probe; integrity is
    /// checked at read time).
    fn has_spill(&self, key: &TenantId) -> bool {
        self.spill_path(key).is_some_and(|p| p.exists())
    }

    /// Best-effort spill write:
    /// `PISPILL2 [applied u64][user_len u32][user][thread_len u32][thread][session snapshot]`,
    /// written to `tenant-<hash>.pisnap.tmp` and renamed over the spill file, so readers
    /// never observe a half-written spill.  With durability on, the temp file is fsynced
    /// before the rename and the directory after it — checkpoint prunes count on the spill
    /// surviving a crash.  Every spill write runs under its tenant's lock, and a tenant
    /// keeps one `Arc<Tenant>` for the pool's life, so no two writes share the temp file.
    /// Returns whether the spill is durably (or, without a journal, at least atomically) in
    /// place.
    fn write_spill(&self, key: &TenantId, snapshot: &[u8], applied: u64) -> bool {
        let Some(path) = self.spill_path(key) else {
            return false;
        };
        #[cfg(any(test, feature = "faults"))]
        if let Some(plan) = self.fault_plan() {
            if plan.hit(FaultOp::SpillWrite).is_err() {
                return false;
            }
        }
        let mut header = SPILL_MAGIC.to_vec();
        codec::put_u64(&mut header, applied).expect("vec write");
        for part in [&key.0, &key.1] {
            codec::put_u32(&mut header, part.len() as u32).expect("vec write");
            header.extend_from_slice(part.as_bytes());
        }
        let tmp = path.with_extension(format!("pisnap{SPILL_TEMP_SUFFIX}"));
        let written = (|| -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&header)?;
            file.write_all(snapshot)?;
            if self.journal.is_some() {
                file.sync_all()?;
            }
            std::fs::rename(&tmp, &path)?;
            if self.journal.is_some() {
                if let Some(dir) = path.parent() {
                    sync_dir(dir)?;
                }
            }
            Ok(())
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written.is_ok()
    }

    /// Reads this tenant's spill file; see [`SpillRead`] for the outcomes.  A key
    /// mismatch (hash collision with another tenant) reads as `Missing` — the file is
    /// *that* tenant's state, not corruption.
    fn read_spill(&self, key: &TenantId) -> SpillRead {
        let Some(path) = self.spill_path(key) else {
            return SpillRead::Missing;
        };
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return SpillRead::Missing,
            Err(_) => return SpillRead::Corrupt,
        };
        let mut snapshot = data.as_slice();
        match take_spill_header(&mut snapshot, key) {
            Ok(Some(applied)) => SpillRead::Loaded {
                applied,
                snapshot: snapshot.to_vec(),
            },
            Ok(None) => SpillRead::Missing,
            Err(_) => SpillRead::Corrupt,
        }
    }

    /// Quarantines a tenant's spill file by renaming it `*.corrupt` (falling back to
    /// deletion), so the next probe does not trip over it again while an operator can
    /// still inspect the bytes.
    fn quarantine_spill(&self, key: &TenantId) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        let mut target = path.clone().into_os_string();
        target.push(".corrupt");
        if std::fs::rename(&path, std::path::Path::new(&target)).is_err() {
            let _ = std::fs::remove_file(&path);
        }
        self.spill_quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the tenant to the dispatch queue if it is not already there.  Called with the
    /// tenant lock held.
    fn mark_dispatched(&self, tenant: &Arc<Tenant>, inner: &mut TenantInner) {
        if !inner.dispatched && !inner.queue.is_empty() {
            inner.dispatched = true;
            lock_or_recover(&self.dispatch).push_back(tenant.key.clone());
            self.dispatch_cv.notify_one();
        }
    }

    /// Tells the workers to exit.  A worker holds the dispatch lock from its shutdown
    /// check until its condvar wait releases it, so setting the flag under that lock
    /// keeps the wake-up from landing between the two and leaving the worker asleep.
    fn signal_shutdown(&self) {
        let _dispatch = lock_or_recover(&self.dispatch);
        self.shutdown.store(true, Ordering::SeqCst);
        self.dispatch_cv.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let key = {
                let mut queue = lock_or_recover(&self.dispatch);
                loop {
                    if let Some(key) = queue.pop_front() {
                        break key;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .dispatch_cv
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let tenant = {
                let guard = self.lock_shard(&self.shards[self.shard_of(&key)]);
                // Evicted (or already drained) while queued for dispatch: eviction applied
                // its backlog itself, so there is nothing left to do.
                match guard.tenants.get(&key) {
                    Some(resident) => Arc::clone(&resident.tenant),
                    None => continue,
                }
            };
            {
                let mut inner = self.lock_tenant(&tenant);
                inner.dispatched = false;
                self.apply_supervised(&tenant, &mut inner);
            }
            // The checkpoint trigger rides the worker loop: after a drain, if enough
            // journal has accumulated, one worker runs the checkpoint (the lock makes
            // the others skip past).
            if self
                .journal
                .as_ref()
                .is_some_and(Journal::should_checkpoint)
            {
                self.checkpoint();
            }
        }
    }

    /// Locks a shard, recovering (and counting) a poisoned lock once: the shard holds
    /// membership maps whose invariants a panicking thread cannot break mid-operation.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(|poisoned| {
            self.lock_poison_recoveries.fetch_add(1, Ordering::Relaxed);
            shard.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Locks a tenant, recovering a poisoned lock once by dropping the tenant's session: it
    /// may be mid-mutation, so its next use rebuilds it from durable state (base snapshot +
    /// tail) before it is trusted again.  The poison is cleared, so later locks find a
    /// healthy tenant.
    fn lock_tenant<'a>(&self, tenant: &'a Tenant) -> MutexGuard<'a, TenantInner> {
        tenant.inner.lock().unwrap_or_else(|poisoned| {
            self.lock_poison_recoveries.fetch_add(1, Ordering::Relaxed);
            tenant.inner.clear_poison();
            let mut inner = poisoned.into_inner();
            if inner.session.take().is_some() {
                self.session_rebuilds.fetch_add(1, Ordering::Relaxed);
                self.sample_rebuild(tenant, "tenant lock was recovered from poison");
            }
            inner
        })
    }

    /// Samples why a session is rebuilt; a rebuild that quarantines statements samples
    /// them instead.
    fn sample_rebuild(&self, tenant: &Tenant, reason: &str) {
        let mut samples = lock_or_recover(&self.quarantine_samples);
        if samples.len() < GAUGE_ERROR_SAMPLES {
            let (user, thread) = &tenant.key;
            samples.push(format!("{user}/{thread} session rebuilt: {reason}"));
        }
    }

    /// The tenant's session, rebuilt from its base and tail first when it has none.
    fn session<'i>(&self, tenant: &Tenant, inner: &'i mut TenantInner) -> &'i mut Session {
        if inner.session.is_none() {
            self.rebuild_tenant(tenant, inner, None);
        }
        inner.session.as_mut().expect("a rebuild leaves a session")
    }

    #[cfg(any(test, feature = "faults"))]
    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.journal
            .as_ref()
            .and_then(|j| j.options().faults.as_ref())
    }

    /// Applies every queued statement to the session, appending it to the tail.  Called
    /// with the tenant lock held (and, on the worker path, never the shard lock — mining
    /// is the slow part, and membership must stay available while it runs).
    ///
    /// The backlog goes through [`Session::push_stream_tagged`] in one call — a session's
    /// one text route — so a large drain (a recovered journal tail, a burst behind a slow
    /// worker) mines in bounded chunks and repeated statements hit the session's parse
    /// cache instead of re-parsing.  Streaming a backlog in one call is byte-identical to
    /// streaming it one statement per call, as `rebuild_tenant` does
    /// (property-tested), so a rebuild reproduces the live session exactly.
    fn apply_pending(&self, inner: &mut TenantInner) {
        let start = inner.tail.len();
        inner.applied += inner.queue.len() as u64;
        inner.tail.extend(inner.queue.drain(..));
        #[cfg(any(test, feature = "faults"))]
        let plan = self.fault_plan();
        let session = inner.session.as_mut().expect("apply_supervised built it");
        session.push_stream_tagged(inner.tail[start..].iter().map(|(d, t)| {
            #[cfg(any(test, feature = "faults"))]
            if let Some(plan) = plan {
                plan.check_statement(t);
            }
            (*d, &**t)
        }));
    }

    /// The supervised apply: drains the queue under `catch_unwind`, so a statement that
    /// panics the miner takes down neither the worker nor the pool.  The unwind is
    /// caught *inside* the caller's lock scope — the tenant mutex is never poisoned by
    /// it — and the session, left in an unknown state by the unwind, is rebuilt from
    /// durable state with the offending statement quarantined.  A tenant without a
    /// session is rebuilt first.  Returns how many statements left the queue.
    fn apply_supervised(&self, tenant: &Tenant, inner: &mut TenantInner) -> usize {
        let pending = inner.queue.len();
        if pending == 0 {
            return 0;
        }
        self.session(tenant, inner);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.apply_pending(inner)));
        if let Err(payload) = outcome {
            self.worker_panics.fetch_add(1, Ordering::Relaxed);
            let message = panic_message(payload.as_ref());
            self.rebuild_tenant(tenant, inner, Some(&message));
        }
        // Either way the queue was drained into the tail (the drain precedes the mining),
        // so `pending` statements left the queue.
        self.queued_statements.fetch_sub(pending, Ordering::Relaxed);
        pending
    }

    /// The one path that rebuilds a tenant's session from durable state: restore the base
    /// snapshot (a new session without one), then replay the tail through
    /// [`Session::push_stream_tagged`] one statement per call, each under `catch_unwind`.
    /// A statement that panics even alone is quarantined (dropped from the tail, counted,
    /// sampled), and the rebuild restarts from the base without it, since the unwind may
    /// have left the session half-mutated.  Each restart drops one statement, so one
    /// poisonous statement cannot wedge the tenant forever.  Streaming a tail one
    /// statement per call is byte-identical to streaming it in one call, so a rebuild
    /// that quarantines nothing equals the session it replaces.  Queued statements stay
    /// queued.
    ///
    /// `reason` is the panic message when a statement panicked the miner, and the rebuild is
    /// counted and sampled as a session rebuild.  It is `None` for a tenant without a
    /// session: back from eviction, read from its spill file, new, or with its poisoned
    /// lock recovered.
    ///
    /// A base that fails to restore has one outcome, whether it was read from a spill file
    /// or persisted by this process (which only a bug can make fail): the tenant starts
    /// over at sequence 0, as a new tenant does.  Its spill file is quarantined and its
    /// tail dropped, so the next restart replays whatever the journal still holds of it.
    fn rebuild_tenant(&self, tenant: &Tenant, inner: &mut TenantInner, reason: Option<&str>) {
        if reason.is_some() {
            self.session_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        let opts = &self.opts.session;
        let mut reason = reason;
        loop {
            let restored = match &inner.base {
                None => Ok(Session::new(opts.clone())),
                Some(bytes) => {
                    let start = Instant::now();
                    let restored = Session::restore_with(&mut bytes.as_slice(), opts.clone());
                    self.restore_us
                        .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                    restored
                }
            };
            let Ok(mut session) = restored else {
                self.quarantine_spill(&tenant.key);
                inner.base = None;
                inner.tail.clear();
                inner.applied = 0;
                inner.spilled = 0;
                inner.session = Some(Session::new(opts.clone()));
                return;
            };
            let panicked = inner
                .tail
                .iter()
                .enumerate()
                .find_map(|(i, (dialect, text))| {
                    let replay = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(any(test, feature = "faults"))]
                        if let Some(plan) = self.fault_plan() {
                            plan.check_statement(text);
                        }
                        session.push_stream_tagged([(*dialect, &**text)]);
                    }));
                    replay
                        .err()
                        .map(|payload| (i, panic_message(payload.as_ref())))
                });
            let Some((i, message)) = panicked else {
                inner.session = Some(session);
                break;
            };
            let (dialect, text) = inner.tail.remove(i);
            // The quarantine sample says why the session was rebuilt.
            reason = None;
            self.quarantined_statements.fetch_add(1, Ordering::Relaxed);
            let mut samples = lock_or_recover(&self.quarantine_samples);
            if samples.len() < GAUGE_ERROR_SAMPLES {
                let (user, thread) = &tenant.key;
                let text: String = text.chars().take(120).collect();
                samples.push(format!(
                    "{user}/{thread} [{}] {text:?}: {message}",
                    dialect.name()
                ));
            }
        }
        // A transient panic: the rebuild replayed cleanly.
        if let Some(reason) = reason {
            self.sample_rebuild(tenant, reason);
        }
    }

    /// Startup recovery (runs on its own thread): for every tenant the journal scan
    /// surfaced, rehydrate its spill snapshot, queue the journal tail past the
    /// snapshot's applied watermark, and apply it through the supervised path.  Ingest
    /// is refused (`EnqueueError::Recovering`) until this completes, and `recovering`
    /// clears only on full completion — an aborted recovery must keep checkpoints (and
    /// their journal prunes) disabled.
    fn recover(&self, recovered: RecoveredLog) {
        let start = Instant::now();
        let mut tenants: Vec<_> = recovered.tenants.into_iter().collect();
        // Deterministic replay order (the per-tenant outcome is order-independent, but
        // determinism keeps counters and fault-injection hits reproducible).
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, tail) in tenants {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut guard = self.lock_shard(&self.shards[self.shard_of(&key)]);
            let tenant = self.resident(&mut guard, &key);
            let mut inner = self.lock_tenant(&tenant);
            // The base covers sequences below `applied`; the journal tail must continue
            // contiguously from there.  A gap means a lost or pruned segment — replaying
            // past it would silently mis-state the session, so the remainder is dropped
            // (and counted).
            let mut expected = inner.next_seq();
            let mut pushed = 0usize;
            let mut dropped = 0u64;
            for statement in tail {
                if statement.seq < expected {
                    continue;
                }
                if statement.seq > expected {
                    dropped += 1;
                    continue;
                }
                inner
                    .queue
                    .push_back((self.dialect_by_name(&statement.dialect), statement.text));
                pushed += 1;
                expected += 1;
            }
            drop(guard);
            self.queued_statements.fetch_add(pushed, Ordering::Relaxed);
            self.recovered_statements
                .fetch_add(pushed as u64, Ordering::Relaxed);
            self.recovery_dropped.fetch_add(dropped, Ordering::Relaxed);
            self.recovered_tenants.fetch_add(1, Ordering::Relaxed);
            self.apply_supervised(&tenant, &mut inner);
        }
        self.last_recovery_us
            .store(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.recovering.store(false, Ordering::Release);
    }

    /// Maps a journal dialect name back to a registered dialect; unknown names (a
    /// registry that shrank between processes) fall back to the unrecognized dialect,
    /// which parses nothing but counts and samples — the statement is preserved in the
    /// tail rather than silently dropped.
    fn dialect_by_name(&self, name: &str) -> pi_ast::Dialect {
        self.known_dialects
            .iter()
            .copied()
            .find(|d| d.name() == name)
            .unwrap_or(crate::wire::UNRECOGNIZED_DIALECT)
    }

    /// Runs a checkpoint: seal the journal's active segment, run the spill step on every
    /// tenant (resident or evicted) that changed since its last durable spill, and — only
    /// if *every* tenant is then durably covered — prune the sealed segments.  Incomplete
    /// checkpoints leave the journal intact: recovery replays more than strictly
    /// necessary, never less.  Returns whether the full checkpoint (including the prune)
    /// completed.
    pub fn checkpoint(&self) -> bool {
        let Some(journal) = &self.journal else {
            return false;
        };
        if self.recovering.load(Ordering::Acquire) {
            return false;
        }
        // One checkpoint at a time; a second caller's work is already being done.
        let Ok(_running) = self.checkpoint_lock.try_lock() else {
            return false;
        };
        if journal.rotate_all().is_err() {
            return false;
        }
        let mut all_durable = true;
        for shard in &self.shards {
            let tenants = tenants(&self.lock_shard(shard));
            for tenant in tenants {
                let mut inner = self.lock_tenant(&tenant);
                all_durable &= self.spill(&tenant, &mut inner);
            }
        }
        if all_durable {
            let pruned = journal.prune();
            self.pruned_segments.fetch_add(pruned, Ordering::Relaxed);
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        all_durable
    }

    /// True while startup recovery is still replaying the journal.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::Acquire)
    }

    /// Blocks until startup recovery has finished (immediately for a pool without
    /// durability, or once `close`/`simulate_crash` has begun shutting down).
    pub fn wait_ready(&self) {
        while self.recovering.load(Ordering::Acquire) && !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// `None` when the pool is ready for traffic; otherwise why it is not — still
    /// recovering, journal failed, or the apply backlog over the high-water mark.  The
    /// HTTP readiness endpoint turns `Some` into `503 + Retry-After`.
    pub fn readiness_blocker(&self) -> Option<String> {
        if self.recovering.load(Ordering::Acquire) {
            return Some("recovering: replaying the write-ahead journal".to_string());
        }
        if self.journal.as_ref().is_some_and(Journal::is_failed) {
            return Some("write-ahead journal failed; restart to recover".to_string());
        }
        if let Some(high_water) = self.opts.ready_high_water {
            let queued = self.queued_statements.load(Ordering::Relaxed);
            if queued >= high_water {
                return Some(format!(
                    "ingest backlog {queued} statements >= high water {high_water}"
                ));
            }
        }
        None
    }

    /// Whether the pool is ready for traffic; see [`SessionPool::readiness_blocker`].
    pub fn is_ready(&self) -> bool {
        self.readiness_blocker().is_none()
    }

    /// Simulates a process crash for the crash-recovery suite: the workers stop where
    /// they stand, in-memory state is abandoned (the caller drops the pool without
    /// `close`, so nothing spills), and the journal truncates to its durable watermark
    /// plus the fault plan's torn tail — exactly what a kill leaves on disk.  Reopen a
    /// pool over the same directory to exercise recovery.
    #[cfg(any(test, feature = "faults"))]
    pub fn simulate_crash(&self) -> std::io::Result<()> {
        self.signal_shutdown();
        let recovery = lock_or_recover(&self.recovery_thread).take();
        if let Some(handle) = recovery {
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *lock_or_recover(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
        match &self.journal {
            Some(journal) => journal.simulate_crash(),
            None => Ok(()),
        }
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        // Workers hold an Arc each, so by the time the last Arc drops they have exited;
        // this path matters only for pools closed without `close()` — make it safe anyway.
        self.signal_shutdown();
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("shards", &self.shards.len())
            .field("capacity", &self.opts.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Dialect;

    fn pool(capacity: usize, shards: usize, queue_depth: usize) -> Arc<SessionPool> {
        SessionPool::new(PoolOptions {
            capacity,
            shards,
            queue_depth,
            workers: 2,
            ..PoolOptions::default()
        })
    }

    fn sql(i: usize) -> String {
        format!("SELECT a FROM t WHERE x = {i}")
    }

    #[test]
    fn enqueue_then_snapshot_reads_your_writes() {
        let pool = pool(8, 2, 64);
        for i in 0..4 {
            pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(i).as_str())])
                .unwrap();
        }
        let snap = pool.snapshot("ada", "t1").expect("tenant exists");
        assert_eq!(snap.version, 4);
        assert_eq!(snap.interface.widgets().len(), 1);
        assert!(pool.snapshot("ada", "missing").is_none());
        pool.close();
    }

    #[test]
    fn tenants_are_isolated() {
        let pool = pool(8, 4, 64);
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        pool.enqueue_tagged(
            "ada",
            "t2",
            [
                (Dialect::SQL, sql(2).as_str()),
                (Dialect::SQL, sql(3).as_str()),
            ],
        )
        .unwrap();
        pool.enqueue_tagged(
            "bob",
            "t1",
            [(Dialect::FRAMES, "t.filter(x == 9).select(a)")],
        )
        .unwrap();
        assert_eq!(pool.snapshot("ada", "t1").unwrap().version, 1);
        assert_eq!(pool.snapshot("ada", "t2").unwrap().version, 2);
        let bob = pool.snapshot("bob", "t1").unwrap();
        assert_eq!(bob.version, 1);
        assert_eq!(bob.dialects, vec![Dialect::FRAMES]);
        pool.close();
    }

    #[test]
    fn full_queues_reject_whole_batches() {
        let pool = pool(4, 1, 3);
        // Stall application by never snapshotting and filling faster than workers drain:
        // use a tenant the workers cannot outpace deterministically — flush-free check on
        // the *bound*, not the race: a batch larger than the bound always rejects.
        let batch: Vec<(Dialect, String)> = (0..4).map(|i| (Dialect::SQL, sql(i))).collect();
        let err = pool
            .enqueue_tagged("ada", "t1", batch.iter().map(|(d, t)| (*d, t.as_str())))
            .unwrap_err();
        assert!(matches!(err, EnqueueError::QueueFull { depth: 3, .. }));
        assert_eq!(pool.gauge().rejected_batches, 1);
        // Smaller batches still flow.
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(0).as_str())])
            .unwrap();
        assert_eq!(pool.snapshot("ada", "t1").unwrap().version, 1);
        pool.close();
    }

    #[test]
    fn eviction_archives_and_rehydration_replays_byte_identically() {
        // Capacity 2, one shard: touching a third tenant evicts the LRU.
        let pool = pool(2, 1, 64);
        let texts: Vec<String> = (0..6).map(sql).collect();
        for text in &texts {
            pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
        let before = pool.snapshot("ada", "t1").unwrap();
        let before_graph = pool.graph("ada", "t1").unwrap();
        // Bring in two more tenants; ada/t1 becomes LRU and is evicted.
        pool.enqueue_tagged("bob", "t1", [(Dialect::SQL, sql(0).as_str())])
            .unwrap();
        pool.flush("bob", "t1");
        pool.enqueue_tagged("cyd", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        pool.flush("cyd", "t1");
        assert!(pool.gauge().evictions >= 1);
        // The returning tenant rehydrates to a byte-identical snapshot.
        let after = pool.snapshot("ada", "t1").unwrap();
        assert!(pool.gauge().rehydrations >= 1);
        assert_eq!(after.version, before.version);
        assert_eq!(pool.graph("ada", "t1").unwrap(), before_graph);
        assert_eq!(after.graph_stats, before.graph_stats);
        assert_eq!(after.dialects, before.dialects);
        assert_eq!(after.skipped, before.skipped);
        assert_eq!(after.interface.describe(), before.interface.describe());
        // …and keeps ingesting from where it left off.
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(7).as_str())])
            .unwrap();
        assert_eq!(
            pool.snapshot("ada", "t1").unwrap().version,
            before.version + 1
        );
        pool.close();
    }

    #[test]
    fn eviction_archives_a_snapshot_and_rehydration_restores_it() {
        let pool = pool(2, 1, 64);
        for i in 0..5 {
            pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(i).as_str())])
                .unwrap();
        }
        let before = pool.snapshot("ada", "t1").unwrap();
        let before_graph = pool.graph("ada", "t1").unwrap();
        // Force ada/t1 out of its seat.
        pool.enqueue_tagged("bob", "t1", [(Dialect::SQL, sql(0).as_str())])
            .unwrap();
        pool.flush("bob", "t1");
        pool.enqueue_tagged("cyd", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        pool.flush("cyd", "t1");
        let evicted = pool.gauge();
        assert!(evicted.archived >= 1, "eviction must persist");
        assert!(evicted.snapshot_bytes > 0, "archive holds snapshot bytes");
        assert!(evicted.persist_ms >= 0.0);
        // The return trip deserializes the snapshot — no replay.
        let after = pool.snapshot("ada", "t1").unwrap();
        assert_eq!(after.version, before.version);
        assert_eq!(pool.graph("ada", "t1").unwrap(), before_graph);
        assert_eq!(after.interface.describe(), before.interface.describe());
        let rehydrated = pool.gauge();
        assert!(rehydrated.rehydrations >= 1);
        // The consumed snapshot left the archive; its bytes are no longer held.
        assert!(rehydrated.snapshot_bytes < evicted.snapshot_bytes || evicted.snapshot_bytes == 0);
        pool.close();
    }

    #[test]
    fn a_reopened_pool_removes_stale_spill_temp_files() {
        let dir = std::env::temp_dir().join(format!(
            "pi-pool-spill-temps-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PoolOptions {
            capacity: 4,
            shards: 1,
            queue_depth: 64,
            workers: 1,
            ..PoolOptions::default()
        };
        let pool = SessionPool::with_spill(opts.clone(), Some(dir.clone()));
        let key: TenantId = ("ada".to_string(), "t1".to_string());
        let path = pool.spill_path(&key).expect("the pool spills");
        let read = |pool: &SessionPool| match pool.read_spill(&key) {
            SpillRead::Loaded { applied, snapshot } => (applied, snapshot),
            _ => panic!("the spill reads back intact"),
        };
        assert!(pool.write_spill(&key, b"first image", 3));
        assert!(pool.write_spill(&key, b"second image", 5));
        assert_eq!(read(&pool), (5, b"second image".to_vec()));
        pool.close();
        drop(pool);

        // Temp files of writes a killed process left unfinished, in this and the older
        // numbered form, are gone once a pool reopens the directory.
        let stale = [
            path.with_extension("pisnap.7.tmp"),
            path.with_extension("pisnap.tmp"),
        ];
        for tmp in &stale {
            std::fs::write(tmp, b"torn spill").unwrap();
        }
        let reopened = SessionPool::with_spill(opts, Some(dir.clone()));
        assert!(stale.iter().all(|tmp| !tmp.exists()));
        assert_eq!(read(&reopened), (5, b"second image".to_vec()));
        reopened.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_directory_rehydrates_across_pool_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "pi-pool-spill-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PoolOptions {
            capacity: 4,
            shards: 1,
            queue_depth: 64,
            workers: 1,
            ..PoolOptions::default()
        };
        // First process lifetime: ingest, then close (which spills residents).
        let first = SessionPool::with_spill(opts.clone(), Some(dir.clone()));
        for i in 0..4 {
            first
                .enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(i).as_str())])
                .unwrap();
        }
        let before = first.snapshot("ada", "t1").unwrap();
        let before_graph = first.graph("ada", "t1").unwrap();
        first.close();
        drop(first);
        // Second lifetime over the same directory: the tenant's full state is back.
        let second = SessionPool::with_spill(opts.clone(), Some(dir.clone()));
        let after = second
            .snapshot("ada", "t1")
            .expect("spilled tenant is known after restart");
        assert_eq!(after.version, before.version);
        assert_eq!(second.graph("ada", "t1").unwrap(), before_graph);
        assert_eq!(after.interface.describe(), before.interface.describe());
        assert!(second.gauge().rehydrations >= 1);
        // …and keeps ingesting from where it left off.
        second
            .enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(9).as_str())])
            .unwrap();
        assert_eq!(
            second.snapshot("ada", "t1").unwrap().version,
            before.version + 1
        );
        second.close();
        // A pool without spill does not know the tenant.
        let cold = SessionPool::new(opts);
        assert!(cold.snapshot("ada", "t1").is_none());
        cold.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_files_fall_back_cleanly() {
        let dir = std::env::temp_dir().join(format!(
            "pi-pool-corrupt-spill-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PoolOptions {
            capacity: 4,
            shards: 1,
            queue_depth: 64,
            workers: 1,
            ..PoolOptions::default()
        };
        let first = SessionPool::with_spill(opts.clone(), Some(dir.clone()));
        first
            .enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        first.snapshot("ada", "t1").unwrap();
        first.close();
        drop(first);
        // Flip a byte in the middle of every spill file: the checksum must reject it and
        // the tenant reads as unknown (no state to fall back on across a restart), never
        // a panic or a silently wrong session.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, bytes).unwrap();
        }
        let second = SessionPool::with_spill(opts, Some(dir.clone()));
        // Restore fails integrity; the spill is quarantined and the pool treats the tenant
        // as new — a fresh, empty session.
        let snap = second.snapshot("ada", "t1").expect("spill file exists");
        assert_eq!(snap.version, 0);
        assert!(second.gauge().spill_quarantines >= 1);
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_statements_skip_and_count() {
        let pool = pool(4, 1, 64);
        pool.enqueue_tagged(
            "ada",
            "t1",
            [
                (Dialect::SQL, sql(1).as_str()),
                (Dialect::SQL, "THIS IS NOT SQL"),
                (crate::wire::UNRECOGNIZED_DIALECT, "SELECT ?s WHERE { }"),
            ],
        )
        .unwrap();
        let snap = pool.snapshot("ada", "t1").unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.skipped, 2);
        let gauge = pool.gauge();
        assert_eq!(gauge.skipped, 2);
        // The gauge carries what was skipped, not just how much: one sample per failure
        // here (both under the per-session cap), each naming its dialect.
        assert_eq!(gauge.parse_error_samples.len(), 2);
        assert!(gauge.parse_error_samples[0].contains("sql"));
        assert!(gauge.parse_error_samples[1].contains("unrecognized"));
        pool.close();
    }

    #[test]
    fn gauge_error_samples_stay_bounded_under_a_garbage_flood() {
        let pool = pool(4, 1, 1024);
        let garbage: Vec<(Dialect, String)> = (0..200)
            .map(|i| (Dialect::SQL, format!("%% not sql #{i} %%")))
            .collect();
        pool.enqueue_tagged("ada", "t1", garbage.iter().map(|(d, t)| (*d, t.as_str())))
            .unwrap();
        pool.flush("ada", "t1");
        let gauge = pool.gauge();
        assert_eq!(gauge.skipped, 200);
        assert!(!gauge.parse_error_samples.is_empty());
        assert!(gauge.parse_error_samples.len() <= GAUGE_ERROR_SAMPLES);
        pool.close();
    }

    #[test]
    fn gauge_tracks_occupancy_and_counters() {
        let pool = pool(8, 2, 64);
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        pool.enqueue_tagged("bob", "t1", [(Dialect::SQL, sql(2).as_str())])
            .unwrap();
        pool.flush("ada", "t1");
        pool.flush("bob", "t1");
        let gauge = pool.gauge();
        assert_eq!(gauge.occupancy, 2);
        assert_eq!(gauge.accepted, 2);
        assert_eq!(gauge.queries, 2);
        assert_eq!(gauge.queued, 0);
        assert!(gauge.mining_ms >= 0.0);
        pool.close();
    }

    #[test]
    fn close_drains_queues_and_rejects_new_work() {
        let pool = pool(4, 1, 64);
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        pool.close();
        assert_eq!(
            pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(2).as_str())]),
            Err(EnqueueError::ShuttingDown)
        );
        // The drained session kept the pre-shutdown statement.
        assert_eq!(pool.gauge().queries, 1);
        // close() is idempotent.
        pool.close();
    }

    #[test]
    fn workers_apply_in_the_background() {
        let pool = pool(4, 1, 1024);
        for i in 0..32 {
            pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(i).as_str())])
                .unwrap();
        }
        // Wait for the background workers (bounded, no sleep-forever).
        for _ in 0..200 {
            if pool.gauge().queued == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(pool.gauge().queued, 0);
        assert_eq!(pool.gauge().queries, 32);
        pool.close();
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pi-pool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_pool(capacity: usize, durability: DurabilityOptions) -> Arc<SessionPool> {
        SessionPool::with_spill(
            PoolOptions {
                capacity,
                shards: 1,
                queue_depth: 256,
                workers: 1,
                durability: Some(durability),
                ..PoolOptions::default()
            },
            None,
        )
    }

    /// Asserts that the pool's tenant `ada/t1` (read through the pool, so its queue is
    /// applied first) equals a solo session fed `statements`: same snapshot, same graph.
    fn assert_same(pool: &SessionPool, statements: &[String]) {
        let pooled = pool.snapshot("ada", "t1").expect("the tenant is known");
        let mut solo = Session::new(PiOptions::default());
        for text in statements {
            solo.push_stream_tagged([(Dialect::SQL, text)]);
        }
        let replayed = solo.snapshot();
        assert_eq!(pooled.version, replayed.version, "version");
        assert_eq!(pooled.skipped, replayed.skipped, "skipped");
        let pooled_graph = pool.graph("ada", "t1").expect("the tenant is known");
        assert_eq!(pooled_graph, solo.graph(), "graph");
        assert_eq!(pooled.interface.describe(), replayed.interface.describe());
    }

    #[test]
    fn journaled_restart_replays_every_acked_statement() {
        let dir = scratch("journal-restart");
        let first = durable_pool(4, DurabilityOptions::new(&dir));
        first.wait_ready();
        let script: Vec<String> = (0..7).map(sql).collect();
        for text in &script[..5] {
            first
                .enqueue_tagged("ada", "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
        // Mix applied and never-applied statements: the first five reach the session via
        // this snapshot, the last two are acked (journaled) but die queued in memory.
        first.snapshot("ada", "t1").unwrap();
        for text in &script[5..] {
            first
                .enqueue_tagged("ada", "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
        first.simulate_crash().unwrap();
        drop(first);
        let second = durable_pool(4, DurabilityOptions::new(&dir));
        second.wait_ready();
        assert_same(&second, &script);
        let gauge = second.gauge();
        assert!(!gauge.recovering);
        assert!(gauge.recovered_tenants >= 1);
        assert!(gauge.recovered_statements >= 2, "the queued tail replays");
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_prunes_journal_and_recovery_uses_the_snapshot() {
        let dir = scratch("checkpoint");
        let first = durable_pool(4, DurabilityOptions::new(&dir));
        first.wait_ready();
        let script: Vec<String> = (0..4).map(sql).collect();
        for text in &script {
            first
                .enqueue_tagged("ada", "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
        assert!(first.checkpoint(), "explicit checkpoint completes");
        let gauge = first.gauge();
        assert!(gauge.checkpoints >= 1);
        assert!(gauge.pruned_segments >= 1, "sealed segments were pruned");
        first.simulate_crash().unwrap();
        drop(first);
        let second = durable_pool(4, DurabilityOptions::new(&dir));
        second.wait_ready();
        // Everything was checkpointed, so recovery restores the spill and replays nothing.
        assert_eq!(second.gauge().recovered_statements, 0);
        assert_same(&second, &script);
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_statement_nested_too_deep_is_skipped_in_every_lifetime() {
        // One 10 KB statement: parsing it once overflowed the worker's stack and aborted
        // the process, and replaying it from the journal aborted every restart after it.
        let deep = format!(
            "SELECT a FROM t WHERE {}x = 1{}",
            "(".repeat(5_000),
            ")".repeat(5_000)
        );
        let script = vec![sql(1), sql(2), deep, sql(3), sql(4)];
        let dir = scratch("nesting");
        let first = durable_pool(4, DurabilityOptions::new(&dir));
        first.wait_ready();
        for text in &script {
            first
                .enqueue_tagged("ada", "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
        // Let the worker thread apply the queue, as it does in production.
        for _ in 0..400 {
            if first.gauge().queued == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_same(&first, &script);
        assert_eq!(first.snapshot("ada", "t1").unwrap().skipped, 1);
        first.simulate_crash().unwrap();
        drop(first);
        // The journal replays the statement on the recovery thread, which skips it again.
        let second = durable_pool(4, DurabilityOptions::new(&dir));
        second.wait_ready();
        assert!(second.gauge().recovered_statements >= 1);
        assert_same(&second, &script);
        assert_eq!(second.snapshot("ada", "t1").unwrap().skipped, 1);
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_statement_is_quarantined_and_the_rest_survive() {
        let dir = scratch("quarantine");
        let mut durability = DurabilityOptions::new(&dir);
        durability.faults = Some(Arc::new(FaultPlan::new().with_panic_marker("POISON")));
        let pool = durable_pool(4, durability);
        pool.wait_ready();
        pool.enqueue_tagged(
            "ada",
            "t1",
            [
                (Dialect::SQL, sql(1).as_str()),
                (Dialect::SQL, "SELECT POISON FROM t"),
                (Dialect::SQL, sql(2).as_str()),
            ],
        )
        .unwrap();
        // The snapshot's inline apply panics on the marker; the supervisor catches it,
        // rebuilds the session and quarantines only the offender.
        assert_same(&pool, &[sql(1), sql(2)]);
        let gauge = pool.gauge();
        assert!(gauge.worker_panics >= 1);
        assert!(gauge.session_rebuilds >= 1);
        assert_eq!(gauge.quarantined_statements, 1);
        assert!(
            gauge
                .quarantine_samples
                .iter()
                .any(|s| s.contains("POISON")),
            "sample names the offender: {:?}",
            gauge.quarantine_samples
        );
        // Later ingest keeps working on the rebuilt session.
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(3).as_str())])
            .unwrap();
        assert_same(&pool, &[sql(1), sql(2), sql(3)]);
        // A clean tail quarantines nothing and samples nothing: the tenant, rebuilt from
        // its three-statement tail on its next read, equals the same replay.
        assert_eq!(base_and_tail(&pool, "ada"), (false, 3));
        let samples = pool.gauge().quarantine_samples;
        pool.lock_tenant(&tenant(&pool, "ada")).session = None;
        assert_same(&pool, &[sql(1), sql(2), sql(3)]);
        let gauge = pool.gauge();
        assert_eq!(gauge.quarantined_statements, 1);
        assert_eq!(gauge.quarantine_samples, samples);
        pool.close();
        let _ = std::fs::remove_dir_all(&dir);

        // Two poisoned statements, at indices 1 and 3: each restart quarantines one, and
        // the session equals a clean replay of the other three.
        let dir = scratch("quarantine-two");
        let mut durability = DurabilityOptions::new(&dir);
        durability.faults = Some(Arc::new(FaultPlan::new().with_panic_marker("POISON")));
        let pool = durable_pool(4, durability);
        pool.wait_ready();
        pool.enqueue_tagged(
            "ada",
            "t1",
            [
                (Dialect::SQL, sql(1).as_str()),
                (Dialect::SQL, "SELECT POISON1 FROM t"),
                (Dialect::SQL, sql(2).as_str()),
                (Dialect::SQL, "SELECT POISON2 FROM t"),
                (Dialect::SQL, sql(3).as_str()),
            ],
        )
        .unwrap();
        assert_same(&pool, &[sql(1), sql(2), sql(3)]);
        assert_eq!(base_and_tail(&pool, "ada"), (false, 3));
        let gauge = pool.gauge();
        assert_eq!(gauge.quarantined_statements, 2);
        assert_eq!(gauge.quarantine_samples.len(), 2);
        for (sample, marker) in gauge.quarantine_samples.iter().zip(["POISON1", "POISON2"]) {
            assert!(
                sample.contains(marker) && sample.contains("injected fault"),
                "samples name the offenders in order, with the panic: {sample}"
            );
        }
        pool.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_quarantines_and_falls_back_to_journal_replay() {
        let dir = scratch("spill-fallback");
        let first = durable_pool(1, DurabilityOptions::new(&dir));
        first.wait_ready();
        let script: Vec<String> = (0..3).map(sql).collect();
        for text in &script {
            first
                .enqueue_tagged("ada", "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
        // Capacity one: a second tenant evicts ada, writing her spill snapshot.
        first
            .enqueue_tagged("bob", "t1", [(Dialect::SQL, sql(9).as_str())])
            .unwrap();
        first.simulate_crash().unwrap();
        drop(first);
        // Flip a byte inside every spill snapshot (journal segments stay intact).
        let mut flipped = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "pisnap") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
                std::fs::write(&path, bytes).unwrap();
                flipped += 1;
            }
        }
        assert!(flipped >= 1, "eviction spilled at least one snapshot");
        let second = durable_pool(4, DurabilityOptions::new(&dir));
        second.wait_ready();
        // The corrupt snapshot was quarantined aside and the un-pruned journal replayed
        // the tenant's full history instead.
        assert_same(&second, &script);
        let gauge = second.gauge();
        assert!(gauge.spill_quarantines >= 1);
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| e.path().to_string_lossy().ends_with(".corrupt")),
            "the corrupt snapshot is preserved under .corrupt for forensics"
        );
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_failure_stops_acks_and_readiness() {
        let dir = scratch("journal-fail");
        let mut durability = DurabilityOptions::new(&dir);
        durability.faults = Some(Arc::new(
            FaultPlan::new().with_io_error(FaultOp::JournalAppend, 2),
        ));
        let pool = durable_pool(4, durability);
        pool.wait_ready();
        assert!(pool.is_ready());
        pool.enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(1).as_str())])
            .unwrap();
        let err = pool
            .enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(2).as_str())])
            .unwrap_err();
        assert!(matches!(err, EnqueueError::Journal(_)), "{err}");
        // Fail-stop: the journal stays failed, later batches are refused and readiness
        // reports the blocker.
        let err = pool
            .enqueue_tagged("ada", "t1", [(Dialect::SQL, sql(3).as_str())])
            .unwrap_err();
        assert!(matches!(err, EnqueueError::Journal(_)), "{err}");
        let blocker = pool.readiness_blocker().expect("journal failure blocks");
        assert!(blocker.contains("journal"), "{blocker}");
        assert!(pool.gauge().journal.expect("journaled pool").failed);
        pool.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backlog_high_water_blocks_readiness() {
        // A zero high-water mark is always crossed: deterministic stand-in for "the apply
        // backlog outgrew the bound", without racing the worker's drain.
        let pool = SessionPool::new(PoolOptions {
            capacity: 4,
            shards: 1,
            queue_depth: 256,
            workers: 1,
            ready_high_water: Some(0),
            ..PoolOptions::default()
        });
        let blocker = pool.readiness_blocker().expect("zero mark always blocks");
        assert!(blocker.contains("high water"), "{blocker}");
        assert!(!pool.is_ready());
        pool.close();
        // And without the knob, an idle pool is simply ready.
        let plain = self::pool(4, 1, 64);
        assert!(plain.is_ready());
        assert_eq!(plain.readiness_blocker(), None);
        plain.close();
    }

    /// Enqueues each text as its own single-statement batch.
    fn push(pool: &SessionPool, user: &str, texts: &[String]) {
        for text in texts {
            pool.enqueue_tagged(user, "t1", [(Dialect::SQL, text.as_str())])
                .unwrap();
        }
    }

    /// A resident tenant, for tests that inspect or hold its state.
    fn tenant(pool: &SessionPool, user: &str) -> Arc<Tenant> {
        let key: TenantId = (user.to_string(), "t1".to_string());
        let guard = pool.lock_shard(&pool.shards[pool.shard_of(&key)]);
        Arc::clone(&guard.tenants[&key].tenant)
    }

    /// Whether the tenant has a base, and the length of its tail.
    fn base_and_tail(pool: &SessionPool, user: &str) -> (bool, usize) {
        let tenant = tenant(pool, user);
        let inner = pool.lock_tenant(&tenant);
        (inner.base.is_some(), inner.tail.len())
    }

    #[test]
    fn failed_eviction_spill_is_retried_before_the_journal_is_pruned() {
        let dir = scratch("stale-spill");
        let mut durability = DurabilityOptions::new(&dir);
        let plan = FaultPlan::new().with_io_error(FaultOp::SpillWrite, 2);
        durability.faults = Some(Arc::new(plan));
        let first = durable_pool(1, durability);
        first.wait_ready();
        let script: Vec<String> = (0..5).map(sql).collect();
        push(&first, "ada", &script[..3]);
        assert!(first.checkpoint(), "the first spill write lands");
        push(&first, "ada", &script[3..]);
        // Capacity one: bob's first statement evicts ada, and her spill write (the second)
        // fails, leaving only the spill of her first three statements on disk.  The next
        // checkpoint prunes the journal, so it must first re-spill ada.
        push(&first, "bob", &[sql(9)]);
        first.checkpoint();
        first.simulate_crash().unwrap();
        drop(first);
        let second = durable_pool(1, DurabilityOptions::new(&dir));
        second.wait_ready();
        assert_same(&second, &script);
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_retries_a_failed_eviction_spill_without_a_journal() {
        let dir = scratch("close-retries-eviction");
        let opts = PoolOptions {
            capacity: 1,
            shards: 1,
            queue_depth: 64,
            workers: 1,
            ..PoolOptions::default()
        };
        let first = SessionPool::with_spill(opts.clone(), Some(dir.clone()));
        let script: Vec<String> = (0..3).map(sql).collect();
        push(&first, "ada", &script);
        // A regular file in the spill directory's place fails every spill write, whatever
        // the user's permissions: bob's arrival evicts ada, and her spill write fails.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        push(&first, "bob", &[sql(9)]);
        assert_eq!(first.gauge().evictions, 1);
        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        first.close();
        drop(first);
        let second = SessionPool::with_spill(opts, Some(dir.clone()));
        assert_same(&second, &script);
        second.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Persists ada's first three statements by `persist`, then sends two more around a
    /// statement that panics the miner: the rebuild restores the persisted base and
    /// replays the tail without the offender.
    fn quarantine_rebuilds_from_the_base(tag: &str, capacity: usize, persist: fn(&SessionPool)) {
        let dir = scratch(tag);
        let mut durability = DurabilityOptions::new(&dir);
        durability.faults = Some(Arc::new(FaultPlan::new().with_panic_marker("POISON")));
        let pool = durable_pool(capacity, durability);
        pool.wait_ready();
        let good: Vec<String> = (0..5).map(sql).collect();
        push(&pool, "ada", &good[..3]);
        persist(&pool);
        assert_eq!(
            base_and_tail(&pool, "ada"),
            (true, 0),
            "persisting clears the tail"
        );
        let poison = "SELECT POISON FROM t".to_string();
        push(&pool, "ada", &[good[3].clone(), poison, good[4].clone()]);
        assert_same(&pool, &good);
        assert_eq!(pool.gauge().quarantined_statements, 1);
        assert_eq!(base_and_tail(&pool, "ada"), (true, 2));
        pool.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_after_a_checkpoint_rebuilds_from_its_snapshot() {
        quarantine_rebuilds_from_the_base("quarantine-checkpoint", 4, |pool| {
            assert!(pool.checkpoint());
        });
    }

    #[test]
    fn quarantine_after_eviction_rebuilds_from_the_archived_snapshot() {
        quarantine_rebuilds_from_the_base("quarantine-evicted", 1, |pool| {
            // Capacity one: bob evicts ada, and ada's return evicts bob.
            push(pool, "bob", &[sql(9)]);
            assert_eq!(pool.snapshot("ada", "t1").unwrap().version, 3);
            assert!(pool.gauge().rehydrations >= 1);
        });
    }

    #[test]
    fn checkpoints_and_close_spill_only_changed_tenants() {
        let dir = scratch("dirty-only");
        let plan = Arc::new(FaultPlan::new());
        let mut durability = DurabilityOptions::new(&dir);
        durability.faults = Some(Arc::clone(&plan));
        let pool = durable_pool(8, durability);
        pool.wait_ready();
        let users = ["ada", "bob", "cyd", "dee", "eve"];
        for (i, user) in users.iter().enumerate() {
            push(&pool, user, &[sql(i)]);
        }
        assert!(pool.checkpoint());
        assert_eq!(plan.hit_count(FaultOp::SpillWrite), 5);
        for user in &users[..2] {
            push(&pool, user, &[sql(7)]);
        }
        assert!(pool.checkpoint());
        assert_eq!(plan.hit_count(FaultOp::SpillWrite), 7, "2 tenants changed");
        pool.close();
        assert_eq!(plan.hit_count(FaultOp::SpillWrite), 7, "none changed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The statements behind `tests/persistence.rs`'s golden snapshot: both dialects, a
    /// repeated shape and one garbage statement.
    fn golden_statements() -> Vec<(Dialect, &'static str)> {
        vec![
            (Dialect::SQL, "SELECT day, sales FROM t WHERE cty = 'USA'"),
            (Dialect::SQL, "SELECT day, costs FROM t WHERE cty = 'EUR'"),
            (Dialect::FRAMES, "t.filter(x == 2).select(day)"),
            (Dialect::SQL, "THIS IS NOT SQL"),
            (Dialect::SQL, "SELECT day, sales FROM t WHERE cty = 'USA'"),
            (Dialect::FRAMES, "t.filter(x == 9).select(day)"),
            (
                Dialect::SQL,
                "SELECT day, sales FROM t WHERE cty = 'CHN' ORDER BY day",
            ),
        ]
    }

    /// One batch of the journal fixture: user, base sequence and statements (thread `t1`).
    type Batch = (&'static str, u64, Vec<(Dialect, &'static str)>);

    /// The journal fixture's batches in append order.
    fn journal_batches() -> Vec<Batch> {
        let golden = golden_statements();
        let frames = [
            "t.filter(x == 1).select(a)",
            "t.filter(x == 2).select(a)",
            "t.filter(y == 2).select(a)",
        ];
        vec![
            ("ada", 0, golden[..3].to_vec()),
            (
                "bob",
                0,
                frames[..2].iter().map(|t| (Dialect::FRAMES, *t)).collect(),
            ),
            ("ada", 3, golden[3..].to_vec()),
            ("bob", 2, vec![(Dialect::FRAMES, frames[2])]),
        ]
    }

    /// The statements the journal fixture holds for `user`, in sequence order.
    fn journaled_statements(user: &str) -> Vec<(Dialect, &'static str)> {
        let batches = journal_batches().into_iter().filter(|b| b.0 == user);
        batches.flat_map(|b| b.2).collect()
    }

    /// The bytes of fixture `name` under `tests/fixtures/`, written by `generate` first
    /// when `PI_REGEN_GOLDEN` is set (as `tests/persistence.rs` regenerates its own).
    fn golden_fixture(name: &str, generate: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name);
        if std::env::var_os("PI_REGEN_GOLDEN").is_some() {
            std::fs::write(&path, generate()).unwrap();
        }
        std::fs::read(&path).unwrap_or_else(|_| {
            panic!("fixture {name} missing: generate it with PI_REGEN_GOLDEN=1 cargo test -p pi-server")
        })
    }

    /// Asserts that the pool's tenant `user/t1` serves what a fresh mine of `statements`
    /// serves: same version, skip count, graph and interface.
    fn assert_mines(pool: &SessionPool, user: &str, statements: &[(Dialect, &str)]) {
        let mut fresh = Session::new(PiOptions::default());
        fresh.push_stream_tagged(statements.iter().copied());
        let pooled = pool.snapshot(user, "t1").expect("the tenant is known");
        let mined = fresh.snapshot();
        assert_eq!(
            (pooled.version, pooled.skipped),
            (mined.version, mined.skipped)
        );
        assert_eq!(pool.graph(user, "t1").unwrap(), fresh.graph());
        assert_eq!(pooled.interface.describe(), mined.interface.describe());
    }

    #[test]
    fn a_spill_file_from_an_earlier_build_restores() {
        let key: TenantId = ("ada".to_string(), "t1".to_string());
        let bytes = golden_fixture("tenant_spill.pisnap", || {
            let dir = scratch("spill-fixture-regen");
            let pool = durable_pool(4, DurabilityOptions::new(&dir));
            pool.wait_ready();
            pool.enqueue_tagged("ada", "t1", golden_statements())
                .unwrap();
            assert!(pool.checkpoint());
            let bytes = std::fs::read(pool.spill_path(&key).unwrap()).unwrap();
            pool.close();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        });
        let dir = scratch("spill-fixture");
        let pool = durable_pool(4, DurabilityOptions::new(&dir));
        pool.wait_ready();
        std::fs::write(pool.spill_path(&key).unwrap(), &bytes).unwrap();
        let SpillRead::Loaded { applied, snapshot } = pool.read_spill(&key) else {
            panic!("the fixture reads as ada/t1's spill");
        };
        assert_eq!(applied, golden_statements().len() as u64);
        assert_mines(&pool, "ada", &golden_statements());
        let ada = tenant(&pool, "ada");
        assert_eq!(pool.lock_tenant(&ada).next_seq(), applied);
        // Writing the spill read back reproduces the fixture's bytes.
        let again = SessionPool::with_spill(PoolOptions::default(), Some(dir.join("rewritten")));
        assert!(again.write_spill(&key, &snapshot, applied));
        assert_eq!(
            std::fs::read(again.spill_path(&key).unwrap()).unwrap(),
            bytes
        );
        again.close();
        pool.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_segment_from_an_earlier_build_replays() {
        const SEGMENT: &str = "shard000-0000000000.wal";
        let bytes = golden_fixture(SEGMENT, || {
            let dir = scratch("journal-fixture-regen");
            let pool = durable_pool(4, DurabilityOptions::new(&dir));
            pool.wait_ready();
            for (user, _, statements) in journal_batches() {
                pool.enqueue_tagged(user, "t1", statements).unwrap();
            }
            pool.simulate_crash().unwrap();
            drop(pool);
            let bytes = std::fs::read(dir.join(SEGMENT)).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        });
        // The writer frames each batch into the fixture's bytes.
        let mut framed = Vec::new();
        for (user, seq, statements) in journal_batches() {
            let statements: Vec<_> = statements.into_iter().map(|(d, t)| (d, t.into())).collect();
            let record = crate::journal::encode_batch_record(user, "t1", seq, &statements);
            framed.extend(pi_ast::codec::record_frame(&record));
        }
        assert_eq!(framed, bytes);

        let dir = scratch("journal-fixture");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SEGMENT), &bytes).unwrap();
        let (journal, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        drop(journal);
        assert_eq!((recovered.records, recovered.statements), (4, 10));
        assert_eq!((recovered.torn_tails, recovered.discarded_bytes), (0, 0));
        assert_eq!(recovered.tenants.len(), 2);
        for user in ["ada", "bob"] {
            let tail = &recovered.tenants[&(user.to_string(), "t1".to_string())];
            let read: Vec<_> = tail
                .iter()
                .map(|s| (s.seq, s.dialect.as_str(), &*s.text))
                .collect();
            let written: Vec<_> = journaled_statements(user)
                .into_iter()
                .enumerate()
                .map(|(seq, (dialect, text))| (seq as u64, dialect.name(), text))
                .collect();
            assert_eq!(read, written, "{user}'s tail");
        }
        // A pool opened over the segment replays both tenants to what mining gives.
        let pool = durable_pool(4, DurabilityOptions::new(&dir));
        pool.wait_ready();
        assert_eq!(pool.gauge().recovered_statements, 10);
        for user in ["ada", "bob"] {
            assert_mines(&pool, user, &journaled_statements(user));
        }
        pool.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_tenant_lock_is_recovered_once() {
        let pool = pool(4, 1, 64);
        push(&pool, "ada", &[sql(1), sql(2)]);
        pool.flush("ada", "t1");
        let ada = tenant(&pool, "ada");
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _inner = ada.inner.lock().unwrap();
                panic!("a panic while holding ada's lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(ada.inner.is_poisoned());
        for _ in 0..4 {
            pool.gauge();
        }
        for _ in 0..2 {
            assert_eq!(pool.snapshot("ada", "t1").unwrap().version, 2);
        }
        let gauge = pool.gauge();
        assert_eq!(gauge.lock_poison_recoveries, 1);
        assert!(gauge.session_rebuilds <= 1, "{}", gauge.session_rebuilds);
        pool.close();
    }

    #[test]
    fn gauge_does_not_block_a_shard_behind_a_busy_tenant() {
        let pool = pool(4, 1, 64);
        push(&pool, "ada", &[sql(1)]);
        let ada = tenant(&pool, "ada");
        // Holding ada's lock stands in for a long apply.
        let busy = pool.lock_tenant(&ada);
        let pool = &pool;
        std::thread::scope(|scope| {
            let gauge = scope.spawn(move || pool.gauge());
            // No hook inside `gauge` can signal that it waits on ada; give it time to.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let (sent, received) = std::sync::mpsc::channel();
            scope.spawn(move || {
                sent.send(pool.enqueue_tagged("bob", "t1", [(Dialect::SQL, sql(2))]))
            });
            let enqueued = received.recv_timeout(std::time::Duration::from_secs(2));
            drop(busy);
            assert_eq!(enqueued, Ok(Ok(1)), "bob's enqueue waited on the gauge");
            gauge.join().unwrap();
        });
        pool.close();
    }
}
