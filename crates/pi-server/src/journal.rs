//! The write-ahead ingest journal: one active segment, group-committed.
//!
//! ## Why
//!
//! Spill snapshots are event-driven (eviction, shutdown, checkpoint) — on their own, a
//! crash between events silently loses every statement acknowledged since the last one.
//! The journal closes that window with the classic WAL discipline: each accepted batch is
//! appended as a checksummed, length-prefixed record (the [`pi_ast::codec`] record frame)
//! and **fsynced before the batch is acknowledged**, so an ACK means the bytes needed to
//! reconstruct the statement are on disk.
//!
//! ## Layout
//!
//! One append-only segment file is active at a time, named by its epoch
//! (`shard000-EEEEEEEEEE.wal`; the `shardNNN` prefix is left from when the journal kept one
//! segment per pool shard, and a directory written in that layout still recovers).  Each
//! record's payload carries `(user, thread, base sequence number, statements)`; every
//! tenant's records appear in sequence order because the append happens under the tenant
//! lock, atomically with sequence assignment.
//!
//! **Group commit**: the append (buffered write) and the fsync are split.  Appends from
//! every tenant accumulate while one committer holds the sync lock inside `sync_data`;
//! when it finishes, it publishes the durable watermark and every batch at or below it
//! acknowledges without issuing its own fsync.
//!
//! **Checkpointing**: [`Journal::rotate_all`] seals the active segment (fsync, then new
//! epoch) and the pool persists every tenant's session snapshot; once *all* snapshots are
//! durable, [`Journal::prune`] deletes the sealed segments.  Snapshots record each
//! tenant's applied sequence number, so replaying an un-pruned segment over a newer
//! snapshot is idempotent — recovery skips records below the snapshot's watermark —
//! which is what makes the truncation crash-safe without a global LSN.
//!
//! **Recovery**: [`Journal::open`] scans every existing segment in epoch order through
//! the tolerant record scanner: torn or corrupt trailing records (a crash mid-append, a
//! partial sector flush) are detected by length + checksum validation and discarded —
//! never replayed — and everything before them is returned grouped per tenant, sorted by
//! sequence number, for the pool to replay through the normal ingest path.

use pi_ast::codec::{self, CodecError, RecordScanner};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[cfg(any(test, feature = "faults"))]
use crate::faults::{FaultOp, FaultPlan};

/// Configuration of the crash-safety layer (journal + checkpoints), carried by
/// `PoolOptions::durability`.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding journal segments and spill snapshots.  Created if missing.
    pub dir: PathBuf,
    /// Journal bytes accumulated since the last checkpoint that trigger the next one
    /// (bounding both recovery time and disk growth).
    pub checkpoint_bytes: u64,
    /// Deterministic fault injection for the crash-recovery suite.
    #[cfg(any(test, feature = "faults"))]
    pub faults: Option<Arc<FaultPlan>>,
}

impl DurabilityOptions {
    /// Durability rooted at `dir`, checkpointing every 8 MiB of journal.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: dir.into(),
            checkpoint_bytes: 8 * 1024 * 1024,
            #[cfg(any(test, feature = "faults"))]
            faults: None,
        }
    }
}

/// A batch's position in the journal, returned by [`Journal::append`] and redeemed by
/// [`Journal::commit`] — the batch may be acknowledged once every byte up to `end` of
/// segment `epoch` is durable.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    epoch: u64,
    end: u64,
}

/// One statement recovered from the journal tail.
#[derive(Debug, Clone)]
pub struct RecoveredStatement {
    /// The tenant-local sequence number (statements numbered from 0 in accept order).
    pub seq: u64,
    /// The dialect name the statement was tagged with at ingest.
    pub dialect: String,
    /// The statement text.
    pub text: Arc<str>,
}

/// Everything [`Journal::open`] salvaged from the previous process's journal.
#[derive(Debug, Default)]
pub struct RecoveredLog {
    /// Per-tenant replay tails, sorted by sequence number (duplicates — possible when a
    /// sealed segment outlived its checkpoint — keep the first instance).
    pub tenants: HashMap<(String, String), Vec<RecoveredStatement>>,
    /// Intact records scanned.
    pub records: u64,
    /// Statements carried by those records.
    pub statements: u64,
    /// Damage the scan stepped over, one count each: a segment whose scan stopped at a
    /// torn or corrupt record, a segment that could not be read, and a record whose frame
    /// verified but whose payload did not decode (the scan goes on past that record).
    pub torn_tails: u64,
    /// Bytes discarded as torn/corrupt (trailing bytes past the last intact record).
    pub discarded_bytes: u64,
    /// Journal bytes scanned (counts toward the first checkpoint trigger).
    pub bytes: u64,
}

/// Point-in-time journal counters for `/stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalStats {
    /// Records appended over the journal's lifetime.
    pub appended_records: u64,
    /// Bytes appended over the journal's lifetime.
    pub appended_bytes: u64,
    /// Fsyncs issued (group commit batches many records into each).
    pub syncs: u64,
    /// Bytes accumulated since the last checkpoint (drives the next trigger).
    pub unchecked_bytes: u64,
    /// True once a journal write or sync failed: the pool stops acknowledging new work
    /// (previously acked state stays durable) and readiness reports unready.
    pub failed: bool,
}

struct WalState {
    epoch: u64,
    file: Option<File>,
    path: Option<PathBuf>,
    /// Bytes written to the active segment (≥ the durable watermark).
    written: u64,
    /// Sealed (fsynced, rotated-out) segments, and those inherited from the previous
    /// process, awaiting a successful checkpoint's prune.
    sealed: Vec<PathBuf>,
}

/// The group-commit watermark: every byte of segment `epoch` up to `durable` is fsynced.
struct SyncState {
    epoch: u64,
    durable: u64,
}

/// The write-ahead journal; see the module docs.  Lock order is `sync → state` (commit
/// holds `sync` across the fsync while peeking `state` briefly); `append` takes only
/// `state`, so appends flow while a sync is in flight — that overlap *is* the group commit.
pub struct Journal {
    opts: DurabilityOptions,
    state: Mutex<WalState>,
    sync: Mutex<SyncState>,
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    syncs: AtomicU64,
    unchecked_bytes: AtomicU64,
    failed: AtomicBool,
}

/// The record tag for an ingest batch (room for future record kinds).
const TAG_BATCH: u8 = 1;

fn segment_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("shard000-{epoch:010}.wal"))
}

/// Fsyncs a directory, making the entries created or renamed in it durable: a file's own
/// fsync covers its bytes, not the name that reaches them.  A no-op off Unix, where a
/// directory cannot be opened as a file.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Parses `(shard, epoch)` out of a segment file name.
fn parse_segment_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("shard")?.strip_suffix(".wal")?;
    let (shard, epoch) = rest.split_once('-')?;
    Some((shard.parse().ok()?, epoch.parse().ok()?))
}

/// Encodes one batch record payload: tag, tenant key, base sequence number, statements.
pub(crate) fn encode_batch_record(
    user: &str,
    thread: &str,
    seq: u64,
    statements: &[(pi_ast::Dialect, Arc<str>)],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        32 + user.len()
            + thread.len()
            + statements
                .iter()
                .map(|(d, t)| d.name().len() + t.len() + 4)
                .sum::<usize>(),
    );
    let w = &mut buf;
    codec::put_u8(w, TAG_BATCH).expect("vec write");
    codec::put_str(w, user).expect("vec write");
    codec::put_str(w, thread).expect("vec write");
    codec::put_varint(w, seq).expect("vec write");
    codec::put_varint(w, statements.len() as u64).expect("vec write");
    for (dialect, text) in statements {
        codec::put_str(w, dialect.name()).expect("vec write");
        codec::put_str(w, text).expect("vec write");
    }
    buf
}

/// Decodes a batch record payload (the payload already passed the frame checksum, so a
/// failure here means a format break, not disk corruption — surfaced as `Corrupt`).
#[allow(clippy::type_complexity)]
fn decode_batch_record(
    payload: &[u8],
) -> Result<((String, String), u64, Vec<(String, Arc<str>)>), CodecError> {
    let r = &mut &*payload;
    let tag = codec::take_u8(r)?;
    if tag != TAG_BATCH {
        return Err(codec::corrupt(format!("unknown journal record tag {tag}")));
    }
    let user = codec::take_str(r)?;
    let thread = codec::take_str(r)?;
    let seq = codec::take_varint(r)?;
    let count = codec::take_count(r)?;
    let mut statements = Vec::with_capacity(count.min(r.len()));
    for _ in 0..count {
        let dialect = codec::take_str(r)?;
        let text: Arc<str> = codec::take_str(r)?.into();
        statements.push((dialect, text));
    }
    Ok(((user, thread), seq, statements))
}

impl Journal {
    /// Opens (or creates) the journal under `opts.dir`, first scanning every segment left
    /// by a previous process, under any shard number, into a [`RecoveredLog`].
    ///
    /// Scanned segments stay on disk — they are the durable source of truth until the
    /// first successful checkpoint prunes them — and new appends go to a fresh segment at
    /// an epoch above every recovered one.
    pub fn open(opts: DurabilityOptions) -> io::Result<(Journal, RecoveredLog)> {
        fs::create_dir_all(&opts.dir)?;
        let mut segments: Vec<(usize, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&opts.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some((shard, epoch)) = name.to_str().and_then(parse_segment_name) {
                segments.push((shard, epoch, entry.path()));
            }
        }
        // Deterministic scan order: epoch, then shard (per-tenant order is decided by the
        // sequence numbers inside the records; this only settles duplicate-seq ties).
        segments.sort_by_key(|a| (a.1, a.0));
        let mut recovered = RecoveredLog::default();
        for (_, _, path) in &segments {
            match fs::read(path) {
                Ok(bytes) => {
                    recovered.bytes += bytes.len() as u64;
                    let mut scan = RecordScanner::new(&bytes);
                    while let Some(payload) = scan.next_record() {
                        match decode_batch_record(payload) {
                            Ok((key, seq, statements)) => {
                                recovered.records += 1;
                                recovered.statements += statements.len() as u64;
                                let tail = recovered.tenants.entry(key).or_default();
                                for (i, (dialect, text)) in statements.into_iter().enumerate() {
                                    tail.push(RecoveredStatement {
                                        seq: seq + i as u64,
                                        dialect,
                                        text,
                                    });
                                }
                            }
                            Err(_) => {
                                // A verified frame that does not decode is a format break;
                                // skip the record, keep scanning the segment.
                                recovered.torn_tails += 1;
                            }
                        }
                    }
                    if scan.torn() {
                        recovered.torn_tails += 1;
                        recovered.discarded_bytes += scan.trailing_bytes() as u64;
                    }
                }
                Err(_) => {
                    // Unreadable segment: degrade to whatever the other segments hold.
                    recovered.torn_tails += 1;
                }
            }
        }
        for tail in recovered.tenants.values_mut() {
            tail.sort_by_key(|s| s.seq);
            tail.dedup_by_key(|s| s.seq);
        }
        let next_epoch = segments.iter().map(|s| s.1).max().map_or(0, |e| e + 1);
        let journal = Journal {
            state: Mutex::new(WalState {
                epoch: next_epoch,
                file: None,
                path: None,
                written: 0,
                sealed: segments.into_iter().map(|s| s.2).collect(),
            }),
            sync: Mutex::new(SyncState {
                epoch: next_epoch,
                durable: 0,
            }),
            appended_records: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            unchecked_bytes: AtomicU64::new(recovered.bytes),
            failed: AtomicBool::new(false),
            opts,
        };
        Ok((journal, recovered))
    }

    /// The options the journal runs with.
    pub fn options(&self) -> &DurabilityOptions {
        &self.opts
    }

    #[cfg(any(test, feature = "faults"))]
    fn fault(&self, op: FaultOp) -> io::Result<()> {
        match &self.opts.faults {
            Some(plan) => plan.hit(op),
            None => Ok(()),
        }
    }

    fn fail(&self, err: io::Error) -> io::Error {
        self.failed.store(true, Ordering::SeqCst);
        err
    }

    /// True once a journal write or sync has failed; the pool stops acknowledging.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Appends one record frame to the active segment, returning the [`Ticket`] to
    /// [`commit`](Journal::commit) before acknowledging.
    ///
    /// Callers invoke this under the tenant lock, together with sequence assignment and
    /// queue insertion — that is what makes a tenant's file order equal its sequence
    /// order.  Only the buffered write happens here; the fsync is the commit's.
    ///
    /// Any failure marks the whole journal failed: a partial append leaves bytes a later
    /// append would follow, so continuing could make recovery discard *good* records
    /// behind a bad prefix.  Fail-stop is the safe degradation.
    pub fn append(&self, payload: &[u8]) -> io::Result<Ticket> {
        if self.is_failed() {
            return Err(io::Error::other("journal is failed"));
        }
        let frame = codec::record_frame(payload);
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        #[cfg(any(test, feature = "faults"))]
        self.fault(FaultOp::JournalAppend)
            .map_err(|e| self.fail(e))?;
        if st.file.is_none() {
            let path = segment_path(&self.opts.dir, st.epoch);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| self.fail(e))?;
            // The commit's `sync_data` makes the records durable, but only this makes the
            // new segment's name durable.
            sync_dir(&self.opts.dir).map_err(|e| self.fail(e))?;
            st.path = Some(path);
            st.file = Some(file);
        }
        let file = st.file.as_mut().expect("active segment");
        file.write_all(&frame).map_err(|e| self.fail(e))?;
        st.written += frame.len() as u64;
        let ticket = Ticket {
            epoch: st.epoch,
            end: st.written,
        };
        drop(st);
        self.appended_records.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.unchecked_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Makes a ticket's bytes durable (group commit): returns once the durable watermark
    /// covers it, fsyncing at most once — a sync that was already in flight when the
    /// append landed covers it for free.
    pub fn commit(&self, ticket: Ticket) -> io::Result<()> {
        if self.is_failed() {
            return Err(io::Error::other("journal is failed"));
        }
        let mut sync = self.sync.lock().unwrap_or_else(|p| p.into_inner());
        if sync.epoch > ticket.epoch || (sync.epoch == ticket.epoch && sync.durable >= ticket.end) {
            return Ok(());
        }
        // Holding the sync lock through the fsync is the group commit: later committers
        // block here while their records (already appended) accumulate under this sync;
        // when it publishes the watermark they return without syncing.
        let (file, written, epoch) = {
            let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            if st.epoch > ticket.epoch {
                // The segment was sealed (rotation fsyncs before sealing): durable.
                if st.epoch > sync.epoch {
                    sync.epoch = st.epoch;
                    sync.durable = 0;
                }
                return Ok(());
            }
            let file = st
                .file
                .as_ref()
                .expect("ticket implies an active segment")
                .try_clone()
                .map_err(|e| self.fail(e))?;
            (file, st.written, st.epoch)
        };
        #[cfg(any(test, feature = "faults"))]
        self.fault(FaultOp::JournalSync).map_err(|e| self.fail(e))?;
        file.sync_data().map_err(|e| self.fail(e))?;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        if epoch > sync.epoch {
            sync.epoch = epoch;
            sync.durable = written;
        } else {
            sync.durable = sync.durable.max(written);
        }
        Ok(())
    }

    /// Seals the active segment (fsync, bump epoch) — step one of a checkpoint.  Sealed
    /// segments are deleted only by [`prune`](Journal::prune), after the checkpoint has
    /// made every tenant's snapshot durable.
    pub fn rotate_all(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(file) = &st.file {
            #[cfg(any(test, feature = "faults"))]
            self.fault(FaultOp::JournalSync).map_err(|e| self.fail(e))?;
            file.sync_data().map_err(|e| self.fail(e))?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
            st.file = None;
            if let Some(path) = st.path.take() {
                st.sealed.push(path);
            }
            st.epoch += 1;
            st.written = 0;
        }
        Ok(())
    }

    /// Deletes every sealed and recovered segment — step three of a checkpoint, only
    /// after every tenant's snapshot is durable.  Returns how many files were removed.
    pub fn prune(&self) -> u64 {
        // Taken out first, so that appends never wait on the deletions.
        let sealed =
            std::mem::take(&mut self.state.lock().unwrap_or_else(|p| p.into_inner()).sealed);
        let mut pruned = 0u64;
        for path in &sealed {
            if fs::remove_file(path).is_ok() {
                pruned += 1;
            }
        }
        self.unchecked_bytes.store(0, Ordering::Relaxed);
        pruned
    }

    /// Whether the bytes accumulated since the last checkpoint warrant the next one.
    pub fn should_checkpoint(&self) -> bool {
        self.unchecked_bytes.load(Ordering::Relaxed) >= self.opts.checkpoint_bytes
    }

    /// Point-in-time counters for `/stats`.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended_records: self.appended_records.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            unchecked_bytes: self.unchecked_bytes.load(Ordering::Relaxed),
            failed: self.is_failed(),
        }
    }

    /// Simulates the on-disk aftermath of a process crash: every *unsynced* byte of the
    /// active segment vanishes (lost page cache), except for a deterministic torn tail of
    /// up to the plan's `torn_keep` bytes (a partial sector flush).  Sealed and recovered
    /// segments were fsynced, so they survive whole.  The journal is unusable afterwards;
    /// the harness reopens a fresh pool over the directory.
    #[cfg(any(test, feature = "faults"))]
    pub fn simulate_crash(&self) -> io::Result<()> {
        self.failed.store(true, Ordering::SeqCst);
        let torn = self.opts.faults.as_ref().map_or(0, |plan| plan.torn_keep());
        let sync = self.sync.lock().unwrap_or_else(|p| p.into_inner());
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(file) = &st.file {
            let durable = if sync.epoch == st.epoch {
                sync.durable
            } else {
                0
            };
            let keep = durable + torn.min(st.written.saturating_sub(durable));
            file.set_len(keep)?;
            file.sync_data()?;
            st.written = keep;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.opts.dir)
            .field("failed", &self.is_failed())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Dialect;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pi-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn batch(texts: &[&str]) -> Vec<(Dialect, Arc<str>)> {
        texts
            .iter()
            .map(|t| (Dialect::SQL, Arc::from(*t)))
            .collect()
    }

    #[test]
    fn append_commit_reopen_round_trips_records() {
        let dir = tmp_dir("roundtrip");
        let (journal, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        assert!(recovered.tenants.is_empty());
        let b1 = batch(&["SELECT a FROM t", "SELECT b FROM t"]);
        let b2 = batch(&["SELECT c FROM u"]);
        let t1 = journal
            .append(&encode_batch_record("ada", "t1", 0, &b1))
            .unwrap();
        let t2 = journal
            .append(&encode_batch_record("bob", "t1", 0, &b2))
            .unwrap();
        let t3 = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                2,
                &batch(&["SELECT d FROM t"]),
            ))
            .unwrap();
        journal.commit(t1).unwrap();
        journal.commit(t2).unwrap();
        journal.commit(t3).unwrap();
        let stats = journal.stats();
        assert_eq!(stats.appended_records, 3);
        assert!(stats.syncs >= 1, "group commit still syncs at least once");
        drop(journal);

        let (journal, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        assert_eq!(recovered.records, 3);
        assert_eq!(recovered.statements, 4);
        assert_eq!(recovered.torn_tails, 0);
        let ada = &recovered.tenants[&("ada".to_string(), "t1".to_string())];
        assert_eq!(ada.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(&*ada[2].text, "SELECT d FROM t");
        assert_eq!(ada[0].dialect, "sql");
        let bob = &recovered.tenants[&("bob".to_string(), "t1".to_string())];
        assert_eq!(bob.len(), 1);
        drop(journal);
        let _ = fs::remove_dir_all(&dir);

        // Segments under several shard numbers, as a journal that kept one segment per pool
        // shard left them: every record recovers, and appends go to an epoch above them all.
        let layout = tmp_dir("per-shard-layout");
        fs::create_dir_all(&layout).unwrap();
        for (name, user, seq, text) in [
            ("shard000-0000000000.wal", "ada", 0, "SELECT a FROM t"),
            ("shard005-0000000000.wal", "bob", 0, "SELECT b FROM u"),
            ("shard005-0000000001.wal", "bob", 1, "SELECT c FROM u"),
            ("shard012-0000000001.wal", "ada", 1, "SELECT d FROM t"),
        ] {
            let record = encode_batch_record(user, "t1", seq, &batch(&[text]));
            fs::write(layout.join(name), codec::record_frame(&record)).unwrap();
        }
        let (journal, recovered) = Journal::open(DurabilityOptions::new(&layout)).unwrap();
        assert_eq!(recovered.records, 4);
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                2,
                &batch(&["SELECT e FROM t"]),
            ))
            .unwrap();
        journal.commit(t).unwrap();
        drop(journal);
        assert!(layout.join("shard000-0000000002.wal").exists());
        let (_, recovered) = Journal::open(DurabilityOptions::new(&layout)).unwrap();
        assert_eq!(recovered.records, 5);
        assert_eq!(recovered.torn_tails, 0);
        let seqs = |user: &str| -> Vec<u64> {
            recovered.tenants[&(user.to_string(), "t1".to_string())]
                .iter()
                .map(|s| s.seq)
                .collect()
        };
        assert_eq!(seqs("ada"), vec![0, 1, 2]);
        assert_eq!(seqs("bob"), vec![0, 1]);
        let _ = fs::remove_dir_all(&layout);
    }

    #[test]
    fn an_undecodable_record_is_skipped_and_the_scan_goes_on() {
        let dir = tmp_dir("undecodable");
        fs::create_dir_all(&dir).unwrap();
        let mut segment = codec::record_frame(&encode_batch_record(
            "ada",
            "t1",
            0,
            &batch(&["SELECT a FROM t"]),
        ));
        // A frame whose checksum verifies over a payload with an unknown tag.
        segment.extend(codec::record_frame(&[0xee, 1, 2, 3]));
        segment.extend(codec::record_frame(&encode_batch_record(
            "ada",
            "t1",
            1,
            &batch(&["SELECT b FROM t"]),
        )));
        fs::write(dir.join("shard000-0000000000.wal"), &segment).unwrap();
        let (_, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        assert_eq!(recovered.records, 2);
        assert_eq!(recovered.torn_tails, 1);
        assert_eq!(recovered.discarded_bytes, 0);
        let ada = &recovered.tenants[&("ada".to_string(), "t1".to_string())];
        let texts: Vec<&str> = ada.iter().map(|s| &*s.text).collect();
        assert_eq!(texts, ["SELECT a FROM t", "SELECT b FROM t"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_are_discarded_never_replayed() {
        let dir = tmp_dir("torn");
        let (journal, _) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                0,
                &batch(&["SELECT a FROM t"]),
            ))
            .unwrap();
        journal.commit(t).unwrap();
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                1,
                &batch(&["SELECT b FROM t"]),
            ))
            .unwrap();
        journal.commit(t).unwrap();
        drop(journal);
        // Tear the tail: truncate the single segment mid-record.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "wal"))
            .unwrap();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let (_, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        assert_eq!(recovered.records, 1);
        assert_eq!(recovered.torn_tails, 1);
        assert!(recovered.discarded_bytes > 0);
        let ada = &recovered.tenants[&("ada".to_string(), "t1".to_string())];
        assert_eq!(ada.len(), 1);
        assert_eq!(&*ada[0].text, "SELECT a FROM t");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_prune_deletes_them() {
        let dir = tmp_dir("rotate");
        let (journal, _) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                0,
                &batch(&["SELECT a FROM t"]),
            ))
            .unwrap();
        journal.commit(t).unwrap();
        journal.rotate_all().unwrap();
        // Post-rotation appends land in a fresh segment; the sealed one still exists.
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                1,
                &batch(&["SELECT b FROM t"]),
            ))
            .unwrap();
        journal.commit(t).unwrap();
        let wal_files = || {
            fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "wal"))
                .count()
        };
        assert_eq!(wal_files(), 2);
        assert_eq!(journal.prune(), 1);
        assert_eq!(wal_files(), 1);
        // Only the post-checkpoint record survives on disk.
        drop(journal);
        let (_, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        let ada = &recovered.tenants[&("ada".to_string(), "t1".to_string())];
        assert_eq!(ada.len(), 1);
        assert_eq!(ada[0].seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_fail_stop_the_journal() {
        let dir = tmp_dir("faults");
        let mut opts = DurabilityOptions::new(&dir);
        opts.faults = Some(Arc::new(
            FaultPlan::new().with_io_error(FaultOp::JournalSync, 1),
        ));
        let (journal, _) = Journal::open(opts).unwrap();
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                0,
                &batch(&["SELECT a FROM t"]),
            ))
            .unwrap();
        assert!(journal.commit(t).is_err());
        assert!(journal.is_failed());
        // Fail-stop: later appends are refused rather than risking a gapped log.
        assert!(journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                1,
                &batch(&["SELECT b FROM t"])
            ))
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_crash_drops_unsynced_bytes_but_keeps_a_torn_tail() {
        let dir = tmp_dir("crash");
        let mut opts = DurabilityOptions::new(&dir);
        opts.faults = Some(Arc::new(FaultPlan::new().with_torn_keep(7)));
        let (journal, _) = Journal::open(opts).unwrap();
        let t = journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                0,
                &batch(&["SELECT a FROM t"]),
            ))
            .unwrap();
        journal.commit(t).unwrap();
        // Appended but never committed: not durable.
        journal
            .append(&encode_batch_record(
                "ada",
                "t1",
                1,
                &batch(&["SELECT b FROM t"]),
            ))
            .unwrap();
        journal.simulate_crash().unwrap();
        let (_, recovered) = Journal::open(DurabilityOptions::new(&dir)).unwrap();
        let ada = &recovered.tenants[&("ada".to_string(), "t1".to_string())];
        assert_eq!(ada.len(), 1, "only the committed record survives");
        assert_eq!(recovered.torn_tails, 1, "the 7-byte torn tail is detected");
        assert_eq!(recovered.discarded_bytes, 7);
        let _ = fs::remove_dir_all(&dir);
    }
}
