//! # biot-store
//!
//! File-backed persistence for gateway replicas: a length-framed,
//! checksummed write-ahead log plus periodic snapshot files, with crash
//! recovery. This addresses the paper's "storage limitations" future-work
//! note (§VIII): combined with `Tangle::snapshot` pruning, a gateway's
//! disk footprint stays bounded while the replica survives restarts.
//!
//! ## Layout
//!
//! A store directory holds:
//!
//! * `snapshot.biot` — the last checkpoint (all rows of a
//!   [`TangleSnapshot`] in the wire codec, custom-framed). The
//!   `BIOTSNP2` format additionally records a *fold watermark* (the
//!   first WAL segment not yet folded in) and any credit events carried
//!   out of folded segments.
//! * `wal.biot`, `wal-000001.biot`, `wal-000002.biot`, … — the
//!   write-ahead log, split into numbered segments (`wal.biot` is
//!   segment 0). Appends go to the newest segment; once it exceeds
//!   [`StoreConfig::segment_bytes`] it is *sealed* and a fresh segment is
//!   started. Each segment carries its own magic. The `BIOTWAL2` format
//!   tags every record: tag 0 is a transaction
//!   (`[0][varint attach_ms][varint len][codec bytes]`), tag 1 is a
//!   credit event (`[1][varint len][biot_credit codec bytes]`) so
//!   behaviour evidence — including misbehaviour whose transactions never
//!   reached the tangle — survives a crash. A file with any other magic
//!   fails recovery with [`StoreError::CorruptSnapshot`].
//!
//! Recovery = restore the snapshot, then re-attach the records of every
//! segment at or past the watermark, in segment order. A torn final
//! record in the *newest* segment (crash mid-append) is detected by the
//! codec checksum and dropped; sealed segments must replay completely —
//! corruption there is an error, exactly as mid-file corruption was for
//! the single-file WAL. [`LedgerStore::recover_full`] returns the
//! replayed credit events alongside the tangle; feed them to
//! `Gateway::restore` so negative credit survives the restart.
//!
//! ## Incremental compaction
//!
//! [`LedgerStore::compact_step`] folds the *oldest sealed* segment into
//! the snapshot — transactions join the snapshot rows, credit events are
//! carried in the snapshot's credit section so replay order is preserved
//! — and advances the watermark. The commit point is the atomic snapshot
//! rename: a crash before the folded segment file is unlinked merely
//! leaves a stale segment that recovery (and the next compaction) skips
//! by watermark. Checkpointing thus becomes a continuous process:
//! bounded, background-able steps instead of one O(n) pause.
//! [`LedgerStore::maybe_checkpoint`] drives full checkpoints from a
//! [`CheckpointPolicy`] (WAL bytes / segment-count thresholds) so callers
//! stop hand-rolling `wal_size()` checks.
//!
//! ## Example
//!
//! ```
//! use biot_store::LedgerStore;
//! use biot_tangle::graph::Tangle;
//! use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
//!
//! let dir = std::env::temp_dir().join(format!("biot-doc-{}", std::process::id()));
//! let mut store = LedgerStore::open(&dir)?;
//!
//! let mut tangle = Tangle::new();
//! let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
//! store.checkpoint(&tangle)?;
//!
//! let tx = TransactionBuilder::new(NodeId([1; 32]))
//!     .parents(genesis, genesis)
//!     .payload(Payload::Data(b"reading".to_vec()))
//!     .build();
//! tangle.attach(tx.clone(), 5)?;
//! store.append(&tx, 5)?;
//!
//! let recovered = LedgerStore::open(&dir)?.recover()?.expect("state on disk");
//! assert_eq!(recovered.len(), tangle.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use biot_credit::event::{decode_event, encode_event, CreditCodecError, CreditEvent};
use biot_tangle::codec::{decode_tx, encode_tx, CodecError};
use biot_tangle::graph::{Tangle, TangleError};
use biot_tangle::snapshot::TangleSnapshot;
use biot_tangle::tx::{Transaction, TxId};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A stored transaction failed to decode (and was not the final,
    /// possibly-torn WAL record).
    Codec(CodecError),
    /// A stored credit event failed to decode (and was not the final,
    /// possibly-torn WAL record).
    CreditCodec(CreditCodecError),
    /// Replaying the log produced an inconsistent ledger.
    Replay(TangleError),
    /// The snapshot file is structurally invalid.
    CorruptSnapshot(&'static str),
    /// A mutating call on a store opened with
    /// [`LedgerStore::open_read_only`].
    ReadOnly,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o failure: {e}"),
            StoreError::Codec(e) => write!(f, "stored transaction corrupt: {e}"),
            StoreError::CreditCodec(e) => write!(f, "stored credit event corrupt: {e}"),
            StoreError::Replay(e) => write!(f, "log replay failed: {e}"),
            StoreError::CorruptSnapshot(what) => write!(f, "snapshot corrupt: {what}"),
            StoreError::ReadOnly => write!(f, "store opened read-only"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<CreditCodecError> for StoreError {
    fn from(e: CreditCodecError) -> Self {
        StoreError::CreditCodec(e)
    }
}

impl From<TangleError> for StoreError {
    fn from(e: TangleError) -> Self {
        StoreError::Replay(e)
    }
}

/// Snapshot: fold watermark + rows + pruned ids + carried credit
/// events (see the module docs on incremental compaction).
const SNAPSHOT_MAGIC: &[u8; 8] = b"BIOTSNP2";
/// WAL: tagged records (transactions + credit events).
const WAL_MAGIC: &[u8; 8] = b"BIOTWAL2";

/// Tag prefixing a transaction record in the WAL.
const WAL_TAG_TX: u8 = 0;
/// Tag prefixing a credit-event record in the WAL.
const WAL_TAG_CREDIT: u8 = 1;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for i in 0..10 {
        let byte = *input.get(*pos)?;
        *pos += 1;
        value |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

/// Tuning knobs for the on-disk layout.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Seal the active WAL segment and start a fresh one once it exceeds
    /// this many bytes. Default 4 MiB — large enough that short-lived
    /// stores behave exactly like the historical single-file WAL.
    pub segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// When [`LedgerStore::maybe_checkpoint`] should write a full checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint once the WAL (all segments together) reaches this many
    /// bytes. Default 1 MiB.
    pub max_wal_bytes: u64,
    /// Checkpoint once more than this many segments exist — incremental
    /// compaction keeps up under steady load, so hitting this means the
    /// log is outgrowing it. Default 4.
    pub max_segments: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            max_wal_bytes: 1024 * 1024,
            max_segments: 4,
        }
    }
}

/// Path of WAL segment `n` inside `dir`: segment 0 keeps the historical
/// name `wal.biot`, later segments are `wal-NNNNNN.biot`.
fn segment_path(dir: &Path, n: u64) -> PathBuf {
    if n == 0 {
        dir.join("wal.biot")
    } else {
        dir.join(format!("wal-{n:06}.biot"))
    }
}

/// Every WAL segment present in `dir`, sorted oldest first.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let legacy = dir.join("wal.biot");
    if legacy.exists() {
        out.push((0, legacy));
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".biot"))
        else {
            continue;
        };
        if num.len() == 6 && num.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = num.parse::<u64>() {
                if n > 0 {
                    out.push((n, entry.path()));
                }
            }
        }
    }
    out.sort_unstable_by_key(|(n, _)| *n);
    Ok(out)
}

/// A directory-backed ledger store: snapshot file + segmented write-ahead
/// log.
pub struct LedgerStore {
    dir: PathBuf,
    /// The active WAL segment's append handle; `None` for a store opened
    /// with [`LedgerStore::open_read_only`], which never touches the
    /// write path.
    wal: Option<File>,
    /// Number of the segment `wal` appends to (always the newest).
    active: u64,
    config: StoreConfig,
}

/// Decoded contents of a snapshot file.
struct SnapshotFile {
    tangle: Tangle,
    /// Credit events folded out of compacted WAL segments, in their
    /// original append order (they replay before every live segment).
    carried: Vec<CreditEvent>,
    /// First WAL segment *not* folded into this snapshot; segments below
    /// this number are stale leftovers of an interrupted compaction and
    /// must be ignored.
    next_segment: u64,
}

/// Everything [`LedgerStore::recover_full`] can replay from disk.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// The tangle, when any transaction state was on disk.
    pub tangle: Option<Tangle>,
    /// Credit events in append order.
    pub credit_events: Vec<CreditEvent>,
}

impl fmt::Debug for LedgerStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LedgerStore").field("dir", &self.dir).finish()
    }
}

impl LedgerStore {
    /// Opens (creating if needed) a store directory with default tuning.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_config(dir, StoreConfig::default())
    }

    /// Opens (creating if needed) a store directory.
    ///
    /// Appends resume on the newest existing WAL segment; a brand-new
    /// directory starts at segment 0 (`wal.biot`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let (active, wal_path, fresh) = match list_segments(&dir)?.pop() {
            Some((n, path)) => (n, path, false),
            None => (0, segment_path(&dir, 0), true),
        };
        let mut wal = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&wal_path)?;
        // An existing segment's magic is checked by recovery, not here.
        if fresh {
            wal.write_all(WAL_MAGIC)?;
            wal.sync_data()?;
        }
        Ok(Self {
            dir,
            wal: Some(wal),
            active,
            config,
        })
    }

    /// Opens an *existing* store directory for reading only — the mode an
    /// archival node serves queries from: snapshot + sealed segments are
    /// readable, but the WAL write path is never taken (no segment is
    /// created, no magic written, no append handle held). Every mutating
    /// call ([`append`](Self::append), [`checkpoint`](Self::checkpoint),
    /// [`compact_step`](Self::compact_step), …) fails with
    /// [`StoreError::ReadOnly`].
    ///
    /// [`recover_full`](Self::recover_full) additionally tolerates a
    /// *concurrent* writer's incremental compaction: if a segment file
    /// vanishes between the directory listing and its read (the
    /// compaction's atomic snapshot rename plus segment unlink), recovery
    /// restarts from the fresh snapshot instead of failing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory does not exist; other
    /// filesystem failures propagate.
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.is_dir() {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store directory {} does not exist", dir.display()),
            )));
        }
        Ok(Self {
            dir,
            wal: None,
            active: 0,
            config: StoreConfig::default(),
        })
    }

    /// Whether this handle was opened with
    /// [`open_read_only`](Self::open_read_only).
    pub fn is_read_only(&self) -> bool {
        self.wal.is_none()
    }

    /// Seals the active segment and starts the next one once it has
    /// outgrown [`StoreConfig::segment_bytes`]. Called after every append
    /// so a segment exceeds the threshold by at most one append call's
    /// records.
    fn roll_if_full(&mut self) -> Result<(), StoreError> {
        let wal = self.wal.as_ref().ok_or(StoreError::ReadOnly)?;
        if wal.metadata()?.len() < self.config.segment_bytes {
            return Ok(());
        }
        let next = self.active + 1;
        let path = segment_path(&self.dir, next);
        let mut f = File::create(&path)?;
        f.write_all(WAL_MAGIC)?;
        f.sync_data()?;
        self.wal = Some(OpenOptions::new().append(true).read(true).open(&path)?);
        self.active = next;
        Ok(())
    }

    /// Appends a freshly attached transaction to the WAL: a one-record
    /// [`append_batch`](Self::append_batch).
    ///
    /// # Errors
    ///
    /// As [`append_batch`](Self::append_batch).
    pub fn append(&mut self, tx: &Transaction, attach_ms: u64) -> Result<(), StoreError> {
        self.append_batch(&[(tx.clone(), attach_ms)])
    }

    /// Appends freshly attached `(transaction, attach_ms)` records to the
    /// WAL in order, as one group commit: one write, one sync, one segment
    /// roll check.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the batch may be torn
    /// anywhere, and recovery keeps the record-aligned prefix that reached
    /// the disk (the torn tail is dropped).
    pub fn append_batch(&mut self, batch: &[(Transaction, u64)]) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut record = Vec::new();
        for (tx, attach_ms) in batch {
            let body = encode_tx(tx);
            record.push(WAL_TAG_TX);
            write_varint(&mut record, *attach_ms);
            write_varint(&mut record, body.len() as u64);
            record.extend_from_slice(&body);
        }
        let wal = self.wal.as_mut().ok_or(StoreError::ReadOnly)?;
        wal.write_all(&record)?;
        wal.sync_data()?;
        self.roll_if_full()
    }

    /// Appends credit events to the WAL (one write, one sync), so the
    /// behaviour evidence behind every credit value is as durable as the
    /// transactions themselves.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append_credit_events(&mut self, events: &[CreditEvent]) -> Result<(), StoreError> {
        if events.is_empty() {
            return Ok(());
        }
        let mut record = Vec::new();
        for ev in events {
            let body = encode_event(ev);
            record.push(WAL_TAG_CREDIT);
            write_varint(&mut record, body.len() as u64);
            record.extend_from_slice(&body);
        }
        let wal = self.wal.as_mut().ok_or(StoreError::ReadOnly)?;
        wal.write_all(&record)?;
        wal.sync_data()?;
        self.roll_if_full()
    }

    /// Writes a full checkpoint of `tangle` and truncates the WAL.
    ///
    /// When a snapshot already exists and the WAL holds no records, this
    /// is a no-op: nothing was appended since the last checkpoint, so
    /// rewriting the snapshot would be pure i/o churn. (Status-only
    /// changes — confirmations on a quiet ledger — are re-derived by the
    /// gateway's refresh after recovery, so skipping them loses nothing
    /// durable.)
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. The snapshot is written to a
    /// temporary file and renamed, so a crash mid-checkpoint leaves the
    /// previous checkpoint intact.
    pub fn checkpoint(&mut self, tangle: &Tangle) -> Result<(), StoreError> {
        if self.wal.is_none() {
            return Err(StoreError::ReadOnly);
        }
        if self.dir.join("snapshot.biot").exists() && !self.has_wal_records()? {
            return Ok(());
        }
        self.write_snapshot_file(Some(tangle), &[], 0)?;
        // Drop every WAL segment and start a fresh segment 0. A crash
        // before the deletions finish merely leaves segments whose records
        // replay as duplicates, which recovery tolerates.
        for (_, path) in list_segments(&self.dir)? {
            fs::remove_file(&path)?;
        }
        let wal_path = segment_path(&self.dir, 0);
        let mut wal = File::create(&wal_path)?;
        wal.write_all(WAL_MAGIC)?;
        wal.sync_data()?;
        self.wal = Some(OpenOptions::new().append(true).read(true).open(&wal_path)?);
        self.active = 0;
        Ok(())
    }

    /// Whether any WAL segment holds at least one record (i.e. is more
    /// than a bare magic header).
    fn has_wal_records(&self) -> Result<bool, StoreError> {
        for (_, path) in list_segments(&self.dir)? {
            if fs::metadata(&path)?.len() > WAL_MAGIC.len() as u64 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Serializes `tangle` (plus carried credit events and the fold
    /// watermark) and atomically replaces `snapshot.biot`.
    fn write_snapshot_file(
        &self,
        tangle: Option<&Tangle>,
        carried: &[CreditEvent],
        next_segment: u64,
    ) -> Result<(), StoreError> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        write_varint(&mut out, next_segment);
        match tangle {
            Some(tangle) => {
                let snap = TangleSnapshot::capture(tangle);
                write_varint(&mut out, snap.rows().len() as u64);
                for (tx, attach_ms, confirmed) in snap.rows() {
                    write_varint(&mut out, *attach_ms);
                    out.push(u8::from(*confirmed));
                    let body = encode_tx(tx);
                    write_varint(&mut out, body.len() as u64);
                    out.extend_from_slice(&body);
                }
                write_varint(&mut out, snap.pruned().len() as u64);
                for id in snap.pruned() {
                    out.extend_from_slice(&id.0);
                }
            }
            None => {
                // No ledger state yet (a fold of a credit-only segment):
                // zero rows, zero pruned ids.
                write_varint(&mut out, 0);
                write_varint(&mut out, 0);
            }
        }
        write_varint(&mut out, carried.len() as u64);
        for ev in carried {
            let body = encode_event(ev);
            write_varint(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        let tmp = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join("snapshot.biot");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        Ok(())
    }

    /// Runs [`checkpoint`](Self::checkpoint) when `policy` says the WAL
    /// has grown past its thresholds; returns whether it did. Call this
    /// on a timer or after batches instead of hand-rolling
    /// [`wal_size`](Self::wal_size) comparisons.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn maybe_checkpoint(
        &mut self,
        tangle: &Tangle,
        policy: &CheckpointPolicy,
    ) -> Result<bool, StoreError> {
        if !self.checkpoint_due(policy)? {
            return Ok(false);
        }
        self.checkpoint(tangle)?;
        Ok(true)
    }

    /// [`maybe_checkpoint`](Self::maybe_checkpoint) that re-seeds credit
    /// events into the fresh WAL when it does checkpoint — the policy-
    /// driven analogue of
    /// [`checkpoint_with_credit`](Self::checkpoint_with_credit).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn maybe_checkpoint_with_credit(
        &mut self,
        tangle: &Tangle,
        credit_events: &[CreditEvent],
        policy: &CheckpointPolicy,
    ) -> Result<bool, StoreError> {
        if !self.checkpoint_due(policy)? {
            return Ok(false);
        }
        self.checkpoint_with_credit(tangle, credit_events)?;
        Ok(true)
    }

    fn checkpoint_due(&self, policy: &CheckpointPolicy) -> Result<bool, StoreError> {
        Ok(self.wal_size()? >= policy.max_wal_bytes
            || self.segment_count()? > policy.max_segments)
    }

    /// One bounded step of incremental compaction: folds the oldest
    /// *sealed* WAL segment into the snapshot and advances the fold
    /// watermark. Transactions join the snapshot rows; the segment's
    /// credit events are carried inside the snapshot so replay order is
    /// preserved. Returns `false` when only the active segment remains
    /// (nothing to fold).
    ///
    /// The atomic snapshot rename is the commit point: a crash before the
    /// folded segment is unlinked leaves a stale file that recovery — and
    /// the next `compact_step` — skips by watermark.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; corruption inside the folded
    /// segment surfaces as the corresponding [`StoreError`].
    pub fn compact_step(&mut self) -> Result<bool, StoreError> {
        if self.wal.is_none() {
            return Err(StoreError::ReadOnly);
        }
        let snap_path = self.dir.join("snapshot.biot");
        let (mut tangle, mut carried, watermark) = if snap_path.exists() {
            let snap = self.read_snapshot_file(&snap_path)?;
            (Some(snap.tangle), snap.carried, snap.next_segment)
        } else {
            (None, Vec::new(), 0)
        };
        let mut live = Vec::new();
        for (n, path) in list_segments(&self.dir)? {
            if n < watermark {
                // Leftover of an interrupted compaction — already folded.
                fs::remove_file(&path)?;
            } else {
                live.push((n, path));
            }
        }
        // Never fold the newest segment: it is still being appended to.
        if live.len() < 2 {
            return Ok(false);
        }
        let (n, path) = &live[0];
        let data = fs::read(path)?;
        replay_segment(&data, false, &mut tangle, &mut carried)?;
        self.write_snapshot_file(tangle.as_ref(), &carried, n + 1)?;
        fs::remove_file(path)?;
        Ok(true)
    }

    /// [`checkpoint`](Self::checkpoint), then re-seeds the fresh WAL with
    /// `credit_events` — pass `CreditLedger::snapshot_events()` so the
    /// truncation never forgets misbehaviour (§IV-B). The carried set is
    /// bounded: one ΔT window of validations plus the misbehaviour list.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn checkpoint_with_credit(
        &mut self,
        tangle: &Tangle,
        credit_events: &[CreditEvent],
    ) -> Result<(), StoreError> {
        self.checkpoint(tangle)?;
        self.append_credit_events(credit_events)
    }

    /// Recovers the ledger from disk: snapshot (if any) plus WAL replay.
    ///
    /// Returns `Ok(None)` when the directory holds no state yet. A torn
    /// final WAL record is silently dropped; corruption anywhere else is
    /// an error.
    ///
    /// # Errors
    ///
    /// See [`StoreError`].
    pub fn recover(&self) -> Result<Option<Tangle>, StoreError> {
        Ok(self.recover_full()?.tangle)
    }

    /// Recovers everything on disk: the tangle (snapshot + WAL replay)
    /// *and* the credit events appended since the last checkpoint, in
    /// order — replay them (`CreditLedger::from_events` /
    /// `Gateway::restore`) so credit survives the restart. Torn-tail
    /// semantics are identical to [`recover`](Self::recover).
    ///
    /// # Errors
    ///
    /// See [`StoreError`].
    pub fn recover_full(&self) -> Result<RecoveredState, StoreError> {
        // A concurrent writer's compact_step may commit a snapshot rename
        // (and unlink the folded segment) between our snapshot read and
        // our segment reads. The attempt detects both shapes of that torn
        // read — a listed file vanishing (NotFound) or the snapshot
        // watermark advancing mid-read (Interrupted) — and restarting it
        // re-reads the fresh snapshot, whose advanced watermark skips the
        // folded segment. Bounded: each retry needs another compaction to
        // land inside the window, so a genuinely missing file still fails.
        let mut last = None;
        for _ in 0..32 {
            match self.recover_attempt() {
                Err(StoreError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::Interrupted
                    ) =>
                {
                    last = Some(StoreError::Io(e));
                }
                other => return other,
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    fn recover_attempt(&self) -> Result<RecoveredState, StoreError> {
        // Torn-read sandwich: if the snapshot watermark moved while we
        // were reading, a compaction committed mid-read and whatever we
        // assembled (or whatever error we hit) reflects a mix of old
        // snapshot and new segment list. Discard and retry. Replay errors
        // with a *stable* watermark are genuine corruption and surface.
        let observed = self.snapshot_watermark()?;
        let result = self.recover_body();
        if self.snapshot_watermark()? != observed {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                "snapshot advanced during recovery",
            )));
        }
        result
    }

    /// Reads only the snapshot header's segment watermark — `None` when
    /// no snapshot exists. Cheap enough to run twice per recovery as the
    /// concurrent-compaction torn-read detector.
    fn snapshot_watermark(&self) -> Result<Option<u64>, StoreError> {
        let path = self.dir.join("snapshot.biot");
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        // Magic plus a maximal varint; the snapshot is always longer.
        let mut head = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 10);
        file.take(head.capacity() as u64).read_to_end(&mut head)?;
        if !head.starts_with(SNAPSHOT_MAGIC) {
            return Err(StoreError::CorruptSnapshot("magic"));
        }
        let mut pos = SNAPSHOT_MAGIC.len();
        read_varint(&head, &mut pos)
            .map(Some)
            .ok_or(StoreError::CorruptSnapshot("watermark"))
    }

    fn recover_body(&self) -> Result<RecoveredState, StoreError> {
        let snap_path = self.dir.join("snapshot.biot");
        let (mut tangle, mut credit_events, watermark) = if snap_path.exists() {
            let snap = self.read_snapshot_file(&snap_path)?;
            (Some(snap.tangle), snap.carried, snap.next_segment)
        } else {
            (None, Vec::new(), 0)
        };
        let segments: Vec<(u64, PathBuf)> = list_segments(&self.dir)?
            .into_iter()
            .filter(|(n, _)| *n >= watermark)
            .collect();
        for (i, (_, path)) in segments.iter().enumerate() {
            let mut data = Vec::new();
            File::open(path)?.read_to_end(&mut data)?;
            // Torn records are tolerated only in the newest segment — the
            // only one a crash mid-append can tear. Sealed segments must
            // replay completely.
            let newest = i + 1 == segments.len();
            if data.len() < WAL_MAGIC.len() {
                if newest {
                    continue; // crash before the magic finished
                }
                return Err(StoreError::CorruptSnapshot("sealed wal segment magic"));
            }
            replay_segment(&data, newest, &mut tangle, &mut credit_events)?;
        }
        Ok(RecoveredState {
            tangle,
            credit_events,
        })
    }

    fn read_snapshot_file(&self, path: &Path) -> Result<SnapshotFile, StoreError> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        if !data.starts_with(SNAPSHOT_MAGIC) {
            return Err(StoreError::CorruptSnapshot("magic"));
        }
        let mut pos = SNAPSHOT_MAGIC.len();
        let next_segment =
            read_varint(&data, &mut pos).ok_or(StoreError::CorruptSnapshot("watermark"))?;
        let n = read_varint(&data, &mut pos).ok_or(StoreError::CorruptSnapshot("row count"))?;
        let mut rows = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let attach_ms =
                read_varint(&data, &mut pos).ok_or(StoreError::CorruptSnapshot("attach time"))?;
            let confirmed = *data.get(pos).ok_or(StoreError::CorruptSnapshot("flag"))? != 0;
            pos += 1;
            let len =
                read_varint(&data, &mut pos).ok_or(StoreError::CorruptSnapshot("tx length"))?;
            let end = pos
                .checked_add(len as usize)
                .ok_or(StoreError::CorruptSnapshot("tx length"))?;
            if end > data.len() {
                return Err(StoreError::CorruptSnapshot("tx body"));
            }
            let tx = decode_tx(&data[pos..end])?;
            pos = end;
            rows.push((tx, attach_ms, confirmed));
        }
        let n_pruned =
            read_varint(&data, &mut pos).ok_or(StoreError::CorruptSnapshot("pruned count"))?;
        let mut pruned = Vec::with_capacity(n_pruned as usize);
        for _ in 0..n_pruned {
            let end = pos + 32;
            let slice = data
                .get(pos..end)
                .ok_or(StoreError::CorruptSnapshot("pruned id"))?;
            let mut id = [0u8; 32];
            id.copy_from_slice(slice);
            pruned.push(TxId(id));
            pos = end;
        }
        let n_carried =
            read_varint(&data, &mut pos).ok_or(StoreError::CorruptSnapshot("carried count"))?;
        let mut carried = Vec::new();
        for _ in 0..n_carried {
            let len = read_varint(&data, &mut pos)
                .ok_or(StoreError::CorruptSnapshot("carried length"))?;
            let end = pos
                .checked_add(len as usize)
                .ok_or(StoreError::CorruptSnapshot("carried length"))?;
            if end > data.len() {
                return Err(StoreError::CorruptSnapshot("carried body"));
            }
            carried.push(decode_event(&data[pos..end])?);
            pos = end;
        }
        let snap = TangleSnapshot::from_rows(rows, pruned);
        Ok(SnapshotFile {
            tangle: snap.restore()?,
            carried,
            next_segment,
        })
    }

    /// Total size of the WAL in bytes, summed over every segment (for
    /// checkpoint policies).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn wal_size(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for (_, path) in list_segments(&self.dir)? {
            total += fs::metadata(&path)?.len();
        }
        Ok(total)
    }

    /// How many WAL segments are on disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn segment_count(&self) -> Result<usize, StoreError> {
        Ok(list_segments(&self.dir)?.len())
    }

    /// The on-disk WAL segment paths, oldest first (the last one is
    /// active). For introspection and tests.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn segment_paths(&self) -> Result<Vec<PathBuf>, StoreError> {
        Ok(list_segments(&self.dir)?
            .into_iter()
            .map(|(_, p)| p)
            .collect())
    }
}

/// Replays one WAL segment's records into `tangle` / `credit_events`.
///
/// `tolerate_torn_tail` is true only for the newest segment: there an
/// incomplete or undecodable *final* record is silently dropped (crash
/// mid-append). In sealed segments every record must parse — anything
/// torn or corrupt is an error, matching the single-file WAL's treatment
/// of mid-log corruption.
///
/// Re-attaching a transaction the tangle already holds is a no-op rather
/// than an error: a crash between a compaction's (or checkpoint's) atomic
/// snapshot commit and its segment cleanup legitimately leaves the same
/// transaction both in the snapshot and in a segment.
fn replay_segment(
    data: &[u8],
    tolerate_torn_tail: bool,
    tangle: &mut Option<Tangle>,
    credit_events: &mut Vec<CreditEvent>,
) -> Result<(), StoreError> {
    if !data.starts_with(WAL_MAGIC) {
        return Err(StoreError::CorruptSnapshot("wal magic"));
    }
    let mut pos = WAL_MAGIC.len();
    macro_rules! torn {
        () => {{
            if tolerate_torn_tail {
                return Ok(());
            }
            return Err(StoreError::CorruptSnapshot("torn record in sealed wal segment"));
        }};
    }
    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            WAL_TAG_TX => {
                let Some(attach_ms) = read_varint(data, &mut pos) else {
                    torn!();
                };
                let Some(len) = read_varint(data, &mut pos) else {
                    torn!();
                };
                // Checked arithmetic: a torn or corrupt length varint can
                // decode to any u64; it must never overflow into a bogus
                // in-bounds `end`.
                let Some(end) = pos.checked_add(len as usize) else {
                    torn!();
                };
                if end > data.len() {
                    torn!();
                }
                match decode_tx(&data[pos..end]) {
                    Ok(tx) => {
                        let t = tangle.get_or_insert_with(Tangle::new);
                        if tx.is_genesis() {
                            if t.genesis().is_none() {
                                t.attach_genesis(tx.issuer, attach_ms);
                            }
                        } else {
                            match t.attach(tx, attach_ms) {
                                Ok(_) | Err(TangleError::Duplicate(_)) => {}
                                Err(e) => return Err(e.into()),
                            }
                        }
                    }
                    Err(e) => {
                        // Only the final record may be torn/corrupt.
                        if end == data.len() && tolerate_torn_tail {
                            return Ok(());
                        }
                        return Err(e.into());
                    }
                }
                pos = end;
            }
            WAL_TAG_CREDIT => {
                let Some(len) = read_varint(data, &mut pos) else {
                    torn!();
                };
                let Some(end) = pos.checked_add(len as usize) else {
                    torn!();
                };
                if end > data.len() {
                    torn!();
                }
                match decode_event(&data[pos..end]) {
                    Ok(ev) => credit_events.push(ev),
                    Err(e) => {
                        // Only the final record may be torn/corrupt.
                        if end == data.len() && tolerate_torn_tail {
                            return Ok(());
                        }
                        return Err(e.into());
                    }
                }
                pos = end;
            }
            _ => return Err(StoreError::CorruptSnapshot("wal record tag")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_NO: AtomicU64 = AtomicU64::new(0);

    /// A unique temp directory per test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            let n = DIR_NO.fetch_add(1, Ordering::SeqCst);
            let path = std::env::temp_dir()
                .join(format!("biot-store-test-{}-{n}", std::process::id()));
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn grow(tangle: &mut Tangle, store: &mut LedgerStore, n: usize, base_ms: u64) {
        for i in 0..n {
            let tips = tangle.tips();
            let tx = TransactionBuilder::new(NodeId([(i + 1) as u8; 32]))
                .parents(tips[0], *tips.last().unwrap())
                .payload(Payload::Data(vec![i as u8, base_ms as u8]))
                .timestamp_ms(base_ms + i as u64)
                .build();
            let at = base_ms + i as u64;
            tangle.attach(tx.clone(), at).unwrap();
            store.append(&tx, at).unwrap();
        }
    }

    #[test]
    fn fresh_store_recovers_nothing() {
        let dir = TempDir::new();
        let store = LedgerStore::open(&dir.0).unwrap();
        assert!(store.recover().unwrap().is_none());
    }

    #[test]
    fn wal_only_recovery() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis_tx = TransactionBuilder::new(NodeId([0; 32]))
            .payload(Payload::Data(b"genesis".to_vec()))
            .build();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        store.append(&genesis_tx, 0).unwrap();
        grow(&mut tangle, &mut store, 5, 10);

        let recovered = store.recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn batch_append_writes_the_same_records_as_single_appends() {
        let (one, batched) = (TempDir::new(), TempDir::new());
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut store = LedgerStore::open(&one.0).unwrap();
        grow(&mut tangle, &mut store, 6, 10);
        let rows: Vec<(Transaction, u64)> = tangle.attach_order()[1..]
            .iter()
            .map(|id| {
                (
                    tangle.get(id).unwrap().clone(),
                    tangle.attach_time_ms(id).unwrap(),
                )
            })
            .collect();
        let mut store = LedgerStore::open(&batched.0).unwrap();
        store.append_batch(&rows).unwrap();
        store.append_batch(&[]).unwrap();
        assert_eq!(
            fs::read(segment_path(&one.0, 0)).unwrap(),
            fs::read(segment_path(&batched.0, 0)).unwrap()
        );
    }

    #[test]
    fn checkpoint_plus_wal_recovery() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        grow(&mut tangle, &mut store, 5, 10);
        tangle.confirm_with_threshold(2);
        store.checkpoint(&tangle).unwrap();
        // WAL restarts empty after a checkpoint.
        assert_eq!(store.wal_size().unwrap(), WAL_MAGIC.len() as u64);
        grow(&mut tangle, &mut store, 4, 100);

        let recovered = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
        // Confirmation flags survive the checkpoint.
        for tx in tangle.iter() {
            let id = tx.id();
            if tangle.attach_time_ms(&id).unwrap() < 100 {
                assert_eq!(recovered.status(&id), tangle.status(&id), "{id:?}");
            }
        }
    }

    #[test]
    fn torn_wal_tail_is_dropped() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = TransactionBuilder::new(NodeId([0; 32]))
            .payload(Payload::Data(b"genesis".to_vec()))
            .build();
        store.append(&genesis_tx, 0).unwrap();
        grow(&mut tangle, &mut store, 3, 10);

        // Simulate a crash mid-append: truncate the last 5 bytes.
        let wal_path = dir.0.join("wal.biot");
        let data = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &data[..data.len() - 5]).unwrap();

        let recovered = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        // One transaction lost (the torn one), everything earlier intact.
        assert_eq!(recovered.len(), tangle.len() - 1);
    }

    #[test]
    fn torn_tail_recovers_valid_prefix_at_every_byte_offset() {
        // Crash-consistency sweep: whatever byte the power died on while
        // the *last* record was being appended, recovery must keep every
        // complete earlier record and silently drop the torn tail.
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        grow(&mut tangle, &mut store, 3, 10);

        let wal_path = dir.0.join("wal.biot");
        let before_last = fs::metadata(&wal_path).unwrap().len() as usize;
        grow(&mut tangle, &mut store, 1, 50);
        let full = fs::read(&wal_path).unwrap();
        assert!(full.len() > before_last, "last record must add bytes");

        for cut in before_last..full.len() {
            fs::write(&wal_path, &full[..cut]).unwrap();
            let recovered = LedgerStore::open(&dir.0)
                .unwrap()
                .recover()
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"))
                .expect("prefix state survives");
            // Everything before the last record is intact; the torn
            // record itself is gone.
            assert_eq!(recovered.len(), tangle.len() - 1, "cut at byte {cut}");
        }
        // And the untruncated log still recovers everything.
        fs::write(&wal_path, &full).unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn corrupt_middle_record_is_an_error() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = TransactionBuilder::new(NodeId([0; 32]))
            .payload(Payload::Data(b"genesis".to_vec()))
            .build();
        store.append(&genesis_tx, 0).unwrap();
        grow(&mut tangle, &mut store, 3, 10);

        let wal_path = dir.0.join("wal.biot");
        let mut data = fs::read(&wal_path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&wal_path, &data).unwrap();

        let result = LedgerStore::open(&dir.0).unwrap().recover();
        assert!(result.is_err(), "corruption in the middle must not pass silently");
    }

    #[test]
    fn checkpoint_is_atomic_under_reopen() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        grow(&mut tangle, &mut store, 3, 10);
        store.checkpoint(&tangle).unwrap();
        drop(store);
        // Reopen twice; state identical both times.
        let a = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        let b = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.tips(), b.tips());
    }

    fn event(n: u8, secs: u64, weight: f64) -> CreditEvent {
        CreditEvent::validated(NodeId([n; 32]), weight, SimTime::from_secs(secs))
    }

    fn mis(n: u8, secs: u64) -> CreditEvent {
        CreditEvent::misbehaved(
            NodeId([n; 32]),
            biot_credit::Misbehavior::DoubleSpend,
            SimTime::from_secs(secs),
        )
    }

    use biot_net::time::SimTime;

    #[test]
    fn credit_events_roundtrip_interleaved_with_txs() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        store.append_credit_events(&[event(1, 1, 1.0)]).unwrap();
        grow(&mut tangle, &mut store, 3, 10);
        store
            .append_credit_events(&[mis(2, 12), event(1, 13, 4.0)])
            .unwrap();
        grow(&mut tangle, &mut store, 2, 40);

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        assert_eq!(
            recovered.credit_events,
            vec![event(1, 1, 1.0), mis(2, 12), event(1, 13, 4.0)],
            "events replay losslessly, in append order"
        );
    }

    #[test]
    fn torn_credit_tail_recovers_valid_prefix_at_every_byte_offset() {
        // The credit analogue of the tx torn-tail sweep: power dies at any
        // byte while the last record (a credit event) is appended.
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        grow(&mut tangle, &mut store, 2, 10);
        store.append_credit_events(&[mis(3, 11)]).unwrap();

        let wal_path = dir.0.join("wal.biot");
        let before_last = fs::metadata(&wal_path).unwrap().len() as usize;
        store.append_credit_events(&[event(4, 12, 2.0)]).unwrap();
        let full = fs::read(&wal_path).unwrap();
        assert!(full.len() > before_last);

        for cut in before_last..full.len() {
            fs::write(&wal_path, &full[..cut]).unwrap();
            let recovered = LedgerStore::open(&dir.0)
                .unwrap()
                .recover_full()
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            assert_eq!(
                recovered.credit_events,
                vec![mis(3, 11)],
                "cut at byte {cut}: earlier event intact, torn one dropped"
            );
            assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        }
        fs::write(&wal_path, &full).unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.credit_events, vec![mis(3, 11), event(4, 12, 2.0)]);
    }

    #[test]
    fn corrupt_middle_credit_record_is_an_error() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        let wal_clean = fs::metadata(dir.0.join("wal.biot")).unwrap().len() as usize;
        store.append_credit_events(&[mis(1, 5)]).unwrap();
        grow(&mut tangle, &mut store, 2, 10);

        // Flip a bit inside the credit event's body (not the last record,
        // so torn-tail tolerance does not apply).
        let wal_path = dir.0.join("wal.biot");
        let mut data = fs::read(&wal_path).unwrap();
        data[wal_clean + 10] ^= 0x01;
        fs::write(&wal_path, &data).unwrap();
        let result = LedgerStore::open(&dir.0).unwrap().recover_full();
        assert!(result.is_err(), "mid-log credit corruption must not pass");
    }

    #[test]
    fn retired_v1_magics_are_typed_errors() {
        // No deployment ever wrote the v1 formats (the current magics with
        // version digit 1); a file carrying either magic is refused like
        // any other unknown magic — a typed error, never a panic or a
        // partial replay.
        let v1 = |current: &[u8; 8]| {
            let mut magic = *current;
            magic[7] = b'1';
            magic
        };
        for (file, magic) in [("wal.biot", v1(WAL_MAGIC)), ("snapshot.biot", v1(SNAPSHOT_MAGIC))] {
            let dir = TempDir::new();
            let mut store = LedgerStore::open(&dir.0).unwrap();
            let mut tangle = Tangle::new();
            tangle.attach_genesis(NodeId([0; 32]), 0);
            grow(&mut tangle, &mut store, 3, 10);
            store.checkpoint(&tangle).unwrap();
            grow(&mut tangle, &mut store, 2, 10);

            let path = dir.0.join(file);
            let mut data = fs::read(&path).unwrap();
            data[..magic.len()].copy_from_slice(&magic);
            fs::write(&path, &data).unwrap();
            for reopened in [
                LedgerStore::open(&dir.0).unwrap(),
                LedgerStore::open_read_only(&dir.0).unwrap(),
            ] {
                let result = reopened.recover_full();
                assert!(
                    matches!(result, Err(StoreError::CorruptSnapshot(_))),
                    "{file} with {}: {result:?}",
                    String::from_utf8_lossy(&magic)
                );
            }
        }
    }

    #[test]
    fn checkpoint_with_credit_carries_events_across_truncation() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        store
            .append_credit_events(&[event(1, 1, 1.0), mis(2, 2)])
            .unwrap();
        grow(&mut tangle, &mut store, 3, 10);

        // A plain checkpoint would drop the events with the WAL; the
        // credit-aware one re-seeds them.
        store
            .checkpoint_with_credit(&tangle, &[event(1, 1, 1.0), mis(2, 2)])
            .unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        assert_eq!(recovered.credit_events, vec![event(1, 1, 1.0), mis(2, 2)]);
    }

    // WAL round-trip fuzz: any event stream appended in any batching must
    // recover bit-for-bat identical and in order.
    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn random_event_streams_roundtrip_through_the_wal(
            stream in proptest::collection::vec(
                (any::<bool>(), 0u8..5, 0u64..100_000, 1u32..1000),
                0..40,
            ),
            batch in 1usize..7,
        ) {
            let dir = TempDir::new();
            let mut store = LedgerStore::open(&dir.0).unwrap();
            let events: Vec<CreditEvent> = stream
                .iter()
                .map(|&(is_tx, n, at_ms, w)| {
                    if is_tx {
                        CreditEvent::validated(
                            NodeId([n; 32]),
                            w as f64,
                            SimTime::from_millis(at_ms),
                        )
                    } else {
                        CreditEvent::misbehaved(
                            NodeId([n; 32]),
                            biot_credit::Misbehavior::LazyTips,
                            SimTime::from_millis(at_ms),
                        )
                    }
                })
                .collect();
            for chunk in events.chunks(batch) {
                store.append_credit_events(chunk).unwrap();
            }
            let recovered = store.recover_full().unwrap();
            prop_assert_eq!(recovered.credit_events, events);
        }
    }

    /// A config with tiny segments so a handful of appends spans several.
    fn tiny_segments(bytes: u64) -> StoreConfig {
        StoreConfig {
            segment_bytes: bytes,
        }
    }

    /// Builds a store whose WAL spans several segments: genesis + `n` txs
    /// with a couple of credit events mixed in. Returns the live state.
    fn segmented_world(
        dir: &TempDir,
        segment_bytes: u64,
        n: usize,
    ) -> (LedgerStore, Tangle, Vec<CreditEvent>) {
        let mut store =
            LedgerStore::open_with_config(&dir.0, tiny_segments(segment_bytes)).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        let mut events = Vec::new();
        for i in 0..n {
            grow(&mut tangle, &mut store, 1, 10 + 10 * i as u64);
            if i % 3 == 0 {
                let ev = event((i % 7) as u8 + 1, i as u64 + 1, (i + 1) as f64);
                store.append_credit_events(std::slice::from_ref(&ev)).unwrap();
                events.push(ev);
            }
        }
        (store, tangle, events)
    }

    #[test]
    fn segments_roll_and_recovery_spans_them() {
        let dir = TempDir::new();
        let (store, tangle, events) = segmented_world(&dir, 256, 12);
        assert!(
            store.segment_count().unwrap() > 2,
            "appends must have rolled: {} segments",
            store.segment_count().unwrap()
        );
        // wal_size sums every segment, so it keeps growing across rolls.
        assert!(store.wal_size().unwrap() > 256);

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        let rt = recovered.tangle.unwrap();
        assert_eq!(rt.len(), tangle.len());
        assert_eq!(rt.tips(), tangle.tips());
        for tx in tangle.iter() {
            let id = tx.id();
            assert_eq!(rt.cumulative_weight(&id), tangle.cumulative_weight(&id));
        }
        assert_eq!(recovered.credit_events, events, "order preserved across segments");
    }

    #[test]
    fn reopen_resumes_on_newest_segment() {
        let dir = TempDir::new();
        let (store, mut tangle, _) = segmented_world(&dir, 256, 8);
        let count = store.segment_count().unwrap();
        drop(store);
        // Reopening must append to the newest segment, never recreate an
        // earlier one (that would reorder the log).
        let mut store =
            LedgerStore::open_with_config(&dir.0, tiny_segments(u64::MAX)).unwrap();
        assert_eq!(store.segment_count().unwrap(), count);
        grow(&mut tangle, &mut store, 2, 900);
        let recovered = store.recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn checkpoint_on_empty_wal_is_a_noop() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        grow(&mut tangle, &mut store, 4, 10);
        store.checkpoint(&tangle).unwrap();
        let snap_after_first = fs::read(dir.0.join("snapshot.biot")).unwrap();

        // Mutate only in-memory status — nothing appended to the WAL.
        tangle.confirm_with_threshold(2);
        store.checkpoint(&tangle).unwrap();
        let snap_after_second = fs::read(dir.0.join("snapshot.biot")).unwrap();
        assert_eq!(
            snap_after_first, snap_after_second,
            "empty-WAL checkpoint must not rewrite the snapshot"
        );
        assert_eq!(store.wal_size().unwrap(), WAL_MAGIC.len() as u64);

        // Once a record lands, checkpointing writes for real again.
        grow(&mut tangle, &mut store, 1, 100);
        store.checkpoint(&tangle).unwrap();
        assert_ne!(fs::read(dir.0.join("snapshot.biot")).unwrap(), snap_after_first);
    }

    #[test]
    fn maybe_checkpoint_fires_on_policy_thresholds() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let policy = CheckpointPolicy {
            max_wal_bytes: 200,
            max_segments: 4,
        };
        assert!(
            !store.maybe_checkpoint(&tangle, &policy).unwrap(),
            "magic-only WAL is under every threshold"
        );
        grow(&mut tangle, &mut store, 4, 10);
        assert!(store.wal_size().unwrap() >= 200);
        assert!(store.maybe_checkpoint(&tangle, &policy).unwrap());
        assert_eq!(store.wal_size().unwrap(), WAL_MAGIC.len() as u64);
        assert!(
            !store.maybe_checkpoint(&tangle, &policy).unwrap(),
            "fresh WAL is under the thresholds again"
        );
        let recovered = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());

        // The segment-count arm, independent of byte volume.
        let dir2 = TempDir::new();
        let (mut store, tangle2, _) = segmented_world(&dir2, 128, 10);
        let lax = CheckpointPolicy {
            max_wal_bytes: u64::MAX,
            max_segments: 2,
        };
        assert!(store.segment_count().unwrap() > 2);
        assert!(store.maybe_checkpoint(&tangle2, &lax).unwrap());
        assert_eq!(store.segment_count().unwrap(), 1);
    }

    #[test]
    fn compact_step_folds_oldest_segment_into_snapshot() {
        let dir = TempDir::new();
        let (mut store, tangle, events) = segmented_world(&dir, 256, 12);
        let before = store.segment_count().unwrap();
        assert!(before > 2);

        let mut steps = 0;
        while store.compact_step().unwrap() {
            steps += 1;
            // Every step must shrink the live log by one segment.
            assert_eq!(store.segment_count().unwrap(), before - steps);
            // Recovery stays exact mid-compaction.
            let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
            assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
            assert_eq!(recovered.credit_events, events, "order preserved after {steps} steps");
        }
        assert_eq!(steps, before - 1, "everything but the active segment folds");
        assert_eq!(store.segment_count().unwrap(), 1);

        // The store keeps working after compaction.
        let mut tangle = tangle;
        let mut store = store;
        grow(&mut tangle, &mut store, 2, 500);
        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        let rt = recovered.tangle.unwrap();
        assert_eq!(rt.len(), tangle.len());
        assert_eq!(rt.tips(), tangle.tips());
        assert_eq!(recovered.credit_events, events);
    }

    #[test]
    fn interrupted_compaction_leaves_no_duplicates() {
        // Crash simulation: the snapshot rename committed but the folded
        // segment was never unlinked. Recovery must skip it by watermark —
        // same ledger, credit events exactly once.
        let dir = TempDir::new();
        let (mut store, tangle, events) = segmented_world(&dir, 256, 12);
        let oldest = store.segment_paths().unwrap()[0].clone();
        let folded_bytes = fs::read(&oldest).unwrap();
        assert!(store.compact_step().unwrap());
        assert!(!oldest.exists());
        fs::write(&oldest, &folded_bytes).unwrap(); // resurrect: crash before unlink

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        assert_eq!(recovered.credit_events, events, "no duplicated credit events");

        // The next step clears the stale file and keeps folding.
        assert!(store.compact_step().unwrap());
        assert!(!oldest.exists(), "stale folded segment cleaned up");
    }

    #[test]
    fn torn_tail_sweep_every_byte_of_newest_segment() {
        // Segmented analogue of the single-file sweep: whatever byte the
        // power died on, every record in sealed segments plus every
        // complete record of the newest segment survives.
        let dir = TempDir::new();
        let mut store =
            LedgerStore::open_with_config(&dir.0, tiny_segments(300)).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        let mut sealed_txs = 1; // txs fully contained in sealed segments
        let mut segments = store.segment_count().unwrap();
        for i in 0..10 {
            grow(&mut tangle, &mut store, 1, 10 + 10 * i as u64);
            let now = store.segment_count().unwrap();
            if now > segments {
                segments = now;
                sealed_txs = tangle.len();
            }
        }
        assert!(segments > 1, "need sealed segments for the sweep");
        let newest = store.segment_paths().unwrap().pop().unwrap();
        let full = fs::read(&newest).unwrap();
        drop(store);

        for cut in 0..=full.len() {
            fs::write(&newest, &full[..cut]).unwrap();
            let recovered = LedgerStore::open_with_config(&dir.0, tiny_segments(u64::MAX))
                .unwrap()
                .recover()
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"))
                .expect("sealed segments always recover");
            assert!(recovered.len() >= sealed_txs, "cut at byte {cut}");
            assert!(recovered.len() <= tangle.len(), "cut at byte {cut}");
            for tx in recovered.iter() {
                assert!(tangle.contains(&tx.id()), "cut at byte {cut}");
            }
        }
        fs::write(&newest, &full).unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn sealed_segment_corruption_is_an_error() {
        // Sealed segments get the *strict* treatment: the torn-tail
        // leniency of the single-file WAL applies only to the newest
        // segment. Bit flips inside any sealed record body — and
        // truncation of a sealed segment — must fail recovery loudly.
        let dir = TempDir::new();
        let (store, _tangle, _) = segmented_world(&dir, 256, 10);
        assert!(store.segment_count().unwrap() > 2);
        let sealed = store.segment_paths().unwrap()[0].clone();
        drop(store);
        let pristine = fs::read(&sealed).unwrap();

        // Walk the segment's framing to find every record-body byte (tag
        // and length bytes can alias other valid framings; bodies are
        // checksummed, so corruption there must always be caught).
        let mut body_ranges = Vec::new();
        let mut pos = WAL_MAGIC.len();
        while pos < pristine.len() {
            let tag = pristine[pos];
            pos += 1;
            if tag == WAL_TAG_TX {
                read_varint(&pristine, &mut pos).unwrap();
            }
            let len = read_varint(&pristine, &mut pos).unwrap() as usize;
            body_ranges.push(pos..pos + len);
            pos += len;
        }
        assert!(!body_ranges.is_empty());

        for range in body_ranges {
            for at in range {
                let mut data = pristine.clone();
                data[at] ^= 0x01;
                fs::write(&sealed, &data).unwrap();
                let result = LedgerStore::open(&dir.0).unwrap().recover_full();
                assert!(result.is_err(), "flip at byte {at} must not pass silently");
            }
        }

        // Corrupt magic.
        let mut data = pristine.clone();
        data[0] ^= 0x01;
        fs::write(&sealed, &data).unwrap();
        assert!(LedgerStore::open(&dir.0).unwrap().recover_full().is_err());

        // Truncation anywhere in a sealed segment is torn-middle, not
        // torn-tail: an error.
        for cut in [0, WAL_MAGIC.len(), pristine.len() - 1] {
            fs::write(&sealed, &pristine[..cut]).unwrap();
            assert!(
                LedgerStore::open(&dir.0).unwrap().recover_full().is_err(),
                "sealed segment truncated at {cut} must not pass"
            );
        }

        // Restored, everything recovers again.
        fs::write(&sealed, &pristine).unwrap();
        assert!(LedgerStore::open(&dir.0).unwrap().recover_full().is_ok());
    }

    #[test]
    fn pruned_ids_survive_checkpoint() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        grow(&mut tangle, &mut store, 6, 10);
        tangle.confirm_with_threshold(2);
        let pruned_count = tangle.snapshot(14);
        assert!(pruned_count > 0);
        store.checkpoint(&tangle).unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover().unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        for tx in tangle.iter() {
            for p in tx.parents() {
                if tangle.is_pruned(&p) {
                    assert!(recovered.is_pruned(&p));
                }
            }
        }
    }

    #[test]
    fn read_only_recovers_but_refuses_every_write() {
        let dir = TempDir::new();
        let (_writer, tangle, events) = segmented_world(&dir, 256, 8);

        let mut ro = LedgerStore::open_read_only(&dir.0).unwrap();
        assert!(ro.is_read_only());

        // Same bytes, same state as a writable open.
        let recovered = ro.recover_full().unwrap();
        let rt = recovered.tangle.unwrap();
        assert_eq!(rt.len(), tangle.len());
        assert_eq!(rt.tips(), tangle.tips());
        assert_eq!(recovered.credit_events, events);

        // Every mutating entry point is refused, and refusal leaves the
        // on-disk log untouched.
        let before = ro.segment_paths().unwrap();
        let tx = TransactionBuilder::new(NodeId([9; 32]))
            .parents(tangle.tips()[0], tangle.tips()[0])
            .payload(Payload::Data(vec![9]))
            .timestamp_ms(999)
            .build();
        assert!(matches!(ro.append(&tx, 999), Err(StoreError::ReadOnly)));
        assert!(matches!(
            ro.append_credit_events(&[mis(9, 9)]),
            Err(StoreError::ReadOnly)
        ));
        assert!(matches!(ro.checkpoint(&tangle), Err(StoreError::ReadOnly)));
        assert!(matches!(ro.compact_step(), Err(StoreError::ReadOnly)));
        assert_eq!(ro.segment_paths().unwrap(), before);

        // A read-only open never creates files either: opening a missing
        // directory is an error instead of a silent mkdir.
        assert!(LedgerStore::open_read_only(dir.0.join("nope")).is_err());
    }

    #[test]
    fn read_only_recover_tolerates_concurrent_compaction() {
        // A writable owner folds segments (rename + unlink) while a
        // read-only handle recovers in a loop. The reader may list a
        // segment the writer unlinks before it is read; `recover_full`
        // retries from the freshly committed snapshot, so every recovery
        // observes the complete state.
        let dir = TempDir::new();
        let (mut store, tangle, events) = segmented_world(&dir, 256, 12);
        assert!(store.segment_count().unwrap() > 2);
        let expect_len = tangle.len();

        std::thread::scope(|s| {
            let reader_dir = dir.0.clone();
            let reader = s.spawn(move || {
                let ro = LedgerStore::open_read_only(&reader_dir).unwrap();
                let mut recoveries = 0usize;
                for _ in 0..200 {
                    let recovered = ro.recover_full().unwrap();
                    assert_eq!(recovered.tangle.unwrap().len(), expect_len);
                    assert_eq!(recovered.credit_events, events);
                    recoveries += 1;
                }
                recoveries
            });
            while store.compact_step().unwrap() {
                std::thread::yield_now();
            }
            assert!(reader.join().unwrap() > 0);
        });
        assert_eq!(store.segment_count().unwrap(), 1);
    }
}
