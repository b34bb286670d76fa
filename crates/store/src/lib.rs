//! # biot-store
//!
//! File-backed persistence for gateway replicas: one checksummed
//! write-ahead log plus one snapshot file, with crash recovery, so a
//! replica survives restarts. The tangle is append-only, so the store
//! holds the whole ledger: a checkpoint bounds the WAL, not the disk
//! footprint.
//!
//! ## Layout
//!
//! A store directory holds two files:
//!
//! * `snapshot.biot` — the last checkpoint. The `BIOTSNP5` format holds
//!   the rows of a [`TangleSnapshot`] (`[varint attach_ms][u8 confirmed]
//!   [varint len][codec bytes]` each) and a credit section: the number of
//!   events the ledger had applied, the per-origin watermarks
//!   (`[varint origin][varint next seq]` each) and the ledger's merged
//!   events (`[varint len][biot_credit codec bytes]` each), every list
//!   behind a varint count.
//! * `wal.biot` — the write-ahead log since that checkpoint. The
//!   `BIOTWAL5` format tags every record and follows its head with a
//!   4-byte checksum over tag and head: tag 0 is a transaction
//!   (`[0][varint attach_ms][sum][varint len][codec bytes]`), tag 1 is a
//!   credit event with its identity (`[1][varint origin][varint seq][sum]
//!   [varint len][biot_credit codec bytes]`), so behaviour evidence —
//!   including misbehaviour whose transactions never reached the tangle —
//!   survives a crash. Head and body each carry a checksum, so a flipped
//!   attach time or credit identity fails recovery like a flipped body.
//!
//! A file with any other magic, the retired v1–v4 layouts included,
//! fails recovery with [`StoreError::CorruptSnapshot`].
//!
//! Recovery restores the snapshot, then replays the WAL. A torn final
//! record (crash mid-append) is detected by the codec checksum and
//! dropped; corruption before it is an error. So that a torn record always
//! stays final, [`LedgerStore::open`] cuts one off before appending, and
//! a failed commit cuts its own partial bytes. [`LedgerStore::recover_full`]
//! returns the credit events (the snapshot's credit section, then the
//! WAL's records past its watermarks) alongside the tangle; feed them to
//! `Gateway::restore` so negative credit survives the restart.
//!
//! ## Checkpoints
//!
//! [`LedgerStore::checkpoint_with_credit`] writes the tangle and the credit
//! ledger it carries into a temporary file and renames it over
//! `snapshot.biot`. That rename commits tangle and credit together; only
//! then is the WAL reset to its magic. A crash between the two leaves the
//! old WAL beside the new snapshot: its transactions replay as
//! duplicates, which recovery skips, and so do its credit events — each
//! record's `(origin, seq)` lies below the snapshot's watermark for its
//! origin.
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
//! let recovered = LedgerStore::open(&dir)?.recover_full()?.tangle.expect("state on disk");
//! assert_eq!(recovered.len(), tangle.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use biot_credit::event::{
    checksum, decode_event, encode_event, CreditCodecError, CreditEvent, CreditId,
};
use biot_credit::CreditLedger;
use biot_tangle::codec::{
    decode_tx, encode_tx, read_varint, write_varint, CodecError, VarintError,
};
use biot_tangle::graph::{Tangle, TangleError};
use biot_tangle::snapshot::TangleSnapshot;
use biot_tangle::tx::Transaction;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
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
    /// A store file is structurally invalid or carries an unknown magic.
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

/// Snapshot: rows + credit section with watermarks.
const SNAPSHOT_MAGIC: &[u8; 8] = b"BIOTSNP5";
/// WAL: tagged records (transactions + identified credit events) with
/// checksummed heads.
const WAL_MAGIC: &[u8; 8] = b"BIOTWAL5";

const SNAPSHOT_FILE: &str = "snapshot.biot";
const WAL_FILE: &str = "wal.biot";

/// Tag prefixing a transaction record in the WAL.
const WAL_TAG_TX: u8 = 0;
/// Tag prefixing a credit-event record in the WAL.
const WAL_TAG_CREDIT: u8 = 1;

/// A directory-backed ledger store: one snapshot file plus one
/// write-ahead log.
pub struct LedgerStore {
    dir: PathBuf,
    /// The WAL's append handle; `None` for a store opened with
    /// [`LedgerStore::open_read_only`], which never touches the write
    /// path.
    wal: Option<File>,
    /// `sync_data` calls issued through this handle.
    syncs: u64,
}

/// Everything [`LedgerStore::recover_full`] can replay from disk.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// The tangle, when any transaction state was on disk.
    pub tangle: Option<Tangle>,
    /// Credit events: the snapshot's merged ones, then the WAL's.
    pub credit_events: Vec<CreditEvent>,
    /// How many applied events `credit_events` stand for (see
    /// `CreditLedger::from_merged_events`).
    pub credit_applied: u64,
    /// Origin → next seq of the relayed events in `credit_events`.
    pub credit_watermarks: BTreeMap<u64, u64>,
}

impl fmt::Debug for LedgerStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LedgerStore").field("dir", &self.dir).finish()
    }
}

impl LedgerStore {
    /// Opens (creating if needed) a store directory. Appends resume at the
    /// end of the existing WAL's last whole record: a torn final record (a
    /// crash mid-commit) is cut off first, so no append lands behind it.
    /// A WAL shorter than its magic (a crash before the magic was written)
    /// is started afresh.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let path = dir.join(WAL_FILE);
        let mut wal = OpenOptions::new().create(true).append(true).open(&path)?;
        // An existing WAL's magic and its records before the tail are
        // checked by recovery, not here.
        if wal.metadata()?.len() < WAL_MAGIC.len() as u64 {
            reset_wal(&mut wal)?;
        } else {
            let data = fs::read(&path)?;
            let whole = whole_records_len(&data);
            if whole < data.len() {
                wal.set_len(whole as u64)?;
                wal.sync_data()?;
            }
        }
        Ok(Self { dir, wal: Some(wal), syncs: 0 })
    }

    /// Opens an *existing* store directory for reading only: recovery
    /// works as on a writable store, but the WAL write path is never
    /// taken (no file is created, no magic written, no append handle
    /// held), and every mutating call ([`append`](Self::append),
    /// [`checkpoint`](Self::checkpoint), …) fails with
    /// [`StoreError::ReadOnly`]. It takes no lock, so recover from a
    /// directory no writer is appending to, such as a copied or finished
    /// store.
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
        Ok(Self { dir, wal: None, syncs: 0 })
    }

    /// Appends a freshly attached transaction to the WAL: a one-record
    /// [`write_records`](Self::write_records).
    ///
    /// # Errors
    ///
    /// As [`write_records`](Self::write_records).
    pub fn append(&mut self, tx: &Transaction, attach_ms: u64) -> Result<(), StoreError> {
        self.write_records(&[], [(tx, attach_ms)])
    }

    /// The one record writer, and the group commit of an archival node's
    /// wake: encodes `credit_events` with their identities, then the
    /// freshly attached `(transaction, attach_ms)` records, and commits them
    /// with one write and one `sync_data`. Nothing to write is a no-op.
    ///
    /// # Errors
    ///
    /// [`StoreError::ReadOnly`] on a read-only store; otherwise propagates
    /// filesystem failures. A failed write or sync cuts the WAL back to its
    /// length before the commit, so later commits never follow torn bytes.
    /// Should the process die first, or the cut fail too, the next
    /// [`open`](Self::open) cuts the torn tail instead.
    pub fn write_records<'a>(
        &mut self,
        credit_events: &[(CreditId, CreditEvent)],
        txs: impl IntoIterator<Item = (&'a Transaction, u64)>,
    ) -> Result<(), StoreError> {
        let mut records = Vec::new();
        for (id, ev) in credit_events {
            let start = records.len();
            records.push(WAL_TAG_CREDIT);
            write_varint(&mut records, id.origin);
            write_varint(&mut records, id.seq);
            seal_head(&mut records, start);
            put_body(&mut records, &encode_event(ev));
        }
        for (tx, attach_ms) in txs {
            let start = records.len();
            records.push(WAL_TAG_TX);
            write_varint(&mut records, attach_ms);
            seal_head(&mut records, start);
            put_body(&mut records, &encode_tx(tx));
        }
        if records.is_empty() {
            return Ok(());
        }
        let wal = self.wal.as_mut().ok_or(StoreError::ReadOnly)?;
        let before = wal.metadata()?.len();
        if let Err(e) = wal.write_all(&records).and_then(|()| wal.sync_data()) {
            let _ = wal.set_len(before);
            return Err(e.into());
        }
        self.syncs += 1;
        Ok(())
    }

    /// How many `sync_data` calls this handle has issued since it was
    /// opened: one per non-empty [`write_records`](Self::write_records),
    /// two per checkpoint that writes a snapshot (the snapshot file, then
    /// the WAL reset).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Writes a full checkpoint of `tangle` and resets the WAL:
    /// [`checkpoint_with_credit`](Self::checkpoint_with_credit) carrying
    /// no credit.
    ///
    /// # Errors
    ///
    /// As [`checkpoint_with_credit`](Self::checkpoint_with_credit).
    pub fn checkpoint(&mut self, tangle: &Tangle) -> Result<(), StoreError> {
        self.checkpoint_with_credit(tangle, &CreditLedger::default(), &BTreeMap::new())
    }

    /// Writes a full checkpoint of `tangle`, with the merged
    /// [`CreditLedger::snapshot_events`] of `credits` (so the reset never
    /// forgets misbehaviour, §IV-B), its applied count and `watermarks`
    /// (origin → next seq of the relayed events it holds), then resets
    /// the WAL. The carried set is bounded: one ΔT window of validations
    /// plus the misbehaviour list.
    ///
    /// The snapshot is written to a temporary file and renamed, so a crash
    /// mid-checkpoint leaves the previous checkpoint intact, and the
    /// rename commits tangle and credit together.
    ///
    /// When a snapshot already exists, the WAL holds no records and the
    /// ledger holds no events, this is a no-op: nothing was appended
    /// since the last checkpoint, so rewriting the snapshot would be pure
    /// i/o churn. (Status-only changes — confirmations on a quiet ledger —
    /// are re-derived by the gateway's refresh after recovery, so skipping
    /// them loses nothing durable.)
    ///
    /// # Errors
    ///
    /// [`StoreError::ReadOnly`] on a read-only store; otherwise propagates
    /// filesystem failures.
    pub fn checkpoint_with_credit(
        &mut self,
        tangle: &Tangle,
        credits: &CreditLedger,
        watermarks: &BTreeMap<u64, u64>,
    ) -> Result<(), StoreError> {
        let wal = self.wal.as_mut().ok_or(StoreError::ReadOnly)?;
        let snapshot = self.dir.join(SNAPSHOT_FILE);
        if credits.events_applied() == 0
            && watermarks.is_empty()
            && snapshot.exists()
            && wal.metadata()?.len() <= WAL_MAGIC.len() as u64
        {
            return Ok(());
        }
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&encode_snapshot(tangle, credits, watermarks))?;
            f.sync_data()?;
            self.syncs += 1;
        }
        fs::rename(&tmp, &snapshot)?;
        reset_wal(wal)?;
        self.syncs += 1;
        Ok(())
    }

    /// Recovers the tangle (snapshot + WAL replay; `None` when the
    /// directory holds no state yet) and the credit: the snapshot's
    /// credit section, then the events appended since, minus any below
    /// their origin's watermark (a crash between a checkpoint's rename and
    /// its WAL reset leaves them in both). Replay them
    /// (`CreditLedger::from_merged_events` / `Gateway::restore`) so credit
    /// survives the restart. A torn final WAL record is dropped;
    /// corruption anywhere else is an error.
    ///
    /// # Errors
    ///
    /// See [`StoreError`].
    pub fn recover_full(&self) -> Result<RecoveredState, StoreError> {
        let mut state = RecoveredState::default();
        if let Some(data) = read_if_exists(&self.dir.join(SNAPSHOT_FILE))? {
            state = decode_snapshot(&data)?;
        }
        if let Some(data) = read_if_exists(&self.dir.join(WAL_FILE))? {
            replay_wal(&data, &mut state)?;
        }
        Ok(state)
    }

    /// Size of the WAL in bytes (for checkpoint decisions); 0 when there
    /// is none.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn wal_size(&self) -> Result<u64, StoreError> {
        match fs::metadata(self.dir.join(WAL_FILE)) {
            Ok(meta) => Ok(meta.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e.into()),
        }
    }
}

/// Truncates the WAL behind `wal` (an append handle) to a bare magic.
fn reset_wal(wal: &mut File) -> Result<(), StoreError> {
    wal.set_len(0)?;
    wal.write_all(WAL_MAGIC)?;
    wal.sync_data()?;
    Ok(())
}

/// The whole of `path`, or `None` when it does not exist.
fn read_if_exists(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    match fs::read(path) {
        Ok(data) => Ok(Some(data)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Appends the checksum of the record head `out[start..]` (its tag and
/// head varints).
fn seal_head(out: &mut Vec<u8>, start: usize) {
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum);
}

/// Appends `[varint len][body]`.
fn put_body(out: &mut Vec<u8>, body: &[u8]) {
    write_varint(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// The one length-prefixed body reader, for `[varint len][body]` as
/// [`put_body`] writes it. A body that runs past the end of `data` is
/// [`VarintError::UnexpectedEnd`], like a varint that does.
fn read_body<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8], VarintError> {
    let len = read_varint(data, pos)?;
    if len > (data.len() - *pos) as u64 {
        return Err(VarintError::UnexpectedEnd);
    }
    let body = &data[*pos..*pos + len as usize];
    *pos += body.len();
    Ok(body)
}

/// Reads a count of items that each take at least `min_bytes`, refusing
/// one the bytes left cannot hold, so a forged count never sizes an
/// allocation.
fn read_count(data: &[u8], pos: &mut usize, min_bytes: usize) -> Option<usize> {
    let n = read_varint(data, pos).ok()?;
    (n <= ((data.len() - *pos) / min_bytes) as u64).then_some(n as usize)
}

/// Serializes a `BIOTSNP5` snapshot of `tangle`, `credits` and `marks`.
fn encode_snapshot(tangle: &Tangle, credits: &CreditLedger, marks: &BTreeMap<u64, u64>) -> Vec<u8> {
    let snap = TangleSnapshot::capture(tangle);
    let mut out = SNAPSHOT_MAGIC.to_vec();
    write_varint(&mut out, snap.rows().len() as u64);
    for (tx, attach_ms, confirmed) in snap.rows() {
        write_varint(&mut out, *attach_ms);
        out.push(u8::from(*confirmed));
        put_body(&mut out, &encode_tx(tx));
    }
    write_varint(&mut out, credits.events_applied());
    write_varint(&mut out, marks.len() as u64);
    for (&origin, &next) in marks {
        write_varint(&mut out, origin);
        write_varint(&mut out, next);
    }
    let events = credits.snapshot_events();
    write_varint(&mut out, events.len() as u64);
    for ev in &events {
        put_body(&mut out, &encode_event(ev));
    }
    out
}

/// Decodes a `BIOTSNP5` snapshot into its tangle and credit section.
fn decode_snapshot(data: &[u8]) -> Result<RecoveredState, StoreError> {
    use StoreError::CorruptSnapshot as Corrupt;
    if !data.starts_with(SNAPSHOT_MAGIC) {
        return Err(Corrupt("magic"));
    }
    let mut pos = SNAPSHOT_MAGIC.len();
    // A row is at least an attach-time byte, a flag and a length byte.
    let n = read_count(data, &mut pos, 3).ok_or(Corrupt("row count"))?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let attach_ms = read_varint(data, &mut pos).map_err(|_| Corrupt("attach time"))?;
        let confirmed = *data.get(pos).ok_or(Corrupt("flag"))? != 0;
        pos += 1;
        let body = read_body(data, &mut pos).map_err(|_| Corrupt("tx body"))?;
        rows.push((decode_tx(body)?, attach_ms, confirmed));
    }
    let credit_applied = read_varint(data, &mut pos).map_err(|_| Corrupt("credit applied"))?;
    let n = read_count(data, &mut pos, 2).ok_or(Corrupt("watermark count"))?;
    let mut credit_watermarks = BTreeMap::new();
    for _ in 0..n {
        let mut mark = || read_varint(data, &mut pos).map_err(|_| Corrupt("watermark"));
        credit_watermarks.insert(mark()?, mark()?);
    }
    let n = read_count(data, &mut pos, 1).ok_or(Corrupt("credit count"))?;
    let mut credit_events = Vec::with_capacity(n);
    for _ in 0..n {
        let body = read_body(data, &mut pos).map_err(|_| Corrupt("credit body"))?;
        credit_events.push(decode_event(body)?);
    }
    let tangle = TangleSnapshot::from_rows(rows).restore()?;
    Ok(RecoveredState { tangle: Some(tangle), credit_events, credit_applied, credit_watermarks })
}

/// A WAL record's head: a transaction's attach time or a credit id.
#[derive(Clone, Copy)]
enum Head {
    Tx(u64),
    Credit(CreditId),
}

/// One framed WAL record, not yet checked beyond its framing.
struct Record<'a> {
    head: Head,
    /// Whether the head matches its checksum.
    head_ok: bool,
    body: &'a [u8],
}

/// A WAL record whose head checksum held and whose body decoded.
enum Decoded {
    Tx(Transaction, u64),
    Credit(CreditId, CreditEvent),
}

/// Reads the framing of the record at `*pos` (which must be before the
/// end of `data`) and moves `*pos` past it. `Ok(None)` means the framing
/// runs past the end of `data`: a torn tail.
fn frame_record<'a>(data: &'a [u8], pos: &mut usize) -> Result<Option<Record<'a>>, StoreError> {
    let start = *pos;
    let tag = data[*pos];
    *pos += 1;
    let framed = match tag {
        WAL_TAG_TX => read_varint(data, pos).map(Head::Tx),
        WAL_TAG_CREDIT => read_varint(data, pos).and_then(|origin| {
            Ok(Head::Credit(CreditId { origin, seq: read_varint(data, pos)? }))
        }),
        _ => return Err(StoreError::CorruptSnapshot("wal record tag")),
    }
    .and_then(|head| {
        let head_end = *pos;
        let sum = data.get(head_end..head_end + 4).ok_or(VarintError::UnexpectedEnd)?;
        *pos += sum.len();
        let head_ok = sum == checksum(&data[start..head_end]);
        Ok(Record { head, head_ok, body: read_body(data, pos)? })
    });
    match framed {
        Ok(record) => Ok(Some(record)),
        Err(VarintError::UnexpectedEnd) => Ok(None),
        Err(VarintError::Overlong) => Err(StoreError::CorruptSnapshot("wal varint")),
    }
}

/// Checks a framed record's head checksum and decodes its body.
fn decode_record(record: &Record<'_>) -> Result<Decoded, StoreError> {
    if !record.head_ok {
        return Err(StoreError::CorruptSnapshot("wal record head"));
    }
    Ok(match record.head {
        Head::Tx(at) => Decoded::Tx(decode_tx(record.body)?, at),
        Head::Credit(id) => Decoded::Credit(id, decode_event(record.body)?),
    })
}

/// Length of the WAL `data` up to the end of its last whole record: the
/// whole length unless the final record is torn (its framing runs past
/// the end, its head checksum fails, or its body does not decode). A
/// WAL whose magic or earlier records are corrupt is left whole for
/// recovery to report.
fn whole_records_len(data: &[u8]) -> usize {
    let mut pos = WAL_MAGIC.len();
    while data.starts_with(WAL_MAGIC) && pos < data.len() {
        let start = pos;
        match frame_record(data, &mut pos) {
            Ok(None) => return start,
            Ok(Some(record)) if pos == data.len() && decode_record(&record).is_err() => {
                return start
            }
            Ok(Some(_)) => {}
            Err(_) => break,
        }
    }
    data.len()
}

/// Replays the WAL's records into `state`.
///
/// The WAL is always the newest file, so a crash mid-append can tear only
/// its final record: a record that runs past the end of the file, or a
/// final record whose head checksum fails or whose body does not decode,
/// is dropped. Anything wrong before the final record is an error.
///
/// Re-attaching a transaction the tangle already holds is a no-op rather
/// than an error, and a credit event below its origin's watermark is
/// skipped: a crash between a checkpoint's snapshot rename and its WAL
/// reset legitimately leaves the same records in both.
fn replay_wal(data: &[u8], state: &mut RecoveredState) -> Result<(), StoreError> {
    if data.len() < WAL_MAGIC.len() {
        return Ok(()); // crash before the magic finished
    }
    if !data.starts_with(WAL_MAGIC) {
        return Err(StoreError::CorruptSnapshot("wal magic"));
    }
    let mut pos = WAL_MAGIC.len();
    while pos < data.len() {
        let Some(record) = frame_record(data, &mut pos)? else {
            return Ok(()); // torn tail
        };
        match decode_record(&record) {
            Ok(Decoded::Tx(tx, at)) => reattach(&mut state.tangle, tx, at)?,
            Ok(Decoded::Credit(id, ev)) => {
                let next = state.credit_watermarks.entry(id.origin).or_insert(0);
                if id.seq >= *next {
                    *next = id.seq.saturating_add(1);
                    state.credit_events.push(ev);
                    state.credit_applied += 1;
                }
            }
            Err(_) if pos == data.len() => return Ok(()), // torn tail
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Attaches one replayed WAL transaction, skipping one already held.
fn reattach(
    tangle: &mut Option<Tangle>,
    tx: Transaction,
    attach_ms: u64,
) -> Result<(), StoreError> {
    let t = tangle.get_or_insert_with(Tangle::new);
    if tx.is_genesis() {
        if t.genesis().is_none() {
            t.attach_genesis(tx.issuer, attach_ms);
        }
        return Ok(());
    }
    match t.attach(tx, attach_ms) {
        Ok(_) | Err(TangleError::Duplicate(_)) => Ok(()),
        Err(e) => Err(e.into()),
    }
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
        assert!(store.recover_full().map(|s| s.tangle).unwrap().is_none());
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

        let recovered = store.recover_full().map(|s| s.tangle).unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn batch_append_writes_the_same_records_as_single_appends() {
        let (one, batched) = (TempDir::new(), TempDir::new());
        let events = [event(1, 1, 1.0), mis(2, 1)];
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut store = LedgerStore::open(&one.0).unwrap();
        store.write_records(&stamped(0, &events), []).unwrap();
        grow(&mut tangle, &mut store, 6, 10);
        assert_eq!(store.syncs(), 7, "one sync per append");
        let mut store = LedgerStore::open(&batched.0).unwrap();
        let rows = tangle.attach_order()[1..]
            .iter()
            .map(|id| (tangle.get(id).unwrap(), tangle.attach_time_ms(id).unwrap()));
        store.write_records(&stamped(0, &events), rows).unwrap();
        store.write_records(&[], []).unwrap();
        assert_eq!(store.syncs(), 1, "one sync for the group, none for nothing");
        assert_eq!(
            fs::read(one.0.join(WAL_FILE)).unwrap(),
            fs::read(batched.0.join(WAL_FILE)).unwrap()
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

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle).unwrap().unwrap();
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

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle).unwrap().unwrap();
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
                .recover_full().map(|s| s.tangle)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"))
                .expect("prefix state survives");
            // Everything before the last record is intact; the torn
            // record itself is gone.
            assert_eq!(recovered.len(), tangle.len() - 1, "cut at byte {cut}");
        }
        // And the untruncated log still recovers everything.
        fs::write(&wal_path, &full).unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle).unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn appends_after_a_torn_tail_recover_behind_the_whole_prefix() {
        // A crash tears the last record; the reopened store appends two
        // more. Recovery must return the prefix plus both, wherever the
        // tear fell inside that record, and when the record is whole but
        // fails its checksum.
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        store.append(&tangle.get(&genesis).unwrap().clone(), 0).unwrap();
        grow(&mut tangle, &mut store, 3, 10);
        let wal_path = dir.0.join(WAL_FILE);
        let before_last = fs::metadata(&wal_path).unwrap().len() as usize;
        grow(&mut tangle.clone(), &mut store, 1, 50);
        drop(store);
        let full = fs::read(&wal_path).unwrap();
        let mut bad_checksum = full.clone();
        *bad_checksum.last_mut().unwrap() ^= 1;
        let mid_body = full.len() - 5;
        let torn = std::iter::once(mid_body).chain(before_last + 1..full.len());
        let damaged = torn.map(|cut| full[..cut].to_vec()).chain([bad_checksum]);
        for (case, wal) in damaged.enumerate() {
            fs::write(&wal_path, &wal).unwrap();
            // A read-only open recovers the prefix and writes nothing.
            let ro = LedgerStore::open_read_only(&dir.0).unwrap();
            assert_eq!(ro.recover_full().map(|s| s.tangle).unwrap().unwrap().len(), tangle.len(), "case {case}");
            assert_eq!(fs::read(&wal_path).unwrap(), wal, "case {case}: read-only wrote");

            let mut live = tangle.clone();
            let mut store = LedgerStore::open(&dir.0).unwrap();
            grow(&mut live, &mut store, 2, 100);
            let recovered = store
                .recover_full()
                .unwrap_or_else(|e| panic!("case {case}, {} bytes: {e:?}", wal.len()))
                .tangle
                .unwrap();
            assert_eq!(recovered.attach_order(), live.attach_order(), "case {case}");
        }
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

        let result = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle);
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
        let a = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle).unwrap().unwrap();
        let b = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle).unwrap().unwrap();
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

    /// `events` as origin 1's seqs `first..`.
    fn stamped(first: u64, events: &[CreditEvent]) -> Vec<(CreditId, CreditEvent)> {
        (first..).zip(events).map(|(seq, ev)| (CreditId { origin: 1, seq }, *ev)).collect()
    }

    /// A ledger of `events` and origin 1's watermark past them.
    fn ledger_of(events: &[CreditEvent]) -> (CreditLedger, BTreeMap<u64, u64>) {
        let ledger = CreditLedger::from_events(biot_credit::CreditParams::default(), events);
        (ledger, BTreeMap::from([(1, events.len() as u64)]))
    }

    #[test]
    fn credit_events_roundtrip_interleaved_with_txs() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        store.write_records(&stamped(0, &[event(1, 1, 1.0)]), []).unwrap();
        grow(&mut tangle, &mut store, 3, 10);
        store
            .write_records(&stamped(1, &[mis(2, 12), event(1, 13, 4.0)]), [])
            .unwrap();
        grow(&mut tangle, &mut store, 2, 40);

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        assert_eq!(
            recovered.credit_events,
            vec![event(1, 1, 1.0), mis(2, 12), event(1, 13, 4.0)],
            "events replay losslessly, in append order"
        );
        assert_eq!(recovered.credit_applied, 3);
        assert_eq!(recovered.credit_watermarks, BTreeMap::from([(1, 3)]));
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
        store.write_records(&stamped(0, &[mis(3, 11)]), []).unwrap();

        let wal_path = dir.0.join("wal.biot");
        let before_last = fs::metadata(&wal_path).unwrap().len() as usize;
        store.write_records(&stamped(1, &[event(4, 12, 2.0)]), []).unwrap();
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
        store.write_records(&stamped(0, &[mis(1, 5)]), []).unwrap();
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
    fn retired_magics_are_typed_errors() {
        // No deployment ever wrote the v1 formats; the v2 layout (a
        // watermarked snapshot beside a WAL that may have rolled into
        // `wal-NNNNNN.biot` segments) is retired too, and so are v3 (credit
        // records without their `(origin, seq)` identity, a snapshot
        // without watermarks) and v4 (record heads outside every checksum,
        // a snapshot with a pruned-id section). A file carrying any of
        // these magics is refused like any other unknown magic — a typed
        // error, never a panic, a partial replay or a silently dropped
        // segment.
        let retired = |current: &[u8; 8], version: u8| {
            let mut magic = *current;
            magic[7] = version;
            magic
        };
        for version in [b'1', b'2', b'3', b'4'] {
            for (file, magic) in [
                (WAL_FILE, retired(WAL_MAGIC, version)),
                (SNAPSHOT_FILE, retired(SNAPSHOT_MAGIC, version)),
            ] {
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
                if version == b'2' {
                    // A rolled v2 segment beside the log.
                    fs::write(dir.0.join("wal-000001.biot"), retired(WAL_MAGIC, b'2')).unwrap();
                }
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
    }

    #[test]
    fn checkpoint_with_credit_carries_events_across_truncation() {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let events = [event(1, 1, 1.0), mis(2, 2)];
        store.write_records(&stamped(0, &events), []).unwrap();
        grow(&mut tangle, &mut store, 3, 10);

        // A plain checkpoint would drop the events with the WAL; the
        // credit-aware one carries them in the snapshot.
        let (ledger, marks) = ledger_of(&events);
        store.checkpoint_with_credit(&tangle, &ledger, &marks).unwrap();
        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        assert_eq!(recovered.credit_events, events);
        assert_eq!((recovered.credit_applied, recovered.credit_watermarks), (2, marks));
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
            for (k, chunk) in events.chunks(batch).enumerate() {
                store.write_records(&stamped((k * batch) as u64, chunk), []).unwrap();
            }
            let recovered = store.recover_full().unwrap();
            prop_assert_eq!(recovered.credit_applied, events.len() as u64);
            prop_assert_eq!(recovered.credit_events, events);
        }
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
    fn snapshot_rows_of_a_sealed_tangle_keep_their_order() {
        // Capture walks the attach order. Its rows, and so the snapshot
        // bytes, must equal those of a sort of all stored entries by
        // attach sequence, with the sealed region in play.
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        for round in 0..4u64 {
            grow(&mut tangle, &mut store, 12, 10 + 100 * round);
            tangle.confirm_with_threshold(2);
            tangle.seal_frontier(3);
        }
        assert!(tangle.sealed_len() > 0, "part of the ledger is sealed");

        let mut by_seq: Vec<(Transaction, u64, bool)> = tangle
            .iter()
            .map(|tx| {
                let id = tx.id();
                let confirmed = tangle.status(&id) == Some(biot_tangle::graph::TxStatus::Confirmed);
                (tx.clone(), tangle.attach_time_ms(&id).unwrap(), confirmed)
            })
            .collect();
        by_seq.sort_by_key(|(tx, _, _)| tangle.attach_seq(&tx.id()).unwrap());
        let snap = TangleSnapshot::capture(&tangle);
        assert_eq!(snap.rows(), by_seq.as_slice());
        let bytes = encode_snapshot(&tangle, &CreditLedger::default(), &BTreeMap::new());
        let restored = decode_snapshot(&bytes).unwrap().tangle.unwrap();
        assert_eq!(restored.attach_order(), tangle.attach_order());
    }

    /// A store holding genesis + `n` txs with a credit event after every
    /// third. Returns the live state.
    fn world(dir: &TempDir, n: usize) -> (LedgerStore, Tangle, Vec<CreditEvent>) {
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        let mut events = Vec::new();
        for i in 0..n {
            grow(&mut tangle, &mut store, 1, 10 + 10 * i as u64);
            if i % 3 == 0 {
                let ev = event((i % 7) as u8 + 1, i as u64 + 1, (i + 1) as f64);
                store.write_records(&stamped(events.len() as u64, &[ev]), []).unwrap();
                events.push(ev);
            }
        }
        (store, tangle, events)
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = TempDir::new();
        let (store, mut tangle, events) = world(&dir, 8);
        drop(store);
        // Reopening must append behind the existing records, never
        // restart the log (that would lose them).
        let mut store = LedgerStore::open(&dir.0).unwrap();
        grow(&mut tangle, &mut store, 2, 900);
        let recovered = store.recover_full().unwrap();
        let rt = recovered.tangle.unwrap();
        assert_eq!(rt.len(), tangle.len());
        assert_eq!(rt.tips(), tangle.tips());
        assert_eq!(recovered.credit_events, events);
    }

    #[test]
    fn corrupt_record_body_before_the_tail_is_an_error() {
        // Torn-tail leniency covers only the final record. Bit flips
        // inside any earlier record's head (a transaction's attach time,
        // a credit event's origin and seq, the head checksum) or body must
        // fail recovery loudly.
        let dir = TempDir::new();
        let (store, _tangle, _) = world(&dir, 10);
        drop(store);
        let wal = dir.0.join(WAL_FILE);
        let pristine = fs::read(&wal).unwrap();

        // Walk the framing to find every head and body byte (tag and
        // length bytes can alias other valid framings; heads and bodies
        // are checksummed, so corruption there must always be caught).
        let mut ranges = Vec::new();
        let mut pos = WAL_MAGIC.len();
        while pos < pristine.len() {
            let start = pos;
            let record = frame_record(&pristine, &mut pos).unwrap().unwrap();
            let body_start = pos - record.body.len();
            let mut len = Vec::new();
            write_varint(&mut len, record.body.len() as u64);
            // Head varints and their checksum, then the body.
            ranges.push((start + 1..body_start - len.len(), body_start..pos));
        }
        ranges.pop(); // the final record may be torn
        assert!(ranges.len() > 10);

        for (head, body) in ranges {
            assert!(head.len() > 4, "a head varint precedes the checksum");
            for at in head.chain(body) {
                let mut data = pristine.clone();
                data[at] ^= 0x01;
                fs::write(&wal, &data).unwrap();
                let result = LedgerStore::open(&dir.0).unwrap().recover_full();
                assert!(result.is_err(), "flip at byte {at} must not pass silently");
            }
        }

        // Corrupt magic.
        let mut data = pristine.clone();
        data[0] ^= 0x01;
        fs::write(&wal, &data).unwrap();
        assert!(LedgerStore::open(&dir.0).unwrap().recover_full().is_err());

        // Restored, everything recovers again.
        fs::write(&wal, &pristine).unwrap();
        assert!(LedgerStore::open(&dir.0).unwrap().recover_full().is_ok());
    }

    #[test]
    fn interrupted_checkpoint_leaves_no_duplicate_transactions() {
        // Crash simulation: the snapshot rename committed but the WAL was
        // never reset. Its transactions are already in the snapshot and
        // replay as no-ops.
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        store.append(&tangle.get(&genesis).unwrap().clone(), 0).unwrap();
        grow(&mut tangle, &mut store, 6, 10);
        let wal = dir.0.join(WAL_FILE);
        let pre_reset = fs::read(&wal).unwrap();
        store.checkpoint(&tangle).unwrap();
        fs::write(&wal, &pre_reset).unwrap();

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle).unwrap().unwrap();
        assert_eq!(recovered.len(), tangle.len());
        assert_eq!(recovered.attach_order(), tangle.attach_order());
        assert_eq!(recovered.tips(), tangle.tips());
    }

    #[test]
    fn checkpoint_with_credit_commits_events_with_the_snapshot() {
        // The snapshot rename alone must commit the credit events: a
        // store whose WAL holds only its magic after the checkpoint — the
        // state a crash right after the WAL reset leaves — still recovers
        // every event, so no punished device is pardoned (§IV-B).
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        grow(&mut tangle, &mut store, 3, 10);
        let (ledger, marks) = ledger_of(&[mis(2, 2), event(1, 3, 1.0)]);
        store.checkpoint_with_credit(&tangle, &ledger, &marks).unwrap();
        drop(store);
        fs::write(dir.0.join(WAL_FILE), WAL_MAGIC).unwrap();

        let recovered = LedgerStore::open(&dir.0).unwrap().recover_full().unwrap();
        assert_eq!(recovered.tangle.unwrap().len(), tangle.len());
        let carried = ledger.snapshot_events();
        assert_eq!(recovered.credit_events, carried);

        // Events appended after the checkpoint replay after the carried
        // ones; a record at or below the snapshot's watermark — the old
        // WAL a crash before the reset leaves behind — is skipped.
        let mut store = LedgerStore::open(&dir.0).unwrap();
        store.write_records(&stamped(1, &[event(1, 3, 1.0), mis(4, 9)]), []).unwrap();
        let recovered = store.recover_full().unwrap();
        assert_eq!(recovered.credit_events, [carried, vec![mis(4, 9)]].concat());
        assert_eq!(recovered.credit_applied, 3);
        assert_eq!(recovered.credit_watermarks, BTreeMap::from([(1, 3)]));
    }

    #[test]
    fn forged_snapshot_counts_are_corrupt_not_allocated() {
        // A count of 2^40 rows, watermarks or credit events behind a few
        // bytes must be refused before it sizes an allocation.
        let mut huge = Vec::new();
        write_varint(&mut huge, 1 << 40);
        let headers: [(&[u8], &str); 3] = [
            (&[], "row count"),
            (&[0, 0], "watermark count"),
            (&[0, 0, 0], "credit count"),
        ];
        for (zero_counts, what) in headers {
            let mut data = SNAPSHOT_MAGIC.to_vec();
            data.extend_from_slice(zero_counts);
            data.extend_from_slice(&huge);
            let dir = TempDir::new();
            fs::write(dir.0.join(SNAPSHOT_FILE), &data).unwrap();
            let result = LedgerStore::open(&dir.0).unwrap().recover_full();
            assert!(
                matches!(result, Err(StoreError::CorruptSnapshot(w)) if w == what),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // `[0xFF; 9] ++ [0x7F]` carries six bits past u64.
        let mut overlong = vec![0xFF; 9];
        overlong.push(0x7F);

        // As a snapshot row count.
        let dir = TempDir::new();
        let mut data = SNAPSHOT_MAGIC.to_vec();
        data.extend_from_slice(&overlong);
        fs::write(dir.0.join(SNAPSHOT_FILE), &data).unwrap();
        let result = LedgerStore::open(&dir.0).unwrap().recover_full();
        assert!(matches!(result, Err(StoreError::CorruptSnapshot(_))), "{result:?}");

        // As the attach time of a WAL record followed by more records: not
        // a torn tail but corruption.
        let dir = TempDir::new();
        let (store, _, _) = world(&dir, 2);
        drop(store);
        let wal = dir.0.join(WAL_FILE);
        let mut data = WAL_MAGIC.to_vec();
        data.push(WAL_TAG_TX);
        data.extend_from_slice(&overlong);
        data.extend_from_slice(&fs::read(&wal).unwrap()[WAL_MAGIC.len()..]);
        fs::write(&wal, &data).unwrap();
        let result = LedgerStore::open(&dir.0).unwrap().recover_full();
        assert!(matches!(result, Err(StoreError::CorruptSnapshot(_))), "{result:?}");
    }

    #[test]
    fn read_only_recovers_but_refuses_every_write() {
        let dir = TempDir::new();
        let (mut writer, tangle, events) = world(&dir, 8);
        let (ledger, marks) = ledger_of(&events[..1]);
        writer.checkpoint_with_credit(&tangle, &ledger, &marks).unwrap();
        writer.write_records(&stamped(1, &events[1..]), []).unwrap();

        let mut ro = LedgerStore::open_read_only(&dir.0).unwrap();

        // Same bytes, same state as a writable open.
        let recovered = ro.recover_full().unwrap();
        let rt = recovered.tangle.unwrap();
        assert_eq!(rt.len(), tangle.len());
        assert_eq!(rt.tips(), tangle.tips());
        assert_eq!(recovered.credit_events, events);

        // Every mutating entry point is refused, and refusal leaves the
        // files untouched.
        let files = || [WAL_FILE, SNAPSHOT_FILE].map(|f| fs::read(dir.0.join(f)).unwrap());
        let before = files();
        let tx = TransactionBuilder::new(NodeId([9; 32]))
            .parents(tangle.tips()[0], tangle.tips()[0])
            .payload(Payload::Data(vec![9]))
            .timestamp_ms(999)
            .build();
        assert!(matches!(ro.append(&tx, 999), Err(StoreError::ReadOnly)));
        assert!(matches!(ro.write_records(&[], [(&tx, 999)]), Err(StoreError::ReadOnly)));
        assert!(matches!(
            ro.write_records(&stamped(9, &[mis(9, 9)]), []),
            Err(StoreError::ReadOnly)
        ));
        assert!(matches!(ro.checkpoint(&tangle), Err(StoreError::ReadOnly)));
        assert!(matches!(
            ro.checkpoint_with_credit(&tangle, &ledger, &marks),
            Err(StoreError::ReadOnly)
        ));
        assert_eq!(files(), before);

        // A read-only open never creates files either: opening a missing
        // directory is an error instead of a silent mkdir.
        assert!(LedgerStore::open_read_only(dir.0.join("nope")).is_err());
    }
}
