//! Property-based durability tests: any interleaving of appends and
//! checkpoints must recover to exactly the live ledger, and a torn WAL
//! recovers to a record-aligned prefix of it — with records appended one
//! at a time or in group-committed batches of random size.

use biot_store::LedgerStore;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, Transaction, TransactionBuilder};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_NO: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let n = DIR_NO.fetch_add(1, Ordering::SeqCst);
        let path = std::env::temp_dir().join(format!(
            "biot-durability-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An operation in the interleaving: attach a tx (parents are indices into
/// the attached list), or checkpoint.
#[derive(Clone, Debug)]
enum Op {
    Attach(usize, usize, u8),
    Checkpoint,
}

/// Group-commits `batch` once it holds `sizes[*next % sizes.len()]`
/// records (or whenever `force` is set), then moves on to the next size.
fn flush_batch(
    store: &mut LedgerStore,
    batch: &mut Vec<(Transaction, u64)>,
    sizes: &[usize],
    next: &mut usize,
    force: bool,
) {
    if batch.is_empty() || (!force && batch.len() < sizes[*next % sizes.len()]) {
        return;
    }
    store.write_records(&[], batch.iter().map(|(tx, at)| (tx, *at))).unwrap();
    batch.clear();
    *next += 1;
}

/// Batch sizes the WAL appends cycle through, from single records up.
fn batch_sizes_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..12, 1..6)
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0usize..100, 0usize..100, any::<u8>())
                .prop_map(|(a, b, p)| Op::Attach(a, b, p)),
            1 => Just(Op::Checkpoint),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_equals_live_state(
        ops in ops_strategy(),
        batch_sizes in batch_sizes_strategy(),
    ) {
        // Attaches are group-committed in batches of random size; every
        // checkpoint first flushes the open batch.
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        let mut attached = vec![genesis];
        let mut batch = Vec::new();
        let mut next_size = 0;

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Attach(a, b, payload) => {
                    let trunk = attached[a % attached.len()];
                    let branch = attached[b % attached.len()];
                    let tx = TransactionBuilder::new(NodeId([(i % 11) as u8 + 1; 32]))
                        .parents(trunk, branch)
                        .payload(Payload::Data(vec![*payload, i as u8]))
                        .timestamp_ms(i as u64 + 1)
                        .build();
                    let at = i as u64 + 1;
                    if let Ok(id) = tangle.attach(tx.clone(), at) {
                        batch.push((tx, at));
                        attached.push(id);
                    }
                    flush_batch(&mut store, &mut batch, &batch_sizes, &mut next_size, false);
                }
                Op::Checkpoint => {
                    flush_batch(&mut store, &mut batch, &batch_sizes, &mut next_size, true);
                    tangle.confirm_with_threshold(2);
                    store.checkpoint(&tangle).unwrap();
                }
            }
        }
        flush_batch(&mut store, &mut batch, &batch_sizes, &mut next_size, true);

        let recovered = LedgerStore::open(&dir.0)
            .unwrap()
            .recover_full().map(|s| s.tangle)
            .unwrap()
            .expect("state exists");
        prop_assert_eq!(recovered.len(), tangle.len());
        prop_assert_eq!(recovered.tips(), tangle.tips());
        for tx in tangle.iter() {
            let id = tx.id();
            prop_assert_eq!(recovered.get(&id), Some(tx));
            prop_assert_eq!(
                recovered.cumulative_weight(&id),
                tangle.cumulative_weight(&id)
            );
        }
    }

    #[test]
    fn truncated_wal_never_panics_and_keeps_prefix(
        n_txs in 1usize..15,
        cut in 1usize..4000,
        batch_sizes in batch_sizes_strategy(),
    ) {
        let dir = TempDir::new();
        let mut store = LedgerStore::open(&dir.0).unwrap();
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let genesis_tx = tangle.get(&genesis).unwrap().clone();
        store.append(&genesis_tx, 0).unwrap();
        let mut attached = vec![genesis];
        let mut batch = Vec::new();
        let mut next_size = 0;
        for i in 0..n_txs {
            let tx = TransactionBuilder::new(NodeId([1; 32]))
                .parents(*attached.last().unwrap(), attached[0])
                .payload(Payload::Data(vec![i as u8]))
                .timestamp_ms(i as u64 + 1)
                .build();
            let at = i as u64 + 1;
            tangle.attach(tx.clone(), at).unwrap();
            batch.push((tx, at));
            flush_batch(&mut store, &mut batch, &batch_sizes, &mut next_size, false);
            attached.push(tangle.tips()[0]);
        }
        flush_batch(&mut store, &mut batch, &batch_sizes, &mut next_size, true);
        drop(store);
        // Truncate the WAL at an arbitrary point ≥ the magic header.
        let wal = dir.0.join("wal.biot");
        let data = std::fs::read(&wal).unwrap();
        let keep = (8 + cut).min(data.len());
        std::fs::write(&wal, &data[..keep]).unwrap();

        // Recovery must not panic; whatever it returns is a prefix of the
        // original ledger in append order, however the cut split a batch.
        if let Ok(Some(recovered)) = LedgerStore::open(&dir.0).unwrap().recover_full().map(|s| s.tangle) {
            prop_assert!(recovered.len() <= tangle.len());
            prop_assert_eq!(
                recovered.attach_order(),
                &tangle.attach_order()[..recovered.len()]
            );
        }
    }
}
