//! Longest-chain blockchain with fork handling — the synchronous-consensus
//! baseline the paper contrasts against (§II-A, Fig 1).

use crate::block::{Block, BlockId, ChainTransaction};
use biot_tangle::tx::{NodeId, Payload};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Errors returned by [`Blockchain::add_block`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// Block id already stored.
    Duplicate(BlockId),
    /// The previous block is unknown.
    UnknownParent {
        /// The offending block.
        block: BlockId,
        /// Its missing predecessor.
        prev: BlockId,
    },
    /// A second genesis was offered.
    SecondGenesis(BlockId),
    /// A transaction in the block double-spends a token already spent in
    /// this block's ancestry.
    DoubleSpend {
        /// The offending block.
        block: BlockId,
        /// The disputed token.
        token: [u8; 32],
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Duplicate(id) => write!(f, "block {id:?} already stored"),
            ChainError::UnknownParent { block, prev } => {
                write!(f, "block {block:?} references unknown parent {prev:?}")
            }
            ChainError::SecondGenesis(id) => write!(f, "second genesis block {id:?}"),
            ChainError::DoubleSpend { block, .. } => {
                write!(f, "block {block:?} contains a double-spend")
            }
        }
    }
}

impl std::error::Error for ChainError {}

#[derive(Clone, Debug)]
struct StoredBlock {
    block: Block,
    height: u64,
}

/// A satoshi-style blockchain: blocks form a tree; the highest block wins
/// (ties break toward the lower id); only main-chain transactions count.
///
/// # Examples
///
/// ```
/// use biot_chain::{Block, BlockId, Blockchain};
/// use biot_tangle::tx::NodeId;
///
/// let mut chain = Blockchain::new();
/// let genesis = Block {
///     prev: BlockId::GENESIS_PARENT,
///     miner: NodeId([0; 32]),
///     timestamp_ms: 0,
///     nonce: 0,
///     txs: vec![],
/// };
/// let gid = chain.add_block(genesis, 0)?;
/// assert_eq!(chain.head(), Some(gid));
/// # Ok::<(), biot_chain::ChainError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Blockchain {
    blocks: HashMap<BlockId, StoredBlock>,
    children: HashMap<BlockId, Vec<BlockId>>,
    genesis: Option<BlockId>,
    head: Option<BlockId>,
    mempool: VecDeque<ChainTransaction>,
}

impl Blockchain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a transaction for inclusion in a future block.
    pub fn submit_tx(&mut self, tx: ChainTransaction) {
        self.mempool.push_back(tx);
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Takes up to `max` transactions from the mempool for mining.
    pub fn take_mempool(&mut self, max: usize) -> Vec<ChainTransaction> {
        let n = max.min(self.mempool.len());
        self.mempool.drain(..n).collect()
    }

    /// Validates and stores a block, updating the head if the new block
    /// extends the longest chain.
    ///
    /// # Errors
    ///
    /// See [`ChainError`]. A double-spend check walks the block's ancestry:
    /// spending a token twice on one branch is rejected; competing spends
    /// on *different* forks are allowed (the fork choice resolves them,
    /// which is exactly the slow path the paper criticizes).
    pub fn add_block(&mut self, block: Block, _now_ms: u64) -> Result<BlockId, ChainError> {
        let id = block.id();
        if self.blocks.contains_key(&id) {
            return Err(ChainError::Duplicate(id));
        }
        let height = if block.is_genesis() {
            if self.genesis.is_some() {
                return Err(ChainError::SecondGenesis(id));
            }
            0
        } else {
            match self.blocks.get(&block.prev) {
                None => {
                    return Err(ChainError::UnknownParent {
                        block: id,
                        prev: block.prev,
                    })
                }
                Some(parent) => parent.height + 1,
            }
        };
        // Double-spend check against this branch's history.
        let mut branch_spends: HashSet<[u8; 32]> = HashSet::new();
        for tx in &block.txs {
            if let Payload::Spend { token, .. } = &tx.payload {
                if !branch_spends.insert(*token) {
                    return Err(ChainError::DoubleSpend { block: id, token: *token });
                }
            }
        }
        if !block.is_genesis() {
            let mut cursor = Some(block.prev);
            while let Some(cur) = cursor {
                let stored = &self.blocks[&cur];
                for tx in &stored.block.txs {
                    if let Payload::Spend { token, .. } = &tx.payload {
                        if branch_spends.contains(token) {
                            return Err(ChainError::DoubleSpend { block: id, token: *token });
                        }
                    }
                }
                cursor = if stored.block.is_genesis() {
                    None
                } else {
                    Some(stored.block.prev)
                };
            }
        }

        if block.is_genesis() {
            self.genesis = Some(id);
        }
        self.children.entry(block.prev).or_default().push(id);
        self.blocks.insert(id, StoredBlock { block, height });
        // Fork choice: highest block wins; ties break toward the lower id
        // so all replicas agree deterministically.
        let better = match self.head {
            None => true,
            Some(h) => {
                let head_height = self.blocks[&h].height;
                height > head_height || (height == head_height && id < h)
            }
        };
        if better {
            self.head = Some(id);
        }
        Ok(id)
    }

    /// Convenience: builds and adds a block mined by `miner` containing up
    /// to `max_txs` mempool transactions on the current head.
    ///
    /// Returns `None` when there is no head yet (mine a genesis first) —
    /// empty blocks are allowed, matching real chains.
    pub fn mine_on_head(
        &mut self,
        miner: NodeId,
        max_txs: usize,
        now_ms: u64,
        nonce: u64,
    ) -> Option<Result<BlockId, ChainError>> {
        let prev = self.head?;
        let txs = self.take_mempool(max_txs);
        let block = Block {
            prev,
            miner,
            timestamp_ms: now_ms,
            nonce,
            txs,
        };
        Some(self.add_block(block, now_ms))
    }

    /// The current best block.
    pub fn head(&self) -> Option<BlockId> {
        self.head
    }

    /// Height of the current best block (genesis = 0).
    pub fn height(&self) -> Option<u64> {
        self.head.map(|h| self.blocks[&h].height)
    }

    /// Looks up a block.
    pub fn get(&self, id: &BlockId) -> Option<&Block> {
        self.blocks.get(id).map(|s| &s.block)
    }

    /// Number of stored blocks, including fork losers.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Walks the main chain head→genesis, returning block ids.
    pub fn main_chain(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        let mut cursor = self.head;
        while let Some(cur) = cursor {
            out.push(cur);
            let stored = &self.blocks[&cur];
            cursor = if stored.block.is_genesis() {
                None
            } else {
                Some(stored.block.prev)
            };
        }
        out
    }

    /// Returns true if `id` lies on the main chain.
    pub fn on_main_chain(&self, id: &BlockId) -> bool {
        self.main_chain().contains(id)
    }

    /// Total transactions on the main chain (the baseline's *effective*
    /// throughput numerator — fork-loser transactions don't count).
    pub fn main_chain_tx_count(&self) -> usize {
        self.main_chain()
            .iter()
            .map(|id| self.blocks[id].block.txs.len())
            .sum()
    }

    /// Number of blocks that lost a fork race (mined but not on the main
    /// chain) — wasted work under synchronous consensus.
    pub fn orphaned_block_count(&self) -> usize {
        self.len() - self.main_chain().len()
    }

    /// Confirmation depth of a block: how many blocks (inclusive of the
    /// head) build on it along the main chain. `None` if off-chain.
    pub fn confirmations(&self, id: &BlockId) -> Option<u64> {
        if !self.on_main_chain(id) {
            return None;
        }
        let h = self.blocks[id].height;
        self.height().map(|head_h| head_h - h + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u8) -> NodeId {
        NodeId([n; 32])
    }

    fn data_tx(n: u8) -> ChainTransaction {
        ChainTransaction {
            issuer: node(n),
            payload: Payload::Data(vec![n]),
            timestamp_ms: n as u64,
        }
    }

    fn spend_tx(n: u8, token: [u8; 32]) -> ChainTransaction {
        ChainTransaction {
            issuer: node(n),
            payload: Payload::Spend { token, to: node(n) },
            timestamp_ms: n as u64,
        }
    }

    fn genesis_block() -> Block {
        Block {
            prev: BlockId::GENESIS_PARENT,
            miner: node(0),
            timestamp_ms: 0,
            nonce: 0,
            txs: vec![],
        }
    }

    fn block_on(prev: BlockId, nonce: u64, txs: Vec<ChainTransaction>) -> Block {
        Block {
            prev,
            miner: node(1),
            timestamp_ms: nonce,
            nonce,
            txs,
        }
    }

    fn with_genesis() -> (Blockchain, BlockId) {
        let mut c = Blockchain::new();
        let g = c.add_block(genesis_block(), 0).unwrap();
        (c, g)
    }

    #[test]
    fn genesis_becomes_head() {
        let (c, g) = with_genesis();
        assert_eq!(c.head(), Some(g));
        assert_eq!(c.height(), Some(0));
        assert_eq!(c.main_chain(), vec![g]);
    }

    #[test]
    fn second_genesis_rejected() {
        let (mut c, _) = with_genesis();
        let mut g2 = genesis_block();
        g2.nonce = 99;
        let id = g2.id();
        assert_eq!(c.add_block(g2, 1), Err(ChainError::SecondGenesis(id)));
    }

    #[test]
    fn duplicate_rejected() {
        let (mut c, g) = with_genesis();
        let b = block_on(g, 1, vec![data_tx(1)]);
        let id = c.add_block(b.clone(), 1).unwrap();
        assert_eq!(c.add_block(b, 2), Err(ChainError::Duplicate(id)));
    }

    #[test]
    fn unknown_parent_rejected() {
        let (mut c, _) = with_genesis();
        let phantom = BlockId([9; 32]);
        let b = block_on(phantom, 1, vec![]);
        let id = b.id();
        assert_eq!(
            c.add_block(b, 1),
            Err(ChainError::UnknownParent { block: id, prev: phantom })
        );
    }

    #[test]
    fn longest_chain_wins() {
        let (mut c, g) = with_genesis();
        let a1 = c.add_block(block_on(g, 1, vec![]), 1).unwrap();
        let _b1 = c.add_block(block_on(g, 2, vec![]), 2).unwrap();
        // Extend branch a — it becomes strictly longer.
        let a2 = c.add_block(block_on(a1, 3, vec![]), 3).unwrap();
        assert_eq!(c.head(), Some(a2));
        assert_eq!(c.height(), Some(2));
        assert_eq!(c.orphaned_block_count(), 1);
    }

    #[test]
    fn tie_breaks_to_lower_id() {
        let (mut c, g) = with_genesis();
        let a = c.add_block(block_on(g, 1, vec![]), 1).unwrap();
        let b = c.add_block(block_on(g, 2, vec![]), 2).unwrap();
        let expected = a.min(b);
        assert_eq!(c.head(), Some(expected));
    }

    #[test]
    fn double_spend_within_block_rejected() {
        let (mut c, g) = with_genesis();
        let token = [7; 32];
        let b = block_on(g, 1, vec![spend_tx(1, token), spend_tx(2, token)]);
        let id = b.id();
        assert_eq!(
            c.add_block(b, 1),
            Err(ChainError::DoubleSpend { block: id, token })
        );
    }

    #[test]
    fn double_spend_across_ancestry_rejected_but_forks_allowed() {
        let (mut c, g) = with_genesis();
        let token = [7; 32];
        let a1 = c.add_block(block_on(g, 1, vec![spend_tx(1, token)]), 1).unwrap();
        // Same branch: rejected.
        let bad = block_on(a1, 2, vec![spend_tx(2, token)]);
        let bad_id = bad.id();
        assert_eq!(
            c.add_block(bad, 2),
            Err(ChainError::DoubleSpend { block: bad_id, token })
        );
        // Competing fork from genesis: allowed (fork race resolves it).
        let fork = block_on(g, 3, vec![spend_tx(2, token)]);
        assert!(c.add_block(fork, 3).is_ok());
    }

    #[test]
    fn mempool_and_mining() {
        let (mut c, _g) = with_genesis();
        for i in 0..10u8 {
            c.submit_tx(data_tx(i));
        }
        assert_eq!(c.mempool_len(), 10);
        let id = c.mine_on_head(node(9), 4, 5, 1).unwrap().unwrap();
        assert_eq!(c.get(&id).unwrap().txs.len(), 4);
        assert_eq!(c.mempool_len(), 6);
        assert_eq!(c.main_chain_tx_count(), 4);
        // Mining drains FIFO.
        assert_eq!(c.get(&id).unwrap().txs[0], data_tx(0));
    }

    #[test]
    fn mine_without_genesis_returns_none() {
        let mut c = Blockchain::new();
        assert!(c.mine_on_head(node(1), 4, 0, 0).is_none());
    }

    #[test]
    fn confirmations_count() {
        let (mut c, g) = with_genesis();
        let a = c.add_block(block_on(g, 1, vec![]), 1).unwrap();
        let _b = c.add_block(block_on(a, 2, vec![]), 2).unwrap();
        assert_eq!(c.confirmations(&g), Some(3));
        assert_eq!(c.confirmations(&a), Some(2));
        // Fork loser has no confirmations.
        let loser = c.add_block(block_on(g, 9, vec![]), 9).unwrap();
        assert_eq!(c.confirmations(&loser), None);
    }

    #[test]
    fn deep_reorg_switches_main_chain() {
        let (mut c, g) = with_genesis();
        // Build branch A of length 3.
        let a1 = c.add_block(block_on(g, 1, vec![data_tx(1)]), 1).unwrap();
        let a2 = c.add_block(block_on(a1, 2, vec![data_tx(2)]), 2).unwrap();
        let a3 = c.add_block(block_on(a2, 3, vec![data_tx(3)]), 3).unwrap();
        assert_eq!(c.head(), Some(a3));
        assert_eq!(c.main_chain_tx_count(), 3);
        // A competing branch B grows to length 4 — deep reorg.
        let b1 = c.add_block(block_on(g, 11, vec![data_tx(4)]), 11).unwrap();
        let b2 = c.add_block(block_on(b1, 12, vec![]), 12).unwrap();
        assert_eq!(c.head(), Some(a3), "shorter branch does not reorg");
        let b3 = c.add_block(block_on(b2, 13, vec![]), 13).unwrap();
        // Equal height: the deterministic tie-break (lower id) may pick
        // either branch, but never a shorter one.
        assert!(c.head() == Some(a3) || c.head() == Some(b3));
        let b4 = c.add_block(block_on(b3, 14, vec![data_tx(5)]), 14).unwrap();
        assert_eq!(c.head(), Some(b4), "strictly longer branch wins");
        // Branch A's transactions fell off the main chain.
        assert_eq!(c.main_chain_tx_count(), 2);
        assert_eq!(c.orphaned_block_count(), 3);
        assert!(!c.on_main_chain(&a3));
        assert_eq!(c.confirmations(&a1), None);
    }

    #[test]
    fn reorg_back_and_forth() {
        let (mut c, g) = with_genesis();
        let mut a = g;
        let mut b = g;
        // Alternate extensions: the head ping-pongs as each branch takes
        // the lead.
        for i in 0..4u64 {
            a = c.add_block(block_on(a, 100 + i, vec![]), 100 + i).unwrap();
            assert_eq!(c.head(), Some(a), "A leads after its extension");
            b = c.add_block(block_on(b, 200 + i, vec![]), 200 + i).unwrap();
            // Heights equal: tie break by id, deterministic either way.
            let head = c.head().unwrap();
            assert!(head == a || head == b);
        }
        // One more on B makes it strictly longer.
        b = c.add_block(block_on(b, 999, vec![]), 999).unwrap();
        assert_eq!(c.head(), Some(b));
    }

    #[test]
    fn fork_spend_resolution_by_reorg() {
        // Two forks spend the same token; the fork-choice decides which
        // spend is "real" — the slow resolution the paper criticizes.
        let (mut c, g) = with_genesis();
        let token = [9; 32];
        let a1 = c.add_block(block_on(g, 1, vec![spend_tx(1, token)]), 1).unwrap();
        let b1 = c.add_block(block_on(g, 2, vec![spend_tx(2, token)]), 2).unwrap();
        let winner_first = c.head().unwrap();
        assert!(winner_first == a1 || winner_first == b1);
        // Extend the loser: the OTHER spend becomes canonical.
        let loser = if winner_first == a1 { b1 } else { a1 };
        let l2 = c.add_block(block_on(loser, 3, vec![]), 3).unwrap();
        assert_eq!(c.head(), Some(l2));
        assert!(c.on_main_chain(&loser));
        assert!(!c.on_main_chain(&winner_first));
    }

    #[test]
    fn main_chain_walk() {
        let (mut c, g) = with_genesis();
        let a = c.add_block(block_on(g, 1, vec![]), 1).unwrap();
        let b = c.add_block(block_on(a, 2, vec![]), 2).unwrap();
        assert_eq!(c.main_chain(), vec![b, a, g]);
        assert!(c.on_main_chain(&a));
        assert_eq!(c.len(), 3);
    }
}
