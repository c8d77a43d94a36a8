//! A from-scratch B+Tree, node-per-page over a paged store.
//!
//! Maps orderable keys to `u32` row ids, allows duplicate keys, supports
//! point lookup, ordered range scans and full in-order traversal — the
//! access paths behind the paper's five operator categories (lookup,
//! range select, sorting, grouping, join).
//!
//! Every node is one fixed-size page in a private
//! [`flowtune_storage::MemPageStore`], accessed through a
//! [`flowtune_storage::BufferPool`] — checksummed, epoch-stamped, and
//! LRU-cached. There is no separate in-memory arena: the page store is
//! the *only* representation, so the code path the fault-injection and
//! recovery machinery verifies is the same one every query runs
//! (DESIGN §5h). Leaves are chained for range scans. Pool traffic
//! (hits/misses/evictions, page reads/writes) is what turns the cost
//! model's asserted build/probe I/O into measured I/O.

use flowtune_common::{FlowtuneError, PageId, Result};
use flowtune_storage::{BufferPool, MemPageStore, Page, PageStore, PoolStats};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::rc::Rc;

/// Maximum keys per node if not overridden.
pub const DEFAULT_ORDER: usize = 64;

/// Cached frames in a tree's private buffer pool (16 MiB of 4 KiB
/// pages). Trees larger than this spill to store reads, which is
/// exactly the traffic the measured-I/O calibration wants to see.
pub const TREE_POOL_PAGES: usize = 4096;

/// Page kind tag for leaf nodes.
const KIND_LEAF: u8 = 1;
/// Page kind tag for internal nodes.
const KIND_INTERNAL: u8 = 2;
/// `next`-pointer sentinel for the last leaf in the chain.
const NO_PAGE: u32 = u32::MAX;

/// Keys a paged B+Tree can store: orderable, and encodable to/from the
/// page payload byte format.
pub trait NodeKey: Ord + Clone + Debug {
    /// Append this key's encoding to `out`.
    fn encode_key(&self, out: &mut Vec<u8>);
    /// Decode one key starting at `*at`, advancing `*at` past it.
    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self>;
}

impl NodeKey for i64 {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self> {
        let raw = take(bytes, at, 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(i64::from_le_bytes(buf))
    }
}

impl NodeKey for u64 {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self> {
        let raw = take(bytes, at, 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(u64::from_le_bytes(buf))
    }
}

impl NodeKey for String {
    fn encode_key(&self, out: &mut Vec<u8>) {
        #[expect(
            clippy::expect_used,
            reason = "string keys longer than a page cannot be stored at all; the length check in store_node rejects the node first"
        )]
        let len = u16::try_from(self.len()).expect("string key fits a page");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self> {
        let raw = take(bytes, at, 2)?;
        let len = usize::from(u16::from_le_bytes([raw[0], raw[1]]));
        let body = take(bytes, at, len)?;
        String::from_utf8(body.to_vec())
            .map_err(|_| FlowtuneError::corrupt("string key is not valid UTF-8"))
    }
}

/// Slice `n` bytes at `*at`, advancing the cursor.
fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = at.checked_add(n).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(FlowtuneError::corrupt("node payload truncated"));
    };
    let out = &bytes[*at..end];
    *at = end;
    Ok(out)
}

fn read_u16(bytes: &[u8], at: &mut usize) -> Result<u16> {
    let raw = take(bytes, at, 2)?;
    Ok(u16::from_le_bytes([raw[0], raw[1]]))
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Result<u32> {
    let raw = take(bytes, at, 4)?;
    Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
}

/// Decoded in-memory view of one node page.
#[derive(Debug, Clone)]
enum Node<K> {
    Internal {
        /// `keys[i]` is the smallest key reachable under `children[i+1]`.
        keys: Vec<K>,
        children: Vec<PageId>,
    },
    Leaf {
        keys: Vec<K>,
        rows: Vec<u32>,
        next: Option<PageId>,
    },
}

/// Encode a node into `(page kind, payload)`.
///
/// Leaf payload: `n: u16 | next: u32 | n × row: u32 | n × key`.
/// Internal payload: `n: u16 | (n+1) × child: u32 | n × key`.
#[expect(
    clippy::expect_used,
    reason = "node arity is bounded by the tree order, which store_node caps far below u16::MAX"
)]
fn encode_node<K: NodeKey>(node: &Node<K>) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    match node {
        Node::Leaf { keys, rows, next } => {
            let n = u16::try_from(keys.len()).expect("leaf arity fits u16");
            out.extend_from_slice(&n.to_le_bytes());
            out.extend_from_slice(&next.map_or(NO_PAGE, |p| p.0).to_le_bytes());
            for row in rows {
                out.extend_from_slice(&row.to_le_bytes());
            }
            for key in keys {
                key.encode_key(&mut out);
            }
            (KIND_LEAF, out)
        }
        Node::Internal { keys, children } => {
            let n = u16::try_from(keys.len()).expect("internal arity fits u16");
            out.extend_from_slice(&n.to_le_bytes());
            for child in children {
                out.extend_from_slice(&child.0.to_le_bytes());
            }
            for key in keys {
                key.encode_key(&mut out);
            }
            (KIND_INTERNAL, out)
        }
    }
}

/// Decode a node page written by [`encode_node`].
fn decode_node<K: NodeKey>(page: &Page) -> Result<Node<K>> {
    let bytes = &page.payload;
    let mut at = 0usize;
    let n = usize::from(read_u16(bytes, &mut at)?);
    match page.kind {
        KIND_LEAF => {
            let next = read_u32(bytes, &mut at)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(read_u32(bytes, &mut at)?);
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(K::decode_key(bytes, &mut at)?);
            }
            Ok(Node::Leaf {
                keys,
                rows,
                next: (next != NO_PAGE).then_some(PageId(next)),
            })
        }
        KIND_INTERNAL => {
            let mut children = Vec::with_capacity(n + 1);
            for _ in 0..=n {
                children.push(PageId(read_u32(bytes, &mut at)?));
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(K::decode_key(bytes, &mut at)?);
            }
            Ok(Node::Internal { keys, children })
        }
        kind => Err(FlowtuneError::corrupt(format!(
            "unknown node page kind {kind}"
        ))),
    }
}

/// B+Tree from keys to row ids; duplicates allowed. Nodes live in a
/// private checksummed page store behind an LRU buffer pool.
#[derive(Debug, Clone)]
pub struct BPlusTree<K> {
    /// `RefCell` because reads (`get`, `range`, `iter`) take `&self`
    /// but still move frames through the pool's LRU state. Borrows
    /// never outlive a single node load, so they cannot overlap.
    pool: RefCell<BufferPool<MemPageStore>>,
    /// Decoded-node memo above the pool: a load served from here is a
    /// shared-`Rc` clone, skipping the page copy and key decode
    /// entirely — which is what keeps warm point lookups ahead of warm
    /// range scans in wall time. Nodes are immutable once stored
    /// (every mutation writes a fresh node), so sharing is safe. The
    /// memo is buffered memory in the crash model — `drop_cache` and
    /// `tear_page` discard it — and is bounded at [`TREE_POOL_PAGES`]
    /// entries by a deterministic full flush.
    memo: RefCell<BTreeMap<PageId, Rc<Node<K>>>>,
    /// Loads served by the memo, folded into [`Self::pool_stats`] hits.
    memo_hits: Cell<u64>,
    root: PageId,
    order: usize,
    len: usize,
    /// Epoch stamped into every page this tree writes.
    epoch: u32,
    _marker: std::marker::PhantomData<K>,
}

impl<K: NodeKey> Default for BPlusTree<K> {
    fn default() -> Self {
        Self::new(DEFAULT_ORDER)
    }
}

impl<K: NodeKey> BPlusTree<K> {
    /// Create an empty tree with the given order (max keys per node,
    /// must be ≥ 3).
    pub fn new(order: usize) -> Self {
        assert!(order >= 3, "B+Tree order must be at least 3");
        let mut pool = BufferPool::new(MemPageStore::new(), TREE_POOL_PAGES);
        let root = pool.allocate();
        let tree = BPlusTree {
            pool: RefCell::new(pool),
            memo: RefCell::new(BTreeMap::new()),
            memo_hits: Cell::new(0),
            root,
            order,
            len: 0,
            epoch: 0,
            _marker: std::marker::PhantomData,
        };
        tree.store_node(
            root,
            &Node::Leaf {
                keys: Vec::new(),
                rows: Vec::new(),
                next: None,
            },
        );
        tree
    }

    /// Bulk-build from `(key, row)` pairs sorted by key. Leaves are packed
    /// to `order` entries, then internal levels are stacked — O(n).
    ///
    /// Panics if the input is not sorted by key.
    pub fn bulk_build(order: usize, pairs: &[(K, u32)]) -> Self {
        assert!(order >= 3, "B+Tree order must be at least 3");
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_build input must be sorted by key"
        );
        if pairs.is_empty() {
            return Self::new(order);
        }
        let mut pool = BufferPool::new(MemPageStore::new(), TREE_POOL_PAGES);
        let chunks: Vec<&[(K, u32)]> = pairs.chunks(order).collect();
        let leaf_ids: Vec<PageId> = chunks.iter().map(|_| pool.allocate()).collect();
        let mut tree = BPlusTree {
            pool: RefCell::new(pool),
            memo: RefCell::new(BTreeMap::new()),
            memo_hits: Cell::new(0),
            root: leaf_ids[0],
            order,
            len: pairs.len(),
            epoch: 0,
            _marker: std::marker::PhantomData,
        };
        let mut level: Vec<(K, PageId)> = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            tree.store_node(
                leaf_ids[i],
                &Node::Leaf {
                    keys: chunk.iter().map(|(k, _)| k.clone()).collect(),
                    rows: chunk.iter().map(|(_, r)| *r).collect(),
                    next: leaf_ids.get(i + 1).copied(),
                },
            );
            level.push((chunk[0].0.clone(), leaf_ids[i]));
        }
        // Stack internal levels until a single root remains.
        while level.len() > 1 {
            let mut upper: Vec<(K, PageId)> = Vec::new();
            for chunk in level.chunks(order + 1) {
                let id = tree.pool.borrow_mut().allocate();
                tree.store_node(
                    id,
                    &Node::Internal {
                        keys: chunk[1..].iter().map(|(k, _)| k.clone()).collect(),
                        children: chunk.iter().map(|(_, c)| *c).collect(),
                    },
                );
                upper.push((chunk[0].0.clone(), id));
            }
            level = upper;
        }
        tree.root = level[0].1;
        tree
    }

    /// Decode the node stored at `id`, serving a shared handle from
    /// the decoded-node memo when possible.
    #[expect(
        clippy::expect_used,
        reason = "the tree owns its private page store; a page it wrote failing read or decode is memory corruption, unrecoverable at this layer (external corruption is surfaced as a typed error by verify_pages, which recovery runs *before* serving queries)"
    )]
    fn load(&self, id: PageId) -> Rc<Node<K>> {
        if let Some(node) = self.memo.borrow().get(&id) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return Rc::clone(node);
        }
        let page = self
            .pool
            .borrow_mut()
            .read(id)
            .expect("tree-owned page must read back cleanly");
        let node = Rc::new(decode_node(&page).expect("tree-owned page must decode"));
        self.memo_node(id, Rc::clone(&node));
        node
    }

    /// Owned copy of the node stored at `id`, for mutation.
    fn load_owned(&self, id: PageId) -> Node<K> {
        (*self.load(id)).clone()
    }

    /// Shared handle to the leaf stored at `id`.
    fn load_leaf(&self, id: PageId) -> Rc<Node<K>> {
        let node = self.load(id);
        debug_assert!(
            matches!(&*node, Node::Leaf { .. }),
            "leaf chain points to internal node"
        );
        node
    }

    /// Encode and persist a node to its page, refreshing the memo.
    fn store_node(&self, id: PageId, node: &Node<K>) {
        let (kind, payload) = encode_node(node);
        #[expect(
            clippy::expect_used,
            reason = "an encoded node exceeding one page means the configured order is too large for the key width — a construction-time configuration error, not a runtime condition; every supported (order, key type) pair is pinned by tests"
        )]
        let page = Page::new(kind, self.epoch, payload)
            .expect("node must fit one page: order too large for this key type");
        self.pool.borrow_mut().write(id, page);
        self.memo_node(id, Rc::new(node.clone()));
    }

    /// Insert a decoded node into the memo, flushing it wholesale when
    /// it reaches the pool's frame budget (deterministic, and never
    /// counted as pool evictions — the persistent frames are intact).
    fn memo_node(&self, id: PageId, node: Rc<Node<K>>) {
        let mut memo = self.memo.borrow_mut();
        if memo.len() >= TREE_POOL_PAGES && !memo.contains_key(&id) {
            memo.clear();
        }
        memo.insert(id, node);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &*self.load(node) {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Number of node pages in the store (live nodes; splits never free).
    pub fn node_count(&self) -> usize {
        self.pool.borrow().store().page_count()
    }

    /// Buffer-pool traffic accumulated by this tree (page reads and
    /// writes, cache hits/misses/evictions) — the measured-I/O source
    /// the cost model calibrates against. Loads served by the
    /// decoded-node memo count as hits: the memo never outlives the
    /// cached frame it shadows, so they are cache hits in every sense
    /// that matters to the probe model.
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.borrow().stats();
        stats.hits += self.memo_hits.get();
        stats
    }

    /// Drop every buffered frame (pool frames and decoded-node memo)
    /// so the next probes run cold — the measurement hook
    /// `measured::measure_io` uses to observe real from-store probe
    /// traffic instead of warm-cache hits.
    pub fn drop_cache(&mut self) {
        self.pool.borrow_mut().clear_cache();
        self.memo.borrow_mut().clear();
    }

    /// Insert a `(key, row)` pair; duplicates are kept.
    pub fn insert(&mut self, key: K, row: u32) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, row) {
            // Root split: create a new root.
            let old_root = self.root;
            let id = self.pool.borrow_mut().allocate();
            self.store_node(
                id,
                &Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                },
            );
            self.root = id;
        }
        self.len += 1;
    }

    /// Recursive insert; returns `Some((separator, new_right_page))` when
    /// the child split.
    fn insert_rec(&mut self, node: PageId, key: K, row: u32) -> Option<(K, PageId)> {
        match self.load_owned(node) {
            Node::Leaf {
                mut keys,
                mut rows,
                next,
            } => {
                let pos = keys.partition_point(|k| *k <= key);
                keys.insert(pos, key);
                rows.insert(pos, row);
                if keys.len() > self.order {
                    Some(self.split_leaf(node, keys, rows, next))
                } else {
                    self.store_node(node, &Node::Leaf { keys, rows, next });
                    None
                }
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                // Route with strict `<` so a key equal to a separator goes
                // left; the leaf chain makes duplicates that historically
                // stayed right of the separator still reachable.
                let child_idx = keys.partition_point(|k| *k < key);
                let child = children[child_idx];
                let (sep, right) = self.insert_rec(child, key, row)?;
                // The new right node goes immediately after the child
                // that split; with duplicate separators a key search
                // could misplace it.
                keys.insert(child_idx, sep);
                children.insert(child_idx + 1, right);
                if keys.len() > self.order {
                    return Some(self.split_internal(node, keys, children));
                }
                self.store_node(node, &Node::Internal { keys, children });
                None
            }
        }
    }

    /// Split an overfull leaf, persisting both halves.
    fn split_leaf(
        &mut self,
        node: PageId,
        mut keys: Vec<K>,
        mut rows: Vec<u32>,
        next: Option<PageId>,
    ) -> (K, PageId) {
        let new_id = self.pool.borrow_mut().allocate();
        let mid = keys.len() / 2;
        let right_keys: Vec<K> = keys.split_off(mid);
        let right_rows: Vec<u32> = rows.split_off(mid);
        let sep = right_keys[0].clone();
        self.store_node(
            new_id,
            &Node::Leaf {
                keys: right_keys,
                rows: right_rows,
                next,
            },
        );
        self.store_node(
            node,
            &Node::Leaf {
                keys,
                rows,
                next: Some(new_id),
            },
        );
        (sep, new_id)
    }

    /// Split an overfull internal node, persisting both halves.
    fn split_internal(
        &mut self,
        node: PageId,
        mut keys: Vec<K>,
        mut children: Vec<PageId>,
    ) -> (K, PageId) {
        let new_id = self.pool.borrow_mut().allocate();
        let mid = keys.len() / 2;
        let right_keys: Vec<K> = keys.split_off(mid + 1);
        #[expect(
            clippy::expect_used,
            reason = "split is only called on overfull nodes, so mid >= 1 keys remain"
        )]
        let sep = keys.pop().expect("internal node must have a middle key");
        let right_children: Vec<PageId> = children.split_off(mid + 1);
        self.store_node(
            new_id,
            &Node::Internal {
                keys: right_keys,
                children: right_children,
            },
        );
        self.store_node(node, &Node::Internal { keys, children });
        (sep, new_id)
    }

    /// Locate the leaf that may contain `key` (or the first key ≥ it)
    /// and the position within it. `None` descends to the leftmost
    /// leaf at position 0 — the single descent path shared by point
    /// lookups, range scans, and full traversal, so pool/memo
    /// accounting counts every entry point identically.
    fn seek(&self, key: Option<&K>) -> (PageId, usize) {
        let mut node = self.root;
        loop {
            match &*self.load(node) {
                Node::Internal { keys, children } => {
                    node = match key {
                        Some(key) => children[keys.partition_point(|k| k < key)],
                        None => children[0],
                    };
                }
                Node::Leaf { keys, .. } => {
                    let pos = key.map_or(0, |key| keys.partition_point(|k| k < key));
                    return (node, pos);
                }
            }
        }
    }

    /// Remove one `(key, row)` entry; returns true if it existed.
    ///
    /// Deletion is *lazy*: the entry is removed from its leaf but nodes
    /// are never merged or rebalanced. Search correctness is unaffected
    /// (separators stay valid bounds); space is reclaimed when the index
    /// partition is rebuilt, which is how the catalog handles updates
    /// anyway (stale partitions are dropped wholesale).
    pub fn remove(&mut self, key: &K, row: u32) -> bool {
        let (mut leaf, _) = self.seek(Some(key));
        loop {
            let Node::Leaf {
                mut keys,
                mut rows,
                next,
            } = self.load_owned(leaf)
            else {
                unreachable!("leaf chain points to internal node")
            };
            let start = keys.partition_point(|k| k < key);
            let mut i = start;
            while i < keys.len() && &keys[i] == key {
                if rows[i] == row {
                    keys.remove(i);
                    rows.remove(i);
                    self.len -= 1;
                    self.store_node(leaf, &Node::Leaf { keys, rows, next });
                    return true;
                }
                i += 1;
            }
            // A duplicates run may continue in the next leaf.
            match next.filter(|_| i == keys.len()) {
                Some(n) => leaf = n,
                None => return false,
            }
        }
    }

    /// Remove every entry for `key`; returns how many were removed.
    pub fn remove_all(&mut self, key: &K) -> usize {
        let rows: Vec<u32> = self.get(key).collect();
        for r in &rows {
            let removed = self.remove(key, *r);
            debug_assert!(removed, "row listed by get must be removable");
        }
        rows.len()
    }

    /// Row ids of all entries equal to `key`, in insertion-independent
    /// (key) order.
    pub fn get<'a>(&'a self, key: &K) -> impl Iterator<Item = u32> + 'a {
        self.range(key.clone(), key.clone()).map(|(_, r)| r)
    }

    /// First row id for `key`, if any.
    pub fn get_first(&self, key: &K) -> Option<u32> {
        self.get(key).next()
    }

    /// Ordered iterator over all `(key, row)` with `lo ≤ key ≤ hi`.
    ///
    /// Bounds are taken by value: callers probing with computed
    /// sentinel keys (e.g. [`crate::TupleKey`] prefix bounds) hand
    /// them to the iterator instead of keeping a borrow alive for its
    /// whole lifetime.
    pub fn range(&self, lo: K, hi: K) -> RangeIter<'_, K> {
        let (leaf, pos) = self.seek(Some(&lo));
        RangeIter {
            tree: self,
            leaf: Some(self.load_leaf(leaf)),
            pos,
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// Ordered iterator over every `(key, row)` entry.
    pub fn iter(&self) -> RangeIter<'_, K> {
        let (leaf, pos) = self.seek(None);
        RangeIter {
            tree: self,
            leaf: Some(self.load_leaf(leaf)),
            pos,
            lo: None,
            hi: None,
        }
    }

    /// Verify structural invariants (sortedness, key/child arity, leaf
    /// chain order). Used by tests and fuzzing; O(n).
    pub fn check_invariants(&self) -> Result<()> {
        // Every leaf's keys sorted; chained leaves globally sorted.
        let mut last: Option<K> = None;
        let mut counted = 0usize;
        for (k, _) in self.iter() {
            if let Some(prev) = &last {
                if prev > &k {
                    return Err(FlowtuneError::corrupt(format!(
                        "keys out of order: {prev:?} > {k:?}"
                    )));
                }
            }
            last = Some(k);
            counted += 1;
        }
        if counted != self.len {
            return Err(FlowtuneError::corrupt(format!(
                "len {} but iterated {counted}",
                self.len
            )));
        }
        self.check_node(self.root, None, None)
    }

    fn check_node(&self, node: PageId, lo: Option<&K>, hi: Option<&K>) -> Result<()> {
        match &*self.load(node) {
            Node::Leaf { keys, rows, .. } => {
                if keys.len() != rows.len() {
                    return Err(FlowtuneError::corrupt("leaf keys/rows length mismatch"));
                }
                for k in keys {
                    if lo.is_some_and(|lo| k < lo) || hi.is_some_and(|hi| k > hi) {
                        return Err(FlowtuneError::corrupt(format!(
                            "leaf key {k:?} outside separator bounds"
                        )));
                    }
                }
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(FlowtuneError::corrupt("internal arity mismatch"));
                }
                if keys.windows(2).any(|w| w[0] > w[1]) {
                    return Err(FlowtuneError::corrupt("internal keys unsorted"));
                }
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    self.check_node(child, child_lo, child_hi)?;
                }
                Ok(())
            }
        }
    }

    /// Verify every page in the backing store against its checksum and
    /// this tree's epoch, bypassing cached frames — the scan recovery
    /// runs before a rebuilt or suspect tree is allowed to serve
    /// queries. Returns the first defect found.
    pub fn verify_pages(&self) -> Result<()> {
        let mut pool = self.pool.borrow_mut();
        let ids: Vec<PageId> = pool.store().ids().collect();
        for id in ids {
            let verdict = pool.check(id, self.epoch);
            if !verdict.is_clean() {
                return Err(FlowtuneError::corrupt(format!(
                    "page {id} failed verification: {verdict:?}"
                )));
            }
        }
        Ok(())
    }

    /// Fault-injection hook: corrupt the `nth` stored page (modulo the
    /// page count) in the *persistent* store and drop its cached
    /// frame, modeling a torn write that survives a crash while the
    /// builder's memory does not. Returns the damaged page id.
    pub fn tear_page(&mut self, nth: usize) -> Option<PageId> {
        let mut pool = self.pool.borrow_mut();
        let ids: Vec<PageId> = pool.store().ids().collect();
        if ids.is_empty() {
            return None;
        }
        let id = ids[nth % ids.len()];
        pool.store_mut()
            .corrupt(id, flowtune_storage::PAGE_SIZE / 2);
        pool.evict(id);
        self.memo.borrow_mut().remove(&id);
        Some(id)
    }
}

/// Ordered iterator over `(key, row)` pairs of a [`BPlusTree`]. Holds
/// a shared handle to the decoded current leaf so iteration loads each
/// leaf page once.
#[derive(Debug)]
pub struct RangeIter<'a, K: NodeKey> {
    tree: &'a BPlusTree<K>,
    /// Decoded current leaf (always a [`Node::Leaf`]).
    leaf: Option<Rc<Node<K>>>,
    pos: usize,
    lo: Option<K>,
    hi: Option<K>,
}

impl<K: NodeKey> Iterator for RangeIter<'_, K> {
    type Item = (K, u32);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Node::Leaf { keys, rows, next } = &**self.leaf.as_ref()? else {
                unreachable!("leaf chain points to internal node")
            };
            if self.pos < keys.len() {
                let k = &keys[self.pos];
                // A duplicates run can span leaves: entries below
                // `lo` may still appear at the head of a chained
                // leaf. Skip them (keys are globally sorted, so
                // this terminates at the first in-range key).
                if self.lo.as_ref().is_some_and(|lo| k < lo) {
                    self.pos += 1;
                    continue;
                }
                if self.hi.as_ref().is_some_and(|hi| k > hi) {
                    self.leaf = None;
                    return None;
                }
                let item = (k.clone(), rows[self.pos]);
                self.pos += 1;
                return Some(item);
            }
            self.leaf = next.map(|id| self.tree.load_leaf(id));
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;

    #[test]
    fn empty_tree() {
        let t: BPlusTree<i64> = BPlusTree::new(4);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.get_first(&1), None);
        assert_eq!(t.iter().count(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = BPlusTree::new(4);
        for k in [5i64, 1, 9, 3, 7, 2, 8, 6, 4, 0] {
            t.insert(k, k as u32 * 10);
        }
        assert_eq!(t.len(), 10);
        for k in 0..10i64 {
            assert_eq!(t.get_first(&k), Some(k as u32 * 10), "key {k}");
        }
        assert_eq!(t.get_first(&42), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = BPlusTree::new(4);
        for i in 0..20u32 {
            t.insert(7i64, i);
        }
        t.insert(3, 100);
        let rows: Vec<u32> = t.get(&7).collect();
        assert_eq!(rows.len(), 20);
        assert_eq!(t.get(&3).count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let mut t = BPlusTree::new(5);
        for k in (0..200i64).rev() {
            t.insert(k, k as u32);
        }
        let got: Vec<i64> = t.range(50, 59).map(|(k, _)| k).collect();
        assert_eq!(got, (50..=59).collect::<Vec<_>>());
        // Empty range.
        assert_eq!(t.range(300, 400).count(), 0);
        // Range covering everything.
        assert_eq!(t.range(-10, 10_000).count(), 200);
    }

    #[test]
    fn bulk_build_equals_incremental() {
        let pairs: Vec<(i64, u32)> = (0..500).map(|i| (i / 3, i as u32)).collect();
        let bulk = BPlusTree::bulk_build(8, &pairs);
        let mut inc = BPlusTree::new(8);
        for (k, r) in &pairs {
            inc.insert(*k, *r);
        }
        bulk.check_invariants().unwrap();
        inc.check_invariants().unwrap();
        let a: Vec<(i64, u32)> = bulk.iter().collect();
        let b: Vec<(i64, u32)> = inc.iter().collect();
        // Same multiset per key (row order within equal keys may differ).
        assert_eq!(a.len(), b.len());
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        a2.sort_unstable();
        b2.sort_unstable();
        assert_eq!(a2, b2);
        assert_eq!(bulk.len(), 500);
    }

    #[test]
    fn bulk_build_empty_and_single() {
        let t: BPlusTree<i64> = BPlusTree::bulk_build(4, &[]);
        assert!(t.is_empty());
        let t = BPlusTree::bulk_build(4, &[(9i64, 1)]);
        assert_eq!(t.get_first(&9), Some(1));
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn height_grows_logarithmically() {
        let pairs: Vec<(i64, u32)> = (0..10_000).map(|i| (i, i as u32)).collect();
        let t = BPlusTree::bulk_build(64, &pairs);
        // 10k entries at order 64: leaves ~157, one or two internal levels.
        assert!(t.height() <= 3, "height {}", t.height());
        t.check_invariants().unwrap();
    }

    #[test]
    fn string_keys_work() {
        let mut t = BPlusTree::new(4);
        for (i, w) in ["pear", "apple", "fig", "date", "cherry"]
            .iter()
            .enumerate()
        {
            t.insert((*w).to_owned(), i as u32);
        }
        let inorder: Vec<String> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(inorder, ["apple", "cherry", "date", "fig", "pear"]);
        t.check_invariants().unwrap();
        t.verify_pages().unwrap();
    }

    #[test]
    fn remove_deletes_specific_entries() {
        let mut t = BPlusTree::new(4);
        for i in 0..50u32 {
            t.insert((i / 5) as i64, i);
        }
        assert!(t.remove(&3, 17));
        assert!(!t.remove(&3, 17), "double delete must fail");
        assert!(!t.remove(&99, 0), "missing key");
        assert_eq!(t.len(), 49);
        assert!(!t.get(&3).any(|r| r == 17));
        assert_eq!(t.get(&3).count(), 4);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_all_clears_duplicates_across_leaves() {
        let mut t = BPlusTree::new(3);
        for i in 0..30u32 {
            t.insert(7i64, i);
        }
        t.insert(1, 100);
        t.insert(9, 101);
        assert_eq!(t.remove_all(&7), 30);
        assert_eq!(t.get(&7).count(), 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_first(&1), Some(100));
        assert_eq!(t.get_first(&9), Some(101));
        t.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_insert_remove_stays_consistent() {
        let mut t = BPlusTree::new(4);
        for round in 0..5 {
            for i in 0..40u32 {
                t.insert((i % 10) as i64, round * 100 + i);
            }
            for k in 0..5i64 {
                t.remove_all(&k);
            }
            t.check_invariants().unwrap();
        }
        for k in 0..5i64 {
            assert_eq!(t.get(&k).count(), 0);
        }
        for k in 5..10i64 {
            assert_eq!(t.get(&k).count(), 20, "key {k}");
        }
    }

    #[test]
    fn remove_matches_multiset_reference() {
        let mut rng = SimRng::seed_from_u64(0xB71);
        for _ in 0..60 {
            let n_ops = rng.uniform_u64(0, 300) as usize;
            let mut t = BPlusTree::new(4);
            let mut reference: Vec<(i64, u32)> = Vec::new();
            for _ in 0..n_ops {
                let k = rng.uniform_i64(0, 20);
                let r = rng.uniform_u64(0, 8) as u32;
                if rng.chance(0.5) {
                    t.insert(k, r);
                    reference.push((k, r));
                } else {
                    let expect = reference.iter().position(|&e| e == (k, r));
                    let got = t.remove(&k, r);
                    assert_eq!(got, expect.is_some());
                    if let Some(pos) = expect {
                        reference.swap_remove(pos);
                    }
                }
            }
            assert_eq!(t.len(), reference.len());
            let mut got: Vec<(i64, u32)> = t.iter().collect();
            got.sort_unstable();
            reference.sort_unstable();
            assert_eq!(got, reference);
            t.check_invariants().unwrap();
            t.verify_pages().unwrap();
        }
    }

    #[test]
    fn matches_sorted_reference() {
        let mut rng = SimRng::seed_from_u64(0xB72);
        for _ in 0..60 {
            let n = rng.uniform_u64(0, 400) as usize;
            let mut keys: Vec<i64> = (0..n).map(|_| rng.uniform_i64(-1000, 1000)).collect();
            let order = rng.uniform_u64(3, 16) as usize;
            let mut t = BPlusTree::new(order);
            for (i, k) in keys.iter().enumerate() {
                t.insert(*k, i as u32);
            }
            t.check_invariants().unwrap();
            let got: Vec<i64> = t.iter().map(|(k, _)| k).collect();
            keys.sort_unstable();
            assert_eq!(got, keys);
        }
    }

    #[test]
    fn range_equals_filter() {
        let mut rng = SimRng::seed_from_u64(0xB73);
        for _ in 0..100 {
            let n = rng.uniform_u64(1, 300) as usize;
            let keys: Vec<i64> = (0..n).map(|_| rng.uniform_i64(0, 200)).collect();
            let lo = rng.uniform_i64(0, 200);
            let hi = lo + rng.uniform_i64(0, 100);
            let mut t = BPlusTree::new(6);
            for (i, k) in keys.iter().enumerate() {
                t.insert(*k, i as u32);
            }
            let got = t.range(lo, hi).count();
            let expect = keys.iter().filter(|k| (lo..=hi).contains(*k)).count();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn range_bounds_need_no_outliving_borrow() {
        // Bounds computed in an inner scope hand ownership to the
        // iterator — the regression the by-value API exists for.
        let pairs: Vec<(i64, u32)> = (0..100).map(|i| (i, i as u32)).collect();
        let t = BPlusTree::bulk_build(8, &pairs);
        let iter = {
            let lo = 10i64 + 5;
            let hi = lo + 20;
            t.range(lo, hi)
        };
        assert_eq!(iter.count(), 21);
    }

    #[test]
    fn iter_count_matches_len_after_churn() {
        // `iter` and `range` share one `seek` descent; this pins the
        // full-traversal entry point against the tree's own length
        // accounting after random insert/remove churn.
        let mut rng = SimRng::seed_from_u64(0xB74);
        let mut t = BPlusTree::new(4);
        let mut live: Vec<(i64, u32)> = Vec::new();
        for step in 0..2000u32 {
            if live.is_empty() || rng.chance(0.6) {
                let k = rng.uniform_i64(0, 50);
                t.insert(k, step);
                live.push((k, step));
            } else {
                let victim = rng.uniform_u64(0, live.len() as u64) as usize;
                let (k, r) = live.swap_remove(victim);
                assert!(t.remove(&k, r));
            }
            if step % 250 == 0 {
                assert_eq!(t.iter().count(), t.len());
            }
        }
        assert_eq!(t.iter().count(), t.len());
        assert_eq!(t.len(), live.len());
        t.check_invariants().unwrap();
    }

    #[test]
    fn nodes_live_in_checksummed_pages() {
        let pairs: Vec<(i64, u32)> = (0..1000).map(|i| (i, i as u32)).collect();
        let t = BPlusTree::bulk_build(8, &pairs);
        // One page per node, all verifiable.
        assert!(t.node_count() > 100);
        t.verify_pages().unwrap();
        let stats = t.pool_stats();
        assert_eq!(stats.page_writes as usize, t.node_count());
    }

    #[test]
    fn torn_page_is_detected_and_never_served() {
        let pairs: Vec<(i64, u32)> = (0..5000).map(|i| (i, i as u32)).collect();
        let mut t = BPlusTree::bulk_build(16, &pairs);
        t.verify_pages().unwrap();
        let torn = t.tear_page(7).unwrap();
        let err = t.verify_pages().unwrap_err();
        assert!(
            matches!(err, FlowtuneError::Corrupt(_)),
            "torn page {torn} must surface as Corrupt, got {err:?}"
        );
    }

    #[test]
    fn probes_hit_the_buffer_pool() {
        let pairs: Vec<(i64, u32)> = (0..10_000).map(|i| (i, i as u32)).collect();
        let t = BPlusTree::bulk_build(64, &pairs);
        let before = t.pool_stats();
        for k in (0..10_000i64).step_by(97) {
            assert!(t.get_first(&k).is_some());
        }
        let after = t.pool_stats();
        // The tree fits the pool, so probes after a bulk build are all
        // cache hits — zero store reads.
        assert!(after.hits > before.hits);
        assert_eq!(after.page_reads, before.page_reads);
    }

    #[test]
    fn check_invariants_returns_typed_errors() {
        let t: BPlusTree<i64> = BPlusTree::new(4);
        // A healthy tree verifies; the error type is FlowtuneError so
        // corruption composes with the workspace Result plumbing.
        let ok: Result<()> = t.check_invariants();
        ok.unwrap();
    }

    #[test]
    #[should_panic(expected = "order too large")]
    fn oversized_node_is_a_construction_error() {
        // 300 string keys of 64 bytes cannot fit one 4 KiB page.
        let big = "x".repeat(64);
        let pairs: Vec<(String, u32)> = (0..300).map(|i| (big.clone(), i)).collect();
        let _ = BPlusTree::bulk_build(300, &pairs);
    }
}
