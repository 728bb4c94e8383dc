//! Sharded parallel ingest.
//!
//! Flowtrees are mergeable (paper §2): summaries built from disjoint
//! slices of a trace merge node-wise into exactly the summary of the
//! whole trace, modulo budget-induced folding. [`ShardedTree`] exploits
//! that for parallelism the same way Flowyager scales the structure
//! network-wide — fan updates across `N` per-core [`FlowTree`]s keyed
//! by the flow-key hash, and fold the shards with the `merge` operator
//! when a summary is needed. The shard router reuses the key's
//! [`flowkey::key_hash`] that the tree index needs anyway, so sharding
//! adds zero extra hashing to the hot path.
//!
//! Parallel ingest runs on a **persistent worker pool**
//! ([`crate::worker`]): one long-lived thread per shard draining a
//! bounded FIFO queue of pre-hashed buckets. The pool spawns on the
//! first [`ShardedTree::par_insert_batch`] call and lives until the
//! tree is folded or dropped, so steady-state batches pay one queue
//! send per shard instead of an OS thread spawn/join per batch. Every
//! read (`fold`, `total`, `stats`, …) first drains the queues, so the
//! observable state is always exactly the sequential-ingest state:
//! per shard there is a single consumer applying buckets in submission
//! order, which is precisely the order [`ShardedTree::insert_batch`]
//! applies them.
//!
//! The node budget is split evenly across shards, so a folded
//! `ShardedTree` obeys the same budget (and byte size on the wire) as a
//! single tree: the fold target is created with the full, unsplit
//! budget and merging compacts to it. Because the router keys shards by
//! flow-key hash, each key lands in exactly one shard; budget pressure
//! per shard matches a `budget / N` tree over `1 / N` of the key space,
//! which keeps per-key error comparable to the unsharded tree.

use crate::worker::WorkerPool;
use flowkey::{key_hash, FlowKey, Schema};
use flowtree_core::{Config, FlowTree, Popularity, Stats};
use std::sync::{Arc, Mutex, MutexGuard};

/// A Flowtree fanned out over `N` independent shards for parallel
/// ingest, folded back into one [`FlowTree`] via the paper's `merge`.
#[derive(Debug)]
pub struct ShardedTree {
    shards: Vec<Arc<Mutex<FlowTree>>>,
    schema: Schema,
    /// The full (unsplit) configuration, used when folding.
    cfg: Config,
    /// Persistent shard workers; spawned on first parallel batch.
    pool: Option<WorkerPool>,
    /// Pin worker `i` to core `i` when the pool spawns (opt-in;
    /// best-effort, Linux only).
    pin_workers: bool,
    /// Per-shard staging for single-record inserts while the pool is
    /// active: records accumulate lock-cheap and ride the queue as one
    /// bucket, keeping the per-record path free of per-record
    /// allocations and channel rendezvous. Always empty when `pool` is
    /// `None`; flushed before any batch submit or drain.
    staging: Vec<Mutex<Vec<(u64, FlowKey, Popularity)>>>,
}

/// Staged single-record inserts per shard before they are submitted to
/// the worker queue as one bucket.
const STAGE_LIMIT: usize = 64;

/// Smallest batch that justifies spawning the worker pool: below this,
/// a pool-less tree applies the batch sequentially, so short-lived or
/// trickle-fed windows never pay an N-thread spawn/join for a handful
/// of records. Once the pool exists it is always used (FIFO order).
const PAR_SPAWN_MIN: usize = 32;

impl ShardedTree {
    /// Creates `shards` trees sharing `cfg.node_budget` evenly
    /// (`shards` is clamped to ≥ 1; each shard keeps at least
    /// [`Config::MIN_BUDGET`]). No worker threads start until the
    /// first [`Self::par_insert_batch`] call.
    pub fn new(schema: Schema, cfg: Config, shards: usize) -> ShardedTree {
        let n = shards.max(1);
        let mut per_shard = cfg;
        per_shard.node_budget = (cfg.node_budget / n).max(Config::MIN_BUDGET);
        ShardedTree {
            shards: (0..n)
                .map(|_| Arc::new(Mutex::new(FlowTree::new(schema, per_shard))))
                .collect(),
            schema,
            cfg,
            pool: None,
            pin_workers: false,
            staging: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Opts the (not-yet-spawned) worker pool into CPU pinning: worker
    /// `i` pins itself to core `i` modulo online CPUs. No effect on a
    /// pool that is already running.
    pub fn set_pin_workers(&mut self, pin: bool) {
        self.pin_workers = pin;
    }

    /// Reserves room for `nodes` more nodes, split evenly across the
    /// shards (the router spreads keys uniformly by hash).
    pub(crate) fn reserve(&mut self, nodes: usize) {
        let per_shard = nodes.div_ceil(self.shards.len());
        for i in 0..self.shards.len() {
            self.lock_shard(i).reserve(per_shard);
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The flow schema shared by every shard.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Which shard a key hash routes to (multiply-shift, no modulo).
    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        (((hash as u128) * (self.shards.len() as u128)) >> 64) as usize
    }

    /// Waits until every staged record and queued bucket has been
    /// applied; afterwards the shard trees hold exactly the
    /// sequential-ingest state.
    fn drain_workers(&self) {
        if let Some(pool) = &self.pool {
            self.flush_staging(pool);
            pool.drain();
        }
    }

    /// Submits every non-empty staging buffer to its shard's queue.
    fn flush_staging(&self, pool: &WorkerPool) {
        for (i, stage) in self.staging.iter().enumerate() {
            let mut staged = stage.lock().expect("staging lock");
            if !staged.is_empty() {
                pool.submit(i, std::mem::take(&mut *staged));
            }
        }
    }

    fn lock_shard(&self, i: usize) -> MutexGuard<'_, FlowTree> {
        self.shards[i].lock().expect("shard tree lock")
    }

    /// Records mass for `key` in its shard. The key is canonicalized
    /// and hashed exactly once; the hash routes the shard *and* serves
    /// as the tree index hash. With no pool active this applies
    /// directly, allocation-free. With a worker pool active the record
    /// lands in its shard's staging buffer (an uncontended lock, no
    /// allocation or channel rendezvous per record) and rides the FIFO
    /// queue as part of one [`STAGE_LIMIT`]-record bucket — per-shard
    /// program order relative to queued batches is preserved, with one
    /// budget check per staged bucket like any small batch.
    pub fn insert(&mut self, key: &FlowKey, pop: Popularity) {
        let key = self.schema.canonicalize(key);
        let hash = key_hash(&key);
        let s = self.shard_of(hash);
        if let Some(pool) = &self.pool {
            let mut staged = self.staging[s].lock().expect("staging lock");
            staged.push((hash, key, pop));
            if staged.len() >= STAGE_LIMIT {
                pool.submit(s, std::mem::take(&mut *staged));
            }
        } else {
            self.lock_shard(s).insert_prehashed(key, hash, pop);
        }
    }

    /// Canonicalizes, hashes, and buckets key/mass pairs by shard,
    /// straight from any iterator (no intermediate copy of the input).
    fn bucketize_iter<'a>(
        &self,
        items: impl Iterator<Item = (&'a FlowKey, Popularity)>,
        len_hint: usize,
    ) -> Vec<Vec<(u64, FlowKey, Popularity)>> {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<(u64, FlowKey, Popularity)>> = (0..n)
            .map(|_| Vec::with_capacity(len_hint / n + 1))
            .collect();
        for (k, p) in items {
            let k = self.schema.canonicalize(k);
            let h = key_hash(&k);
            buckets[self.shard_of(h)].push((h, k, p));
        }
        buckets
    }

    /// Sequential batch ingest: one canonicalize + hash per key, one
    /// budget check per shard at the end.
    pub fn insert_batch(&mut self, batch: &[(FlowKey, Popularity)]) {
        self.drain_workers();
        let mut buckets = self.bucketize_iter(batch.iter().map(|(k, p)| (k, *p)), batch.len());
        for (i, bucket) in buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                self.lock_shard(i).insert_batch_prehashed(bucket);
            }
        }
    }

    /// Parallel batch ingest through the persistent worker pool: the
    /// batch is canonicalized, hashed, and bucketed by shard on the
    /// caller's thread, then each non-empty bucket is queued to its
    /// shard's worker. Returns as soon as the buckets are queued
    /// (bounded queues give backpressure); any read — `fold`, `total`,
    /// [`Self::into_tree`] on window close — drains the queues first,
    /// so results are always exactly those of [`Self::insert_batch`].
    pub fn par_insert_batch(&mut self, batch: &[(FlowKey, Popularity)]) {
        self.par_insert_iter(batch.iter().map(|(k, p)| (k, *p)), batch.len());
    }

    /// [`Self::par_insert_batch`] over any key/mass iterator — batch
    /// callers that hold richer tuples (e.g. the daemon's timestamped
    /// items) feed the shards without copying into a slice first.
    /// Batches under [`PAR_SPAWN_MIN`] on a pool-less tree apply
    /// sequentially instead of spawning workers.
    pub fn par_insert_iter<'a>(
        &mut self,
        items: impl Iterator<Item = (&'a FlowKey, Popularity)>,
        len_hint: usize,
    ) {
        if self.shards.len() == 1 || (self.pool.is_none() && len_hint < PAR_SPAWN_MIN) {
            self.drain_workers();
            let mut buckets = self.bucketize_iter(items, len_hint);
            for (i, bucket) in buckets.iter_mut().enumerate() {
                if !bucket.is_empty() {
                    self.lock_shard(i).insert_batch_prehashed(bucket);
                }
            }
            return;
        }
        let buckets = self.bucketize_iter(items, len_hint);
        self.dispatch_buckets(buckets);
    }

    /// [`Self::par_insert_iter`] over items whose keys are **already
    /// canonicalized and hashed** — the streaming pipeline hashes each
    /// record once at decode time, so routing here is pure arithmetic
    /// on the carried hash: no re-canonicalize, no re-hash per record
    /// at flush time (the shard-degradation root cause the bench rows
    /// exposed).
    pub fn par_insert_prehashed_iter(
        &mut self,
        items: impl Iterator<Item = (u64, FlowKey, Popularity)>,
        len_hint: usize,
    ) {
        let n = self.shards.len();
        if n == 1 || (self.pool.is_none() && len_hint < PAR_SPAWN_MIN) {
            self.drain_workers();
            if n == 1 {
                // Single shard: no routing at all, one bucket, one lock.
                let mut bucket: Vec<(u64, FlowKey, Popularity)> = items.collect();
                if !bucket.is_empty() {
                    self.lock_shard(0).insert_batch_prehashed(&mut bucket);
                }
                return;
            }
            let mut buckets = self.bucketize_prehashed(items, len_hint);
            for (i, bucket) in buckets.iter_mut().enumerate() {
                if !bucket.is_empty() {
                    self.lock_shard(i).insert_batch_prehashed(bucket);
                }
            }
            return;
        }
        let buckets = self.bucketize_prehashed(items, len_hint);
        self.dispatch_buckets(buckets);
    }

    /// Routes already-hashed items into per-shard buckets (no
    /// canonicalize, no hash — just the multiply-shift).
    fn bucketize_prehashed(
        &self,
        items: impl Iterator<Item = (u64, FlowKey, Popularity)>,
        len_hint: usize,
    ) -> Vec<Vec<(u64, FlowKey, Popularity)>> {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<(u64, FlowKey, Popularity)>> = (0..n)
            .map(|_| Vec::with_capacity(len_hint / n + 1))
            .collect();
        for (h, k, p) in items {
            buckets[self.shard_of(h)].push((h, k, p));
        }
        buckets
    }

    /// Queues per-shard buckets on the worker pool (spawning it on
    /// first use), after flushing staged single inserts so per-shard
    /// FIFO order holds.
    fn dispatch_buckets(&mut self, buckets: Vec<Vec<(u64, FlowKey, Popularity)>>) {
        if self.pool.is_none() {
            self.pool = Some(WorkerPool::spawn(&self.shards, self.pin_workers));
        }
        let pool = self.pool.as_ref().expect("pool just ensured");
        // Staged single-record inserts precede this batch in program
        // order — submit them first so per-shard FIFO order holds.
        self.flush_staging(pool);
        for (i, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                pool.submit(i, bucket);
            }
        }
    }

    /// Total mass across all shards.
    pub fn total(&self) -> Popularity {
        self.drain_workers();
        (0..self.shards.len()).fold(Popularity::ZERO, |acc, i| acc + self.lock_shard(i).total())
    }

    /// Live nodes across all shards (roots included per shard).
    pub fn len(&self) -> usize {
        self.drain_workers();
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).len())
            .sum()
    }

    /// Whether no shard holds anything beyond its root.
    pub fn is_empty(&self) -> bool {
        self.drain_workers();
        (0..self.shards.len()).all(|i| self.lock_shard(i).is_empty())
    }

    /// Summed work counters of all shards.
    pub fn stats(&self) -> Stats {
        self.drain_workers();
        let mut out = Stats::default();
        for i in 0..self.shards.len() {
            let t = self.lock_shard(i);
            let s = t.stats();
            out.inserts += s.inserts;
            out.hits += s.hits;
            out.misses += s.misses;
            out.chain_steps += s.chain_steps;
            out.descent_hops += s.descent_hops;
            out.joins_created += s.joins_created;
            out.compactions += s.compactions;
            out.evictions += s.evictions;
            out.contractions += s.contractions;
            out.grafted_nodes += s.grafted_nodes;
            out.profile_builds += s.profile_builds;
        }
        out
    }

    /// Runs `f` against one quiesced shard tree (bench/diagnostic use;
    /// replaces the pre-worker-pool `shard()` reference accessor).
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&FlowTree) -> R) -> R {
        self.drain_workers();
        f(&self.lock_shard(i))
    }

    /// Folds every shard into a single tree with the full node budget
    /// via the paper's `merge` operator, leaving the shards untouched.
    /// The result is shape-identical to a tree built unsharded: same
    /// schema, same budget, same wire encoding rules.
    pub fn fold(&self) -> FlowTree {
        self.drain_workers();
        let mut out = FlowTree::new(self.schema, self.cfg);
        for i in 0..self.shards.len() {
            out.merge(&self.lock_shard(i))
                .expect("shards share one schema");
        }
        out
    }

    /// Like [`Self::fold`], but consumes the shards; the single-shard
    /// case hands back its tree without copying. Joins the worker pool
    /// cleanly: queues are drained, threads exit and are joined before
    /// the shard trees are reclaimed.
    pub fn into_tree(mut self) -> FlowTree {
        self.drain_workers();
        // Joining the workers drops their Arc clones, making us the
        // sole owner of every shard tree.
        self.pool = None;
        if self.shards.len() == 1 {
            let arc = self.shards.pop().expect("one shard");
            return Arc::try_unwrap(arc)
                .expect("workers joined, no other owner")
                .into_inner()
                .expect("shard tree lock");
        }
        self.fold()
    }

    /// Validates every shard's structural invariants. (No per-key
    /// routing assertion: shards legitimately hold keys whose own hash
    /// routes elsewhere — join nodes and compaction fold-ups are
    /// *ancestors* of the routed keys, created shard-locally.)
    pub fn validate(&self) {
        self.drain_workers();
        for i in 0..self.shards.len() {
            self.lock_shard(i).validate();
        }
    }
}

impl Clone for ShardedTree {
    /// Clones the quiesced shard trees; the clone starts without a
    /// worker pool and spawns its own on first parallel batch.
    fn clone(&self) -> ShardedTree {
        self.drain_workers();
        ShardedTree {
            shards: (0..self.shards.len())
                .map(|i| Arc::new(Mutex::new(self.lock_shard(i).clone())))
                .collect(),
            schema: self.schema,
            cfg: self.cfg,
            pool: None,
            pin_workers: self.pin_workers,
            staging: (0..self.shards.len())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> FlowKey {
        s.parse().unwrap()
    }

    fn mixed_batch(n: usize) -> Vec<(FlowKey, Popularity)> {
        (0..n)
            .map(|i| {
                let k = key(&format!(
                    "src=10.{}.{}.{}/32 dst=192.0.2.{}/32 sport={} dport=443 proto=tcp",
                    i % 3,
                    (i / 3) % 6,
                    i % 251,
                    i % 2,
                    40_000 + (i % 20)
                ));
                (k, Popularity::packet(100 + (i as u32 % 400)))
            })
            .collect()
    }

    #[test]
    fn sharded_total_matches_single_tree() {
        let batch = mixed_batch(2_000);
        let schema = Schema::five_feature();
        let mut single = FlowTree::new(schema, Config::with_budget(4_096));
        for (k, p) in &batch {
            single.insert(k, *p);
        }
        for shards in [1usize, 2, 4, 8] {
            let mut st = ShardedTree::new(schema, Config::with_budget(4_096), shards);
            st.par_insert_batch(&batch);
            st.validate();
            assert_eq!(st.total(), single.total(), "{shards} shards conserve mass");
            let folded = st.fold();
            folded.validate();
            assert_eq!(folded.total(), single.total());
        }
    }

    #[test]
    fn sequential_and_parallel_ingest_agree_exactly() {
        let batch = mixed_batch(1_500);
        let schema = Schema::five_feature();
        let mut a = ShardedTree::new(schema, Config::with_budget(2_048), 4);
        let mut b = ShardedTree::new(schema, Config::with_budget(2_048), 4);
        a.insert_batch(&batch);
        b.par_insert_batch(&batch);
        let (fa, fb) = (a.fold(), b.fold());
        assert_eq!(fa.total(), fb.total());
        assert_eq!(fa.len(), fb.len());
        let mut ma: Vec<_> = fa.iter().map(|v| (*v.key, v.comp)).collect();
        let mut mb: Vec<_> = fb.iter().map(|v| (*v.key, v.comp)).collect();
        ma.sort_by_key(|(k, _)| *k);
        mb.sort_by_key(|(k, _)| *k);
        assert_eq!(
            ma, mb,
            "shard-local determinism is independent of threading"
        );
    }

    #[test]
    fn workers_survive_many_batches_and_join_on_into_tree() {
        // Exercise the persistent pool across many submissions (the
        // scoped-thread path this replaced spawned per batch).
        let batch = mixed_batch(900);
        let schema = Schema::five_feature();
        let mut st = ShardedTree::new(schema, Config::with_budget(2_048), 3);
        let mut seq = ShardedTree::new(schema, Config::with_budget(2_048), 3);
        for chunk in batch.chunks(64) {
            st.par_insert_batch(chunk);
            seq.insert_batch(chunk);
        }
        // Reads interleaved with queued work still agree (drain-first).
        assert_eq!(st.total(), seq.total());
        let a = st.into_tree();
        let b = seq.into_tree();
        assert_eq!(a.total(), b.total());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn mixed_single_and_batch_inserts_stay_ordered() {
        let batch = mixed_batch(400);
        let schema = Schema::five_feature();
        let mut st = ShardedTree::new(schema, Config::with_budget(1_024), 4);
        let mut seq = ShardedTree::new(schema, Config::with_budget(1_024), 4);
        for (i, chunk) in batch.chunks(50).enumerate() {
            st.par_insert_batch(chunk);
            seq.insert_batch(chunk);
            let (k, p) = &batch[i];
            st.insert(k, *p);
            seq.insert(k, *p);
        }
        let (fa, fb) = (st.fold(), seq.fold());
        assert_eq!(fa.total(), fb.total());
        assert_eq!(fa.len(), fb.len());
    }

    #[test]
    fn prehashed_batches_agree_with_rehashing_paths() {
        let batch = mixed_batch(1_500);
        let schema = Schema::five_feature();
        for shards in [1usize, 4] {
            let mut a = ShardedTree::new(schema, Config::with_budget(2_048), shards);
            let mut b = ShardedTree::new(schema, Config::with_budget(2_048), shards);
            a.par_insert_batch(&batch);
            let prehashed: Vec<_> = batch
                .iter()
                .map(|(k, p)| {
                    let k = schema.canonicalize(k);
                    (key_hash(&k), k, *p)
                })
                .collect();
            b.par_insert_prehashed_iter(prehashed.into_iter(), batch.len());
            let (fa, fb) = (a.fold(), b.fold());
            assert_eq!(fa.total(), fb.total());
            assert_eq!(fa.len(), fb.len());
            let mut ma: Vec<_> = fa.iter().map(|v| (*v.key, v.comp)).collect();
            let mut mb: Vec<_> = fb.iter().map(|v| (*v.key, v.comp)).collect();
            ma.sort_by_key(|(k, _)| *k);
            mb.sort_by_key(|(k, _)| *k);
            assert_eq!(
                ma, mb,
                "{shards} shards: prehashed routing is a pure refactor"
            );
        }
    }

    #[test]
    fn clone_quiesces_and_detaches_from_the_pool() {
        let batch = mixed_batch(600);
        let schema = Schema::five_feature();
        let mut st = ShardedTree::new(schema, Config::with_budget(2_048), 4);
        st.par_insert_batch(&batch);
        let snap = st.clone();
        // Mutating the original must not leak into the clone.
        st.par_insert_batch(&batch);
        assert_eq!(snap.total().packets * 2, st.total().packets);
    }

    #[test]
    fn into_tree_single_shard_is_free_of_merging() {
        let batch = mixed_batch(500);
        let schema = Schema::five_feature();
        let mut st = ShardedTree::new(schema, Config::with_budget(1_024), 1);
        st.insert_batch(&batch);
        let direct = st.clone().fold();
        let tree = st.into_tree();
        assert_eq!(tree.total(), direct.total());
        assert_eq!(tree.config().node_budget, 1_024);
    }
}
