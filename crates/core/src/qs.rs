//! The Query Server (QS): the untrusted proof-constructing server.
//!
//! The QS maintains a replica of the database and authentication structure,
//! applies [`UpdateMsg`]s pushed by the DA (fresh data is disseminated
//! immediately, decoupled from summaries — Section 3.1), stores the
//! certified summaries, and answers queries with verification objects:
//!
//! * **selection** (Section 3.3): matching records, one aggregate signature,
//!   two boundary key values — VO size independent of selectivity;
//! * **projection** (Section 3.4): projected values plus one aggregate of
//!   the relevant attribute signatures;
//! * empty answers carry a **gap proof**: one chained signature bracketing
//!   the queried range.
//!
//! The server's [`PublicParams`] replica shares the DA public key's
//! prepared pairing lines with every other holder of the params (the
//! preparation travels inside the key by `Arc`), so any server-side
//! signature checks and all client verifications of this server's answers
//! run against an already-warm pairing cache.
//!
//! The Section 4 aggregate-signature cache is maintained **incrementally**:
//! the server mirrors the index's leaf order alongside the cached dyadic
//! nodes, applies in-place signature replacement as an O(log N) delta
//! ([`SigCache::on_update`]), and on a structural change (insert, delete,
//! key move) splices the mirror at the shifted position and stale-marks
//! only the cached nodes at or above it ([`SigCache::on_shift`]); stale
//! nodes are recomputed lazily on their next use. Algorithm 1's node
//! selection runs once at bootstrap, and neither the update nor the query
//! path ever holds the cache mutex across a full O(N) rebuild.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use authdb_crypto::signer::{PublicParams, Signature};
use authdb_index::{new_asign_with_cache, ASignTree, RangeEvent, DEFAULT_NODE_CACHE};
use authdb_storage::{BufferPool, Disk, HeapFile, IoStats, PoolStats};
use authdb_wire::WireEncode;

use crate::da::{Bootstrap, SigningMode, UpdateKind, UpdateMsg};
use crate::freshness::{EmptyTableProof, SummaryCheckpoint, UpdateSummary};
use crate::record::{Record, Schema, Tick};
use crate::shard::ShardScope;
use crate::sigcache::{distributions, select_cache, RefreshStrategy, SigCache, SigTreeAnalysis};

/// Why the server could not construct an answer. Unlike a verification
/// failure this is the server's *own* refusal — a mis-issued query must
/// surface to the caller (and, in a sharded fan-out, propagate out of the
/// routing layer) instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query requires a signing mode the server was not built with
    /// (range selections need [`SigningMode::Chained`], projections need
    /// [`SigningMode::PerAttribute`]).
    WrongSigningMode {
        /// The mode the query needs.
        required: SigningMode,
        /// The mode the server runs in.
        actual: SigningMode,
    },
    /// The operation is not available on this deployment (currently:
    /// projection over a multi-shard fan-out, whose per-shard proofs the
    /// verifier cannot stitch yet).
    Unsupported,
    /// A projection named an attribute index past the schema. A networked
    /// server receives attribute lists from untrusted clients, so this is a
    /// refusal, not a panic.
    AttributeOutOfSchema {
        /// The offending attribute index.
        index: usize,
    },
    /// The constructed answer exceeds the wire format's frame cap, so the
    /// server refuses rather than ship a frame every client must reject
    /// (split the query range and retry).
    AnswerTooLarge,
    /// A rebalance package is structurally inconsistent with the server's
    /// current map (wrong plan, wrong epoch, malformed handoff). The
    /// networked server accepts these frames from untrusted peers, so this
    /// is a refusal — applied atomically: a refused package changes
    /// nothing.
    BadRebalance,
    /// A per-shard request named a shard index this deployment does not
    /// have. Shard-addressed requests arrive from untrusted peers (and from
    /// clients pinned to a different epoch's partition), so this is a
    /// refusal, not a panic.
    UnknownShard {
        /// The shard index the request named.
        shard: u64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::WrongSigningMode { required, actual } => write!(
                f,
                "query requires signing mode {required:?} but the server runs {actual:?}"
            ),
            QueryError::Unsupported => {
                write!(f, "operation not supported by this deployment")
            }
            QueryError::AttributeOutOfSchema { index } => {
                write!(f, "attribute index {index} is outside the schema")
            }
            QueryError::AnswerTooLarge => {
                write!(f, "answer exceeds the wire frame cap; narrow the query")
            }
            QueryError::BadRebalance => {
                write!(f, "rebalance package inconsistent with the current map")
            }
            QueryError::UnknownShard { shard } => {
                write!(f, "no shard {shard} in this deployment")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Proof that no record falls inside a queried range: one record whose
/// chained signature brackets the gap.
///
/// The bracketing record travels **in full** — not just its tuple hash —
/// so the verifier can recompute the hash itself, which binds the record's
/// `rid` and `ts` and lets the gap record go through the same
/// summary-freshness check as returned records. (Shipping only the hash
/// would let a server claim an arbitrary rid/ts for the bracket and dodge
/// staleness detection on deleted or superseded chain records.)
#[derive(Clone, Debug, PartialEq)]
pub struct GapProof {
    /// The bracketing record.
    pub record: Record,
    /// Its left neighbour's indexed value.
    pub left_key: i64,
    /// Its right neighbour's indexed value.
    pub right_key: i64,
    /// Its chained signature.
    pub signature: Signature,
}

impl GapProof {
    /// The bracketing record's own indexed value.
    pub fn own_key(&self, schema: &Schema) -> i64 {
        self.record.key(schema)
    }

    /// The chained message this proof's signature must match.
    pub fn chain_msg(&self, schema: &Schema) -> Vec<u8> {
        self.record
            .chain_message(schema, self.left_key, self.right_key)
    }
}

/// An authenticated selection answer (Section 3.3).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectionAnswer {
    /// Matching records in key order.
    pub records: Vec<Record>,
    /// Aggregate signature over the matching records' chained messages.
    pub agg: Signature,
    /// Indexed value of the record immediately left of the range
    /// ([`crate::record::KEY_NEG_INF`] — or the shard's left seam fence —
    /// when the range extends past the first record).
    pub left_key: i64,
    /// Indexed value of the record immediately right of the range.
    pub right_key: i64,
    /// Present iff `records` is empty and the table is non-empty: the
    /// bracketing proof.
    pub gap: Option<GapProof>,
    /// Present iff the whole relation is empty: the certified vacancy
    /// claim (there is no record to bracket the gap with).
    pub vacancy: Option<EmptyTableProof>,
    /// Certified summaries published since the oldest result record (the
    /// latest summary always rides along so the client can anchor the
    /// 2ρ-recency gate). Shared with the server's summary log by `Arc` —
    /// attaching a summary to an answer never deep-copies it.
    pub summaries: Vec<Arc<UpdateSummary>>,
    /// The DA's latest summary checkpoint, when the log has been compacted.
    /// It certifies the compacted prefix, so the attached summary run may
    /// start at `through_seq + 1` instead of seq 0 — without it the
    /// verifier would read the truncated run as prefix-withholding. Absent
    /// on never-compacted deployments and on inverted-range answers.
    pub checkpoint: Option<SummaryCheckpoint>,
}

impl SelectionAnswer {
    /// Verification-object size: the bytes this answer puts on the wire
    /// that are neither its records, its attached summaries (amortized
    /// across answers per Section 5.3) nor its summary checkpoint — the
    /// aggregate signature, the boundary keys, any gap or vacancy proof,
    /// and the collection and presence headers. It is read off the
    /// encoding, which already reflects the signature scheme, so `_pp` is
    /// unused.
    pub fn vo_size(&self, _pp: &PublicParams) -> usize {
        self.encoded_len() - self.payload_len()
    }

    /// Encoded bytes of the records, summaries and checkpoint.
    pub(crate) fn payload_len(&self) -> usize {
        self.records
            .iter()
            .map(WireEncode::encoded_len)
            .sum::<usize>()
            + self
                .summaries
                .iter()
                .map(|s| s.encoded_len())
                .sum::<usize>()
            + self.checkpoint.as_ref().map_or(0, WireEncode::encoded_len)
    }
}

/// One projected row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectedRow {
    /// Record identifier.
    pub rid: u64,
    /// Certification timestamp.
    pub ts: Tick,
    /// `(attribute index, value)` pairs for the projected attributes.
    pub values: Vec<(usize, i64)>,
}

/// An authenticated projection answer (Section 3.4): one aggregate
/// signature regardless of how many attributes were dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectionAnswer {
    /// Projected rows.
    pub rows: Vec<ProjectedRow>,
    /// Aggregate over the projected attributes' signatures.
    pub agg: Signature,
    /// Certified summaries published since the oldest projected row (the
    /// latest one always included), for the client's freshness check.
    /// Shared with the server's summary log by `Arc`.
    pub summaries: Vec<Arc<UpdateSummary>>,
}

impl ProjectionAnswer {
    /// Verification-object size: the encoded bytes that are neither
    /// projected rows nor attached summaries — one aggregate signature and
    /// two collection headers, whatever the row and attribute counts (see
    /// [`SelectionAnswer::vo_size`]; `_pp` is unused).
    pub fn vo_size(&self, _pp: &PublicParams) -> usize {
        self.encoded_len()
            - self.rows.iter().map(WireEncode::encoded_len).sum::<usize>()
            - self
                .summaries
                .iter()
                .map(|s| s.encoded_len())
                .sum::<usize>()
    }
}

/// Proof-construction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QsStats {
    /// Signature aggregation operations performed.
    pub agg_ops: u64,
    /// Queries answered.
    pub queries: u64,
    /// Update messages applied.
    pub updates: u64,
    /// Range selections whose aggregate used at least one cached node
    /// (only counted when an aggregate cache is configured).
    pub cache_hits: u64,
    /// Range selections the aggregate cache could not help with.
    pub cache_misses: u64,
    /// Index reads served by the decoded-node cache (no page decode).
    pub node_cache_hits: u64,
    /// Index reads that had to decode a page.
    pub node_cache_misses: u64,
    /// Decoded nodes evicted from the node cache.
    pub node_cache_evictions: u64,
}

/// Lock-free proof-construction counters: the live form of [`QsStats`],
/// bumped by concurrent readers without any server lock. Relaxed ordering is
/// deliberate — counters are monotone telemetry for operators and the load
/// policy, never part of a proof, so cross-counter skew of a few events is
/// acceptable and the uncontended-increment cost is what matters.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    agg_ops: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl StatCounters {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// A point-in-time copy for reporting. The node-cache counters live in
    /// the index layer, not here; [`QueryServer::stats`] fills them in.
    fn snapshot(&self) -> QsStats {
        QsStats {
            agg_ops: self.agg_ops.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            node_cache_hits: 0,
            node_cache_misses: 0,
            node_cache_evictions: 0,
        }
    }
}

/// Query-cardinality distribution assumed by Algorithm 1's node choice
/// (Section 4.1 evaluates both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDistribution {
    /// Truncated harmonic `P(q) ∝ 1/q`: favours short queries.
    Harmonic,
    /// Uniform `P(q) = 1/N`: favours wide ranges.
    Uniform,
}

/// Configuration for the Section 4 aggregate-signature cache wired into
/// [`QueryServer::select_range`]. Node choice follows Algorithm 1 over the
/// configured query-cardinality distribution.
#[derive(Clone, Copy, Debug)]
pub struct AggCacheConfig {
    /// Cached-node budget handed to Algorithm 1.
    pub max_nodes: usize,
    /// When invalidated nodes are refreshed (Section 4.3).
    pub strategy: RefreshStrategy,
    /// Assumed query-cardinality distribution for node selection.
    pub distribution: CacheDistribution,
}

impl Default for AggCacheConfig {
    fn default() -> Self {
        AggCacheConfig {
            max_nodes: 64,
            strategy: RefreshStrategy::Eager,
            distribution: CacheDistribution::Harmonic,
        }
    }
}

/// Runtime state of the wired-in aggregate cache: the [`SigCache`] itself
/// plus a mirror of the index's leaf level — `order[k]` is the `(key, rid)`
/// pair at leaf position `k` and `leaves[k]` its signature.
///
/// The mirror is maintained **incrementally**. In-place signature
/// replacement flows through [`SigCache::on_update`] (an O(log N) delta);
/// a structural change (insert, delete, key move) splices the mirror at
/// the shifted position and calls [`SigCache::on_shift`], which keeps every
/// cached node strictly below the splice point and lazily recomputes the
/// rest on their next use. Algorithm 1's node selection runs once at
/// bootstrap; no update or query path ever rebuilds the mirror from a full
/// index scan, so the cache mutex is never held across O(N) work.
struct AggCache {
    cfg: AggCacheConfig,
    cache: SigCache,
    /// `(key, rid)` pairs in index (leaf) order.
    order: Vec<(i64, u64)>,
    /// `leaves[k]` = signature of the record at index position `k`.
    leaves: Vec<Signature>,
}

impl AggCache {
    /// Build over `entries` (already in `(key, rid)` order) with signatures
    /// looked up by rid in `sigs`.
    fn build(
        pp: &PublicParams,
        entries: &[(i64, u64)],
        sigs: &[Signature],
        cfg: AggCacheConfig,
    ) -> Self {
        let leaves: Vec<Signature> = entries
            .iter()
            .map(|&(_, rid)| sigs[rid as usize].clone())
            .collect();
        let chosen = if leaves.len() >= 2 && cfg.max_nodes > 0 {
            let n = leaves.len().next_power_of_two();
            let probs = match cfg.distribution {
                CacheDistribution::Harmonic => distributions::harmonic(n),
                CacheDistribution::Uniform => distributions::uniform(n),
            };
            let analysis = SigTreeAnalysis::new(&probs);
            select_cache(&analysis, cfg.max_nodes).chosen
        } else {
            Vec::new()
        };
        let cache = SigCache::build(pp.clone(), &leaves, &chosen, cfg.strategy);
        AggCache {
            cfg,
            cache,
            order: entries.to_vec(),
            leaves,
        }
    }

    /// Leaf position of `(key, rid)`, if mirrored.
    fn position(&self, key: i64, rid: u64) -> Option<usize> {
        self.order.binary_search(&(key, rid)).ok()
    }

    /// Splice a newly certified record into the mirror.
    fn insert(&mut self, key: i64, rid: u64, sig: &Signature) {
        match self.order.binary_search(&(key, rid)) {
            Ok(p) => {
                // Already mirrored (defensive): treat as a value update.
                self.cache.on_update(p, &self.leaves[p], sig);
                self.leaves[p] = sig.clone();
            }
            Err(p) => {
                self.order.insert(p, (key, rid));
                self.leaves.insert(p, sig.clone());
                self.cache.on_shift(p, self.leaves.len());
            }
        }
    }

    /// Splice a deleted record out of the mirror.
    fn remove(&mut self, key: i64, rid: u64) {
        if let Ok(p) = self.order.binary_search(&(key, rid)) {
            self.order.remove(p);
            self.leaves.remove(p);
            self.cache.on_shift(p, self.leaves.len());
        }
    }

    /// Replace a record's signature without moving it. Returns `false` if
    /// the record is not mirrored (the caller resynchronizes).
    fn update_in_place(&mut self, key: i64, rid: u64, sig: &Signature) -> bool {
        match self.order.binary_search(&(key, rid)) {
            Ok(p) => {
                self.cache.on_update(p, &self.leaves[p], sig);
                self.leaves[p] = sig.clone();
                true
            }
            Err(_) => false,
        }
    }
}

/// Construction options for [`QueryServer::with_options`].
#[derive(Clone, Debug)]
pub struct QsOptions {
    /// Buffer-pool pages for the server's storage.
    pub buffer_pages: usize,
    /// B+-tree bulk-load fill factor.
    pub fill: f64,
    /// Key-range responsibility (must match the bootstrapping DA's scope).
    pub scope: ShardScope,
    /// Enable the Section 4 aggregate-signature cache.
    pub agg_cache: Option<AggCacheConfig>,
    /// Decoded-node cache capacity for the index (`0` disables it: every
    /// read decodes its page afresh).
    pub node_cache: usize,
}

impl Default for QsOptions {
    fn default() -> Self {
        QsOptions {
            buffer_pages: 256,
            fill: 2.0 / 3.0,
            scope: ShardScope::global(),
            agg_cache: None,
            node_cache: DEFAULT_NODE_CACHE,
        }
    }
}

/// The query server.
pub struct QueryServer {
    pp: PublicParams,
    schema: Schema,
    mode: SigningMode,
    heap: HeapFile,
    tree: ASignTree,
    /// Decoded record signatures by rid.
    sigs: Vec<Signature>,
    /// Per-attribute signatures by rid (PerAttribute mode).
    attr_sigs: Vec<Vec<Signature>>,
    /// Certified summary log. Each entry is `Arc`-shared with every answer
    /// it is attached to, so `summaries_since` never deep-copies. After a
    /// checkpoint this holds only the retained suffix (`seq > through_seq`).
    summaries: Vec<Arc<UpdateSummary>>,
    /// The DA's latest summary checkpoint: certifies the compacted log
    /// prefix and anchors every answer whose summary run no longer reaches
    /// back to seq 0.
    checkpoint: Option<SummaryCheckpoint>,
    /// Current empty-table proof (present only while the relation is empty).
    vacancy: Option<EmptyTableProof>,
    scope: ShardScope,
    /// Interior-mutable so `select_range` can stay `&self`: the cache is the
    /// only part of the read path that mutates (hit counters, lazy refresh).
    /// The mutex serializes aggregation *within one shard* only — different
    /// shards' caches never contend — and because the leaf mirror is
    /// maintained incrementally it is held for O(polylog N) per operation,
    /// never across a rebuild.
    agg_cache: Mutex<Option<AggCache>>,
    stats: StatCounters,
}

impl QueryServer {
    /// Build a server replica from a DA bootstrap snapshot.
    pub fn from_bootstrap(
        pp: PublicParams,
        schema: Schema,
        mode: SigningMode,
        boot: &Bootstrap,
        buffer_pages: usize,
        fill: f64,
    ) -> Self {
        Self::with_options(
            pp,
            schema,
            mode,
            boot,
            QsOptions {
                buffer_pages,
                fill,
                ..QsOptions::default()
            },
        )
    }

    /// Build a server replica with full control over scope and caching.
    pub fn with_options(
        pp: PublicParams,
        schema: Schema,
        mode: SigningMode,
        boot: &Bootstrap,
        opts: QsOptions,
    ) -> Self {
        let pool = BufferPool::new(Disk::new(), opts.buffer_pages);
        let heap = HeapFile::new(pool.clone(), schema.record_len);
        let mut tree = new_asign_with_cache(pool, pp.wire_len(), opts.node_cache);
        for rec in &boot.records {
            let rid = heap.append(&rec.to_bytes(&schema));
            debug_assert_eq!(rid, rec.rid);
        }
        let payload_len = tree.config().payload_len;
        let mut entries: Vec<authdb_index::LeafEntry> = boot
            .records
            .iter()
            .map(|rec| authdb_index::LeafEntry {
                key: rec.key(&schema),
                rid: rec.rid,
                payload: boot.sigs[rec.rid as usize].to_bytes_padded(payload_len),
            })
            .collect();
        entries.sort_by_key(|e| (e.key, e.rid));
        tree.bulk_load(&entries, opts.fill);
        let agg_cache = opts.agg_cache.map(|cfg| {
            let keyed: Vec<(i64, u64)> = entries.iter().map(|e| (e.key, e.rid)).collect();
            AggCache::build(&pp, &keyed, &boot.sigs, cfg)
        });
        QueryServer {
            pp,
            schema,
            mode,
            heap,
            tree,
            sigs: boot.sigs.clone(),
            attr_sigs: boot.attr_sigs.clone(),
            summaries: Vec::new(),
            checkpoint: None,
            vacancy: boot.vacancy.clone(),
            scope: opts.scope,
            agg_cache: Mutex::new(agg_cache),
            stats: StatCounters::default(),
        }
    }

    /// Verification parameters.
    pub fn public_params(&self) -> &PublicParams {
        &self.pp
    }

    /// I/O counters of the server's disk.
    pub fn io_stats(&self) -> IoStats {
        self.heap_pool_stats()
    }

    fn heap_pool_stats(&self) -> IoStats {
        self.tree.pool().disk().stats()
    }

    /// Buffer-pool counters of the server's storage (hit-rate diagnostics).
    pub fn pool_stats(&self) -> PoolStats {
        self.tree.pool().stats()
    }

    /// Proof-construction statistics (a point-in-time snapshot of the
    /// lock-free counters — readable while other threads answer queries).
    /// The node-cache counters are sampled from the index's decoded-node
    /// cache at the same instant.
    pub fn stats(&self) -> QsStats {
        let mut s = self.stats.snapshot();
        let nc = self.tree.cache_stats();
        s.node_cache_hits = nc.hits;
        s.node_cache_misses = nc.misses;
        s.node_cache_evictions = nc.evictions;
        s
    }

    /// Stored summaries (diagnostics).
    pub fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    /// Apply an update message from the DA.
    pub fn apply(&mut self, msg: &UpdateMsg) {
        StatCounters::bump(&self.stats.updates, 1);
        let rid = msg.record.rid;
        let payload_len = self.tree.config().payload_len;
        match msg.kind {
            UpdateKind::Insert => {
                // Any insertion supersedes a standing vacancy claim.
                self.vacancy = None;
                let appended = self.heap.append(&msg.record.to_bytes(&self.schema));
                debug_assert_eq!(appended, rid);
                self.sigs.push(msg.signature.clone());
                self.attr_sigs.push(msg.attr_sigs.clone());
                self.tree.insert(
                    msg.record.key(&self.schema),
                    rid,
                    msg.signature.to_bytes_padded(payload_len),
                );
            }
            UpdateKind::Modify | UpdateKind::Recertify => {
                self.heap.update(rid, &msg.record.to_bytes(&self.schema));
                self.sigs[rid as usize] = msg.signature.clone();
                if !msg.attr_sigs.is_empty() {
                    self.attr_sigs[rid as usize] = msg.attr_sigs.clone();
                }
                let new_key = msg.record.key(&self.schema);
                if let Some(old_key) = msg.old_key {
                    self.tree.delete(old_key, rid);
                    self.tree
                        .insert(new_key, rid, msg.signature.to_bytes_padded(payload_len));
                } else {
                    self.tree.update_payload(
                        new_key,
                        rid,
                        msg.signature.to_bytes_padded(payload_len),
                    );
                }
            }
            UpdateKind::Delete => {
                let key = msg.record.key(&self.schema);
                self.tree.delete(key, rid);
                self.heap.delete(rid);
                if let Some(v) = &msg.vacancy {
                    // This delete emptied the relation: store the fresh
                    // vacancy certificate the DA minted alongside it.
                    self.vacancy = Some(v.clone());
                }
            }
        }
        // Aggregate-cache coherence (Section 4.3), maintained incrementally:
        // in-place signature replacement flows through the O(log N) delta
        // path; a structural change splices the leaf mirror at the shifted
        // position and stale-marks only the cached nodes at or above it.
        let mut guard = self.agg_cache.lock();
        if let Some(ac) = guard.as_mut() {
            let key = msg.record.key(&self.schema);
            match msg.kind {
                UpdateKind::Insert => ac.insert(key, rid, &msg.signature),
                UpdateKind::Modify | UpdateKind::Recertify => {
                    if let Some(old_key) = msg.old_key {
                        // A key move is a remove + insert in leaf order.
                        ac.remove(old_key, rid);
                        ac.insert(key, rid, &msg.signature);
                    } else if !ac.update_in_place(key, rid, &msg.signature) {
                        // The mirror lost track of this record — not
                        // reachable through the DA protocol, but an
                        // untrusted feed could desynchronize it, so
                        // resynchronize from the index instead of serving
                        // wrong aggregates.
                        let cfg = ac.cfg;
                        let entries: Vec<(i64, u64)> = self
                            .tree
                            .scan_all()
                            .iter()
                            .map(|e| (e.key, e.rid))
                            .collect();
                        *ac = AggCache::build(&self.pp, &entries, &self.sigs, cfg);
                    }
                }
                UpdateKind::Delete => ac.remove(key, rid),
            }
        }
    }

    /// Store a newly published certified summary.
    pub fn add_summary(&mut self, s: UpdateSummary) {
        self.summaries.push(Arc::new(s));
    }

    /// The stored certified summaries, oldest first.
    pub fn summaries(&self) -> &[Arc<UpdateSummary>] {
        &self.summaries
    }

    /// The DA's latest summary checkpoint, if the log has been compacted.
    pub fn summary_checkpoint(&self) -> Option<&SummaryCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Adopt a freshly minted DA checkpoint: store it and drop the covered
    /// log prefix (every summary with `seq <= through_seq`). Server memory
    /// for the log is thereafter bounded by the checkpoint interval, not
    /// total history.
    pub fn apply_checkpoint(&mut self, ckpt: SummaryCheckpoint) {
        self.summaries.retain(|s| s.seq > ckpt.through_seq);
        self.checkpoint = Some(ckpt);
    }

    /// Swap in the DA's re-bound checkpoint at an epoch transition (or
    /// clear it when the re-bound stream was never compacted).
    pub(crate) fn set_checkpoint(&mut self, ckpt: Option<SummaryCheckpoint>) {
        self.checkpoint = ckpt;
    }

    /// The key-range responsibility this replica currently answers for
    /// (epoch-tagged; snapshot readers use it to pin a single epoch).
    pub fn scope(&self) -> ShardScope {
        self.scope
    }

    /// Re-tag this replica's key-range responsibility at an epoch
    /// transition (the fences stay put for survivors; only the bound
    /// `(epoch, shard)` tag changes).
    pub(crate) fn set_scope(&mut self, scope: ShardScope) {
        self.scope = scope;
    }

    /// Swap in the DA's re-bound summary stream at an epoch transition.
    /// Entries arrive already `Arc`'d straight from the DA's log — a
    /// handoff moves pointers, never summary bytes.
    pub(crate) fn replace_summaries(&mut self, summaries: Vec<Arc<UpdateSummary>>) {
        self.summaries = summaries;
    }

    /// Swap in the DA's re-bound standing vacancy proof (or clear it).
    pub(crate) fn set_vacancy(&mut self, vacancy: Option<EmptyTableProof>) {
        self.vacancy = vacancy;
    }

    /// Pre-decode the whole index into the decoded-node cache (bounded by
    /// its capacity), then zero the cache counters so the warming pass does
    /// not distort hit-rate telemetry. A rebalance successor is built from
    /// freshly written pages, so the donor's decoded-node cache cannot
    /// transfer — without this its first query sweep pays a full decode
    /// per node.
    pub(crate) fn warm_node_cache(&self) {
        self.tree.warm_node_cache();
        self.tree.reset_cache_stats();
    }

    fn read_record(&self, rid: u64) -> Record {
        // Decode straight out of the buffer-pool frame — no intermediate
        // byte-vector copy per record.
        self.heap
            .read_with(rid, |bytes| Record::from_bytes(&self.schema, bytes))
            .expect("indexed record exists")
    }

    /// Summaries published at or after `since`, always including the latest
    /// one: the client needs it to anchor the 2ρ-recency gate even when
    /// every result record postdates the last published summary. Clones are
    /// `Arc` bumps, never summary deep-copies.
    fn summaries_since(&self, since: Tick) -> Vec<Arc<UpdateSummary>> {
        let mut out: Vec<Arc<UpdateSummary>> = self
            .summaries
            .iter()
            .filter(|s| s.ts >= since)
            .cloned()
            .collect();
        if out.is_empty() {
            if let Some(last) = self.summaries.last() {
                out.push(last.clone());
            }
        }
        out
    }

    /// Answer a range selection `lo <= Aind <= hi` (Section 3.3), or
    /// [`QueryError::WrongSigningMode`] if the server cannot build chained
    /// completeness proofs.
    ///
    /// An inverted range (`lo > hi`) matches no key by definition, so the
    /// canonical answer is empty with the identity aggregate and **no**
    /// gap or vacancy proof — emptiness is vacuous, nothing needs to be
    /// certified, and the verifier accepts exactly this form.
    pub fn select_range(&self, lo: i64, hi: i64) -> Result<SelectionAnswer, QueryError> {
        if self.mode != SigningMode::Chained {
            return Err(QueryError::WrongSigningMode {
                required: SigningMode::Chained,
                actual: self.mode,
            });
        }
        StatCounters::bump(&self.stats.queries, 1);
        if lo > hi {
            return Ok(SelectionAnswer {
                records: Vec::new(),
                agg: self.pp.identity(),
                left_key: self.scope.left_fence,
                right_key: self.scope.right_fence,
                gap: None,
                vacancy: None,
                summaries: Vec::new(),
                checkpoint: None,
            });
        }
        // Walk the range once through the visitor API: matching records are
        // decoded straight out of the borrowed leaf nodes — no intermediate
        // `Vec<LeafEntry>` with per-entry payload clones is ever built.
        let mut records: Vec<Record> = Vec::new();
        let mut first_match: Option<(i64, u64)> = None;
        let mut left_bound: Option<(i64, u64)> = None;
        let mut right_bound: Option<(i64, u64)> = None;
        self.tree.for_each_in_range(lo, hi, |ev| match ev {
            RangeEvent::LeftBoundary(e) => left_bound = Some((e.key, e.rid)),
            RangeEvent::Match(e) => {
                if first_match.is_none() {
                    first_match = Some((e.key, e.rid));
                }
                records.push(self.read_record(e.rid));
            }
            RangeEvent::RightBoundary(e) => right_bound = Some((e.key, e.rid)),
        });
        let left_key = left_bound.map(|(k, _)| k).unwrap_or(self.scope.left_fence);
        let right_key = right_bound
            .map(|(k, _)| k)
            .unwrap_or(self.scope.right_fence);

        if records.is_empty() {
            // Empty answer: ship the bracketing record's chain, or — when
            // the whole relation is empty — the certified vacancy claim.
            let bracket = left_bound.or(right_bound);
            let gap = bracket.map(|(bkey, brid)| {
                let rec = self.read_record(brid);
                let (l, r) = self.neighbor_keys_of(bkey, brid);
                GapProof {
                    record: rec,
                    left_key: l,
                    right_key: r,
                    signature: self.sigs[brid as usize].clone(),
                }
            });
            let vacancy = if gap.is_none() {
                self.vacancy.clone()
            } else {
                None
            };
            // Trim to the window the verifier needs: from the proof
            // version's own period onward. When the log has been compacted,
            // a gap or vacancy older than the checkpoint would otherwise get
            // a window starting mid-history that the verifier reads as
            // prefix-withholding — the checkpoint rides along as the
            // certified anchor for the missing prefix.
            let summaries = match (&gap, &vacancy) {
                (Some(g), _) => self.summaries_since(g.record.ts),
                (None, Some(v)) => self.summaries_since(v.ts),
                (None, None) => Vec::new(),
            };
            return Ok(SelectionAnswer {
                records: Vec::new(),
                agg: self.pp.identity(),
                left_key,
                right_key,
                gap,
                vacancy,
                summaries,
                checkpoint: self.checkpoint.clone(),
            });
        }

        let agg = self.aggregate_records(first_match.expect("non-empty matches"), &records);
        let oldest = records.iter().map(|r| r.ts).min().unwrap_or(0);
        Ok(SelectionAnswer {
            records,
            agg,
            left_key,
            right_key,
            gap: None,
            vacancy: None,
            summaries: self.summaries_since(oldest),
            checkpoint: self.checkpoint.clone(),
        })
    }

    /// Aggregate the matched records' signatures, through the Section 4
    /// cache when one is configured (a range scan's matches are a
    /// contiguous run of leaf positions, so the dyadic decomposition
    /// applies directly). `first` is the first match's `(key, rid)` index
    /// entry; the leaf mirror is binary-searched for its position. Takes
    /// the cache mutex for the duration of the aggregation — never across
    /// any rebuild, since the mirror is maintained incrementally — while
    /// the uncached fallback runs lock-free over the records' rids.
    fn aggregate_records(&self, first: (i64, u64), records: &[Record]) -> Signature {
        let mut guard = self.agg_cache.lock();
        if let Some(ac) = guard.as_mut() {
            if let Some(p0) = ac.position(first.0, first.1) {
                let before = ac.cache.stats();
                let (agg, ops) = ac
                    .cache
                    .aggregate_range(&ac.leaves, p0, p0 + records.len() - 1);
                let after = ac.cache.stats();
                StatCounters::bump(&self.stats.agg_ops, ops);
                StatCounters::bump(&self.stats.cache_hits, after.hits - before.hits);
                StatCounters::bump(&self.stats.cache_misses, after.misses - before.misses);
                return agg;
            }
            StatCounters::bump(&self.stats.cache_misses, 1);
        }
        drop(guard);
        let mut agg = self.pp.identity();
        for r in records {
            agg = self.pp.aggregate(&agg, &self.sigs[r.rid as usize]);
        }
        StatCounters::bump(&self.stats.agg_ops, records.len() as u64);
        agg
    }

    /// Neighbour keys of an index position (seam fences at the extremes),
    /// via the same shared helper the DA signs with.
    fn neighbor_keys_of(&self, key: i64, rid: u64) -> (i64, i64) {
        self.scope.neighbor_keys_in(&self.tree.range(key, key), rid)
    }

    /// Answer a projection `π_{attrs}(σ_{lo..hi}(R))` (Section 3.4): rows
    /// carry only the projected attributes; the VO is a single aggregate of
    /// the corresponding attribute signatures. Returns
    /// [`QueryError::WrongSigningMode`] unless the server runs in
    /// [`SigningMode::PerAttribute`].
    pub fn project(
        &self,
        lo: i64,
        hi: i64,
        attrs: &[usize],
    ) -> Result<ProjectionAnswer, QueryError> {
        if self.mode != SigningMode::PerAttribute {
            return Err(QueryError::WrongSigningMode {
                required: SigningMode::PerAttribute,
                actual: self.mode,
            });
        }
        if let Some(&index) = attrs.iter().find(|&&i| i >= self.schema.num_attrs) {
            return Err(QueryError::AttributeOutOfSchema { index });
        }
        StatCounters::bump(&self.stats.queries, 1);
        // Single borrowed walk over the range: rows and the attribute
        // aggregate are built directly from the cached leaf nodes.
        let mut rows = Vec::new();
        let mut agg = self.pp.identity();
        let mut agg_ops = 0u64;
        self.tree.for_each_in_range(lo, hi, |ev| {
            if let RangeEvent::Match(e) = ev {
                let rec = self.read_record(e.rid);
                let values: Vec<(usize, i64)> = attrs.iter().map(|&i| (i, rec.attrs[i])).collect();
                for &i in attrs {
                    agg = self.pp.aggregate(&agg, &self.attr_sigs[e.rid as usize][i]);
                    agg_ops += 1;
                }
                rows.push(ProjectedRow {
                    rid: rec.rid,
                    ts: rec.ts,
                    values,
                });
            }
        });
        StatCounters::bump(&self.stats.agg_ops, agg_ops);
        let oldest = rows.iter().map(|r| r.ts).min().unwrap_or(0);
        Ok(ProjectionAnswer {
            rows,
            agg,
            summaries: self.summaries_since(oldest),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DaConfig, DataAggregator};
    use crate::record::{KEY_NEG_INF, KEY_POS_INF};
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(mode: SigningMode) -> DaConfig {
        DaConfig {
            schema: Schema::new(2, 64),
            scheme: SchemeKind::Mock,
            mode,
            rho: 10,
            rho_prime: 1000,
            buffer_pages: 256,
            fill: 2.0 / 3.0,
        }
    }

    fn system(n: i64, mode: SigningMode) -> (DataAggregator, QueryServer) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut da = DataAggregator::new(cfg(mode), &mut rng);
        let boot = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let qs = QueryServer::from_bootstrap(
            da.public_params(),
            da.config().schema,
            mode,
            &boot,
            256,
            2.0 / 3.0,
        );
        (da, qs)
    }

    #[test]
    fn selection_answer_contains_expected_records() {
        let (_, qs) = system(100, SigningMode::Chained);
        let ans = qs.select_range(200, 300).unwrap();
        let keys: Vec<i64> = ans.records.iter().map(|r| r.attrs[0]).collect();
        assert_eq!(keys, (20..=30).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(ans.left_key, 190);
        assert_eq!(ans.right_key, 310);
        assert!(ans.gap.is_none());
    }

    #[test]
    fn vo_size_independent_of_selectivity() {
        let (_, qs) = system(1000, SigningMode::Chained);
        let pp = qs.public_params().clone();
        let small = qs.select_range(0, 90).unwrap();
        let large = qs.select_range(0, 9000).unwrap();
        assert!(large.records.len() > 10 * small.records.len());
        assert_eq!(small.vo_size(&pp), large.vo_size(&pp));
    }

    #[test]
    fn empty_answer_has_gap_proof() {
        let (_, qs) = system(100, SigningMode::Chained);
        let ans = qs.select_range(201, 209).unwrap(); // keys are multiples of 10
        assert!(ans.records.is_empty());
        let gap = ans.gap.expect("gap proof");
        assert_eq!(gap.own_key(&Schema::new(2, 64)), 200);
        assert_eq!(gap.right_key, 210);
        assert!(ans.vacancy.is_none());
    }

    #[test]
    fn empty_table_answer_carries_vacancy_proof() {
        let (_, qs) = system(0, SigningMode::Chained);
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.records.is_empty());
        assert!(ans.gap.is_none());
        let vac = ans.vacancy.expect("empty-table proof");
        assert!(vac.verify(qs.public_params()));
        assert_eq!(ans.left_key, KEY_NEG_INF);
        assert_eq!(ans.right_key, KEY_POS_INF);
    }

    #[test]
    fn vacancy_proof_tracks_delete_and_insert_transitions() {
        let (mut da, mut qs) = system(1, SigningMode::Chained);
        assert!(qs.select_range(0, 100).unwrap().vacancy.is_none());
        da.advance_clock(3);
        for m in da.delete_record(0) {
            qs.apply(&m);
        }
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.gap.is_none());
        let vac = ans.vacancy.expect("delete emptied the table");
        assert_eq!(vac.ts, 3);
        da.advance_clock(1);
        for m in da.insert(vec![55, 9]) {
            qs.apply(&m);
        }
        assert!(qs.select_range(200, 300).unwrap().vacancy.is_none());
        assert!(qs.select_range(200, 300).unwrap().gap.is_some());
    }

    #[test]
    fn updates_flow_to_answers() {
        let (mut da, mut qs) = system(50, SigningMode::Chained);
        da.advance_clock(5);
        for m in da.update_record(25, vec![250, 4242]) {
            qs.apply(&m);
        }
        let ans = qs.select_range(250, 250).unwrap();
        assert_eq!(ans.records.len(), 1);
        assert_eq!(ans.records[0].attrs[1], 4242);
        assert_eq!(ans.records[0].ts, 5);
    }

    #[test]
    fn inserts_and_deletes_flow() {
        let (mut da, mut qs) = system(50, SigningMode::Chained);
        da.advance_clock(1);
        for m in da.insert(vec![255, 1]) {
            qs.apply(&m);
        }
        let ans = qs.select_range(255, 255).unwrap();
        assert_eq!(ans.records.len(), 1);
        for m in da.delete_record(ans.records[0].rid) {
            qs.apply(&m);
        }
        let ans = qs.select_range(255, 255).unwrap();
        assert!(ans.records.is_empty());
    }

    #[test]
    fn summaries_attached_since_oldest_record() {
        let (mut da, mut qs) = system(20, SigningMode::Chained);
        da.advance_clock(15);
        let (s, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s);
        da.advance_clock(3);
        for m in da.update_record(5, vec![50, 9]) {
            qs.apply(&m);
        }
        da.advance_clock(10);
        let (s2, _) = da.maybe_publish_summary().unwrap();
        qs.add_summary(s2);
        let ans = qs.select_range(0, 1000).unwrap();
        // Oldest record ts = 0, so both summaries attach.
        assert_eq!(ans.summaries.len(), 2);
    }

    #[test]
    fn projection_carries_one_signature() {
        let (_, qs) = system(30, SigningMode::PerAttribute);
        let pp = qs.public_params().clone();
        let ans = qs.project(0, 100, &[1]).unwrap();
        assert_eq!(ans.rows.len(), 11);
        assert!(ans.rows.iter().all(|r| r.values.len() == 1));
        // One aggregate signature whatever the row and attribute counts.
        let wider = qs.project(0, 200, &[0, 1]).unwrap();
        assert!(wider.rows.len() > ans.rows.len());
        assert_eq!(ans.vo_size(&pp), wider.vo_size(&pp));
        // The signature plus the row and summary counts.
        assert_eq!(ans.vo_size(&pp), ans.agg.encoded_len() + 8);
    }

    #[test]
    fn wrong_mode_is_a_typed_error_not_a_panic() {
        let (_, qs) = system(10, SigningMode::PerAttribute);
        assert_eq!(
            qs.select_range(0, 100).unwrap_err(),
            QueryError::WrongSigningMode {
                required: SigningMode::Chained,
                actual: SigningMode::PerAttribute,
            }
        );
        let (_, qs) = system(10, SigningMode::Chained);
        assert_eq!(
            qs.project(0, 100, &[1]).unwrap_err(),
            QueryError::WrongSigningMode {
                required: SigningMode::PerAttribute,
                actual: SigningMode::Chained,
            }
        );
    }

    #[test]
    fn inverted_range_is_the_canonical_empty_answer() {
        let (_, qs) = system(50, SigningMode::Chained);
        let ans = qs.select_range(300, 200).unwrap();
        assert!(ans.records.is_empty());
        assert!(ans.gap.is_none() && ans.vacancy.is_none());
        assert!(ans.summaries.is_empty());
        assert_eq!(ans.agg, qs.public_params().identity());
        // Extreme inversion behaves identically.
        let ans = qs.select_range(i64::MAX, i64::MIN).unwrap();
        assert!(ans.records.is_empty() && ans.gap.is_none());
    }

    fn cached_system(n: i64, strategy: RefreshStrategy) -> (DataAggregator, QueryServer) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut da = DataAggregator::new(cfg(SigningMode::Chained), &mut rng);
        let boot = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
        let qs = QueryServer::with_options(
            da.public_params(),
            da.config().schema,
            SigningMode::Chained,
            &boot,
            QsOptions {
                agg_cache: Some(AggCacheConfig {
                    max_nodes: 32,
                    strategy,
                    distribution: CacheDistribution::Uniform,
                }),
                ..QsOptions::default()
            },
        );
        (da, qs)
    }

    #[test]
    fn agg_cache_answers_match_uncached_server() {
        for strategy in [RefreshStrategy::Eager, RefreshStrategy::Lazy] {
            let (_, plain) = system(128, SigningMode::Chained);
            let (_, cached) = cached_system(128, strategy);
            for (lo, hi) in [(0, 1270), (100, 900), (555, 565), (901, 909)] {
                let a = plain.select_range(lo, hi).unwrap();
                let b = cached.select_range(lo, hi).unwrap();
                assert_eq!(a.agg, b.agg, "range {lo}..{hi}");
                assert_eq!(a.records.len(), b.records.len());
            }
            let s = cached.stats();
            assert!(s.cache_hits > 0, "wide ranges must hit cached nodes");
            // The full-table scan costs far fewer aggregations than the
            // record count once the dyadic nodes kick in.
            assert!(s.agg_ops < plain.stats().agg_ops);
        }
    }

    #[test]
    fn agg_cache_stays_coherent_through_updates() {
        for strategy in [RefreshStrategy::Eager, RefreshStrategy::Lazy] {
            let (mut da, mut qs) = cached_system(64, strategy);
            da.advance_clock(1);
            // In-place value update: delta path.
            for m in da.update_record(20, vec![200, 4242]) {
                qs.apply(&m);
            }
            // Structural changes: insert, delete, and a key move.
            for m in da.insert(vec![205, 7]) {
                qs.apply(&m);
            }
            for m in da.delete_record(3) {
                qs.apply(&m);
            }
            for m in da.update_record(10, vec![455, 10]) {
                qs.apply(&m);
            }
            let ans = qs.select_range(0, 10_000).unwrap();
            assert_eq!(ans.records.len(), 64); // 64 - 1 delete + 1 insert
                                               // Cross-check the aggregate against an uncached replica fed the
                                               // same messages.
            let mut rng = StdRng::seed_from_u64(11);
            let mut da2 = DataAggregator::new(cfg(SigningMode::Chained), &mut rng);
            let boot = da2.bootstrap((0..64).map(|i| vec![i * 10, i]).collect(), 2);
            let mut plain = QueryServer::from_bootstrap(
                da2.public_params(),
                da2.config().schema,
                SigningMode::Chained,
                &boot,
                256,
                2.0 / 3.0,
            );
            da2.advance_clock(1);
            for m in da2.update_record(20, vec![200, 4242]) {
                plain.apply(&m);
            }
            for m in da2.insert(vec![205, 7]) {
                plain.apply(&m);
            }
            for m in da2.delete_record(3) {
                plain.apply(&m);
            }
            for m in da2.update_record(10, vec![455, 10]) {
                plain.apply(&m);
            }
            let expect = plain.select_range(0, 10_000).unwrap();
            assert_eq!(ans.agg, expect.agg);
        }
    }

    /// The old coherence scheme invalidated the whole mirror on any
    /// structural change, so a mixed update/query stream degenerated into a
    /// full O(N) rebuild per query. The incremental mirror must keep
    /// answering out of the cache: ≥90% of selections use cached nodes even
    /// with inserts, deletes, and value updates interleaved — and the
    /// answers stay bit-identical to an uncached replica's.
    #[test]
    fn incremental_cache_keeps_hit_rate_under_mixed_stream() {
        for strategy in [RefreshStrategy::Eager, RefreshStrategy::Lazy] {
            let (mut da, mut qs) = cached_system(256, strategy);
            let mut rng = StdRng::seed_from_u64(11);
            let mut da2 = DataAggregator::new(cfg(SigningMode::Chained), &mut rng);
            let boot = da2.bootstrap((0..256).map(|i| vec![i * 10, i]).collect(), 2);
            let mut plain = QueryServer::from_bootstrap(
                da2.public_params(),
                da2.config().schema,
                SigningMode::Chained,
                &boot,
                256,
                2.0 / 3.0,
            );
            for round in 0..40i64 {
                da.advance_clock(1);
                da2.advance_clock(1);
                // Structural churn plus an in-place update, every round.
                let ops: [Vec<UpdateMsg>; 2] = [
                    da.insert(vec![round * 10 + 5, round]),
                    da.update_record(100 + round as u64, vec![(100 + round) * 10, 9999]),
                ];
                let ops2 = [
                    da2.insert(vec![round * 10 + 5, round]),
                    da2.update_record(100 + round as u64, vec![(100 + round) * 10, 9999]),
                ];
                for m in ops.iter().flatten() {
                    qs.apply(m);
                }
                for m in ops2.iter().flatten() {
                    plain.apply(m);
                }
                for m in da.delete_record(round as u64) {
                    qs.apply(&m);
                }
                for m in da2.delete_record(round as u64) {
                    plain.apply(&m);
                }
                for (lo, hi) in [(0, 10_000), (200, 1800)] {
                    let a = qs.select_range(lo, hi).unwrap();
                    let b = plain.select_range(lo, hi).unwrap();
                    assert_eq!(a.agg, b.agg, "round {round} range {lo}..{hi}");
                    assert_eq!(a.records, b.records);
                }
            }
            let s = qs.stats();
            let rate = s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64;
            assert!(
                rate >= 0.9,
                "cache hit rate {rate:.2} under churn ({strategy:?}): {s:?}"
            );
        }
    }

    #[test]
    fn stats_surface_node_cache_counters() {
        let (_, qs) = system(2000, SigningMode::Chained);
        // First scan warms the decoded-node cache; the repeat scan must be
        // answered from it without decoding a single page.
        let _ = qs.select_range(0, 5000).unwrap();
        let after_first = qs.stats();
        let _ = qs.select_range(0, 5000).unwrap();
        let s = qs.stats();
        assert!(s.node_cache_hits > after_first.node_cache_hits, "{s:?}");
        assert_eq!(
            s.node_cache_misses, after_first.node_cache_misses,
            "repeat scan must not decode: {s:?}"
        );
    }

    /// A gap record older than the checkpoint cut would get a summary
    /// window starting mid-history — unreadable without the certified
    /// anchor. The answer must ship the checkpoint alongside the retained
    /// run (and the retained run must start exactly at the cut).
    #[test]
    fn gap_before_checkpoint_ships_the_checkpoint_anchor() {
        let (mut da, mut qs) = system(100, SigningMode::Chained);
        for _ in 0..3 {
            da.advance_clock(10);
            let (s, _) = da.maybe_publish_summary().unwrap();
            qs.add_summary(s);
        }
        let ckpt = da.checkpoint_summaries(1).expect("prefix to compact");
        qs.apply_checkpoint(ckpt.clone());
        // Keys are multiples of 10, so this range is empty; the bracketing
        // record was certified at bootstrap (ts 0), before the cut.
        let ans = qs.select_range(201, 209).unwrap();
        let gap = ans.gap.expect("gap proof");
        assert!(gap.record.ts <= ckpt.through_ts);
        assert_eq!(ans.checkpoint.as_ref(), Some(&ckpt));
        assert!(ans.summaries.iter().all(|s| s.seq > ckpt.through_seq));
        assert_eq!(
            ans.summaries.first().map(|s| s.seq),
            Some(ckpt.through_seq + 1),
            "retained run must start exactly at the cut"
        );
        // The canonical inverted-range answer certifies nothing, so it
        // never carries the checkpoint either.
        assert!(qs.select_range(300, 200).unwrap().checkpoint.is_none());
    }

    /// Same for a standing vacancy proof minted before the cut.
    #[test]
    fn vacancy_before_checkpoint_ships_the_checkpoint_anchor() {
        let (mut da, mut qs) = system(1, SigningMode::Chained);
        da.advance_clock(3);
        for m in da.delete_record(0) {
            qs.apply(&m);
        }
        for _ in 0..3 {
            da.advance_clock(10);
            let (s, _) = da.maybe_publish_summary().unwrap();
            qs.add_summary(s);
        }
        let ckpt = da.checkpoint_summaries(1).expect("prefix to compact");
        qs.apply_checkpoint(ckpt.clone());
        let ans = qs.select_range(0, 100).unwrap();
        let vac = ans.vacancy.expect("vacancy proof");
        assert!(vac.ts <= ckpt.through_ts);
        assert_eq!(ans.checkpoint.as_ref(), Some(&ckpt));
        assert!(ans.summaries.iter().all(|s| s.seq > ckpt.through_seq));
    }

    #[test]
    fn key_change_moves_record_in_index() {
        let (mut da, mut qs) = system(50, SigningMode::Chained);
        da.advance_clock(1);
        for m in da.update_record(10, vec![455, 10]) {
            qs.apply(&m);
        }
        assert!(qs.select_range(100, 100).unwrap().records.is_empty());
        let ans = qs.select_range(455, 455).unwrap();
        assert_eq!(ans.records.len(), 1);
        assert_eq!(ans.records[0].rid, 10);
    }
}
