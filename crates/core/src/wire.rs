//! Wire codecs for every proof-carrying type, plus the QS request/response
//! protocol.
//!
//! The encoding rules (framing, integer widths, collection and option
//! forms, canonicality discipline) are specified in the [`authdb_wire`]
//! crate docs; this module applies them to the concrete types. Two
//! properties carry the design:
//!
//! 1. **Canonical** — `decode(encode(x)) == x` for every value, and
//!    re-encoding a decoded value is bit-identical. Signatures bind hashes
//!    of messages rebuilt from these fields downstream, so one value must
//!    have exactly one byte form (`wire_roundtrip` property-tests this for
//!    every type here).
//! 2. **Total** — decoding attacker-controlled bytes returns a typed
//!    [`WireError`]; it never panics and never allocates beyond the
//!    received input. Schema-dependent shape checks the codec cannot make
//!    (attribute arity, attribute index bounds) are the verifier's job
//!    ([`crate::verify::VerifyError::MalformedRecord`]).
//!
//! Every plain struct's layout is its `wire_struct!` declaration below:
//! the fields in the order listed, each by its type's own codec or by the
//! adapter named after `as`. One declaration yields the encoder, the
//! decoder and `MIN_WIRE_LEN`, and `vo_size` is read off the encoding, so
//! the declaration is the only place a layout is written down. The types
//! whose codecs are written by hand:
//!
//! | type | encoding |
//! |---|---|
//! | [`ProjectedRow`] | `rid:u64, ts:u64, values:vec<(idx:u32, value:i64)>` |
//! | [`ShardMap`] | `epoch:u64, splits:vec<i64>, signature` (decode re-checks the split and epoch invariants) |
//! | [`UpdateKind`] | one tag byte |
//! | [`RebalancePlan`] | one tag byte (`0` split / `1` merge), then `shard:u64, at:i64` or `left:u64` |
//! | [`QueryError`] | one tag byte, then the variant's fields |
//! | [`Request`] / [`Response`] | one tag byte, then the variant's fields |
//! | [`Request::Tagged`] / [`Response::Tagged`] | wrapper tag byte, `id:u64`, then exactly one *unwrapped* message (nesting is a typed `BadTag`, never recursion) |

use std::sync::Arc;

use authdb_wire::{put_bytes, put_count, Reader, WireDecode, WireEncode, WireError};

use authdb_crypto::signer::Signature;

use crate::da::{UpdateKind, UpdateMsg};
use crate::freshness::{EmptyTableProof, SummaryCheckpoint, UpdateSummary};
use crate::qs::{GapProof, ProjectedRow, ProjectionAnswer, QsStats, QueryError, SelectionAnswer};
use crate::record::Record;
use crate::shard::{
    EpochBootstrap, EpochCheckpoint, EpochTransition, Rebalance, RebalancePlan, ShardAnswer,
    ShardHandoff, ShardMap, ShardRebind, ShardedSelectionAnswer,
};

// -- the declaration-driven codec -------------------------------------------

/// How one declared field travels on the wire.
trait FieldCodec<T> {
    /// Lower bound on the field's encoded length.
    const MIN_WIRE_LEN: usize;
    fn encode_field(v: &T, out: &mut Vec<u8>);
    fn decode_field(r: &mut Reader<'_>) -> Result<T, WireError>;
}

/// A field encoded by its own type's codec (every field not marked `as`).
struct Native;

impl<T: WireEncode + WireDecode> FieldCodec<T> for Native {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN;
    fn encode_field(v: &T, out: &mut Vec<u8>) {
        v.encode_into(out);
    }
    fn decode_field(r: &mut Reader<'_>) -> Result<T, WireError> {
        T::decode_from(r)
    }
}

/// A summary's compressed bitmap: a length-prefixed byte string.
struct Bitmap;

impl FieldCodec<Vec<u8>> for Bitmap {
    const MIN_WIRE_LEN: usize = 4;
    fn encode_field(v: &Vec<u8>, out: &mut Vec<u8>) {
        put_bytes(out, v);
    }
    fn decode_field(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        r.bytes("summary bitmap")
    }
}

/// A shard index: a `u64` on the wire that must fit this platform's
/// `usize`.
struct ShardIndex;

impl FieldCodec<usize> for ShardIndex {
    const MIN_WIRE_LEN: usize = 8;
    fn encode_field(v: &usize, out: &mut Vec<u8>) {
        (*v as u64).encode_into(out);
    }
    fn decode_field(r: &mut Reader<'_>) -> Result<usize, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::NonCanonical {
            what: "shard index",
        })
    }
}

/// The codec of a field declared `name: T` ([`Native`]) or
/// `name: T as Adapter`.
macro_rules! codec {
    () => {
        Native
    };
    ($via:ty) => {
        $via
    };
}

/// Derive [`WireEncode`] and [`WireDecode`] for plain structs from one
/// field list each. Fields travel in the order listed (which need not be
/// the struct's declaration order); `decode_from` reads them in that order
/// and fails at the first typed error; `MIN_WIRE_LEN` is the sum of the
/// fields' bounds.
macro_rules! wire_struct {
    ($($name:ident { $($field:ident: $ty:ty $(as $via:ty)?),+ $(,)? })+) => {$(
        impl WireEncode for $name {
            fn encode_into(&self, out: &mut Vec<u8>) {
                $(<codec!($($via)?) as FieldCodec<$ty>>::encode_field(&self.$field, out);)+
            }
        }

        impl WireDecode for $name {
            const MIN_WIRE_LEN: usize =
                0 $(+ <codec!($($via)?) as FieldCodec<$ty>>::MIN_WIRE_LEN)+;
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name {
                    $($field: <codec!($($via)?) as FieldCodec<$ty>>::decode_field(r)?,)+
                })
            }
        }
    )+};
}

wire_struct! {
    // -- records and proofs --
    Record { rid: u64, ts: u64, attrs: Vec<i64> }
    GapProof { record: Record, left_key: i64, right_key: i64, signature: Signature }
    EmptyTableProof { epoch: u64, shard: u64, ts: u64, signature: Signature }
    UpdateSummary {
        epoch: u64,
        shard: u64,
        seq: u64,
        period_start: u64,
        ts: u64,
        compressed: Vec<u8> as Bitmap,
        signature: Signature,
    }
    SummaryCheckpoint {
        epoch: u64,
        shard: u64,
        through_seq: u64,
        through_ts: u64,
        exposure: Vec<u64>,
        signature: Signature,
    }
    SelectionAnswer {
        records: Vec<Record>,
        agg: Signature,
        left_key: i64,
        right_key: i64,
        gap: Option<GapProof>,
        vacancy: Option<EmptyTableProof>,
        summaries: Vec<Arc<UpdateSummary>>,
        checkpoint: Option<SummaryCheckpoint>,
    }
    ProjectionAnswer { rows: Vec<ProjectedRow>, agg: Signature, summaries: Vec<Arc<UpdateSummary>> }

    // -- update stream --
    UpdateMsg {
        kind: UpdateKind,
        record: Record,
        signature: Signature,
        attr_sigs: Vec<Signature>,
        old_key: Option<i64>,
        vacancy: Option<EmptyTableProof>,
    }

    // -- sharding --
    EpochTransition {
        epoch: u64,
        parent_hash: [u8; 32],
        map_hash: [u8; 32],
        ts: u64,
        signature: Signature,
    }
    EpochCheckpoint {
        epoch: u64,
        map_hash: [u8; 32],
        transition_hash: [u8; 32],
        ts: u64,
        signature: Signature,
    }
    EpochBootstrap {
        map: ShardMap,
        transition: Option<EpochTransition>,
        checkpoint: Option<EpochCheckpoint>,
    }
    ShardHandoff {
        shard: usize as ShardIndex,
        records: Vec<Record>,
        sigs: Vec<Signature>,
        vacancy: Option<EmptyTableProof>,
        baseline: UpdateSummary,
    }
    ShardRebind {
        shard: usize as ShardIndex,
        summaries: Vec<Arc<UpdateSummary>>,
        vacancy: Option<EmptyTableProof>,
        checkpoint: Option<SummaryCheckpoint>,
    }
    Rebalance {
        plan: RebalancePlan,
        new_map: ShardMap,
        transition: EpochTransition,
        handoffs: Vec<ShardHandoff>,
        rebound: Vec<ShardRebind>,
        checkpoint: EpochCheckpoint,
    }
    ShardAnswer { shard: usize as ShardIndex, answer: SelectionAnswer }
    ShardedSelectionAnswer { map: ShardMap, parts: Vec<ShardAnswer> }

    // -- diagnostics --
    QsStats {
        agg_ops: u64,
        queries: u64,
        updates: u64,
        cache_hits: u64,
        cache_misses: u64,
        node_cache_hits: u64,
        node_cache_misses: u64,
        node_cache_evictions: u64,
    }
}

// -- hand-written codecs ----------------------------------------------------

impl WireEncode for ProjectedRow {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.rid.encode_into(out);
        self.ts.encode_into(out);
        put_count(out, "projected-row values", self.values.len());
        for &(idx, value) in &self.values {
            // Attribute indexes are schema-bounded (far below u32::MAX);
            // the checked conversion keeps the invariant machine-visible.
            put_count(out, "attribute index", idx);
            value.encode_into(out);
        }
    }
}

impl WireDecode for ProjectedRow {
    const MIN_WIRE_LEN: usize = 20;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rid = r.u64()?;
        let ts = r.u64()?;
        let n = r.seq_len("projected values", 12)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u32()? as usize;
            let value = r.i64()?;
            values.push((idx, value));
        }
        Ok(ProjectedRow { rid, ts, values })
    }
}

impl WireEncode for UpdateKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            UpdateKind::Insert => 0,
            UpdateKind::Modify => 1,
            UpdateKind::Delete => 2,
            UpdateKind::Recertify => 3,
        });
    }
}

impl WireDecode for UpdateKind {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(UpdateKind::Insert),
            1 => Ok(UpdateKind::Modify),
            2 => Ok(UpdateKind::Delete),
            3 => Ok(UpdateKind::Recertify),
            tag => Err(WireError::BadTag {
                what: "update kind",
                tag,
            }),
        }
    }
}

impl WireEncode for ShardMap {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epoch().encode_into(out);
        put_count(out, "shard-map splits", self.splits().len());
        for s in self.splits() {
            s.encode_into(out);
        }
        self.signature().encode_into(out);
    }
}

impl WireDecode for ShardMap {
    const MIN_WIRE_LEN: usize = 12 + Signature::MIN_WIRE_LEN;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = r.u64()?;
        let splits = Vec::<i64>::decode_from(r)?;
        let signature = Signature::decode_from(r)?;
        // Honest encoders only produce maps `ShardMap::create` certified,
        // so rejecting malformed splits — or the reserved epoch-0 sentinel
        // unsharded artifacts carry — preserves canonicality while keeping
        // the partition invariants panic-free paths downstream.
        ShardMap::from_parts(epoch, splits, signature).ok_or(WireError::NonCanonical {
            what: "shard map epoch/split keys",
        })
    }
}

impl WireEncode for RebalancePlan {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RebalancePlan::Split { shard, at } => {
                out.push(0);
                ShardIndex::encode_field(shard, out);
                at.encode_into(out);
            }
            RebalancePlan::Merge { left } => {
                out.push(1);
                ShardIndex::encode_field(left, out);
            }
        }
    }
}

impl WireDecode for RebalancePlan {
    const MIN_WIRE_LEN: usize = 9;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RebalancePlan::Split {
                shard: ShardIndex::decode_field(r)?,
                at: r.i64()?,
            }),
            1 => Ok(RebalancePlan::Merge {
                left: ShardIndex::decode_field(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "rebalance plan",
                tag,
            }),
        }
    }
}

impl WireEncode for QueryError {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QueryError::WrongSigningMode { required, actual } => {
                out.push(0);
                out.push(signing_mode_tag(*required));
                out.push(signing_mode_tag(*actual));
            }
            QueryError::Unsupported => out.push(1),
            QueryError::AttributeOutOfSchema { index } => {
                out.push(2);
                (*index as u64).encode_into(out);
            }
            QueryError::AnswerTooLarge => out.push(3),
            QueryError::BadRebalance => out.push(4),
            QueryError::UnknownShard { shard } => {
                out.push(5);
                shard.encode_into(out);
            }
        }
    }
}

impl WireDecode for QueryError {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(QueryError::WrongSigningMode {
                required: signing_mode_from_tag(r.u8()?)?,
                actual: signing_mode_from_tag(r.u8()?)?,
            }),
            1 => Ok(QueryError::Unsupported),
            2 => {
                let index = usize::try_from(r.u64()?).map_err(|_| WireError::NonCanonical {
                    what: "attribute index",
                })?;
                Ok(QueryError::AttributeOutOfSchema { index })
            }
            3 => Ok(QueryError::AnswerTooLarge),
            4 => Ok(QueryError::BadRebalance),
            5 => Ok(QueryError::UnknownShard { shard: r.u64()? }),
            tag => Err(WireError::BadTag {
                what: "query error",
                tag,
            }),
        }
    }
}

fn signing_mode_tag(mode: crate::da::SigningMode) -> u8 {
    match mode {
        crate::da::SigningMode::Chained => 0,
        crate::da::SigningMode::PerAttribute => 1,
    }
}

fn signing_mode_from_tag(tag: u8) -> Result<crate::da::SigningMode, WireError> {
    match tag {
        0 => Ok(crate::da::SigningMode::Chained),
        1 => Ok(crate::da::SigningMode::PerAttribute),
        tag => Err(WireError::BadTag {
            what: "signing mode",
            tag,
        }),
    }
}

// -- the QS network protocol ------------------------------------------------

/// A client request to a networked query server. One request frame yields
/// exactly one [`Response`] frame on the same connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Range selection `lo <= Aind <= hi`, answered with a sharded fan-out
    /// the client stitches via `Verifier::verify_sharded_selection`.
    Select {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Projection of `attrs` over the range (single-shard deployments).
    Project {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
        /// Attribute indices to keep.
        attrs: Vec<u32>,
    },
    /// Aggregated proof-construction statistics.
    Stats,
    /// The live epoch: the current map plus the transition chain from the
    /// genesis partition, for advancing a client-side `EpochView`.
    Epoch,
    /// Apply a DA-certified rebalance package to the live server (the
    /// epoch-bump push a DA-side driver sends so a deployment re-partitions
    /// without a restart).
    Rebalance(Box<Rebalance>),
    /// One shard's answer for a sub-range — the per-shard request a fan-out
    /// client sends when it decomposes `[lo, hi]` itself (so each shard
    /// endpoint can fail independently and the query can degrade to a
    /// partial answer instead of dying with the slowest endpoint).
    SelectShard {
        /// The shard index under the client's pinned epoch.
        shard: u32,
        /// Lower bound (inclusive) of the shard's sub-range.
        lo: i64,
        /// Upper bound (inclusive) of the shard's sub-range.
        hi: i64,
    },
    /// Per-shard proof-construction counters in shard order — the load
    /// signal an auto-rebalance driver polls (the aggregated
    /// [`Request::Stats`] cannot tell a hot shard from a warm fleet).
    ShardStats,
    /// The latest certified epoch checkpoint bundle: the current map, its
    /// transition, and the epoch checkpoint hash-chained to it — everything
    /// a fresh client needs to bootstrap an `EpochView` in O(1) signatures
    /// instead of replaying the [`Request::Epoch`] chain from genesis.
    Checkpoint,
    /// A multiplexed request: the wrapped request plus a client-chosen
    /// correlation id echoed back on the response, so one connection can
    /// carry many requests in flight and match answers out of order.
    /// Wrappers do not nest — a tagged tagged request is refused
    /// (`QueryError::Unsupported`), never recursed into.
    Tagged {
        /// Client-chosen correlation id, echoed verbatim.
        id: u64,
        /// The request being multiplexed.
        inner: Box<Request>,
    },
}

impl WireEncode for Request {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0),
            Request::Select { lo, hi } => {
                out.push(1);
                lo.encode_into(out);
                hi.encode_into(out);
            }
            Request::Project { lo, hi, attrs } => {
                out.push(2);
                lo.encode_into(out);
                hi.encode_into(out);
                attrs.encode_into(out);
            }
            Request::Stats => out.push(3),
            Request::Epoch => out.push(4),
            Request::Rebalance(rb) => {
                out.push(5);
                rb.encode_into(out);
            }
            Request::SelectShard { shard, lo, hi } => {
                out.push(6);
                shard.encode_into(out);
                lo.encode_into(out);
                hi.encode_into(out);
            }
            Request::ShardStats => out.push(7),
            Request::Checkpoint => out.push(9),
            Request::Tagged { id, inner } => {
                out.push(8);
                id.encode_into(out);
                inner.encode_into(out);
            }
        }
    }
}

impl Request {
    /// Decode one non-wrapper request body given its already-read tag.
    /// The [`Request::Tagged`] wrapper is handled one level up and is a
    /// [`WireError::BadTag`] here, which is what makes nested wrappers a
    /// typed decode error instead of unbounded recursion on hostile bytes.
    fn decode_untagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Request::Ping),
            1 => Ok(Request::Select {
                lo: r.i64()?,
                hi: r.i64()?,
            }),
            2 => Ok(Request::Project {
                lo: r.i64()?,
                hi: r.i64()?,
                attrs: Vec::<u32>::decode_from(r)?,
            }),
            3 => Ok(Request::Stats),
            4 => Ok(Request::Epoch),
            5 => Ok(Request::Rebalance(Box::new(Rebalance::decode_from(r)?))),
            6 => Ok(Request::SelectShard {
                shard: r.u32()?,
                lo: r.i64()?,
                hi: r.i64()?,
            }),
            7 => Ok(Request::ShardStats),
            9 => Ok(Request::Checkpoint),
            tag => Err(WireError::BadTag {
                what: "request",
                tag,
            }),
        }
    }
}

impl WireDecode for Request {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            8 => {
                let id = r.u64()?;
                let tag = r.u8()?;
                Ok(Request::Tagged {
                    id,
                    inner: Box::new(Request::decode_untagged(tag, r)?),
                })
            }
            tag => Request::decode_untagged(tag, r),
        }
    }
}

/// A networked query server's reply. The variants mirror [`Request`];
/// [`Response::Refused`] carries the server's own typed refusal (as opposed
/// to a verification failure, which is the client's verdict about the
/// payload).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// A sharded selection answer.
    Selection(ShardedSelectionAnswer),
    /// A projection answer.
    Projection(ProjectionAnswer),
    /// Aggregated statistics.
    Stats(QsStats),
    /// The server refused to construct an answer.
    Refused(QueryError),
    /// The live epoch: current map + transition chain from genesis.
    Epoch {
        /// The partition the server currently follows.
        map: ShardMap,
        /// Every transition applied since the genesis map, oldest first.
        transitions: Vec<EpochTransition>,
    },
    /// A rebalance package was applied; the server now serves the new
    /// epoch.
    Rebalanced,
    /// One shard's selection answer (the reply to
    /// [`Request::SelectShard`]). Boxed: a full tile dwarfs every other
    /// variant, and responses spend their life behind this enum.
    ShardSelection(Box<SelectionAnswer>),
    /// Per-shard proof-construction counters in shard order (the reply to
    /// [`Request::ShardStats`]).
    ShardStats(Vec<QsStats>),
    /// The server shed this request under overload (admission queue full
    /// or the connection's write queue past its backpressure cap). Unlike
    /// [`Response::Refused`] this says nothing about the request itself —
    /// the client maps it to a retryable `NetError::Overloaded`.
    Busy,
    /// The latest certified bootstrap bundle (the reply to
    /// [`Request::Checkpoint`]). Boxed for the same reason as
    /// [`Response::ShardSelection`]: a map plus two certificates dwarfs the
    /// tag-only variants.
    Checkpoint(Box<EpochBootstrap>),
    /// A multiplexed response: the wrapped response plus the correlation
    /// id copied from the [`Request::Tagged`] it answers. Wrappers do not
    /// nest.
    Tagged {
        /// The correlation id of the request this answers.
        id: u64,
        /// The response being multiplexed.
        inner: Box<Response>,
    },
}

impl WireEncode for Response {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::Selection(a) => {
                out.push(1);
                a.encode_into(out);
            }
            Response::Projection(a) => {
                out.push(2);
                a.encode_into(out);
            }
            Response::Stats(s) => {
                out.push(3);
                s.encode_into(out);
            }
            Response::Refused(e) => {
                out.push(4);
                e.encode_into(out);
            }
            Response::Epoch { map, transitions } => {
                out.push(5);
                map.encode_into(out);
                transitions.encode_into(out);
            }
            Response::Rebalanced => out.push(6),
            Response::ShardSelection(a) => {
                out.push(7);
                a.encode_into(out);
            }
            Response::ShardStats(s) => {
                out.push(8);
                s.encode_into(out);
            }
            Response::Busy => out.push(9),
            Response::Checkpoint(b) => {
                out.push(11);
                b.encode_into(out);
            }
            Response::Tagged { id, inner } => {
                out.push(10);
                id.encode_into(out);
                inner.encode_into(out);
            }
        }
    }
}

impl Response {
    /// Decode one non-wrapper response body given its already-read tag
    /// (the same no-nesting discipline as [`Request::decode_untagged`]).
    fn decode_untagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Response::Pong),
            1 => Ok(Response::Selection(ShardedSelectionAnswer::decode_from(r)?)),
            2 => Ok(Response::Projection(ProjectionAnswer::decode_from(r)?)),
            3 => Ok(Response::Stats(QsStats::decode_from(r)?)),
            4 => Ok(Response::Refused(QueryError::decode_from(r)?)),
            5 => Ok(Response::Epoch {
                map: ShardMap::decode_from(r)?,
                transitions: Vec::<EpochTransition>::decode_from(r)?,
            }),
            6 => Ok(Response::Rebalanced),
            7 => Ok(Response::ShardSelection(Box::new(
                SelectionAnswer::decode_from(r)?,
            ))),
            8 => Ok(Response::ShardStats(Vec::<QsStats>::decode_from(r)?)),
            9 => Ok(Response::Busy),
            11 => Ok(Response::Checkpoint(Box::new(EpochBootstrap::decode_from(
                r,
            )?))),
            tag => Err(WireError::BadTag {
                what: "response",
                tag,
            }),
        }
    }
}

impl WireDecode for Response {
    const MIN_WIRE_LEN: usize = 1;
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            10 => {
                let id = r.u64()?;
                let tag = r.u8()?;
                Ok(Response::Tagged {
                    id,
                    inner: Box::new(Response::decode_untagged(tag, r)?),
                })
            }
            tag => Response::decode_untagged(tag, r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::da::{DaConfig, DataAggregator, SigningMode};
    use crate::qs::{QsOptions, QueryServer};
    use crate::record::Schema;
    use crate::shard::{ShardedAggregator, ShardedQueryServer};
    use authdb_crypto::signer::SchemeKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(scheme: SchemeKind, mode: SigningMode) -> DaConfig {
        DaConfig {
            schema: Schema::new(2, 64),
            scheme,
            mode,
            rho: 10,
            rho_prime: 10_000,
            buffer_pages: 256,
            fill: 2.0 / 3.0,
        }
    }

    /// Round-trip plus the canonicality check every wire type must pass.
    fn assert_canonical<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(x: &T) {
        let enc = x.encode();
        let dec = T::decode(&enc).expect("canonical bytes decode");
        assert_eq!(&dec, x, "decode . encode = id");
        assert_eq!(dec.encode(), enc, "re-encoding is bit-identical");
    }

    #[test]
    fn selection_answers_round_trip_all_shapes() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let mut rng = StdRng::seed_from_u64(17);
            let mut da = DataAggregator::new(cfg(scheme, SigningMode::Chained), &mut rng);
            let boot = da.bootstrap((0..12).map(|i| vec![i * 10, i]).collect(), 2);
            let mut qs = QueryServer::from_bootstrap(
                da.public_params(),
                da.config().schema,
                SigningMode::Chained,
                &boot,
                256,
                2.0 / 3.0,
            );
            da.advance_clock(12);
            let (s, _) = da.maybe_publish_summary().unwrap();
            qs.add_summary(s);
            // Non-empty, gap-proof, and inverted shapes.
            for (lo, hi) in [(20, 70), (21, 29), (70, 20)] {
                assert_canonical(&qs.select_range(lo, hi).unwrap());
            }
        }
    }

    #[test]
    fn vacancy_answer_round_trips() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut da = DataAggregator::new(cfg(SchemeKind::Mock, SigningMode::Chained), &mut rng);
        let boot = da.bootstrap(Vec::new(), 1);
        let qs = QueryServer::from_bootstrap(
            da.public_params(),
            da.config().schema,
            SigningMode::Chained,
            &boot,
            256,
            2.0 / 3.0,
        );
        let ans = qs.select_range(0, 100).unwrap();
        assert!(ans.vacancy.is_some());
        assert_canonical(&ans);
    }

    #[test]
    fn projection_answer_round_trips() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut da =
            DataAggregator::new(cfg(SchemeKind::Mock, SigningMode::PerAttribute), &mut rng);
        let boot = da.bootstrap((0..10).map(|i| vec![i * 5, i]).collect(), 2);
        let qs = QueryServer::from_bootstrap(
            da.public_params(),
            da.config().schema,
            SigningMode::PerAttribute,
            &boot,
            256,
            2.0 / 3.0,
        );
        assert_canonical(&qs.project(0, 40, &[0, 1]).unwrap());
    }

    #[test]
    fn update_stream_round_trips() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut da = DataAggregator::new(cfg(SchemeKind::Mock, SigningMode::Chained), &mut rng);
        da.bootstrap((0..6).map(|i| vec![i * 10, i]).collect(), 1);
        da.advance_clock(1);
        let mut msgs = da.insert(vec![35, 9]);
        msgs.extend(da.update_record(2, vec![125, 0])); // key move
        msgs.extend(da.delete_record(0));
        for m in &msgs {
            assert_canonical(m);
        }
        // Empty out the table so a delete carries a vacancy proof.
        for rid in 1..7u64 {
            for m in da.delete_record(rid) {
                assert_canonical(&m);
            }
        }
    }

    #[test]
    fn sharded_answers_round_trip() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::Chained),
            vec![100],
            &mut rng,
        );
        let boots = sa.bootstrap((0..20).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &QsOptions::default(),
        );
        assert_canonical(sa.map());
        assert_canonical(&sqs.select_range(50, 150).unwrap());
    }

    #[test]
    fn protocol_messages_round_trip() {
        assert_canonical(&Request::Ping);
        assert_canonical(&Request::Select { lo: -5, hi: 900 });
        assert_canonical(&Request::Project {
            lo: 0,
            hi: 10,
            attrs: vec![0, 1],
        });
        assert_canonical(&Request::Stats);
        assert_canonical(&Response::Pong);
        assert_canonical(&Response::Stats(QsStats {
            agg_ops: 1,
            queries: 2,
            updates: 3,
            cache_hits: 4,
            cache_misses: 5,
            node_cache_hits: 6,
            node_cache_misses: 7,
            node_cache_evictions: 8,
        }));
        assert_canonical(&Response::Refused(QueryError::WrongSigningMode {
            required: SigningMode::Chained,
            actual: SigningMode::PerAttribute,
        }));
        assert_canonical(&Response::Refused(QueryError::Unsupported));
        assert_canonical(&Response::Refused(QueryError::AttributeOutOfSchema {
            index: 9,
        }));
        assert_canonical(&Response::Refused(QueryError::AnswerTooLarge));
        assert_canonical(&Response::Refused(QueryError::BadRebalance));
        assert_canonical(&Request::Epoch);
        assert_canonical(&Response::Rebalanced);
        assert_canonical(&Request::ShardStats);
        assert_canonical(&Response::ShardStats(vec![
            QsStats::default(),
            QsStats {
                agg_ops: 9,
                queries: 8,
                updates: 7,
                cache_hits: 6,
                cache_misses: 5,
                node_cache_hits: 4,
                node_cache_misses: 3,
                node_cache_evictions: 2,
            },
        ]));
        assert_canonical(&Response::Busy);
        assert_canonical(&Request::Checkpoint);
        assert_canonical(&Request::Tagged {
            id: u64::MAX,
            inner: Box::new(Request::Select { lo: -5, hi: 900 }),
        });
        assert_canonical(&Response::Tagged {
            id: 3,
            inner: Box::new(Response::Busy),
        });
    }

    #[test]
    fn nested_tagged_wrappers_are_a_typed_decode_error() {
        // A wrapper inside a wrapper must surface as BadTag — recursing
        // would let 9 bytes of hostile input per level exhaust the stack.
        let nested_req = Request::Tagged {
            id: 1,
            inner: Box::new(Request::Tagged {
                id: 2,
                inner: Box::new(Request::Ping),
            }),
        }
        .encode();
        assert!(matches!(
            Request::decode(&nested_req),
            Err(WireError::BadTag {
                what: "request",
                tag: 8
            })
        ));
        let nested_resp = Response::Tagged {
            id: 1,
            inner: Box::new(Response::Tagged {
                id: 2,
                inner: Box::new(Response::Pong),
            }),
        }
        .encode();
        assert!(matches!(
            Response::decode(&nested_resp),
            Err(WireError::BadTag {
                what: "response",
                tag: 10
            })
        ));
        // Depth is irrelevant: a deep tower of wrappers dies at the same
        // typed error without touching the stack.
        let mut deep = Vec::new();
        for _ in 0..100_000 {
            deep.push(8u8);
            deep.extend_from_slice(&1u64.to_be_bytes());
        }
        deep.push(0);
        assert!(Request::decode(&deep).is_err());
    }

    #[test]
    fn rebalance_package_round_trips() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::Chained),
            vec![100],
            &mut rng,
        );
        sa.bootstrap((0..20).map(|i| vec![i * 10, i]).collect(), 2);
        sa.advance_clock(3);
        let rb = sa.rebalance(crate::shard::RebalancePlan::Split { shard: 1, at: 150 }, 2);
        assert_canonical(&rb.transition);
        assert_canonical(&rb.plan);
        assert_canonical(&rb);
        assert_canonical(&Request::Rebalance(Box::new(rb.clone())));
        assert_canonical(&Response::Epoch {
            map: rb.new_map.clone(),
            transitions: vec![rb.transition.clone()],
        });
        // The epoch checkpoint minted with the package, and the bootstrap
        // bundle a fresh client fetches, round-trip too.
        assert_canonical(&rb.checkpoint);
        let boot = crate::shard::EpochBootstrap {
            map: rb.new_map.clone(),
            transition: Some(rb.transition.clone()),
            checkpoint: Some(rb.checkpoint.clone()),
        };
        assert_canonical(&boot);
        assert_canonical(&Response::Checkpoint(Box::new(boot)));
        // A merge package round-trips too (single handoff, two donors).
        let rb2 = sa.rebalance(crate::shard::RebalancePlan::Merge { left: 1 }, 2);
        assert_canonical(&rb2);
        assert_canonical(&crate::shard::RebalancePlan::Merge { left: 1 });
    }

    #[test]
    fn summary_checkpoint_round_trips() {
        for scheme in [SchemeKind::Mock, SchemeKind::Bas] {
            let mut rng = StdRng::seed_from_u64(26);
            let mut da = DataAggregator::new(cfg(scheme, SigningMode::Chained), &mut rng);
            da.bootstrap((0..8).map(|i| vec![i * 10, i]).collect(), 2);
            for _ in 0..3 {
                da.advance_clock(10);
                da.maybe_publish_summary().unwrap();
            }
            let ckpt = da.checkpoint_summaries(1).expect("prefix to compact");
            assert!(!ckpt.exposure.is_empty(), "recertified rids are exposed");
            assert_canonical(&ckpt);
        }
    }

    #[test]
    fn malformed_shard_map_rejected_not_panicking() {
        let mut rng = StdRng::seed_from_u64(22);
        let kp = authdb_crypto::signer::Keypair::generate(SchemeKind::Mock, &mut rng);
        let good = ShardMap::create(&kp, vec![10, 20]);
        let enc = good.encode();
        // Corrupt the second split so the splits are no longer increasing.
        let mut bad = enc.clone();
        // Layout: 8-byte epoch, 4-byte split count, then two i64s; flip the
        // sign bit of the second split's first byte.
        bad[8 + 4 + 8] = 0xFF;
        assert!(matches!(
            ShardMap::decode(&bad),
            Err(WireError::NonCanonical { .. })
        ));
    }

    #[test]
    fn epoch_zero_shard_map_rejected_on_decode() {
        // Regression (PR 5 bugfix): a decoded map claiming the reserved
        // epoch-0 sentinel would collide with the tag unsharded artifacts
        // carry; from_parts and the codec must both refuse it.
        let mut rng = StdRng::seed_from_u64(23);
        let kp = authdb_crypto::signer::Keypair::generate(SchemeKind::Mock, &mut rng);
        let good = ShardMap::create(&kp, vec![10, 20]);
        assert_eq!(good.epoch(), crate::shard::GENESIS_EPOCH);
        assert!(
            ShardMap::from_parts(0, vec![10, 20], good.signature().clone()).is_none(),
            "from_parts must refuse the epoch-0 sentinel"
        );
        assert!(
            ShardMap::from_parts(1, vec![10, 20], good.signature().clone()).is_some(),
            "a genesis-epoch map reassembles"
        );
        let mut bad = good.encode();
        // Zero the 8 leading epoch bytes.
        for b in bad.iter_mut().take(8) {
            *b = 0;
        }
        assert!(matches!(
            ShardMap::decode(&bad),
            Err(WireError::NonCanonical { .. })
        ));
        // Decoded maps carry their epoch: round-trip an epoch-7 map.
        let later = ShardMap::create_at_epoch(&kp, vec![10, 20], 7);
        let dec = ShardMap::decode(&later.encode()).expect("decodes");
        assert_eq!(dec.epoch(), 7);
        assert_eq!(dec, later);
    }

    #[test]
    fn sharded_stats_aggregate_across_shards() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::Chained),
            vec![100],
            &mut rng,
        );
        let boots = sa.bootstrap((0..20).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &QsOptions::default(),
        );
        sqs.select_range(50, 150).unwrap(); // touches both shards
        sqs.select_range(0, 50).unwrap(); // shard 0 only
        let total = sqs.stats();
        assert_eq!(total.queries, 3, "2 fan-out parts + 1 single-shard");
        assert_eq!(
            total.queries,
            sqs.shard_stats().iter().map(|s| s.queries).sum::<u64>()
        );
        assert!(total.agg_ops > 0);
    }

    #[test]
    fn sharded_projection_requires_single_shard() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::PerAttribute),
            vec![100],
            &mut rng,
        );
        let boots = sa.bootstrap((0..10).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &QsOptions::default(),
        );
        assert_eq!(
            sqs.project(0, 50, &[1]).unwrap_err(),
            QueryError::Unsupported
        );

        let mut sa = ShardedAggregator::new(
            cfg(SchemeKind::Mock, SigningMode::PerAttribute),
            Vec::new(),
            &mut rng,
        );
        let boots = sa.bootstrap((0..10).map(|i| vec![i * 10, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &QsOptions::default(),
        );
        assert_eq!(sqs.project(0, 50, &[1]).unwrap().rows.len(), 6);
    }
}
