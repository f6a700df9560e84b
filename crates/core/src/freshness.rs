//! The freshness verification protocol (Section 3.1).
//!
//! Every ρ ticks the data aggregator publishes a **certified bitmap
//! summary**: one bit per record, set iff the record was updated (inserted,
//! deleted, modified, or re-certified) during the period. Record signatures
//! embed their certification time `ts`, so a client holding the summaries
//! since `ts` can detect a withheld newer version:
//!
//! * `r.ts > b.ts` (newer than the latest summary `b`) — fresh, or at worst
//!   `ct - r.ts < ρ` out of date;
//! * otherwise `r` must be unmarked in every summary whose period started at
//!   or after `r.ts`; being marked there means a newer version exists. (The
//!   summary covering `r.ts` itself naturally marks `r` — that marking *is*
//!   this version's update.)
//!
//! A record updated several times within one period is re-certified in the
//! following period, which bounds its staleness by 2ρ (the "multiple
//! updates" rule).
//!
//! Crucially, the client also demands **recency of the latest summary
//! itself**: if the newest attached summary is older than 2ρ, the check
//! returns [`Freshness::Indeterminate`] instead of trusting the window the
//! server chose to reveal. Without this gate a malicious server could
//! withhold every summary published after a record's last certification and
//! make an arbitrarily stale version look fresh.
//!
//! The same machinery covers the degenerate empty relation: the DA mints an
//! [`EmptyTableProof`] whenever the table becomes (or bootstraps) empty, and
//! the check with [`Mark::Any`] treats *any* post-proof marking as evidence
//! the claim is out of date — an empty table can only change by insertion.
//!
//! Both decisions are one entry point, [`DecodedSummaries::check`]: decode
//! an answer's bitmaps once, then check each version's `ts` against what a
//! marking must hit ([`Mark`]) and the run's anchor seq.
//!
//! # Checkpoints and log compaction
//!
//! The anchored-run rule makes the summary log *unbounded*: a fresh verdict
//! for an old version needs a run reaching back to that version's period
//! (or to seq 0), so the server must retain — and ship — history forever.
//! A [`SummaryCheckpoint`] bounds it. The DA collapses a log prefix
//! `0..=through_seq` into one signed artifact committing to the prefix's
//! **cumulative exposure map**: for every rid, the latest covered
//! `period_start` whose summary marked it. That map is exactly the
//! information the two freshness passes extract from the prefix:
//!
//! * **Staleness stays decidable.** Pass 1 declares a version stale iff
//!   some summary with `version_ts <= period_start` marks its rid — i.e.
//!   iff `version_ts <= max marked period_start`, which is precisely the
//!   exposure entry. A compacted prefix therefore cannot hide a staleness
//!   marking: the marking survives the cut inside the signed exposure map,
//!   and the verifier rejects with `StaleCheckpoint` exactly where the
//!   uncompacted deployment would have answered `Stale`.
//! * **Anchoring stays sound.** A checkpoint certifies the *complete*
//!   prefix `0..=through_seq`, so a retained run starting at
//!   `through_seq + 1` is anchored exactly as a run from seq 0 is — the
//!   2ρ-recency gate and contiguity rules are unchanged on the retained
//!   suffix. A run starting later than `through_seq + 1` is a gap the
//!   verifier refuses (`CheckpointGap`), same as any withheld prefix.

use std::borrow::Borrow;

use authdb_crypto::signer::{Keypair, PublicParams, Signature};
use authdb_filters::bitmap::{compress, decompress, Bitmap};

use crate::record::Tick;

/// A certified compressed bitmap summary for one ρ-period.
///
/// The `(epoch, shard)` tags are part of the signed message: in a sharded
/// deployment every shard runs its own summary stream over its own
/// (shard-local) rids, and without the shard tag a malicious server could
/// attach one shard's fresh, genuinely-signed summaries to another shard's
/// stale answer — the bitmaps would simply not mark the withheld update.
/// The epoch tag extends the same argument across re-partitionings: shard
/// indices (and rid spaces) are only meaningful relative to one certified
/// [`ShardMap`](crate::shard::ShardMap) epoch, so a summary stream from
/// epoch N must never vouch for an answer assembled under epoch N+1 (or
/// vice versa). At an epoch transition the DA re-binds surviving shards'
/// streams to the new tag ([`DataAggregator::retag`]) and mints fresh
/// baseline streams for the handed-off shards. Unsharded deployments use
/// epoch 0, shard 0.
///
/// [`DataAggregator::retag`]: crate::da::DataAggregator::retag
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateSummary {
    /// Which map epoch the stream belongs to (0 for unsharded).
    pub epoch: u64,
    /// Which shard's update stream this summary covers (0 for unsharded).
    pub shard: u64,
    /// Monotone sequence number (consecutive — gaps mean withheld summaries).
    pub seq: u64,
    /// Start of the covered period (exclusive of earlier updates).
    pub period_start: Tick,
    /// Signing time = end of the covered period.
    pub ts: Tick,
    /// Compressed bitmap over rids (bit set = updated in period).
    pub compressed: Vec<u8>,
    /// DA signature over the summary message.
    pub signature: Signature,
}

impl UpdateSummary {
    /// The canonical signing message.
    pub fn message(
        epoch: u64,
        shard: u64,
        seq: u64,
        period_start: Tick,
        ts: Tick,
        compressed: &[u8],
    ) -> Vec<u8> {
        let mut msg = Vec::with_capacity(48 + compressed.len());
        msg.extend_from_slice(b"summary:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&shard.to_be_bytes());
        msg.extend_from_slice(&seq.to_be_bytes());
        msg.extend_from_slice(&period_start.to_be_bytes());
        msg.extend_from_slice(&ts.to_be_bytes());
        msg.extend_from_slice(compressed);
        msg
    }

    /// Build and sign a summary from a bitmap.
    pub fn create(
        keypair: &authdb_crypto::signer::Keypair,
        epoch: u64,
        shard: u64,
        seq: u64,
        period_start: Tick,
        ts: Tick,
        bitmap: &Bitmap,
    ) -> Self {
        let compressed = compress(bitmap);
        let signature = keypair.sign(&Self::message(
            epoch,
            shard,
            seq,
            period_start,
            ts,
            &compressed,
        ));
        UpdateSummary {
            epoch,
            shard,
            seq,
            period_start,
            ts,
            compressed,
            signature,
        }
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(
            &Self::message(
                self.epoch,
                self.shard,
                self.seq,
                self.period_start,
                self.ts,
                &self.compressed,
            ),
            &self.signature,
        )
    }

    /// Decompress the bitmap; `None` if the payload is malformed.
    pub fn bitmap(&self) -> Option<Bitmap> {
        decompress(&self.compressed)
    }
}

/// Certified claim that the relation held **zero records** at `ts`: the
/// record chain of Section 3.3 degenerated to the single gap `(−∞, +∞)`.
/// Minted by the DA at an empty bootstrap and re-minted whenever a delete
/// empties the table; superseded by any later insertion, which the client
/// detects through the update summaries ([`Mark::Any`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EmptyTableProof {
    /// Which map epoch the claim belongs to (0 for unsharded). Bound into
    /// the signed message so a proof minted under one partition cannot deny
    /// records after a re-partitioning changed what the shard covers.
    pub epoch: u64,
    /// Which shard's key range the claim covers (0 for unsharded). Bound
    /// into the signed message so an empty shard's proof cannot be replayed
    /// to deny a different shard's records.
    pub shard: u64,
    /// When the DA certified the relation empty.
    pub ts: Tick,
    /// DA signature over [`EmptyTableProof::message`].
    pub signature: Signature,
}

impl EmptyTableProof {
    /// The canonical signing message.
    pub fn message(epoch: u64, shard: u64, ts: Tick) -> Vec<u8> {
        let mut msg = Vec::with_capacity(36);
        msg.extend_from_slice(b"empty-table:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&shard.to_be_bytes());
        msg.extend_from_slice(&ts.to_be_bytes());
        msg
    }

    /// Sign a vacancy claim for `shard`'s key range as of `ts` under map
    /// epoch `epoch`.
    pub fn create(keypair: &Keypair, epoch: u64, shard: u64, ts: Tick) -> Self {
        EmptyTableProof {
            epoch,
            shard,
            ts,
            signature: keypair.sign(&Self::message(epoch, shard, ts)),
        }
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(
            &Self::message(self.epoch, self.shard, self.ts),
            &self.signature,
        )
    }
}

/// A DA-certified collapse of the summary-log prefix `0..=through_seq`
/// into one signed artifact, bounding both the server's resident log and
/// the run a client must walk.
///
/// The checkpoint binds the `(epoch, shard)` tag (same argument as
/// [`UpdateSummary`]: one shard's compacted history must never vouch for
/// another's, across re-partitionings), the covered seq/tick window, and
/// the prefix's **cumulative exposure map** — per rid, the latest covered
/// `period_start` whose summary marked it (stored as `period_start + 1`,
/// `0` = never marked). The exposure map is what keeps pass-1 staleness
/// decidable across the cut; see the module docs for the soundness
/// argument.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryCheckpoint {
    /// Which map epoch the compacted stream belongs to (0 for unsharded).
    pub epoch: u64,
    /// Which shard's stream this checkpoint collapses (0 for unsharded).
    pub shard: u64,
    /// Last covered summary seq — coverage is the full prefix
    /// `0..=through_seq`, so a retained run starting at `through_seq + 1`
    /// is anchored.
    pub through_seq: u64,
    /// Signing time of the last covered summary (the cut tick).
    pub through_ts: Tick,
    /// Per-rid cumulative exposure: entry `rid` holds `period_start + 1`
    /// of the latest covered summary marking `rid`, or `0` if no covered
    /// summary marks it.
    pub exposure: Vec<u64>,
    /// DA signature over [`SummaryCheckpoint::message`].
    pub signature: Signature,
}

impl SummaryCheckpoint {
    /// The canonical signing message.
    pub fn message(
        epoch: u64,
        shard: u64,
        through_seq: u64,
        through_ts: Tick,
        exposure: &[u64],
    ) -> Vec<u8> {
        let mut msg = Vec::with_capacity(53 + 8 * exposure.len());
        msg.extend_from_slice(b"ckpt-summary:");
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(&shard.to_be_bytes());
        msg.extend_from_slice(&through_seq.to_be_bytes());
        msg.extend_from_slice(&through_ts.to_be_bytes());
        msg.extend_from_slice(&(exposure.len() as u64).to_be_bytes());
        for e in exposure {
            msg.extend_from_slice(&e.to_be_bytes());
        }
        msg
    }

    /// Build and sign a checkpoint.
    pub fn create(
        keypair: &Keypair,
        epoch: u64,
        shard: u64,
        through_seq: u64,
        through_ts: Tick,
        exposure: Vec<u64>,
    ) -> Self {
        let signature = keypair.sign(&Self::message(
            epoch,
            shard,
            through_seq,
            through_ts,
            &exposure,
        ));
        SummaryCheckpoint {
            epoch,
            shard,
            through_seq,
            through_ts,
            exposure,
            signature,
        }
    }

    /// Verify the DA's signature.
    pub fn verify(&self, pp: &PublicParams) -> bool {
        pp.verify(
            &Self::message(
                self.epoch,
                self.shard,
                self.through_seq,
                self.through_ts,
                &self.exposure,
            ),
            &self.signature,
        )
    }

    /// The latest covered `period_start` whose summary marked `rid`, or
    /// `None` if no covered summary marks it. A version with
    /// `version_ts <= exposed_after(rid)` is definitively stale: a covered
    /// summary whose period began at or after the version's certification
    /// marked the rid.
    pub fn exposed_after(&self, rid: u64) -> Option<Tick> {
        usize::try_from(rid)
            .ok()
            .and_then(|i| self.exposure.get(i))
            .filter(|&&e| e > 0)
            .map(|&e| e - 1)
    }

    /// The latest covered `period_start` whose summary marked *any* rid —
    /// what invalidates a vacancy claim older than the cut (an empty table
    /// can only change by insertion, and every insertion marks).
    pub fn exposed_any(&self) -> Option<Tick> {
        self.exposure
            .iter()
            .copied()
            .max()
            .filter(|&e| e > 0)
            .map(|e| e - 1)
    }
}

/// Outcome of a freshness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// The value is current, or out of date by less than the bound (ticks).
    FreshWithin(Tick),
    /// A later summary marks the record: the server returned an old version.
    Stale {
        /// Sequence number of the summary that exposed the staleness.
        exposed_by: u64,
    },
    /// The client lacks the summaries needed to decide.
    Indeterminate,
}

/// What a summary marking must hit to expose the version being checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// A record version: only a marking of its own rid supersedes it.
    Rid(u64),
    /// A vacancy claim ([`EmptyTableProof`]): while the table is empty no
    /// record can be modified or deleted, so *any* marking proves an
    /// insertion happened.
    Any,
}

/// An attached summary set with every bitmap decompressed **once**, so
/// checking many records of the same answer costs O(bitmap lookups) per
/// record. Generic over how the summaries are held (`&[UpdateSummary]`,
/// `&[Arc<UpdateSummary>]`, …) so callers never materialize a deep copy of
/// an answer's summary set just to check it. [`DecodedSummaries::check`]
/// is the one freshness decision.
pub struct DecodedSummaries<'a, S = UpdateSummary> {
    summaries: &'a [S],
    bitmaps: Vec<Option<Bitmap>>,
}

impl<'a, S: Borrow<UpdateSummary>> DecodedSummaries<'a, S> {
    /// Decode all bitmaps up front (`None` entries are malformed payloads,
    /// surfaced as [`Freshness::Indeterminate`] when a check needs them).
    pub fn new(summaries: &'a [S]) -> Self {
        DecodedSummaries {
            summaries,
            bitmaps: summaries.iter().map(|s| s.borrow().bitmap()).collect(),
        }
    }

    /// Whether the attached run is empty.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }

    /// The seq the run starts at, if that start fails to anchor a version
    /// certified at `version_ts`: its period does not cover the version, it
    /// is not seq 0, and it is not `anchor_seq`. `None` for an anchored (or
    /// empty) run. Lets the verifier, holding a [`SummaryCheckpoint`], tell
    /// a seam failure (run resumes past the cut) apart from plain recency
    /// withholding.
    pub(crate) fn unanchored_start(&self, version_ts: Tick, anchor_seq: u64) -> Option<u64> {
        let first = self.summaries.first()?.borrow();
        let anchored = first.period_start < version_ts || first.seq == 0 || first.seq == anchor_seq;
        (!anchored).then_some(first.seq)
    }

    /// Decide whether the version certified at `version_ts` is current.
    /// `mark` is what a marking must hit to expose it: the record's own rid,
    /// or any rid for a vacancy claim.
    ///
    /// The summaries must be sorted by `seq` and signature-verified by the
    /// caller; `rho` is the publication period and `now` the client's clock.
    /// The walk demands seq-contiguity, a run anchored at or before the
    /// period containing `version_ts`, and recency of the newest summary
    /// (younger than 2ρ) — otherwise the server may be withholding the
    /// summaries that would expose a newer version and the verdict is
    /// [`Freshness::Indeterminate`]. `anchor_seq` is an extra seq at which
    /// a run counts as anchored: `checkpoint.through_seq + 1` after the
    /// caller validated a [`SummaryCheckpoint`] (whose coverage of the full
    /// prefix `0..=through_seq` justifies the anchor), `0` for none (seq 0
    /// always anchors).
    pub fn check(
        &self,
        version_ts: Tick,
        mark: Mark,
        rho: Tick,
        now: Tick,
        anchor_seq: u64,
    ) -> Freshness {
        let summaries = self.summaries;
        let window = rho.saturating_mul(2);
        let Some(latest) = summaries.last().map(Borrow::borrow) else {
            // No summary at all is acceptable only in the first 2ρ of system
            // life; past that, summaries must exist and their absence means
            // the server withheld them.
            if now >= window {
                return Freshness::Indeterminate;
            }
            return Freshness::FreshWithin(now.saturating_sub(version_ts));
        };
        // Pass 1 — definitive staleness. A marking proves staleness exactly
        // when this version *predates* the marked period. The DA guarantees
        // post-bootstrap certification timestamps are strictly inside their
        // period (never equal to a boundary), so `version_ts <= period_start`
        // means the version existed before the period began and the marking
        // is a newer event. Each summary is individually signed, so this
        // verdict needs no contiguity or anchoring.
        let mut malformed = false;
        for (s, bitmap) in summaries.iter().map(Borrow::borrow).zip(&self.bitmaps) {
            if version_ts > s.period_start {
                continue;
            }
            // `None` = malformed bitmap.
            let exposed = bitmap.as_ref().map(|b| match mark {
                Mark::Rid(rid) => b.get(rid as usize),
                Mark::Any => b.ones() > 0,
            });
            match exposed {
                Some(true) => return Freshness::Stale { exposed_by: s.seq },
                Some(false) => {}
                None => malformed = true,
            }
        }
        // Pass 2 — a FRESH verdict needs the full discipline.
        // Recency gate: a latest summary older than 2ρ proves nothing about
        // the recent past — the server may be sitting on newer summaries
        // that mark this version.
        if now.saturating_sub(latest.ts) >= window {
            return Freshness::Indeterminate;
        }
        if version_ts > latest.ts {
            // Newer than the latest bitmap: fresh, worst case ct -
            // version_ts, bounded by 2ρ via the gate above.
            return Freshness::FreshWithin(now.saturating_sub(version_ts));
        }
        // Anchor: the run must start at or before the period containing
        // version_ts. Contiguity + recency alone would let a server present
        // a clean *recent suffix* while withholding the middle summary that
        // marks this version stale (prefix withholding); anchoring the run's
        // start closes that. seq 0 is the first summary ever published, so a
        // run from seq 0 trivially covers everything before it.
        if self.unanchored_start(version_ts, anchor_seq).is_some() {
            return Freshness::Indeterminate;
        }
        // Contiguity: no withheld summary inside the run.
        if summaries
            .iter()
            .zip(summaries.iter().skip(1))
            .any(|(a, b)| b.borrow().seq != a.borrow().seq + 1)
        {
            return Freshness::Indeterminate;
        }
        if malformed {
            return Freshness::Indeterminate;
        }
        Freshness::FreshWithin(now.saturating_sub(latest.ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdb_crypto::signer::{Keypair, SchemeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> Keypair {
        let mut rng = StdRng::seed_from_u64(1);
        Keypair::generate(SchemeKind::Mock, &mut rng)
    }

    fn summary(kp: &Keypair, seq: u64, start: Tick, ts: Tick, marked: &[u64]) -> UpdateSummary {
        let mut b = Bitmap::new(1000);
        for &rid in marked {
            b.set(rid as usize);
        }
        UpdateSummary::create(kp, 0, 0, seq, start, ts, &b)
    }

    /// A record version's verdict through the single entry point.
    fn record(
        rid: u64,
        ts: Tick,
        sums: &[UpdateSummary],
        rho: Tick,
        now: Tick,
        anchor_seq: u64,
    ) -> Freshness {
        DecodedSummaries::new(sums).check(ts, Mark::Rid(rid), rho, now, anchor_seq)
    }

    /// A vacancy claim's verdict through the single entry point.
    fn vacancy(
        ts: Tick,
        sums: &[UpdateSummary],
        rho: Tick,
        now: Tick,
        anchor_seq: u64,
    ) -> Freshness {
        DecodedSummaries::new(sums).check(ts, Mark::Any, rho, now, anchor_seq)
    }

    #[test]
    fn summary_signature_verifies() {
        let kp = keypair();
        let s = summary(&kp, 0, 0, 10, &[3, 5]);
        assert!(s.verify(&kp.public_params()));
        let mut tampered = s.clone();
        tampered.ts += 1;
        assert!(!tampered.verify(&kp.public_params()));
    }

    #[test]
    fn record_newer_than_latest_summary_is_fresh() {
        let kp = keypair();
        let sums = vec![summary(&kp, 0, 0, 10, &[])];
        let f = record(7, 15, &sums, 10, 18, 0);
        assert_eq!(f, Freshness::FreshWithin(3));
    }

    #[test]
    fn unmarked_record_is_fresh() {
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[7]), // period containing the update
            summary(&kp, 1, 10, 20, &[]), // later periods leave it unmarked
            summary(&kp, 2, 20, 30, &[99]),
        ];
        let f = record(7, 5, &sums, 10, 31, 0);
        assert!(matches!(f, Freshness::FreshWithin(_)));
    }

    #[test]
    fn own_period_marking_is_not_stale() {
        let kp = keypair();
        // The summary for (0,10] marks rid 7 because it was updated at ts 5:
        // that marking is this very version.
        let sums = vec![summary(&kp, 0, 0, 10, &[7])];
        let f = record(7, 5, &sums, 10, 12, 0);
        assert!(matches!(f, Freshness::FreshWithin(_)));
    }

    #[test]
    fn later_marking_means_stale() {
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[7]),
            summary(&kp, 1, 10, 20, &[7]), // updated again later
        ];
        let f = record(7, 5, &sums, 10, 21, 0);
        assert_eq!(f, Freshness::Stale { exposed_by: 1 });
    }

    #[test]
    fn gap_in_summaries_is_indeterminate() {
        let kp = keypair();
        let sums = vec![
            summary(&kp, 0, 0, 10, &[]),
            summary(&kp, 2, 20, 30, &[]), // seq 1 missing
        ];
        let f = record(7, 5, &sums, 10, 31, 0);
        assert_eq!(f, Freshness::Indeterminate);
    }

    #[test]
    fn missing_coverage_is_indeterminate() {
        let kp = keypair();
        // Record from ts 5, but summaries only start at period (10, 20]:
        // the (0, 10] summary that would expose an update in (5, 10] is
        // absent, so the anchored-coverage rule refuses to decide.
        let sums = vec![summary(&kp, 1, 10, 20, &[])];
        assert_eq!(record(7, 5, &sums, 10, 21, 0), Freshness::Indeterminate);
    }

    #[test]
    fn withheld_summary_prefix_is_indeterminate() {
        let kp = keypair();
        // rid 7 (ts 5) superseded in period (10, 20]. A malicious server
        // ships only the clean, contiguous, *recent* suffix [seq 2, seq 3]:
        // contiguity and the 2ρ gate both pass, but the run's start is not
        // anchored at rid 7's period, so the check must refuse rather than
        // report fresh.
        let all = vec![
            summary(&kp, 0, 0, 10, &[]),
            summary(&kp, 1, 10, 20, &[7]),
            summary(&kp, 2, 20, 30, &[]),
            summary(&kp, 3, 30, 40, &[]),
        ];
        assert_eq!(
            record(7, 5, &all, 10, 42, 0),
            Freshness::Stale { exposed_by: 1 }
        );
        assert_eq!(record(7, 5, &all[2..], 10, 42, 0), Freshness::Indeterminate);
        // Same hole for vacancy claims: the insert-marking summary is in
        // the withheld prefix.
        assert_eq!(vacancy(5, &all[2..], 10, 42, 0), Freshness::Indeterminate);
        // An anchored run that includes the exposing summary still decides.
        assert_eq!(
            record(7, 5, &all[1..], 10, 42, 0),
            Freshness::Stale { exposed_by: 1 }
        );
    }

    #[test]
    fn no_summaries_yet() {
        let f = record(7, 5, &[], 10, 8, 0);
        assert_eq!(f, Freshness::FreshWithin(3));
    }

    #[test]
    fn withheld_summary_suffix_is_indeterminate() {
        let kp = keypair();
        // rid 7 (ts 5) was updated in period (10, 20], which summary 1
        // records. A server withholding summaries 1.. must not be able to
        // pass the check off the back of summary 0 alone once the clock is
        // ≥ 2ρ past summary 0.
        let all = vec![
            summary(&kp, 0, 0, 10, &[7]),
            summary(&kp, 1, 10, 20, &[7]),
            summary(&kp, 2, 20, 30, &[]),
        ];
        assert_eq!(
            record(7, 5, &all, 10, 33, 0),
            Freshness::Stale { exposed_by: 1 }
        );
        let withheld = &all[..1];
        assert_eq!(record(7, 5, withheld, 10, 33, 0), Freshness::Indeterminate);
        // Withholding *every* summary is equally indeterminate past 2ρ.
        assert_eq!(record(7, 5, &[], 10, 33, 0), Freshness::Indeterminate);
    }

    #[test]
    fn recency_gate_is_strict_at_two_rho() {
        let kp = keypair();
        let sums = vec![summary(&kp, 0, 0, 10, &[])];
        assert!(matches!(
            record(7, 5, &sums, 10, 29, 0),
            Freshness::FreshWithin(19)
        ));
        assert_eq!(record(7, 5, &sums, 10, 30, 0), Freshness::Indeterminate);
    }

    #[test]
    fn vacancy_holds_while_no_marks() {
        let kp = keypair();
        let proof = EmptyTableProof::create(&kp, 0, 0, 0);
        assert!(proof.verify(&kp.public_params()));
        let sums = vec![summary(&kp, 0, 0, 10, &[]), summary(&kp, 1, 10, 20, &[])];
        assert!(matches!(
            vacancy(proof.ts, &sums, 10, 21, 0),
            Freshness::FreshWithin(_)
        ));
    }

    #[test]
    fn vacancy_invalidated_by_any_later_marking() {
        let kp = keypair();
        // Table emptied at ts 5 (deletions marked in period (0, 10]); an
        // insert in (10, 20] contradicts the vacancy claim.
        let sums = vec![summary(&kp, 0, 0, 10, &[3]), summary(&kp, 1, 10, 20, &[0])];
        assert_eq!(
            vacancy(5, &sums, 10, 21, 0),
            Freshness::Stale { exposed_by: 1 }
        );
        // Own-period markings (the deletions that emptied the table) are
        // not a contradiction.
        let benign = vec![summary(&kp, 0, 0, 10, &[3]), summary(&kp, 1, 10, 20, &[])];
        assert!(matches!(
            vacancy(5, &benign, 10, 21, 0),
            Freshness::FreshWithin(_)
        ));
    }

    #[test]
    fn checkpoint_signature_binds_every_field() {
        let kp = keypair();
        let c = SummaryCheckpoint::create(&kp, 2, 1, 7, 80, vec![0, 31, 0, 56]);
        assert!(c.verify(&kp.public_params()));
        for tamper in [
            |c: &mut SummaryCheckpoint| c.epoch += 1,
            |c: &mut SummaryCheckpoint| c.shard += 1,
            |c: &mut SummaryCheckpoint| c.through_seq += 1,
            |c: &mut SummaryCheckpoint| c.through_ts += 1,
            |c: &mut SummaryCheckpoint| c.exposure[1] = 0,
            |c: &mut SummaryCheckpoint| c.exposure.push(9),
        ] {
            let mut forged = c.clone();
            tamper(&mut forged);
            assert!(!forged.verify(&kp.public_params()));
        }
    }

    #[test]
    fn checkpoint_exposure_matches_pass_one_semantics() {
        let kp = keypair();
        // Covered summaries: seq 0 period (0,10] marks rid 1; seq 1 period
        // (10,20] marks rids 1 and 3. Cumulative exposure stores the latest
        // marking period_start + 1.
        let c = SummaryCheckpoint::create(&kp, 0, 0, 1, 20, vec![0, 11, 0, 11]);
        // rid 0 never marked: no covered summary can prove it stale.
        assert_eq!(c.exposed_after(0), None);
        // rid 1 marked last in the period starting at 10: any version with
        // ts <= 10 is stale, a version from ts 11 is not provably so.
        assert_eq!(c.exposed_after(1), Some(10));
        assert!(5 <= c.exposed_after(1).unwrap());
        assert!(11 > c.exposed_after(1).unwrap());
        // Out-of-range rids read as never marked.
        assert_eq!(c.exposed_after(99), None);
        // Vacancy invalidation: any marking at all, latest period wins.
        assert_eq!(c.exposed_any(), Some(10));
        let clean = SummaryCheckpoint::create(&kp, 0, 0, 1, 20, vec![0, 0]);
        assert_eq!(clean.exposed_any(), None);
    }

    #[test]
    fn checkpoint_anchor_seq_anchors_a_retained_suffix() {
        let kp = keypair();
        // Full log: seqs 0..=3. Compaction cut after seq 1; retained run is
        // seqs 2..=3, whose first period does not cover version_ts = 5.
        let retained = vec![summary(&kp, 2, 20, 30, &[]), summary(&kp, 3, 30, 40, &[])];
        // Without an anchor the suffix reads as prefix withholding.
        assert_eq!(record(7, 5, &retained, 10, 42, 0), Freshness::Indeterminate);
        // With the checkpoint anchor (through_seq 1 → anchor 2) it decides.
        assert!(matches!(
            record(7, 5, &retained, 10, 42, 2),
            Freshness::FreshWithin(_)
        ));
        // A run starting past the anchor is still a gap.
        assert_eq!(
            record(7, 5, &retained[1..], 10, 42, 2),
            Freshness::Indeterminate
        );
        // Vacancy gets the same anchoring.
        assert!(matches!(
            vacancy(5, &retained, 10, 42, 2),
            Freshness::FreshWithin(_)
        ));
        assert_eq!(vacancy(5, &retained, 10, 42, 0), Freshness::Indeterminate);
    }

    #[test]
    fn deleted_record_detected_via_marking() {
        let kp = keypair();
        // Deletion sets the bit in the deletion period; serving the old
        // version afterwards is stale.
        let sums = vec![
            summary(&kp, 0, 0, 10, &[]),
            summary(&kp, 1, 10, 20, &[42]), // deletion of rid 42
        ];
        let f = record(42, 5, &sums, 10, 25, 0);
        assert_eq!(f, Freshness::Stale { exposed_by: 1 });
    }
}
