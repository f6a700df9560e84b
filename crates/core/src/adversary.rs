//! Adversarial-server conformance subsystem.
//!
//! The verifier's security argument is only as good as the attacks it has
//! actually been run against. This module makes the adversary a first-class
//! component: a [`MaliciousServer`] wraps an honest [`QueryServer`] and
//! applies one strategy from a catalog of [`Tamper`]s to every answer it
//! ships — dropping, injecting, and reordering records, substituting stale
//! versions, widening boundary keys, forging and replaying gap proofs,
//! withholding and reordering summaries, truncating bitmaps, and replaying
//! empty-table proofs. Each strategy declares which [`VerifyError`] the
//! verifier must reject it with, and [`run_catalog`] drives a scripted
//! scenario per strategy, checking both that the tampered answer is
//! rejected *with the expected error* and that the honest answer to the
//! same query still verifies.
//!
//! The catalog runs in the unit-test suite (fast, `Mock` scheme) and in the
//! `fig_adv` bench scenario (also under real BAS crypto), so every future
//! verifier change is regression-checked against the full attack surface.
//!
//! Sharded deployments get their own catalog: a [`MaliciousShardedServer`]
//! applies one [`ShardTamper`] — seam splice, shard withholding, seam
//! widening, stale-shard replay, cross-shard summary swap — to a fanned-out
//! answer, and [`run_shard_catalog`] checks each is rejected with its
//! pinned error while the honest fan-out verifies. The `fig_shard` bench
//! replays this catalog under Mock and real BAS.
//!
//! Certified checkpoints open a third surface: history the verifier can no
//! longer replay and must trust to a signed cut. The [`CheckpointTamper`]
//! catalog — forged covered-window digest, wrong-epoch map replay,
//! gap-straddling cut, chain-break bootstrap — is driven by
//! [`run_checkpoint_catalog`] against both checkpoint-anchored answers and
//! client-bootstrap bundles.

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_crypto::signer::SchemeKind;

use crate::da::{DaConfig, DataAggregator, SigningMode};
use crate::qs::{ProjectionAnswer, QsOptions, QueryServer, SelectionAnswer};
use crate::record::{Schema, KEY_NEG_INF, KEY_POS_INF};
use crate::shard::{RebalancePlan, ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer};
use crate::verify::{EpochView, Verifier, VerifyError, VerifyReport};

/// One way a malicious query server can doctor an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    /// Silently drop a qualifying record from the middle of the result.
    DropRecord,
    /// Inject a fabricated (unsigned) record into the result.
    InjectRecord,
    /// Swap two records to hide a chain splice.
    ReorderRecords,
    /// Replay a superseded answer captured before an update, attaching the
    /// currently published summaries.
    StaleVersion,
    /// Widen a boundary key beyond what the chain certifies.
    WidenBoundary,
    /// Truncate the result tail and move the right boundary inward.
    TruncateTail,
    /// Widen a gap proof's certified neighbour key.
    ForgeGapKeys,
    /// Replay a genuine gap proof against a range it does not bracket
    /// (forging the answer's boundary keys so only the gap check can see).
    ReplayGapElsewhere,
    /// Serve a gap proof whose bracketing record has been superseded.
    StaleGapRecord,
    /// Withhold every summary after an early one, hiding later updates.
    WithholdSummarySuffix,
    /// Serve a stale answer with only a clean, contiguous, *recent* suffix
    /// of summaries — the exposing summary hidden in the withheld prefix.
    WithholdSummaryPrefix,
    /// Present the summaries out of order / with a broken seq chain.
    ReorderSummaries,
    /// Truncate a summary's compressed bitmap.
    TruncateBitmap,
    /// Replay an empty-table proof from before an insertion.
    ReplayVacancy,
    /// Flip one projected value.
    ForgeProjectionValue,
    /// Replay a superseded projection with current summaries.
    StaleProjection,
}

impl Tamper {
    /// Every strategy, in catalog order.
    pub const CATALOG: [Tamper; 16] = [
        Tamper::DropRecord,
        Tamper::InjectRecord,
        Tamper::ReorderRecords,
        Tamper::StaleVersion,
        Tamper::WidenBoundary,
        Tamper::TruncateTail,
        Tamper::ForgeGapKeys,
        Tamper::ReplayGapElsewhere,
        Tamper::StaleGapRecord,
        Tamper::WithholdSummarySuffix,
        Tamper::WithholdSummaryPrefix,
        Tamper::ReorderSummaries,
        Tamper::TruncateBitmap,
        Tamper::ReplayVacancy,
        Tamper::ForgeProjectionValue,
        Tamper::StaleProjection,
    ];

    /// Short printable name.
    pub fn name(self) -> &'static str {
        match self {
            Tamper::DropRecord => "drop-record",
            Tamper::InjectRecord => "inject-record",
            Tamper::ReorderRecords => "reorder-records",
            Tamper::StaleVersion => "stale-version",
            Tamper::WidenBoundary => "widen-boundary",
            Tamper::TruncateTail => "truncate-tail",
            Tamper::ForgeGapKeys => "forge-gap-keys",
            Tamper::ReplayGapElsewhere => "replay-gap-elsewhere",
            Tamper::StaleGapRecord => "stale-gap-record",
            Tamper::WithholdSummarySuffix => "withhold-summary-suffix",
            Tamper::WithholdSummaryPrefix => "withhold-summary-prefix",
            Tamper::ReorderSummaries => "reorder-summaries",
            Tamper::TruncateBitmap => "truncate-bitmap",
            Tamper::ReplayVacancy => "replay-vacancy",
            Tamper::ForgeProjectionValue => "forge-projection-value",
            Tamper::StaleProjection => "stale-projection",
        }
    }

    /// Whether the strategy tampers with projection answers (the rest work
    /// on selections).
    pub fn targets_projection(self) -> bool {
        matches!(self, Tamper::ForgeProjectionValue | Tamper::StaleProjection)
    }
}

impl Strategy for Tamper {
    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            Tamper::DropRecord
            | Tamper::InjectRecord
            | Tamper::WidenBoundary
            | Tamper::ForgeGapKeys
            | Tamper::ForgeProjectionValue => matches!(err, BadAggregate),
            Tamper::ReorderRecords => matches!(err, Unsorted),
            Tamper::TruncateTail => matches!(err, BadBoundary),
            Tamper::ReplayGapElsewhere => matches!(err, BadGapProof),
            Tamper::StaleVersion | Tamper::StaleGapRecord | Tamper::StaleProjection => {
                matches!(err, Stale { .. })
            }
            Tamper::WithholdSummarySuffix
            | Tamper::WithholdSummaryPrefix
            | Tamper::ReorderSummaries => {
                matches!(err, FreshnessIndeterminate { .. })
            }
            Tamper::TruncateBitmap => matches!(err, BadSummarySignature { .. }),
            Tamper::ReplayVacancy => matches!(err, StaleVacancy { .. }),
        }
    }
}

/// A query server under adversarial control: forwards the DA's updates and
/// summaries honestly (it must, to keep its replica usable) but doctors
/// every answer according to its [`Tamper`] strategy. Replay strategies
/// additionally hoard earlier honest answers via [`MaliciousServer::capture_selection`] /
/// [`MaliciousServer::capture_projection`].
pub struct MaliciousServer {
    inner: QueryServer,
    tamper: Tamper,
    schema: Schema,
    captured_selection: Option<SelectionAnswer>,
    captured_projection: Option<ProjectionAnswer>,
}

impl MaliciousServer {
    /// Put `inner` under adversarial control with one tamper strategy.
    pub fn new(inner: QueryServer, schema: Schema, tamper: Tamper) -> Self {
        MaliciousServer {
            inner,
            tamper,
            schema,
            captured_selection: None,
            captured_projection: None,
        }
    }

    /// The active strategy.
    pub fn tamper(&self) -> Tamper {
        self.tamper
    }

    /// The wrapped honest server.
    pub fn inner_mut(&mut self) -> &mut QueryServer {
        &mut self.inner
    }

    /// Record the honest answer to `lo..=hi` now, for later replay.
    pub fn capture_selection(&mut self, lo: i64, hi: i64) {
        self.captured_selection = Some(self.inner.select_range(lo, hi).expect("chained mode"));
    }

    /// Record the honest projection now, for later replay.
    pub fn capture_projection(&mut self, lo: i64, hi: i64, attrs: &[usize]) {
        self.captured_projection = Some(
            self.inner
                .project(lo, hi, attrs)
                .expect("per-attribute mode"),
        );
    }

    /// Answer a range selection, doctored per the active strategy.
    pub fn select_range(&mut self, lo: i64, hi: i64) -> SelectionAnswer {
        let mut ans = match self.tamper {
            Tamper::StaleVersion
            | Tamper::StaleGapRecord
            | Tamper::ReplayGapElsewhere
            | Tamper::ReplayVacancy
            | Tamper::WithholdSummaryPrefix => {
                // Replays ship a hoarded answer; the client fetches the
                // current summaries independently, so the attacker cannot
                // avoid attaching them.
                let mut a = self
                    .captured_selection
                    .clone()
                    .expect("capture_selection before replay");
                a.summaries = self.inner.summaries().to_vec();
                a
            }
            _ => self.inner.select_range(lo, hi).expect("chained mode"),
        };
        match self.tamper {
            Tamper::DropRecord => {
                let mid = ans.records.len() / 2;
                ans.records.remove(mid);
            }
            Tamper::InjectRecord => {
                // Fabricate a record with an in-range key (a duplicate of
                // an existing one, so ordering still holds).
                let mut forged = ans.records[0].clone();
                forged.attrs[1] = forged.attrs[1].wrapping_add(1);
                ans.records.insert(1, forged);
            }
            Tamper::ReorderRecords => ans.records.swap(0, 1),
            Tamper::WidenBoundary => {
                ans.left_key = ans.left_key.saturating_sub(5);
            }
            Tamper::TruncateTail => {
                let keep = ans.records.len() / 2;
                ans.records.truncate(keep);
                let last_key = ans.records.last().expect("nonempty").key(&self.schema);
                ans.right_key = last_key.saturating_add(1);
            }
            Tamper::ForgeGapKeys => {
                let g = ans.gap.as_mut().expect("gap answer");
                g.right_key = g.right_key.saturating_add(1_000);
            }
            Tamper::ReplayGapElsewhere => {
                // Forge the answer-level boundary keys so only the gap
                // bracketing check can catch the replay.
                ans.left_key = KEY_NEG_INF;
                ans.right_key = KEY_POS_INF;
            }
            Tamper::WithholdSummarySuffix => ans.summaries.truncate(1),
            Tamper::WithholdSummaryPrefix => {
                // Keep only the newest summary: contiguous and recent, but
                // the exposing summary is gone from the middle of history.
                let n = ans.summaries.len();
                ans.summaries.drain(..n - 1);
            }
            Tamper::ReorderSummaries => ans.summaries.swap(0, 1),
            Tamper::TruncateBitmap => {
                // Summaries are Arc-shared with the server's log; tamper a
                // private copy so only this answer is corrupted.
                let s =
                    std::sync::Arc::make_mut(ans.summaries.last_mut().expect("summaries present"));
                let half = s.compressed.len() / 2;
                s.compressed.truncate(half);
            }
            Tamper::StaleVersion | Tamper::StaleGapRecord | Tamper::ReplayVacancy => {}
            Tamper::ForgeProjectionValue | Tamper::StaleProjection => {
                unreachable!("projection tampers do not answer selections")
            }
        }
        ans
    }

    /// Answer a projection, doctored per the active strategy.
    pub fn project(&mut self, lo: i64, hi: i64, attrs: &[usize]) -> ProjectionAnswer {
        match self.tamper {
            Tamper::ForgeProjectionValue => {
                let mut ans = self
                    .inner
                    .project(lo, hi, attrs)
                    .expect("per-attribute mode");
                ans.rows[0].values[0].1 ^= 1;
                ans
            }
            Tamper::StaleProjection => {
                let mut a = self
                    .captured_projection
                    .clone()
                    .expect("capture_projection before replay");
                a.summaries = self.inner.summaries().to_vec();
                a
            }
            _ => self
                .inner
                .project(lo, hi, attrs)
                .expect("per-attribute mode"),
        }
    }
}

/// A family of attack strategies, each naming the typed rejection the
/// verifier must produce for it.
pub trait Strategy: Copy {
    /// Whether `err` is the rejection this strategy must produce.
    fn expects(self, err: &VerifyError) -> bool;
}

/// Outcome of one catalog entry of any strategy family.
pub struct Conformance<S> {
    /// The strategy exercised.
    pub tamper: S,
    /// Whether the honest counterpart (answer, transition or bootstrap
    /// bundle) was accepted.
    pub honest_ok: bool,
    /// What the verifier said about the tampered artifact.
    pub outcome: Result<VerifyReport, VerifyError>,
}

impl<S: Strategy> Conformance<S> {
    /// Tampered artifact rejected with the expected error AND the honest
    /// counterpart accepted.
    pub fn ok(&self) -> bool {
        self.honest_ok
            && match &self.outcome {
                Ok(_) => false,
                Err(e) => self.tamper.expects(e),
            }
    }
}

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

fn system(
    scheme: SchemeKind,
    mode: SigningMode,
    n: i64,
    tamper: Tamper,
) -> (DataAggregator, MaliciousServer, Verifier) {
    let mut rng = StdRng::seed_from_u64(1337);
    let mut da = DataAggregator::new(cfg(scheme, mode), &mut rng);
    let boot = da.bootstrap((0..n).map(|i| vec![i * 10, i]).collect(), 2);
    let qs = QueryServer::from_bootstrap(
        da.public_params(),
        da.config().schema,
        mode,
        &boot,
        256,
        2.0 / 3.0,
    );
    let v = Verifier::new(da.public_params(), da.config().schema, da.config().rho);
    let mal = MaliciousServer::new(qs, da.config().schema, tamper);
    (da, mal, v)
}

/// Drive the shared three-period timeline: summary at t=12, an update to
/// rid 23 (key 230) at t=14, summaries at t=24 and t=34.
fn run_timeline(da: &mut DataAggregator, mal: &mut MaliciousServer) {
    da.advance_clock(12);
    let (s1, _) = da.maybe_publish_summary().expect("period 0 closes");
    mal.inner_mut().add_summary(s1);
    da.advance_clock(2);
    for m in da.update_record(23, vec![230, 777]) {
        mal.inner_mut().apply(&m);
    }
    da.advance_clock(10);
    let (s2, _) = da.maybe_publish_summary().expect("period 1 closes");
    mal.inner_mut().add_summary(s2);
    da.advance_clock(10);
    let (s3, _) = da.maybe_publish_summary().expect("period 2 closes");
    mal.inner_mut().add_summary(s3);
}

/// Run one selection-catalog scenario.
fn selection_scenario(scheme: SchemeKind, tamper: Tamper) -> Conformance<Tamper> {
    let (mut da, mut mal, v) = system(scheme, SigningMode::Chained, 40, tamper);
    // The query each strategy answers (and is judged against).
    let (lo, hi) = match tamper {
        Tamper::ForgeGapKeys => (101, 109),
        Tamper::ReplayGapElsewhere | Tamper::StaleGapRecord => (231, 239),
        _ => (100, 300),
    };
    // Replays capture their victim answer before the update lands.
    match tamper {
        Tamper::StaleVersion | Tamper::WithholdSummaryPrefix => mal.capture_selection(100, 300),
        Tamper::StaleGapRecord => mal.capture_selection(231, 239),
        Tamper::ReplayGapElsewhere => mal.capture_selection(101, 109),
        _ => {}
    }
    run_timeline(&mut da, &mut mal);
    let now = da.now();
    let tampered = mal.select_range(lo, hi);
    let outcome = v.verify_selection(lo, hi, &tampered, now, true);
    let honest = mal.inner_mut().select_range(lo, hi).unwrap();
    let honest_ok = v.verify_selection(lo, hi, &honest, now, true).is_ok();
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run the empty-table replay scenario.
fn vacancy_scenario(scheme: SchemeKind, tamper: Tamper) -> Conformance<Tamper> {
    let (mut da, mut mal, v) = system(scheme, SigningMode::Chained, 0, tamper);
    // Hoard the pre-insert vacancy answer...
    mal.capture_selection(0, 100);
    // ...then the world moves on: an insert lands and is summarized.
    da.advance_clock(3);
    for m in da.insert(vec![50, 1]) {
        mal.inner_mut().apply(&m);
    }
    da.advance_clock(9);
    let (s1, _) = da.maybe_publish_summary().expect("period closes");
    mal.inner_mut().add_summary(s1);
    let now = da.now();
    let tampered = mal.select_range(0, 100);
    let outcome = v.verify_selection(0, 100, &tampered, now, true);
    let honest = mal.inner_mut().select_range(0, 100).unwrap();
    let honest_ok = v.verify_selection(0, 100, &honest, now, true).is_ok();
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run one projection-catalog scenario.
fn projection_scenario(scheme: SchemeKind, tamper: Tamper) -> Conformance<Tamper> {
    let (mut da, mut mal, v) = system(scheme, SigningMode::PerAttribute, 40, tamper);
    if tamper == Tamper::StaleProjection {
        mal.capture_projection(100, 300, &[0, 1]);
    }
    run_timeline(&mut da, &mut mal);
    let now = da.now();
    let tampered = mal.project(100, 300, &[0, 1]);
    let outcome = v.verify_projection(&tampered, now, true);
    let honest = mal.inner_mut().project(100, 300, &[0, 1]).unwrap();
    let honest_ok = v.verify_projection(&honest, now, true).is_ok();
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run every catalog strategy under `scheme`, returning one outcome per
/// strategy. Used by the unit-test conformance suite and the `fig_adv`
/// bench scenario.
pub fn run_catalog(scheme: SchemeKind) -> Vec<Conformance<Tamper>> {
    Tamper::CATALOG
        .iter()
        .map(|&t| {
            if t.targets_projection() {
                projection_scenario(scheme, t)
            } else if t == Tamper::ReplayVacancy {
                vacancy_scenario(scheme, t)
            } else {
                selection_scenario(scheme, t)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Cross-shard strategies
// ---------------------------------------------------------------------------

/// One way a malicious server can doctor a *sharded* fan-out answer. These
/// target the seams and the per-shard freshness domains — exactly the
/// surface the single-server catalog cannot reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardTamper {
    /// Move a seam-adjacent record across the split: drop it from the shard
    /// that owns it and present it in the neighbouring shard's answer.
    SeamSplice,
    /// Omit an overlapping shard's answer entirely (and the records in it).
    ShardWithhold,
    /// Forge a shard's boundary key past its seam fence, shrinking the key
    /// range its completeness proof accounts for.
    SeamWiden,
    /// One shard answers from an old epoch (a pre-update replay) while the
    /// other shards answer fresh.
    StaleShardReplay,
    /// Vouch for a stale shard's answer with a *different* shard's fresh,
    /// genuinely signed summary stream.
    SummarySwap,
}

impl ShardTamper {
    /// Every cross-shard strategy, in catalog order.
    pub const CATALOG: [ShardTamper; 5] = [
        ShardTamper::SeamSplice,
        ShardTamper::ShardWithhold,
        ShardTamper::SeamWiden,
        ShardTamper::StaleShardReplay,
        ShardTamper::SummarySwap,
    ];

    /// Short printable name.
    pub fn name(self) -> &'static str {
        match self {
            ShardTamper::SeamSplice => "seam-splice",
            ShardTamper::ShardWithhold => "shard-withhold",
            ShardTamper::SeamWiden => "seam-widen",
            ShardTamper::StaleShardReplay => "stale-shard-replay",
            ShardTamper::SummarySwap => "summary-swap",
        }
    }
}

impl Strategy for ShardTamper {
    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            // The moved record's key is outside the receiving shard's
            // signed sub-range.
            ShardTamper::SeamSplice => matches!(err, RecordOutOfRange { .. }),
            ShardTamper::ShardWithhold => matches!(err, ShardWithheld { .. }),
            ShardTamper::SeamWiden => matches!(err, SeamViolation { .. }),
            ShardTamper::StaleShardReplay => matches!(err, Stale { .. }),
            ShardTamper::SummarySwap => matches!(err, ShardMismatch { .. }),
        }
    }
}

/// A sharded query server under adversarial control: routes updates and
/// summaries honestly, doctors every fan-out answer per its strategy.
pub struct MaliciousShardedServer {
    inner: ShardedQueryServer,
    tamper: ShardTamper,
    captured: Option<ShardedSelectionAnswer>,
}

impl MaliciousShardedServer {
    /// Put `inner` under adversarial control with one strategy.
    pub fn new(inner: ShardedQueryServer, tamper: ShardTamper) -> Self {
        MaliciousShardedServer {
            inner,
            tamper,
            captured: None,
        }
    }

    /// The active strategy.
    pub fn tamper(&self) -> ShardTamper {
        self.tamper
    }

    /// The wrapped honest server.
    pub fn inner_mut(&mut self) -> &mut ShardedQueryServer {
        &mut self.inner
    }

    /// Record the honest fan-out answer now, for later replay.
    pub fn capture(&mut self, lo: i64, hi: i64) {
        self.captured = Some(self.inner.select_range(lo, hi).expect("chained mode"));
    }

    /// Answer a range selection, doctored per the active strategy. The
    /// scripted scenario queries a range straddling the first seam, so the
    /// fan-out always has at least two parts.
    pub fn select_range(&mut self, lo: i64, hi: i64) -> ShardedSelectionAnswer {
        let mut ans = self.inner.select_range(lo, hi).expect("chained mode");
        match self.tamper {
            ShardTamper::SeamSplice => {
                // The last record left of the seam crosses it: dropped from
                // its owner, smuggled into the neighbour's answer. (The
                // attacker also rebuilds the aggregates, but the structural
                // checks fire first — the alien key is out of sub-range.)
                let moved = ans.parts[0]
                    .answer
                    .records
                    .pop()
                    .expect("seam-adjacent record");
                ans.parts[1].answer.records.insert(0, moved);
            }
            ShardTamper::ShardWithhold => {
                ans.parts.remove(1);
            }
            ShardTamper::SeamWiden => {
                // Truncate the seam-adjacent tail and claim the shard's
                // responsibility ended early — a boundary key past the
                // signed fence.
                let a = &mut ans.parts[0].answer;
                a.records.pop();
                a.right_key = a.right_key.saturating_add(1_000);
            }
            ShardTamper::StaleShardReplay => {
                // Replay one shard's pre-update answer. The client fetches
                // that shard's current summaries independently, so the
                // attacker cannot avoid attaching them.
                let donor = ans.parts[1].shard;
                self.replay_stale_part(&mut ans, donor);
            }
            ShardTamper::SummarySwap => {
                // Same stale replay, but vouched for with the *neighbour*
                // shard's fresh summaries (which never mark the withheld
                // update — their bitmaps cover different rids).
                let donor = ans.parts[0].shard;
                self.replay_stale_part(&mut ans, donor);
            }
        }
        ans
    }

    /// Swap the second part's answer for its captured pre-update version,
    /// attaching `summary_donor`'s current summary stream.
    fn replay_stale_part(&self, ans: &mut ShardedSelectionAnswer, summary_donor: usize) {
        let old = self
            .captured
            .as_ref()
            .expect("capture before replay")
            .parts
            .iter()
            .find(|p| p.shard == ans.parts[1].shard)
            .expect("captured part")
            .answer
            .clone();
        ans.parts[1].answer = old;
        ans.parts[1].answer.summaries = self
            .inner
            .with_shard(summary_donor, |qs| qs.summaries().to_vec());
    }
}

/// Run one cross-shard scenario: two shards split at key 200, a query
/// straddling the seam, and the shared three-period timeline with an
/// update landing in shard 1.
fn shard_scenario(scheme: SchemeKind, tamper: ShardTamper) -> Conformance<ShardTamper> {
    let mut rng = StdRng::seed_from_u64(1337);
    let mut sa = ShardedAggregator::new(cfg(scheme, SigningMode::Chained), vec![200], &mut rng);
    let boots = sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
    let sqs = ShardedQueryServer::from_bootstraps(
        sa.public_params(),
        sa.config(),
        sa.map().clone(),
        &boots,
        &QsOptions::default(),
    );
    let v = Verifier::new(sa.public_params(), sa.config().schema, sa.config().rho);
    let mut mal = MaliciousShardedServer::new(sqs, tamper);
    let (lo, hi) = (150, 250);
    // Replays hoard the pre-update fan-out.
    if matches!(
        tamper,
        ShardTamper::StaleShardReplay | ShardTamper::SummarySwap
    ) {
        mal.capture(lo, hi);
    }
    // Timeline: summary at t=12, an update to shard 1's record with key
    // 250 (local rid 5) at t=14, summaries at t=24 and t=34.
    sa.advance_clock(12);
    for (s, summary, recerts) in sa.maybe_publish_summaries() {
        mal.inner_mut().add_summary(s, summary);
        for m in recerts {
            mal.inner_mut().apply(s, &m);
        }
    }
    sa.advance_clock(2);
    let (_, msgs) = sa.update_record(1, 5, vec![250, 777]);
    for (s, m) in msgs {
        mal.inner_mut().apply(s, &m);
    }
    for dt in [10, 10] {
        sa.advance_clock(dt);
        for (s, summary, recerts) in sa.maybe_publish_summaries() {
            mal.inner_mut().add_summary(s, summary);
            for m in recerts {
                mal.inner_mut().apply(s, &m);
            }
        }
    }
    let now = sa.now();
    let view = EpochView::genesis(sa.map(), &sa.public_params()).expect("genesis view");
    let tampered = mal.select_range(lo, hi);
    let outcome = v.verify_sharded_selection(lo, hi, &tampered, &view, now, true, &mut rng);
    let honest = mal.inner_mut().select_range(lo, hi).expect("chained mode");
    let honest_ok = v
        .verify_sharded_selection(lo, hi, &honest, &view, now, true, &mut rng)
        .is_ok();
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run every cross-shard strategy under `scheme`, one outcome per
/// strategy. Used by the unit-test conformance suite and the `fig_shard`
/// bench scenario.
pub fn run_shard_catalog(scheme: SchemeKind) -> Vec<Conformance<ShardTamper>> {
    ShardTamper::CATALOG
        .iter()
        .map(|&t| shard_scenario(scheme, t))
        .collect()
}

// ---------------------------------------------------------------------------
// Rebalancing (cross-epoch) strategies
// ---------------------------------------------------------------------------

/// One way a malicious server can exploit an epoch transition. These target
/// exactly the surface a *static* partition never exposes: two
/// genuinely-certified partitions existing at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalanceTamper {
    /// Replay a complete pre-rebalance answer — old map, old parts — after
    /// the client has observed the epoch transition.
    StaleEpochReplay,
    /// Serve records signed under the *old* fences inside the new epoch's
    /// fan-out: the pre-split shard's answer, which spans past the new
    /// seam, presented as the split-off shard's part (dressed with the new
    /// epoch's genuine summaries so only the seam structure can object).
    HandoffForgery,
    /// Split brain: answer one sub-query from epoch-N state (old records,
    /// old summary stream) while the rest of the fan-out is epoch-N+1.
    SplitBrain,
    /// Break the transition chain the client advances its epoch with:
    /// splice in a transition whose parent hash does not extend the
    /// pinned map.
    TransitionBreak,
}

impl RebalanceTamper {
    /// Every rebalancing strategy, in catalog order.
    pub const CATALOG: [RebalanceTamper; 4] = [
        RebalanceTamper::StaleEpochReplay,
        RebalanceTamper::HandoffForgery,
        RebalanceTamper::SplitBrain,
        RebalanceTamper::TransitionBreak,
    ];

    /// Short printable name.
    pub fn name(self) -> &'static str {
        match self {
            RebalanceTamper::StaleEpochReplay => "stale-epoch-replay",
            RebalanceTamper::HandoffForgery => "handoff-forgery",
            RebalanceTamper::SplitBrain => "split-brain",
            RebalanceTamper::TransitionBreak => "transition-break",
        }
    }
}

impl Strategy for RebalanceTamper {
    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            RebalanceTamper::StaleEpochReplay => matches!(err, StaleEpoch { .. }),
            // The old-fence records spill past the new seam's sub-range.
            RebalanceTamper::HandoffForgery => matches!(err, RecordOutOfRange { .. }),
            RebalanceTamper::SplitBrain => matches!(err, EpochMismatch { .. }),
            RebalanceTamper::TransitionBreak => matches!(err, BrokenTransition),
        }
    }
}

/// Run one rebalancing scenario: a 2-shard deployment (split at 200) runs
/// the shared three-period timeline, then the DA splits shard 1 at key 300
/// (epoch 1 → 2). The strategy attacks the transition or the first
/// post-transition answers.
fn rebalance_scenario(scheme: SchemeKind, tamper: RebalanceTamper) -> Conformance<RebalanceTamper> {
    let mut rng = StdRng::seed_from_u64(1337);
    let mut sa = ShardedAggregator::new(cfg(scheme, SigningMode::Chained), vec![200], &mut rng);
    let boots = sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
    let sqs = ShardedQueryServer::from_bootstraps(
        sa.public_params(),
        sa.config(),
        sa.map().clone(),
        &boots,
        &QsOptions::default(),
    );
    let v = Verifier::new(sa.public_params(), sa.config().schema, sa.config().rho);
    let pp = sa.public_params();
    let mut view = EpochView::genesis(sa.map(), &pp).expect("genesis view");
    // The shared timeline: summaries exist, an update lands in shard 1.
    sa.advance_clock(12);
    for (s, summary, recerts) in sa.maybe_publish_summaries() {
        sqs.add_summary(s, summary);
        for m in recerts {
            sqs.apply(s, &m);
        }
    }
    sa.advance_clock(2);
    let (_, msgs) = sa.update_record(1, 5, vec![250, 777]);
    for (s, m) in msgs {
        sqs.apply(s, &m);
    }
    for dt in [10, 10] {
        sa.advance_clock(dt);
        for (s, summary, recerts) in sa.maybe_publish_summaries() {
            sqs.add_summary(s, summary);
            for m in recerts {
                sqs.apply(s, &m);
            }
        }
    }
    // Epoch-1 state the attacker hoards on the eve of the transition: a
    // seam-straddling answer (with the epoch-1 summary streams attached)
    // and the pre-split shard's answer spanning what will become the new
    // seam.
    let old_straddle = sqs.select_range(150, 250).expect("chained");
    let old_span = sqs.select_range(250, 350).expect("chained");
    // The rebalance: split shard 1 (keys >= 200) at 300.
    let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb).expect("honest rebalance applies");

    if tamper == RebalanceTamper::TransitionBreak {
        // The attack happens at view-advance time: a spliced transition
        // whose parent hash does not extend the pinned map.
        let mut forged = rb.transition.clone();
        forged.parent_hash[0] ^= 0xFF;
        let outcome = view.advance(&forged, &pp).map(|()| VerifyReport {
            max_staleness: 0,
            records: 0,
        });
        let honest_ok = view.advance(&rb.transition, &pp).is_ok();
        return Conformance {
            tamper,
            honest_ok,
            outcome,
        };
    }

    view.advance(&rb.transition, &pp)
        .expect("honest transition");
    let now = sa.now();
    let (lo, hi, tampered) = match tamper {
        RebalanceTamper::StaleEpochReplay => (150, 250, old_straddle),
        RebalanceTamper::HandoffForgery => {
            // New fan-out for a range straddling the NEW seam (300); the
            // part for new shard 1 is replaced by the pre-split shard's
            // answer to the whole range — genuinely signed, but its chain
            // terminates at the old fences and its records spill past the
            // new seam. The forger dresses it with the new epoch's genuine
            // stream so only the seam structure can object.
            let mut ans = sqs.select_range(250, 350).expect("chained");
            assert_eq!(ans.parts[0].shard, 1);
            let mut forged_part = old_span.parts[0].answer.clone();
            forged_part.summaries = sqs.with_shard(1, |qs| qs.summaries().to_vec());
            // The forger also clamps the claimed right boundary onto the
            // new fence so the seam check cannot object; the records
            // spilling past the new seam are the remaining giveaway.
            forged_part.right_key = 300;
            ans.parts[0].answer = forged_part;
            (250, 350, ans)
        }
        RebalanceTamper::SplitBrain => {
            // Shard 0 survived the split; serve its sub-query from epoch-1
            // state (old records, old epoch-1 summary stream) while shard
            // 1 answers under epoch 2.
            let mut ans = sqs.select_range(150, 250).expect("chained");
            assert_eq!(ans.parts[0].shard, 0);
            ans.parts[0].answer = old_straddle.parts[0].answer.clone();
            (150, 250, ans)
        }
        RebalanceTamper::TransitionBreak => unreachable!("handled above"),
    };
    let outcome = v.verify_sharded_selection(lo, hi, &tampered, &view, now, true, &mut rng);
    let honest = sqs.select_range(lo, hi).expect("chained mode");
    let honest_ok = v
        .verify_sharded_selection(lo, hi, &honest, &view, now, true, &mut rng)
        .is_ok();
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run every rebalancing strategy under `scheme`, one outcome per
/// strategy. Used by the unit-test conformance suite and the
/// `fig_rebalance` bench scenario.
pub fn run_rebalance_catalog(scheme: SchemeKind) -> Vec<Conformance<RebalanceTamper>> {
    RebalanceTamper::CATALOG
        .iter()
        .map(|&t| rebalance_scenario(scheme, t))
        .collect()
}

// ---------------------------------------------------------------------------
// Checkpoint (compacted-history) strategies
// ---------------------------------------------------------------------------

/// One way a malicious server can exploit certified checkpoints. These
/// target exactly the surface compaction opens up: history the verifier
/// can no longer replay summary-by-summary (or epoch-by-epoch) and must
/// instead trust to a signed cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointTamper {
    /// Doctor the summary checkpoint's covered window — claim the cut
    /// reaches one summary further than the DA certified, stretching it
    /// over history the attacker would rather not account for.
    ForgedDigest,
    /// Vouch for a *different* genuinely-signed map with the live epoch
    /// checkpoint: a stale-map replay dressed with current certification.
    WrongEpochReplay,
    /// Withhold the retained summary that bridges the cut, leaving seqs
    /// between the checkpoint's covered window and the served run that
    /// nobody accounts for.
    GapStraddlingCut,
    /// Bootstrap a fresh client over a spliced chain: the transition in
    /// the bundle is a different (still genuinely signed) link than the
    /// one the checkpoint hash-chains to.
    ChainBreakBootstrap,
}

impl CheckpointTamper {
    /// Every checkpoint strategy, in catalog order.
    pub const CATALOG: [CheckpointTamper; 4] = [
        CheckpointTamper::ForgedDigest,
        CheckpointTamper::WrongEpochReplay,
        CheckpointTamper::GapStraddlingCut,
        CheckpointTamper::ChainBreakBootstrap,
    ];

    /// Short printable name.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointTamper::ForgedDigest => "forged-digest",
            CheckpointTamper::WrongEpochReplay => "wrong-epoch-replay",
            CheckpointTamper::GapStraddlingCut => "gap-straddling-cut",
            CheckpointTamper::ChainBreakBootstrap => "chain-break-bootstrap",
        }
    }

    /// Whether the strategy attacks the client-bootstrap bundle (the rest
    /// doctor checkpoint-anchored answers).
    pub fn targets_bootstrap(self) -> bool {
        matches!(
            self,
            CheckpointTamper::WrongEpochReplay | CheckpointTamper::ChainBreakBootstrap
        )
    }
}

impl Strategy for CheckpointTamper {
    fn expects(self, err: &VerifyError) -> bool {
        use VerifyError::*;
        match self {
            CheckpointTamper::ForgedDigest
            | CheckpointTamper::WrongEpochReplay
            | CheckpointTamper::ChainBreakBootstrap => matches!(err, BadCheckpoint),
            CheckpointTamper::GapStraddlingCut => matches!(err, CheckpointGap { .. }),
        }
    }
}

/// Run one checkpoint-anchored-answer scenario: the shared three-period
/// timeline, then the DA compacts everything but the last two summaries
/// (the cut covers seq 0; seqs 1 and 2 stay retained as the run the
/// checkpoint anchors).
fn checkpoint_answer_scenario(
    scheme: SchemeKind,
    tamper: CheckpointTamper,
) -> Conformance<CheckpointTamper> {
    let mut rng = StdRng::seed_from_u64(1337);
    let mut da = DataAggregator::new(cfg(scheme, SigningMode::Chained), &mut rng);
    let boot = da.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
    let mut qs = QueryServer::from_bootstrap(
        da.public_params(),
        da.config().schema,
        SigningMode::Chained,
        &boot,
        256,
        2.0 / 3.0,
    );
    let v = Verifier::new(da.public_params(), da.config().schema, da.config().rho);
    // Timeline: summary at t=12, an update to rid 23 (key 230) at t=14,
    // summaries at t=24 and t=34.
    da.advance_clock(12);
    let (s1, _) = da.maybe_publish_summary().expect("period 0 closes");
    qs.add_summary(s1);
    da.advance_clock(2);
    for m in da.update_record(23, vec![230, 777]) {
        qs.apply(&m);
    }
    da.advance_clock(10);
    let (s2, _) = da.maybe_publish_summary().expect("period 1 closes");
    qs.add_summary(s2);
    da.advance_clock(10);
    let (s3, _) = da.maybe_publish_summary().expect("period 2 closes");
    qs.add_summary(s3);
    let ckpt = da.checkpoint_summaries(2).expect("compactable");
    qs.apply_checkpoint(ckpt);
    let now = da.now();
    let honest = qs.select_range(100, 300).expect("chained mode");
    let honest_ok = v.verify_selection(100, 300, &honest, now, true).is_ok();
    let mut tampered = honest;
    match tamper {
        CheckpointTamper::ForgedDigest => {
            // Stretch the claimed cut one summary past what the DA signed.
            let c = tampered.checkpoint.as_mut().expect("checkpoint attached");
            c.through_seq += 1;
        }
        CheckpointTamper::GapStraddlingCut => {
            // The cut covers through seq 0; withholding retained seq 1
            // leaves it covered by nobody.
            tampered.summaries.remove(0);
        }
        _ => unreachable!("bootstrap tampers do not doctor answers"),
    }
    let outcome = v.verify_selection(100, 300, &tampered, now, true);
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run one bootstrap-bundle scenario: a 2-shard deployment (split at 200)
/// rebalances twice (split at 300, then merge — epoch 1 → 3), and a fresh
/// client pins the live epoch from the server's certified bundle. The
/// strategy doctors the bundle.
fn checkpoint_bootstrap_scenario(
    scheme: SchemeKind,
    tamper: CheckpointTamper,
) -> Conformance<CheckpointTamper> {
    let mut rng = StdRng::seed_from_u64(1337);
    let mut sa = ShardedAggregator::new(cfg(scheme, SigningMode::Chained), vec![200], &mut rng);
    let boots = sa.bootstrap((0..40).map(|i| vec![i * 10, i]).collect(), 2);
    let sqs = ShardedQueryServer::from_bootstraps(
        sa.public_params(),
        sa.config(),
        sa.map().clone(),
        &boots,
        &QsOptions::default(),
    );
    let pp = sa.public_params();
    let genesis_map = sa.map().clone();
    let rb1 = sa.rebalance(RebalancePlan::Split { shard: 1, at: 300 }, 2);
    sqs.apply_rebalance(&rb1).expect("honest rebalance applies");
    let rb2 = sa.rebalance(RebalancePlan::Merge { left: 1 }, 2);
    sqs.apply_rebalance(&rb2).expect("honest rebalance applies");
    let boot = sqs.epoch_bootstrap();
    let honest_ok = EpochView::from_bootstrap(&boot, &pp).is_ok();
    let mut tampered = boot;
    match tamper {
        CheckpointTamper::WrongEpochReplay => tampered.map = genesis_map,
        CheckpointTamper::ChainBreakBootstrap => tampered.transition = Some(rb1.transition.clone()),
        _ => unreachable!("answer tampers do not doctor bootstrap bundles"),
    }
    let outcome = EpochView::from_bootstrap(&tampered, &pp).map(|_| VerifyReport {
        max_staleness: 0,
        records: 0,
    });
    Conformance {
        tamper,
        honest_ok,
        outcome,
    }
}

/// Run every checkpoint strategy under `scheme`, one outcome per strategy.
/// Used by the unit-test conformance suite and the `fig_checkpoint` bench
/// scenario.
pub fn run_checkpoint_catalog(scheme: SchemeKind) -> Vec<Conformance<CheckpointTamper>> {
    CheckpointTamper::CATALOG
        .iter()
        .map(|&t| {
            if t.targets_bootstrap() {
                checkpoint_bootstrap_scenario(scheme, t)
            } else {
                checkpoint_answer_scenario(scheme, t)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_rejects_every_tamper_mock() {
        for c in run_catalog(SchemeKind::Mock) {
            assert!(
                c.honest_ok,
                "{}: honest answer must verify",
                c.tamper.name()
            );
            match &c.outcome {
                Ok(_) => panic!("{}: tampered answer verified", c.tamper.name()),
                Err(e) => assert!(
                    c.tamper.expects(e),
                    "{}: rejected with unexpected error {:?}",
                    c.tamper.name(),
                    e
                ),
            }
        }
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = Tamper::CATALOG.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Tamper::CATALOG.len());
    }

    #[test]
    fn spot_check_with_bas_scheme() {
        // Full crypto for a representative slice of the catalog: content
        // forgery, staleness, and summary withholding.
        for t in [
            Tamper::InjectRecord,
            Tamper::StaleVersion,
            Tamper::WithholdSummarySuffix,
            Tamper::WithholdSummaryPrefix,
        ] {
            let c = selection_scenario(SchemeKind::Bas, t);
            assert!(c.ok(), "{} under BAS: {:?}", t.name(), c.outcome.err());
        }
    }

    #[test]
    fn shard_catalog_rejects_every_tamper_mock() {
        for c in run_shard_catalog(SchemeKind::Mock) {
            assert!(
                c.honest_ok,
                "{}: honest fan-out must verify",
                c.tamper.name()
            );
            match &c.outcome {
                Ok(_) => panic!("{}: tampered fan-out verified", c.tamper.name()),
                Err(e) => assert!(
                    c.tamper.expects(e),
                    "{}: rejected with unexpected error {:?}",
                    c.tamper.name(),
                    e
                ),
            }
        }
    }

    #[test]
    fn shard_catalog_names_are_unique() {
        let mut names: Vec<&str> = ShardTamper::CATALOG.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ShardTamper::CATALOG.len());
    }

    #[test]
    fn shard_spot_check_with_bas_scheme() {
        // Full crypto for the two strategies whose rejection depends on
        // signed content (the seam fence and the freshness domain); the
        // rest are structural and scheme-independent.
        for t in [ShardTamper::SeamWiden, ShardTamper::StaleShardReplay] {
            let c = shard_scenario(SchemeKind::Bas, t);
            assert!(c.ok(), "{} under BAS: {:?}", t.name(), c.outcome.err());
        }
    }

    #[test]
    fn rebalance_catalog_rejects_every_tamper_mock() {
        for c in run_rebalance_catalog(SchemeKind::Mock) {
            assert!(
                c.honest_ok,
                "{}: honest answer/transition must be accepted",
                c.tamper.name()
            );
            match &c.outcome {
                Ok(_) => panic!("{}: tampered artifact accepted", c.tamper.name()),
                Err(e) => assert!(
                    c.tamper.expects(e),
                    "{}: rejected with unexpected error {:?}",
                    c.tamper.name(),
                    e
                ),
            }
        }
    }

    #[test]
    fn rebalance_catalog_names_are_unique() {
        let mut names: Vec<&str> = RebalanceTamper::CATALOG.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RebalanceTamper::CATALOG.len());
    }

    #[test]
    fn checkpoint_catalog_rejects_every_tamper_mock() {
        for c in run_checkpoint_catalog(SchemeKind::Mock) {
            assert!(
                c.honest_ok,
                "{}: honest answer/bundle must be accepted",
                c.tamper.name()
            );
            match &c.outcome {
                Ok(_) => panic!("{}: tampered artifact accepted", c.tamper.name()),
                Err(e) => assert!(
                    c.tamper.expects(e),
                    "{}: rejected with unexpected error {:?}",
                    c.tamper.name(),
                    e
                ),
            }
        }
    }

    #[test]
    fn checkpoint_catalog_names_are_unique() {
        let mut names: Vec<&str> = CheckpointTamper::CATALOG.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CheckpointTamper::CATALOG.len());
    }

    #[test]
    fn checkpoint_spot_check_with_bas_scheme() {
        // Full crypto for the two strategies whose rejection depends on a
        // checkpoint signature actually covering its content; the replay
        // and gap strategies are structural and scheme-independent.
        for t in [
            CheckpointTamper::ForgedDigest,
            CheckpointTamper::ChainBreakBootstrap,
        ] {
            let c = if t.targets_bootstrap() {
                checkpoint_bootstrap_scenario(SchemeKind::Bas, t)
            } else {
                checkpoint_answer_scenario(SchemeKind::Bas, t)
            };
            assert!(c.ok(), "{} under BAS: {:?}", t.name(), c.outcome.err());
        }
    }

    #[test]
    fn rebalance_spot_check_with_bas_scheme() {
        // Full crypto for the two strategies whose rejection depends on
        // signed content: the transition chain's signature and the
        // epoch-bound summary stream.
        for t in [
            RebalanceTamper::TransitionBreak,
            RebalanceTamper::SplitBrain,
        ] {
            let c = rebalance_scenario(SchemeKind::Bas, t);
            assert!(c.ok(), "{} under BAS: {:?}", t.name(), c.outcome.err());
        }
    }
}
