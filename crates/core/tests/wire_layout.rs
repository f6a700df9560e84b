//! Layout guards: **the byte form of every wire type is pinned**.
//!
//! The round-trip suites prove the codec is canonical, but a codec that
//! changed its layout consistently on both sides would still round-trip.
//! These tests pin what must not move without a `FORMAT_VERSION` bump:
//!
//! * the exact encoding (length and SHA-256) of one seeded Mock value of
//!   every struct type, plus the hand-written types they nest;
//! * every type's `MIN_WIRE_LEN`, the lower bound collection decoders use
//!   to cap pre-allocation;
//! * `vo_size`: the verification-object bytes an answer puts on the wire,
//!   i.e. its encoding minus the records, attached summaries and summary
//!   checkpoint it carries.

use authdb_core::da::{DaConfig, DataAggregator, SigningMode, UpdateMsg};
use authdb_core::freshness::{EmptyTableProof, SummaryCheckpoint, UpdateSummary};
use authdb_core::qs::{
    GapProof, ProjectedRow, ProjectionAnswer, QsOptions, QsStats, QueryServer, SelectionAnswer,
};
use authdb_core::record::{Record, Schema};
use authdb_core::shard::{
    EpochBootstrap, EpochCheckpoint, EpochTransition, Rebalance, RebalancePlan, ShardAnswer,
    ShardHandoff, ShardMap, ShardRebind, ShardedAggregator, ShardedQueryServer,
    ShardedSelectionAnswer,
};
use authdb_crypto::sha256::sha256;
use authdb_crypto::signer::{SchemeKind, Signature};
use authdb_wire::{WireDecode, WireEncode, WireError};
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(type, encoded length, SHA-256 of the encoding)`.
fn pin<T: WireEncode>(name: &'static str, x: &T) -> (&'static str, usize, String) {
    let enc = x.encode();
    (name, enc.len(), hex(&sha256(&enc)))
}

fn single_shard(
    scheme: SchemeKind,
    mode: SigningMode,
    seed: u64,
    rows: usize,
) -> (DataAggregator, QueryServer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut da = DataAggregator::new(cfg(scheme, mode), &mut rng);
    let boot = da.bootstrap((0..rows as i64).map(|i| vec![i * 10, i]).collect(), 2);
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

/// One deterministic Mock value of every struct type the codec covers.
fn samples() -> Vec<(&'static str, usize, String)> {
    let mut out = Vec::new();

    // Single shard: updates, summaries, a compacted log, every answer shape.
    let (mut da, mut qs) = single_shard(SchemeKind::Mock, SigningMode::Chained, 41, 12);
    da.advance_clock(1);
    let mut msgs: Vec<UpdateMsg> = da.insert(vec![35, 9]);
    msgs.extend(da.update_record(2, vec![125, 0]));
    msgs.extend(da.delete_record(0));
    for m in &msgs {
        qs.apply(m);
    }
    for _ in 0..3 {
        da.advance_clock(10);
        let (s, recerts) = da.maybe_publish_summary().expect("period elapsed");
        qs.add_summary(s);
        for m in &recerts {
            qs.apply(m);
        }
    }
    let ckpt: SummaryCheckpoint = da.checkpoint_summaries(1).expect("prefix to compact");
    assert!(!ckpt.exposure.is_empty());
    qs.apply_checkpoint(ckpt.clone());
    let summary: UpdateSummary = UpdateSummary::clone(da.summary_log().last().expect("published"));
    let full: SelectionAnswer = qs.select_range(0, 1000).unwrap();
    assert!(full.checkpoint.is_some() && !full.summaries.is_empty());
    let gap_ans: SelectionAnswer = qs.select_range(21, 29).unwrap();
    let gap: GapProof = gap_ans.gap.clone().expect("empty range has a gap proof");
    let record: Record = full.records[0].clone();
    out.push(pin("Record", &record));
    out.push(pin("GapProof", &gap));
    out.push(pin("UpdateSummary", &summary));
    out.push(pin("SummaryCheckpoint", &ckpt));
    out.push(pin("SelectionAnswer", &full));
    out.push(pin("SelectionAnswer/gap", &gap_ans));
    out.push(pin(
        "SelectionAnswer/inverted",
        &qs.select_range(70, 20).unwrap(),
    ));
    out.push(pin("UpdateMsg", &msgs[0]));
    out.push(pin("UpdateMsg/key-move", &msgs[1]));

    // An emptied table: the vacancy proof and the deletes that carry it.
    let (mut da, mut qs) = single_shard(SchemeKind::Mock, SigningMode::Chained, 42, 2);
    da.advance_clock(1);
    let mut last = Vec::new();
    for rid in 0..2 {
        last = da.delete_record(rid);
        for m in &last {
            qs.apply(m);
        }
    }
    let vac_ans = qs.select_range(0, 100).unwrap();
    let vacancy: EmptyTableProof = vac_ans.vacancy.clone().expect("empty table");
    out.push(pin("EmptyTableProof", &vacancy));
    out.push(pin("SelectionAnswer/vacancy", &vac_ans));
    out.push(pin("UpdateMsg/vacancy", last.last().expect("a delete")));

    // Projection.
    let (mut da, qs) = single_shard(SchemeKind::Mock, SigningMode::PerAttribute, 43, 10);
    let proj: ProjectionAnswer = qs.project(0, 40, &[0, 1]).unwrap();
    let row: ProjectedRow = proj.rows[0].clone();
    out.push(pin("ProjectedRow", &row));
    out.push(pin("ProjectionAnswer", &proj));
    da.advance_clock(1);
    out.push(pin("UpdateMsg/per-attribute", &da.insert(vec![7, 7])[0]));

    // Sharding and rebalancing.
    let mut rng = StdRng::seed_from_u64(44);
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
    let sharded: ShardedSelectionAnswer = sqs.select_range(50, 150).unwrap();
    let part: ShardAnswer = sharded.parts[1].clone();
    let map: ShardMap = sa.map().clone();
    out.push(pin("ShardMap", &map));
    out.push(pin("ShardAnswer", &part));
    out.push(pin("ShardedSelectionAnswer", &sharded));
    // Give the surviving shard a retained log and a checkpoint to re-bind.
    for _ in 0..3 {
        sa.advance_clock(10);
        sa.maybe_publish_summaries();
    }
    sa.checkpoint_shard_summaries(0, 1)
        .expect("prefix to compact");
    let rb: Rebalance = sa.rebalance(RebalancePlan::Split { shard: 1, at: 150 }, 2);
    let transition: EpochTransition = rb.transition.clone();
    let epoch_ckpt: EpochCheckpoint = rb.checkpoint.clone();
    let handoff: ShardHandoff = rb.handoffs[0].clone();
    let rebind: ShardRebind = rb.rebound[0].clone();
    let boot = EpochBootstrap {
        map: rb.new_map.clone(),
        transition: Some(transition.clone()),
        checkpoint: Some(epoch_ckpt.clone()),
    };
    out.push(pin("RebalancePlan", &rb.plan));
    out.push(pin("EpochTransition", &transition));
    out.push(pin("EpochCheckpoint", &epoch_ckpt));
    out.push(pin("EpochBootstrap", &boot));
    out.push(pin("ShardHandoff", &handoff));
    out.push(pin("ShardRebind", &rebind));
    out.push(pin("Rebalance", &rb));

    let stats = QsStats {
        agg_ops: 1,
        queries: 2,
        updates: 3,
        cache_hits: 4,
        cache_misses: 5,
        node_cache_hits: 6,
        node_cache_misses: 7,
        node_cache_evictions: 8,
    };
    out.push(pin("QsStats", &stats));
    out
}

/// `type length sha256` per sample, captured from the hand-written codecs
/// the declaration-driven codec replaced; any drift is a wire-format change.
const PINNED: &str = "
Record                      36 47fd22dfe2e202716235bb3321f6deae03ba3e1e0fdbd7a4c4a915aedf8cf693
GapProof                    85 c7437d5be87e8bd9affc524b3f35df7bdd054b0adcad8c8d9c5b0d68ba507354
UpdateSummary               79 1dba48b0bad03da32c66243f1d6baab6f872260a21c99393a5143416108adc69
SummaryCheckpoint          173 9d873a336443537659bf75b1b0a684f1c429a059774626072817a22e78474a6a
SelectionAnswer            744 8c1f24e775d6f038d6d76271f0d96a80c0711b96574a37350245688798e3ebe0
SelectionAnswer/gap        397 b6055de55104b1e6be856024b16fffe0638da02c343effcc615a7d7c4e79babb
SelectionAnswer/inverted    60 d1fde2aa8d5251e6cc00ab10f0431ee7e550f628df9be04be0c8e67afb369e8a
UpdateMsg                   76 3ec8ef8419837594374881edd506d77d1b0a57626d9c66ece29caa2d23d8ea97
UpdateMsg/key-move          76 ff4e7ee4cedfa2a9eb51d47b81a577166577113dbe00e32820ce5a017cf13a61
EmptyTableProof             57 40a498256cc0a6d2477e50eebe64135822840203296b45f8854db4d945dc695f
SelectionAnswer/vacancy    117 134e12f390ca2e4a486330b6900452549c13f9cb768ab9616dc7f3993eda0ef1
UpdateMsg/vacancy          133 fb4145e31167fbc84442db27d753f6109665f61a71be398a58bbde8bcf41619c
ProjectedRow                44 abf0027f3532979f9e8c42797acd3e70fe829e8401376fbbec2fdcd368fb8e45
ProjectionAnswer           261 2339b7c78ec52a041b7e146a6d80fa922a03ed20e8351693e7343fbf335e3cf7
UpdateMsg/per-attribute    142 3143c006013d86737210bb3d54bc6f3c51d08bdc02196b3dbac496185764058b
ShardMap                    53 af760fb2f606fc417a9e000485b02ccb0058aff8898c93a005a23825439f6a16
ShardAnswer                284 de23c61d2f4c33846001bffaf0d654a160430d73de389802a54f99d70259f1bf
ShardedSelectionAnswer     589 4b130b37a7fd7c5e256c4f71edd976ec8c38e496d6a70fc4ff51fa01deb043ba
RebalancePlan               17 47d106744abf08c1549fa8b54e9d46cec2dae35a088dafb3da215aa59cc96e04
EpochTransition            113 732bb1b968e7044159384ee990c28148574d02c42b686479eebcff48e2ff7ee8
EpochCheckpoint            113 bf6593c944e704fc60a2a85c0a764848b93eec70e77fe68bd1f96682a40b55ae
EpochBootstrap             289 04b51e8d19366dbcbce82b70026c095c3209d1e7d04e5accc17dcd44b7493920
ShardHandoff               443 082db6990c38395b9922fb2032b6553506d3601ac12220f42a454de916894cb6
ShardRebind                242 a2ab3570a4921e0784b8c081961409b7641956d786ea8bc90fd5f20643b758d4
Rebalance                 1440 929d564993f3b83f591004bec6a2fffc0aeee898dab9094b874e2b6c69e0ed78
QsStats                     64 96bf8c4d81628b00f80b9e0a9f6c60071bde78ce301193f3bd37be2f8650b8aa
";

#[test]
fn every_struct_encoding_is_pinned() {
    let want: Vec<(&str, usize, String)> = PINNED
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0], f[1].parse().unwrap(), f[2].to_string())
        })
        .collect();
    assert_eq!(samples(), want);
}

#[test]
fn min_wire_lens_are_pinned() {
    let got = [
        ("Record", Record::MIN_WIRE_LEN),
        ("GapProof", GapProof::MIN_WIRE_LEN),
        ("EmptyTableProof", EmptyTableProof::MIN_WIRE_LEN),
        ("UpdateSummary", UpdateSummary::MIN_WIRE_LEN),
        ("SummaryCheckpoint", SummaryCheckpoint::MIN_WIRE_LEN),
        ("SelectionAnswer", SelectionAnswer::MIN_WIRE_LEN),
        ("ProjectedRow", ProjectedRow::MIN_WIRE_LEN),
        ("ProjectionAnswer", ProjectionAnswer::MIN_WIRE_LEN),
        ("UpdateMsg", UpdateMsg::MIN_WIRE_LEN),
        ("ShardMap", ShardMap::MIN_WIRE_LEN),
        ("EpochTransition", EpochTransition::MIN_WIRE_LEN),
        ("EpochCheckpoint", EpochCheckpoint::MIN_WIRE_LEN),
        ("EpochBootstrap", EpochBootstrap::MIN_WIRE_LEN),
        ("RebalancePlan", RebalancePlan::MIN_WIRE_LEN),
        ("ShardHandoff", ShardHandoff::MIN_WIRE_LEN),
        ("ShardRebind", ShardRebind::MIN_WIRE_LEN),
        ("Rebalance", Rebalance::MIN_WIRE_LEN),
        ("ShardAnswer", ShardAnswer::MIN_WIRE_LEN),
        (
            "ShardedSelectionAnswer",
            ShardedSelectionAnswer::MIN_WIRE_LEN,
        ),
        ("QsStats", QsStats::MIN_WIRE_LEN),
        ("Signature", Signature::MIN_WIRE_LEN),
    ];
    let want = [
        ("Record", 20),
        ("GapProof", 41),
        ("EmptyTableProof", 29),
        ("UpdateSummary", 49),
        ("SummaryCheckpoint", 41),
        ("SelectionAnswer", 32),
        ("ProjectedRow", 20),
        ("ProjectionAnswer", 13),
        ("UpdateMsg", 32),
        ("ShardMap", 17),
        ("EpochTransition", 85),
        ("EpochCheckpoint", 85),
        ("EpochBootstrap", 19),
        ("RebalancePlan", 9),
        ("ShardHandoff", 66),
        ("ShardRebind", 14),
        ("Rebalance", 204),
        ("ShardAnswer", 40),
        ("ShardedSelectionAnswer", 21),
        ("QsStats", 64),
        ("Signature", 5),
    ];
    assert_eq!(got, want);
}

#[test]
fn adapter_fields_keep_their_typed_errors() {
    // The summary bitmap travels as a length-prefixed byte string whose
    // forged length is reported under its own name.
    let (mut da, _) = single_shard(SchemeKind::Mock, SigningMode::Chained, 45, 4);
    da.advance_clock(10);
    let (s, _) = da.maybe_publish_summary().expect("period elapsed");
    let mut enc = s.encode();
    enc[40..44].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        UpdateSummary::decode(&enc),
        Err(WireError::LengthOverflow {
            what: "summary bitmap",
            declared: u32::MAX as usize,
        })
    );
}

/// Bytes of `a` that are neither records, attached summaries nor the
/// summary checkpoint.
fn non_payload(a: &SelectionAnswer) -> usize {
    let payload = a.records.iter().map(|r| r.encode().len()).sum::<usize>()
        + a.summaries.iter().map(|s| s.encode().len()).sum::<usize>()
        + a.checkpoint.as_ref().map_or(0, |c| c.encode().len());
    a.encode().len() - payload
}

#[test]
fn vo_size_is_the_non_payload_wire_bytes() {
    let (mut da, mut qs) = single_shard(SchemeKind::Bas, SigningMode::Chained, 46, 12);
    let pp = da.public_params();
    for _ in 0..3 {
        da.advance_clock(10);
        let (s, recerts) = da.maybe_publish_summary().expect("period elapsed");
        qs.add_summary(s);
        for m in &recerts {
            qs.apply(m);
        }
    }
    qs.apply_checkpoint(da.checkpoint_summaries(1).expect("prefix to compact"));
    let nonempty = qs.select_range(20, 70).unwrap();
    let gap = qs.select_range(21, 29).unwrap();
    let inverted = qs.select_range(70, 20).unwrap();
    assert!(!nonempty.records.is_empty() && nonempty.checkpoint.is_some());
    assert!(gap.gap.is_some());
    // Record count, BAS aggregate (tag + 33 B point), two boundary keys,
    // gap and vacancy absence bytes, summary count, checkpoint presence.
    assert_eq!(nonempty.vo_size(&pp), 4 + 34 + 16 + 1 + 1 + 4 + 1);
    for a in [&nonempty, &gap, &inverted] {
        assert_eq!(a.vo_size(&pp), non_payload(a));
    }

    let (_, qs) = single_shard(SchemeKind::Bas, SigningMode::Chained, 47, 0);
    let vacancy = qs.select_range(0, 100).unwrap();
    assert!(vacancy.vacancy.is_some());
    assert_eq!(vacancy.vo_size(&pp), non_payload(&vacancy));

    let mut rng = StdRng::seed_from_u64(48);
    let mut sa = ShardedAggregator::new(
        cfg(SchemeKind::Bas, SigningMode::Chained),
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
    let sharded = sqs.select_range(50, 150).unwrap();
    assert_eq!(sharded.parts.len(), 2);
    let parts_payload: usize = sharded
        .parts
        .iter()
        .map(|p| p.answer.encode().len() - non_payload(&p.answer))
        .sum();
    assert_eq!(
        sharded.vo_size(&sa.public_params()),
        sharded.encode().len() - parts_payload
    );
}
