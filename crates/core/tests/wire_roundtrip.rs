//! Property tests: **the wire codec is canonical and total**.
//!
//! Over the same random insert/update/delete/clock workloads the
//! honest-conformance suite drives (duplicate keys, emptying tables,
//! key moves, extreme ranges), every wire type must satisfy
//! `decode(encode(x)) == x` with bit-identical re-encoding — the property
//! the signatures' message-binding rests on — and decoding arbitrary
//! mutated bytes must return a typed error, never panic.

use proptest::prelude::*;

use authdb_core::da::{DaConfig, DataAggregator, SigningMode, UpdateMsg};
use authdb_core::qs::QueryServer;
use authdb_core::record::{Record, Schema};
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use authdb_core::verify::{Verifier, VerifyError};
use authdb_core::wire::{Request, Response};
use authdb_crypto::signer::SchemeKind;
use authdb_wire::{decode_frame, frame, WireDecode, WireEncode, DEFAULT_MAX_FRAME_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RHO: u64 = 10;

fn cfg(mode: SigningMode) -> DaConfig {
    DaConfig {
        schema: Schema::new(2, 64),
        scheme: SchemeKind::Mock,
        mode,
        rho: RHO,
        rho_prime: 10_000,
        buffer_pages: 256,
        fill: 2.0 / 3.0,
    }
}

/// One scripted workload operation, decoded from a proptest tuple (same
/// generator shape as `honest_conformance`).
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert { key: i64, val: i64 },
    Update { target: u64, key: i64, val: i64 },
    Delete { target: u64 },
    Advance { dt: u64 },
}

fn decode_ops(raw: &[(u8, i64, i64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(op, a, b)| match op % 4 {
            0 => Op::Insert { key: a, val: b },
            1 => Op::Update {
                target: a.unsigned_abs(),
                key: b,
                val: a,
            },
            2 => Op::Delete {
                target: a.unsigned_abs(),
            },
            _ => Op::Advance {
                dt: (a.unsigned_abs() % 4) + 1,
            },
        })
        .collect()
}

/// The canonicality contract every wire value must satisfy.
fn assert_canonical<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(x: &T) {
    let enc = x.encode();
    // An over-estimated bound would make honest sequences of T fail with
    // LengthOverflow.
    assert!(
        enc.len() >= T::MIN_WIRE_LEN,
        "MIN_WIRE_LEN is a lower bound"
    );
    let dec = T::decode(&enc).expect("canonical bytes decode");
    assert_eq!(&dec, x, "decode . encode = id");
    assert_eq!(dec.encode(), enc, "re-encoding is bit-identical");
    // The framed form round-trips too (header + version byte).
    let f = frame(x);
    assert_eq!(&decode_frame::<T>(&f, DEFAULT_MAX_FRAME_LEN).unwrap(), x);
}

/// Run a workload, round-tripping every update message and summary as it
/// flows DA → QS, and return the system for answer-level checks.
fn run_workload(
    mode: SigningMode,
    n0: usize,
    key_span: i64,
    ops: &[Op],
) -> (DataAggregator, QueryServer) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut da = DataAggregator::new(cfg(mode), &mut rng);
    let modulus = (key_span / 2).max(1);
    let rows: Vec<Vec<i64>> = (0..n0 as i64).map(|i| vec![i % modulus, i]).collect();
    let boot = da.bootstrap(rows, 2);
    let mut qs = QueryServer::from_bootstrap(
        da.public_params(),
        da.config().schema,
        mode,
        &boot,
        256,
        2.0 / 3.0,
    );
    let apply_all = |qs: &mut QueryServer, msgs: Vec<UpdateMsg>| {
        for m in msgs {
            assert_canonical(&m);
            qs.apply(&m);
        }
    };
    for &op in ops {
        match op {
            Op::Insert { key, val } => {
                let msgs = da.insert(vec![key % key_span, val]);
                apply_all(&mut qs, msgs);
            }
            Op::Update { target, key, val } => {
                let slots = da.record_slots();
                if slots > 0 {
                    let msgs = da.update_record(target % slots, vec![key % key_span, val]);
                    apply_all(&mut qs, msgs);
                }
            }
            Op::Delete { target } => {
                let slots = da.record_slots();
                if slots > 0 {
                    let msgs = da.delete_record(target % slots);
                    apply_all(&mut qs, msgs);
                }
            }
            Op::Advance { dt } => da.advance_clock(dt),
        }
        if let Some((s, recerts)) = da.maybe_publish_summary() {
            assert_canonical(&s);
            qs.add_summary(s);
            apply_all(&mut qs, recerts);
        }
    }
    (da, qs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selection_answers_round_trip_canonically(
        n0 in 0usize..30,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..30),
        queries in prop::collection::vec((-50i64..50, -5i64..30), 1..6),
    ) {
        let ops = decode_ops(&raw_ops);
        let (_da, qs) = run_workload(SigningMode::Chained, n0, key_span, &ops);
        // Random ranges (negative widths give inverted queries) plus the
        // extremes, so every answer shape appears: records, gap proofs,
        // vacancy proofs, inverted-empty.
        let mut ranges: Vec<(i64, i64)> = queries.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        ranges.push((i64::MIN + 1, i64::MAX - 1));
        ranges.push((key_span + 1, i64::MAX - 1));
        for (lo, hi) in ranges {
            let ans = qs.select_range(lo, hi).unwrap();
            assert_canonical(&ans);
            // The full response frame a networked server would ship.
            assert_canonical(&Response::Selection(
                authdb_core::shard::ShardedSelectionAnswer {
                    map: authdb_core::shard::ShardMap::create(
                        &authdb_crypto::signer::Keypair::generate(
                            SchemeKind::Mock,
                            &mut StdRng::seed_from_u64(1),
                        ),
                        vec![],
                    ),
                    parts: vec![authdb_core::shard::ShardAnswer { shard: 0, answer: ans }],
                },
            ));
        }
    }

    #[test]
    fn projection_answers_round_trip_canonically(
        n0 in 0usize..25,
        key_span in 4i64..40,
        raw_ops in prop::collection::vec((any::<u8>(), any::<i64>(), any::<i64>()), 0..20),
        queries in prop::collection::vec((-50i64..50, 0i64..30, 0u8..3), 1..5),
    ) {
        let ops = decode_ops(&raw_ops);
        let (_da, qs) = run_workload(SigningMode::PerAttribute, n0, key_span, &ops);
        for &(lo, w, attr_sel) in &queries {
            let attrs: &[usize] = match attr_sel % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            let ans = qs.project(lo, lo + w, attrs).unwrap();
            assert_canonical(&ans);
            assert_canonical(&Response::Projection(ans));
        }
    }

    #[test]
    fn sharded_answers_round_trip_canonically(
        n0 in 1usize..30,
        raw_splits in prop::collection::vec(1i64..40, 0..7),
        queries in prop::collection::vec((-50i64..50, -5i64..40), 1..5),
    ) {
        let mut splits = raw_splits;
        splits.sort_unstable();
        splits.dedup();
        let mut rng = StdRng::seed_from_u64(11);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), splits, &mut rng);
        let boots = sa.bootstrap((0..n0 as i64).map(|i| vec![i % 37, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &authdb_core::qs::QsOptions::default(),
        );
        assert_canonical(sa.map());
        for &(lo, w) in &queries {
            let ans = sqs.select_range(lo, lo + w).unwrap();
            assert_canonical(&ans);
            assert_canonical(&Response::Selection(ans));
            // The per-shard fan-out protocol: every overlapping shard's
            // tile request and answer round-trips too.
            for (shard, (sub_lo, sub_hi)) in sa.map().overlapping(lo, lo + w) {
                assert_canonical(&Request::SelectShard {
                    shard: shard as u32,
                    lo: sub_lo,
                    hi: sub_hi,
                });
                let tile = sqs.select_shard(shard, sub_lo, sub_hi).unwrap();
                assert_canonical(&Response::ShardSelection(Box::new(tile)));
            }
        }
        // A tile request for a shard this deployment does not have is a
        // typed refusal, and the refusal itself is canonical on the wire.
        let beyond = sa.map().shard_count() as u64 + 3;
        match sqs.select_shard(beyond as usize, 0, 10) {
            Err(authdb_core::qs::QueryError::UnknownShard { shard }) => {
                assert_eq!(shard, beyond);
                assert_canonical(&Response::Refused(
                    authdb_core::qs::QueryError::UnknownShard { shard },
                ));
            }
            other => panic!("expected UnknownShard refusal, got {other:?}"),
        }
    }

    #[test]
    fn rebalance_frames_round_trip_canonically(
        n0 in 1usize..30,
        schedule in prop::collection::vec((any::<u64>(), 1i64..37), 1..5),
    ) {
        // A random split/merge chain: every Rebalance package and
        // EpochTransition it produces must round-trip canonically, bare
        // and framed, as must the protocol messages that carry them.
        let mut rng = StdRng::seed_from_u64(15);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), vec![], &mut rng);
        let boots = sa.bootstrap((0..n0 as i64).map(|i| vec![i % 37, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &authdb_core::qs::QsOptions::default(),
        );
        for &(sel, at_raw) in &schedule {
            let splits = sa.map().splits().to_vec();
            let plan = if sel % 2 == 1 && !splits.is_empty() {
                authdb_core::shard::RebalancePlan::Merge {
                    left: (sel as usize / 2) % splits.len(),
                }
            } else {
                // Split the shard owning `at_raw` (keys live in 0..37, so
                // at_raw in 1..37 is a valid new split unless taken).
                if splits.contains(&at_raw) {
                    continue;
                }
                authdb_core::shard::RebalancePlan::Split {
                    shard: sa.map().shard_of(at_raw),
                    at: at_raw,
                }
            };
            let rb = sa.rebalance(plan, 2);
            assert_canonical(&rb.transition);
            assert_canonical(&rb.plan);
            assert_canonical(&rb);
            assert_canonical(&Request::Rebalance(Box::new(rb.clone())));
            sqs.apply_rebalance(&rb).expect("honest package applies");
            assert_canonical(&Response::Epoch {
                map: sqs.map().clone(),
                transitions: sqs.transitions().to_vec(),
            });
            // Post-transition answers (epoch-tagged summaries, handoff
            // baselines, possibly vacancies) stay canonical too.
            let ans = sqs.select_range(0, 40).unwrap();
            assert_canonical(&ans);
        }
    }

    #[test]
    fn mutated_rebalance_frames_never_panic(
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        truncate_to in any::<u16>(),
    ) {
        let mut rng = StdRng::seed_from_u64(16);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), vec![10], &mut rng);
        sa.bootstrap((0..20i64).map(|i| vec![i, i]).collect(), 2);
        sa.advance_clock(1);
        let rb = sa.rebalance(
            authdb_core::shard::RebalancePlan::Split { shard: 1, at: 15 },
            2,
        );
        let mut bytes = frame(&Request::Rebalance(Box::new(rb)));
        for &(pos, val) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= val;
        }
        let keep = (truncate_to as usize) % (bytes.len() + 1);
        bytes.truncate(keep);
        let _ = decode_frame::<Request>(&bytes, DEFAULT_MAX_FRAME_LEN);
        let _ = Request::decode(&bytes);
        // If the mutated package still decodes, applying it must refuse
        // or succeed — never panic or corrupt the server into panicking.
        if let Ok(Request::Rebalance(mutated)) = decode_frame::<Request>(&bytes, DEFAULT_MAX_FRAME_LEN) {
            let boots_rng = &mut StdRng::seed_from_u64(16);
            let mut sa2 = ShardedAggregator::new(cfg(SigningMode::Chained), vec![10], boots_rng);
            let boots = sa2.bootstrap((0..20i64).map(|i| vec![i, i]).collect(), 2);
            let sqs = ShardedQueryServer::from_bootstraps(
                sa2.public_params(),
                sa2.config(),
                sa2.map().clone(),
                &boots,
                &authdb_core::qs::QsOptions::default(),
            );
            let _ = sqs.apply_rebalance(&mutated);
            let _ = sqs.select_range(0, 40).unwrap();
        }
    }

    #[test]
    fn decoding_mutated_bytes_never_panics(
        seed_query in (-50i64..50, 0i64..30),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        truncate_to in any::<u16>(),
    ) {
        // Start from honest response bytes, then corrupt them arbitrarily:
        // every outcome must be Ok or a typed WireError — no panics, no
        // unbounded allocation.
        let mut rng = StdRng::seed_from_u64(13);
        let mut sa = ShardedAggregator::new(cfg(SigningMode::Chained), vec![10], &mut rng);
        let boots = sa.bootstrap((0..20i64).map(|i| vec![i, i]).collect(), 2);
        let sqs = ShardedQueryServer::from_bootstraps(
            sa.public_params(),
            sa.config(),
            sa.map().clone(),
            &boots,
            &authdb_core::qs::QsOptions::default(),
        );
        let (lo, w) = seed_query;
        let ans = sqs.select_range(lo, lo + w).unwrap();
        let mut bytes = frame(&Response::Selection(ans));
        for &(pos, val) in &flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= val;
        }
        let keep = (truncate_to as usize) % (bytes.len() + 1);
        bytes.truncate(keep);
        let _ = decode_frame::<Response>(&bytes, DEFAULT_MAX_FRAME_LEN);
        let _ = Response::decode(&bytes);
        let _ = Request::decode(&bytes);
    }
}

#[test]
fn malformed_record_shapes_are_typed_errors_not_panics() {
    // The codec is schema-agnostic, so a malicious peer can ship records
    // whose arity disagrees with the schema; the verifier must reject them
    // with MalformedRecord before any schema-indexed access.
    let mut rng = StdRng::seed_from_u64(3);
    let mut da = DataAggregator::new(cfg(SigningMode::Chained), &mut rng);
    let boot = da.bootstrap((0..10i64).map(|i| vec![i * 10, i]).collect(), 2);
    let qs = QueryServer::from_bootstrap(
        da.public_params(),
        da.config().schema,
        SigningMode::Chained,
        &boot,
        256,
        2.0 / 3.0,
    );
    let v = Verifier::new(da.public_params(), da.config().schema, RHO);

    // A returned record with too few attributes.
    let mut ans = qs.select_range(20, 60).unwrap();
    ans.records[1] = Record {
        rid: ans.records[1].rid,
        attrs: vec![30],
        ts: ans.records[1].ts,
    };
    assert_eq!(
        v.verify_selection(20, 60, &ans, 0, true),
        Err(VerifyError::MalformedRecord {
            rid: ans.records[1].rid
        })
    );

    // A gap proof whose bracketing record has the wrong arity.
    let mut gap_ans = qs.select_range(21, 29).unwrap();
    let g = gap_ans.gap.as_mut().unwrap();
    g.record.attrs = vec![20, 2, 99];
    let rid = g.record.rid;
    assert_eq!(
        v.verify_selection(21, 29, &gap_ans, 0, true),
        Err(VerifyError::MalformedRecord { rid })
    );

    // A projected row naming an attribute index past the schema.
    let mut rng = StdRng::seed_from_u64(4);
    let mut da = DataAggregator::new(cfg(SigningMode::PerAttribute), &mut rng);
    let boot = da.bootstrap((0..10i64).map(|i| vec![i * 10, i]).collect(), 2);
    let qs = QueryServer::from_bootstrap(
        da.public_params(),
        da.config().schema,
        SigningMode::PerAttribute,
        &boot,
        256,
        2.0 / 3.0,
    );
    let v = Verifier::new(da.public_params(), da.config().schema, RHO);
    let mut proj = qs.project(0, 50, &[1]).unwrap();
    proj.rows[0].values[0].0 = usize::MAX;
    assert_eq!(
        v.verify_projection(&proj, 0, true),
        Err(VerifyError::MalformedRecord {
            rid: proj.rows[0].rid
        })
    );
}
