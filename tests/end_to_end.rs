//! Cross-crate integration: the full outsourced-database lifecycle with
//! real BAS (BLS/BN254) cryptography, side by side with the EMB− baseline.

use authdb::core::da::{DaConfig, DataAggregator, SigningMode};
use authdb::core::embsys::{EmbAggregator, EmbServer, EmbVerifier};
use authdb::core::qs::QueryServer;
use authdb::core::record::Schema;
use authdb::core::verify::Verifier;
use authdb::crypto::signer::{Keypair, SchemeKind};
use authdb::index::emb::DigestKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bas_system(n: i64, scheme: SchemeKind, seed: u64) -> (DataAggregator, QueryServer, Verifier) {
    let schema = Schema::new(3, 64);
    let cfg = DaConfig {
        schema,
        scheme,
        mode: SigningMode::Chained,
        rho: 5,
        rho_prime: 500,
        buffer_pages: 2048,
        fill: 2.0 / 3.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut da = DataAggregator::new(cfg, &mut rng);
    let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i * 2, i, 1000 + i]).collect();
    let boot = da.bootstrap(rows, 4);
    let qs = QueryServer::from_bootstrap(
        da.public_params(),
        schema,
        SigningMode::Chained,
        &boot,
        2048,
        2.0 / 3.0,
    );
    let verifier = Verifier::new(da.public_params(), schema, 5);
    (da, qs, verifier)
}

#[test]
fn lifecycle_with_real_bas() {
    let (mut da, mut qs, verifier) = bas_system(200, SchemeKind::Bas, 1);

    // Initial range query verifies.
    let ans = qs.select_range(100, 160).unwrap();
    let rep = verifier
        .verify_selection(100, 160, &ans, da.now(), true)
        .unwrap();
    assert_eq!(rep.records, 31);

    // A burst of updates, an insert and a delete, plus a summary cycle.
    da.advance_clock(2);
    for m in da.update_record(60, vec![120, 60, 9999]) {
        qs.apply(&m);
    }
    for m in da.insert(vec![121, 777, 1]) {
        qs.apply(&m);
    }
    for m in da.delete_record(70) {
        qs.apply(&m);
    }
    da.advance_clock(5);
    let (summary, recerts) = da.maybe_publish_summary().expect("period elapsed");
    qs.add_summary(summary);
    for m in recerts {
        qs.apply(&m);
    }

    // Everything still verifies; the updated value and the insert are
    // visible, the deleted record is gone.
    let ans = qs.select_range(100, 160).unwrap();
    let rep = verifier
        .verify_selection(100, 160, &ans, da.now(), true)
        .unwrap();
    assert_eq!(rep.records, 31); // 31 - deleted(140) + inserted(121)
    assert!(ans.records.iter().any(|r| r.attrs[2] == 9999));
    assert!(ans.records.iter().any(|r| r.attrs[0] == 121));
    assert!(!ans.records.iter().any(|r| r.attrs[0] == 140));
}

#[test]
fn lifecycle_with_condensed_rsa() {
    let (mut da, mut qs, verifier) = bas_system(60, SchemeKind::CondensedRsa, 2);
    let ans = qs.select_range(20, 80).unwrap();
    verifier
        .verify_selection(20, 80, &ans, da.now(), true)
        .unwrap();
    da.advance_clock(1);
    for m in da.update_record(20, vec![40, 1, 2]) {
        qs.apply(&m);
    }
    let ans2 = qs.select_range(40, 40).unwrap();
    verifier
        .verify_selection(40, 40, &ans2, da.now(), true)
        .unwrap();
    assert!(ans2.records.iter().any(|r| r.rid == 20 && r.attrs[2] == 2));
}

#[test]
fn emb_baseline_equivalent_answers() {
    // EMB- and BAS answer the same queries with the same records — only
    // the proof machinery differs.
    let (_, qs, _) = bas_system(300, SchemeKind::Mock, 3);
    let schema = Schema::new(3, 64);
    let mut rng = StdRng::seed_from_u64(3);
    let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
    let epp = kp.public_params();
    let mut eda = EmbAggregator::new(schema, DigestKind::Sha256, kp, 2048, 2.0 / 3.0);
    let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i * 2, i, 1000 + i]).collect();
    let (records, root) = eda.bootstrap(rows);
    let eserver =
        EmbServer::from_bootstrap(schema, DigestKind::Sha256, &records, root, 2048, 2.0 / 3.0);
    let everifier = EmbVerifier::new(epp, schema, DigestKind::Sha256);

    for (lo, hi) in [(0, 100), (333, 444), (598, 598), (9, 9)] {
        let bas_ans = qs.select_range(lo, hi).unwrap();
        let emb_ans = eserver.range_query(lo, hi);
        let n = everifier.verify(lo, hi, &emb_ans).expect("EMB- verifies");
        assert_eq!(bas_ans.records.len(), n, "range {lo}..{hi}");
        let bas_rids: Vec<u64> = bas_ans.records.iter().map(|r| r.rid).collect();
        let emb_rids: Vec<u64> = emb_ans.matches().iter().map(|r| r.rid).collect();
        assert_eq!(bas_rids, emb_rids);
    }
}

#[test]
fn update_stream_keeps_both_systems_consistent() {
    let schema = Schema::new(2, 64);
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = DaConfig {
        schema,
        scheme: SchemeKind::Mock,
        mode: SigningMode::Chained,
        rho: 10,
        rho_prime: 10_000,
        buffer_pages: 2048,
        fill: 2.0 / 3.0,
    };
    let mut da = DataAggregator::new(cfg, &mut rng);
    let boot = da.bootstrap((0..150).map(|i| vec![i, 0]).collect(), 2);
    let mut qs = QueryServer::from_bootstrap(
        da.public_params(),
        schema,
        SigningMode::Chained,
        &boot,
        2048,
        2.0 / 3.0,
    );
    let verifier = Verifier::new(da.public_params(), schema, 10);

    let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
    let mut eda = EmbAggregator::new(schema, DigestKind::Sha1, kp, 2048, 2.0 / 3.0);
    let epp = eda.public_params();
    let (records, root) = eda.bootstrap((0..150).map(|i| vec![i, 0]).collect());
    let mut eserver =
        EmbServer::from_bootstrap(schema, DigestKind::Sha1, &records, root, 2048, 2.0 / 3.0);
    let everifier = EmbVerifier::new(epp, schema, DigestKind::Sha1);

    for step in 0..300 {
        da.advance_clock(1);
        eda.advance_clock(1);
        let rid = rng.gen_range(0..150u64);
        if da.record(rid).is_none() {
            continue;
        }
        let val = rng.gen_range(0..100);
        let key = rng.gen_range(0..200);
        for m in da.update_record(rid, vec![key, val]) {
            qs.apply(&m);
        }
        if let Some(up) = eda.update_record(rid, vec![key, val]) {
            eserver.apply(&up);
        }
        // Publish on the DA's own ρ schedule: the verifier's 2ρ-recency
        // gate (rightly) rejects servers whose newest summary is older.
        if let Some((s, recerts)) = da.maybe_publish_summary() {
            qs.add_summary(s);
            for m in recerts {
                qs.apply(&m);
            }
        }
        if step % 37 == 0 {
            let (lo, hi) = {
                let a = rng.gen_range(0..200i64);
                (a, (a + rng.gen_range(0..40)).min(199))
            };
            let ans = qs.select_range(lo, hi).unwrap();
            verifier
                .verify_selection(lo, hi, &ans, da.now(), true)
                .unwrap_or_else(|e| panic!("BAS verify failed at step {step}: {e:?}"));
            let emb_ans = eserver.range_query(lo, hi);
            let n = everifier
                .verify(lo, hi, &emb_ans)
                .unwrap_or_else(|e| panic!("EMB verify failed at step {step}: {e:?}"));
            assert_eq!(ans.records.len(), n, "step {step} range {lo}..{hi}");
        }
    }
}

#[test]
fn projection_end_to_end() {
    let schema = Schema::new(4, 96);
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = DaConfig {
        schema,
        scheme: SchemeKind::Bas,
        mode: SigningMode::PerAttribute,
        rho: 5,
        rho_prime: 500,
        buffer_pages: 1024,
        fill: 2.0 / 3.0,
    };
    let mut da = DataAggregator::new(cfg, &mut rng);
    let boot = da.bootstrap((0..40).map(|i| vec![i, i * 10, i * 100, -i]).collect(), 4);
    let qs = QueryServer::from_bootstrap(
        da.public_params(),
        schema,
        SigningMode::PerAttribute,
        &boot,
        1024,
        2.0 / 3.0,
    );
    let verifier = Verifier::new(da.public_params(), schema, 5);
    // Project two non-contiguous attributes: VO is still one signature.
    let ans = qs.project(5, 25, &[1, 3]).unwrap();
    assert_eq!(ans.rows.len(), 21);
    let narrow = qs.project(5, 10, &[1]).unwrap();
    assert_eq!(
        ans.vo_size(&da.public_params()),
        narrow.vo_size(&da.public_params())
    );
    verifier
        .verify_projection(&ans, da.now(), true)
        .expect("projection verifies");
}
