//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;

use authdb::core::da::{DaConfig, DataAggregator, SigningMode};
use authdb::core::qs::QueryServer;
use authdb::core::record::Schema;
use authdb::core::sigcache::{distributions, select_cache, SigTreeAnalysis};
use authdb::core::verify::Verifier;
use authdb::crypto::bigint::BigUint;
use authdb::crypto::signer::SchemeKind;
use authdb::filters::bitmap::{compress, decompress, Bitmap};
use authdb::filters::bloom::BloomFilter;
use authdb::index::btree::{BTree, LeafEntry, NoAnnotation, TreeConfig};
use authdb::storage::{BufferPool, Disk};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bigint_add_mul_roundtrips(a in any::<u128>(), b in any::<u128>()) {
        let ba = BigUint::from_u128(a);
        let bb = BigUint::from_u128(b);
        // a + b - b == a
        prop_assert_eq!(ba.add(&bb).sub(&bb), ba.clone());
        // (a * b) / b == a with remainder 0 (b != 0)
        if b != 0 {
            let (q, r) = ba.mul(&bb).divrem(&bb);
            prop_assert_eq!(q, ba.clone());
            prop_assert!(r.is_zero());
        }
        // hex/dec round trips
        prop_assert_eq!(BigUint::from_hex(&ba.to_hex()).unwrap(), ba.clone());
        prop_assert_eq!(BigUint::from_dec(&ba.to_dec()).unwrap(), ba);
    }

    #[test]
    fn bigint_divrem_invariant(a_hi in any::<u64>(), a_lo in any::<u64>(), b in 1u64..) {
        let a = BigUint::from_u128(((a_hi as u128) << 64) | a_lo as u128);
        let bb = BigUint::from_u64(b);
        let (q, r) = a.divrem(&bb);
        prop_assert_eq!(q.mul(&bb).add(&r), a);
        prop_assert!(r.cmp_to(&bb) == std::cmp::Ordering::Less);
    }

    #[test]
    fn bitmap_compress_roundtrip(ones in prop::collection::btree_set(0usize..50_000, 0..200), len in 50_000usize..60_000) {
        let mut b = Bitmap::new(len);
        for &i in &ones {
            b.set(i);
        }
        let c = compress(&b);
        prop_assert_eq!(decompress(&c).unwrap(), b);
    }

    #[test]
    fn bloom_never_false_negative(keys in prop::collection::btree_set(any::<u64>(), 1..200)) {
        let mut f = BloomFilter::with_bits_per_key(keys.len(), 8.0);
        for k in &keys {
            f.insert(&k.to_be_bytes());
        }
        for k in &keys {
            prop_assert!(f.contains(&k.to_be_bytes()));
        }
        // Serialization preserves every answer.
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        for k in &keys {
            prop_assert!(back.contains(&k.to_be_bytes()));
        }
    }

    #[test]
    fn btree_matches_model(ops in prop::collection::vec((0u8..3, 0i64..200, 0u64..20), 1..300)) {
        let pool = BufferPool::new(Disk::new(), 128);
        let mut tree = BTree::new(
            pool,
            TreeConfig { payload_len: 4, ann_len: 0 },
            NoAnnotation,
        );
        let mut model: std::collections::BTreeMap<(i64, u64), Vec<u8>> = Default::default();
        for (op, key, rid) in ops {
            match op {
                0 => {
                    model.entry((key, rid)).or_insert_with(|| {
                        let p = vec![(key % 251) as u8; 4];
                        tree.insert(key, rid, p.clone());
                        p
                    });
                }
                1 => {
                    let existed = model.remove(&(key, rid)).is_some();
                    prop_assert_eq!(tree.delete(key, rid), existed);
                }
                _ => {
                    let p = vec![(rid % 251) as u8; 4];
                    let existed = model.contains_key(&(key, rid));
                    prop_assert_eq!(tree.update_payload(key, rid, p.clone()), existed);
                    if existed {
                        model.insert((key, rid), p);
                    }
                }
            }
        }
        let scan = tree.scan_all();
        prop_assert_eq!(scan.len(), model.len());
        for (e, ((k, r), p)) in scan.iter().zip(model.iter()) {
            prop_assert_eq!((e.key, e.rid), (*k, *r));
            prop_assert_eq!(&e.payload, p);
        }
    }

    #[test]
    fn btree_range_boundaries_sound(keys in prop::collection::btree_set(0i64..500, 1..100), lo in 0i64..500, width in 0i64..100) {
        let hi = (lo + width).min(499);
        let pool = BufferPool::new(Disk::new(), 128);
        let mut tree = BTree::new(
            pool,
            TreeConfig { payload_len: 0, ann_len: 0 },
            NoAnnotation,
        );
        let entries: Vec<LeafEntry> = keys.iter().map(|&k| LeafEntry { key: k, rid: k as u64, payload: vec![] }).collect();
        tree.bulk_load(&entries, 0.7);
        let scan = tree.range(lo, hi);
        let expect: Vec<i64> = keys.range(lo..=hi).copied().collect();
        prop_assert_eq!(scan.matches.iter().map(|e| e.key).collect::<Vec<_>>(), expect);
        prop_assert_eq!(scan.left_boundary.map(|e| e.key), keys.range(..lo).next_back().copied());
        prop_assert_eq!(scan.right_boundary.map(|e| e.key), keys.range(hi+1..).next().copied());
    }

    #[test]
    fn selection_verification_total(lo in 0i64..180, width in 0i64..40) {
        // Any range over a fixed mock system verifies, and a random value
        // perturbation is always rejected.
        let hi = lo + width;
        let schema = Schema::new(2, 64);
        let cfg = DaConfig {
            schema,
            scheme: SchemeKind::Mock,
            mode: SigningMode::Chained,
            rho: 10,
            rho_prime: 1000,
            buffer_pages: 512,
            fill: 2.0 / 3.0,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut da = DataAggregator::new(cfg, &mut rng);
        let boot = da.bootstrap((0..200).map(|i| vec![i, i]).collect(), 2);
        let qs = QueryServer::from_bootstrap(
            da.public_params(), schema, SigningMode::Chained, &boot, 512, 2.0 / 3.0,
        );
        let verifier = Verifier::new(da.public_params(), schema, 10);
        let ans = qs.select_range(lo, hi).unwrap();
        prop_assert!(verifier.verify_selection(lo, hi, &ans, 0, true).is_ok());
        if !ans.records.is_empty() {
            let mut bad = ans.clone();
            let idx = (lo as usize) % bad.records.len();
            bad.records[idx].attrs[1] ^= 1;
            prop_assert!(verifier.verify_selection(lo, hi, &bad, 0, true).is_err());
        }
    }

    #[test]
    fn sigcache_probabilities_normalized(log_n in 4usize..9) {
        // Summing P(T_{i,j}) * anything stays finite and the root's P equals
        // P(q = N) (only the full-range query uses the root).
        let n = 1usize << log_n;
        let probs = distributions::uniform(n);
        let analysis = SigTreeAnalysis::new(&probs);
        let root_p = analysis.p_node(log_n, 0);
        // Exactly one query (the full range) uses the root: P = P(N)/1.
        prop_assert!((root_p - probs[n - 1]).abs() < 1e-12);
        let sel = select_cache(&analysis, 16);
        prop_assert!(sel.cost_curve.iter().all(|c| *c >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn wnaf_scalar_mul_matches_double_and_add(limbs in prop::collection::vec(any::<u64>(), 1..6)) {
        // The wNAF fast path must agree with the binary reference on
        // random multi-limb scalars, in both pairing groups.
        use authdb::crypto::bn254::{G1, G2};
        let g1 = G1::generator();
        let g2 = G2::generator();
        prop_assert_eq!(g1.mul_scalar(&limbs), g1.mul_scalar_binary(&limbs));
        prop_assert_eq!(g2.mul_scalar(&limbs), g2.mul_scalar_binary(&limbs));
        prop_assert!(g1.mul_scalar(&[0, 0]).is_infinity());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn multi_pairing_equals_product_of_pairings(seed in any::<u64>(), k in 1usize..4) {
        // One accumulated Miller loop + one shared final exponentiation
        // must equal the product of independently reduced pairings.
        use authdb::crypto::bn254::{
            final_exponentiation, multi_miller_loop, pairing, Fp12, Fr, G2Prepared, G1, G2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(G1, G2)> = (0..k)
            .map(|_| {
                (
                    G1::generator().mul_fr(&Fr::random(&mut rng)),
                    G2::generator().mul_fr(&Fr::random(&mut rng)),
                )
            })
            .collect();
        let affines: Vec<_> = pairs.iter().map(|(p, _)| p.to_affine()).collect();
        let preps: Vec<G2Prepared> = pairs.iter().map(|(_, q)| G2Prepared::new(q)).collect();
        let terms: Vec<_> = affines.iter().zip(preps.iter()).collect();
        let batched = final_exponentiation(&multi_miller_loop(&terms));
        let mut product = Fp12::one();
        for (p, q) in &pairs {
            product = product.mul(&pairing(p, q));
        }
        prop_assert_eq!(batched, product);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emb_vo_roundtrips_for_any_range(n in 1i64..400, lo in 0i64..800, width in 0i64..200) {
        // Every EMB- range VO (including empty ranges and ranges past the
        // data extremes) must reproduce the signed root from the returned
        // tuples, exercising the embedded-MHT collapse on every node shape.
        use authdb::index::btree::LeafEntry;
        use authdb::index::emb::{DigestKind, EmbTree};
        let kind = DigestKind::Sha256;
        let pool = BufferPool::new(Disk::new(), 512);
        let mut t = EmbTree::new(pool, kind);
        let entries: Vec<LeafEntry> = (0..n)
            .map(|i| LeafEntry {
                key: i * 2,
                rid: i as u64,
                payload: kind.hash(&(i * 2).to_be_bytes()),
            })
            .collect();
        t.bulk_load(&entries, 0.7);
        let hi = lo + width;
        let res = t.range_with_vo(lo, hi);
        let digests: Vec<Vec<u8>> = res
            .returned_entries()
            .iter()
            .map(|e| e.payload.clone())
            .collect();
        prop_assert_eq!(res.vo.result_slots(), digests.len());
        let root = EmbTree::root_from_vo(kind, &res.vo, &digests);
        prop_assert_eq!(root, Some(t.root_digest()));
    }

    #[test]
    fn freshness_check_is_sound_and_complete(
        update_ticks in prop::collection::btree_set(1u64..200, 0..20),
        probe_version in 0usize..20,
    ) {
        // Simulate one record updated at the given ticks with summaries
        // every 10 ticks: any version except the newest within the probe
        // window must be flagged stale once a later period marks the rid;
        // the newest version must never be flagged.
        use authdb::core::freshness::{DecodedSummaries, Freshness, Mark, UpdateSummary};
        use authdb::crypto::signer::Keypair;
        use authdb::filters::bitmap::Bitmap;
        let mut rng = StdRng::seed_from_u64(1);
        let kp = Keypair::generate(SchemeKind::Mock, &mut rng);
        let rho = 10u64;
        let horizon = 210u64;
        let mut summaries = Vec::new();
        let mut seq = 0;
        let mut start = 0u64;
        while start < horizon {
            let end = start + rho;
            let mut bm = Bitmap::new(8);
            if update_ticks.iter().any(|&t| start < t && t <= end) {
                bm.set(3);
            }
            summaries.push(UpdateSummary::create(&kp, 0, 0, seq, start, end, &bm));
            seq += 1;
            start = end;
        }
        let versions: Vec<u64> = update_ticks.iter().copied().collect();
        if versions.is_empty() {
            return Ok(());
        }
        let v = versions[probe_version % versions.len()];
        let newest = *versions.last().expect("nonempty");
        let f = DecodedSummaries::new(&summaries).check(v, Mark::Rid(3), rho, horizon + 1, 0);
        // The newest version is never stale.
        if v == newest {
            prop_assert!(matches!(f, Freshness::FreshWithin(_)), "newest flagged: {f:?}");
        } else {
            // An older version is stale unless the newer update landed in
            // the same rho-period (the paper's 2-rho granularity window).
            let same_period = versions
                .iter()
                .filter(|&&t| t > v)
                .all(|&t| (t - 1) / rho == (v - 1) / rho);
            if !same_period {
                prop_assert!(matches!(f, Freshness::Stale { .. }), "old version accepted: {f:?}");
            }
        }
    }
}
