//! fig_shard: sharded fan-out, stitched verification, and the wired-in
//! aggregate-signature cache.
//!
//! Part 1 replays the cross-shard adversary catalog (seam splice, shard
//! withholding, seam widening, stale-shard replay, summary swap) against
//! `Verifier::verify_sharded_selection` — under the fast Mock scheme and
//! under real BAS crypto — asserting every strategy is rejected with its
//! pinned `VerifyError` while the honest fan-out verifies.
//!
//! Part 2 scales the shard count (1 / 2 / 4 / 8) over a fixed BAS relation
//! and measures answer latency (the fan-out) and client verification cost
//! (the stitched random-linear-combination fold). The acceptance bar:
//! stitched verification at 8 shards stays within 2x of single-shard
//! verification — one multi-Miller loop, not one per shard.
//!
//! Part 3 shows the Section 4.3 win of wiring `SigCache` into
//! `QueryServer::select_range`: wide selections against a cached vs an
//! uncached server, aggregation-op counts (the paper's ECC-addition cost
//! unit), hit/miss counters, and coherence across an update burst.

use std::time::Instant;

use authdb_bench::{banner, csv_begin, csv_end, env_jobs, fmt_time};
use authdb_core::adversary::{run_shard_catalog, Conformance, ShardTamper};
use authdb_core::da::{DaConfig, DataAggregator, SigningMode};
use authdb_core::qs::{AggCacheConfig, CacheDistribution, QsOptions, QueryServer};
use authdb_core::record::Schema;
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer};
use authdb_core::sigcache::RefreshStrategy;
use authdb_core::verify::{EpochView, Verifier};
use authdb_crypto::signer::SchemeKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: i64 = 2_048;
const KEY_STRIDE: i64 = 10;

fn print_catalog(label: &str, results: &[Conformance<ShardTamper>]) -> bool {
    println!("\nCross-shard tamper catalog under {label}:");
    println!(
        "{:<22} | {:>9} | {:<44} | {:>4}",
        "strategy", "honest ok", "tampered fan-out rejected with", "pass"
    );
    println!("{:-<22}-+-{:->9}-+-{:-<44}-+-{:->4}", "", "", "", "");
    let mut all_ok = true;
    for c in results {
        let rejection = match &c.outcome {
            Ok(_) => "ACCEPTED (seam soundness hole!)".to_string(),
            Err(e) => format!("{e:?}"),
        };
        let ok = c.ok();
        all_ok &= ok;
        println!(
            "{:<22} | {:>9} | {:<44} | {:>4}",
            c.tamper.name(),
            if c.honest_ok { "yes" } else { "NO" },
            rejection,
            if ok { "ok" } else { "FAIL" },
        );
    }
    all_ok
}

fn bas_cfg() -> DaConfig {
    DaConfig {
        schema: Schema::new(2, 64),
        scheme: SchemeKind::Bas,
        mode: SigningMode::Chained,
        rho: 10,
        rho_prime: 100_000,
        buffer_pages: 4096,
        fill: 2.0 / 3.0,
    }
}

/// Seam-straddling queries (plus one mid-shard), fixed across shard counts.
fn queries() -> Vec<(i64, i64)> {
    let span = N * KEY_STRIDE;
    let mut out: Vec<(i64, i64)> = (1..=7)
        .map(|q| {
            let seam = q * span / 8;
            (seam - 64 * KEY_STRIDE, seam + 64 * KEY_STRIDE - 1)
        })
        .collect();
    out.push((span / 16, span / 16 + 128 * KEY_STRIDE - 1));
    out
}

/// Build a BAS sharded system with `shards` even key-range shards.
fn sharded_system(shards: i64) -> (ShardedAggregator, ShardedQueryServer, Verifier) {
    let span = N * KEY_STRIDE;
    let splits: Vec<i64> = (1..shards).map(|i| i * span / shards).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(bas_cfg(), splits, &mut rng);
    let boots = sa.bootstrap(
        (0..N).map(|i| vec![i * KEY_STRIDE, i]).collect(),
        env_jobs(),
    );
    let sqs = ShardedQueryServer::from_bootstraps(
        sa.public_params(),
        sa.config(),
        sa.map().clone(),
        &boots,
        &QsOptions::default(),
    );
    let v = Verifier::new(sa.public_params(), sa.config().schema, sa.config().rho);
    (sa, sqs, v)
}

fn main() {
    banner(
        "fig_shard",
        "Sharded QS: seam-sound stitching, scaling, and the sigcache win",
    );

    // ---- Part 1: the cross-shard catalog ----
    let mock_ok = print_catalog("Mock (structural)", &run_shard_catalog(SchemeKind::Mock));
    let bas_ok = print_catalog("BAS (real BLS/BN254)", &run_shard_catalog(SchemeKind::Bas));

    // ---- Part 2: shard-count scaling ----
    println!("\nShard scaling: N = {N} BAS records, 8 seam-straddling queries");
    println!(
        "{:>6} | {:>14} | {:>14} | {:>12}",
        "shards", "answer (8q)", "verify (8q)", "vs 1 shard"
    );
    println!("{:->6}-+-{:->14}-+-{:->14}-+-{:->12}", "", "", "", "");
    let qs_list = queries();
    let reps = 5;
    let mut verify_by_count = Vec::new();
    let mut answer_by_count = Vec::new();
    for &shards in &[1i64, 2, 4, 8] {
        let (sa, sqs, v) = sharded_system(shards);
        let view = EpochView::genesis(sa.map(), &sa.public_params()).expect("genesis view");
        let mut rng = StdRng::seed_from_u64(9);

        let t = Instant::now();
        let mut answers = Vec::new();
        for _ in 0..reps {
            answers = qs_list
                .iter()
                .map(|&(lo, hi)| sqs.select_range(lo, hi).expect("chained mode"))
                .collect();
        }
        let answer = t.elapsed().as_secs_f64() / reps as f64;

        let t = Instant::now();
        for _ in 0..reps {
            for (&(lo, hi), ans) in qs_list.iter().zip(&answers) {
                v.verify_sharded_selection(lo, hi, ans, &view, 0, true, &mut rng)
                    .expect("honest fan-out verifies");
            }
        }
        let verify = t.elapsed().as_secs_f64() / reps as f64;
        let ratio = if verify_by_count.is_empty() {
            1.0
        } else {
            verify / verify_by_count[0]
        };
        println!(
            "{:>6} | {:>14} | {:>14} | {:>11.2}x",
            shards,
            fmt_time(answer),
            fmt_time(verify),
            ratio
        );
        answer_by_count.push(answer);
        verify_by_count.push(verify);
    }
    let scaling = verify_by_count[3] / verify_by_count[0];

    // ---- Part 3: the aggregate-signature cache in the hot path ----
    println!(
        "\nSigcache in select_range: N = {N} BAS records, 64 selections \
         drawn from the uniform cardinality model"
    );
    let mut rng = StdRng::seed_from_u64(77);
    let mut da = DataAggregator::new(bas_cfg(), &mut rng);
    let boot = da.bootstrap(
        (0..N).map(|i| vec![i * KEY_STRIDE, i]).collect(),
        env_jobs(),
    );
    let mut plain = QueryServer::from_bootstrap(
        da.public_params(),
        da.config().schema,
        SigningMode::Chained,
        &boot,
        4096,
        2.0 / 3.0,
    );
    let mut cached = QueryServer::with_options(
        da.public_params(),
        da.config().schema,
        SigningMode::Chained,
        &boot,
        QsOptions {
            buffer_pages: 4096,
            agg_cache: Some(AggCacheConfig {
                max_nodes: 255,
                strategy: RefreshStrategy::Eager,
                distribution: CacheDistribution::Uniform,
            }),
            ..QsOptions::default()
        },
    );
    // Queries drawn from the uniform cardinality model Algorithm 1 was
    // given (the paper's Figure 6 methodology): q ~ U[1, N] records
    // starting at a uniform position.
    use rand::Rng;
    let mut qrng = StdRng::seed_from_u64(4242);
    let wide: Vec<(i64, i64)> = (0..64)
        .map(|_| {
            let q = qrng.gen_range(1..=N);
            let a = qrng.gen_range(0..=(N - q));
            (a * KEY_STRIDE, (a + q) * KEY_STRIDE - 1)
        })
        .collect();
    let run = |server: &mut QueryServer| {
        let before = server.stats();
        let t = Instant::now();
        for &(lo, hi) in &wide {
            server.select_range(lo, hi).expect("chained mode");
        }
        let dt = t.elapsed().as_secs_f64();
        let after = server.stats();
        (dt, after.agg_ops - before.agg_ops)
    };
    let (plain_t, plain_ops) = run(&mut plain);
    let (cached_t, cached_ops) = run(&mut cached);
    println!(
        "  uncached: {} ({plain_ops} aggregation ops)",
        fmt_time(plain_t)
    );
    println!(
        "  cached  : {} ({cached_ops} aggregation ops)",
        fmt_time(cached_t)
    );
    let op_ratio = plain_ops as f64 / cached_ops.max(1) as f64;
    println!("  op reduction: {op_ratio:.1}x");
    // Coherence under churn: value updates flow deltas into the cache, and
    // answers keep matching the uncached replica.
    da.advance_clock(1);
    let mut update_msgs = 0usize;
    for rid in (0..N as u64).step_by(97) {
        for m in da.update_record(rid, vec![rid as i64 * KEY_STRIDE, -1]) {
            plain.apply(&m);
            cached.apply(&m);
            update_msgs += 1;
        }
    }
    let mut coherent = true;
    for &(lo, hi) in &wide {
        let a = plain.select_range(lo, hi).expect("chained mode");
        let b = cached.select_range(lo, hi).expect("chained mode");
        coherent &= a.agg == b.agg && a.records.len() == b.records.len();
    }
    let s = cached.stats();
    println!(
        "  after {update_msgs} update msgs: answers coherent = {coherent}, \
         cache hits = {}, misses = {}",
        s.cache_hits, s.cache_misses
    );

    csv_begin("metric,value");
    println!("shard_catalog_mock_ok,{}", mock_ok as u8);
    println!("shard_catalog_bas_ok,{}", bas_ok as u8);
    for (i, &shards) in [1i64, 2, 4, 8].iter().enumerate() {
        println!("answer_s_{shards}_shards,{}", answer_by_count[i]);
        println!("verify_s_{shards}_shards,{}", verify_by_count[i]);
    }
    println!("verify_scaling_8_vs_1,{scaling}");
    println!("sigcache_uncached_ops,{plain_ops}");
    println!("sigcache_cached_ops,{cached_ops}");
    println!("sigcache_op_reduction,{op_ratio}");
    println!("sigcache_coherent,{}", coherent as u8);
    csv_end();

    assert!(mock_ok, "cross-shard catalog must fully reject under Mock");
    assert!(bas_ok, "cross-shard catalog must fully reject under BAS");
    assert!(
        scaling <= 2.0,
        "stitched verification at 8 shards must stay within 2x of 1 shard \
         (got {scaling:.2}x)"
    );
    assert!(coherent, "cached answers must match the uncached replica");
    assert!(
        op_ratio >= 2.0,
        "sigcache must at least halve aggregation ops on wide ranges \
         (got {op_ratio:.1}x)"
    );
    println!(
        "\nAll cross-shard strategies rejected; verify scaling 8-vs-1 = \
         {scaling:.2}x; sigcache op reduction {op_ratio:.1}x."
    );
}
