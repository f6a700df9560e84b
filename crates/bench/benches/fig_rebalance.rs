//! fig_rebalance: DA-certified shard rebalancing — handoff cost, epoch-bump
//! verification, and the cross-epoch adversary catalog.
//!
//! Part 1 replays the rebalancing attack catalog (stale-epoch map replay,
//! handoff forgery, split brain, transition-chain break) against the
//! epoch-gated `Verifier::verify_sharded_selection` / `EpochView::advance`
//! — under the fast Mock scheme and under real BAS crypto — asserting every
//! strategy is rejected with its pinned typed error while the honest
//! answers (and the honest transition) are accepted.
//!
//! Part 2 measures **handoff cost vs. shard size**: splitting a BAS shard
//! of n records re-signs exactly that shard (fresh chains at the new fences
//! plus the baseline summary), so the cost must grow with n — and, at fixed
//! n, stay flat in the *total* deployment size (survivors only re-bind
//! their summary streams).
//!
//! Part 3 checks the acceptance bar: a live deployment crosses a split and
//! a merge with **zero rejected honest answers**, and stitched verification
//! cost after the epoch bump stays within 1.5× of the pre-bump cost (the
//! epoch gate is a hash comparison, not extra pairing work).

use std::time::Instant;

use authdb_bench::{banner, csv_begin, csv_end, env_jobs, fmt_time};
use authdb_core::adversary::{run_rebalance_catalog, Conformance, RebalanceTamper};
use authdb_core::da::{DaConfig, SigningMode};
use authdb_core::qs::QsOptions;
use authdb_core::record::Schema;
use authdb_core::shard::{RebalancePlan, ShardedAggregator, ShardedQueryServer};
use authdb_core::verify::{EpochView, Verifier};
use authdb_crypto::signer::SchemeKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEY_STRIDE: i64 = 10;

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

fn print_catalog(label: &str, results: &[Conformance<RebalanceTamper>]) -> bool {
    println!("\nRebalancing tamper catalog under {label}:");
    println!(
        "{:<20} | {:>9} | {:<44} | {:>4}",
        "strategy", "honest ok", "tampered artifact rejected with", "pass"
    );
    println!("{:-<20}-+-{:->9}-+-{:-<44}-+-{:->4}", "", "", "", "");
    let mut all_ok = true;
    for c in results {
        let rejection = match &c.outcome {
            Ok(_) => "ACCEPTED (epoch soundness hole!)".to_string(),
            Err(e) => format!("{e:?}"),
        };
        let ok = c.ok();
        all_ok &= ok;
        println!(
            "{:<20} | {:>9} | {:<44} | {:>4}",
            c.tamper.name(),
            if c.honest_ok { "yes" } else { "NO" },
            rejection,
            if ok { "ok" } else { "FAIL" },
        );
    }
    all_ok
}

/// Build a 2-shard BAS deployment with `n` records split down the middle.
fn two_shard_system(n: i64) -> (ShardedAggregator, ShardedQueryServer, Verifier, EpochView) {
    let span = n * KEY_STRIDE;
    let mut rng = StdRng::seed_from_u64(42);
    let mut sa = ShardedAggregator::new(bas_cfg(), vec![span / 2], &mut rng);
    let boots = sa.bootstrap(
        (0..n).map(|i| vec![i * KEY_STRIDE, i]).collect(),
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
    let view = EpochView::genesis(sa.map(), &sa.public_params()).expect("genesis view");
    (sa, sqs, v, view)
}

fn main() {
    banner(
        "fig_rebalance",
        "Epoch-tagged rebalancing: certified handoff, one-live-epoch verification",
    );

    // ---- Part 1: the rebalancing catalog ----
    let mock_ok = print_catalog(
        "Mock (structural)",
        &run_rebalance_catalog(SchemeKind::Mock),
    );
    let bas_ok = print_catalog(
        "BAS (real BLS/BN254)",
        &run_rebalance_catalog(SchemeKind::Bas),
    );

    // ---- Part 2: handoff cost vs shard size ----
    println!(
        "\nHandoff cost: splitting one BAS shard of n records (jobs = {})",
        env_jobs()
    );
    println!("{:>8} | {:>14} | {:>16}", "n", "split", "per record");
    println!("{:->8}-+-{:->14}-+-{:->16}", "", "", "");
    let sizes = [256i64, 512, 1024, 2048];
    let mut handoff_secs = Vec::new();
    for &n in &sizes {
        let (mut sa, sqs, _v, _view) = two_shard_system(n);
        // Split the right shard (n/2 records) at its midpoint: the handoff
        // re-signs exactly those records.
        let at = 3 * n * KEY_STRIDE / 4;
        let t = Instant::now();
        let rb = sa.rebalance(RebalancePlan::Split { shard: 1, at }, env_jobs());
        let dt = t.elapsed().as_secs_f64();
        sqs.apply_rebalance(&rb).expect("split applies");
        let moved: usize = rb.handoffs.iter().map(|h| h.records.len()).sum();
        assert_eq!(moved as i64, n / 2, "handoff touches only the split shard");
        println!(
            "{:>8} | {:>14} | {:>13}/rec",
            n / 2,
            fmt_time(dt),
            fmt_time(dt / moved.max(1) as f64)
        );
        handoff_secs.push(dt);
    }

    // ---- Part 3: verification cost flat across the epoch bump ----
    let n = 2048i64;
    let span = n * KEY_STRIDE;
    let (mut sa, mut sqs, v, mut view) = two_shard_system(n);
    let queries: Vec<(i64, i64)> = (1..=4)
        .map(|q| {
            let c = q * span / 5;
            (c - 64 * KEY_STRIDE, c + 64 * KEY_STRIDE - 1)
        })
        .collect();
    let reps = 5;
    let mut rng = StdRng::seed_from_u64(9);
    let timed_verify = |sqs: &mut ShardedQueryServer,
                        view: &EpochView,
                        now: u64,
                        rng: &mut StdRng|
     -> (f64, usize) {
        let answers: Vec<_> = queries
            .iter()
            .map(|&(lo, hi)| sqs.select_range(lo, hi).expect("chained mode"))
            .collect();
        let mut rejected = 0usize;
        let t = Instant::now();
        for _ in 0..reps {
            for (&(lo, hi), ans) in queries.iter().zip(&answers) {
                if v.verify_sharded_selection(lo, hi, ans, view, now, true, rng)
                    .is_err()
                {
                    rejected += 1;
                }
            }
        }
        (t.elapsed().as_secs_f64() / reps as f64, rejected)
    };

    let (before, rej0) = timed_verify(&mut sqs, &view, sa.now(), &mut rng);
    // Epoch bump 1: split the hot right shard.
    let rb = sa.rebalance(
        RebalancePlan::Split {
            shard: 1,
            at: 3 * span / 4,
        },
        env_jobs(),
    );
    sqs.apply_rebalance(&rb).expect("split applies");
    view.advance(&rb.transition, v.public_params())
        .expect("transition observed");
    let (after_split, rej1) = timed_verify(&mut sqs, &view, sa.now(), &mut rng);
    // Epoch bump 2: merge it back.
    let rb = sa.rebalance(RebalancePlan::Merge { left: 1 }, env_jobs());
    sqs.apply_rebalance(&rb).expect("merge applies");
    view.advance(&rb.transition, v.public_params())
        .expect("transition observed");
    let (after_merge, rej2) = timed_verify(&mut sqs, &view, sa.now(), &mut rng);

    let ratio_split = after_split / before;
    let ratio_merge = after_merge / before;
    println!("\nStitched verification across epoch bumps (N = {n}, 4 queries, BAS):");
    println!("  epoch 1 (2 shards):            {}", fmt_time(before));
    println!(
        "  epoch 2 (post-split, 3 shards): {} ({ratio_split:.2}x)",
        fmt_time(after_split)
    );
    println!(
        "  epoch 3 (post-merge, 2 shards): {} ({ratio_merge:.2}x)",
        fmt_time(after_merge)
    );
    let rejected = rej0 + rej1 + rej2;
    println!("  rejected honest answers across all epochs: {rejected}");

    csv_begin("metric,value");
    println!("rebalance_catalog_mock_ok,{}", mock_ok as u8);
    println!("rebalance_catalog_bas_ok,{}", bas_ok as u8);
    for (i, &n) in sizes.iter().enumerate() {
        println!("handoff_s_{}_records,{}", n / 2, handoff_secs[i]);
    }
    println!("verify_s_epoch1,{before}");
    println!("verify_s_epoch2_split,{after_split}");
    println!("verify_s_epoch3_merge,{after_merge}");
    println!("verify_ratio_post_split,{ratio_split}");
    println!("verify_ratio_post_merge,{ratio_merge}");
    println!("rejected_honest_answers,{rejected}");
    csv_end();

    assert!(mock_ok, "rebalancing catalog must fully reject under Mock");
    assert!(bas_ok, "rebalancing catalog must fully reject under BAS");
    assert_eq!(rejected, 0, "zero rejected honest answers across epochs");
    assert!(
        handoff_secs[3] > handoff_secs[0],
        "handoff cost must scale with the split shard's size"
    );
    assert!(
        ratio_split <= 1.5 && ratio_merge <= 1.5,
        "stitched verification must stay within 1.5x across an epoch bump \
         (split {ratio_split:.2}x, merge {ratio_merge:.2}x)"
    );
    println!(
        "\nAll rebalancing strategies rejected; verify cost {ratio_split:.2}x after split, \
         {ratio_merge:.2}x after merge; zero honest rejections."
    );
}
