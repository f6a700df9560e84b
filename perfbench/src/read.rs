//! Closed-loop verified reads (`scan` and `mixed`), the in-process replay
//! that times proof construction and encoding, and the server-side counter
//! snapshots the per-layer ratios come from.

use std::sync::atomic::Ordering;
use std::time::Instant;

use authdb_core::record::{Record, Tick};
use authdb_core::shard::{ShardedAggregator, ShardedSelectionAnswer};
use authdb_core::wire::Response;
use authdb_wire::frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{
    check_truth, select, selection, Bytes, Conn, Deployment, Failure, Shape, STRIDE,
};
use crate::trace::{ms, Tracer};

/// Seeded range queries of a fixed width at uniform positions; on a
/// sharded deployment a share `straddle` of them crosses a seam.
pub struct RangeGen {
    rng: StdRng,
    shape: Shape,
    splits: Vec<i64>,
    width: i64,
    straddle: f64,
}

impl RangeGen {
    pub fn new(seed: u64, shape: Shape, width: i64, straddle: f64) -> Self {
        RangeGen {
            rng: StdRng::seed_from_u64(seed ^ 0x5ca7),
            shape,
            splits: shape.splits(),
            width,
            straddle,
        }
    }

    pub fn next(&mut self) -> (i64, i64) {
        let len = self.width * STRIDE;
        let splits = &self.splits;
        let lo = if !splits.is_empty() && self.rng.gen_bool(self.straddle) {
            let seam = splits[self.rng.gen_range(0..splits.len())];
            seam - self.rng.gen_range(1..len)
        } else {
            let s = self.rng.gen_range(0..self.shape.shards as usize);
            let start = if s == 0 { 0 } else { splits[s - 1] };
            let end = splits.get(s).copied().unwrap_or(self.shape.key_span());
            self.rng.gen_range(start..end - len)
        };
        (lo, lo + len - 1)
    }
}

/// What a stretch of verified reads produced.
#[derive(Default)]
pub struct Reads {
    /// Query issued → verdict held.
    pub verified_ms: Vec<f64>,
    /// Query issued → full response frame received.
    pub answer_ms: Vec<f64>,
    /// Whether each verified read was traced.
    pub traced: Vec<bool>,
    pub bytes: Bytes,
    pub attempted: u64,
    pub failures: Vec<Failure>,
    pub issued: Vec<(i64, i64)>,
    /// Answers re-checked against the DA under its lock because more than
    /// one update landed while they were in flight.
    pub rechecks: u64,
}

type Truth = Vec<(usize, Vec<Record>)>;

fn truth(sa: &ShardedAggregator, lo: i64, hi: i64) -> Truth {
    sa.map()
        .overlapping(lo, hi)
        .into_iter()
        .map(|(s, (a, b))| (s, sa.shard(s).query_range(a, b)))
        .collect()
}

fn same(ans: &ShardedSelectionAnswer, t: &Truth) -> bool {
    ans.parts.len() == t.len()
        && ans
            .parts
            .iter()
            .zip(t)
            .all(|(p, (s, recs))| p.shard == *s && &p.answer.records == recs)
}

/// One verified read: send, receive, decode, verify, then the
/// ground-truth gate. `churn` says a writer may be applying updates
/// concurrently; the answer must then match the DA's records as of some
/// point while it was in flight.
#[allow(clippy::too_many_arguments)]
pub fn read_one(
    d: &Deployment,
    conn: &mut Conn,
    tr: &mut Tracer,
    rng: &mut StdRng,
    req: u64,
    (lo, hi): (i64, i64),
    churn: bool,
    out: &mut Reads,
) -> Result<(), Failure> {
    out.attempted += 1;
    out.issued.push((lo, hi));
    let lock = || d.sa.lock().expect("DA lock poisoned by a panicked writer");
    let before = churn.then(|| {
        let sa = lock();
        (
            d.applied_updates.load(Ordering::Acquire),
            truth(&sa, lo, hi),
        )
    });
    let now: Tick = d.applied_tick.load(Ordering::Acquire);
    let t0 = Instant::now();
    let root = tr.open("read", req, None, t0);
    conn.send(&select(lo, hi))?;
    let body = conn.recv()?;
    let t1 = Instant::now();
    tr.record("net.rtt", req, root, t0, t1);
    let ans = selection(&body)?;
    let t2 = Instant::now();
    tr.record("wire.decode", req, root, t1, t2);
    let verdict = d
        .verifier
        .verify_sharded_selection(lo, hi, &ans, &d.view, now, true, rng);
    let t3 = Instant::now();
    tr.record("verify.total", req, root, t2, t3);
    tr.close(root, t3);
    verdict.map_err(|error| Failure::Verify { lo, hi, error })?;
    out.verified_ms.push(ms(t0, t3));
    out.answer_ms.push(ms(t0, t1));
    out.traced.push(tr.enabled());
    out.bytes.add(&ans, body.len() + 4, &d.pp);

    if tr.enabled() {
        // The same answer with the freshness phase off: authenticity alone.
        let a0 = Instant::now();
        d.verifier
            .verify_sharded_selection(lo, hi, &ans, &d.view, now, false, rng)
            .map_err(|error| Failure::Verify { lo, hi, error })?;
        tr.record("verify.auth", req, None, a0, Instant::now());
    }

    let c0 = Instant::now();
    let sa = lock();
    let result = match before {
        None => check_truth(&sa, lo, hi, &ans),
        Some(_) if same(&ans, &truth(&sa, lo, hi)) => Ok(()),
        Some((seen, ref t)) => {
            let landed = d.applied_updates.load(Ordering::Acquire) - seen;
            if landed <= 1 && same(&ans, t) {
                Ok(())
            } else if landed > 1 {
                // Too many states to enumerate: ask again while no update
                // can land, and hold that answer to the DA's records.
                out.rechecks += 1;
                let again = selection(&conn.call(&select(lo, hi))?)?;
                check_truth(&sa, lo, hi, &again)
            } else {
                check_truth(&sa, lo, hi, &ans)
            }
        }
    };
    drop(sa);
    tr.record("check.truth", req, None, c0, Instant::now());
    result
}

/// Read closed-loop until `until`, recording failures instead of stopping;
/// with `alternate`, only every other read is traced.
#[allow(clippy::too_many_arguments)]
pub fn read_until(
    d: &Deployment,
    conn: &mut Conn,
    tr: &mut Tracer,
    gen: &mut RangeGen,
    rng: &mut StdRng,
    until: Instant,
    churn: bool,
    alternate: bool,
    out: &mut Reads,
) {
    while Instant::now() < until {
        let req = out.attempted;
        tr.set_enabled(alternate && req % 2 == 1);
        if let Err(f) = read_one(d, conn, tr, rng, req, gen.next(), churn, out) {
            out.failures.push(f);
        }
    }
}

/// Proof construction and response encoding, timed in-process on a seeded
/// sample of the queries a run issued (`qs.select`, `wire.encode` spans).
pub fn replay(d: &Deployment, tr: &mut Tracer, issued: &[(i64, i64)], seed: u64, max: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e9);
    for req in 0..max.min(issued.len()) {
        let (lo, hi) = issued[rng.gen_range(0..issued.len())];
        let t0 = Instant::now();
        let ans = d.server.with_server(|s| s.select_range(lo, hi));
        let t1 = Instant::now();
        tr.record("qs.select", req as u64, None, t0, t1);
        if let Ok(ans) = ans {
            let bytes = frame(&Response::Selection(ans));
            std::hint::black_box(&bytes);
            tr.record("wire.encode", req as u64, None, t1, Instant::now());
        }
    }
}

/// Server-side counters summed over shards.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub agg_ops: u64,
    pub node_hits: u64,
    pub node_misses: u64,
    pub node_evictions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub page_reads: u64,
}

impl Counters {
    pub fn read(d: &Deployment) -> Counters {
        d.server.with_server(|s| {
            let st = s.stats();
            let mut c = Counters {
                agg_ops: st.agg_ops,
                node_hits: st.node_cache_hits,
                node_misses: st.node_cache_misses,
                node_evictions: st.node_cache_evictions,
                ..Counters::default()
            };
            for i in 0..s.map().shard_count() {
                s.with_shard(i, |q| {
                    let p = q.pool_stats();
                    c.pool_hits += p.hits;
                    c.pool_misses += p.misses;
                    c.page_reads += q.io_stats().reads;
                });
            }
            c
        })
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            agg_ops: self.agg_ops - before.agg_ops,
            node_hits: self.node_hits - before.node_hits,
            node_misses: self.node_misses - before.node_misses,
            node_evictions: self.node_evictions - before.node_evictions,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            page_reads: self.page_reads - before.page_reads,
        }
    }
}
