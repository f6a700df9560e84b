//! The three workloads. Each loads a different layer of the stack:
//!
//! * `scan` — closed-loop verified range scans of about 128 records over 8
//!   shards, half straddling a seam, with no summary ever published: the
//!   client verifier does most of the work and the freshness path is idle.
//! * `lookup` — open-loop point lookups (half hits, half gaps) against one
//!   131,072-record shard whose index and heap outgrow the node cache and
//!   buffer pool: proof construction, the codec and the server's event loop
//!   do the work; a sample of answers is verified after each open-loop
//!   stretch, off the offered path.
//! * `mixed` — a DA writer at a fixed rate (summary periods, shard log
//!   checkpoints) beside a closed-loop reader of 32-record scans whose
//!   freshness is checked: signing, applying and freshness verification.
//!
//! Every run also measures what the other workloads centre on, so each
//! end-to-end metric exists on every workload: `scan` and `lookup` give
//! part of their window to a stream of updates on an otherwise idle
//! deployment, and `lookup`'s verified latency adds each sampled answer's
//! decode and verification to the latency it was received with.
//!
//! A shared host's vCPUs change speed by up to about 1.8× for seconds at a
//! time, so a run measures in rounds, one per set-up, and cuts each round
//! into slices of about a second that each take every measurement in turn.
//! Every percentile then draws on the whole run instead of on one stretch
//! of it that a slow spell may cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use authdb_core::record::Tick;
use authdb_net::WireTamper;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{build, check_truth, selection, shut, Conn, Deployment, Failure, Shape};
use crate::lookup::{offer, point, sampled, Kept};
use crate::read::{read_one, read_until, replay, Counters, RangeGen, Reads};
use crate::trace::{median, ms, quantile, Tracer};
use crate::update::{Cadence, Writer};

/// Set-ups per run; `setup_s` is their median, and each is followed by its
/// share of the window.
const SETUPS: usize = 3;
/// About how long one slice of a round's window lasts, in seconds.
const SLICE_S: f64 = 1.0;
/// Deterministic reads (and lockstep updates) behind the per-layer counts.
const COUNT_OPS: u64 = 64;
/// Lockstep updates per read in `mixed`'s counting pass: enough that the
/// pass spans several checkpoint cycles (640 updates, 32 periods).
const COUNT_UPDATES_PER_READ: usize = 10;
/// Untimed updates `mixed` applies after each set-up, before its reads:
/// two checkpoint cycles, so every timed read meets the summary and
/// checkpoint sawtooth in its steady state.
const MIXED_WARM_UPDATES: u64 = 2 * MIXED_CADENCE.per_period * MIXED_CADENCE.checkpoint_every;
/// Queries replayed in-process to time proof construction and encoding.
const REPLAYS: usize = 256;
/// `mixed`'s DA update rate, per second, and its summary cadence: ten
/// periods a second, each shard's log cut back to two summaries every
/// third period, so reads carry a sawtooth of two to four per shard.
const MIXED_UPDATE_RATE: f64 = 200.0;
const MIXED_CADENCE: Cadence = Cadence {
    per_period: 20,
    checkpoint_every: 3,
    keep: 2,
};
/// Share of a `scan` or `lookup` slice given to its update stream, and that
/// stream's rate per second.
const PROBE_SHARE: f64 = 0.3;
const PROBE_RATE: f64 = 500.0;
/// `lookup`'s fixed offered rate for `answer_ms`, per second: about a tenth
/// of the rate the deployment serves within the latency limit.
const NOMINAL_RATE: f64 = 1500.0;
/// Kept lookup frames to aim for (enough for a p99 with ten beyond it).
const SAMPLE_TARGET: u64 = 1200;
/// The generator may run at most this late at its p99, or the open-loop
/// stretch is invalid: the rate was not offered. Set above the scheduling
/// stalls of a small shared VM (up to about 10 ms), which delay the
/// generator and the server alike.
const LATE_BOUND_MS: f64 = 20.0;
/// Served-rate search: first rate, probes, and the relative step it stops
/// at (finer than the metric's bound).
const SEARCH_START: f64 = 12000.0;
const SEARCH_PROBES: usize = 10;
const SEARCH_STEP: f64 = 0.04;
/// Shares of a `lookup` window: nominal-rate stretches, served-rate search
/// (the rest is the update stream; sample verification comes on top).
const NOMINAL_SHARE: f64 = 0.4;
const SEARCH_SHARE: f64 = 0.3;

/// No summary period ever closes on `scan` and `lookup`.
const NEVER: u64 = 1 << 40;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A small deployment for the self-tests.
    pub small: bool,
    /// Arm the server's frame tamper after set-up (gate self-test).
    pub tamper: bool,
    pub jobs: usize,
    pub origin: Instant,
}

impl Ctx {
    fn tracer(&self, on: bool) -> Tracer {
        Tracer::new(self.origin, on)
    }

    /// `setup_s` is an end-to-end metric, so traced runs set up once.
    fn setups(&self) -> usize {
        if self.small || self.trace {
            1
        } else {
            SETUPS
        }
    }

    pub fn shape(&self) -> Option<Shape> {
        let (big, small) = match self.workload.as_str() {
            "scan" => ((16_384, 8, NEVER), (2_048, 4, NEVER)),
            "lookup" => ((131_072, 1, NEVER), (4_096, 1, NEVER)),
            "mixed" => ((16_384, 4, 1), (2_048, 2, 1)),
            _ => return None,
        };
        let (records, shards, rho) = if self.small { small } else { big };
        Some(Shape {
            records,
            shards,
            rho,
        })
    }
}

/// A value with the number of samples behind it (for percentiles).
pub struct Value {
    pub value: f64,
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, Value>,
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    /// Busy sheds on the measured path: failed, but not wrong.
    pub shed: u64,
    pub failures: Vec<Failure>,
    /// Run-record entries beyond the common ones.
    pub record: Vec<(String, String)>,
    /// Why the run cannot be reported as a number, if it cannot.
    pub invalid: Option<String>,
    pub spans: Option<Tracer>,
    /// Printed diagnostics (accounting, published-number checks).
    pub notes: Vec<String>,
}

impl Outcome {
    fn e2e(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        self.e2e.insert(name, Value { value, samples });
    }

    fn percentiles(&mut self, p50: &'static str, p99: &'static str, xs: &[f64]) {
        self.e2e(p50, median(xs), Some(xs.len()));
        self.e2e(p99, quantile(xs, 0.99), Some(xs.len()));
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    fn absorb_reads(&mut self, r: Reads) {
        self.attempted += r.attempted;
        self.failures.extend(r.failures);
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Update latencies (due → applied) and generator lateness (due → started).
#[derive(Default)]
struct Updates {
    update_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

impl Updates {
    fn absorb(&mut self, other: Updates) {
        self.update_ms.extend(other.update_ms);
        self.late_ms.extend(other.late_ms);
    }
}

/// Apply updates at `rate` until `stop` is set, or `count` are applied.
fn write_at(
    d: &Deployment,
    w: &mut Writer,
    tr: &mut Tracer,
    rate: f64,
    count: Option<u64>,
    stop: &AtomicBool,
) -> Updates {
    let start = Instant::now();
    let mut u = Updates::default();
    for j in 0u64.. {
        if count.is_some_and(|n| j >= n) {
            break;
        }
        let due = start + Duration::from_secs_f64(j as f64 / rate);
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            sleep_until(due.min(Instant::now() + Duration::from_millis(5)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let a = w.step(d, tr, due);
        u.update_ms.push(ms(due, a.done));
        u.late_ms.push(ms(due, a.started));
    }
    u
}

/// The deterministic counting pass behind the per-layer counts: a fixed
/// number of closed-loop reads (after lockstep updates, if a writer is
/// given), with server counters snapshotted around it.
fn count_pass(
    c: &Ctx,
    d: &Deployment,
    conn: &mut Conn,
    mut next: impl FnMut(u64) -> (i64, i64),
    mut writer: Option<&mut Writer>,
    out: &mut Outcome,
) {
    let mut off = c.tracer(false);
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0xc0);
    let before = Counters::read(d);
    let mut reads = Reads::default();
    let (mut updates, mut messages) = (0u64, 0u64);
    for k in 0..COUNT_OPS {
        if let Some(w) = writer.as_deref_mut() {
            for _ in 0..COUNT_UPDATES_PER_READ {
                messages += w.step(d, &mut off, Instant::now()).messages as u64;
                updates += 1;
            }
        }
        if let Err(f) = read_one(d, conn, &mut off, &mut rng, k, next(k), false, &mut reads) {
            reads.failures.push(f);
        }
    }
    let cnt = Counters::read(d).since(&before);
    let b = reads.bytes;
    let per_query = |x: u64| x as f64 / COUNT_OPS as f64;
    let rate = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    out.layer("qs.agg_ops_per_answer", per_query(cnt.agg_ops));
    out.layer("qs.summaries_per_answer", b.per_answer(b.summaries as f64));
    out.layer("index.node_hit_rate", rate(cnt.node_hits, cnt.node_misses));
    out.layer(
        "index.node_evictions_per_query",
        per_query(cnt.node_evictions),
    );
    out.layer(
        "storage.pool_hit_rate",
        rate(cnt.pool_hits, cnt.pool_misses),
    );
    out.layer("storage.page_reads_per_query", per_query(cnt.page_reads));
    out.layer(
        "wire.checkpoint_bytes_per_answer",
        b.per_answer(b.checkpoint as f64),
    );
    out.layer("wire.model_drift", b.per_answer(b.model_drift));
    out.layer("wire.vo_size_error_bytes", b.per_answer(b.vo_error as f64));
    out.layer(
        "filters.summary_bitmap_bytes",
        b.per_answer(b.bitmap as f64),
    );
    out.layer("verify.records_per_answer", b.per_answer(b.records as f64));
    if updates > 0 {
        out.layer("da.sigs_per_update", messages as f64 / updates as f64);
    }
    out.attempted += updates;
    out.absorb_reads(reads);
}

/// Timing layers from a traced window's spans.
fn span_layers(tr: &Tracer, out: &mut Outcome) {
    let names = tr.by_name();
    let self_med = |n: &str| names.get(n).map_or(0.0, |(own, _)| median(own));
    let total_med = |n: &str| names.get(n).map_or(0.0, |(_, all)| median(all));
    out.layer("da.update_us", total_med("da.update"));
    out.layer("qs.apply_us", total_med("qs.apply"));
    out.layer("da.publish_ms", total_med("da.publish") / 1e3);
    out.layer("da.checkpoint_ms", total_med("da.checkpoint") / 1e3);
    let select = total_med("qs.select");
    let encode = total_med("wire.encode");
    let rtt = total_med("net.rtt");
    out.layer("qs.select_us", select);
    out.layer("wire.encode_us", encode);
    out.layer("wire.decode_us", total_med("wire.decode"));
    out.layer("net.rtt_us", rtt);
    out.layer("net.transport_us", rtt - select - encode);
    let total = total_med("verify.total") / 1e3;
    let auth = total_med("verify.auth") / 1e3;
    out.layer("verify.total_ms", total);
    out.layer("verify.auth_ms", auth);
    out.layer("verify.fresh_ms", total - auth);
    let path = ["net.rtt", "wire.decode", "verify.total"];
    let reads = tr.path_sums("read", &path);
    if !reads.is_empty() {
        // The blocking path of a verified read: its round trip, decode and
        // verify self times, summed per read before taking the median.
        let (total, sums): (Vec<f64>, Vec<f64>) = reads.into_iter().unzip();
        let (p50, path_p50) = (median(&total), median(&sums));
        let residual = (p50 - path_p50) / p50;
        out.layer("trace.accounting_residual", residual);
        out.notes.push(format!(
            "accounting: traced verified p50 {:.4} ms; p50 of rtt + decode + verify self times {:.4} ms \
             (medians {:.4} + {:.4} + {:.4}); residual {:+.2}% (bound 10%){}",
            p50 / 1e3,
            path_p50 / 1e3,
            self_med("net.rtt") / 1e3,
            self_med("wire.decode") / 1e3,
            self_med("verify.total") / 1e3,
            residual * 100.0,
            if residual.abs() <= 0.10 { "" } else { " EXCEEDED" }
        ));
    }
}

/// Tracing overhead: the p50 of traced operations against the untraced
/// ones they alternated with.
fn overhead(out: &mut Outcome, verified_ms: &[f64], traced: &[bool]) {
    let pick = |on: bool| -> Vec<f64> {
        verified_ms
            .iter()
            .zip(traced)
            .filter(|t| *t.1 == on)
            .map(|t| *t.0)
            .collect()
    };
    let (untraced_p50, traced_p50) = (median(&pick(false)), median(&pick(true)));
    let frac = (traced_p50 - untraced_p50) / untraced_p50;
    out.layer("trace.overhead_frac", frac);
    out.notes.push(format!(
        "tracing overhead: p50 {untraced_p50:.4} ms untraced, {traced_p50:.4} ms traced ({:+.2}%)",
        frac * 100.0
    ));
}

fn arm(c: &Ctx, d: &Deployment) {
    if c.tamper {
        d.server.set_tamper(Some(WireTamper::BitFlipSignature));
    }
}

/// Set up one deployment, timed, and arm the tamper self-test on it.
fn set_up(c: &Ctx, shape: Shape, setups: &mut Vec<f64>) -> Result<(Deployment, Conn), Failure> {
    let t = Instant::now();
    let (d, conn) = build(shape, c.seed, c.jobs)?;
    setups.push(t.elapsed().as_secs_f64());
    arm(c, &d);
    Ok((d, conn))
}

/// Slices a round's share of the window is cut into, so that every kind
/// of measurement is spread across the round instead of filling one
/// stretch of it.
fn slices(round_s: f64) -> usize {
    ((round_s / SLICE_S).round() as usize).max(1)
}

fn finish(
    c: &Ctx,
    d: Deployment,
    conn: Conn,
    setups: &[f64],
    wire_per_answer: f64,
    out: &mut Outcome,
) {
    out.e2e("setup_s", median(setups), Some(setups.len()));
    out.e2e("wire_bytes_per_answer", wire_per_answer, None);
    out.e2e("client_state_bytes", d.client_state_bytes as f64, None);
    out.note("setup_s_each", format!("{setups:?}"));
    out.note("deployment", format!("{:?}", d.shape));
    out.note("rounds", setups.len());
    out.note("tamper", c.tamper);
    shut(d, conn);
}

/// `scan` and `mixed`: closed-loop verified range reads, alone or beside
/// the DA's update stream.
pub fn ranged(c: &Ctx) -> Result<Outcome, Failure> {
    let mixed = c.workload == "mixed";
    let shape = c.shape().expect("workload checked by the caller");
    // On `mixed` a seam-crossing read carries two shards' summaries and
    // costs about twice as much to verify; a quarter of them cross, so the
    // median sits inside the single-shard mode instead of between the two.
    let (width, straddle) = if mixed { (32, 0.25) } else { (128, 0.5) };
    let mut out = Outcome::default();
    let mut gen = RangeGen::new(c.seed, shape, width, straddle);
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0x71);
    let cadence = mixed.then_some(MIXED_CADENCE);
    let rounds = c.setups();
    let round_s = c.seconds / rounds as f64;
    // `scan` alternates slices of reads with slices of the update stream
    // on the otherwise idle deployment; `mixed` runs both at once.
    let slices = if mixed { 1 } else { slices(round_s) };
    let slice_s = round_s / slices as f64;
    let (read_s, slice_updates) = if mixed {
        (slice_s, 0)
    } else {
        let n = (slice_s * PROBE_SHARE * PROBE_RATE).round().max(1.0) as u64;
        (slice_s * (1.0 - PROBE_SHARE), n)
    };
    // A traced run traces every other read, so traced and untraced reads
    // share the machine's conditions and their difference is the overhead.
    let mut tr = c.tracer(c.trace);
    let mut wtr = tr.fork();
    let mut reads = Reads::default();
    let mut ups = Updates::default();
    let mut setups = Vec::new();
    let (mut elapsed, mut periods) = (0.0, 0);
    let mut last = None;
    for round in 0..rounds {
        if let Some((d, conn)) = last.take() {
            shut(d, conn);
        }
        let (d, mut conn) = set_up(c, shape, &mut setups)?;
        let mut writer = Writer::new(&d, c.seed, cadence);
        if c.trace && round == 0 {
            let mut count_gen = RangeGen::new(c.seed ^ 0xc, shape, width, straddle);
            count_pass(
                c,
                &d,
                &mut conn,
                |_| count_gen.next(),
                mixed.then_some(&mut writer),
                &mut out,
            );
        }
        if mixed {
            let mut off = c.tracer(false);
            for _ in 0..MIXED_WARM_UPDATES {
                writer.step(&d, &mut off, Instant::now());
            }
            out.attempted += MIXED_WARM_UPDATES;
        }
        for _ in 0..slices {
            let stop = AtomicBool::new(false);
            let t0 = Instant::now();
            let concurrent = std::thread::scope(|s| {
                let w = mixed.then(|| {
                    s.spawn(|| write_at(&d, &mut writer, &mut wtr, MIXED_UPDATE_RATE, None, &stop))
                });
                let until = t0 + Duration::from_secs_f64(read_s);
                read_until(
                    &d, &mut conn, &mut tr, &mut gen, &mut rng, until, mixed, c.trace, &mut reads,
                );
                stop.store(true, Ordering::Relaxed);
                w.map(|h| h.join().expect("writer thread panicked"))
            });
            elapsed += t0.elapsed().as_secs_f64();
            let slice_ups = match concurrent {
                Some(u) => u,
                None => write_at(
                    &d,
                    &mut writer,
                    &mut wtr,
                    PROBE_RATE,
                    Some(slice_updates),
                    &AtomicBool::new(false),
                ),
            };
            ups.absorb(slice_ups);
        }
        periods += writer.periods;
        last = Some((d, conn));
    }
    let (d, conn) = last.expect("at least one round ran");
    tr.set_enabled(c.trace);
    tr.absorb(wtr);
    if mixed {
        out.note("update_rate", MIXED_UPDATE_RATE);
        out.note("cadence", format!("{MIXED_CADENCE:?}"));
        out.note("summary_periods", periods);
        out.note("truth_rechecks", reads.rechecks);
    } else {
        out.note("update_rate", PROBE_RATE);
        out.note("slices", rounds * slices);
    }
    out.attempted += ups.update_ms.len() as u64;
    let n = reads.verified_ms.len();
    out.e2e("served_qps", n as f64 / elapsed, Some(n));
    out.percentiles("verified_ms_p50", "verified_ms_p99", &reads.verified_ms);
    out.percentiles("answer_ms_p50", "answer_ms_p99", &reads.answer_ms);
    out.percentiles("update_ms_p50", "update_ms_p99", &ups.update_ms);
    out.note("query_records", width);
    if c.trace {
        replay(&d, &mut tr, &reads.issued, c.seed, REPLAYS);
        span_layers(&tr, &mut out);
        overhead(&mut out, &reads.verified_ms, &reads.traced);
        out.layer("net.gen_late_ms_p99", quantile(&ups.late_ms, 0.99));
        out.spans = Some(tr);
    }
    let wire = reads.bytes.per_answer(reads.bytes.wire as f64);
    out.absorb_reads(reads);
    finish(c, d, conn, &setups, wire, &mut out);
    Ok(out)
}

/// Decode, check and verify kept lookup frames, one after another on the
/// calling thread (verifiers running side by side on a two-vCPU host slow
/// each other down by more than half, and by how much depends on how they
/// happen to overlap). Appends verified latencies (the latency each answer
/// was received with plus its decode and verification) and whether each
/// was traced: a traced run traces every other one.
fn verify_sample(
    c: &Ctx,
    d: &Deployment,
    kept: &[Kept],
    tr: &mut Tracer,
    rng: &mut StdRng,
    verified: &mut Vec<(f64, bool)>,
    out: &mut Outcome,
) {
    let now: Tick = d.applied_tick.load(Ordering::Acquire);
    for k in kept {
        let ((lo, hi), req) = (k.query, k.req);
        // Alternate by kept position, not by request index: odd indices
        // are the gap lookups.
        tr.set_enabled(c.trace && verified.len() % 2 == 1);
        let t0 = Instant::now();
        let ans = match selection(&k.body) {
            Ok(a) => a,
            Err(f) => {
                out.failures.push(f);
                continue;
            }
        };
        let t1 = Instant::now();
        tr.record("wire.decode", req, None, t0, t1);
        let v = d
            .verifier
            .verify_sharded_selection(lo, hi, &ans, &d.view, now, true, rng);
        let t2 = Instant::now();
        tr.record("verify.total", req, None, t1, t2);
        if let Err(error) = v {
            out.failures.push(Failure::Verify { lo, hi, error });
            continue;
        }
        if tr.enabled() {
            let a0 = Instant::now();
            let _ = d
                .verifier
                .verify_sharded_selection(lo, hi, &ans, &d.view, now, false, rng);
            tr.record("verify.auth", req, None, a0, Instant::now());
        }
        let sa = d.sa.lock().expect("DA lock poisoned by a panicked writer");
        match check_truth(&sa, lo, hi, &ans) {
            Ok(()) => verified.push((k.answer_ms + ms(t0, t2), tr.enabled())),
            Err(f) => out.failures.push(f),
        }
    }
    tr.set_enabled(c.trace);
}

/// Find the highest offered rate that meets the latency limit: double
/// until a probe fails, then bisect (geometrically) to `SEARCH_STEP`.
fn search(
    c: &Ctx,
    conn: &mut Conn,
    records: i64,
    secs: f64,
    first: u64,
    out: &mut Outcome,
) -> Result<(f64, u64), Failure> {
    let probe_s = secs / SEARCH_PROBES as f64;
    let mut next = first;
    let mut probes = Vec::new();
    let mut busy = 0u64;
    // A rate fails only if two probes in a row miss the limit, so one
    // burst of scheduling stalls cannot end the search early.
    let mut try_rate = |rate: f64, probes: &mut Vec<String>| -> Result<bool, Failure> {
        for _ in 0..2 {
            let n = ((rate * probe_s) as u64).max(100);
            let st = offer(conn, c.seed, records, rate, next, n, &|_| false)?;
            next += n;
            busy += st.busy;
            let pass = st.meets_limit();
            probes.push(format!(
                "{rate:.0}/s:{}(p50 {:.3} ms, n {n})",
                if pass { "ok" } else { "over" },
                median(&st.answer_ms())
            ));
            std::thread::sleep(Duration::from_millis(20));
            if pass {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    while probes.len() < SEARCH_PROBES {
        let rate = if hi.is_infinite() {
            if lo == 0.0 {
                SEARCH_START
            } else {
                lo * 2.0
            }
        } else if lo == 0.0 {
            hi / 2.0
        } else if hi / lo > 1.0 + SEARCH_STEP {
            (lo * hi).sqrt()
        } else {
            break;
        };
        if try_rate(rate, &mut probes)? {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    out.note("search_probes", probes.join(" "));
    Ok((lo, busy))
}

/// `lookup`: open-loop point lookups at a nominal rate, each slice's kept
/// frames verified after it and followed by a slice of the update stream;
/// then the served-rate search on the last deployment.
pub fn lookup(c: &Ctx) -> Result<Outcome, Failure> {
    let shape = c.shape().expect("workload checked by the caller");
    let records = shape.records;
    let mut out = Outcome::default();
    let rounds = c.setups();
    let slices = slices(c.seconds / rounds as f64);
    let parts = (rounds * slices) as u64;
    let slice_n = ((NOMINAL_RATE * c.seconds * NOMINAL_SHARE) as u64 / parts).max(1);
    let slice_updates = ((c.seconds * PROBE_SHARE * PROBE_RATE) as u64 / parts).max(1);
    let every = (slice_n * parts / SAMPLE_TARGET).max(1);
    let seed = c.seed;
    let keep = move |i: u64| sampled(seed, i, every);
    let mut tr = c.tracer(c.trace);
    let mut wtr = tr.fork();
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0x5e);
    let (mut answer, mut late) = (Vec::new(), Vec::new());
    let (mut shed, mut bytes) = (0u64, 0u64);
    let mut verified = Vec::new();
    let mut issued = Vec::new();
    let mut ups = Updates::default();
    let mut setups = Vec::new();
    let mut next = 0u64;
    let mut last = None;
    for round in 0..rounds {
        if let Some((d, conn)) = last.take() {
            shut(d, conn);
        }
        let (d, mut conn) = set_up(c, shape, &mut setups)?;
        if c.trace && round == 0 {
            let salt = c.seed ^ 0xc;
            count_pass(
                c,
                &d,
                &mut conn,
                |k| point(salt, k, records),
                None,
                &mut out,
            );
        }
        let mut writer = Writer::new(&d, c.seed, None);
        for _ in 0..slices {
            let st = offer(
                &mut conn,
                c.seed,
                records,
                NOMINAL_RATE,
                next,
                slice_n,
                &keep,
            )?;
            // Lookup spans are built from the stretch's own timestamps
            // after it ends, so tracing adds nothing to the offered path.
            st.trace_into(&mut tr, next);
            next += slice_n;
            answer.extend(st.answer_ms());
            late.extend(st.late_ms());
            shed += st.busy;
            bytes += st.bytes;
            verify_sample(c, &d, &st.kept, &mut tr, &mut rng, &mut verified, &mut out);
            issued.extend(st.kept.iter().map(|k| k.query));
            ups.absorb(write_at(
                &d,
                &mut writer,
                &mut wtr,
                PROBE_RATE,
                Some(slice_updates),
                &AtomicBool::new(false),
            ));
        }
        last = Some((d, conn));
    }
    let (d, mut conn) = last.expect("at least one round ran");
    tr.absorb(wtr);
    let late_p99 = quantile(&late, 0.99);
    if late_p99 > LATE_BOUND_MS {
        out.invalid = Some(format!(
            "the lookup generator ran {late_p99:.3} ms late at its p99 (bound {LATE_BOUND_MS} ms)"
        ));
    }
    let (served, busy) = search(
        c,
        &mut conn,
        records,
        c.seconds * SEARCH_SHARE,
        next,
        &mut out,
    )?;
    out.attempted += answer.len() as u64 + ups.update_ms.len() as u64;
    out.shed += shed;
    let (verified, traced): (Vec<f64>, Vec<bool>) = verified.into_iter().unzip();
    out.percentiles("answer_ms_p50", "answer_ms_p99", &answer);
    out.percentiles("verified_ms_p50", "verified_ms_p99", &verified);
    out.percentiles("update_ms_p50", "update_ms_p99", &ups.update_ms);
    out.e2e("served_qps", served, None);
    out.note("nominal_rate", NOMINAL_RATE);
    out.note("update_rate", PROBE_RATE);
    out.note("slices", parts);
    out.note("sample_every", every);
    out.note("generator_late_ms_p99", late_p99);
    if c.trace {
        replay(&d, &mut tr, &issued, c.seed, REPLAYS);
        span_layers(&tr, &mut out);
        overhead(&mut out, &verified, &traced);
        out.layer("net.gen_late_ms_p99", late_p99);
        out.layer("net.busy_sheds", (shed + busy) as f64);
        out.spans = Some(tr);
    }
    let wire = bytes as f64 / answer.len().max(1) as f64;
    finish(c, d, conn, &setups, wire, &mut out);
    Ok(out)
}
