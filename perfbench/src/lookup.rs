//! Open-loop point lookups: requests go out on a fixed schedule whatever
//! the server's pace, pipelined on one connection, and each is timed from
//! when it was due. Responses come back in request order on a connection,
//! so they are matched by arrival order. Only a seeded sample of response
//! frames is kept; the rest are counted and dropped, so memory does not
//! grow with throughput.

use std::io::{BufReader, Write};
use std::net::Shutdown;
use std::time::{Duration, Instant};

use authdb_core::wire::Response;
use authdb_wire::frame;

use crate::deploy::{read_body, select, Conn, Failure, STRIDE};
use crate::trace::{median, ms, Tracer};

/// The answer-latency limit a served rate must meet at its median. (Not a
/// tail percentile: on a small shared VM a thread that only sleeps misses
/// its wake-up by over 1.5 ms about 25 times a second, and in busy spells
/// a p90 over 2 ms shows up at a hundred requests a second. A tail limit
/// would measure the neighbours; the median still rises steeply once the
/// server falls behind.)
const LIMIT_MS: f64 = 2.0;
/// The generator's spin before a due time (only at rates where that
/// costs at most a tenth of a core).
const SPIN_US: u64 = 60;

/// Seeded point queries: even draws hit a key, odd draws land in the gap
/// after one, so half the answers carry a gap proof.
pub fn point(seed: u64, i: u64, records: i64) -> (i64, i64) {
    let h = mix(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let key =
        (h % records as u64) as i64 * STRIDE + if i.is_multiple_of(2) { 0 } else { STRIDE / 2 };
    (key, key)
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether request `i` belongs to the kept sample (one in `every`).
pub fn sampled(seed: u64, i: u64, every: u64) -> bool {
    mix(seed ^ 0x5a4d ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)).is_multiple_of(every)
}

/// A kept response frame, decoded and verified after its stretch ends.
pub struct Kept {
    pub req: u64,
    pub query: (i64, i64),
    /// Due → response frame received.
    pub answer_ms: f64,
    pub body: Vec<u8>,
}

/// One open-loop stretch at a fixed offered rate.
pub struct Stretch {
    pub due: Vec<Instant>,
    pub sent: Vec<Instant>,
    pub arrived: Vec<Instant>,
    pub busy: u64,
    /// Response bytes on the wire, headers included.
    pub bytes: u64,
    pub kept: Vec<Kept>,
}

impl Stretch {
    /// Due → response frame received, per request.
    pub fn answer_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.arrived)
            .map(|(&a, &b)| ms(a, b))
            .collect()
    }

    /// Due → sent: how late the generator ran.
    pub fn late_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(&a, &b)| ms(a, b))
            .collect()
    }

    /// The offered rate met the latency limit: nothing shed, and the
    /// limit held in both halves of the stretch (a backlog that keeps
    /// growing shows as a second half over the limit). A late generator
    /// shows up here too: latency counts from when a request was due.
    pub fn meets_limit(&self) -> bool {
        let answer = self.answer_ms();
        let (early, late) = answer.split_at(answer.len() / 2);
        self.busy == 0 && median(early) <= LIMIT_MS && median(late) <= LIMIT_MS
    }

    /// Spans for every request: `answer` (due → received) over
    /// `net.gen_wait` (due → sent) and `net.rtt` (sent → received).
    pub fn trace_into(&self, tr: &mut Tracer, first: u64) {
        for k in 0..self.due.len() {
            let req = first + k as u64;
            let root = tr.open("answer", req, None, self.due[k]);
            tr.record("net.gen_wait", req, root, self.due[k], self.sent[k]);
            tr.record("net.rtt", req, root, self.sent[k], self.arrived[k]);
            tr.close(root, self.arrived[k]);
        }
    }
}

/// Offer `count` lookups at `rate` per second, starting at request index
/// `first`; keep the frames `keep` selects.
pub fn offer(
    conn: &mut Conn,
    seed: u64,
    records: i64,
    rate: f64,
    first: u64,
    count: u64,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Result<Stretch, Failure> {
    let busy_body = frame(&Response::Busy)[4..].to_vec();
    let mut reader = BufReader::with_capacity(1 << 16, conn.stream.try_clone()?);
    let start = Instant::now() + Duration::from_millis(2);
    let due: Vec<Instant> = (0..count)
        .map(|k| start + Duration::from_secs_f64(k as f64 / rate))
        .collect();
    let mut sent = Vec::with_capacity(count as usize);
    let (arrived, busy, bytes, kept_bodies) = std::thread::scope(|s| {
        let rx = s.spawn(move || -> Result<_, Failure> {
            let mut arrived = Vec::with_capacity(count as usize);
            let (mut busy, mut bytes) = (0u64, 0u64);
            let mut kept = Vec::new();
            for k in 0..count {
                let body = read_body(&mut reader)?;
                arrived.push(Instant::now());
                bytes += 4 + body.len() as u64;
                if body == busy_body {
                    busy += 1;
                } else if keep(first + k) {
                    kept.push((k, body));
                }
            }
            Ok((arrived, busy, bytes, kept))
        });
        let mut buf = Vec::new();
        let mut k = 0usize;
        // A sleep overshoots by tens of microseconds, so at low rates the
        // generator sleeps short and spins the rest; at high rates spinning
        // would take a core from the server, so it sleeps and sends every
        // request that fell due meanwhile in one write.
        let spin = Duration::from_micros(SPIN_US);
        let spins = rate <= 1e6 / (10 * SPIN_US) as f64;
        let tx = (|| -> Result<(), Failure> {
            while k < due.len() {
                let next = due[k];
                let now = Instant::now();
                if next > now {
                    let wait = next - now;
                    if !spins {
                        std::thread::sleep(wait);
                    } else if wait > spin {
                        std::thread::sleep(wait - spin);
                    }
                    while Instant::now() < next {
                        std::hint::spin_loop();
                    }
                }
                // Everything due by now leaves in one write.
                let now = Instant::now();
                while k < due.len() && due[k] <= now {
                    let (lo, hi) = point(seed, first + k as u64, records);
                    buf.extend_from_slice(&frame(&select(lo, hi)));
                    k += 1;
                }
                conn.stream.write_all(&buf)?;
                buf.clear();
                sent.resize(k, Instant::now());
            }
            Ok(())
        })();
        if tx.is_err() {
            // Unblock the reader: nothing more will be answered.
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let rx = rx.join().expect("reader thread panicked");
        tx.and(rx)
    })?;
    let kept = kept_bodies
        .into_iter()
        .map(|(k, body)| Kept {
            req: first + k,
            query: point(seed, first + k, records),
            answer_ms: ms(due[k as usize], arrived[k as usize]),
            body,
        })
        .collect();
    Ok(Stretch {
        due,
        sent,
        arrived,
        busy,
        bytes,
        kept,
    })
}
