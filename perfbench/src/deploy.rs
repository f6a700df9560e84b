//! The deployment under test, the client's raw connection to it, the
//! ground-truth gate, and per-answer byte accounting.
//!
//! A deployment is the real stack: a BAS-signing `ShardedAggregator` (the
//! DA), a `ShardedQueryServer` behind a loopback-TCP `QsServer`, and a
//! client holding a `Verifier` and the `EpochView` it pinned from the
//! server's `EpochBootstrap`. The client speaks the wire protocol itself
//! (frame, write, read, deframe) so that each of those steps can be timed
//! on its own.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

use authdb_core::da::{DaConfig, SigningMode};
use authdb_core::qs::{QsOptions, QueryError, SelectionAnswer};
use authdb_core::record::{Schema, Tick};
use authdb_core::shard::{ShardedAggregator, ShardedQueryServer, ShardedSelectionAnswer};
use authdb_core::verify::{EpochView, Verifier, VerifyError};
use authdb_core::wire::{Request, Response};
use authdb_crypto::signer::{PublicParams, SchemeKind};
use authdb_net::{QsServer, QsServerOptions};
use authdb_sim::cost::wire_model;
use authdb_wire::{deframe, frame, frame_body_len, WireEncode, WireError, DEFAULT_MAX_FRAME_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keys are multiples of this, so every key has gaps on both sides.
pub const STRIDE: i64 = 10;
/// Key plus one payload attribute.
pub const NUM_ATTRS: usize = 2;
/// A compressed BAS signature (the codec adds a one-byte scheme tag).
const SIG_LEN: usize = 33;

/// What a workload deploys.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub records: i64,
    pub shards: i64,
    /// Summary period in ticks. Workloads that never advance the clock
    /// past it never publish a summary.
    pub rho: Tick,
}

/// Records per range query in the set-up's cache warm-up sweep.
const WARM_SPAN: i64 = 512;

impl Shape {
    /// One past the largest bootstrap key.
    pub fn key_span(&self) -> i64 {
        self.records * STRIDE
    }

    pub fn splits(&self) -> Vec<i64> {
        (1..self.shards)
            .map(|i| i * self.key_span() / self.shards)
            .collect()
    }
}

/// Why an operation did not end in a correct, verified answer. Fields are
/// read through `Debug` when a failure is printed.
#[derive(Debug)]
#[allow(dead_code)]
pub enum Failure {
    /// The verifier rejected an answer the honest server sent.
    Verify {
        lo: i64,
        hi: i64,
        error: VerifyError,
    },
    /// The answer verified but disagrees with the DA's own records.
    Mismatch {
        lo: i64,
        hi: i64,
        detail: String,
    },
    Io(String),
    Wire(WireError),
    /// The server shed the request under load.
    Busy,
    Refused(QueryError),
    Protocol(&'static str),
}

impl From<WireError> for Failure {
    fn from(e: WireError) -> Self {
        Failure::Wire(e)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Io(e.to_string())
    }
}

/// The client's connection: framed requests out, frame bodies in.
pub struct Conn {
    pub stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, Failure> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    pub fn send(&mut self, req: &Request) -> Result<(), Failure> {
        self.stream.write_all(&frame(req))?;
        Ok(())
    }

    /// Read one response frame; returns its body (version byte + payload).
    pub fn recv(&mut self) -> Result<Vec<u8>, Failure> {
        read_body(&mut self.stream)
    }

    pub fn call(&mut self, req: &Request) -> Result<Vec<u8>, Failure> {
        self.send(req)?;
        self.recv()
    }
}

pub fn read_body(r: &mut impl Read) -> Result<Vec<u8>, Failure> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = frame_body_len(header, DEFAULT_MAX_FRAME_LEN)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Decode a response body that must carry a selection answer.
pub fn selection(body: &[u8]) -> Result<ShardedSelectionAnswer, Failure> {
    match deframe::<Response>(body)? {
        Response::Selection(a) => Ok(a),
        Response::Busy => Err(Failure::Busy),
        Response::Refused(e) => Err(Failure::Refused(e)),
        _ => Err(Failure::Protocol("expected a selection answer")),
    }
}

pub fn select(lo: i64, hi: i64) -> Request {
    Request::Select { lo, hi }
}

pub fn da_config(rho: Tick) -> DaConfig {
    DaConfig {
        schema: Schema::new(NUM_ATTRS, 64),
        scheme: SchemeKind::Bas,
        mode: SigningMode::Chained,
        rho,
        // Signature renewal never triggers within a run.
        rho_prime: 1 << 40,
        buffer_pages: 4096,
        fill: 2.0 / 3.0,
    }
}

/// A running deployment plus the client side the set-up produced.
pub struct Deployment {
    pub shape: Shape,
    /// The DA. Writers hold the lock across signing *and* applying at the
    /// QS, so a reader holding it sees the DA and the QS in step.
    pub sa: Mutex<ShardedAggregator>,
    pub server: QsServer,
    pub verifier: Verifier,
    pub view: EpochView,
    pub pp: PublicParams,
    /// The encoded `EpochBootstrap` the client pinned.
    pub client_state_bytes: usize,
    /// Every bootstrap record as (shard, rid, key).
    pub live: Vec<(usize, u64, i64)>,
    /// Updates fully applied at the QS (bumped under the DA lock).
    pub applied_updates: AtomicU64,
    /// The DA clock once every summary up to it is applied at the QS:
    /// the `now` readers check freshness at.
    pub applied_tick: AtomicU64,
}

/// The timed set-up: bootstrap signing, QS build, server spawn, client
/// epoch bootstrap and a cache warm-up sweep over the whole key space.
/// Returns the deployment and the client's connection to it.
pub fn build(shape: Shape, seed: u64, jobs: usize) -> Result<(Deployment, Conn), Failure> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7u64);
    let rows: Vec<Vec<i64>> = (0..shape.records)
        .map(|i| vec![i * STRIDE, rng.gen_range(0..1_000_000i64)])
        .collect();
    let mut sa = ShardedAggregator::new(da_config(shape.rho), shape.splits(), &mut rng);
    let boots = sa.bootstrap(rows, jobs);
    let live = boots
        .iter()
        .enumerate()
        .flat_map(|(s, b)| b.records.iter().map(move |r| (s, r.rid, r.attrs[0])))
        .collect();
    let pp = sa.public_params();
    let sqs = ShardedQueryServer::from_bootstraps(
        pp.clone(),
        sa.config(),
        sa.map().clone(),
        &boots,
        &QsOptions::default(),
    );
    drop(boots);
    let server = QsServer::spawn(sqs, QsServerOptions::default())
        .map_err(|e| Failure::Io(format!("{e:?}")))?;
    let mut conn = Conn::connect(server.addr())?;
    let boot = match deframe::<Response>(&conn.call(&Request::Checkpoint)?)? {
        Response::Checkpoint(b) => *b,
        _ => return Err(Failure::Protocol("expected an epoch bootstrap")),
    };
    let view = EpochView::from_bootstrap(&boot, &pp).map_err(|error| Failure::Verify {
        lo: 0,
        hi: 0,
        error,
    })?;
    let client_state_bytes = encoded_len(&boot);
    let step = WARM_SPAN * STRIDE;
    for lo in (0..shape.key_span()).step_by(step as usize) {
        selection(&conn.call(&select(lo, lo + step - 1))?)?;
    }
    let verifier = Verifier::new(pp.clone(), sa.config().schema, sa.config().rho);
    let d = Deployment {
        shape,
        sa: Mutex::new(sa),
        server,
        verifier,
        view,
        pp,
        client_state_bytes,
        live,
        applied_updates: AtomicU64::new(0),
        applied_tick: AtomicU64::new(0),
    };
    Ok((d, conn))
}

/// Close the client and stop the server, waiting for its event loop.
pub fn shut(d: Deployment, conn: Conn) {
    drop(conn);
    d.server.shutdown();
}

pub fn encoded_len<T: WireEncode>(x: &T) -> usize {
    let mut v = Vec::new();
    x.encode_into(&mut v);
    v.len()
}

/// The gate: every part of a verified answer must hold exactly the records
/// the DA itself holds for that shard's sub-range.
pub fn check_truth(
    sa: &ShardedAggregator,
    lo: i64,
    hi: i64,
    ans: &ShardedSelectionAnswer,
) -> Result<(), Failure> {
    let want = sa.map().overlapping(lo, hi);
    let mismatch = |detail: String| Failure::Mismatch { lo, hi, detail };
    if want.len() != ans.parts.len() {
        return Err(mismatch(format!(
            "{} parts, the map overlaps {} shards",
            ans.parts.len(),
            want.len()
        )));
    }
    for (part, &(shard, (sub_lo, sub_hi))) in ans.parts.iter().zip(&want) {
        if part.shard != shard {
            return Err(mismatch(format!(
                "part for shard {}, want {shard}",
                part.shard
            )));
        }
        let truth = sa.shard(shard).query_range(sub_lo, sub_hi);
        if part.answer.records != truth {
            return Err(mismatch(format!(
                "shard {shard}: {} records, the DA holds {}",
                part.answer.records.len(),
                truth.len()
            )));
        }
    }
    Ok(())
}

/// Byte and content counts summed over answers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bytes {
    pub answers: u64,
    /// Whole response frames, header included.
    pub wire: u64,
    /// Sum of (measured − `wire_model`) / measured.
    pub model_drift: f64,
    /// Sum of (wire bytes that are neither records, summaries nor
    /// checkpoints) − `vo_size`.
    pub vo_error: i64,
    pub checkpoint: u64,
    pub bitmap: u64,
    pub summaries: u64,
    pub records: u64,
}

impl Bytes {
    pub fn add(&mut self, ans: &ShardedSelectionAnswer, wire: usize, pp: &PublicParams) {
        let shape = |a: &SelectionAnswer| wire_model::AnswerShape {
            records: a.records.len(),
            gap: a.gap.is_some(),
            vacancy: a.vacancy.is_some(),
            summaries: a.summaries.len(),
            summary_bitmap_bytes: a.summaries.iter().map(|s| s.compressed.len()).sum(),
        };
        let shapes: Vec<_> = ans.parts.iter().map(|p| shape(&p.answer)).collect();
        let model = wire_model::sharded_selection_response(
            ans.map.splits().len(),
            &shapes,
            NUM_ATTRS,
            SIG_LEN,
        );
        let mut payload = 0usize;
        for p in &ans.parts {
            let a = &p.answer;
            payload += a.records.iter().map(encoded_len).sum::<usize>();
            payload += a.summaries.iter().map(|s| encoded_len(&**s)).sum::<usize>();
            let ckpt = a.checkpoint.as_ref().map_or(0, encoded_len);
            payload += ckpt;
            self.checkpoint += ckpt as u64;
            self.bitmap += a
                .summaries
                .iter()
                .map(|s| s.compressed.len() as u64)
                .sum::<u64>();
            self.summaries += a.summaries.len() as u64;
            self.records += a.records.len() as u64;
        }
        self.answers += 1;
        self.wire += wire as u64;
        self.model_drift += (wire as f64 - model as f64) / wire as f64;
        self.vo_error += (wire - payload) as i64 - ans.vo_size(pp) as i64;
    }

    pub fn per_answer(&self, x: f64) -> f64 {
        x / self.answers.max(1) as f64
    }
}
