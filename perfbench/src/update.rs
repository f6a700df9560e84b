//! The DA-side update stream: seeded modifies, inserts and deletes, each
//! signed by the DA and applied at the QS, with summary periods closed and
//! shard logs checkpointed by operation count (never by wall time), so the
//! schedule is a function of the seed and the number of updates applied.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::time::Instant;

use authdb_core::da::UpdateMsg;
use authdb_core::shard::ShardedAggregator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{Deployment, STRIDE};
use crate::trace::Tracer;

/// When the stream closes summary periods and compacts shard logs.
#[derive(Clone, Copy, Debug)]
pub struct Cadence {
    /// Updates per summary period (one clock tick each, ρ = 1).
    pub per_period: u64,
    /// Periods between per-shard summary checkpoints.
    pub checkpoint_every: u64,
    /// Summaries each checkpoint leaves in the retained log.
    pub keep: usize,
}

/// Timing and counts of one update, from its due time to the moment every
/// message it produced (and any publication it triggered) was applied.
pub struct Applied {
    /// When the writer got to this update (later than due if it fell behind).
    pub started: Instant,
    pub done: Instant,
    pub messages: usize,
}

pub struct Writer {
    rng: StdRng,
    live: Vec<(usize, u64, i64)>,
    keys: HashSet<i64>,
    key_span: i64,
    cadence: Option<Cadence>,
    updates: u64,
    pub periods: u64,
}

impl Writer {
    pub fn new(d: &Deployment, seed: u64, cadence: Option<Cadence>) -> Self {
        Writer {
            rng: StdRng::seed_from_u64(seed ^ 0xda),
            keys: d.live.iter().map(|l| l.2).collect(),
            live: d.live.clone(),
            key_span: d.shape.key_span(),
            cadence,
            updates: 0,
            periods: 0,
        }
    }

    /// Apply the next update of the schedule. Mostly in-place modifies;
    /// one in ten inserts a new key and one in ten deletes a record, so
    /// the index structure changes while its size stays level.
    pub fn step(&mut self, d: &Deployment, tr: &mut Tracer, due: Instant) -> Applied {
        let req = self.updates;
        let started = Instant::now();
        let root = tr.open("update", req, None, due);
        let mut sa = d.sa.lock().expect("DA lock poisoned by a panicked writer");
        let roll = self.rng.gen_range(0..10u32);
        let value = self.rng.gen_range(0..1_000_000i64);
        let t0 = Instant::now();
        let msgs: Vec<(usize, UpdateMsg)> = if roll == 0 && self.live.len() > 1 {
            let (shard, rid, key) = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            self.keys.remove(&key);
            sa.delete_record(shard, rid)
        } else if roll == 1 {
            let key = loop {
                let k = self.rng.gen_range(0..self.key_span / STRIDE) * STRIDE
                    + self.rng.gen_range(1..STRIDE);
                if self.keys.insert(k) {
                    break k;
                }
            };
            let (shard, msgs) = sa.insert(vec![key, value]);
            let rid = msgs
                .iter()
                .find(|m| m.record.attrs[0] == key)
                .expect("an insert certifies the new record")
                .record
                .rid;
            self.live.push((shard, rid, key));
            msgs.into_iter().map(|m| (shard, m)).collect()
        } else {
            let i = self.rng.gen_range(0..self.live.len());
            let (shard, rid, key) = self.live[i];
            sa.update_record(shard, rid, vec![key, value]).1
        };
        let t1 = Instant::now();
        tr.record("da.update", req, root, t0, t1);
        d.server.with_server(|s| {
            for (shard, m) in &msgs {
                s.apply(*shard, m);
            }
        });
        let mut done = Instant::now();
        tr.record("qs.apply", req, root, t1, done);
        self.updates += 1;
        if let Some(c) = self.cadence {
            if self.updates.is_multiple_of(c.per_period) {
                done = self.close_period(&mut sa, d, c, tr, root);
            }
        }
        d.applied_updates.fetch_add(1, Ordering::AcqRel);
        drop(sa);
        tr.close(root, done);
        Applied {
            started,
            done,
            messages: msgs.len(),
        }
    }

    fn close_period(
        &mut self,
        sa: &mut ShardedAggregator,
        d: &Deployment,
        c: Cadence,
        tr: &mut Tracer,
        root: Option<usize>,
    ) -> Instant {
        let req = self.periods;
        let t0 = Instant::now();
        sa.advance_clock(1);
        let published = sa.maybe_publish_summaries();
        d.server.with_server(|s| {
            for (shard, summary, recerts) in published {
                s.add_summary(shard, summary);
                for m in &recerts {
                    s.apply(shard, m);
                }
            }
        });
        let mut done = Instant::now();
        tr.record("da.publish", req, root, t0, done);
        self.periods += 1;
        if self.periods.is_multiple_of(c.checkpoint_every) {
            let t1 = done;
            for shard in 0..sa.map().shard_count() {
                if let Some(ckpt) = sa.checkpoint_shard_summaries(shard, c.keep) {
                    d.server.with_server(|s| s.apply_checkpoint(shard, ckpt));
                }
            }
            done = Instant::now();
            tr.record("da.checkpoint", req, root, t1, done);
        }
        d.applied_tick.store(sa.now(), Ordering::Release);
        done
    }
}
