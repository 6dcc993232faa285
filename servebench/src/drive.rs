//! Load generation: open loop on a fixed schedule, closed loop with a
//! low-rate writer beside it, and push-mode streaming with a subscriber.
//! Each phase uses at most two threads and two connections.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use mda_server::protocol::{Reply, Request, ResponseBody, StreamEventBody};

use crate::gen::{frame, Inputs, PUSH_BATCH, STAGING_NAME, STREAMS};
use crate::wire::{recv_from, Conn};

/// One request sent on a schedule, and what came back.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Which input the request carried (phase-specific index).
    pub input: usize,
    /// When the schedule wanted it sent.
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its reply arrived, and the reply.
    pub reply: Option<(Instant, Reply)>,
}

impl Sent {
    /// Latency from the due time to the reply, µs.
    pub fn latency_us(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|(at, _)| at.duration_since(self.due).as_secs_f64() * 1e6)
    }

    /// How late the generator wrote the request, µs.
    pub fn late_us(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// Waits until `due`: sleeps while it is far off, then spins, so the
/// request leaves on time instead of one scheduler wake-up late.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// An evenly spaced open-loop schedule: `rate` requests per second for
/// `seconds`, numbering inputs from `first_input`.
pub fn schedule(rate: f64, seconds: f64, first_input: usize) -> Vec<(Duration, usize)> {
    let n = (rate * seconds).round().max(1.0) as usize;
    (0..n)
        .map(|i| (Duration::from_secs_f64(i as f64 / rate), first_input + i))
        .collect()
}

/// Sends `make(input)` at each scheduled offset regardless of replies,
/// while a second thread collects replies. Each request is timed from when
/// it was due, so a stall also charges the requests queued behind it.
///
/// # Errors
///
/// Transport failures on the sending side.
pub fn open_loop(
    conn: &mut Conn,
    plan: &[(Duration, usize)],
    make: &dyn Fn(usize) -> Request,
) -> Result<Vec<Sent>, String> {
    let n = plan.len();
    let mut reader = conn.reader_handle()?;
    let first_id = conn.take_id();
    let start = Instant::now() + Duration::from_millis(1);
    let (mut sent, replies) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                match recv_from(&mut reader) {
                    Ok(reply) => got.push((Instant::now(), reply)),
                    Err(_) => break,
                }
            }
            got
        });
        let mut sent = Vec::with_capacity(n);
        for (i, &(offset, input)) in plan.iter().enumerate() {
            let due = start + offset;
            let id = if i == 0 { first_id } else { conn.take_id() };
            let bytes = frame(id, make(input));
            wait_until(due);
            if conn.send(&bytes).is_err() {
                break;
            }
            sent.push(Sent {
                input,
                due,
                sent: Instant::now(),
                reply: None,
            });
        }
        (sent, rx.join().expect("reply reader panicked"))
    });
    for (at, reply) in replies {
        let slot = reply.id.checked_sub(first_id).map(|k| k as usize);
        if let Some(entry) = slot.and_then(|k| sent.get_mut(k)) {
            entry.reply = Some((at, reply));
        }
    }
    if sent.len() < n {
        return Err(format!("sent only {} of {n} requests", sent.len()));
    }
    Ok(sent)
}

/// One closed-loop mining query.
#[derive(Debug, Clone)]
pub struct Query {
    /// `true` for `knn`, `false` for `search`.
    pub knn: bool,
    /// Index into the phase's query pool.
    pub input: usize,
    /// Latency, µs.
    pub latency_us: f64,
    /// The reply (`None` on transport failure).
    pub reply: Option<ResponseBody>,
}

/// One re-upload beside the queries.
#[derive(Debug, Clone)]
pub struct Upload {
    /// The corpus version uploaded.
    pub version: u64,
    /// Latency, µs.
    pub latency_us: f64,
    /// Whether the server acknowledged that version.
    pub ok: bool,
}

/// Queries per mining cycle; the last of each cycle is a search.
pub const MINING_CYCLE: usize = 12;

/// Query `i` of the mining loop: eleven kNN queries to every search, so the
/// data-dependent search cost stays near a quarter of the phase's server
/// CPU.
/// Returns whether it is a kNN query and its index among its kind.
pub fn mining_query(i: usize) -> (bool, usize) {
    if i % MINING_CYCLE == MINING_CYCLE - 1 {
        (false, i / MINING_CYCLE)
    } else {
        (true, i - i / MINING_CYCLE)
    }
}

/// Closed-loop mining: one client sends kNN and search queries back to
/// back for `seconds`, while a second connection re-uploads a new version
/// of the staging corpus every `upload_every`. Query numbering starts at
/// `first`; staging versions continue from `version`, which is updated.
///
/// # Errors
///
/// Transport failures.
pub fn mining(
    conn: &mut Conn,
    addr: &str,
    inputs: &Inputs,
    seconds: f64,
    first: usize,
    upload_every: Option<Duration>,
    version: &mut u64,
) -> Result<(Vec<Query>, Vec<Upload>), String> {
    let first_version = *version;
    let stop = AtomicBool::new(false);
    let mut uploader = match upload_every {
        Some(_) => Some(Conn::connect(addr)?),
        None => None,
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (queries, uploads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut uploads = Vec::new();
            let (Some(conn), Some(every)) = (uploader.as_mut(), upload_every) else {
                return uploads;
            };
            let mut v = first_version;
            let mut due = start + every;
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep((due - now).min(Duration::from_millis(20)));
                    continue;
                }
                v += 1;
                let id = conn.take_id();
                let bytes = frame(
                    id,
                    Request::UploadDataset {
                        name: STAGING_NAME.into(),
                        entries: inputs.corpus_version(v),
                    },
                );
                let t0 = Instant::now();
                let ok = conn.send(&bytes).is_ok()
                    && matches!(conn.recv(), Ok(reply) if reply.id == id
                        && matches!(reply.body, ResponseBody::DatasetUploaded { version, .. } if version == v));
                uploads.push(Upload {
                    version: v,
                    latency_us: t0.elapsed().as_secs_f64() * 1e6,
                    ok,
                });
                if !ok {
                    break;
                }
                due += every;
            }
            uploads
        });
        let mut queries = Vec::new();
        let mut i = first;
        while Instant::now() < end {
            let (knn, input) = mining_query(i);
            i += 1;
            let req = if knn {
                inputs.knn_request(input)
            } else {
                inputs.search_request(input)
            };
            let id = conn.take_id();
            let bytes = frame(id, req);
            let t0 = Instant::now();
            let reply = conn
                .send(&bytes)
                .and_then(|()| conn.recv())
                .ok()
                .filter(|r| r.id == id)
                .map(|r| r.body);
            let latency_us = t0.elapsed().as_secs_f64() * 1e6;
            let failed = reply.is_none();
            queries.push(Query {
                knn,
                input,
                latency_us,
                reply,
            });
            if failed {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        (queries, writer.join().expect("uploader panicked"))
    });
    if let Some(last) = uploads.iter().rev().find(|u| u.ok) {
        *version = last.version;
    }
    Ok((queries, uploads))
}

/// A push batch and when its last point's event reached the subscriber.
#[derive(Debug, Clone)]
pub struct Push {
    /// Stream index into [`STREAMS`].
    pub stream: usize,
    /// Batch number on that stream (0 is the set-up prefill).
    pub batch: u64,
    /// Stream epoch after the batch.
    pub epoch: u64,
    /// Due time.
    pub due: Instant,
    /// Write time.
    pub sent: Instant,
    /// Whether the push was acknowledged with the expected epoch.
    pub acked: bool,
}

/// Everything the subscriber received.
#[derive(Debug, Default)]
pub struct Received {
    /// `(arrival, event)` in arrival order.
    pub events: Vec<(Instant, StreamEventBody)>,
}

/// Stream ids and per-stream batch counters of the open streams.
#[derive(Debug, Clone)]
pub struct Streams {
    /// Server-assigned ids, index-aligned with [`STREAMS`].
    pub ids: Vec<u64>,
    /// Batches pushed so far per stream (including the prefill).
    pub batches: Vec<u64>,
}

impl Streams {
    /// Stream epoch after `batches` batches.
    pub fn epoch_after(s: usize, batches: u64) -> u64 {
        if batches == 0 {
            0
        } else {
            STREAMS[s].0 as u64 + (batches - 1) * PUSH_BATCH as u64
        }
    }
}

/// Open-loop streaming: `push_points` batches round-robin over the
/// streams at `rate` batches per second for `seconds`, while a second
/// connection subscribed to every stream collects the events.
///
/// # Errors
///
/// Transport failures or a rejected subscription.
pub fn stream(
    conn: &mut Conn,
    addr: &str,
    inputs: &Inputs,
    streams: &mut Streams,
    rate: f64,
    seconds: f64,
) -> Result<(Vec<Push>, Received), String> {
    let mut sub = Conn::connect(addr)?;
    for &id in &streams.ids {
        match sub.call(Request::Subscribe { stream_id: id })? {
            ResponseBody::Subscribed { .. } => {}
            other => return Err(format!("subscribe answered {other:?}")),
        }
    }
    let plan = schedule(rate, seconds, 0);
    // What the subscriber must see before it stops: every point of every
    // scheduled batch.
    let mut last_epoch: Vec<u64> = streams.batches.clone();
    for &(_, k) in &plan {
        last_epoch[k % STREAMS.len()] += 1;
    }
    let targets: Vec<u64> = last_epoch
        .iter()
        .enumerate()
        .map(|(s, &b)| Streams::epoch_after(s, b))
        .collect();
    let expected: usize = targets
        .iter()
        .enumerate()
        .map(|(s, &t)| (t - Streams::epoch_after(s, streams.batches[s])) as usize)
        .sum();
    let start = Instant::now() + Duration::from_millis(1);
    let (pushes, received) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            let mut got = Received::default();
            while got.events.len() < expected {
                match sub.recv() {
                    Ok(reply) => match reply.body {
                        ResponseBody::StreamEvent(ev) => got.events.push((Instant::now(), ev)),
                        _ => break,
                    },
                    Err(_) => break,
                }
            }
            got
        });
        let mut pushes = Vec::with_capacity(plan.len());
        for &(offset, k) in &plan {
            let st = k % STREAMS.len();
            let due = start + offset;
            let batch = streams.batches[st];
            let points = inputs.stream_batch(st, batch);
            let id = conn.take_id();
            let bytes = frame(
                id,
                Request::PushPoints {
                    stream_id: streams.ids[st],
                    points,
                },
            );
            let epoch = Streams::epoch_after(st, batch + 1);
            wait_until(due);
            if conn.send(&bytes).is_err() {
                break;
            }
            let sent = Instant::now();
            let acked = matches!(conn.recv(), Ok(r) if r.id == id
                && matches!(r.body, ResponseBody::PointsPushed { epoch: e, accepted, .. }
                    if e == epoch && accepted == PUSH_BATCH as u64));
            streams.batches[st] += 1;
            pushes.push(Push {
                stream: st,
                batch,
                epoch,
                due,
                sent,
                acked,
            });
            if !acked {
                break;
            }
        }
        (pushes, rx.join().expect("subscriber panicked"))
    });
    Ok((pushes, received))
}
