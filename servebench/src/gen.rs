//! Seeded workload inputs. The server receives nothing but what these
//! functions generate, and the same seed always yields the same requests.
//!
//! Every pool fixes its *composition* (kinds, lengths, query classes) and
//! lets the seed choose the values and the order. Runs on different seeds
//! therefore ask the server for the same mix of work, which keeps medians
//! comparable across seeds.

use mda_distance::DistanceKind;
use mda_routing::{default_backends, BackendId, Sla};
use mda_server::protocol::{encode_request, DatasetEntry, DatasetRef, Envelope, Request};

use crate::rng::Rng;

/// Series lengths of the exact pair mix.
pub const PAIR_LENS: std::ops::RangeInclusive<usize> = 16..=128;
/// Series lengths of tolerance-tagged pairs: short enough for the analog
/// engine and inside the DAC's encodable range.
pub const TOL_LENS: std::ops::RangeInclusive<usize> = 16..=32;
/// Kinds of the tolerance-tagged pairs, one entry per draw. Three
/// thresholded kinds land on the aCAM, the rest on the behavioural analog
/// engine. The weights put the median well inside the Hausdorff group
/// rather than near the gap between two backends, and keep the analog DTW
/// pairs, which hold the dispatcher for 5–35 ms each, to one in nine.
pub const TOL_KINDS: [DistanceKind; 9] = [
    DistanceKind::Hamming,
    DistanceKind::Lcs,
    DistanceKind::Edit,
    DistanceKind::Hausdorff,
    DistanceKind::Hausdorff,
    DistanceKind::Hausdorff,
    DistanceKind::Hausdorff,
    DistanceKind::Hausdorff,
    DistanceKind::Dtw,
];
/// One request in this many of the tolerance mix carries a tolerance SLA.
pub const TOL_EVERY: usize = 5;

/// Resident corpus shape.
pub const CORPUS_SERIES: usize = 256;
/// Length of every corpus series and of every mining query.
pub const SERIES_LEN: usize = 128;
/// Classes in the labelled corpus.
pub const CLASSES: usize = 4;
/// Length of each haystack scanned by subsequence search.
pub const HAYSTACK_LEN: usize = 1 << 16;
/// Haystacks in the resident haystack dataset. A random walk's difficulty
/// for the cascade varies widely from one realization to the next, so
/// searches rotate over several to keep a seed's cost near the average.
/// The dataset goes up in one frame, and 28 keep it about 12 % below the
/// server's 16 MiB frame limit; the count is prime to the search mix's
/// cycle of 3, so fresh queries visit every haystack.
pub const HAYSTACKS: usize = 28;
/// Sakoe–Chiba radius of kNN and search.
pub const MINING_BAND: usize = 8;
/// Neighbours per kNN vote.
pub const KNN_K: usize = 3;
/// Corpus series replaced by each re-upload.
pub const VERSION_CHURN: usize = 8;
/// Name of the labelled corpus kNN queries read.
pub const CORPUS_NAME: &str = "corpus";
/// Name of the corpus re-uploaded beside the reads.
pub const STAGING_NAME: &str = "corpus_staging";
/// Name of the haystack dataset.
pub const HAYSTACK_NAME: &str = "haystack";

/// `(window, band)` of each push-mode stream.
pub const STREAMS: [(usize, usize); 4] = [(128, 8), (512, 8), (128, 8), (512, 8)];
/// Points per `push_points` batch.
pub const PUSH_BATCH: usize = 16;
/// Angular frequency of the pushed points' periodic component, rad/point.
const STREAM_FREQ: f64 = 0.05;

/// One pair request.
#[derive(Debug, Clone)]
pub struct PairCase {
    /// Distance function.
    pub kind: DistanceKind,
    /// First series.
    pub p: Vec<f64>,
    /// Second series.
    pub q: Vec<f64>,
    /// Tolerance ε, or `None` for an exact request.
    pub tolerance: Option<f64>,
}

impl PairCase {
    /// The wire request.
    pub fn request(&self) -> Request {
        Request::Distance {
            kind: self.kind,
            p: self.p.clone(),
            q: self.q.clone(),
            threshold: None,
            band: None,
            deadline_ms: None,
            accuracy: self
                .tolerance
                .map(|e| Sla::tolerance(e).expect("margins are finite and non-negative")),
        }
    }
}

/// Everything one seed generates.
pub struct Inputs {
    /// Exact pairs over all six kinds and lengths 16–128.
    pub pairs: Vec<PairCase>,
    /// Tolerance-tagged pairs, short and DAC-encodable.
    pub tolerant: Vec<PairCase>,
    /// Labelled corpus (version 1, uploaded during set-up).
    pub corpus: Vec<DatasetEntry>,
    /// Long series scanned by `search`.
    pub haystacks: Vec<Vec<f64>>,
    /// kNN queries.
    pub knn_queries: Vec<Vec<f64>>,
    /// Per-stream match query.
    pub stream_queries: Vec<Vec<f64>>,
    seed: u64,
    search_start: f64,
}

impl Inputs {
    /// Generates every pool for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let pairs = stratified(&mut rng, &DistanceKind::ALL, PAIR_LENS)
            .into_iter()
            .map(|(kind, len)| {
                let p = wave(&mut rng, len, 1.5);
                let q = jitter(&mut rng, &p, 0.3);
                PairCase {
                    kind,
                    p,
                    q,
                    tolerance: None,
                }
            })
            .collect();

        let mut rng = Rng::new(seed, 2);
        let backends = default_backends();
        let ceiling = backends.analog().ceiling();
        let tolerant = stratified(&mut rng, &TOL_KINDS, TOL_LENS)
            .into_iter()
            .map(|(kind, len)| {
                let p = wave(&mut rng, len, 1.0);
                let q = jitter(&mut rng, &p, 0.1);
                // The loosest ε the analog engine provably meets at this
                // length, as the routing bench computes it.
                let eps = backends
                    .get(BackendId::Analog)
                    .bound(kind, len)
                    .margin(ceiling);
                PairCase {
                    kind,
                    p,
                    q,
                    tolerance: Some(eps),
                }
            })
            .collect();

        let mut rng = Rng::new(seed, 3);
        let corpus = (0..CORPUS_SERIES)
            .map(|i| DatasetEntry {
                label: i % CLASSES,
                series: class_series(&mut rng, i % CLASSES),
            })
            .collect();
        let knn_queries = (0..32)
            .map(|i| class_series(&mut rng, i % CLASSES))
            .collect();

        let mut rng = Rng::new(seed, 4);
        // Rounded to 1e-3 so all sixteen fit one upload frame.
        let haystacks: Vec<Vec<f64>> = (0..HAYSTACKS)
            .map(|_| {
                random_walk(&mut rng, HAYSTACK_LEN)
                    .into_iter()
                    .map(|x| (x * 1e3).round() / 1e3)
                    .collect()
            })
            .collect();

        // Stream queries share the pushed points' period, so the cascade
        // meets the same mix of near and far windows whatever the seed.
        let mut rng = Rng::new(seed, 5);
        let stream_queries = STREAMS
            .iter()
            .map(|&(window, _)| {
                let phase = rng.range(0.0, std::f64::consts::TAU);
                (0..window)
                    .map(|i| (i as f64 * STREAM_FREQ + phase).sin() + 0.2 * rng.normal())
                    .collect()
            })
            .collect();

        Inputs {
            pairs,
            tolerant,
            corpus,
            haystacks,
            knn_queries,
            stream_queries,
            seed,
            search_start: Rng::new(seed, 6).unit(),
        }
    }

    /// Exact pair `i`, cycling through the pool.
    pub fn pair(&self, i: usize) -> &PairCase {
        &self.pairs[i % self.pairs.len()]
    }

    /// Request `i` of the tolerance mix: every [`TOL_EVERY`]th one is
    /// tolerance-tagged, the rest are exact pairs.
    pub fn tolerance_mix(&self, i: usize) -> &PairCase {
        if i % TOL_EVERY == TOL_EVERY - 1 {
            &self.tolerant[(i / TOL_EVERY) % self.tolerant.len()]
        } else {
            self.pair(i - i / TOL_EVERY)
        }
    }

    /// The corpus as uploaded in `version` (1 = the set-up upload): each
    /// later version replaces [`VERSION_CHURN`] series with fresh members
    /// of the same class.
    pub fn corpus_version(&self, version: u64) -> Vec<DatasetEntry> {
        let mut corpus = self.corpus.clone();
        for v in 2..=version {
            let mut rng = Rng::new(self.seed, 1000 + v);
            for j in 0..VERSION_CHURN {
                let at = (v as usize * VERSION_CHURN + j) % CORPUS_SERIES;
                corpus[at].series = class_series(&mut rng, corpus[at].label);
            }
        }
        corpus
    }

    /// The `n`th `push_points` batch for stream `s` (prefill is batch 0,
    /// `window` points long; later batches hold [`PUSH_BATCH`] points): a
    /// noisy sine, stationary so the cascade's decisions settle to the same
    /// mix on every seed.
    pub fn stream_batch(&self, s: usize, n: u64) -> Vec<f64> {
        let mut rng = Rng::new(self.seed, 10_000 + (s as u64) * 1_000_003 + n);
        let (len, start) = match n {
            0 => (STREAMS[s].0, 0),
            _ => (PUSH_BATCH, STREAMS[s].0 + (n as usize - 1) * PUSH_BATCH),
        };
        (0..len)
            .map(|i| ((start + i) as f64 * STREAM_FREQ).sin() + 0.2 * rng.normal())
            .collect()
    }

    /// The kNN request for query `i`, against the resident corpus.
    pub fn knn_request(&self, i: usize) -> Request {
        Request::Knn {
            kind: DistanceKind::Dtw,
            k: KNN_K,
            query: self.knn_queries[i % self.knn_queries.len()].clone(),
            train: Vec::new(),
            dataset: Some(DatasetRef::by_name(CORPUS_NAME)),
            threshold: None,
            band: Some(MINING_BAND),
            deadline_ms: None,
            accuracy: None,
        }
    }

    /// The haystack dataset: one entry per haystack.
    pub fn haystack_entries(&self) -> Vec<DatasetEntry> {
        self.haystacks
            .iter()
            .map(|h| DatasetEntry {
                label: 0,
                series: h.clone(),
            })
            .collect()
    }

    /// Search query `i`, the haystack it scans, and whether it was cut
    /// from that haystack. Every query is distinct: a search's cost swings
    /// by 100× with its data, so a run averages over many. Two in three
    /// are cut with noise (a tight best-so-far), the third is a fresh
    /// random walk (a loose one); with an even split the median would sit
    /// on the gap between the two cost clusters.
    pub fn search_query(&self, i: usize) -> (Vec<f64>, usize, bool) {
        let mut rng = Rng::new(self.seed, 20_000 + i as u64);
        let h = i % HAYSTACKS;
        let cut = i % 3 != 2;
        let query = if cut {
            // When the cascade's first guess misses, a cut query costs in
            // proportion to how far into the haystack it was cut, so cut
            // offsets follow a golden-ratio sequence from a seeded start:
            // every run spreads them evenly over the haystack.
            const PHI: f64 = 0.618_033_988_749_894_8;
            let u = (self.search_start + PHI * i as f64).fract();
            let at = (u * (HAYSTACK_LEN - SERIES_LEN) as f64) as usize;
            // Noise well below a walk step: at 0.05 about one cut query in
            // ten is mistaken for a neighbour first and costs 10× more.
            jitter(&mut rng, &self.haystacks[h][at..at + SERIES_LEN], 0.01)
        } else {
            random_walk(&mut rng, SERIES_LEN)
        };
        (query, h, cut)
    }

    /// The search request for query `i`, against its resident haystack.
    pub fn search_request(&self, i: usize) -> Request {
        let (query, h, _) = self.search_query(i);
        Request::Search {
            query,
            haystack: Vec::new(),
            dataset: Some(DatasetRef::by_name(HAYSTACK_NAME)),
            series_index: h,
            window: SERIES_LEN,
            band: MINING_BAND,
            deadline_ms: None,
            accuracy: None,
        }
    }
}

/// A length-prefixed wire frame for `req` under envelope `id`.
pub fn frame(id: u64, req: Request) -> Vec<u8> {
    let payload = encode_request(&Envelope { id, req });
    let len = u32::try_from(payload.len()).expect("requests are far below 4 GiB");
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Every `(kind, length)` cell once, ordered so that any run of
/// consecutive entries keeps the mix: kinds cycle in `kinds` order, and
/// each kind walks the lengths along a golden-ratio sequence from a seeded
/// start, which spreads every prefix evenly over the range.
fn stratified(
    rng: &mut Rng,
    kinds: &[DistanceKind],
    lens: std::ops::RangeInclusive<usize>,
) -> Vec<(DistanceKind, usize)> {
    const PHI: f64 = 0.618_033_988_749_894_8;
    let lens: Vec<usize> = lens.collect();
    let start = rng.unit();
    let mut order: Vec<usize> = Vec::with_capacity(lens.len());
    let mut j = 0usize;
    while order.len() < lens.len() {
        let at = ((start + PHI * j as f64).fract() * lens.len() as f64) as usize;
        if !order.contains(&at) {
            order.push(at);
        }
        j += 1;
    }
    order
        .iter()
        .flat_map(|&at| kinds.iter().map(move |&kind| (kind, at)))
        .map(|(kind, at)| (kind, lens[at]))
        .collect()
}

/// A smooth random waveform with amplitude about `amp`.
fn wave(rng: &mut Rng, len: usize, amp: f64) -> Vec<f64> {
    let f1 = rng.range(0.05, 0.4);
    let f2 = rng.range(0.3, 0.9);
    let ph = rng.range(0.0, std::f64::consts::TAU);
    (0..len)
        .map(|i| {
            let t = i as f64;
            amp * (0.8 * (f1 * t + ph).sin() + 0.2 * (f2 * t).cos()) + 0.05 * rng.normal()
        })
        .collect()
}

/// `xs` plus Gaussian noise of standard deviation `sd`.
fn jitter(rng: &mut Rng, xs: &[f64], sd: f64) -> Vec<f64> {
    xs.iter().map(|x| x + sd * rng.normal()).collect()
}

fn random_walk(rng: &mut Rng, len: usize) -> Vec<f64> {
    let mut x = 0.0;
    (0..len)
        .map(|_| {
            x += rng.normal();
            x
        })
        .collect()
}

/// A noisy, phase-shifted member of one of four shape classes.
fn class_series(rng: &mut Rng, class: usize) -> Vec<f64> {
    let shift = rng.range(0.0, 12.0);
    let amp = rng.range(0.8, 1.2);
    (0..SERIES_LEN)
        .map(|i| {
            let t = (i as f64 + shift) / SERIES_LEN as f64;
            let shape = match class {
                0 => (t * std::f64::consts::TAU * 2.0).sin(),
                1 => {
                    if (t * 4.0).fract() < 0.5 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                2 => 2.0 * (t * 3.0).fract() - 1.0,
                _ => (-((t - 0.5) * 6.0).powi(2)).exp() * 2.0 - 0.5,
            };
            amp * shape + 0.15 * rng.normal()
        })
        .collect()
}
