//! Property tests for the wire protocol: whatever bytes arrive — garbage,
//! truncation, oversized announcements, golden fixtures cut, flipped and
//! spliced — the codec must return a typed error or a faithful value, and
//! must never panic.

use std::io::Cursor;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mda_distance::DistanceKind;
use mda_server::json::Json;
use mda_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
    DatasetEntry, DatasetRef, DatasetSummary, Envelope, ErrorCode, MatchRecord, ProtocolError,
    Reply, Request, ResponseBody, RouteInfo, StreamEventBody, StreamEventState, TrainInstance,
    DEFAULT_MAX_FRAME_BYTES,
};
use mda_server::{BackendId, Bound, Sla};

/// Any finite `f64`, including negative zero, subnormals and extreme
/// exponents: generated from raw bit patterns so the whole representable
/// space is covered, with non-finite patterns remapped.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            // Keep the mantissa entropy, drop the non-finite exponent.
            f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
        }
    })
}

const OPS: usize = 13;
const SHAPES: usize = 16;

/// Exhaustive, so a new request variant fails to compile until the
/// generator below covers it.
fn op_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Metrics => 1,
        Request::Distance { .. } => 2,
        Request::Batch { .. } => 3,
        Request::Knn { .. } => 4,
        Request::Search { .. } => 5,
        Request::OpenStream { .. } => 6,
        Request::PushPoints { .. } => 7,
        Request::Subscribe { .. } => 8,
        Request::CloseStream { .. } => 9,
        Request::UploadDataset { .. } => 10,
        Request::ListDatasets => 11,
        Request::DropDataset { .. } => 12,
    }
}

/// Exhaustive over reply shapes, counting both stream-event states.
fn shape_index(body: &ResponseBody) -> usize {
    match body {
        ResponseBody::Pong => 0,
        ResponseBody::MetricsText(_) => 1,
        ResponseBody::Distance { .. } => 2,
        ResponseBody::Batch { .. } => 3,
        ResponseBody::Knn { .. } => 4,
        ResponseBody::Search { .. } => 5,
        ResponseBody::DatasetUploaded { .. } => 6,
        ResponseBody::Datasets { .. } => 7,
        ResponseBody::Dropped { .. } => 8,
        ResponseBody::StreamOpened { .. } => 9,
        ResponseBody::PointsPushed { .. } => 10,
        ResponseBody::Subscribed { .. } => 11,
        ResponseBody::StreamClosed { .. } => 12,
        ResponseBody::StreamEvent(StreamEventBody {
            state: StreamEventState::Warming { .. },
            ..
        }) => 13,
        ResponseBody::StreamEvent(StreamEventBody {
            state: StreamEventState::Ready { .. },
            ..
        }) => 14,
        ResponseBody::Error { .. } => 15,
    }
}

/// Draws every field of a message from a splitmix64 stream, each from its
/// valid range on the wire.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn maybe<T>(&mut self, f: impl FnOnce(&mut Draw) -> T) -> Option<T> {
        if self.coin() {
            Some(f(self))
        } else {
            None
        }
    }

    /// Integers the wire carries exactly (JSON numbers up to 9e15).
    fn int(&mut self) -> u64 {
        self.below(9_000_000_000_000_001)
    }

    fn size(&mut self) -> usize {
        self.int() as usize
    }

    /// Any finite `f64`, from raw bits (negative zero, subnormals and
    /// extreme exponents included).
    fn f64(&mut self) -> f64 {
        let bits = self.next();
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
        }
    }

    fn series(&mut self) -> Vec<f64> {
        (0..self.below(6)).map(|_| self.f64()).collect()
    }

    /// Text with quotes, escapes, control characters and non-ASCII.
    fn text(&mut self) -> String {
        const PALETTE: [char; 10] = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', 'é', '😀'];
        (0..self.below(8))
            .map(|_| PALETTE[self.below(PALETTE.len() as u64) as usize])
            .collect()
    }

    fn kind(&mut self) -> DistanceKind {
        DistanceKind::ALL[self.below(DistanceKind::ALL.len() as u64) as usize]
    }

    fn accuracy(&mut self) -> Option<Sla> {
        self.maybe(|d| {
            if d.coin() {
                Sla::Exact
            } else {
                // -0.0 passes the non-negative check and must keep its sign.
                let eps = if d.below(8) == 0 { -0.0 } else { d.f64().abs() };
                Sla::tolerance(eps).expect("finite non-negative")
            }
        })
    }

    fn dataset(&mut self) -> DatasetRef {
        match self.below(3) {
            0 => DatasetRef::by_id(self.text()),
            1 => DatasetRef::by_name(self.text()),
            _ => DatasetRef::by_name_version(self.text(), self.int()),
        }
    }

    fn record(&mut self) -> MatchRecord {
        MatchRecord {
            epoch: self.int(),
            distance: self.f64(),
        }
    }

    fn request(&mut self, op: usize) -> Request {
        let dataset = self.maybe(Draw::dataset);
        let inline = dataset.is_none();
        match op {
            0 => Request::Ping,
            1 => Request::Metrics,
            2 => Request::Distance {
                kind: self.kind(),
                p: self.series(),
                q: self.series(),
                threshold: self.maybe(Draw::f64),
                band: self.maybe(Draw::size),
                deadline_ms: self.maybe(Draw::int),
                accuracy: self.accuracy(),
            },
            3 => Request::Batch {
                kind: self.kind(),
                pairs: if inline {
                    (0..self.below(4))
                        .map(|_| (self.series(), self.series()))
                        .collect()
                } else {
                    Vec::new()
                },
                query: (!inline).then(|| self.series()),
                dataset,
                threshold: self.maybe(Draw::f64),
                band: self.maybe(Draw::size),
                deadline_ms: self.maybe(Draw::int),
                accuracy: self.accuracy(),
            },
            4 => Request::Knn {
                kind: self.kind(),
                k: 1 + self.size() / 2,
                query: self.series(),
                train: if inline {
                    (0..self.below(4))
                        .map(|_| TrainInstance {
                            label: self.size(),
                            series: self.series(),
                        })
                        .collect()
                } else {
                    Vec::new()
                },
                dataset,
                threshold: self.maybe(Draw::f64),
                band: self.maybe(Draw::size),
                deadline_ms: self.maybe(Draw::int),
                accuracy: self.accuracy(),
            },
            5 => Request::Search {
                query: self.series(),
                haystack: if inline { self.series() } else { Vec::new() },
                series_index: if inline { 0 } else { self.size() },
                dataset,
                window: 1 + self.size() / 2,
                band: self.size(),
                deadline_ms: self.maybe(Draw::int),
                accuracy: self.accuracy(),
            },
            6 => Request::OpenStream {
                window: 1 + self.size() / 2,
                band: self.size(),
                query: self.series(),
                threshold: self.maybe(|d| d.f64().abs().max(f64::MIN_POSITIVE)),
            },
            7 => Request::PushPoints {
                stream_id: self.int(),
                points: self.series(),
            },
            8 => Request::Subscribe {
                stream_id: self.int(),
            },
            9 => Request::CloseStream {
                stream_id: self.int(),
            },
            10 => Request::UploadDataset {
                name: format!("n{}", self.text()),
                entries: (0..self.below(4))
                    .map(|_| DatasetEntry {
                        label: self.size(),
                        series: self.series(),
                    })
                    .collect(),
            },
            11 => Request::ListDatasets,
            _ => Request::DropDataset {
                dataset: self.dataset(),
            },
        }
    }

    fn body(&mut self, shape: usize) -> ResponseBody {
        match shape {
            0 => ResponseBody::Pong,
            1 => ResponseBody::MetricsText(self.text()),
            2 => ResponseBody::Distance { value: self.f64() },
            3 => ResponseBody::Batch {
                values: self.series(),
            },
            4 => ResponseBody::Knn {
                label: self.size(),
                score: self.f64(),
                nearest_index: self.size(),
            },
            5 => ResponseBody::Search {
                offset: self.size(),
                distance: self.f64(),
            },
            6 => ResponseBody::DatasetUploaded {
                dataset_id: self.text(),
                version: self.int(),
                count: self.size(),
                bytes: self.int(),
            },
            7 => ResponseBody::Datasets {
                items: (0..self.below(3))
                    .map(|_| DatasetSummary {
                        name: self.text(),
                        dataset_id: self.text(),
                        version: self.int(),
                        count: self.size(),
                        bytes: self.int(),
                    })
                    .collect(),
            },
            8 => ResponseBody::Dropped { count: self.size() },
            9 => ResponseBody::StreamOpened {
                stream_id: self.int(),
                shard: self.next() as u32,
                burn_in: self.int(),
            },
            10 => ResponseBody::PointsPushed {
                stream_id: self.int(),
                accepted: self.int(),
                epoch: self.int(),
            },
            11 => ResponseBody::Subscribed {
                stream_id: self.int(),
                epoch: self.int(),
                warm: self.coin(),
            },
            12 => ResponseBody::StreamClosed {
                stream_id: self.int(),
                pushed: self.int(),
            },
            13 => ResponseBody::StreamEvent(StreamEventBody {
                stream_id: self.int(),
                epoch: self.int(),
                state: StreamEventState::Warming {
                    seen: self.int(),
                    burn_in: self.int(),
                },
            }),
            14 => ResponseBody::StreamEvent(StreamEventBody {
                stream_id: self.int(),
                epoch: self.int(),
                state: StreamEventState::Ready {
                    mean: self.f64(),
                    std_dev: self.f64(),
                    decision: self.text(),
                    bound: self.f64(),
                    threshold: self.maybe(Draw::f64).unwrap_or(f64::INFINITY),
                    motif: self.maybe(Draw::record),
                    discord: self.maybe(Draw::record),
                },
            }),
            _ => ResponseBody::Error {
                code: ERROR_CODES[self.below(ERROR_CODES.len() as u64) as usize],
                message: self.text(),
            },
        }
    }
}

const ERROR_CODES: [ErrorCode; 8] = [
    ErrorCode::Overloaded,
    ErrorCode::Timeout,
    ErrorCode::BadRequest,
    ErrorCode::InvalidParameter,
    ErrorCode::NotFound,
    ErrorCode::StaleVersion,
    ErrorCode::ShuttingDown,
    ErrorCode::Internal,
];

/// The golden fixtures: every `r#"…"#` literal in `wire_golden.rs`.
fn golden_fixtures() -> Vec<&'static [u8]> {
    let mut out = Vec::new();
    let mut rest = include_str!("wire_golden.rs");
    while let Some(start) = rest.find("r#\"") {
        let body = &rest[start + 3..];
        let end = body.find("\"#").expect("unterminated raw string");
        out.push(&body.as_bytes()[..end]);
        rest = &body[end + 2..];
    }
    out
}

/// One edit of a payload: cut it, overwrite a byte, keep a prefix and
/// splice on the tail of another fixture, or spell one of its numbers
/// another way. `at` places the edit as a fraction of the current length
/// (of the number count, for a respelling).
#[derive(Debug, Clone, Copy)]
enum Edit {
    Truncate { at: f64 },
    Flip { at: f64, byte: u8 },
    Splice { at: f64, from: usize, tail_at: f64 },
    Respell { at: f64, spelling: usize },
}

/// Number spellings a respelling writes: signed zeros, subnormals, the
/// largest finite values, 17 significant digits and exponent forms.
const SPELLINGS: [&str; 11] = [
    "0",
    "-0",
    "-0.0",
    "7",
    "1E+2",
    "1e-310",
    "5e-324",
    "2.2250738585072011e-308",
    "1.7976931348623157e308",
    "0.30000000000000004",
    "12345678901234567",
];

fn edit() -> impl Strategy<Value = Edit> {
    // Half the edits respell a number, which keeps most payloads valid so
    // the re-encoding check below has values to check.
    (0u8..6, 0.0f64..1.0, 0u8..=255, 0usize..1024, 0.0f64..1.0).prop_map(
        |(kind, at, byte, from, tail_at)| match kind {
            0 => Edit::Truncate { at },
            1 => Edit::Flip { at, byte },
            2 => Edit::Splice { at, from, tail_at },
            _ => Edit::Respell { at, spelling: from },
        },
    )
}

/// The byte ranges of the number tokens in `bytes` (digits inside strings
/// are not number tokens: they follow no `[`, `,` or `:`).
fn number_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = matches!(bytes[i], b'-' | b'0'..=b'9')
            && i > 0
            && matches!(bytes[i - 1], b'[' | b',' | b':');
        if starts {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            spans.push(start..i);
        } else {
            i += 1;
        }
    }
    spans
}

fn apply(bytes: &mut Vec<u8>, edit: Edit, fixtures: &[&[u8]]) {
    let index = |at: f64, len: usize| ((at * len as f64) as usize).min(len);
    match edit {
        Edit::Respell { at, spelling } => {
            let spans = number_spans(bytes);
            if let Some(span) = spans.get(index(at, spans.len())) {
                let text = SPELLINGS[spelling % SPELLINGS.len()].bytes();
                bytes.splice(span.clone(), text);
            }
        }
        Edit::Truncate { at } => bytes.truncate(index(at, bytes.len())),
        Edit::Flip { at, byte } => {
            if !bytes.is_empty() {
                let i = index(at, bytes.len() - 1);
                bytes[i] = byte;
            }
        }
        Edit::Splice { at, from, tail_at } => {
            bytes.truncate(index(at, bytes.len()));
            let other = fixtures[from % fixtures.len()];
            bytes.extend_from_slice(&other[index(tail_at, other.len())..]);
        }
    }
}

/// A decode failure must be one of the typed payload errors, and a JSON
/// error must point inside the payload.
fn typed_failure(err: &ProtocolError, len: usize) -> Result<(), TestCaseError> {
    match err {
        ProtocolError::Json(e) => prop_assert!(e.offset <= len, "offset {} of {len}", e.offset),
        ProtocolError::Schema(_) | ProtocolError::InvalidParameter(_) => {}
        other => prop_assert!(false, "untyped decode failure: {other}"),
    }
    Ok(())
}

/// Whether a re-encoded payload holds a `null`. The encoder writes one
/// only for a non-finite number (see the `json` module doc), so a decoded
/// value that overflowed, like `1e999` in a series, is the one kind that
/// does not come back from its re-encoding: it fails to decode or reads
/// as absent.
fn holds_null(encoded: &[u8]) -> bool {
    fn walk(v: &Json) -> bool {
        match v {
            Json::Null => true,
            Json::Obj(pairs) => pairs.iter().any(|(_, v)| walk(v)),
            other => other.as_array().is_some_and(|items| items.iter().any(walk)),
        }
    }
    walk(&Json::parse(encoded).expect("encoder output parses"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_fixtures_decode_faithfully_or_fail_typed(
        seed in 0u64..=u64::MAX,
        edits in prop::collection::vec(edit(), 1..4),
    ) {
        // Golden fixtures, plus self-encoded messages whose series carry
        // arbitrary finite bit patterns.
        let mut draw = Draw(seed);
        let mut fixtures = golden_fixtures();
        let (op, shape) = (draw.below(OPS as u64) as usize, draw.below(SHAPES as u64) as usize);
        let request = Envelope { id: draw.int(), req: draw.request(op) };
        let reply = Reply::new(draw.int(), draw.body(shape));
        let (request, reply) = (encode_request(&request), encode_reply(&reply));
        fixtures.push(&request);
        fixtures.push(&reply);
        let mut bytes = fixtures[draw.below(fixtures.len() as u64) as usize].to_vec();
        for &e in &edits {
            apply(&mut bytes, e, &fixtures);
        }

        match decode_request(&bytes) {
            Ok(env) => {
                let encoded = encode_request(&env);
                if !holds_null(&encoded) {
                    let again = decode_request(&encoded).expect("re-encoded request decodes");
                    prop_assert_eq!(format!("{again:?}"), format!("{env:?}"));
                    prop_assert_eq!(encode_request(&again), encoded);
                }
            }
            Err(e) => typed_failure(&e, bytes.len())?,
        }
        match decode_reply(&bytes) {
            Ok(reply) => {
                let encoded = encode_reply(&reply);
                if !holds_null(&encoded) {
                    let again = decode_reply(&encoded).expect("re-encoded reply decodes");
                    prop_assert_eq!(format!("{again:?}"), format!("{reply:?}"));
                    prop_assert_eq!(encode_reply(&again), encoded);
                }
            }
            Err(e) => typed_failure(&e, bytes.len())?,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_message_roundtrips_bitwise(seed in 0u64..=u64::MAX) {
        let mut draw = Draw(seed);
        let mut ops = [false; OPS];
        for op in 0..OPS {
            let env = Envelope { id: draw.int(), req: draw.request(op) };
            ops[op_index(&env.req)] = true;
            let bytes = encode_request(&env);
            let decoded = decode_request(&bytes).expect("self-encoded request");
            // Debug prints every f64 in its shortest round-trip form, so
            // equal Debug text is bitwise equality (-0.0 included).
            prop_assert_eq!(format!("{decoded:?}"), format!("{env:?}"));
            prop_assert_eq!(encode_request(&decoded), bytes);
        }
        prop_assert!(ops.iter().all(|&seen| seen), "an op was never generated");

        let mut shapes = [false; SHAPES];
        for shape in 0..SHAPES {
            let mut reply = Reply::new(draw.int(), draw.body(shape));
            if draw.coin() {
                reply = reply.with_route(RouteInfo {
                    backend: BackendId::ALL[draw.below(BackendId::ALL.len() as u64) as usize],
                    bound: Bound { abs: draw.f64(), rel: draw.f64() },
                });
            }
            shapes[shape_index(&reply.body)] = true;
            let bytes = encode_reply(&reply);
            let decoded = decode_reply(&bytes).expect("self-encoded reply");
            prop_assert_eq!(format!("{decoded:?}"), format!("{reply:?}"));
            prop_assert_eq!(encode_reply(&decoded), bytes);
        }
        prop_assert!(shapes.iter().all(|&seen| seen), "a reply shape was never generated");
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoders(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        // Any of these may legitimately fail — none may panic.
        let _ = Json::parse(&bytes);
        let _ = decode_request(&bytes);
        let _ = decode_reply(&bytes);
        let _ = read_frame(&mut Cursor::new(bytes), 1024);
    }

    #[test]
    fn ascii_garbage_never_panics_the_decoders(bytes in prop::collection::vec(32u8..127, 0..200)) {
        // Printable garbage exercises deeper parser states than raw bytes
        // (digits, braces, quotes reach the number/string machinery).
        let _ = Json::parse(&bytes);
        let _ = decode_request(&bytes);
    }

    #[test]
    fn truncated_frames_error_cleanly(
        payload in prop::collection::vec(0u8..=255, 1..64),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("in-memory write");
        let cut = (framed.len() as f64 * cut_fraction) as usize;
        let err = read_frame(&mut Cursor::new(&framed[..cut]), DEFAULT_MAX_FRAME_BYTES)
            .expect_err("truncated frame must not decode");
        match err {
            // Cut inside the header or payload: a transport error.
            ProtocolError::Io(_) => {}
            other => panic!("unexpected error class: {other}"),
        }
        // Only a cut at offset 0 is a clean between-frames EOF.
        prop_assert_eq!(err.is_clean_eof(), cut == 0);
    }

    #[test]
    fn oversized_announcements_rejected_before_allocation(
        announced in 1025u32..u32::MAX,
        tail in prop::collection::vec(0u8..=255, 0..16),
    ) {
        let mut framed = announced.to_be_bytes().to_vec();
        framed.extend_from_slice(&tail);
        // Cap far below the announcement: must reject without trying to
        // allocate or read the announced length.
        let err = read_frame(&mut Cursor::new(framed), 1024).expect_err("must reject");
        let rejected_with_sizes = matches!(err, ProtocolError::FrameTooLarge { len, max: 1024 }
            if len == announced as usize);
        prop_assert!(rejected_with_sizes, "{}", err);
    }

    #[test]
    fn json_numbers_roundtrip_bitwise(x in finite_f64()) {
        let text = Json::Num(x).to_string();
        let parsed = Json::parse(text.as_bytes()).expect("rendered number");
        let Json::Num(y) = parsed else { panic!("expected a number") };
        prop_assert_eq!(y.to_bits(), x.to_bits(), "{}", text);
    }
}
