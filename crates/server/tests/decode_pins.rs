//! Decode outcome pins: a fixed, seeded set of payloads goes through
//! `decode_request` and `decode_reply`, and a digest of each outcome must
//! equal the one recorded in `tests/data/decode_pins.txt`.
//!
//! The inputs are every golden fixture of `wire_golden.rs`, every file
//! under `tests/corpus/`, and hand-written number edge cases (`-0`,
//! subnormals, `1e999`, 17-digit mantissas, arrays that mix numbers with
//! other values, nesting at the depth cap). Each of those also yields
//! variants: truncations, single-byte flips, splices with another input,
//! reordered, duplicated and `null` keys, extra whitespace, and an upload
//! whose entries are the input's number arrays in bare form.
//!
//! An outcome is digested from the re-encoded bytes and the `Debug` text
//! of an `Ok` (`Debug` prints every `f64` in its shortest round-trip form,
//! so `-0.0`, subnormals and infinities are told apart), or from the error
//! variant and message of an `Err` (a JSON error's byte offset included).
//!
//! The pins describe the decoder's behaviour, not an ideal one: a change
//! that moves any digest changes what some payload decodes to. After a
//! deliberate change to the inputs (a new golden fixture or corpus file),
//! rewrite the file with
//! `cargo test -p mda-server --test decode_pins -- --ignored` and review
//! the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use mda_server::json::Json;
use mda_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, ProtocolError,
};

/// Deterministic splitmix64 stream for choosing cut points and bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn pins_path() -> PathBuf {
    manifest_dir().join("tests/data/decode_pins.txt")
}

/// Every `r#"…"#` literal in `wire_golden.rs`: the request and reply
/// fixtures, in file order.
fn golden_fixtures() -> Vec<Vec<u8>> {
    let source = include_str!("wire_golden.rs");
    let mut out = Vec::new();
    let mut rest = source;
    while let Some(start) = rest.find("r#\"") {
        let body = &rest[start + 3..];
        let end = body.find("\"#").expect("unterminated raw string");
        out.push(body.as_bytes()[..end].to_vec());
        rest = &body[end + 2..];
    }
    assert!(out.len() > 50, "wire_golden.rs fixtures not found");
    out
}

/// Every file under `tests/corpus/`, by name.
fn corpus_files() -> Vec<(String, Vec<u8>)> {
    let dir = manifest_dir().join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).expect("corpus file");
            (name, bytes)
        })
        .collect()
}

/// Number spellings at the edges of the grammar and of `f64`.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-0.0",
    "0e0",
    "-0E-0",
    "1",
    "-1",
    "1.5",
    "5e-324",
    "-5e-324",
    "4.9406564584124654e-324",
    "2.2250738585072011e-308",
    "2.2250738585072014e-308",
    "1e-400",
    "-1e-400",
    "1e308",
    "1.7976931348623157e308",
    "1.7976931348623159e308",
    "1e999",
    "-1e999",
    "0.30000000000000004",
    "1.2345678901234567e89",
    "9007199254740993",
    "9000000000000000",
    "9000000000000001",
    "4294967296",
    "12345678901234567890123",
    "0.1000000000000000055511151231257827",
    "1E+2",
    "1e-2",
];

/// Array bodies: numbers mixed with other values, and malformed runs.
const ARRAYS: &[&str] = &[
    "[]",
    "[ ]",
    "[ 1 , 2 ]",
    "[\n1,\t2\r]",
    "[1,true]",
    "[true,1]",
    "[1,[2]]",
    "[[1],2]",
    "[1,null]",
    "[null]",
    "[\"a\",1]",
    "[1,\"a\"]",
    "[1,{\"a\":1}]",
    "[1,2,3,false,4]",
    "[01]",
    "[1.]",
    "[.5]",
    "[+1]",
    "[-]",
    "[1e]",
    "[1e+]",
    "[1,]",
    "[,1]",
    "[1 2]",
    "[1,,2]",
    "[1,2",
    "[1,2,",
    "[1,-",
    "[-0,0,-0.0]",
    "[1e999,-1e999,5e-324]",
    "[1]]",
    "[1}",
];

/// Requests and replies that carry `value` where a number, a series, a
/// pair list or a set of upload entries is read.
fn embeddings(value: &str) -> Vec<String> {
    vec![
        format!(r#"{{"id":1,"op":"distance","kind":"DTW","p":{value},"q":[0,1]}}"#),
        format!(r#"{{"id":1,"op":"distance","kind":"MD","p":[{value}],"q":[{value}]}}"#),
        format!(r#"{{"id":1,"op":"push_points","stream_id":3,"points":{value}}}"#),
        format!(r#"{{"id":1,"op":"upload_dataset","name":"n","entries":{value}}}"#),
        format!(r#"{{"id":1,"op":"upload_dataset","name":"n","entries":[{value},[1]]}}"#),
        format!(
            r#"{{"id":1,"op":"upload_dataset","name":"n","entries":[{{"label":1,"series":{value}}}]}}"#
        ),
        format!(r#"{{"id":1,"op":"batch","kind":"MD","pairs":[[{value},[1]]]}}"#),
        format!(r#"{{"id":1,"op":"batch","kind":"MD","pairs":[{value}]}}"#),
        format!(r#"{{"id":1,"op":"batch","kind":"MD","dataset":"d","query":{value}}}"#),
        format!(
            r#"{{"id":1,"op":"knn","kind":"DTW","k":1,"query":[0],"train":[{{"label":0,"series":{value}}}]}}"#
        ),
        format!(r#"{{"id":1,"op":"search","query":[0,1],"haystack":{value},"window":1}}"#),
        format!(r#"{{"id":1,"ok":true,"result":{{"values":{value}}}}}"#),
        format!(r#"{{"id":1,"ok":true,"result":{{"value":{value}}}}}"#),
    ]
}

/// Scalars where integers and finite numbers are required.
fn scalar_embeddings(number: &str) -> Vec<String> {
    vec![
        format!(r#"{{"id":{number},"op":"ping"}}"#),
        format!(r#"{{"id":1,"op":"knn","kind":"MD","k":{number},"query":[0],"train":[]}}"#),
        format!(
            r#"{{"id":1,"op":"distance","kind":"LCS","p":[0],"q":[0],"threshold":{number},"accuracy":{{"tolerance":{number}}}}}"#
        ),
        format!(r#"{{"id":1,"ok":true,"result":{{"offset":{number},"distance":{number}}}}}"#),
    ]
}

/// Arrays nested around the depth cap, innermost holding `inner`.
fn nested(depth: usize, inner: &str) -> String {
    format!(
        r#"{{"id":1,"op":"distance","kind":"MD","q":[0],"p":{}{inner}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    )
}

/// The golden fixtures and corpus files, labelled.
fn fixtures() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (i, bytes) in golden_fixtures().into_iter().enumerate() {
        out.push((format!("golden{i}"), bytes));
    }
    out.extend(corpus_files());
    out
}

/// The hand-written edge cases, labelled.
fn edge_cases() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (i, number) in NUMBERS.iter().enumerate() {
        let series = format!("[{number},{number},-1]");
        for (j, text) in embeddings(&series)
            .into_iter()
            .chain(scalar_embeddings(number))
            .enumerate()
        {
            out.push((format!("number{i}.{j}"), text.into_bytes()));
        }
    }
    for (i, array) in ARRAYS.iter().enumerate() {
        for (j, text) in embeddings(array).into_iter().enumerate() {
            out.push((format!("array{i}.{j}"), text.into_bytes()));
        }
    }
    for depth in 60..=66 {
        for (j, inner) in ["1", "1,2", "", "true"].iter().enumerate() {
            out.push((
                format!("depth{depth}.{j}"),
                nested(depth, inner).into_bytes(),
            ));
        }
    }
    out
}

/// The number arrays anywhere in `v`, in document order.
fn number_arrays(v: &Json, out: &mut Vec<Vec<f64>>) {
    if let Some(xs) = v.as_f64_vec() {
        out.push(xs);
        return;
    }
    match v {
        Json::Obj(pairs) => {
            for (_, value) in pairs {
                number_arrays(value, out);
            }
        }
        other => {
            if let Some(items) = other.as_array() {
                for item in items.iter() {
                    number_arrays(item, out);
                }
            }
        }
    }
}

/// `v` with every object's keys in reverse order.
fn reversed_keys(v: &Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .rev()
                .map(|(k, value)| (k.clone(), reversed_keys(value)))
                .collect(),
        ),
        other => match other.as_array() {
            Some(items) if other.as_f64_vec().is_none() => {
                Json::Arr(items.iter().map(reversed_keys).collect())
            }
            _ => other.clone(),
        },
    }
}

/// `text` with whitespace after every structural byte outside strings.
fn spaced(text: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(text.len() * 2);
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in text.iter().enumerate() {
        if in_string {
            out.push(b);
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        if matches!(b, b']' | b'}') {
            out.extend_from_slice(b" \n");
        }
        out.push(b);
        match b {
            b'"' => in_string = true,
            b'[' | b'{' | b',' | b':' => {
                out.extend_from_slice([&b" "[..], b"\t", b"\r\n"][i % 3]);
            }
            _ => {}
        }
    }
    out
}

/// Bytes a flip writes: structural, numeric and arbitrary.
const FLIP_BYTES: &[u8] = b"[]{},:\"-+.eE0159 ntx\\\x00\xff";

/// The inputs, labelled: every fixture with all its variants, and every
/// edge case as written and spaced out.
fn inputs() -> Vec<(String, Vec<u8>)> {
    let bases = fixtures();
    let mut rng = Rng(0x00DE_C0DE_5EED);
    let mut out = Vec::new();
    for (label, bytes) in edge_cases() {
        out.push((format!("{label}.spaced"), spaced(&bytes)));
        out.push((label, bytes));
    }
    for (label, bytes) in &bases {
        out.push((label.clone(), bytes.clone()));
        let len = bytes.len();
        if len > 0 {
            for t in 0..3 {
                let cut = rng.below(len);
                out.push((format!("{label}.trunc{t}"), bytes[..cut].to_vec()));
            }
            out.push((format!("{label}.trunc-last"), bytes[..len - 1].to_vec()));
            for f in 0..3 {
                let mut flipped = bytes.clone();
                flipped[rng.below(len)] = FLIP_BYTES[rng.below(FLIP_BYTES.len())];
                out.push((format!("{label}.flip{f}"), flipped));
            }
        }
        for s in 0..2 {
            let (other_label, other) = &bases[rng.below(bases.len())];
            let mut spliced = bytes[..rng.below(len + 1)].to_vec();
            spliced.extend_from_slice(&other[rng.below(other.len() + 1)..]);
            out.push((format!("{label}.splice{s}+{other_label}"), spliced));
        }
        let Ok(doc) = Json::parse(bytes) else {
            continue;
        };
        out.push((format!("{label}.spaced"), spaced(bytes)));
        out.push((
            format!("{label}.reversed"),
            reversed_keys(&doc).to_string().into_bytes(),
        ));
        if let Json::Obj(pairs) = &doc {
            for (k, (key, _)) in pairs.iter().enumerate() {
                let mut nulled = pairs.clone();
                nulled[k].1 = Json::Null;
                out.push((
                    format!("{label}.null-{key}"),
                    Json::Obj(nulled).to_string().into_bytes(),
                ));
                let mut shadowed = pairs.clone();
                shadowed.insert(0, (key.clone(), Json::Null));
                out.push((
                    format!("{label}.null-first-{key}"),
                    Json::Obj(shadowed).to_string().into_bytes(),
                ));
                let mut duplicated = pairs.clone();
                duplicated.push((key.clone(), Json::Bool(true)));
                out.push((
                    format!("{label}.dup-{key}"),
                    Json::Obj(duplicated).to_string().into_bytes(),
                ));
            }
        }
        let mut arrays = Vec::new();
        number_arrays(&doc, &mut arrays);
        if !arrays.is_empty() {
            let mut entries = String::new();
            for (i, xs) in arrays.iter().enumerate() {
                if i > 0 {
                    entries.push(',');
                }
                let series = Json::from_f64s(xs).to_string();
                if i % 3 == 1 {
                    let _ = write!(entries, r#"{{"label":{i},"series":{series}}}"#);
                } else {
                    entries.push_str(&series);
                }
            }
            out.push((
                format!("{label}.bare-upload"),
                format!(r#"{{"id":9,"op":"upload_dataset","name":"pins","entries":[{entries}]}}"#)
                    .into_bytes(),
            ));
        }
    }
    out
}

fn error_text(e: &ProtocolError) -> String {
    let variant = match e {
        ProtocolError::Io(_) => "io",
        ProtocolError::FrameTooLarge { .. } => "frame_too_large",
        ProtocolError::Json(_) => "json",
        ProtocolError::Schema(_) => "schema",
        ProtocolError::InvalidParameter(_) => "invalid_parameter",
    };
    format!("err {variant} {e}")
}

/// What both decoders make of `payload`, in full.
fn outcome(payload: &[u8]) -> String {
    let request = match decode_request(payload) {
        Ok(env) => format!(
            "ok {} {env:?}",
            String::from_utf8_lossy(&encode_request(&env))
        ),
        Err(e) => error_text(&e),
    };
    let reply = match decode_reply(payload) {
        Ok(reply) => format!(
            "ok {} {reply:?}",
            String::from_utf8_lossy(&encode_reply(&reply))
        ),
        Err(e) => error_text(&e),
    };
    format!("request: {request}\nreply: {reply}")
}

/// A decoded input: its label, bytes and full outcome.
struct Decoded {
    label: String,
    bytes: Vec<u8>,
    outcome: String,
}

/// The pin file's text: a header line with the input count and a digest
/// of every input, then one outcome digest per input.
fn pin_text(decoded: &[Decoded]) -> (String, Vec<String>) {
    let mut all = Vec::new();
    for d in decoded {
        all.extend_from_slice(&(d.bytes.len() as u64).to_le_bytes());
        all.extend_from_slice(&d.bytes);
    }
    let header = format!("inputs {} {:016x}", decoded.len(), fnv1a(&all));
    let lines = decoded
        .iter()
        .map(|d| format!("{:016x}", fnv1a(d.outcome.as_bytes())))
        .collect();
    (header, lines)
}

fn decode_all() -> Vec<Decoded> {
    inputs()
        .into_iter()
        .map(|(label, bytes)| Decoded {
            outcome: outcome(&bytes),
            label,
            bytes,
        })
        .collect()
}

#[test]
fn decode_outcomes_match_the_pins() {
    let path = pins_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut pinned = text.lines();
    let decoded = decode_all();
    assert!(decoded.len() > 4000, "only {} inputs", decoded.len());
    let (header, lines) = pin_text(&decoded);
    assert_eq!(
        pinned.next(),
        Some(header.as_str()),
        "the input set changed; see the module doc"
    );
    let pinned: Vec<&str> = pinned.collect();
    assert_eq!(pinned.len(), lines.len(), "pin count");
    let mut report = String::new();
    let mut mismatches = 0;
    for (i, (d, line)) in decoded.iter().zip(&lines).enumerate() {
        if pinned[i] == line {
            continue;
        }
        mismatches += 1;
        if mismatches <= 8 {
            let shown: String = String::from_utf8_lossy(&d.bytes)
                .chars()
                .take(240)
                .collect();
            let _ = writeln!(
                report,
                "{} (input {i}): outcome {line}, pinned {}\n  payload: {shown}\n  {}",
                d.label,
                pinned[i],
                d.outcome.replace('\n', "\n  ")
            );
        }
    }
    assert!(
        mismatches == 0,
        "{mismatches} of {} decode outcomes differ from the pins:\n{report}",
        lines.len()
    );
}

/// Rewrites the pin file from the decoder as it is now.
#[test]
#[ignore = "rewrites tests/data/decode_pins.txt"]
fn rewrite_decode_pins() {
    let (header, lines) = pin_text(&decode_all());
    let mut text = header;
    text.push('\n');
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    let path = pins_path();
    std::fs::create_dir_all(path.parent().expect("parent")).expect("data directory");
    std::fs::write(&path, text).expect("write pins");
}
