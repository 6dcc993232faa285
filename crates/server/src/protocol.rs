//! The `mda-server` wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by exactly that many bytes of UTF-8 JSON (one document per frame). The
//! same framing is used in both directions.
//!
//! ## Requests
//!
//! Every request is an object with a client-chosen `id` (echoed on the
//! reply, so clients may pipeline) and an `op`:
//!
//! ```json
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "metrics"}
//! {"id": 3, "op": "distance", "kind": "DTW", "p": [0,1], "q": [0,2]}
//! {"id": 4, "op": "batch", "kind": "MD", "pairs": [[[0,1],[0,2]], [[1,1],[2,2]]]}
//! {"id": 5, "op": "knn", "kind": "DTW", "k": 1, "query": [0,1],
//!  "train": [{"label": 0, "series": [0,1]}, {"label": 1, "series": [5,5]}]}
//! {"id": 6, "op": "search", "query": [0,1], "haystack": [0,1,0,1], "window": 2, "band": 1}
//! ```
//!
//! Optional request fields: `threshold` (LCS/EdD/HamD match threshold),
//! `band` (Sakoe–Chiba radius for DTW), `deadline_ms` (queue-wait budget;
//! requests still queued when it expires are answered with a `timeout`
//! error instead of being computed), and `accuracy` (the answer-path SLA).
//!
//! ## Accuracy SLAs
//!
//! The compute ops (`distance`, `batch`, `knn`, `search`) accept an
//! optional `accuracy` field — either the string `"exact"` or an object
//! `{"tolerance": ε}` with finite non-negative ε:
//!
//! ```json
//! {"id": 13, "op": "distance", "kind": "DTW", "p": [0,1], "q": [0,2],
//!  "accuracy": {"tolerance": 16.0}}
//! ```
//!
//! An absent field means `exact` and leaves both request and reply bytes
//! identical to the pre-routing protocol. A malformed tolerance (NaN,
//! infinite, negative) is rejected at decode with the typed
//! `invalid_parameter` error. When a request *does* carry `accuracy`, its
//! reply reports which backend answered and the error bound it guarantees:
//!
//! ```json
//! {"id": 13, "ok": true, "result": {"value": 1.02},
//!  "backend": "analog", "bound": {"abs": 7.0, "rel": 0.3}}
//! ```
//!
//! ## Resident datasets
//!
//! A corpus can be uploaded once and then referenced by id, so the wire
//! carries queries instead of re-shipping the reference set:
//!
//! ```json
//! {"id": 7, "op": "upload_dataset", "name": "corpus",
//!  "entries": [[0,1,2], {"label": 1, "series": [3,4,5]}]}
//! {"id": 8, "op": "knn", "kind": "DTW", "k": 1, "query": [0,1],
//!  "dataset": "a1b2…"}
//! {"id": 9, "op": "batch", "kind": "MD", "query": [0,1],
//!  "dataset_name": "corpus", "version": 1}
//! {"id": 10, "op": "search", "query": [0,1], "dataset_name": "corpus",
//!  "series_index": 0, "window": 2, "band": 1}
//! {"id": 11, "op": "list_datasets"}
//! {"id": 12, "op": "drop_dataset", "dataset_name": "corpus"}
//! ```
//!
//! A dataset reference is either `dataset` (the content-addressed id
//! returned by `upload_dataset`) or `dataset_name` plus an optional
//! pinned `version`. Referencing an unknown id/name yields `not_found`;
//! pinning a superseded version yields `stale_version`.
//!
//! ## Push-mode streams
//!
//! Live series are mined incrementally: open a stream (fixing the window,
//! band, query, and optional match threshold), push points as they
//! arrive, and subscribe to per-push operator frames:
//!
//! ```json
//! {"id": 20, "op": "open_stream", "window": 16, "band": 2, "query": [0,1, "…"]}
//! {"id": 21, "op": "push_points", "stream_id": 1, "points": [0.5, 0.25]}
//! {"id": 22, "op": "subscribe", "stream_id": 1}
//! {"id": 23, "op": "close_stream", "stream_id": 1}
//! ```
//!
//! `open_stream` replies with the assigned `stream_id`, a `shard` that is
//! always `0` (one event loop serves every stream), and its `burn_in`
//! (pushes before the first ready frame). After `subscribe`, every accepted
//! push produces one unsolicited event frame on the subscriber's connection,
//! carrying the **subscribe request's id** and the operator `epoch` so
//! consumers detect gaps:
//!
//! ```json
//! {"id": 22, "ok": true, "result": {"event": {"stream_id": 1, "epoch": 4,
//!  "state": "warming", "seen": 4, "burn_in": 16}}}
//! {"id": 22, "ok": true, "result": {"event": {"stream_id": 1, "epoch": 17,
//!  "state": "ready", "mean": 0.5, "std_dev": 1.25, "decision": "pruned_keogh",
//!  "bound": 9.0, "threshold": 4.0, "motif": {"epoch": 16, "distance": 2.5}}}}
//! ```
//!
//! Pushing to an unknown or closed stream yields `not_found`; non-finite
//! points yield `invalid_parameter`; both are in-band replies and the
//! connection survives. A connection that subscribes and also pushes
//! receives each push's direct reply **before** the events it triggered.
//!
//! ## Replies
//!
//! ```json
//! {"id": 3, "ok": true, "result": {"value": 1.0}}
//! {"id": 4, "ok": false, "error": {"code": "overloaded", "message": "…"}}
//! ```
//!
//! Error codes: `overloaded` (admission control shed the request),
//! `timeout` (deadline expired in the queue), `bad_request` (malformed or
//! rejected by the distance definition), `invalid_parameter` (a field
//! parsed but its value is out of domain, e.g. a negative tolerance, or
//! finite inputs whose distance overflows `f64`, which JSON cannot carry),
//! `not_found` (unknown dataset id or name), `stale_version` (pinned
//! dataset version superseded), `shutting_down` (server is draining),
//! `internal`.
//!
//! ## Extending the protocol
//!
//! Each message is described once, in the message tables below: a row
//! per request op, reply shape and stream-event state, listing its fields
//! in wire order. Encoding and decoding are both generated from that row,
//! so a new verb or field is added in the one table and nowhere else.
//! Rules that span fields go in `Request::validate`.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use mda_distance::DistanceKind;
use mda_routing::{BackendId, Bound, Sla};

use crate::json::{Json, JsonError};

/// Default cap on a frame's payload size (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Error raised while reading or interpreting a frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed (includes truncated frames, which
    /// surface as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The frame header announced a payload larger than the negotiated cap.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload was not valid JSON.
    Json(JsonError),
    /// The payload was valid JSON but not a valid message.
    Schema(String),
    /// A field parsed but its value is outside the accepted domain (e.g. a
    /// negative or non-finite tolerance). Answered with the typed
    /// `invalid_parameter` error code rather than generic `bad_request`.
    InvalidParameter(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Json(e) => write!(f, "malformed payload: {e}"),
            ProtocolError::Schema(msg) => write!(f, "invalid message: {msg}"),
            ProtocolError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e)
    }
}

impl ProtocolError {
    /// `true` when the peer simply closed the connection cleanly before a
    /// frame header (not mid-frame) — the normal end of a session.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, ProtocolError::Io(e)
        if e.kind() == io::ErrorKind::UnexpectedEof && e.get_ref().is_some_and(|inner| {
            inner.to_string() == CLEAN_EOF
        }))
    }
}

const CLEAN_EOF: &str = "connection closed between frames";

/// Writes one frame (header + payload).
///
/// # Errors
///
/// Any transport error; payloads beyond `u32::MAX` are rejected.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 length"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload, enforcing the size cap **before** allocating.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] for oversized announcements, an
/// `UnexpectedEof` [`ProtocolError::Io`] for truncated frames, and a
/// distinguishable clean-EOF error (see [`ProtocolError::is_clean_eof`])
/// when the stream ends exactly on a frame boundary.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; 4];
    // First header byte: distinguish clean EOF from a truncated header.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    CLEAN_EOF,
                )))
            }
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(ProtocolError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Codec machinery. Every message below is described once, in a table that
// defines its type and lists its fields in wire order; these macros turn
// that table into both directions of the codec.
// ---------------------------------------------------------------------------

/// An object's fields: as parsed, or as written so far; or a value that
/// is not an object, read as the one field a struct's `or` names. Held
/// mutably so decoding can move a field's packed numbers out of the parse
/// tree instead of copying them.
enum Obj<'a> {
    Fields(&'a mut [(String, Json)]),
    Bare(&'static str, &'a mut Json),
}

/// A type with a JSON value of its own.
trait Value: Sized {
    fn to_json(&self) -> Json;
    /// Decode errors name no key; [`Field::take`] prefixes it. May move
    /// data out of `v`: each value is decoded once.
    fn from_json(v: &mut Json) -> Result<Self, ProtocolError>;

    /// An array of values: one node per element, except where a type
    /// overrides both directions (numbers use the packed array).
    fn array_to_json(items: &[Self]) -> Json {
        Json::Arr(items.iter().map(Self::to_json).collect())
    }

    fn array_from_json(v: &mut Json) -> Result<Vec<Self>, ProtocolError> {
        each(v)
    }
}

/// Reads an array element by element (a packed array as one number per
/// element).
fn each<T: Value>(v: &mut Json) -> Result<Vec<T>, ProtocolError> {
    match v {
        Json::Arr(items) => items.iter_mut().map(T::from_json).collect(),
        Json::Nums(xs) => xs
            .iter()
            .map(|&x| T::from_json(&mut Json::Num(x)))
            .collect(),
        _ => expected(None, "an array"),
    }
}

/// A field of an object: one key for a [`Value`]; several keys for the
/// flattened types ([`DatasetRef`], [`RouteInfo`], tagged enums).
trait Field: Sized {
    fn put(&self, key: &'static str, out: &mut Vec<(String, Json)>);
    /// `Ok(None)` when the field is absent (JSON `null` counts as absent).
    fn take(obj: &mut Obj<'_>, key: &'static str) -> Result<Option<Self>, ProtocolError>;
}

impl<T: Value> Field for T {
    fn put(&self, key: &'static str, out: &mut Vec<(String, Json)>) {
        out.push((key.into(), self.to_json()));
    }

    fn take(obj: &mut Obj<'_>, key: &'static str) -> Result<Option<Self>, ProtocolError> {
        lookup_mut(obj, key)
            .map(|v| T::from_json(v).map_err(|e| e.under(key)))
            .transpose()
    }
}

/// Omitted from the wire when `None`.
impl<T: Field> Field for Option<T> {
    fn put(&self, key: &'static str, out: &mut Vec<(String, Json)>) {
        if let Some(v) = self {
            v.put(key, out);
        }
    }

    fn take(obj: &mut Obj<'_>, key: &'static str) -> Result<Option<Self>, ProtocolError> {
        T::take(obj, key).map(Some)
    }
}

impl ProtocolError {
    /// Prefixes a field's decode error with its key.
    fn under(self, key: &str) -> ProtocolError {
        match self {
            ProtocolError::Schema(m) => ProtocolError::Schema(format!("`{key}`: {m}")),
            ProtocolError::InvalidParameter(m) => {
                ProtocolError::InvalidParameter(format!("`{key}`: {m}"))
            }
            other => other,
        }
    }
}

fn lookup<'a>(obj: &'a Obj<'_>, key: &str) -> Option<&'a Json> {
    match obj {
        Obj::Fields(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        Obj::Bare(k, v) => (*k == key).then_some(&**v),
    }
    .filter(|v| !matches!(v, Json::Null))
}

/// [`lookup`], for decoding the field.
fn lookup_mut<'a>(obj: &'a mut Obj<'_>, key: &str) -> Option<&'a mut Json> {
    match obj {
        Obj::Fields(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        Obj::Bare(k, v) => (*k == key).then_some(&mut **v),
    }
    .filter(|v| !matches!(v, Json::Null))
}

fn required<T: Field>(obj: &mut Obj<'_>, key: &'static str) -> Result<T, ProtocolError> {
    T::take(obj, key)?.ok_or_else(|| ProtocolError::Schema(format!("missing `{key}`")))
}

/// Rejects a field the message's form does not allow.
fn absent(obj: &Obj<'_>, key: &'static str, why: &str) -> Result<(), ProtocolError> {
    match lookup(obj, key) {
        None => Ok(()),
        Some(_) => Err(ProtocolError::Schema(format!("`{key}` {why}"))),
    }
}

fn expected<T>(value: Option<T>, what: &str) -> Result<T, ProtocolError> {
    value.ok_or_else(|| ProtocolError::Schema(format!("expected {what}")))
}

fn object(v: &mut Json) -> Result<Obj<'_>, ProtocolError> {
    match v {
        Json::Obj(fields) => Ok(Obj::Fields(fields)),
        _ => expected(None, "an object"),
    }
}

/// `true` when the object carries a [`DatasetRef`]. Fields marked
/// `[Inline]` then stay off the wire and fields marked `[Resident]` may
/// appear; without one it is the other way round. The reference precedes
/// those fields in wire order, so encoding asks the same question of the
/// object written so far.
fn carries_dataset(obj: &Obj<'_>) -> bool {
    lookup(obj, "dataset").is_some() || lookup(obj, "dataset_name").is_some()
}

/// Writes or reads one field of a table row.
///
/// A row is `name: Type as "key" [Rule] = default`, all but the name and
/// type optional; `as "key"` is for a wire key that differs from the name.
/// Without a default, a missing field is an error unless its type is an
/// `Option` (omitted when `None`). Rules: `Inline` / `Resident` (see
/// [`carries_dataset`]) and `Finite` (omitted unless finite).
macro_rules! field {
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    (@put $out:ident, $v:ident, $key:expr, []) => { Field::put($v, $key, $out) };
    (@put $out:ident, $v:ident, $key:expr, [Finite]) => {
        if $v.is_finite() { Field::put($v, $key, $out) }
    };
    (@put $out:ident, $v:ident, $key:expr, [Inline]) => {
        if !carries_dataset(&Obj::Fields($out)) { Field::put($v, $key, $out) }
    };
    (@put $out:ident, $v:ident, $key:expr, [Resident]) => {
        if carries_dataset(&Obj::Fields($out)) { Field::put($v, $key, $out) }
    };
    (@take $obj:ident, $t:ty, $key:expr, [Inline], [$($default:expr)?]) => {
        if carries_dataset($obj) {
            absent($obj, $key, "and a dataset reference are mutually exclusive")?;
            <$t>::default()
        } else {
            field!(@take $obj, $t, $key, [], [$($default)?])
        }
    };
    (@take $obj:ident, $t:ty, $key:expr, [Resident], [$($default:expr)?]) => {
        if carries_dataset($obj) {
            field!(@take $obj, $t, $key, [], [$($default)?])
        } else {
            absent($obj, $key, "requires a dataset reference")?;
            <$t>::default()
        }
    };
    (@take $obj:ident, $t:ty, $key:expr, [$($rule:ident)?], []) => { required::<$t>($obj, $key)? };
    (@take $obj:ident, $t:ty, $key:expr, [$($rule:ident)?], [$default:expr]) => {
        <$t as Field>::take($obj, $key)?.unwrap_or($default)
    };
    (@marker marker $out:ident $tag:literal) => { $out.push(($tag.into(), Json::Bool(true))) };
    (@marker key $out:ident $tag:literal) => {};
}

/// Defines a struct carried as one JSON object, fields in wire order (the
/// `impl` form describes a struct defined elsewhere). With `or field`, a
/// value that is not an object reads as that field alone, borrowed, not
/// copied.
macro_rules! wire_struct {
    ($(#[$m:meta])* pub struct $S:ident {
        $($(#[$fm:meta])* $f:ident: $t:ty $(as $key:literal)? $([$rule:ident])? $(= $default:expr)?),* $(,)?
    } $(or $bare:ident)?) => {
        $(#[$m])*
        pub struct $S { $($(#[$fm])* pub $f: $t),* }

        wire_struct!(impl $S {
            $($f: $t $(as $key)? $([$rule])? $(= $default)?),*
        } $(or $bare)?);
    };
    (impl $S:ident {
        $($f:ident: $t:ty $(as $key:literal)? $([$rule:ident])? $(= $default:expr)?),* $(,)?
    } $(or $bare:ident)?) => {
        impl Value for $S {
            fn to_json(&self) -> Json {
                let mut fields = Vec::new();
                let out = &mut fields;
                let $S { $($f),* } = self;
                $(field!(@put out, $f, field!(@key $f $($key)?), [$($rule)?]);)*
                Json::Obj(fields)
            }

            fn from_json(v: &mut Json) -> Result<Self, ProtocolError> {
                let obj = &mut match v {
                    $(_ if !matches!(v, Json::Obj(_)) => Obj::Bare(stringify!($bare), v),)?
                    _ => object(v)?,
                };
                Ok($S {
                    $($f: field!(@take obj, $t, field!(@key $f $($key)?), [$($rule)?], [$($default)?])),*
                })
            }
        }
    };
}

/// Defines an enum flattened into its parent object: the parent's key for
/// it (`"op"`, `"state"`) holds the variant's tag, and the variant's fields
/// follow in wire order.
macro_rules! tagged_enum {
    ($(#[$m:meta])* pub enum $E:ident {
        $($(#[$vm:meta])* $V:ident $({
            $($(#[$fm:meta])* $f:ident: $t:ty $(as $key:literal)? $([$rule:ident])? $(= $default:expr)?),* $(,)?
        })? = $tag:literal),* $(,)?
    }) => {
        $(#[$m])*
        pub enum $E { $($(#[$vm])* $V $({ $($(#[$fm])* $f: $t),* })?),* }

        impl $E {
            fn tag(&self) -> &'static str {
                match self { $($E::$V { .. } => $tag),* }
            }
        }

        impl Field for $E {
            fn put(&self, key: &'static str, out: &mut Vec<(String, Json)>) {
                out.push((key.into(), Json::Str(self.tag().into())));
                match self {
                    $($E::$V $({ $($f),* })? => {
                        $($(field!(@put out, $f, field!(@key $f $($key)?), [$($rule)?]);)*)?
                    })*
                }
            }

            fn take(obj: &mut Obj<'_>, key: &'static str) -> Result<Option<Self>, ProtocolError> {
                let Some(tag) = lookup(obj, key) else { return Ok(None) };
                Ok(Some(match expected(tag.as_str(), "a string").map_err(|e| e.under(key))? {
                    $($tag => $E::$V $({
                        $($f: field!(@take obj, $t, field!(@key $f $($key)?), [$($rule)?], [$($default)?])),*
                    })?,)*
                    other => return Err(ProtocolError::Schema(format!("unknown `{key}` `{other}`"))),
                }))
            }
        }
    };
}

/// Defines an enum carried as one object whose shape is identified by a
/// key: `key "k"` names one of the variant's own fields, `marker "k"` a
/// `"k": true` written first. Decoding tries the keys in table order.
macro_rules! keyed_enum {
    ($(#[$m:meta])* pub enum $E:ident {
        $($(#[$vm:meta])* $V:ident $(($tf:ident: $tt:ty))? $({
            $($(#[$fm:meta])* $f:ident: $t:ty $(as $key:literal)? $([$rule:ident])? $(= $default:expr)?),* $(,)?
        })? = $how:ident $tag:literal),* $(,)?
    }) => {
        $(#[$m])*
        pub enum $E { $($(#[$vm])* $V $(($tt))? $({ $($(#[$fm])* $f: $t),* })?),* }

        impl Value for $E {
            fn to_json(&self) -> Json {
                let mut fields = Vec::new();
                let out = &mut fields;
                match self {
                    $($E::$V $(($tf))? $({ $($f),* })? => {
                        field!(@marker $how out $tag);
                        $(Field::put($tf, $tag, out);)?
                        $($(field!(@put out, $f, field!(@key $f $($key)?), [$($rule)?]);)*)?
                    })*
                }
                Json::Obj(fields)
            }

            fn from_json(v: &mut Json) -> Result<Self, ProtocolError> {
                let obj = &mut object(v)?;
                $(if lookup(obj, $tag).is_some() {
                    return Ok($E::$V $((required::<$tt>(obj, $tag)?))? $({
                        $($f: field!(@take obj, $t, field!(@key $f $($key)?), [$($rule)?], [$($default)?])),*
                    })?);
                })*
                Err(ProtocolError::Schema("unrecognized result shape".into()))
            }
        }
    };
}

// ---------------------------------------------------------------------------
// The messages. A new verb, reply shape or field is added here, in its row,
// and nowhere else: both directions of the codec follow from the table.
// ---------------------------------------------------------------------------

wire_struct! {
    /// A labelled training series for a kNN request.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TrainInstance {
        /// Class label.
        label: usize,
        /// The series.
        series: Vec<f64>,
    }
}

/// A reference to a resident dataset: by content-addressed id, or by name
/// with an optional pinned version. On the wire it is flattened into its
/// message as `dataset`, or as `dataset_name` plus an optional `version`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetRef {
    /// The content-addressed id returned by `upload_dataset`.
    pub id: Option<String>,
    /// The upload name.
    pub name: Option<String>,
    /// Pinned version (only meaningful with `name`; a superseded pin is
    /// answered with `stale_version`).
    pub version: Option<u64>,
}

impl DatasetRef {
    /// A reference by content-addressed id.
    pub fn by_id(id: impl Into<String>) -> DatasetRef {
        DatasetRef {
            id: Some(id.into()),
            ..DatasetRef::default()
        }
    }

    /// A reference by name (current version).
    pub fn by_name(name: impl Into<String>) -> DatasetRef {
        DatasetRef {
            name: Some(name.into()),
            ..DatasetRef::default()
        }
    }

    /// A reference by name pinned to a specific version.
    pub fn by_name_version(name: impl Into<String>, version: u64) -> DatasetRef {
        DatasetRef {
            name: Some(name.into()),
            version: Some(version),
            ..DatasetRef::default()
        }
    }
}

impl Field for DatasetRef {
    fn put(&self, _key: &'static str, out: &mut Vec<(String, Json)>) {
        self.id.put("dataset", out);
        self.name.put("dataset_name", out);
        self.version.put("version", out);
    }

    fn take(obj: &mut Obj<'_>, _key: &'static str) -> Result<Option<Self>, ProtocolError> {
        let found = DatasetRef {
            id: Field::take(obj, "dataset")?,
            name: Field::take(obj, "dataset_name")?,
            version: Field::take(obj, "version")?,
        };
        let broken = match (
            found.id.is_some(),
            found.name.is_some(),
            found.version.is_some(),
        ) {
            (true, true, _) => "specify `dataset` or `dataset_name`, not both",
            (_, false, true) => "`version` requires `dataset_name`",
            (false, false, false) => return Ok(None),
            _ => return Ok(Some(found)),
        };
        Err(ProtocolError::Schema(broken.into()))
    }
}

wire_struct! {
    /// One entry in a dataset upload: a series with an optional class label
    /// (defaults to 0; labels matter only for kNN queries). A bare array of
    /// numbers also reads as an entry.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DatasetEntry {
        /// Class label (0 when the wire entry is a bare array).
        label: usize = 0,
        /// The series.
        series: Vec<f64>,
    } or series
}

wire_struct! {
    /// Summary row for `list_datasets` replies.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DatasetSummary {
        /// Upload name.
        name: String,
        /// Content-addressed id.
        dataset_id: String,
        /// Current version under this name.
        version: u64,
        /// Number of series.
        count: usize,
        /// Resident payload bytes (8 bytes per sample).
        bytes: u64,
    }
}

tagged_enum! {
    /// One request, without its envelope `id`. Each row is the op name
    /// and the fields in wire order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Liveness probe.
        Ping = "ping",
        /// Fetch the metrics registry as text.
        Metrics = "metrics",
        /// One distance evaluation.
        Distance {
            /// Match threshold override (LCS/EdD/HamD).
            threshold: Option<f64>,
            /// Sakoe–Chiba radius (DTW).
            band: Option<usize>,
            /// Queue-wait budget.
            deadline_ms: Option<u64>,
            /// Accuracy SLA (absent ⇒ `exact`).
            accuracy: Option<Sla>,
            /// Which of the six functions.
            kind: DistanceKind,
            /// First series.
            p: Vec<f64>,
            /// Second series.
            q: Vec<f64>,
        } = "distance",
        /// A pairwise batch: one value per pair (inline `pairs`), or — with a
        /// dataset reference — `query` against every resident series.
        Batch {
            /// Match threshold override (LCS/EdD/HamD).
            threshold: Option<f64>,
            /// Sakoe–Chiba radius (DTW).
            band: Option<usize>,
            /// Queue-wait budget.
            deadline_ms: Option<u64>,
            /// Accuracy SLA (absent ⇒ `exact`).
            accuracy: Option<Sla>,
            /// Which of the six functions.
            kind: DistanceKind,
            /// Resident corpus reference (mutually exclusive with `pairs`).
            dataset: Option<DatasetRef>,
            /// The query series (resident form: one value per dataset series).
            query: Option<Vec<f64>> [Resident],
            /// The pairs to evaluate (inline form; empty when `dataset` set).
            pairs: Vec<(Vec<f64>, Vec<f64>)> [Inline],
        } = "batch",
        /// k-nearest-neighbour classification of `query` against `train` or a
        /// resident labelled dataset.
        Knn {
            /// Match threshold override (LCS/EdD/HamD).
            threshold: Option<f64>,
            /// Sakoe–Chiba radius (DTW).
            band: Option<usize>,
            /// Queue-wait budget.
            deadline_ms: Option<u64>,
            /// Accuracy SLA (absent ⇒ `exact`).
            accuracy: Option<Sla>,
            /// Which of the six functions.
            kind: DistanceKind,
            /// Neighbour count (≥ 1).
            k: usize,
            /// The query series.
            query: Vec<f64>,
            /// Resident training-set reference (mutually exclusive with `train`).
            dataset: Option<DatasetRef>,
            /// Labelled training set (inline form; empty when `dataset` set).
            train: Vec<TrainInstance> [Inline],
        } = "knn",
        /// Banded-DTW subsequence search of `query` in `haystack` or a
        /// resident series.
        Search {
            /// Sakoe–Chiba radius.
            band: usize = 0,
            /// Queue-wait budget.
            deadline_ms: Option<u64>,
            /// Accuracy SLA (absent ⇒ `exact`; searches answer exactly either
            /// way, but the reply then reports its backend and bound).
            accuracy: Option<Sla>,
            /// The query series.
            query: Vec<f64>,
            /// Resident haystack reference (mutually exclusive with `haystack`).
            dataset: Option<DatasetRef>,
            /// Which series of the dataset to scan (resident form; default 0).
            series_index: usize [Resident] = 0,
            /// The long series to scan (inline form; empty when `dataset` set).
            haystack: Vec<f64> [Inline],
            /// Window length (≥ 1).
            window: usize,
        } = "search",
        /// Open a push-mode stream: fixes the sliding window, band, query, and
        /// optional match threshold for the stream's pipeline.
        OpenStream {
            /// Optional match threshold (finite, positive).
            threshold: Option<f64>,
            /// Sliding-window length (≥ 1); also the burn-in.
            window: usize,
            /// Sakoe–Chiba radius for the online matcher.
            band: usize = 0,
            /// The query subsequence (length must equal `window`).
            query: Vec<f64>,
        } = "open_stream",
        /// Append points to an open stream.
        PushPoints {
            /// The stream to push to.
            stream_id: u64,
            /// The points, oldest first.
            points: Vec<f64>,
        } = "push_points",
        /// Subscribe this connection to a stream's per-push events.
        Subscribe {
            /// The stream to follow.
            stream_id: u64,
        } = "subscribe",
        /// Close a stream, dropping its state and subscriptions.
        CloseStream {
            /// The stream to close.
            stream_id: u64,
        } = "close_stream",
        /// Upload a resident dataset; replies with its content-addressed id.
        UploadDataset {
            /// Name the dataset is versioned under.
            name: String,
            /// The series (with optional labels).
            entries: Vec<DatasetEntry>,
        } = "upload_dataset",
        /// List resident datasets.
        ListDatasets = "list_datasets",
        /// Drop a resident dataset by id or name.
        DropDataset {
            /// Which dataset.
            dataset: DatasetRef,
        } = "drop_dataset",
    }
}

impl Request {
    /// Short operation label (the wire `op`), used for metrics.
    pub fn op(&self) -> &'static str {
        self.tag()
    }

    /// The request's queue-wait budget, if any.
    pub fn deadline(&self) -> Option<Duration> {
        let ms = match self {
            Request::Distance { deadline_ms, .. }
            | Request::Batch { deadline_ms, .. }
            | Request::Knn { deadline_ms, .. }
            | Request::Search { deadline_ms, .. } => *deadline_ms,
            _ => None,
        };
        ms.map(Duration::from_millis)
    }

    /// The request's explicit accuracy SLA, if it carried one. `None`
    /// means the wire field was absent — semantically `exact`, and the
    /// reply stays in the pre-routing shape.
    pub fn accuracy(&self) -> Option<Sla> {
        match self {
            Request::Distance { accuracy, .. }
            | Request::Batch { accuracy, .. }
            | Request::Knn { accuracy, .. }
            | Request::Search { accuracy, .. } => *accuracy,
            _ => None,
        }
    }

    /// The rules that span fields, checked after decoding.
    fn validate(&self) -> Result<(), ProtocolError> {
        let broken = match self {
            Request::Batch {
                dataset: Some(_),
                query: None,
                ..
            } => "a dataset batch requires `query`",
            Request::Knn { k: 0, .. } => "`k` must be at least 1",
            Request::Search { window: 0, .. } | Request::OpenStream { window: 0, .. } => {
                "`window` must be at least 1"
            }
            Request::OpenStream {
                threshold: Some(t), ..
            } if !(t.is_finite() && *t > 0.0) => {
                return Err(ProtocolError::InvalidParameter(
                    "`threshold` must be finite and positive".into(),
                ))
            }
            Request::UploadDataset { name, .. } if name.is_empty() => {
                "`name` must be a non-empty string"
            }
            _ => return Ok(()),
        };
        Err(ProtocolError::Schema(broken.into()))
    }
}

wire_struct! {
    /// A request plus its envelope `id`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Envelope {
        /// Client-chosen id, echoed on the reply.
        id: u64,
        /// The request.
        req: Request as "op",
    }
}

/// Machine-readable error class on an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request (queue full).
    Overloaded,
    /// The deadline expired while the request was queued.
    Timeout,
    /// The request was malformed or rejected by the distance definition.
    BadRequest,
    /// A field parsed but its value is out of domain (e.g. a NaN, infinite
    /// or negative tolerance).
    InvalidParameter,
    /// The referenced dataset id or name is not resident.
    NotFound,
    /// The request pinned a dataset version that has been superseded.
    StaleVersion,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

/// Every error code with its wire name.
const ERROR_CODES: [(ErrorCode, &str); 8] = [
    (ErrorCode::Overloaded, "overloaded"),
    (ErrorCode::Timeout, "timeout"),
    (ErrorCode::BadRequest, "bad_request"),
    (ErrorCode::InvalidParameter, "invalid_parameter"),
    (ErrorCode::NotFound, "not_found"),
    (ErrorCode::StaleVersion, "stale_version"),
    (ErrorCode::ShuttingDown, "shutting_down"),
    (ErrorCode::Internal, "internal"),
];

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        ERROR_CODES
            .iter()
            .find_map(|&(code, name)| (code == self).then_some(name))
            .expect("every code is named")
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ERROR_CODES
            .iter()
            .find_map(|&(code, name)| (name == s).then_some(code))
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

wire_struct! {
    /// A best-so-far motif/discord record on a stream event.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MatchRecord {
        /// The push epoch the record was set at.
        epoch: u64,
        /// Its distance (motif: computed DTW; discord: certified lower bound).
        distance: f64,
    }
}

wire_struct! {
    /// What a subscribed connection receives after each accepted push.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StreamEventBody {
        /// The stream the event belongs to.
        stream_id: u64,
        /// The operator epoch (push count) — consecutive per stream, so a gap
        /// tells the subscriber it missed events.
        epoch: u64,
        /// Warming progress or the ready frame.
        state: StreamEventState,
    }
}

tagged_enum! {
    /// The stream pipeline's state carried on one stream event.
    #[derive(Debug, Clone, PartialEq)]
    pub enum StreamEventState {
        /// The window has not filled yet; no frames are emitted.
        Warming {
            /// Points seen so far.
            seen: u64,
            /// Points required before the first ready frame.
            burn_in: u64,
        } = "warming",
        /// One ready frame from the incremental stages.
        Ready {
            /// Sliding-window mean.
            mean: f64,
            /// Sliding-window standard deviation.
            std_dev: f64,
            /// Cascade outcome: `computed`, `pruned_kim`, `pruned_keogh`, or
            /// `abandoned`.
            decision: String,
            /// The certified lower bound on this window's distance.
            bound: f64,
            /// Effective pruning threshold ([`f64::INFINITY`] = unbounded;
            /// omitted from the wire then).
            threshold: f64 [Finite] = f64::INFINITY,
            /// Best (smallest computed) match so far.
            motif: Option<MatchRecord>,
            /// Largest certified lower bound so far.
            discord: Option<MatchRecord>,
        } = "ready",
    }
}

keyed_enum! {
    /// The body of a reply (success variants mirror the request ops). Each
    /// row ends with the key that identifies its shape inside `result`
    /// (`error` for [`ResponseBody::Error`]), in the order decoding tries
    /// them.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ResponseBody {
        /// Reply to `ping`.
        Pong = marker "pong",
        /// Reply to `metrics`: the rendered registry.
        MetricsText(text: String) = key "text",
        /// Reply to `upload_dataset`.
        DatasetUploaded {
            /// Content-addressed id for query references.
            dataset_id: String,
            /// Version assigned under the upload name.
            version: u64,
            /// Number of series.
            count: usize,
            /// Resident payload bytes.
            bytes: u64,
        } = key "dataset_id",
        /// Reply to `list_datasets`.
        Datasets {
            /// One row per resident dataset.
            items: Vec<DatasetSummary> as "datasets",
        } = key "datasets",
        /// Reply to `drop_dataset`.
        Dropped {
            /// Number of datasets removed (0 or 1).
            count: usize as "dropped",
        } = key "dropped",
        /// An unsolicited per-push event on a subscribed connection (carries
        /// the subscribe request's id).
        StreamEvent(event: StreamEventBody) = key "event",
        /// Reply to `subscribe`.
        Subscribed {
            /// Echo of the stream id.
            stream_id: u64,
            /// The stream's epoch at subscription time.
            epoch: u64,
            /// `true` once burn-in has completed.
            warm: bool,
        } = marker "subscribed",
        /// Reply to `close_stream`.
        StreamClosed {
            /// Echo of the stream id.
            stream_id: u64,
            /// Total points the stream accepted over its lifetime.
            pushed: u64,
        } = marker "closed",
        /// Reply to `open_stream`.
        StreamOpened {
            /// The assigned stream id — use it in every later stream op.
            stream_id: u64,
            /// The shard the stream runs on; always `0`, as one event
            /// loop serves every stream.
            shard: u32,
            /// Pushes before the first ready frame.
            burn_in: u64,
        } = key "burn_in",
        /// Reply to `push_points`.
        PointsPushed {
            /// Echo of the stream id.
            stream_id: u64,
            /// Points accepted by this push.
            accepted: u64,
            /// The stream's epoch after the push.
            epoch: u64,
        } = key "accepted",
        /// Reply to `distance`.
        Distance {
            /// The computed value.
            value: f64,
        } = key "value",
        /// Reply to `batch`.
        Batch {
            /// One value per input pair, in input order.
            values: Vec<f64>,
        } = key "values",
        /// Reply to `knn`.
        Knn {
            /// Predicted label.
            label: usize,
            /// Score of the deciding neighbour.
            score: f64,
            /// Index of the nearest training instance.
            nearest_index: usize,
        } = key "label",
        /// Reply to `search`.
        Search {
            /// Start offset of the best window.
            offset: usize,
            /// Its banded DTW distance.
            distance: f64,
        } = key "offset",
        /// Any failure (carried under `error`, with `ok: false`).
        Error {
            /// Machine-readable class.
            code: ErrorCode,
            /// Human-readable description.
            message: String = String::new(),
        } = key "code",
    }
}

/// Which backend answered a routed request, and with what guarantee.
/// Attached to a reply only when the request carried an explicit
/// `accuracy` field — absent otherwise, keeping the pre-routing reply
/// bytes unchanged. Flattened into the reply as `backend` and `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteInfo {
    /// The answering backend.
    pub backend: BackendId,
    /// The error bound the answer is guaranteed to satisfy against the
    /// exact digital value.
    pub bound: Bound,
}

impl Field for RouteInfo {
    fn put(&self, _key: &'static str, out: &mut Vec<(String, Json)>) {
        self.backend.put("backend", out);
        self.bound.put("bound", out);
    }

    fn take(obj: &mut Obj<'_>, _key: &'static str) -> Result<Option<Self>, ProtocolError> {
        let Some(backend) = Field::take(obj, "backend")? else {
            return Ok(None);
        };
        Ok(Some(RouteInfo {
            backend,
            bound: required(obj, "bound")?,
        }))
    }
}

/// A reply plus the echoed request `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echo of the request id.
    pub id: u64,
    /// The body.
    pub body: ResponseBody,
    /// Routing report for explicitly accuracy-tagged requests.
    pub route: Option<RouteInfo>,
}

impl Reply {
    /// A reply with no routing report — the shape of every reply to a
    /// request without an explicit `accuracy` field.
    pub fn new(id: u64, body: ResponseBody) -> Reply {
        Reply {
            id,
            body,
            route: None,
        }
    }

    /// This reply with a routing report attached.
    pub fn with_route(mut self, route: RouteInfo) -> Reply {
        self.route = Some(route);
        self
    }
}

// ---------------------------------------------------------------------------
// Field types.
// ---------------------------------------------------------------------------

/// Scalar field types: how one value is written, how it is read, and what
/// it must be.
macro_rules! scalars {
    ($($t:ty: |$x:ident| $to:expr, |$v:ident| $from:expr, $what:literal;)*) => {$(
        impl Value for $t {
            fn to_json(&self) -> Json {
                let $x = self;
                $to
            }

            fn from_json($v: &mut Json) -> Result<Self, ProtocolError> {
                expected($from, $what)
            }
        }
    )*};
}

scalars! {
    u64: |x| Json::Num(*x as f64), |v| v.as_u64(), "a non-negative integer";
    usize: |x| Json::Num(*x as f64), |v| v.as_usize(), "a non-negative integer";
    u32: |x| Json::Num(f64::from(*x)), |v| v.as_u64().and_then(|n| u32::try_from(n).ok()),
        "a 32-bit unsigned integer";
    bool: |x| Json::Bool(*x), |v| v.as_bool(), "a boolean";
    String: |x| Json::Str(x.clone()), |v| v.as_str().map(str::to_owned), "a string";
    DistanceKind: |x| Json::Str(x.abbrev().into()), |v| v.as_str().and_then(|s| s.parse().ok()),
        "a distance kind (DTW, LCS, EdD, HauD, HamD or MD)";
    BackendId: |x| Json::Str(x.as_str().into()), |v| v.as_str().and_then(|s| s.parse().ok()),
        "a backend name";
    ErrorCode: |x| Json::Str(x.as_str().into()), |v| v.as_str().and_then(ErrorCode::parse),
        "a known error code";
}

/// Series travel as the parser's packed arrays: decoding moves the parsed
/// vector out of the tree and encoding builds one node, with nothing per
/// sample.
impl Value for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn from_json(v: &mut Json) -> Result<Self, ProtocolError> {
        expected(v.as_f64(), "a number")
    }

    fn array_to_json(xs: &[f64]) -> Json {
        Json::from_f64s(xs)
    }

    fn array_from_json(v: &mut Json) -> Result<Vec<f64>, ProtocolError> {
        match v {
            Json::Nums(xs) => Ok(std::mem::take(xs)),
            _ => each(v),
        }
    }
}

impl<T: Value> Value for Vec<T> {
    fn to_json(&self) -> Json {
        T::array_to_json(self)
    }

    fn from_json(v: &mut Json) -> Result<Self, ProtocolError> {
        T::array_from_json(v)
    }
}

/// A pair of series, written `[p, q]`.
impl<A: Value, B: Value> Value for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn from_json(v: &mut Json) -> Result<Self, ProtocolError> {
        match v {
            Json::Arr(items) => match &mut items[..] {
                [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
                _ => expected(None, "a pair `[p, q]`"),
            },
            Json::Nums(xs) if xs.len() == 2 => Ok((
                A::from_json(&mut Json::Num(xs[0]))?,
                B::from_json(&mut Json::Num(xs[1]))?,
            )),
            _ => expected(None, "a pair `[p, q]`"),
        }
    }
}

/// `"exact"` or `{"tolerance": ε}`. An unknown name or an ε that is NaN,
/// infinite or negative is [`ProtocolError::InvalidParameter`], so clients
/// get the typed `invalid_parameter` reply rather than `bad_request`.
impl Value for Sla {
    fn to_json(&self) -> Json {
        match self {
            Sla::Exact => Json::Str("exact".into()),
            Sla::Tolerance(e) => Json::Obj(vec![("tolerance".into(), Json::Num(*e))]),
        }
    }

    fn from_json(v: &mut Json) -> Result<Self, ProtocolError> {
        match v {
            Json::Str(s) if s == "exact" => Ok(Sla::Exact),
            Json::Str(s) => Err(ProtocolError::InvalidParameter(format!(
                "unknown accuracy `{s}` (expected \"exact\" or {{\"tolerance\": ε}})"
            ))),
            Json::Obj(obj) => Sla::tolerance(required(&mut Obj::Fields(obj), "tolerance")?)
                .map_err(|e| ProtocolError::InvalidParameter(e.to_string())),
            _ => expected(None, "\"exact\" or {\"tolerance\": ε}"),
        }
    }
}

wire_struct!(impl Bound { abs: f64, rel: f64 });

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Decodes a request envelope from a frame payload.
///
/// # Errors
///
/// [`ProtocolError::Json`] for malformed JSON, [`ProtocolError::Schema`]
/// for structurally invalid messages, [`ProtocolError::InvalidParameter`]
/// for out-of-domain values. Never panics, whatever the payload.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, ProtocolError> {
    let env = Envelope::from_json(&mut Json::parse(payload)?)?;
    env.req.validate()?;
    Ok(env)
}

/// Encodes a request envelope to a frame payload.
pub fn encode_request(env: &Envelope) -> Vec<u8> {
    env.to_json().to_string().into_bytes()
}

/// Encodes a reply to a frame payload: `{"id", "ok", "result" | "error"}`
/// plus the routing report, if any.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut fields = Vec::new();
    let out = &mut fields;
    let ok = !matches!(reply.body, ResponseBody::Error { .. });
    reply.id.put("id", out);
    ok.put("ok", out);
    reply.body.put(if ok { "result" } else { "error" }, out);
    // The routing report is flattened (`backend`, `bound`): no key of its own.
    reply.route.put("route", out);
    Json::Obj(fields).to_string().into_bytes()
}

/// Decodes a reply from a frame payload. The reply shape is inferred from
/// the result keys, so the caller matches on [`ResponseBody`].
///
/// # Errors
///
/// [`ProtocolError::Json`] / [`ProtocolError::Schema`]; never panics.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtocolError> {
    let mut v = Json::parse(payload)?;
    let obj = &mut object(&mut v)?;
    let id = required(obj, "id")?;
    let ok: bool = required(obj, "ok")?;
    let route = required(obj, "route")?;
    let body: ResponseBody = required(obj, if ok { "result" } else { "error" })?;
    if ok == matches!(body, ResponseBody::Error { .. }) {
        return Err(ProtocolError::Schema(
            "`ok` disagrees with the reply body".into(),
        ));
    }
    Ok(Reply { id, body, route })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES).unwrap(),
            b"hello"
        );
        // A second read hits clean EOF.
        let err = read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES).unwrap_err();
        assert!(err.is_clean_eof(), "{err}");
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn truncated_frame_is_io_error_not_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Io(_)));
        assert!(!err.is_clean_eof());
    }

    #[test]
    fn stream_request_schema_and_domain_violations() {
        // Structural problems are schema errors (bad_request)…
        for bad in [
            &br#"{"id":1,"op":"open_stream","window":0,"query":[1.0]}"#[..],
            br#"{"id":1,"op":"open_stream","query":[1.0]}"#,
            br#"{"id":1,"op":"open_stream","window":2}"#,
            br#"{"id":1,"op":"push_points","points":[1.0]}"#,
            br#"{"id":1,"op":"push_points","stream_id":1,"points":[true]}"#,
            br#"{"id":1,"op":"subscribe"}"#,
            br#"{"id":1,"op":"close_stream","stream_id":-1}"#,
        ] {
            let err = decode_request(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Schema(_)),
                "{}: {err}",
                String::from_utf8_lossy(bad)
            );
        }
        // …while an out-of-domain threshold is the typed invalid_parameter.
        for bad in [
            &br#"{"id":1,"op":"open_stream","window":2,"query":[0.0,1.0],"threshold":-1.0}"#[..],
            br#"{"id":1,"op":"open_stream","window":2,"query":[0.0,1.0],"threshold":0}"#,
            br#"{"id":1,"op":"open_stream","window":2,"query":[0.0,1.0],"threshold":1e999}"#,
        ] {
            let err = decode_request(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::InvalidParameter(_)),
                "{}: {err}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn accuracy_decodes_exact_and_tolerance_forms() {
        let env = decode_request(
            br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":"exact"}"#,
        )
        .unwrap();
        assert_eq!(env.req.accuracy(), Some(Sla::Exact));
        let env = decode_request(
            br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":{"tolerance":0.5}}"#,
        )
        .unwrap();
        assert_eq!(env.req.accuracy(), Some(Sla::Tolerance(0.5)));
        let env =
            decode_request(br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1]}"#).unwrap();
        assert_eq!(env.req.accuracy(), None);
    }

    #[test]
    fn malformed_tolerances_are_typed_invalid_parameter() {
        for bad in [
            &br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":{"tolerance":-0.5}}"#[..],
            br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":{"tolerance":1e999}}"#,
            br#"{"id":1,"op":"knn","kind":"MD","k":1,"query":[0],"train":[],"accuracy":"fast"}"#,
        ] {
            let err = decode_request(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::InvalidParameter(_)),
                "{}: {err}",
                String::from_utf8_lossy(bad)
            );
        }
        // A structurally wrong accuracy (not string/object) is a schema
        // error, not a domain error.
        let err =
            decode_request(br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":7}"#)
                .unwrap_err();
        assert!(matches!(err, ProtocolError::Schema(_)), "{err}");
    }

    #[test]
    fn schema_violations_error_cleanly() {
        for bad in [
            &br#"{"op":"ping"}"#[..],                                          // no id
            br#"{"id":1}"#,                                                    // no op
            br#"{"id":1,"op":"warp"}"#,                                        // unknown op
            br#"{"id":1,"op":"distance","kind":"XX","p":[],"q":[]}"#,          // bad kind
            br#"{"id":1,"op":"distance","kind":"MD","p":[true],"q":[]}"#,      // bad series
            br#"{"id":1,"op":"knn","kind":"MD","k":0,"query":[],"train":[]}"#, // k = 0
            br#"{"id":1,"op":"search","query":[],"haystack":[],"window":0}"#,  // window = 0
            br#"{"id":1.5,"op":"ping"}"#,                                      // fractional id
            // dataset-protocol schema violations
            br#"{"id":1,"op":"upload_dataset","name":"","entries":[[1.0]]}"#, // empty name
            br#"{"id":1,"op":"upload_dataset","name":"x","entries":[true]}"#, // bad entry
            br#"{"id":1,"op":"knn","kind":"MD","k":1,"query":[1.0],"train":[{"label":0,"series":[1.0]}],"dataset":"abc"}"#, // train AND dataset
            br#"{"id":1,"op":"search","query":[1.0],"haystack":[],"dataset_name":"x","version":2,"series_index":0,"window":1,"dataset":"abc"}"#, // id AND name
            br#"{"id":1,"op":"search","query":[1.0],"haystack":[],"version":2,"series_index":0,"window":1}"#, // version w/o name
            br#"{"id":1,"op":"search","query":[1.0],"haystack":[1.0,2.0],"series_index":1,"window":1}"#, // series_index w/o dataset
            br#"{"id":1,"op":"drop_dataset"}"#, // drop with no ref
            br#"{"id":1,"op":"batch","kind":"MD","query":[1],"pairs":[]}"#, // query w/o dataset
            br#"{"id":1,"op":"batch","kind":"MD","dataset":"abc"}"#, // dataset batch w/o query
            br#"{"id":1,"op":"batch","kind":"MD","dataset":"abc","query":[1],"pairs":[]}"#, // pairs AND dataset
        ] {
            assert!(
                decode_request(bad).is_err(),
                "{} should fail",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn upload_entries_read_bare_arrays_and_default_labels() {
        let env = decode_request(
            br#"{"id":1,"op":"upload_dataset","name":"x","entries":[[1,2],{"series":[3]},{"label":2,"series":[4]}]}"#,
        )
        .unwrap();
        let Request::UploadDataset { entries, .. } = env.req else {
            panic!("decoded to a different op");
        };
        let labels: Vec<usize> = entries.iter().map(|e| e.label).collect();
        assert_eq!(labels, [0, 0, 2]);
        assert_eq!(entries[0].series, [1.0, 2.0]);
    }

    #[test]
    fn reply_ok_flag_must_agree_with_the_body() {
        for bad in [
            &br#"{"id":1,"ok":true,"result":{"code":"timeout","message":""}}"#[..],
            br#"{"id":1,"ok":false,"error":{"value":1}}"#,
            br#"{"id":1,"ok":true,"result":{"nothing":1}}"#,
        ] {
            let err = decode_reply(bad).unwrap_err();
            assert!(matches!(err, ProtocolError::Schema(_)), "{err}");
        }
    }

    #[test]
    fn kind_names_match_paper_abbreviations() {
        for kind in DistanceKind::ALL {
            assert_eq!(kind.abbrev().parse(), Ok(kind));
        }
        assert!("dtw".parse::<DistanceKind>().is_err());
    }
}
