//! Golden wire bytes: the exact payload every request and reply shape
//! encodes to.
//!
//! Each fixture pins three things at once:
//!
//! * `encode(value) == bytes` — the encoder's output, byte for byte;
//! * `decode(bytes) == value` — the decoder reads the same value back;
//! * `encode(decode(bytes)) == bytes` — the two directions agree.
//!
//! Requests cover all thirteen ops, with and without their optional
//! fields, in both inline and resident-dataset forms. Replies cover every
//! `ResponseBody` shape: all error codes, routed replies carrying
//! `backend`/`bound`, and warming and ready stream events with and without
//! `threshold`, `motif` and `discord`.

use mda_distance::DistanceKind;
use mda_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, DatasetEntry, DatasetRef,
    DatasetSummary, Envelope, ErrorCode, MatchRecord, Reply, Request, ResponseBody, RouteInfo,
    StreamEventBody, StreamEventState, TrainInstance,
};
use mda_server::{BackendId, Bound, Sla};

fn env(id: u64, req: Request) -> Envelope {
    Envelope { id, req }
}

fn request_fixtures() -> Vec<(Envelope, &'static str)> {
    vec![
        (env(0, Request::Ping), r#"{"id":0,"op":"ping"}"#),
        (env(1, Request::Metrics), r#"{"id":1,"op":"metrics"}"#),
        (
            env(12, Request::ListDatasets),
            r#"{"id":12,"op":"list_datasets"}"#,
        ),
        // distance: bare, every option, exact accuracy.
        (
            env(
                2,
                Request::Distance {
                    kind: DistanceKind::Dtw,
                    p: vec![0.0, 1.0],
                    q: vec![0.0, 2.0],
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":2,"op":"distance","kind":"DTW","p":[0,1],"q":[0,2]}"#,
        ),
        (
            env(
                3,
                Request::Distance {
                    kind: DistanceKind::Lcs,
                    p: vec![0.0, 1.5, -2.25],
                    q: vec![0.5, -0.0],
                    threshold: Some(0.25),
                    band: Some(3),
                    deadline_ms: Some(250),
                    accuracy: Some(Sla::Tolerance(2.5)),
                },
            ),
            r#"{"id":3,"op":"distance","threshold":0.25,"band":3,"deadline_ms":250,"accuracy":{"tolerance":2.5},"kind":"LCS","p":[0,1.5,-2.25],"q":[0.5,-0]}"#,
        ),
        (
            env(
                4,
                Request::Distance {
                    kind: DistanceKind::Hamming,
                    p: vec![1.0 / 3.0],
                    q: vec![],
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":4,"op":"distance","accuracy":"exact","kind":"HamD","p":[0.3333333333333333],"q":[]}"#,
        ),
        // batch: inline bare, inline empty, inline with options, resident
        // by id, resident by pinned name with options.
        (
            env(
                5,
                Request::Batch {
                    kind: DistanceKind::Manhattan,
                    pairs: vec![(vec![0.0], vec![1.0]), (vec![2.0, 3.0], vec![2.0, 3.5])],
                    query: None,
                    dataset: None,
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":5,"op":"batch","kind":"MD","pairs":[[[0],[1]],[[2,3],[2,3.5]]]}"#,
        ),
        (
            env(
                6,
                Request::Batch {
                    kind: DistanceKind::Edit,
                    pairs: vec![],
                    query: None,
                    dataset: None,
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":6,"op":"batch","kind":"EdD","pairs":[]}"#,
        ),
        (
            env(
                7,
                Request::Batch {
                    kind: DistanceKind::Dtw,
                    pairs: vec![(vec![0.125], vec![-4.0, 8.0])],
                    query: None,
                    dataset: None,
                    threshold: Some(1.5),
                    band: Some(0),
                    deadline_ms: Some(0),
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":7,"op":"batch","threshold":1.5,"band":0,"deadline_ms":0,"accuracy":"exact","kind":"DTW","pairs":[[[0.125],[-4,8]]]}"#,
        ),
        (
            env(
                8,
                Request::Batch {
                    kind: DistanceKind::Manhattan,
                    pairs: Vec::new(),
                    query: Some(vec![0.0, 1.0]),
                    dataset: Some(DatasetRef::by_id("a1b2c3")),
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":8,"op":"batch","kind":"MD","dataset":"a1b2c3","query":[0,1]}"#,
        ),
        (
            env(
                9,
                Request::Batch {
                    kind: DistanceKind::Hausdorff,
                    pairs: Vec::new(),
                    query: Some(vec![0.25, -1.0]),
                    dataset: Some(DatasetRef::by_name_version("sensors", 2)),
                    threshold: Some(0.5),
                    band: Some(4),
                    deadline_ms: Some(50),
                    accuracy: Some(Sla::Tolerance(12.0)),
                },
            ),
            r#"{"id":9,"op":"batch","threshold":0.5,"band":4,"deadline_ms":50,"accuracy":{"tolerance":12},"kind":"HauD","dataset_name":"sensors","version":2,"query":[0.25,-1]}"#,
        ),
        // knn: inline bare, inline with options, resident by name.
        (
            env(
                10,
                Request::Knn {
                    kind: DistanceKind::Dtw,
                    k: 1,
                    query: vec![0.0, 1.0],
                    train: vec![
                        TrainInstance {
                            label: 0,
                            series: vec![0.0, 1.0],
                        },
                        TrainInstance {
                            label: 1,
                            series: vec![5.0, 5.0],
                        },
                    ],
                    dataset: None,
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":10,"op":"knn","kind":"DTW","k":1,"query":[0,1],"train":[{"label":0,"series":[0,1]},{"label":1,"series":[5,5]}]}"#,
        ),
        (
            env(
                11,
                Request::Knn {
                    kind: DistanceKind::Lcs,
                    k: 3,
                    query: vec![1.0, 2.0],
                    train: vec![
                        TrainInstance {
                            label: 0,
                            series: vec![1.0, 2.0],
                        },
                        TrainInstance {
                            label: 7,
                            series: vec![9.0],
                        },
                    ],
                    dataset: None,
                    threshold: Some(0.25),
                    band: Some(2),
                    deadline_ms: Some(1_000),
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":11,"op":"knn","threshold":0.25,"band":2,"deadline_ms":1000,"accuracy":"exact","kind":"LCS","k":3,"query":[1,2],"train":[{"label":0,"series":[1,2]},{"label":7,"series":[9]}]}"#,
        ),
        (
            env(
                13,
                Request::Knn {
                    kind: DistanceKind::Dtw,
                    k: 1,
                    query: vec![1.0, 2.0],
                    train: Vec::new(),
                    dataset: Some(DatasetRef::by_name("corpus")),
                    threshold: None,
                    band: Some(2),
                    deadline_ms: None,
                    accuracy: Some(Sla::Tolerance(0.0)),
                },
            ),
            r#"{"id":13,"op":"knn","band":2,"accuracy":{"tolerance":0},"kind":"DTW","k":1,"query":[1,2],"dataset_name":"corpus"}"#,
        ),
        // search: inline bare, inline with options, resident by id and by
        // pinned name.
        (
            env(
                14,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: vec![0.0, 1.0, 0.0, 1.0],
                    dataset: None,
                    series_index: 0,
                    window: 2,
                    band: 0,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":14,"op":"search","band":0,"query":[0,1],"haystack":[0,1,0,1],"window":2}"#,
        ),
        (
            env(
                15,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: vec![0.0, 1.0, 0.0, 1.0],
                    dataset: None,
                    series_index: 0,
                    window: 2,
                    band: 1,
                    deadline_ms: Some(1_000),
                    accuracy: Some(Sla::Tolerance(3.0)),
                },
            ),
            r#"{"id":15,"op":"search","band":1,"deadline_ms":1000,"accuracy":{"tolerance":3},"query":[0,1],"haystack":[0,1,0,1],"window":2}"#,
        ),
        (
            env(
                16,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: Vec::new(),
                    dataset: Some(DatasetRef::by_id("feedface")),
                    series_index: 0,
                    window: 2,
                    band: 1,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":16,"op":"search","band":1,"query":[0,1],"dataset":"feedface","series_index":0,"window":2}"#,
        ),
        (
            env(
                17,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: Vec::new(),
                    dataset: Some(DatasetRef::by_name_version("sensors", 1)),
                    series_index: 3,
                    window: 2,
                    band: 1,
                    deadline_ms: Some(5),
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":17,"op":"search","band":1,"deadline_ms":5,"accuracy":"exact","query":[0,1],"dataset_name":"sensors","version":1,"series_index":3,"window":2}"#,
        ),
        // streams
        (
            env(
                20,
                Request::OpenStream {
                    window: 4,
                    band: 2,
                    query: vec![0.0, 0.5, 1.0, 1.5],
                    threshold: Some(4.0),
                },
            ),
            r#"{"id":20,"op":"open_stream","threshold":4,"window":4,"band":2,"query":[0,0.5,1,1.5]}"#,
        ),
        (
            env(
                21,
                Request::OpenStream {
                    window: 1,
                    band: 0,
                    query: vec![0.0],
                    threshold: None,
                },
            ),
            r#"{"id":21,"op":"open_stream","window":1,"band":0,"query":[0]}"#,
        ),
        (
            env(
                22,
                Request::PushPoints {
                    stream_id: 3,
                    points: vec![0.5, -0.25, 1e9],
                },
            ),
            r#"{"id":22,"op":"push_points","stream_id":3,"points":[0.5,-0.25,1000000000]}"#,
        ),
        (
            env(
                23,
                Request::PushPoints {
                    stream_id: 3,
                    points: vec![],
                },
            ),
            r#"{"id":23,"op":"push_points","stream_id":3,"points":[]}"#,
        ),
        (
            env(24, Request::Subscribe { stream_id: 3 }),
            r#"{"id":24,"op":"subscribe","stream_id":3}"#,
        ),
        (
            env(25, Request::CloseStream { stream_id: 3 }),
            r#"{"id":25,"op":"close_stream","stream_id":3}"#,
        ),
        // datasets
        (
            env(
                26,
                Request::UploadDataset {
                    name: "sensors \"v2\"".into(),
                    entries: vec![
                        DatasetEntry {
                            label: 0,
                            series: vec![0.0, 1.5, -2.25],
                        },
                        DatasetEntry {
                            label: 3,
                            series: vec![9.0],
                        },
                    ],
                },
            ),
            r#"{"id":26,"op":"upload_dataset","name":"sensors \"v2\"","entries":[{"label":0,"series":[0,1.5,-2.25]},{"label":3,"series":[9]}]}"#,
        ),
        (
            env(
                27,
                Request::UploadDataset {
                    name: "empty".into(),
                    entries: vec![],
                },
            ),
            r#"{"id":27,"op":"upload_dataset","name":"empty","entries":[]}"#,
        ),
        (
            env(
                28,
                Request::DropDataset {
                    dataset: DatasetRef::by_id("a1b2c3"),
                },
            ),
            r#"{"id":28,"op":"drop_dataset","dataset":"a1b2c3"}"#,
        ),
        (
            env(
                29,
                Request::DropDataset {
                    dataset: DatasetRef::by_name("sensors"),
                },
            ),
            r#"{"id":29,"op":"drop_dataset","dataset_name":"sensors"}"#,
        ),
        (
            env(
                30,
                Request::DropDataset {
                    dataset: DatasetRef::by_name_version("sensors", 7),
                },
            ),
            r#"{"id":30,"op":"drop_dataset","dataset_name":"sensors","version":7}"#,
        ),
    ]
}

fn reply_fixtures() -> Vec<(Reply, &'static str)> {
    vec![
        (
            Reply::new(9, ResponseBody::Pong),
            r#"{"id":9,"ok":true,"result":{"pong":true}}"#,
        ),
        (
            Reply::new(10, ResponseBody::MetricsText("a 1\nb \"2\"\n".into())),
            r#"{"id":10,"ok":true,"result":{"text":"a 1\nb \"2\"\n"}}"#,
        ),
        (
            Reply::new(11, ResponseBody::Distance { value: -0.0 }),
            r#"{"id":11,"ok":true,"result":{"value":-0}}"#,
        ),
        (
            Reply::new(2, ResponseBody::Distance { value: 1.0 }),
            r#"{"id":2,"ok":true,"result":{"value":1}}"#,
        ),
        (
            Reply::new(
                12,
                ResponseBody::Batch {
                    values: vec![1.0 / 3.0, 4.5],
                },
            ),
            r#"{"id":12,"ok":true,"result":{"values":[0.3333333333333333,4.5]}}"#,
        ),
        (
            Reply::new(12, ResponseBody::Batch { values: vec![] }),
            r#"{"id":12,"ok":true,"result":{"values":[]}}"#,
        ),
        (
            Reply::new(
                13,
                ResponseBody::Knn {
                    label: 2,
                    score: 0.125,
                    nearest_index: 5,
                },
            ),
            r#"{"id":13,"ok":true,"result":{"label":2,"score":0.125,"nearest_index":5}}"#,
        ),
        (
            Reply::new(
                14,
                ResponseBody::Search {
                    offset: 40,
                    distance: 0.0,
                },
            ),
            r#"{"id":14,"ok":true,"result":{"offset":40,"distance":0}}"#,
        ),
        (
            Reply::new(
                16,
                ResponseBody::DatasetUploaded {
                    dataset_id: "deadbeef01234567".into(),
                    version: 2,
                    count: 64,
                    bytes: 65_536,
                },
            ),
            r#"{"id":16,"ok":true,"result":{"dataset_id":"deadbeef01234567","version":2,"count":64,"bytes":65536}}"#,
        ),
        (
            Reply::new(
                17,
                ResponseBody::Datasets {
                    items: vec![
                        DatasetSummary {
                            name: "sensors".into(),
                            dataset_id: "deadbeef01234567".into(),
                            version: 2,
                            count: 64,
                            bytes: 65_536,
                        },
                        DatasetSummary {
                            name: "corpus".into(),
                            dataset_id: "0123".into(),
                            version: 1,
                            count: 0,
                            bytes: 0,
                        },
                    ],
                },
            ),
            r#"{"id":17,"ok":true,"result":{"datasets":[{"name":"sensors","dataset_id":"deadbeef01234567","version":2,"count":64,"bytes":65536},{"name":"corpus","dataset_id":"0123","version":1,"count":0,"bytes":0}]}}"#,
        ),
        (
            Reply::new(17, ResponseBody::Datasets { items: vec![] }),
            r#"{"id":17,"ok":true,"result":{"datasets":[]}}"#,
        ),
        (
            Reply::new(18, ResponseBody::Dropped { count: 1 }),
            r#"{"id":18,"ok":true,"result":{"dropped":1}}"#,
        ),
        (
            Reply::new(18, ResponseBody::Dropped { count: 0 }),
            r#"{"id":18,"ok":true,"result":{"dropped":0}}"#,
        ),
        (
            Reply::new(
                30,
                ResponseBody::StreamOpened {
                    stream_id: 7,
                    shard: 2,
                    burn_in: 16,
                },
            ),
            r#"{"id":30,"ok":true,"result":{"stream_id":7,"shard":2,"burn_in":16}}"#,
        ),
        (
            Reply::new(
                31,
                ResponseBody::PointsPushed {
                    stream_id: 7,
                    accepted: 3,
                    epoch: 19,
                },
            ),
            r#"{"id":31,"ok":true,"result":{"stream_id":7,"accepted":3,"epoch":19}}"#,
        ),
        (
            Reply::new(
                32,
                ResponseBody::Subscribed {
                    stream_id: 7,
                    epoch: 19,
                    warm: true,
                },
            ),
            r#"{"id":32,"ok":true,"result":{"subscribed":true,"stream_id":7,"epoch":19,"warm":true}}"#,
        ),
        (
            Reply::new(
                33,
                ResponseBody::Subscribed {
                    stream_id: 8,
                    epoch: 0,
                    warm: false,
                },
            ),
            r#"{"id":33,"ok":true,"result":{"subscribed":true,"stream_id":8,"epoch":0,"warm":false}}"#,
        ),
        (
            Reply::new(
                34,
                ResponseBody::StreamClosed {
                    stream_id: 7,
                    pushed: 19,
                },
            ),
            r#"{"id":34,"ok":true,"result":{"closed":true,"stream_id":7,"pushed":19}}"#,
        ),
        (
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 4,
                    state: StreamEventState::Warming {
                        seen: 4,
                        burn_in: 16,
                    },
                }),
            ),
            r#"{"id":32,"ok":true,"result":{"event":{"stream_id":7,"epoch":4,"state":"warming","seen":4,"burn_in":16}}}"#,
        ),
        (
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 20,
                    state: StreamEventState::Ready {
                        mean: 0.5,
                        std_dev: 1.25,
                        decision: "pruned_keogh".into(),
                        bound: 9.0,
                        threshold: 4.0,
                        motif: Some(MatchRecord {
                            epoch: 17,
                            distance: 2.5,
                        }),
                        discord: Some(MatchRecord {
                            epoch: 19,
                            distance: 8.0,
                        }),
                    },
                }),
            ),
            r#"{"id":32,"ok":true,"result":{"event":{"stream_id":7,"epoch":20,"state":"ready","mean":0.5,"std_dev":1.25,"decision":"pruned_keogh","bound":9,"threshold":4,"motif":{"epoch":17,"distance":2.5},"discord":{"epoch":19,"distance":8}}}}"#,
        ),
        (
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 21,
                    state: StreamEventState::Ready {
                        mean: -0.0,
                        std_dev: 0.0,
                        decision: "computed".into(),
                        bound: 1.5,
                        threshold: f64::INFINITY,
                        motif: None,
                        discord: None,
                    },
                }),
            ),
            r#"{"id":32,"ok":true,"result":{"event":{"stream_id":7,"epoch":21,"state":"ready","mean":-0,"std_dev":0,"decision":"computed","bound":1.5}}}"#,
        ),
        (
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 22,
                    state: StreamEventState::Ready {
                        mean: 0.25,
                        std_dev: 2.0,
                        decision: "abandoned".into(),
                        bound: 3.0,
                        threshold: f64::INFINITY,
                        motif: None,
                        discord: Some(MatchRecord {
                            epoch: 20,
                            distance: 8.0,
                        }),
                    },
                }),
            ),
            r#"{"id":32,"ok":true,"result":{"event":{"stream_id":7,"epoch":22,"state":"ready","mean":0.25,"std_dev":2,"decision":"abandoned","bound":3,"discord":{"epoch":20,"distance":8}}}}"#,
        ),
        // every error code
        (
            Reply::new(
                40,
                ResponseBody::Error {
                    code: ErrorCode::Overloaded,
                    message: "queue full".into(),
                },
            ),
            r#"{"id":40,"ok":false,"error":{"code":"overloaded","message":"queue full"}}"#,
        ),
        (
            Reply::new(
                41,
                ResponseBody::Error {
                    code: ErrorCode::Timeout,
                    message: "deadline expired".into(),
                },
            ),
            r#"{"id":41,"ok":false,"error":{"code":"timeout","message":"deadline expired"}}"#,
        ),
        (
            Reply::new(
                42,
                ResponseBody::Error {
                    code: ErrorCode::BadRequest,
                    message: "invalid message: missing `p`".into(),
                },
            ),
            r#"{"id":42,"ok":false,"error":{"code":"bad_request","message":"invalid message: missing `p`"}}"#,
        ),
        (
            Reply::new(
                43,
                ResponseBody::Error {
                    code: ErrorCode::InvalidParameter,
                    message: "tolerance must be finite".into(),
                },
            ),
            r#"{"id":43,"ok":false,"error":{"code":"invalid_parameter","message":"tolerance must be finite"}}"#,
        ),
        (
            Reply::new(
                44,
                ResponseBody::Error {
                    code: ErrorCode::NotFound,
                    message: "no dataset".into(),
                },
            ),
            r#"{"id":44,"ok":false,"error":{"code":"not_found","message":"no dataset"}}"#,
        ),
        (
            Reply::new(
                45,
                ResponseBody::Error {
                    code: ErrorCode::StaleVersion,
                    message: "version 1 superseded by 2".into(),
                },
            ),
            r#"{"id":45,"ok":false,"error":{"code":"stale_version","message":"version 1 superseded by 2"}}"#,
        ),
        (
            Reply::new(
                46,
                ResponseBody::Error {
                    code: ErrorCode::ShuttingDown,
                    message: String::new(),
                },
            ),
            r#"{"id":46,"ok":false,"error":{"code":"shutting_down","message":""}}"#,
        ),
        (
            Reply::new(
                47,
                ResponseBody::Error {
                    code: ErrorCode::Internal,
                    message: "tab\tand\u{1}".into(),
                },
            ),
            r#"{"id":47,"ok":false,"error":{"code":"internal","message":"tab\tand\u0001"}}"#,
        ),
        // routed replies
        (
            Reply::new(21, ResponseBody::Distance { value: 1.25 }).with_route(RouteInfo {
                backend: BackendId::Analog,
                bound: Bound { abs: 7.0, rel: 0.3 },
            }),
            r#"{"id":21,"ok":true,"result":{"value":1.25},"backend":"analog","bound":{"abs":7,"rel":0.3}}"#,
        ),
        (
            Reply::new(
                22,
                ResponseBody::Batch {
                    values: vec![0.5, 0.75],
                },
            )
            .with_route(RouteInfo {
                backend: BackendId::DigitalExact,
                bound: Bound::EXACT,
            }),
            r#"{"id":22,"ok":true,"result":{"values":[0.5,0.75]},"backend":"digital_exact","bound":{"abs":0,"rel":0}}"#,
        ),
        (
            Reply::new(
                23,
                ResponseBody::Knn {
                    label: 1,
                    score: 2.0,
                    nearest_index: 0,
                },
            )
            .with_route(RouteInfo {
                backend: BackendId::Acam,
                bound: Bound { abs: 0.5, rel: 0.0 },
            }),
            r#"{"id":23,"ok":true,"result":{"label":1,"score":2,"nearest_index":0},"backend":"acam","bound":{"abs":0.5,"rel":0}}"#,
        ),
        (
            Reply::new(
                24,
                ResponseBody::Search {
                    offset: 3,
                    distance: 1.5,
                },
            )
            .with_route(RouteInfo {
                backend: BackendId::DigitalExact,
                bound: Bound::EXACT,
            }),
            r#"{"id":24,"ok":true,"result":{"offset":3,"distance":1.5},"backend":"digital_exact","bound":{"abs":0,"rel":0}}"#,
        ),
    ]
}

#[test]
fn request_wire_bytes_are_pinned() {
    for (env, golden) in request_fixtures() {
        let bytes = encode_request(&env);
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            golden,
            "encoding of {env:?} changed"
        );
        let decoded = decode_request(golden.as_bytes())
            .unwrap_or_else(|e| panic!("golden request {golden} no longer decodes: {e}"));
        assert_eq!(decoded, env, "decoding of {golden} changed");
        assert_eq!(encode_request(&decoded), golden.as_bytes(), "{golden}");
    }
}

#[test]
fn reply_wire_bytes_are_pinned() {
    for (reply, golden) in reply_fixtures() {
        let bytes = encode_reply(&reply);
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            golden,
            "encoding of {reply:?} changed"
        );
        let decoded = decode_reply(golden.as_bytes())
            .unwrap_or_else(|e| panic!("golden reply {golden} no longer decodes: {e}"));
        assert_eq!(decoded, reply, "decoding of {golden} changed");
        assert_eq!(encode_reply(&decoded), golden.as_bytes(), "{golden}");
    }
}
