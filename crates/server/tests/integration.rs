//! End-to-end tests over loopback: concurrent clients must observe
//! bitwise-identical results to direct library calls, overload must shed
//! with `overloaded` (never panic or deadlock), and shutdown must drain.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use mda_distance::mining::{KnnClassifier, SubsequenceSearch};
use mda_distance::{boxed_distance, BatchEngine, DistanceKind};
use mda_server::protocol::{
    decode_reply, encode_request, read_frame, write_frame, Envelope, ErrorCode, Request,
    ResponseBody, TrainInstance, DEFAULT_MAX_FRAME_BYTES,
};
use mda_server::{Client, ClientError, QueryOptions, Server, ServerConfig};

fn series(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i + 13 * seed) as f64 * 0.37).sin() * 1.8 + (seed as f64 * 0.71).cos())
        .collect()
}

fn start(config: ServerConfig) -> Server {
    Server::start(config).expect("server start")
}

#[test]
fn concurrent_clients_match_direct_library_calls_bitwise() {
    let server = start(ServerConfig {
        workers: Some(2),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Direct-library expectations, computed once up front.
    let p = series(48, 1);
    let q = series(48, 2);
    let expected_distance: Vec<(DistanceKind, u64)> = DistanceKind::ALL
        .into_iter()
        .map(|kind| {
            let d = boxed_distance(kind).evaluate(&p, &q).expect("direct call");
            (kind, d.to_bits())
        })
        .collect();

    let train: Vec<TrainInstance> = (0..12)
        .map(|i| TrainInstance {
            label: i % 3,
            series: series(48, 100 + i),
        })
        .collect();
    let mut knn = KnnClassifier::new(boxed_distance(DistanceKind::Dtw), 3);
    for t in &train {
        knn.fit(t.label, t.series.clone());
    }
    let expected_knn = knn.classify(&p).expect("direct kNN");

    // LCS with zero similarity to every training series: the library
    // scores each neighbour `0.0 - 0.0 = +0.0`, and the server must too.
    let lcs_query = vec![100.0, 101.0, 102.0, 103.0];
    let lcs_train: Vec<TrainInstance> = (0..4)
        .map(|i| TrainInstance {
            label: i,
            series: vec![i as f64; 4],
        })
        .collect();
    let mut lcs_knn = KnnClassifier::new(boxed_distance(DistanceKind::Lcs), 1);
    for t in &lcs_train {
        lcs_knn.fit(t.label, t.series.clone());
    }
    let expected_lcs = lcs_knn.classify(&lcs_query).expect("direct LCS kNN");
    assert_eq!(expected_lcs.score.to_bits(), 0.0f64.to_bits());

    let clients = 6;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (p, q, train) = (&p, &q, &train);
            let expected_distance = &expected_distance;
            let expected_knn = &expected_knn;
            let (lcs_query, lcs_train, expected_lcs) = (&lcs_query, &lcs_train, &expected_lcs);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Interleave ops differently per client to force coalescing
                // of mixed requests.
                for round in 0..3 {
                    for &(kind, want_bits) in expected_distance.iter().skip(c % 3) {
                        let got = client
                            .query_distance(kind, p, q, &QueryOptions::new())
                            .expect("served distance")
                            .value;
                        assert_eq!(
                            got.to_bits(),
                            want_bits,
                            "client {c} round {round}: {kind} diverged from direct call"
                        );
                    }
                    let got = client
                        .query_knn(DistanceKind::Dtw, 3, p, train, &QueryOptions::new())
                        .expect("served kNN")
                        .value;
                    assert_eq!(got.label, expected_knn.label);
                    assert_eq!(got.score.to_bits(), expected_knn.score.to_bits());
                    assert_eq!(got.nearest_index, expected_knn.nearest_index);
                    let got = client
                        .query_knn(
                            DistanceKind::Lcs,
                            1,
                            lcs_query,
                            lcs_train,
                            &QueryOptions::new(),
                        )
                        .expect("served LCS kNN")
                        .value;
                    assert_eq!(got.label, expected_lcs.label);
                    assert_eq!(got.score.to_bits(), expected_lcs.score.to_bits());
                    assert_eq!(got.nearest_index, expected_lcs.nearest_index);
                }
            });
        }
    });

    // Every compute request above rode the coalescing queue.
    let m = server.metrics();
    assert!(m.batches.get() > 0, "dispatcher never ran a batch");
    assert_eq!(m.shed.get(), 0, "no request should have been shed");
    server.shutdown_and_join();
}

#[test]
fn served_search_matches_direct_subsequence_search() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let query = series(24, 7);
    let haystack = series(400, 8);
    let (window, band) = (24, 3);
    let (direct, _stats) = SubsequenceSearch::new(window, band)
        .with_engine(BatchEngine::serial())
        .run(&query, &haystack)
        .expect("direct search");
    let served = client
        .query_search(&query, &haystack, 0, window, band, &QueryOptions::new())
        .expect("served search")
        .value;
    assert_eq!(served.offset, direct.offset);
    assert_eq!(served.distance.to_bits(), direct.distance.to_bits());
    server.shutdown_and_join();
}

#[test]
fn over_capacity_burst_is_shed_with_overloaded_replies() {
    // Tiny queue, one-item batches: the dispatcher is busy with a long
    // search while a pipelined burst arrives, so the burst must overflow.
    let server = start(ServerConfig {
        workers: Some(1),
        max_queue_items: 4,
        batch_max_items: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Frame 0: a search that occupies the dispatcher for tens of ms. Every
    // window of an all-zero haystack ties the all-zero query at distance 0,
    // so no bound prunes and no DTW abandons: all 11 873 windows run
    // their full banded DTW (~47 M cells).
    let slow = Envelope {
        id: 0,
        req: Request::Search {
            query: vec![0.0; 128],
            haystack: vec![0.0; 12_000],
            dataset: None,
            series_index: 0,
            window: 128,
            band: 16,
            deadline_ms: None,
            accuracy: None,
        },
    };
    // Burst: each batch carries 2 work items against a 4-item queue.
    // Whether or not the dispatcher has taken the search off the queue by
    // then, the first fits; from the third on they must be shed.
    let burst = 10;
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..2)
        .map(|i| (series(64, i), series(64, i + 50)))
        .collect();
    // All 11 frames leave in one write, so the burst lands while the
    // search runs.
    let mut frames = Vec::new();
    write_frame(&mut frames, &encode_request(&slow)).expect("frame slow search");
    for id in 1..=burst {
        let env = Envelope {
            id,
            req: Request::Batch {
                kind: DistanceKind::Dtw,
                pairs: pairs.clone(),
                query: None,
                dataset: None,
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
        };
        write_frame(&mut frames, &encode_request(&env)).expect("frame burst");
    }
    writer.write_all(&frames).expect("write burst");

    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..=burst {
        let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("read reply");
        let reply = decode_reply(&payload).expect("decode reply");
        match reply.body {
            ResponseBody::Batch { .. } | ResponseBody::Search { .. } => ok += 1,
            ResponseBody::Error {
                code: ErrorCode::Overloaded,
                ..
            } => overloaded += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(overloaded > 0, "an over-capacity burst must shed requests");
    assert!(
        ok >= 2,
        "the slow search and the first burst job must finish"
    );
    assert_eq!(server.metrics().shed.get(), overloaded as u64);
    server.shutdown_and_join();
}

#[test]
fn shutdown_drains_admitted_work_before_closing() {
    let server = start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let env = Envelope {
        id: 42,
        req: Request::Search {
            query: series(96, 3),
            haystack: series(4000, 4),
            dataset: None,
            series_index: 0,
            window: 96,
            band: 12,
            deadline_ms: None,
            accuracy: None,
        },
    };
    write_frame(&mut writer, &encode_request(&env)).expect("write search");
    // Let the server accept and enqueue before the drain begins.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown_and_join();

    // The admitted search was computed and its reply flushed pre-close.
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("drained reply");
    let reply = decode_reply(&payload).expect("decode reply");
    assert_eq!(reply.id, 42);
    assert!(
        matches!(reply.body, ResponseBody::Search { .. }),
        "expected the search result, got {:?}",
        reply.body
    );

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly; a ping must then fail.
            Client::connect(addr).and_then(|mut c| c.ping()).is_err()
        },
        "server should no longer serve new connections"
    );
}

#[test]
fn expired_deadline_yields_timeout_not_result() {
    let server = start(ServerConfig {
        workers: Some(1),
        batch_max_items: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Occupy the dispatcher, then queue a 1 ms-deadline request behind it.
    let slow = Envelope {
        id: 1,
        req: Request::Search {
            query: series(128, 5),
            haystack: series(6000, 6),
            dataset: None,
            series_index: 0,
            window: 128,
            band: 16,
            deadline_ms: None,
            accuracy: None,
        },
    };
    let doomed = Envelope {
        id: 2,
        req: Request::Distance {
            kind: DistanceKind::Manhattan,
            p: vec![0.0, 1.0],
            q: vec![0.0, 2.0],
            threshold: None,
            band: None,
            deadline_ms: Some(1),
            accuracy: None,
        },
    };
    write_frame(&mut writer, &encode_request(&slow)).expect("write slow");
    write_frame(&mut writer, &encode_request(&doomed)).expect("write doomed");

    let mut saw_timeout = false;
    for _ in 0..2 {
        let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("read reply");
        let reply = decode_reply(&payload).expect("decode reply");
        if reply.id == 2 {
            match reply.body {
                ResponseBody::Error {
                    code: ErrorCode::Timeout,
                    ..
                } => saw_timeout = true,
                other => panic!("expected timeout, got {other:?}"),
            }
        }
    }
    assert!(saw_timeout, "the deadline-bearing request never replied");
    assert_eq!(server.metrics().timeouts.get(), 1);
    server.shutdown_and_join();
}

#[test]
fn malformed_and_bad_requests_answered_without_closing_healthy_path() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // JSON garbage inside a well-formed frame: bad_request, connection
    // stays usable.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, b"this is not json").expect("write garbage");
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("reply");
    let reply = decode_reply(&payload).expect("decode");
    assert!(matches!(
        reply.body,
        ResponseBody::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    let ping = Envelope {
        id: 3,
        req: Request::Ping,
    };
    write_frame(&mut writer, &encode_request(&ping)).expect("write ping");
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("ping reply");
    assert!(matches!(
        decode_reply(&payload).expect("decode").body,
        ResponseBody::Pong
    ));

    // A semantically bad compute request (length mismatch for MD) errors
    // without poisoning the client.
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .query_distance(
            DistanceKind::Manhattan,
            &[0.0],
            &[0.0, 1.0],
            &QueryOptions::new(),
        )
        .expect_err("length mismatch must fail");
    assert!(
        matches!(
            &err,
            ClientError::Server {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{err}"
    );
    let d = client
        .query_distance(
            DistanceKind::Manhattan,
            &[0.0, 1.0],
            &[0.0, 3.0],
            &QueryOptions::new(),
        )
        .expect("healthy follow-up")
        .value;
    assert_eq!(d, 2.0);
    server.shutdown_and_join();
}

#[test]
fn overflowing_distance_is_a_typed_error_and_the_server_keeps_answering() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (p, q) = (vec![1e308, 1e308], vec![-1e308, -1e308]);
    let is_invalid_parameter = |err: &ClientError| {
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::InvalidParameter,
                ..
            }
        )
    };
    let opts = QueryOptions::new();
    for kind in [DistanceKind::Manhattan, DistanceKind::Hausdorff] {
        // Finite inputs whose distance is `inf`: once answered as `null`,
        // which no client could decode.
        let err = client
            .query_distance(kind, &p, &q, &opts)
            .expect_err("an infinite distance has no wire form");
        assert!(is_invalid_parameter(&err), "{kind}: {err}");
        let pairs = [(vec![0.0, 1.0], vec![0.0, 3.0]), (p.clone(), q.clone())];
        let err = client
            .query_batch(kind, &pairs, None, &opts)
            .expect_err("an infinite batch value has no wire form");
        assert!(is_invalid_parameter(&err), "{kind} batch: {err}");
        let train = [TrainInstance {
            label: 1,
            series: q.clone(),
        }];
        let err = client
            .query_knn(kind, 1, &p, &train, &opts)
            .expect_err("an infinite kNN score has no wire form");
        assert!(is_invalid_parameter(&err), "{kind} kNN: {err}");
    }
    // The same connection, and a fresh one, keep being served.
    let d = client
        .query_distance(DistanceKind::Manhattan, &[0.0, 1.0], &[0.0, 3.0], &opts)
        .expect("healthy follow-up")
        .value;
    assert_eq!(d, 2.0);
    let mut fresh = Client::connect(server.local_addr()).expect("reconnect");
    let got = fresh
        .query_batch(
            DistanceKind::Manhattan,
            &[(vec![0.0, 1.0], vec![0.0, 3.0])],
            None,
            &opts,
        )
        .expect("fresh connection served")
        .value;
    assert_eq!(got, [2.0]);
    server.shutdown_and_join();
}

#[test]
fn partial_frames_across_many_reads_are_assembled() {
    use std::io::Write;
    let server = start(ServerConfig::default());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // One ping frame trickled in 1–3 byte slices, flushed between slices,
    // so the event loop sees the frame across many read() calls.
    let env = Envelope {
        id: 9,
        req: Request::Ping,
    };
    let payload = encode_request(&env);
    let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&payload);
    for chunk in framed.chunks(3) {
        writer.write_all(chunk).expect("write slice");
        writer.flush().expect("flush slice");
        std::thread::sleep(Duration::from_millis(2));
    }
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("reply");
    let reply = decode_reply(&payload).expect("decode");
    assert_eq!(reply.id, 9);
    assert!(matches!(reply.body, ResponseBody::Pong));
    server.shutdown_and_join();
}

#[test]
fn pipelined_send_many_matches_sequential_calls_bitwise() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let p = series(32, 11);
    let q = series(32, 12);

    // Sequential request/reply baseline on one connection...
    let mut seq = Client::connect(addr).expect("connect");
    let baseline: Vec<f64> = DistanceKind::ALL
        .into_iter()
        .map(|kind| {
            seq.query_distance(kind, &p, &q, &QueryOptions::new())
                .expect("sequential")
                .value
        })
        .collect();

    // ...must be bitwise-reproduced by a pipelined burst on one connection.
    let mut pipelined = Client::connect(addr).expect("connect");
    let reqs: Vec<Request> = DistanceKind::ALL
        .into_iter()
        .map(|kind| Request::Distance {
            kind,
            p: p.clone(),
            q: q.clone(),
            threshold: None,
            band: None,
            deadline_ms: None,
            accuracy: None,
        })
        .collect();
    let replies = pipelined.send_many(reqs).expect("pipelined burst");
    assert_eq!(replies.len(), baseline.len());
    for (reply, want) in replies.iter().zip(&baseline) {
        let ResponseBody::Distance { value } = reply else {
            panic!("expected a distance reply, got {reply:?}");
        };
        assert_eq!(value.to_bits(), want.to_bits());
    }
    // The burst actually pipelined: more than one request was in flight on
    // the connection at once.
    assert!(
        server
            .metrics()
            .pipeline_depth_max
            .load(std::sync::atomic::Ordering::Relaxed)
            > 1,
        "send_many never had two requests in flight"
    );
    server.shutdown_and_join();
}

#[test]
fn write_backpressure_on_slow_reader_keeps_other_connections_live() {
    let server = start(ServerConfig {
        write_high_water: 64 * 1024,
        // Each query decomposes into 40k work items; don't shed them.
        max_queue_items: 200_000,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // A resident dataset whose batch reply (~one f64 per series) is far
    // larger than the write high-water mark.
    let mut uploader = Client::connect(addr).expect("connect");
    let entries: Vec<mda_server::DatasetEntry> = (0..40_000)
        .map(|i| mda_server::DatasetEntry {
            label: 0,
            series: vec![i as f64 * 0.125],
        })
        .collect();
    let (dataset_id, _v) = uploader.upload_dataset("wide", &entries).expect("upload");

    // Slow reader: issue several large-reply queries, read nothing yet.
    let slow = TcpStream::connect(addr).expect("connect slow");
    let mut slow_writer = slow.try_clone().expect("clone");
    let mut slow_reader = BufReader::new(slow);
    let burst = 4u64;
    for id in 1..=burst {
        let env = Envelope {
            id,
            req: Request::Batch {
                kind: DistanceKind::Manhattan,
                pairs: Vec::new(),
                query: Some(vec![0.0]),
                dataset: Some(mda_server::DatasetRef::by_id(&dataset_id)),
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
        };
        write_frame(&mut slow_writer, &encode_request(&env)).expect("write query");
    }
    // Give the replies time to pile into the slow connection's buffers.
    std::thread::sleep(Duration::from_millis(300));

    // A second connection must be completely unaffected meanwhile.
    let mut live = Client::connect(addr).expect("connect live");
    for _ in 0..20 {
        live.ping().expect("ping while peer backpressured");
        let d = live
            .query_distance(
                DistanceKind::Manhattan,
                &[0.0, 1.0],
                &[0.0, 3.0],
                &QueryOptions::new(),
            )
            .expect("distance while peer backpressured")
            .value;
        assert_eq!(d, 2.0);
    }

    // The slow reader finally drains: every reply arrives, in full.
    // Pipelined replies are id-tagged and may complete out of submission
    // order, so collect the ids rather than assuming FIFO.
    let mut seen: Vec<u64> = Vec::new();
    for _ in 1..=burst {
        let payload = read_frame(&mut slow_reader, DEFAULT_MAX_FRAME_BYTES).expect("slow reply");
        let reply = decode_reply(&payload).expect("decode slow reply");
        let ResponseBody::Batch { values } = reply.body else {
            panic!("expected batch reply, got {:?}", reply.body);
        };
        assert_eq!(values.len(), 40_000);
        seen.push(reply.id);
    }
    seen.sort_unstable();
    assert_eq!(seen, (1..=burst).collect::<Vec<u64>>());
    server.shutdown_and_join();
}

#[test]
fn abrupt_mid_frame_disconnect_leaves_server_healthy() {
    use std::io::Write;
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    {
        // Announce a 256-byte frame, send 10 bytes, vanish.
        let mut doomed = TcpStream::connect(addr).expect("connect");
        doomed
            .write_all(&256u32.to_be_bytes())
            .expect("write header");
        doomed.write_all(b"0123456789").expect("write partial");
        doomed.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(50));
        // Dropped here: RST/EOF mid-frame.
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(addr).expect("connect after disconnect");
    client
        .ping()
        .expect("server survived the mid-frame disconnect");
    assert_eq!(
        server.metrics().open_connections.get(),
        1,
        "the dead connection must be reaped"
    );
    server.shutdown_and_join();
}

#[test]
fn resident_dataset_queries_are_bitwise_identical_to_inline() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let train: Vec<TrainInstance> = (0..10)
        .map(|i| TrainInstance {
            label: i % 4,
            series: series(48, 300 + i),
        })
        .collect();
    let entries: Vec<mda_server::DatasetEntry> = train
        .iter()
        .map(|t| mda_server::DatasetEntry {
            label: t.label,
            series: t.series.clone(),
        })
        .collect();
    let (dataset_id, version) = client.upload_dataset("corpus", &entries).expect("upload");
    assert_eq!(version, 1);

    // Idempotent re-upload: same id, same version.
    let (again, v2) = client.upload_dataset("corpus", &entries).expect("reupload");
    assert_eq!((again.as_str(), v2), (dataset_id.as_str(), 1));

    let q = series(48, 999);
    let opts = QueryOptions::new();

    // kNN: resident vs inline, all outcome fields bitwise equal.
    let inline = client
        .query_knn(DistanceKind::Dtw, 3, &q, &train, &opts)
        .expect("inline knn")
        .value;
    let resident = client
        .query_knn(
            DistanceKind::Dtw,
            3,
            &q,
            &[],
            &opts
                .clone()
                .dataset(mda_server::DatasetRef::by_id(&dataset_id)),
        )
        .expect("resident knn")
        .value;
    assert_eq!(resident.label, inline.label);
    assert_eq!(resident.score.to_bits(), inline.score.to_bits());
    assert_eq!(resident.nearest_index, inline.nearest_index);

    // Pairwise batch: query vs every series.
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = train
        .iter()
        .map(|t| (q.clone(), t.series.clone()))
        .collect();
    let inline_values = client
        .query_batch(DistanceKind::Manhattan, &pairs, None, &opts)
        .expect("inline batch")
        .value;
    let resident_values = client
        .query_batch(
            DistanceKind::Manhattan,
            &[],
            Some(&q),
            &opts
                .clone()
                .dataset(mda_server::DatasetRef::by_name("corpus")),
        )
        .expect("resident batch")
        .value;
    assert_eq!(inline_values.len(), resident_values.len());
    for (a, b) in inline_values.iter().zip(&resident_values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Subsequence search against one resident series.
    let sq = series(12, 1234);
    let inline_search = client
        .query_search(&sq, &train[4].series, 0, 12, 2, &opts)
        .expect("inline search")
        .value;
    let resident_search = client
        .query_search(
            &sq,
            &[],
            4,
            12,
            2,
            &opts
                .clone()
                .dataset(mda_server::DatasetRef::by_name_version("corpus", 1)),
        )
        .expect("resident search")
        .value;
    assert_eq!(resident_search.offset, inline_search.offset);
    assert_eq!(
        resident_search.distance.to_bits(),
        inline_search.distance.to_bits()
    );

    // Listing reflects the store; dropping frees it.
    let listed = client.list_datasets().expect("list");
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].name, "corpus");
    assert_eq!(listed[0].dataset_id, dataset_id);
    assert_eq!(listed[0].count, 10);
    assert_eq!(
        client
            .drop_dataset(mda_server::DatasetRef::by_id(&dataset_id))
            .expect("drop"),
        1
    );
    assert!(client.list_datasets().expect("list empty").is_empty());
    server.shutdown_and_join();
}

#[test]
fn dataset_not_found_and_stale_version_are_typed_in_band_errors() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let q = series(16, 5);
    let opts = QueryOptions::new();
    let with_dataset =
        |opts: &QueryOptions, dref: mda_server::DatasetRef| opts.clone().dataset(dref);

    // Unknown id → not_found, connection survives.
    let err = client
        .query_knn(
            DistanceKind::Dtw,
            1,
            &q,
            &[],
            &with_dataset(&opts, mda_server::DatasetRef::by_id("no-such-dataset")),
        )
        .expect_err("unknown dataset must fail");
    assert!(
        matches!(
            &err,
            ClientError::Server {
                code: ErrorCode::NotFound,
                ..
            }
        ),
        "{err}"
    );
    client.ping().expect("connection survives not_found");

    // Upload v1, pin its id, re-upload different content → pinned id is
    // stale_version naming both versions.
    let v1_entries = vec![mda_server::DatasetEntry {
        label: 0,
        series: series(16, 1),
    }];
    let (v1_id, _) = client.upload_dataset("evolving", &v1_entries).expect("v1");
    let v2_entries = vec![mda_server::DatasetEntry {
        label: 0,
        series: series(16, 2),
    }];
    let (v2_id, v2) = client.upload_dataset("evolving", &v2_entries).expect("v2");
    assert_eq!(v2, 2);
    assert_ne!(v1_id, v2_id);
    let err = client
        .query_knn(
            DistanceKind::Dtw,
            1,
            &q,
            &[],
            &with_dataset(&opts, mda_server::DatasetRef::by_id(&v1_id)),
        )
        .expect_err("pinned stale id must fail");
    match &err {
        ClientError::Server {
            code: ErrorCode::StaleVersion,
            message,
        } => {
            assert!(message.contains("version 1"), "{message}");
            assert!(message.contains("version 2"), "{message}");
        }
        other => panic!("expected stale_version, got {other}"),
    }
    // Pinning an outdated version by name fails the same way; the current
    // version still serves.
    let err = client
        .query_knn(
            DistanceKind::Dtw,
            1,
            &q,
            &[],
            &with_dataset(
                &opts,
                mda_server::DatasetRef::by_name_version("evolving", 1),
            ),
        )
        .expect_err("stale pinned version must fail");
    assert!(
        matches!(
            &err,
            ClientError::Server {
                code: ErrorCode::StaleVersion,
                ..
            }
        ),
        "{err}"
    );
    client
        .query_knn(
            DistanceKind::Dtw,
            1,
            &q,
            &[],
            &with_dataset(&opts, mda_server::DatasetRef::by_id(&v2_id)),
        )
        .expect("current version serves");
    assert!(server.metrics().dataset_misses.get() >= 3);
    assert!(server.metrics().dataset_hits.get() >= 1);
    server.shutdown_and_join();
}

#[test]
fn many_concurrent_connections_smoke() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let conns = 128;
    std::thread::scope(|scope| {
        for c in 0..conns {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                let d = client
                    .query_distance(
                        DistanceKind::Manhattan,
                        &[c as f64, 1.0],
                        &[c as f64, 3.0],
                        &QueryOptions::new(),
                    )
                    .expect("distance")
                    .value;
                assert_eq!(d, 2.0);
            });
        }
    });
    assert_eq!(server.metrics().connections.get(), conns as u64);
    server.shutdown_and_join();
}

#[test]
fn connection_cap_rejects_excess_accepts() {
    let server = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("first");
    let mut b = Client::connect(addr).expect("second");
    a.ping().expect("first serves");
    b.ping().expect("second serves");
    // The third connection is accepted by the kernel but closed by the
    // loop; any call on it must fail.
    let refused = Client::connect(addr).and_then(|mut c| c.ping());
    assert!(refused.is_err(), "over-cap connection should be closed");
    assert!(server.metrics().connections_rejected.get() >= 1);
    // Capacity frees when a connection closes.
    drop(a);
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(addr).expect("reconnect after close");
    c.ping().expect("freed slot serves");
    server.shutdown_and_join();
}

#[test]
fn http_scrape_on_the_same_port_returns_metrics_text() {
    use std::io::Read;
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    let in_protocol = client.metrics_text().expect("metrics over protocol");
    assert!(in_protocol.contains("mda_requests_total{op=\"ping\"} 1"));

    let mut http = TcpStream::connect(server.local_addr()).expect("http connect");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("http request");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("http response");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("mda_requests_total"), "{response}");
    server.shutdown_and_join();
}

/// Value of the `mda_cascade_total` series for `task` and `stage`.
fn cascade_counter(text: &str, task: &str, stage: &str) -> usize {
    let key = format!("mda_cascade_total{{task=\"{task}\",stage=\"{stage}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .unwrap_or_else(|| panic!("no `{key}` in:\n{text}"))
        .parse()
        .expect("counter value")
}

#[test]
fn cascade_partitions_are_exported_as_metrics() {
    use mda_distance::mining::banded_dtw_knn;
    use mda_distance::DpScratch;

    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Banded-DTW kNN over a corpus where most instances are far from the
    // query, so the scan prunes and abandons.
    let train: Vec<TrainInstance> = (0..24)
        .map(|i| TrainInstance {
            label: i % 3,
            series: series(48, 200 + i),
        })
        .collect();
    let query = series(48, 205);
    let opts = QueryOptions::new().band(3);
    let served = client
        .query_knn(DistanceKind::Dtw, 1, &query, &train, &opts)
        .expect("knn")
        .value;
    let series_only: Vec<&[f64]> = train.iter().map(|t| &t.series[..]).collect();
    let (direct, knn) = banded_dtw_knn(
        &query,
        &series_only,
        |i| train[i].label,
        1,
        3,
        &mut DpScratch::new(),
    )
    .expect("direct knn");
    assert_eq!(served.nearest_index, direct.nearest_index);
    assert!(knn.pruned_by_keogh + knn.abandoned_early > 0, "{knn:?}");

    let haystack = series(300, 7);
    let needle = haystack[120..152].to_vec();
    client
        .query_search(&needle, &haystack, 0, 32, 2, &QueryOptions::new())
        .expect("search");
    let (_, search) = SubsequenceSearch::new(32, 2)
        .with_engine(BatchEngine::serial())
        .run(&needle, &haystack)
        .expect("direct search");

    let text = client.metrics_text().expect("metrics");
    for (task, [kim, keogh, abandoned, full]) in [
        (
            "knn",
            [
                knn.pruned_by_kim,
                knn.pruned_by_keogh,
                knn.abandoned_early,
                knn.full_computations,
            ],
        ),
        (
            "search",
            [
                search.pruned_by_kim,
                search.pruned_by_keogh,
                search.abandoned_early,
                search.full_computations,
            ],
        ),
    ] {
        assert_eq!(cascade_counter(&text, task, "pruned_kim"), kim, "{task}");
        assert_eq!(
            cascade_counter(&text, task, "pruned_keogh"),
            keogh,
            "{task}"
        );
        assert_eq!(
            cascade_counter(&text, task, "abandoned"),
            abandoned,
            "{task}"
        );
        assert_eq!(cascade_counter(&text, task, "full_dtw"), full, "{task}");
    }
    assert_eq!(knn.instances(), train.len());
    assert_eq!(search.windows, haystack.len() - 32 + 1);
    server.shutdown_and_join();
}

/// Value of the unlabelled metric `name`.
fn metric(text: &str, name: &str) -> f64 {
    let key = format!("{name} ");
    text.lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .unwrap_or_else(|| panic!("no `{key}` in:\n{text}"))
        .parse()
        .expect("metric value")
}

#[test]
fn analog_routed_request_moves_the_analog_counters() {
    use mda_routing::{default_backends, BackendId, Sla};

    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let before = client.metrics_text().expect("metrics");
    assert_eq!(metric(&before, "mda_analog_computations_total"), 0.0);

    // Exact requests are never timed as analog.
    let (p, q) = (series(16, 3), series(16, 4));
    client
        .query_distance(DistanceKind::Hausdorff, &p, &q, &QueryOptions::new())
        .expect("exact");
    let text = client.metrics_text().expect("metrics");
    assert_eq!(metric(&text, "mda_analog_computations_total"), 0.0);
    assert_eq!(metric(&text, "mda_analog_busy_seconds"), 0.0);

    // The loosest tolerance the analog engine meets at this length.
    let backends = default_backends();
    let eps = backends
        .get(BackendId::Analog)
        .bound(DistanceKind::Hausdorff, p.len())
        .margin(backends.analog().ceiling());
    let opts = QueryOptions::new().accuracy(Sla::tolerance(eps).expect("finite margin"));
    let reply = client
        .query_distance(DistanceKind::Hausdorff, &p, &q, &opts)
        .expect("tolerance request");
    assert_eq!(reply.route.expect("routed").backend, BackendId::Analog);

    let text = client.metrics_text().expect("metrics");
    assert_eq!(metric(&text, "mda_analog_computations_total"), 1.0);
    assert!(metric(&text, "mda_analog_busy_seconds") > 0.0, "{text}");
    // The process-wide tape cache saw at least this request.
    let lookups = metric(&text, "mda_analog_tape_cache_hits_total")
        + metric(&text, "mda_analog_tape_cache_misses_total");
    assert!(lookups >= 1.0, "{text}");
    server.shutdown_and_join();
}

/// A random walk from a small xorshift generator, for inputs with the
/// overlap structure of real traces.
fn random_walk(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut level = 0.0;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            level += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            level
        })
        .collect()
}

/// A served search runs as one chunk: its best-so-far tightens across the
/// whole haystack. On a fresh query, where the LB_Kim scout misses the
/// match, that partition differs from the library's default chunking, yet
/// the reply stays bitwise the library's match and `/metrics` reports the
/// one-chunk partition.
#[test]
fn served_search_runs_as_one_running_best_chunk() {
    use mda_distance::lower_bounds::lb_kim;

    let (window, band) = (64, 4);
    let haystack = random_walk(4096, 11);
    let query = random_walk(window, 12);
    let run = |chunk: usize| {
        SubsequenceSearch::new(window, band)
            .with_engine(BatchEngine::serial().with_chunk_size(chunk))
            .run(&query, &haystack)
            .expect("direct search")
    };
    let (chunked_match, chunked) = run(64);
    let (direct, one) = run(usize::MAX);
    assert_eq!(chunked_match, direct, "chunking never changes the match");
    assert_ne!(one, chunked, "the running best must prune differently");
    let scout = (0..=haystack.len() - window)
        .min_by(|&a, &b| {
            let kim = |off: usize| lb_kim(&query, &haystack[off..off + window]).unwrap();
            kim(a).total_cmp(&kim(b))
        })
        .unwrap();
    assert_ne!(scout, direct.offset, "the scout must miss the match");

    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let served = client
        .query_search(&query, &haystack, 0, window, band, &QueryOptions::new())
        .expect("search")
        .value;
    assert_eq!(served.offset, direct.offset);
    assert_eq!(served.distance.to_bits(), direct.distance.to_bits());

    let text = client.metrics_text().expect("metrics");
    for (stage, count) in [
        ("pruned_kim", one.pruned_by_kim),
        ("pruned_keogh", one.pruned_by_keogh),
        ("abandoned", one.abandoned_early),
        ("full_dtw", one.full_computations),
    ] {
        assert_eq!(cascade_counter(&text, "search", stage), count, "{stage}");
    }
    server.shutdown_and_join();
}

#[test]
fn live_subscriptions_deliver_gap_free_differential_events() {
    use mda_distance::znorm;
    use mda_server::StreamEventState;

    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let mut pusher = Client::connect(addr).expect("pusher connect");
    let mut subscriber = Client::connect(addr).expect("subscriber connect");

    let window = 4usize;
    let query: Vec<f64> = (0..window).map(|i| (i as f64 * 0.7).sin()).collect();
    let opened = pusher
        .open_stream(window, 1, &query, None)
        .expect("open stream");
    assert_eq!(opened.burn_in, window as u64);

    let sub = subscriber.subscribe(opened.stream_id).expect("subscribe");
    assert!(!sub.warm, "stream is cold before any push");
    assert_eq!(sub.epoch, 0);

    let points: Vec<f64> = (0..10).map(|i| (i as f64 * 0.31).cos() * 3.0).collect();
    let ack = pusher
        .push_points(opened.stream_id, &points)
        .expect("push batch");
    assert_eq!((ack.accepted, ack.epoch), (10, 10));

    // One event per push, in push order, with contiguous epochs — the gap
    // detector a consumer would run. Warming until the window fills, then
    // ready frames whose statistics are **bitwise** the batch z-norm of
    // the exact window the stream slid through.
    let mut last_epoch = sub.epoch;
    for i in 0..10 {
        let event = subscriber.next_event().expect("subscription event");
        assert_eq!(event.stream_id, opened.stream_id);
        assert_eq!(event.epoch, last_epoch + 1, "epoch gap at event {i}");
        last_epoch = event.epoch;
        let epoch = event.epoch as usize;
        match event.state {
            StreamEventState::Warming { seen, burn_in } => {
                assert!(epoch < window, "warming after burn-in at epoch {epoch}");
                assert_eq!(seen, event.epoch);
                assert_eq!(burn_in, window as u64);
            }
            StreamEventState::Ready {
                mean,
                std_dev,
                decision,
                bound,
                ..
            } => {
                assert!(epoch >= window, "ready before burn-in at epoch {epoch}");
                let win = &points[epoch - window..epoch];
                assert_eq!(mean.to_bits(), znorm::mean(win).to_bits());
                assert_eq!(std_dev.to_bits(), znorm::std_dev(win).to_bits());
                assert!(
                    ["computed", "pruned_kim", "pruned_keogh", "abandoned"]
                        .contains(&decision.as_str()),
                    "unknown cascade decision {decision:?}"
                );
                assert!(bound.is_finite(), "certified bound must be finite");
            }
        }
    }

    // A subscriber that pushes: the acknowledgement always precedes the
    // events that push caused, so push-then-next_event cannot deadlock.
    let sub2 = subscriber
        .subscribe(opened.stream_id)
        .expect("second subscription");
    assert!(sub2.warm, "stream is warm after ten pushes");
    assert_eq!(sub2.epoch, 10);
    let ack = subscriber
        .push_points(opened.stream_id, &[1.25])
        .expect("self-push");
    assert_eq!(ack.epoch, 11);
    for sub_no in 0..2 {
        let event = subscriber.next_event().expect("own event");
        assert_eq!(event.epoch, 11, "subscription {sub_no}");
    }

    let text = pusher.metrics_text().expect("metrics");
    assert!(text.contains("mda_streams_open 1"), "{text}");
    assert!(text.contains("mda_stream_points_total 11"), "{text}");
    assert!(text.contains("mda_stream_subscriptions 2"), "{text}");

    assert_eq!(
        pusher.close_stream(opened.stream_id).expect("close"),
        11,
        "lifetime push count"
    );
    server.shutdown_and_join();
}

#[test]
fn open_stream_replies_carry_shard_zero() {
    // Several engine workers, yet one event loop serves every stream, so
    // each open reply names shard 0.
    let server = start(ServerConfig {
        workers: Some(4),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for id in 1..=3u64 {
        let open = Envelope {
            id,
            req: Request::OpenStream {
                threshold: None,
                window: 4,
                band: 1,
                query: vec![0.0, 1.0, 0.5, -1.0],
            },
        };
        write_frame(&mut writer, &encode_request(&open)).expect("write open_stream");
        let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES).expect("open reply");
        let text = String::from_utf8(payload).expect("utf-8 reply");
        assert!(text.contains(r#""shard":0"#), "{text}");
    }
    server.shutdown_and_join();
}
