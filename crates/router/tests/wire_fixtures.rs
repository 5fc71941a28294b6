//! Wire-protocol robustness corpus: checked-in frame byte fixtures
//! (`tests/fixtures/`) covering every malformed-input shape the serve
//! protocol promises to survive — torn frames, flipped bits, oversized
//! and zero length prefixes, unknown tags, wrong-dimension handshakes,
//! trailing garbage, invalid histogram parts. Every fixture either
//! decodes, or fails with a *typed* [`WireError`] — never a panic, on
//! either endpoint.
//!
//! The corpus is regenerated by the `#[ignore]`d `regenerate_fixtures`
//! test (`cargo test -p cpnn-router --test wire_fixtures -- --ignored`);
//! the generator is deterministic, so a regeneration that changes any
//! byte is itself a wire-compatibility alarm.

use std::sync::Arc;

use cpnn_core::persist::fnv1a;
use cpnn_core::{DistanceModel, ObjectId, QueryServer, UncertainDb, UncertainObject};
use cpnn_router::{
    read_frame, tag, write_frame, Request, Response, ShardAddr, ShardListener, ShardServeConfig,
    ShardServerHandle, ShardStream, UpdateOp, WireError, MAX_FRAME,
};

fn base_model() -> UncertainDb {
    let objects = (0..4)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 8.0, i as f64 * 8.0 + 4.0).unwrap()
        })
        .collect();
    UncertainDb::build(objects).unwrap()
}

/// The canonical well-formed payloads: a 1-D filter request at `q = 2.5`
/// with `k = 2`, and its candidate reply computed from [`base_model`].
fn canonical_payloads() -> (Vec<u8>, Vec<u8>) {
    let req = Request::<UncertainDb>::Filter {
        coords: vec![2.5],
        k: 2,
    }
    .encode();
    let items = base_model().filter(&2.5, 2).unwrap().items;
    let resp = Response::Candidates { version: 7, items }.encode();
    (req, resp)
}

/// The canonical update burst: insert object 100, remove object 1 — the
/// journal fixtures' second burst's shape, in the wire's `Update` message.
fn canonical_update() -> Vec<u8> {
    Request::<UncertainDb>::Update(vec![
        UpdateOp::Insert(UncertainObject::uniform(ObjectId(100), 5.0, 7.0).unwrap()),
        UpdateOp::Remove(ObjectId(1)),
    ])
    .encode()
}

/// Wrap a payload in the length-prefix + FNV-trailer framing by hand (the
/// regenerator must not depend on `write_frame` being correct).
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

fn read_fixture_frame(name: &str) -> Result<Option<Vec<u8>>, WireError> {
    read_frame(&mut fixture(name).as_slice())
}

#[test]
fn canonical_frames_round_trip() {
    let (req, resp) = canonical_payloads();
    let got = read_fixture_frame("frame_filter.bin").unwrap().unwrap();
    assert_eq!(got, req, "framed request payload drifted");
    match Request::<UncertainDb>::decode(&got).unwrap() {
        Request::Filter { coords, k } => {
            assert_eq!(coords, vec![2.5]);
            assert_eq!(k, 2);
        }
        _ => panic!("expected Filter"),
    }
    let got = read_fixture_frame("resp_candidates.bin").unwrap().unwrap();
    assert_eq!(got, resp, "framed response payload drifted");
    match Response::decode(&got).unwrap() {
        Response::Candidates { version, items } => {
            assert_eq!(version, 7);
            assert_eq!(items, base_model().filter(&2.5, 2).unwrap().items);
        }
        other => panic!("expected Candidates, got {other:?}"),
    }
}

/// The `Update` message's ops are the journal's op codec; its bytes are
/// pinned by a fixture written before the wire and the journal shared it.
#[test]
fn update_frame_round_trips() {
    let got = read_fixture_frame("msg_update.bin").unwrap().unwrap();
    assert_eq!(got, canonical_update(), "framed update payload drifted");
    match Request::<UncertainDb>::decode(&got).unwrap() {
        Request::Update(ops) => match ops.as_slice() {
            [UpdateOp::Insert(object), UpdateOp::Remove(removed)] => {
                assert_eq!(object.id(), ObjectId(100));
                assert_eq!(object.region(), (5.0, 7.0));
                assert_eq!(*removed, ObjectId(1));
            }
            other => panic!("expected [Insert, Remove], got {other:?}"),
        },
        other => panic!("expected Update, got {other:?}"),
    }
}

#[test]
fn empty_stream_is_clean_eof() {
    assert!(matches!(read_fixture_frame("frame_empty.bin"), Ok(None)));
}

#[test]
fn torn_frames_are_typed() {
    for name in [
        "frame_torn_prefix.bin",
        "frame_torn_body.bin",
        "frame_torn_crc.bin",
    ] {
        match read_fixture_frame(name) {
            Err(WireError::Torn(_)) => {}
            other => panic!("{name}: expected Torn, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_frames_are_typed() {
    for name in ["frame_bad_crc.bin", "frame_bitflip.bin"] {
        match read_fixture_frame(name) {
            Err(WireError::Corrupt(msg)) => {
                assert!(msg.contains("checksum"), "{name}: got {msg}")
            }
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn oversized_and_zero_length_prefixes_are_typed() {
    match read_fixture_frame("frame_oversized.bin") {
        Err(WireError::Oversized { len, max }) => {
            assert!(len > max);
            assert_eq!(max, MAX_FRAME);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert!(matches!(
        read_fixture_frame("frame_zero_len.bin"),
        Err(WireError::Oversized { len: 0, .. })
    ));
}

#[test]
fn unknown_tags_are_typed_on_both_endpoints() {
    let payload = read_fixture_frame("msg_unknown_tag.bin").unwrap().unwrap();
    match Request::<UncertainDb>::decode(&payload) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("unknown request tag"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    match Response::decode(&payload) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("unknown response tag"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn bad_handshakes_are_typed() {
    let payload = read_fixture_frame("msg_hello_bad_magic.bin")
        .unwrap()
        .unwrap();
    match Request::<UncertainDb>::decode(&payload) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // A 2-D hello decoded by a 1-D shard: structurally valid, semantically
    // incompatible — the mismatch must be named, not mis-served.
    let payload = read_fixture_frame("msg_hello_wrong_dim.bin")
        .unwrap()
        .unwrap();
    match Request::<UncertainDb>::decode(&payload) {
        Err(WireError::Corrupt(msg)) => {
            assert!(msg.contains("dimension mismatch"), "{msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_and_bad_op_kinds_are_typed() {
    let payload = read_fixture_frame("msg_filter_trailing.bin")
        .unwrap()
        .unwrap();
    match Request::<UncertainDb>::decode(&payload) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let payload = read_fixture_frame("msg_update_bad_kind.bin")
        .unwrap()
        .unwrap();
    match Request::<UncertainDb>::decode(&payload) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("op kind"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn invalid_histogram_parts_are_typed() {
    // Checksum-valid frame, structurally valid Candidates body, but the
    // histogram edges are non-monotone: `from_raw_parts` must reject it
    // rather than hand the pipeline a malformed distribution.
    let payload = read_fixture_frame("msg_candidates_bad_hist.bin")
        .unwrap()
        .unwrap();
    match Response::decode(&payload) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("histogram"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Every prefix of every fixture parses or fails typed — the frame
/// reader and both decoders are panic-free under truncation.
#[test]
fn no_fixture_prefix_panics() {
    for name in [
        "frame_filter.bin",
        "resp_candidates.bin",
        "frame_empty.bin",
        "frame_torn_prefix.bin",
        "frame_torn_body.bin",
        "frame_torn_crc.bin",
        "frame_bad_crc.bin",
        "frame_bitflip.bin",
        "frame_oversized.bin",
        "frame_zero_len.bin",
        "msg_unknown_tag.bin",
        "msg_hello_bad_magic.bin",
        "msg_hello_wrong_dim.bin",
        "msg_filter_trailing.bin",
        "msg_update_bad_kind.bin",
        "msg_update.bin",
        "msg_candidates_bad_hist.bin",
    ] {
        let bytes = fixture(name);
        for cut in 0..=bytes.len() {
            if let Ok(Some(payload)) = read_frame(&mut &bytes[..cut]) {
                let _ = Request::<UncertainDb>::decode(&payload);
                let _ = Response::decode(&payload);
            }
        }
    }
    // And every prefix of the canonical *payloads* (framing intact, body
    // cut) decodes or fails typed on both endpoints.
    let (req, resp) = canonical_payloads();
    for payload in [req, resp, canonical_update()] {
        for cut in 0..=payload.len() {
            let _ = Request::<UncertainDb>::decode(&payload[..cut]);
            let _ = Response::decode(&payload[..cut]);
        }
    }
}

/// A live shard endpoint survives the corpus: message-level garbage gets
/// a typed error reply on a still-usable connection; frame-level garbage
/// gets a typed farewell and a dropped connection — and the shard keeps
/// serving fresh connections either way.
#[test]
fn malformed_input_never_kills_a_live_shard() {
    let dir = std::env::temp_dir().join(format!("cpnn-wirefx-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = ShardAddr::Unix(dir.join("shard.sock"));
    let server = Arc::new(QueryServer::start(base_model(), 1, Default::default()));
    let listener = ShardListener::bind(&addr).unwrap();
    let handle = ShardServerHandle::spawn(server, listener, ShardServeConfig::default()).unwrap();

    let hello = Request::<UncertainDb>::Hello.encode();
    fn exchange(conn: &mut ShardStream, payload: &[u8]) -> Option<Response> {
        write_frame(conn, payload).unwrap();
        read_frame(conn)
            .ok()
            .flatten()
            .map(|p| Response::decode(&p).unwrap())
    }

    // Message-level garbage: typed error reply, connection keeps serving.
    let mut conn = ShardStream::connect(handle.addr()).unwrap();
    match exchange(&mut conn, &[0x7E, 1, 2, 3]) {
        Some(Response::Error(msg)) => assert!(msg.contains("bad request"), "{msg}"),
        other => panic!("expected typed error reply, got {other:?}"),
    }
    match exchange(&mut conn, &hello) {
        Some(Response::Hello(status)) => assert_eq!(status.objects, 4),
        other => panic!("connection should still serve, got {other:?}"),
    }

    // Frame-level garbage (bad checksum): typed farewell, then EOF.
    use std::io::Write as _;
    conn.write_all(&fixture("frame_bad_crc.bin")).unwrap();
    conn.flush().unwrap();
    match read_frame(&mut conn) {
        Ok(Some(p)) => match Response::decode(&p).unwrap() {
            Response::Error(msg) => assert!(msg.contains("dropping connection"), "{msg}"),
            other => panic!("expected farewell error, got {other:?}"),
        },
        other => panic!("expected farewell frame, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut conn), Ok(None) | Err(_)));

    // The shard itself is unharmed: a fresh connection still answers.
    let mut fresh = ShardStream::connect(handle.addr()).unwrap();
    match exchange(&mut fresh, &hello) {
        Some(Response::Hello(status)) => assert_eq!(status.objects, 4),
        other => panic!("shard must survive the corpus, got {other:?}"),
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates the corpus (deterministic bytes). Run manually after an
/// *intentional* wire-format change:
/// `cargo test -p cpnn-router --test wire_fixtures -- --ignored`
#[test]
#[ignore = "writes tests/fixtures/; run manually after intentional format changes"]
fn regenerate_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, bytes: &[u8]| std::fs::write(dir.join(name), bytes).unwrap();

    let (req, resp) = canonical_payloads();
    let framed_req = frame(&req);
    write("frame_filter.bin", &framed_req);
    write("resp_candidates.bin", &frame(&resp));

    write("frame_empty.bin", &[]);
    // Torn mid-length-prefix, mid-payload, and mid-checksum.
    write("frame_torn_prefix.bin", &framed_req[..2]);
    write("frame_torn_body.bin", &framed_req[..4 + req.len() / 2]);
    write("frame_torn_crc.bin", &framed_req[..framed_req.len() - 3]);

    // Flipped checksum byte; flipped payload byte (checksum now stale).
    let mut bad_crc = framed_req.clone();
    *bad_crc.last_mut().unwrap() ^= 0x01;
    write("frame_bad_crc.bin", &bad_crc);
    let mut bitflip = framed_req.clone();
    bitflip[4 + 3] ^= 0x40;
    write("frame_bitflip.bin", &bitflip);

    // Hostile length prefixes: absurdly large, and zero.
    write("frame_oversized.bin", &(MAX_FRAME + 1).to_le_bytes());
    write("frame_zero_len.bin", &0u32.to_le_bytes());

    // Valid frames around malformed messages.
    write("msg_unknown_tag.bin", &frame(&[0x7E, 1, 2, 3]));

    let mut bad_magic = Request::<UncertainDb>::Hello.encode();
    bad_magic[1..5].copy_from_slice(b"NOPE");
    write("msg_hello_bad_magic.bin", &frame(&bad_magic));

    // A structurally perfect 2-D hello — wrong for a 1-D shard.
    let mut wrong_dim = Vec::new();
    wrong_dim.push(tag::HELLO);
    wrong_dim.extend_from_slice(b"CPRT");
    wrong_dim.extend_from_slice(&1u32.to_le_bytes());
    wrong_dim.extend_from_slice(&2u32.to_le_bytes());
    write("msg_hello_wrong_dim.bin", &frame(&wrong_dim));

    let mut trailing = req.clone();
    trailing.push(0xAA);
    write("msg_filter_trailing.bin", &frame(&trailing));

    // Update burst whose single op has kind 9 (no such op).
    let mut bad_kind = Vec::new();
    bad_kind.push(tag::UPDATE);
    bad_kind.extend_from_slice(&1u32.to_le_bytes());
    bad_kind.push(9);
    write("msg_update_bad_kind.bin", &frame(&bad_kind));

    write("msg_update.bin", &frame(&canonical_update()));

    // Candidates body with non-monotone histogram edges (1 bar, hi < lo).
    let mut bad_hist = Vec::new();
    bad_hist.push(tag::CANDIDATES);
    bad_hist.extend_from_slice(&7u64.to_le_bytes()); // version
    bad_hist.extend_from_slice(&1u32.to_le_bytes()); // one item
    bad_hist.extend_from_slice(&42u64.to_le_bytes()); // id
    bad_hist.extend_from_slice(&1u32.to_le_bytes()); // one bar
    for v in [1.0f64, 0.5] {
        bad_hist.extend_from_slice(&v.to_bits().to_le_bytes()); // edges: 1.0 > 0.5
    }
    bad_hist.extend_from_slice(&2.0f64.to_bits().to_le_bytes()); // density
    for v in [0.0f64, 1.0] {
        bad_hist.extend_from_slice(&v.to_bits().to_le_bytes()); // cdf
    }
    write("msg_candidates_bad_hist.bin", &frame(&bad_hist));
}
