//! The timing model's framing overheads and handshake round trips,
//! checked against the wire codecs they are derived from.
//!
//! Each transport's `frame_overhead()` is arithmetic on its codec's
//! constants, each `HANDSHAKE_ROUND_TRIPS` is a count the model charges,
//! and dnstt's `RESPONSE_PAYLOAD` is the downstream payload its
//! query-clocked rate charges per resolver response. These tests run the
//! real codecs — seal a full-size payload, drive a handshake — and
//! require the model's figures to match what the bytes show, so a codec
//! change that alters the wire moves a test.

use ptperf_crypto::Keypair;
use ptperf_sim::SimRng;
use ptperf_tor::cell::{self, Cell, CellCommand, RelayCell, RelayCommand, RELAY_DATA_LEN};
use ptperf_transports::{cloak, dnstt, obfs4, shadowsocks, snowflake, stegotorus, webtunnel};

/// One codec against its model overhead: `seal` frames a payload of
/// `payload` bytes and returns the wire length, and `model` is the
/// overhead the timing model applies.
struct Row {
    pt: &'static str,
    payload: usize,
    seal: fn(&[u8]) -> usize,
    model: fn() -> f64,
}

/// The tie table. psiphon has no row: `seal_packet` pads a full
/// 32,768-byte payload with 11 bytes where `psiphon::frame_overhead()`
/// assumes 8 (see the psiphon `FOUND:` line in CHANGES.md). stegotorus's
/// overhead multiplies in `COVER_EXPANSION`, which has no codec behind
/// it; `stegotorus_block_adds_exactly_its_header` checks its block codec.
const ROWS: &[Row] = &[
    Row {
        pt: "obfs4",
        payload: obfs4::MAX_FRAME_PAYLOAD,
        seal: |p| obfs4::FrameCodec::derive(&[1; 32], false).seal(p).len(),
        model: obfs4::frame_overhead,
    },
    Row {
        pt: "shadowsocks",
        payload: shadowsocks::MAX_CHUNK,
        seal: |p| {
            shadowsocks::ChunkCodec::derive(&[2; 32], &[3; 16], false)
                .seal(p)
                .len()
        },
        model: shadowsocks::frame_overhead,
    },
    Row {
        pt: "cloak",
        payload: cloak::MAX_FRAME,
        seal: |p| {
            let frame = cloak::MuxFrame {
                stream_id: 1,
                seq: 0,
                fin: false,
                payload: p.to_vec(),
            };
            frame.encode().len()
        },
        model: cloak::frame_overhead,
    },
    Row {
        pt: "webtunnel",
        payload: webtunnel::MAX_RECORD,
        seal: |p| webtunnel::encode_record(p).len(),
        model: webtunnel::frame_overhead,
    },
    Row {
        pt: "snowflake",
        payload: snowflake::MAX_CHUNK,
        seal: |p| snowflake::chunk(1, p).iter().map(Vec::len).sum(),
        model: snowflake::frame_overhead,
    },
    Row {
        pt: "tor",
        payload: RELAY_DATA_LEN,
        seal: |p| {
            let relay = RelayCell::new(RelayCommand::Data, 1, p.to_vec());
            Cell::new(7, CellCommand::Relay, &relay.encode())
                .encode()
                .len()
        },
        model: cell::relay_payload_overhead,
    },
];

#[test]
fn every_frame_codec_matches_its_model_overhead_to_the_bit() {
    for row in ROWS {
        let payload: Vec<u8> = (0..row.payload).map(|i| i as u8).collect();
        let wire = (row.seal)(&payload);
        let measured = wire as f64 / row.payload as f64;
        let model = (row.model)();
        assert_eq!(
            measured.to_bits(),
            model.to_bits(),
            "{}: the codec frames {} payload bytes into {wire} wire bytes ({measured}), \
             the model charges {model}",
            row.pt,
            row.payload
        );
    }
}

#[test]
fn stegotorus_block_adds_exactly_its_header() {
    for len in [0, 256, stegotorus::MAX_BLOCK] {
        let block = stegotorus::Block {
            seq: 3,
            fin: false,
            body: vec![0x5A; len],
        };
        assert_eq!(
            block.encode().len(),
            len + stegotorus::BLOCK_HEADER,
            "body {len}"
        );
    }
}

#[test]
fn dnstt_response_payload_fits_one_resolver_response() {
    let payload = vec![0x5A; dnstt::RESPONSE_PAYLOAD];
    let wire = dnstt::encode_response(1, &payload);
    assert!(
        wire.len() <= dnstt::MAX_RESPONSE,
        "{} payload bytes take a {}-byte response, over the resolver's {}",
        dnstt::RESPONSE_PAYLOAD,
        wire.len(),
        dnstt::MAX_RESPONSE
    );
}

/// Transport round trips the handshake docs name before a PT's own
/// messages.
const TCP: u32 = 1;
const TLS: u32 = 1;

/// A client→server link that counts the messages the client sends.
/// Each handshake test sends everything through it, its first tunnel
/// data included, and reads the count just before that data.
#[derive(Default)]
struct Link {
    client_messages: u32,
}

impl Link {
    fn send(&mut self, bytes: Vec<u8>) -> Vec<u8> {
        self.client_messages += 1;
        bytes
    }
}

#[test]
fn obfs4_handshake_is_one_message_after_tcp() {
    let bridge = obfs4::BridgeIdentity::from_seed(11);
    let client = Keypair::from_secret([7; 32]);
    let mut link = Link::default();

    let hello = obfs4::client_hello(
        &bridge.keypair.public,
        &bridge.node_id,
        &client,
        64,
        9,
        &mut SimRng::new(1),
    );
    let hello = link.send(hello);
    let parsed = obfs4::server_parse_hello(&bridge, &hello, 9).expect("hello accepted");
    // The server answers with its ephemeral key; both sides now hold the
    // session keys and the client may frame tunnel data.
    let server_eph = Keypair::from_secret([8; 32]);
    let server_keys = obfs4::server_ntor(&bridge, &server_eph, &parsed.client_pub);
    let client_keys = obfs4::client_ntor(
        &client,
        &bridge.keypair.public,
        &bridge.node_id,
        &server_eph.public,
    );
    let handshake = link.client_messages;
    let mut wire = link.send(obfs4::FrameCodec::derive(&client_keys.key_seed, false).seal(b"cell"));
    let mut rx = obfs4::FrameCodec::derive(&server_keys.key_seed, false);
    assert_eq!(rx.open(&mut wire).unwrap().unwrap(), b"cell");

    assert_eq!(handshake, 1);
    assert_eq!(TCP + handshake, obfs4::HANDSHAKE_ROUND_TRIPS);
}

#[test]
fn webtunnel_handshake_is_one_upgrade_after_tcp_and_tls() {
    let mut link = Link::default();

    let request = link.send(webtunnel::upgrade_request("cdn.example.com", "s3cret"));
    let response = webtunnel::handle_upgrade(&request, "s3cret").expect("upgrade accepted");
    assert!(response.starts_with(b"HTTP/1.1 101"));
    // After the 101 the connection is a raw tunnel.
    let handshake = link.client_messages;
    let mut wire = link.send(webtunnel::encode_record(b"cell"));
    assert_eq!(webtunnel::decode_record(&mut wire).unwrap(), b"cell");

    assert_eq!(handshake, 1);
    assert_eq!(TCP + TLS + handshake, webtunnel::HANDSHAKE_ROUND_TRIPS);
}

#[test]
fn shadowsocks_first_chunk_already_carries_the_target() {
    let mut link = Link::default();

    // The first sealed chunk is tunnel data: the target address rides in
    // front of the first bytes, so no message precedes it.
    let addr = shadowsocks::Address::Domain("guard.relay.example".into(), 443);
    let mut first = addr.encode();
    first.extend_from_slice(b"cell");
    let handshake = link.client_messages;
    let mut wire =
        link.send(shadowsocks::ChunkCodec::derive(&[2; 32], &[3; 16], false).seal(&first));
    let mut rx = shadowsocks::ChunkCodec::derive(&[2; 32], &[3; 16], false);
    let got = rx.open(&mut wire).unwrap().unwrap();
    let (got_addr, used) = shadowsocks::Address::decode(&got).unwrap();
    assert_eq!((got_addr, &got[used..]), (addr, &b"cell"[..]));

    assert_eq!(handshake, 0);
    assert_eq!(TCP + handshake, shadowsocks::HANDSHAKE_ROUND_TRIPS);
}

#[test]
fn cloak_credential_rides_the_tls_client_hello() {
    let server = Keypair::from_secret([21; 32]);
    let client = Keypair::from_secret([22; 32]);
    let mut link = Link::default();

    // The credential is the ClientHello's random field: it travels in
    // TLS's own round trip, and the server authenticates the client from
    // it before any cloak message.
    let random = cloak::client_hello_random(&client, &server.public);
    assert!(cloak::verify_hello_random(&server, &client.public, &random));
    let handshake = link.client_messages;
    let frame = cloak::MuxFrame {
        stream_id: 1,
        seq: 0,
        fin: false,
        payload: b"cell".to_vec(),
    };
    let mut wire = link.send(frame.encode());
    assert_eq!(cloak::MuxFrame::decode(&mut wire).unwrap().payload, b"cell");

    assert_eq!(handshake, 0);
    assert_eq!(TCP + TLS + handshake, cloak::HANDSHAKE_ROUND_TRIPS);
}
