//! Cross-crate protocol plumbing: drive the real wire codecs end-to-end
//! through each other — Tor relay cells framed by a transport codec,
//! carried over a simulated carrier, and recovered intact on the far
//! side. These tests prove the byte-level layers actually compose, not
//! just that each layer round-trips alone.

use ptperf_crypto::Keypair;
use ptperf_sim::SimRng;
use ptperf_tor::{RelayCell, RelayCommand};
use ptperf_transports::{dnstt, obfs4, shadowsocks, snowflake};

/// Build a relay cell and carry its payload through the obfs4 handshake
/// and frame layer.
#[test]
fn obfs4_carries_tor_cells() {
    // 1. The Tor layer: the client prepares a relay cell.
    let cell = RelayCell::new(RelayCommand::Data, 4, b"GET / HTTP/1.1".to_vec());
    let payload = cell.encode();

    // 2. The obfs4 layer: real ntor handshake between client and bridge.
    let bridge = obfs4::BridgeIdentity::from_seed(99);
    let mut rng = SimRng::new(1);
    let client_keys = Keypair::from_secret([7u8; 32]);
    let hello = obfs4::client_hello(
        &bridge.keypair.public,
        &bridge.node_id,
        &client_keys,
        256,
        1234,
        &mut rng,
    );
    let parsed = obfs4::server_parse_hello(&bridge, &hello, 1234).expect("hello accepted");
    let server_eph = Keypair::from_secret([8u8; 32]);
    let server_session = obfs4::server_ntor(&bridge, &server_eph, &parsed.client_pub);
    let client_session = obfs4::client_ntor(
        &client_keys,
        &bridge.keypair.public,
        &bridge.node_id,
        &server_eph.public,
    );
    assert_eq!(client_session, server_session, "ntor must agree");

    // 3. Frame the cell payload and ship it.
    let mut tx = obfs4::FrameCodec::derive(&client_session.key_seed, false);
    let mut rx = obfs4::FrameCodec::derive(&server_session.key_seed, false);
    let mut wire = Vec::new();
    for chunk in payload.chunks(obfs4::MAX_FRAME_PAYLOAD) {
        wire.extend_from_slice(&tx.seal(chunk));
    }
    let mut recovered = Vec::new();
    while let Some(frame) = rx.open(&mut wire).expect("frames authentic") {
        recovered.extend_from_slice(&frame);
    }
    assert_eq!(recovered.len(), payload.len());

    // 4. The bridge recovers the relay cell intact.
    let at_bridge: [u8; 509] = recovered.try_into().unwrap();
    let back = RelayCell::decode(&at_bridge).expect("relay cell at the bridge");
    assert!(back.digest_ok());
    assert_eq!(back.data, b"GET / HTTP/1.1");
}

/// The same Tor cell payload through the shadowsocks AEAD chunk stream,
/// prefixed with the target address header — the real client flow.
#[test]
fn shadowsocks_carries_cells_with_address_header() {
    let key = [42u8; 32];
    let salt = [3u8; 16];
    let mut tx = shadowsocks::ChunkCodec::derive(&key, &salt, false);
    let mut rx = shadowsocks::ChunkCodec::derive(&key, &salt, false);

    let addr = shadowsocks::Address::Domain("guard.relay.example".into(), 443);
    let cell = RelayCell::new(RelayCommand::Begin, 1, b"example.com:443".to_vec());
    let mut first_chunk = addr.encode();
    first_chunk.extend_from_slice(&cell.encode());

    let mut wire = tx.seal(&first_chunk);
    let got = rx.open(&mut wire).unwrap().unwrap();
    let (got_addr, used) = shadowsocks::Address::decode(&got).unwrap();
    assert_eq!(got_addr, addr);
    let payload: [u8; 509] = got[used..].try_into().unwrap();
    let back = RelayCell::decode(&payload).unwrap();
    assert_eq!(back.command, RelayCommand::Begin);
}

/// A Tor cell split across dnstt DNS responses: chunk to 460-byte TXT
/// payloads, each inside a real DNS message, reassembled at the client.
#[test]
fn dnstt_carries_cells_in_txt_responses() {
    let cell = RelayCell::new(RelayCommand::Data, 9, vec![0xEE; 400]);
    let payload = cell.encode();

    let mut wire_messages = Vec::new();
    for (i, chunk) in payload.chunks(dnstt::RESPONSE_PAYLOAD).enumerate() {
        wire_messages.push(dnstt::encode_response(i as u16, chunk));
    }
    assert!(wire_messages.len() >= 2, "509 B needs ≥2 responses");
    for msg in &wire_messages {
        assert!(msg.len() <= dnstt::MAX_RESPONSE);
    }

    let mut recovered = Vec::new();
    for (i, msg) in wire_messages.iter().enumerate() {
        let (id, part) = dnstt::decode_response(msg).unwrap();
        assert_eq!(id as usize, i);
        recovered.extend_from_slice(&part);
    }
    let arr: [u8; 509] = recovered.try_into().unwrap();
    assert_eq!(RelayCell::decode(&arr).unwrap().data, vec![0xEE; 400]);
}

/// Snowflake: once the broker has matched a proxy, a cell survives the
/// data-channel chunking to it.
#[test]
fn snowflake_rendezvous_and_datachannel() {
    let cell = RelayCell::new(RelayCommand::Data, 3, vec![0x77; 450]);
    let payload = cell.encode();
    let chunks = snowflake::chunk(12, &payload);
    let back = snowflake::reassemble(12, &chunks).unwrap();
    assert_eq!(back, payload);
}

/// The full stack over real bytes: a request is packed into relay
/// cells, framed by obfs4, shipped, unframed, and the bridge recovers it
/// exactly; the response makes the return trip the same way. Both span
/// several cells, so each direction crosses several obfs4 frames.
#[test]
fn request_and_response_through_cells_and_obfs4_end_to_end() {
    use ptperf_tor::cell::RELAY_DATA_LEN;

    let request = [
        b"GET /index.html HTTP/1.1\r\nHost: blocked.example.com\r\nCookie: ".as_slice(),
        &[b'c'; 600],
        b"\r\n\r\n",
    ]
    .concat();
    let body: Vec<u8> = (0..1500u32).map(|i| (i % 251) as u8).collect();
    let response = [
        b"HTTP/1.1 200 OK\r\nContent-Length: 1500\r\n\r\n".as_slice(),
        &body,
    ]
    .concat();
    assert!(request.len() > RELAY_DATA_LEN && response.len() > RELAY_DATA_LEN);

    let frame_seed = [9u8; 32];
    let mut tx = obfs4::FrameCodec::derive(&frame_seed, false);
    let mut rx = obfs4::FrameCodec::derive(&frame_seed, false);

    // --- upstream: request → cells → obfs4 frames ---
    let mut wire = Vec::new();
    for chunk in request.chunks(RELAY_DATA_LEN) {
        let cell = RelayCell::new(RelayCommand::Data, 1, chunk.to_vec());
        let payload = cell.encode();
        for frame_chunk in payload.chunks(obfs4::MAX_FRAME_PAYLOAD) {
            wire.extend_from_slice(&tx.seal(frame_chunk));
        }
    }

    // --- the bridge: unframe and reassemble the cells ---
    let mut at_bridge = Vec::new();
    let mut cell_buf = Vec::new();
    let mut frames = 0;
    while let Some(frame) = rx.open(&mut wire).expect("frames authentic") {
        frames += 1;
        cell_buf.extend_from_slice(&frame);
        while cell_buf.len() >= 509 {
            let payload: [u8; 509] = cell_buf[..509].try_into().unwrap();
            cell_buf.drain(..509);
            let cell = RelayCell::decode(&payload).expect("relay cell at the bridge");
            assert!(cell.digest_ok());
            at_bridge.extend_from_slice(&cell.data);
        }
    }
    assert!(frames > 1, "upstream crossed {frames} frame(s)");
    assert_eq!(at_bridge, request, "bridge sees the exact request");

    // --- downstream: the response returns through the same layers ---
    let mut down_wire = Vec::new();
    let mut stx = obfs4::FrameCodec::derive(&frame_seed, true);
    let mut srx = obfs4::FrameCodec::derive(&frame_seed, true);
    for chunk in response.chunks(RELAY_DATA_LEN) {
        let cell = RelayCell::new(RelayCommand::Data, 1, chunk.to_vec());
        let payload = cell.encode();
        for frame_chunk in payload.chunks(obfs4::MAX_FRAME_PAYLOAD) {
            down_wire.extend_from_slice(&stx.seal(frame_chunk));
        }
    }
    let mut at_client = Vec::new();
    let mut cell_buf = Vec::new();
    let mut frames = 0;
    while let Some(frame) = srx.open(&mut down_wire).unwrap() {
        frames += 1;
        cell_buf.extend_from_slice(&frame);
        while cell_buf.len() >= 509 {
            let payload: [u8; 509] = cell_buf[..509].try_into().unwrap();
            cell_buf.drain(..509);
            let cell = RelayCell::decode(&payload).unwrap();
            assert!(cell.digest_ok());
            at_client.extend_from_slice(&cell.data);
        }
    }
    assert!(frames > 1, "downstream crossed {frames} frame(s)");
    assert_eq!(at_client, response, "client sees the exact response");
}
