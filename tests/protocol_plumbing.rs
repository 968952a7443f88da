//! Cross-crate protocol plumbing: drive the real wire codecs end-to-end
//! through each other — Tor relay cells onion-encrypted, framed by a
//! transport codec, carried over a simulated carrier, and recovered
//! intact on the far side. These tests prove the byte-level layers
//! actually compose, not just that each layer round-trips alone.

use ptperf_crypto::Keypair;
use ptperf_sim::SimRng;
use ptperf_tor::{OnionStack, RelayCell, RelayCommand};
use ptperf_transports::{camoufler, dnstt, obfs4, shadowsocks, snowflake, stegotorus};

/// Build a relay cell, onion-encrypt it for a 3-hop circuit, and carry
/// the resulting link payload through the obfs4 handshake + frame layer.
#[test]
fn obfs4_carries_onion_encrypted_tor_cells() {
    // 1. The Tor layer: client prepares an onion-encrypted relay cell.
    let secrets = [[11u8; 32], [22u8; 32], [33u8; 32]];
    let mut client_onion = OnionStack::new(&secrets);
    let mut relay_onion = OnionStack::new(&secrets);
    let cell = RelayCell::new(RelayCommand::Data, 4, b"GET / HTTP/1.1".to_vec());
    let mut payload = cell.encode();
    client_onion.encrypt_outbound(&mut payload);

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

    // 3. Frame the onion-encrypted cell payload and ship it.
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

    // 4. The bridge (guard) peels its onion layer, then middle, then exit.
    let mut at_exit: [u8; 509] = recovered.try_into().unwrap();
    relay_onion.peel_at(0, &mut at_exit);
    relay_onion.peel_at(1, &mut at_exit);
    relay_onion.peel_at(2, &mut at_exit);
    let back = RelayCell::decode(&at_exit).expect("plaintext at exit");
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

/// Upstream over dnstt: payload encoded into query names under the
/// tunnel domain, through real DNS query messages.
#[test]
fn dnstt_upstream_query_names_survive_dns_encoding() {
    let payload = b"upstream tor traffic chunk";
    let name = dnstt::encode_query_name(payload, "t.example.com").unwrap();
    let query = dnstt::encode_query(7, &name);
    let (id, parsed_name) = dnstt::decode_query(&query).unwrap();
    assert_eq!(id, 7);
    assert_eq!(
        dnstt::decode_query_name(&parsed_name, "t.example.com").unwrap(),
        payload
    );
}

/// The stegotorus chopper spreads one onion-encrypted cell over four
/// connections; the server reassembles regardless of arrival order.
#[test]
fn stegotorus_chopper_survives_connection_interleaving() {
    let secrets = [[5u8; 32]];
    let mut client_onion = OnionStack::new(&secrets);
    let cell = RelayCell::new(RelayCommand::Data, 2, vec![0x42; 200]);
    let mut payload = cell.encode().to_vec();
    client_onion.encrypt_outbound((&mut payload[..]).try_into().unwrap());

    let mut rng = SimRng::new(4);
    let blocks = stegotorus::chop(&payload, 64, &mut rng);
    let conns = stegotorus::schedule(blocks, stegotorus::CONNECTIONS);
    // Adversarial arrival: reverse connection order, reverse in-conn order.
    let mut reassembler = stegotorus::Reassembler::new();
    let mut out = Vec::new();
    for conn in conns.into_iter().rev() {
        for block in conn.into_iter().rev() {
            out.extend(reassembler.push(block));
        }
    }
    assert!(reassembler.finished());
    assert_eq!(out, payload);
}

/// Snowflake: broker rendezvous messages round-trip and a cell survives
/// the data-channel chunking.
#[test]
fn snowflake_rendezvous_and_datachannel() {
    let offer = snowflake::BrokerMessage::Offer(b"v=0 o=client ...".to_vec());
    let wire = offer.encode();
    assert_eq!(snowflake::BrokerMessage::decode(&wire).unwrap(), offer);

    let cell = RelayCell::new(RelayCommand::Data, 3, vec![0x77; 450]);
    let payload = cell.encode();
    let chunks = snowflake::chunk(12, &payload);
    let back = snowflake::reassemble(12, &chunks).unwrap();
    assert_eq!(back, payload);
}

/// Camoufler: a cell rides IM messages as base64 text bodies.
#[test]
fn camoufler_carries_cells_as_im_text() {
    let cell = RelayCell::new(RelayCommand::Data, 6, vec![0x99; 300]);
    let payload = cell.encode();
    let msg = camoufler::ImMessage {
        seq: 0,
        fin: true,
        payload: payload.to_vec(),
    };
    let body = msg.encode();
    // An IM platform sees printable text only.
    assert!(body.bytes().all(|b| b.is_ascii_graphic()));
    let back = camoufler::ImMessage::decode(&body).unwrap();
    let arr: [u8; 509] = back.payload.try_into().unwrap();
    assert!(RelayCell::decode(&arr).unwrap().digest_ok());
}

/// The full stack over real bytes: a request is packed into relay
/// cells, onion-encrypted for three hops, framed by obfs4, shipped,
/// unframed, peeled hop by hop, and the exit recovers it exactly; the
/// response makes the return trip the same way. Both span several cells,
/// so each direction crosses several obfs4 frames.
#[test]
fn request_and_response_through_cells_onion_and_obfs4_end_to_end() {
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

    let secrets = [[1u8; 32], [2u8; 32], [3u8; 32]];
    let mut client_onion = OnionStack::new(&secrets);
    let mut relay_onion = OnionStack::new(&secrets);
    let frame_seed = [9u8; 32];
    let mut tx = obfs4::FrameCodec::derive(&frame_seed, false);
    let mut rx = obfs4::FrameCodec::derive(&frame_seed, false);

    // --- upstream: request → cells → onion → obfs4 frames ---
    let mut wire = Vec::new();
    for chunk in request.chunks(RELAY_DATA_LEN) {
        let cell = RelayCell::new(RelayCommand::Data, 1, chunk.to_vec());
        let mut payload = cell.encode();
        client_onion.encrypt_outbound(&mut payload);
        for frame_chunk in payload.chunks(obfs4::MAX_FRAME_PAYLOAD) {
            wire.extend_from_slice(&tx.seal(frame_chunk));
        }
    }

    // --- the bridge/relays: unframe, peel, reassemble at the exit ---
    let mut at_exit = Vec::new();
    let mut cell_buf = Vec::new();
    let mut frames = 0;
    while let Some(frame) = rx.open(&mut wire).expect("frames authentic") {
        frames += 1;
        cell_buf.extend_from_slice(&frame);
        while cell_buf.len() >= 509 {
            let mut payload: [u8; 509] = cell_buf[..509].try_into().unwrap();
            cell_buf.drain(..509);
            relay_onion.peel_at(0, &mut payload);
            relay_onion.peel_at(1, &mut payload);
            relay_onion.peel_at(2, &mut payload);
            let cell = RelayCell::decode(&payload).expect("plaintext at exit");
            assert!(cell.digest_ok());
            at_exit.extend_from_slice(&cell.data);
        }
    }
    assert!(frames > 1, "upstream crossed {frames} frame(s)");
    assert_eq!(at_exit, request, "exit sees the exact request");

    // --- downstream: the response returns through the same layers ---
    let mut down_wire = Vec::new();
    let mut stx = obfs4::FrameCodec::derive(&frame_seed, true);
    let mut srx = obfs4::FrameCodec::derive(&frame_seed, true);
    for chunk in response.chunks(RELAY_DATA_LEN) {
        let cell = RelayCell::new(RelayCommand::Data, 1, chunk.to_vec());
        let mut payload = cell.encode();
        // Exit wraps first, then middle, then guard.
        relay_onion.wrap_at(2, &mut payload);
        relay_onion.wrap_at(1, &mut payload);
        relay_onion.wrap_at(0, &mut payload);
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
            let mut payload: [u8; 509] = cell_buf[..509].try_into().unwrap();
            cell_buf.drain(..509);
            client_onion.decrypt_inbound(&mut payload);
            let cell = RelayCell::decode(&payload).unwrap();
            assert!(cell.digest_ok());
            at_client.extend_from_slice(&cell.data);
        }
    }
    assert!(frames > 1, "downstream crossed {frames} frame(s)");
    assert_eq!(at_client, response, "client sees the exact response");
}
