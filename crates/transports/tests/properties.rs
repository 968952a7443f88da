//! Property tests for every transport wire codec: round trips over
//! arbitrary payloads and fragmentation patterns, and total (panic-free)
//! decoding of arbitrary garbage.

use proptest::prelude::*;

use ptperf_sim::SimRng;
use ptperf_transports::{
    cloak, dnstt, marionette, obfs4, psiphon, shadowsocks, snowflake, stegotorus, webtunnel,
};

/// Delivers `wire` to a buffer in arbitrary fragment sizes, draining
/// complete frames via `open` after each fragment.
fn fragment_deliver<T>(
    wire: &[u8],
    fragments: &[prop::sample::Index],
    mut open: impl FnMut(&mut Vec<u8>) -> Option<T>,
) -> Vec<T> {
    let mut cuts: Vec<usize> = fragments.iter().map(|i| i.index(wire.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut prev = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
        buf.extend_from_slice(&wire[prev..cut]);
        prev = cut;
        while let Some(item) = open(&mut buf) {
            out.push(item);
        }
    }
    out
}

proptest! {
    /// obfs4 frames round-trip arbitrary payload sequences under
    /// arbitrary TCP fragmentation.
    #[test]
    fn obfs4_frames_survive_fragmentation(
        seed in any::<[u8; 32]>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..obfs4::MAX_FRAME_PAYLOAD),
            1..5,
        ),
        fragments in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut tx = obfs4::FrameCodec::derive(&seed, false);
        let mut rx = obfs4::FrameCodec::derive(&seed, false);
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&tx.seal(p));
        }
        let got = fragment_deliver(&wire, &fragments, |buf| rx.open(buf).unwrap());
        prop_assert_eq!(got, payloads);
    }

    /// shadowsocks chunks round-trip likewise (non-empty payloads).
    #[test]
    fn shadowsocks_chunks_survive_fragmentation(
        key in any::<[u8; 32]>(),
        salt in any::<[u8; 16]>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..2000),
            1..5,
        ),
        fragments in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut tx = shadowsocks::ChunkCodec::derive(&key, &salt, false);
        let mut rx = shadowsocks::ChunkCodec::derive(&key, &salt, false);
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&tx.seal(p));
        }
        let got = fragment_deliver(&wire, &fragments, |buf| rx.open(buf).unwrap());
        prop_assert_eq!(got, payloads);
    }

    /// shadowsocks addresses round-trip.
    #[test]
    fn shadowsocks_address_round_trip(domain in "[a-z0-9.-]{1,200}", port in any::<u16>()) {
        let addr = shadowsocks::Address::Domain(domain, port);
        let enc = addr.encode();
        let (back, used) = shadowsocks::Address::decode(&enc).unwrap();
        prop_assert_eq!(back, addr);
        prop_assert_eq!(used, enc.len());
    }

    /// psiphon packets round-trip arbitrary payloads and sequences.
    #[test]
    fn psiphon_packets_round_trip(
        key in any::<[u8; 32]>(),
        rng_seed in any::<u64>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3000),
            1..4,
        ),
    ) {
        let mut rng = SimRng::new(rng_seed);
        let mut buf = Vec::new();
        for (seq, p) in payloads.iter().enumerate() {
            buf.extend_from_slice(&psiphon::seal_packet(&key, seq as u32, p, &mut rng));
        }
        for (seq, p) in payloads.iter().enumerate() {
            let got = psiphon::open_packet(&key, seq as u32, &mut buf).unwrap().unwrap();
            prop_assert_eq!(&got, p);
        }
        prop_assert!(buf.is_empty());
    }

    /// dnstt responses stay under the resolver limit for any payload
    /// within the advertised budget.
    #[test]
    fn dnstt_responses_bounded(
        id in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=dnstt::RESPONSE_PAYLOAD),
    ) {
        let wire = dnstt::encode_response(id, &payload);
        prop_assert!(wire.len() <= dnstt::MAX_RESPONSE);
        let (back_id, back) = dnstt::decode_response(&wire).unwrap();
        prop_assert_eq!(back_id, id);
        prop_assert_eq!(back, payload);
    }

    /// webtunnel records survive arbitrary fragmentation.
    #[test]
    fn webtunnel_records_survive_fragmentation(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3000),
            1..6,
        ),
        fragments in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&webtunnel::encode_record(p));
        }
        let got = fragment_deliver(&wire, &fragments, webtunnel::decode_record);
        prop_assert_eq!(got, payloads);
    }

    /// cloak mux frames preserve stream interleaving order per stream.
    #[test]
    fn cloak_mux_round_trip(
        frames in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<bool>(),
             proptest::collection::vec(any::<u8>(), 0..1000)),
            1..6,
        ),
    ) {
        let originals: Vec<cloak::MuxFrame> = frames
            .into_iter()
            .map(|(stream_id, seq, fin, payload)| cloak::MuxFrame { stream_id, seq, fin, payload })
            .collect();
        let mut wire = Vec::new();
        for f in &originals {
            wire.extend_from_slice(&f.encode());
        }
        let mut buf = wire;
        for f in &originals {
            prop_assert_eq!(&cloak::MuxFrame::decode(&mut buf).unwrap(), f);
        }
        prop_assert!(buf.is_empty());
    }

    /// snowflake chunking reassembles under arbitrary payloads.
    #[test]
    fn snowflake_chunks_round_trip(
        stream in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..10_000),
        shuffle_seed in any::<u64>(),
    ) {
        prop_assume!(!payload.is_empty());
        let mut chunks = snowflake::chunk(stream, &payload);
        let mut rng = SimRng::new(shuffle_seed);
        rng.shuffle(&mut chunks);
        prop_assert_eq!(snowflake::reassemble(stream, &chunks).unwrap(), payload);
    }

    /// The marionette DSL parser is total: arbitrary input never panics.
    #[test]
    fn marionette_parser_total(src in "\\PC{0,300}") {
        let _ = marionette::Automaton::parse(&src);
    }

    /// Frame/chunk openers are total: arbitrary garbage either parses,
    /// errors, or waits — never panics and never loops.
    #[test]
    fn openers_are_total_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
        key in any::<[u8; 32]>(),
    ) {
        let mut buf = garbage.clone();
        let mut rx = obfs4::FrameCodec::derive(&key, false);
        for _ in 0..4 {
            if !matches!(rx.open(&mut buf), Ok(Some(_))) {
                break;
            }
        }
        let mut buf = garbage.clone();
        let mut rx = shadowsocks::ChunkCodec::derive(&key, &[0u8; 16], false);
        for _ in 0..4 {
            if !matches!(rx.open(&mut buf), Ok(Some(_))) {
                break;
            }
        }
        let mut buf = garbage.clone();
        for _ in 0..4 {
            if psiphon::open_packet(&key, 0, &mut buf).map(|o| o.is_none()).unwrap_or(true) {
                break;
            }
        }
        let mut buf = garbage.clone();
        while webtunnel::decode_record(&mut buf).is_some() {}
        let mut buf = garbage.clone();
        while cloak::MuxFrame::decode(&mut buf).is_some() {}
        let mut buf = garbage.clone();
        while stegotorus::Block::decode(&mut buf).is_some() {}
        let _ = dnstt::decode_response(&garbage);
    }
}
