//! Property tests for the Tor substrate: cell codecs, onion layering,
//! and path-selection validity over arbitrary consensuses.

use proptest::prelude::*;

use ptperf_sim::{LoadProfile, SimRng};
use ptperf_tor::cell::{Cell, CellCommand, RelayCell, RelayCommand, CELL_PAYLOAD_LEN, RELAY_DATA_LEN};
use ptperf_tor::consensus::{Consensus, ConsensusParams};
use ptperf_tor::{OnionStack, PathSelector};

fn arb_relay_command() -> impl Strategy<Value = RelayCommand> {
    prop::sample::select(vec![
        RelayCommand::Begin,
        RelayCommand::Data,
        RelayCommand::End,
        RelayCommand::Connected,
        RelayCommand::Sendme,
        RelayCommand::Extend2,
        RelayCommand::Extended2,
    ])
}

proptest! {
    /// Relay cells round-trip arbitrary payloads.
    #[test]
    fn relay_cell_round_trip(
        cmd in arb_relay_command(),
        stream in any::<u16>(),
        data in proptest::collection::vec(any::<u8>(), 0..=RELAY_DATA_LEN),
    ) {
        let rc = RelayCell::new(cmd, stream, data);
        let back = RelayCell::decode(&rc.encode()).unwrap();
        prop_assert_eq!(&back, &rc);
        prop_assert!(back.digest_ok());
    }

    /// Link cells round-trip arbitrary circuit ids and payload prefixes.
    #[test]
    fn cell_round_trip(
        circ in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=CELL_PAYLOAD_LEN),
    ) {
        let cell = Cell::new(circ, CellCommand::Relay, &payload);
        prop_assert_eq!(Cell::decode(&cell.encode()).unwrap(), cell);
    }

    /// Cell decode never panics on arbitrary 514-byte input.
    #[test]
    fn cell_decode_total(bytes in proptest::collection::vec(any::<u8>(), 514)) {
        let _ = Cell::decode(&bytes);
    }

    /// Onion encryption round-trips through 1–5 hops for arbitrary
    /// secrets and payloads.
    #[test]
    fn onion_round_trip(
        secrets in proptest::collection::vec(any::<[u8; 32]>(), 1..=5),
        seed_payload in any::<[u8; 32]>(),
    ) {
        let mut payload = [0u8; CELL_PAYLOAD_LEN];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = seed_payload[i % 32] ^ (i as u8);
        }
        let original = payload;
        let mut client = OnionStack::new(&secrets);
        let mut relays = OnionStack::new(&secrets);
        client.encrypt_outbound(&mut payload);
        for hop in 0..secrets.len() {
            relays.peel_at(hop, &mut payload);
        }
        prop_assert_eq!(payload, original);
    }

    /// Path selection over arbitrary consensus shapes always yields
    /// three distinct relays with the right flags.
    #[test]
    fn path_selection_always_valid(
        seed in any::<u64>(),
        n_relays in 3usize..50,
        guard_fraction in 0.0f64..1.0,
        exit_fraction in 0.0f64..1.0,
    ) {
        let mut rng = SimRng::new(seed);
        let consensus = Consensus::generate_with(
            &mut rng,
            &ConsensusParams {
                n_relays,
                guard_fraction,
                exit_fraction,
                load: LoadProfile::VolunteerRelay,
            },
            0,
        );
        let mut selector = PathSelector::new();
        for _ in 0..10 {
            let spec = selector.select(Default::default(), &consensus, &mut rng).unwrap();
            prop_assert_ne!(spec.guard, spec.middle);
            prop_assert_ne!(spec.guard, spec.exit);
            prop_assert_ne!(spec.middle, spec.exit);
            prop_assert!(consensus.relay(spec.guard).flags.guard);
            prop_assert!(consensus.relay(spec.exit).flags.exit);
        }
    }
}
