//! stegotorus — a camouflage proxy using a "chopper" and steganographic
//! covers.
//!
//! The chopper converts the fixed-size Tor cell stream into variable-size
//! blocks sent *out of order over multiple parallel TCP connections*; the
//! server reassembles the cell stream and forwards it to Tor. Each block
//! is additionally expanded by the steganographic cover encoding (HTTP
//! cover traffic hides fewer payload bytes than it transmits).
//!
//! Implemented pieces:
//!
//! * the chopper block codec: `seq ‖ len ‖ flags` header + variable-size
//!   body, with an out-of-order reassembler that releases a contiguous
//!   prefix;
//! * a connection scheduler that round-robins blocks over k connections;
//! * the cover-expansion accounting used by the model.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Chopper block header: 4-byte seq, 2-byte length, 1-byte flags.
pub const BLOCK_HEADER: usize = 7;

/// Largest chopper block body.
pub const MAX_BLOCK: usize = 2048;

/// Parallel connections the chopper spreads blocks over.
pub const CONNECTIONS: usize = 4;

/// Steganographic cover expansion: an HTTP cover transaction carries
/// roughly 1 payload byte per 1.6 cover bytes. A modelled figure: no
/// cover codec is implemented, so no test derives it from wire bytes.
pub const COVER_EXPANSION: f64 = 1.6;

/// A chopper block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Position in the cell stream.
    pub seq: u32,
    /// End-of-stream marker.
    pub fin: bool,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Block {
    /// Serializes the block.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.body.len() <= MAX_BLOCK, "chopper block too large");
        let mut out = Vec::with_capacity(BLOCK_HEADER + self.body.len());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&(self.body.len() as u16).to_be_bytes());
        out.push(u8::from(self.fin));
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses one block from the front of `buf`; `None` = need more.
    pub fn decode(buf: &mut Vec<u8>) -> Option<Block> {
        if buf.len() < BLOCK_HEADER {
            return None;
        }
        let seq = u32::from_be_bytes(buf[0..4].try_into().unwrap());
        let len = u16::from_be_bytes(buf[4..6].try_into().unwrap()) as usize;
        let fin = buf[6] == 1;
        if len > MAX_BLOCK || buf.len() < BLOCK_HEADER + len {
            return None;
        }
        let body = buf[BLOCK_HEADER..BLOCK_HEADER + len].to_vec();
        buf.drain(..BLOCK_HEADER + len);
        Some(Block { seq, fin, body })
    }
}

/// Chops a payload into variable-size blocks with sequence numbers.
/// Block sizes are drawn uniformly from `[min, MAX_BLOCK]` so the wire
/// pattern varies (the chopper's anti-fingerprinting job).
pub fn chop(payload: &[u8], min_block: usize, rng: &mut SimRng) -> Vec<Block> {
    assert!((1..=MAX_BLOCK).contains(&min_block));
    let mut blocks = Vec::new();
    let mut offset = 0usize;
    let mut seq = 0u32;
    while offset < payload.len() {
        let size = rng.range_u64(min_block as u64, MAX_BLOCK as u64) as usize;
        let end = (offset + size).min(payload.len());
        blocks.push(Block {
            seq,
            fin: end == payload.len(),
            body: payload[offset..end].to_vec(),
        });
        offset = end;
        seq += 1;
    }
    if blocks.is_empty() {
        blocks.push(Block {
            seq: 0,
            fin: true,
            body: vec![],
        });
    }
    blocks
}

/// Round-robins blocks over `k` connections (the chopper sends unordered
/// across connections).
pub fn schedule(blocks: Vec<Block>, k: usize) -> Vec<Vec<Block>> {
    assert!(k >= 1);
    let mut conns: Vec<Vec<Block>> = vec![Vec::new(); k];
    for (i, b) in blocks.into_iter().enumerate() {
        conns[i % k].push(b);
    }
    conns
}

/// The server-side reassembler: accepts blocks in any order, releases the
/// contiguous prefix of the stream.
#[derive(Debug, Default)]
pub struct Reassembler {
    next_seq: u32,
    pending: std::collections::BTreeMap<u32, Block>,
    finished: bool,
}

impl Reassembler {
    /// A fresh reassembler expecting seq 0.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Accepts a block; returns any newly contiguous bytes.
    pub fn push(&mut self, block: Block) -> Vec<u8> {
        self.pending.insert(block.seq, block);
        let mut out = Vec::new();
        while let Some(b) = self.pending.remove(&self.next_seq) {
            out.extend_from_slice(&b.body);
            if b.fin {
                self.finished = true;
            }
            self.next_seq += 1;
        }
        out
    }

    /// True once the fin block and everything before it was released.
    pub fn finished(&self) -> bool {
        self.finished && self.pending.is_empty()
    }
}

/// Total wire overhead: block header amortized over the average block,
/// times the steganographic cover expansion.
pub fn frame_overhead(min_block: usize) -> f64 {
    let avg_block = (min_block + MAX_BLOCK) as f64 / 2.0;
    ((avg_block + BLOCK_HEADER as f64) / avg_block) * COVER_EXPANSION
}

/// Round trips to the stegotorus server before the tunnel carries data:
/// TCP on all [`CONNECTIONS`] (pipelined: ~1) plus the chopper hello (1).
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The stegotorus transport model.
pub struct Stegotorus;

impl PluggableTransport for Stegotorus {
    fn id(&self) -> PtId {
        PtId::Stegotorus
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let mut ch = own_host_channel(
            PtId::Stegotorus,
            HANDSHAKE_ROUND_TRIPS,
            dep,
            opts,
            dest,
            rng,
            scratch,
        );
        // The cover encoding is the dominant cost: ~1.6× wire expansion.
        apply_frame_overhead(&mut ch, frame_overhead(256));
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_round_trip() {
        let b = Block {
            seq: 7,
            fin: true,
            body: b"block body".to_vec(),
        };
        let mut buf = b.encode();
        assert_eq!(Block::decode(&mut buf).unwrap(), b);
    }

    #[test]
    fn chop_and_reassemble_in_order() {
        let mut rng = SimRng::new(1);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let blocks = chop(&payload, 256, &mut rng);
        assert!(blocks.len() > 4);
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for b in blocks {
            out.extend(r.push(b));
        }
        assert_eq!(out, payload);
        assert!(r.finished());
    }

    #[test]
    fn reassembles_across_shuffled_connections() {
        let mut rng = SimRng::new(2);
        let payload = vec![0xC3u8; 20_000];
        let blocks = chop(&payload, 128, &mut rng);
        let conns = schedule(blocks, CONNECTIONS);
        assert_eq!(conns.len(), CONNECTIONS);
        // Interleave connections in a worst-case order: all of conn 3,
        // then 2, then 1, then 0.
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for conn in conns.into_iter().rev() {
            for b in conn {
                out.extend(r.push(b));
            }
        }
        assert_eq!(out, payload);
        assert!(r.finished());
    }

    #[test]
    fn reassembler_releases_contiguous_prefix_only() {
        let mut r = Reassembler::new();
        let b2 = Block {
            seq: 1,
            fin: true,
            body: b"second".to_vec(),
        };
        assert!(r.push(b2).is_empty());
        assert!(!r.finished());
        let b1 = Block {
            seq: 0,
            fin: false,
            body: b"first-".to_vec(),
        };
        assert_eq!(r.push(b1), b"first-second");
        assert!(r.finished());
    }

    #[test]
    fn empty_payload_yields_fin_block() {
        let mut rng = SimRng::new(3);
        let blocks = chop(&[], 64, &mut rng);
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].fin);
        assert!(blocks[0].body.is_empty());
    }

    proptest! {
        #[test]
        fn chop_reassemble_round_trips(
            payload in proptest::collection::vec(any::<u8>(), 0..5000),
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::new(seed);
            let blocks = chop(&payload, 64, &mut rng);
            let mut r = Reassembler::new();
            let mut out = Vec::new();
            // Deterministic shuffle via the same RNG.
            let mut idx: Vec<usize> = (0..blocks.len()).collect();
            rng.shuffle(&mut idx);
            for i in idx {
                out.extend(r.push(blocks[i].clone()));
            }
            prop_assert_eq!(out, payload);
        }
    }

    #[test]
    fn overhead_reflects_cover_expansion() {
        let oh = frame_overhead(256);
        assert!(oh > 1.5 && oh < 1.7, "{oh}");
    }

    #[test]
    fn establish_has_noticeable_overhead() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(12);
        let ch = Stegotorus.establish(&dep, &opts, Location::NewYork, &mut rng);
        // Cover expansion shows up as a materially lower goodput than the
        // server's raw capacity.
        assert!(ch.response.bottleneck_bps < dep.server(PtId::Stegotorus).capacity_bps / 1.4);
    }
}
