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
//!   body, whose header `codec_model` ties to the model's overhead;
//! * the cover-expansion accounting used by the model.
//!
//! Chopping, connection scheduling and out-of-order reassembly fix no
//! model figure and are not implemented.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Chopper block header: 4-byte seq, 2-byte length, 1-byte flags.
pub const BLOCK_HEADER: usize = 7;

/// Largest chopper block body.
pub const MAX_BLOCK: usize = 2048;

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

/// Total wire overhead: block header amortized over the average block
/// (the chopper draws block sizes uniformly from `[min_block,
/// MAX_BLOCK]`), times the steganographic cover expansion.
pub fn frame_overhead(min_block: usize) -> f64 {
    let avg_block = (min_block + MAX_BLOCK) as f64 / 2.0;
    ((avg_block + BLOCK_HEADER as f64) / avg_block) * COVER_EXPANSION
}

/// Round trips to the stegotorus server before the tunnel carries data:
/// TCP on the chopper's parallel connections, opened together (~1),
/// plus the chopper hello (1).
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
