//! TCP-like transfer-time model.
//!
//! Full packet-level simulation of multi-hundred-megabyte downloads is far
//! too slow for a 1.25M-measurement reproduction, so data movement uses a
//! *flow-level* model, the standard technique for large-scale network
//! studies: a transfer's duration is derived from the path round-trip
//! time, the bottleneck rate available to the flow, the packet-loss
//! probability, and a slow-start ramp.
//!
//! Three mechanisms are modeled:
//!
//! 1. **Slow start.** Delivery begins at an initial window (IW10, per
//!    RFC 6928) and doubles every RTT until it reaches the
//!    bandwidth-delay product, after which the flow runs at the bottleneck
//!    rate. Small transfers (a page HTML) never leave slow start, which is
//!    why high-RTT transports hurt interactive fetches much more than
//!    their bandwidth alone would suggest.
//! 2. **Loss-bounded throughput.** Sustained TCP throughput cannot exceed
//!    the Mathis bound `MSS/RTT · C/√p`; on lossy paths the achievable
//!    rate is the smaller of the bottleneck rate and this ceiling.
//! 3. **Retransmission expansion.** Lost data must be resent, inflating
//!    the bytes on the wire by `1/(1-p)`.

use crate::time::SimDuration;

/// Maximum segment size used by the window model (typical Ethernet MSS).
pub const MSS: u64 = 1448;

/// Initial congestion window in bytes (IW10, RFC 6928).
pub const INIT_WINDOW: u64 = 10 * MSS;

/// The constant in the Mathis throughput bound (√(3/2) for Reno-style
/// AIMD with delayed ACKs folded in).
const MATHIS_C: f64 = 1.22;

/// Parameters of a single reliable transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Path round-trip time.
    pub rtt: SimDuration,
    /// Bottleneck rate available to this flow, in bytes per second.
    pub bottleneck_bps: f64,
    /// Packet-loss probability on the path.
    pub loss: f64,
    /// When true, loss is recovered hop-by-hop (each segment of the path
    /// runs its own short-RTT reliable connection, as Tor links do), so
    /// the end-to-end Mathis ceiling does not apply — loss only costs
    /// retransmitted bytes. When false (a single end-to-end TCP
    /// connection), the Mathis bound applies at the full path RTT.
    pub hop_by_hop_recovery: bool,
}

impl TransferModel {
    /// Creates an end-to-end TCP model, validating inputs.
    ///
    /// # Panics
    /// Panics if the bottleneck rate is non-positive or loss is outside
    /// `[0, 1)`.
    pub fn new(rtt: SimDuration, bottleneck_bps: f64, loss: f64) -> Self {
        assert!(
            bottleneck_bps > 0.0,
            "transfer bottleneck must be positive, got {bottleneck_bps}"
        );
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0,1), got {loss}"
        );
        TransferModel {
            rtt,
            bottleneck_bps,
            loss,
            hop_by_hop_recovery: false,
        }
    }

    /// Creates a model for a relayed path whose segments each run their
    /// own reliable connection (Tor circuits): loss is recovered locally
    /// at each hop, so only the retransmission expansion applies.
    pub fn relayed(rtt: SimDuration, bottleneck_bps: f64, loss: f64) -> Self {
        let mut m = TransferModel::new(rtt, bottleneck_bps, loss);
        m.hop_by_hop_recovery = true;
        m
    }

    /// The sustained rate the flow can achieve (bytes/s): the bottleneck
    /// rate, clipped by the Mathis loss ceiling for end-to-end
    /// connections.
    pub fn sustained_rate(&self) -> f64 {
        let rate = self.bottleneck_bps;
        if self.loss <= 0.0 || self.hop_by_hop_recovery {
            return rate;
        }
        let rtt_s = self.rtt.as_secs_f64().max(1e-6);
        let mathis = MATHIS_C * MSS as f64 / (rtt_s * self.loss.sqrt());
        rate.min(mathis)
    }

    /// Time to move `bytes` of application payload over the path, not
    /// counting any handshake (see [`TransferModel::handshake`]).
    ///
    /// Zero-byte transfers complete instantly.
    pub fn duration(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        // Retransmission expansion: lost bytes are resent.
        let wire_bytes = bytes as f64 / (1.0 - self.loss);
        let rate = self.sustained_rate();
        let rtt_s = self.rtt.as_secs_f64();

        // Slow-start phase: window w starts at INIT_WINDOW and doubles per
        // RTT until w/rtt reaches `rate`. Each slow-start round delivers w
        // bytes and costs one RTT.
        let bdp = rate * rtt_s; // window at which the pipe is full
        let mut delivered = 0.0f64;
        let mut window = INIT_WINDOW as f64;
        let mut elapsed = 0.0f64;
        while window < bdp {
            if delivered + window >= wire_bytes {
                // Transfer finishes inside this round; the round's duration
                // scales with the fraction of the window actually used.
                let frac = (wire_bytes - delivered) / window;
                elapsed += rtt_s * frac;
                return SimDuration::from_secs_f64(elapsed);
            }
            delivered += window;
            elapsed += rtt_s;
            window *= 2.0;
        }
        // Steady state: remaining bytes at the sustained rate, plus half an
        // RTT for the final ACK-clocked delivery.
        let remaining = (wire_bytes - delivered).max(0.0);
        elapsed += remaining / rate + rtt_s / 2.0;
        SimDuration::from_secs_f64(elapsed)
    }

    /// The extra time slow start costs this flow compared to an ideal
    /// fluid flow at the sustained rate (useful to pre-charge event-driven
    /// flows managed by the flow network).
    pub fn slow_start_excess(&self, bytes: u64) -> SimDuration {
        let actual = self.duration(bytes);
        let fluid =
            SimDuration::from_secs_f64(bytes as f64 / (1.0 - self.loss) / self.sustained_rate());
        actual.saturating_sub(fluid)
    }

    /// Duration of a `k`-round-trip handshake on this path (e.g. `1` for
    /// TCP, `2` for TCP+TLS1.3, `3` for TCP+TLS1.2).
    pub fn handshake(&self, round_trips: u32) -> SimDuration {
        self.rtt * round_trips as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(rtt_ms: u64, mbps: f64, loss: f64) -> TransferModel {
        TransferModel::new(SimDuration::from_millis(rtt_ms), mbps * 1e6 / 8.0, loss)
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(model(50, 10.0, 0.0).duration(0), SimDuration::ZERO);
    }

    #[test]
    fn tiny_transfer_costs_a_fraction_of_one_rtt() {
        // 1 KiB fits in the initial window: duration must be below one RTT.
        let d = model(100, 10.0, 0.0).duration(1024);
        assert!(d < SimDuration::from_millis(100), "got {d}");
        assert!(d > SimDuration::ZERO);
    }

    #[test]
    fn slow_start_rounds_double() {
        // 43_440 bytes = 3 * IW; rounds deliver IW, 2IW => finishes in round 2.
        let m = model(100, 1000.0, 0.0);
        let d = m.duration(3 * INIT_WINDOW);
        // One full round (1 RTT) + a full second round (2IW covers the rest exactly).
        assert!((d.as_secs_f64() - 0.2).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn large_transfer_approaches_fluid_rate() {
        let m = model(50, 80.0, 0.0); // 10 MB/s
        let d = m.duration(100_000_000);
        let fluid = 100_000_000.0 / 10_000_000.0;
        assert!(d.as_secs_f64() > fluid);
        assert!(d.as_secs_f64() < fluid * 1.1, "got {d}");
    }

    #[test]
    fn duration_is_monotone_in_bytes() {
        let m = model(80, 20.0, 0.001);
        let mut last = SimDuration::ZERO;
        for bytes in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            let d = m.duration(bytes);
            assert!(d >= last, "{bytes} bytes: {d} < {last}");
            last = d;
        }
    }

    #[test]
    fn higher_rtt_is_slower() {
        let fast = model(20, 10.0, 0.0).duration(500_000);
        let slow = model(200, 10.0, 0.0).duration(500_000);
        assert!(slow > fast);
    }

    #[test]
    fn loss_slows_transfers() {
        let clean = model(50, 10.0, 0.0).duration(5_000_000);
        let lossy = model(50, 10.0, 0.02).duration(5_000_000);
        assert!(lossy > clean);
    }

    #[test]
    fn mathis_bound_caps_rate_on_lossy_paths() {
        let m = model(100, 1000.0, 0.01);
        // Mathis: 1.22 * 1448 / (0.1 * 0.1) = ~176 KB/s, far below 125 MB/s.
        let rate = m.sustained_rate();
        assert!(rate < 200_000.0, "rate {rate}");
        assert!(rate > 150_000.0, "rate {rate}");
    }

    #[test]
    fn lossless_rate_is_bottleneck() {
        let m = model(100, 8.0, 0.0);
        assert!((m.sustained_rate() - 1e6).abs() < 1.0);
    }

    #[test]
    fn handshake_multiplies_rtt() {
        let m = model(70, 10.0, 0.0);
        assert_eq!(m.handshake(2), SimDuration::from_millis(140));
        assert_eq!(m.handshake(3), SimDuration::from_millis(210));
    }

    #[test]
    fn slow_start_excess_positive_for_big_flows() {
        let m = model(100, 100.0, 0.0);
        let excess = m.slow_start_excess(50_000_000);
        assert!(excess > SimDuration::ZERO);
        // Excess is bounded by the number of doubling rounds times RTT.
        assert!(excess < SimDuration::from_secs(3), "got {excess}");
    }

    #[test]
    #[should_panic(expected = "bottleneck must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = TransferModel::new(SimDuration::from_millis(1), 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn rejects_full_loss() {
        let _ = TransferModel::new(SimDuration::from_millis(1), 1.0, 1.0);
    }
}
