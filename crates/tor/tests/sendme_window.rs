//! Cell-level check of the closed-form window cap.
//!
//! The transfer model times a Tor stream at `min(bottleneck, window/RTT)`
//! ([`window_capped_rate`]). These tests earn that formula: they replay
//! the protocol one cell at a time — the exit sends RELAY_DATA cells
//! through the bottleneck while its package window is open, the client
//! answers every [`SENDME_INCREMENT`] cells with a SENDME that takes half
//! an RTT to return, and the window closes and reopens — and compare the
//! completion time with the formula in both regimes (bandwidth-bound and
//! window-bound).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ptperf_sim::SimDuration;
use ptperf_tor::cell::RELAY_DATA_LEN;
use ptperf_tor::circuit::CIRC_WINDOW_CELLS;
use ptperf_tor::window_capped_rate;

/// Cells acknowledged per SENDME (Tor's circuit-level increment).
const SENDME_INCREMENT: u32 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A cell finished transmitting at the bottleneck.
    CellService,
    /// A cell reached the client; `last` marks the transfer's final cell.
    CellArrival { last: bool },
    /// A SENDME reached the exit, reopening the window.
    SendmeReturn,
}

/// One stream replayed cell by cell: the exit's send side (one cell in
/// service at a time) and the pending events, which fire in
/// `(at_ns, seq)` order so that ties keep their scheduling order.
struct Stream {
    queue: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    cells_left: u64,
    window: u32,
    busy: bool,
    cell_ns: u64,
}

impl Stream {
    fn schedule(&mut self, at_ns: u64, ev: Ev) {
        self.queue.push(Reverse((at_ns, self.seq, ev)));
        self.seq += 1;
    }

    /// Starts the next cell if the bottleneck is idle and the window open.
    fn try_send(&mut self, now: u64) {
        if !self.busy && self.cells_left > 0 && self.window > 0 {
            self.busy = true;
            self.window -= 1;
            self.cells_left -= 1;
            self.schedule(now + self.cell_ns, Ev::CellService);
        }
    }
}

/// Simulates the transfer and returns the instant, in seconds, at which
/// the last cell reaches the client.
fn simulate(bytes: u64, rtt: SimDuration, bottleneck_bps: f64, window_cells: u32) -> f64 {
    let half_rtt = rtt.as_nanos() / 2;
    let mut s = Stream {
        queue: BinaryHeap::new(),
        seq: 0,
        cells_left: bytes.div_ceil(RELAY_DATA_LEN as u64).max(1),
        window: window_cells,
        busy: false,
        cell_ns: SimDuration::from_secs_f64(RELAY_DATA_LEN as f64 / bottleneck_bps).as_nanos(),
    };
    let mut unacked = 0;
    s.try_send(0);
    while let Some(Reverse((now, _, ev))) = s.queue.pop() {
        match ev {
            Ev::CellService => {
                s.busy = false;
                s.schedule(
                    now + half_rtt,
                    Ev::CellArrival {
                        last: s.cells_left == 0,
                    },
                );
                s.try_send(now);
            }
            Ev::CellArrival { last: true } => return SimDuration::from_nanos(now).as_secs_f64(),
            Ev::CellArrival { last: false } => {
                unacked += 1;
                if unacked == SENDME_INCREMENT {
                    unacked = 0;
                    s.schedule(now + half_rtt, Ev::SendmeReturn);
                }
            }
            Ev::SendmeReturn => {
                s.window += SENDME_INCREMENT;
                s.try_send(now);
            }
        }
    }
    unreachable!("SENDMEs always reopen the window, so the last cell arrives")
}

/// The closed form: fluid time at the window-capped rate plus half an
/// RTT for the final cell's propagation.
fn predicted(bytes: u64, rtt: SimDuration, bottleneck_bps: f64) -> f64 {
    bytes as f64 / window_capped_rate(bottleneck_bps, rtt) + rtt.as_secs_f64() / 2.0
}

#[test]
fn bandwidth_bound_regime_matches_formula() {
    // Window 1000 cells / 100 ms ≈ 5 MB/s, far above a 200 kB/s
    // bottleneck: the bottleneck governs.
    let (rtt, rate) = (SimDuration::from_millis(100), 200_000.0);
    assert_eq!(window_capped_rate(rate, rtt), rate);
    let actual = simulate(2_000_000, rtt, rate, CIRC_WINDOW_CELLS);
    let expected = predicted(2_000_000, rtt, rate);
    let err = (actual - expected).abs() / expected;
    assert!(err < 0.05, "actual {actual:.2} vs predicted {expected:.2}");
}

#[test]
fn window_bound_regime_matches_formula_and_throttles() {
    // Window 1000 × 498 B per 600 ms ≈ 830 kB/s, far below a 20 MB/s
    // bottleneck: the SENDME window governs.
    let (rtt, rate) = (SimDuration::from_millis(600), 20.0e6);
    assert!(window_capped_rate(rate, rtt) < rate);
    let actual = simulate(3_000_000, rtt, rate, CIRC_WINDOW_CELLS);
    let expected = predicted(3_000_000, rtt, rate);
    let err = (actual - expected).abs() / expected;
    assert!(err < 0.10, "actual {actual:.2} vs predicted {expected:.2}");
    let raw = 3_000_000.0 / rate;
    assert!(
        actual > raw * 3.0,
        "window must throttle: {actual:.2} vs raw {raw:.2}"
    );
}

#[test]
fn tiny_transfer_takes_about_half_an_rtt_plus_service() {
    let actual = simulate(400, SimDuration::from_millis(100), 1.0e6, CIRC_WINDOW_CELLS);
    assert!(actual > 0.05 && actual < 0.06, "{actual}");
}

#[test]
fn smaller_window_is_slower_when_window_binds() {
    let rtt = SimDuration::from_millis(400);
    let small = simulate(2_000_000, rtt, 10.0e6, 200);
    let big = simulate(2_000_000, rtt, 10.0e6, CIRC_WINDOW_CELLS);
    assert!(
        small > big * 2.0,
        "window 200: {small:.2}s vs window 1000: {big:.2}s"
    );
}
