//! Tor cell framing (link protocol v4 fixed-size cells).
//!
//! Real byte-level encode/decode of the 514-byte cell and the RELAY cell
//! payload. The performance model uses [`relay_payload_overhead`] derived
//! from this framing rather than a hard-coded factor, so the overhead the
//! experiments see is the overhead the codec actually produces.

/// Total size of a fixed-length cell: 4-byte circuit id, 1-byte command,
/// 509-byte payload (link protocol ≥ 4).
pub const CELL_LEN: usize = 514;

/// Payload bytes in a fixed-length cell.
pub const CELL_PAYLOAD_LEN: usize = 509;

/// RELAY cell header inside the payload: command(1) + recognized(2) +
/// stream id(2) + digest(4) + length(2).
pub const RELAY_HEADER_LEN: usize = 11;

/// Application bytes a single RELAY_DATA cell can carry.
pub const RELAY_DATA_LEN: usize = CELL_PAYLOAD_LEN - RELAY_HEADER_LEN;

/// Cell commands (subset relevant to circuit construction and streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CellCommand {
    /// Padding / keepalive.
    Padding = 0,
    /// Circuit create (ntor).
    Create2 = 10,
    /// Circuit created reply.
    Created2 = 11,
    /// Relay cell (onion-encrypted payload).
    Relay = 3,
    /// Circuit teardown.
    Destroy = 4,
    /// Relay cell variant not counted against flow control.
    RelayEarly = 9,
}

impl CellCommand {
    fn from_u8(v: u8) -> Option<CellCommand> {
        Some(match v {
            0 => CellCommand::Padding,
            3 => CellCommand::Relay,
            4 => CellCommand::Destroy,
            9 => CellCommand::RelayEarly,
            10 => CellCommand::Create2,
            11 => CellCommand::Created2,
            _ => return None,
        })
    }
}

/// Relay sub-commands (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RelayCommand {
    /// Open a stream to a destination.
    Begin = 1,
    /// Stream data.
    Data = 2,
    /// Close a stream.
    End = 3,
    /// Stream open confirmation.
    Connected = 4,
    /// Flow control.
    Sendme = 5,
    /// Extend the circuit by one hop.
    Extend2 = 14,
    /// Extension confirmation.
    Extended2 = 15,
}

impl RelayCommand {
    fn from_u8(v: u8) -> Option<RelayCommand> {
        Some(match v {
            1 => RelayCommand::Begin,
            2 => RelayCommand::Data,
            3 => RelayCommand::End,
            4 => RelayCommand::Connected,
            5 => RelayCommand::Sendme,
            14 => RelayCommand::Extend2,
            15 => RelayCommand::Extended2,
            _ => return None,
        })
    }
}

/// Cell codec error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellError {
    /// The input was not exactly [`CELL_LEN`] bytes.
    BadLength(usize),
    /// Unknown cell command byte.
    UnknownCommand(u8),
    /// Unknown relay sub-command byte.
    UnknownRelayCommand(u8),
    /// The declared relay payload length exceeds [`RELAY_DATA_LEN`].
    BadRelayLength(u16),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::BadLength(n) => write!(f, "cell must be {CELL_LEN} bytes, got {n}"),
            CellError::UnknownCommand(c) => write!(f, "unknown cell command {c}"),
            CellError::UnknownRelayCommand(c) => write!(f, "unknown relay command {c}"),
            CellError::BadRelayLength(n) => write!(f, "relay payload length {n} too large"),
        }
    }
}

impl std::error::Error for CellError {}

/// A fixed-size link cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Circuit identifier.
    pub circ_id: u32,
    /// Cell command.
    pub command: CellCommand,
    /// Raw 509-byte payload (zero-padded).
    pub payload: [u8; CELL_PAYLOAD_LEN],
}

impl Cell {
    /// Builds a cell, copying `payload` and zero-padding the rest.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`CELL_PAYLOAD_LEN`].
    pub fn new(circ_id: u32, command: CellCommand, payload: &[u8]) -> Cell {
        assert!(
            payload.len() <= CELL_PAYLOAD_LEN,
            "payload {} exceeds cell payload {CELL_PAYLOAD_LEN}",
            payload.len()
        );
        let mut p = [0u8; CELL_PAYLOAD_LEN];
        p[..payload.len()].copy_from_slice(payload);
        Cell {
            circ_id,
            command,
            payload: p,
        }
    }

    /// Serializes to exactly [`CELL_LEN`] bytes.
    pub fn encode(&self) -> [u8; CELL_LEN] {
        let mut out = [0u8; CELL_LEN];
        out[..4].copy_from_slice(&self.circ_id.to_be_bytes());
        out[4] = self.command as u8;
        out[5..].copy_from_slice(&self.payload);
        out
    }

    /// Parses from exactly [`CELL_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<Cell, CellError> {
        if bytes.len() != CELL_LEN {
            return Err(CellError::BadLength(bytes.len()));
        }
        let circ_id = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let command = CellCommand::from_u8(bytes[4]).ok_or(CellError::UnknownCommand(bytes[4]))?;
        let mut payload = [0u8; CELL_PAYLOAD_LEN];
        payload.copy_from_slice(&bytes[5..]);
        Ok(Cell {
            circ_id,
            command,
            payload,
        })
    }
}

/// The plaintext relay-cell payload (what sits inside the onion layers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayCell {
    /// Relay sub-command.
    pub command: RelayCommand,
    /// Stream identifier (0 for circuit-level commands).
    pub stream_id: u16,
    /// Running digest placeholder (4 bytes; the simulator fills it with a
    /// truncated SHA-256 over the payload in [`RelayCell::encode`]).
    pub digest: [u8; 4],
    /// Application data (≤ [`RELAY_DATA_LEN`]).
    pub data: Vec<u8>,
}

impl RelayCell {
    /// Builds a relay cell with a computed digest.
    ///
    /// # Panics
    /// Panics if `data` exceeds [`RELAY_DATA_LEN`].
    pub fn new(command: RelayCommand, stream_id: u16, data: Vec<u8>) -> RelayCell {
        assert!(
            data.len() <= RELAY_DATA_LEN,
            "relay data {} exceeds {RELAY_DATA_LEN}",
            data.len()
        );
        let digest_full = ptperf_crypto::sha256(&data);
        RelayCell {
            command,
            stream_id,
            digest: [
                digest_full[0],
                digest_full[1],
                digest_full[2],
                digest_full[3],
            ],
            data,
        }
    }

    /// Serializes into a 509-byte cell payload (zero-padded).
    pub fn encode(&self) -> [u8; CELL_PAYLOAD_LEN] {
        let mut out = [0u8; CELL_PAYLOAD_LEN];
        out[0] = self.command as u8;
        // bytes 1..3: "recognized" = 0 in plaintext.
        out[3..5].copy_from_slice(&self.stream_id.to_be_bytes());
        out[5..9].copy_from_slice(&self.digest);
        out[9..11].copy_from_slice(&(self.data.len() as u16).to_be_bytes());
        out[11..11 + self.data.len()].copy_from_slice(&self.data);
        out
    }

    /// Parses a 509-byte cell payload.
    pub fn decode(payload: &[u8; CELL_PAYLOAD_LEN]) -> Result<RelayCell, CellError> {
        let command =
            RelayCommand::from_u8(payload[0]).ok_or(CellError::UnknownRelayCommand(payload[0]))?;
        let stream_id = u16::from_be_bytes([payload[3], payload[4]]);
        let mut digest = [0u8; 4];
        digest.copy_from_slice(&payload[5..9]);
        let len = u16::from_be_bytes([payload[9], payload[10]]);
        if len as usize > RELAY_DATA_LEN {
            return Err(CellError::BadRelayLength(len));
        }
        let data = payload[11..11 + len as usize].to_vec();
        Ok(RelayCell {
            command,
            stream_id,
            digest,
            data,
        })
    }

    /// Verifies the digest against the carried data.
    pub fn digest_ok(&self) -> bool {
        let d = ptperf_crypto::sha256(&self.data);
        ptperf_crypto::ct_eq(&self.digest, &d[..4])
    }
}

/// Multiplicative overhead of Tor cell framing for large transfers
/// (≈ 1.033).
pub fn relay_payload_overhead() -> f64 {
    CELL_LEN as f64 / RELAY_DATA_LEN as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_round_trip() {
        let cell = Cell::new(0xDEADBEEF, CellCommand::Relay, b"hello tor");
        let bytes = cell.encode();
        assert_eq!(bytes.len(), CELL_LEN);
        let back = Cell::decode(&bytes).unwrap();
        assert_eq!(back, cell);
    }

    #[test]
    fn cell_rejects_wrong_length() {
        assert_eq!(Cell::decode(&[0u8; 10]), Err(CellError::BadLength(10)));
    }

    #[test]
    fn cell_rejects_unknown_command() {
        let mut bytes = Cell::new(1, CellCommand::Padding, b"").encode();
        bytes[4] = 200;
        assert_eq!(Cell::decode(&bytes), Err(CellError::UnknownCommand(200)));
    }

    #[test]
    fn relay_cell_round_trip() {
        let rc = RelayCell::new(RelayCommand::Data, 7, b"stream payload".to_vec());
        let payload = rc.encode();
        let back = RelayCell::decode(&payload).unwrap();
        assert_eq!(back, rc);
        assert!(back.digest_ok());
    }

    #[test]
    fn relay_cell_max_payload() {
        let data = vec![0xAB; RELAY_DATA_LEN];
        let rc = RelayCell::new(RelayCommand::Data, 1, data.clone());
        let back = RelayCell::decode(&rc.encode()).unwrap();
        assert_eq!(back.data, data);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn relay_cell_rejects_oversized_payload() {
        let _ = RelayCell::new(RelayCommand::Data, 1, vec![0; RELAY_DATA_LEN + 1]);
    }

    #[test]
    fn relay_cell_detects_corruption() {
        let rc = RelayCell::new(RelayCommand::Data, 7, b"payload".to_vec());
        let mut payload = rc.encode();
        payload[12] ^= 0xFF; // flip a data byte
        let back = RelayCell::decode(&payload).unwrap();
        assert!(!back.digest_ok());
    }

    #[test]
    fn relay_cell_rejects_bad_length_field() {
        let rc = RelayCell::new(RelayCommand::Data, 7, b"x".to_vec());
        let mut payload = rc.encode();
        payload[9..11].copy_from_slice(&1000u16.to_be_bytes());
        assert_eq!(
            RelayCell::decode(&payload),
            Err(CellError::BadRelayLength(1000))
        );
    }

    #[test]
    fn overhead_close_to_three_percent() {
        let oh = relay_payload_overhead();
        assert!(oh > 1.02 && oh < 1.05, "{oh}");
    }
}
