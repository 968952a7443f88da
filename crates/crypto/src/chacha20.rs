//! ChaCha20 stream cipher (RFC 8439).
//!
//! Used by the transport wire codecs for content obfuscation (shadowsocks,
//! obfs4-style frames). Verified against the RFC 8439 §2.3.2/§2.4.2 test
//! vectors.

/// Key size in bytes.
pub const KEY_LEN: usize = 32;

/// Nonce size in bytes.
pub const NONCE_LEN: usize = 12;

/// One 64-byte keystream block.
const BLOCK_LEN: usize = 64;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn chacha20_block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    let initial = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the ChaCha20 keystream for
/// `(key, nonce, initial_counter)`. Encryption and decryption are the same
/// operation.
pub fn chacha20_xor(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    let mut counter = initial_counter;
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let ks = chacha20_block(key, counter, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// A streaming ChaCha20 cipher that keeps its keystream position across
/// calls, so a connection can encrypt successive records without
/// re-deriving nonces.
///
/// `Clone` duplicates the keystream position — used by codecs that need
/// to peek-decrypt a header without committing the stream.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    counter: u32,
    leftover: [u8; BLOCK_LEN],
    leftover_pos: usize,
}

impl ChaCha20 {
    /// Creates a stream starting at block counter `initial_counter`.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], initial_counter: u32) -> Self {
        ChaCha20 {
            key: *key,
            nonce: *nonce,
            counter: initial_counter,
            leftover: [0; BLOCK_LEN],
            leftover_pos: BLOCK_LEN,
        }
    }

    /// XORs `data` in place with the next keystream bytes.
    pub fn apply(&mut self, data: &mut [u8]) {
        for b in data.iter_mut() {
            if self.leftover_pos == BLOCK_LEN {
                self.leftover = chacha20_block(&self.key, self.counter, &self.nonce);
                self.counter = self.counter.wrapping_add(1);
                self.leftover_pos = 0;
            }
            *b ^= self.leftover[self.leftover_pos];
            self.leftover_pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn rfc_key() -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    // RFC 8439 §2.3.2: block function test vector.
    #[test]
    fn rfc8439_block() {
        let key = rfc_key();
        let nonce = hex::decode("000000090000004a00000000").unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            hex::encode(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2: full encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key = rfc_key();
        let nonce = hex::decode("000000000000004a00000000").unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        chacha20_xor(&key, &nonce, 1, &mut data);
        assert_eq!(
            hex::encode(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn xor_round_trips() {
        let key = rfc_key();
        let nonce = [7u8; NONCE_LEN];
        let original: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = original.clone();
        chacha20_xor(&key, &nonce, 0, &mut data);
        assert_ne!(data, original);
        chacha20_xor(&key, &nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = rfc_key();
        let nonce = [3u8; NONCE_LEN];
        let mut oneshot = vec![0u8; 500];
        chacha20_xor(&key, &nonce, 0, &mut oneshot);

        let mut streaming = vec![0u8; 500];
        let mut cipher = ChaCha20::new(&key, &nonce, 0);
        for chunk in streaming.chunks_mut(17) {
            cipher.apply(chunk);
        }
        assert_eq!(streaming, oneshot);
    }

    #[test]
    fn different_counters_give_different_streams() {
        let key = rfc_key();
        let nonce = [1u8; NONCE_LEN];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        chacha20_xor(&key, &nonce, 0, &mut a);
        chacha20_xor(&key, &nonce, 1, &mut b);
        assert_ne!(a, b);
    }
}
