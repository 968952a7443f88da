//! Constant-time comparison.
//!
//! Transport handshakes compare MACs and auth tags; doing that with `==`
//! would leak the first-differing-byte position through timing. [`ct_eq`]
//! accumulates differences without early exit.

/// Constant-time equality of two byte slices.
///
/// Returns `false` immediately (and safely — length is public) when the
/// lengths differ; otherwise examines every byte.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"same bytes", b"same bytes"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn different_slices() {
        assert!(!ct_eq(b"aaaa", b"aaab"));
        assert!(!ct_eq(b"baaa", b"aaaa"));
    }

    #[test]
    fn different_lengths() {
        assert!(!ct_eq(b"abc", b"abcd"));
    }
}
