//! Exact fixed-point formatting without `core::fmt`'s float path.
//!
//! `format!("{x:.3}")` prints the exact binary value of `x` rounded to
//! three decimals, ties to even. [`Fixed`] prints the same bytes from
//! one 128-bit integer product, several times faster than the general
//! float formatter and without allocating, so the t-test tables and the
//! figures render their numbers through it.

use std::fmt;

/// `x` with `digits` decimals: `Fixed(x, d).to_string()` equals
/// `format!("{x:.d$}")` byte for byte.
///
/// Width, fill, alignment and the `+` and `0` flags apply as they do to
/// a float. The formatter's own precision is ignored: `digits` sets it.
/// NaN, ±∞, `|x| ≥ 2^97` and `digits > 9` go through `core::fmt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

/// `10^d` for every `digits` the integer path takes. With a 53-bit
/// significand `m`, `m · 10^9 < 2^83`.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// The smallest biased exponent the integer path refuses: below it
/// `|x| < 2^97`, so `m · 10^9 · 2^e < 2^127`.
const HUGE_EXP: u64 = 1023 + 97;

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Fixed(x, digits) = *self;
        if !x.is_finite() {
            // Precision does not show on NaN or ±∞.
            return fmt::Display::fmt(&x, f);
        }
        let nonnegative = !x.is_sign_negative();
        let bits = x.to_bits();
        let biased = (bits >> 52) & 0x7ff;
        if digits >= POW10.len() || biased >= HUGE_EXP {
            return f.pad_integral(nonnegative, "", &format!("{:.*}", digits, x.abs()));
        }
        // |x| = m · 2^e exactly.
        let frac = bits & ((1 << 52) - 1);
        let (m, e) = if biased == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, biased as i32 - 1075)
        };
        let scaled = u128::from(m) * u128::from(POW10[digits]);
        let n = if e >= 0 {
            scaled << e
        } else {
            round_shift(scaled, e.unsigned_abs())
        };
        let mut buf = [0u8; 48];
        let start = write_decimal(&mut buf, n, digits);
        let text = std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII");
        f.pad_integral(nonnegative, "", text)
    }
}

/// `v / 2^k` rounded half to even, for `v < 2^83` and `k ≥ 1`.
fn round_shift(v: u128, k: u32) -> u128 {
    if k >= 128 {
        // v / 2^k < 2^-45: rounds to zero, never a tie.
        return 0;
    }
    let q = v >> k;
    let rem = v & ((1 << k) - 1);
    let half = 1 << (k - 1);
    if rem > half || (rem == half && q & 1 == 1) {
        q + 1
    } else {
        q
    }
}

/// Writes `n / 10^digits` with exactly `digits` decimals at the end of
/// `buf`, and returns where the text starts.
fn write_decimal(buf: &mut [u8; 48], mut n: u128, digits: usize) -> usize {
    // n < 2^127 has at most 39 digits; the point and a leading zero fit
    // beside them.
    let mut at = buf.len();
    let mut written = 0;
    loop {
        if written == digits && digits > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        let digit;
        (n, digit) = match u64::try_from(n) {
            Ok(v) => (u128::from(v / 10), v % 10),
            Err(_) => (n / 10, (n % 10) as u64),
        };
        at -= 1;
        buf[at] = b'0' + digit as u8;
        written += 1;
        if written > digits && n == 0 {
            return at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a deterministic stream of test bit patterns.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `Fixed` against `format!` at digits 0–11 (9 is the last the
    /// integer path takes), plain and, under `flags`, with every width
    /// flag a call site uses and the others a float takes.
    fn assert_formats_like_core(x: f64, flags: bool) {
        for d in 0..=POW10.len() + 1 {
            let want = format!("{x:.d$}");
            let mut pairs = vec![(Fixed(x, d).to_string(), want.clone())];
            if flags {
                pairs.extend([
                    (format!("{:4}", Fixed(x, d)), format!("{x:4.d$}")),
                    (format!("{:<12}", Fixed(x, d)), format!("{x:<12.d$}")),
                    (format!("{:^13}", Fixed(x, d)), format!("{x:^13.d$}")),
                    (format!("{:*>12}", Fixed(x, d)), format!("{x:*>12.d$}")),
                    (format!("{:012}", Fixed(x, d)), format!("{x:012.d$}")),
                    (format!("{:+}", Fixed(x, d)), format!("{x:+.d$}")),
                    (format!("{:+012}", Fixed(x, d)), format!("{x:+012.d$}")),
                    (format!("{:.1}", Fixed(x, d)), want),
                ]);
            }
            for (got, want) in pairs {
                assert_eq!(got, want, "{x:e} ({:#x}) at {d}", x.to_bits());
            }
        }
    }

    #[test]
    fn random_bit_patterns_format_like_core() {
        let mut bits = Bits(1);
        for i in 0..3_000 {
            assert_formats_like_core(f64::from_bits(bits.next()), i % 16 == 0);
        }
    }

    #[test]
    fn random_values_in_the_integer_range_format_like_core() {
        // Exponents the integer path takes, near and far from the digits.
        let mut bits = Bits(2);
        for i in 0..6_000 {
            let b = bits.next();
            let biased = 900 + (b >> 52) % (HUGE_EXP + 4 - 900);
            let x = f64::from_bits(b & !(0x7ff << 52) | biased << 52);
            assert_formats_like_core(x, i % 16 == 0);
        }
    }

    #[test]
    fn random_dyadic_values_format_like_core() {
        // k / 2^j: short binary fractions, many of them exact decimal
        // ties at some digit count.
        let mut bits = Bits(3);
        for i in 0..6_000 {
            let b = bits.next();
            let k = (b >> 11) % (1 << (b % 54));
            let x = k as f64 / (1u64 << ((b >> 6) % 40)) as f64;
            assert_formats_like_core(if b & 32 == 0 { x } else { -x }, i % 16 == 0);
        }
    }

    #[test]
    fn decimal_ties_format_like_core() {
        // (2k + 1) / (2 · 10^d): halfway between two d-digit decimals,
        // exactly where the binary value allows it, else beside it.
        let mut bits = Bits(4);
        for pow in POW10 {
            for k in (0..200).chain((0..200).map(|_| bits.next() % 1_000_000_000)) {
                let x = (2 * k + 1) as f64 / (2 * pow) as f64;
                assert_formats_like_core(x, k % 8 == 0);
                assert_formats_like_core(-x, k % 8 == 1);
            }
        }
        for x in [0.5, 1.5, 2.5, 0.25, 0.125, 0.375, 2.675, 1e-3, 5e-4] {
            assert_formats_like_core(x, true);
            assert_formats_like_core(-x, true);
        }
    }

    #[test]
    fn zeros_subnormals_and_specials_format_like_core() {
        let mut bits = Bits(5);
        let subnormals = (0..500).map(|_| f64::from_bits(bits.next() & ((1 << 52) - 1)));
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            2f64.powi(97),
            2f64.powi(97) - 2f64.powi(44),
            -(2f64.powi(97) - 2f64.powi(44)),
            u64::MAX as f64,
            -1e-12,
            -0.0004,
        ];
        for x in subnormals.chain(edges) {
            assert_formats_like_core(x, true);
            assert_formats_like_core(-x, true);
        }
    }
}
