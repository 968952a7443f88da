//! X25519 Diffie–Hellman (RFC 7748).
//!
//! Field arithmetic over GF(2²⁵⁵ − 19) with five 51-bit limbs and a
//! constant-time Montgomery ladder. Used by the obfs4 ntor-style handshake
//! in `ptperf-transports`. Verified against the RFC 7748 §5.2 and §6.1
//! test vectors.

const MASK: u64 = (1 << 51) - 1;

/// A field element in GF(2²⁵⁵ − 19), five 51-bit limbs, loosely reduced.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut v = 0u64;
            for (j, &b) in bytes[i..i + 8].iter().enumerate() {
                v |= (b as u64) << (8 * j);
            }
            v
        };
        // Unaligned 51-bit windows over the 255-bit little-endian integer.
        let l0 = load(0) & MASK;
        let l1 = (load(6) >> 3) & MASK;
        let l2 = (load(12) >> 6) & MASK;
        let l3 = (load(19) >> 1) & MASK;
        let l4 = (load(24) >> 12) & MASK; // top bit of byte 31 dropped, per RFC
        Fe([l0, l1, l2, l3, l4])
    }

    fn to_bytes(self) -> [u8; 32] {
        let mut h = self.0;
        // Two carry passes bring every limb below 2^52.
        for _ in 0..2 {
            let mut c = 0u64;
            for limb in h.iter_mut() {
                let v = *limb + c;
                *limb = v & MASK;
                c = v >> 51;
            }
            h[0] += 19 * c;
        }
        // Compute h mod p by conditionally subtracting p: q = floor((h+19)/2^255).
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        let mut c = 0u64;
        for limb in h.iter_mut() {
            let v = *limb + c;
            *limb = v & MASK;
            c = v >> 51;
        }
        // c (the 2^255 bit) is discarded: that is exactly the -p reduction.

        let mut out = [0u8; 32];
        let full: [u64; 4] = [
            h[0] | (h[1] << 51),
            (h[1] >> 13) | (h[2] << 38),
            (h[2] >> 26) | (h[3] << 25),
            (h[3] >> 39) | (h[4] << 12),
        ];
        for (i, word) in full.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn add(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    fn sub(self, rhs: Fe) -> Fe {
        // Add 2p (limb-wise: 2^52-38, then 2^52-2) before subtracting so
        // limbs never underflow.
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + 0xF_FFFF_FFFF_FFDA - b[0],
            a[1] + 0xF_FFFF_FFFF_FFFE - b[1],
            a[2] + 0xF_FFFF_FFFF_FFFE - b[2],
            a[3] + 0xF_FFFF_FFFF_FFFE - b[3],
            a[4] + 0xF_FFFF_FFFF_FFFE - b[4],
        ])
        .weak_reduce()
    }

    /// One carry pass keeping limbs in range for multiplication.
    fn weak_reduce(self) -> Fe {
        let mut h = self.0;
        let mut c = 0u64;
        for limb in h.iter_mut() {
            let v = *limb + c;
            *limb = v & MASK;
            c = v >> 51;
        }
        h[0] += 19 * c;
        Fe(h)
    }

    fn mul(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let r0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let mut r1 =
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let mut r2 =
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let mut r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let mut r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        // Carry chain.
        let mut out = [0u64; 5];
        let c0 = r0 >> 51;
        out[0] = (r0 as u64) & MASK;
        r1 += c0;
        let c1 = r1 >> 51;
        out[1] = (r1 as u64) & MASK;
        r2 += c1;
        let c2 = r2 >> 51;
        out[2] = (r2 as u64) & MASK;
        r3 += c2;
        let c3 = r3 >> 51;
        out[3] = (r3 as u64) & MASK;
        r4 += c3;
        let c4 = (r4 >> 51) as u64;
        out[4] = (r4 as u64) & MASK;
        out[0] += c4 * 19;
        let c5 = out[0] >> 51;
        out[0] &= MASK;
        out[1] += c5;
        Fe(out)
    }

    fn square(self) -> Fe {
        self.mul(self)
    }

    fn mul_small(self, k: u64) -> Fe {
        let mut r = [0u128; 5];
        for (ri, &limb) in r.iter_mut().zip(self.0.iter()) {
            *ri = limb as u128 * k as u128;
        }
        let mut out = [0u64; 5];
        let mut c = 0u128;
        for i in 0..5 {
            let v = r[i] + c;
            out[i] = (v as u64) & MASK;
            c = v >> 51;
        }
        out[0] += (c as u64) * 19;
        Fe(out).weak_reduce()
    }

    /// Inversion via Fermat: a^(p−2), using the standard addition chain.
    fn invert(self) -> Fe {
        let z2 = self.square(); // 2
        let z8 = z2.square().square(); // 8
        let z9 = self.mul(z8); // 9
        let z11 = z2.mul(z9); // 11
        let z22 = z11.square(); // 22
        let z_5_0 = z9.mul(z22); // 2^5 - 2^0
        let mut t = z_5_0;
        for _ in 0..5 {
            t = t.square();
        }
        let z_10_0 = t.mul(z_5_0); // 2^10 - 2^0
        t = z_10_0;
        for _ in 0..10 {
            t = t.square();
        }
        let z_20_0 = t.mul(z_10_0); // 2^20 - 2^0
        t = z_20_0;
        for _ in 0..20 {
            t = t.square();
        }
        let z_40_0 = t.mul(z_20_0); // 2^40 - 2^0
        t = z_40_0;
        for _ in 0..10 {
            t = t.square();
        }
        let z_50_0 = t.mul(z_10_0); // 2^50 - 2^0
        t = z_50_0;
        for _ in 0..50 {
            t = t.square();
        }
        let z_100_0 = t.mul(z_50_0); // 2^100 - 2^0
        t = z_100_0;
        for _ in 0..100 {
            t = t.square();
        }
        let z_200_0 = t.mul(z_100_0); // 2^200 - 2^0
        t = z_200_0;
        for _ in 0..50 {
            t = t.square();
        }
        let z_250_0 = t.mul(z_50_0); // 2^250 - 2^0
        t = z_250_0;
        for _ in 0..5 {
            t = t.square();
        }
        t.mul(z11) // 2^255 - 21 = p - 2
    }

    /// Constant-time conditional swap: exchanges `a` and `b` iff `swap` is 1.
    fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(swap == 0 || swap == 1);
        let mask = swap.wrapping_neg();
        for i in 0..5 {
            let x = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= x;
            b.0[i] ^= x;
        }
    }
}

/// Clamps a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: scalar multiplication on Curve25519's Montgomery
/// u-line. `scalar` is clamped internally.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2).weak_reduce();
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3).weak_reduce();
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).weak_reduce().square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)).weak_reduce());
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    x2.mul(z2.invert()).to_bytes()
}

/// The Curve25519 base point (u = 9).
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Derives the public key for a private scalar.
pub fn x25519_base(scalar: &[u8; 32]) -> [u8; 32] {
    x25519(scalar, &BASEPOINT)
}

/// A convenience keypair for handshake implementations.
#[derive(Clone)]
pub struct Keypair {
    /// The private scalar (clamped on use).
    pub private: [u8; 32],
    /// The public u-coordinate.
    pub public: [u8; 32],
}

impl Keypair {
    /// Builds a keypair from 32 bytes of secret randomness.
    pub fn from_secret(secret: [u8; 32]) -> Self {
        Keypair {
            private: secret,
            public: x25519_base(&secret),
        }
    }

    /// Computes the shared secret with a peer's public key.
    pub fn diffie_hellman(&self, peer_public: &[u8; 32]) -> [u8; 32] {
        x25519(&self.private, peer_public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn h32(s: &str) -> [u8; 32] {
        hex::decode(s).unwrap().try_into().unwrap()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = h32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = h32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(&scalar, &u);
        assert_eq!(
            hex::encode(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let scalar = h32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = h32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(&scalar, &u);
        assert_eq!(
            hex::encode(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §5.2 iterated test, 1 iteration.
    #[test]
    fn rfc7748_iterated_once() {
        let k = BASEPOINT;
        let u = BASEPOINT;
        let out = x25519(&k, &u);
        assert_eq!(
            hex::encode(&out),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    // RFC 7748 §5.2 iterated test, 1000 iterations.
    #[test]
    fn rfc7748_iterated_thousand() {
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        for _ in 0..1000 {
            let out = x25519(&k, &u);
            u = k;
            k = out;
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    // RFC 7748 §6.1 Diffie–Hellman.
    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_priv = h32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = h32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice = Keypair::from_secret(alice_priv);
        let bob = Keypair::from_secret(bob_priv);
        assert_eq!(
            hex::encode(&alice.public),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob.public),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let k_ab = alice.diffie_hellman(&bob.public);
        let k_ba = bob.diffie_hellman(&alice.public);
        assert_eq!(k_ab, k_ba);
        assert_eq!(
            hex::encode(&k_ab),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn clamping_is_applied() {
        let k = clamp_scalar([0xFF; 32]);
        assert_eq!(k[0] & 7, 0);
        assert_eq!(k[31] & 0x80, 0);
        assert_eq!(k[31] & 0x40, 0x40);
    }

    #[test]
    fn shared_secrets_agree_for_arbitrary_secrets() {
        // A light random-agreement check on top of the RFC vectors.
        for seed in 0..8u8 {
            let mut sa = [0u8; 32];
            let mut sb = [0u8; 32];
            for i in 0..32 {
                sa[i] = seed.wrapping_mul(31).wrapping_add(i as u8);
                sb[i] = seed.wrapping_mul(17).wrapping_add(101 + i as u8);
            }
            let a = Keypair::from_secret(sa);
            let b = Keypair::from_secret(sb);
            assert_eq!(a.diffie_hellman(&b.public), b.diffie_hellman(&a.public));
        }
    }

    #[test]
    fn field_round_trip() {
        let bytes = h32("0102030405060708091011121314151617181920212223242526272829303132");
        // Top bit is masked off in from_bytes; set a value below 2^255-19.
        let fe = Fe::from_bytes(&bytes);
        let mut expect = bytes;
        expect[31] &= 0x7f;
        assert_eq!(fe.to_bytes(), expect);
    }
}
