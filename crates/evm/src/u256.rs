//! 256-bit EVM words.
//!
//! A minimal, dependency-free implementation of the EVM's word type: wrapping
//! arithmetic modulo 2^256, unsigned and two's-complement signed operations,
//! bitwise logic and shifts — everything the [`crate::interp`] interpreter
//! needs.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer, stored as four little-endian 64-bit limbs.
///
/// All arithmetic wraps modulo 2^256, matching EVM semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum value, 2^256 - 1.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Builds a word from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Builds a word from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Interprets up to 32 big-endian bytes as a word (shorter inputs are
    /// left-padded with zeros, as the EVM does for `PUSH` immediates).
    ///
    /// # Panics
    /// Panics if `bytes.len() > 32`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "U256 takes at most 32 bytes");
        if bytes.len() <= 8 {
            return U256::from_u64(bytes.iter().fold(0, |v, &b| v << 8 | u64::from(b)));
        }
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        let limb = |i: usize| {
            let off = 24 - 8 * i;
            u64::from_be_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
        };
        U256([limb(0), limb(1), limb(2), limb(3)])
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            let off = 32 - 8 * (i + 1);
            out[off..off + 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// The low 64 bits.
    pub fn low_u64(self) -> u64 {
        self.0[0]
    }

    /// The low 128 bits.
    pub fn low_u128(self) -> u128 {
        u128::from(self.0[0]) | (u128::from(self.0[1]) << 64)
    }

    /// `true` iff the value is zero.
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Converts to `usize` if it fits, else `None`.
    pub fn to_usize(self) -> Option<usize> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            usize::try_from(self.0[0]).ok()
        } else {
            None
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Whether the top (sign) bit is set, for signed interpretations.
    pub fn is_negative_signed(self) -> bool {
        self.0[3] >> 63 == 1
    }

    /// Wrapping addition modulo 2^256.
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            *limb = s2;
            carry = c1 | c2;
        }
        U256(out)
    }

    /// Wrapping subtraction modulo 2^256.
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *limb = d2;
            borrow = b1 | b2;
        }
        U256(out)
    }

    /// Wrapping multiplication modulo 2^256.
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        let mut out = [0u64; 4];
        for i in 0..4 {
            if self.0[i] == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..4 - i {
                let idx = i + j;
                let prod =
                    u128::from(self.0[i]) * u128::from(rhs.0[j]) + u128::from(out[idx]) + carry;
                out[idx] = prod as u64;
                carry = prod >> 64;
            }
        }
        U256(out)
    }

    /// Wrapping two's-complement negation.
    pub fn wrapping_neg(self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    /// Unsigned division; the EVM defines `x / 0 = 0`.
    #[allow(clippy::should_implement_trait)] // EVM semantics, not std ops
    pub fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }

    /// Unsigned remainder; the EVM defines `x % 0 = 0`.
    #[allow(clippy::should_implement_trait)] // EVM semantics, not std ops
    pub fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }

    /// Simultaneous unsigned quotient and remainder (`(0, 0)` for a zero
    /// divisor, matching EVM semantics).
    pub fn div_rem(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < rhs {
            return (U256::ZERO, self);
        }
        if rhs.bits() <= 64 && self.bits() <= 128 {
            let a = self.low_u128();
            let b = u128::from(rhs.low_u64());
            return (U256::from_u128(a / b), U256::from_u128(a % b));
        }
        // Bitwise long division.
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        let n = self.bits();
        for i in (0..n).rev() {
            remainder = remainder.shl(1);
            if self.bit(i) {
                remainder.0[0] |= 1;
            }
            if remainder >= rhs {
                remainder = remainder.wrapping_sub(rhs);
                quotient = quotient.set_bit(i);
            }
        }
        (quotient, remainder)
    }

    /// Signed division with EVM semantics (`SDIV`): truncation toward zero,
    /// `x / 0 = 0`, and `MIN / -1 = MIN`.
    pub fn sdiv(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let (an, a) = self.abs_signed();
        let (bn, b) = rhs.abs_signed();
        let q = a.div(b);
        if an ^ bn {
            q.wrapping_neg()
        } else {
            q
        }
    }

    /// Signed remainder with EVM semantics (`SMOD`): the result takes the
    /// sign of the dividend, `x % 0 = 0`.
    pub fn smod(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let (an, a) = self.abs_signed();
        let (_, b) = rhs.abs_signed();
        let r = a.rem(b);
        if an {
            r.wrapping_neg()
        } else {
            r
        }
    }

    fn abs_signed(self) -> (bool, U256) {
        if self.is_negative_signed() {
            (true, self.wrapping_neg())
        } else {
            (false, self)
        }
    }

    /// `(a + b) % m` without intermediate overflow; `m = 0` yields 0.
    pub fn addmod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        // Reduce first, then handle the single potential overflow bit.
        let a = self.rem(m);
        let b = rhs.rem(m);
        let sum = a.wrapping_add(b);
        // Overflowed iff the wrapped sum is smaller than an addend.
        if sum < a {
            // sum_real = sum + 2^256; subtracting m once is enough because
            // a, b < m <= 2^256, so sum_real < 2m... not necessarily < 2^256+m.
            // Compute (2^256 - m) + sum = sum_real - m, both mod-2^256 safe.
            let wrapped = sum.wrapping_add(U256::ZERO.wrapping_sub(m));
            wrapped.rem(m)
        } else {
            sum.rem(m)
        }
    }

    /// `(a * b) % m` without intermediate overflow; `m = 0` yields 0.
    pub fn mulmod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        // Russian-peasant multiplication with modular reduction at each step.
        let mut result = U256::ZERO;
        let mut a = self.rem(m);
        let mut b = rhs;
        while !b.is_zero() {
            if b.0[0] & 1 == 1 {
                result = result.addmod(a, m);
            }
            a = a.addmod(a, m);
            b = b.shr(1);
        }
        result
    }

    /// Exponentiation modulo 2^256 (`EXP`).
    pub fn pow(self, mut exp: U256) -> U256 {
        let mut base = self;
        let mut acc = U256::ONE;
        while !exp.is_zero() {
            if exp.0[0] & 1 == 1 {
                acc = acc.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            exp = exp.shr(1);
        }
        acc
    }

    /// `SIGNEXTEND`: extends the sign of the value in the lowest
    /// `byte_index + 1` bytes across the full word.
    pub fn signextend(self, byte_index: U256) -> U256 {
        match byte_index.to_usize() {
            Some(i) if i < 31 => {
                let bit = 8 * i + 7;
                if self.bit(bit as u32) {
                    // Set all bits above `bit`.
                    let mask = U256::MAX.shl((bit + 1) as u32);
                    U256([
                        self.0[0] | mask.0[0],
                        self.0[1] | mask.0[1],
                        self.0[2] | mask.0[2],
                        self.0[3] | mask.0[3],
                    ])
                } else {
                    let mask = U256::MAX.shr((256 - bit - 1) as u32);
                    U256([
                        self.0[0] & mask.0[0],
                        self.0[1] & mask.0[1],
                        self.0[2] & mask.0[2],
                        self.0[3] & mask.0[3],
                    ])
                }
            }
            _ => self,
        }
    }

    /// `BYTE`: the `i`-th byte of the word counting from the most significant
    /// (index 0), or zero if out of range.
    pub fn byte(self, index: U256) -> U256 {
        match index.to_usize() {
            Some(i) if i < 32 => U256::from_u64(u64::from(self.to_be_bytes()[i])),
            _ => U256::ZERO,
        }
    }

    fn bit(self, i: u32) -> bool {
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    fn set_bit(mut self, i: u32) -> U256 {
        self.0[(i / 64) as usize] |= 1 << (i % 64);
        self
    }

    /// Left shift; shifts of 256 or more yield zero.
    #[allow(clippy::should_implement_trait)] // EVM semantics, not std ops
    pub fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Logical right shift; shifts of 256 or more yield zero.
    #[allow(clippy::should_implement_trait)] // EVM semantics, not std ops
    pub fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, limb) in out.iter_mut().enumerate().take(4 - limb_shift) {
            *limb = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                *limb |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Arithmetic right shift (`SAR`), preserving the sign bit.
    pub fn sar(self, shift: u32) -> U256 {
        let neg = self.is_negative_signed();
        if shift >= 256 {
            return if neg { U256::MAX } else { U256::ZERO };
        }
        let logical = self.shr(shift);
        if neg && shift > 0 {
            let fill = U256::MAX.shl(256 - shift);
            U256([
                logical.0[0] | fill.0[0],
                logical.0[1] | fill.0[1],
                logical.0[2] | fill.0[2],
                logical.0[3] | fill.0[3],
            ])
        } else {
            logical
        }
    }

    /// Signed less-than comparison (`SLT`).
    pub fn slt(self, rhs: U256) -> bool {
        match (self.is_negative_signed(), rhs.is_negative_signed()) {
            (true, false) => true,
            (false, true) => false,
            _ => self < rhs,
        }
    }

    /// Signed greater-than comparison (`SGT`).
    pub fn sgt(self, rhs: U256) -> bool {
        rhs.slt(self)
    }

    /// Bitwise AND.
    pub fn and(self, r: U256) -> U256 {
        U256([
            self.0[0] & r.0[0],
            self.0[1] & r.0[1],
            self.0[2] & r.0[2],
            self.0[3] & r.0[3],
        ])
    }

    /// Bitwise OR.
    pub fn or(self, r: U256) -> U256 {
        U256([
            self.0[0] | r.0[0],
            self.0[1] | r.0[1],
            self.0[2] | r.0[2],
            self.0[3] | r.0[3],
        ])
    }

    /// Bitwise XOR.
    pub fn xor(self, r: U256) -> U256 {
        U256([
            self.0[0] ^ r.0[0],
            self.0[1] ^ r.0[1],
            self.0[2] ^ r.0[2],
            self.0[3] ^ r.0[3],
        ])
    }

    /// Bitwise NOT.
    #[allow(clippy::should_implement_trait)] // EVM semantics, not std ops
    pub fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{self:x})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{self:x}")
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for i in (0..4).rev() {
            if started {
                write!(f, "{:016x}", self.0[i])?;
            } else if self.0[i] != 0 || i == 0 {
                write!(f, "{:x}", self.0[i])?;
                started = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w(v: u128) -> U256 {
        U256::from_u128(v)
    }

    #[test]
    fn be_bytes_roundtrip() {
        let x = U256([
            0x0123456789abcdef,
            0xfedcba9876543210,
            0xdeadbeefcafebabe,
            0x1122334455667788,
        ]);
        assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), x);
    }

    #[test]
    fn short_be_bytes_left_pad() {
        assert_eq!(U256::from_be_bytes(&[0x80]), U256::from_u64(0x80));
        assert_eq!(U256::from_be_bytes(&[0x01, 0x00]), U256::from_u64(0x100));
        assert_eq!(U256::from_be_bytes(&[]), U256::ZERO);
    }

    #[test]
    fn add_wraps() {
        assert_eq!(U256::MAX.wrapping_add(U256::ONE), U256::ZERO);
        assert_eq!(w(5).wrapping_add(w(7)), w(12));
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(U256::ZERO.wrapping_sub(U256::ONE), U256::MAX);
        assert_eq!(w(12).wrapping_sub(w(7)), w(5));
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = U256::from_u128(u128::MAX);
        let b = w(2);
        let expect = U256([u128::MAX as u64 - 1, u64::MAX, 1, 0]);
        assert_eq!(a.wrapping_mul(b), expect);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(w(42).div(U256::ZERO), U256::ZERO);
        assert_eq!(w(42).rem(U256::ZERO), U256::ZERO);
        assert_eq!(w(42).sdiv(U256::ZERO), U256::ZERO);
        assert_eq!(w(42).smod(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn long_division_large_operands() {
        let a = U256([0, 0, 0, 1]); // 2^192
        let b = U256([0, 1, 0, 0]); // 2^64
        assert_eq!(a.div(b), U256([0, 0, 1, 0])); // 2^128
        assert_eq!(a.rem(b), U256::ZERO);
    }

    #[test]
    fn sdiv_smod_signs() {
        let minus_seven = w(7).wrapping_neg();
        let three = w(3);
        assert_eq!(minus_seven.sdiv(three), w(2).wrapping_neg());
        assert_eq!(minus_seven.smod(three), w(1).wrapping_neg());
        assert_eq!(w(7).sdiv(three.wrapping_neg()), w(2).wrapping_neg());
        assert_eq!(w(7).smod(three.wrapping_neg()), w(1));
    }

    #[test]
    fn sdiv_min_by_minus_one() {
        let min = U256([0, 0, 0, 1 << 63]); // -2^255
        assert_eq!(min.sdiv(U256::MAX), min); // MAX is -1 signed
    }

    #[test]
    fn addmod_mulmod_no_overflow() {
        assert_eq!(U256::MAX.addmod(U256::MAX, w(12)), {
            // (2^256-1) % 12 = 3 (2^256 % 12 = 4), so (4-1 + 4-1) % 12 = 6
            w(6)
        });
        assert_eq!(U256::MAX.mulmod(U256::MAX, w(12)), w(9));
        assert_eq!(w(10).addmod(w(10), U256::ZERO), U256::ZERO);
        assert_eq!(w(10).mulmod(w(10), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(w(2).pow(w(10)), w(1024));
        assert_eq!(w(0).pow(w(0)), U256::ONE); // EVM defines 0^0 = 1
        assert_eq!(w(3).pow(w(0)), U256::ONE);
        // 2^256 wraps to 0.
        assert_eq!(w(2).pow(w(256)), U256::ZERO);
    }

    #[test]
    fn signextend_positive_and_negative() {
        // 0xFF at byte 0 sign-extends to -1.
        assert_eq!(w(0xFF).signextend(U256::ZERO), U256::MAX);
        // 0x7F stays positive.
        assert_eq!(w(0x7F).signextend(U256::ZERO), w(0x7F));
        // Out-of-range index is a no-op.
        assert_eq!(w(0xFF).signextend(w(31)), w(0xFF));
        assert_eq!(w(0xFF).signextend(w(4000)), w(0xFF));
    }

    #[test]
    fn byte_indexing_is_big_endian() {
        let x = U256::from_be_bytes(&[0xAB, 0xCD]);
        assert_eq!(x.byte(w(31)), w(0xCD));
        assert_eq!(x.byte(w(30)), w(0xAB));
        assert_eq!(x.byte(w(0)), U256::ZERO);
        assert_eq!(x.byte(w(32)), U256::ZERO);
    }

    #[test]
    fn shifts() {
        assert_eq!(w(1).shl(255).shr(255), w(1));
        assert_eq!(w(1).shl(256), U256::ZERO);
        assert_eq!(U256::MAX.shr(256), U256::ZERO);
        assert_eq!(U256::MAX.sar(255), U256::MAX);
        assert_eq!(w(8).sar(2), w(2));
        let minus_eight = w(8).wrapping_neg();
        assert_eq!(minus_eight.sar(2), w(2).wrapping_neg());
    }

    #[test]
    fn signed_comparisons() {
        let minus_one = U256::MAX;
        assert!(minus_one.slt(U256::ZERO));
        assert!(U256::ZERO.sgt(minus_one));
        assert!(w(1).sgt(U256::ZERO));
        assert!(!w(1).slt(w(1)));
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", U256::ZERO), "0");
        assert_eq!(format!("{:x}", w(255)), "ff");
        assert_eq!(format!("{:x}", U256([0, 1, 0, 0])), "10000000000000000");
    }

    proptest! {
        #[test]
        fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(w(a as u128).wrapping_add(w(b as u128)), w(a as u128 + b as u128));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(w(a as u128).wrapping_mul(w(b as u128)), w(a as u128 * b as u128));
        }

        #[test]
        fn div_rem_reconstruct(a in any::<u128>(), b in 1u128..) {
            let (q, r) = w(a).div_rem(w(b));
            prop_assert_eq!(q.wrapping_mul(w(b)).wrapping_add(r), w(a));
            prop_assert!(r < w(b));
        }

        #[test]
        fn sub_add_inverse(a in any::<u128>(), b in any::<u128>()) {
            prop_assert_eq!(w(a).wrapping_add(w(b)).wrapping_sub(w(b)), w(a));
        }

        #[test]
        fn shl_then_shr(a in any::<u64>(), s in 0u32..192) {
            prop_assert_eq!(w(a as u128).shl(s).shr(s), w(a as u128));
        }

        #[test]
        fn be_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..=32)) {
            let x = U256::from_be_bytes(&bytes);
            let back = x.to_be_bytes();
            // The trailing `bytes.len()` bytes must match the input.
            prop_assert_eq!(&back[32 - bytes.len()..], &bytes[..]);
        }

        #[test]
        fn mulmod_matches_u128(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
            let expect = (u128::from(a) * u128::from(b)) % u128::from(m);
            prop_assert_eq!(w(a as u128).mulmod(w(b as u128), w(m as u128)), w(expect));
        }
    }
}
