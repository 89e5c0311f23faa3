//! A deliberately naive bit-vector: `Vec<bool>` with index 0 = least
//! significant bit, and schoolbook algorithms throughout (ripple-carry
//! addition, shift-and-add multiplication, restoring division).
//!
//! This module intentionally shares nothing with `p4t_smt::BitVec`. It is
//! the arithmetic half of the reference evaluator's independence: a bug in
//! the optimized bit-vector library cannot be self-consistent with a bug
//! here. The *semantics* match the SMT-LIB conventions both evaluators
//! target: division by zero yields all-ones, remainder by zero yields the
//! dividend, shifts by amounts at or beyond the width saturate (arithmetic
//! right shift fills with the sign bit), and casts truncate low bits or
//! zero-extend.

/// A fixed-width bit string. `bits[0]` is the least significant bit.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Bits {
    bits: Vec<bool>,
}

impl Bits {
    pub fn empty() -> Bits {
        Bits { bits: Vec::new() }
    }

    pub fn zeros(width: usize) -> Bits {
        Bits { bits: vec![false; width] }
    }

    pub fn ones(width: usize) -> Bits {
        Bits { bits: vec![true; width] }
    }

    pub fn from_bool(b: bool) -> Bits {
        Bits { bits: vec![b] }
    }

    pub fn from_u128(width: usize, v: u128) -> Bits {
        let mut bits = vec![false; width];
        for (i, b) in bits.iter_mut().enumerate() {
            if i < 128 {
                *b = (v >> i) & 1 == 1;
            }
        }
        Bits { bits }
    }

    pub fn from_u64(width: usize, v: u64) -> Bits {
        Bits::from_u128(width, v as u128)
    }

    /// Big-endian bytes; the result is `8 * bytes.len()` wide.
    pub fn from_bytes_be(bytes: &[u8]) -> Bits {
        let w = bytes.len() * 8;
        let mut bits = vec![false; w];
        for (byte_i, byte) in bytes.iter().enumerate() {
            for bit_in_byte in 0..8 {
                // First byte holds the most significant bits.
                let pos = w - 1 - (byte_i * 8 + (7 - bit_in_byte));
                bits[pos] = (byte >> bit_in_byte) & 1 == 1;
            }
        }
        Bits { bits }
    }

    pub fn width(&self) -> usize {
        self.bits.len()
    }

    pub fn is_zero(&self) -> bool {
        self.bits.iter().all(|b| !b)
    }

    pub fn bit(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    pub fn set_bit(&mut self, i: usize, v: bool) {
        if i < self.bits.len() {
            self.bits[i] = v;
        }
    }

    fn sign(&self) -> bool {
        self.bits.last().copied().unwrap_or(false)
    }

    /// `Some(v)` iff the value fits in a `u64`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.iter().skip(64).any(|b| *b) {
            return None;
        }
        let mut v = 0u64;
        for (i, b) in self.bits.iter().take(64).enumerate() {
            if *b {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// Big-endian bytes, zero-padding the high end to a byte boundary.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let w = self.width();
        let nbytes = w.div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for i in 0..w {
            if self.bits[i] {
                // Bit i (LSB-based) lives in byte (from the right) i / 8.
                let byte_from_right = i / 8;
                out[nbytes - 1 - byte_from_right] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Truncate to the low `width` bits or zero-extend.
    pub fn cast(&self, width: usize) -> Bits {
        let mut bits = self.bits.clone();
        bits.resize(width, false);
        Bits { bits }
    }

    pub fn zext(&self, width: usize) -> Bits {
        self.cast(width)
    }

    /// Sign-extend (or truncate when narrowing).
    pub fn sext(&self, width: usize) -> Bits {
        let mut bits = self.bits.clone();
        let s = self.sign();
        bits.resize(width, s);
        Bits { bits }
    }

    /// Inclusive bit range `[lo, hi]`.
    pub fn extract(&self, hi: usize, lo: usize) -> Bits {
        let mut bits = Vec::with_capacity(hi.saturating_sub(lo) + 1);
        for i in lo..=hi {
            bits.push(self.bit(i));
        }
        Bits { bits }
    }

    /// `self` supplies the high bits, `low` the low bits.
    pub fn concat(&self, low: &Bits) -> Bits {
        let mut bits = low.bits.clone();
        bits.extend_from_slice(&self.bits);
        Bits { bits }
    }

    pub fn not(&self) -> Bits {
        Bits { bits: self.bits.iter().map(|b| !b).collect() }
    }

    fn zip_with(&self, other: &Bits, f: impl Fn(bool, bool) -> bool) -> Bits {
        let w = self.width().max(other.width());
        let mut bits = Vec::with_capacity(w);
        for i in 0..w {
            bits.push(f(self.bit(i), other.bit(i)));
        }
        Bits { bits }
    }

    pub fn and(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a && b)
    }

    pub fn or(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a || b)
    }

    pub fn xor(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a != b)
    }

    /// Ripple-carry addition, wrapping at the width of `self`.
    pub fn add(&self, other: &Bits) -> Bits {
        let w = self.width();
        let mut bits = vec![false; w];
        let mut carry = false;
        for (i, out) in bits.iter_mut().enumerate() {
            let a = self.bit(i);
            let b = other.bit(i);
            *out = a ^ b ^ carry;
            carry = (a && b) || ((a || b) && carry);
        }
        Bits { bits }
    }

    pub fn negate(&self) -> Bits {
        Bits::zeros(self.width()).sub(self)
    }

    /// `self - other` via two's complement: `self + !other + 1`.
    pub fn sub(&self, other: &Bits) -> Bits {
        let w = self.width();
        let mut bits = vec![false; w];
        let mut carry = true;
        for (i, out) in bits.iter_mut().enumerate() {
            let a = self.bit(i);
            let b = !other.bit(i);
            *out = a ^ b ^ carry;
            carry = (a && b) || ((a || b) && carry);
        }
        Bits { bits }
    }

    /// Shift-and-add multiplication, truncating at the width of `self`.
    pub fn mul(&self, other: &Bits) -> Bits {
        let w = self.width();
        let mut acc = Bits::zeros(w);
        let mut shifted = self.cast(w);
        for i in 0..w {
            if other.bit(i) {
                acc = acc.add(&shifted);
            }
            shifted = shifted.shl_const(1);
        }
        acc
    }

    /// Restoring long division. Division by zero yields all ones (SMT-LIB
    /// `bvudiv`); remainder by zero yields the dividend (`bvurem`).
    fn divmod(&self, other: &Bits) -> (Bits, Bits) {
        let w = self.width();
        if other.is_zero() {
            return (Bits::ones(w), self.clone());
        }
        let mut quotient = Bits::zeros(w);
        let mut remainder = Bits::zeros(w);
        for i in (0..w).rev() {
            // remainder = (remainder << 1) | dividend[i]
            remainder = remainder.shl_const(1);
            remainder.set_bit(0, self.bit(i));
            if !remainder.ult(&other.cast(w)) {
                remainder = remainder.sub(&other.cast(w));
                quotient.set_bit(i, true);
            }
        }
        (quotient, remainder)
    }

    pub fn udiv(&self, other: &Bits) -> Bits {
        self.divmod(other).0
    }

    pub fn urem(&self, other: &Bits) -> Bits {
        self.divmod(other).1
    }

    pub fn shl_const(&self, n: usize) -> Bits {
        let w = self.width();
        let mut bits = vec![false; w];
        for (i, out) in bits.iter_mut().enumerate().skip(n) {
            *out = self.bit(i - n);
        }
        Bits { bits }
    }

    pub fn lshr_const(&self, n: usize) -> Bits {
        let w = self.width();
        let mut bits = vec![false; w];
        for (i, out) in bits.iter_mut().enumerate().take(w.saturating_sub(n)) {
            *out = self.bit(i + n);
        }
        Bits { bits }
    }

    fn ashr_const(&self, n: usize) -> Bits {
        let w = self.width();
        let s = self.sign();
        let mut bits = vec![s; w];
        for (i, out) in bits.iter_mut().enumerate().take(w.saturating_sub(n)) {
            *out = self.bit(i + n);
        }
        Bits { bits }
    }

    fn shift_amount(&self, amount: &Bits) -> usize {
        // Amounts that do not fit a u64 certainly exceed any width.
        match amount.to_u64() {
            Some(n) if (n as usize) < self.width() => n as usize,
            _ => self.width(),
        }
    }

    pub fn shl(&self, amount: &Bits) -> Bits {
        self.shl_const(self.shift_amount(amount))
    }

    pub fn lshr(&self, amount: &Bits) -> Bits {
        self.lshr_const(self.shift_amount(amount))
    }

    pub fn ashr(&self, amount: &Bits) -> Bits {
        self.ashr_const(self.shift_amount(amount))
    }

    /// Unsigned less-than, comparing from the most significant bit down.
    pub fn ult(&self, other: &Bits) -> bool {
        let w = self.width().max(other.width());
        for i in (0..w).rev() {
            let (a, b) = (self.bit(i), other.bit(i));
            if a != b {
                return b;
            }
        }
        false
    }

    pub fn ule(&self, other: &Bits) -> bool {
        !other.ult(self)
    }

    /// Signed less-than on equal-width two's-complement values.
    pub fn slt(&self, other: &Bits) -> bool {
        match (self.sign(), other.sign()) {
            (true, false) => true,
            (false, true) => false,
            _ => self.ult(other),
        }
    }

    pub fn sle(&self, other: &Bits) -> bool {
        !other.slt(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let b = Bits::from_bytes_be(&[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(b.width(), 32);
        assert_eq!(b.to_bytes_be(), vec![0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(b.to_u64(), Some(0xDEADBEEF));
    }

    #[test]
    fn arithmetic_matches_u64() {
        for (a, b) in [(3u64, 5u64), (250, 7), (0, 9), (255, 255), (128, 2)] {
            let x = Bits::from_u64(8, a);
            let y = Bits::from_u64(8, b);
            assert_eq!(x.add(&y).to_u64(), Some((a + b) & 0xFF), "{a}+{b}");
            assert_eq!(x.sub(&y).to_u64(), Some(a.wrapping_sub(b) & 0xFF), "{a}-{b}");
            assert_eq!(x.mul(&y).to_u64(), Some((a * b) & 0xFF), "{a}*{b}");
            if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
                assert_eq!(x.udiv(&y).to_u64(), Some(q), "{a}/{b}");
                assert_eq!(x.urem(&y).to_u64(), Some(r), "{a}%{b}");
            }
            assert_eq!(x.ult(&y), a < b);
            assert_eq!(x.ule(&y), a <= b);
        }
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        let x = Bits::from_u64(8, 42);
        let z = Bits::zeros(8);
        assert_eq!(x.udiv(&z), Bits::ones(8));
        assert_eq!(x.urem(&z), x);
    }

    #[test]
    fn shifts_saturate_at_width() {
        let x = Bits::from_u64(8, 0x81);
        assert!(x.shl(&Bits::from_u64(8, 8)).is_zero());
        assert!(x.lshr(&Bits::from_u64(8, 9)).is_zero());
        // Arithmetic shift fills with the sign bit.
        assert_eq!(x.ashr(&Bits::from_u64(8, 200)), Bits::ones(8));
        assert_eq!(x.ashr(&Bits::from_u64(8, 1)).to_u64(), Some(0xC0));
        assert_eq!(x.shl(&Bits::from_u64(8, 1)).to_u64(), Some(0x02));
    }

    #[test]
    fn signed_compare() {
        let neg1 = Bits::from_u64(8, 0xFF);
        let one = Bits::from_u64(8, 1);
        assert!(neg1.slt(&one));
        assert!(!one.slt(&neg1));
        assert!(one.ult(&neg1));
    }

    #[test]
    fn concat_slice_extend() {
        let hi = Bits::from_u64(8, 0xAB);
        let lo = Bits::from_u64(8, 0xCD);
        let c = hi.concat(&lo);
        assert_eq!(c.to_u64(), Some(0xABCD));
        assert_eq!(c.extract(15, 8).to_u64(), Some(0xAB));
        assert_eq!(c.extract(7, 0).to_u64(), Some(0xCD));
        assert_eq!(Bits::from_u64(4, 0x9).sext(8).to_u64(), Some(0xF9));
        assert_eq!(Bits::from_u64(4, 0x9).zext(8).to_u64(), Some(0x09));
        assert_eq!(Bits::from_u64(16, 0xABCD).cast(8).to_u64(), Some(0xCD));
    }
}
