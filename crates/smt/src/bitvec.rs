//! Arbitrary-precision, fixed-width bitvectors.
//!
//! P4 values routinely have widths like `bit<48>` (MAC addresses), `bit<128>`
//! (IPv6 addresses), or wider concatenations built by the packet model, so a
//! `u128` is not enough. `BitVec` stores little-endian 64-bit limbs and keeps
//! the invariant that all bits at positions `>= width` are zero.
//!
//! Values of width ≤ 128 keep their limbs inline, so building, cloning and
//! combining them never allocates; wider values spill their limbs to the
//! heap. Which form a value takes is a function of its width alone.
//!
//! All arithmetic is modular in `width` bits, matching the semantics of the
//! P4 `bit<N>` type and of SMT-LIB `QF_BV`.

use std::fmt;
use std::hash::{Hash, Hasher};

/// The widest value kept inline.
const INLINE_BITS: usize = 128;

/// A fixed-width bitvector value with arbitrary precision.
#[derive(Clone)]
pub struct BitVec {
    width: usize,
    limbs: Limbs,
}

/// Little-endian limbs: `ceil(width / 64)` of them are in use. A value of
/// width ≤ [`INLINE_BITS`] is `Inline`, with its unused limbs zero; a wider
/// one is `Heap`, with exactly the limbs in use.
#[derive(Clone)]
enum Limbs {
    Inline([u64; 2]),
    Heap(Box<[u64]>),
}

fn limbs_for(width: usize) -> usize {
    width.div_ceil(64)
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.limbs() == other.limbs()
    }
}

impl Eq for BitVec {}

impl Hash for BitVec {
    /// The width, then the limbs in use as a slice: the input a derived
    /// `Hash` over `{ width: usize, limbs: Vec<u64> }` feeds, so hash-map
    /// orders and stored term hashes do not depend on the layout.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.limbs().hash(state);
    }
}

impl BitVec {
    /// The zero-width bitvector (identity for concatenation).
    pub fn empty() -> Self {
        BitVec::zeros(0)
    }

    /// All-zero value of the given width.
    pub fn zeros(width: usize) -> Self {
        let limbs = if width <= INLINE_BITS {
            Limbs::Inline([0; 2])
        } else {
            Limbs::Heap(vec![0; limbs_for(width)].into_boxed_slice())
        };
        BitVec { width, limbs }
    }

    /// All-one value of the given width.
    pub fn ones(width: usize) -> Self {
        let mut v = BitVec::zeros(width);
        v.limbs_mut().fill(u64::MAX);
        v.normalize();
        v
    }

    /// Construct from a `u128`, truncating to `width` bits.
    pub fn from_u128(width: usize, value: u128) -> Self {
        let mut v = BitVec::zeros(width);
        for (i, l) in v.limbs_mut().iter_mut().take(2).enumerate() {
            *l = (value >> (64 * i)) as u64;
        }
        v.normalize();
        v
    }

    /// Construct from a `u64`, truncating to `width` bits.
    pub fn from_u64(width: usize, value: u64) -> Self {
        Self::from_u128(width, value as u128)
    }

    /// Construct from a boolean as a 1-bit vector.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(1, b as u64)
    }

    /// Construct from little-endian limbs, truncating to `width`.
    pub fn from_limbs(width: usize, limbs: Vec<u64>) -> Self {
        let mut v = BitVec::zeros(width);
        for (d, s) in v.limbs_mut().iter_mut().zip(limbs) {
            *d = s;
        }
        v.normalize();
        v
    }

    /// Construct from big-endian bytes; width is `bytes.len() * 8`.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let width = bytes.len() * 8;
        let mut v = BitVec::zeros(width);
        let limbs = v.limbs_mut();
        for (i, b) in bytes.iter().rev().enumerate() {
            // byte i (little-endian order) occupies bits [8i, 8i+8)
            limbs[i / 8] |= (*b as u64) << ((i % 8) * 8);
        }
        v
    }

    /// Big-endian byte representation. Requires `width % 8 == 0`.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        assert!(self.width.is_multiple_of(8), "to_bytes_be on width {}", self.width);
        let n = self.width / 8;
        let limbs = self.limbs();
        let mut out = vec![0u8; n];
        for i in 0..n {
            let byte = (limbs[i / 8] >> ((i % 8) * 8)) as u8;
            out[n - 1 - i] = byte;
        }
        out
    }

    /// Parse from a hex string (no prefix), producing a value of `width` bits.
    pub fn from_hex(width: usize, hex: &str) -> Option<Self> {
        let mut v = BitVec::zeros(width);
        for ch in hex.chars() {
            let d = ch.to_digit(16)? as u64;
            v = v.shl_const(4).or(&BitVec::from_u64(width, d));
        }
        Some(v)
    }

    /// Clear the bits at positions `>= width` in the top limb.
    fn normalize(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.limbs_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The raw little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        match &self.limbs {
            Limbs::Inline(l) => &l[..limbs_for(self.width)],
            Limbs::Heap(l) => l,
        }
    }

    fn limbs_mut(&mut self) -> &mut [u64] {
        match &mut self.limbs {
            Limbs::Inline(l) => &mut l[..limbs_for(self.width)],
            Limbs::Heap(l) => l,
        }
    }

    /// Bit at position `i` (little-endian; bit 0 is least significant).
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.width);
        (self.limbs()[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `b`.
    pub fn set_bit(&mut self, i: usize, b: bool) {
        assert!(i < self.width);
        let mask = 1u64 << (i % 64);
        let limb = &mut self.limbs_mut()[i / 64];
        if b {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs().iter().all(|&l| l == 0)
    }

    /// True if this is a 1-bit value equal to 1.
    pub fn is_true(&self) -> bool {
        self.width == 1 && self.limbs()[0] == 1
    }

    /// Value as `u64` if it fits, else `None`.
    pub fn to_u64(&self) -> Option<u64> {
        let limbs = self.limbs();
        if limbs.iter().skip(1).any(|&l| l != 0) {
            None
        } else {
            Some(limbs.first().copied().unwrap_or(0))
        }
    }

    /// Value as `u128` if it fits, else `None`.
    pub fn to_u128(&self) -> Option<u128> {
        let limbs = self.limbs();
        if limbs.iter().skip(2).any(|&l| l != 0) {
            None
        } else {
            let lo = limbs.first().copied().unwrap_or(0) as u128;
            let hi = limbs.get(1).copied().unwrap_or(0) as u128;
            Some(lo | (hi << 64))
        }
    }

    fn binary_assert(&self, rhs: &BitVec) {
        assert_eq!(self.width, rhs.width, "width mismatch: {} vs {}", self.width, rhs.width);
    }

    /// A value of this width whose limb `i` is `f(self.limbs[i], rhs.limbs[i])`.
    fn zip_limbs(&self, rhs: &BitVec, f: impl Fn(u64, u64) -> u64) -> BitVec {
        self.binary_assert(rhs);
        let mut out = BitVec::zeros(self.width);
        for ((o, a), b) in out.limbs_mut().iter_mut().zip(self.limbs()).zip(rhs.limbs()) {
            *o = f(*a, *b);
        }
        out
    }

    /// Modular addition.
    pub fn add(&self, rhs: &BitVec) -> BitVec {
        self.binary_assert(rhs);
        let mut out = BitVec::zeros(self.width);
        let mut carry = 0u64;
        for ((o, a), b) in out.limbs_mut().iter_mut().zip(self.limbs()).zip(rhs.limbs()) {
            let (s1, c1) = a.overflowing_add(*b);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.normalize();
        out
    }
    /// Modular subtraction.
    pub fn sub(&self, rhs: &BitVec) -> BitVec {
        self.add(&rhs.negate())
    }

    /// Two's-complement negation.
    pub fn negate(&self) -> BitVec {
        if self.width == 0 {
            return self.clone();
        }
        self.not().add(&BitVec::from_u64(self.width, 1))
    }

    /// Modular multiplication (schoolbook).
    pub fn mul(&self, rhs: &BitVec) -> BitVec {
        self.binary_assert(rhs);
        let (a, b) = (self.limbs(), rhs.limbs());
        let mut out = BitVec::zeros(self.width);
        let acc = out.limbs_mut();
        let n = a.len();
        for i in 0..n {
            let ai = a[i] as u128;
            if ai == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..n - i {
                let cur = acc[i + j] as u128 + ai * b[j] as u128 + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        out.normalize();
        out
    }

    /// Unsigned division; division by zero yields all-ones (SMT-LIB semantics).
    pub fn udiv(&self, rhs: &BitVec) -> BitVec {
        self.binary_assert(rhs);
        if rhs.is_zero() {
            return BitVec::ones(self.width);
        }
        self.divmod(rhs).0
    }

    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    pub fn urem(&self, rhs: &BitVec) -> BitVec {
        self.binary_assert(rhs);
        if rhs.is_zero() {
            return self.clone();
        }
        self.divmod(rhs).1
    }

    /// Restoring long division by bits. Slow but simple; widths are small.
    fn divmod(&self, rhs: &BitVec) -> (BitVec, BitVec) {
        let mut q = BitVec::zeros(self.width);
        let mut r = BitVec::zeros(self.width);
        for i in (0..self.width).rev() {
            r = r.shl_const(1);
            r.set_bit(0, self.bit(i));
            if r.ult(rhs) {
                continue;
            }
            r = r.sub(rhs);
            q.set_bit(i, true);
        }
        (q, r)
    }

    /// Bitwise AND.
    pub fn and(&self, rhs: &BitVec) -> BitVec {
        self.zip_limbs(rhs, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, rhs: &BitVec) -> BitVec {
        self.zip_limbs(rhs, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, rhs: &BitVec) -> BitVec {
        self.zip_limbs(rhs, |a, b| a ^ b)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> BitVec {
        let mut v = self.zip_limbs(self, |a, _| !a);
        v.normalize();
        v
    }

    /// Left shift by a constant amount; shifts `>= width` yield zero.
    pub fn shl_const(&self, amount: usize) -> BitVec {
        let mut out = BitVec::zeros(self.width);
        if amount >= self.width {
            return out;
        }
        let src = self.limbs();
        let limb_shift = amount / 64;
        let bit_shift = amount % 64;
        for (i, o) in out.limbs_mut().iter_mut().enumerate().skip(limb_shift) {
            let mut v = src[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= src[i - limb_shift - 1] >> (64 - bit_shift);
            }
            *o = v;
        }
        out.normalize();
        out
    }

    /// Logical right shift by a constant amount; shifts `>= width` yield zero.
    pub fn lshr_const(&self, amount: usize) -> BitVec {
        if amount >= self.width {
            return BitVec::zeros(self.width);
        }
        self.shifted_down(amount, self.width)
    }

    /// The `width` bits of `self` from position `lo` up, zero-filled past
    /// the top (`lo < self.width`).
    fn shifted_down(&self, lo: usize, width: usize) -> BitVec {
        let src = self.limbs();
        let limb_shift = lo / 64;
        let bit_shift = lo % 64;
        let mut out = BitVec::zeros(width);
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            let at = |j: usize| src.get(j).copied().unwrap_or(0);
            let mut v = at(i + limb_shift) >> bit_shift;
            if bit_shift > 0 {
                v |= at(i + limb_shift + 1) << (64 - bit_shift);
            }
            *o = v;
        }
        out.normalize();
        out
    }

    /// Arithmetic right shift by a constant amount (sign bit replicated).
    pub fn ashr_const(&self, amount: usize) -> BitVec {
        if self.width == 0 {
            return self.clone();
        }
        let sign = self.bit(self.width - 1);
        if amount >= self.width {
            return if sign { BitVec::ones(self.width) } else { BitVec::zeros(self.width) };
        }
        let mut out = self.lshr_const(amount);
        if sign {
            for i in self.width - amount..self.width {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Left shift where the amount is itself a bitvector (saturating).
    pub fn shl(&self, amount: &BitVec) -> BitVec {
        match amount.to_u64() {
            Some(a) if (a as usize) < self.width => self.shl_const(a as usize),
            _ => BitVec::zeros(self.width),
        }
    }

    /// Logical right shift with a bitvector amount (saturating).
    pub fn lshr(&self, amount: &BitVec) -> BitVec {
        match amount.to_u64() {
            Some(a) if (a as usize) < self.width => self.lshr_const(a as usize),
            _ => BitVec::zeros(self.width),
        }
    }

    /// Arithmetic right shift with a bitvector amount (saturating).
    pub fn ashr(&self, amount: &BitVec) -> BitVec {
        match amount.to_u64() {
            Some(a) if (a as usize) < self.width => self.ashr_const(a as usize),
            _ => self.ashr_const(self.width),
        }
    }

    /// Concatenation: `self` becomes the high bits, `low` the low bits
    /// (SMT-LIB `concat` order).
    pub fn concat(&self, low: &BitVec) -> BitVec {
        let mut out = low.zext(self.width + low.width);
        let limb_shift = low.width / 64;
        let bit_shift = low.width % 64;
        let dst = out.limbs_mut();
        for (i, &l) in self.limbs().iter().enumerate() {
            dst[limb_shift + i] |= l << bit_shift;
            if bit_shift > 0 && limb_shift + i + 1 < dst.len() {
                dst[limb_shift + i + 1] |= l >> (64 - bit_shift);
            }
        }
        out
    }

    /// Extract bits `[lo, hi]` inclusive (SMT-LIB `extract` order, `hi >= lo`).
    pub fn extract(&self, hi: usize, lo: usize) -> BitVec {
        assert!(hi >= lo && hi < self.width, "extract [{hi}:{lo}] of width {}", self.width);
        self.shifted_down(lo, hi - lo + 1)
    }

    /// Zero-extend to `width` bits (must be `>= self.width`).
    pub fn zext(&self, width: usize) -> BitVec {
        assert!(width >= self.width);
        let mut out = BitVec::zeros(width);
        let src = self.limbs();
        out.limbs_mut()[..src.len()].copy_from_slice(src);
        out
    }

    /// Sign-extend to `width` bits (must be `>= self.width`).
    pub fn sext(&self, width: usize) -> BitVec {
        assert!(width >= self.width);
        let mut out = self.zext(width);
        if self.width > 0 && self.bit(self.width - 1) {
            for i in self.width..width {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Truncate or extend (zero-fill) to an arbitrary width, P4 cast style.
    pub fn cast(&self, width: usize) -> BitVec {
        if width == self.width {
            self.clone()
        } else if width < self.width {
            if width == 0 { BitVec::empty() } else { self.extract(width - 1, 0) }
        } else {
            self.zext(width)
        }
    }

    /// Unsigned less-than.
    pub fn ult(&self, rhs: &BitVec) -> bool {
        self.binary_assert(rhs);
        let (a, b) = (self.limbs(), rhs.limbs());
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
        }
        false
    }

    /// Unsigned less-or-equal.
    pub fn ule(&self, rhs: &BitVec) -> bool {
        !rhs.ult(self)
    }

    /// Signed less-than (two's complement).
    pub fn slt(&self, rhs: &BitVec) -> bool {
        self.binary_assert(rhs);
        if self.width == 0 {
            return false;
        }
        let sa = self.bit(self.width - 1);
        let sb = rhs.bit(self.width - 1);
        if sa != sb {
            return sa;
        }
        self.ult(rhs)
    }

    /// Signed less-or-equal.
    pub fn sle(&self, rhs: &BitVec) -> bool {
        !rhs.slt(self)
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.limbs().iter().map(|l| l.count_ones() as usize).sum()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}w{}", self.width, self)
    }
}

impl fmt::Display for BitVec {
    /// Hex display, most significant digit first, zero-padded to the width.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "0x<empty>");
        }
        write!(f, "0x")?;
        let digits = self.width.div_ceil(4);
        for d in (0..digits).rev() {
            let lo = d * 4;
            let hi = (lo + 3).min(self.width - 1);
            let nib = self.extract(hi, lo).to_u64().unwrap();
            write!(f, "{nib:x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_u128() {
        let v = BitVec::from_u128(100, 0xDEAD_BEEF_CAFE_BABE_1234_5678u128);
        assert_eq!(v.to_u128(), Some(0xDEAD_BEEF_CAFE_BABE_1234_5678u128));
    }

    #[test]
    fn truncation_on_construction() {
        let v = BitVec::from_u64(4, 0xFF);
        assert_eq!(v.to_u64(), Some(0xF));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BitVec::from_u128(128, u128::MAX);
        let b = BitVec::from_u64(128, 1);
        assert!(a.add(&b).is_zero());
    }

    #[test]
    fn add_modular_wrap() {
        let a = BitVec::from_u64(8, 0xFF);
        let b = BitVec::from_u64(8, 2);
        assert_eq!(a.add(&b).to_u64(), Some(1));
    }

    #[test]
    fn sub_and_negate() {
        let a = BitVec::from_u64(16, 5);
        let b = BitVec::from_u64(16, 7);
        assert_eq!(a.sub(&b).to_u64(), Some(0xFFFE));
        assert_eq!(BitVec::from_u64(8, 1).negate().to_u64(), Some(0xFF));
    }

    #[test]
    fn mul_wide() {
        let a = BitVec::from_u128(128, u64::MAX as u128);
        let b = BitVec::from_u128(128, u64::MAX as u128);
        let expect = (u64::MAX as u128).wrapping_mul(u64::MAX as u128);
        assert_eq!(a.mul(&b).to_u128(), Some(expect));
    }

    #[test]
    fn div_rem() {
        let a = BitVec::from_u64(32, 100);
        let b = BitVec::from_u64(32, 7);
        assert_eq!(a.udiv(&b).to_u64(), Some(14));
        assert_eq!(a.urem(&b).to_u64(), Some(2));
    }

    #[test]
    fn div_by_zero_smtlib() {
        let a = BitVec::from_u64(8, 42);
        let z = BitVec::zeros(8);
        assert_eq!(a.udiv(&z).to_u64(), Some(0xFF));
        assert_eq!(a.urem(&z).to_u64(), Some(42));
    }

    #[test]
    fn shifts() {
        let a = BitVec::from_u64(16, 0x00F0);
        assert_eq!(a.shl_const(4).to_u64(), Some(0x0F00));
        assert_eq!(a.lshr_const(4).to_u64(), Some(0x000F));
        assert_eq!(a.shl_const(16).to_u64(), Some(0));
        let neg = BitVec::from_u64(8, 0x80);
        assert_eq!(neg.ashr_const(3).to_u64(), Some(0xF0));
    }

    #[test]
    fn shift_across_limbs() {
        let a = BitVec::from_u64(128, 1);
        assert_eq!(a.shl_const(100).lshr_const(100).to_u64(), Some(1));
    }

    #[test]
    fn concat_and_extract() {
        let hi = BitVec::from_u64(8, 0xAB);
        let lo = BitVec::from_u64(8, 0xCD);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 16);
        assert_eq!(c.to_u64(), Some(0xABCD));
        assert_eq!(c.extract(15, 8).to_u64(), Some(0xAB));
        assert_eq!(c.extract(7, 0).to_u64(), Some(0xCD));
    }

    #[test]
    fn bytes_round_trip() {
        let bytes = [0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        let v = BitVec::from_bytes_be(&bytes);
        assert_eq!(v.width(), 40);
        assert_eq!(v.to_bytes_be(), bytes);
    }

    #[test]
    fn comparisons() {
        let a = BitVec::from_u64(8, 0x80); // -128 signed
        let b = BitVec::from_u64(8, 0x01);
        assert!(b.ult(&a));
        assert!(a.slt(&b));
        assert!(a.sle(&a));
        assert!(a.ule(&a));
    }

    #[test]
    fn sext_zext() {
        let v = BitVec::from_u64(4, 0b1010);
        assert_eq!(v.zext(8).to_u64(), Some(0x0A));
        assert_eq!(v.sext(8).to_u64(), Some(0xFA));
    }

    #[test]
    fn hex_parse_and_display() {
        let v = BitVec::from_hex(16, "BeeF").unwrap();
        assert_eq!(v.to_u64(), Some(0xBEEF));
        assert_eq!(format!("{v}"), "0xbeef");
        let odd = BitVec::from_u64(9, 0x1FF);
        assert_eq!(format!("{odd}"), "0x1ff");
    }

    #[test]
    fn values_up_to_128_bits_are_inline() {
        assert!(std::mem::size_of::<BitVec>() <= 32);
        for w in [0, 1, 64, 65, 128] {
            assert!(matches!(BitVec::ones(w).limbs, Limbs::Inline(_)), "width {w}");
        }
        assert!(matches!(BitVec::zeros(129).limbs, Limbs::Heap(_)));
        // Crossing the inline boundary keeps values and equality.
        let a = BitVec::from_u128(128, u128::MAX);
        let wide = BitVec::from_u64(8, 0x5A).concat(&a);
        assert_eq!(wide.width(), 136);
        assert_eq!(wide.extract(135, 128).to_u64(), Some(0x5A));
        assert_eq!(wide.extract(127, 0), a);
        assert_eq!(wide.cast(128), a);
        assert_eq!(a.zext(200).cast(128), a);
        assert_eq!(BitVec::from_limbs(150, vec![1, 2, 3, 4]).limbs(), [1, 2, 3]);
    }

    #[test]
    fn hash_input_is_width_then_limbs() {
        use std::collections::hash_map::DefaultHasher;
        fn h(x: impl Hash) -> u64 {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        }
        let values = [BitVec::empty(), BitVec::from_u64(9, 0x1FF), BitVec::ones(128), BitVec::ones(300)];
        for v in values {
            assert_eq!(h(&v), h((v.width(), v.limbs().to_vec())), "{v:?}");
        }
    }

    #[test]
    fn wide_values_match_limb_arithmetic() {
        let a = BitVec::from_limbs(192, vec![u64::MAX, 7, 1 << 63]);
        let one = BitVec::from_u64(192, 1);
        assert_eq!(a.add(&one).limbs(), [0, 8, 1 << 63]);
        assert_eq!(a.shl_const(64).limbs(), [0, u64::MAX, 7]);
        assert_eq!(a.lshr_const(60).limbs(), [0x7F, 0, 8]);
        assert_eq!(a.not().not(), a);
        assert_eq!(a.sub(&a), BitVec::zeros(192));
        assert!(one.ult(&a) && a.slt(&one));
        assert_eq!(a.count_ones(), 64 + 3 + 1);
    }

    #[test]
    fn empty_vector() {
        let e = BitVec::empty();
        assert_eq!(e.width(), 0);
        assert!(e.is_zero());
        let v = BitVec::from_u64(8, 7);
        assert_eq!(e.concat(&v).to_u64(), Some(7));
        assert_eq!(v.concat(&e).to_u64(), Some(7));
    }
}
