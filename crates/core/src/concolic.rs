//! Concolic execution support (§5.4).
//!
//! Externs too complex for first-order logic (checksums, hashes) model
//! their result as an unconstrained variable and record a
//! [`crate::state::ConcolicBinding`]. At test-emission time
//! [`resolve_concolics`] runs the §5.4 loop:
//!
//! 1. solve the path constraints to get concrete values for the function's
//!    arguments;
//! 2. run the concrete implementation on those values;
//! 3. bind the arguments and the result with equality constraints and
//!    re-solve;
//! 4. on unsatisfiability, retry with different argument values (bounded).
//!
//! Domain-specific fallbacks (e.g. forcing `verify_checksum`'s reference
//! value equal to the computed checksum) live in the target extensions,
//! which fork a dedicated path instead of relying on a lucky model.
//!
//! Every solve in this loop is **model-bearing**: it runs unsimplified on
//! a fresh SAT instance via [`Solver::check_assuming`]. The concrete
//! argument values fed to step 2 therefore depend only on the constraint
//! set, which is what keeps concolic resolutions (and the tests built from
//! them) byte-identical across worker counts.

use crate::state::ConcolicBinding;
use p4t_smt::{eval, Assignment, BitVec, CheckResult, Solver, TermId, TermPool, VarWalk};
use std::collections::HashMap;

/// A concrete implementation backing an uninterpreted extern function.
pub type ConcolicFn = fn(&[BitVec], u32) -> BitVec;

/// Registry of concrete implementations, keyed by function name.
#[derive(Clone)]
pub struct ConcolicRegistry {
    fns: HashMap<String, ConcolicFn>,
}

impl Default for ConcolicRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl ConcolicRegistry {
    pub fn empty() -> Self {
        ConcolicRegistry { fns: HashMap::new() }
    }

    /// Registry preloaded with the common packet-processing functions.
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register("csum16", csum16);
        r.register("crc32", crc32);
        r.register("crc16", crc16);
        r.register("xor16", xor16);
        r.register("identity", identity);
        r
    }

    pub fn register(&mut self, name: &str, f: ConcolicFn) {
        self.fns.insert(name.to_string(), f);
    }

    pub fn get(&self, name: &str) -> Option<ConcolicFn> {
        self.fns.get(name).copied()
    }
}

/// Resolve all concolic bindings of a path against the solver: returns the
/// extra equality constraints to add, or `None` if no consistent concrete
/// assignment was found within `max_retries`. When `bindings` is not empty,
/// `Some(eqs)` means the solver's last model-bearing check was a Sat check
/// of exactly `path_constraints ++ eqs`, so its model can be read at once.
pub fn resolve_concolics(
    pool: &TermPool,
    solver: &mut Solver,
    walk: &mut VarWalk,
    registry: &ConcolicRegistry,
    bindings: &[ConcolicBinding],
    path_constraints: &[TermId],
    max_retries: u32,
) -> Option<Vec<TermId>> {
    if bindings.is_empty() {
        return Some(Vec::new());
    }
    let mut banned: Vec<TermId> = Vec::new();
    for _attempt in 0..=max_retries {
        // Solve path constraints (plus any banned previous attempts).
        let mut assumptions = path_constraints.to_vec();
        assumptions.extend(banned.iter().copied());
        if solver.check_assuming(pool, &assumptions) != CheckResult::Sat {
            return None;
        }
        // Concretize arguments under the model, compute results.
        let model = model_for(pool, solver, walk, bindings, path_constraints);
        let mut equalities = Vec::new();
        let mut attempt_key = Vec::new();
        for b in bindings {
            let f = registry.get(&b.func)?;
            let arg_vals: Vec<BitVec> =
                b.args.iter().map(|&a| eval(pool, &model, a)).collect();
            let out_width = pool.width(b.result) as u32;
            let result = f(&arg_vals, out_width);
            for (&arg, val) in b.args.iter().zip(&arg_vals) {
                let c = pool.constant(val.clone());
                equalities.push(pool.eq(arg, c));
                attempt_key.push(equalities[equalities.len() - 1]);
            }
            let rc = pool.constant(result);
            equalities.push(pool.eq(b.result, rc));
        }
        // Check the combined system.
        let mut assumptions = path_constraints.to_vec();
        assumptions.extend(equalities.iter().copied());
        if solver.check_assuming(pool, &assumptions) == CheckResult::Sat {
            return Some(equalities);
        }
        // Ban this argument assignment and retry with new inputs.
        let conj = pool.and_all(&attempt_key);
        banned.push(pool.not(conj));
    }
    None
}

/// The model over every variable of the bindings' arguments and the path.
fn model_for(
    pool: &TermPool,
    solver: &Solver,
    walk: &mut VarWalk,
    bindings: &[ConcolicBinding],
    constraints: &[TermId],
) -> Assignment {
    let args = bindings.iter().flat_map(|b| b.args.iter().copied());
    let vars = walk.vars(pool, args.chain(constraints.iter().copied()));
    solver.model(pool, &vars)
}

// ---- concrete implementations ---------------------------------------------

/// Internet checksum (RFC 1071): one's-complement sum of 16-bit words over
/// the concatenated arguments, truncated/extended to `out_width`.
pub fn csum16(args: &[BitVec], out_width: u32) -> BitVec {
    let bytes = concat_bytes(args);
    let mut sum: u32 = 0;
    let mut i = 0;
    while i < bytes.len() {
        let hi = bytes[i] as u32;
        let lo = if i + 1 < bytes.len() { bytes[i + 1] as u32 } else { 0 };
        sum += (hi << 8) | lo;
        i += 2;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    BitVec::from_u64(out_width as usize, (!sum as u64) & 0xFFFF)
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
pub fn crc32(args: &[BitVec], out_width: u32) -> BitVec {
    let bytes = concat_bytes(args);
    let mut crc: u32 = 0xFFFF_FFFF;
    for b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    BitVec::from_u64(out_width as usize, (!crc) as u64)
}

/// CRC-16 (ARC, reflected, poly 0xA001).
pub fn crc16(args: &[BitVec], out_width: u32) -> BitVec {
    let bytes = concat_bytes(args);
    let mut crc: u16 = 0;
    for b in bytes {
        crc ^= b as u16;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xA001 } else { crc >> 1 };
        }
    }
    BitVec::from_u64(out_width as usize, crc as u64)
}

/// XOR-fold of all 16-bit words.
pub fn xor16(args: &[BitVec], out_width: u32) -> BitVec {
    let bytes = concat_bytes(args);
    let mut acc: u16 = 0;
    let mut i = 0;
    while i < bytes.len() {
        let hi = bytes[i] as u16;
        let lo = if i + 1 < bytes.len() { bytes[i + 1] as u16 } else { 0 };
        acc ^= (hi << 8) | lo;
        i += 2;
    }
    BitVec::from_u64(out_width as usize, acc as u64)
}

/// Identity "hash": the input truncated/zero-extended to the output width.
pub fn identity(args: &[BitVec], out_width: u32) -> BitVec {
    let mut acc = BitVec::empty();
    for a in args {
        acc = acc.concat(a);
    }
    acc.cast(out_width as usize)
}

/// Concatenate the (byte-padded) arguments into one big-endian byte string.
fn concat_bytes(args: &[BitVec]) -> Vec<u8> {
    let mut acc = BitVec::empty();
    for a in args {
        acc = acc.concat(a);
    }
    let w = acc.width();
    let padded = if w.is_multiple_of(8) {
        acc
    } else {
        // Left-pad to a byte boundary (value-preserving).
        acc.zext(w + (8 - w % 8))
    };
    padded.to_bytes_be()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csum16_known_vector() {
        // RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 220d (one's
        // complement of ddf2).
        let data = BitVec::from_bytes_be(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
        let c = csum16(&[data], 16);
        assert_eq!(c.to_u64(), Some(0x220d));
    }

    #[test]
    fn csum16_verifies_to_zero() {
        // Including the checksum in the sum yields 0xFFFF before complement.
        let data = BitVec::from_bytes_be(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
        let c = csum16(std::slice::from_ref(&data), 16);
        let total = csum16(&[data, c], 16);
        assert_eq!(total.to_u64(), Some(0));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926.
        let data = BitVec::from_bytes_be(b"123456789");
        assert_eq!(crc32(&[data], 32).to_u64(), Some(0xCBF43926));
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/ARC("123456789") = 0xBB3D.
        let data = BitVec::from_bytes_be(b"123456789");
        assert_eq!(crc16(&[data], 16).to_u64(), Some(0xBB3D));
    }

    #[test]
    fn identity_concatenates_and_casts() {
        let a = BitVec::from_u64(8, 0xAB);
        let b = BitVec::from_u64(8, 0xCD);
        assert_eq!(identity(&[a, b], 16).to_u64(), Some(0xABCD));
    }

    #[test]
    fn resolve_simple_binding() {
        // result = csum16(x) with x otherwise unconstrained; the loop must
        // find a consistent concrete assignment.
        let pool = TermPool::new();
        let mut solver = Solver::new();
        let reg = ConcolicRegistry::with_builtins();
        let x = pool.fresh_var("x", 32);
        let r = pool.fresh_var("csum_result", 16);
        let bindings = vec![ConcolicBinding { func: "csum16".into(), args: vec![x], result: r }];
        let eqs = resolve_concolics(&pool, &mut solver, &mut VarWalk::default(), &reg, &bindings, &[], 3)
            .expect("resolvable");
        assert!(!eqs.is_empty());
    }

    #[test]
    fn resolve_fails_on_contradiction() {
        // Constrain result != csum16(x) for the concrete x chosen — since x
        // is pinned by a path constraint, no retry can succeed.
        let pool = TermPool::new();
        let mut solver = Solver::new();
        let reg = ConcolicRegistry::with_builtins();
        let x = pool.fresh_var("x", 32);
        let xc = pool.const_u128(32, 0x01020304);
        let pin = pool.eq(x, xc);
        let r = pool.fresh_var("csum_result", 16);
        let expected = csum16(&[BitVec::from_u128(32, 0x01020304)], 16);
        let wrong = expected.add(&BitVec::from_u64(16, 1));
        let wrong_c = pool.constant(wrong);
        let pin_r = pool.eq(r, wrong_c);
        let bindings = vec![ConcolicBinding { func: "csum16".into(), args: vec![x], result: r }];
        let out =
            resolve_concolics(&pool, &mut solver, &mut VarWalk::default(), &reg, &bindings, &[pin, pin_r], 2);
        assert!(out.is_none());
    }
}
