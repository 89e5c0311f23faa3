//! # p4t-smt — the constraint-solving substrate for p4testgen
//!
//! The paper's P4Testgen encodes path constraints as `QF_BV` formulas and
//! solves them with Z3 in incremental mode. No Z3 binding is available in
//! this build environment, so this crate implements the needed slice of an
//! SMT solver from scratch:
//!
//! * [`bitvec::BitVec`] — arbitrary-precision fixed-width bitvector values
//!   with SMT-LIB semantics (modular arithmetic, `udiv`-by-zero = all-ones).
//! * [`term::TermPool`] — a hash-consed term DAG with constant folding and
//!   the algebraic simplifications the paper's taint mitigation relies on.
//!   Interning is `&self` and thread-safe: storage is an [`arena::Arena`]
//!   (append-only, lock-free reads) and the consing maps are sharded, so
//!   one pool serves all exploration workers concurrently.
//! * [`blast::Blaster`] — Tseitin bit-blasting of terms into CNF, cached per
//!   term so shared path-prefix structure is encoded once.
//! * [`sat::SatSolver`] — a CDCL SAT solver (two-watched literals, VSIDS,
//!   first-UIP learning, Luby restarts).
//! * [`simplify`] — term-level preprocessing for feasibility checks:
//!   constant folding over the conjunction and equality/substitution
//!   propagation along the trail, re-interned so the blast cache is keyed
//!   on simplified structure.
//! * [`solver::Solver`] — the facade used by the symbolic executor, with
//!   timing statistics for the Fig. 7 experiment. Every check binds its
//!   constraint list into a fresh instance on recycled storage; verdict-only
//!   feasibility checks run the simplifier first.
//! * [`mod@eval`] — reference concrete evaluation of terms, used for model
//!   checking, concolic execution, and cross-validation property tests.
//!
//! The crate is fully synchronous (SAT solving is CPU-bound, so per the
//! Tokio guidance there is no async here); its only dependency is
//! `parking_lot`, for the term pool's sharded interning locks.

pub mod arena;
pub mod bitvec;
pub mod blast;
pub mod eval;
pub mod fingerprint;
pub mod sat;
pub mod simplify;
pub mod solver;
pub mod term;

pub use bitvec::BitVec;
pub use eval::{eval, Assignment};
pub use fingerprint::stable_fingerprint;
pub use sat::SolveBudget;
pub use simplify::SimplifyStats;
pub use solver::{CheckResult, IncrementalStats, Solver};
pub use term::{BinOp, Node, TermId, TermPool, VarId, VarWalk};
