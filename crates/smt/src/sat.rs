//! A CDCL SAT solver with two-watched literals, VSIDS branching, first-UIP
//! clause learning, phase saving and Luby restarts.
//!
//! This plays the role Z3's SAT core plays in the paper: path constraints are
//! bit-blasted (see [`crate::blast`]) into CNF and solved here. The design
//! follows MiniSat's architecture, favoring clarity over heroic optimization —
//! the paper itself reports that constraint solving is under 10% of P4Testgen
//! CPU time (Fig. 7), a property our Fig. 7 harness re-measures.
//!
//! Variables cost nothing until a clause mentions them. The blaster creates
//! every bit of a variable even when a constraint touches one slice of it,
//! so most variables of a check occur in no clause. Attaching a clause marks
//! its variables as occurring, and a solve fills the decision heap with
//! var 0 and the occurring, unassigned variables not yet in it, in index
//! order. Any other variable is never decided: [`SatSolver::model_value`]
//! reads its saved phase (`false`, or the [`SatSolver::seed_phases`]
//! scramble), the value a decision on it would have taken. Until the first
//! conflict every activity is equal, and the heap pops its root and then
//! the rest from the back, so decisions go var 0 first, then by descending
//! index, with or without the clause-free variables in between; a decision
//! on one of those propagated nothing. Leaving them out therefore changes
//! no model of a conflict-free search.

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SatVar(pub u32);

/// A literal: variable plus sign. `Lit(2v)` is the positive literal of `v`,
/// `Lit(2v + 1)` the negative one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    pub fn positive(v: SatVar) -> Lit {
        Lit(v.0 << 1)
    }
    pub fn negative(v: SatVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }
    pub fn new(v: SatVar, positive: bool) -> Lit {
        if positive {
            Lit::positive(v)
        } else {
            Lit::negative(v)
        }
    }
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }
    /// True if this is the positive polarity.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Result of a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    Sat,
    Unsat,
    /// The solve budget was exhausted before a verdict was reached. The
    /// solver state stays consistent: clauses (including those learnt during
    /// the attempt) persist, and a later solve may still answer Sat/Unsat.
    Unknown,
}

/// Resource budget for one [`SatSolver::solve_budgeted`] call. A zero field
/// means "unlimited" for that resource; [`SolveBudget::default`] is fully
/// unlimited. Budgets are what make the engine degrade gracefully instead of
/// stalling a whole run on one pathological path (the role timeouts play for
/// Z3 in the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum conflicts before giving up.
    pub conflicts: u64,
    /// Maximum decisions before giving up.
    pub decisions: u64,
    /// Maximum propagations before giving up.
    pub propagations: u64,
}

impl SolveBudget {
    /// No limits at all (the default).
    pub const UNLIMITED: SolveBudget = SolveBudget { conflicts: 0, decisions: 0, propagations: 0 };

    /// A conflict-count budget (the usual knob; conflicts dominate runtime
    /// on hard instances).
    pub fn conflicts(n: u64) -> SolveBudget {
        SolveBudget { conflicts: n, ..Self::UNLIMITED }
    }

    pub fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }
}

/// One step of splitmix64 — used for deterministic phase scrambling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Value {
    True,
    False,
    Unassigned,
}

impl Value {
    fn from_bool(b: bool) -> Value {
        if b {
            Value::True
        } else {
            Value::False
        }
    }
    fn negate(self) -> Value {
        match self {
            Value::True => Value::False,
            Value::False => Value::True,
            Value::Unassigned => Value::Unassigned,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ClauseRef(u32);

/// A clause header; its literals are `SatSolver::lits[start..start + len]`.
#[derive(PartialEq, Debug)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    /// Activity for learnt-clause reduction.
    activity: f64,
    deleted: bool,
}

/// Upper bounds (inclusive) for the learnt-clause-size histogram in
/// [`SatStats`]; an implicit overflow bucket follows the last bound. The
/// bounds are part of the stats schema — the observability layer registers
/// its `p4testgen_sat_learnt_clause_size` histogram with these exact bounds
/// so pre-bucketed counts fold in without re-sampling.
pub const LEARNT_SIZE_BOUNDS: [u64; 8] = [1, 2, 3, 4, 8, 16, 32, 64];

/// Statistics from the solver, surfaced in the Fig. 7 harness and folded
/// into the metrics registry by the exploration engine.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct SatStats {
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub restarts: u64,
    pub learnt_clauses: u64,
    /// Total literals across all learnt clauses (mean size = literals/clauses).
    pub learnt_literals: u64,
    /// Non-cumulative learnt-clause-size histogram: cell `i` counts clauses
    /// with `len <= LEARNT_SIZE_BOUNDS[i]`; the final cell is the overflow.
    pub learnt_size_hist: [u64; LEARNT_SIZE_BOUNDS.len() + 1],
}

impl SatStats {
    pub fn absorb(&mut self, other: &SatStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.learnt_literals += other.learnt_literals;
        for (t, o) in self.learnt_size_hist.iter_mut().zip(other.learnt_size_hist.iter()) {
            *t += o;
        }
    }
}

/// The solver. Variables are created with [`SatSolver::new_var`] or
/// [`SatSolver::new_vars`], clauses added with [`SatSolver::add_clause`],
/// and satisfiability queried with
/// [`SatSolver::solve`]. The facade in [`crate::solver`] builds one
/// instance per check, on storage recycled with [`SatSolver::reset`].
pub struct SatSolver {
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back, so adding a clause allocates
    /// nothing once the arena has grown (deleted clauses keep their slots).
    lits: Vec<Lit>,
    watches: Vec<Vec<ClauseRef>>,
    assigns: Vec<Value>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    /// The decision heap: var 0 and the variables some attached clause
    /// mentions (see the module docs).
    heap: Vec<SatVar>,
    heap_pos: Vec<Option<u32>>,
    phases: Vec<bool>,
    /// Whether an attached clause mentions the variable.
    occurs: Vec<bool>,
    // scratch for analyze
    seen: Vec<bool>,
    ok: bool,
    cla_inc: f64,
    pub stats: SatStats,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    pub fn new() -> Self {
        SatSolver {
            clauses: Vec::new(),
            lits: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phases: Vec::new(),
            occurs: Vec::new(),
            seen: Vec::new(),
            ok: true,
            cla_inc: 1.0,
            stats: SatStats::default(),
        }
    }

    /// Return to the state [`SatSolver::new`] builds — no variables, no
    /// clauses, default scalars and zeroed `stats` — while keeping every
    /// vector's capacity, including each watch list's. A reset instance is
    /// state-equal to a new one, so the variables, clauses and solves fed
    /// to it afterwards behave exactly as on a new instance.
    pub fn reset(&mut self) {
        self.clauses.clear();
        self.lits.clear();
        // Watch lists stay allocated; `new_var` clears a slot as it reuses it.
        self.assigns.clear();
        self.levels.clear();
        self.reasons.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.heap.clear();
        self.heap_pos.clear();
        self.phases.clear();
        self.occurs.clear();
        self.seen.clear();
        self.ok = true;
        self.cla_inc = 1.0;
        self.stats = SatStats::default();
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Create a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        self.new_vars(1)
    }

    /// Create `n` consecutive fresh variables and return the first. A
    /// variable enters the decision heap only once a clause mentions it.
    pub fn new_vars(&mut self, n: usize) -> SatVar {
        let first = self.assigns.len();
        let total = first + n;
        self.assigns.resize(total, Value::Unassigned);
        self.levels.resize(total, 0);
        self.reasons.resize(total, None);
        self.activity.resize(total, 0.0);
        self.phases.resize(total, false);
        self.occurs.resize(total, false);
        self.seen.resize(total, false);
        self.heap_pos.resize(total, None);
        // Watch lists past the live variables stay allocated after a reset;
        // clear the reused ones and grow the rest.
        let reused = self.watches.len().min(2 * total);
        for w in &mut self.watches[2 * first..reused] {
            w.clear();
        }
        if self.watches.len() < 2 * total {
            self.watches.resize_with(2 * total, Vec::new);
        }
        SatVar(first as u32)
    }

    fn value_lit(&self, l: Lit) -> Value {
        let v = self.assigns[l.var().0 as usize];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Model value of a variable after a `Sat` result. A variable no
    /// clause mentions is never decided and reads its saved phase: the
    /// value a decision on it would have taken.
    pub fn model_value(&self, v: SatVar) -> bool {
        match self.assigns[v.0 as usize] {
            Value::True => true,
            Value::False => false,
            Value::Unassigned => self.phases[v.0 as usize],
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause. Returns `false` if the formula became trivially unsat.
    /// If a model from a previous solve is still live, it is invalidated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // Simplify into the arena's tail: drop duplicate/false literals,
        // detect tautology/satisfied. The tail becomes the clause's
        // literals, or is truncated away.
        let start = self.lits.len();
        for &l in lits {
            let cl = &self.lits[start..];
            match self.value_lit(l) {
                Value::True => {
                    // already satisfied at level 0
                    self.lits.truncate(start);
                    return true;
                }
                Value::False => continue,
                Value::Unassigned => {
                    if cl.contains(&l.negate()) {
                        self.lits.truncate(start);
                        return true; // tautology
                    }
                    if !cl.contains(&l) {
                        self.lits.push(l);
                    }
                }
            }
        }
        match self.lits.len() - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.lits.pop().unwrap();
                self.enqueue(unit, None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_tail(start, false);
                true
            }
        }
    }

    /// Attach the clause whose literals are `lits[start..]`, marking its
    /// variables as occurring.
    fn attach_tail(&mut self, start: usize, learnt: bool) -> ClauseRef {
        let len = self.lits.len() - start;
        debug_assert!(len >= 2);
        for l in &self.lits[start..] {
            self.occurs[l.var().0 as usize] = true;
        }
        let cref = ClauseRef(self.clauses.len() as u32);
        self.watches[self.lits[start].negate().index()].push(cref);
        self.watches[self.lits[start + 1].negate().index()].push(cref);
        self.clauses.push(Clause {
            start: start as u32,
            len: len as u32,
            learnt,
            activity: 0.0,
            deleted: false,
        });
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), Value::Unassigned);
        let v = l.var().0 as usize;
        self.assigns[v] = Value::from_bool(l.is_positive());
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.phases[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Boolean constraint propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ~p need inspection. `p` was assigned true,
            // so clauses containing ~p may have lost a watch.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let cref = ws[i];
                let c = &self.clauses[cref.0 as usize];
                if c.deleted {
                    ws.swap_remove(i);
                    continue;
                }
                let (start, end) = (c.start as usize, (c.start + c.len) as usize);
                // Normalize so the clause's first literal is the other
                // watched one.
                let false_lit = p.negate();
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                debug_assert_eq!(self.lits[start + 1], false_lit);
                let first = self.lits[start];
                if self.value_lit(first) == Value::True {
                    i += 1;
                    continue;
                }
                // Search for a replacement watch.
                for k in start + 2..end {
                    let lk = self.lits[k];
                    if self.value_lit(lk) != Value::False {
                        self.lits.swap(start + 1, k);
                        self.watches[lk.negate().index()].push(cref);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // No replacement: clause is unit or conflicting.
                if self.value_lit(first) == Value::False {
                    // Conflict. Restore remaining watches and return.
                    self.watches[p.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[p.index()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: SatVar) {
        let vi = v.0 as usize;
        self.activity[vi] += self.var_inc;
        if self.activity[vi] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.heap_update(v);
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        let ci = c.0 as usize;
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > RESCALE_LIMIT {
            for cl in &mut self.clauses {
                cl.activity *= 1.0 / RESCALE_LIMIT;
            }
            self.cla_inc *= 1.0 / RESCALE_LIMIT;
        }
    }

    /// Conflict analysis producing a first-UIP learnt clause and the level to
    /// backtrack to. The clause is built in place at the tail of the literal
    /// arena, from the returned index; the UIP comes first.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (usize, u32) {
        let tail = self.lits.len();
        self.lits.push(Lit(0)); // slot 0 reserved for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        loop {
            self.bump_clause(conflict);
            let Clause { start, len, .. } = self.clauses[conflict.0 as usize];
            let skip = usize::from(p.is_some());
            for k in (start + skip as u32) as usize..(start + len) as usize {
                let q = self.lits[k];
                let qv = q.var().0 as usize;
                if self.seen[qv] || self.levels[qv] == 0 {
                    continue;
                }
                self.seen[qv] = true;
                self.bump_var(q.var());
                if self.levels[qv] == self.decision_level() {
                    counter += 1;
                } else {
                    self.lits.push(q);
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            conflict = self.reasons[pv].expect("non-decision literal must have a reason");
        }
        let learnt = &mut self.lits[tail..];
        learnt[0] = p.unwrap().negate();
        // Backtrack level: second-highest level in the learnt clause.
        let mut bt = 0u32;
        let mut max_i = 1usize;
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let lv = self.levels[l.var().0 as usize];
            if lv > bt {
                bt = lv;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i);
        }
        for &l in learnt.iter() {
            self.seen[l.var().0 as usize] = false;
        }
        (tail, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var();
                self.assigns[v.0 as usize] = Value::Unassigned;
                self.reasons[v.0 as usize] = None;
                if self.heap_pos[v.0 as usize].is_none() {
                    self.heap_insert(v);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.0 as usize] == Value::Unassigned {
                return Some(Lit::new(v, self.phases[v.0 as usize]));
            }
        }
        None
    }

    /// Reduce the learnt clause database, keeping the more active half.
    fn reduce_db(&mut self) {
        let mut learnts: Vec<(f64, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted && c.len > 2)
            .map(|(i, c)| (c.activity, i))
            .collect();
        learnts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let locked: Vec<bool> = learnts
            .iter()
            .map(|&(_, i)| {
                let first = self.lits[self.clauses[i].start as usize];
                self.reasons[first.var().0 as usize] == Some(ClauseRef(i as u32))
            })
            .collect();
        for (k, &(_, i)) in learnts.iter().take(learnts.len() / 2).enumerate() {
            if !locked[k] {
                self.clauses[i].deleted = true;
            }
        }
    }

    /// Deterministically scramble the saved phases from `seed`. A zero seed
    /// is the identity (leaves phases untouched). Used by the facade's
    /// retry-with-rotated-seed path: a different initial polarity explores
    /// the search space in a different order, which often lets a retry of a
    /// budget-exhausted query finish within the same budget.
    pub fn seed_phases(&mut self, seed: u64) {
        if seed == 0 {
            return;
        }
        for (v, phase) in self.phases.iter_mut().enumerate() {
            *phase = splitmix64(seed ^ (v as u64)) & 1 == 1;
        }
    }

    /// Solve the clauses added so far. Learned clauses persist.
    pub fn solve(&mut self) -> SatResult {
        self.solve_budgeted(&SolveBudget::UNLIMITED)
    }

    /// Solve under a resource budget. Returns [`SatResult::Unknown`] when
    /// the budget is exhausted; the solver state remains consistent and
    /// reusable (budgets never mark the instance unsat, and clauses learnt
    /// during the attempt are kept).
    pub fn solve_budgeted(&mut self, budget: &SolveBudget) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        self.fill_heap();
        let start_conflicts = self.stats.conflicts;
        let start_decisions = self.stats.decisions;
        let start_propagations = self.stats.propagations;
        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 0u32;
        let mut restart_limit = 32 * luby(restart_idx);
        let mut max_learnts = (self.clauses.len() as f64 * 0.5).max(2000.0);
        loop {
            if !budget.is_unlimited() {
                let over = (budget.conflicts > 0
                    && self.stats.conflicts - start_conflicts >= budget.conflicts)
                    || (budget.decisions > 0
                        && self.stats.decisions - start_decisions >= budget.decisions)
                    || (budget.propagations > 0
                        && self.stats.propagations - start_propagations >= budget.propagations);
                if over {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (start, bt_level) = self.analyze(conflict);
                self.backtrack(bt_level);
                let size = self.lits.len() - start;
                self.stats.learnt_clauses += 1;
                self.stats.learnt_literals += size as u64;
                self.stats.learnt_size_hist
                    [LEARNT_SIZE_BOUNDS.partition_point(|&b| b < size as u64)] += 1;
                let uip = self.lits[start];
                if size == 1 {
                    self.lits.truncate(start);
                    if self.decision_level() > 0 {
                        self.backtrack(0);
                    }
                    if self.value_lit(uip) == Value::False {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    if self.value_lit(uip) == Value::Unassigned {
                        self.enqueue(uip, None);
                    }
                } else {
                    // The learnt clause is asserting at the backtrack level.
                    let cref = self.attach_tail(start, true);
                    if self.value_lit(uip) == Value::Unassigned {
                        self.enqueue(uip, Some(cref));
                    }
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if self.stats.learnt_clauses > max_learnts as u64 {
                    self.reduce_db();
                    max_learnts *= 1.3;
                }
            } else {
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    restart_limit = 32 * luby(restart_idx);
                    conflicts_since_restart = 0;
                    self.backtrack(0);
                    continue;
                }
                match self.pick_branch() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    // ---- activity-ordered heap ------------------------------------------

    /// Insert var 0 and every occurring, unassigned variable not yet in the
    /// heap, in index order.
    fn fill_heap(&mut self) {
        for v in 0..self.num_vars() {
            let wanted = v == 0 || (self.occurs[v] && self.assigns[v] == Value::Unassigned);
            if wanted && self.heap_pos[v].is_none() {
                self.heap_insert(SatVar(v as u32));
            }
        }
    }

    fn heap_less(&self, a: SatVar, b: SatVar) -> bool {
        self.activity[a.0 as usize] > self.activity[b.0 as usize]
    }

    fn heap_insert(&mut self, v: SatVar) {
        let i = self.heap.len();
        self.heap.push(v);
        self.heap_pos[v.0 as usize] = Some(i as u32);
        self.heap_up(i);
    }

    fn heap_pop(&mut self) -> Option<SatVar> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.0 as usize] = None;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.0 as usize] = Some(0);
            self.heap_down(0);
        }
        Some(top)
    }

    fn heap_update(&mut self, v: SatVar) {
        if let Some(i) = self.heap_pos[v.0 as usize] {
            self.heap_up(i as usize);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].0 as usize] = Some(i as u32);
        self.heap_pos[self.heap[j].0 as usize] = Some(j as u32);
    }
}

#[cfg(test)]
impl SatSolver {
    /// Assert that `self` and `other` are in the same logical state: every
    /// field equal, watch lists compared over the live variables' slots
    /// (a reset instance keeps the others allocated and empty-on-reuse).
    /// Destructures both, so a new field fails to compile until it is
    /// compared here — and, by the same token, handled in `reset`.
    pub(crate) fn assert_same_state(&self, other: &SatSolver) {
        let SatSolver {
            clauses,
            lits,
            watches,
            assigns,
            levels,
            reasons,
            trail,
            trail_lim,
            qhead,
            activity,
            var_inc,
            heap,
            heap_pos,
            phases,
            occurs,
            seen,
            ok,
            cla_inc,
            stats,
        } = self;
        let live = 2 * assigns.len();
        assert_eq!(assigns, &other.assigns);
        assert_eq!(clauses, &other.clauses);
        assert_eq!(lits, &other.lits);
        assert_eq!(&watches[..live], &other.watches[..live]);
        assert_eq!(levels, &other.levels);
        assert_eq!(reasons, &other.reasons);
        assert_eq!(trail, &other.trail);
        assert_eq!(trail_lim, &other.trail_lim);
        assert_eq!(qhead, &other.qhead);
        assert_eq!(activity, &other.activity);
        assert_eq!(var_inc, &other.var_inc);
        assert_eq!(heap, &other.heap);
        assert_eq!(heap_pos, &other.heap_pos);
        assert_eq!(phases, &other.phases);
        assert_eq!(occurs, &other.occurs);
        assert_eq!(seen, &other.seen);
        assert_eq!(ok, &other.ok);
        assert_eq!(cla_inc, &other.cla_inc);
        assert_eq!(stats, &other.stats);
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) < (i as u64 + 2) {
        k += 1;
    }
    if (1u64 << k) == i as u64 + 2 {
        return 1u64 << (k - 1);
    }
    luby(i + 1 - (1u32 << (k - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut SatSolver, n: usize) -> Vec<SatVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::positive(v)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::positive(v)]);
        s.add_clause(&[Lit::negative(v)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = SatSolver::new();
        let vs = lits(&mut s, 10);
        for w in vs.windows(2) {
            s.add_clause(&[Lit::negative(w[0]), Lit::positive(w[1])]);
        }
        s.add_clause(&[Lit::positive(vs[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vs {
            assert!(s.model_value(v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = SatSolver::new();
        let mut p = [[SatVar(0); 2]; 3];
        for row in &mut p {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::positive(row[0]), Lit::positive(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    s.add_clause(&[Lit::negative(p[i1][j]), Lit::negative(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let vs = lits(&mut s, 3);
        s.add_clause(&[Lit::positive(vs[0]), Lit::positive(vs[1])]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[Lit::negative(vs[0])]);
        s.add_clause(&[Lit::negative(vs[1])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn random_3sat_consistency() {
        // Random 3-SAT at low clause density must be satisfiable and the
        // model must satisfy every clause.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let mut s = SatSolver::new();
            let n = 30;
            let vs = lits(&mut s, n);
            let mut cls = Vec::new();
            for _ in 0..60 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = vs[(next() % n as u64) as usize];
                        Lit::new(v, next() % 2 == 0)
                    })
                    .collect();
                cls.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve() == SatResult::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|l| s.model_value(l.var()) == l.is_positive()),
                        "model violates clause"
                    );
                }
            }
        }
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }

    /// Pigeonhole n+1 pigeons into n holes (unsat, needs many conflicts).
    fn pigeonhole(s: &mut SatSolver, holes: usize) {
        let pigeons = holes + 1;
        let p: Vec<Vec<SatVar>> =
            (0..pigeons).map(|_| (0..holes).map(|_| s.new_var()).collect()).collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|&v| Lit::positive(v)).collect();
            s.add_clause(&lits);
        }
        for i1 in 0..pigeons {
            for i2 in i1 + 1..pigeons {
                for (&a, &b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[Lit::negative(a), Lit::negative(b)]);
                }
            }
        }
    }

    #[test]
    fn conflict_budget_returns_unknown_then_recovers() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 6);
        assert_eq!(
            s.solve_budgeted(&SolveBudget::conflicts(3)),
            SatResult::Unknown,
            "PH(7,6) cannot be refuted in 3 conflicts"
        );
        // The same instance must still answer Unsat without a budget —
        // Unknown leaves the solver consistent, it does not poison it.
        assert_eq!(s.solve(), SatResult::Unsat);
        // A refutation this long crosses the Luby restart schedule.
        assert!(s.stats.restarts > 0, "PH(7,6) finished without a restart");
    }

    #[test]
    fn decision_budget_returns_unknown_on_easy_sat() {
        // 8 independent binary clauses need roughly one decision each; a
        // 3-decision budget cannot finish, but unlimited solving can.
        let mut s = SatSolver::new();
        for _ in 0..8 {
            let a = s.new_var();
            let b = s.new_var();
            s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        }
        let b = SolveBudget { decisions: 3, ..SolveBudget::UNLIMITED };
        assert_eq!(s.solve_budgeted(&b), SatResult::Unknown);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unlimited_budget_matches_plain_solve() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 3);
        assert_eq!(s.solve_budgeted(&SolveBudget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn seeded_phases_keep_models_valid() {
        // Phase scrambling may change *which* model is found, never whether
        // one is found; the found model must still satisfy every clause.
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut s = SatSolver::new();
            let vs = lits(&mut s, 12);
            let mut cls = Vec::new();
            for w in vs.windows(3) {
                let c = vec![Lit::positive(w[0]), Lit::negative(w[1]), Lit::positive(w[2])];
                s.add_clause(&c);
                cls.push(c);
            }
            s.seed_phases(seed);
            assert_eq!(s.solve(), SatResult::Sat, "seed {seed}");
            for c in &cls {
                assert!(c.iter().any(|l| s.model_value(l.var()) == l.is_positive()));
            }
        }
    }

    /// Random 3-SAT over `n` variables at the given clause count.
    fn random_3sat(s: &mut SatSolver, n: usize, clauses: usize, mut seed: u64) {
        let vs = lits(s, n);
        for _ in 0..clauses {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    seed = splitmix64(seed);
                    Lit::new(vs[(seed % n as u64) as usize], seed & (1 << 40) != 0)
                })
                .collect();
            s.add_clause(&c);
        }
    }

    #[test]
    fn reset_instance_matches_a_new_one() {
        // One instance, reset before every job, must end each job in exactly
        // the state a new instance reaches: same verdict, model, learnt
        // clauses, activities, phases and stats. The jobs leave behind what a
        // reset has to undo: a latched Unsat, a budget-exhausted search,
        // scrambled phases, restarts and a learnt-clause reduction.
        type Job = fn(&mut SatSolver) -> SatResult;
        let jobs: [Job; 6] = [
            |s| {
                pigeonhole(s, 6);
                s.solve_budgeted(&SolveBudget::conflicts(3))
            },
            |s| {
                random_3sat(s, 40, 120, 1);
                s.seed_phases(0xDEAD_BEEF);
                s.solve()
            },
            |s| {
                random_3sat(s, 150, 640, 2);
                let r = s.solve();
                assert!(s.stats.learnt_clauses > 2000, "no learnt-clause reduction ran");
                assert!(s.stats.restarts > 0, "no restart ran");
                r
            },
            |s| {
                let v = s.new_var();
                s.add_clause(&[Lit::positive(v)]);
                s.add_clause(&[Lit::negative(v)]);
                s.solve()
            },
            |s| {
                random_3sat(s, 30, 60, 3);
                s.seed_phases(7);
                s.solve_budgeted(&SolveBudget { decisions: 4, ..SolveBudget::UNLIMITED })
            },
            |s| {
                let vs = lits(s, 3);
                s.add_clause(&[Lit::negative(vs[0]), Lit::positive(vs[1])]);
                s.add_clause(&[Lit::positive(vs[0]), Lit::negative(vs[2])]);
                s.solve()
            },
        ];
        let mut reused = SatSolver::new();
        let mut verdicts = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            reused.reset();
            let mut new = SatSolver::new();
            reused.assert_same_state(&new);
            let (r, n) = (job(&mut reused), job(&mut new));
            assert_eq!(r, n, "job {i}: verdicts differ");
            reused.assert_same_state(&new);
            verdicts.push(r);
        }
        for want in [SatResult::Sat, SatResult::Unsat, SatResult::Unknown] {
            assert!(verdicts.contains(&want), "no job answered {want:?}");
        }
    }

    #[test]
    fn a_variable_first_mentioned_after_a_solve_is_decided_next() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::positive(v[0])]);
        s.add_clause(&[Lit::positive(v[1]), Lit::positive(v[2])]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Only the clause's variables are searched: v2 is decided false and
        // v1 propagates; v3 is never decided and reads its saved phase.
        assert_eq!((s.stats.decisions, s.stats.propagations), (1, 3));
        assert!(s.model_value(v[1]) && !s.model_value(v[2]) && !s.model_value(v[3]));
        let w = s.new_var();
        s.add_clause(&[Lit::positive(v[3]), Lit::positive(w)]);
        assert_eq!(s.solve(), SatResult::Sat);
        let decided = |x: SatVar| s.levels[x.0 as usize] > 0 && s.reasons[x.0 as usize].is_none();
        assert!(decided(w), "the newly mentioned variable was not decided");
        assert!(!s.model_value(w) && s.model_value(v[3]), "the new clause is not satisfied");
    }

    /// A random CNF of `clauses` clauses of 2–3 literals over `n` variables.
    fn random_cnf(n: usize, clauses: usize, mut seed: u64) -> Vec<Vec<(usize, bool)>> {
        let mut next = move || {
            seed = splitmix64(seed);
            seed
        };
        (0..clauses)
            .map(|_| {
                let len = 2 + (next() % 2) as usize;
                (0..len).map(|_| ((next() % n as u64) as usize, next() & 1 == 1)).collect()
            })
            .collect()
    }

    proptest::proptest! {
        /// Inserting variables no clause mentions, anywhere after var 0, must
        /// not change the search over the others: same verdict, same stats,
        /// same model, under default or scrambled phases. Each inserted
        /// variable reads its saved phase.
        #[test]
        fn clause_free_variables_change_no_search(
            seed: u64,
            n in 1usize..60,
            tenths in 0usize..60,
            extra in 1usize..24,
            phase_seed in 0u64..3,
        ) {
            let cnf = random_cnf(n, tenths * n / 10, seed);
            // `at[i]`: base variable i's index in the padded instance.
            let mut rng = splitmix64(seed ^ 0xA5A5);
            let mut at = vec![0usize];
            let (mut placed, mut inserted) = (1, 0);
            while placed < n {
                rng = splitmix64(rng);
                if inserted < extra && rng.is_multiple_of(3) {
                    inserted += 1;
                } else {
                    at.push(placed + inserted);
                    placed += 1;
                }
            }
            let total = n + extra;
            let (mut base, mut padded) = (SatSolver::new(), SatSolver::new());
            base.new_vars(n);
            padded.new_vars(total);
            padded.seed_phases(phase_seed);
            for (i, &j) in at.iter().enumerate() {
                base.phases[i] = padded.phases[j];
            }
            let lit = |v: usize, pos: bool| Lit::new(SatVar(v as u32), pos);
            for c in &cnf {
                base.add_clause(&c.iter().map(|&(v, pos)| lit(v, pos)).collect::<Vec<_>>());
                padded.add_clause(&c.iter().map(|&(v, pos)| lit(at[v], pos)).collect::<Vec<_>>());
            }
            let verdict = base.solve();
            proptest::prop_assert_eq!(verdict, padded.solve());
            proptest::prop_assert_eq!(&base.stats, &padded.stats);
            if verdict == SatResult::Sat {
                for (i, &j) in at.iter().enumerate() {
                    let (b, p) = (SatVar(i as u32), SatVar(j as u32));
                    proptest::prop_assert_eq!(base.model_value(b), padded.model_value(p));
                }
                for x in (1..total).filter(|x| !at.contains(x)) {
                    proptest::prop_assert_eq!(padded.model_value(SatVar(x as u32)), padded.phases[x]);
                }
            }
        }
    }

    #[test]
    fn xor_constraint_all_solutions_reachable() {
        // Encode a XOR b (CNF) and enumerate both solutions via blocking.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        s.add_clause(&[Lit::negative(a), Lit::negative(b)]);
        let mut solutions = Vec::new();
        while s.solve() == SatResult::Sat {
            let m = (s.model_value(a), s.model_value(b));
            solutions.push(m);
            s.add_clause(&[Lit::new(a, !m.0), Lit::new(b, !m.1)]);
        }
        solutions.sort();
        assert_eq!(solutions, vec![(false, true), (true, false)]);
    }
}
