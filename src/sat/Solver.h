//===--- Solver.h - CDCL SAT solver with cardinality constraints -*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver with *native* Boolean
/// cardinality constraints (AtMost-k / AtLeast-k via counting propagation),
/// standing in for Sat4J in the original system. The synthesis encoder of
/// Section 4 / Appendix C emits both CNF clauses and the pseudo-Boolean
/// inequalities of Figure 14 directly to this interface.
///
/// Features: two-watched-literal propagation, first-UIP clause learning with
/// reason-based minimization, EVSIDS variable activities, phase saving, Luby
/// restarts, learned-clause reduction, assumption-based incremental solving,
/// and incremental clause addition between solve() calls (used by
/// Algorithm 1's model-blocking loop).
///
/// After a Sat answer the solver keeps the assumption levels (their
/// propagated trail) instead of returning to the root, and the next solve()
/// under the same assumption vector resumes from them. A clause added in
/// between is watched directly when two of its literals are not false under
/// the kept assignment; every other change - a clause unit or falsified
/// under it, a root unit, an at-most constraint, simplify(), different
/// assumptions, an Unsat or Unknown answer - first returns to the root.
/// Clause normalization reads root values only, so the stored formula and
/// formulaDigest() do not depend on whether levels were kept. Solves
/// without assumptions always start from the root (DESIGN.md 5k).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SAT_SOLVER_H
#define SYRUST_SAT_SOLVER_H

#include "sat/SatTypes.h"

#include <cstdint>
#include <vector>

namespace syrust::obs {
class Counter;
class Histogram;
class Recorder;
} // namespace syrust::obs

namespace syrust::sat {

/// Aggregate search statistics, exposed for the micro benchmarks.
struct SolverStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t LearnedClauses = 0;
  uint64_t DeletedClauses = 0;
  uint64_t CardPropagations = 0;
  /// Trail entries above the root that solves resumed from instead of
  /// re-deriving (assumption levels kept from the previous Sat answer).
  uint64_t KeptAssignments = 0;
  /// Variables taken off the VSIDS order heap, assigned ones included:
  /// by a pop, or by the one-pass clear at a complete assignment.
  uint64_t HeapPops = 0;
};

/// CDCL solver. Not thread-safe; create one per synthesis task.
class Solver {
public:
  Solver();
  ~Solver();

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Creates a fresh variable and returns its index.
  Var newVar();

  /// Number of variables created so far.
  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause (disjunction of \p Lits). Returns false if the solver
  /// became inconsistent at the root level (the clause, together with prior
  /// constraints, is unsatisfiable without search).
  bool addClause(std::vector<Lit> Lits);

  /// Convenience overloads.
  bool addClause(Lit A);
  bool addClause(Lit A, Lit B);
  bool addClause(Lit A, Lit B, Lit C);

  /// Adds the constraint "at most \p K of \p Lits are true".
  bool addAtMost(std::vector<Lit> Lits, int K);

  /// Adds the constraint "at least \p K of \p Lits are true".
  bool addAtLeast(std::vector<Lit> Lits, int K);

  /// Adds the constraint "exactly \p K of \p Lits are true".
  bool addExactly(const std::vector<Lit> &Lits, int K);

  /// Order-sensitive digest of every constraint received so far: each
  /// clause as its sorted literal list (before root simplification) and
  /// each at-most constraint as its bound and its literals in the order
  /// given. Solvers fed the same constraint sequence over the same
  /// variable numbering report the same digest, so a formula can be
  /// compared across builds.
  uint64_t formulaDigest() const { return Digest; }

  /// Detaches clauses satisfied at the root level (problem and learned)
  /// from the watch lists. Incremental clients that retire whole clause
  /// groups behind a selector literal (a unit clause satisfies every
  /// guarded clause at once) call this so the dead clauses stop taxing
  /// propagation.
  void simplify();

  /// Solves the current formula. Returns Sat and populates the model, or
  /// Unsat.
  SolveResult solve();

  /// Solves under the given assumptions (they act as temporary unit
  /// clauses).
  SolveResult solve(const std::vector<Lit> &Assumptions);

  /// Value of \p V in the most recent satisfying model. Only valid after a
  /// Sat result.
  Value modelValue(Var V) const;

  /// Value of \p L in the most recent satisfying model.
  Value modelValue(Lit L) const;

  /// False once the formula has been proven unsatisfiable at the root.
  bool okay() const { return Ok; }

  /// Sets a per-solve conflict limit; 0 disables the limit. A solve that
  /// runs out of budget returns Unknown and sets budgetExhausted(); an
  /// Unknown is never an Unsat proof.
  void setConflictBudget(uint64_t Conflicts) { ConflictBudget = Conflicts; }

  /// True if the previous solve() stopped because of the conflict budget.
  /// The result of such a solve is Unknown, never Unsat.
  bool budgetExhausted() const { return BudgetHit; }

  const SolverStats &stats() const { return Stats; }

  /// Seeds the random tie-breaking used for a small fraction of decisions.
  void setRandomSeed(uint64_t Seed);

  /// Attaches the flight recorder; every solve() then emits a `sat.solve`
  /// trace event with its conflict/propagation/restart deltas and bumps
  /// the `sat.*` counters. Null (the default) disables instrumentation.
  void setRecorder(obs::Recorder *R) {
    Obs = R;
    Meters = {};
  }

private:
  // Clause storage: clauses live in a flat arena; a ClauseRef is an offset.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef RefUndef = 0xffffffffu;

  struct ClauseHeader {
    uint32_t Size;
    uint32_t Learned : 1;
    uint32_t Mark : 1;
    float Activity;
  };

  struct Watcher {
    ClauseRef Ref;
    Lit Blocker;
  };

  /// Native cardinality constraint: at most K of Lits may be true.
  struct CardConstraint {
    std::vector<Lit> Lits;
    int K = 0;
    int TrueCount = 0; ///< Literals currently assigned true.
  };

  /// Why a variable was assigned.
  struct Reason {
    enum KindTy : uint8_t { None, ClauseKind, CardKind } Kind = None;
    uint32_t Index = 0;
  };

  struct VarData {
    Reason Why;
    int Level = 0;
    int TrailPos = 0;
  };

  // --- clause arena -------------------------------------------------------
  ClauseRef allocClause(const Lit *Lits, size_t N, bool Learned);
  ClauseHeader &header(ClauseRef Ref);
  const ClauseHeader &header(ClauseRef Ref) const;
  Lit *lits(ClauseRef Ref);
  const Lit *lits(ClauseRef Ref) const;

  // --- assignment / propagation -------------------------------------------
  Value value(Var V) const { return Assigns[V]; }
  Value value(Lit L) const {
    Value V = Assigns[var(L)];
    return sign(L) ? !V : V;
  }
  /// Value of \p L at the root level; Undef above it.
  Value rootValue(Lit L) const {
    Value V = value(L);
    return V != Value::Undef && level(var(L)) == 0 ? V : Value::Undef;
  }
  int level(Var V) const { return VarInfo[V].Level; }
  int trailPos(Var V) const { return VarInfo[V].TrailPos; }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  void enqueue(Lit P, Reason Why);
  /// Runs unit propagation; returns a conflicting constraint reason or a
  /// Reason with Kind==None when no conflict occurred.
  Reason propagate();
  bool propagateCard(uint32_t CardIdx, Lit P, Reason &ConflictOut);
  void cancelUntil(int Level);

  // --- conflict analysis ---------------------------------------------------
  void analyze(Reason Conflict, std::vector<Lit> &Learned, int &BtLevel);
  bool litRedundant(Lit P);
  void collectReasonLits(Reason Why, Lit Implied, std::vector<Lit> &Out);

  // --- decisions ------------------------------------------------------------
  void varBumpActivity(Var V);
  void varDecayActivity();
  void claBumpActivity(ClauseRef Ref);
  void claDecayActivity();
  Lit pickBranchLit();

  // heap operations for the order heap keyed by activity
  void heapInsert(Var V);
  void heapUpdate(Var V);
  Var heapPop();
  bool heapEmpty() const { return Heap.empty(); }
  void heapPercolateUp(int Pos);
  void heapPercolateDown(int Pos);

  // --- top-level search ------------------------------------------------------
  SolveResult solveInner(const std::vector<Lit> &Assumps);
  SolveResult search();
  void reduceDB();
  void attachClause(ClauseRef Ref);
  bool addClausePreprocessed(Lit *Lits, size_t &N);
  bool placeWatchesAboveRoot(Lit *Lits, size_t N);
  /// addClause over a caller-owned buffer, which it normalizes in place.
  bool addClauseInPlace(Lit *Lits, size_t N);
  static uint64_t luby(uint64_t I);
  /// Folds one word into Digest (FNV-1a over 64-bit words).
  void digestWord(uint64_t W) { Digest = (Digest ^ W) * 1099511628211ull; }

  // --- data -------------------------------------------------------------------
  bool Ok = true;
  std::vector<uint32_t> Arena; ///< Clause storage (headers + literals).
  std::vector<ClauseRef> LearnedRefs;
  std::vector<std::vector<Watcher>> Watches;   ///< Indexed by literal code.
  std::vector<CardConstraint> Cards;
  std::vector<std::vector<uint32_t>> CardOccs; ///< Literal code -> card ids.

  std::vector<Value> Assigns;
  std::vector<VarData> VarInfo;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;

  std::vector<double> Activity;
  std::vector<char> Polarity; ///< Saved phases (1 = last assigned false).
  std::vector<int> HeapPos;   ///< Var -> position in Heap, or -1.
  /// Order-heap entry. The activity rides inline (always equal to
  /// Activity[V]) so percolation compares without a second indirection.
  struct HeapEntry {
    double Act;
    Var V;
  };
  std::vector<HeapEntry> Heap;

  std::vector<char> Seen;
  /// Reused conflict-analysis buffers: analyze()'s reason literals and
  /// clear list, litRedundant()'s antecedents, and the true literals of
  /// a cardinality explanation.
  std::vector<Lit> ReasonScratch;
  std::vector<Lit> ClearScratch;
  std::vector<Lit> RedundantScratch;
  std::vector<Lit> CardTrueScratch;

  std::vector<Lit> Assumptions;
  std::vector<Value> Model;

  double VarInc = 1.0;
  double ClaInc = 1.0;
  uint64_t ConflictBudget = 0;
  bool BudgetHit = false;
  double MaxLearned = 0;
  uint64_t RandomState = 0x9e3779b97f4a7c15ULL;
  obs::Recorder *Obs = nullptr;
  /// The `sat.*` metrics of Obs, looked up at the first solve that
  /// records metrics: a solver that never solves registers none.
  struct SolveMeters {
    obs::Counter *SolveCalls = nullptr;
    obs::Counter *Conflicts = nullptr;
    obs::Counter *Propagations = nullptr;
    obs::Counter *Restarts = nullptr;
    obs::Counter *KeptAssignments = nullptr;
    obs::Counter *HeapPops = nullptr;
    obs::Histogram *ConflictsPerSolve = nullptr;
  };
  SolveMeters Meters;

  SolverStats Stats;
  uint64_t Digest = 1469598103934665603ull; ///< See formulaDigest().
};

} // namespace syrust::sat

#endif // SYRUST_SAT_SOLVER_H
