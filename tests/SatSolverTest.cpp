//===--- SatSolverTest.cpp - Unit and property tests for the CDCL core ----===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sat/ModelEnumerator.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace syrust;
using namespace syrust::sat;

namespace {

std::vector<Var> makeVars(Solver &S, int N) {
  std::vector<Var> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(S.newVar());
  return Vars;
}

//===----------------------------------------------------------------------===//
// Literal algebra
//===----------------------------------------------------------------------===//

TEST(LitTest, EncodingRoundTrip) {
  Lit P = mkLit(7, false);
  EXPECT_EQ(var(P), 7);
  EXPECT_FALSE(sign(P));
  EXPECT_EQ(var(~P), 7);
  EXPECT_TRUE(sign(~P));
  EXPECT_EQ(~~P, P);
  EXPECT_NE(~P, P);
}

TEST(LitTest, ValueNegation) {
  EXPECT_EQ(!Value::True, Value::False);
  EXPECT_EQ(!Value::False, Value::True);
  EXPECT_EQ(!Value::Undef, Value::Undef);
}

//===----------------------------------------------------------------------===//
// Basic clause solving
//===----------------------------------------------------------------------===//

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(SolverTest, SingleUnit) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(V)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(V)));
  EXPECT_FALSE(S.addClause(mkLit(V, true)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_FALSE(S.okay());
}

TEST(SolverTest, ImplicationChainPropagates) {
  Solver S;
  auto Vars = makeVars(S, 5);
  for (int I = 0; I + 1 < 5; ++I)
    ASSERT_TRUE(S.addClause(mkLit(Vars[I], true), mkLit(Vars[I + 1])));
  ASSERT_TRUE(S.addClause(mkLit(Vars[0])));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (Var V : Vars)
    EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(SolverTest, TautologyIsIgnored) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(std::vector<Lit>{mkLit(V), mkLit(V, true)}));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(SolverTest, DuplicateLiteralsCollapse) {
  Solver S;
  Var V = S.newVar();
  Var W = S.newVar();
  ASSERT_TRUE(
      S.addClause(std::vector<Lit>{mkLit(V), mkLit(V), mkLit(W, true)}));
  ASSERT_TRUE(S.addClause(mkLit(W)));
  ASSERT_TRUE(S.addClause(mkLit(V, true), mkLit(W)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(W), Value::True);
}

TEST(SolverTest, XorChainUnsat) {
  // x1 xor x2, x2 xor x3, x1 = x3 forced unequal -> unsat for odd cycles.
  Solver S;
  auto V = makeVars(S, 3);
  auto AddXor = [&](Var A, Var B) {
    ASSERT_TRUE(S.addClause(mkLit(A), mkLit(B)));
    ASSERT_TRUE(S.addClause(mkLit(A, true), mkLit(B, true)));
  };
  AddXor(V[0], V[1]);
  AddXor(V[1], V[2]);
  AddXor(V[2], V[0]);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(SolverTest, PigeonholeUnsat) {
  // 4 pigeons into 3 holes: classic hard UNSAT instance exercising learning.
  constexpr int Pigeons = 4, Holes = 3;
  Solver S;
  Var P[Pigeons][Holes];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H)
    for (int I = 0; I < Pigeons; ++I)
      for (int J = I + 1; J < Pigeons; ++J)
        ASSERT_TRUE(S.addClause(mkLit(P[I][H], true), mkLit(P[J][H], true)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(SolverTest, PigeonholeViaCardinalityUnsat) {
  // Same instance but holes constrained with native AtMost-1.
  constexpr int Pigeons = 5, Holes = 4;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[I][H]));
    ASSERT_TRUE(S.addAtMost(Column, 1));
  }
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

//===----------------------------------------------------------------------===//
// Cardinality constraints
//===----------------------------------------------------------------------===//

TEST(CardinalityTest, AtMostZeroForcesAllFalse) {
  Solver S;
  auto Vars = makeVars(S, 4);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtMost(Lits, 0));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (Var V : Vars)
    EXPECT_EQ(S.modelValue(V), Value::False);
}

TEST(CardinalityTest, AtLeastAllForcesAllTrue) {
  Solver S;
  auto Vars = makeVars(S, 4);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addAtLeast(Lits, 4));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (Var V : Vars)
    EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(CardinalityTest, ExactlyOnePropagatesNegations) {
  Solver S;
  auto Vars = makeVars(S, 5);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addExactly(Lits, 1));
  ASSERT_TRUE(S.addClause(mkLit(Vars[2])));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(S.modelValue(Vars[I]), I == 2 ? Value::True : Value::False);
}

TEST(CardinalityTest, OverfullAtMostConflictsAtRoot) {
  Solver S;
  auto Vars = makeVars(S, 3);
  for (Var V : Vars)
    ASSERT_TRUE(S.addClause(mkLit(V)));
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  EXPECT_FALSE(S.addAtMost(Lits, 1));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(CardinalityTest, AtLeastMoreThanSizeIsUnsat) {
  Solver S;
  auto Vars = makeVars(S, 2);
  std::vector<Lit> Lits{mkLit(Vars[0]), mkLit(Vars[1])};
  EXPECT_FALSE(S.addAtLeast(Lits, 3));
}

TEST(CardinalityTest, MixedPolarityAtMost) {
  // AtMost(x, ~y; 1) with x forced true forces y true.
  Solver S;
  Var X = S.newVar();
  Var Y = S.newVar();
  Var Z = S.newVar();
  ASSERT_TRUE(
      S.addAtMost(std::vector<Lit>{mkLit(X), mkLit(Y, true), mkLit(Z)}, 1));
  ASSERT_TRUE(S.addClause(mkLit(X)));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(Y), Value::True);
  EXPECT_EQ(S.modelValue(Z), Value::False);
}

/// Property: for random cardinality instances, solver verdict and any model
/// agree with brute force over all 2^N assignments.
class CardinalityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CardinalityPropertyTest, AgreesWithBruteForce) {
  Rng R(GetParam());
  constexpr int N = 8;
  for (int Round = 0; Round < 20; ++Round) {
    Solver S;
    auto Vars = makeVars(S, N);
    // Random mix of clauses and cardinality constraints.
    struct CardSpec {
      std::vector<Lit> Lits;
      int K;
      bool AtMostKind;
    };
    std::vector<std::vector<Lit>> Clauses;
    std::vector<CardSpec> CardSpecs;
    int NumClauses = 2 + static_cast<int>(R.below(10));
    int NumCards = 1 + static_cast<int>(R.below(4));
    bool AddOk = true;
    for (int C = 0; C < NumClauses; ++C) {
      std::vector<Lit> Cl;
      int Len = 1 + static_cast<int>(R.below(3));
      for (int L = 0; L < Len; ++L)
        Cl.push_back(mkLit(Vars[R.below(N)], R.chance(0.5)));
      Clauses.push_back(Cl);
      AddOk = S.addClause(Cl) && AddOk;
    }
    for (int C = 0; C < NumCards; ++C) {
      CardSpec Spec;
      int Len = 2 + static_cast<int>(R.below(static_cast<uint64_t>(N - 1)));
      std::set<Var> Used;
      for (int L = 0; L < Len; ++L) {
        Var V = Vars[R.below(N)];
        if (!Used.insert(V).second)
          continue;
        Spec.Lits.push_back(mkLit(V, R.chance(0.5)));
      }
      if (Spec.Lits.size() < 2)
        continue; // Too few distinct literals; skip this constraint.
      Spec.K = 1 + static_cast<int>(R.below(Spec.Lits.size()));
      Spec.AtMostKind = R.chance(0.5);
      CardSpecs.push_back(Spec);
      if (Spec.AtMostKind)
        AddOk = S.addAtMost(Spec.Lits, Spec.K) && AddOk;
      else
        AddOk = S.addAtLeast(Spec.Lits, Spec.K) && AddOk;
    }

    auto SatisfiedBy = [&](uint32_t Bits) {
      auto Val = [&](Lit L) {
        bool B = (Bits >> var(L)) & 1;
        return sign(L) ? !B : B;
      };
      for (const auto &Cl : Clauses) {
        bool Any = false;
        for (Lit L : Cl)
          Any = Any || Val(L);
        if (!Any)
          return false;
      }
      for (const auto &Spec : CardSpecs) {
        int Count = 0;
        for (Lit L : Spec.Lits)
          Count += Val(L) ? 1 : 0;
        if (Spec.AtMostKind ? Count > Spec.K : Count < Spec.K)
          return false;
      }
      return true;
    };

    bool BruteSat = false;
    for (uint32_t Bits = 0; Bits < (1u << N) && !BruteSat; ++Bits)
      BruteSat = SatisfiedBy(Bits);

    SolveResult Result = AddOk ? S.solve() : SolveResult::Unsat;
    if (!AddOk)
      Result = SolveResult::Unsat;
    EXPECT_EQ(Result == SolveResult::Sat, BruteSat)
        << "round " << Round << " seed " << GetParam();
    if (Result == SolveResult::Sat) {
      uint32_t Bits = 0;
      for (int I = 0; I < N; ++I)
        if (S.modelValue(Vars[I]) == Value::True)
          Bits |= 1u << I;
      EXPECT_TRUE(SatisfiedBy(Bits))
          << "model does not satisfy the instance";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CardinalityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99, 123,
                                           2026));

/// Property: random 3-SAT near the phase transition; verify models, and
/// verify UNSAT answers against brute force.
class Random3SatTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Random3SatTest, VerdictMatchesBruteForce) {
  Rng R(GetParam() * 0x9e3779b9ULL + 7);
  constexpr int N = 12;
  int NumClauses = static_cast<int>(4.26 * N);
  Solver S;
  auto Vars = makeVars(S, N);
  std::vector<std::vector<Lit>> Clauses;
  bool AddOk = true;
  for (int C = 0; C < NumClauses; ++C) {
    std::set<Var> Used;
    std::vector<Lit> Cl;
    while (Cl.size() < 3) {
      Var V = Vars[R.below(N)];
      if (Used.insert(V).second)
        Cl.push_back(mkLit(V, R.chance(0.5)));
    }
    Clauses.push_back(Cl);
    AddOk = S.addClause(Cl) && AddOk;
  }
  auto SatisfiedBy = [&](uint32_t Bits) {
    for (const auto &Cl : Clauses) {
      bool Any = false;
      for (Lit L : Cl) {
        bool B = (Bits >> var(L)) & 1;
        Any = Any || (sign(L) ? !B : B);
      }
      if (!Any)
        return false;
    }
    return true;
  };
  bool BruteSat = false;
  for (uint32_t Bits = 0; Bits < (1u << N) && !BruteSat; ++Bits)
    BruteSat = SatisfiedBy(Bits);
  SolveResult Result = AddOk ? S.solve() : SolveResult::Unsat;
  EXPECT_EQ(Result == SolveResult::Sat, BruteSat);
  if (Result == SolveResult::Sat) {
    uint32_t Bits = 0;
    for (int I = 0; I < N; ++I)
      if (S.modelValue(Vars[I]) == Value::True)
        Bits |= 1u << I;
    EXPECT_TRUE(SatisfiedBy(Bits));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3SatTest,
                         ::testing::Range<uint64_t>(0, 25));

//===----------------------------------------------------------------------===//
// Incremental solving and enumeration
//===----------------------------------------------------------------------===//

TEST(IncrementalTest, AddClauseBetweenSolves) {
  Solver S;
  auto Vars = makeVars(S, 3);
  ASSERT_TRUE(S.addClause(mkLit(Vars[0]), mkLit(Vars[1])));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  ASSERT_TRUE(S.addClause(mkLit(Vars[0], true)));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(Vars[1]), Value::True);
  // Adding ~v1 contradicts the forced v1 at the root: addClause reports the
  // inconsistency immediately and subsequent solves stay Unsat.
  EXPECT_FALSE(S.addClause(mkLit(Vars[1], true)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(IncrementalTest, AssumptionsDoNotPersist) {
  Solver S;
  Var V = S.newVar();
  EXPECT_EQ(S.solve({mkLit(V, true)}), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V), Value::False);
  EXPECT_EQ(S.solve({mkLit(V)}), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V), Value::True);
}

TEST(IncrementalTest, ConflictingAssumptionsUnsatButRecoverable) {
  Solver S;
  Var V = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(V)));
  EXPECT_EQ(S.solve({mkLit(V, true)}), SolveResult::Unsat);
  EXPECT_TRUE(S.okay());
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(EnumerationTest, CountsAllProjectedModels) {
  // 4 free variables, no constraints: 16 models over the projection.
  Solver S;
  auto Vars = makeVars(S, 4);
  ModelEnumerator Enum(S, Vars);
  int Count = 0;
  std::set<uint32_t> Distinct;
  while (Enum.next()) {
    ++Count;
    uint32_t Bits = 0;
    for (int I = 0; I < 4; ++I)
      if (S.modelValue(Vars[I]) == Value::True)
        Bits |= 1u << I;
    EXPECT_TRUE(Distinct.insert(Bits).second) << "duplicate model";
    ASSERT_LE(Count, 16) << "enumeration failed to terminate";
  }
  EXPECT_EQ(Count, 16);
  EXPECT_EQ(Enum.count(), 16u);
}

TEST(EnumerationTest, ExactlyOneYieldsNModels) {
  Solver S;
  auto Vars = makeVars(S, 6);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addExactly(Lits, 1));
  ModelEnumerator Enum(S, Vars);
  int Count = 0;
  while (Enum.next())
    ASSERT_LE(++Count, 6);
  EXPECT_EQ(Count, 6);
}

TEST(EnumerationTest, ProjectionIgnoresVarUndefPlaceholders) {
  // A pruned encoder's variable table keeps VarUndef where a dead call
  // site would have had its A-variable; the enumerator must filter the
  // placeholders and still count the real projection's models.
  Solver S;
  auto Vars = makeVars(S, 3);
  std::vector<Var> Projection = {VarUndef, Vars[0], VarUndef, Vars[1],
                                 Vars[2], VarUndef};
  ModelEnumerator Enum(S, Projection);
  int Count = 0;
  while (Enum.next())
    ASSERT_LE(++Count, 8);
  EXPECT_EQ(Count, 8);
}

TEST(EnumerationTest, ProjectionCollapsesDontCares) {
  // y is unconstrained; projecting on {x} must yield exactly 2 models.
  Solver S;
  Var X = S.newVar();
  Var Y = S.newVar();
  (void)Y;
  ModelEnumerator Enum(S, {X});
  int Count = 0;
  while (Enum.next())
    ASSERT_LE(++Count, 2);
  EXPECT_EQ(Count, 2);
}

TEST(EnumerationTest, CardinalityChooseCount) {
  // Exactly 2 of 5: C(5,2) = 10 models.
  Solver S;
  auto Vars = makeVars(S, 5);
  std::vector<Lit> Lits;
  for (Var V : Vars)
    Lits.push_back(mkLit(V));
  ASSERT_TRUE(S.addExactly(Lits, 2));
  ModelEnumerator Enum(S, Vars);
  int Count = 0;
  while (Enum.next()) {
    int True = 0;
    for (Var V : Vars)
      True += S.modelValue(V) == Value::True ? 1 : 0;
    EXPECT_EQ(True, 2);
    ASSERT_LE(++Count, 10);
  }
  EXPECT_EQ(Count, 10);
}

/// Property: projected enumeration over all variables yields exactly the
/// brute-force model count for random clause+cardinality instances.
class EnumerationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerationPropertyTest, CountMatchesBruteForce) {
  Rng R(GetParam() * 1337 + 11);
  constexpr int N = 7;
  Solver S;
  auto Vars = makeVars(S, N);
  std::vector<std::vector<Lit>> Clauses;
  struct CardSpec {
    std::vector<Lit> Lits;
    int K;
  };
  std::vector<CardSpec> CardSpecs;
  bool AddOk = true;
  int NumClauses = static_cast<int>(R.below(6));
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<Lit> Cl;
    int Len = 2 + static_cast<int>(R.below(3));
    for (int L = 0; L < Len; ++L)
      Cl.push_back(mkLit(Vars[R.below(N)], R.chance(0.5)));
    Clauses.push_back(Cl);
    AddOk = S.addClause(Cl) && AddOk;
  }
  int NumCards = 1 + static_cast<int>(R.below(2));
  for (int C = 0; C < NumCards; ++C) {
    CardSpec Spec;
    std::set<Var> Used;
    int Len = 3 + static_cast<int>(R.below(4));
    for (int L = 0; L < Len; ++L) {
      Var V = Vars[R.below(N)];
      if (Used.insert(V).second)
        Spec.Lits.push_back(mkLit(V, R.chance(0.5)));
    }
    if (Spec.Lits.size() < 2)
      continue;
    Spec.K = 1 + static_cast<int>(R.below(Spec.Lits.size() - 1));
    CardSpecs.push_back(Spec);
    AddOk = S.addAtMost(Spec.Lits, Spec.K) && AddOk;
  }
  auto SatisfiedBy = [&](uint32_t Bits) {
    auto Val = [&](Lit L) {
      bool B = (Bits >> var(L)) & 1;
      return sign(L) ? !B : B;
    };
    for (const auto &Cl : Clauses) {
      bool Any = false;
      for (Lit L : Cl)
        Any = Any || Val(L);
      if (!Any)
        return false;
    }
    for (const auto &Spec : CardSpecs) {
      int Count = 0;
      for (Lit L : Spec.Lits)
        Count += Val(L) ? 1 : 0;
      if (Count > Spec.K)
        return false;
    }
    return true;
  };
  int BruteCount = 0;
  for (uint32_t Bits = 0; Bits < (1u << N); ++Bits)
    BruteCount += SatisfiedBy(Bits) ? 1 : 0;
  // A tautological or root-satisfied clause may be dropped; AddOk==false
  // only when the instance is root-unsat, in which case BruteCount is 0.
  if (!AddOk) {
    EXPECT_EQ(BruteCount, 0);
    return;
  }
  ModelEnumerator Enum(S, Vars);
  int Enumerated = 0;
  std::set<uint32_t> Distinct;
  while (Enum.next()) {
    uint32_t Bits = 0;
    for (int I = 0; I < N; ++I)
      if (S.modelValue(Vars[I]) == Value::True)
        Bits |= 1u << I;
    EXPECT_TRUE(SatisfiedBy(Bits)) << "bogus model " << Bits;
    EXPECT_TRUE(Distinct.insert(Bits).second) << "duplicate model " << Bits;
    ASSERT_LE(++Enumerated, BruteCount) << "enumeration overshoots";
  }
  EXPECT_EQ(Enumerated, BruteCount);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerationPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

TEST(BudgetTest, ConflictBudgetStopsSearch) {
  // A hard pigeonhole instance with a tiny budget must report exhaustion.
  constexpr int Pigeons = 9, Holes = 8;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[I][H]));
    ASSERT_TRUE(S.addAtMost(Column, 1));
  }
  S.setConflictBudget(10);
  // Running out of budget is "gave up", not an UNSAT proof: the result
  // must be Unknown, and the flag must distinguish it from exhaustion.
  EXPECT_EQ(S.solve(), SolveResult::Unknown);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_TRUE(S.okay());
  // Lifting the budget on the same solver still finds the real proof.
  S.setConflictBudget(0);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_FALSE(S.budgetExhausted());
}

// Builds the pigeonhole instance used by the budget tests:
// Pigeons x Holes, unsatisfiable whenever Pigeons > Holes.
static void buildPigeonhole(Solver &S, int Pigeons, int Holes) {
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (auto &Row : P) {
    std::vector<Lit> AtLeastOne;
    for (Var V : Row)
      AtLeastOne.push_back(mkLit(V));
    ASSERT_TRUE(S.addClause(AtLeastOne));
  }
  for (int H = 0; H < Holes; ++H) {
    std::vector<Lit> Column;
    for (int I = 0; I < Pigeons; ++I)
      Column.push_back(mkLit(P[I][H]));
    ASSERT_TRUE(S.addAtMost(Column, 1));
  }
}

TEST(BudgetTest, AssumptionSolveAlsoReturnsUnknownOnBudget) {
  Solver S;
  buildPigeonhole(S, 9, 8);
  Var Guard = S.newVar();
  S.setConflictBudget(10);
  EXPECT_EQ(S.solve({mkLit(Guard)}), SolveResult::Unknown);
  EXPECT_TRUE(S.budgetExhausted());
  EXPECT_TRUE(S.okay());
}

TEST(BudgetTest, GenuineUnsatIsNotFlaggedAsBudget) {
  Solver S;
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(X)));
  S.setConflictBudget(1);
  // The contradiction is found at the root, well within budget.
  EXPECT_EQ(S.solve({mkLit(X, true)}), SolveResult::Unsat);
  EXPECT_FALSE(S.budgetExhausted());
}

TEST(StatsTest, CountersAdvance) {
  Solver S;
  auto Vars = makeVars(S, 10);
  Rng R(3);
  for (int C = 0; C < 40; ++C) {
    std::vector<Lit> Cl;
    for (int L = 0; L < 3; ++L)
      Cl.push_back(mkLit(Vars[R.below(10)], R.chance(0.5)));
    S.addClause(Cl);
  }
  (void)S.solve();
  EXPECT_GT(S.stats().Propagations, 0u);
}

TEST(StatsTest, ConflictFreeSolveTakesEveryVariableOffTheHeapOnce) {
  // Without conflicts nothing re-enters the heap, so each variable
  // leaves it exactly once: by a pop, or by the clear at a complete
  // assignment. Propagated variables (the forced member of the exactly-
  // one, the root unit, the implied chain) are still in the heap then.
  Solver S;
  auto Vars = makeVars(S, 12);
  std::vector<Lit> One;
  for (int I = 0; I < 6; ++I)
    One.push_back(mkLit(Vars[I]));
  S.addExactly(One, 1);
  ASSERT_TRUE(S.addClause(mkLit(Vars[6])));
  for (int I = 7; I < 11; ++I)
    S.addClause(mkLit(Vars[I], true), mkLit(Vars[I + 1]));
  S.addClause(mkLit(Vars[6], true), mkLit(Vars[7]));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  ASSERT_EQ(S.stats().Conflicts, 0u);
  EXPECT_GT(S.stats().Propagations, S.stats().Decisions);
  EXPECT_EQ(S.stats().HeapPops, static_cast<uint64_t>(S.numVars()));
}

//===----------------------------------------------------------------------===//
// All-Undef projections
//===----------------------------------------------------------------------===//

TEST(EnumerationTest, AllUndefProjectionReportsExhaustionNotPoison) {
  // Projection variables the solver has never seen read as Undef; the
  // blocking clause would be empty. That must end the enumeration, not
  // poison the solver with an empty clause (okay() flipping false would
  // break every later, unrelated query on the same solver).
  Solver S;
  ModelEnumerator Enum(S, {5, 7});
  EXPECT_TRUE(Enum.next()); // Empty formula: one vacuous model.
  EXPECT_FALSE(Enum.next());
  EXPECT_TRUE(S.okay());
  EXPECT_FALSE(S.budgetExhausted());
  // The solver is still usable for real work afterwards.
  Var X = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(X)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(X), Value::True);
}

//===----------------------------------------------------------------------===//
// Kept assumption levels
//===----------------------------------------------------------------------===//

TEST(KeptLevelTest, ResumedSolveSkipsGuardPropagation) {
  // The selector forces a 40-var chain. Solves under the same assumption
  // resume from the propagated chain instead of re-deriving it.
  constexpr int Chain = 40;
  Solver S;
  auto Vars = makeVars(S, Chain + 4);
  Var Sel = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(Sel, true), mkLit(Vars[0])));
  for (int I = 0; I + 1 < Chain; ++I)
    ASSERT_TRUE(S.addClause(mkLit(Vars[I], true), mkLit(Vars[I + 1])));
  ASSERT_EQ(S.solve({mkLit(Sel)}), SolveResult::Sat);
  EXPECT_EQ(S.stats().KeptAssignments, 0u);
  std::vector<Var> Free(Vars.begin() + Chain, Vars.end());
  int Models = 1;
  for (;;) {
    std::vector<Lit> Block;
    for (Var V : Free)
      Block.push_back(mkLit(V, S.modelValue(V) == Value::True));
    ASSERT_TRUE(S.addClause(Block));
    uint64_t Props0 = S.stats().Propagations;
    if (S.solve({mkLit(Sel)}) != SolveResult::Sat)
      break;
    ++Models;
    EXPECT_LT(S.stats().Propagations - Props0, uint64_t{Chain});
    for (int I = 0; I < Chain; ++I)
      EXPECT_EQ(S.modelValue(Vars[I]), Value::True);
  }
  EXPECT_EQ(Models, 16);
  EXPECT_GE(S.stats().KeptAssignments, uint64_t{15 * (Chain + 1)});
}

TEST(KeptLevelTest, ClauseUnitUnderKeptLevelIsPropagatedNotDecided) {
  // Sel forces A. The clause (~A | B) is unit under the kept level, so
  // the solver returns to the root and Sel's propagation now derives B:
  // the next solve needs no decision at all.
  Solver S;
  Var A = S.newVar(), B = S.newVar(), Sel = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(Sel, true), mkLit(A)));
  ASSERT_EQ(S.solve({mkLit(Sel)}), SolveResult::Sat);
  ASSERT_TRUE(S.addClause(mkLit(A, true), mkLit(B)));
  uint64_t Decisions0 = S.stats().Decisions;
  ASSERT_EQ(S.solve({mkLit(Sel)}), SolveResult::Sat);
  EXPECT_EQ(S.stats().Decisions, Decisions0);
  EXPECT_EQ(S.modelValue(B), Value::True);
  EXPECT_EQ(S.stats().KeptAssignments, 0u);
}

TEST(KeptLevelTest, ClauseWithTwoOpenLiteralsKeepsTheLevel) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), Sel = S.newVar();
  ASSERT_TRUE(S.addClause(mkLit(Sel, true), mkLit(A)));
  ASSERT_EQ(S.solve({mkLit(Sel)}), SolveResult::Sat);
  // Falsified under the kept level is ~A only; B and C stay open.
  ASSERT_TRUE(S.addClause(mkLit(A, true), mkLit(B, true), mkLit(C, true)));
  ASSERT_EQ(S.solve({mkLit(Sel)}), SolveResult::Sat);
  EXPECT_EQ(S.stats().KeptAssignments, 2u); // Sel and A.
  EXPECT_FALSE(S.modelValue(B) == Value::True &&
               S.modelValue(C) == Value::True);
  // Another assumption vector starts from the root again.
  ASSERT_EQ(S.solve({mkLit(Sel), mkLit(B)}), SolveResult::Sat);
  EXPECT_EQ(S.stats().KeptAssignments, 2u);
  EXPECT_EQ(S.modelValue(C), Value::False);
}

TEST(KeptLevelTest, PlainSolvesKeepNothing) {
  Solver S;
  auto Vars = makeVars(S, 3);
  ASSERT_TRUE(S.addClause(mkLit(Vars[0]), mkLit(Vars[1])));
  ModelEnumerator Enum(S, Vars);
  while (Enum.next()) {
  }
  EXPECT_EQ(Enum.count(), 6u);
  EXPECT_EQ(S.stats().KeptAssignments, 0u);
}

/// Every full assignment of a small formula, narrowed as constraints
/// arrive and doubled by each new variable (bit V of an index is var V).
class BruteForce {
public:
  void addVar() {
    size_t N = Alive.size();
    Alive.resize(2 * N);
    std::copy_n(Alive.begin(), N,
                Alive.begin() + static_cast<std::ptrdiff_t>(N));
  }
  void addClause(const std::vector<Lit> &C) {
    for (uint32_t Bits = 0; Bits < Alive.size(); ++Bits)
      if (std::none_of(C.begin(), C.end(),
                       [Bits](Lit L) { return holds(L, Bits); }))
        Alive[Bits] = 0;
  }
  void addAtMost(const std::vector<Lit> &Lits, int K) {
    for (uint32_t Bits = 0; Bits < Alive.size(); ++Bits)
      if (std::count_if(Lits.begin(), Lits.end(),
                        [Bits](Lit L) { return holds(L, Bits); }) > K)
        Alive[Bits] = 0;
  }
  bool alive(uint32_t Bits) const { return Alive[Bits] != 0; }
  /// Alive assignments under which every literal of \p Assumps holds.
  std::vector<uint32_t> models(const std::vector<Lit> &Assumps) const {
    std::vector<uint32_t> Out;
    for (uint32_t Bits = 0; Bits < Alive.size(); ++Bits)
      if (Alive[Bits] && std::all_of(Assumps.begin(), Assumps.end(),
                                     [Bits](Lit L) { return holds(L, Bits); }))
        Out.push_back(Bits);
    return Out;
  }
  static bool holds(Lit L, uint32_t Bits) {
    return (((Bits >> var(L)) & 1) != 0) != sign(L);
  }

private:
  std::vector<char> Alive = {1}; ///< No variables: one empty assignment.
};

/// Property: enumeration under assumptions stays exact while the formula,
/// the variable set and the assumption vector change between solves -
/// every way a kept assumption level is either reused or dropped.
class KeptLevelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeptLevelPropertyTest, EnumerationMatchesBruteForce) {
  Rng R(GetParam() * 7919 + 3);
  constexpr int N = 8;
  constexpr int MaxExtraVars = 3;
  Solver S;
  BruteForce All;  // The solver's formula, blocking clauses included.
  BruteForce Base; // The same without blocking clauses.
  auto NewVar = [&] {
    All.addVar();
    Base.addVar();
    return S.newVar();
  };
  auto AddClause = [&](const std::vector<Lit> &C) {
    All.addClause(C);
    Base.addClause(C);
    S.addClause(C);
  };
  auto AddAtMost = [&](const std::vector<Lit> &Lits, int K) {
    All.addAtMost(Lits, K);
    Base.addAtMost(Lits, K);
    S.addAtMost(Lits, K);
  };
  auto RandomLit = [&](const std::vector<Var> &Vars) {
    return mkLit(Vars[R.below(Vars.size())], R.chance(0.5));
  };

  std::vector<Var> Proj;
  for (int I = 0; I < N; ++I)
    Proj.push_back(NewVar());
  Var Sel = NewVar();
  Lit Guard = mkLit(Sel);
  // Two literals over distinct vars that the selector forces, so the kept
  // level is known to falsify their negations.
  Lit I0 = mkLit(Proj[0], R.chance(0.5));
  Lit I1 = mkLit(Proj[1], R.chance(0.5));
  AddClause({~Guard, I0});
  AddClause({~Guard, I1});
  int NumClauses = 3 + static_cast<int>(R.below(4));
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<Lit> Cl;
    int Len = 3 + static_cast<int>(R.below(2));
    for (int L = 0; L < Len; ++L)
      Cl.push_back(RandomLit(Proj));
    if (C % 2 == 1)
      Cl.push_back(~Guard);
    AddClause(Cl);
  }
  auto RandomAtMost = [&] {
    std::vector<Lit> Lits;
    std::set<Var> Used;
    int Len = 4 + static_cast<int>(R.below(3));
    for (int L = 0; L < Len; ++L) {
      Var V = Proj[R.below(N)];
      if (Used.insert(V).second)
        Lits.push_back(mkLit(V, R.chance(0.5)));
    }
    if (Lits.size() >= 4)
      AddAtMost(Lits, 2 + static_cast<int>(R.below(Lits.size() - 3)));
  };
  RandomAtMost();

  Lit T = mkLit(Proj[2 + R.below(N - 2)], R.chance(0.5));
  const std::vector<std::vector<Lit>> Vectors = {{Guard}, {Guard, T}, {T}};
  const std::vector<Lit> &Final = Vectors[0];
  std::vector<Lit> Cur = Vectors[R.below(Vectors.size())];
  std::set<uint32_t> Seen;
  int ExtraVars = 0;
  int Solves = 0;
  uint64_t Budget = 0;
  for (;;) {
    ASSERT_LT(++Solves, 1000) << "enumeration does not terminate";
    S.setConflictBudget(Budget);
    SolveResult Res = S.solve(Cur);
    if (Res == SolveResult::Unknown) {
      // Gave up on budget: no verdict, resume under the same vector.
      ASSERT_NE(Budget, 0u);
      EXPECT_TRUE(S.budgetExhausted());
      Budget = 0;
      continue;
    }
    std::vector<uint32_t> Expected = All.models(Cur);
    if (Res == SolveResult::Unsat) {
      EXPECT_TRUE(Expected.empty()) << "Unsat with models left";
      if (Cur == Final)
        break;
      Cur = Final;
      continue;
    }
    ASSERT_FALSE(Expected.empty()) << "model of an unsatisfiable formula";
    uint32_t Full = 0;
    for (Var V = 0; V < S.numVars(); ++V) {
      ASSERT_NE(S.modelValue(V), Value::Undef);
      if (S.modelValue(V) == Value::True)
        Full |= 1u << V;
    }
    EXPECT_TRUE(All.alive(Full)) << "model violates the formula";
    for (Lit A : Cur)
      EXPECT_TRUE(BruteForce::holds(A, Full)) << "model drops an assumption";
    uint32_t Projected = Full & ((1u << N) - 1);
    EXPECT_TRUE(Seen.insert(Projected).second)
        << "repeated model " << Projected;
    std::vector<Lit> Block;
    for (Var V : Proj)
      Block.push_back(mkLit(V, S.modelValue(V) == Value::True));
    All.addClause(Block);
    S.addClause(Block);

    if (!R.chance(0.3))
      continue;
    switch (R.below(7)) {
    case 0: // Unit under the kept level: both forced literals false.
      AddClause({~I0, ~I1, RandomLit(Proj)});
      break;
    case 1: // Falsified under the {Guard, T} levels, not at the root.
      AddClause({~I0, ~T});
      break;
    case 2: // Root unit.
      if (R.chance(0.3))
        AddClause({RandomLit(Proj)});
      break;
    case 3: // A new variable, then a clause that watches it.
      if (ExtraVars < MaxExtraVars) {
        ++ExtraVars;
        Var V = NewVar();
        AddClause({mkLit(V, R.chance(0.5)), RandomLit(Proj), RandomLit(Proj)});
      }
      break;
    case 4:
      RandomAtMost();
      break;
    case 5: // A different assumption vector.
      Cur = Vectors[R.below(Vectors.size())];
      break;
    case 6: // One-conflict budgets until a solve answers Unknown.
      Budget = 1;
      break;
    }
  }
  // Every projected model of the final formula (without the blocking
  // clauses) under the final assumptions was enumerated.
  std::set<uint32_t> Want;
  for (uint32_t Bits : Base.models(Final))
    Want.insert(Bits & ((1u << N) - 1));
  size_t Found = 0;
  for (uint32_t P : Want)
    Found += Seen.count(P);
  EXPECT_EQ(Found, Want.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeptLevelPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

//===----------------------------------------------------------------------===//
// Cross-build enumeration golden
//===----------------------------------------------------------------------===//
//
// Seeded random 3-SAT + AtMost-k formulas, each enumerated to exhaustion
// twice: through ModelEnumerator, and through solve() under a selector
// assumption (the encoder's generation-guard shape). Per formula the
// golden records an FNV-1a digest of each model sequence plus the
// decision/conflict/propagation/deleted-clause counters, so any drift in
// the decision order - a heap tie-break, a rescale, a changed comparison
// - fails here and not only in the 28-crate program-stream digests.
//
// A deliberate search change regenerates the file by running
//   SAT_ENUM_DIGESTS_OUT=tests/golden/sat_enum_digests.txt
//   ./build/tests/sat_solver_test --gtest_filter='SatEnumGolden.*'
// (one command line) and says why in CHANGES.md.

class ModelDigest {
public:
  void model(const Solver &S, const std::vector<Var> &Projection) {
    for (Var V : Projection)
      byte(S.modelValue(V) == Value::True ? 1 : 0);
    byte(0xff);
  }
  uint64_t value() const { return H; }

private:
  void byte(unsigned char B) {
    H ^= B;
    H *= 1099511628211ull;
  }
  uint64_t H = 1469598103934665603ull;
};

struct GoldenFormula {
  int NumVars = 0;
  std::vector<std::vector<Lit>> Clauses; ///< Over vars 0..NumVars-1.
  std::vector<std::pair<std::vector<Lit>, int>> AtMosts;
  std::vector<Var> Projection;
};

/// Seeds below LargeFrom draw small formulas; the rest are larger and
/// near the 3-SAT phase transition, so their searches run long enough to
/// learn, minimize, reduce and rescale activities.
constexpr uint64_t GoldenFormulas = 28;
constexpr uint64_t LargeFrom = 24;

GoldenFormula makeGoldenFormula(uint64_t Seed) {
  Rng R(Seed * 0x2545f4914f6cdd1dULL + 17);
  GoldenFormula F;
  bool Large = Seed >= LargeFrom;
  F.NumVars = Large ? 130 + static_cast<int>(R.below(20))
                    : 16 + static_cast<int>(R.below(25));
  int NumClauses = Large
                       ? F.NumVars * (37 + static_cast<int>(R.below(3))) / 10
                       : F.NumVars * (28 + static_cast<int>(R.below(14))) / 10;
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<Lit> Cl;
    for (int L = 0; L < 3; ++L)
      Cl.push_back(mkLit(static_cast<Var>(R.below(F.NumVars)), R.chance(0.5)));
    F.Clauses.push_back(Cl);
  }
  int NumCards = 1 + static_cast<int>(R.below(3));
  for (int C = 0; C < NumCards; ++C) {
    std::vector<Lit> Lits;
    std::set<Var> Used;
    int Len = 4 + static_cast<int>(R.below(6));
    for (int L = 0; L < Len; ++L) {
      Var V = static_cast<Var>(R.below(F.NumVars));
      if (Used.insert(V).second)
        Lits.push_back(mkLit(V, R.chance(0.5)));
    }
    if (Lits.size() < 3)
      continue;
    int K = 1 + static_cast<int>(R.below(Lits.size() - 2));
    F.AtMosts.emplace_back(Lits, K);
  }
  // Project on a prefix so model counts stay small while the solver
  // still searches the full formula.
  for (Var V = 0; V < std::min(F.NumVars, 11); ++V)
    F.Projection.push_back(V);
  return F;
}

std::string statsText(const SolverStats &St) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "dec=%" PRIu64 " confl=%" PRIu64 " props=%" PRIu64
                " deleted=%" PRIu64,
                St.Decisions, St.Conflicts, St.Propagations,
                St.DeletedClauses);
  return Buf;
}

std::string digestText(uint64_t Models, uint64_t Digest) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "models=%" PRIu64 " fnv=%016" PRIx64,
                Models, Digest);
  return Buf;
}

/// Enumerates \p F through ModelEnumerator over its projection.
std::string enumerateDirect(const GoldenFormula &F) {
  Solver S;
  makeVars(S, F.NumVars);
  for (const auto &Cl : F.Clauses)
    S.addClause(Cl[0], Cl[1], Cl[2]);
  for (const auto &[Lits, K] : F.AtMosts)
    S.addAtMost(Lits, K);
  ModelEnumerator Enum(S, F.Projection);
  ModelDigest D;
  while (Enum.next())
    D.model(S, F.Projection);
  return digestText(Enum.count(), D.value()) + " " + statsText(S.stats());
}

/// Enumerates \p F with every other clause guarded by a selector that
/// each solve assumes, blocking models with plain clauses.
std::string enumerateAssumed(const GoldenFormula &F) {
  Solver S;
  makeVars(S, F.NumVars);
  Var Sel = S.newVar();
  for (size_t I = 0; I < F.Clauses.size(); ++I) {
    const auto &Cl = F.Clauses[I];
    if (I % 2 == 0) {
      S.addClause(Cl[0], Cl[1], Cl[2]);
      continue;
    }
    std::vector<Lit> Guarded = Cl;
    Guarded.push_back(mkLit(Sel, true));
    S.addClause(Guarded);
  }
  for (const auto &[Lits, K] : F.AtMosts)
    S.addAtMost(Lits, K);
  ModelDigest D;
  uint64_t Models = 0;
  while (S.solve({mkLit(Sel)}) == SolveResult::Sat) {
    ++Models;
    D.model(S, F.Projection);
    std::vector<Lit> Block;
    for (Var V : F.Projection)
      Block.push_back(mkLit(V, S.modelValue(V) == Value::True));
    if (!S.addClause(Block))
      break;
  }
  return digestText(Models, D.value()) + " " + statsText(S.stats());
}

std::string satEnumDigests() {
  std::ostringstream Out;
  for (uint64_t Seed = 0; Seed < GoldenFormulas; ++Seed) {
    GoldenFormula F = makeGoldenFormula(Seed);
    Out << "f" << Seed << " vars=" << F.NumVars
        << " clauses=" << F.Clauses.size() << " cards=" << F.AtMosts.size()
        << " | enum " << enumerateDirect(F) << " | assume "
        << enumerateAssumed(F) << "\n";
  }
  return Out.str();
}

TEST(SatEnumGolden, MatchesCommittedDigests) {
  const std::string Got = satEnumDigests();
  if (const char *OutPath = std::getenv("SAT_ENUM_DIGESTS_OUT")) {
    std::ofstream(OutPath) << Got;
    GTEST_SKIP() << "wrote " << OutPath;
  }
  std::ifstream In(SYRUST_GOLDEN_DIR "/sat_enum_digests.txt");
  ASSERT_TRUE(In.good()) << "missing golden file";
  std::stringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str());
}

} // namespace
