//===--- SatTypes.h - Core SAT literal/value types -------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variable, literal, and truth-value types shared by the CDCL solver and
/// the synthesis encoder. Follows the MiniSat convention: a literal packs a
/// variable index and a sign into one integer, so literals index arrays
/// directly.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SAT_SATTYPES_H
#define SYRUST_SAT_SATTYPES_H

#include <cassert>
#include <cstdint>
#include <functional>

namespace syrust::sat {

/// A propositional variable, numbered from 0.
using Var = int32_t;

constexpr Var VarUndef = -1;

/// A literal: variable plus sign. Encoded as 2*var+sign where sign==1 means
/// the negated literal.
struct Lit {
  int32_t Code = -2;

  constexpr Lit() = default;
  constexpr explicit Lit(int32_t Code) : Code(Code) {}

  constexpr bool operator==(const Lit &O) const { return Code == O.Code; }
  constexpr bool operator!=(const Lit &O) const { return Code != O.Code; }
  constexpr bool operator<(const Lit &O) const { return Code < O.Code; }
};

/// Builds a literal over \p V, negated when \p Negated.
constexpr Lit mkLit(Var V, bool Negated = false) {
  return Lit((V << 1) | static_cast<int32_t>(Negated));
}

/// Negation of \p L.
constexpr Lit operator~(Lit L) { return Lit(L.Code ^ 1); }

/// The variable underlying \p L.
constexpr Var var(Lit L) { return L.Code >> 1; }

/// True for the negated polarity.
constexpr bool sign(Lit L) { return (L.Code & 1) != 0; }

/// Sentinel "no literal" value.
constexpr Lit LitUndef = Lit(-2);

/// Three-valued assignment state.
enum class Value : uint8_t { False = 0, True = 1, Undef = 2 };

/// Negates a three-valued truth value; Undef stays Undef.
constexpr Value operator!(Value V) {
  if (V == Value::Undef)
    return Value::Undef;
  return V == Value::True ? Value::False : Value::True;
}

/// Result of a solver query. Unknown means the search stopped without a
/// verdict (conflict budget exhausted) - it is never a proof, and callers
/// must not retire any part of the search space on it.
enum class SolveResult : uint8_t { Sat, Unsat, Unknown };

} // namespace syrust::sat

namespace std {
template <> struct hash<syrust::sat::Lit> {
  size_t operator()(const syrust::sat::Lit &L) const {
    return static_cast<size_t>(L.Code);
  }
};
} // namespace std

#endif // SYRUST_SAT_SATTYPES_H
