//===--- Type.h - Interned Rust type representation ------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Rust type fragment SyRust reasons about: primitives, named (possibly
/// generic) nominal types, shared/mutable references, tuples, and type
/// variables. Types are immutable and interned in a TypeArena, so equality
/// is pointer equality and types can be used as map keys directly.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_TYPES_TYPE_H
#define SYRUST_TYPES_TYPE_H

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace syrust::types {

class TypeArena;

/// Discriminates the structural forms of a type.
enum class TypeKind : uint8_t {
  Prim,  ///< Built-in scalar: i32, usize, bool, char, f64, unit, ...
  Named, ///< Nominal type, possibly generic: String, Vec<T>, Option<i32>.
  Ref,   ///< Reference: &T or &mut T.
  Tuple, ///< Tuple: (A, B, C). The unit type is modeled as Prim "()".
  Var,   ///< A type variable from a polymorphic API signature.
};

/// An immutable, interned Rust type. Construct only through TypeArena.
class Type {
public:
  TypeKind kind() const { return Kind; }

  /// Name for Prim / Named / Var kinds ("i32", "Vec", "T").
  const std::string &name() const { return Name; }

  /// Generic arguments (Named) or element types (Tuple).
  const std::vector<const Type *> &args() const { return Args; }

  /// Referent of a Ref type.
  const Type *pointee() const { return Args.empty() ? nullptr : Args[0]; }

  /// True for &mut references.
  bool isMutRef() const { return Kind == TypeKind::Ref && MutRef; }

  /// True for shared (&) references.
  bool isSharedRef() const { return Kind == TypeKind::Ref && !MutRef; }

  bool isRef() const { return Kind == TypeKind::Ref; }
  bool isPrim() const { return Kind == TypeKind::Prim; }
  bool isVar() const { return Kind == TypeKind::Var; }
  bool isUnit() const { return Kind == TypeKind::Prim && Name == "()"; }

  /// True when no type variable occurs anywhere in the type.
  bool isConcrete() const { return Concrete; }

  /// Dense per-arena index of a Var type, assigned in first-intern order;
  /// -1 for every other kind. Substitution keys its flat entry vector on
  /// this, so the unifiability hot loop compares small ints instead of
  /// hashing variable names. Overlay arenas continue their base arena's
  /// sequence, keeping indices unique across a base/overlay chain.
  int varIndex() const { return VarIdx; }

  /// Canonical Rust-syntax rendering ("&mut Vec<String>").
  const std::string &str() const { return Rendered; }

  /// Collects the distinct type-variable names occurring in this type, in
  /// first-occurrence order.
  void collectVars(std::vector<std::string> &Out) const;

private:
  friend class TypeArena;
  Type() = default;

  TypeKind Kind = TypeKind::Prim;
  std::string Name;
  std::vector<const Type *> Args;
  bool MutRef = false;
  bool Concrete = true;
  int VarIdx = -1;
  std::string Rendered;
  std::string Key; ///< Kind-disambiguated structural intern key.
};

/// Tag selecting TypeArena's overlay constructor (and CrateInstance's
/// copy-on-write constructor, which is built on it).
struct OverlayTag {
  explicit OverlayTag() = default;
};
inline constexpr OverlayTag Overlay{};

/// Owns and interns Type instances. All types compared with each other must
/// come from the same arena - or from the same base/overlay chain: an
/// overlay arena resolves every intern against its (frozen) base first, so
/// types present in the base keep their pointer identity in the overlay.
class TypeArena {
public:
  TypeArena();

  /// Builds an overlay over \p Base: interning consults the base pool
  /// (read-only) before the local one, so base types resolve to the same
  /// pointers and only genuinely new types are owned locally. The shared
  /// per-crate analysis uses this to give every campaign worker a private
  /// copy-on-write arena over one immutable instantiation. \p Base must
  /// outlive the overlay and must not grow while overlays exist (the
  /// overlay continues the base's variable-index sequence and skips the
  /// base pool's synchronization entirely).
  TypeArena(const TypeArena &Base, OverlayTag);

  TypeArena(const TypeArena &) = delete;
  TypeArena &operator=(const TypeArena &) = delete;

  /// Interns a primitive type. \p Name must be one of the recognized
  /// primitive spellings (see isPrimName) or "()".
  const Type *prim(const std::string &Name);

  /// Interns a nominal type with generic arguments (empty for plain names).
  const Type *named(const std::string &Name,
                    std::vector<const Type *> Args = {});

  /// Interns &T (Mutable=false) or &mut T (Mutable=true). Memoized per
  /// pointee: the encoder derives the same references once per (line,
  /// site, candidate), and hash-consing already fixes the answer.
  const Type *ref(const Type *Pointee, bool Mutable);

  /// Interns a tuple type; requires at least two elements (unit is prim,
  /// one-element tuples do not exist in this fragment).
  const Type *tuple(std::vector<const Type *> Elems);

  /// Interns a type variable.
  const Type *typeVar(const std::string &Name);

  /// The unit type "()".
  const Type *unit();

  /// True if \p Name spells a Rust primitive scalar type.
  static bool isPrimName(const std::string &Name);

  /// Number of distinct interned types, including the base chain's.
  size_t size() const {
    return Pool.size() + (Base ? Base->size() : 0);
  }

  /// Types owned by this arena alone (excludes the base chain).
  size_t localSize() const { return Pool.size(); }

private:
  const Type *intern(Type Proto);
  const Type *findKey(const std::string &Key) const;
  static std::string render(const Type &T);

  std::unordered_map<std::string, std::unique_ptr<Type>> Pool;
  /// ref() memo: pointee -> {&T, &mut T}, null until first requested.
  /// Lives in the arena that answered the call, so an overlay never
  /// writes its frozen base.
  std::unordered_map<const Type *, std::array<const Type *, 2>> RefMemo;
  const Type *Unit = nullptr;
  const TypeArena *Base = nullptr;
  /// Next Type::varIndex() to hand out; overlays resume the base's count.
  int NextVarIdx = 0;
};

} // namespace syrust::types

#endif // SYRUST_TYPES_TYPE_H
