//===--- Type.cpp - Interned Rust type representation ---------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"

#include <algorithm>
#include <cassert>

using namespace syrust::types;

void Type::collectVars(std::vector<std::string> &Out) const {
  if (Kind == TypeKind::Var) {
    if (std::find(Out.begin(), Out.end(), Name) == Out.end())
      Out.push_back(Name);
    return;
  }
  for (const Type *Arg : Args)
    Arg->collectVars(Out);
}

TypeArena::TypeArena() { Unit = prim("()"); }

TypeArena::TypeArena(const TypeArena &BaseArena, OverlayTag)
    : Base(&BaseArena), NextVarIdx(BaseArena.NextVarIdx) {
  Unit = prim("()"); // Resolves to the base arena's unit.
}

const Type *TypeArena::findKey(const std::string &Key) const {
  auto It = Pool.find(Key);
  if (It != Pool.end())
    return It->second.get();
  return Base ? Base->findKey(Key) : nullptr;
}

bool TypeArena::isPrimName(const std::string &Name) {
  static const char *Prims[] = {"i8",   "i16",  "i32",  "i64",  "i128",
                                "u8",   "u16",  "u32",  "u64",  "u128",
                                "usize", "isize", "f32", "f64",  "bool",
                                "char", "()"};
  for (const char *P : Prims)
    if (Name == P)
      return true;
  return false;
}

std::string TypeArena::render(const Type &T) {
  switch (T.kind()) {
  case TypeKind::Prim:
  case TypeKind::Var:
    return T.name();
  case TypeKind::Named: {
    if (T.args().empty())
      return T.name();
    std::string Out = T.name() + "<";
    for (size_t I = 0; I < T.args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += T.args()[I]->str();
    }
    Out += ">";
    return Out;
  }
  case TypeKind::Ref:
    return (T.isMutRef() ? "&mut " : "&") + T.pointee()->str();
  case TypeKind::Tuple: {
    std::string Out = "(";
    for (size_t I = 0; I < T.args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += T.args()[I]->str();
    }
    Out += ")";
    return Out;
  }
  }
  return "<invalid>";
}

const Type *TypeArena::intern(Type Proto) {
  // The rendering alone is ambiguous (a Var "T" and a nominal "T" render
  // identically), so the intern key tags every node with its kind. Children
  // are already interned and carry their own keys.
  Proto.Rendered = render(Proto);
  Proto.Key =
      std::string(1, static_cast<char>('0' + static_cast<int>(Proto.Kind)));
  Proto.Key += Proto.Name;
  Proto.Key += Proto.MutRef ? 'm' : 's';
  Proto.Key += '(';
  for (const Type *Arg : Proto.Args) {
    Proto.Key += Arg->Key;
    Proto.Key += ',';
  }
  Proto.Key += ')';
  if (const Type *Existing = findKey(Proto.Key))
    return Existing;
  if (Proto.Kind == TypeKind::Var)
    Proto.VarIdx = NextVarIdx++;
  std::string Key = Proto.Key;
  auto Owned = std::make_unique<Type>(std::move(Proto));
  const Type *Raw = Owned.get();
  Pool.emplace(std::move(Key), std::move(Owned));
  return Raw;
}

const Type *TypeArena::prim(const std::string &Name) {
  assert(isPrimName(Name) && "unknown primitive type name");
  Type Proto;
  Proto.Kind = TypeKind::Prim;
  Proto.Name = Name;
  Proto.Concrete = true;
  return intern(std::move(Proto));
}

const Type *TypeArena::named(const std::string &Name,
                             std::vector<const Type *> Args) {
  assert(!isPrimName(Name) && "primitive spelled as a named type");
  Type Proto;
  Proto.Kind = TypeKind::Named;
  Proto.Name = Name;
  Proto.Concrete = true;
  for (const Type *Arg : Args)
    Proto.Concrete = Proto.Concrete && Arg->isConcrete();
  Proto.Args = std::move(Args);
  return intern(std::move(Proto));
}

const Type *TypeArena::ref(const Type *Pointee, bool Mutable) {
  assert(Pointee && "reference requires a pointee");
  const Type *&Slot = RefMemo[Pointee][Mutable ? 1 : 0];
  if (Slot)
    return Slot;
  Type Proto;
  Proto.Kind = TypeKind::Ref;
  Proto.MutRef = Mutable;
  Proto.Args = {Pointee};
  Proto.Concrete = Pointee->isConcrete();
  Slot = intern(std::move(Proto));
  return Slot;
}

const Type *TypeArena::tuple(std::vector<const Type *> Elems) {
  assert(Elems.size() >= 2 && "unit is prim; 1-tuples do not exist");
  Type Proto;
  Proto.Kind = TypeKind::Tuple;
  Proto.Concrete = true;
  for (const Type *E : Elems)
    Proto.Concrete = Proto.Concrete && E->isConcrete();
  Proto.Args = std::move(Elems);
  return intern(std::move(Proto));
}

const Type *TypeArena::typeVar(const std::string &Name) {
  Type Proto;
  Proto.Kind = TypeKind::Var;
  Proto.Name = Name;
  Proto.Concrete = false;
  return intern(std::move(Proto));
}

const Type *TypeArena::unit() { return Unit; }
