//===--- DependencyGraph.cpp - Producer/consumer API graph ----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "api/DependencyGraph.h"

#include "types/Subtyping.h"

using namespace syrust;
using namespace syrust::api;
using namespace syrust::types;

DependencyGraph syrust::api::buildDependencyGraph(const ApiDatabase &Db,
                                                  TypeArena &Arena) {
  DependencyGraph G;
  G.NumNodes = Db.size();

  G.SlotBase.resize(Db.size() + 1, 0);
  for (size_t K = 0; K < Db.size(); ++K)
    G.SlotBase[K + 1] =
        G.SlotBase[K] +
        static_cast<uint32_t>(Db.get(static_cast<ApiId>(K)).Inputs.size());
  G.WordsPerRow = (Db.size() + 63) / 64;
  G.Bits.assign(static_cast<size_t>(G.SlotBase[Db.size()]) * G.WordsPerRow,
                0);

  // Rename with the same "a<ApiId>" suffix Encoding::sync uses, so the
  // encoder's renames resolve to these interned pointers.
  std::vector<std::vector<const Type *>> RenIn(Db.size());
  std::vector<const Type *> RenOut(Db.size());
  for (size_t K = 0; K < Db.size(); ++K) {
    const ApiSig &Sig = Db.get(static_cast<ApiId>(K));
    std::string Suffix = "a" + std::to_string(static_cast<ApiId>(K));
    for (const Type *In : Sig.Inputs)
      RenIn[K].push_back(renameVars(Arena, In, Suffix));
    RenOut[K] = renameVars(Arena, Sig.Output, Suffix);
  }

  // Producer-major enumeration yields the sorted (Producer, Consumer,
  // Slot) edge order directly - no post-sort, and the dense edge index
  // is its append position.
  for (size_t A = 0; A < Db.size(); ++A) {
    for (size_t B = 0; B < Db.size(); ++B) {
      for (size_t J = 0; J < RenIn[B].size(); ++J) {
        const Type *Pattern = RenIn[B][J];
        Substitution Probe;
        if (!unifiable(RenOut[A], Pattern, Probe))
          continue;
        DependencyEdge E;
        E.Producer = static_cast<ApiId>(A);
        E.Consumer = static_cast<ApiId>(B);
        E.Slot = static_cast<int>(J);
        E.ByRef = Pattern->isRef();
        E.Generic = !RenOut[A]->isConcrete() || !Pattern->isConcrete();
        G.Index.emplace(
            DependencyGraph::packKey(E.Producer, E.Consumer, E.Slot),
            static_cast<int>(G.Edges.size()));
        G.Edges.push_back(E);
        size_t Row = G.SlotBase[B] + J;
        G.Bits[Row * G.WordsPerRow + A / 64] |= uint64_t(1) << (A % 64);
      }
    }
  }
  return G;
}

std::string DependencyGraph::describe(const ApiDatabase &Db) const {
  std::string Out;
  Out += "nodes " + std::to_string(NumNodes) + " edges " +
         std::to_string(Edges.size()) + "\n";
  for (const DependencyEdge &E : Edges) {
    const ApiSig &P = Db.get(E.Producer);
    const ApiSig &C = Db.get(E.Consumer);
    Out += P.Name + " -> " + C.Name + "#" + std::to_string(E.Slot) + " [" +
           (P.Output ? P.Output->str() : "()") + " => " +
           C.Inputs[static_cast<size_t>(E.Slot)]->str() +
           (E.ByRef ? ", by-ref" : ", by-value") +
           (E.Generic ? ", generic" : "") + "]\n";
  }
  return Out;
}
