//===--- DependencyGraph.h - Producer/consumer API graph -------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The API dependency graph: nodes are the API signatures of one crate's
/// database and a directed edge (A, B, j) says "the output of A unifies
/// into input slot j of B" - the producer/consumer relation RULF uses as
/// its coverage unit for library fuzzing. Each candidate edge is one
/// direct unification probe of the renamed output type against the
/// renamed input pattern - the same probe the encoder makes for a
/// (producer, consumer, slot) triple - so the edge set is exactly the
/// probe-success set.
///
/// The graph is frozen per crate: it covers every signature of the base
/// database (bans and run-local refinement never change it), edges are
/// sorted by (producer, consumer, slot), and edge truth is a pure
/// function of interned type pointers - so two builds over the same
/// database are byte-identical regardless of seed, worker count, or
/// whether a shared analysis or a private instantiation supplied the
/// types. coverage::ApiPairCoverage marks bitsets over these nodes and
/// edges as the synthesizer emits programs.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_API_DEPENDENCYGRAPH_H
#define SYRUST_API_DEPENDENCYGRAPH_H

#include "api/ApiDatabase.h"
#include "types/Type.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace syrust::api {

/// One producer -> consumer edge: the output of \c Producer can feed
/// input slot \c Slot of \c Consumer.
struct DependencyEdge {
  ApiId Producer = ApiIdInvalid;
  ApiId Consumer = ApiIdInvalid;
  /// Input-slot index on the consumer (the receiver is slot 0).
  int Slot = 0;
  /// The consumer slot takes a reference (&T / &mut T) rather than
  /// consuming the value.
  bool ByRef = false;
  /// The connection involves an uninstantiated type variable on either
  /// endpoint (producer output or consumer slot pattern), i.e. it only
  /// exists under some generic instantiation.
  bool Generic = false;
};

/// Frozen producer/consumer graph over one API database. See file
/// comment for the determinism contract.
class DependencyGraph {
public:
  DependencyGraph() = default;

  /// Nodes are ApiIds [0, numNodes()), mirroring the database the graph
  /// was built from (builtins included).
  size_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return Edges.size(); }

  /// Edges sorted by (Producer, Consumer, Slot) - the deterministic
  /// bitset order coverage tracking and serialization rely on.
  const std::vector<DependencyEdge> &edges() const { return Edges; }

  /// Dense index of edge (Producer, Consumer, Slot) into edges(), or -1
  /// when the graph has no such edge.
  int edgeIndex(ApiId Producer, ApiId Consumer, int Slot) const {
    auto It = Index.find(packKey(Producer, Consumer, Slot));
    return It == Index.end() ? -1 : It->second;
  }

  /// O(1) membership test over the same edge set as edgeIndex(), backed
  /// by per-(consumer, slot) bitset rows over producer ids instead of a
  /// hash probe. This is the encoder's pruning fast path: one bit test
  /// replaces a unification, and by construction (the edge set is
  /// exactly the probe-success set) the answer equals
  /// unifiable(renamed output of Producer, renamed slot pattern).
  bool hasEdge(ApiId Producer, ApiId Consumer, int Slot) const {
    size_t Row = static_cast<size_t>(SlotBase[static_cast<size_t>(Consumer)]) +
                 static_cast<size_t>(Slot);
    uint64_t Word =
        Bits[Row * WordsPerRow + static_cast<size_t>(Producer) / 64];
    return (Word >> (static_cast<size_t>(Producer) % 64)) & 1;
  }

  /// True when \p Consumer has at least one inbound producer for slot
  /// \p Slot anywhere in the database (any bit set in the row).
  bool slotHasProducer(ApiId Consumer, int Slot) const {
    size_t Row = static_cast<size_t>(SlotBase[static_cast<size_t>(Consumer)]) +
                 static_cast<size_t>(Slot);
    for (size_t W = 0; W < WordsPerRow; ++W)
      if (Bits[Row * WordsPerRow + W])
        return true;
    return false;
  }

  /// Canonical one-line-per-edge rendering (golden tests): endpoint
  /// names and types from \p Db plus the edge metadata.
  std::string describe(const ApiDatabase &Db) const;

private:
  friend DependencyGraph buildDependencyGraph(const ApiDatabase &Db,
                                              types::TypeArena &Arena);

  static uint64_t packKey(ApiId Producer, ApiId Consumer, int Slot) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(Producer)) << 40) |
           (static_cast<uint64_t>(static_cast<uint32_t>(Consumer) &
                                  0xffffff)
            << 16) |
           static_cast<uint64_t>(static_cast<uint32_t>(Slot) & 0xffff);
  }

  size_t NumNodes = 0;
  std::vector<DependencyEdge> Edges;
  std::unordered_map<uint64_t, int> Index;

  /// Bitset adjacency: row r = SlotBase[Consumer] + Slot holds one bit
  /// per producer id, WordsPerRow 64-bit words per row. SlotBase is the
  /// prefix sum of input counts over consumer ids (one trailing total
  /// entry), so rows for all (consumer, slot) pairs pack densely.
  std::vector<uint32_t> SlotBase;
  std::vector<uint64_t> Bits;
  size_t WordsPerRow = 0;
};

/// Builds the graph over every signature of \p Db. Signatures are
/// renamed with the same "a<ApiId>" suffix Encoding::sync uses, interned
/// into \p Arena (inside core::CrateAnalysis that is the base arena, so
/// every worker's renames resolve to these pointers), and each candidate
/// edge is one direct \c unifiable(renamed output, renamed slot pattern)
/// probe under a fresh substitution.
DependencyGraph buildDependencyGraph(const ApiDatabase &Db,
                                     types::TypeArena &Arena);

} // namespace syrust::api

#endif // SYRUST_API_DEPENDENCYGRAPH_H
