//===--- OverlayTest.cpp - Overlay arenas and shared crate analysis -------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers what lets campaign workers share one frozen crate analysis:
/// the copy-on-write overlay TypeArena (pointer identity with the base,
/// no writes to it, also from concurrent workers), the per-arena
/// TypeArena::ref memo, and the isolation of overlay CrateInstances.
///
//===----------------------------------------------------------------------===//

#include "core/CrateAnalysis.h"
#include "core/Session.h"
#include "types/Subtyping.h"
#include "types/Type.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::types;

namespace {

//===----------------------------------------------------------------------===//
// Overlay arena: copy-on-write over a frozen base pool.
//===----------------------------------------------------------------------===//

TEST(OverlayArenaTest, BaseTypesKeepPointerIdentity) {
  TypeArena Base;
  const Type *VecI32 = Base.named("Vec", {Base.prim("i32")});
  const Type *T = Base.typeVar("T");
  const size_t BaseLocal = Base.localSize();

  TypeArena Over(Base, Overlay);
  // Requests for base-interned types resolve to the very same pointers,
  // so substitutions and cache keys built against the base stay valid.
  EXPECT_EQ(Over.named("Vec", {Over.prim("i32")}), VecI32);
  EXPECT_EQ(Over.typeVar("T"), T);
  EXPECT_EQ(Over.localSize(), 0u);

  // New types land in the overlay; the base pool is untouched.
  const Type *Fresh = Over.named("Vec", {Over.named("Fresh")});
  EXPECT_NE(Fresh, nullptr);
  EXPECT_GT(Over.localSize(), 0u);
  EXPECT_EQ(Base.localSize(), BaseLocal);
  EXPECT_EQ(Over.size(), Base.localSize() + Over.localSize());
}

TEST(OverlayArenaTest, VarIndicesContinueAcrossOverlay) {
  TypeArena Base;
  const Type *T = Base.typeVar("T");
  const Type *U = Base.typeVar("U");
  EXPECT_GE(T->varIndex(), 0);
  EXPECT_NE(T->varIndex(), U->varIndex());

  // The overlay resumes the base's index sequence: a fresh var never
  // collides with any base var, so one flat Substitution can span both.
  TypeArena Over(Base, Overlay);
  const Type *V = Over.typeVar("V");
  EXPECT_NE(V->varIndex(), T->varIndex());
  EXPECT_NE(V->varIndex(), U->varIndex());
  EXPECT_EQ(Over.typeVar("T"), T); // base var, base index

  Substitution S;
  EXPECT_TRUE(S.bind(T, Base.prim("i32")));
  EXPECT_TRUE(S.bind(V, Base.prim("u8")));
  EXPECT_EQ(S.lookup(T), Base.prim("i32"));
  EXPECT_EQ(S.lookup(V), Base.prim("u8"));
}

//===----------------------------------------------------------------------===//
// TypeArena::ref memo: a per-arena pointee -> {&T, &mut T} table.
//===----------------------------------------------------------------------===//

TEST(RefMemoTest, PlainArenaMatchesParser) {
  TypeArena Arena;
  TypeParser Parser{Arena, {"T"}};
  for (const char *Pointee :
       {"String", "Vec<T>", "(i32, String)", "Option<&u8>"}) {
    const Type *P = Parser.parse(Pointee);
    ASSERT_NE(P, nullptr) << Parser.error();
    // Memo first, structural parse second...
    const Type *Shared = Arena.ref(P, false);
    EXPECT_EQ(Shared, Parser.parse(std::string("&") + Pointee));
    // ...and the other way round.
    const Type *MutParsed = Parser.parse(std::string("&mut ") + Pointee);
    EXPECT_EQ(Arena.ref(P, true), MutParsed);
    EXPECT_EQ(Shared->pointee(), P);
    EXPECT_EQ(MutParsed->pointee(), P);
  }
}

TEST(RefMemoTest, MutabilityIsDistinctAndRepeatsAreStable) {
  TypeArena Arena;
  const Type *S = Arena.named("String");
  const Type *Shared = Arena.ref(S, false);
  const Type *Mut = Arena.ref(S, true);
  EXPECT_NE(Shared, Mut);
  EXPECT_TRUE(Shared->isSharedRef());
  EXPECT_TRUE(Mut->isMutRef());
  const size_t Size = Arena.size();
  for (int I = 0; I < 3; ++I) {
    EXPECT_EQ(Arena.ref(S, false), Shared);
    EXPECT_EQ(Arena.ref(S, true), Mut);
  }
  EXPECT_EQ(Arena.size(), Size);
}

TEST(OverlayArenaTest, RefPresentInBaseResolvesToBasePointer) {
  TypeArena Base;
  const Type *S = Base.named("String");
  const Type *BaseRef = Base.ref(S, false);
  const size_t BaseLocal = Base.localSize();

  TypeArena Over(Base, Overlay);
  EXPECT_EQ(Over.ref(S, false), BaseRef);
  EXPECT_EQ(Over.ref(S, false), BaseRef); // Now an overlay memo hit.
  EXPECT_EQ(Over.localSize(), 0u);
  EXPECT_EQ(Base.localSize(), BaseLocal);
}

TEST(OverlayArenaTest, NewRefGrowsOverlayByExactlyOne) {
  TypeArena Base;
  const Type *S = Base.named("String");
  Base.ref(S, false);
  const size_t BaseLocal = Base.localSize();

  TypeArena Over(Base, Overlay);
  // &mut String is not in the base: the first call interns it locally.
  const Type *Mut = Over.ref(S, true);
  EXPECT_EQ(Over.localSize(), 1u);
  EXPECT_EQ(Over.ref(S, true), Mut);
  EXPECT_EQ(Over.localSize(), 1u);

  // The same holds for a pointee the overlay owns itself.
  const Type *Fresh = Over.named("Fresh");
  const size_t Local = Over.localSize();
  const Type *FreshRef = Over.ref(Fresh, false);
  EXPECT_EQ(Over.localSize(), Local + 1);
  EXPECT_EQ(Over.ref(Fresh, false), FreshRef);
  EXPECT_EQ(Over.localSize(), Local + 1);
  EXPECT_EQ(Base.localSize(), BaseLocal);
}

TEST(OverlayArenaTest, ConcurrentOverlaysNeverWriteTheBase) {
  // Several workers, each with a private overlay over one frozen base,
  // derive references and generic instances at the same time. Every
  // base-resident answer must be the base's pointer, and the base must
  // not grow; under ThreadSanitizer this also proves the memo writes
  // stay in the overlays.
  TypeArena Base;
  std::vector<const Type *> Pointees = {Base.named("String"),
                                        Base.prim("i32"),
                                        Base.named("Vec", {Base.prim("u8")})};
  std::vector<const Type *> BaseShared;
  for (const Type *P : Pointees)
    BaseShared.push_back(Base.ref(P, false));
  const Type *BaseVec = Base.named("Vec", {Pointees[0]});
  const size_t BaseLocal = Base.localSize();

  constexpr int Workers = 4;
  std::vector<int> Mismatches(Workers, 0);
  std::vector<std::thread> Pool;
  for (int W = 0; W < Workers; ++W) {
    Pool.emplace_back([&, W] {
      TypeArena Over(Base, Overlay);
      for (int Round = 0; Round < 200; ++Round) {
        for (size_t I = 0; I < Pointees.size(); ++I) {
          if (Over.ref(Pointees[I], false) != BaseShared[I])
            ++Mismatches[W];
          const Type *Mut = Over.ref(Pointees[I], true);
          if (Over.ref(Pointees[I], true) != Mut || !Mut->isMutRef())
            ++Mismatches[W];
        }
        if (Over.named("Vec", {Pointees[0]}) != BaseVec)
          ++Mismatches[W];
      }
      if (Over.localSize() != Pointees.size()) // One &mut per pointee.
        ++Mismatches[W];
    });
  }
  for (std::thread &T : Pool)
    T.join();
  for (int W = 0; W < Workers; ++W)
    EXPECT_EQ(Mismatches[W], 0) << "worker " << W;
  EXPECT_EQ(Base.localSize(), BaseLocal);
}

//===----------------------------------------------------------------------===//
// Shared crate analysis: one frozen base, isolated worker overlays.
//===----------------------------------------------------------------------===//

TEST(CrateAnalysisTest, WorkerInstancesAreIsolated) {
  Session S;
  const crates::CrateSpec *Spec = S.find("slab");
  ASSERT_NE(Spec, nullptr);
  std::shared_ptr<const CrateAnalysis> Analysis = S.analysisFor(*Spec);
  ASSERT_NE(Analysis, nullptr);
  // Session memoizes: same crate, same analysis object.
  EXPECT_EQ(S.analysisFor(*Spec).get(), Analysis.get());

  std::unique_ptr<crates::CrateInstance> W1 =
      Analysis->makeWorkerInstance();
  std::unique_ptr<crates::CrateInstance> W2 =
      Analysis->makeWorkerInstance();
  const size_t BaseApis = Analysis->base().Db.activeIds().size();
  const size_t BaseLocal = Analysis->base().Arena.localSize();

  // A refinement-style mutation in one worker (ban an API, intern a new
  // instantiation) is invisible to the base and to the other worker.
  ASSERT_FALSE(W1->Db.activeIds().empty());
  W1->Db.ban(W1->Db.activeIds().front());
  W1->Arena.named("OnlyInW1");
  EXPECT_EQ(W1->Db.activeIds().size(), BaseApis - 1);
  EXPECT_EQ(W2->Db.activeIds().size(), BaseApis);
  EXPECT_EQ(Analysis->base().Db.activeIds().size(), BaseApis);
  EXPECT_GT(W1->Arena.localSize(), 0u);
  EXPECT_EQ(W2->Arena.localSize(), 0u);
  EXPECT_EQ(Analysis->base().Arena.localSize(), BaseLocal);
}

} // namespace
