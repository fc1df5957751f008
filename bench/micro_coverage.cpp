//===--- micro_coverage.cpp - API-pair coverage microbenches --------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The observability tax of api_coverage, measured in isolation: how
/// long the one-off dependency-graph freeze takes per crate, the raw
/// edge-marking rate, and - the number CI watches - the per-test
/// overhead of marking on the micro_synth full-pipeline workload
/// (Arg 0 = synthesis alone, Arg 1 = synthesis + marking; the delta
/// must stay under a few percent for coverage to be always-on).
///
//===----------------------------------------------------------------------===//

#include "api/DependencyGraph.h"
#include "coverage/ApiPairCoverage.h"
#include "crates/CrateRegistry.h"
#include "synth/Synthesizer.h"

#include "MicroMain.h"

#include <benchmark/benchmark.h>

using namespace syrust;
using namespace syrust::api;
using namespace syrust::coverage;
using namespace syrust::crates;
using namespace syrust::synth;

namespace {

const char *const GraphCrates[] = {"slab", "smallvec", "bitvec"};

void BM_GraphBuild(benchmark::State &State) {
  // The per-crate freeze cost (paid once per CrateAnalysis; campaign
  // workers share the result copy-on-write).
  auto Inst =
      findCrate(GraphCrates[State.range(0)])->instantiate();
  size_t Edges = 0;
  for (auto _ : State) {
    DependencyGraph G = buildDependencyGraph(Inst->Db, Inst->Arena);
    Edges = G.numEdges();
    benchmark::DoNotOptimize(Edges);
  }
  State.counters["edges"] = static_cast<double>(Edges);
}
BENCHMARK(BM_GraphBuild)->ArgName("crate")->Arg(0)->Arg(1)->Arg(2);

void BM_MarkProgram(benchmark::State &State) {
  // Raw marking rate over a pre-enumerated program batch.
  auto Inst = findCrate("slab")->instantiate();
  DependencyGraph G = buildDependencyGraph(Inst->Db, Inst->Arena);
  Synthesizer Synth(Inst->Arena, Inst->Traits, Inst->Db, Inst->Inputs, 4,
                    SynthOptions{});
  std::vector<program::Program> Programs;
  while (Programs.size() < 200) {
    auto P = Synth.next();
    if (!P)
      break;
    Programs.push_back(*P);
  }
  for (auto _ : State) {
    ApiPairCoverage Cov(G);
    uint64_t Edges = 0;
    for (const auto &P : Programs)
      Edges += Cov.markProgram(P, Inst->Db).NewEdges;
    benchmark::DoNotOptimize(Edges);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Programs.size()));
}
BENCHMARK(BM_MarkProgram);

void BM_FullPipelinePerTest(benchmark::State &State) {
  // micro_synth's amortized synthesize+decode step, with edge marking
  // bolted on when Arg is 1 - the A/B CI compares.
  bool Mark = State.range(0) != 0;
  auto Inst = findCrate("smallvec")->instantiate();
  DependencyGraph G = buildDependencyGraph(Inst->Db, Inst->Arena);
  ApiPairCoverage Cov(G);
  Synthesizer Synth(Inst->Arena, Inst->Traits, Inst->Db, Inst->Inputs,
                    Inst->MaxLen, SynthOptions{});
  int64_t Produced = 0;
  for (auto _ : State) {
    auto P = Synth.next();
    if (!P.has_value()) {
      State.SkipWithError("space exhausted");
      break;
    }
    benchmark::DoNotOptimize(P->hash());
    if (Mark)
      benchmark::DoNotOptimize(Cov.markProgram(*P, Inst->Db).NewEdges);
    ++Produced;
  }
  State.SetItemsProcessed(Produced);
}
BENCHMARK(BM_FullPipelinePerTest)->ArgName("mark")->Arg(0)->Arg(1);

} // namespace

SYRUST_BENCHMARK_MAIN("coverage")
