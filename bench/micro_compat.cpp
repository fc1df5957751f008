//===--- micro_compat.cpp - Compat kernel A/B microbench ------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A/B benchmark for the memoized compatibility kernel on a
/// refinement-heavy stress model built
/// for the probe workload the cache targets: deeply nested polymorphic
/// signatures (depth-kDepth generic spines), consumers whose slots share
/// a type variable (so every pairwise probe of Definition 2(3) walks the
/// full spine under a joint substitution), and rounds of database growth
/// under the rebuild-the-world refinement path - each rebuild re-asks the
/// complete probe workload over interned types, which is exactly what the
/// memo answers in O(1) after the first computation. Both sides run the
/// identical configuration; the only difference is SynthOptions::Compat,
/// and the bench fails if the two program streams differ. Real library
/// runs always chain a cache onto their crate's shared analysis, so
/// there is no library-level off side to compare.
///
/// Writes BENCH_compat.json.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "report/Table.h"
#include "support/StringUtils.h"
#include "synth/Synthesizer.h"
#include "types/TypeParser.h"

#include <cinttypes>
#include <string>
#include <vector>

using namespace syrust;
using namespace syrust::bench;
using namespace syrust::report;
using namespace syrust::synth;

namespace {

// Stress-model shape. Each layer nests the payload under three sibling
// generic branches, so a direct unification walks ~3^kDepth nodes (the
// interned type DAG stays small - interning shares subtrees - but the
// match recurses the tree) while a memo hit stays one pointer-pair hash.
// Nesting depth is ~4 levels per layer; keep kDepth*4 below unifyImpl's
// depth-32 defensive bound.
constexpr int kDepth = 6;
constexpr int kProducers = 20;
constexpr int kConsumers = 10;
constexpr int kRounds = 8;
constexpr int kPerRound = 8;
constexpr int kMaxLines = 3;

struct StressResult {
  double BuildSeconds = 0;
  uint64_t Emitted = 0;
  uint64_t Rebuilds = 0;
  std::vector<uint64_t> Hashes;
  types::CompatCache::Stats Cache;
};

std::string deep(std::string Core) {
  for (int D = 0; D < kDepth; ++D)
    Core = "Vec<(HashMap<String, Option<" + Core + ">>, Vec<" + Core +
           ">, Option<(" + Core + ", usize)>)>";
  return Core;
}

StressResult runStress(bool WithCache) {
  types::TypeArena Arena;
  types::TypeParser Parser(Arena, {"T"});
  types::TraitEnv Traits(Arena);
  api::ApiDatabase Db;
  auto Add = [&](const std::string &Name, std::vector<std::string> Ins,
                 const std::string &Out) {
    api::ApiSig Sig;
    Sig.Name = Name;
    for (const auto &I : Ins)
      Sig.Inputs.push_back(Parser.parse(I));
    Sig.Output = Parser.parse(Out);
    Db.add(std::move(Sig));
  };
  // Producers mint distinct deep concrete types from a Copy seed (a
  // consumable seed would die on the first call and cap programs at one
  // line); consumers take two of them under one shared variable, so each
  // candidate pair costs a joint full-spine unification when computed
  // directly.
  for (int I = 0; I < kProducers; ++I)
    Add("mk" + std::to_string(I), {"usize"},
        deep("Item" + std::to_string(I)));
  for (int I = 0; I < kConsumers; ++I)
    Add("use" + std::to_string(I), {deep("T"), deep("T")}, "usize");
  std::vector<program::TemplateInput> Inputs = {
      {"n", Parser.parse("usize")}};

  types::CompatCache Cache;
  SynthOptions Opts;
  // The rebuild-the-world refinement path: every database change tears
  // the encodings down and re-asks the whole probe workload. Interleaved
  // lengths keep one live encoding per length, so each round rebuilds
  // all of them, not just the shortest unexhausted one.
  Opts.IncrementalRefinement = false;
  Opts.InterleaveLengths = true;
  if (WithCache)
    Opts.Compat = &Cache;
  Synthesizer Synth(Arena, Traits, Db, Inputs, kMaxLines, Opts);

  StressResult R;
  for (int Round = 0; Round < kRounds; ++Round) {
    for (int K = 0; K < kPerRound; ++K) {
      auto P = Synth.next();
      if (!P.has_value())
        break;
      R.Hashes.push_back(P->hash());
    }
    Add("mk_r" + std::to_string(Round), {"usize"},
        deep("Round" + std::to_string(Round)));
    Synth.notifyDatabaseChanged();
  }
  R.BuildSeconds = Synth.stats().BuildSeconds;
  R.Emitted = Synth.stats().Emitted;
  R.Rebuilds = Synth.stats().Rebuilds;
  R.Cache = Cache.stats();
  return R;
}

} // namespace

int main() {
  banner("micro_compat",
         "memoized compatibility kernel: SynthOptions::Compat on vs off");

  BenchJson J("compat");
  bool StreamsIdentical = true;

  std::printf("deep-polymorphic refinement stress: depth %d, %d producers, "
              "%d consumers, %d rounds\n\n",
              kDepth, kProducers, kConsumers, kRounds);
  StressResult On = runStress(true);
  StressResult Off = runStress(false);
  if (On.Hashes != Off.Hashes) {
    StreamsIdentical = false;
    std::fprintf(stderr, "FAIL: stress program stream diverged with the "
                         "cache on\n");
  }
  double StressSpeedup =
      On.BuildSeconds > 0 ? Off.BuildSeconds / On.BuildSeconds : 0;
  uint64_t StressHits = On.Cache.Hits + On.Cache.BaseHits;
  uint64_t StressProbes = StressHits + On.Cache.Misses;
  Table TS({"Workload", "Build s (cache)", "Build s (no cache)", "Speedup",
            "Hit Rate", "Rebuilds", "Programs"});
  TS.addRow({"deep-poly stress", format("%.4f", On.BuildSeconds),
             format("%.4f", Off.BuildSeconds),
             format("x%.2f", StressSpeedup),
             StressProbes > 0
                 ? format("%.1f %%", 100.0 * static_cast<double>(StressHits) /
                                         static_cast<double>(StressProbes))
                 : "-",
             format("%" PRIu64, On.Rebuilds),
             format("%" PRIu64, On.Emitted)});
  std::printf("%s\n", TS.render().c_str());

  J.meta("stress_depth", json::Value::integer(kDepth));
  J.meta("stress_rounds", json::Value::integer(kRounds));
  J.meta("stress_probes", json::Value::integer(
                              static_cast<int64_t>(StressProbes)));
  J.meta("stress_cache_hits",
         json::Value::integer(static_cast<int64_t>(StressHits)));
  J.meta("encoding_build_wall_seconds_cache_on",
         json::Value::number(On.BuildSeconds));
  J.meta("encoding_build_wall_seconds_cache_off",
         json::Value::number(Off.BuildSeconds));
  J.meta("encoding_build_speedup", json::Value::number(StressSpeedup));
  J.meta("streams_identical", json::Value::boolean(StreamsIdentical));

  std::printf("stress encoding-build wall time: %.4f s with cache, %.4f s "
              "without -> x%.2f speedup\n",
              On.BuildSeconds, Off.BuildSeconds, StressSpeedup);
  std::printf("program streams identical: %s\n",
              StreamsIdentical ? "yes" : "NO - BUG");
  J.write();
  return StreamsIdentical ? 0 : 1;
}
