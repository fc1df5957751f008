//===--- micro_prune.cpp - Graph-guided encoding pruning A/B bench --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// A/B benchmark for graph-guided encoding pruning on a probe-dominated
/// stress model: many
/// producers minting distinct concrete types and single-input consumers
/// each accepting exactly one of them, so candidate enumeration asks a
/// large number of per-slot probes of which most FAIL (no clause work
/// follows, the probe itself is the cost) and none are joint probes. A
/// handful of consumers take a type nothing produces, exercising the
/// dead-API pass. Both sides share the same frozen graph; the only
/// difference is SynthOptions::GraphPrune, i.e. whether a probe is an
/// O(1) bitset test or a direct unification.
/// The rebuild-the-world refinement path (incremental refinement off,
/// interleaved lengths, a no-op database notification per round) forces
/// every round to rebuild all live encodings and re-ask the whole probe
/// workload. The bench fails if the two program streams differ. Real
/// library runs are checked on/off in-process over every crate
/// (GraphPruneIdentityTest), and their production probe split is in
/// every run document (synth.prune.*).
///
/// Writes BENCH_prune.json.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "api/DependencyGraph.h"
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

// Stress-model shape: kProducers distinct concrete output types, one
// single-slot consumer per producer (so all but one probe per consumer
// slot fails), kDeadApis consumers of a type nothing mints (dead sites
// on every line), and kRounds forced full rebuilds. Probe volume per
// rebuild grows with lines * APIs * values-in-scope; the constants below
// push it into the millions while the emitted formulas stay small.
constexpr int kProducers = 220;
constexpr int kConsumers = 220;
constexpr int kDeadApis = 20;
constexpr int kRounds = 10;
constexpr int kPerRound = 6;
constexpr int kMaxLines = 4;

struct StressResult {
  double BuildSeconds = 0;
  uint64_t Emitted = 0;
  uint64_t Rebuilds = 0;
  std::vector<uint64_t> Hashes;
  PruneStats Prune;
};

StressResult runStress(bool GraphPrune, types::TypeArena &Arena,
                       const types::TraitEnv &Traits, api::ApiDatabase &Db,
                       const api::DependencyGraph &Graph,
                       const std::vector<program::TemplateInput> &Inputs) {
  SynthOptions Opts;
  // Rebuild-the-world: every notifyDatabaseChanged() tears down and
  // reconstructs all live encodings, re-asking the full probe workload.
  Opts.IncrementalRefinement = false;
  Opts.InterleaveLengths = true;
  Opts.Graph = &Graph;
  Opts.GraphPrune = GraphPrune;
  Synthesizer Synth(Arena, Traits, Db, Inputs, kMaxLines, Opts);

  StressResult R;
  for (int Round = 0; Round < kRounds; ++Round) {
    for (int K = 0; K < kPerRound; ++K) {
      auto P = Synth.next();
      if (!P.has_value())
        break;
      R.Hashes.push_back(P->hash());
    }
    // No database change: the notification alone forces the
    // non-incremental path to rebuild every live length.
    Synth.notifyDatabaseChanged();
  }
  R.BuildSeconds = Synth.stats().BuildSeconds;
  R.Emitted = Synth.stats().Emitted;
  R.Rebuilds = Synth.stats().Rebuilds;
  R.Prune.GraphProbes = Synth.stats().PruneGraphProbes;
  R.Prune.FallbackProbes = Synth.stats().PruneFallbackProbes;
  R.Prune.DeadSites = Synth.stats().PruneDeadSites;
  R.Prune.VarsAvoided = Synth.stats().PruneVarsAvoided;
  R.Prune.ClausesAvoided = Synth.stats().PruneClausesAvoided;
  return R;
}

double avoidancePercent(const PruneStats &P) {
  uint64_t Total = P.GraphProbes + P.FallbackProbes;
  return Total > 0 ? 100.0 * static_cast<double>(P.GraphProbes) /
                         static_cast<double>(Total)
                   : 0.0;
}

} // namespace

int main() {
  banner("micro_prune",
         "graph-guided encoding pruning: SynthOptions::GraphPrune on vs off");

  BenchJson J("prune");
  bool StreamsIdentical = true;

  std::printf("probe-dominated rebuild stress: %d producers, %d consumers "
              "(+%d dead), %d rounds, %d lines\n\n",
              kProducers, kConsumers, kDeadApis, kRounds, kMaxLines);
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
  // Producers mint distinct concrete types from a Copy seed; consumer i
  // accepts only producer i's type, so the other kProducers-1 probes on
  // its slot fail without generating any clause.
  for (int I = 0; I < kProducers; ++I)
    Add("mk" + std::to_string(I), {"usize"},
        "Item" + std::to_string(I) + "<usize>");
  for (int I = 0; I < kConsumers; ++I)
    Add("use" + std::to_string(I), {"Item" + std::to_string(I) + "<usize>"},
        "usize");
  for (int I = 0; I < kDeadApis; ++I)
    Add("dead" + std::to_string(I), {"Orphan" + std::to_string(I)},
        "usize");
  std::vector<program::TemplateInput> Inputs = {
      {"n", Parser.parse("usize")}};

  api::DependencyGraph Graph = api::buildDependencyGraph(Db, Arena);

  StressResult On = runStress(true, Arena, Traits, Db, Graph, Inputs);
  StressResult Off = runStress(false, Arena, Traits, Db, Graph, Inputs);
  if (On.Hashes != Off.Hashes) {
    StreamsIdentical = false;
    std::fprintf(stderr, "FAIL: stress program stream diverged with "
                         "graph pruning on\n");
  }
  if (On.Prune.DeadSites != Off.Prune.DeadSites ||
      On.Prune.VarsAvoided != Off.Prune.VarsAvoided ||
      On.Prune.ClausesAvoided != Off.Prune.ClausesAvoided) {
    StreamsIdentical = false;
    std::fprintf(stderr, "FAIL: dead-site elimination diverged between "
                         "modes (must be structural)\n");
  }
  double StressSpeedup =
      On.BuildSeconds > 0 ? Off.BuildSeconds / On.BuildSeconds : 0;
  double Avoidance = avoidancePercent(On.Prune);

  Table TS({"Workload", "Build s (graph)", "Build s (no graph)", "Speedup",
            "Probe Avoidance", "Dead Sites", "Rebuilds", "Programs"});
  TS.addRow({"probe stress", format("%.4f", On.BuildSeconds),
             format("%.4f", Off.BuildSeconds),
             format("x%.2f", StressSpeedup), format("%.1f %%", Avoidance),
             format("%" PRIu64, On.Prune.DeadSites),
             format("%" PRIu64, On.Rebuilds),
             format("%" PRIu64, On.Emitted)});
  std::printf("%s\n", TS.render().c_str());

  J.meta("stress_rounds", json::Value::integer(kRounds));
  J.meta("stress_graph_probes",
         json::Value::integer(static_cast<int64_t>(On.Prune.GraphProbes)));
  J.meta("stress_fallback_probes",
         json::Value::integer(
             static_cast<int64_t>(On.Prune.FallbackProbes)));
  J.meta("stress_probe_avoidance_percent", json::Value::number(Avoidance));
  J.meta("stress_dead_sites",
         json::Value::integer(static_cast<int64_t>(On.Prune.DeadSites)));
  J.meta("stress_vars_avoided",
         json::Value::integer(static_cast<int64_t>(On.Prune.VarsAvoided)));
  J.meta("stress_clauses_avoided",
         json::Value::integer(
             static_cast<int64_t>(On.Prune.ClausesAvoided)));
  J.meta("encoding_build_wall_seconds_graph_on",
         json::Value::number(On.BuildSeconds));
  J.meta("encoding_build_wall_seconds_graph_off",
         json::Value::number(Off.BuildSeconds));
  J.meta("encoding_build_speedup", json::Value::number(StressSpeedup));

  J.meta("streams_identical", json::Value::boolean(StreamsIdentical));

  std::printf("stress encoding-build wall time: %.4f s with graph, %.4f s "
              "without -> x%.2f speedup\n",
              On.BuildSeconds, Off.BuildSeconds, StressSpeedup);
  std::printf("stress probe avoidance: %.1f %% of probes answered by the "
              "graph bitset\n",
              Avoidance);
  std::printf("program streams identical: %s\n",
              StreamsIdentical ? "yes" : "NO - BUG");
  J.write();
  return StreamsIdentical ? 0 : 1;
}
