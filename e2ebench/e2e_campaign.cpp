//===--- e2e_campaign.cpp - End-to-end campaign benchmark -----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named campaign workload (sweep, interleave or hunt) with a
/// single worker and reports what a SyRust user sees: host wall time,
/// test programs per host second, per-cell latency, set-up time, memory,
/// rejection rate, API-pair coverage and time to bug.
///
/// With --trace 0 the matrix goes through campaign::CampaignRunner, the
/// path `syrust campaign` uses, and the end-to-end metrics are printed.
/// With --trace 1 the benchmark rebuilds Algorithm 1's driver loop from
/// the layers' public calls, times every call as a span, and checks each
/// cell against Session::runOne (the agreement gate). The last line of
/// standard output is one JSON object: correct, attempted, failed and
/// metrics. README.md in this directory explains the workloads.
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"
#include "core/BugMinimizer.h"
#include "miri/Interpreter.h"
#include "rustsim/Checker.h"
#include "support/SimClock.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define E2E_COMPILER "clang " __clang_version__
#else
#define E2E_COMPILER "gcc " __VERSION__
#endif

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;

namespace {

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point T0) {
  return std::chrono::duration<double>(SteadyClock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The sample at the highest percentile that still has at least ten
/// samples beyond it; falls back to the median below 11 samples.
std::pair<double, double> tailPercentile(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N < 11)
    return {median(V), 50.0};
  size_t Rank = N - 10; // 1-based rank with exactly ten samples above.
  return {V[Rank - 1], 100.0 * static_cast<double>(Rank) /
                           static_cast<double>(N)};
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(P / 100.0 * static_cast<double>(V.size()));
  return V[std::min(Idx, V.size() - 1)];
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One campaign matrix: crates × [SeedBegin, SeedEnd] × one variant.
struct Workload {
  std::string Name;
  std::vector<std::string> Crates;
  uint64_t SeedBegin = 0;
  uint64_t SeedEnd = 0;
  std::string Variant = "base";
  RunConfig Config;
  /// Whether every cell must find its crate's bug (hunt).
  bool MustFindBug = false;

  size_t cells() const {
    return Crates.size() * static_cast<size_t>(SeedEnd - SeedBegin + 1);
  }
};

/// Builds workload \p Name for benchmark seed \p Seed. Seeds map to
/// disjoint campaign seed ranges, so each --seed is a fresh matrix.
/// \p Tiny shrinks it to two crates and one seed for the self-test.
std::optional<Workload> makeWorkload(const Session &S,
                                     const std::string &Name,
                                     uint64_t Seed, bool Tiny) {
  Workload W;
  W.Name = Name;
  uint64_t SeedsPerCrate = 1;
  // Every workload minimizes the first bug of each cell, as the paper
  // does for every bug it reports; this keeps core.minimize_s measured
  // on all three.
  W.Config.MinimizeBugs = true;
  if (Name == "sweep") {
    W.Crates = S.supportedCrates();
    SeedsPerCrate = 6;
    W.Config.BudgetSeconds = 100;
  } else if (Name == "interleave") {
    W.Crates = S.supportedCrates();
    W.Variant = "interleave";
    SeedsPerCrate = 2;
    W.Config.BudgetSeconds = 150;
  } else if (Name == "hunt") {
    for (const CrateSpec &Spec : S.crates())
      if (Spec.Bug && Spec.Info.SupportsSynthesis)
        W.Crates.push_back(Spec.Info.Name);
    SeedsPerCrate = 8;
    W.Config.BudgetSeconds = 7200;
    W.Config.StopOnFirstBug = true;
    W.MustFindBug = true;
  } else {
    return std::nullopt;
  }
  if (Tiny) {
    if (W.Crates.size() > 2)
      W.Crates.resize(2);
    SeedsPerCrate = 1;
    if (!W.MustFindBug)
      W.Config.BudgetSeconds = 20;
  }
  W.SeedBegin = 1 + Seed * SeedsPerCrate;
  W.SeedEnd = W.SeedBegin + SeedsPerCrate - 1;
  return W;
}

campaign::CampaignSpec campaignSpec(const Workload &W) {
  campaign::CampaignSpec Spec;
  Spec.Crates = W.Crates;
  Spec.SeedBegin = W.SeedBegin;
  Spec.SeedEnd = W.SeedEnd;
  Spec.Variants = {W.Variant};
  Spec.Base = W.Config;
  Spec.Jobs = 1; // Pool width 1: measure the program, not the scheduler.
  return Spec;
}

/// The per-cell outcome every check compares.
struct CellOutcome {
  std::string Crate;
  uint64_t Seed = 0;
  uint64_t Synthesized = 0;
  uint64_t Rejected = 0;
  uint64_t Executed = 0;
  uint64_t UbCount = 0;
  int MaxLen = 0;
  bool BugFound = false;
  miri::UbKind FirstUb = miri::UbKind::None;
  double TimeToBug = -1;
  int MinimizedLines = 0;
  uint64_t EdgesCovered = 0;
  bool Supported = true;

  static CellOutcome of(const RunResult &R, uint64_t Seed) {
    CellOutcome O;
    O.Crate = R.Crate;
    O.Seed = Seed;
    O.Synthesized = R.Synthesized;
    O.Rejected = R.Rejected;
    O.Executed = R.Executed;
    O.UbCount = R.UbCount;
    O.MaxLen = R.MaxLenReached;
    O.BugFound = R.BugFound;
    O.FirstUb = R.FirstBug.Kind;
    O.TimeToBug = R.TimeToBug;
    O.MinimizedLines = R.MinimizedLines;
    O.EdgesCovered = R.ApiCoverage.edgesCovered();
    O.Supported = R.Supported;
    return O;
  }

  /// Empty when \p B agrees with this on every compared field; else
  /// names the first field that differs.
  std::string diff(const CellOutcome &B) const {
    if (Synthesized != B.Synthesized)
      return "synthesized";
    if (Rejected != B.Rejected)
      return "rejected";
    if (Executed != B.Executed)
      return "executed";
    if (UbCount != B.UbCount)
      return "ub_count";
    if (MaxLen != B.MaxLen)
      return "max_len";
    if (TimeToBug != B.TimeToBug)
      return "time_to_bug";
    if (EdgesCovered != B.EdgesCovered)
      return "api_edges";
    if (MinimizedLines != B.MinimizedLines)
      return "minimized_lines";
    return "";
  }
};

/// The hunt check: the cell found its crate's injected bug and
/// minimized it to the documented minimal line count.
bool huntCellPasses(const Session &S, const CellOutcome &O) {
  const CrateSpec *Spec = S.find(O.Crate);
  return Spec && Spec->Bug && O.BugFound && O.FirstUb == Spec->Bug->Kind &&
         O.MinimizedLines == Spec->Bug->MinLines;
}

//===----------------------------------------------------------------------===//
// Metrics output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 0;
  std::string Note;
  /// Declared in BENCHMARK.json and so part of the result line; the
  /// others are printed for the reader only (see README.md).
  bool Declared = true;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const std::vector<Metric> &Metrics, bool Correct,
                 uint64_t Attempted, uint64_t Failed) {
  std::printf("\n%-26s %14s  %-10s %7s %-8s %s\n", "metric", "value",
              "unit", "samples", "declared", "note");
  for (const Metric &M : Metrics)
    std::printf("%-26s %14.6g  %-10s %7zu %-8s %s\n", M.Name.c_str(),
                M.Value, M.Unit.c_str(), M.Samples,
                M.Declared ? "yes" : "no", M.Note.c_str());
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Metrics) {
    if (!M.Declared)
      continue;
    if (!First)
      Line += ", ";
    First = false;
    Line += "\"" + M.Name + "\": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

void printContext(const Workload &W, int Repeats, const char *Mode) {
  const bool Release = std::strcmp(E2E_BUILD_TYPE, "Release") == 0;
  for (std::FILE *Out : {stdout, stderr})
    if (!Release)
      std::fprintf(Out,
                   "WARNING: build type is '%s', not Release; timings are "
                   "not comparable with Release results\n",
                   E2E_BUILD_TYPE);
  std::printf("context: workload=%s mode=%s build_type=%s compiler=\"%s\" "
              "nproc=%u pool_width=1 crates=%zu seeds=%llu..%llu "
              "variant=%s sim_budget_s=%g stop_on_first_bug=%d "
              "minimize_bugs=%d repeats=%d\n",
              W.Name.c_str(), Mode, E2E_BUILD_TYPE, E2E_COMPILER,
              std::thread::hardware_concurrency(), W.Crates.size(),
              static_cast<unsigned long long>(W.SeedBegin),
              static_cast<unsigned long long>(W.SeedEnd), W.Variant.c_str(),
              W.Config.BudgetSeconds, W.Config.StopOnFirstBug ? 1 : 0,
              W.Config.MinimizeBugs ? 1 : 0, Repeats);
}

/// Median of \p Reps fresh Session() constructions plus the first
/// analysisFor() of every workload crate (the process-global crate
/// registry is built once, before the first repeat).
double measureSetup(const Workload &W, int Reps) {
  {
    Session Warm; // Builds the process-global registry outside the timing.
  }
  std::vector<double> Times;
  for (int I = 0; I < Reps; ++I) {
    auto T0 = SteadyClock::now();
    Session S;
    for (const std::string &Name : W.Crates)
      S.analysisFor(*S.find(Name));
    Times.push_back(secondsSince(T0));
  }
  return median(Times);
}

/// Whether another pass of \p PassSeconds still fits in the run.
bool passFits(SteadyClock::time_point Start, double Budget,
              double PassSeconds) {
  return secondsSince(Start) + PassSeconds <= Budget;
}

//===----------------------------------------------------------------------===//
// Untraced run: the campaign path
//===----------------------------------------------------------------------===//

struct PassResult {
  double Wall = 0;
  std::vector<double> CellSeconds;
  std::vector<CellOutcome> Cells;
  uint64_t Digest = 0;
  uint64_t Synthesized = 0;
  uint64_t Rejected = 0;
  uint64_t EdgesCovered = 0;
};

PassResult campaignPass(const Session &S, const Workload &W) {
  campaign::CampaignSpec Spec = campaignSpec(W);
  campaign::CampaignRunner Runner(S, Spec);
  PassResult P;
  auto Last = SteadyClock::now();
  Runner.onJobDone([&](const campaign::CampaignJobResult &) {
    auto Now = SteadyClock::now();
    P.CellSeconds.push_back(std::chrono::duration<double>(Now - Last).count());
    Last = Now;
  });
  auto T0 = SteadyClock::now();
  Last = T0;
  campaign::CampaignResult R = Runner.run();
  P.Wall = secondsSince(T0);
  // Host-time-free aggregate (resultToJson drops wall fields in
  // campaigns), so equal streams give equal digests.
  P.Digest = fnv1a(campaign::campaignToJson(Spec, R).dump());
  P.Synthesized = R.Totals.Synthesized;
  P.Rejected = R.Totals.Rejected;
  for (const auto &[Crate, Data] : R.ApiCoverage)
    P.EdgesCovered += Data.edgesCovered();
  for (const campaign::CampaignJobResult &JR : R.Jobs)
    P.Cells.push_back(CellOutcome::of(JR.Result, JR.Job.Seed));
  return P;
}

/// Bug metrics over the cells of crates that carry an injected bug:
/// the share that found exactly that bug, and the geometric mean of the
/// simulated time to it, where a cell that missed counts as its whole
/// budget (censored, as a timeout counts in Figure 7).
std::pair<double, double> bugMetrics(const Session &S,
                                     const std::vector<CellOutcome> &Cells,
                                     double Budget, size_t &BugCells) {
  size_t Found = 0;
  double LogSum = 0;
  BugCells = 0;
  for (const CellOutcome &O : Cells) {
    const CrateSpec *Spec = S.find(O.Crate);
    if (!Spec || !Spec->Bug)
      continue;
    ++BugCells;
    const bool Hit = O.BugFound && O.FirstUb == Spec->Bug->Kind;
    Found += Hit ? 1 : 0;
    LogSum += std::log(std::max(Hit ? O.TimeToBug : Budget, 1e-9));
  }
  if (!BugCells)
    return {0, 0};
  const double N = static_cast<double>(BugCells);
  return {static_cast<double>(Found) / N, std::exp(LogSum / N)};
}

int runUntraced(const Workload &W, double Budget) {
  auto Start = SteadyClock::now();
  const int SetupReps = 51;
  const double SetupS = measureSetup(W, SetupReps);

  Session S;
  for (const std::string &Name : W.Crates)
    S.analysisFor(*S.find(Name));

  std::vector<PassResult> Passes;
  do {
    Passes.push_back(campaignPass(S, W));
  } while (passFits(Start, Budget, Passes.back().Wall));

  const PassResult &First = Passes.front();
  uint64_t Failed = 0;
  bool DigestsAgree = true;
  for (const PassResult &P : Passes)
    DigestsAgree = DigestsAgree && P.Digest == First.Digest;
  std::vector<std::string> Problems;
  if (!DigestsAgree)
    Problems.push_back("stream digest differs between repeats");
  for (size_t I = 0; I < First.Cells.size(); ++I) {
    const CellOutcome &O = First.Cells[I];
    bool Bad = !O.Supported;
    for (const PassResult &P : Passes)
      if (!P.Cells[I].diff(O).empty()) {
        Bad = true;
        Problems.push_back("cell " + O.Crate + "/" + std::to_string(O.Seed) +
                           " differs between repeats");
        break;
      }
    if (W.MustFindBug && !huntCellPasses(S, O)) {
      Bad = true;
      Problems.push_back("hunt cell " + O.Crate + "/" +
                         std::to_string(O.Seed) +
                         " missed its bug or its minimal size");
    }
    Failed += Bad ? 1 : 0;
  }

  std::vector<double> Walls;
  for (const PassResult &P : Passes)
    Walls.push_back(P.Wall);
  std::vector<double> CellMedians;
  for (size_t I = 0; I < First.CellSeconds.size(); ++I) {
    std::vector<double> Samples;
    for (const PassResult &P : Passes)
      Samples.push_back(P.CellSeconds[I]);
    CellMedians.push_back(median(Samples));
  }
  const double WallS = median(Walls);
  const auto [TailS, TailPct] = tailPercentile(CellMedians);
  size_t BugCells = 0;
  const auto [BugShare, TtbSim] =
      bugMetrics(S, First.Cells, W.Config.BudgetSeconds, BugCells);
  const size_t Cells = First.Cells.size();
  const double FailRatio =
      static_cast<double>(Failed) / static_cast<double>(Cells);

  printContext(W, static_cast<int>(Passes.size()), "untraced");
  std::printf("wall_s per repeat:");
  for (double V : Walls)
    std::printf(" %.4f", V);
  std::printf("  (min %.4f, max %.4f)\n",
              *std::min_element(Walls.begin(), Walls.end()),
              *std::max_element(Walls.begin(), Walls.end()));
  std::printf("stream digest: %s (%s across %zu repeats)\n",
              hex64(First.Digest).c_str(),
              DigestsAgree ? "identical" : "DIFFERENT", Passes.size());
  for (const std::string &P : Problems)
    std::printf("check failed: %s\n", P.c_str());

  char TailNote[64];
  std::snprintf(TailNote, sizeof(TailNote), "p%.1f of per-cell medians",
                TailPct);
  std::vector<Metric> Metrics = {
      {"wall_s", WallS, "s", Walls.size(), "median over repeats"},
      {"tests_per_s", static_cast<double>(First.Synthesized) / WallS,
       "programs/s", Walls.size(), "synthesized / wall_s"},
      {"cell_s_p50", median(CellMedians), "s", Cells,
       "median of per-cell medians"},
      {"cell_s_tail", TailS, "s", Cells, TailNote, false},
      {"setup_s", SetupS, "s", static_cast<size_t>(SetupReps),
       "median of fresh Session + analyses"},
      {"peak_rss_mb", peakRssMb(), "MB", 1, "getrusage ru_maxrss", false},
      {"reject_pct",
       100.0 * static_cast<double>(First.Rejected) /
           static_cast<double>(std::max<uint64_t>(First.Synthesized, 1)),
       "%", Cells, "rejected / synthesized"},
      {"api_edges_covered", static_cast<double>(First.EdgesCovered), "edges",
       W.Crates.size(), "per-crate union over seeds, summed"},
      {"bugs_found", BugShare, "share", BugCells,
       "bug-crate cells whose first UB is the crate's bug", false},
      {"ttb_sim_s", TtbSim, "sim-s", BugCells,
       "geometric mean over bug-crate cells, a miss counts as the budget",
       false},
      {"cell_fail_ratio", FailRatio, "share", Cells,
       "failed cells / attempted cells", false},
  };
  const bool Correct = Failed == 0 && DigestsAgree;
  printResult(Metrics, Correct, Cells, Failed);
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced run: the driver loop rebuilt from the layers' public calls
//===----------------------------------------------------------------------===//

enum SpanKind : uint8_t {
  SpanCell,
  SpanAnalysis,
  SpanSynthInit,
  SpanSynthNext,
  SpanSynthNotify,
  SpanCheck,
  SpanRefine,
  SpanMiri,
  SpanCoverage,
  SpanMinimize,
  NumSpanKinds
};

const char *const SpanNames[NumSpanKinds] = {
    "cell",       "core.analysis", "synth.init",    "synth.next",
    "synth.notify", "rustsim.check", "refine",      "miri.run",
    "coverage.mark", "core.minimize"};

struct Span {
  SpanKind Kind;
  int32_t Parent; ///< Index of the enclosing span, -1 at the top.
  uint32_t Cell;
  double Start; ///< Seconds since the tracer's epoch.
  double End;
};

/// In-memory span store. Spans are written out only when the run ends.
class Tracer {
public:
  explicit Tracer(SteadyClock::time_point Epoch) : Epoch(Epoch) {}

  double now() const { return secondsSince(Epoch); }

  int32_t open(SpanKind Kind, int32_t Parent, uint32_t Cell) {
    Spans.push_back(Span{Kind, Parent, Cell, now(), 0});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void close(int32_t Idx) { Spans[static_cast<size_t>(Idx)].End = now(); }

  const std::vector<Span> &spans() const { return Spans; }

  /// Drops every span from index \p From on.
  void truncate(size_t From) { Spans.resize(From); }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "id\tname\tparent\tcell\tstart_us\tend_us\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &Sp = Spans[I];
      std::fprintf(F, "%zu\t%s\t%d\t%u\t%.1f\t%.1f\n", I, SpanNames[Sp.Kind],
                   Sp.Parent, Sp.Cell, Sp.Start * 1e6, Sp.End * 1e6);
    }
    return std::fclose(F) == 0;
  }

private:
  SteadyClock::time_point Epoch;
  std::vector<Span> Spans;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, SpanKind Kind, int32_t Parent, uint32_t Cell)
      : T(T), Idx(T.open(Kind, Parent, Cell)) {}
  ~Scope() { T.close(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t index() const { return Idx; }

private:
  Tracer &T;
  int32_t Idx;
};

/// Layer counters of one traced pass (all deterministic per cell).
struct LayerCounts {
  synth::SynthStats Synth; ///< Summed over cells.
  uint64_t Checks = 0, Rejects = 0;
  uint64_t RefineCalls = 0, DbChanges = 0;
  uint64_t MiriRuns = 0, MiriUb = 0;
  uint64_t NewEdges = 0;

  void add(const synth::SynthStats &S) {
    Synth.Emitted += S.Emitted;
    Synth.DuplicatesSkipped += S.DuplicatesSkipped;
    Synth.Rebuilds += S.Rebuilds;
    Synth.IncrementalExtends += S.IncrementalExtends;
    Synth.ModelsReblocked += S.ModelsReblocked;
    Synth.SolveCalls += S.SolveCalls;
    Synth.SolverConflicts += S.SolverConflicts;
    Synth.SolverPropagations += S.SolverPropagations;
    Synth.BuildSeconds += S.BuildSeconds;
    Synth.SolveSeconds += S.SolveSeconds;
    Synth.CompatHits += S.CompatHits;
    Synth.CompatBaseHits += S.CompatBaseHits;
    Synth.CompatMisses += S.CompatMisses;
    Synth.PruneGraphProbes += S.PruneGraphProbes;
    Synth.PruneFallbackProbes += S.PruneFallbackProbes;
    Synth.PruneVarsAvoided += S.PruneVarsAvoided;
  }
};

/// One cell of Algorithm 1, the same sequence of layer calls as
/// SyRustDriver::run() for the configurations the workloads use (no
/// input mutation, coverage bias or JSON error channel), with a span
/// around every call. Curve sampling, coverage snapshots and the result
/// database are bookkeeping that no compared output depends on, so the
/// loop leaves them out.
CellOutcome tracedCell(const Session &S, const CrateSpec &Spec,
                       const RunConfig &Config, Tracer &T, uint32_t CellId,
                       LayerCounts &Counts) {
  Scope Cell(T, SpanCell, -1, CellId);
  const int32_t Parent = Cell.index();
  std::shared_ptr<const CrateAnalysis> Analysis = S.analysisFor(Spec);
  std::unique_ptr<CrateInstance> Inst = Analysis->makeWorkerInstance();
  types::CompatCache Compat(&Analysis->baseCache());
  Rng R(Config.Seed ^ std::hash<std::string>{}(Spec.Info.Name));

  ApiSelectionOptions Sel;
  Sel.Pinned = Inst->Pinned;
  Sel.NumApis = Config.NumApis;
  std::vector<api::ApiId> Selected = selectApiSubset(Inst->Db, Sel, R);
  for (size_t I = 0; I < Inst->Db.size(); ++I) {
    api::ApiId Id = static_cast<api::ApiId>(I);
    if (Inst->Db.get(Id).Builtin == api::BuiltinKind::None &&
        std::find(Selected.begin(), Selected.end(), Id) == Selected.end())
      Inst->Db.ban(Id);
  }
  const api::DependencyGraph &Graph = Analysis->graph();
  coverage::ApiPairCoverage ApiCov(Graph);

  SimClock Clock;
  refine::RefinementEngine Refine(Inst->Arena, Inst->Db, Config.Mode);
  Refine.setEagerCap(Config.EagerCap);
  Refine.initialize(Inst->Inputs);

  synth::SynthOptions Opts;
  Opts.SemanticAware = Config.SemanticAware;
  Opts.InterleaveLengths = Config.InterleaveLengths;
  Opts.IncrementalRefinement = Config.IncrementalRefinement;
  Opts.Portfolio = Config.Portfolio;
  Opts.Strategy = Config.Strategy;
  if (Config.SolveConflictBudget != 0)
    Opts.SolveConflictBudget = Config.SolveConflictBudget;
  Opts.SolverSeed = Config.Seed;
  Opts.Compat = &Compat;
  Opts.Graph = &Graph;
  Opts.GraphPrune = Config.GraphPrune;
  std::optional<synth::Synthesizer> Synth;
  {
    Scope Sp(T, SpanSynthInit, Parent, CellId);
    Synth.emplace(Inst->Arena, Inst->Traits, Inst->Db, Inst->Inputs,
                  Inst->MaxLen, Opts);
  }
  rustsim::Checker Check(Inst->Arena, Inst->Traits);
  coverage::CoverageMap Cov(Inst->ComponentLines, Inst->LibraryLines,
                            Inst->ComponentBranches, Inst->LibraryBranches);
  miri::Interpreter Interp(Inst->Db, Inst->Traits, Inst->Registry,
                           Inst->Init, &Cov, Config.Seed + 7);

  CellOutcome O;
  O.Crate = Spec.Info.Name;
  O.Seed = Config.Seed;
  while (!Clock.exhausted(Config.BudgetSeconds)) {
    std::optional<program::Program> P;
    {
      Scope Sp(T, SpanSynthNext, Parent, CellId);
      P = Synth->next();
    }
    Clock.charge(Config.SolveCost);
    if (!P)
      break;
    O.MaxLen = std::max(O.MaxLen, static_cast<int>(P->Stmts.size()));
    ++O.Synthesized;
    {
      Scope Sp(T, SpanCoverage, Parent, CellId);
      Counts.NewEdges += ApiCov.markProgram(*P, Inst->Db).NewEdges;
    }
    rustsim::CompileResult Compiled;
    {
      Scope Sp(T, SpanCheck, Parent, CellId);
      Compiled = Check.check(*P, Inst->Db);
    }
    ++Counts.Checks;
    Clock.charge(Config.CompileCost);
    bool DbChanged = false;
    bool StopNow = false;
    if (!Compiled.Success) {
      ++O.Rejected;
      ++Counts.Rejects;
      Scope Sp(T, SpanRefine, Parent, CellId);
      DbChanged = Refine.onDiagnostic(Compiled.Diag);
    } else {
      {
        Scope Sp(T, SpanRefine, Parent, CellId);
        DbChanged = Refine.onSuccess(*P);
      }
      miri::ExecResult Exec;
      {
        Scope Sp(T, SpanMiri, Parent, CellId);
        Exec = Interp.run(*P);
      }
      ++Counts.MiriRuns;
      Clock.charge(Config.ExecCost * Inst->MiriCostFactor);
      ++O.Executed;
      if (Exec.UbFound) {
        ++O.UbCount;
        ++Counts.MiriUb;
        if (!O.BugFound) {
          O.BugFound = true;
          O.FirstUb = Exec.Report.Kind;
          O.TimeToBug = Clock.now();
          if (Config.MinimizeBugs) {
            Scope Sp(T, SpanMinimize, Parent, CellId);
            O.MinimizedLines =
                minimizeBugProgram(*Inst, *P, Exec.Report.Kind).Lines;
          }
        }
        StopNow = Config.StopOnFirstBug;
      }
    }
    ++Counts.RefineCalls;
    if (DbChanged) {
      ++Counts.DbChanges;
      Scope Sp(T, SpanSynthNotify, Parent, CellId);
      Synth->notifyDatabaseChanged();
    }
    if (StopNow)
      break;
  }
  synth::SynthStats Stats = Synth->stats();
  const types::CompatCache::Stats &CS = Compat.stats();
  Stats.CompatHits = CS.Hits;
  Stats.CompatBaseHits = CS.BaseHits;
  Stats.CompatMisses = CS.Misses;
  Counts.add(Stats);
  O.EdgesCovered = ApiCov.data().edgesCovered();
  return O;
}

/// Per-pass aggregate of the traced spans.
struct TracedPass {
  double Wall = 0;
  double SelfSeconds[NumSpanKinds] = {};
  std::vector<double> NextMicros;
  LayerCounts Counts;
  std::vector<CellOutcome> Cells;
};

void aggregateSpans(const std::vector<Span> &Spans, size_t From,
                    TracedPass &P) {
  std::vector<double> ChildSeconds(Spans.size() - From, 0.0);
  for (size_t I = From; I < Spans.size(); ++I) {
    const Span &Sp = Spans[I];
    double D = Sp.End - Sp.Start;
    if (Sp.Parent >= 0 && static_cast<size_t>(Sp.Parent) >= From)
      ChildSeconds[static_cast<size_t>(Sp.Parent) - From] += D;
    if (Sp.Kind == SpanSynthNext)
      P.NextMicros.push_back(D * 1e6);
  }
  for (size_t I = From; I < Spans.size(); ++I) {
    const Span &Sp = Spans[I];
    P.SelfSeconds[Sp.Kind] += (Sp.End - Sp.Start) - ChildSeconds[I - From];
  }
}

TracedPass tracedPass(const Session &S, const Workload &W, Tracer &T) {
  TracedPass P;
  const size_t From = T.spans().size();
  auto T0 = SteadyClock::now();
  uint32_t CellId = 0;
  for (const campaign::CampaignJob &Job :
       campaign::expandMatrix(campaignSpec(W)))
    P.Cells.push_back(tracedCell(S, *S.find(Job.Crate), Job.Config, T,
                                 CellId++, P.Counts));
  P.Wall = secondsSince(T0);
  aggregateSpans(T.spans(), From, P);
  return P;
}

/// The untraced reference: Session::runOne per cell, timed as a whole.
std::vector<CellOutcome> referencePass(const Session &S, const Workload &W,
                                       double &Wall) {
  std::vector<CellOutcome> Cells;
  auto T0 = SteadyClock::now();
  for (const campaign::CampaignJob &Job :
       campaign::expandMatrix(campaignSpec(W)))
    Cells.push_back(
        CellOutcome::of(S.runOne(Job.Crate, Job.Config), Job.Seed));
  Wall = secondsSince(T0);
  return Cells;
}

int runTraced(const Workload &W, double Budget, const std::string &TraceOut) {
  auto Start = SteadyClock::now();
  Tracer T(Start);
  Session S;
  for (const std::string &Name : W.Crates) {
    Scope Sp(T, SpanAnalysis, -1, 0);
    S.analysisFor(*S.find(Name));
  }
  double AnalysisS = 0;
  for (const Span &Sp : T.spans())
    AnalysisS += Sp.End - Sp.Start;

  // Alternate traced and reference passes; every traced cell is gated
  // against the reference cell of the same (crate, seed) and repeat.
  // Only the first traced pass keeps its spans, so memory and the
  // written trace stay one pass long.
  std::vector<TracedPass> Traced;
  std::vector<double> RefWalls;
  std::vector<std::vector<CellOutcome>> Refs;
  do {
    const size_t From = T.spans().size();
    Traced.push_back(tracedPass(S, W, T));
    if (Traced.size() > 1)
      T.truncate(From);
    double RefWall = 0;
    Refs.push_back(referencePass(S, W, RefWall));
    RefWalls.push_back(RefWall);
  } while (passFits(Start, Budget, Traced.back().Wall + RefWalls.back()));

  const std::vector<CellOutcome> &Reference = Refs.front();
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  for (size_t I = 0; I < Reference.size(); ++I) {
    bool Bad = !Reference[I].Supported;
    for (size_t Rep = 0; Rep < Traced.size(); ++Rep) {
      std::string D = Traced[Rep].Cells[I].diff(Refs[Rep][I]);
      if (D.empty() && !Refs[Rep][I].diff(Reference[I]).empty())
        D = "a repeat of Session::runOne";
      if (!D.empty()) {
        Bad = true;
        Problems.push_back("agreement gate: " + Reference[I].Crate + "/" +
                           std::to_string(Reference[I].Seed) +
                           " differs in " + D);
      }
    }
    if (W.MustFindBug && !huntCellPasses(S, Reference[I])) {
      Bad = true;
      Problems.push_back("hunt cell " + Reference[I].Crate + "/" +
                         std::to_string(Reference[I].Seed) +
                         " missed its bug or its minimal size");
    }
    Failed += Bad ? 1 : 0;
  }

  // Times are medians over traced passes; counts come from the first
  // pass (the gate above proves every pass emitted the same stream).
  auto MedianOf = [&](auto Get) {
    std::vector<double> V;
    for (const TracedPass &P : Traced)
      V.push_back(Get(P));
    return median(V);
  };
  auto Self = [&](SpanKind K) {
    return MedianOf([K](const TracedPass &P) { return P.SelfSeconds[K]; });
  };
  const TracedPass &First = Traced.front();
  const synth::SynthStats &SS = First.Counts.Synth;
  const double TracedWall =
      MedianOf([](const TracedPass &P) { return P.Wall; });
  const double RefWall = median(RefWalls);
  const double NextS = Self(SpanSynthNext), NotifyS = Self(SpanSynthNotify),
               InitS = Self(SpanSynthInit);
  const double SolveS =
      MedianOf([](const TracedPass &P) { return P.Counts.Synth.SolveSeconds; });
  const double BuildS =
      MedianOf([](const TracedPass &P) { return P.Counts.Synth.BuildSeconds; });
  const double Emitted = static_cast<double>(SS.Emitted);
  const double SolveCalls = static_cast<double>(SS.SolveCalls);
  const double CompatProbes = static_cast<double>(
      SS.CompatHits + SS.CompatBaseHits + SS.CompatMisses);
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const double CellS = MedianOf([](const TracedPass &P) {
    double Sum = 0;
    for (int K = 0; K < NumSpanKinds; ++K)
      if (K != SpanAnalysis)
        Sum += P.SelfSeconds[K];
    return Sum;
  });
  const size_t N = Traced.size();

  std::vector<Metric> Metrics = {
      {"synth.next_s", NextS, "s", N, "self time of Synthesizer::next"},
      {"synth.solve_s", SolveS, "s", N, "SynthStats::SolveSeconds"},
      {"synth.decode_s", NextS + NotifyS + InitS - SolveS - BuildS, "s", N,
       "next + notify + init - solve - build"},
      {"synth.next_us_p50", percentile(First.NextMicros, 50), "us",
       First.NextMicros.size(), "per next() call, first traced pass"},
      {"synth.next_us_p99", percentile(First.NextMicros, 99), "us",
       First.NextMicros.size(), "per next() call, first traced pass"},
      {"synth.solve_calls", SolveCalls, "count", 1, ""},
      {"synth.emitted", Emitted, "count", 1, ""},
      {"synth.emit_ratio", Ratio(Emitted, SolveCalls), "share", 1,
       "emitted / solve calls"},
      {"synth.duplicates_skipped", static_cast<double>(SS.DuplicatesSkipped),
       "count", 1, ""},
      {"sat.conflicts", static_cast<double>(SS.SolverConflicts), "count", 1,
       ""},
      {"sat.propagations", static_cast<double>(SS.SolverPropagations),
       "count", 1, ""},
      {"sat.props_per_model",
       Ratio(static_cast<double>(SS.SolverPropagations), Emitted), "count", 1,
       "propagations / emitted"},
      {"sat.conflicts_per_model",
       Ratio(static_cast<double>(SS.SolverConflicts), Emitted), "count", 1,
       "conflicts / emitted"},
      {"synth.build_s", BuildS, "s", N, "SynthStats::BuildSeconds"},
      {"synth.init_s", InitS, "s", N, "Synthesizer construction"},
      {"synth.notify_s", NotifyS, "s", N, "notifyDatabaseChanged"},
      {"synth.rebuilds", static_cast<double>(SS.Rebuilds), "count", 1, ""},
      {"synth.extends", static_cast<double>(SS.IncrementalExtends), "count",
       1, ""},
      {"synth.models_reblocked", static_cast<double>(SS.ModelsReblocked),
       "count", 1, ""},
      {"types.compat_probes", CompatProbes, "count", 1,
       "compat cache hits + base hits + misses"},
      {"types.compat_hit_ratio",
       Ratio(static_cast<double>(SS.CompatHits + SS.CompatBaseHits),
             CompatProbes),
       "share", 1, ""},
      {"api.graph_probes", static_cast<double>(SS.PruneGraphProbes), "count",
       1, ""},
      {"api.fallback_probes", static_cast<double>(SS.PruneFallbackProbes),
       "count", 1, ""},
      {"synth.prune_vars_avoided", static_cast<double>(SS.PruneVarsAvoided),
       "count", 1, ""},
      {"rustsim.check_s", Self(SpanCheck), "s", N, ""},
      {"rustsim.checks", static_cast<double>(First.Counts.Checks), "count", 1,
       ""},
      {"rustsim.rejects", static_cast<double>(First.Counts.Rejects), "count",
       1, ""},
      {"refine.s", Self(SpanRefine), "s", N, "onDiagnostic + onSuccess"},
      {"refine.calls", static_cast<double>(First.Counts.RefineCalls), "count",
       1, ""},
      {"refine.db_changes", static_cast<double>(First.Counts.DbChanges),
       "count", 1, "each one triggers a synth.notify"},
      {"miri.run_s", Self(SpanMiri), "s", N, ""},
      {"miri.runs", static_cast<double>(First.Counts.MiriRuns), "count", 1,
       ""},
      {"miri.ub", static_cast<double>(First.Counts.MiriUb), "count", 1, ""},
      {"coverage.mark_s", Self(SpanCoverage), "s", N, ""},
      {"coverage.new_edges", static_cast<double>(First.Counts.NewEdges),
       "count", 1, "per-cell new edges, summed"},
      {"core.analysis_s", AnalysisS, "s", W.Crates.size(),
       "first analysisFor of every crate"},
      {"core.minimize_s", Self(SpanMinimize), "s", N, "minimizeBugProgram"},
      {"loop.other_s", Self(SpanCell), "s", N, "cell span minus children"},
      {"loop.cell_s", CellS, "s", N, "traced cell spans, all layers"},
      {"trace.overhead_pct", 100.0 * (TracedWall - RefWall) / RefWall, "%", N,
       "traced loop vs Session::runOne wall"},
  };

  printContext(W, static_cast<int>(N), "traced");
  std::printf("traced wall per repeat:");
  for (const TracedPass &P : Traced)
    std::printf(" %.4f", P.Wall);
  std::printf("\nreference (runOne) wall per repeat:");
  for (double V : RefWalls)
    std::printf(" %.4f", V);
  std::printf("\nagreement gate: %s on %zu cells x %zu repeats\n",
              Problems.empty() ? "pass" : "FAIL", Reference.size(), N);
  for (const std::string &P : Problems)
    std::printf("check failed: %s\n", P.c_str());
  std::printf("\nlayer shares of traced cell time (%.4f s):\n", CellS);
  const std::pair<const char *, double> Shares[] = {
      {"synth.solve_s", SolveS},
      {"synth.build_s", BuildS},
      {"synth.decode_s", NextS + NotifyS + InitS - SolveS - BuildS},
      {"  (synth.notify_s)", NotifyS},
      {"miri.run_s", Self(SpanMiri)},
      {"rustsim.check_s", Self(SpanCheck)},
      {"coverage.mark_s", Self(SpanCoverage)},
      {"refine.s", Self(SpanRefine)},
      {"core.minimize_s", Self(SpanMinimize)},
      {"loop.other_s", Self(SpanCell)}};
  for (const auto &[Name, V] : Shares)
    std::printf("  %-20s %6.2f%%\n", Name, 100.0 * Ratio(V, CellS));
  if (!TraceOut.empty()) {
    if (T.write(TraceOut))
      std::printf("spans: %zu written to %s\n", T.spans().size(),
                  TraceOut.c_str());
    else
      std::printf("spans: could not write %s\n", TraceOut.c_str());
  }
  std::printf("cell_fail_ratio: %.6g share (%llu of %zu cells)\n",
              static_cast<double>(Failed) /
                  static_cast<double>(Reference.size()),
              static_cast<unsigned long long>(Failed), Reference.size());
  printResult(Metrics, Failed == 0, Reference.size(), Failed);
  return 0;
}

//===----------------------------------------------------------------------===//
// Self-test
//===----------------------------------------------------------------------===//

/// Tiny-size checks of the benchmark's own machinery: the agreement
/// gate passes on two cells, repeats give one digest, and the digest
/// tells a changed stream (no-semantic) from base.
int runSelfTest() {
  Session S;
  int Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    std::printf("self-test %s: %s\n", Ok ? "ok  " : "FAIL", What);
    Failures += Ok ? 0 : 1;
  };
  std::optional<Workload> W = makeWorkload(S, "sweep", 0, /*Tiny=*/true);
  Expect(W && W->cells() == 2, "tiny sweep has two cells");
  if (!W)
    return 1;

  Tracer T(SteadyClock::now());
  TracedPass P = tracedPass(S, *W, T);
  double RefWall = 0;
  std::vector<CellOutcome> Ref = referencePass(S, *W, RefWall);
  bool Agree = P.Cells.size() == 2 && Ref.size() == 2;
  for (size_t I = 0; Agree && I < Ref.size(); ++I)
    Agree = P.Cells[I].diff(Ref[I]).empty() && Ref[I].Synthesized > 0;
  Expect(Agree, "agreement gate passes on two cells");

  CellOutcome Broken = Ref.front();
  ++Broken.Rejected;
  Expect(!Broken.diff(Ref.front()).empty(),
         "agreement gate flags a changed cell");

  const uint64_t Base1 = campaignPass(S, *W).Digest;
  const uint64_t Base2 = campaignPass(S, *W).Digest;
  Workload NoSemantic = *W;
  NoSemantic.Variant = "no-semantic";
  const uint64_t Changed = campaignPass(S, NoSemantic).Digest;
  Expect(Base1 == Base2, "repeats of one stream give one digest");
  Expect(Base1 != Changed, "digest flags a changed stream (no-semantic)");

  std::optional<Workload> Hunt = makeWorkload(S, "hunt", 0, /*Tiny=*/true);
  bool HuntOk = Hunt.has_value();
  if (Hunt)
    for (const CellOutcome &O : referencePass(S, *Hunt, RefWall))
      HuntOk = HuntOk && huntCellPasses(S, O);
  Expect(HuntOk, "tiny hunt finds and minimizes its bugs");

  std::printf("self-test: %s\n", Failures ? "FAILED" : "passed");
  return Failures ? 1 : 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: e2e_campaign --workload sweep|interleave|hunt "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--trace-out FILE]\n"
               "       e2e_campaign --self-test\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, TraceOut;
  uint64_t Seed = 0;
  double Seconds = 10;
  int Trace = 0;
  bool Tiny = false, SelfTest = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc) {
        usage();
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      WorkloadName = Next();
    else if (A == "--seed") {
      Seed = std::strtoull(Next().c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds")
      Seconds = std::atof(Next().c_str());
    else if (A == "--trace")
      Trace = std::atoi(Next().c_str());
    else if (A == "--trace-out")
      TraceOut = Next();
    else if (A == "--tiny")
      Tiny = true;
    else if (A == "--self-test")
      SelfTest = true;
    else {
      usage();
      return 2;
    }
  }
  if (SelfTest)
    return runSelfTest();
  if (!HaveSeed || Seconds <= 0 || (Trace != 0 && Trace != 1)) {
    usage();
    return 2;
  }
  Session S;
  std::optional<Workload> W = makeWorkload(S, WorkloadName, Seed, Tiny);
  if (!W) {
    std::fprintf(stderr, "e2e_campaign: unknown workload '%s'\n",
                 WorkloadName.c_str());
    usage();
    return 2;
  }
  return Trace ? runTraced(*W, Seconds, TraceOut) : runUntraced(*W, Seconds);
}
