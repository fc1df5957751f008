//===--- BenchCommon.h - Shared helpers for the evaluation benches --------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Budget scaling for the figure-reproduction harnesses. The paper ran 10
/// hours per library on a 4-machine cluster; the default simulated budgets
/// reproduce the same table *shapes* in seconds of real time. Set
/// SYRUST_BUDGET (simulated seconds per library) to scale any bench up.
///
/// Every figure bench also writes a machine-readable companion document,
/// `BENCH_<name>.json`, with per-run host wall time, the pipeline's
/// per-stage wall breakdown (encoding build / solver) and solver conflict
/// counts - so CI can track throughput without scraping the
/// human-readable tables.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_BENCH_BENCHCOMMON_H
#define SYRUST_BENCH_BENCHCOMMON_H

#include "core/SyRustDriver.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace syrust::bench {

/// Reads a positive double from the environment, falling back to \p Dflt.
inline double envBudget(const char *Name, double Dflt) {
  const char *Val = std::getenv(Name);
  if (!Val)
    return Dflt;
  double Parsed = std::atof(Val);
  return Parsed > 0 ? Parsed : Dflt;
}

/// Prints a figure banner in a uniform style.
inline void banner(const char *Figure, const char *Caption) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s - %s\n", Figure, Caption);
  std::printf("==============================================================="
              "=========\n");
}

/// Host wall-clock stopwatch (the benches' tables use simulated time;
/// the BENCH_*.json throughput numbers use this).
class WallTimer {
public:
  WallTimer() : Start(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

private:
  std::chrono::steady_clock::time_point Start;
};

/// Accumulates one run entry per pipeline invocation and writes the
/// machine-readable `BENCH_<name>.json` companion document.
class BenchJson {
public:
  explicit BenchJson(std::string BenchName)
      : Name(std::move(BenchName)), Runs(json::Value::array()),
        Meta(json::Value::object()) {}

  /// Arbitrary top-level metadata (budget, variant names, speedups).
  void meta(const std::string &Key, json::Value V) {
    Meta.set(Key, std::move(V));
  }

  /// Records one run: \p HostSeconds is the run's host wall time, the
  /// per-stage breakdown and solver counters come from \p R, and
  /// the members of \p Extra (a JSON object) are added as they are.
  void addRun(const std::string &Label, const core::RunResult &R,
              double HostSeconds, const json::Value &Extra = {}) {
    json::Value E = json::Value::object();
    E.set("label", json::Value::string(Label));
    E.set("crate", json::Value::string(R.Crate));
    E.set("host_wall_seconds", json::Value::number(HostSeconds));
    E.set("build_wall_seconds", json::Value::number(R.Synth.BuildSeconds));
    E.set("solve_wall_seconds", json::Value::number(R.Synth.SolveSeconds));
    E.set("elapsed_sim_seconds", json::Value::number(R.ElapsedSeconds));
    E.set("synthesized",
          json::Value::integer(static_cast<int64_t>(R.Synthesized)));
    E.set("rejected",
          json::Value::integer(static_cast<int64_t>(R.Rejected)));
    E.set("executed",
          json::Value::integer(static_cast<int64_t>(R.Executed)));
    E.set("solver_conflicts", json::Value::integer(static_cast<int64_t>(
                                  R.Synth.SolverConflicts)));
    E.set("solver_propagations",
          json::Value::integer(
              static_cast<int64_t>(R.Synth.SolverPropagations)));
    for (const auto &[Key, V] : Extra.members())
      E.set(Key, V);
    Runs.push(std::move(E));
  }

  /// Writes `BENCH_<name>.json` in the working directory and reports the
  /// path on stdout. Returns false (with a stderr message) on I/O error.
  bool write() {
    json::Value Root = json::Value::object();
    Root.set("bench", json::Value::string(Name));
    Root.set("meta", std::move(Meta));
    Root.set("runs", std::move(Runs));
    std::string Path = "BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return false;
    }
    std::string Doc = Root.dump();
    std::fwrite(Doc.data(), 1, Doc.size(), F);
    std::fputc('\n', F);
    std::fclose(F);
    std::printf("machine-readable results: %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  json::Value Runs;
  json::Value Meta;
};

} // namespace syrust::bench

#endif // SYRUST_BENCH_BENCHCOMMON_H
