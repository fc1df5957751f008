//===--- fig7_bugs.cpp - Reproduce Figure 7 (and Figures 8/13) ------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Reproduces Figure 7: the four bugs, their kinds, the minimum number of
/// lines to induce, and the time to discovery; plus the bug-inducing
/// programs themselves (the paper's Figure 8 and appendix Figure 13).
///
/// Expected shape: bug kinds {memory leak, hanging pointer, UAF, OOB},
/// minimum lines {1, 3, 5, 4}, and *1 discovered nearly instantly while
/// the multi-call chains take orders of magnitude longer.
///
/// The bench is also a gate: it exits nonzero when any bug crate misses
/// its bug, reports a UB kind other than its BugInfo::Kind, or is not
/// minimized to BugInfo::MinLines lines. A change to the solver's model
/// order must keep it passing.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Session.h"
#include "miri/Heap.h"
#include "report/Table.h"
#include "support/StringUtils.h"

using namespace syrust;
using namespace syrust::bench;
using namespace syrust::core;
using namespace syrust::crates;
using namespace syrust::report;

int main() {
  core::Session S;
  double Budget = envBudget("SYRUST_BUDGET", 36000.0);
  banner("Figure 7", "bugs caught by SyRust");

  Table T({"Bug", "Library", "Bug Type", "Min. Lines to Induce",
           "Lines Found", "Minimized", "Time to Discovery (s)",
           "Detected As"});
  std::vector<std::pair<std::string, std::string>> Programs;
  BenchJson J("fig7_bugs");
  J.meta("budget_sim_seconds", json::Value::number(Budget));

  std::vector<const CrateSpec *> Buggy = buggyCrates();
  int Failures = 0;
  for (const CrateSpec *Spec : Buggy) {
    const BugInfo &Bug = *Spec->Bug;
    RunConfig Config;
    Config.BudgetSeconds = Budget;
    Config.StopOnFirstBug = true;
    Config.MinimizeBugs = true;
    WallTimer W;
    RunResult R = S.runOne(*Spec, Config);
    const char *Kind = R.BugFound ? miri::ubKindName(R.FirstBug.Kind) : "none";
    json::Value Gate = json::Value::object();
    Gate.set("found", json::Value::boolean(R.BugFound));
    Gate.set("kind", json::Value::string(Kind));
    Gate.set("bug_lines", json::Value::integer(R.BugLines));
    Gate.set("minimized_lines", json::Value::integer(R.MinimizedLines));
    Gate.set("min_lines", json::Value::integer(Bug.MinLines));
    J.addRun(Bug.Label, R, W.seconds(), Gate);
    if (!R.BugFound || R.FirstBug.Kind != Bug.Kind ||
        R.MinimizedLines != Bug.MinLines) {
      ++Failures;
      std::fprintf(stderr,
                   "fig7: %s (%s) fails the gate: found=%d kind=%s "
                   "(want %s) minimized_lines=%d (want %d)\n",
                   Bug.Label.c_str(), Spec->Info.Name.c_str(), R.BugFound,
                   Kind, miri::ubKindName(Bug.Kind), R.MinimizedLines,
                   Bug.MinLines);
    }
    if (!R.BugFound) {
      T.addRow({Spec->Bug->Label, Spec->Info.Name, Spec->Bug->BugType,
                fmtCount(static_cast<uint64_t>(Spec->Bug->MinLines)),
                "not found", "-", "-", "-"});
      continue;
    }
    T.addRow({Spec->Bug->Label, Spec->Info.Name, Spec->Bug->BugType,
              fmtCount(static_cast<uint64_t>(Spec->Bug->MinLines)),
              fmtCount(static_cast<uint64_t>(R.BugLines)),
              fmtCount(static_cast<uint64_t>(R.MinimizedLines)),
              format("%.2f", R.TimeToBug),
              miri::ubKindName(R.FirstBug.Kind)});
    Programs.emplace_back(Spec->Bug->Label + " (" + Spec->Info.Name +
                              "): " + R.FirstBug.Message,
                          R.MinimizedProgram.empty() ? R.BugProgram
                                                     : R.MinimizedProgram);
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("Bug-inducing test cases (cf. paper Figures 8 and 13):\n\n");
  for (const auto &[Title, Source] : Programs)
    std::printf("--- %s\n%s\n", Title.c_str(), Source.c_str());
  J.write();
  if (Failures) {
    std::fprintf(stderr, "fig7: %d of %zu bug crates fail the gate\n",
                 Failures, Buggy.size());
    return 1;
  }
  return 0;
}
