//===--- Session.cpp - Driver-layer facade --------------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include <cstdio>
#include <utility>

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;

Session::Session() : Crates(&allCrates()) {}

const CrateSpec *Session::find(const std::string &Name) const {
  for (const CrateSpec &Spec : *Crates)
    if (Spec.Info.Name == Name)
      return &Spec;
  return nullptr;
}

std::vector<std::string> Session::supportedCrates() const {
  std::vector<std::string> Names;
  for (const CrateSpec &Spec : *Crates)
    if (Spec.Info.SupportsSynthesis)
      Names.push_back(Spec.Info.Name);
  return Names;
}

std::shared_ptr<const CrateAnalysis>
Session::analysisFor(const CrateSpec &Spec) const {
  // Built under the lock: the first toucher pays the instantiation +
  // matrix precompute once, concurrent workers for the same crate wait
  // and then share the result instead of duplicating the work.
  std::lock_guard<std::mutex> Lock(AnalysesMu);
  std::shared_ptr<const CrateAnalysis> &Slot = Analyses[&Spec];
  if (!Slot)
    Slot = std::make_shared<const CrateAnalysis>(Spec);
  return Slot;
}

RunResult Session::runOne(const CrateSpec &Spec, RunConfig Config,
                          obs::Recorder *Obs) const {
  std::vector<std::string> Errors = Config.validate();
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "syrust: invalid configuration: %s\n",
                   E.c_str());
    RunResult R;
    R.Crate = Spec.Info.Name;
    R.Supported = false;
    return R;
  }
  std::shared_ptr<const CrateAnalysis> Analysis;
  if (Spec.Info.SupportsSynthesis)
    Analysis = analysisFor(Spec);
  return SyRustDriver(Spec, std::move(Config), Obs, std::move(Analysis))
      .run();
}

RunResult Session::runOne(const std::string &CrateName, RunConfig Config,
                          obs::Recorder *Obs) const {
  const CrateSpec *Spec = find(CrateName);
  if (!Spec) {
    std::fprintf(stderr, "syrust: unknown crate '%s'\n",
                 CrateName.c_str());
    RunResult R;
    R.Crate = CrateName;
    R.Supported = false;
    return R;
  }
  return runOne(*Spec, std::move(Config), Obs);
}
