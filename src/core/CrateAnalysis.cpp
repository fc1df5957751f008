//===--- CrateAnalysis.cpp - Shared per-crate analysis --------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CrateAnalysis.h"

using namespace syrust;
using namespace syrust::core;
using namespace syrust::crates;

CrateAnalysis::CrateAnalysis(const CrateSpec &Spec)
    : Base(Spec.instantiate()),
      Graph(api::buildDependencyGraph(Base->Db, Base->Arena)) {}

std::unique_ptr<CrateInstance> CrateAnalysis::makeWorkerInstance() const {
  return std::make_unique<CrateInstance>(*Base, types::Overlay);
}
