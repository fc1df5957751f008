//===--- E2eShims.h - Inert names kept for e2ebench ------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Names of two deleted layers that e2ebench/e2e_campaign.cpp still
/// spells:
///   * the solver portfolio: SynthOptions::Portfolio and ::Strategy (the
///     encoder asserts both keep their defaults);
///   * the compatibility memo: types::CompatCache, its Stats,
///     CrateAnalysis::baseCache(), SynthOptions::Compat and the
///     SynthStats::Compat* counters.
/// Nothing in the product reads them and the memo counters always read
/// zero. Each reaches its class as a base, so the next change to
/// e2ebench drops this file, the three base clauses and the
/// RunConfig::Portfolio/Strategy pair (core/SyRustDriver.h) in one sweep.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_SYNTH_E2ESHIMS_H
#define SYRUST_SYNTH_E2ESHIMS_H

#include <cstdint>
#include <string>

namespace syrust::types {

/// The deleted memo's face: constructible from baseCache(), counts
/// nothing.
class CompatCache {
public:
  struct Stats {
    uint64_t Hits = 0;
    uint64_t BaseHits = 0;
    uint64_t Misses = 0;
  };
  explicit CompatCache(const CompatCache * = nullptr) {}
  const Stats &stats() const { return S; }

private:
  Stats S;
};

} // namespace syrust::types

namespace syrust::synth {

/// Base of SynthOptions.
struct SynthOptionsShim {
  bool Portfolio = false;
  std::string Strategy;
  types::CompatCache *Compat = nullptr;
};

/// Base of SynthStats.
struct SynthStatsShim {
  uint64_t CompatHits = 0;
  uint64_t CompatBaseHits = 0;
  uint64_t CompatMisses = 0;
};

/// Base of core::CrateAnalysis.
class CrateAnalysisShim {
public:
  const types::CompatCache &baseCache() const { return None; }

private:
  types::CompatCache None;
};

} // namespace syrust::synth

#endif // SYRUST_SYNTH_E2ESHIMS_H
