//===--- CrateAnalysis.h - Shared per-crate analysis -----------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One immutable instantiation of a library model, computed once per
/// crate and shared read-only across every run and campaign worker that
/// targets it. A campaign matrix typically multiplies one crate by many
/// (seed, variant) jobs; without this each job would re-run
/// CrateSpec::instantiate() and rebuild the dependency graph.
///
/// The analysis owns:
///   * the base CrateInstance (arena, trait rules, API database,
///     semantics), frozen after construction;
///   * the frozen api::DependencyGraph over every base signature. Its
///     build interns the renamed per-API signatures the encoder will
///     request (renameVars with the same "a<ApiId>" suffix
///     Encoding::sync uses) into the base arena, so every worker's
///     renames resolve to identical pointers.
///
/// It is the one place a run's setup comes from: the driver, the audit
/// oracle and the coverage renderer take their instance and dependency
/// graph from here.
///
/// Workers call makeWorkerInstance() for a private copy-on-write overlay
/// (chained arena, copied database/traits/semantics). Determinism: the
/// base is immutable at run time and each worker's work depends only on
/// its own (crate, seed, variant) job, so per-job results - and the
/// summed campaign aggregates - are byte-identical for any --jobs count.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_CRATEANALYSIS_H
#define SYRUST_CORE_CRATEANALYSIS_H

#include "api/DependencyGraph.h"
#include "crates/CrateSpec.h"
#include "synth/E2eShims.h"

#include <memory>

namespace syrust::core {

/// Immutable shared analysis for one crate. See file comment.
class CrateAnalysis : public synth::CrateAnalysisShim {
public:
  /// Instantiates \p Spec once and builds its dependency graph. The spec
  /// must outlive the analysis (it holds no reference, but the semantics
  /// lambdas may).
  explicit CrateAnalysis(const crates::CrateSpec &Spec);

  CrateAnalysis(const CrateAnalysis &) = delete;
  CrateAnalysis &operator=(const CrateAnalysis &) = delete;

  /// The frozen base instance. Never hand this to a driver directly -
  /// runs mutate their instance (API bans, refinement); use
  /// makeWorkerInstance().
  const crates::CrateInstance &base() const { return *Base; }

  /// A private copy-on-write overlay instance for one run: chained
  /// arena, copied API database / trait rules / semantics. Cheap next to
  /// instantiate() - no model rebuild, no re-interning.
  std::unique_ptr<crates::CrateInstance> makeWorkerInstance() const;

  /// The frozen producer/consumer graph over the base database. Shared
  /// read-only by every worker's encoder (graph-guided probes) and
  /// coverage::ApiPairCoverage.
  const api::DependencyGraph &graph() const { return Graph; }

private:
  std::unique_ptr<crates::CrateInstance> Base;
  api::DependencyGraph Graph;
};

} // namespace syrust::core

#endif // SYRUST_CORE_CRATEANALYSIS_H
