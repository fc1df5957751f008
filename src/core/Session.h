//===--- Session.h - Driver-layer facade -----------------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point to the driver layer. A Session owns the shared
/// immutable state every run consumes — today the crate registry, forced
/// to initialize eagerly so worker threads never race its lazy
/// construction — and exposes one `runOne()` used by the CLI, every
/// evaluation bench, and the campaign engine's workers alike. Having a
/// single entry point means single-run and campaign paths cannot drift:
/// both validate the RunConfig the same way and drive the same
/// SyRustDriver.
///
/// Sessions are cheap (the registry is process-global and const) and
/// safe to share across threads: every method is const and all mutable
/// run state lives inside the per-call SyRustDriver.
///
/// The Session additionally owns the lazily-built shared per-crate
/// analyses (one immutable instantiation + precomputed compatibility
/// matrix per crate, see CrateAnalysis.h): the first run against a crate
/// builds its analysis under a lock, every later run - including all
/// campaign workers, which share one Session - reuses it read-only
/// through a copy-on-write overlay instance.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_SESSION_H
#define SYRUST_CORE_SESSION_H

#include "core/SyRustDriver.h"
#include "crates/CrateRegistry.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace syrust::core {

/// Facade over the crate registry + driver. See file comment.
class Session {
public:
  /// Snapshots the registry (completing its thread-safe lazy init on
  /// this thread, before any worker can touch it).
  Session();

  /// All library models, in Figure 12 order.
  const std::vector<crates::CrateSpec> &crates() const { return *Crates; }

  /// Finds a model by crate name; nullptr when unknown.
  const crates::CrateSpec *find(const std::string &Name) const;

  /// Names of every model that supports synthesis (the `--crates all`
  /// expansion), in Figure 12 order.
  std::vector<std::string> supportedCrates() const;

  /// Validates \p Config and runs the full pipeline for \p Spec,
  /// threading the optional flight recorder through every layer. An
  /// invalid configuration is reported on stderr and yields an
  /// unsupported RunResult instead of a silently misbehaving run; call
  /// RunConfig::validate() first to handle errors yourself.
  RunResult runOne(const crates::CrateSpec &Spec, RunConfig Config,
                   obs::Recorder *Obs = nullptr) const;

  /// Name-keyed convenience overload; an unknown crate is reported on
  /// stderr and yields an unsupported RunResult.
  RunResult runOne(const std::string &CrateName, RunConfig Config,
                   obs::Recorder *Obs = nullptr) const;

  /// The shared analysis for \p Spec, built on first request (thread
  /// safe; later requests reuse it). runOne() calls this for every
  /// synthesizable run, auditOne() for every audit and the coverage
  /// renderer for every crate it lists; exposed so tests and benches can
  /// inspect the shared state directly.
  std::shared_ptr<const CrateAnalysis>
  analysisFor(const crates::CrateSpec &Spec) const;

private:
  const std::vector<crates::CrateSpec> *Crates;
  /// Lazily-built per-crate analyses, keyed by spec identity (the
  /// registry is process-global and immutable, so spec pointers are
  /// stable). Guarded by AnalysesMu; the analyses themselves are
  /// immutable once constructed and shared read-only.
  mutable std::mutex AnalysesMu;
  mutable std::map<const crates::CrateSpec *,
                   std::shared_ptr<const CrateAnalysis>>
      Analyses;
};

} // namespace syrust::core

#endif // SYRUST_CORE_SESSION_H
