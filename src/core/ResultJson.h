//===--- ResultJson.h - RunResult JSON export ------------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a RunResult to JSON for downstream tooling (plotting the
/// Figure 9/10 curves, archiving bug reports, regression-diffing runs).
/// Used by the CLI's `--json` flag.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CORE_RESULTJSON_H
#define SYRUST_CORE_RESULTJSON_H

#include "core/SyRustDriver.h"
#include "support/Json.h"

namespace syrust::core {

/// Controls which fields resultToJson emits.
struct ResultJsonOptions {
  /// Emit the host wall-time measurements (build_wall_seconds,
  /// solve_wall_seconds). They depend on machine load and scheduling, so
  /// campaign aggregates exclude them to stay byte-identical for any
  /// pool width; the single-run document keeps them as diagnostics.
  bool HostWallTime = true;
};

/// Full structured dump: counters, per-category/per-detail breakdowns,
/// the error-rate curve, coverage snapshots, and the bug report.
json::Value resultToJson(const RunResult &R,
                         const ResultJsonOptions &Opts = ResultJsonOptions());

/// The inverse of resultToJson: rebuilds a RunResult from its document.
/// Round-trip faithful for every serialized field — re-serializing the
/// parsed result (with the same options) reproduces the document byte
/// for byte, which is what lets campaign checkpoints store finished
/// cells as documents and resumed aggregates stay byte-identical to
/// uninterrupted ones (campaign/Checkpoint.h). Fields the document does
/// not carry (the per-test record database) stay default. Returns false
/// and sets \p Err with the offending field on malformed input.
bool resultFromJson(const json::Value &V, RunResult &Out,
                    std::string &Err);

/// Canonical full-field serialization of a RunConfig, used to fingerprint
/// campaign specs (checkpoint compatibility). Every field participates,
/// so two configs hash equal iff every knob matches; key order is the
/// writer's sorted-map order, so the rendering is canonical.
json::Value runConfigToJson(const RunConfig &C);

} // namespace syrust::core

#endif // SYRUST_CORE_RESULTJSON_H
