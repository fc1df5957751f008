//===--- RequestSpec.h - Unified request API -------------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One validated request type behind every `syrust` verb. argv is
/// decoded through one option table (one row per flag: spelling, verb
/// mask, value kind, setter), and every bad field gets one specific
/// message.
///
/// The spec is a sum type in the tagged-struct rendition: `V` selects
/// which payload is active (run/campaign/audit/coverage/report), and
/// validate() checks exactly the active payload. Output routing
/// (`--out`, `--trace-out`, `--metrics-out`, `--coverage-out`, `--json`)
/// is one shared Outputs struct instead of the three per-verb copies the
/// old CLI grew.
///
/// Exit codes are uniform across every verb (and documented in
/// README.md):
///   0  success, nothing found
///   1  finding: a run/campaign found undefined behavior, or an audit
///      found an unexpected encoder/checker disagreement
///   2  usage or configuration error (bad flag, bad field, bad spec)
///   3  environment failure (unreadable input, unwritable output)
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CLI_REQUESTSPEC_H
#define SYRUST_CLI_REQUESTSPEC_H

#include "campaign/Campaign.h"
#include "oracle/AuditRunner.h"

#include <string>
#include <vector>

namespace syrust::cli {

/// Uniform exit codes; see the file comment.
enum ExitCode {
  ExitOk = 0,
  ExitFinding = 1,
  ExitUsage = 2,
  ExitRuntime = 3,
};

/// Which request this is (the sum-type tag).
enum class Verb {
  List,
  Run,
  Campaign,
  Audit,
  Coverage,
  Report,
};

/// Verb by CLI name ("run", "campaign", ...); false for unknown.
bool verbFromName(const std::string &Name, Verb &Out);
const char *verbName(Verb V);

/// Where results go — the one output-routing struct shared by every
/// verb (replacing three near-duplicate per-verb plumbings).
struct Outputs {
  /// `--out DIR`: campaign writes aggregate.json + per-job documents +
  /// trace.json here; audit writes audit.json.
  std::string OutDir;
  /// `--trace-out FILE` (run): Chrome trace-event JSON.
  std::string TraceOut;
  /// `--trace` (campaign): merge per-worker traces into OutDir/trace.json.
  bool MergeTrace = false;
  /// `--metrics-out FILE` (run): JSONL metrics snapshots.
  std::string MetricsOut;
  /// `--coverage-out FILE` (run/campaign/audit): the API-pair coverage
  /// document.
  std::string CoverageOut;
  /// `--json` (run/audit): print the result document to stdout instead
  /// of the human summary.
  bool Json = false;
};

/// `syrust run <crate>`.
struct RunRequest {
  std::string Crate;
  core::RunConfig Config;
  /// `--trace-wall`: wall-clock timestamps on trace events.
  bool TraceWall = false;
};

/// `syrust campaign`.
struct CampaignRequest {
  campaign::CampaignSpec Spec;
  /// Empty Spec.Crates means "all supported" until finalize() expands it.
  /// `--checkpoint FILE`: JSONL checkpoint (campaign/Checkpoint.h).
  /// An existing file resumes (its finished cells are not re-run); a
  /// fresh file records cells as they finish.
  std::string CheckpointPath;
};

/// `syrust audit`.
struct AuditRequest {
  oracle::AuditSpec Spec; ///< Empty Crates = "all supported", as above.
};

/// `syrust coverage <file>`.
struct CoverageRequest {
  std::string File;
  int Top = 10; ///< `--top N` never-covered edges per crate.
};

/// `syrust report <trace.json>`.
struct ReportRequest {
  std::string File;
};

/// The unified request. `V` is the tag; exactly one payload is active.
struct RequestSpec {
  Verb V = Verb::List;

  RunRequest Run;
  CampaignRequest Campaign;
  AuditRequest Audit;
  CoverageRequest Coverage;
  ReportRequest Report;

  Outputs Out;
};

/// Parses one verb's arguments (\p Argv excludes the program name and
/// the verb word). Malformed flags, missing values, and malformed
/// numbers each produce one specific message in \p Errors; returns
/// false when any were found. Defaults that need a Session (the "all
/// crates" expansions) stay unexpanded until finalize().
bool parseArgv(Verb V, int Argc, const char *const *Argv,
               RequestSpec &Out, std::vector<std::string> &Errors);

/// Expands Session-dependent defaults (empty campaign/audit crate lists
/// become every synthesis-supporting crate) and validates the active
/// payload: cross-field rules (`--trace-wall` needs `--trace-out`,
/// `--trace` needs `--out`, checkpointing does not compose with trace
/// merging), then the payload's own domain checks.
/// Returns one specific message per problem; empty = executable.
std::vector<std::string> finalize(const core::Session &S,
                                  RequestSpec &Spec);

/// One usage string for every verb (the `syrust` top-level help).
std::string usageText();

} // namespace syrust::cli

#endif // SYRUST_CLI_REQUESTSPEC_H
