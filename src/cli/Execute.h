//===--- Execute.h - Shared request execution ------------------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a finalized RequestSpec and renders everything it produces into
/// one Response: the exit code, the stdout text, and every output file
/// as (path, content) — no file is written and nothing is printed here.
/// The `syrust` CLI is the only caller: it writes the files and prints
/// the output once execution has finished.
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CLI_EXECUTE_H
#define SYRUST_CLI_EXECUTE_H

#include "cli/RequestSpec.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace syrust::cli {

/// Everything one request produces.
struct Response {
  /// Uniform exit code (ExitCode values; see RequestSpec.h).
  int ExitCode = ExitOk;
  /// What the offline CLI prints to stdout, byte for byte.
  std::string Output;
  /// Diagnostics for stderr; non-empty explains a nonzero ExitCode.
  std::string Error;
  /// Output files as (path, content) in write order. The caller writes
  /// these (writeResponseFiles), after execution has finished.
  std::vector<std::pair<std::string, std::string>> Files;
};

/// Progress sink for long verbs (campaign/audit job completions). The
/// CLI prints lines to stderr; a null sink drops them.
using ProgressFn = std::function<void(const std::string &)>;

/// Executes one finalized request (precondition: finalize() returned no
/// errors) against \p S.
///
/// Campaign checkpointing is the one side effect that cannot ride in the
/// Response: a non-empty CheckpointPath is read (resume) and appended to
/// (one flushed line per finished cell) during execution.
Response execute(const core::Session &S, const RequestSpec &Spec,
                 const ProgressFn &Progress = nullptr);

/// Writes Response::Files, creating each file's directory if missing.
/// Returns false with \p Err naming the first unwritable path.
bool writeResponseFiles(const Response &R, std::string &Err);

} // namespace syrust::cli

#endif // SYRUST_CLI_EXECUTE_H
