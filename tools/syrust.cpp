//===--- syrust.cpp - Command-line driver ---------------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The command-line face of the framework — deliberately thin. Every
/// verb's grammar, validation, and execution live in the cli library
/// (cli/RequestSpec.h, cli/Execute.h); this file only maps process
/// conventions onto that API: argv in, stdout/stderr/files/exit-code
/// out.
///
///   syrust list                        library inventory (Figure 12)
///   syrust run <crate> [options]       one full pipeline run
///   syrust campaign [options]          (crate, seed, variant) matrix on
///                                      a work-stealing pool; supports
///                                      --checkpoint FILE resume
///   syrust audit [options]             encoder/checker agreement oracle
///   syrust report <trace.json>         per-stage trace breakdown
///   syrust coverage <file> [--top N]   API-pair coverage rendering
///
/// Exit codes, uniform across all verbs (README.md):
///   0 ok · 1 finding (UB / unexpected audit disagreement) ·
///   2 usage or configuration error · 3 environment failure
///
/// Run `syrust` with no arguments for the full flag listing; per-knob
/// documentation lives in the cli option table (cli/RequestSpec.cpp).
///
//===----------------------------------------------------------------------===//

#include "cli/Execute.h"
#include "cli/RequestSpec.h"
#include "core/Session.h"

#include <cstdio>

using namespace syrust;

namespace {

int usage() {
  std::fprintf(stderr, "%s", cli::usageText().c_str());
  return cli::ExitUsage;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  cli::Verb V;
  if (!cli::verbFromName(Argv[1], V)) {
    std::fprintf(stderr, "syrust: unknown command '%s'\n", Argv[1]);
    return usage();
  }

  cli::RequestSpec Spec;
  std::vector<std::string> Errors;
  if (!cli::parseArgv(V, Argc - 2, Argv + 2, Spec, Errors)) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "syrust %s: %s\n", cli::verbName(V),
                   E.c_str());
    return usage();
  }

  core::Session S;
  Errors = cli::finalize(S, Spec);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "syrust %s: %s\n", cli::verbName(V),
                   E.c_str());
    return cli::ExitUsage;
  }

  // Progress to stderr: stdout carries only the deterministic output.
  cli::Response Resp =
      cli::execute(S, Spec, [&](const std::string &Line) {
        std::fprintf(stderr, "%s\n", Line.c_str());
      });
  std::string Err;
  if (!cli::writeResponseFiles(Resp, Err)) {
    std::fprintf(stderr, "syrust %s: %s\n", cli::verbName(V),
                 Err.c_str());
    return cli::ExitRuntime;
  }
  if (!Resp.Error.empty())
    std::fprintf(stderr, "syrust %s: %s\n", cli::verbName(V),
                 Resp.Error.c_str());
  std::fwrite(Resp.Output.data(), 1, Resp.Output.size(), stdout);
  return Resp.ExitCode;
}
