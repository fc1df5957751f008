//===--- Execute.cpp - Shared request execution ---------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "cli/Execute.h"

#include "campaign/CampaignRunner.h"
#include "campaign/Checkpoint.h"
#include "core/ResultJson.h"
#include "report/CoverageReport.h"
#include "report/Table.h"
#include "report/TraceReport.h"
#include "support/StringUtils.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>

using namespace syrust;
using namespace syrust::cli;
using namespace syrust::core;
using namespace syrust::report;
using namespace syrust::rustsim;

namespace {

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

bool readFileTo(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  return Ok;
}

std::string joinDir(const std::string &Dir, const std::string &Name) {
  if (Dir.empty() || Dir.back() == '/')
    return Dir + Name;
  return Dir + "/" + Name;
}

Response usageError(std::string Msg) {
  Response R;
  R.ExitCode = ExitUsage;
  R.Error = std::move(Msg);
  return R;
}

Response runtimeError(std::string Msg) {
  Response R;
  R.ExitCode = ExitRuntime;
  R.Error = std::move(Msg);
  return R;
}

Response executeList(const Session &S) {
  Response Resp;
  Table T({"Library", "Cat.", "Downloads", "Poly", "Subcomponent",
           "Bug", "Synthesizable"});
  for (const crates::CrateSpec &Spec : S.crates()) {
    T.addRow({Spec.Info.Name, Spec.Info.Category,
              fmtCount(Spec.Info.Downloads),
              Spec.Info.Polymorphic ? "yes" : "no",
              Spec.Info.Subcomponent,
              Spec.Bug ? Spec.Bug->BugType : "-",
              Spec.Info.SupportsSynthesis ? "yes" : "no (closures)"});
  }
  Resp.Output = T.render();
  return Resp;
}

/// The run verb's human summary, byte-for-byte what the old CLI printed.
std::string renderRunSummary(const crates::CrateSpec &Spec,
                             const RunResult &R) {
  std::string O;
  O += format("crate            %s (%s)\n", Spec.Info.Name.c_str(),
              Spec.Info.Subcomponent.c_str());
  O += format("synthesized      %llu (max length %d%s)\n",
              static_cast<unsigned long long>(R.Synthesized),
              R.MaxLenReached,
              R.SpaceExhausted ? ", space exhausted" : "");
  O += format("rejected         %llu (%s)\n",
              static_cast<unsigned long long>(R.Rejected),
              fmtPercent(R.rejectedPercent()).c_str());
  O += format("  type           %s\n",
              fmtShare(R.categoryPercent(ErrorCategory::Type)).c_str());
  O += format(
      "  lifetime/own   %s\n",
      fmtShare(R.categoryPercent(ErrorCategory::LifetimeOwnership))
          .c_str());
  O += format("  misc           %s\n",
              fmtShare(R.categoryPercent(ErrorCategory::Misc)).c_str());
  O += format("executed         %llu\n",
              static_cast<unsigned long long>(R.Executed));
  O += format("synthesis        %llu rebuilds, %llu incremental "
              "extends, %llu models re-blocked\n",
              static_cast<unsigned long long>(R.Synth.Rebuilds),
              static_cast<unsigned long long>(R.Synth.IncrementalExtends),
              static_cast<unsigned long long>(R.Synth.ModelsReblocked));
  O += format("                 %llu duplicates skipped, %llu "
              "dead-length revivals\n",
              static_cast<unsigned long long>(R.Synth.DuplicatesSkipped),
              static_cast<unsigned long long>(R.Synth.DeadLengthRevivals));
  O += format("solver           %llu solve calls, %llu conflicts, "
              "%llu propagations\n",
              static_cast<unsigned long long>(R.Synth.SolveCalls),
              static_cast<unsigned long long>(R.Synth.SolverConflicts),
              static_cast<unsigned long long>(R.Synth.SolverPropagations));
  O += format("                 %.3fs building encodings, %.3fs solving "
              "(wall)\n",
              R.Synth.BuildSeconds, R.Synth.SolveSeconds);
  O += format("coverage         component %.2f%% line / %.2f%% branch; "
              "library %.2f%% / %.2f%%\n",
              R.Coverage.ComponentLine, R.Coverage.ComponentBranch,
              R.Coverage.LibraryLine, R.Coverage.LibraryBranch);
  if (R.BugFound) {
    O += format("\nBUG after %.2f sim-s (%d lines): %s\n", R.TimeToBug,
                R.BugLines, R.FirstBug.Message.c_str());
    O += R.BugProgram;
    if (R.MinimizedLines > 0 && !R.MinimizedProgram.empty()) {
      O += format("\nminimized to %d lines:\n%s", R.MinimizedLines,
                  R.MinimizedProgram.c_str());
    }
  } else {
    O += "\nno undefined behavior found within budget\n";
  }
  if (!R.Db.records().empty()) {
    O += format("\nfirst %zu test records (Algorithm 1's DB):\n",
                R.Db.records().size());
    for (const TestRecord &Rec : R.Db.records()) {
      const char *Verdict = Rec.Verdict == TestVerdict::Rejected
                                ? "REJECTED"
                                : Rec.Verdict == TestVerdict::Ub
                                      ? "UB"
                                      : "passed";
      O += format("[t=%.2f %s] %s\n%s", Rec.AtSeconds, Verdict,
                  Rec.Message.c_str(), Rec.Source.c_str());
    }
  }
  return O;
}

Response executeRun(const Session &S, const RequestSpec &Spec) {
  const crates::CrateSpec *Crate = S.find(Spec.Run.Crate);
  if (!Crate)
    return usageError("unknown crate '" + Spec.Run.Crate +
                      "'; try `syrust list`");

  obs::Recorder::Options ObsOpts;
  ObsOpts.Trace = !Spec.Out.TraceOut.empty();
  ObsOpts.Metrics = !Spec.Out.MetricsOut.empty();
  ObsOpts.WallClock = Spec.Run.TraceWall;
  obs::Recorder Recorder(ObsOpts);
  obs::Recorder *Obs =
      (ObsOpts.Trace || ObsOpts.Metrics) ? &Recorder : nullptr;

  RunResult R = S.runOne(*Crate, Spec.Run.Config, Obs);

  Response Resp;
  if (!Spec.Out.TraceOut.empty())
    Resp.Files.emplace_back(Spec.Out.TraceOut,
                            Recorder.tracer().chromeJson());
  if (!Spec.Out.MetricsOut.empty())
    Resp.Files.emplace_back(Spec.Out.MetricsOut,
                            Recorder.metrics().jsonl());
  if (!Spec.Out.CoverageOut.empty())
    Resp.Files.emplace_back(
        Spec.Out.CoverageOut,
        coverage::coverageDocumentToJson(
            {{Crate->Info.Name, R.ApiCoverage}})
                .dump() +
            "\n");

  if (Spec.Out.Json) {
    Resp.Output = resultToJson(R).dump() + "\n";
  } else if (!R.Supported) {
    Resp.Output =
        format("%s uses closure-based APIs; excluded from synthesis "
               "(Section 7.1)\n",
               Crate->Info.Name.c_str());
    return Resp;
  } else {
    Resp.Output = renderRunSummary(*Crate, R);
  }
  if (R.BugFound)
    Resp.ExitCode = ExitFinding;
  return Resp;
}

Response executeCampaign(const Session &S, const RequestSpec &Req,
                         const ProgressFn &Progress) {
  const campaign::CampaignSpec &Spec = Req.Campaign.Spec;
  campaign::CampaignRunner Runner(S, Spec);

  // Checkpoint/resume: an existing file's finished cells preload (after
  // a fingerprint check — resuming someone else's matrix would corrupt
  // both), and every live cell appends one flushed line.
  campaign::CheckpointWriter CkptWriter;
  const std::string &CkptPath = Req.Campaign.CheckpointPath;
  if (!CkptPath.empty()) {
    if (fileExists(CkptPath)) {
      campaign::CheckpointData Data;
      std::string Err;
      if (!campaign::loadCheckpoint(CkptPath, Data, Err))
        return runtimeError(Err);
      const std::string Want = campaign::specFingerprint(Spec);
      if (Data.Fingerprint != Want)
        return usageError(
            "checkpoint '" + CkptPath + "' belongs to a different "
            "campaign (fingerprint " + Data.Fingerprint + ", this spec " +
            Want + "); point --checkpoint elsewhere");
      if (Progress)
        Progress(format("resuming: %zu finished cell(s) preloaded from "
                        "checkpoint",
                        Data.Cells.size()));
      Runner.preload(std::move(Data.Cells));
    }
    std::string Err;
    if (!CkptWriter.open(CkptPath, Spec, Err))
      return runtimeError(Err);
    Runner.onJobCheckpoint(
        [&](const campaign::CampaignJobResult &JR,
            const std::map<std::string, uint64_t> &Deltas) {
          CkptWriter.append(JR, Deltas);
        });
  }

  size_t Total = campaign::expandMatrix(Spec).size();
  size_t Done = 0;
  if (Progress)
    Runner.onJobDone([&](const campaign::CampaignJobResult &JR) {
      ++Done;
      Progress(format("[%zu/%zu] %s seed=%llu %s: %llu synthesized",
                      Done, Total, JR.Job.Crate.c_str(),
                      static_cast<unsigned long long>(JR.Job.Seed),
                      JR.Job.Variant.c_str(),
                      static_cast<unsigned long long>(
                          JR.Result.Synthesized)));
    });

  campaign::CampaignResult R = Runner.run();
  CkptWriter.close();
  std::string Aggregate = campaign::campaignToJson(Spec, R).dump();

  Response Resp;
  if (R.Totals.BugsFound > 0)
    Resp.ExitCode = ExitFinding;
  if (!Req.Out.CoverageOut.empty())
    Resp.Files.emplace_back(
        Req.Out.CoverageOut,
        coverage::coverageDocumentToJson(R.ApiCoverage).dump() + "\n");

  if (Req.Out.OutDir.empty()) {
    Resp.Output = Aggregate + "\n";
    return Resp;
  }

  const std::string &Dir = Req.Out.OutDir;
  Resp.Files.emplace_back(joinDir(Dir, "aggregate.json"),
                          Aggregate + "\n");
  for (const campaign::CampaignJobResult &JR : R.Jobs) {
    std::string Name =
        format("job-%03zu-%s-s%llu-%s.json", JR.Job.Index,
               JR.Job.Crate.c_str(),
               static_cast<unsigned long long>(JR.Job.Seed),
               JR.Job.Variant.c_str());
    Resp.Files.emplace_back(joinDir(Dir, Name),
                            resultToJson(JR.Result).dump() + "\n");
  }
  if (Spec.Trace)
    Resp.Files.emplace_back(joinDir(Dir, "trace.json"),
                            R.MergedTraceJson);

  Table T({"Crate", "Seed", "Variant", "# Synthesized", "# Rejected (%)",
           "# Executed", "Bug"});
  for (const campaign::CampaignJobResult &JR : R.Jobs) {
    const RunResult &Res = JR.Result;
    T.addRow({JR.Job.Crate, std::to_string(JR.Job.Seed), JR.Job.Variant,
              fmtCount(Res.Synthesized),
              fmtCount(Res.Rejected) + " (" +
                  fmtPercent(Res.rejectedPercent()) + ")",
              fmtCount(Res.Executed), Res.BugFound ? "yes" : "-"});
  }
  Resp.Output = T.render();
  Resp.Output +=
      format("\ntotals: %llu synthesized, %llu rejected, %llu executed, "
             "%llu UB events, %llu jobs with a bug\n",
             static_cast<unsigned long long>(R.Totals.Synthesized),
             static_cast<unsigned long long>(R.Totals.Rejected),
             static_cast<unsigned long long>(R.Totals.Executed),
             static_cast<unsigned long long>(R.Totals.UbCount),
             static_cast<unsigned long long>(R.Totals.BugsFound));
  Resp.Output += format("wrote %s and %zu per-job documents\n",
                        joinDir(Dir, "aggregate.json").c_str(),
                        R.Jobs.size());
  return Resp;
}

Response executeAudit(const Session &S, const RequestSpec &Req,
                      const ProgressFn &Progress) {
  const oracle::AuditSpec &Spec = Req.Audit.Spec;
  size_t Total = oracle::expandAuditMatrix(Spec).size();
  size_t Done = 0;
  oracle::AuditRunResult R = runAudit(
      S, Spec,
      [&](const oracle::AuditJobResult &JR) {
        if (!Progress)
          return;
        ++Done;
        Progress(format(
            "[%zu/%zu] %s seed=%llu: %llu replayed, %llu unexpected",
            Done, Total, JR.Job.Crate.c_str(),
            static_cast<unsigned long long>(JR.Job.Seed),
            static_cast<unsigned long long>(JR.Result.ModelsReplayed),
            static_cast<unsigned long long>(
                JR.Result.UnexpectedTotal)));
      });
  std::string Doc = auditToJson(Spec, R).dump();

  Response Resp;
  Resp.ExitCode = R.clean() ? ExitOk : ExitFinding;
  if (!Req.Out.CoverageOut.empty())
    Resp.Files.emplace_back(
        Req.Out.CoverageOut,
        coverage::coverageDocumentToJson(R.ApiCoverage).dump() + "\n");
  if (!Req.Out.OutDir.empty())
    Resp.Files.emplace_back(joinDir(Req.Out.OutDir, "audit.json"),
                            Doc + "\n");
  if (Req.Out.Json) {
    Resp.Output = Doc + "\n";
    return Resp;
  }

  Table T({"Crate", "Seed", "Replayed", "Pass", "Agree-Reject",
           "Expected", "UNEXPECTED", "Filtered-OK"});
  for (const oracle::AuditJobResult &JR : R.Jobs) {
    const oracle::AuditResult &Res = JR.Result;
    T.addRow({JR.Job.Crate, std::to_string(JR.Job.Seed),
              fmtCount(Res.ModelsReplayed), fmtCount(Res.AgreePass),
              fmtCount(Res.AgreeReject), fmtCount(Res.ExpectedTotal),
              fmtCount(Res.UnexpectedTotal),
              fmtCount(Res.FilteredCompilable)});
  }
  Resp.Output = T.render();
  Resp.Output += format(
      "\ntotals: %llu replayed, %llu agree-pass, %llu agree-reject, "
      "%llu expected, %llu UNEXPECTED, %llu filtered-compilable\n",
      static_cast<unsigned long long>(R.Totals.ModelsReplayed),
      static_cast<unsigned long long>(R.Totals.AgreePass),
      static_cast<unsigned long long>(R.Totals.AgreeReject),
      static_cast<unsigned long long>(R.Totals.ExpectedTotal),
      static_cast<unsigned long long>(R.Totals.UnexpectedTotal),
      static_cast<unsigned long long>(R.Totals.FilteredCompilable));
  for (const oracle::AuditJobResult &JR : R.Jobs)
    for (const oracle::Disagreement &D : JR.Result.Unexpected)
      Resp.Output += format(
          "\nUNEXPECTED %s (%s seed=%llu): %s\noriginal "
          "(%d lines):\n%sminimized (%d lines, %llu steps):\n%s",
          detailName(D.Detail), JR.Job.Crate.c_str(),
          static_cast<unsigned long long>(JR.Job.Seed),
          D.Message.c_str(), D.Lines, D.Source.c_str(),
          D.MinimizedLines,
          static_cast<unsigned long long>(D.MinimizerSteps),
          D.MinimizedSource.c_str());
  if (Resp.ExitCode != ExitOk)
    Resp.Output += format(
        "\naudit FAILED: %llu unexpected disagreement(s) - the encoder "
        "and checker disagree about Rust\n",
        static_cast<unsigned long long>(R.Totals.UnexpectedTotal));
  return Resp;
}

Response executeReport(const RequestSpec &Req) {
  std::string Data;
  if (!readFileTo(Req.Report.File, Data))
    return runtimeError("cannot read '" + Req.Report.File + "'");
  TraceSummary Summary;
  std::string Err;
  if (!summarizeTrace(Data, Summary, Err)) {
    // A common slip is pointing `report` at one of our other JSON
    // documents; those all carry a `kind` field, so dispatch on it and
    // point at the right verb instead of dumping a parse error.
    json::ParseResult P = json::parse(Data);
    if (P.Ok && P.Val.kind() == json::Value::Kind::Object &&
        P.Val.has("kind")) {
      const std::string Kind = P.Val.get("kind").asString();
      if (Kind == "campaign" || Kind == "coverage" || Kind == "audit")
        return usageError(
            "'" + Req.Report.File + "' is a " + Kind +
            " document, not a trace; try `syrust coverage " +
            Req.Report.File + "`" +
            (Kind == "audit" ? " for its api_coverage section" : ""));
    }
    return usageError(Req.Report.File + ": " + Err);
  }
  Response Resp;
  Resp.Output = renderTraceSummary(Summary);
  return Resp;
}

Response executeCoverage(const Session &S, const RequestSpec &Req) {
  std::string Data;
  if (!readFileTo(Req.Coverage.File, Data))
    return runtimeError("cannot read '" + Req.Coverage.File + "'");
  json::ParseResult P = json::parse(Data);
  if (!P.Ok)
    return usageError(Req.Coverage.File + ": " + P.Error);
  std::vector<ApiCoverageEntry> Entries;
  std::string Err;
  if (!collectApiCoverage(P.Val, Entries, Err))
    return usageError(Req.Coverage.File + ": " + Err);

  // The never-covered listings need each crate's database and frozen
  // dependency graph: the Session's shared analysis, which the Session
  // keeps alive for its own lifetime.
  CrateApiResolver Resolver =
      [&S](const std::string &Name) -> CrateApiView {
    const crates::CrateSpec *Spec = S.find(Name);
    if (!Spec || !Spec->Info.SupportsSynthesis)
      return {};
    const CrateAnalysis &A = *S.analysisFor(*Spec);
    return {&A.base().Db, &A.graph()};
  };

  CoverageReportOptions Opts;
  Opts.TopNeverCovered = Req.Coverage.Top;
  Response Resp;
  Resp.Output = renderApiCoverage(Entries, Resolver, Opts);
  return Resp;
}

} // namespace

Response syrust::cli::execute(const Session &S, const RequestSpec &Spec,
                              const ProgressFn &Progress) {
  switch (Spec.V) {
  case Verb::List:
    return executeList(S);
  case Verb::Run:
    return executeRun(S, Spec);
  case Verb::Campaign:
    return executeCampaign(S, Spec, Progress);
  case Verb::Audit:
    return executeAudit(S, Spec, Progress);
  case Verb::Report:
    return executeReport(Spec);
  case Verb::Coverage:
    return executeCoverage(S, Spec);
  }
  return usageError("unknown verb");
}

bool syrust::cli::writeResponseFiles(const Response &R,
                                     std::string &Err) {
  for (const auto &[Path, Content] : R.Files) {
    // Create the file's directory when the path has one (the campaign
    // --out layout); nested trees are the caller's job, matching the
    // old per-verb mkdir behavior.
    size_t Slash = Path.rfind('/');
    if (Slash != std::string::npos && Slash > 0) {
      std::string Dir = Path.substr(0, Slash);
      if (::mkdir(Dir.c_str(), 0777) != 0 && errno != EEXIST &&
          errno != EISDIR) {
        Err = "cannot create '" + Dir + "'";
        return false;
      }
    }
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    if (!F) {
      Err = "cannot write '" + Path + "'";
      return false;
    }
    bool Ok =
        std::fwrite(Content.data(), 1, Content.size(), F) ==
        Content.size();
    Ok = (std::fclose(F) == 0) && Ok;
    if (!Ok) {
      Err = "cannot write '" + Path + "'";
      return false;
    }
  }
  return true;
}
