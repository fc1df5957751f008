//===--- RequestSpec.cpp - Unified request API ----------------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "cli/RequestSpec.h"

#include "support/StringUtils.h"

#include <cstdlib>
#include <cstring>

using namespace syrust;
using namespace syrust::cli;

namespace {

// Verb bits for OptionDef masks.
enum : unsigned {
  VRun = 1u << 0,
  VCampaign = 1u << 1,
  VAudit = 1u << 2,
  VCoverage = 1u << 3,
  VReport = 1u << 4,
};

unsigned verbBit(Verb V) {
  switch (V) {
  case Verb::Run:
    return VRun;
  case Verb::Campaign:
    return VCampaign;
  case Verb::Audit:
    return VAudit;
  case Verb::Coverage:
    return VCoverage;
  case Verb::Report:
    return VReport;
  case Verb::List:
    return 0;
  }
  return 0;
}

/// The RunConfig a shared knob lands in for this verb, if any: run's own
/// config or the campaign's base.
core::RunConfig *runConfigOf(RequestSpec &S) {
  if (S.V == Verb::Run)
    return &S.Run.Config;
  if (S.V == Verb::Campaign)
    return &S.Campaign.Spec.Base;
  return nullptr;
}

/// Parses `N` or `N..M` into an inclusive seed range.
bool parseSeedRange(const std::string &Text, uint64_t &Begin,
                    uint64_t &End) {
  const char *C = Text.c_str();
  const char *Dots = std::strstr(C, "..");
  char *EndPtr = nullptr;
  Begin = std::strtoull(C, &EndPtr, 10);
  if (EndPtr == C)
    return false;
  if (!Dots) {
    End = Begin;
    return *EndPtr == '\0';
  }
  if (EndPtr != Dots)
    return false;
  const char *Second = Dots + 2;
  End = std::strtoull(Second, &EndPtr, 10);
  return EndPtr != Second && *EndPtr == '\0' && Begin <= End;
}

/// One knob: `Flag` is the CLI spelling, `Verbs` masks where it
/// applies, `K` fixes the value kind, and `Set` is the semantic action.
/// Adding a knob means adding exactly one row.
struct OptionDef {
  const char *Flag;
  unsigned Verbs;
  enum Kind { Num, Str, Flag_ } K;
  /// Applies the knob. \p Text carries Str values, \p Val Num values.
  /// Returns a message for domain errors the kind check can't catch
  /// (malformed seed ranges); empty = applied.
  std::string (*Set)(RequestSpec &S, const std::string &Text, double Val);
};

const OptionDef Options[] = {
    // Shared synthesis knobs.
    {"--budget", VRun | VCampaign, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->BudgetSeconds = Val;
       return std::string();
     }},
    {"--seed", VRun, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Run.Config.Seed = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--apis", VRun | VCampaign | VAudit, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       if (S.V == Verb::Audit)
         S.Audit.Spec.Base.NumApis = static_cast<int>(Val);
       else
         runConfigOf(S)->NumApis = static_cast<int>(Val);
       return std::string();
     }},
    {"--max-tests", VRun | VCampaign, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->MaxTests = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--log-tests", VRun, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Run.Config.RecordTests = static_cast<size_t>(Val);
       return std::string();
     }},
    {"--solve-budget", VRun | VCampaign, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       runConfigOf(S)->SolveConflictBudget = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--bias-coverage", VRun | VCampaign, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       // Forces interleaved mode: the biased episode leg replaces the
       // round-robin length rotation, which only exists interleaved.
       core::RunConfig *C = runConfigOf(S);
       C->BiasCoverage = true;
       C->InterleaveLengths = true;
       return std::string();
     }},

    // Run-only variants and toggles.
    {"--no-semantic", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.SemanticAware = false;
       return std::string();
     }},
    {"--eager", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.Mode = refine::RefinementMode::PurelyEager;
       return std::string();
     }},
    {"--lazy", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.Mode = refine::RefinementMode::PurelyLazy;
       return std::string();
     }},
    {"--interleave", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.InterleaveLengths = true;
       return std::string();
     }},
    {"--mutate-inputs", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.MutateInputs = true;
       return std::string();
     }},
    {"--stop-on-bug", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.StopOnFirstBug = true;
       return std::string();
     }},
    {"--minimize", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.MinimizeBugs = true;
       return std::string();
     }},
    {"--json-errors", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.Config.JsonErrorChannel = true;
       return std::string();
     }},
    {"--trace-wall", VRun, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Run.TraceWall = true;
       return std::string();
     }},

    // Matrix shape (campaign/audit).
    {"--crates", VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       std::vector<std::string> &Crates = S.V == Verb::Audit
                                              ? S.Audit.Spec.Crates
                                              : S.Campaign.Spec.Crates;
       // "all" stays the empty sentinel; finalize() expands it to every
       // synthesis-supporting crate.
       Crates = Text == "all" ? std::vector<std::string>()
                              : split(Text, ',');
       return std::string();
     }},
    {"--seeds", VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       uint64_t Begin = 0, End = 0;
       if (!parseSeedRange(Text, Begin, End))
         return "malformed seed range '" + Text +
                "' for --seeds (want N or N..M with N <= M)";
       if (S.V == Verb::Audit) {
         S.Audit.Spec.SeedBegin = Begin;
         S.Audit.Spec.SeedEnd = End;
       } else {
         S.Campaign.Spec.SeedBegin = Begin;
         S.Campaign.Spec.SeedEnd = End;
       }
       return std::string();
     }},
    {"--variants", VCampaign, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Campaign.Spec.Variants = split(Text, ',');
       return std::string();
     }},
    {"--jobs", VCampaign | VAudit, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       if (S.V == Verb::Audit)
         S.Audit.Spec.Jobs = static_cast<int>(Val);
       else
         S.Campaign.Spec.Jobs = static_cast<int>(Val);
       return std::string();
     }},

    // Audit-only knobs.
    {"--max-lines", VAudit, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Audit.Spec.Base.MaxLines = static_cast<int>(Val);
       return std::string();
     }},
    {"--max-models", VAudit, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Audit.Spec.Base.MaxModels = static_cast<uint64_t>(Val);
       return std::string();
     }},
    {"--weaken-kills", VAudit, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Audit.Spec.Base.WeakenConsumptionKills = true;
       return std::string();
     }},

    // Output routing — the one shared Outputs struct.
    {"--out", VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.OutDir = Text;
       return std::string();
     }},
    {"--trace", VCampaign, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Out.MergeTrace = true;
       return std::string();
     }},
    {"--trace-out", VRun, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.TraceOut = Text;
       return std::string();
     }},
    {"--metrics-out", VRun, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.MetricsOut = Text;
       return std::string();
     }},
    {"--coverage-out", VRun | VCampaign | VAudit, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Out.CoverageOut = Text;
       return std::string();
     }},
    {"--json", VRun | VAudit, OptionDef::Flag_,
     [](RequestSpec &S, const std::string &, double) {
       S.Out.Json = true;
       return std::string();
     }},

    // Checkpoint/resume.
    {"--checkpoint", VCampaign, OptionDef::Str,
     [](RequestSpec &S, const std::string &Text, double) {
       S.Campaign.CheckpointPath = Text;
       return std::string();
     }},

    // Coverage rendering.
    {"--top", VCoverage, OptionDef::Num,
     [](RequestSpec &S, const std::string &, double Val) {
       S.Coverage.Top = static_cast<int>(Val);
       return std::string();
     }},
};

const OptionDef *findOption(const std::string &Flag) {
  for (const OptionDef &O : Options)
    if (Flag == O.Flag)
      return &O;
  return nullptr;
}

/// The positional a verb takes ("crate" for run, "file" for
/// coverage/report); nullptr for none.
const char *positionalKey(Verb V) {
  if (V == Verb::Run)
    return "crate";
  if (V == Verb::Coverage || V == Verb::Report)
    return "file";
  return nullptr;
}

void setPositional(RequestSpec &S, const std::string &Text) {
  if (S.V == Verb::Run)
    S.Run.Crate = Text;
  else if (S.V == Verb::Coverage)
    S.Coverage.File = Text;
  else if (S.V == Verb::Report)
    S.Report.File = Text;
}

} // namespace

bool syrust::cli::verbFromName(const std::string &Name, Verb &Out) {
  if (Name == "list")
    Out = Verb::List;
  else if (Name == "run")
    Out = Verb::Run;
  else if (Name == "campaign")
    Out = Verb::Campaign;
  else if (Name == "audit")
    Out = Verb::Audit;
  else if (Name == "coverage")
    Out = Verb::Coverage;
  else if (Name == "report")
    Out = Verb::Report;
  else
    return false;
  return true;
}

const char *syrust::cli::verbName(Verb V) {
  switch (V) {
  case Verb::List:
    return "list";
  case Verb::Run:
    return "run";
  case Verb::Campaign:
    return "campaign";
  case Verb::Audit:
    return "audit";
  case Verb::Coverage:
    return "coverage";
  case Verb::Report:
    return "report";
  }
  return "?";
}

bool syrust::cli::parseArgv(Verb V, int Argc, const char *const *Argv,
                            RequestSpec &Out,
                            std::vector<std::string> &Errors) {
  // Strict value parsing: a missing value or non-number fails loudly
  // instead of running with a silently wrong configuration, with one
  // message per problem.
  Out = RequestSpec();
  Out.V = V;
  const unsigned Bit = verbBit(V);
  bool SawPositional = false;
  auto IsFlag = [](const std::string &A) {
    return A.size() >= 2 && A[0] == '-' && A[1] == '-';
  };
  for (int I = 0; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (!IsFlag(Arg)) {
      if (positionalKey(V) && !SawPositional) {
        SawPositional = true;
        setPositional(Out, Arg);
      } else {
        Errors.push_back("unexpected argument '" + Arg + "'");
      }
      continue;
    }
    const OptionDef *O = findOption(Arg);
    if (!O) {
      Errors.push_back("unknown flag '" + Arg + "'");
      // Swallow a following word that no positional slot would take:
      // it is most likely the unknown flag's value, and rejecting it too
      // would turn one mistake into two messages.
      if (I + 1 < Argc && !IsFlag(Argv[I + 1]) &&
          (!positionalKey(V) || SawPositional))
        ++I;
      continue;
    }
    if (!(O->Verbs & Bit)) {
      Errors.push_back("flag " + Arg + " does not apply to 'syrust " +
                       verbName(V) + "'");
      // Still swallow its value so one misplaced flag yields one
      // message, not a cascade.
      if (O->K != OptionDef::Flag_ && I + 1 < Argc)
        ++I;
      continue;
    }
    std::string Text;
    double Val = 0;
    if (O->K != OptionDef::Flag_) {
      if (I + 1 >= Argc) {
        Errors.push_back("missing value for " + Arg);
        continue;
      }
      Text = Argv[++I];
      if (O->K == OptionDef::Num) {
        char *End = nullptr;
        Val = std::strtod(Text.c_str(), &End);
        if (End == Text.c_str() || *End != '\0') {
          Errors.push_back("malformed number '" + Text + "' for " +
                           Arg);
          continue;
        }
        if (Val < 0) {
          Errors.push_back(Arg + std::string(" must be non-negative, got '") +
                           Text + "'");
          continue;
        }
      }
    }
    std::string Err = O->Set(Out, Text, Val);
    if (!Err.empty())
      Errors.push_back(Err);
  }
  if (positionalKey(V) && !SawPositional)
    Errors.push_back(std::string("missing <") + positionalKey(V) +
                     "> argument");
  return Errors.empty();
}

std::vector<std::string> syrust::cli::finalize(const core::Session &S,
                                               RequestSpec &Spec) {
  std::vector<std::string> Errors;
  switch (Spec.V) {
  case Verb::List:
    break;
  case Verb::Run: {
    if (!S.find(Spec.Run.Crate))
      Errors.push_back("unknown crate '" + Spec.Run.Crate +
                       "'; try `syrust list`");
    if (Spec.Run.TraceWall && Spec.Out.TraceOut.empty())
      Errors.push_back("--trace-wall requires --trace-out");
    std::vector<std::string> E = Spec.Run.Config.validate();
    Errors.insert(Errors.end(), E.begin(), E.end());
    break;
  }
  case Verb::Campaign: {
    if (Spec.Campaign.Spec.Crates.empty())
      Spec.Campaign.Spec.Crates = S.supportedCrates();
    // The spec's own Trace knob is driven by the shared Outputs struct.
    Spec.Campaign.Spec.Trace = Spec.Out.MergeTrace;
    if (Spec.Out.MergeTrace && Spec.Out.OutDir.empty())
      Errors.push_back("--trace requires --out");
    if (Spec.Out.MergeTrace && !Spec.Campaign.CheckpointPath.empty())
      Errors.push_back(
          "--checkpoint does not compose with --trace: resumed cells "
          "have no trace events to merge");
    std::vector<std::string> E = Spec.Campaign.Spec.validate(S);
    Errors.insert(Errors.end(), E.begin(), E.end());
    break;
  }
  case Verb::Audit: {
    if (Spec.Audit.Spec.Crates.empty())
      Spec.Audit.Spec.Crates = S.supportedCrates();
    std::vector<std::string> E = Spec.Audit.Spec.validate(S);
    Errors.insert(Errors.end(), E.begin(), E.end());
    break;
  }
  case Verb::Coverage:
    if (Spec.Coverage.File.empty())
      Errors.push_back("coverage needs a <file> argument");
    break;
  case Verb::Report:
    if (Spec.Report.File.empty())
      Errors.push_back("report needs a <trace.json> argument");
    break;
  }
  return Errors;
}

std::string syrust::cli::usageText() {
  return "usage: syrust list\n"
         "       syrust run <crate> [--budget N] [--seed N] [--apis N]\n"
         "                  [--no-semantic] [--eager] [--lazy]\n"
         "                  [--interleave] [--mutate-inputs]\n"
         "                  [--solve-budget N] [--stop-on-bug] "
         "[--minimize] [--max-tests N]\n"
         "                  [--log-tests N] [--json-errors] [--json]\n"
         "                  [--trace-out FILE] [--metrics-out FILE] "
         "[--trace-wall]\n"
         "                  [--coverage-out FILE] [--bias-coverage]\n"
         "       syrust campaign [--crates all|a,b,c] [--seeds N[..M]]\n"
         "                  [--variants v1,v2] [--jobs N] [--budget N]\n"
         "                  [--apis N] [--max-tests N] [--solve-budget N]\n"
         "                  [--out DIR] [--trace] [--coverage-out FILE]\n"
         "                  [--bias-coverage] [--checkpoint FILE]\n"
         "       syrust audit [--crates all|a,b,c] [--seeds N[..M]]\n"
         "                  [--apis N] [--max-lines N] [--max-models N]\n"
         "                  [--jobs N] [--weaken-kills]\n"
         "                  [--out DIR] [--json] [--coverage-out FILE]\n"
         "       syrust report <trace.json>\n"
         "       syrust coverage <file> [--top N]\n"
         "exit codes: 0 ok; 1 finding (UB found, or unexpected audit\n"
         "disagreement); 2 usage/configuration error; 3 environment "
         "failure\n";
}
