//===--- CliRequestTest.cpp - Unified request API tests -------------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The cli library is the single construction path for every request the
// framework executes: `syrust` argv goes through its option table. These
// tests pin the properties that make that worth having: one specific
// message per bad field, flags scoped to their verbs, and retired flags
// and verbs rejected instead of silently ignored.
//
//===----------------------------------------------------------------------===//

#include "cli/RequestSpec.h"

#include "core/Session.h"

#include <gtest/gtest.h>

using namespace syrust;
using namespace syrust::cli;

namespace {

RequestSpec parseOk(Verb V, std::vector<const char *> Argv) {
  RequestSpec Spec;
  std::vector<std::string> Errors;
  bool Ok = parseArgv(V, static_cast<int>(Argv.size()), Argv.data(), Spec,
                      Errors);
  EXPECT_TRUE(Ok) << (Errors.empty() ? "" : Errors.front());
  return Spec;
}

std::vector<std::string> parseErrors(Verb V,
                                     std::vector<const char *> Argv) {
  RequestSpec Spec;
  std::vector<std::string> Errors;
  EXPECT_FALSE(parseArgv(V, static_cast<int>(Argv.size()), Argv.data(),
                         Spec, Errors));
  return Errors;
}

bool mentions(const std::vector<std::string> &Errors,
              const std::string &Needle) {
  for (const std::string &E : Errors)
    if (E.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(CliRequestTest, ExitCodesAreTheDocumentedContract) {
  // README.md and the usage text promise these numbers; scripts depend
  // on them.
  EXPECT_EQ(0, ExitOk);
  EXPECT_EQ(1, ExitFinding);
  EXPECT_EQ(2, ExitUsage);
  EXPECT_EQ(3, ExitRuntime);
}

TEST(CliRequestTest, VerbNamesRoundTrip) {
  for (Verb V : {Verb::List, Verb::Run, Verb::Campaign, Verb::Audit,
                 Verb::Coverage, Verb::Report}) {
    Verb Back;
    ASSERT_TRUE(verbFromName(verbName(V), Back)) << verbName(V);
    EXPECT_EQ(static_cast<int>(V), static_cast<int>(Back));
  }
  Verb V;
  EXPECT_FALSE(verbFromName("bogus", V));
  EXPECT_FALSE(verbFromName("", V));
  // Every request executes in the invoking process; there is no daemon
  // verb.
  EXPECT_FALSE(verbFromName("serve", V));
}

TEST(CliRequestTest, RunArgvParses) {
  RequestSpec Spec = parseOk(
      Verb::Run, {"slab", "--budget", "25", "--seed", "7", "--trace-out",
                  "t.json", "--json"});
  EXPECT_EQ(Verb::Run, Spec.V);
  EXPECT_EQ("slab", Spec.Run.Crate);
  EXPECT_EQ(25.0, Spec.Run.Config.BudgetSeconds);
  EXPECT_EQ(7u, Spec.Run.Config.Seed);
  EXPECT_EQ("t.json", Spec.Out.TraceOut);
  EXPECT_TRUE(Spec.Out.Json);
}

TEST(CliRequestTest, CampaignArgvParses) {
  RequestSpec Spec = parseOk(
      Verb::Campaign,
      {"--crates", "slab,bytes", "--seeds", "3..5", "--variants",
       "base,interleave", "--jobs", "4", "--budget", "9", "--out", "d",
       "--checkpoint", "ck.jsonl"});
  EXPECT_EQ(Verb::Campaign, Spec.V);
  ASSERT_EQ(2u, Spec.Campaign.Spec.Crates.size());
  EXPECT_EQ("slab", Spec.Campaign.Spec.Crates[0]);
  EXPECT_EQ(3u, Spec.Campaign.Spec.SeedBegin);
  EXPECT_EQ(5u, Spec.Campaign.Spec.SeedEnd);
  ASSERT_EQ(2u, Spec.Campaign.Spec.Variants.size());
  EXPECT_EQ(4, Spec.Campaign.Spec.Jobs);
  EXPECT_EQ(9.0, Spec.Campaign.Spec.Base.BudgetSeconds);
  EXPECT_EQ("d", Spec.Out.OutDir);
  EXPECT_EQ("ck.jsonl", Spec.Campaign.CheckpointPath);
}

TEST(CliRequestTest, OneSpecificMessagePerBadField) {
  // Three independent mistakes → three messages, each naming its field.
  std::vector<std::string> Errors = parseErrors(
      Verb::Campaign,
      {"--budget", "nope", "--seeds", "9..3", "--bogus-flag"});
  EXPECT_EQ(3u, Errors.size());
  EXPECT_TRUE(mentions(Errors, "--budget")) << Errors.front();
  EXPECT_TRUE(mentions(Errors, "--seeds"));
  EXPECT_TRUE(mentions(Errors, "--bogus-flag"));
}

TEST(CliRequestTest, FlagsAreScopedToTheirVerbs) {
  // --checkpoint belongs to campaign alone; run must name the rejected
  // flag, not silently eat it.
  EXPECT_TRUE(mentions(
      parseErrors(Verb::Run, {"slab", "--checkpoint", "x.jsonl"}),
      "--checkpoint"));
  EXPECT_TRUE(
      mentions(parseErrors(Verb::Coverage, {"f.json", "--budget", "3"}),
               "--budget"));
  // --top belongs to coverage alone.
  EXPECT_TRUE(mentions(parseErrors(Verb::Run, {"slab", "--top", "3"}),
                       "--top"));
}

TEST(CliRequestTest, MissingValuesAndPositionals) {
  EXPECT_TRUE(
      mentions(parseErrors(Verb::Run, {"slab", "--budget"}), "--budget"));
  EXPECT_TRUE(mentions(parseErrors(Verb::Run, {}), "crate"));
  EXPECT_TRUE(mentions(parseErrors(Verb::Report, {}), "file"));
  EXPECT_TRUE(
      mentions(parseErrors(Verb::Run, {"slab", "extra"}), "extra"));
}

TEST(CliRequestTest, RetiredEscapeHatchesAreRejected) {
  // Retired flags are gone from the option table: the probe-stack
  // escape hatches, the solver portfolio, and the daemon's routing and
  // listening options. On every verb the flag is an unknown-flag usage
  // error (exit 2), never silently ignored, and the usage text no longer
  // advertises it.
  const char *Retired[] = {"--no-compat-cache", "--no-graph-prune",
                           "--no-api-coverage", "--no-incremental",
                           "--portfolio",       "--strategy",
                           "--connect",         "--socket",
                           "--max-inflight",    "--checkpoint-dir"};
  for (const char *Flag : Retired) {
    EXPECT_TRUE(mentions(parseErrors(Verb::Run, {"slab", Flag}),
                         std::string("unknown flag '") + Flag + "'"))
        << Flag;
    EXPECT_TRUE(mentions(parseErrors(Verb::Campaign, {Flag}),
                         std::string("unknown flag '") + Flag + "'"))
        << Flag;
    EXPECT_TRUE(mentions(parseErrors(Verb::Audit, {Flag}),
                         std::string("unknown flag '") + Flag + "'"))
        << Flag;
    EXPECT_EQ(std::string::npos, usageText().find(Flag)) << Flag;
  }
}

TEST(CliRequestTest, UnknownFlagYieldsOneMessageInEitherOrder) {
  // After the positional, the word following an unknown flag is taken
  // as its value and swallowed; before it, the word is still the crate.
  std::vector<std::string> Errors =
      parseErrors(Verb::Run, {"slab", "--connect", "x"});
  ASSERT_EQ(1u, Errors.size());
  EXPECT_EQ("unknown flag '--connect'", Errors.front());

  RequestSpec Spec;
  Errors.clear();
  const char *Argv[] = {"--bogus", "slab"};
  EXPECT_FALSE(parseArgv(Verb::Run, 2, Argv, Spec, Errors));
  ASSERT_EQ(1u, Errors.size());
  EXPECT_EQ("unknown flag '--bogus'", Errors.front());
  EXPECT_EQ("slab", Spec.Run.Crate);

  // A verb without a positional swallows the word as well.
  Errors = parseErrors(Verb::Campaign, {"--bogus", "x"});
  ASSERT_EQ(1u, Errors.size());
  EXPECT_EQ("unknown flag '--bogus'", Errors.front());
}

TEST(CliRequestTest, FinalizeCrossFieldRules) {
  core::Session S;
  {
    // --trace-wall without --trace-out: nothing to stamp.
    RequestSpec Spec =
        parseOk(Verb::Run, {"slab", "--trace-wall"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--trace-out"));
  }
  {
    // --trace without --out: merged trace has nowhere to go.
    RequestSpec Spec = parseOk(Verb::Campaign, {"--trace"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--out"));
  }
  {
    // Checkpointed cells carry no trace events, so resume cannot
    // reconstruct a merged trace: refuse the combination.
    RequestSpec Spec = parseOk(
        Verb::Campaign,
        {"--checkpoint", "ck.jsonl", "--trace", "--out", "d"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "--checkpoint"));
  }
  {
    RequestSpec Spec = parseOk(Verb::Run, {"no_such_crate"});
    EXPECT_TRUE(mentions(finalize(S, Spec), "no_such_crate"));
  }
}

TEST(CliRequestTest, FinalizeExpandsAllCrates) {
  core::Session S;
  RequestSpec Spec = parseOk(Verb::Campaign, {"--budget", "3"});
  ASSERT_TRUE(finalize(S, Spec).empty());
  // Empty --crates means every synthesis-supporting crate.
  EXPECT_EQ(S.supportedCrates().size(), Spec.Campaign.Spec.Crates.size());

  RequestSpec Explicit =
      parseOk(Verb::Campaign, {"--crates", "all", "--budget", "3"});
  ASSERT_TRUE(finalize(S, Explicit).empty());
  EXPECT_EQ(Spec.Campaign.Spec.Crates, Explicit.Campaign.Spec.Crates);
}

} // namespace
