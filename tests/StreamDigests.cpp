//===--- StreamDigests.cpp - Golden program-stream digests ----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints one FNV-1a digest per golden cell of the emitted program
/// stream, so stream identity is checked across builds, not only as an
/// on/off toggle inside one binary. A `run` line digests every recorded
/// program (source, lines, verdict, detail, UB kind; records unbounded)
/// plus the synthesized/rejected/executed/UB/edges/minimized counts; an
/// `audit` line digests the oracle replay's counters, expected-detail
/// histogram, unexpected repros and covered-edge bitset.
///
/// The `stream_digest_golden` ctest diffs this output against
/// tests/golden/stream_digests.txt. A change that alters the stream on
/// purpose regenerates the file with
///   ./build/tests/stream_digests > tests/golden/stream_digests.txt
/// and says why in CHANGES.md.
///
/// With `--formula` it prints one `formula` line per run cell instead:
/// the run is traced and every `synth.sync` instant's `formula_digest`
/// (the solver's digest of every constraint it received, see
/// sat::Solver::formulaDigest) and `sat_vars` are folded in order. The
/// `formula_digest_golden` ctest diffs that against
/// tests/golden/formula_digests.txt, so an encoder rewrite that must
/// emit byte-identical clauses, cardinalities and variable numbering is
/// checked directly, not only through the programs it happens to yield.
/// Regenerate with
///   ./build/tests/stream_digests --formula > tests/golden/formula_digests.txt
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "core/Session.h"
#include "obs/Recorder.h"
#include "oracle/Oracle.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace syrust;

namespace {

/// Simulated budget per run cell: long enough that every crate refines,
/// short enough that the matrix stays a few host seconds (the bitvec
/// interleave cell, ~8 s of encoding rebuilds, bounds the wall time).
constexpr double BudgetSeconds = 30;
/// Models replayed per audit cell (emitted + path-filtered).
constexpr uint64_t AuditModels = 300;
constexpr uint64_t Seed = 2021;

class Fnv {
public:
  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < N; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

core::RunConfig cellConfig(const char *Variant) {
  core::RunConfig C;
  C.Seed = Seed;
  C.BudgetSeconds = BudgetSeconds;
  C.MinimizeBugs = true;
  C.RecordTests = std::numeric_limits<size_t>::max();
  campaign::applyVariant(Variant, C);
  return C;
}

std::string runCell(const core::Session &S, const std::string &Crate,
                    const char *Variant) {
  const core::RunResult R = S.runOne(Crate, cellConfig(Variant));

  Fnv H;
  for (const core::TestRecord &Rec : R.Db.records()) {
    H.str(Rec.Source);
    H.u64(static_cast<uint64_t>(Rec.Lines));
    H.u64(static_cast<uint64_t>(Rec.Verdict));
    H.u64(static_cast<uint64_t>(Rec.Detail));
    H.u64(static_cast<uint64_t>(Rec.Ub));
  }
  const uint64_t Edges = R.ApiCoverage.edgesCovered();
  for (uint64_t V : {R.Synthesized, R.Rejected, R.Executed, R.UbCount,
                     Edges, static_cast<uint64_t>(R.MinimizedLines)})
    H.u64(V);
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "run %s %" PRIu64 " %s synthesized=%" PRIu64
                " rejected=%" PRIu64 " executed=%" PRIu64 " ub=%" PRIu64
                " edges=%" PRIu64 " minimized=%d %016" PRIx64 "\n",
                Crate.c_str(), Seed, Variant, R.Synthesized, R.Rejected,
                R.Executed, R.UbCount, Edges, R.MinimizedLines, H.value());
  return Line;
}

std::string auditCell(const core::Session &S, const std::string &Crate) {
  oracle::OracleConfig C;
  C.Seed = Seed;
  C.MaxModels = AuditModels;
  const oracle::AuditResult R = oracle::auditOne(S, Crate, C);

  Fnv H;
  for (uint64_t V : {R.ModelsReplayed, R.AgreePass, R.AgreeReject,
                     R.ExpectedTotal, R.UnexpectedTotal,
                     R.FilteredCompilable, R.MinimizerSteps})
    H.u64(V);
  for (const auto &[Detail, N] : R.Expected) {
    H.u64(static_cast<uint64_t>(Detail));
    H.u64(N);
  }
  for (const oracle::Disagreement &D : R.Unexpected) {
    H.u64(static_cast<uint64_t>(D.Detail));
    H.str(D.Source);
    H.str(D.MinimizedSource);
  }
  for (uint8_t Byte : R.ApiCoverage.EdgeBits)
    H.u64(Byte);
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "audit %s %" PRIu64 " replayed=%" PRIu64 " pass=%" PRIu64
                " reject=%" PRIu64 " expected=%" PRIu64
                " unexpected=%" PRIu64 " %016" PRIx64 "\n",
                Crate.c_str(), Seed, R.ModelsReplayed, R.AgreePass,
                R.AgreeReject, R.ExpectedTotal, R.UnexpectedTotal,
                H.value());
  return Line;
}

/// The text of string argument \p Key in one rendered trace event, or
/// of numeric argument \p Key when \p Quoted is false; empty if absent.
std::string traceArg(const std::string &Event, const char *Key,
                     bool Quoted) {
  std::string Needle = std::string("\"") + Key + "\":" + (Quoted ? "\"" : "");
  size_t Pos = Event.find(Needle);
  if (Pos == std::string::npos)
    return "";
  Pos += Needle.size();
  size_t End = Event.find_first_of(Quoted ? "\"" : ",}", Pos);
  return Event.substr(Pos, End - Pos);
}

std::string formulaCell(const core::Session &S, const std::string &Crate,
                        const char *Variant) {
  obs::Recorder::Options O;
  O.Metrics = false;
  obs::Recorder Rec(O);
  S.runOne(Crate, cellConfig(Variant), &Rec);

  Fnv H;
  uint64_t Syncs = 0;
  for (const std::string &E : Rec.tracer().events()) {
    if (E.find("\"name\":\"synth.sync\"") == std::string::npos)
      continue;
    ++Syncs;
    H.str(traceArg(E, "formula_digest", /*Quoted=*/true));
    H.str(traceArg(E, "sat_vars", /*Quoted=*/false));
  }
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "formula %s %" PRIu64 " %s syncs=%" PRIu64 " %016" PRIx64
                "\n",
                Crate.c_str(), Seed, Variant, Syncs, H.value());
  return Line;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Formula = Argc > 1 && std::strcmp(Argv[1], "--formula") == 0;
  core::Session S;
  std::vector<std::function<std::string()>> Cells;
  for (const std::string &Crate : S.supportedCrates()) {
    for (const char *Variant : {"base", "interleave"})
      Cells.push_back([&S, Crate, Variant, Formula] {
        return Formula ? formulaCell(S, Crate, Variant)
                       : runCell(S, Crate, Variant);
      });
    if (!Formula)
      Cells.push_back([&S, Crate] { return auditCell(S, Crate); });
  }
  // Every cell is a pure function of its key, so a small pool changes
  // only the host time; lines are printed in matrix order.
  std::vector<std::string> Lines(Cells.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next++) < Cells.size();)
      Lines[I] = Cells[I]();
  };
  const unsigned Workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Workers; ++W)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  for (const std::string &L : Lines)
    std::fputs(L.c_str(), stdout);
  return 0;
}
