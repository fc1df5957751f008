//===--- CampaignRunner.cpp - Work-stealing campaign pool -----------------===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "campaign/CampaignRunner.h"

#include <cassert>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

using namespace syrust;
using namespace syrust::campaign;
using namespace syrust::core;

namespace {

/// One worker's job queue. A plain mutex-guarded deque rather than a
/// lock-free Chase-Lev: jobs here run for milliseconds to minutes, so
/// queue operations are nowhere near the critical path, and the simple
/// version is trivially ThreadSanitizer-clean.
struct WorkerQueue {
  std::mutex Mu;
  std::deque<size_t> Q;

  void push(size_t Job) {
    std::lock_guard<std::mutex> Lock(Mu);
    Q.push_back(Job);
  }
  /// Owner end: newest first.
  std::optional<size_t> popBack() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Q.empty())
      return std::nullopt;
    size_t Job = Q.back();
    Q.pop_back();
    return Job;
  }
  /// Thief end: oldest first.
  std::optional<size_t> stealFront() {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Q.empty())
      return std::nullopt;
    size_t Job = Q.front();
    Q.pop_front();
    return Job;
  }
};

} // namespace

obs::Recorder::Options
syrust::campaign::workerRecorderOptions(const CampaignSpec &Spec,
                                        int Worker) {
  obs::Recorder::Options Opts;
  Opts.Trace = Spec.Trace;
  Opts.Metrics = true;
  Opts.Snapshots = false;
  Opts.Lane = Worker;
  return Opts;
}

CampaignRunner::CampaignRunner(const Session &S, CampaignSpec Spec)
    : S(S), Spec(std::move(Spec)) {
  assert(this->Spec.validate(S).empty() &&
         "invalid CampaignSpec; validate() before constructing");
}

void CampaignRunner::onJobDone(
    std::function<void(const CampaignJobResult &)> Fn) {
  JobDone = std::move(Fn);
}

void CampaignRunner::preload(std::map<size_t, PreloadedCell> Cells) {
  Preloaded = std::move(Cells);
}

void CampaignRunner::onJobCheckpoint(CheckpointSink Fn) {
  Checkpoint = std::move(Fn);
}

CampaignResult CampaignRunner::run() {
  std::vector<CampaignJob> Jobs = expandMatrix(Spec);

  CampaignResult Result;
  Result.Jobs.resize(Jobs.size());

  // Resume: finished cells slot straight into their matrix positions and
  // never reach the pool. Worker -1 marks them as not run here.
  size_t Live = 0;
  std::vector<bool> IsPreloaded(Jobs.size(), false);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    auto It = Preloaded.find(I);
    if (It == Preloaded.end()) {
      ++Live;
      continue;
    }
    IsPreloaded[I] = true;
    Result.Jobs[I].Job = Jobs[I];
    Result.Jobs[I].Worker = -1;
    Result.Jobs[I].Result = It->second.Result;
  }

  // Never spawn more workers than live jobs: an idle worker is pure
  // overhead and its empty trace lane is noise.
  int Workers = Spec.Jobs;
  if (static_cast<size_t>(Workers) > Live)
    Workers = static_cast<int>(Live ? Live : 1);
  Result.Workers = Workers;

  // Deal the matrix round-robin so every worker starts with a fair
  // slice; stealing rebalances when job durations diverge (a dashmap
  // run costs ~2x a slab run of the same budget).
  std::vector<WorkerQueue> Queues(Workers);
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (!IsPreloaded[I])
      Queues[I % Workers].push(I);

  // One recorder per worker — owned here, wired into each of that
  // worker's drivers in turn. Lane = worker id, so the merged trace
  // shows one named track per worker.
  std::vector<obs::Recorder> Recorders;
  Recorders.reserve(Workers);
  for (int W = 0; W < Workers; ++W)
    Recorders.emplace_back(workerRecorderOptions(Spec, W));

  std::mutex JobDoneMu;
  auto WorkerLoop = [&](int Me) {
    obs::Recorder &Rec = Recorders[Me];
    for (;;) {
      std::optional<size_t> JobIdx = Queues[Me].popBack();
      for (int Off = 1; !JobIdx && Off < Workers; ++Off)
        JobIdx = Queues[(Me + Off) % Workers].stealFront();
      if (!JobIdx)
        return; // Every deque empty: no work will ever appear again.
      const CampaignJob &Job = Jobs[*JobIdx];
      CampaignJobResult &Slot = Result.Jobs[*JobIdx];
      Slot.Job = Job;
      Slot.Worker = Me;
      // With a checkpoint sink armed, bracket the job with counter
      // snapshots: jobs run serially per worker, so after-minus-before
      // is exactly this job's contribution to the per-stage totals.
      std::map<std::string, uint64_t> Before;
      if (Checkpoint)
        for (const auto &[Name, C] : Rec.metrics().counters())
          Before[Name] = C->value();
      Slot.Result = S.runOne(Job.Crate, Job.Config, &Rec);
      std::map<std::string, uint64_t> Deltas;
      if (Checkpoint)
        // Zero deltas are kept deliberately: the aggregate's merged
        // section lists registered-but-zero counters too, and on a
        // resume with no live cells the stored deltas are the only
        // source of that key set.
        for (const auto &[Name, C] : Rec.metrics().counters()) {
          auto It = Before.find(Name);
          Deltas[Name] =
              C->value() - (It == Before.end() ? 0 : It->second);
        }
      if (JobDone || Checkpoint) {
        std::lock_guard<std::mutex> Lock(JobDoneMu);
        if (JobDone)
          JobDone(Slot);
        if (Checkpoint)
          Checkpoint(Slot, Deltas);
      }
    }
  };

  if (Workers <= 1) {
    WorkerLoop(0); // Same code path, no thread: --jobs 1 is the oracle.
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (int W = 0; W < Workers; ++W)
      Pool.emplace_back(WorkerLoop, W);
    for (std::thread &T : Pool)
      T.join();
  }

  // Merge in matrix order — completion order must never leak into the
  // aggregate. Per-crate API coverage ORs together here: one slot per
  // CampaignSpec::Crates name (matrix order again), fed by that crate's
  // jobs as they appear.
  for (const std::string &Crate : Spec.Crates)
    Result.ApiCoverage.emplace_back(Crate, coverage::ApiCoverageData());
  uint64_t MergeConflicts = 0;
  for (const CampaignJobResult &JR : Result.Jobs) {
    const RunResult &R = JR.Result;
    Result.Totals.Synthesized += R.Synthesized;
    Result.Totals.Rejected += R.Rejected;
    Result.Totals.Executed += R.Executed;
    Result.Totals.UbCount += R.UbCount;
    Result.Totals.BugsFound += R.BugFound ? 1 : 0;
    Result.Totals.SimSeconds += R.ElapsedSeconds;
    for (const auto &[Cat, N] : R.ByCategory)
      Result.Totals.ByCategory[Cat] += N;
    for (auto &[Crate, Data] : Result.ApiCoverage)
      if (Crate == JR.Job.Crate) {
        if (Data.mergeFrom(R.ApiCoverage))
          ++MergeConflicts;
        break;
      }
  }
  // A conflict means covered bits were discarded; record it where every
  // other anomaly counter lives. Added only when nonzero so clean
  // aggregates keep their exact pre-existing key set.
  if (MergeConflicts)
    Result.MergedCounters["coverage.api.merge_conflicts"] += MergeConflicts;

  // Per-stage totals: preloaded cells' recorded deltas plus each live
  // worker's final counters. Integer sums commute, so the totals cannot
  // depend on which worker ran what — or on where a resume split the
  // matrix.
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (IsPreloaded[I])
      for (const auto &[Name, N] : Preloaded.at(I).CounterDeltas)
        Result.MergedCounters[Name] += N;
  for (obs::Recorder &Rec : Recorders)
    for (const auto &[Name, C] : Rec.metrics().counters())
      Result.MergedCounters[Name] += C->value();

  if (Spec.Trace) {
    std::vector<const obs::Tracer *> Lanes;
    for (obs::Recorder &Rec : Recorders)
      Lanes.push_back(&Rec.tracer());
    Result.MergedTraceJson = mergeWorkerTraces(Lanes);
  }
  return Result;
}
