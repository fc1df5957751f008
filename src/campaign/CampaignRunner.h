//===--- CampaignRunner.h - Work-stealing campaign pool --------*- C++ -*-===//
//
// Part of SyRust-CPP (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans a campaign's job matrix across a work-stealing thread pool and
/// merges the results deterministically.
///
/// Scheduling: jobs are dealt round-robin onto per-worker deques; a
/// worker pops its own deque from the back (LIFO, cache-warm) and, when
/// empty, steals from other workers' fronts (FIFO, the oldest — and
/// typically largest remaining — work). No new jobs appear after start,
/// so a worker that finds every deque empty can retire.
///
/// Determinism: scheduling affects only *when* a job runs, never what it
/// computes — each job owns its CrateInstance, Rng, and SimClock, and
/// workers share nothing mutable. Results land in a pre-sized slot per
/// job index and every merge (totals, counters, aggregate JSON) walks
/// them in matrix order, so output is byte-identical for any pool width,
/// including Jobs = 1 (which runs the same worker loop inline).
///
//===----------------------------------------------------------------------===//

#ifndef SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H
#define SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H

#include "campaign/Campaign.h"
#include "obs/Recorder.h"

#include <functional>
#include <map>

namespace syrust::campaign {

/// One finished cell recovered from a checkpoint (Checkpoint.h): the
/// cell's result plus the per-stage counter increments it contributed.
struct PreloadedCell {
  core::RunResult Result;
  std::map<std::string, uint64_t> CounterDeltas;
};

/// The recorder options of pool worker \p Worker: counters for the
/// aggregate's metrics section, trace events when Spec.Trace, and no
/// metric snapshot lines, which nothing in a campaign reads.
obs::Recorder::Options workerRecorderOptions(const CampaignSpec &Spec,
                                             int Worker);

/// Runs one campaign. See file comment for the scheduling and
/// determinism contract.
class CampaignRunner {
public:
  /// \p S must outlive the runner. Precondition: Spec.validate(S) is
  /// empty (the CLI and benches check before constructing).
  CampaignRunner(const core::Session &S, CampaignSpec Spec);

  /// Optional progress callback, fired from worker threads after each
  /// finished job (guarded by an internal mutex, so the callback itself
  /// need not be thread-safe). For CLI progress lines; keep it cheap.
  void onJobDone(std::function<void(const CampaignJobResult &)> Fn);

  /// Marks matrix cells as already finished (resume): their results slot
  /// straight into the aggregate, their counter deltas seed the merged
  /// counters, and only the remaining cells are dealt to the pool.
  /// Indexes beyond the matrix are ignored. The merge still walks matrix
  /// order, so a resumed aggregate is byte-identical to an uninterrupted
  /// one.
  void preload(std::map<size_t, PreloadedCell> Cells);

  /// Optional checkpoint sink, fired (under the same mutex as onJobDone)
  /// after each *live* job with that job's per-stage counter deltas —
  /// what CheckpointWriter::append persists. Never fired for preloaded
  /// cells. Setting a sink makes workers snapshot their counters around
  /// every job; jobs run serially per worker, so the deltas are exact.
  using CheckpointSink = std::function<void(
      const CampaignJobResult &, const std::map<std::string, uint64_t> &)>;
  void onJobCheckpoint(CheckpointSink Fn);

  /// Expands the matrix, runs every job, merges in matrix order.
  CampaignResult run();

private:
  const core::Session &S;
  CampaignSpec Spec;
  std::function<void(const CampaignJobResult &)> JobDone;
  CheckpointSink Checkpoint;
  std::map<size_t, PreloadedCell> Preloaded;
};

} // namespace syrust::campaign

#endif // SYRUST_CAMPAIGN_CAMPAIGNRUNNER_H
