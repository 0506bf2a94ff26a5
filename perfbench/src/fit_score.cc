// fit-score: the paper's efficiency experiment. Each round fits a fresh
// unified model over a group of SMD-profile services, then batch-scores
// long labelled test splits. No serve, history or wire code runs.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "core/mace_detector.h"
#include "probe.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "trace/alloc_count.h"
#endif

namespace perfbench {
namespace {

// Pinned inputs and knobs; README.md lists them with their reasons.
constexpr int kTrainServices = 8;
constexpr size_t kTrainLength = 2400;
constexpr int kScoredServices = 4;
constexpr size_t kTestLength = 50000;
constexpr int kEpochs = 4;
constexpr int kFitThreads = 2;
// Every minibatch spans one 32-window gradient shard per fit thread, so
// the training pool has parallel work.
constexpr int kBatchSize = 32 * kFitThreads;
constexpr int kScoreThreads = 2;
// Lowest AUROC accepted over the scored services (README "AUROC floor").
constexpr double kAurocFloor = 0.6;

mace::core::MaceConfig FitScoreConfig() {
  mace::core::MaceConfig config;
  config.epochs = kEpochs;
  config.fit_threads = kFitThreads;
  config.batch_size = kBatchSize;
  config.score_threads = kScoreThreads;
  return config;
}

size_t TrainWindowsPerEpoch(const mace::ts::Dataset& dataset,
                            const mace::core::MaceConfig& config) {
  size_t windows = 0;
  for (const mace::ts::ServiceData& service : dataset.services) {
    windows += (service.train.length() - static_cast<size_t>(config.window)) /
                   static_cast<size_t>(config.train_stride) +
               1;
  }
  return windows;
}

bool LossesFallFinite(const std::vector<double>& losses) {
  for (double loss : losses) {
    if (!std::isfinite(loss)) return false;
  }
  return losses.size() >= 2 && losses.back() < losses.front();
}

#ifdef PERFBENCH_TRACED
/// Kernel share of batch scoring: ScoreWindowBatch over the windows Score
/// visits, in groups of score_batch, timing only the kernel calls.
/// Returns kernel seconds; adds the windows scored to `*windows`.
double TimeKernelOverScoreWindows(const mace::core::MaceDetector& detector,
                                  const mace::ts::Dataset& dataset,
                                  size_t* windows) {
  const auto window = static_cast<size_t>(detector.window());
  const auto group = static_cast<size_t>(detector.config().score_batch);
  double kernel_s = 0.0;
  for (int s = 0; s < kScoredServices; ++s) {
    const mace::ts::TimeSeries& test =
        dataset.services[static_cast<size_t>(s)].test;
    std::vector<std::vector<double>> scaled;
    scaled.reserve(test.length());
    for (const std::vector<double>& row : test.values()) {
      scaled.push_back(detector.ScaleObservation(s, row).value());
    }
    const std::vector<size_t> starts = detector.ScoreWindowStarts(test.length());
    std::vector<std::vector<std::vector<double>>> batch;
    for (size_t i = 0; i < starts.size(); i += group) {
      batch.clear();
      for (size_t j = i; j < std::min(starts.size(), i + group); ++j) {
        batch.emplace_back(scaled.begin() + static_cast<long>(starts[j]),
                           scaled.begin() +
                               static_cast<long>(starts[j] + window));
      }
      const Clock::time_point begin = Clock::now();
      mace::Result<std::vector<std::vector<double>>> errors = [&] {
        PERFBENCH_SPAN("kernel");
        return detector.ScoreWindowBatch(s, batch);
      }();
      kernel_s += SecondsSince(begin);
      MACE_CHECK_OK(errors.status());
      *windows += batch.size();
    }
  }
  return kernel_s;
}
#endif

}  // namespace

void RunFitScore(const Options& options, Outcome* outcome) {
  RequireFault(options, {Fault::kFitLoss, Fault::kAuroc, Fault::kScoreBit});
  const mace::ts::Dataset dataset = MakeSmdDataset(
      options.seed, kTrainServices, kTrainLength, kTestLength);
  const mace::core::MaceConfig config = FitScoreConfig();
  const size_t fit_windows =
      TrainWindowsPerEpoch(dataset, config) * static_cast<size_t>(kEpochs);
  outcome->Metric("setup_s", SecondsSince(ProcessStart()), "s");

  const HistogramTotals extract0 =
      ReadHistogram("mace_subspace_extraction_seconds");
  const HistogramTotals shard0 = ReadHistogram("mace_fit_shard_seconds");
  const HistogramTotals reduce0 = ReadHistogram("mace_fit_reduce_seconds");
  const HistogramTotals sync0 = ReadHistogram("mace_fit_sync_seconds");
  const HistogramTotals fit_util0 =
      ReadHistogram("mace_fit_worker_utilization_ratio");
  const HistogramTotals score_util0 =
      ReadHistogram("mace_score_worker_utilization_ratio");

  int fits = 0;
  double fit_seconds = 0.0;
  double score_seconds = 0.0;
  std::vector<double> score_call_us;
  size_t score_windows_total = 0;
#ifdef PERFBENCH_TRACED
  uint64_t score_allocs = 0;
  double kernel_s = 0.0;
  size_t kernel_windows = 0;
#endif
  int rounds = 0;
  RecordSpans(true);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  while (rounds == 0 || Clock::now() < end) {
    const bool first_round = rounds == 0;
    ++rounds;
    mace::core::MaceDetector detector(config);
    const Clock::time_point fit_begin = Clock::now();
    mace::Status fitted = [&] {
      PERFBENCH_SPAN("fit");
      return detector.Fit(dataset.services);
    }();
    const double fit_s = SecondsSince(fit_begin);
    if (!fitted.ok()) {
      std::fprintf(stderr, "Fit failed: %s\n", fitted.ToString().c_str());
      outcome->Attempt(1 + kScoredServices, 1 + kScoredServices);
      continue;
    }
    outcome->Attempt(1);
    ++fits;
    fit_seconds += fit_s;

    std::vector<double> losses = detector.epoch_losses();
    if (first_round && options.fault == Fault::kFitLoss) {
      losses.back() = std::nan("");
    }
    outcome->Check(LossesFallFinite(losses),
                   "epoch losses are finite and the last is below the first");

    std::vector<double> aurocs;
    std::vector<double> service0_scores;
    size_t round_windows = 0;
    double round_score_s = 0.0;
    for (int s = 0; s < kScoredServices; ++s) {
      const mace::ts::TimeSeries& test =
          dataset.services[static_cast<size_t>(s)].test;
#ifdef PERFBENCH_TRACED
      const uint64_t allocs_before = trace::Allocations();
#endif
      const Clock::time_point score_begin = Clock::now();
      mace::Result<std::vector<double>> scores = [&] {
        PERFBENCH_SPAN("score");
        return detector.Score(s, test);
      }();
      const double score_s = SecondsSince(score_begin);
      round_score_s += score_s;
#ifdef PERFBENCH_TRACED
      score_allocs += trace::Allocations() - allocs_before;
#endif
      outcome->Attempt(1, scores.ok() ? 0 : 1);
      if (!scores.ok()) continue;
      score_call_us.push_back(1e6 * score_s);
      round_windows += detector.ScoreWindowStarts(test.length()).size();
      if (first_round && options.fault == Fault::kAuroc) {
        std::vector<double> negated = *scores;
        for (double& score : negated) score = -score;
        aurocs.push_back(Auroc(negated, test.labels()));
      } else {
        aurocs.push_back(Auroc(*scores, test.labels()));
      }
      if (s == 0) service0_scores = std::move(scores).value();
    }
    score_seconds += round_score_s;
    score_windows_total += round_windows;

    double mean_auroc = 0.0;
    for (double auroc : aurocs) mean_auroc += auroc / kScoredServices;
    outcome->Check(aurocs.size() == kScoredServices && mean_auroc > kAurocFloor,
                   "mean AUROC of the scored services above the floor " +
                       std::to_string(kAurocFloor));
    if (first_round) std::fprintf(stderr, "mean AUROC %.4f\n", mean_auroc);

    if (first_round) {
      // The same model scored by one thread must give the same bits. The
      // score_threads knob is not part of the saved model, so a reloaded
      // copy scores with the default single thread.
      const std::string path = options.work_dir + "/fit-score-" +
                               std::to_string(getpid()) + ".mace";
      MACE_CHECK_OK(detector.Save(path));
      mace::Result<mace::core::MaceDetector> reloaded =
          mace::core::MaceDetector::Load(path);
      std::remove(path.c_str());
      MACE_CHECK_OK(reloaded.status());
      MACE_CHECK(reloaded->config().score_threads == 1);
      mace::Result<std::vector<double>> single =
          reloaded->Score(0, dataset.services[0].test);
      MACE_CHECK_OK(single.status());
      if (options.fault == Fault::kScoreBit && !service0_scores.empty()) {
        FlipLowBit(&service0_scores[service0_scores.size() / 2]);
      }
      outcome->Check(SameBits(service0_scores, *single),
                     "scores at score_threads=" +
                         std::to_string(kScoreThreads) +
                         " equal scores at score_threads=1 bitwise");
#ifdef PERFBENCH_TRACED
      kernel_s = TimeKernelOverScoreWindows(detector, dataset,
                                            &kernel_windows);
#endif
    }
  }

  // A whole-run ratio, not a median of per-round rates: round rates here
  // fall into a fast and a slow mode as the host's speed shifts, and a
  // median of a few dozen rounds jumps between the modes where the ratio
  // moves smoothly.
  outcome->Metric("throughput_per_s",
                  static_cast<double>(fit_windows) * fits / fit_seconds, "1/s");
  // What a user scoring one test split waits for.
  outcome->Metric("latency_p50_us", Median(score_call_us), "us");
  outcome->Metric("peak_rss_mib", PeakResidentKiB() / 1024.0, "MiB");

  // Registry-derived layers: what the program's own obs instruments saw.
  outcome->Layer("fit.extract_s",
                 (ReadHistogram("mace_subspace_extraction_seconds") - extract0)
                         .sum /
                     fits,
                 "s");
  outcome->Layer("fit.shard_s",
                 (ReadHistogram("mace_fit_shard_seconds") - shard0).sum / fits,
                 "s");
  outcome->Layer("fit.reduce_s",
                 (ReadHistogram("mace_fit_reduce_seconds") - reduce0).sum /
                     fits,
                 "s");
  outcome->Layer("fit.sync_s",
                 (ReadHistogram("mace_fit_sync_seconds") - sync0).sum / fits,
                 "s");
  outcome->Layer(
      "fit.worker_utilization",
      (ReadHistogram("mace_fit_worker_utilization_ratio") - fit_util0).Mean(),
      "ratio");
  outcome->Layer("score.worker_utilization",
                 (ReadHistogram("mace_score_worker_utilization_ratio") -
                  score_util0)
                     .Mean(),
                 "ratio");
#ifdef PERFBENCH_TRACED
  const double kernel_us = 1e6 * kernel_s / static_cast<double>(kernel_windows);
  const double score_us =
      1e6 * score_seconds / static_cast<double>(score_windows_total);
  outcome->Layer("score.kernel_us_per_window", kernel_us, "us");
  // Thread time the Score call has per window at the pinned thread count,
  // minus the kernel's share: scaling, window gathering, min-accumulation,
  // thread start-up and any thread left waiting.
  outcome->Layer("score.rest_us_per_window",
                 kScoreThreads * score_us - kernel_us, "us");
  outcome->Layer("score.allocs_per_window",
                 static_cast<double>(score_allocs) /
                     static_cast<double>(score_windows_total),
                 "count");
#endif
}

}  // namespace perfbench
