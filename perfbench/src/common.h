#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/mace_detector.h"
#include "ts/time_series.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock reading taken while the process initializes its statics,
/// the origin of every workload's `setup_s`.
Clock::time_point ProcessStart();
double SecondsSince(Clock::time_point start);
/// Busy-waits until `deadline`: open-loop pacing for inter-arrival gaps
/// shorter than a sleep can resolve.
void SpinUntil(Clock::time_point deadline);
/// Sleeps until `deadline` on an absolute timer. Open-loop pacing that
/// leaves the core to the system under test; call SetFineTimerSlack()
/// on the pacing thread first.
void SleepUntil(Clock::time_point deadline);
/// The CPUs the process may run on, in ascending order.
std::vector<int> AllowedCpus();
/// Restricts the calling thread to `cpus`. Threads it starts afterwards
/// inherit the mask, child processes too.
void PinCallingThread(const std::vector<int>& cpus);
/// Lowers the calling thread's timer slack to 1 us (the default 50 us
/// would make every paced send up to 50 us late).
void SetFineTimerSlack();

/// Output corruption injected on purpose, so each correctness check can be
/// shown to fail the run (`--fault NAME`).
enum class Fault {
  kNone,
  kFitLoss,       ///< fit-score: an epoch loss turns NaN
  kAuroc,         ///< fit-score: scores are negated before the AUROC
  kScoreBit,      ///< one score's low mantissa bit flips
  kDropResponse,  ///< one completion or response is discarded
  kSwapTenants,   ///< two sampled tenants' served scores trade places
  kHistoryCount,  ///< one tenant's finite-score count is off by one
  kHistoryBit,    ///< one recomputed anomaly bit is inverted
};
bool ParseFault(const std::string& text, Fault* fault);
const char* FaultName(Fault fault);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  Fault fault = Fault::kNone;
  /// Chrome-trace output path (traced binary only).
  std::string trace_out;
  /// Directory for the run's scratch files (the served model file).
  std::string work_dir = ".";
};

/// Exits with a usage error unless `options.fault` is kNone or listed.
void RequireFault(const Options& options, std::initializer_list<Fault> known);

/// \brief What one run measured and checked, printed as one JSON line.
class Outcome {
 public:
  /// End-to-end metric (printed by every run).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (reported by the traced run).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t n, uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  static void AppendEntries(const std::vector<Entry>& entries,
                            std::string* out);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failed_checks_;
  std::vector<Entry> metrics_;
  std::vector<Entry> layers_;
};

/// q-quantile (0..1) with linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Resident set size of this process, KiB (/proc/self/statm).
double ResidentKiB();
/// Peak resident set size of process `pid` (this process for 0), KiB:
/// VmHWM of /proc/<pid>/status.
double PeakResidentKiB(int pid = 0);
/// CPU time of the calling thread.
double ThreadCpuSeconds();
/// CPU time of the whole process, all threads.
double ProcessCpuSeconds();

/// Sum and count of every instrument of one obs histogram family.
struct HistogramTotals {
  double sum = 0.0;
  uint64_t count = 0;
  HistogramTotals operator-(const HistogramTotals& earlier) const {
    return {sum - earlier.sum, count - earlier.count};
  }
  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};
HistogramTotals ReadHistogram(const std::string& family);

/// Area under the ROC curve by the Mann-Whitney rank sum (ties share
/// their mean rank). Labels are 0/1; returns 0.5 when a class is empty.
double Auroc(const std::vector<double>& scores,
             const std::vector<uint8_t>& labels);
/// Bitwise equality of two score vectors (memcmp of the IEEE bits).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);
void FlipLowBit(double* value);

/// SMD-profile services (diverse normal patterns, 4.16 % anomalies) with
/// stationary normal patterns, generated from the benchmark seed.
mace::ts::Dataset MakeSmdDataset(uint64_t seed, int services,
                                 size_t train_length, size_t test_length);

/// The model the two serving workloads serve: tumbling windows
/// (score_stride == window), fitted on `dataset` at pinned threads/batch.
std::shared_ptr<mace::core::MaceDetector> FitServedModel(
    const mace::ts::Dataset& dataset);

/// \brief One tenant stream of the serving workloads: it replays its
/// service's labelled test split from `offset`, wrapping around, and sends
/// `warmup` observations before timing starts. Warm-ups differ by
/// tenant index modulo the window, so the tenants' windows fall due in
/// different passes.
struct TenantStream {
  std::string name;
  int service = 0;
  size_t offset = 0;
  size_t warmup = 0;
};
std::vector<TenantStream> MakeTenantStreams(const mace::ts::Dataset& dataset,
                                            int tenants, size_t base_warmup,
                                            int window, uint64_t seed);
const std::vector<double>& StreamRow(const mace::ts::Dataset& dataset,
                                     const TenantStream& stream, size_t step);

/// Streaming-equals-batch contract: `served[i]` is the score the serving
/// path emitted for step i of `stream`, which sent `steps_sent`
/// observations. Compares bitwise against MaceDetector::Score of exactly
/// that sequence on the interior steps (those no batch tail window can
/// reach). Returns the number of steps compared, or -1 on a mismatch.
long CompareWithBatch(mace::core::MaceDetector& detector,
                      const mace::ts::Dataset& dataset,
                      const TenantStream& stream, size_t steps_sent,
                      const std::vector<double>& served);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
