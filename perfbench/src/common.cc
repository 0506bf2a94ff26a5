#include "common.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "obs/metrics.h"
#include "common/rng.h"
#include "ts/generator.h"
#include "ts/profiles.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

const std::pair<const char*, Fault> kFaultNames[] = {
    {"none", Fault::kNone},
    {"fit-loss", Fault::kFitLoss},
    {"auroc", Fault::kAuroc},
    {"score-bit", Fault::kScoreBit},
    {"drop-response", Fault::kDropResponse},
    {"swap-tenants", Fault::kSwapTenants},
    {"history-count", Fault::kHistoryCount},
    {"history-bit", Fault::kHistoryBit},
};

}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void SpinUntil(Clock::time_point deadline) {
  while (Clock::now() < deadline) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

void SleepUntil(Clock::time_point deadline) {
  const auto since_epoch = std::chrono::duration_cast<std::chrono::nanoseconds>(
      deadline.time_since_epoch());
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(since_epoch.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(since_epoch.count() % 1000000000);
  // steady_clock is CLOCK_MONOTONIC; EINTR just means sleep again.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  MACE_CHECK(sched_getaffinity(0, sizeof(set), &set) == 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinCallingThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  MACE_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0);
}

void SetFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

bool ParseFault(const std::string& text, Fault* fault) {
  for (const auto& [name, value] : kFaultNames) {
    if (text == name) {
      *fault = value;
      return true;
    }
  }
  return false;
}

const char* FaultName(Fault fault) {
  for (const auto& [name, value] : kFaultNames) {
    if (value == fault) return name;
  }
  return "?";
}

void RequireFault(const Options& options, std::initializer_list<Fault> known) {
  if (options.fault == Fault::kNone) return;
  for (Fault fault : known) {
    if (fault == options.fault) return;
  }
  std::fprintf(stderr, "perfbench: --fault %s does not apply to %s\n",
               FaultName(options.fault), options.workload.c_str());
  std::exit(2);
}

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Outcome::Layer(const std::string& name, double value,
                    const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  if (std::find(failed_checks_.begin(), failed_checks_.end(), what) ==
      failed_checks_.end()) {
    failed_checks_.push_back(what);
  }
}

void Outcome::AppendEntries(const std::vector<Entry>& entries,
                            std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendJsonString(entries[i].name, out);
    out->append(": {\"value\": ");
    // JSON has no NaN/Inf; a non-finite measurement is a broken run.
    out->append(std::isfinite(entries[i].value)
                    ? FormatDouble(entries[i].value)
                    : std::string("null"));
    out->append(", \"unit\": ");
    AppendJsonString(entries[i].unit, out);
    out->push_back('}');
  }
  out->push_back('}');
}

std::string Outcome::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_checks_.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"failed_checks\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(failed_checks_[i], &out);
  }
  out += "], \"metrics\": ";
  AppendEntries(metrics_, &out);
  out += ", \"layers\": ";
  AppendEntries(layers_, &out);
  out += "}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double ResidentKiB() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  MACE_CHECK(statm.good()) << "cannot read /proc/self/statm";
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double PeakResidentKiB(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  MACE_CHECK(false) << "no VmHWM in " << path;
  return 0.0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

HistogramTotals ReadHistogram(const std::string& family) {
  HistogramTotals totals;
  for (const mace::obs::FamilySnapshot& snapshot :
       mace::obs::Metrics().Collect()) {
    if (snapshot.name != family) continue;
    for (const mace::obs::InstrumentSnapshot& instrument :
         snapshot.instruments) {
      totals.sum += instrument.sum;
      totals.count += instrument.count;
    }
  }
  return totals;
}

double Auroc(const std::vector<double>& scores,
             const std::vector<uint8_t>& labels) {
  MACE_CHECK(scores.size() == labels.size());
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double positive_rank_sum = 0.0;
  double positives = 0.0;
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    // Ranks i+1 .. j share their mean.
    const double mean_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] != 0) {
        positive_rank_sum += mean_rank;
        positives += 1.0;
      }
    }
    i = j;
  }
  const double negatives = static_cast<double>(scores.size()) - positives;
  if (positives == 0.0 || negatives == 0.0) return 0.5;
  return (positive_rank_sum - positives * (positives + 1.0) / 2.0) /
         (positives * negatives);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void FlipLowBit(double* value) {
  uint64_t bits = 0;
  std::memcpy(&bits, value, sizeof(bits));
  bits ^= 1u;
  std::memcpy(value, &bits, sizeof(bits));
}

mace::ts::Dataset MakeSmdDataset(uint64_t seed, int services,
                                 size_t train_length, size_t test_length) {
  mace::ts::DatasetProfile profile = mace::ts::SmdProfile();
  profile.num_services = services;
  profile.train_length = train_length;
  profile.test_length = test_length;
  // splitmix64 step: neighbouring benchmark seeds give unrelated datasets.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  profile.seed = z ^ (z >> 31);

  mace::ts::AnomalyInjectionConfig inject;
  inject.anomaly_ratio = profile.anomaly_ratio;
  inject.point_fraction = profile.point_fraction;
  inject.min_segment = profile.min_segment;
  inject.max_segment = profile.max_segment;
  mace::ts::Dataset dataset;
  dataset.name = profile.name;
  for (int s = 0; s < services; ++s) {
    // ts::GenerateDataset's recipe, minus the linear trend: at up to 1e-4
    // per step, a 50k-step test split would drift five units away from
    // anything its train split held, and its scores would rank the drift
    // rather than the injected anomalies.
    mace::Rng rng(profile.seed + 1000003ull * static_cast<uint64_t>(s + 1));
    mace::ts::NormalPattern pattern =
        mace::ts::SamplePattern(profile, s, &rng);
    pattern.trend_slope = 0.0;
    mace::ts::ServiceData service;
    service.name = profile.name + "-svc" + std::to_string(s);
    service.train =
        mace::ts::GenerateNormal(pattern, train_length, /*t0=*/0, &rng);
    service.test =
        mace::ts::GenerateNormal(pattern, test_length, train_length, &rng);
    mace::ts::InjectAnomalies(inject, pattern, &service.test, &rng);
    dataset.services.push_back(std::move(service));
  }
  return dataset;
}

std::shared_ptr<mace::core::MaceDetector> FitServedModel(
    const mace::ts::Dataset& dataset) {
  mace::core::MaceConfig config;
  config.score_stride = config.window;  // tumbling windows
  config.num_bases = 12;
  config.epochs = 2;
  config.fit_threads = 2;
  config.batch_size = 64;
  auto detector = std::make_shared<mace::core::MaceDetector>(config);
  MACE_CHECK_OK(detector->Fit(dataset.services));
  return detector;
}

std::vector<TenantStream> MakeTenantStreams(const mace::ts::Dataset& dataset,
                                            int tenants, size_t base_warmup,
                                            int window, uint64_t seed) {
  std::vector<TenantStream> streams(static_cast<size_t>(tenants));
  const auto services = static_cast<int>(dataset.services.size());
  for (int k = 0; k < tenants; ++k) {
    TenantStream& stream = streams[static_cast<size_t>(k)];
    stream.name = "tenant-" + std::to_string(k);
    stream.service = k % services;
    const size_t length =
        dataset.services[static_cast<size_t>(stream.service)].test.length();
    stream.offset = static_cast<size_t>(
        (seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(k) * 7919u) %
        length);
    stream.warmup = base_warmup + static_cast<size_t>(k % window);
  }
  return streams;
}

const std::vector<double>& StreamRow(const mace::ts::Dataset& dataset,
                                     const TenantStream& stream, size_t step) {
  const mace::ts::TimeSeries& test =
      dataset.services[static_cast<size_t>(stream.service)].test;
  return test.values()[(stream.offset + step) % test.length()];
}

long CompareWithBatch(mace::core::MaceDetector& detector,
                      const mace::ts::Dataset& dataset,
                      const TenantStream& stream, size_t steps_sent,
                      const std::vector<double>& served) {
  std::vector<std::vector<double>> rows;
  rows.reserve(steps_sent);
  for (size_t step = 0; step < steps_sent; ++step) {
    rows.push_back(StreamRow(dataset, stream, step));
  }
  mace::Result<std::vector<double>> batch =
      detector.Score(stream.service, mace::ts::TimeSeries(std::move(rows)));
  if (!batch.ok()) return -1;
  // The batch schedule adds one tail window ending at the last step; the
  // steps it covers can take a smaller min than the stream emitted.
  const size_t window = static_cast<size_t>(detector.window());
  const size_t interior =
      std::min(served.size(), steps_sent >= window ? steps_sent - window : 0);
  if (interior == 0) return -1;
  const std::vector<double> expected(batch->begin(),
                                     batch->begin() + static_cast<long>(interior));
  const std::vector<double> got(served.begin(),
                                served.begin() + static_cast<long>(interior));
  return SameBits(expected, got) ? static_cast<long>(interior) : -1;
}

}  // namespace perfbench
