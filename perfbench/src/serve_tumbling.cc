// serve-tumbling: an in-process ServeFrontend with a HistoryStore attached.
// Thousands of tenants over a handful of fitted services each send one
// observation per pass, with score_stride == window, first closed-loop
// (as fast as kBlock admits) and then open-loop at a pinned rate, while a
// query thread ranks the fleet with TopTenants on the live store.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/check.h"
#include "history/query.h"
#include "history/store.h"
#include "probe.h"
#include "serve/frontend.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "trace/alloc_count.h"
#include "trace/spans.h"
#include "trace/timed_model.h"
#endif

namespace perfbench {
namespace {

// Pinned inputs and knobs; README.md lists them with their reasons.
constexpr int kServices = 4;
constexpr size_t kTrainLength = 1200;
constexpr size_t kTestLength = 4000;
constexpr int kTenants = 4096;
constexpr int kShards = 2;
constexpr size_t kQueueCapacity = 4096;
constexpr size_t kMaxBatch = 128;
constexpr size_t kHistoryCapacity = 256;
constexpr double kOpenRate = 240000.0;  // observations per second
constexpr double kClosedShare = 0.5;    // of --seconds; the rest is open loop
constexpr int kSampleEvery = 256;       // tenants checked against batch Score
constexpr double kThresholdQuantile = 0.97;
constexpr auto kQueryInterval = std::chrono::milliseconds(250);
constexpr size_t kTopK = 10;

/// Client-side record of one tenant, written only by its completion
/// callbacks, which all run on its shard's worker thread. One cache line
/// each, so the two shards never write the same line. Flush() and thread
/// joins order the writes before reads.
struct alignas(64) TenantState {
  uint32_t completed = 0;  // next step whose completion is expected
  uint32_t order_errors = 0;
  uint32_t errors = 0;     // dropped or non-OK completions
  uint64_t finite_scores = 0;
  uint32_t open_base = 0;  // first step sent in the open-loop phase
  std::vector<double>* served = nullptr;  // sampled tenants: every score
};

struct Run {
  const mace::ts::Dataset* dataset = nullptr;
  const std::vector<TenantStream>* streams = nullptr;
  mace::serve::ServeFrontend* frontend = nullptr;
  std::vector<TenantState> tenants;
  // Steps sent per tenant, written only by the thread that submits for
  // the tenant; kept apart from `tenants`, which the shards write.
  std::vector<uint32_t> sent;
  std::vector<std::vector<double>> served;  // one per sampled tenant
  Fault fault = Fault::kNone;
  std::atomic<uint64_t> submit_failures{0};

  // Open-loop schedule: observation i is due at open_t0 + i * period.
  bool open_phase = false;
  Clock::time_point open_t0;
  double period_ns = 0.0;
  std::vector<float> latency_us;  // by open-loop index, from its due time
  std::vector<float> late_us;     // how late the generator submitted it

  void Submit(int k) {
    const TenantStream& stream = (*streams)[static_cast<size_t>(k)];
    const uint32_t step = sent[static_cast<size_t>(k)]++;
    const uint64_t packed = (static_cast<uint64_t>(k) << 32) | step;
    mace::Status status = [&] {
      PERFBENCH_SPAN("serve.submit");
      return frontend->SubmitAsync(
          stream.name, stream.service, StreamRow(*dataset, stream, step), {},
          [this, packed](mace::serve::ScoreBatch&& batch) {
            OnDone(static_cast<uint32_t>(packed >> 32),
                   static_cast<uint32_t>(packed), std::move(batch));
          });
    }();
    if (!status.ok()) ++submit_failures;
  }

  void OnDone(uint32_t k, uint32_t step, mace::serve::ScoreBatch&& batch) {
    const Clock::time_point now = Clock::now();
    if (fault == Fault::kDropResponse && k == 1 && step == 7) return;
    TenantState& tenant = tenants[k];
    if (step != tenant.completed) ++tenant.order_errors;
    tenant.completed = step + 1;
    if (batch.dropped || !batch.status.ok()) ++tenant.errors;
    for (double score : batch.scores) {
      if (std::isfinite(score)) ++tenant.finite_scores;
    }
    if (tenant.served != nullptr && !batch.scores.empty()) {
      if (batch.first_step != tenant.served->size()) ++tenant.order_errors;
      tenant.served->insert(tenant.served->end(), batch.scores.begin(),
                            batch.scores.end());
    }
    if (open_phase && step >= tenant.open_base) {
      const size_t index =
          static_cast<size_t>(step - tenant.open_base) * tenants.size() + k;
      if (index < latency_us.size()) {
        const double due_ns = period_ns * static_cast<double>(index);
        latency_us[index] = static_cast<float>(
            1e-3 * (std::chrono::duration<double, std::nano>(now - open_t0)
                        .count() -
                    due_ns));
      }
    }
  }
};

/// Fleet ranking on the live store at a fixed cadence until stopped.
class QueryLoop {
 public:
  /// CPU time and allocations of the query thread so far.
  struct Usage {
    double cpu_seconds = 0.0;
    uint64_t allocations = 0;
  };

  explicit QueryLoop(const mace::history::HistoryStore* store)
      : store_(store), thread_([this] { Loop(); }) {}
  ~QueryLoop() { Stop(); }
  QueryLoop(const QueryLoop&) = delete;
  QueryLoop& operator=(const QueryLoop&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  Usage usage() const {
    return {cpu_seconds_.load(), allocations_.load()};
  }
  // Valid after Stop().
  const std::vector<double>& query_ms() const { return query_ms_; }
  uint64_t bad_results() const { return bad_results_; }

 private:
  void Loop() {
    Clock::time_point next = Clock::now() + kQueryInterval;
    while (!stop_.load()) {
      cpu_seconds_.store(ThreadCpuSeconds());
#ifdef PERFBENCH_TRACED
      allocations_.store(trace::ThreadAllocations());
#endif
      if (Clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      next += kQueryInterval;
      const Clock::time_point begin = Clock::now();
      std::vector<mace::history::TenantRank> top = [&] {
        PERFBENCH_SPAN("history.query");
        return mace::history::TopTenants(
            *store_, 0, std::numeric_limits<int64_t>::max(), kTopK);
      }();
      query_ms_.push_back(1e3 * SecondsSince(begin));
      bool ordered = top.size() <= kTopK;
      for (size_t i = 1; i < top.size(); ++i) {
        ordered = ordered && top[i - 1].severity >= top[i].severity;
      }
      if (!ordered) ++bad_results_;
    }
  }

  const mace::history::HistoryStore* store_;
  std::atomic<bool> stop_{false};
  std::atomic<double> cpu_seconds_{0.0};
  std::atomic<uint64_t> allocations_{0};
  std::vector<double> query_ms_;
  uint64_t bad_results_ = 0;
  std::thread thread_;  // last: starts after the fields it uses
};

double AnomalyThreshold(mace::core::MaceDetector& detector,
                        const mace::ts::Dataset& dataset) {
  std::vector<double> scores;
  for (int s = 0; s < kServices; ++s) {
    mace::Result<std::vector<double>> batch =
        detector.Score(s, dataset.services[static_cast<size_t>(s)].test);
    MACE_CHECK_OK(batch.status());
    scores.insert(scores.end(), batch->begin(), batch->end());
  }
  return Quantile(std::move(scores), kThresholdQuantile);
}

/// Whether a stored float score puts the record's anomaly bit beyond
/// doubt: the bit was decided on the double before it was narrowed, so a
/// float within one float ulp of the threshold could round either way.
bool BitDecidable(float score, double threshold) {
  const double ulp = std::nextafter(score, std::numeric_limits<float>::max()) -
                     static_cast<double>(score);
  return std::fabs(static_cast<double>(score) - threshold) > ulp;
}

}  // namespace

void RunServeTumbling(const Options& options, Outcome* outcome) {
  RequireFault(options, {Fault::kDropResponse, Fault::kSwapTenants,
                         Fault::kScoreBit, Fault::kHistoryCount,
                         Fault::kHistoryBit});
  const mace::ts::Dataset dataset =
      MakeSmdDataset(options.seed, kServices, kTrainLength, kTestLength);
  const std::shared_ptr<mace::core::MaceDetector> detector =
      FitServedModel(dataset);
  const double threshold = AnomalyThreshold(*detector, dataset);
  const int window = detector->window();
  const std::vector<TenantStream> streams = MakeTenantStreams(
      dataset, kTenants, kHistoryCapacity + static_cast<size_t>(window),
      window, options.seed);

  mace::history::HistoryConfig history_config;
  history_config.capacity_per_tenant = kHistoryCapacity;
  history_config.anomaly_threshold = threshold;
  mace::history::HistoryStore store(history_config);
  mace::serve::ServeConfig serve_config;
  serve_config.num_shards = kShards;
  serve_config.queue_capacity = kQueueCapacity;
  serve_config.max_batch = kMaxBatch;
  serve_config.overload_policy = mace::serve::OverloadPolicy::kBlock;
  serve_config.session_ttl_ms = 0;  // no eviction inside a run
  serve_config.history = &store;
#ifdef PERFBENCH_TRACED
  const auto timed = std::make_shared<trace::TimedModel>(detector);
  std::shared_ptr<const mace::core::ServingModel> served = timed;
#else
  std::shared_ptr<const mace::core::ServingModel> served = detector;
#endif
  // The open-loop generator gets the last CPU to itself: the shard
  // workers, started by Create, inherit a mask without it, so a woken
  // worker never waits for the spinning generator to be preempted.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() >= 3;
  if (pin) PinCallingThread({cpus.begin(), cpus.end() - 1});
  mace::Result<std::unique_ptr<mace::serve::ServeFrontend>> created =
      mace::serve::ServeFrontend::Create(served, serve_config);
  MACE_CHECK_OK(created.status());
  if (pin) PinCallingThread(cpus);
  mace::serve::ServeFrontend& frontend = **created;

  // The benchmark's own per-tenant bookkeeping exists before the resident
  // baseline, so serve.tenant_kb counts only what serving the tenants costs.
  const double closed_seconds = kClosedShare * options.seconds;
  const double open_seconds = options.seconds - closed_seconds;
  const auto open_rounds = static_cast<size_t>(
      std::ceil(kOpenRate * open_seconds / static_cast<double>(kTenants)));
  Run run;
  run.dataset = &dataset;
  run.streams = &streams;
  run.frontend = &frontend;
  run.fault = options.fault;
  run.tenants.resize(static_cast<size_t>(kTenants));
  run.sent.assign(static_cast<size_t>(kTenants), 0);
  run.served.resize(static_cast<size_t>(kTenants / kSampleEvery));
  for (size_t i = 0; i < run.served.size(); ++i) {
    run.served[i].reserve(16384);
    run.tenants[i * kSampleEvery].served = &run.served[i];
  }
  run.latency_us.assign(open_rounds * kTenants, -1.0f);
  run.late_us.assign(open_rounds * kTenants, 0.0f);
  const double resident_before = ResidentKiB();

  // Warm-up: open every session and fill every ring (session window and
  // history) to its steady size. Tenant k sends its last warm-up
  // observations alone, so tenants fall due in different passes.
  size_t warmup_steps = 0;
  for (const TenantStream& stream : streams) {
    warmup_steps = std::max(warmup_steps, stream.warmup);
  }
  for (size_t step = 0; step < warmup_steps; ++step) {
    for (int k = 0; k < kTenants; ++k) {
      if (streams[static_cast<size_t>(k)].warmup > step) run.Submit(k);
    }
  }
  frontend.Flush();
  const double resident_after = ResidentKiB();
  outcome->Metric("setup_s", SecondsSince(ProcessStart()), "s");
  const double tenant_kb = (resident_after - resident_before) / kTenants;

  QueryLoop queries(&store);

  const HistogramTotals batch0 = ReadHistogram("mace_serve_batch_size");
  const HistogramTotals append0 = ReadHistogram("mace_history_append_seconds");
  const double process_cpu0 = ProcessCpuSeconds();
  const double main_cpu0 = ThreadCpuSeconds();
  const QueryLoop::Usage query0 = queries.usage();
#ifdef PERFBENCH_TRACED
  const trace::SpanTotals scale0 = trace::Totals("scale");
  const trace::SpanTotals kernel0 = trace::Totals("kernel");
  const uint64_t kernel_calls0 = timed->kernel_calls();
  const uint64_t kernel_windows0 = timed->kernel_windows();
  const uint64_t allocs0 = trace::Allocations();
#endif
  // Closed loop: whole passes, one observation per tenant, each ended by
  // Flush(), so at most one pass is outstanding. Two threads submit a
  // contiguous half of every pass each: one alone submits slower than two
  // shards score, and the shards then wake for every third observation.
  // The rate is every observation of the phase over the phase's time.
  const Clock::time_point closed_begin = Clock::now();
  const Clock::time_point closed_end =
      closed_begin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(closed_seconds));
  uint64_t closed_passes = 0;
  std::barrier pass_start(2);
  std::barrier pass_end(2);
  bool stop = false;  // the barriers order its write before the read
  double helper_cpu = 0.0;
  std::thread helper([&] {
    const double cpu0 = ThreadCpuSeconds();
    for (;;) {
      pass_start.arrive_and_wait();
      if (stop) break;
      for (int k = kTenants / 2; k < kTenants; ++k) run.Submit(k);
      pass_end.arrive_and_wait();
    }
    helper_cpu = ThreadCpuSeconds() - cpu0;
  });
  do {
    pass_start.arrive_and_wait();
    for (int k = 0; k < kTenants / 2; ++k) run.Submit(k);
    pass_end.arrive_and_wait();
    {
      PERFBENCH_SPAN("serve.flush");
      frontend.Flush();
    }
    ++closed_passes;
  } while (Clock::now() < closed_end);
  const double closed_wall = SecondsSince(closed_begin);
  stop = true;
  pass_start.arrive_and_wait();
  helper.join();
  const double obs = static_cast<double>(closed_passes) * kTenants;
  outcome->Metric("throughput_per_s", obs / closed_wall, "1/s");
  // Shard workers' CPU: the process's, minus the two submitting threads
  // and the query thread (whose reading may lag by a millisecond).
  const QueryLoop::Usage query1 = queries.usage();
  const double client_cpu = ThreadCpuSeconds() - main_cpu0 + helper_cpu;
  const double shard_cpu = (ProcessCpuSeconds() - process_cpu0) - client_cpu -
                           (query1.cpu_seconds - query0.cpu_seconds);
  const HistogramTotals batch_sizes =
      ReadHistogram("mace_serve_batch_size") - batch0;
  const HistogramTotals appends =
      ReadHistogram("mace_history_append_seconds") - append0;
#ifdef PERFBENCH_TRACED
  const trace::SpanTotals scale = trace::Totals("scale") - scale0;
  const trace::SpanTotals kernel = trace::Totals("kernel") - kernel0;
  const double kernel_calls =
      static_cast<double>(timed->kernel_calls() - kernel_calls0);
  const double kernel_windows =
      static_cast<double>(timed->kernel_windows() - kernel_windows0);
  const uint64_t closed_allocs = trace::Allocations() - allocs0;
#endif

  // Open loop: observation i of the schedule is due at t0 + i / rate and
  // its latency runs from that due time to its completion callback.
  const mace::serve::ShardStats open_stats0 = frontend.Stats().Totals();
  for (int k = 0; k < kTenants; ++k) {
    run.tenants[static_cast<size_t>(k)].open_base =
        run.sent[static_cast<size_t>(k)];
  }
  run.period_ns = 1e9 / kOpenRate;
  run.open_t0 = Clock::now() + std::chrono::milliseconds(1);
  run.open_phase = true;
  if (pin) PinCallingThread({cpus.back()});
  RecordSpans(true);
  size_t index = 0;
  for (size_t round = 0; round < open_rounds; ++round) {
    for (int k = 0; k < kTenants; ++k, ++index) {
      const Clock::time_point due =
          run.open_t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                            run.period_ns * static_cast<double>(index)));
      SpinUntil(due);
      run.late_us[index] = static_cast<float>(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      run.Submit(k);
    }
  }
  frontend.Flush();
  RecordSpans(false);
  run.open_phase = false;
  queries.Stop();
  const mace::serve::ShardStats totals = frontend.Stats().Totals();

  std::vector<double> latencies(run.latency_us.begin(), run.latency_us.end());
  outcome->Metric("latency_p50_us", Median(latencies), "us");
  outcome->Metric("peak_rss_mib", PeakResidentKiB() / 1024.0, "MiB");

  // ---- Output checks ---------------------------------------------------
  uint64_t sent = 0;
  uint64_t lost_or_duplicated = 0;
  uint64_t errors = 0;
  for (int k = 0; k < kTenants; ++k) {
    const TenantState& tenant = run.tenants[static_cast<size_t>(k)];
    const uint32_t tenant_sent = run.sent[static_cast<size_t>(k)];
    sent += tenant_sent;
    lost_or_duplicated +=
        tenant.order_errors + (tenant.completed != tenant_sent ? 1 : 0);
    errors += tenant.errors;
  }
  const uint64_t missing_latencies = static_cast<uint64_t>(
      std::count(run.latency_us.begin(), run.latency_us.end(), -1.0f));
  outcome->Attempt(sent + queries.query_ms().size(),
                   errors + run.submit_failures + queries.bad_results());
  outcome->Check(lost_or_duplicated == 0 && missing_latencies == 0 &&
                     run.submit_failures == 0,
                 "every observation gets exactly one completion (" +
                     std::to_string(lost_or_duplicated) +
                     " tenants out of order or short)");
  outcome->Check(errors == 0 && totals.shed == 0 && totals.scored_steps == sent,
                 "no observation shed, rejected or failed under kBlock");

  // History: appended() per tenant against the finite scores its client
  // received, and every stored anomaly bit against score > threshold.
  if (options.fault == Fault::kHistoryCount) ++run.tenants[2].finite_scores;
  uint64_t count_mismatches = 0;
  for (int k = 0; k < kTenants; ++k) {
    const TenantStream& stream = streams[static_cast<size_t>(k)];
    const auto id =
        store.Intern(stream.name + "/" + std::to_string(stream.service));
    if (store.appended(id) != run.tenants[static_cast<size_t>(k)].finite_scores) {
      ++count_mismatches;
    }
  }
  outcome->Check(count_mismatches == 0,
                 "HistoryStore::appended() equals the finite scores each "
                 "client received (" +
                     std::to_string(count_mismatches) + " tenants differ)");
  uint64_t set_bits = 0;
  uint64_t clear_bits = 0;
  uint64_t wrong_bits = 0;
  bool flip_next = options.fault == Fault::kHistoryBit;
  for (size_t index = 0; index < store.NumTenants(); ++index) {
    // Sampled tenants have every served double; the bit must follow it.
    const std::vector<double>* exact = nullptr;
    const std::string name = store.TenantName(index);
    for (size_t i = 0; i < run.served.size(); ++i) {
      const TenantStream& stream = streams[i * kSampleEvery];
      if (name == stream.name + "/" + std::to_string(stream.service)) {
        exact = &run.served[i];
      }
    }
    store.VisitRange(
        index, std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max(),
        [&](mace::history::RecordSpan span) {
          for (size_t r = 0; r < span.size; ++r) {
            const mace::history::Record& record = span.data[r];
            bool expected = false;
            if (exact != nullptr) {
              const auto step = static_cast<size_t>(record.timestamp);
              if (step >= exact->size() ||
                  static_cast<float>((*exact)[step]) != record.score) {
                ++wrong_bits;
                continue;
              }
              expected = (*exact)[step] > threshold;
            } else if (BitDecidable(record.score, threshold)) {
              expected = static_cast<double>(record.score) > threshold;
            } else {
              continue;
            }
            if (flip_next) {
              expected = !expected;
              flip_next = false;
            }
            if ((record.anomaly != 0) != expected) ++wrong_bits;
            (record.anomaly != 0 ? set_bits : clear_bits) += 1;
          }
        });
  }
  outcome->Check(wrong_bits == 0, "every stored anomaly bit equals score > "
                                  "threshold (" +
                                      std::to_string(wrong_bits) + " differ)");
  outcome->Check(set_bits > 0 && clear_bits > 0,
                 "stored anomaly bits include both set and clear");

  if (options.fault == Fault::kScoreBit) FlipLowBit(&run.served[0][100]);
  if (options.fault == Fault::kSwapTenants) {
    std::swap(run.served[0], run.served[1]);
  }
  for (size_t i = 0; i < run.served.size(); ++i) {
    const size_t k = i * kSampleEvery;
    const long compared = CompareWithBatch(*detector, dataset, streams[k],
                                           run.sent[k], run.served[i]);
    outcome->Check(compared > 0, "served scores of " + streams[k].name +
                                     " equal batch Score bitwise");
  }

  // ---- Layers -----------------------------------------------------------
  std::vector<double> late(run.late_us.begin(), run.late_us.end());
  const double open_scored =
      static_cast<double>(totals.scored_steps - open_stats0.scored_steps);
  const double open_wait_us =
      (totals.mean_queue_wait_us * static_cast<double>(totals.scored_steps) -
       open_stats0.mean_queue_wait_us *
           static_cast<double>(open_stats0.scored_steps)) /
      open_scored;
  outcome->Layer("serve.tenant_kb", tenant_kb, "KiB");
  outcome->Layer("serve.queue_wait_us", open_wait_us, "us");
  outcome->Layer("serve.batch_size", batch_sizes.Mean(), "obs");
  outcome->Layer("history.append_us", 1e6 * appends.Mean(), "us");
  outcome->Layer("history.query_ms", Median(queries.query_ms()), "ms");
  outcome->Layer("serve.latency_p99_us", Quantile(latencies, 0.99), "us");
  outcome->Layer("serve.latency_samples", static_cast<double>(latencies.size()),
                 "count");
  outcome->Layer("loadgen.late_p99_us", Quantile(late, 0.99), "us");
  outcome->Layer("loadgen.late_samples", static_cast<double>(late.size()),
                 "count");
#ifdef PERFBENCH_TRACED
  outcome->Layer("scale.us_per_obs", 1e6 * scale.total_s / obs, "us");
  outcome->Layer("kernel.us_per_window", 1e6 * kernel.total_s / kernel_windows,
                 "us");
  outcome->Layer("kernel.windows_per_call", kernel_windows / kernel_calls,
                 "windows");
  outcome->Layer("serve.rest_us_per_obs",
                 1e6 * (shard_cpu - scale.total_s - kernel.total_s) / obs,
                 "us");
  outcome->Layer("serve.allocs_per_obs",
                 static_cast<double>(closed_allocs -
                                     (query1.allocations - query0.allocations)) /
                     obs,
                 "count");
#else
  (void)shard_cpu;
#endif
}

}  // namespace perfbench
