// wire-router: the path a remote client takes. Staggered tumbling-window
// tenants go through WireClient -> mace_router -> one mace_serve_backend
// over loopback: a pipelined closed-loop phase with a pinned in-flight
// window, then an open-loop phase at a pinned rate. One sender thread and
// one receiver thread share one connection.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/check.h"
#include "net/client.h"
#include "net/spawn.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Pinned inputs and knobs; README.md lists them with their reasons.
constexpr int kServices = 4;
constexpr size_t kTrainLength = 1200;
constexpr size_t kTestLength = 4000;
constexpr int kTenants = 1024;
constexpr size_t kWarmup = 40;  // plus the tenant's stagger (k mod window)
// One shard: the router's single event loop saturates near 100k obs/s,
// far below what one backend shard scores, and a second shard only adds a
// thread to contend for the four cores (it widened the p50 spread).
constexpr int kBackendShards = 1;
constexpr size_t kBackendQueue = 4096;
constexpr uint64_t kInflightWindow = 128;
// A full window is refilled once it has drained to this many.
constexpr uint64_t kRefillBelow = kInflightWindow / 2;
constexpr double kOpenRate = 38000.0;  // observations per second
constexpr double kClosedShare = 0.5;   // of --seconds; the rest is open loop
constexpr int kSampleEvery = 64;       // tenants checked against batch Score
constexpr int kSpawnTimeoutMs = 60000;
// Request ids map to send order through a ring this large; it must exceed
// the responses ever outstanding at once.
constexpr size_t kRingSize = size_t{1} << 20;
constexpr uint64_t kConsumed = ~uint64_t{0};

/// CPU time and context switches of a child process, from /proc.
struct ProcessUsage {
  double cpu_seconds = 0.0;
  double context_switches = 0.0;
};

ProcessUsage ReadUsage(int pid) {
  ProcessUsage usage;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    std::ifstream stat(base + "/stat");
    std::string line;
    std::getline(stat, line);
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    usage.cpu_seconds =
        (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  // Context switches are per thread: sum /proc/<pid>/task/*/status.
  if (DIR* tasks = opendir((base + "/task").c_str())) {
    while (const dirent* entry = readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream status(base + "/task/" + entry->d_name + "/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
            line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
          usage.context_switches += std::stod(line.substr(line.find(':') + 1));
        }
      }
    }
    closedir(tasks);
  }
  return usage;
}

/// Mean queue wait and scored count from a backend's stats line
/// ("... scored N out ... | wait Wus").
struct BackendWait {
  double mean_us = 0.0;
  double scored = 0.0;
};

BackendWait ReadBackendWait(mace::net::WireClient* client) {
  mace::Result<std::string> line = client->Stats();
  MACE_CHECK_OK(line.status());
  BackendWait wait;
  const size_t scored = line->find("scored ");
  const size_t mean = line->find("wait ");
  MACE_CHECK(scored != std::string::npos && mean != std::string::npos)
      << "unexpected stats line: " << *line;
  wait.scored = std::stod(line->substr(scored + 7));
  wait.mean_us = std::stod(line->substr(mean + 5));
  return wait;
}

std::unique_ptr<mace::net::Subprocess> SpawnListening(
    std::vector<std::string> argv, uint16_t* port) {
  mace::Result<std::unique_ptr<mace::net::Subprocess>> spawned =
      mace::net::Subprocess::Spawn(std::move(argv));
  MACE_CHECK_OK(spawned.status());
  mace::Result<uint16_t> listening =
      spawned.value()->WaitForListeningPort(kSpawnTimeoutMs);
  MACE_CHECK_OK(listening.status());
  *port = *listening;
  return std::move(spawned).value();
}

struct TenantState {
  uint32_t sent = 0;       // sender thread
  uint32_t responses = 0;  // receiver thread from here on
  uint32_t errors = 0;     // dropped, rejected or non-OK responses
  uint32_t open_base = 0;  // first step of the open-loop phase
  std::vector<double>* served = nullptr;
  uint32_t order_errors = 0;
};

/// One pipelined connection: the calling thread sends, a receiver thread
/// matches responses to requests by id. WireClient's send path and its
/// receive path touch disjoint state, so one thread may send while
/// another receives.
class Pipeline {
 public:
  Pipeline(std::unique_ptr<mace::net::WireClient> client,
           const mace::ts::Dataset* dataset,
           const std::vector<TenantStream>* streams,
           std::vector<TenantState>* tenants, Fault fault)
      : client_(std::move(client)),
        dataset_(dataset),
        streams_(streams),
        tenants_(tenants),
        fault_(fault),
        ring_(new std::atomic<uint64_t>[kRingSize]),
        receiver_([this] { Receive(); }) {}
  ~Pipeline() { Stop(); }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Sends step `tenants[k].sent` of tenant k.
  void Send(int k) {
    TenantState& tenant = (*tenants_)[static_cast<size_t>(k)];
    const TenantStream& stream = (*streams_)[static_cast<size_t>(k)];
    const uint32_t step = tenant.sent++;
    mace::wire::ScoreRequest request;
    request.tenant = stream.name;
    request.service = stream.service;
    request.values = StreamRow(*dataset_, stream, step);
    const uint64_t seq = sent_.load(std::memory_order_relaxed);
    ring_[seq % kRingSize].store((static_cast<uint64_t>(k) << 32) | step,
                                 std::memory_order_release);
    sent_.store(seq + 1);
    if (receiver_waiting_.load()) WakeReceiver();
    mace::Result<uint64_t> id = [&] {
      PERFBENCH_SPAN("net.send");
      return client_->SendScore(request);
    }();
    MACE_CHECK_OK(id.status());
    MACE_CHECK(*id == seq_base_id_ + seq) << "request ids are not sequential";
  }

  /// Blocks while `max_outstanding` or more requests await responses. The
  /// receiver wakes the sender only once the count is below the mark, not
  /// on every response.
  void WaitOutstandingBelow(uint64_t max_outstanding) {
    wake_below_.store(max_outstanding);
    for (;;) {
      const uint64_t received = received_.load();
      if (sent_.load(std::memory_order_relaxed) - received < max_outstanding) {
        return;
      }
      sender_waiting_.store(true);
      if (sent_.load(std::memory_order_relaxed) - received_.load() >=
          max_outstanding) {
        received_.wait(received);
      }
      sender_waiting_.store(false);
    }
  }
  /// Keeps at most `window` requests outstanding: once the window is full,
  /// waits until it has drained to `refill_below`, so the sender wakes once
  /// per refill and writes a burst.
  void Admit(uint64_t window, uint64_t refill_below) {
    if (sent_.load(std::memory_order_relaxed) - received_.load() >= window) {
      WaitOutstandingBelow(refill_below);
    }
  }
  void Drain() { WaitOutstandingBelow(1); }

  /// Open-loop phase state; set between phases, after Drain().
  void BeginOpen(Clock::time_point t0, double period_ns, size_t slots) {
    open_t0_ = t0;
    period_ns_ = period_ns;
    latency_us_.assign(slots, -1.0f);
    for (TenantState& tenant : *tenants_) tenant.open_base = tenant.sent;
    open_.store(true);
  }
  std::vector<float> EndOpen() {
    Drain();
    open_.store(false);
    return std::move(latency_us_);
  }

  void Stop() {
    if (!receiver_.joinable()) return;
    Drain();
    stop_.store(true);
    WakeReceiver();
    receiver_.join();
  }

  uint64_t sent() const { return sent_.load(); }
  uint64_t received() const { return received_.load(); }
  uint64_t duplicates() const { return duplicates_; }  // after Stop()
  uint64_t bad_frames() const { return bad_frames_; }  // after Stop()

 private:
  void WakeReceiver() {
    wake_.fetch_add(1);
    wake_.notify_one();
  }

  void Receive() {
    uint64_t received = 0;
    for (;;) {
      if (received == sent_.load()) {
        if (stop_.load()) return;
        // Sleep until Send or Stop bumps wake_; reading it before the
        // re-check means no bump can slip in unseen.
        const uint32_t wake = wake_.load();
        receiver_waiting_.store(true);
        if (received == sent_.load() && !stop_.load()) wake_.wait(wake);
        receiver_waiting_.store(false);
        continue;
      }
      mace::Result<mace::wire::OwnedFrame> frame = [&] {
        PERFBENCH_SPAN("net.receive");
        return client_->NextResponse();
      }();
      MACE_CHECK_OK(frame.status());
      const Clock::time_point now = Clock::now();
      Account(*frame, now);
      received_.store(++received);
      if (sender_waiting_.load() &&
          sent_.load() - received < wake_below_.load()) {
        received_.notify_one();
      }
    }
  }

  void Account(const mace::wire::OwnedFrame& frame, Clock::time_point now) {
    if (frame.type != mace::wire::FrameType::kScoreResponse ||
        frame.request_id < seq_base_id_) {
      ++bad_frames_;
      return;
    }
    const uint64_t seq = frame.request_id - seq_base_id_;
    const uint64_t packed =
        ring_[seq % kRingSize].exchange(kConsumed, std::memory_order_acquire);
    if (packed == kConsumed) {
      ++duplicates_;
      return;
    }
    const auto k = static_cast<uint32_t>(packed >> 32);
    const auto step = static_cast<uint32_t>(packed);
    if (fault_ == Fault::kDropResponse && k == 1 && step == 7) return;
    TenantState& tenant = (*tenants_)[k];
    ++tenant.responses;
    mace::Result<mace::wire::ScoreResponse> response =
        mace::wire::DecodeScoreResponse(frame.payload.data(),
                                        frame.payload.size());
    if (!response.ok() || !response->ok() || response->dropped ||
        response->rejected) {
      ++tenant.errors;
      return;
    }
    if (tenant.served != nullptr && !response->scores.empty()) {
      if (response->first_step != tenant.served->size()) ++tenant.order_errors;
      tenant.served->insert(tenant.served->end(), response->scores.begin(),
                            response->scores.end());
    }
    if (open_.load(std::memory_order_relaxed) && step >= tenant.open_base) {
      const size_t index =
          static_cast<size_t>(step - tenant.open_base) * tenants_->size() + k;
      if (index < latency_us_.size()) {
        latency_us_[index] = static_cast<float>(
            1e-3 * (std::chrono::duration<double, std::nano>(now - open_t0_)
                        .count() -
                    period_ns_ * static_cast<double>(index)));
      }
    }
  }

  std::unique_ptr<mace::net::WireClient> client_;
  const mace::ts::Dataset* dataset_;
  const std::vector<TenantStream>* streams_;
  std::vector<TenantState>* tenants_;
  const Fault fault_;
  // A fresh WireClient numbers its requests 1, 2, ...
  const uint64_t seq_base_id_ = 1;
  std::unique_ptr<std::atomic<uint64_t>[]> ring_;
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> received_{0};
  std::atomic<bool> sender_waiting_{false};
  std::atomic<uint64_t> wake_below_{1};
  std::atomic<bool> receiver_waiting_{false};
  std::atomic<uint32_t> wake_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> open_{false};
  Clock::time_point open_t0_;
  double period_ns_ = 0.0;
  std::vector<float> latency_us_;
  uint64_t duplicates_ = 0;
  uint64_t bad_frames_ = 0;
  std::thread receiver_;  // last: starts after the fields it uses
};

/// Open loop over whole passes: observation i is due at t0 + i / rate.
/// Returns each observation's latency from its due time; appends how late
/// the sender ran to `late_us`.
std::vector<float> RunOpenLoop(Pipeline* pipeline, size_t rounds,
                               std::vector<double>* late_us) {
  SetFineTimerSlack();
  const double period_ns = 1e9 / kOpenRate;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  pipeline->BeginOpen(t0, period_ns, rounds * kTenants);
  RecordSpans(true);
  size_t index = 0;
  for (size_t round = 0; round < rounds; ++round) {
    for (int k = 0; k < kTenants; ++k, ++index) {
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(
                   static_cast<int64_t>(period_ns * static_cast<double>(index)));
      SleepUntil(due);
      late_us->push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      pipeline->Send(k);
    }
  }
  std::vector<float> latency_us = pipeline->EndOpen();
  RecordSpans(false);
  return latency_us;
}

std::unique_ptr<mace::net::WireClient> Connect(uint16_t port) {
  mace::Result<std::unique_ptr<mace::net::WireClient>> client =
      mace::net::WireClient::Connect("127.0.0.1", port);
  MACE_CHECK_OK(client.status());
  return std::move(client).value();
}

}  // namespace

void RunWireRouter(const Options& options, Outcome* outcome) {
  RequireFault(options,
               {Fault::kDropResponse, Fault::kSwapTenants, Fault::kScoreBit});
  const mace::ts::Dataset dataset =
      MakeSmdDataset(options.seed, kServices, kTrainLength, kTestLength);
  const std::shared_ptr<mace::core::MaceDetector> detector =
      FitServedModel(dataset);
  const int window = detector->window();
  const std::vector<TenantStream> streams =
      MakeTenantStreams(dataset, kTenants, kWarmup, window, options.seed);

  // Every process scores with the same saved model.
  const std::string model_path =
      options.work_dir + "/wire-router-" + std::to_string(getpid()) + ".mace";
  MACE_CHECK_OK(detector->Save(model_path));
  uint16_t backend_port = 0;
  std::unique_ptr<mace::net::Subprocess> backend = SpawnListening(
      {PERFBENCH_BACKEND_BIN, "--model", model_path, "--shards",
       std::to_string(kBackendShards), "--queue",
       std::to_string(kBackendQueue), "--policy", "block"},
      &backend_port);
  std::remove(model_path.c_str());
  uint16_t router_port = 0;
  std::unique_ptr<mace::net::Subprocess> router = SpawnListening(
      {PERFBENCH_ROUTER_BIN, "--backends",
       "127.0.0.1:" + std::to_string(backend_port)},
      &router_port);
  std::unique_ptr<mace::net::WireClient> backend_stats = Connect(backend_port);

  std::vector<TenantState> tenants(static_cast<size_t>(kTenants));
  std::vector<std::vector<double>> served(
      static_cast<size_t>(kTenants / kSampleEvery));
  for (size_t i = 0; i < served.size(); ++i) {
    tenants[i * kSampleEvery].served = &served[i];
  }
  std::vector<double> late_us;
  std::vector<float> latency_us;
  std::vector<float> direct_latency_us;
  const double closed_seconds = kClosedShare * options.seconds;
  const double open_seconds = options.seconds - closed_seconds;
  const auto open_rounds = static_cast<size_t>(
      std::ceil(kOpenRate * open_seconds / static_cast<double>(kTenants)));
  uint64_t closed_obs = 0;
  double obs_per_s = 0.0;
  ProcessUsage router0;
  ProcessUsage router1;
  ProcessUsage backend0;
  ProcessUsage backend1;
  BackendWait wait0;
  BackendWait wait1;
  uint64_t duplicates = 0;
  uint64_t bad_frames = 0;
  {
    Pipeline pipeline(Connect(router_port), &dataset, &streams, &tenants,
                      options.fault);
    // Warm-up: open every session and fill its window; the stagger makes
    // tenants fall due in different passes.
    size_t warmup_steps = 0;
    for (const TenantStream& stream : streams) {
      warmup_steps = std::max(warmup_steps, stream.warmup);
    }
    for (size_t step = 0; step < warmup_steps; ++step) {
      for (int k = 0; k < kTenants; ++k) {
        if (streams[static_cast<size_t>(k)].warmup <= step) continue;
        pipeline.Admit(kInflightWindow, kRefillBelow);
        pipeline.Send(k);
      }
    }
    pipeline.Drain();
    outcome->Metric("setup_s", SecondsSince(ProcessStart()), "s");

    // Closed loop: whole passes, at most kInflightWindow outstanding; the
    // rate is every response of the phase over the phase's time.
    router0 = ReadUsage(router->pid());
    backend0 = ReadUsage(backend->pid());
    const Clock::time_point closed_begin = Clock::now();
    const Clock::time_point closed_end =
        closed_begin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(closed_seconds));
    do {
      for (int k = 0; k < kTenants; ++k) {
        pipeline.Admit(kInflightWindow, kRefillBelow);
        pipeline.Send(k);
      }
      closed_obs += kTenants;
    } while (Clock::now() < closed_end);
    pipeline.Drain();
    obs_per_s = static_cast<double>(closed_obs) / SecondsSince(closed_begin);
    router1 = ReadUsage(router->pid());
    backend1 = ReadUsage(backend->pid());

    wait0 = ReadBackendWait(backend_stats.get());
    latency_us = RunOpenLoop(&pipeline, open_rounds, &late_us);
    wait1 = ReadBackendWait(backend_stats.get());
    pipeline.Stop();
    duplicates += pipeline.duplicates();
    bad_frames += pipeline.bad_frames();
  }
#ifdef PERFBENCH_TRACED
  {
    // The same open loop straight to the backend: what the router hop adds.
    Pipeline direct(Connect(backend_port), &dataset, &streams, &tenants,
                    Fault::kNone);
    std::vector<double> direct_late;
    direct_latency_us = RunOpenLoop(&direct, open_rounds, &direct_late);
    direct.Stop();
    duplicates += direct.duplicates();
    bad_frames += direct.bad_frames();
  }
#endif
  // The program's footprint: the router's and the backend's peaks.
  const double peak_rss_kib =
      PeakResidentKiB(router->pid()) + PeakResidentKiB(backend->pid());
  backend_stats.reset();
  router->KillAndReap();
  backend->KillAndReap();

  const double obs = static_cast<double>(closed_obs);
  outcome->Metric("throughput_per_s", obs_per_s, "1/s");
  const std::vector<double> latencies(latency_us.begin(), latency_us.end());
  outcome->Metric("latency_p50_us", Median(latencies), "us");
  outcome->Metric("peak_rss_mib", peak_rss_kib / 1024.0, "MiB");

  // ---- Output checks ---------------------------------------------------
  uint64_t sent = 0;
  uint64_t lost = 0;
  uint64_t errors = 0;
  uint64_t order_errors = 0;
  for (const TenantState& tenant : tenants) {
    sent += tenant.sent;
    lost += tenant.sent - tenant.responses;
    errors += tenant.errors;
    order_errors += tenant.order_errors;
  }
  const auto missing_latencies = static_cast<uint64_t>(
      std::count(latency_us.begin(), latency_us.end(), -1.0f) +
      std::count(direct_latency_us.begin(), direct_latency_us.end(), -1.0f));
  outcome->Attempt(sent, errors);
  outcome->Check(lost == 0 && duplicates == 0 && bad_frames == 0 &&
                     order_errors == 0 && missing_latencies == 0,
                 "every request gets exactly one response (" +
                     std::to_string(lost) + " lost, " +
                     std::to_string(duplicates) + " duplicated)");
  outcome->Check(errors == 0,
                 "no request shed, rejected or failed under kBlock");
  if (options.fault == Fault::kScoreBit) FlipLowBit(&served[0][100]);
  if (options.fault == Fault::kSwapTenants) std::swap(served[0], served[1]);
  for (size_t i = 0; i < served.size(); ++i) {
    const size_t k = i * kSampleEvery;
    const long compared = CompareWithBatch(*detector, dataset, streams[k],
                                           tenants[k].sent, served[i]);
    outcome->Check(compared > 0, "scores of " + streams[k].name +
                                     " through router and socket equal "
                                     "in-process batch Score bitwise");
  }

  // ---- Layers -----------------------------------------------------------
  outcome->Layer("router.cpu_us_per_obs",
                 1e6 * (router1.cpu_seconds - router0.cpu_seconds) / obs, "us");
  outcome->Layer("backend.cpu_us_per_obs",
                 1e6 * (backend1.cpu_seconds - backend0.cpu_seconds) / obs,
                 "us");
  outcome->Layer("router.ctx_switches_per_obs",
                 (router1.context_switches - router0.context_switches) / obs,
                 "count");
  outcome->Layer("backend.ctx_switches_per_obs",
                 (backend1.context_switches - backend0.context_switches) / obs,
                 "count");
  outcome->Layer("backend.queue_wait_us",
                 (wait1.mean_us * wait1.scored - wait0.mean_us * wait0.scored) /
                     (wait1.scored - wait0.scored),
                 "us");
  outcome->Layer("net.latency_p99_us", Quantile(latencies, 0.99), "us");
  outcome->Layer("net.latency_samples", static_cast<double>(latencies.size()),
                 "count");
  outcome->Layer("loadgen.late_p99_us", Quantile(late_us, 0.99), "us");
  outcome->Layer("loadgen.late_samples", static_cast<double>(late_us.size()),
                 "count");
#ifdef PERFBENCH_TRACED
  const std::vector<double> direct(direct_latency_us.begin(),
                                   direct_latency_us.end());
  outcome->Layer("router.hop_us", Median(latencies) - Median(direct), "us");
#endif
}

}  // namespace perfbench
