#include "trace/spans.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"

namespace perfbench::trace {
namespace {

constexpr int kMaxSlots = 64;
constexpr size_t kMaxEventsPerThread = 20000;

struct Event {
  int slot;
  int64_t start_ns;
  int64_t duration_ns;
  uint64_t id;
  uint64_t parent;
};

/// Per-thread span state. Totals are written by the owning thread only
/// (relaxed load + store) and read by whoever asks for Totals().
struct ThreadState {
  struct Frame {
    int slot;
    int64_t start_ns;
    int64_t child_ns;
    uint64_t id;
  };
  long tid = 0;
  uint64_t next_id = 0;  // span ids: thread number in the top 24 bits
  std::vector<Frame> stack;
  std::atomic<uint64_t> count[kMaxSlots] = {};
  std::atomic<int64_t> total_ns[kMaxSlots] = {};
  std::atomic<int64_t> self_ns[kMaxSlots] = {};
  std::mutex events_mu;
  std::vector<Event> events;  // guarded by events_mu
};

std::mutex g_mu;
std::vector<const char*> g_names;                    // guarded by g_mu
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_mu
std::atomic<bool> g_recording{false};
thread_local ThreadState* t_state = nullptr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              ProcessStart())
      .count();
}

ThreadState* State() {
  if (t_state == nullptr) {
    auto state = std::make_unique<ThreadState>();
    state->tid = static_cast<long>(syscall(SYS_gettid));
    state->stack.reserve(16);
    t_state = state.get();
    std::lock_guard<std::mutex> lock(g_mu);
    state->next_id = static_cast<uint64_t>(g_threads.size() + 1) << 40;
    g_threads.push_back(std::move(state));
  }
  return t_state;
}

void AddRelaxed(std::atomic<int64_t>* cell, int64_t delta) {
  cell->store(cell->load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
}

}  // namespace

int SlotFor(const char* name) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t i = 0; i < g_names.size(); ++i) {
    if (std::strcmp(g_names[i], name) == 0) return static_cast<int>(i);
  }
  if (g_names.size() >= kMaxSlots) {
    std::fprintf(stderr, "too many span names (max %d)\n", kMaxSlots);
    std::abort();
  }
  g_names.push_back(name);
  return static_cast<int>(g_names.size() - 1);
}

Span::Span(int slot) {
  ThreadState* state = State();
  // Ids are unique without a shared counter, whose cache line every
  // thread's spans would otherwise contend for.
  state->stack.push_back({slot, NowNs(), 0, ++state->next_id});
}

Span::~Span() {
  ThreadState* state = t_state;
  const ThreadState::Frame frame = state->stack.back();
  state->stack.pop_back();
  const int64_t duration = NowNs() - frame.start_ns;
  uint64_t parent = 0;
  if (!state->stack.empty()) {
    state->stack.back().child_ns += duration;
    parent = state->stack.back().id;
  }
  const int slot = frame.slot;
  state->count[slot].store(
      state->count[slot].load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  AddRelaxed(&state->total_ns[slot], duration);
  AddRelaxed(&state->self_ns[slot], duration - frame.child_ns);
  if (g_recording.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(state->events_mu);
    if (state->events.size() < kMaxEventsPerThread) {
      state->events.push_back(
          {slot, frame.start_ns, duration, frame.id, parent});
    }
  }
}

SpanTotals Totals(const char* name) {
  const int slot = SlotFor(name);
  SpanTotals totals;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& state : g_threads) {
    totals.count += state->count[slot].load(std::memory_order_relaxed);
    totals.total_s +=
        1e-9 * static_cast<double>(
                   state->total_ns[slot].load(std::memory_order_relaxed));
    totals.self_s +=
        1e-9 * static_cast<double>(
                   state->self_ns[slot].load(std::memory_order_relaxed));
  }
  return totals;
}

void SetRecording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}

bool WriteChromeTrace(const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  bool first = true;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& state : g_threads) {
    std::lock_guard<std::mutex> events_lock(state->events_mu);
    for (const Event& event : state->events) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %ld, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                   first ? "" : ",\n", g_names[static_cast<size_t>(event.slot)],
                   state->tid, 1e-3 * static_cast<double>(event.start_ns),
                   1e-3 * static_cast<double>(event.duration_ns),
                   static_cast<unsigned long long>(event.id),
                   static_cast<unsigned long long>(event.parent));
      first = false;
    }
  }
  std::fputs("\n]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
