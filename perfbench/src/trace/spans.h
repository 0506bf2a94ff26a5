#ifndef PERFBENCH_TRACE_SPANS_H_
#define PERFBENCH_TRACE_SPANS_H_

#include <cstdint>
#include <string>

namespace perfbench::trace {

/// Registers a span name (a string literal) and returns its slot. Call
/// sites cache the slot in a static (see PERFBENCH_SPAN in probe.h).
int SlotFor(const char* name);

/// \brief RAII span on the calling thread, nested under the innermost
/// span still open on that thread. Its duration and self time (duration
/// minus the time its child spans cover) add to per-name totals; while
/// recording is on, the span is also kept (up to a per-thread cap) for
/// the Chrome-trace file.
class Span {
 public:
  explicit Span(int slot);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  SpanTotals operator-(const SpanTotals& earlier) const {
    return {count - earlier.count, total_s - earlier.total_s,
            self_s - earlier.self_s};
  }
};
/// Totals of every closed span called `name`, summed over all threads.
SpanTotals Totals(const char* name);

/// Starts or stops keeping individual spans for the trace file.
void SetRecording(bool on);
/// Writes the kept spans as Chrome trace-viewer JSON ("X" events whose
/// args carry the span id and its parent's id). Returns false on I/O error.
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_SPANS_H_
