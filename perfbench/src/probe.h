#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

// Trace probes in the workload code. The measured binary compiles them to
// nothing; the traced binary (PERFBENCH_TRACED) records a span per call.
//
//   PERFBENCH_SPAN("serve.submit");  // spans the rest of the scope
//   perfbench::RecordSpans(true);    // keep spans for the trace file

#ifdef PERFBENCH_TRACED
#include "trace/spans.h"
#define PERFBENCH_CONCAT_INNER(a, b) a##b
#define PERFBENCH_CONCAT(a, b) PERFBENCH_CONCAT_INNER(a, b)
#define PERFBENCH_SPAN(name)                                              \
  static const int PERFBENCH_CONCAT(perfbench_slot_, __LINE__) =         \
      ::perfbench::trace::SlotFor(name);                                  \
  ::perfbench::trace::Span PERFBENCH_CONCAT(perfbench_span_, __LINE__)(  \
      PERFBENCH_CONCAT(perfbench_slot_, __LINE__))
#else
#define PERFBENCH_SPAN(name) static_cast<void>(0)
#endif

namespace perfbench {
#ifdef PERFBENCH_TRACED
inline void RecordSpans(bool on) { trace::SetRecording(on); }
#else
inline void RecordSpans(bool) {}
#endif
}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
