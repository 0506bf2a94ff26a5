#ifndef PERFBENCH_TRACE_ALLOC_COUNT_H_
#define PERFBENCH_TRACE_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench::trace {

/// Calls of the global operator new (every form except the aligned ones)
/// since process start, all threads.
uint64_t Allocations();
/// The same, made by the calling thread only.
uint64_t ThreadAllocations();

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_ALLOC_COUNT_H_
