// A counting global operator new, linked into the traced binary only.
// Each thread counts into its own padded slot, so counting adds no
// cross-thread cache traffic to the allocation path.

#include "trace/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::trace {
namespace {

constexpr int kSlots = 256;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;
thread_local uint64_t t_count = 0;

void CountOne() {
  if (t_slot < 0) {
    // Threads past the last slot share it; that slot takes atomic adds.
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (t_slot >= kSlots) t_slot = kSlots - 1;
  }
  ++t_count;
  if (t_slot == kSlots - 1) {
    g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::atomic<uint64_t>& cell = g_slots[t_slot].count;
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  CountOne();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

uint64_t Allocations() {
  uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ThreadAllocations() { return t_count; }

}  // namespace perfbench::trace

void* operator new(std::size_t size) {
  return perfbench::trace::Allocate(size);
}
void* operator new[](std::size_t size) {
  return perfbench::trace::Allocate(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::trace::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::trace::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
