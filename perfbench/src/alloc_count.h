// Process-wide allocation counter behind pjbench's replacement of the
// global operator new/delete (alloc_count.cc). Counting is off until a
// caller enables it, so the untraced measurements run on an allocator whose
// only extra cost is one relaxed load per call.
//
// The counts are the benchmark's deterministic, PMU-free work axis: at one
// engine thread the same input makes the same allocations, so a layer's
// allocation count and bytes repeat exactly from run to run.

#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocSnapshot {
  int64_t allocs = 0;  // operator new calls
  int64_t bytes = 0;   // bytes requested from operator new

  AllocSnapshot operator-(const AllocSnapshot& other) const {
    return {allocs - other.allocs, bytes - other.bytes};
  }
};

// Turns counting on or off for the whole process.
void SetAllocCounting(bool enabled);

// The running totals since the process started counting.
AllocSnapshot ReadAllocCounts();

// Live-heap tracking while counting is on: operator new adds the block's
// usable size, operator delete subtracts it. ResetHeapPeak starts a new
// window; PeakHeapGrowth is the largest net growth of the live heap since
// then, in bytes. At one thread it repeats exactly for the same work.
void ResetHeapPeak();
int64_t PeakHeapGrowth();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
