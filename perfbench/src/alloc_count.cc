// Replacement global operator new/delete that count calls and requested
// bytes. Linked into pjbench only; the library and the CLI keep the
// default allocator.

#include "alloc_count.h"

#include <atomic>
#include <malloc.h>

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_bytes{0};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
std::atomic<int64_t> g_window_base{0};

void Count(void* p, std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  const int64_t live =
      g_live.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed) +
      static_cast<int64_t>(malloc_usable_size(p));
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* Allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  Count(p, size);
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  Count(p, size);
  return p;
}

void Release(void* p) {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void SetAllocCounting(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}

AllocSnapshot ReadAllocCounts() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

void ResetHeapPeak() {
  const int64_t live = g_live.load(std::memory_order_relaxed);
  g_window_base.store(live, std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
}

int64_t PeakHeapGrowth() {
  return g_peak.load(std::memory_order_relaxed) -
         g_window_base.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { perfbench::Release(p); }
void operator delete[](void* p) noexcept { perfbench::Release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::Release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::Release(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::Release(p);
}
