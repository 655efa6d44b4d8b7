// A counting global operator new / delete: the bytes a region of code
// leaves live on the heap.
//
// Include this header in exactly one translation unit of a binary; it
// replaces the global allocation functions for that whole binary. Only the
// single-object forms are replaced (the sized deletes because -Wextra asks
// for them): the standard's default array and nothrow forms call these.
// Each block carries its requested size in a header just before the
// pointer, so a free subtracts exactly what its allocation added. Counters
// are process-wide relaxed atomics: a snapshot taken while other threads
// allocate includes their blocks.
//
//   const std::int64_t before = apks::heap_count::live_bytes();
//   auto kept = build();
//   const std::int64_t held = apks::heap_count::live_bytes() - before;
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

namespace apks::heap_count {

inline std::atomic<std::int64_t> g_live_bytes{0};

// Bytes currently allocated through operator new (requested sizes).
[[nodiscard]] inline std::int64_t live_bytes() noexcept {
  return g_live_bytes.load(std::memory_order_relaxed);
}

namespace detail {

// The size header sits in the last word of an offset that keeps the
// returned pointer aligned as requested.
inline std::size_t offset(std::size_t align) noexcept {
  return std::max(align, alignof(std::max_align_t));
}

inline void* allocate(std::size_t n, std::size_t align) {
  const std::size_t off = offset(align);
  void* base = align > alignof(std::max_align_t)
                   ? std::aligned_alloc(align, (off + n + align - 1) / align *
                                                   align)
                   : std::malloc(off + n);
  if (base == nullptr) throw std::bad_alloc();
  char* p = static_cast<char*>(base) + off;
  std::memcpy(p - sizeof(std::size_t), &n, sizeof(std::size_t));
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  return p;
}

inline void release(void* ptr, std::size_t align) noexcept {
  if (ptr == nullptr) return;
  char* p = static_cast<char*>(ptr);
  std::size_t n = 0;
  std::memcpy(&n, p - sizeof(std::size_t), sizeof(std::size_t));
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  std::free(p - offset(align));
}

}  // namespace detail
}  // namespace apks::heap_count

void* operator new(std::size_t n) {
  return apks::heap_count::detail::allocate(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return apks::heap_count::detail::allocate(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept {
  apks::heap_count::detail::release(p, alignof(std::max_align_t));
}
void operator delete(void* p, std::align_val_t al) noexcept {
  apks::heap_count::detail::release(p, static_cast<std::size_t>(al));
}
void operator delete(void* p, std::size_t) noexcept {
  apks::heap_count::detail::release(p, alignof(std::max_align_t));
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  apks::heap_count::detail::release(p, static_cast<std::size_t>(al));
}
