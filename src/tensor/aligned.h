// 64-byte-aligned storage for tensor and kernel-workspace buffers.
//
// Vector kernels use unaligned loads (penalty-free on aligned addresses
// for every supported ISA), but keeping every buffer cache-line-aligned
// means packed GEMM panels never straddle a line, streaming accesses hit
// whole lines, and false sharing between per-chunk partial buffers at
// 64-byte granularity is impossible by construction.

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

namespace optinter {

/// Cache-line (64-byte) alignment for all float tensor storage.
inline constexpr size_t kTensorAlignment = 64;

/// Minimal std::allocator replacement handing out 64-byte-aligned blocks
/// via the C++17 aligned operator new.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  constexpr AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(kTensorAlignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(kTensorAlignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// std::vector whose data() is always 64-byte aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose argument-less construct() default-initializes,
/// so `resize` grows a vector of trivial T without writing the new
/// elements. Every other construction (fill, copy, assign) is unchanged.
/// Only for storage that offers an explicit non-zeroing resize
/// (Tensor::ResizeForOverwrite).
template <typename T>
struct DefaultInitAlignedAllocator : AlignedAllocator<T> {
  DefaultInitAlignedAllocator() = default;
  template <typename U>
  constexpr DefaultInitAlignedAllocator(
      const DefaultInitAlignedAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// True when `p` is aligned for kTensorAlignment. Kernels debug-assert
/// this on the buffers they allocate themselves (packing panels).
inline bool IsTensorAligned(const void* p) {
  return (reinterpret_cast<size_t>(p) & (kTensorAlignment - 1)) == 0;
}

}  // namespace optinter
