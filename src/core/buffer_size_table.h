#ifndef VODB_CORE_BUFFER_SIZE_TABLE_H_
#define VODB_CORE_BUFFER_SIZE_TABLE_H_

#include <cstddef>
#include <functional>
#include <new>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/params.h"

namespace vod::core {

namespace table_internal {

/// Bytes in a cache line, the unit in which cores share memory.
inline constexpr std::size_t kLineBytes = 64;

/// Hands out whole, line-aligned cache lines, so no other object shares a
/// line with the block.
template <typename T>
struct LineAllocator {
  using value_type = T;

  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(Bytes(n), std::align_val_t{kLineBytes}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, Bytes(n), std::align_val_t{kLineBytes});
  }
  static std::size_t Bytes(std::size_t n) {
    return (n * sizeof(T) + kLineBytes - 1) / kLineBytes * kLineBytes;
  }

  friend bool operator==(const LineAllocator&, const LineAllocator&) {
    return true;
  }
};

}  // namespace table_internal

/// Precomputed table of BS_k(n) for all 1 <= n <= N, 0 <= k <= N
/// (Sec. 3.3: "precomputing the equations for all possible values of n and
/// k ... the complexity of memory space requirement is O(N²)").
///
/// Lookups clamp k to N − n (estimating more additional requests than the
/// disk could ever admit is equivalent to estimating exactly the remaining
/// headroom: the recurrence bottoms out at the fully-loaded boundary in one
/// step either way).
///
/// Immutable once built, so one table serves every disk of a server: each
/// disk's DynamicBufferAllocator holds it by shared pointer, and the sharded
/// runner's workers read it concurrently. Every lookup reads the object and
/// its entries, so both sit on cache lines of their own: an object another
/// worker writes never shares a line with them, however the heap placed it.
class alignas(table_internal::kLineBytes) BufferSizeTable {
 public:
  /// Maps the in-service count n to the worst per-buffer disk latency DL to
  /// use in the formulas. The Sweep* method's DL is γ(Cyln/n)+θ (Table 2),
  /// so its table entries vary DL with n; Round-Robin and GSS* use a
  /// constant.
  using DlForN = std::function<Seconds(int n)>;

  /// Builds the table; fails if params are invalid. Every entry is
  /// BufferSizeKernel's, so it equals DynamicBufferSize bit for bit.
  static Result<BufferSizeTable> Build(const AllocParams& params);

  /// As above, but row n is computed with params.dl = dl_for_n(n).
  static Result<BufferSizeTable> Build(const AllocParams& params,
                                       const DlForN& dl_for_n);

  /// BS_k(n). O(1). n must be in [1, N]; k >= 0 (clamped as above).
  Result<Bits> Get(int n, int k) const;

  /// Unchecked lookup for hot paths; preconditions as Get().
  Bits GetUnchecked(int n, int k) const;

  const AllocParams& params() const { return params_; }
  /// The DL row n was computed with; n in [1, N]. With params() it
  /// determines every entry.
  Seconds dl(int n) const { return dl_[static_cast<std::size_t>(n - 1)]; }
  int n_max() const { return params_.n_max; }
  /// Total table footprint in entries (for the O(N²) claim in benches).
  std::size_t entry_count() const { return table_.size(); }

 private:
  /// Sized for params.n_max, every entry zero.
  explicit BufferSizeTable(AllocParams params);

  std::size_t Index(int n, int k) const;

  AllocParams params_;
  // (N) rows of (N+1) k-entries.
  std::vector<Bits, table_internal::LineAllocator<Bits>> table_;
  std::vector<Seconds> dl_;  // Row n's DL at n − 1.
};

}  // namespace vod::core

#endif  // VODB_CORE_BUFFER_SIZE_TABLE_H_
