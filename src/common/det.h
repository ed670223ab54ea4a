#ifndef VODB_COMMON_DET_H_
#define VODB_COMMON_DET_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <vector>

#include "common/check.h"

/// Determinism helpers for output channels (CSV, JSON, traces, golden
/// metrics). The repo's bit-reproducibility guarantee — identical bytes at
/// any thread count — dies the moment an output iterates a hash container
/// in bucket order. Two defenses:
///
///   * `SortedKeys` / `SortedItemPtrs` turn any associative container into
///     a key-sorted sequence before emission (the only sanctioned way to
///     iterate an unordered container into an output channel; the
///     `unordered-iteration` rule in scripts/vodb_lint.py flags everything
///     else).
///   * `AuditOrderedOutput` is the runtime half: output sites assert, under
///     VODB_AUDIT (default ON), that the key sequence they are about to
///     emit is strictly increasing — catching both unordered iteration and
///     ambiguous duplicate keys even when the container type changes later.

namespace vod::det {

/// The container's keys, sorted ascending. One copy + one sort — meant for
/// output paths, not hot loops.
template <class Map>
std::vector<typename Map::key_type> SortedKeys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  for (const auto& kv : m) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Pointers to the container's entries, sorted by key ascending. Values
/// are not copied (works for move-only mapped types like unique_ptr).
template <class Map>
std::vector<const typename Map::value_type*> SortedItemPtrs(const Map& m) {
  std::vector<const typename Map::value_type*> items;
  items.reserve(m.size());
  for (const auto& kv : m) items.push_back(&kv);
  std::sort(items.begin(), items.end(),
            [](const typename Map::value_type* a,
               const typename Map::value_type* b) {
              return a->first < b->first;
            });
  return items;
}

#if VODB_AUDIT_ENABLED
/// Aborts unless `keys` is strictly increasing under `less`. `channel`
/// names the output stream in the failure message ("metrics.json", ...).
/// Strictness matters: equal adjacent keys mean the emission order between
/// them is arbitrary, which is the same nondeterminism in disguise.
template <class Range, class Less = std::less<>>
void AuditOrderedOutput(const Range& keys, const char* channel,
                        Less less = Less()) {
  auto it = std::begin(keys);
  const auto end = std::end(keys);
  if (it == end) return;
  auto prev = it;
  for (++it; it != end; ++prev, ++it) {
    if (!less(*prev, *it)) {
      std::fprintf(stderr,
                   "determinism audit: output channel '%s' emits keys out "
                   "of (strict) order\n",
                   channel);
      VOD_CHECK(less(*prev, *it));
    }
  }
}
#else
template <class Range, class Less = std::less<>>
void AuditOrderedOutput(const Range&, const char*, Less = Less()) {}
#endif

}  // namespace vod::det

#endif  // VODB_COMMON_DET_H_
