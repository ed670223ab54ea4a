#include "core/buffer_size_table.h"

#include <algorithm>

#include "common/check.h"
#include "core/closed_form.h"

namespace vod::core {

BufferSizeTable::BufferSizeTable(AllocParams params)
    : params_(params),
      table_(static_cast<std::size_t>(params.n_max) *
             static_cast<std::size_t>(params.n_max + 1)),
      dl_(static_cast<std::size_t>(params.n_max)) {}

std::size_t BufferSizeTable::Index(int n, int k) const {
  // Row n-1 (n in [1, N]); column k in [0, N].
  return static_cast<std::size_t>(n - 1) *
             static_cast<std::size_t>(params_.n_max + 1) +
         static_cast<std::size_t>(k);
}

Result<BufferSizeTable> BufferSizeTable::Build(const AllocParams& params) {
  return Build(params, [&params](int) { return params.dl; });
}

Result<BufferSizeTable> BufferSizeTable::Build(const AllocParams& params,
                                               const DlForN& dl_for_n) {
  VOD_RETURN_IF_ERROR(params.Validate());
  const int n_max = params.n_max;
  BufferSizeTable t(params);
  // DL does not enter c = CR/TR, so every row reads the same powers.
  PowersOfC powers(params);
  for (int n = 1; n <= n_max; ++n) {
    AllocParams row = params;
    row.dl = dl_for_n(n);
    if (row.dl < Seconds(0)) return Status::InvalidArgument("DL(n) must be >= 0");
    t.dl_[static_cast<std::size_t>(n - 1)] = row.dl;
    // Columns past k = N − n clamp to it: compute the N − n + 1 distinct
    // entries and copy the last one into the tail.
    Bits* bs_k = &t.table_[t.Index(n, 0)];
    const int last = n_max - n;
    for (int k = 0; k <= last; ++k) {
      bs_k[k] = BufferSizeKernel(row, n, k, &powers);
    }
    std::fill(bs_k + last + 1, bs_k + n_max + 1, bs_k[last]);
  }
  return t;
}

Result<Bits> BufferSizeTable::Get(int n, int k) const {
  if (n < 1 || n > params_.n_max) {
    return Status::OutOfRange("n outside [1, N]");
  }
  if (k < 0) return Status::OutOfRange("k must be >= 0");
  return GetUnchecked(n, k);
}

Bits BufferSizeTable::GetUnchecked(int n, int k) const {
  VOD_DCHECK(n >= 1 && n <= params_.n_max && k >= 0);
  return table_[Index(n, std::min(k, params_.n_max))];
}

}  // namespace vod::core
