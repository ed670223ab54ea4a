#ifndef VODB_CORE_CLOSED_FORM_H_
#define VODB_CORE_CLOSED_FORM_H_

#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/params.h"

namespace vod::core {

/// Theorem 1's expansion-step count:
///
///   e = ⌈ ( α/2 − k + √( k² + α·(2·(N−n) − k) + α²/4 ) ) / α ⌉
///
/// the smallest i such that n + i·k + (i−1)·i·α/2 >= N. Defined for
/// 1 <= n < N, k >= 0.
Result<int> ExpansionSteps(const AllocParams& params, int n, int k);

/// Theorem 1 (Eq. 6): the minimum buffer size the dynamic allocation scheme
/// gives a request when n requests are in service and k additional requests
/// are estimated.
///
/// For n = N this is the fully-loaded size of Eq. (11) — identical to the
/// static scheme's BS(N). For n < N it is the closed-form solution of the
/// recurrence (Eq. 10); see core/recurrence.h for the oracle it is verified
/// against.
Result<Bits> DynamicBufferSize(const AllocParams& params, int n, int k);

/// The powers c^i = (CR/TR)^i that Theorem 1 multiplies by, each computed
/// once with std::pow(c, i): one instance serves every (n, k, DL) of one
/// (TR, CR), so Sec. 3.3's table fill pays each power once, not once per
/// entry, and reads the same doubles a single evaluation computes.
class PowersOfC {
 public:
  explicit PowersOfC(const AllocParams& params)
      : c_(params.cr / params.tr) {}

  /// c^0 .. c^e, computing the ones not yet asked for.
  const double* UpTo(int e);

 private:
  double c_;
  std::vector<double> pow_;  ///< pow_[i] = std::pow(c_, i).
};

/// Theorem 1's closed form without the checks: the one evaluation behind
/// DynamicBufferSize and BufferSizeTable::Build (and, through the table,
/// the memory broker's price table). Requires valid `params` with the CR
/// and TR `powers` was made from, 1 <= n <= N and k >= 0. Returns exactly
/// DynamicBufferSize(params, n, k).
Bits BufferSizeKernel(const AllocParams& params, int n, int k,
                      PowersOfC* powers);

/// The usage period of a buffer of size BS: T = BS / CR (Eq. 8 with
/// equality — minimal buffers hold exactly one usage period of data).
inline Seconds UsagePeriod(const AllocParams& params, Bits bs) {
  return bs / params.cr;
}

}  // namespace vod::core

#endif  // VODB_CORE_CLOSED_FORM_H_
