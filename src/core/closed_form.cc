#include "core/closed_form.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace vod::core {
namespace {

Status ValidateNk(const AllocParams& params, int n, int k) {
  VOD_RETURN_IF_ERROR(params.Validate());
  if (n < 1 || n > params.n_max) {
    return Status::OutOfRange("n=" + std::to_string(n) + " outside [1, N]");
  }
  if (k < 0) return Status::OutOfRange("k must be >= 0");
  return Status::OK();
}

/// f(i) = n + i·k + (i−1)·i·α/2 — the in-service count after i expansion
/// steps (the estimate grows by α each step, so counts accumulate
/// k, k+α, k+2α, ...).
double StepCount(int n, int k, int alpha, int i) {
  return static_cast<double>(n) + static_cast<double>(i) * k +
         0.5 * static_cast<double>(i - 1) * i * alpha;
}

/// ExpansionSteps past its checks: valid params, 1 <= n < N, k >= 0.
int Steps(const AllocParams& params, int n, int k) {
  const double a = static_cast<double>(params.alpha);
  const double kd = static_cast<double>(k);
  const double gap = static_cast<double>(params.n_max - n);
  const double disc = kd * kd + a * (2.0 * gap - kd) + a * a / 4.0;
  // disc = (k − α/2)² + 2·α·(N−n) − 2·α·k + ... is always positive for
  // n < N; guard against rounding anyway.
  const double root = std::sqrt(std::max(disc, 0.0));
  double e = std::ceil((a / 2.0 - kd + root) / a);
  // Guard the ceiling against floating-point ties: enforce the defining
  // property f(e) >= N > f(e-1) exactly.
  int ei = std::max(1, static_cast<int>(e));
  while (StepCount(n, k, params.alpha, ei) < params.n_max) ++ei;
  while (ei > 1 &&
         StepCount(n, k, params.alpha, ei - 1) >= params.n_max) {
    --ei;
  }
  return ei;
}

}  // namespace

Result<int> ExpansionSteps(const AllocParams& params, int n, int k) {
  VOD_RETURN_IF_ERROR(ValidateNk(params, n, k));
  if (n == params.n_max) {
    return Status::OutOfRange("e is defined for n < N only");
  }
  return Steps(params, n, k);
}

Result<Bits> DynamicBufferSize(const AllocParams& params, int n, int k) {
  VOD_RETURN_IF_ERROR(ValidateNk(params, n, k));
  PowersOfC powers(params);
  return BufferSizeKernel(params, n, k, &powers);
}

const double* PowersOfC::UpTo(int e) {
  const int have = static_cast<int>(pow_.size());
  if (e >= have) {
    pow_.resize(static_cast<std::size_t>(e) + 1);
    for (int i = have; i <= e; ++i) {
      pow_[static_cast<std::size_t>(i)] = std::pow(c_, i);
    }
  }
  return pow_.data();
}

Bits BufferSizeKernel(const AllocParams& params, int n, int k,
                      PowersOfC* powers) {
  const double big_n = static_cast<double>(params.n_max);
  if (n == params.n_max) {
    return params.dl * big_n * params.cr * params.tr /
           (params.tr - big_n * params.cr);
  }
  const int e = Steps(params, n, k);
  const double* pow_c = powers->UpTo(e);

  // Term 2: Σ_{i=0}^{e−2} c^i · Π_{j=1}^{i+1} f(j), each summand added as
  // soon as its prefix product is known. The products and sums round as
  // they would with every prefix stored first; the goldens pin these bits,
  // so the order of operations stays.
  double prefix = 1.0;
  double term2 = 0.0;
  for (int i = 1; i < e; ++i) {
    prefix *= StepCount(n, k, params.alpha, i);
    term2 += pow_c[i - 1] * prefix;
  }
  // prefix is now Π_{j=1}^{e−1} f(j).
  // Term 1: c^e · Π_{i=1}^{e−1} f(i) · N²·TR/(TR − N·CR).
  const double term1 = pow_c[e] * prefix * big_n * big_n * params.tr /
                       (params.tr - big_n * params.cr);
  // Term 3: c^{e−1} · N · Π_{j=1}^{e−1} f(j).
  const double term3 = pow_c[e - 1] * big_n * prefix;

  return params.dl * params.cr * (term1 + term2 + term3);
}

}  // namespace vod::core
