#include "testing/gradcheck.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace osap::nn {

GradCheckResult CheckGradients(const std::vector<Param*>& params,
                               const std::function<double()>& loss_fn,
                               const std::function<void()>& backward_fn,
                               double epsilon) {
  OSAP_REQUIRE(epsilon > 0.0, "CheckGradients: epsilon must be > 0");
  backward_fn();
  // Snapshot analytic gradients before the finite-difference probing below
  // overwrites network caches.
  std::vector<std::vector<double>> analytic;
  analytic.reserve(params.size());
  for (const Param* p : params) analytic.push_back(p->grad.values());

  GradCheckResult result;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param& p = *params[pi];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const double saved = p.value.values()[j];
      p.value.values()[j] = saved + epsilon;
      const double loss_plus = loss_fn();
      p.value.values()[j] = saved - epsilon;
      const double loss_minus = loss_fn();
      p.value.values()[j] = saved;
      const double numeric = (loss_plus - loss_minus) / (2.0 * epsilon);
      const double a = analytic[pi][j];
      const double abs_err = std::abs(a - numeric);
      const double rel_err =
          abs_err / std::max(1e-8, std::abs(a) + std::abs(numeric));
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, rel_err);
      ++result.checked;
    }
  }
  return result;
}

}  // namespace osap::nn
