#include "core/conformal.h"

#include "util/check.h"

namespace osap::core {

StreamingConformal::StreamingConformal(double miscoverage,
                                       std::size_t window,
                                       double initial_alpha)
    : sketch_(1.0 - miscoverage, window),
      miscoverage_(miscoverage),
      alpha_(initial_alpha) {
  OSAP_REQUIRE(miscoverage > 0.0 && miscoverage < 1.0,
               "StreamingConformal: miscoverage must be in (0, 1)");
}

void StreamingConformal::Observe(double statistic) {
  ++observations_;
  if (statistic > alpha_) ++exceedances_;
  sketch_.Add(statistic);
}

double StreamingConformal::RefreshAlpha() {
  if (sketch_.Count() > 0) alpha_ = sketch_.Value();
  return alpha_;
}

}  // namespace osap::core
