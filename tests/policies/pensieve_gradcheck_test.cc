// Gradient check of the full Pensieve composite topology (scalar dense
// branches + three Conv1D branches + trunk) under both of its heads - the
// wiring most likely to hide a backprop bug is exactly the branch
// scatter/gather, so we verify it end to end against finite differences.
#include <gtest/gtest.h>

#include "testing/gradcheck.h"
#include "nn/losses.h"
#include "policies/pensieve_net.h"

namespace osap::policies {
namespace {

PensieveNetConfig TinyConfig() {
  PensieveNetConfig cfg;
  cfg.conv_filters = 4;
  cfg.hidden = 8;
  return cfg;
}

nn::Matrix RandomStates(std::size_t rows, const abr::AbrStateLayout& layout,
                        Rng& rng) {
  nn::Matrix x(rows, layout.Size());
  for (double& v : x.values()) v = rng.Uniform(0.0, 1.0);
  return x;
}

TEST(PensieveGradCheck, ActorHeadThroughPolicyGradientLoss) {
  Rng rng(1);
  const abr::AbrStateLayout layout;
  nn::CompositeNet actor = BuildPensieveNet(layout, 6, TinyConfig(), rng);
  const nn::Matrix x = RandomStates(3, layout, rng);
  const std::vector<int> actions = {0, 5, 2};
  const std::vector<double> advantages = {1.0, -0.5, 0.25};
  auto loss_fn = [&] {
    return nn::PolicyGradientLoss(actor.Forward(x), actions, advantages,
                                  0.2)
        .loss;
  };
  auto backward_fn = [&] {
    nn::ZeroGrads(actor.Params());
    actor.Backward(nn::PolicyGradientLoss(actor.Forward(x), actions,
                                          advantages, 0.2)
                       .grad);
  };
  const auto result =
      nn::CheckGradients(actor.Params(), loss_fn, backward_fn);
  EXPECT_LT(result.max_rel_error, 1e-5);
  EXPECT_GT(result.checked, 500u);  // the whole net was checked
}

TEST(PensieveGradCheck, ValueHeadThroughMseLoss) {
  Rng rng(2);
  const abr::AbrStateLayout layout;
  nn::CompositeNet critic = BuildPensieveNet(layout, 1, TinyConfig(), rng);
  const nn::Matrix x = RandomStates(4, layout, rng);
  nn::Matrix target(4, 1);
  for (double& v : target.values()) v = rng.Uniform(-2.0, 2.0);
  auto loss_fn = [&] {
    return nn::MseLoss(critic.Forward(x), target).loss;
  };
  auto backward_fn = [&] {
    nn::ZeroGrads(critic.Params());
    critic.Backward(nn::MseLoss(critic.Forward(x), target).grad);
  };
  const auto result =
      nn::CheckGradients(critic.Params(), loss_fn, backward_fn);
  EXPECT_LT(result.max_rel_error, 1e-5);
}

}  // namespace
}  // namespace osap::policies
