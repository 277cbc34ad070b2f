#include "core/ensemble_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/losses.h"
#include "nn/matrix.h"
#include "util/check.h"
#include "util/kl.h"

namespace osap::core {

namespace {

/// Allocation-free SurvivingMembers over caller-provided index storage:
/// stable insertion sort by distance (same permutation as the stable_sort
/// in SurvivingMembers), then the kept indices ascending.
std::span<std::size_t> SurviveInto(std::span<const double> distances,
                                   std::size_t keep,
                                   std::span<std::size_t> order) {
  const std::size_t n = distances.size();
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t idx = order[i];
    const double d = distances[idx];
    std::size_t j = i;
    while (j > 0 && distances[order[j - 1]] > d) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = idx;
  }
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep));
  return order.first(keep);
}

/// U_pi steps 2-3 over the n softmaxed member rows sitting in s.probs:
/// distances from the full-ensemble mean, drop the farthest, sum KL from
/// the survivors' mean.
double TrimmedKlScore(EnsembleModel::Scratch& s, std::size_t n, std::size_t keep) {
  const std::size_t dim = s.probs.cols();
  s.trim.Reset();
  const std::span<double> mean = s.trim.Alloc<double>(dim);
  std::fill(mean.begin(), mean.end(), 0.0);
  for (std::size_t m = 0; m < n; ++m) {
    const double* d = s.probs.data() + m * dim;
    for (std::size_t i = 0; i < dim; ++i) mean[i] += d[i];
  }
  for (std::size_t i = 0; i < dim; ++i) {
    mean[i] /= static_cast<double>(n);
  }
  const std::span<double> distances = s.trim.Alloc<double>(n);
  for (std::size_t m = 0; m < n; ++m) {
    distances[m] = KlDivergence(s.probs.Row(m), mean);
  }
  const std::span<std::size_t> survivors =
      SurviveInto(distances, keep, s.trim.Alloc<std::size_t>(n));

  const std::span<double> kept_mean = s.trim.Alloc<double>(dim);
  std::fill(kept_mean.begin(), kept_mean.end(), 0.0);
  for (const std::size_t idx : survivors) {
    const double* d = s.probs.data() + idx * dim;
    for (std::size_t i = 0; i < dim; ++i) kept_mean[i] += d[i];
  }
  for (std::size_t i = 0; i < dim; ++i) {
    kept_mean[i] /= static_cast<double>(survivors.size());
  }
  double score = 0.0;
  for (const std::size_t idx : survivors) {
    score += KlDivergence(s.probs.Row(idx), kept_mean);
  }
  return score;
}

/// U_V trimming over member values in rows [first_row, first_row + n) of
/// an inference result: mean, drop the farthest, sum absolute deviations
/// from the survivors' mean.
double TrimmedValueScore(EnsembleModel::Scratch& s, const nn::Matrix& out,
                         std::size_t first_row, std::size_t n,
                         std::size_t keep) {
  s.trim.Reset();
  const std::span<double> values = s.trim.Alloc<double>(n);
  for (std::size_t m = 0; m < n; ++m) values[m] = out.At(first_row + m, 0);
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(n);
  const std::span<double> distances = s.trim.Alloc<double>(n);
  for (std::size_t m = 0; m < n; ++m) {
    distances[m] = std::abs(values[m] - mean);
  }
  const std::span<std::size_t> survivors =
      SurviveInto(distances, keep, s.trim.Alloc<std::size_t>(n));
  double kept_mean = 0.0;
  for (const std::size_t idx : survivors) kept_mean += values[idx];
  kept_mean /= static_cast<double>(survivors.size());
  double score = 0.0;
  for (const std::size_t idx : survivors) {
    score += std::abs(values[idx] - kept_mean);
  }
  return score;
}

}  // namespace

EnsembleModel::EnsembleModel(Kind kind,
                             std::vector<const nn::CompositeNet*> members,
                             std::size_t discard)
    : batched_(std::move(members)), kind_(kind) {
  OSAP_REQUIRE(discard < batched_.MemberCount(),
               "EnsembleModel: discard must leave >= 1 member");
  if (kind_ == Kind::kValueDeviation) {
    OSAP_REQUIRE(batched_.OutputSize() == 1,
                 "EnsembleModel: value members must output one value");
  }
  keep_ = batched_.MemberCount() - discard;
}

void EnsembleModel::ScoreStates(std::span<const mdp::State> states,
                                std::span<double> out,
                                Scratch& scratch) const {
  OSAP_REQUIRE(out.size() >= states.size(),
               "ScoreStates: output span too short");
  nn::Matrix& packed = scratch.packed;
  const std::size_t input = InputSize();
  for (std::size_t done = 0; done < states.size(); done += kRowTile) {
    const std::size_t batch = std::min(kRowTile, states.size() - done);
    packed.ReshapeUninitialized(batch, input);
    for (std::size_t b = 0; b < batch; ++b) {
      const mdp::State& st = states[done + b];
      OSAP_REQUIRE(st.size() >= input, "ScoreStates: state too narrow");
      std::copy(st.data(), st.data() + input, packed.Row(b).data());
    }
    ScorePacked(packed, out.subspan(done, batch), {}, scratch);
  }
}

void EnsembleModel::ScorePacked(const nn::Matrix& states,
                                std::span<double> out,
                                std::span<mdp::Action> greedy_first,
                                Scratch& s) const {
  const std::size_t batch = states.rows();
  if (batch == 0) return;
  OSAP_REQUIRE(out.size() >= batch, "ScorePacked: output span too short");
  OSAP_REQUIRE(greedy_first.empty() || (kind_ == Kind::kPolicyKl &&
                                        greedy_first.size() >= batch),
               "ScorePacked: greedy_first needs kPolicyKl and >= B slots");
  const std::size_t n = MemberCount();
  // One fused pass over the whole pack: member weights stream exactly once
  // per op for the entire pack. Every InferBatch row depends on its own
  // state alone, so batch grouping is invisible in the scores.
  const nn::Matrix& result = batched_.InferBatch(states, s.infer);
  for (std::size_t b = 0; b < batch; ++b) {
    const double* first = result.Row(b * n).data();
    if (!std::all_of(first, first + n * result.cols(),
                     [](double v) { return std::isfinite(v); })) {
      out[b] = std::numeric_limits<double>::infinity();
      if (!greedy_first.empty()) greedy_first[b] = 0;
    } else if (kind_ == Kind::kValueDeviation) {
      out[b] = TrimmedValueScore(s, result, b * n, n, keep_);
    } else {
      // U_pi: per-member action distributions from the fused logits, then
      // trim the farthest members and sum KL from the survivors' mean. All
      // short-lived arrays come from the trim arena (pointer bumps after
      // the first row); the accumulation order matches MeanDistribution
      // (member-major sums, then one divide).
      s.probs.ReshapeUninitialized(n, result.cols());
      for (std::size_t m = 0; m < n; ++m) {
        nn::SoftmaxInto(result.Row(b * n + m), s.probs.Row(m));
      }
      if (!greedy_first.empty()) {
        // First maximal probability of member 0's freshly softmaxed row -
        // the exact greedy selection the deployed policy runs on the same
        // bits (see ServingModel::GreedyActions for why the softmax is not
        // skipped).
        const std::span<const double> p0 = s.probs.Row(0);
        greedy_first[b] = static_cast<mdp::Action>(
            std::distance(p0.begin(), std::max_element(p0.begin(), p0.end())));
      }
      out[b] = TrimmedKlScore(s, n, keep_);
    }
  }
}

}  // namespace osap::core
