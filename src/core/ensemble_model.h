// The shared-model half of the U_pi / U_V estimator split: packed ensemble
// weights plus the paper's trim-and-disagree scoring math, with no mutable
// state at all. One EnsembleModel is built per process and serves any
// number of concurrent sessions - the ensemble signals are memoryless, so
// the per-session "context" of these estimators is empty and a serving
// shard can pack every pending session's state into one contiguous batch
// and make a single fused pass over the member weights instead of one
// weight-streaming pass per session.
//
// Every state is scored by one path: ScorePacked's fused InferBatch pass,
// then one per-row loop (softmax and trimmed KL for U_pi, trimmed absolute
// deviation for U_V). ScoreStates only packs its states into that path, so
// a state's score is the same bits whichever entry and batch it came
// through, which is what lets the sharded decision service reproduce the
// sequential SafeAgent loop exactly (pinned by equivalence tests). Every
// entry point is const and thread-safe: a pass writes only the caller's
// Scratch (one per estimator instance or serving submitter group).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mdp/types.h"
#include "nn/ensemble_forward.h"
#include "util/arena.h"

namespace osap::core {

/// The most rows one pass sees (ScoreStates, DecisionService's tiles), so
/// its activations stay in cache and its scratch is bounded (DESIGN.md §9;
/// picked from a 16/32/64/128 sweep, EXPERIMENTS.md "One row tile").
inline constexpr std::size_t kRowTile = 64;

class EnsembleModel {
 public:
  enum class Kind {
    kPolicyKl,        // U_pi: trimmed KL disagreement over action softmaxes
    kValueDeviation,  // U_V: trimmed absolute deviation over scalar values
  };

  /// The buffers a pass writes, owned by its caller; a pass over B rows
  /// grows them to B rows once.
  struct Scratch {
    nn::InferScratch infer;
    nn::Matrix probs;   // K x OutputSize softmax rows (U_pi)
    nn::Matrix packed;  // ScoreStates' tile of packed states
    util::Arena trim;   // one row's trim arrays, rewound per row

    /// Capacity bytes of every buffer.
    std::size_t Bytes() const {
      return infer.Bytes() + trim.CapacityBytes() +
             (probs.values().capacity() + packed.values().capacity()) *
                 sizeof(double);
    }
  };

  /// Packs the members' weights (snapshot; rebuild after retraining). All
  /// members must share one topology; `discard` must leave >= 1 member.
  EnsembleModel(Kind kind, std::vector<const nn::CompositeNet*> members,
                std::size_t discard);

  /// Packs `states` (each at least InputSize wide) into ScorePacked
  /// kRowTile rows at a time; out[i] is states[i]'s score. The estimators'
  /// entry: Score is a one-state call, ScoreBatch a session's states.
  void ScoreStates(std::span<const mdp::State> states, std::span<double> out,
                   Scratch& scratch) const;

  /// Scores B pre-packed state rows (B x InputSize; wider rows use the
  /// leading InputSize columns) with ONE fused InferBatch pass over the
  /// whole pack - on the serving path B is one tile of a shard's live
  /// requests. out[b] depends on row b alone: every row takes the
  /// single-state kernels and the same scoring loop.
  ///
  /// kPolicyKl only: a non-empty `greedy_first` (>= B) additionally
  /// receives member 0's greedy action per row - softmax the logits, take
  /// the first maximal probability, exactly the deployed-policy selection.
  /// The member-0 distributions are already computed for the KL score, so
  /// a U_pi serving shard gets its deployed-actor actions for free instead
  /// of paying a second inference pass over the same weights.
  ///
  /// A row whose member outputs are not all finite (an extreme but finite
  /// state can overflow them) scores +inf, with greedy action 0: the
  /// trigger then fails closed on it, and nothing throws.
  void ScorePacked(const nn::Matrix& states, std::span<double> out,
                   std::span<mdp::Action> greedy_first,
                   Scratch& scratch) const;
  /// One-off form for tests and tools: allocates its own scratch.
  void ScorePacked(const nn::Matrix& states, std::span<double> out,
                   std::span<mdp::Action> greedy_first = {}) const {
    Scratch scratch;
    ScorePacked(states, out, greedy_first, scratch);
  }

  Kind kind() const { return kind_; }
  std::size_t MemberCount() const { return batched_.MemberCount(); }
  std::size_t InputSize() const { return batched_.InputSize(); }
  std::size_t OutputSize() const { return batched_.OutputSize(); }
  std::size_t Keep() const { return keep_; }

 private:
  nn::BatchedEnsemble batched_;
  Kind kind_;
  std::size_t keep_;
};

}  // namespace osap::core
