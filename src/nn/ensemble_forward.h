// Fused batched forward for ensembles of identically-shaped CompositeNets.
//
// The paper's U_pi / U_V estimators query all 5 ensemble members on the
// same state every decision. Running 5 separate 1xN forward chains touches
// each member's weights through separate allocations with virtual dispatch
// per layer. BatchedEnsemble instead packs the members' weights per layer
// into one contiguous buffer at construction and evaluates the whole
// ensemble with one fused pass per layer shape: member m's activation is
// row m of a K-row matrix, and each packed layer streams once through the
// stacked weight blocks. The first layer of every branch reads the shared
// input row with member-stride zero, since all members see the same state.
//
// Numerics are bit-identical to calling each member's Forward/Infer
// individually: every kernel accumulates in the same order as the layer it
// replaces. Weights are snapshotted at construction - members must not be
// retrained afterwards (rebuild the BatchedEnsemble if they are).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/sequential.h"

namespace osap::nn {

class BatchedEnsemble {
 public:
  /// Packs the K members' weights. All members must share one topology
  /// (same branches, layer kinds, and shapes); duplicates are allowed.
  explicit BatchedEnsemble(std::vector<const CompositeNet*> members);

  /// Evaluates every member on each of the B states in `states` (a
  /// B x InputSize row-major matrix; wider rows use the leading InputSize
  /// columns). Returns a (B*K) x OutputSize matrix - state b / member m's
  /// output in row b*K + m - referencing `scratch`; valid until the next
  /// call with the same scratch. A single state is a one-row matrix. Each
  /// state takes the single-state kernels on its own, so every row is
  /// bit-identical whatever B is; batching hoists each member's weight
  /// block across the B states.
  const Matrix& InferBatch(const Matrix& states, InferScratch& scratch) const;

  std::size_t MemberCount() const { return member_count_; }
  std::size_t InputSize() const { return input_size_; }
  std::size_t OutputSize() const { return output_size_; }

  /// Every packed weight block and bias block: for each Linear/Conv1D op
  /// (branches in order, then the trunk), member 0's weights and bias,
  /// then member 1's, and so on. Each block starts on a 64-byte cache
  /// line; tests pin that, because the single-state kernels' speed
  /// depends on it.
  std::vector<std::span<const double>> PackedBlocks() const;

 private:
  struct FreeCacheLines {
    void operator()(double* p) const;
  };

  struct PackedOp {
    enum class Kind { kLinear, kConv1d, kRelu, kTanh };
    Kind kind;
    std::size_t in = 0;   // features per member consumed
    std::size_t out = 0;  // features per member produced
    // Linear/Conv1D parameters, one slab of member_stride doubles per
    // member, starting on a 64-byte cache line: the member's weight block
    // (weight_size values), zero-padded to whole cache lines, then its
    // bias (bias_size values), padded likewise. Linear weights are the
    // member's in x out block; Conv1D weights are the member layer's own
    // (in_channels*kernel) x out_channels layout (one row per (ic, k)
    // tap, contiguous along output channels - the axis the vector kernels
    // run over). The padding also lets a vector kernel read a whole
    // vector at any column of the last row or of the bias without
    // leaving the slab.
    std::unique_ptr<double[], FreeCacheLines> params;
    std::size_t weight_size = 0;
    std::size_t bias_size = 0;
    std::size_t bias_offset = 0;
    std::size_t member_stride = 0;
    std::size_t in_channels = 0;
    std::size_t out_channels = 0;
    std::size_t kernel = 0;
    std::size_t input_length = 0;
    // A ReLU layer directly after a Linear/Conv1D is folded into that op
    // (clamp applied as each output is stored): one pass instead of two.
    bool fused_relu = false;

    const double* Weights(std::size_t m) const {
      return params.get() + m * member_stride;
    }
    const double* Bias(std::size_t m) const {
      return Weights(m) + bias_offset;
    }
    // Allocates one slab per member (weights[m] and biases[m] are member
    // m's values, the same size for every member) and copies them into
    // place, padding included (see params).
    void PackParams(const std::vector<std::span<const double>>& weights,
                    const std::vector<std::span<const double>>& biases);
  };

  struct PackedBranch {
    std::size_t begin = 0;
    std::size_t width = 0;
    std::size_t out_width = 0;
    std::vector<PackedOp> ops;
  };

  // Packs the same Sequential (a branch or the trunk) from every member.
  static std::vector<PackedOp> Pack(const std::vector<const Sequential*>& seqs);

  // Applies one op to activations at `x`, writing member m of state b's
  // outputs at y + m * y_stride + b * y_batch. Member stride zero on x
  // means all members share the state's input row. The member loop is
  // outermost and the batch loop inside it, so member m's weight block
  // stays hot across all B states. Every kernel tier keeps every output
  // element's accumulation chain (and thus the rounding) unchanged.
  void ApplyOp(const PackedOp& op, const double* x, std::size_t x_stride,
               std::size_t x_batch, double* y, std::size_t y_stride,
               std::size_t y_batch, std::size_t batch) const;

  // Runs a packed op chain over a batch; `x` has `x_stride` between
  // member rows and `x_batch` between states. Intermediate ops ping-pong
  // through buf_a/buf_b ((batch*K)-row matrices, state b / member m at
  // row b*K + m); the final op writes straight to `out` with `out_stride`
  // between member rows and `out_batch` between states, which lets branch
  // outputs land in their concat columns without a copy.
  void RunOps(const std::vector<PackedOp>& ops, const double* x,
              std::size_t x_stride, std::size_t x_batch, Matrix& buf_a,
              Matrix& buf_b, double* out, std::size_t out_stride,
              std::size_t out_batch, std::size_t batch) const;

  std::size_t member_count_ = 0;
  std::size_t input_size_ = 0;
  std::size_t output_size_ = 0;
  std::size_t concat_width_ = 0;
  std::vector<PackedBranch> branches_;
  std::vector<PackedOp> trunk_;
};

}  // namespace osap::nn
