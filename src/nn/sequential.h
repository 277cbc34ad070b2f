// Layer containers: Sequential (a plain layer stack / MLP) and the generic
// branched CompositeNet used to express the Pensieve actor/critic topology
// (per-input-group branches whose outputs are concatenated into a trunk).
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace osap::nn {

/// Reusable buffers for the cache-free inference path. Keeping one of these
/// per call site (typically thread_local) makes repeated single-row
/// inference allocation-free after warm-up.
struct InferScratch {
  Matrix a;       // ping-pong activation buffer
  Matrix b;       // ping-pong activation buffer
  Matrix slice;   // branch input column slice
  Matrix concat;  // concatenated branch outputs feeding the trunk

  /// Capacity bytes of the four buffers.
  std::size_t Bytes() const {
    return (a.values().capacity() + b.values().capacity() +
            slice.values().capacity() + concat.values().capacity()) *
           sizeof(double);
  }
};

/// A stack of layers applied in order. Owns its layers.
class Sequential {
 public:
  Sequential() = default;

  /// Appends a layer; its InputSize must match the current OutputSize.
  void Add(std::unique_ptr<Layer> layer);

  /// Convenience: appends Linear(in,out) followed by ReLU.
  void AddLinearReLU(std::size_t in, std::size_t out, Rng& rng);

  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);

  /// Move-aware variants: interior activations are handed layer to layer by
  /// move, so layers that cache or rewrite their input avoid a copy each.
  /// Numerics are bit-identical to the const& overloads.
  Matrix Forward(Matrix&& x);
  Matrix Backward(Matrix&& dy);

  /// Cache-free forward: runs every layer's InferBatch, ping-ponging
  /// between the two scratch buffers, and returns a reference to whichever
  /// holds the final output. Const and thread-safe on a shared net (each
  /// caller supplies its own buffers); numerics match Forward bit for bit.
  /// `x` must not alias either buffer.
  const Matrix& Infer(const Matrix& x, Matrix& buf_a, Matrix& buf_b) const;

  /// All trainable parameters in layer order.
  std::vector<Param*> Params();

  std::size_t InputSize() const;
  std::size_t OutputSize() const;
  bool empty() const { return layers_.empty(); }
  std::size_t LayerCount() const { return layers_.size(); }
  const Layer& LayerAt(std::size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds an MLP: Linear+ReLU for each hidden width, then a final Linear to
/// `out` (no output activation; heads apply softmax / identity themselves).
Sequential MakeMlp(std::size_t in, const std::vector<std::size_t>& hidden,
                   std::size_t out, Rng& rng);

/// A branched network: the input row is split into column ranges, each fed
/// through its own Sequential branch; branch outputs are concatenated and
/// fed through a trunk. This is the Pensieve topology: scalar inputs go
/// through small dense branches, history vectors through Conv1D branches.
class CompositeNet {
 public:
  /// Adds a branch reading input columns [begin, begin+width).
  /// The branch Sequential's InputSize must equal width.
  void AddBranch(std::size_t begin, std::size_t width, Sequential branch);

  /// Sets the trunk; its InputSize must equal the sum of branch outputs.
  void SetTrunk(Sequential trunk);

  Matrix Forward(const Matrix& x);
  Matrix Backward(const Matrix& dy);

  /// Cache-free forward over branches + trunk using the caller's scratch
  /// buffers; const and thread-safe on a shared net. Returns a reference
  /// into `scratch`. Numerics match Forward bit for bit.
  const Matrix& Infer(const Matrix& x, InferScratch& scratch) const;

  std::vector<Param*> Params();

  /// Expected input width (max over branches of begin+width).
  std::size_t InputSize() const;
  std::size_t OutputSize() const;

  /// Read-only topology introspection (for batched ensemble packing).
  std::size_t BranchCount() const { return branches_.size(); }
  std::size_t BranchBegin(std::size_t i) const { return branches_[i].begin; }
  std::size_t BranchWidth(std::size_t i) const { return branches_[i].width; }
  const Sequential& BranchSeq(std::size_t i) const { return branches_[i].seq; }
  const Sequential& trunk() const { return trunk_; }

 private:
  struct Branch {
    std::size_t begin;
    std::size_t width;
    Sequential seq;
  };
  std::vector<Branch> branches_;
  Sequential trunk_;
  std::size_t cached_batch_rows_ = 0;
  std::size_t cached_input_cols_ = 0;
};

/// Zeroes the gradient of every parameter.
void ZeroGrads(std::vector<Param*> params);

/// Copies parameter values (not grads) from src to dst; shapes must match.
void CopyParams(const std::vector<Param*>& src,
                const std::vector<Param*>& dst);

/// Total number of scalar weights.
std::size_t ParamCount(const std::vector<Param*>& params);

}  // namespace osap::nn
