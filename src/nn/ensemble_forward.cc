#include "nn/ensemble_forward.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "util/check.h"
#include "util/simd.h"

// Every packed Linear and Conv1D op runs one kernel shape: one member on
// one state, vectorized along the output axis (LinearRow over Linear
// output columns, ConvRow over Conv1D output channels). A batch of states
// is that kernel per state. Each is one width-generic body, inlined into a
// target("avx2") wrapper (4 doubles per vector) and a target("avx512f")
// wrapper (8 doubles per vector); util/simd.h's level picks the widest the
// host runs, and the scalar loops (LinearRowScalar, ConvRowScalar) are the
// tier below. Every output element keeps the scalar loop's accumulation
// chain (multiply THEN add in the same order; the build passes
// -ffp-contract=off, so the compiler cannot fuse them into an FMA, whose
// single rounding would change results and which AVX-512F provides), so
// every tier is bit-identical to the scalar loops. Guarded by a runtime
// CPU check; non-x86 or pre-AVX2 hosts just use the scalar loops.
#if defined(__x86_64__) && defined(__GNUC__)
#define OSAP_ENSEMBLE_SIMD 1
#endif

namespace osap::nn {

namespace {

constexpr std::size_t kCacheLineBytes = 64;
constexpr std::size_t kCacheLineDoubles = kCacheLineBytes / sizeof(double);

std::size_t RoundUpToCacheLine(std::size_t doubles) {
  return (doubles + kCacheLineDoubles - 1) / kCacheLineDoubles *
         kCacheLineDoubles;
}

/// One member's Linear layer on one state, mirroring Linear::Forward:
/// k-ascending accumulation from zero, the bias added as one final
/// rounded addition per output. The k loop is unrolled by 4 exactly like
/// Matrix::MatMulInto - four separate ascending-k additions per output
/// element - so the rounding order (and result) is unchanged while each y
/// element stays in a register across four updates. A fused ReLU clamps
/// after the bias addition, exactly where the standalone ReLU pass would
/// have run. Every ReLU here is `v <= 0 ? 0 : v`: NaN passes through, so
/// an activation that overflowed cannot come out as a confident score.
void LinearRowScalar(const double* x, const double* w, const double* bias,
                     std::size_t in, std::size_t out, bool fused_relu,
                     double* y) {
  std::fill(y, y + out, 0.0);
  std::size_t k = 0;
  for (; k + 4 <= in; k += 4) {
    const double a0 = x[k];
    const double a1 = x[k + 1];
    const double a2 = x[k + 2];
    const double a3 = x[k + 3];
    const double* w0 = w + k * out;
    const double* w1 = w0 + out;
    const double* w2 = w1 + out;
    const double* w3 = w2 + out;
    for (std::size_t j = 0; j < out; ++j) {
      double acc = y[j];
      acc += a0 * w0[j];
      acc += a1 * w1[j];
      acc += a2 * w2[j];
      acc += a3 * w3[j];
      y[j] = acc;
    }
  }
  for (; k < in; ++k) {
    const double a = x[k];
    const double* wr = w + k * out;
    for (std::size_t j = 0; j < out; ++j) y[j] += a * wr[j];
  }
  if (fused_relu) {
    for (std::size_t j = 0; j < out; ++j) {
      const double v = y[j] + bias[j];
      y[j] = v <= 0.0 ? 0.0 : v;
    }
  } else {
    for (std::size_t j = 0; j < out; ++j) y[j] += bias[j];
  }
}

/// One member's Conv1D layer on one state: the loop of
/// Conv1D::InferBatch over the member's own (in_channels*kernel) x
/// out_channels weights - acc starts at the bias, then ic- and
/// k-ascending multiply-adds per (oc, t) output element - plus the fused
/// clamp.
void ConvRowScalar(const double* x, const double* w, const double* bias,
                   std::size_t in_channels, std::size_t out_channels,
                   std::size_t kernel, std::size_t input_length,
                   bool fused_relu, double* y) {
  const std::size_t out_len = input_length - kernel + 1;
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    for (std::size_t t = 0; t < out_len; ++t) {
      double acc = bias[oc];
      for (std::size_t ic = 0; ic < in_channels; ++ic) {
        const double* xc = x + ic * input_length + t;
        for (std::size_t k = 0; k < kernel; ++k) {
          acc += xc[k] * w[(ic * kernel + k) * out_channels + oc];
        }
      }
      y[oc * out_len + t] = fused_relu ? (acc <= 0.0 ? 0.0 : acc) : acc;
    }
  }
}

#ifdef OSAP_ENSEMBLE_SIMD

// The generic helpers and bodies below take and return vectors by value
// without a target of their own. They are always inlined into the target
// wrappers, so no vector ever crosses a call and -Wpsabi's ABI note does
// not apply. (GCC reports it at the end of the file, when it emits the
// instantiations, so the pragma cannot be popped after the kernels.)
#pragma GCC diagnostic ignored "-Wpsabi"

#define OSAP_VECTOR_INLINE inline __attribute__((always_inline))

using V4 = double __attribute__((vector_size(32)));
using V8 = double __attribute__((vector_size(64)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// Tile widths of the single-state kernels, in doubles: a Linear tile is
// four cache lines of each weight row, a Conv1D tile two.
constexpr std::size_t kLinearTile = 32;
constexpr std::size_t kConvTile = 16;

template <class V>
OSAP_VECTOR_INLINE V Load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <class V>
OSAP_VECTOR_INLINE void Store(double* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

/// The whole vector at p with lanes n and above zeroed (AVX-512 compiles
/// this to one zero-masked load). The whole vector must be readable: the
/// packed slabs' padding guarantees that for every weight and bias read
/// of the single-state kernels (see PackedOp::params).
template <class V>
OSAP_VECTOR_INLINE V LoadFirst(const double* p, std::size_t n) {
  V lane{};
  for (std::size_t i = 0; i < kLanes<V>; ++i) lane[i] = static_cast<double>(i);
  return lane < static_cast<double>(n) ? Load<V>(p) : V{};
}

/// Writes lanes [0, n) to p[0], p[stride], ..., p[(n-1)*stride]. A whole
/// vector is written lane by lane from the register; a partial one goes
/// through memory.
template <class V>
OSAP_VECTOR_INLINE void StoreFirst(V v, std::size_t n, double* p,
                                   std::size_t stride) {
  if (n == kLanes<V>) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes<V>; ++i) p[i * stride] = v[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) p[i * stride] = v[i];
}

/// The fused ReLU: the scalar kernels' `v <= 0 ? 0 : v`, lane by lane.
template <class V>
OSAP_VECTOR_INLINE V Clamp(V v, bool fused_relu) {
  return fused_relu ? ((v <= 0.0) ? V{} : v) : v;
}

/// One member's Linear layer on one state, vectorized over output
/// columns: kLinearTile columns per tile in kLinearTile / W vector
/// accumulators, then one vector at a time, the last one masked to the
/// columns left. The accumulator array is flattened into registers by
/// the unroll pragmas (left rolled, it would round-trip the stack on
/// every update). Each output element receives one addition per k,
/// ascending from zero, then the bias - the scalar kernel's chain - so
/// results match it bit for bit.
template <class V>
OSAP_VECTOR_INLINE void LinearRow(const double* x, const double* w,
                                  const double* bias, std::size_t in,
                                  std::size_t out, bool fused_relu,
                                  double* y) {
  constexpr std::size_t kW = kLanes<V>;
  constexpr std::size_t kVectors = kLinearTile / kW;
  std::size_t j = 0;
  for (; j + kLinearTile <= out; j += kLinearTile) {
    V acc[kVectors] = {};
    const double* wk = w + j;
    for (std::size_t k = 0; k < in; ++k, wk += out) {
      const double xk = x[k];
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kVectors; ++i) {
        acc[i] = acc[i] + Load<V>(wk + i * kW) * xk;
      }
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kVectors; ++i) {
      const std::size_t c = j + i * kW;
      Store(y + c, Clamp(acc[i] + Load<V>(bias + c), fused_relu));
    }
  }
  for (; j < out; j += kW) {
    const std::size_t n = std::min(out - j, kW);
    V acc{};
    const double* wk = w + j;
    for (std::size_t k = 0; k < in; ++k, wk += out) {
      acc = acc + LoadFirst<V>(wk, n) * x[k];
    }
    const V v = Clamp(acc + LoadFirst<V>(bias + j, n), fused_relu);
    if (n == kW) {
      Store(y + j, v);
    } else {
      StoreFirst(v, n, y + j, 1);
    }
  }
}

/// One member's Conv1D layer on one state, vectorized over output
/// channels: for each output position t, kConvTile channels per tile,
/// then one vector at a time, the last one masked to the channels left.
/// A weight row (one (ic, k) tap) is contiguous along the channel axis in
/// the member's own layout, so no repacking is needed. Each accumulator
/// lane starts at its channel's bias and adds the taps in ascending
/// (ic, k) order - ConvRowScalar's chain - so results match it bit for
/// bit; lanes are then scattered to the channel-major output
/// (oc * out_len + t).
template <class V>
OSAP_VECTOR_INLINE void ConvRow(const double* x, const double* w,
                                const double* bias, std::size_t in_channels,
                                std::size_t out_channels, std::size_t kernel,
                                std::size_t input_length, bool fused_relu,
                                double* y) {
  constexpr std::size_t kW = kLanes<V>;
  constexpr std::size_t kVectors = kConvTile / kW;
  const std::size_t out_len = input_length - kernel + 1;
  std::size_t oc = 0;
  for (; oc + kConvTile <= out_channels; oc += kConvTile) {
    V b[kVectors];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < kVectors; ++i) b[i] = Load<V>(bias + oc + i * kW);
    for (std::size_t t = 0; t < out_len; ++t) {
      V acc[kVectors];
#pragma GCC unroll 4
      for (std::size_t i = 0; i < kVectors; ++i) acc[i] = b[i];
      const double* wr = w + oc;
      for (std::size_t ic = 0; ic < in_channels; ++ic) {
        const double* xc = x + ic * input_length + t;
        for (std::size_t k = 0; k < kernel; ++k, wr += out_channels) {
          const double xv = xc[k];
#pragma GCC unroll 4
          for (std::size_t i = 0; i < kVectors; ++i) {
            acc[i] = acc[i] + Load<V>(wr + i * kW) * xv;
          }
        }
      }
#pragma GCC unroll 4
      for (std::size_t i = 0; i < kVectors; ++i) {
        StoreFirst(Clamp(acc[i], fused_relu), kW,
                   y + (oc + i * kW) * out_len + t, out_len);
      }
    }
  }
  for (; oc < out_channels; oc += kW) {
    const std::size_t n = std::min(out_channels - oc, kW);
    const V b = LoadFirst<V>(bias + oc, n);
    for (std::size_t t = 0; t < out_len; ++t) {
      V acc = b;
      const double* wr = w + oc;
      for (std::size_t ic = 0; ic < in_channels; ++ic) {
        const double* xc = x + ic * input_length + t;
        for (std::size_t k = 0; k < kernel; ++k, wr += out_channels) {
          acc = acc + LoadFirst<V>(wr, n) * xc[k];
        }
      }
      StoreFirst(Clamp(acc, fused_relu), n, y + oc * out_len + t, out_len);
    }
  }
}

__attribute__((target("avx2"))) void LinearRowAvx2(
    const double* x, const double* w, const double* bias, std::size_t in,
    std::size_t out, bool fused_relu, double* y) {
  LinearRow<V4>(x, w, bias, in, out, fused_relu, y);
}

__attribute__((target("avx512f"))) void LinearRowAvx512(
    const double* x, const double* w, const double* bias, std::size_t in,
    std::size_t out, bool fused_relu, double* y) {
  LinearRow<V8>(x, w, bias, in, out, fused_relu, y);
}

__attribute__((target("avx2"))) void ConvRowAvx2(
    const double* x, const double* w, const double* bias,
    std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
    std::size_t input_length, bool fused_relu, double* y) {
  ConvRow<V4>(x, w, bias, in_channels, out_channels, kernel, input_length,
              fused_relu, y);
}

__attribute__((target("avx512f"))) void ConvRowAvx512(
    const double* x, const double* w, const double* bias,
    std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
    std::size_t input_length, bool fused_relu, double* y) {
  ConvRow<V8>(x, w, bias, in_channels, out_channels, kernel, input_length,
              fused_relu, y);
}

#endif  // OSAP_ENSEMBLE_SIMD

/// The single-state kernels of one tier.
struct RowKernels {
  decltype(&LinearRowScalar) linear;
  decltype(&ConvRowScalar) conv;
};

/// The widest single-state kernels at or below `level`.
const RowKernels& RowKernelsFor(util::SimdLevel level) {
  static constexpr RowKernels kScalar{LinearRowScalar, ConvRowScalar};
#ifdef OSAP_ENSEMBLE_SIMD
  static constexpr RowKernels kAvx2{LinearRowAvx2, ConvRowAvx2};
  static constexpr RowKernels kAvx512{LinearRowAvx512, ConvRowAvx512};
  switch (level) {
    case util::SimdLevel::kAvx512:
      return kAvx512;
    case util::SimdLevel::kAvx2:
      return kAvx2;
    case util::SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalar;
}

}  // namespace

BatchedEnsemble::BatchedEnsemble(std::vector<const CompositeNet*> members) {
  OSAP_REQUIRE(!members.empty(), "BatchedEnsemble: empty ensemble");
  for (const CompositeNet* m : members) {
    OSAP_REQUIRE(m != nullptr, "BatchedEnsemble: null member");
  }
  member_count_ = members.size();
  const CompositeNet& first = *members.front();
  for (const CompositeNet* m : members) {
    OSAP_REQUIRE(m->BranchCount() == first.BranchCount() &&
                     m->InputSize() == first.InputSize() &&
                     m->OutputSize() == first.OutputSize(),
                 "BatchedEnsemble: members must share one topology");
  }
  input_size_ = first.InputSize();
  output_size_ = first.OutputSize();

  for (std::size_t b = 0; b < first.BranchCount(); ++b) {
    PackedBranch branch;
    branch.begin = first.BranchBegin(b);
    branch.width = first.BranchWidth(b);
    branch.out_width = first.BranchSeq(b).OutputSize();
    std::vector<const Sequential*> seqs;
    seqs.reserve(members.size());
    for (const CompositeNet* m : members) {
      OSAP_REQUIRE(m->BranchBegin(b) == branch.begin &&
                       m->BranchWidth(b) == branch.width,
                   "BatchedEnsemble: branch column ranges must match");
      seqs.push_back(&m->BranchSeq(b));
    }
    branch.ops = Pack(seqs);
    concat_width_ += branch.out_width;
    branches_.push_back(std::move(branch));
  }

  std::vector<const Sequential*> trunks;
  trunks.reserve(members.size());
  for (const CompositeNet* m : members) trunks.push_back(&m->trunk());
  trunk_ = Pack(trunks);
}

std::vector<BatchedEnsemble::PackedOp> BatchedEnsemble::Pack(
    const std::vector<const Sequential*>& seqs) {
  const Sequential& first = *seqs.front();
  for (const Sequential* s : seqs) {
    OSAP_REQUIRE(s->LayerCount() == first.LayerCount(),
                 "BatchedEnsemble: members must share layer counts");
  }
  const std::size_t k_members = seqs.size();
  std::vector<PackedOp> ops;
  ops.reserve(first.LayerCount());
  std::vector<std::span<const double>> weights(k_members);
  std::vector<std::span<const double>> biases(k_members);
  for (std::size_t li = 0; li < first.LayerCount(); ++li) {
    const Layer& proto = first.LayerAt(li);
    PackedOp op;
    op.in = proto.InputSize();
    op.out = proto.OutputSize();
    if (dynamic_cast<const Linear*>(&proto) != nullptr) {
      op.kind = PackedOp::Kind::kLinear;
      for (std::size_t m = 0; m < k_members; ++m) {
        const auto* member = dynamic_cast<const Linear*>(&seqs[m]->LayerAt(li));
        OSAP_REQUIRE(member != nullptr &&
                         member->InputSize() == op.in &&
                         member->OutputSize() == op.out,
                     "BatchedEnsemble: layer shape mismatch across members");
        weights[m] = member->weight().value.values();
        biases[m] = member->bias().value.values();
      }
      op.PackParams(weights, biases);
    } else if (const auto* conv = dynamic_cast<const Conv1D*>(&proto)) {
      op.kind = PackedOp::Kind::kConv1d;
      op.in_channels = conv->in_channels();
      op.out_channels = conv->out_channels();
      op.kernel = conv->kernel();
      op.input_length = conv->input_length();
      for (std::size_t m = 0; m < k_members; ++m) {
        const auto* member = dynamic_cast<const Conv1D*>(&seqs[m]->LayerAt(li));
        OSAP_REQUIRE(member != nullptr &&
                         member->in_channels() == op.in_channels &&
                         member->out_channels() == op.out_channels &&
                         member->kernel() == op.kernel &&
                         member->input_length() == op.input_length,
                     "BatchedEnsemble: conv shape mismatch across members");
        weights[m] = member->weight().value.values();
        biases[m] = member->bias().value.values();
      }
      op.PackParams(weights, biases);
    } else if (dynamic_cast<const ReLU*>(&proto) != nullptr) {
      op.kind = PackedOp::Kind::kRelu;
    } else if (dynamic_cast<const Tanh*>(&proto) != nullptr) {
      op.kind = PackedOp::Kind::kTanh;
    } else {
      OSAP_REQUIRE(false, "BatchedEnsemble: unsupported layer kind");
    }
    if (op.kind == PackedOp::Kind::kRelu ||
        op.kind == PackedOp::Kind::kTanh) {
      for (const Sequential* s : seqs) {
        OSAP_REQUIRE(s->LayerAt(li).Name() == proto.Name() &&
                         s->LayerAt(li).InputSize() == op.in,
                     "BatchedEnsemble: layer kind mismatch across members");
      }
    }
    // Fold a ReLU straight into the preceding weighted op: the clamp
    // happens after that op's final rounded addition either way, so the
    // fused result is bit-identical while skipping one full pass.
    if (op.kind == PackedOp::Kind::kRelu && !ops.empty() &&
        !ops.back().fused_relu &&
        (ops.back().kind == PackedOp::Kind::kLinear ||
         ops.back().kind == PackedOp::Kind::kConv1d)) {
      ops.back().fused_relu = true;
      continue;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void BatchedEnsemble::FreeCacheLines::operator()(double* p) const {
  ::operator delete[](p, std::align_val_t{kCacheLineBytes});
}

void BatchedEnsemble::PackedOp::PackParams(
    const std::vector<std::span<const double>>& weights,
    const std::vector<std::span<const double>>& biases) {
  weight_size = weights.front().size();
  bias_size = biases.front().size();
  bias_offset = RoundUpToCacheLine(weight_size);
  member_stride = bias_offset + RoundUpToCacheLine(bias_size);
  params.reset(static_cast<double*>(::operator new[](
      weights.size() * member_stride * sizeof(double),
      std::align_val_t{kCacheLineBytes})));
  for (std::size_t m = 0; m < weights.size(); ++m) {
    OSAP_CHECK(weights[m].size() == weight_size &&
               biases[m].size() == bias_size);
    double* slab = params.get() + m * member_stride;
    double* pad = std::copy(weights[m].begin(), weights[m].end(), slab);
    std::fill(pad, slab + bias_offset, 0.0);
    pad = std::copy(biases[m].begin(), biases[m].end(), slab + bias_offset);
    std::fill(pad, slab + member_stride, 0.0);
  }
}

std::vector<std::span<const double>> BatchedEnsemble::PackedBlocks() const {
  std::vector<std::span<const double>> blocks;
  const auto add = [&](const std::vector<PackedOp>& ops) {
    for (const PackedOp& op : ops) {
      if (!op.params) continue;
      for (std::size_t m = 0; m < member_count_; ++m) {
        blocks.emplace_back(op.Weights(m), op.weight_size);
        blocks.emplace_back(op.Bias(m), op.bias_size);
      }
    }
  };
  for (const PackedBranch& branch : branches_) add(branch.ops);
  add(trunk_);
  return blocks;
}

void BatchedEnsemble::ApplyOp(const PackedOp& op, const double* x,
                              std::size_t x_stride, std::size_t x_batch,
                              double* y, std::size_t y_stride,
                              std::size_t y_batch, std::size_t batch) const {
  const std::size_t k_members = member_count_;
  switch (op.kind) {
    case PackedOp::Kind::kLinear:
    case PackedOp::Kind::kConv1d: {
      const RowKernels& rows = RowKernelsFor(util::ActiveSimdLevel());
      for (std::size_t m = 0; m < k_members; ++m) {
        const double* w = op.Weights(m);
        const double* bias = op.Bias(m);
        for (std::size_t b = 0; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          if (op.kind == PackedOp::Kind::kLinear) {
            rows.linear(xr, w, bias, op.in, op.out, op.fused_relu, yr);
          } else {
            rows.conv(xr, w, bias, op.in_channels, op.out_channels,
                      op.kernel, op.input_length, op.fused_relu, yr);
          }
        }
      }
      break;
    }
    case PackedOp::Kind::kRelu: {
      for (std::size_t m = 0; m < k_members; ++m) {
        for (std::size_t b = 0; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          for (std::size_t j = 0; j < op.out; ++j) {
            yr[j] = xr[j] <= 0.0 ? 0.0 : xr[j];
          }
        }
      }
      break;
    }
    case PackedOp::Kind::kTanh: {
      for (std::size_t m = 0; m < k_members; ++m) {
        for (std::size_t b = 0; b < batch; ++b) {
          const double* xr = x + m * x_stride + b * x_batch;
          double* yr = y + m * y_stride + b * y_batch;
          for (std::size_t j = 0; j < op.out; ++j) yr[j] = std::tanh(xr[j]);
        }
      }
      break;
    }
  }
}

void BatchedEnsemble::RunOps(const std::vector<PackedOp>& ops,
                             const double* x, std::size_t x_stride,
                             std::size_t x_batch, Matrix& buf_a,
                             Matrix& buf_b, double* out,
                             std::size_t out_stride, std::size_t out_batch,
                             std::size_t batch) const {
  OSAP_CHECK(!ops.empty());
  const double* in = x;
  std::size_t stride = x_stride;
  std::size_t in_batch = x_batch;
  Matrix* buf = &buf_a;
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    buf->ReshapeUninitialized(batch * member_count_, ops[i].out);
    ApplyOp(ops[i], in, stride, in_batch, buf->data(), ops[i].out,
            member_count_ * ops[i].out, batch);
    in = buf->data();
    stride = ops[i].out;
    in_batch = member_count_ * ops[i].out;
    buf = (buf == &buf_a) ? &buf_b : &buf_a;
  }
  ApplyOp(ops.back(), in, stride, in_batch, out, out_stride, out_batch,
          batch);
}

const Matrix& BatchedEnsemble::InferBatch(const Matrix& states,
                                          InferScratch& scratch) const {
  OSAP_REQUIRE(states.cols() >= input_size_,
               "BatchedEnsemble: state rows too narrow");
  const std::size_t batch = states.rows();
  scratch.concat.ReshapeUninitialized(batch * member_count_, concat_width_);
  std::size_t offset = 0;
  for (const PackedBranch& branch : branches_) {
    // All members read the same state columns, so member stride zero
    // shares each state's input row across members (members diverge after
    // the first weighted layer); the batch stride walks the state rows.
    // Each branch's final op writes its member rows straight into the
    // concat columns (stride concat_width_), one (batch*K)-row block, with
    // no per-branch copy.
    RunOps(branch.ops, states.data() + branch.begin,
           /*x_stride=*/0, /*x_batch=*/states.cols(), scratch.a, scratch.b,
           scratch.concat.data() + offset, concat_width_,
           member_count_ * concat_width_, batch);
    offset += branch.out_width;
  }
  scratch.slice.ReshapeUninitialized(batch * member_count_, output_size_);
  RunOps(trunk_, scratch.concat.data(), concat_width_,
         member_count_ * concat_width_, scratch.a, scratch.b,
         scratch.slice.data(), output_size_, member_count_ * output_size_,
         batch);
  return scratch.slice;
}

}  // namespace osap::nn
