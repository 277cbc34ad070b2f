#include "svm/ocsvm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"

// Batch-axis SIMD for the batched decision scan: four independent samples
// ride the four lanes of an AVX2 vector while every sample keeps its own
// scalar accumulation chain (SV-ascending additions, no FMA - the target
// below deliberately omits it) and each kernel term still goes through
// scalar std::exp per lane. That makes the vectorized scan bit-identical
// to DecisionValue yet ~4x cheaper on the dot products that dominate for
// the paper's wide synthetic feature windows (dim = 2k = 60). Guarded by
// the shared runtime dispatch (util::UseAvx2, OSAP_NO_AVX2 escape hatch);
// non-x86 or pre-AVX2 hosts use the scalar scan.
#if defined(__x86_64__) && defined(__GNUC__)
#define OSAP_OCSVM_BATCH_SIMD 1
#endif

namespace osap::svm {

namespace {

#ifdef OSAP_OCSVM_BATCH_SIMD

using V4 = double __attribute__((vector_size(32)));

/// Decision values for four scaled samples presented dim-major
/// (xt[d * 4 + lane]) with precomputed squared norms. Per lane the chain
/// is exactly DecisionValue's: f = -rho, then one SV-ascending addition
/// of alpha_i * exp(-gamma (|x|^2 - 2 x.sv_i + |sv_i|^2)) per support
/// vector, with the same association inside the exponent argument.
__attribute__((target("avx2"))) void DecisionValues4Avx2(
    const double* xt, const double* norms4, const double* sv_data,
    const double* sv_sq_norms, const double* alphas, std::size_t sv_count,
    std::size_t dim, double gamma, double rho, double* out4) {
  V4 acc = {-rho, -rho, -rho, -rho};
  V4 norms;
  std::memcpy(&norms, norms4, sizeof(V4));
  const double* sv = sv_data;
  for (std::size_t i = 0; i < sv_count; ++i, sv += dim) {
    V4 dot{};
    for (std::size_t d = 0; d < dim; ++d) {
      V4 x;
      std::memcpy(&x, xt + d * 4, sizeof(V4));
      dot = dot + x * sv[d];
    }
    const V4 arg = -gamma * (norms - 2.0 * dot + sv_sq_norms[i]);
    const V4 e = {std::exp(arg[0]), std::exp(arg[1]), std::exp(arg[2]),
                  std::exp(arg[3])};
    acc = acc + alphas[i] * e;
  }
  std::memcpy(out4, &acc, sizeof(V4));
}

#endif  // OSAP_OCSVM_BATCH_SIMD

constexpr char kMagic[8] = {'O', 'S', 'A', 'P', 'S', 'V', 'M', '1'};

void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t ReadU64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("OneClassSvm::Load: truncated stream");
  return v;
}

double ReadF64(std::istream& in) {
  double v = 0.0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("OneClassSvm::Load: truncated stream");
  return v;
}

/// Reads `out.size()` doubles with one stream read.
void ReadF64s(std::istream& in, std::vector<double>& out) {
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size() * sizeof(double)));
  if (!in) throw std::runtime_error("OneClassSvm::Load: truncated stream");
}

// RBF kernel over the flattened (scaled) samples, evaluated element-wise in
// a canonical index order: element (r, c) is always computed as
//   exp(-gamma (|x_min|^2 - 2 x_min.x_max + |x_max|^2)),  min/max of (r, c),
// which is exactly how the dense solver fills its upper triangle and then
// mirrors it. The dot product itself is order-insensitive bitwise (same
// ascending-d chain, commutative products), so any lazily computed row or
// single element is bit-identical to the dense matrix entry.
struct KernelEval {
  const double* flat;
  const double* sq_norms;
  std::size_t dim;
  std::size_t n;
  double gamma;

  double At(std::size_t r, std::size_t c) const {
    const std::size_t i = std::min(r, c);
    const std::size_t j = std::max(r, c);
    const double* xi = flat + i * dim;
    const double* xj = flat + j * dim;
    double dot = 0.0;
    for (std::size_t d = 0; d < dim; ++d) dot += xi[d] * xj[d];
    return std::exp(-gamma * (sq_norms[i] - 2.0 * dot + sq_norms[j]));
  }

  void Row(std::size_t r, double* out) const {
    for (std::size_t c = 0; c < n; ++c) out[c] = At(r, c);
  }
};

// Bounded LRU cache of full kernel rows. The working-set solver touches a
// small, highly repetitive set of rows (the nonzero-alpha prefix for the
// initial gradient plus the maximal-violating pairs), so fit cost tracks
// the rows actually used instead of the full n^2 precompute.
class KernelRowCache {
 public:
  KernelRowCache(const KernelEval& kernel, std::size_t budget_mb)
      : kernel_(kernel), n_(kernel.n) {
    const std::size_t row_bytes = n_ * sizeof(double);
    const std::size_t budget = budget_mb * 1024 * 1024;
    capacity_ = std::clamp<std::size_t>(budget / std::max<std::size_t>(row_bytes, 1),
                                        2, std::max<std::size_t>(n_, 2));
    pool_.resize(capacity_ * n_);
    slot_of_.assign(n_, -1);
    row_of_.assign(capacity_, n_);
    last_used_.assign(capacity_, 0);
  }

  /// Cached row pointer; computes (and possibly evicts) on miss. Valid
  /// until the next Row() call.
  const double* Row(std::size_t r) {
    int s = slot_of_[r];
    if (s < 0) {
      s = AcquireSlot();
      if (row_of_[static_cast<std::size_t>(s)] < n_) {
        slot_of_[row_of_[static_cast<std::size_t>(s)]] = -1;
      }
      row_of_[static_cast<std::size_t>(s)] = r;
      slot_of_[r] = s;
      kernel_.Row(r, pool_.data() + static_cast<std::size_t>(s) * n_);
    }
    last_used_[static_cast<std::size_t>(s)] = ++tick_;
    return pool_.data() + static_cast<std::size_t>(s) * n_;
  }

  /// Single element, served from either symmetric cached row when present
  /// (bit-identical either way thanks to the canonical element order).
  /// Does not touch LRU state and never allocates.
  double At(std::size_t r, std::size_t c) const {
    if (slot_of_[r] >= 0) {
      return pool_[static_cast<std::size_t>(slot_of_[r]) * n_ + c];
    }
    if (slot_of_[c] >= 0) {
      return pool_[static_cast<std::size_t>(slot_of_[c]) * n_ + r];
    }
    return kernel_.At(r, c);
  }

 private:
  int AcquireSlot() {
    if (used_ < capacity_) return static_cast<int>(used_++);
    std::size_t lru = 0;
    for (std::size_t s = 1; s < capacity_; ++s) {
      if (last_used_[s] < last_used_[lru]) lru = s;
    }
    return static_cast<int>(lru);
  }

  const KernelEval& kernel_;
  std::size_t n_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<double> pool_;
  std::vector<int> slot_of_;          // sample index -> slot, -1 if absent
  std::vector<std::size_t> row_of_;   // slot -> sample index, n_ if free
  std::vector<std::uint64_t> last_used_;
};

/// The original solver: full n x n kernel precompute, dense initial
/// gradient, maximal-violating-pair SMO. Kept verbatim as the reference the
/// working-set solver must match bit for bit (see ocsvm_working_set_test).
std::size_t SolveDenseSmo(const KernelEval& kernel, const OcSvmConfig& config,
                          std::vector<double>& alpha,
                          std::vector<double>& grad) {
  const std::size_t n = kernel.n;
  std::vector<double> q(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double k = kernel.At(i, j);
      q[i * n + j] = k;
      q[j * n + i] = k;
    }
  }

  // Gradient of the objective: G = Q alpha.
  for (std::size_t i = 0; i < n; ++i) {
    double g = 0.0;
    const double* qrow = q.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) g += qrow[j] * alpha[j];
    grad[i] = g;
  }

  // SMO with maximal-violating-pair selection. We can move mass from a
  // coordinate j (alpha_j > 0) to a coordinate i (alpha_i < 1); optimality
  // when max_j G_j - min_i G_i <= tolerance over the movable sets.
  std::size_t iterations = 0;
  const double kUpper = 1.0;
  while (iterations < config.max_iterations) {
    int best_i = -1;  // receiver: alpha_i < 1, minimal gradient
    int best_j = -1;  // donor: alpha_j > 0, maximal gradient
    double min_gi = std::numeric_limits<double>::infinity();
    double max_gj = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (alpha[t] < kUpper && grad[t] < min_gi) {
        min_gi = grad[t];
        best_i = static_cast<int>(t);
      }
      if (alpha[t] > 0.0 && grad[t] > max_gj) {
        max_gj = grad[t];
        best_j = static_cast<int>(t);
      }
    }
    if (best_i < 0 || best_j < 0 || best_i == best_j ||
        max_gj - min_gi <= config.tolerance) {
      break;
    }
    const auto i = static_cast<std::size_t>(best_i);
    const auto j = static_cast<std::size_t>(best_j);
    // Unconstrained optimal step along (e_i - e_j).
    const double denom =
        std::max(q[i * n + i] + q[j * n + j] - 2.0 * q[i * n + j], 1e-12);
    double delta = (grad[j] - grad[i]) / denom;
    // Box constraints: alpha_i + delta <= 1, alpha_j - delta >= 0.
    delta = std::min(delta, kUpper - alpha[i]);
    delta = std::min(delta, alpha[j]);
    if (delta <= 0.0) break;
    alpha[i] += delta;
    alpha[j] -= delta;
    const double* qi = q.data() + i * n;
    const double* qj = q.data() + j * n;
    for (std::size_t t = 0; t < n; ++t) {
      grad[t] += delta * (qi[t] - qj[t]);
    }
    ++iterations;
  }
  return iterations;
}

/// Working-set solver: lazy LRU kernel rows, sparse initial gradient, and
/// bit-exact shrinking. Every quantity it computes - pair selection, step
/// sizes, gradients, iteration count - is bitwise identical to
/// SolveDenseSmo, by the following argument:
///
///  * Kernel elements are computed in the canonical (min, max) index order
///    wherever they are produced (full rows, cached symmetric reads, or
///    single on-demand elements), so they equal the dense matrix entries.
///  * The initial gradient skips zero-alpha terms. All kernel values are
///    positive and alphas non-negative, so the running sums never produce
///    -0.0 and adding a skipped 0.0 term is a bitwise no-op; the nonzero
///    alphas form a prefix, so term order is unchanged.
///  * Shrinking removes only alpha == 0 points (never donor candidates)
///    whose gradients sit above the current max donor gradient. A shrunk
///    point's true gradient can drift below its value at shrink time by at
///    most the sum D of subsequent step sizes (|q_i[t] - q_j[t]| <= 1 for
///    RBF). Selection therefore only proceeds on a shrunk working set while
///    min over shrunk of (grad_at_shrink) - D (minus a slack dwarfing the
///    FP error of this accounting) stays strictly above the active minimum
///    gradient - i.e. while no shrunk point could be chosen as receiver by
///    the dense scan, which also keeps the dense scan's first-index
///    tie-breaking intact. When the guard trips, shrunk points are caught
///    up by replaying the logged (i, j, delta) steps in order - the exact
///    same accumulation chain the dense solver applied - and unshrunk.
///  * Remaining shrunk points are caught up the same way after the loop,
///    so the rho computation sees the exact dense gradients.
std::size_t SolveWorkingSetSmo(const KernelEval& kernel,
                               const OcSvmConfig& config,
                               std::vector<double>& alpha,
                               std::vector<double>& grad) {
  const std::size_t n = kernel.n;
  const double kUpper = 1.0;
  KernelRowCache cache(kernel, config.kernel_cache_mb);

  // Sparse initial gradient over the nonzero-alpha prefix, ascending j per
  // element just like the dense G = Q alpha.
  std::size_t nz = 0;
  while (nz < n && alpha[nz] > 0.0) ++nz;
  for (std::size_t j = 0; j < nz; ++j) {
    const double* qj = cache.Row(j);
    const double aj = alpha[j];
    for (std::size_t t = 0; t < n; ++t) grad[t] += qj[t] * aj;
  }

  struct Step {
    std::uint32_t i;
    std::uint32_t j;
    double delta;
  };
  std::vector<unsigned char> shrunk(n, 0);
  std::vector<std::size_t> shrink_from(n, 0);  // log index at shrink time
  std::vector<Step> log;
  std::size_t shrunk_count = 0;
  double drift = 0.0;  // sum of deltas since the current shrink epoch began
  double guard_min = std::numeric_limits<double>::infinity();
  // Slack absorbing the floating-point error of the drift accounting (a few
  // hundred additions of O(1) terms, so ~1e-12 worst case); 1e-9 leaves
  // three orders of magnitude margin while remaining far below the 1e-4
  // tolerance scale that shrinking candidates clear by construction.
  const double kGuardSlack = 1e-9;

  auto catch_up = [&](std::size_t t) {
    for (std::size_t k = shrink_from[t]; k < log.size(); ++k) {
      const Step& s = log[k];
      grad[t] += s.delta * (cache.At(s.i, t) - cache.At(s.j, t));
    }
  };
  auto unshrink_all = [&]() {
    for (std::size_t t = 0; t < n; ++t) {
      if (shrunk[t]) {
        catch_up(t);
        shrunk[t] = 0;
      }
    }
    shrunk_count = 0;
    drift = 0.0;
    guard_min = std::numeric_limits<double>::infinity();
    log.clear();
  };

  std::size_t iterations = 0;
  while (iterations < config.max_iterations) {
    int best_i = -1;
    int best_j = -1;
    double min_gi = std::numeric_limits<double>::infinity();
    double max_gj = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (shrunk[t]) continue;
      if (alpha[t] < kUpper && grad[t] < min_gi) {
        min_gi = grad[t];
        best_i = static_cast<int>(t);
      }
      if (alpha[t] > 0.0 && grad[t] > max_gj) {
        max_gj = grad[t];
        best_j = static_cast<int>(t);
      }
    }
    if (shrunk_count > 0 && !(guard_min - (drift + kGuardSlack) > min_gi)) {
      // A shrunk point could (conservatively) now beat the active receiver
      // minimum: restore exact gradients and redo this selection densely.
      unshrink_all();
      continue;
    }
    if (best_i < 0 || best_j < 0 || best_i == best_j ||
        max_gj - min_gi <= config.tolerance) {
      break;
    }
    const auto i = static_cast<std::size_t>(best_i);
    const auto j = static_cast<std::size_t>(best_j);
    const double* qi = cache.Row(i);
    const double* qj = cache.Row(j);
    const double denom = std::max(qi[i] + qj[j] - 2.0 * qi[j], 1e-12);
    double delta = (grad[j] - grad[i]) / denom;
    delta = std::min(delta, kUpper - alpha[i]);
    delta = std::min(delta, alpha[j]);
    if (delta <= 0.0) break;
    alpha[i] += delta;
    alpha[j] -= delta;
    for (std::size_t t = 0; t < n; ++t) {
      if (!shrunk[t]) grad[t] += delta * (qi[t] - qj[t]);
    }
    if (shrunk_count > 0) {
      log.push_back(Step{static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j), delta});
      drift += delta;
    }
    ++iterations;

    if (config.shrink_interval > 0 &&
        iterations % config.shrink_interval == 0) {
      for (std::size_t t = 0; t < n; ++t) {
        if (!shrunk[t] && alpha[t] == 0.0 && grad[t] > max_gj) {
          shrunk[t] = 1;
          ++shrunk_count;
          shrink_from[t] = log.size();
          guard_min = std::min(guard_min, grad[t] + drift);
        }
      }
    }
  }

  // rho needs the exact gradient of every point.
  for (std::size_t t = 0; t < n; ++t) {
    if (shrunk[t]) catch_up(t);
  }
  return iterations;
}

}  // namespace

OneClassSvm::OneClassSvm(OcSvmConfig config) : config_(config) {}

void OneClassSvm::Fit(const std::vector<std::vector<double>>& data) {
  OSAP_REQUIRE(config_.nu > 0.0 && config_.nu < 1.0,
               "OneClassSvm: nu must be in (0, 1)");
  OSAP_REQUIRE(!data.empty(), "OneClassSvm::Fit: empty data");
  const std::size_t dim = data.front().size();
  OSAP_REQUIRE(dim > 0, "OneClassSvm::Fit: zero-dimensional data");
  for (const auto& row : data) {
    OSAP_REQUIRE(row.size() == dim, "OneClassSvm::Fit: ragged data");
  }

  // Deterministic subsample when the training set exceeds the cap.
  std::vector<std::vector<double>> samples;
  if (config_.max_samples > 0 && data.size() > config_.max_samples) {
    std::vector<std::size_t> idx(data.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    Rng rng(0xF17E5EED);
    rng.Shuffle(idx);
    idx.resize(config_.max_samples);
    std::sort(idx.begin(), idx.end());
    samples.reserve(idx.size());
    for (std::size_t i : idx) samples.push_back(data[i]);
  } else {
    samples = data;
  }
  const std::size_t n = samples.size();

  if (config_.standardize) {
    scaler_.Fit(samples);
    samples = scaler_.TransformAll(samples);
  } else {
    // Identity scaler so Transform is a no-op with the right dimension.
    scaler_.SetState(std::vector<double>(dim, 0.0),
                     std::vector<double>(dim, 1.0));
  }

  gamma_ = config_.gamma > 0.0 ? config_.gamma : ScaleGamma(samples);

  // Flatten the (scaled) samples into one contiguous row-major buffer with
  // precomputed squared norms - the same representation DecisionValue scans
  // - so each kernel row below is dot products against a linear buffer via
  // the norm expansion |a - b|^2 = |a|^2 - 2 a.b + |b|^2.
  std::vector<double> flat(n * dim);
  std::vector<double> sq_norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* dst = flat.data() + i * dim;
    std::copy(samples[i].begin(), samples[i].end(), dst);
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) s += dst[d] * dst[d];
    sq_norms[i] = s;
  }

  // libsvm-style initialization: sum alpha = nu*n with the first
  // floor(nu*n) coordinates at the upper bound 1 and one fractional entry.
  std::vector<double> alpha(n, 0.0);
  const double total = config_.nu * static_cast<double>(n);
  {
    double remaining = total;
    for (std::size_t i = 0; i < n && remaining > 0.0; ++i) {
      alpha[i] = std::min(1.0, remaining);
      remaining -= alpha[i];
    }
  }

  // Solve the dual. The working-set solver (default) is bit-identical to
  // the dense reference solver but only computes the kernel rows the SMO
  // loop touches, so fit cost no longer grows with the full n^2 matrix.
  std::vector<double> grad(n, 0.0);
  const KernelEval kernel{flat.data(), sq_norms.data(), dim, n, gamma_};
  iterations_ = config_.dense_solver
                    ? SolveDenseSmo(kernel, config_, alpha, grad)
                    : SolveWorkingSetSmo(kernel, config_, alpha, grad);
  const double kUpper = 1.0;

  // rho: average gradient over free support vectors (0 < alpha < 1);
  // fall back to the midpoint of the boundary gradients if none are free.
  double rho_sum = 0.0;
  std::size_t rho_count = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 1e-9 && alpha[t] < kUpper - 1e-9) {
      rho_sum += grad[t];
      ++rho_count;
    }
  }
  if (rho_count > 0) {
    rho_ = rho_sum / static_cast<double>(rho_count);
  } else {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (alpha[t] >= kUpper - 1e-9) lo = std::max(lo, grad[t]);
      if (alpha[t] <= 1e-9) hi = std::min(hi, grad[t]);
    }
    if (!std::isfinite(lo)) lo = hi;
    if (!std::isfinite(hi)) hi = lo;
    rho_ = 0.5 * (lo + hi);
  }

  // Keep only support vectors, compacted into the flat decision buffer.
  sv_data_.clear();
  sv_sq_norms_.clear();
  alphas_.clear();
  sv_dim_ = dim;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 1e-9) {
      const double* src = flat.data() + t * dim;
      sv_data_.insert(sv_data_.end(), src, src + dim);
      sv_sq_norms_.push_back(sq_norms[t]);
      alphas_.push_back(alpha[t]);
    }
  }
  sv_count_ = alphas_.size();
  OSAP_CHECK_MSG(sv_count_ > 0,
                 "OneClassSvm::Fit produced no support vectors");
}

double OneClassSvm::DecisionValue(std::span<const double> x) const {
  OSAP_REQUIRE(Fitted(), "OneClassSvm::DecisionValue before Fit");
  const std::vector<double> xs = scaler_.Transform(x);
  double x_norm = 0.0;
  for (double v : xs) x_norm += v * v;
  // Single linear scan over the contiguous SV buffer:
  //   f(x) = sum_i alpha_i exp(-gamma (|x|^2 - 2 x.sv_i + |sv_i|^2)) - rho.
  double f = -rho_;
  const double* sv = sv_data_.data();
  for (std::size_t i = 0; i < sv_count_; ++i, sv += sv_dim_) {
    double dot = 0.0;
    for (std::size_t d = 0; d < sv_dim_; ++d) dot += xs[d] * sv[d];
    f += alphas_[i] *
         std::exp(-gamma_ * (x_norm - 2.0 * dot + sv_sq_norms_[i]));
  }
  return f;
}

void OneClassSvm::DecisionValues(const double* rows, std::size_t count,
                                 std::span<double> out) const {
  OSAP_REQUIRE(Fitted(), "OneClassSvm::DecisionValues before Fit");
  OSAP_REQUIRE(out.size() >= count, "DecisionValues: output span too short");
  if (count == 0) return;
#ifdef OSAP_OCSVM_BATCH_SIMD
  if (count >= 4 && util::UseAvx2()) {
    const std::vector<double>& mean = scaler_.mean();
    const std::vector<double>& stddev = scaler_.stddev();
    // One dim-major block of four scaled samples at a time; thread-local
    // so the serving steady state is allocation-free.
    thread_local std::vector<double> xt;
    xt.resize(sv_dim_ * 4);
    alignas(32) double norms4[4];
    std::size_t s = 0;
    for (; s + 4 <= count; s += 4) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        const double* x = rows + (s + lane) * sv_dim_;
        double norm = 0.0;
        for (std::size_t d = 0; d < sv_dim_; ++d) {
          const double v = (x[d] - mean[d]) / stddev[d];
          xt[d * 4 + lane] = v;
          norm += v * v;
        }
        norms4[lane] = norm;
      }
      DecisionValues4Avx2(xt.data(), norms4, sv_data_.data(),
                          sv_sq_norms_.data(), alphas_.data(), sv_count_,
                          sv_dim_, gamma_, rho_, out.data() + s);
    }
    if (s < count) {
      DecisionValuesScalar(rows + s * sv_dim_, count - s, out.subspan(s));
    }
    return;
  }
#endif
  DecisionValuesScalar(rows, count, out);
}

void OneClassSvm::DecisionValuesScalar(const double* rows, std::size_t count,
                                       std::span<double> out) const {
  // Scale all samples up front (same per-element (x - mean) / stddev as
  // StandardScaler::Transform), with squared norms alongside. Thread-local
  // so the serving steady state is allocation-free.
  thread_local std::vector<double> scaled;
  thread_local std::vector<double> norms;
  scaled.resize(count * sv_dim_);
  norms.resize(count);
  const std::vector<double>& mean = scaler_.mean();
  const std::vector<double>& stddev = scaler_.stddev();
  for (std::size_t s = 0; s < count; ++s) {
    const double* x = rows + s * sv_dim_;
    double* xs = scaled.data() + s * sv_dim_;
    double x_norm = 0.0;
    for (std::size_t d = 0; d < sv_dim_; ++d) {
      xs[d] = (x[d] - mean[d]) / stddev[d];
      x_norm += xs[d] * xs[d];
    }
    norms[s] = x_norm;
    out[s] = -rho_;
  }
  // SV-outer / sample-inner: each support-vector row streams once for the
  // whole batch, while every sample's accumulator still sums its kernel
  // terms in ascending SV order - the exact chain DecisionValue runs - so
  // the results are bit-identical to the one-sample path.
  const double* sv = sv_data_.data();
  for (std::size_t i = 0; i < sv_count_; ++i, sv += sv_dim_) {
    const double a = alphas_[i];
    const double sv_sq = sv_sq_norms_[i];
    for (std::size_t s = 0; s < count; ++s) {
      const double* xs = scaled.data() + s * sv_dim_;
      double dot = 0.0;
      for (std::size_t d = 0; d < sv_dim_; ++d) dot += xs[d] * sv[d];
      out[s] += a * std::exp(-gamma_ * (norms[s] - 2.0 * dot + sv_sq));
    }
  }
}

double OneClassSvm::InlierFraction(
    const std::vector<std::vector<double>>& data) const {
  OSAP_REQUIRE(!data.empty(), "InlierFraction: empty data");
  std::size_t inliers = 0;
  for (const auto& row : data) {
    if (IsInlier(row)) ++inliers;
  }
  return static_cast<double>(inliers) / static_cast<double>(data.size());
}

void OneClassSvm::Save(const std::filesystem::path& path) const {
  OSAP_REQUIRE(Fitted(), "OneClassSvm::Save before Fit");
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("OneClassSvm::Save: cannot open " +
                             path.string());
  }
  out.write(kMagic, sizeof(kMagic));
  WriteU64(out, sv_count_);
  WriteU64(out, sv_dim_);
  WriteF64(out, rho_);
  WriteF64(out, gamma_);
  WriteF64(out, config_.nu);
  for (double m : scaler_.mean()) WriteF64(out, m);
  for (double s : scaler_.stddev()) WriteF64(out, s);
  for (std::size_t i = 0; i < sv_count_; ++i) {
    WriteF64(out, alphas_[i]);
    const double* sv = sv_data_.data() + i * sv_dim_;
    for (std::size_t d = 0; d < sv_dim_; ++d) WriteF64(out, sv[d]);
  }
  if (!out) throw std::runtime_error("OneClassSvm::Save: write failed");
}

OneClassSvm OneClassSvm::Load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("OneClassSvm::Load: cannot open " +
                             path.string());
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("OneClassSvm::Load: bad magic");
  }
  const std::uint64_t count = ReadU64(in);
  const std::uint64_t dim = ReadU64(in);
  OneClassSvm model;
  model.rho_ = ReadF64(in);
  model.gamma_ = ReadF64(in);
  model.config_.gamma = model.gamma_;
  model.config_.nu = ReadF64(in);
  // The header's sizes are bounded by the doubles left in the file before
  // anything is allocated: the scaler's 2 x dim, then count records of
  // (alpha, sv[dim]). Divisions, so a corrupt size cannot overflow.
  const auto here = static_cast<std::uint64_t>(in.tellg());
  const std::uint64_t size = std::filesystem::file_size(path);
  std::uint64_t doubles_left =
      (size > here ? size - here : 0) / sizeof(double);
  if (dim > doubles_left / 2) {
    throw std::runtime_error("OneClassSvm::Load: scaler exceeds the file");
  }
  doubles_left -= 2 * dim;
  if (count > doubles_left / (dim + 1)) {
    throw std::runtime_error(
        "OneClassSvm::Load: support vectors exceed the file");
  }
  std::vector<double> mean(dim);
  std::vector<double> stddev(dim);
  ReadF64s(in, mean);
  ReadF64s(in, stddev);
  model.scaler_.SetState(std::move(mean), std::move(stddev));
  // The support-vector block in one read, then split into alphas and the
  // flat SV rows; squared norms accumulate in ascending d exactly as Fit
  // computes them, so decisions are bit-identical to the saved model.
  std::vector<double> block(count * (dim + 1));
  ReadF64s(in, block);
  model.sv_count_ = count;
  model.sv_dim_ = dim;
  model.sv_data_.resize(count * dim);
  model.sv_sq_norms_.resize(count);
  model.alphas_.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const double* record = block.data() + i * (dim + 1);
    model.alphas_[i] = record[0];
    double* sv = model.sv_data_.data() + i * dim;
    double s = 0.0;
    for (std::uint64_t d = 0; d < dim; ++d) {
      sv[d] = record[1 + d];
      s += sv[d] * sv[d];
    }
    model.sv_sq_norms_[i] = s;
  }
  return model;
}

}  // namespace osap::svm
