#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parallel/parallel_for.hpp"
#include "tensor/gelu_scalar.hpp"

namespace sh::tensor {

// matmul / matmul_bias / matmul_bias_gelu live in gemm.cpp (blocked GEMM).

namespace {
constexpr std::size_t kRowGrain = 4;
// Column-slice grain for column-partitioned reductions (bias_grad,
// embedding_scatter_add): wide enough that each slice spans whole cache
// lines, so threads never write-share a line.
constexpr std::size_t kColGrain = 64;

using detail::gelu_grad_scalar;
using detail::gelu_scalar;
}  // namespace

void add_bias(const float* in, const float* bias, float* out, std::int64_t rows,
              std::int64_t cols) {
  sh::parallel::parallel_for(0, static_cast<std::size_t>(rows), kRowGrain,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t r = lo; r < hi; ++r) {
                                 const float* i = in + r * cols;
                                 float* o = out + r * cols;
                                 for (std::int64_t c = 0; c < cols; ++c) {
                                   o[c] = i[c] + bias[c];
                                 }
                               }
                             });
}

void bias_grad(const float* grad, float* bg, std::int64_t rows,
               std::int64_t cols) {
  // Each thread owns a disjoint column slice and sums rows in ascending
  // order — race-free and bit-identical to the serial loop.
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(cols), kColGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* g = grad + r * cols;
          for (std::size_t c = lo; c < hi; ++c) bg[c] += g[c];
        }
      });
}

void gelu_forward(const float* in, float* out, std::int64_t n) {
  sh::parallel::parallel_for(0, static_cast<std::size_t>(n), 1024,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) {
                                 out[i] = gelu_scalar(in[i]);
                               }
                             });
}

void gelu_backward(const float* in, const float* grad_out, float* grad_in,
                   std::int64_t n) {
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(n), 1024,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          grad_in[i] = grad_out[i] * gelu_grad_scalar(in[i]);
        }
      });
}

void gelu_backward_bias_grad(const float* in, const float* grad_out,
                             float* grad_in, float* bg, std::int64_t rows,
                             std::int64_t cols) {
  // Column-partitioned like bias_grad so the bg accumulation is race-free;
  // grad_in entries are written exactly once each. Per element the math is
  // gelu_backward's followed by bias_grad's, so the fusion is exact.
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(cols), kColGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* x = in + r * cols;
          const float* go = grad_out + r * cols;
          float* gi = grad_in + r * cols;
          for (std::size_t c = lo; c < hi; ++c) {
            const float g = go[c] * gelu_grad_scalar(x[c]);
            gi[c] = g;
            bg[c] += g;
          }
        }
      });
}

void softmax_rows(const float* in, float* out, std::int64_t rows,
                  std::int64_t cols) {
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(rows), kRowGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* x = in + r * cols;
          float* y = out + r * cols;
          float mx = -std::numeric_limits<float>::infinity();
          for (std::int64_t c = 0; c < cols; ++c) mx = std::max(mx, x[c]);
          float sum = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) {
            y[c] = std::exp(x[c] - mx);
            sum += y[c];
          }
          const float inv = 1.0f / sum;
          for (std::int64_t c = 0; c < cols; ++c) y[c] *= inv;
        }
      });
}

void layernorm_forward(const float* x, const float* gamma, const float* beta,
                       float* y, LayerNormStats* stats, std::int64_t rows,
                       std::int64_t cols, float eps) {
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(rows), kRowGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* xr = x + r * cols;
          float* yr = y + r * cols;
          float mean = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) mean += xr[c];
          mean /= static_cast<float>(cols);
          float var = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) {
            const float d = xr[c] - mean;
            var += d * d;
          }
          var /= static_cast<float>(cols);
          const float rstd = 1.0f / std::sqrt(var + eps);
          stats[r] = {mean, rstd};
          for (std::int64_t c = 0; c < cols; ++c) {
            yr[c] = (xr[c] - mean) * rstd * gamma[c] + beta[c];
          }
        }
      });
}

void layernorm_backward(const float* x, const float* gamma,
                        const LayerNormStats* stats, const float* grad_y,
                        float* grad_x, float* dgamma, float* dbeta,
                        std::int64_t rows, std::int64_t cols) {
  // dgamma/dbeta accumulation is serial over rows (shared accumulators).
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    const float* gy = grad_y + r * cols;
    const float mean = stats[r].mean;
    const float rstd = stats[r].rstd;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * rstd;
      dgamma[c] += gy[c] * xhat;
      dbeta[c] += gy[c];
    }
  }
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(rows), kRowGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* xr = x + r * cols;
          const float* gy = grad_y + r * cols;
          float* gx = grad_x + r * cols;
          const float mean = stats[r].mean;
          const float rstd = stats[r].rstd;
          float sum_g = 0.0f;
          float sum_gx = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) {
            const float g = gy[c] * gamma[c];
            const float xhat = (xr[c] - mean) * rstd;
            sum_g += g;
            sum_gx += g * xhat;
          }
          const float inv_cols = 1.0f / static_cast<float>(cols);
          for (std::int64_t c = 0; c < cols; ++c) {
            const float g = gy[c] * gamma[c];
            const float xhat = (xr[c] - mean) * rstd;
            gx[c] = rstd * (g - inv_cols * (sum_g + xhat * sum_gx));
          }
        }
      });
}

void embedding_gather(const float* table, const std::int32_t* ids, float* out,
                      std::int64_t rows, std::int64_t cols) {
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(rows), kRowGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* src = table + static_cast<std::int64_t>(ids[r]) * cols;
          std::copy_n(src, cols, out + r * cols);
        }
      });
}

void embedding_scatter_add(const float* grad, const std::int32_t* ids,
                           float* table_grad, std::int64_t rows,
                           std::int64_t cols) {
  // Duplicate ids make row-parallel scatter racy, so threads partition the
  // *columns*: each owns a disjoint column slice of every table row and
  // walks rows in ascending order — race-free and deterministic.
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(cols), kColGrain,
      [&](std::size_t lo, std::size_t hi) {
        for (std::int64_t r = 0; r < rows; ++r) {
          float* dst = table_grad + static_cast<std::int64_t>(ids[r]) * cols;
          const float* src = grad + r * cols;
          for (std::size_t c = lo; c < hi; ++c) dst[c] += src[c];
        }
      });
}

float cross_entropy(const float* logits, const std::int32_t* targets,
                    float* grad_logits, std::int64_t rows,
                    std::int64_t classes) {
  double loss = 0.0;
  const float inv_rows = 1.0f / static_cast<float>(rows);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = logits + r * classes;
    float* g = grad_logits + r * classes;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < classes; ++c) mx = std::max(mx, x[c]);
    double sum = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      g[c] = std::exp(x[c] - mx);
      sum += g[c];
    }
    const auto t = static_cast<std::int64_t>(targets[r]);
    loss += -(static_cast<double>(x[t]) - mx - std::log(sum));
    const float inv = static_cast<float>(1.0 / sum);
    for (std::int64_t c = 0; c < classes; ++c) g[c] *= inv * inv_rows;
    g[t] -= inv_rows;
  }
  return static_cast<float>(loss / static_cast<double>(rows));
}

void axpy(float alpha, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float alpha, float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void add(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

float dot(const float* a, const float* b, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

float l2_norm(const float* a, std::int64_t n) {
  return std::sqrt(dot(a, a, n));
}

float max_abs_diff(const float* a, const float* b, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace sh::tensor
