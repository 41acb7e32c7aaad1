// Attention test oracle: the materialised-probs causal self-attention the
// fused tiled kernel (src/tensor/attention_kernel.cpp) replaced. Scores
// GEMM -> full-row masked softmax -> context GEMM per (batch, head), with
// the [batch*heads*seq, seq] probability matrix kept for the backward, and
// a KV-cached decode on the same math. test_attention_kernel pins
// nn::CausalSelfAttention against it, and bench_kernels reports the fused
// layer's time and activation bytes against it. Header-only; the library
// never includes it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace sh::testing {

/// Backward of row-wise softmax: grad_in = (grad_out - dot(grad_out, y)) * y.
inline void softmax_rows_backward(const float* y, const float* grad_out,
                                  float* grad_in, std::int64_t rows,
                                  std::int64_t cols) {
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(rows), 4,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* yr = y + r * cols;
          const float* go = grad_out + r * cols;
          float* gi = grad_in + r * cols;
          float d = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) d += go[c] * yr[c];
          for (std::int64_t c = 0; c < cols; ++c) gi[c] = (go[c] - d) * yr[c];
        }
      });
}

/// Row-wise scaled masked softmax used by causal attention.
/// Scores is rows x cols; entries with col > allowed[row] become 0.
inline void causal_softmax_rows(float* scores, std::int64_t rows,
                                std::int64_t cols, const std::int64_t* allowed,
                                float scale) {
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(rows), 4,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          float* x = scores + r * cols;
          const std::int64_t lim = allowed[r];
          float mx = -std::numeric_limits<float>::infinity();
          for (std::int64_t c = 0; c <= lim; ++c) {
            x[c] *= scale;
            mx = std::max(mx, x[c]);
          }
          float sum = 0.0f;
          for (std::int64_t c = 0; c <= lim; ++c) {
            x[c] = std::exp(x[c] - mx);
            sum += x[c];
          }
          const float inv = 1.0f / sum;
          for (std::int64_t c = 0; c <= lim; ++c) x[c] *= inv;
          for (std::int64_t c = lim + 1; c < cols; ++c) x[c] = 0.0f;
        }
      });
}

/// Same parameter layout as nn::CausalSelfAttention (qkv Linear, then proj
/// Linear, in one flat blob), so both can be bound to identical parameters
/// and compared output-for-output and gradient-for-gradient.
class AttentionRef {
 public:
  AttentionRef(std::int64_t hidden, std::int64_t heads)
      : hidden_(hidden),
        heads_(heads),
        head_dim_(hidden / heads),
        qkv_("ref.qkv", hidden, 3 * hidden),
        proj_("ref.proj", hidden, hidden) {}

  std::int64_t param_count() const {
    return qkv_.param_count() + proj_.param_count();
  }

  void bind(float* params, float* grads) {
    qkv_.bind(params, grads);
    const std::int64_t off = qkv_.param_count();
    proj_.bind(params + off, grads + off);
  }

  tensor::Tensor forward(const tensor::Tensor& x, const nn::BatchShape& shape) {
    const std::int64_t seq = shape.seq;
    const std::int64_t bs = shape.batch;
    const std::int64_t stride = 3 * hidden_;
    cached_qkv_ = qkv_.forward(x, shape);
    cached_probs_ = tensor::Tensor::zeros({bs * heads_ * seq, seq});
    auto ctx = tensor::Tensor::zeros({shape.tokens(), hidden_});

    std::vector<float> q(seq * head_dim_), k(seq * head_dim_),
        v(seq * head_dim_), c(seq * head_dim_);
    std::vector<std::int64_t> allowed(static_cast<std::size_t>(seq));
    for (std::int64_t t = 0; t < seq; ++t) allowed[t] = t;

    for (std::int64_t b = 0; b < bs; ++b) {
      for (std::int64_t h = 0; h < heads_; ++h) {
        const std::int64_t col = h * head_dim_;
        gather_head(cached_qkv_.data(), q.data(), b * seq, seq, col, stride);
        gather_head(cached_qkv_.data(), k.data(), b * seq, seq, hidden_ + col,
                    stride);
        gather_head(cached_qkv_.data(), v.data(), b * seq, seq,
                    2 * hidden_ + col, stride);
        float* probs = cached_probs_.data() + (b * heads_ + h) * seq * seq;
        tensor::matmul(q.data(), k.data(), probs, seq, seq, head_dim_,
                       /*transpose_a=*/false, /*transpose_b=*/true);
        causal_softmax_rows(probs, seq, seq, allowed.data(), scale());
        tensor::matmul(probs, v.data(), c.data(), seq, head_dim_, seq, false,
                       false);
        for (std::int64_t t = 0; t < seq; ++t) {
          std::copy_n(c.data() + t * head_dim_, head_dim_,
                      ctx.data() + (b * seq + t) * hidden_ + col);
        }
      }
    }
    return proj_.forward(ctx, shape);
  }

  tensor::Tensor backward(const tensor::Tensor& grad_out,
                          const nn::BatchShape& shape) {
    const std::int64_t seq = shape.seq;
    const std::int64_t bs = shape.batch;
    const std::int64_t stride = 3 * hidden_;
    auto grad_ctx = proj_.backward(grad_out, shape);
    auto grad_qkv = tensor::Tensor::zeros({shape.tokens(), stride});

    std::vector<float> q(seq * head_dim_), k(seq * head_dim_),
        v(seq * head_dim_);
    std::vector<float> gc(seq * head_dim_), gq(seq * head_dim_),
        gk(seq * head_dim_), gv(seq * head_dim_);
    std::vector<float> gprobs(seq * seq), gscores(seq * seq);

    for (std::int64_t b = 0; b < bs; ++b) {
      for (std::int64_t h = 0; h < heads_; ++h) {
        const std::int64_t col = h * head_dim_;
        gather_head(cached_qkv_.data(), q.data(), b * seq, seq, col, stride);
        gather_head(cached_qkv_.data(), k.data(), b * seq, seq, hidden_ + col,
                    stride);
        gather_head(cached_qkv_.data(), v.data(), b * seq, seq,
                    2 * hidden_ + col, stride);
        gather_head(grad_ctx.data(), gc.data(), b * seq, seq, col, hidden_);
        const float* probs =
            cached_probs_.data() + (b * heads_ + h) * seq * seq;
        // d probs = d ctx @ V^T;  d V = probs^T @ d ctx.
        tensor::matmul(gc.data(), v.data(), gprobs.data(), seq, seq, head_dim_,
                       false, true);
        tensor::matmul(probs, gc.data(), gv.data(), seq, head_dim_, seq,
                       /*transpose_a=*/true, false);
        // Masked positions have probs == 0, so their grads vanish; the
        // 1/sqrt(d) scale folds into the raw scores.
        softmax_rows_backward(probs, gprobs.data(), gscores.data(), seq, seq);
        tensor::scale(scale(), gscores.data(), seq * seq);
        // d Q = d scores @ K;  d K = d scores^T @ Q.
        tensor::matmul(gscores.data(), k.data(), gq.data(), seq, head_dim_,
                       seq, false, false);
        tensor::matmul(gscores.data(), q.data(), gk.data(), seq, head_dim_,
                       seq, /*transpose_a=*/true, false);
        scatter_head_add(gq.data(), grad_qkv.data(), b * seq, seq, col,
                         stride);
        scatter_head_add(gk.data(), grad_qkv.data(), b * seq, seq,
                         hidden_ + col, stride);
        scatter_head_add(gv.data(), grad_qkv.data(), b * seq, seq,
                         2 * hidden_ + col, stride);
      }
    }
    return qkv_.backward(grad_qkv, shape);
  }

  /// KV-cached decode with the same cache layout as the production layer
  /// ([batch, heads, capacity, head_dim] planes): appends the new tokens'
  /// K/V, then attends the new queries over the cached prefix through a
  /// materialised [n_new, prefix] probability matrix.
  tensor::Tensor forward_incremental(const tensor::Tensor& x,
                                     const nn::BatchShape& shape,
                                     nn::KvCache& cache) {
    const std::int64_t bs = shape.batch;
    const std::int64_t n_new = shape.seq;
    const std::int64_t pos0 = shape.pos_offset;
    const std::int64_t total = pos0 + n_new;
    const std::int64_t stride = 3 * hidden_;
    if (cache.length != pos0 || total > cache.capacity) {
      throw std::logic_error("AttentionRef: cache length/capacity mismatch");
    }
    auto qkv = qkv_.forward(x, shape);
    auto ctx = tensor::Tensor::zeros({bs * n_new, hidden_});
    std::vector<float> q(n_new * head_dim_), c(n_new * head_dim_);
    std::vector<float> probs(n_new * total);
    std::vector<std::int64_t> allowed(static_cast<std::size_t>(n_new));
    for (std::int64_t t = 0; t < n_new; ++t) allowed[t] = pos0 + t;

    for (std::int64_t b = 0; b < bs; ++b) {
      for (std::int64_t h = 0; h < heads_; ++h) {
        const std::int64_t col = h * head_dim_;
        const std::int64_t plane = (b * heads_ + h) * cache.capacity;
        float* kc = cache.k.data() + plane * head_dim_;
        float* vc = cache.v.data() + plane * head_dim_;
        gather_head(qkv.data(), kc + pos0 * head_dim_, b * n_new, n_new,
                    hidden_ + col, stride);
        gather_head(qkv.data(), vc + pos0 * head_dim_, b * n_new, n_new,
                    2 * hidden_ + col, stride);
        gather_head(qkv.data(), q.data(), b * n_new, n_new, col, stride);
        tensor::matmul(q.data(), kc, probs.data(), n_new, total, head_dim_,
                       /*transpose_a=*/false, /*transpose_b=*/true);
        causal_softmax_rows(probs.data(), n_new, total, allowed.data(),
                            scale());
        tensor::matmul(probs.data(), vc, c.data(), n_new, head_dim_, total,
                       false, false);
        for (std::int64_t t = 0; t < n_new; ++t) {
          std::copy_n(c.data() + t * head_dim_, head_dim_,
                      ctx.data() + (b * n_new + t) * hidden_ + col);
        }
      }
    }
    cache.length = total;
    return proj_.forward(ctx, shape);
  }

 private:
  float scale() const {
    return 1.0f / std::sqrt(static_cast<float>(head_dim_));
  }

  /// Copies a [seq, head_dim] head slice out of [tokens, stride] storage.
  void gather_head(const float* src, float* dst, std::int64_t base_row,
                   std::int64_t seq, std::int64_t col0,
                   std::int64_t stride) const {
    for (std::int64_t t = 0; t < seq; ++t) {
      std::copy_n(src + (base_row + t) * stride + col0, head_dim_,
                  dst + t * head_dim_);
    }
  }

  /// Adds a [seq, head_dim] head slice back into [tokens, stride] storage.
  void scatter_head_add(const float* src, float* dst, std::int64_t base_row,
                        std::int64_t seq, std::int64_t col0,
                        std::int64_t stride) const {
    for (std::int64_t t = 0; t < seq; ++t) {
      float* d = dst + (base_row + t) * stride + col0;
      const float* s = src + t * head_dim_;
      for (std::int64_t c = 0; c < head_dim_; ++c) d[c] += s[c];
    }
  }

  std::int64_t hidden_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  nn::Linear qkv_;
  nn::Linear proj_;
  tensor::Tensor cached_qkv_;    // [tokens, 3*hidden]
  tensor::Tensor cached_probs_;  // [batch*heads*seq, seq]
};

}  // namespace sh::testing
