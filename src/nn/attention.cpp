#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/attention_kernel.hpp"

namespace sh::nn {

CausalSelfAttention::CausalSelfAttention(std::string name, std::int64_t hidden,
                                         std::int64_t heads)
    : name_(std::move(name)),
      hidden_(hidden),
      heads_(heads),
      head_dim_(hidden / heads),
      qkv_(name_ + ".qkv", hidden, 3 * hidden),
      proj_(name_ + ".proj", hidden, hidden) {
  if (hidden % heads != 0) {
    throw std::invalid_argument("hidden must be divisible by heads");
  }
}

void CausalSelfAttention::bind(float* params, float* grads) {
  qkv_.bind(params, grads);
  const std::int64_t off = qkv_.param_count();
  proj_.bind(params + off, grads + off);
}

void CausalSelfAttention::init(tensor::Rng& rng) {
  qkv_.init(rng);
  proj_.init(rng);
}

tensor::Tensor CausalSelfAttention::forward(const tensor::Tensor& x,
                                            const BatchShape& shape) {
  const std::int64_t seq = shape.seq;
  const std::int64_t bs = shape.batch;
  const std::int64_t tokens = shape.tokens();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  cached_qkv_ = qkv_.forward(x, shape);
  const std::int64_t stride = 3 * hidden_;

  // One-pass tiled kernel straight over the strided QKV head planes — no
  // gather copies, no [seq, seq] probability tensor. Only the context and
  // the per-row (max, normaliser) stats are kept for the backward.
  cached_ctx_ = tensor::Tensor::zeros({tokens, hidden_});
  cached_stats_ = tensor::Tensor::zeros({2, bs * heads_ * seq});
  const tensor::AttnPlanes qpl{cached_qkv_.data(), seq * stride, head_dim_,
                               stride};
  const tensor::AttnPlanes kpl{cached_qkv_.data() + hidden_, seq * stride,
                               head_dim_, stride};
  const tensor::AttnPlanes vpl{cached_qkv_.data() + 2 * hidden_, seq * stride,
                               head_dim_, stride};
  const tensor::AttnPlanesMut opl{cached_ctx_.data(), seq * hidden_,
                                  head_dim_, hidden_};
  float* row_max = cached_stats_.data();
  float* row_sum = cached_stats_.data() + bs * heads_ * seq;
  tensor::attention_forward(qpl, kpl, vpl, opl, row_max, row_sum, bs, heads_,
                            seq, seq, head_dim_, /*causal_offset=*/0, scale);
  return proj_.forward(cached_ctx_, shape);
}

tensor::Tensor CausalSelfAttention::forward_incremental(
    const tensor::Tensor& x, const BatchShape& shape, KvCache& cache) {
  const std::int64_t bs = shape.batch;
  const std::int64_t n_new = shape.seq;
  const std::int64_t pos0 = shape.pos_offset;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  if (!cache.k.defined()) {
    throw std::logic_error("forward_incremental: cache not initialised");
  }
  if (cache.length != pos0) {
    throw std::logic_error("forward_incremental: cache length mismatch");
  }
  if (pos0 + n_new > cache.capacity) {
    throw std::out_of_range("forward_incremental: cache capacity exceeded");
  }

  auto qkv = qkv_.forward(x, shape);
  auto ctx = tensor::Tensor::zeros({bs * n_new, hidden_});
  const std::int64_t total = pos0 + n_new;
  const std::int64_t stride = 3 * hidden_;

  // Append the new tokens' K and V to the cache planes.
  for (std::int64_t b = 0; b < bs; ++b) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::int64_t col = h * head_dim_;
      float* kc = cache.k.data() +
                  ((b * heads_ + h) * cache.capacity) * head_dim_;
      float* vc = cache.v.data() +
                  ((b * heads_ + h) * cache.capacity) * head_dim_;
      for (std::int64_t t = 0; t < n_new; ++t) {
        const float* row = qkv.data() + (b * n_new + t) * stride;
        std::copy_n(row + hidden_ + col, head_dim_,
                    kc + (pos0 + t) * head_dim_);
        std::copy_n(row + 2 * hidden_ + col, head_dim_,
                    vc + (pos0 + t) * head_dim_);
      }
    }
  }

  // Same fused kernel as training: queries are the new tokens, keys/values
  // the cache prefix, causal offset = prefix length. Stats are not needed
  // (no backward through decode).
  const tensor::AttnPlanes qpl{qkv.data(), n_new * stride, head_dim_, stride};
  const tensor::AttnPlanes kpl{cache.k.data(),
                               heads_ * cache.capacity * head_dim_,
                               cache.capacity * head_dim_, head_dim_};
  const tensor::AttnPlanes vpl{cache.v.data(),
                               heads_ * cache.capacity * head_dim_,
                               cache.capacity * head_dim_, head_dim_};
  const tensor::AttnPlanesMut opl{ctx.data(), n_new * hidden_, head_dim_,
                                  hidden_};
  tensor::attention_forward(qpl, kpl, vpl, opl, nullptr, nullptr, bs, heads_,
                            n_new, total, head_dim_, /*causal_offset=*/pos0,
                            scale);
  cache.length = total;
  return proj_.forward(ctx, shape);
}

tensor::Tensor CausalSelfAttention::backward(const tensor::Tensor& grad_out,
                                             const BatchShape& shape) {
  const std::int64_t seq = shape.seq;
  const std::int64_t bs = shape.batch;
  const std::int64_t tokens = shape.tokens();
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  auto grad_ctx = proj_.backward(grad_out, shape);
  auto grad_qkv = tensor::Tensor::zeros({tokens, 3 * hidden_});
  const std::int64_t stride = 3 * hidden_;

  // Tile scores are recomputed from cached Q/K/V plus the saved per-row
  // stats; dQ/dK/dV land directly in their strided grad-QKV head planes.
  const tensor::AttnPlanes qpl{cached_qkv_.data(), seq * stride, head_dim_,
                               stride};
  const tensor::AttnPlanes kpl{cached_qkv_.data() + hidden_, seq * stride,
                               head_dim_, stride};
  const tensor::AttnPlanes vpl{cached_qkv_.data() + 2 * hidden_, seq * stride,
                               head_dim_, stride};
  const tensor::AttnPlanes opl{cached_ctx_.data(), seq * hidden_, head_dim_,
                               hidden_};
  const tensor::AttnPlanes gpl{grad_ctx.data(), seq * hidden_, head_dim_,
                               hidden_};
  const tensor::AttnPlanesMut dqpl{grad_qkv.data(), seq * stride, head_dim_,
                                   stride};
  const tensor::AttnPlanesMut dkpl{grad_qkv.data() + hidden_, seq * stride,
                                   head_dim_, stride};
  const tensor::AttnPlanesMut dvpl{grad_qkv.data() + 2 * hidden_, seq * stride,
                                   head_dim_, stride};
  const float* row_max = cached_stats_.data();
  const float* row_sum = cached_stats_.data() + bs * heads_ * seq;
  tensor::attention_backward(qpl, kpl, vpl, opl, gpl, row_max, row_sum, dqpl,
                             dkpl, dvpl, bs, heads_, seq, head_dim_, scale);
  return qkv_.backward(grad_qkv, shape);
}

}  // namespace sh::nn
