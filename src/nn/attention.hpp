// Multi-head causal self-attention (GPT style).
#pragma once

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace sh::nn {

class CausalSelfAttention final : public Layer {
 public:
  CausalSelfAttention(std::string name, std::int64_t hidden,
                      std::int64_t heads);

  std::string name() const override { return name_; }
  std::int64_t param_count() const override {
    return qkv_.param_count() + proj_.param_count();
  }
  void bind(float* params, float* grads) override;
  void init(tensor::Rng& rng) override;
  tensor::Tensor forward(const tensor::Tensor& x,
                         const BatchShape& shape) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out,
                          const BatchShape& shape) override;

  /// KV-cached decode: appends the new tokens' keys/values to `cache` and
  /// attends over the whole prefix.
  tensor::Tensor forward_incremental(const tensor::Tensor& x,
                                     const BatchShape& shape,
                                     KvCache& cache) override;

 private:
  std::string name_;
  std::int64_t hidden_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Linear qkv_;
  Linear proj_;
  tensor::Tensor cached_qkv_;  // [tokens, 3*hidden]
  // Context output plus per-row online-softmax stats ([2, batch*heads*seq]:
  // running max, normaliser) — O(seq * hidden) total; the backward
  // recomputes tile scores from cached_qkv_ + these.
  tensor::Tensor cached_ctx_;    // [tokens, hidden]
  tensor::Tensor cached_stats_;  // [2, batch*heads*seq]
};

}  // namespace sh::nn
