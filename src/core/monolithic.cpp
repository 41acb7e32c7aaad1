#include "core/monolithic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/dtype.hpp"
#include "tensor/ops.hpp"

namespace sh::core {

MonolithicTrainer::MonolithicTrainer(nn::GptModel& model,
                                     const optim::AdamConfig& adam,
                                     TrainOptions options)
    : model_(model),
      adam_(adam),
      options_(std::move(options)),
      scaler_(options_.loss_scaler),
      store_(model, adam_.state_per_param()) {}

MonolithicTrainer::MonolithicTrainer(nn::GptModel& model,
                                     const optim::AdamConfig& adam,
                                     float clip_grad_norm,
                                     optim::LrSchedule lr_schedule)
    : MonolithicTrainer(model, adam,
                        TrainOptions{.clip_grad_norm = clip_grad_norm,
                                     .lr_schedule = std::move(lr_schedule)}) {}

bool MonolithicTrainer::rounds_layer(std::size_t i) const noexcept {
  switch (options_.window_dtype) {
    case tensor::DType::f16:
      return true;
    case tensor::DType::bf16:
      return i != 0 && i + 1 != store_.size();
    default:
      return false;
  }
}

void MonolithicTrainer::round_window(float* data,
                                     std::size_t n) const noexcept {
  if (options_.window_dtype == tensor::DType::f16) {
    tensor::quantize_f16_inplace(data, n);
  } else {
    tensor::quantize_bf16_inplace(data, n);
  }
}

void MonolithicTrainer::init_params(std::uint64_t seed) {
  store_.init_params(seed);
  staged_params_.assign(store_.size(), {});
  for (std::size_t i = 0; i < store_.size(); ++i) {
    if (!rounds_layer(i)) continue;
    staged_params_[i] = store_.state(i).cpu_params;
    round_window(staged_params_[i].data(), staged_params_[i].size());
  }
}

float MonolithicTrainer::train_step(const data::Batch& batch) {
  const std::int64_t seq = model_.config().max_seq;
  const std::int64_t bs = static_cast<std::int64_t>(batch.ids.size()) / seq;
  const nn::BatchShape shape{bs, seq, /*training=*/true,
                             static_cast<std::int64_t>(iterations_),
                             /*row_offset=*/0};
  const bool fp16 = options_.window_dtype == tensor::DType::f16;

  for (std::size_t i = 0; i < store_.size(); ++i) {
    LayerState& st = store_.state(i);
    std::fill(st.cpu_grads.begin(), st.cpu_grads.end(), 0.0f);
    // Rounded layers compute on the staged copy; FP32 masters are only
    // touched by the optimizer.
    float* params =
        rounds_layer(i) ? staged_params_[i].data() : st.cpu_params.data();
    st.layer->bind(params, st.cpu_grads.data());
  }

  tensor::Tensor logits = model_.forward(batch.ids, shape);
  tensor::Tensor grad_logits;
  const float loss = nn::lm_loss(logits, batch.targets, grad_logits);
  const float loss_scale = fp16 ? scaler_.scale() : 1.0f;
  if (loss_scale != 1.0f) {
    tensor::scale(loss_scale, grad_logits.data(), grad_logits.numel());
  }
  model_.backward(grad_logits, shape);

  // Window wire format (+ f16 overflow detection), as in the engine's d2h
  // path.
  bool overflow = false;
  for (std::size_t i = 0; i < store_.size(); ++i) {
    if (!rounds_layer(i)) continue;
    LayerState& st = store_.state(i);
    round_window(st.cpu_grads.data(), st.cpu_grads.size());
    if (fp16) {
      for (float g : st.cpu_grads) {
        if (!std::isfinite(g)) {
          overflow = true;
          break;
        }
      }
    }
  }
  const bool skip = fp16 && !scaler_.update(overflow);
  const float lr = options_.lr_schedule
                       ? options_.lr_schedule(
                             static_cast<std::int64_t>(iterations_) + 1)
                       : -1.0f;
  ++iterations_;
  if (skip) return loss;

  // Combined gradient multiplier: undo the loss scale, clip on the unscaled
  // norm (per-layer sums in layer order, matching the engine).
  float combined = 1.0f / loss_scale;
  if (options_.clip_grad_norm > 0.0f) {
    double total = 0.0;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      LayerState& st = store_.state(i);
      total += tensor::dot(st.cpu_grads.data(), st.cpu_grads.data(),
                           st.params);
    }
    const double norm_scaled = std::sqrt(total);
    if (norm_scaled / loss_scale > options_.clip_grad_norm) {
      combined = static_cast<float>(options_.clip_grad_norm / norm_scaled);
    }
  }

  for (std::size_t i = 0; i < store_.size(); ++i) {
    LayerState& st = store_.state(i);
    if (combined != 1.0f) {
      tensor::scale(combined, st.cpu_grads.data(), st.params);
    }
    ++st.step;
    adam_.step(st.cpu_params.data(), st.cpu_grads.data(), st.cpu_opt.data(),
               st.step, st.params, lr);
    if (rounds_layer(i)) {
      staged_params_[i] = st.cpu_params;
      round_window(staged_params_[i].data(), staged_params_[i].size());
    }
  }
  return loss;
}

void MonolithicTrainer::snapshot_params(std::vector<float>& out) const {
  out.clear();
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const LayerState& st = store_.state(i);
    out.insert(out.end(), st.cpu_params.begin(), st.cpu_params.end());
  }
}

}  // namespace sh::core
