// Conventional all-in-memory training (the Megatron-LM-style reference).
//
// Every layer's parameters, gradients and optimizer state live in one memory
// space; updates run serially layer by layer after the backward pass. This is
// both the correctness oracle for StrongholdEngine (bit-identical results
// expected) and the "conventional training" comparator in the examples.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layer_store.hpp"
#include "core/loss_scaler.hpp"
#include "data/synthetic.hpp"
#include "nn/gpt.hpp"
#include "optim/optimizer.hpp"
#include "optim/schedule.hpp"
#include "tensor/dtype.hpp"

namespace sh::core {

/// Options mirroring the engine's training features so the oracle covers
/// every path: clipping, schedules and reduced-precision windows.
struct TrainOptions {
  float clip_grad_norm = 0.0f;
  optim::LrSchedule lr_schedule{};
  /// The engine window_dtype this oracle mirrors (nearest-even rounding).
  /// f16 computes every layer on f16-rounded parameters with f16-rounded
  /// gradients and dynamic loss scaling. bf16 rounds only the transformer
  /// blocks' parameters and gradients: the engine keeps the pinned
  /// embedding and head in f32, and bf16 needs no loss scaling.
  tensor::DType window_dtype = tensor::DType::f32;
  LossScalerConfig loss_scaler{};
};

class MonolithicTrainer {
 public:
  MonolithicTrainer(nn::GptModel& model, const optim::AdamConfig& adam,
                    TrainOptions options);
  MonolithicTrainer(nn::GptModel& model, const optim::AdamConfig& adam,
                    float clip_grad_norm = 0.0f,
                    optim::LrSchedule lr_schedule = {});

  /// Deterministic initialisation — the same layer-order Rng walk as
  /// LayerStore::init_params, so both trainers start from identical weights.
  void init_params(std::uint64_t seed);

  /// One training iteration; returns the mean LM loss.
  float train_step(const data::Batch& batch);

  /// Concatenated per-layer parameters (same layout as
  /// StrongholdEngine::snapshot_params).
  void snapshot_params(std::vector<float>& out) const;

  std::size_t iterations() const noexcept { return iterations_; }

  /// FP16 statistics (loss scale, skipped steps).
  const LossScaler& scaler() const noexcept { return scaler_; }

 private:
  /// True when layer `i` computes on a rounded copy of its master.
  bool rounds_layer(std::size_t i) const noexcept;
  /// Rounds `n` values through the window dtype in place.
  void round_window(float* data, std::size_t n) const noexcept;

  nn::GptModel& model_;
  optim::Adam adam_;
  TrainOptions options_;
  LossScaler scaler_;
  LayerStore store_;  // reused purely as the flat state container
  // Reduced-precision windows: per-layer device-format (rounded) parameter
  // copies the model computes on; the FP32 masters live in store_.
  std::vector<std::vector<float>> staged_params_;
  std::size_t iterations_ = 0;
};

}  // namespace sh::core
