// Mixed-precision training: loss scaler dynamics, engine/oracle equivalence
// with an f16 working window, overflow skipping, and convergence.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/loss_scaler.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "tensor/dtype.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

TEST(LossScaler, BacksOffOnOverflowAndRegrows) {
  LossScaler s({.initial_scale = 1024.0f,
                .growth_factor = 2.0f,
                .backoff_factor = 0.5f,
                .growth_interval = 3});
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
  EXPECT_FALSE(s.update(true));  // overflow: skip + halve
  EXPECT_FLOAT_EQ(s.scale(), 512.0f);
  EXPECT_TRUE(s.update(false));
  EXPECT_TRUE(s.update(false));
  EXPECT_FLOAT_EQ(s.scale(), 512.0f);  // not yet grown
  EXPECT_TRUE(s.update(false));        // third good step: double
  EXPECT_FLOAT_EQ(s.scale(), 1024.0f);
  EXPECT_EQ(s.skipped_steps(), 1);
}

TEST(LossScaler, RespectsBounds) {
  LossScaler s({.initial_scale = 2.0f,
                .growth_factor = 2.0f,
                .backoff_factor = 0.5f,
                .growth_interval = 1,
                .max_scale = 4.0f,
                .min_scale = 1.0f});
  s.update(true);
  s.update(true);
  EXPECT_FLOAT_EQ(s.scale(), 1.0f);  // clamped at min
  s.update(false);
  s.update(false);
  s.update(false);
  EXPECT_FLOAT_EQ(s.scale(), 4.0f);  // clamped at max
}

// Eight blocks: a window of 2 reserves 4 slots, so half the model streams
// every step.
nn::GptConfig tiny_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 8;
  return cfg;
}

TEST(Fp16Engine, MatchesFp16MonolithicBitwise) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 90);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  TrainOptions opts;
  opts.window_dtype = tensor::DType::f16;
  opts.loss_scaler.initial_scale = 128.0f;
  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{}, opts);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_dtype = tensor::DType::f16;
  ecfg.loss_scaler.initial_scale = 128.0f;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);

  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Fp16Engine, Fp16WithClippingMatchesOracle) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 91);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  TrainOptions opts;
  opts.window_dtype = tensor::DType::f16;
  opts.clip_grad_norm = 0.05f;
  opts.loss_scaler.initial_scale = 64.0f;
  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{}, opts);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.window_dtype = tensor::DType::f16;
  ecfg.clip_grad_norm = 0.05f;
  ecfg.loss_scaler.initial_scale = 64.0f;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Fp16Engine, OverflowSkipsStepAndBacksOff) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_dtype = tensor::DType::f16;
  // A loss scale beyond f16 range guarantees overflow on the first step.
  ecfg.loss_scaler.initial_scale = 65536.0f * 32;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(7);
  std::vector<float> before;
  engine.snapshot_params(before);
  data::SyntheticCorpus corpus(mcfg.vocab, 8);
  engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  std::vector<float> after;
  engine.snapshot_params(after);
  sh::testing::expect_allclose(after, before, 0.0f, 0.0f);  // step skipped
  const auto s = engine.stats();
  EXPECT_EQ(s.skipped_updates, 1u);
  EXPECT_LT(s.loss_scale, 65536.0f * 32);  // backed off
  EXPECT_EQ(s.optimizer_updates, 0u);
}

TEST(Fp16Engine, TrainingConvergesInMixedPrecision) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_dtype = tensor::DType::f16;
  ecfg.adam.lr = 3e-3f;
  ecfg.loss_scaler.initial_scale = 256.0f;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  data::SyntheticCorpus corpus(mcfg.vocab, 5);
  std::vector<float> losses;
  for (int i = 0; i < 100; ++i) {
    losses.push_back(engine.train_step(corpus.next_batch(4, mcfg.max_seq)));
  }
  auto mean = [&](int lo, int hi) {
    float s = 0;
    for (int i = lo; i < hi; ++i) s += losses[static_cast<std::size_t>(i)];
    return s / (hi - lo);
  };
  EXPECT_LT(mean(90, 100), mean(0, 10) * 0.85f);
}

TEST(Fp16Engine, CloseToFp32Training) {
  // FP16-rounded training should track FP32 training loosely after a few
  // steps (same seed, same data).
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 92);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 5; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  auto run = [&](bool fp16) {
    nn::GptModel model(mcfg);
    EngineConfig ecfg;
    ecfg.window = 2;
    ecfg.window_dtype = fp16 ? tensor::DType::f16 : tensor::DType::f32;
    ecfg.loss_scaler.initial_scale = 128.0f;
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    float last = 0.0f;
    for (const auto& b : batches) last = engine.train_step(b);
    return last;
  };
  EXPECT_NEAR(run(true), run(false), 0.05f);
}

TEST(Fp16Engine, HalvedTransferBytesReported) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 93);
  auto bytes_for = [&](bool fp16) {
    nn::GptModel model(mcfg);
    EngineConfig ecfg;
    ecfg.window = 1;
    ecfg.window_dtype = fp16 ? tensor::DType::f16 : tensor::DType::f32;
    StrongholdEngine engine(model, ecfg);
    engine.init_params(1);
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
    std::vector<float> scratch;
    engine.snapshot_params(scratch);  // quiesce
    const auto s = engine.stats();
    obs::MetricsSnapshot snap;
    engine.export_metrics(snap);
    const auto* elem = snap.find("engine.window_elem_bytes");
    return std::tuple{s.h2d_bytes, s.d2h_bytes,
                      s.arena.regions.at("window").peak_bytes,
                      elem != nullptr ? elem->value : 0.0};
  };
  const auto [h16, d16, w16, e16] = bytes_for(true);
  const auto [h32, d32, w32, e32] = bytes_for(false);
  // Same transfer schedule; FP16 moves exactly half the wire bytes.
  EXPECT_EQ(2 * h16, h32);
  EXPECT_EQ(2 * d16, d32);
  EXPECT_GT(h16, 0u);
  // f16 slots store 2-byte elements and are charged so to the arena.
  EXPECT_EQ(e16, 2.0);
  EXPECT_EQ(e32, 4.0);
  EXPECT_LT(w16, w32);
}

TEST(Fp16Engine, RejectsStochasticRounding) {
  // f16 has only a round-to-nearest-even codec.
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_dtype = tensor::DType::f16;
  ecfg.window_rounding = tensor::Rounding::stochastic;
  EXPECT_THROW(StrongholdEngine(model, ecfg), std::invalid_argument);
}

}  // namespace
}  // namespace sh::core
