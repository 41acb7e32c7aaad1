// Learning-rate schedules and global gradient-norm clipping, including their
// interaction with the asynchronous offloaded update path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "optim/schedule.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh {
namespace {

TEST(LrSchedule, ConstantIsConstant) {
  auto s = optim::constant_lr(0.01f);
  EXPECT_FLOAT_EQ(s(1), 0.01f);
  EXPECT_FLOAT_EQ(s(100000), 0.01f);
}

TEST(LrSchedule, WarmupRampsLinearly) {
  auto s = optim::warmup_cosine(1.0f, 10, 100);
  EXPECT_FLOAT_EQ(s(1), 0.1f);
  EXPECT_FLOAT_EQ(s(5), 0.5f);
  EXPECT_FLOAT_EQ(s(10), 1.0f);
}

TEST(LrSchedule, CosineDecaysToMin) {
  auto s = optim::warmup_cosine(1.0f, 0, 100, 0.1f);
  EXPECT_NEAR(s(50), 0.55f, 1e-5f);  // halfway: min + 0.5*(base-min)
  EXPECT_FLOAT_EQ(s(100), 0.1f);
  EXPECT_FLOAT_EQ(s(500), 0.1f);  // flat afterwards
}

TEST(LrSchedule, CosineIsMonotoneAfterWarmup) {
  auto s = optim::warmup_cosine(3e-4f, 20, 200);
  for (int t = 21; t < 200; ++t) EXPECT_GE(s(t), s(t + 1));
}

TEST(LrSchedule, LinearDecay) {
  auto s = optim::warmup_linear(1.0f, 10, 110, 0.0f);
  EXPECT_FLOAT_EQ(s(10), 1.0f);
  EXPECT_NEAR(s(60), 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(s(110), 0.0f);
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

struct Variant {
  float clip;
  bool schedule;
};

class EngineOptimFeatures : public ::testing::TestWithParam<Variant> {};

TEST_P(EngineOptimFeatures, OffloadedMatchesMonolithicBitwise) {
  const auto [clip, use_schedule] = GetParam();
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 77);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 4; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  const auto schedule =
      use_schedule ? optim::warmup_cosine(5e-3f, 2, 10) : optim::LrSchedule{};

  nn::GptModel ref_model(mcfg);
  core::MonolithicTrainer ref(ref_model, optim::AdamConfig{}, clip, schedule);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.clip_grad_norm = clip;
  ecfg.lr_schedule = schedule;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);

  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, EngineOptimFeatures,
    ::testing::Values(Variant{0.0f, true},        // schedule only
                      Variant{0.05f, false},      // tight clip only
                      Variant{0.05f, true},       // both
                      Variant{1000.0f, false}));  // clip configured, inactive

TEST(GradClipping, ActuallyLimitsTheUpdateMagnitude) {
  // With a tight clip the first-step parameter delta must shrink.
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 12);
  const auto batch = corpus.next_batch(2, mcfg.max_seq);

  auto delta_with_clip = [&](float clip) {
    nn::GptModel model(mcfg);
    core::EngineConfig ecfg;
    ecfg.window = 2;
    ecfg.clip_grad_norm = clip;
    core::StrongholdEngine engine(model, ecfg);
    engine.init_params(4);
    std::vector<float> before;
    engine.snapshot_params(before);
    engine.train_step(batch);
    std::vector<float> after;
    engine.snapshot_params(after);
    double sum = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      sum += std::abs(after[i] - before[i]);
    }
    return sum;
  };
  // Adam normalises per-coordinate, but a clipped (tiny) gradient shrinks
  // the very first step because m/sqrt(v) stays the same while weight decay
  // and eps effects do not... compare against an effectively-unclipped run.
  const double clipped = delta_with_clip(1e-4f);
  const double unclipped = delta_with_clip(1e9f);
  EXPECT_LT(clipped, unclipped);
}

TEST(GradClipping, WorksWithSwapTierAndExecutors) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 13);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(corpus.next_batch(4, mcfg.max_seq));

  nn::GptModel ref_model(mcfg);
  core::MonolithicTrainer ref(ref_model, optim::AdamConfig{}, 0.05f);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));

  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.clip_grad_norm = 0.05f;
  ecfg.num_executors = 2;
  ecfg.cpu_capacity_bytes = 64 * 1024;
  ecfg.swap_path = ::testing::TempDir() + "clip_swap.bin";
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    // Executors reorder additions; losses agree to rounding.
    EXPECT_NEAR(losses[i], ref_losses[i], 1e-5f);
  }
}

TEST(ScheduledTraining, LateStepsMoveLessThanEarlySteps) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.lr_schedule = optim::warmup_linear(1e-2f, 1, 20, 0.0f);
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(2);
  data::SyntheticCorpus corpus(mcfg.vocab, 3);

  auto step_delta = [&] {
    std::vector<float> before, after;
    engine.snapshot_params(before);
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
    engine.snapshot_params(after);
    double sum = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      sum += std::abs(after[i] - before[i]);
    }
    return sum;
  };
  const double early = step_delta();  // step 1 (post-warmup peak region)
  for (int i = 0; i < 17; ++i) engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  const double late = step_delta();  // step ~19, lr nearly 0
  EXPECT_LT(late, 0.5 * early);
}

}  // namespace
}  // namespace sh
