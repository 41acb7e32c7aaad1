// Deterministic counter-based dropout, and its interaction with activation
// checkpointing, offloading and executor splitting.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "tensor/dropout.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh {
namespace {

TEST(Dropout, ZeroProbabilityIsIdentity) {
  std::vector<float> in = {1, 2, 3, 4};
  std::vector<float> out(4);
  tensor::dropout_forward(in.data(), out.data(), 4, 0.0f, 1, 2, 3, 0);
  EXPECT_EQ(out, in);
}

TEST(Dropout, MaskIsDeterministic) {
  std::vector<float> in(512, 1.0f);
  std::vector<float> a(512), b(512);
  tensor::dropout_forward(in.data(), a.data(), 512, 0.3f, 7, 1, 5, 0);
  tensor::dropout_forward(in.data(), b.data(), 512, 0.3f, 7, 1, 5, 0);
  EXPECT_EQ(a, b);
}

TEST(Dropout, DifferentStepsAndStreamsGiveDifferentMasks) {
  std::vector<float> in(512, 1.0f);
  std::vector<float> a(512), b(512), c(512);
  tensor::dropout_forward(in.data(), a.data(), 512, 0.5f, 7, 1, 5, 0);
  tensor::dropout_forward(in.data(), b.data(), 512, 0.5f, 7, 1, 6, 0);
  tensor::dropout_forward(in.data(), c.data(), 512, 0.5f, 7, 2, 5, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(Dropout, GlobalOffsetSplicesConsistently) {
  // Computing [0, n) in one call must equal computing [0, h) and [h, n) in
  // two calls with the right offsets — the executor-split property.
  std::vector<float> in(256, 1.0f);
  std::vector<float> whole(256), first(128), second(128);
  tensor::dropout_forward(in.data(), whole.data(), 256, 0.4f, 9, 3, 2, 0);
  tensor::dropout_forward(in.data(), first.data(), 128, 0.4f, 9, 3, 2, 0);
  tensor::dropout_forward(in.data(), second.data(), 128, 0.4f, 9, 3, 2, 128);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(whole[static_cast<std::size_t>(i)], first[static_cast<std::size_t>(i)]);
    EXPECT_EQ(whole[static_cast<std::size_t>(i + 128)],
              second[static_cast<std::size_t>(i)]);
  }
}

TEST(Dropout, KeepRateApproximatelyCorrect) {
  const std::int64_t n = 20000;
  std::vector<float> in(static_cast<std::size_t>(n), 1.0f);
  std::vector<float> out(static_cast<std::size_t>(n));
  const float p = 0.25f;
  tensor::dropout_forward(in.data(), out.data(), n, p, 11, 0, 0, 0);
  int kept = 0;
  for (float v : out) {
    if (v != 0.0f) {
      EXPECT_NEAR(v, 1.0f / (1.0f - p), 1e-6f);  // inverted scaling
      ++kept;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / n, 1.0 - p, 0.02);
}

TEST(Dropout, BackwardAppliesSameMask) {
  const std::int64_t n = 256;
  std::vector<float> in(static_cast<std::size_t>(n), 1.0f);
  std::vector<float> fwd(static_cast<std::size_t>(n));
  std::vector<float> gin(static_cast<std::size_t>(n));
  tensor::dropout_forward(in.data(), fwd.data(), n, 0.5f, 3, 4, 5, 10);
  tensor::dropout_backward(in.data(), gin.data(), n, 0.5f, 3, 4, 5, 10);
  EXPECT_EQ(fwd, gin);  // identical mask, identical scaling of ones
}

nn::GptConfig dropout_config(bool checkpoint = false) {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 8;  // a window of 2 reserves 4 slots: half the model streams
  cfg.dropout = 0.2f;
  cfg.checkpoint_activations = checkpoint;
  return cfg;
}

TEST(DropoutTraining, OffloadedMatchesMonolithicBitwise) {
  const auto mcfg = dropout_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 70);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  nn::GptModel ref_model(mcfg);
  core::MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(DropoutTraining, CheckpointRecomputationReproducesMasks) {
  // With activation checkpointing the block re-runs forward inside backward;
  // a stateful RNG would draw a different mask and corrupt gradients. The
  // counter-based masks make checkpointed == non-checkpointed exactly.
  const auto plain_cfg = dropout_config(false);
  const auto ckpt_cfg = dropout_config(true);
  data::SyntheticCorpus corpus(plain_cfg.vocab, 71);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(corpus.next_batch(2, plain_cfg.max_seq));

  auto run = [&](const nn::GptConfig& cfg) {
    nn::GptModel model(cfg);
    core::EngineConfig ecfg;
    ecfg.window = 2;
    core::StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    (void)sh::testing::train_streaming(engine, batches);
    std::vector<float> p;
    engine.snapshot_params(p);
    return p;
  };
  sh::testing::expect_allclose(run(ckpt_cfg), run(plain_cfg), 0.0f, 0.0f);
}

TEST(DropoutTraining, ExecutorSplitDrawsConsistentMasks) {
  const auto mcfg = dropout_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 72);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(corpus.next_batch(4, mcfg.max_seq));

  auto run = [&](std::size_t executors) {
    nn::GptModel model(mcfg);
    core::EngineConfig ecfg;
    ecfg.window = 2;
    ecfg.num_executors = executors;
    core::StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    (void)sh::testing::train_streaming(engine, batches);
    std::vector<float> p;
    engine.snapshot_params(p);
    return p;
  };
  // Masks are identical; only float-summation order differs.
  sh::testing::expect_allclose(run(2), run(1), 1e-5f, 1e-4f);
}

TEST(DropoutTraining, InferenceDisablesDropout) {
  const auto mcfg = dropout_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(9);
  data::SyntheticCorpus corpus(mcfg.vocab, 73);
  const auto batch = corpus.next_batch(1, mcfg.max_seq);
  const nn::BatchShape shape{1, mcfg.max_seq};
  auto a = engine.inference(batch.ids, shape).clone();
  auto b = engine.inference(batch.ids, shape);
  // Inference is deterministic (no dropout): two passes agree exactly.
  sh::testing::expect_allclose(a.span(), b.span(), 0.0f, 0.0f);
}

TEST(DropoutTraining, StillConverges) {
  const auto mcfg = dropout_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.adam.lr = 3e-3f;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  data::SyntheticCorpus corpus(mcfg.vocab, 74);
  std::vector<float> losses;
  for (int i = 0; i < 120; ++i) {
    losses.push_back(engine.train_step(corpus.next_batch(4, mcfg.max_seq)));
  }
  auto mean = [&](int lo, int hi) {
    return std::accumulate(losses.begin() + lo, losses.begin() + hi, 0.0f) /
           static_cast<float>(hi - lo);
  };
  EXPECT_LT(mean(110, 120), mean(0, 10) * 0.9f);
}

}  // namespace
}  // namespace sh
