// Gradient accumulation: k micro-steps must equal one step on the combined
// batch, across the offloaded update paths (evicted, resident, pinned).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

// Eight blocks: a window of 2 reserves 4 slots, so every update path
// (evicted, resident, pinned) runs every step.
nn::GptConfig tiny_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 8;
  return cfg;
}

/// Splits a batch of `rows` rows into `parts` equal micro-batches.
std::vector<data::Batch> split_batch(const data::Batch& big, std::int64_t seq,
                                     int parts) {
  std::vector<data::Batch> out;
  const std::size_t rows = big.ids.size() / static_cast<std::size_t>(seq);
  const std::size_t rows_per = rows / static_cast<std::size_t>(parts);
  for (int p = 0; p < parts; ++p) {
    data::Batch b;
    const std::size_t lo = static_cast<std::size_t>(p) * rows_per *
                           static_cast<std::size_t>(seq);
    const std::size_t hi = lo + rows_per * static_cast<std::size_t>(seq);
    b.ids.assign(big.ids.begin() + static_cast<std::ptrdiff_t>(lo),
                 big.ids.begin() + static_cast<std::ptrdiff_t>(hi));
    b.targets.assign(big.targets.begin() + static_cast<std::ptrdiff_t>(lo),
                     big.targets.begin() + static_cast<std::ptrdiff_t>(hi));
    out.push_back(std::move(b));
  }
  return out;
}

TEST(GradAccumulation, TwoMicroStepsEqualOneBigStep) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 61);
  std::vector<data::Batch> big_batches;
  for (int i = 0; i < 3; ++i) big_batches.push_back(corpus.next_batch(4, mcfg.max_seq));

  // Reference: monolithic training on the big batches.
  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  for (const auto& b : big_batches) ref.train_step(b);
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  // Engine: each big batch fed as 2 accumulation micro-steps of 2 samples.
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.grad_accumulation = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  std::vector<data::Batch> micros;
  for (const auto& big : big_batches) {
    for (auto& micro : split_batch(big, mcfg.max_seq, 2)) {
      micros.push_back(std::move(micro));
    }
  }
  (void)sh::testing::train_streaming(engine, micros);
  std::vector<float> params;
  engine.snapshot_params(params);
  // Micro-splitting reorders float sums inside the loss/grad means.
  sh::testing::expect_allclose(params, ref_params, 1e-5f, 1e-4f);
}

TEST(GradAccumulation, AccumulationOfOneIsBitwiseBaseline) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 62);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  auto run = [&](std::size_t accum) {
    nn::GptModel model(mcfg);
    EngineConfig ecfg;
    ecfg.window = 2;
    ecfg.grad_accumulation = accum;
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    (void)sh::testing::train_streaming(engine, batches);
    std::vector<float> p;
    engine.snapshot_params(p);
    return p;
  };
  sh::testing::expect_allclose(run(1), run(1), 0.0f, 0.0f);
}

TEST(GradAccumulation, MidCyclePerformsNoUpdates) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.grad_accumulation = 4;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(5);
  data::SyntheticCorpus corpus(mcfg.vocab, 6);

  std::vector<float> before;
  engine.snapshot_params(before);
  for (int micro = 0; micro < 3; ++micro) {
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  }
  std::vector<float> mid;
  engine.snapshot_params(mid);
  sh::testing::expect_allclose(mid, before, 0.0f, 0.0f);  // untouched
  EXPECT_EQ(engine.stats().optimizer_updates, 0u);

  engine.train_step(corpus.next_batch(2, mcfg.max_seq));  // cycle completes
  std::vector<float> after;
  engine.snapshot_params(after);
  float changed = sh::tensor::max_abs_diff(
      after.data(), before.data(), static_cast<std::int64_t>(after.size()));
  EXPECT_GT(changed, 0.0f);
  EXPECT_EQ(engine.stats().optimizer_updates, model.num_layers());
}

TEST(GradAccumulation, WorksWithClippingAndSchedule) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 63);
  std::vector<data::Batch> big;
  for (int i = 0; i < 2; ++i) big.push_back(corpus.next_batch(4, mcfg.max_seq));
  const auto schedule = optim::warmup_cosine(5e-3f, 1, 8);

  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{}, 0.05f, schedule);
  ref.init_params(42);
  for (const auto& b : big) ref.train_step(b);
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.grad_accumulation = 2;
  ecfg.clip_grad_norm = 0.05f;
  ecfg.lr_schedule = schedule;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  std::vector<data::Batch> micros;
  for (const auto& b : big) {
    for (auto& micro : split_batch(b, mcfg.max_seq, 2)) {
      micros.push_back(std::move(micro));
    }
  }
  (void)sh::testing::train_streaming(engine, micros);
  std::vector<float> params;
  engine.snapshot_params(params);
  sh::testing::expect_allclose(params, ref_params, 1e-5f, 1e-4f);
}

TEST(GradAccumulation, WorksWithSwapTier) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 64);
  const auto big = corpus.next_batch(4, mcfg.max_seq);

  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  ref.train_step(big);
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.grad_accumulation = 2;
  ecfg.cpu_capacity_bytes = 64 * 1024;
  ecfg.swap_path = ::testing::TempDir() + "accum_swap.bin";
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  (void)sh::testing::train_streaming(engine,
                                     split_batch(big, mcfg.max_seq, 2));
  std::vector<float> params;
  engine.snapshot_params(params);
  sh::testing::expect_allclose(params, ref_params, 1e-5f, 1e-4f);
}

}  // namespace
}  // namespace sh::core
