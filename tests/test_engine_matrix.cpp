// Property sweep: offloaded training must match the monolithic oracle across
// the full configuration matrix — window size x executors x activation
// checkpointing x window mode x swap tier x MoE.
#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

struct MatrixCase {
  std::size_t window;
  std::size_t executors;
  bool checkpoint;
  WindowMode mode;
  bool swap;
  std::int64_t moe_experts;

  friend std::ostream& operator<<(std::ostream& os, const MatrixCase& c) {
    return os << "w" << c.window << "_e" << c.executors << "_ck"
              << c.checkpoint << "_mode"
              << (c.mode == WindowMode::UniformSlots ? "slots" : "budget")
              << "_swap" << c.swap << "_moe" << c.moe_experts;
  }
};

class EngineMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrix, MatchesMonolithicOracle) {
  const auto& c = GetParam();
  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 8;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  // Eight blocks: even the largest window leaves blocks streaming past the
  // reserved slots.
  mcfg.layers = 8;
  mcfg.checkpoint_activations = c.checkpoint;
  mcfg.moe_experts = c.moe_experts;
  mcfg.moe_every = 2;

  data::SyntheticCorpus corpus(mcfg.vocab, 1000 + c.window);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(corpus.next_batch(4, mcfg.max_seq));

  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = c.window;
  ecfg.num_executors = c.executors;
  ecfg.window_mode = c.mode;
  if (c.swap) {
    ecfg.cpu_capacity_bytes = 64 * 1024;
    std::ostringstream path;
    path << ::testing::TempDir() << "matrix_" << c << ".bin";
    ecfg.swap_path = path.str();
  }
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);

  if (c.executors == 1) {
    // Single executor: exact.
    EXPECT_EQ(losses, ref_losses);
    sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
  } else {
    for (std::size_t i = 0; i < losses.size(); ++i) {
      EXPECT_NEAR(losses[i], ref_losses[i], 1e-5f);
    }
    sh::testing::expect_allclose(params, ref_params, 1e-5f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrix,
    ::testing::Values(
        // Window sweep, plain.
        MatrixCase{1, 1, false, WindowMode::UniformSlots, false, 0},
        MatrixCase{3, 1, false, WindowMode::UniformSlots, false, 0},
        MatrixCase{4, 1, false, WindowMode::UniformSlots, false, 0},
        // Checkpointing interactions.
        MatrixCase{1, 1, true, WindowMode::UniformSlots, false, 0},
        MatrixCase{2, 1, true, WindowMode::UniformSlots, true, 0},
        MatrixCase{2, 2, true, WindowMode::UniformSlots, false, 0},
        // Byte-budget mode.
        MatrixCase{1, 1, false, WindowMode::ByteBudget, false, 0},
        MatrixCase{2, 1, true, WindowMode::ByteBudget, false, 3},
        MatrixCase{2, 1, false, WindowMode::ByteBudget, true, 0},
        MatrixCase{3, 2, false, WindowMode::ByteBudget, false, 0},
        // Executors x swap.
        MatrixCase{1, 2, false, WindowMode::UniformSlots, true, 0},
        MatrixCase{2, 4, false, WindowMode::UniformSlots, false, 0},
        // MoE everywhere.
        MatrixCase{1, 1, false, WindowMode::UniformSlots, false, 2},
        MatrixCase{2, 2, true, WindowMode::ByteBudget, false, 2},
        MatrixCase{2, 1, false, WindowMode::UniformSlots, true, 3}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST(EngineGenerate, LearnsMarkovSuccessors) {
  nn::GptConfig mcfg;
  mcfg.vocab = 16;
  mcfg.max_seq = 8;
  mcfg.hidden = 32;
  mcfg.heads = 4;
  mcfg.layers = 2;
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.adam.lr = 5e-3f;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(8);
  data::SyntheticCorpus corpus(mcfg.vocab, 123);
  for (int i = 0; i < 150; ++i) {
    engine.train_step(corpus.next_batch(8, mcfg.max_seq));
  }
  // Generate from every start token, filling the max_seq context, and score
  // transitions against the corpus's successor table.
  int follow = 0;
  int scored = 0;
  for (std::int32_t start = 0; start < mcfg.vocab; ++start) {
    const std::vector<std::int32_t> prompt = {start};
    const auto tokens = engine.generate_incremental(prompt, 7);
    ASSERT_EQ(tokens.size(), 8u);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i + 1] == corpus.successor(tokens[i])) ++follow;
      ++scored;
    }
  }
  ASSERT_EQ(scored, 112);
  // The chain is followed 75% of the time in the data; a trained model's
  // greedy decoding should track it most of the time (at least 15 in 24).
  EXPECT_GE(follow * 24, scored * 15)
      << "only " << follow << "/" << scored << " transitions learned";
}

TEST(EngineGenerate, RejectsEmptyPrompt) {
  nn::GptConfig mcfg;
  mcfg.layers = 2;
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  EXPECT_THROW(engine.generate_incremental({}, 4), std::invalid_argument);
}

}  // namespace
}  // namespace sh::core
