// KV-cached incremental decoding: step-by-step logits must match a full
// forward pass over the same prefix, across window sizes and MoE stacks.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

nn::GptConfig decoder_config(std::int64_t moe_experts = 0) {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 12;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 3;
  cfg.moe_experts = moe_experts;
  cfg.moe_every = 2;
  return cfg;
}

/// Full (non-cached) forward over the prefix; logits of the last position.
std::vector<float> full_forward_last(StrongholdEngine& engine,
                                     const std::vector<std::int32_t>& prefix,
                                     std::int64_t vocab) {
  const auto seq = static_cast<std::int64_t>(prefix.size());
  auto logits = engine.inference(prefix, {1, seq});
  std::vector<float> out(static_cast<std::size_t>(vocab));
  std::copy_n(logits.data() + (seq - 1) * vocab, vocab, out.data());
  return out;
}

class DecoderEquivalence : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DecoderEquivalence, IncrementalMatchesFullForward) {
  const auto mcfg = decoder_config(GetParam());
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(17);

  const std::vector<std::int32_t> sequence = {3, 7, 1, 12, 30, 5, 9, 0};
  auto dec = engine.make_decoder(1, mcfg.max_seq);

  // Prefill two tokens, then decode one at a time; compare against the full
  // forward over the growing prefix at every step.
  auto logits = dec.step({sequence.data(), 2}, 2);
  const std::int64_t vocab = mcfg.vocab;
  for (std::size_t t = 2; t <= sequence.size(); ++t) {
    std::vector<std::int32_t> prefix(sequence.begin(),
                                     sequence.begin() + static_cast<std::ptrdiff_t>(t));
    const auto ref = full_forward_last(engine, prefix, vocab);
    std::vector<float> inc(static_cast<std::size_t>(vocab));
    const auto rows = logits.shape().dim(0);
    std::copy_n(logits.data() + (rows - 1) * vocab, vocab, inc.data());
    sh::testing::expect_allclose(inc, ref, 1e-4f, 1e-3f);
    if (t < sequence.size()) {
      logits = dec.step({&sequence[t], 1}, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DenseAndMoe, DecoderEquivalence,
                         ::testing::Values(0, 2));

TEST(Decoder, GenerateIncrementalMatchesReferenceGreedyLoop) {
  const auto mcfg = decoder_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.adam.lr = 5e-3f;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(4);
  data::SyntheticCorpus corpus(mcfg.vocab, 19);
  for (int i = 0; i < 40; ++i) {
    engine.train_step(corpus.next_batch(4, mcfg.max_seq));
  }

  const std::vector<std::int32_t> prompt = {5, 9};
  const std::size_t new_tokens = 8;
  const auto incremental = engine.generate_incremental(prompt, new_tokens);

  // Reference: greedy loop with a full forward over the exact prefix.
  std::vector<std::int32_t> reference(prompt.begin(), prompt.end());
  for (std::size_t i = 0; i < new_tokens; ++i) {
    const auto seq = static_cast<std::int64_t>(reference.size());
    auto logits = engine.inference(reference, {1, seq});
    const std::int64_t vocab = mcfg.vocab;
    const float* last = logits.data() + (seq - 1) * vocab;
    reference.push_back(static_cast<std::int32_t>(
        std::max_element(last, last + vocab) - last));
  }
  EXPECT_EQ(incremental, reference);
}

TEST(Decoder, PositionTracksConsumedTokens) {
  const auto mcfg = decoder_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  auto dec = engine.make_decoder(1, 8);
  EXPECT_EQ(dec.position(), 0);
  const std::vector<std::int32_t> ids = {1, 2, 3};
  dec.step(ids, 3);
  EXPECT_EQ(dec.position(), 3);
  dec.step({ids.data(), 1}, 1);
  EXPECT_EQ(dec.position(), 4);
}

TEST(Decoder, CapacityEnforced) {
  const auto mcfg = decoder_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  EXPECT_THROW(engine.make_decoder(1, 0), std::invalid_argument);
  EXPECT_THROW(engine.make_decoder(1, mcfg.max_seq + 1), std::invalid_argument);
  auto dec = engine.make_decoder(1, 3);
  const std::vector<std::int32_t> ids = {1, 2, 3, 4};
  EXPECT_THROW(dec.step(ids, 4), std::out_of_range);
  dec.step({ids.data(), 3}, 3);
  EXPECT_THROW(dec.step({ids.data(), 1}, 1), std::out_of_range);
}

TEST(Decoder, RejectsOutOfVocabIds) {
  const auto mcfg = decoder_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  const auto vocab = static_cast<std::int32_t>(mcfg.vocab);
  for (const std::int32_t bad : {-1, vocab}) {
    const std::vector<std::int32_t> prompt = {bad};
    EXPECT_THROW(engine.generate_incremental(prompt, 2), std::invalid_argument)
        << "id " << bad;
    auto dec = engine.make_decoder(1, 4);
    const std::vector<std::int32_t> ids = {1, bad};
    EXPECT_THROW(dec.step(ids, 2), std::invalid_argument) << "id " << bad;
    // Rejected before anything ran: the session is untouched and usable.
    EXPECT_EQ(dec.position(), 0);
    dec.step({ids.data(), 1}, 1);
    EXPECT_EQ(dec.position(), 1);
  }
  const std::vector<std::int32_t> last = {vocab - 1};
  EXPECT_EQ(engine.generate_incremental(last, 2).size(), 3u);
}

TEST(Decoder, BatchedDecoding) {
  const auto mcfg = decoder_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(23);
  // Two rows decoded together must match the rows decoded separately.
  const std::vector<std::int32_t> row0 = {1, 4, 7};
  const std::vector<std::int32_t> row1 = {9, 2, 11};
  auto both = engine.make_decoder(2, 8);
  std::vector<std::int32_t> interleaved = {1, 4, 7, 9, 2, 11};
  auto logits = both.step(interleaved, 3);

  auto solo0 = engine.make_decoder(1, 8);
  auto l0 = solo0.step(row0, 3);
  auto solo1 = engine.make_decoder(1, 8);
  auto l1 = solo1.step(row1, 3);
  const std::int64_t vocab = mcfg.vocab;
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t c = 0; c < vocab; ++c) {
      EXPECT_NEAR(logits.at(t * vocab + c), l0.at(t * vocab + c), 1e-4f);
      EXPECT_NEAR(logits.at((3 + t) * vocab + c), l1.at(t * vocab + c), 1e-4f);
    }
  }
  // Training after decoding still works (caches do not corrupt training).
  data::SyntheticCorpus corpus(mcfg.vocab, 2);
  EXPECT_GT(engine.train_step(corpus.next_batch(2, mcfg.max_seq)), 0.0f);
}

}  // namespace
}  // namespace sh::core
