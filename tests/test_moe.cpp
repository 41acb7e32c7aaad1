// Mixture-of-experts block: routing behaviour, gradients, and offloaded
// training equivalence for models with nonlinear structure (Section III-B).
#include <gtest/gtest.h>

#include <numeric>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "nn/moe.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::nn {
namespace {

using sh::tensor::Rng;
using sh::tensor::Tensor;
using sh::testing::check_gradient;
using sh::testing::ProjectionLoss;

TEST(MoeBlock, RejectsZeroExperts) {
  EXPECT_THROW(MoeBlock("moe", 8, 2, 0), std::invalid_argument);
}

TEST(MoeBlock, ParamCountCoversAllExperts) {
  MoeBlock moe("moe", 8, 2, 3);
  TransformerBlock dense("blk", 8, 2);
  // gate (8*3 + 3) + 3 experts vs 1 MLP: MoE strictly larger.
  EXPECT_GT(moe.param_count(), dense.param_count());
  const std::int64_t mlp_params = Mlp("m", 8).param_count();
  EXPECT_EQ(moe.param_count(),
            dense.param_count() + 2 * mlp_params + (8 * 3 + 3));
}

TEST(MoeBlock, RoutingIsDeterministicAndConserved) {
  MoeBlock moe("moe", 8, 2, 4);
  OwnedStorage storage(moe.param_count());
  moe.bind(storage.params(), storage.grads());
  Rng rng(15);
  moe.init(rng);
  const BatchShape shape{2, 4};
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);
  (void)moe.forward(x, shape);
  const auto load1 = moe.expert_load();
  (void)moe.forward(x, shape);
  const auto load2 = moe.expert_load();
  EXPECT_EQ(load1, load2);
  EXPECT_EQ(std::accumulate(load1.begin(), load1.end(), std::int64_t{0}),
            shape.tokens());
}

TEST(MoeBlock, SingleExpertGradCheck) {
  // With one expert the gating is constant (p = 1) and the block is smooth,
  // so a full finite-difference check applies.
  MoeBlock moe("moe", 8, 2, 1);
  OwnedStorage storage(moe.param_count());
  moe.bind(storage.params(), storage.grads());
  Rng rng(16);
  moe.init(rng);
  const BatchShape shape{2, 3};
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);

  ProjectionLoss loss(shape.tokens() * 8);
  auto loss_fn = [&] { return loss.value(moe.forward(x, shape)); };
  storage.zero_grads();
  auto y = moe.forward(x, shape);
  auto gx = moe.backward(loss.grad(y.shape()), shape);
  check_gradient({storage.params(), static_cast<std::size_t>(storage.count())},
                 {storage.grads(), static_cast<std::size_t>(storage.count())},
                 loss_fn);
  check_gradient(x.span(), gx.span(), loss_fn);
}

TEST(MoeBlock, MultiExpertGradCheck) {
  // Routing is piecewise-constant; with the seed below no token sits near a
  // decision boundary, so central differences stay within one routing cell.
  MoeBlock moe("moe", 8, 2, 3);
  OwnedStorage storage(moe.param_count());
  moe.bind(storage.params(), storage.grads());
  Rng rng(17);
  moe.init(rng);
  const BatchShape shape{1, 4};
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);

  ProjectionLoss loss(shape.tokens() * 8);
  auto loss_fn = [&] { return loss.value(moe.forward(x, shape)); };
  storage.zero_grads();
  auto y = moe.forward(x, shape);
  auto gx = moe.backward(loss.grad(y.shape()), shape);
  check_gradient({storage.params(), static_cast<std::size_t>(storage.count())},
                 {storage.grads(), static_cast<std::size_t>(storage.count())},
                 loss_fn, 5e-4f, 3e-3f, 6e-2f);
  check_gradient(x.span(), gx.span(), loss_fn, 5e-4f, 3e-3f, 6e-2f);
}

TEST(MoeBlock, IdleExpertsGetNoGradient) {
  MoeBlock moe("moe", 8, 2, 8);  // more experts than tokens
  OwnedStorage storage(moe.param_count());
  moe.bind(storage.params(), storage.grads());
  Rng rng(18);
  moe.init(rng);
  const BatchShape shape{1, 3};
  auto x = Tensor::zeros({shape.tokens(), 8});
  rng.fill_uniform(x.span(), 1.0f);
  storage.zero_grads();
  auto y = moe.forward(x, shape);
  auto g = Tensor::full(y.shape(), 1.0f);
  moe.backward(g, shape);
  // At most 3 experts can be active; the rest must have exactly zero grads.
  int idle = 0;
  const auto& load = moe.expert_load();
  // Expert parameter region starts after ln1+attn+ln2+gate.
  const std::int64_t prefix = LayerNorm("a", 8).param_count() * 2 +
                              CausalSelfAttention("b", 8, 2).param_count() +
                              Linear("c", 8, 8).param_count();
  const std::int64_t per_expert = Mlp("m", 8).param_count();
  for (std::size_t e = 0; e < load.size(); ++e) {
    if (load[e] != 0) continue;
    ++idle;
    const float* g0 = storage.grads() + prefix +
                      static_cast<std::int64_t>(e) * per_expert;
    for (std::int64_t i = 0; i < per_expert; ++i) {
      ASSERT_EQ(g0[i], 0.0f) << "idle expert " << e << " got gradient";
    }
  }
  EXPECT_GE(idle, 5);
}

TEST(MoeModel, GptBuildsMixedStack) {
  GptConfig cfg;
  cfg.layers = 4;
  cfg.moe_experts = 2;
  cfg.moe_every = 2;
  GptModel model(cfg);
  // Blocks 1 and 3 (0-based) are MoE; layer units = emb + 4 + head.
  EXPECT_EQ(model.num_layers(), 6u);
  EXPECT_NE(dynamic_cast<MoeBlock*>(&model.layer(2)), nullptr);
  EXPECT_NE(dynamic_cast<MoeBlock*>(&model.layer(4)), nullptr);
  EXPECT_EQ(dynamic_cast<MoeBlock*>(&model.layer(1)), nullptr);
  // Heterogeneous layer sizes: MoE blocks are bigger.
  EXPECT_GT(model.layer(2).param_count(), model.layer(1).param_count());
}

TEST(MoeModel, OffloadedTrainingMatchesMonolithic) {
  GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 8;  // a window of 2 reserves 4 slots: half the model streams
  cfg.moe_experts = 3;
  cfg.moe_every = 2;

  data::SyntheticCorpus corpus(cfg.vocab, 44);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(corpus.next_batch(2, cfg.max_seq));

  nn::GptModel ref_model(cfg);
  core::MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(cfg);
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

TEST(MoeModel, LossDecreasesWithExperts) {
  GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.moe_experts = 2;
  cfg.moe_every = 1;
  nn::GptModel model(cfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.adam.lr = 3e-3f;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(9);
  data::SyntheticCorpus corpus(cfg.vocab, 10);
  std::vector<float> losses;
  for (int i = 0; i < 80; ++i) {
    losses.push_back(engine.train_step(corpus.next_batch(4, cfg.max_seq)));
  }
  auto mean = [&](int lo, int hi) {
    float s = 0;
    for (int i = lo; i < hi; ++i) s += losses[static_cast<std::size_t>(i)];
    return s / (hi - lo);
  };
  EXPECT_LT(mean(70, 80), mean(0, 10) * 0.85f);
}

}  // namespace
}  // namespace sh::nn
