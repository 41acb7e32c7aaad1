// Fused tiled attention kernel (tensor/attention_kernel.cpp), as wired into
// nn::CausalSelfAttention, against the materialised-probs test oracle it
// replaced (testing/attention_ref.hpp):
//
//   * layer-vs-oracle numeric agreement for forward, input gradient and
//     parameter gradients across (batch, heads, head_dim, seq) — including
//     sequence lengths that straddle the query-panel (96) and key-tile (256)
//     boundaries, where off-by-one tile logic would show;
//   * KV-cached incremental decode agreement, layer vs oracle;
//   * the repo's determinism invariant: offloaded training losses EXPECT_EQ
//     monolithic ones;
//   * batched continuous decoding across forced KV preempt/resume matches
//     solo generation token-for-token.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "nn/attention.hpp"
#include "nn/module.hpp"
#include "serve/scheduler.hpp"
#include "tensor/rng.hpp"
#include "testing/attention_ref.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::nn {
namespace {

struct AttnCase {
  std::int64_t batch;
  std::int64_t heads;
  std::int64_t head_dim;
  std::int64_t seq;
};

void PrintTo(const AttnCase& c, std::ostream* os) {
  *os << "b" << c.batch << "_h" << c.heads << "_d" << c.head_dim << "_s"
      << c.seq;
}

struct RunResult {
  std::vector<float> y;      // forward output
  std::vector<float> gx;     // input gradient
  std::vector<float> grads;  // parameter gradients
};

/// One forward + backward of `layer` (bound to `store`) on fixed random
/// input and output gradient.
template <typename L>
RunResult run_layer(L& layer, OwnedStorage& store, const AttnCase& c) {
  const std::int64_t hidden = c.heads * c.head_dim;
  BatchShape shape;
  shape.batch = c.batch;
  shape.seq = c.seq;
  shape.training = true;
  const std::int64_t tokens = shape.tokens();

  auto x = tensor::Tensor::zeros({tokens, hidden});
  auto gy = tensor::Tensor::zeros({tokens, hidden});
  tensor::Rng data_rng(5);
  data_rng.fill_uniform(
      std::span<float>(x.data(), static_cast<std::size_t>(x.numel())), 1.0f);
  data_rng.fill_uniform(
      std::span<float>(gy.data(), static_cast<std::size_t>(gy.numel())), 1.0f);

  RunResult r;
  auto y = layer.forward(x, shape);
  r.y.assign(y.data(), y.data() + y.numel());
  auto gx = layer.backward(gy, shape);
  r.gx.assign(gx.data(), gx.data() + gx.numel());
  r.grads.assign(store.grads(), store.grads() + store.count());
  return r;
}

class FusedVsReference : public ::testing::TestWithParam<AttnCase> {};

TEST_P(FusedVsReference, ForwardAndBackwardAgree) {
  const auto c = GetParam();
  const std::int64_t hidden = c.heads * c.head_dim;
  CausalSelfAttention attn("t.attn", hidden, c.heads);
  OwnedStorage attn_store(attn.param_count());
  attn.bind(attn_store.params(), attn_store.grads());
  tensor::Rng rng(21);
  attn.init(rng);
  // The oracle reads the same flat parameter blob (qkv, then proj), so a
  // wrong plane offset or stride in the layer shows up as a mismatch; it
  // writes its own gradient blob.
  sh::testing::AttentionRef oracle(hidden, c.heads);
  ASSERT_EQ(oracle.param_count(), attn.param_count());
  OwnedStorage ref_store(oracle.param_count());
  oracle.bind(attn_store.params(), ref_store.grads());

  const auto fused = run_layer(attn, attn_store, c);
  const auto ref = run_layer(oracle, ref_store, c);
  // Different summation orders (online-softmax tiles vs one full-row pass),
  // so agreement is tight-tolerance, not bitwise.
  sh::testing::expect_allclose(fused.y, ref.y, 1e-5f, 1e-4f);
  sh::testing::expect_allclose(fused.gx, ref.gx, 1e-4f, 1e-3f);
  sh::testing::expect_allclose(fused.grads, ref.grads, 1e-4f, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedVsReference,
    ::testing::Values(
        // Degenerate and tiny shapes.
        AttnCase{1, 1, 4, 1}, AttnCase{1, 2, 8, 5}, AttnCase{2, 2, 4, 13},
        // Query-panel boundary (kQB = 96): one full panel, one spilling row.
        AttnCase{1, 2, 8, 96}, AttnCase{1, 2, 8, 97},
        // Multi-head, head_dim straddling the packed micro-tile width.
        AttnCase{2, 3, 16, 100}, AttnCase{1, 4, 12, 160},
        // Key-tile boundary (kKB = 256): exactly one tile, one key over.
        AttnCase{1, 2, 8, 255}, AttnCase{1, 2, 8, 256},
        AttnCase{1, 2, 8, 257},
        // Several query panels x two key tiles.
        AttnCase{2, 2, 8, 320}));

TEST(FusedAttention, IncrementalDecodeMatchesReference) {
  const std::int64_t heads = 2;
  const std::int64_t head_dim = 8;
  const std::int64_t hidden = heads * head_dim;
  const std::int64_t batch = 2;
  const std::int64_t capacity = 24;

  CausalSelfAttention attn("t.attn", hidden, heads);
  OwnedStorage store(attn.param_count());
  attn.bind(store.params(), store.grads());
  tensor::Rng rng(31);
  attn.init(rng);
  sh::testing::AttentionRef oracle(hidden, heads);
  OwnedStorage ref_store(oracle.param_count());
  oracle.bind(store.params(), ref_store.grads());

  // Chunked prefill + decode: 5 tokens, then 1, then 3.
  const std::vector<std::int64_t> chunks = {5, 1, 3};
  std::vector<std::vector<float>> inputs;
  tensor::Rng data_rng(9);
  for (const auto n : chunks) {
    std::vector<float> x(static_cast<std::size_t>(batch * n * hidden));
    data_rng.fill_uniform(x, 1.0f);
    inputs.push_back(std::move(x));
  }

  auto run = [&](auto& layer) {
    KvCache cache;
    cache.k = tensor::Tensor::zeros({batch, heads, capacity, head_dim});
    cache.v = tensor::Tensor::zeros({batch, heads, capacity, head_dim});
    cache.capacity = capacity;
    std::vector<float> out;
    std::int64_t pos = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const std::int64_t n = chunks[i];
      BatchShape shape;
      shape.batch = batch;
      shape.seq = n;
      shape.pos_offset = pos;
      auto x = tensor::Tensor::zeros({batch * n, hidden});
      std::copy(inputs[i].begin(), inputs[i].end(), x.data());
      auto y = layer.forward_incremental(x, shape, cache);
      out.insert(out.end(), y.data(), y.data() + y.numel());
      pos += n;
    }
    EXPECT_EQ(cache.length, pos);
    return out;
  };

  const auto fused = run(attn);
  const auto ref = run(oracle);
  sh::testing::expect_allclose(fused, ref, 1e-5f, 1e-4f);
}

// The determinism invariant: offloaded (windowed, asynchronously
// transferred) training is bit-identical to monolithic training. This holds
// because each (batch, head, panel) unit is owned by one thread and tiles
// accumulate in fixed order, independent of thread count and window size.
TEST(FusedAttention, MonoVsOffloadBitIdentical) {
  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 8;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.layers = 8;  // a window of 2 reserves 4 slots: half the model streams

  data::SyntheticCorpus corpus(mcfg.vocab, 99);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(corpus.next_batch(2, 8));

  nn::GptModel mono_model(mcfg);
  core::MonolithicTrainer mono(mono_model, optim::AdamConfig{});
  mono.init_params(42);
  std::vector<float> mono_losses;
  for (const auto& b : batches) mono_losses.push_back(mono.train_step(b));
  std::vector<float> mono_params;
  mono.snapshot_params(mono_params);

  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);

  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], mono_losses[i]) << "loss diverged at step " << i;
  }
  sh::testing::expect_allclose(params, mono_params, 0.0f, 0.0f);
}

// Continuous batched decoding under a KV budget tight enough to force
// preempt/resume produces exactly the token streams of solo generation
// (which re-runs the same fused kernel at different q_rows/causal_offset
// splits).
TEST(FusedAttention, BatchedDecodeMatchesSoloAcrossPreemption) {
  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 16;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.layers = 3;
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(17);

  auto make_requests = [] {
    std::vector<serve::Request> reqs;
    const std::vector<std::vector<std::int32_t>> prompts = {
        {3, 7}, {1}, {12, 30, 5}, {9, 0}, {4, 4, 4}, {22}};
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      serve::Request r;
      r.prompt = prompts[i];
      r.max_new_tokens = 10;
      r.sampling.temperature = 0.0f;
      r.sampling.seed = 100 + i;
      reqs.push_back(r);
    }
    return reqs;
  };

  serve::SchedulerConfig scfg;
  scfg.max_batch = 6;
  scfg.arena.chunk_tokens = 4;
  scfg.arena.budget_bytes = 12000;  // tight: decoding must preempt
  serve::Scheduler sched(engine, scfg);

  std::vector<std::uint64_t> ids;
  for (auto& r : make_requests()) ids.push_back(sched.submit(r));
  sched.run_to_completion();

  EXPECT_GE(sched.arena_stats().preemptions, 1u)
      << "budget did not force a preemption; the test lost its teeth";
  EXPECT_GE(sched.arena_stats().resumes, 1u);

  const auto reqs = make_requests();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto solo =
        engine.generate_incremental(reqs[i].prompt, reqs[i].max_new_tokens);
    EXPECT_EQ(sched.result(ids[i]), solo) << "request " << i;
  }
}

}  // namespace
}  // namespace sh::nn
