#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "mem/device_arena.hpp"
#include "mem/pool_policies.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

// Pool requests below are multiples of mem::kRegionAlign so offsets stay
// exact; off-multiple sizes round up (AlignsOddRequests covers that).

TEST(ByteBudgetPool, FirstFitAllocation) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 1600);
  std::byte* a = pool.acquire(640);
  std::byte* b = pool.acquire(640);
  EXPECT_EQ(b - a, 640);
  EXPECT_EQ(pool.bytes_in_use(), 1280u);
  EXPECT_EQ(pool.largest_free_region(), 320u);
  pool.release(a);
  // First fit reuses the freed head region.
  std::byte* c = pool.acquire(480);
  EXPECT_EQ(c, a);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_EQ(pool.largest_free_region(), 1600u);  // fully coalesced
}

TEST(ByteBudgetPool, CoalescesWithBothNeighbours) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 1440);
  std::byte* a = pool.acquire(480);
  std::byte* b = pool.acquire(480);
  std::byte* c = pool.acquire(480);
  pool.release(a);
  pool.release(c);
  EXPECT_EQ(pool.largest_free_region(), 480u);  // two disjoint 480s
  pool.release(b);                              // merges all three
  EXPECT_EQ(pool.largest_free_region(), 1440u);
}

TEST(ByteBudgetPool, AlignsOddRequests) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 256);
  std::byte* a = pool.acquire(17);  // rounds up to 32
  std::byte* b = pool.acquire(16);
  EXPECT_EQ(b - a, 32);
  EXPECT_EQ(pool.bytes_in_use(), 48u);
  pool.release(a);
  pool.release(b);
}

TEST(ByteBudgetPool, OversizedRequestThrowsImmediately) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 64);
  EXPECT_THROW(pool.acquire(65), mem::OomError);
  EXPECT_THROW(pool.acquire(0), std::invalid_argument);
}

TEST(ByteBudgetPool, BlocksUntilSpaceFrees) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 1024);
  std::byte* a = pool.acquire(800);
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    std::byte* b = pool.acquire(640);
    got = true;
    pool.release(b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  pool.release(a);
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(ByteBudgetPool, PoisonsReleasedRegions) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 128);
  std::byte* a = pool.acquire(128);
  std::fill_n(a, 128, std::byte{0});
  pool.release(a);
  std::byte* b = pool.acquire(128);
  ASSERT_EQ(b, a);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(b[i], mem::kPoisonByte);
  pool.release(b);
}

TEST(ByteBudgetPool, UnknownReleaseThrows) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 128);
  std::byte* a = pool.acquire(64);
  std::byte foreign{0};
  EXPECT_THROW(pool.release(&foreign), std::logic_error);
  EXPECT_THROW(pool.release(a + 1), std::logic_error);  // interior pointer
  pool.release(a);
  EXPECT_THROW(pool.release(a), std::logic_error);  // double free
}

TEST(ByteBudgetPool, TracksPeakUsage) {
  mem::DeviceArena gpu("gpu", 1 << 20);
  mem::ByteBudgetPool pool(gpu, 1600);
  std::byte* a = pool.acquire(960);
  std::byte* b = pool.acquire(480);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.peak_bytes_in_use(), 1440u);
  EXPECT_EQ(pool.total_acquisitions(), 2u);
}

TEST(ByteBudgetPool, ConcurrentChurnKeepsInvariants) {
  mem::DeviceArena gpu("gpu", 1 << 22);
  mem::ByteBudgetPool pool(gpu, 16384);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::size_t n =
            256 + 97 * static_cast<std::size_t>((t + i) % 7);
        std::byte* p = pool.acquire(n);
        p[0] = std::byte{1};
        p[n - 1] = std::byte{2};
        pool.release(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.bytes_in_use(), 0u);
  EXPECT_EQ(pool.live_regions(), 0u);
  EXPECT_EQ(pool.largest_free_region(), 16384u);
}

nn::GptConfig moe_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 4;
  cfg.moe_experts = 4;  // MoE blocks ~4x a dense block
  cfg.moe_every = 4;    // one big layer among small ones
  return cfg;
}

TEST(ByteBudgetEngine, HeterogeneousTrainingMatchesMonolithic) {
  // Eight blocks (two MoE): the budget derived from window 2 holds four
  // max-size layers, so the rest of the model streams every step.
  auto mcfg = moe_config();
  mcfg.layers = 8;
  data::SyntheticCorpus corpus(mcfg.vocab, 31);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 2; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  nn::GptModel ref_model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_mode = WindowMode::ByteBudget;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const auto losses = sh::testing::train_streaming(engine, batches);
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(ByteBudgetEngine, FitsWhereUniformSlotsCannot) {
  // With one MoE block among dense blocks, uniform slots must all be sized
  // for the MoE block; a byte budget packs the actual sizes.
  const auto mcfg = moe_config();
  nn::GptModel probe(mcfg);
  std::int64_t max_params = 0;
  std::int64_t sum_small = 0;
  for (std::size_t i = 1; i + 1 < probe.num_layers(); ++i) {
    max_params = std::max(max_params, probe.layer(i).param_count());
  }
  for (std::size_t i = 1; i + 1 < probe.num_layers(); ++i) {
    if (probe.layer(i).param_count() != max_params) {
      sum_small += probe.layer(i).param_count();
    }
  }
  ASSERT_GT(max_params, 2 * sum_small / 3);  // genuinely heterogeneous

  // GPU big enough for pinned layers + ~1.5 max-size windows, but not for
  // 3 uniform max-size slots (window 2 -> 3 slots).
  const std::size_t pinned =
      2 * sizeof(float) *
      static_cast<std::size_t>(probe.layer(0).param_count() +
                               probe.layer(probe.num_layers() - 1)
                                   .param_count());
  const std::size_t slot_bytes =
      2 * sizeof(float) * static_cast<std::size_t>(max_params);
  const std::size_t gpu_mem = pinned + 2 * slot_bytes + slot_bytes / 2;

  nn::GptModel m1(mcfg);
  EngineConfig uniform;
  uniform.window = 2;
  uniform.gpu_memory_bytes = gpu_mem;
  EXPECT_THROW(StrongholdEngine(m1, uniform), mem::OomError);

  nn::GptModel m2(mcfg);
  EngineConfig budget;
  budget.window = 2;
  budget.gpu_memory_bytes = gpu_mem;
  budget.window_mode = WindowMode::ByteBudget;
  budget.window_budget_floats = 2 * static_cast<std::size_t>(max_params) +
                                2 * static_cast<std::size_t>(sum_small);
  StrongholdEngine engine(m2, budget);
  engine.init_params(1);
  data::SyntheticCorpus corpus(mcfg.vocab, 2);
  const float loss = engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  EXPECT_GT(loss, 0.0f);
}

TEST(ByteBudgetEngine, AutoWindowWarmsUpWithinBudget) {
  // window = 0 with a budget smaller than the device: the warm-up and the
  // auto-selected window must fit the budget. Sized from the device, FP
  // never evicts and the first acquire past the budget blocks forever.
  nn::GptConfig mcfg = moe_config();
  mcfg.moe_experts = 0;
  mcfg.layers = 6;
  data::SyntheticCorpus corpus(mcfg.vocab, 33);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 5; ++i) {
    batches.push_back(corpus.next_batch(2, mcfg.max_seq));
  }
  nn::GptModel ref_model(mcfg), model(mcfg);
  MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(42);
  std::vector<float> ref_losses, ref_params, losses, params;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  ref.snapshot_params(ref_params);

  EngineConfig ecfg;
  ecfg.window = 0;  // auto, after warmup_iterations = 2
  ecfg.window_mode = WindowMode::ByteBudget;
  ecfg.window_budget_floats =  // 3 slots: window 2 plus one prefetch
      3 * 2 * static_cast<std::size_t>(model.layer(1).param_count());
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  EXPECT_LE(engine.window(), 2u);
  losses = sh::testing::train_streaming(engine, batches);
  engine.snapshot_params(params);
  EXPECT_TRUE(engine.stats().window_auto_selected);
  EXPECT_LE(engine.stats().window, 2u);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

}  // namespace
}  // namespace sh::core
