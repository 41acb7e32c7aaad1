// sh::mem — the accounted device-memory subsystem (DeviceArena, pool
// policies, the tensor charge hook and the pressure layer) plus the two
// graceful-degradation paths it unifies: the engine's deferred prefetch and
// the serve scheduler's preempt-to-CPU.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "mem/device_arena.hpp"
#include "mem/pool_policies.hpp"
#include "serve/scheduler.hpp"
#include "tensor/tensor.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::mem {
namespace {

TEST(DeviceArena, OomErrorCarriesPoolAndByteMetadata) {
  DeviceArena arena("gpu0", 1024);
  float* held = arena.allocate_floats(100);  // 400 B of workspace
  try {
    arena.allocate_floats(200);  // 800 B > 624 B free
    FAIL() << "expected OomError";
  } catch (const OomError& e) {
    EXPECT_EQ(e.pool(), "gpu0");
    EXPECT_EQ(e.requested_bytes(), 800u);
    EXPECT_EQ(e.free_bytes(), 624u);
  }
  arena.deallocate(held);

  // Policy pools put their own name in the error: a ByteBudgetPool rejects
  // oversized requests against its budget, not the arena capacity. Requests
  // are byte-typed and rounded up to kRegionAlign.
  DeviceArena roomy("gpu", 1 << 20);
  ByteBudgetPool pool(roomy, 64);
  try {
    pool.acquire(65);
    FAIL() << "expected OomError";
  } catch (const OomError& e) {
    EXPECT_EQ(e.pool(), "window-budget");
    EXPECT_EQ(e.requested_bytes(), 80u);  // 65 rounded up to 16-byte align
    EXPECT_EQ(e.free_bytes(), 64u);
  }
}

TEST(DeviceArena, RegionStatsSumToArenaTotals) {
  DeviceArena arena("gpu", 4096);
  float* w = arena.allocate_floats(64, DeviceArena::kWindow);  // 256 B hard
  ASSERT_TRUE(arena.try_charge(DeviceArena::kKv, 512));        // reservation
  tensor::Tensor act;
  {
    ScopedTensorCharge scope(arena, DeviceArena::kActivations);
    act = tensor::Tensor::zeros({32});  // 128 B soft
  }

  const auto s = arena.stats();
  std::size_t region_sum = 0;
  std::size_t region_soft = 0;
  for (const auto& [name, rs] : s.regions) {
    region_sum += rs.bytes_in_use;
    region_soft += rs.soft_bytes;
  }
  EXPECT_EQ(region_sum, s.bytes_in_use);
  EXPECT_EQ(region_sum, arena.bytes_in_use());
  EXPECT_EQ(region_sum, 256u + 512u + 128u);
  EXPECT_EQ(region_soft, 128u);
  EXPECT_EQ(s.regions.at(DeviceArena::kWindow).bytes_in_use, 256u);
  EXPECT_EQ(s.regions.at(DeviceArena::kKv).bytes_in_use, 512u);
  EXPECT_EQ(s.regions.at(DeviceArena::kActivations).bytes_in_use, 128u);
  // Soft bytes do not consume enforced capacity; hard bytes do.
  EXPECT_EQ(arena.free_bytes(), 4096u - 256u - 512u);
  EXPECT_EQ(arena.peak_bytes(), arena.bytes_in_use());

  arena.uncharge(DeviceArena::kKv, 512);
  arena.deallocate(w);
  act = tensor::Tensor();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.peak_bytes(), 896u);  // one peak convention, monotone
}

TEST(DeviceArena, TensorChargeFollowsStorageLifetimeAndNesting) {
  DeviceArena arena("gpu", 1 << 16);
  tensor::Tensor outer, inner;
  {
    ScopedTensorCharge a(arena, DeviceArena::kActivations);
    outer = tensor::Tensor::zeros({16});  // 64 B -> activations
    {
      ScopedTensorCharge k(arena, DeviceArena::kKv);
      inner = tensor::Tensor::zeros({8});  // 32 B -> kv
    }
    // The nested scope restored the previous one.
    tensor::Tensor again = tensor::Tensor::zeros({4});  // 16 B -> activations
    EXPECT_EQ(arena.stats().regions.at(DeviceArena::kActivations).bytes_in_use,
              80u);
  }
  // Outside any scope, tensors are unaccounted.
  tensor::Tensor plain = tensor::Tensor::zeros({1024});
  EXPECT_EQ(arena.bytes_in_use(), 64u + 32u);

  // A copy shares storage: the charge is released only when the last
  // owner dies.
  tensor::Tensor alias = outer;
  outer = tensor::Tensor();
  EXPECT_EQ(arena.stats().regions.at(DeviceArena::kActivations).bytes_in_use,
            64u);
  alias = tensor::Tensor();
  inner = tensor::Tensor();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(DeviceArena, ChargedTensorMaySafelyOutliveArena) {
  tensor::Tensor survivor;
  {
    DeviceArena arena("gpu", 1 << 12);
    ScopedTensorCharge scope(arena, DeviceArena::kActivations);
    survivor = tensor::Tensor::zeros({64});
    EXPECT_EQ(arena.bytes_in_use(), 256u);
  }
  // Arena is gone; dropping the tensor must uncharge via the shared ledger
  // without touching freed memory.
  survivor.span()[0] = 1.0f;
  survivor = tensor::Tensor();
}

TEST(DeviceArena, PressureCallbackFreesCapacityForEnforcedRequests) {
  DeviceArena arena("gpu", 400);
  float* hog = arena.allocate_floats(100);  // arena full
  std::string seen_region;
  const auto id = arena.add_pressure_callback(
      [&](const std::string& region, std::size_t) {
        seen_region = region;
        if (hog == nullptr) return false;
        arena.deallocate(hog);
        hog = nullptr;
        return true;
      });

  // The allocation succeeds because the callback evicted the hog.
  float* p = arena.allocate_floats(50, DeviceArena::kWindow);
  EXPECT_EQ(seen_region, DeviceArena::kWindow);
  auto s = arena.stats();
  EXPECT_GE(s.pressure_events, 1u);
  EXPECT_EQ(s.pressure_releases, 1u);
  EXPECT_EQ(s.pressure_stalls, 0u);

  // try_charge never signals pressure — the caller owns degradation.
  EXPECT_FALSE(arena.try_charge(DeviceArena::kKv, 400));
  EXPECT_EQ(arena.stats().pressure_releases, 1u);

  // With nothing left to evict the callback stalls and OomError surfaces.
  EXPECT_THROW(arena.allocate_floats(200), OomError);
  EXPECT_GE(arena.stats().pressure_stalls, 1u);

  arena.remove_pressure_callback(id);
  arena.deallocate(p);
  EXPECT_THROW(arena.uncharge(DeviceArena::kKv, 1), std::logic_error);
}

nn::GptConfig tiny_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 16;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 4;
  return cfg;
}

// Degradation path #1: a byte-budget window too small for the requested
// prefetch depth defers layer movement (the paper's "delay the layer
// movement") instead of deadlocking or aborting — and stays bit-identical
// to monolithic training.
TEST(MemPressure, ReducedBudgetEngineDefersPrefetchWithoutDeadlock) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 17);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) {
    batches.push_back(corpus.next_batch(2, mcfg.max_seq));
  }

  nn::GptModel ref_model(mcfg);
  core::MonolithicTrainer ref(ref_model, optim::AdamConfig{});
  ref.init_params(9);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));

  nn::GptModel probe(mcfg);
  std::size_t block_floats = 0;
  for (std::size_t i = 1; i + 1 < probe.num_layers(); ++i) {
    block_floats = std::max(
        block_floats, 2 * static_cast<std::size_t>(probe.layer(i).param_count()));
  }

  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_mode = core::WindowMode::ByteBudget;
  // Room for 2.5 layer slots where window 2 wants 3 (window + prefetch
  // ahead): the two resident layers always fit, but the hook-time prefetch
  // finds no space and must defer.
  ecfg.window_budget_floats = 2 * block_floats + block_floats / 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(9);

  const auto losses = sh::testing::train_streaming(engine, batches);
  EXPECT_EQ(losses, ref_losses);  // degraded, not different

  const auto stats = engine.stats();
  EXPECT_GT(stats.deferred_prefetches, 0u);
  EXPECT_GT(stats.arena.pressure_events, 0u);
  EXPECT_GE(stats.arena.pressure_stalls, stats.deferred_prefetches);
}

// All device-resident bytes land in one arena: after training, the engine's
// region stats sum to its bytes_in_use and the activation/window regions
// both saw traffic.
TEST(MemPressure, EngineChargesAllRegionsToOneArena) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  data::SyntheticCorpus corpus(mcfg.vocab, 5);
  engine.train_step(corpus.next_batch(2, mcfg.max_seq));

  const auto stats = engine.stats();
  std::size_t region_sum = 0;
  for (const auto& [name, rs] : stats.arena.regions) {
    region_sum += rs.bytes_in_use;
  }
  EXPECT_EQ(region_sum, stats.arena.bytes_in_use);
  EXPECT_GT(stats.arena.regions.at(DeviceArena::kWindow).bytes_in_use, 0u);
  EXPECT_GT(stats.arena.regions.at(DeviceArena::kActivations).peak_bytes, 0u);
  // EngineStats::gpu_high_water_bytes is the arena peak (one convention).
  EXPECT_EQ(stats.gpu_high_water_bytes, engine.device_arena().peak_bytes());
}

// Degradation path #2: KV exhaustion of the SHARED device arena triggers
// preempt-to-CPU through the registered pressure callback, and the token
// streams still match solo generation.
TEST(MemPressure, ArenaExhaustionPreemptsThroughSharedCallback) {
  const auto mcfg = tiny_config();

  core::EngineConfig ecfg;
  ecfg.window = 2;
  // Size the device so only one request's KV footprint (12 tokens *
  // 512 B/token = 6144 B) remains beyond the window: eight concurrent
  // requests must preempt each other through the shared arena.
  {
    nn::GptModel probe(mcfg);
    core::StrongholdEngine probe_engine(probe, ecfg);
    ecfg.gpu_memory_bytes = probe_engine.device_arena().used() + 8192;
  }
  nn::GptModel model(mcfg);
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(11);

  serve::SchedulerConfig scfg;
  scfg.max_batch = 8;
  scfg.arena.chunk_tokens = 4;
  // budget_bytes stays 0: resolved to the residual free capacity.
  serve::Scheduler sched(engine, scfg);
  EXPECT_EQ(sched.kv_budget_bytes(), 8192u);

  std::vector<serve::Request> reqs;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    serve::Request r;
    r.prompt = {static_cast<std::int32_t>((1 + 3 * i) % mcfg.vocab),
                static_cast<std::int32_t>((2 + 5 * i) % mcfg.vocab)};
    r.max_new_tokens = 10;  // greedy; 12 tokens * 512 B/token per request
    reqs.push_back(r);
    ids.push_back(sched.submit(r));
  }
  sched.run_to_completion();

  EXPECT_GE(sched.arena_stats().preemptions, 1u);
  EXPECT_GE(sched.arena_stats().resumes, 1u);
  const auto as = engine.device_arena().stats();
  EXPECT_GE(as.pressure_releases, 1u);  // preemptions came via the callback
  EXPECT_GT(as.regions.at(DeviceArena::kKv).peak_bytes, 0u);
  EXPECT_LE(as.regions.at(DeviceArena::kKv).peak_bytes, 8192u);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto solo =
        engine.generate_incremental(reqs[i].prompt, reqs[i].max_new_tokens);
    EXPECT_EQ(sched.result(ids[i]), solo) << "request " << i;
  }
}

// The shared arena is one budget: bytes reserved by the KV arena reduce
// what an explicit over-residual budget can actually use.
TEST(MemPressure, ExplicitKvBudgetClampsToResidual) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  {
    nn::GptModel probe(mcfg);
    core::StrongholdEngine probe_engine(probe, ecfg);
    ecfg.gpu_memory_bytes = probe_engine.device_arena().used() + 8192;
  }
  nn::GptModel model(mcfg);
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(1);

  serve::SchedulerConfig scfg;
  scfg.arena.budget_bytes = std::size_t{1} << 30;  // far beyond the device
  serve::Scheduler sched(engine, scfg);
  EXPECT_EQ(sched.kv_budget_bytes(), 8192u);
}

}  // namespace
}  // namespace sh::mem
