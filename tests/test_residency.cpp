// Turnaround residency: the engine keeps R blocks resident across each FP/BP
// turnaround, where R is every max-size slot it reserves (window plus stage
// slots). FP keeps its last R blocks for BP; BP updates blocks 1..R in place
// for the next FP. A steady-state step of N blocks therefore fetches exactly
// 2*(N-R) layers and drains N-R gradients — and none of it may change a bit
// of the result.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "tensor/dtype.hpp"
#include "testing/streaming.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

nn::GptConfig model_config(std::int64_t layers) {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = layers;
  return cfg;
}

std::vector<data::Batch> make_batches(std::int64_t bs, int count,
                                      std::uint64_t seed = 99) {
  data::SyntheticCorpus corpus(32, seed);
  std::vector<data::Batch> out;
  for (int i = 0; i < count; ++i) out.push_back(corpus.next_batch(bs, 8));
  return out;
}

struct StepTraffic {
  std::size_t h2d = 0;
  std::size_t d2h = 0;
  std::size_t h2d_bytes = 0;
};

/// Per-step transfer counts; quiesces after every step so the asynchronous
/// gradient drains are counted in the step that issued them.
std::vector<StepTraffic> traffic_per_step(StrongholdEngine& engine,
                                          const std::vector<data::Batch>& bs) {
  std::vector<StepTraffic> out;
  std::vector<float> scratch;
  EngineStats prev = engine.stats();
  for (const auto& b : bs) {
    engine.train_step(b);
    engine.snapshot_params(scratch);
    const EngineStats now = engine.stats();
    out.push_back({now.h2d_transfers - prev.h2d_transfers,
                   now.d2h_transfers - prev.d2h_transfers,
                   now.h2d_bytes - prev.h2d_bytes});
    prev = now;
  }
  return out;
}

TEST(Residency, SteadyStateMovesTwoNMinusRLayers) {
  const std::size_t n = 8;
  const auto mcfg = model_config(static_cast<std::int64_t>(n));
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;  // uniform slots: window + two stage slots
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const std::size_t r = engine.stats().resident_layers;
  ASSERT_EQ(r, 4u);

  const auto traffic = traffic_per_step(engine, make_batches(2, 4));
  const auto wire = static_cast<std::size_t>(model.layer(1).param_count()) *
                    sizeof(float);
  // The first step also fills blocks 1..R.
  EXPECT_EQ(traffic[0].h2d, r + 2 * (n - r));
  EXPECT_EQ(traffic[0].d2h, n - r);
  for (std::size_t s = 1; s < traffic.size(); ++s) {
    EXPECT_EQ(traffic[s].h2d, 2 * (n - r)) << "step " << s;
    EXPECT_EQ(traffic[s].d2h, n - r) << "step " << s;
    EXPECT_EQ(traffic[s].h2d_bytes, 2 * (n - r) * wire) << "step " << s;
  }
}

TEST(Residency, WholeModelInReservedSlotsMovesNothingAfterFirstStep) {
  // Four blocks with a window of 2 fit the four reserved slots (R >= N), and
  // a window as large as the model reserves one slot per block.
  for (const std::size_t window : {std::size_t{2}, std::size_t{4}}) {
    const auto mcfg = model_config(4);
    nn::GptModel model(mcfg);
    EngineConfig ecfg;
    ecfg.window = window;
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    EXPECT_EQ(engine.stats().resident_layers, 4u) << "window " << window;

    const auto traffic = traffic_per_step(engine, make_batches(2, 3));
    EXPECT_EQ(traffic[0].h2d, 4u) << "window " << window;
    EXPECT_EQ(traffic[0].d2h, 0u) << "window " << window;
    for (std::size_t s = 1; s < traffic.size(); ++s) {
      EXPECT_EQ(traffic[s].h2d, 0u) << "window " << window << " step " << s;
      EXPECT_EQ(traffic[s].d2h, 0u) << "window " << window << " step " << s;
    }
  }
}

TEST(Residency, ExportsResidentLayersMetric) {
  nn::GptModel model(model_config(8));
  EngineConfig ecfg;
  ecfg.window = 2;
  StrongholdEngine engine(model, ecfg);
  obs::MetricsSnapshot snap;
  engine.export_metrics(snap);
  const obs::Metric* m = snap.find("engine.resident_layers");
  ASSERT_NE(m, nullptr) << "engine.resident_layers not exported";
  EXPECT_EQ(m->value, 4.0);
  EXPECT_EQ(m->unit, "layers");
}

TEST(Residency, ByteBudgetKeepsWhatTheBufferHolds) {
  // The budget holds five max-size layers: R is five, above the window.
  nn::GptModel model(model_config(8));
  const auto slot_floats =
      2 * static_cast<std::size_t>(model.layer(1).param_count());
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_mode = WindowMode::ByteBudget;
  ecfg.window_budget_floats = 5 * slot_floats;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  EXPECT_EQ(engine.stats().resident_layers, 5u);
  const auto traffic = traffic_per_step(engine, make_batches(2, 3));
  for (std::size_t s = 1; s < traffic.size(); ++s) {
    EXPECT_EQ(traffic[s].h2d, 2u * (8 - 5)) << "step " << s;
    EXPECT_EQ(traffic[s].d2h, 8u - 5) << "step " << s;
  }
}

TEST(Residency, ServingBetweenTrainingStepsChangesNoBit) {
  // After a step, blocks 1..R hold in-place updates whose optimizer jobs may
  // still be running. A serving pass starts from blocks 1..window and so
  // evicts blocks window+1..R: it must wait for those updates first, and
  // the training that follows must not see a stale or torn block.
  for (const tensor::DType dtype : {tensor::DType::f32, tensor::DType::bf16}) {
    SCOPED_TRACE(tensor::dtype_name(dtype));
    const auto batches = make_batches(4, 4);
    const std::vector<data::Batch> before(batches.begin(), batches.begin() + 2);
    const std::vector<data::Batch> after(batches.begin() + 2, batches.end());

    nn::GptModel model(model_config(8));
    EngineConfig ecfg;
    ecfg.window = 2;
    ecfg.window_dtype = dtype;
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    ASSERT_EQ(engine.stats().resident_layers, 4u);
    std::vector<float> losses = sh::testing::train_streaming(engine, before);
    const std::size_t h2d_before_serving = engine.stats().h2d_transfers;
    const std::span<const std::int32_t> prompt(batches[2].ids.data(), 8);
    (void)engine.inference(prompt, nn::BatchShape{1, 8, false});
    (void)engine.generate_incremental(prompt.first(4), 3);
    EXPECT_GT(engine.stats().h2d_transfers, h2d_before_serving);
    for (float l : sh::testing::train_streaming(engine, after)) {
      losses.push_back(l);
    }
    std::vector<float> params;
    engine.snapshot_params(params);

    nn::GptModel ref_model(model_config(8));
    TrainOptions opts;
    opts.window_dtype = dtype;
    MonolithicTrainer ref(ref_model, optim::AdamConfig{}, opts);
    ref.init_params(42);
    std::vector<float> ref_losses;
    for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
    std::vector<float> ref_params;
    ref.snapshot_params(ref_params);
    EXPECT_EQ(losses, ref_losses);
    sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
  }
}

// Bit-identity with retention active (R = 4 > window = 2, and R < N = 8 so
// every step still streams) across the features whose update paths the
// resident blocks 3..4 now take in place.
struct ResidencyCase {
  std::string name;
  tensor::DType dtype = tensor::DType::f32;
  bool nvme = false;
  float clip = 0.0f;
  std::size_t accumulation = 1;
  std::size_t executors = 1;
};

class ResidencyMatrix : public ::testing::TestWithParam<ResidencyCase> {};

struct RunResult {
  std::vector<float> losses;
  std::vector<float> params;
};

RunResult run_engine(const ResidencyCase& c, std::size_t window,
               const std::vector<data::Batch>& batches) {
  nn::GptModel model(model_config(8));
  EngineConfig ecfg;
  ecfg.window = window;
  ecfg.window_dtype = c.dtype;
  ecfg.loss_scaler.initial_scale = 128.0f;
  ecfg.clip_grad_norm = c.clip;
  ecfg.grad_accumulation = c.accumulation;
  ecfg.num_executors = c.executors;
  if (c.nvme) {
    ecfg.optimizer_tier = OptimizerTier::nvme;
    std::ostringstream path;
    path << ::testing::TempDir() << "residency_" << c.name << "_w" << window
         << ".bin";
    ecfg.swap_path = path.str();
  }
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  RunResult run;
  if (window == 2) {
    EXPECT_EQ(engine.stats().resident_layers, 4u);
    run.losses = sh::testing::train_streaming(engine, batches);
  } else {
    for (const auto& b : batches) run.losses.push_back(engine.train_step(b));
  }
  engine.snapshot_params(run.params);
  return run;
}

TEST_P(ResidencyMatrix, RetentionChangesNoBit) {
  const ResidencyCase& c = GetParam();
  const auto batches = make_batches(4, 4);
  const RunResult streamed = run_engine(c, 2, batches);

  // Every block resident, updated in place, never streamed: the same
  // engine arithmetic without any turnaround.
  const RunResult resident = run_engine(c, 8, batches);
  EXPECT_EQ(streamed.losses, resident.losses);
  sh::testing::expect_allclose(streamed.params, resident.params, 0.0f, 0.0f);

  nn::GptModel ref_model(model_config(8));
  TrainOptions opts;
  opts.window_dtype = c.dtype;
  opts.clip_grad_norm = c.clip;
  opts.loss_scaler.initial_scale = 128.0f;
  MonolithicTrainer ref(ref_model, optim::AdamConfig{}, opts);
  ref.init_params(42);
  std::vector<float> ref_losses;
  // Accumulation feeds each oracle step's batch as micro-steps.
  for (std::size_t i = 0; i < batches.size(); i += c.accumulation) {
    data::Batch big;
    for (std::size_t k = i; k < i + c.accumulation; ++k) {
      big.ids.insert(big.ids.end(), batches[k].ids.begin(),
                     batches[k].ids.end());
      big.targets.insert(big.targets.end(), batches[k].targets.begin(),
                         batches[k].targets.end());
    }
    ref_losses.push_back(ref.train_step(big));
  }
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);
  if (c.accumulation == 1 && c.executors == 1) {
    EXPECT_EQ(streamed.losses, ref_losses);
    sh::testing::expect_allclose(streamed.params, ref_params, 0.0f, 0.0f);
  } else {
    // Splitting a batch across micro-steps or executors reorders float sums.
    sh::testing::expect_allclose(streamed.params, ref_params, 1e-5f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Features, ResidencyMatrix,
    ::testing::Values(ResidencyCase{.name = "f32"},
                      ResidencyCase{.name = "bf16",
                                    .dtype = tensor::DType::bf16},
                      ResidencyCase{.name = "f16",
                                    .dtype = tensor::DType::f16},
                      ResidencyCase{.name = "nvme", .nvme = true},
                      ResidencyCase{.name = "clip", .clip = 0.05f},
                      ResidencyCase{.name = "accumulation",
                                    .accumulation = 2},
                      ResidencyCase{.name = "executors", .executors = 2}),
    [](const ::testing::TestParamInfo<ResidencyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sh::core
