// Figure 4: GPU computation / offloading trace of STRONGHOLD training.
//
// Part 1 (virtual time): the simulated schedule of a 4B model on a 32 GB
// V100, rendered as an ASCII Gantt chart — the paper's setting.
// Part 2 (wall clock): the numeric runtime actually training a small model
// with the obs recorder enabled; utilization/overlap are computed on the
// REAL execution timeline via obs::to_sim_trace.
//
// Writes fig4_trace.json (Chrome trace-event JSON with both the wall-clock
// and virtual-time tracks — open in https://ui.perfetto.dev) and
// BENCH_fig4.json (flat metrics, including the measured overlap fractions).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "baselines/stronghold_strategy.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "nn/gpt.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "sim/trace.hpp"

int main() {
  using namespace sh;

  // --- Part 1: simulated schedule (the paper's 4B-on-V100 setting) ---
  const auto machine = sim::v100_server();
  const auto w = bench::make_workload(50, 2560, 4.0);  // the 4B model

  baselines::StrongholdStrategy sh_strategy;
  sim::Trace sim_trace;
  const auto rep = sh_strategy.iteration(w, machine, &sim_trace);

  bench::header("Figure 4: one training iteration of a 4B model (V100)");
  std::printf("window m = %zu, iteration = %.2f s, %.2f samples/s\n\n",
              rep.window, rep.seconds, rep.throughput);
  sim_trace.render(std::cout, 110);
  std::printf(
      "\nGPU utilization      : %5.1f%%\n"
      "h2d overlap w/ compute: %5.1f%% of transfer time\n"
      "d2h overlap w/ compute: %5.1f%% of transfer time\n",
      100.0 * sim_trace.utilization("gpu"),
      100.0 * sim_trace.overlap_fraction("h2d", "gpu"),
      100.0 * sim_trace.overlap_fraction("d2h", "gpu"));
  std::printf("Paper: communication largely hidden by GPU computation when "
              "P1/P2 are satisfied.\n");

  // --- Part 2: the numeric runtime, measured on the wall clock ---
  obs::Recorder::global().clear();
  obs::Recorder::global().set_enabled(true);

  nn::GptConfig mc;
  mc.vocab = 256;
  mc.max_seq = 32;
  mc.hidden = 128;
  mc.heads = 4;
  mc.layers = 8;
  nn::GptModel model(mc);

  obs::MetricsSnapshot metrics;
  const std::size_t steps = 6;
  double f32_h2d_per_step = 0.0;
  // Steady-state layer fetches per step (the first step also fills blocks
  // 1..R): host-independent, 2*(N-R) when turnaround residency holds.
  double fetches_per_step = 0.0;
  std::size_t resident = 0;
  {
    core::EngineConfig cfg;
    cfg.window = 2;
    cfg.optimizer_workers = 2;
    // PCIe-like throttles so transfers are long enough to measure overlap.
    cfg.h2d_bytes_per_s = 4.0e9;
    cfg.d2h_bytes_per_s = 4.0e9;
    core::StrongholdEngine engine(model, cfg);
    engine.init_params(1);

    data::SyntheticCorpus corpus(mc.vocab, /*seed=*/7);
    std::size_t fetches_after_first = 0;
    for (std::size_t i = 0; i < steps; ++i) {
      const auto batch = corpus.next_batch(4, mc.max_seq);
      engine.train_step(batch);
      if (i == 0) fetches_after_first = engine.stats().h2d_transfers;
    }
    // Quiesce so every asynchronous transfer/update span has landed.
    std::vector<float> tmp;
    engine.snapshot_params(tmp);
    metrics = obs::Registry::global().snapshot();
    const core::EngineStats st = engine.stats();
    f32_h2d_per_step = static_cast<double>(st.h2d_bytes) / steps;
    fetches_per_step =
        static_cast<double>(st.h2d_transfers - fetches_after_first) /
        static_cast<double>(steps - 1);
    resident = st.resident_layers;
  }
  obs::Recorder::global().set_enabled(false);

  // Same schedule with the BF16 working window: the wire bytes (and thus
  // the PCIe throttle time) must halve while FP32 masters stay the ground
  // truth. Recorded alongside the FP32 numbers so check_fig4.py can gate
  // the halved-transfer claim.
  double bf16_h2d_per_step = 0.0;
  {
    nn::GptModel bf16_model(mc);
    core::EngineConfig cfg;
    cfg.window = 2;
    cfg.optimizer_workers = 2;
    cfg.h2d_bytes_per_s = 4.0e9;
    cfg.d2h_bytes_per_s = 4.0e9;
    cfg.window_dtype = tensor::DType::bf16;
    core::StrongholdEngine engine(bf16_model, cfg);
    engine.init_params(1);
    data::SyntheticCorpus corpus(mc.vocab, /*seed=*/7);
    for (std::size_t i = 0; i < steps; ++i) {
      engine.train_step(corpus.next_batch(4, mc.max_seq));
    }
    std::vector<float> tmp;
    engine.snapshot_params(tmp);
    bf16_h2d_per_step =
        static_cast<double>(engine.stats().h2d_bytes) / steps;
  }
  const double h2d_ratio =
      f32_h2d_per_step > 0.0 ? bf16_h2d_per_step / f32_h2d_per_step : 0.0;

  const std::vector<obs::Span> wall = obs::Recorder::global().snapshot();
  const sim::Trace real = obs::to_sim_trace(wall);
  const double util = real.utilization("gpu");
  const double h2d_ov = real.overlap_fraction("h2d", "gpu");
  const double d2h_ov = real.overlap_fraction("d2h", "gpu");

  bench::header("Measured overlap: numeric runtime, wall clock");
  std::printf("%zu recorded spans over %.3f s\n", wall.size(),
              real.end_time());
  std::printf(
      "GPU utilization      : %5.1f%%\n"
      "h2d overlap w/ compute: %5.1f%% of transfer time\n"
      "d2h overlap w/ compute: %5.1f%% of transfer time\n",
      100.0 * util, 100.0 * h2d_ov, 100.0 * d2h_ov);
  std::printf(
      "h2d bytes/step        : %.0f (f32)  %.0f (bf16 window)  ratio %.3f\n",
      f32_h2d_per_step, bf16_h2d_per_step, h2d_ratio);
  std::printf(
      "h2d fetches/step      : %.1f steady state (N = %lld blocks, R = %zu "
      "resident at the turnarounds; 2*(N-R) = %lld)\n",
      fetches_per_step, static_cast<long long>(mc.layers), resident,
      2 * (static_cast<long long>(mc.layers) -
           static_cast<long long>(resident)));

  metrics.add("fig4.real.h2d_bytes_per_step", f32_h2d_per_step, "bytes");
  metrics.add("fig4.real.h2d_fetches_per_step", fetches_per_step, "layers");
  metrics.add("fig4.bf16.h2d_bytes_per_step", bf16_h2d_per_step, "bytes");
  metrics.add("fig4.bf16.h2d_bytes_ratio", h2d_ratio, "");
  metrics.add("fig4.real.gpu_utilization", util, "");
  metrics.add("fig4.real.h2d_overlap_fraction", h2d_ov, "");
  metrics.add("fig4.real.d2h_overlap_fraction", d2h_ov, "");
  metrics.add("fig4.sim.gpu_utilization", sim_trace.utilization("gpu"), "");
  metrics.add("fig4.sim.h2d_overlap_fraction",
              sim_trace.overlap_fraction("h2d", "gpu"), "");
  metrics.add("fig4.sim.d2h_overlap_fraction",
              sim_trace.overlap_fraction("d2h", "gpu"), "");

  {
    std::ofstream os("fig4_trace.json");
    obs::write_chrome_trace(os, wall, &sim_trace, &metrics);
  }
  {
    std::ofstream os("BENCH_fig4.json");
    obs::write_metrics_json(os, metrics);
  }
  std::printf("\nwrote fig4_trace.json (Perfetto: wall-clock + virtual-time "
              "tracks) and BENCH_fig4.json\n");
  return 0;
}
