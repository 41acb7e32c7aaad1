// Kernel-substrate bench: blocked/packed GEMM (tensor/gemm.cpp) vs the
// seed's naive row-streaming matmul (the matmul_ref test oracle) on the GEMM
// shapes the GPT blocks actually produce, fused-epilogue savings, the fused
// attention layer vs the materialised-probs attention oracle, and the
// production end-to-end train_step time.
//
// Prints a fixed-width table and writes BENCH_kernels.json so the perf
// trajectory is tracked per-PR (CI runs `bench_kernels --smoke` and uploads
// the JSON as an artifact).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "mem/device_arena.hpp"
#include "nn/attention.hpp"
#include "nn/gpt.hpp"
#include "tensor/dtype.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "testing/attention_ref.hpp"
#include "testing/matmul_ref.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls `fn` repeatedly until ~`budget_s` elapses (at least twice, first
/// call treated as warm-up) and returns the best per-call seconds.
template <typename Fn>
double time_best(double budget_s, Fn&& fn) {
  fn();  // warm-up
  double best = 1e30;
  double spent = 0.0;
  int reps = 0;
  while (spent < budget_s || reps < 1) {
    const auto t0 = Clock::now();
    fn();
    const double dt = seconds_since(t0);
    best = dt < best ? dt : best;
    spent += dt;
    ++reps;
  }
  return best;
}

struct GemmShape {
  const char* name;  // which GPT-block GEMM this is
  std::int64_t m, n, k;
  bool ta, tb;
};

struct GemmRow {
  GemmShape shape;
  double gflops_ref = 0.0;
  double gflops_blocked = 0.0;
  double speedup() const { return gflops_blocked / gflops_ref; }
};

GemmRow run_gemm_shape(const GemmShape& s, double budget_s) {
  sh::tensor::Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
  std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
  rng.fill_uniform(a, 1.0f);
  rng.fill_uniform(b, 1.0f);

  const double flops = 2.0 * s.m * s.n * s.k;
  GemmRow row{s, 0.0, 0.0};
  const double t_ref = time_best(budget_s, [&] {
    sh::testing::matmul_ref(a.data(), b.data(), c.data(), s.m, s.n, s.k, s.ta,
                            s.tb);
  });
  const double t_new = time_best(budget_s, [&] {
    sh::tensor::matmul(a.data(), b.data(), c.data(), s.m, s.n, s.k, s.ta,
                       s.tb);
  });
  row.gflops_ref = flops / t_ref * 1e-9;
  row.gflops_blocked = flops / t_new * 1e-9;
  return row;
}

struct FusedRow {
  std::int64_t m, n, k;
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
  double speedup() const { return unfused_ms / fused_ms; }
};

FusedRow run_fused(std::int64_t m, std::int64_t n, std::int64_t k,
                   double budget_s) {
  sh::tensor::Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> w(static_cast<std::size_t>(n * k));
  std::vector<float> bias(static_cast<std::size_t>(n));
  std::vector<float> pre(static_cast<std::size_t>(m * n));
  std::vector<float> out(static_cast<std::size_t>(m * n));
  rng.fill_uniform(a, 1.0f);
  rng.fill_uniform(w, 1.0f);
  rng.fill_uniform(bias, 1.0f);

  auto unfused = [&] {
    sh::tensor::matmul(a.data(), w.data(), pre.data(), m, n, k, false, true);
    sh::tensor::add_bias(pre.data(), bias.data(), pre.data(), m, n);
    sh::tensor::gelu_forward(pre.data(), out.data(), m * n);
  };
  auto fused = [&] {
    sh::tensor::matmul_bias_gelu(a.data(), w.data(), bias.data(), pre.data(),
                                 out.data(), m, n, k, false, true);
  };
  // Two alternating rounds, best of each: clock-frequency drift over the
  // run otherwise penalises whichever variant is timed last.
  FusedRow row{m, n, k, 1e30, 1e30};
  for (int round = 0; round < 2; ++round) {
    row.unfused_ms =
        std::min(row.unfused_ms, 1e3 * time_best(budget_s / 2, unfused));
    row.fused_ms =
        std::min(row.fused_ms, 1e3 * time_best(budget_s / 2, fused));
  }
  return row;
}

/// Production engine train_step time (ms per step, after one warm-up round).
double run_end_to_end(bool smoke) {
  sh::nn::GptConfig mcfg;
  mcfg.vocab = 128;
  mcfg.max_seq = smoke ? 16 : 64;
  mcfg.hidden = smoke ? 64 : 256;
  mcfg.heads = 4;
  mcfg.layers = smoke ? 2 : 4;
  sh::nn::GptModel model(mcfg);
  sh::core::EngineConfig ecfg;
  ecfg.window = 2;
  sh::core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);

  sh::data::SyntheticCorpus corpus(mcfg.vocab, 99);
  const auto batch = corpus.next_batch(smoke ? 2 : 4, mcfg.max_seq);
  const int steps = smoke ? 2 : 4;

  auto run_steps = [&] {
    for (int i = 0; i < steps; ++i) engine.train_step(batch);
  };
  run_steps();  // warm-up (fills caches, engine warm-up iterations)
  const auto t0 = Clock::now();
  run_steps();
  return 1e3 * seconds_since(t0) / steps;
}

struct AttnRow {
  std::int64_t seq = 0;
  double ref_ms = 0.0;
  double fused_ms = 0.0;
  std::size_t ref_act_bytes = 0;
  std::size_t fused_act_bytes = 0;
  double speedup() const { return ref_ms / fused_ms; }
  double ref_tok_s() const { return seq / (ref_ms * 1e-3); }
  double fused_tok_s() const { return seq / (fused_ms * 1e-3); }
  double act_reduction() const {
    return static_cast<double>(ref_act_bytes) /
           static_cast<double>(fused_act_bytes);
  }
};

/// Peak activation bytes and best fwd+bwd ms of one attention layer. Peak
/// bytes come from a DeviceArena soft-charge scope around one fwd+bwd pass:
/// every owning tensor the layer allocates (QKV, context, softmax stats /
/// the [seq, seq] probs matrix, grad-QKV) is charged; the fused kernel's
/// constant per-thread tile scratch deliberately is not — it is O(1)
/// workspace, which is the point of the fusion.
template <typename Layer>
void measure_attention(Layer& layer, const sh::tensor::Tensor& x,
                       const sh::tensor::Tensor& gy,
                       const sh::nn::BatchShape& shape, double budget_s,
                       double& ms, std::size_t& act_bytes) {
  auto step = [&] {
    layer.forward(x, shape);
    layer.backward(gy, shape);
  };
  {
    sh::mem::DeviceArena arena("bench_attn", std::size_t{1} << 40);
    {
      sh::mem::ScopedTensorCharge charge(arena,
                                         sh::mem::DeviceArena::kActivations);
      step();
    }
    act_bytes = arena.stats()
                    .regions.at(sh::mem::DeviceArena::kActivations)
                    .peak_bytes;
  }
  ms = 1e3 * time_best(budget_s, step);
}

/// One CausalSelfAttention layer (fused tiled kernel) vs the
/// materialised-probs attention oracle bound to the same parameters, at a
/// given sequence length.
AttnRow run_attention(std::int64_t seq, std::int64_t hidden,
                      std::int64_t heads, double budget_s) {
  sh::nn::CausalSelfAttention attn("bench.attn", hidden, heads);
  sh::nn::OwnedStorage store(attn.param_count());
  attn.bind(store.params(), store.grads());
  sh::tensor::Rng rng(5);
  attn.init(rng);
  sh::testing::AttentionRef oracle(hidden, heads);
  sh::nn::OwnedStorage ref_store(oracle.param_count());
  oracle.bind(store.params(), ref_store.grads());

  sh::nn::BatchShape shape;
  shape.batch = 1;
  shape.seq = seq;
  shape.training = true;

  auto x = sh::tensor::Tensor::zeros({seq, hidden});
  auto gy = sh::tensor::Tensor::zeros({seq, hidden});
  rng.fill_uniform(std::span<float>(x.data(), static_cast<std::size_t>(x.numel())),
                   0.5f);
  rng.fill_uniform(
      std::span<float>(gy.data(), static_cast<std::size_t>(gy.numel())), 0.5f);

  AttnRow row;
  row.seq = seq;
  measure_attention(oracle, x, gy, shape, budget_s, row.ref_ms,
                    row.ref_act_bytes);
  measure_attention(attn, x, gy, shape, budget_s, row.fused_ms,
                    row.fused_act_bytes);
  return row;
}

struct AttnStepRow {
  std::int64_t seq = 0;
  double fused_ms = 0.0;
  double fused_tok_s() const { return seq / (fused_ms * 1e-3); }
};

/// End-to-end engine train_step at long sequence length, where attention
/// dominates (ms per step after one warm-up round).
AttnStepRow run_attn_train_step(std::int64_t seq, bool smoke) {
  sh::nn::GptConfig mcfg;
  mcfg.vocab = 128;
  mcfg.max_seq = seq;
  mcfg.hidden = smoke ? 64 : 128;
  mcfg.heads = 4;
  mcfg.layers = 2;
  sh::nn::GptModel model(mcfg);
  sh::core::EngineConfig ecfg;
  ecfg.window = 2;
  sh::core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);

  sh::data::SyntheticCorpus corpus(mcfg.vocab, 99);
  const auto batch = corpus.next_batch(1, seq);
  const int steps = smoke ? 1 : 2;

  auto run_steps = [&] {
    for (int i = 0; i < steps; ++i) engine.train_step(batch);
  };
  AttnStepRow row;
  row.seq = seq;
  run_steps();  // warm-up
  const auto t0 = Clock::now();
  run_steps();
  row.fused_ms = 1e3 * seconds_since(t0) / steps;
  return row;
}

struct DtypeRow {
  std::size_t numel = 0;
  double enc_rne_gbps = 0.0;    // f32 -> bf16, round-to-nearest-even
  double enc_sr_gbps = 0.0;     // f32 -> bf16, stochastic rounding
  double dec_gbps = 0.0;        // bf16 -> f32
};

/// Bulk conversion bandwidth (GB/s of f32 source bytes processed) for the
/// three kernels the BF16 window exercises on every fetch/evict.
DtypeRow run_dtype_convert(std::size_t numel, double budget_s) {
  sh::tensor::Rng rng(13);
  std::vector<float> src(numel);
  std::vector<float> back(numel);
  std::vector<sh::tensor::bf16> enc(numel);
  rng.fill_uniform(src, 2.0f);

  DtypeRow row;
  row.numel = numel;
  const double gb = static_cast<double>(numel * sizeof(float)) * 1e-9;
  row.enc_rne_gbps =
      gb / time_best(budget_s, [&] {
        sh::tensor::convert_float_to_bf16(src.data(), enc.data(), numel);
      });
  sh::tensor::Rng sr_rng(17);
  row.enc_sr_gbps =
      gb / time_best(budget_s, [&] {
        sh::tensor::convert_float_to_bf16_stochastic(src.data(), enc.data(),
                                                     numel, sr_rng);
      });
  row.dec_gbps =
      gb / time_best(budget_s, [&] {
        sh::tensor::convert_bf16_to_float(enc.data(), back.data(), numel);
      });
  return row;
}

struct FaultInRow {
  std::size_t params = 0;
  double f32_ms = 0.0;   // memcpy master in + zero grads
  double bf16_ms = 0.0;  // encode master + zero grads + decode for compute
  double wire_ratio = 0.5;  // bf16 wire bytes / f32 wire bytes
};

/// One layer fault-in round-trip as the engine performs it: FP32 windows
/// memcpy the master and zero the grad half; BF16 windows encode the master
/// into the slot, zero the bf16 grad half, then decode into the f32 compute
/// stage. The halved wire bytes buy back the conversion cost on any real
/// PCIe link; this row measures the memory-side cost alone.
FaultInRow run_fault_in(std::size_t params, double budget_s) {
  sh::tensor::Rng rng(19);
  std::vector<float> master(params);
  rng.fill_uniform(master, 1.0f);
  std::vector<float> f32_slot(2 * params);
  std::vector<sh::tensor::bf16> b16_slot(2 * params);
  std::vector<float> stage(params);

  FaultInRow row;
  row.params = params;
  row.f32_ms = 1e3 * time_best(budget_s, [&] {
    std::memcpy(f32_slot.data(), master.data(), params * sizeof(float));
    std::fill_n(f32_slot.data() + params, params, 0.0f);
  });
  row.bf16_ms = 1e3 * time_best(budget_s, [&] {
    sh::tensor::convert_float_to_bf16(master.data(), b16_slot.data(), params);
    std::fill_n(b16_slot.data() + params, params, sh::tensor::bf16{0});
    sh::tensor::convert_bf16_to_float(b16_slot.data(), stage.data(), params);
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double budget = smoke ? 0.05 : 0.4;

  // GEMM shapes from one GPT block at (tokens T, hidden H, seq S, head_dim
  // D): qkv/proj/fc1/fc2 forwards (x @ W^T), the dW = dY^T @ X weight-grad
  // GEMM, and the per-head attention score/context products.
  const std::int64_t H = smoke ? 128 : 512;
  const std::int64_t T = smoke ? 64 : 256;
  const std::int64_t S = smoke ? 32 : 128;
  const std::int64_t D = smoke ? 32 : 64;
  const GemmShape shapes[] = {
      {"qkv  y=xW^T", T, 3 * H, H, false, true},
      {"proj y=xW^T", T, H, H, false, true},
      {"fc1  y=xW^T", T, 4 * H, H, false, true},
      {"fc2  y=xW^T", T, H, 4 * H, false, true},
      {"dW=dY^T X  ", 4 * H, H, T, true, false},
      {"dX=dY W    ", T, H, 4 * H, false, false},
      {"scores qk^T", S, S, D, false, true},
      {"ctx   p v  ", S, D, S, false, false},
  };

  sh::bench::header("kernel substrate — blocked GEMM vs naive (matmul_ref)");
  sh::bench::row("%-12s %6s %6s %6s %3s %3s %12s %12s %9s", "shape", "m", "n",
                 "k", "ta", "tb", "ref GFLOPS", "new GFLOPS", "speedup");
  std::vector<GemmRow> rows;
  for (const auto& s : shapes) {
    rows.push_back(run_gemm_shape(s, budget));
    const auto& r = rows.back();
    sh::bench::row("%-12s %6lld %6lld %6lld %3d %3d %12.2f %12.2f %8.2fx",
                   r.shape.name, static_cast<long long>(r.shape.m),
                   static_cast<long long>(r.shape.n),
                   static_cast<long long>(r.shape.k), r.shape.ta, r.shape.tb,
                   r.gflops_ref, r.gflops_blocked, r.speedup());
  }

  sh::bench::header("fused epilogue — matmul_bias_gelu vs 3-pass composition");
  const FusedRow fused = run_fused(T, 4 * H, H, budget);
  sh::bench::row("%-12s %6lld %6lld %6lld %12.3f %12.3f %8.2fx", "fc1+gelu",
                 static_cast<long long>(fused.m),
                 static_cast<long long>(fused.n),
                 static_cast<long long>(fused.k), fused.unfused_ms,
                 fused.fused_ms, fused.speedup());

  sh::bench::header("end-to-end train_step — blocked kernels");
  const double step_ms = run_end_to_end(smoke);
  sh::bench::row("%-12s %12.2f ms", "train_step", step_ms);

  // Fused tiled attention vs the materialised-probs oracle across sequence
  // lengths: fwd+bwd time, tokens/s, and peak activation bytes. The fused
  // kernel's activation footprint is O(seq * hidden); the oracle carries
  // the [seq, seq] probability matrix, O(seq^2).
  sh::bench::header("fused attention — tiled online-softmax vs [S,S] probs");
  sh::bench::row("%6s %10s %10s %8s %12s %12s %8s", "seq", "ref ms",
                 "fused ms", "tok/s x", "ref actMiB", "fused actMiB",
                 "act x");
  const std::int64_t attn_hidden = smoke ? 128 : 256;
  const std::int64_t attn_heads = 4;
  std::vector<std::int64_t> attn_seqs;
  if (smoke) {
    attn_seqs = {256};
  } else {
    attn_seqs = {512, 1024, 2048, 4096, 8192};
  }
  std::vector<AttnRow> attn_rows;
  for (const auto s : attn_seqs) {
    attn_rows.push_back(run_attention(s, attn_hidden, attn_heads, budget));
    const auto& r = attn_rows.back();
    sh::bench::row("%6lld %10.2f %10.2f %7.2fx %12.2f %12.2f %7.2fx",
                   static_cast<long long>(r.seq), r.ref_ms, r.fused_ms,
                   r.speedup(), r.ref_act_bytes / (1024.0 * 1024.0),
                   r.fused_act_bytes / (1024.0 * 1024.0), r.act_reduction());
  }

  sh::bench::header("train_step @ long seq — fused attention");
  const AttnStepRow astep = run_attn_train_step(smoke ? 256 : 2048, smoke);
  sh::bench::row("%6lld %10.2f ms %10.0f tok/s",
                 static_cast<long long>(astep.seq), astep.fused_ms,
                 astep.fused_tok_s());

  // BF16 window substrate: conversion-kernel bandwidth and the layer
  // fault-in round-trip the engine pays per window fill.
  sh::bench::header("dtype — bf16<->f32 convert bandwidth (GB/s of f32)");
  sh::bench::row("%10s %12s %12s %12s", "numel", "enc RNE", "enc SR", "dec");
  const std::size_t conv_n = smoke ? (std::size_t{1} << 18)
                                   : (std::size_t{1} << 22);
  const DtypeRow conv = run_dtype_convert(conv_n, budget);
  sh::bench::row("%10zu %10.2f %10.2f %10.2f", conv.numel, conv.enc_rne_gbps,
                 conv.enc_sr_gbps, conv.dec_gbps);

  sh::bench::header("dtype — layer fault-in round-trip, f32 vs bf16 window");
  const std::size_t fault_params = smoke ? (std::size_t{1} << 18)
                                         : (std::size_t{1} << 21);
  const FaultInRow fault = run_fault_in(fault_params, budget);
  sh::bench::row("%10zu params %10.3f ms (f32) %10.3f ms (bf16) wire 0.50x",
                 fault.params, fault.f32_ms, fault.bf16_ms);

  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"gemm\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, "
                   "\"k\": %lld, \"ta\": %d, \"tb\": %d, "
                   "\"gflops_ref\": %.3f, \"gflops_blocked\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   r.shape.name, static_cast<long long>(r.shape.m),
                   static_cast<long long>(r.shape.n),
                   static_cast<long long>(r.shape.k), r.shape.ta, r.shape.tb,
                   r.gflops_ref, r.gflops_blocked, r.speedup(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"fused_bias_gelu\": {\"m\": %lld, \"n\": %lld, "
                 "\"k\": %lld, \"unfused_ms\": %.4f, \"fused_ms\": %.4f, "
                 "\"speedup\": %.3f},\n",
                 static_cast<long long>(fused.m),
                 static_cast<long long>(fused.n),
                 static_cast<long long>(fused.k), fused.unfused_ms,
                 fused.fused_ms, fused.speedup());
    std::fprintf(f, "  \"end_to_end\": {\"blocked_ms\": %.3f},\n", step_ms);
    std::fprintf(f, "  \"attention\": [\n");
    for (std::size_t i = 0; i < attn_rows.size(); ++i) {
      const auto& r = attn_rows[i];
      std::fprintf(f,
                   "    {\"seq\": %lld, \"hidden\": %lld, \"heads\": %lld, "
                   "\"ref_ms\": %.3f, \"fused_ms\": %.3f, \"speedup\": %.3f, "
                   "\"ref_tokens_per_s\": %.1f, \"fused_tokens_per_s\": %.1f, "
                   "\"ref_act_bytes\": %zu, \"fused_act_bytes\": %zu, "
                   "\"act_reduction\": %.3f}%s\n",
                   static_cast<long long>(r.seq),
                   static_cast<long long>(attn_hidden),
                   static_cast<long long>(attn_heads), r.ref_ms, r.fused_ms,
                   r.speedup(), r.ref_tok_s(), r.fused_tok_s(),
                   r.ref_act_bytes, r.fused_act_bytes, r.act_reduction(),
                   i + 1 < attn_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"attn_train_step\": {\"seq\": %lld, \"fused_ms\": %.3f, "
                 "\"fused_tokens_per_s\": %.1f},\n",
                 static_cast<long long>(astep.seq), astep.fused_ms,
                 astep.fused_tok_s());
    std::fprintf(f,
                 "  \"dtype_convert\": {\"numel\": %zu, "
                 "\"encode_rne_gbps\": %.2f, \"encode_stochastic_gbps\": "
                 "%.2f, \"decode_gbps\": %.2f},\n",
                 conv.numel, conv.enc_rne_gbps, conv.enc_sr_gbps,
                 conv.dec_gbps);
    std::fprintf(f,
                 "  \"dtype_fault_in\": {\"params\": %zu, \"f32_ms\": %.4f, "
                 "\"bf16_ms\": %.4f, \"wire_bytes_ratio\": 0.5}\n}\n",
                 fault.params, fault.f32_ms, fault.bf16_ms);
    std::fclose(f);
    std::printf("\nwrote BENCH_kernels.json\n");
  }
  return 0;
}
