// Blocked, packed GEMM with fused epilogues — the compute substrate every
// dense layer (Linear/Mlp/Attention/LmHead) runs on.
//
// Structure (BLIS-style, see DESIGN.md "Kernel substrate"):
//   jc over N in NC  ->  pc over K in KC  ->  ic over M in MC (parallel)
// B panels (KC x NC) and A panels (MC x KC) are packed on the fly into
// contiguous, zero-padded NR-wide / MR-tall strips; both transpose flags are
// normalised away at pack time, so all four transpose combinations feed the
// same register-tiled MR x NR micro-kernel.
//
// Determinism: threads partition row panels of C, so every output element is
// owned by exactly one thread and accumulates in a fixed order — KC blocks
// ascending (partials staged in C between blocks), k ascending inside the
// micro-kernel — independent of thread count. Monolithic and offloaded
// training paths both ride these kernels, which keeps them bit-identical.
#include <algorithm>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_micro.hpp"
#include "tensor/ops.hpp"

namespace sh::tensor {

namespace {

// Packing, micro-kernel, blocking constants: shared with the fused attention
// kernel via gemm_micro.hpp.
using micro::kKC;
using micro::kMC;
using micro::kMR;
using micro::kNC;
using micro::kNR;
using micro::micro_kernel;
using micro::pack_a;
using micro::pack_b;
using micro::write_tile;

/// Fused bias epilogue over the finished rows x cols slab of C (row stride
/// ldc), applied per row panel right after its last KC block while the slab
/// is still cache-resident — the bias add comes for free against the GEMM's
/// own writeback traffic. The expression matches add_bias element-for-
/// element, so fused == unfused exactly.
///
/// Deliberately NOT extended with a per-panel tanh/GELU pass: interleaving
/// scalar-heavy tanhf bursts with 512-bit GEMM panels runs the tanh work at
/// the AVX-512 licensed frequency and measured ~10% slower end-to-end than a
/// single solid GELU sweep after the GEMM (see DESIGN.md).
inline void apply_bias_epilogue(float* c, const float* bias, std::int64_t ldc,
                                std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t j = 0; j < cols; ++j) crow[j] += bias[j];
  }
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool transpose_a, bool transpose_b,
          float alpha, float beta, const float* bias) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate GEMM: C = beta * C, bias epilogue still applies.
    for (std::int64_t r = 0; r < m; ++r) {
      float* crow = c + r * n;
      for (std::int64_t j = 0; j < n; ++j) {
        float v = beta != 0.0f ? beta * crow[j] : 0.0f;
        if (bias != nullptr) v += bias[j];
        crow[j] = v;
      }
    }
    return;
  }

  std::vector<float> bpack;
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    const std::int64_t nc_pad = (nc + kNR - 1) / kNR * kNR;
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      bpack.resize(static_cast<std::size_t>(nc_pad * kc));
      pack_b(b, bpack.data(), pc, kc, jc, nc, transpose_b, transpose_b ? k : n);
      const bool last = pc + kc == k;
      const float beta_eff = pc == 0 ? beta : 1.0f;
      const std::int64_t row_panels = (m + kMC - 1) / kMC;
      sh::parallel::parallel_for(
          0, static_cast<std::size_t>(row_panels), 1,
          [&](std::size_t lo, std::size_t hi) {
            thread_local std::vector<float> apack;
            for (std::size_t panel = lo; panel < hi; ++panel) {
              const std::int64_t ic = static_cast<std::int64_t>(panel) * kMC;
              const std::int64_t mc = std::min(kMC, m - ic);
              const std::int64_t mc_pad = (mc + kMR - 1) / kMR * kMR;
              apack.resize(static_cast<std::size_t>(mc_pad * kc));
              pack_a(a, apack.data(), ic, mc, pc, kc, transpose_a,
                     transpose_a ? m : k);
              for (std::int64_t jr = 0; jr < nc; jr += kNR) {
                const std::int64_t nr = std::min(kNR, nc - jr);
                for (std::int64_t ir = 0; ir < mc; ir += kMR) {
                  const std::int64_t mr = std::min(kMR, mc - ir);
                  float acc[kMR * kNR] = {};
                  micro_kernel(kc, apack.data() + ir * kc,
                               bpack.data() + jr * kc, acc);
                  write_tile(acc, c + (ic + ir) * n + jc + jr, n, mr, nr,
                             alpha, beta_eff);
                }
              }
              if (last && bias != nullptr) {
                // The panel's [mc x nc] slab of C is finished and still
                // cache-resident: fold in the bias before moving on.
                apply_bias_epilogue(c + ic * n + jc, bias + jc, n, mc, nc);
              }
            }
          });
    }
  }
}

}  // namespace

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t n, std::int64_t k, bool transpose_a, bool transpose_b,
            float alpha, float beta) {
  gemm(a, b, c, m, n, k, transpose_a, transpose_b, alpha, beta, nullptr);
}

void matmul_bias(const float* a, const float* b, const float* bias, float* c,
                 std::int64_t m, std::int64_t n, std::int64_t k,
                 bool transpose_a, bool transpose_b) {
  gemm(a, b, c, m, n, k, transpose_a, transpose_b, 1.0f, 0.0f, bias);
}

void matmul_bias_gelu(const float* a, const float* b, const float* bias,
                      float* pre, float* out, std::int64_t m, std::int64_t n,
                      std::int64_t k, bool transpose_a, bool transpose_b) {
  // Bias fused into the GEMM writeback; GELU as one solid sweep afterwards
  // (2 passes over the activation instead of the unfused 3). gelu_forward is
  // the same code the unfused composition runs, so fused == unfused exactly.
  float* pre_or_out = pre != nullptr ? pre : out;
  gemm(a, b, pre_or_out, m, n, k, transpose_a, transpose_b, 1.0f, 0.0f, bias);
  gelu_forward(pre_or_out, out, m * n);
}

}  // namespace sh::tensor
