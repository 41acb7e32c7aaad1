// GEMM test oracle: the pre-blocking row-streaming matmul, preserved
// verbatim as `matmul_ref`. The blocked GEMM in src/tensor/gemm.cpp is
// pinned against this kernel across shape/transpose/alpha-beta sweeps in
// test_ops.cpp, and bench_kernels reports GFLOPS of blocked-vs-ref on
// GPT-block shapes. Header-only; the library never includes it.
#pragma once

#include <algorithm>
#include <cstdint>

#include "parallel/parallel_for.hpp"

namespace sh::testing {

/// C = alpha * op(A) @ op(B) + beta * C — the seed repo's naive kernel:
/// row-parallel, streaming over B rows, no blocking/packing/register tiling.
inline void matmul_ref(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t n, std::int64_t k,
                       bool transpose_a, bool transpose_b, float alpha = 1.0f,
                       float beta = 0.0f) {
  auto a_at = [&](std::int64_t i, std::int64_t p) {
    return transpose_a ? a[p * m + i] : a[i * k + p];
  };
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(m), 4,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t iu = lo; iu < hi; ++iu) {
          const auto i = static_cast<std::int64_t>(iu);
          float* crow = c + i * n;
          if (beta == 0.0f) {
            std::fill_n(crow, n, 0.0f);
          } else if (beta != 1.0f) {
            for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
          }
          if (!transpose_b) {
            // Stream over B rows for cache-friendly access.
            for (std::int64_t p = 0; p < k; ++p) {
              const float av = alpha * a_at(i, p);
              if (av == 0.0f) continue;
              const float* brow = b + p * n;
              for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
            }
          } else {
            for (std::int64_t j = 0; j < n; ++j) {
              const float* brow = b + j * k;
              float acc = 0.0f;
              if (!transpose_a) {
                const float* arow = a + i * k;
                for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
              } else {
                for (std::int64_t p = 0; p < k; ++p) acc += a_at(i, p) * brow[p];
              }
              crow[j] += alpha * acc;
            }
          }
        }
      });
}

}  // namespace sh::testing
