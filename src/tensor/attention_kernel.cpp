// Fused tiled causal attention — see attention_kernel.hpp for the contract.
//
// Structure per (batch, head, query-panel) work unit (MC query rows):
//   for each KC-sized key tile (ascending, diagonal-clipped):
//     S    = scale * Q_panel @ K_tile^T      (pack + micro-kernel, head_dim k)
//     online softmax: m, l, and the context accumulator are corrected by
//     alpha = exp(m_old - m_new), then acc += P @ V_tile (pack + micro-kernel)
//   out = acc / l; (m, l) saved for the backward.
// The backward recomputes S tile-by-tile with the identical op sequence and
// recovers P = exp(S - m)/l exactly; dQ is accumulated by query panels, dK/dV
// by key panels (each output row owned by one thread, query/key tiles
// ascending), with di = dot(out_i, dout_i) precomputed once.
#include "tensor/attention_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_micro.hpp"

namespace sh::tensor {

namespace {

using micro::kKC;
using micro::kMC;
using micro::kMR;
using micro::kNR;
using micro::micro_kernel;
using micro::pack_a;
using micro::pack_b;
using micro::write_tile;

// Query panel (rows per work unit, multiple of kMR) and key tile (columns per
// online-softmax step). One S tile is kQB x kKB = 96 KiB of thread-local
// scratch — the only score storage the kernel ever needs.
constexpr std::int64_t kQB = kMC;
constexpr std::int64_t kKB = kKC;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

std::int64_t pad_to(std::int64_t x, std::int64_t unit) {
  return (x + unit - 1) / unit * unit;
}

struct Scratch {
  std::vector<float> apack, bpack;  // packed panels for the tile GEMMs
  std::vector<float> s, p, dp;      // score / prob / dprob tiles
  std::vector<float> m, l, acc;     // online-softmax state per query row
};

/// C[m x n] (ldc) = alpha * op(A)[a_row0.., 0..k) @ op(B)[b_k0.., b_col0..)
/// + beta * C, k chunked by KC with partials staged in C — the same
/// assembly gemm.cpp uses, so recomputed score tiles are bit-identical to
/// the forward's. A's k dimension always starts at column 0 of its plane.
void tile_gemm(const float* a, std::int64_t a_row0, bool transpose_a,
               std::int64_t lda, const float* b, std::int64_t b_k0,
               std::int64_t b_col0, bool transpose_b, std::int64_t ldb,
               float* c, std::int64_t ldc, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, float beta, Scratch& sc) {
  const std::int64_t m_pad = pad_to(m, kMR);
  const std::int64_t n_pad = pad_to(n, kNR);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    sc.apack.resize(static_cast<std::size_t>(m_pad * kc));
    sc.bpack.resize(static_cast<std::size_t>(n_pad * kc));
    pack_a(a, sc.apack.data(), a_row0, m, pc, kc, transpose_a, lda);
    pack_b(b, sc.bpack.data(), b_k0 + pc, kc, b_col0, n, transpose_b, ldb);
    const float beta_eff = pc == 0 ? beta : 1.0f;
    for (std::int64_t jr = 0; jr < n; jr += kNR) {
      const std::int64_t nr = std::min(kNR, n - jr);
      for (std::int64_t ir = 0; ir < m; ir += kMR) {
        const std::int64_t mr = std::min(kMR, m - ir);
        float acc[kMR * kNR] = {};
        micro_kernel(kc, sc.apack.data() + ir * kc, sc.bpack.data() + jr * kc,
                     acc);
        write_tile(acc, c + ir * ldc + jr, ldc, mr, nr, alpha, beta_eff);
      }
    }
  }
}

}  // namespace

void attention_forward(const AttnPlanes& q, const AttnPlanes& k,
                       const AttnPlanes& v, const AttnPlanesMut& out,
                       float* row_max, float* row_sum, std::int64_t batch,
                       std::int64_t heads, std::int64_t q_rows,
                       std::int64_t k_rows, std::int64_t head_dim,
                       std::int64_t causal_offset, float scale) {
  const std::int64_t panels = (q_rows + kQB - 1) / kQB;
  const std::int64_t units = batch * heads * panels;
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(units), 1,
      [&](std::size_t lo, std::size_t hi) {
        thread_local Scratch sc;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto unit = static_cast<std::int64_t>(u);
          const std::int64_t panel = unit % panels;
          const std::int64_t plane = unit / panels;
          const std::int64_t b = plane / heads;
          const std::int64_t h = plane % heads;
          const std::int64_t q0 = panel * kQB;
          const std::int64_t mq = std::min(kQB, q_rows - q0);

          const float* qp = q.plane(b, h);
          const float* kp = k.plane(b, h);
          const float* vp = v.plane(b, h);
          float* op = out.plane(b, h);

          // Keys beyond the panel's last causal limit never contribute.
          const std::int64_t k_hi =
              std::min(k_rows, causal_offset + q0 + mq - 1 + 1);

          sc.m.assign(static_cast<std::size_t>(mq), kNegInf);
          sc.l.assign(static_cast<std::size_t>(mq), 0.0f);
          sc.acc.assign(static_cast<std::size_t>(mq * head_dim), 0.0f);

          for (std::int64_t j0 = 0; j0 < k_hi; j0 += kKB) {
            const std::int64_t tk = std::min(kKB, k_hi - j0);
            sc.s.resize(static_cast<std::size_t>(mq * tk));
            sc.p.resize(static_cast<std::size_t>(mq * tk));
            // S = scale * Q_panel @ K_tile^T.
            tile_gemm(qp, q0, false, q.row_stride, kp, 0, j0, true,
                      k.row_stride, sc.s.data(), tk, mq, tk, head_dim, scale,
                      0.0f, sc);
            for (std::int64_t i = 0; i < mq; ++i) {
              const std::int64_t lim = causal_offset + q0 + i;  // inclusive
              const std::int64_t valid = std::min(tk, lim - j0 + 1);
              float* prow = sc.p.data() + i * tk;
              if (valid <= 0) {
                // Entire tile above this row's diagonal: P row is zero so
                // the P @ V accumulation below is a no-op for it.
                std::fill_n(prow, tk, 0.0f);
                continue;
              }
              const float* srow = sc.s.data() + i * tk;
              float tile_max = kNegInf;
              for (std::int64_t j = 0; j < valid; ++j) {
                tile_max = std::max(tile_max, srow[j]);
              }
              const float m_new = std::max(sc.m[i], tile_max);
              // First tile: m = -inf so alpha = exp(-inf) = 0 — the zero
              // accumulator and normaliser are "corrected" by zero, exactly
              // initialising the recurrence.
              const float alpha = std::exp(sc.m[i] - m_new);
              float sum = 0.0f;
              for (std::int64_t j = 0; j < valid; ++j) {
                const float e = std::exp(srow[j] - m_new);
                prow[j] = e;
                sum += e;
              }
              std::fill(prow + valid, prow + tk, 0.0f);
              sc.l[i] = alpha * sc.l[i] + sum;
              sc.m[i] = m_new;
              if (alpha != 1.0f) {
                float* arow = sc.acc.data() + i * head_dim;
                for (std::int64_t c = 0; c < head_dim; ++c) arow[c] *= alpha;
              }
            }
            // acc += P @ V_tile.
            tile_gemm(sc.p.data(), 0, false, tk, vp, j0, 0, false,
                      v.row_stride, sc.acc.data(), head_dim, mq, head_dim, tk,
                      1.0f, 1.0f, sc);
          }

          const std::int64_t stat0 = plane * q_rows + q0;
          for (std::int64_t i = 0; i < mq; ++i) {
            const float inv = 1.0f / sc.l[i];
            const float* arow = sc.acc.data() + i * head_dim;
            float* orow = op + (q0 + i) * out.row_stride;
            for (std::int64_t c = 0; c < head_dim; ++c) orow[c] = arow[c] * inv;
            if (row_max != nullptr) {
              row_max[stat0 + i] = sc.m[i];
              row_sum[stat0 + i] = sc.l[i];
            }
          }
        }
      });
}

void attention_backward(const AttnPlanes& q, const AttnPlanes& k,
                        const AttnPlanes& v, const AttnPlanes& out,
                        const AttnPlanes& d_out, const float* row_max,
                        const float* row_sum, const AttnPlanesMut& dq,
                        const AttnPlanesMut& dk, const AttnPlanesMut& dv,
                        std::int64_t batch, std::int64_t heads,
                        std::int64_t seq, std::int64_t head_dim, float scale) {
  const std::int64_t planes = batch * heads;

  // di = dot(out_i, dout_i) — shared by the dQ and dK/dV passes.
  std::vector<float> d(static_cast<std::size_t>(planes * seq));
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(planes), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pu = lo; pu < hi; ++pu) {
          const auto plane = static_cast<std::int64_t>(pu);
          const std::int64_t b = plane / heads;
          const std::int64_t h = plane % heads;
          const float* op = out.plane(b, h);
          const float* gp = d_out.plane(b, h);
          for (std::int64_t i = 0; i < seq; ++i) {
            const float* orow = op + i * out.row_stride;
            const float* grow = gp + i * d_out.row_stride;
            float acc = 0.0f;
            for (std::int64_t c = 0; c < head_dim; ++c) acc += orow[c] * grow[c];
            d[static_cast<std::size_t>(plane * seq + i)] = acc;
          }
        }
      });

  // Pass 1 — dQ, partitioned by query panels.
  const std::int64_t q_panels = (seq + kQB - 1) / kQB;
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(planes * q_panels), 1,
      [&](std::size_t lo, std::size_t hi) {
        thread_local Scratch sc;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto unit = static_cast<std::int64_t>(u);
          const std::int64_t panel = unit % q_panels;
          const std::int64_t plane = unit / q_panels;
          const std::int64_t b = plane / heads;
          const std::int64_t h = plane % heads;
          const std::int64_t q0 = panel * kQB;
          const std::int64_t mq = std::min(kQB, seq - q0);

          const float* qp = q.plane(b, h);
          const float* kp = k.plane(b, h);
          const float* vp = v.plane(b, h);
          const float* gp = d_out.plane(b, h);
          float* dqp = dq.plane(b, h);

          const std::int64_t k_hi = std::min(seq, q0 + mq);
          for (std::int64_t j0 = 0; j0 < k_hi; j0 += kKB) {
            const std::int64_t tk = std::min(kKB, k_hi - j0);
            sc.s.resize(static_cast<std::size_t>(mq * tk));
            sc.dp.resize(static_cast<std::size_t>(mq * tk));
            // Recompute S = scale * Q_panel @ K_tile^T — identical op
            // sequence to the forward, so exp(S - m)/l recovers the exact
            // forward probabilities.
            tile_gemm(qp, q0, false, q.row_stride, kp, 0, j0, true,
                      k.row_stride, sc.s.data(), tk, mq, tk, head_dim, scale,
                      0.0f, sc);
            // dP = dOut_panel @ V_tile^T.
            tile_gemm(gp, q0, false, d_out.row_stride, vp, 0, j0, true,
                      v.row_stride, sc.dp.data(), tk, mq, tk, head_dim, 1.0f,
                      0.0f, sc);
            // dS = P * (dP - di) * scale, masked entries zero (in place
            // over the S tile).
            for (std::int64_t i = 0; i < mq; ++i) {
              const std::int64_t gi = q0 + i;
              const std::int64_t valid = std::min(tk, gi - j0 + 1);
              float* srow = sc.s.data() + i * tk;
              const float* dprow = sc.dp.data() + i * tk;
              if (valid <= 0) {
                std::fill_n(srow, tk, 0.0f);
                continue;
              }
              const std::size_t stat = static_cast<std::size_t>(plane * seq + gi);
              const float mi = row_max[stat];
              const float inv_l = 1.0f / row_sum[stat];
              const float di = d[stat];
              for (std::int64_t j = 0; j < valid; ++j) {
                const float pij = std::exp(srow[j] - mi) * inv_l;
                srow[j] = pij * (dprow[j] - di) * scale;
              }
              std::fill(srow + valid, srow + tk, 0.0f);
            }
            // dQ_panel += dS @ K_tile.
            tile_gemm(sc.s.data(), 0, false, tk, kp, j0, 0, false,
                      k.row_stride, dqp + q0 * dq.row_stride, dq.row_stride,
                      mq, head_dim, tk, 1.0f, j0 == 0 ? 0.0f : 1.0f, sc);
          }
        }
      });

  // Pass 2 — dK/dV, partitioned by key panels; query tiles ascending from
  // the diagonal (queries i < key index never attend it).
  const std::int64_t k_panels = (seq + kQB - 1) / kQB;
  sh::parallel::parallel_for(
      0, static_cast<std::size_t>(planes * k_panels), 1,
      [&](std::size_t lo, std::size_t hi) {
        thread_local Scratch sc;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto unit = static_cast<std::int64_t>(u);
          const std::int64_t panel = unit % k_panels;
          const std::int64_t plane = unit / k_panels;
          const std::int64_t b = plane / heads;
          const std::int64_t h = plane % heads;
          const std::int64_t kp0 = panel * kQB;
          const std::int64_t kn = std::min(kQB, seq - kp0);

          const float* qp = q.plane(b, h);
          const float* kpl = k.plane(b, h);
          const float* vp = v.plane(b, h);
          const float* gp = d_out.plane(b, h);
          float* dkp = dk.plane(b, h);
          float* dvp = dv.plane(b, h);

          const std::int64_t i0_start = kp0 / kKB * kKB;
          bool first = true;
          for (std::int64_t i0 = i0_start; i0 < seq; i0 += kKB) {
            const std::int64_t tq = std::min(kKB, seq - i0);
            sc.s.resize(static_cast<std::size_t>(kn * tq));
            sc.dp.resize(static_cast<std::size_t>(kn * tq));
            sc.p.resize(static_cast<std::size_t>(kn * tq));
            // S^T = scale * K_panel @ Q_tile^T. Each score element is the
            // same ascending head-dim chain as the forward (products
            // commute exactly), so the recovered P^T matches bit-for-bit.
            tile_gemm(kpl, kp0, false, k.row_stride, qp, 0, i0, true,
                      q.row_stride, sc.s.data(), tq, kn, tq, head_dim, scale,
                      0.0f, sc);
            // dP^T = V_panel @ dOut_tile^T.
            tile_gemm(vp, kp0, false, v.row_stride, gp, 0, i0, true,
                      d_out.row_stride, sc.dp.data(), tq, kn, tq, head_dim,
                      1.0f, 0.0f, sc);
            for (std::int64_t r = 0; r < kn; ++r) {
              const std::int64_t kj = kp0 + r;
              const std::int64_t c_lo = std::max<std::int64_t>(0, kj - i0);
              float* strow = sc.s.data() + r * tq;
              float* ptrow = sc.p.data() + r * tq;
              const float* dptrow = sc.dp.data() + r * tq;
              std::fill_n(ptrow, std::min(c_lo, tq), 0.0f);
              std::fill_n(strow, std::min(c_lo, tq), 0.0f);
              for (std::int64_t c = c_lo; c < tq; ++c) {
                const std::size_t stat =
                    static_cast<std::size_t>(plane * seq + i0 + c);
                const float pji = std::exp(strow[c] - row_max[stat]) /
                                  row_sum[stat];
                ptrow[c] = pji;
                strow[c] = pji * (dptrow[c] - d[stat]) * scale;
              }
            }
            const float beta = first ? 0.0f : 1.0f;
            // dV_panel += P^T @ dOut_tile.
            tile_gemm(sc.p.data(), 0, false, tq, gp, i0, 0, false,
                      d_out.row_stride, dvp + kp0 * dv.row_stride,
                      dv.row_stride, kn, head_dim, tq, 1.0f, beta, sc);
            // dK_panel += dS^T @ Q_tile.
            tile_gemm(sc.s.data(), 0, false, tq, qp, i0, 0, false,
                      q.row_stride, dkp + kp0 * dk.row_stride, dk.row_stride,
                      kn, head_dim, tq, 1.0f, beta, sc);
            first = false;
          }
        }
      });
}

}  // namespace sh::tensor
