// Fused tiled causal attention on the blocked-GEMM micro-kernel substrate.
//
// One pass over KC-sized key tiles with online softmax: per query row the
// kernel keeps a running max m, normaliser l, and context accumulator, and
// never materialises the [seq, seq] score matrix — peak workspace is one
// query-panel x key-tile score tile (96 x 256 floats per thread), so
// attention activations scale O(seq * hidden) instead of O(seq^2). The
// backward recomputes tile scores from Q/K/V plus the saved per-row (m, l)
// statistics (flash-attention style, di = dot(out, d_out) precomputed).
//
// Determinism: work is partitioned over (batch, head, panel) units, each
// owned by exactly one thread; inside a unit, key tiles accumulate in fixed
// ascending order and every score element is the micro-kernel's scalar chain
// acc += q*k over ascending head-dim — independent of thread count, so the
// monolithic and offloaded training paths stay bit-identical. The backward's
// score recomputation replays the exact same op sequence (same tile
// boundaries, same micro-kernel), so the recovered softmax weights equal the
// forward's bit-for-bit.
#pragma once

#include <cstdint>

namespace sh::tensor {

/// Strided view of the per-(batch, head) attention planes inside a larger
/// tensor. Row r of plane (b, h) starts at
///   data + b * batch_stride + h * head_stride + r * row_stride
/// and holds head_dim contiguous floats. This addresses head slices of a
/// [tokens, 3*hidden] QKV activation (head_stride = head_dim, row_stride =
/// 3*hidden) and KV-cache slabs (head_stride = capacity*head_dim, row_stride
/// = head_dim) alike, so no gather/scatter copies are needed.
struct AttnPlanes {
  const float* data;
  std::int64_t batch_stride;
  std::int64_t head_stride;
  std::int64_t row_stride;

  const float* plane(std::int64_t b, std::int64_t h) const {
    return data + b * batch_stride + h * head_stride;
  }
};

/// Mutable counterpart of AttnPlanes for kernel outputs.
struct AttnPlanesMut {
  float* data;
  std::int64_t batch_stride;
  std::int64_t head_stride;
  std::int64_t row_stride;

  float* plane(std::int64_t b, std::int64_t h) const {
    return data + b * batch_stride + h * head_stride;
  }
};

/// out(b,h,i,:) = softmax_j(scale * q(b,h,i,:) . k(b,h,j,:)) @ v(b,h,j,:)
/// over the causal prefix j <= causal_offset + i. k_rows bounds j (the KV
/// prefix length; for training q_rows == k_rows and causal_offset == 0, for
/// incremental decode q_rows is the new-token count and causal_offset the
/// prefix position). When row_max/row_sum are non-null they receive the
/// per-row running max and normaliser ([batch * heads * q_rows], plane-major)
/// needed by attention_backward; pass nullptr for inference.
void attention_forward(const AttnPlanes& q, const AttnPlanes& k,
                       const AttnPlanes& v, const AttnPlanesMut& out,
                       float* row_max, float* row_sum, std::int64_t batch,
                       std::int64_t heads, std::int64_t q_rows,
                       std::int64_t k_rows, std::int64_t head_dim,
                       std::int64_t causal_offset, float scale);

/// Gradient of attention_forward for the training case (q_rows == k_rows ==
/// seq, causal_offset == 0). Recomputes tile scores from q/k/v and recovers
/// the softmax weights from (row_max, row_sum); dq/dk/dv rows are written
/// (not accumulated), so the planes may alias a fresh grad-QKV tensor
/// directly.
void attention_backward(const AttnPlanes& q, const AttnPlanes& k,
                        const AttnPlanes& v, const AttnPlanes& out,
                        const AttnPlanes& d_out, const float* row_max,
                        const float* row_sum, const AttnPlanesMut& dq,
                        const AttnPlanesMut& dk, const AttnPlanesMut& dv,
                        std::int64_t batch, std::int64_t heads,
                        std::int64_t seq, std::int64_t head_dim, float scale);

}  // namespace sh::tensor
