// Dense kernels for the numeric training substrate. All kernels are
// deterministic and parallelised over rows with sh::parallel::parallel_for.
//
// Matrix arguments are row-major. Shapes are expressed as (rows, cols) pairs
// passed explicitly so the kernels can run over views into flat parameter
// blobs without constructing Tensor objects.
#pragma once

#include <cstdint>
#include <span>

namespace sh::tensor {

/// C = alpha * op(A) @ op(B) + beta * C.
/// op(A) is A (m x k) when transpose_a is false, else A^T with A stored k x m.
/// op(B) is B (k x n) when transpose_b is false, else B^T with B stored n x k.
/// Blocked/packed/register-tiled (gemm.cpp); deterministic accumulation order
/// per output element regardless of thread count.
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t n, std::int64_t k, bool transpose_a, bool transpose_b,
            float alpha = 1.0f, float beta = 0.0f);

/// Fused GEMM + bias epilogue: C = op(A) @ op(B) + bias (bias broadcast over
/// rows). Exactly equal to matmul(...) followed by add_bias(...).
void matmul_bias(const float* a, const float* b, const float* bias, float* c,
                 std::int64_t m, std::int64_t n, std::int64_t k,
                 bool transpose_a, bool transpose_b);

/// Fused GEMM + bias + GELU epilogue: out = gelu(op(A) @ op(B) + bias).
/// When `pre` is non-null the pre-activation (GEMM + bias) is also stored
/// there for the backward pass, at no extra memory pass. Exactly equal to
/// matmul + add_bias + gelu_forward.
void matmul_bias_gelu(const float* a, const float* b, const float* bias,
                      float* pre, float* out, std::int64_t m, std::int64_t n,
                      std::int64_t k, bool transpose_a, bool transpose_b);

/// rows x cols matrix: out[r, :] = in[r, :] + bias[:].
void add_bias(const float* in, const float* bias, float* out,
              std::int64_t rows, std::int64_t cols);

/// bias_grad[c] += sum_r grad[r, c]. Parallel over disjoint column slices;
/// per column the rows accumulate in ascending order, so the result is
/// deterministic and identical to the serial loop.
void bias_grad(const float* grad, float* bias_grad, std::int64_t rows,
               std::int64_t cols);

/// GELU activation (tanh approximation, as used in GPT-style models).
void gelu_forward(const float* in, float* out, std::int64_t n);
/// grad_in[i] = grad_out[i] * d GELU(in[i]) / d in[i].
void gelu_backward(const float* in, const float* grad_out, float* grad_in,
                   std::int64_t n);
/// Fused GELU backward + bias-grad reduction over a rows x cols matrix:
/// grad_in[r, c] = grad_out[r, c] * gelu'(in[r, c]) and
/// bias_grad[c] += sum_r grad_in[r, c], in one pass over the data.
/// Exactly equal to gelu_backward(...) followed by bias_grad(...).
void gelu_backward_bias_grad(const float* in, const float* grad_out,
                             float* grad_in, float* bias_grad,
                             std::int64_t rows, std::int64_t cols);

/// Row-wise softmax over a rows x cols matrix.
void softmax_rows(const float* in, float* out, std::int64_t rows,
                  std::int64_t cols);

struct LayerNormStats {
  float mean;
  float rstd;
};

/// y[r, :] = (x[r, :] - mean_r) * rstd_r * gamma + beta. Saves per-row stats.
void layernorm_forward(const float* x, const float* gamma, const float* beta,
                       float* y, LayerNormStats* stats, std::int64_t rows,
                       std::int64_t cols, float eps = 1e-5f);

/// Backward of layernorm; accumulates dgamma/dbeta.
void layernorm_backward(const float* x, const float* gamma,
                        const LayerNormStats* stats, const float* grad_y,
                        float* grad_x, float* dgamma, float* dbeta,
                        std::int64_t rows, std::int64_t cols);

/// out[r, :] = table[ids[r], :].
void embedding_gather(const float* table, const std::int32_t* ids, float* out,
                      std::int64_t rows, std::int64_t cols);
/// table_grad[ids[r], :] += grad[r, :]. Duplicate ids are a scatter hazard
/// across rows, so parallelism is over disjoint column slices instead; rows
/// accumulate in ascending order per column (deterministic, race-free).
void embedding_scatter_add(const float* grad, const std::int32_t* ids,
                           float* table_grad, std::int64_t rows,
                           std::int64_t cols);

/// Fused softmax + cross-entropy over logits (rows x classes) with integer
/// targets. Returns mean loss; writes grad_logits = (softmax - onehot)/rows.
float cross_entropy(const float* logits, const std::int32_t* targets,
                    float* grad_logits, std::int64_t rows,
                    std::int64_t classes);

// Elementwise helpers.
void axpy(float alpha, const float* x, float* y, std::int64_t n);  // y += a*x
void scale(float alpha, float* x, std::int64_t n);
void add(const float* a, const float* b, float* out, std::int64_t n);
float dot(const float* a, const float* b, std::int64_t n);
float l2_norm(const float* a, std::int64_t n);
float max_abs_diff(const float* a, const float* b, std::int64_t n);

}  // namespace sh::tensor
