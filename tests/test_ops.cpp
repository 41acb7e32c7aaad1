#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/rng.hpp"
#include "testing/attention_ref.hpp"
#include "testing/matmul_ref.hpp"
#include "testing/util.hpp"

namespace sh::tensor {
namespace {

struct MatmulCase {
  std::int64_t m, n, k;
  bool ta, tb;
  float alpha, beta;
};

// --- Blocked GEMM vs the preserved naive kernel (matmul_ref) ---------------
//
// Programmatic sweep: every transpose combination x alpha/beta in {0, 1, 0.5}
// x shapes chosen to straddle the blocking constants (MC=96, KC=256, NC=512)
// and the 6x16 micro-tile, so edge-padded tiles, multi-KC accumulation and
// multi-panel parallel paths are all exercised. A hand-picked tail adds
// alpha/beta values outside that grid (2, -1) on small ragged shapes. The
// two kernels sum in a different order, so comparison is allclose, not
// bitwise.
std::vector<MatmulCase> gemm_vs_ref_cases() {
  const std::int64_t shapes[][3] = {
      {1, 1, 1},        // single element
      {5, 7, 3},        // smaller than one micro-tile
      {6, 16, 8},       // exactly one micro-tile
      {13, 33, 17},     // ragged edges in every dimension
      {97, 45, 19},     // m spans two MC row panels
      {33, 129, 300},   // k spans two KC blocks
      {100, 520, 260},  // all three blocked dimensions span two blocks
  };
  const float scalars[] = {0.0f, 1.0f, 0.5f};
  std::vector<MatmulCase> cases;
  for (const auto& s : shapes) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        for (float alpha : scalars) {
          for (float beta : scalars) {
            cases.push_back(
                {s[0], s[1], s[2], ta != 0, tb != 0, alpha, beta});
          }
        }
      }
    }
  }
  const MatmulCase extra[] = {
      {4, 5, 6, false, false, 1.0f, 0.0f},
      {4, 5, 6, false, true, 1.0f, 0.0f},
      {4, 5, 6, true, false, 1.0f, 0.0f},
      {4, 5, 6, true, true, 1.0f, 0.0f},
      {1, 1, 1, false, false, 2.0f, 0.5f},
      {7, 3, 9, false, true, 0.5f, 1.0f},
      {16, 16, 16, true, false, 1.0f, 1.0f},
      {33, 17, 29, false, false, 1.0f, 0.0f},
      {64, 2, 3, true, true, -1.0f, 2.0f},
  };
  cases.insert(cases.end(), std::begin(extra), std::end(extra));
  return cases;
}

class GemmVsRefTest : public ::testing::TestWithParam<MatmulCase> {};

TEST_P(GemmVsRefTest, MatchesNaiveKernel) {
  const auto& p = GetParam();
  Rng rng(321);
  std::vector<float> a(static_cast<std::size_t>(p.m * p.k));
  std::vector<float> b(static_cast<std::size_t>(p.k * p.n));
  std::vector<float> c(static_cast<std::size_t>(p.m * p.n));
  rng.fill_uniform(a, 1.0f);
  rng.fill_uniform(b, 1.0f);
  rng.fill_uniform(c, 1.0f);
  std::vector<float> expect = c;
  sh::testing::matmul_ref(a.data(), b.data(), expect.data(), p.m, p.n, p.k,
                          p.ta, p.tb, p.alpha, p.beta);
  matmul(a.data(), b.data(), c.data(), p.m, p.n, p.k, p.ta, p.tb, p.alpha,
         p.beta);
  sh::testing::expect_allclose(c, expect, 1e-4f, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmVsRefTest,
                         ::testing::ValuesIn(gemm_vs_ref_cases()));

// --- Fused epilogues: bitwise-identical to their unfused compositions ------
//
// These are EXPECT_EQ, not allclose: the fused entry points are required to
// produce the exact floats of the unfused op sequence (DESIGN.md "Kernel
// substrate"), which is what lets layers adopt them without perturbing the
// monolithic-vs-offloaded bit-identity invariant.

struct FusedCase {
  std::int64_t m, n, k;
  bool ta, tb;
};

class FusedEpilogueTest : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedEpilogueTest, MatmulBiasMatchesUnfusedExactly) {
  const auto& p = GetParam();
  Rng rng(55);
  std::vector<float> a(static_cast<std::size_t>(p.m * p.k));
  std::vector<float> b(static_cast<std::size_t>(p.k * p.n));
  std::vector<float> bias(static_cast<std::size_t>(p.n));
  rng.fill_uniform(a, 1.0f);
  rng.fill_uniform(b, 1.0f);
  rng.fill_uniform(bias, 1.0f);
  std::vector<float> expect(static_cast<std::size_t>(p.m * p.n));
  std::vector<float> got(expect.size());
  matmul(a.data(), b.data(), expect.data(), p.m, p.n, p.k, p.ta, p.tb);
  add_bias(expect.data(), bias.data(), expect.data(), p.m, p.n);
  matmul_bias(a.data(), b.data(), bias.data(), got.data(), p.m, p.n, p.k,
              p.ta, p.tb);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "at " << i;
  }
}

TEST_P(FusedEpilogueTest, MatmulBiasGeluMatchesUnfusedExactly) {
  const auto& p = GetParam();
  Rng rng(56);
  std::vector<float> a(static_cast<std::size_t>(p.m * p.k));
  std::vector<float> b(static_cast<std::size_t>(p.k * p.n));
  std::vector<float> bias(static_cast<std::size_t>(p.n));
  rng.fill_uniform(a, 1.0f);
  rng.fill_uniform(b, 1.0f);
  rng.fill_uniform(bias, 1.0f);
  const std::size_t size = static_cast<std::size_t>(p.m * p.n);
  std::vector<float> expect_pre(size), expect_out(size);
  matmul(a.data(), b.data(), expect_pre.data(), p.m, p.n, p.k, p.ta, p.tb);
  add_bias(expect_pre.data(), bias.data(), expect_pre.data(), p.m, p.n);
  gelu_forward(expect_pre.data(), expect_out.data(), p.m * p.n);

  std::vector<float> pre(size), out(size);
  matmul_bias_gelu(a.data(), b.data(), bias.data(), pre.data(), out.data(),
                   p.m, p.n, p.k, p.ta, p.tb);
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(pre[i], expect_pre[i]) << "pre at " << i;
    EXPECT_EQ(out[i], expect_out[i]) << "out at " << i;
  }

  // Null pre-activation variant writes only the activation.
  std::vector<float> out2(size);
  matmul_bias_gelu(a.data(), b.data(), bias.data(), nullptr, out2.data(), p.m,
                   p.n, p.k, p.ta, p.tb);
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(out2[i], expect_out[i]) << "out2 at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedEpilogueTest,
    ::testing::Values(FusedCase{3, 5, 2, false, false},
                      FusedCase{13, 33, 17, false, true},
                      FusedCase{97, 45, 19, true, false},
                      FusedCase{100, 520, 260, false, true}));

TEST(Ops, GeluBackwardBiasGradMatchesUnfusedExactly) {
  const std::int64_t rows = 37, cols = 130;
  const std::size_t size = static_cast<std::size_t>(rows * cols);
  Rng rng(57);
  std::vector<float> x(size), gout(size);
  rng.fill_uniform(x, 2.0f);
  rng.fill_uniform(gout, 1.0f);
  // bias_grad accumulates, so both paths start from the same non-zero state.
  std::vector<float> expect_gin(size), expect_bg(cols, 0.25f);
  gelu_backward(x.data(), gout.data(), expect_gin.data(), rows * cols);
  bias_grad(expect_gin.data(), expect_bg.data(), rows, cols);
  std::vector<float> gin(size), bg(cols, 0.25f);
  gelu_backward_bias_grad(x.data(), gout.data(), gin.data(), bg.data(), rows,
                          cols);
  for (std::size_t i = 0; i < size; ++i) {
    EXPECT_EQ(gin[i], expect_gin[i]) << "gin at " << i;
  }
  for (std::size_t j = 0; j < expect_bg.size(); ++j) {
    EXPECT_EQ(bg[j], expect_bg[j]) << "bg at " << j;
  }
}

TEST(Ops, AddBiasBroadcastsOverRows) {
  std::vector<float> in = {1, 2, 3, 4};
  std::vector<float> bias = {10, 20};
  std::vector<float> out(4);
  add_bias(in.data(), bias.data(), out.data(), 2, 2);
  EXPECT_EQ(out[0], 11.0f);
  EXPECT_EQ(out[1], 22.0f);
  EXPECT_EQ(out[2], 13.0f);
  EXPECT_EQ(out[3], 24.0f);
}

TEST(Ops, BiasGradSumsRows) {
  std::vector<float> grad = {1, 2, 3, 4, 5, 6};
  std::vector<float> bg(2, 0.5f);
  bias_grad(grad.data(), bg.data(), 3, 2);
  EXPECT_FLOAT_EQ(bg[0], 0.5f + 1 + 3 + 5);
  EXPECT_FLOAT_EQ(bg[1], 0.5f + 2 + 4 + 6);
}

TEST(Ops, GeluMatchesKnownValues) {
  std::vector<float> in = {0.0f, 1.0f, -1.0f, 3.0f};
  std::vector<float> out(4);
  gelu_forward(in.data(), out.data(), 4);
  EXPECT_NEAR(out[0], 0.0f, 1e-6f);
  EXPECT_NEAR(out[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(out[2], -0.1588f, 1e-3f);
  EXPECT_NEAR(out[3], 2.9964f, 1e-3f);
}

TEST(Ops, GeluBackwardMatchesFiniteDifference) {
  Rng rng(5);
  std::vector<float> x(32);
  rng.fill_uniform(x, 2.0f);
  std::vector<float> gout(32, 1.0f);
  std::vector<float> gin(32);
  gelu_backward(x.data(), gout.data(), gin.data(), 32);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<float> xp = x, xm = x, yp(32), ym(32);
    xp[i] += eps;
    xm[i] -= eps;
    gelu_forward(xp.data(), yp.data(), 32);
    gelu_forward(xm.data(), ym.data(), 32);
    const float numeric = (yp[i] - ym[i]) / (2 * eps);
    EXPECT_NEAR(gin[i], numeric, 1e-3f);
  }
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(9);
  std::vector<float> in(8 * 16);
  rng.fill_uniform(in, 5.0f);
  std::vector<float> out(in.size());
  softmax_rows(in.data(), out.data(), 8, 16);
  for (int r = 0; r < 8; ++r) {
    float sum = 0;
    for (int c = 0; c < 16; ++c) {
      const float v = out[r * 16 + c];
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  std::vector<float> a = {1, 2, 3, 4};
  std::vector<float> b = {1001, 1002, 1003, 1004};
  std::vector<float> ya(4), yb(4);
  softmax_rows(a.data(), ya.data(), 1, 4);
  softmax_rows(b.data(), yb.data(), 1, 4);
  sh::testing::expect_allclose(ya, yb, 1e-6f, 1e-5f);
}

TEST(Ops, CausalSoftmaxMasksFuturePositions) {
  std::vector<float> scores(4 * 4, 1.0f);
  std::vector<std::int64_t> allowed = {0, 1, 2, 3};
  sh::testing::causal_softmax_rows(scores.data(), 4, 4, allowed.data(), 1.0f);
  for (int r = 0; r < 4; ++r) {
    float sum = 0;
    for (int c = 0; c < 4; ++c) {
      if (c > r) {
        EXPECT_EQ(scores[r * 4 + c], 0.0f) << "row " << r << " col " << c;
      }
      sum += scores[r * 4 + c];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    // Equal scores => uniform over the allowed prefix.
    for (int c = 0; c <= r; ++c) {
      EXPECT_NEAR(scores[r * 4 + c], 1.0f / (r + 1), 1e-5f);
    }
  }
}

TEST(Ops, LayerNormOutputHasZeroMeanUnitVar) {
  Rng rng(11);
  const std::int64_t rows = 6, cols = 64;
  std::vector<float> x(rows * cols), y(rows * cols);
  std::vector<float> gamma(cols, 1.0f), beta(cols, 0.0f);
  std::vector<LayerNormStats> stats(rows);
  rng.fill_uniform(x, 3.0f);
  layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(), stats.data(),
                    rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    double mean = 0, var = 0;
    for (std::int64_t c = 0; c < cols; ++c) mean += y[r * cols + c];
    mean /= cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      var += (y[r * cols + c] - mean) * (y[r * cols + c] - mean);
    }
    var /= cols;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Ops, EmbeddingGatherScatterRoundTrip) {
  const std::int64_t vocab = 10, cols = 4, rows = 3;
  std::vector<float> table(vocab * cols);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = static_cast<float>(i);
  std::vector<std::int32_t> ids = {7, 0, 7};
  std::vector<float> out(rows * cols);
  embedding_gather(table.data(), ids.data(), out.data(), rows, cols);
  EXPECT_EQ(out[0], 28.0f);  // row 7 starts at 7*4
  EXPECT_EQ(out[4], 0.0f);

  std::vector<float> tgrad(vocab * cols, 0.0f);
  std::vector<float> grad(rows * cols, 1.0f);
  embedding_scatter_add(grad.data(), ids.data(), tgrad.data(), rows, cols);
  // Token 7 appears twice, token 0 once.
  EXPECT_EQ(tgrad[7 * 4], 2.0f);
  EXPECT_EQ(tgrad[0], 1.0f);
  EXPECT_EQ(tgrad[1 * 4], 0.0f);
}

TEST(Ops, CrossEntropyUniformLogitsGivesLogClasses) {
  const std::int64_t rows = 4, classes = 8;
  std::vector<float> logits(rows * classes, 0.0f);
  std::vector<std::int32_t> targets = {0, 1, 2, 3};
  std::vector<float> grad(rows * classes);
  const float loss =
      cross_entropy(logits.data(), targets.data(), grad.data(), rows, classes);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(Ops, CrossEntropyGradSumsToZeroPerRow) {
  Rng rng(3);
  const std::int64_t rows = 5, classes = 11;
  std::vector<float> logits(rows * classes);
  rng.fill_uniform(logits, 2.0f);
  std::vector<std::int32_t> targets = {1, 4, 0, 10, 6};
  std::vector<float> grad(rows * classes);
  cross_entropy(logits.data(), targets.data(), grad.data(), rows, classes);
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0;
    for (std::int64_t c = 0; c < classes; ++c) s += grad[r * classes + c];
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Ops, CrossEntropyGradMatchesFiniteDifference) {
  Rng rng(17);
  const std::int64_t rows = 3, classes = 6;
  std::vector<float> logits(rows * classes);
  rng.fill_uniform(logits, 1.5f);
  std::vector<std::int32_t> targets = {2, 5, 0};
  std::vector<float> grad(rows * classes);
  cross_entropy(logits.data(), targets.data(), grad.data(), rows, classes);
  const float eps = 1e-3f;
  std::vector<float> scratch(rows * classes);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    auto lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float fp = cross_entropy(lp.data(), targets.data(), scratch.data(),
                                   rows, classes);
    const float fm = cross_entropy(lm.data(), targets.data(), scratch.data(),
                                   rows, classes);
    EXPECT_NEAR(grad[i], (fp - fm) / (2 * eps), 1e-3f);
  }
}

TEST(Ops, ElementwiseHelpers) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {1, 1, 1};
  axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_EQ(y[2], 7.0f);
  scale(0.5f, y.data(), 3);
  EXPECT_EQ(y[0], 1.5f);
  std::vector<float> z(3);
  add(x.data(), x.data(), z.data(), 3);
  EXPECT_EQ(z[1], 4.0f);
  EXPECT_FLOAT_EQ(dot(x.data(), x.data(), 3), 14.0f);
  EXPECT_FLOAT_EQ(l2_norm(x.data(), 3), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(max_abs_diff(x.data(), z.data(), 3), 3.0f);
}

}  // namespace
}  // namespace sh::tensor
