// BF16/F16 <-> FP32 conversion kernels and the dtype-tagged StorageView.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/rng.hpp"

namespace sh::tensor {
namespace {

float from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }
std::uint32_t to_bits(float v) { return std::bit_cast<std::uint32_t>(v); }

TEST(Dtype, BytesPerElement) {
  EXPECT_EQ(bytes_per_element(DType::f32), 4u);
  EXPECT_EQ(bytes_per_element(DType::bf16), 2u);
  EXPECT_EQ(bytes_per_element(DType::f16), 2u);
}

TEST(Dtype, ParseDtypeAcceptsAliases) {
  EXPECT_EQ(parse_dtype("f32"), DType::f32);
  EXPECT_EQ(parse_dtype("FP32"), DType::f32);
  EXPECT_EQ(parse_dtype("float32"), DType::f32);
  EXPECT_EQ(parse_dtype("bf16"), DType::bf16);
  EXPECT_EQ(parse_dtype("BFloat16"), DType::bf16);
  EXPECT_EQ(parse_dtype("fp16"), DType::f16);
  EXPECT_EQ(parse_dtype("f16"), DType::f16);
  EXPECT_EQ(parse_dtype("Half"), DType::f16);
  EXPECT_STREQ(dtype_name(DType::f16), "f16");
  EXPECT_THROW(parse_dtype(""), std::invalid_argument);
}

TEST(Dtype, ParseRoundingAcceptsAliases) {
  EXPECT_EQ(parse_rounding("rne"), Rounding::nearest_even);
  EXPECT_EQ(parse_rounding("nearest_even"), Rounding::nearest_even);
  EXPECT_EQ(parse_rounding("SR"), Rounding::stochastic);
  EXPECT_EQ(parse_rounding("stochastic"), Rounding::stochastic);
  EXPECT_THROW(parse_rounding("up"), std::invalid_argument);
}

TEST(Bf16, RepresentableValuesRoundTripExactly) {
  const float exact[] = {0.0f,  -0.0f, 1.0f,   -1.0f, 0.5f,
                         2.0f,  -4.5f, 0.125f, 256.0f, 3.140625f};
  for (float v : exact) {
    const bf16 b = float_to_bf16(v);
    EXPECT_EQ(bf16_to_float(b), v) << v;
  }
  // Every bf16 value is exactly a f32 with zero low bits; decode/encode of
  // such a value must be the identity on the bit pattern.
  for (std::uint32_t hi : {0x3F80u, 0xC123u, 0x0001u, 0x7F7Fu}) {
    const float v = from_bits(hi << 16);
    EXPECT_EQ(float_to_bf16(v), static_cast<bf16>(hi));
  }
}

TEST(Bf16, RoundsToNearestEvenOnTies) {
  // Low half exactly 0x8000 is a tie. 0x3F80_8000: high LSB 0 -> stays even.
  EXPECT_EQ(float_to_bf16(from_bits(0x3F808000u)), 0x3F80);
  // 0x3F81_8000: high LSB 1 -> rounds up to even 0x3F82.
  EXPECT_EQ(float_to_bf16(from_bits(0x3F818000u)), 0x3F82);
  // Just below / above the tie go to the nearest value regardless of parity.
  EXPECT_EQ(float_to_bf16(from_bits(0x3F807FFFu)), 0x3F80);
  EXPECT_EQ(float_to_bf16(from_bits(0x3F808001u)), 0x3F81);
}

TEST(Bf16, InfinityPassesThrough) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_float(float_to_bf16(inf)), inf);
  EXPECT_EQ(bf16_to_float(float_to_bf16(-inf)), -inf);
  // Finite values that round past the bf16-finite range become infinity.
  const float huge = from_bits(0x7F7FFFFFu);  // f32 max: rounds up past max
  EXPECT_EQ(bf16_to_float(float_to_bf16(huge)), inf);
}

TEST(Bf16, NanStaysNanWithSign) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(nan))));
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(-nan))));
  // A signalling-style payload whose top mantissa bits are zero must not
  // collapse to infinity: the quiet bit is forced on.
  const float snan = from_bits(0x7F800001u);
  const bf16 b = float_to_bf16(snan);
  EXPECT_TRUE(std::isnan(bf16_to_float(b)));
  const float neg = from_bits(0xFF800001u);
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(neg))));
  EXPECT_TRUE(std::signbit(bf16_to_float(float_to_bf16(neg))));
}

TEST(Bf16, SubnormalsRoundLikeAnyOtherValue) {
  // A f32 subnormal with bit 16 set maps to the matching bf16 subnormal.
  EXPECT_EQ(float_to_bf16(from_bits(0x00010000u)), 0x0001);
  // The smallest f32 subnormal is far below half a bf16 ulp: rounds to +0.
  EXPECT_EQ(float_to_bf16(from_bits(0x00000001u)), 0x0000);
  // bf16 subnormals decode exactly.
  EXPECT_EQ(to_bits(bf16_to_float(bf16{0x0001})), 0x00010000u);
  EXPECT_EQ(to_bits(bf16_to_float(bf16{0x8001})), 0x80010000u);
}

TEST(Bf16, QuantizeInplaceMatchesRoundTrip) {
  Rng rng(7);
  std::vector<float> vals(257);
  rng.fill_uniform(vals, 3.0f);
  std::vector<float> quantized = vals;
  quantize_bf16_inplace(quantized.data(), quantized.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(quantized[i], bf16_to_float(float_to_bf16(vals[i])));
  }
}

TEST(F16, RepresentableValuesRoundTripExactly) {
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -2.0f, 1024.0f, 0.25f,
                  -0.125f, 65504.0f, 1.5f, 3.140625f}) {
    EXPECT_EQ(f16_to_float(float_to_f16(v)), v) << v;
  }
}

TEST(F16, KnownBitPatterns) {
  EXPECT_EQ(float_to_f16(0.0f), 0x0000);
  EXPECT_EQ(float_to_f16(-0.0f), 0x8000);
  EXPECT_EQ(float_to_f16(1.0f), 0x3C00);
  EXPECT_EQ(float_to_f16(-1.0f), 0xBC00);
  EXPECT_EQ(float_to_f16(2.0f), 0x4000);
  EXPECT_EQ(float_to_f16(65504.0f), 0x7BFF);  // max finite
  EXPECT_EQ(f16_to_float(0x3C00), 1.0f);
  EXPECT_EQ(f16_to_float(0x7C00), std::numeric_limits<float>::infinity());
}

TEST(F16, RoundTripIsIdempotent) {
  // One rounding is idempotent and within 2^-11 relative error.
  Rng rng(5);
  std::vector<float> vals(2000);
  rng.fill_normal(vals, 10.0f);
  for (float v : vals) {
    const float once = f16_to_float(float_to_f16(v));
    EXPECT_EQ(f16_to_float(float_to_f16(once)), once);
    if (std::abs(v) > 1e-4f) {
      EXPECT_LE(std::abs(once - v), std::abs(v) * 0.0005f);
    }
  }
}

TEST(F16, RoundsToNearestEvenOnTies) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 value
  // (1 + 2^-10); ties go to even (1.0, whose mantissa LSB is 0).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(f16_to_float(float_to_f16(halfway)), 1.0f);
  // Just above halfway rounds up.
  const float above = halfway + std::ldexp(1.0f, -20);
  EXPECT_EQ(f16_to_float(float_to_f16(above)), 1.0f + std::ldexp(1.0f, -10));
  // 1 + 3*2^-11 is halfway between 1+2^-10 (odd mantissa) and 1+2^-9: even
  // is the upper value.
  const float halfway2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(f16_to_float(float_to_f16(halfway2)), 1.0f + std::ldexp(1.0f, -9));
}

TEST(F16, OverflowBecomesInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(f16_to_float(float_to_f16(65536.0f)), inf);
  EXPECT_EQ(f16_to_float(float_to_f16(-1e9f)), -inf);
  EXPECT_EQ(float_to_f16(65536.0f), 0x7C00);
  EXPECT_EQ(float_to_f16(-1e9f), 0xFC00);
}

TEST(F16, InfinityPassesThrough) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(float_to_f16(inf), 0x7C00);
  EXPECT_EQ(float_to_f16(-inf), 0xFC00);
  EXPECT_EQ(f16_to_float(float_to_f16(inf)), inf);
  EXPECT_EQ(f16_to_float(float_to_f16(-inf)), -inf);
}

TEST(F16, NanStaysNanWithSign) {
  EXPECT_TRUE(std::isnan(f16_to_float(
      float_to_f16(std::numeric_limits<float>::quiet_NaN()))));
  // A payload living only in the low mantissa bits must not collapse to
  // infinity: the quiet bit is forced on.
  EXPECT_TRUE(std::isnan(f16_to_float(float_to_f16(from_bits(0x7F800001u)))));
  const float neg = f16_to_float(float_to_f16(from_bits(0xFF800001u)));
  EXPECT_TRUE(std::isnan(neg));
  EXPECT_TRUE(std::signbit(neg));
}

TEST(F16, SubnormalsRoundTrip) {
  // Smallest positive f16 subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(f16_to_float(float_to_f16(tiny)), tiny);
  EXPECT_EQ(float_to_f16(tiny), 0x0001);
  // Largest subnormal: (1023/1024) * 2^-14.
  const float big_sub = 1023.0f / 1024.0f * std::ldexp(1.0f, -14);
  EXPECT_EQ(f16_to_float(float_to_f16(big_sub)), big_sub);
  // Below half the smallest subnormal: flush to zero.
  EXPECT_EQ(f16_to_float(float_to_f16(std::ldexp(1.0f, -26))), 0.0f);
}

TEST(F16, BulkConversionsMatchScalar) {
  Rng rng(6);
  std::vector<float> src(257);
  rng.fill_uniform(src, 100.0f);
  std::vector<f16> h(src.size());
  std::vector<float> back(src.size());
  convert_float_to_f16(src.data(), h.data(), src.size());
  convert_f16_to_float(h.data(), back.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(back[i], f16_to_float(float_to_f16(src[i])));
  }
  std::vector<float> inplace = src;
  quantize_f16_inplace(inplace.data(), inplace.size());
  EXPECT_EQ(inplace, back);
}

TEST(Bf16Stochastic, DeterministicUnderFixedSeed) {
  Rng rng_a(42), rng_b(42), rng_c(43);
  std::vector<float> vals(512);
  Rng fill(3);
  fill.fill_uniform(vals, 1.0f);
  std::vector<bf16> a(vals.size()), b(vals.size()), c(vals.size());
  convert_float_to_bf16_stochastic(vals.data(), a.data(), vals.size(), rng_a);
  convert_float_to_bf16_stochastic(vals.data(), b.data(), vals.size(), rng_b);
  convert_float_to_bf16_stochastic(vals.data(), c.data(), vals.size(), rng_c);
  EXPECT_EQ(a, b);   // same seed, same stream
  EXPECT_NE(a, c);   // different seed diverges
}

TEST(Bf16Stochastic, UnbiasedOnAverage) {
  // x sits 1/4 of the way between two adjacent bf16 values, so stochastic
  // rounding must go up ~25% of the time and the mean must recover x.
  const float lo = bf16_to_float(bf16{0x3F80});  // 1.0
  const float hi = bf16_to_float(bf16{0x3F81});
  const float x = from_bits(0x3F804000u);  // low bits 0x4000 = 1/4 gap
  Rng rng(9);
  double sum = 0.0;
  int ups = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const float r = bf16_to_float(float_to_bf16_stochastic(x, rng));
    EXPECT_TRUE(r == lo || r == hi);
    sum += r;
    ups += (r == hi);
  }
  const double up_rate = static_cast<double>(ups) / kTrials;
  EXPECT_NEAR(up_rate, 0.25, 0.02);
  EXPECT_NEAR(sum / kTrials, x, (hi - lo) * 0.02);
}

TEST(Bf16Stochastic, SpecialValuesAreNeverPerturbed) {
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(1);
  for (int i = 0; i < 64; ++i) {
    // inf + random low bits would be NaN without the passthrough.
    EXPECT_EQ(bf16_to_float(float_to_bf16_stochastic(inf, rng)), inf);
    EXPECT_EQ(bf16_to_float(float_to_bf16_stochastic(-inf, rng)), -inf);
    EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16_stochastic(
        std::numeric_limits<float>::quiet_NaN(), rng))));
  }
}

TEST(MixSeed, DistinctStreamsPerEvent) {
  const std::uint64_t base = mix_seed(1, 2, 3);
  EXPECT_NE(base, mix_seed(1, 2, 4));  // next event
  EXPECT_NE(base, mix_seed(1, 3, 3));  // next layer
  EXPECT_NE(base, mix_seed(2, 2, 3));  // other config seed
  EXPECT_EQ(base, mix_seed(1, 2, 3));  // pure function
}

TEST(StorageView, TypedAccessorsEnforceDtype) {
  float f[4] = {1, 2, 3, 4};
  StorageView fv(f, DType::f32, 4);
  EXPECT_EQ(fv.size_bytes(), 16u);
  EXPECT_EQ(fv.f32(), f);
  EXPECT_THROW(fv.b16(), std::logic_error);

  bf16 b[4] = {};
  StorageView bv(b, DType::bf16, 4);
  EXPECT_EQ(bv.size_bytes(), 8u);
  EXPECT_EQ(bv.b16(), b);
  EXPECT_THROW(bv.f32(), std::logic_error);
  EXPECT_FALSE(StorageView().defined());

  f16 h[4] = {};
  StorageView hv(h, DType::f16, 4);
  EXPECT_EQ(hv.size_bytes(), 8u);
  EXPECT_EQ(hv.bytes(), reinterpret_cast<std::byte*>(h));
  EXPECT_THROW(hv.f32(), std::logic_error);
  EXPECT_THROW(hv.b16(), std::logic_error);
}

TEST(StorageView, LoadStoreRoundsThroughTheEncoding) {
  bf16 b[2] = {};
  StorageView view(b, DType::bf16, 2);
  view.store(0, 1.0f);
  view.store(1, from_bits(0x3F808001u));  // above the tie: rounds up
  EXPECT_EQ(view.load(0), 1.0f);
  EXPECT_EQ(view.load(1), bf16_to_float(bf16{0x3F81}));

  float f[1] = {};
  StorageView fview(f, DType::f32, 1);
  const float odd = from_bits(0x3F808001u);
  fview.store(0, odd);
  EXPECT_EQ(fview.load(0), odd);  // f32 stores are exact

  f16 h[2] = {};
  StorageView hview(h, DType::f16, 2);
  hview.store(0, 1.0f + std::ldexp(1.0f, -11));  // tie: rounds to even 1.0
  hview.store(1, 65536.0f);                      // overflows to infinity
  EXPECT_EQ(h[0], 0x3C00);
  EXPECT_EQ(hview.load(0), 1.0f);
  EXPECT_EQ(hview.load(1), std::numeric_limits<float>::infinity());
}

TEST(StorageView, NonFiniteDetection) {
  // The f16 overflow verdict: finite f32 values past 65504 are non-finite
  // once encoded.
  const std::vector<float> ok = {1.0f, -2.0f, 100.0f};
  const std::vector<float> overflow = {1.0f, 1e6f};
  const std::vector<float> nan = {std::numeric_limits<float>::quiet_NaN()};
  auto encoded = [](const std::vector<float>& src, DType dtype) {
    std::vector<float> storage(src.size());  // room for any encoding
    StorageView view(storage.data(), dtype, src.size());
    view.encode(src.data(), src.size());
    return view.has_non_finite();
  };
  for (DType dt : {DType::f32, DType::bf16, DType::f16}) {
    EXPECT_FALSE(encoded(ok, dt)) << dtype_name(dt);
    EXPECT_TRUE(encoded(nan, dt)) << dtype_name(dt);
  }
  EXPECT_TRUE(encoded(overflow, DType::f16));
  EXPECT_FALSE(encoded(overflow, DType::bf16));  // bf16 keeps f32's range
  EXPECT_FALSE(encoded(overflow, DType::f32));
}

TEST(StorageView, BulkEncodeDecodeAndSubview) {
  std::vector<float> src(64);
  Rng rng(11);
  rng.fill_uniform(src, 2.0f);

  std::vector<bf16> storage(64);
  StorageView view(storage.data(), DType::bf16, 64);
  view.encode(src.data(), 64);
  std::vector<float> out(64);
  view.decode(out.data(), 64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i], bf16_to_float(float_to_bf16(src[i])));
  }

  // Subview shares storage at an element offset.
  StorageView tail = view.subview(32, 32);
  EXPECT_EQ(tail.numel(), 32u);
  std::vector<float> tail_out(32);
  tail.decode(tail_out.data(), 32);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(tail_out[i], out[32 + i]);

  // Stochastic bulk encode is deterministic for a given Rng.
  std::vector<bf16> s1(64), s2(64);
  Rng ra(5), rb(5);
  StorageView v1(s1.data(), DType::bf16, 64), v2(s2.data(), DType::bf16, 64);
  v1.encode(src.data(), 64, Rounding::stochastic, ra);
  v2.encode(src.data(), 64, Rounding::stochastic, rb);
  EXPECT_EQ(s1, s2);

  // f16 views encode/decode through the f16 codec, at any offset; a
  // stochastic request on an f16 view rounds to nearest even.
  std::vector<f16> hs(64);
  StorageView hview(hs.data(), DType::f16, 64);
  hview.encode(src.data(), 32);
  hview.subview(32, 32).encode(src.data() + 32, 32, Rounding::stochastic, ra);
  std::vector<float> hout(64);
  hview.decode(hout.data(), 64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(hs[i], float_to_f16(src[i]));
    EXPECT_EQ(hout[i], f16_to_float(float_to_f16(src[i])));
  }
}

}  // namespace
}  // namespace sh::tensor
