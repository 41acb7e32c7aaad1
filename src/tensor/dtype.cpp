#include "tensor/dtype.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/rng.hpp"

namespace sh::tensor {

namespace {

inline std::uint32_t f32_bits(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline float bits_f32(std::uint32_t bits) noexcept {
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

inline bool is_nan_bits(std::uint32_t bits) noexcept {
  return (bits & 0x7FFFFFFFu) > 0x7F800000u;
}

inline bool is_inf_bits(std::uint32_t bits) noexcept {
  return (bits & 0x7FFFFFFFu) == 0x7F800000u;
}

std::string lower(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

const char* dtype_name(DType dt) noexcept {
  switch (dt) {
    case DType::bf16:
      return "bf16";
    case DType::f16:
      return "f16";
    default:
      return "f32";
  }
}

const char* rounding_name(Rounding r) noexcept {
  return r == Rounding::stochastic ? "stochastic" : "nearest_even";
}

DType parse_dtype(std::string_view name) {
  const std::string n = lower(name);
  if (n == "f32" || n == "fp32" || n == "float32") return DType::f32;
  if (n == "bf16" || n == "bfloat16") return DType::bf16;
  if (n == "f16" || n == "fp16" || n == "half") return DType::f16;
  throw std::invalid_argument("unknown dtype \"" + std::string(name) +
                              "\" (expected f32, bf16 or f16)");
}

Rounding parse_rounding(std::string_view name) {
  const std::string n = lower(name);
  if (n == "rne" || n == "nearest" || n == "nearest_even") {
    return Rounding::nearest_even;
  }
  if (n == "sr" || n == "stochastic") return Rounding::stochastic;
  throw std::invalid_argument("unknown rounding mode \"" + std::string(name) +
                              "\" (expected nearest_even or stochastic)");
}

bf16 float_to_bf16(float value) noexcept {
  std::uint32_t bits = f32_bits(value);
  if (is_nan_bits(bits)) {
    // Quiet NaN with the sign preserved; never silence to infinity.
    return static_cast<bf16>((bits >> 16) | 0x0040u);
  }
  // Round-to-nearest-even on the discarded 16 bits. Infinities pass
  // through unchanged (low half is zero); finite values past the bf16
  // range carry into the exponent and become +-infinity.
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<bf16>(bits >> 16);
}

bf16 float_to_bf16_stochastic(float value, Rng& rng) noexcept {
  std::uint32_t bits = f32_bits(value);
  if (is_nan_bits(bits)) return static_cast<bf16>((bits >> 16) | 0x0040u);
  if (is_inf_bits(bits)) return static_cast<bf16>(bits >> 16);
  // Add 16 random low bits, then truncate: rounds up with probability
  // fraction/2^16, so the expectation equals the input.
  bits += static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
  return static_cast<bf16>(bits >> 16);
}

float bf16_to_float(bf16 value) noexcept {
  return bits_f32(static_cast<std::uint32_t>(value) << 16);
}

void convert_float_to_bf16(const float* src, bf16* dst,
                           std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_bf16(src[i]);
}

void convert_float_to_bf16_stochastic(const float* src, bf16* dst,
                                      std::size_t n, Rng& rng) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = float_to_bf16_stochastic(src[i], rng);
  }
}

void convert_bf16_to_float(const bf16* src, float* dst,
                           std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bf16_to_float(src[i]);
}

void quantize_bf16_inplace(float* data, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = bf16_to_float(float_to_bf16(data[i]));
  }
}

f16 float_to_f16(float value) noexcept {
  const std::uint32_t bits = f32_bits(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t exp = (bits >> 23) & 0xFFu;
  std::uint32_t mant = bits & 0x7FFFFFu;

  if (exp == 0xFFu) {  // inf or NaN
    if (mant != 0) return static_cast<f16>(sign | 0x7E00u);  // quiet NaN
    return static_cast<f16>(sign | 0x7C00u);                 // infinity
  }

  // Re-bias exponent: fp32 bias 127, fp16 bias 15.
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) return static_cast<f16>(sign | 0x7C00u);  // overflow -> inf
  if (e <= 0) {
    // Subnormal (or zero) in f16.
    if (e < -10) return static_cast<f16>(sign);  // too small -> +-0
    // Add the implicit leading 1 and shift right; round to nearest even.
    mant |= 0x800000u;
    const auto shift = static_cast<unsigned>(14 - e);
    const std::uint32_t sub = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    std::uint32_t result = sub;
    if (rem > halfway || (rem == halfway && (sub & 1u))) ++result;
    return static_cast<f16>(sign | result);
  }
  // Normal number: keep 10 mantissa bits, round to nearest even.
  std::uint32_t result =
      sign | (static_cast<std::uint32_t>(e) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (result & 1u))) {
    ++result;  // may carry into the exponent, which is still correct
  }
  return static_cast<f16>(result);
}

float f16_to_float(f16 value) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(value) & 0x8000u)
                             << 16;
  const std::uint32_t exp = (value >> 10) & 0x1Fu;
  const std::uint32_t mant = value & 0x3FFu;

  std::uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal: normalise.
      int e = -1;
      std::uint32_t m = mant;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
             ((m & 0x3FFu) << 13);
    }
  } else if (exp == 0x1Fu) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  return bits_f32(bits);
}

void convert_float_to_f16(const float* src, f16* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_f16(src[i]);
}

void convert_f16_to_float(const f16* src, float* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f16_to_float(src[i]);
}

void quantize_f16_inplace(float* data, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = f16_to_float(float_to_f16(data[i]));
  }
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) noexcept {
  // SplitMix64 finalisers chained over the three inputs.
  std::uint64_t z = a;
  for (std::uint64_t w : {b, c}) {
    z += 0x9E3779B97F4A7C15ull + w;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
  }
  return z;
}

float* StorageView::f32() {
  if (dtype_ != DType::f32) {
    throw std::logic_error(std::string("StorageView::f32 on a ") +
                           dtype_name(dtype_) + " view");
  }
  return reinterpret_cast<float*>(data_);
}

const float* StorageView::f32() const {
  return const_cast<StorageView*>(this)->f32();
}

bf16* StorageView::b16() {
  if (dtype_ != DType::bf16) {
    throw std::logic_error(std::string("StorageView::b16 on a ") +
                           dtype_name(dtype_) + " view");
  }
  return reinterpret_cast<bf16*>(data_);
}

const bf16* StorageView::b16() const {
  return const_cast<StorageView*>(this)->b16();
}

bool StorageView::has_non_finite() const noexcept {
  if (dtype_ == DType::f32) {
    for (std::size_t i = 0; i < numel_; ++i) {
      if (!std::isfinite(load(i))) return true;
    }
    return false;
  }
  // 16-bit encodings: an all-ones exponent field is inf or NaN.
  const std::uint16_t exp_mask = dtype_ == DType::f16 ? 0x7C00u : 0x7F80u;
  for (std::size_t i = 0; i < numel_; ++i) {
    std::uint16_t v;
    std::memcpy(&v, data_ + i * sizeof(v), sizeof(v));
    if ((v & exp_mask) == exp_mask) return true;
  }
  return false;
}

float StorageView::load(std::size_t i) const noexcept {
  if (dtype_ != DType::f32) {
    std::uint16_t v;
    std::memcpy(&v, data_ + i * sizeof(v), sizeof(v));
    return dtype_ == DType::f16 ? f16_to_float(v) : bf16_to_float(v);
  }
  float v;
  std::memcpy(&v, data_ + i * sizeof(float), sizeof(v));
  return v;
}

void StorageView::store(std::size_t i, float value) noexcept {
  if (dtype_ != DType::f32) {
    const std::uint16_t v =
        dtype_ == DType::f16 ? float_to_f16(value) : float_to_bf16(value);
    std::memcpy(data_ + i * sizeof(v), &v, sizeof(v));
    return;
  }
  std::memcpy(data_ + i * sizeof(float), &value, sizeof(value));
}

void StorageView::decode(float* dst, std::size_t n,
                         std::size_t offset) const noexcept {
  switch (dtype_) {
    case DType::bf16:
      convert_bf16_to_float(reinterpret_cast<const bf16*>(data_) + offset,
                            dst, n);
      return;
    case DType::f16:
      convert_f16_to_float(reinterpret_cast<const f16*>(data_) + offset, dst,
                           n);
      return;
    default:
      std::memcpy(dst, data_ + offset * sizeof(float), n * sizeof(float));
  }
}

void StorageView::encode(const float* src, std::size_t n,
                         std::size_t offset) noexcept {
  switch (dtype_) {
    case DType::bf16:
      convert_float_to_bf16(src, reinterpret_cast<bf16*>(data_) + offset, n);
      return;
    case DType::f16:
      convert_float_to_f16(src, reinterpret_cast<f16*>(data_) + offset, n);
      return;
    default:
      std::memcpy(data_ + offset * sizeof(float), src, n * sizeof(float));
  }
}

void StorageView::encode(const float* src, std::size_t n, Rounding rounding,
                         Rng& rng, std::size_t offset) noexcept {
  if (dtype_ == DType::bf16 && rounding == Rounding::stochastic) {
    convert_float_to_bf16_stochastic(
        src, reinterpret_cast<bf16*>(data_) + offset, n, rng);
    return;
  }
  encode(src, n, offset);
}

StorageView StorageView::subview(std::size_t offset,
                                 std::size_t n) const noexcept {
  return StorageView(data_ + offset * bytes_per_element(dtype_), dtype_, n);
}

}  // namespace sh::tensor
