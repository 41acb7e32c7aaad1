// Dtype substrate for the byte-typed memory stack.
//
// STRONGHOLD's working window is bandwidth-bound: every fault-in/eviction
// pays PCIe bytes and the window size is capped by device bytes. Storing
// window-resident tensors in a 16-bit encoding halves both while the CPU
// optimizer keeps FP32 masters (the Horizon-LM / NeuronFabric split). Two
// encodings are supported:
//  * bfloat16 keeps the full FP32 exponent range, so it needs no loss
//    scaling; the only precision event is the 16-bit mantissa truncation,
//    implemented as round-to-nearest-even plus an opt-in stochastic-rounding
//    mode (unbiased in expectation, seeded from tensor::Rng for determinism).
//  * IEEE 754 binary16 (f16) keeps 10 mantissa bits but only a 5-bit
//    exponent: round-to-nearest-even with full subnormal, infinity and NaN
//    handling. Values past 65504 overflow to infinity, which is what dynamic
//    loss scaling detects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sh::tensor {

class Rng;  // rng.hpp — only needed by the stochastic-rounding entry points

/// bfloat16: the top 16 bits of an IEEE 754 binary32.
using bf16 = std::uint16_t;
/// IEEE 754 binary16 bit pattern.
using f16 = std::uint16_t;

/// Element encodings supported by the byte-typed window/transfer stack.
/// FP32 is the default and the bit-identity reference; BF16 and F16 are
/// window-resident encodings (FP32 masters stay the persisted truth).
enum class DType : std::uint8_t { f32 = 0, bf16 = 1, f16 = 2 };

/// How f32 -> bf16 conversions resolve the discarded mantissa bits. f16
/// encodes always round to nearest even.
enum class Rounding : std::uint8_t { nearest_even = 0, stochastic = 1 };

constexpr std::size_t bytes_per_element(DType dt) noexcept {
  return dt == DType::f32 ? 4u : 2u;
}

const char* dtype_name(DType dt) noexcept;
const char* rounding_name(Rounding r) noexcept;

/// Parses "f32"/"fp32"/"float32", "bf16"/"bfloat16" or "f16"/"fp16"/"half"
/// (case-insensitive).
/// Throws std::invalid_argument on anything else.
DType parse_dtype(std::string_view name);

/// Parses "rne"/"nearest"/"nearest_even" or "sr"/"stochastic".
/// Throws std::invalid_argument on anything else.
Rounding parse_rounding(std::string_view name);

/// float -> bfloat16 with round-to-nearest-even. Infinities pass through;
/// NaN payloads collapse to a quiet NaN with the sign preserved; values
/// whose magnitude rounds past the finite range become +-infinity.
bf16 float_to_bf16(float value) noexcept;

/// float -> bfloat16 with stochastic rounding: 16 random low bits are added
/// before truncation, so E[result] equals the input. Infinities and NaNs
/// are handled as in float_to_bf16. Deterministic for a given Rng state.
bf16 float_to_bf16_stochastic(float value, Rng& rng) noexcept;

/// bfloat16 -> float (exact).
float bf16_to_float(bf16 value) noexcept;

void convert_float_to_bf16(const float* src, bf16* dst, std::size_t n) noexcept;
void convert_float_to_bf16_stochastic(const float* src, bf16* dst,
                                      std::size_t n, Rng& rng) noexcept;
void convert_bf16_to_float(const bf16* src, float* dst, std::size_t n) noexcept;

/// Rounds every value through bf16 in place (round-to-nearest-even) —
/// models a bf16 copy landing in an fp32 compute buffer.
void quantize_bf16_inplace(float* data, std::size_t n) noexcept;

/// float -> binary16 with round-to-nearest-even. Values beyond the f16
/// range become +-infinity; NaN payloads collapse to a quiet NaN with the
/// sign preserved; values below half the smallest subnormal flush to +-0.
f16 float_to_f16(float value) noexcept;

/// binary16 -> float (exact, subnormals included).
float f16_to_float(f16 value) noexcept;

void convert_float_to_f16(const float* src, f16* dst, std::size_t n) noexcept;
void convert_f16_to_float(const f16* src, float* dst, std::size_t n) noexcept;

/// Rounds every value through f16 in place — models an f16 copy landing in
/// an fp32 compute buffer.
void quantize_f16_inplace(float* data, std::size_t n) noexcept;

/// Deterministic splitmix-style mixer for deriving per-event stochastic
/// rounding streams from (config seed, layer index, event counter).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) noexcept;

/// Dtype-tagged view over externally managed element storage. This is the
/// boundary type between the byte-typed memory substrate (arenas hand out
/// std::byte*) and FP32 compute: holders of a StorageView can decode into /
/// encode out of f32 buffers without caring which encoding the bytes use.
class StorageView {
 public:
  StorageView() = default;
  StorageView(void* data, DType dtype, std::size_t numel) noexcept
      : data_(static_cast<std::byte*>(data)), dtype_(dtype), numel_(numel) {}

  std::byte* bytes() noexcept { return data_; }
  const std::byte* bytes() const noexcept { return data_; }
  DType dtype() const noexcept { return dtype_; }
  std::size_t numel() const noexcept { return numel_; }
  std::size_t size_bytes() const noexcept {
    return numel_ * bytes_per_element(dtype_);
  }
  bool defined() const noexcept { return data_ != nullptr; }

  /// Typed access; throws std::logic_error if the view's dtype differs.
  float* f32();
  const float* f32() const;
  bf16* b16();
  const bf16* b16() const;

  /// True if any element is NaN or +-infinity in the view's encoding — for
  /// f16, the overflow verdict of dynamic loss scaling.
  bool has_non_finite() const noexcept;

  /// Element access regardless of encoding (store rounds to nearest even).
  float load(std::size_t i) const noexcept;
  void store(std::size_t i, float value) noexcept;

  /// Bulk decode of elements [offset, offset+n) into an f32 buffer.
  void decode(float* dst, std::size_t n, std::size_t offset = 0) const noexcept;
  /// Bulk encode of an f32 buffer into elements [offset, offset+n),
  /// round-to-nearest-even.
  void encode(const float* src, std::size_t n, std::size_t offset = 0) noexcept;
  /// Bulk encode with an explicit rounding mode (stochastic draws from rng;
  /// it applies to bf16 only — f16 encodes round to nearest even).
  void encode(const float* src, std::size_t n, Rounding rounding, Rng& rng,
              std::size_t offset = 0) noexcept;

  /// View of elements [offset, offset+n) sharing this view's storage.
  StorageView subview(std::size_t offset, std::size_t n) const noexcept;

 private:
  std::byte* data_ = nullptr;
  DType dtype_ = DType::f32;
  std::size_t numel_ = 0;
};

}  // namespace sh::tensor
