#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double Samples::sum() const {
  double s = 0.0;
  for (double v : v_) s += v;
  return s;
}

double Samples::percentile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

std::vector<Interval> merged(std::vector<Interval> v, double lo, double hi) {
  std::vector<Interval> out;
  for (auto& iv : v) {
    iv.begin = std::max(iv.begin, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  for (const auto& iv : v) {
    if (iv.end <= iv.begin) continue;
    if (!out.empty() && iv.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double total_length(const std::vector<Interval>& m) {
  double t = 0.0;
  for (const auto& iv : m) t += iv.end - iv.begin;
  return t;
}

std::vector<sh::obs::Span> spans_within(const std::vector<sh::obs::Span>& spans,
                                        double lo, double hi) {
  std::vector<sh::obs::Span> out;
  for (const auto& s : spans) {
    if (s.start_s >= lo && s.start_s < hi) out.push_back(s);
  }
  return out;
}

std::vector<Interval> spans_of(const std::vector<sh::obs::Span>& spans,
                               const std::string& track,
                               const std::string& name) {
  std::vector<Interval> out;
  for (const auto& s : spans) {
    if (s.instant || s.track != track) continue;
    if (!name.empty() && s.name != name) continue;
    out.push_back({s.start_s, s.end_s});
  }
  return out;
}

double busy_seconds(const std::vector<sh::obs::Span>& spans,
                    const std::string& track, double lo, double hi,
                    const std::string& name) {
  double t = 0.0;
  for (const auto& iv : spans_of(spans, track, name)) {
    if (iv.begin >= lo && iv.begin < hi) t += iv.end - iv.begin;
  }
  return t;
}

TracedPhase::TracedPhase() {
  sh::obs::Recorder::global().clear();
  sh::obs::Recorder::global().set_enabled(true);
}

TracedPhase::~TracedPhase() {
  sh::obs::Recorder::global().set_enabled(false);
  sh::obs::Recorder::global().clear();
}

std::vector<sh::obs::Span> TracedPhase::snapshot() const {
  auto& rec = sh::obs::Recorder::global();
  std::vector<sh::obs::Span> spans = rec.snapshot();
  for (auto& s : spans) {
    s.start_s += rec.epoch();
    s.end_s += rec.epoch();
  }
  return spans;
}

bool Result::correct() const {
  if (failed != 0 || checks.empty()) return false;
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void arena_peaks(Result& res, const sh::mem::ArenaStats& arena) {
  const auto peak_mb = [&](const char* region) {
    const auto it = arena.regions.find(region);
    return it == arena.regions.end()
               ? 0.0
               : static_cast<double>(it->second.peak_bytes) / kMB;
  };
  res.metric("mem.window_peak_mb", peak_mb(sh::mem::DeviceArena::kWindow));
  res.metric("mem.activations_peak_mb",
             peak_mb(sh::mem::DeviceArena::kActivations));
  res.metric("mem.kv_peak_mb", peak_mb(sh::mem::DeviceArena::kKv));
}

double host_rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss: KiB
}

}  // namespace perfbench
