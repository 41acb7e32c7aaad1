// Shared pieces of the repository benchmark: run options, the result record
// every workload fills, sample statistics and span arithmetic.
//
// The benchmark drives the library only through public entry points and
// times those calls itself. Per-layer numbers come from a separate traced
// phase that turns on the process-wide obs::Recorder.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mem/device_arena.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for swap files and checkpoints; removed at exit.
  std::string workdir;
};

/// Seconds on the library's monotonic clock (obs::wall_seconds), so the
/// benchmark's own spans line up with the recorder's.
inline double now_s() { return sh::obs::wall_seconds(); }

/// Sample set with linearly interpolated percentiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t count() const { return v_.size(); }
  double sum() const;
  /// q in [0, 1]; 0 with no samples.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }

 private:
  std::vector<double> v_;
};

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Merges overlapping intervals after clipping them to [lo, hi].
std::vector<Interval> merged(std::vector<Interval> v, double lo, double hi);
double total_length(const std::vector<Interval>& merged_intervals);

/// The spans that start inside [lo, hi], for obs::to_sim_trace.
std::vector<sh::obs::Span> spans_within(const std::vector<sh::obs::Span>& spans,
                                        double lo, double hi);

/// Spans of one track (optionally one label), as absolute wall_seconds().
std::vector<Interval> spans_of(const std::vector<sh::obs::Span>& spans,
                               const std::string& track,
                               const std::string& name = "");
/// Summed duration of the spans of `track` starting inside [lo, hi].
double busy_seconds(const std::vector<sh::obs::Span>& spans,
                    const std::string& track, double lo, double hi,
                    const std::string& name = "");

/// Turns the global recorder on (cleared) for the traced phase and off
/// again; snapshot() returns the phase's spans.
class TracedPhase {
 public:
  TracedPhase();
  ~TracedPhase();
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;
  /// Spans recorded so far, with start/end as absolute wall_seconds().
  std::vector<sh::obs::Span> snapshot() const;
};

/// What one workload run reports: metrics plus the op accounting behind
/// `attempted`/`failed` and the outcome of each correctness check.
struct Result {
  /// Metric values by name; names and units are fixed by the tables in
  /// main.cpp, and a per-layer metric a workload does not set reads 0.
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Sample counts behind the reported percentiles and other facts of the
  /// run (such as the window the engine selected), printed for the record.
  std::vector<std::pair<std::string, double>> info;

  void metric(const std::string& name, double value) {
    metrics[name] = value;
  }
  /// One timed operation (train step, request, checkpoint commit).
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// One correctness check; also counted as an op.
  void check(std::string name, bool ok) {
    op(ok);
    checks.emplace_back(std::move(name), ok);
  }
  bool correct() const;
};

/// part / whole, or 0 when whole is 0 (a layer the workload does not use).
double share(double part, double whole);

/// Peak resident set size of this process in MB (10^6 bytes).
double host_rss_peak_mb();

/// Sets mem.{window,activations,kv}_peak_mb from the device arena's regions.
void arena_peaks(Result& res, const sh::mem::ArenaStats& arena);

constexpr double kMB = 1e6;

/// Ranks of the train_dp workload.
constexpr int kDpWorld = 2;

/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetups = 5;

/// Tail percentiles, reported over the whole timed region of the traced
/// run: the highest with at least ten samples beyond it at the run length
/// BENCHMARK.json sets (p90 over >=100 train steps, p99 over >=1000
/// requests).
constexpr double kTrainTail = 0.90;
constexpr double kServeTail = 0.99;

Result run_train_offload(const Options& opt);
Result run_train_dp(const Options& opt);
Result run_serve_open(const Options& opt);

}  // namespace perfbench
