// The repository benchmark: one workload per run, chosen on the command
// line, with every input generated from --seed.
//
//   perfbench --workload <train_offload|train_dp|serve_open> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a host fingerprint, the sample counts and correctness checks, and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end table below,
// measured untraced; with --trace 1 they are the per-layer table, measured
// in a traced phase that follows an untraced one.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares; run.py checks they agree.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tokens_per_s", "tok/s"},
    {"latency_ms_p50", "ms"},
    {"gpu_peak_mb", "MB"},
    {"host_rss_peak_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"train.step_ms_p90", "ms"},
    {"serve.request_ms_p99", "ms"},
    {"core.window_layers", "layers"},
    {"core.prefetch_stalls_per_step", "count"},
    {"core.stall_s_per_step", "s"},
    {"core.gpu_busy_share", "share"},
    {"nn.forward_s_per_step", "s"},
    {"nn.backward_s_per_step", "s"},
    {"serve.step_ms_p50", "ms"},
    {"hw.h2d_bytes_per_step", "B"},
    {"hw.d2h_bytes_per_step", "B"},
    {"hw.h2d_busy_s_per_step", "s"},
    {"hw.d2h_busy_s_per_step", "s"},
    {"hw.h2d_overlap_share", "share"},
    {"hw.d2h_overlap_share", "share"},
    {"optim.update_busy_s_per_step", "s"},
    {"optim.update_tail_s_per_step", "s"},
    {"storage.moment_prefetch_hit_share", "share"},
    {"storage.io_busy_s_per_step", "s"},
    {"storage.act_spills_per_step", "count"},
    {"storage.retries", "count"},
    {"ckpt.save_s", "s"},
    {"ckpt.bytes_per_save", "B"},
    {"ckpt.capture_step_extra_ms", "ms"},
    {"dist.floats_per_step", "count"},
    {"dist.rank_busy_share", "share"},
    {"mem.window_peak_mb", "MB"},
    {"mem.activations_peak_mb", "MB"},
    {"mem.kv_peak_mb", "MB"},
    {"mem.pressure_events", "count"},
    {"serve.batch_occupancy", "share"},
    {"serve.prefix_saved_share", "share"},
    {"serve.prefix_request_share", "share"},
    {"serve.request_ms_p50.prefix", "ms"},
    {"serve.request_ms_p50.noprefix", "ms"},
    {"serve.preemptions", "count"},
    {"serve.kv_peak_mb", "MB"},
    {"serve.gen_late_ms_p99", "ms"},
    {"serve.goodput", "share"},
    {"train.loss_final", "nat"},
    {"bench.error_rate", "share"},
    {"obs.overhead_share", "share"},
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

/// The library reads SH_* variables at construction (window dtype and
/// rounding, optimizer tier, fault injection, checkpointing, serving,
/// tracing). Any of them would silently benchmark another configuration.
void refuse_env_overrides() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SH_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name =
          eq ? std::string(*e, static_cast<std::size_t>(eq - *e)) : *e;
      die("environment variable " + name +
          " overrides the benchmarked configuration; unset it");
    }
  }
}

void print_fingerprint(unsigned nproc) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "perfbench host {\"nproc\": %u, \"compiler\": \"%s\", \"ndebug\": %s, "
      "\"optimized\": %s, \"build_type\": \"%s\", \"native_arch\": %s}\n",
      nproc, __VERSION__, ndebug ? "true" : "false",
      optimized ? "true" : "false", PERFBENCH_BUILD_TYPE,
      PERFBENCH_NATIVE_ARCH ? "true" : "false");
  if (!optimized || !ndebug) {
    die("refusing to benchmark an unoptimised or assert-enabled build");
  }
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) die("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") die("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (key == "--workdir") {
        opt.workdir = val;
      } else {
        die("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      die("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload || !have_seed || opt.workdir.empty()) {
    die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir>");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    die("--seconds out of range");
  }
  return opt;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Options& opt, Result& res) {
  std::printf("perfbench info {");
  const char* sep = "";
  for (const auto& [name, v] : res.info) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), json_number(v).c_str());
    sep = ", ";
  }
  std::printf("}\n");

  if (opt.trace) {
    res.metric("bench.error_rate",
               res.attempted ? static_cast<double>(res.failed) /
                                   static_cast<double>(res.attempted)
                             : 0.0);
  }
  const auto* table = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t rows =
      opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::set<std::string> known;
  bool finite = true;
  std::string metrics;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto it = res.metrics.find(table[i].name);
    if (it == res.metrics.end() && !opt.trace) {
      die(std::string("workload did not measure ") + table[i].name);
    }
    // A per-layer metric the workload does not exercise reads 0.
    const double v = it == res.metrics.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(v);
    known.insert(table[i].name);
    metrics += std::string(i ? ", " : "") + "\"" + table[i].name +
               "\": {\"value\": " + json_number(std::isfinite(v) ? v : 0.0) +
               ", \"unit\": \"" + table[i].unit + "\"}";
  }
  for (const auto& [name, v] : res.metrics) {
    if (!known.contains(name)) {
      die("workload reported undeclared metric " + name);
    }
  }
  res.check("finite_metrics", finite);

  std::printf("perfbench checks {");
  sep = "";
  for (const auto& [name, ok] : res.checks) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), ok ? "true" : "false");
    sep = ", ";
  }
  std::printf("}\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      res.correct() ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  refuse_env_overrides();
  const Options opt = parse(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  print_fingerprint(nproc);
  if (opt.workload == "train_dp" && kDpWorld > static_cast<int>(nproc)) {
    die("train_dp world " + std::to_string(kDpWorld) + " exceeds nproc " +
        std::to_string(nproc));
  }

  Result res;
  try {
    if (opt.workload == "train_offload") {
      res = run_train_offload(opt);
    } else if (opt.workload == "train_dp") {
      res = run_train_dp(opt);
    } else if (opt.workload == "serve_open") {
      res = run_serve_open(opt);
    } else {
      die("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::filesystem::remove_all(opt.workdir);
    die(std::string("workload failed: ") + e.what());
  }
  std::filesystem::remove_all(opt.workdir);
  print_result(opt, res);
  return 0;
}
