// Training workloads.
//
// train_offload: one engine in the paper's regime. A BF16 window of 4 over
// FP32 masters, Adam moments on the NVMe tier, a CPU budget that leaves part
// of the masters swap-backed, periodic asynchronous checkpoints, and a link
// throttle tight enough that transfers and tier I/O set the step time.
//
// train_dp: DataParallelTrainer at world 2 with an f32 window, CPU-resident
// optimizer state and unthrottled links, so the step is compute plus the
// per-layer all-reduce.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "dist/dp_trainer.hpp"
#include "nn/gpt.hpp"

namespace perfbench {
namespace {

using sh::core::EngineStats;
using sh::data::Batch;

/// Untimed steps after construction: they fill the allocator, the swap file
/// and the transfer queues before timing starts.
constexpr int kWarmupSteps = 3;
constexpr std::int64_t kSeq = 32;

/// The training data stream of a run: synthetic tokens from the run's seed.
sh::data::SyntheticCorpus make_corpus(const Options& opt) {
  return sh::data::SyntheticCorpus(256, opt.seed ^ 0x9e3779b97f4a7c15ull);
}

/// Counters summed over the ranks of a rig, read between steps.
struct Counters {
  std::size_t prefetch_stalls = 0;
  double stall_seconds = 0.0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t moment_prefetches = 0;
  std::size_t moment_demand_reads = 0;
  std::size_t act_spills = 0;
  std::size_t swap_retries = 0;
  std::size_t ckpt_snapshots = 0;
  std::size_t pressure_events = 0;
  std::size_t floats_communicated = 0;
  std::size_t saves_committed = 0;
  std::size_t saves_failed = 0;
  std::size_t save_bytes = 0;

  void add(const EngineStats& s) {
    prefetch_stalls += s.prefetch_stalls;
    stall_seconds += s.stall_seconds;
    h2d_bytes += s.h2d_bytes;
    d2h_bytes += s.d2h_bytes;
    moment_prefetches += s.moment_prefetches;
    moment_demand_reads += s.moment_demand_reads;
    act_spills += s.act_spills;
    swap_retries += s.swap_retries;
    ckpt_snapshots += s.ckpt_snapshots;
    pressure_events += s.arena.pressure_events;
  }
};

/// What the timed loop needs from a training set-up.
struct TrainRig {
  std::function<float(const Batch&)> step;
  std::function<Counters()> counters;
  /// Waits for every asynchronous update so its spans have landed.
  std::function<void()> quiesce;
  /// Wall time of the last committed checkpoint save (0 without one).
  std::function<double()> last_save_s = [] { return 0.0; };
};

struct StepRecord {
  double t0 = 0.0;
  double t1 = 0.0;
  float loss = 0.0f;
  bool captured = false;  // the step took a checkpoint snapshot
};

struct Phase {
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<StepRecord> steps;
  Counters before;
  Counters after;
  Samples save_s;
  std::vector<sh::obs::Span> spans;  // traced phase only
  bool aborted = false;
};

/// Runs train steps for `seconds` of wall time. Batches come from
/// `next_batch` and are generated outside the timed call.
Phase run_phase(TrainRig& rig, const std::function<Batch()>& next_batch,
                double seconds, bool traced, Result& res) {
  Phase ph;
  std::optional<TracedPhase> tracer;
  if (traced) tracer.emplace();
  ph.before = rig.counters();
  Counters last = ph.before;
  ph.t0 = now_s();
  const double deadline = ph.t0 + seconds;
  while (now_s() < deadline) {
    const Batch batch = next_batch();
    StepRecord rec;
    rec.t0 = now_s();
    try {
      rec.loss = rig.step(batch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "train_step failed: %s\n", e.what());
      res.op(false);
      ph.aborted = true;
      break;
    }
    rec.t1 = now_s();
    const Counters c = rig.counters();
    rec.captured = c.ckpt_snapshots > last.ckpt_snapshots;
    for (std::size_t i = last.saves_committed; i < c.saves_committed; ++i) {
      ph.save_s.add(rig.last_save_s());
    }
    last = c;
    res.op(std::isfinite(rec.loss));
    ph.steps.push_back(rec);
  }
  ph.t1 = now_s();
  if (traced) {
    rig.quiesce();
    ph.spans = tracer->snapshot();
  }
  ph.after = rig.counters();
  return ph;
}

double tokens_per_s(const Phase& ph, double tokens_per_step) {
  const double wall = ph.t1 - ph.t0;
  return wall > 0.0
             ? tokens_per_step * static_cast<double>(ph.steps.size()) / wall
             : 0.0;
}

double per_step(double total, const Phase& ph) {
  return ph.steps.empty() ? 0.0
                          : total / static_cast<double>(ph.steps.size());
}

void end_to_end(Result& res, const Phase& ph, double tokens_per_step,
                const Samples& setup_s, double gpu_peak_bytes) {
  Samples step_ms;
  for (const auto& s : ph.steps) step_ms.add((s.t1 - s.t0) * 1e3);
  res.metric("setup_s", setup_s.median());
  res.metric("tokens_per_s", tokens_per_s(ph, tokens_per_step));
  res.metric("latency_ms_p50", step_ms.median());
  res.metric("gpu_peak_mb", gpu_peak_bytes / kMB);
  res.metric("host_rss_peak_mb", host_rss_peak_mb());
  res.info.emplace_back("train_steps", step_ms.count());
  res.info.emplace_back("setups", setup_s.count());
}

/// Per-layer attribution from the traced phase. `plain` is the untraced
/// phase that precedes it: it gives the tracing overhead and, with the
/// traced phase, the step-time tail.
void per_layer(Result& res, const Phase& plain, const Phase& ph,
               double tokens_per_step, int world, std::size_t window,
               const sh::mem::ArenaStats& arena) {
  const double lo = ph.t0;
  const double hi = ph.t1;
  const double wall = hi - lo;
  const double w = static_cast<double>(world);
  const Counters& a = ph.before;
  const Counters& b = ph.after;
  const auto& sp = ph.spans;

  Samples step_ms;
  for (const Phase* p : {&plain, &ph}) {
    for (const auto& s : p->steps) step_ms.add((s.t1 - s.t0) * 1e3);
  }
  res.metric("train.step_ms_p90", step_ms.percentile(kTrainTail));

  const auto gpu = merged(spans_of(sp, "gpu"), lo, hi);
  const auto timed = sh::obs::to_sim_trace(spans_within(sp, lo, hi));

  res.metric("core.window_layers", static_cast<double>(window));
  res.metric("core.prefetch_stalls_per_step",
             per_step(static_cast<double>(b.prefetch_stalls -
                                          a.prefetch_stalls),
                      ph) / w);
  res.metric("core.stall_s_per_step",
             per_step(b.stall_seconds - a.stall_seconds, ph) / w);
  res.metric("core.gpu_busy_share", share(total_length(gpu), wall));

  res.metric("nn.forward_s_per_step",
             per_step(busy_seconds(sp, "gpu", lo, hi, "f"), ph) / w);
  res.metric("nn.backward_s_per_step",
             per_step(busy_seconds(sp, "gpu", lo, hi, "b"), ph) / w);

  res.metric("hw.h2d_bytes_per_step",
             per_step(static_cast<double>(b.h2d_bytes - a.h2d_bytes), ph) / w);
  res.metric("hw.d2h_bytes_per_step",
             per_step(static_cast<double>(b.d2h_bytes - a.d2h_bytes), ph) / w);
  res.metric("hw.h2d_busy_s_per_step",
             per_step(busy_seconds(sp, "h2d", lo, hi), ph) / w);
  res.metric("hw.d2h_busy_s_per_step",
             per_step(busy_seconds(sp, "d2h", lo, hi), ph) / w);
  res.metric("hw.h2d_overlap_share", timed.overlap_fraction("h2d", "gpu"));
  res.metric("hw.d2h_overlap_share", timed.overlap_fraction("d2h", "gpu"));

  // Optimizer tail: how far a step's last CPU update ends after the end of
  // its last backward layer. A step owns the updates that start before the
  // next step begins (updates are only issued during backward).
  const auto bwd = spans_of(sp, "gpu", "b");
  const auto upd = spans_of(sp, "cpu-opt");
  Samples tail_s;
  for (std::size_t k = 0; k < ph.steps.size(); ++k) {
    const double s0 = ph.steps[k].t0;
    const double s1 = ph.steps[k].t1;
    const double next =
        k + 1 < ph.steps.size() ? ph.steps[k + 1].t0 : ph.t1 + 1.0;
    double last_b = 0.0;
    for (const auto& iv : bwd) {
      if (iv.begin >= s0 && iv.end <= s1) last_b = std::max(last_b, iv.end);
    }
    double last_u = 0.0;
    for (const auto& iv : upd) {
      if (iv.begin >= s0 && iv.begin < next) last_u = std::max(last_u, iv.end);
    }
    if (last_b > 0.0) tail_s.add(std::max(0.0, last_u - last_b));
  }
  res.metric("optim.update_busy_s_per_step",
             per_step(busy_seconds(sp, "cpu-opt", lo, hi), ph) / w);
  res.metric("optim.update_tail_s_per_step",
             tail_s.count() ? tail_s.sum() / static_cast<double>(tail_s.count())
                            : 0.0);

  const double mp = static_cast<double>(b.moment_prefetches -
                                        a.moment_prefetches);
  const double md = static_cast<double>(b.moment_demand_reads -
                                        a.moment_demand_reads);
  res.metric("storage.moment_prefetch_hit_share", share(mp, mp + md));
  res.metric("storage.io_busy_s_per_step",
             per_step(busy_seconds(sp, "swap", lo, hi), ph) / w);
  res.metric("storage.act_spills_per_step",
             per_step(static_cast<double>(b.act_spills - a.act_spills), ph) /
                 w);
  res.metric("storage.retries",
             static_cast<double>(b.swap_retries - a.swap_retries));

  Samples capture_ms;
  Samples other_ms;
  for (const auto& s : ph.steps) {
    (s.captured ? capture_ms : other_ms).add((s.t1 - s.t0) * 1e3);
  }
  const std::size_t saves = b.saves_committed - a.saves_committed;
  res.metric("ckpt.save_s", ph.save_s.median());
  res.metric("ckpt.bytes_per_save",
             saves ? static_cast<double>(b.save_bytes - a.save_bytes) /
                         static_cast<double>(saves)
                   : 0.0);
  res.metric("ckpt.capture_step_extra_ms",
             capture_ms.count() && other_ms.count()
                 ? capture_ms.median() - other_ms.median()
                 : 0.0);

  if (world > 1) {
    res.metric("dist.floats_per_step",
               per_step(static_cast<double>(b.floats_communicated -
                                            a.floats_communicated),
                        ph));
    // Each rank computes on its own thread, so per-thread unions of the
    // `gpu` track give each rank's busy time.
    std::map<std::uint32_t, std::vector<Interval>> by_rank;
    for (const auto& s : sp) {
      if (s.track == "gpu") by_rank[s.tid].push_back({s.start_s, s.end_s});
    }
    double busy = 0.0;
    for (auto& [tid, ivs] : by_rank) busy += total_length(merged(ivs, lo, hi));
    res.metric("dist.rank_busy_share", share(busy, w * wall));
  }

  arena_peaks(res, arena);
  res.metric("mem.pressure_events",
             static_cast<double>(b.pressure_events - a.pressure_events));

  double loss = 0.0;
  const std::size_t n = std::min<std::size_t>(ph.steps.size(), 10);
  for (std::size_t i = ph.steps.size() - n; i < ph.steps.size(); ++i) {
    loss += ph.steps[i].loss;
  }
  res.metric("train.loss_final", n ? loss / static_cast<double>(n) : 0.0);

  const double plain_tps = tokens_per_s(plain, tokens_per_step);
  res.metric("obs.overhead_share",
             share(plain_tps - tokens_per_s(ph, tokens_per_step), plain_tps));
  res.info.emplace_back("traced_train_steps", ph.steps.size());
  res.info.emplace_back("train_steps", step_ms.count());
}

/// Runs the timed region: one untraced phase for the end-to-end metrics, or
/// an untraced half followed by a traced half for the per-layer ones.
std::pair<Phase, Phase> run_timed(TrainRig& rig,
                                  const std::function<Batch()>& next_batch,
                                  const Options& opt, Result& res) {
  if (!opt.trace) {
    return {run_phase(rig, next_batch, opt.seconds, false, res), Phase{}};
  }
  Phase plain = run_phase(rig, next_batch, opt.seconds / 2, false, res);
  if (plain.aborted) return {std::move(plain), Phase{}};
  Phase traced = run_phase(rig, next_batch, opt.seconds / 2, true, res);
  return {std::move(plain), std::move(traced)};
}

void check_losses(Result& res, const Phase& a, const Phase& b) {
  bool finite = !a.aborted && !b.aborted;
  for (const Phase* ph : {&a, &b}) {
    for (const auto& s : ph->steps) finite = finite && std::isfinite(s.loss);
  }
  res.check("finite_loss", finite);
}

bool bitwise_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// train_offload

sh::nn::GptConfig offload_model() {
  sh::nn::GptConfig mc;
  mc.vocab = 256;
  mc.max_seq = kSeq;
  mc.hidden = 128;
  mc.heads = 4;
  mc.layers = 12;
  mc.checkpoint_activations = true;
  return mc;
}
constexpr std::int64_t kOffloadBatch = 4;
/// Link throttle (bytes/s). At this rate one block's BF16 parameters take
/// ~13 ms to cross, about five times its forward compute, so prefetches
/// stall and transfers, not kernels, set the step time.
constexpr double kOffloadLinkBytesPerS = 3e7;
/// Working window. The auto-selected window depends on the compute times
/// profiled in the two warm-up steps; on a shared host it flips between 4
/// and 6 from run to run, and with it the bytes moved per step, so the
/// window is fixed at the size auto-selection picks on a quiet host.
constexpr std::size_t kOffloadWindow = 4;
/// Checkpoint cadence. Each save writes and fsyncs ~29 MB; at 1 in 20 steps
/// the capturing steps stay below the p90 of step time and the run writes
/// ~180 MB, little enough that disk write-back does not slow the runs that
/// follow.
constexpr std::size_t kCkptEvery = 20;

sh::core::EngineConfig offload_config(const sh::nn::GptModel& model,
                                      const std::string& dir,
                                      const std::string& tag) {
  sh::core::EngineConfig cfg;
  cfg.window = kOffloadWindow;
  cfg.window_dtype = sh::tensor::DType::bf16;
  cfg.optimizer_tier = sh::core::OptimizerTier::nvme;
  cfg.swap_path = dir + "/" + tag + ".swap";
  cfg.h2d_bytes_per_s = kOffloadLinkBytesPerS;
  cfg.d2h_bytes_per_s = kOffloadLinkBytesPerS;
  // Room for the master state of about two thirds of the blocks; the rest
  // are swap-backed and faulted in ahead of their prefetch.
  std::size_t block_params = 0;
  for (std::size_t i = 1; i + 1 < model.num_layers(); ++i) {
    block_params = std::max<std::size_t>(
        block_params, static_cast<std::size_t>(model.layer(i).param_count()));
  }
  cfg.cpu_capacity_bytes = 18 * block_params * sizeof(float);
  cfg.ckpt.dir = dir + "/ckpt";
  cfg.ckpt.every_n_steps = kCkptEvery;
  cfg.ckpt.keep = 2;
  return cfg;
}

/// Members are destroyed engine first: the engine refers to the model.
struct OffloadSetup {
  explicit OffloadSetup(const Options& opt)
      : model(offload_model()),
        engine(model, offload_config(model, opt.workdir, "live")),
        corpus(make_corpus(opt)) {}

  sh::nn::GptModel model;
  sh::core::StrongholdEngine engine;
  sh::data::SyntheticCorpus corpus;
  std::vector<Batch> batches;  // every batch trained on, in order

  const Batch& next_batch() {
    batches.push_back(corpus.next_batch(kOffloadBatch, kSeq));
    return batches.back();
  }
};

std::unique_ptr<OffloadSetup> make_offload(const Options& opt) {
  auto s = std::make_unique<OffloadSetup>(opt);
  s->engine.init_params(opt.seed);
  for (int i = 0; i < kWarmupSteps; ++i) s->engine.train_step(s->next_batch());
  return s;
}

}  // namespace

Result run_train_offload(const Options& opt) {
  Result res;
  Samples setup_s;
  std::unique_ptr<OffloadSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous set-up down and clear its swap file and
    // checkpoints before timing, so only construction is timed.
    s.reset();
    std::filesystem::remove_all(opt.workdir);
    std::filesystem::create_directories(opt.workdir);
    const double t0 = now_s();
    s = make_offload(opt);
    setup_s.add(now_s() - t0);
  }
  auto& engine = s->engine;
  auto* ck = engine.checkpointer();

  TrainRig rig;
  rig.step = [&](const Batch& b) { return engine.train_step(b); };
  rig.counters = [&] {
    Counters c;
    c.add(engine.stats());
    const auto cs = ck->stats();
    c.saves_committed = cs.saves_committed;
    c.saves_failed = cs.saves_failed;
    c.save_bytes = cs.bytes_written;
    return c;
  };
  rig.quiesce = [&] {
    std::vector<float> tmp;
    engine.snapshot_params(tmp);
  };
  rig.last_save_s = [&] { return ck->stats().last_save_seconds; };
  const auto next_batch = [&] { return s->next_batch(); };

  const Counters start = rig.counters();
  auto [plain, traced] = run_timed(rig, next_batch, opt, res);
  const double tokens_per_step = static_cast<double>(kOffloadBatch * kSeq);

  // Every checkpoint commit issued in the timed region is an op.
  ck->finish();
  const Counters end = rig.counters();
  for (std::size_t i = start.saves_committed; i < end.saves_committed; ++i) {
    res.op(true);
  }
  for (std::size_t i = start.saves_failed; i < end.saves_failed; ++i) {
    res.op(false);
  }

  if (opt.trace) {
    per_layer(res, plain, traced, tokens_per_step, 1, engine.window(),
              engine.stats().arena);
  } else {
    end_to_end(res, plain, tokens_per_step, setup_s,
               static_cast<double>(engine.device_arena().peak_bytes()));
  }

  // Correctness, outside the timed region.
  check_losses(res, plain, traced);
  bool resumed = false;
  try {
    std::vector<float> live;
    engine.snapshot_params(live);
    const std::size_t horizon = engine.stats().iterations;
    sh::nn::GptModel model(offload_model());
    auto cfg = offload_config(model, opt.workdir, "resume");
    cfg.ckpt.every_n_steps = 0;
    sh::core::StrongholdEngine fresh(model, cfg);
    fresh.init_params(opt.seed);
    if (fresh.resume_from_latest()) {
      for (std::size_t i = fresh.stats().iterations; i < horizon; ++i) {
        fresh.train_step(s->batches.at(i));
      }
      std::vector<float> replayed;
      fresh.snapshot_params(replayed);
      resumed = bitwise_equal(live, replayed);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resume check failed: %s\n", e.what());
  }
  res.check("resume_replay_bitwise", resumed);
  return res;
}

// ---------------------------------------------------------------------------
// train_dp

namespace {

sh::nn::GptConfig dp_model() {
  sh::nn::GptConfig mc;
  mc.vocab = 256;
  mc.max_seq = kSeq;
  mc.hidden = 128;
  mc.heads = 4;
  mc.layers = 8;
  return mc;
}
constexpr std::int64_t kDpBatch = 8;  // global; split evenly across ranks

struct DpSetup {
  std::unique_ptr<sh::dist::DataParallelTrainer> trainer;
  std::unique_ptr<sh::data::SyntheticCorpus> corpus;
};

DpSetup make_dp(const Options& opt) {
  sh::core::EngineConfig cfg;
  cfg.window = 2;
  cfg.optimizer_workers = 1;
  DpSetup s;
  s.trainer = std::make_unique<sh::dist::DataParallelTrainer>(dp_model(), cfg,
                                                               kDpWorld);
  s.trainer->init_params(opt.seed);
  s.corpus = std::make_unique<sh::data::SyntheticCorpus>(make_corpus(opt));
  for (int i = 0; i < kWarmupSteps; ++i) {
    s.trainer->train_step(s.corpus->next_batch(kDpBatch, kSeq));
  }
  return s;
}

}  // namespace

Result run_train_dp(const Options& opt) {
  Result res;
  Samples setup_s;
  DpSetup s;
  for (int i = 0; i < kSetups; ++i) {
    s = DpSetup{};  // tear the previous set-up down first
    const double t0 = now_s();
    s = make_dp(opt);
    setup_s.add(now_s() - t0);
  }
  auto& trainer = *s.trainer;

  TrainRig rig;
  rig.step = [&](const Batch& b) { return trainer.train_step(b); };
  rig.counters = [&] {
    Counters c;
    for (int r = 0; r < trainer.world(); ++r) c.add(trainer.stats(r));
    c.floats_communicated = trainer.floats_communicated();
    return c;
  };
  rig.quiesce = [&] {
    std::vector<float> tmp;
    for (int r = 0; r < trainer.world(); ++r) trainer.snapshot_params(r, tmp);
  };
  const auto next_batch = [&] { return s.corpus->next_batch(kDpBatch, kSeq); };

  auto [plain, traced] = run_timed(rig, next_batch, opt, res);
  const double tokens_per_step = static_cast<double>(kDpBatch * kSeq);
  if (opt.trace) {
    const EngineStats st = trainer.stats(0);
    per_layer(res, plain, traced, tokens_per_step, kDpWorld, st.window,
              st.arena);
  } else {
    end_to_end(res, plain, tokens_per_step, setup_s,
               static_cast<double>(trainer.stats(0).gpu_high_water_bytes));
  }

  check_losses(res, plain, traced);
  std::vector<float> p0;
  std::vector<float> p1;
  trainer.snapshot_params(0, p0);
  trainer.snapshot_params(1, p1);
  res.check("ranks_bitwise_identical", bitwise_equal(p0, p1));
  return res;
}

}  // namespace perfbench
