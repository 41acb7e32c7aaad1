// serve_open: an open loop replaying serve::generate_workload arrivals
// against the wall clock through one Scheduler.
//
// The engine streams every block's weights through a two-layer window over
// a throttled link on each scheduler step, the paper's offloaded-inference
// regime: one weight stream per step serves the whole batch, so a step costs
// about the same at any batch size and the link, not the kernels, sets it.
// Arrivals are Poisson, lengths are heavy-tailed, about half of the requests
// start with a shared system prompt, and decoding is greedy. Each request is
// timed from its due time, not from when the loop got round to submitting
// it, so a slow step() shows up as latency on later requests.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "nn/gpt.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace perfbench {
namespace {

sh::nn::GptConfig serve_model() {
  sh::nn::GptConfig mc;
  mc.vocab = 64;
  mc.max_seq = 64;
  mc.hidden = 64;
  mc.heads = 4;
  mc.layers = 4;
  return mc;
}

/// Offered load in requests per second. At this rate about seven requests
/// are in flight, half of the batch limit, so admission rarely queues.
constexpr double kRate = 40.0;
constexpr std::size_t kMaxBatch = 16;
/// Host-to-device link (bytes/s): streaming the four blocks takes ~20 ms per
/// step, several times the step's compute even at a full batch, so the
/// step time does not follow the host's CPU speed from run to run.
constexpr double kLinkBytesPerS = 4e7;
/// Wall-clock latency limits of the two deadline tiers, in seconds.
constexpr double kInteractiveLimit = 0.3;
constexpr double kBatchLimit = 1.5;
/// KV budget: room for the batch limit of typical requests, so bursts of
/// long ones can preempt.
constexpr std::size_t kKvBudgetBytes = std::size_t{2} << 20;
constexpr std::size_t kSolveSamples = 8;
constexpr std::uint64_t kWarmupSeed = 0x5eed;

sh::serve::WorkloadSpec traffic(std::uint64_t seed, std::size_t requests) {
  sh::serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.requests = requests;
  spec.arrival_rate = kRate;
  spec.vocab = serve_model().vocab;
  spec.prompt_min = 2;
  spec.prompt_max = 16;
  spec.output_min = 4;
  spec.output_max = 32;
  spec.tiers = {{"interactive", kInteractiveLimit}, {"batch", kBatchLimit}};
  spec.tier_weights = {3.0, 1.0};
  spec.shared_prefix = {3, 1, 4, 1, 5, 9, 2, 6};
  spec.prefix_share = 0.5;
  spec.temperature = 0.0f;  // greedy, so solo decoding is the oracle
  return spec;
}

sh::serve::SchedulerConfig scheduler_config() {
  sh::serve::SchedulerConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.arena.chunk_tokens = 8;
  cfg.arena.budget_bytes = kKvBudgetBytes;
  return cfg;
}

sh::serve::Request to_request(const sh::serve::WorkloadItem& item) {
  sh::serve::Request r;
  r.prompt = item.prompt;
  r.max_new_tokens = item.max_new_tokens;
  r.sampling = item.sampling;
  r.tier = item.tier;
  return r;
}

/// Members are destroyed scheduler first, then engine, then model.
struct ServeSetup {
  ServeSetup()
      : model(serve_model()), engine(model, engine_config()) {}

  static sh::core::EngineConfig engine_config() {
    sh::core::EngineConfig cfg;
    cfg.window = 2;
    cfg.h2d_bytes_per_s = kLinkBytesPerS;
    return cfg;
  }

  sh::nn::GptModel model;
  sh::core::StrongholdEngine engine;
  std::unique_ptr<sh::serve::Scheduler> sched;
};

std::unique_ptr<ServeSetup> make_serve(const Options& opt,
                                       const sh::serve::Workload& wl) {
  auto s = std::make_unique<ServeSetup>();
  s->engine.init_params(opt.seed);
  s->sched =
      std::make_unique<sh::serve::Scheduler>(s->engine, scheduler_config());
  s->sched->register_prefix(wl.shared_prefix);
  // Warm-up: a closed batch of requests, the same on every run so that
  // set-up time does not depend on the seed.
  const auto warm = sh::serve::generate_workload(traffic(kWarmupSeed, 16));
  for (const auto& item : warm.items) s->sched->submit(to_request(item));
  s->sched->run_to_completion();
  return s;
}

struct Req {
  std::size_t item = 0;
  std::uint64_t id = 0;
  double due = 0.0;
  double submit = 0.0;
  double finish = 0.0;
  std::size_t generated = 0;
  bool done = false;
  bool rejected = false;
};

struct StepRec {
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Counters read at the start of the traced half.
struct ServeCounters {
  sh::serve::SchedulerStats sched;
  sh::serve::ServeEngineStats exec;
  std::size_t h2d_bytes = 0;
  std::size_t pressure_events = 0;

  static ServeCounters read(sh::serve::Scheduler& s,
                            const sh::core::StrongholdEngine& e) {
    const auto st = e.stats();
    return {s.stats(), s.serve_engine().stats(), st.h2d_bytes,
            st.arena.pressure_events};
  }
};

}  // namespace

Result run_serve_open(const Options& opt) {
  Result res;
  // Exactly rate x seconds requests per run: Poisson arrivals conditioned on
  // their count, by scaling the arrivals so that the one after the last
  // would fall at the end of the window. The offered volume then does not
  // vary with the seed.
  const auto offered_total =
      static_cast<std::size_t>(std::lround(kRate * opt.seconds));
  sh::serve::Workload wl =
      sh::serve::generate_workload(traffic(opt.seed, offered_total + 1));
  const double scale = opt.seconds / wl.items.back().arrival_s;
  wl.items.pop_back();
  for (auto& item : wl.items) item.arrival_s *= scale;

  Samples setup_s;
  std::unique_ptr<ServeSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();  // tear the previous set-up down first
    const double t0 = now_s();
    s = make_serve(opt, wl);
    setup_s.add(now_s() - t0);
  }
  auto& sched = *s->sched;
  auto& engine = s->engine;

  std::vector<Req> reqs;
  reqs.reserve(wl.items.size());
  std::vector<std::size_t> inflight;  // indices into reqs
  std::vector<StepRec> steps;
  std::optional<TracedPhase> tracer;
  std::optional<ServeCounters> traced_from;

  const double start = now_s();
  const double end = start + opt.seconds;
  const double split = opt.trace ? start + opt.seconds / 2 : end;
  std::size_t next = 0;

  const auto run_step = [&] {
    StepRec rec;
    rec.t0 = now_s();
    sched.step();
    rec.t1 = now_s();
    steps.push_back(rec);
    std::erase_if(inflight, [&](std::size_t i) {
      Req& r = reqs[i];
      if (!sched.finished(r.id)) return false;
      r.done = true;
      r.finish = rec.t1;
      r.generated = sched.result(r.id).size() - wl.items[r.item].prompt.size();
      return true;
    });
  };

  const auto submit_due = [&](double now) {
    while (next < wl.items.size() &&
           start + wl.items[next].arrival_s <= now) {
      const auto& item = wl.items[next];
      Req r;
      r.item = next++;
      r.due = start + item.arrival_s;
      r.submit = now_s();
      try {
        r.id = sched.submit(to_request(item));
        inflight.push_back(reqs.size());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "submit rejected: %s\n", e.what());
        r.rejected = true;
      }
      reqs.push_back(r);
    }
  };

  for (double now = now_s(); now < end; now = now_s()) {
    if (opt.trace && !tracer && now >= split) {
      traced_from = ServeCounters::read(sched, engine);
      tracer.emplace();
    }
    submit_due(now);
    if (!inflight.empty()) {
      run_step();
    } else {
      const double wake =
          next < wl.items.size()
              ? std::min(end, start + wl.items[next].arrival_s)
              : end;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.0, wake - now_s())));
    }
  }
  if (opt.trace && !tracer) {
    traced_from = ServeCounters::read(sched, engine);
    tracer.emplace();
  }
  // Every arrival falls inside the window; submit the ones a long last step
  // left behind, then drain.
  submit_due(end);
  while (!inflight.empty()) run_step();
  const double drained = now_s();

  std::vector<sh::obs::Span> spans;
  if (tracer) spans = tracer->snapshot();
  tracer.reset();

  // A request belongs to the phase its due time falls in; so does a step.
  const double lo = opt.trace ? split : start;
  const auto in_phase = [&](double t) { return t >= lo; };

  Samples latency_ms;
  Samples all_latency_ms;  // both halves of a traced run
  Samples prefix_ms;
  Samples noprefix_ms;
  Samples late_ms;
  std::size_t offered = 0;
  std::size_t met = 0;
  std::size_t prefix_reqs = 0;
  std::size_t prompt_tokens = 0;
  std::size_t generated = 0;
  for (const Req& r : reqs) {
    const auto& item = wl.items[r.item];
    res.op(!r.rejected && r.done);
    if (r.done) all_latency_ms.add((r.finish - r.due) * 1e3);
    if (!in_phase(r.due)) continue;
    ++offered;
    late_ms.add((r.submit - r.due) * 1e3);
    prompt_tokens += item.prompt.size();
    if (item.shares_prefix) ++prefix_reqs;
    if (r.rejected || !r.done) continue;
    const double ms = (r.finish - r.due) * 1e3;
    latency_ms.add(ms);
    (item.shares_prefix ? prefix_ms : noprefix_ms).add(ms);
    if (ms <= 1e3 * wl.tiers[item.tier].deadline_s) ++met;
    generated += r.generated;
  }
  Samples step_ms;
  double step_s = 0.0;
  // Steps are link-bound, so their time barely depends on how many
  // sequences they carry, and the two halves' median step times compare
  // tracing cost rather than the halves' different load. The drain, where
  // occupancy falls towards 0, is left out of both.
  Samples plain_step_ms;
  Samples traced_step_ms;
  for (const StepRec& st : steps) {
    const double ms = (st.t1 - st.t0) * 1e3;
    if (st.t0 < end) (st.t0 < split ? plain_step_ms : traced_step_ms).add(ms);
    if (!in_phase(st.t0)) continue;
    step_ms.add(ms);
    step_s += st.t1 - st.t0;
  }
  const double tokens_per_s = share(static_cast<double>(generated), step_s);

  if (!opt.trace) {
    res.metric("setup_s", setup_s.median());
    res.metric("tokens_per_s", tokens_per_s);
    res.metric("latency_ms_p50", latency_ms.median());
    res.metric("gpu_peak_mb",
               static_cast<double>(engine.device_arena().peak_bytes()) / kMB);
    res.metric("host_rss_peak_mb", host_rss_peak_mb());
    res.info.emplace_back("requests", latency_ms.count());
    res.info.emplace_back("setups", setup_s.count());
  } else {
    const ServeCounters a = *traced_from;
    const ServeCounters b = ServeCounters::read(sched, engine);
    const double wall = drained - split;
    const double nsteps = static_cast<double>(b.exec.steps - a.exec.steps);
    const auto per_step = [&](double v) { return share(v, nsteps); };
    const auto compute = merged(spans_of(spans, "serve"), split, drained);
    const auto timed =
        sh::obs::to_sim_trace(spans_within(spans, split, drained));

    res.metric("core.window_layers", static_cast<double>(engine.window()));
    res.metric("core.gpu_busy_share", share(total_length(compute), wall));
    res.metric("serve.step_ms_p50", step_ms.median());
    res.metric("serve.request_ms_p99", all_latency_ms.percentile(kServeTail));
    res.metric("hw.h2d_bytes_per_step",
               per_step(static_cast<double>(b.h2d_bytes - a.h2d_bytes)));
    res.metric("hw.h2d_busy_s_per_step",
               per_step(busy_seconds(spans, "h2d", split, drained)));
    res.metric("hw.h2d_overlap_share", timed.overlap_fraction("h2d", "serve"));
    arena_peaks(res, engine.stats().arena);
    res.metric("mem.pressure_events",
               static_cast<double>(b.pressure_events - a.pressure_events));

    res.metric("serve.batch_occupancy",
               per_step(static_cast<double>(b.exec.sequence_steps -
                                            a.exec.sequence_steps)) /
                   static_cast<double>(kMaxBatch));
    const double fed = static_cast<double>(b.sched.prompt_tokens_fed -
                                           a.sched.prompt_tokens_fed);
    res.metric("serve.prefix_saved_share",
               prompt_tokens ? 1.0 - share(fed, prompt_tokens) : 0.0);
    res.metric("serve.prefix_request_share", share(prefix_reqs, offered));
    res.metric("serve.request_ms_p50.prefix", prefix_ms.median());
    res.metric("serve.request_ms_p50.noprefix", noprefix_ms.median());
    res.metric("serve.preemptions",
               static_cast<double>(b.sched.preemptions - a.sched.preemptions));
    res.metric("serve.kv_peak_mb",
               static_cast<double>(sched.arena_stats().peak_bytes) / kMB);
    res.metric("serve.gen_late_ms_p99", late_ms.percentile(0.99));
    res.metric("serve.goodput", share(met, offered));
    res.metric("obs.overhead_share",
               share(traced_step_ms.median() - plain_step_ms.median(),
                     traced_step_ms.median()));
    res.info.emplace_back("traced_requests", latency_ms.count());
    res.info.emplace_back("requests", all_latency_ms.count());
  }

  // Correctness: a sample of finished requests, half with the shared
  // prefix, must equal solo incremental decoding token for token.
  bool equal = true;
  std::size_t with_prefix = 0;
  std::size_t without = 0;
  std::size_t sampled = 0;
  const std::size_t stride = std::max<std::size_t>(1, reqs.size() / 64);
  for (std::size_t i = 0; i < reqs.size(); i += stride) {
    const Req& r = reqs[i];
    if (!r.done) continue;
    const auto& item = wl.items[r.item];
    std::size_t& n = item.shares_prefix ? with_prefix : without;
    if (n >= kSolveSamples / 2) continue;
    ++n;
    ++sampled;
    const auto solo =
        engine.generate_incremental(item.prompt, item.max_new_tokens);
    equal = equal && solo == sched.result(r.id);
  }
  res.check("solo_decode_equal", equal && sampled == kSolveSamples);
  res.info.emplace_back("solo_decode_samples", sampled);
  return res;
}

}  // namespace perfbench
