#pragma once
// Shared fixture for the kill-and-resume chaos tests. The victim binary
// (ckpt_chaos_child, SIGKILLed by the parent) and test_ckpt's in-process
// reference run must build their engines from IDENTICAL model/engine
// configs, or the resumed trajectory cannot replay the reference bit for
// bit. Keeping both sides in one header makes drift a compile-time
// impossibility rather than a flaky-test mystery.
#include <chrono>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "nn/gpt.hpp"

namespace sh::testing::ckpt_chaos {

// Eight blocks: the window of 2 reserves 4 slots, so half the model streams
// every step and a resume must restore state the window does not hold.
inline nn::GptConfig tiny_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 8;
  return cfg;
}

inline core::EngineConfig chaos_config(const std::string& dir,
                                       double ckpt_bytes_per_second) {
  core::EngineConfig cfg;
  cfg.window = 2;
  cfg.ckpt.dir = dir;
  cfg.ckpt.every_n_steps = 2;
  cfg.ckpt.keep = 2;
  cfg.ckpt.bytes_per_second = ckpt_bytes_per_second;
  return cfg;
}

/// The victim's training loop: checkpoints periodically and trains
/// "forever" — the parent SIGKILLs at an arbitrary instant, including
/// mid-checkpoint-write when the tier is throttled.
inline void train_until_killed(const std::string& dir, double throttle) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg = chaos_config(dir, throttle);
  data::SyntheticCorpus corpus(mcfg.vocab, 9);
  ecfg.ckpt_extra_save = [&corpus](ckpt::Blobs& b) {
    b.put("data.cursor", corpus.save_state());
  };
  nn::GptModel model(mcfg);
  core::StrongholdEngine engine(model, std::move(ecfg));
  engine.init_params(42);
  for (;;) {
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
    // Pace the loop so the parent's SIGKILL lands well inside the reference
    // horizon; numerically a pure no-op.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
}

}  // namespace sh::testing::ckpt_chaos
