// Streaming witness for the offload test suites. The engine keeps R blocks
// resident across each FP/BP turnaround (every slot it reserves), so a model
// whose blocks all fit in those slots stops moving layers after its first
// step, and an offload-vs-reference comparison on it would compare nothing
// that was offloaded. Suites check that later steps still fetch layers.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic.hpp"

namespace sh::testing {

/// Fails the test unless the engine whose stats are `now` fetched a layer
/// after `after_first_step` (its h2d_transfers right after the first step).
inline void expect_streams(const core::EngineStats& now,
                           std::size_t after_first_step) {
  EXPECT_GT(now.h2d_transfers, after_first_step)
      << "no layer was fetched after the first step: every block fits in the "
         "reserved slots, so this offload test streams nothing";
}

/// Trains `batches` through `engine` and returns the losses; with two or
/// more batches, also checks that the steps after the first streamed.
inline std::vector<float> train_streaming(
    core::StrongholdEngine& engine, const std::vector<data::Batch>& batches) {
  std::vector<float> losses;
  std::size_t after_first = 0;
  for (const auto& b : batches) {
    losses.push_back(engine.train_step(b));
    if (losses.size() == 1) after_first = engine.stats().h2d_transfers;
  }
  if (batches.size() > 1) expect_streams(engine.stats(), after_first);
  return losses;
}

}  // namespace sh::testing
