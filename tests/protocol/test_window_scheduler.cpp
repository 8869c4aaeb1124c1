// WindowScheduler: the batch planner and its in-flight bounds.
//
// The serial-vs-batched transcript-parity rows prove the end-to-end
// equivalence claim; this suite covers the planner itself: consecutive
// grouping, the windows_in_flight = 1 degeneration to the serial loop,
// and the bounds.  pem::ParallelFor, the compute fan-out, has its own
// suite (tests/util/test_parallel.cpp).
#include <gtest/gtest.h>

#include <vector>

#include "protocol/window_scheduler.h"

namespace pem::protocol {
namespace {

TEST(WindowScheduler, PlanBatchesGroupsConsecutively) {
  const std::vector<int> sampled = {0, 2, 4, 6, 8, 10, 12, 14};
  const auto batches = WindowScheduler::PlanBatches(sampled, 3);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(batches[1], (std::vector<int>{6, 8, 10}));
  EXPECT_EQ(batches[2], (std::vector<int>{12, 14}));
}

TEST(WindowScheduler, PlanBatchesDegenerateWidthOneIsTodaysLoop) {
  // windows_in_flight = 1: one window per batch, in order — exactly
  // the serial loop's schedule.
  const std::vector<int> sampled = {3, 5, 9};
  const auto batches = WindowScheduler::PlanBatches(sampled, 1);
  ASSERT_EQ(batches.size(), 3u);
  for (size_t i = 0; i < sampled.size(); ++i) {
    EXPECT_EQ(batches[i], std::vector<int>{sampled[i]});
  }
}

TEST(WindowScheduler, PlanBatchesEdges) {
  EXPECT_TRUE(WindowScheduler::PlanBatches({}, 4).empty());
  const std::vector<int> sampled = {1, 2};
  // Width beyond the sample count: one batch, order preserved.
  const auto batches = WindowScheduler::PlanBatches(sampled, 16);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], sampled);
}

TEST(WindowSchedulerDeath, InFlightBoundsEnforced) {
  EXPECT_DEATH((WindowScheduler({0, 2})), "windows_in_flight");
  EXPECT_DEATH((void)WindowScheduler::PlanBatches({{1}}, 0),
               "windows_in_flight");
}

}  // namespace
}  // namespace pem::protocol
