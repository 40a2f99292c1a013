// The fault-plan registry (core/fault.h): per-site determinism, stream
// independence, counters, and — the reason the subsystem exists —
// PlanScope restoring the COMPLETE previous state, including stream
// positions, so nested scopes are invisible to the enclosing plan.
#include <gtest/gtest.h>

#include <vector>

#include "core/fault.h"

namespace sbd::fault {
namespace {

std::vector<bool> draw(Site s, int n) {
  std::vector<bool> out;
  for (int i = 0; i < n; i++) out.push_back(should_fire(s));
  return out;
}

TEST(FaultPlan, DeterministicPerSeed) {
  set_plan(single_site(Site::kLockCas, 0.5, 99));
  const auto a = draw(Site::kLockCas, 64);
  set_plan(single_site(Site::kLockCas, 0.5, 99));
  const auto b = draw(Site::kLockCas, 64);
  EXPECT_EQ(a, b);
  set_plan(single_site(Site::kLockCas, 0.5, 100));
  EXPECT_NE(draw(Site::kLockCas, 64), a) << "a different seed must give a different stream";
  clear_plan();
}

TEST(FaultPlan, SitesDrawIndependentStreams) {
  // Draws at one site must not advance another site's stream.
  FaultPlan p;
  p.seed = 7;
  p.with(Site::kFileError, 0.5).with(Site::kDbCommit, 0.5);
  set_plan(p);
  const auto clean = draw(Site::kFileError, 32);
  set_plan(p);
  draw(Site::kDbCommit, 17);  // interleaved traffic at another site
  EXPECT_EQ(draw(Site::kFileError, 32), clean);
  clear_plan();
}

TEST(FaultPlan, RateZeroAndRateOne) {
  set_plan(single_site(Site::kGcSafepoint, 1.0, 3));
  for (int i = 0; i < 100; i++) EXPECT_TRUE(should_fire(Site::kGcSafepoint));
  // A disabled site never fires and never counts.
  EXPECT_FALSE(should_fire(Site::kLockCas));
  EXPECT_EQ(evaluated(Site::kLockCas), 0u);
  clear_plan();
  for (int i = 0; i < 100; i++) EXPECT_FALSE(should_fire(Site::kGcSafepoint));
}

TEST(FaultPlan, CountersTrackFiredAndEvaluated) {
  set_plan(single_site(Site::kQueueEnqueue, 0.5, 11));
  uint64_t hits = 0;
  for (int i = 0; i < 200; i++)
    if (should_fire(Site::kQueueEnqueue)) hits++;
  EXPECT_EQ(evaluated(Site::kQueueEnqueue), 200u);
  EXPECT_EQ(fired(Site::kQueueEnqueue), hits);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 200u);
  clear_plan();
}

TEST(FaultPlan, DelaySitesReturnPlanDelay) {
  FaultPlan p = single_site(Site::kQueueWakeup, 1.0, 5);
  p.delayNanos = 1234;
  set_plan(p);
  EXPECT_EQ(fire_delay_nanos(Site::kQueueWakeup), 1234u);
  EXPECT_EQ(fire_delay_nanos(Site::kQueueEnqueue), 0u);  // disabled site
  clear_plan();
}

TEST(FaultPlan, PlanScopeRestoresStreamPosition) {
  // Reference: 20 uninterrupted draws.
  set_plan(single_site(Site::kSocketReset, 0.5, 21));
  const auto whole = draw(Site::kSocketReset, 20);
  // Same plan, but a nested scope runs in the middle. The outer stream
  // must resume exactly where it left off (stream position, not just
  // the seed, is part of the restored state).
  set_plan(single_site(Site::kSocketReset, 0.5, 21));
  auto firstHalf = draw(Site::kSocketReset, 10);
  {
    PlanScope inner(single_site(Site::kSocketReset, 0.9, 77));
    draw(Site::kSocketReset, 13);
    EXPECT_EQ(evaluated(Site::kSocketReset), 13u) << "inner scope counts from zero";
  }
  auto secondHalf = draw(Site::kSocketReset, 10);
  firstHalf.insert(firstHalf.end(), secondHalf.begin(), secondHalf.end());
  EXPECT_EQ(firstHalf, whole);
  clear_plan();
}

TEST(FaultPlan, PlanScopeRestoresCounters) {
  set_plan(single_site(Site::kDbLockTimeout, 1.0, 2));
  draw(Site::kDbLockTimeout, 5);
  {
    PlanScope inner(single_site(Site::kDbLockTimeout, 1.0, 3));
    draw(Site::kDbLockTimeout, 50);
  }
  EXPECT_EQ(evaluated(Site::kDbLockTimeout), 5u);
  EXPECT_EQ(fired(Site::kDbLockTimeout), 5u);
  clear_plan();
}

TEST(FaultPlan, SplitAbortScopeRestoresEnclosingInjection) {
  // The bug the registry replaces: the old abort-injection scope's
  // destructor force-disabled injection instead of restoring the
  // enclosing configuration.
  set_plan(single_site(Site::kSplitAbort, 0.5, 7));
  const std::vector<bool> whole = draw(Site::kSplitAbort, 20);
  set_plan(single_site(Site::kSplitAbort, 0.5, 7));
  std::vector<bool> spliced = draw(Site::kSplitAbort, 10);
  {
    PlanScope scope(single_site(Site::kSplitAbort, 0.9, 1234));
    draw(Site::kSplitAbort, 7);
  }
  for (bool b : draw(Site::kSplitAbort, 10)) spliced.push_back(b);
  EXPECT_EQ(spliced, whole);
  clear_plan();
}

}  // namespace
}  // namespace sbd::fault
