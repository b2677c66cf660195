// Stage-tracing tests: RAII span lifetimes, parent/child path nesting, and
// per-span statistics landing in the registry (count, total seconds, and
// the per-span-name latency histogram).

#include "felip/obs/trace.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "felip/obs/metrics.h"

namespace felip::obs {
namespace {

#ifdef FELIP_OBS_NOOP

TEST(NoopBuildTest, ScopedTimerIsInert) {
  ScopedTimer span("stage");
  EXPECT_EQ(ScopedTimer::CurrentPath(), "");
}

#else

TEST(ScopedTimerTest, RecordsSpanOnDestruction) {
  Registry registry;
  {
    ScopedTimer span("stage", registry);
    EXPECT_EQ(span.path(), "stage");
  }
  const SpanStats stats = registry.SpanStatsFor("stage");
  EXPECT_EQ(stats.count, 1u);
  EXPECT_GE(stats.total_seconds, 0.0);
  // Every span also feeds a <name>_seconds histogram.
  EXPECT_EQ(registry.HistogramCount("stage_seconds"), 1u);
}

TEST(ScopedTimerTest, NestedSpansBuildParentChildPaths) {
  Registry registry;
  {
    ScopedTimer outer("collect", registry);
    EXPECT_EQ(ScopedTimer::CurrentPath(), "collect");
    {
      ScopedTimer inner("flush", registry);
      EXPECT_EQ(inner.path(), "collect/flush");
      EXPECT_EQ(ScopedTimer::CurrentPath(), "collect/flush");
      {
        ScopedTimer leaf("aggregate", registry);
        EXPECT_EQ(leaf.path(), "collect/flush/aggregate");
      }
    }
    EXPECT_EQ(ScopedTimer::CurrentPath(), "collect");
  }
  EXPECT_EQ(ScopedTimer::CurrentPath(), "");

  EXPECT_EQ(registry.SpanStatsFor("collect").count, 1u);
  EXPECT_EQ(registry.SpanStatsFor("collect/flush").count, 1u);
  EXPECT_EQ(registry.SpanStatsFor("collect/flush/aggregate").count, 1u);
  const std::vector<std::string> paths = registry.SpanPaths();
  EXPECT_EQ(paths.size(), 3u);
}

TEST(ScopedTimerTest, SiblingSpansShareParentPrefix) {
  Registry registry;
  {
    ScopedTimer outer("finalize", registry);
    { ScopedTimer a("estimate", registry); }
    { ScopedTimer b("post_process", registry); }
  }
  EXPECT_EQ(registry.SpanStatsFor("finalize/estimate").count, 1u);
  EXPECT_EQ(registry.SpanStatsFor("finalize/post_process").count, 1u);
}

TEST(ScopedTimerTest, RepeatedSpansAccumulate) {
  Registry registry;
  for (int i = 0; i < 5; ++i) {
    ScopedTimer span("loop", registry);
  }
  EXPECT_EQ(registry.SpanStatsFor("loop").count, 5u);
  EXPECT_EQ(registry.HistogramCount("loop_seconds"), 5u);
}

TEST(ScopedTimerTest, SpanStacksAreThreadLocal) {
  // Concurrent spans on different threads must not interleave their paths:
  // each thread sees only its own stack.
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        ScopedTimer outer("worker", registry);
        ScopedTimer inner("step", registry);
        if (ScopedTimer::CurrentPath() != "worker/step") {
          ADD_FAILURE() << "cross-thread span leakage: "
                        << ScopedTimer::CurrentPath();
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.SpanStatsFor("worker").count,
            static_cast<uint64_t>(kThreads) * 200);
  EXPECT_EQ(registry.SpanStatsFor("worker/step").count,
            static_cast<uint64_t>(kThreads) * 200);
}

// Every thread that opens a span gets its own span stack, which must be
// freed when the thread exits: under LeakSanitizer, a stack that outlives
// its short-lived thread is reported as a leak.
TEST(ScopedTimerTest, ShortLivedThreadsReleaseTheirSpanStacks) {
  Registry registry;
  constexpr int kThreads = 4;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&registry] {
        ScopedTimer outer("short_lived", registry);
        ScopedTimer inner("step", registry);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  EXPECT_EQ(registry.SpanStatsFor("short_lived").count, 3u * kThreads);
  EXPECT_EQ(registry.SpanStatsFor("short_lived/step").count, 3u * kThreads);
}

// Opens a span from its destructor. Constructed before the thread's first
// span, so it is destroyed after the span stack was released.
struct SpanAtThreadExit {
  Registry* registry = nullptr;
  ~SpanAtThreadExit() {
    if (registry != nullptr) ScopedTimer span("at_thread_exit", *registry);
  }
};

TEST(ScopedTimerTest, SpanOpenedDuringThreadTeardownIsSafe) {
  Registry registry;
  std::thread worker([&registry] {
    thread_local SpanAtThreadExit at_exit;
    at_exit.registry = &registry;
    ScopedTimer span("before_exit", registry);
  });
  worker.join();
  EXPECT_EQ(registry.SpanStatsFor("before_exit").count, 1u);
  // A fresh top-level path: the released stack is not resurrected.
  EXPECT_EQ(registry.SpanStatsFor("at_thread_exit").count, 1u);
}

#endif  // FELIP_OBS_NOOP

}  // namespace
}  // namespace felip::obs
