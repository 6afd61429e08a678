//===- ThreadPoolTest.cpp - Thread pool exception-safety tests --------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The block-parallel simulator runs kernel blocks through parallelFor, so a
// throwing body (e.g. a bad_alloc inside a block simulation) must not take
// the pool down or hang the caller: the first exception propagates to the
// parallelFor caller and the pool stays usable. A pool that only ever runs
// sequential work starts no thread at all.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>

using namespace tangram::support;

namespace {

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  ThreadPool Pool(4);
  bool Caught = false;
  try {
    Pool.parallelFor(64, [](size_t I) {
      if (I == 13)
        throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error &E) {
    Caught = true;
    EXPECT_STREQ(E.what(), "boom");
  }
  EXPECT_TRUE(Caught);
}

TEST(ThreadPool, ExceptionCancelsRemainingIndices) {
  // Throwing early abandons unclaimed indices: well under N bodies run.
  ThreadPool Pool(2);
  std::atomic<size_t> Ran{0};
  const size_t N = 1 << 20;
  EXPECT_THROW(Pool.parallelFor(N,
                                [&](size_t) {
                                  Ran.fetch_add(1,
                                                std::memory_order_relaxed);
                                  throw std::logic_error("stop");
                                }),
               std::logic_error);
  EXPECT_LT(Ran.load(), N);
}

TEST(ThreadPool, PoolIsReusableAfterException) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(16, [](size_t) { throw std::runtime_error("once"); }),
      std::runtime_error);

  // A subsequent job must run every index exactly once.
  std::atomic<unsigned> Sum{0};
  Pool.parallelFor(100, [&](size_t I) {
    Sum.fetch_add(static_cast<unsigned>(I) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), 5050u);

  // And a clean job after that must not see a stale exception.
  std::atomic<unsigned> Count{0};
  Pool.parallelFor(8, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 8u);
}

/// Threads of this process (Linux lists one /proc/self/task entry each).
long threadCount() {
  std::error_code EC;
  std::filesystem::directory_iterator It("/proc/self/task", EC), End;
  return EC ? -1 : static_cast<long>(std::distance(It, End));
}

TEST(ThreadPool, WorkersStartOnFirstParallelLoop) {
  const long Before = threadCount();
  if (Before < 0)
    GTEST_SKIP() << "/proc/self/task is not readable";
  {
    ThreadPool Idle(4);
    EXPECT_EQ(threadCount(), Before);
  }

  ThreadPool Pool(4);
  EXPECT_EQ(Pool.getThreadCount(), 4u);
  std::atomic<unsigned> Ran{0};
  Pool.parallelFor(1, [&](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(threadCount(), Before);

  Pool.parallelFor(8, [&](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 9u);
  // At least the three workers (ThreadSanitizer adds a thread of its own
  // once the process has a second one).
  EXPECT_GE(threadCount(), Before + 3);
}

TEST(ThreadPool, SequentialFallbackPropagatesToo) {
  // N == 1 (and zero-worker pools) run inline in the caller; the exception
  // path must behave identically there.
  ThreadPool Pool(1);
  EXPECT_THROW(
      Pool.parallelFor(1, [](size_t) { throw std::runtime_error("inline"); }),
      std::runtime_error);
  std::atomic<unsigned> Count{0};
  Pool.parallelFor(1, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 1u);
}

} // namespace
