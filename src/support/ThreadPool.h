//===- ThreadPool.h - Persistent worker pool -------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small persistent thread pool with a single primitive: parallelFor over
/// an index range. Workers are spawned by the first parallelFor over more
/// than one index and reused across calls, so the simulator can fan out
/// per-block interpretation without per-launch thread creation cost, and a
/// pool that never runs parallel work never starts a thread. The pool makes
/// no ordering promises within a call; callers that need determinism must
/// merge per-index results in index order.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SUPPORT_THREADPOOL_H
#define TANGRAM_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tangram::support {

/// Persistent pool of worker threads driving index-based parallel loops.
///
/// The calling thread participates in the loop, so a pool constructed with
/// ThreadCount = K uses exactly K threads of execution (K-1 workers plus the
/// caller). ThreadCount <= 1 degenerates to an inline sequential loop.
/// parallelFor calls are serialized; the body must not re-enter the pool.
///
/// A body that throws does not take down the pool or deadlock waiters: the
/// first exception is captured, the remaining unclaimed indices are
/// abandoned, every worker quiesces, and the exception is rethrown to the
/// parallelFor caller. The pool stays usable for subsequent calls.
class ThreadPool {
public:
  /// \p ThreadCount of 0 means one thread per hardware core.
  explicit ThreadPool(unsigned ThreadCount = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads of execution used by parallelFor (including the caller).
  unsigned getThreadCount() const { return Count; }

  /// Invokes \p Fn(I) for every I in [0, N), distributing indices over the
  /// pool. Returns after all N invocations have completed (or, when a body
  /// throws, after every worker has quiesced — the first exception is then
  /// rethrown here).
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

private:
  void workerLoop();
  /// Records the first exception thrown by a loop body and cancels the
  /// remaining unclaimed indices.
  void noteBodyException();

  unsigned Count;
  /// Spawned lazily; guarded by CallMutex.
  std::vector<std::thread> Workers;

  /// Serializes concurrent parallelFor callers (the pool is not reentrant).
  std::mutex CallMutex;

  std::mutex Mutex;
  std::condition_variable WorkCV;
  std::condition_variable DoneCV;
  const std::function<void(size_t)> *Job = nullptr;
  size_t JobSize = 0;
  /// First exception thrown by any loop body of the current job (guarded
  /// by Mutex; rethrown by parallelFor once all workers quiesce).
  std::exception_ptr BodyException;
  std::atomic<size_t> NextIndex{0};
  size_t PendingWorkers = 0;
  uint64_t Generation = 0;
  bool Stopping = false;
};

} // namespace tangram::support

#endif // TANGRAM_SUPPORT_THREADPOOL_H
