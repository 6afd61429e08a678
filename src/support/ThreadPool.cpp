//===- ThreadPool.cpp - Persistent worker pool ----------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>

namespace tangram::support {

ThreadPool::ThreadPool(unsigned ThreadCount)
    : Count(ThreadCount ? ThreadCount
                        : std::max(1u, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  std::lock_guard<std::mutex> CallLock(CallMutex);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  if (Count <= 1 || N == 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }

  std::lock_guard<std::mutex> CallLock(CallMutex);
  // The caller participates in every loop, so the first one that can use
  // them spawns Count-1 workers.
  if (Workers.empty())
    for (unsigned I = 1; I < Count; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Job = &Fn;
    JobSize = N;
    BodyException = nullptr;
    NextIndex.store(0, std::memory_order_relaxed);
    PendingWorkers = Workers.size();
    ++Generation;
  }
  WorkCV.notify_all();

  // The caller claims indices alongside the workers.
  for (size_t I = NextIndex.fetch_add(1, std::memory_order_relaxed); I < N;
       I = NextIndex.fetch_add(1, std::memory_order_relaxed)) {
    try {
      Fn(I);
    } catch (...) {
      noteBodyException();
    }
  }

  std::exception_ptr Pending;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    DoneCV.wait(Lock, [this] { return PendingWorkers == 0; });
    Job = nullptr;
    Pending = BodyException;
    BodyException = nullptr;
  }
  if (Pending)
    std::rethrow_exception(Pending);
}

void ThreadPool::noteBodyException() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!BodyException)
    BodyException = std::current_exception();
  // Abandon the remaining unclaimed indices so every thread drains fast;
  // partially-run loops are fine — the caller sees the exception.
  NextIndex.store(JobSize, std::memory_order_relaxed);
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  while (true) {
    const std::function<void(size_t)> *Fn = nullptr;
    size_t Size = 0;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkCV.wait(Lock, [&] {
        return Stopping || (Job && Generation != SeenGeneration);
      });
      if (Stopping)
        return;
      SeenGeneration = Generation;
      Fn = Job;
      Size = JobSize;
    }
    for (size_t I = NextIndex.fetch_add(1, std::memory_order_relaxed);
         I < Size; I = NextIndex.fetch_add(1, std::memory_order_relaxed)) {
      try {
        (*Fn)(I);
      } catch (...) {
        noteBodyException();
      }
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--PendingWorkers == 0)
        DoneCV.notify_all();
    }
  }
}

} // namespace tangram::support
