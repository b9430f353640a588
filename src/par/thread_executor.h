// The one component in the tree that owns threads. Everything under
// src/sim/ is sequential per island by contract (silo-analyze's lint pass
// enforces the threading-include ban there); this executor sees islands
// only as opaque indices and provides the window barrier the protocol
// requires.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/parallel.h"

namespace silo::par {

/// Persistent worker pool implementing sim::IslandExecutor.
///
/// parallel_for(n, fn) hands indices 0..n-1 to `threads` workers via an
/// atomic-free ticket under one mutex, then blocks until every body has
/// finished — the return edge is the conservative-window barrier, so it
/// must (and does) establish happens-before between all bodies and the
/// caller. Exceptions thrown by bodies are captured per index and the
/// lowest-index one is rethrown after the round completes, keeping error
/// reporting deterministic too.
class ThreadPoolExecutor final : public sim::IslandExecutor {
 public:
  explicit ThreadPoolExecutor(int threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void parallel_for(int n, const std::function<void(int)>& fn) override;
  int threads() const override { return static_cast<int>(workers_.size()) + 1; }

 private:
  void worker_loop();
  void run_bodies();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for a round
  std::condition_variable done_cv_;   ///< caller waits for the barrier
  const std::function<void(int)>* fn_ = nullptr;
  int round_n_ = 0;                   ///< indices in the current round
  int next_index_ = 0;                ///< ticket: next index to claim
  int in_flight_ = 0;                 ///< claimed but not yet finished
  std::uint64_t round_ = 0;           ///< generation counter for wakeups
  bool stop_ = false;
  std::vector<std::pair<int, std::exception_ptr>> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace silo::par
