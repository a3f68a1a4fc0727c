// A small completion-queue worker group for background shard I/O (katana
// `AsyncOpGroup` shaped): callers submit void() operations, worker threads
// drain them FIFO, and `drain()` blocks until every submitted operation
// has completed. This is deliberately not a general thread pool — it
// exists so a ShardStore can overlap shard k+1's reload with shard k's
// compute, and so its destructor can guarantee no operation outlives the
// state it touches.
//
// Contract:
//  * operations should handle their own failures; one that throws anyway
//    is counted in `failed()` and its message (first failure only) is
//    retained for `first_error()` — the group itself never rethrows, since
//    a background reload error must surface at the *use* site (the next
//    pin), not tear down an unrelated drain;
//  * `drain()` waits for queued *and* in-flight operations;
//  * destruction drains, then joins every worker.
//
// All members are thread-safe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace msp {

class AsyncOpGroup {
 public:
  explicit AsyncOpGroup(int workers = 1) {
    if (workers < 1) {
      throw invalid_argument_error("AsyncOpGroup: need at least one worker");
    }
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  AsyncOpGroup(const AsyncOpGroup&) = delete;
  AsyncOpGroup& operator=(const AsyncOpGroup&) = delete;

  ~AsyncOpGroup() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Enqueue one operation. FIFO per group; runs on some worker thread.
  void submit(std::function<void()> op) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        throw invalid_argument_error("AsyncOpGroup: submit after shutdown");
      }
      queue_.push_back(std::move(op));
      ++submitted_;
    }
    work_cv_.notify_one();
  }

  /// Block until every operation submitted so far has completed.
  void drain() {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
  }

  [[nodiscard]] std::size_t submitted() const {
    std::lock_guard<std::mutex> lk(mu_);
    return submitted_;
  }
  [[nodiscard]] std::size_t completed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return completed_;
  }
  [[nodiscard]] std::size_t failed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failed_;
  }
  /// Message of the first operation that threw ("" while none has — use
  /// failed() to distinguish a first failure whose what() was empty).
  [[nodiscard]] std::string first_error() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_error_;
  }
  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      work_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      std::function<void()> op = std::move(queue_.front());
      // not-a-cache: the worker's job queue; every entry runs, none evicted.
      queue_.pop_front();
      ++in_flight_;
      lk.unlock();
      std::string error;
      bool ok = true;
      try {
        op();
      } catch (const std::exception& e) {
        ok = false;
        error = e.what();
      } catch (...) {
        ok = false;
        error = "unknown exception";
      }
      lk.lock();
      --in_flight_;
      ++completed_;
      if (!ok) {
        ++failed_;
        // A dedicated flag, not first_error_.empty(): an exception whose
        // what() is empty is still the *first* error, and the empty-string
        // sentinel would let a later failure's message overwrite it.
        if (!has_error_) {
          has_error_ = true;
          first_error_ = error;
        }
      }
      if (queue_.empty() && in_flight_ == 0) done_cv_.notify_all();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t in_flight_ = 0;
  std::string first_error_;
  bool has_error_ = false;
  bool stopping_ = false;
};

}  // namespace msp
