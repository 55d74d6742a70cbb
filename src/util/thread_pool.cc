#include "util/thread_pool.h"

#include <algorithm>

namespace ariel {

ThreadPool::ThreadPool(size_t num_workers) {
  num_workers = std::max<size_t>(num_workers, 1);
  // One deque per worker plus one for the thread calling RunAll.
  deques_.reserve(num_workers + 1);
  for (size_t i = 0; i < num_workers + 1; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunAll(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  const size_t caller = deques_.size() - 1;
  // Publish the task count before any task becomes visible in a deque: a
  // straggler worker from the previous batch may still be scanning inside
  // WorkUntilDrained and can pop a new task the moment it is pushed, so its
  // completion decrement must find the count already in place (otherwise the
  // decrement underflows and is then overwritten, wedging the batch).
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ += tasks.size();
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    Deque& dq = *deques_[i % deques_.size()];
    std::lock_guard<std::mutex> lock(dq.mu);
    dq.tasks.push_back(std::move(tasks[i]));
  }
  // Bump the generation only after every task is pushed: a parked worker
  // woken earlier would find empty deques, return to the wait with the new
  // generation already seen, and sleep through the whole batch.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++batch_generation_;
  }
  wake_cv_.notify_all();

  WorkUntilDrained(caller);

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool ThreadPool::PopOwn(size_t home, Task* task) {
  Deque& dq = *deques_[home];
  std::lock_guard<std::mutex> lock(dq.mu);
  if (dq.tasks.empty()) return false;
  *task = std::move(dq.tasks.front());
  dq.tasks.pop_front();
  return true;
}

bool ThreadPool::StealOne(size_t thief, Task* task) {
  // Steal from the back of the fullest other deque, splitting contended
  // queues instead of racing the owner for the front.
  size_t victim = deques_.size();
  size_t victim_size = 0;
  for (size_t i = 0; i < deques_.size(); ++i) {
    if (i == thief) continue;
    std::lock_guard<std::mutex> lock(deques_[i]->mu);
    if (deques_[i]->tasks.size() > victim_size) {
      victim = i;
      victim_size = deques_[i]->tasks.size();
    }
  }
  if (victim == deques_.size()) return false;
  Deque& dq = *deques_[victim];
  std::lock_guard<std::mutex> lock(dq.mu);
  if (dq.tasks.empty()) return false;  // raced another thief
  *task = std::move(dq.tasks.back());
  dq.tasks.pop_back();
  steals_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ThreadPool::WorkUntilDrained(size_t home) {
  Task task;
  while (PopOwn(home, &task) || StealOne(home, &task)) {
    task();
    task = nullptr;  // release captures before signalling completion
    std::lock_guard<std::mutex> lock(mu_);
    if (--outstanding_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [&] {
        return shutdown_ || batch_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = batch_generation_;
    }
    WorkUntilDrained(index);
  }
}

}  // namespace ariel
