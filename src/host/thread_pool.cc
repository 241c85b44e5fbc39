#include "src/host/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

namespace vusion::host {

// Full definition of the opaque handle: one dispatched batch. Every field is
// guarded by ThreadPool::mu_ except done_items, which is additionally published
// with release stores so the single consumer can poll it without the lock.
class ThreadPool::Stream {
 public:
  enum class Mode : std::uint8_t { kChunks, kStriped };

  Body body;
  Mode mode = Mode::kChunks;
  std::size_t count = 0;
  std::size_t grain = 1;
  std::size_t next = 0;                  // kChunks: shared chunk-aligned cursor
  std::vector<std::size_t> stripe_pos;   // kStriped: per-stripe claim position
  std::size_t claimed = 0;               // kStriped: total tasks claimed
  std::size_t in_flight = 0;
  std::vector<std::uint8_t> chunk_done;  // kChunks: per-chunk done flag
  std::size_t done_chunks = 0;           // contiguously-done chunk prefix
  std::atomic<std::size_t> done_items{0};
  std::exception_ptr first_error;

  [[nodiscard]] bool AllClaimed() const {
    return mode == Mode::kChunks ? next >= count : claimed >= count;
  }
  [[nodiscard]] bool Finished() const { return AllClaimed() && in_flight == 0; }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: " + std::to_string(threads) +
                                " threads exceeds the limit of " +
                                std::to_string(kMaxThreads));
  }
  const std::size_t spawn = threads > 1 ? threads - 1 : 0;
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::AnyUnclaimedLocked() const {
  for (const Stream* s : live_) {
    if (!s->AllClaimed()) {
      return true;
    }
  }
  return false;
}

bool ThreadPool::ClaimLocked(Stream* s, std::size_t stripe, std::size_t* begin,
                             std::size_t* end) {
  if (s->mode == Stream::Mode::kChunks) {
    if (s->next >= s->count) {
      return false;
    }
    *begin = s->next;
    *end = std::min(s->count, s->next + s->grain);
    s->next = *end;
    ++s->in_flight;
    return true;
  }
  // Striped: own stripe first, then round-robin steal. Task t's home stripe is
  // t % stripes, and stripe sp hands out sp, sp + stripes, sp + 2*stripes, ...
  const std::size_t stripes = s->stripe_pos.size();
  for (std::size_t k = 0; k < stripes; ++k) {
    const std::size_t sp = (stripe + k) % stripes;
    const std::size_t task = sp + s->stripe_pos[sp] * stripes;
    if (task < s->count) {
      ++s->stripe_pos[sp];
      ++s->claimed;
      ++s->in_flight;
      *begin = task;
      *end = task + 1;
      return true;
    }
  }
  return false;
}

void ThreadPool::RunUnit(Stream* s, std::size_t begin, std::size_t end) {
  std::exception_ptr error;
  try {
    s->body(begin, end);
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (error != nullptr && s->first_error == nullptr) {
    s->first_error = error;
  }
  --s->in_flight;
  if (s->mode == Stream::Mode::kChunks) {
    // A failed chunk still counts as done so the ticket prefix never stalls;
    // the error surfaces at JoinStream.
    s->chunk_done[begin / s->grain] = 1;
    while (s->done_chunks < s->chunk_done.size() && s->chunk_done[s->done_chunks] != 0) {
      ++s->done_chunks;
    }
    s->done_items.store(std::min(s->count, s->done_chunks * s->grain),
                        std::memory_order_release);
  }
  if (s->Finished()) {
    stream_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop(std::size_t worker_id) {
  for (;;) {
    Stream* claimed = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutdown_ || AnyUnclaimedLocked(); });
      if (shutdown_) {
        return;
      }
      for (Stream* s : live_) {
        if (ClaimLocked(s, worker_id, &begin, &end)) {
          claimed = s;
          break;
        }
      }
    }
    if (claimed != nullptr) {
      RunUnit(claimed, begin, end);
    }
  }
}

ThreadPool::Stream* ThreadPool::Submit(std::size_t count, std::size_t grain,
                                       bool striped, Body body) {
  std::lock_guard<std::mutex> lock(mu_);
  Stream* s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    all_.push_back(std::make_unique<Stream>());
    s = all_.back().get();
  }
  s->body = body;
  s->mode = striped ? Stream::Mode::kStriped : Stream::Mode::kChunks;
  s->count = count;
  s->grain = std::max<std::size_t>(1, grain);
  s->next = 0;
  s->claimed = 0;
  s->in_flight = 0;
  s->done_chunks = 0;
  s->done_items.store(0, std::memory_order_relaxed);
  s->first_error = nullptr;
  if (striped) {
    s->stripe_pos.assign(thread_count(), 0);
    s->chunk_done.clear();
  } else {
    s->chunk_done.assign((count + s->grain - 1) / s->grain, 0);
  }
  live_.push_back(s);
  work_ready_.notify_all();
  return s;
}

void ThreadPool::DrainAndJoin(Stream* s, std::size_t stripe) {
  for (;;) {
    std::size_t begin = 0;
    std::size_t end = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!ClaimLocked(s, stripe, &begin, &end)) {
        break;
      }
    }
    RunUnit(s, begin, end);
  }
  std::unique_lock<std::mutex> lock(mu_);
  stream_done_.wait(lock, [s] { return s->Finished(); });
  live_.erase(std::find(live_.begin(), live_.end(), s));
  free_.push_back(s);
  std::exception_ptr error = s->first_error;
  s->first_error = nullptr;
  lock.unlock();
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelTasks(std::size_t count, Body body) {
  if (count == 0) {
    return;
  }
  if (workers_.empty() || count == 1) {
    for (std::size_t t = 0; t < count; ++t) {
      body(t, t + 1);
    }
    return;
  }
  DrainAndJoin(Submit(count, /*grain=*/1, /*striped=*/true, body), /*stripe=*/workers_.size());
}

ThreadPool::Stream* ThreadPool::BeginStream(std::size_t count, std::size_t grain,
                                            Body body) {
  return Submit(count, grain, /*striped=*/false, body);
}

std::size_t ThreadPool::StreamReadyItems(const Stream* s) const {
  return s->done_items.load(std::memory_order_acquire);
}

bool ThreadPool::HelpStream(Stream* s) {
  std::size_t begin = 0;
  std::size_t end = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ClaimLocked(s, workers_.size(), &begin, &end)) {
      return false;
    }
  }
  RunUnit(s, begin, end);
  return true;
}

void ThreadPool::JoinStream(Stream* s) { DrainAndJoin(s, workers_.size()); }

}  // namespace vusion::host
