// Fixed-size host worker pool for the streaming scan pipeline and the fleet
// executor.
//
// This is HOST-side machinery only: it parallelizes the simulator's own wall-clock
// work and must never touch simulated state (VirtualClock, Rng, LatencyModel,
// TraceBuffer, FusionStats) — those are single-threaded by contract; see DESIGN.md,
// "Parallel host, serial sim".
//
// The pool runs any number of concurrent *streams* (dispatched batches) over one
// worker set. Workers claim work from live streams in submission (FIFO) order, so
// an urgent foreground batch is never starved by a later background one. Two
// entry points share the machinery:
//
//   ParallelTasks hands out single indices with per-task stripe affinity: task t's
//   home stripe is t % thread_count(), and each thread drains its own stripe before
//   stealing from others, so a fleet Machine is stepped by the same thread quantum
//   after quantum (warm caches) while an unbalanced quantum still load-balances.
//   Blocks until done.
//
//   BeginStream is the non-blocking form: it submits a chunked batch and returns
//   immediately. Workers (and the caller, via HelpStream) hash chunks while the
//   caller consumes them in ticket order through StreamReadyItems — the in-order
//   completion stream the scan pipeline drains (DESIGN.md §14). JoinStream
//   blocks for full completion and rethrows the first captured error.
//
// Dispatch calls are reentrant: a body running on a pool thread may itself submit
// and join further streams on the same pool. The blocking callers participate as
// workers on their own stream, so progress never depends on a free pool thread.
// Stream records are recycled through a free list — steady-state dispatch
// performs no heap allocation — and bodies are passed as a non-owning Body view,
// not a std::function, for the same reason. The first exception thrown by any
// chunk/task is captured and rethrown on the joining thread; remaining chunks
// still run (and a failed chunk still counts as completed, so the in-order
// completion stream never stalls).

#ifndef VUSION_SRC_HOST_THREAD_POOL_H_
#define VUSION_SRC_HOST_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vusion::host {

class ThreadPool {
 public:
  // Non-owning view of a callable `void(std::size_t begin, std::size_t end)`.
  // The referenced callable must outlive the dispatch: until the blocking call
  // returns, or until JoinStream for BeginStream.
  class Body {
   public:
    Body() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Body>>>
    Body(F&& f)  // NOLINT(google-explicit-constructor): implicit by design
        : ctx_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          fn_([](void* ctx, std::size_t begin, std::size_t end) {
            (*static_cast<std::remove_reference_t<F>*>(ctx))(begin, end);
          }) {}

    void operator()(std::size_t begin, std::size_t end) const { fn_(ctx_, begin, end); }
    [[nodiscard]] explicit operator bool() const { return fn_ != nullptr; }

   private:
    void* ctx_ = nullptr;
    void (*fn_)(void*, std::size_t, std::size_t) = nullptr;
  };

  // Opaque handle to a live dispatched stream; valid from BeginStream until the
  // JoinStream that retires it.
  class Stream;

  // Upper bound on `threads`. Savestate config records and environment
  // variables are checked against it before any pool is built, and the
  // constructor rejects anything larger.
  static constexpr std::size_t kMaxThreads = 256;

  // `threads` is the total concurrency including the calling thread, so the pool
  // spawns threads-1 background workers. threads<=1 spawns none: ParallelTasks
  // then runs inline and streams are drained by HelpStream/JoinStream on the
  // caller. Throws std::invalid_argument above kMaxThreads, before spawning.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

  // Runs body(t, t+1) once for every task t in [0, count), concurrently, with
  // per-task stripe affinity (task t's home thread is t % thread_count()) and
  // stealing. Returns after every task completed.
  void ParallelTasks(std::size_t count, Body body);

  // --- Non-blocking streamed dispatch (submit + in-order completion) ---

  // Submits body over grain-sized chunks of [0, count) and returns immediately.
  // Chunk k covers [k*grain, min(count, (k+1)*grain)); chunks are claimed in
  // index order, which is also the completion-stream ticket order. grain=0 maps
  // to 1. The returned stream must be retired with JoinStream exactly once.
  //
  // LIFETIME: Body is a non-owning view, and unlike ParallelTasks this one
  // returns while chunks are still running — the callable must be an lvalue
  // that outlives JoinStream, never a temporary lambda in the argument list.
  Stream* BeginStream(std::size_t count, std::size_t grain, Body body);

  // Items [0, StreamReadyItems(s)) have completed — the contiguously-done chunk
  // prefix in ticket order. Lock-free acquire read; safe only for the thread
  // that owns the stream (single consumer).
  [[nodiscard]] std::size_t StreamReadyItems(const Stream* s) const;

  // Claims and runs ONE unclaimed chunk of `s` on the calling thread. Returns
  // false when every chunk is claimed (some may still be running elsewhere).
  // The consumer calls this while waiting for its next ticket, so the stream
  // completes even when every pool worker is busy with other streams.
  bool HelpStream(Stream* s);

  // Blocks until every chunk of `s` completed, retires the stream, and rethrows
  // the first captured body exception.
  void JoinStream(Stream* s);

 private:
  void WorkerLoop(std::size_t worker_id);
  // Claims one unit of work from `s` (caller holds mu_); returns false if the
  // stream has no unclaimed work. `stripe` is the claimant's home stripe.
  bool ClaimLocked(Stream* s, std::size_t stripe, std::size_t* begin, std::size_t* end);
  // Runs one claimed unit outside the lock and records its completion.
  void RunUnit(Stream* s, std::size_t begin, std::size_t end);
  [[nodiscard]] bool AnyUnclaimedLocked() const;
  Stream* Submit(std::size_t count, std::size_t grain, bool striped, Body body);
  // Drains `s` on the caller (claim-and-run until nothing unclaimed), waits for
  // stragglers, retires the stream, rethrows the first captured error.
  void DrainAndJoin(Stream* s, std::size_t stripe);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable stream_done_;
  // Live streams in submission order (workers scan front-to-back), the free
  // list of recycled records, and the arena owning them all.
  std::deque<Stream*> live_;
  std::vector<Stream*> free_;
  std::vector<std::unique_ptr<Stream>> all_;
  bool shutdown_ = false;
};

}  // namespace vusion::host

#endif  // VUSION_SRC_HOST_THREAD_POOL_H_
