#include "core/parallel.h"

#include <algorithm>
#include <cstdlib>

#include "core/require.h"

namespace epm {
namespace {

/// Set while a thread is executing a task of this pool — always on its
/// workers, and on the submitting thread while it runs chunks — so
/// parallel_for can refuse re-entrant use of the same pool (which would
/// deadlock: the waiting task occupies a runner its children would need).
thread_local const ThreadPool* t_worker_pool = nullptr;

/// Tags the submitting thread as a runner of `pool` for the chunks it runs,
/// restoring the previous tag after (the caller may itself be a worker of
/// another pool).
class CallerScope {
 public:
  explicit CallerScope(const ThreadPool* pool) : saved_(t_worker_pool) {
    t_worker_pool = pool;
  }
  ~CallerScope() { t_worker_pool = saved_; }
  CallerScope(const CallerScope&) = delete;
  CallerScope& operator=(const CallerScope&) = delete;

 private:
  const ThreadPool* saved_;
};

/// Polls an idle waiter makes before parking in std::atomic::wait. Long
/// enough to bridge the coordinator's serial work between back-to-back
/// calls (a federation's mailbox drain between windows), so the handoff
/// costs no futex call; short enough that an idle pool parks within tens of
/// microseconds. On barrier-bound federation windows (4 threads, 4 vCPUs),
/// parking at once got about 40% of the speed-up 1024 gets; 16384 got only
/// a few percent more than 1024.
constexpr int kSpinBudget = 1024;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns the first value of `a` that differs from `old`: spins for
/// kSpinBudget polls, then parks until notified.
std::uint32_t await_change(const std::atomic<std::uint32_t>& a, std::uint32_t old) {
  for (int i = 0; i < kSpinBudget; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    cpu_relax();
  }
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
  }
}

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("EPM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    const bool in_range = v > 0 && v <= static_cast<long>(kMaxThreads);
    if (end != env && *end == '\0' && in_range) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t resolve_thread_count(std::int64_t requested) {
  return requested >= 1 ? static_cast<std::size_t>(requested) : default_thread_count();
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = threads > 0 ? threads : default_thread_count();
  workers_.reserve(count - 1);
  for (std::size_t i = 1; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

ThreadPool::~ThreadPool() {
  // No call is in flight, so every worker is idle on the generation counter.
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (stop_) return;
    run_chunks();
    // Check in; the last worker wakes the caller if it parked.
    if (checked_in_.fetch_add(1, std::memory_order_acq_rel) + 1 == workers_.size()) {
      checked_in_.notify_one();
    }
  }
}

void ThreadPool::run_chunks() {
  for (;;) {
    const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_) return;
    const std::size_t begin = c * base_ + std::min(c, extra_);
    const std::size_t end = begin + base_ + (c < extra_ ? 1 : 0);
    try {
      (*job_)(begin, end);
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        first_error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const ChunkFn& chunk) {
  require(static_cast<bool>(chunk), "ThreadPool::parallel_for: empty chunk function");
  if (t_worker_pool == this) {
    throw std::logic_error(
        "ThreadPool::parallel_for: nested call from one of this pool's own "
        "tasks (would deadlock a fixed-size pool)");
  }
  if (n == 0) return;

  // Several small chunks per runner smooth out unequal task costs without
  // affecting results (chunking changes scheduling, never index->task
  // assignment).
  const std::size_t chunks = std::min(n, thread_count() * 4);

  std::lock_guard<std::mutex> submit(submit_mu_);
  // Every worker checked in at the end of the previous call, so none is
  // reading the job while it is rewritten; the release bump publishes it.
  job_ = &chunk;
  chunks_ = chunks;
  base_ = n / chunks;
  extra_ = n % chunks;
  first_error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
  next_chunk_.store(0, std::memory_order_relaxed);
  checked_in_.store(0, std::memory_order_relaxed);
  if (!workers_.empty()) {
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }

  {
    CallerScope scope(this);
    run_chunks();
  }

  // Region barrier: wait until every worker has checked in, not merely until
  // the chunks are done, so no straggler still reads this job after return.
  const auto workers = static_cast<std::uint32_t>(workers_.size());
  for (std::uint32_t v = checked_in_.load(std::memory_order_acquire); v != workers;) {
    v = await_change(checked_in_, v);
  }
  job_ = nullptr;
  const std::exception_ptr error = std::move(first_error_);
  first_error_ = nullptr;
  if (error) std::rethrow_exception(error);
}

}  // namespace epm
