// Coroutine task type for simulation processes.
//
// Task<T> is a lazily-started, move-only coroutine handle. Awaiting a Task
// starts it and resumes the awaiter when it completes (symmetric transfer).
// Simulation::spawn() runs a Task<void> detached: the frame self-destructs
// at final suspension. Exceptions propagate to the awaiter; an exception
// escaping a detached task aborts the process (simulations are deterministic,
// so this is always a reproducible bug, never something to swallow).
//
// Task frames are recycled (detail::FrameCache): a frame freed while a
// Simulation is alive on its thread is kept for the next frame of its
// size class, and ~Simulation hands every kept frame back.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "util/asan.hpp"

namespace dmv::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

// Per-thread free lists of coroutine frames, one per frame size in
// 8-byte steps up to kMaxCached bytes, each holding at most kMaxKept
// frames. Each frame is its own ::operator new block of its size rounded
// up to 8 bytes (frame sizes are multiples of 8, so a kept frame takes
// the heap space a fresh one would), and any frame can still go back to
// ::operator delete. Frames are kept only while a Simulation is alive on
// the thread, and ~Simulation hands every kept frame back. The cap hands
// a burst of frees back to the allocator, which can reuse the memory for
// anything. Under ASan a kept frame is poisoned, so a frame used after it
// was destroyed still reports.
class FrameCache {
 public:
  static constexpr uint32_t kMaxKept = 64;

  // Called by Simulation's constructor and destructor.
  static void enter() noexcept { ++state_.simulations; }
  static void leave() noexcept {
    --state_.simulations;
    release_all();
  }

  static void* allocate(size_t n) {
    const size_t c = (n + kGrain - 1) / kGrain;
    if (c >= kClasses) return ::operator new(n);
    if (void* p = state_.free[c]) {
      util::asan_unpoison(p, c * kGrain);
      state_.free[c] = *static_cast<void**>(p);
      --state_.kept[c];
      return p;
    }
    return ::operator new(c * kGrain);
  }

  static void deallocate(void* p, size_t n) noexcept {
    const size_t c = (n + kGrain - 1) / kGrain;
    if (c >= kClasses || state_.simulations == 0 ||
        state_.kept[c] == kMaxKept) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = state_.free[c];
    state_.free[c] = p;
    ++state_.kept[c];
    util::asan_poison(p, c * kGrain);
  }

  // Frames kept on this thread's lists.
  static size_t kept() {
    size_t n = 0;
    for (uint32_t k : state_.kept) n += k;
    return n;
  }

 private:
  static constexpr size_t kGrain = 8;
  static constexpr size_t kMaxCached = 2048;
  static constexpr size_t kClasses = kMaxCached / kGrain + 1;

  struct State {
    void* free[kClasses];     // by size; linked through a frame's 1st word
    uint32_t kept[kClasses];  // frames on each list
    int simulations;          // Simulations alive on this thread
  };

  static void release_all() noexcept {
    for (size_t c = 0; c < kClasses; ++c) {
      while (void* p = state_.free[c]) {
        util::asan_unpoison(p, c * kGrain);
        state_.free[c] = *static_cast<void**>(p);
        ::operator delete(p);
      }
      state_.kept[c] = 0;
    }
  }

  static inline thread_local State state_{};
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  bool detached = false;
  std::exception_ptr error{};

  static void* operator new(size_t n) { return FrameCache::allocate(n); }
  static void operator delete(void* p, size_t n) noexcept {
    FrameCache::deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.detached) {
        if (p.error) {
          std::fprintf(stderr,
                       "dmv::sim: exception escaped a detached task\n");
          try {
            std::rethrow_exception(p.error);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "  what(): %s\n", e.what());
          } catch (...) {
          }
          std::abort();
        }
        h.destroy();
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }

  // Relinquish ownership (used by Simulation::spawn).
  Handle release() { return std::exchange(h_, nullptr); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.error) std::rethrow_exception(p.error);
        return std::move(*p.value);
      }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }
  Handle release() { return std::exchange(h_, nullptr); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        auto& p = h.promise();
        if (p.error) std::rethrow_exception(p.error);
      }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  Handle h_{};
};

}  // namespace dmv::sim
