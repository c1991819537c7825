#pragma once
// Coroutine task type for simulation processes.
//
// `Task<T>` is a lazy coroutine: creating it does not run anything; it runs
// when awaited (or when spawned as a root process on a Simulator). On
// completion it resumes its awaiter via symmetric transfer, so arbitrarily
// deep co_await chains run in constant stack space.
//
// Ownership: the `Task` object owns the coroutine frame and destroys it in
// its destructor. In `co_await child()`, the temporary `Task` lives until
// the await completes, which is exactly the child frame's lifetime.

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "sim/pool.hpp"

namespace bb::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

/// O(1) root-failure hook: wired by `Simulator::spawn` into the root
/// promise and invoked (from `Promise<void>::unhandled_exception`) the
/// moment a root process completes with an exception. Defined in
/// simulator.cpp; declared here so task.hpp stays independent of the
/// simulator header.
void notify_root_error(void* simulator, std::uint32_t root_index,
                       std::exception_ptr error) noexcept;

struct PromiseBase {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  /// The awaiting task's promise; null for a root process. Lets the
  /// simulator name the root process a nested frame runs under.
  const PromiseBase* parent = nullptr;
  std::exception_ptr exception;

  // Coroutine frames recycle through the thread-local frame pool: process
  // spawn/teardown is steady-state in every benchmark loop, and pooling
  // keeps it off the global allocator.
  static void* operator new(std::size_t n) { return frame_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_free(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      return h.promise().continuation;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};

  Task<T> get_return_object() noexcept;
  void return_value(T v) noexcept { value = std::move(v); }

  T take_result() {
    if (exception) std::rethrow_exception(exception);
    return std::move(value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  /// Set by `Simulator::spawn` on root processes (null otherwise): the
  /// owning simulator and this root's index in its root table.
  void* root_sim = nullptr;
  std::uint32_t root_index = 0;

  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}

  // Shadows PromiseBase::unhandled_exception: a failed *root* process
  // notifies the simulator directly, replacing the per-event linear scan
  // over all roots with a single flag check in the dispatch loop.
  void unhandled_exception() noexcept {
    exception = std::current_exception();
    if (root_sim != nullptr) {
      notify_root_error(root_sim, root_index, exception);
    }
  }

  void take_result() {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return !h_ || h_.done(); }

  struct Awaiter {
    handle_type h;
    bool await_ready() const noexcept { return !h || h.done(); }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> cont) noexcept {
      h.promise().continuation = cont;
      if constexpr (std::is_base_of_v<detail::PromiseBase, P>) {
        h.promise().parent = &cont.promise();
      }
      return h;  // symmetric transfer: start the child now
    }
    T await_resume() { return h.promise().take_result(); }
  };
  /// Awaiting a task starts it and suspends the awaiter until it finishes.
  Awaiter operator co_await() && noexcept { return Awaiter{h_}; }

  /// Releases ownership of the frame (used by Simulator::spawn).
  handle_type release() { return std::exchange(h_, {}); }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace bb::sim
