#pragma once
// A power-of-two circular FIFO. After warm-up a push or a pop is an index
// mask and a copy, with none of std::deque's block churn: a steady
// push/pop cycle allocates nothing. A popped slot keeps its stale value
// until a later push overwrites it.

#include <cstddef>
#include <utility>
#include <vector>

namespace bb::common {

template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  T& front() { return v_[head_]; }
  /// The `i`-th oldest entry.
  T& operator[](std::size_t i) { return v_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return v_[(head_ + i) & mask_]; }

  void push(const T& t) {
    if (count_ == v_.size()) grow();
    v_[(head_ + count_) & mask_] = t;
    ++count_;
  }
  void pop() noexcept {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = v_.empty() ? 16 : v_.size() * 2;
    std::vector<T> bigger(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(v_[(head_ + i) & mask_]);
    }
    v_ = std::move(bigger);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> v_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace bb::common
