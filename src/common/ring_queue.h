#ifndef DLOG_COMMON_RING_QUEUE_H_
#define DLOG_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace dlog {

/// A FIFO over a power-of-two ring of slots. An empty queue that never
/// held an element owns no memory (a std::deque allocates a map and a
/// node when it is constructed); the ring doubles when a push finds it
/// full and otherwise reuses its slots, so a queue that fills and drains
/// allocates nothing after it first reaches its deepest backlog. A pop
/// resets its slot, releasing what the element held.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// The i-th element from the front (i < size()).
  T& operator[](size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  const T& operator[](size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  T& front() { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == slots_.size()) Grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }
  /// Removes the front element (the queue must not be empty).
  void pop_front() {
    front() = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }
  /// Destroys every element and frees the ring.
  void clear() { *this = RingQueue(); }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 1 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // empty or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace dlog

#endif  // DLOG_COMMON_RING_QUEUE_H_
