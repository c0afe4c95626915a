#pragma once
// Ring<T>: the one FIFO type of the simulator — egress port queues, the
// NIC's control queue, the retransmission and timeout queues and the verbs
// queues all use it.
//
// A power-of-two circular buffer.  An empty ring owns no storage: the
// first push allocates, a full ring doubles, and nothing ever shrinks, so
// a FIFO in steady use allocates nothing once it has reached its depth.
// A large fabric has thousands of egress queues that never hold a packet;
// each costs its 24-byte header and no heap.  Iteration runs from front to
// back (FIFO order), which checkpoints rely on.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dcp {

template <typename T>
class Ring {
  template <bool Const>
  class Iter {
    using RingPtr = std::conditional_t<Const, const Ring*, Ring*>;

   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter(RingPtr r, std::uint32_t i) : r_(r), i_(i) {}
    reference operator*() const { return r_->at(i_); }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    RingPtr r_ = nullptr;
    std::uint32_t i_ = 0;  // position from the front
  };

 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1)))) T(std::move(v));
    ++size_;
  }

  void pop_front() {
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every element; the storage stays for reuse.
  void clear() {
    while (size_ != 0) pop_front();
    head_ = 0;
  }

  Iter<false> begin() { return {this, 0}; }
  Iter<false> end() { return {this, size_}; }
  Iter<true> begin() const { return {this, 0}; }
  Iter<true> end() const { return {this, size_}; }

 private:
  T& at(std::uint32_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  const T& at(std::uint32_t i) const { return buf_[(head_ + i) & (cap_ - 1)]; }

  /// Doubles the storage, moving the elements to its start in FIFO order.
  void grow() {
    const std::uint32_t cap = cap_ == 0 ? 8 : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& src = at(i);
      ::new (static_cast<void*>(buf + i)) T(std::move(src));
      src.~T();
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::uint32_t cap_ = 0;  // 0 or a power of two
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace dcp
