/**
 * @file
 * A fixed-capacity FIFO ring for hot per-cycle queues.
 *
 * std::deque pays a chunk lookup on every index and a chunk allocation
 * every few hundred pushes. A queue whose occupancy has a hard bound
 * (the core's instruction window) can instead live in one power-of-two
 * array allocated at construction: indexing is an add and a mask, and
 * push and pop never allocate.
 */

#ifndef NOMAD_SIM_RING_BUFFER_HH
#define NOMAD_SIM_RING_BUFFER_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "logging.hh"

namespace nomad
{

/** FIFO of at most capacity() elements; push_back() past that panics. */
template <typename T>
class RingBuffer
{
  public:
    /** Capacity is @p min_capacity rounded up to a power of two. */
    explicit RingBuffer(std::size_t min_capacity)
        : buf_(std::bit_ceil(std::max<std::size_t>(min_capacity, 1))),
          mask_(buf_.size() - 1)
    {}

    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    std::size_t capacity() const { return buf_.size(); }

    /** Element @p i places behind the front (0 = front). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return buf_[(tail_ - 1) & mask_]; }

    void
    push_back(const T &v)
    {
        panic_if(size() == capacity(), "ring buffer overflow (capacity ",
                 capacity(), ")");
        buf_[tail_++ & mask_] = v;
    }

    /** Drop the front element; the ring must not be empty. */
    void pop_front() { ++head_; }

  private:
    std::vector<T> buf_;
    std::size_t mask_;
    /** Free-running positions; their difference is the size. */
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

} // namespace nomad

#endif // NOMAD_SIM_RING_BUFFER_HH
