// Synchronization primitives for simulation coroutines.
//
//  - WaitQueue: condition-variable analogue. wait() suspends; notify wakes
//    FIFO. A wake carries a bool: `true` = signalled, `false` = cancelled
//    (e.g. the owning node was killed), so blocked protocol code can unwind
//    cooperatively — fault injection never destroys a suspended frame.
//  - Channel<T>: unbounded FIFO mailbox; receive() yields std::optional<T>,
//    nullopt after close(). The basis of simulated network endpoints.
//  - Resource: counted FIFO server pool (node CPUs, disk arms).
//    co_await use(cost) models "occupy one server for `cost` virtual time".
//
// All wakeups are routed through the Simulation (resume_at, run_at),
// never resumed inline, keeping execution order deterministic and stacks
// shallow.
//
// Wait lists are intrusive: the list node is the awaiter object, which
// lives in the suspended coroutine's frame, so a wait allocates nothing.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace dmv::sim {

// Singly linked FIFO of nodes that carry their own `Node* next`. The list
// owns nothing; a node must stay put until it is popped.
template <typename Node>
class IntrusiveFifo {
 public:
  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }
  Node* front() const { return head_; }
  void push_back(Node* n) {
    n->next = nullptr;
    if (tail_)
      tail_->next = n;
    else
      head_ = n;
    tail_ = n;
    ++size_;
  }
  Node* pop_front() {
    Node* n = head_;
    head_ = n->next;
    if (!head_) tail_ = nullptr;
    --size_;
    return n;
  }
  // Detach the whole list, leaving this one empty.
  IntrusiveFifo take() { return std::exchange(*this, IntrusiveFifo{}); }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  size_t size_ = 0;
};

class WaitQueue {
 public:
  explicit WaitQueue(Simulation& sim) : sim_(&sim) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  // Destroying a queue with suspended waiters is legal only at simulation
  // teardown (the waiters' frames are abandoned along with the pending
  // events); mid-run, owners must notify/cancel first.

  struct Waiter {
    WaitQueue* q;
    Waiter* next = nullptr;
    std::coroutine_handle<> h{};
    bool result = false;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      q->waiters_.push_back(this);
    }
    bool await_resume() const noexcept { return result; }
  };

  // co_await q.wait() -> bool (true = notified, false = cancelled).
  Waiter wait() { return Waiter{this}; }

  void notify_one(bool ok = true);
  void notify_all(bool ok = true);
  size_t waiting() const { return waiters_.size(); }

 private:
  friend struct Waiter;
  void wake(Waiter* w, bool ok);
  Simulation* sim_;
  IntrusiveFifo<Waiter> waiters_;
};

template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T item) {
    if (closed_) return;  // messages to a closed mailbox are dropped
    if (!receivers_.empty()) {
      Receiver* r = receivers_.pop_front();
      r->value.emplace(std::move(item));
      sim_->resume_at(sim_->now(), r->h);
      return;
    }
    items_.push_back(std::move(item));
  }

  struct Receiver {
    Channel* c;
    Receiver* next = nullptr;
    std::optional<T> value{};
    std::coroutine_handle<> h{};
    bool await_ready() {
      if (!c->items_.empty()) {
        value.emplace(std::move(c->items_.front()));
        c->items_.pop_front();
        return true;
      }
      if (c->closed_) return true;  // resume immediately with nullopt
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      c->receivers_.push_back(this);
    }
    std::optional<T> await_resume() noexcept { return std::move(value); }
  };

  // co_await ch.receive() -> optional<T>; nullopt means channel closed.
  Receiver receive() { return Receiver{this}; }

  // Close: pending items are discarded, blocked receivers wake with nullopt,
  // future sends are dropped. Used when a node is killed.
  void close() {
    closed_ = true;
    items_.clear();
    for (auto rs = receivers_.take(); !rs.empty();)
      sim_->resume_at(sim_->now(), rs.pop_front()->h);
  }

  // Reopen after a node restart.
  void reopen() { closed_ = false; }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }

 private:
  friend struct Receiver;
  Simulation* sim_;
  std::deque<T> items_;
  IntrusiveFifo<Receiver> receivers_;
  bool closed_ = false;
};

class Resource {
 public:
  Resource(Simulation& sim, int capacity) : sim_(&sim), capacity_(capacity) {
    DMV_ASSERT(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // co_await use(cost): occupy one server for `cost` virtual time, with
  // FIFO admission. The awaiter is its own wait-list node and the event
  // that starts its service, so a use allocates nothing.
  class [[nodiscard]] Use : Simulation::Action {
   public:
    Use(const Use&) = delete;  // linked into the queue by address
    Use& operator=(const Use&) = delete;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      h_ = handle;
      // A free server is taken only when no one is queued (strict FIFO).
      if (r_->in_use_ < r_->capacity_ && r_->waiters_.empty()) {
        ++r_->in_use_;
        start(this);
      } else {
        r_->waiters_.push_back(this);
      }
    }
    // Release the server. With a waiter queued, the server is handed to
    // it: in_use_ stays counted, so a user arriving at this instant cannot
    // barge in front of the waiter and starve it (livelock under retry
    // storms otherwise). The waiter's service starts in an event of its
    // own at this instant.
    void await_resume() {
      DMV_ASSERT(r_->in_use_ > 0);
      if (r_->waiters_.empty())
        --r_->in_use_;
      else
        r_->sim_->run_at(r_->sim_->now(), r_->waiters_.pop_front());
    }

   private:
    friend class Resource;
    friend class IntrusiveFifo<Use>;
    Use(Resource* r, Time cost) : Action{&Use::start}, r_(r), cost_(cost) {}
    static void start(Action* a) {
      auto* u = static_cast<Use*>(a);
      u->r_->busy_ += u->cost_;
      u->r_->sim_->resume_at(u->r_->sim_->now() + u->cost_, u->h_);
    }

    Resource* r_;
    Time cost_;
    std::coroutine_handle<> h_{};
    Use* next = nullptr;
  };
  Use use(Time cost) { return Use(this, cost); }

  // Cumulative busy server-time, for utilization reporting.
  Time busy_time() const { return busy_; }

 private:
  Simulation* sim_;
  int capacity_;
  int in_use_ = 0;
  Time busy_ = 0;
  IntrusiveFifo<Use> waiters_;
};

}  // namespace dmv::sim
