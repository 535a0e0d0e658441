// Discrete-event simulation kernel.
//
// The kernel is deliberately small: a time-ordered queue of callbacks and a
// run loop. Everything else in the repository (pipelines, traffic managers,
// links, hosts) is built as callbacks that reschedule themselves. Events
// fire in (time, sequence) order, the sequence number being handed out when
// the event is scheduled: equal timestamps fire in scheduling order (FIFO),
// which keeps runs fully deterministic.
//
// Internals are built for throughput, since every experiment in the repo is
// bounded by this loop:
//  - Event records live in a slab of fixed slots (chunked so addresses stay
//    stable while a callback runs); cancelled and fired slots go on a free
//    list, so steady-state scheduling performs no heap allocation.
//  - Ordering is a 4-ary min-heap over (time, seq) holding 24-byte entries
//    that reference slab slots — sift operations move small PODs, never
//    callables.
//  - FIFO lanes keep the heap shallow: a NIC, a port or a link delivers in
//    order, so its events queue in a caller-owned Lane and only the lane's
//    head sits in the heap. Events scheduled for now() ride the kernel's own
//    lane. Every record keeps the sequence number it was scheduled with, so
//    the firing order is the plain heap's by construction.
//  - Callbacks are InlineFunction (see inline_function.hpp): captures up to
//    the inline budget are stored in the slot itself.
//  - Cancellation is a generation check: an EventHandle names (slot, gen);
//    cancel() frees the slot immediately and any stale heap entry is
//    discarded lazily when it surfaces. No shared_ptr, no atomics.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace adcp::sim {

class Simulator;

namespace detail {
/// One pending event in kernel order: (at, seq) sorts it, (slot, gen) names
/// the slab slot and the generation it was scheduled under.
struct EventRecord {
  Time at;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};
}  // namespace detail

/// A caller-owned FIFO of events whose times never decrease — a NIC, a port,
/// one direction of a link. Simulator::at(lane, t, fn) appends to it; only
/// the head sits in the simulator's heap, so a lane with thousands of
/// packets in flight costs the heap one entry. The firing order is exactly
/// that of plain at() calls, whether an event waits in the lane or in the
/// heap. An append earlier than the lane's tail becomes a plain heap event,
/// and so does one that would wait alone (the lane is empty and none of its
/// events is due after now), so a link that never queues costs what plain
/// events cost. A lane must not move or die while it holds events (their
/// callbacks capture its owner anyway); an empty lane is free to.
class Lane {
 public:
  Lane() = default;
  Lane(Lane&& other) noexcept { *this = std::move(other); }
  Lane& operator=(Lane&& other) noexcept {
    ring_ = std::move(other.ring_);
    cap_ = std::exchange(other.cap_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    id_ = other.id_;
    latest_ = other.latest_;
    return *this;
  }

 private:
  friend class Simulator;
  using Record = detail::EventRecord;

  [[nodiscard]] bool empty() const { return size_ == 0; }

  Record& front() { return ring_[head_]; }
  [[nodiscard]] const Record& back() const { return ring_[(head_ + size_ - 1) & (cap_ - 1)]; }
  void push_back(const Record& r) {
    if (size_ == cap_) grow();
    ring_[(head_ + size_) & (cap_ - 1)] = r;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  void grow();  ///< doubles the ring, unwrapping it to start at index 0

  std::unique_ptr<Record[]> ring_;  ///< power-of-two ring buffer
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t id_ = 0;  ///< index in the simulator's lane table while non-empty
  Time latest_ = 0;       ///< latest time appended, wherever the event went
};

/// Cancellation handle for a scheduled event or periodic task. Destroying
/// the handle does NOT cancel the event; call `cancel()` explicitly.
/// A handle must not outlive its Simulator (it holds a plain pointer).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event (and, for periodic tasks, all future firings) from
  /// running. Safe to call multiple times, on a default-constructed handle,
  /// or after the event has already fired (no-op).
  void cancel();

  /// True while the event is still scheduled (one-shots become inactive
  /// after firing; periodic tasks stay active until cancelled).
  [[nodiscard]] bool active() const;

  /// Slab identity, exposed for generation-check tests and debugging: the
  /// slot index may be recycled by later schedules, the generation never is.
  [[nodiscard]] std::uint32_t slot() const { return slot_; }
  [[nodiscard]] std::uint32_t generation() const { return gen_; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A deterministic discrete-event simulator.
///
/// Typical use:
///   Simulator sim;
///   sim.after(10 * kNanosecond, [&] { ... });
///   sim.run();
class Simulator {
 public:
  /// Scheduling callback. The inline budget is sized so that the hot
  /// data-path captures — [this, packet] and friends, roughly a Packet
  /// (buffer + metadata incl. the trace id/mark) plus a pointer — stay
  /// allocation-free; larger captures (e.g. a full PHV) transparently
  /// spill to the heap.
  using Callback = InlineFunction<void(), 120>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at 0.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must be >= now()). Templated so
  /// the callable's capture is constructed directly in the slab slot — no
  /// intermediate Callback temporary, no buffer copy.
  template <typename F>
  EventHandle at(Time at, F&& fn) {
    const std::uint32_t i = fill_slot(at, 0, std::forward<F>(fn));
    schedule(at, i);
    return EventHandle{this, i, slot(i).gen};
  }

  /// Schedules `fn` after `delay` picoseconds.
  template <typename F>
  EventHandle after(Time delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at `at` in `lane` (see Lane). Fires exactly where a
  /// plain at() issued now would; no handle, since a lane event cannot be
  /// cancelled.
  template <typename F>
  void at(Lane& lane, Time at, F&& fn) {
    const std::uint32_t i = fill_slot(at, 0, std::forward<F>(fn));
    if (lane.empty() ? lane.latest_ > now_ : at >= lane.back().at) {
      lane_push(lane, {at, next_seq_++, i, slot(i).gen});
    } else {
      schedule(at, i);  // alone or out of order: a plain event
    }
    if (at > lane.latest_) lane.latest_ = at;
  }

  /// Schedules `fn` in `lane` after `delay` picoseconds.
  template <typename F>
  void after(Lane& lane, Time delay, F&& fn) {
    at(lane, now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` every `period` picoseconds, first firing at
  /// `now() + phase` (default: one full period from now). Returns a handle
  /// that cancels all future firings. The task occupies one slab slot for
  /// its whole life and is rescheduled in place — no per-firing allocation.
  ///
  /// FIFO guarantee for `phase == 0`: the first firing is scheduled at
  /// `now()` but, like every equal-timestamp tie, it fires in scheduling
  /// order — strictly after all events that were already scheduled at
  /// `now()` when every() was called (including events the currently
  /// running callback scheduled before it). Subsequent firings are
  /// rescheduled from inside step() with a fresh sequence number, so an
  /// `every(p)` task fires after one-shots scheduled at the same future
  /// timestamp by earlier callbacks, exactly as if each firing had been
  /// re-issued by hand when the previous one ran.
  template <typename F>
  EventHandle every(Time period, F&& fn) {
    return every(period, period, std::forward<F>(fn));
  }
  template <typename F>
  EventHandle every(Time period, Time phase, F&& fn) {
    assert(period > 0 && "periodic task needs a positive period");
    const std::uint32_t i = fill_slot(now_ + phase, period, std::forward<F>(fn));
    schedule(now_ + phase, i);
    return EventHandle{this, i, slot(i).gen};
  }

  /// Runs until the event queue drains or `stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs until simulation time would exceed `deadline` (events exactly at
  /// the deadline still run). Returns the number of events executed.
  /// Afterwards now() == deadline even if the queue drained early.
  std::uint64_t run_until(Time deadline);

  /// Returned by next_event_time() when no live event is scheduled.
  static constexpr Time kNoEventTime = ~Time{0};

  /// Timestamp of the earliest live event, or kNoEventTime if none.
  /// Discards stale (cancelled) heap entries as a side effect.
  [[nodiscard]] Time next_event_time();

  /// Runs every event with timestamp strictly below `end` (a half-open
  /// epoch window), then returns the number executed. Unlike run_until(),
  /// now() is left at the last executed event — it is never bumped to the
  /// window boundary — so after the final window now() is the time of the
  /// last event that actually ran, exactly as a plain run() would leave it.
  /// This is the per-shard primitive of the conservative parallel driver
  /// (see parallel.hpp): with window length <= the minimum cross-shard
  /// latency, no event scheduled during the window can land inside it.
  std::uint64_t run_window(Time end);

  /// Executes the single earliest live event. Returns false if none remain.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of live events waiting: scheduled one-shots (lane events
  /// included) plus active periodic tasks. Cancelled events are reclaimed
  /// eagerly and never counted here.
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // 256 slots per chunk: chunk allocation amortizes, and slot addresses
  // stay stable while callbacks run (a callback may schedule new events,
  // which can append chunks but never moves existing ones).
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Slot::link of a live event whose record waits in a lane (only the
  /// same-time lane's events can be cancelled, so only it leaves stale
  /// records — skipped when they reach the front, never counted in stale_).
  static constexpr std::uint32_t kQueuedInLane = kNoSlot - 1;
  /// Heap entries with this bit set stand for a lane's head: the low bits
  /// index lanes_, and (at, seq) are the head record's.
  static constexpr std::uint32_t kLaneBit = 1u << 31;

  struct Slot {
    Callback fn;
    Time period = 0;  ///< 0 = one-shot, >0 = periodic
    std::uint32_t gen = 0;
    /// Free: the next free slot. Live with a handle: kQueuedInLane while
    /// its record waits in the same-time lane, kNoSlot while it sits in the
    /// heap. (Caller-lane events have no handle and leave it unset.)
    std::uint32_t link = kNoSlot;
  };

  using HeapEntry = detail::EventRecord;
  static_assert(sizeof(Slot) == 144, "a slot is the callback plus 16 bytes");
  static_assert(sizeof(HeapEntry) == 24, "heap entries stay 24 bytes");

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  Slot& slot(std::uint32_t i) { return chunks_[i >> kChunkShift][i & (kChunkSize - 1)]; }
  [[nodiscard]] const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t i = free_head_;
      free_head_ = slot(i).link;
      return i;
    }
    if (used_slots_ < chunks_.size() * kChunkSize) return used_slots_++;
    return alloc_slot_grow();
  }
  std::uint32_t alloc_slot_grow();  ///< appends a chunk, returns a fresh slot
  void free_slot(std::uint32_t i);

  /// Allocates a slot holding `fn` and counts it live.
  template <typename F>
  std::uint32_t fill_slot([[maybe_unused]] Time at, Time period, F&& fn) {
    assert(at >= now_ && "cannot schedule in the past");
    const std::uint32_t i = alloc_slot();
    Slot& s = slot(i);
    s.fn = std::forward<F>(fn);
    s.period = period;
    ++live_;
    return i;
  }
  /// Queues slot `i` at `at` with a fresh sequence number: in the same-time
  /// lane when `at` is now(), in the heap otherwise.
  void schedule(Time at, std::uint32_t i) {
    Slot& s = slot(i);
    if (at == now_) {
      s.link = kQueuedInLane;
      lane_push(same_time_, {at, next_seq_++, i, s.gen});
    } else {
      s.link = kNoSlot;
      heap_push({at, next_seq_++, i, s.gen});
    }
  }
  /// Appends a record to `lane`, entering the lane in the heap if it was
  /// empty.
  void lane_push(Lane& lane, const HeapEntry& r);
  /// Drops the head of the lane whose entry is the heap front, and moves
  /// that entry to the lane's next head (or pops it when the lane drained).
  void lane_pop_front(Lane& lane);
  /// Discards stale records at the front; true when a live event is next.
  bool settle_front();

  // EventHandle backends.
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool event_active(std::uint32_t slot, std::uint32_t gen) const;

  void heap_push(HeapEntry e);
  void heap_pop_front();
  void heap_sift_down(std::size_t i);
  /// Rebuilds the heap without stale entries once they dominate it.
  void maybe_compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;

  std::vector<HeapEntry> heap_;
  std::vector<Lane*> lanes_;              ///< non-empty lanes, by Lane::id_
  std::vector<std::uint32_t> free_lane_ids_;
  Lane same_time_;                        ///< events scheduled for now()
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t used_slots_ = 0;     ///< high-water mark of allocated slot ids
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;             ///< scheduled one-shots + active periodics
  std::size_t stale_ = 0;            ///< heap entries pointing at dead slots
  std::uint32_t executing_ = kNoSlot;  ///< slot whose callback is running
  std::uint32_t executing_gen_ = 0;
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_event(slot_, gen_);
}

inline bool EventHandle::active() const {
  return sim_ != nullptr && sim_->event_active(slot_, gen_);
}

}  // namespace adcp::sim
