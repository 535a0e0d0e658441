#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adcp::sim {

void Lane::grow() {
  const std::uint32_t cap = cap_ == 0 ? 8 : 2 * cap_;
  // Default-init: records are written before they are read, so a fresh
  // ring touches no pages it does not use.
  std::unique_ptr<Record[]> ring(new Record[cap]);
  for (std::uint32_t k = 0; k < size_; ++k) ring[k] = ring_[(head_ + k) & (cap_ - 1)];
  ring_ = std::move(ring);
  cap_ = cap;
  head_ = 0;
}

std::uint32_t Simulator::alloc_slot_grow() {
  // Default-init, not make_unique: value-initialization would zero every
  // slot's 120-byte callback buffer (~32 KiB per chunk) before the field
  // initializers run, which dominates short-lived simulators.
  assert(used_slots_ < kLaneBit && "slot ids must leave the lane bit free");
  chunks_.emplace_back(new Slot[kChunkSize]);
  // The heap holds lane heads, not every pending event, so it is not sized
  // by the slab: one chunk's worth up front, then it grows on its own.
  if (heap_.capacity() == 0) heap_.reserve(kChunkSize);
  return used_slots_++;
}

void Simulator::free_slot(std::uint32_t i) {
  Slot& s = slot(i);
  s.link = free_head_;
  free_head_ = i;
}

void Simulator::lane_push(Lane& lane, const HeapEntry& r) {
  if (lane.empty()) {
    if (free_lane_ids_.empty()) {
      lane.id_ = static_cast<std::uint32_t>(lanes_.size());
      lanes_.push_back(&lane);
    } else {
      lane.id_ = free_lane_ids_.back();
      free_lane_ids_.pop_back();
      lanes_[lane.id_] = &lane;
    }
    heap_push({r.at, r.seq, kLaneBit | lane.id_, 0});
  }
  lane.push_back(r);
}

void Simulator::lane_pop_front(Lane& lane) {
  lane.pop_front();
  if (lane.empty()) {
    free_lane_ids_.push_back(lane.id_);
    heap_pop_front();
    return;
  }
  // The lane's next head replaces its entry in place: one sift, not a
  // pop and a push.
  const HeapEntry& next = lane.front();
  heap_.front().at = next.at;
  heap_.front().seq = next.seq;
  heap_sift_down(0);
}

void Simulator::cancel_event(std::uint32_t slot_i, std::uint32_t gen) {
  Slot& s = slot(slot_i);
  if (s.gen != gen) return;  // already fired, cancelled, or slot reused
  ++s.gen;
  --live_;
  if (slot_i == executing_ && gen == executing_gen_) {
    // The callback is cancelling itself; its callable is still on the
    // stack. step() finishes the reclaim once it returns. Its heap entry
    // was already popped, so nothing goes stale.
    return;
  }
  const bool in_heap = s.link != kQueuedInLane;
  s.fn = nullptr;  // release captured resources promptly
  free_slot(slot_i);
  if (in_heap) {
    ++stale_;  // its heap entry now points at a dead generation
    maybe_compact();
  }
}

bool Simulator::event_active(std::uint32_t slot_i, std::uint32_t gen) const {
  return slot(slot_i).gen == gen;
}

void Simulator::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t k = first + 1; k < end; ++k) {
      if (before(heap_[k], heap_[best])) best = k;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_front() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down(0);
}

void Simulator::maybe_compact() {
  if (heap_.size() < 64 || stale_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const HeapEntry& e) {
    return (e.slot & kLaneBit) == 0 && slot(e.slot).gen != e.gen;
  });
  stale_ = 0;
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) >> 2; ; --i) {
      heap_sift_down(i);
      if (i == 0) break;
    }
  }
}

bool Simulator::settle_front() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if ((top.slot & kLaneBit) != 0) {
      Lane& lane = *lanes_[top.slot & ~kLaneBit];
      const HeapEntry& head = lane.front();
      if (slot(head.slot).gen == head.gen) return true;
      lane_pop_front(lane);  // cancelled while waiting in the same-time lane
      continue;
    }
    if (slot(top.slot).gen == top.gen) return true;
    heap_pop_front();  // cancelled; slot already reclaimed
    --stale_;
  }
  return false;
}

bool Simulator::step() {
  if (!settle_front()) return false;
  HeapEntry e = heap_.front();
  if ((e.slot & kLaneBit) != 0) {
    Lane& lane = *lanes_[e.slot & ~kLaneBit];
    e = lane.front();
    lane_pop_front(lane);
  } else {
    heap_pop_front();
  }
  Slot& s = slot(e.slot);
  assert(e.at >= now_);
  now_ = e.at;
  executing_ = e.slot;
  executing_gen_ = e.gen;
  // Runs in place in the slab; the reference stays valid because the
  // callback may schedule (chunks only grow; slots never move) or
  // cancel, including cancelling itself.
  s.fn();
  executing_ = kNoSlot;
  if (s.gen != e.gen) {
    // Cancelled from inside a callback; cancel_event() deferred the
    // reclaim because the callable was executing.
    s.fn = nullptr;
    free_slot(e.slot);
  } else if (s.period > 0) {
    // Periodic: reschedule in place — same slot, same generation, fresh
    // sequence number so equal-timestamp FIFO order matches a fresh
    // schedule issued after the callback ran.
    schedule(now_ + s.period, e.slot);
  } else {
    s.fn = nullptr;
    ++s.gen;
    --live_;
    free_slot(e.slot);
  }
  return true;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && step()) ++executed;
  return executed;
}

std::uint64_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_ && settle_front() && heap_.front().at <= deadline) {
    step();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

Time Simulator::next_event_time() {
  return settle_front() ? heap_.front().at : kNoEventTime;
}

std::uint64_t Simulator::run_window(Time end) {
  stopped_ = false;
  std::uint64_t executed = 0;
  while (!stopped_) {
    const Time t = next_event_time();
    if (t == kNoEventTime || t >= end) break;
    if (step()) ++executed;
  }
  return executed;
}

}  // namespace adcp::sim
