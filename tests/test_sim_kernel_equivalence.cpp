// Randomized equivalence of the slab/min-heap event kernel against a
// deliberately naive reference model.
//
// The production kernel (sim/simulator.hpp) earns its speed with a slab of
// reused slots, generation-checked handles, and lazily discarded stale heap
// entries — all invisible to callers, all easy to get subtly wrong. The
// RefKernel below has none of that: shared_ptr records, linear scan for the
// earliest event, O(n) everything — and no FIFO lanes: a lane event is an
// ordinary (at, seq) event to it. Both run identical randomized worlds
// (same seed, same decision stream) and must produce identical firing
// traces, time trajectories, next-event times and pending() counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace adcp::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference kernel: correct by inspection, slow by design.

class RefKernel {
 public:
  struct Ev {
    Time at = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    Time period = 0;     // 0 = one-shot
    bool alive = false;  // scheduled one-shot or active periodic
  };
  using Handle = std::shared_ptr<Ev>;

  [[nodiscard]] Time now() const { return now_; }

  Handle at(Time t, std::function<void()> fn) {
    auto ev = std::make_shared<Ev>();
    ev->at = t;
    ev->seq = next_seq_++;
    ev->fn = std::move(fn);
    ev->alive = true;
    events_.push_back(ev);
    return ev;
  }

  Handle after(Time delay, std::function<void()> fn) { return at(now_ + delay, std::move(fn)); }

  // Lanes are an ordering-preserving optimization; the reference has none.
  void at_lane(std::size_t /*lane*/, Time t, std::function<void()> fn) { at(t, std::move(fn)); }

  Handle every(Time period, Time phase, std::function<void()> fn) {
    Handle h = at(now_ + phase, std::move(fn));
    h->period = period;
    return h;
  }

  static void cancel(Handle& h) { h->alive = false; }

  std::uint64_t run() { return run_while(std::numeric_limits<Time>::max(), false); }

  std::uint64_t run_until(Time deadline) { return run_while(deadline, true); }

  // Half-open window: events strictly below `end`, now() left at the last.
  std::uint64_t run_window(Time end) { return end == 0 ? 0 : run_while(end - 1, false); }

  [[nodiscard]] Time next_event_time() const {
    Time t = Simulator::kNoEventTime;
    for (const Handle& e : events_) {
      if (e->alive) t = std::min(t, e->at);
    }
    return t;
  }

  [[nodiscard]] std::size_t pending() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(), [](const Handle& e) { return e->alive; }));
  }

 private:
  std::uint64_t run_while(Time deadline, bool clamp_now) {
    std::uint64_t executed = 0;
    for (;;) {
      Handle best;
      for (const Handle& e : events_) {
        if (!e->alive) continue;
        if (!best || e->at < best->at || (e->at == best->at && e->seq < best->seq)) best = e;
      }
      if (!best || best->at > deadline) break;
      now_ = best->at;
      best->fn();  // may schedule, cancel others, or cancel `best` itself
      if (best->period > 0) {
        if (best->alive) {  // not cancelled from inside its own callback
          best->at = now_ + best->period;
          best->seq = next_seq_++;
        }
      } else {
        best->alive = false;
      }
      ++executed;
      // Drop dead records so the scan (and memory) stays bounded.
      std::erase_if(events_, [](const Handle& e) { return !e->alive; });
    }
    if (clamp_now && now_ < deadline) now_ = deadline;
    return executed;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Handle> events_;
};

// Uniform facade over Simulator so the world template can treat both
// kernels identically (cancellation lives on EventHandle, not Simulator).
struct SimAdapter {
  using Handle = EventHandle;

  [[nodiscard]] Time now() const { return s.now(); }
  template <typename F>
  Handle at(Time t, F&& f) {
    return s.at(t, std::forward<F>(f));
  }
  template <typename F>
  Handle after(Time d, F&& f) {
    return s.after(d, std::forward<F>(f));
  }
  template <typename F>
  Handle every(Time period, Time phase, F&& f) {
    return s.every(period, phase, std::forward<F>(f));
  }
  template <typename F>
  void at_lane(std::size_t lane, Time t, F&& f) {
    s.at(lanes[lane], t, std::forward<F>(f));
  }
  static void cancel(Handle& h) { h.cancel(); }
  std::uint64_t run() { return s.run(); }
  std::uint64_t run_until(Time t) { return s.run_until(t); }
  std::uint64_t run_window(Time end) { return s.run_window(end); }
  [[nodiscard]] Time next_event_time() { return s.next_event_time(); }
  [[nodiscard]] std::size_t pending() const { return s.pending(); }

  Simulator s;
  std::array<Lane, 4> lanes;  // declared after s: destroyed first
};

// ---------------------------------------------------------------------------
// Randomized world: both kernels execute the same seeded decision stream.
// Every callback consumes randomness from the world's own Rng, so the two
// runs stay in lockstep only if the kernels fire events in the same order.

struct Trace {
  std::vector<std::pair<int, Time>> firings;  // (event id, firing time)
  std::vector<Time> now_checkpoints;
  std::vector<Time> next_event_times;
  std::uint64_t executed_before_deadline = 0;
  std::uint64_t executed_total = 0;
  std::size_t pending_mid = 0;
  Time final_now = 0;
};

constexpr std::size_t kLanes = 4;

template <typename Kernel>
Trace run_world(std::uint64_t seed) {
  Kernel k;
  Rng rng(seed);
  Trace trace;
  int next_id = 0;
  std::vector<std::pair<int, typename Kernel::Handle>> handles;
  std::array<Time, kLanes> lane_tail{};  // latest time appended per lane

  std::function<void(int)> fire;
  // A lane append: usually at or after the lane's tail, like a link; now
  // and then earlier than it (a reset NIC horizon), which the kernel must
  // turn into a plain event.
  auto append = [&](std::size_t lane) {
    Time t = std::max(k.now(), lane_tail[lane]);
    if (rng.uniform(0, 7) == 0 && lane_tail[lane] > k.now()) {
      t = rng.uniform(k.now(), lane_tail[lane] - 1);
    } else {
      t += rng.uniform(0, 3) == 0 ? 0 : rng.uniform(1, 300);
    }
    lane_tail[lane] = std::max(lane_tail[lane], t);
    const int id = next_id++;
    k.at_lane(lane, t, [&fire, id] { fire(id); });
  };

  // Recursive scheduling action shared by seed events and callbacks.
  fire = [&](int id) {
    trace.firings.emplace_back(id, k.now());
    const std::uint64_t roll = rng.uniform(0, 11);
    if (roll < 4 && next_id < 900) {
      // Schedule a follow-up, sometimes at the current timestamp to
      // exercise equal-time FIFO ordering (the same-time lane).
      const Time delta = roll == 0 ? 0 : rng.uniform(1, 700);
      const int id2 = next_id++;
      handles.emplace_back(id2, k.after(delta, [&fire, id2] { fire(id2); }));
    } else if (roll < 6 && !handles.empty()) {
      // Cancel a random known handle (possibly already fired or our own).
      Kernel::cancel(handles[rng.index(handles.size())].second);
    } else if (roll < 9 && next_id < 900) {
      append(rng.index(kLanes));
    }
  };

  for (int i = 0; i < 80; ++i) {
    const int id = next_id++;
    const Time t = rng.uniform(0, 4000);
    handles.emplace_back(id, k.at(t, [&fire, id] { fire(id); }));
  }
  for (int i = 0; i < 6; ++i) {
    const int id = next_id++;
    handles.emplace_back(
        id, k.every(rng.uniform(50, 400), rng.uniform(1, 300), [&fire, id] { fire(id); }));
  }
  // Pre-scheduled lane traffic, like hosts that queue every send up front.
  for (int i = 0; i < 60; ++i) append(rng.index(kLanes));
  // Same-time events scheduled before the run, some cancelled at once.
  for (int i = 0; i < 4; ++i) {
    const int id = next_id++;
    handles.emplace_back(id, k.at(0, [&fire, id] { fire(id); }));
    if (i % 2 == 1) Kernel::cancel(handles.back().second);
  }

  trace.executed_before_deadline = k.run_until(2000);
  trace.now_checkpoints.push_back(k.now());
  trace.pending_mid = k.pending();

  // PDES-style windows: half-open, now() parks on the last event run.
  for (Time end = 2300; end <= 3800; end += 300) {
    trace.next_event_times.push_back(k.next_event_time());
    trace.executed_before_deadline += k.run_window(end);
    trace.now_checkpoints.push_back(k.now());
  }

  // Periodic tasks never drain on their own: run a bounded tail, then
  // cancel everything and let run() consume the leftovers.
  trace.executed_before_deadline += k.run_until(6000);
  trace.now_checkpoints.push_back(k.now());
  trace.next_event_times.push_back(k.next_event_time());
  for (auto& [id, h] : handles) Kernel::cancel(h);
  trace.executed_total = trace.executed_before_deadline + k.run();
  trace.final_now = k.now();
  return trace;
}

TEST(KernelEquivalence, RandomizedWorldsMatchReferenceModel) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 0xdeadbeefULL, 99ULL, 31337ULL}) {
    const Trace fast = run_world<SimAdapter>(seed);
    const Trace ref = run_world<RefKernel>(seed);
    ASSERT_EQ(fast.firings.size(), ref.firings.size()) << "seed " << seed;
    EXPECT_EQ(fast.firings, ref.firings) << "seed " << seed;
    EXPECT_EQ(fast.now_checkpoints, ref.now_checkpoints) << "seed " << seed;
    EXPECT_EQ(fast.next_event_times, ref.next_event_times) << "seed " << seed;
    EXPECT_EQ(fast.pending_mid, ref.pending_mid) << "seed " << seed;
    EXPECT_EQ(fast.executed_before_deadline, ref.executed_before_deadline) << "seed " << seed;
    EXPECT_EQ(fast.executed_total, ref.executed_total) << "seed " << seed;
    EXPECT_EQ(fast.final_now, ref.final_now) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Targeted regressions for the slab/generation machinery.

TEST(KernelEquivalence, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) sim.at(100, [&order, i] { order.push_back(i); });
  sim.run();
  ASSERT_EQ(order.size(), 32u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(KernelEquivalence, PendingCountsOnlyLiveEvents) {
  Simulator sim;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 10; ++i) hs.push_back(sim.at(10 + i, [] {}));
  EXPECT_EQ(sim.pending(), 10u);
  hs[1].cancel();
  hs[4].cancel();
  hs[9].cancel();
  EXPECT_EQ(sim.pending(), 7u);  // cancelled slots are reclaimed eagerly
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, StaleHandleDoesNotCancelSlotReuser) {
  Simulator sim;
  bool b_fired = false;
  EventHandle a = sim.at(10, [] {});
  a.cancel();  // frees the slot; `b` will reuse it with a bumped generation
  EventHandle b = sim.at(20, [&b_fired] { b_fired = true; });
  a.cancel();  // stale: must not touch b
  a.cancel();  // double-cancel on a stale handle: still a no-op
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  sim.run();
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(b.active());
}

TEST(KernelEquivalence, PeriodicCancelInsideOwnCallback) {
  Simulator sim;
  int fires = 0;
  EventHandle h;
  h = sim.every(100, [&] {
    if (++fires == 3) h.cancel();
  });
  sim.run_until(10'000);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(h.active());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, OneShotCancelInsideOwnCallbackIsBenign) {
  Simulator sim;
  EventHandle h;
  int fires = 0;
  h = sim.at(5, [&] {
    ++fires;
    h.cancel();  // already firing; cancel of self must not corrupt the slab
  });
  bool later = false;
  sim.at(6, [&later] { later = true; });
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(later);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(KernelEquivalence, CancelledSlotsAreReusedNotLeaked) {
  Simulator sim;
  // Schedule/cancel far more events than one slab chunk holds; eager
  // reclaim means the same slots recycle instead of growing the slab.
  for (int round = 0; round < 100; ++round) {
    std::vector<EventHandle> hs;
    for (int i = 0; i < 64; ++i) hs.push_back(sim.at(1'000'000, [] {}));
    for (auto& h : hs) h.cancel();
  }
  EXPECT_EQ(sim.pending(), 0u);
  int fired = 0;
  sim.at(1, [&fired] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace adcp::sim
