#include "sim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

adcp::sim::Time sat_add(adcp::sim::Time a, adcp::sim::Time b) {
  constexpr adcp::sim::Time inf = adcp::sim::Simulator::kNoEventTime;
  return (a >= inf - b) ? inf : a + b;
}

/// Injection order: (time, mailbox creation index, FIFO seq) is a strict
/// total order over arrivals. Comparator inverted for std::*_heap min-heap.
struct ArrivalAfter {
  bool operator()(const adcp::sim::Mailbox::Arrival& a,
                  const adcp::sim::Mailbox::Arrival& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.mailbox != b.mailbox) return a.mailbox > b.mailbox;
    return a.seq > b.seq;
  }
};

}  // namespace

namespace adcp::sim {

// ---------------------------------------------------------------- Mailbox --

Mailbox::Mailbox(std::size_t src_shard, std::size_t dst_shard, Time latency)
    : src_(src_shard), dst_(dst_shard), latency_(latency) {
  if (latency == 0) {
    std::fprintf(stderr,
                 "Mailbox: zero-latency channel %zu->%zu admits no conservative "
                 "lookahead\n",
                 src_shard, dst_shard);
    std::abort();
  }
}

std::size_t Mailbox::drain(std::vector<Arrival>& out, std::uint32_t id,
                           std::uint64_t& next_seq) {
  if (empty_hint()) return 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    inbox_.swap(batch_);
  }
  for (Envelope& e : batch_) {
    Arrival& a = out.emplace_back();
    a.at = e.at;
    a.mailbox = id;
    a.seq = next_seq++;
    a.fn = std::move(e.fn);
  }
  const std::size_t n = batch_.size();
  batch_.clear();
  drained_.fetch_add(n, std::memory_order_seq_cst);
  return n;
}

Time Mailbox::earliest_pending() {
  std::lock_guard<std::mutex> lk(mu_);
  Time t = Simulator::kNoEventTime;
  for (const Envelope& e : inbox_) t = std::min(t, e.at);
  return t;
}

// ------------------------------------------------------ ParallelSimulator --

ParallelSimulator::ParallelSimulator(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

Simulator& ParallelSimulator::add_shard() {
  const std::string prefix = "pdes.shard" + std::to_string(shards_.size());
  shards_.push_back(std::make_unique<Shard>());
  Shard& sh = *shards_.back();
  sh.index = shards_.size() - 1;
  sh.busy_ns = &metrics_.counter(prefix + ".busy_ns");
  sh.idle_ns = &metrics_.counter(prefix + ".idle_ns");
  sh.horizon_wait_ns = &metrics_.counter(prefix + ".horizon_wait_ns");
  sh.profile = sh.profile_buf.recorder(prefix);
  if (profile_enabled_) sh.profile_buf.enable(profile_capacity_);
  return sh.sim;
}

Mailbox& ParallelSimulator::add_mailbox(std::size_t src, std::size_t dst, Time latency) {
  assert(src < shards_.size() && dst < shards_.size());
  const auto id = static_cast<std::uint32_t>(mailboxes_.size());
  mailboxes_.push_back(std::make_unique<Mailbox>(src, dst, latency));
  Mailbox* box = mailboxes_.back().get();
  lookahead_ = std::min(lookahead_, latency);

  Shard& consumer = *shards_[dst];
  consumer.in.push_back({box, id, src, latency, 0});
  if (std::find(consumer.wait_in.begin(), consumer.wait_in.end(), src) ==
      consumer.wait_in.end()) {
    consumer.wait_in.push_back(src);
  }
  Shard& producer = *shards_[src];
  producer.out.push_back(box);
  if (std::find(producer.wait_out.begin(), producer.wait_out.end(), dst) ==
      producer.wait_out.end()) {
    producer.wait_out.push_back(dst);
  }
  return *box;
}

void ParallelSimulator::enable_profile_spans(std::size_t capacity) {
  profile_enabled_ = true;
  profile_capacity_ = capacity;
  for (auto& sh : shards_) sh->profile_buf.enable(capacity);
}

std::vector<const SpanBuffer*> ParallelSimulator::profile_span_buffers() const {
  std::vector<const SpanBuffer*> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) out.push_back(&sh->profile_buf);
  return out;
}

std::vector<double> ParallelSimulator::shard_busy_ns() const {
  std::vector<double> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    out.push_back(static_cast<double>(sh->busy_ns->value()));
  }
  return out;
}

Time ParallelSimulator::now() const {
  Time t = 0;
  for (const auto& sh : shards_) t = std::max(t, sh->sim.now());
  return t;
}

std::vector<std::vector<std::size_t>> ParallelSimulator::pack_shards(
    unsigned workers) const {
  std::vector<std::vector<std::size_t>> plan(std::max(workers, 1u));
  const auto weight = [this](std::size_t i) {
    return i < weights_.size() && weights_[i] > 0.0 ? weights_[i] : 1.0;
  };
  // Longest-processing-time greedy: heaviest shard to the least-loaded
  // worker. Ties break by shard id, so the packing is deterministic (it
  // only affects wall-clock anyway — results never depend on it).
  std::vector<std::size_t> order(shards_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weight(a) > weight(b);
  });
  std::vector<double> load(plan.size(), 0.0);
  for (const std::size_t id : order) {
    const std::size_t w = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    plan[w].push_back(id);
    load[w] += weight(id);
  }
  for (auto& owned : plan) std::sort(owned.begin(), owned.end());
  return plan;
}

ParallelSimulator::StepResult ParallelSimulator::try_advance(Shard& s,
                                                             std::uint64_t wall0_ns) {
  const std::uint64_t r = s.round + 1;
  // Round pacing: in-neighbors must have published round r-1 (their
  // guarantee slot is what the horizon reads); out-neighbors must be within
  // kMaxSkew so our guarantee-ring writes never clobber a slot a consumer
  // may still read. The minimum-round shard always passes both checks.
  for (const std::size_t src : s.wait_in) {
    if (shards_[src]->round_pub.load(std::memory_order_acquire) + 1 < r) return {};
  }
  for (const std::size_t dst : s.wait_out) {
    if (shards_[dst]->round_pub.load(std::memory_order_relaxed) + kMaxSkew < r) {
      return {};
    }
  }
  Time horizon = kNoEventTime;
  for (const InChannel& ch : s.in) {
    horizon = std::min(horizon,
                       sat_add(shards_[ch.src]->guarantee[(r - 1) & kHistMask],
                               ch.latency));
  }

  bool any_incoming = false;
  for (const InChannel& ch : s.in) {
    if (!ch.box->empty_hint()) {
      any_incoming = true;
      break;
    }
  }
  const Time local_next0 = s.sim.next_event_time();
  const Time pending_min0 = s.pending.empty() ? kNoEventTime : s.pending.front().at;
  std::uint64_t executed_now = 0;
  std::uint64_t drained = 0;
  if (any_incoming || local_next0 < horizon || pending_min0 < horizon) {
    // Publish "not idle" before the drain counters move: the quiescence
    // scan reads flags before counters, so a message can never be counted
    // as received while its receiver still looks idle mid-round.
    if (any_incoming) {
      s.idle.store(false, std::memory_order_seq_cst);
    }
    const std::uint64_t t0 = now_ns() - wall0_ns;
    for (InChannel& ch : s.in) {
      const std::size_t n = ch.box->drain(s.pending, ch.id, ch.next_seq);
      if (n != 0) {
        drained += n;
        s.occupancy.record(static_cast<double>(n));
        for (std::size_t k = s.pending.size() - n; k < s.pending.size(); ++k) {
          std::push_heap(s.pending.begin(),
                         s.pending.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                         ArrivalAfter{});
        }
      }
    }
    while (!s.pending.empty() && s.pending.front().at < horizon) {
      std::pop_heap(s.pending.begin(), s.pending.end(), ArrivalAfter{});
      Mailbox::Arrival a = std::move(s.pending.back());
      s.pending.pop_back();
      s.sim.at(a.at, std::move(a.fn));
    }
    executed_now = s.sim.run_window(horizon);
    s.executed += executed_now;
    s.drained_total += drained;
    const std::uint64_t t1 = now_ns() - wall0_ns;
    if (executed_now != 0 || drained != 0) {
      const std::uint64_t gap = t0 > s.last_end_ns ? t0 - s.last_end_ns : 0;
      s.wait_acc_ns += gap;
      s.busy_acc_ns += t1 - t0;
      if (profile_enabled_) {
        if (gap != 0) {
          s.profile.span(SpanKind::kPdesWait, s.index + 1,
                         static_cast<Time>(s.last_end_ns), static_cast<Time>(t0));
        }
        s.profile.span(SpanKind::kPdesBusy, s.index + 1, static_cast<Time>(t0),
                       static_cast<Time>(t1));
      }
      s.last_end_ns = t1;
    }
  }

  const Time local_next = s.sim.next_event_time();
  const Time pending_min = s.pending.empty() ? kNoEventTime : s.pending.front().at;
  // The guarantee: nothing this shard may still do — next heap event,
  // earliest parked arrival, or anything a neighbor could still feed us
  // (bounded by this round's horizon) — happens before min of the three.
  const Time guarantee = std::min({local_next, pending_min, horizon});
  s.idle.store(local_next == kNoEventTime && s.pending.empty(),
               std::memory_order_seq_cst);
  s.guarantee[r & kHistMask] = guarantee;
  s.round = r;
  s.round_pub.store(r, std::memory_order_release);
  return {true, executed_now != 0 || drained != 0};
}

bool ParallelSimulator::quiescent_scan() const {
  const auto all_idle = [this] {
    for (const auto& sh : shards_) {
      if (!sh->idle.load(std::memory_order_seq_cst)) return false;
    }
    return true;
  };
  const auto drained_sum = [this] {
    std::uint64_t d = 0;
    for (const auto& mb : mailboxes_) d += mb->drained();
    return d;
  };
  const auto pushed_sum = [this] {
    std::uint64_t p = 0;
    for (const auto& mb : mailboxes_) p += mb->pushed();
    return p;
  };
  // Four-counter quiescence (Mattern): flags, received, sent — twice, in
  // that order. A message in flight at the first received-read shows up in
  // the later sent-reads; activity between the scans flips an idle flag or
  // moves a counter. All equal and all idle twice => nothing can ever run.
  if (!all_idle()) return false;
  const std::uint64_t d1 = drained_sum();
  const std::uint64_t p1 = pushed_sum();
  if (p1 != d1) return false;
  if (!all_idle()) return false;
  const std::uint64_t d2 = drained_sum();
  const std::uint64_t p2 = pushed_sum();
  return d2 == d1 && p2 == p1;
}

void ParallelSimulator::worker_loop(const std::vector<std::size_t>& owned,
                                    std::uint64_t wall0_ns) {
  unsigned idle_streak = 0;
  while (!done_.load(std::memory_order_acquire)) {
    bool worked = false;
    bool advanced = false;
    for (const std::size_t i : owned) {
      const StepResult r = try_advance(*shards_[i], wall0_ns);
      worked |= r.worked;
      advanced |= r.advanced;
    }
    if (worked) {
      idle_streak = 0;
      continue;
    }
    ++idle_streak;
    if ((idle_streak & 3u) == 1u && quiescent_scan()) {
      done_.store(true, std::memory_order_release);
      return;
    }
    // Blocked on neighbors, or spinning without work on an oversubscribed
    // machine: give the thread that holds the minimum round a chance.
    if (!advanced || idle_streak > 16) std::this_thread::yield();
  }
}

std::uint64_t ParallelSimulator::run() {
  const unsigned want = static_cast<unsigned>(
      std::min<std::size_t>(threads_, std::max<std::size_t>(shards_.size(), 1)));

  // Seed every shard's round-0 guarantee with the global earliest pending
  // time T0: "nothing is sent before T0" is trivially true, and the first
  // horizons start at the action instead of t = 0.
  Time t0 = kNoEventTime;
  for (auto& sh : shards_) {
    t0 = std::min(t0, sh->sim.next_event_time());
    if (!sh->pending.empty()) t0 = std::min(t0, sh->pending.front().at);
  }
  for (auto& mb : mailboxes_) t0 = std::min(t0, mb->earliest_pending());
  if (t0 == kNoEventTime) return 0;

  const std::uint64_t before = executed_;
  const std::uint64_t wall0_ns = now_ns();
  for (auto& sh : shards_) {
    sh->round = 0;
    sh->guarantee[0] = t0;
    sh->idle.store(sh->sim.next_event_time() == kNoEventTime && sh->pending.empty(),
                   std::memory_order_seq_cst);
    sh->round_pub.store(0, std::memory_order_release);
    sh->busy_acc_ns = 0;
    sh->wait_acc_ns = 0;
    sh->last_end_ns = 0;
    sh->drained_total = 0;
  }
  done_.store(false, std::memory_order_release);

  const auto plan = pack_shards(want);
  if (plan.size() <= 1) {
    worker_loop(plan.empty() ? std::vector<std::size_t>{} : plan[0], wall0_ns);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(plan.size() - 1);
    for (std::size_t w = 1; w < plan.size(); ++w) {
      pool.emplace_back([this, &plan, w, wall0_ns] { worker_loop(plan[w], wall0_ns); });
    }
    worker_loop(plan[0], wall0_ns);
    for (std::thread& t : pool) t.join();
  }

  // Fold the run's accounting back single-threaded.
  const std::uint64_t total_wall = now_ns() - wall0_ns;
  std::uint64_t total = 0;
  std::uint64_t rounds_max = 0;
  std::uint64_t msgs = 0;
  for (auto& sh : shards_) {
    total += sh->executed;
    rounds_max = std::max(rounds_max, sh->round);
    msgs += sh->drained_total;
    sh->busy_ns->add(sh->busy_acc_ns);
    sh->horizon_wait_ns->add(sh->wait_acc_ns);
    const std::uint64_t accounted = sh->busy_acc_ns + sh->wait_acc_ns;
    sh->idle_ns->add(total_wall > accounted ? total_wall - accounted : 0);
    mailbox_occ_.merge(sh->occupancy);
    sh->occupancy.reset();
  }
  epochs_.add(rounds_max);
  messages_.add(msgs);
  executed_ = total;
  return total - before;
}

}  // namespace adcp::sim
