// Property and fuzz coverage for the virtual-time subsystem: the
// hierarchical wheel's (deadline, seq) fire order, cascade correctness at
// wheel-level boundaries, overflow draining, the service's edge-triggered
// reconciliation, and a threaded hammer over the service's leaf mutex.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "time/service.h"
#include "time/wheel.h"

namespace lce::vtime {
namespace {

/// Drain everything due on (wheel.now(), target] in pop order.
std::vector<TimerWheel::Entry> drain(TimerWheel& w, std::uint64_t target) {
  std::vector<TimerWheel::Entry> out;
  while (auto e = w.pop_due(target)) out.push_back(*e);
  return out;
}

TEST(TimerWheel, StartsEmptyAtTickZero) {
  TimerWheel w;
  EXPECT_EQ(w.now(), 0u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.pop_due(1000), std::nullopt);
  EXPECT_EQ(w.now(), 1000u);
}

TEST(TimerWheel, PopsInDeadlineOrder) {
  TimerWheel w;
  w.schedule(30, 1);
  w.schedule(10, 2);
  w.schedule(20, 3);
  auto fired = drain(w, 100);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].deadline, 10u);
  EXPECT_EQ(fired[1].deadline, 20u);
  EXPECT_EQ(fired[2].deadline, 30u);
  EXPECT_EQ(w.now(), 100u);
}

TEST(TimerWheel, SeqBreaksDeadlineTies) {
  TimerWheel w;
  w.schedule(5, 9);
  w.schedule(5, 2);
  w.schedule(5, 7);
  auto fired = drain(w, 5);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].seq, 2u);
  EXPECT_EQ(fired[1].seq, 7u);
  EXPECT_EQ(fired[2].seq, 9u);
  // Clock rests exactly at the shared deadline, not past it.
  EXPECT_EQ(w.now(), 5u);
}

TEST(TimerWheel, ClockRestsAtEachDeadline) {
  TimerWheel w;
  w.schedule(4, 1);
  w.schedule(9, 2);
  auto first = w.pop_due(100);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(w.now(), 4u);
  auto second = w.pop_due(100);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(w.now(), 9u);
  EXPECT_EQ(w.pop_due(100), std::nullopt);
  EXPECT_EQ(w.now(), 100u);
}

TEST(TimerWheel, NothingDueBeyondTarget) {
  TimerWheel w;
  w.schedule(50, 1);
  EXPECT_EQ(w.pop_due(49), std::nullopt);
  EXPECT_EQ(w.now(), 49u);
  auto e = w.pop_due(50);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->deadline, 50u);
}

TEST(TimerWheel, PastDeadlineClampsToNow) {
  TimerWheel w;
  EXPECT_EQ(w.pop_due(10), std::nullopt);
  w.schedule(3, 1);  // already in the past: clamps to now=10
  auto e = w.pop_due(10);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->deadline, 10u);
  EXPECT_EQ(e->seq, 1u);
}

TEST(TimerWheel, CascadeAcrossLevelBoundaries) {
  // Deadlines straddling every wheel level: 64, 64^2, 64^3 spans. A
  // correct cascade re-places upper-level entries into lower levels as the
  // clock crosses their boundaries; fire order must stay sorted.
  TimerWheel w;
  std::vector<std::uint64_t> deadlines = {
      1,      63,      64,      65,      127,     128,         4095,
      4096,   4097,    262143,  262144,  262145,  (1ull << 18) + 7,
      999999, 1000000, 1000001,
  };
  std::uint64_t seq = 1;
  for (auto d : deadlines) w.schedule(d, seq++);
  auto fired = drain(w, 2000000);
  ASSERT_EQ(fired.size(), deadlines.size());
  std::vector<std::uint64_t> sorted = deadlines;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].deadline, sorted[i]) << "at index " << i;
  }
}

TEST(TimerWheel, OverflowBeyondTopLevelDrains) {
  TimerWheel w;
  const std::uint64_t far = (1ull << 24) + 12345;  // beyond the top span
  const std::uint64_t farther = (1ull << 25) + 9;
  w.schedule(far, 1);
  w.schedule(farther, 2);
  w.schedule(100, 3);
  auto fired = drain(w, farther + 1);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].deadline, 100u);
  EXPECT_EQ(fired[1].deadline, far);
  EXPECT_EQ(fired[2].deadline, farther);
}

TEST(TimerWheel, EmptyWheelAdvancesInOneStep) {
  TimerWheel w;
  EXPECT_EQ(w.pop_due(1ull << 40), std::nullopt);
  EXPECT_EQ(w.now(), 1ull << 40);
  w.schedule((1ull << 40) + 2, 1);
  auto e = w.pop_due(1ull << 41);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->deadline, (1ull << 40) + 2);
}

TEST(TimerWheel, ResetDropsEverything) {
  TimerWheel w;
  w.schedule(10, 1);
  w.schedule(20, 2);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.now(), 0u);
  EXPECT_EQ(w.pop_due(100), std::nullopt);
  w.reset(77);
  EXPECT_EQ(w.now(), 77u);
}

/// Differential fuzz body: seeded schedule bursts (short, medium, long and
/// overflow-range deltas) interleaved with partial advances, every pop
/// checked against a trivially correct sorted-set reference. Runs from the
/// wheel's current clock and returns the pops in order.
std::vector<TimerWheel::Entry> fuzz_against_reference(TimerWheel& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<std::pair<std::uint64_t, std::uint64_t>> ref;  // (deadline, seq)
  std::vector<TimerWheel::Entry> popped;
  std::uint64_t seq = 1;
  for (int round = 0; round < 200; ++round) {
    int burst = static_cast<int>(rng() % 8);
    for (int i = 0; i < burst; ++i) {
      std::uint64_t delta;
      switch (rng() % 4) {
        case 0: delta = rng() % 64; break;
        case 1: delta = rng() % 4096; break;
        case 2: delta = rng() % (1ull << 18); break;
        default: delta = rng() % (1ull << 26); break;
      }
      std::uint64_t deadline = w.now() + delta;
      w.schedule(deadline, seq);
      ref.emplace(std::max(deadline, w.now()), seq);
      ++seq;
    }
    std::uint64_t target = w.now() + rng() % (1ull << 20);
    while (true) {
      auto e = w.pop_due(target);
      if (!e) break;
      popped.push_back(*e);
      EXPECT_FALSE(ref.empty()) << "seed " << seed;
      if (ref.empty()) return popped;
      auto expect = *ref.begin();
      ref.erase(ref.begin());
      EXPECT_EQ(e->deadline, expect.first) << "seed " << seed;
      EXPECT_EQ(e->seq, expect.second) << "seed " << seed;
      EXPECT_EQ(w.now(), e->deadline) << "seed " << seed;
    }
    EXPECT_EQ(w.now(), target);
    // Everything left in the reference must be strictly in the future.
    if (!ref.empty()) {
      EXPECT_GT(ref.begin()->first, target) << "seed " << seed;
    }
    EXPECT_EQ(w.size(), ref.size()) << "seed " << seed;
  }
  return popped;
}

TEST(WheelFuzz, MatchesSortedSetReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    TimerWheel w;
    fuzz_against_reference(w, seed);
  }
}

// reset() clears only the slots the occupancy bitmaps name: a wheel reset
// after seeded schedules and partial advances (entries left on every
// level and in the overflow) must run the differential fuzz exactly like
// an empty wheel whose clock was set to the same tick.
TEST(WheelFuzz, ResetWheelBehavesLikeAFreshOne) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    TimerWheel dirty;
    std::uint64_t seq = 1;
    for (int i = 0; i < 400; ++i) {
      std::uint64_t delta = rng() % (1ull << (6 * (1 + rng() % 5)));  // up to 2^30
      dirty.schedule(dirty.now() + delta, seq++);
      if (i % 50 == 49) drain(dirty, dirty.now() + rng() % (1ull << 16));
    }
    ASSERT_FALSE(dirty.empty()) << "seed " << seed;
    std::uint64_t now = dirty.now() + rng() % 1000;
    dirty.reset(now);
    EXPECT_TRUE(dirty.empty());
    EXPECT_EQ(dirty.now(), now);

    TimerWheel fresh;
    fresh.reset(now);  // nothing to clear: only moves the clock
    auto want = fuzz_against_reference(fresh, seed);
    auto got = fuzz_against_reference(dirty, seed);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].deadline, want[i].deadline) << "seed " << seed << " pop " << i;
      EXPECT_EQ(got[i].seq, want[i].seq) << "seed " << seed << " pop " << i;
    }
  }
}

// ------------------------------------------------------------- service --

TEST(TimerServiceTest, EnsureArmsOnceAndIsEdgeTriggered) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  EXPECT_EQ(s.armed_count(), 1u);
  auto before = s.snapshot();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].deadline, 3u);
  // Re-ensuring while still wanted must NOT reset the countdown.
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  auto after = s.snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].seq, before[0].seq);
  EXPECT_EQ(after[0].deadline, before[0].deadline);
}

TEST(TimerServiceTest, EnsureUnwantedCancels) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  s.ensure("i-1", "status#0", "FinishLaunch", 3, false);
  EXPECT_EQ(s.armed_count(), 0u);
  EXPECT_EQ(s.pop_due(10), std::nullopt);
  EXPECT_EQ(s.now(), 10u);
}

TEST(TimerServiceTest, DelayClampsToAtLeastOne) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 0, true);
  auto armed = s.snapshot();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].deadline, 1u);
}

TEST(TimerServiceTest, CancelOnDestroyDropsAllClausesOfResource) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  s.ensure("i-1", "status#1", "FinishStop", 2, true);
  s.ensure("i-2", "status#0", "FinishLaunch", 3, true);
  s.cancel_resource("i-1");
  EXPECT_EQ(s.armed_count(), 1u);
  auto fired = s.pop_due(10);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->resource_id, "i-2");
  EXPECT_EQ(s.pop_due(10), std::nullopt);
}

TEST(TimerServiceTest, PopReturnsPayloadAndDisarms) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 2, true);
  auto fired = s.pop_due(5);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->transition, "FinishLaunch");
  EXPECT_EQ(fired->resource_id, "i-1");
  EXPECT_EQ(fired->deadline, 2u);
  EXPECT_EQ(s.now(), 2u);
  EXPECT_EQ(s.armed_count(), 0u);
  // Disarmed: re-ensuring with want re-arms from the NEW now.
  s.ensure("i-1", "status#0", "FinishLaunch", 2, true);
  auto again = s.pop_due(5);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->deadline, 4u);
}

TEST(TimerServiceTest, SnapshotRestoreRoundTripsByteIdentically) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  s.ensure("i-2", "status#1", "FinishStop", 7, true);
  ASSERT_TRUE(s.pop_due(1) == std::nullopt);  // advance the clock a little
  auto snap = s.snapshot();
  TimerService t;
  t.restore(s.now(), s.next_seq(), snap);
  EXPECT_EQ(t.now(), s.now());
  EXPECT_EQ(t.next_seq(), s.next_seq());
  auto rt = t.snapshot();
  ASSERT_EQ(rt.size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(rt[i].seq, snap[i].seq);
    EXPECT_EQ(rt[i].deadline, snap[i].deadline);
    EXPECT_EQ(rt[i].resource_id, snap[i].resource_id);
    EXPECT_EQ(rt[i].transition, snap[i].transition);
    EXPECT_EQ(rt[i].clause_key, snap[i].clause_key);
  }
  // And the restored service fires the same sequence.
  while (true) {
    auto a = s.pop_due(100);
    auto b = t.pop_due(100);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->seq, b->seq);
    EXPECT_EQ(a->deadline, b->deadline);
  }
}

TEST(TimerServiceTest, CopyIsIndependent) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  TimerService copy(s);
  s.cancel_resource("i-1");
  EXPECT_EQ(s.armed_count(), 0u);
  EXPECT_EQ(copy.armed_count(), 1u);
  auto fired = copy.pop_due(3);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->resource_id, "i-1");
}

TEST(TimerServiceTest, ClearResetsClockAndSeq) {
  TimerService s;
  s.ensure("i-1", "status#0", "FinishLaunch", 3, true);
  ASSERT_TRUE(s.pop_due(10).has_value());
  s.clear();
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.next_seq(), 1u);
  EXPECT_EQ(s.armed_count(), 0u);
}

// Cancels leave their entries in the wheel (pop_due skips them), so a
// cleared service's wheel held live and cancelled entries alike; after
// clear() it must replay a seeded arm/cancel/advance session exactly like
// a fresh service, whose seqs restart at the same numbers.
TEST(TimerServiceTest, ClearedServiceReplaysLikeAFreshOne) {
  auto session = [](TimerService& s, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> fired;
    for (int i = 0; i < 300; ++i) {
      std::string id = "i-" + std::to_string(rng() % 24);
      std::string clause = "status#" + std::to_string(rng() % 3);
      switch (rng() % 4) {
        case 0:
        case 1:
          s.ensure(id, clause, "Fire", static_cast<std::int64_t>(rng() % 5000), true);
          break;
        case 2:
          s.ensure(id, clause, "Fire", 1, false);
          break;
        default:
          s.cancel_resource(id);
          break;
      }
      if (i % 10 == 9) {
        std::uint64_t target = s.now() + rng() % 700;
        while (auto t = s.pop_due(target)) {
          fired.push_back(t->resource_id + "/" + t->clause_key + "@" +
                          std::to_string(t->deadline) + "#" + std::to_string(t->seq));
        }
      }
    }
    return fired;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TimerService used;
    session(used, seed + 100);
    ASSERT_GT(used.armed_count(), 0u) << "seed " << seed;
    used.clear();
    TimerService fresh;
    EXPECT_EQ(session(used, seed), session(fresh, seed)) << "seed " << seed;
    EXPECT_EQ(used.now(), fresh.now());
    EXPECT_EQ(used.armed_count(), fresh.armed_count());
  }
}

// Threaded hammer: concurrent arm/cancel/advance through the leaf mutex.
// Correctness bar here is "no race, no lost accounting" — deterministic
// sequencing is only promised for serialized advances, which the executors
// guarantee by holding the store's stripe locks.
TEST(TimerHammer, ConcurrentEnsureCancelAdvance) {
  TimerService s;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&s, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string id = "i-" + std::to_string(rng() % 16);
        switch (rng() % 4) {
          case 0:
            s.ensure(id, "status#0", "FinishLaunch",
                     static_cast<std::int64_t>(rng() % 32), true);
            break;
          case 1:
            s.ensure(id, "status#0", "FinishLaunch", 4, false);
            break;
          case 2:
            s.cancel_resource(id);
            break;
          default:
            (void)s.pop_due(s.now() + rng() % 8);
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Drain to a far horizon: every surviving timer fires exactly once.
  std::size_t armed = s.armed_count();
  std::size_t fired = 0;
  while (s.pop_due(s.now() + (1ull << 30)).has_value()) ++fired;
  EXPECT_EQ(fired, armed);
  EXPECT_EQ(s.armed_count(), 0u);
}

}  // namespace
}  // namespace lce::vtime
