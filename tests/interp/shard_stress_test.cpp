// Cross-shard concurrency hammer for the sharded interpreter (DESIGN.md
// "Sharded resource store"). These tests drive the exact transition mix
// the lock planner has to get right — creates that premint + attach
// across shards, destroys with dynamic footprints, describes scanning
// shared — from many threads at once. They run in every suite, but their
// real teeth are the TSan job (scripts/tier1.sh, CI `tsan` job): the
// regex there matches "Shard". Completion is the deadlock assertion;
// post-join forest invariants are the correctness assertion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "child_index_check.h"
#include "common/errors.h"
#include "common/rng.h"
#include "interp/interpreter.h"
#include "spec/parser.h"

namespace lce::interp {
namespace {

constexpr const char* kForestSpec = R"(
  sm Vpc {
    states { name: str = "unnamed"; }
    transitions {
      create CreateVpc() { }
      modify RenameVpc(new_name: str) { write(name, new_name); }
      describe DescribeVpc() { }
      describe CheckVpcChildren() {
        assert(child_count(Subnet) >= 0) else InvalidParameterValue;
      }
      destroy DeleteVpc() { }
    }
  }
  sm Subnet {
    contained_in Vpc;
    states { }
    transitions {
      create CreateSubnet(vpc: ref Vpc) { attach_parent(vpc); }
      describe DescribeSubnet() { }
      destroy DeleteSubnet() { }
    }
  })";

Interpreter make_forest_interp(bool hierarchy_guards = true) {
  spec::ParseError err;
  auto s = spec::parse_spec(kForestSpec, &err);
  EXPECT_TRUE(s.has_value()) << err.to_text();
  InterpreterOptions opts;
  opts.hierarchy_guards = hierarchy_guards;
  return Interpreter(s ? std::move(*s) : spec::SpecSet{}, opts);
}

/// Thread-safe grab-bag of resource ids the worker threads trade through.
class IdPool {
 public:
  void add(std::string_view sv) {
    std::string id(sv);
    std::lock_guard<std::mutex> g(mu_);
    ids_.push_back(std::move(id));
  }
  /// Random live id, or "" when empty. Does not remove: destroys racing
  /// on the same id are exactly the contention worth exercising.
  std::string pick(Rng& rng) {
    std::lock_guard<std::mutex> g(mu_);
    if (ids_.empty()) return "";
    return ids_[rng.uniform(ids_.size())];
  }

 private:
  std::mutex mu_;
  std::vector<std::string> ids_;
};

/// Post-join forest invariants: no subnet points at a vanished vpc,
/// every parent's children_of list round-trips with the child's link, and
/// every child-index answer equals the full-store scan.
void check_forest(const Interpreter& it) {
  const auto& store = it.store();
  for (const auto& sid : store.all_of_type("Subnet")) {
    const Resource* sub = store.find(sid);
    ASSERT_NE(sub, nullptr);
    if (sub->parent_id.empty()) continue;
    const Resource* parent = store.find(sub->parent_id);
    ASSERT_NE(parent, nullptr) << sid << " dangles on " << sub->parent_id;
    auto children = store.children_of(parent->id, "Subnet");
    EXPECT_NE(std::find(children.begin(), children.end(), sid), children.end());
  }
  EXPECT_EQ(testing::child_index_mismatch(store), "");
}

/// Child-index readers racing the writers. Direct readers hold only the
/// vpc's own shard shared — the index keeps a parent's children in its
/// shard, so that is all child_count/children_of may touch; interpreter
/// readers run child_count inside a read-shared describe.
void read_children(Interpreter& it, IdPool& vpcs, const std::atomic<bool>& stop,
                   std::uint64_t seed) {
  Rng rng(seed);
  const auto& store = it.store();
  while (!stop.load()) {
    std::string vpc = vpcs.pick(rng);
    if (vpc.empty()) {
      std::this_thread::yield();
      continue;
    }
    if (rng.chance(0.5)) {
      auto guard = store.locks().lock_shared_one(store.shard_of(vpc));
      std::size_t n = store.child_count(vpc);
      auto subnets = store.children_of(vpc, "Subnet");
      ASSERT_EQ(subnets.size(), n) << vpc;  // one consistent view per lock
      for (const auto& sid : subnets) ASSERT_EQ(sid.rfind("subnet-", 0), 0u) << sid;
    } else {
      auto r = it.invoke({"CheckVpcChildren", {}, vpc});
      ASSERT_TRUE(r.ok || r.code == errc::kResourceNotFound) << r.to_text();
    }
  }
}

void hammer(Interpreter& it, int threads, int iters, bool allow_orphaning,
            int readers = 0) {
  IdPool vpcs;
  IdPool subnets;
  std::atomic<int> created{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> reader_threads;
  for (int t = 0; t < readers; ++t) {
    reader_threads.emplace_back(read_children, std::ref(it), std::ref(vpcs),
                                std::cref(stop),
                                0xC0FFEEu + static_cast<std::uint64_t>(t));
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0xDECAFu + static_cast<std::uint64_t>(t) * 7919);
      for (int i = 0; i < iters; ++i) {
        switch (rng.uniform(10)) {
          case 0:
          case 1: {  // create vpc (premint + single-shard write)
            auto r = it.invoke({"CreateVpc", {}, ""});
            ASSERT_TRUE(r.ok) << r.to_text();
            vpcs.add(r.data.get("id")->as_str());
            created.fetch_add(1);
            break;
          }
          case 2:
          case 3: {  // create subnet: cross-shard premint + ref + attach
            std::string vpc = vpcs.pick(rng);
            if (vpc.empty()) break;
            auto r = it.invoke({"CreateSubnet", {{"vpc", Value::ref(vpc)}}, ""});
            // A racing DeleteVpc may have removed the parent: clean
            // ResourceNotFound (and a rolled-back create) is legal.
            if (r.ok) {
              subnets.add(r.data.get("id")->as_str());
              created.fetch_add(1);
            } else {
              ASSERT_EQ(r.code, errc::kResourceNotFound) << r.to_text();
            }
            break;
          }
          case 4: {  // rename: known-footprint exclusive write
            std::string vpc = vpcs.pick(rng);
            if (vpc.empty()) break;
            auto r = it.invoke(
                {"RenameVpc", {{"new_name", Value(std::to_string(i))}}, vpc});
            ASSERT_TRUE(r.ok || r.code == errc::kResourceNotFound) << r.to_text();
            break;
          }
          case 5: {  // destroy subnet (detach)
            std::string sub = subnets.pick(rng);
            if (sub.empty()) break;
            auto r = it.invoke({"DeleteSubnet", {}, sub});
            ASSERT_TRUE(r.ok || r.code == errc::kResourceNotFound) << r.to_text();
            break;
          }
          case 6: {  // destroy vpc — guarded: DependencyViolation when
                     // children are live; unguarded: children promoted
            std::string vpc = vpcs.pick(rng);
            if (vpc.empty()) break;
            auto r = it.invoke({"DeleteVpc", {}, vpc});
            ASSERT_TRUE(r.ok || r.code == errc::kResourceNotFound ||
                        (!allow_orphaning && r.code == errc::kDependencyViolation))
                << r.to_text();
            break;
          }
          default: {  // describe: shared-lock scan
            std::string vpc = vpcs.pick(rng);
            if (vpc.empty()) break;
            auto r = it.invoke({"DescribeVpc", {}, vpc});
            ASSERT_TRUE(r.ok || r.code == errc::kResourceNotFound) << r.to_text();
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  for (auto& r : reader_threads) r.join();

  EXPECT_GT(created.load(), 0);
  check_forest(it);
}

TEST(ShardStress, GuardedForestHammerKeepsInvariants) {
  auto it = make_forest_interp(/*hierarchy_guards=*/true);
  hammer(it, /*threads=*/8, /*iters=*/300, /*allow_orphaning=*/false);
}

TEST(ShardStress, UnguardedDestroyPromotesChildrenWithoutDangling) {
  // hierarchy_guards off: DeleteVpc succeeds with live children, which the
  // store must promote to top level mid-hammer (the destroy-orphan path).
  auto it = make_forest_interp(/*hierarchy_guards=*/false);
  hammer(it, /*threads=*/8, /*iters=*/300, /*allow_orphaning=*/true);
}

TEST(ShardStress, ChildIndexReadersRaceCreateAttachAndDestroy) {
  // Readers hammer child_count/children_of while writers create-attach
  // (parent shard held), destroy (write-all) and promote children.
  for (bool guards : {true, false}) {
    auto it = make_forest_interp(guards);
    hammer(it, /*threads=*/6, /*iters=*/300, /*allow_orphaning=*/!guards,
           /*readers=*/3);
  }
}

TEST(ShardStress, ConcurrentHammerMatchesSerialInvariantsNotCounts) {
  // Sanity on the serial path through the same harness: 1 thread must
  // leave the same class of forest (every create accounted for, ids
  // gap-free within each family's surviving prefix counter).
  auto it = make_forest_interp();
  hammer(it, /*threads=*/1, /*iters=*/600, /*allow_orphaning=*/false);
  const auto& store = it.store();
  for (const auto& sid : store.all_of_type("Subnet")) {
    EXPECT_NE(store.find(sid), nullptr);
  }
}

TEST(ShardStress, SnapshotRacesWithWritesStaysWellFormed) {
  // Reader thread snapshots while writers churn: snapshot holds shared-all
  // so every observed state must be internally consistent.
  auto it = make_forest_interp();
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      Value snap = it.snapshot();
      ASSERT_TRUE(snap.is_map());
      // Each entry must carry its type; a torn resource would lose it.
      for (const auto& [id, entry] : snap.as_map()) {
        ASSERT_TRUE(entry.get("type") != nullptr) << id;
      }
    }
  });
  hammer(it, /*threads=*/4, /*iters=*/200, /*allow_orphaning=*/false);
  stop.store(true);
  reader.join();
}

}  // namespace
}  // namespace lce::interp
