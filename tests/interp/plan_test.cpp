// Unit tests for the spec compiler (src/interp/plan/): symbol interning,
// dispatch-table lookup, cached lock plans, slot layout, plan ownership,
// epoch uniqueness, and the Interpreter's rebuild-on-replace_spec contract,
// plus the child index across aborted transitions on both executors.
// The behavioural plan-vs-tree contract lives in plan_equivalence_test.cpp.
#include "interp/plan/plan.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "child_index_check.h"
#include "common/errors.h"
#include "interp/interpreter.h"
#include "persist/format.h"
#include "spec/parser.h"
#include "spec/spec_fixtures.h"

namespace lce::interp::plan {
namespace {

using lce::spec::fixtures::kPublicIpSpec;

spec::SpecSet load(const char* src) {
  spec::ParseError err;
  auto s = spec::parse_spec(src, &err);
  EXPECT_TRUE(s.has_value()) << err.to_text();
  return s ? std::move(*s) : spec::SpecSet{};
}

ApiResponse call(Interpreter& it, std::string api, Value::Map args = {},
                 std::string target = "") {
  return it.invoke(ApiRequest{std::move(api), std::move(args), std::move(target)});
}

TEST(PlanCompiler, SymbolTableInternsOnceAndFinds) {
  SymbolTable syms;
  std::uint32_t a = syms.intern("CreateVpc");
  std::uint32_t b = syms.intern("DeleteVpc");
  EXPECT_NE(a, b);
  EXPECT_EQ(syms.intern("CreateVpc"), a);
  EXPECT_EQ(syms.find("DeleteVpc"), b);
  EXPECT_EQ(syms.find("NeverInterned"), SymbolTable::kNone);
  EXPECT_EQ(syms.name(a), "CreateVpc");
  EXPECT_EQ(syms.size(), 2u);
}

TEST(PlanCompiler, DispatchResolvesEveryDeclaredApi) {
  auto spec = load(kPublicIpSpec);
  auto plan = ExecutionPlan::build(spec);
  for (const auto& m : spec.machines) {
    for (const auto& t : m.transitions) {
      const CompiledTransition* ct = plan->find_api(t.name);
      ASSERT_NE(ct, nullptr) << t.name;
      EXPECT_EQ(ct->src->name, t.name);
      EXPECT_EQ(ct->machine->name, m.name);
    }
  }
  EXPECT_EQ(plan->find_api("LaunchRocket"), nullptr);
}

TEST(PlanCompiler, LockPlansMatchPerInvokeClassifier) {
  auto spec = load(kPublicIpSpec);
  auto plan = ExecutionPlan::build(spec);
  for (std::size_t mi = 0; mi < plan->machine_count(); ++mi) {
    const MachinePlan& mp = plan->machine(mi);
    for (const auto& ct : mp.transitions) {
      LockPlan want = classify_transition(*ct.src);
      EXPECT_EQ(static_cast<int>(ct.lock.mode), static_cast<int>(want.mode))
          << ct.src->name;
      EXPECT_EQ(ct.lock.attaches, want.attaches) << ct.src->name;
    }
  }
}

TEST(PlanCompiler, SlotLayoutMirrorsDeclarationOrder) {
  auto spec = load(kPublicIpSpec);
  auto plan = ExecutionPlan::build(spec);
  const MachinePlan* mp = plan->machine_for_type("PublicIp");
  ASSERT_NE(mp, nullptr);
  ASSERT_EQ(mp->slot_count(), mp->src->states.size());
  for (std::uint32_t i = 0; i < mp->slot_count(); ++i) {
    EXPECT_EQ(mp->state_slot(mp->src->states[i].name), i);
    EXPECT_EQ(mp->slot_name(i), mp->src->states[i].name);
  }
  EXPECT_EQ(mp->state_slot("no_such_var"), kNoSlot);
  EXPECT_EQ(plan->machine_for_type("NoSuchMachine"), nullptr);
}

TEST(PlanCompiler, PlanOwnsPrivateSpecClone) {
  auto spec = load(kPublicIpSpec);
  auto plan = ExecutionPlan::build(spec);
  ASSERT_NE(&plan->spec(), &spec);
  // Mutating (here: destroying) the caller's copy must not disturb the
  // plan — every internal pointer aims at the plan's private clone.
  spec.machines.clear();
  const CompiledTransition* ct = plan->find_api("CreatePublicIp");
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(ct->machine->name, "PublicIp");
}

TEST(PlanCompiler, EpochsAreProcessUnique) {
  auto spec = load(kPublicIpSpec);
  auto a = ExecutionPlan::build(spec);
  auto b = ExecutionPlan::build(spec);
  EXPECT_NE(a->epoch(), b->epoch());
}

TEST(PlanCompiler, ReplaceSpecRebuildsPlanAndServesLiveState) {
  Interpreter it(load(kPublicIpSpec));  // use_plan defaults on
  auto created = call(it, "CreatePublicIp", {{"region", Value("us-east")}});
  ASSERT_TRUE(created.ok) << created.to_text();
  std::string id(created.data.get("id")->as_str());

  // Swap in a re-parsed spec (what every alignment repair does). The old
  // plan's slot caches on the live resource go stale; the rebuilt plan
  // must re-resolve them and keep serving the same state.
  it.replace_spec(load(kPublicIpSpec));
  auto described = call(it, "DescribePublicIp", {}, id);
  ASSERT_TRUE(described.ok) << described.to_text();
  EXPECT_EQ(described.data.get("status")->as_str(), "ASSIGNED");
  EXPECT_EQ(described.data.get("zone")->as_str(), "us-east");
}

TEST(PlanCompiler, CloneSharesPlanAndState) {
  Interpreter it(load(kPublicIpSpec));
  auto created = call(it, "CreatePublicIp", {{"region", Value("us-west")}});
  ASSERT_TRUE(created.ok);
  std::string id(created.data.get("id")->as_str());

  auto copy = it.clone();
  ASSERT_NE(copy, nullptr);
  auto from_copy = copy->invoke({"DescribePublicIp", {}, id});
  auto from_orig = call(it, "DescribePublicIp", {}, id);
  EXPECT_EQ(from_copy.to_text(), from_orig.to_text());
}

TEST(PlanCompiler, SupportsAgreesAcrossModes) {
  InterpreterOptions tree_opts;
  tree_opts.use_plan = false;
  Interpreter with_plan(load(kPublicIpSpec));
  Interpreter tree(load(kPublicIpSpec), tree_opts);
  for (const auto& api :
       {"CreatePublicIp", "AssociateNic", "DescribeNic", "DeleteNic", "LaunchRocket"}) {
    EXPECT_EQ(with_plan.supports(api), tree.supports(api)) << api;
  }
}

// ------------------------------------------- child index under rollback --

constexpr const char* kRollbackSpec = R"(
  sm Vpc {
    states { }
    transitions {
      create CreateVpc() { }
      destroy DeleteVpc() { }
    }
  }
  sm Subnet {
    contained_in Vpc;
    states { }
    transitions {
      create CreateSubnet(vpc: ref Vpc, code: int) {
        attach_parent(vpc);
        assert(code == 0) else InvalidParameterValue;
      }
      modify MoveSubnet(vpc: ref Vpc, code: int) {
        attach_parent(vpc);
        assert(code == 0) else InvalidParameterValue;
      }
      destroy DeleteSubnet() { }
    }
  }
  sm Janitor {
    states { }
    transitions {
      create CreateJanitor() { }
      modify Sweep(vpc: ref Vpc, code: int) {
        call(vpc, DeleteVpc);
        assert(code == 0) else InvalidParameterValue;
      }
    }
  })";

/// Both executors side by side; every invoke must give the same answer on
/// each and leave each store's child index equal to the full-store scan.
class RollbackPair {
 public:
  explicit RollbackPair(bool hierarchy_guards) {
    its_.reserve(2);
    for (bool use_plan : {true, false}) {
      InterpreterOptions opts;
      opts.use_plan = use_plan;
      opts.hierarchy_guards = hierarchy_guards;
      its_.emplace_back(load(kRollbackSpec), opts);
    }
  }

  ApiResponse call(std::string api, Value::Map args = {}, std::string target = "") {
    ApiRequest req{std::move(api), std::move(args), std::move(target)};
    ApiResponse plan_resp = its_[0].invoke(req);
    ApiResponse tree_resp = its_[1].invoke(req);
    EXPECT_EQ(plan_resp.to_text(), tree_resp.to_text()) << req.api;
    for (const auto& it : its_) {
      EXPECT_EQ(testing::child_index_mismatch(it.store()), "")
          << req.api << (&it == &its_[0] ? " (plan)" : " (tree)");
    }
    EXPECT_EQ(dump(0), dump(1)) << req.api;
    return plan_resp;
  }

  std::string dump(std::size_t i) const {
    return persist::serialize_store(its_[i].store());
  }
  /// Canonical state (resources, links, attrs) — unlike dump(), blind to
  /// the seq clock, which a rolled-back create still advances.
  std::string state() const { return its_[0].snapshot().to_text(); }
  const ResourceStore& store() const { return its_[0].store(); }

 private:
  std::vector<Interpreter> its_;
};

std::string id_of(const ApiResponse& r) {
  return std::string(r.data.get("id")->as_str());
}

Value::Map at(const std::string& vpc, int code) {
  return {{"vpc", Value::ref(vpc)}, {"code", Value(code)}};
}

TEST(PlanRollback, GuardedDestroyWithChildrenLeavesIndexIntact) {
  RollbackPair p(/*hierarchy_guards=*/true);
  std::string vpc = id_of(p.call("CreateVpc"));
  std::string sub = id_of(p.call("CreateSubnet", at(vpc, 0)));
  std::string before = p.state();
  EXPECT_EQ(p.call("DeleteVpc", {}, vpc).code, errc::kDependencyViolation);
  EXPECT_EQ(p.state(), before);
  EXPECT_EQ(p.store().children_of(vpc), std::vector<std::string>{sub});
  EXPECT_TRUE(p.call("DeleteSubnet", {}, sub).ok);
  EXPECT_TRUE(p.call("DeleteVpc", {}, vpc).ok);
}

TEST(PlanRollback, FailedCreateAttachIsErasedFromParentList) {
  RollbackPair p(/*hierarchy_guards=*/true);
  std::string vpc = id_of(p.call("CreateVpc"));
  std::string kept = id_of(p.call("CreateSubnet", at(vpc, 0)));
  std::string before = p.state();
  // Attached, then the assert fails: the journal erase_raw()s the child.
  EXPECT_EQ(p.call("CreateSubnet", at(vpc, 1)).code, errc::kInvalidParameterValue);
  EXPECT_EQ(p.state(), before);
  EXPECT_EQ(p.store().children_of(vpc), std::vector<std::string>{kept});
  EXPECT_EQ(p.store().child_count(vpc, "Subnet"), 1u);
}

TEST(PlanRollback, FailedReattachRestoresOldParentLink) {
  RollbackPair p(/*hierarchy_guards=*/true);
  std::string vpc1 = id_of(p.call("CreateVpc"));
  std::string vpc2 = id_of(p.call("CreateVpc"));
  std::string sub = id_of(p.call("CreateSubnet", at(vpc1, 0)));
  std::string before = p.state();
  EXPECT_EQ(p.call("MoveSubnet", at(vpc2, 1), sub).code, errc::kInvalidParameterValue);
  EXPECT_EQ(p.state(), before);
  EXPECT_EQ(p.store().children_of(vpc1), std::vector<std::string>{sub});
  EXPECT_EQ(p.store().child_count(vpc2), 0u);
  EXPECT_TRUE(p.call("MoveSubnet", at(vpc2, 0), sub).ok);
  EXPECT_EQ(p.store().children_of(vpc2), std::vector<std::string>{sub});
}

TEST(PlanRollback, UnguardedDestroyPromotionIsJournaledAndRestored) {
  // hierarchy_guards off: the nested DeleteVpc succeeds and promotes both
  // subnets to top level, then the caller's assert fails, so the journal
  // must reinstate the vpc AND each subnet's link (and index entry).
  RollbackPair p(/*hierarchy_guards=*/false);
  std::string janitor = id_of(p.call("CreateJanitor"));
  std::string vpc = id_of(p.call("CreateVpc"));
  std::string a = id_of(p.call("CreateSubnet", at(vpc, 0)));
  std::string b = id_of(p.call("CreateSubnet", at(vpc, 0)));
  std::string before = p.state();
  EXPECT_EQ(p.call("Sweep", at(vpc, 1), janitor).code, errc::kInvalidParameterValue);
  EXPECT_EQ(p.state(), before);
  EXPECT_EQ(p.store().children_of(vpc), (std::vector<std::string>{a, b}));
  EXPECT_EQ(p.store().siblings_of(a), std::vector<std::string>{b});

  EXPECT_TRUE(p.call("Sweep", at(vpc, 0), janitor).ok);
  EXPECT_EQ(p.store().find(a)->parent_id, "");
  EXPECT_EQ(p.store().child_count(vpc), 0u);
}

}  // namespace
}  // namespace lce::interp::plan
