// The composable backend layer stack (src/stack): decorator forwarding,
// clone semantics (chain AND layer state), the six stock layers, and the
// canonical build_stack ordering. Determinism-sensitive pieces — the fault
// sequence, clone continuation — are pinned hard, because FaultLayer is
// advertised as seeded chaos that reproduces bit-for-bit.
#include "stack/config.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cloud/reference_cloud.h"
#include "common/errors.h"
#include "common/strings.h"
#include "core/trace_script.h"
#include "docs/corpus.h"
#include "stack/layer.h"
#include "stack/layers.h"

namespace lce::stack {
namespace {

cloud::ReferenceCloud make_cloud() {
  return cloud::ReferenceCloud(docs::build_aws_catalog());
}

ApiRequest create_vpc(const char* cidr = "10.0.0.0/16") {
  return {"CreateVpc", {{"cidr_block", Value(cidr)}}, ""};
}

TEST(ResourceIdShape, Heuristic) {
  EXPECT_TRUE(looks_like_resource_id("vpc-00000001"));
  EXPECT_TRUE(looks_like_resource_id("tgw-attach-00000042"));
  EXPECT_FALSE(looks_like_resource_id("10.0.0.0/16"));
  EXPECT_FALSE(looks_like_resource_id("us-east"));       // 4 trailing chars
  EXPECT_FALSE(looks_like_resource_id("vpc-1234"));      // too few digits
  EXPECT_FALSE(looks_like_resource_id("VPC-00000001"));  // uppercase prefix
  EXPECT_FALSE(looks_like_resource_id("-00000001"));
  EXPECT_FALSE(looks_like_resource_id(""));
}

TEST(ValidateLayerTest, RetagsIdShapedStringsRecursively) {
  ApiRequest req;
  req.api = "X";
  req.args["plain"] = Value("banana");
  req.args["id"] = Value("vpc-00000001");
  req.args["nested"] = Value(Value::Map{
      {"list", Value(Value::List{Value("subnet-00000002"), Value(7)})}});
  ApiRequest norm = normalize_request(req);
  EXPECT_TRUE(norm.args["plain"].is_str());
  EXPECT_TRUE(norm.args["id"].is_ref());
  EXPECT_TRUE(norm.args["nested"].get("list")->as_list()[0].is_ref());
  EXPECT_TRUE(norm.args["nested"].get("list")->as_list()[1].is_int());
}

TEST(ValidateLayerTest, MakesWireShapedIdsAcceptedByBackend) {
  auto cloud = make_cloud();
  ValidateLayer validate;
  validate.attach(cloud);

  auto vpc = validate.invoke(create_vpc());
  ASSERT_TRUE(vpc.ok);
  // Pass the id back as a PLAIN STRING, the wire convention: the layer
  // must re-tag it so the ref-typed parameter accepts it.
  auto subnet = validate.invoke({"CreateSubnet",
                                 {{"vpc", Value(vpc.data.get("id")->as_str())},
                                  {"cidr_block", Value("10.0.1.0/24")},
                                  {"zone", Value("us-east")}},
                                 ""});
  EXPECT_TRUE(subnet.ok) << subnet.to_text();
}

TEST(SerializeLayerTest, ForwardsEveryOperation) {
  auto cloud = make_cloud();
  SerializeLayer serialize;
  serialize.attach(cloud);

  EXPECT_EQ(serialize.name(), "reference-cloud");
  EXPECT_TRUE(serialize.supports("CreateVpc"));
  ASSERT_TRUE(serialize.invoke(create_vpc()).ok);
  EXPECT_EQ(serialize.snapshot().as_map().size(), 1u);
  serialize.reset();
  EXPECT_TRUE(serialize.snapshot().as_map().empty());
}

TEST(SerializeLayerTest, CloneForwardsInsteadOfDisablingParallelism) {
  // The old server::SerializedBackend inherited clone() == nullptr, which
  // silently degraded the parallel alignment executor to serial. The layer
  // must clone the whole chain with a fresh mutex.
  auto cloud = make_cloud();
  SerializeLayer serialize;
  serialize.attach(cloud);
  ASSERT_TRUE(serialize.invoke(create_vpc()).ok);

  auto copy = serialize.clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->snapshot().to_text(), serialize.snapshot().to_text());

  // Clone state is independent: mutating the copy leaves the original.
  ASSERT_TRUE(copy->invoke(create_vpc("10.1.0.0/16")).ok);
  EXPECT_EQ(copy->snapshot().as_map().size(), 2u);
  EXPECT_EQ(serialize.snapshot().as_map().size(), 1u);
}

TEST(SerializeLayerTest, HammerSurvivesConcurrentMixedOperations) {
  // The lock must cover EVERY operation (the old adapter left supports()
  // unlocked). Run invokes, snapshots, and supports probes concurrently;
  // under -DLCE_SANITIZE=thread this is the race detector's target.
  auto cloud = make_cloud();
  SerializeLayer serialize;
  serialize.attach(cloud);

  constexpr int kThreads = 8;
  constexpr int kOps = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        switch ((t + i) % 3) {
          case 0:
            if (!serialize.invoke(create_vpc()).ok) ++failures;
            break;
          case 1:
            serialize.snapshot();
            break;
          default:
            if (!serialize.supports("CreateVpc")) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(MetricsLayerTest, CountsCallsErrorsAndHistogram) {
  auto cloud = make_cloud();
  MetricsLayer metrics;
  metrics.attach(cloud);

  ASSERT_TRUE(metrics.invoke(create_vpc()).ok);
  ASSERT_FALSE(metrics.invoke(create_vpc("10.0.0.0/8")).ok);
  EXPECT_EQ(metrics.calls(), 2u);
  EXPECT_EQ(metrics.errors(), 1u);

  Value snap = metrics.metrics();
  EXPECT_EQ(snap.get("total")->get("calls")->as_int(), 2);
  EXPECT_EQ(snap.get("total")->get("errors")->as_int(), 1);
  const Value* create = snap.get("per_api")->get("CreateVpc");
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->get("calls")->as_int(), 2);
  // Every call lands in exactly one histogram bucket.
  std::int64_t bucketed = 0;
  for (const auto& [name, count] : create->get("latency_histogram")->as_map()) {
    bucketed += count.as_int();
  }
  EXPECT_EQ(bucketed, 2);
}

TEST(MetricsLayerTest, MergeFromAggregatesCounters) {
  auto cloud = make_cloud();
  MetricsLayer a;
  a.attach(cloud);
  MetricsLayer b;
  b.attach(cloud);
  ASSERT_TRUE(a.invoke(create_vpc()).ok);
  ASSERT_TRUE(b.invoke(create_vpc("10.1.0.0/16")).ok);
  ASSERT_FALSE(b.invoke(create_vpc("10.0.0.0/8")).ok);

  a.merge_from(b);
  EXPECT_EQ(a.calls(), 3u);
  EXPECT_EQ(a.errors(), 1u);
  EXPECT_EQ(a.metrics().get("per_api")->get("CreateVpc")->get("calls")->as_int(), 3);
}

TEST(MetricsLayerTest, UnsupportedActionsShareOneRow) {
  // Raw client action names reach the metrics layer before validation;
  // names the backend does not support must not each get a row.
  auto cloud = make_cloud();
  LayerStack stack = build_stack(cloud);
  auto* metrics = stack.find<MetricsLayer>();
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(stack.invoke(create_vpc()).ok);
  ASSERT_FALSE(stack.invoke(create_vpc("10.0.0.0/8")).ok);
  const Value before = metrics->metrics();

  constexpr int kNames = 10000;
  for (int i = 0; i < kNames; ++i) {
    ASSERT_FALSE(stack.invoke({strf("NoSuchAction", i), {}, ""}).ok);
  }
  const Value after = metrics->metrics();
  const auto& per_api = after.get("per_api")->as_map();
  EXPECT_EQ(per_api.size(), before.get("per_api")->as_map().size() + 1);
  const Value* bucket = after.get("per_api")->get(MetricsLayer::kUnsupportedApi);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->get("calls")->as_int(), kNames);
  EXPECT_EQ(bucket->get("errors")->as_int(), kNames);
  EXPECT_EQ(*after.get("per_api")->get("CreateVpc"),
            *before.get("per_api")->get("CreateVpc"));
  EXPECT_EQ(after.get("total")->get("calls")->as_int(), kNames + 2);
}

std::vector<std::string> fault_decisions(CloudBackend& backend, int n) {
  std::vector<std::string> codes;
  codes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // DescribeVpc of a missing id: real outcome is a stable failure code,
    // so injected faults are distinguishable from backend replies.
    ApiResponse r = backend.invoke(
        {"DescribeVpc", {{"id", Value::ref("vpc-99999999")}}, ""});
    codes.push_back(r.code);
  }
  return codes;
}

TEST(FaultLayerTest, SameSeedSameSequenceAcrossRunsAndLayers) {
  FaultConfig cfg;
  cfg.throttle_rate = 0.3;
  cfg.error_rate = 0.2;

  auto cloud_a = make_cloud();
  FaultLayer a(/*seed=*/42, cfg);
  a.attach(cloud_a);
  auto cloud_b = make_cloud();
  FaultLayer b(/*seed=*/42, cfg);
  b.attach(cloud_b);

  auto seq_a = fault_decisions(a, 200);
  auto seq_b = fault_decisions(b, 200);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_GT(a.injected(), 0u);
  EXPECT_EQ(a.injected(), b.injected());

  // The sequence contains both fault kinds at these rates.
  EXPECT_NE(std::count(seq_a.begin(), seq_a.end(),
                       std::string(errc::kRequestLimitExceeded)),
            0);
  EXPECT_NE(std::count(seq_a.begin(), seq_a.end(), std::string(errc::kInternalError)),
            0);

  // A different seed produces a different run of luck.
  auto cloud_c = make_cloud();
  FaultLayer c(/*seed=*/43, cfg);
  c.attach(cloud_c);
  EXPECT_NE(fault_decisions(c, 200), seq_a);
}

TEST(FaultLayerTest, ResetRewindsTheFaultSequence) {
  FaultConfig cfg;
  cfg.throttle_rate = 0.4;
  auto cloud = make_cloud();
  FaultLayer fault(/*seed=*/7, cfg);
  fault.attach(cloud);

  auto first = fault_decisions(fault, 64);
  fault.reset();
  EXPECT_EQ(fault.injected(), 0u);
  EXPECT_EQ(fault_decisions(fault, 64), first);
}

TEST(FaultLayerTest, ZeroRatesNeverInject) {
  FaultConfig cfg;
  cfg.throttle_rate = 0.0;
  cfg.error_rate = 0.0;
  auto cloud = make_cloud();
  FaultLayer fault(/*seed=*/1, cfg);
  fault.attach(cloud);
  ASSERT_TRUE(fault.invoke(create_vpc()).ok);
  EXPECT_EQ(fault.injected(), 0u);
}

TEST(RecordLayerTest, CapturedTraceReplaysIdentically) {
  auto cloud = make_cloud();
  RecordLayer record;
  record.attach(cloud);

  auto vpc = record.invoke(create_vpc());
  ASSERT_TRUE(vpc.ok);
  auto bad = record.invoke(create_vpc("10.0.0.0/8"));
  ASSERT_FALSE(bad.ok);
  ASSERT_EQ(record.recorded(), 2u);

  // Replay the capture on a FRESH backend: same responses call for call
  // (run_trace resets first, matching RecordLayer's reset-clears contract).
  auto fresh = make_cloud();
  auto replayed = run_trace(fresh, record.trace());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_TRUE(replayed[0].aligned_with(vpc));
  EXPECT_TRUE(replayed[1].aligned_with(bad));
}

TEST(RecordLayerTest, MintedIdsRecordAsPortablePlaceholders) {
  // The script format has no concrete-ref syntax, and a replaying backend
  // mints its OWN ids — so recorded args/targets that name resources
  // created earlier in the recording must come out as "$k.id".
  auto cloud = make_cloud();
  RecordLayer record;
  record.attach(cloud);

  auto vpc = record.invoke(create_vpc());
  ASSERT_TRUE(vpc.ok);
  std::string vpc_id(vpc.data.get("id")->as_str());
  auto subnet = record.invoke({"CreateSubnet",
                               {{"vpc", Value::ref(vpc_id)},
                                {"cidr_block", Value("10.0.1.0/24")},
                                {"zone", Value("us-east")}},
                               ""});
  ASSERT_TRUE(subnet.ok) << subnet.to_text();
  auto destroy = record.invoke({"DeleteSubnet", {}, std::string(subnet.data.get("id")->as_str())});
  ASSERT_TRUE(destroy.ok) << destroy.to_text();

  Trace trace = record.trace();
  EXPECT_EQ(trace.calls[1].args.at("vpc").as_str(), "$0.id");
  EXPECT_EQ(trace.calls[2].target, "$1.id");

  // The printed script survives a parse round-trip and replays on a fresh
  // backend (whose minted ids need not match the recording's).
  std::string script = core::print_trace_script(trace);
  EXPECT_NE(script.find("vpc=$0"), std::string::npos);
  core::ScriptError err;
  auto parsed = core::parse_trace_script(script, &err);
  ASSERT_TRUE(parsed) << err.to_text();
  auto fresh = make_cloud();
  auto replayed = run_trace(fresh, *parsed);
  ASSERT_EQ(replayed.size(), 3u);
  for (const auto& r : replayed) EXPECT_TRUE(r.ok) << r.to_text();
}

TEST(RecordLayerTest, TraceRoundTripsThroughScriptFormat) {
  auto cloud = make_cloud();
  RecordLayer record;
  record.attach(cloud);
  ASSERT_TRUE(record.invoke(create_vpc()).ok);

  std::string script = core::print_trace_script(record.trace());
  core::ScriptError err;
  auto parsed = core::parse_trace_script(script, &err);
  ASSERT_TRUE(parsed) << err.to_text();
  EXPECT_EQ(parsed->calls.size(), 1u);
  EXPECT_EQ(parsed->calls[0].api, "CreateVpc");
}

TEST(RecordLayerTest, ResetStartsAFreshRecording) {
  auto cloud = make_cloud();
  RecordLayer record;
  record.attach(cloud);
  ASSERT_TRUE(record.invoke(create_vpc()).ok);
  record.reset();
  EXPECT_EQ(record.recorded(), 0u);
}

/// Counts invokes that actually reach the wrapped backend.
class CountingBackend final : public CloudBackend {
 public:
  explicit CountingBackend(std::unique_ptr<CloudBackend> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  ApiResponse invoke(const ApiRequest& req) override {
    ++invokes_;
    return inner_->invoke(req);
  }
  void reset() override { inner_->reset(); }
  bool supports(const std::string& api) const override { return inner_->supports(api); }
  Value snapshot() const override { return inner_->snapshot(); }
  std::size_t invokes() const { return invokes_; }

 private:
  std::unique_ptr<CloudBackend> inner_;
  std::size_t invokes_ = 0;
};

TEST(ReadCacheLayerTest, RepeatedDescribesHitTheCache) {
  CountingBackend counting(
      std::make_unique<cloud::ReferenceCloud>(docs::build_aws_catalog()));
  ReadCacheLayer cache;
  cache.attach(counting);

  auto vpc = cache.invoke(create_vpc());
  ASSERT_TRUE(vpc.ok);
  ApiRequest describe{"DescribeVpc", {{"id", *vpc.data.get("id")}}, ""};

  auto first = cache.invoke(describe);
  auto second = cache.invoke(describe);
  auto third = cache.invoke(describe);
  EXPECT_EQ(counting.invokes(), 2u);  // create + ONE describe
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(first.to_text(), second.to_text());
  EXPECT_EQ(first.to_text(), third.to_text());
}

TEST(ReadCacheLayerTest, AnyWriteInvalidates) {
  CountingBackend counting(
      std::make_unique<cloud::ReferenceCloud>(docs::build_aws_catalog()));
  ReadCacheLayer cache;
  cache.attach(counting);

  auto vpc = cache.invoke(create_vpc());
  ASSERT_TRUE(vpc.ok);
  ApiRequest describe{"DescribeVpc", {{"id", *vpc.data.get("id")}}, ""};
  cache.invoke(describe);
  cache.invoke(describe);
  ASSERT_EQ(cache.hits(), 1u);

  // A write (CreateVpc) flushes; the next describe goes to the backend.
  ASSERT_TRUE(cache.invoke(create_vpc("10.1.0.0/16")).ok);
  cache.invoke(describe);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ReadCacheLayerTest, DistinctArgsAreDistinctEntries) {
  auto cloud = make_cloud();
  ReadCacheLayer cache;
  cache.attach(cloud);
  auto a = cache.invoke(create_vpc());
  auto b = cache.invoke(create_vpc("10.1.0.0/16"));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  auto ra = cache.invoke({"DescribeVpc", {{"id", *a.data.get("id")}}, ""});
  auto rb = cache.invoke({"DescribeVpc", {{"id", *b.data.get("id")}}, ""});
  EXPECT_NE(ra.to_text(), rb.to_text());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ReadCacheLayerTest, ReadApiConvention) {
  EXPECT_TRUE(ReadCacheLayer::is_read_api("DescribeVpc"));
  EXPECT_TRUE(ReadCacheLayer::is_read_api("GetItem"));
  EXPECT_TRUE(ReadCacheLayer::is_read_api("ListTables"));
  EXPECT_FALSE(ReadCacheLayer::is_read_api("CreateVpc"));
  EXPECT_FALSE(ReadCacheLayer::is_read_api("DeleteVpc"));
  EXPECT_FALSE(ReadCacheLayer::is_read_api("ModifySubnetAttribute"));
}

TEST(LayerStackTest, BuildStackInstallsCanonicalOrder) {
  auto cloud = make_cloud();
  StackConfig config;
  config.read_cache = true;
  config.record = true;
  config.fault_seed = 9;
  LayerStack stack = build_stack(cloud, config);

  EXPECT_EQ(stack.layer_names(),
            (std::vector<std::string>{"metrics", "fault", "validate", "record",
                                      "read_cache", "serialize"}));
  EXPECT_EQ(stack.name(), "reference-cloud");
  EXPECT_NE(stack.find<MetricsLayer>(), nullptr);
  EXPECT_NE(stack.find<FaultLayer>(), nullptr);
  EXPECT_NE(stack.find<RecordLayer>(), nullptr);
  EXPECT_NE(stack.find<ReadCacheLayer>(), nullptr);
}

TEST(LayerStackTest, EmptyConfigForwardsStraightToBase) {
  auto cloud = make_cloud();
  StackConfig none;
  none.serialize = SerializeMode::kOff;
  none.validate = none.metrics = false;
  LayerStack stack = build_stack(cloud, none);
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.find<MetricsLayer>(), nullptr);
  ASSERT_TRUE(stack.invoke(create_vpc()).ok);
  EXPECT_EQ(cloud.snapshot().as_map().size(), 1u);
}

TEST(LayerStackTest, StackedInvokeFlowsThroughEveryLayer) {
  auto cloud = make_cloud();
  StackConfig config;
  config.read_cache = true;
  config.record = true;
  LayerStack stack = build_stack(cloud, config);

  auto vpc = stack.invoke(create_vpc());
  ASSERT_TRUE(vpc.ok);
  // Wire-shaped id works end to end (validate), is recorded (record),
  // counted (metrics), and repeated describes are served by the cache.
  auto subnet = stack.invoke({"CreateSubnet",
                              {{"vpc", Value(vpc.data.get("id")->as_str())},
                               {"cidr_block", Value("10.0.1.0/24")},
                               {"zone", Value("us-east")}},
                              ""});
  EXPECT_TRUE(subnet.ok) << subnet.to_text();
  ApiRequest describe{"DescribeVpc", {{"id", *vpc.data.get("id")}}, ""};
  stack.invoke(describe);
  stack.invoke(describe);

  EXPECT_EQ(stack.find<MetricsLayer>()->calls(), 4u);
  EXPECT_EQ(stack.find<RecordLayer>()->recorded(), 4u);
  EXPECT_EQ(stack.find<ReadCacheLayer>()->hits(), 1u);
}

TEST(LayerStackTest, CloneCopiesChainAndLayerState) {
  auto cloud = make_cloud();
  StackConfig config;
  config.record = true;
  LayerStack stack = build_stack(cloud, config);
  ASSERT_TRUE(stack.invoke(create_vpc()).ok);

  auto copy = stack.clone();
  ASSERT_NE(copy, nullptr);
  auto* cloned = dynamic_cast<LayerStack*>(copy.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_EQ(cloned->layer_names(), stack.layer_names());
  EXPECT_EQ(cloned->snapshot().to_text(), stack.snapshot().to_text());
  EXPECT_EQ(cloned->find<MetricsLayer>()->calls(), 1u);
  EXPECT_EQ(cloned->find<RecordLayer>()->recorded(), 1u);

  // Divergence after the clone point stays private to each stack.
  ASSERT_TRUE(cloned->invoke(create_vpc("10.1.0.0/16")).ok);
  EXPECT_EQ(cloned->find<MetricsLayer>()->calls(), 2u);
  EXPECT_EQ(stack.find<MetricsLayer>()->calls(), 1u);
  EXPECT_EQ(stack.snapshot().as_map().size(), 1u);
}

TEST(LayerStackTest, CloneReturnsNullWhenBaseCannotClone) {
  class NoClone final : public CloudBackend {
   public:
    std::string name() const override { return "no-clone"; }
    ApiResponse invoke(const ApiRequest&) override { return ApiResponse::success(); }
    void reset() override {}
  };
  NoClone base;
  LayerStack stack = build_stack(base);
  EXPECT_EQ(stack.clone(), nullptr);
}

TEST(LayerStackTest, ClonedFaultStackContinuesTheExactSequence) {
  // Same seed => identical injected fault sequence across clone()d stacks:
  // the clone must carry the RNG position, so original and clone agree on
  // every decision from the clone point onward.
  StackConfig config;
  config.fault_seed = 1234;
  config.fault.throttle_rate = 0.25;
  config.fault.error_rate = 0.25;

  auto cloud = make_cloud();
  LayerStack stack = build_stack(cloud, config);
  fault_decisions(stack, 50);  // advance the sequence

  auto copy = stack.clone();
  ASSERT_NE(copy, nullptr);
  auto continued_original = fault_decisions(stack, 100);
  auto continued_clone = fault_decisions(*copy, 100);
  EXPECT_EQ(continued_original, continued_clone);
}

}  // namespace
}  // namespace lce::stack
