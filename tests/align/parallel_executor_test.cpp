// Determinism contract of the parallel differential-execution engine
// (src/align/parallel.h): for ANY worker count, the alignment loop must
// produce a report byte-identical to the serial engine's — same
// discrepancies in the same order, same repairs, same log. The contract is
// what lets `--workers N` be a pure performance knob.
#include "align/parallel.h"

#include <gtest/gtest.h>

#include <memory>

#include "align/engine.h"
#include "align/trace_gen.h"
#include "cloud/reference_cloud.h"
#include "common/thread_pool.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "interp/interpreter.h"
#include "persist/journal.h"
#include "persist/persist_test_util.h"
#include "stack/config.h"
#include "stack/layers.h"

namespace lce::align {
namespace {

// The seeded defective-docs AWS corpus: the emulator synthesized from it
// genuinely diverges from the reference cloud, so the differential pass
// has real discrepancies to find and order.
docs::DocCorpus seeded_corpus() {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(31337);
  docs::inject_defects(defective, 0.12, rng);
  return docs::render_corpus(defective);
}

AlignmentReport align_with_workers(const docs::DocCorpus& corpus, int workers,
                                   bool repair = true) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = core::LearnedEmulator::from_docs(corpus);
  AlignmentOptions opts;
  opts.workers = workers;
  opts.repair = repair;
  return emu.align_against(cloud, opts);
}

TEST(ParallelExecutor, OutcomesMatchSerialElementwise) {
  auto corpus = seeded_corpus();
  auto emu = core::LearnedEmulator::from_docs(corpus);
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());

  TraceGenerator gen(emu.backend().spec());
  std::vector<GenTrace> traces = gen.generate_all();
  ASSERT_GT(traces.size(), 100u);

  ParallelExecutor serial(cloud, emu.backend(), 1);
  auto want = serial.execute(traces);
  EXPECT_EQ(serial.effective_workers(), 1);

  ParallelExecutor parallel(cloud, emu.backend(), 4);
  auto got = parallel.execute(traces);
  EXPECT_EQ(parallel.effective_workers(), 4);

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].discrepancy.has_value(), got[i].discrepancy.has_value())
        << "trace " << i << " (" << traces[i].trace.label << ")";
    if (want[i].discrepancy && got[i].discrepancy) {
      EXPECT_EQ(want[i].discrepancy->to_text(), got[i].discrepancy->to_text());
      EXPECT_EQ(want[i].discrepancy->call_index, got[i].discrepancy->call_index);
    }
    EXPECT_EQ(want[i].have_probe_outcome, got[i].have_probe_outcome);
    EXPECT_EQ(want[i].probe_outcome, got[i].probe_outcome);
  }
}

TEST(ParallelExecutor, ExecutionLeavesRealBackendsUntouched) {
  auto corpus = seeded_corpus();
  auto emu = core::LearnedEmulator::from_docs(corpus);
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());

  // Seed some state the parallel pass must not disturb (workers replay
  // against clones, never the originals).
  auto r = cloud.invoke({"CreateVpc", {{"cidr_block", Value("10.0.0.0/16")}}, ""});
  ASSERT_TRUE(r.ok);
  std::string cloud_before = cloud.snapshot().to_text();

  TraceGenerator gen(emu.backend().spec());
  std::vector<GenTrace> traces = gen.generate_all();
  ParallelExecutor parallel(cloud, emu.backend(), 4);
  parallel.execute(traces);
  ASSERT_EQ(parallel.effective_workers(), 4);

  EXPECT_EQ(cloud.snapshot().to_text(), cloud_before);
}

// A backend that cannot clone: the executor must fall back to serial
// execution rather than fail or skip traces.
class NonCloneable final : public CloudBackend {
 public:
  explicit NonCloneable(std::unique_ptr<CloudBackend> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  ApiResponse invoke(const ApiRequest& req) override { return inner_->invoke(req); }
  void reset() override { inner_->reset(); }
  bool supports(const std::string& api) const override { return inner_->supports(api); }
  Value snapshot() const override { return inner_->snapshot(); }
  // No clone() override: inherits the nullptr default.

 private:
  std::unique_ptr<CloudBackend> inner_;
};

TEST(ParallelExecutor, FallsBackToSerialWhenBackendCannotClone) {
  auto corpus = seeded_corpus();
  auto emu = core::LearnedEmulator::from_docs(corpus);
  NonCloneable cloud(std::make_unique<cloud::ReferenceCloud>(docs::build_aws_catalog()));

  TraceGenerator gen(emu.backend().spec());
  std::vector<GenTrace> traces = gen.generate_all();

  ParallelExecutor exec(cloud, emu.backend(), 4);
  auto got = exec.execute(traces);
  EXPECT_EQ(exec.effective_workers(), 1);  // graceful serial fallback

  cloud::ReferenceCloud plain_cloud(docs::build_aws_catalog());
  ParallelExecutor serial(plain_cloud, emu.backend(), 1);
  auto want = serial.execute(traces);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].discrepancy.has_value(), got[i].discrepancy.has_value());
    EXPECT_EQ(want[i].probe_outcome, got[i].probe_outcome);
  }
}

TEST(ParallelAlignment, ReportIdenticalAcrossWorkerCounts) {
  auto corpus = seeded_corpus();

  AlignmentReport serial = align_with_workers(corpus, 1);
  ASSERT_GT(serial.total_discrepancies(), 0u);
  ASSERT_FALSE(serial.repairs.empty());
  std::string want = canonical_text(serial);

  AlignmentReport four = align_with_workers(corpus, 4);
  EXPECT_EQ(canonical_text(four), want);

  AlignmentReport hw = align_with_workers(corpus, ThreadPool::hardware_workers());
  EXPECT_EQ(canonical_text(hw), want);
}

TEST(ParallelAlignment, DetectionOnlyReportIdenticalAndOrdered) {
  auto corpus = seeded_corpus();

  AlignmentReport serial = align_with_workers(corpus, 1, /*repair=*/false);
  AlignmentReport parallel = align_with_workers(corpus, 4, /*repair=*/false);

  // Detection mode keeps every discrepancy: orderings must match exactly.
  ASSERT_EQ(serial.unrepaired.size(), parallel.unrepaired.size());
  ASSERT_GT(serial.unrepaired.size(), 0u);
  for (std::size_t i = 0; i < serial.unrepaired.size(); ++i) {
    EXPECT_EQ(serial.unrepaired[i].to_text(), parallel.unrepaired[i].to_text());
  }
  EXPECT_EQ(canonical_text(serial), canonical_text(parallel));
}

TEST(ParallelAlignment, RepeatedRunsAreStable) {
  auto corpus = seeded_corpus();
  AlignmentReport a = align_with_workers(corpus, 4);
  AlignmentReport b = align_with_workers(corpus, 4);
  EXPECT_EQ(canonical_text(a), canonical_text(b));
}

TEST(ParallelAlignment, PlanRebuildAfterRepairIsDeterministic) {
  // Each repair round swaps the spec and recompiles the execution plan
  // (interp/plan). The rebuild must be invisible to the determinism
  // contract — identical reports at every worker count — and the repaired
  // emulator must keep serving through the fresh plan afterwards.
  auto corpus = seeded_corpus();

  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = core::LearnedEmulator::from_docs(corpus);
  AlignmentOptions opts;
  opts.workers = 4;
  opts.repair = true;
  AlignmentReport parallel = emu.align_against(cloud, opts);
  ASSERT_GT(parallel.repairs.size(), 0u);

  AlignmentReport serial = align_with_workers(corpus, 1, /*repair=*/true);
  EXPECT_EQ(canonical_text(serial), canonical_text(parallel));

  auto resp =
      emu.backend().invoke({"CreateVpc", {{"cidr_block", Value("10.9.0.0/16")}}, ""});
  EXPECT_TRUE(resp.ok) << resp.to_text();
}

TEST(ParallelAlignment, RoundStatsRecordThroughputCounters) {
  auto corpus = seeded_corpus();
  AlignmentReport r = align_with_workers(corpus, 2, /*repair=*/false);
  ASSERT_FALSE(r.rounds.empty());
  EXPECT_EQ(r.rounds[0].workers, 2);
  EXPECT_GT(r.rounds[0].diff_wall_ms, 0.0);
  EXPECT_GT(r.rounds[0].traces_per_sec, 0.0);
  // Timings must never leak into the determinism contract: perturbing the
  // performance counters must not change the canonical serialization.
  AlignmentReport perturbed = r;
  perturbed.rounds[0].diff_wall_ms = 12345.0;
  perturbed.rounds[0].traces_per_sec = 1.0;
  perturbed.rounds[0].workers = 99;
  perturbed.rounds[0].metrics = Value(Value::Map{{"cloud", Value("perturbed")}});
  EXPECT_EQ(canonical_text(perturbed), canonical_text(r));
}

// --- lce::stack interop ----------------------------------------------------
// The whole point of BackendLayer::clone() forwarding: a cloud wrapped in
// Serialize+Metrics must behave exactly like the bare cloud in the parallel
// alignment loop — full worker fan-out, byte-identical canonical report.

AlignmentReport align_layered(const docs::DocCorpus& corpus, int workers) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  stack::StackConfig cfg;
  cfg.validate = false;  // Serialize + Metrics, the acceptance configuration
  stack::LayerStack layered = stack::build_stack(cloud, cfg);
  auto emu = core::LearnedEmulator::from_docs(corpus);
  AlignmentOptions opts;
  opts.workers = workers;
  return emu.align_against(layered, opts);
}

TEST(ParallelStackClone, LayeredBackendDoesNotForceSerialFallback) {
  // The retired server::SerializedBackend adapter inherited clone() ==
  // nullptr, silently degrading the executor to serial whenever the cloud
  // was wrapped for thread-safety. The layer stack clones its whole chain.
  auto corpus = seeded_corpus();
  auto emu = core::LearnedEmulator::from_docs(corpus);
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  stack::LayerStack layered = stack::build_stack(cloud);

  TraceGenerator gen(emu.backend().spec());
  std::vector<GenTrace> traces = gen.generate_all();
  ParallelExecutor exec(layered, emu.backend(), 4);
  exec.execute(traces);
  EXPECT_EQ(exec.effective_workers(), 4);
  // Workers replayed against clones: the shared stack saw no traffic.
  EXPECT_EQ(layered.find<stack::MetricsLayer>()->calls(), 0u);
}

TEST(ParallelStackAlignment, LayeredReportIdenticalAcrossWorkerCounts) {
  auto corpus = seeded_corpus();

  AlignmentReport serial = align_layered(corpus, 1);
  ASSERT_GT(serial.total_discrepancies(), 0u);
  ASSERT_FALSE(serial.repairs.empty());
  std::string want = canonical_text(serial);

  EXPECT_EQ(canonical_text(align_layered(corpus, 4)), want);
  EXPECT_EQ(canonical_text(align_layered(corpus, ThreadPool::hardware_workers())), want);

  // The layers are pure pass-through for alignment semantics: the layered
  // report matches the bare-backend report byte for byte.
  EXPECT_EQ(want, canonical_text(align_with_workers(corpus, 1)));
}

TEST(ParallelStackAlignment, MetricsCollectionIsDeterministicAndInvisible) {
  auto corpus = seeded_corpus();

  auto align_counted = [&](int workers) {
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    auto emu = core::LearnedEmulator::from_docs(corpus);
    AlignmentOptions opts;
    opts.workers = workers;
    opts.collect_metrics = true;
    return emu.align_against(cloud, opts);
  };
  AlignmentReport serial = align_counted(1);
  AlignmentReport parallel = align_counted(4);

  // Collection changes nothing about the report...
  EXPECT_EQ(canonical_text(serial), canonical_text(parallel));
  EXPECT_EQ(canonical_text(serial), canonical_text(align_with_workers(corpus, 1)));

  // ...and the call/error counters themselves are deterministic: the same
  // invokes happen regardless of sharding (latency histograms are not
  // compared — wall time is explicitly outside the contract).
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  ASSERT_FALSE(serial.rounds.empty());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    for (const char* side : {"cloud", "emulator"}) {
      const Value* a = serial.rounds[i].metrics.get(side);
      const Value* b = parallel.rounds[i].metrics.get(side);
      ASSERT_NE(a, nullptr) << side << " round " << i;
      ASSERT_NE(b, nullptr) << side << " round " << i;
      EXPECT_EQ(a->get("total")->get("calls")->as_int(),
                b->get("total")->get("calls")->as_int())
          << side << " round " << i;
      EXPECT_EQ(a->get("total")->get("errors")->as_int(),
                b->get("total")->get("errors")->as_int())
          << side << " round " << i;
    }
    EXPECT_GT(serial.rounds[i].metrics.get("cloud")->get("total")->get("calls")->as_int(),
              0);
  }
}

// A journaled durable stack (every write appended to a live WAL) must be
// invisible to the differential pass: outcomes byte-identical to the bare
// interpreter, for both pipeline shapes (compiled plan / tree-walk) and
// any worker count. Serial execution journals every write; parallel
// workers execute on clones, whose journal layer detaches from the WAL,
// so the parallel pass must leave the log untouched.
TEST(ParallelExecutor, JournaledStackOutcomesMatchBareBackend) {
  auto corpus = seeded_corpus();
  for (bool use_plan : {true, false}) {
    SCOPED_TRACE(use_plan ? "plan" : "tree");
    core::PipelineOptions popts;
    popts.use_plan = use_plan;
    auto emu = core::LearnedEmulator::from_docs(corpus, popts);
    cloud::ReferenceCloud cloud(docs::build_aws_catalog());
    TraceGenerator gen(emu.backend().spec());
    std::vector<GenTrace> traces = gen.generate_all();
    ASSERT_GT(traces.size(), 100u);

    ParallelExecutor bare(cloud, emu.backend(), 1);
    auto want = bare.execute(traces);

    persist::testing::ScratchDir dir;
    persist::PersistOptions po;
    po.data_dir = dir.path();
    std::string error;
    auto mgr = persist::PersistManager::open(emu.backend(), po, &error);
    ASSERT_NE(mgr, nullptr) << error;

    stack::StackConfig cfg;
    cfg.metrics = false;
    cfg.validate = false;  // traces are already normalized
    cfg.journal = [&mgr] {
      return std::make_unique<persist::JournalLayer>(mgr.get());
    };

    std::uint64_t serial_records = 0;
    for (int workers : {1, 4}) {
      SCOPED_TRACE(workers);
      stack::LayerStack journaled = stack::build_stack(emu.backend(), cfg);
      ParallelExecutor exec(cloud, journaled, workers);
      auto got = exec.execute(traces);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].discrepancy.has_value(), got[i].discrepancy.has_value())
            << "trace " << i << " (" << traces[i].trace.label << ")";
        if (want[i].discrepancy && got[i].discrepancy) {
          EXPECT_EQ(want[i].discrepancy->to_text(), got[i].discrepancy->to_text());
        }
        EXPECT_EQ(want[i].have_probe_outcome, got[i].have_probe_outcome);
        EXPECT_EQ(want[i].probe_outcome, got[i].probe_outcome) << "trace " << i;
      }
      if (workers == 1) {
        serial_records = mgr->status().wal_records;
        EXPECT_GT(serial_records, 0u);
      } else {
        EXPECT_EQ(mgr->status().wal_records, serial_records);
      }
    }
  }
}

}  // namespace
}  // namespace lce::align
