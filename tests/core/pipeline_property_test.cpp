// Provider-parameterized pipeline properties: every invariant here must
// hold for ANY documentation corpus the pipeline consumes, so the suite
// runs once per provider (and once with defective docs).
#include <gtest/gtest.h>

#include "align/engine.h"
#include "cloud/reference_cloud.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "spec/checks.h"
#include "spec/parser.h"
#include "spec/printer.h"

namespace lce::core {
namespace {

struct PipelineCase {
  std::string name;
  std::string provider;  // "aws" | "azure"
  double defect_rate;
  std::uint64_t seed;
};

const PipelineCase kCases[] = {
    {"aws_clean", "aws", 0.0, 0},
    {"azure_clean", "azure", 0.0, 0},
    {"aws_defective", "aws", 0.1, 7},
    {"azure_defective", "azure", 0.15, 11},
};

docs::CloudCatalog truth_of(const PipelineCase& c) {
  return c.provider == "azure" ? docs::build_azure_catalog()
                               : docs::build_aws_catalog();
}

docs::CloudCatalog documented_of(const PipelineCase& c) {
  docs::CloudCatalog catalog = truth_of(c);
  if (c.defect_rate > 0) {
    Rng rng(c.seed);
    docs::inject_defects(catalog, c.defect_rate, rng);
  }
  return catalog;
}

// Keyed by case name, not by PipelineCase: gtest prints a struct parameter
// as its raw bytes, heap pointers included, and that text is part of the
// discovered ctest name, so these names stay the same from one build to
// the next.
class PipelineProperty : public ::testing::TestWithParam<std::string> {
 protected:
  const PipelineCase& pipeline_case() const {
    for (const auto& c : kCases) {
      if (c.name == GetParam()) return c;
    }
    ADD_FAILURE() << "unknown pipeline case " << GetParam();
    return kCases[0];
  }
  docs::CloudCatalog truth() const { return truth_of(pipeline_case()); }
  docs::CloudCatalog documented() const { return documented_of(pipeline_case()); }
};

// The wrangle check keeps its own suite name on the same fixture.
using WrangleProperty = PipelineProperty;

TEST_P(WrangleProperty, IsLossless) {
  const PipelineCase& c = pipeline_case();
  auto corpus = docs::render_corpus(documented_of(c));
  auto got = docs::wrangle(corpus);
  EXPECT_TRUE(got.clean());
  EXPECT_EQ(got.catalog.resource_count(), truth_of(c).resource_count());
  EXPECT_EQ(got.catalog.api_count(), truth_of(c).api_count());
}

TEST_P(PipelineProperty, LearnedSpecIsStaticallyClean) {
  auto emu = LearnedEmulator::from_docs(docs::render_corpus(documented()));
  EXPECT_TRUE(emu.synthesis().final_checks.ok());
  EXPECT_TRUE(emu.synthesis().unlinked_stubs.empty());
}

TEST_P(PipelineProperty, LearnedSpecRoundTripsThroughGrammar) {
  auto emu = LearnedEmulator::from_docs(docs::render_corpus(documented()));
  std::string text = spec::print_spec(emu.backend().spec());
  spec::ParseError err;
  auto reparsed = spec::parse_spec(text, &err);
  ASSERT_TRUE(reparsed.has_value()) << err.to_text();
  EXPECT_EQ(spec::print_spec(*reparsed), text);
}

TEST_P(PipelineProperty, EveryDocumentedApiIsEmulated) {
  auto emu = LearnedEmulator::from_docs(docs::render_corpus(documented()));
  auto apis = truth().all_api_names();
  EXPECT_EQ(emu.covered(apis), apis.size());
}

TEST_P(PipelineProperty, AlignmentConvergesAgainstTruth) {
  auto emu = LearnedEmulator::from_docs(docs::render_corpus(documented()));
  cloud::ReferenceCloud cloud(truth());
  align::AlignmentOptions opts;
  opts.max_rounds = 10;
  auto report = emu.align_against(cloud, opts);
  EXPECT_TRUE(report.converged)
      << (report.unrepaired.empty() ? report.log.back()
                                    : report.unrepaired[0].to_text());
  EXPECT_TRUE(report.unrepaired.empty());
}

// §1: "Cloud changes can be captured by re-executing this process
// periodically against the latest documentation versions."
TEST(PipelineEvolution, ReSynthesisTracksDocUpdates) {
  // v1: today's docs.
  auto v1 = docs::build_aws_catalog();
  auto emu = LearnedEmulator::from_docs(docs::render_corpus(v1));
  EXPECT_FALSE(emu.backend().supports("CreateCacheCluster"));

  // v2: the provider ships a new resource and relaxes a bound.
  docs::CloudCatalog v2 = v1;
  {
    docs::ResourceModel cache;
    cache.name = "CacheCluster";
    cache.service = "ec2";
    cache.id_prefix = "cache";
    cache.summary = "An in-memory cache cluster.";
    cache.attrs.push_back(
        docs::AttrModel{"node_count", docs::FieldType::kInt, {}, "", "1"});
    docs::ApiModel create;
    create.name = "CreateCacheCluster";
    create.category = docs::ApiCategory::kCreate;
    create.params.push_back(docs::ParamModel{"node_count", docs::FieldType::kInt, {}, "", true});
    docs::ConstraintModel range;
    range.kind = docs::ConstraintKind::kIntRange;
    range.param = "node_count";
    range.int_lo = 1;
    range.int_hi = 20;
    range.error_code = "LimitExceededException";
    create.constraints.push_back(range);
    docs::EffectModel eff;
    eff.kind = docs::EffectKind::kWriteParam;
    eff.attr = "node_count";
    eff.param = "node_count";
    create.effects.push_back(eff);
    cache.apis.push_back(std::move(create));
    docs::ApiModel del;
    del.name = "DeleteCacheCluster";
    del.category = docs::ApiCategory::kDestroy;
    cache.apis.push_back(std::move(del));
    docs::ApiModel desc;
    desc.name = "DescribeCacheCluster";
    desc.category = docs::ApiCategory::kDescribe;
    cache.apis.push_back(std::move(desc));
    for (auto& svc : v2.services) {
      if (svc.name == "ec2") svc.resources.push_back(std::move(cache));
    }
  }

  // Re-run the pipeline over the new docs: the emulator picks up the new
  // service with no manual work, and still aligns with the new cloud.
  auto emu2 = LearnedEmulator::from_docs(docs::render_corpus(v2));
  EXPECT_TRUE(emu2.synthesis().ok());
  EXPECT_TRUE(emu2.backend().supports("CreateCacheCluster"));
  cloud::ReferenceCloud cloud_v2(v2);
  Trace t;
  t.add("CreateCacheCluster", {{"node_count", Value(3)}});
  t.add("DescribeCacheCluster", {{"id", Value("$0.id")}});
  t.add("CreateCacheCluster", {{"node_count", Value(99)}});  // over the limit
  auto emu_resp = run_trace(emu2.backend(), t);
  auto cloud_resp = run_trace(cloud_v2, t);
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    EXPECT_TRUE(cloud_resp[i].aligned_with(emu_resp[i])) << i;
  }
  EXPECT_EQ(emu_resp[2].code, "LimitExceededException");
}

std::vector<std::string> case_names() {
  std::vector<std::string> names;
  for (const auto& c : kCases) names.push_back(c.name);
  return names;
}

std::string case_name(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(Providers, PipelineProperty,
                         ::testing::ValuesIn(case_names()), case_name);
INSTANTIATE_TEST_SUITE_P(Providers, WrangleProperty,
                         ::testing::ValuesIn(case_names()), case_name);

}  // namespace
}  // namespace lce::core
