// Trace generation's two speed-ups, pinned to the answers they replace:
//
//  * ParallelTraceGen — generate_all(workers) fans the per-transition
//    batches out over threads; the joined corpus and GenStats must equal a
//    serial run's for every worker count, and the executor's probe
//    outcomes (now read from the differential pass's single cloud replay)
//    must equal a fresh cloud replay's. Suite names match the TSan
//    selection (scripts/ci_env.sh).
//  * SpecIndexReference — the SpecIndex a generator builds once must give,
//    for every (machine, attr), exactly the back-references and machine
//    lookups that the per-trace spec scans it replaced give, order
//    included. The scans live on below as the reference.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "align/engine.h"
#include "align/parallel.h"
#include "align/trace_gen.h"
#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "spec/parser.h"
#include "spec/spec_fixtures.h"

namespace lce::align {
namespace {

spec::SpecSet parse(const char* src) {
  spec::ParseError err;
  auto s = spec::parse_spec(src, &err);
  EXPECT_TRUE(s.has_value()) << err.to_text();
  return s ? std::move(*s) : spec::SpecSet{};
}

docs::CloudCatalog catalog(const std::string& provider, bool defective) {
  docs::CloudCatalog c =
      provider == "azure" ? docs::build_azure_catalog() : docs::build_aws_catalog();
  if (defective) {
    Rng rng(31337);
    docs::inject_defects(c, 0.12, rng);
  }
  return c;
}

struct NamedSpec {
  std::string name;
  spec::SpecSet spec;
};

/// The learned aws/azure specs from clean and defective docs, plus the
/// timer fixture.
const std::vector<NamedSpec>& learned_specs() {
  static const std::vector<NamedSpec> kSpecs = [] {
    std::vector<NamedSpec> out;
    for (const char* provider : {"aws", "azure"}) {
      for (bool defective : {false, true}) {
        auto emu = core::LearnedEmulator::from_docs(
            docs::render_corpus(catalog(provider, defective)));
        out.push_back({strf(provider, defective ? "-defective" : "-clean"),
                       emu.backend().spec().clone()});
      }
    }
    out.push_back({"timer", parse(spec::fixtures::kTimerSpec)});
    return out;
  }();
  return kSpecs;
}

// ------------------------------------------------------ ParallelTraceGen --

std::string trace_text(const Trace& t) {
  std::string out;
  for (const auto& call : t.calls) out += strf(call.to_text(), " @", call.target, "\n");
  return out;
}

void expect_same_corpus(const std::vector<GenTrace>& want, const GenStats& want_stats,
                        const std::vector<GenTrace>& got, const GenStats& got_stats) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const GenTrace& a = want[i];
    const GenTrace& b = got[i];
    EXPECT_EQ(a.trace.label, b.trace.label) << "trace " << i;
    EXPECT_EQ(trace_text(a.trace), trace_text(b.trace)) << a.trace.label;
    EXPECT_EQ(a.probe_call, b.probe_call) << a.trace.label;
    EXPECT_EQ(a.cls.kind, b.cls.kind) << a.trace.label;
    EXPECT_EQ(a.cls.machine, b.cls.machine) << a.trace.label;
    EXPECT_EQ(a.cls.transition, b.cls.transition) << a.trace.label;
    EXPECT_EQ(a.cls.assert_index, b.cls.assert_index) << a.trace.label;
    EXPECT_EQ(a.cls.expected_code, b.cls.expected_code) << a.trace.label;
    EXPECT_EQ(a.cls.description, b.cls.description) << a.trace.label;
    EXPECT_EQ(a.cls.sweep_attr, b.cls.sweep_attr) << a.trace.label;
    EXPECT_EQ(a.cls.sweep_value, b.cls.sweep_value) << a.trace.label;
    EXPECT_EQ(a.cls.sweep_param, b.cls.sweep_param) << a.trace.label;
    EXPECT_EQ(a.cls.bound_param, b.cls.bound_param) << a.trace.label;
    EXPECT_EQ(a.cls.bound_value, b.cls.bound_value) << a.trace.label;
    EXPECT_EQ(a.cls.member_param, b.cls.member_param) << a.trace.label;
    EXPECT_EQ(a.cls.member_value, b.cls.member_value) << a.trace.label;
  }
  EXPECT_EQ(want_stats.classes_total, got_stats.classes_total);
  EXPECT_EQ(want_stats.classes_concretized, got_stats.classes_concretized);
  EXPECT_EQ(want_stats.skipped, got_stats.skipped);  // order included
}

TEST(ParallelTraceGen, CorpusAndStatsMatchSerialAtEveryWorkerCount) {
  for (const NamedSpec& s : learned_specs()) {
    SCOPED_TRACE(s.name);
    // The serial corpus, built without generate_all's join: one
    // generate_for per transition, in spec order.
    TraceGenerator serial(s.spec);
    std::vector<GenTrace> want;
    for (const auto& m : s.spec.machines) {
      for (const auto& t : m.transitions) {
        for (auto& g : serial.generate_for(m.name, t.name)) want.push_back(std::move(g));
      }
    }
    ASSERT_FALSE(want.empty());
    for (int workers : {0, 1, 2, 3, 4, 8}) {
      SCOPED_TRACE(workers);
      TraceGenerator gen(s.spec);
      std::vector<GenTrace> got = gen.generate_all(workers);
      expect_same_corpus(want, serial.stats(), got, gen.stats());
    }
  }
}

TEST(ParallelTraceGen, StatsAccumulateAcrossCallsLikeSerial) {
  // generate_for and generate_all both add to the generator's stats; a
  // parallel generate_all must append after earlier calls, in order.
  const spec::SpecSet& spec = learned_specs().front().spec;
  TraceGenerator serial(spec);
  serial.generate_for("Subnet", "CreateSubnet");
  serial.generate_all();
  TraceGenerator parallel(spec);
  parallel.generate_for("Subnet", "CreateSubnet");
  parallel.generate_all(4);
  EXPECT_EQ(serial.stats().classes_total, parallel.stats().classes_total);
  EXPECT_EQ(serial.stats().classes_concretized, parallel.stats().classes_concretized);
  EXPECT_EQ(serial.stats().skipped, parallel.stats().skipped);
}

TEST(ParallelTraceGen, ProbeOutcomesEqualAFreshCloudReplay) {
  // The differential pass replays the cloud once per trace and reads the
  // probe outcome from those replies; it must equal what a second, fresh
  // cloud replay of the same trace reports.
  for (const char* provider : {"aws", "azure"}) {
    SCOPED_TRACE(provider);
    auto emu = core::LearnedEmulator::from_docs(
        docs::render_corpus(catalog(provider, /*defective=*/true)));
    cloud::ReferenceCloud cloud(catalog(provider, /*defective=*/false));
    TraceGenerator gen(emu.backend().spec());
    std::vector<GenTrace> traces = gen.generate_all(4);

    for (int workers : {1, 4}) {
      SCOPED_TRACE(workers);
      ParallelExecutor exec(cloud, emu.backend(), workers);
      std::vector<TraceOutcome> outcomes = exec.execute(traces);
      ASSERT_EQ(outcomes.size(), traces.size());
      std::size_t probed = 0;
      for (std::size_t i = 0; i < traces.size(); ++i) {
        const GenTrace& g = traces[i];
        bool wants = (g.cls.kind == ClassKind::kStateSweep ||
                      g.cls.kind == ClassKind::kHappyPath) &&
                     g.probe_call < g.trace.calls.size();
        ASSERT_EQ(outcomes[i].have_probe_outcome, wants) << g.trace.label;
        if (!wants) continue;
        ++probed;
        ApiResponse fresh = run_trace(cloud, g.trace)[g.probe_call];
        EXPECT_EQ(outcomes[i].probe_outcome, fresh.ok ? "" : fresh.code) << g.trace.label;
      }
      EXPECT_GT(probed, 0u);
    }
  }
}

// ---------------------------------------------------- SpecIndexReference --

bool is_internal_transition(const std::string& name) { return ends_with(name, "BackRef"); }

/// Reference: the per-call scan the generator ran before the index — does
/// `t` contain (possibly inside an if) a call whose callee on
/// `target_machine` writes `attr`?
bool transition_backrefs_attr(const spec::SpecSet& spec, const spec::Transition& t,
                              const std::string& target_machine, const std::string& attr) {
  const spec::StateMachine* target = spec.find_machine(target_machine);
  if (target == nullptr) return false;
  std::function<bool(const spec::Body&)> scan = [&](const spec::Body& body) {
    for (const auto& s : body) {
      if (s->kind == spec::StmtKind::kCall) {
        const spec::Transition* callee = target->find_transition(s->callee);
        if (callee != nullptr) {
          for (const auto& cs : callee->body) {
            if (cs->kind == spec::StmtKind::kWrite && cs->var == attr) return true;
          }
        }
      }
      if (s->kind == spec::StmtKind::kIf && (scan(s->then_body) || scan(s->else_body))) {
        return true;
      }
    }
    return false;
  };
  return scan(t.body);
}

/// Reference: drive_attr's former family-3 loop, collecting its candidates.
std::vector<std::pair<const spec::StateMachine*, const spec::Transition*>> scan_backrefs(
    const spec::SpecSet& spec, const std::string& machine, const std::string& attr) {
  std::vector<std::pair<const spec::StateMachine*, const spec::Transition*>> out;
  for (const auto& other : spec.machines) {
    if (other.name == machine) continue;
    for (const auto& t : other.transitions) {
      if (is_internal_transition(t.name)) continue;
      if (!transition_backrefs_attr(spec, t, machine, attr)) continue;
      out.emplace_back(&other, &t);
    }
  }
  return out;
}

/// Every attribute name the spec mentions: state vars and written vars.
std::set<std::string> all_attrs(const spec::SpecSet& spec) {
  std::set<std::string> out;
  std::function<void(const spec::Body&)> walk = [&](const spec::Body& body) {
    for (const auto& s : body) {
      if (s->kind == spec::StmtKind::kWrite) out.insert(s->var);
      walk(s->then_body);
      walk(s->else_body);
    }
  };
  for (const auto& m : spec.machines) {
    for (const auto& sv : m.states) out.insert(sv.name);
    for (const auto& t : m.transitions) walk(t.body);
  }
  out.insert("no-such-attr");
  return out;
}

/// Index == scan for every machine name (plus an unknown one) and attr.
/// Returns how many non-empty back-reference lists were compared.
std::size_t expect_index_matches_scan(const spec::SpecSet& spec) {
  SpecIndex index(spec);
  std::vector<std::string> names;
  for (const auto& m : spec.machines) names.push_back(m.name);
  names.push_back("NoSuchMachine");
  std::set<std::string> attrs = all_attrs(spec);
  std::size_t nonempty = 0;
  for (const std::string& name : names) {
    EXPECT_EQ(index.machine(name), spec.find_machine(name)) << name;
    for (const std::string& attr : attrs) {
      auto want = scan_backrefs(spec, name, attr);
      const auto& got = index.backrefs(name, attr);
      EXPECT_EQ(got.size(), want.size()) << name << "." << attr;
      if (got.size() != want.size()) continue;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].owner, want[i].first) << name << "." << attr << " #" << i;
        EXPECT_EQ(got[i].transition, want[i].second) << name << "." << attr << " #" << i;
      }
      if (!want.empty()) ++nonempty;
    }
  }
  return nonempty;
}

// Calls in then- and else-branches, at the top level, from an internal
// (…BackRef) transition that must not count, and a callee name two
// machines share, so every rule of the reference scan decides some answer.
constexpr const char* kBackrefSpec = R"SPEC(
sm Nic {
  service "ec2";
  id_prefix "eni";
  states {
    public_ip: ref Eip;
    label: str;
    mode: enum(A, B) = "A";
  }
  transitions {
    create CreateNic() {
    }
    modify AttachBackRef(peer: ref Eip) {
      write(public_ip, peer);
    }
    modify LabelBackRef(v: str) {
      write(label, v);
      if (is_null(v)) {
        write(mode, B);
      }
    }
    describe DescribeNic() {
    }
    destroy DeleteNic() {
    }
  }
}

sm Eip {
  service "ec2";
  id_prefix "eip";
  states {
    nic: ref Nic;
    label: str;
    mode: enum(A, B) = "A";
  }
  transitions {
    create AllocateEip() {
    }
    modify Associate(nic: ref Nic) {
      write(nic, nic);
      if (is_null(nic)) {
        write(mode, A);
      } else {
        call(nic, AttachBackRef, self);
      }
    }
    modify Relabel(nic: ref Nic) {
      if (!is_null(nic)) {
        call(nic, LabelBackRef, "x");
      }
    }
    modify SyncBackRef(nic: ref Nic) {
      call(nic, LabelBackRef, "y");
    }
    modify LabelBackRef(v: str) {
      write(label, v);
    }
  }
}

sm Tagger {
  service "ec2";
  id_prefix "tag";
  states {
    target: ref Nic;
  }
  transitions {
    create CreateTagger() {
    }
    modify TagAll(nic: ref Nic) {
      call(nic, LabelBackRef, "t");
      call(nic, AttachBackRef, self);
    }
  }
}
)SPEC";

TEST(SpecIndexReference, HandWrittenSpecCoversEveryScanRule) {
  spec::SpecSet spec = parse(kBackrefSpec);
  ASSERT_EQ(spec.machines.size(), 3u);
  EXPECT_GT(expect_index_matches_scan(spec), 0u);

  // Spot checks of what the rules above must produce.
  SpecIndex index(spec);
  const auto& ip = index.backrefs("Nic", "public_ip");  // else-branch + top level
  ASSERT_EQ(ip.size(), 2u);
  EXPECT_EQ(ip[0].transition->name, "Associate");
  EXPECT_EQ(ip[1].transition->name, "TagAll");
  const auto& label = index.backrefs("Nic", "label");  // SyncBackRef filtered out
  ASSERT_EQ(label.size(), 2u);
  EXPECT_EQ(label[0].transition->name, "Relabel");
  EXPECT_EQ(label[1].transition->name, "TagAll");
  // Eip's own LabelBackRef is reached by Tagger's call by name alone.
  EXPECT_EQ(index.backrefs("Eip", "label").size(), 1u);
  // Only a callee's top-level writes count, not those nested in an if.
  EXPECT_TRUE(index.backrefs("Nic", "mode").empty());
  EXPECT_TRUE(index.backrefs("Nic", "no-such-attr").empty());
  EXPECT_TRUE(index.backrefs("NoSuchMachine", "label").empty());
}

TEST(SpecIndexReference, LearnedSpecsMatchTheScan) {
  std::size_t nonempty = 0;
  for (const NamedSpec& s : learned_specs()) {
    SCOPED_TRACE(s.name);
    nonempty += expect_index_matches_scan(s.spec);
  }
  EXPECT_GT(nonempty, 0u);  // the aws specs carry AssociateAddress
}

TEST(SpecIndexReference, RepairedSpecsMatchTheScan) {
  // Repairs add asserts and state checks; the index a later round builds
  // must still match the scan on the spec the loop leaves behind.
  for (const char* provider : {"aws", "azure"}) {
    SCOPED_TRACE(provider);
    auto emu = core::LearnedEmulator::from_docs(
        docs::render_corpus(catalog(provider, /*defective=*/true)));
    cloud::ReferenceCloud cloud(catalog(provider, /*defective=*/false));
    AlignmentOptions opts;
    opts.workers = 2;
    AlignmentReport report = emu.align_against(cloud, opts);
    ASSERT_FALSE(report.repairs.empty());
    expect_index_matches_scan(emu.backend().spec());
  }
}

}  // namespace
}  // namespace lce::align
