// Workload align-loop (README.md): one op is the paper's §4.3 loop — trace
// generation, differential pass, shrink, repair, until convergence — run on
// a pristine copy of an emulator synthesized from AWS docs with 12%
// injected defects, against cloud::ReferenceCloud, with exactly kWorkers
// differential workers. Set-up is what precedes the first loop: docs
// render, synthesis and plan compile.
//
// The defect draw is a constant, not the run's seed, so the loop's digest
// and its align.* counts can be compared across runs and seeds: the check
// is that every loop's align::canonical_text digest equals the digest of a
// serial (1-worker) alignment of the same emulator. The seed is unused.
//
// Untraced loops call AlignmentEngine::run; align.diff_ms and
// align.diff_traces_per_s come from the RoundStats it reports. The engine
// times no other stage, so traced loops run traced_alignment(), a mirror of
// the engine's loop made from its public parts, with a span around trace
// generation, shrink and repair. The mirror must be kept in step with
// align/engine.cpp: its digest is checked against the same reference as
// the engine's, so the two cannot drift apart unnoticed.
#include <map>
#include <optional>

#include "align/engine.h"
#include "align/parallel.h"
#include "cloud/reference_cloud.h"
#include "common/interned.h"
#include "common/strings.h"
#include "docs/corpus.h"
#include "harness.h"
#include "pipeline.h"
#include "spans.h"

namespace perfbench {

namespace {

using lce::align::AlignmentOptions;
using lce::align::AlignmentReport;

constexpr double kDefectRate = 0.12;
constexpr std::uint64_t kDefectSeed = 31337;
constexpr int kWorkers = 2;
// Set-up takes milliseconds, so each scratch slot repeats it.
constexpr int kSetupReps = 8;

/// Mirror of AlignmentEngine::run (align/engine.cpp) made from the engine's
/// public parts, with spans around trace generation, shrink and repair.
AlignmentReport traced_alignment(lce::interp::Interpreter& emu, lce::CloudBackend& cloud,
                                 const AlignmentOptions& opts) {
  using namespace lce::align;
  using lce::strf;
  AlignmentReport report;
  for (int round = 0; round < opts.max_rounds; ++round) {
    RoundStats stats;
    std::vector<GenTrace> traces;
    {
      SpanScope span("align.tracegen");
      TraceGenerator gen(emu.spec());
      traces = gen.generate_all();
    }
    stats.traces = traces.size();
    for (const auto& g : traces) stats.api_calls += g.trace.calls.size();

    ParallelExecutor executor(cloud, emu, opts.workers, opts.collect_metrics);
    std::vector<TraceOutcome> outcomes = executor.execute(traces);

    std::vector<Discrepancy> found;
    std::map<std::string, StateEvidence> evidence;
    std::map<std::string, std::pair<std::string, std::string>> evidence_site;
    std::map<std::string, std::string> evidence_attr;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const GenTrace& g = traces[i];
      TraceOutcome& o = outcomes[i];
      if (g.cls.kind == ClassKind::kStateSweep && o.have_probe_outcome) {
        std::string key = strf(g.cls.machine, "::", g.cls.transition, "::", g.cls.sweep_attr);
        evidence[key].outcome_by_member[g.cls.sweep_value] = o.probe_outcome;
        evidence_site[key] = {g.cls.machine, g.cls.transition};
        evidence_attr[key] = g.cls.sweep_attr;
      }
      if (g.cls.kind == ClassKind::kHappyPath && o.have_probe_outcome) {
        const lce::spec::StateMachine* m = emu.spec().find_machine(g.cls.machine);
        if (m != nullptr) {
          for (const auto& sv : m->states) {
            std::string member;
            if (sv.type.kind == lce::spec::TypeKind::kEnum && sv.initial.is_str()) {
              member = sv.initial.as_str();
            } else if (sv.type.kind == lce::spec::TypeKind::kBool && sv.initial.is_bool()) {
              member = sv.initial.as_bool() ? "true" : "false";
            } else {
              continue;
            }
            std::string key = strf(g.cls.machine, "::", g.cls.transition, "::", sv.name);
            evidence[key].outcome_by_member[member] = o.probe_outcome;
            evidence_site[key] = {g.cls.machine, g.cls.transition};
            evidence_attr[key] = sv.name;
          }
        }
      }
      if (o.discrepancy) found.push_back(std::move(*o.discrepancy));
    }
    stats.discrepancies = found.size();
    report.log.push_back(strf("round ", round + 1, ": ", traces.size(), " traces, ",
                              stats.api_calls, " calls, ", found.size(), " discrepancies"));
    if (found.empty()) {
      report.converged = true;
      report.rounds.push_back(stats);
      break;
    }
    if (!opts.repair) {
      report.rounds.push_back(stats);
      report.unrepaired = std::move(found);
      break;
    }

    Repairer repairer(emu, cloud);
    std::size_t repaired = 0;
    std::map<std::string, bool> state_checked;
    for (const auto& d : found) {
      if (d.kind != DivergenceKind::kCloudErrEmuOk) continue;
      if (d.cls.kind != ClassKind::kStateSweep && d.cls.kind != ClassKind::kHappyPath) continue;
      for (const auto& [key, ev] : evidence) {
        if (evidence_site[key] != std::make_pair(d.cls.machine, d.cls.transition)) continue;
        if (state_checked[key]) continue;
        StateEvidence enriched = ev;
        if (d.cls.kind == ClassKind::kHappyPath) {
          const lce::spec::StateMachine* m = emu.spec().find_machine(d.cls.machine);
          const lce::spec::StateVar* sv = m != nullptr ? m->find_state(evidence_attr[key]) : nullptr;
          if (sv != nullptr && sv->initial.is_str()) {
            enriched.outcome_by_member[std::string(sv->initial.as_str())] = d.cloud.code;
          } else if (sv != nullptr && sv->initial.is_bool()) {
            enriched.outcome_by_member[sv->initial.as_bool() ? "true" : "false"] = d.cloud.code;
          }
        }
        std::optional<RepairAction> action;
        {
          SpanScope span("align.repair");
          action = repairer.repair_state_check(d.cls.machine, d.cls.transition,
                                               evidence_attr[key], enriched);
        }
        state_checked[key] = true;
        if (action) {
          report.log.push_back("  repair: " + action->to_text());
          report.repairs.push_back(std::move(*action));
          ++repaired;
        }
      }
    }
    for (auto& d : found) {
      Discrepancy current;
      {
        SpanScope span("align.shrink");
        GenTrace probe;
        probe.trace = d.trace;
        probe.cls = d.cls;
        auto still = diff_trace(cloud, emu, probe);
        if (!still) continue;
        current = std::move(*still);
        current.cls = d.cls;
        if (opts.shrink) current = shrink(cloud, emu, std::move(current));
      }
      std::optional<RepairAction> action;
      {
        SpanScope span("align.repair");
        action = repairer.repair(current);
      }
      if (action) {
        report.log.push_back("  repair: " + action->to_text());
        report.repairs.push_back(std::move(*action));
        ++repaired;
      } else {
        report.unrepaired.push_back(std::move(current));
      }
    }
    stats.repairs = repaired;
    report.rounds.push_back(stats);
    if (repaired == 0) break;
    report.unrepaired.clear();
  }
  return report;
}

class AlignLoop final : public Workload {
 public:
  void prepare(const Options& opts, Result& out) override;
  double setup_live() override;
  std::vector<double> setup_scratch() override;
  void measure(double seconds, bool traced) override;
  void finish(const Options& opts, Result& out) override;
  ThreadSplit threads() const override { return {1, 0, kWorkers, 0}; }
  void describe_inputs(Result& out) override;

 private:
  std::unique_ptr<lce::interp::Interpreter> fresh_copy() const;

  Options opts_;
  std::unique_ptr<lce::cloud::ReferenceCloud> reference_cloud_;
  std::unique_ptr<BrokenBackend> broken_;  // --break-backend; no clone, so loops run serially
  lce::CloudBackend* cloud_ = nullptr;     // what the measured loops align against
  std::unique_ptr<lce::interp::Interpreter> pristine_;
  std::uint64_t expected_digest_ = 0;
  AlignmentReport reference_;
  // Loop times in ns. A run holds at most a few hundred loops, so they are
  // kept exactly rather than in a bucketed Histogram.
  std::vector<double> untraced_, traced_;
  // Per untraced loop, from the engine's RoundStats: differential-pass wall
  // time summed over rounds, and traces diffed per second of it.
  std::vector<double> diff_ms_, diff_traces_per_s_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

std::unique_ptr<lce::interp::Interpreter> AlignLoop::fresh_copy() const {
  std::unique_ptr<lce::CloudBackend> c = pristine_->clone();
  return std::unique_ptr<lce::interp::Interpreter>(
      static_cast<lce::interp::Interpreter*>(c.release()));
}

void AlignLoop::prepare(const Options& opts, Result& out) {
  opts_ = opts;
  reference_cloud_ = std::make_unique<lce::cloud::ReferenceCloud>(lce::docs::build_aws_catalog());
  cloud_ = reference_cloud_.get();
  if (opts.break_backend) {
    broken_ = std::make_unique<BrokenBackend>(*reference_cloud_);
    cloud_ = broken_.get();
  }
  // The reference digest: a serial alignment of the same emulator.
  auto emu = build_aws_emulator(kDefectRate, kDefectSeed);
  AlignmentOptions serial;
  serial.workers = 1;
  reference_ = lce::align::AlignmentEngine(*emu, *reference_cloud_, serial).run();
  expected_digest_ = fnv1a(lce::align::canonical_text(reference_));
  out.note("reference alignment: " + std::to_string(reference_.rounds.size()) + " round(s), " +
           std::to_string(reference_.repairs.size()) + " repair(s), converged=" +
           (reference_.converged ? "yes" : "no") + ", digest " + std::to_string(expected_digest_));
}

void AlignLoop::describe_inputs(Result& out) {
  out.note("inputs digest: " + std::to_string(expected_digest_));
  out.set("inputs.rounds", static_cast<double>(reference_.rounds.size()), "count");
  out.set("inputs.repairs", static_cast<double>(reference_.repairs.size()), "count");
}

double AlignLoop::setup_live() {
  std::int64_t t0 = now_ns();
  pristine_ = build_aws_emulator(kDefectRate, kDefectSeed);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::vector<double> AlignLoop::setup_scratch() {
  std::vector<double> out;
  for (int i = 0; i < kSetupReps; ++i) {
    std::int64_t t0 = now_ns();
    auto emu = build_aws_emulator(kDefectRate, kDefectSeed);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return out;
}

void AlignLoop::measure(double seconds, bool traced) {
  AlignmentOptions opts;
  opts.workers = kWorkers;
  spans::set_enabled(traced);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    auto emu = fresh_copy();
    std::int64_t t0 = now_ns();
    AlignmentReport report;
    {
      SpanScope span("align.loop", static_cast<std::uint64_t>(attempted_ + 1));
      report = traced ? traced_alignment(*emu, *cloud_, opts)
                      : lce::align::AlignmentEngine(*emu, *cloud_, opts).run();
    }
    std::int64_t t1 = now_ns();
    (traced ? traced_ : untraced_).push_back(static_cast<double>(t1 - t0));
    if (!traced) {
      double ms = 0, traces = 0;
      for (const auto& r : report.rounds) {
        ms += r.diff_wall_ms;
        traces += static_cast<double>(r.traces);
      }
      diff_ms_.push_back(ms);
      if (ms > 0) diff_traces_per_s_.push_back(traces * 1e3 / ms);
    }
    ++attempted_;
    if (fnv1a(lce::align::canonical_text(report)) != expected_digest_) ++failed_;
  } while (now_ns() < deadline);
  spans::set_enabled(false);
}

void AlignLoop::finish(const Options& opts, Result& out) {
  out.attempted = attempted_;
  out.failed = failed_;
  out.correct = failed_ == 0;
  if (failed_ != 0) {
    out.note(std::to_string(failed_) + " loop(s) produced a report other than the serial reference");
  }
  out.note("time layer not reached: the AWS corpus has no `after` clauses");
  double p50 = median(untraced_);
  out.set("latency_p50_us", p50 / 1e3, "us");
  // One loop at a time: the median loop's rate is the inverse of its duration.
  out.set("ops_s", 1e9 / p50, "1/s");
  std::string spread;
  for (double p : {10, 25, 50, 75, 90}) {
    spread += " p" + std::to_string(static_cast<int>(p)) + "=" +
              std::to_string(static_cast<int>(percentile(untraced_, p) / 1e6)) + "ms";
  }
  out.note("untraced loops: " + std::to_string(untraced_.size()) + ";" + spread);
  if (!opts.trace) return;

  out.set("latency_p99_us", percentile(untraced_, 99) / 1e3, "us");
  out.set("trace_overhead_pct", (median(traced_) / p50 - 1) * 100, "%");
  std::size_t traces = 0, discrepancies = 0;
  for (const auto& r : reference_.rounds) {
    traces += r.traces;
    discrepancies += r.discrepancies;
  }
  out.set("align.rounds", static_cast<double>(reference_.rounds.size()), "count");
  out.set("align.traces", static_cast<double>(traces), "count");
  out.set("align.discrepancies", static_cast<double>(discrepancies), "count");
  out.set("align.repairs", static_cast<double>(reference_.repairs.size()), "count");
  out.set("common.keytable_size", static_cast<double>(lce::KeyTable::instance().size()), "count");

  // Per-loop sums of each stage's time, medians over the traced loops.
  std::vector<Span> all = spans::collect();
  std::map<std::uint64_t, std::map<std::string, double>> per_loop;  // loop span id -> stage -> ms
  std::map<std::uint64_t, std::uint64_t> loop_of;                    // span id -> loop span id
  for (const Span& s : all) {
    if (std::string_view(s.name) == "align.loop") loop_of[s.id] = s.id;
  }
  for (const Span& s : all) {
    auto it = loop_of.find(s.parent);
    if (it == loop_of.end()) continue;
    loop_of[s.id] = it->second;
    per_loop[it->second][s.name] += static_cast<double>(s.dur()) / 1e6;
  }
  std::map<std::string, std::vector<double>> stage;
  for (auto& [loop, stages] : per_loop) {
    for (const char* name : {"align.tracegen", "align.shrink", "align.repair"}) {
      stage[name].push_back(stages[name]);
    }
  }
  out.set("align.tracegen_ms", median(stage["align.tracegen"]), "ms");
  out.set("align.shrink_ms", median(stage["align.shrink"]), "ms");
  out.set("align.repair_ms", median(stage["align.repair"]), "ms");
  out.set("align.diff_ms", median(diff_ms_), "ms");
  out.set("align.diff_traces_per_s", median(diff_traces_per_s_), "1/s");
  out.note("traced loops: " + std::to_string(per_loop.size()) +
           "; repairs recompile the plan inside align.repair; align.diff_* from the engine's "
           "RoundStats of " + std::to_string(diff_ms_.size()) + " untraced loops");
  std::string path = opts.out_dir + "/spans-align-loop-seed" + std::to_string(opts.seed) + ".csv";
  if (spans::write_csv(path, all)) out.note("span dump: " + path);
}

}  // namespace

std::unique_ptr<Workload> make_align_loop() { return std::make_unique<AlignLoop>(); }

}  // namespace perfbench
