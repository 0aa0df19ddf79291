// Serial-vs-parallel speedup curve for the alignment loop's two parallel
// stages, trace generation and the differential pass. For each worker
// count the bench runs a detection-only alignment round over the full AWS
// symbolic-trace corpus on a defective-docs emulator, reports the pass's
// wall clock / throughput / speedup beside the whole round's (generation
// + pass, from RoundStats' stage clocks), and cross-checks the determinism
// contract: every worker count must produce a report byte-identical to
// the serial engine's.
//
// Exit status reflects ONLY the determinism check: the speedups it prints
// are what this host measured, and they vary widely between machines.
#include <iostream>
#include <vector>

#include "align/engine.h"
#include "cloud/reference_cloud.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/emulator.h"
#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"

using namespace lce;

namespace {

align::AlignmentReport run_once(const docs::DocCorpus& corpus, int workers,
                                bool repair) {
  cloud::ReferenceCloud cloud(docs::build_aws_catalog());
  auto emu = core::LearnedEmulator::from_docs(corpus);
  align::AlignmentOptions opts;
  opts.workers = workers;
  opts.repair = repair;
  if (!repair) opts.max_rounds = 1;
  return emu.align_against(cloud, opts);
}

double pass_wall_ms(const align::AlignmentReport& r) {
  double ms = 0;
  for (const auto& round : r.rounds) ms += round.diff_wall_ms;
  return ms;
}

double round_wall_ms(const align::AlignmentReport& r) {
  double ms = 0;
  for (const auto& round : r.rounds) ms += round.tracegen_ms + round.diff_wall_ms;
  return ms;
}

}  // namespace

int main() {
  docs::CloudCatalog defective = docs::build_aws_catalog();
  Rng rng(31337);
  auto plan = docs::inject_defects(defective, 0.12, rng);
  auto corpus = docs::render_corpus(defective);

  int hw = ThreadPool::hardware_workers();
  std::cout << "=== Parallel alignment: serial-vs-parallel speedup curve ===\n";
  std::cout << "  corpus: full AWS catalog, " << plan.defects.size()
            << " injected doc defects; hardware concurrency " << hw << "\n\n";

  // Detection-only rounds isolate the differential pass (no spec mutation),
  // which is exactly what the executor parallelises.
  std::vector<int> counts = {1, 2, 4};
  if (hw > 4) counts.push_back(hw);

  align::AlignmentReport serial = run_once(corpus, 1, /*repair=*/false);
  double serial_ms = pass_wall_ms(serial);
  double serial_round_ms = round_wall_ms(serial);
  std::string serial_canon = align::canonical_text(serial);

  auto ratio = [](double base, double ms) { return ms > 0 ? base / ms : 0.0; };
  bool all_identical = true;
  std::string measured;
  TextTable table({"workers", "pass ms", "traces/s", "pass speedup", "round ms",
                   "round speedup", "report"});
  for (int w : counts) {
    align::AlignmentReport r = w == 1 ? serial : run_once(corpus, w, /*repair=*/false);
    double ms = pass_wall_ms(r);
    double round_ms = round_wall_ms(r);
    bool same = align::canonical_text(r) == serial_canon;
    all_identical = all_identical && same;
    double tps = ms > 0 ? static_cast<double>(r.rounds[0].traces) * 1000.0 / ms : 0;
    table.add_row({std::to_string(r.rounds[0].workers), fixed(ms, 1), fixed(tps, 0),
                   strf(fixed(ratio(serial_ms, ms), 2), "x"), fixed(round_ms, 1),
                   strf(fixed(ratio(serial_round_ms, round_ms), 2), "x"),
                   same ? "identical" : "DIVERGED"});
    if (w > 1) {
      measured += strf(measured.empty() ? "" : "; ", r.rounds[0].workers, " workers ",
                       fixed(ratio(serial_ms, ms), 2), "x pass / ",
                       fixed(ratio(serial_round_ms, round_ms), 2), "x round");
    }
  }
  std::cout << table.render();

  // Full repair loop: parallel differential pass + serial repairs must
  // still converge to the very same report.
  std::cout << "\n=== Determinism across the full repair loop ===\n";
  align::AlignmentReport full_serial = run_once(corpus, 1, /*repair=*/true);
  align::AlignmentReport full_par = run_once(corpus, 4, /*repair=*/true);
  bool full_same = align::canonical_text(full_serial) == align::canonical_text(full_par);
  all_identical = all_identical && full_same;
  std::cout << "workers=1 vs workers=4 full alignment report: "
            << (full_same ? "identical" : "DIVERGED") << " ("
            << full_serial.repairs.size() << " repairs, converged="
            << (full_serial.converged ? "yes" : "no") << ")\n";

  std::cout << "\nMeasured on this host (" << hw << " hardware threads): " << measured
            << ". Speedups are not gated: they vary widely between machines. "
               "The report is byte-identical at every worker count.\n";
  return all_identical ? 0 : 1;
}
