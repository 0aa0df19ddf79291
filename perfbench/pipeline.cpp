#include "pipeline.h"

#include "docs/corpus.h"
#include "docs/defects.h"
#include "docs/render.h"
#include "interp/decoder.h"
#include "spans.h"
#include "spec/checks.h"
#include "synth/synthesizer.h"

namespace perfbench {

std::unique_ptr<lce::interp::Interpreter> build_aws_emulator(double rate,
                                                             std::uint64_t defect_seed) {
  lce::docs::DocCorpus corpus;
  {
    SpanScope span("docs.render");
    lce::docs::CloudCatalog catalog = lce::docs::build_aws_catalog();
    if (rate > 0) {
      lce::Rng rng(defect_seed);
      lce::docs::inject_defects(catalog, rate, rng);
    }
    corpus = lce::docs::render_corpus(catalog);
  }
  lce::synth::SynthesisResult synthesis;
  {
    SpanScope span("synth.synthesize");
    synthesis = lce::synth::synthesize(corpus, lce::synth::SynthesisOptions{});
  }
  if (spans::enabled()) {
    SpanScope span("spec.checks");
    lce::spec::run_checks(synthesis.spec);
  }
  SpanScope span("interp.compile");
  lce::interp::InterpreterOptions iopts;
  iopts.decoder = lce::interp::make_rich_decoder();
  return std::make_unique<lce::interp::Interpreter>(std::move(synthesis.spec), iopts);
}

void replay(lce::CloudBackend& backend, const lce::Trace& trace) {
  std::vector<lce::ApiResponse> prior(trace.calls.size());
  for (std::size_t i = 0; i < trace.calls.size(); ++i) {
    prior[i] = backend.invoke(lce::resolve_placeholders(trace.calls[i], prior));
  }
}

}  // namespace perfbench
