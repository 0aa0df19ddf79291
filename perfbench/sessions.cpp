#include "sessions.h"

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "pipeline.h"
#include "stack/config.h"
#include "stack/layers.h"

namespace perfbench {

using lce::ApiRequest;
using lce::ApiResponse;
using lce::Value;

void SessionPool::build(lce::interp::Interpreter& planner, std::uint64_t seed, std::size_t count) {
  {
    lce::align::TraceGenerator gen(planner.spec());
    corpus_ = gen.generate_all();
  }
  for (const auto& m : planner.spec().machines) {
    MachineApis apis;
    for (const auto& t : m.transitions) {
      if (t.kind == lce::spec::TransitionKind::kDescribe && apis.describe.empty()) {
        apis.describe = t.name;
      } else if (t.kind == lce::spec::TransitionKind::kDestroy && apis.destroy.empty()) {
        apis.destroy = t.name;
      }
    }
    if (!apis.describe.empty() && !apis.destroy.empty()) machines_[m.name] = apis;
  }
  for (const auto& m : planner.spec().machines) {
    auto it = machines_.find(m.name);
    for (const auto& t : m.transitions) {
      OpClass c = OpClass::kModify;
      if (lce::stack::ReadCacheLayer::is_read_api(t.name)) {
        c = OpClass::kRead;
      } else if (t.kind == lce::spec::TransitionKind::kCreate) {
        c = OpClass::kCreate;
        if (it != machines_.end()) by_api_[t.name] = &it->second;
      } else if (t.kind == lce::spec::TransitionKind::kDestroy) {
        c = OpClass::kDelete;
      }
      classes_[t.name] = c;
    }
  }

  prepopulate(planner);
  account_size_ = planner.store().size();
  Value snap = planner.snapshot();
  for (const auto& [id, res] : snap.as_map()) {
    const Value* type = res.get("type");
    if (type == nullptr) continue;
    auto it = machines_.find(std::string(type->as_str()));
    if (it != machines_.end()) targets_.push_back(Target{std::string(id), &it->second});
  }

  // Each draw is replayed once, in process, through the default stack the
  // endpoint serves, which records its expected outcomes; a leaking draw's
  // leftovers stay in the oracle copy only.
  std::unique_ptr<lce::CloudBackend> oracle_copy = planner.clone();
  lce::stack::LayerStack oracle = lce::stack::build_stack(*oracle_copy, lce::stack::StackConfig{});
  auto& oracle_store = static_cast<lce::interp::Interpreter&>(*oracle_copy).store();
  lce::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  while (sessions_.size() < count) {
    Session s;
    s.trace = rng.uniform(corpus_.size());
    const lce::Trace& trace = corpus_[s.trace].trace;
    std::vector<Step> body;
    std::vector<std::size_t> creates;
    for (std::size_t c = 0; c < trace.calls.size(); ++c) {
      body.push_back({Step::Kind::kCall, c});
      if (by_api_.count(trace.calls[c].api) != 0) {
        body.push_back({Step::Kind::kObserve, c});
        creates.push_back(c);
      }
    }
    for (auto it = creates.rbegin(); it != creates.rend(); ++it) {
      body.push_back({Step::Kind::kTeardown, *it});
    }
    // Look-arounds first: reads / (reads + writes) reaches kSessionReadShare.
    double reads = 0, writes = 0;
    for (const Step& st : body) {
      bool read = st.kind == Step::Kind::kObserve ||
                  (st.kind == Step::Kind::kCall && classify(trace.calls[st.index].api) == OpClass::kRead);
      (read ? reads : writes) += 1;
    }
    double looks = (kSessionReadShare * writes - (1 - kSessionReadShare) * reads) /
                   (1 - kSessionReadShare);
    for (long k = 0; k < std::lround(looks); ++k) {
      s.steps.push_back({Step::Kind::kLook, rng.uniform(targets_.size())});
    }
    s.steps.insert(s.steps.end(), body.begin(), body.end());

    std::size_t before = oracle_store.size();
    std::vector<ApiResponse> prior(trace.calls.size());
    for (const Step& st : s.steps) {
      ApiRequest req = request(s, st, prior);
      s.classes.push_back(classify(req.api));
      ApiResponse resp = oracle.invoke(req);
      s.expected.push_back(resp.ok ? "" : resp.code);
      if (st.kind == Step::Kind::kCall) prior[st.index] = std::move(resp);
    }
    if (oracle_store.size() == before) sessions_.push_back(std::move(s));
    ++draws_;
  }
}

void SessionPool::prepopulate(lce::CloudBackend& backend) const {
  for (const auto& g : corpus_) replay(backend, g.trace);
}

ApiRequest SessionPool::request(const Session& s, const Step& st,
                                const std::vector<ApiResponse>& prior) const {
  const lce::Trace& trace = corpus_[s.trace].trace;
  ApiRequest req;
  auto id_of = [&](std::size_t call) {
    const Value* id = prior[call].ok ? prior[call].data.get("id") : nullptr;
    return id != nullptr ? *id : Value();
  };
  switch (st.kind) {
    case Step::Kind::kLook:
      req = look_request(st.index);
      break;
    case Step::Kind::kCall:
      req = lce::resolve_placeholders(trace.calls[st.index], prior);
      break;
    case Step::Kind::kObserve:
      req.api = by_api_.at(trace.calls[st.index].api)->describe;
      req.args["id"] = id_of(st.index);
      break;
    case Step::Kind::kTeardown:
      req.api = by_api_.at(trace.calls[st.index].api)->destroy;
      req.args["id"] = id_of(st.index);
      break;
  }
  return req;
}

ApiRequest SessionPool::look_request(std::size_t target) const {
  const Target& t = targets_[target % targets_.size()];
  ApiRequest req;
  req.api = t.apis->describe;
  req.args["id"] = Value::ref(t.id);
  return req;
}

OpClass SessionPool::classify(const std::string& api) const {
  auto it = classes_.find(api);
  return it != classes_.end() ? it->second : OpClass::kModify;
}

std::string ClassCounts::shares() const {
  std::uint64_t total = n[0] + n[1] + n[2] + n[3];
  std::string out;
  for (int i = 0; i < 4; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%s %.1f%%", i == 0 ? "" : ", ", kOpClassNames[i],
                  total == 0 ? 0.0 : 100.0 * static_cast<double>(n[i]) / static_cast<double>(total));
    out += buf;
  }
  return out;
}

std::string SessionPool::digest_text() const {
  std::string text = std::to_string(account_size_) + "|";
  for (const Session& s : sessions_) {
    text += std::to_string(s.trace) + ":";
    for (std::size_t k = 0; k < s.steps.size(); ++k) {
      text += std::to_string(static_cast<int>(s.steps[k].kind)) + "." +
              std::to_string(s.steps[k].index) + "=" + s.expected[k] + ";";
    }
  }
  return text;
}

}  // namespace perfbench
