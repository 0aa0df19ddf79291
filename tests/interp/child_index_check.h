// Reference check for ResourceStore's per-parent child index.
//
// The scan_* functions are the full-store walks the store answered
// children_of / child_count / siblings_of with before it kept the index:
// every live resource, filtered by parent link (and type), in creation
// order. child_index_mismatch() compares every index answer against that
// reference in one grouped pass, so it stays cheap enough to run after
// every invoke of a long fuzz run.
#pragma once

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "interp/store.h"

namespace lce::interp::testing {

inline std::vector<std::string> scan_children_of(const ResourceStore& s,
                                                 std::string_view parent_id,
                                                 std::string_view type = "") {
  std::vector<std::string> out;
  for (const Resource* r : s.resources_in_creation_order()) {
    if (r->parent_id == parent_id && (type.empty() || r->type == type)) {
      out.push_back(r->id);
    }
  }
  return out;
}

inline std::size_t scan_child_count(const ResourceStore& s, std::string_view parent_id,
                                    std::string_view type = "") {
  std::size_t n = 0;
  for (const Resource* r : s.resources_in_creation_order()) {
    if (r->parent_id == parent_id && (type.empty() || r->type == type)) ++n;
  }
  return n;
}

inline std::vector<std::string> scan_siblings_of(const ResourceStore& s,
                                                 std::string_view id) {
  const Resource* self = s.find(id);
  if (self == nullptr) return {};
  std::vector<std::string> out;
  for (const Resource* r : s.resources_in_creation_order()) {
    if (r->id == id) continue;
    if (r->type == self->type && r->parent_id == self->parent_id) out.push_back(r->id);
  }
  return out;
}

namespace detail {

inline std::string join(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + v[i];
  return out + "]";
}

}  // namespace detail

/// "" when every child-index answer equals the scan reference (order
/// included); otherwise a description of the first difference. Probes
/// the top level, every live id, every parent a link names (live or
/// dangling) and a never-minted id — each unfiltered, per child type and
/// with an absent type — and siblings_of for every contained resource
/// plus one top-level resource per type (top-level siblings are a scan
/// in the store too, and probing them all would be quadratic).
inline std::string child_index_mismatch(const ResourceStore& s) {
  std::map<std::string, std::vector<const Resource*>> by_parent;
  std::vector<const Resource*> order = s.resources_in_creation_order();
  for (const Resource* r : order) by_parent[r->parent_id].push_back(r);
  std::set<std::string> probes{"", "no-such-parent-00000001"};
  for (const Resource* r : order) probes.insert(r->id);
  for (const auto& [p, _] : by_parent) probes.insert(p);

  std::ostringstream diff;
  auto expected = [&](const std::string& parent, const std::string& type) {
    std::vector<std::string> out;
    auto it = by_parent.find(parent);
    if (it == by_parent.end()) return out;
    for (const Resource* r : it->second) {
      if (type.empty() || r->type == type) out.push_back(r->id);
    }
    return out;
  };
  for (const std::string& p : probes) {
    std::set<std::string> types{"", "NoSuchType"};
    if (auto it = by_parent.find(p); it != by_parent.end()) {
      for (const Resource* r : it->second) types.insert(r->type);
    }
    for (const std::string& t : types) {
      std::vector<std::string> want = expected(p, t);
      std::vector<std::string> got = s.children_of(p, t);
      if (got != want) {
        diff << "children_of(" << p << ", " << t << ") = " << detail::join(got)
             << ", scan says " << detail::join(want);
        return diff.str();
      }
      if (s.child_count(p, t) != want.size()) {
        diff << "child_count(" << p << ", " << t << ") = " << s.child_count(p, t)
             << ", scan says " << want.size();
        return diff.str();
      }
    }
  }
  std::set<std::string> top_level_probed;
  for (const Resource* r : order) {
    if (r->parent_id.empty() && !top_level_probed.insert(r->type).second) continue;
    std::vector<std::string> want;
    for (const std::string& id : expected(r->parent_id, r->type)) {
      if (id != r->id) want.push_back(id);
    }
    std::vector<std::string> got = s.siblings_of(r->id);
    if (got != want) {
      diff << "siblings_of(" << r->id << ") = " << detail::join(got) << ", scan says "
           << detail::join(want);
      return diff.str();
    }
  }
  if (!s.siblings_of("no-such-id-00000001").empty()) {
    return "siblings_of(missing) not empty";
  }
  return "";
}

}  // namespace lce::interp::testing
