#include "interp/store.h"

#include <algorithm>
#include <utility>

namespace lce::interp {

namespace {

/// Collect-and-sort helper: iteration surfaces (children_of, all_of_type,
/// snapshot) gather (seq, id) pairs across shards and order by seq, which
/// reproduces the single-vector creation order of the pre-sharded store.
using SeqId = std::pair<std::uint64_t, const Resource*>;

void sort_by_seq(std::vector<SeqId>& v) {
  std::sort(v.begin(), v.end(),
            [](const SeqId& a, const SeqId& b) { return a.first < b.first; });
}

/// Where `r` sits in a child list ordered by (seq, id). Seq alone is
/// unique in any store built through create(); the id tie-break keeps
/// hand-restored stores ordered too.
template <typename List>
auto child_position(List& list, const Resource& r) {
  return std::lower_bound(list.begin(), list.end(), r,
                          [](const auto& c, const Resource& x) {
                            return c.seq != x.seq ? c.seq < x.seq : c.id < x.id;
                          });
}

}  // namespace

ResourceStore::ResourceStore(std::size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count),
      children_(shards_.size()),
      locks_(shards_.size()) {}

ResourceStore::ResourceStore(const ResourceStore& o)
    : shards_(o.shards_), children_(o.children_), timers_(o.timers_), ids_(o.ids_),
      next_seq_(o.next_seq_), locks_(o.shards_.size()) {}

ResourceStore& ResourceStore::operator=(const ResourceStore& o) {
  if (this == &o) return *this;
  shards_ = o.shards_;
  children_ = o.children_;
  timers_ = o.timers_;
  ids_ = o.ids_;
  next_seq_ = o.next_seq_;
  if (locks_.shard_count() != o.shards_.size()) {
    locks_ = StripedRwLock(o.shards_.size());
  }
  return *this;
}

std::map<std::string, Resource>& ResourceStore::shard_for(std::string_view id) {
  return shards_[shard_of(id)];
}

const std::map<std::string, Resource>& ResourceStore::shard_for(
    std::string_view id) const {
  return shards_[shard_of(id)];
}

const ResourceStore::ChildList* ResourceStore::children_list(
    std::string_view parent_id) const {
  const auto& index = children_[shard_of(parent_id)];
  auto it = index.find(parent_id);
  return it == index.end() ? nullptr : &it->second;
}

void ResourceStore::index_link(const Resource& r) {
  if (r.parent_id.empty()) return;
  ChildList& list = children_[shard_of(r.parent_id)][r.parent_id];
  list.insert(child_position(list, r), Child{r.seq, r.id, r.type});
}

void ResourceStore::index_unlink(const Resource& r) {
  if (r.parent_id.empty()) return;
  auto& index = children_[shard_of(r.parent_id)];
  auto it = index.find(r.parent_id);
  if (it == index.end()) return;
  ChildList& list = it->second;
  auto pos = child_position(list, r);
  if (pos != list.end() && pos->id == r.id) list.erase(pos);
  if (list.empty()) index.erase(it);
}

void ResourceStore::relink(Resource& child, std::string_view parent_id) {
  if (child.parent_id == parent_id) return;
  index_unlink(child);
  child.parent_id = std::string(parent_id);
  index_link(child);
}

std::string ResourceStore::mint_id(std::string_view id_prefix) {
  std::lock_guard<std::mutex> lock(mint_mu_);
  return ids_.next(id_prefix.empty() ? "res" : id_prefix);
}

std::uint64_t ResourceStore::id_counter(std::string_view id_prefix) const {
  std::lock_guard<std::mutex> lock(mint_mu_);
  return ids_.current(id_prefix.empty() ? "res" : id_prefix);
}

void ResourceStore::rewind_id(std::string_view id_prefix,
                              std::uint64_t counter_before) {
  std::lock_guard<std::mutex> lock(mint_mu_);
  std::string_view prefix = id_prefix.empty() ? "res" : id_prefix;
  // Only un-mint when ours was the latest mint; otherwise a concurrent
  // transition already holds a higher id and rewinding would reissue it.
  if (ids_.current(prefix) == counter_before + 1) {
    ids_.set_counter(prefix, counter_before);
  }
}

Resource& ResourceStore::create_with_id(std::string id, std::string_view type) {
  Resource r;
  r.id = id;
  r.type = std::string(type);
  {
    std::lock_guard<std::mutex> lock(mint_mu_);
    r.seq = next_seq_++;
  }
  auto [it, _] = shard_for(id).emplace(std::move(id), std::move(r));
  return it->second;
}

Resource& ResourceStore::create(std::string_view type, std::string_view id_prefix) {
  return create_with_id(mint_id(id_prefix), type);
}

Resource* ResourceStore::find(std::string_view id) {
  auto& shard = shard_for(id);
  auto it = shard.find(std::string(id));
  return it == shard.end() ? nullptr : &it->second;
}

const Resource* ResourceStore::find(std::string_view id) const {
  const auto& shard = shard_for(id);
  auto it = shard.find(std::string(id));
  return it == shard.end() ? nullptr : &it->second;
}

bool ResourceStore::attach(std::string_view child_id, std::string_view parent_id) {
  Resource* child = find(child_id);
  if (child == nullptr || !exists(parent_id)) return false;
  // Containment must stay a forest: walking up from the proposed parent
  // must never reach the child (covers self-attach as the first step).
  for (const Resource* p = find(parent_id); p != nullptr; p = find(p->parent_id)) {
    if (p->id == child_id) return false;
  }
  relink(*child, parent_id);
  return true;
}

bool ResourceStore::attach_created(std::string_view child_id,
                                   std::string_view parent_id) {
  if (child_id == parent_id) return false;
  Resource* child = find(child_id);
  const Resource* parent = find(parent_id);
  if (child == nullptr || parent == nullptr) return false;
  // No cycle walk: the caller guarantees `child_id` was created inside
  // the current transition, and a resource whose id has never been
  // visible outside its (still exclusively held) shard cannot be anyone's
  // ancestor. Attaches of pre-existing children go through attach() with
  // every shard held.
  relink(*child, parent_id);
  return true;
}

bool ResourceStore::destroy(std::string_view id) {
  // Copy first: callers may pass a view into the Resource being erased
  // (e.g. `self->id`), which dies with the map node.
  std::string key(id);
  auto& shard = shard_for(key);
  auto it = shard.find(key);
  if (it == shard.end()) return false;
  index_unlink(it->second);
  shard.erase(it);
  // Promote any unreclaimed children to top level: a parent_id must always
  // name a live resource (or be empty), else children_of/siblings_of and
  // snapshot() would report links into the void.
  auto& index = children_[shard_of(key)];
  if (auto kids = index.find(key); kids != index.end()) {
    for (const Child& c : kids->second) {
      if (Resource* child = find(c.id)) child->parent_id.clear();
    }
    index.erase(kids);
  }
  return true;
}

bool ResourceStore::erase_raw(std::string_view id) {
  std::string key(id);
  auto& shard = shard_for(key);
  auto it = shard.find(key);
  if (it == shard.end()) return false;
  index_unlink(it->second);
  shard.erase(it);
  return true;
}

void ResourceStore::restore(Resource r) {
  // Journal before-images may carry arena-backed attribute blocks (they
  // were copied mid-request); the store outlives the request, so pin the
  // tree to the heap before it lands.
  r.attrs.detach();
  auto& shard = shard_for(r.id);
  auto it = shard.find(r.id);
  if (it == shard.end()) {
    index_link(r);
    std::string key = r.id;
    shard.emplace(std::move(key), std::move(r));
    return;
  }
  Resource& live = it->second;
  if (live.parent_id != r.parent_id) {
    index_unlink(live);
    index_link(r);
  }
  live = std::move(r);
}

std::vector<std::string> ResourceStore::top_level_of(std::string_view type,
                                                     std::string_view except) const {
  std::vector<SeqId> hits;
  for (const auto& shard : shards_) {
    for (const auto& [_, r] : shard) {
      if (r.parent_id.empty() && (type.empty() || r.type == type) && r.id != except) {
        hits.emplace_back(r.seq, &r);
      }
    }
  }
  sort_by_seq(hits);
  std::vector<std::string> out;
  out.reserve(hits.size());
  for (const auto& [_, r] : hits) out.push_back(r->id);
  return out;
}

std::vector<std::string> ResourceStore::children_of(std::string_view parent_id,
                                                    std::string_view type) const {
  if (parent_id.empty()) return top_level_of(type);
  std::vector<std::string> out;
  if (const ChildList* list = children_list(parent_id)) {
    for (const Child& c : *list) {
      if (type.empty() || c.type == type) out.push_back(c.id);
    }
  }
  return out;
}

std::size_t ResourceStore::child_count(std::string_view parent_id,
                                       std::string_view type) const {
  if (parent_id.empty()) return top_level_of(type).size();
  const ChildList* list = children_list(parent_id);
  if (list == nullptr) return 0;
  if (type.empty()) return list->size();
  return static_cast<std::size_t>(std::count_if(
      list->begin(), list->end(), [&](const Child& c) { return c.type == type; }));
}

std::vector<std::string> ResourceStore::siblings_of(std::string_view id) const {
  const Resource* self = find(id);
  if (self == nullptr) return {};
  if (self->parent_id.empty()) return top_level_of(self->type, self->id);
  std::vector<std::string> out;
  if (const ChildList* list = children_list(self->parent_id)) {
    for (const Child& c : *list) {
      if (c.type == self->type && c.id != self->id) out.push_back(c.id);
    }
  }
  return out;
}

std::vector<std::string> ResourceStore::all_of_type(std::string_view type) const {
  std::vector<SeqId> hits;
  for (const auto& shard : shards_) {
    for (const auto& [_, r] : shard) {
      if (r.type == type) hits.emplace_back(r.seq, &r);
    }
  }
  sort_by_seq(hits);
  std::vector<std::string> out;
  out.reserve(hits.size());
  for (const auto& [_, r] : hits) out.push_back(r->id);
  return out;
}

std::size_t ResourceStore::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.size();
  return n;
}

void ResourceStore::clear() {
  for (auto& shard : shards_) shard.clear();
  for (auto& index : children_) index.clear();
  timers_.clear();
  std::lock_guard<std::mutex> lock(mint_mu_);
  ids_.reset();
  next_seq_ = 1;
}

std::uint64_t ResourceStore::next_seq() const {
  std::lock_guard<std::mutex> lock(mint_mu_);
  return next_seq_;
}

void ResourceStore::set_next_seq(std::uint64_t v) {
  std::lock_guard<std::mutex> lock(mint_mu_);
  next_seq_ = v;
}

std::map<std::string, std::uint64_t> ResourceStore::id_counters() const {
  std::lock_guard<std::mutex> lock(mint_mu_);
  return {ids_.counters().begin(), ids_.counters().end()};
}

void ResourceStore::restore_id_counters(
    const std::map<std::string, std::uint64_t>& counters) {
  std::lock_guard<std::mutex> lock(mint_mu_);
  ids_.reset();
  for (const auto& [prefix, value] : counters) ids_.set_counter(prefix, value);
}

void ResourceStore::set_id_counter(std::string_view id_prefix,
                                   std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mint_mu_);
  ids_.set_counter(id_prefix.empty() ? "res" : id_prefix, value);
}

std::vector<const Resource*> ResourceStore::resources_in_creation_order() const {
  std::vector<SeqId> all;
  for (const auto& shard : shards_) {
    for (const auto& [_, r] : shard) all.emplace_back(r.seq, &r);
  }
  sort_by_seq(all);
  std::vector<const Resource*> out;
  out.reserve(all.size());
  for (const auto& [_, r] : all) out.push_back(r);
  return out;
}

Value ResourceStore::snapshot() const {
  std::vector<SeqId> all;
  for (const auto& shard : shards_) {
    for (const auto& [_, r] : shard) all.emplace_back(r.seq, &r);
  }
  sort_by_seq(all);
  Value::Map out;
  for (const auto& [_, rp] : all) {
    const Resource& r = *rp;
    Value::Map entry;
    entry["type"] = Value(r.type);
    if (!r.parent_id.empty()) entry["parent"] = Value::ref(r.parent_id);
    for (const auto& [k, v] : r.attrs.as_map()) entry[std::string(k)] = v;
    out[r.id] = Value(std::move(entry));
  }
  return Value(std::move(out));
}

}  // namespace lce::interp
