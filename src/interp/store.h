// The mock-cloud resource store shared by every backend in the repo: live
// resource instances with attributes plus the containment hierarchy
// (parent/child links) that the paper's SM hierarchy scopes its checks to.
//
// Concurrency model (DESIGN.md "Sharded resource store"): resources are
// partitioned across shards keyed by id family + counter hash, with one
// shared_mutex stripe per shard (`locks()`). The store itself does NOT
// take shard locks around data operations — the caller owns the locking
// protocol, because only the caller (the interpreter's transition planner)
// knows a whole transition's footprint:
//
//   - read-only ops        caller holds lock_shared_all()
//   - known-footprint writes  caller holds lock_exclusive({touched shards})
//   - dynamic-footprint writes caller holds lock_exclusive_all()
//   - create-attaches      caller holds the child's and parent's shards
//                          exclusively and uses attach_created() (no
//                          cycle walk — a fresh child cannot be an
//                          ancestor); every other attach is planned as a
//                          dynamic-footprint write and uses attach()
//
// Serial callers (tests, the reference cloud behind SerializeLayer, the
// alignment loop's per-worker clones) may skip locking entirely — the
// sharded layout is semantics-preserving. Id minting and the creation-
// order sequence counter ARE internally synchronized (mint_mu_), so id
// sequences stay deterministic no matter how transitions interleave.
//
// Child index: every resource with a non-empty parent_id has one entry
// (seq, id, type) in its parent's seq-ordered child list, and nothing
// else is indexed. The list lives in the PARENT's shard and is written
// only while that shard is held exclusively — attach_created() holds it,
// attach()/destroy() run write-all, erase_raw() undoes a create-attach
// under the same locks, and restore() touches the index only when it
// reinstates a resource or changes its link. So child_count(self[, type])
// and children_of(self) read self's shard alone, siblings_of(id) reads
// the parent's, and destroy's promotion costs O(children). Top-level
// resources are not indexed (every create would write one shared list);
// the "" parent queries still scan. The index is derived state: it never
// reaches snapshot(), the persist codec or canonical dumps, and copy,
// assignment, clone() and clear() carry it along.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/shard_lock.h"
#include "common/value.h"
#include "time/service.h"

namespace lce::interp {

struct Resource {
  std::string id;
  std::string type;       // resource type name, e.g. "Vpc"
  // Containment parent ("" = top-level). Only ResourceStore writes it
  // (attach, attach_created, destroy's promotion, restore): the child
  // index mirrors it, so a direct write through find() would desync them.
  std::string parent_id;
  // Attribute map in Value's compact interned-key representation: the
  // compiled-plan executor reads and writes state vars by KeyId, so the
  // former per-resource slot-pointer cache is gone — the map IS the fast
  // path, and stays the single source of truth for snapshots, canonical
  // dumps and the persist codec. Always map-kind (renders as {}).
  Value attrs = Value::empty_map();
  std::uint64_t seq = 0;  // store-wide creation stamp (iteration order)
};

class ResourceStore {
 public:
  explicit ResourceStore(std::size_t shard_count = StripedRwLock::kDefaultShards);

  /// Deep copies: resources, containment links, creation sequence AND the
  /// id counters (a clone's future id sequence matches the original's —
  /// the parallel alignment executor depends on this for determinism).
  /// Lock state is NOT copied; the copy gets fresh, unheld stripes.
  ResourceStore(const ResourceStore& o);
  ResourceStore& operator=(const ResourceStore& o);

  /// Create a resource of `type`, minting an id with `id_prefix`.
  Resource& create(std::string_view type, std::string_view id_prefix);

  /// Mint the next id for `id_prefix` without creating the resource —
  /// concurrent transitions mint BEFORE taking shard locks so the new
  /// resource's shard can be part of the ordered acquisition set.
  std::string mint_id(std::string_view id_prefix);
  /// Create under a previously minted id (see mint_id).
  Resource& create_with_id(std::string id, std::string_view type);
  /// Undo a mint during rollback: restores `id_prefix`'s counter to
  /// `counter_before` — but only when no other mint happened since, so a
  /// concurrent mint never gets its id reissued. Serial callers always
  /// satisfy that condition, keeping rolled-back id sequences gap-free.
  void rewind_id(std::string_view id_prefix, std::uint64_t counter_before);
  /// Counter value a mint_id for `id_prefix` would increment from.
  std::uint64_t id_counter(std::string_view id_prefix) const;

  Resource* find(std::string_view id);
  const Resource* find(std::string_view id) const;
  bool exists(std::string_view id) const { return find(id) != nullptr; }

  /// Link `child_id` under `parent_id`. Returns false when either is gone,
  /// or when the link would create a containment cycle (attaching a node
  /// under itself or under one of its own descendants).
  bool attach(std::string_view child_id, std::string_view parent_id);

  /// attach() for a child CREATED in the current transition, with both
  /// the child's and parent's shards exclusively held. Skips the cycle
  /// walk entirely: a freshly minted resource's id was never visible
  /// outside its still-held shard, so it cannot already be an ancestor of
  /// anything — and the walk's out-of-order shard probes would violate
  /// the ascending acquisition rule. Attaches of pre-existing children
  /// must use attach() with every shard held (the interpreter plans those
  /// transitions as write-all).
  bool attach_created(std::string_view child_id, std::string_view parent_id);

  /// Remove a resource. Returns false when missing. Callers normally
  /// enforce children-reclaimed guards first; if live children remain they
  /// are detached to top level so no dangling parent link survives.
  bool destroy(std::string_view id);

  /// Remove without child promotion — rollback of a create that never had
  /// children (transaction journal only).
  bool erase_raw(std::string_view id);
  /// Reinstate a resource exactly as captured (id, links, attrs, seq) —
  /// rollback of a destroy or of attribute writes (transaction journal),
  /// and snapshot load. Any order is fine: a child may be restored before
  /// its parent. A live id must come back with its own seq and type (a
  /// before-image does); when its link is unchanged too, the child index
  /// is left alone, so a write-local rollback needs only its own shard.
  void restore(Resource r);

  /// Ids of live children of `parent_id` in creation order, optionally
  /// filtered by type. O(children) for a non-empty parent (reads only
  /// its shard); "" scans every top-level resource.
  std::vector<std::string> children_of(std::string_view parent_id,
                                       std::string_view type = "") const;

  /// Live children count; same cost and shard as children_of.
  std::size_t child_count(std::string_view parent_id, std::string_view type = "") const;

  /// Live resources of `type` sharing a containment parent with `id`
  /// (excluding `id` itself), in creation order. Top-level resources are
  /// each other's siblings (a scan); a contained resource reads its
  /// parent's child list.
  std::vector<std::string> siblings_of(std::string_view id) const;

  /// All live resources of `type` in creation order.
  std::vector<std::string> all_of_type(std::string_view type) const;

  std::size_t size() const;

  void clear();

  /// Full state snapshot: id -> {type, parent, attrs...}, creation order.
  Value snapshot() const;

  /// Deep copy (see copy constructor). Callers in concurrent contexts
  /// hold lock_shared_all() across the copy (Interpreter::clone does).
  ResourceStore clone() const { return *this; }

  // ------------------------------------------------------- persistence --
  // Introspection + restore hooks for the durable-state subsystem
  // (src/persist). Snapshot files must capture everything that shapes
  // future behavior — the seq clock and the id counters, not just the
  // live resources — so a restored store mints the exact sequence the
  // original would have. Restore-side callers are serial (recovery runs
  // before the endpoint serves); dump-side callers hold lock_shared_all.

  /// The creation stamp the next create would receive.
  std::uint64_t next_seq() const;
  void set_next_seq(std::uint64_t v);

  /// Every id counter (prefix -> last minted value).
  std::map<std::string, std::uint64_t> id_counters() const;
  void restore_id_counters(const std::map<std::string, std::uint64_t>& counters);
  /// Force a single counter (replay uses this to pin the id a logged call
  /// minted, even when concurrent commits landed in the log out of mint
  /// order). Unlike rewind_id there is no latest-mint guard — replay is
  /// serial and KNOWS the target value.
  void set_id_counter(std::string_view id_prefix, std::uint64_t value);

  /// Live resources ordered by creation seq. Pointers are invalidated by
  /// any subsequent mutation.
  std::vector<const Resource*> resources_in_creation_order() const;

  // --------------------------------------------------------- virtual time --
  /// The store's delayed-transition service (timer wheel + virtual clock).
  /// Travels with the store so clones, snapshots and recovery see the same
  /// armed timers the resources imply. Internally synchronized (leaf
  /// mutex); acquire shard stripes BEFORE touching it, never after.
  vtime::TimerService& timers() { return timers_; }
  const vtime::TimerService& timers() const { return timers_; }

  // ----------------------------------------------------- lock protocol --
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(std::string_view id) const {
    return shard_index_for_id(id, shards_.size());
  }
  /// The stripe table callers acquire through (mutable: locking a shard
  /// of a const store is still a read).
  StripedRwLock& locks() const { return locks_; }

 private:
  /// One child-index entry; a ChildList is ordered by (seq, id).
  struct Child {
    std::uint64_t seq;
    std::string id;
    std::string type;
  };
  using ChildList = std::vector<Child>;
  /// Per-shard parent id -> children, keyed by the PARENT's shard.
  using ChildIndex = std::map<std::string, ChildList, std::less<>>;

  std::map<std::string, Resource>& shard_for(std::string_view id);
  const std::map<std::string, Resource>& shard_for(std::string_view id) const;

  const ChildList* children_list(std::string_view parent_id) const;
  void index_link(const Resource& r);
  void index_unlink(const Resource& r);
  /// Point `child` at `parent_id` and move its index entry along.
  void relink(Resource& child, std::string_view parent_id);
  /// Top-level ("" parent) scan: ids of `type` (any when empty) in
  /// creation order, skipping `except`.
  std::vector<std::string> top_level_of(std::string_view type,
                                        std::string_view except = {}) const;

  std::vector<std::map<std::string, Resource>> shards_;
  std::vector<ChildIndex> children_;  // parallel to shards_
  vtime::TimerService timers_;  // internally synchronized
  IdGenerator ids_;           // guarded by mint_mu_
  std::uint64_t next_seq_ = 1;  // guarded by mint_mu_
  mutable std::mutex mint_mu_;
  mutable StripedRwLock locks_;
};

}  // namespace lce::interp
