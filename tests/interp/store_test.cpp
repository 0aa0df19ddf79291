#include "interp/store.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "child_index_check.h"
#include "common/rng.h"
#include "persist/format.h"

namespace lce::interp {
namespace {

using testing::child_index_mismatch;
using testing::scan_child_count;
using testing::scan_children_of;
using testing::scan_siblings_of;

TEST(Store, CreateMintsSequentialIds) {
  ResourceStore s;
  EXPECT_EQ(s.create("Vpc", "vpc").id, "vpc-00000001");
  EXPECT_EQ(s.create("Vpc", "vpc").id, "vpc-00000002");
  EXPECT_EQ(s.create("Subnet", "subnet").id, "subnet-00000001");
  EXPECT_EQ(s.size(), 3u);
}

TEST(Store, FindReturnsNullForMissing) {
  ResourceStore s;
  EXPECT_EQ(s.find("vpc-00000001"), nullptr);
  EXPECT_FALSE(s.exists("nope"));
}

TEST(Store, AttachLinksParent) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  auto& sub = s.create("Subnet", "subnet");
  EXPECT_TRUE(s.attach(sub.id, vpc.id));
  EXPECT_EQ(s.find(sub.id)->parent_id, vpc.id);
  EXPECT_FALSE(s.attach("missing", vpc.id));
  EXPECT_FALSE(s.attach(sub.id, "missing"));
}

TEST(Store, ChildrenOfFiltersByType) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  auto& sub = s.create("Subnet", "subnet");
  auto& igw = s.create("InternetGateway", "igw");
  s.attach(sub.id, vpc.id);
  s.attach(igw.id, vpc.id);
  EXPECT_EQ(s.child_count(vpc.id), 2u);
  EXPECT_EQ(s.child_count(vpc.id, "Subnet"), 1u);
  auto kids = s.children_of(vpc.id, "InternetGateway");
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0], igw.id);
}

TEST(Store, DestroyRemovesAndUnordersResource) {
  ResourceStore s;
  auto id = s.create("Vpc", "vpc").id;
  EXPECT_TRUE(s.destroy(id));
  EXPECT_FALSE(s.exists(id));
  EXPECT_FALSE(s.destroy(id));
  EXPECT_EQ(s.size(), 0u);
}

TEST(Store, SiblingsShareTypeAndParent) {
  ResourceStore s;
  auto& vpc1 = s.create("Vpc", "vpc");
  auto& vpc2 = s.create("Vpc", "vpc");
  auto& a = s.create("Subnet", "subnet");
  auto& b = s.create("Subnet", "subnet");
  auto& c = s.create("Subnet", "subnet");
  s.attach(a.id, vpc1.id);
  s.attach(b.id, vpc1.id);
  s.attach(c.id, vpc2.id);
  auto sibs = s.siblings_of(a.id);
  ASSERT_EQ(sibs.size(), 1u);
  EXPECT_EQ(sibs[0], b.id);
  // Top-level resources of same type are siblings of each other.
  EXPECT_EQ(s.siblings_of(vpc1.id).size(), 1u);
  EXPECT_TRUE(s.siblings_of("missing").empty());
}

TEST(Store, AllOfTypeInCreationOrder) {
  ResourceStore s;
  auto a = s.create("Vpc", "vpc").id;
  s.create("Subnet", "subnet");
  auto b = s.create("Vpc", "vpc").id;
  auto all = s.all_of_type("Vpc");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], a);
  EXPECT_EQ(all[1], b);
}

TEST(Store, ClearResetsIdsToo) {
  ResourceStore s;
  s.create("Vpc", "vpc");
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.create("Vpc", "vpc").id, "vpc-00000001");
}

TEST(Store, SnapshotContainsTypeParentAttrs) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  vpc.attrs.set("cidr_block", Value("10.0.0.0/16"));
  auto& sub = s.create("Subnet", "subnet");
  s.attach(sub.id, vpc.id);
  Value snap = s.snapshot();
  auto v = snap.get(vpc.id);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->get("type")->as_str(), "Vpc");
  EXPECT_EQ(v->get("cidr_block")->as_str(), "10.0.0.0/16");
  auto sb = snap.get(sub.id);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->get("parent")->as_str(), vpc.id);
}

TEST(Store, AttachRejectsSelfParent) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  EXPECT_FALSE(s.attach(vpc.id, vpc.id));
  EXPECT_EQ(s.find(vpc.id)->parent_id, "");
}

TEST(Store, AttachRejectsOwnDescendantAsParent) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  auto& sub = s.create("Subnet", "subnet");
  auto& eni = s.create("NetworkInterface", "eni");
  ASSERT_TRUE(s.attach(sub.id, vpc.id));
  ASSERT_TRUE(s.attach(eni.id, sub.id));
  // vpc -> sub -> eni: attaching vpc under eni (or sub) would be a cycle.
  EXPECT_FALSE(s.attach(vpc.id, eni.id));
  EXPECT_FALSE(s.attach(vpc.id, sub.id));
  EXPECT_EQ(s.find(vpc.id)->parent_id, "");
  // Legitimate re-parenting still works.
  auto& vpc2 = s.create("Vpc", "vpc");
  EXPECT_TRUE(s.attach(eni.id, vpc2.id));
  EXPECT_EQ(s.find(eni.id)->parent_id, vpc2.id);
}

TEST(Store, DestroyDetachesOrphanedChildren) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  auto& sub = s.create("Subnet", "subnet");
  s.attach(sub.id, vpc.id);
  std::string vpc_id = vpc.id;
  ASSERT_TRUE(s.destroy(vpc_id));
  // No dangling containment link survives: the child is now top-level.
  EXPECT_EQ(s.find(sub.id)->parent_id, "");
  EXPECT_TRUE(s.children_of(vpc_id).empty());
  EXPECT_EQ(s.snapshot().get(sub.id)->get("parent"), nullptr);
}

TEST(Store, CloneSharesNoStateWithOriginal) {
  ResourceStore s;
  auto& vpc = s.create("Vpc", "vpc");
  vpc.attrs.set("cidr_block", Value("10.0.0.0/16"));
  auto& sub = s.create("Subnet", "subnet");
  s.attach(sub.id, vpc.id);
  std::string vpc_id = vpc.id;
  std::string sub_id = sub.id;
  std::string before = s.snapshot().to_text();

  ResourceStore copy = s.clone();
  // Mutate the clone every way the store can be mutated.
  copy.find(vpc_id)->attrs.set("cidr_block", Value("192.168.0.0/16"));
  copy.create("Vpc", "vpc");
  copy.destroy(sub_id);

  // The original's contents and containment hierarchy are untouched.
  EXPECT_EQ(s.snapshot().to_text(), before);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.find(vpc_id)->attrs.get("cidr_block")->as_str(), "10.0.0.0/16");
  ASSERT_EQ(s.children_of(vpc_id).size(), 1u);
  EXPECT_EQ(s.children_of(vpc_id)[0], sub_id);
}

TEST(Store, CloneContinuesIdenticalIdSequence) {
  ResourceStore s;
  s.create("Vpc", "vpc");
  ResourceStore copy = s.clone();
  // Determinism hinge for parallel replay: clone and original mint the
  // same next id.
  EXPECT_EQ(copy.create("Vpc", "vpc").id, s.create("Vpc", "vpc").id);
}

TEST(Store, CopySemanticsForRollback) {
  ResourceStore s;
  auto id = s.create("Vpc", "vpc").id;
  ResourceStore backup = s;
  s.find(id)->attrs.set("x", Value(1));
  s.create("Vpc", "vpc");
  s = backup;
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.find(id)->attrs.has("x"));
  // Id counter restored too: next id repeats what the discarded copy used.
  EXPECT_EQ(s.create("Vpc", "vpc").id, "vpc-00000002");
}

// ------------------------------------------------------- child index --

/// Exhaustive comparison for small stores: every id (live, dangling
/// parent, missing, top level) against the full-store scans, every type
/// filter, every resource's siblings — plus the grouped checker.
void expect_index_matches_scans(const ResourceStore& s, const std::string& where) {
  std::vector<std::string> ids{"", "vpc-99999999"};
  std::vector<std::string> types{"", "Vpc", "Subnet", "Eni", "Gateway"};
  for (const Resource* r : s.resources_in_creation_order()) {
    ids.push_back(r->id);
    if (!r->parent_id.empty()) ids.push_back(r->parent_id);
  }
  for (const auto& id : ids) {
    for (const auto& t : types) {
      ASSERT_EQ(s.children_of(id, t), scan_children_of(s, id, t))
          << where << ": children_of(" << id << ", " << t << ")";
      ASSERT_EQ(s.child_count(id, t), scan_child_count(s, id, t))
          << where << ": child_count(" << id << ", " << t << ")";
    }
    ASSERT_EQ(s.siblings_of(id), scan_siblings_of(s, id))
        << where << ": siblings_of(" << id << ")";
  }
  ASSERT_EQ(child_index_mismatch(s), "") << where;
}

/// Live ids of the store, creation order.
std::vector<std::string> live_ids(const ResourceStore& s) {
  std::vector<std::string> out;
  for (const Resource* r : s.resources_in_creation_order()) out.push_back(r->id);
  return out;
}

/// One seeded random walk over every store mutation that moves a parent
/// link: creates, create-attaches, re-attaches, destroys (children and
/// all), create rollbacks, before-image restores in arbitrary order,
/// clear, copy, assignment, clone and a persist round trip.
void random_walk(std::uint64_t seed, int steps) {
  static const std::vector<std::pair<const char*, const char*>> kKinds = {
      {"Vpc", "vpc"}, {"Subnet", "subnet"}, {"Eni", "eni"}, {"Gateway", "igw"}};
  Rng rng(seed);
  ResourceStore s(1 + rng.uniform(8));
  std::vector<Resource> images;  // captured before-images to restore later
  for (int step = 0; step < steps; ++step) {
    std::vector<std::string> ids = live_ids(s);
    auto pick = [&]() -> std::string {
      return ids.empty() ? std::string("vpc-99999999") : ids[rng.uniform(ids.size())];
    };
    std::string op;
    switch (rng.uniform(16)) {
      case 0:
      case 1: {  // top-level create
        const auto& [type, prefix] = kKinds[rng.uniform(kKinds.size())];
        s.create(type, prefix);
        op = "create";
        break;
      }
      case 2:
      case 3:
      case 4: {  // create-attach, sometimes rolled back like a failed create
        if (ids.empty()) break;
        const auto& [type, prefix] = kKinds[1 + rng.uniform(kKinds.size() - 1)];
        std::string parent = pick();
        std::string id = s.create(type, prefix).id;
        EXPECT_TRUE(s.attach_created(id, parent));
        op = "create_attach";
        if (rng.chance(0.3)) {
          EXPECT_TRUE(s.erase_raw(id));
          op = "create_attach_rollback";
        }
        break;
      }
      case 5:
      case 6: {  // re-attach (cycle-checked, may refuse)
        s.attach(pick(), pick());
        op = "attach";
        break;
      }
      case 7:
      case 8: {  // destroy — with live children they are promoted
        s.destroy(pick());
        op = "destroy";
        break;
      }
      case 9:
      case 10: {  // capture a before-image
        if (const Resource* r = s.find(pick())) images.push_back(*r);
        op = "capture";
        break;
      }
      case 11:
      case 12: {  // restore an image: reinstate, re-link or no-op rewrite
        if (images.empty()) break;
        std::size_t i = rng.uniform(images.size());
        // A stale image can name a parent that is now its descendant; the
        // journal never restores such a link, and attach()'s ancestor walk
        // assumes a forest, so skip those.
        std::size_t hops = 0;
        const Resource* up = s.find(images[i].parent_id);
        for (; up != nullptr && up->id != images[i].id && hops <= s.size(); ++hops) {
          up = s.find(up->parent_id);
        }
        if (up != nullptr) break;
        s.restore(images[i]);
        images.erase(images.begin() + static_cast<std::ptrdiff_t>(i));
        op = "restore";
        break;
      }
      case 13: {  // erase a leaf raw (children, if any, keep their link)
        s.erase_raw(pick());
        op = "erase_raw";
        break;
      }
      case 14: {  // copies carry the index; the original is untouched
        ResourceStore copy = s;
        expect_index_matches_scans(copy, "copy");
        copy.destroy(pick());
        ResourceStore cloned = copy.clone();
        expect_index_matches_scans(cloned, "clone");
        ResourceStore assigned(3);
        assigned = rng.chance(0.5) ? copy : s;
        expect_index_matches_scans(assigned, "assign");
        if (rng.chance(0.5)) s = copy;
        op = "copy";
        break;
      }
      case 15: {  // persist round trip or clear
        if (rng.chance(0.1)) {
          s.clear();
          images.clear();
          op = "clear";
          break;
        }
        std::string bytes = persist::serialize_store(s);
        ResourceStore loaded(1 + rng.uniform(8));
        ASSERT_TRUE(persist::deserialize_store(bytes, &loaded));
        expect_index_matches_scans(loaded, "deserialize");
        ASSERT_EQ(persist::serialize_store(loaded), bytes);
        s = loaded;
        op = "round_trip";
        break;
      }
    }
    std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step) +
                        " " + op;
    expect_index_matches_scans(s, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StoreChildIndex, MatchesScanReferenceOverRandomWalks) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    random_walk(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StoreChildIndex, DestroyPromotesOnlyItsOwnChildren) {
  ResourceStore s;
  std::string vpc1 = s.create("Vpc", "vpc").id;
  std::string vpc2 = s.create("Vpc", "vpc").id;
  std::string a = s.create("Subnet", "subnet").id;
  std::string b = s.create("Subnet", "subnet").id;
  ASSERT_TRUE(s.attach_created(a, vpc1));
  ASSERT_TRUE(s.attach_created(b, vpc2));
  ASSERT_TRUE(s.destroy(vpc1));
  EXPECT_EQ(s.find(a)->parent_id, "");
  EXPECT_EQ(s.find(b)->parent_id, vpc2);
  EXPECT_EQ(s.children_of(vpc2), std::vector<std::string>{b});
  EXPECT_EQ(s.child_count(vpc1), 0u);
  expect_index_matches_scans(s, "after destroy");
}

TEST(StoreChildIndex, RestoreReinstatesDestroyedParentAndChildLinks) {
  // The journal's destroy rollback: the parent comes back first, then
  // the children's before-images re-link them (reverse journal order).
  ResourceStore s;
  std::string vpc = s.create("Vpc", "vpc").id;
  std::string a = s.create("Subnet", "subnet").id;
  std::string b = s.create("Subnet", "subnet").id;
  ASSERT_TRUE(s.attach_created(a, vpc));
  ASSERT_TRUE(s.attach_created(b, vpc));
  Resource vpc_img = *s.find(vpc), a_img = *s.find(a), b_img = *s.find(b);
  ASSERT_TRUE(s.destroy(vpc));
  s.restore(vpc_img);
  s.restore(b_img);
  s.restore(a_img);
  EXPECT_EQ(s.children_of(vpc), (std::vector<std::string>{a, b}));
  EXPECT_EQ(s.siblings_of(b), std::vector<std::string>{a});
  expect_index_matches_scans(s, "after rollback");
}

TEST(StoreChildIndex, RoundTripKeepsChildOlderThanItsParent) {
  // After a re-attach a child's seq can be lower than its parent's, so
  // deserialize_store (seq order) restores the child before the parent
  // exists; the index must still come out whole, in seq order.
  ResourceStore s;
  std::string old_eni = s.create("Eni", "eni").id;
  std::string subnet = s.create("Subnet", "subnet").id;
  std::string young_eni = s.create("Eni", "eni").id;
  ASSERT_TRUE(s.attach(young_eni, subnet));
  ASSERT_TRUE(s.attach(old_eni, subnet));
  ASSERT_LT(s.find(old_eni)->seq, s.find(subnet)->seq);
  EXPECT_EQ(s.children_of(subnet), (std::vector<std::string>{old_eni, young_eni}));

  std::string bytes = persist::serialize_store(s);
  ResourceStore loaded;
  ASSERT_TRUE(persist::deserialize_store(bytes, &loaded));
  EXPECT_EQ(loaded.children_of(subnet), (std::vector<std::string>{old_eni, young_eni}));
  EXPECT_EQ(loaded.child_count(subnet, "Eni"), 2u);
  EXPECT_EQ(loaded.siblings_of(young_eni), std::vector<std::string>{old_eni});
  EXPECT_EQ(persist::serialize_store(loaded), bytes);
  expect_index_matches_scans(loaded, "loaded");
}

TEST(StoreChildIndex, ClearDropsTheIndex) {
  ResourceStore s;
  std::string vpc = s.create("Vpc", "vpc").id;
  ASSERT_TRUE(s.attach_created(s.create("Subnet", "subnet").id, vpc));
  s.clear();
  // Ids restart, so the next vpc reuses the old id: it must have no
  // children inherited from before the clear.
  EXPECT_EQ(s.create("Vpc", "vpc").id, vpc);
  EXPECT_EQ(s.child_count(vpc), 0u);
  expect_index_matches_scans(s, "after clear");
}

}  // namespace
}  // namespace lce::interp
