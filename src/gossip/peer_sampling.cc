#include "gossip/peer_sampling.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <iterator>
#include <memory_resource>
#include <unordered_map>

namespace p3q {
namespace {

/// Stack bytes for one merge's hash table, pointer pools and survivors. A
/// merge of r view entries with an (r+1)-digest payload needs about 120 r
/// bytes, so views up to r = 36 (the paper uses 10) never touch the heap;
/// larger ones spill to it.
constexpr std::size_t kMergeStackBytes = 4096;

}  // namespace

RandomView::RandomView(UserId self, std::size_t capacity)
    : self_(self), capacity_(capacity) {}

void RandomView::Init(std::vector<DigestInfo> entries) {
  entries_ = std::move(entries);
  if (entries_.size() > capacity_) entries_.resize(capacity_);
}

UserId RandomView::SelectRandomPeer(Rng* rng) const {
  if (entries_.empty()) return kInvalidUser;
  return entries_[rng->NextUint64(entries_.size())].user;
}

std::vector<DigestInfo> RandomView::MakeExchangePayload(
    const DigestInfo& self_digest) const {
  std::vector<DigestInfo> payload;
  payload.reserve(entries_.size() + 1);
  payload.assign(entries_.begin(), entries_.end());
  payload.push_back(self_digest);
  return payload;
}

void RandomView::Merge(const std::vector<DigestInfo>& received, Rng* rng) {
  alignas(std::max_align_t) std::array<std::byte, kMergeStackBytes> stack;
  std::pmr::monotonic_buffer_resource arena(stack.data(), stack.size(),
                                            std::pmr::new_delete_resource());

  // Union by user, keeping the freshest digest of each. The table points at
  // the winning digests in entries_ and `received`; nothing is copied until
  // the survivors are known.
  //
  // Why a hash table: the pool below takes the table's iteration order, and
  // the reservoir draws against that order, so every golden, trace and
  // checkpoint records libstdc++'s layout of an unordered_map keyed by
  // UserId and reserved to the union's size. A sort by user would make the
  // order portable and the merge cheaper, but it changes every output, so
  // it waits for a golden regeneration.
  std::pmr::unordered_map<UserId, const DigestInfo*> merged(&arena);
  merged.reserve(entries_.size() + received.size());
  auto absorb = [&](const DigestInfo& d) {
    if (d.user == self_) return;
    auto [it, inserted] = merged.emplace(d.user, &d);
    if (!inserted && d.version() > it->second->version()) it->second = &d;
  };
  for (const auto& d : entries_) absorb(d);
  for (const auto& d : received) absorb(d);

  std::pmr::vector<const DigestInfo*> pool(&arena);
  pool.reserve(merged.size());
  for (const auto& [user, d] : merged) pool.push_back(d);
  if (pool.size() > capacity_) {
    pool = rng->SampleWithoutReplacement(pool, capacity_);
  }

  // Copy the survivors out (those from the view itself move), then refill
  // the view. shrink_to_fit keeps its capacity at its size: a view that
  // shrank keeps no slack, and random_view_bytes counts capacity.
  const DigestInfo* const view_begin = entries_.data();
  const DigestInfo* const view_end = view_begin + entries_.size();
  std::pmr::vector<DigestInfo> kept(&arena);
  kept.reserve(pool.size());
  for (const DigestInfo* d : pool) {
    if (std::less_equal<>()(view_begin, d) && std::less<>()(d, view_end)) {
      const auto at = static_cast<std::size_t>(d - view_begin);
      kept.push_back(std::move(entries_[at]));
    } else {
      kept.push_back(*d);
    }
  }
  entries_.assign(std::make_move_iterator(kept.begin()),
                  std::make_move_iterator(kept.end()));
  entries_.shrink_to_fit();
}

void RandomView::Remove(UserId user) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [user](const DigestInfo& d) {
                                  return d.user == user;
                                }),
                 entries_.end());
}

}  // namespace p3q
