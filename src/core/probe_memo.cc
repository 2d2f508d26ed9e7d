#include "core/probe_memo.h"

#include <cassert>

namespace p3q {

bool ProbeMemo::ShouldProbe(UserId user, std::uint32_t version) {
  const std::uint8_t narrow = Narrow(version);
  const auto [held, inserted] = versions_.Emplace(user, narrow);
  if (!inserted) {
    if (*held == kSpilled) {
      std::uint32_t* exact = spill_->Emplace(user, version).first;
      if (version <= *exact) return false;
      *exact = version;
      return true;
    }
    if (version <= *held) return false;
    *held = narrow;
  }
  if (narrow == kSpilled) Spill(user, version);
  return true;
}

void ProbeMemo::Set(UserId user, std::uint32_t version) {
  const std::uint8_t narrow = Narrow(version);
  versions_.Set(user, narrow);
  if (narrow == kSpilled) {
    Spill(user, version);
  } else if (spill_) {
    spill_->Erase(user);
  }
}

void ProbeMemo::Spill(UserId user, std::uint32_t version) {
  if (!spill_) spill_ = std::make_unique<UserMap>();
  spill_->Set(user, version);
}

void ProbeMemo::Clear() {
  versions_.Clear();
  spill_.reset();
}

std::vector<std::pair<UserId, std::uint32_t>> ProbeMemo::Sorted() const {
  std::vector<std::pair<UserId, std::uint32_t>> out;
  out.reserve(versions_.size());
  for (const auto& [user, narrow] : versions_.Sorted()) {
    if (narrow != kSpilled) {
      out.emplace_back(user, narrow);
      continue;
    }
    // A spilled version of 0xffffffff reads back as kAbsent, which is the
    // same value.
    assert(spill_ != nullptr);
    out.emplace_back(user, spill_->Find(user));
  }
  return out;
}

}  // namespace p3q
