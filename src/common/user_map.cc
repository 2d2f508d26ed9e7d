#include "common/user_map.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace p3q {

template <typename Value>
std::size_t UserTable<Value>::Seek(UserId user) const {
  const UserId* users = users_.data();
  const std::size_t mask = users_.size() - 1;
  std::size_t i = Home(user);
  for (std::size_t dist = 0;; ++dist, i = (i + 1) & mask) {
    const UserId resident = users[i];
    if (resident == user || resident == kInvalidUser ||
        ((i - Home(resident)) & mask) < dist) {
      return i;
    }
  }
}

template <typename Value>
void UserTable<Value>::ShiftInsert(std::size_t i, UserId user, Value value) {
  // Each resident moved one slot on keeps every earlier-homed resident
  // ahead of it, so the run stays ordered by home slot.
  const std::size_t mask = users_.size() - 1;
  while (users_[i] != kInvalidUser) {
    std::swap(user, users_[i]);
    std::swap(value, values_[i]);
    i = (i + 1) & mask;
  }
  users_[i] = user;
  values_[i] = value;
}

template <typename Value>
std::pair<Value*, bool> UserTable<Value>::Emplace(UserId user, Value value) {
  assert(user != kInvalidUser);
  std::size_t i = 0;
  if (!users_.empty()) {
    i = Seek(user);
    if (users_[i] == user) return {&values_[i], false};
  }
  // Grow before the insertion that would pass 7/8 load.
  if ((size_ + 1) * 8 > users_.size() * 7) {
    Grow();
    i = Seek(user);
  }
  ShiftInsert(i, user, value);
  ++size_;
  return {&values_[i], true};
}

template <typename Value>
void UserTable<Value>::Erase(UserId user) {
  std::size_t hole = Lookup(user);
  if (hole == kNone) return;
  // Backward-shift deletion: pull the rest of the run back one slot until
  // an empty slot or a resident at her home, so no tombstone is left and
  // the run stays ordered by home slot.
  const std::size_t mask = users_.size() - 1;
  for (std::size_t next = (hole + 1) & mask;
       users_[next] != kInvalidUser && Home(users_[next]) != next;
       next = (next + 1) & mask) {
    users_[hole] = users_[next];
    values_[hole] = values_[next];
    hole = next;
  }
  users_[hole] = kInvalidUser;
  --size_;
}

template <typename Value>
void UserTable<Value>::Clear() {
  std::fill(users_.begin(), users_.end(), kInvalidUser);
  size_ = 0;
}

template <typename Value>
std::vector<std::pair<UserId, Value>> UserTable<Value>::Sorted() const {
  std::vector<std::pair<UserId, Value>> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < users_.size(); ++i) {
    if (users_[i] != kInvalidUser) out.emplace_back(users_[i], values_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Value>
void UserTable<Value>::Grow() {
  std::vector<UserId> old_users = std::move(users_);
  std::vector<Value> old_values = std::move(values_);
  const std::size_t capacity = old_users.empty() ? 16 : old_users.size() * 2;
  users_.assign(capacity, kInvalidUser);
  values_.assign(capacity, Value{});
  shift_ = 64 - std::countr_zero(capacity);
  for (std::size_t i = 0; i < old_users.size(); ++i) {
    if (old_users[i] != kInvalidUser) {
      ShiftInsert(Seek(old_users[i]), old_users[i], old_values[i]);
    }
  }
}

template class UserTable<std::uint32_t>;
template class UserTable<std::uint8_t>;

}  // namespace p3q
