#include "sim/delivery.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// Splits "a:b:c" into pieces.
std::vector<std::string> SplitColon(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

/// Validate()'s message for a delay above kMaxLatencyCycles.
std::string DelayTooLong(const char* family) {
  return std::string(family) + " latency: delay above " +
         std::to_string(kMaxLatencyCycles) + " cycles";
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  // common/parse.h: whole-string, no silent wrap of "-1" to 2^64-1.
  return ParseStrictUint64(s, out);
}

}  // namespace

std::optional<std::uint64_t> LatencySpec::Delay(Rng* rng) const {
  switch (kind) {
    case LatencyKind::kZero:
      return 0;
    case LatencyKind::kFixed:
      return fixed;
    case LatencyKind::kUniform:
      return lo + rng->NextUint64(hi - lo + 1);
    case LatencyKind::kLossy:
      if (rng->NextBool(loss)) return std::nullopt;
      return rng->NextUint64(max_delay + 1);
  }
  return 0;
}

std::string LatencySpec::Name() const {
  switch (kind) {
    case LatencyKind::kZero:
      return "zero";
    case LatencyKind::kFixed:
      return "fixed:" + std::to_string(fixed);
    case LatencyKind::kUniform:
      return "uniform:" + std::to_string(lo) + ":" + std::to_string(hi);
    case LatencyKind::kLossy:
      return "lossy:" + FormatStrictDouble(loss) + ":" +
             std::to_string(max_delay);
  }
  return "unknown";
}

std::string LatencySpec::Validate() const {
  switch (kind) {
    case LatencyKind::kZero:
      return "";
    case LatencyKind::kFixed:
      if (fixed > kMaxLatencyCycles) return DelayTooLong("fixed");
      return "";
    case LatencyKind::kUniform:
      if (lo > hi) return "uniform latency: lo > hi";
      if (hi > kMaxLatencyCycles) return DelayTooLong("uniform");
      return "";
    case LatencyKind::kLossy:
      // The negated form also rejects NaN (every comparison false).
      if (!(loss >= 0.0 && loss <= 1.0)) {
        return "lossy latency: loss probability outside [0, 1]";
      }
      if (max_delay > kMaxLatencyCycles) return DelayTooLong("lossy");
      return "";
  }
  return "unknown latency kind";
}

std::string ParseLatencySpec(const std::string& text, LatencySpec* spec) {
  const std::vector<std::string> parts = SplitColon(text);
  LatencySpec parsed;
  const std::string usage =
      " (expected zero | fixed:K | uniform:LO:HI | lossy:P:MAX)";
  if (parts[0] == "zero") {
    if (parts.size() != 1) return "zero latency takes no parameters" + usage;
  } else if (parts[0] == "fixed") {
    parsed.kind = LatencyKind::kFixed;
    if (parts.size() != 2 || !ParseU64(parts[1], &parsed.fixed)) {
      return "cannot parse fixed latency '" + text + "'" + usage;
    }
  } else if (parts[0] == "uniform") {
    parsed.kind = LatencyKind::kUniform;
    if (parts.size() != 3 || !ParseU64(parts[1], &parsed.lo) ||
        !ParseU64(parts[2], &parsed.hi)) {
      return "cannot parse uniform latency '" + text + "'" + usage;
    }
  } else if (parts[0] == "lossy") {
    parsed.kind = LatencyKind::kLossy;
    if (parts.size() != 3 || !ParseStrictDouble(parts[1], &parsed.loss) ||
        !ParseU64(parts[2], &parsed.max_delay)) {
      return "cannot parse lossy latency '" + text + "'" + usage;
    }
  } else {
    return "unknown latency model '" + text + "'" + usage;
  }
  if (const std::string problem = parsed.Validate(); !problem.empty()) {
    return problem;
  }
  *spec = parsed;
  return "";
}

void DeliveryQueue::EnqueuePending(std::size_t shard, UserId sender,
                                   std::uint64_t send_cycle,
                                   std::uint64_t due_cycle,
                                   std::unique_ptr<DeliveryMessage> payload) {
  InFlight message;
  message.sender = sender;
  message.send_cycle = send_cycle;
  message.due_cycle = due_cycle;
  message.payload = std::move(payload);
  pending_[shard].push_back(std::move(message));
}

void DeliveryQueue::RecordPlannedDrop(std::size_t shard, UserId sender,
                                      std::uint64_t cycle) {
  ++pending_drops_[shard];
  if (tracer_ != nullptr) {
    TraceEvent event;
    event.cycle = cycle;
    event.kind = TraceEventKind::kMessageDropped;
    event.node = sender;
    tracer_->EmitShard(shard, event);
  }
}

std::size_t DeliveryQueue::Fold() {
  const std::uint64_t enqueued = stats_.enqueued;
  for (std::size_t shard = 0; shard < kEngineShards; ++shard) {
    for (InFlight& message : pending_[shard]) {
      message.seq = next_seq_++;
      if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = message.send_cycle;
        event.kind = TraceEventKind::kMessageEnqueued;
        event.node = message.sender;
        event.id = message.seq;
        event.value =
            static_cast<std::int64_t>(message.due_cycle - message.send_cycle);
        tracer_->Emit(event);
      }
      due_[message.due_cycle].push_back(std::move(message));
      ++in_flight_;
      ++stats_.enqueued;
    }
    pending_[shard].clear();
    stats_.dropped += pending_drops_[shard];
    pending_drops_[shard] = 0;
  }
  if (in_flight_ > stats_.max_in_flight) stats_.max_in_flight = in_flight_;
  return static_cast<std::size_t>(stats_.enqueued - enqueued);
}

std::vector<DeliveryQueue::InFlight> DeliveryQueue::TakeDue(
    std::uint64_t cycle) {
  std::size_t taken = 0;
  for (auto it = due_.begin(); it != due_.end() && it->first <= cycle; ++it) {
    taken += it->second.size();
  }
  std::vector<InFlight> out;
  out.reserve(taken);
  const auto by_sender = [](const InFlight& a, const InFlight& b) {
    return a.sender < b.sender;
  };
  while (!due_.empty() && due_.begin()->first <= cycle) {
    std::vector<InFlight>& bucket = due_.begin()->second;
    // Within a bucket entries are already in seq order; a stable sort by
    // sender yields the contract's (due cycle, sender, seq) order. The fold
    // appends the shards in node order, so only a bucket that mixes send
    // cycles needs the sort.
    if (!std::is_sorted(bucket.begin(), bucket.end(), by_sender)) {
      std::stable_sort(bucket.begin(), bucket.end(), by_sender);
    }
    for (InFlight& message : bucket) {
      stats_.RecordDelivery(cycle - message.send_cycle);
      if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = cycle;
        event.kind = TraceEventKind::kMessageDelivered;
        event.node = message.sender;
        event.id = message.seq;
        event.value = static_cast<std::int64_t>(cycle - message.send_cycle);
        tracer_->Emit(event);
      }
      out.push_back(std::move(message));
    }
    in_flight_ -= bucket.size();
    due_.erase(due_.begin());
  }
  return out;
}

template <class Io, class Self>
void DeliveryQueue::Transfer(Io& io, Self& self,
                             const CycleProtocol& protocol) {
  io.U64(self.next_seq_);
  p3q::Transfer(io, self.stats_);
  io.Map(self.due_, 16, "corrupt checkpoint: delivery due cycles out of order",
         [&](std::uint64_t due_cycle, auto& bucket) {
           io.Vector(bucket, 20, [&](auto& message) {
             io.User(message.sender, "in-flight message sender");
             io.U64(message.send_cycle);
             io.U64(message.seq);
             if constexpr (Io::kLoading) {
               message.due_cycle = due_cycle;
               if (message.seq >= self.next_seq_ ||
                   message.send_cycle > due_cycle) {
                 throw CheckpointError(
                     "corrupt checkpoint: in-flight message with "
                     "inconsistent sequence number or cycles");
               }
               message.payload = protocol.DecodeMessage(&io);
             } else {
               protocol.EncodeMessage(*message.payload, &io);
             }
           });
         });
  if constexpr (Io::kLoading) {
    self.in_flight_ = 0;
    for (const auto& [due_cycle, bucket] : self.due_) {
      self.in_flight_ += bucket.size();
    }
  }
  io.Sentinel("delivery queue");
}

void DeliveryQueue::SaveState(CheckpointWriter* out,
                              const CycleProtocol& protocol) const {
  Transfer(*out, *this, protocol);
}

void DeliveryQueue::LoadState(CheckpointReader* in,
                              const CycleProtocol& protocol) {
  Transfer(*in, *this, protocol);
}

/// One shard's arena for one send cycle (see MessageArenas). It counts what
/// it hands out, alignment padding included: the first block of the
/// shard's next arena.
class MessageArenas::Arena final : public std::pmr::memory_resource {
 public:
  explicit Arena(std::size_t first_block)
      : next_block_(std::max(first_block, kMinBlock)) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() override {
    while (blocks_ != nullptr) {
      Block* next = blocks_->next;
      ::operator delete(blocks_);
      blocks_ = next;
    }
  }

  std::size_t used() const { return used_; }
  std::size_t reserved() const { return reserved_; }

 private:
  static constexpr std::size_t kMinBlock = 4096;

  /// A block's header; its bytes follow.
  struct alignas(std::max_align_t) Block {
    Block* next;
  };

  void* do_allocate(std::size_t bytes, std::size_t alignment) override {
    void* at = cursor_;
    std::size_t room = room_;
    if (std::align(alignment, bytes, at, room) == nullptr) {
      const std::size_t size = std::max(next_block_, bytes + alignment);
      next_block_ = kMinBlock;
      auto* block = static_cast<Block*>(::operator new(sizeof(Block) + size));
      block->next = blocks_;
      blocks_ = block;
      reserved_ += sizeof(Block) + size;
      at = block + 1;
      room = size;
      room_ = size;
      std::align(alignment, bytes, at, room);  // size >= bytes + alignment
    }
    // What the request took, its alignment padding included.
    used_ += room_ - room + bytes;
    cursor_ = static_cast<std::byte*>(at) + bytes;
    room_ = room - bytes;
    return at;
  }

  void do_deallocate(void*, std::size_t, std::size_t) override {}

  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }

  Block* blocks_ = nullptr;  ///< newest first
  void* cursor_ = nullptr;
  std::size_t room_ = 0;
  std::size_t next_block_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

MessageArenas::MessageArenas() = default;

MessageArenas::~MessageArenas() = default;

std::pmr::memory_resource* MessageArenas::Open(std::size_t shard) {
  std::unique_ptr<Arena>& arena = open_[shard];
  if (arena == nullptr) arena = std::make_unique<Arena>(last_used_[shard]);
  return arena.get();
}

void MessageArenas::Seal(std::uint64_t send_cycle, std::size_t sent) {
  SendCycle* cycle = nullptr;
  for (std::size_t shard = 0; shard < kEngineShards; ++shard) {
    std::unique_ptr<Arena>& arena = open_[shard];
    last_used_[shard] = arena != nullptr ? arena->used() : 0;
    if (arena == nullptr) continue;
    // A cycle that failed after its seal and runs again seals twice.
    if (cycle == nullptr) {
      cycle = &sealed_[send_cycle];
      cycle->in_flight += sent;
    }
    held_bytes_ += arena->reserved();
    cycle->arenas.push_back(std::move(arena));
  }
  peak_bytes_ = std::max(peak_bytes_, held_bytes_);
}

void MessageArenas::Delivered(std::uint64_t send_cycle) {
  const auto it = sealed_.find(send_cycle);
  if (it != sealed_.end()) --it->second.in_flight;
}

void MessageArenas::Release(SendCycle& cycle) {
  for (const std::unique_ptr<Arena>& arena : cycle.arenas) {
    held_bytes_ -= arena->reserved();
  }
  cycle.arenas.clear();
}

void MessageArenas::ReleaseDelivered() {
  for (auto it = sealed_.begin(); it != sealed_.end();) {
    if (it->second.in_flight > 0) {
      ++it;
      continue;
    }
    Release(it->second);
    it = sealed_.erase(it);
  }
}

void MessageArenas::ReleaseAll() {
  for (auto& [send_cycle, cycle] : sealed_) Release(cycle);
  sealed_.clear();
}

}  // namespace p3q
