#include "trace/trace.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "support/check.h"

namespace spt::trace {

std::size_t TraceView::instrCount() const {
  std::size_t n = 0;
  for (const Record& r : *this) {
    if (r.kind == RecordKind::kInstr) ++n;
  }
  return n;
}

TraceBuffer::TraceBuffer(const TraceBuffer& other) : TraceSink(other) {
  if (other.size_ == 0) return;
  data_ = static_cast<Record*>(std::malloc(other.size_ * sizeof(Record)));
  if (data_ == nullptr) throw std::bad_alloc();
  std::memcpy(data_, other.data_, other.size_ * sizeof(Record));
  size_ = capacity_ = other.size_;
}

TraceBuffer::TraceBuffer(TraceBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

TraceBuffer& TraceBuffer::operator=(TraceBuffer other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  std::swap(capacity_, other.capacity_);
  return *this;
}

TraceBuffer::~TraceBuffer() { std::free(data_); }

void TraceBuffer::grow() {
  const std::size_t capacity = capacity_ == 0 ? 1024 : 2 * capacity_;
  void* data = std::realloc(data_, capacity * sizeof(Record));
  if (data == nullptr) throw std::bad_alloc();
  data_ = static_cast<Record*>(data);
  capacity_ = capacity;
}

std::size_t TraceBuffer::instrCount() const { return view().instrCount(); }

namespace {

struct LoopKey {
  FrameId frame;
  ir::StaticId header_sid;
  bool operator==(const LoopKey&) const = default;
};

struct LoopKeyHash {
  std::size_t operator()(const LoopKey& k) const {
    return (static_cast<std::size_t>(k.frame) << 32) ^ k.header_sid;
  }
};

}  // namespace

LoopIndex::LoopIndex(const ir::Module& module, TraceView trace)
    : module_(module) {
  struct OpenEpisode {
    std::size_t episode_index;
    std::vector<std::size_t> pending_forks;
  };
  std::unordered_map<LoopKey, OpenEpisode, LoopKeyHash> open;
  // Region forks awaiting the next execution of their target instruction
  // in the forking frame.
  std::unordered_map<LoopKey, std::vector<std::size_t>, LoopKeyHash>
      pending_regions;

  const auto resolvePending = [&](OpenEpisode& ep, std::size_t start) {
    for (const std::size_t fork : ep.pending_forks) {
      fork_start_.emplace(fork, start);
    }
    ep.pending_forks.clear();
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Record& r = trace[i];
    switch (r.kind) {
      case RecordKind::kIterBegin: {
        const LoopKey key{r.frame, r.sid};
        auto it = open.find(key);
        if (it == open.end()) {
          LoopEpisode episode;
          episode.header_sid = r.sid;
          episode.frame = r.frame;
          episode.iter_begins.push_back(i);
          episode.exit_index = trace.size();
          episodes_.push_back(std::move(episode));
          open.emplace(key, OpenEpisode{episodes_.size() - 1, {}});
        } else {
          episodes_[it->second.episode_index].iter_begins.push_back(i);
          resolvePending(it->second, i);
        }
        break;
      }
      case RecordKind::kLoopExit: {
        const LoopKey key{r.frame, r.sid};
        auto it = open.find(key);
        if (it != open.end()) {
          episodes_[it->second.episode_index].exit_index = i;
          resolvePending(it->second, kNoStart);
          open.erase(it);
        }
        break;
      }
      case RecordKind::kInstr: {
        if (!pending_regions.empty()) {
          const auto rit = pending_regions.find(LoopKey{r.frame, r.sid});
          if (rit != pending_regions.end()) {
            for (const std::size_t fork : rit->second) {
              fork_start_.emplace(fork, i);
            }
            pending_regions.erase(rit);
          }
        }
        if (r.op != ir::Opcode::kSptFork) break;
        const auto& loc = module.locate(r.sid);
        const ir::Function& func = module.function(loc.func);
        const ir::Instr& fork = func.blocks[loc.block].instrs[loc.index];
        const ir::BlockId target = fork.target0;
        SPT_CHECK(target < func.blocks.size());
        const ir::StaticId target_sid =
            func.blocks[target].instrs.front().static_id;
        auto it = open.find(LoopKey{r.frame, target_sid});
        if (it != open.end()) {
          it->second.pending_forks.push_back(i);
        } else {
          // Region fork: wait for the target's next execution.
          pending_regions[LoopKey{r.frame, target_sid}].push_back(i);
        }
        break;
      }
    }
  }

  for (auto& [key, ep] : open) {
    (void)key;
    resolvePending(ep, kNoStart);
  }
  for (auto& [key, forks] : pending_regions) {
    (void)key;
    for (const std::size_t fork : forks) {
      fork_start_.emplace(fork, kNoStart);
    }
  }
}

std::size_t LoopIndex::startOfFork(std::size_t record_index) const {
  const auto it = fork_start_.find(record_index);
  SPT_CHECK_MSG(it != fork_start_.end(), "record is not an indexed fork");
  return it->second;
}

std::string loopNameOf(const ir::Module& module, ir::StaticId header_sid) {
  const auto& loc = module.locate(header_sid);
  const ir::Function& func = module.function(loc.func);
  const std::string& label = func.blocks[loc.block].label;
  return func.name + "." +
         (label.empty() ? "B" + std::to_string(loc.block) : label);
}

std::string LoopIndex::loopName(ir::StaticId header_sid) const {
  return loopNameOf(module_, header_sid);
}

}  // namespace spt::trace
