#include "trace/trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "ir/printer.h"
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

LoopIndex::LoopIndex(const ir::Module& module) : module_(module) {}

LoopIndex::LoopIndex(const ir::Module& module, TraceView trace)
    : LoopIndex(module) {
  for (std::size_t i = 0; i < trace.size(); ++i) add(i, trace[i]);
  finish(trace.size());
}

void LoopIndex::resolve(std::vector<std::size_t>& forks, std::size_t start) {
  for (const std::size_t fork : forks) fork_starts_[fork] = start;
  forks.clear();
}

void LoopIndex::add(std::size_t i, const Record& r) {
  switch (r.kind) {
    case RecordKind::kIterBegin: {
      const LoopKey key{r.frame, r.sid};
      auto it = open_.find(key);
      if (it == open_.end()) {
        LoopEpisode episode;
        episode.header_sid = r.sid;
        episode.frame = r.frame;
        episode.iter_begins.push_back(i);
        episodes_.push_back(std::move(episode));
        open_.emplace(key, OpenEpisode{episodes_.size() - 1, {}});
      } else {
        episodes_[it->second.episode_index].iter_begins.push_back(i);
        resolve(it->second.pending_forks, i);
      }
      break;
    }
    case RecordKind::kLoopExit: {
      auto it = open_.find(LoopKey{r.frame, r.sid});
      if (it != open_.end()) {
        episodes_[it->second.episode_index].exit_index = i;
        resolve(it->second.pending_forks, kNoStart);
        open_.erase(it);
      }
      break;
    }
    case RecordKind::kInstr: {
      if (!pending_regions_.empty()) {
        const auto rit = pending_regions_.find(LoopKey{r.frame, r.sid});
        if (rit != pending_regions_.end()) {
          resolve(rit->second, i);
          pending_regions_.erase(rit);
        }
        if (r.op == ir::Opcode::kRet) {
          // The frame is gone for good: its region forks never start.
          for (auto it = pending_regions_.begin();
               it != pending_regions_.end();) {
            if (it->first.frame == r.frame) {
              resolve(it->second, kNoStart);
              it = pending_regions_.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
      if (r.op != ir::Opcode::kSptFork) break;
      SPT_CHECK(fork_records_.empty() || fork_records_.back() < i);
      const std::size_t ordinal = fork_records_.size();
      fork_records_.push_back(i);
      fork_starts_.push_back(kPending);
      const auto& loc = module_.locate(r.sid);
      const ir::Function& func = module_.function(loc.func);
      const ir::Instr& fork = func.blocks[loc.block].instrs[loc.index];
      const ir::BlockId target = fork.target0;
      SPT_CHECK(target < func.blocks.size());
      const ir::StaticId target_sid =
          func.blocks[target].instrs.front().static_id;
      auto it = open_.find(LoopKey{r.frame, target_sid});
      if (it != open_.end()) {
        it->second.pending_forks.push_back(ordinal);
      } else {
        // Region fork: wait for the target's next execution.
        pending_regions_[LoopKey{r.frame, target_sid}].push_back(ordinal);
      }
      break;
    }
  }
}

void LoopIndex::finish(std::size_t size) {
  for (auto& [key, ep] : open_) {
    (void)key;
    episodes_[ep.episode_index].exit_index = size;
    resolve(ep.pending_forks, kNoStart);
  }
  open_.clear();
  for (auto& [key, forks] : pending_regions_) {
    (void)key;
    resolve(forks, kNoStart);
  }
  pending_regions_.clear();
}

const std::size_t* LoopIndex::startEntry(std::size_t record_index) const {
  const auto it = std::lower_bound(fork_records_.begin(), fork_records_.end(),
                                   record_index);
  if (it == fork_records_.end() || *it != record_index) return nullptr;
  return &fork_starts_[static_cast<std::size_t>(it - fork_records_.begin())];
}

bool LoopIndex::resolved(std::size_t record_index) const {
  const std::size_t* start = startEntry(record_index);
  return start != nullptr && *start != kPending;
}

std::size_t LoopIndex::startOfFork(std::size_t record_index) const {
  const std::size_t* start = startEntry(record_index);
  SPT_CHECK_MSG(start != nullptr && *start != kPending,
                "record is not an indexed fork");
  return *start;
}

std::string loopNameOf(const ir::Module& module, ir::StaticId header_sid) {
  const auto& loc = module.locate(header_sid);
  const ir::Function& func = module.function(loc.func);
  return func.name + "." + ir::blockName(func, loc.block);
}

std::string LoopIndex::loopName(ir::StaticId header_sid) const {
  return loopNameOf(module_, header_sid);
}

}  // namespace spt::trace
