#include "profile/profile_codec.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "support/wire.h"

namespace spt::profile {
namespace {

constexpr char kMagic[4] = {'S', 'P', 'T', 'P'};
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_integral_v<T>);
    out_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    T v{};
    if (pos_ + sizeof v > bytes_.size()) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  /// A table length, refused when the remaining bytes cannot hold that
  /// many entries of at least `entry_bytes` each.
  std::uint64_t count(std::size_t entry_bytes) {
    const auto n = get<std::uint64_t>();
    if (n > (bytes_.size() - std::min(pos_, bytes_.size())) / entry_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

template <typename Map>
std::vector<ir::StaticId> sortedKeys(const Map& map) {
  std::vector<ir::StaticId> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::string encodeProfile(const TrackedProfile& profile) {
  const ProfileData& d = profile.data;
  Writer w;
  w.put(d.total_instrs);
  std::vector<ir::StaticId> sids(profile.tracked.begin(),
                                 profile.tracked.end());
  std::sort(sids.begin(), sids.end());
  w.put<std::uint64_t>(sids.size());
  for (const ir::StaticId sid : sids) w.put(sid);

  w.put<std::uint64_t>(d.branches.size());
  for (const ir::StaticId sid : sortedKeys(d.branches)) {
    const BranchStats& s = d.branches.at(sid);
    w.put(sid);
    w.put(s.taken);
    w.put(s.not_taken);
  }
  w.put<std::uint64_t>(d.loops.size());
  for (const ir::StaticId sid : sortedKeys(d.loops)) {
    const LoopStats& s = d.loops.at(sid);
    w.put(sid);
    w.put(s.episodes);
    w.put(s.iterations);
    w.put(s.dyn_instrs);
  }
  w.put<std::uint64_t>(d.calls.size());
  for (const ir::StaticId sid : sortedKeys(d.calls)) {
    const CallStats& s = d.calls.at(sid);
    w.put(sid);
    w.put(s.calls);
    w.put(s.total_instrs);
  }
  w.put<std::uint64_t>(d.mem_deps.size());
  for (const ir::StaticId header : sortedKeys(d.mem_deps)) {
    const MemDepCounts& deps = d.mem_deps.at(header);
    w.put(header);
    w.put<std::uint64_t>(deps.size());
    for (const auto& [pair, s] : deps) {
      w.put(pair.first);
      w.put(pair.second);
      w.put(s.count);
      w.put(s.tail_instrs);
    }
  }
  w.put<std::uint64_t>(d.values.size());
  for (const ir::StaticId sid : sortedKeys(d.values)) {
    const ValueStats& s = d.values.at(sid);
    w.put(sid);
    w.put(s.samples);
    w.put<std::uint64_t>(s.delta_counts.size());
    for (const auto& [delta, count] : s.delta_counts) {
      w.put(delta);
      w.put(count);
    }
  }
  return support::wire::encodeFrame(kMagic, kVersion, 0, w.take());
}

std::optional<TrackedProfile> decodeProfile(const std::string& bytes,
                                            std::string* error) {
  std::uint32_t version = 0;
  std::uint8_t kind = 0;
  std::string payload;
  if (!support::wire::decodeFrame(kMagic, bytes, kVersion, kVersion, 0,
                                  &version, &kind, &payload, error)) {
    return std::nullopt;
  }
  Reader r(payload);
  TrackedProfile out;
  ProfileData& d = out.data;
  d.total_instrs = r.get<std::uint64_t>();
  for (std::uint64_t n = r.count(4); n > 0; --n) {
    out.tracked.insert(r.get<ir::StaticId>());
  }
  for (std::uint64_t n = r.count(20); n > 0; --n) {
    BranchStats& s = d.branches[r.get<ir::StaticId>()];
    s.taken = r.get<std::uint64_t>();
    s.not_taken = r.get<std::uint64_t>();
  }
  for (std::uint64_t n = r.count(28); n > 0; --n) {
    LoopStats& s = d.loops[r.get<ir::StaticId>()];
    s.episodes = r.get<std::uint64_t>();
    s.iterations = r.get<std::uint64_t>();
    s.dyn_instrs = r.get<std::uint64_t>();
  }
  for (std::uint64_t n = r.count(20); n > 0; --n) {
    CallStats& s = d.calls[r.get<ir::StaticId>()];
    s.calls = r.get<std::uint64_t>();
    s.total_instrs = r.get<std::uint64_t>();
  }
  for (std::uint64_t n = r.count(12); n > 0; --n) {
    MemDepCounts& deps = d.mem_deps[r.get<ir::StaticId>()];
    for (std::uint64_t m = r.count(24); m > 0; --m) {
      const auto store = r.get<ir::StaticId>();
      const auto load = r.get<ir::StaticId>();
      MemDepStat& s = deps.emplace_hint(deps.end(), std::pair{store, load},
                                        MemDepStat{})
                          ->second;
      s.count = r.get<std::uint64_t>();
      s.tail_instrs = r.get<std::uint64_t>();
    }
  }
  for (std::uint64_t n = r.count(20); n > 0; --n) {
    ValueStats& s = d.values[r.get<ir::StaticId>()];
    s.samples = r.get<std::uint64_t>();
    for (std::uint64_t m = r.count(16); m > 0; --m) {
      const auto delta = r.get<std::int64_t>();
      s.delta_counts.emplace_hint(s.delta_counts.end(), delta,
                                  r.get<std::uint64_t>());
    }
  }
  if (!r.done()) {
    if (error) *error = "malformed profile payload";
    return std::nullopt;
  }
  return out;
}

}  // namespace spt::profile
