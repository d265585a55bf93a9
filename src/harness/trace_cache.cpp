#include "harness/trace_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/check.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#include <unistd.h>
#endif

namespace spt::harness {

namespace {

std::string processTag() {
#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
  return std::to_string(static_cast<long>(::getpid()));
#else
  return "self";
#endif
}

bool writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

/// The bytes of the profile sidecar at `path`; nullopt when missing or
/// invalid.
std::optional<std::string> readProfileSidecar(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!profile::decodeProfile(bytes.str())) return std::nullopt;
  return std::move(bytes).str();
}

}  // namespace

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  SPT_CHECK_MSG(!ec, ("trace cache: cannot create directory " + dir_ +
                      ": " + ec.message())
                         .c_str());
}

const TraceCache::Entry& TraceCache::get(const std::string& key,
                                         const Producer& produce) {
  return getSlot(
      key,
      [&](trace::TraceFileMeta* meta, profile::TrackedProfile*) {
        return produce(meta);
      },
      false);
}

const TraceCache::Entry& TraceCache::getProfiled(
    const std::string& key, const ProfilingProducer& produce) {
  return getSlot(key, produce, true);
}

const TraceCache::Entry& TraceCache::getSlot(const std::string& key,
                                             const ProfilingProducer& produce,
                                             bool profiled) {
  Slot* slot = nullptr;
  bool fresh = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Slot>& s = slots_[key];
    if (!s) {
      s = std::make_unique<Slot>();
      fresh = true;
    }
    slot = s.get();
  }
  // call_once serializes producers for one key and makes every later get()
  // wait for (and then share) the populated entry; a producer exception
  // leaves the flag unset so the next get() retries.
  std::call_once(slot->once,
                 [&] { populate(*slot, key, produce, profiled); });
  if (!fresh) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++memory_hits_;
  }
  return slot->entry;
}

void TraceCache::populate(Slot& slot, const std::string& key,
                          const ProfilingProducer& produce, bool profiled) {
  // Keys come from workload names and hex fingerprints; normalize anything
  // that would escape the cache directory or upset a filesystem.
  std::string file = key;
  for (char& c : file) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
    if (!ok) c = '_';
  }
  const std::string path = dir_ + "/" + file + ".spt3";
  const std::string profile_path = dir_ + "/" + file + ".prof";

  // Another process (a sibling pooled worker, or an earlier run over the
  // same cache directory) may already have written this trace;
  // validation at open decides whether the file is trustworthy, and the
  // sidecar's checksum whether its profile is.
  std::string error;
  if (auto mapped = trace::MappedTrace::open(path, &error)) {
    std::optional<std::string> sidecar;
    if (profiled) sidecar = readProfileSidecar(profile_path);
    if (!profiled || sidecar) {
      slot.entry = {mapped->view(), mapped->meta(), path,
                    mapped->instrCount(), std::move(sidecar).value_or("")};
      slot.map = std::move(mapped);
      const std::lock_guard<std::mutex> lock(mu_);
      ++file_reuses_;
      return;
    }
  }

  trace::TraceFileMeta meta;
  profile::TrackedProfile prof;
  trace::TraceBuffer buffer = produce(&meta, profiled ? &prof : nullptr);

  // Write-then-rename keeps concurrent cross-process producers benign:
  // readers never observe a partial file, and because the trace and its
  // profile are deterministic functions of the key, whichever rename lands
  // last installs the same bytes. The sidecar goes first, so a reader that
  // finds the trace normally finds its profile too.
  const std::string tag = ".tmp." + processTag();
  std::string sidecar;
  if (profiled) {
    sidecar = profile::encodeProfile(prof);
    const std::string tmp = profile_path + tag;
    SPT_CHECK_MSG(writeFile(tmp, sidecar),
                  ("trace cache: cannot write " + tmp).c_str());
    SPT_CHECK_MSG(std::rename(tmp.c_str(), profile_path.c_str()) == 0,
                  ("trace cache: cannot rename " + tmp + " to " +
                   profile_path)
                      .c_str());
  }
  const std::string tmp = path + tag;
  SPT_CHECK_MSG(trace::writeTraceFile(tmp, buffer.view(), meta),
                ("trace cache: cannot write " + tmp).c_str());
  SPT_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                ("trace cache: cannot rename " + tmp + " to " + path)
                    .c_str());

  auto mapped = trace::MappedTrace::open(path, &error);
  SPT_CHECK_MSG(mapped.has_value(),
                ("trace cache: just-written " + path +
                 " failed validation: " + error)
                    .c_str());
  slot.entry = {mapped->view(), mapped->meta(), path, mapped->instrCount(),
                std::move(sidecar)};
  slot.map = std::move(mapped);
  const std::lock_guard<std::mutex> lock(mu_);
  ++produced_;
}

std::uint64_t TraceCache::memoryHits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return memory_hits_;
}

std::uint64_t TraceCache::fileReuses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return file_reuses_;
}

std::uint64_t TraceCache::produced() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return produced_;
}

}  // namespace spt::harness
