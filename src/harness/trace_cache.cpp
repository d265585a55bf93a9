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

/// Keys come from workload names and hex fingerprints; normalize anything
/// that would escape the cache directory or upset a filesystem.
std::string fileNameOf(std::string key) {
  for (char& c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
    if (!ok) c = '_';
  }
  return key;
}

std::string tempPathFor(const std::string& path) {
  return path + ".tmp." + processTag();
}

/// Moves the finished `tmp` over `path` in one step.
void renameInto(const std::string& tmp, const std::string& path) {
  SPT_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                ("trace cache: cannot rename " + tmp + " to " + path)
                    .c_str());
}

/// Installs `bytes` as the file at `path` by write-then-rename.
void installFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = tempPathFor(path);
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  SPT_CHECK_MSG(static_cast<bool>(out),
                ("trace cache: cannot write " + tmp).c_str());
  renameInto(tmp, path);
}

/// The bytes of the file at `path`, when it exists and `valid` accepts
/// them.
std::optional<std::string> readValidFile(
    const std::string& path, const TraceCache::BlobCheck& valid) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!valid(bytes.str())) return std::nullopt;
  return std::move(bytes).str();
}

bool isProfile(const std::string& bytes) {
  return profile::decodeProfile(bytes).has_value();
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
  const std::string file = dir_ + "/" + fileNameOf(key);
  const std::string path = file + ".spt3";
  const std::string profile_path = file + ".prof";

  // Another process (a sibling pooled worker, or an earlier run over the
  // same cache directory) may already have written this trace;
  // validation at open decides whether the file is trustworthy, and the
  // sidecar's checksum whether its profile is.
  std::string error;
  if (auto mapped = trace::MappedTrace::open(path, &error)) {
    std::optional<std::string> sidecar;
    if (profiled) sidecar = readValidFile(profile_path, isProfile);
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
  std::string sidecar;
  if (profiled) {
    sidecar = profile::encodeProfile(prof);
    installFile(profile_path, sidecar);
  }
  const std::string tmp = tempPathFor(path);
  SPT_CHECK_MSG(trace::writeTraceFile(tmp, buffer.view(), meta),
                ("trace cache: cannot write " + tmp).c_str());
  renameInto(tmp, path);

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

const std::string& TraceCache::getBlob(
    const std::string& key, const std::function<std::string()>& produce,
    const BlobCheck& valid) {
  Blob* blob = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Blob>& b = blobs_[key];
    if (!b) b = std::make_unique<Blob>();
    blob = b.get();
  }
  bool ran = false;
  std::call_once(blob->once, [&] {
    const std::string path = dir_ + "/" + fileNameOf(key);
    if (std::optional<std::string> bytes = readValidFile(path, valid)) {
      blob->bytes = std::move(*bytes);
      return;
    }
    blob->bytes = produce();
    installFile(path, blob->bytes);
    ran = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  ++(ran ? blobs_produced_ : blob_hits_);
  return blob->bytes;
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

std::uint64_t TraceCache::blobHits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return blob_hits_;
}

std::uint64_t TraceCache::blobsProduced() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return blobs_produced_;
}

}  // namespace spt::harness
