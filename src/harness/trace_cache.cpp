#include "harness/trace_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "harness/cell_codec.h"
#include "support/check.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_TRACE_CACHE_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace spt::harness {

namespace {

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

/// Only the holder of a key's lock writes, so one temp name per file
/// suffices, and the next holder truncates whatever a killed one left.
std::string tempPathFor(const std::string& path) { return path + ".tmp.held"; }

/// A non-blocking exclusive flock on a key's lock file, held until
/// destruction (closing the descriptor releases it, and so does the
/// kernel when the holder dies). Where flock is unavailable every lock is
/// taken, so one process at a time may use a cache directory.
class KeyLock {
 public:
  explicit KeyLock(const std::string& path) {
#if SPT_TRACE_CACHE_HAVE_FLOCK
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    SPT_CHECK_MSG(fd_ >= 0,
                  ("trace cache: cannot open lock " + path).c_str());
    held_ = ::flock(fd_, LOCK_EX | LOCK_NB) == 0;
#else
    (void)path;
#endif
  }
  KeyLock(const KeyLock&) = delete;
  KeyLock& operator=(const KeyLock&) = delete;
  ~KeyLock() {
#if SPT_TRACE_CACHE_HAVE_FLOCK
    ::close(fd_);
#endif
  }

  bool held() const { return held_; }

 private:
  int fd_ = -1;
  bool held_ = true;
};

/// Installs `bytes` as the file at `path` by write-then-rename.
void installFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = tempPathFor(path);
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  SPT_CHECK_MSG(static_cast<bool>(out),
                ("trace cache: cannot write " + tmp).c_str());
  SPT_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                ("trace cache: cannot rename " + tmp + " to " + path)
                    .c_str());
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

/// Completes `writer`'s file with `meta` and maps it against the summary
/// the writer reports.
trace::MappedTrace finishAndMap(trace::TraceFileWriter& writer,
                                const std::string& path,
                                const trace::TraceFileMeta& meta) {
  std::string error;
  const std::optional<trace::TraceFileSummary> written =
      writer.finish(meta, &error);
  SPT_CHECK_MSG(written.has_value(),
                ("trace cache: cannot write " + path + ": " + error).c_str());
  std::optional<trace::MappedTrace> mapped =
      trace::MappedTrace::openWritten(path, *written, &error);
  SPT_CHECK_MSG(mapped.has_value(),
                ("trace cache: just-written " + error).c_str());
  return std::move(*mapped);
}

}  // namespace

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  SPT_CHECK_MSG(!ec, ("trace cache: cannot create directory " + dir_ +
                      ": " + ec.message())
                         .c_str());
}

TraceCache::Slot& TraceCache::slotFor(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Slot>& slot = slots_[key];
  if (!slot) slot = std::make_unique<Slot>();
  return *slot;
}

void TraceCache::count(std::uint64_t& counter) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++counter;
}

std::string TraceCache::pathOf(const std::string& key,
                               const char* extension) const {
  return dir_ + "/" + fileNameOf(key) + extension;
}

bool TraceCache::adopt(Slot& slot, const std::string& path) {
  // Another process (a sibling pooled worker, or an earlier run over the
  // same cache directory) may already have written this trace;
  // validation at open decides whether the file is trustworthy.
  std::optional<trace::MappedTrace> mapped = trace::MappedTrace::open(path);
  if (!mapped) return false;
  install(slot, path, std::move(*mapped));
  count(file_reuses_);
  return true;
}

void TraceCache::install(Slot& slot, const std::string& path,
                         trace::MappedTrace mapped) {
  slot.entry = {mapped.view(), mapped.meta(), path, mapped.instrCount()};
  slot.map = std::move(mapped);
  slot.ready = true;
}

const TraceCache::Entry& TraceCache::get(const std::string& key,
                                         const Producer& produce) {
  Slot& slot = slotFor(key);
  const std::lock_guard<std::mutex> hold(slot.mu);
  if (slot.ready) {
    count(memory_hits_);
    return slot.entry;
  }
  const std::string path = pathOf(key, ".spt3");
  if (adopt(slot, path)) return slot.entry;
  const KeyLock lock(pathOf(key, ".lock"));
  if (lock.held() && adopt(slot, path)) return slot.entry;

  trace::TraceFileMeta meta;
  trace::TraceBuffer trace = produce(&meta);
  if (!lock.held()) {
    slot.buffer = std::move(trace);
    slot.entry = {slot.buffer.view(), meta, path, slot.buffer.instrCount()};
    slot.ready = true;
    count(bypasses_);
    return slot.entry;
  }
  trace::TraceFileWriter writer(path, tempPathFor(path));
  writer.onBlock(trace.view());
  install(slot, path, finishAndMap(writer, path, meta));
  count(produced_);
  return slot.entry;
}

const TraceCache::Entry* TraceCache::getOrStream(const std::string& key,
                                                 const Streamer& stream) {
  Slot& slot = slotFor(key);
  std::unique_lock<std::mutex> hold(slot.mu);
  if (slot.ready) {
    count(memory_hits_);
    return &slot.entry;
  }
  const std::string path = pathOf(key, ".spt3");
  if (adopt(slot, path)) return &slot.entry;
  const KeyLock lock(pathOf(key, ".lock"));
  if (!lock.held()) {
    // The stream yields this call's result and nothing to share, so
    // later calls in this process need not wait for it.
    hold.unlock();
    stream(nullptr);
    count(bypasses_);
    return nullptr;
  }
  if (adopt(slot, path)) return &slot.entry;
  trace::TraceFileWriter writer(path, tempPathFor(path));
  Streamed streamed = stream(&writer);
  install(slot, path, finishAndMap(writer, path, streamed.meta));
  count(produced_);
  forksOf(slot, key, [&] { return std::move(streamed.forks); });
  return nullptr;
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
  const std::lock_guard<std::mutex> hold(blob->mu);
  if (blob->ready) {
    count(blob_hits_);
    return blob->bytes;
  }
  blob->bytes = loadBlob(key, produce, valid);
  blob->ready = true;
  return blob->bytes;
}

std::string TraceCache::loadBlob(const std::string& key,
                                 const std::function<std::string()>& produce,
                                 const BlobCheck& valid) {
  const std::string path = pathOf(key, "");
  std::optional<std::string> bytes = readValidFile(path, valid);
  std::uint64_t* outcome = &blob_hits_;
  if (!bytes) {
    const KeyLock lock(pathOf(key, ".lock"));
    if (lock.held()) bytes = readValidFile(path, valid);
    if (!bytes) {
      bytes = produce();
      if (lock.held()) {
        installFile(path, *bytes);
        outcome = &blobs_produced_;
      } else {
        outcome = &bypasses_;
      }
    }
  }
  count(*outcome);
  return std::move(*bytes);
}

const trace::ForkTable& TraceCache::forks(const std::string& key,
                                          const ForkBuilder& build) {
  Slot& slot = slotFor(key);
  const std::lock_guard<std::mutex> hold(slot.mu);
  SPT_CHECK_MSG(slot.ready, "trace cache: fork table of an absent trace");
  return forksOf(slot, key, build);
}

const trace::ForkTable& TraceCache::forksOf(Slot& slot,
                                            const std::string& key,
                                            const ForkBuilder& build) {
  if (slot.forks) {
    if (slot.map) count(blob_hits_);
    return *slot.forks;
  }
  if (!slot.map) return slot.forks.emplace(build());
  const trace::TraceFileSummary summary = slot.map->summary();
  loadBlob(
      key + ".forks",
      [&] {
        slot.forks = build();
        return encodeForkTable(*slot.forks, summary);
      },
      [&](const std::string& bytes) {
        slot.forks = decodeForkTable(bytes, slot.entry.view, summary);
        return slot.forks.has_value();
      });
  return *slot.forks;
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

std::uint64_t TraceCache::bypasses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bypasses_;
}

}  // namespace spt::harness
