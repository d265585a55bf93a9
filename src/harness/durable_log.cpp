#include "harness/durable_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/cell_codec.h"
#include "support/wire.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define SPT_DURABLE_LOG_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#else
#define SPT_DURABLE_LOG_POSIX 0
#endif

namespace spt::harness {

namespace {

constexpr std::uint32_t kLogVersion = 1;
constexpr support::wire::FrameFormat kLogFormat{
    {'S', 'P', 'T', 'L'}, kLogVersion, kLogVersion, 0,
    static_cast<std::uint8_t>(LogRecord::Kind::kSettle)};

constexpr char kHexDigits[] = "0123456789abcdef";

std::string toHex(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool fromHex(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hexNibble(hex[i]);
    const int lo = hexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// "deadline" is written by no current service; a journal from one that
/// had per-request deadlines still settles its requests with it.
bool isOutcome(const std::string& s) {
  return s == "done" || s == "cancelled" || s == "deadline";
}

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

std::string formatLogRecord(const LogRecord& record) {
  ByteWriter w;
  switch (record.kind) {
    case LogRecord::Kind::kRow:
      w.u64(record.id);
      w.str(record.benchmark);
      w.str(record.config);
      w.str(record.payload);
      break;
    case LogRecord::Kind::kAdmit:
      w.u64(record.id);
      w.str(record.token);
      w.str(record.request_bytes);
      break;
    case LogRecord::Kind::kSettle:
      w.u64(record.id);
      w.str(record.outcome);
      break;
  }
  return toHex(support::wire::encodeFrame(
      kLogFormat.magic, kLogVersion, static_cast<std::uint8_t>(record.kind),
      w.bytes()));
}

bool parseLogRecord(const std::string& line, LogRecord* out,
                    std::string* error) {
  std::string frame;
  if (!fromHex(line, &frame)) return fail(error, "not a hex-encoded record");
  std::uint32_t version = 0;
  std::uint8_t kind = 0;
  std::string payload;
  std::string why;
  if (!support::wire::decodeFrame(kLogFormat, frame, &version, &kind,
                                  &payload, &why)) {
    return fail(error, why);
  }
  LogRecord rec;
  rec.kind = static_cast<LogRecord::Kind>(kind);
  ByteReader r(payload);
  bool ok = false;
  switch (rec.kind) {
    case LogRecord::Kind::kRow:
      ok = r.u64(&rec.id) && r.str(&rec.benchmark) && r.str(&rec.config) &&
           r.str(&rec.payload);
      break;
    case LogRecord::Kind::kAdmit:
      ok = r.u64(&rec.id) && r.str(&rec.token) && r.str(&rec.request_bytes);
      break;
    case LogRecord::Kind::kSettle:
      ok = r.u64(&rec.id) && r.str(&rec.outcome) && isOutcome(rec.outcome);
      break;
  }
  if (!ok || !r.atEnd()) return fail(error, "malformed record payload");
  *out = std::move(rec);
  return true;
}

LogReplay readDurableLog(const std::string& path) {
  LogReplay replay;
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) return replay;
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  // Only '\n'-terminated records are trusted: the writer emits
  // line + '\n' in one write, so an unterminated tail is a torn write.
  std::size_t complete = text.size();
  while (complete > 0 && text[complete - 1] != '\n') --complete;
  replay.valid_bytes = complete;
  if (complete != text.size()) {
    replay.torn_tail = true;
    replay.warnings.push_back(
        path + ": dropped torn trailing record at byte offset " +
        std::to_string(complete) + " (" +
        std::to_string(text.size() - complete) +
        " bytes without a terminating newline)");
  }
  // Admission order is file order; a settle closes its admit.
  std::vector<LogRecord> admits;
  std::map<std::uint64_t, std::size_t> open_admits;  // id -> slot in admits
  std::vector<bool> settled;
  std::size_t pos = 0;
  while (pos < complete) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t offset = pos;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("spt-", 0) == 0) {
      // A text format tag: the retired spt-sweep-v1 checkpoint or
      // spt-journal-v1 journal. Hex records never start with one.
      LogReplay refused;
      refused.error = path + " is in the " + line.substr(0, line.find('\t')) +
                      " format, which this build no longer reads (the "
                      "durable log format is " + kDurableLogFormat +
                      "); move it aside or choose a new path";
      return refused;
    }
    LogRecord record;
    std::string why;
    if (!parseLogRecord(line, &record, &why)) {
      ++replay.records_skipped;
      replay.warnings.push_back(path + ": skipped record at byte offset " +
                                std::to_string(offset) + ": " + why);
      continue;
    }
    ++replay.records_replayed;
    const auto it = open_admits.find(record.id);
    if (record.kind == LogRecord::Kind::kRow) {
      RowKey key{std::move(record.benchmark), std::move(record.config)};
      if (it != open_admits.end()) {
        replay.request_rows[record.id][key] = record.payload;
      }
      replay.rows[std::move(key)] = std::move(record.payload);
      continue;
    }
    if (record.id >= replay.next_id) replay.next_id = record.id + 1;
    if (record.kind == LogRecord::Kind::kAdmit) {
      // Last admit wins for a duplicated id (should not happen; tolerate).
      if (it != open_admits.end()) {
        admits[it->second] = std::move(record);
      } else {
        open_admits[record.id] = admits.size();
        admits.push_back(std::move(record));
        settled.push_back(false);
      }
    } else if (it == open_admits.end()) {
      replay.warnings.push_back(
          path + ": settle for unknown request id " +
          std::to_string(record.id) + " at byte offset " +
          std::to_string(offset));
    } else {
      settled[it->second] = true;
      open_admits.erase(it);
      replay.request_rows.erase(record.id);
      ++replay.requests_settled;
    }
  }
  for (std::size_t i = 0; i < admits.size(); ++i) {
    if (!settled[i]) replay.unsettled.push_back(std::move(admits[i]));
  }
  return replay;
}

LogReplay openDurableLog(const std::string& path, bool fresh,
                         DurableAppendFile& file) {
  const auto refuse = [](std::string why) {
    LogReplay refused;
    refused.error = std::move(why);
    return refused;
  };
  LogReplay replay;
  if (!fresh) {
    replay = readDurableLog(path);
    if (!replay.error.empty()) return replay;
    if (replay.torn_tail) {
      std::error_code ec;
      std::filesystem::resize_file(path, replay.valid_bytes, ec);
      if (ec) {
        return refuse("cannot truncate the torn tail of " + path + ": " +
                      ec.message());
      }
    }
  }
  if (!file.open(path, /*truncate=*/fresh)) {
    const std::string why = std::strerror(errno);
    return refuse("cannot open " + path + " for appending: " + why);
  }
  return replay;
}

CheckpointLog::CheckpointLog(const std::string& path, bool resume)
    : path_(path) {
  if (path.empty()) return;
  LogReplay replay = openDurableLog(path, /*fresh=*/!resume, file_);
  if (!replay.error.empty()) throw DurableLogError(replay.error);
  for (const std::string& w : replay.warnings) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }
  rows_ = std::move(replay.rows);
}

const std::string* CheckpointLog::resumed(const std::string& benchmark,
                                          const std::string& config) const {
  const auto it = rows_.find({benchmark, config});
  return it == rows_.end() ? nullptr : &it->second;
}

void CheckpointLog::append(const std::string& benchmark,
                           const std::string& config,
                           const std::string& payload) {
  if (!file_.isOpen()) return;
  LogRecord rec;
  rec.benchmark = benchmark;
  rec.config = config;
  rec.payload = payload;
  const std::string line = formatLogRecord(rec);
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_.appendLine(line) && file_.sync()) return;
  const std::string why = std::strerror(errno);
  if (failures_++ == 0) {
    first_failure_ = why;
    std::fprintf(stderr, "error: checkpoint %s: cannot make the row for %s/%s "
                 "durable: %s\n",
                 path_.c_str(), benchmark.c_str(), config.c_str(),
                 why.c_str());
  }
}

std::string CheckpointLog::failure() const {
  if (failures_ == 0) return {};
  return "checkpoint " + path_ + ": " + std::to_string(failures_) +
         " row(s) could not be made durable (" + first_failure_ +
         "); --resume would re-run them";
}

#if SPT_DURABLE_LOG_POSIX

namespace {

bool writeAllDurable(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

DurableAppendFile::~DurableAppendFile() { close(); }

bool DurableAppendFile::open(const std::string& path, bool truncate) {
  close();
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  fd_ = fd;
  dirty_ = false;
  return true;
}

bool DurableAppendFile::isOpen() const { return fd_ >= 0; }

bool DurableAppendFile::appendLine(const std::string& line) {
  if (fd_ < 0) return false;
  std::string record = line;
  record.push_back('\n');
  if (!writeAllDurable(fd_, record.data(), record.size())) return false;
  dirty_ = true;
  return true;
}

bool DurableAppendFile::appendTorn(const std::string& line,
                                   std::size_t bytes) {
  if (fd_ < 0) return false;
  const std::size_t n = std::min(bytes, line.size());
  if (!writeAllDurable(fd_, line.data(), n)) return false;
  dirty_ = true;
  return sync();
}

bool DurableAppendFile::sync() {
  if (fd_ < 0 || !dirty_) return fd_ >= 0;
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return false;
  dirty_ = false;
  return true;
}

void DurableAppendFile::close() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
    fd_ = -1;
  }
  dirty_ = false;
}

int DurableAppendFile::fd() const { return fd_; }

#else  // !SPT_DURABLE_LOG_POSIX

DurableAppendFile::~DurableAppendFile() { close(); }

bool DurableAppendFile::open(const std::string& path, bool truncate) {
  close();
  auto* out = new std::ofstream(
      path, std::ios::binary | std::ios::out |
                (truncate ? std::ios::trunc : std::ios::app));
  if (!*out) {
    delete out;
    return false;
  }
  stream_ = out;
  return true;
}

bool DurableAppendFile::isOpen() const { return stream_ != nullptr; }

bool DurableAppendFile::appendLine(const std::string& line) {
  if (stream_ == nullptr) return false;
  auto* out = static_cast<std::ofstream*>(stream_);
  (*out) << line << '\n';
  return static_cast<bool>(*out);
}

bool DurableAppendFile::appendTorn(const std::string& line,
                                   std::size_t bytes) {
  if (stream_ == nullptr) return false;
  auto* out = static_cast<std::ofstream*>(stream_);
  out->write(line.data(),
             static_cast<std::streamsize>(std::min(bytes, line.size())));
  out->flush();
  return static_cast<bool>(*out);
}

bool DurableAppendFile::sync() {
  if (stream_ == nullptr) return false;
  auto* out = static_cast<std::ofstream*>(stream_);
  out->flush();
  return static_cast<bool>(*out);
}

void DurableAppendFile::close() {
  if (stream_ != nullptr) {
    auto* out = static_cast<std::ofstream*>(stream_);
    out->flush();
    delete out;
    stream_ = nullptr;
  }
}

int DurableAppendFile::fd() const { return -1; }

#endif  // SPT_DURABLE_LOG_POSIX

}  // namespace spt::harness
