// The one durable log behind `--checkpoint` and `sptc serve --journal`.
//
// Format `spt-log-v1`: append-only, one record per '\n'-terminated line.
// Each line is the lowercase hex of one support::wire frame under the
// magic "SPTL", version 1. The frame's FNV-1a trailer covers the kind,
// length and payload, and decoding checks the magic, version and length,
// so every record checks itself: a flipped bit makes the line undecodable
// and it is skipped, never read back as a different value. Three record
// kinds (the frame's kind byte):
//
//   row     the id of the service request the cell belongs to (0 for a
//           one-shot run), the cell key (benchmark, config) and the exact
//           cell_codec payload a worker replies with (encodeRow of a
//           SweepRow or a FaultCampaignCell)
//   admit   service request id, idempotency token, SPTS request bytes
//   settle  service request id and outcome (done | cancelled; "deadline"
//           from services that had per-request deadlines still settles)
//
// `sptc sweep` / `sptc inject --checkpoint` write rows. `sptc serve
// --journal` writes admits, rows and settles into one file: an admit is
// durable before any of the request's cells dispatch, each settled cell's
// row before its result is sent, and the settle record once the results
// are delivered. One reader, readDurableLog, serves `--resume` and
// service recovery:
//
//  - only '\n'-terminated lines are trusted; an unterminated tail is the
//    torn write of a crash, dropped and reported with `valid_bytes`, the
//    offset a restarting writer must truncate to;
//  - interior lines that fail to decode are skipped and reported with
//    their byte offset;
//  - the last row per key wins; admits without a settle are the
//    unsettled requests, in admission order, and each one's own rows are
//    kept apart, so service recovery never fills a request's cells from
//    another request that happened to use the same keys. `--resume`
//    ignores the request id: any row for a key is reusable there.
//
// A file whose lines carry a text format tag (the retired spt-sweep-v1
// checkpoint and spt-journal-v1 journal) is refused as a whole: it is
// never read as empty and never appended to.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace spt::harness {

inline constexpr const char* kDurableLogFormat = "spt-log-v1";

struct LogRecord {
  enum class Kind : std::uint8_t { kRow = 0, kAdmit = 1, kSettle = 2 };

  Kind kind = Kind::kRow;
  // Every kind: the service request id (0 for a one-shot run's rows).
  std::uint64_t id = 0;
  // kRow only.
  std::string benchmark;
  std::string config;
  std::string payload;  // cell_codec bytes
  // kAdmit only.
  std::string token;
  std::string request_bytes;  // encodeServiceRequest payload
  // kSettle only: "done" or "cancelled" ("deadline" in older journals).
  std::string outcome;
};

/// One encoded record (no terminating newline).
std::string formatLogRecord(const LogRecord& record);

/// Decodes one line (without its newline). Returns false, with a reason in
/// `error` when non-null, on bad hex, a frame that fails its checks, an
/// unknown kind, or a malformed payload.
bool parseLogRecord(const std::string& line, LogRecord* out,
                    std::string* error = nullptr);

/// Row key: (benchmark, config).
using RowKey = std::pair<std::string, std::string>;

struct LogReplay {
  /// Non-empty when the file was refused as a whole (an older format);
  /// every other field is then empty.
  std::string error;
  /// Last row payload per key, whatever request wrote it.
  std::map<RowKey, std::string> rows;
  /// Admit records with no matching settle, in admission order.
  std::vector<LogRecord> unsettled;
  /// The rows each unsettled request logged, last per key, by request id.
  std::map<std::uint64_t, std::map<RowKey, std::string>> request_rows;
  /// One larger than the largest request id seen (1 when there is none).
  std::uint64_t next_id = 1;
  std::uint64_t records_replayed = 0;  // valid records of every kind
  std::uint64_t records_skipped = 0;   // lines that failed to decode
  std::uint64_t requests_settled = 0;  // admits matched by a settle
  bool torn_tail = false;
  /// Byte offset just past the last '\n'-terminated record (the file size
  /// when the tail is clean). A writer reopening the file MUST truncate it
  /// here first: O_APPEND would otherwise glue the next record onto the
  /// torn fragment and the merged line would be skipped on every replay.
  std::uint64_t valid_bytes = 0;
  /// One sentence per anomaly (skipped record with its byte offset, torn
  /// tail, settle without an admit).
  std::vector<std::string> warnings;
};

/// Reads a log. A missing file, or a path that is not a regular file,
/// yields an empty replay: a fresh path has simply never been written.
LogReplay readDurableLog(const std::string& path);

/// Durable append-only line writer.
///
/// On POSIX this is an `open(O_WRONLY|O_CREAT|O_APPEND)` fd: each
/// appendLine() issues one `write(2)` of `line + '\n'` (O_APPEND makes the
/// seek+write atomic with respect to other appenders), and sync() calls
/// `fsync(2)` so the record survives power loss. sync() is batched: it is
/// a no-op unless an append happened since the last sync, so callers can
/// call it eagerly per record without paying for empty fsyncs. The bytes
/// on disk are exactly those of an ofstream writing `line << '\n'`.
///
/// On non-POSIX builds it degrades to a buffered stream with flush()
/// (no durability guarantee; the service that needs one is POSIX-only).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile();
  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  /// Opens (creating if needed) for appending; truncates first when
  /// `truncate` is set. Returns false on failure (isOpen() stays false).
  bool open(const std::string& path, bool truncate);
  bool isOpen() const;

  /// Appends `line + '\n'`. Returns false on a short or failed write.
  bool appendLine(const std::string& line);

  /// Test/chaos hook: appends only the first `bytes` bytes of `line` with
  /// NO terminating newline — simulates a write torn by a crash mid-append
  /// (the torn-tail case readDurableLog must tolerate). The truncated
  /// bytes are fsync'd immediately so a SIGKILL right after leaves exactly
  /// this fragment on disk.
  bool appendTorn(const std::string& line, std::size_t bytes);

  /// fsync(2) if anything was appended since the last sync.
  bool sync();

  void close();

  /// The fd backing the writer (-1 when closed or non-POSIX). Exposed so a
  /// forking caller can close it in the child.
  int fd() const;

 private:
  int fd_ = -1;
  bool dirty_ = false;
  void* stream_ = nullptr;  // non-POSIX fallback (std::ofstream*)
};

/// Opens `path` for appending the way every writer of the log does. With
/// `fresh` the file is truncated and nothing is read. Otherwise it is read
/// first, a torn tail is cut off at `valid_bytes` so the next record starts
/// on a line of its own, and the file is reopened for appending. On
/// failure (an older format, a failed truncate or open) the returned
/// replay's `error` names the path and `file` stays closed.
LogReplay openDurableLog(const std::string& path, bool fresh,
                         DurableAppendFile& file);

/// A `--checkpoint` log that the one-shot sweep or campaign cannot start
/// with: an older format or a path that cannot be opened.
class DurableLogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The one-shot sweep's and campaign's checkpoint: rows to resume from,
/// read once up front, and durable row appends as cells finish.
class CheckpointLog {
 public:
  /// Inert when `path` is empty. With `resume`, reads the rows already in
  /// `path` (torn-tail and skipped-record warnings go to stderr); then
  /// opens it for appending, truncating unless `resume`. Throws
  /// DurableLogError naming the path when the file is in an older format
  /// or cannot be opened, so the run stops before any cell starts.
  CheckpointLog(const std::string& path, bool resume);

  /// The last row payload logged for (benchmark, config), or nullptr.
  const std::string* resumed(const std::string& benchmark,
                             const std::string& config) const;

  /// Appends one row record and fsyncs it. Safe to call from several
  /// threads. A failure is reported on stderr when it happens and
  /// remembered for failure().
  void append(const std::string& benchmark, const std::string& config,
              const std::string& payload);

  /// Empty when every append and fsync so far succeeded; otherwise one
  /// sentence naming the path, the failed row count and the first error.
  std::string failure() const;

 private:
  std::string path_;
  std::map<RowKey, std::string> rows_;
  DurableAppendFile file_;
  std::mutex mu_;
  std::uint64_t failures_ = 0;
  std::string first_failure_;
};

}  // namespace spt::harness
