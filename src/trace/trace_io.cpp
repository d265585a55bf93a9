#include "trace/trace_io.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define SPT_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace spt::trace {
namespace {

constexpr char kMagic[8] = {'S', 'P', 'T', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 4;

// magic + version + flags + count + checksum + meta0 + meta1.
constexpr std::size_t kHeaderBytes =
    sizeof kMagic + 2 * sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t);
static_assert(kHeaderBytes == 48 && kHeaderBytes % alignof(Record) == 0,
              "records must start 8-aligned for in-place mapping");

// The checksum folds whole words, and open() reads a record's kind, op,
// taken and pad bytes from its first word.
constexpr std::size_t kRecordWords = sizeof(Record) / sizeof(std::uint64_t);
static_assert(sizeof(Record) % sizeof(std::uint64_t) == 0);
static_assert(offsetof(Record, pad) < sizeof(std::uint64_t));
static_assert(TraceFileWriter::kBlockRecords * kRecordWords %
                  support::WordLanes::kLanes ==
              0);

/// Record-range validation. `raw` is one 40-byte record image; `offset` is
/// its absolute position in the file. On failure fills `error` with the
/// byte-offset diagnostic and returns false.
bool validateRecordBytes(const unsigned char* raw, std::uint64_t index,
                         std::size_t offset, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const unsigned char kind = raw[offsetof(Record, kind)];
  if (kind > static_cast<std::uint8_t>(RecordKind::kLoopExit)) {
    return fail("corrupt record kind " + std::to_string(kind) +
                " in record " + std::to_string(index) + " at byte offset " +
                std::to_string(offset) +
                " (valid kinds: 0=kInstr, 1=kIterBegin, 2=kLoopExit)");
  }
  const unsigned char op = raw[offsetof(Record, op)];
  if (op > static_cast<std::uint8_t>(ir::Opcode::kNop)) {
    return fail("corrupt opcode " + std::to_string(op) + " in record " +
                std::to_string(index) + " at byte offset " +
                std::to_string(offset) + " (valid opcodes: 0.." +
                std::to_string(static_cast<std::uint8_t>(ir::Opcode::kNop)) +
                ")");
  }
  const unsigned char taken = raw[offsetof(Record, taken)];
  if (taken > 1) {
    return fail("corrupt taken flag " + std::to_string(taken) +
                " in record " + std::to_string(index) + " at byte offset " +
                std::to_string(offset + offsetof(Record, taken)) +
                " (must be 0 or 1)");
  }
  const unsigned char pad = raw[offsetof(Record, pad)];
  if (pad != 0) {
    return fail("corrupt pad byte " + std::to_string(pad) + " in record " +
                std::to_string(index) + " at byte offset " +
                std::to_string(offset + offsetof(Record, pad)) +
                " (reserved, must be 0)");
  }
  return true;
}

/// The byte at offset `at` of the eight bytes loaded as `word`.
constexpr std::uint64_t byteAt(std::uint64_t word, std::size_t at) {
  const std::size_t shift =
      std::endian::native == std::endian::little ? at : 7 - at;
  return (word >> (8 * shift)) & 0xff;
}

/// One pass over `count` records at `payload`: folds every word into
/// `lanes`, tests each record's kind/op/taken/pad bytes (from its first
/// word) into one flag without branching, and adds the kInstr records to
/// `instrs`. Returns nonzero when a record is out of range. Records go four
/// at a time, a whole number of checksum rounds; as with WordLanes::fold,
/// every call but the last must pass a multiple of kLanes records.
std::uint64_t scanRecords(const unsigned char* payload, std::uint64_t count,
                          support::WordLanes& lanes, std::uint64_t& instrs) {
  constexpr std::uint64_t kMaxKind =
      static_cast<std::uint8_t>(RecordKind::kLoopExit);
  constexpr std::uint64_t kMaxOp = static_cast<std::uint8_t>(ir::Opcode::kNop);
  constexpr std::uint64_t kInstr =
      static_cast<std::uint8_t>(RecordKind::kInstr);
  constexpr std::uint64_t kGroup = support::WordLanes::kLanes;
  std::uint64_t bad = 0;
  std::uint64_t n = 0;
  const auto check = [&](const unsigned char* raw) {
    std::uint64_t head = 0;
    std::memcpy(&head, raw, sizeof head);
    const std::uint64_t kind = byteAt(head, offsetof(Record, kind));
    bad |= static_cast<std::uint64_t>(kind > kMaxKind) |
           static_cast<std::uint64_t>(byteAt(head, offsetof(Record, op)) >
                                      kMaxOp) |
           static_cast<std::uint64_t>(byteAt(head, offsetof(Record, taken)) >
                                      1) |
           byteAt(head, offsetof(Record, pad));
    n += static_cast<std::uint64_t>(kind == kInstr);
  };
  std::uint64_t i = 0;
  for (; i + kGroup <= count; i += kGroup) {
    const unsigned char* group = payload + i * sizeof(Record);
    for (std::uint64_t r = 0; r < kGroup; ++r) {
      check(group + r * sizeof(Record));
    }
    lanes.fold(group, kGroup * kRecordWords);
  }
  lanes.fold(payload + i * sizeof(Record), (count - i) * kRecordWords);
  for (; i < count; ++i) check(payload + i * sizeof(Record));
  instrs += n;
  return bad;
}

/// The diagnostic of the first out-of-range record among the `count` at
/// `payload`, the first of them being the file's record `first`.
std::string firstBadRecord(const unsigned char* payload, std::uint64_t count,
                           std::uint64_t first) {
  std::string error;
  for (std::uint64_t j = 0; j < count; ++j) {
    const std::uint64_t index = first + j;
    if (!validateRecordBytes(payload + j * sizeof(Record), index,
                             kHeaderBytes + index * sizeof(Record), &error)) {
      break;
    }
  }
  return error;
}

std::string processTag() {
#if SPT_TRACE_HAVE_MMAP
  return std::to_string(static_cast<long>(::getpid()));
#else
  return "self";
#endif
}

}  // namespace

TraceFileWriter::TraceFileWriter(std::string path, std::string tmp)
    : path_(std::move(path)),
      tmp_(std::move(tmp)),
      block_(std::make_unique_for_overwrite<Record[]>(kBlockRecords)) {
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    error_ = tmp_ + ": cannot open for writing";
    return;
  }
  // Whole blocks go to the kernel straight from the block or the caller's
  // records; a stdio buffer would only copy them once more.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  // Room for the header, which finish() writes last.
  const char zeros[kHeaderBytes] = {};
  if (std::fwrite(zeros, 1, kHeaderBytes, file_) != kHeaderBytes) {
    error_ = tmp_ + ": write failed";
  }
}

TraceFileWriter::~TraceFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_.c_str());
  }
}

void TraceFileWriter::put(const Record* records, std::size_t n) {
  if (!error_.empty() || n == 0) return;
  const auto* raw = reinterpret_cast<const unsigned char*>(records);
  if (scanRecords(raw, n, lanes_, instrs_) != 0) {
    error_ = tmp_ + ": " + firstBadRecord(raw, n, records_);
    return;
  }
  if (std::fwrite(raw, sizeof(Record), n, file_) != n) {
    error_ = tmp_ + ": write failed";
    return;
  }
  records_ += n;
}

void TraceFileWriter::flush() {
  put(block_.get(), pending_);
  pending_ = 0;
}

void TraceFileWriter::onBlock(TraceView block) {
  const Record* next = block.begin();
  while (next != block.end()) {
    const std::size_t left = static_cast<std::size_t>(block.end() - next);
    if (pending_ == 0 && left >= kBlockRecords) {
      const std::size_t whole = left - left % kBlockRecords;
      put(next, whole);
      next += whole;
      continue;
    }
    const std::size_t take = std::min(kBlockRecords - pending_, left);
    std::memcpy(block_.get() + pending_, next, take * sizeof(Record));
    pending_ += take;
    next += take;
    if (pending_ == kBlockRecords) flush();
  }
}

std::optional<TraceFileSummary> TraceFileWriter::finish(
    const TraceFileMeta& meta, std::string* error) {
  flush();
  const TraceFileSummary summary{records_, instrs_, lanes_.digest(), meta};
  if (error_.empty()) {
    unsigned char header[kHeaderBytes];
    const std::uint32_t version = kVersion;
    const std::uint32_t flags = 0;
    std::memcpy(header, kMagic, sizeof kMagic);
    std::memcpy(header + 8, &version, sizeof version);
    std::memcpy(header + 12, &flags, sizeof flags);
    std::memcpy(header + 16, &summary.records, sizeof summary.records);
    std::memcpy(header + 24, &summary.checksum, sizeof summary.checksum);
    std::memcpy(header + 32, &meta.word0, sizeof meta.word0);
    std::memcpy(header + 40, &meta.word1, sizeof meta.word1);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes) {
      error_ = tmp_ + ": write failed";
    }
  }
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0 && error_.empty()) {
      error_ = tmp_ + ": write failed";
    }
    file_ = nullptr;
    if (error_.empty() && std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      error_ = "cannot rename " + tmp_ + " to " + path_;
    }
    if (!error_.empty()) std::remove(tmp_.c_str());
  }
  if (!error_.empty()) {
    if (error != nullptr) *error = error_;
    return std::nullopt;
  }
  return summary;
}

bool writeTraceFile(const std::string& path, TraceView trace,
                    const TraceFileMeta& meta) {
  TraceFileWriter writer(path, path + ".tmp." + processTag());
  writer.onBlock(trace);
  return writer.finish(meta).has_value();
}

MappedTrace::MappedTrace(MappedTrace&& other) noexcept {
  *this = std::move(other);
}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this == &other) return *this;
  release();
  records_ = other.records_;
  count_ = other.count_;
  instr_count_ = other.instr_count_;
  checksum_ = other.checksum_;
  meta_ = other.meta_;
  map_base_ = other.map_base_;
  map_len_ = other.map_len_;
  heap_copy_ = other.heap_copy_;
  other.records_ = nullptr;
  other.count_ = 0;
  other.instr_count_ = 0;
  other.map_base_ = nullptr;
  other.map_len_ = 0;
  other.heap_copy_ = nullptr;
  return *this;
}

MappedTrace::~MappedTrace() { release(); }

void MappedTrace::release() {
#if SPT_TRACE_HAVE_MMAP
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
#endif
  map_base_ = nullptr;
  map_len_ = 0;
  delete[] heap_copy_;
  heap_copy_ = nullptr;
  records_ = nullptr;
  count_ = 0;
  instr_count_ = 0;
  checksum_ = 0;
}

std::optional<MappedTrace> MappedTrace::map(const std::string& path,
                                            std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<MappedTrace> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };

  MappedTrace mapped;
  const char* bytes = nullptr;
  std::size_t file_len = 0;

#if SPT_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail("cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return fail("cannot stat");
  }
  file_len = static_cast<std::size_t>(st.st_size);
  if (file_len > 0) {
    // Read-only shared mapping: every process mapping this file shares one
    // page-cache copy (the COW-free property pooled sweep workers rely on).
    void* base = ::mmap(nullptr, file_len, PROT_READ, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return fail("mmap failed");
    }
    mapped.map_base_ = base;
    mapped.map_len_ = file_len;
    bytes = static_cast<const char*>(base);
  }
  ::close(fd);  // the mapping keeps the file referenced
#else
  // No mmap on this target: fall back to an owned heap copy with the same
  // validation and view semantics.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return fail("cannot open");
  file_len = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  mapped.heap_copy_ = new char[file_len == 0 ? 1 : file_len];
  if (!in.read(mapped.heap_copy_, static_cast<std::streamsize>(file_len))) {
    return fail("short read");
  }
  bytes = mapped.heap_copy_;
#endif

  if (file_len < kHeaderBytes) {
    return fail("truncated header: file is " + std::to_string(file_len) +
                " bytes, the header is " + std::to_string(kHeaderBytes) +
                " bytes");
  }
  if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0) {
    return fail("bad magic (not an SPT trace file)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes + 8, sizeof version);
  if (version != kVersion) {
    return fail("unsupported trace version " + std::to_string(version) +
                " (expected " + std::to_string(kVersion) + ")");
  }
  std::uint32_t flags = 0;
  std::memcpy(&flags, bytes + 12, sizeof flags);
  if (flags != 0) {
    return fail("unsupported trace flags " + std::to_string(flags) +
                " at byte offset 12 (reserved, must be 0)");
  }
  std::uint64_t count = 0;
  std::memcpy(&count, bytes + 16, sizeof count);
  std::memcpy(&mapped.checksum_, bytes + 24, sizeof mapped.checksum_);
  std::memcpy(&mapped.meta_.word0, bytes + 32, sizeof(std::uint64_t));
  std::memcpy(&mapped.meta_.word1, bytes + 40, sizeof(std::uint64_t));

  // Compare record counts, not byte totals: a corrupt count near
  // 2^64 / sizeof(Record) would wrap `count * sizeof(Record)` back to the
  // file's length and send the validation loop far past the mapping.
  const std::size_t body = file_len - kHeaderBytes;
  const std::uint64_t room = body / sizeof(Record);
  if (count != room || body % sizeof(Record) != 0) {
    return fail("record stream size mismatch: header declares " +
                std::to_string(count) + " records, file is " +
                std::to_string(file_len) + " bytes (room for " +
                std::to_string(room) + " records)" +
                (count > room ? " (truncated at byte offset " +
                                    std::to_string(file_len) + ")"
                              : " (trailing garbage)"));
  }
  mapped.records_ = reinterpret_cast<const Record*>(bytes + kHeaderBytes);
  mapped.count_ = static_cast<std::size_t>(count);
  return mapped;
}

std::optional<MappedTrace> MappedTrace::open(const std::string& path,
                                             std::string* error) {
  std::optional<MappedTrace> mapped = map(path, error);
  if (!mapped) return std::nullopt;
  const auto fail = [&](const std::string& why) -> std::optional<MappedTrace> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  const auto* payload =
      reinterpret_cast<const unsigned char*>(mapped->records_);
  const std::uint64_t count = mapped->count_;
  support::WordLanes lanes;
  std::uint64_t instrs = 0;
  // A flagged record: find the first one again, byte by byte, for its
  // diagnostic (range errors take precedence over the checksum).
  if (scanRecords(payload, count, lanes, instrs) != 0) {
    return fail(firstBadRecord(payload, count, 0));
  }
  const std::uint64_t checksum = lanes.digest();
  if (checksum != mapped->checksum_) {
    return fail("checksum mismatch over " + std::to_string(count) +
                " records: stored " + std::to_string(mapped->checksum_) +
                ", computed " + std::to_string(checksum) +
                " (trace bytes corrupted)");
  }
  // Validated: the payload region is a canonical Record array; hand out the
  // zero-copy view.
  mapped->instr_count_ = instrs;
  return mapped;
}

std::optional<MappedTrace> MappedTrace::openWritten(
    const std::string& path, const TraceFileSummary& written,
    std::string* error) {
  std::optional<MappedTrace> mapped = map(path, error);
  if (!mapped) return std::nullopt;
  mapped->instr_count_ = written.instrs;
  if (mapped->summary() != written) {
    if (error != nullptr) {
      *error = path + ": header differs from the one written (" +
               std::to_string(mapped->count_) + " records, checksum " +
               std::to_string(mapped->checksum_) + "; wrote " +
               std::to_string(written.records) + " records, checksum " +
               std::to_string(written.checksum) + ")";
    }
    return std::nullopt;
  }
  return mapped;
}

}  // namespace spt::trace
