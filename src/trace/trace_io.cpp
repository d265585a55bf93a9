#include "trace/trace_io.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <ostream>

#include "support/hash.h"

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

std::uint64_t streamChecksum(TraceView trace) {
  // Record *is* the canonical disk encoding (record.h), so the checksum is
  // over the structs' own bytes.
  support::WordLanes lanes;
  lanes.fold(trace.data(), trace.size() * kRecordWords);
  return lanes.digest();
}

/// The byte at offset `at` of the eight bytes loaded as `word`.
constexpr std::uint64_t byteAt(std::uint64_t word, std::size_t at) {
  const std::size_t shift =
      std::endian::native == std::endian::little ? at : 7 - at;
  return (word >> (8 * shift)) & 0xff;
}

}  // namespace

bool writeTrace(std::ostream& os, TraceView trace,
                const TraceFileMeta& meta) {
  os.write(kMagic, sizeof kMagic);
  const std::uint32_t version = kVersion;
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint32_t flags = 0;
  os.write(reinterpret_cast<const char*>(&flags), sizeof flags);
  const std::uint64_t count = trace.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof count);
  const std::uint64_t checksum = streamChecksum(trace);
  os.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  os.write(reinterpret_cast<const char*>(&meta.word0), sizeof meta.word0);
  os.write(reinterpret_cast<const char*>(&meta.word1), sizeof meta.word1);
  os.write(reinterpret_cast<const char*>(trace.data()),
           static_cast<std::streamsize>(count * sizeof(Record)));
  return static_cast<bool>(os);
}

bool writeTraceFile(const std::string& path, TraceView trace,
                    const TraceFileMeta& meta) {
  std::ofstream out(path, std::ios::binary);
  return out && writeTrace(out, trace, meta);
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
}

std::optional<MappedTrace> MappedTrace::open(const std::string& path,
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
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes + 24, sizeof stored_checksum);
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

  // One pass over the payload: fold every word into the checksum, test
  // each record's kind/op/taken/pad bytes (from its first word) into one
  // flag without branching, and count the instructions. Records go four at
  // a time, a whole number of checksum rounds.
  const unsigned char* payload =
      reinterpret_cast<const unsigned char*>(bytes) + kHeaderBytes;
  constexpr std::uint64_t kMaxKind =
      static_cast<std::uint8_t>(RecordKind::kLoopExit);
  constexpr std::uint64_t kMaxOp = static_cast<std::uint8_t>(ir::Opcode::kNop);
  constexpr std::uint64_t kInstr =
      static_cast<std::uint8_t>(RecordKind::kInstr);
  constexpr std::uint64_t kGroup = support::WordLanes::kLanes;
  support::WordLanes lanes;
  std::uint64_t bad = 0;
  std::uint64_t instrs = 0;
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
    instrs += static_cast<std::uint64_t>(kind == kInstr);
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

  // A flagged record: find the first one again, byte by byte, for its
  // diagnostic (range errors take precedence over the checksum).
  if (bad != 0) {
    std::string record_error;
    for (std::uint64_t j = 0; j < count; ++j) {
      if (!validateRecordBytes(payload + j * sizeof(Record), j,
                               kHeaderBytes + j * sizeof(Record),
                               &record_error)) {
        return fail(record_error);
      }
    }
  }
  const std::uint64_t checksum = lanes.digest();
  if (checksum != stored_checksum) {
    return fail("checksum mismatch over " + std::to_string(count) +
                " records: stored " + std::to_string(stored_checksum) +
                ", computed " + std::to_string(checksum) +
                " (trace bytes corrupted)");
  }

  // Validated: the payload region is a canonical Record array; hand out the
  // zero-copy view.
  mapped.records_ = reinterpret_cast<const Record*>(payload);
  mapped.count_ = static_cast<std::size_t>(count);
  mapped.instr_count_ = instrs;
  return mapped;
}

}  // namespace spt::trace
