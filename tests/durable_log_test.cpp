// Tests for the durable log (harness/durable_log.h): record round-trips
// for every kind, the replay state machine (rows last-wins, admits closed
// by settles, admission order, next-id handoff), truncation at every byte
// of a service log and of a checkpoint, the integrity property over a
// mixed log (truncation at every byte and every single-bit flip),
// loud skip-with-byte-offset handling of corrupt records, the versioned
// refusal of the retired text formats, and the DurableAppendFile writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cell_codec.h"
#include "harness/durable_log.h"
#include "support/wire.h"

namespace spt::harness {
namespace {

std::string testPath(const std::string& name) {
  return ::testing::TempDir() + "/spt_durable_log_" + name + ".txt";
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

LogRecord admitRecord(std::uint64_t id, const std::string& token,
                      const std::string& bytes) {
  LogRecord rec;
  rec.kind = LogRecord::Kind::kAdmit;
  rec.id = id;
  rec.token = token;
  rec.request_bytes = bytes;
  return rec;
}

LogRecord settleRecord(std::uint64_t id, const std::string& outcome) {
  LogRecord rec;
  rec.kind = LogRecord::Kind::kSettle;
  rec.id = id;
  rec.outcome = outcome;
  return rec;
}

LogRecord rowRecord(const std::string& benchmark, const std::string& config,
                    const std::string& payload, std::uint64_t id = 0) {
  LogRecord rec;
  rec.id = id;
  rec.benchmark = benchmark;
  rec.config = config;
  rec.payload = payload;
  return rec;
}

/// A hex line wrapping an arbitrary frame under the log's magic.
std::string frameLine(std::uint32_t version, std::uint8_t kind,
                      const std::string& payload) {
  static constexpr char kMagic[4] = {'S', 'P', 'T', 'L'};
  const std::string frame =
      support::wire::encodeFrame(kMagic, version, kind, payload);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : frame) {
    out.push_back(kHex[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

// ---- Record codec ---------------------------------------------------------

TEST(JournalRecordCodec, AdmitRoundTripsHostileFieldBytes) {
  // The token is client-controlled text and the request bytes are a binary
  // codec payload: both must survive tabs, newlines, backslashes, NULs and
  // every other byte value.
  std::string binary;
  for (int b = 0; b < 256; ++b) binary.push_back(static_cast<char>(b));
  const LogRecord rec =
      admitRecord(42, "tok\twith\ntabs\\and\rreturns", binary);
  const std::string line = formatLogRecord(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "a formatted record must be one line";

  LogRecord back;
  std::string why;
  ASSERT_TRUE(parseLogRecord(line, &back, &why)) << why;
  EXPECT_EQ(back.kind, LogRecord::Kind::kAdmit);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.token, rec.token);
  EXPECT_EQ(back.request_bytes, binary);
  EXPECT_TRUE(back.outcome.empty());
}

TEST(JournalRecordCodec, SettleRoundTripsEveryOutcome) {
  for (const char* outcome : {"done", "cancelled", "deadline"}) {
    const std::string line = formatLogRecord(settleRecord(7, outcome));
    LogRecord back;
    std::string why;
    ASSERT_TRUE(parseLogRecord(line, &back, &why)) << why;
    EXPECT_EQ(back.kind, LogRecord::Kind::kSettle);
    EXPECT_EQ(back.id, 7u);
    EXPECT_EQ(back.outcome, outcome);
  }
}

TEST(JournalRecordCodec, ParseRejectsEveryMalformation) {
  const std::string good = formatLogRecord(admitRecord(1, "t", "rq"));
  LogRecord out;
  std::string why;

  EXPECT_FALSE(parseLogRecord("not hex at all", &out, &why));
  EXPECT_NE(why.find("hex"), std::string::npos) << why;
  EXPECT_FALSE(parseLogRecord(good.substr(1), &out, &why));  // odd length
  std::string upper = good;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  EXPECT_FALSE(parseLogRecord(upper, &out, &why));  // lowercase only

  // One changed checksum digit: the frame check names the mismatch.
  std::string bad_sum = good;
  bad_sum.back() = bad_sum.back() == '0' ? '1' : '0';
  EXPECT_FALSE(parseLogRecord(bad_sum, &out, &why));
  EXPECT_NE(why.find("checksum mismatch"), std::string::npos) << why;

  // A version this build does not know, a kind past the last one, and a
  // settle outcome outside the vocabulary: each behind a valid checksum.
  ByteWriter settle;
  settle.u64(3);
  settle.str("done");
  EXPECT_FALSE(parseLogRecord(frameLine(2, 2, settle.bytes()), &out, &why));
  EXPECT_NE(why.find("version"), std::string::npos) << why;
  EXPECT_FALSE(parseLogRecord(frameLine(1, 3, settle.bytes()), &out, &why));
  EXPECT_NE(why.find("kind"), std::string::npos) << why;
  ByteWriter exploded;
  exploded.u64(3);
  exploded.str("exploded");
  EXPECT_FALSE(parseLogRecord(frameLine(1, 2, exploded.bytes()), &out, &why));
  EXPECT_NE(why.find("malformed"), std::string::npos) << why;
  // Trailing bytes after a complete payload.
  EXPECT_FALSE(
      parseLogRecord(frameLine(1, 2, settle.bytes() + "x"), &out, &why));

  EXPECT_TRUE(parseLogRecord(good, &out, &why)) << why;
}

// ---- Replay state machine -------------------------------------------------

TEST(JournalReplay, MissingFileYieldsEmptyReplayNotError) {
  const LogReplay replay = readDurableLog(testPath("never_written"));
  EXPECT_TRUE(replay.error.empty());
  EXPECT_TRUE(replay.rows.empty());
  EXPECT_TRUE(replay.unsettled.empty());
  EXPECT_EQ(replay.next_id, 1u);
  EXPECT_EQ(replay.records_replayed, 0u);
  EXPECT_EQ(replay.records_skipped, 0u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_TRUE(replay.warnings.empty());
}

TEST(JournalReplay, SettlesEraseAdmitsAndOrderSurvives) {
  const std::string path = testPath("state");
  std::string text;
  text += formatLogRecord(admitRecord(1, "a", "r1")) + "\n";
  text += formatLogRecord(admitRecord(2, "b", "r2")) + "\n";
  text += formatLogRecord(rowRecord("mcf", "default", "p1")) + "\n";
  text += formatLogRecord(settleRecord(1, "done")) + "\n";
  text += formatLogRecord(admitRecord(3, "", "r3")) + "\n";
  text += formatLogRecord(settleRecord(3, "cancelled")) + "\n";
  writeFile(path, text);

  const LogReplay replay = readDurableLog(path);
  EXPECT_EQ(replay.records_replayed, 6u);
  EXPECT_EQ(replay.records_skipped, 0u);
  EXPECT_EQ(replay.requests_settled, 2u);
  EXPECT_EQ(replay.next_id, 4u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.unsettled.size(), 1u);
  EXPECT_EQ(replay.unsettled[0].id, 2u);
  EXPECT_EQ(replay.unsettled[0].token, "b");
  EXPECT_EQ(replay.unsettled[0].request_bytes, "r2");
  ASSERT_EQ(replay.rows.size(), 1u);
  EXPECT_EQ(replay.rows.at({"mcf", "default"}), "p1");
}

TEST(JournalReplay, SettleWithoutAdmitWarnsAndContinues) {
  const std::string path = testPath("orphan_settle");
  std::string text;
  text += formatLogRecord(settleRecord(9, "done")) + "\n";
  text += formatLogRecord(admitRecord(10, "", "r")) + "\n";
  writeFile(path, text);

  const LogReplay replay = readDurableLog(path);
  EXPECT_EQ(replay.records_replayed, 2u);
  ASSERT_EQ(replay.unsettled.size(), 1u);
  EXPECT_EQ(replay.unsettled[0].id, 10u);
  EXPECT_EQ(replay.next_id, 11u);
  ASSERT_EQ(replay.warnings.size(), 1u);
  EXPECT_NE(replay.warnings[0].find("settle for unknown request id 9"),
            std::string::npos)
      << replay.warnings[0];
}

// Service recovery fills a request's cells only from rows that request
// logged: request 2 logged the same key later, and a one-shot row (id 0)
// later still, but request 1's own row is the one kept for it. A settled
// request's rows are dropped; `rows` keeps the last row per key of any id.
TEST(JournalReplay, RowsAreKeptApartPerUnsettledRequest) {
  const std::string path = testPath("request_rows");
  std::string text;
  text += formatLogRecord(admitRecord(1, "a", "r1")) + "\n";
  text += formatLogRecord(admitRecord(2, "b", "r2")) + "\n";
  text += formatLogRecord(rowRecord("mcf", "default", "one", 1)) + "\n";
  text += formatLogRecord(rowRecord("mcf", "default", "two", 2)) + "\n";
  text += formatLogRecord(rowRecord("gzip", "default", "two", 2)) + "\n";
  text += formatLogRecord(rowRecord("gzip", "default", "shot")) + "\n";
  text += formatLogRecord(settleRecord(2, "done")) + "\n";
  writeFile(path, text);

  const LogReplay replay = readDurableLog(path);
  ASSERT_EQ(replay.unsettled.size(), 1u);
  EXPECT_EQ(replay.unsettled[0].id, 1u);
  const std::map<std::uint64_t, std::map<RowKey, std::string>> own = {
      {1, {{{"mcf", "default"}, "one"}}}};
  EXPECT_EQ(replay.request_rows, own);
  const std::map<RowKey, std::string> last = {
      {{"mcf", "default"}, "two"}, {{"gzip", "default"}, "shot"}};
  EXPECT_EQ(replay.rows, last);

  LogRecord back;
  ASSERT_TRUE(parseLogRecord(formatLogRecord(rowRecord("m", "c", "p", 9)),
                             &back));
  EXPECT_EQ(back.kind, LogRecord::Kind::kRow);
  EXPECT_EQ(back.id, 9u);
  EXPECT_EQ(back.payload, "p");
}

TEST(JournalReplay, DuplicateAdmitIdKeepsTheLastRecord) {
  const std::string path = testPath("dup_admit");
  std::string text;
  text += formatLogRecord(admitRecord(4, "old", "r-old")) + "\n";
  text += formatLogRecord(admitRecord(4, "new", "r-new")) + "\n";
  writeFile(path, text);

  const LogReplay replay = readDurableLog(path);
  ASSERT_EQ(replay.unsettled.size(), 1u);
  EXPECT_EQ(replay.unsettled[0].token, "new");
  EXPECT_EQ(replay.unsettled[0].request_bytes, "r-new");
  EXPECT_EQ(replay.next_id, 5u);
}

// ---- Integrity property over a mixed log ----------------------------------

/// What a reader must report after replaying `records` in order.
struct Expected {
  std::map<RowKey, std::string> rows;
  std::map<std::uint64_t, std::map<RowKey, std::string>> request_rows;
  std::vector<std::uint64_t> unsettled;
  std::uint64_t next_id = 1;
  std::uint64_t settled = 0;
};

Expected model(const std::vector<LogRecord>& records) {
  Expected e;
  for (const LogRecord& r : records) {
    const auto it = std::find(e.unsettled.begin(), e.unsettled.end(), r.id);
    if (r.kind == LogRecord::Kind::kRow) {
      e.rows[{r.benchmark, r.config}] = r.payload;
      if (it != e.unsettled.end()) {
        e.request_rows[r.id][{r.benchmark, r.config}] = r.payload;
      }
      continue;
    }
    e.next_id = std::max(e.next_id, r.id + 1);
    if (r.kind == LogRecord::Kind::kAdmit) {
      if (it == e.unsettled.end()) e.unsettled.push_back(r.id);
    } else if (it != e.unsettled.end()) {
      e.unsettled.erase(it);
      e.request_rows.erase(r.id);
      ++e.settled;
    }
  }
  return e;
}

bool matches(const LogReplay& replay, const Expected& e) {
  std::vector<std::uint64_t> ids;
  for (const LogRecord& r : replay.unsettled) ids.push_back(r.id);
  return replay.rows == e.rows && replay.request_rows == e.request_rows &&
         ids == e.unsettled &&
         replay.next_id == e.next_id && replay.requests_settled == e.settled;
}

/// Sweep rows, a campaign row, admits and settles, with one row key
/// logged twice (last wins), once by each request.
std::vector<LogRecord> mixedLog() {
  SweepRow sweep;
  sweep.benchmark = "mcf";
  sweep.config = "default";
  sweep.result.baseline.cycles = 101;
  sweep.result.spt.cycles = 77;
  SweepRow rerun = sweep;
  rerun.result.spt.cycles = 78;
  FaultCampaignCell cell;
  cell.benchmark = "gzip";
  cell.fault_seed = 42;
  cell.status = CellStatus::kCrashed;
  cell.diagnostic = "hostile\tdiag\nwith separators";
  cell.faults.injected = 7;
  return {admitRecord(1, "t1", "req-one"),
          rowRecord("mcf", "default", encodeRow(sweep), 1),
          admitRecord(2, "t2", "req-two"),
          rowRecord("gzip", "cell:1/seed:42", encodeRow(cell), 2),
          settleRecord(1, "done"),
          rowRecord("mcf", "default", encodeRow(rerun), 2),
          settleRecord(2, "deadline")};
}

// A service log of admits and settles; after k complete records the
// expected unsettled ids are known exactly. Truncating the file at EVERY
// byte offset must (a) never mis-parse, (b) replay exactly the records
// whose terminating newline survived, and (c) flag the torn tail and hand
// back the valid-bytes offset a restarting writer must truncate to.
TEST(JournalReplay, TruncationAtEveryByteNeverLiesAboutPrefixRecords) {
  const std::vector<LogRecord> records = {
      admitRecord(1, "t1", "req-one"), admitRecord(2, "t2", "req-two"),
      settleRecord(1, "done"), admitRecord(3, "", "req-three"),
      settleRecord(3, "deadline")};
  const std::vector<std::vector<std::uint64_t>> unsettled_after = {
      {}, {1}, {1, 2}, {2}, {2, 3}, {2}};
  const std::vector<std::uint64_t> next_id_after = {1, 2, 3, 3, 4, 4};

  std::string text;
  std::vector<std::size_t> line_end;  // offset just past each '\n'
  for (const LogRecord& r : records) {
    text += formatLogRecord(r) + '\n';
    line_end.push_back(text.size());
  }

  const std::string path = testPath("truncate_property");
  for (std::size_t len = 0; len <= text.size(); ++len) {
    writeFile(path, text.substr(0, len));
    const LogReplay replay = readDurableLog(path);

    std::size_t complete = 0;  // records whose newline is inside the prefix
    std::size_t valid = 0;
    while (complete < line_end.size() && line_end[complete] <= len) {
      valid = line_end[complete];
      ++complete;
    }
    const bool torn = len != valid;

    ASSERT_TRUE(replay.error.empty()) << "len " << len;
    ASSERT_EQ(replay.records_replayed, complete) << "len " << len;
    ASSERT_EQ(replay.records_skipped, 0u) << "len " << len;
    ASSERT_EQ(replay.torn_tail, torn) << "len " << len;
    ASSERT_EQ(replay.valid_bytes, valid) << "len " << len;
    ASSERT_EQ(replay.next_id, next_id_after[complete]) << "len " << len;
    std::vector<std::uint64_t> ids;
    for (const LogRecord& r : replay.unsettled) ids.push_back(r.id);
    ASSERT_EQ(ids, unsettled_after[complete]) << "len " << len;
    if (torn) {
      ASSERT_FALSE(replay.warnings.empty()) << "len " << len;
      EXPECT_NE(replay.warnings.back().find(
                    "byte offset " + std::to_string(valid)),
                std::string::npos)
          << replay.warnings.back();
    }
  }
}

// A `--checkpoint` log of sweep and campaign rows, one key logged twice.
// Cut at EVERY byte offset, resuming through CheckpointLog finds exactly
// the rows whose '\n' survived (last row per key wins, payloads decode to
// what was written), and the reader reports a torn tail iff the cut left
// one.
TEST(Checkpoint, TruncationAtEveryByteOffsetLosesAtMostTheTornTail) {
  SweepRow first;
  first.benchmark = "mcf";
  first.config = "default";
  first.result.baseline.cycles = 101;
  first.result.spt.cycles = 202;
  SweepRow rerun = first;  // same key as the first row: last-wins
  rerun.result.baseline.cycles = 111;
  rerun.result.spt.cycles = 222;
  FaultCampaignCell cell;
  cell.benchmark = "gzip";
  cell.fault_seed = 42;
  cell.status = CellStatus::kCrashed;
  cell.diagnostic = "hostile\tdiag\nwith separators";
  cell.faults.injected = 7;
  const std::vector<LogRecord> records = {
      rowRecord("mcf", "default", encodeRow(first)),
      rowRecord("gzip", "cell:1/seed:42", encodeRow(cell)),
      rowRecord("mcf", "default", encodeRow(rerun))};

  std::string full;
  std::vector<std::size_t> ends;  // byte offset just past each record
  for (const LogRecord& r : records) {
    full += formatLogRecord(r) + '\n';
    ends.push_back(full.size());
  }

  const std::string path = testPath("truncation_property_ck");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    writeFile(path, full.substr(0, cut));
    // Expected: exactly the records whose '\n' survived, last-line-wins.
    std::map<RowKey, std::string> want;
    std::size_t complete = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (ends[i] <= cut) {
        want[{records[i].benchmark, records[i].config}] = records[i].payload;
        complete = ends[i];
      }
    }
    const LogReplay replay = readDurableLog(path);
    ASSERT_TRUE(replay.error.empty()) << "cut at byte " << cut;
    EXPECT_EQ(replay.torn_tail, cut != complete) << "cut at byte " << cut;
    EXPECT_EQ(replay.warnings.empty(), cut == complete)
        << "cut at byte " << cut;

    const CheckpointLog resumed(path, /*resume=*/true);
    const std::string* mcf = resumed.resumed("mcf", "default");
    const std::string* gzip = resumed.resumed("gzip", "cell:1/seed:42");
    ASSERT_EQ(mcf != nullptr, want.count({"mcf", "default"}) == 1)
        << "cut at byte " << cut;
    ASSERT_EQ(gzip != nullptr, want.count({"gzip", "cell:1/seed:42"}) == 1)
        << "cut at byte " << cut;
    if (mcf) {
      SweepRow row;
      ASSERT_TRUE(decodeRow(*mcf, &row)) << "cut at byte " << cut;
      const SweepRow& expect = cut >= ends[2] ? rerun : first;
      EXPECT_EQ(row.result.baseline.cycles, expect.result.baseline.cycles)
          << "cut at byte " << cut;
      EXPECT_EQ(row.result.spt.cycles, expect.result.spt.cycles)
          << "cut at byte " << cut;
    }
    if (gzip) {
      FaultCampaignCell back;
      ASSERT_TRUE(decodeRow(*gzip, &back)) << "cut at byte " << cut;
      EXPECT_EQ(back.status, cell.status) << "cut at byte " << cut;
      EXPECT_EQ(back.diagnostic, cell.diagnostic) << "cut at byte " << cut;
      EXPECT_EQ(back.faults.injected, cell.faults.injected)
          << "cut at byte " << cut;
    }
  }
}

// Extends the two truncation tests above to one log mixing every record
// kind. (a) Truncating the log at EVERY byte offset replays exactly the
// records whose newline survived, flags the torn tail, and hands back the
// offset a writer must truncate to. (b) Every single-bit flip anywhere in
// the file either leaves a record's value unchanged or makes the record
// skipped: the reader never returns a row, admit or settle that was not
// written.
TEST(DurableLog, MixedLogTruncationAndBitFlipsNeverMisreport) {
  const std::vector<LogRecord> records = mixedLog();
  std::string text;
  std::vector<std::size_t> line_end;  // offset just past each '\n'
  for (const LogRecord& r : records) {
    text += formatLogRecord(r) + '\n';
    line_end.push_back(text.size());
  }
  const std::string path = testPath("integrity_property");

  for (std::size_t len = 0; len <= text.size(); ++len) {
    writeFile(path, text.substr(0, len));
    const LogReplay replay = readDurableLog(path);
    std::size_t complete = 0;
    std::size_t valid = 0;
    while (complete < line_end.size() && line_end[complete] <= len) {
      valid = line_end[complete];
      ++complete;
    }
    const std::vector<LogRecord> prefix(records.begin(),
                                        records.begin() + complete);
    ASSERT_TRUE(replay.error.empty()) << "len " << len;
    ASSERT_TRUE(matches(replay, model(prefix))) << "len " << len;
    ASSERT_EQ(replay.records_replayed, complete) << "len " << len;
    ASSERT_EQ(replay.records_skipped, 0u) << "len " << len;
    ASSERT_EQ(replay.torn_tail, len != valid) << "len " << len;
    ASSERT_EQ(replay.valid_bytes, valid) << "len " << len;
  }

  const Expected all = model(records);
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    // The record whose line holds byte `pos`; flipping its newline also
    // merges the next line into it.
    std::size_t line = 0;
    while (line_end[line] <= pos) ++line;
    std::set<std::size_t> hit = {line};
    if (pos + 1 == line_end[line] && line + 1 < records.size()) {
      hit.insert(line + 1);
    }
    std::vector<LogRecord> intact;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (!hit.count(i)) intact.push_back(records[i]);
    }
    const Expected survivors = model(intact);
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      writeFile(path, flipped);
      const LogReplay replay = readDurableLog(path);
      ASSERT_TRUE(replay.error.empty()) << "byte " << pos << " bit " << bit;
      const bool unchanged =
          replay.records_replayed == records.size() && matches(replay, all);
      const bool skipped = replay.records_replayed == intact.size() &&
                           matches(replay, survivors);
      ASSERT_TRUE(unchanged || skipped) << "byte " << pos << " bit " << bit;
    }
  }
}

// ---- Corruption is loud, not fatal ----------------------------------------

TEST(JournalReplay, ChecksumCorruptionSkipsOneRecordWithByteOffset) {
  const std::string first = formatLogRecord(admitRecord(1, "a", "r1"));
  std::string corrupt = formatLogRecord(admitRecord(2, "bbbbbbbb", "r2"));
  // One payload digit becomes another digit: still hex, still the right
  // length, so only the frame checksum can catch it.
  const std::size_t payload_digit = 2 * (support::wire::kFrameHeaderBytes + 12);
  corrupt[payload_digit] = corrupt[payload_digit] == '6' ? '7' : '6';
  const std::string third = formatLogRecord(settleRecord(1, "done"));
  const std::string path = testPath("checksum_corruption");
  writeFile(path, first + "\n" + corrupt + "\n" + third + "\n");

  const LogReplay replay = readDurableLog(path);
  EXPECT_EQ(replay.records_replayed, 2u);
  EXPECT_EQ(replay.records_skipped, 1u);
  EXPECT_TRUE(replay.unsettled.empty());  // 1 settled; 2 was corrupt
  ASSERT_EQ(replay.warnings.size(), 1u);
  EXPECT_NE(replay.warnings[0].find("byte offset " +
                                    std::to_string(first.size() + 1)),
            std::string::npos)
      << replay.warnings[0];
  EXPECT_NE(replay.warnings[0].find("checksum mismatch"), std::string::npos)
      << replay.warnings[0];
}

TEST(JournalReplay, UnknownVersionTagIsSkippedLoudly) {
  // A record written by a future format version is skipped with its byte
  // offset — never silently reinterpreted.
  ByteWriter admit;
  admit.u64(6);
  admit.str("");
  admit.str("r");
  const std::string future = frameLine(9, 1, admit.bytes());
  const std::string good = formatLogRecord(admitRecord(5, "", "r"));
  const std::string path = testPath("future_version");
  writeFile(path, future + "\n" + good + "\n");

  const LogReplay replay = readDurableLog(path);
  EXPECT_EQ(replay.records_replayed, 1u);
  EXPECT_EQ(replay.records_skipped, 1u);
  ASSERT_EQ(replay.unsettled.size(), 1u);
  EXPECT_EQ(replay.unsettled[0].id, 5u);
  ASSERT_EQ(replay.warnings.size(), 1u);
  EXPECT_NE(replay.warnings[0].find("byte offset 0"), std::string::npos)
      << replay.warnings[0];
  EXPECT_NE(replay.warnings[0].find("version 9"), std::string::npos)
      << replay.warnings[0];
}

// ---- Retired formats are refused, not misread ------------------------------

TEST(DurableLog, OlderFormatsAreRefusedWithAVersionedError) {
  const std::vector<std::string> old_files = {
      "spt-sweep-v1\tok\tmcf\tdefault\t1\t2\t\n",
      "spt-journal-v1\tsettle\t1\tdone\t0123456789abcdef\n"};
  for (const std::string& old : old_files) {
    const std::string tag = old.substr(0, old.find('\t'));
    const std::string path = testPath("old_" + tag);
    writeFile(path, old);

    const LogReplay replay = readDurableLog(path);
    EXPECT_NE(replay.error.find(path), std::string::npos) << replay.error;
    EXPECT_NE(replay.error.find(tag), std::string::npos) << replay.error;
    EXPECT_NE(replay.error.find(kDurableLogFormat), std::string::npos)
        << replay.error;
    EXPECT_TRUE(replay.rows.empty());
    EXPECT_TRUE(replay.unsettled.empty());

    // A writer refuses it too and leaves it untouched.
    DurableAppendFile file;
    EXPECT_FALSE(openDurableLog(path, /*fresh=*/false, file).error.empty());
    EXPECT_FALSE(file.isOpen());
    EXPECT_THROW(CheckpointLog(path, /*resume=*/true), DurableLogError);
    EXPECT_EQ(readFile(path), old);
  }
}

TEST(DurableLog, ReopeningCutsTheTornTailBeforeAppending) {
  const std::string path = testPath("reopen_torn");
  const std::string a = formatLogRecord(rowRecord("mcf", "default", "pa"));
  const std::string b = formatLogRecord(rowRecord("gzip", "default", "pb"));
  writeFile(path, a + "\n" + b.substr(0, 20));

  DurableAppendFile file;
  const LogReplay replay = openDurableLog(path, /*fresh=*/false, file);
  ASSERT_TRUE(replay.error.empty()) << replay.error;
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_TRUE(file.appendLine(b));
  file.close();
  EXPECT_EQ(readFile(path), a + "\n" + b + "\n");
  EXPECT_EQ(readDurableLog(path).rows.size(), 2u);
}

// ---- DurableAppendFile ----------------------------------------------------

TEST(DurableAppendFile, BytesMatchTheFormerOfstreamWriterExactly) {
  // The fd-based writer's file contents must be byte-identical to an
  // ofstream writing the same lines.
  const std::string durable_path = testPath("durable");
  const std::string stream_path = testPath("stream");
  const std::vector<std::string> records = {
      formatLogRecord(admitRecord(1, "t", "r1")),
      formatLogRecord(settleRecord(1, "done")), "plain text line"};

  DurableAppendFile f;
  ASSERT_TRUE(f.open(durable_path, /*truncate=*/true));
  ASSERT_TRUE(f.isOpen());
  std::ofstream os(stream_path, std::ios::binary | std::ios::trunc);
  for (const std::string& r : records) {
    ASSERT_TRUE(f.appendLine(r));
    ASSERT_TRUE(f.sync());
    os << r << '\n';
    os.flush();
  }
  f.close();
  os.close();
  EXPECT_EQ(readFile(durable_path), readFile(stream_path));

  // Reopening without truncate appends; with truncate starts fresh.
  DurableAppendFile again;
  ASSERT_TRUE(again.open(durable_path, /*truncate=*/false));
  ASSERT_TRUE(again.appendLine("tail"));
  again.close();
  EXPECT_EQ(readFile(durable_path), readFile(stream_path) + "tail\n");
  DurableAppendFile fresh;
  ASSERT_TRUE(fresh.open(durable_path, /*truncate=*/true));
  fresh.close();
  EXPECT_EQ(readFile(durable_path), "");
}

TEST(DurableAppendFile, AppendTornLeavesExactlyTheFragment) {
  const std::string path = testPath("torn");
  const std::string record = formatLogRecord(admitRecord(1, "", "r"));

  DurableAppendFile f;
  ASSERT_TRUE(f.open(path, /*truncate=*/true));
  ASSERT_TRUE(f.appendLine(record));
  ASSERT_TRUE(f.appendTorn(record, 16));
  f.close();
  EXPECT_EQ(readFile(path), record + "\n" + record.substr(0, 16));

  // The reader sees one clean record and one torn tail, and reports the
  // truncation point the next writer must cut back to.
  const LogReplay replay = readDurableLog(path);
  EXPECT_EQ(replay.records_replayed, 1u);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, record.size() + 1);

  // A torn request longer than the record degrades to the whole line
  // (still without the newline that would make it trusted).
  DurableAppendFile g;
  ASSERT_TRUE(g.open(path, /*truncate=*/true));
  ASSERT_TRUE(g.appendTorn(record, record.size() + 100));
  g.close();
  EXPECT_EQ(readFile(path), record);
  EXPECT_TRUE(readDurableLog(path).torn_tail);
  EXPECT_EQ(readDurableLog(path).records_replayed, 0u);
}

}  // namespace
}  // namespace spt::harness
