#include "serve/shard_log.h"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "core/model_store.h"
#include "util/framing.h"
#include "util/logging.h"
#include "util/sha256.h"

namespace sy::serve {

namespace {

constexpr std::uint8_t kRecordMagic[4] = {'S', 'Y', 'L', '1'};
constexpr std::uint32_t kRecordMagicU32 = util::magic_u32('S', 'Y', 'L', '1');
constexpr std::size_t kHeaderBytes = 8;   // magic + payload_len
constexpr std::size_t kDigestBytes = 32;  // SHA-256
// A single record far beyond any real contribution batch: a length field
// this large is corruption (e.g. a flipped high bit), not a torn write.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

[[noreturn]] void throw_corrupt(const std::string& what,
                                const std::string& path, std::size_t shard) {
  throw core::ModelCorruptError("ShardLog: " + what + " (" + path +
                                ", shard " + std::to_string(shard) + ")");
}

// True when a complete, digest-valid record starts anywhere in
// bytes[from..): distinguishes a genuine torn tail (the crash cut the final
// append — nothing valid can follow) from a corrupted length field that
// merely points past EOF while durable records still sit behind it.
// Requiring a verified digest at the candidate offset makes a false
// positive (random payload bytes that happen to parse AND hash correctly)
// practically impossible.
bool valid_record_follows(const std::vector<std::uint8_t>& bytes,
                          std::size_t from) {
  for (std::size_t pos = from; pos + kHeaderBytes <= bytes.size(); ++pos) {
    if (std::memcmp(bytes.data() + pos, kRecordMagic, 4) != 0) continue;
    util::ByteReader header(bytes.data() + pos + 4, 4);
    const std::uint32_t payload_len = header.u32();
    if (payload_len > kMaxPayloadBytes) continue;
    const std::size_t record_len = kHeaderBytes + payload_len + kDigestBytes;
    if (bytes.size() - pos < record_len) continue;
    const std::uint8_t* payload = bytes.data() + pos + kHeaderBytes;
    const auto digest = util::Sha256::hash(payload, payload_len);
    if (std::memcmp(digest.data(), payload + payload_len, kDigestBytes) ==
        0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string ShardLog::path_for(const std::string& dir, std::size_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".log";
}

ShardLog::ShardLog(std::string path, std::size_t shard,
                   std::unique_ptr<LogSink> sink)
    : path_(std::move(path)), shard_(shard), sink_(std::move(sink)) {}

void ShardLog::append(std::uint64_t seq, int contributor,
                      sensors::DetectedContext context,
                      const std::vector<std::vector<double>>& vectors) {
  std::vector<std::uint8_t> payload;
  util::put_u64(payload, seq);
  util::put_u32(payload, static_cast<std::uint32_t>(contributor));
  util::put_u32(payload, static_cast<std::uint32_t>(context));
  util::put_u64(payload, vectors.size());
  for (const auto& v : vectors) util::put_doubles(payload, v);

  std::vector<std::uint8_t> record;
  record.reserve(kHeaderBytes + payload.size() + kDigestBytes);
  util::put_u32(record, kRecordMagicU32);
  util::put_u32(record, static_cast<std::uint32_t>(payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  const auto digest = util::Sha256::hash(payload.data(), payload.size());
  record.insert(record.end(), digest.begin(), digest.end());

  // One append call per record: a torn write can only ever split a single
  // record, which is exactly the tail-truncation case replay tolerates.
  sink_->append(record.data(), record.size());
  ++records_appended_;
}

void ShardLog::reset() {
  sink_->reset();
  records_appended_ = 0;
}

ShardLog::ReplayResult ShardLog::replay(const std::string& path,
                                        std::size_t shard) {
  ReplayResult result;
  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(path, bytes)) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return result;  // no log yet
    throw core::ModelStoreError("ShardLog: cannot read " + path);
  }

  std::size_t pos = 0;
  std::uint64_t last_seq = 0;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    // Header incomplete at EOF: the crash tore the final record.
    if (remaining < kHeaderBytes) {
      result.dropped_torn_tail = true;
      result.torn_tail_bytes = remaining;
      break;
    }
    if (std::memcmp(bytes.data() + pos, kRecordMagic, 4) != 0) {
      throw_corrupt("bad record magic at offset " + std::to_string(pos), path,
                    shard);
    }
    util::ByteReader header(bytes.data() + pos + 4, 4);
    const std::uint32_t payload_len = header.u32();
    if (payload_len > kMaxPayloadBytes) {
      throw_corrupt("implausible record length at offset " +
                        std::to_string(pos),
                    path, shard);
    }
    const std::size_t record_len = kHeaderBytes + payload_len + kDigestBytes;
    if (remaining < record_len) {
      // Record runs past EOF. A torn final append looks like this — but so
      // does a mid-log bit flip in this record's length field. Only the
      // latter leaves digest-valid records in the remainder, and silently
      // dropping those would lose durable data, so probe before deciding.
      if (valid_record_follows(bytes, pos)) {
        throw_corrupt("record length at offset " + std::to_string(pos) +
                          " points past durable records",
                      path, shard);
      }
      result.dropped_torn_tail = true;
      result.torn_tail_bytes = remaining;
      break;
    }
    const std::uint8_t* payload = bytes.data() + pos + kHeaderBytes;
    const auto digest = util::Sha256::hash(payload, payload_len);
    if (std::memcmp(digest.data(), payload + payload_len, kDigestBytes) != 0) {
      throw_corrupt("record digest mismatch at offset " + std::to_string(pos),
                    path, shard);
    }

    Record record;
    try {
      util::ByteReader reader(payload, payload_len);
      record.seq = reader.u64();
      record.contributor = static_cast<int>(reader.u32());
      record.context = static_cast<sensors::DetectedContext>(reader.u32());
      const std::uint64_t n_vectors = reader.u64();
      if (n_vectors > reader.remaining() / 8) {
        throw_corrupt("record vector count exceeds payload at offset " +
                          std::to_string(pos),
                      path, shard);
      }
      record.vectors.reserve(static_cast<std::size_t>(n_vectors));
      for (std::uint64_t v = 0; v < n_vectors; ++v) {
        record.vectors.push_back(reader.doubles());
      }
      if (reader.remaining() != 0) {
        throw_corrupt("trailing bytes in record payload at offset " +
                          std::to_string(pos),
                      path, shard);
      }
    } catch (const util::ShortReadError&) {
      // Digest verified but the payload does not parse: the writer and
      // reader disagree, which is corruption, not a torn write.
      throw_corrupt("malformed record payload at offset " +
                        std::to_string(pos),
                    path, shard);
    }
    if (record.seq <= last_seq) {
      throw_corrupt("non-monotonic record sequence at offset " +
                        std::to_string(pos),
                    path, shard);
    }
    last_seq = record.seq;
    result.records.push_back(std::move(record));
    pos += record_len;
  }
  if (result.dropped_torn_tail) {
    util::log_warn_kv(
        "ShardLog: dropped torn tail record; recovering the durable prefix",
        {{"path", path},
         {"shard", shard},
         {"torn_bytes", result.torn_tail_bytes},
         {"recovered_records", result.records.size()}});
  }
  return result;
}

}  // namespace sy::serve
