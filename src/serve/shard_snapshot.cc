#include "serve/shard_snapshot.h"

#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "core/model_store.h"
#include "core/population_codec.h"
#include "util/framing.h"
#include "util/sha256.h"

namespace sy::serve {

namespace {

constexpr std::uint32_t kMagicU32 = util::magic_u32('S', 'Y', 'P', 'S');
constexpr std::uint32_t kFormatVersion = 1;

[[noreturn]] void throw_corrupt(const std::string& what,
                                const std::string& path, std::size_t shard) {
  throw core::ModelCorruptError("ShardSnapshot: " + what + " (" + path +
                                ", shard " + std::to_string(shard) + ")");
}

}  // namespace

std::string snapshot_path_for(const std::string& dir, std::size_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".snap";
}

void write_shard_snapshot(Volume& volume, const std::string& path,
                          std::size_t shard, std::size_t shard_count,
                          std::uint64_t last_seq,
                          const core::PopulationStore& segment) {
  std::vector<std::uint8_t> out;
  util::put_u32(out, kMagicU32);
  util::put_u32(out, kFormatVersion);
  util::put_u32(out, static_cast<std::uint32_t>(shard));
  util::put_u32(out, static_cast<std::uint32_t>(shard_count));
  util::put_u64(out, last_seq);
  core::append_population_segment(out, segment);
  const auto digest = util::Sha256::hash(out.data(), out.size());
  out.insert(out.end(), digest.begin(), digest.end());

  // Publish atomically AND durably: recovery must find the previous
  // snapshot or this one, never a torn or lost one.
  volume.publish(path, out, Volume::Durability::kDurable);
}

std::optional<ShardSnapshot> load_shard_snapshot(const std::string& path,
                                                 std::size_t shard,
                                                 std::size_t shard_count) {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file_bytes(path, bytes)) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    throw core::ModelStoreError("ShardSnapshot: cannot read " + path);
  }

  try {
    util::ByteReader reader =
        util::ByteReader::open_digest_framed(bytes, kMagicU32);
    const std::uint32_t format = reader.u32();
    if (format != kFormatVersion) {
      throw_corrupt("unsupported format version", path, shard);
    }
    const std::uint32_t file_shard = reader.u32();
    const std::uint32_t file_count = reader.u32();
    if (file_shard != shard || file_count != shard_count) {
      throw std::invalid_argument(
          "ShardSnapshot: " + path + " was written for shard " +
          std::to_string(file_shard) + "/" + std::to_string(file_count) +
          " but is being recovered as shard " + std::to_string(shard) + "/" +
          std::to_string(shard_count) +
          " — re-sharding on recovery is not supported");
    }
    ShardSnapshot snap;
    snap.last_seq = reader.u64();
    snap.segment = core::read_population_segment(reader);
    if (reader.remaining() != 0) {
      throw_corrupt("trailing bytes", path, shard);
    }
    return snap;
  } catch (const util::EnvelopeError& e) {
    throw_corrupt(e.what(), path, shard);
  } catch (const util::ShortReadError&) {
    throw_corrupt("truncated snapshot body", path, shard);
  }
}

}  // namespace sy::serve
