// On-phone model persistence with integrity protection (paper §IV-C,
// "protecting data at rest").
//
// Wire format (little-endian doubles in a simple tagged layout):
//   [magic "SYMD"] [format u32] [user u32] [version u32] [n_contexts u32]
//   per context: [context u32] [scaler_len u64] [scaler doubles]
//                [krr_len u64] [krr doubles]
//   [32-byte SHA-256 over everything above]
// load() recomputes the digest and refuses tampered files.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/auth_model.h"

namespace sy::core {

// Base of every model-store failure; the two subclasses let callers (e.g. a
// gateway's cache miss path) distinguish "model was never persisted" from
// "model exists but is corrupt or tampered" — the former is retrainable, the
// latter is a security event.
struct ModelStoreError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct ModelMissingError : ModelStoreError {
  using ModelStoreError::ModelStoreError;
};
struct ModelCorruptError : ModelStoreError {
  using ModelStoreError::ModelStoreError;
};

class ModelStore {
 public:
  // Magic + format + user + version, readable without parsing (or
  // digest-verifying) the whole bundle.
  struct Header {
    int user_id{0};
    int version{0};
  };

  // Serializes the bundle (including digest).
  static std::vector<std::uint8_t> serialize(const AuthModel& model);
  // Parses and verifies; throws ModelCorruptError on corruption.
  static AuthModel deserialize(const std::vector<std::uint8_t>& bytes);

  // Reads a bundle file (written by serve::Volume::publish). Throws
  // ModelMissingError when `path` does not exist and ModelCorruptError
  // (with the offending path in the message) when the bundle fails parsing
  // or integrity verification.
  static AuthModel load(const std::string& path);

  // Reads only the fixed 16-byte header of a persisted bundle: magic and
  // format are validated, but the integrity digest is NOT — the result is a
  // hint (e.g. for a gateway rebuilding its version table after a restart),
  // and any actual model use still goes through the verified load() path.
  // Throws ModelMissingError / ModelCorruptError like load().
  static Header peek_header(const std::string& path);

  // Hex digest of a serialized bundle (for audit logs).
  static std::string digest_hex(const std::vector<std::uint8_t>& bytes);
};

}  // namespace sy::core
