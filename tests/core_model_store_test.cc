#include "core/model_store.h"

#include <gtest/gtest.h>

#include <fstream>

#include "ml/dataset.h"
#include "serve/volume.h"
#include "util/rng.h"

namespace sy::core {
namespace {

AuthModel make_trained_model(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  ml::Dataset train;
  std::vector<double> x(28);
  for (int i = 0; i < 60; ++i) {
    for (auto& v : x) v = rng.gaussian(1.0, 1.0);
    train.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-1.0, 1.0);
    train.add(x, -1);
  }
  AuthModel model(7, 3);
  for (const auto context : {sensors::DetectedContext::kStationary,
                             sensors::DetectedContext::kMoving}) {
    ml::StandardScaler scaler;
    scaler.fit(train.x);
    ml::KrrClassifier krr{ml::KrrConfig{}};
    const auto scaled = scaler.transform(train);
    krr.fit(scaled.x, scaled.y);
    model.set_context_model(context,
                            ContextModel(std::move(scaler), std::move(krr)));
  }
  return model;
}

TEST(AuthModel, ScoreRoutesToContextModel) {
  const AuthModel model = make_trained_model();
  util::Rng rng(9);
  std::vector<double> x(28);
  for (auto& v : x) v = rng.gaussian(1.0, 1.0);
  // Positive-side sample must be accepted by both context models.
  EXPECT_TRUE(model.accept(sensors::DetectedContext::kStationary, x));
  EXPECT_TRUE(model.accept(sensors::DetectedContext::kMoving, x));
  EXPECT_EQ(model.context_count(), 2u);
}

TEST(AuthModel, MissingContextThrows) {
  AuthModel model(1, 1);
  EXPECT_THROW(
      (void)model.score(sensors::DetectedContext::kMoving,
                        std::vector<double>(28, 0.0)),
      std::out_of_range);
}

TEST(ModelStore, RoundTripPreservesDecisions) {
  const AuthModel model = make_trained_model();
  const auto bytes = ModelStore::serialize(model);
  const AuthModel restored = ModelStore::deserialize(bytes);

  EXPECT_EQ(restored.user_id(), 7);
  EXPECT_EQ(restored.version(), 3);
  EXPECT_EQ(restored.context_count(), 2u);

  util::Rng rng(11);
  std::vector<double> x(28);
  for (int trial = 0; trial < 25; ++trial) {
    for (auto& v : x) v = rng.gaussian(0.0, 2.0);
    for (const auto context : {sensors::DetectedContext::kStationary,
                               sensors::DetectedContext::kMoving}) {
      EXPECT_NEAR(model.score(context, x), restored.score(context, x), 1e-12);
    }
  }
}

TEST(ModelStore, FileRoundTrip) {
  const AuthModel model = make_trained_model();
  const std::string path = ::testing::TempDir() + "/sy_model_test.bin";
  serve::FileVolume().publish(path, ModelStore::serialize(model),
                              serve::Volume::Durability::kAtomic);
  const AuthModel restored = ModelStore::load(path);
  EXPECT_EQ(restored.user_id(), model.user_id());
  EXPECT_EQ(restored.context_count(), model.context_count());
}

TEST(ModelStore, DetectsTamperedPayload) {
  const AuthModel model = make_trained_model();
  auto bytes = ModelStore::serialize(model);
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  EXPECT_THROW((void)ModelStore::deserialize(bytes), std::runtime_error);
}

TEST(ModelStore, DetectsTamperedDigest) {
  const AuthModel model = make_trained_model();
  auto bytes = ModelStore::serialize(model);
  bytes.back() ^= 0xff;
  EXPECT_THROW((void)ModelStore::deserialize(bytes), std::runtime_error);
}

TEST(ModelStore, RejectsTruncation) {
  const AuthModel model = make_trained_model();
  auto bytes = ModelStore::serialize(model);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)ModelStore::deserialize(bytes), std::runtime_error);
}

TEST(ModelStore, RejectsEmptyAndGarbage) {
  EXPECT_THROW((void)ModelStore::deserialize({}), std::runtime_error);
  std::vector<std::uint8_t> garbage(200, 0x42);
  EXPECT_THROW((void)ModelStore::deserialize(garbage), std::runtime_error);
}

TEST(ModelStore, DigestIsStable) {
  const AuthModel model = make_trained_model();
  const auto bytes = ModelStore::serialize(model);
  const auto bytes2 = ModelStore::serialize(model);
  EXPECT_EQ(ModelStore::digest_hex(bytes), ModelStore::digest_hex(bytes2));
  EXPECT_EQ(ModelStore::digest_hex(bytes).size(), 64u);
}

TEST(ModelStore, MissingFileThrowsMissingErrorWithPath) {
  const std::string path = ::testing::TempDir() + "/sy_model_absent.bin";
  try {
    (void)ModelStore::load(path);
    FAIL() << "expected ModelMissingError";
  } catch (const ModelMissingError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "message must name the offending path: " << e.what();
  }
}

TEST(ModelStore, CorruptFileThrowsCorruptErrorWithPath) {
  // A file that exists but fails integrity verification must be reported as
  // corrupt — a different operator action than a missing bundle.
  const AuthModel model = make_trained_model();
  auto bytes = ModelStore::serialize(model);
  bytes[bytes.size() / 2] ^= 0x01;
  const std::string path = ::testing::TempDir() + "/sy_model_corrupt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)ModelStore::load(path);
    FAIL() << "expected ModelCorruptError";
  } catch (const ModelCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "message must name the offending path: " << e.what();
  }
}

TEST(ModelStore, MissingAndCorruptAreDistinguishable) {
  // Both derive from ModelStoreError (and runtime_error for legacy callers),
  // but neither is an instance of the other.
  const std::string missing = ::testing::TempDir() + "/sy_model_none.bin";
  EXPECT_THROW((void)ModelStore::load(missing), ModelStoreError);
  bool caught_corrupt_as_missing = false;
  try {
    (void)ModelStore::deserialize(std::vector<std::uint8_t>(200, 0x42));
  } catch (const ModelMissingError&) {
    caught_corrupt_as_missing = true;
  } catch (const ModelCorruptError&) {
  }
  EXPECT_FALSE(caught_corrupt_as_missing);
}

}  // namespace
}  // namespace sy::core
