#include "core/auth_server.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace sy::core {
namespace {

constexpr int kDim = 6;

std::vector<std::vector<double>> cloud(std::uint64_t seed, std::size_t n,
                                       double center) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v(kDim);
    for (auto& x : v) x = rng.gaussian(center, 1.0);
    out.push_back(std::move(v));
  }
  return out;
}

struct Fixture {
  std::vector<VectorsByContext> positives;
  std::vector<EnrollmentRequest> requests;

  explicit Fixture(std::size_t n_users, std::size_t windows = 40) {
    positives.resize(n_users);
    requests.resize(n_users);
    for (std::size_t u = 0; u < n_users; ++u) {
      positives[u][sensors::DetectedContext::kStationary] =
          cloud(10 * u + 1, windows, static_cast<double>(u));
      positives[u][sensors::DetectedContext::kMoving] =
          cloud(10 * u + 2, windows, static_cast<double>(u) + 0.5);
      requests[u].user_token = static_cast<int>(u);
      requests[u].positives = &positives[u];
      requests[u].rng_seed = 500 + u;
    }
  }

  template <typename Server>
  void contribute_all(Server& server) const {
    for (std::size_t u = 0; u < positives.size(); ++u) {
      for (const auto& [context, vectors] : positives[u]) {
        server.contribute(static_cast<int>(u), context, vectors);
      }
    }
  }
};

void expect_models_identical(const AuthModel& a, const AuthModel& b) {
  ASSERT_EQ(a.models().size(), b.models().size());
  for (const auto& [context, cm] : a.models()) {
    ASSERT_TRUE(b.has_context(context));
    const auto& other = b.context_model(context);
    // pack() captures every learned parameter; exact double equality is the
    // bit-identity contract between the batch and sequential paths.
    EXPECT_EQ(cm.classifier.pack(), other.classifier.pack());
    EXPECT_EQ(cm.scaler.pack(), other.scaler.pack());
  }
}

TEST(AuthServerBatch, BatchOfOneBitIdenticalToSequentialPath) {
  const Fixture f(3);
  AuthServer sequential;
  AuthServer batched;
  f.contribute_all(sequential);
  f.contribute_all(batched);

  util::Rng rng(f.requests[1].rng_seed);
  const AuthModel seq = sequential.train_user_model(
      f.requests[1].user_token, f.positives[1], rng, 1);
  const auto batch = batched.train_user_models(
      std::span<const EnrollmentRequest>(&f.requests[1], 1));
  ASSERT_EQ(batch.size(), 1u);
  expect_models_identical(seq, batch[0]);
}

TEST(AuthServerBatch, BatchMatchesSequentialForEveryUser) {
  // Same seeds => identical weights regardless of worker scheduling.
  const Fixture f(8);
  AuthServer sequential;
  AuthServer batched;
  f.contribute_all(sequential);
  f.contribute_all(batched);

  const auto batch = batched.train_user_models(f.requests);
  ASSERT_EQ(batch.size(), f.requests.size());
  for (std::size_t u = 0; u < f.requests.size(); ++u) {
    util::Rng rng(f.requests[u].rng_seed);
    const AuthModel seq = sequential.train_user_model(
        f.requests[u].user_token, f.positives[u], rng, 1);
    expect_models_identical(seq, batch[u]);
  }
}

TEST(AuthServerBatch, OversubscribedPoolStillDeterministic) {
  // A dedicated pool with more workers than cores forces genuine
  // interleaving even on small machines; per-request seeds must keep the
  // result independent of scheduling.
  const Fixture f(8);
  util::ThreadPool pool(8);
  AuthServer threaded({}, {}, nullptr, &pool);
  AuthServer reference;
  f.contribute_all(threaded);
  f.contribute_all(reference);
  const auto a = threaded.train_user_models(f.requests);
  const auto b = reference.train_user_models(f.requests);
  for (std::size_t u = 0; u < f.requests.size(); ++u) {
    expect_models_identical(a[u], b[u]);
  }
}

TEST(AuthServerBatch, RepeatedBatchesAreDeterministic) {
  const Fixture f(4);
  AuthServer server;
  f.contribute_all(server);
  const auto first = server.train_user_models(f.requests);
  const auto second = server.train_user_models(f.requests);
  for (std::size_t u = 0; u < f.requests.size(); ++u) {
    expect_models_identical(first[u], second[u]);
  }
}

TEST(AuthServerBatch, ContributeAfterTrainingDoesNotPerturbPastResults) {
  // Growing the store between batches is safe and only affects later
  // batches; earlier results are untouched objects.
  Fixture f(3);
  AuthServer server;
  f.contribute_all(server);
  const auto before = server.train_user_models(f.requests);

  server.contribute(99, sensors::DetectedContext::kStationary,
                    cloud(777, 50, 4.0));
  EXPECT_EQ(server.store_size(sensors::DetectedContext::kStationary),
            3u * 40u + 50u);

  // Re-running the original users now legitimately sees the larger store;
  // the earlier results are untouched objects.
  const auto after = server.train_user_models(f.requests);
  ASSERT_EQ(after.size(), before.size());
}

TEST(AuthServerBatch, ThrowsWhenNetworkUnavailable) {
  const Fixture f(2);
  AuthServer server;
  f.contribute_all(server);
  NetworkConfig net;
  net.available = false;
  server.set_network(net);
  EXPECT_THROW(server.train_user_models(f.requests), std::runtime_error);
}

TEST(AuthServerBatch, ThrowsWhenContextHasNoImpostorData) {
  // A single contributor cannot train: every candidate negative is theirs.
  Fixture f(1);
  AuthServer server;
  f.contribute_all(server);
  EXPECT_THROW(server.train_user_models(f.requests), std::runtime_error);
}

TEST(AuthServerBatch, TransferAccountingIsDeterministic) {
  const Fixture f(4);
  AuthServer a;
  AuthServer b;
  f.contribute_all(a);
  f.contribute_all(b);
  (void)a.train_user_models(f.requests);
  (void)b.train_user_models(f.requests);
  EXPECT_EQ(a.transfers().bytes_up, b.transfers().bytes_up);
  EXPECT_EQ(a.transfers().bytes_down, b.transfers().bytes_down);
  EXPECT_EQ(a.transfers().uploads, f.requests.size());
  EXPECT_EQ(a.transfers().downloads, f.requests.size());
}

}  // namespace
}  // namespace sy::core
