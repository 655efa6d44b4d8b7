// Network serving layer tests (net/wire.h, net/server.h, net/client.h):
//
//  - Loopback end-to-end equivalence: a remote search over the wire returns
//    byte-identical doc_refs and equivalent stats to the in-process
//    SearchEngine, for all three schemes (APKS, APKS+, MRQED^D).
//  - Session auth: signed queries verify once per session; rogue issuers,
//    mangled signatures and unchecked mode against a strict server are
//    refused with distinct statuses.
//  - Wire-codec hostility: fuzz-style sweeps of truncated / bit-flipped /
//    oversized / bad-magic frames through FrameReassembler and the message
//    decoders (mirroring store_test's torn-tail sweeps), plus raw-socket
//    garbage against a live server — every malformed input yields a clean
//    status frame or disconnect, never a crash or allocation blowup.
//  - Backpressure on the wire: per-request deadlines and engine admission
//    control surface as kDeadlineExceeded / kOverloaded result statuses
//    with truncated-but-well-formed prefix results.
//  - Graceful shutdown: stop() drains inflight batches, notifies idle
//    connections, refuses new ones.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "hpe/serialize.h"
#include "mrqed/mrqed_backend.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve.h"

namespace apks {
namespace {

using net::NetClient;
using net::NetServer;
using net::NetServerOptions;
using net::RemoteResult;
using net::WireStatus;

// The pairing/scheme setup and record encryption are expensive; build all
// three populated servers once and share them (read-only) across tests.
struct NetEnv {
  Pairing e;
  ChaChaRng rng;

  // APKS: the TA also provides the IBS layer every signed session uses.
  Apks apks;
  TrustedAuthority ta;
  CapabilityVerifier verifier;
  ApksBackend apks_backend;
  CloudServer apks_server;
  AnyQuery apks_query;

  // APKS+ records are fully proxy-transformed before storage (the rig
  // pattern of the serving chaos tests).
  ApksPlus plus;
  ApksPlusSetupResult plus_setup;
  ApksPlusBackend plus_backend;
  CloudServer plus_server;
  AnyQuery plus_query;

  Mrqed mrqed;
  MrqedBackend mrqed_backend;
  CloudServer mrqed_server;
  AnyQuery mrqed_query;

  // CloudServer copies the verifier, so "TA" must be registered before the
  // servers are constructed, not after.
  static CapabilityVerifier make_verifier(const Pairing& e,
                                          const IbsPublicParams& params) {
    CapabilityVerifier v(e, params);
    v.register_authority("TA");
    return v;
  }

  NetEnv()
      : e(default_type_a_params()),
        rng("net-test"),
        apks(e, nursery_schema(1)),
        ta(apks, rng),
        verifier(make_verifier(e, ta.ibs_params())),
        apks_backend(apks),
        apks_server(apks_backend, verifier),
        plus(e, nursery_schema(1)),
        plus_setup(plus.setup_plus(rng)),
        plus_backend(plus),
        plus_server(plus_backend, verifier),
        mrqed(e, 2, 3),
        mrqed_backend(mrqed),
        mrqed_server(mrqed_backend, verifier) {
    const std::vector<PlainIndex> rows = nursery_rows();

    for (std::size_t i = 0; i < 6; ++i) {
      const PlainIndex& row = rows[(i * 769) % rows.size()];
      (void)apks_server.store(apks.gen_index(ta.public_key(), row, rng),
                              "apks-" + std::to_string(i));
    }
    const SignedCapability apks_cap =
        ta.issue(nursery_point_query(rows[769 % rows.size()]), rng);
    apks_query = AnyQuery::own(SchemeKind::kApks, apks_cap.cap);

    ProxyPipeline chain = make_proxy_pipeline(plus, plus_setup.r, 2, rng);
    for (std::size_t i = 0; i < 6; ++i) {
      const PlainIndex& row = rows[(i * 1201) % rows.size()];
      (void)plus_server.store(
          chain.process(plus.partial_gen_index(plus_setup.pk, row, rng)),
          "plus-" + std::to_string(i));
    }
    plus_query = AnyQuery::own(
        SchemeKind::kApksPlus,
        plus.gen_cap(plus_setup.msk,
                     nursery_point_query(rows[1201 % rows.size()]), rng));

    MrqedPublicKey pk;
    MrqedMasterKey msk;
    mrqed.setup(rng, pk, msk);
    const std::vector<std::vector<std::uint64_t>> points = {
        {0, 0}, {1, 5}, {3, 3}, {4, 7}, {6, 2}, {7, 7}};
    for (std::size_t i = 0; i < points.size(); ++i) {
      (void)mrqed_server.store_any(
          AnyIndex::own(SchemeKind::kMrqed, mrqed.encrypt(pk, points[i], rng)),
          "pt-" + std::to_string(i));
    }
    mrqed_query = AnyQuery::own(
        SchemeKind::kMrqed,
        mrqed.gen_key(pk, msk, {{0, 3}, {0, 7}}, rng));  // pt-0, pt-1, pt-2
  }
};

NetEnv& env() {
  static NetEnv* e = new NetEnv();
  return *e;
}

NetServerOptions unchecked_options() {
  NetServerOptions opts;
  opts.allow_unchecked = true;
  return opts;
}

// Failpoints are process-global: start and end every test clean.
class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().clear_all(); }
  void TearDown() override { Failpoints::instance().clear_all(); }
};

// The acceptance bar of the serving layer: the remote path returns
// byte-identical doc_refs and equivalent stats to the in-process engine.
void expect_loopback_equivalent(const CloudServer& server,
                                const AnyQuery& query, SchemeKind kind) {
  SearchEngine engine(server, {.threads = 2, .block_records = 2});
  const SearchBackend& backend = server.backend();

  const SearchReply reply = serve(engine, {.queries = {&query, 1}});
  const auto& local = reply.refs;
  const BatchMetrics& bm = reply.metrics;
  ASSERT_EQ(local.size(), 1u);

  NetServer net(engine, unchecked_options());
  NetClient client;
  client.connect("127.0.0.1", net.port(), /*timeout_ms=*/10000);
  const net::HelloAckMsg hello = client.hello(kind);
  ASSERT_EQ(hello.status, WireStatus::kOk) << hello.message;
  EXPECT_EQ(hello.scheme, kind);
  EXPECT_EQ(hello.records, server.record_count());

  const net::AuthAckMsg auth = client.auth_unchecked(backend.encode_query(query));
  ASSERT_EQ(auth.status, WireStatus::kOk) << auth.message;
  EXPECT_EQ(auth.digest, backend.digest(query));

  const RemoteResult remote = client.search();
  EXPECT_EQ(remote.status, WireStatus::kOk);
  EXPECT_EQ(remote.refs, local[0]);
  EXPECT_EQ(remote.scanned, bm.per_query[0].scanned);
  EXPECT_EQ(remote.matched, bm.per_query[0].matched);
  EXPECT_EQ(remote.refs.size(), remote.matched);
  EXPECT_EQ(remote.flags, 0u);

  // Second search on the same session: the digest-keyed prepared-query
  // cache serves it, and the results stay identical.
  const RemoteResult again = client.search();
  EXPECT_EQ(again.status, WireStatus::kOk);
  EXPECT_EQ(again.refs, local[0]);
  EXPECT_GE(engine.cache_hits(), 1u);

  const net::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.auth_ok, 1u);
  EXPECT_EQ(stats.searches_ok, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetTest, ApksLoopbackEquivalence) {
  expect_loopback_equivalent(env().apks_server, env().apks_query,
                             SchemeKind::kApks);
}

TEST_F(NetTest, ApksPlusLoopbackEquivalence) {
  expect_loopback_equivalent(env().plus_server, env().plus_query,
                             SchemeKind::kApksPlus);
}

TEST_F(NetTest, MrqedLoopbackEquivalence) {
  expect_loopback_equivalent(env().mrqed_server, env().mrqed_query,
                             SchemeKind::kMrqed);
}

// A small result-chunk size forces multi-frame streaming; reassembly must
// hand back the same refs in the same order.
TEST_F(NetTest, ResultStreamingAcrossChunks) {
  NetEnv& e = env();
  SearchEngine engine(e.mrqed_server, {.threads = 1});
  const auto local = serve(engine, {.queries = {&e.mrqed_query, 1}}).refs;
  ASSERT_GE(local[0].size(), 2u);

  NetServerOptions opts = unchecked_options();
  opts.result_chunk_refs = 1;  // one doc_ref per kResultChunk frame
  NetServer net(engine, opts);
  NetClient client;
  client.connect("127.0.0.1", net.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kMrqed).status, WireStatus::kOk);
  ASSERT_EQ(client
                .auth_unchecked(
                    e.mrqed_backend.encode_query(e.mrqed_query))
                .status,
            WireStatus::kOk);
  const RemoteResult remote = client.search();
  EXPECT_EQ(remote.status, WireStatus::kOk);
  EXPECT_EQ(remote.refs, local[0]);
}

// A session computes its query digest once per kAuth and every search job
// carries it to the engine. Re-authenticating must swap digest and query
// together: auth A → search → auth B → search → auth A → search answers
// for the capability authorized last, on the plain and the shard-scoped
// path alike.
TEST_F(NetTest, ReauthSwapsTheSessionDigestWithTheQuery) {
  NetEnv& e = env();
  const std::vector<PlainIndex> rows = nursery_rows();
  const AnyQuery qa = e.apks_query;
  const AnyQuery qb = AnyQuery::own(
      SchemeKind::kApks,
      e.ta.issue(nursery_point_query(rows[(3 * 769) % rows.size()]), e.rng)
          .cap);
  const SearchEngine oracle(e.apks_server, {.threads = 1, .cache_capacity = 0});
  const std::vector<std::string> want_a =
      serve(oracle, {.queries = {&qa, 1}}).refs[0];
  const std::vector<std::string> want_b =
      serve(oracle, {.queries = {&qb, 1}}).refs[0];
  ASSERT_NE(want_a, want_b);

  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "kShardSearch" : "kSearch");
    const SearchEngine engine(e.apks_server, {.threads = 2, .block_records = 2});
    NetServerOptions opts = unchecked_options();
    if (sharded) {
      auto set = std::make_shared<net::ShardEngineSet>();
      set->map_version = 1;
      set->total_shards = 1;
      set->shards = {{0, &engine}};
      opts.shard_set = std::move(set);
    }
    NetServer net(engine, opts);
    NetClient client;
    client.connect("127.0.0.1", net.port(), 10000);
    ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);

    const std::uint32_t shard = 0;
    for (const AnyQuery* q : {&qa, &qb, &qa}) {
      const std::vector<std::string>& want = q == &qa ? want_a : want_b;
      const net::AuthAckMsg auth =
          client.auth_unchecked(e.apks_backend.encode_query(*q));
      ASSERT_EQ(auth.status, WireStatus::kOk) << auth.message;
      EXPECT_EQ(auth.digest, e.apks_backend.digest(*q));
      std::vector<std::string> got;
      if (sharded) {
        const net::ShardRemoteResult remote =
            client.shard_search({&shard, 1}, 1, 1);
        ASSERT_EQ(remote.status, WireStatus::kOk) << remote.message;
        for (const net::ShardHit& hit : remote.hits) got.push_back(hit.ref);
      } else {
        const RemoteResult remote = client.search();
        ASSERT_EQ(remote.status, WireStatus::kOk) << remote.message;
        got = remote.refs;
      }
      EXPECT_EQ(got, want);
    }
    // A and B were each prepared once; the second A search hit the cache.
    EXPECT_EQ(engine.cache_misses(), 2u);
    EXPECT_EQ(engine.cache_hits(), 1u);
  }
}

// --- session establishment ---------------------------------------------------

TEST_F(NetTest, SignedSessionAuthAcceptsAndRejects) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1});
  NetServerOptions opts;  // allow_unchecked stays false: strict server
  NetServer net(engine, opts);

  const std::vector<std::uint8_t> query_bytes =
      e.apks_backend.encode_query(e.apks_query);
  const SignedQuery sq = e.ta.issue_query(e.apks_backend, e.apks_query, e.rng);
  const std::vector<std::uint8_t> sig_bytes =
      net::encode_signature(e.e.curve(), sq.sig);

  NetClient client;
  client.connect("127.0.0.1", net.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);

  // Unchecked mode against a strict server: refused before any crypto.
  EXPECT_EQ(client.auth_unchecked(query_bytes).status,
            WireStatus::kUnauthorized);
  // ...and with no authorized session, searches are refused too.
  EXPECT_EQ(client.search().status, WireStatus::kUnauthorized);

  // A rogue issuer's signature does not verify.
  EXPECT_EQ(client.auth_signed(query_bytes, "rogue", sig_bytes).status,
            WireStatus::kUnauthorized);

  // Mangled signature bytes are a malformed message, not a crash.
  std::vector<std::uint8_t> torn(sig_bytes.begin(),
                                 sig_bytes.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         sig_bytes.size() / 2));
  EXPECT_EQ(client.auth_signed(query_bytes, sq.issuer, torn).status,
            WireStatus::kBadRequest);

  // The genuine signature establishes the session; searches then flow.
  const net::AuthAckMsg ok = client.auth_signed(query_bytes, sq.issuer,
                                                sig_bytes);
  ASSERT_EQ(ok.status, WireStatus::kOk) << ok.message;
  const RemoteResult remote = client.search();
  EXPECT_EQ(remote.status, WireStatus::kOk);
  EXPECT_FALSE(remote.refs.empty());

  const net::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.auth_ok, 1u);
  EXPECT_EQ(stats.auth_rejected, 3u);
}

// The server decodes only k*_dec and keeps the rest of the key as the bytes
// it received, so the signature check covers those bytes verbatim: a
// flipped byte inside a k*_del point is refused as unauthorized, while a
// layout fault there is still a malformed message.
TEST_F(NetTest, SignedSessionCoversTheUndecodedKeyBytes) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1});
  NetServer net(engine, NetServerOptions{});  // strict: signed only

  const std::vector<std::uint8_t> query_bytes =
      e.apks_backend.encode_query(e.apks_query);
  const SignedQuery sq = e.ta.issue_query(e.apks_backend, e.apks_query, e.rng);
  const std::vector<std::uint8_t> sig_bytes =
      net::encode_signature(e.e.curve(), sq.sig);

  // Capability layout: version u8, key length u32, then the key: level
  // u32, dec, ran count, ran vectors, del count, del vectors (each vector
  // a u32 count and its points).
  const HpeKey& key = e.apks_query.as<Capability>().key;
  constexpr std::size_t kPt = Curve::kCompressedSize;
  std::size_t del_at = 1 + 4 + 4 + 4 + key.dec.size() * kPt + 4;
  for (const GVec& v : key.ran) del_at += 4 + v.size() * kPt;
  const std::size_t first_del_point = del_at + 4 + 4;
  const std::size_t key_end = 1 + 4 + serialize_key(e.e, key).size();
  ASSERT_LT(first_del_point + kPt, key_end);

  std::vector<std::uint8_t> flipped = query_bytes;
  flipped[first_del_point + 17] ^= 0x20;
  // The last del vector loses its last point and the key length shrinks
  // to match, so the vector's count exceeds its payload.
  std::vector<std::uint8_t> truncated = query_bytes;
  truncated.erase(truncated.begin() + static_cast<std::ptrdiff_t>(key_end - kPt),
                  truncated.begin() + static_cast<std::ptrdiff_t>(key_end));
  const std::uint32_t key_len = static_cast<std::uint32_t>(key_end - 5 - kPt);
  for (int i = 0; i < 4; ++i) {
    truncated[1 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(key_len >> (8 * i));
  }

  NetClient client;
  client.connect("127.0.0.1", net.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);

  EXPECT_EQ(client.auth_signed(flipped, sq.issuer, sig_bytes).status,
            WireStatus::kUnauthorized);
  EXPECT_EQ(client.auth_signed(truncated, sq.issuer, sig_bytes).status,
            WireStatus::kBadRequest);
  EXPECT_EQ(client.search().status, WireStatus::kUnauthorized);

  const net::AuthAckMsg ok =
      client.auth_signed(query_bytes, sq.issuer, sig_bytes);
  ASSERT_EQ(ok.status, WireStatus::kOk) << ok.message;
  EXPECT_EQ(ok.digest, e.apks_backend.digest(e.apks_query));
  const RemoteResult remote = client.search();
  EXPECT_EQ(remote.status, WireStatus::kOk);
  EXPECT_FALSE(remote.refs.empty());
}

// A blocking loopback socket with a 5 s receive timeout, for speaking
// hand-built frames to a live server.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval tv{5, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

TEST_F(NetTest, SchemeAndVersionMismatchRefusedAtHello) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1});
  NetServer net(engine, unchecked_options());

  {
    NetClient client;
    client.connect("127.0.0.1", net.port(), 10000);
    const net::HelloAckMsg ack = client.hello(SchemeKind::kMrqed);
    EXPECT_EQ(ack.status, WireStatus::kBadRequest);
    EXPECT_EQ(ack.scheme, SchemeKind::kApks);  // the server names its scheme
    EXPECT_NE(ack.message.find("mismatch"), std::string::npos);
  }

  // An auth frame before hello is a protocol error: terminal status frame.
  {
    NetClient client;
    client.connect("127.0.0.1", net.port(), 10000);
    EXPECT_THROW((void)client.auth_unchecked({}), ServingError);
  }

  // One protocol version, no negotiation: a raw hello carrying any other
  // version gets a kBadRequest hello-ack and the server hangs up, while
  // kNetVersion opens a session.
  const auto raw_hello = [&](std::uint8_t version, bool expect_close) {
    const int fd = raw_connect(net.port());
    const auto frame = net::encode_frame(
        net::HelloMsg{version, SchemeKind::kApks}.encode());
    (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    net::FrameReassembler in;
    std::optional<std::vector<std::uint8_t>> payload;
    std::uint8_t buf[4096];
    ssize_t n = 1;
    while (!payload.has_value() && (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      in.feed({buf, static_cast<std::size_t>(n)});
      payload = in.next();
    }
    net::HelloAckMsg ack;
    ack.status = WireStatus::kUnavailable;
    if (payload.has_value()) {
      const net::ParsedFrame parsed = net::parse_frame(*payload);
      EXPECT_EQ(parsed.type, net::MsgType::kHelloAck);
      ack = net::HelloAckMsg::decode(parsed.body);
    } else {
      ADD_FAILURE() << "no hello-ack for version " << int{version};
    }
    if (expect_close) {
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      }
      EXPECT_EQ(n, 0) << "version " << int{version} << " left open";
    }
    ::close(fd);
    return ack;
  };
  for (const std::uint8_t version :
       std::initializer_list<std::uint8_t>{0, 1, 2, 4, 255}) {
    const net::HelloAckMsg ack = raw_hello(version, /*expect_close=*/true);
    EXPECT_EQ(ack.status, WireStatus::kBadRequest) << int{version};
    EXPECT_NE(ack.message.find("protocol version"), std::string::npos)
        << ack.message;
  }
  const net::HelloAckMsg ok = raw_hello(net::kNetVersion, false);
  EXPECT_EQ(ok.status, WireStatus::kOk) << ok.message;
  EXPECT_EQ(ok.version, net::kNetVersion);
}

// --- wire-codec hostility ----------------------------------------------------

// Every message type's encode() output, for sweep fodder.
std::vector<std::vector<std::uint8_t>> sample_payloads() {
  net::ResultChunkMsg chunk;
  chunk.request_id = 7;
  chunk.refs = {"alpha", "beta", "gamma"};
  net::ResultEndMsg end;
  end.request_id = 7;
  end.scanned = 100;
  end.matched = 3;
  net::AuthMsg auth;
  auth.mode = net::AuthMsg::Mode::kSigned;
  auth.query = {1, 2, 3, 4};
  auth.issuer = "TA";
  auth.sig = {9, 9, 9};
  net::AuthAckMsg auth_ack;
  net::SearchMsg search;
  search.request_id = 7;
  net::StatusMsg status{WireStatus::kShutdown, "bye"};
  net::ShardSearchMsg shard_search;
  shard_search.request_id = 7;
  shard_search.map_version = 3;
  shard_search.total_shards = 4;
  shard_search.shards = {0, 2};
  net::ShardChunkMsg shard_chunk;
  shard_chunk.request_id = 7;
  shard_chunk.hits = {{1, "alpha"}, {5, "beta"}, {9, "gamma"}};
  net::PingMsg ping{42};
  net::PongMsg pong{42, 3, 2};
  net::MapUpdateMsg map_update;
  map_update.map_bytes = {5, 4, 3, 2, 1};
  net::MapUpdateAckMsg map_ack;
  map_ack.status = WireStatus::kBadRequest;
  map_ack.version = 9;
  map_ack.message = "not newer";
  return {net::HelloMsg{}.encode(),  net::HelloAckMsg{}.encode(),
          auth.encode(),             auth_ack.encode(),
          search.encode(),           chunk.encode(),
          end.encode(),              status.encode(),
          shard_search.encode(),     shard_chunk.encode(),
          ping.encode(),             pong.encode(),
          map_update.encode(),       map_ack.encode()};
}

// Decoding a payload must either succeed or throw std::invalid_argument /
// std::out_of_range; anything else (crash, UB) fails the test harness.
void decode_hostile(std::span<const std::uint8_t> payload) {
  try {
    const net::ParsedFrame frame = net::parse_frame(payload);
    switch (frame.type) {
      case net::MsgType::kHello: (void)net::HelloMsg::decode(frame.body); break;
      case net::MsgType::kHelloAck:
        (void)net::HelloAckMsg::decode(frame.body);
        break;
      case net::MsgType::kAuth: (void)net::AuthMsg::decode(frame.body); break;
      case net::MsgType::kAuthAck:
        (void)net::AuthAckMsg::decode(frame.body);
        break;
      case net::MsgType::kSearch:
        (void)net::SearchMsg::decode(frame.body);
        break;
      case net::MsgType::kResultChunk:
        (void)net::ResultChunkMsg::decode(frame.body);
        break;
      case net::MsgType::kResultEnd:
        (void)net::ResultEndMsg::decode(frame.body);
        break;
      case net::MsgType::kStatus:
        (void)net::StatusMsg::decode(frame.body);
        break;
      case net::MsgType::kShardSearch:
        (void)net::ShardSearchMsg::decode(frame.body);
        break;
      case net::MsgType::kShardChunk:
        (void)net::ShardChunkMsg::decode(frame.body);
        break;
      case net::MsgType::kPing: (void)net::PingMsg::decode(frame.body); break;
      case net::MsgType::kPong: (void)net::PongMsg::decode(frame.body); break;
      case net::MsgType::kMapUpdate:
        (void)net::MapUpdateMsg::decode(frame.body);
        break;
      case net::MsgType::kMapUpdateAck:
        (void)net::MapUpdateAckMsg::decode(frame.body);
        break;
    }
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
}

// Torn-tail / bit-flip sweep over every message type, mirroring the
// store_test segment sweeps: truncations at every byte boundary and every
// single-bit flip, through both the frame layer and the decoders.
TEST_F(NetTest, HostileFrameSweepNeverCrashes) {
  for (const auto& payload : sample_payloads()) {
    const std::vector<std::uint8_t> frame = net::encode_frame(payload);

    // Truncations: an incomplete frame never yields a payload.
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      net::FrameReassembler r;
      r.feed({frame.data(), cut});
      EXPECT_FALSE(r.next().has_value()) << "cut=" << cut;
    }

    // Bit flips: the frame layer (CRC/len) catches most; whatever slips
    // through to a decoder must throw cleanly.
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = frame;
        mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
        net::FrameReassembler r;
        r.feed(mutated);
        if (auto got = r.next(); got.has_value()) {
          decode_hostile(*got);
        }
      }
    }

    // Truncated payloads reframed with a valid CRC reach the decoders.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      decode_hostile(std::span<const std::uint8_t>(payload.data(), cut));
    }
  }
}

TEST_F(NetTest, OversizedLengthIsAProtocolErrorNotAnAllocation) {
  net::FrameReassembler r;
  // A hostile length field: 4 GiB - 1. The reassembler must flag the error
  // on header arrival without buffering toward that length.
  const std::uint8_t header[8] = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
  r.feed(header);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.error());
  EXPECT_LT(r.buffered(), 64u);

  // A poisoned stream stays poisoned: later valid frames are not parsed.
  const auto good = net::encode_frame(net::HelloMsg{}.encode());
  r.feed(good);
  EXPECT_FALSE(r.next().has_value());
}

// Raw-socket garbage against a live server: each hostile client gets a
// clean disconnect, and the server keeps serving well-formed sessions.
TEST_F(NetTest, RawSocketGarbageDisconnectsCleanly) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1});
  NetServer net(engine, unchecked_options());

  const auto hostile_round = [&](std::span<const std::uint8_t> bytes) {
    const int fd = raw_connect(net.port());
    (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    // Drain until the server hangs up (status frames included); the
    // disconnect — not a hang, not a crash — is the contract.
    std::uint8_t buf[4096];
    ssize_t n;
    do {
      n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n > 0);
    EXPECT_EQ(n, 0) << "server did not close the hostile connection";
    ::close(fd);
  };

  // Bad magic / not-a-frame-at-all.
  const std::uint8_t junk[] = {'G', 'E', 'T', ' ', '/', '\r', '\n', '\r', '\n'};
  hostile_round(junk);
  // Oversized length header.
  const std::uint8_t huge[8] = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
  hostile_round(huge);
  // Valid frame, CRC mismatch.
  auto bad_crc = net::encode_frame(net::HelloMsg{}.encode());
  bad_crc[4] ^= 0x01;
  hostile_round(bad_crc);
  // Valid frame, unknown message type.
  hostile_round(net::encode_frame(std::vector<std::uint8_t>{0x7f, 1, 2}));
  // Valid frame, wrong scheme tag inside the hello.
  {
    auto payload = net::HelloMsg{}.encode();
    payload.back() = 0x7f;  // scheme byte is last
    hostile_round(net::encode_frame(payload));
  }

  EXPECT_GE(net.stats().protocol_errors, 4u);

  // The server is still healthy: a well-formed session serves results.
  NetClient client;
  client.connect("127.0.0.1", net.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(e.apks_backend.encode_query(e.apks_query))
                .status,
            WireStatus::kOk);
  EXPECT_EQ(client.search().status, WireStatus::kOk);
}

// --- backpressure on the wire ------------------------------------------------

TEST_F(NetTest, DeadlineAndOverloadSurfaceAsDistinctWireStatuses) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server,
                      {.threads = 1, .block_records = 1, .max_inflight = 1});
  NetServer net(engine, unchecked_options());
  const std::vector<std::uint8_t> query_bytes =
      e.apks_backend.encode_query(e.apks_query);

  // Fault-free reference for prefix comparison.
  const auto full = serve(engine, {.queries = {&e.apks_query, 1}}).refs;

  // Each scan block stalls 30 ms (6 records, 1 per block: ~180 ms/scan).
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 30;
  Failpoints::instance().set("engine.scan_block", slow);

  // Overload: a slow search holds the engine's only inflight slot; a
  // second session's search is shed with kOverloaded on the wire.
  std::thread holder([&] {
    NetClient client;
    client.connect("127.0.0.1", net.port(), 10000);
    ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);
    ASSERT_EQ(client.auth_unchecked(query_bytes).status, WireStatus::kOk);
    const RemoteResult r = client.search();
    EXPECT_EQ(r.status, WireStatus::kOk);
    EXPECT_EQ(r.refs, full[0]);
  });
  for (int spin = 0; spin < 5000 && engine.inflight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine.inflight(), 1u) << "holder search never started";

  NetClient shed;
  shed.connect("127.0.0.1", net.port(), 10000);
  ASSERT_EQ(shed.hello(SchemeKind::kApks).status, WireStatus::kOk);
  ASSERT_EQ(shed.auth_unchecked(query_bytes).status, WireStatus::kOk);
  const RemoteResult overloaded = shed.search();
  EXPECT_EQ(overloaded.status, WireStatus::kOverloaded);
  EXPECT_TRUE(overloaded.refs.empty());
  holder.join();

  // Deadline: a 40 ms budget dies mid-scan. With partial_ok the client
  // receives the truncated-but-well-formed prefix; without it, status only.
  const RemoteResult partial = shed.search(/*deadline_ms=*/40,
                                           /*partial_ok=*/true);
  EXPECT_EQ(partial.status, WireStatus::kDeadlineExceeded);
  EXPECT_NE(partial.flags & net::kResultDeadlineExceeded, 0);
  EXPECT_NE(partial.flags & net::kResultTruncated, 0);
  EXPECT_LT(partial.scanned, e.apks_server.record_count());
  ASSERT_LE(partial.refs.size(), full[0].size());
  for (std::size_t i = 0; i < partial.refs.size(); ++i) {
    EXPECT_EQ(partial.refs[i], full[0][i]);
  }

  const RemoteResult status_only = shed.search(/*deadline_ms=*/40,
                                               /*partial_ok=*/false);
  EXPECT_EQ(status_only.status, WireStatus::kDeadlineExceeded);
  EXPECT_TRUE(status_only.refs.empty());

  const net::NetServerStats stats = net.stats();
  EXPECT_EQ(stats.searches_overloaded, 1u);
  EXPECT_EQ(stats.searches_deadline, 2u);
  EXPECT_EQ(stats.searches_ok, 1u);
}

// --- graceful shutdown -------------------------------------------------------

TEST_F(NetTest, GracefulStopDrainsInflightAndRefusesNewConnections) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1, .block_records = 1});
  auto net = std::make_unique<NetServer>(engine, unchecked_options());
  const std::uint16_t port = net->port();
  const std::vector<std::uint8_t> query_bytes =
      e.apks_backend.encode_query(e.apks_query);

  // Slow scan so stop() genuinely overlaps an inflight batch.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 20;
  Failpoints::instance().set("engine.scan_block", slow);

  std::atomic<bool> finished{false};
  std::thread inflight([&] {
    NetClient client;
    client.connect("127.0.0.1", port, 10000);
    ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);
    ASSERT_EQ(client.auth_unchecked(query_bytes).status, WireStatus::kOk);
    try {
      const RemoteResult r = client.search();
      // Drained within the grace window (kOk) or cancelled at a block
      // boundary (kCancelled): both are well-formed terminal frames.
      EXPECT_TRUE(r.status == WireStatus::kOk ||
                  r.status == WireStatus::kCancelled)
          << net::wire_status_name(r.status);
    } catch (const ServingError&) {
      // A kShutdown status frame (or close) mid-stream is also clean.
    }
    finished = true;
  });
  for (int spin = 0; spin < 5000 && net->inflight_jobs() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  net->stop(/*grace_ms=*/5000);
  EXPECT_TRUE(net->stopped());
  EXPECT_EQ(net->inflight_jobs(), 0u);
  inflight.join();
  EXPECT_TRUE(finished.load());

  // The listener is gone: new connections are refused.
  NetClient late;
  EXPECT_THROW(late.connect("127.0.0.1", port, 1000), ServingError);

  // stop() is idempotent (and the destructor tolerates a stopped server).
  net->stop(0);
  net.reset();
}

// --- client socket timeouts --------------------------------------------------

// A server whose io loop stalls (net.read delay) must trip the client's
// read timeout: the typed kDeadlineExceeded surfaces, and the connection
// is torn down — never reused with a half-read frame in its buffer.
TEST_F(NetTest, ClientReadTimeoutSurfacesTypedErrorAndDropsConnection) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1});
  NetServer net(engine, unchecked_options());

  NetClient client;
  client.connect("127.0.0.1", net.port(), /*timeout_ms=*/200);
  ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(e.apks_backend.encode_query(e.apks_query))
                .status,
            WireStatus::kOk);

  // Every server-side read now stalls well past the client's 200 ms
  // socket budget.
  FailpointPolicy stall;
  stall.action = FailAction::kDelay;
  stall.delay_ms = 1500;
  Failpoints::instance().set(net::kSiteRead, stall);

  try {
    (void)client.search();
    FAIL() << "a stalled server must trip the client read timeout";
  } catch (const ServingError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kDeadlineExceeded) << ex.what();
  }
  // The timed-out connection is NOT reusable: the socket was closed, and
  // another call reports the disconnection instead of misparsing bytes
  // from the abandoned exchange.
  EXPECT_FALSE(client.connected());
  try {
    (void)client.search();
    FAIL() << "a timed-out client must not silently reuse the socket";
  } catch (const ServingError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kIo);
  }

  // A fresh connect (after the failpoint clears) works again.
  Failpoints::instance().clear_all();
  client.connect("127.0.0.1", net.port(), 10000);
  EXPECT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);
}

// A full accept queue (the listener never calls accept) must trip the
// client's CONNECT timeout with the same typed error.
TEST_F(NetTest, ClientConnectTimeoutSurfacesTypedError) {
  // A raw listener with a minimal backlog that never accepts.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, /*backlog=*/1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  // Fill the accept queue with throwaway connects so further SYNs are
  // dropped and the poll below can only time out.
  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) break;
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  NetClient client;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client.connect("127.0.0.1", port, /*timeout_ms=*/300);
    // Kernels with a generous backlog may still take the connection —
    // then there is nothing to assert against.
  } catch (const ServingError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kDeadlineExceeded) << ex.what();
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_GE(waited.count(), 250);   // the timeout actually gated the wait
    EXPECT_LE(waited.count(), 5000);  // and it fired, not TCP's own timer
    EXPECT_FALSE(client.connected());
  }

  for (const int fd : fillers) ::close(fd);
  ::close(listener);
}

// abort() from another thread unblocks a client stuck reading a reply and
// surfaces as a transport error on the owning thread — the hedged-read
// loser-cancel path.
TEST_F(NetTest, CrossThreadAbortUnblocksAStalledRead) {
  NetEnv& e = env();
  SearchEngine engine(e.apks_server, {.threads = 1});
  NetServer net(engine, unchecked_options());

  NetClient client;
  client.connect("127.0.0.1", net.port(), /*timeout_ms=*/0);  // block forever
  ASSERT_EQ(client.hello(SchemeKind::kApks).status, WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(e.apks_backend.encode_query(e.apks_query))
                .status,
            WireStatus::kOk);

  FailpointPolicy stall;
  stall.action = FailAction::kDelay;
  stall.delay_ms = 2000;
  Failpoints::instance().set(net::kSiteRead, stall);

  std::thread aborter([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    client.abort();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.search(), ServingError);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(waited.count(), 1900);  // unblocked by abort, not the failpoint
  aborter.join();
  client.close();
  EXPECT_FALSE(client.connected());
}

}  // namespace
}  // namespace apks
