/// Tests for the serving wire layer introduced with the epoll front end:
/// the FrameCodec seam (JSON lines vs binary batched frames) exercised
/// adversarially against in-memory buffers, and the negotiated protocols
/// exercised end-to-end over real sockets — including the contract that a
/// JSON-mode response and a binary-mode response for the same request are
/// byte-identical for every op.

#include "serve/client.h"
#include "serve/engine.h"
#include "serve/event_loop.h"
#include "serve/framing.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "serve/transport.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace ipso::serve {
namespace {

/// A deterministic fit request; the seed perturbs EX so distinct seeds are
/// distinct cache keys.
std::string fit_request(int seed, const char* op = "fit") {
  const double t1 = 100.0 + seed;
  std::ostringstream os;
  os << "{\"op\":\"" << op
     << "\",\"workload\":\"fixed-time\",\"eta\":0.99,\"ex\":[";
  bool first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (t1 / n + 0.5) << "]";
  }
  os << "],\"in\":[";
  first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (0.4 + 1.05 * n) << "]";
  }
  os << "]}";
  return os.str();
}

std::vector<WireBatch> decode_all(FrameCodec& codec, std::string& buf) {
  std::vector<WireBatch> out;
  auto ok = codec.decode(buf, out);
  EXPECT_TRUE(ok.has_value()) << ok.error().message;
  return out;
}

// ------------------------------------------------------------ binary codec

TEST(BinaryCodec, RoundTripsBatches) {
  BinaryFrameCodec codec;
  const std::vector<std::string> records = {"{\"op\":\"ping\"}", "",
                                            std::string(1000, 'x')};
  std::string buf = codec.encode(records);
  const auto batches = decode_all(codec, buf);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_FALSE(batches[0].error_frame);
  EXPECT_EQ(batches[0].records, records);
  EXPECT_TRUE(buf.empty()) << "decode must consume the whole frame";
}

TEST(BinaryCodec, DecodesMultipleFramesFromOneBuffer) {
  BinaryFrameCodec codec;
  std::string buf = codec.encode({"a"}) + codec.encode({"b", "c"}) +
                    codec.encode({});
  const auto batches = decode_all(codec, buf);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].records, std::vector<std::string>{"a"});
  EXPECT_EQ(batches[1].records, (std::vector<std::string>{"b", "c"}));
  EXPECT_TRUE(batches[2].records.empty()) << "zero-count frames are valid";
}

TEST(BinaryCodec, ReassemblesOneBytePartialFeeds) {
  BinaryFrameCodec codec;
  const std::vector<std::string> records = {"{\"op\":\"ping\"}", "tail"};
  const std::string wire = codec.encode(records);
  std::string buf;
  std::vector<WireBatch> batches;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    buf.push_back(wire[i]);
    auto ok = codec.decode(buf, batches);
    ASSERT_TRUE(ok.has_value()) << ok.error().message;
    // No batch may surface before the last byte arrives.
    EXPECT_EQ(batches.empty(), i + 1 < wire.size());
  }
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].records, records);
}

TEST(BinaryCodec, ErrorFlagRoundTrips) {
  BinaryFrameCodec codec;
  std::string buf = codec.encode_error("{\"ok\":false}");
  const auto batches = decode_all(codec, buf);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0].error_frame);
  EXPECT_EQ(batches[0].records, std::vector<std::string>{"{\"ok\":false}"});
}

TEST(BinaryCodec, RejectsWrongMagic) {
  BinaryFrameCodec codec;
  std::string buf = codec.encode({"x"});
  buf[1] = 'Q';
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("magic"), std::string::npos);
}

TEST(BinaryCodec, RejectsWrongVersion) {
  BinaryFrameCodec codec;
  std::string buf = codec.encode({"x"});
  buf[4] = 9;
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("version"), std::string::npos);
}

TEST(BinaryCodec, RejectsOversizedLengthPrefix) {
  BinaryFrameCodec codec(1024);
  // Header claiming a 4 GiB payload: must be rejected from the header
  // alone, before any allocation or buffering of the claimed payload.
  std::string buf(reinterpret_cast<const char*>(kFrameMagic), 4);
  buf.push_back(static_cast<char>(kFrameVersion));
  buf.push_back('\0');
  buf += std::string("\x01\x00", 2);          // count = 1
  buf += std::string("\xFF\xFF\xFF\xFF", 4);  // payload_len = 0xFFFFFFFF
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("limit"), std::string::npos);
}

TEST(BinaryCodec, RejectsCountThatCannotFitPayload) {
  BinaryFrameCodec codec;
  std::string buf(reinterpret_cast<const char*>(kFrameMagic), 4);
  buf.push_back(static_cast<char>(kFrameVersion));
  buf.push_back('\0');
  buf += std::string("\xFF\xFF", 2);          // count = 65535
  buf += std::string("\x08\x00\x00\x00", 4);  // payload_len = 8
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("cannot fit"), std::string::npos);
}

TEST(BinaryCodec, RejectsRecordOverrunningPayload) {
  BinaryFrameCodec codec;
  std::string buf = codec.encode({"abcd"});
  // Inflate the record's length prefix past the payload end.
  buf[kFrameHeaderBytes] = 0x7F;
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("overruns"), std::string::npos);
}

TEST(BinaryCodec, RejectsTrailingPayloadBytes) {
  BinaryFrameCodec codec;
  // A one-record frame whose payload_len claims 4 extra trailing bytes.
  const std::string record = "abcd";
  std::string buf(reinterpret_cast<const char*>(kFrameMagic), 4);
  buf.push_back(static_cast<char>(kFrameVersion));
  buf.push_back('\0');
  buf += std::string("\x01\x00", 2);
  const std::uint32_t payload =
      static_cast<std::uint32_t>(4 + record.size() + 4);
  buf.push_back(static_cast<char>(payload & 0xFF));
  buf += std::string("\x00\x00\x00", 3);
  buf.push_back(static_cast<char>(record.size()));
  buf += std::string("\x00\x00\x00", 3);
  buf += record;
  buf += std::string("!!!!", 4);
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("trailing"), std::string::npos);
}

TEST(BinaryCodec, PartialHeaderWaitsForMoreBytes) {
  BinaryFrameCodec codec;
  std::string buf(reinterpret_cast<const char*>(kFrameMagic), 4);
  buf.push_back(static_cast<char>(kFrameVersion));
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(buf.size(), 5u) << "partial header must stay buffered";
}

// -------------------------------------------------------------- JSON codec

TEST(JsonCodec, SplitsLinesStripsCrSkipsEmpty) {
  JsonLineCodec codec;
  std::string buf = "{\"a\":1}\r\n\n{\"b\":2}\n{\"partial\":";
  const auto batches = decode_all(codec, buf);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].records, std::vector<std::string>{"{\"a\":1}"});
  EXPECT_EQ(batches[1].records, std::vector<std::string>{"{\"b\":2}"});
  EXPECT_EQ(buf, "{\"partial\":") << "incomplete line must stay buffered";
}

TEST(JsonCodec, RejectsUnboundedLine) {
  JsonLineCodec codec(64);
  std::string buf(65, 'x');  // no newline in sight
  std::vector<WireBatch> out;
  auto result = codec.decode(buf, out);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("newline"), std::string::npos);
}

TEST(JsonCodec, EncodeJoinsWithNewlines) {
  JsonLineCodec codec;
  EXPECT_EQ(codec.encode({"a", "b"}), "a\nb\n");
  EXPECT_EQ(codec.encode_error("err"), "err\n");
}

// ------------------------------------------------------------- negotiation

TEST(Negotiation, SniffsProtocolFromFirstByte) {
  EXPECT_EQ(sniff_protocol(""), WireProto::kUnknown);
  EXPECT_EQ(sniff_protocol("{\"op\":\"ping\"}"), WireProto::kJson);
  EXPECT_EQ(sniff_protocol("\xAB"), WireProto::kBinary);
  EXPECT_EQ(make_codec(WireProto::kJson, 1024)->name(), "json");
  EXPECT_EQ(make_codec(WireProto::kBinary, 1024)->name(), "binary");
}

// --------------------------------------------------------------- over TCP

class ServeWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServeConfig cfg;
    cfg.threads = 2;
    cfg.queue_capacity = 4096;
    engine_ = std::make_unique<ServeEngine>(cfg);
    server_ = std::make_unique<TcpServer>(*engine_);
    auto started = server_->start();
    ASSERT_TRUE(started.has_value()) << started.error().message;
  }

  std::unique_ptr<ServeEngine> engine_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(ServeWireTest, JsonAndBinaryResponsesAreByteIdenticalForEveryOp) {
  // One request per op, plus a parse error. Sent sequentially on one
  // connection per protocol, so engine-side state (cache, counters) evolves
  // identically and even the stats op must answer byte-identically.
  const std::vector<std::string> requests = {
      "{\"op\":\"ping\",\"id\":\"p1\"}",
      fit_request(1),
      fit_request(2, "classify"),
      fit_request(3, "predict"),
      fit_request(4, "recommend"),
      "{\"op\":\"diagnose\",\"workload\":\"fixed-time\",\"eta\":0.99,"
      "\"speedup\":[[1,1],[2,1.9],[4,3.4],[8,5.1],[16,6.0]]}",
      "{\"op\":\"classify\",\"params\":{\"workload\":\"fixed-time\","
      "\"eta\":0.95,\"a_ex\":1,\"b_ex\":0.1,\"a_in\":0.2,\"b_in\":0.01}}",
      "this is not json",
      "{\"op\":\"stats\"}",
  };

  std::vector<std::string> json_responses;
  {
    ServeConfig cfg;
    cfg.threads = 1;
    ServeEngine engine(cfg);
    TcpServer server(engine);
    auto started = server.start();
    ASSERT_TRUE(started.has_value()) << started.error().message;
    Client client(Proto::kJson);
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()).has_value());
    for (const std::string& req : requests) {
      auto response = client.call(req);
      ASSERT_TRUE(response.has_value()) << response.error().message;
      json_responses.push_back(*response);
    }
  }
  std::vector<std::string> binary_responses;
  {
    ServeConfig cfg;
    cfg.threads = 1;
    ServeEngine engine(cfg);
    TcpServer server(engine);
    auto started = server.start();
    ASSERT_TRUE(started.has_value()) << started.error().message;
    Client client(Proto::kBinary);
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()).has_value());
    for (const std::string& req : requests) {
      auto response = client.call(req);
      ASSERT_TRUE(response.has_value()) << response.error().message;
      binary_responses.push_back(*response);
    }
  }

  ASSERT_EQ(json_responses.size(), binary_responses.size());
  for (std::size_t i = 0; i < json_responses.size(); ++i) {
    EXPECT_EQ(json_responses[i], binary_responses[i])
        << "op " << i << " diverged between protocols";
  }
  EXPECT_NE(json_responses[0].find("\"pong\":true"), std::string::npos);
  EXPECT_NE(json_responses[7].find("\"error\":\"parse_error\""),
            std::string::npos);
}

TEST_F(ServeWireTest, BinaryBatchAnswersInRequestOrder) {
  Client client(Proto::kBinary);
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).has_value());
  std::vector<std::string> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back("{\"op\":\"ping\",\"id\":\"r" + std::to_string(i) +
                      "\"}");
  }
  records.push_back("broken json");  // rejected inline, still slot-ordered
  auto responses = client.call_batch(records);
  ASSERT_TRUE(responses.has_value()) << responses.error().message;
  ASSERT_EQ(responses->size(), records.size());
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE((*responses)[static_cast<std::size_t>(i)].find(
                  "\"id\":\"r" + std::to_string(i) + "\""),
              std::string::npos)
        << "response " << i << " out of order";
  }
  EXPECT_NE(responses->back().find("\"error\":\"parse_error\""),
            std::string::npos);
}

TEST_F(ServeWireTest, PipelinedFramesComeBackInOrder) {
  Client client(Proto::kBinary);
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).has_value());
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    auto sent = client.send_batch(
        {"{\"op\":\"ping\",\"id\":\"f" + std::to_string(i) + "\"}"});
    ASSERT_TRUE(sent.has_value()) << sent.error().message;
  }
  for (int i = 0; i < kFrames; ++i) {
    auto batch = client.recv_batch(1);
    ASSERT_TRUE(batch.has_value()) << batch.error().message;
    ASSERT_EQ(batch->size(), 1u);
    EXPECT_NE(batch->front().find("\"id\":\"f" + std::to_string(i) + "\""),
              std::string::npos);
  }
}

TEST_F(ServeWireTest, ZeroCountFrameIsAnsweredWithZeroCountFrame) {
  // Client no longer emits zero-count frames (empty batches are no-ops; see
  // EmptyBatchIsANoOpOnBothProtocols), but a foreign peer may: the server
  // answers with a zero-count frame of its own and keeps the connection.
  auto fd = net::connect_tcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.has_value()) << fd.error().message;
  BinaryFrameCodec codec;
  ASSERT_TRUE(net::send_all(*fd, codec.encode({})));
  std::string buf;
  std::vector<WireBatch> batches;
  char chunk[4096];
  while (batches.empty()) {
    const net::IoResult r = net::recv_some(*fd, chunk, sizeof chunk);
    ASSERT_EQ(r.status, net::IoStatus::kOk)
        << "server closed before answering the empty frame";
    buf.append(chunk, r.bytes);
    auto ok = codec.decode(buf, batches);
    ASSERT_TRUE(ok.has_value()) << ok.error().message;
  }
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_FALSE(batches[0].error_frame);
  EXPECT_TRUE(batches[0].records.empty());
  net::close_fd(*fd);
}

TEST_F(ServeWireTest, EmptyBatchIsANoOpOnBothProtocols) {
  // Regression: call_batch({}) used to put a zero-count frame on the wire
  // in binary mode, and a pipelined JSON-mode recv_batch(0) could steal
  // records decoded for the next batch, then hang in recv. An empty batch
  // now sends nothing and returns an empty vector, and recv_batch(0)
  // returns immediately — even interleaved into a pipelined sequence.
  for (const Proto proto : {Proto::kJson, Proto::kBinary}) {
    Client client(proto);
    ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).has_value());
    auto responses = client.call_batch({});
    ASSERT_TRUE(responses.has_value()) << responses.error().message;
    EXPECT_TRUE(responses->empty()) << to_string(proto);

    ASSERT_TRUE(
        client.send_batch({"{\"op\":\"ping\",\"id\":\"a\"}"}).has_value());
    ASSERT_TRUE(client.send_batch({}).has_value());
    ASSERT_TRUE(
        client.send_batch({"{\"op\":\"ping\",\"id\":\"b\"}"}).has_value());
    auto first = client.recv_batch(1);
    ASSERT_TRUE(first.has_value()) << first.error().message;
    ASSERT_EQ(first->size(), 1u);
    EXPECT_NE(first->front().find("\"id\":\"a\""), std::string::npos);
    auto none = client.recv_batch(0);
    ASSERT_TRUE(none.has_value()) << none.error().message;
    EXPECT_TRUE(none->empty());
    auto second = client.recv_batch(1);
    ASSERT_TRUE(second.has_value()) << second.error().message;
    ASSERT_EQ(second->size(), 1u);
    EXPECT_NE(second->front().find("\"id\":\"b\""), std::string::npos)
        << "recv_batch(0) must not steal the next batch's records ("
        << to_string(proto) << ")";
  }
}

TEST_F(ServeWireTest, GarbageAfterMagicGetsErrorFrameAndClose) {
  auto fd = net::connect_tcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.has_value()) << fd.error().message;
  // First byte selects binary; the rest of the header is garbage (bad
  // magic continuation), which is an unrecoverable framing error.
  std::string junk = "\xAB";
  junk += std::string(32, 'Z');
  ASSERT_TRUE(net::send_all(*fd, junk));

  std::string buf;
  BinaryFrameCodec codec;
  std::vector<WireBatch> batches;
  char chunk[4096];
  while (batches.empty()) {
    const net::IoResult r = net::recv_some(*fd, chunk, sizeof chunk);
    ASSERT_EQ(r.status, net::IoStatus::kOk)
        << "server closed before sending the error frame";
    buf.append(chunk, r.bytes);
    auto ok = codec.decode(buf, batches);
    ASSERT_TRUE(ok.has_value()) << ok.error().message;
  }
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0].error_frame);
  ASSERT_EQ(batches[0].records.size(), 1u);
  EXPECT_NE(batches[0].records[0].find("\"error\":\"protocol_error\""),
            std::string::npos);
  // And then the server closes the connection.
  const net::IoResult eof = net::recv_some(*fd, chunk, sizeof chunk);
  EXPECT_EQ(eof.status, net::IoStatus::kClosed);
  net::close_fd(*fd);
  EXPECT_GE(server_->net_stats().protocol_errors, 1u);
}

TEST_F(ServeWireTest, JsonModeProtocolErrorAnswersInlineAndCloses) {
  // A server with a 64-byte line bound (ServerConfig field 4 is
  // max_frame_bytes, which also caps JSON line length).
  TcpServer tiny_server(*engine_, ServerConfig{"127.0.0.1", 0, 1, 64});
  ASSERT_TRUE(tiny_server.start().has_value());
  auto fd2 = net::connect_tcp("127.0.0.1", tiny_server.port());
  ASSERT_TRUE(fd2.has_value()) << fd2.error().message;
  // 100 bytes with no newline exceeds the 64-byte line bound.
  ASSERT_TRUE(net::send_all(*fd2, std::string(100, 'a')));
  std::string buf;
  char chunk[4096];
  while (buf.find('\n') == std::string::npos) {
    const net::IoResult r = net::recv_some(*fd2, chunk, sizeof chunk);
    ASSERT_EQ(r.status, net::IoStatus::kOk)
        << "server closed before sending the error line";
    buf.append(chunk, r.bytes);
  }
  EXPECT_NE(buf.find("\"error\":\"protocol_error\""), std::string::npos);
  const net::IoResult eof = net::recv_some(*fd2, chunk, sizeof chunk);
  EXPECT_EQ(eof.status, net::IoStatus::kClosed);
  net::close_fd(*fd2);
}

TEST_F(ServeWireTest, MixedProtocolConnectionsShareTheFitCache) {
  Client json_client(Proto::kJson);
  Client binary_client(Proto::kBinary);
  ASSERT_TRUE(json_client.connect("127.0.0.1", server_->port()).has_value());
  ASSERT_TRUE(
      binary_client.connect("127.0.0.1", server_->port()).has_value());
  const std::string req = fit_request(42);
  auto first = json_client.call(req);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  const std::size_t fits_after_first = engine_->fits_performed();
  auto second = binary_client.call(req);
  ASSERT_TRUE(second.has_value()) << second.error().message;
  EXPECT_EQ(*first, *second)
      << "cached response must be byte-identical across protocols";
  EXPECT_EQ(engine_->fits_performed(), fits_after_first)
      << "binary-mode request must hit the cache the JSON request warmed";
}

TEST_F(ServeWireTest, BackpressurePausesReadsInsteadOfBufferingUnbounded) {
  // A client with a tiny receive window that doesn't read until it has
  // sent everything: the server's write backlog must cross the (small)
  // high watermark and pause reads rather than buffer without bound.
  ServeConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 1 << 18;
  ServeEngine engine(cfg);
  ServerConfig server_cfg;
  server_cfg.write_high_watermark = 8 * 1024;
  server_cfg.write_low_watermark = 1024;
  TcpServer server(engine, server_cfg);
  ASSERT_TRUE(server.start().has_value());

  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  const int tiny = 2048;  // shrink the window before connect
  ::setsockopt(raw, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // ~6 MiB of responses across 4 frames: beyond even the kernel's
  // autotuned send-buffer ceiling (tcp_wmem max, typically 4 MiB), so the
  // server cannot hide the whole backlog in the socket and must hit the
  // watermark.
  constexpr std::size_t kPings = 32768;
  constexpr std::size_t kFrames = 4;
  BinaryFrameCodec codec;
  const std::vector<std::string> records(kPings, "{\"op\":\"ping\"}");
  std::string wire;
  for (std::size_t f = 0; f < kFrames; ++f) wire += codec.encode(records);
  ASSERT_TRUE(net::send_all(raw, wire));

  // Hold off reading until the server stalls. Responses to a socket nobody
  // reads overflow the kernel's buffers, so the watermark must trip; a
  // client that reads as soon as send_all returns drains a fast server's
  // output as it is produced, and whether it stalls is then a race. The
  // wait is bounded: a server that never stalls fails the check below.
  for (int spin = 0;
       spin < 1000 && server.net_stats().backpressure_stalls == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Now start reading; every response must still arrive, one frame per
  // request frame, in order.
  std::string buf;
  std::vector<WireBatch> batches;
  char chunk[8192];
  while (batches.size() < kFrames) {
    const net::IoResult r = net::recv_some(raw, chunk, sizeof chunk);
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    buf.append(chunk, r.bytes);
    auto ok = codec.decode(buf, batches);
    ASSERT_TRUE(ok.has_value()) << ok.error().message;
  }
  ASSERT_EQ(batches.size(), kFrames);
  for (const WireBatch& batch : batches) {
    ASSERT_EQ(batch.records.size(), kPings);
    for (const std::string& response : batch.records) {
      ASSERT_NE(response.find("\"pong\":true"), std::string::npos);
    }
  }
  net::close_fd(raw);
  const NetStats stats = server.net_stats();
  EXPECT_GE(stats.backpressure_stalls, 1u)
      << "a stalled peer must trip the write watermark";
  server.shutdown();
}

TEST_F(ServeWireTest, NetStatsCountFramesAndBytes) {
  Client client(Proto::kBinary);
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).has_value());
  auto responses = client.call_batch(
      {"{\"op\":\"ping\"}", "{\"op\":\"ping\"}", "{\"op\":\"ping\"}"});
  ASSERT_TRUE(responses.has_value()) << responses.error().message;
  // bytes_out is counted after the send syscall, so the client can observe
  // the response a beat before the shard thread bumps the counter; stats
  // are eventually consistent, so wait for the counter rather than racing
  // it.
  NetStats stats = server_->net_stats();
  for (int spin = 0; spin < 200 && stats.bytes_out == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = server_->net_stats();
  }
  EXPECT_GE(stats.frames_in, 1u);
  EXPECT_GE(stats.frames_out, 1u);
  EXPECT_GE(stats.requests_in, 3u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_EQ(server_->connections_accepted(), stats.connections_accepted);
}

TEST(EventLoop, CrossThreadDrainRegression) {
  // Regression for an unguarded access found by thread-safety analysis:
  // EventLoopServer::started_ was a plain bool written by start() and read
  // by begin_drain()/finish(), which Router::shutdown and signal paths run
  // from other threads. It is atomic now; this test drives exactly that
  // cross-thread shape so the TSan leg of the CI matrix catches a
  // regression to the unsynchronized bool.
  ServeEngine engine((ServeConfig{}));
  ServerConfig cfg;
  cfg.shards = 2;
  EventLoopServer server(
      [&engine](std::string record, std::function<void(std::string)> done) {
        engine.submit_async(std::move(record), std::move(done));
      },
      cfg);
  ASSERT_TRUE(server.start().has_value());

  std::thread stopper([&server] {
    server.begin_drain();
    server.finish();
  });
  stopper.join();

  // Idempotent from the owning thread afterwards.
  server.begin_drain();
  server.finish();
}

}  // namespace
}  // namespace ipso::serve
