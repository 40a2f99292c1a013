// HTTP framing and loopback-network edge cases.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "api/sbd.h"
#include "net/http.h"
#include "net/loopback.h"

namespace sbd::net {
namespace {

std::function<size_t(void*, size_t)> string_source(const std::string& wire,
                                                   std::shared_ptr<size_t> pos) {
  return [wire, pos](void* out, size_t n) -> size_t {
    const size_t take = std::min(n, wire.size() - *pos);
    std::memcpy(out, wire.data() + *pos, take);
    *pos += take;
    return take;
  };
}

TEST(HttpEdge, BareLfLineEndingsAccepted) {
  const std::string wire = "GET /x HTTP/1.1\nHost: a\n\n";
  auto pos = std::make_shared<size_t>(0);
  HttpRequest req;
  ASSERT_EQ(read_request_status(string_source(wire, pos), req), ReadStatus::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.headers.at("Host"), "a");
}

TEST(HttpEdge, HeaderWhitespaceTrimmed) {
  const std::string wire = "GET / HTTP/1.1\r\nKey:    spaced value\r\n\r\n";
  auto pos = std::make_shared<size_t>(0);
  HttpRequest req;
  ASSERT_EQ(read_request_status(string_source(wire, pos), req), ReadStatus::kOk);
  EXPECT_EQ(req.headers.at("Key"), "spaced value");
}

TEST(HttpEdge, BodyLengthRespected) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/p";
  req.body = std::string(1000, 'x');
  const std::string wire = serialize(req) + "TRAILING GARBAGE";
  auto pos = std::make_shared<size_t>(0);
  HttpRequest back;
  ASSERT_EQ(read_request_status(string_source(wire, pos), back), ReadStatus::kOk);
  EXPECT_EQ(back.body.size(), 1000u);
  EXPECT_EQ(back.body[999], 'x');
}

TEST(HttpEdge, TruncatedBodyReturnsWhatArrived) {
  const std::string wire = "POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  auto pos = std::make_shared<size_t>(0);
  HttpRequest req;
  ASSERT_EQ(read_request_status(string_source(wire, pos), req), ReadStatus::kOk);
  EXPECT_EQ(req.body, "abc");
}

TEST(HttpEdge, MalformedHeaderLinesSkipped) {
  const std::string wire = "GET / HTTP/1.1\r\nno-colon-line\r\nGood: v\r\n\r\n";
  auto pos = std::make_shared<size_t>(0);
  HttpRequest req;
  ASSERT_EQ(read_request_status(string_source(wire, pos), req), ReadStatus::kOk);
  EXPECT_EQ(req.headers.size(), 1u);
  EXPECT_EQ(req.headers.at("Good"), "v");
}

TEST(NetEdge, WriteBlocksWhenPipeFull) {
  Pipe p(64);  // tiny capacity
  std::atomic<bool> writerDone{false};
  std::thread writer([&] {
    std::vector<uint8_t> big(256, 7);
    p.write(big.data(), big.size());  // must block until drained
    writerDone = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(writerDone.load());
  // Drain.
  uint8_t buf[256];
  size_t got = 0;
  while (got < 256) got += p.read(buf + got, sizeof(buf) - got);
  writer.join();
  EXPECT_TRUE(writerDone.load());
  for (uint8_t b : buf) EXPECT_EQ(b, 7);
}

TEST(NetEdge, WriteToClosedReaderDropsData) {
  Pipe p;
  p.close_read();
  p.write("xyz", 3);  // must not block or crash
  EXPECT_EQ(p.available(), 0u);
}

TEST(NetEdge, WaitReadableSeesEof) {
  Pipe p;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    p.close_write();
  });
  EXPECT_FALSE(p.wait_readable());
  closer.join();
}

TEST(NetEdge, SequentialConnectionsToOnePort) {
  auto listener = Network::instance().listen(8801);
  std::thread server([&] {
    for (int i = 0; i < 3; i++) {
      Socket s = listener.accept();
      char c;
      if (s.read(&c, 1) == 1) s.write(&c, 1);
      s.close();
    }
  });
  for (int i = 0; i < 3; i++) {
    Socket c = Network::instance().connect(8801);
    const char msg = static_cast<char>('a' + i);
    c.write(&msg, 1);
    char back = 0;
    EXPECT_EQ(c.read(&back, 1), 1u);
    EXPECT_EQ(back, msg);
    c.close();
  }
  server.join();
  listener.close();
}

TEST(NetEdge, RebindAfterClose) {
  auto l1 = Network::instance().listen(8802);
  l1.close();
  auto l2 = Network::instance().listen(8802);  // must not assert
  l2.close();
  SUCCEED();
}

}  // namespace
}  // namespace sbd::net
